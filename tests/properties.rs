//! Property-based tests on the cross-crate invariants, on
//! `dpack-check` (ported from the former proptest suite; runs in
//! tier-1).

use dpack::accounting::{block_capacity, fits, AlphaGrid, RdpCurve, RenyiFilter};
use dpack::core::problem::{pack, Block, PackingRule, ProblemState, Task};
use dpack::core::schedulers::{
    sort_by_efficiency, DPack, Dpf, Fcfs, GreedyArea, KnapsackOracle, Optimal, Scheduler,
};
use dpack::orchestration::ParallelDPack;
use dpack::solvers::privacy::{alpha_enumeration, solve, SolveLimits};
use dpack::solvers::{exact, fptas, greedy, Item};
use dpack_check::{
    bools, check_cases, floats, ints, prop_assert, prop_assert_eq, vecs, Failed, Strategy,
};
use dpack_wal::{SimStorage, Wal, WalOptions};

use std::collections::BTreeMap;

const CASES: u32 = 64;

/// A small strategy for non-negative demands.
fn demand_vec(orders: usize) -> impl Strategy<Value = Vec<f64>> {
    vecs(floats(0.0..1.5), orders..orders + 1)
}

fn small_grid() -> AlphaGrid {
    AlphaGrid::new(vec![2.0, 4.0, 8.0]).expect("valid grid")
}

/// Composition is commutative and associative order-by-order.
#[test]
fn curve_composition_laws() {
    check_cases(
        "curve_composition_laws",
        CASES,
        (demand_vec(3), demand_vec(3), demand_vec(3)),
        |(a, b, c)| {
            let g = small_grid();
            let (ca, cb, cc) = (
                RdpCurve::new(&g, a.clone()).unwrap(),
                RdpCurve::new(&g, b.clone()).unwrap(),
                RdpCurve::new(&g, c.clone()).unwrap(),
            );
            let ab = ca.compose(&cb).unwrap();
            let ba = cb.compose(&ca).unwrap();
            prop_assert_eq!(ab.values(), ba.values());
            let left = ab.compose(&cc).unwrap();
            let right = ca.compose(&cb.compose(&cc).unwrap()).unwrap();
            for i in 0..3 {
                prop_assert!((left.epsilon(i) - right.epsilon(i)).abs() < 1e-12);
            }
            Ok(())
        },
    );
}

/// A filter never lets cumulative consumption exceed capacity at
/// every order simultaneously, no matter the demand sequence.
#[test]
fn filter_invariant_under_random_sequences() {
    check_cases(
        "filter_invariant_under_random_sequences",
        CASES,
        vecs(demand_vec(3), 1..40),
        |demands| {
            let g = small_grid();
            let cap = RdpCurve::constant(&g, 2.0);
            let mut filter = RenyiFilter::new(cap.clone());
            for d in demands {
                let _ = filter.try_consume(&RdpCurve::new(&g, d.clone()).unwrap());
                let consumed = filter.consumed();
                let ok = (0..g.len()).any(|i| fits(consumed.epsilon(i), cap.epsilon(i)));
                prop_assert!(ok, "filter invariant broken: {:?}", consumed.values());
            }
            Ok(())
        },
    );
}

/// FPTAS value is sandwiched between (1−η)·OPT and OPT.
#[test]
fn fptas_sandwich() {
    check_cases(
        "fptas_sandwich",
        CASES,
        (
            vecs(floats(0.01..3.0), 1..10),
            vecs(floats(0.01..5.0), 1..10),
            floats(0.5..6.0),
            floats(0.05..0.9),
        ),
        |(weights, profits, cap, eta)| {
            let (cap, eta) = (*cap, *eta);
            let n = weights.len().min(profits.len());
            let items: Vec<Item> = (0..n)
                .map(|i| Item::new(weights[i], profits[i]).unwrap())
                .collect();
            let opt = exact::branch_and_bound(&items, cap, u64::MAX)
                .solution
                .profit;
            let approx = fptas::fptas_value(&items, cap, eta);
            prop_assert!(approx <= opt + 1e-9);
            prop_assert!(approx >= (1.0 - eta) * opt - 1e-9);
            // And greedy+best-item keeps its 1/2 bound.
            let g = greedy::greedy_with_best_item(&items, cap).profit;
            prop_assert!(g >= 0.5 * opt - 1e-9);
            Ok(())
        },
    );
}

/// The privacy-knapsack branch-and-bound matches the α-enumeration
/// reference on tiny instances, and its solution is feasible.
#[test]
fn privacy_solver_matches_reference() {
    check_cases(
        "privacy_solver_matches_reference",
        CASES,
        (
            vecs(floats(0.1..3.0), 2..7),
            vecs(floats(0.0..1.2), (2 * 2 * 7)..(2 * 2 * 7 + 1)),
        ),
        |(profits, demand_seed)| {
            let n = profits.len();
            let (m, orders) = (2usize, 2usize);
            let items: Vec<dpack::solvers::privacy::PrivacyItem> = (0..n)
                .map(|i| dpack::solvers::privacy::PrivacyItem {
                    demand: (0..m)
                        .map(|j| {
                            (0..orders)
                                .map(|a| {
                                    demand_seed
                                        [(i * m * orders + j * orders + a) % demand_seed.len()]
                                })
                                .collect()
                        })
                        .collect(),
                    profit: profits[i],
                })
                .collect();
            let inst = dpack::solvers::privacy::PrivacyInstance {
                capacity: vec![vec![1.0, 1.3]; m],
                items,
            };
            let bb = solve(
                &inst,
                SolveLimits {
                    node_budget: u64::MAX,
                    time_limit: None,
                },
            );
            let reference = alpha_enumeration(&inst);
            prop_assert!(
                (bb.solution.profit - reference.profit).abs() < 1e-9,
                "bb {} vs reference {}",
                bb.solution.profit,
                reference.profit
            );
            // Feasibility of the returned selection.
            let mut used = vec![vec![0.0; orders]; m];
            for &i in &bb.solution.selected {
                for (j, used_j) in used.iter_mut().enumerate() {
                    for (a, used_ja) in used_j.iter_mut().enumerate() {
                        *used_ja += inst.items[i].demand[j][a];
                    }
                }
            }
            prop_assert!(inst.usage_feasible(&used));
            Ok(())
        },
    );
}

/// Every scheduler's allocation is feasible and duplicate-free on
/// random problem states, and Optimal dominates them all.
#[test]
fn schedulers_feasible_and_dominated_by_optimal() {
    check_cases(
        "schedulers_feasible_and_dominated_by_optimal",
        CASES,
        (
            vecs(demand_vec(3), 3..10),
            vecs(floats(0.1..3.0), 10..11),
            vecs(floats(0.4..2.0), 2..3),
            vecs(ints(0u8..3), 10..11),
        ),
        |(demands, weights, caps, block_mask)| {
            let g = small_grid();
            let blocks: Vec<Block> = caps
                .iter()
                .enumerate()
                .map(|(j, c)| Block::new(j as u64, RdpCurve::constant(&g, *c), 0.0))
                .collect();
            let n_blocks = blocks.len() as u64;
            let tasks: Vec<Task> = demands
                .iter()
                .enumerate()
                .map(|(i, d)| {
                    let which = match block_mask[i % block_mask.len()] {
                        0 => vec![0],
                        1 => vec![1 % n_blocks],
                        _ => (0..n_blocks).collect(),
                    };
                    Task::new(
                        i as u64,
                        weights[i % weights.len()],
                        which,
                        RdpCurve::new(&g, d.clone()).unwrap(),
                        i as f64,
                    )
                })
                .collect();
            let state = ProblemState::new(g.clone(), blocks, tasks).unwrap();
            let opt = Optimal::unbounded().schedule(&state);
            for s in [
                &DPack::default() as &dyn Scheduler,
                &Dpf,
                &GreedyArea,
                &Fcfs,
            ] {
                let a = s.schedule(&state);
                // Feasibility.
                let mut used: std::collections::BTreeMap<u64, RdpCurve> = Default::default();
                for id in &a.scheduled {
                    let t = state.task(*id).unwrap();
                    for b in &t.blocks {
                        let e = used.entry(*b).or_insert_with(|| RdpCurve::zero(&g));
                        *e = e.compose(&t.demand).unwrap();
                    }
                }
                for (b, u) in &used {
                    let cap = &state.blocks()[b];
                    prop_assert!(
                        (0..g.len()).any(|i| fits(u.epsilon(i), cap.epsilon(i))),
                        "{}: block {b} infeasible",
                        s.name()
                    );
                }
                // Dominated by Optimal.
                prop_assert!(
                    opt.total_weight >= a.total_weight - 1e-9,
                    "{} beat Optimal: {} > {}",
                    s.name(),
                    a.total_weight,
                    opt.total_weight
                );
            }
            Ok(())
        },
    );
}

/// The single-block oracle as DPack ran it per (block, order) before
/// the selection kernel: items in requester order, `unit_profit_exact`
/// first under `Auto`.
fn reference_oracle(d: &DPack, items: &[Item], capacity: f64) -> f64 {
    let eta = (d.eta * 2.0 / 3.0).min(0.99);
    match d.oracle {
        KnapsackOracle::Greedy => greedy::greedy_with_best_item(items, capacity).profit,
        KnapsackOracle::Fptas => fptas::fptas_value(items, capacity, eta),
        KnapsackOracle::Auto => {
            if let Some(sol) = greedy::unit_profit_exact(items, capacity) {
                return sol.profit;
            }
            if let Some(sol) = dpack::solvers::dp::integer_profit_exact(items, capacity, 2_000_000)
            {
                return sol.profit;
            }
            if items.len() <= 300 {
                fptas::fptas_value(items, capacity, eta)
            } else {
                greedy::greedy_with_best_item(items, capacity).profit
            }
        }
    }
}

/// Best alpha per block id by rescanning every task for every block
/// and building a fresh item list per order.
fn reference_best_alphas(d: &DPack, state: &ProblemState) -> BTreeMap<u64, Option<usize>> {
    state
        .blocks()
        .iter()
        .map(|(id, cap)| {
            let requesters: Vec<&Task> = state
                .tasks()
                .iter()
                .filter(|t| t.blocks.contains(id))
                .collect();
            let mut best = None;
            let mut best_value = f64::NEG_INFINITY;
            for a in 0..state.grid().len() {
                let c = cap.epsilon(a);
                if requesters.is_empty() || c <= 0.0 {
                    continue;
                }
                let items: Vec<Item> = requesters
                    .iter()
                    .map(|t| Item {
                        weight: t.demand.epsilon(a),
                        profit: t.weight,
                    })
                    .collect();
                let value = reference_oracle(d, &items, c);
                if value > best_value {
                    best_value = value;
                    best = Some(a);
                }
            }
            (*id, best)
        })
        .collect()
}

/// `pack` over a map of composed usage curves; returns ids.
fn reference_pack(state: &ProblemState, ordered: &[usize], rule: PackingRule) -> Vec<u64> {
    let g = state.grid();
    let mut used: BTreeMap<u64, RdpCurve> = BTreeMap::new();
    let mut scheduled = Vec::new();
    for &idx in ordered {
        let task = &state.tasks()[idx];
        let fits_all = task.blocks.iter().all(|b| {
            let zero = RdpCurve::zero(g);
            let u = used.get(b).unwrap_or(&zero);
            let cap = &state.blocks()[b];
            (0..g.len()).any(|a| fits(u.epsilon(a) + task.demand.epsilon(a), cap.epsilon(a)))
        });
        if fits_all {
            for b in &task.blocks {
                let e = used.entry(*b).or_insert_with(|| RdpCurve::zero(g));
                *e = e.compose(&task.demand).unwrap();
            }
            scheduled.push(task.id);
        } else if rule == PackingRule::Stop {
            break;
        }
    }
    scheduled
}

/// The DPack kernel (grouped requesters, best alpha by selection,
/// dense-index packing) makes exactly the decisions of the reference
/// it replaced: the same best alpha per block for every oracle,
/// sequential and fanned out, the same packing under both rules, and
/// the same schedule with a bit-identical total weight.
#[test]
fn dpack_kernel_matches_the_reference() {
    check_cases(
        "dpack_kernel_matches_the_reference",
        CASES,
        (
            // Three orders per block; some orders non-positive.
            vecs(floats(-0.5..2.0), 3..16),
            // Per task: block mask, demand levels, jitter, weight draw.
            vecs(
                (
                    ints(1u8..32),
                    vecs(ints(0u8..6), 3..4),
                    floats(0.0..0.25),
                    floats(0.1..3.0),
                ),
                1..40,
            ),
            // 0: all 1, 1: all 2.5, 2: integer grid, 3: fractional.
            ints(0u8..4),
            ints(0u8..3),
            // Coarse demands (ties, zeros) or jittered ones.
            bools(),
        ),
        |(caps, task_draws, weight_mode, oracle, jitter)| {
            let g = small_grid();
            let n_blocks = caps.len() / 3;
            // Sparse ids, so block positions differ from block ids.
            let block_id = |j: usize| 3 * j as u64 + 1;
            let blocks: Vec<Block> = (0..n_blocks)
                .map(|j| {
                    let cap = RdpCurve::new(&g, caps[3 * j..3 * j + 3].to_vec()).unwrap();
                    Block::new(block_id(j), cap, 0.0)
                })
                .collect();
            let tasks: Vec<Task> = task_draws
                .iter()
                .enumerate()
                .map(|(i, (mask, levels, jit, w))| {
                    let mut which: Vec<u64> = (0..n_blocks)
                        .filter(|j| mask >> (j % 5) & 1 == 1)
                        .map(block_id)
                        .collect();
                    if which.is_empty() {
                        which.push(block_id(i % n_blocks));
                    }
                    let demand: Vec<f64> = levels
                        .iter()
                        .enumerate()
                        .map(|(a, l)| {
                            let d = f64::from(*l) * 0.25;
                            if *jitter && d > 0.0 {
                                d + jit * (a + 1) as f64
                            } else {
                                d
                            }
                        })
                        .collect();
                    let weight = match weight_mode {
                        0 => 1.0,
                        1 => 2.5,
                        2 => [1.0, 5.0, 10.0, 50.0][usize::from(*mask) % 4],
                        _ => *w,
                    };
                    Task::new(
                        i as u64,
                        weight,
                        which,
                        RdpCurve::new(&g, demand).unwrap(),
                        i as f64,
                    )
                })
                .collect();
            let state = ProblemState::new(g.clone(), blocks, tasks).unwrap();
            let d = DPack {
                eta: 0.5,
                oracle: [
                    KnapsackOracle::Auto,
                    KnapsackOracle::Fptas,
                    KnapsackOracle::Greedy,
                ][usize::from(*oracle)],
            };

            let reference = reference_best_alphas(&d, &state);
            let by_position: Vec<Option<usize>> = reference.values().copied().collect();
            prop_assert_eq!(d.best_alphas(&state), by_position.clone());
            prop_assert_eq!(
                ParallelDPack::new(d, 2).parallel_best_alphas(&state),
                by_position
            );

            // Any order packs the same: here, tasks by block mask.
            let mut order: Vec<usize> = (0..state.tasks().len()).collect();
            order.sort_by_key(|&i| (task_draws[i].0, i));
            for rule in [PackingRule::Skip, PackingRule::Stop] {
                let ids: Vec<u64> = pack(&state, &order, rule)
                    .iter()
                    .map(|&i| state.tasks()[i].id)
                    .collect();
                prop_assert_eq!(ids, reference_pack(&state, &order, rule), "{:?}", rule);
            }

            // The whole pass: Eq. 6 efficiencies off the reference best
            // alphas, then the shared ordering and the reference pack.
            let eff: Vec<f64> = state
                .tasks()
                .iter()
                .map(|t| {
                    let mut denom = 0.0;
                    for b in &t.blocks {
                        match reference[b] {
                            Some(a) => denom += t.demand.epsilon(a) / state.blocks()[b].epsilon(a),
                            None => return 0.0,
                        }
                    }
                    if denom == 0.0 {
                        f64::INFINITY
                    } else {
                        t.weight / denom
                    }
                })
                .collect();
            let expected =
                reference_pack(&state, &sort_by_efficiency(&state, &eff), PackingRule::Skip);
            let expected_weight: f64 = expected
                .iter()
                .map(|id| state.task(*id).unwrap().weight)
                .sum();
            let alloc = d.schedule(&state);
            prop_assert_eq!(&alloc.scheduled, &expected);
            prop_assert_eq!(alloc.total_weight.to_bits(), expected_weight.to_bits());
            Ok(())
        },
    );
}

/// The WAL compaction law: for any record stream and any choice of
/// snapshot points, recovering (snapshot + suffix replay) from the
/// compacted log yields exactly the same logical history as replaying
/// the full, never-compacted log — compaction forgets nothing and
/// invents nothing. This is the contract `BudgetService::recover`
/// leans on when it rebuilds the ledger from snapshot + replay.
#[test]
fn wal_snapshot_plus_suffix_replay_equals_full_log_replay() {
    fn encode_list(records: &[Vec<u8>]) -> Vec<u8> {
        let mut buf = Vec::new();
        for r in records {
            buf.extend_from_slice(&(r.len() as u32).to_le_bytes());
            buf.extend_from_slice(r);
        }
        buf
    }
    fn decode_list(mut bytes: &[u8]) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        while !bytes.is_empty() {
            let len = u32::from_le_bytes(bytes[..4].try_into().expect("length prefix")) as usize;
            out.push(bytes[4..4 + len].to_vec());
            bytes = &bytes[4 + len..];
        }
        out
    }
    check_cases(
        "wal_snapshot_plus_suffix_replay_equals_full_log_replay",
        CASES,
        (
            // (snapshot-here?, payload) op stream; tiny segments so
            // rotation happens under the snapshots too.
            vecs(
                (
                    ints(0u32..5),
                    vecs(ints(0u64..256), 0..12)
                        .prop_map(|v| v.iter().map(|x| *x as u8).collect::<Vec<u8>>()),
                ),
                1..40,
            ),
            ints(5u64..64),
        ),
        |(ops, seg)| {
            // Clones share the backing store (there is no crash here,
            // so live handle and "rebooted" handle see the same bytes).
            let open = |storage: &SimStorage| {
                Wal::open(
                    Box::new(storage.clone()),
                    WalOptions {
                        segment_bytes: *seg,
                    },
                )
                .map_err(|e| Failed::new(format!("open: {e}")))
            };
            let plain_store = SimStorage::new();
            let compacted_store = SimStorage::new();
            let (mut plain, _) = open(&plain_store)?;
            let (mut compacted, _) = open(&compacted_store)?;
            let mut history: Vec<Vec<u8>> = Vec::new();
            for (snap_pick, payload) in ops {
                plain
                    .append(payload)
                    .map_err(|e| Failed::new(e.to_string()))?;
                compacted
                    .append(payload)
                    .map_err(|e| Failed::new(e.to_string()))?;
                history.push(payload.clone());
                if *snap_pick == 0 {
                    // Compact only one of the two logs.
                    compacted
                        .snapshot(&encode_list(&history))
                        .map_err(|e| Failed::new(e.to_string()))?;
                }
            }
            // Full-log replay (never compacted)...
            let (_, full) = open(&plain_store)?;
            prop_assert!(full.snapshot.is_none());
            prop_assert_eq!(&full.records, &history, "full-log replay diverged");
            // ...equals snapshot + suffix replay of the compacted log.
            let (_, suffix) = open(&compacted_store)?;
            let mut replayed = decode_list(suffix.snapshot.as_deref().unwrap_or_default());
            replayed.extend(suffix.records);
            prop_assert_eq!(replayed, history, "snapshot + suffix replay diverged");
            Ok(())
        },
    );
}

/// Block-capacity initialization round-trips through Eq. 2: filling
/// any usable order exactly and converting back recovers ε_G.
#[test]
fn capacity_round_trip() {
    check_cases(
        "capacity_round_trip",
        CASES,
        (floats(0.5..20.0), floats(-9.0..-2.0)),
        |&(eps_g, log_delta)| {
            let delta = 10f64.powf(log_delta);
            let grid = AlphaGrid::standard();
            let cap = block_capacity(&grid, eps_g, delta).unwrap();
            for (i, a) in grid.iter() {
                let c = cap.epsilon(i);
                if c > 0.0 {
                    let back = c + (1.0 / delta).ln() / (a - 1.0);
                    prop_assert!((back - eps_g).abs() < 1e-9);
                }
            }
            Ok(())
        },
    );
}
