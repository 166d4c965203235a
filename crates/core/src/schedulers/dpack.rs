//! DPack (Alg. 1 of the paper).

use std::time::Instant;

use crate::problem::{greedy_pack, Allocation, ProblemState};
use crate::schedulers::{finish_allocation, sort_by_efficiency, Scheduler};
use dp_accounting::RdpCurve;
use knapsack::{
    fptas::fptas_value, greedy::greedy_with_best_item, greedy::unit_profit_prefix_len, Item,
};

/// How DPack solves the per-(block, order) single-block knapsacks that
/// determine each block's best alpha.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KnapsackOracle {
    /// Pick automatically: exact prefix packing when all task weights are
    /// equal (the common unweighted case — zero approximation error),
    /// the FPTAS when the task count is small enough, and the greedy
    /// 1/2-approximation otherwise.
    Auto,
    /// Profit-scaling FPTAS at factor `2/3·η` (the Alg. 1 setting).
    Fptas,
    /// Greedy density packing with the best-single-item fix (1/2-approx).
    Greedy,
}

/// The DPack scheduler.
///
/// Offline Alg. 1:
///
/// 1. For every block `j`, estimate `ŵ_max(j, α)` — the value of the
///    single-block knapsack restricted to order `α` — for each usable
///    order, and set the block's *best alpha* to the argmax.
/// 2. Score each task with the efficiency metric of Eq. 6, which charges
///    a task only for its demand at each requested block's best alpha:
///    `e_i = w_i / Σ_j d_ij,α̂(j) / c_j,α̂(j)`.
/// 3. Sort by efficiency and greedily allocate under the `∀j ∃α`
///    feasibility rule.
///
/// With a single-order grid the metric reduces to the multidimensional
/// knapsack heuristic of Eq. 4 (Prop. 4), and in the single-block case
/// the algorithm is a `(1/2 + η)`-approximation (Prop. 5).
#[derive(Debug, Clone, Copy)]
pub struct DPack {
    /// Approximation parameter `η > 0`; the per-block knapsacks are
    /// solved at factor `2/3·η`.
    pub eta: f64,
    /// Single-block knapsack solver choice.
    pub oracle: KnapsackOracle,
}

impl Default for DPack {
    fn default() -> Self {
        Self {
            eta: 0.5,
            oracle: KnapsackOracle::Auto,
        }
    }
}

/// Task count above which `Auto` falls back from the FPTAS to greedy for
/// weighted instances (the FPTAS table grows as `n²/η`).
const FPTAS_TASK_LIMIT: usize = 300;

impl DPack {
    /// Creates a DPack scheduler with the given `η`.
    ///
    /// # Panics
    ///
    /// Panics if `η ∉ (0, 1.5)` — the FPTAS requires `2/3·η < 1`.
    pub fn with_eta(eta: f64) -> Self {
        assert!(
            eta.is_finite() && eta > 0.0 && eta < 1.5,
            "DPack eta must be in (0, 1.5) (got {eta})"
        );
        Self {
            eta,
            ..Self::default()
        }
    }

    /// The weighted single-block knapsack value: every oracle but the
    /// `Auto` equal-weight case, which [`DPack::best_alpha_of`] answers
    /// by selection instead.
    fn solve_single_block(&self, items: &[Item], capacity: f64) -> f64 {
        match self.oracle {
            KnapsackOracle::Greedy => greedy_with_best_item(items, capacity).profit,
            KnapsackOracle::Fptas => fptas_value(items, capacity, (self.eta * 2.0 / 3.0).min(0.99)),
            KnapsackOracle::Auto => {
                // Integer weight grids (the paper's weighted workloads)
                // admit an exact pseudo-polynomial DP.
                if let Some(sol) = knapsack::dp::integer_profit_exact(items, capacity, 2_000_000) {
                    return sol.profit;
                }
                if items.len() <= FPTAS_TASK_LIMIT {
                    fptas_value(items, capacity, (self.eta * 2.0 / 3.0).min(0.99))
                } else {
                    greedy_with_best_item(items, capacity).profit
                }
            }
        }
    }

    /// `COMPUTE_BEST_ALPHA` of Alg. 1 for one block: the grid index of
    /// the order whose single-block knapsack over `requesters` (indices
    /// into `state.tasks()`, ascending) packs the most weight within
    /// `cap`, or `None` when no order is usable or no task requests the
    /// block. Ties go to the lowest order.
    ///
    /// Under [`KnapsackOracle::Auto`], when every requester has the same
    /// weight (checked once per block), the knapsack is the longest
    /// ascending-demand prefix that fits ([`unit_profit_prefix_len`]) —
    /// exact, and found by selection rather than a full sort. Other
    /// instances build the items in `requesters` order and run the
    /// oracle. `scratch` holds the reused buffers.
    ///
    /// The per-block calls are independent, which is what callers such
    /// as the orchestrator's `ParallelDPack` fan out over threads.
    pub fn best_alpha_of(
        &self,
        state: &ProblemState,
        cap: &RdpCurve,
        requesters: &[usize],
        scratch: &mut AlphaScratch,
    ) -> Option<usize> {
        let tasks = state.tasks();
        let first = tasks[*requesters.first()?].weight;
        let equal_weight = self.oracle == KnapsackOracle::Auto
            && requesters.iter().all(|&i| tasks[i].weight == first);
        let mut best_alpha = None;
        let mut best_value = f64::NEG_INFINITY;
        for (a, &c) in cap.values().iter().enumerate() {
            if c <= 0.0 {
                continue;
            }
            let value = if equal_weight {
                scratch.demands.clear();
                scratch
                    .demands
                    .extend(requesters.iter().map(|&i| tasks[i].demand.epsilon(a)));
                let k = unit_profit_prefix_len(&mut scratch.demands, c);
                // k sequential additions, as `Solution::from_indices`
                // sums a selection.
                std::iter::repeat_n(first, k).sum::<f64>()
            } else {
                scratch.items.clear();
                scratch.items.extend(requesters.iter().map(|&i| Item {
                    weight: tasks[i].demand.epsilon(a),
                    profit: tasks[i].weight,
                }));
                self.solve_single_block(&scratch.items, c)
            };
            if value > best_value {
                best_value = value;
                best_alpha = Some(a);
            }
        }
        best_alpha
    }

    /// `COMPUTE_BEST_ALPHA` of Alg. 1 for every block: per block
    /// position (the order of `state.blocks()`), the grid index of the
    /// order whose single-block knapsack packs the most weight, or
    /// `None` when no order is usable or no task requests the block.
    pub fn best_alphas(&self, state: &ProblemState) -> Vec<Option<usize>> {
        let requesters = BlockRequesters::new(state);
        let mut scratch = AlphaScratch::default();
        state
            .blocks()
            .values()
            .enumerate()
            .map(|(j, cap)| self.best_alpha_of(state, cap, requesters.of(j), &mut scratch))
            .collect()
    }

    /// `COMPUTE_EFFICIENCY` of Alg. 1 (Eq. 6) for every task, given the
    /// per-block-position best alphas of [`DPack::best_alphas`].
    pub fn efficiencies(&self, state: &ProblemState, best_alphas: &[Option<usize>]) -> Vec<f64> {
        let caps: Vec<&RdpCurve> = state.blocks().values().collect();
        state
            .tasks()
            .iter()
            .enumerate()
            .map(|(i, t)| {
                let mut denom = 0.0;
                for &j in state.block_positions(i) {
                    match best_alphas[j] {
                        Some(a) => denom += t.demand.epsilon(a) / caps[j].epsilon(a),
                        // A requested block with no usable order makes
                        // the task unschedulable.
                        None => return 0.0,
                    }
                }
                if denom == 0.0 {
                    f64::INFINITY
                } else {
                    t.weight / denom
                }
            })
            .collect()
    }
}

/// The pending tasks of a [`ProblemState`] grouped by requested block,
/// built in one pass over the task-block incidences: block position `j`
/// (the `j`-th block of `state.blocks()` in key order) lists the
/// indices of the tasks requesting it, ascending.
#[derive(Debug, Clone)]
pub struct BlockRequesters {
    /// `tasks[start[j]..start[j + 1]]` are block `j`'s requesters.
    start: Vec<usize>,
    tasks: Vec<usize>,
}

impl BlockRequesters {
    /// Groups `state`'s tasks by block position (a counting sort).
    pub fn new(state: &ProblemState) -> Self {
        let (n_blocks, n_tasks) = (state.blocks().len(), state.tasks().len());
        let mut start = vec![0usize; n_blocks + 1];
        for i in 0..n_tasks {
            for &j in state.block_positions(i) {
                start[j + 1] += 1;
            }
        }
        for j in 0..n_blocks {
            start[j + 1] += start[j];
        }
        let mut next = start.clone();
        let mut tasks = vec![0usize; start[n_blocks]];
        for i in 0..n_tasks {
            for &j in state.block_positions(i) {
                tasks[next[j]] = i;
                next[j] += 1;
            }
        }
        Self { start, tasks }
    }

    /// The indices into `state.tasks()` of the tasks requesting the
    /// block at position `j`, ascending.
    pub fn of(&self, j: usize) -> &[usize] {
        &self.tasks[self.start[j]..self.start[j + 1]]
    }
}

/// Buffers [`DPack::best_alpha_of`] reuses across blocks and orders, so
/// a pass allocates them once per thread.
#[derive(Debug, Clone, Default)]
pub struct AlphaScratch {
    demands: Vec<f64>,
    items: Vec<Item>,
}

impl Scheduler for DPack {
    fn name(&self) -> &'static str {
        "DPack"
    }

    fn schedule(&self, state: &ProblemState) -> Allocation {
        let started = Instant::now();
        let best = self.best_alphas(state);
        let eff = self.efficiencies(state, &best);
        let order = sort_by_efficiency(state, &eff);
        let scheduled = greedy_pack(state, &order);
        finish_allocation(state, scheduled, started, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{Block, Task};
    use crate::schedulers::{Dpf, GreedyArea};
    use dp_accounting::{AlphaGrid, RdpCurve};

    #[test]
    fn fig1_dpack_packs_three_tasks() {
        let state = crate::scenarios::fig1_state();
        let alloc = DPack::default().schedule(&state);
        assert_eq!(alloc.scheduled.len(), 3);
        assert!(!alloc.scheduled.contains(&1)); // T1 is the inefficient one.
                                                // DPF schedules only T1 on the same instance.
        assert_eq!(Dpf.schedule(&state).scheduled.len(), 1);
    }

    #[test]
    fn fig3_dpack_packs_four_tasks_dpf_two() {
        let state = crate::scenarios::fig3_state();
        let dpack = DPack::default().schedule(&state);
        let dpf = Dpf.schedule(&state);
        assert_eq!(dpack.scheduled.len(), 4, "DPack: {:?}", dpack.scheduled);
        assert_eq!(dpf.scheduled.len(), 2, "DPF: {:?}", dpf.scheduled);
    }

    #[test]
    fn best_alpha_picks_the_packing_order() {
        let state = crate::scenarios::fig3_state();
        let dpack = DPack::default();
        let best = dpack.best_alphas(&state);
        // Block 0's best order is index 0 (α₁), block 1's is index 1
        // (α₂) — the construction of Fig. 3.
        assert_eq!(best, vec![Some(0), Some(1)]);
    }

    #[test]
    fn prop4_reduction_matches_greedy_area_on_single_order() {
        // With one alpha, DPack's metric must order identically to the
        // Eq. 4 area heuristic (Prop. 4).
        let g = AlphaGrid::single(2.0).unwrap();
        let blocks: Vec<Block> = (0..4)
            .map(|i| Block::new(i, RdpCurve::constant(&g, 1.0), 0.0))
            .collect();
        let tasks = vec![
            Task::new(0, 1.0, vec![0, 1, 2], RdpCurve::constant(&g, 0.3), 0.0),
            Task::new(1, 2.0, vec![1], RdpCurve::constant(&g, 0.5), 0.0),
            Task::new(2, 1.0, vec![2, 3], RdpCurve::constant(&g, 0.45), 0.0),
            Task::new(3, 1.5, vec![0], RdpCurve::constant(&g, 0.7), 0.0),
        ];
        let state = ProblemState::new(g, blocks, tasks).unwrap();
        let dpack = DPack::default().schedule(&state);
        let area = GreedyArea.schedule(&state);
        assert_eq!(dpack.scheduled, area.scheduled);
    }

    #[test]
    fn zero_demand_tasks_schedule_first() {
        let g = AlphaGrid::single(2.0).unwrap();
        let blocks = vec![Block::new(0, RdpCurve::constant(&g, 0.5), 0.0)];
        let tasks = vec![
            Task::new(0, 1.0, vec![0], RdpCurve::constant(&g, 0.5), 0.0),
            Task::new(1, 1.0, vec![0], RdpCurve::zero(&g), 0.0),
        ];
        let state = ProblemState::new(g, blocks, tasks).unwrap();
        let alloc = DPack::default().schedule(&state);
        assert_eq!(alloc.scheduled, vec![1, 0]);
    }

    #[test]
    fn unschedulable_blocks_zero_out_tasks() {
        let g = AlphaGrid::new(vec![2.0, 4.0]).unwrap();
        let blocks = vec![
            Block::new(0, RdpCurve::constant(&g, -1.0), 0.0), // Depleted.
            Block::new(1, RdpCurve::constant(&g, 1.0), 0.0),
        ];
        let tasks = vec![
            Task::new(0, 1.0, vec![0, 1], RdpCurve::constant(&g, 0.1), 0.0),
            Task::new(1, 1.0, vec![1], RdpCurve::constant(&g, 0.1), 0.0),
        ];
        let state = ProblemState::new(g, blocks, tasks).unwrap();
        let alloc = DPack::default().schedule(&state);
        assert_eq!(alloc.scheduled, vec![1]);
    }

    #[test]
    fn oracles_agree_on_unweighted_instances() {
        let state = crate::scenarios::fig3_state();
        for oracle in [
            KnapsackOracle::Auto,
            KnapsackOracle::Fptas,
            KnapsackOracle::Greedy,
        ] {
            let d = DPack { eta: 0.5, oracle };
            assert_eq!(d.schedule(&state).scheduled.len(), 4, "{oracle:?}");
        }
    }

    #[test]
    fn single_block_half_plus_eta_approximation() {
        // Prop. 5 randomized check: on single-block instances DPack is a
        // (1/2 + η)-approximation of the privacy-knapsack optimum.
        let mut seed = 0xC0FFEEu64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed >> 11) as f64 / (1u64 << 53) as f64
        };
        let g = AlphaGrid::new(vec![2.0, 4.0, 8.0]).unwrap();
        for trial in 0..25 {
            let cap = RdpCurve::new(&g, vec![1.0 + next(), 1.0 + next(), 1.0 + next()]).unwrap();
            let blocks = vec![Block::new(0, cap.clone(), 0.0)];
            let n = 6 + trial % 5;
            let tasks: Vec<Task> = (0..n)
                .map(|i| {
                    let d =
                        RdpCurve::new(&g, vec![next() * 1.2, next() * 1.2, next() * 1.2]).unwrap();
                    Task::new(i as u64, 0.5 + next() * 2.0, vec![0], d, 0.0)
                })
                .collect();
            let state = ProblemState::new(g.clone(), blocks, tasks).unwrap();
            let dpack = DPack::default().schedule(&state);
            let opt = crate::schedulers::Optimal::unbounded().schedule(&state);
            let eta = 0.5;
            assert!(
                (1.0 + 0.5 + eta) * dpack.total_weight >= opt.total_weight - 1e-9,
                "trial {trial}: dpack {} vs opt {}",
                dpack.total_weight,
                opt.total_weight
            );
        }
    }

    #[test]
    #[should_panic(expected = "eta must be in")]
    fn with_eta_rejects_out_of_range() {
        DPack::with_eta(2.0);
    }
}
