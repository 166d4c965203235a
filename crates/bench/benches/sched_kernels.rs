//! Micro-benches for the scheduling kernels: one full `schedule()`
//! pass per scheduler at two load levels (the Fig. 5 regime, without
//! the Optimal solver), plus DPack on the service's cross-shard pass
//! shape from the Alibaba-DP month. Runs on the vendored
//! `dpack_bench::micro` harness (`--smoke` for the CI rot guard).

use std::collections::BTreeMap;

use dpack_bench::micro::Micro;
use dpack_core::problem::ProblemState;
use dpack_core::schedulers::{DPack, Dpf, Fcfs, GreedyArea, Scheduler};
use workloads::alibaba::{self, AlibabaDpConfig};
use workloads::curves::CurveLibrary;
use workloads::microbenchmark::{generate, MicrobenchmarkConfig};

/// The shape of one cross-shard DPack pass late in the seed-42
/// Alibaba-DP month (T = 1, N = 50, timeout 5, blocks sharded by
/// `id % S`, so every multi-block task is cross-shard): the multi-block
/// tasks of the last timeout window over all 90 blocks, each block
/// unlocked `⌈now − arrival⌉ / N` of its capacity (2,734 tasks over
/// 90 blocks). Nothing is consumed and no task left early, so old
/// blocks are fuller and the task set larger than in a replay.
fn alibaba_cross_pass() -> ProblemState {
    const NOW: f64 = 89.5;
    const UNLOCK_STEPS: f64 = 50.0;
    const TIMEOUT: f64 = 5.0;
    let month = alibaba::generate(&AlibabaDpConfig::default(), 42);
    let available: BTreeMap<u64, _> = month
        .blocks
        .iter()
        .filter(|b| b.arrival <= NOW)
        .map(|b| {
            let unlocked = (NOW - b.arrival).ceil().min(UNLOCK_STEPS) / UNLOCK_STEPS;
            (b.id, b.capacity.scale(unlocked))
        })
        .collect();
    let tasks = month
        .tasks
        .into_iter()
        .filter(|t| t.arrival <= NOW && t.arrival > NOW - TIMEOUT && t.blocks.len() > 1)
        .filter(|t| t.blocks.iter().all(|b| available.contains_key(b)))
        .collect();
    ProblemState::from_available(month.grid, available, tasks).expect("month tasks are valid")
}

fn main() {
    let lib = CurveLibrary::standard();
    let mut m = Micro::new("sched_kernels — full schedule() passes");
    for &n in &[1000usize, 5000] {
        let cfg = MicrobenchmarkConfig {
            n_tasks: n,
            n_blocks: 7,
            mu_blocks: 1.0,
            sigma_blocks: 10.0,
            sigma_alpha: 4.0,
            eps_min: 0.01,
            ..Default::default()
        };
        let state = generate(&lib, &cfg, 42);
        m.bench(&format!("schedule/DPack/{n}"), || {
            DPack::default().schedule(&state)
        });
        m.bench(&format!("schedule/DPF/{n}"), || Dpf.schedule(&state));
        m.bench(&format!("schedule/GreedyArea/{n}"), || {
            GreedyArea.schedule(&state)
        });
        m.bench(&format!("schedule/FCFS/{n}"), || Fcfs.schedule(&state));
    }
    let cross = alibaba_cross_pass();
    m.bench("schedule/DPack/alibaba", || {
        DPack::default().schedule(&cross)
    });
    m.finish();
}
