//! Parallelized scheduler wrappers.
//!
//! The Go implementation parallelizes DPack's per-block best-alpha
//! knapsacks and DPF's per-task dominant-share computation (§6.4: "the
//! DPack (and DPF) algorithms are parallelized"). These wrappers do the
//! same with [`std::thread::scope`] worker threads, and are
//! decision-identical to their single-threaded counterparts: the
//! parallel phase only computes per-block / per-task metrics (DPack's
//! requesters are grouped once, sequentially, and each worker runs
//! [`DPack::best_alpha_of`] over its share of the blocks); ordering and
//! packing stay sequential and deterministic.

use std::time::Instant;

use dp_accounting::RdpCurve;
use dpack_core::problem::{greedy_pack, pack, Allocation, PackingRule, ProblemState};
use dpack_core::schedulers::{
    dominant_share, finish_allocation, sort_by_efficiency, AlphaScratch, BlockRequesters, DPack,
    Scheduler,
};

/// Validates and stores a worker-thread count.
fn check_threads(threads: usize) -> usize {
    assert!(threads >= 1, "need at least one worker thread");
    threads
}

/// DPack with the per-block best-alpha computation fanned out over a
/// scoped thread pool.
#[derive(Debug, Clone, Copy)]
pub struct ParallelDPack {
    inner: DPack,
    threads: usize,
}

impl ParallelDPack {
    /// Wraps a [`DPack`] configuration with `threads` workers.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn new(inner: DPack, threads: usize) -> Self {
        Self {
            inner,
            threads: check_threads(threads),
        }
    }

    /// The wrapped configuration.
    pub fn inner(&self) -> &DPack {
        &self.inner
    }

    /// [`DPack::best_alphas`] with the per-block solves split over the
    /// workers: per block position, the best order's grid index.
    /// Worker `t` takes positions `t, t + W, …`, which spreads the
    /// most-requested (most recent) blocks evenly.
    pub fn parallel_best_alphas(&self, state: &ProblemState) -> Vec<Option<usize>> {
        let requesters = BlockRequesters::new(state);
        let caps: Vec<&RdpCurve> = state.blocks().values().collect();
        let workers = self.threads.min(caps.len());
        let (inner, requesters, caps) = (self.inner, &requesters, &caps);
        let strides: Vec<Vec<Option<usize>>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|t| {
                    s.spawn(move || {
                        let mut scratch = AlphaScratch::default();
                        (t..caps.len())
                            .step_by(workers)
                            .map(|j| {
                                inner.best_alpha_of(state, caps[j], requesters.of(j), &mut scratch)
                            })
                            .collect()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("best-alpha worker panicked"))
                .collect()
        });
        (0..caps.len())
            .map(|j| strides[j % workers][j / workers])
            .collect()
    }
}

impl Scheduler for ParallelDPack {
    fn name(&self) -> &'static str {
        "DPack(parallel)"
    }

    fn schedule(&self, state: &ProblemState) -> Allocation {
        let started = Instant::now();
        let best = self.parallel_best_alphas(state);
        let eff = self.inner.efficiencies(state, &best);
        let order = sort_by_efficiency(state, &eff);
        let scheduled = greedy_pack(state, &order);
        finish_allocation(state, scheduled, started, None)
    }
}

/// DPF with the per-task dominant-share computation fanned out over a
/// scoped thread pool.
#[derive(Debug, Clone, Copy)]
pub struct ParallelDpf {
    threads: usize,
    rule: PackingRule,
}

impl ParallelDpf {
    /// Creates the skip-greedy wrapper (decision-identical to
    /// [`dpack_core::schedulers::Dpf`]) with `threads` workers.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn new(threads: usize) -> Self {
        Self {
            threads: check_threads(threads),
            rule: PackingRule::Skip,
        }
    }

    /// The head-of-line-blocking variant (decision-identical to
    /// [`dpack_core::schedulers::DpfStrict`]) — the fairness-preserving
    /// online discipline used in the Q4 experiments.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn strict(threads: usize) -> Self {
        Self {
            threads: check_threads(threads),
            rule: PackingRule::Stop,
        }
    }
}

impl Scheduler for ParallelDpf {
    fn name(&self) -> &'static str {
        "DPF(parallel)"
    }

    fn schedule(&self, state: &ProblemState) -> Allocation {
        let started = Instant::now();
        let n = state.tasks().len();
        let mut eff = vec![0.0f64; n];
        if n > 0 {
            let chunk = n.div_ceil(self.threads);
            std::thread::scope(|s| {
                for (slot, tasks) in eff.chunks_mut(chunk).zip(state.tasks().chunks(chunk)) {
                    s.spawn(move || {
                        for (e, t) in slot.iter_mut().zip(tasks) {
                            let share = dominant_share(t, state.blocks());
                            *e = if share == f64::INFINITY {
                                0.0
                            } else if share == 0.0 {
                                f64::INFINITY
                            } else {
                                t.weight / share
                            };
                        }
                    });
                }
            });
        }
        let order = sort_by_efficiency(state, &eff);
        let scheduled = pack(state, &order, self.rule);
        finish_allocation(state, scheduled, started, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpack_core::schedulers::Dpf;

    #[test]
    fn parallel_dpack_is_decision_identical() {
        for state in [
            dpack_core::scenarios::fig1_state(),
            dpack_core::scenarios::fig3_state(),
        ] {
            let seq = DPack::default().schedule(&state);
            for threads in [1, 2, 4] {
                let par = ParallelDPack::new(DPack::default(), threads).schedule(&state);
                assert_eq!(par.scheduled, seq.scheduled, "threads={threads}");
            }
        }
    }

    #[test]
    fn parallel_dpf_is_decision_identical() {
        for state in [
            dpack_core::scenarios::fig1_state(),
            dpack_core::scenarios::fig3_state(),
        ] {
            let seq = Dpf.schedule(&state);
            for threads in [1, 3, 8] {
                let par = ParallelDpf::new(threads).schedule(&state);
                assert_eq!(par.scheduled, seq.scheduled, "threads={threads}");
            }
            let strict = dpack_core::schedulers::DpfStrict.schedule(&state);
            let par = ParallelDpf::strict(2).schedule(&state);
            assert_eq!(par.scheduled, strict.scheduled);
        }
    }

    #[test]
    fn parallel_best_alphas_match_sequential() {
        let state = dpack_core::scenarios::fig3_state();
        let d = DPack::default();
        let par = ParallelDPack::new(d, 3).parallel_best_alphas(&state);
        assert_eq!(par, d.best_alphas(&state));
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_threads_rejected() {
        ParallelDpf::new(0);
    }

    #[test]
    fn empty_state_is_handled() {
        let grid = dp_accounting::AlphaGrid::single(2.0).unwrap();
        let state = dpack_core::problem::ProblemState::new(grid, vec![], vec![]).unwrap();
        let a = ParallelDPack::new(DPack::default(), 2).schedule(&state);
        assert!(a.scheduled.is_empty());
        let a = ParallelDpf::new(2).schedule(&state);
        assert!(a.scheduled.is_empty());
    }
}
