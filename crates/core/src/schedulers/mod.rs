//! The schedulers: DPack, DPF, greedy-area, FCFS, and Optimal.

mod dpack;
mod dpf;
mod fcfs;
mod greedy_area;
mod optimal;

pub use dpack::{AlphaScratch, BlockRequesters, DPack, KnapsackOracle};
pub use dpf::{dominant_share, Dpf, DpfStrict};
pub use fcfs::Fcfs;
pub use greedy_area::GreedyArea;
pub use optimal::Optimal;

use crate::problem::{Allocation, ProblemState};

/// A privacy-budget scheduler.
///
/// Schedulers are pure: they read a [`ProblemState`] snapshot and return
/// an [`Allocation`]; committing the allocation to privacy filters is the
/// caller's job (see [`crate::online::OnlineEngine`]). The offline and
/// online evaluations therefore exercise exactly the same code.
pub trait Scheduler {
    /// A short display name ("DPack", "DPF", ...).
    fn name(&self) -> &'static str;

    /// Computes which pending tasks to allocate given the available
    /// capacities.
    fn schedule(&self, state: &ProblemState) -> Allocation;
}

/// Sorts task indices by descending efficiency, breaking ties by arrival
/// time then id — the deterministic ordering used by every greedy
/// scheduler in this crate (public so external scheduler wrappers, such
/// as the orchestrator's parallel variants, order identically).
pub fn sort_by_efficiency(state: &ProblemState, eff: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..state.tasks().len()).collect();
    order.sort_by(|&a, &b| {
        eff[b]
            .partial_cmp(&eff[a])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(
                state.tasks()[a]
                    .arrival
                    .partial_cmp(&state.tasks()[b].arrival)
                    .unwrap_or(std::cmp::Ordering::Equal),
            )
            .then(state.tasks()[a].id.cmp(&state.tasks()[b].id))
    });
    order
}

/// Builds an [`Allocation`] from scheduled task indices (into
/// `state.tasks()`, in allocation order, as [`crate::problem::pack`]
/// returns them), filling in the ids, weights and timing.
pub fn finish_allocation(
    state: &ProblemState,
    scheduled: Vec<usize>,
    started: std::time::Instant,
    proven_optimal: Option<bool>,
) -> Allocation {
    let tasks = state.tasks();
    let total_weight = scheduled.iter().map(|&i| tasks[i].weight).sum();
    Allocation {
        scheduled: scheduled.iter().map(|&i| tasks[i].id).collect(),
        total_weight,
        runtime: started.elapsed(),
        proven_optimal,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{Block, Task};
    use dp_accounting::{AlphaGrid, RdpCurve};

    #[test]
    fn efficiency_sort_is_deterministic() {
        let g = AlphaGrid::single(2.0).unwrap();
        let blocks = vec![Block::new(0, RdpCurve::constant(&g, 1.0), 0.0)];
        let tasks = vec![
            Task::new(0, 1.0, vec![0], RdpCurve::zero(&g), 5.0),
            Task::new(1, 1.0, vec![0], RdpCurve::zero(&g), 3.0),
            Task::new(2, 1.0, vec![0], RdpCurve::zero(&g), 3.0),
        ];
        let state = crate::problem::ProblemState::new(g, blocks, tasks).unwrap();
        // Equal efficiency: fall back to arrival then id.
        let order = sort_by_efficiency(&state, &[1.0, 1.0, 1.0]);
        assert_eq!(order, vec![1, 2, 0]);
        // Higher efficiency wins regardless of arrival.
        let order = sort_by_efficiency(&state, &[5.0, 1.0, 1.0]);
        assert_eq!(order, vec![0, 1, 2]);
    }
}
