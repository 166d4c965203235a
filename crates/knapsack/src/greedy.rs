//! Greedy density-ordered knapsack heuristics.

use crate::item::{density_order, Item, Solution};

/// Packs items in descending profit-density order, skipping items that
/// do not fit.
///
/// This is the classic greedy heuristic. On its own it has no constant
/// approximation factor; combined with the best single item
/// ([`greedy_with_best_item`]) it is a 1/2-approximation — the packing
/// step DPack's analysis relies on (Prop. 5 of the paper).
pub fn greedy(items: &[Item], capacity: f64) -> Solution {
    let mut used = 0.0;
    let mut selected = Vec::new();
    for i in density_order(items) {
        let w = items[i].weight;
        if crate::fits(used + w, capacity) {
            used += w;
            selected.push(i);
        }
    }
    Solution::from_indices(items, selected)
}

/// Greedy packing, or the single most profitable feasible item if that is
/// better — the standard 1/2-approximation for 0/1 knapsack.
///
/// # Examples
///
/// ```
/// use knapsack::{Item, greedy::greedy_with_best_item};
///
/// // Greedy alone packs the high-density small item (profit 1) and
/// // misses the big item (profit 10); the combined rule recovers it.
/// let items = vec![
///     Item::new(1.0, 1.0).unwrap(),
///     Item::new(10.0, 10.0).unwrap(),
/// ];
/// let s = greedy_with_best_item(&items, 10.0);
/// assert_eq!(s.profit, 10.0);
/// ```
pub fn greedy_with_best_item(items: &[Item], capacity: f64) -> Solution {
    let g = greedy(items, capacity);
    let best_single = items
        .iter()
        .enumerate()
        .filter(|(_, it)| crate::fits(it.weight, capacity))
        .max_by(|a, b| {
            a.1.profit
                .partial_cmp(&b.1.profit)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(b.0.cmp(&a.0))
        });
    match best_single {
        Some((i, it)) if it.profit > g.profit => Solution::from_indices(items, vec![i]),
        _ => g,
    }
}

/// Exact solver for the special case of **equal profits**: sorting by
/// ascending weight and taking the longest feasible prefix maximizes the
/// number of packed items.
///
/// This is the common case in the paper's evaluation (all tasks have
/// weight 1 except Fig. 7(b)), where it replaces the FPTAS at zero
/// approximation error.
///
/// Returns `None` if profits are not all equal.
pub fn unit_profit_exact(items: &[Item], capacity: f64) -> Option<Solution> {
    let first = items.first().map(|i| i.profit)?;
    if items.iter().any(|i| i.profit != first) {
        return None;
    }
    let mut order: Vec<usize> = (0..items.len()).collect();
    order.sort_by(|&a, &b| {
        items[a]
            .weight
            .partial_cmp(&items[b].weight)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    let mut used = 0.0;
    let mut selected = Vec::new();
    for i in order {
        if crate::fits(used + items[i].weight, capacity) {
            used += items[i].weight;
            selected.push(i);
        } else {
            break;
        }
    }
    Some(Solution::from_indices(items, selected))
}

/// Items selected and sorted in the first round of
/// [`unit_profit_prefix_len`]; each further round doubles it.
const FIRST_PREFIX: usize = 32;

/// The count [`unit_profit_exact`] selects, from the weights alone: the
/// length of the longest ascending-weight prefix that fits in
/// `capacity`, accumulated in ascending order under the same
/// [`crate::fits`] tolerance.
///
/// Instead of sorting every weight it selects the smallest few with
/// `select_nth_unstable`, sorts only those, and doubles the selection
/// until the scan stops, so a short feasible prefix costs about one
/// linear pass. Reorders `weights`. The count equals
/// `unit_profit_exact`'s, bit for bit in the accumulated usage: the
/// ascending sequence of values is the same however equal weights are
/// ordered. Weights must be non-negative and not NaN, as [`Item::new`]
/// requires.
///
/// # Examples
///
/// ```
/// use knapsack::greedy::unit_profit_prefix_len;
///
/// let mut weights = vec![3.0, 1.0, 2.0, 5.0];
/// assert_eq!(unit_profit_prefix_len(&mut weights, 6.0), 3); // 1 + 2 + 3.
/// ```
pub fn unit_profit_prefix_len(weights: &mut [f64], capacity: f64) -> usize {
    debug_assert!(
        weights.iter().all(|w| *w >= 0.0),
        "weights are items' weights"
    );
    let n = weights.len();
    let mut used = 0.0;
    // `weights[..done]` holds the `done` smallest weights, ascending,
    // and all of them fit.
    let mut done = 0;
    let mut want = FIRST_PREFIX.min(n);
    loop {
        let rest = &mut weights[done..];
        let take = want - done;
        if take < rest.len() {
            rest.select_nth_unstable_by(take, f64::total_cmp);
        }
        rest[..take].sort_unstable_by(f64::total_cmp);
        for &w in &rest[..take] {
            if !crate::fits(used + w, capacity) {
                return done;
            }
            used += w;
            done += 1;
        }
        if done == n {
            return n;
        }
        want = (want * 2).min(n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::branch_and_bound;

    fn items(spec: &[(f64, f64)]) -> Vec<Item> {
        spec.iter()
            .map(|&(w, p)| Item::new(w, p).unwrap())
            .collect()
    }

    #[test]
    fn greedy_packs_by_density() {
        let it = items(&[(2.0, 1.0), (1.0, 2.0), (3.0, 3.0)]);
        let s = greedy(&it, 4.0);
        // Density order: item 1 (2.0), item 2 (1.0), item 0 (0.5).
        assert_eq!(s.selected, vec![1, 2]);
        assert_eq!(s.profit, 5.0);
    }

    #[test]
    fn greedy_with_best_item_achieves_half_of_optimal() {
        // Adversarial case for plain greedy.
        let it = items(&[(0.01, 0.02), (10.0, 10.0)]);
        let g = greedy(&it, 10.0);
        assert_eq!(g.profit, 0.02);
        let s = greedy_with_best_item(&it, 10.0);
        assert_eq!(s.profit, 10.0);
    }

    #[test]
    fn zero_capacity_packs_only_zero_weight() {
        let it = items(&[(0.0, 5.0), (1.0, 10.0)]);
        let s = greedy_with_best_item(&it, 0.0);
        assert_eq!(s.selected, vec![0]);
    }

    #[test]
    fn empty_input_gives_empty_solution() {
        let s = greedy_with_best_item(&[], 10.0);
        assert!(s.selected.is_empty());
        assert_eq!(s.profit, 0.0);
    }

    #[test]
    fn unit_profit_exact_matches_branch_and_bound() {
        let it = items(&[(3.0, 1.0), (1.0, 1.0), (2.0, 1.0), (5.0, 1.0)]);
        let s = unit_profit_exact(&it, 6.0).unwrap();
        let opt = branch_and_bound(&it, 6.0, u64::MAX).solution;
        assert_eq!(s.profit, opt.profit);
        assert_eq!(
            s.selected,
            vec![1, 2, 0]
                .into_iter()
                .collect::<std::collections::BTreeSet<_>>()
                .into_iter()
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn unit_profit_prefix_len_matches_unit_profit_exact() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        for case in 0..200 {
            // Up to a few hundred items so several doubling rounds run;
            // coarse weights make ties and zeros common.
            let n = 1 + case * 3 % 300;
            let weights: Vec<f64> = (0..n)
                .map(|_| (next() * 8.0).floor() * 0.125 * next().round())
                .collect();
            let capacity = next() * n as f64 * 0.2;
            let it: Vec<Item> = weights
                .iter()
                .map(|&w| Item::new(w, 2.5).unwrap())
                .collect();
            let exact = unit_profit_exact(&it, capacity).unwrap();
            let mut scratch = weights.clone();
            assert_eq!(
                unit_profit_prefix_len(&mut scratch, capacity),
                exact.selected.len(),
                "case {case}"
            );
        }
    }

    #[test]
    fn unit_profit_exact_rejects_mixed_profits() {
        let it = items(&[(1.0, 1.0), (1.0, 2.0)]);
        assert!(unit_profit_exact(&it, 5.0).is_none());
    }

    #[test]
    fn greedy_half_approximation_randomized() {
        // Randomized cross-check of the 1/2 guarantee against the exact
        // solver on small instances.
        let mut state = 0x12345678u64;
        let mut next = move || {
            // Tiny xorshift for dependency-free determinism.
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        for _ in 0..50 {
            let n = 8;
            let it: Vec<Item> = (0..n)
                .map(|_| Item::new(next() * 10.0, next() * 10.0).unwrap())
                .collect();
            let cap = next() * 20.0;
            let approx = greedy_with_best_item(&it, cap);
            let opt = branch_and_bound(&it, cap, u64::MAX).solution;
            assert!(
                approx.profit >= 0.5 * opt.profit - 1e-9,
                "approx {} < half of {}",
                approx.profit,
                opt.profit
            );
        }
    }
}
