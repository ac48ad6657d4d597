//! Property-based tests for the set-cover solvers.

use proptest::prelude::*;
use wsn_setcover::{exact_cover, greedy_cover, to_source_instance, CoverInstance, GreedySolver};

/// Strategy: a random instance with up to `max_sets` subsets over a universe
/// of at most `max_elem` elements, with weights in (0, 10].
fn instances(max_sets: usize, max_elem: u32) -> impl Strategy<Value = CoverInstance> {
    prop::collection::vec(
        (
            prop::collection::btree_set(0..max_elem, 1..=(max_elem as usize).min(6)),
            0.01f64..10.0,
        ),
        1..=max_sets,
    )
    .prop_map(|sets| {
        let mut inst = CoverInstance::new();
        for (items, w) in sets {
            inst.add_subset(items.into_iter().collect(), w);
        }
        inst
    })
}

proptest! {
    /// One solver and one instance reused across a sequence of instances
    /// (rebuilt through `clear` + `add_subset_from`) give exactly the
    /// one-shot `greedy_cover` of each: no state leaks between solves.
    #[test]
    fn reused_solver_and_instance_match_one_shot(
        seq in prop::collection::vec(instances(10, 16), 1..6)
    ) {
        let mut solver = GreedySolver::default();
        let mut reused = CoverInstance::new();
        for inst in &seq {
            reused.clear();
            for s in inst.subsets() {
                reused.add_subset_from(s.items().iter().copied(), s.weight());
            }
            prop_assert_eq!(&reused, inst);
            let weight = solver.solve(&reused);
            let cover = greedy_cover(inst);
            prop_assert_eq!(solver.selected(), &cover.selected[..]);
            prop_assert_eq!(weight.to_bits(), cover.weight.to_bits());
        }
    }

    /// The greedy result always covers the universe.
    #[test]
    fn greedy_always_covers(inst in instances(10, 16)) {
        let cover = greedy_cover(&inst);
        prop_assert!(inst.covers(&cover.selected));
    }

    /// Selected indices are distinct and in bounds.
    #[test]
    fn greedy_selection_is_well_formed(inst in instances(10, 16)) {
        let cover = greedy_cover(&inst);
        let mut seen = std::collections::HashSet::new();
        for &i in &cover.selected {
            prop_assert!(i < inst.len());
            prop_assert!(seen.insert(i), "duplicate selection {i}");
        }
        let expected: f64 = inst.selection_weight(&cover.selected);
        prop_assert!((cover.weight - expected).abs() < 1e-9);
    }

    /// No selected subset is redundant after pruning: dropping any one
    /// selected subset must break coverage.
    #[test]
    fn greedy_cover_is_minimal(inst in instances(8, 12)) {
        let cover = greedy_cover(&inst);
        for drop in 0..cover.selected.len() {
            let rest: Vec<usize> = cover
                .selected
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != drop)
                .map(|(_, &s)| s)
                .collect();
            prop_assert!(!inst.covers(&rest), "subset {} is redundant", cover.selected[drop]);
        }
    }

    /// Chvátal's bound: greedy weight ≤ (ln d + 1) · optimal weight.
    #[test]
    fn greedy_respects_ln_d_plus_one_bound(inst in instances(8, 10)) {
        let greedy = greedy_cover(&inst);
        let exact = exact_cover(&inst);
        prop_assert!(inst.covers(&exact.selected));
        prop_assert!(greedy.weight + 1e-9 >= exact.weight, "greedy beat the optimum?!");
        let d = inst.max_subset_len().max(1) as f64;
        let bound = (d.ln() + 1.0) * exact.weight;
        prop_assert!(
            greedy.weight <= bound + 1e-9,
            "greedy {} exceeds (ln {} + 1) * {} = {}",
            greedy.weight,
            d,
            exact.weight,
            bound
        );
    }

    /// The exact cover is never heavier than any single covering subset.
    #[test]
    fn exact_is_at_most_any_full_subset(inst in instances(8, 10)) {
        let exact = exact_cover(&inst);
        for (i, s) in inst.subsets().iter().enumerate() {
            if s.items().len() == inst.universe_len() {
                prop_assert!(exact.weight <= s.weight() + 1e-9, "subset {i} beats optimum");
            }
        }
    }

    /// The event→source transformation preserves cost ratios.
    #[test]
    fn transform_preserves_ratio(
        subsets in prop::collection::vec(
            (prop::collection::btree_set((0u32..4, 0u64..6), 1..6), 0.01f64..10.0),
            1..6,
        )
    ) {
        let input: Vec<(Vec<(u32, u64)>, f64)> = subsets
            .into_iter()
            .map(|(s, w)| (s.into_iter().collect(), w))
            .collect();
        let inst = to_source_instance(&input);
        for (i, (events, w)) in input.iter().enumerate() {
            let mut distinct = events.clone();
            distinct.sort_unstable();
            distinct.dedup();
            let orig_ratio = w / distinct.len() as f64;
            let s = &inst.subsets()[i];
            let new_ratio = s.weight() / s.len() as f64;
            prop_assert!((orig_ratio - new_ratio).abs() < 1e-9);
        }
    }
}
