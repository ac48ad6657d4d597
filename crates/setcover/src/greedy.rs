//! The greedy weighted set-cover heuristic (paper §4.2).
//!
//! "The heuristic of the greedy set-covering algorithm is to greedily select
//! the next subset (among the remaining subsets) for covering uncovered
//! elements at the lowest cost ratio until all elements are covered. The cost
//! ratio r_i of S_i is w_i / |S'_i| where S'_i ⊆ S_i is the set of uncovered
//! elements in S_i. [...] The final step of the greedy heuristic is to remove
//! such redundant subsets from C."
//!
//! The approximation guarantee is `ln d + 1` where `d` is the largest subset
//! size (Chvátal); the property tests in this crate check it against the
//! exact solver.

use crate::instance::CoverInstance;

/// A cover: the selected subset indices and their total weight.
#[derive(Debug, Clone, PartialEq)]
pub struct Cover {
    /// Indices into [`CoverInstance::subsets`], in selection order.
    pub selected: Vec<usize>,
    /// Sum of the selected subsets' weights.
    pub weight: f64,
}

impl Cover {
    /// Whether a particular subset index was selected.
    pub fn contains(&self, index: usize) -> bool {
        self.selected.contains(&index)
    }
}

/// Computes a cover of the instance's universe with the greedy heuristic,
/// then prunes redundant subsets.
///
/// Ties in the cost ratio break toward the lower subset index, making the
/// result deterministic. Zero-weight subsets with uncovered elements have
/// cost ratio 0 and are picked first.
///
/// The universe is by construction the union of the subsets, so a cover
/// always exists.
///
/// # Examples
///
/// The paper's Figure 4(a): `S1` then `S2` are selected; `S3` is not.
///
/// ```
/// use wsn_setcover::{greedy_cover, CoverInstance};
///
/// let mut inst = CoverInstance::new();
/// inst.add_subset(vec![0, 1, 2], 5.0); // S1 = {a1, a2, b1}
/// inst.add_subset(vec![2, 3], 6.0);    // S2 = {b1, b2}
/// inst.add_subset(vec![1, 3], 7.0);    // S3 = {a2, b2}
/// let cover = greedy_cover(&inst);
/// assert_eq!(cover.selected, vec![0, 1]);
/// assert_eq!(cover.weight, 11.0);
/// ```
pub fn greedy_cover(inst: &CoverInstance) -> Cover {
    let mut solver = GreedySolver::default();
    let weight = solver.solve(inst);
    Cover {
        selected: solver.selected,
        weight,
    }
}

/// The greedy heuristic with reusable working memory: repeated solves
/// through one solver allocate nothing once it has seen instances as large.
/// [`greedy_cover`] is a one-shot solve through a fresh solver.
///
/// # Examples
///
/// ```
/// use wsn_setcover::{greedy_cover, CoverInstance, GreedySolver};
///
/// let mut inst = CoverInstance::new();
/// inst.add_subset(vec![0, 1, 2], 5.0);
/// inst.add_subset(vec![2, 3], 6.0);
/// let mut solver = GreedySolver::default();
/// assert_eq!(solver.solve(&inst), 11.0);
/// assert_eq!(solver.selected(), &greedy_cover(&inst).selected[..]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct GreedySolver {
    /// Per universe position: still uncovered?
    uncovered: Vec<bool>,
    /// Per subset: already selected?
    in_cover: Vec<bool>,
    /// Selected subset indices, in selection order.
    selected: Vec<usize>,
    /// Pruning: positions into `selected`, heaviest first.
    order: Vec<usize>,
    /// Pruning: per position in `selected`, still kept?
    keep: Vec<bool>,
}

impl GreedySolver {
    /// Covers `inst` and returns the cover's weight; the selection is then
    /// available from [`selected`](Self::selected).
    pub fn solve(&mut self, inst: &CoverInstance) -> f64 {
        let universe = inst.universe();
        let position = |x: &u32| {
            universe
                .binary_search(x)
                .expect("subset items are in the universe")
        };
        self.uncovered.clear();
        self.uncovered.resize(universe.len(), true);
        let mut remaining = universe.len();
        self.in_cover.clear();
        self.in_cover.resize(inst.len(), false);
        self.selected.clear();

        while remaining > 0 {
            let mut best: Option<(f64, usize, usize)> = None; // (ratio, index, gain)
            for (i, s) in inst.subsets().iter().enumerate() {
                if self.in_cover[i] {
                    continue;
                }
                let gain = s
                    .items()
                    .iter()
                    .filter(|x| self.uncovered[position(x)])
                    .count();
                if gain == 0 {
                    continue;
                }
                let ratio = s.weight() / gain as f64;
                let better = match best {
                    None => true,
                    Some((r, _, _)) => ratio < r,
                };
                if better {
                    best = Some((ratio, i, gain));
                }
            }
            let (_, i, gain) =
                best.expect("universe is the union of subsets, so a cover must exist");
            self.in_cover[i] = true;
            self.selected.push(i);
            for x in inst.subsets()[i].items() {
                self.uncovered[position(x)] = false;
            }
            remaining -= gain;
        }

        self.prune_redundant(inst);
        inst.selection_weight(&self.selected)
    }

    /// The subsets the last [`solve`](Self::solve) selected, in selection
    /// order.
    pub fn selected(&self) -> &[usize] {
        &self.selected
    }

    /// Removes subsets whose elements are all covered by the rest of the
    /// selection. Candidates are examined from the heaviest down (dropping
    /// the most expensive redundancy first); ties break toward the
    /// later-selected subset. The final selection keeps its original
    /// selection order.
    fn prune_redundant(&mut self, inst: &CoverInstance) {
        let selected = &mut self.selected;
        self.order.clear();
        self.order.extend(0..selected.len());
        // Keys are distinct (the index breaks weight ties), so an unstable
        // sort gives the one order a stable sort would.
        self.order.sort_unstable_by(|&a, &b| {
            let wa = inst.subsets()[selected[a]].weight();
            let wb = inst.subsets()[selected[b]].weight();
            wb.partial_cmp(&wa)
                .expect("weights are finite")
                .then(b.cmp(&a))
        });
        let keep = &mut self.keep;
        keep.clear();
        keep.resize(selected.len(), true);
        for &cand in &self.order {
            // Is every element of `cand` covered by the other kept subsets?
            let covered_elsewhere = inst.subsets()[selected[cand]].items().iter().all(|x| {
                selected.iter().enumerate().any(|(j, &sj)| {
                    j != cand && keep[j] && inst.subsets()[sj].items().binary_search(x).is_ok()
                })
            });
            if covered_elsewhere {
                keep[cand] = false;
            }
        }
        let mut idx = 0;
        selected.retain(|_| {
            let k = keep[idx];
            idx += 1;
            k
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds the paper's Figure 4(a) instance.
    /// Elements: a1 = 0, a2 = 1, b1 = 2, b2 = 3.
    fn figure4a() -> CoverInstance {
        let mut inst = CoverInstance::new();
        inst.add_subset(vec![0, 1, 2], 5.0);
        inst.add_subset(vec![2, 3], 6.0);
        inst.add_subset(vec![1, 3], 7.0);
        inst
    }

    #[test]
    fn figure4a_selects_s1_then_s2() {
        let cover = greedy_cover(&figure4a());
        // Initial ratios: r1 = 5/3, r2 = 3, r3 = 3.5 → S1 first. Then only
        // b2 is uncovered: r2 = 6, r3 = 7 → S2.
        assert_eq!(cover.selected, vec![0, 1]);
        assert_eq!(cover.weight, 11.0);
        // The paper then sends the outgoing aggregate with w4 = w1 + w2 + 1 = 12.
        assert_eq!(cover.weight + 1.0, 12.0);
    }

    #[test]
    fn figure4b_source_transform_selects_only_s1() {
        // After the event→source transformation: S1* = {A,B} w = 10/3,
        // S2* = {B} w = 3, S3* = {A,B} w = 7.
        let mut inst = CoverInstance::new();
        inst.add_subset(vec![0, 1], 10.0 / 3.0);
        inst.add_subset(vec![1], 3.0);
        inst.add_subset(vec![0, 1], 7.0);
        let cover = greedy_cover(&inst);
        // Ratios: r1 = 5/3, r2 = 3, r3 = 3.5 → S1* covers everything.
        assert_eq!(cover.selected, vec![0]);
    }

    #[test]
    fn empty_instance_yields_empty_cover() {
        let cover = greedy_cover(&CoverInstance::new());
        assert!(cover.selected.is_empty());
        assert_eq!(cover.weight, 0.0);
    }

    #[test]
    fn single_subset_is_selected() {
        let mut inst = CoverInstance::new();
        inst.add_subset(vec![1, 2, 3], 4.0);
        let cover = greedy_cover(&inst);
        assert_eq!(cover.selected, vec![0]);
        assert_eq!(cover.weight, 4.0);
    }

    #[test]
    fn ties_break_to_lower_index() {
        let mut inst = CoverInstance::new();
        inst.add_subset(vec![0], 1.0);
        inst.add_subset(vec![0], 1.0);
        let cover = greedy_cover(&inst);
        assert_eq!(cover.selected, vec![0]);
    }

    #[test]
    fn zero_weight_subsets_are_preferred() {
        let mut inst = CoverInstance::new();
        inst.add_subset(vec![0, 1], 5.0);
        inst.add_subset(vec![0, 1], 0.0);
        let cover = greedy_cover(&inst);
        assert_eq!(cover.selected, vec![1]);
        assert_eq!(cover.weight, 0.0);
    }

    #[test]
    fn redundant_subset_is_pruned() {
        // Greedy picks {0,1} (ratio 1), then {2,3} (ratio 1.1), then... make
        // a case where a selected set becomes redundant:
        // A = {0,1}, B = {1,2}, C = {0,2}: universe {0,1,2}.
        // Weights: A=2 (r=1), B=2.2, C=2.4.
        // Greedy: A (r=1.0); uncovered {2}: B r=2.2, C r=2.4 → B. Cover {A,B}
        // covers everything; nothing redundant. Need a 3-pick case:
        // U = {0,1,2,3}; A={0,1} w=1, B={2,3} w=1.5, C={1,2} w=0.9.
        // Greedy: C (r=0.45), then A (r=1), then B (r=1.5). Now C ⊆ A ∪ B →
        // pruned.
        let mut inst = CoverInstance::new();
        let a = inst.add_subset(vec![0, 1], 1.0);
        let b = inst.add_subset(vec![2, 3], 1.5);
        let c = inst.add_subset(vec![1, 2], 0.9);
        let cover = greedy_cover(&inst);
        assert!(cover.contains(a));
        assert!(cover.contains(b));
        assert!(!cover.contains(c), "C is redundant once A and B are in");
        assert_eq!(cover.weight, 2.5);
    }

    #[test]
    fn empty_subsets_are_never_selected() {
        let mut inst = CoverInstance::new();
        inst.add_subset(vec![], 0.0);
        inst.add_subset(vec![7], 3.0);
        let cover = greedy_cover(&inst);
        assert_eq!(cover.selected, vec![1]);
    }

    #[test]
    fn cover_always_covers() {
        let mut inst = CoverInstance::new();
        inst.add_subset(vec![0, 2, 4], 1.0);
        inst.add_subset(vec![1, 3], 2.0);
        inst.add_subset(vec![0, 1, 2, 3, 4], 10.0);
        let cover = greedy_cover(&inst);
        assert!(inst.covers(&cover.selected));
    }
}
