//! Weighted set-cover instances.
//!
//! An instance is a family of weighted subsets; the universe is implicitly
//! the union of the subsets (exactly the situation in the paper's §4.2: the
//! outgoing aggregate `X` is the union of the incoming aggregates `S_i`).

use std::collections::BTreeMap;

/// One candidate subset with its weight.
#[derive(Debug, Clone, PartialEq)]
pub struct Subset {
    /// Sorted, deduplicated element ids.
    items: Vec<u32>,
    /// The subset's weight (the paper: the energy cost of the incoming
    /// aggregate).
    weight: f64,
}

impl Subset {
    /// The subset's elements (sorted, deduplicated).
    pub fn items(&self) -> &[u32] {
        &self.items
    }

    /// The subset's weight.
    pub fn weight(&self) -> f64 {
        self.weight
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the subset is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

/// A weighted set-cover instance over dense `u32` element ids.
///
/// # Examples
///
/// The worked example of the paper's Figure 4(a):
///
/// ```
/// use wsn_setcover::CoverInstance;
///
/// let mut inst = CoverInstance::new();
/// inst.add_subset(vec![0, 1, 2], 5.0); // S1 = {a1, a2, b1}, w1 = 5
/// inst.add_subset(vec![2, 3], 6.0);    // S2 = {b1, b2},     w2 = 6
/// inst.add_subset(vec![1, 3], 7.0);    // S3 = {a2, b2},     w3 = 7
/// assert_eq!(inst.universe_len(), 4);
/// ```
#[derive(Debug, Clone, Default)]
pub struct CoverInstance {
    subsets: Vec<Subset>,
    universe: Vec<u32>,
    /// Emptied item vectors of cleared subsets, reused by
    /// [`add_subset_from`](Self::add_subset_from).
    spare: Vec<Vec<u32>>,
}

impl PartialEq for CoverInstance {
    fn eq(&self, other: &Self) -> bool {
        self.subsets == other.subsets && self.universe == other.universe
    }
}

impl CoverInstance {
    /// Creates an empty instance.
    pub fn new() -> Self {
        CoverInstance::default()
    }

    /// Adds a subset, returning its index.
    ///
    /// Duplicate elements within `items` are deduplicated. Empty subsets are
    /// allowed (they are never selected by the solvers).
    ///
    /// # Panics
    ///
    /// Panics if `weight` is negative, NaN, or infinite.
    pub fn add_subset(&mut self, mut items: Vec<u32>, weight: f64) -> usize {
        assert!(
            weight.is_finite() && weight >= 0.0,
            "subset weight must be finite and non-negative, got {weight}"
        );
        items.sort_unstable();
        items.dedup();
        for &x in &items {
            if self.universe.binary_search(&x).is_err() {
                let pos = self.universe.partition_point(|&u| u < x);
                self.universe.insert(pos, x);
            }
        }
        self.subsets.push(Subset { items, weight });
        self.subsets.len() - 1
    }

    /// Adds a subset whose elements come from an iterator, reusing the
    /// storage of a subset dropped by [`clear`](Self::clear). Otherwise
    /// identical to [`add_subset`](Self::add_subset).
    pub fn add_subset_from(&mut self, items: impl IntoIterator<Item = u32>, weight: f64) -> usize {
        let mut v = self.spare.pop().unwrap_or_default();
        v.extend(items);
        self.add_subset(v, weight)
    }

    /// Removes every subset, keeping the allocations for reuse: an instance
    /// rebuilt through [`add_subset_from`](Self::add_subset_from) after a
    /// `clear` allocates nothing once it has held as many subsets before.
    pub fn clear(&mut self) {
        for s in self.subsets.drain(..) {
            let mut items = s.items;
            items.clear();
            self.spare.push(items);
        }
        self.universe.clear();
    }

    /// The subsets, indexed as returned by [`add_subset`](Self::add_subset).
    pub fn subsets(&self) -> &[Subset] {
        &self.subsets
    }

    /// The universe: the sorted union of all subsets.
    pub fn universe(&self) -> &[u32] {
        &self.universe
    }

    /// Number of elements in the universe.
    pub fn universe_len(&self) -> usize {
        self.universe.len()
    }

    /// Number of subsets.
    pub fn len(&self) -> usize {
        self.subsets.len()
    }

    /// Whether the instance has no subsets.
    pub fn is_empty(&self) -> bool {
        self.subsets.is_empty()
    }

    /// The largest subset size `d` — the quantity in the greedy heuristic's
    /// `ln d + 1` approximation bound.
    pub fn max_subset_len(&self) -> usize {
        self.subsets.iter().map(Subset::len).max().unwrap_or(0)
    }

    /// Total weight of a selection of subset indices.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn selection_weight(&self, selected: &[usize]) -> f64 {
        selected.iter().map(|&i| self.subsets[i].weight).sum()
    }

    /// Whether the given selection covers the whole universe.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn covers(&self, selected: &[usize]) -> bool {
        let mut covered: Vec<u32> = selected
            .iter()
            .flat_map(|&i| self.subsets[i].items.iter().copied())
            .collect();
        covered.sort_unstable();
        covered.dedup();
        covered == self.universe
    }
}

/// Maps arbitrary ordered keys to the dense `u32` ids a [`CoverInstance`]
/// uses. The diffusion layer covers sets of `(source, round)` pairs; this
/// keeps that mapping in one audited place.
///
/// # Examples
///
/// ```
/// use wsn_setcover::DenseMapper;
///
/// let mut m = DenseMapper::new();
/// let a = m.id(("src", 1));
/// let b = m.id(("src", 2));
/// assert_ne!(a, b);
/// assert_eq!(m.id(("src", 1)), a); // stable
/// assert_eq!(m.key(a), Some(&("src", 1)));
/// ```
#[derive(Debug, Clone, Default)]
pub struct DenseMapper<T: Ord + Clone> {
    map: BTreeMap<T, u32>,
    keys: Vec<T>,
}

impl<T: Ord + Clone> DenseMapper<T> {
    /// Creates an empty mapper.
    pub fn new() -> Self {
        DenseMapper {
            map: BTreeMap::new(),
            keys: Vec::new(),
        }
    }

    /// The dense id for `key`, allocating one on first sight.
    pub fn id(&mut self, key: T) -> u32 {
        if let Some(&id) = self.map.get(&key) {
            return id;
        }
        let id = u32::try_from(self.keys.len()).expect("too many distinct keys");
        self.map.insert(key.clone(), id);
        self.keys.push(key);
        id
    }

    /// The key for a previously allocated id.
    pub fn key(&self, id: u32) -> Option<&T> {
        self.keys.get(id as usize)
    }

    /// Number of distinct keys seen.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether no keys have been seen.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn universe_is_sorted_union() {
        let mut inst = CoverInstance::new();
        inst.add_subset(vec![5, 1], 1.0);
        inst.add_subset(vec![3, 1], 1.0);
        assert_eq!(inst.universe(), &[1, 3, 5]);
        assert_eq!(inst.universe_len(), 3);
    }

    #[test]
    fn duplicate_items_are_deduplicated() {
        let mut inst = CoverInstance::new();
        let i = inst.add_subset(vec![2, 2, 2], 1.0);
        assert_eq!(inst.subsets()[i].items(), &[2]);
    }

    #[test]
    fn clear_then_rebuild_equals_a_fresh_instance() {
        let mut inst = CoverInstance::new();
        inst.add_subset(vec![4, 1], 2.0);
        inst.add_subset(vec![9], 1.0);
        inst.clear();
        assert!(inst.is_empty());
        assert_eq!(inst.universe_len(), 0);
        inst.add_subset_from([3, 3, 0], 1.5);
        let mut fresh = CoverInstance::new();
        fresh.add_subset(vec![0, 3], 1.5);
        assert_eq!(inst, fresh);
    }

    #[test]
    fn covers_detects_incomplete_selection() {
        let mut inst = CoverInstance::new();
        let a = inst.add_subset(vec![0, 1], 1.0);
        let b = inst.add_subset(vec![2], 1.0);
        assert!(!inst.covers(&[a]));
        assert!(inst.covers(&[a, b]));
    }

    #[test]
    fn selection_weight_sums() {
        let mut inst = CoverInstance::new();
        inst.add_subset(vec![0], 1.5);
        inst.add_subset(vec![1], 2.5);
        assert_eq!(inst.selection_weight(&[0, 1]), 4.0);
        assert_eq!(inst.selection_weight(&[]), 0.0);
    }

    #[test]
    fn max_subset_len_is_d() {
        let mut inst = CoverInstance::new();
        inst.add_subset(vec![0], 1.0);
        inst.add_subset(vec![0, 1, 2], 1.0);
        assert_eq!(inst.max_subset_len(), 3);
        assert_eq!(CoverInstance::new().max_subset_len(), 0);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_weight_panics() {
        CoverInstance::new().add_subset(vec![0], -1.0);
    }

    #[test]
    fn empty_subset_is_allowed() {
        let mut inst = CoverInstance::new();
        inst.add_subset(vec![], 1.0);
        assert_eq!(inst.universe_len(), 0);
        assert!(inst.covers(&[]));
    }

    #[test]
    fn dense_mapper_round_trips() {
        let mut m = DenseMapper::new();
        let ids: Vec<u32> = (0..10).map(|i| m.id(i * 7)).collect();
        assert_eq!(m.len(), 10);
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(m.key(*id), Some(&((i as i32) * 7)));
        }
        assert_eq!(m.key(99), None);
    }
}
