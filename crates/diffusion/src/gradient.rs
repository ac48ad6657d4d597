//! The gradient table.
//!
//! A gradient is per-neighbor state describing the direction data flows and
//! its status. Interests set up *exploratory* gradients (low-rate exploratory
//! events flow along them); positive reinforcement upgrades a neighbor to a
//! *data* gradient (high-rate data flows along it); negative reinforcement
//! degrades it back.

use wsn_net::NodeId;
use wsn_sim::SimTime;

/// Per-neighbor gradient state. A neighbor can hold an exploratory gradient
/// and a data gradient simultaneously; each expires independently.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct Entry {
    expl_until: Option<SimTime>,
    data_until: Option<SimTime>,
}

impl Entry {
    fn expl_live(&self, now: SimTime) -> bool {
        self.expl_until.is_some_and(|u| u >= now)
    }

    fn data_live(&self, now: SimTime) -> bool {
        self.data_until.is_some_and(|u| u >= now)
    }
}

/// The gradients a node maintains, keyed by neighbor.
///
/// Stored as a small vector sorted by neighbor id: a node's entries are
/// bounded by its radio degree, so a binary search beats hashing, and every
/// neighbor list comes out sorted without a sort.
///
/// # Examples
///
/// ```
/// use wsn_diffusion::GradientTable;
/// use wsn_net::NodeId;
/// use wsn_sim::SimTime;
///
/// let mut g = GradientTable::new();
/// let t0 = SimTime::ZERO;
/// g.refresh_exploratory(NodeId(1), SimTime::from_secs(15));
/// g.reinforce(NodeId(1), SimTime::from_secs(110));
/// assert!(g.has_data(NodeId(1), t0));
/// g.degrade(NodeId(1));
/// assert!(!g.has_data(NodeId(1), t0));
/// assert!(g.has_exploratory(NodeId(1), t0));
/// ```
#[derive(Debug, Clone, Default)]
pub struct GradientTable {
    entries: Vec<(NodeId, Entry)>,
}

impl GradientTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        GradientTable::default()
    }

    fn get(&self, neighbor: NodeId) -> Option<&Entry> {
        self.entries
            .binary_search_by_key(&neighbor, |&(n, _)| n)
            .ok()
            .map(|i| &self.entries[i].1)
    }

    fn get_or_insert(&mut self, neighbor: NodeId) -> &mut Entry {
        let i = match self.entries.binary_search_by_key(&neighbor, |&(n, _)| n) {
            Ok(i) => i,
            Err(i) => {
                self.entries.insert(i, (neighbor, Entry::default()));
                i
            }
        };
        &mut self.entries[i].1
    }

    /// Sets or refreshes the exploratory gradient toward `neighbor`, valid
    /// until `until`. Never shortens an existing validity.
    pub fn refresh_exploratory(&mut self, neighbor: NodeId, until: SimTime) {
        let e = self.get_or_insert(neighbor);
        e.expl_until = Some(e.expl_until.map_or(until, |u| u.max(until)));
    }

    /// Upgrades `neighbor` to a data gradient valid until `until` (positive
    /// reinforcement). Never shortens an existing validity.
    pub fn reinforce(&mut self, neighbor: NodeId, until: SimTime) {
        let e = self.get_or_insert(neighbor);
        e.data_until = Some(e.data_until.map_or(until, |u| u.max(until)));
    }

    /// Degrades `neighbor`'s data gradient to exploratory only (negative
    /// reinforcement). Returns `true` if a live data gradient was removed.
    pub fn degrade(&mut self, neighbor: NodeId) -> bool {
        match self.entries.binary_search_by_key(&neighbor, |&(n, _)| n) {
            Ok(i) => self.entries[i].1.data_until.take().is_some(),
            Err(_) => false,
        }
    }

    /// Whether a live exploratory *or* data gradient toward `neighbor`
    /// exists at `now` (data implies the direction is still valid for
    /// exploratory traffic).
    pub fn has_any(&self, neighbor: NodeId, now: SimTime) -> bool {
        self.has_exploratory(neighbor, now) || self.has_data(neighbor, now)
    }

    /// Whether a live exploratory gradient toward `neighbor` exists at `now`.
    pub fn has_exploratory(&self, neighbor: NodeId, now: SimTime) -> bool {
        self.get(neighbor).is_some_and(|e| e.expl_live(now))
    }

    /// Whether a live data gradient toward `neighbor` exists at `now`.
    pub fn has_data(&self, neighbor: NodeId, now: SimTime) -> bool {
        self.get(neighbor).is_some_and(|e| e.data_live(now))
    }

    /// Whether any live gradient, exploratory or data, exists at `now` —
    /// `!all_neighbors(now).is_empty()` without building the list.
    pub fn any_live(&self, now: SimTime) -> bool {
        self.entries
            .iter()
            .any(|(_, e)| e.expl_live(now) || e.data_live(now))
    }

    /// The neighbors with a live data gradient at `now`, sorted.
    pub fn data_neighbors(&self, now: SimTime) -> Vec<NodeId> {
        let mut v = Vec::new();
        self.data_neighbors_into(now, &mut v);
        v
    }

    /// Replaces the contents of `out` with [`data_neighbors`](Self::data_neighbors)
    /// — the allocation-free form for callers that keep a scratch buffer.
    pub fn data_neighbors_into(&self, now: SimTime, out: &mut Vec<NodeId>) {
        out.clear();
        out.extend(
            self.entries
                .iter()
                .filter(|(_, e)| e.data_live(now))
                .map(|&(n, _)| n),
        );
    }

    /// The neighbors with any live gradient at `now`, sorted.
    pub fn all_neighbors(&self, now: SimTime) -> Vec<NodeId> {
        self.entries
            .iter()
            .filter(|(_, e)| e.expl_live(now) || e.data_live(now))
            .map(|&(n, _)| n)
            .collect()
    }

    /// Whether the node is "on the existing tree": it has at least one live
    /// data gradient (someone downstream wants its data).
    pub fn on_tree(&self, now: SimTime) -> bool {
        self.entries.iter().any(|(_, e)| e.data_live(now))
    }

    /// Drops entries whose gradients have all expired.
    pub fn sweep(&mut self, now: SimTime) {
        self.entries.retain_mut(|(_, e)| {
            if e.expl_until.is_some_and(|u| u < now) {
                e.expl_until = None;
            }
            if e.data_until.is_some_and(|u| u < now) {
                e.data_until = None;
            }
            e.expl_until.is_some() || e.data_until.is_some()
        });
    }

    /// Removes all gradients (node failure wipes protocol state).
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Number of neighbors with any (possibly expired, not yet swept) entry.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn exploratory_gradients_expire() {
        let mut g = GradientTable::new();
        g.refresh_exploratory(NodeId(1), t(15));
        assert!(g.has_exploratory(NodeId(1), t(15)));
        assert!(!g.has_exploratory(NodeId(1), t(16)));
    }

    #[test]
    fn refresh_extends_not_shortens() {
        let mut g = GradientTable::new();
        g.refresh_exploratory(NodeId(1), t(20));
        g.refresh_exploratory(NodeId(1), t(10));
        assert!(g.has_exploratory(NodeId(1), t(20)));
    }

    #[test]
    fn reinforce_creates_data_gradient() {
        let mut g = GradientTable::new();
        g.reinforce(NodeId(2), t(100));
        assert!(g.has_data(NodeId(2), t(0)));
        assert!(g.on_tree(t(0)));
        assert!(!g.on_tree(t(101)));
    }

    #[test]
    fn degrade_removes_only_data() {
        let mut g = GradientTable::new();
        g.refresh_exploratory(NodeId(1), t(15));
        g.reinforce(NodeId(1), t(100));
        assert!(g.degrade(NodeId(1)));
        assert!(!g.has_data(NodeId(1), t(0)));
        assert!(g.has_exploratory(NodeId(1), t(0)));
        // Degrading again reports nothing removed.
        assert!(!g.degrade(NodeId(1)));
        assert!(!g.degrade(NodeId(9)));
    }

    #[test]
    fn neighbor_lists_are_sorted_and_filtered() {
        let mut g = GradientTable::new();
        g.reinforce(NodeId(5), t(100));
        g.reinforce(NodeId(2), t(100));
        g.refresh_exploratory(NodeId(9), t(15));
        assert_eq!(g.data_neighbors(t(0)), vec![NodeId(2), NodeId(5)]);
        assert_eq!(g.all_neighbors(t(0)), vec![NodeId(2), NodeId(5), NodeId(9)]);
        // After exploratory expiry only the data gradients remain.
        assert_eq!(g.all_neighbors(t(50)), vec![NodeId(2), NodeId(5)]);
    }

    #[test]
    fn any_live_tracks_expiry_of_both_kinds() {
        let mut g = GradientTable::new();
        assert!(!g.any_live(t(0)));
        g.refresh_exploratory(NodeId(3), t(15));
        g.reinforce(NodeId(7), t(40));
        assert!(g.any_live(t(30)));
        assert!(!g.any_live(t(41)));
        let mut out = vec![NodeId(99)];
        g.data_neighbors_into(t(20), &mut out);
        assert_eq!(out, vec![NodeId(7)]);
    }

    #[test]
    fn has_any_covers_both_kinds() {
        let mut g = GradientTable::new();
        g.reinforce(NodeId(1), t(100));
        assert!(g.has_any(NodeId(1), t(0)));
        assert!(!g.has_any(NodeId(2), t(0)));
    }

    #[test]
    fn sweep_drops_expired_entries() {
        let mut g = GradientTable::new();
        g.refresh_exploratory(NodeId(1), t(10));
        g.reinforce(NodeId(2), t(5));
        g.refresh_exploratory(NodeId(3), t(50));
        g.sweep(t(20));
        assert_eq!(g.len(), 1);
        assert!(g.has_exploratory(NodeId(3), t(20)));
    }

    #[test]
    fn sweep_keeps_live_data_but_drops_expired_expl_side() {
        let mut g = GradientTable::new();
        g.refresh_exploratory(NodeId(1), t(10));
        g.reinforce(NodeId(1), t(100));
        g.sweep(t(20));
        assert_eq!(g.len(), 1);
        assert!(!g.has_exploratory(NodeId(1), t(20)));
        assert!(g.has_data(NodeId(1), t(20)));
    }

    #[test]
    fn clear_empties_table() {
        let mut g = GradientTable::new();
        g.reinforce(NodeId(1), t(100));
        g.clear();
        assert!(g.is_empty());
        assert!(!g.on_tree(t(0)));
    }
}
