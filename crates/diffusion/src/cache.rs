//! The exploratory-event cache and the upstream-choice rule.
//!
//! Every node remembers, per exploratory message id, which neighbors offered
//! a path and at what cost:
//!
//! * an **exploratory offer** `E` — neighbor `n` delivered the exploratory
//!   event at energy cost `E` (transmissions from the source to *this* node
//!   via `n`);
//! * an **incremental offer** `C` — neighbor `n` delivered an incremental
//!   cost message advertising that the event's source can reach the existing
//!   aggregation tree at cost `C`.
//!
//! Positive reinforcement walks these offers backwards from the sink:
//! the *opportunistic* scheme reinforces the neighbor that delivered the
//! first copy (empirically lowest delay); the *greedy* scheme reinforces the
//! lowest-cost offer, preferring exploratory offers on cost ties and earlier
//! arrivals on remaining ties (paper §4.1).

use std::collections::hash_map::Entry as Slot;

use wsn_net::NodeId;
use wsn_sim::SimTime;

use crate::config::Scheme;
use crate::idhash::{IdMap, IdSet};
use crate::msg::{EventItem, MsgId};

/// Which kind of offer won the upstream choice. Ordered exploratory first,
/// the greedy scheme's preference on cost ties.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum UpstreamKind {
    /// Reinforce along the exploratory event's reverse path (builds a new
    /// path segment toward the source).
    Exploratory,
    /// Reinforce along the existing tree (extends the tree at a junction).
    Incremental,
}

#[derive(Debug, Clone, Copy, Default)]
struct Offer {
    /// Best exploratory (cost, arrival) from this neighbor.
    expl: Option<(u32, SimTime)>,
    /// Best incremental (cost, arrival) from this neighbor.
    incr: Option<(u32, SimTime)>,
}

/// Cached state for one exploratory event.
#[derive(Debug, Clone)]
pub struct ExplEntry {
    /// The event item the exploratory message carried.
    pub item: EventItem,
    /// Neighbor that delivered the first copy (the opportunistic choice).
    pub first_from: NodeId,
    /// Arrival time of the first copy.
    pub first_arrival: SimTime,
    /// Minimum energy cost at which this node received the event — the `E`
    /// looked up when forwarding incremental cost messages.
    pub own_energy: u32,
    /// Per-neighbor offers, sorted by neighbor id (at most one per radio
    /// neighbor, so a short vector).
    offers: Vec<(NodeId, Offer)>,
    /// Whether a reinforcement was already propagated for this id (one
    /// upstream reinforcement per id per node).
    pub reinforce_sent: bool,
    /// Whether the sink's `T_p` reinforcement timer has been armed.
    pub timer_armed: bool,
}

impl ExplEntry {
    fn offer_mut(&mut self, from: NodeId) -> &mut Offer {
        let i = match self.offers.binary_search_by_key(&from, |&(n, _)| n) {
            Ok(i) => i,
            Err(i) => {
                self.offers.insert(i, (from, Offer::default()));
                i
            }
        };
        &mut self.offers[i].1
    }
}

/// The per-node exploratory cache.
#[derive(Debug, Clone, Default)]
pub struct ExplCache {
    entries: IdMap<MsgId, ExplEntry>,
    /// Dedup for incremental cost messages: `(id, origin)` pairs already
    /// forwarded.
    seen_incremental: IdSet<(MsgId, NodeId)>,
    /// Emptied offer vectors of expired entries, reused by new entries so
    /// that steady-state exploratory rounds allocate nothing.
    spare_offers: Vec<Vec<(NodeId, Offer)>>,
}

impl ExplCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        ExplCache::default()
    }

    /// The entry for `id`, created from `item`/`from`/`now` with
    /// `own_energy` if absent. Also returns whether it was created.
    fn entry_or_insert(
        &mut self,
        id: MsgId,
        item: EventItem,
        from: NodeId,
        own_energy: u32,
        now: SimTime,
    ) -> (&mut ExplEntry, bool) {
        match self.entries.entry(id) {
            Slot::Occupied(slot) => (slot.into_mut(), false),
            Slot::Vacant(slot) => {
                let entry = slot.insert(ExplEntry {
                    item,
                    first_from: from,
                    first_arrival: now,
                    own_energy,
                    offers: self.spare_offers.pop().unwrap_or_default(),
                    reinforce_sent: false,
                    timer_armed: false,
                });
                (entry, true)
            }
        }
    }

    /// Records a received exploratory event. Returns `true` when this is the
    /// first copy of `id` (the caller then re-floods it).
    pub fn record_exploratory(
        &mut self,
        id: MsgId,
        item: EventItem,
        from: NodeId,
        energy: u32,
        now: SimTime,
    ) -> bool {
        let (entry, first) = self.entry_or_insert(id, item, from, energy, now);
        entry.own_energy = entry.own_energy.min(energy);
        let offer = entry.offer_mut(from);
        match offer.expl {
            Some((e, _)) if e <= energy => {}
            _ => offer.expl = Some((energy, now)),
        }
        first
    }

    /// Records a received incremental cost offer from `from`.
    ///
    /// Unknown ids are accepted: a node can hear an incremental cost message
    /// for an exploratory event it never saw (it is on the tree but off the
    /// flood path — rare, but the reinforcement walk must still work there).
    pub fn record_incremental(
        &mut self,
        id: MsgId,
        item: EventItem,
        from: NodeId,
        cost: u32,
        now: SimTime,
    ) {
        let (entry, _) = self.entry_or_insert(id, item, from, u32::MAX, now);
        let offer = entry.offer_mut(from);
        match offer.incr {
            Some((c, _)) if c <= cost => {}
            _ => offer.incr = Some((cost, now)),
        }
    }

    /// Dedup check for incremental cost messages: returns `true` the first
    /// time `(id, origin)` is seen (the caller then forwards it).
    pub fn first_incremental(&mut self, id: MsgId, origin: NodeId) -> bool {
        self.seen_incremental.insert((id, origin))
    }

    /// The cached entry for `id`.
    pub fn entry(&self, id: MsgId) -> Option<&ExplEntry> {
        self.entries.get(&id)
    }

    /// Mutable access to the cached entry for `id`.
    pub fn entry_mut(&mut self, id: MsgId) -> Option<&mut ExplEntry> {
        self.entries.get_mut(&id)
    }

    /// This node's own energy cost `E` for `id`, if it saw the exploratory
    /// event itself (used when forwarding incremental cost messages:
    /// `C' = min(C, E)`).
    pub fn own_energy(&self, id: MsgId) -> Option<u32> {
        self.entries
            .get(&id)
            .map(|e| e.own_energy)
            .filter(|&e| e != u32::MAX)
    }

    /// The upstream neighbor to reinforce for `id` under `scheme`.
    ///
    /// Opportunistic: the neighbor that delivered the first copy of the
    /// exploratory event (`None` if we only heard incremental offers).
    ///
    /// Greedy: the offer with the lowest cost; cost ties prefer exploratory
    /// offers over incremental ones; remaining ties go to the earliest
    /// arrival, then the lowest neighbor id (full determinism).
    pub fn choose_upstream(&self, id: MsgId, scheme: Scheme) -> Option<(NodeId, UpstreamKind)> {
        self.choose_upstream_excluding(id, scheme, &[])
    }

    /// Like [`choose_upstream`](Self::choose_upstream), but skips the
    /// `excluded` neighbors — used by local repair to route around next
    /// hops the MAC has reported dead.
    ///
    /// The opportunistic scheme has no cost table to fall back on; when its
    /// first sender is excluded it picks the earliest non-excluded
    /// exploratory offer instead.
    pub fn choose_upstream_excluding(
        &self,
        id: MsgId,
        scheme: Scheme,
        excluded: &[NodeId],
    ) -> Option<(NodeId, UpstreamKind)> {
        let entry = self.entries.get(&id)?;
        let offers = entry.offers.iter().filter(|(n, _)| !excluded.contains(n));
        match scheme {
            Scheme::Opportunistic => {
                if entry.own_energy == u32::MAX {
                    None // never actually saw the exploratory event
                } else if !excluded.contains(&entry.first_from) {
                    Some((entry.first_from, UpstreamKind::Exploratory))
                } else {
                    offers
                        .filter_map(|&(n, o)| o.expl.map(|(_, t)| (t, n)))
                        .min()
                        .map(|(_, n)| (n, UpstreamKind::Exploratory))
                }
            }
            Scheme::Greedy => offers
                .flat_map(|&(n, o)| {
                    let expl = o.expl.map(|(c, t)| (c, UpstreamKind::Exploratory, t, n));
                    let incr = o.incr.map(|(c, t)| (c, UpstreamKind::Incremental, t, n));
                    expl.into_iter().chain(incr)
                })
                .min()
                .map(|(_, kind, _, n)| (n, kind)),
        }
    }

    /// Number of cached exploratory entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Drops entries for events generated before `horizon` (bounds memory on
    /// long runs; two exploratory intervals of history are plenty), along
    /// with their incremental-cost dedup pairs.
    pub fn expire_before(&mut self, horizon: SimTime) {
        let spare = &mut self.spare_offers;
        self.entries.retain(|_, e| {
            let keep = e.item.generated >= horizon;
            if !keep {
                let mut offers = std::mem::take(&mut e.offers);
                offers.clear();
                spare.push(offers);
            }
            keep
        });
        let entries = &self.entries;
        self.seen_incremental
            .retain(|(id, _)| entries.contains_key(id));
    }

    /// Removes all state (node failure).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.seen_incremental.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(src: u32, round: u32) -> MsgId {
        MsgId {
            source: NodeId(src),
            round,
        }
    }

    fn item(src: u32, round: u32) -> EventItem {
        EventItem {
            source: NodeId(src),
            round,
            generated: SimTime::ZERO,
        }
    }

    fn t(ms: u64) -> SimTime {
        SimTime::from_nanos(ms * 1_000_000)
    }

    #[test]
    fn first_copy_is_detected() {
        let mut c = ExplCache::new();
        assert!(c.record_exploratory(id(0, 0), item(0, 0), NodeId(1), 3, t(10)));
        assert!(!c.record_exploratory(id(0, 0), item(0, 0), NodeId(2), 2, t(20)));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn own_energy_is_minimum_over_copies() {
        let mut c = ExplCache::new();
        c.record_exploratory(id(0, 0), item(0, 0), NodeId(1), 5, t(10));
        c.record_exploratory(id(0, 0), item(0, 0), NodeId(2), 3, t(20));
        c.record_exploratory(id(0, 0), item(0, 0), NodeId(3), 7, t(30));
        assert_eq!(c.own_energy(id(0, 0)), Some(3));
    }

    #[test]
    fn own_energy_absent_without_exploratory() {
        let mut c = ExplCache::new();
        c.record_incremental(id(0, 0), item(0, 0), NodeId(1), 4, t(10));
        assert_eq!(c.own_energy(id(0, 0)), None);
    }

    #[test]
    fn opportunistic_choice_is_first_sender() {
        let mut c = ExplCache::new();
        c.record_exploratory(id(0, 0), item(0, 0), NodeId(4), 9, t(10));
        c.record_exploratory(id(0, 0), item(0, 0), NodeId(2), 1, t(20));
        assert_eq!(
            c.choose_upstream(id(0, 0), Scheme::Opportunistic),
            Some((NodeId(4), UpstreamKind::Exploratory))
        );
    }

    #[test]
    fn greedy_choice_is_lowest_cost() {
        let mut c = ExplCache::new();
        c.record_exploratory(id(0, 0), item(0, 0), NodeId(4), 9, t(10));
        c.record_exploratory(id(0, 0), item(0, 0), NodeId(2), 3, t(20));
        assert_eq!(
            c.choose_upstream(id(0, 0), Scheme::Greedy),
            Some((NodeId(2), UpstreamKind::Exploratory))
        );
    }

    #[test]
    fn greedy_prefers_incremental_when_cheaper() {
        let mut c = ExplCache::new();
        c.record_exploratory(id(0, 0), item(0, 0), NodeId(4), 9, t(10));
        c.record_incremental(id(0, 0), item(0, 0), NodeId(7), 2, t(30));
        assert_eq!(
            c.choose_upstream(id(0, 0), Scheme::Greedy),
            Some((NodeId(7), UpstreamKind::Incremental))
        );
    }

    #[test]
    fn cost_tie_prefers_exploratory() {
        // Paper: "If the energy cost of an exploratory event and the
        // incremental cost message are equivalent, the sink reinforces the
        // neighboring node that sent the exploratory event."
        let mut c = ExplCache::new();
        c.record_incremental(id(0, 0), item(0, 0), NodeId(7), 5, t(5));
        c.record_exploratory(id(0, 0), item(0, 0), NodeId(4), 5, t(10));
        assert_eq!(
            c.choose_upstream(id(0, 0), Scheme::Greedy),
            Some((NodeId(4), UpstreamKind::Exploratory))
        );
    }

    #[test]
    fn remaining_tie_prefers_lowest_delay() {
        // "Other ties are decided in favor of the lowest delay."
        let mut c = ExplCache::new();
        c.record_exploratory(id(0, 0), item(0, 0), NodeId(9), 5, t(10));
        c.record_exploratory(id(0, 0), item(0, 0), NodeId(3), 5, t(20));
        assert_eq!(
            c.choose_upstream(id(0, 0), Scheme::Greedy),
            Some((NodeId(9), UpstreamKind::Exploratory))
        );
    }

    #[test]
    fn offer_keeps_best_cost_per_neighbor() {
        let mut c = ExplCache::new();
        c.record_exploratory(id(0, 0), item(0, 0), NodeId(1), 5, t(10));
        c.record_exploratory(id(0, 0), item(0, 0), NodeId(1), 3, t(20));
        c.record_exploratory(id(0, 0), item(0, 0), NodeId(1), 8, t(30));
        c.record_exploratory(id(0, 0), item(0, 0), NodeId(2), 4, t(40));
        assert_eq!(
            c.choose_upstream(id(0, 0), Scheme::Greedy),
            Some((NodeId(1), UpstreamKind::Exploratory))
        );
    }

    #[test]
    fn incremental_cost_only_decreases_per_neighbor() {
        let mut c = ExplCache::new();
        c.record_incremental(id(0, 0), item(0, 0), NodeId(1), 4, t(10));
        c.record_incremental(id(0, 0), item(0, 0), NodeId(1), 9, t(20));
        assert_eq!(
            c.choose_upstream(id(0, 0), Scheme::Greedy),
            Some((NodeId(1), UpstreamKind::Incremental))
        );
        // Cost 4 retained: a competitor at 5 loses.
        c.record_exploratory(id(0, 0), item(0, 0), NodeId(2), 5, t(30));
        assert_eq!(
            c.choose_upstream(id(0, 0), Scheme::Greedy),
            Some((NodeId(1), UpstreamKind::Incremental))
        );
    }

    #[test]
    fn choose_on_unknown_id_is_none() {
        let c = ExplCache::new();
        assert_eq!(c.choose_upstream(id(9, 9), Scheme::Greedy), None);
        assert_eq!(c.choose_upstream(id(9, 9), Scheme::Opportunistic), None);
    }

    #[test]
    fn opportunistic_without_exploratory_is_none() {
        let mut c = ExplCache::new();
        c.record_incremental(id(0, 0), item(0, 0), NodeId(1), 4, t(10));
        assert_eq!(c.choose_upstream(id(0, 0), Scheme::Opportunistic), None);
    }

    #[test]
    fn incremental_dedup_by_origin() {
        let mut c = ExplCache::new();
        assert!(c.first_incremental(id(0, 0), NodeId(5)));
        assert!(!c.first_incremental(id(0, 0), NodeId(5)));
        assert!(c.first_incremental(id(0, 0), NodeId(6)));
        assert!(c.first_incremental(id(0, 1), NodeId(5)));
    }

    #[test]
    fn expire_drops_old_entries() {
        let mut c = ExplCache::new();
        let old = EventItem {
            source: NodeId(0),
            round: 0,
            generated: t(0),
        };
        let new = EventItem {
            source: NodeId(0),
            round: 100,
            generated: t(100_000),
        };
        c.record_exploratory(id(0, 0), old, NodeId(1), 1, t(10));
        c.record_exploratory(id(0, 100), new, NodeId(1), 1, t(100_010));
        c.first_incremental(id(0, 0), NodeId(5));
        c.expire_before(t(50_000));
        assert_eq!(c.len(), 1);
        assert!(c.entry(id(0, 100)).is_some());
        // The dedup entry for the expired id is gone too.
        assert!(c.first_incremental(id(0, 0), NodeId(5)));
    }
}
