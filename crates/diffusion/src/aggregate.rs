//! The in-network aggregation buffer (paper §4.2).
//!
//! An aggregation point holds received data for up to `T_a` before flushing
//! one combined aggregate downstream. The outgoing aggregate's energy cost is
//! the minimum-weight set cover of its items by the incoming aggregates, plus
//! one (for the outgoing transmission itself) — computed with the greedy
//! weighted set-cover heuristic.

use wsn_net::NodeId;
use wsn_setcover::{CoverInstance, GreedySolver};
use wsn_sim::SimTime;

use crate::msg::EventItem;

/// One incoming aggregate buffered for the current aggregation cycle.
#[derive(Debug, Clone)]
pub struct IncomingAgg {
    /// Sending neighbor, or `None` for this node's own locally generated
    /// events (which cost nothing to "deliver" to itself).
    pub from: Option<NodeId>,
    /// The items the aggregate carried.
    pub items: Vec<EventItem>,
    /// The aggregate's advertised energy cost `w`.
    pub cost: f64,
    /// Arrival time.
    pub arrived: SimTime,
}

/// The outgoing aggregate produced by a flush.
#[derive(Debug, Clone, PartialEq)]
pub struct OutgoingAgg {
    /// Distinct items, ordered by `(source, round)`.
    pub items: Vec<EventItem>,
    /// Energy cost `w` = minimum cover weight + 1.
    pub cost: f64,
}

/// Where `item`'s key sits among `items`, sorted and distinct by key.
fn key_position(items: &[EventItem], item: &EventItem) -> Result<usize, usize> {
    items.binary_search_by_key(&item.key(), EventItem::key)
}

/// Buffers incoming data between flushes and computes outgoing aggregates.
///
/// The buffer tracks *pending* items (received but not yet forwarded — the
/// caller filters out items it has already forwarded before offering) and the
/// full set of incoming aggregates of the cycle (needed for the cost cover:
/// an aggregate that brought no new items can still be the cheapest cover of
/// items another neighbor also delivered).
#[derive(Debug, Clone, Default)]
pub struct AggregationBuffer {
    /// Pending items, sorted by `(source, round)` and distinct by that key.
    pending: Vec<EventItem>,
    cycle: Vec<IncomingAgg>,
    /// Item vectors of past cycles, reused by
    /// [`offer_items`](Self::offer_items).
    spare_items: Vec<Vec<EventItem>>,
    /// The flush's cover instance and solver, reused across flushes (no
    /// state survives a flush).
    cover: CoverInstance,
    solver: GreedySolver,
}

impl AggregationBuffer {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        AggregationBuffer::default()
    }

    /// Offers an incoming aggregate to the buffer. `new_items` are the items
    /// the caller determined to be previously unseen (these become pending);
    /// the full aggregate is kept for cost computation regardless.
    pub fn offer(&mut self, agg: IncomingAgg, new_items: &[EventItem]) {
        for item in new_items {
            match key_position(&self.pending, item) {
                Ok(i) => self.pending[i] = *item,
                Err(i) => self.pending.insert(i, *item),
            }
        }
        self.cycle.push(agg);
    }

    /// Like [`offer`](Self::offer) for an aggregate carrying `items`, which
    /// are copied into the storage of a past cycle's aggregate when one is
    /// free.
    pub fn offer_items(
        &mut self,
        from: Option<NodeId>,
        items: &[EventItem],
        cost: f64,
        arrived: SimTime,
        new_items: &[EventItem],
    ) {
        let mut v = self.spare_items.pop().unwrap_or_default();
        v.extend_from_slice(items);
        let agg = IncomingAgg {
            from,
            items: v,
            cost,
            arrived,
        };
        self.offer(agg, new_items);
    }

    /// Ends the cycle, keeping its item vectors for reuse — at most one
    /// cycle's worth, so aggregates offered through [`offer`](Self::offer)
    /// cannot pile up spares.
    fn clear_cycle(&mut self) {
        let keep = self.cycle.len();
        for agg in self.cycle.drain(..) {
            if self.spare_items.len() < keep {
                let mut items = agg.items;
                items.clear();
                self.spare_items.push(items);
            }
        }
    }

    /// Whether any items await forwarding.
    pub fn has_pending(&self) -> bool {
        !self.pending.is_empty()
    }

    /// Whether any pending item comes from `source`.
    pub fn has_pending_from(&self, source: NodeId) -> bool {
        let i = self.pending.partition_point(|it| it.source < source);
        self.pending.get(i).is_some_and(|it| it.source == source)
    }

    /// The distinct sources among pending items, sorted.
    pub fn pending_sources(&self) -> Vec<NodeId> {
        let mut v: Vec<NodeId> = self.pending.iter().map(|it| it.source).collect();
        v.dedup();
        v
    }

    /// Number of pending items.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Number of incoming aggregates buffered in the current cycle (the
    /// inputs a flush would merge). Read this *before* [`flush`] — flushing
    /// clears the cycle.
    ///
    /// [`flush`]: AggregationBuffer::flush
    pub fn cycle_len(&self) -> usize {
        self.cycle.len()
    }

    /// Flushes the buffer: returns the outgoing aggregate (items plus
    /// set-cover cost), or `None` when nothing is pending. Clears the cycle
    /// either way.
    ///
    /// Cost rule (paper §4.2): map each incoming aggregate to a subset
    /// weighted by its cost `w_i`; the outgoing cost is the greedy cover's
    /// weight plus one. Items in incoming aggregates that are not pending
    /// (already forwarded earlier) are ignored — the cover targets exactly
    /// the outgoing items.
    pub fn flush(&mut self) -> Option<OutgoingAgg> {
        if self.pending.is_empty() {
            self.clear_cycle();
            return None;
        }
        // Dense element ids: position among the pending items (sorted by
        // key).
        let inst = &mut self.cover;
        inst.clear();
        for agg in &self.cycle {
            let pending = &self.pending;
            let mut elems = agg
                .items
                .iter()
                .filter_map(|it| key_position(pending, it).ok().map(|i| i as u32))
                .peekable();
            if elems.peek().is_none() {
                continue;
            }
            inst.add_subset_from(elems, agg.cost);
        }
        debug_assert!(
            inst.universe_len() == self.pending.len(),
            "every pending item must come from some cycle aggregate"
        );
        let weight = self.solver.solve(inst);
        let items = self.pending.clone();
        self.pending.clear();
        self.clear_cycle();
        Some(OutgoingAgg {
            items,
            cost: weight + 1.0,
        })
    }

    /// Discards all buffered state (node failure).
    pub fn clear(&mut self) {
        self.pending.clear();
        self.cycle.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn item(src: u32, round: u32) -> EventItem {
        EventItem {
            source: NodeId(src),
            round,
            generated: SimTime::ZERO,
        }
    }

    fn agg(from: Option<u32>, items: Vec<EventItem>, cost: f64) -> IncomingAgg {
        IncomingAgg {
            from: from.map(NodeId),
            items,
            cost,
            arrived: SimTime::ZERO,
        }
    }

    #[test]
    fn empty_flush_is_none() {
        let mut buf = AggregationBuffer::new();
        assert_eq!(buf.flush(), None);
    }

    #[test]
    fn single_local_event_costs_one_transmission() {
        let mut buf = AggregationBuffer::new();
        let it = item(0, 1);
        // A source's own event arrives at itself for free (w = 0).
        buf.offer(agg(None, vec![it], 0.0), &[it]);
        let out = buf.flush().expect("one pending item");
        assert_eq!(out.items, vec![it]);
        assert_eq!(out.cost, 1.0);
        assert!(!buf.has_pending());
    }

    #[test]
    fn figure4a_cost_is_twelve() {
        // Node L receives S1 = {a1, a2, b1} w=5, S2 = {b1, b2} w=6,
        // S3 = {a2, b2} w=7 and sends S4 = union at w4 = 5 + 6 + 1 = 12.
        let a1 = item(0, 1);
        let a2 = item(0, 2);
        let b1 = item(1, 1);
        let b2 = item(1, 2);
        let mut buf = AggregationBuffer::new();
        buf.offer(agg(Some(10), vec![a1, a2, b1], 5.0), &[a1, a2, b1]);
        buf.offer(agg(Some(11), vec![b1, b2], 6.0), &[b2]);
        buf.offer(agg(Some(12), vec![a2, b2], 7.0), &[]);
        let out = buf.flush().expect("items pending");
        assert_eq!(out.items.len(), 4);
        assert_eq!(out.cost, 12.0);
    }

    #[test]
    fn duplicate_only_aggregate_can_still_win_the_cover() {
        // Neighbor A delivers {x} at cost 9; neighbor B then delivers {x}
        // at cost 2. B brought nothing new, but the cover should use B.
        let x = item(0, 1);
        let mut buf = AggregationBuffer::new();
        buf.offer(agg(Some(1), vec![x], 9.0), &[x]);
        buf.offer(agg(Some(2), vec![x], 2.0), &[]);
        let out = buf.flush().expect("x pending");
        assert_eq!(out.cost, 3.0);
    }

    #[test]
    fn items_outside_pending_are_ignored_by_the_cover() {
        // y was forwarded in an earlier cycle (not offered as new); only x
        // is pending. The aggregate carrying {x, y} covers x.
        let x = item(0, 1);
        let y = item(1, 1);
        let mut buf = AggregationBuffer::new();
        buf.offer(agg(Some(1), vec![x, y], 4.0), &[x]);
        let out = buf.flush().expect("x pending");
        assert_eq!(out.items, vec![x]);
        assert_eq!(out.cost, 5.0);
    }

    #[test]
    fn pending_sources_are_distinct_and_sorted() {
        let mut buf = AggregationBuffer::new();
        let items = [item(3, 1), item(1, 1), item(3, 2)];
        buf.offer(agg(Some(1), items.to_vec(), 1.0), &items);
        assert_eq!(buf.pending_sources(), vec![NodeId(1), NodeId(3)]);
        assert_eq!(buf.pending_len(), 3);
        assert!(buf.has_pending_from(NodeId(1)));
        assert!(buf.has_pending_from(NodeId(3)));
        assert!(!buf.has_pending_from(NodeId(0)));
        assert!(!buf.has_pending_from(NodeId(2)));
        assert!(!buf.has_pending_from(NodeId(4)));
    }

    #[test]
    fn flush_clears_cycle_even_when_empty() {
        let mut buf = AggregationBuffer::new();
        let x = item(0, 1);
        buf.offer(agg(Some(1), vec![x], 1.0), &[]); // nothing new
        assert_eq!(buf.flush(), None);
        // A later cycle must not see the stale aggregate.
        buf.offer(agg(None, vec![x], 0.0), &[x]);
        let out = buf.flush().expect("pending");
        assert_eq!(out.cost, 1.0);
    }

    #[test]
    fn items_are_ordered_by_source_then_round() {
        let mut buf = AggregationBuffer::new();
        let items = [item(2, 5), item(1, 9), item(1, 2)];
        buf.offer(agg(Some(1), items.to_vec(), 1.0), &items);
        let out = buf.flush().expect("pending");
        let keys: Vec<_> = out.items.iter().map(EventItem::key).collect();
        assert_eq!(keys, vec![(NodeId(1), 2), (NodeId(1), 9), (NodeId(2), 5)]);
    }

    #[test]
    fn clear_discards_everything() {
        let mut buf = AggregationBuffer::new();
        let x = item(0, 1);
        buf.offer(agg(Some(1), vec![x], 1.0), &[x]);
        buf.clear();
        assert!(!buf.has_pending());
        assert_eq!(buf.flush(), None);
    }
}
