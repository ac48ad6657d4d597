//! Negative reinforcement — the truncation rules (paper §4.3).
//!
//! Both schemes periodically examine the data received from each upstream
//! neighbor within a window `T_n` and negatively reinforce neighbors that are
//! not pulling their weight:
//!
//! * **Opportunistic** (the prior diffusion rule): truncate a neighbor whose
//!   window contains no previously unseen events — it only delivers
//!   duplicates.
//! * **Greedy** (the paper's rule): compute the minimum-weight set cover of
//!   *sources* (after the event→source transformation) over the window's
//!   aggregates; truncate neighbors none of whose aggregates are selected.

use std::collections::VecDeque;

use wsn_net::NodeId;
use wsn_setcover::{add_source_subset, CoverInstance, GreedySolver};
use wsn_sim::{SimDuration, SimTime};

use crate::config::Scheme;
use crate::msg::EventItem;

/// One received data message, as remembered for truncation decisions.
#[derive(Debug, Clone)]
pub struct WindowEntry {
    /// The sending neighbor.
    pub from: NodeId,
    /// The items the aggregate carried.
    pub items: Vec<EventItem>,
    /// The aggregate's advertised cost `w`.
    pub cost: f64,
    /// Arrival time.
    pub arrived: SimTime,
    /// Whether the aggregate contained at least one previously unseen item.
    pub had_new: bool,
}

/// Sliding-window log of incoming data, per node.
#[derive(Debug, Clone)]
pub struct TruncationLog {
    window: SimDuration,
    entries: VecDeque<WindowEntry>,
    /// Item vectors of evicted entries, reused by
    /// [`record_items`](Self::record_items).
    spare_items: Vec<Vec<EventItem>>,
    /// The greedy rule's source cover, rebuilt on every decision.
    cover: CoverInstance,
    solver: GreedySolver,
    events: Vec<(u32, u64)>,
}

impl TruncationLog {
    /// Creates a log with the given window `T_n`.
    pub fn new(window: SimDuration) -> Self {
        TruncationLog {
            window,
            entries: VecDeque::new(),
            spare_items: Vec::new(),
            cover: CoverInstance::new(),
            solver: GreedySolver::default(),
            events: Vec::new(),
        }
    }

    /// Records an incoming data message.
    pub fn record(&mut self, entry: WindowEntry) {
        self.entries.push_back(entry);
    }

    /// Records an incoming data message carrying `items`, copied into the
    /// storage of an evicted entry when one is free.
    pub fn record_items(
        &mut self,
        from: NodeId,
        items: &[EventItem],
        cost: f64,
        arrived: SimTime,
        had_new: bool,
    ) {
        let mut v = self.spare_items.pop().unwrap_or_default();
        v.extend_from_slice(items);
        self.record(WindowEntry {
            from,
            items: v,
            cost,
            arrived,
            had_new,
        });
    }

    /// Evicts entries older than the window, keeping their item vectors for
    /// reuse — no more than the window still holds, so entries recorded
    /// through [`record`](Self::record) cannot pile up spares.
    pub fn evict(&mut self, now: SimTime) {
        while let Some(front) = self.entries.front() {
            if now.saturating_duration_since(front.arrived) > self.window {
                let mut items = self.entries.pop_front().expect("front exists").items;
                if self.spare_items.len() <= self.entries.len() {
                    items.clear();
                    self.spare_items.push(items);
                }
            } else {
                break;
            }
        }
    }

    /// Distinct neighbors that sent data within the window, sorted.
    pub fn senders(&self) -> Vec<NodeId> {
        let mut v = Vec::new();
        self.senders_into(&mut v);
        v
    }

    /// Replaces the contents of `out` with [`senders`](Self::senders).
    pub fn senders_into(&self, out: &mut Vec<NodeId>) {
        Self::distinct_into(self.entries.iter(), out);
    }

    /// Distinct neighbors that delivered at least one previously unseen item
    /// within the window, sorted — the node's *active* upstream providers,
    /// whose data gradients deserve re-reinforcement.
    pub fn senders_with_new(&self) -> Vec<NodeId> {
        let mut v = Vec::new();
        self.senders_with_new_into(&mut v);
        v
    }

    /// Replaces the contents of `out` with
    /// [`senders_with_new`](Self::senders_with_new).
    pub fn senders_with_new_into(&self, out: &mut Vec<NodeId>) {
        Self::distinct_into(self.entries.iter().filter(|e| e.had_new), out);
    }

    /// The sorted distinct senders of `entries`, into `out`.
    fn distinct_into<'a>(entries: impl Iterator<Item = &'a WindowEntry>, out: &mut Vec<NodeId>) {
        out.clear();
        out.extend(entries.map(|e| e.from));
        out.sort_unstable();
        out.dedup();
    }

    /// Number of entries currently in the window.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the window is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The neighbors to negatively reinforce under `scheme`, evaluated at
    /// `now` (entries outside the window are evicted first).
    ///
    /// Returns a sorted list. With fewer than two senders nothing is ever
    /// truncated — there is no alternative path to prefer.
    pub fn decide(&mut self, scheme: Scheme, now: SimTime) -> Vec<NodeId> {
        let mut v = Vec::new();
        self.decide_into(scheme, now, &mut v);
        v
    }

    /// Replaces the contents of `out` with [`decide`](Self::decide)'s list.
    pub fn decide_into(&mut self, scheme: Scheme, now: SimTime, out: &mut Vec<NodeId>) {
        self.evict(now);
        self.senders_into(out);
        if out.len() < 2 {
            out.clear();
            return;
        }
        match scheme {
            Scheme::Opportunistic => {
                // Keep the senders none of whose window entries was new.
                let entries = &self.entries;
                out.retain(|&s| entries.iter().all(|e| e.from != s || !e.had_new));
            }
            Scheme::Greedy => {
                // Transform each aggregate's events to its sources, weight
                // w* = w·|S*|/|S|, and cover the sources at minimum weight.
                self.cover.clear();
                for e in &self.entries {
                    self.events.clear();
                    self.events
                        .extend(e.items.iter().map(|it| (it.source.0, u64::from(it.round))));
                    add_source_subset(&mut self.cover, &mut self.events, e.cost);
                }
                self.solver.solve(&self.cover);
                let (entries, selected) = (&self.entries, self.solver.selected());
                out.retain(|&s| !selected.iter().any(|&i| entries[i].from == s));
            }
        }
    }

    /// Discards all state (node failure).
    pub fn clear(&mut self) {
        self.entries.clear();
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

    fn entry(
        from: u32,
        items: Vec<EventItem>,
        cost: f64,
        at_ms: u64,
        had_new: bool,
    ) -> WindowEntry {
        WindowEntry {
            from: NodeId(from),
            items,
            cost,
            arrived: SimTime::from_nanos(at_ms * 1_000_000),
            had_new,
        }
    }

    fn t(ms: u64) -> SimTime {
        SimTime::from_nanos(ms * 1_000_000)
    }

    fn log() -> TruncationLog {
        TruncationLog::new(SimDuration::from_secs(2))
    }

    #[test]
    fn single_sender_is_never_truncated() {
        let mut l = log();
        l.record(entry(1, vec![item(0, 1)], 1.0, 100, false));
        assert!(l.decide(Scheme::Opportunistic, t(200)).is_empty());
        assert!(l.decide(Scheme::Greedy, t(200)).is_empty());
    }

    #[test]
    fn opportunistic_truncates_duplicate_only_senders() {
        let mut l = log();
        l.record(entry(1, vec![item(0, 1)], 1.0, 100, true));
        l.record(entry(2, vec![item(0, 1)], 3.0, 150, false));
        assert_eq!(l.decide(Scheme::Opportunistic, t(200)), vec![NodeId(2)]);
    }

    #[test]
    fn opportunistic_spares_senders_with_any_new_item() {
        let mut l = log();
        l.record(entry(1, vec![item(0, 1)], 1.0, 100, true));
        l.record(entry(2, vec![item(0, 1)], 3.0, 150, false));
        l.record(entry(2, vec![item(0, 2)], 3.0, 160, true));
        assert!(l.decide(Scheme::Opportunistic, t(200)).is_empty());
    }

    #[test]
    fn greedy_truncates_by_source_cover() {
        // Figure 4(b): G sends {a1,a2,b1} w=5, H sends {b1,b2} w=6,
        // K sends {a2,b2} w=7. Source cover selects only G's aggregate, so
        // H and K are negatively reinforced.
        let mut l = log();
        let a1 = item(0, 1);
        let a2 = item(0, 2);
        let b1 = item(1, 1);
        let b2 = item(1, 2);
        l.record(entry(10, vec![a1, a2, b1], 5.0, 100, true)); // G
        l.record(entry(11, vec![b1, b2], 6.0, 110, true)); // H
        l.record(entry(12, vec![a2, b2], 7.0, 120, false)); // K
        assert_eq!(
            l.decide(Scheme::Greedy, t(200)),
            vec![NodeId(11), NodeId(12)]
        );
    }

    #[test]
    fn greedy_event_cover_would_be_more_conservative() {
        // Same scenario under the *event* cover keeps H (S2 covers b2) —
        // that's exactly the paper's argument for covering sources instead.
        // Verify that the greedy rule prunes H while the raw event cover
        // includes it.
        let a1 = item(0, 1);
        let a2 = item(0, 2);
        let b1 = item(1, 1);
        let b2 = item(1, 2);
        let mut inst = wsn_setcover::CoverInstance::new();
        inst.add_subset(vec![0, 1, 2], 5.0); // a1 a2 b1
        inst.add_subset(vec![2, 3], 6.0); // b1 b2
        inst.add_subset(vec![1, 3], 7.0); // a2 b2
        let event_cover = wsn_setcover::greedy_cover(&inst);
        assert!(event_cover.contains(1), "event cover keeps H's aggregate");

        let mut l = log();
        l.record(entry(10, vec![a1, a2, b1], 5.0, 100, true));
        l.record(entry(11, vec![b1, b2], 6.0, 110, true));
        l.record(entry(12, vec![a2, b2], 7.0, 120, false));
        let truncated = l.decide(Scheme::Greedy, t(200));
        assert!(truncated.contains(&NodeId(11)), "source cover prunes H");
    }

    #[test]
    fn greedy_keeps_disjoint_senders() {
        let mut l = log();
        l.record(entry(1, vec![item(0, 1)], 2.0, 100, true));
        l.record(entry(2, vec![item(1, 1)], 2.0, 110, true));
        assert!(l.decide(Scheme::Greedy, t(200)).is_empty());
    }

    #[test]
    fn eviction_respects_window() {
        let mut l = log();
        l.record(entry(1, vec![item(0, 1)], 1.0, 0, true));
        l.record(entry(2, vec![item(0, 1)], 5.0, 2500, false));
        // At t = 3 s, the first entry (t = 0) is outside the 2 s window, so
        // only sender 2 remains: a single sender, never truncated.
        assert!(l.decide(Scheme::Opportunistic, t(3000)).is_empty());
        assert_eq!(l.senders(), vec![NodeId(2)]);
    }

    #[test]
    fn senders_are_deduplicated_and_sorted() {
        let mut l = log();
        l.record(entry(5, vec![item(0, 1)], 1.0, 100, true));
        l.record(entry(3, vec![item(0, 2)], 1.0, 110, true));
        l.record(entry(5, vec![item(0, 3)], 1.0, 120, true));
        assert_eq!(l.senders(), vec![NodeId(3), NodeId(5)]);
        assert_eq!(l.len(), 3);
    }

    #[test]
    fn senders_with_new_filters_duplicate_only_senders() {
        let mut l = log();
        l.record(entry(1, vec![item(0, 1)], 1.0, 100, true));
        l.record(entry(2, vec![item(0, 1)], 1.0, 110, false));
        l.record(entry(2, vec![item(0, 2)], 1.0, 120, true));
        l.record(entry(3, vec![item(0, 2)], 1.0, 130, false));
        assert_eq!(l.senders_with_new(), vec![NodeId(1), NodeId(2)]);
    }

    #[test]
    fn clear_empties_log() {
        let mut l = log();
        l.record(entry(1, vec![item(0, 1)], 1.0, 100, true));
        l.clear();
        assert!(l.is_empty());
    }

    #[test]
    fn greedy_prefers_cheap_covering_sender() {
        // Two senders deliver the same sources; the cheaper one stays.
        let mut l = log();
        l.record(entry(1, vec![item(0, 1), item(1, 1)], 10.0, 100, true));
        l.record(entry(2, vec![item(0, 1), item(1, 1)], 2.0, 150, false));
        assert_eq!(l.decide(Scheme::Greedy, t(200)), vec![NodeId(1)]);
    }
}
