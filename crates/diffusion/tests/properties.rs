//! Property-based tests of the diffusion building blocks.

use std::collections::BTreeMap;

use proptest::prelude::*;
use wsn_diffusion::{
    AggregationBuffer, AggregationFn, EventItem, ExplCache, GradientTable, IncomingAgg, MsgId,
    Scheme, TruncationLog, UpstreamKind, WindowEntry,
};
use wsn_net::NodeId;
use wsn_sim::{SimDuration, SimTime};

fn item(src: u32, round: u32) -> EventItem {
    EventItem {
        source: NodeId(src),
        round,
        generated: SimTime::ZERO,
    }
}

/// An offer script for the exploratory cache: (neighbor, cost, incremental?).
fn offers() -> impl Strategy<Value = Vec<(u32, u32, bool)>> {
    prop::collection::vec((0u32..8, 1u32..30, any::<bool>()), 1..20)
}

proptest! {
    /// The greedy upstream choice equals the brute-force minimum under the
    /// paper's tie rules (cost, then exploratory-over-incremental, then
    /// earliest arrival).
    #[test]
    fn greedy_choice_matches_brute_force(script in offers()) {
        let id = MsgId { source: NodeId(99), round: 0 };
        let mut cache = ExplCache::new();
        // Brute force over *effective* offers: per (neighbor, kind) the best
        // cost with its earliest achieving time.
        let mut best: Option<(u32, u8, u64, u32)> = None; // cost, kind, time, neighbor
        let mut effective: std::collections::HashMap<(u32, bool), (u32, u64)> = Default::default();
        for (t, &(n, cost, incremental)) in script.iter().enumerate() {
            let now = SimTime::from_nanos((t as u64 + 1) * 1000);
            if incremental {
                cache.record_incremental(id, item(99, 0), NodeId(n), cost, now);
            } else {
                cache.record_exploratory(id, item(99, 0), NodeId(n), cost, now);
            }
            let e = effective.entry((n, incremental)).or_insert((cost, now.as_nanos()));
            if cost < e.0 {
                *e = (cost, now.as_nanos());
            }
        }
        for (&(n, incremental), &(cost, time)) in &effective {
            let cand = (cost, u8::from(incremental), time, n);
            if best.is_none_or(|b| cand < b) {
                best = Some(cand);
            }
        }
        let expected = best.map(|(_, _, _, n)| NodeId(n));
        let chosen = cache.choose_upstream(id, Scheme::Greedy).map(|(n, _)| n);
        prop_assert_eq!(chosen, expected);
    }

    /// The opportunistic choice is always the neighbor that delivered the
    /// first *exploratory* copy.
    #[test]
    fn opportunistic_choice_is_first_exploratory(script in offers()) {
        let id = MsgId { source: NodeId(99), round: 0 };
        let mut cache = ExplCache::new();
        let mut first_expl: Option<u32> = None;
        for (t, &(n, cost, incremental)) in script.iter().enumerate() {
            let now = SimTime::from_nanos((t as u64 + 1) * 1000);
            if incremental {
                cache.record_incremental(id, item(99, 0), NodeId(n), cost, now);
            } else {
                cache.record_exploratory(id, item(99, 0), NodeId(n), cost, now);
                if first_expl.is_none() {
                    first_expl = Some(n);
                }
            }
        }
        let chosen = cache.choose_upstream(id, Scheme::Opportunistic).map(|(n, _)| n);
        // The cache's first_from is the neighbor of the first *recorded*
        // message; opportunistic only answers when an exploratory was seen.
        match first_expl {
            Some(n) if script.first().map(|&(_, _, inc)| !inc).unwrap_or(false) => {
                prop_assert_eq!(chosen, Some(NodeId(n)));
            }
            _ => {} // first message was incremental: entry exists but answer may be None
        }
    }

    /// The aggregation buffer's outgoing cost is bounded: at least 1 (its
    /// own transmission) and at most the sum of all incoming costs plus 1.
    #[test]
    fn aggregate_cost_is_bounded(
        aggs in prop::collection::vec(
            (prop::collection::btree_set((0u32..4, 0u32..6), 1..5), 0.0f64..20.0),
            1..8,
        )
    ) {
        let mut buf = AggregationBuffer::new();
        let mut seen: std::collections::HashSet<(NodeId, u32)> = Default::default();
        let mut total_cost = 0.0;
        for (i, (items, cost)) in aggs.iter().enumerate() {
            let items: Vec<EventItem> = items.iter().map(|&(s, r)| item(s, r)).collect();
            let new_items: Vec<EventItem> = items
                .iter()
                .filter(|it| seen.insert(it.key()))
                .copied()
                .collect();
            buf.offer(
                IncomingAgg {
                    from: Some(NodeId(i as u32 + 100)),
                    items,
                    cost: *cost,
                    arrived: SimTime::ZERO,
                },
                &new_items,
            );
            total_cost += cost;
        }
        if let Some(out) = buf.flush() {
            prop_assert!(out.cost >= 1.0);
            prop_assert!(out.cost <= total_cost + 1.0 + 1e-9);
            prop_assert!(!out.items.is_empty());
            // Items are distinct and sorted by key.
            let keys: Vec<_> = out.items.iter().map(EventItem::key).collect();
            let mut sorted = keys.clone();
            sorted.sort();
            sorted.dedup();
            prop_assert_eq!(keys, sorted);
        }
        // After a flush nothing remains.
        prop_assert!(buf.flush().is_none());
    }

    /// Truncation never cuts the sole sender, never cuts a non-sender, and
    /// under the greedy rule the surviving senders still cover every source
    /// in the window.
    #[test]
    fn truncation_is_safe(
        entries in prop::collection::vec(
            (0u32..5, prop::collection::btree_set((0u32..4, 0u32..4), 1..4), 0.5f64..10.0, any::<bool>()),
            1..12,
        ),
        scheme in prop::sample::select(vec![Scheme::Greedy, Scheme::Opportunistic]),
    ) {
        let mut log = TruncationLog::new(SimDuration::from_secs(2));
        for (i, (from, items, cost, had_new)) in entries.iter().enumerate() {
            log.record(WindowEntry {
                from: NodeId(*from),
                items: items.iter().map(|&(s, r)| item(s, r)).collect(),
                cost: *cost,
                arrived: SimTime::from_nanos(i as u64),
                had_new: *had_new,
            });
        }
        let senders = log.senders();
        let truncated = log.decide(scheme, SimTime::from_nanos(entries.len() as u64));
        for t in &truncated {
            prop_assert!(senders.contains(t), "truncated a non-sender");
        }
        if senders.len() == 1 {
            prop_assert!(truncated.is_empty());
        }
        if scheme == Scheme::Greedy {
            // The greedy rule always keeps the selected cover's senders.
            prop_assert!(truncated.len() < senders.len().max(1), "greedy truncated everyone");
        }
        if scheme == Scheme::Greedy && !truncated.is_empty() {
            // Survivors still cover all sources present in the window.
            let all_sources: std::collections::BTreeSet<u32> = entries
                .iter()
                .flat_map(|(_, items, _, _)| items.iter().map(|&(s, _)| s))
                .collect();
            let surviving_sources: std::collections::BTreeSet<u32> = entries
                .iter()
                .filter(|(from, _, _, _)| !truncated.contains(&NodeId(*from)))
                .flat_map(|(_, items, _, _)| items.iter().map(|&(s, _)| s))
                .collect();
            prop_assert_eq!(all_sources, surviving_sources, "coverage lost by truncation");
        }
    }

    /// Gradient table: reinforce ⇒ on-tree; degrade ⇒ not; expiry respected;
    /// refresh never shortens validity.
    #[test]
    fn gradient_lifecycle(ops in prop::collection::vec((0u32..4, 0u8..3, 1u64..100), 1..40)) {
        let mut table = GradientTable::new();
        let mut model: std::collections::HashMap<u32, u64> = Default::default(); // data_until
        for (i, &(n, op, horizon)) in ops.iter().enumerate() {
            let now = i as u64;
            let until = now + horizon;
            match op {
                0 => {
                    table.reinforce(NodeId(n), SimTime::from_nanos(until));
                    let e = model.entry(n).or_insert(0);
                    *e = (*e).max(until);
                }
                1 => {
                    table.degrade(NodeId(n));
                    model.remove(&n);
                }
                _ => {
                    table.refresh_exploratory(NodeId(n), SimTime::from_nanos(until));
                }
            }
            let t = SimTime::from_nanos(now);
            for (&m, &du) in &model {
                prop_assert_eq!(table.has_data(NodeId(m), t), du >= now);
            }
            prop_assert_eq!(
                table.on_tree(t),
                model.values().any(|&du| du >= now)
            );
        }
    }

    /// The sorted-vector gradient table answers every query exactly like a
    /// `BTreeMap` model under random refresh/reinforce/degrade/sweep
    /// scripts.
    #[test]
    fn gradient_table_matches_map_model(
        ops in prop::collection::vec((0u32..12, 0u8..4, 0u64..40), 1..80)
    ) {
        // neighbor -> (exploratory until, data until)
        let mut model: BTreeMap<u32, (Option<u64>, Option<u64>)> = BTreeMap::new();
        let mut table = GradientTable::new();
        let mut scratch = vec![NodeId(999)];
        for (i, &(n, op, horizon)) in ops.iter().enumerate() {
            let now = i as u64;
            let until = now + horizon;
            match op {
                0 => {
                    table.refresh_exploratory(NodeId(n), SimTime::from_nanos(until));
                    let e = model.entry(n).or_default();
                    e.0 = Some(e.0.map_or(until, |u| u.max(until)));
                }
                1 => {
                    table.reinforce(NodeId(n), SimTime::from_nanos(until));
                    let e = model.entry(n).or_default();
                    e.1 = Some(e.1.map_or(until, |u| u.max(until)));
                }
                2 => {
                    let removed = model.get_mut(&n).and_then(|e| e.1.take()).is_some();
                    prop_assert_eq!(table.degrade(NodeId(n)), removed);
                }
                _ => {
                    table.sweep(SimTime::from_nanos(now));
                    model.retain(|_, e| {
                        e.0 = e.0.filter(|&u| u >= now);
                        e.1 = e.1.filter(|&u| u >= now);
                        e.0.is_some() || e.1.is_some()
                    });
                }
            }
            prop_assert_eq!(table.len(), model.len());
            // Query now and a little later, so expiry shows.
            for t in [now, now + 10] {
                let at = SimTime::from_nanos(t);
                let live = |u: Option<u64>| u.is_some_and(|u| u >= t);
                for m in 0..12 {
                    let (expl, data) = model.get(&m).copied().unwrap_or_default();
                    prop_assert_eq!(table.has_exploratory(NodeId(m), at), live(expl));
                    prop_assert_eq!(table.has_data(NodeId(m), at), live(data));
                    prop_assert_eq!(table.has_any(NodeId(m), at), live(expl) || live(data));
                }
                let data_nbrs: Vec<NodeId> = model
                    .iter()
                    .filter(|(_, e)| live(e.1))
                    .map(|(&m, _)| NodeId(m))
                    .collect();
                let all_nbrs: Vec<NodeId> = model
                    .iter()
                    .filter(|(_, e)| live(e.0) || live(e.1))
                    .map(|(&m, _)| NodeId(m))
                    .collect();
                prop_assert_eq!(table.on_tree(at), !data_nbrs.is_empty());
                prop_assert_eq!(table.any_live(at), !all_nbrs.is_empty());
                table.data_neighbors_into(at, &mut scratch);
                prop_assert_eq!(&scratch, &data_nbrs);
                prop_assert_eq!(table.data_neighbors(at), data_nbrs);
                prop_assert_eq!(table.all_neighbors(at), all_nbrs);
            }
        }
    }

    /// Both upstream choices under a random exclusion list equal brute
    /// force over the recorded offers: greedy takes the minimum
    /// (cost, exploratory-first, arrival, neighbor) among non-excluded
    /// offers; opportunistic takes the first sender unless excluded, else
    /// the earliest non-excluded exploratory offer.
    #[test]
    fn upstream_choice_with_exclusions_matches_brute_force(
        script in offers(),
        excluded in prop::collection::vec(0u32..8, 0..5),
    ) {
        let id = MsgId { source: NodeId(99), round: 0 };
        let mut cache = ExplCache::new();
        // Per (neighbor, incremental?): best cost and the arrival of the
        // first copy at that cost; plus the first sender and whether any
        // exploratory copy arrived.
        let mut effective: BTreeMap<(u32, bool), (u32, u64)> = BTreeMap::new();
        let first_from = script[0].0;
        let mut saw_exploratory = false;
        for (t, &(n, cost, incremental)) in script.iter().enumerate() {
            let now = SimTime::from_nanos((t as u64 + 1) * 1000);
            if incremental {
                cache.record_incremental(id, item(99, 0), NodeId(n), cost, now);
            } else {
                cache.record_exploratory(id, item(99, 0), NodeId(n), cost, now);
                saw_exploratory = true;
            }
            let e = effective.entry((n, incremental)).or_insert((cost, now.as_nanos()));
            if cost < e.0 {
                *e = (cost, now.as_nanos());
            }
        }
        let excluded_ids: Vec<NodeId> = excluded.iter().map(|&n| NodeId(n)).collect();
        let allowed = |n: &u32| !excluded.contains(n);

        let greedy = effective
            .iter()
            .filter(|((n, _), _)| allowed(n))
            .map(|(&(n, inc), &(cost, time))| (cost, u8::from(inc), time, n))
            .min()
            .map(|(_, inc, _, n)| {
                let kind = if inc == 0 { UpstreamKind::Exploratory } else { UpstreamKind::Incremental };
                (NodeId(n), kind)
            });
        prop_assert_eq!(
            cache.choose_upstream_excluding(id, Scheme::Greedy, &excluded_ids),
            greedy
        );

        let opportunistic = if !saw_exploratory {
            None
        } else if allowed(&first_from) {
            Some(NodeId(first_from))
        } else {
            effective
                .iter()
                .filter(|((n, inc), _)| !inc && allowed(n))
                .map(|(&(n, _), &(_, time))| (time, n))
                .min()
                .map(|(_, n)| NodeId(n))
        };
        prop_assert_eq!(
            cache
                .choose_upstream_excluding(id, Scheme::Opportunistic, &excluded_ids)
                .map(|(n, _)| n),
            opportunistic
        );
    }

    /// Aggregate sizing: perfect is constant; linear is affine and matches
    /// the paper's coefficients.
    #[test]
    fn aggregation_fn_sizes(d in 1usize..50) {
        prop_assert_eq!(AggregationFn::Perfect.aggregate_bytes(d, 64), 64);
        let lin = AggregationFn::LINEAR_PAPER.aggregate_bytes(d, 64);
        prop_assert_eq!(lin, 28 * d as u32 + 36);
    }
}
