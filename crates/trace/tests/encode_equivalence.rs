//! Encoder equivalence: the bytes [`JsonlSink`] writes, and the lines
//! [`TraceRecord::to_json`] returns, equal what the `write!` format strings
//! the encoder replaced produce, for random records of every variant.
//!
//! Those format strings live on here as [`oracle`]. Records go through one
//! sink per case, so its `f64` text memo carries state from record to
//! record: the float strategy draws from a pool larger than the memo
//! (repeats hit, distinct values evict one another), from raw bit patterns
//! (subnormals, NaN payloads, both zeros), and from values whose text is
//! longer than a memo slot (`1e300`, `1e-300`).

use std::io::{self, Write};

use proptest::prelude::*;
use wsn_trace::{
    join_lineage, DropReason, JsonlSink, LineageId, TraceRecord, TraceSink, ENERGY_STATES,
    SCHEMA_VERSION,
};

const FRAME_KINDS: [&str; 4] = ["data", "ack", "rts", "cts"];
const REINFORCE_KINDS: [&str; 3] = ["establish", "refresh", "repair"];
const PROFILE_LABELS: [&str; 3] = ["tx_end", "timer", "snapshot"];

/// Distinct values in the repeating pool: more than the memo's 64 slots, so
/// a case both hits and evicts.
const POOL: usize = 96;

/// The record encoding as it was written before the hand-written encoder:
/// one `write!` format string per variant.
fn oracle(rec: &TraceRecord, out: &mut impl Write) -> io::Result<()> {
    match rec {
        TraceRecord::RunStart { seed, nodes } => writeln!(
            out,
            "{{\"ev\":\"run_start\",\"v\":{SCHEMA_VERSION},\"seed\":{seed},\"nodes\":{nodes}}}"
        ),
        TraceRecord::Dispatch { t_ns, seq } => {
            writeln!(out, "{{\"ev\":\"dispatch\",\"t_ns\":{t_ns},\"seq\":{seq}}}")
        }
        TraceRecord::MacEnqueue {
            t_ns,
            node,
            bytes,
            dst,
            lineage,
        } => {
            write!(out, "{{\"ev\":\"enq\",\"t_ns\":{t_ns},\"node\":{node},\"bytes\":{bytes}")?;
            if let Some(d) = dst {
                write!(out, ",\"dst\":{d}")?;
            }
            if let Some(l) = lineage {
                write!(out, ",\"lineage\":\"{l}\"")?;
            }
            writeln!(out, "}}")
        }
        TraceRecord::PacketTx {
            t_ns,
            node,
            tx,
            kind,
            bytes,
            dst,
            lineage,
        } => {
            write!(
                out,
                "{{\"ev\":\"tx\",\"t_ns\":{t_ns},\"node\":{node},\"tx\":{tx},\"kind\":\"{kind}\",\"bytes\":{bytes}"
            )?;
            if let Some(d) = dst {
                write!(out, ",\"dst\":{d}")?;
            }
            if let Some(l) = lineage {
                write!(out, ",\"lineage\":\"{l}\"")?;
            }
            writeln!(out, "}}")
        }
        TraceRecord::PacketRx {
            t_ns,
            node,
            from,
            tx,
            bytes,
        } => writeln!(
            out,
            "{{\"ev\":\"rx\",\"t_ns\":{t_ns},\"node\":{node},\"from\":{from},\"tx\":{tx},\"bytes\":{bytes}}}"
        ),
        TraceRecord::PacketDrop {
            t_ns,
            node,
            reason,
            tx,
        } => {
            write!(
                out,
                "{{\"ev\":\"drop\",\"t_ns\":{t_ns},\"node\":{node},\"reason\":\"{}\"",
                reason.name()
            )?;
            if let Some(tx) = tx {
                write!(out, ",\"tx\":{tx}")?;
            }
            writeln!(out, "}}")
        }
        TraceRecord::Collision { t_ns, node } => writeln!(
            out,
            "{{\"ev\":\"collision\",\"t_ns\":{t_ns},\"node\":{node}}}"
        ),
        TraceRecord::EnergyDebit {
            t_ns,
            node,
            state,
            joules,
        } => writeln!(
            out,
            "{{\"ev\":\"energy\",\"t_ns\":{t_ns},\"node\":{node},\"state\":\"{state}\",\"joules\":{joules}}}"
        ),
        TraceRecord::GradientReinforce {
            t_ns,
            node,
            from,
            kind,
        } => writeln!(
            out,
            "{{\"ev\":\"reinforce\",\"t_ns\":{t_ns},\"node\":{node},\"from\":{from},\"kind\":\"{kind}\"}}"
        ),
        TraceRecord::TreeEdge { t_ns, node, parent } => writeln!(
            out,
            "{{\"ev\":\"tree_edge\",\"t_ns\":{t_ns},\"node\":{node},\"parent\":{parent}}}"
        ),
        TraceRecord::AggMerge {
            t_ns,
            node,
            inputs,
            items,
            cost,
            lineage,
        } => writeln!(
            out,
            "{{\"ev\":\"agg_merge\",\"t_ns\":{t_ns},\"node\":{node},\"inputs\":{inputs},\"items\":{items},\"cost\":{cost},\"lineage\":\"{lineage}\"}}"
        ),
        TraceRecord::EventGen { t_ns, node, seq } => writeln!(
            out,
            "{{\"ev\":\"event_gen\",\"t_ns\":{t_ns},\"node\":{node},\"seq\":{seq}}}"
        ),
        TraceRecord::EventDeliver {
            t_ns,
            node,
            src,
            seq,
            gen_ns,
        } => writeln!(
            out,
            "{{\"ev\":\"deliver\",\"t_ns\":{t_ns},\"node\":{node},\"src\":{src},\"seq\":{seq},\"gen_ns\":{gen_ns}}}"
        ),
        TraceRecord::ItemDrop {
            t_ns,
            node,
            src,
            seq,
            reason,
        } => writeln!(
            out,
            "{{\"ev\":\"item_drop\",\"t_ns\":{t_ns},\"node\":{node},\"src\":{src},\"seq\":{seq},\"reason\":\"{}\"}}",
            reason.name()
        ),
        TraceRecord::RunMetrics {
            t_ns,
            generated,
            distinct,
            delay_sum_s,
            sinks,
            total_energy_j,
        } => writeln!(
            out,
            "{{\"ev\":\"metrics\",\"t_ns\":{t_ns},\"generated\":{generated},\"distinct\":{distinct},\"delay_sum_s\":{delay_sum_s},\"sinks\":{sinks},\"total_energy_j\":{total_energy_j}}}"
        ),
        TraceRecord::Profile {
            label,
            count,
            total_ns,
            max_ns,
        } => writeln!(
            out,
            "{{\"ev\":\"profile\",\"label\":\"{label}\",\"count\":{count},\"total_ns\":{total_ns},\"max_ns\":{max_ns}}}"
        ),
        TraceRecord::Snapshot {
            t_ns,
            node,
            energy_j,
            queue,
            cache,
        } => writeln!(
            out,
            "{{\"ev\":\"snapshot\",\"t_ns\":{t_ns},\"node\":{node},\"energy_j\":{energy_j},\"queue\":{queue},\"cache\":{cache}}}"
        ),
        TraceRecord::RunEnd {
            t_ns,
            events,
            total_energy_j,
        } => writeln!(
            out,
            "{{\"ev\":\"run_end\",\"t_ns\":{t_ns},\"events\":{events},\"total_energy_j\":{total_energy_j}}}"
        ),
    }
}

/// A `u64` of any digit count: small values and digit-count boundaries as
/// often as full-width ones.
fn int() -> impl Strategy<Value = u64> {
    (0u32..4, any::<u64>()).prop_map(|(width, v)| match width {
        0 => v % 10,
        1 => 10u64.pow((v % 20) as u32) - (v >> 63),
        2 => v >> (v % 64),
        _ => v,
    })
}

fn int32() -> impl Strategy<Value = u32> {
    int().prop_map(|v| v as u32)
}

/// Values that trip the edges of `Display` or of a memo slot.
fn special_floats() -> [f64; 14] {
    [
        0.0,
        -0.0,
        f64::from_bits(1),                     // smallest subnormal
        f64::from_bits(0x000F_FFFF_FFFF_FFFF), // largest subnormal
        f64::MIN_POSITIVE,
        1e300,
        1e-300,
        -1e300,
        f64::MAX,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        0.1,
        1.0 / 3.0,
    ]
}

/// An `f64`: from a repeating pool of debit-like joules, a special value, a
/// raw bit pattern, or a raw subnormal.
fn float() -> impl Strategy<Value = f64> {
    (0u32..6, any::<u64>()).prop_map(|(kind, bits)| {
        let specials = special_floats();
        match kind {
            0..=2 => (bits % POOL as u64 + 1) as f64 * 6.3e-5 / 7.0,
            3 => specials[(bits % specials.len() as u64) as usize],
            4 => f64::from_bits(bits),
            _ => f64::from_bits(bits & 0x800F_FFFF_FFFF_FFFF),
        }
    })
}

/// A lineage wire string (possibly empty).
fn lineage() -> impl Strategy<Value = String> {
    prop::collection::vec((int32(), int32()), 0..6)
        .prop_map(|ids| join_lineage(ids.into_iter().map(|(src, seq)| LineageId::new(src, seq))))
}

/// A record of any variant, with optional fields on or off.
fn record() -> impl Strategy<Value = TraceRecord> {
    (
        0usize..18,
        (int(), int(), int(), int32(), int32(), int32(), int32()),
        (float(), float()),
        (
            prop::option::of(int32()),
            prop::option::of(lineage()),
            prop::option::of(int()),
            lineage(),
        ),
        0usize..12,
    )
        .prop_map(
            |(variant, (a, b, c, x, y, z, w), (f, g), (dst, opt_lineage, opt_tx, lin), pick)| {
                match variant {
                    0 => TraceRecord::RunStart { seed: a, nodes: x },
                    1 => TraceRecord::Dispatch { t_ns: a, seq: b },
                    2 => TraceRecord::MacEnqueue {
                        t_ns: a,
                        node: x,
                        bytes: y,
                        dst,
                        lineage: opt_lineage,
                    },
                    3 => TraceRecord::PacketTx {
                        t_ns: a,
                        node: x,
                        tx: b,
                        kind: FRAME_KINDS[pick % FRAME_KINDS.len()],
                        bytes: y,
                        dst,
                        lineage: opt_lineage,
                    },
                    4 => TraceRecord::PacketRx {
                        t_ns: a,
                        node: x,
                        from: y,
                        tx: b,
                        bytes: z,
                    },
                    5 => TraceRecord::PacketDrop {
                        t_ns: a,
                        node: x,
                        reason: DropReason::ALL[pick % DropReason::ALL.len()],
                        tx: opt_tx,
                    },
                    6 => TraceRecord::Collision { t_ns: a, node: x },
                    7 => TraceRecord::EnergyDebit {
                        t_ns: a,
                        node: x,
                        state: ENERGY_STATES[pick % ENERGY_STATES.len()],
                        joules: f,
                    },
                    8 => TraceRecord::GradientReinforce {
                        t_ns: a,
                        node: x,
                        from: y,
                        kind: REINFORCE_KINDS[pick % REINFORCE_KINDS.len()],
                    },
                    9 => TraceRecord::TreeEdge {
                        t_ns: a,
                        node: x,
                        parent: y,
                    },
                    10 => TraceRecord::AggMerge {
                        t_ns: a,
                        node: x,
                        inputs: y,
                        items: z,
                        cost: f,
                        lineage: lin,
                    },
                    11 => TraceRecord::EventGen {
                        t_ns: a,
                        node: x,
                        seq: y,
                    },
                    12 => TraceRecord::EventDeliver {
                        t_ns: a,
                        node: x,
                        src: y,
                        seq: z,
                        gen_ns: b,
                    },
                    13 => TraceRecord::ItemDrop {
                        t_ns: a,
                        node: x,
                        src: y,
                        seq: z,
                        reason: DropReason::ALL[pick % DropReason::ALL.len()],
                    },
                    14 => TraceRecord::RunMetrics {
                        t_ns: a,
                        generated: b,
                        distinct: c,
                        delay_sum_s: f,
                        sinks: w,
                        total_energy_j: g,
                    },
                    15 => TraceRecord::Profile {
                        label: PROFILE_LABELS[pick % PROFILE_LABELS.len()].to_string(),
                        count: a,
                        total_ns: b,
                        max_ns: c,
                    },
                    16 => TraceRecord::Snapshot {
                        t_ns: a,
                        node: x,
                        energy_j: f,
                        queue: y,
                        cache: z,
                    },
                    _ => TraceRecord::RunEnd {
                        t_ns: a,
                        events: b,
                        total_energy_j: g,
                    },
                }
            },
        )
}

fn oracle_line(rec: &TraceRecord) -> String {
    let mut buf = Vec::new();
    oracle(rec, &mut buf).expect("writing to a Vec cannot fail");
    String::from_utf8(buf).expect("records are ASCII")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn jsonl_sink_bytes_equal_the_format_string_oracle(
        recs in prop::collection::vec(record(), 1..300),
    ) {
        let mut sink = JsonlSink::new(Vec::new());
        for rec in &recs {
            sink.record(rec);
        }
        prop_assert_eq!(sink.records(), recs.len() as u64);
        let bytes = sink.into_inner().expect("a Vec writer cannot fail");
        let text = String::from_utf8(bytes).expect("records are ASCII");
        let mut lines = text.split_inclusive('\n');
        for rec in &recs {
            let want = oracle_line(rec);
            prop_assert_eq!(lines.next(), Some(want.as_str()), "{:?}", rec);
            prop_assert_eq!(rec.to_json() + "\n", want, "to_json of {:?}", rec);
        }
        prop_assert_eq!(lines.next(), None);
    }
}

#[test]
fn one_value_alternating_with_its_evictors_stays_exact() {
    // The pool cycled twice in order: the second lap finds some values
    // still cached and others evicted by a later pool value.
    let mut sink = JsonlSink::new(Vec::new());
    let mut want = String::new();
    for i in (0..POOL).chain(0..POOL).chain([0, 0, 0]) {
        let rec = TraceRecord::EnergyDebit {
            t_ns: i as u64,
            node: 1,
            state: "rx",
            joules: (i as f64 + 1.0) * 6.3e-5 / 7.0,
        };
        sink.record(&rec);
        want.push_str(&oracle_line(&rec));
    }
    let got = String::from_utf8(sink.into_inner().unwrap()).unwrap();
    assert_eq!(got, want);
}
