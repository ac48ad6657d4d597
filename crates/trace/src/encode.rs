//! The NDJSON line encoder behind [`crate::JsonlSink`] and
//! [`TraceRecord::write_jsonl`].
//!
//! A trace line is a flat JSON object, so encoding one is a sequence of
//! appends into a reused byte buffer: literal key bytes, integer digits,
//! `&str` values copied as-is, and `f64` values as their `Display` text.
//! The encoder writes integers by hand and serves `f64` text from a small
//! memo, so the common record never goes through `core::fmt`.
//!
//! **Why a memo pays.** Most lines are `energy` debits, and debits repeat:
//! every hearer of one frame closes an rx interval of the same length at
//! the same power, and idle and tx intervals recur with the protocol's fixed
//! timers. A 64-slot direct-mapped table keyed by the value's bits serves
//! most of them from a copy of the text `Display` produced the first time.
//! A miss formats with `Display` and keeps the text if it fits a slot, so
//! the output is `Display`'s shortest-round-trip text either way.

use std::fmt;
use std::io::Write;

use crate::record::{TraceRecord, SCHEMA_VERSION};

/// log2 of the memo's slot count: a slot index is the top `MEMO_BITS` bits
/// of a multiplicative hash of the value's bits.
const MEMO_BITS: u32 = 6;
const MEMO_SLOTS: usize = 1 << MEMO_BITS;

/// Longest `f64` text a slot holds. Joules and seconds in this simulator
/// print in at most ~24 bytes; longer texts (`1e300` prints 301 digits) are
/// formatted on every use instead of cached.
const SLOT_TEXT: usize = 32;

/// `"00" "01" … "99"`: two decimal digits per lookup.
const DIGIT_PAIRS: [u8; 200] = {
    let mut t = [0u8; 200];
    let mut i = 0;
    while i < 100 {
        t[2 * i] = b'0' + (i / 10) as u8;
        t[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    t
};

/// One cached `f64` text. `len == 0` marks an empty slot (no `Display`
/// text is empty).
#[derive(Clone, Copy)]
struct MemoSlot {
    bits: u64,
    len: u8,
    text: [u8; SLOT_TEXT],
}

const EMPTY_SLOT: MemoSlot = MemoSlot {
    bits: 0,
    len: 0,
    text: [0; SLOT_TEXT],
};

/// Encodes [`TraceRecord`]s into one reused line buffer.
pub(crate) struct LineEncoder {
    line: Vec<u8>,
    memo: [MemoSlot; MEMO_SLOTS],
}

impl fmt::Debug for LineEncoder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LineEncoder")
            .field("line_capacity", &self.line.capacity())
            .finish_non_exhaustive()
    }
}

impl LineEncoder {
    /// An encoder with an empty line buffer and an empty memo.
    pub(crate) fn new() -> Self {
        LineEncoder {
            line: Vec::new(),
            memo: [EMPTY_SLOT; MEMO_SLOTS],
        }
    }

    /// The record as one NDJSON line, trailing `\n` included. The slice
    /// borrows the encoder's buffer and is overwritten by the next call.
    pub(crate) fn encode(&mut self, rec: &TraceRecord) -> &[u8] {
        self.line.clear();
        self.raw(b"{\"ev\":\"");
        self.raw(rec.tag().as_bytes());
        self.raw(b"\"");
        match rec {
            TraceRecord::RunStart { seed, nodes } => {
                self.uint(b",\"v\":", u64::from(SCHEMA_VERSION));
                self.uint(b",\"seed\":", *seed);
                self.uint(b",\"nodes\":", u64::from(*nodes));
            }
            TraceRecord::Dispatch { t_ns, seq } => {
                self.uint(b",\"t_ns\":", *t_ns);
                self.uint(b",\"seq\":", *seq);
            }
            TraceRecord::MacEnqueue {
                t_ns,
                node,
                bytes,
                dst,
                lineage,
            } => {
                self.uint(b",\"t_ns\":", *t_ns);
                self.uint(b",\"node\":", u64::from(*node));
                self.uint(b",\"bytes\":", u64::from(*bytes));
                if let Some(d) = dst {
                    self.uint(b",\"dst\":", u64::from(*d));
                }
                if let Some(l) = lineage {
                    self.text(b",\"lineage\":\"", l);
                }
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
                self.uint(b",\"t_ns\":", *t_ns);
                self.uint(b",\"node\":", u64::from(*node));
                self.uint(b",\"tx\":", *tx);
                self.text(b",\"kind\":\"", kind);
                self.uint(b",\"bytes\":", u64::from(*bytes));
                if let Some(d) = dst {
                    self.uint(b",\"dst\":", u64::from(*d));
                }
                if let Some(l) = lineage {
                    self.text(b",\"lineage\":\"", l);
                }
            }
            TraceRecord::PacketRx {
                t_ns,
                node,
                from,
                tx,
                bytes,
            } => {
                self.uint(b",\"t_ns\":", *t_ns);
                self.uint(b",\"node\":", u64::from(*node));
                self.uint(b",\"from\":", u64::from(*from));
                self.uint(b",\"tx\":", *tx);
                self.uint(b",\"bytes\":", u64::from(*bytes));
            }
            TraceRecord::PacketDrop {
                t_ns,
                node,
                reason,
                tx,
            } => {
                self.uint(b",\"t_ns\":", *t_ns);
                self.uint(b",\"node\":", u64::from(*node));
                self.text(b",\"reason\":\"", reason.name());
                if let Some(tx) = tx {
                    self.uint(b",\"tx\":", *tx);
                }
            }
            TraceRecord::Collision { t_ns, node } => {
                self.uint(b",\"t_ns\":", *t_ns);
                self.uint(b",\"node\":", u64::from(*node));
            }
            TraceRecord::EnergyDebit {
                t_ns,
                node,
                state,
                joules,
            } => {
                self.uint(b",\"t_ns\":", *t_ns);
                self.uint(b",\"node\":", u64::from(*node));
                self.text(b",\"state\":\"", state);
                self.float(b",\"joules\":", *joules);
            }
            TraceRecord::GradientReinforce {
                t_ns,
                node,
                from,
                kind,
            } => {
                self.uint(b",\"t_ns\":", *t_ns);
                self.uint(b",\"node\":", u64::from(*node));
                self.uint(b",\"from\":", u64::from(*from));
                self.text(b",\"kind\":\"", kind);
            }
            TraceRecord::TreeEdge { t_ns, node, parent } => {
                self.uint(b",\"t_ns\":", *t_ns);
                self.uint(b",\"node\":", u64::from(*node));
                self.uint(b",\"parent\":", u64::from(*parent));
            }
            TraceRecord::AggMerge {
                t_ns,
                node,
                inputs,
                items,
                cost,
                lineage,
            } => {
                self.uint(b",\"t_ns\":", *t_ns);
                self.uint(b",\"node\":", u64::from(*node));
                self.uint(b",\"inputs\":", u64::from(*inputs));
                self.uint(b",\"items\":", u64::from(*items));
                self.float(b",\"cost\":", *cost);
                self.text(b",\"lineage\":\"", lineage);
            }
            TraceRecord::EventGen { t_ns, node, seq } => {
                self.uint(b",\"t_ns\":", *t_ns);
                self.uint(b",\"node\":", u64::from(*node));
                self.uint(b",\"seq\":", u64::from(*seq));
            }
            TraceRecord::EventDeliver {
                t_ns,
                node,
                src,
                seq,
                gen_ns,
            } => {
                self.uint(b",\"t_ns\":", *t_ns);
                self.uint(b",\"node\":", u64::from(*node));
                self.uint(b",\"src\":", u64::from(*src));
                self.uint(b",\"seq\":", u64::from(*seq));
                self.uint(b",\"gen_ns\":", *gen_ns);
            }
            TraceRecord::ItemDrop {
                t_ns,
                node,
                src,
                seq,
                reason,
            } => {
                self.uint(b",\"t_ns\":", *t_ns);
                self.uint(b",\"node\":", u64::from(*node));
                self.uint(b",\"src\":", u64::from(*src));
                self.uint(b",\"seq\":", u64::from(*seq));
                self.text(b",\"reason\":\"", reason.name());
            }
            TraceRecord::RunMetrics {
                t_ns,
                generated,
                distinct,
                delay_sum_s,
                sinks,
                total_energy_j,
            } => {
                self.uint(b",\"t_ns\":", *t_ns);
                self.uint(b",\"generated\":", *generated);
                self.uint(b",\"distinct\":", *distinct);
                self.float(b",\"delay_sum_s\":", *delay_sum_s);
                self.uint(b",\"sinks\":", u64::from(*sinks));
                self.float(b",\"total_energy_j\":", *total_energy_j);
            }
            TraceRecord::Profile {
                label,
                count,
                total_ns,
                max_ns,
            } => {
                self.text(b",\"label\":\"", label);
                self.uint(b",\"count\":", *count);
                self.uint(b",\"total_ns\":", *total_ns);
                self.uint(b",\"max_ns\":", *max_ns);
            }
            TraceRecord::Snapshot {
                t_ns,
                node,
                energy_j,
                queue,
                cache,
            } => {
                self.uint(b",\"t_ns\":", *t_ns);
                self.uint(b",\"node\":", u64::from(*node));
                self.float(b",\"energy_j\":", *energy_j);
                self.uint(b",\"queue\":", u64::from(*queue));
                self.uint(b",\"cache\":", u64::from(*cache));
            }
            TraceRecord::RunEnd {
                t_ns,
                events,
                total_energy_j,
            } => {
                self.uint(b",\"t_ns\":", *t_ns);
                self.uint(b",\"events\":", *events);
                self.float(b",\"total_energy_j\":", *total_energy_j);
            }
        }
        self.raw(b"}\n");
        &self.line
    }

    fn raw(&mut self, bytes: &[u8]) {
        self.line.extend_from_slice(bytes);
    }

    /// `key` then `v` in decimal.
    fn uint(&mut self, key: &[u8], mut v: u64) {
        self.raw(key);
        let mut buf = [0u8; 20];
        let mut i = buf.len();
        while v >= 100 {
            let pair = (v % 100) as usize * 2;
            v /= 100;
            i -= 2;
            buf[i..i + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
        }
        if v >= 10 {
            let pair = v as usize * 2;
            i -= 2;
            buf[i..i + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
        } else {
            i -= 1;
            buf[i] = b'0' + v as u8;
        }
        self.raw(&buf[i..]);
    }

    /// `key` then `v` in quotes, copied as-is (trace strings are labels and
    /// lineage ids, which need no escaping).
    fn text(&mut self, key: &[u8], v: &str) {
        self.raw(key);
        self.raw(v.as_bytes());
        self.raw(b"\"");
    }

    /// `key` then `v`'s `Display` text, from the memo when it holds `v`.
    fn float(&mut self, key: &[u8], v: f64) {
        self.raw(key);
        let bits = v.to_bits();
        let slot =
            &mut self.memo[(bits.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - MEMO_BITS)) as usize];
        if slot.len != 0 && slot.bits == bits {
            self.line
                .extend_from_slice(&slot.text[..usize::from(slot.len)]);
            return;
        }
        let start = self.line.len();
        write!(self.line, "{v}").expect("writing to a Vec cannot fail");
        let text = &self.line[start..];
        if text.len() <= SLOT_TEXT {
            slot.bits = bits;
            slot.len = text.len() as u8;
            slot.text[..text.len()].copy_from_slice(text);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn energy(joules: f64) -> TraceRecord {
        TraceRecord::EnergyDebit {
            t_ns: 1,
            node: 2,
            state: "rx",
            joules,
        }
    }

    #[test]
    fn memo_hits_repeat_the_display_text() {
        let mut enc = LineEncoder::new();
        for v in [0.1, 6.3e-5, -0.0, 0.1, 6.3e-5, -0.0, 0.0, f64::MIN_POSITIVE] {
            let line = String::from_utf8(enc.encode(&energy(v)).to_vec()).unwrap();
            assert!(line.ends_with(&format!(",\"joules\":{v}}}\n")), "{line}");
        }
        assert!(enc
            .memo
            .iter()
            .any(|s| s.len != 0 && s.bits == 0.1f64.to_bits()));
    }

    #[test]
    fn long_texts_are_never_cached() {
        let mut enc = LineEncoder::new();
        for v in [1e300, 1e-300, 1e300] {
            let line = String::from_utf8(enc.encode(&energy(v)).to_vec()).unwrap();
            assert!(line.ends_with(&format!(",\"joules\":{v}}}\n")), "{line}");
        }
        assert!(enc.memo.iter().all(|s| s.len == 0));
    }
}
