//! Spans around the calls into each layer, kept in the benchmark's own code.
//!
//! [`TimedNode`] wraps every node's [`DiffusionNode`] and times each
//! protocol callback (the synchronous MAC enqueue done through `Ctx` falls
//! inside it). [`TimedSink`] wraps the JSONL trace sink and times each
//! record. Both add into one per-run [`Clocks`]; protocol time is kept as
//! self time, with the sink time spent inside a callback subtracted.

use std::cell::{Cell, RefCell};
use std::io::{self, Write};
use std::rc::Rc;
use std::time::Instant;

use wsn_diffusion::{DiffMsg, DiffTimer, DiffusionNode, MsgKind};
use wsn_net::{Ctx, NodeId, Packet, Protocol};
use wsn_trace::{Auditor, JsonlSink, TraceRecord, TraceSink};

/// Names of the six message kinds, in [`MsgKind::ALL`] order.
pub const KIND_NAMES: [&str; 6] = [
    "interest",
    "exploratory",
    "data",
    "incremental_cost",
    "reinforce",
    "negative_reinforce",
];

/// Position of `kind` in [`MsgKind::ALL`], the per-kind span arrays' order.
pub fn kind_index(kind: MsgKind) -> usize {
    MsgKind::ALL
        .iter()
        .position(|&k| k == kind)
        .expect("MsgKind::ALL lists every kind")
}

/// Call count and summed nanoseconds of one span kind.
#[derive(Debug, Default)]
pub struct Span {
    pub calls: Cell<u64>,
    pub ns: Cell<u64>,
}

impl Span {
    fn add(&self, ns: u64) {
        self.calls.set(self.calls.get() + 1);
        self.ns.set(self.ns.get() + ns);
    }
}

/// One run's span accumulators (single-threaded, like the run itself).
#[derive(Debug, Default)]
pub struct Clocks {
    /// `on_packet`, per message kind.
    pub packet: [Span; 6],
    /// `on_timer`.
    pub timer: Span,
    /// `on_start`, `on_down`, `on_up` and `on_unicast_failed`.
    pub other: Span,
    /// Trace-sink `record` calls.
    pub sink: Span,
}

impl Clocks {
    /// Protocol self time: every callback, less the sink time inside them.
    pub fn protocol_ns(&self) -> u64 {
        self.packet.iter().map(|s| s.ns.get()).sum::<u64>()
            + self.timer.ns.get()
            + self.other.ns.get()
    }

    /// Times `f` into `span`, net of the sink time `f` spends.
    fn time<R>(&self, span: &Span, f: impl FnOnce() -> R) -> R {
        let sink_before = self.sink.ns.get();
        let start = Instant::now();
        let out = f();
        let ns = elapsed_ns(start);
        span.add(ns.saturating_sub(self.sink.ns.get() - sink_before));
        out
    }
}

pub fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// A [`DiffusionNode`] whose callbacks are timed into shared [`Clocks`].
#[derive(Debug)]
pub struct TimedNode {
    pub inner: DiffusionNode,
    clocks: Rc<Clocks>,
}

impl TimedNode {
    pub fn new(inner: DiffusionNode, clocks: Rc<Clocks>) -> Self {
        TimedNode { inner, clocks }
    }
}

type DCtx<'a> = Ctx<'a, DiffMsg, DiffTimer>;

impl Protocol for TimedNode {
    type Msg = DiffMsg;
    type Timer = DiffTimer;

    fn on_start(&mut self, ctx: &mut DCtx<'_>) {
        let (inner, clocks) = (&mut self.inner, &self.clocks);
        clocks.time(&clocks.other, || inner.on_start(ctx));
    }

    fn on_packet(&mut self, ctx: &mut DCtx<'_>, packet: &Packet<DiffMsg>) {
        let (inner, clocks) = (&mut self.inner, &self.clocks);
        let span = &clocks.packet[kind_index(packet.payload.kind())];
        clocks.time(span, || inner.on_packet(ctx, packet));
    }

    fn on_timer(&mut self, ctx: &mut DCtx<'_>, timer: DiffTimer) {
        let (inner, clocks) = (&mut self.inner, &self.clocks);
        clocks.time(&clocks.timer, || inner.on_timer(ctx, timer));
    }

    fn on_down(&mut self, ctx: &mut DCtx<'_>) {
        let (inner, clocks) = (&mut self.inner, &self.clocks);
        clocks.time(&clocks.other, || inner.on_down(ctx));
    }

    fn on_up(&mut self, ctx: &mut DCtx<'_>) {
        let (inner, clocks) = (&mut self.inner, &self.clocks);
        clocks.time(&clocks.other, || inner.on_up(ctx));
    }

    fn on_unicast_failed(&mut self, ctx: &mut DCtx<'_>, to: NodeId, msg: &DiffMsg) {
        let (inner, clocks) = (&mut self.inner, &self.clocks);
        clocks.time(&clocks.other, || inner.on_unicast_failed(ctx, to, msg));
    }

    fn cache_size(&self) -> usize {
        self.inner.cache_size()
    }
}

/// A JSONL sink into an in-process byte counter, each record timed.
pub struct TimedSink {
    inner: JsonlSink<ByteCount>,
    clocks: Rc<Clocks>,
}

impl TimedSink {
    pub fn new(bytes: ByteCount, clocks: Rc<Clocks>) -> Self {
        TimedSink {
            inner: JsonlSink::new(bytes),
            clocks,
        }
    }
}

impl TraceSink for TimedSink {
    fn record(&mut self, rec: &TraceRecord) {
        let start = Instant::now();
        self.inner.record(rec);
        self.clocks.sink.add(elapsed_ns(start));
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// A writer that keeps only the number of bytes written to it, so trace
/// and snapshot output cost serialization and no disk.
#[derive(Debug, Clone, Default)]
pub struct ByteCount(pub Rc<Cell<u64>>);

impl Write for ByteCount {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.set(self.0.get() + buf.len() as u64);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// 64-bit FNV-1a, continued from `hash`.
pub fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// What [`AuditTap`] saw of one trace.
#[derive(Debug)]
pub struct AuditState {
    pub bytes: u64,
    pub fnv: u64,
    pub auditor: Auditor,
    line: Vec<u8>,
}

/// A writer that hashes a trace and feeds it line by line to
/// [`wsn_trace::Auditor`], for the untimed validity pass.
#[derive(Debug, Clone)]
pub struct AuditTap(pub Rc<RefCell<AuditState>>);

impl AuditTap {
    pub fn new() -> Self {
        AuditTap(Rc::new(RefCell::new(AuditState {
            bytes: 0,
            fnv: FNV_OFFSET,
            auditor: Auditor::new(),
            line: Vec::new(),
        })))
    }
}

impl Write for AuditTap {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let mut st = self.0.borrow_mut();
        st.bytes += buf.len() as u64;
        st.fnv = fnv1a(st.fnv, buf);
        for &b in buf {
            if b == b'\n' {
                let line = std::mem::take(&mut st.line);
                let text = std::str::from_utf8(&line)
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
                st.auditor.add_line(text);
                st.line = line;
                st.line.clear();
            } else {
                st.line.push(b);
            }
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}
