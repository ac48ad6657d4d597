//! Executing a workload's jobs: plain (timed) passes, span passes and the
//! untimed trace-audit pass, each job reduced to a [`Digest`].

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::rc::Rc;
use std::time::Instant;

use wsn_core::{Experiment, MetricsSetup, RunJob, Runner, TraceSpec};
use wsn_diffusion::{DiffusionMetricIds, DiffusionNode, Role, Scheme};
use wsn_metrics::{MetricsRegistry, PaperMetrics, RunRecord};
use wsn_net::{MetricsOptions, NetMetricIds, Network, TraceOptions};
use wsn_trace::{shared, AuditReport, JsonlSink, SharedSink, TraceRecord};

use crate::layers::{
    elapsed_ns, fnv1a, AuditTap, ByteCount, Clocks, TimedNode, TimedSink, FNV_OFFSET,
};
use crate::workload::Workload;

/// What a run must reproduce exactly, whichever path executed it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    /// Simulator events dispatched.
    pub events: u64,
    /// FNV-1a over the bits of the four [`PaperMetrics`] fields.
    pub metrics_fnv: u64,
    /// JSONL trace bytes, on observed workloads.
    pub trace_bytes: Option<u64>,
}

impl Digest {
    pub fn new(m: &PaperMetrics, events: u64, trace_bytes: Option<u64>) -> Self {
        let mut h = FNV_OFFSET;
        for v in [
            m.avg_dissipated_energy,
            m.avg_activity_energy,
            m.avg_delay_s,
            m.delivery_ratio,
        ] {
            h = fnv1a(h, &v.to_bits().to_le_bytes());
        }
        Digest {
            events,
            metrics_fnv: h,
            trace_bytes,
        }
    }
}

/// One finished job of a plain pass.
#[derive(Debug, Clone)]
pub struct JobRun {
    pub digest: Digest,
    pub delivery_ratio: f64,
    pub job_ms: f64,
}

/// One timed pass over a workload's jobs.
#[derive(Debug)]
pub struct Pass<T> {
    pub wall_s: f64,
    /// One entry per job, in job order; `Err` names why the job failed.
    pub jobs: Vec<Result<T, String>>,
}

/// The order the runner takes a workload's jobs in: largest field first
/// (a stable sort, so both schemes of a pair stay adjacent). A pass then
/// ends on short jobs; in job order it ended with one worker finishing a
/// 350-node job alone, so pass time depended on the seed's job mix.
fn run_order(jobs: &[RunJob]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..jobs.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(jobs[i].spec.node_count));
    order
}

/// Runs `f` on the workload's runner over the jobs in [`run_order`],
/// timing the whole pass; results come back in job order. A panic fails
/// every job of the pass.
fn timed<T>(
    workload: Workload,
    jobs: &[RunJob],
    f: impl FnOnce(&Runner, &[RunJob]) -> Vec<Result<T, String>>,
) -> Pass<T> {
    let order = run_order(jobs);
    let ordered: Vec<RunJob> = order.iter().map(|&i| jobs[i].clone()).collect();
    let runner = Runner::new(workload.workers());
    let start = Instant::now();
    let out = catch_unwind(AssertUnwindSafe(|| f(&runner, &ordered)));
    let wall_s = start.elapsed().as_secs_f64();
    let mut slots: Vec<Option<Result<T, String>>> = jobs.iter().map(|_| None).collect();
    for (&i, r) in order.iter().zip(out.into_iter().flatten()) {
        slots[i] = Some(r);
    }
    let jobs = slots
        .into_iter()
        .map(|r| r.unwrap_or_else(|| Err("panicked".to_string())))
        .collect();
    Pass { wall_s, jobs }
}

/// The workload exactly as a user runs it: [`Runner::run`] for untraced
/// workloads; for the traced sweep, each job on the runner's workers with
/// the trace and the snapshot stream written into byte counters.
pub fn plain_pass(workload: Workload, jobs: &[RunJob]) -> Pass<JobRun> {
    if workload.observed() {
        return timed(workload, jobs, |runner, jobs| {
            runner.parallel_map(jobs, |_, job| observed_job(job))
        });
    }
    timed(workload, jobs, |runner, jobs| {
        runner
            .run(jobs)
            .into_iter()
            .map(|r| {
                r.map(|rep| JobRun {
                    digest: Digest::new(&rep.metrics, rep.accounting.events_processed, None),
                    delivery_ratio: rep.metrics.delivery_ratio,
                    job_ms: rep.wall_ms,
                })
                .map_err(|e| e.to_string())
            })
            .collect()
    })
}

/// The trace options of the traced workload: [`TraceSpec`]'s defaults.
fn trace_options() -> TraceOptions {
    TraceSpec::new(PathBuf::new()).options()
}

fn experiment(job: &RunJob) -> Experiment {
    let mut exp = Experiment::new(job.spec.clone(), job.scheme);
    exp.diffusion = job.config.clone();
    exp.diffusion.scheme = job.scheme;
    exp.net = job.net.clone();
    exp
}

fn budget(job: &RunJob) -> u64 {
    job.max_events.unwrap_or(u64::MAX)
}

fn observed_job(job: &RunJob) -> Result<JobRun, String> {
    let start = Instant::now();
    let bytes = ByteCount::default();
    let sink: SharedSink = shared(JsonlSink::new(bytes.clone()));
    let (outcome, _) = experiment(job)
        .run_budgeted_observed(
            budget(job),
            Some((sink, trace_options())),
            None,
            Some(MetricsSetup::to_writer(ByteCount::default())),
        )
        .map_err(|e| e.to_string())?;
    let metrics = outcome.record.metrics();
    Ok(JobRun {
        digest: Digest::new(
            &metrics,
            outcome.accounting.events_processed,
            Some(bytes.0.get()),
        ),
        delivery_ratio: metrics.delivery_ratio,
        job_ms: start.elapsed().as_secs_f64() * 1e3,
    })
}

/// The untimed validity pass of an observed workload: the same runs with
/// every trace byte hashed and replayed through [`wsn_trace::Auditor`].
pub fn audit_pass(workload: Workload, jobs: &[RunJob]) -> Pass<(Digest, u64, AuditReport)> {
    timed(workload, jobs, |runner, jobs| {
        runner.parallel_map(jobs, |_, job| {
            let tap = AuditTap::new();
            let sink: SharedSink = shared(JsonlSink::new(tap.clone()));
            let (outcome, _) = experiment(job)
                .run_budgeted_observed(
                    budget(job),
                    Some((sink, trace_options())),
                    None,
                    Some(MetricsSetup::in_memory()),
                )
                .map_err(|e| e.to_string())?;
            let st = Rc::try_unwrap(tap.0)
                .map_err(|_| "trace tap still shared after the run".to_string())?
                .into_inner();
            let digest = Digest::new(
                &outcome.record.metrics(),
                outcome.accounting.events_processed,
                Some(st.bytes),
            );
            Ok((digest, st.fnv, st.auditor.finish()))
        })
    })
}

/// Per-layer measurements of one job, from a span pass.
#[derive(Debug)]
pub struct SpanRun {
    pub digest: Digest,
    pub scheme_greedy: bool,
    pub delivery_ratio: f64,
    pub instantiate_ns: u64,
    pub run_ns: u64,
    pub protocol_ns: u64,
    /// Sink time inside `run_until_capped`.
    pub sink_run_ns: u64,
    /// Sink time in the whole job (including the trace close-out).
    pub sink_ns: u64,
    pub packet_calls: [u64; 6],
    pub packet_ns: [u64; 6],
    pub timer_calls: u64,
    pub timer_ns: u64,
    pub records: u64,
    pub trace_bytes: u64,
    pub snapshot_bytes: u64,
    pub field_retries: u64,
    pub topology_edges: u64,
    pub events: u64,
    pub frames_tx: u64,
    pub frames_rx: u64,
    pub collisions: u64,
    pub drops: u64,
    pub backoff_draws: u64,
    pub contention_stalls: u64,
}

/// Runs every job with the span wrappers on the workload's runner. With
/// `observe`, the JSONL trace and the metrics snapshot stream are on (the
/// traced workload's own setting); without, the registry records totals
/// only, which adds no simulator event.
pub fn span_pass(workload: Workload, jobs: &[RunJob], observe: bool) -> Pass<SpanRun> {
    timed(workload, jobs, |runner, jobs| {
        runner.parallel_map(jobs, |_, job| span_job(job, observe))
    })
}

fn span_job(job: &RunJob, observe: bool) -> Result<SpanRun, String> {
    let start = Instant::now();
    let instance = job.spec.instantiate();
    let instantiate_ns = elapsed_ns(start);

    let clocks = Rc::new(Clocks::default());
    let mut reg = MetricsRegistry::new();
    let net_ids = NetMetricIds::register(&mut reg, job.net.mac);
    let diff_ids = DiffusionMetricIds::register(&mut reg);
    let mut config = job.config.clone();
    config.scheme = job.scheme;
    let mut net = Network::new(
        instance.field.topology.clone(),
        job.net.clone(),
        job.spec.seed,
        |id| {
            let (is_source, is_sink) = instance.role_of(id);
            let node = DiffusionNode::new(config.clone(), id, Role { is_source, is_sink })
                .with_metrics(diff_ids);
            TimedNode::new(node, clocks.clone())
        },
    );
    for e in &instance.failure_events {
        if e.down {
            net.schedule_down(e.at, e.node);
        } else {
            net.schedule_up(e.at, e.node);
        }
    }
    let trace_bytes = ByteCount::default();
    let snapshot_bytes = ByteCount::default();
    let sink = observe.then(|| {
        Rc::new(std::cell::RefCell::new(TimedSink::new(
            trace_bytes.clone(),
            clocks.clone(),
        )))
    });
    if let Some(sink) = &sink {
        net.set_trace(sink.clone(), trace_options());
    }
    let (opts, out): (_, Option<Box<dyn std::io::Write>>) = if observe {
        (
            MetricsOptions::default(),
            Some(Box::new(snapshot_bytes.clone())),
        )
    } else {
        (
            MetricsOptions {
                snapshot_every: None,
                ..MetricsOptions::default()
            },
            None,
        )
    };
    net.install_metrics(reg, net_ids, opts, out);

    let start = Instant::now();
    net.run_until_capped(instance.end, budget(job))
        .map_err(|e| e.to_string())?;
    let run_ns = elapsed_ns(start);
    let sink_run_ns = clocks.sink.ns.get();

    let record = harvest(&net, &instance);
    let metrics = record.metrics();
    let events = net.accounting().events_processed;
    if let Some(sink) = &sink {
        // The same closing record `Experiment` writes, so the trace bytes
        // match the plain pass's.
        wsn_trace::TraceSink::record(
            &mut *sink.borrow_mut(),
            &TraceRecord::RunMetrics {
                t_ns: net.now().as_nanos(),
                generated: record.events_generated,
                distinct: record.distinct_events,
                delay_sum_s: record.delay_sum_s,
                sinks: record.sink_count as u32,
                total_energy_j: record.total_energy_j,
            },
        );
    }
    let reg = net
        .finish_metrics()
        .ok_or("metrics registry missing after the run")?;
    net.finish_trace().map_err(|e| e.to_string())?;

    let sum = |prefix: &str| -> u64 {
        reg.descs()
            .iter()
            .filter(|d| d.name.starts_with(prefix))
            .filter_map(|d| reg.counter_by_name(&d.name))
            .sum()
    };
    let topo = &instance.field.topology;
    let adjacency: usize = (0..topo.len())
        .map(|i| topo.neighbors(wsn_net::NodeId::from_index(i)).len())
        .sum();
    let observed_bytes = observe.then(|| trace_bytes.0.get());
    Ok(SpanRun {
        digest: Digest::new(&metrics, events, observed_bytes),
        scheme_greedy: job.scheme == Scheme::Greedy,
        delivery_ratio: metrics.delivery_ratio,
        instantiate_ns,
        run_ns,
        protocol_ns: clocks.protocol_ns(),
        sink_run_ns,
        sink_ns: clocks.sink.ns.get(),
        packet_calls: std::array::from_fn(|k| clocks.packet[k].calls.get()),
        packet_ns: std::array::from_fn(|k| clocks.packet[k].ns.get()),
        timer_calls: clocks.timer.calls.get(),
        timer_ns: clocks.timer.ns.get(),
        records: clocks.sink.calls.get(),
        trace_bytes: trace_bytes.0.get(),
        snapshot_bytes: snapshot_bytes.0.get(),
        field_retries: u64::from(instance.field.retries),
        topology_edges: (adjacency / 2) as u64,
        events,
        frames_tx: sum("phy.frames_tx{"),
        frames_rx: sum("phy.frames_rx"),
        collisions: sum("phy.collisions"),
        drops: sum("phy.drops{"),
        backoff_draws: sum("mac.backoff_draws"),
        contention_stalls: sum("mac.contention_stalls"),
    })
}

/// The counters `Experiment` harvests into a [`RunRecord`], read through
/// the span wrappers.
fn harvest(net: &Network<TimedNode>, instance: &wsn_scenario::ScenarioInstance) -> RunRecord {
    let mut distinct_events = 0;
    let mut delay_sum_s = 0.0;
    let mut events_generated = 0;
    for (_, node) in net.protocols() {
        let proto = &node.inner;
        if proto.role().is_sink {
            distinct_events += proto.sink.distinct;
            delay_sum_s += proto.sink.delay_sum_s;
        }
        if proto.role().is_source {
            events_generated += proto.events_generated;
        }
    }
    let stats = net.stats();
    RunRecord {
        node_count: instance.field.positions.len(),
        sink_count: instance.sinks.len(),
        duration_s: instance.end.as_secs_f64(),
        total_energy_j: net.total_energy(),
        activity_energy_j: net.total_activity_energy(),
        distinct_events,
        delay_sum_s,
        events_generated,
        tx_frames: stats.total_tx_frames(),
        tx_bytes: stats.total_tx_bytes(),
        collisions: stats.collisions,
    }
}
