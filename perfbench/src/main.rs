//! End-to-end and per-layer benchmark of the WSN aggregation simulator.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload density_sweep --seed 7 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` times untraced passes and reports the end-to-end metrics;
//! `--trace 1` adds span passes and reports the per-layer metrics. Without
//! `--trace` both are printed. The last stdout line is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. Every run is checked
//! against the digests in `reference.txt`. For a seed outside the recorded
//! ones, an untimed pass of a recorded seed is checked against them, and
//! the seed's own passes must reproduce its first pass. The sweeps'
//! end-to-end timings are rescaled to a nominal host speed with the probe
//! in `probe.rs`.

mod layers;
mod probe;
mod report;
mod runs;
mod workload;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use wsn_core::{peak_rss_kb, RunJob};
use wsn_diffusion::{MsgKind, Scheme};
use wsn_scenario::ScenarioSpec;

use crate::layers::{kind_index, KIND_NAMES};
use crate::report::{median, result_json, table, Metric};
use crate::runs::{audit_pass, plain_pass, span_pass, Digest, JobRun, Pass, SpanRun};
use crate::workload::Workload;

const USAGE: &str = "\
usage: wsn-perfbench [--workload NAME[,NAME...]|all] [--seed N] [--seconds S]
                     [--trace 0|1] [--emit-reference]

workloads: density_sweep, scale_10k, traced_sweep (default: all)
--seed N          input seed (default 1)
--seconds S       how long the timed passes of each workload run (default 10)
--trace 0|1       0: end-to-end metrics from untraced passes;
                  1: per-layer metrics from span passes (default: both)
--emit-reference  print reference digests for the seed instead of timing";

/// `reference.txt` records seeds `0..RECORDED_SEEDS` of every workload.
const RECORDED_SEEDS: u64 = 21;

/// Seeds whose scenarios one `setup_s` repetition instantiates, so that a
/// seed's field-retry count weighs little in the median.
const SETUP_SEEDS: u64 = 8;
/// Host seconds of `setup_s` repetitions after each timed pass, so that
/// the samples see the host at as many moments as the passes do ...
const SETUP_SLICE_S: f64 = 0.1;
/// ... and at least this many repetitions in all.
const SETUP_MIN_REPS: usize = 9;

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    emit_reference: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workloads: Workload::ALL.to_vec(),
        seed: 1,
        seconds: 10.0,
        trace: None,
        emit_reference: false,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                args.workloads = if v == "all" {
                    Workload::ALL.to_vec()
                } else {
                    v.split(',')
                        .map(|n| Workload::from_name(n).ok_or(format!("unknown workload {n:?}")))
                        .collect::<Result<_, _>>()?
                };
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {s}"));
                }
                args.seconds = s;
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                })
            }
            "--emit-reference" => args.emit_reference = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("error: {msg}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.emit_reference {
        return emit_reference(&args);
    }
    let modes: Vec<bool> = match args.trace {
        Some(t) => vec![t],
        None => vec![false, true],
    };
    let prefix = args.workloads.len() > 1;
    let mut total = Outcome::default();
    for &w in &args.workloads {
        for &traced in &modes {
            let out = run_workload(w, args.seed, args.seconds, traced);
            let title = format!(
                "{} seed {} ({}, reference: {})",
                w.name(),
                args.seed,
                if traced { "per-layer" } else { "end-to-end" },
                if out.recorded {
                    "recorded".to_string()
                } else {
                    format!(
                        "first pass, recorded seed {} checked",
                        anchor_seed(args.seed)
                    )
                }
            );
            println!("{}", table(&title, &out.metrics));
            for line in &out.notes {
                println!("{line}");
            }
            total.attempted += out.attempted;
            total.failed += out.failed;
            total.invalid |= out.invalid;
            total.metrics.extend(out.metrics.into_iter().map(|mut m| {
                if prefix {
                    m.name = format!("{}/{}", w.name(), m.name);
                }
                m
            }));
        }
    }
    let correct = total.failed == 0 && !total.invalid;
    println!(
        "{}",
        result_json(correct, total.attempted, total.failed, &total.metrics)
    );
    ExitCode::SUCCESS
}

#[derive(Default)]
struct Outcome {
    metrics: Vec<Metric>,
    notes: Vec<String>,
    attempted: u64,
    failed: u64,
    /// A workload validity check failed (the runs themselves may match).
    invalid: bool,
    /// The seed's references come from `reference.txt`; otherwise from its
    /// first timed pass.
    recorded: bool,
}

impl Outcome {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        self.notes.push(format!("FAILED: {why}"));
    }

    fn invalid(&mut self, why: String) {
        self.invalid = true;
        self.notes.push(format!("INVALID: {why}"));
    }
}

/// A recorded (or first-pass) reference for one job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Reference {
    digest: Digest,
    trace_fnv: Option<u64>,
}

fn recorded_reference(w: Workload, seed: u64, jobs: usize) -> Option<Vec<Reference>> {
    let mut refs = vec![None; jobs];
    for line in include_str!("../reference.txt").lines() {
        let f: Vec<&str> = line.split_whitespace().collect();
        if f.is_empty() || f[0].starts_with('#') || f[0] != w.name() || f[1] != seed.to_string() {
            continue;
        }
        let job: usize = f[2].parse().expect("reference.txt: job index");
        let hex = |s: &str| u64::from_str_radix(s, 16).expect("reference.txt: hex digest");
        refs[job] = Some(Reference {
            digest: Digest {
                events: f[3].parse().expect("reference.txt: events"),
                metrics_fnv: hex(f[4]),
                trace_bytes: f
                    .get(5)
                    .map(|b| b.parse().expect("reference.txt: trace bytes")),
            },
            trace_fnv: f.get(6).map(|h| hex(h)),
        });
    }
    refs.into_iter().collect()
}

fn job_label(job: &RunJob) -> String {
    format!(
        "{} nodes, field {}, {}",
        job.point_x, job.field_index, job.scheme
    )
}

/// Checks one pass's digests against the reference, counting attempts and
/// failures.
fn check<T>(
    out: &mut Outcome,
    what: &str,
    jobs: &[RunJob],
    pass: &Pass<T>,
    refs: &[Option<Reference>],
    digest: impl Fn(&T) -> Digest,
) {
    for ((job, res), r) in jobs.iter().zip(&pass.jobs).zip(refs) {
        out.attempted += 1;
        match (res, r) {
            (Err(e), _) => out.fail(format!("{what} {}: {e}", job_label(job))),
            (Ok(_), None) => out.fail(format!("{what} {}: no reference", job_label(job))),
            (Ok(run), Some(r)) => {
                let got = digest(run);
                if got != r.digest {
                    out.fail(format!(
                        "{what} {}: digest {:?} differs from reference {:?}",
                        job_label(job),
                        got,
                        r.digest
                    ));
                }
            }
        }
    }
}

/// Validity of the span-pass runs: every run delivers, and greedy on the
/// large field builds its incremental-cost tree.
fn check_spans(out: &mut Outcome, w: Workload, jobs: &[RunJob], pass: &Pass<SpanRun>) {
    let ic = kind_index(MsgKind::IncrementalCost);
    for (job, run) in jobs.iter().zip(&pass.jobs) {
        let Ok(run) = run else { continue };
        if run.delivery_ratio <= 0.0 {
            out.invalid(format!("{}: delivery ratio 0", job_label(job)));
        }
        if w == Workload::Scale10k && run.scheme_greedy && run.packet_calls[ic] == 0 {
            out.invalid(format!("{}: no IncrementalCost message", job_label(job)));
        }
    }
}

/// Runs the audit pass and checks trace hashes and auditor verdicts;
/// returns each job's trace hash.
fn check_audit(
    out: &mut Outcome,
    w: Workload,
    jobs: &[RunJob],
    refs: &[Option<Reference>],
) -> Vec<Option<u64>> {
    let pass = audit_pass(w, jobs);
    check(out, "audit pass", jobs, &pass, refs, |(d, _, _)| *d);
    for ((job, res), r) in jobs.iter().zip(&pass.jobs).zip(refs) {
        let Ok((_, fnv, report)) = res else { continue };
        if let Some(want) = r.and_then(|r| r.trace_fnv) {
            if *fnv != want {
                out.fail(format!(
                    "audit pass {}: trace hash {fnv:016x} != {want:016x}",
                    job_label(job)
                ));
            }
        }
        if !report.ok() {
            out.invalid(format!(
                "{}: {} audit violations\n{}",
                job_label(job),
                report.violations.len(),
                report.render()
            ));
        }
    }
    out.notes.push(format!(
        "trace audit: {} traces replayed, {} violations ({:.1}s, untimed)",
        pass.jobs.iter().filter(|r| r.is_ok()).count(),
        pass.jobs
            .iter()
            .flatten()
            .map(|(_, _, r)| r.violations.len())
            .sum::<usize>(),
        pass.wall_s
    ));
    pass.jobs
        .iter()
        .map(|r| r.as_ref().ok().map(|(_, fnv, _)| *fnv))
        .collect()
}

/// The recorded seed that stands in for an unrecorded one.
fn anchor_seed(seed: u64) -> u64 {
    seed % RECORDED_SEEDS
}

/// Checks the program itself when `seed` has no recorded references: an
/// untimed plain pass of a recorded seed must reproduce `reference.txt`.
/// The seed's own passes can then only be checked against each other.
fn check_anchor(out: &mut Outcome, w: Workload, seed: u64) {
    let anchor = anchor_seed(seed);
    let jobs = w.jobs(anchor);
    let Some(refs) = recorded_reference(w, anchor, jobs.len()) else {
        out.invalid(format!("reference.txt has no seed {anchor}"));
        return;
    };
    let refs: Vec<Option<Reference>> = refs.into_iter().map(Some).collect();
    let pass = plain_pass(w, &jobs);
    check(
        out,
        &format!("recorded seed {anchor}"),
        &jobs,
        &pass,
        &refs,
        |r| r.digest,
    );
    out.notes.push(format!(
        "seed {seed} is not recorded: recorded seed {anchor} checked ({:.1}s, untimed)",
        pass.wall_s
    ));
}

/// The scenarios one `setup_s` repetition instantiates: the workload's
/// distinct scenarios (both schemes of a pair share one) for each of
/// [`SETUP_SEEDS`] seeds derived from `seed`.
fn setup_specs(w: Workload, seed: u64) -> Vec<ScenarioSpec> {
    (0..SETUP_SEEDS)
        .flat_map(|i| w.jobs(seed.wrapping_mul(SETUP_SEEDS).wrapping_add(i)))
        .filter(|j| j.scheme == Scheme::Greedy)
        .map(|j| j.spec)
        .collect()
}

/// Adds `setup_s` samples, host seconds in `ScenarioSpec::instantiate` per
/// seed's set of scenarios, until `slice_s` has elapsed (at least one).
fn setup_slice(specs: &[ScenarioSpec], slice_s: f64, samples: &mut Vec<f64>) {
    let start = Instant::now();
    loop {
        let rep = Instant::now();
        for spec in specs {
            std::hint::black_box(spec.instantiate());
        }
        samples.push(rep.elapsed().as_secs_f64() / SETUP_SEEDS as f64);
        if start.elapsed().as_secs_f64() >= slice_s {
            return;
        }
    }
}

fn run_workload(w: Workload, seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    let jobs = w.jobs(seed);
    let mut refs: Option<Vec<Option<Reference>>> =
        recorded_reference(w, seed, jobs.len()).map(|refs| refs.into_iter().map(Some).collect());
    out.recorded = refs.is_some();
    if !out.recorded {
        check_anchor(&mut out, w, seed);
    }
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut plain: Vec<Pass<JobRun>> = Vec::new();
    let mut spans: Vec<Pass<SpanRun>> = Vec::new();
    // The host-speed probe's seconds before the first plain pass and
    // after every one.
    let mut probes = vec![probe::seconds()];
    let specs = setup_specs(w, seed);
    let mut setup = Vec::new();
    while plain.is_empty() || start.elapsed() < budget {
        let pass = plain_pass(w, &jobs);
        probes.push(probe::seconds());
        if !traced {
            setup_slice(&specs, SETUP_SLICE_S, &mut setup);
        }
        let refs = refs.get_or_insert_with(|| {
            for (job, run) in jobs.iter().zip(pass.jobs.iter()) {
                if matches!(run, Ok(r) if r.delivery_ratio <= 0.0) {
                    out.invalid(format!("{}: delivery ratio 0", job_label(job)));
                }
            }
            pass.jobs
                .iter()
                .map(|r| {
                    r.as_ref().ok().map(|r| Reference {
                        digest: r.digest,
                        trace_fnv: None,
                    })
                })
                .collect()
        });
        check(&mut out, "timed pass", &jobs, &pass, refs, |r| r.digest);
        plain.push(pass);
        if traced {
            let pass = span_pass(w, &jobs, w.observed());
            check(&mut out, "span pass", &jobs, &pass, refs, |r| r.digest);
            check_spans(&mut out, w, &jobs, &pass);
            spans.push(pass);
        }
    }
    // The audit replays every trace byte, slower than the runs themselves;
    // recorded references passed it, and every `--trace 1` run repeats it.
    if w.observed() && traced {
        check_audit(&mut out, w, &jobs, refs.as_deref().unwrap_or_default());
    }
    out.metrics = if traced {
        per_layer(&mut out.notes, w, &jobs, &plain, &spans, &probes)
    } else {
        while setup.len() < SETUP_MIN_REPS {
            setup_slice(&specs, 0.0, &mut setup);
        }
        end_to_end(w, &jobs, &setup, &plain, &probes)
    };
    let walls: Vec<String> = plain.iter().map(|p| format!("{:.3}", p.wall_s)).collect();
    out.notes
        .push(format!("timed passes, raw host s: {}", walls.join(" ")));
    let probed: Vec<String> = probes.iter().map(|p| format!("{p:.3}")).collect();
    out.notes.push(format!(
        "host probe (s, nominal {}): {}",
        probe::NOMINAL_S,
        probed.join(" ")
    ));
    out
}

fn end_to_end(
    w: Workload,
    jobs: &[RunJob],
    setup: &[f64],
    plain: &[Pass<JobRun>],
    probes: &[f64],
) -> Vec<Metric> {
    let scale = if w.rescaled() {
        probe::NOMINAL_S / median(probes)
    } else {
        1.0
    };
    let walls: Vec<f64> = plain.iter().map(|p| p.wall_s * scale).collect();
    let setup: Vec<f64> = setup.iter().map(|s| s * scale).collect();
    let node_sim_s: f64 = jobs
        .iter()
        .map(|j| j.spec.node_count as f64 * j.spec.duration.as_secs_f64())
        .sum();
    let rates: Vec<f64> = walls.iter().map(|w| node_sim_s / w).collect();
    let rss_mib = peak_rss_kb().map_or(0.0, |kb| kb as f64 / 1024.0);
    vec![
        Metric::timed("wall_s", "s", &walls),
        Metric::timed("setup_s", "s", &setup),
        Metric::timed("node_sim_s_per_s", "node_s/s", &rates),
        Metric::exact("peak_rss_mib", "MiB", rss_mib),
    ]
}

fn ok_runs<T>(pass: &Pass<T>) -> impl Iterator<Item = &T> {
    pass.jobs.iter().flatten()
}

fn per_layer(
    notes: &mut Vec<String>,
    w: Workload,
    jobs: &[RunJob],
    plain: &[Pass<JobRun>],
    spans: &[Pass<SpanRun>],
    probes: &[f64],
) -> Vec<Metric> {
    let workers = w.workers() as f64;
    let mut m = Vec::new();
    // Median over span passes of a per-pass value.
    let over = |f: &dyn Fn(&Pass<SpanRun>) -> f64| -> Vec<f64> { spans.iter().map(f).collect() };
    let sum = |p: &Pass<SpanRun>, f: &dyn Fn(&SpanRun) -> u64| -> f64 {
        ok_runs(p).map(f).sum::<u64>() as f64
    };
    let first = &spans[0];
    let greedy_sum = |f: &dyn Fn(&SpanRun) -> u64| -> f64 {
        jobs.iter()
            .zip(&first.jobs)
            .filter(|(j, _)| j.scheme == Scheme::Greedy)
            .filter_map(|(_, r)| r.as_ref().ok())
            .map(f)
            .sum::<u64>() as f64
    };
    let ratio = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };

    // wsn-scenario
    m.push(Metric::timed(
        "scenario.instantiate_ms",
        "ms",
        &over(&|p| sum(p, &|r| r.instantiate_ns) / 1e6),
    ));
    m.push(Metric::exact(
        "scenario.field_retries",
        "count",
        greedy_sum(&|r| r.field_retries),
    ));
    m.push(Metric::exact(
        "scenario.topology_edges",
        "count",
        greedy_sum(&|r| r.topology_edges),
    ));

    // wsn-core runner, from the plain passes' job reports.
    let job_ms = |p: &Pass<JobRun>| -> Vec<f64> { ok_runs(p).map(|r| r.job_ms).collect() };
    let p50: Vec<f64> = plain.iter().map(|p| median(&job_ms(p))).collect();
    let max: Vec<f64> = plain
        .iter()
        .map(|p| job_ms(p).into_iter().fold(0.0, f64::max))
        .collect();
    let idle: Vec<f64> = plain
        .iter()
        .map(|p| 1.0 - job_ms(p).iter().sum::<f64>() / (workers * p.wall_s * 1e3))
        .collect();
    m.push(Metric::timed("runner.job_ms_p50", "ms", &p50));
    m.push(Metric::timed("runner.job_ms_max", "ms", &max));
    m.push(Metric::timed("runner.idle_frac", "frac", &idle));

    // The layer table: worker-time of each span pass, split by layer.
    let total = |p: &Pass<SpanRun>| workers * p.wall_s * 1e9;
    let engine = |p: &Pass<SpanRun>| {
        sum(p, &|r| {
            r.run_ns.saturating_sub(r.protocol_ns + r.sink_run_ns)
        })
    };
    let layers = |p: &Pass<SpanRun>| -> [f64; 4] {
        [
            sum(p, &|r| r.instantiate_ns),
            sum(p, &|r| r.protocol_ns),
            sum(p, &|r| r.sink_ns),
            engine(p),
        ]
    };
    let unattributed = |p: &Pass<SpanRun>| total(p) - layers(p).iter().sum::<f64>();

    // wsn-diffusion
    for (k, name) in KIND_NAMES.iter().enumerate() {
        m.push(Metric::exact(
            format!("diffusion.on_packet.{name}.calls"),
            "count",
            sum(first, &|r| r.packet_calls[k]),
        ));
        m.push(Metric::timed(
            format!("diffusion.on_packet.{name}.ns_per_call"),
            "ns",
            &over(&|p| ratio(sum(p, &|r| r.packet_ns[k]), sum(p, &|r| r.packet_calls[k]))),
        ));
    }
    m.push(Metric::exact(
        "diffusion.on_timer.calls",
        "count",
        sum(first, &|r| r.timer_calls),
    ));
    m.push(Metric::timed(
        "diffusion.on_timer.ns_per_call",
        "ns",
        &over(&|p| ratio(sum(p, &|r| r.timer_ns), sum(p, &|r| r.timer_calls))),
    ));
    m.push(Metric::timed(
        "diffusion.self_frac",
        "frac",
        &over(&|p| sum(p, &|r| r.protocol_ns) / total(p)),
    ));

    // wsn-net engine and its registry counts.
    let events = sum(first, &|r| r.events);
    m.push(Metric::exact("engine.events", "count", events));
    m.push(Metric::timed(
        "engine.events_per_s",
        "1/s",
        &over(&|p| sum(p, &|r| r.events) / (sum(p, &|r| r.run_ns) / 1e9)),
    ));
    m.push(Metric::timed(
        "engine.self_ns_per_event",
        "ns",
        &over(&|p| engine(p) / sum(p, &|r| r.events)),
    ));
    let tx = sum(first, &|r| r.frames_tx);
    let rx = sum(first, &|r| r.frames_rx);
    let draws = sum(first, &|r| r.backoff_draws);
    let stalls = sum(first, &|r| r.contention_stalls);
    m.push(Metric::exact("phy.frames_tx", "count", tx));
    m.push(Metric::exact("phy.frames_rx", "count", rx));
    m.push(Metric::exact("phy.rx_per_tx", "ratio", ratio(rx, tx)));
    m.push(Metric::exact(
        "phy.collisions",
        "count",
        sum(first, &|r| r.collisions),
    ));
    m.push(Metric::exact(
        "phy.drops",
        "count",
        sum(first, &|r| r.drops),
    ));
    m.push(Metric::exact("mac.backoff_draws", "count", draws));
    m.push(Metric::exact("mac.contention_stalls", "count", stalls));
    m.push(Metric::exact(
        "mac.stall_ratio",
        "ratio",
        ratio(stalls, draws),
    ));

    // wsn-trace / wsn-metrics: zero on the workloads without observers.
    m.push(Metric::exact(
        "trace.records",
        "count",
        sum(first, &|r| r.records),
    ));
    m.push(Metric::exact(
        "trace.bytes",
        "B",
        sum(first, &|r| r.trace_bytes),
    ));
    m.push(Metric::timed(
        "trace.sink_ns_per_record",
        "ns",
        &over(&|p| ratio(sum(p, &|r| r.sink_ns), sum(p, &|r| r.records))),
    ));
    m.push(Metric::timed(
        "trace.sink_frac",
        "frac",
        &over(&|p| sum(p, &|r| r.sink_ns) / total(p)),
    ));
    m.push(Metric::exact(
        "metrics.snapshot_bytes",
        "B",
        sum(first, &|r| r.snapshot_bytes),
    ));

    // Benchmark overhead and the unattributed remainder.
    // Each round runs a plain pass and then a span pass: the overhead is
    // the median of their paired ratios.
    let overhead: Vec<f64> = plain
        .iter()
        .zip(spans)
        .map(|(p, s)| s.wall_s / p.wall_s - 1.0)
        .collect();
    m.push(Metric::timed(
        "bench.trace_overhead_frac",
        "frac",
        &overhead,
    ));
    m.push(Metric::timed(
        "bench.unattributed_frac",
        "frac",
        &over(&|p| unattributed(p) / total(p)),
    ));
    m.push(Metric::timed("bench.host_probe_s", "s", probes));

    let t = total(first);
    notes.push(format!(
        "layer table, first span pass ({:.3}s wall x {workers} workers = {:.3} worker-s):",
        first.wall_s,
        t / 1e9
    ));
    for (name, ns) in ["scenario", "protocol", "sink", "engine", "unattributed"]
        .into_iter()
        .zip(layers(first).into_iter().chain([unattributed(first)]))
    {
        notes.push(format!(
            "  {name:<13} {:>10.3} ms {:>6.1}%",
            ns / 1e6,
            100.0 * ns / t
        ));
    }
    notes.push(format!("  {:<13} {:>10.3} ms 100.0%", "total", t / 1e6));
    m
}

/// Prints reference lines for the seed: digests from the plain pass, which
/// an independent path must reproduce (the span pass; for the traced
/// workload, the audit pass), with the workload's validity checks passed.
fn emit_reference(args: &Args) -> ExitCode {
    let mut ok = true;
    for &w in &args.workloads {
        let jobs = w.jobs(args.seed);
        let mut out = Outcome::default();
        let plain = plain_pass(w, &jobs);
        let refs: Vec<Option<Reference>> = plain
            .jobs
            .iter()
            .map(|r| {
                r.as_ref().ok().map(|r| Reference {
                    digest: r.digest,
                    trace_fnv: None,
                })
            })
            .collect();
        let spans = span_pass(w, &jobs, w.observed());
        check(&mut out, "span pass", &jobs, &spans, &refs, |r| r.digest);
        check_spans(&mut out, w, &jobs, &spans);
        let fnvs = if w.observed() {
            check_audit(&mut out, w, &jobs, &refs)
        } else {
            vec![None; jobs.len()]
        };
        if out.failed > 0 || out.invalid || refs.iter().any(Option::is_none) {
            ok = false;
            for n in &out.notes {
                eprintln!("{} seed {}: {n}", w.name(), args.seed);
            }
            continue;
        }
        for (i, r) in refs.iter().flatten().enumerate() {
            let d = r.digest;
            let mut line = format!(
                "{} {} {i} {} {:016x}",
                w.name(),
                args.seed,
                d.events,
                d.metrics_fnv
            );
            if let (Some(bytes), Some(fnv)) = (d.trace_bytes, fnvs[i]) {
                line.push_str(&format!(" {bytes} {fnv:016x}"));
            }
            println!("{line}");
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Result<Args, String> {
        parse_args(v.iter().map(|s| s.to_string()))
    }

    #[test]
    fn every_workload_has_its_recorded_seeds() {
        for w in Workload::ALL {
            for seed in 0..RECORDED_SEEDS {
                assert!(
                    recorded_reference(w, seed, w.jobs(seed).len()).is_some(),
                    "{} seed {seed}",
                    w.name()
                );
            }
        }
    }

    #[test]
    fn bad_flags_are_errors_not_panics() {
        assert!(args(&["--bogus"]).is_err());
        assert_eq!(args(&["--help"]).err(), Some(String::new()));
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--trace", "2"]).is_err());
        assert!(args(&["--seconds", "0"]).is_err());
        assert!(args(&["--seed"]).is_err());
        let a = args(&["--workload", "scale_10k,traced_sweep", "--trace", "1"]).unwrap();
        assert_eq!(a.workloads, vec![Workload::Scale10k, Workload::TracedSweep]);
        assert_eq!(a.trace, Some(true));
    }

    /// The density sweep gives the recorded digests at one worker and at
    /// two (run with `--release`: this is the full workload).
    #[test]
    fn density_sweep_digest_is_the_same_at_one_and_two_workers() {
        let jobs = Workload::DensitySweep.jobs(1);
        let recorded: Vec<Digest> = recorded_reference(Workload::DensitySweep, 1, jobs.len())
            .expect("seed 1 is recorded")
            .iter()
            .map(|r| r.digest)
            .collect();
        for workers in [1, 2] {
            let digests: Vec<Digest> = wsn_core::Runner::new(workers)
                .run(&jobs)
                .into_iter()
                .map(|r| {
                    let r = r.expect("the watchdog budget is not reached");
                    Digest::new(&r.metrics, r.accounting.events_processed, None)
                })
                .collect();
            assert_eq!(digests, recorded, "{workers} worker(s)");
        }
    }
}
