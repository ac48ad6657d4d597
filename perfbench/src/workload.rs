//! The benchmark's workloads: job lists generated from a seed.
//!
//! Every workload is a list of [`RunJob`]s built with [`sweep_jobs`], so
//! both schemes of a pair share one scenario. The seed only picks fields;
//! protocol and radio parameters stay at the paper's defaults.

use wsn_core::{field_seed, sweep_jobs, RunJob};
use wsn_diffusion::DiffusionConfig;
use wsn_scenario::{Connectivity, ScenarioSpec};
use wsn_sim::SimDuration;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The Fig. 5 density sweep, both schemes, untraced, two workers.
    DensitySweep,
    /// One 10,000-node field at the 200-node density, both schemes, serial.
    Scale10k,
    /// Two density points with the JSONL trace and metrics registry on.
    TracedSweep,
}

/// Fig. 5's node counts.
const DENSITY_NODES: [f64; 7] = [50.0, 100.0, 150.0, 200.0, 250.0, 300.0, 350.0];
/// Fields per density point: enough paired fields that one seed's job mix
/// costs about the same as another's.
const DENSITY_FIELDS: usize = 2;
/// Simulated seconds per density-sweep run (the paper's run length).
const DENSITY_DURATION_S: u64 = 200;

/// `run_one --nodes 200 --scale 50`: ×50 nodes in a ×√50 wider field.
const SCALE_FACTOR: f64 = 50.0;
const SCALE_BASE_NODES: usize = 200;
/// Greedy's incremental-cost tree needs more than 40 simulated seconds to
/// start forming on this field (no `IncrementalCost` message before it).
const SCALE_DURATION_S: u64 = 60;

/// The traced sweep's points: one mid density and the densest.
const TRACED_NODES: [f64; 2] = [150.0, 350.0];
/// Four fields per point at half the paper's run length: the pass costs
/// about what two 200 s fields did, but one seed's fields weigh less in it
/// (the trace volume of a field varies by a fifth from seed to seed). The
/// untimed audit of every trace byte (about six times a pass) must still
/// fit in a run.
const TRACED_FIELDS: usize = 4;
const TRACED_DURATION_S: u64 = 100;

impl Workload {
    /// Every workload, in the order `all` runs them.
    pub const ALL: [Workload; 3] = [
        Workload::DensitySweep,
        Workload::Scale10k,
        Workload::TracedSweep,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DensitySweep => "density_sweep",
            Workload::Scale10k => "scale_10k",
            Workload::TracedSweep => "traced_sweep",
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the JSONL trace and the metrics registry (snapshot stream
    /// included) are part of the workload itself.
    pub fn observed(self) -> bool {
        self == Workload::TracedSweep
    }

    /// Whether the workload's timings are rescaled to the nominal host with
    /// the host-speed probe (`probe.rs`). The probe measures core speed,
    /// which sets the pace of the sweeps, whose working sets stay in cache.
    /// The 10k-node field waits on memory, which the host's load slows far
    /// less: over half an hour the traced sweep's passes ranged from 2.7 s
    /// to 7.3 s while the field's stayed within 17-20 s, so the probe would
    /// add its own noise to the field's timings, not remove the host's.
    pub fn rescaled(self) -> bool {
        self != Workload::Scale10k
    }

    /// Runner worker threads: two for the sweeps, never more than the host
    /// has; the single large field runs its two jobs one after the other.
    pub fn workers(self) -> usize {
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        match self {
            Workload::Scale10k => 1,
            Workload::DensitySweep | Workload::TracedSweep => cpus.min(2),
        }
    }

    /// Watchdog budget per job: several times the largest event count any
    /// job of the workload dispatches, so only a runaway run trips it.
    pub fn max_events(self) -> u64 {
        match self {
            Workload::DensitySweep | Workload::TracedSweep => 20_000_000,
            Workload::Scale10k => 50_000_000,
        }
    }

    /// The workload's jobs for `seed`, in runner order.
    pub fn jobs(self, seed: u64) -> Vec<RunJob> {
        let mut jobs = match self {
            Workload::DensitySweep => {
                paper_sweep(&DENSITY_NODES, DENSITY_FIELDS, DENSITY_DURATION_S, seed)
            }
            Workload::TracedSweep => {
                paper_sweep(&TRACED_NODES, TRACED_FIELDS, TRACED_DURATION_S, seed)
            }
            Workload::Scale10k => {
                let nodes = (SCALE_BASE_NODES as f64 * SCALE_FACTOR).round() as usize;
                let defaults = ScenarioSpec::default();
                let spec = ScenarioSpec {
                    node_count: nodes,
                    field_side_m: defaults.field_side_m * SCALE_FACTOR.sqrt(),
                    connectivity: Connectivity::GiantComponent { min_fraction: 0.9 },
                    duration: SimDuration::from_secs(SCALE_DURATION_S),
                    seed: field_seed(seed, 0, 0),
                    ..defaults
                };
                sweep_jobs(
                    &[nodes as f64],
                    1,
                    |_, _| spec.clone(),
                    |_, s| DiffusionConfig::for_scheme(s),
                )
            }
        };
        for job in &mut jobs {
            job.max_events = Some(self.max_events());
        }
        jobs
    }
}

fn paper_sweep(xs: &[f64], fields: usize, duration_s: u64, seed: u64) -> Vec<RunJob> {
    sweep_jobs(
        xs,
        fields,
        |p, f| ScenarioSpec {
            duration: SimDuration::from_secs(duration_s),
            ..ScenarioSpec::paper(xs[p] as usize, field_seed(seed, p as u64, f as u64))
        },
        |_, s| DiffusionConfig::for_scheme(s),
    )
}
