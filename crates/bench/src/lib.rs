//! # wsn-bench — the figure-regeneration harness
//!
//! One binary per evaluation figure (`fig5` … `fig10`) plus `krishnamachari`
//! (the abstract GIT-vs-SPT contrast from the paper's introduction) and
//! `all_figures`. Each binary accepts:
//!
//! * `--quick` — a reduced sweep for smoke-testing (2 fields, 60 s runs);
//! * `--fields N` — override the fields-per-point count;
//! * `--duration SECS` — override the simulated duration;
//! * `--seed SEED` — override the master seed (default 2002);
//! * `--jobs N` — worker threads for the run-execution layer (default: the
//!   `WSN_JOBS` environment variable, else one per CPU; results are
//!   bit-identical at any worker count);
//! * `--max-events N` — per-run watchdog budget (max dispatched simulator
//!   events); a run that exceeds it aborts the sweep with an error naming
//!   the offending `(point, field, scheme)`;
//! * `--progress` — per-job NDJSON progress lines on stderr (point, field,
//!   scheme, simulator events, simulated seconds, wall ms, events/sec);
//! * `--trace DIR` — write one JSONL telemetry trace per job into `DIR`
//!   (created if absent), named `point<x>_field<i>_<scheme>.jsonl`; reduce
//!   a trace directory with the `trace_report` binary, check its
//!   conservation invariants with `trace_audit`. Same seed ⇒
//!   byte-identical trace files;
//! * `--metrics DIR` — attach the in-sim metrics registry to every run and
//!   write one `point<x>_field<i>_<scheme>.metrics.jsonl` snapshot stream
//!   per job into `DIR` (created if absent); reduce a metrics directory
//!   with the `metrics_report` binary. Same seed ⇒ byte-identical metrics
//!   files, and enabling metrics never changes trace bytes or figure
//!   numbers;
//! * `--profile` — attach the wall-clock dispatch profiler to every run:
//!   per-job totals ride the `--progress` stream and, combined with
//!   `--trace`, land in each trace as `profile` records (render with
//!   `trace_report --profile`). Profile numbers are wall-clock and thus
//!   nondeterministic; metrics stay bit-identical;
//! * `--scale FACTOR` — density-preserving scale-up: every sweep point runs
//!   `FACTOR`× the nodes in a `√FACTOR`× wider square, so the paper's
//!   density axis is unchanged while the field grows (`fig5 --scale 100`
//!   puts ≈5,000 nodes at the 50-node point's density). `1` (the default)
//!   is exactly the paper's geometry.
//!
//! Output is the three metric panels of the figure as aligned text tables
//! (mean ± standard deviation over fields) followed by CSV blocks, suitable
//! for `tee`-ing into `bench_output.txt` and diffing against
//! `EXPERIMENTS.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use wsn_core::{run_figure_with, Figure, FigureData, FigureParams, MetricsSpec, Runner, TraceSpec};
use wsn_sim::SimDuration;

/// Command-line options shared by the figure binaries.
#[derive(Debug, Clone, PartialEq)]
pub struct HarnessOptions {
    /// The figure-regeneration parameters.
    pub params: FigureParams,
    /// Also print CSV blocks after the text tables.
    pub csv: bool,
    /// The run-execution layer configuration (workers, watchdog, progress).
    pub runner: Runner,
}

/// The shared options, as printed by `--help` and on bad input.
pub const USAGE: &str = "\
usage: [--quick] [--fields N] [--duration SECS] [--seed SEED] [--no-csv]
       [--jobs N] [--max-events N] [--progress] [--trace DIR] [--metrics DIR]
       [--profile] [--scale FACTOR]

See the wsn-bench crate docs for what each option does.";

/// The value following `flag`, parsed as a `T`, or a message naming the
/// flag and the missing or malformed value.
///
/// # Errors
///
/// Returns the message when `value` is absent or does not parse.
pub fn parse_value<T: std::str::FromStr>(flag: &str, value: Option<String>) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    let v = value.ok_or_else(|| format!("{flag} needs a value"))?;
    v.parse().map_err(|e| format!("{flag} {v:?}: {e}"))
}

impl HarnessOptions {
    /// Parses options from an argument list (without the program name).
    ///
    /// # Errors
    ///
    /// Returns a message naming the problem for an unknown argument, a
    /// missing or malformed value, a non-positive `--scale`, or a trace or
    /// metrics directory that cannot be created; returns an empty message
    /// for `--help`/`-h`.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut seed = 2002u64;
        let mut quick = false;
        let mut fields: Option<usize> = None;
        let mut duration: Option<u64> = None;
        let mut csv = true;
        let mut scale = 1.0f64;
        let mut runner = Runner::from_env();
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--quick" => quick = true,
                "--no-csv" => csv = false,
                "--progress" => runner.progress = true,
                "--fields" => fields = Some(parse_value(&arg, it.next())?),
                "--duration" => duration = Some(parse_value(&arg, it.next())?),
                "--seed" => seed = parse_value(&arg, it.next())?,
                "--jobs" => runner.workers = parse_value(&arg, it.next())?,
                "--max-events" => runner.max_events = Some(parse_value(&arg, it.next())?),
                "--trace" => {
                    let dir: String = parse_value(&arg, it.next())?;
                    std::fs::create_dir_all(&dir)
                        .map_err(|e| format!("cannot create trace directory {dir:?}: {e}"))?;
                    runner.trace = Some(TraceSpec::new(dir));
                }
                "--metrics" => {
                    let dir: String = parse_value(&arg, it.next())?;
                    std::fs::create_dir_all(&dir)
                        .map_err(|e| format!("cannot create metrics directory {dir:?}: {e}"))?;
                    runner.metrics = Some(MetricsSpec::new(dir));
                }
                "--profile" => runner.profile = true,
                "--scale" => {
                    let s: f64 = parse_value(&arg, it.next())?;
                    if !(s.is_finite() && s > 0.0) {
                        return Err(format!("--scale must be positive, got {s}"));
                    }
                    scale = s;
                }
                "--help" | "-h" => return Err(String::new()),
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        let mut params = if quick {
            FigureParams::quick(seed)
        } else {
            FigureParams::paper(seed)
        };
        if let Some(f) = fields {
            params.fields_per_point = f;
        }
        if let Some(d) = duration {
            params.duration = SimDuration::from_secs(d);
        }
        params.scale = scale;
        Ok(HarnessOptions {
            params,
            csv,
            runner,
        })
    }

    /// Parses from the process arguments. On `--help` or bad input, prints
    /// the problem and [`USAGE`] to stderr and exits with status 2.
    pub fn from_env() -> Self {
        Self::parse(std::env::args().skip(1)).unwrap_or_else(|msg| usage_exit(&msg, USAGE))
    }
}

/// Prints `msg` (unless empty, as for `--help`) and `usage` to stderr and
/// exits with status 2 — the bench binaries' answer to bad arguments.
pub fn usage_exit(msg: &str, usage: &str) -> ! {
    if !msg.is_empty() {
        eprintln!("error: {msg}");
    }
    eprintln!("{usage}");
    std::process::exit(2);
}

/// Runs `figure` on the options' runner and prints its panels (and CSV, if
/// enabled).
///
/// Exits the process with status 2 if a run trips the watchdog budget
/// (`--max-events`); the error names the offending `(point, field, scheme)`.
pub fn run_and_print(figure: Figure, opts: &HarnessOptions) -> FigureData {
    let start = std::time::Instant::now();
    let data = match run_figure_with(figure, &opts.params, &opts.runner) {
        Ok(data) => data,
        Err(err) => {
            eprintln!("error: {err}");
            std::process::exit(2);
        }
    };
    println!("{}", data.render_text());
    if opts.csv {
        println!("## CSV: energy\n{}", data.energy.render_csv());
        println!("## CSV: delay\n{}", data.delay.render_csv());
        println!("## CSV: delivery\n{}", data.delivery.render_csv());
    }
    println!(
        "# regenerated in {:.1}s wall time ({} fields/point, {} runs/point, {} workers)\n",
        start.elapsed().as_secs_f64(),
        opts.params.fields_per_point,
        opts.params.fields_per_point * 2,
        opts.runner.effective_workers(),
    );
    if let Some(kb) = wsn_core::peak_rss_kb() {
        println!("# peak RSS: {:.1} MiB\n", kb as f64 / 1024.0);
    }
    data
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(v: &[&str]) -> HarnessOptions {
        try_parse(v).expect("valid arguments")
    }

    fn try_parse(v: &[&str]) -> Result<HarnessOptions, String> {
        HarnessOptions::parse(v.iter().map(|x| x.to_string()))
    }

    #[test]
    fn defaults_are_paper_scale() {
        let o = parse(&[]);
        assert_eq!(o.params.fields_per_point, 10);
        assert_eq!(o.params.node_counts.len(), 7);
        assert!(o.csv);
        assert_eq!(o.runner.max_events, None);
    }

    #[test]
    fn quick_flag_shrinks_sweep() {
        let o = parse(&["--quick"]);
        assert_eq!(o.params.fields_per_point, 2);
    }

    #[test]
    fn overrides_apply() {
        let o = parse(&[
            "--quick",
            "--fields",
            "4",
            "--duration",
            "80",
            "--seed",
            "7",
            "--no-csv",
        ]);
        assert_eq!(o.params.fields_per_point, 4);
        assert_eq!(o.params.duration, SimDuration::from_secs(80));
        assert_eq!(o.params.seed, 7);
        assert!(!o.csv);
    }

    #[test]
    fn runner_flags_apply() {
        let o = parse(&["--jobs", "3", "--max-events", "5000", "--progress"]);
        assert_eq!(o.runner.workers, 3);
        assert_eq!(o.runner.effective_workers(), 3);
        assert_eq!(o.runner.max_events, Some(5000));
        assert!(o.runner.progress);
        assert!(!o.runner.profile);
    }

    #[test]
    fn profile_flag_arms_the_profiler() {
        let o = parse(&["--profile"]);
        assert!(o.runner.profile);
    }

    #[test]
    fn scale_flag_applies_and_defaults_to_identity() {
        assert_eq!(parse(&[]).params.scale, 1.0);
        let o = parse(&["--quick", "--scale", "100"]);
        assert_eq!(o.params.scale, 100.0);
    }

    // The two `should_panic` tests below see the rejection through
    // `parse`'s `expect`, whose message carries the error text.
    #[test]
    #[should_panic(expected = "--scale must be positive")]
    fn non_positive_scale_panics() {
        parse(&["--scale", "0"]);
    }

    #[test]
    fn trace_flag_creates_the_directory_and_wires_the_runner() {
        let dir = std::env::temp_dir().join("wsn_bench_trace_flag_test");
        let o = parse(&["--trace", dir.to_str().expect("utf-8 temp path")]);
        let spec = o.runner.trace.expect("--trace sets a trace spec");
        assert_eq!(spec.dir, dir);
        assert!(dir.is_dir());
        let _ = std::fs::remove_dir(&dir);
    }

    #[test]
    fn metrics_flag_creates_the_directory_and_wires_the_runner() {
        let dir = std::env::temp_dir().join("wsn_bench_metrics_flag_test");
        let o = parse(&["--metrics", dir.to_str().expect("utf-8 temp path")]);
        let spec = o.runner.metrics.expect("--metrics sets a metrics spec");
        assert_eq!(spec.dir, dir);
        assert!(dir.is_dir());
        let _ = std::fs::remove_dir(&dir);
    }

    #[test]
    #[should_panic(expected = "unknown argument")]
    fn unknown_argument_panics() {
        parse(&["--bogus"]);
    }

    #[test]
    fn bad_input_is_an_error_not_a_panic() {
        let err = |v: &[&str]| try_parse(v).expect_err("rejected");
        assert_eq!(err(&["--help"]), "");
        assert_eq!(err(&["-h"]), "");
        assert_eq!(err(&["--bogus"]), "unknown argument \"--bogus\"");
        assert_eq!(err(&["--fields"]), "--fields needs a value");
        assert_eq!(err(&["--quick", "--seed"]), "--seed needs a value");
        assert!(err(&["--jobs", "four"]).starts_with("--jobs \"four\": "));
        assert!(err(&["--duration", "-3"]).starts_with("--duration \"-3\": "));
        assert!(err(&["--scale", "x"]).starts_with("--scale \"x\": "));
        assert_eq!(err(&["--scale", "0"]), "--scale must be positive, got 0");
        assert_eq!(err(&["--scale", "-2"]), "--scale must be positive, got -2");
        assert_eq!(
            err(&["--scale", "inf"]),
            "--scale must be positive, got inf"
        );
    }

    #[test]
    fn uncreatable_trace_directory_is_an_error() {
        let file = std::env::temp_dir().join("wsn_bench_trace_dir_is_a_file");
        std::fs::write(&file, b"").expect("temp file");
        let below = file.join("sub");
        let e = try_parse(&["--trace", below.to_str().expect("utf-8 temp path")])
            .expect_err("a directory below a file cannot be created");
        assert!(e.starts_with("cannot create trace directory"), "{e}");
        let _ = std::fs::remove_file(&file);
    }
}
