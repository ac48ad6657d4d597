//! Reduce a directory of run traces (written by `--trace DIR` on any figure
//! binary) into figure-style summaries: per-node energy histogram, the top-N
//! hottest nodes, and totals, per trace file and aggregated.
//!
//! ```sh
//! cargo run --release -p wsn-bench --bin fig8 -- --quick --trace traces/
//! cargo run --release -p wsn-bench --bin trace_report -- traces/ --top 10
//! ```
//!
//! Also accepts a single `.jsonl` file in place of a directory. Exits with
//! status 2 when the path does not exist or holds no trace files. With
//! `--profile`, traces from profiled runs (`--profile` on the figure binary)
//! additionally get a per-event-type dispatch-cost table.

use std::path::{Path, PathBuf};

use wsn_bench::{parse_value, usage_exit};
use wsn_trace::TraceSummary;

struct Args {
    path: PathBuf,
    top: usize,
    buckets: usize,
    profile: bool,
}

const USAGE: &str = "usage: trace_report DIR|FILE.jsonl [--top N] [--buckets N] [--profile]";

fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut path: Option<PathBuf> = None;
    let mut top = 5usize;
    let mut buckets = 10usize;
    let mut profile = false;
    let mut it = argv.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--top" => top = parse_value(&a, it.next())?,
            "--buckets" => buckets = parse_value(&a, it.next())?,
            "--profile" => profile = true,
            "--help" | "-h" => return Err(String::new()),
            other if other.starts_with("--") => {
                return Err(format!("unknown argument {other:?}"));
            }
            other if path.is_some() => {
                return Err(format!("at most one trace path, got a second: {other:?}"));
            }
            other => path = Some(PathBuf::from(other)),
        }
    }
    Ok(Args {
        path: path.ok_or("a trace directory or file is required")?,
        top,
        buckets,
        profile,
    })
}

/// The `.jsonl` files under `path` (or `path` itself if it is a file),
/// sorted by name for deterministic report order.
fn trace_files(path: &Path) -> Vec<PathBuf> {
    if path.is_file() {
        return vec![path.to_path_buf()];
    }
    let Ok(entries) = std::fs::read_dir(path) else {
        return Vec::new();
    };
    let mut files: Vec<PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "jsonl"))
        .collect();
    files.sort();
    files
}

fn main() {
    let args = parse_args(std::env::args().skip(1)).unwrap_or_else(|msg| usage_exit(&msg, USAGE));
    let files = trace_files(&args.path);
    if files.is_empty() {
        eprintln!("error: no .jsonl trace files at {}", args.path.display());
        std::process::exit(2);
    }
    let mut grand_energy = 0.0;
    let mut grand_records = 0u64;
    for file in &files {
        let text = match std::fs::read_to_string(file) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("error: cannot read {}: {e}", file.display());
                std::process::exit(2);
            }
        };
        let summary = TraceSummary::from_text(&text);
        println!("=== {} ===", file.display());
        print!("{}", summary.render(args.top, args.buckets));
        if args.profile {
            let section = summary.render_profile();
            if section.is_empty() {
                println!("# no profile records (re-run with --profile on the figure binary)");
            } else {
                print!("{section}");
            }
        }
        println!();
        grand_energy += summary.total_energy_j();
        grand_records += summary.records;
    }
    println!(
        "# {} trace file(s), {} records, {:.9} J total debited energy",
        files.len(),
        grand_records,
        grand_energy
    );
}
