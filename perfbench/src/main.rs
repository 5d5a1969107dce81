//! The adept benchmark: the planning service driven over its real wire
//! protocol by an in-process load generator, plus the planners as a
//! library. See `perfbench/README.md` for the workloads, the metrics
//! and the layer-to-metric table.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fleet-steady --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is the JSON result; every line
//! before it is human-readable.

mod affinity;
mod fixture;
mod report;
mod stats;
mod trace;
mod workloads;

use report::Report;
use std::time::{Duration, Instant};

/// One run's arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Start of the run: the time origin of every span.
    pub origin: Instant,
}

impl Args {
    pub fn duration(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        origin: Instant::now(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// The commit the working directory is checked out at, read from
/// `.git` when there is one.
fn git_rev() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "none".into(),
    };
    match head.strip_prefix("ref: ") {
        None => head,
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                workloads::NAMES.join("|")
            );
            std::process::exit(2);
        }
    };
    println!(
        "# env nproc={} rustc=\"{}\" profile={} git_rev={} workload={} seed={} seconds={} trace={}",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        env!("PERFBENCH_RUSTC"),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        git_rev(),
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
    );
    let cpu_before = stats::cpu_times();
    let mut report = Report::default();
    if !workloads::run(&args, &mut report) {
        eprintln!("perfbench: unknown workload {:?}", args.workload);
        std::process::exit(2);
    }
    report.metric(
        "peak_rss_mb",
        stats::peak_rss_mb(),
        "MiB",
        "VmHWM of the whole run",
    );
    if let (Some(before), Some(after)) = (cpu_before, stats::cpu_times()) {
        println!(
            "# host: {:.1} % of the machine's CPU time was stolen by other guests during the run",
            stats::steal_pct(&before, &after)
        );
    }
    if !report.print(args.trace) {
        std::process::exit(1);
    }
}
