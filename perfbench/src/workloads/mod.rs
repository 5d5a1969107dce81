//! The four workloads and the serving plumbing they share.

mod day;
mod offline;
mod replay;
mod steady;
mod whatif;

use crate::affinity;
use crate::fixture::{boot, secs, WorkDir};
use crate::report::Report;
use crate::stats::{median, percentile, sorted};
use crate::trace::Tracer;
use crate::Args;
use adept_platform::generator::lyon_cluster;
use adept_serve::{CacheStats, Json, RemoteError, ServeClient};
use std::net::SocketAddr;
use std::time::Instant;

pub const NAMES: [&str; 4] = ["fleet-steady", "fleet-day", "what-if", "plan-offline"];

/// Set-up is repeated this many times per run and its median reported,
/// so that work moved into set-up shows without one slow boot deciding
/// the figure.
pub const SETUP_REPS: usize = 5;

/// Runs the named workload; `false` when the name is unknown.
pub fn run(args: &Args, report: &mut Report) -> bool {
    match args.workload.as_str() {
        "fleet-steady" => steady::run(args, report),
        "fleet-day" => day::run(args, report),
        "what-if" => whatif::run(args, report),
        "plan-offline" => offline::run(args, report),
        _ => return false,
    }
    true
}

/// One `observe` request as the load generator sent it.
pub struct Sent {
    /// Which tenant the request was for.
    pub key: usize,
    pub params: Json,
    pub result: Result<Json, RemoteError>,
    /// Completion minus intended send time, in ms (open loop only).
    pub latency_ms: f64,
    /// Actual minus intended send time, in ms (open loop only).
    pub late_ms: f64,
    pub start: Instant,
    pub end: Instant,
}

/// Connects and times connect → first reply (a `status` call).
pub fn connect_timed(addr: SocketAddr) -> (ServeClient, f64) {
    let t = Instant::now();
    let mut client = ServeClient::connect(addr).expect("the daemon accepts connections");
    client.status().expect("status answers");
    (client, secs(t) * 1e3)
}

/// Connects `n` clients one at a time and binds each connection's
/// daemon thread to a CPU of its own: connection k to the k-th CPU the
/// process may use, round robin. The load thread that drives connection
/// k binds itself to the same CPU, so a request's hand-offs stay on one
/// CPU and the connections do not share one. Returns each client, its
/// connect-to-first-reply time in ms, and its CPU: `None` where the
/// daemon's thread could not be told apart or bound.
pub fn connect_placed(addr: SocketAddr, n: usize) -> Vec<(ServeClient, f64, Option<usize>)> {
    let cpus = affinity::cpus();
    (0..n)
        .map(|k| {
            let before = affinity::threads();
            let (client, connect_ms) = connect_timed(addr);
            // The daemon starts a thread per connection and has answered
            // the first request on it, so it is the one new thread.
            let new: Vec<i32> = affinity::threads()
                .into_iter()
                .filter(|t| !before.contains(t))
                .collect();
            let cpu = match (new.as_slice(), cpus.get(k % cpus.len().max(1))) {
                (&[daemon_thread], Some(&cpu)) if affinity::bind(daemon_thread, cpu) => Some(cpu),
                _ => None,
            };
            (client, connect_ms, cpu)
        })
        .collect()
}

/// Time slices a timed phase is cut into for its median.
pub const SLICES: usize = 5;

/// A latency percentile taken per time slice of the timed phase, then
/// the median over the slices: a burst of CPU time taken by other
/// guests on the host spoils one slice instead of the run's figure.
/// `samples` are (seconds since the phase started, latency in ms).
pub fn sliced_percentile(samples: &[(f64, f64)], phase_s: f64, q: f64) -> f64 {
    let mut slices = vec![Vec::new(); SLICES];
    for &(at, latency) in samples {
        let i = (at / phase_s * SLICES as f64) as usize;
        slices[i.min(SLICES - 1)].push(latency);
    }
    let per_slice: Vec<f64> = slices
        .into_iter()
        .map(|s| percentile(&sorted(s), q))
        .collect();
    median(&per_slice)
}

/// Median set-up time over the repetitions.
pub fn setup_metric(report: &mut Report, setups_s: &[f64], what: &str) {
    report.metric(
        "setup_s",
        median(setups_s),
        "s",
        format!("median of {} set-ups: {what}", setups_s.len()),
    );
}

/// `serve.daemon.floor_us`: the median `status` round trip on a daemon
/// hosting no tenants, over two connections at once like the serving
/// workloads — the cost of the wire and the dispatch alone.
pub fn daemon_floor_us() -> f64 {
    const CALLS: usize = 2000;
    const WARMUP: usize = 200;
    let dir = WorkDir::new("floor");
    let daemon = boot(dir.path(), vec![("lyon8".into(), lyon_cluster(8))]);
    let addr = daemon.addr();
    let rt: Vec<f64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                scope.spawn(move || {
                    let mut client = ServeClient::connect(addr).expect("connect");
                    let mut rt = Vec::with_capacity(CALLS);
                    for i in 0..WARMUP + CALLS {
                        let t = Instant::now();
                        client
                            .call("status", Json::obj(vec![]))
                            .expect("status answers");
                        if i >= WARMUP {
                            rt.push(secs(t) * 1e6);
                        }
                    }
                    rt
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("floor threads do not panic"))
            .collect()
    });
    daemon.stop();
    median(&rt)
}

/// The plan cache's counters, from a `status` frame.
pub fn cache_metrics(report: &mut Report, cache: &CacheStats) {
    let lookups = cache.exact_hits + cache.near_hits + cache.misses;
    report.metric(
        "serve.cache.exact_hits",
        cache.exact_hits as f64,
        "count",
        "status",
    );
    report.metric(
        "serve.cache.near_hits",
        cache.near_hits as f64,
        "count",
        "status",
    );
    report.metric("serve.cache.misses", cache.misses as f64, "count", "status");
    report.metric(
        "serve.cache.hit_ratio",
        (cache.exact_hits + cache.near_hits) as f64 / lookups.max(1) as f64,
        "ratio",
        format!("hits / {lookups} lookups"),
    );
}

/// Writes the span dump of a traced run into the working directory.
pub fn dump_spans(args: &Args, tracer: &Tracer) {
    let path = std::path::Path::new(".bench_work")
        .join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
    match tracer.dump(&path) {
        Ok(()) => println!(
            "# spans: {} written to {}",
            tracer.spans.len(),
            path.display()
        ),
        Err(e) => println!("# spans: could not write {}: {e}", path.display()),
    }
}
