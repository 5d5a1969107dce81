//! `fleet-steady`: 32 tenants on a uniform n = 10⁴ catalog, a closed
//! loop of `observe` ticks over 2 connections, each connection
//! round-robining its tenants with seeded ±10 % noise around the
//! registered demand. The noise stays under the 0.2 drift threshold, so
//! nothing ever replans: the workload isolates the serving tax per tick
//! (framing, JSON, dispatch, the tenant lock, the journal append and
//! the drift trigger).

use super::replay::{replay_observe, report_layers, ReplayTotals, Shadow, TenantDef};
use super::{
    cache_metrics, connect_timed, daemon_floor_us, dump_spans, setup_metric, Sent, SETUP_REPS,
};
use crate::fixture::{
    boot, observe_params, register_params, secs, services3, uniform, WorkDir, BASE_DEMAND,
};
use crate::report::Report;
use crate::stats::{median, percentile, sorted, Rng};
use crate::trace::Tracer;
use crate::Args;
use adept_serve::{DaemonHandle, Json, RemoteError, ServeClient, SessionConfig};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

const PLATFORM: &str = "u10k";
const NODES: usize = 10_000;
const TENANTS: usize = 32;
const CONNECTIONS: usize = 2;
/// Untimed rounds over every tenant before the timed phase.
const WARMUP_ROUNDS: usize = 50;
/// The untimed run's timed phase is cut into this many slices, each on
/// fresh connections (new client and daemon threads), and the run
/// reports the median slice. On a 2-CPU machine this closed loop
/// settles for seconds at a time into one of two speeds, depending on
/// whether each connection's client and daemon threads share a CPU;
/// fresh connections re-draw that placement, and the median reports
/// the usual one instead of whichever held for the whole run.
const SLICES: usize = 9;
/// Requests per connection the traced run records and replays.
const TRACED_REQUESTS: usize = 5_000;

fn tenants(seed: u64) -> Vec<TenantDef> {
    let mut rng = Rng::derive(seed, "fleet-steady/tenants");
    (0..TENANTS)
        .map(|i| {
            let scale = rng.range(0.5, 2.0);
            TenantDef {
                id: format!("steady-{i:02}"),
                demand: BASE_DEMAND.iter().map(|d| d * scale).collect(),
                config: SessionConfig::default(),
            }
        })
        .collect()
}

/// The live system; fields drop in order: client, daemon, directory.
struct Live {
    client: ServeClient,
    daemon: DaemonHandle,
    /// Holds the journal directory until the daemon has stopped.
    _dir: WorkDir,
}

/// Boots and registers; also returns how long the first connection
/// waited for the accept loop, which `connect_ms` reports and set-up
/// leaves out.
fn set_up(seed: u64, tenants: &[TenantDef], rep: usize) -> (Live, f64) {
    let dir = WorkDir::new(&format!("fleet-steady-{rep}"));
    let platform = uniform(PLATFORM, NODES, platform_seed(seed));
    let daemon = boot(dir.path(), vec![(PLATFORM.into(), platform)]);
    let (mut client, connect_ms) = connect_timed(daemon.addr());
    for t in tenants {
        client
            .call(
                "register",
                register_params(&t.id, PLATFORM, &services3(), &t.demand, &t.config),
            )
            .expect("every tenant registers");
    }
    (
        Live {
            client,
            daemon,
            _dir: dir,
        },
        connect_ms / 1e3,
    )
}

fn platform_seed(seed: u64) -> u64 {
    Rng::derive(seed, "fleet-steady/platform").next_u64()
}

/// What one connection did in one phase.
#[derive(Default)]
struct ConnRun {
    latencies_ms: Vec<f64>,
    recorded: Vec<Kept>,
    attempted: u64,
    failed: u64,
    bad_ticks: u64,
    connect_ms: f64,
}

/// A request kept for the traced replay (its frame is rebuilt from the
/// rates afterwards, off the request path).
struct Kept {
    key: usize,
    rates: Vec<f64>,
    result: Result<Json, RemoteError>,
    start: Instant,
    end: Instant,
    /// What keeping the request cost the load loop, in ns.
    keep_ns: f64,
}

/// Per-tenant state the connections carry across phases.
struct TenantLoad {
    index: usize,
    ticks: u64,
    rng: Rng,
}

/// Runs one closed-loop phase of `seconds` on every connection.
/// `record` caps how many requests each connection keeps for replay.
fn phase(
    addr: std::net::SocketAddr,
    defs: &[TenantDef],
    loads: &mut [Vec<TenantLoad>],
    seconds: Duration,
    warmup: bool,
    record: usize,
) -> (Vec<ConnRun>, f64) {
    let barrier = Arc::new(Barrier::new(CONNECTIONS + 1));
    let (runs, wall) = std::thread::scope(|scope| {
        let handles: Vec<_> = loads
            .iter_mut()
            .map(|load| {
                let barrier = Arc::clone(&barrier);
                scope.spawn(move || {
                    let (mut client, connect_ms) = connect_timed(addr);
                    // Reserved up front, so that growing the sample buffer
                    // neither stalls the loop nor steps the peak RSS.
                    let mut run = ConnRun {
                        connect_ms,
                        latencies_ms: Vec::with_capacity(
                            (seconds.as_secs_f64() * 60_000.0) as usize,
                        ),
                        ..ConnRun::default()
                    };
                    if warmup {
                        for _ in 0..WARMUP_ROUNDS {
                            for t in load.iter_mut() {
                                tick(&mut client, defs, t, &mut ConnRun::default(), 0);
                            }
                        }
                    }
                    barrier.wait();
                    let deadline = Instant::now() + seconds;
                    'timed: loop {
                        for t in load.iter_mut() {
                            if Instant::now() >= deadline {
                                break 'timed;
                            }
                            tick(&mut client, defs, t, &mut run, record);
                        }
                    }
                    run
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        let runs: Vec<ConnRun> = handles
            .into_iter()
            .map(|h| h.join().expect("load threads do not panic"))
            .collect();
        (runs, secs(start))
    });
    (runs, wall)
}

/// Sends one noisy steady tick and checks the tick counter advanced.
fn tick(
    client: &mut ServeClient,
    defs: &[TenantDef],
    t: &mut TenantLoad,
    run: &mut ConnRun,
    record: usize,
) {
    let def = &defs[t.index];
    let rates: Vec<f64> = def
        .demand
        .iter()
        .map(|d| d * t.rng.range(0.9, 1.1))
        .collect();
    let keep_start = Instant::now();
    let kept = (run.recorded.len() < record).then(|| rates.clone());
    let mut keep_ns = keep_start.elapsed().as_nanos() as f64;
    let params = observe_params(&def.id, &rates, &[]);
    let start = Instant::now();
    let result = client.call("observe", params);
    let end = Instant::now();
    run.attempted += 1;
    t.ticks += 1;
    match &result {
        Ok(r) => {
            if r.get("tick").and_then(Json::as_f64) != Some(t.ticks as f64) {
                run.bad_ticks += 1;
            }
        }
        Err(_) => run.failed += 1,
    }
    run.latencies_ms.push((end - start).as_secs_f64() * 1e3);
    if let Some(rates) = kept {
        let keep_start = Instant::now();
        run.recorded.push(Kept {
            key: t.index,
            rates,
            result,
            start,
            end,
            keep_ns: 0.0,
        });
        keep_ns += keep_start.elapsed().as_nanos() as f64;
        if let Some(k) = run.recorded.last_mut() {
            k.keep_ns = keep_ns;
        }
    }
}

pub fn run(args: &Args, report: &mut Report) {
    let defs = tenants(args.seed);
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let mut setups = Vec::new();
    let mut live = None;
    for rep in 0..reps {
        drop(live.take());
        let t = Instant::now();
        let (l, connect_s) = set_up(args.seed, &defs, rep);
        setups.push(secs(t) - connect_s);
        live = Some(l);
    }
    let mut live = live.expect("at least one set-up ran");
    let addr = live.daemon.addr();
    let mut loads: Vec<Vec<TenantLoad>> = (0..CONNECTIONS)
        .map(|c| {
            (c..TENANTS)
                .step_by(CONNECTIONS)
                .map(|index| TenantLoad {
                    index,
                    ticks: 0,
                    rng: Rng::derive(args.seed, &format!("fleet-steady/noise/{index}")),
                })
                .collect()
        })
        .collect();

    let runs = if args.trace {
        traced(args, report, &defs, &mut loads, addr)
    } else {
        // The timed phase runs as slices on fresh connections, and the
        // run reports the median slice (see `SLICES`).
        let slice = args.duration() / SLICES as u32;
        let mut runs = Vec::new();
        let (mut ops, mut p50, mut p99) = (Vec::new(), Vec::new(), Vec::new());
        for i in 0..SLICES {
            let (slice_runs, wall) = phase(addr, &defs, &mut loads, slice, i == 0, 0);
            let lat = sorted(
                slice_runs
                    .iter()
                    .flat_map(|r| r.latencies_ms.iter().copied())
                    .collect(),
            );
            let completed = slice_runs
                .iter()
                .map(|r| r.attempted - r.failed)
                .sum::<u64>();
            ops.push(completed as f64 / wall);
            p50.push(percentile(&lat, 0.5));
            p99.push(percentile(&lat, 0.99));
            runs.extend(slice_runs);
        }
        let ticks = runs.iter().map(|r| r.latencies_ms.len()).sum::<usize>();
        let note = format!(
            "median of {SLICES} slices of {:.2} s on fresh connections; {ticks} observe ticks, \
             closed loop, {CONNECTIONS} connections",
            slice.as_secs_f64()
        );
        report.metric("ops_per_s", median(&ops), "1/s", note.clone());
        report.metric("p50_ms", median(&p50), "ms", note.clone());
        report.metric("p99_ms", median(&p99), "ms", note);
        setup_metric(report, &setups, "u10k generation + boot + 32 registrations");
        runs
    };
    report.attempted = runs.iter().map(|r| r.attempted).sum();
    report.failed = runs.iter().map(|r| r.failed).sum();
    let connects: Vec<f64> = runs.iter().map(|r| r.connect_ms).collect();
    report.metric(
        "connect_ms",
        median(&connects),
        "ms",
        format!("median connect to first reply, n={}", connects.len()),
    );

    // Checks: one tick per observe, and nothing ever replans.
    let bad: u64 = runs.iter().map(|r| r.bad_ticks).sum();
    report.check(
        bad == 0,
        format!("{bad} observe replies did not advance the tick by one"),
    );
    let status = live.client.status().expect("status answers");
    if args.trace {
        cache_metrics(report, &status.cache);
    }
    for load in loads.iter().flatten() {
        let def = &defs[load.index];
        match status.tenants.iter().find(|s| s.tenant == def.id) {
            Some(s) => {
                report.check(
                    s.ticks == load.ticks,
                    format!(
                        "{}: status says {} ticks, {} were sent",
                        def.id, s.ticks, load.ticks
                    ),
                );
                report.check(
                    s.replans == 0 && s.migrations == 0,
                    format!("{}: steady noise replanned ({} rounds)", def.id, s.replans),
                );
            }
            None => report.check(false, format!("{} is not live", def.id)),
        }
    }
    drop(live);
}

/// The traced run: the timed phase keeps its first requests, which are
/// then replayed layer by layer.
fn traced(
    args: &Args,
    report: &mut Report,
    defs: &[TenantDef],
    loads: &mut [Vec<TenantLoad>],
    addr: std::net::SocketAddr,
) -> Vec<ConnRun> {
    let (runs, _) = phase(addr, defs, loads, args.duration(), true, TRACED_REQUESTS);
    let keep: Vec<f64> = runs
        .iter()
        .flat_map(|r| &r.recorded)
        .map(|k| k.keep_ns)
        .collect();
    let record_us = median(&keep) / 1e3;
    let all: Vec<f64> = runs
        .iter()
        .flat_map(|r| r.latencies_ms.iter().copied())
        .collect();
    let p50_us = median(&all) * 1e3;

    let mut tracer = Tracer::new(args.origin);
    let shadow_dir = WorkDir::new("fleet-steady-shadow");
    let t = Instant::now();
    let platform = Arc::new(uniform(PLATFORM, NODES, platform_seed(args.seed)));
    let build_s = secs(t);
    let t = Instant::now();
    std::hint::black_box(platform.fingerprint());
    let fingerprint_ms = secs(t) * 1e3;
    let mut shadows: Vec<Shadow> = defs
        .iter()
        .map(|d| {
            Shadow::new(
                &mut tracer,
                shadow_dir.path(),
                d,
                PLATFORM,
                &platform,
                &services3(),
            )
        })
        .collect();
    let mut totals = ReplayTotals::default();
    let mut id = 0u64;
    for run in &runs {
        for kept in &run.recorded {
            let sent = Sent {
                key: kept.key,
                params: observe_params(&defs[kept.key].id, &kept.rates, &[]),
                result: kept.result.clone(),
                latency_ms: 0.0,
                late_ms: 0.0,
                start: kept.start,
                end: kept.end,
            };
            let sent = &sent;
            id += 1;
            let rt = tracer.record("serve.daemon.round_trip", id, None, sent.start, sent.end);
            replay_observe(
                &mut tracer,
                &mut shadows[sent.key],
                id,
                rt,
                sent,
                &mut totals,
            );
        }
    }
    let floor = daemon_floor_us();
    report_layers(report, &tracer, &totals, floor);
    report.metric(
        "platform.build_s",
        build_s,
        "s",
        "uniform n = 10^4 generation",
    );
    report.metric("platform.fingerprint_ms", fingerprint_ms, "ms", "n = 10^4");
    let connects: Vec<f64> = runs.iter().map(|r| r.connect_ms).collect();
    report.metric(
        "serve.daemon.accept_wait_ms",
        median(&connects) - floor / 1e3,
        "ms",
        "connect to first reply minus the floor",
    );
    let sent: u64 = runs.iter().map(|r| r.attempted).sum();
    let failed: u64 = runs.iter().map(|r| r.failed).sum();
    report.metric("loadgen.sent", sent as f64, "count", "timed phase");
    report.metric(
        "loadgen.completed",
        (sent - failed) as f64,
        "count",
        "timed phase",
    );
    report.metric(
        "trace.overhead_pct",
        record_us / p50_us * 100.0,
        "%",
        format!("keeping a request for replay costs {record_us:.3} us (median) against a p50 of {p50_us:.2} us"),
    );
    dump_spans(args, &tracer);
    runs
}
