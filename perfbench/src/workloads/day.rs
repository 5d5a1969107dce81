//! `fleet-day`: 8 tenants on a uniform n = 10⁵ catalog, each running
//! scripted days of 34 ticks (steady → ramp → plateau → spike, the
//! script of the `control_loop` bench), staggered so that the tenants'
//! spikes do not line up. Ticks carry execution samples, and half the
//! tenants register with launch-failure injection, so some migrations
//! substitute spare nodes. The load is an open loop: ticks go out on a
//! fixed aggregate schedule well below the closed-loop capacity, and
//! latency is timed from each tick's intended send time. The quiet
//! ticks are cheap; the firing ticks revise, diff, compile and migrate
//! at 10⁵ slots and hold up later ticks on the same connection, so
//! this workload puts the planning core, the hierarchy diff and GoDiet
//! on the tail. The tick count is fixed, so every run with the same
//! seed writes identical journals and `restart_s` compares like with
//! like.

use super::replay::{replay_observe, report_layers, ReplayTotals, Shadow, TenantDef};
use super::{
    cache_metrics, connect_placed, connect_timed, daemon_floor_us, dump_spans, setup_metric,
    sliced_percentile, Sent, SETUP_REPS, SLICES,
};
use crate::affinity;
use crate::fixture::{boot, observe_params, register_params, secs, services3, uniform, WorkDir};
use crate::report::Report;
use crate::stats::{mean, median, percentile, sorted, Rng};
use crate::trace::Tracer;
use crate::Args;
use adept_control::controller::ExecutionSample;
use adept_platform::{MflopRate, Platform, Seconds};
use adept_serve::journal::journal_path;
use adept_serve::{
    Daemon, DaemonHandle, DaemonStatus, Journal, Json, ServeClient, ServeConfig, SessionConfig,
    TenantSession,
};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

const PLATFORM: &str = "u100k";
const NODES: usize = 100_000;
const TENANTS: usize = 8;
const CONNECTIONS: usize = 2;

/// One day: (ticks, per-service demand) phases, before each tenant's
/// demand scale.
const DAY: [(usize, [f64; 3]); 5] = [
    (6, [2.0, 1.0, 0.8]), // steady
    (6, [2.0, 1.0, 1.6]), // ramp step 1
    (6, [2.0, 1.0, 2.4]), // ramp step 2
    (8, [2.0, 1.0, 2.4]), // plateau
    (8, [2.0, 5.0, 2.4]), // spike
];
const DAY_TICKS: usize = 34;
/// Script positions of the spike phase.
const SPIKE: std::ops::Range<usize> = 26..34;

/// The aggregate send schedule, in ticks per second: about a tenth of
/// this workload's closed-loop capacity (~1000 ticks/s on 2 CPUs). At
/// half capacity most ticks queue behind a firing round and the median
/// measures that queue, which moves with the seed by ±25 %; at this
/// rate a firing round has finished before the connection's next tick
/// is due, so the median is a quiet tick and the tail is the firing
/// rounds plus the ticks they hold up (see the README).
const RATE_PER_S: f64 = 100.0;

/// Script position of each tenant's first tick. Chosen so that no two
/// tenants on one connection fire within a few ticks of each other and
/// the two connections rarely fire together: the tail then measures a
/// firing round and the ticks queued behind it, not pile-ups whose
/// size would depend on the seed.
const OFFSETS: [usize; TENANTS] = [0, 10, 33, 7, 31, 26, 16, 9];

/// Launch failure probability of the tenants that inject failures.
const FAILURE_PROBABILITY: f64 = 0.35;

/// Demand at a script position for a tenant scale.
fn script(position: usize, scale: f64) -> Vec<f64> {
    let mut at = position % DAY_TICKS;
    for (ticks, rates) in DAY {
        if at < ticks {
            return rates.iter().map(|r| r * scale).collect();
        }
        at -= ticks;
    }
    unreachable!("a position inside the day falls in a phase")
}

/// A tenant of the day and its script.
struct DayTenant {
    def: TenantDef,
    scale: f64,
    /// Script position of the tenant's first tick.
    offset: usize,
    rng: Rng,
}

impl DayTenant {
    fn position(&self, tick: usize) -> usize {
        (self.offset + tick) % DAY_TICKS
    }

    /// The tenant's `tick`-th observation (0-based): the scripted rates
    /// with ±5 % noise, and one execution sample for one service.
    fn observation(&mut self, tick: usize) -> (Vec<f64>, Vec<ExecutionSample>) {
        let rates = script(self.position(tick), self.scale)
            .into_iter()
            .map(|r| r * self.rng.range(0.95, 1.05))
            .collect();
        let service = tick % 3;
        let wapp = services3()[service].wapp_mflop;
        let power = 250.0;
        let sample = ExecutionSample {
            service,
            duration: Seconds(wapp / power * self.rng.range(0.97, 1.03)),
            power: MflopRate(power),
        };
        (rates, vec![sample])
    }
}

fn tenants(seed: u64) -> Vec<DayTenant> {
    let mut rng = Rng::derive(seed, "fleet-day/tenants");
    OFFSETS
        .into_iter()
        .enumerate()
        .map(|(i, offset)| {
            let scale = rng.range(0.8, 1.2);
            let failures = i % 2 == 1;
            DayTenant {
                def: TenantDef {
                    id: format!("day-{i}"),
                    demand: script(0, scale),
                    config: SessionConfig {
                        failure_probability: if failures { FAILURE_PROBABILITY } else { 0.0 },
                        failure_seed: if failures { rng.next_u64() >> 12 } else { 0 },
                        ..SessionConfig::default()
                    },
                },
                scale,
                offset,
                rng: Rng::derive(seed, &format!("fleet-day/noise/{i}")),
            }
        })
        .collect()
}

fn platform(seed: u64) -> Platform {
    uniform(
        PLATFORM,
        NODES,
        Rng::derive(seed, "fleet-day/platform").next_u64(),
    )
}

/// The live system; fields drop in order: client, daemon, directory.
struct Live {
    client: ServeClient,
    daemon: DaemonHandle,
    dir: WorkDir,
}

/// Boots and registers; also returns the platform generation time and
/// how long the first connection waited for the accept loop, which
/// `connect_ms` reports and set-up leaves out.
fn set_up(seed: u64, tenants: &[DayTenant], rep: usize) -> (Live, f64, f64) {
    let dir = WorkDir::new(&format!("fleet-day-{rep}"));
    let t = Instant::now();
    let platform = platform(seed);
    let build_s = secs(t);
    let daemon = boot(dir.path(), vec![(PLATFORM.into(), platform)]);
    let (mut client, connect_ms) = connect_timed(daemon.addr());
    for t in tenants {
        let d = &t.def;
        client
            .call(
                "register",
                register_params(&d.id, PLATFORM, &services3(), &d.demand, &d.config),
            )
            .expect("every tenant registers");
    }
    (
        Live {
            client,
            daemon,
            dir,
        },
        build_s,
        connect_ms / 1e3,
    )
}

/// One scheduled tick.
struct Slot {
    tenant: usize,
    tick: usize,
    due: Duration,
}

/// The aggregate schedule: tenants interleaved round-robin, one tick
/// every `1 / RATE_PER_S` seconds.
fn schedule(days: usize) -> Vec<Slot> {
    (0..TENANTS * days * DAY_TICKS)
        .map(|k| Slot {
            tenant: k % TENANTS,
            tick: k / TENANTS,
            due: Duration::from_secs_f64(k as f64 / RATE_PER_S),
        })
        .collect()
}

/// Waits for a tick's due time by yielding the CPU in a loop rather
/// than sleeping. A sleeping load thread let its CPU go idle, and every
/// tick then paid for waking it: more than half of a quiet tick's
/// latency, and the part that moved by up to 2× with the host's load
/// from run to run. Yielding keeps the CPU awake; the connection's
/// daemon thread, bound to the same CPU (`connect_placed`), only has
/// work while the load thread is blocked on its reply.
fn wait_until(due: Instant) {
    while Instant::now() < due {
        std::thread::yield_now();
    }
}

/// What one connection sent.
#[derive(Default)]
struct ConnRun {
    sent: Vec<Sent>,
    failed: u64,
    bad_ticks: u64,
    connect_ms: f64,
}

fn drive(
    addr: std::net::SocketAddr,
    tenants: &mut [DayTenant],
    slots: &[Slot],
) -> (Vec<ConnRun>, f64) {
    let barrier = Arc::new(Barrier::new(CONNECTIONS + 1));
    let mut per_conn: Vec<Vec<&mut DayTenant>> = (0..CONNECTIONS).map(|_| Vec::new()).collect();
    for (i, t) in tenants.iter_mut().enumerate() {
        per_conn[i % CONNECTIONS].push(t);
    }
    let placed = connect_placed(addr, CONNECTIONS);
    for (c, (_, _, cpu)) in placed.iter().enumerate() {
        match cpu {
            Some(cpu) => {
                println!("# fleet-day connection {c} and its daemon thread run on cpu {cpu}")
            }
            None => println!("# fleet-day connection {c} is not bound to a cpu"),
        }
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = per_conn
            .into_iter()
            .zip(placed)
            .enumerate()
            .map(|(c, (mut mine, (mut client, connect_ms, cpu)))| {
                let barrier = Arc::clone(&barrier);
                scope.spawn(move || {
                    if let Some(cpu) = cpu {
                        affinity::bind(0, cpu);
                    }
                    let mut run = ConnRun {
                        connect_ms,
                        ..ConnRun::default()
                    };
                    barrier.wait();
                    let t0 = Instant::now();
                    for slot in slots.iter().filter(|s| s.tenant % CONNECTIONS == c) {
                        let t = &mut mine[slot.tenant / CONNECTIONS];
                        let (rates, execs) = t.observation(slot.tick);
                        let params = observe_params(&t.def.id, &rates, &execs);
                        let due = t0 + slot.due;
                        wait_until(due);
                        let start = Instant::now();
                        let result = client.call("observe", params.clone());
                        let end = Instant::now();
                        match &result {
                            Ok(r) => {
                                let want = (slot.tick + 1) as f64;
                                if r.get("tick").and_then(Json::as_f64) != Some(want) {
                                    run.bad_ticks += 1;
                                }
                            }
                            Err(_) => run.failed += 1,
                        }
                        run.sent.push(Sent {
                            key: slot.tenant,
                            params,
                            result,
                            latency_ms: (end - due).as_secs_f64() * 1e3,
                            late_ms: start.saturating_duration_since(due).as_secs_f64() * 1e3,
                            start,
                            end,
                        });
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
    })
}

/// Migration ticks of a tenant, from its `observe` replies.
fn migration_ticks(runs: &[ConnRun], tenant: usize) -> Vec<usize> {
    runs.iter()
        .flat_map(|r| &r.sent)
        .filter(|s| s.key == tenant)
        .filter_map(|s| s.result.as_ref().ok())
        .filter(|r| r.get("migrated").and_then(Json::as_bool) == Some(true))
        .filter_map(|r| r.get("tick").and_then(Json::as_f64))
        .map(|t| t as usize)
        .collect()
}

pub fn run(args: &Args, report: &mut Report) {
    let mut tenants = tenants(args.seed);
    let days = ((RATE_PER_S * args.seconds) / (TENANTS * DAY_TICKS) as f64)
        .round()
        .max(1.0) as usize;
    let slots = schedule(days);
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let mut setups = Vec::new();
    let mut live = None;
    let mut build_s = 0.0;
    for rep in 0..reps {
        drop(live.take());
        let t = Instant::now();
        let (l, b, connect_s) = set_up(args.seed, &tenants, rep);
        setups.push(secs(t) - connect_s);
        live = Some(l);
        build_s = b;
    }
    let mut live = live.expect("at least one set-up ran");
    let spare_platform = platform(args.seed);

    let (runs, wall) = drive(live.daemon.addr(), &mut tenants, &slots);
    let sent: Vec<&Sent> = runs.iter().flat_map(|r| &r.sent).collect();
    report.attempted = sent.len() as u64;
    report.failed = runs.iter().map(|r| r.failed).sum();
    let completed = report.attempted - report.failed;
    let latencies: Vec<f64> = sent.iter().map(|s| s.latency_ms).collect();
    let late = sorted(sent.iter().map(|s| s.late_ms).collect());
    let status = live.client.status().expect("status answers");

    if !args.trace {
        report.metric(
            "ops_per_s",
            completed as f64 / wall,
            "1/s",
            format!(
                "{completed} ticks in {wall:.3} s; open loop scheduled at {RATE_PER_S} ticks/s"
            ),
        );
        let t0 = sent.iter().map(|s| s.start).min().expect("ticks were sent");
        let timed: Vec<(f64, f64)> = sent
            .iter()
            .map(|s| ((s.start - t0).as_secs_f64(), s.latency_ms))
            .collect();
        report.metric(
            "p50_ms",
            sliced_percentile(&timed, wall, 0.5),
            "ms",
            format!(
                "median of {SLICES} time slices; n={} ticks, timed from intended send",
                timed.len()
            ),
        );
        let all = sorted(latencies);
        report.metric(
            "p99_ms",
            percentile(&all, 0.99),
            "ms",
            format!("n={} ticks, timed from intended send", all.len()),
        );
        setup_metric(report, &setups, "u100k generation + boot + 8 registrations");
    }
    let connects: Vec<f64> = runs.iter().map(|r| r.connect_ms).collect();
    report.metric(
        "connect_ms",
        median(&connects),
        "ms",
        format!("median connect to first reply, n={}", connects.len()),
    );
    report.metric(
        "capacity_ratio_min",
        capacity_ratio_min(&status),
        "ratio",
        "min over tenants and services of final rho_service / final demand",
    );
    report.metric(
        "loadgen.late_p99_ms",
        percentile(&late, 0.99),
        "ms",
        format!("actual minus intended send, n={}", late.len()),
    );
    report.metric("loadgen.sent", sent.len() as f64, "count", "");
    report.metric("loadgen.completed", completed as f64, "count", "");

    check_day(report, &runs, &tenants, &status, days);

    // Stop, then restart on the day's journals.
    let journal_dir = live.dir.path().to_path_buf();
    drop(live.client);
    live.daemon.stop();
    if args.trace {
        traced(
            args,
            report,
            &runs,
            &tenants,
            &status,
            &journal_dir,
            spare_platform,
            build_s,
        );
    } else {
        let t = Instant::now();
        let daemon = Daemon::start(ServeConfig::new(
            "127.0.0.1:0",
            journal_dir.clone(),
            vec![(PLATFORM.into(), spare_platform)],
        ))
        .expect("the daemon restarts");
        let restart_s = secs(t);
        report.metric(
            "restart_s",
            restart_s,
            "s",
            format!("Daemon::start replaying {} journaled ticks", sent.len()),
        );
        report.check(
            daemon.resume_errors().is_empty(),
            format!("resume errors: {:?}", daemon.resume_errors()),
        );
        let mut client = ServeClient::connect(daemon.addr()).expect("reconnect");
        let after = client.status().expect("status answers");
        for before in &status.tenants {
            let same = after
                .tenants
                .iter()
                .find(|t| t.tenant == before.tenant)
                .is_some_and(|t| {
                    t.ticks == before.ticks
                        && t.replans == before.replans
                        && t.migrations == before.migrations
                        && t.plan == before.plan
                });
            report.check(
                same,
                format!(
                    "{}: status after restart differs from before the stop",
                    before.tenant
                ),
            );
        }
        drop(client);
        daemon.stop();
    }
    drop(live.dir);
}

fn capacity_ratio_min(status: &DaemonStatus) -> f64 {
    status
        .tenants
        .iter()
        .flat_map(|t| {
            t.plan
                .rho_service
                .iter()
                .zip(&t.forecast)
                .map(|(rho, demand)| rho / demand)
        })
        .fold(f64::INFINITY, f64::min)
}

/// Tick counters advance by one per `observe`, and every tenant
/// migrates on every spike it runs through.
fn check_day(
    report: &mut Report,
    runs: &[ConnRun],
    tenants: &[DayTenant],
    status: &DaemonStatus,
    days: usize,
) {
    let bad: u64 = runs.iter().map(|r| r.bad_ticks).sum();
    report.check(
        bad == 0,
        format!("{bad} observe replies did not advance the tick by one"),
    );
    let total_ticks = days * DAY_TICKS;
    for (i, t) in tenants.iter().enumerate() {
        let live = status.tenants.iter().find(|s| s.tenant == t.def.id);
        report.check(
            live.is_some_and(|s| s.ticks == total_ticks as u64),
            format!("{}: status does not show {total_ticks} ticks", t.def.id),
        );
        let migrated = migration_ticks(runs, i);
        // Spike windows the tenant runs through completely, as ranges
        // of 1-based tick numbers.
        let mut spikes = Vec::new();
        let mut tick = 0;
        while tick < total_ticks {
            if t.position(tick) == SPIKE.start && tick + SPIKE.len() <= total_ticks {
                spikes.push(tick + 1..tick + 1 + SPIKE.len());
            }
            tick += 1;
        }
        let missed = spikes
            .iter()
            .filter(|w| !migrated.iter().any(|m| w.contains(m)))
            .count();
        report.check(
            !spikes.is_empty() && missed == 0,
            format!(
                "{}: migrated on {} of {} spikes",
                t.def.id,
                spikes.len() - missed,
                spikes.len()
            ),
        );
    }
}

/// The traced run: replay every tick layer by layer, then resume each
/// journal through the session and journal layers.
#[allow(clippy::too_many_arguments)]
fn traced(
    args: &Args,
    report: &mut Report,
    runs: &[ConnRun],
    tenants: &[DayTenant],
    status: &DaemonStatus,
    journal_dir: &std::path::Path,
    platform: Platform,
    build_s: f64,
) {
    let platform = Arc::new(platform);
    let mut tracer = Tracer::new(args.origin);
    let shadow_dir = WorkDir::new("fleet-day-shadow");
    let t = Instant::now();
    std::hint::black_box(platform.fingerprint());
    let fingerprint_ms = secs(t) * 1e3;
    let mut shadows: Vec<Shadow> = tenants
        .iter()
        .map(|t| {
            Shadow::new(
                &mut tracer,
                shadow_dir.path(),
                &t.def,
                PLATFORM,
                &platform,
                &services3(),
            )
        })
        .collect();
    let mut totals = ReplayTotals::default();
    let mut id = 0u64;
    for run in runs {
        for sent in &run.sent {
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
    drop(shadows);

    // Restart, layer by layer: the strict journal read and the session
    // replay of each tenant's journal.
    let lookup = |name: &str| (name == PLATFORM).then(|| Arc::clone(&platform));
    let (mut read_ms, mut resume_ms, mut records) = (Vec::new(), Vec::new(), 0usize);
    for t in tenants {
        let path = journal_path(journal_dir, &t.def.id);
        let start = Instant::now();
        let read = Journal::read_strict(&path);
        read_ms.push(secs(start) * 1e3);
        records += read.map_or(0, |r| r.len());
        let start = Instant::now();
        let resumed = TenantSession::resume(&path, &lookup, true);
        resume_ms.push(secs(start) * 1e3);
        let live = status.tenants.iter().find(|s| s.tenant == t.def.id);
        report.check(
            matches!(&resumed, Ok(Some(s)) if Some(&s.status()) == live),
            format!(
                "{}: the resumed session differs from the live one",
                t.def.id
            ),
        );
    }
    report.metric(
        "serve.journal.read_ms",
        mean(&read_ms),
        "ms",
        "mean per tenant journal",
    );
    report.metric(
        "serve.session.resume_ms",
        mean(&resume_ms),
        "ms",
        "mean per tenant journal",
    );
    report.metric(
        "serve.session.replay_records_per_s",
        records as f64 / (resume_ms.iter().sum::<f64>() / 1e3),
        "1/s",
        format!("{records} journal records"),
    );
    let sum = |f: fn(&adept_serve::TenantStatus) -> u64| status.tenants.iter().map(f).sum::<u64>();
    let (replans, warm, migrations) = (
        sum(|t| t.replans),
        sum(|t| t.warm_replans),
        sum(|t| t.migrations),
    );
    report.metric(
        "control.replans",
        replans as f64,
        "count",
        "live status, all tenants",
    );
    report.metric(
        "control.warm_replans",
        warm as f64,
        "count",
        "live status, all tenants",
    );
    report.metric(
        "control.migrations",
        migrations as f64,
        "count",
        "live status, all tenants",
    );
    report.metric(
        "control.useful_round_ratio",
        migrations as f64 / replans.max(1) as f64,
        "ratio",
        "migrations / replans",
    );
    cache_metrics(report, &status.cache);
    report.metric(
        "platform.build_s",
        build_s,
        "s",
        "uniform n = 10^5 generation",
    );
    report.metric("platform.fingerprint_ms", fingerprint_ms, "ms", "n = 10^5");
    let connects: Vec<f64> = runs.iter().map(|r| r.connect_ms).collect();
    report.metric(
        "serve.daemon.accept_wait_ms",
        median(&connects) - floor / 1e3,
        "ms",
        "connect to first reply minus the floor",
    );
    report.metric(
        "trace.overhead_pct",
        0.0,
        "%",
        "the live phase is the untraced one; spans come from its own timings",
    );
    dump_spans(args, &tracer);
}
