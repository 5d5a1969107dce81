//! `what-if`: stateless `plan` queries from capacity-planning clients
//! over 2 connections, each reconnecting every few queries, on two
//! catalog platforms of similar size (a uniform n = 10⁴ cluster and a
//! 4-site grid). The seeded demand vectors mix exact repeats (the exact
//! cache tier), neighbours within the near radius (the near tier), far
//! vectors (a miss, so a cold `MixPlanner` run) and a small share of
//! unbounded queries. It is the only workload that drives the plan
//! cache tiers, cold mix planning, the site-aware model and the accept
//! path; it bypasses journals and the control loop entirely.

use super::replay::replay_wire;
use super::{
    cache_metrics, connect_timed, daemon_floor_us, dump_spans, setup_metric, sliced_percentile,
    SETUP_REPS, SLICES,
};
use crate::fixture::{
    boot, grid, mix_of, num_field, plan_params, secs, services3, uniform, WorkDir,
};
use crate::report::Report;
use crate::stats::{mean, median, percentile, sorted, Rng};
use crate::trace::Tracer;
use crate::Args;
use adept_core::model::mix::evaluate_mix;
use adept_core::planner::{MixPlan, MixPlanner};
use adept_core::ModelParams;
use adept_platform::Platform;
use adept_serve::{CacheStats, DaemonHandle, Json, RemoteError, ServeClient};
use adept_workload::MixDemand;
use std::collections::BTreeMap;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

const PLATFORMS: [&str; 2] = ["u10k", "grid4"];
const NODES: usize = 10_000;
const CONNECTIONS: usize = 2;
/// Queries per connection before the client reconnects.
const QUERIES_PER_CONNECTION: usize = 8;
/// Untimed queries per connection before timing starts, so that the
/// far vectors have filled the cache and its LRU turns over as it will
/// for the rest of the run.
const WARMUP_QUERIES: usize = 300;
/// Repeated demand vectors per platform, asked once during set-up so
/// the cache holds them when the timed phase starts. The pool is small
/// enough that repeats and near hits touch every entry far more often
/// than the cache's LRU turns over, so an exact repeat is always served
/// from the exact tier.
const POOL: usize = 6;
/// Far vectors draw each service's scale from this ladder (factor 3
/// apart, so two far vectors are never within the near radius of each
/// other), with at least one service on the two lowest rungs (so none
/// is near a pool vector).
const FAR_LADDER: [f64; 5] = [0.05, 0.15, 0.45, 1.35, 4.05];

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Kind {
    Exact,
    Near,
    Far,
    Unbounded,
}

#[derive(Debug, Clone)]
struct Query {
    platform: usize,
    demand: Option<Vec<f64>>,
    kind: Kind,
}

impl Query {
    fn params(&self) -> Json {
        plan_params(
            PLATFORMS[self.platform],
            &services3(),
            self.demand.as_deref(),
        )
    }

    /// Identity of the planning question, for the cold reference.
    fn key(&self) -> (usize, Vec<u64>) {
        let bits = self
            .demand
            .as_ref()
            .map_or(Vec::new(), |d| d.iter().map(|r| r.to_bits()).collect());
        (self.platform, bits)
    }
}

/// Per-service scales of the pool vectors: 2.4–2.5× apart, so two pool
/// vectors are never within the near radius of each other and each is
/// a miss, and so inserted, when set-up first asks it.
const POOL_LADDER: [f64; 3] = [0.5, 1.25, 3.0];

/// Which pool-ladder rung each service of each pool vector takes.
const POOL_RUNGS: [[usize; 3]; POOL] = [
    [1, 1, 1],
    [0, 1, 2],
    [2, 0, 1],
    [1, 2, 0],
    [0, 0, 0],
    [2, 2, 2],
];

/// The repeated demand vectors of each platform: the pool rungs over a
/// seeded per-platform shape.
fn pools(seed: u64) -> Vec<Vec<Vec<f64>>> {
    let mut rng = Rng::derive(seed, "what-if/pool");
    (0..PLATFORMS.len())
        .map(|_| {
            let shape: Vec<f64> = crate::fixture::BASE_DEMAND
                .iter()
                .map(|d| d * rng.range(0.9, 1.1))
                .collect();
            POOL_RUNGS
                .iter()
                .map(|rungs| {
                    shape
                        .iter()
                        .zip(rungs)
                        .map(|(d, &r)| d * POOL_LADDER[r])
                        .collect()
                })
                .collect()
        })
        .collect()
}

/// The query stream of one connection.
struct Generator {
    rng: Rng,
    pools: Vec<Vec<Vec<f64>>>,
}

impl Generator {
    fn next(&mut self) -> Query {
        let platform = self.rng.below(PLATFORMS.len());
        let pool = &self.pools[platform];
        let roll = self.rng.unit();
        let (kind, demand) = if roll < 0.40 {
            (Kind::Exact, Some(pool[self.rng.below(POOL)].clone()))
        } else if roll < 0.70 {
            // Within the near radius of a pool vector; the signs are
            // mixed so the neighbour never falls into the quantization
            // bucket of another pool vector.
            let base = &pool[self.rng.below(POOL)];
            let flip = self.rng.below(base.len());
            let demand = base
                .iter()
                .enumerate()
                .map(|(j, d)| {
                    let delta = self.rng.range(0.1, 0.35);
                    if j == flip {
                        d * (1.0 - delta)
                    } else {
                        d * (1.0 + delta)
                    }
                })
                .collect();
            (Kind::Near, Some(demand))
        } else if roll < 0.95 {
            let low = self.rng.below(3);
            let demand = crate::fixture::BASE_DEMAND
                .iter()
                .enumerate()
                .map(|(j, d)| {
                    let rung = if j == low {
                        self.rng.below(2)
                    } else {
                        self.rng.below(FAR_LADDER.len())
                    };
                    d * FAR_LADDER[rung]
                })
                .collect();
            (Kind::Far, Some(demand))
        } else {
            (Kind::Unbounded, None)
        };
        Query {
            platform,
            demand,
            kind,
        }
    }
}

fn platforms(seed: u64) -> Vec<Platform> {
    let s = Rng::derive(seed, "what-if/platforms").next_u64();
    vec![uniform(PLATFORMS[0], NODES, s), grid(4, NODES, s)]
}

/// The live system; fields drop in order: daemon, directory.
struct Live {
    daemon: DaemonHandle,
    /// Holds the journal directory until the daemon has stopped.
    _dir: WorkDir,
}

/// Generates the platforms and boots, then asks every pool vector and
/// the unbounded question once per platform, so the cache starts warm.
/// Also returns the platform generation time and the set-up time:
/// generation and boot, what it takes to bring the service up. The
/// warm-up is left out: its cold plans, ~90 % of the whole, moved the
/// figure by half between two sets of runs of the same code as the
/// host's speed changed.
fn set_up(seed: u64, rep: usize) -> (Live, f64, f64) {
    let dir = WorkDir::new(&format!("what-if-{rep}"));
    let t = Instant::now();
    let catalog = platforms(seed);
    let build_s = secs(t);
    let daemon = boot(
        dir.path(),
        PLATFORMS
            .iter()
            .map(|n| n.to_string())
            .zip(catalog)
            .collect(),
    );
    let setup_s = secs(t);
    let mut client = ServeClient::connect(daemon.addr()).expect("connect");
    for (p, pool) in pools(seed).iter().enumerate() {
        for demand in pool.iter().map(|d| Some(d.as_slice())).chain([None]) {
            client
                .call("plan", plan_params(PLATFORMS[p], &services3(), demand))
                .expect("pool queries plan");
        }
    }
    (Live { daemon, _dir: dir }, build_s, setup_s)
}

/// One answered query.
struct Answer {
    query: Query,
    result: Result<Json, RemoteError>,
    /// First query after a (re)connect: timed from the connect.
    first: bool,
    latency_ms: f64,
    start: Instant,
    end: Instant,
    params: Json,
}

#[derive(Default)]
struct ConnRun {
    answers: Vec<Answer>,
    connect_ms: Vec<f64>,
}

fn phase(
    addr: std::net::SocketAddr,
    generators: &mut [Generator],
    seconds: Duration,
) -> (Vec<ConnRun>, f64) {
    let barrier = Arc::new(Barrier::new(CONNECTIONS + 1));
    std::thread::scope(|scope| {
        let handles: Vec<_> = generators
            .iter_mut()
            .map(|gen| {
                let barrier = Arc::clone(&barrier);
                scope.spawn(move || {
                    let mut run = ConnRun::default();
                    barrier.wait();
                    let deadline = Instant::now() + seconds;
                    while Instant::now() < deadline {
                        let connected = Instant::now();
                        let mut client = ServeClient::connect(addr).expect("connect");
                        for i in 0..QUERIES_PER_CONNECTION {
                            let query = gen.next();
                            let params = query.params();
                            let start = Instant::now();
                            let result = client.call("plan", params.clone());
                            let end = Instant::now();
                            let first = i == 0;
                            if first {
                                run.connect_ms.push((end - connected).as_secs_f64() * 1e3);
                            }
                            run.answers.push(Answer {
                                query,
                                result,
                                first,
                                latency_ms: (end - start).as_secs_f64() * 1e3,
                                start,
                                end,
                                params,
                            });
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
    })
}

/// Cold in-process answers by planning question.
type ColdAnswers = BTreeMap<(usize, Vec<u64>), MixPlan>;

/// Plans every distinct question cold, in process, timing each call.
/// Returns the answers by question and the per-kind call times (ms).
fn cold_answers(catalog: &[Platform], answers: &[&Answer]) -> (ColdAnswers, Vec<f64>, Vec<f64>) {
    let mix = mix_of(&services3());
    let mut cold = BTreeMap::new();
    let (mut bounded_ms, mut unbounded_ms) = (Vec::new(), Vec::new());
    for a in answers {
        let key = a.query.key();
        if cold.contains_key(&key) {
            continue;
        }
        let platform = &catalog[a.query.platform];
        let demand = match &a.query.demand {
            Some(d) => MixDemand::targets(d.clone()),
            None => MixDemand::unbounded(mix.len()),
        };
        let t = Instant::now();
        let plan = MixPlanner::default()
            .plan_mix(platform, &mix, &demand)
            .expect("every generated question plans");
        let ms = secs(t) * 1e3;
        if a.query.demand.is_some() {
            bounded_ms.push(ms);
        } else {
            unbounded_ms.push(ms);
        }
        cold.insert(key, plan);
    }
    (cold, bounded_ms, unbounded_ms)
}

pub fn run(args: &Args, report: &mut Report) {
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let mut setups = Vec::new();
    let mut live = None;
    let mut build_s = 0.0;
    for rep in 0..reps {
        drop(live.take());
        let (l, b, setup_s) = set_up(args.seed, rep);
        setups.push(setup_s);
        live = Some(l);
        build_s = b;
    }
    let live = live.expect("at least one set-up ran");
    let addr = live.daemon.addr();
    let mut generators: Vec<Generator> = (0..CONNECTIONS)
        .map(|c| Generator {
            rng: Rng::derive(args.seed, &format!("what-if/queries/{c}")),
            pools: pools(args.seed),
        })
        .collect();

    for gen in &mut generators {
        let mut client = ServeClient::connect(addr).expect("connect");
        for _ in 0..WARMUP_QUERIES {
            client
                .call("plan", gen.next().params())
                .expect("warm-up queries plan");
        }
    }
    let before = status_cache(addr);
    let (runs, wall) = phase(addr, &mut generators, args.duration());
    let after = status_cache(addr);

    let answers: Vec<&Answer> = runs.iter().flat_map(|r| &r.answers).collect();
    let timed = &answers;
    report.attempted = timed.len() as u64;
    report.failed = timed.iter().filter(|a| a.result.is_err()).count() as u64;
    let connects: Vec<f64> = runs
        .iter()
        .flat_map(|r| r.connect_ms.iter().copied())
        .collect();
    if !args.trace {
        let completed = report.attempted - report.failed;
        report.metric(
            "ops_per_s",
            completed as f64 / wall,
            "1/s",
            format!(
                "{completed} plan queries in {wall:.3} s, closed loop, {CONNECTIONS} connections, \
                 reconnecting every {QUERIES_PER_CONNECTION}"
            ),
        );
        let t0 = timed.iter().map(|a| a.start).min().expect("queries ran");
        let samples: Vec<(f64, f64)> = timed
            .iter()
            .filter(|a| !a.first)
            .map(|a| ((a.start - t0).as_secs_f64(), a.latency_ms))
            .collect();
        let all = sorted(samples.iter().map(|s| s.1).collect());
        report.metric(
            "p50_ms",
            sliced_percentile(&samples, wall, 0.5),
            "ms",
            format!(
                "median of {SLICES} time slices; n={} plan round trips (first after connect \
                 excluded)",
                samples.len()
            ),
        );
        report.metric(
            "p99_ms",
            percentile(&all, 0.99),
            "ms",
            format!(
                "n={} plan round trips (first after connect excluded)",
                all.len()
            ),
        );
        setup_metric(
            report,
            &setups,
            "u10k + 4-site grid generation + boot; cache warm-up untimed",
        );
    }
    report.metric(
        "connect_ms",
        median(&connects),
        "ms",
        format!("median connect to first reply, n={}", connects.len()),
    );

    // Quality and correctness against cold in-process planning.
    let catalog = platforms(args.seed);
    let (cold, bounded_ms, unbounded_ms) = cold_answers(&catalog, &answers);
    let mut ratios = Vec::new();
    let mut mismatched = 0;
    for a in &answers {
        let Ok(result) = &a.result else { continue };
        let served = num_field(result, "objective_value");
        let reference = &cold[&a.query.key()];
        ratios.push(served / reference.objective_value);
        let servers = result
            .get("plan")
            .map_or(f64::NAN, |p| num_field(p, "servers"));
        // Exact repeats, far vectors and unbounded questions are
        // answered from the exact tier or planned cold: bit for bit the
        // cold answer. Near neighbours are revised, so they may differ.
        if a.query.kind != Kind::Near
            && (served.to_bits() != reference.objective_value.to_bits()
                || servers != reference.plan.server_count() as f64)
        {
            mismatched += 1;
        }
    }
    report.check(
        mismatched == 0,
        format!("{mismatched} exact-tier or cold answers differ from cold in-process planning"),
    );
    report.metric(
        "plan_quality",
        mean(&ratios),
        "ratio",
        format!("mean served / cold objective, n={}", ratios.len()),
    );
    let kinds = |k: Kind| timed.iter().filter(|a| a.query.kind == k).count();
    println!(
        "# queries: {} exact-repeat, {} near, {} far, {} unbounded",
        kinds(Kind::Exact),
        kinds(Kind::Near),
        kinds(Kind::Far),
        kinds(Kind::Unbounded)
    );

    if args.trace {
        traced(
            args, report, &runs, &catalog, &cold, &before, &after, build_s,
        );
        report.metric(
            "core.mix.plan_ms",
            median(&bounded_ms),
            "ms",
            format!("median, n={}", bounded_ms.len()),
        );
        report.metric(
            "core.mix.plan_unbounded_ms",
            mean(&unbounded_ms),
            "ms",
            format!("mean, n={}", unbounded_ms.len()),
        );
    }
    drop(live);
}

fn status_cache(addr: std::net::SocketAddr) -> CacheStats {
    let (mut client, _) = connect_timed(addr);
    client.status().expect("status answers").cache
}

/// The traced run: the wire codec, per-tier round
/// trips (classified on a fresh daemon replaying the traced queries one
/// at a time), the cache counters, and the model evaluation.
#[allow(clippy::too_many_arguments)]
fn traced(
    args: &Args,
    report: &mut Report,
    runs: &[ConnRun],
    catalog: &[Platform],
    cold: &ColdAnswers,
    before: &CacheStats,
    after: &CacheStats,
    build_s: f64,
) {
    report.metric(
        "trace.overhead_pct",
        0.0,
        "%",
        "the timed queries run exactly as untraced; spans are built afterwards from their timings",
    );

    let mut tracer = Tracer::new(args.origin);
    let mut id = 0u64;
    let (mut req_bytes, mut resp_bytes, mut frames) = (0usize, 0usize, 0usize);
    let mut traced: Vec<&Answer> = runs.iter().flat_map(|r| &r.answers).collect();
    traced.sort_by_key(|a| a.start);
    for a in &traced {
        id += 1;
        let rt = tracer.record("serve.daemon.round_trip", id, None, a.start, a.end);
        if let Ok(result) = &a.result {
            let (q, r) = replay_wire(&mut tracer, id, rt, "plan", &a.params, result);
            req_bytes += q;
            resp_bytes += r;
            frames += 1;
        }
    }
    let s = tracer.summary();
    for (metric, span) in [
        ("serve.wire.encode_us", "serve.wire.encode"),
        ("serve.wire.parse_us", "serve.wire.parse"),
        ("serve.wire.respond_us", "serve.wire.respond"),
        ("serve.wire.decode_us", "serve.wire.decode"),
    ] {
        let st = s.get(span).copied().unwrap_or_default();
        report.metric(
            metric,
            st.p50_ns / 1e3,
            "us",
            format!("p50, n={}", st.count),
        );
    }
    let frames = frames.max(1) as f64;
    report.metric(
        "serve.wire.request_bytes",
        req_bytes as f64 / frames,
        "bytes",
        "mean per plan frame",
    );
    report.metric(
        "serve.wire.response_bytes",
        resp_bytes as f64 / frames,
        "bytes",
        "mean per plan response",
    );

    // Tier classification: replay the traced queries, in the order they
    // started, on a fresh daemon warmed the same way, one at a time,
    // reading the cache counters after each.
    let (tier_live, _, _) = set_up(args.seed, 99);
    let (mut client, _) = connect_timed(tier_live.daemon.addr());
    let mut last = client.status().expect("status").cache;
    let mut tier_ms: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for a in &traced {
        let t = Instant::now();
        let ok = client.call("plan", a.params.clone()).is_ok();
        let ms = secs(t) * 1e3;
        let now = client.status().expect("status").cache;
        let tier = if now.exact_hits > last.exact_hits {
            "exact"
        } else if now.near_hits > last.near_hits {
            "near"
        } else {
            "miss"
        };
        if ok {
            tier_ms.entry(tier).or_default().push(ms);
        }
        last = now;
    }
    drop(client);
    drop(tier_live);
    for (metric, tier) in [
        ("serve.cache.exact_ms", "exact"),
        ("serve.cache.near_ms", "near"),
        ("serve.cache.miss_ms", "miss"),
    ] {
        let v = tier_ms.get(tier).cloned().unwrap_or_default();
        report.metric(
            metric,
            median(&v),
            "ms",
            format!("median round trip, n={}", v.len()),
        );
    }
    let delta = CacheStats {
        capacity: after.capacity,
        entries: after.entries,
        exact_hits: after.exact_hits - before.exact_hits,
        near_hits: after.near_hits - before.near_hits,
        misses: after.misses - before.misses,
        insertions: after.insertions - before.insertions,
    };
    cache_metrics(report, &delta);

    // The model layer on the cold answers.
    let mix = mix_of(&services3());
    let params: Vec<ModelParams> = catalog.iter().map(ModelParams::from_platform).collect();
    let mut eval_ms = Vec::new();
    for ((p, _), plan) in cold {
        let t = Instant::now();
        std::hint::black_box(
            evaluate_mix(
                &params[*p],
                &catalog[*p],
                &plan.plan,
                &mix,
                &plan.assignment,
            )
            .expect("a planned deployment evaluates"),
        );
        eval_ms.push(secs(t) * 1e3);
    }
    report.metric(
        "core.model.mix_eval_ms",
        median(&eval_ms),
        "ms",
        format!("median, n={}", eval_ms.len()),
    );

    let floor = daemon_floor_us();
    report.metric(
        "serve.daemon.floor_us",
        floor,
        "us",
        "median status round trip, no tenants, 2 connections",
    );
    let connects: Vec<f64> = runs
        .iter()
        .flat_map(|r| r.connect_ms.iter().copied())
        .collect();
    report.metric(
        "serve.daemon.accept_wait_ms",
        median(&connects) - floor / 1e3,
        "ms",
        format!(
            "median connect to first reply minus the floor, n={}",
            connects.len()
        ),
    );
    report.metric(
        "platform.build_s",
        build_s,
        "s",
        "u10k + 4-site grid generation",
    );
    let t = Instant::now();
    for p in catalog {
        std::hint::black_box(p.fingerprint());
    }
    report.metric(
        "platform.fingerprint_ms",
        secs(t) * 1e3,
        "ms",
        "both catalog platforms",
    );
    let sent = runs.iter().map(|r| r.answers.len()).sum::<usize>();
    let completed = runs
        .iter()
        .flat_map(|r| &r.answers)
        .filter(|a| a.result.is_ok())
        .count();
    report.metric("loadgen.sent", sent as f64, "count", "timed phase");
    report.metric(
        "loadgen.completed",
        completed as f64,
        "count",
        "timed phase",
    );
    dump_spans(args, &tracer);
}
