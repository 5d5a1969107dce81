//! `plan-offline`: library planning with no daemon, repeated in passes
//! for the run's duration. One pass plans Algorithm 1
//! (`HeuristicPlanner::paper`) at n = 10⁵, the multi-site
//! `SweepPlanner` at n = 10⁵, and the mix reference
//! (`SweepPlanner::best_mix_plan`) against `MixPlanner` on a 4-service
//! mix at n = 10⁴ and on the 2-site weighted-sum n = 400 instance.
//! Without it the heuristic, the sweeps and the batched Eq. 14 kernels
//! would go unmeasured; serve-layer changes should not move it.
//!
//! The instances are the ones the repository's criterion benches plan
//! (generator seed 7), so the figures compare with that history and do
//! not move with the instance drawn; the run's seed orders the planner
//! calls of each pass.

use super::{dump_spans, setup_metric, SETUP_REPS};
use crate::fixture::{grid, secs, uniform};
use crate::report::Report;
use crate::stats::{median, percentile, sorted, Rng};
use crate::trace::Tracer;
use crate::Args;
use adept_core::model::mix::evaluate_mix;
use adept_core::planner::{HeuristicPlanner, MixObjective, MixPlan, MixPlanner, SweepPlanner};
use adept_core::{ModelParams, Planner};
use adept_platform::Platform;
use adept_workload::{ClientDemand, Dgemm, ServiceMix};
use std::time::Instant;

/// The platforms of one pass.
struct Catalog {
    u100k: Platform,
    grid100k: Platform,
    u10k: Platform,
    grid400: Platform,
}

/// Generator seed of the repository benches' instances.
const INSTANCE_SEED: u64 = 7;

fn catalog() -> Catalog {
    let s = INSTANCE_SEED;
    Catalog {
        u100k: uniform("u100k", 100_000, s),
        grid100k: grid(4, 100_000, s),
        u10k: uniform("u10k", 10_000, s),
        grid400: grid(2, 400, s),
    }
}

fn mix4() -> ServiceMix {
    ServiceMix::new(vec![
        (Dgemm::new(100).service(), 4.0),
        (Dgemm::new(220).service(), 2.0),
        (Dgemm::new(310).service(), 1.0),
        (Dgemm::new(450).service(), 1.0),
    ])
}

fn mix2() -> ServiceMix {
    ServiceMix::new(vec![
        (Dgemm::new(310).service(), 2.0),
        (Dgemm::new(450).service(), 1.0),
    ])
}

/// The answers of one pass, compared bit for bit across passes.
#[derive(Debug, PartialEq)]
struct Answers {
    heuristic: (usize, u64),
    sweep: (usize, u64),
    objectives: Vec<u64>,
}

/// One pass, its four steps in the given order; every planner call is
/// a span.
fn pass(
    c: &Catalog,
    order: &[usize],
    tracer: &mut Tracer,
    pass_id: u64,
    stats: &mut Vec<[u64; 3]>,
) -> (Answers, Vec<(f64, f64)>) {
    let service = Dgemm::new(310).service();
    let instances = [
        (&c.u10k, mix4(), MixObjective::WeightedMin),
        (&c.grid400, mix2(), MixObjective::WeightedSum),
    ];
    let mut heuristic = (0, 0);
    let mut sweep = (0, 0);
    let mut objectives = vec![0; 4];
    let mut pairs = vec![(0.0, 0.0); 2];
    for &step in order {
        match step {
            0 => {
                let (plan, _) = tracer.span("core.heuristic.plan", pass_id, None, || {
                    HeuristicPlanner::paper()
                        .plan(&c.u100k, &service, ClientDemand::Unbounded)
                        .expect("Algorithm 1 plans the cluster")
                });
                let rho = ModelParams::from_platform(&c.u100k)
                    .evaluate(&c.u100k, &plan, &service)
                    .rho;
                heuristic = (plan.len(), rho.to_bits());
            }
            1 => {
                let ((plan, rho), _) = tracer.span("core.sweep.plan", pass_id, None, || {
                    SweepPlanner::default()
                        .best_plan(&c.grid100k, &service)
                        .expect("the multi-site sweep plans the grid")
                });
                sweep = (plan.len(), rho.to_bits());
            }
            _ => {
                let k = step - 2;
                let (platform, mix, objective) = &instances[k];
                let ((reference, st), _) =
                    tracer.span("core.sweep_mix.plan", pass_id, None, || {
                        SweepPlanner::default()
                            .best_mix_plan_stats(platform, mix, *objective)
                            .expect("the mix reference plans")
                    });
                stats.push([st.visited, st.expanded, st.pruned()]);
                let (heur, _) = tracer.span("core.mix.plan_unbounded", pass_id, None, || {
                    MixPlanner::with_objective(*objective)
                        .plan_mix_unbounded(platform, mix)
                        .expect("the mix heuristic plans")
                });
                for (i, plan) in [&reference, &heur].into_iter().enumerate() {
                    eval(tracer, pass_id, platform, mix, plan);
                    objectives[2 * k + i] = plan.objective_value.to_bits();
                }
                pairs[k] = (heur.objective_value, reference.objective_value);
            }
        }
    }
    (
        Answers {
            heuristic,
            sweep,
            objectives,
        },
        pairs,
    )
}

fn eval(tracer: &mut Tracer, pass_id: u64, platform: &Platform, mix: &ServiceMix, plan: &MixPlan) {
    let params = ModelParams::from_platform(platform);
    tracer.span("core.model.mix_eval", pass_id, None, || {
        evaluate_mix(&params, platform, &plan.plan, mix, &plan.assignment)
            .expect("a planned deployment evaluates")
    });
}

pub fn run(args: &Args, report: &mut Report) {
    let mut setups = Vec::new();
    let mut c = None;
    for _ in 0..SETUP_REPS {
        drop(c.take());
        let t = Instant::now();
        c = Some(catalog());
        setups.push(secs(t));
    }
    let c = c.expect("at least one set-up ran");

    let mut tracer = Tracer::new(args.origin);
    let mut stats = Vec::new();
    let mut pass_s = Vec::new();
    let mut first: Option<Answers> = None;
    let mut pairs = Vec::new();
    let mut differing = 0;
    let start = Instant::now();
    let mut passes = 0u64;
    let mut rng = Rng::derive(args.seed, "plan-offline/order");
    let mut order = [0, 1, 2, 3];
    while passes == 0 || start.elapsed() < args.duration() {
        passes += 1;
        rng.shuffle(&mut order);
        let t = Instant::now();
        let (answers, p) = pass(&c, &order, &mut tracer, passes, &mut stats);
        pass_s.push(secs(t));
        pairs = p;
        match &first {
            None => first = Some(answers),
            Some(f) => differing += usize::from(*f != answers),
        }
    }
    let wall = secs(start);
    report.check(
        differing == 0,
        format!("{differing} passes planned different answers"),
    );

    // Every planner call is one request.
    let calls: Vec<f64> = tracer
        .spans
        .iter()
        .filter(|s| s.name != "core.model.mix_eval")
        .map(|s| s.dur_ns() as f64 / 1e6)
        .collect();
    report.attempted = calls.len() as u64;
    let rho_ratio = pairs
        .iter()
        .map(|(heur, reference)| heur / reference)
        .fold(f64::INFINITY, f64::min);
    if !args.trace {
        // Calls per pass over the median pass: a burst of CPU time taken
        // by other guests slows a few passes, not the run's figure.
        report.metric(
            "ops_per_s",
            calls.len() as f64 / passes as f64 / median(&pass_s),
            "1/s",
            format!(
                "{} planner calls in {passes} passes, {wall:.3} s; per median pass",
                calls.len()
            ),
        );
        let s = sorted(calls.clone());
        let note = format!("n={} planner calls", s.len());
        report.metric("p50_ms", percentile(&s, 0.5), "ms", note.clone());
        report.metric("p99_ms", percentile(&s, 0.99), "ms", note);
        setup_metric(report, &setups, "generation of the four platforms");
    }
    report.metric(
        "offline_s",
        median(&pass_s),
        "s",
        format!("median pass, n={passes}"),
    );
    report.metric(
        "rho_ratio",
        rho_ratio,
        "ratio",
        "min over the mix instances of MixPlanner / SweepPlanner objective",
    );

    if args.trace {
        let s = tracer.summary();
        for (metric, span) in [
            ("core.heuristic.plan_ms", "core.heuristic.plan"),
            ("core.sweep.plan_ms", "core.sweep.plan"),
            ("core.sweep_mix.plan_ms", "core.sweep_mix.plan"),
            ("core.mix.plan_unbounded_ms", "core.mix.plan_unbounded"),
            ("core.model.mix_eval_ms", "core.model.mix_eval"),
        ] {
            let st = s.get(span).copied().unwrap_or_default();
            report.metric(
                metric,
                st.p50_ns / 1e6,
                "ms",
                format!("p50, n={}", st.count),
            );
        }
        let per_pass = |k: usize| stats.iter().map(|s| s[k]).sum::<u64>() as f64 / passes as f64;
        report.metric(
            "core.sweep_mix.visited",
            per_pass(0),
            "count",
            "per pass, both instances",
        );
        report.metric(
            "core.sweep_mix.expanded",
            per_pass(1),
            "count",
            "per pass, both instances",
        );
        report.metric(
            "core.sweep_mix.pruned",
            per_pass(2),
            "count",
            "per pass, both instances",
        );
        report.metric(
            "platform.build_s",
            median(&setups),
            "s",
            "the four platforms",
        );
        let t = Instant::now();
        for p in [&c.u100k, &c.grid100k, &c.u10k, &c.grid400] {
            std::hint::black_box(p.fingerprint());
        }
        report.metric(
            "platform.fingerprint_ms",
            secs(t) * 1e3,
            "ms",
            "the four platforms",
        );
        report.metric(
            "trace.overhead_pct",
            0.0,
            "%",
            "spans wrap the calls the untraced run already times",
        );
        dump_spans(args, &tracer);
    }
}
