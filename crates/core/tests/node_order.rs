//! The planners' node order is derived from the platform's memoized
//! power order instead of a fresh sort per planning run. These tests
//! hold the derived order to the keyed full sort it replaces —
//! (scheduling power desc, id asc) — on randomized platforms, including
//! the shapes where the derivation has to do real work: all-equal
//! powers, ulp-adjacent powers whose scores collide, multi-site grids,
//! and a calibration override that breaks monotonicity and must take
//! the fallback. Pinned ρ bit patterns and server counts, taken from
//! the sort-per-run code, catch any drift in the planners' answers.

use adept_core::model::throughput::sch_pow;
use adept_core::planner::{HeuristicPlanner, MixPlanner, OnlinePlanner, Planner};
use adept_core::ModelParams;
use adept_platform::generator::{
    heterogenized_cluster, lyon_cluster, multi_site_grid, uniform_random_cluster,
};
use adept_platform::{
    BackgroundLoad, CapacityProbe, Mbit, MbitRate, Mflop, MflopRate, MiddlewareCalibration,
    Network, NodeId, Platform,
};
use adept_workload::{ClientDemand, Dgemm, MixDemand, ServiceMix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The order `sorted_nodes` is specified by, computed independently:
/// every node scored with the scalar `sch_pow` at `n − 1` children,
/// then a full sort on (score bits desc, id asc).
fn reference_order(params: &ModelParams, platform: &Platform) -> Vec<NodeId> {
    let d = platform.node_count().saturating_sub(1).max(1);
    let mut keyed: Vec<(u64, NodeId)> = platform
        .nodes()
        .iter()
        .map(|r| (sch_pow(params, r.power, d).to_bits(), r.id))
        .collect();
    keyed.sort_by_key(|&(bits, id)| (std::cmp::Reverse(bits), id));
    keyed.into_iter().map(|(_, id)| id).collect()
}

/// A single-site platform whose `i`-th node has power `powers[i]`.
fn cluster_of(powers: &[f64]) -> Platform {
    let mut b = Platform::builder(Network::homogeneous(MbitRate(100.0)));
    let s = b.add_site("x");
    for (i, &w) in powers.iter().enumerate() {
        b.add_node(format!("x-{i}"), MflopRate(w), s).unwrap();
    }
    b.build().unwrap()
}

/// Randomized platforms covering every shape the derivation treats
/// differently.
fn platforms(rng: &mut StdRng) -> Vec<(String, Platform)> {
    let mut out = Vec::new();
    for round in 0..6u64 {
        let seed = rng.gen_range(0..u64::MAX / 2);
        let n = rng.gen_range(2..400usize);
        out.push((
            format!("uniform/{round}"),
            uniform_random_cluster("u", n, MflopRate(50.0), MflopRate(900.0), seed),
        ));
        out.push((
            format!("hetero/{round}"),
            heterogenized_cluster(
                "h",
                n,
                MflopRate(400.0),
                BackgroundLoad::default(),
                CapacityProbe::exact(),
                seed,
            ),
        ));
        out.push((
            format!("grid/{round}"),
            multi_site_grid(
                rng.gen_range(1..5usize),
                rng.gen_range(1..60usize),
                MflopRate(400.0),
                MbitRate(1000.0),
                MbitRate(10.0),
                seed,
            ),
        ));
        out.push((format!("lyon/{round}"), lyon_cluster(n)));
        // Powers a few ulps apart: their scores mostly collide, so runs
        // of equal scores span distinct powers. Ascending with the id,
        // so within such a run the id order is the reverse of the power
        // order and must be restored.
        let base = rng.gen_range(100.0..900.0f64).to_bits();
        let ulps: Vec<f64> = (0..n as u64)
            .map(|i| f64::from_bits(base + i / rng.gen_range(1..4u64)))
            .collect();
        out.push((format!("ulp/{round}"), cluster_of(&ulps)));
        // A handful of distinct powers shuffled over many nodes.
        let levels: Vec<f64> = (0..rng.gen_range(1..6usize))
            .map(|_| rng.gen_range(100.0..900.0))
            .collect();
        let few: Vec<f64> = (0..n)
            .map(|_| levels[rng.gen_range(0..levels.len())])
            .collect();
        out.push((format!("few-levels/{round}"), cluster_of(&few)));
    }
    out
}

#[test]
fn sorted_nodes_matches_the_keyed_full_sort() {
    let mut rng = StdRng::seed_from_u64(0x5eed);
    for (name, platform) in platforms(&mut rng) {
        for params in [
            ModelParams::from_platform(&platform),
            ModelParams::from_platform(&platform).scalarized(),
            ModelParams::new(MbitRate(rng.gen_range(1.0..10_000.0))),
        ] {
            let expected = reference_order(&params, &platform);
            // Cold memo, then filled memo, then a clone carrying it.
            assert_eq!(
                HeuristicPlanner::sorted_nodes(&params, &platform),
                expected,
                "{name}: cold memo"
            );
            assert_eq!(
                HeuristicPlanner::sorted_nodes(&params, &platform),
                expected,
                "{name}: filled memo"
            );
            assert_eq!(
                HeuristicPlanner::sorted_nodes(&params, &platform.clone()),
                expected,
                "{name}: clone"
            );
        }
    }
}

#[test]
fn ulp_adjacent_powers_collide_and_are_reordered_by_id() {
    // Guards the test above: the ulp platforms really do produce runs
    // of equal scores over distinct powers, where the memo's power
    // order and the score-then-id order disagree.
    let base = 400.0f64.to_bits();
    let powers: Vec<f64> = (0..64).map(|i| f64::from_bits(base + i)).collect();
    let platform = cluster_of(&powers);
    let params = ModelParams::from_platform(&platform);
    let sorted = HeuristicPlanner::sorted_nodes(&params, &platform);
    assert_ne!(sorted, platform.ids_by_power_desc());
    assert_eq!(sorted, reference_order(&params, &platform));
}

#[test]
fn non_monotone_calibration_takes_the_fallback_and_still_matches() {
    // A negative fixed reply cost (and no per-child cost) makes the
    // agent's compute term negative, so the cycle grows with power and
    // the score falls: scores along the power order increase, which the
    // O(n) check must catch. A large request message keeps the cycle
    // positive. `MiddlewareCalibration::validate` rejects this
    // calibration, but `ModelParams` does not enforce it.
    let mut calibration = MiddlewareCalibration::lyon_2008();
    calibration.agent.wfix = Mflop(-0.3);
    calibration.agent.wsel = Mflop(0.0);
    calibration.agent.sreq = Mbit(1.0);
    let mut rng = StdRng::seed_from_u64(7);
    for round in 0..8u64 {
        let n = rng.gen_range(2..300usize);
        let platform = uniform_random_cluster("u", n, MflopRate(200.0), MflopRate(900.0), round);
        let params = ModelParams::from_platform(&platform).with_calibration(calibration);
        let expected = reference_order(&params, &platform);
        assert_eq!(
            expected.last(),
            platform.ids_by_power_desc().first(),
            "round {round}: the override must invert the power order"
        );
        assert_eq!(
            HeuristicPlanner::sorted_nodes(&params, &platform),
            expected,
            "round {round}"
        );
    }
}

fn mix2() -> ServiceMix {
    ServiceMix::new(vec![
        (Dgemm::new(310).service(), 1.0),
        (Dgemm::new(1000).service(), 2.0),
    ])
}

/// The fixed instances the pins are taken on.
fn pinned_platforms() -> Vec<(&'static str, Platform)> {
    vec![
        (
            "hetero200",
            heterogenized_cluster(
                "h",
                200,
                MflopRate(400.0),
                BackgroundLoad::default(),
                CapacityProbe::exact(),
                13,
            ),
        ),
        (
            "grid3x40",
            multi_site_grid(3, 40, MflopRate(400.0), MbitRate(1000.0), MbitRate(10.0), 7),
        ),
        (
            "uniform2000",
            uniform_random_cluster("u", 2000, MflopRate(100.0), MflopRate(900.0), 5),
        ),
        ("lyon60", lyon_cluster(60)),
    ]
}

/// `(label, ρ bits, server count)` for every pinned planner answer.
fn answers() -> Vec<(String, u64, usize)> {
    let mix = mix2();
    let mut out = Vec::new();
    for (name, platform) in pinned_platforms() {
        let params = ModelParams::from_platform(&platform);
        for (tag, demand) in [
            ("bounded", MixDemand::targets(vec![4.0, 1.5])),
            ("unbounded", MixDemand::unbounded(2)),
        ] {
            let got = MixPlanner::default()
                .plan_mix(&platform, &mix, &demand)
                .unwrap();
            out.push((
                format!("{name}/mix-{tag}"),
                got.report.rho.to_bits(),
                got.plan.server_count(),
            ));
        }
        let svc = Dgemm::new(310).service();
        for (tag, demand) in [
            ("unbounded", ClientDemand::Unbounded),
            ("target", ClientDemand::target(20.0)),
        ] {
            let plan = HeuristicPlanner::paper()
                .plan(&platform, &svc, demand)
                .unwrap();
            out.push((
                format!("{name}/heuristic-{tag}"),
                params.evaluate(&platform, &plan, &svc).rho.to_bits(),
                plan.server_count(),
            ));
        }
        let running = MixPlanner::default()
            .plan_mix(&platform, &mix, &MixDemand::targets(vec![2.0, 1.0]))
            .unwrap();
        let replan = OnlinePlanner::default()
            .replan_mix(
                &platform,
                &running.plan,
                &mix,
                &running.assignment,
                &MixDemand::targets(vec![6.0, 3.0]),
            )
            .unwrap();
        out.push((
            format!("{name}/replan-mix"),
            replan.report.rho.to_bits(),
            replan.plan.server_count(),
        ));
    }
    out
}

/// Values produced by the sort-per-run node order, before the memo.
const PINNED: &[(&str, u64, usize)] = &[
    ("hetero200/mix-bounded", 4612586589889473830, 9),
    ("hetero200/mix-unbounded", 4629194781408854126, 199),
    ("hetero200/heuristic-unbounded", 4647556804342725569, 131),
    ("hetero200/heuristic-target", 4626360251492476968, 3),
    ("hetero200/replan-mix", 4613937586268622273, 11),
    ("grid3x40/mix-bounded", 4612586598994186497, 9),
    ("grid3x40/mix-unbounded", 4625736761285311832, 118),
    ("grid3x40/heuristic-unbounded", 4641528143229831258, 40),
    ("grid3x40/heuristic-target", 4626360371638498428, 3),
    ("grid3x40/replan-mix", 4613937600494546403, 11),
    ("uniform2000/mix-bounded", 4613243070030495853, 5),
    ("uniform2000/mix-unbounded", 4648769511377110880, 1811),
    ("uniform2000/heuristic-unbounded", 4654553309883462105, 110),
    ("uniform2000/heuristic-target", 4629185841625429547, 2),
    ("uniform2000/replan-mix", 4616983858699023161, 8),
    ("lyon60/mix-bounded", 4612586589889473830, 9),
    ("lyon60/mix-unbounded", 4625589906993490758, 59),
    ("lyon60/heuristic-unbounded", 4645279022855047958, 56),
    ("lyon60/heuristic-target", 4626360251492476968, 3),
    ("lyon60/replan-mix", 4613937586268622273, 11),
];

#[test]
fn planner_answers_are_pinned() {
    let got = answers();
    assert_eq!(got.len(), PINNED.len());
    for ((label, rho_bits, servers), &(want_label, want_bits, want_servers)) in
        got.iter().zip(PINNED)
    {
        assert_eq!(label, want_label);
        assert_eq!(
            (*rho_bits, *servers),
            (want_bits, want_servers),
            "{label}: ρ {} vs pinned {}",
            f64::from_bits(*rho_bits),
            f64::from_bits(want_bits)
        );
    }
}
