//! Pinned answers of the mix sweep reference on grid-active instances
//! (more than 96 swept nodes, so the composition grid, the k window
//! and the hill climb all run). Each case pins, for the sequential
//! sweep, the objective's bit pattern, the plan length, the servers per
//! service and every `SweepStats` field. The values were taken from the
//! sweep before the waterfill schedule became on-demand and the hill
//! climb started reusing one engine per agent count; both changes must
//! leave every answer and every counter exactly where it was.

use adept_core::planner::{MixObjective, SweepPlanner, SweepStats};
use adept_platform::generator::{heterogenized_cluster, multi_site_grid, uniform_random_cluster};
use adept_platform::{BackgroundLoad, CapacityProbe, MbitRate, MflopRate, Platform};
use adept_workload::{Dgemm, ServiceMix};

fn mix(sizes_and_shares: &[(u32, f64)]) -> ServiceMix {
    ServiceMix::new(
        sizes_and_shares
            .iter()
            .map(|&(size, share)| (Dgemm::new(size).service(), share))
            .collect(),
    )
}

fn mix2() -> ServiceMix {
    mix(&[(310, 2.0), (450, 1.0)])
}

fn mix3() -> ServiceMix {
    mix(&[(220, 2.0), (310, 1.0), (450, 1.0)])
}

fn mix4() -> ServiceMix {
    mix(&[(100, 4.0), (220, 2.0), (310, 1.0), (450, 1.0)])
}

fn hetero(n: usize, seed: u64) -> Platform {
    heterogenized_cluster(
        "orsay",
        n,
        MflopRate(400.0),
        BackgroundLoad::default(),
        CapacityProbe::exact(),
        seed,
    )
}

fn uniform(n: usize, seed: u64) -> Platform {
    uniform_random_cluster("u", n, MflopRate(100.0), MflopRate(400.0), seed)
}

/// What one sequential sweep answered: objective bits, plan length,
/// servers per service (mix order) and the walk's telemetry.
#[derive(Debug, PartialEq)]
struct Pinned {
    objective_bits: u64,
    plan_len: usize,
    servers: Vec<usize>,
    stats: SweepStats,
}

fn stats(
    visited: u64,
    expanded: u64,
    [pruned_by_bound, pruned_by_cap, pruned_by_dominance]: [u64; 3],
    refine_steps: u64,
) -> SweepStats {
    SweepStats {
        visited,
        expanded,
        pruned_by_bound,
        pruned_by_cap,
        pruned_by_dominance,
        refine_steps,
        truncated: false,
    }
}

fn run(platform: &Platform, mix: &ServiceMix, objective: MixObjective) -> Pinned {
    let (plan, stats) = SweepPlanner::sequential()
        .best_mix_plan_stats(platform, mix, objective)
        .expect("the instance seats every service");
    Pinned {
        objective_bits: plan.objective_value.to_bits(),
        plan_len: plan.plan.len(),
        servers: (0..mix.len())
            .map(|j| plan.assignment.count_for(j))
            .collect(),
        stats,
    }
}

fn check(name: &str, platform: &Platform, mix: &ServiceMix, objective: MixObjective, want: Pinned) {
    let got = run(platform, mix, objective);
    assert_eq!(
        got,
        want,
        "{name}: the sweep's answer drifted (objective {} vs pinned {})",
        f64::from_bits(got.objective_bits),
        f64::from_bits(want.objective_bits)
    );
    assert_eq!(
        got.stats.visited,
        got.stats.expanded + got.stats.pruned(),
        "{name}: a visited node left every bucket"
    );
}

#[test]
fn uniform_1200_mix4_weighted_min() {
    let want = Pinned {
        objective_bits: 4653036054747387221,
        plan_len: 291,
        servers: vec![4, 19, 26, 83],
        stats: stats(7695, 6442, [478, 322, 453], 28),
    };
    assert!(want.stats.refine_steps > 0, "the hill climb must move here");
    check(
        "uniform-1200/mix4/wmin",
        &uniform(1200, 7),
        &mix4(),
        MixObjective::WeightedMin,
        want,
    );
}

#[test]
fn two_site_400_mix2_weighted_sum() {
    let platform = multi_site_grid(2, 200, MflopRate(400.0), MbitRate(100.0), MbitRate(10.0), 7);
    let want = Pinned {
        objective_bits: 4645789385311714877,
        plan_len: 199,
        servers: vec![176, 1],
        stats: stats(7917, 4984, [2816, 117, 0], 3),
    };
    check(
        "grid-2x200/mix2/wsum",
        &platform,
        &mix2(),
        MixObjective::WeightedSum,
        want,
    );
}

#[test]
fn heterogenized_150_mix3_weighted_sum() {
    let want = Pinned {
        objective_bits: 4646900617666478889,
        plan_len: 129,
        servers: vec![95, 1, 1],
        stats: stats(3814, 1269, [2419, 126, 0], 1),
    };
    check(
        "hetero-150/mix3/wsum",
        &hetero(150, 3),
        &mix3(),
        MixObjective::WeightedSum,
        want,
    );
}

#[test]
fn heterogenized_400_mix2_weighted_min() {
    let want = Pinned {
        objective_bits: 4648664993755476168,
        plan_len: 393,
        servers: vec![136, 208],
        stats: stats(62521, 54856, [872, 71, 6722], 0),
    };
    check(
        "hetero-400/mix2/wmin",
        &hetero(400, 11),
        &mix2(),
        MixObjective::WeightedMin,
        want,
    );
}

#[test]
fn uniform_400_mix4_weighted_sum() {
    let want = Pinned {
        objective_bits: 4650641787672730261,
        plan_len: 195,
        servers: vec![8, 88, 1, 1],
        stats: stats(12610, 1800, [10183, 627, 0], 9),
    };
    check(
        "uniform-400/mix4/wsum",
        &uniform(400, 2),
        &mix4(),
        MixObjective::WeightedSum,
        want,
    );
}

#[test]
fn three_site_300_mix3_weighted_min() {
    let platform = multi_site_grid(3, 100, MflopRate(400.0), MbitRate(100.0), MbitRate(10.0), 5);
    let want = Pinned {
        objective_bits: 4643625856406682156,
        plan_len: 100,
        servers: vec![14, 20, 62],
        stats: stats(294386, 267356, [19138, 461, 7431], 6),
    };
    check(
        "grid-3x100/mix3/wmin",
        &platform,
        &mix3(),
        MixObjective::WeightedMin,
        want,
    );
}
