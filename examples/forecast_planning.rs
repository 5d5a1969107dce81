//! Closing the paper's future-work loop: **forecast the execution time,
//! then plan.**
//!
//! "In this model we consider that we have a function to know the
//! execution time but we should study another approach with statistical
//! mathematical function to forecast the execution time." (Section 6)
//!
//! We observe a handful of *small* DGEMM runs in the simulator, fit the
//! scaling law, forecast `Wapp` for a size nobody has run, and hand the
//! forecast service to the planner.
//!
//! ```text
//! cargo run --release --example forecast_planning
//! ```

use adept::prelude::*;

fn main() {
    let platform = generator::lyon_cluster(45);

    // 1. Observe small problem sizes (the kind of pilot runs a user can
    //    afford): measure mean service-phase latency in the simulator on
    //    a known node, convert to MFlop samples.
    let mut forecaster = ScalingForecaster::new();
    let cfg = SimConfig::ideal().with_windows(Seconds(1.0), Seconds(8.0));
    let probe_ids: Vec<NodeId> = platform.ids_by_power_desc().to_vec();
    for &n in &[40u32, 80, 120, 160] {
        let svc = Dgemm::new(n).service();
        let plan = builder::star(&probe_ids[0..2]);
        let out = measure_throughput(&platform, &plan, &svc, 1, &cfg);
        let power = platform.power(probe_ids[1]);
        forecaster.observe(ScalingSample {
            size: n as f64,
            duration: Seconds(out.mean_service_time),
            power,
        });
        println!(
            "observed dgemm-{n}: service phase {:.6}s on a {power} node",
            out.mean_service_time
        );
    }

    // 2. Fit and forecast the big size.
    let fit = forecaster.fit().expect("four sizes observed");
    println!(
        "\nfitted Wapp(n) = {:.3e} · n^{:.3}  (log-log r = {:.4})",
        fit.coefficient, fit.exponent, fit.r
    );
    let target = 310.0;
    let forecast = fit.service("dgemm-310-forecast", target);
    let truth = Dgemm::new(310).wapp();
    println!(
        "forecast Wapp(310) = {:.2} MFlop (ground truth {:.2}, {:+.2}% off)",
        forecast.wapp.value(),
        truth.value(),
        100.0 * (forecast.wapp.value() - truth.value()) / truth.value()
    );

    // 3. Plan with the forecast service and compare against planning with
    //    the true Wapp.
    let planned = HeuristicPlanner::paper()
        .plan(&platform, &forecast, ClientDemand::Unbounded)
        .expect("45 nodes suffice");
    let oracle = HeuristicPlanner::paper()
        .plan(
            &platform,
            &Dgemm::new(310).service(),
            ClientDemand::Unbounded,
        )
        .expect("45 nodes suffice");
    let params = ModelParams::from_platform(&platform);
    let truth_svc = Dgemm::new(310).service();
    println!(
        "\nplan from forecast: {} -> {:.1} req/s under the true workload",
        HierarchyStats::of(&planned),
        params.evaluate(&platform, &planned, &truth_svc).rho
    );
    println!(
        "plan from oracle:   {} -> {:.1} req/s",
        HierarchyStats::of(&oracle),
        params.evaluate(&platform, &oracle, &truth_svc).rho
    );
}
