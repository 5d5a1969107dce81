//! Inputs and plumbing shared by the workloads: the service mixes, the
//! catalog platforms, the run's scratch directory, the in-process
//! daemon, and the request frames the load generator sends.

use adept_control::controller::ExecutionSample;
use adept_platform::generator::{multi_site_grid, uniform_random_cluster};
use adept_platform::{MbitRate, Mflop, MflopRate, Platform};
use adept_serve::{Daemon, DaemonHandle, Json, ServeConfig, ServiceDef, SessionConfig};
use adept_workload::{Dgemm, ServiceMix, ServiceSpec};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The serving workloads' 3-service DGEMM mix: sizes and weights.
pub const MIX3: [(u32, f64); 3] = [(310, 2.0), (700, 1.0), (1000, 1.0)];

/// Each tenant's demand shape (req/s per service) before scaling.
pub const BASE_DEMAND: [f64; 3] = [2.0, 1.0, 0.8];

pub fn services3() -> Vec<ServiceDef> {
    MIX3.iter()
        .map(|&(n, weight)| ServiceDef {
            name: format!("dgemm-{n}"),
            wapp_mflop: Dgemm::new(n).wapp().value(),
            weight,
        })
        .collect()
}

/// The library-side mix of a wire service list (as the daemon builds
/// it from a `register` or `plan` frame).
pub fn mix_of(services: &[ServiceDef]) -> ServiceMix {
    ServiceMix::new(
        services
            .iter()
            .map(|s| {
                (
                    ServiceSpec::new(s.name.clone(), Mflop(s.wapp_mflop)),
                    s.weight,
                )
            })
            .collect(),
    )
}

/// A uniform 100–400 MFlop/s catalog cluster.
pub fn uniform(name: &str, n: usize, seed: u64) -> Platform {
    uniform_random_cluster(name, n, MflopRate(100.0), MflopRate(400.0), seed)
}

/// A `sites`-site grid (100 Mbit/s inside a site, 10 between sites).
pub fn grid(sites: usize, n: usize, seed: u64) -> Platform {
    multi_site_grid(
        sites,
        n / sites,
        MflopRate(400.0),
        MbitRate(100.0),
        MbitRate(10.0),
        seed,
    )
}

/// A scratch directory inside the working directory, removed on drop.
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn new(label: &str) -> WorkDir {
        let dir = Path::new(".bench_work").join(format!("{label}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("the working directory is writable");
        WorkDir(dir)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Boots a daemon on loopback over `platforms`, journaling in `dir`.
pub fn boot(dir: &Path, platforms: Vec<(String, Platform)>) -> DaemonHandle {
    Daemon::start(ServeConfig::new("127.0.0.1:0", dir, platforms)).expect("the daemon boots")
}

/// Seconds elapsed since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

// ---- Request frames, in the wire format of `docs/WIRE_API.md`.

fn nums(values: &[f64]) -> Json {
    Json::Arr(values.iter().map(|&v| Json::num(v)).collect())
}

fn services_json(services: &[ServiceDef]) -> Json {
    Json::Arr(
        services
            .iter()
            .map(|s| {
                Json::obj(vec![
                    ("name", Json::str(&s.name)),
                    ("wapp_mflop", Json::num(s.wapp_mflop)),
                    ("weight", Json::num(s.weight)),
                ])
            })
            .collect(),
    )
}

fn config_json(c: &SessionConfig) -> Json {
    Json::obj(vec![
        ("drift_threshold", Json::num(c.drift_threshold)),
        ("min_sustained", Json::num(c.min_sustained as f64)),
        ("cooldown_ticks", Json::num(c.cooldown_ticks as f64)),
        ("demand_alpha", Json::num(c.demand_alpha)),
        ("wapp_alpha", Json::num(c.wapp_alpha)),
        ("headroom", Json::num(c.headroom)),
        ("max_changes", Json::num(c.max_changes as f64)),
        ("failure_probability", Json::num(c.failure_probability)),
        ("failure_seed", Json::num(c.failure_seed as f64)),
    ])
}

pub fn register_params(
    tenant: &str,
    platform: &str,
    services: &[ServiceDef],
    demand: &[f64],
    config: &SessionConfig,
) -> Json {
    Json::obj(vec![
        ("tenant", Json::str(tenant)),
        ("platform", Json::str(platform)),
        ("services", services_json(services)),
        ("demand", nums(demand)),
        ("config", config_json(config)),
    ])
}

pub fn observe_params(tenant: &str, rates: &[f64], executions: &[ExecutionSample]) -> Json {
    Json::obj(vec![
        ("tenant", Json::str(tenant)),
        ("rates", nums(rates)),
        (
            "executions",
            Json::Arr(
                executions
                    .iter()
                    .map(|e| {
                        Json::obj(vec![
                            ("service", Json::num(e.service as f64)),
                            ("duration_s", Json::num(e.duration.value())),
                            ("power_mflops", Json::num(e.power.value())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

pub fn plan_params(platform: &str, services: &[ServiceDef], demand: Option<&[f64]>) -> Json {
    let mut params = vec![
        ("platform", Json::str(platform)),
        ("services", services_json(services)),
    ];
    if let Some(d) = demand {
        params.push(("demand", nums(d)));
    }
    Json::obj(params)
}

/// A numeric field of a result object.
pub fn num_field(v: &Json, key: &str) -> f64 {
    v.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN)
}
