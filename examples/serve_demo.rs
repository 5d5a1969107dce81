//! Planner-as-a-service, end to end: boot the `adept-serve` daemon
//! in-process, register two tenants on a shared platform catalog, drive
//! their control loops through a demand shift **over the wire**, kill
//! the daemon, restart it on the same journals, and show every tenant
//! resuming exactly where it stopped.
//!
//! ```text
//! cargo run --release --example serve_demo
//! ```
//!
//! The wire protocol is documented frame by frame in
//! `docs/WIRE_API.md`; the operator's guide (journals, recovery,
//! capacity) is `docs/OPERATIONS.md`.

use adept::prelude::*;

fn services() -> Vec<ServiceDef> {
    vec![
        ServiceDef {
            name: "dgemm-310".into(),
            wapp_mflop: Dgemm::new(310).wapp().value(),
            weight: 2.0,
        },
        ServiceDef {
            name: "dgemm-1000".into(),
            wapp_mflop: Dgemm::new(1000).wapp().value(),
            weight: 1.0,
        },
    ]
}

fn main() {
    let journal_dir = std::env::temp_dir().join(format!("adept-serve-demo-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&journal_dir);
    let config = || {
        ServeConfig::new(
            "127.0.0.1:0",
            journal_dir.clone(),
            vec![("lyon40".into(), generator::lyon_cluster(40))],
        )
    };

    // ---- Boot, and size a deployment statelessly first.
    let daemon = Daemon::start(config()).expect("daemon boots");
    println!("daemon listening on {}", daemon.addr());
    let mut client = ServeClient::connect(daemon.addr()).expect("connect");
    let (plan, objective) = client
        .plan("lyon40", &services(), Some(&[2.0, 0.3]))
        .expect("the catalog fits the mix");
    println!(
        "stateless plan: {} servers / {} agents, rho {:.2} req/s (objective {:.3})",
        plan.servers, plan.agents, plan.rho, objective
    );
    // The same question again hits the shared plan cache exactly; a
    // nearby demand misses and is planned cold, then cached too.
    client
        .plan("lyon40", &services(), Some(&[2.0, 0.3]))
        .expect("cached");
    client
        .plan("lyon40", &services(), Some(&[2.1, 0.32]))
        .expect("planned cold");
    let cache = client.status().expect("status").cache;
    println!(
        "plan cache: {} exact hit(s), {} miss(es), {} entries",
        cache.exact_hits, cache.misses, cache.entries
    );

    // ---- Two tenants share the catalog, each with its own loop.
    let tenant_config = SessionConfig {
        demand_alpha: 1.0,
        failure_probability: 0.3,
        failure_seed: 11,
        ..SessionConfig::default()
    };
    for (tenant, demand) in [("acme", [2.0, 0.3]), ("globex", [1.0, 0.6])] {
        let status = client
            .register(tenant, "lyon40", &services(), &demand, &tenant_config)
            .expect("registration plans and claims cleanly");
        println!(
            "registered {tenant:>6}: {} servers for demand {demand:?}",
            status.plan.servers
        );
    }

    // ---- A scripted demand shift, driven over the wire: the heavy
    // service's demand quadruples and sustains for each tenant.
    for (tenant, rates) in [("acme", [2.0, 1.2]), ("globex", [1.0, 2.4])] {
        for tick in 1..=8 {
            let outcome = client.observe(tenant, &rates, &[]).expect("observe");
            if let Some(m) = outcome.migration {
                println!(
                    "{tenant:>6} tick {tick}: migrated ({}; {} changes, {} stages, \
                     {} spare substitutions) -> {} servers",
                    m.reason, m.changes, m.stages, m.substitutions, m.servers_after
                );
            }
        }
    }

    // ---- Preview vs apply: what would a further doubling cost?
    let preview = client.replan("acme", &[2.0, 2.4]).expect("dry run");
    println!(
        "acme replan preview for [2.0, 2.4]: {} changes (+{} nodes, {} reassigned), rho {:.2}",
        preview.changes, preview.added, preview.reassigned, preview.rho
    );

    // ---- Kill the daemon and restart it on the same journal dir.
    let ticks_before = status_of(&mut client, "acme").ticks;
    drop(client);
    daemon.stop();
    println!("daemon killed; restarting on the same journals...");
    let daemon = Daemon::start(config()).expect("daemon reboots");
    assert!(daemon.resume_errors().is_empty(), "all journals resume");
    let mut client = ServeClient::connect(daemon.addr()).expect("reconnect");
    let status = client.status().expect("status");
    for t in &status.tenants {
        println!(
            "resumed {:>6}: tick {}, {} migrations ({}/{} replans warm), {} servers, rho {:.2}",
            t.tenant, t.ticks, t.migrations, t.warm_replans, t.replans, t.plan.servers, t.plan.rho
        );
    }
    assert_eq!(status.tenants.len(), 2, "both tenants resumed");
    assert_eq!(
        status_of(&mut client, "acme").ticks,
        ticks_before,
        "replay rebuilt the loop exactly where it stopped"
    );

    // ---- Drain both tenants and shut down.
    for tenant in ["acme", "globex"] {
        let archived = client.drain(tenant).expect("drain");
        println!("drained {tenant:>6}: journal archived at {archived}");
    }
    client.shutdown().expect("shutdown acknowledged");
    daemon.stop();
    let _ = std::fs::remove_dir_all(&journal_dir);
    println!("done.");
}

fn status_of(client: &mut ServeClient, tenant: &str) -> TenantStatus {
    client
        .status()
        .expect("status")
        .tenants
        .into_iter()
        .find(|t| t.tenant == tenant)
        .expect("tenant is live")
}
