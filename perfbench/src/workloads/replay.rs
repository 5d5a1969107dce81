//! The traced replay of `observe` traffic, layer by layer.
//!
//! Each tenant gets shadows built the way the daemon builds its
//! session: a second [`TenantSession`], a bare [`Journal`], and a bare
//! [`Controller`]. Every recorded request is replayed through the wire
//! codec, the shadow session, the journal and the controller; a firing
//! round is further replayed through the online reviser, the plan diff
//! and the GoDiet migration compiler and executor on the round's
//! before-state. Each call is a span whose parent is the span of the
//! layer that makes that call inside the daemon.

use crate::fixture::mix_of;
use crate::report::Report;
use crate::trace::{SpanId, Tracer};
use crate::workloads::Sent;
use adept_control::controller::ExecutionSample;
use adept_control::{Controller, ControllerConfig, Hysteresis, Observations, TriggerPolicy};
use adept_core::planner::{MixPlanner, OnlinePlanner};
use adept_godiet::{GoDiet, MigrationScript};
use adept_hierarchy::PlanDiff;
use adept_platform::{MflopRate, Platform, Seconds};
use adept_serve::wire::{decode_response, ok_response};
use adept_serve::{Journal, Json, Record, Request, ServiceDef, SessionConfig, TenantSession};
use adept_workload::MixDemand;
use std::path::Path;
use std::sync::Arc;

/// A tenant as the load generator registers it.
#[derive(Debug, Clone)]
pub struct TenantDef {
    pub id: String,
    pub demand: Vec<f64>,
    pub config: SessionConfig,
}

fn godiet_for(config: &SessionConfig) -> GoDiet {
    if config.failure_probability > 0.0 {
        GoDiet::with_failures(config.failure_probability, config.failure_seed)
    } else {
        GoDiet::default()
    }
}

/// One tenant's shadows.
pub struct Shadow {
    session: TenantSession,
    journal: Journal,
    controller: Controller,
    godiet: GoDiet,
    online: OnlinePlanner,
    platform: Arc<Platform>,
}

impl Shadow {
    /// Registers the shadows; the session registration is timed as
    /// `serve.session.register`.
    pub fn new(
        tracer: &mut Tracer,
        dir: &Path,
        tenant: &TenantDef,
        platform_name: &str,
        platform: &Arc<Platform>,
        services: &[ServiceDef],
    ) -> Shadow {
        let sessions = dir.join("sessions");
        let journals = dir.join("journals");
        std::fs::create_dir_all(&journals).expect("the shadow directory is writable");
        let (session, _) = tracer.span("serve.session.register", 0, None, || {
            TenantSession::register(
                &sessions,
                &tenant.id,
                platform_name,
                Arc::clone(platform),
                services,
                tenant.demand.clone(),
                &tenant.config,
                None,
                true,
            )
            .expect("the shadow session registers")
        });
        let journal = Journal::create(
            &journals,
            &tenant.id,
            &Record::Register {
                tenant: tenant.id.clone(),
                platform: platform_name.to_string(),
                fingerprint: platform.fingerprint(),
                services: services.to_vec(),
                demand: tenant.demand.clone(),
                config: tenant.config.clone(),
            },
        )
        .expect("the shadow journal is created");
        let mix = mix_of(services);
        let demand = MixDemand::targets(tenant.demand.clone());
        let initial = MixPlanner::default()
            .plan_mix(platform, &mix, &demand)
            .expect("the registered demand plans");
        let c = &tenant.config;
        let online = OnlinePlanner {
            max_changes: c.max_changes as usize,
            ..OnlinePlanner::default()
        };
        let controller = Controller::new(
            Arc::clone(platform),
            mix,
            initial.plan,
            initial.assignment,
            &demand,
            Box::new(online),
            godiet_for(c),
            ControllerConfig {
                triggers: vec![TriggerPolicy::ForecastDrift {
                    threshold: c.drift_threshold,
                }],
                hysteresis: Hysteresis {
                    min_sustained: c.min_sustained,
                    cooldown_ticks: c.cooldown_ticks,
                },
                demand_alpha: c.demand_alpha,
                wapp_alpha: c.wapp_alpha,
                headroom: c.headroom,
                warm_start: true,
            },
        );
        Shadow {
            session,
            journal,
            controller,
            godiet: godiet_for(c),
            online,
            platform: Arc::clone(platform),
        }
    }
}

fn f64s(v: &Json, key: &str) -> Vec<f64> {
    v.get(key)
        .and_then(Json::as_arr)
        .map(|a| a.iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default()
}

fn executions(params: &Json) -> Vec<ExecutionSample> {
    params
        .get("executions")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .map(|e| ExecutionSample {
            service: e.get("service").and_then(Json::as_f64).unwrap_or(0.0) as usize,
            duration: Seconds(e.get("duration_s").and_then(Json::as_f64).unwrap_or(0.0)),
            power: MflopRate(e.get("power_mflops").and_then(Json::as_f64).unwrap_or(0.0)),
        })
        .collect()
}

/// Replays the wire codec on one request/response pair, as children of
/// the request's round-trip span. Returns the frame sizes in bytes.
pub fn replay_wire(
    tracer: &mut Tracer,
    id: u64,
    rt: SpanId,
    method: &str,
    params: &Json,
    result: &Json,
) -> (usize, usize) {
    let request = Request {
        id,
        method: method.to_string(),
        params: params.clone(),
    };
    let (line, _) = tracer.span("serve.wire.encode", id, Some(rt), || request.encode());
    tracer.span("serve.wire.parse", id, Some(rt), || {
        Request::parse(&line).expect("an encoded frame parses")
    });
    let result = result.clone();
    let (response, _) = tracer.span("serve.wire.respond", id, Some(rt), || {
        ok_response(id, result)
    });
    let _ = tracer.span("serve.wire.decode", id, Some(rt), || {
        decode_response(&response).expect("an encoded response decodes")
    });
    (line.len() + 1, response.len() + 1)
}

/// Totals of a replay, beyond what the spans hold.
#[derive(Debug, Default)]
pub struct ReplayTotals {
    pub ticks: u64,
    pub request_bytes: usize,
    pub response_bytes: usize,
    pub journal_bytes: u64,
    pub mismatches: u64,
    pub changes: Vec<f64>,
    pub diff_len: Vec<f64>,
    pub stages: u64,
    pub substitutions: u64,
}

/// Replays one recorded `observe` request through every layer below the
/// daemon. `rt` is the span of the live round trip.
pub fn replay_observe(
    tracer: &mut Tracer,
    shadow: &mut Shadow,
    id: u64,
    rt: SpanId,
    sent: &Sent,
    totals: &mut ReplayTotals,
) {
    let Ok(result) = &sent.result else {
        return;
    };
    let (req_bytes, resp_bytes) = replay_wire(tracer, id, rt, "observe", &sent.params, result);
    totals.request_bytes += req_bytes;
    totals.response_bytes += resp_bytes;
    totals.ticks += 1;

    let rates = f64s(&sent.params, "rates");
    let execs = executions(&sent.params);
    let (rates2, execs2) = (rates.clone(), execs.clone());
    let (outcome, session_span) = tracer.span("serve.session.observe", id, Some(rt), || {
        shadow.session.observe(rates2, execs2)
    });
    let live_migrated = result.get("migrated").and_then(Json::as_bool) == Some(true);
    match outcome {
        Ok(o) if o.migration.is_some() == live_migrated => {}
        _ => totals.mismatches += 1,
    }

    let record = Record::Tick {
        rates: rates.clone(),
        executions: execs.clone(),
    };
    let size_before = file_len(shadow.journal.path());
    tracer.span("serve.journal.append", id, Some(session_span), || {
        shadow
            .journal
            .append(&record)
            .expect("the shadow journal appends")
    });
    totals.journal_bytes += file_len(shadow.journal.path()).saturating_sub(size_before);

    let before_plan = shadow.controller.running().clone();
    let before_assignment = shadow.controller.assignment().clone();
    let replans = shadow.controller.replans();
    let obs = Observations {
        rates,
        executions: execs,
    };
    let (migration, tick_span) = tracer.span("control.tick", id, Some(session_span), || {
        shadow.controller.tick(&obs)
    });
    if shadow.controller.replans() > replans {
        tracer.spans[tick_span].name = "control.round";
    }
    let migration = match migration {
        Ok(m) => m,
        Err(_) => {
            totals.mismatches += 1;
            return;
        }
    };
    if migration.is_some() != live_migrated {
        totals.mismatches += 1;
    }
    let Some(m) = migration else {
        return;
    };
    let platform = Arc::clone(&shadow.platform);
    let mix = shadow.controller.mix().clone();
    let (replan, revise_span) = tracer.span("core.online.revise", id, Some(tick_span), || {
        shadow.online.replan_mix(
            &platform,
            &before_plan,
            &mix,
            &before_assignment,
            &m.planned_demand,
        )
    });
    if let Ok(r) = &replan {
        totals.changes.push(r.changes() as f64);
    }
    let (diff, _) = tracer.span("hierarchy.diff", id, Some(revise_span), || {
        PlanDiff::between(&before_plan, &m.replan.plan)
    });
    totals.diff_len.push(diff.len() as f64);
    let (script, _) = tracer.span("godiet.compile", id, Some(tick_span), || {
        MigrationScript::compile(&before_plan, &m.replan.plan)
    });
    let Ok(script) = script else {
        totals.mismatches += 1;
        return;
    };
    let (report, _) = tracer.span("godiet.migrate", id, Some(tick_span), || {
        shadow.godiet.migrate(&platform, &before_plan, &script)
    });
    match report {
        Ok(r) if r.substitutions == m.report.substitutions && r.stages == m.report.stages => {
            totals.stages += r.stages as u64;
            totals.substitutions += r.substitutions.len() as u64;
        }
        _ => totals.mismatches += 1,
    }
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

/// Reports the per-layer metrics of an `observe` replay.
pub fn report_layers(report: &mut Report, tracer: &Tracer, totals: &ReplayTotals, floor_us: f64) {
    let s = tracer.summary();
    let get = |name: &str| s.get(name).copied().unwrap_or_default();
    let ticks = totals.ticks.max(1) as f64;
    let n = |name: &str| format!("p50, n={}", get(name).count);
    for (metric, span) in [
        ("serve.wire.encode_us", "serve.wire.encode"),
        ("serve.wire.parse_us", "serve.wire.parse"),
        ("serve.wire.respond_us", "serve.wire.respond"),
        ("serve.wire.decode_us", "serve.wire.decode"),
        ("serve.journal.append_us", "serve.journal.append"),
        ("control.quiet_tick_us", "control.tick"),
        ("hierarchy.diff_us", "hierarchy.diff"),
        ("godiet.compile_us", "godiet.compile"),
    ] {
        report.metric(metric, get(span).p50_ns / 1e3, "us", n(span));
    }
    for (metric, span) in [
        ("control.round_ms", "control.round"),
        ("core.online.revise_ms", "core.online.revise"),
        ("godiet.migrate_ms", "godiet.migrate"),
    ] {
        report.metric(metric, get(span).p50_ns / 1e6, "ms", n(span));
    }
    let round = get("control.round");
    report.metric(
        "control.round_self_ms",
        round.self_mean_ns / 1e6,
        "ms",
        format!(
            "mean of round minus revise/compile/migrate replays, n={}",
            round.count
        ),
    );
    let observe = get("serve.session.observe");
    report.metric(
        "serve.session.observe_us",
        observe.p50_ns / 1e3,
        "us",
        n("serve.session.observe"),
    );
    report.metric(
        "serve.session.observe_p99_us",
        observe.p99_ns / 1e3,
        "us",
        format!("p99, n={}", observe.count),
    );
    report.metric(
        "serve.session.self_us",
        observe.self_mean_ns / 1e3,
        "us",
        "mean of session observe minus journal append and controller tick",
    );
    let rt = get("serve.daemon.round_trip");
    report.metric(
        "serve.daemon.self_us",
        rt.self_mean_ns / 1e3,
        "us",
        format!(
            "mean of round trip minus session observe and wire codec, n={}",
            rt.count
        ),
    );
    report.metric(
        "serve.daemon.floor_us",
        floor_us,
        "us",
        "median status round trip, no tenants, 2 connections",
    );
    report.metric(
        "serve.wire.request_bytes",
        totals.request_bytes as f64 / ticks,
        "bytes",
        "mean per observe frame",
    );
    report.metric(
        "serve.wire.response_bytes",
        totals.response_bytes as f64 / ticks,
        "bytes",
        "mean per observe response",
    );
    report.metric(
        "serve.journal.bytes_per_tick",
        totals.journal_bytes as f64 / ticks,
        "bytes",
        "mean tick record",
    );
    let register = get("serve.session.register");
    report.metric(
        "serve.session.register_ms",
        register.mean_ns() / 1e6,
        "ms",
        format!("mean, n={}", register.count),
    );
    let mean = |v: &[f64]| crate::stats::mean(v);
    report.metric(
        "core.online.changes",
        mean(&totals.changes),
        "count",
        "mean per migration",
    );
    report.metric(
        "hierarchy.diff_len",
        mean(&totals.diff_len),
        "count",
        "mean per migration",
    );
    report.metric(
        "godiet.stages",
        totals.stages as f64,
        "count",
        "total over the replay",
    );
    report.metric(
        "godiet.substitutions",
        totals.substitutions as f64,
        "count",
        "total over the replay",
    );
    report.check(
        totals.mismatches == 0,
        format!(
            "{} replayed ticks diverged from the live run",
            totals.mismatches
        ),
    );
}
