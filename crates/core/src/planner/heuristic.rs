//! The paper's deployment heuristic — Section 4, Algorithm 1.
//!
//! The heuristic builds the hierarchy greedily from nodes sorted by
//! scheduling power:
//!
//! 1. **Sort** (steps 1–2): every node is scored as an agent with
//!    `n_nodes − 1` children (`calc_sch_pow`) and nodes are sorted
//!    descending (`sort_nodes`). The head of the list becomes the root.
//! 2. **Degenerate case** (steps 3–7): if the root's scheduling power with
//!    a *single* child is already below `min(service power of one server,
//!    client demand)` — `min_ser_cv` — the deployment is one agent and one
//!    server: "if more servers are added to the node, scheduling power
//!    will decrease".
//! 3. **Greedy growth** (steps 9–39): repeatedly take the next node from
//!    the sorted list and try two actions, committing whichever yields the
//!    higher modelled throughput:
//!    * **attach** it as a server under the agent that keeps the highest
//!      post-attachment scheduling power (`supported_children` reasoning —
//!      the placement that does the least harm to Eq. 14);
//!    * **convert** (`shift_nodes`, steps 16–17): promote the strongest
//!      current server to an agent and grow children under it while that
//!      improves throughput (the inner while of steps 18–24).
//!
//!    Growth stops when nodes run out, the client demand is met, or
//!    throughput starts decreasing (step 10's `diff` test).
//!
//! ## Fidelity notes
//!
//! The published pseudo-code leaves several points ambiguous (its loop
//! variables `diff`/`throughput_diff` are both defined as "minimum
//! throughput among ρsched, ρservice and client demand", and the outer
//! loop's direction test cannot be taken literally). This implementation
//! resolves them as follows, keeping the paper's documented *behaviour*
//! (Table 4 and Section 5.3 shapes):
//!
//! * actions are compared by full model evaluation (Eq. 16) of the
//!   resulting plan, and only strict improvements are committed — this
//!   realizes both "throughput of the hierarchy starts decreasing" and the
//!   least-resources preference;
//! * conversion is evaluated with lookahead (convert **and** fill) before
//!   being compared against plain attachment, mirroring the inner while
//!   loop of steps 18–24;
//! * `shift_nodes`'s victim is the most powerful current server, which is
//!   the first server the sorted order produced.
//!
//! With `rebalance = true` the greedy result is post-processed by the
//! iterative bottleneck-removal pass of the authors' earlier work \[7\]
//! (see [`improve`]) — an extension, off by default.
//!
//! ## Probe cost
//!
//! Every growth step probes candidate moves under the model. With the
//! default [`EvalStrategy::Incremental`] a probe is an O(log n)
//! delta+undo on [`IncrementalEval`]; with [`EvalStrategy::FullClone`]
//! (the pre-incremental baseline, kept for the `eval_strategy` ablation
//! bench) it clones the plan and re-runs Eq. 13–16 from scratch, O(n).
//! Both commit identical moves on a uniform network; see
//! [`EvalStrategy`] for the parity contract.
//!
//! ## Heterogeneous communication
//!
//! On a multi-site platform (per-site-pair network, site-aware pricing
//! on) the growth loop runs on the site-aware engine: attach targets are
//! ranked by **(power, link) jointly** — the full post-attach cycle
//! including the real agent↔candidate link — instead of power alone, and
//! `shift_nodes` conversions steal concrete children so every moved link
//! is priced at its true bandwidth. The `hetero_scaling` bench and
//! `site_aware_heuristic_beats_min_b_scalarization_across_sites` pin the
//! quality gap over the historical min-bandwidth scalarization (force it
//! back with [`ModelParams::scalarized`] as the `params` override).

// audit: allow-file(unwrap, "heuristic builder invariants documented in each
// expect; the Table 4 parity suite covers the build paths")
use super::realize::{best_attach_agent_site_aware, realize_from_eval, AttachHeap};
use super::{improve, resolve_params, EvalStrategy, Planner, PlannerError};
use crate::model::batch;
use crate::model::throughput::{hier_ser_pow, sch_pow};
use crate::model::{IncrementalEval, ModelParams};
use adept_hierarchy::{DeploymentPlan, Slot};
use adept_platform::{NodeId, Platform};
use adept_workload::{ClientDemand, ServiceSpec};
use std::collections::HashSet;

/// Relative tolerance for "strictly better" comparisons; keeps the greedy
/// from oscillating on floating-point noise.
const EPS: f64 = 1e-9;

/// The paper's heterogeneous deployment heuristic (Algorithm 1).
#[derive(Debug, Clone, Copy)]
pub struct HeuristicPlanner {
    /// Optional model-parameter override.
    pub params: Option<ModelParams>,
    /// Enable the `shift_nodes` server→agent conversion (paper default).
    /// Disabling it degrades the heuristic to pure star growth — the
    /// `ablation_shift` bench quantifies the difference.
    pub allow_conversion: bool,
    /// Apply the iterative bottleneck-removal pass of \[7\] afterwards
    /// (extension; not part of Algorithm 1).
    pub rebalance: bool,
    /// How candidate moves are evaluated (incremental by default).
    pub eval_strategy: EvalStrategy,
}

impl Default for HeuristicPlanner {
    fn default() -> Self {
        Self {
            params: None,
            allow_conversion: true,
            rebalance: false,
            eval_strategy: EvalStrategy::default(),
        }
    }
}

impl HeuristicPlanner {
    /// Paper-faithful configuration (conversion on, no rebalance).
    pub fn paper() -> Self {
        Self::default()
    }

    /// Algorithm 1 followed by the \[7\] improvement pass.
    pub fn with_rebalance() -> Self {
        Self {
            rebalance: true,
            ..Self::default()
        }
    }

    /// Star-growth-only ablation (no `shift_nodes`).
    pub fn without_conversion() -> Self {
        Self {
            allow_conversion: false,
            ..Self::default()
        }
    }

    /// Replaces the probe evaluation strategy (ablation hook).
    pub fn with_eval_strategy(mut self, strategy: EvalStrategy) -> Self {
        self.eval_strategy = strategy;
        self
    }

    /// Steps 1–2: nodes sorted by `calc_sch_pow` with `n_nodes − 1`
    /// children, descending. Ties break toward lower node id (stable).
    ///
    /// The order is derived in O(n) from the platform's memoized
    /// [power order](Platform::ids_by_power_desc): the scores are computed
    /// batched over the powers in that order
    /// ([`batch::sch_pow_shared_degree_into`]), and with a non-negative
    /// calibration `sch_pow` at a fixed degree is non-decreasing in power,
    /// so the scores come out non-increasing. Only runs of bit-equal
    /// scores then need re-sorting by id. An O(n) check guards the
    /// monotonicity (callers may override [`ModelParams`] with any
    /// calibration): if any adjacent score increases, the full keyed sort
    /// ([`batch::sort_rate_desc_id_asc`]) runs instead, so the result is
    /// the (score desc, id asc) order either way.
    pub fn sorted_nodes(params: &ModelParams, platform: &Platform) -> Vec<NodeId> {
        let d = platform.node_count().saturating_sub(1).max(1);
        let order = platform.ids_by_power_desc();
        let powers: Vec<f64> = order.iter().map(|&id| platform.power(id).value()).collect();
        let mut rates = Vec::new();
        batch::sch_pow_shared_degree_into(params, &powers, d, &mut rates);
        let mut keyed: Vec<(f64, NodeId)> = rates.into_iter().zip(order.iter().copied()).collect();
        let key = |&(rate, _): &(f64, NodeId)| batch::descending_key(rate);
        if keyed.windows(2).all(|w| key(&w[0]) >= key(&w[1])) {
            for run in keyed.chunk_by_mut(|a, b| key(a) == key(b)) {
                run.sort_unstable_by_key(|&(_, id)| id);
            }
        } else {
            batch::sort_rate_desc_id_asc(&mut keyed);
        }
        keyed.into_iter().map(|(_, id)| id).collect()
    }
}

/// The agent of `plan` that keeps the highest scheduling power after
/// receiving one more child. Ties break toward the lower slot.
fn best_attach_agent(params: &ModelParams, platform: &Platform, plan: &DeploymentPlan) -> Slot {
    plan.agents()
        .max_by(|&a, &b| {
            let pa = sch_pow(params, platform.power(plan.node(a)), plan.degree(a) + 1);
            let pb = sch_pow(params, platform.power(plan.node(b)), plan.degree(b) + 1);
            pa.partial_cmp(&pb)
                .expect("rates are finite")
                .then(b.cmp(&a))
        })
        .expect("plans always contain the root agent")
}

/// [`best_attach_agent`] over the incremental mirror — same rule, same
/// tie-breaking, no plan access. Shared with the online re-planner.
pub(crate) fn best_attach_agent_in_eval(params: &ModelParams, eval: &IncrementalEval) -> Slot {
    eval.agents()
        .max_by(|&a, &b| {
            let pa = sch_pow(params, eval.power(a), eval.degree(a) + 1);
            let pb = sch_pow(params, eval.power(b), eval.degree(b) + 1);
            pa.partial_cmp(&pb)
                .expect("rates are finite")
                .then(b.cmp(&a))
        })
        .expect("plans always contain the root agent")
}

/// [`best_attach_agent_in_eval`] for a child living on `child_site`: on
/// a site-aware evaluator this is [`best_attach_agent_site_aware`]'s
/// joint (power, link) ranking instead of power alone. Shared with the
/// online re-planner.
pub(crate) fn best_attach_agent_in_eval_for(
    params: &ModelParams,
    eval: &IncrementalEval,
    child_site: adept_platform::SiteId,
) -> Slot {
    if !eval.is_site_aware() {
        return best_attach_agent_in_eval(params, eval);
    }
    best_attach_agent_site_aware(eval, child_site)
}

/// Attaches `node` as a server under the best agent; returns the updated
/// plan (full-clone probe path).
fn attach_best(
    params: &ModelParams,
    platform: &Platform,
    plan: &DeploymentPlan,
    node: NodeId,
) -> DeploymentPlan {
    let best_agent = best_attach_agent(params, platform, plan);
    let mut next = plan.clone();
    next.add_server(best_agent, node)
        .expect("unused node under an agent always inserts");
    next
}

/// The `shift_nodes` conversion: promote the strongest server to an agent,
/// rebalance all degrees over the enlarged agent set (waterfill), then
/// grow servers from `queue` while the modelled throughput improves.
/// Returns `(plan, queue nodes consumed, final rho)`, or `None` when no
/// conversion is possible.
///
/// `power_order` is the planner's node list sorted strongest-first —
/// computed once per planning run (`sorted_nodes` ordering coincides with
/// power order because `sch_pow` at fixed degree is strictly increasing in
/// power) and filtered here by membership, instead of re-collecting and
/// re-sorting the agent/server lists on every stalled-attachment probe.
fn try_conversion(
    params: &ModelParams,
    platform: &Platform,
    plan: &DeploymentPlan,
    service: &ServiceSpec,
    demand: ClientDemand,
    queue: &std::collections::VecDeque<NodeId>,
    power_order: &[NodeId],
) -> Option<(DeploymentPlan, usize, f64)> {
    let server_set: HashSet<NodeId> = plan.servers().map(|s| plan.node(s)).collect();
    let agent_set: HashSet<NodeId> = plan.agents().map(|s| plan.node(s)).collect();
    let mut servers: Vec<NodeId> = power_order
        .iter()
        .copied()
        .filter(|n| server_set.contains(n))
        .collect();
    let victim = servers.remove(0);
    if servers.is_empty() {
        return None;
    }
    let agents: Vec<NodeId> = power_order
        .iter()
        .copied()
        .filter(|n| agent_set.contains(n) || *n == victim)
        .collect();

    let mut p = super::realize::realize_balanced(params, platform, &agents, &servers)?;
    let mut consumed = 0usize;
    let mut rho = params.evaluate(platform, &p, service).rho;
    while let Some(&more) = queue.get(consumed) {
        if demand.satisfied_by(rho) {
            break;
        }
        let grown = attach_best(params, platform, &p, more);
        let grown_rho = params.evaluate(platform, &grown, service).rho;
        if grown_rho > rho * (1.0 + EPS) {
            p = grown;
            rho = grown_rho;
            consumed += 1;
        } else {
            break;
        }
    }
    Some((p, consumed, rho))
}

/// The `shift_nodes` conversion as pure deltas on the incremental engine:
/// promote the strongest server, rebalance degrees toward the enlarged
/// agent set, then grow servers from `queue` while ρ improves.
///
/// The rebalance is itself incremental: the pre-conversion degrees are
/// already the greedy max-min waterfill of the old agent set (every
/// attach went to the argmax-`sch_pow` agent), and enlarging the set by
/// one agent only ever *moves children into the newcomer* — each step
/// takes a child from the currently binding (lowest `sch_pow`) agent as
/// long as the newcomer's post-move power exceeds that minimum. That is
/// O((n/k) log k) instead of re-waterfilling all n children.
///
/// On acceptance (`ρ` strictly beats `current`) the deltas are committed
/// and `Some(consumed, rho)` returns; otherwise every delta is undone and
/// `None` returns, leaving the engine bit-identical to its input state.
/// Throughput under Eq. 13–16 depends only on the role/degree/power
/// multiset, so never materializing a tree — the O(n) realize+rebuild
/// that used to dominate the growth loop — cannot change ρ.
#[allow(clippy::too_many_arguments)] // a probe needs the whole growth-loop state
fn try_conversion_deltas(
    params: &ModelParams,
    platform: &Platform,
    eval: &mut IncrementalEval,
    demand: ClientDemand,
    queue: &std::collections::VecDeque<NodeId>,
    current: f64,
    attach_heap: &mut AttachHeap,
    victim: Slot,
    server_order: &mut Vec<Slot>,
) -> Option<(usize, f64)> {
    debug_assert_eq!(eval.pending_deltas(), 0, "probe from a committed state");

    if eval.server_count() < 2 {
        return None;
    }
    debug_assert_eq!(
        Some(victim),
        eval.servers().max_by(|&a, &b| {
            let pa = eval.power(a).value();
            let pb = eval.power(b).value();
            pa.partial_cmp(&pb)
                .expect("powers are finite")
                .then_with(|| eval.node(b).cmp(&eval.node(a)))
        }),
        "victim must be the strongest server (lowest node id on ties)"
    );

    // Promote + steal-rebalance (shared with the mix planner's
    // conversion; bails out with all deltas unwound when the conversion
    // cannot keep every level populated).
    if !super::realize::promote_and_steal(params, eval, victim) {
        return None;
    }

    // Grow servers under the rebalanced hierarchy while ρ improves (the
    // inner while of steps 18–24), all still on the delta stack.
    attach_heap.rebuild(params, eval);
    let mut rho = eval.rho();
    let mut consumed = 0usize;
    while let Some(&more) = queue.get(consumed) {
        if demand.satisfied_by(rho) {
            break;
        }
        let agent = attach_heap.best_for(params, eval, platform.site_of(more));
        let slot = eval
            .add_server(agent, more, platform.power(more))
            .expect("queue nodes are unused");
        let grown_rho = eval.rho();
        if grown_rho > rho * (1.0 + EPS) {
            rho = grown_rho;
            consumed += 1;
            attach_heap.update(params, eval, agent);
            server_order.push(slot);
        } else {
            eval.undo();
            break;
        }
    }

    if rho > current * (1.0 + EPS) {
        eval.commit();
        attach_heap.rebuild(params, eval);
        Some((consumed, rho))
    } else {
        eval.undo_all();
        server_order.truncate(server_order.len() - consumed);
        attach_heap.rebuild(params, eval);
        None
    }
}

/// The greedy growth loop on the incremental engine: the deployment lives
/// entirely inside [`IncrementalEval`] (roles, degrees, powers — all the
/// model sees) and is realized into a tree exactly once, at the end.
/// Attach probes are O(log n) delta+undo; conversions are delta batches
/// ([`try_conversion_deltas`]).
fn grow_incremental(
    params: &ModelParams,
    platform: &Platform,
    service: &ServiceSpec,
    demand: ClientDemand,
    seed: DeploymentPlan,
    mut queue: std::collections::VecDeque<NodeId>,
    allow_conversion: bool,
) -> DeploymentPlan {
    let mut eval = IncrementalEval::from_plan(params, platform, &seed, service);
    let mut current = eval.rho();
    let mut attach_heap = AttachHeap::new(params, &eval);
    // Servers in attachment order. The queue is power-descending, so the
    // strongest remaining server is always the earliest entry that has
    // not yet been promoted — conversion victims are read off the front
    // instead of scanning every slot.
    let mut server_order: Vec<Slot> = vec![Slot(1)]; // the seed pair's server
    let mut next_victim = 0usize;

    while !queue.is_empty() && !demand.satisfied_by(current) {
        let next_node = *queue.front().expect("queue checked non-empty");

        // Preferred action: plain attachment (steps 19–23's "take next
        // node from sorted_nodes[] as a server"). While this improves,
        // conversion is never cheaper in resources, so commit directly.
        // Site-aware platforms rank the attach target by (power, link)
        // jointly — see `AttachHeap::best_for`.
        let agent = attach_heap.best_for(params, &eval, platform.site_of(next_node));
        let slot = eval
            .add_server(agent, next_node, platform.power(next_node))
            .expect("queue nodes are unused");
        let attach_rho = eval.rho();
        if attach_rho > current * (1.0 + EPS) {
            eval.commit();
            attach_heap.update(params, &eval, agent);
            server_order.push(slot);
            current = attach_rho;
            queue.pop_front();
            continue;
        }
        eval.undo();

        // Attachment stalled: the hierarchy is at its sched/service
        // crossing. Try the shift_nodes conversion (steps 16–24) as a
        // delta batch; see `grow_full_clone` for the algorithmic intent.
        if allow_conversion && next_victim < server_order.len() {
            let victim = server_order[next_victim];
            if let Some((consumed, rho)) = try_conversion_deltas(
                params,
                platform,
                &mut eval,
                demand,
                &queue,
                current,
                &mut attach_heap,
                victim,
                &mut server_order,
            ) {
                next_victim += 1;
                current = rho;
                for _ in 0..consumed {
                    queue.pop_front();
                }
                continue;
            }
        }
        break;
    }
    realize_from_eval(&eval)
}

/// The pre-incremental growth loop: every probe clones the plan and
/// re-runs the full model (ablation baseline).
#[allow(clippy::too_many_arguments)]
fn grow_full_clone(
    params: &ModelParams,
    platform: &Platform,
    service: &ServiceSpec,
    demand: ClientDemand,
    mut plan: DeploymentPlan,
    mut queue: std::collections::VecDeque<NodeId>,
    allow_conversion: bool,
    power_order: &[NodeId],
) -> DeploymentPlan {
    let mut current = params.evaluate(platform, &plan, service).rho;

    while !queue.is_empty() && !demand.satisfied_by(current) {
        let next_node = *queue.front().expect("queue checked non-empty");

        // Preferred action: plain attachment (steps 19–23's "take next
        // node from sorted_nodes[] as a server"). While this improves,
        // conversion is never cheaper in resources, so commit directly.
        let attach_plan = attach_best(params, platform, &plan, next_node);
        let attach_rho = params.evaluate(platform, &attach_plan, service).rho;
        if attach_rho > current * (1.0 + EPS) {
            plan = attach_plan;
            current = attach_rho;
            queue.pop_front();
            continue;
        }

        // Attachment stalled: the hierarchy is at its sched/service
        // crossing. Try the shift_nodes conversion (steps 16–24):
        // promote the strongest server to an agent, redistribute the
        // children over the enlarged agent set (the conversion is
        // pointless if the binding agent keeps its degree — the
        // paper's own Figure 6 deployment has root degree 9 on 200
        // nodes, so shift_nodes necessarily rebalances), then grow
        // servers under the new level while that improves (the inner
        // while of steps 18–24). The whole batch is committed only if
        // it strictly beats the pre-conversion hierarchy.
        if allow_conversion && plan.server_count() >= 2 {
            if let Some(candidate) = try_conversion(
                params,
                platform,
                &plan,
                service,
                demand,
                &queue,
                power_order,
            ) {
                let (p, consumed, rho) = candidate;
                if rho > current * (1.0 + EPS) {
                    plan = p;
                    current = rho;
                    for _ in 0..consumed {
                        queue.pop_front();
                    }
                    continue;
                }
            }
        }
        break;
    }
    plan
}

impl Planner for HeuristicPlanner {
    fn name(&self) -> &str {
        if self.rebalance {
            "heuristic+rebalance"
        } else if self.allow_conversion {
            "heuristic"
        } else {
            "heuristic-no-conversion"
        }
    }

    fn plan(
        &self,
        platform: &Platform,
        service: &ServiceSpec,
        demand: ClientDemand,
    ) -> Result<DeploymentPlan, PlannerError> {
        let n = platform.node_count();
        if n < 2 {
            return Err(PlannerError::NotEnoughNodes {
                needed: 2,
                available: n,
            });
        }
        let params = resolve_params(self.params, platform);

        // Steps 1–2.
        let sorted = Self::sorted_nodes(&params, platform);

        // Steps 3–5.
        let root = sorted[0];
        let vir_max_sch_pow = sch_pow(&params, platform.power(root), 1);
        let vir_max_ser_pow = hier_ser_pow(&params, service, [platform.power(sorted[1])]);
        let min_ser_cv = vir_max_ser_pow.min(demand.rate());

        let mut plan = DeploymentPlan::agent_server(root, sorted[1]);

        // Steps 6–7: agent-limited even at one child.
        if vir_max_sch_pow < min_ser_cv {
            return Ok(plan);
        }

        // Steps 9–39: greedy growth.
        let queue: std::collections::VecDeque<NodeId> = sorted[2..].iter().copied().collect();
        plan = match self.eval_strategy {
            EvalStrategy::Incremental => grow_incremental(
                &params,
                platform,
                service,
                demand,
                plan,
                queue,
                self.allow_conversion,
            ),
            EvalStrategy::FullClone => grow_full_clone(
                &params,
                platform,
                service,
                demand,
                plan,
                queue,
                self.allow_conversion,
                &sorted,
            ),
        };

        // Extension: the [7] bottleneck-removal repair pass.
        if self.rebalance {
            plan = improve::rebalance_with(
                &params,
                platform,
                &plan,
                service,
                demand,
                self.eval_strategy,
            );
        }
        Ok(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adept_hierarchy::validate::validate_relaxed;
    use adept_platform::generator::{heterogenized_cluster, lyon_cluster};
    use adept_platform::{BackgroundLoad, CapacityProbe, MflopRate};
    use adept_workload::Dgemm;

    fn rho_of(platform: &Platform, plan: &DeploymentPlan, svc: &ServiceSpec) -> f64 {
        ModelParams::from_platform(platform)
            .evaluate(platform, plan, svc)
            .rho
    }

    #[test]
    fn dgemm10_yields_one_agent_one_server() {
        // Paper Table 4 row 1 (degree 1) and the Figure 2–3 finding.
        let platform = lyon_cluster(21);
        let plan = HeuristicPlanner::paper()
            .plan(
                &platform,
                &Dgemm::new(10).service(),
                ClientDemand::Unbounded,
            )
            .unwrap();
        assert_eq!(plan.agent_count(), 1);
        assert_eq!(plan.server_count(), 1);
    }

    #[test]
    fn dgemm1000_yields_star_with_all_nodes() {
        // Paper Table 4 row 4 and Section 5.3: "Heuristic generated a star
        // deployment for this problem size."
        let platform = lyon_cluster(21);
        let plan = HeuristicPlanner::paper()
            .plan(
                &platform,
                &Dgemm::new(1000).service(),
                ClientDemand::Unbounded,
            )
            .unwrap();
        assert_eq!(plan.agent_count(), 1);
        assert_eq!(plan.server_count(), 20);
    }

    #[test]
    fn dgemm310_on_45_nodes_uses_intermediate_degree() {
        // Paper Table 4 row 3: the heuristic picks a large intermediate
        // degree (33 in the paper) and achieves a high fraction of optimal.
        let platform = lyon_cluster(45);
        let plan = HeuristicPlanner::paper()
            .plan(
                &platform,
                &Dgemm::new(310).service(),
                ClientDemand::Unbounded,
            )
            .unwrap();
        let root_degree = plan.degree(plan.root());
        assert!(
            root_degree > 10 && root_degree < 44,
            "expected intermediate root degree, got {root_degree}"
        );
    }

    #[test]
    fn demand_caps_growth() {
        // With a modest target the heuristic must not use all 30 nodes.
        let platform = lyon_cluster(30);
        let svc = Dgemm::new(1000).service();
        let unbounded = HeuristicPlanner::paper()
            .plan(&platform, &svc, ClientDemand::Unbounded)
            .unwrap();
        let capped = HeuristicPlanner::paper()
            .plan(&platform, &svc, ClientDemand::target(1.0))
            .unwrap();
        assert!(capped.len() < unbounded.len());
        assert!(rho_of(&platform, &capped, &svc) >= 1.0);
    }

    #[test]
    fn heuristic_beats_or_matches_star_and_balanced_on_heterogeneous() {
        // The Figure 6 headline: automatic > star, automatic > balanced.
        use crate::planner::baselines::{BalancedPlanner, StarPlanner};
        let platform = heterogenized_cluster(
            "orsay",
            60,
            MflopRate(400.0),
            BackgroundLoad::default(),
            CapacityProbe::exact(),
            42,
        );
        let svc = Dgemm::new(310).service();
        let auto = HeuristicPlanner::paper()
            .plan(&platform, &svc, ClientDemand::Unbounded)
            .unwrap();
        let star = StarPlanner
            .plan(&platform, &svc, ClientDemand::Unbounded)
            .unwrap();
        let balanced = BalancedPlanner { mid_agents: 7 }
            .plan(&platform, &svc, ClientDemand::Unbounded)
            .unwrap();
        let (a, s, b) = (
            rho_of(&platform, &auto, &svc),
            rho_of(&platform, &star, &svc),
            rho_of(&platform, &balanced, &svc),
        );
        assert!(a >= s - 1e-9, "automatic {a} must beat star {s}");
        assert!(a >= b - 1e-9, "automatic {a} must beat balanced {b}");
    }

    #[test]
    fn plans_are_structurally_valid() {
        let platform = heterogenized_cluster(
            "x",
            33,
            MflopRate(400.0),
            BackgroundLoad::default(),
            CapacityProbe::exact(),
            5,
        );
        for size in [10u32, 100, 310, 1000] {
            let plan = HeuristicPlanner::paper()
                .plan(
                    &platform,
                    &Dgemm::new(size).service(),
                    ClientDemand::Unbounded,
                )
                .unwrap();
            assert!(
                validate_relaxed(&plan).is_empty(),
                "dgemm-{size} plan invalid"
            );
        }
    }

    #[test]
    fn rebalance_never_hurts() {
        let platform = lyon_cluster(45);
        let svc = Dgemm::new(310).service();
        let plain = HeuristicPlanner::paper()
            .plan(&platform, &svc, ClientDemand::Unbounded)
            .unwrap();
        let rebalanced = HeuristicPlanner::with_rebalance()
            .plan(&platform, &svc, ClientDemand::Unbounded)
            .unwrap();
        assert!(rho_of(&platform, &rebalanced, &svc) >= rho_of(&platform, &plain, &svc) - 1e-9);
    }

    #[test]
    fn single_node_platform_is_an_error() {
        let platform = lyon_cluster(1);
        assert!(matches!(
            HeuristicPlanner::paper().plan(
                &platform,
                &Dgemm::new(10).service(),
                ClientDemand::Unbounded
            ),
            Err(PlannerError::NotEnoughNodes { .. })
        ));
    }

    #[test]
    fn sorted_nodes_is_power_descending_on_uniform_network() {
        let platform = heterogenized_cluster(
            "x",
            20,
            MflopRate(400.0),
            BackgroundLoad::default(),
            CapacityProbe::exact(),
            3,
        );
        let params = ModelParams::from_platform(&platform);
        let sorted = HeuristicPlanner::sorted_nodes(&params, &platform);
        for w in sorted.windows(2) {
            assert!(
                platform.power(w[0]).value() >= platform.power(w[1]).value(),
                "sched-power order must match power order on a uniform network"
            );
        }
    }

    #[test]
    fn incremental_and_full_clone_strategies_agree() {
        // The probe strategy must not change the planner's decisions: on
        // the Table 4 scenarios (homogeneous, all DGEMM sizes) and on
        // heterogenized platforms both paths must commit the same moves.
        let hetero = heterogenized_cluster(
            "orsay",
            55,
            MflopRate(400.0),
            BackgroundLoad::default(),
            CapacityProbe::exact(),
            13,
        );
        let homo = lyon_cluster(45);
        for platform in [&homo, &hetero] {
            for size in [10u32, 100, 310, 1000] {
                let svc = Dgemm::new(size).service();
                for planner in [
                    HeuristicPlanner::paper(),
                    HeuristicPlanner::with_rebalance(),
                    HeuristicPlanner::without_conversion(),
                ] {
                    let inc = planner
                        .with_eval_strategy(EvalStrategy::Incremental)
                        .plan(platform, &svc, ClientDemand::Unbounded)
                        .unwrap();
                    let full = planner
                        .with_eval_strategy(EvalStrategy::FullClone)
                        .plan(platform, &svc, ClientDemand::Unbounded)
                        .unwrap();
                    let ri = rho_of(platform, &inc, &svc);
                    let rf = rho_of(platform, &full, &svc);
                    assert!(
                        (ri - rf).abs() <= 1e-9 * rf.max(1.0),
                        "dgemm-{size} {}: incremental {ri} vs full {rf}",
                        planner.name()
                    );
                }
            }
        }
    }

    #[test]
    fn strategies_agree_under_demand_caps() {
        // The two strategies may realize differently-shaped (but
        // throughput-identical) trees; resource usage and the achieved
        // rate must match.
        let platform = lyon_cluster(30);
        let svc = Dgemm::new(1000).service();
        for target in [0.5, 1.0, 3.0] {
            let inc = HeuristicPlanner::paper()
                .plan(&platform, &svc, ClientDemand::target(target))
                .unwrap();
            let full = HeuristicPlanner::paper()
                .with_eval_strategy(EvalStrategy::FullClone)
                .plan(&platform, &svc, ClientDemand::target(target))
                .unwrap();
            assert_eq!(inc.len(), full.len(), "target {target}: node counts");
            assert_eq!(
                inc.agent_count(),
                full.agent_count(),
                "target {target}: agent counts"
            );
            let (ri, rf) = (
                rho_of(&platform, &inc, &svc),
                rho_of(&platform, &full, &svc),
            );
            assert!(
                (ri - rf).abs() <= 1e-9 * rf.max(1.0),
                "target {target}: rho {ri} vs {rf}"
            );
        }
    }

    #[test]
    fn site_aware_heuristic_beats_min_b_scalarization_across_sites() {
        // The tentpole's acceptance bar: on a cross-site scenario the
        // site-aware growth loop (joint power+link attach ranking,
        // concrete-child conversions, per-link ρ) must strictly beat the
        // historical min-bandwidth scalarization, judged under the
        // per-link model both times.
        use adept_platform::generator::multi_site_grid;
        use adept_platform::MbitRate;
        for seed in [11u64, 29] {
            let platform = multi_site_grid(
                2,
                20,
                MflopRate(400.0),
                MbitRate(100.0),
                MbitRate(5.0),
                seed,
            );
            let svc = Dgemm::new(310).service();
            let params = ModelParams::from_platform(&platform);
            let aware = HeuristicPlanner::paper()
                .plan(&platform, &svc, ClientDemand::Unbounded)
                .unwrap();
            let scalar = HeuristicPlanner {
                params: Some(params.scalarized()),
                ..HeuristicPlanner::paper()
            }
            .plan(&platform, &svc, ClientDemand::Unbounded)
            .unwrap();
            let rho_aware = params.evaluate(&platform, &aware, &svc).rho;
            let rho_scalar = params.evaluate(&platform, &scalar, &svc).rho;
            assert!(
                rho_aware > rho_scalar * 1.02,
                "seed {seed}: site-aware {rho_aware} must beat scalarized {rho_scalar}"
            );
        }
    }

    #[test]
    fn site_aware_plans_stay_structurally_valid() {
        use adept_platform::generator::multi_site_grid;
        use adept_platform::MbitRate;
        let platform = multi_site_grid(3, 12, MflopRate(400.0), MbitRate(100.0), MbitRate(10.0), 5);
        for size in [10u32, 310, 1000] {
            for planner in [
                HeuristicPlanner::paper(),
                HeuristicPlanner::with_rebalance(),
                HeuristicPlanner::without_conversion(),
            ] {
                let plan = planner
                    .plan(
                        &platform,
                        &Dgemm::new(size).service(),
                        ClientDemand::Unbounded,
                    )
                    .unwrap();
                assert!(
                    validate_relaxed(&plan).is_empty(),
                    "dgemm-{size} {} plan invalid",
                    planner.name()
                );
            }
        }
    }

    #[test]
    fn planner_names_reflect_configuration() {
        assert_eq!(HeuristicPlanner::paper().name(), "heuristic");
        assert_eq!(
            HeuristicPlanner::with_rebalance().name(),
            "heuristic+rebalance"
        );
        assert_eq!(
            HeuristicPlanner::without_conversion().name(),
            "heuristic-no-conversion"
        );
    }
}
