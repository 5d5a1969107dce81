//! The homogeneous-cluster optimal of the authors' prior work \[10\]
//! (Chouhan, Dail, Caron, Vivien, *Automatic middleware deployment planning
//! on clusters*, IJHPCA 2006).
//!
//! \[10\] proves that on a homogeneous cluster a **complete spanning d-ary
//! tree** maximizes steady-state throughput, and derives the optimal degree
//! from the platform model. We reproduce it by sweeping the degree and
//! evaluating each CSD tree under the Section 3 model — exactly the
//! comparison Table 4 makes ("Homo. Deg." column).
//!
//! On a heterogeneous platform the planner still runs (nodes are sorted
//! most-powerful-first so the strongest nodes become interior agents), but
//! its optimality guarantee only holds for homogeneous clusters.

use super::{resolve_params, Planner, PlannerError};
use crate::model::ModelParams;
use adept_hierarchy::builder::csd_tree;
use adept_hierarchy::DeploymentPlan;
use adept_platform::Platform;
use adept_workload::{ClientDemand, ServiceSpec};

/// Planner producing the best complete spanning d-ary tree.
#[derive(Debug, Clone, Copy, Default)]
pub struct HomogeneousCsdPlanner {
    /// Optional model-parameter override (defaults to the platform's
    /// network and the Lyon 2008 calibration).
    pub params: Option<ModelParams>,
}

impl HomogeneousCsdPlanner {
    /// The degree the model considers optimal for this platform/service,
    /// together with its predicted throughput. Ties prefer the smaller
    /// degree — with equal throughput, the shallower fan-out uses fewer
    /// agent levels ("the preferred deployment is the one using the least
    /// resources", Section 4: a tie at lower degree never uses more nodes).
    ///
    /// # Errors
    /// [`PlannerError::NotEnoughNodes`] below two nodes.
    pub fn optimal_degree(
        &self,
        platform: &Platform,
        service: &ServiceSpec,
    ) -> Result<(usize, f64), PlannerError> {
        let n = platform.node_count();
        if n < 2 {
            return Err(PlannerError::NotEnoughNodes {
                needed: 2,
                available: n,
            });
        }
        let params = resolve_params(self.params, platform);
        let nodes = platform.ids_by_power_desc();
        let mut best = (1usize, f64::NEG_INFINITY);
        for d in 1..n {
            let plan = csd_tree(nodes, d);
            let report = params.evaluate(platform, &plan, service);
            if report.rho > best.1 + 1e-12 {
                best = (d, report.rho);
            }
        }
        Ok(best)
    }
}

impl Planner for HomogeneousCsdPlanner {
    fn name(&self) -> &str {
        "homogeneous-csd"
    }

    fn plan(
        &self,
        platform: &Platform,
        service: &ServiceSpec,
        _demand: ClientDemand,
    ) -> Result<DeploymentPlan, PlannerError> {
        let (degree, _) = self.optimal_degree(platform, service)?;
        Ok(csd_tree(platform.ids_by_power_desc(), degree))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adept_platform::generator::lyon_cluster;
    use adept_workload::Dgemm;

    #[test]
    fn dgemm10_on_21_nodes_gives_degree_1() {
        // Paper Table 4 row 1: tiny requests are agent-limited; one agent
        // and one server are optimal.
        let platform = lyon_cluster(21);
        let planner = HomogeneousCsdPlanner::default();
        let (d, _) = planner
            .optimal_degree(&platform, &Dgemm::new(10).service())
            .unwrap();
        assert_eq!(d, 1);
        let plan = planner
            .plan(
                &platform,
                &Dgemm::new(10).service(),
                ClientDemand::Unbounded,
            )
            .unwrap();
        assert_eq!(plan.len(), 2);
    }

    #[test]
    fn dgemm1000_on_21_nodes_gives_star() {
        // Paper Table 4 row 4: huge requests are server-limited; the star
        // (degree 20) wins.
        let platform = lyon_cluster(21);
        let (d, _) = HomogeneousCsdPlanner::default()
            .optimal_degree(&platform, &Dgemm::new(1000).service())
            .unwrap();
        assert_eq!(d, 20);
    }

    #[test]
    fn dgemm100_on_25_nodes_gives_small_degree() {
        // Paper Table 4 row 2 reports degree 2.
        let platform = lyon_cluster(25);
        let (d, _) = HomogeneousCsdPlanner::default()
            .optimal_degree(&platform, &Dgemm::new(100).service())
            .unwrap();
        assert_eq!(d, 2, "intermediate regime favors a deep low-degree tree");
    }

    #[test]
    fn dgemm310_on_45_nodes_gives_intermediate_degree() {
        // Paper Table 4 row 3 reports an intermediate degree (22 for the
        // homogeneous model). The exact value depends on calibration; the
        // shape requirement is: strictly between 2 and the star.
        let platform = lyon_cluster(45);
        let (d, _) = HomogeneousCsdPlanner::default()
            .optimal_degree(&platform, &Dgemm::new(310).service())
            .unwrap();
        assert!(d > 2 && d < 44, "expected intermediate degree, got {d}");
    }

    #[test]
    fn too_small_platform_errors() {
        let platform = lyon_cluster(1);
        assert!(HomogeneousCsdPlanner::default()
            .optimal_degree(&platform, &Dgemm::new(10).service())
            .is_err());
    }
}
