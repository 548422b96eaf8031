//! `plan_jobs`: plan one job of every model in the zoo — `co_optimize`
//! (MCMC strategy search alternating with `TopologyFinder`), then
//! `build_forwarding_plan` on the resulting fabric. No flow simulation.

use crate::digest::Digest;
use crate::inputs::{DEGREE, LINK_BPS};
use crate::trace::Tracer;
use crate::{Checked, Layers, Workload};
use topoopt_core::topology_finder::{topology_finder, TopologyFinderInput};
use topoopt_core::{co_optimize, AlternatingConfig, CoOptResult};
use topoopt_graph::matching::MatchingAlgo;
use topoopt_models::{build_model, DnnModel, ModelKind, ModelPreset};
use topoopt_rdma::{build_forwarding_plan, ForwardingPlan};
use topoopt_strategy::{
    estimate_iteration_time, extract_traffic, search_strategy, IterationEstimate,
    ParallelizationStrategy, TopologyView,
};

/// Inputs of the planning workload.
#[derive(Debug, Clone)]
pub struct PlanJobs {
    /// One model per zoo kind.
    pub models: Vec<DnnModel>,
    /// Servers of each job.
    pub servers: usize,
    /// Co-optimizer configuration (the MCMC seed comes from the run's seed).
    pub cfg: AlternatingConfig,
}

/// One planned job.
pub struct Planned {
    /// Strategy, fabric and estimate from `co_optimize`.
    pub co: CoOptResult,
    /// The fabric's NPAR forwarding plan.
    pub plan: ForwardingPlan,
}

impl PlanJobs {
    /// Every zoo model at its shared-cluster preset, on `servers` servers,
    /// with the MCMC chains seeded from `seed`.
    pub fn setup(servers: usize, seed: u64) -> Self {
        let models =
            ModelKind::all().iter().map(|&k| build_model(k, ModelPreset::Shared)).collect();
        let mut cfg = AlternatingConfig::new(DEGREE, LINK_BPS);
        cfg.mcmc.seed = seed;
        // Run the whole round budget (no early convergence exit), so the
        // work per job does not depend on where the seeded search converges.
        cfg.convergence_threshold = f64::NEG_INFINITY;
        PlanJobs { models, servers, cfg }
    }

    /// `co_optimize`'s round sequence, re-issued one public call at a time so
    /// each lands in its own layer span. Returns the final estimate.
    fn replay_rounds(
        &self,
        model: &DnnModel,
        tracer: &Tracer,
        layers: &mut Layers,
    ) -> IterationEstimate {
        let (n, cfg) = (self.servers, &self.cfg);
        let mut view =
            TopologyView::FullMesh { n, per_server_bps: cfg.degree as f64 * cfg.link_bps };
        let mut initial = ParallelizationStrategy::hybrid_embeddings_round_robin(model, n);
        let mut best: Option<IterationEstimate> = None;
        for round in 0..cfg.max_rounds {
            let mut mcmc = cfg.mcmc;
            mcmc.seed = cfg.mcmc.seed.wrapping_add(round as u64);
            let search = tracer.span("strategy.search", || {
                search_strategy(model, initial.clone(), &view, &cfg.compute, &mcmc)
            });
            *layers.entry("strategy.search.evaluated".into()).or_insert(0.0) +=
                search.evaluated as f64;
            *layers.entry("strategy.search.accepted".into()).or_insert(0.0) +=
                search.accepted as f64;
            let strategy = search.strategy;
            let demands = tracer.span("strategy.traffic", || {
                extract_traffic(model, &strategy, cfg.compute.gpus_per_server)
            });
            let network = tracer.span("core.topology_finder", || {
                topology_finder(&TopologyFinderInput {
                    num_servers: n,
                    degree: cfg.degree,
                    link_bps: cfg.link_bps,
                    demands: &demands,
                    totient: cfg.totient,
                    matching: MatchingAlgo::Auto,
                    mp_shortest_path: false,
                    availability_aware: false,
                })
            });
            let (new_view, estimate) = tracer.span("strategy.traffic", || {
                let v = TopologyView::from_graph(&network.graph, n);
                let e = estimate_iteration_time(model, &strategy, &v, &cfg.compute);
                (v, e)
            });
            let improved = best
                .as_ref()
                .is_none_or(|b| estimate.total_s < b.total_s * (1.0 - cfg.convergence_threshold));
            if best.as_ref().is_none_or(|b| estimate.total_s < b.total_s) {
                best = Some(estimate);
            }
            if !improved && round > 0 {
                break;
            }
            view = new_view;
            initial = strategy;
        }
        best.expect("at least one round runs")
    }
}

impl Workload for PlanJobs {
    type Output = Vec<Planned>;

    fn measure(&self, tracer: &Tracer) -> Vec<Planned> {
        self.models
            .iter()
            .map(|m| {
                let co =
                    tracer.span("core.co_optimize", || co_optimize(m, self.servers, &self.cfg));
                let plan = tracer.span("rdma.forwarding", || {
                    build_forwarding_plan(&co.network.graph, self.servers, &co.network.routing)
                });
                Planned { co, plan }
            })
            .collect()
    }

    fn check(&self, out: &Vec<Planned>) -> Checked {
        let n = self.servers;
        let mut d = Digest::default();
        let mut failed = 0u64;
        let (mut rounds, mut rules, mut conflicts, mut relayed) = (0usize, 0usize, 0usize, 0.0);
        for Planned { co, plan } in out {
            let g = &co.network.graph;
            let all_pairs = (0..n).all(|s| (0..n).all(|t| s == t || plan.has_connection(s, t)));
            let ok = g.is_strongly_connected()
                && g.respects_degree(self.cfg.degree)
                && co.network.routing.validate_against(g).is_ok()
                && plan.conflicts.is_empty()
                && all_pairs
                && co.estimate.total_s.is_finite();
            if !ok {
                failed += 1;
            }
            let e = &co.estimate;
            d.float(e.compute_s).float(e.allreduce_s).float(e.mp_s).float(e.total_s);
            d.count(co.rounds).count(co.network.degree_allreduce).count(co.network.degree_mp);
            for (_, edge) in g.edges() {
                d.count(edge.src).count(edge.dst).float(edge.capacity_bps);
            }
            for (&server, server_rules) in &plan.rules {
                d.count(server).count(server_rules.len());
                for r in server_rules {
                    d.count(r.final_dst).count(r.src).count(r.next_hop);
                }
            }
            for (&(s, t), &k) in &plan.relays {
                d.count(s).count(t).count(k);
            }
            d.count(plan.conflicts.len());
            rounds += co.rounds;
            rules += plan.num_rules();
            conflicts += plan.conflicts.len();
            relayed += plan.relayed_fraction();
        }
        let counters = Layers::from([
            ("core.co_optimize.rounds".to_string(), rounds as f64),
            ("rdma.forwarding.rules".to_string(), rules as f64),
            ("rdma.forwarding.conflicts".to_string(), conflicts as f64),
            ("rdma.forwarding.relayed_fraction".to_string(), relayed / out.len().max(1) as f64),
        ]);
        Checked { ops: out.len() as u64, failed, digest: d.value(), counters }
    }

    /// Split `co_optimize` into strategy search, traffic extraction and
    /// estimation, and `TopologyFinder`; a replay whose final estimate is not
    /// bit-identical to `co_optimize`'s counts as a failed check.
    fn replay(&self, out: &Vec<Planned>, _measured: &Layers, tracer: &Tracer) -> (Layers, u64) {
        let mut layers = Layers::new();
        let mut failed = 0u64;
        for (model, planned) in self.models.iter().zip(out) {
            let e = self.replay_rounds(model, tracer, &mut layers);
            let want = &planned.co.estimate;
            let same = [
                (e.compute_s, want.compute_s),
                (e.allreduce_s, want.allreduce_s),
                (e.mp_s, want.mp_s),
                (e.total_s, want.total_s),
            ]
            .iter()
            .all(|(a, b)| a.to_bits() == b.to_bits());
            if !same {
                failed += 1;
            }
        }
        let evaluated = layers.get("strategy.search.evaluated").copied().unwrap_or(0.0);
        let accepted = layers.get("strategy.search.accepted").copied().unwrap_or(0.0);
        let ratio = if evaluated > 0.0 { accepted / evaluated } else { 0.0 };
        layers.insert("strategy.search.accept_ratio".into(), ratio);
        (layers, failed)
    }
}
