//! The experiment registry: every figure/table of the TopoOpt evaluation
//! as a builder returning a structured [`ExperimentReport`].
//!
//! Experiments compute *data*; presentation (aligned text, markdown for
//! `EXPERIMENTS.md`, JSON for `BENCH_<id>.json`) is rendered from the
//! report by `topoopt-report`. Sweeps inside an experiment run in parallel
//! with rayon and are collected in input order, so reports — and therefore
//! every rendering — are byte-for-byte stable run-over-run for a fixed
//! seed and scale.
//!
//! The builders live in one private module per part of the paper:
//! - `motivation`: §2–§4 and Appendix A (traffic heatmaps, production
//!   traces, optical technologies, the MCMC strategy search);
//! - `dedicated`: §5.1–§5.5 and the dedicated-cluster appendix figures
//!   (cost, iteration time, all-to-all traffic, path length, link load);
//! - `shared`: §5.6–§5.7 (the shared-cluster job mix, the dynamic
//!   cluster and reconfiguration);
//! - `testbed`: §6 and Appendix I (the 12-server testbed, its forwarding
//!   plane and link failures).

mod dedicated;
mod motivation;
mod shared;
mod testbed;

use dedicated::{fig10, fig11_d4, fig12, fig13, fig14, fig15, fig27_d8, fig28, table02};
use motivation::{fig01, fig02, fig03, fig04, fig07_09, fig_a, mcmc_search, table01};
use rayon::prelude::*;
use shared::{fig16, fig16_dynamic, fig16_dynamic_scale, fig17, fig_reconfig_planned};
use testbed::{fig19, fig20, fig21, fig_failure_degradation, rdma_relay_overhead};
use topoopt_report::{Cell, ExperimentReport, ScaleInfo};

const GB: f64 = 1.0e9;

/// Run configuration every experiment builder receives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// True for paper-scale cluster sizes (`--full`).
    pub full: bool,
    /// Dedicated-cluster server count (paper: 128).
    pub dedicated: usize,
    /// Shared-cluster server count (paper: 432).
    pub shared: usize,
    /// MCMC iterations in strategy-search runs.
    pub mcmc_iters: usize,
    /// RNG seed for the sampling / MCMC experiments (`--seed`).
    pub seed: u64,
}

/// Default seed: keeps the seeded trajectories of the original harness.
pub const DEFAULT_SEED: u64 = 7;

impl Scale {
    /// Reduced-scale (default) or paper-scale (`--full`) sizes.
    pub fn new(full: bool, seed: u64) -> Scale {
        if full {
            Scale { full, dedicated: 128, shared: 432, mcmc_iters: 400, seed }
        } else {
            Scale { full, dedicated: 32, shared: 64, mcmc_iters: 100, seed }
        }
    }

    /// The report-metadata view of this configuration.
    pub fn info(&self) -> ScaleInfo {
        ScaleInfo {
            full: self.full,
            dedicated: self.dedicated,
            shared: self.shared,
            mcmc_iters: self.mcmc_iters,
        }
    }
}

/// One registry entry: identity plus the builder function.
pub struct ExperimentDef {
    /// Stable id, also the `BENCH_<id>.json` artifact name.
    pub id: &'static str,
    /// Figure/table name in the paper.
    pub title: &'static str,
    /// Paper section the experiment reproduces.
    pub section: &'static str,
    /// Builds the report body (tables + notes); the harness stamps
    /// identity and run metadata via [`run`].
    pub build: fn(&Scale) -> ExperimentReport,
}

/// Every experiment of the evaluation, in presentation order.
pub const EXPERIMENTS: &[ExperimentDef] = &[
    ExperimentDef { id: "fig01_dlrm_heatmaps", title: "Figure 1", section: "§2.1", build: fig01 },
    ExperimentDef {
        id: "fig02_production_cdfs", title: "Figure 2", section: "§2.2", build: fig02
    },
    ExperimentDef {
        id: "fig03_network_overhead",
        title: "Figure 3",
        section: "§2.2",
        build: fig03,
    },
    ExperimentDef { id: "fig04_prod_heatmaps", title: "Figure 4", section: "§2.2", build: fig04 },
    ExperimentDef { id: "table01_optical_tech", title: "Table 1", section: "§3", build: table01 },
    ExperimentDef {
        id: "mcmc_strategy_search",
        title: "FlexNet MCMC search",
        section: "§4.1",
        build: mcmc_search,
    },
    ExperimentDef {
        id: "fig07_09_mutability",
        title: "Figures 7–9",
        section: "§4.2",
        build: fig07_09,
    },
    ExperimentDef { id: "fig10_cost", title: "Figure 10", section: "§5.1", build: fig10 },
    ExperimentDef {
        id: "fig11_dedicated_d4",
        title: "Figure 11",
        section: "§5.2",
        build: fig11_d4,
    },
    ExperimentDef { id: "fig12_alltoall", title: "Figure 12", section: "§5.3", build: fig12 },
    ExperimentDef { id: "fig13_bandwidth_tax", title: "Figure 13", section: "§5.4", build: fig13 },
    ExperimentDef { id: "fig14_path_length", title: "Figure 14", section: "§5.5", build: fig14 },
    ExperimentDef { id: "fig15_link_traffic", title: "Figure 15", section: "§5.5", build: fig15 },
    ExperimentDef { id: "fig16_shared", title: "Figure 16", section: "§5.6", build: fig16 },
    ExperimentDef {
        id: "fig16_dynamic",
        title: "Figure 16 (dynamic)",
        section: "§5.6 + Appendix C",
        build: fig16_dynamic,
    },
    ExperimentDef {
        id: "fig16_dynamic_scale",
        title: "Figure 16 (datacenter scale)",
        section: "§5.6 + ROADMAP",
        build: fig16_dynamic_scale,
    },
    ExperimentDef { id: "fig17_reconfig", title: "Figure 17", section: "§5.7", build: fig17 },
    ExperimentDef {
        id: "fig_reconfig_planned",
        title: "Planned reconfiguration",
        section: "§5.7 + ROADMAP",
        build: fig_reconfig_planned,
    },
    ExperimentDef {
        id: "fig_failure_degradation",
        title: "Failure degradation",
        section: "§6 + ROADMAP",
        build: fig_failure_degradation,
    },
    ExperimentDef {
        id: "fig19_testbed_throughput",
        title: "Figure 19",
        section: "§6",
        build: fig19,
    },
    ExperimentDef {
        id: "fig20_time_to_accuracy", title: "Figure 20", section: "§6", build: fig20
    },
    ExperimentDef {
        id: "fig21_testbed_alltoall", title: "Figure 21", section: "§6", build: fig21
    },
    ExperimentDef {
        id: "rdma_relay_overhead",
        title: "Kernel-relay overhead",
        section: "§6 + Appendix I",
        build: rdma_relay_overhead,
    },
    ExperimentDef {
        id: "figA_dbt_heatmaps",
        title: "Appendix A figure",
        section: "Appendix A",
        build: fig_a,
    },
    ExperimentDef {
        id: "table02_component_costs",
        title: "Table 2",
        section: "Appendix G",
        build: table02,
    },
    ExperimentDef {
        id: "fig27_dedicated_d8",
        title: "Figure 27",
        section: "Appendix",
        build: fig27_d8,
    },
    ExperimentDef {
        id: "fig28_degree_sweep",
        title: "Figure 28",
        section: "Appendix",
        build: fig28,
    },
];

/// Look up an experiment by id.
pub fn find(id: &str) -> Option<&'static ExperimentDef> {
    EXPERIMENTS.iter().find(|def| def.id == id)
}

/// Run one experiment: build the report body, then stamp identity, scale
/// and seed.
pub fn run(def: &ExperimentDef, scale: &Scale) -> ExperimentReport {
    let mut report = (def.build)(scale);
    report.id = def.id.to_string();
    report.title = def.title.to_string();
    report.section = def.section.to_string();
    report.scale = scale.info();
    report.seed = scale.seed;
    report
}

/// Compute one row of cells per item in parallel, preserving input order
/// (the vendored rayon's `collect` is order-stable).
fn par_rows<T: Send>(items: Vec<T>, f: impl Fn(T) -> Vec<Cell> + Sync) -> Vec<Vec<Cell>> {
    items.into_par_iter().map(f).collect()
}

#[cfg(test)]
mod tests {
    use super::shared::{planned_migration_mode, reconfig_testbed_rows};
    use super::testbed::fig20_rows;
    use super::*;
    use topoopt_netsim::MigrationMode;

    #[test]
    fn registry_ids_are_unique_and_findable() {
        for def in EXPERIMENTS {
            assert_eq!(find(def.id).unwrap().id, def.id);
            assert_eq!(EXPERIMENTS.iter().filter(|d| d.id == def.id).count(), 1);
        }
        assert!(find("no_such_experiment").is_none());
    }

    #[test]
    fn fast_experiment_produces_a_stamped_report() {
        let s = Scale::new(false, DEFAULT_SEED);
        let def = find("table01_optical_tech").unwrap();
        let report = run(def, &s);
        assert_eq!(report.id, "table01_optical_tech");
        assert_eq!(report.title, "Table 1");
        assert_eq!(report.section, "§3");
        assert_eq!(report.seed, DEFAULT_SEED);
        assert!(!report.scale.full);
        assert_eq!(report.tables.len(), 1);
        assert_eq!(report.tables[0].rows.len(), 6);
        // The report is renderable and serializable.
        assert!(report.render_text().contains("3D MEMS"));
        let back = ExperimentReport::from_json(&report.to_json()).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn sampling_experiment_is_deterministic_per_seed() {
        let s = Scale::new(false, 7);
        let a = fig02(&s);
        let b = fig02(&s);
        assert_eq!(a, b);
        let c = fig02(&Scale::new(false, 99));
        assert_ne!(a.tables[0].rows, c.tables[0].rows);
    }

    #[test]
    fn reconfig_testbed_rows_keep_planned_dips_no_worse_than_atomic() {
        let src = topoopt_graph::topologies::from_permutations(8, &[1, 3], 25.0e9);
        let dst = topoopt_graph::topologies::from_permutations(8, &[2, 5], 25.0e9);
        let rows = reconfig_testbed_rows("a -> b", &src, &dst, DEFAULT_SEED);
        assert_eq!(rows.len(), 4, "atomic baseline plus three strategies");
        // The atomic swap is dark for the full rewiring: peak dip 1.0.
        let Cell::Float(atomic_peak) = rows[0][4] else { panic!("peak dip must be a float") };
        assert_eq!(atomic_peak, 1.0);
        // The tree-search row must sequence this uncapped migration and
        // never dip below the atomic worst case.
        let tree = &rows[3];
        assert_eq!(tree[7], Cell::Str("ok".into()));
        let Cell::Float(tree_peak) = tree[4] else { panic!("peak dip must be a float") };
        assert!(tree_peak <= atomic_peak + 1e-9, "planned peak dip {tree_peak} worse than atomic");
        // Every strategy row either succeeds or names the violated policy.
        for r in &rows[1..] {
            let Cell::Str(outcome) = &r[7] else { panic!("outcome must be text") };
            assert!(outcome == "ok" || outcome.starts_with("fallback: "), "outcome {outcome}");
        }
    }

    #[test]
    fn planned_migration_mode_schedules_or_falls_back_with_a_policy() {
        let MigrationMode::Planned(planner) = planned_migration_mode(1.0) else {
            panic!("planned_migration_mode must return the planned variant")
        };
        // Dark shard: every target link is one step, total = provisioning.
        let target = topoopt_graph::topologies::from_permutations(6, &[1, 2], 25.0e9);
        let schedule = planner(None, &target);
        assert!(schedule.planned && schedule.fallback.is_none());
        assert_eq!(schedule.steps(), target.num_edges());
        assert!((schedule.total_s() - 1.0).abs() < 1e-12);
        // Stale wiring: tear-down steps extend the schedule beyond the
        // atomic total instead of being teleported away.
        let stale = topoopt_graph::topologies::from_permutations(6, &[3], 25.0e9);
        let schedule = planner(Some(&stale), &target);
        assert!(schedule.planned && schedule.fallback.is_none());
        assert!(schedule.steps() > target.num_edges());
    }

    #[test]
    fn fig20_unreachable_accuracy_target_yields_na_cells_not_a_panic() {
        // Regression: the 0.93-asymptote VGG19 curve can never hit 99%
        // top-5; fig20 must render "n/a" cells instead of unwrapping None.
        let rows = fig20_rows(0.99);
        assert_eq!(rows.len(), 3);
        for row in &rows {
            assert_eq!(row[1], Cell::Empty, "unreachable target should give an empty cell");
        }
        // The committed 90% target stays numeric.
        for row in fig20_rows(0.90) {
            assert!(matches!(row[1], Cell::Float(h) if h.is_finite() && h > 0.0));
        }
    }

    #[test]
    fn relay_overhead_sweep_is_anchored_at_unit_efficiency() {
        let s = Scale::new(false, DEFAULT_SEED);
        let report = rdma_relay_overhead(&s);
        let rows = &report.tables[0].rows;
        assert_eq!(rows.len(), 18);
        for chunk in rows.chunks(6) {
            // First row of each degree block is efficiency 1.0: slowdown 1x.
            let Cell::Float(slowdown) = chunk[0][7] else { panic!("slowdown must be float") };
            assert!((slowdown - 1.0).abs() < 1e-12);
            // Harsher kernels never speed the iteration up.
            let totals: Vec<f64> = chunk
                .iter()
                .map(|r| match r[5] {
                    Cell::Float(t) => t,
                    _ => panic!("sim iter must be float"),
                })
                .collect();
            for w in totals.windows(2) {
                assert!(w[1] >= w[0] - 1e-12, "lower efficiency must not be faster: {totals:?}");
            }
        }
    }

    #[test]
    fn mcmc_search_improves_embedding_models() {
        let s = Scale { full: false, dedicated: 32, shared: 64, mcmc_iters: 60, seed: 7 };
        let report = mcmc_search(&s);
        let rows = &report.tables[0].rows;
        assert_eq!(rows.len(), 3);
        // DLRM row: speedup (col 3) must be >= 1 (search never regresses).
        let Cell::Float(speedup) = rows[0][3] else { panic!("speedup cell should be a float") };
        assert!(speedup >= 1.0, "MCMC should not regress: {speedup}");
    }
}
