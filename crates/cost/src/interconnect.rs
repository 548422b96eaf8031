//! Per-architecture interconnect cost (§5.2, Figure 10).
//!
//! Accounting rules follow Appendix G:
//!
//! * **Fat-tree / Ideal Switch** — a full-bisection k-ary fat-tree has
//!   `5k³/4` switch ports; every host has one NIC; every NIC and switch port
//!   carries a transceiver; fibers cost 30 ¢/m with lengths uniform in
//!   0–1000 m (expected 150 $/fiber).
//! * **TopoOpt** — `n·d` NIC ports and transceivers, `2·n·d` patch-panel
//!   ports (the look-ahead design doubles the optical ports), and one 1×2
//!   mechanical switch per interface.
//! * **OCS-reconfig** — `n·d` OCS ports instead of the doubled patch-panel
//!   ports.
//! * **SiP-ML** — per-GPU optics: `n·4·d` OCS-class ports plus per-GPU
//!   transceivers (the priciest fabric, as in the paper).
//! * **Expander** — NICs, transceivers and fibers only (no switching
//!   elements at all): the cheapest fabric.
//! * **Oversubscribed Fat-tree** — a fat-tree with half the
//!   aggregation/core ports.

use crate::components::component_costs;
use serde::{Deserialize, Serialize};
use topoopt_graph::topologies::fat_tree_arity_for_hosts;

/// Architectures the cost model knows about: the fabrics Figure 10 prices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CostedArchitecture {
    /// TopoOpt with patch panels and the look-ahead design.
    TopoOptPatchPanel,
    /// TopoOpt / OCS-reconfig built from 3D-MEMS OCS ports.
    TopoOptOcs,
    /// Full-bisection fat-tree at the given link bandwidth.
    FatTree,
    /// 2:1 oversubscribed fat-tree.
    OversubFatTree,
    /// Ideal Switch (priced as a full-bisection fat-tree of d·B links).
    IdealSwitch,
    /// SiP-ML per-GPU optical fabric.
    SipMl,
    /// Expander (NICs + fibers only).
    Expander,
}

/// Cost breakdown in dollars.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostBreakdown {
    /// NIC cost.
    pub nics: f64,
    /// Transceivers.
    pub transceivers: f64,
    /// Electrical switch ports.
    pub electrical_ports: f64,
    /// Optical ports (patch panel or OCS) plus 1×2 switches.
    pub optical_ports: f64,
    /// Fiber cost.
    pub fibers: f64,
}

impl CostBreakdown {
    /// Total interconnect cost.
    pub fn total(&self) -> f64 {
        self.nics + self.transceivers + self.electrical_ports + self.optical_ports + self.fibers
    }
}

/// Expected fiber cost: 30 ¢/m, uniform length in 0–1000 m.
const FIBER_COST: f64 = 150.0;
/// GPUs per server (for SiP-ML's per-GPU optics).
const GPUS_PER_SERVER: f64 = 4.0;

/// Cost of interconnecting `num_servers` servers with degree `degree` and
/// per-interface bandwidth `link_bps`, for the given architecture.
///
/// For the Fat-tree variants `link_bps` is interpreted as the tree's link
/// bandwidth (each server has a single NIC of that speed); for the others it
/// is the per-interface bandwidth.
pub fn interconnect_cost(
    arch: CostedArchitecture,
    num_servers: usize,
    degree: usize,
    link_bps: f64,
) -> CostBreakdown {
    let n = num_servers as f64;
    let d = degree as f64;
    match arch {
        CostedArchitecture::FatTree => fat_tree_cost(num_servers, link_bps, 1.0),
        CostedArchitecture::OversubFatTree => fat_tree_cost(num_servers, link_bps, 0.5),
        CostedArchitecture::IdealSwitch => fat_tree_cost(num_servers, d * link_bps, 1.0),
        CostedArchitecture::TopoOptPatchPanel => {
            let c = component_costs(link_bps);
            CostBreakdown {
                nics: n * d * c.nic,
                transceivers: n * d * c.transceiver,
                electrical_ports: 0.0,
                // Look-ahead design: 2 patch-panel ports and one 1x2 switch
                // per interface (Appendix C).
                optical_ports: n * d * (2.0 * c.patch_panel_port + c.one_by_two_switch),
                fibers: n * d * FIBER_COST,
            }
        }
        CostedArchitecture::TopoOptOcs => {
            let c = component_costs(link_bps);
            CostBreakdown {
                nics: n * d * c.nic,
                transceivers: n * d * c.transceiver,
                electrical_ports: 0.0,
                optical_ports: n * d * c.ocs_port,
                fibers: n * d * FIBER_COST,
            }
        }
        CostedArchitecture::SipMl => {
            let c = component_costs(link_bps);
            CostBreakdown {
                nics: 0.0,
                transceivers: n * GPUS_PER_SERVER * d * c.transceiver,
                electrical_ports: 0.0,
                optical_ports: n * GPUS_PER_SERVER * d * c.ocs_port,
                fibers: n * GPUS_PER_SERVER * d * FIBER_COST,
            }
        }
        CostedArchitecture::Expander => {
            let c = component_costs(link_bps);
            CostBreakdown {
                nics: n * d * c.nic,
                transceivers: n * d * c.transceiver,
                electrical_ports: 0.0,
                optical_ports: 0.0,
                fibers: n * d * FIBER_COST,
            }
        }
    }
}

/// Full-bisection fat-tree cost at `link_bps` per link; `core_fraction`
/// scales the non-host-facing ports (0.5 models 2:1 oversubscription).
///
/// Links faster than 200 Gbps are built from parallel 100 Gbps lanes
/// (Appendix G: "for 200 Gbps, we use more 100 Gbps ports and fibers,
/// because they were less expensive than high-end components") — this is
/// what makes the Ideal Switch (d·B links) substantially pricier than
/// TopoOpt.
fn fat_tree_cost(num_servers: usize, link_bps: f64, core_fraction: f64) -> CostBreakdown {
    let (c, lanes) = if link_bps > 200.0e9 {
        (component_costs(100.0e9), (link_bps / 100.0e9).ceil())
    } else {
        (component_costs(link_bps), 1.0)
    };
    let k = fat_tree_arity_for_hosts(num_servers) as f64;
    let total_switch_ports = 5.0 * k.powi(3) / 4.0;
    let host_ports = k.powi(3) / 4.0;
    let upper_ports = (total_switch_ports - host_ports) * core_fraction;
    let switch_ports = (host_ports + upper_ports) * lanes;
    let n = num_servers as f64;
    CostBreakdown {
        nics: n * lanes * c.nic,
        transceivers: (n * lanes + switch_ports) * c.transceiver,
        electrical_ports: switch_ports * c.electrical_switch_port,
        optical_ports: 0.0,
        fibers: (n * lanes + switch_ports / 2.0) * FIBER_COST,
    }
}

/// The cost-equivalent Fat-tree link bandwidth `d·B'` used in §5.3: scale a
/// full `d·B` Fat-tree's bandwidth down by the cost ratio between that
/// Fat-tree and the TopoOpt fabric of the same `n, d, B`, clamped to at
/// least 10 Gbps.
pub fn equivalent_fat_tree_bandwidth(num_servers: usize, degree: usize, link_bps: f64) -> f64 {
    let topoopt =
        interconnect_cost(CostedArchitecture::TopoOptPatchPanel, num_servers, degree, link_bps)
            .total();
    let full =
        interconnect_cost(CostedArchitecture::IdealSwitch, num_servers, degree, link_bps).total();
    let ratio = (topoopt / full).clamp(0.05, 1.0);
    (degree as f64 * link_bps * ratio).max(10.0e9)
}

#[cfg(test)]
mod tests {
    use super::*;

    const M: f64 = 1.0e6;

    #[test]
    fn ideal_switch_is_about_3x_topoopt() {
        // §5.2: "the ratio of Ideal Switch's cost to TopoOpT's cost is 3.2x
        // on average". Check the ratio lands in the right ballpark across
        // the Figure 10 sweep.
        let mut ratios = Vec::new();
        for &n in &[128usize, 432, 1024, 2000] {
            for &(d, b) in &[(4usize, 100.0e9), (8usize, 200.0e9)] {
                let ideal = interconnect_cost(CostedArchitecture::IdealSwitch, n, d, b).total();
                let topo =
                    interconnect_cost(CostedArchitecture::TopoOptPatchPanel, n, d, b).total();
                ratios.push(ideal / topo);
            }
        }
        let avg = ratios.iter().sum::<f64>() / ratios.len() as f64;
        assert!(avg > 2.0 && avg < 5.0, "avg Ideal/TopoOpt cost ratio = {avg}");
    }

    #[test]
    fn ocs_variant_is_more_expensive_than_patch_panel() {
        // §5.2: OCS ports make TopoOpt ~1.3x pricier than patch panels.
        let pp = interconnect_cost(CostedArchitecture::TopoOptPatchPanel, 432, 4, 100.0e9).total();
        let ocs = interconnect_cost(CostedArchitecture::TopoOptOcs, 432, 4, 100.0e9).total();
        let ratio = ocs / pp;
        assert!(ratio > 1.1 && ratio < 1.6, "OCS/patch-panel ratio = {ratio}");
    }

    #[test]
    fn sipml_most_expensive_expander_cheapest() {
        let n = 432;
        let d = 4;
        let b = 100.0e9;
        // Compare the fabrics Figure 10 plots: the Fat-tree entry there is
        // the cost-equivalent one (same price as TopoOpt by construction),
        // so the relevant ordering is among TopoOpt, Ideal Switch, SiP-ML
        // and Expander.
        let costs: Vec<(CostedArchitecture, f64)> = [
            CostedArchitecture::TopoOptPatchPanel,
            CostedArchitecture::TopoOptOcs,
            CostedArchitecture::IdealSwitch,
            CostedArchitecture::SipMl,
            CostedArchitecture::Expander,
        ]
        .iter()
        .map(|&a| (a, interconnect_cost(a, n, d, b).total()))
        .collect();
        let sipml = costs.iter().find(|(a, _)| *a == CostedArchitecture::SipMl).unwrap().1;
        let expander = costs.iter().find(|(a, _)| *a == CostedArchitecture::Expander).unwrap().1;
        for (_, c) in &costs {
            assert!(sipml >= *c);
            assert!(expander <= *c);
        }
    }

    #[test]
    fn oversubscribed_fat_tree_is_cheaper_than_full() {
        let full = interconnect_cost(CostedArchitecture::FatTree, 128, 4, 400.0e9).total();
        let over = interconnect_cost(CostedArchitecture::OversubFatTree, 128, 4, 400.0e9).total();
        assert!(over < full);
    }

    #[test]
    fn cost_grows_with_cluster_size() {
        let small =
            interconnect_cost(CostedArchitecture::TopoOptPatchPanel, 128, 4, 100.0e9).total();
        let large =
            interconnect_cost(CostedArchitecture::TopoOptPatchPanel, 2000, 4, 100.0e9).total();
        assert!(large > 10.0 * small);
        // Order of magnitude sanity: a 128-server d=4 TopoOpt is well under
        // $2M (Figure 10a's y-axis range is 0.2–60 M$).
        assert!(small < 2.0 * M);
        assert!(small > 0.05 * M);
    }

    #[test]
    fn equivalent_fat_tree_bandwidth_is_reduced_but_positive() {
        let b_eq = equivalent_fat_tree_bandwidth(128, 4, 100.0e9);
        assert!(b_eq < 4.0 * 100.0e9);
        assert!(b_eq >= 10.0e9);
        // Cost parity: a fat-tree at the reduced bandwidth should cost about
        // the same as TopoOpt (within the tier granularity of Table 2).
        let ft = interconnect_cost(CostedArchitecture::FatTree, 128, 1, b_eq).total();
        let topo =
            interconnect_cost(CostedArchitecture::TopoOptPatchPanel, 128, 4, 100.0e9).total();
        assert!(ft < 2.5 * topo && topo < 2.5 * ft, "ft = {ft}, topo = {topo}");
    }
}
