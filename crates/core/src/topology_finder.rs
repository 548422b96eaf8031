//! `TopologyFinder` (Algorithm 1): build the job's direct-connect topology
//! and routing from its traffic demands.
//!
//! Interface model: each server has `d` duplex optical interfaces. A ring
//! permutation +p uses one interface per member (TX to the +p successor, RX
//! from the -p predecessor), i.e. one directed edge out and one in. A
//! model-parallel link between a matched pair uses one interface at each end
//! and is bidirectional (both directed edges). Out-degree and in-degree are
//! therefore both bounded by `d`.

use crate::routing::Routing;
use crate::select::{select_permutations, select_permutations_available};
use crate::totient::{totient_perms, TotientPermsConfig};
use serde::{Deserialize, Serialize};
use topoopt_collectives::ring::RingPermutation;
use topoopt_graph::matching::{MatchingAlgo, MatchingRounds};
use topoopt_graph::paths::bfs_shortest_path;
use topoopt_graph::Graph;
use topoopt_strategy::TrafficDemands;

/// Inputs of `TopologyFinder` (Algorithm 1's arguments).
#[derive(Debug, Clone)]
pub struct TopologyFinderInput<'a> {
    /// Number of dedicated servers (`n`).
    pub num_servers: usize,
    /// Interfaces per server (`d`).
    pub degree: usize,
    /// Bandwidth of each interface in bits per second (`B`).
    pub link_bps: f64,
    /// Traffic demands (`T_AllReduce`, `T_MP`) from the Comp.×Comm. plane.
    pub demands: &'a TrafficDemands,
    /// Unread: `TotientPerms` has no options. The field stays only because
    /// `perfbench/` names it.
    pub totient: TotientPermsConfig,
    /// Which maximum-weight matching implementation to use for the MP
    /// sub-topology.
    pub matching: MatchingAlgo,
    /// Route model-parallel pairs over the shortest path on the combined
    /// topology even when an AllReduce group's coin-change route already
    /// covers the pair. The historical rule (`false`, the default) lets
    /// coin-change ring routes win, which leaves matched MP links idle
    /// whenever a DP ring spans the pair; enabling this replaces the ring
    /// route whenever BFS finds a strictly shorter path, putting the
    /// dedicated MP links to work (§6 DLRM fabrics).
    pub mp_shortest_path: bool,
    /// Prefer fabrics whose AllReduce rings survive any single link loss.
    /// A group served by one directed ring dies with any one cut (each
    /// member has a single egress), so with this knob on the degree split
    /// gives every ring-carrying group at least two strides when the
    /// budget allows (degree-redundant ring placement), stride selection
    /// swaps candidates until no single cut disconnects the group's
    /// circulant ([`crate::select::critical_links`] reaches zero), and the
    /// connectivity fallback ring is doubled. Defaults OFF — the committed
    /// artifacts score fabrics on diameter and throughput alone.
    pub availability_aware: bool,
}

impl<'a> TopologyFinderInput<'a> {
    /// Algorithm 1's arguments with the default options:
    /// [`MatchingAlgo::Auto`], and `mp_shortest_path` and
    /// `availability_aware` off. Callers change an option with
    /// struct-update syntax.
    pub fn new(
        num_servers: usize,
        degree: usize,
        link_bps: f64,
        demands: &'a TrafficDemands,
    ) -> Self {
        TopologyFinderInput {
            num_servers,
            degree,
            link_bps,
            demands,
            totient: TotientPermsConfig,
            matching: MatchingAlgo::Auto,
            mp_shortest_path: false,
            availability_aware: false,
        }
    }
}

/// One AllReduce group's selected permutations.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SelectedGroup {
    /// Group members (server ids).
    pub members: Vec<usize>,
    /// Selected ring strides (in group index space).
    pub strides: Vec<usize>,
    /// Bytes reduced across this group per iteration.
    pub bytes: f64,
}

impl SelectedGroup {
    /// The selected permutations as [`RingPermutation`]s.
    pub fn permutations(&self) -> Vec<RingPermutation> {
        self.strides.iter().map(|&s| RingPermutation::new(self.members.clone(), s)).collect()
    }
}

/// Output of `TopologyFinder`: the topology `G` and routing rules `R` of
/// Algorithm 1, plus the intermediate decisions the evaluation inspects.
#[derive(Debug, Clone)]
pub struct TopologyFinderOutput {
    /// The combined topology (AllReduce ∪ MP sub-topologies).
    pub graph: Graph,
    /// Routing rules: each AllReduce group's coin-change table (routes
    /// decompose on demand), plus explicit shortest paths for the MP pairs
    /// that need one.
    pub routing: Routing,
    /// Degree allocated to the AllReduce sub-topology (`d_A`).
    pub degree_allreduce: usize,
    /// Degree allocated to the MP sub-topology (`d_MP`).
    pub degree_mp: usize,
    /// Per-group selections.
    pub groups: Vec<SelectedGroup>,
    /// Matched MP pairs (one entry per physical MP link).
    pub mp_links: Vec<(usize, usize)>,
}

/// Run `TopologyFinder` (Algorithm 1).
pub fn topology_finder(input: &TopologyFinderInput<'_>) -> TopologyFinderOutput {
    let n = input.num_servers;
    let d = input.degree;
    let demands = input.demands;
    assert!(d >= 1, "server degree must be at least 1");
    assert_eq!(demands.num_servers, n, "demand matrix size mismatch");

    let sum_ar: f64 = demands.total_allreduce_bytes();
    let sum_mp: f64 = demands.total_mp_bytes();

    // Step 1: distribute the degree (lines 2–3). At least one interface goes
    // to the AllReduce sub-topology so the network stays connected.
    let mut d_a = if sum_ar + sum_mp <= 0.0 {
        d
    } else {
        let share = sum_ar / (sum_ar + sum_mp);
        ((d as f64) * share).ceil().max(1.0) as usize
    };
    d_a = d_a.min(d);
    let d_mp = d - d_a;
    let degree_allreduce = d_a;

    // Step 2: AllReduce sub-topology (lines 4–11).
    let mut graph = Graph::new(n);
    let mut groups_out: Vec<SelectedGroup> = Vec::new();
    let mut groups: Vec<_> = demands.allreduce_groups.clone();
    // total_cmp: group volumes come from float sums, and a NaN must order
    // deterministically instead of panicking (same fix as link_traffic_cdf).
    groups.sort_by(|a, b| b.bytes.total_cmp(&a.bytes));
    // If no group spans the whole job, reserve one AllReduce interface for
    // the connectivity fallback ring added below (two when the fabric must
    // survive single link loss: a lone ring dies with any one cut).
    let any_full_group = groups.iter().any(|g| g.members.len() == n && g.bytes > 0.0);
    let reserve = if any_full_group {
        0
    } else if input.availability_aware {
        d_a.min(2)
    } else {
        1
    };
    let mut remaining = d_a - reserve;
    for g in &groups {
        if remaining == 0 {
            break;
        }
        if g.members.len() < 2 || g.bytes <= 0.0 {
            continue;
        }
        // Degree for this group, proportional to its share of AllReduce
        // traffic (line 6). Degree-redundant placement: with the
        // availability knob on, a group that gets rings gets at least two
        // of them whenever the budget allows.
        let mut dk = (((d_a as f64) * g.bytes / sum_ar).ceil() as usize).max(1);
        if input.availability_aware {
            dk = dk.max(2);
        }
        let dk = dk.min(remaining);
        remaining -= dk;
        let candidates = totient_perms(&g.members);
        let selected = if input.availability_aware {
            select_permutations_available(&candidates, dk)
        } else {
            select_permutations(&candidates, dk)
        };
        for p in &selected {
            for (src, dst) in p.edges() {
                graph.add_edge(src, dst, input.link_bps);
            }
        }
        groups_out.push(SelectedGroup {
            members: g.members.clone(),
            strides: selected.iter().map(|p| p.stride).collect(),
            bytes: g.bytes,
        });
    }

    // Connectivity fallback: if no group spans all servers (e.g. a pure
    // model-parallel strategy), spend one AllReduce interface on a global +1
    // ring — this is the "at least one degree … to ensure the network
    // remains connected" provision of Algorithm 1.
    let covers_all = groups_out.iter().any(|g| g.members.len() == n);
    if !covers_all && n > 1 {
        let members: Vec<usize> = (0..n).collect();
        let strides = if input.availability_aware && reserve >= 2 {
            let candidates = totient_perms(&members);
            select_permutations_available(&candidates, reserve).iter().map(|p| p.stride).collect()
        } else {
            vec![1]
        };
        for &s in &strides {
            for i in 0..n {
                graph.add_edge(i, (i + s) % n, input.link_bps);
            }
        }
        groups_out.push(SelectedGroup { members, strides, bytes: 0.0 });
    }

    // Step 3: MP sub-topology (lines 12–17). Repeated maximum-weight
    // matching with halved demand for already-connected pairs. The rounds
    // API symmetrizes the demand matrix once and reuses the solver's DP
    // tables across all d_MP rounds.
    let mut mp_links = Vec::new();
    if d_mp > 0 {
        let mp_weights: Vec<Vec<f64>> =
            (0..n).map(|s| (0..n).map(|t| demands.mp.get(s, t)).collect()).collect();
        let mut rounds = MatchingRounds::new(&mp_weights, input.matching);
        for _round in 0..d_mp {
            let matching = rounds.round();
            if matching.is_empty() {
                break;
            }
            for &(a, b) in &matching {
                graph.add_edge(a, b, input.link_bps);
                graph.add_edge(b, a, input.link_bps);
                mp_links.push((a, b));
                // Line 17: diminish the residual demand on served pairs.
                rounds.halve_pair(a, b);
            }
        }
    }

    // Step 4: routing (lines 18–20). Each AllReduce group installs its
    // coin-change table, which routes every pair of members by modular
    // distance without storing a path; MP pairs get explicit shortest paths
    // on the combined topology.
    let mut routing = Routing::new();
    for g in &groups_out {
        routing.insert_ring(&g.members, &g.strides);
    }
    for (src, dst, _) in demands.mp.entries_desc() {
        let existing_hops = routing.hops(src, dst);
        if existing_hops.is_some() && !input.mp_shortest_path {
            continue;
        }
        if let Some(p) = bfs_shortest_path(&graph, src, dst) {
            // With `mp_shortest_path`, a covered pair is only re-routed
            // when BFS is strictly shorter, so ties keep the coin-change
            // route and uncovered pairs behave exactly as before.
            if existing_hops.map(|h| p.len() - 1 < h).unwrap_or(true) {
                routing.insert(src, dst, p);
            }
        }
    }

    TopologyFinderOutput {
        graph,
        routing,
        degree_allreduce,
        degree_mp: d_mp,
        groups: groups_out,
        mp_links,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use topoopt_graph::paths::diameter;
    use topoopt_models::zoo::build_dlrm;
    use topoopt_models::zoo::build_model;
    use topoopt_models::{DlrmConfig, ModelKind, ModelPreset};
    use topoopt_strategy::{extract_traffic, ParallelizationStrategy};

    fn dlrm_demands(n: usize) -> TrafficDemands {
        let m = build_dlrm(&DlrmConfig::shared());
        let s = ParallelizationStrategy::hybrid_embeddings_round_robin(&m, n);
        extract_traffic(&m, &s, 4)
    }

    fn finder_input(demands: &TrafficDemands, n: usize, d: usize) -> TopologyFinderInput<'_> {
        TopologyFinderInput::new(n, d, 25.0e9, demands)
    }

    #[test]
    fn degree_split_favours_allreduce_for_dp_heavy_models() {
        let m = build_model(ModelKind::Vgg16, ModelPreset::Dedicated);
        let s = ParallelizationStrategy::pure_data_parallel(&m, 16);
        let demands = extract_traffic(&m, &s, 4);
        let out = topology_finder(&finder_input(&demands, 16, 4));
        assert_eq!(out.degree_allreduce, 4);
        assert_eq!(out.degree_mp, 0);
        assert!(out.mp_links.is_empty());
    }

    #[test]
    fn hybrid_dlrm_splits_degree_between_allreduce_and_mp() {
        let demands = dlrm_demands(16);
        assert!(demands.total_mp_bytes() > 0.0);
        let out = topology_finder(&finder_input(&demands, 16, 4));
        assert!(out.degree_allreduce >= 1);
        assert!(out.degree_mp >= 1, "expected some MP degree");
        assert!(!out.mp_links.is_empty());
    }

    #[test]
    fn output_respects_degree_and_connectivity() {
        let demands = dlrm_demands(16);
        for d in [2usize, 4, 8] {
            let out = topology_finder(&finder_input(&demands, 16, d));
            assert!(
                out.graph.respects_degree(d),
                "degree {d}: max out {} in {}",
                out.graph.max_out_degree(),
                (0..16).map(|v| out.graph.in_degree(v)).max().unwrap()
            );
            assert!(out.graph.is_strongly_connected());
        }
    }

    #[test]
    fn routing_paths_follow_existing_edges() {
        let demands = dlrm_demands(16);
        let out = topology_finder(&finder_input(&demands, 16, 4));
        out.routing.validate_against(&out.graph).unwrap();
        assert!(!out.routing.is_empty());
    }

    #[test]
    fn every_mp_pair_gets_a_route() {
        let demands = dlrm_demands(16);
        let out = topology_finder(&finder_input(&demands, 16, 4));
        for (src, dst, _) in demands.mp.entries_desc() {
            assert!(out.routing.path(src, dst).is_some(), "no route for MP pair ({src},{dst})");
        }
    }

    #[test]
    fn mp_shortest_path_puts_matched_links_to_work() {
        let demands = dlrm_demands(16);
        let legacy = topology_finder(&finder_input(&demands, 16, 4));
        let mut input = finder_input(&demands, 16, 4);
        input.mp_shortest_path = true;
        let routed = topology_finder(&input);
        // Same fabric, different routing.
        assert_eq!(legacy.mp_links, routed.mp_links);
        assert_eq!(legacy.graph.num_edges(), routed.graph.num_edges());
        assert!(!routed.mp_links.is_empty());
        routed.routing.validate_against(&routed.graph).unwrap();
        // Re-routing never lengthens a pair, and some covered MP pair must
        // actually get a shorter path (the matched direct link, typically).
        let mut improved = 0usize;
        for (src, dst, _) in demands.mp.entries_desc() {
            let old = legacy.routing.hops(src, dst).expect("legacy route");
            let new = routed.routing.hops(src, dst).expect("routed route");
            assert!(new <= old, "({src},{dst}) got longer: {old} -> {new}");
            improved += usize::from(new < old);
        }
        assert!(improved > 0, "expected at least one MP pair to improve");
        // Each matched pair with demand now rides its direct link.
        for &(a, b) in &routed.mp_links {
            if demands.mp.get(a, b) > 0.0 {
                assert_eq!(routed.routing.hops(a, b), Some(1));
            }
        }
    }

    #[test]
    fn availability_knob_makes_allreduce_rings_survive_any_single_cut() {
        let m = build_model(ModelKind::Vgg16, ModelPreset::Dedicated);
        let s = ParallelizationStrategy::pure_data_parallel(&m, 16);
        let demands = extract_traffic(&m, &s, 4);
        let mut input = finder_input(&demands, 16, 4);
        input.availability_aware = true;
        let out = topology_finder(&input);
        assert!(out.graph.respects_degree(4));
        assert!(out.graph.is_strongly_connected());
        for g in &out.groups {
            assert!(g.strides.len() >= 2, "group got a lone ring: {:?}", g.strides);
            assert_eq!(
                crate::select::critical_links(g.members.len(), &g.strides),
                0,
                "strides {:?} do not survive a single cut",
                g.strides
            );
        }
        // The whole fabric survives any single link loss.
        let ids: Vec<_> = out.graph.edges().map(|(id, _)| id).collect();
        for id in ids {
            let mut cut = out.graph.clone();
            cut.remove_edge(id);
            assert!(cut.is_strongly_connected(), "losing one link partitioned the fabric");
        }
    }

    #[test]
    fn availability_knob_doubles_the_fallback_ring() {
        // Zero demand: all degree goes to the fallback ring. Without the
        // knob it is a lone +1 ring (every link critical); with it the
        // reserve is doubled and the fabric survives any single cut.
        let demands = TrafficDemands {
            num_servers: 12,
            allreduce_groups: vec![],
            mp: topoopt_graph::TrafficMatrix::new(12),
            samples_per_server: 1.0,
        };
        let legacy = topology_finder(&finder_input(&demands, 12, 4));
        assert_eq!(legacy.groups[0].strides, vec![1]);
        let mut input = finder_input(&demands, 12, 4);
        input.availability_aware = true;
        let out = topology_finder(&input);
        assert_eq!(out.groups[0].strides.len(), 2);
        assert_eq!(
            crate::select::critical_links(12, &out.groups[0].strides),
            0,
            "fallback strides {:?} must survive a single cut",
            out.groups[0].strides
        );
        assert!(out.graph.respects_degree(4));
    }

    #[test]
    fn new_matches_the_all_defaults_literal() {
        // `perfbench/` spells every default out as a struct literal and the
        // committed artifacts rely on `new`'s defaults: changing one of them
        // must fail here, not only in the artifact diff.
        let demands = dlrm_demands(16);
        let from_new = topology_finder(&TopologyFinderInput::new(16, 4, 25.0e9, &demands));
        let literal = topology_finder(&TopologyFinderInput {
            num_servers: 16,
            degree: 4,
            link_bps: 25.0e9,
            demands: &demands,
            totient: TotientPermsConfig,
            matching: MatchingAlgo::Auto,
            mp_shortest_path: false,
            availability_aware: false,
        });
        assert_eq!(from_new.groups, literal.groups);
        assert_eq!(from_new.mp_links, literal.mp_links);
        let edges = |g: &Graph| g.edges().map(|(_, e)| *e).collect::<Vec<_>>();
        assert_eq!(edges(&from_new.graph), edges(&literal.graph));
        let mp_pairs = demands.mp.entries_desc();
        assert!(!mp_pairs.is_empty(), "hybrid DLRM must have MP pairs");
        for (src, dst, _) in mp_pairs {
            assert_eq!(from_new.routing.path(src, dst), literal.routing.path(src, dst));
        }
    }

    #[test]
    fn selected_strides_are_single_rings() {
        let demands = dlrm_demands(32);
        let out = topology_finder(&finder_input(&demands, 32, 6));
        for g in &out.groups {
            for p in g.permutations() {
                assert!(p.is_single_ring());
            }
        }
    }

    #[test]
    fn higher_degree_shrinks_diameter() {
        let demands = dlrm_demands(64);
        let d4 = topology_finder(&finder_input(&demands, 64, 4));
        let d8 = topology_finder(&finder_input(&demands, 64, 8));
        let dia4 = diameter(&d4.graph).unwrap();
        let dia8 = diameter(&d8.graph).unwrap();
        assert!(dia8 <= dia4, "d=8 diameter {dia8} > d=4 diameter {dia4}");
    }

    #[test]
    fn pure_mp_demand_still_yields_connected_graph() {
        // No AllReduce at all: the fallback ring must keep the fabric
        // connected.
        let mut mp = topoopt_graph::TrafficMatrix::new(8);
        mp.set(0, 5, 1.0e9);
        mp.set(3, 6, 2.0e9);
        let demands = TrafficDemands {
            num_servers: 8,
            allreduce_groups: vec![],
            mp,
            samples_per_server: 1.0,
        };
        let out = topology_finder(&finder_input(&demands, 8, 3));
        assert!(out.graph.is_strongly_connected());
        assert!(out.graph.respects_degree(3));
        // The heavy pairs should have received direct links.
        assert!(out.graph.has_edge(3, 6));
    }

    #[test]
    fn zero_demand_defaults_to_allreduce_rings() {
        let demands = TrafficDemands {
            num_servers: 12,
            allreduce_groups: vec![],
            mp: topoopt_graph::TrafficMatrix::new(12),
            samples_per_server: 1.0,
        };
        let out = topology_finder(&finder_input(&demands, 12, 4));
        assert!(out.graph.is_strongly_connected());
        assert_eq!(out.degree_allreduce, 4);
    }
}
