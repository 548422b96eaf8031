//! `build_job_flows` against the cluster-sized build it replaced: the job's
//! MP matrix added into an all-zero matrix over every server of the
//! cluster, then listed and routed. Same flows, same order, same bits — on
//! switched and direct-connect fabrics, with and without host forwarding,
//! for any placement of the job.

use proptest::prelude::*;
use topoopt_collectives::ring::RingPermutation;
use topoopt_graph::{topologies, TrafficMatrix};
use topoopt_netsim::multijob::build_job_flows;
use topoopt_netsim::{allreduce_flows, mp_flows, AllReducePlan, FlowSpec, SimNetwork};
use topoopt_strategy::{AllReduceGroup, TrafficDemands};

/// The flow build as first written, with a dense `num_servers²` MP remap.
fn reference_job_flows(
    net: &SimNetwork,
    demands: &TrafficDemands,
    plans: &[AllReducePlan],
    server_map: &[usize],
) -> Vec<FlowSpec> {
    let mut mp = TrafficMatrix::new(net.num_servers);
    for (src, dst, bytes) in demands.mp.entries_desc() {
        mp.add(server_map[src], server_map[dst], bytes);
    }
    let mut flows = Vec::new();
    for p in plans {
        let permutations = p
            .permutations
            .iter()
            .map(|perm| {
                let members = perm.members.iter().map(|&m| server_map[m]).collect();
                RingPermutation::new(members, perm.stride)
            })
            .collect();
        flows.extend(allreduce_flows(net, &AllReducePlan { permutations, bytes: p.bytes }));
    }
    flows.extend(mp_flows(net, &mp));
    flows
}

/// Bit-exact view of a flow.
fn bits(f: &FlowSpec) -> (usize, usize, u64, Vec<usize>, u64) {
    (f.src, f.dst, f.bytes.to_bits(), f.path.clone(), f.relay_factor.to_bits())
}

/// A `k`-server job: MP demands from a few levels (so demands tie), a
/// natural ring and a stride-3 ring.
fn job(k: usize, raw: &[(usize, usize, usize)]) -> (TrafficDemands, Vec<AllReducePlan>) {
    let mut mp = TrafficMatrix::new(k);
    for &(s, d, level) in raw {
        mp.set(s % k, d % k, 1.0e6 * level as f64);
    }
    let members: Vec<usize> = (0..k).collect();
    let plans = vec![
        AllReducePlan::natural_ring(members.clone(), 4.0e8),
        AllReducePlan {
            permutations: vec![RingPermutation::new(members.clone(), 3)],
            bytes: 1.0e8,
        },
    ];
    let demands = TrafficDemands {
        num_servers: k,
        allreduce_groups: vec![AllReduceGroup { members, bytes: 5.0e8 }],
        mp,
        samples_per_server: 1.0,
    };
    (demands, plans)
}

proptest! {
    #[test]
    fn job_flows_match_the_cluster_sized_build(
        servers in 8usize..40,
        k in 2usize..8,
        raw in proptest::collection::vec((0usize..8, 0usize..8, 0usize..3), 0usize..30),
        swaps in proptest::collection::vec(0usize..64, 0usize..40),
        direct_connect in proptest::bool::ANY,
        host_forwarding in proptest::bool::ANY
    ) {
        let graph = if direct_connect {
            topologies::from_permutations(servers, &[1, 3], 25.0e9)
        } else {
            topologies::ideal_switch(servers, 100.0e9)
        };
        let net =
            SimNetwork::without_rules(graph, servers).with_host_forwarding(host_forwarding);
        let (demands, plans) = job(k, &raw);
        let mut ids: Vec<usize> = (0..servers).collect();
        for (i, &j) in swaps.iter().enumerate() {
            ids.swap(i % servers, j % servers);
        }
        let placed = &ids[..k];
        let built: Vec<_> = build_job_flows(&net, &demands, &plans, placed).iter().map(bits).collect();
        let reference: Vec<_> =
            reference_job_flows(&net, &demands, &plans, placed).iter().map(bits).collect();
        prop_assert_eq!(built, reference);
    }
}

/// A 16-server job on a 65,536-server switch: the cluster-sized build would
/// have allocated and scanned a 65,536² matrix (32 GiB). The job-sized build
/// returns the job's flows on a 16-server switch, relabelled.
#[test]
fn flow_building_cost_follows_the_job_not_the_cluster() {
    let servers = 1 << 16;
    let big = SimNetwork::without_rules(topologies::ideal_switch(servers, 1.0e11), servers);
    let small = SimNetwork::without_rules(topologies::ideal_switch(16, 1.0e11), 16);
    let (demands, plans) = job(16, &[(0, 5, 2), (5, 0, 2), (3, 9, 1), (12, 1, 2), (7, 7, 1)]);
    // An ascending spread, so ties keep their local order after relabelling.
    let placed: Vec<usize> = (0..16).map(|i| 7 + 4093 * i).collect();
    let local: Vec<usize> = (0..16).collect();
    let relabel = |v: usize| if v == 16 { servers } else { placed[v] };
    let expected: Vec<_> = build_job_flows(&small, &demands, &plans, &local)
        .iter()
        .map(|f| {
            let mut g = f.clone();
            g.src = relabel(f.src);
            g.dst = relabel(f.dst);
            g.path = f.path.iter().map(|&v| relabel(v)).collect();
            bits(&g)
        })
        .collect();
    let built: Vec<_> = build_job_flows(&big, &demands, &plans, &placed).iter().map(bits).collect();
    assert_eq!(built.len(), 16 + 16 + 5);
    assert_eq!(built, expected);
}
