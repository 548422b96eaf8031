//! Inputs shared by the workloads: the §5.6 job-mix prototypes and the one
//! place dynamic-cluster parameters are built.

use topoopt_core::topology_finder::{topology_finder, TopologyFinderInput};
use topoopt_core::totient::TotientPermsConfig;
use topoopt_graph::matching::MatchingAlgo;
use topoopt_models::{build_model, ModelKind, ModelPreset};
use topoopt_netsim::multijob::solo_iteration_s;
use topoopt_netsim::{
    AllReducePlan, DynamicClusterParams, DynamicFabric, DynamicJobSpec, MigrationMode,
    SharedEngineMode,
};
use topoopt_strategy::{
    estimate_iteration_time, extract_traffic, ComputeParams, ParallelizationStrategy, TopologyView,
};

/// Optical interfaces per server.
pub const DEGREE: usize = 8;
/// Per-interface bandwidth (100 Gbps).
pub const LINK_BPS: f64 = 100.0e9;
/// Per-hop propagation latency (1 µs, as in the paper's simulations).
pub const PER_HOP_LATENCY_S: f64 = 1.0e-6;
/// Servers every job of the mix requests.
pub const SERVERS_PER_JOB: usize = 16;
/// Training iterations of every dynamic job.
pub const ITERATIONS: usize = 20;

/// The model kinds of the §5.6 shared-cluster mix.
pub const MIX_KINDS: [ModelKind; 4] =
    [ModelKind::Dlrm, ModelKind::Bert, ModelKind::Candle, ModelKind::Vgg16];

/// One job shape of the mix: its partitioned TopoOpt fabric (over local
/// server ids) and the iteration time it pays alone on that fabric.
#[derive(Debug, Clone)]
pub struct Prototype {
    /// Model kind.
    pub kind: ModelKind,
    /// The job, with `arrival_s = 0`.
    pub spec: DynamicJobSpec,
    /// `solo_iteration_s` of the job on its own fabric.
    pub solo_iter_s: f64,
}

/// The four 16-server prototypes of the datacenter-scale experiments:
/// heuristic strategy, demands on a full-mesh view, and a `TopologyFinder`
/// fabric with shortest-path MP routing.
pub fn prototypes() -> Vec<Prototype> {
    let n = SERVERS_PER_JOB;
    let compute = ComputeParams::default();
    MIX_KINDS
        .iter()
        .map(|&kind| {
            let model = build_model(kind, ModelPreset::Shared);
            let strategy = if model.embedding_param_bytes() > model.dense_param_bytes() {
                ParallelizationStrategy::hybrid_embeddings_round_robin(&model, n)
            } else {
                ParallelizationStrategy::pure_data_parallel(&model, n)
            };
            let demands = extract_traffic(&model, &strategy, compute.gpus_per_server);
            let view = TopologyView::FullMesh { n, per_server_bps: DEGREE as f64 * LINK_BPS };
            let compute_s = estimate_iteration_time(&model, &strategy, &view, &compute).compute_s;
            let out = topology_finder(&TopologyFinderInput {
                num_servers: n,
                degree: DEGREE,
                link_bps: LINK_BPS,
                demands: &demands,
                totient: TotientPermsConfig::default(),
                matching: MatchingAlgo::Auto,
                mp_shortest_path: true,
                availability_aware: false,
            });
            let plans = out
                .groups
                .iter()
                .map(|g| AllReducePlan { permutations: g.permutations(), bytes: g.bytes })
                .collect();
            let spec = DynamicJobSpec {
                name: model.name.clone(),
                servers: n,
                demands,
                plans,
                topology: Some(out.graph),
                compute_s,
                arrival_s: 0.0,
                iterations: ITERATIONS,
            };
            let solo_iter_s = solo_iteration_s(&spec, PER_HOP_LATENCY_S);
            Prototype { kind, spec, solo_iter_s }
        })
        .collect()
}

/// The prototype of one model kind.
pub fn prototype(protos: &[Prototype], kind: ModelKind) -> &Prototype {
    protos.iter().find(|p| p.kind == kind).expect("the job mix only draws prototype kinds")
}

/// Seeded Fisher–Yates shuffle (SplitMix64 stream). `job_mix_for_load`
/// lists jobs grouped by model kind; a trace interleaves them, so that the
/// first and second halves of a trace offer the same mix.
pub fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut state = seed ^ 0x5851_f42d_4c95_7f2d;
    let mut next = || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    for i in (1..items.len()).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

/// Dynamic-cluster parameters: every workload builds them here, so a change
/// to the parameter struct touches one place.
pub fn cluster_params(
    total_servers: usize,
    fabric: DynamicFabric,
    provisioning_time_s: f64,
) -> DynamicClusterParams {
    DynamicClusterParams {
        total_servers,
        fabric,
        provisioning_time_s,
        per_hop_latency_s: PER_HOP_LATENCY_S,
        migration: MigrationMode::Atomic,
        shared_engine: SharedEngineMode::Persistent,
        window_cap: None,
        faults: vec![],
    }
}
