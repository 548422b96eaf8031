//! The benchmark's own checks, on small instances of every workload.

use topoopt_graph::Graph;
use topoopt_netsim::SimNetwork;
use topoopt_perfbench::churn::{Churn, ChurnConfig};
use topoopt_perfbench::plan_jobs::PlanJobs;
use topoopt_perfbench::static_round::StaticRound;
use topoopt_perfbench::trace::Tracer;
use topoopt_perfbench::{run, Workload, PER_LAYER};

const SEED: u64 = 3;

fn small_static() -> StaticRound {
    StaticRound::setup(128, SEED)
}

fn small_shared() -> Churn {
    Churn::setup(ChurnConfig { servers: 64, jobs: 40, load: 0.6, shared: true }, SEED)
}

fn small_partitioned() -> Churn {
    Churn::setup(ChurnConfig { servers: 256, jobs: 60, load: 0.9, shared: false }, SEED)
}

fn small_plans() -> PlanJobs {
    let mut p = PlanJobs::setup(16, SEED);
    p.cfg.mcmc.iterations = 40;
    p
}

fn digest_of<W: Workload>(w: &W) -> u64 {
    let checked = w.check(&w.measure(&Tracer::new(false)));
    assert_eq!(checked.failed, 0, "a clean workload fails no check");
    assert!(checked.ops > 0);
    checked.digest
}

fn all_digests() -> Vec<u64> {
    vec![
        digest_of(&small_static()),
        digest_of(&small_shared()),
        digest_of(&small_partitioned()),
        digest_of(&small_plans()),
    ]
}

#[test]
fn digests_match_under_one_and_two_threads() {
    std::env::set_var("RAYON_NUM_THREADS", "1");
    let one = all_digests();
    std::env::set_var("RAYON_NUM_THREADS", "2");
    let two = all_digests();
    std::env::remove_var("RAYON_NUM_THREADS");
    assert_eq!(one, two);
    assert_eq!(one, all_digests(), "digests repeat run over run");
}

#[test]
fn an_unroutable_job_is_counted_as_failed() {
    let mut round = small_static();
    let n = round.net.num_servers;
    // Unplug every link of the last job's shard: its flows have no route.
    let victim = round.jobs.last().expect("the round places jobs").servers.clone();
    let mut cut = Graph::new(n);
    for (_, e) in round.net.graph.edges() {
        if !victim.contains(&e.src) && !victim.contains(&e.dst) {
            cut.add_edge(e.src, e.dst, e.capacity_bps);
        }
    }
    round.net = SimNetwork::without_rules(cut, n);
    let checked = round.check(&round.measure(&Tracer::new(false)));
    assert!(checked.failed > 0, "the unplugged job's flows must fail the routability check");
    assert!(checked.failed < checked.ops, "the other jobs still route");

    let report = run(|| round.clone(), 0.0, &Tracer::new(false));
    assert!(report.failed > 0 && report.attempted > report.failed);
}

#[test]
fn traced_runs_report_every_layer_metric_and_replay_exactly() {
    let tracer = Tracer::new(true);
    let reports = [
        run(small_static, 0.0, &tracer),
        run(small_shared, 0.0, &tracer),
        run(small_partitioned, 0.0, &tracer),
        run(small_plans, 0.0, &tracer),
    ];
    for r in &reports {
        assert_eq!(r.failed, 0, "replays agree with the measured phase");
        for (name, _) in PER_LAYER {
            assert!(r.layers.contains_key(*name), "{name} missing");
        }
    }
    let [round, shared, partitioned, plans] = &reports;
    assert_eq!(round.layers["netsim.routing.paths"], round.layers["netsim.flows.flows_built"]);
    assert!(shared.layers["netsim.dynamic.windows"] > 0.0);
    assert_eq!(partitioned.layers["netsim.solo.calls"], 60.0);
    assert!(plans.layers["core.topology_finder.calls"] >= 6.0);
    assert!(tracer.chrome_json().starts_with("{\"displayTimeUnit\""));
}
