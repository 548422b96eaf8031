//! Outside-in benchmark of the TopoOpt reproduction.
//!
//! Each workload generates its inputs from a seed (set-up), runs a measured
//! phase through the public APIs of `topoopt-netsim`, `topoopt-core`,
//! `topoopt-strategy`, `topoopt-rdma` and `topoopt-cluster`, and checks the
//! outputs: invariants on every run, and an output digest against the one
//! recorded for the default seed. [`run`] repeats the measured phase for the
//! requested time and reports medians; a traced run additionally records a
//! span around every layer call, replays the calls that happen inside a
//! composite API to split them into layers, and reports per-layer numbers.

pub mod churn;
pub mod digest;
pub mod inputs;
pub mod plan_jobs;
pub mod static_round;
pub mod trace;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use trace::Tracer;

/// Per-layer metric values keyed `<layer>.<metric>`.
pub type Layers = BTreeMap<String, f64>;

/// What the checks found in one run of a measured phase.
#[derive(Debug, Clone, Default)]
pub struct Checked {
    /// Operations attempted (a built flow, a simulated job, a planned job).
    pub ops: u64,
    /// Operations that broke an invariant.
    pub failed: u64,
    /// Digest of the simulated outputs.
    pub digest: u64,
    /// Deterministic work counters of the layers.
    pub counters: Layers,
}

/// A benchmark workload: inputs made at set-up, one measured phase, checks.
pub trait Workload {
    /// Everything the measured phase produced.
    type Output;

    /// The measured phase; every call into a layer goes through `tracer`.
    fn measure(&self, tracer: &Tracer) -> Self::Output;

    /// Invariants, digest and work counters of one measured phase.
    fn check(&self, out: &Self::Output) -> Checked;

    /// Traced runs only: re-issue the layer calls that a composite API makes
    /// internally, each in its own span, and derive the counters that need
    /// them. `measured` holds the medians of the traced measured phases.
    /// Returns the replay's counters and the number of replay checks that
    /// failed.
    fn replay(&self, out: &Self::Output, measured: &Layers, tracer: &Tracer) -> (Layers, u64);
}

/// Span names of the layers, in report order.
pub const LAYER_SPANS: &[&str] = &[
    "netsim.flows",
    "netsim.routing",
    "netsim.engine",
    "netsim.dynamic",
    "netsim.solo",
    "strategy.search",
    "strategy.traffic",
    "core.topology_finder",
    "core.co_optimize",
    "rdma.forwarding",
];

/// Every per-layer metric a traced run reports, with its unit. Layers a
/// workload does not exercise report 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("netsim.flows.busy_s", "s"),
    ("netsim.flows.calls", "count"),
    ("netsim.flows.flows_built", "count"),
    ("netsim.routing.busy_s", "s"),
    ("netsim.routing.paths", "count"),
    ("netsim.routing.mean_hops", "hops"),
    ("netsim.engine.busy_s", "s"),
    ("netsim.engine.events", "count"),
    ("netsim.engine.waterfills", "count"),
    ("netsim.engine.flows_rerated", "count"),
    ("netsim.engine.max_component", "count"),
    ("netsim.engine.us_per_event", "us"),
    ("netsim.dynamic.busy_s", "s"),
    ("netsim.dynamic.self_s", "s"),
    ("netsim.dynamic.windows", "count"),
    ("netsim.dynamic.windows_incremental", "count"),
    ("netsim.dynamic.jobs_rerated", "count"),
    ("netsim.dynamic.jobs_reused", "count"),
    ("netsim.dynamic.reuse_ratio", "ratio"),
    ("netsim.dynamic.events", "count"),
    ("netsim.dynamic.waterfills", "count"),
    ("netsim.dynamic.flows_rerated", "count"),
    ("netsim.dynamic.max_component", "count"),
    ("netsim.dynamic.jobs_completed", "count"),
    ("netsim.dynamic.late_window_cost_ratio", "ratio"),
    ("netsim.solo.busy_s", "s"),
    ("netsim.solo.calls", "count"),
    ("strategy.search.busy_s", "s"),
    ("strategy.search.calls", "count"),
    ("strategy.search.evaluated", "count"),
    ("strategy.search.accepted", "count"),
    ("strategy.search.accept_ratio", "ratio"),
    ("strategy.traffic.busy_s", "s"),
    ("core.topology_finder.busy_s", "s"),
    ("core.topology_finder.calls", "count"),
    ("core.co_optimize.busy_s", "s"),
    ("core.co_optimize.rounds", "count"),
    ("rdma.forwarding.busy_s", "s"),
    ("rdma.forwarding.rules", "count"),
    ("rdma.forwarding.relayed_fraction", "ratio"),
    ("rdma.forwarding.conflicts", "count"),
    ("trace.wall_s", "s"),
    ("trace.coverage", "ratio"),
];

/// Result of one benchmark run of one workload.
#[derive(Debug, Clone)]
pub struct Report {
    /// Operations attempted over every measured phase.
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// Digest of the first measured phase's outputs; a later phase whose
    /// digest differs counts as one failed operation.
    pub digest: u64,
    /// Host seconds of every measured phase, in run order.
    pub walls: Vec<f64>,
    /// Median host seconds of one measured phase.
    pub wall_s: f64,
    /// Median host seconds of one set-up.
    pub setup_s: f64,
    /// Set-up samples taken.
    pub setups: usize,
    /// Peak resident memory (`VmHWM`, MB) after the set-up and the first
    /// measured phase. Later phases repeat the same work; reading the peak
    /// here keeps it independent of how many phases fit in the run.
    pub peak_rss_mb: Option<f64>,
    /// Per-layer metrics (traced runs only; every name of [`PER_LAYER`]).
    pub layers: Layers,
}

/// Median of a sample (0 when empty).
pub fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Set-up samples per run: at least this many, and more while they take
/// less than [`SETUP_BUDGET`] in total.
pub const MIN_SETUPS: usize = 5;
/// Total set-up time after which no further sample is taken.
pub const SETUP_BUDGET: Duration = Duration::from_millis(1500);
/// Upper bound on set-up samples.
pub const MAX_SETUPS: usize = 100;
/// Shortest set-up sample: quicker set-ups are timed in batches and each
/// sample is the batch's mean.
pub const MIN_SETUP_SAMPLE: Duration = Duration::from_millis(5);

/// Time `setup` repeatedly; returns the per-set-up sample times. Each set-up
/// is dropped before the next is made, so memory holds one at a time and
/// the samples reuse the same heap instead of faulting in fresh pages.
fn time_setups<W>(setup: impl Fn() -> W) -> Vec<f64> {
    let t = Instant::now();
    drop(std::hint::black_box(setup()));
    let once_s = t.elapsed().as_secs_f64().max(1e-9);
    let batch = (MIN_SETUP_SAMPLE.as_secs_f64() / once_s).ceil().clamp(1.0, 4096.0) as usize;
    let mut samples = Vec::new();
    let started = Instant::now();
    while samples.len() < MIN_SETUPS
        || (started.elapsed() < SETUP_BUDGET && samples.len() < MAX_SETUPS)
    {
        let t = Instant::now();
        for _ in 0..batch {
            drop(std::hint::black_box(setup()));
        }
        samples.push(t.elapsed().as_secs_f64() / batch as f64);
    }
    samples
}

/// Run one workload: make its inputs, repeat the measured phase until
/// `seconds` have passed (at least once) and check every phase. With
/// `tracer` on, the phases are traced and the replay runs once after them.
/// Set-up is timed last, on a warm processor, after the inputs and outputs
/// of the phases are dropped.
pub fn run<W: Workload>(setup: impl Fn() -> W, seconds: f64, tracer: &Tracer) -> Report {
    let workload = setup();
    let mut peak_rss = None;
    let mut walls = Vec::new();
    let mut per_iteration: Vec<Layers> = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut first_digest = None;
    let mut digest_stable = true;
    let mut last = None;
    let measuring = Instant::now();
    while walls.is_empty() || measuring.elapsed().as_secs_f64() < seconds {
        drop(last.take());
        let mark = tracer.mark();
        let t = Instant::now();
        let out = std::hint::black_box(workload.measure(tracer));
        let wall = t.elapsed().as_secs_f64();
        if walls.is_empty() {
            peak_rss = peak_rss_mb();
        }
        walls.push(wall);
        let checked = workload.check(&out);
        attempted += checked.ops;
        failed += checked.failed;
        match first_digest {
            None => first_digest = Some(checked.digest),
            Some(d) if d != checked.digest => digest_stable = false,
            Some(_) => {}
        }
        if tracer.is_on() {
            let mut layers = checked.counters;
            for name in LAYER_SPANS {
                let (busy, calls) = tracer.busy_since(mark, name);
                layers.insert(format!("{name}.busy_s"), busy);
                layers.insert(format!("{name}.calls"), calls as f64);
            }
            layers.insert("trace.wall_s".into(), wall);
            layers.insert("trace.coverage".into(), tracer.top_level_since(mark) / wall);
            per_iteration.push(layers);
        }
        last = Some(out);
    }
    if !digest_stable {
        failed += 1;
    }

    let mut layers = Layers::new();
    if tracer.is_on() {
        for key in per_iteration[0].keys() {
            let sample = per_iteration.iter().map(|l| l.get(key).copied().unwrap_or(0.0)).collect();
            layers.insert(key.clone(), median(sample));
        }
        let out = last.take().expect("at least one measured phase ran");
        let mark = tracer.mark();
        let (replayed, replay_failed) = workload.replay(&out, &layers, tracer);
        failed += replay_failed;
        for name in LAYER_SPANS {
            let (busy, calls) = tracer.busy_since(mark, name);
            if calls > 0 {
                *layers.entry(format!("{name}.busy_s")).or_insert(0.0) += busy;
                *layers.entry(format!("{name}.calls")).or_insert(0.0) += calls as f64;
            }
        }
        layers.extend(replayed);
        derive(&mut layers);
        layers.retain(|k, _| PER_LAYER.iter().any(|(name, _)| name == k));
        for (name, _) in PER_LAYER {
            layers.entry((*name).to_string()).or_insert(0.0);
        }
    }
    drop(last);
    drop(workload);
    let setup_times = time_setups(setup);

    Report {
        attempted,
        failed,
        digest: first_digest.unwrap_or(0),
        wall_s: median(walls.clone()),
        walls,
        setup_s: median(setup_times.clone()),
        setups: setup_times.len(),
        peak_rss_mb: peak_rss,
        layers,
    }
}

/// Metrics derived from busy times and counters.
fn derive(layers: &mut Layers) {
    let get = |l: &Layers, k: &str| l.get(k).copied().unwrap_or(0.0);
    let events = get(layers, "netsim.engine.events");
    if events > 0.0 {
        let us = get(layers, "netsim.engine.busy_s") * 1e6 / events;
        layers.insert("netsim.engine.us_per_event".into(), us);
    }
    // The dynamic loop's own time: its span minus the replayed layer work it
    // performs internally (flow building on a shared fabric, per-admission
    // solo iterations on a partitioned one).
    let inner = get(layers, "netsim.flows.busy_s") + get(layers, "netsim.solo.busy_s");
    let dynamic = get(layers, "netsim.dynamic.busy_s");
    layers.insert("netsim.dynamic.self_s".into(), (dynamic - inner).max(0.0));
}

/// Peak resident memory of this process (`VmHWM`) in MB, if the platform
/// exposes it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
