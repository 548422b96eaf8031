//! Benchmark command line.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]
//! ```
//!
//! Prints a human-readable summary, then as its last line one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones (`wall_s`, `setup_s`, `peak_rss_mb`);
//! with `--trace 1` they are the per-layer ones, the self time of every
//! layer is printed, and the spans are written as Chrome trace-event JSON
//! under `perfbench/out/`. Exits 1 when a check fails, 2 on bad arguments.

use std::process::ExitCode;
use topoopt_perfbench::churn::{Churn, ChurnConfig};
use topoopt_perfbench::plan_jobs::PlanJobs;
use topoopt_perfbench::static_round::StaticRound;
use topoopt_perfbench::trace::Tracer;
use topoopt_perfbench::{run, Report, PER_LAYER};

/// Seed whose output digests are recorded below.
const DEFAULT_SEED: u64 = 7;

/// Output digests at [`DEFAULT_SEED`] and the sizes below. A change that
/// alters any simulated output, counter or plan changes its digest.
const RECORDED: &[(&str, u64)] = &[
    ("static_round", 0x2bb5_c9aa_6b53_f7ab),
    ("shared_churn", 0x0c6a_4a24_0000_1261),
    ("partitioned_churn", 0x1a6c_7c5d_282a_5fc1),
    ("plan_jobs", 0x21bf_07d5_8da3_3a3e),
];

const WORKLOADS: &[&str] = &["static_round", "shared_churn", "partitioned_churn", "plan_jobs"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args =
        Args { workload: String::new(), seed: DEFAULT_SEED, seconds: 10.0, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {}", WORKLOADS.join(", ")));
    }
    Ok(args)
}

/// Load comes from this one process. The thread team is `RAYON_NUM_THREADS`
/// when set, capped at the machine's cores, else one thread: the vendored
/// rayon starts a fresh thread team on every parallel call, and on a shared
/// two-core host that start-up cost made two-thread runs both slower and
/// less repeatable than one-thread runs.
fn pin_threads() -> usize {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let asked = std::env::var("RAYON_NUM_THREADS").ok().and_then(|v| v.parse::<usize>().ok());
    let threads = asked.unwrap_or(1).clamp(1, cores);
    std::env::set_var("RAYON_NUM_THREADS", threads.to_string());
    threads
}

fn run_workload(args: &Args, tracer: &Tracer) -> Report {
    let (seed, secs) = (args.seed, args.seconds);
    match args.workload.as_str() {
        "static_round" => run(|| StaticRound::setup(4096, seed), secs, tracer),
        "shared_churn" => {
            let cfg = ChurnConfig { servers: 512, jobs: 2000, load: 0.6, shared: true };
            run(|| Churn::setup(cfg, seed), secs, tracer)
        }
        "partitioned_churn" => {
            let cfg = ChurnConfig { servers: 8192, jobs: 3000, load: 0.9, shared: false };
            run(|| Churn::setup(cfg, seed), secs, tracer)
        }
        "plan_jobs" => run(|| PlanJobs::setup(256, seed), secs, tracer),
        other => unreachable!("workload {other} passed argument validation"),
    }
}

fn metric(name: &str, value: f64, unit: &str) -> String {
    let value = if value.is_finite() { value } else { 0.0 };
    format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            return ExitCode::from(2);
        }
    };
    let threads = pin_threads();
    let tracer = Tracer::new(args.trace);
    let report = run_workload(&args, &tracer);
    let rss_mb = report.peak_rss_mb.unwrap_or(0.0);

    let recorded = RECORDED.iter().find(|(w, _)| *w == args.workload).map(|&(_, d)| d);
    let digest_note = match (args.seed == DEFAULT_SEED, recorded) {
        (true, Some(d)) if d == report.digest => "matches the recorded digest",
        (true, Some(_)) => "DIFFERS from the recorded digest",
        (true, None) => "no digest recorded",
        (false, _) => "compare across commits at this seed",
    };
    let digest_ok = !(args.seed == DEFAULT_SEED && recorded.is_some_and(|d| d != report.digest));
    let failed = report.failed + u64::from(!digest_ok);
    let correct = failed == 0;

    println!(
        "{} seed {}: {} measured phase(s), {} set-up sample(s), {threads} thread(s)",
        args.workload,
        args.seed,
        report.walls.len(),
        report.setups
    );
    println!("digest {:016x} ({digest_note})", report.digest);
    let phases: Vec<String> = report.walls.iter().map(|w| format!("{w:.3}")).collect();
    println!("wall_s      {:.6} s (median; phases: {})", report.wall_s, phases.join(" "));
    println!("setup_s     {:.6} s", report.setup_s);
    println!("peak_rss_mb {rss_mb:.1} MB");
    let share = failed as f64 / report.attempted.max(1) as f64;
    println!("fail_share  {share} (ops {}, ops_failed {failed})", report.attempted);

    let metrics: Vec<String> = if args.trace {
        println!("self time per layer:");
        for (name, s) in &tracer.self_times() {
            println!("  {name:<28} {s:.6} s");
        }
        println!("per-layer metrics:");
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let v = report.layers.get(name).copied().unwrap_or(0.0);
                println!("  {name:<40} {v} {unit}");
                metric(name, v, unit)
            })
            .collect()
    } else {
        vec![
            metric("wall_s", report.wall_s, "s"),
            metric("setup_s", report.setup_s, "s"),
            metric("peak_rss_mb", rss_mb, "MB"),
        ]
    };
    if args.trace {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("trace-{}-seed{}.json", args.workload, args.seed));
        let written = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, tracer.chrome_json()));
        match written {
            Ok(()) => println!("trace written to {}", path.display()),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
        }
    }
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{failed},\"metrics\":{{{}}}}}",
        report.attempted,
        metrics.join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
