//! Regenerate the tables and figures of the TopoOpt evaluation.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p topoopt-bench --bin reproduce -- <experiment>... [options]
//! cargo run --release -p topoopt-bench --bin reproduce -- all --json bench/ --md
//! ```
//!
//! Every experiment builds a structured `ExperimentReport` (see the
//! `topoopt-report` crate); this binary only parses arguments, runs the
//! registry (`topoopt_bench::experiments`), and renders:
//!
//! ```text
//! default        aligned text, rendered from the report
//! --json <dir>   one BENCH_<id>.json per experiment + BENCH_SUMMARY.json
//! --md           regenerate EXPERIMENTS.md (paper-vs-measured index)
//! ```
//!
//! By default cluster sizes are scaled down (e.g. 32 servers instead of
//! 128) so the whole suite runs in minutes on a laptop; pass `--full` for
//! the paper-scale sizes. `--seed` makes the sampling/MCMC experiments
//! reproducible run-over-run (default: 7). Unknown flags and unknown
//! experiment names are rejected with exit code 2.

use std::path::PathBuf;
use std::process::ExitCode;

use serde::{Deserialize, Serialize};
use topoopt_bench::experiments::{self, ExperimentDef, Scale, DEFAULT_SEED, EXPERIMENTS};
use topoopt_report::ExperimentReport;

/// Parsed command line.
struct Cli {
    /// Selected experiment ids, in registry order (`all` when empty input).
    selected: Vec<&'static ExperimentDef>,
    full: bool,
    seed: u64,
    json_dir: Option<PathBuf>,
    md: bool,
}

enum Action {
    Run(Cli),
    List,
    Help,
}

fn usage() -> String {
    let mut out = String::new();
    out.push_str("usage: reproduce [<experiment>... | all | list] [options]\n\n");
    out.push_str("Regenerates the tables and figures of the TopoOpt evaluation.\n");
    out.push_str("Sweeps inside each experiment run in parallel across all cores;\n");
    out.push_str("experiments always run in registry order.\n\n");
    out.push_str("options:\n");
    out.push_str("  --full        paper-scale cluster sizes (default: scaled down)\n");
    out.push_str("  --seed <u64>  RNG seed for sampling/MCMC experiments (default: 7)\n");
    out.push_str("  --json <dir>  write BENCH_<id>.json per experiment + BENCH_SUMMARY.json\n");
    out.push_str("  --md          regenerate EXPERIMENTS.md (requires running 'all')\n");
    out.push_str("  -h/--help     this message\n\n");
    out.push_str("experiments:\n");
    for def in EXPERIMENTS {
        out.push_str(&format!("  {:<24} {} ({})\n", def.id, def.title, def.section));
    }
    out
}

fn parse_args(args: &[String]) -> Result<Action, String> {
    let mut full = false;
    let mut seed = DEFAULT_SEED;
    let mut json_dir = None;
    let mut md = false;
    let mut names: Vec<String> = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--full" => full = true,
            "--md" => md = true,
            "--seed" => {
                let value = iter.next().ok_or("--seed requires a value")?;
                seed = value
                    .parse::<u64>()
                    .map_err(|_| format!("--seed requires an unsigned integer, got '{value}'"))?;
            }
            "--json" => {
                let value = iter.next().ok_or("--json requires a directory")?;
                if value.starts_with('-') {
                    return Err(format!("--json requires a directory, got '{value}'"));
                }
                json_dir = Some(PathBuf::from(value));
            }
            "-h" | "--help" | "help" => return Ok(Action::Help),
            "list" => return Ok(Action::List),
            flag if flag.starts_with('-') => return Err(format!("unknown flag '{flag}'")),
            name => names.push(name.to_string()),
        }
    }

    let all = names.is_empty() || names.iter().any(|n| n == "all");
    let unknown: Vec<&String> =
        names.iter().filter(|n| *n != "all" && experiments::find(n).is_none()).collect();
    if !unknown.is_empty() {
        let mut msg = format!(
            "unknown experiment{} {}; valid names:\n",
            if unknown.len() > 1 { "s" } else { "" },
            unknown.iter().map(|n| format!("'{n}'")).collect::<Vec<_>>().join(", ")
        );
        for def in EXPERIMENTS {
            msg.push_str(&format!("  {}\n", def.id));
        }
        return Err(msg.trim_end().to_string());
    }
    // --md always rewrites the committed EXPERIMENTS.md; a subset run
    // would silently truncate it to the selected experiments.
    if md && !all {
        return Err(
            "--md regenerates the full EXPERIMENTS.md and requires running 'all'".to_string()
        );
    }
    // Registry order keeps text/markdown output independent of CLI order
    // and deduplicates repeated names.
    let selected: Vec<&'static ExperimentDef> =
        EXPERIMENTS.iter().filter(|def| all || names.iter().any(|n| n == def.id)).collect();
    Ok(Action::Run(Cli { selected, full, seed, json_dir, md }))
}

/// Per-experiment entry of `BENCH_SUMMARY.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct ExperimentSummary {
    id: String,
    title: String,
    section: String,
    tables: usize,
    rows: usize,
}

/// The combined `BENCH_SUMMARY.json` artifact.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct BenchSummary {
    generated_by: String,
    full: bool,
    seed: u64,
    experiments: Vec<ExperimentSummary>,
}

/// Write one `BENCH_<id>.json` per report. `BENCH_SUMMARY.json` is only
/// written when the full registry ran, so a subset run (e.g. regenerating
/// one experiment's artifact) never clobbers the committed summary with a
/// partial one. Returns whether the summary was written.
fn write_json_artifacts(
    dir: &PathBuf,
    reports: &[ExperimentReport],
    cli: &Cli,
) -> std::io::Result<bool> {
    std::fs::create_dir_all(dir)?;
    for report in reports {
        std::fs::write(dir.join(format!("BENCH_{}.json", report.id)), report.to_json())?;
    }
    if reports.len() < EXPERIMENTS.len() {
        return Ok(false);
    }
    let summary = BenchSummary {
        generated_by: "reproduce (topoopt-bench)".to_string(),
        full: cli.full,
        seed: cli.seed,
        experiments: reports
            .iter()
            .map(|r| ExperimentSummary {
                id: r.id.clone(),
                title: r.title.clone(),
                section: r.section.clone(),
                tables: r.tables.len(),
                rows: r.tables.iter().map(|t| t.rows.len()).sum(),
            })
            .collect(),
    };
    std::fs::write(dir.join("BENCH_SUMMARY.json"), serde::json::to_string_pretty(&summary))?;
    Ok(true)
}

/// Render the `EXPERIMENTS.md` paper-vs-measured index. Reports carry no
/// wall times, so the committed file is stable for a fixed seed and scale
/// (CI regenerates it and diffs).
fn render_experiments_md(reports: &[ExperimentReport], cli: &Cli) -> String {
    let mut out = String::new();
    out.push_str("# EXPERIMENTS — paper vs. measured\n\n");
    out.push_str(
        "Generated by `cargo run --release -p topoopt-bench --bin reproduce -- all --md`.\n\
         Do not edit by hand; regenerate after changing the harness.\n\n",
    );
    // The sizes come from the reports themselves (every report carries the
    // ScaleInfo it ran at), not from a restatement of Scale::new.
    let scale = reports[0].scale;
    out.push_str(&format!(
        "Run configuration: {} ({} dedicated / {} shared servers, {} MCMC iterations), seed {}.\n",
        if scale.full { "paper-scale (`--full`)" } else { "reduced scale" },
        scale.dedicated,
        scale.shared,
        scale.mcmc_iters,
        cli.seed
    ));
    for report in reports {
        out.push_str(&format!("\n## {} · `{}` ({})\n\n", report.title, report.id, report.section));
        out.push_str(&report.render_markdown());
    }
    out
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_args(&args) {
        Ok(Action::Help) => {
            print!("{}", usage());
            return ExitCode::SUCCESS;
        }
        Ok(Action::List) => {
            for def in EXPERIMENTS {
                println!("{}", def.id);
            }
            return ExitCode::SUCCESS;
        }
        Ok(Action::Run(cli)) => cli,
        Err(msg) => {
            eprintln!("reproduce: {msg}");
            eprintln!("try 'reproduce --help'");
            return ExitCode::from(2);
        }
    };

    let scale = Scale::new(cli.full, cli.seed);
    let started = std::time::Instant::now();
    let mut reports = Vec::new();
    for def in &cli.selected {
        println!("\n================ {} ================", def.id);
        // Timings go to stdout only: the artifacts stay byte-stable.
        let run_started = std::time::Instant::now();
        let report = experiments::run(def, &scale);
        let elapsed = run_started.elapsed();
        print!("{}", report.render_text());
        println!("[{} done in {:.2?}]", def.id, elapsed);
        reports.push(report);
    }
    if reports.len() > 1 {
        println!("\n[{} experiments done in {:.2?}]", reports.len(), started.elapsed());
    }

    if let Some(dir) = &cli.json_dir {
        match write_json_artifacts(dir, &reports, &cli) {
            Err(err) => {
                eprintln!("reproduce: failed to write JSON artifacts to {}: {err}", dir.display());
                return ExitCode::FAILURE;
            }
            Ok(true) => println!(
                "[wrote {} BENCH_*.json artifacts + BENCH_SUMMARY.json to {}]",
                reports.len(),
                dir.display()
            ),
            Ok(false) => println!(
                "[wrote {} BENCH_*.json artifacts to {}; BENCH_SUMMARY.json unchanged \
                 (subset run — use 'all --json' to refresh it)]",
                reports.len(),
                dir.display()
            ),
        }
    }
    if cli.md {
        let path = PathBuf::from("EXPERIMENTS.md");
        if let Err(err) = std::fs::write(&path, render_experiments_md(&reports, &cli)) {
            eprintln!("reproduce: failed to write {}: {err}", path.display());
            return ExitCode::FAILURE;
        }
        println!("[regenerated {} from {} experiments]", path.display(), reports.len());
    }
    ExitCode::SUCCESS
}
