//! Cross-run regression gate over the `BENCH_*.json` artifacts.
//!
//! ```text
//! cargo run --release -p lauberhorn-bench --bin trend
//! cargo run --release -p lauberhorn-bench --bin trend -- --write-baselines
//! ```
//!
//! Scans the workspace root for schema-valid `lauberhorn-bench/v1`
//! artifacts, compares each against its committed baseline under
//! `crates/bench/baselines/trend/`, and writes the deterministic
//! `BENCH_trend.json` (schema `lauberhorn-trend/v1`). Exits non-zero
//! when any row regressed past the noise thresholds or vanished from
//! an experiment, including every row of a baseline whose artifact is
//! absent — each latency regression is attributed to the
//! critical-path stage whose blame share grew, when the artifact
//! carries blame (the `profile` rows do).
//!
//! The `engine` artifact is wall-clock-dependent (events/second on the
//! host) and is skipped here; its dedicated ratio gate lives in
//! `engine_bench --gate`. `--write-baselines` refreshes the committed
//! baselines from the current artifacts instead of comparing.

use std::path::Path;

use lauberhorn_bench::json::Json;
use lauberhorn_bench::{artifact, trend};

/// Experiments whose artifacts embed host wall-clock measurements and
/// therefore cannot gate across machines.
const WALL_CLOCK_EXPERIMENTS: &[&str] = &["engine"];

fn main() {
    let write_baselines = std::env::args().skip(1).any(|a| a == "--write-baselines");
    let root = artifact::workspace_root();
    let mut names: Vec<String> = match std::fs::read_dir(&root) {
        Ok(entries) => entries
            .filter_map(|e| e.ok())
            .filter_map(|e| e.file_name().into_string().ok())
            .filter(|n| n.starts_with("BENCH_") && n.ends_with(".json") && n != "BENCH_trend.json")
            .collect(),
        Err(e) => {
            eprintln!("trend: cannot scan {}: {e}", root.display());
            std::process::exit(1);
        }
    };
    names.sort();

    let th = trend::Thresholds::default();
    let mut trends = Vec::new();
    let mut skipped = 0;
    for name in &names {
        let path = root.join(name);
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("trend: skip {name}: {e}");
                skipped += 1;
                continue;
            }
        };
        let doc = match Json::parse(&text) {
            Ok(d) => d,
            Err(e) => {
                eprintln!("trend: skip {name}: parse: {e}");
                skipped += 1;
                continue;
            }
        };
        if let Err(e) = artifact::validate(&doc) {
            eprintln!("trend: skip {name}: schema: {e}");
            skipped += 1;
            continue;
        }
        let experiment = doc
            .get("experiment")
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_string();
        if WALL_CLOCK_EXPERIMENTS.contains(&experiment.as_str()) {
            println!("trend: {experiment}: wall-clock experiment, skipped (gated elsewhere)");
            continue;
        }
        let baseline_path = trend::baseline_dir().join(format!("{experiment}.json"));
        if write_baselines {
            if let Some(dir) = baseline_path.parent() {
                if let Err(e) = std::fs::create_dir_all(dir) {
                    eprintln!("trend: cannot create {}: {e}", dir.display());
                    std::process::exit(1);
                }
            }
            if let Err(e) = std::fs::write(&baseline_path, &text) {
                eprintln!("trend: cannot write {}: {e}", baseline_path.display());
                std::process::exit(1);
            }
            println!("baseline {experiment} <- {name}");
            continue;
        }
        let baseline = if baseline_path.exists() {
            load_baseline(&baseline_path)
        } else {
            println!(
                "trend: {experiment}: no baseline (commit one with --write-baselines); \
                 treating all rows as new"
            );
            trend::empty_artifact(&experiment)
        };
        trends.push(compare(&experiment, &doc, &baseline, &th));
    }
    if write_baselines {
        println!(
            "baselines refreshed under {}",
            trend::baseline_dir().display()
        );
        return;
    }

    // A baseline without a current artifact is lost coverage: every
    // one of its rows is missing.
    let present: Vec<String> = trends.iter().map(|t| t.experiment.clone()).collect();
    let orphans = trend::baselines_without_artifact(&trend::baseline_dir(), &present)
        .unwrap_or_else(|e| {
            eprintln!("trend: {e}");
            std::process::exit(1)
        });
    for experiment in orphans {
        println!("trend: {experiment}: baseline has no current artifact; all rows missing");
        let baseline = load_baseline(&trend::baseline_dir().join(format!("{experiment}.json")));
        let empty = trend::empty_artifact(&experiment);
        trends.push(compare(&experiment, &empty, &baseline, &th));
    }

    for t in &trends {
        for r in &t.rows {
            let point = if r.offered_rps > 0.0 {
                format!("{} @ {:.0} rps", r.stack, r.offered_rps)
            } else {
                r.stack.clone()
            };
            let detail = r
                .deltas
                .iter()
                .filter(|d| d.regressed)
                .map(|d| format!("{} {:.2} -> {:.2}", d.metric, d.baseline, d.current))
                .collect::<Vec<_>>()
                .join(", ");
            let blame = match &r.attributed_stage {
                Some(stage) => format!(" [blame: {stage} +{}pm]", r.attributed_growth_pm),
                None => String::new(),
            };
            match r.status {
                trend::RowStatus::Ok => {}
                trend::RowStatus::New => println!("NEW       {} :: {point}", t.experiment),
                trend::RowStatus::Missing => println!("MISSING   {} :: {point}", t.experiment),
                trend::RowStatus::Regressed => {
                    println!("REGRESSED {} :: {point}: {detail}{blame}", t.experiment)
                }
            }
        }
    }

    let doc = trend::document(&trends);
    if let Err(e) = trend::validate(&doc) {
        eprintln!("trend: emitted document fails its own schema: {e}");
        std::process::exit(1);
    }
    let out = root.join("BENCH_trend.json");
    if let Err(e) = std::fs::write(&out, doc.render()) {
        eprintln!("trend: cannot write {}: {e}", out.display());
        std::process::exit(1);
    }
    let failures: usize = trends.iter().map(trend::ExperimentTrend::failures).sum();
    let compared: usize = trends.iter().map(|t| t.rows.len()).sum();
    println!(
        "trend: {} experiment(s), {compared} row(s), {failures} regression(s), \
         {skipped} skipped -> {}",
        trends.len(),
        out.display()
    );
    if failures > 0 {
        std::process::exit(1);
    }
}

/// Reads and schema-checks the committed baseline at `path`; exits
/// non-zero when it is unreadable or malformed.
fn load_baseline(path: &Path) -> Json {
    std::fs::read_to_string(path)
        .map_err(|e| e.to_string())
        .and_then(|text| Json::parse(&text))
        .and_then(|b| {
            artifact::validate(&b)?;
            Ok(b)
        })
        .unwrap_or_else(|e| {
            eprintln!("trend: baseline {}: {e}", path.display());
            std::process::exit(1)
        })
}

/// Compares one experiment's `current` artifact against `baseline`;
/// exits non-zero when either lacks the comparable fields.
fn compare(
    experiment: &str,
    current: &Json,
    baseline: &Json,
    th: &trend::Thresholds,
) -> trend::ExperimentTrend {
    trend::compare(experiment, current, baseline, th).unwrap_or_else(|e| {
        eprintln!("trend: {experiment}: {e}");
        std::process::exit(1)
    })
}
