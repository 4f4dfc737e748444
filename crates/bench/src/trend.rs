//! Cross-run regression tracking (`BENCH_trend.json`).
//!
//! Every `lauberhorn-bench/v1` artifact is a deterministic function of
//! the code (the simulation is seeded; wall-clock never enters the
//! rows), so a committed copy of each artifact doubles as a regression
//! baseline: any drift between the baseline and a fresh run is a code
//! change, not noise. This module compares current artifacts against
//! the baselines under `crates/bench/baselines/trend/`, applies
//! noise-aware thresholds (relative band plus an absolute floor, so a
//! 0.1 us wiggle on a 2 us p50 does not page anyone), attributes each
//! latency regression to the critical-path stage whose blame share
//! grew the most, and emits the `lauberhorn-trend/v1` document the CI
//! trend job gates on. The document carries no timestamps: two runs of
//! the same tree produce byte-identical `BENCH_trend.json`.

use std::path::{Path, PathBuf};

use crate::artifact;
use crate::json::Json;

/// The schema identifier the trend document carries.
pub const SCHEMA: &str = "lauberhorn-trend/v1";

/// Regression thresholds. A metric regresses only when it moves past
/// BOTH the relative band and the absolute floor — the floor absorbs
/// quantisation on near-zero metrics, the band scales with the value.
#[derive(Debug, Clone)]
pub struct Thresholds {
    /// Latency regression band (fraction; 0.10 = +10%).
    pub latency_rel: f64,
    /// Latency absolute floor in microseconds.
    pub latency_abs_us: f64,
    /// Throughput regression band (fraction; 0.05 = -5%).
    pub throughput_rel: f64,
    /// Throughput absolute floor in requests/second.
    pub throughput_abs_rps: f64,
}

impl Default for Thresholds {
    fn default() -> Self {
        Thresholds {
            latency_rel: 0.10,
            latency_abs_us: 1.0,
            throughput_rel: 0.05,
            throughput_abs_rps: 500.0,
        }
    }
}

/// One compared metric of one row.
#[derive(Debug, Clone)]
pub struct Delta {
    /// Metric name (`rtt_p50_us`, `rtt_p99_us`, `throughput_rps`).
    pub metric: &'static str,
    /// Baseline value.
    pub baseline: f64,
    /// Current value.
    pub current: f64,
    /// True when the move crosses both thresholds the wrong way.
    pub regressed: bool,
}

/// Verdict for one (stack, operating point) row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowStatus {
    /// Within thresholds.
    Ok,
    /// At least one metric regressed.
    Regressed,
    /// Present now, absent from the baseline (not a failure).
    New,
    /// Present in the baseline, absent now (a failure: lost coverage).
    Missing,
}

impl RowStatus {
    /// Stable string form used in the JSON document.
    pub fn label(self) -> &'static str {
        match self {
            RowStatus::Ok => "ok",
            RowStatus::Regressed => "regressed",
            RowStatus::New => "new",
            RowStatus::Missing => "missing",
        }
    }
}

/// One row's comparison result.
#[derive(Debug, Clone)]
pub struct RowTrend {
    /// Stack display name.
    pub stack: String,
    /// Offered load (0 for closed-loop rows).
    pub offered_rps: f64,
    /// Verdict.
    pub status: RowStatus,
    /// Per-metric deltas (empty for new/missing rows).
    pub deltas: Vec<Delta>,
    /// For a latency regression with blame on both sides: the stage
    /// whose critical-path share grew the most.
    pub attributed_stage: Option<String>,
    /// The growth of that stage's share, in permille points.
    pub attributed_growth_pm: i64,
}

/// One experiment's comparison result.
#[derive(Debug, Clone)]
pub struct ExperimentTrend {
    /// Experiment name (artifact `experiment` field).
    pub experiment: String,
    /// Row verdicts, in current-artifact order (missing rows last).
    pub rows: Vec<RowTrend>,
}

impl ExperimentTrend {
    /// Rows that gate CI: regressed plus missing.
    pub fn failures(&self) -> usize {
        self.rows
            .iter()
            .filter(|r| matches!(r.status, RowStatus::Regressed | RowStatus::Missing))
            .count()
    }
}

/// The extracted comparable fields of one artifact row.
struct RowData {
    stack: String,
    offered_rps: f64,
    throughput_rps: f64,
    rtt_p50_us: f64,
    rtt_p99_us: f64,
    blame: Vec<(String, i64)>,
}

fn extract_rows(doc: &Json) -> Result<Vec<(String, RowData)>, String> {
    let rows = doc
        .get("rows")
        .and_then(Json::as_arr)
        .ok_or("missing `rows` array")?;
    let mut out: Vec<(String, RowData)> = Vec::new();
    for (i, row) in rows.iter().enumerate() {
        let stack = row
            .get("stack")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("row {i}: missing `stack`"))?
            .to_string();
        let num = |field: &str| {
            row.get(field)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("row {i}: missing `{field}`"))
        };
        let offered_rps = num("offered_rps")?;
        let mut blame = Vec::new();
        if let Some(Json::Obj(shares)) = row.get("blame") {
            for (stage, share) in shares {
                blame.push((stage.clone(), share.as_f64().unwrap_or(0.0) as i64));
            }
        }
        let data = RowData {
            stack: stack.clone(),
            offered_rps,
            throughput_rps: num("throughput_rps")?,
            rtt_p50_us: num("rtt_p50_us")?,
            rtt_p99_us: num("rtt_p99_us")?,
            blame,
        };
        // Duplicate operating points keep their in-document ordinal so
        // repeated rows pair positionally across runs.
        let base_key = format!("{stack}@{offered_rps}");
        let dup = out.iter().filter(|(k, _)| k.starts_with(&base_key)).count();
        out.push((format!("{base_key}#{dup}"), data));
    }
    Ok(out)
}

/// Attributes a latency regression: the stage whose blame share grew
/// the most between baseline and current, when both carry blame.
fn attribute(base: &RowData, cur: &RowData) -> (Option<String>, i64) {
    if base.blame.is_empty() || cur.blame.is_empty() {
        return (None, 0);
    }
    let mut best: Option<(String, i64)> = None;
    for (stage, cur_pm) in &cur.blame {
        let base_pm = base
            .blame
            .iter()
            .find(|(s, _)| s == stage)
            .map(|(_, pm)| *pm)
            .unwrap_or(0);
        let growth = cur_pm - base_pm;
        let better = match &best {
            None => true,
            Some((_, g)) => growth > *g,
        };
        if better {
            best = Some((stage.clone(), growth));
        }
    }
    match best {
        Some((stage, growth)) if growth > 0 => (Some(stage), growth),
        _ => (None, 0),
    }
}

/// Compares one experiment's current artifact against its baseline.
pub fn compare(
    experiment: &str,
    current: &Json,
    baseline: &Json,
    th: &Thresholds,
) -> Result<ExperimentTrend, String> {
    let cur_rows = extract_rows(current).map_err(|e| format!("{experiment} (current): {e}"))?;
    let base_rows = extract_rows(baseline).map_err(|e| format!("{experiment} (baseline): {e}"))?;
    let mut rows = Vec::new();
    for (key, cur) in &cur_rows {
        let Some((_, base)) = base_rows.iter().find(|(k, _)| k == key) else {
            rows.push(RowTrend {
                stack: cur.stack.clone(),
                offered_rps: cur.offered_rps,
                status: RowStatus::New,
                deltas: Vec::new(),
                attributed_stage: None,
                attributed_growth_pm: 0,
            });
            continue;
        };
        let lat = |metric: &'static str, base_v: f64, cur_v: f64| Delta {
            metric,
            baseline: base_v,
            current: cur_v,
            regressed: cur_v > base_v * (1.0 + th.latency_rel)
                && cur_v - base_v > th.latency_abs_us,
        };
        let deltas = vec![
            lat("rtt_p50_us", base.rtt_p50_us, cur.rtt_p50_us),
            lat("rtt_p99_us", base.rtt_p99_us, cur.rtt_p99_us),
            Delta {
                metric: "throughput_rps",
                baseline: base.throughput_rps,
                current: cur.throughput_rps,
                regressed: cur.throughput_rps < base.throughput_rps * (1.0 - th.throughput_rel)
                    && base.throughput_rps - cur.throughput_rps > th.throughput_abs_rps,
            },
        ];
        let regressed = deltas.iter().any(|d| d.regressed);
        let latency_regressed = deltas
            .iter()
            .any(|d| d.regressed && d.metric.starts_with("rtt_"));
        let (attributed_stage, attributed_growth_pm) = if latency_regressed {
            attribute(base, cur)
        } else {
            (None, 0)
        };
        rows.push(RowTrend {
            stack: cur.stack.clone(),
            offered_rps: cur.offered_rps,
            status: if regressed {
                RowStatus::Regressed
            } else {
                RowStatus::Ok
            },
            deltas,
            attributed_stage,
            attributed_growth_pm,
        });
    }
    for (key, base) in &base_rows {
        if !cur_rows.iter().any(|(k, _)| k == key) {
            rows.push(RowTrend {
                stack: base.stack.clone(),
                offered_rps: base.offered_rps,
                status: RowStatus::Missing,
                deltas: Vec::new(),
                attributed_stage: None,
                attributed_growth_pm: 0,
            });
        }
    }
    Ok(ExperimentTrend {
        experiment: experiment.to_string(),
        rows,
    })
}

fn row_to_json(r: &RowTrend) -> Json {
    let mut fields = vec![
        ("stack".into(), Json::Str(r.stack.clone())),
        ("offered_rps".into(), Json::Num(r.offered_rps)),
        ("status".into(), Json::Str(r.status.label().into())),
        (
            "deltas".into(),
            Json::Arr(
                r.deltas
                    .iter()
                    .map(|d| {
                        Json::Obj(vec![
                            ("metric".into(), Json::Str(d.metric.into())),
                            ("baseline".into(), Json::Num(d.baseline)),
                            ("current".into(), Json::Num(d.current)),
                            ("regressed".into(), Json::Bool(d.regressed)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ];
    match &r.attributed_stage {
        Some(stage) => {
            fields.push(("attributed_stage".into(), Json::Str(stage.clone())));
            fields.push((
                "attributed_growth_pm".into(),
                Json::Num(r.attributed_growth_pm as f64),
            ));
        }
        None => fields.push(("attributed_stage".into(), Json::Null)),
    }
    Json::Obj(fields)
}

/// Assembles the `lauberhorn-trend/v1` document. Deterministic: no
/// timestamps, no host state — only the comparison results.
pub fn document(trends: &[ExperimentTrend]) -> Json {
    let failures: usize = trends.iter().map(ExperimentTrend::failures).sum();
    Json::Obj(vec![
        ("schema".into(), Json::Str(SCHEMA.into())),
        (
            "experiments".into(),
            Json::Arr(
                trends
                    .iter()
                    .map(|t| {
                        Json::Obj(vec![
                            ("experiment".into(), Json::Str(t.experiment.clone())),
                            (
                                "rows".into(),
                                Json::Arr(t.rows.iter().map(row_to_json).collect()),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("regressions".into(), Json::Num(failures as f64)),
    ])
}

/// Checks a document against `lauberhorn-trend/v1`: schema tag, row
/// shape, status vocabulary, and that `regressions` equals the count
/// of regressed-plus-missing rows.
pub fn validate(doc: &Json) -> Result<(), String> {
    if doc.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
        return Err(format!("missing or wrong schema tag (want `{SCHEMA}`)"));
    }
    let experiments = doc
        .get("experiments")
        .and_then(Json::as_arr)
        .ok_or("missing `experiments` array")?;
    let mut failures = 0.0;
    for exp in experiments {
        let name = exp
            .get("experiment")
            .and_then(Json::as_str)
            .ok_or("experiment missing `experiment` string")?;
        let rows = exp
            .get("rows")
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("{name}: missing `rows` array"))?;
        for (i, row) in rows.iter().enumerate() {
            let status = row
                .get("status")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("{name} row {i}: missing `status`"))?;
            if !matches!(status, "ok" | "regressed" | "new" | "missing") {
                return Err(format!("{name} row {i}: unknown status `{status}`"));
            }
            row.get("stack")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("{name} row {i}: missing `stack`"))?;
            row.get("deltas")
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("{name} row {i}: missing `deltas`"))?;
            if matches!(status, "regressed" | "missing") {
                failures += 1.0;
            }
        }
    }
    let claimed = doc
        .get("regressions")
        .and_then(Json::as_f64)
        .ok_or("missing `regressions` number")?;
    if claimed != failures {
        return Err(format!(
            "`regressions` says {claimed} but rows count {failures}"
        ));
    }
    Ok(())
}

/// The committed baseline directory (`crates/bench/baselines/trend/`).
pub fn baseline_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("baselines")
        .join("trend")
}

/// An `experiment` artifact with no rows: the missing side of a
/// comparison, so every row of the other side reads new or missing.
pub fn empty_artifact(experiment: &str) -> Json {
    Json::Obj(vec![
        ("schema".into(), Json::Str(artifact::SCHEMA.into())),
        ("experiment".into(), Json::Str(experiment.into())),
        ("seed".into(), Json::Num(0.0)),
        ("rows".into(), Json::Arr(Vec::new())),
    ])
}

/// The experiments with a baseline (`<experiment>.json`) in `dir` that
/// are not among `present`, in name order. The gate compares each
/// against [`empty_artifact`], so a bin that stopped writing its
/// artifact fails with every row missing, like a vanished row.
pub fn baselines_without_artifact(dir: &Path, present: &[String]) -> Result<Vec<String>, String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot scan {}: {e}", dir.display()))?;
    let mut orphans: Vec<String> = entries
        .filter_map(|e| e.ok())
        .filter_map(|e| e.file_name().into_string().ok())
        .filter_map(|n| n.strip_suffix(".json").map(str::to_string))
        .filter(|experiment| !present.contains(experiment))
        .collect();
    orphans.sort();
    Ok(orphans)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(p99: f64, recovery_pm: u64) -> Json {
        let handler_pm = 1000 - recovery_pm;
        Json::parse(&format!(
            "{{\"schema\": \"lauberhorn-bench/v1\", \"experiment\": \"x\", \"seed\": 1, \
             \"rows\": [{{\"stack\": \"s\", \"offered_rps\": 0, \"throughput_rps\": 1000000, \
             \"rtt_p50_us\": 10, \"rtt_p99_us\": {p99}, \"offered\": 100, \"completed\": 100, \
             \"blame\": {{\"handler\": {handler_pm}, \"recovery\": {recovery_pm}}}}}]}}"
        ))
        .expect("test doc parses")
    }

    #[test]
    fn identical_runs_have_no_regressions() {
        let base = doc(30.0, 100);
        let t = compare("x", &base, &base, &Thresholds::default()).expect("compares");
        assert_eq!(t.failures(), 0);
        assert!(t.rows.iter().all(|r| r.status == RowStatus::Ok));
    }

    #[test]
    fn latency_regression_is_attributed_to_grown_stage() {
        let base = doc(30.0, 100);
        let cur = doc(60.0, 600);
        let t = compare("x", &cur, &base, &Thresholds::default()).expect("compares");
        assert_eq!(t.failures(), 1);
        let row = t.rows.first().expect("one row");
        assert_eq!(row.status, RowStatus::Regressed);
        assert_eq!(row.attributed_stage.as_deref(), Some("recovery"));
        assert_eq!(row.attributed_growth_pm, 500);
    }

    #[test]
    fn small_moves_inside_the_band_pass() {
        let base = doc(30.0, 100);
        let cur = doc(30.5, 100); // +1.7%, under the 10% band
        let t = compare("x", &cur, &base, &Thresholds::default()).expect("compares");
        assert_eq!(t.failures(), 0);
    }

    #[test]
    fn missing_rows_fail_and_new_rows_pass() {
        let base = doc(30.0, 100);
        let empty = Json::parse(
            "{\"schema\": \"lauberhorn-bench/v1\", \"experiment\": \"x\", \"seed\": 1, \
             \"rows\": []}",
        )
        .expect("parses");
        let t = compare("x", &empty, &base, &Thresholds::default()).expect("compares");
        assert_eq!(t.failures(), 1);
        assert_eq!(t.rows.first().map(|r| r.status), Some(RowStatus::Missing));
        let t = compare("x", &base, &empty, &Thresholds::default()).expect("compares");
        assert_eq!(t.failures(), 0);
        assert_eq!(t.rows.first().map(|r| r.status), Some(RowStatus::New));
    }

    #[test]
    fn document_validates_and_is_deterministic() {
        let base = doc(30.0, 100);
        let cur = doc(60.0, 600);
        let t = compare("x", &cur, &base, &Thresholds::default()).expect("compares");
        let d = document(std::slice::from_ref(&t));
        validate(&d).expect("valid");
        assert_eq!(d.render(), document(std::slice::from_ref(&t)).render());
        let back = Json::parse(&d.render()).expect("parses");
        validate(&back).expect("still valid");
    }

    #[test]
    fn miscounted_regressions_rejected() {
        let t = compare(
            "x",
            &doc(30.0, 100),
            &doc(30.0, 100),
            &Thresholds::default(),
        )
        .expect("compares");
        let mut d = document(std::slice::from_ref(&t));
        if let Json::Obj(fields) = &mut d {
            for (k, v) in fields.iter_mut() {
                if k == "regressions" {
                    *v = Json::Num(7.0);
                }
            }
        }
        assert!(validate(&d).is_err());
    }
}
