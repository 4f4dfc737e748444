//! The trend gate end to end: artifacts built from real traced runs
//! compare clean against themselves, and a seeded regression — the
//! exact manipulation a bad commit would produce — is caught and
//! attributed to the stage whose critical-path blame grew.

use lauberhorn::prelude::*;
use lauberhorn::sim::ObserveSpec;
use lauberhorn_bench::artifact::{self, BenchRow};
use lauberhorn_bench::json::Json;
use lauberhorn_bench::trend;

/// One traced closed-loop run per stack, as the profile bin emits.
fn profile_doc() -> Json {
    let wl = WorkloadSpec::echo_closed(64, 2, 7).with_observe(ObserveSpec::full());
    let rows: Vec<BenchRow> = [
        StackKind::KernelModern,
        StackKind::BypassModern,
        StackKind::LauberhornEnzian,
    ]
    .into_iter()
    .map(|k| BenchRow::from_report(0.0, &Experiment::new(k).run(&wl)))
    .collect();
    artifact::document("profile", 7, &rows)
}

#[test]
fn traced_runs_carry_blame_and_self_compare_clean() {
    let doc = profile_doc();
    artifact::validate(&doc).expect("profile artifact must validate");
    let rows = doc.get("rows").and_then(Json::as_arr).expect("rows");
    assert!(!rows.is_empty());
    for row in rows {
        let blame = row.get("blame").expect("traced rows must carry blame");
        let Json::Obj(shares) = blame else {
            panic!("blame must be an object");
        };
        assert!(!shares.is_empty(), "blame must name at least one stage");
    }
    let t = trend::compare("profile", &doc, &doc, &trend::Thresholds::default())
        .expect("self-comparison succeeds");
    assert_eq!(t.failures(), 0, "identical artifacts must not regress");
}

/// Seeds a regression into a copy of the document: inflate one stack's
/// p99 by `factor` and shift its blame toward `stage`.
fn seed_regression(doc: &Json, stack: &str, factor: f64, stage: &str) -> Json {
    let mut doc = doc.clone();
    let Json::Obj(fields) = &mut doc else {
        panic!("document is an object");
    };
    for (k, v) in fields.iter_mut() {
        if k != "rows" {
            continue;
        }
        let Json::Arr(rows) = v else {
            panic!("rows is an array");
        };
        for row in rows {
            let is_target = row.get("stack").and_then(Json::as_str) == Some(stack);
            if !is_target {
                continue;
            }
            let Json::Obj(row_fields) = row else {
                panic!("row is an object");
            };
            for (rk, rv) in row_fields.iter_mut() {
                if rk == "rtt_p99_us" {
                    let old = rv.as_f64().expect("p99 is a number");
                    *rv = Json::Num(old * factor);
                }
                if rk == "blame" {
                    // The regressed stage absorbs 600 permille; the
                    // rest shrink to keep the shares plausible.
                    let Json::Obj(shares) = rv else {
                        panic!("blame is an object");
                    };
                    for (_, pm) in shares.iter_mut() {
                        let old = pm.as_f64().expect("share is a number");
                        *pm = Json::Num((old * 0.4).floor());
                    }
                    match shares.iter_mut().find(|(s, _)| s == stage) {
                        Some((_, pm)) => *pm = Json::Num(600.0),
                        None => shares.push((stage.to_string(), Json::Num(600.0))),
                    }
                }
            }
        }
    }
    doc
}

#[test]
fn seeded_regression_is_caught_and_attributed() {
    let baseline = profile_doc();
    let current = seed_regression(&baseline, "lauberhorn/enzian-eci", 2.0, "recovery");
    artifact::validate(&current).expect("seeded artifact still validates");
    let t = trend::compare(
        "profile",
        &current,
        &baseline,
        &trend::Thresholds::default(),
    )
    .expect("comparison succeeds");
    assert_eq!(t.failures(), 1, "exactly the seeded row must regress");
    let bad = t
        .rows
        .iter()
        .find(|r| r.status == trend::RowStatus::Regressed)
        .expect("the seeded regression is flagged");
    assert!(bad.stack.contains("lauberhorn"));
    assert!(
        bad.deltas
            .iter()
            .any(|d| d.metric == "rtt_p99_us" && d.regressed),
        "the p99 delta is the one that fired"
    );
    assert_eq!(
        bad.attributed_stage.as_deref(),
        Some("recovery"),
        "blame growth attributes the regression to the seeded stage"
    );

    // The emitted document validates and gates: regressions > 0.
    let doc = trend::document(std::slice::from_ref(&t));
    trend::validate(&doc).expect("trend document validates");
    let n = doc
        .get("regressions")
        .and_then(Json::as_f64)
        .expect("count");
    assert_eq!(n, 1.0);
    // Deterministic artifact: byte-identical on re-render.
    assert_eq!(
        doc.render(),
        trend::document(std::slice::from_ref(&t)).render()
    );
}

#[test]
fn stack_names_match_the_committed_baselines() {
    // The baseline files committed under baselines/trend/ must keep
    // pairing with what the bins emit; a renamed stack would silently
    // turn every row into new+missing. Guard the join keys.
    let doc = profile_doc();
    let rows = doc.get("rows").and_then(Json::as_arr).expect("rows");
    let names: Vec<&str> = rows
        .iter()
        .filter_map(|r| r.get("stack").and_then(Json::as_str))
        .collect();
    for expect in ["kernel/", "bypass/", "lauberhorn/"] {
        assert!(
            names.iter().any(|n| n.starts_with(expect)),
            "expected a stack starting with {expect}, got {names:?}"
        );
    }
}

#[test]
fn baseline_without_an_artifact_fails_with_every_row_missing() {
    // A bin that stops writing its artifact must not pass silently:
    // its baseline compares against an empty artifact.
    let baseline = profile_doc();
    let n = baseline
        .get("rows")
        .and_then(Json::as_arr)
        .map_or(0, |r| r.len());
    assert!(n > 0);
    let t = trend::compare(
        "profile",
        &trend::empty_artifact("profile"),
        &baseline,
        &trend::Thresholds::default(),
    )
    .expect("comparison succeeds");
    assert_eq!(t.rows.len(), n);
    assert!(t.rows.iter().all(|r| r.status == trend::RowStatus::Missing));
    assert_eq!(t.failures(), n, "every vanished row gates");
}

#[test]
fn every_committed_baseline_without_an_artifact_is_found() {
    let dir = trend::baseline_dir();
    let all = trend::baselines_without_artifact(&dir, &[]).expect("baseline dir scans");
    assert!(
        all.iter().any(|e| e == "fig2"),
        "the fig2 baseline is committed: {all:?}"
    );
    let present: Vec<String> = all.iter().filter(|e| *e != "fig2").cloned().collect();
    assert_eq!(
        trend::baselines_without_artifact(&dir, &present).expect("baseline dir scans"),
        ["fig2"]
    );
    assert!(trend::baselines_without_artifact(&dir, &all)
        .expect("baseline dir scans")
        .is_empty());
}
