//! The blame split is complete: every stage label maps to exactly one
//! layer, and on real traced runs of every stack and workload the
//! grouped shares sum to 1000 ‰. Those traced runs also report exactly
//! what bare runs do.

use lauberhorn_perfbench::bench::{self, StackId, Workload};
use lauberhorn_perfbench::blame::{self, Layer, STAGES};
use lauberhorn_sim::critpath::Segment;

#[test]
fn every_stage_label_maps_to_exactly_one_layer() {
    for (i, stage) in STAGES.iter().enumerate() {
        let label = stage.label();
        assert!(
            STAGES[i + 1..].iter().all(|s| s.label() != label),
            "stage label `{label}` listed twice"
        );
        assert_eq!(blame::layer_of_label(label), Some(blame::layer_of(*stage)));
    }
    assert_eq!(blame::layer_of_label(Segment::GAP_LABEL), Some(Layer::Gap));
    assert!(
        STAGES.iter().all(|s| s.label() != Segment::GAP_LABEL),
        "a stage label collides with the gap label"
    );
    assert_eq!(blame::layer_of_label("no-such-stage"), None);
}

#[test]
fn traced_runs_sum_to_1000_permille_and_match_bare_runs() {
    for workload in Workload::ALL {
        let services = workload.services();
        let wl = workload.spec(3, 20);
        for stack in StackId::ALL {
            let run = bench::traced(stack, &services, &wl);
            let profile = run.report.blame.as_ref().expect("traced runs carry blame");
            let ctx = format!("{} on {}", stack.label(), workload.name());
            assert!(profile.requests > 0, "{ctx}: nothing attributed");
            let shares = blame::group_permille(profile)
                .unwrap_or_else(|e| panic!("{ctx}: {e}"))
                .expect("attributed time is non-zero");
            let sum: f64 = shares.iter().sum();
            assert!((sum - 1000.0).abs() < 1e-6, "{ctx}: shares sum to {sum}");
            let bare = bench::plain(stack, &services, &wl);
            assert_eq!(
                run.report.digest(),
                bare.report.digest(),
                "{ctx}: the wrapper and spans changed the report"
            );
        }
    }
}
