//! Fixture-driven rule tests: each fixture file must trip exactly the
//! rules it was written to trip, and pragma suppression must hold.

use lint::{lint_source, Rule};

fn rules(crate_name: &str, src: &str) -> Vec<Rule> {
    lint_source(crate_name, "fixture.rs", src)
        .into_iter()
        .map(|v| v.rule)
        .collect()
}

#[test]
fn panics_fixture_trips_panic_path_only() {
    let got = rules("nic-lauberhorn", include_str!("../fixtures/panics.rs"));
    assert!(!got.is_empty());
    assert!(got.iter().all(|r| *r == Rule::PanicPath), "{got:?}");
    // unwrap, expect, panic!, unreachable!, assert! — debug_assert and
    // unwrap_or/unwrap_or_default must not count.
    assert_eq!(got.len(), 5, "{got:?}");
}

#[test]
fn indexing_fixture_trips_unchecked_index_only() {
    let got = rules("coherence", include_str!("../fixtures/indexing.rs"));
    assert!(got.iter().all(|r| *r == Rule::UncheckedIndex), "{got:?}");
    // s.v[0] and table[i]; the array literal and `for _ in [..]` are
    // exempt. One finding per line after dedup.
    assert_eq!(got.len(), 2, "{got:?}");
}

#[test]
fn nondet_fixture_trips_time_and_collections() {
    let got = rules("rpc", include_str!("../fixtures/nondet.rs"));
    assert!(got.contains(&Rule::NondetTime), "{got:?}");
    assert!(got.contains(&Rule::UnorderedCollection), "{got:?}");
    // In a hot-path crate that is not determinism-scoped, only the
    // time rule fires.
    let os_only = rules("nic-lauberhorn", include_str!("../fixtures/nondet.rs"));
    assert!(
        os_only.iter().all(|r| *r == Rule::NondetTime),
        "{os_only:?}"
    );
}

#[test]
fn pragma_fixture_is_clean_everywhere() {
    for krate in ["nic-lauberhorn", "coherence", "os", "rpc", "sim", "mc"] {
        let got = rules(krate, include_str!("../fixtures/pragma_ok.rs"));
        assert!(got.is_empty(), "{krate}: {got:?}");
    }
}

#[test]
fn bad_pragma_fixture_trips_and_suppresses_nothing() {
    let got = rules("os", include_str!("../fixtures/bad_pragma.rs"));
    assert!(got.contains(&Rule::BadPragma), "{got:?}");
    assert!(
        got.contains(&Rule::PanicPath),
        "reasonless pragma must not suppress: {got:?}"
    );
}

#[test]
fn test_gated_fixture_is_clean() {
    let got = rules("os", include_str!("../fixtures/test_gated.rs"));
    assert!(got.is_empty(), "{got:?}");
}

#[test]
fn lexer_edges_fixture_is_clean_in_a_hot_crate() {
    // Raw strings, nested block comments, lifetimes vs char literals,
    // raw identifiers, and string line-continuations all hide
    // panic-like text; a lexer bug leaks it into the token stream and
    // a rule fires.
    let got = rules("nic-lauberhorn", include_str!("../fixtures/lexer_edges.rs"));
    assert!(got.is_empty(), "{got:?}");
}

#[test]
fn growth_fixture_trips_unguarded_arrival_pushes_only() {
    let got = rules("nic-lauberhorn", include_str!("../fixtures/growth.rs"));
    assert!(got.iter().all(|r| *r == Rule::UnboundedGrowth), "{got:?}");
    // on_frame (no check) and handle_burst (check on one branch only);
    // the dominated push, the pragma'd insert, and the non-arrival
    // push stay clean.
    assert_eq!(got.len(), 2, "{got:?}");
    // The rule is hot-path-scoped: the same file is clean in `mc`.
    assert!(rules("mc", include_str!("../fixtures/growth.rs")).is_empty());
}

#[test]
fn recovery_fixture_trips_impure_recovery_paths_only() {
    let got = rules("os", include_str!("../fixtures/recovery.rs"));
    assert!(got.iter().all(|r| *r == Rule::RecoveryPurity), "{got:?}");
    // vec! + unwrap in `repaired`, format! in `reconstruct_label`; the
    // field-only path and the non-recovery fn stay clean.
    assert_eq!(got.len(), 3, "{got:?}");
    // The rule only applies inside the `os` crate.
    assert!(rules("rpc", include_str!("../fixtures/recovery.rs")).is_empty());
}

#[test]
fn counters_fixture_trips_the_unregistered_counter_only() {
    let got = lint_source("rpc", "fixture.rs", include_str!("../fixtures/counters.rs"));
    assert!(
        got.iter().all(|v| v.rule == Rule::CounterBalance),
        "{got:?}"
    );
    assert_eq!(got.len(), 1, "{got:?}");
    assert!(got[0].msg.contains("ghost_frames"), "{}", got[0].msg);
}

#[test]
fn unused_pragma_fixture_trips_the_stale_pragma_only() {
    let got = lint_source(
        "nic-lauberhorn",
        "fixture.rs",
        include_str!("../fixtures/unused_pragma.rs"),
    );
    assert!(got.iter().all(|v| v.rule == Rule::UnusedPragma), "{got:?}");
    // The pragma over `unwrap_or` suppresses nothing and is flagged at
    // its own line; the live pragma over the real unwrap is not.
    assert_eq!(got.len(), 1, "{got:?}");
    assert_eq!(got[0].line, 11, "{}", got[0]);
}
