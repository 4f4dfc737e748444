//! Model↔implementation conformance: the real tree must check clean,
//! and a drift mutant — the real `endpoint.rs` with `on_timeout`'s body
//! gutted, so it silently stops clearing the parked slot and emitting
//! TRYAGAIN — must be caught with a deterministic file:line-anchored
//! diagnostic. The mutant is derived from the file it mutates on every
//! run, so it can never drift from it.

use lint::conformance::{check_conformance, real_tree_sources, Role, SourceFile};
use lint::parse::parse_functions;
use lint::scan::scan;
use lint::{workspace_root, Rule};

/// Diagnostic path of the derived mutant.
const MUTANT_PATH: &str = "crates/nic-lauberhorn/src/endpoint.rs (on_timeout gutted)";

#[test]
fn real_tree_is_conformance_clean() {
    let files = real_tree_sources(&workspace_root()).expect("read conformance sources");
    let violations = check_conformance(&files);
    assert!(violations.is_empty(), "{violations:#?}");
}

/// `source` with the body of `Endpoint::on_timeout` replaced by
/// `Vec::new()`. Panics if there is no such function to gut, so the
/// drift tests can never pass on an unmutated file.
fn gut_on_timeout(source: &str) -> String {
    let tokens = scan(source).tokens;
    let f = parse_functions(&tokens)
        .into_iter()
        .find(|f| f.qualname() == "Endpoint::on_timeout" && f.body.1 > f.body.0)
        .expect("endpoint.rs defines Endpoint::on_timeout with a body");
    let open = tokens[f.body.0].line;
    let close = tokens[f.body.1 - 1].line;
    assert!(close > open + 1, "on_timeout's body spans no whole line");
    let lines: Vec<&str> = source.lines().collect();
    let mut out: Vec<&str> = lines[..open].to_vec();
    out.push("        Vec::new()");
    out.extend_from_slice(&lines[close - 1..]);
    let mutant = out.join("\n") + "\n";
    assert_ne!(mutant, source, "the mutation changed nothing");
    mutant
}

fn drifted_tree() -> Vec<SourceFile> {
    let mut files = real_tree_sources(&workspace_root()).expect("read conformance sources");
    let endpoint = files
        .iter_mut()
        .find(|f| f.role == Role::Endpoint)
        .expect("endpoint source present");
    endpoint.source = gut_on_timeout(&endpoint.source);
    endpoint.path = MUTANT_PATH.to_string();
    files
}

#[test]
fn drift_mutant_is_caught_at_the_gutted_timeout_path() {
    let files = drifted_tree();
    let violations = check_conformance(&files);
    assert!(!violations.is_empty(), "drift mutant went undetected");

    // Every finding is a conformance finding against the mutant's
    // timeout action — the rest of the (real) tree stays clean.
    let drift: Vec<_> = violations
        .iter()
        .filter(|v| v.rule == Rule::Conformance && v.msg.contains("timeout/tryagain"))
        .collect();
    assert!(
        !drift.is_empty(),
        "expected a timeout/tryagain conformance finding, got: {violations:#?}"
    );

    // The diagnostic anchors at the mutated function in the derived
    // source, not somewhere else in the tree.
    let mutant = files
        .iter()
        .find(|f| f.role == Role::Endpoint)
        .expect("endpoint source present");
    let anchor = mutant
        .source
        .lines()
        .position(|l| l.contains("pub fn on_timeout"))
        .expect("mutant defines on_timeout")
        + 1;
    for v in &drift {
        assert_eq!(v.file, MUTANT_PATH, "{v}");
        assert_eq!(v.line, anchor, "{v}");
    }
}

#[test]
fn drift_diagnostics_are_deterministic() {
    let render = |vs: &[lint::Violation]| {
        vs.iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    };
    let a = check_conformance(&drifted_tree());
    let b = check_conformance(&drifted_tree());
    assert_eq!(render(&a), render(&b));
}
