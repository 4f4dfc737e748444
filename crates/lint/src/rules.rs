//! Lint rules and the suppression-pragma mechanism.
//!
//! Every rule is scoped to a set of crates (see [`scopes`]). A finding
//! can only be silenced in-tree with an inline pragma carrying a
//! justification:
//!
//! ```text
//! // lint:allow(panic-path): queue capacity checked two lines above
//! ```
//!
//! The pragma suppresses matching findings on its own line and on the
//! line immediately below, so it works both as a trailing comment and
//! as a standalone line above the site. A pragma without a reason (or
//! naming an unknown rule) is itself a violation — and is not
//! suppressible.

use std::collections::{BTreeMap, BTreeSet};

use crate::dataflow::{recovery_impurities, unchecked_growth};
use crate::parse::parse_functions;
use crate::scan::{scan, Comment, Token};

/// The rules the linter enforces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// `unwrap`/`expect`/`panic!`/`unreachable!`/release-mode asserts
    /// in hot-path crates. `debug_assert*` is allowed: it compiles out
    /// of release builds.
    PanicPath,
    /// Direct `expr[index]` indexing/slicing in hot-path crates (panics
    /// on out-of-bounds; use checked access or justify the bound).
    UncheckedIndex,
    /// Wall-clock time sources (`Instant`, `SystemTime`) anywhere
    /// outside the wall-clock bench harness.
    NondetTime,
    /// `HashMap`/`HashSet` in determinism-critical crates: their
    /// iteration order is arbitrary and must never feed reports or
    /// state digests. Use `BTreeMap`/`BTreeSet` or justify that the
    /// collection is never iterated.
    UnorderedCollection,
    /// A non-workspace dependency in a `Cargo.toml`.
    ExternalDep,
    /// A malformed suppression pragma (missing reason, unknown rule).
    BadPragma,
    /// A collection push on an arrival path not dominated by a
    /// capacity check of the same field (must-dataflow over the CFG).
    UnboundedGrowth,
    /// Allocation or unwrap-pattern in `os` recovery code: recovery
    /// runs while the system is degraded and must neither allocate
    /// nor panic.
    RecoveryPurity,
    /// A metrics counter incremented somewhere but registered nowhere:
    /// it would silently vanish from every report.
    CounterBalance,
    /// Model ↔ implementation drift found by the conformance pass
    /// (see [`crate::conformance`]).
    Conformance,
    /// A suppression pragma that suppresses nothing — stale pragmas
    /// hide real findings when the code under them changes.
    UnusedPragma,
}

impl Rule {
    /// The rule's pragma name.
    pub fn name(self) -> &'static str {
        match self {
            Rule::PanicPath => "panic-path",
            Rule::UncheckedIndex => "unchecked-index",
            Rule::NondetTime => "nondet-time",
            Rule::UnorderedCollection => "unordered-collection",
            Rule::ExternalDep => "external-dep",
            Rule::BadPragma => "bad-pragma",
            Rule::UnboundedGrowth => "unbounded-growth",
            Rule::RecoveryPurity => "recovery-purity",
            Rule::CounterBalance => "counter-balance",
            Rule::Conformance => "conformance",
            Rule::UnusedPragma => "unused-pragma",
        }
    }

    /// Pragma-name lookup. `bad-pragma` and `unused-pragma` are
    /// deliberately absent: pragma hygiene cannot be pragma'd away.
    fn from_name(name: &str) -> Option<Rule> {
        match name {
            "panic-path" => Some(Rule::PanicPath),
            "unchecked-index" => Some(Rule::UncheckedIndex),
            "nondet-time" => Some(Rule::NondetTime),
            "unordered-collection" => Some(Rule::UnorderedCollection),
            "external-dep" => Some(Rule::ExternalDep),
            "unbounded-growth" => Some(Rule::UnboundedGrowth),
            "recovery-purity" => Some(Rule::RecoveryPurity),
            "counter-balance" => Some(Rule::CounterBalance),
            "conformance" => Some(Rule::Conformance),
            _ => None,
        }
    }
}

/// Rule scoping: which crates each source rule applies to.
pub mod scopes {
    /// Crates on the request hot path: no panic, no unchecked access.
    pub const HOT_PATH: &[&str] = &["nic-lauberhorn", "coherence", "os", "rpc", "sim"];
    /// Crates whose output must be bit-deterministic: no unordered
    /// collections.
    pub const DETERMINISTIC: &[&str] = &["sim", "rpc", "mc", "core"];
    /// Crates allowed to read the wall clock (the bench harness
    /// measures real elapsed time) — and the linter itself.
    pub const WALL_CLOCK_EXEMPT: &[&str] = &["bench", "lint"];
    /// Crates that maintain metrics counters: every counter they
    /// increment must be registered in some metrics export.
    pub const TELEMETRY: &[&str] = &["nic-lauberhorn", "coherence", "os", "rpc"];
}

/// One finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Path relative to the workspace root.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// The rule violated.
    pub rule: Rule,
    /// Human explanation.
    pub msg: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file,
            self.line,
            self.rule.name(),
            self.msg
        )
    }
}

/// One well-formed pragma, for staleness tracking.
#[derive(Debug, Clone)]
pub struct PragmaSite {
    /// Line the pragma sits on (it covers this line and the next).
    pub line: usize,
    /// Rules it allows.
    pub rules: Vec<Rule>,
}

/// Parsed suppressions: line → rules allowed there, the pragma sites,
/// plus pragma errors.
struct Pragmas {
    allowed: BTreeMap<usize, Vec<Rule>>,
    sites: Vec<PragmaSite>,
    errors: Vec<(usize, String)>,
}

fn parse_pragmas(comments: &[Comment]) -> Pragmas {
    let mut allowed: BTreeMap<usize, Vec<Rule>> = BTreeMap::new();
    let mut sites = Vec::new();
    let mut errors = Vec::new();
    for c in comments {
        // Only a comment that *is* a pragma counts — prose or doc
        // examples that merely mention `lint:allow(` do not.
        let trimmed = c.text.trim_start();
        if !trimmed.starts_with("lint:allow(") {
            continue;
        }
        let rest = &trimmed["lint:allow(".len()..];
        let Some(close) = rest.find(')') else {
            errors.push((c.line, "unterminated lint:allow(...)".into()));
            continue;
        };
        let names = &rest[..close];
        let after = rest[close + 1..].trim_start();
        let reason = after.strip_prefix(':').map(str::trim).unwrap_or("");
        if reason.is_empty() {
            errors.push((
                c.line,
                "lint:allow pragma needs a justification: `// lint:allow(rule): reason`".into(),
            ));
            continue;
        }
        let mut rules = Vec::new();
        let mut bad = false;
        for name in names.split(',') {
            match Rule::from_name(name.trim()) {
                Some(r) => rules.push(r),
                None => {
                    errors.push((c.line, format!("unknown lint rule `{}`", name.trim())));
                    bad = true;
                }
            }
        }
        if !bad {
            // The pragma covers its own line and the next.
            allowed.entry(c.line).or_default().extend(rules.iter());
            allowed.entry(c.line + 1).or_default().extend(rules.iter());
            sites.push(PragmaSite {
                line: c.line,
                rules,
            });
        }
    }
    Pragmas {
        allowed,
        sites,
        errors,
    }
}

/// Keywords that may legally precede `[` without forming an index
/// expression (`for x in [..]`, `return [..]`, …).
const NON_INDEX_PREV: &[&str] = &[
    "in", "return", "break", "continue", "mut", "ref", "move", "if", "else", "while", "loop",
    "match", "let", "where", "unsafe", "yield", "dyn", "impl", "for", "const", "static", "pub",
    "use", "mod", "enum", "struct", "fn", "trait", "type", "as",
];

fn is_ident(text: &str) -> bool {
    text.chars()
        .next()
        .is_some_and(|c| c.is_alphabetic() || c == '_')
}

/// Panicking method names (called as `.name(`).
const PANIC_METHODS: &[&str] = &[
    "unwrap",
    "expect",
    "unwrap_err",
    "expect_err",
    "unwrap_none",
];

/// Panicking macro names (invoked as `name!`).
const PANIC_MACROS: &[&str] = &[
    "panic",
    "unreachable",
    "todo",
    "unimplemented",
    "assert",
    "assert_eq",
    "assert_ne",
];

/// Receiver-chain identifiers that mark a `+=` as a metrics-counter
/// increment (`self.stats.shed += 1`, `self.faults.crashes += 1`, …).
const COUNTER_RECEIVERS: &[&str] = &["stats", "metrics", "counters", "faults"];

/// Function names (or prefixes) that sit on the request arrival path
/// and therefore must bound every collection they grow.
fn is_arrival_fn(name: &str) -> bool {
    name.starts_with("on_")
        || name.starts_with("handle_")
        || matches!(
            name,
            "redeliver_to_kernel" | "ingest" | "admit" | "rx" | "enqueue" | "deliver"
        )
}

/// Whether `rule` can fire at all in `crate_name`. A pragma naming a
/// rule that is out of scope for its crate is inert, not stale — the
/// unused-pragma check only accuses pragmas whose rule could have
/// fired.
fn rule_in_scope(rule: Rule, crate_name: &str) -> bool {
    match rule {
        Rule::PanicPath | Rule::UncheckedIndex | Rule::UnboundedGrowth => {
            scopes::HOT_PATH.contains(&crate_name)
        }
        Rule::NondetTime => !scopes::WALL_CLOCK_EXEMPT.contains(&crate_name),
        Rule::UnorderedCollection => scopes::DETERMINISTIC.contains(&crate_name),
        Rule::CounterBalance => scopes::TELEMETRY.contains(&crate_name),
        Rule::RecoveryPurity => crate_name == "os",
        Rule::Conformance | Rule::ExternalDep | Rule::BadPragma | Rule::UnusedPragma => true,
    }
}

/// The per-file analysis: candidate findings plus the cross-file
/// facts (pragma sites, counter increments, registration surface)
/// that only resolve at workspace scope.
pub struct FileAnalysis {
    /// The crate the file belongs to (scopes the stale-pragma check).
    crate_name: String,
    /// Workspace-relative path.
    pub rel_path: String,
    /// Candidate findings, pragma suppression not yet applied.
    findings: Vec<(usize, Rule, String)>,
    /// Malformed pragmas (never suppressible).
    bad_pragmas: Vec<(usize, String)>,
    /// line → rules a pragma allows there.
    allowed: BTreeMap<usize, Vec<Rule>>,
    /// The pragma sites, for staleness tracking.
    sites: Vec<PragmaSite>,
    /// `(line, counter field)` of metrics increments in this file.
    pub counter_incs: Vec<(usize, String)>,
    /// Identifiers appearing inside `.counter(` / `.gauge(`
    /// registration argument lists.
    pub reg_idents: BTreeSet<String>,
    /// Function name → identifiers in its body (one-level closure for
    /// accessor-style registrations like `mirror.update_count()`).
    pub fn_idents: BTreeMap<String, BTreeSet<String>>,
}

impl FileAnalysis {
    /// Applies pragma suppression to the candidate findings plus any
    /// workspace-level `extra` findings for this file, then reports
    /// stale pragmas. Consumes the analysis.
    pub fn finalize(self, extra: Vec<(usize, Rule, String)>) -> Vec<Violation> {
        let mut findings = self.findings;
        findings.extend(extra);
        findings.sort();
        findings.dedup_by(|a, b| a.0 == b.0 && a.1 == b.1);

        let mut used: Vec<bool> = vec![false; self.sites.len()];
        let mut out = Vec::new();
        for (line, msg) in self.bad_pragmas {
            out.push(Violation {
                file: self.rel_path.clone(),
                line,
                rule: Rule::BadPragma,
                msg,
            });
        }
        for (line, rule, msg) in findings {
            let suppressed = self
                .allowed
                .get(&line)
                .is_some_and(|rules| rules.contains(&rule));
            if suppressed {
                for (i, site) in self.sites.iter().enumerate() {
                    if (site.line == line || site.line + 1 == line) && site.rules.contains(&rule) {
                        used[i] = true;
                    }
                }
            } else {
                out.push(Violation {
                    file: self.rel_path.clone(),
                    line,
                    rule,
                    msg,
                });
            }
        }
        for (i, site) in self.sites.iter().enumerate() {
            let in_scope = site
                .rules
                .iter()
                .any(|&r| rule_in_scope(r, &self.crate_name));
            if !used[i] && in_scope {
                let names: Vec<&str> = site.rules.iter().map(|r| r.name()).collect();
                out.push(Violation {
                    file: self.rel_path.clone(),
                    line: site.line,
                    rule: Rule::UnusedPragma,
                    msg: format!(
                        "pragma allows [{}] but suppresses nothing here; delete it",
                        names.join(", ")
                    ),
                });
            }
        }
        out.sort_by_key(|a| (a.line, a.rule));
        out
    }
}

/// Analyzes one Rust source file belonging to `crate_name`. The
/// returned [`FileAnalysis`] carries candidate findings and the facts
/// needed for workspace-level rules; call
/// [`FileAnalysis::finalize`] to get violations.
pub fn analyze_source(crate_name: &str, rel_path: &str, source: &str) -> FileAnalysis {
    let s = scan(source);
    let pragmas = parse_pragmas(&s.comments);

    let hot = scopes::HOT_PATH.contains(&crate_name);
    let deterministic = scopes::DETERMINISTIC.contains(&crate_name);
    let wall_clock_ok = scopes::WALL_CLOCK_EXEMPT.contains(&crate_name);
    let telemetry = scopes::TELEMETRY.contains(&crate_name);

    let toks: &[Token] = &s.tokens;
    let mut findings: Vec<(usize, Rule, String)> = Vec::new();

    for (i, t) in toks.iter().enumerate() {
        if t.in_test {
            continue;
        }
        let prev = i.checked_sub(1).map(|p| toks[p].text.as_str());
        let next = toks.get(i + 1).map(|t| t.text.as_str());

        if hot {
            if PANIC_METHODS.contains(&t.text.as_str()) && prev == Some(".") && next == Some("(") {
                findings.push((
                    t.line,
                    Rule::PanicPath,
                    format!(".{}() can panic on the hot path", t.text),
                ));
            }
            if PANIC_MACROS.contains(&t.text.as_str()) && next == Some("!") {
                findings.push((
                    t.line,
                    Rule::PanicPath,
                    format!("{}! can panic on the hot path", t.text),
                ));
            }
            if t.text == "["
                && prev.is_some_and(|p| {
                    (is_ident(p) && !NON_INDEX_PREV.contains(&p)
                        || p == ")"
                        || p == "]"
                        || p == "?")
                        && p != "#"
                })
            {
                findings.push((
                    t.line,
                    Rule::UncheckedIndex,
                    "unchecked index/slice can panic on out-of-bounds".into(),
                ));
            }
        }
        if !wall_clock_ok && (t.text == "Instant" || t.text == "SystemTime") {
            findings.push((
                t.line,
                Rule::NondetTime,
                format!("{} is a wall-clock source; use SimTime", t.text),
            ));
        }
        if deterministic && (t.text == "HashMap" || t.text == "HashSet") {
            findings.push((
                t.line,
                Rule::UnorderedCollection,
                format!(
                    "{} iteration order is nondeterministic; use BTree{} or justify",
                    t.text,
                    if t.text == "HashMap" { "Map" } else { "Set" },
                ),
            ));
        }
    }

    // ---- dataflow rules ------------------------------------------
    let functions = parse_functions(toks);
    if hot {
        for f in &functions {
            if f.in_test || !is_arrival_fn(&f.name) {
                continue;
            }
            for site in unchecked_growth(toks, f) {
                findings.push((
                    site.line,
                    Rule::UnboundedGrowth,
                    format!(
                        "`{}.{}(` on arrival path `{}` is not dominated by a \
                         capacity check of `{}`",
                        site.field,
                        site.method,
                        f.qualname(),
                        site.field
                    ),
                ));
            }
        }
    }
    if crate_name == "os" {
        for f in &functions {
            if f.in_test || f.name == "new" || f.name == "default" {
                continue;
            }
            let recovery = f.impl_type.as_deref() == Some("Watchdog")
                || ["repair", "restore", "reconstruct", "recover"]
                    .iter()
                    .any(|p| f.name.starts_with(p));
            if !recovery {
                continue;
            }
            for imp in recovery_impurities(toks, f) {
                findings.push((
                    imp.line,
                    Rule::RecoveryPurity,
                    format!(
                        "{} in recovery fn `{}`; recovery runs degraded and must \
                         neither allocate nor panic",
                        imp.what,
                        f.qualname()
                    ),
                ));
            }
        }
    }

    // ---- counter-balance facts -----------------------------------
    let mut counter_incs = Vec::new();
    if telemetry {
        for (i, t) in toks.iter().enumerate() {
            if t.in_test || !is_ident(&t.text) {
                continue;
            }
            let prev = i.checked_sub(1).map(|p| toks[p].text.as_str());
            if prev != Some(".")
                || toks.get(i + 1).map(|t| t.text.as_str()) != Some("+")
                || toks.get(i + 2).map(|t| t.text.as_str()) != Some("=")
            {
                continue;
            }
            // Walk the receiver chain; only metrics-ish receivers
            // count (`self.stats.shed += 1`), not arbitrary numerics.
            let mut j = i;
            let mut is_counter = false;
            while j >= 2 && toks[j - 1].text == "." && is_ident(&toks[j - 2].text) {
                if COUNTER_RECEIVERS.contains(&toks[j - 2].text.as_str()) {
                    is_counter = true;
                }
                j -= 2;
            }
            if is_counter {
                counter_incs.push((t.line, t.text.clone()));
            }
        }
    }
    let mut reg_idents: BTreeSet<String> = BTreeSet::new();
    {
        let mut i = 0usize;
        while i + 2 < toks.len() {
            if toks[i].text == "."
                && (toks[i + 1].text == "counter" || toks[i + 1].text == "gauge")
                && toks[i + 2].text == "("
                && !toks[i].in_test
            {
                let mut d = 0isize;
                let mut j = i + 2;
                while j < toks.len() {
                    match toks[j].text.as_str() {
                        "(" => d += 1,
                        ")" => {
                            d -= 1;
                            if d == 0 {
                                break;
                            }
                        }
                        x if is_ident(x) => {
                            reg_idents.insert(x.to_string());
                        }
                        _ => {}
                    }
                    j += 1;
                }
                i = j;
            }
            i += 1;
        }
    }
    let mut fn_idents: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for f in &functions {
        if f.in_test {
            continue;
        }
        fn_idents
            .entry(f.name.clone())
            .or_default()
            .extend(crate::dataflow::idents_in(toks, f.body_inner()));
    }

    FileAnalysis {
        crate_name: crate_name.into(),
        rel_path: rel_path.into(),
        findings,
        bad_pragmas: pragmas.errors,
        allowed: pragmas.allowed,
        sites: pragmas.sites,
        counter_incs,
        reg_idents,
        fn_idents,
    }
}

/// Resolves counter increments against a registration surface:
/// registered identifiers plus, one level deep, the body identifiers
/// of any function a registration argument names (covers accessor
/// registrations like `.counter("x", m.update_count())`).
pub fn resolve_counters(
    incs: &[(usize, String)],
    reg_idents: &BTreeSet<String>,
    fn_idents: &BTreeMap<String, BTreeSet<String>>,
) -> Vec<(usize, Rule, String)> {
    let mut surface: BTreeSet<&str> = reg_idents.iter().map(String::as_str).collect();
    for ident in reg_idents {
        if let Some(body) = fn_idents.get(ident) {
            surface.extend(body.iter().map(String::as_str));
        }
    }
    incs.iter()
        .filter(|(_, field)| !surface.contains(field.as_str()))
        .map(|(line, field)| {
            (
                *line,
                Rule::CounterBalance,
                format!(
                    "counter `{}` is incremented here but never registered in any \
                     metrics export; it would vanish from every report",
                    field
                ),
            )
        })
        .collect()
}

/// Lints one Rust source file belonging to `crate_name`, resolving
/// the workspace-scope rules (counter-balance) file-locally. The
/// workspace walk in [`crate::lint_workspace`] resolves them against
/// the whole tree instead.
pub fn lint_source(crate_name: &str, rel_path: &str, source: &str) -> Vec<Violation> {
    let fa = analyze_source(crate_name, rel_path, source);
    let extra = resolve_counters(&fa.counter_incs, &fa.reg_idents, &fa.fn_idents);
    fa.finalize(extra)
}

/// Lints a `Cargo.toml`: every dependency must come from the workspace
/// (`workspace = true`) or be an in-tree path dependency. External
/// crates must not reappear.
pub fn lint_cargo_toml(rel_path: &str, source: &str) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut in_dep_section = false;
    for (idx, raw) in source.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.trim();
        if line.starts_with('[') {
            in_dep_section = line.contains("dependencies]");
            continue;
        }
        if !in_dep_section || line.is_empty() || line.starts_with('#') {
            continue;
        }
        let Some((name, spec)) = line.split_once('=') else {
            continue;
        };
        let name = name.trim();
        let spec = spec.trim();
        let ok = spec.contains("workspace = true") || spec.contains("path =");
        if !ok {
            out.push(Violation {
                file: rel_path.into(),
                line: line_no,
                rule: Rule::ExternalDep,
                msg: format!(
                    "dependency `{name}` is not a workspace/path dependency; \
                     external crates are banned in this tree"
                ),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_of(v: &[Violation]) -> Vec<Rule> {
        v.iter().map(|x| x.rule).collect()
    }

    #[test]
    fn panic_sites_flagged_in_hot_crate() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\nfn g() { panic!(\"no\"); }";
        let v = lint_source("os", "f.rs", src);
        assert_eq!(rules_of(&v), vec![Rule::PanicPath, Rule::PanicPath]);
    }

    #[test]
    fn panic_sites_ignored_outside_scope() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }";
        assert!(lint_source("workload", "f.rs", src).is_empty());
    }

    #[test]
    fn unwrap_or_is_fine() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap_or(0).max(x.unwrap_or_default()) }";
        assert!(lint_source("os", "f.rs", src).is_empty());
    }

    #[test]
    fn debug_assert_allowed() {
        let src = "fn f(a: u32) { debug_assert!(a > 0); debug_assert_eq!(a, a); }";
        assert!(lint_source("os", "f.rs", src).is_empty());
    }

    #[test]
    fn indexing_flagged_but_not_array_literals() {
        let src = "fn f(v: &[u32], i: usize) -> u32 { let a = [1, 2]; for _x in [0, 1] {} v[i] }";
        let v = lint_source("os", "f.rs", src);
        assert_eq!(rules_of(&v), vec![Rule::UncheckedIndex]);
    }

    #[test]
    fn attribute_and_macro_brackets_not_indexing() {
        let src = "#[derive(Clone)]\nstruct S;\nfn f() -> Vec<u8> { vec![0; 4] }";
        assert!(lint_source("os", "f.rs", src).is_empty());
    }

    #[test]
    fn test_code_exempt() {
        let src = "#[cfg(test)]\nmod tests { #[test]\nfn t() { Some(1).unwrap(); } }";
        assert!(lint_source("os", "f.rs", src).is_empty());
    }

    #[test]
    fn pragma_suppresses_with_reason() {
        let src = "fn f(v: &[u32]) -> u32 {\n    // lint:allow(unchecked-index): len checked by caller\n    v[0]\n}";
        assert!(lint_source("os", "f.rs", src).is_empty());
    }

    #[test]
    fn trailing_pragma_suppresses_same_line() {
        let src =
            "fn f(v: &[u32]) -> u32 { v[0] } // lint:allow(unchecked-index): fixture is non-empty";
        assert!(lint_source("os", "f.rs", src).is_empty());
    }

    #[test]
    fn pragma_without_reason_is_a_violation() {
        let src = "// lint:allow(panic-path)\nfn f() { panic!(); }";
        let v = lint_source("os", "f.rs", src);
        assert!(rules_of(&v).contains(&Rule::BadPragma));
        assert!(rules_of(&v).contains(&Rule::PanicPath), "not suppressed");
    }

    #[test]
    fn pragma_with_unknown_rule_is_a_violation() {
        let src = "// lint:allow(no-such-rule): because\nfn ok() {}";
        let v = lint_source("os", "f.rs", src);
        assert_eq!(rules_of(&v), vec![Rule::BadPragma]);
    }

    #[test]
    fn nondet_time_flagged_everywhere_but_bench() {
        let src = "use std::time::Instant;\nfn f() { let _ = Instant::now(); }";
        let v = lint_source("packet", "f.rs", src);
        assert!(v.iter().all(|x| x.rule == Rule::NondetTime));
        assert_eq!(v.len(), 2);
        assert!(lint_source("bench", "f.rs", src).is_empty());
    }

    #[test]
    fn unordered_collections_flagged_in_deterministic_crates() {
        let src = "use std::collections::HashMap;\nfn f() { let _m: HashMap<u32, u32> = HashMap::new(); }";
        let v = lint_source("rpc", "f.rs", src);
        assert!(!v.is_empty());
        assert!(v.iter().all(|x| x.rule == Rule::UnorderedCollection));
        assert!(lint_source("packet", "f.rs", src).is_empty());
    }

    #[test]
    fn strings_and_comments_never_trip() {
        let src = "fn f() { let _s = \"panic! unwrap() HashMap\"; } // Instant::now in prose";
        assert!(lint_source("rpc", "f.rs", src).is_empty());
    }

    #[test]
    fn unused_pragma_flagged() {
        let src =
            "fn ok() {}\n// lint:allow(panic-path): nothing here panics anymore\nfn also_ok() {}";
        let v = lint_source("os", "f.rs", src);
        assert_eq!(rules_of(&v), vec![Rule::UnusedPragma]);
    }

    #[test]
    fn used_pragma_not_flagged_as_stale() {
        let src = "fn f(x: Option<u32>) -> u32 {\n    // lint:allow(panic-path): fixture value is Some\n    x.unwrap()\n}";
        assert!(lint_source("os", "f.rs", src).is_empty());
    }

    #[test]
    fn out_of_scope_pragma_is_inert_not_stale() {
        // mc is not a hot-path crate: the panic rule cannot fire, so
        // the pragma is inert — neither suppressing nor stale.
        let src = "// lint:allow(panic-path): hot-path copy of this file needs it\nfn f(x: Option<u32>) -> u32 { x.unwrap_or(0) }";
        assert!(lint_source("mc", "f.rs", src).is_empty());
    }

    #[test]
    fn doc_example_mentioning_pragma_is_not_a_pragma() {
        let src = "//! Suppress with `// lint:allow(panic-path): reason`.\nfn f() {}";
        assert!(lint_source("os", "f.rs", src).is_empty());
    }

    #[test]
    fn unbounded_growth_flagged_and_suppressible() {
        let bad = "impl Rx { fn on_frame(&mut self, f: F) { self.queue.push_back(f); } }";
        let v = lint_source("nic-lauberhorn", "f.rs", bad);
        assert_eq!(rules_of(&v), vec![Rule::UnboundedGrowth]);
        let ok = "impl Rx { fn on_frame(&mut self, f: F) {\n\
                    if self.queue.len() >= self.queue_cap { return; }\n\
                    self.queue.push_back(f);\n\
                  } }";
        assert!(lint_source("nic-lauberhorn", "f.rs", ok).is_empty());
        let suppressed = "impl Rx { fn on_frame(&mut self, f: F) {\n\
                            // lint:allow(unbounded-growth): bounded by core count\n\
                            self.queue.push_back(f);\n\
                          } }";
        assert!(lint_source("nic-lauberhorn", "f.rs", suppressed).is_empty());
    }

    #[test]
    fn non_arrival_fns_may_grow() {
        let src = "impl Rx { fn restock(&mut self, f: F) { self.pool.push(f); } }";
        assert!(lint_source("nic-lauberhorn", "f.rs", src).is_empty());
    }

    #[test]
    fn recovery_purity_flags_alloc_in_watchdog() {
        let src = "impl Watchdog { fn repaired(&mut self, now: u64) { let _v = vec![now]; self.last = now; } }";
        let v = lint_source("os", "f.rs", src);
        assert_eq!(rules_of(&v), vec![Rule::RecoveryPurity]);
        // The rule is os-scoped: the same code elsewhere is fine.
        assert!(lint_source("rpc", "f.rs", src).is_empty());
    }

    #[test]
    fn recovery_purity_applies_to_recovery_prefixes() {
        let src =
            "fn reconstruct_table(salvage: &S) -> T { salvage.rows.first().unwrap().clone() }";
        let v = lint_source("os", "f.rs", src);
        // unwrap trips both the hot-path rule and the purity rule.
        assert!(rules_of(&v).contains(&Rule::RecoveryPurity), "{v:?}");
    }

    #[test]
    fn counter_balance_resolves_locally_in_lint_source() {
        let balanced = "impl S {\n\
                          fn on_rx(&mut self) { self.stats.hits += 1; }\n\
                          fn export(&self, r: &mut Reg) { r.counter(\"s.hits\", self.stats.hits); }\n\
                        }";
        assert!(lint_source("rpc", "f.rs", balanced).is_empty());
        let unbalanced = "impl S { fn on_rx(&mut self) { self.stats.hits += 1; } }";
        let v = lint_source("rpc", "f.rs", unbalanced);
        assert_eq!(rules_of(&v), vec![Rule::CounterBalance]);
    }

    #[test]
    fn counter_registered_via_accessor_counts() {
        let src = "impl S {\n\
                     fn on_rx(&mut self) { self.stats.updates += 1; }\n\
                     fn update_count(&self) -> u64 { self.stats.updates }\n\
                     fn export(&self, r: &mut Reg) { r.counter(\"s.updates\", self.update_count()); }\n\
                   }";
        assert!(lint_source("rpc", "f.rs", src).is_empty());
    }

    #[test]
    fn plain_numeric_increment_is_not_a_counter() {
        let src = "impl S { fn on_rx(&mut self) { self.depth += 1; self.cursor.pos += 1; } }";
        assert!(lint_source("rpc", "f.rs", src).is_empty());
    }

    #[test]
    fn cargo_toml_external_dep_flagged() {
        let toml = "[package]\nname = \"x\"\n[dependencies]\nserde = \"1\"\nlauberhorn-sim = { workspace = true }\n";
        let v = lint_cargo_toml("crates/x/Cargo.toml", toml);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::ExternalDep);
        assert!(v[0].msg.contains("serde"));
    }

    #[test]
    fn cargo_toml_workspace_and_path_deps_ok() {
        let toml = "[dependencies]\na = { workspace = true }\nb = { path = \"../b\" }\n[dev-dependencies]\nc = { workspace = true }\n";
        assert!(lint_cargo_toml("crates/x/Cargo.toml", toml).is_empty());
    }
}
