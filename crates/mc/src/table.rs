//! Machine-readable export of the protocol model's transition table.
//!
//! The static analyzer (`crates/lint`, conformance pass) cross-checks
//! the implementation's CONTROL-line state transitions against the
//! model's. This module is the model side of that contract: one
//! [`Transition`] per action of [`LauberhornModel`], carrying the
//! shared-state reads and writes the race instrumentation already
//! declares ([`InstrumentedModel::accesses`]) plus a classification of
//! where the action's implementation lives.
//!
//! The table is derived from the instrumentation — not hand-copied —
//! so it can never drift from what the race census checks. The hint
//! extension is enabled when deriving (`carry_load_hint: true`): the
//! implementation always contains the hint machinery, whether or not
//! a given run arms it.

use crate::protocol::{LauberhornModel, ProtocolConfig};
use crate::races::{AccessKind, Agent, InstrumentedModel, Loc};

/// Where a model action's implementation lives, from the point of view
/// of the NIC device files the conformance pass analyzes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransitionKind {
    /// Implemented by the NIC device state machine
    /// (`nic-lauberhorn`/`os::health`): the conformance pass must find
    /// a bound implementation site.
    Impl,
    /// Implemented by the environment — client retry state, the
    /// serving core's handler, the OS scheduler — outside the NIC
    /// device files. No binding is expected.
    Env,
    /// A deliberately injected bug mutant (`inject_*_bug` flags). Its
    /// *absence* from the implementation is the point; a binding would
    /// itself be drift.
    Bug,
}

/// One row of the exported transition table.
#[derive(Debug, Clone)]
pub struct Transition {
    /// The model action name (as used by the checker traces).
    pub action: &'static str,
    /// The agent performing it.
    pub agent: Agent,
    /// Locations the action reads.
    pub reads: Vec<Loc>,
    /// Locations the action writes.
    pub writes: Vec<Loc>,
    /// Where its implementation lives.
    pub kind: TransitionKind,
}

/// Every action of the protocol model, with its implementation class.
pub const ALL_ACTIONS: &[(&str, TransitionKind)] = &[
    ("inject/deliver", TransitionKind::Impl),
    ("inject/queue", TransitionKind::Impl),
    ("inject/shed", TransitionKind::Impl),
    ("inject/lose", TransitionKind::Env),
    ("retransmit/deliver", TransitionKind::Env),
    ("retransmit/queue", TransitionKind::Env),
    ("timeout/tryagain", TransitionKind::Impl),
    ("stale-timeout/bug", TransitionKind::Bug),
    ("preempt/ipi", TransitionKind::Env),
    ("retire/request", TransitionKind::Impl),
    ("retire/deliver", TransitionKind::Impl),
    ("retire/deliver-unguarded", TransitionKind::Bug),
    ("nic/reset", TransitionKind::Impl),
    ("nic/restore", TransitionKind::Impl),
    ("nic/restore-skip-sync", TransitionKind::Bug),
    ("core/handler-done", TransitionKind::Env),
    ("core/load-other+deliver", TransitionKind::Impl),
    ("core/load-other+park", TransitionKind::Impl),
    ("core/reload+deliver", TransitionKind::Impl),
    ("core/reload+park", TransitionKind::Impl),
];

/// Stable name for a location (used in diagnostics and the JSON
/// report).
pub fn loc_name(loc: Loc) -> &'static str {
    match loc {
        Loc::Ctrl => "Ctrl",
        Loc::Park => "Park",
        Loc::Queue => "Queue",
        Loc::Outstanding => "Outstanding",
        Loc::Retire => "Retire",
        Loc::Lost => "Lost",
        Loc::Hint => "Hint",
        Loc::Shadow => "Shadow",
    }
}

/// Builds the transition table from the race instrumentation.
pub fn transition_table() -> Vec<Transition> {
    let model = LauberhornModel::new(ProtocolConfig {
        carry_load_hint: true,
        ..ProtocolConfig::default()
    });
    ALL_ACTIONS
        .iter()
        .map(|&(action, kind)| {
            let accesses = model.accesses(&action);
            let agent = accesses.first().map(|a| a.agent).unwrap_or(Agent::Client);
            let mut reads = Vec::new();
            let mut writes = Vec::new();
            for a in &accesses {
                let set: &mut Vec<Loc> = match a.kind {
                    AccessKind::Read => &mut reads,
                    AccessKind::Write => &mut writes,
                };
                if !set.contains(&a.loc) {
                    set.push(a.loc);
                }
            }
            Transition {
                action,
                agent,
                reads,
                writes,
                kind,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_action_is_instrumented() {
        for t in transition_table() {
            assert!(
                !t.reads.is_empty() || !t.writes.is_empty(),
                "{} has no accesses — the race census cannot see it",
                t.action
            );
        }
    }

    #[test]
    fn bug_actions_match_injection_flags() {
        let bugs: Vec<&str> = transition_table()
            .into_iter()
            .filter(|t| t.kind == TransitionKind::Bug)
            .map(|t| t.action)
            .collect();
        assert_eq!(
            bugs,
            vec![
                "stale-timeout/bug",
                "retire/deliver-unguarded",
                "nic/restore-skip-sync"
            ]
        );
    }

    #[test]
    fn impl_actions_all_touch_nic_state() {
        // Every Impl-classified action reads or writes at least one
        // location the NIC device holds (everything except Lost).
        for t in transition_table() {
            if t.kind != TransitionKind::Impl {
                continue;
            }
            let nic_held = t
                .reads
                .iter()
                .chain(t.writes.iter())
                .any(|&l| l != Loc::Lost);
            assert!(nic_held, "{} touches only client state", t.action);
        }
    }

    #[test]
    fn table_is_deterministic() {
        let a: Vec<String> = transition_table()
            .iter()
            .map(|t| format!("{:?}", t))
            .collect();
        let b: Vec<String> = transition_table()
            .iter()
            .map(|t| format!("{:?}", t))
            .collect();
        assert_eq!(a, b);
    }
}
