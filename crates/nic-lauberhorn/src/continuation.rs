//! Ephemeral continuation endpoints for nested RPCs (§6).
//!
//! "Nested RPCs will benefit from the ability to rapidly create a
//! dedicated end-point for an RPC reply. Fine-grained interaction with
//! the NIC should make creating this continuation a cheap operation."
//! A continuation maps a 32-bit hint (carried in the request's
//! `cont_hint` field) to the endpoint the reply should be dispatched
//! into; it is allocated with a single device-line store and freed on
//! use.

use std::collections::HashMap;

use lauberhorn_os::ProcessId;
use lauberhorn_sim::{IdBuildHasher, SimDuration};

use crate::endpoint::EndpointId;

/// Cost of creating a continuation: one posted store crossing the
/// device fabric (the point of §6 — compare a kernel socket allocation
/// at tens of microseconds).
pub const CONTINUATION_CREATE_COST: SimDuration = SimDuration::from_ns(100);

/// A registered continuation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Continuation {
    /// Endpoint the reply dispatches into.
    pub endpoint: EndpointId,
    /// Process that owns the continuation.
    pub process: ProcessId,
    /// Whether the continuation survives its first use (streaming
    /// replies) or is one-shot (the common nested-RPC case).
    pub one_shot: bool,
}

/// Errors from the continuation table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContinuationError {
    /// Table is at capacity.
    Full,
    /// The hint is unknown (expired, never allocated, or already used).
    Unknown(u32),
}

impl std::fmt::Display for ContinuationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ContinuationError::Full => write!(f, "continuation table full"),
            ContinuationError::Unknown(h) => write!(f, "unknown continuation hint {h}"),
        }
    }
}

impl std::error::Error for ContinuationError {}

/// The NIC-resident continuation table.
#[derive(Debug)]
pub struct ContinuationTable {
    slots: HashMap<u32, Continuation, IdBuildHasher>,
    capacity: usize,
    next_hint: u32,
    created: u64,
    resolved: u64,
}

impl ContinuationTable {
    /// Creates a table with `capacity` slots.
    pub fn new(capacity: usize) -> Self {
        ContinuationTable {
            slots: HashMap::default(),
            capacity,
            next_hint: 1, // Hint 0 means "no continuation".
            created: 0,
            resolved: 0,
        }
    }

    /// Allocates a continuation dispatching replies into `endpoint`.
    pub fn create(
        &mut self,
        endpoint: EndpointId,
        process: ProcessId,
        one_shot: bool,
    ) -> Result<u32, ContinuationError> {
        if self.slots.len() >= self.capacity {
            return Err(ContinuationError::Full);
        }
        // Find a free hint (wrapping, skipping 0).
        loop {
            let h = self.next_hint;
            self.next_hint = self.next_hint.checked_add(1).unwrap_or(1);
            if h == 0 || self.slots.contains_key(&h) {
                continue;
            }
            self.slots.insert(
                h,
                Continuation {
                    endpoint,
                    process,
                    one_shot,
                },
            );
            self.created += 1;
            return Ok(h);
        }
    }

    /// Resolves a reply's hint to its target, consuming one-shot
    /// entries.
    pub fn resolve(&mut self, hint: u32) -> Result<Continuation, ContinuationError> {
        if hint == 0 {
            return Err(ContinuationError::Unknown(0));
        }
        let c = *self
            .slots
            .get(&hint)
            .ok_or(ContinuationError::Unknown(hint))?;
        if c.one_shot {
            self.slots.remove(&hint);
        }
        self.resolved += 1;
        Ok(c)
    }

    /// Explicitly frees a continuation (caller timed out / cancelled).
    pub fn free(&mut self, hint: u32) -> bool {
        self.slots.remove(&hint).is_some()
    }

    /// Live continuations.
    pub fn live(&self) -> usize {
        self.slots.len()
    }

    /// NIC reset: drops every live continuation (their replies will
    /// miss and fall back to the retry path) and returns how many were
    /// lost. Lifetime counters survive — they are a metrics surface.
    pub fn clear(&mut self) -> usize {
        let lost = self.slots.len();
        self.slots.clear();
        lost
    }

    /// `(created, resolved)` counters.
    pub fn stats(&self) -> (u64, u64) {
        (self.created, self.resolved)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_resolve_one_shot() {
        let mut t = ContinuationTable::new(8);
        let h = t.create(EndpointId(3), ProcessId(1), true).unwrap();
        assert_ne!(h, 0);
        let c = t.resolve(h).unwrap();
        assert_eq!(c.endpoint, EndpointId(3));
        // One-shot: second resolve fails.
        assert_eq!(t.resolve(h), Err(ContinuationError::Unknown(h)));
        assert_eq!(t.live(), 0);
        assert_eq!(t.stats(), (1, 1));
    }

    #[test]
    fn persistent_continuation_survives() {
        let mut t = ContinuationTable::new(8);
        let h = t.create(EndpointId(1), ProcessId(1), false).unwrap();
        t.resolve(h).unwrap();
        t.resolve(h).unwrap();
        assert_eq!(t.live(), 1);
        assert!(t.free(h));
        assert!(!t.free(h));
    }

    #[test]
    fn capacity_enforced() {
        let mut t = ContinuationTable::new(2);
        t.create(EndpointId(1), ProcessId(1), true).unwrap();
        t.create(EndpointId(2), ProcessId(1), true).unwrap();
        assert_eq!(
            t.create(EndpointId(3), ProcessId(1), true),
            Err(ContinuationError::Full)
        );
    }

    #[test]
    fn clear_drops_live_entries_keeps_counters() {
        let mut t = ContinuationTable::new(8);
        let h = t.create(EndpointId(1), ProcessId(1), true).unwrap();
        t.create(EndpointId(2), ProcessId(1), false).unwrap();
        assert_eq!(t.clear(), 2);
        assert_eq!(t.live(), 0);
        assert_eq!(t.resolve(h), Err(ContinuationError::Unknown(h)));
        assert_eq!(t.stats(), (2, 0));
    }

    #[test]
    fn hint_zero_is_reserved() {
        let mut t = ContinuationTable::new(4);
        assert_eq!(t.resolve(0), Err(ContinuationError::Unknown(0)));
        let h = t.create(EndpointId(1), ProcessId(1), true).unwrap();
        assert_ne!(h, 0);
    }

    #[test]
    fn hints_are_distinct() {
        let mut t = ContinuationTable::new(64);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..64 {
            let h = t.create(EndpointId(1), ProcessId(1), false).unwrap();
            assert!(seen.insert(h));
        }
    }
}
