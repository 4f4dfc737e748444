//! The kernel-bypass stack's control plane.
//!
//! Kernel-bypass systems (Arrakis \[18\], IX \[3\], Demikernel \[24\], DPDK
//! applications generally) get their speed from a *static* arrangement:
//! NIC queues are bound to dedicated cores, flows are steered to queues
//! by exact-match filters programmed in advance, and each core
//! busy-polls its queue. The paper's critique (§2) is that this
//! arrangement is expensive to *change*: "when the workload is dynamic
//! with many more end-points than spare cores, the up-front cost of
//! mapping the NIC's demultiplexing to queues onto the scheduling of
//! applications on cores quickly becomes cumbersome."
//!
//! [`FlowDirector`] is the exact-match filter table that maps a
//! service's port to a queue, and [`BindingManager`] pins each service
//! to a core and charges the cost and drain window of moving it
//! (experiment C4's dynamic-mix comparison hinges on this). Both tables
//! are only looked up, never iterated.

use std::collections::BTreeMap;

use lauberhorn_sim::{SimDuration, SimTime};

/// Control-plane latency of a bind: filter reprogramming plus socket
/// state migration. Published reconfiguration costs range from tens of
/// microseconds (Shenango's core reallocation, with a dedicated
/// spinning IOKernel) to milliseconds (full DPDK queue setup); this is
/// the Shenango end.
const CONTROL_PLANE: SimDuration = SimDuration::from_us(30);

/// Drain window of a move: the moved service processes nothing while
/// in-flight descriptors on its old queue complete.
const DRAIN: SimDuration = SimDuration::from_us(20);

/// Errors from the filter table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FdirError {
    /// The table is out of rule slots.
    TableFull,
}

/// Exact-match flow steering (Intel Flow Director / mlx5 ntuple
/// style): destination UDP port → RX queue. Unlike RSS, which hashes,
/// it matches the port that identifies a service; traffic no rule
/// matches is dropped.
#[derive(Debug)]
pub(crate) struct FlowDirector {
    rules: BTreeMap<u16, u32>,
    capacity: usize,
}

impl FlowDirector {
    /// Creates a table with `capacity` rule slots.
    pub(crate) fn new(capacity: usize) -> Self {
        FlowDirector {
            rules: BTreeMap::new(),
            capacity,
        }
    }

    /// Programs (or reprograms) a rule steering `dst_port` to `queue`.
    pub(crate) fn program(&mut self, dst_port: u16, queue: u32) -> Result<(), FdirError> {
        if !self.rules.contains_key(&dst_port) && self.rules.len() >= self.capacity {
            return Err(FdirError::TableFull);
        }
        self.rules.insert(dst_port, queue);
        Ok(())
    }

    /// The queue a packet for `dst_port` is steered to; `None` drops it.
    pub(crate) fn steer(&self, dst_port: u16) -> Option<u32> {
        self.rules.get(&dst_port).copied()
    }
}

/// Which dataplane core serves each service (run to completion, the IX
/// model), and which services are unavailable mid-rebind.
#[derive(Debug, Default)]
pub(crate) struct BindingManager {
    /// service → core currently serving it.
    assignment: BTreeMap<u16, usize>,
    /// Until when each service is unavailable due to an ongoing rebind.
    blocked_until: BTreeMap<u16, SimTime>,
    rebinds: u64,
}

impl BindingManager {
    /// Binds `service` to `core` at time `now`.
    ///
    /// The initial bind of a service is charged only the control-plane
    /// cost; moving an existing binding also pays the drain window,
    /// during which the service is unavailable. Returns when the
    /// service is servable again.
    pub(crate) fn bind(&mut self, service: u16, core: usize, now: SimTime) -> SimTime {
        let ready_at = match self.assignment.insert(service, core) {
            Some(old_core) if old_core != core => {
                self.rebinds += 1;
                now + CONTROL_PLANE + DRAIN
            }
            Some(_) => now, // Re-bind to the same core: no-op.
            None => now + CONTROL_PLANE,
        };
        if ready_at > now {
            self.blocked_until.insert(service, ready_at);
        }
        ready_at
    }

    /// Whether `service` can process a request at `now` (bound and not
    /// mid-rebind).
    pub(crate) fn available(&self, service: u16, now: SimTime) -> bool {
        if !self.assignment.contains_key(&service) {
            return false;
        }
        match self.blocked_until.get(&service) {
            Some(t) => now >= *t,
            None => true,
        }
    }

    /// Rebind operations performed.
    pub(crate) fn rebinds(&self) -> u64 {
        self.rebinds
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn program_and_steer() {
        let mut f = FlowDirector::new(4);
        f.program(8000, 2).unwrap();
        assert_eq!(f.steer(8000), Some(2));
        assert_eq!(f.steer(8001), None);
    }

    #[test]
    fn capacity_enforced_but_updates_allowed() {
        let mut f = FlowDirector::new(2);
        f.program(1, 0).unwrap();
        f.program(2, 0).unwrap();
        assert_eq!(f.program(3, 0), Err(FdirError::TableFull));
        // Updating an existing rule is fine at capacity.
        f.program(1, 5).unwrap();
        assert_eq!(f.steer(1), Some(5));
    }

    #[test]
    fn initial_bind_pays_control_plane_only() {
        let mut b = BindingManager::default();
        let t0 = SimTime::from_ms(1);
        let ready = b.bind(7, 0, t0);
        assert_eq!(ready, t0 + CONTROL_PLANE);
        assert!(!b.available(7, t0));
        assert!(b.available(7, ready));
        assert_eq!(b.rebinds(), 0);
    }

    #[test]
    fn moving_a_binding_pays_drain_and_blocks() {
        let mut b = BindingManager::default();
        let t0 = SimTime::from_ms(1);
        b.bind(7, 0, t0);
        let t1 = SimTime::from_ms(2);
        let ready = b.bind(7, 1, t1);
        assert_eq!(ready, t1 + CONTROL_PLANE + DRAIN);
        assert_eq!(b.rebinds(), 1);
        assert!(!b.available(7, t1));
        assert!(b.available(7, ready));
    }

    #[test]
    fn rebind_to_same_core_is_free() {
        let mut b = BindingManager::default();
        b.bind(7, 0, SimTime::ZERO);
        let t = SimTime::from_ms(5);
        assert_eq!(b.bind(7, 0, t), t);
        assert_eq!(b.rebinds(), 0);
    }

    #[test]
    fn unbound_service_unavailable() {
        let b = BindingManager::default();
        assert!(!b.available(9, SimTime::from_secs(1)));
    }
}
