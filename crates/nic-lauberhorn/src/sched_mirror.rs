//! The NIC's mirror of OS scheduling state (§5.2).
//!
//! "Since the NIC is responsible for demultiplexing an incoming packet
//! to an application end-point, it should have access to all the
//! relevant OS state: which processes are currently in the run queues
//! on which cores, which are currently executing, and which are
//! waiting" (§4). The kernel pushes context-switch events to the NIC
//! over the same cache-line channels; the NIC additionally *infers*
//! polling state from the addresses of the loads it observes.

use lauberhorn_os::ProcessId;
use lauberhorn_sim::{SimDuration, SimTime};

use crate::endpoint::EndpointId;

/// What the NIC believes a core is doing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CoreMode {
    /// Nothing known / core idle.
    #[default]
    Idle,
    /// Running a process, not blocked on the NIC.
    Running,
    /// Blocked on a user-mode CONTROL line of this endpoint.
    PollingUser(EndpointId),
    /// Blocked on a kernel-mode CONTROL line (the Figure 5 dispatch
    /// loop), able to accept a request for *any* process.
    PollingKernel(EndpointId),
}

/// Per-core view.
#[derive(Debug, Clone, Copy, Default)]
pub struct CoreView {
    /// Process currently scheduled on the core, as last pushed by the
    /// kernel.
    pub running: Option<ProcessId>,
    /// Polling state, partly inferred from observed loads.
    pub mode: CoreMode,
    /// When this view was last updated (staleness analysis).
    pub updated_at: SimTime,
}

/// The mirror.
#[derive(Debug)]
pub struct SchedMirror {
    cores: Vec<CoreView>,
    updates: u64,
    /// Set by fault injection: the mirror lost the kernel's pushes and
    /// reads as all-idle until the kernel resyncs it.
    desynced: bool,
}

/// Cost of one kernel→NIC state push: a single posted store to a
/// device-homed line crossing the fabric once. The paper's premise is
/// that this is negligible; it is one `req_lat` on the device fabric.
pub const MIRROR_PUSH_COST: SimDuration = SimDuration::from_ns(80);

impl SchedMirror {
    /// Creates a mirror for `cores` cores.
    pub fn new(cores: usize) -> Self {
        SchedMirror {
            cores: vec![CoreView::default(); cores],
            updates: 0,
            desynced: false,
        }
    }

    /// Fault injection: the mirror SRAM loses the kernel's state (an
    /// upset in the push channel). Every view resets to the idle
    /// default; later pushes and observed loads rebuild it
    /// incrementally, but only [`SchedMirror::resync`] clears the flag.
    pub fn desync(&mut self) {
        for v in &mut self.cores {
            *v = CoreView::default();
        }
        self.desynced = true;
    }

    /// Whether a desync fault is pending kernel repair.
    pub fn is_desynced(&self) -> bool {
        self.desynced
    }

    /// Kernel repair: the kernel has re-pushed ground truth (via
    /// [`SchedMirror::set_running`] calls) and declares the mirror
    /// coherent again.
    pub fn resync(&mut self) {
        self.desynced = false;
    }

    /// NIC reset support: forget every view but keep the lifetime push
    /// counter (it is a metrics surface, not device state).
    pub fn clear_views(&mut self) {
        for v in &mut self.cores {
            *v = CoreView::default();
        }
        self.desynced = false;
    }

    /// Number of cores mirrored.
    pub fn num_cores(&self) -> usize {
        self.cores.len()
    }

    /// Kernel push: `process` (or none) now runs on `core`.
    pub fn set_running(&mut self, core: usize, process: Option<ProcessId>, now: SimTime) {
        let Some(v) = self.cores.get_mut(core) else {
            return;
        };
        v.running = process;
        if process.is_none() {
            v.mode = CoreMode::Idle;
        } else if !matches!(v.mode, CoreMode::PollingKernel(_)) {
            v.mode = CoreMode::Running;
        }
        v.updated_at = now;
        self.updates += 1;
    }

    /// Inference from an observed load: `core` is blocked on `ep`.
    pub fn observe_poll(&mut self, core: usize, ep: EndpointId, kernel_mode: bool, now: SimTime) {
        let Some(v) = self.cores.get_mut(core) else {
            return;
        };
        v.mode = if kernel_mode {
            CoreMode::PollingKernel(ep)
        } else {
            CoreMode::PollingUser(ep)
        };
        v.updated_at = now;
    }

    /// The core stopped polling (its fill was answered).
    pub fn observe_unpark(&mut self, core: usize, now: SimTime) {
        let Some(v) = self.cores.get_mut(core) else {
            return;
        };
        if matches!(
            v.mode,
            CoreMode::PollingUser(_) | CoreMode::PollingKernel(_)
        ) {
            v.mode = if v.running.is_some() {
                CoreMode::Running
            } else {
                CoreMode::Idle
            };
            v.updated_at = now;
        }
    }

    /// View of one core (out-of-range cores read as an idle default).
    pub fn core(&self, core: usize) -> CoreView {
        self.cores.get(core).copied().unwrap_or_default()
    }

    /// Cores on which `process` is currently believed to run.
    pub fn cores_running(&self, process: ProcessId) -> Vec<usize> {
        self.cores
            .iter()
            .enumerate()
            .filter_map(|(i, v)| (v.running == Some(process)).then_some(i))
            .collect()
    }

    /// Whether `process` is believed to be running anywhere.
    pub fn is_running(&self, process: ProcessId) -> bool {
        self.cores.iter().any(|v| v.running == Some(process))
    }

    /// Cores currently parked in the kernel-mode dispatch loop, in core
    /// order (an iterator: the NIC asks this on every kernel-path
    /// delivery and usually wants only the first).
    pub fn kernel_pollers(&self) -> impl Iterator<Item = (usize, EndpointId)> + '_ {
        self.cores
            .iter()
            .enumerate()
            .filter_map(|(i, v)| match v.mode {
                CoreMode::PollingKernel(ep) => Some((i, ep)),
                _ => None,
            })
    }

    /// Total kernel pushes received (the §4 claim is that keeping this
    /// up to date is cheap; experiments report the count × cost).
    pub fn update_count(&self) -> u64 {
        self.updates
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn running_state_tracks_pushes() {
        let mut m = SchedMirror::new(4);
        m.set_running(2, Some(ProcessId(7)), SimTime::from_us(1));
        assert!(m.is_running(ProcessId(7)));
        assert_eq!(m.cores_running(ProcessId(7)), vec![2]);
        m.set_running(2, None, SimTime::from_us(2));
        assert!(!m.is_running(ProcessId(7)));
        assert_eq!(m.update_count(), 2);
    }

    #[test]
    fn poll_observation_and_unpark() {
        let mut m = SchedMirror::new(2);
        m.set_running(0, Some(ProcessId(1)), SimTime::ZERO);
        m.observe_poll(0, EndpointId(5), false, SimTime::from_us(1));
        assert_eq!(m.core(0).mode, CoreMode::PollingUser(EndpointId(5)));
        m.observe_unpark(0, SimTime::from_us(2));
        assert_eq!(m.core(0).mode, CoreMode::Running);
    }

    #[test]
    fn kernel_pollers_listed() {
        let mut m = SchedMirror::new(3);
        m.observe_poll(1, EndpointId(10), true, SimTime::ZERO);
        m.observe_poll(2, EndpointId(11), true, SimTime::ZERO);
        assert_eq!(
            m.kernel_pollers().collect::<Vec<_>>(),
            vec![(1, EndpointId(10)), (2, EndpointId(11))]
        );
    }

    #[test]
    fn unpark_without_process_goes_idle() {
        let mut m = SchedMirror::new(1);
        m.observe_poll(0, EndpointId(1), true, SimTime::ZERO);
        m.observe_unpark(0, SimTime::from_us(1));
        assert_eq!(m.core(0).mode, CoreMode::Idle);
    }

    #[test]
    fn desync_clears_views_until_resync() {
        let mut m = SchedMirror::new(2);
        m.set_running(0, Some(ProcessId(1)), SimTime::ZERO);
        m.observe_poll(1, EndpointId(4), true, SimTime::ZERO);
        m.desync();
        assert!(m.is_desynced());
        assert!(!m.is_running(ProcessId(1)));
        assert_eq!(m.kernel_pollers().next(), None);
        // Observed loads rebuild views even while desynced (inference
        // does not depend on the push channel)...
        m.observe_poll(1, EndpointId(4), true, SimTime::from_us(1));
        assert_eq!(
            m.kernel_pollers().collect::<Vec<_>>(),
            vec![(1, EndpointId(4))]
        );
        assert!(m.is_desynced());
        // ...and the kernel's re-push plus resync completes repair.
        m.set_running(0, Some(ProcessId(1)), SimTime::from_us(2));
        m.resync();
        assert!(!m.is_desynced());
        assert!(m.is_running(ProcessId(1)));
    }

    #[test]
    fn clear_views_keeps_update_count() {
        let mut m = SchedMirror::new(1);
        m.set_running(0, Some(ProcessId(1)), SimTime::ZERO);
        let pushes = m.update_count();
        m.clear_views();
        assert_eq!(m.update_count(), pushes);
        assert_eq!(m.core(0).mode, CoreMode::Idle);
    }

    #[test]
    fn set_running_preserves_kernel_polling() {
        // A core in the kernel dispatch loop stays a kernel poller even
        // as the "current process" bookkeeping changes.
        let mut m = SchedMirror::new(1);
        m.observe_poll(0, EndpointId(3), true, SimTime::ZERO);
        m.set_running(0, Some(ProcessId(2)), SimTime::from_us(1));
        assert_eq!(m.core(0).mode, CoreMode::PollingKernel(EndpointId(3)));
    }
}
