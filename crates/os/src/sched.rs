//! The kernel scheduler: per-core run queues and wakeup placement.
//!
//! This is the OS state the paper proposes to share with the NIC
//! (§5.2): which thread runs on which core, which threads are blocked,
//! and where a woken thread should be placed. The `lauberhorn-nic`
//! crate mirrors a subset of this state on the device; the kernel-stack
//! baseline consults it the traditional way (wakeups and IPIs).
//!
//! A woken thread starts on the first idle core, else waits on the
//! shortest run queue. When a core's thread blocks, the core takes the
//! lowest thread id off its queue.

use std::collections::{BTreeSet, HashMap};

use lauberhorn_sim::{IdBuildHasher, MetricsRegistry};

use crate::proc::{ThreadId, ThreadState};

/// Scheduler activity counters: written on the decision paths, read
/// only at run finalisation (observability; never consulted by any
/// scheduling decision, so enabling a report cannot change one).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// `wakeup` calls that found a blocked thread.
    pub wakeups: u64,
    /// Wakeups that started the thread on an idle core immediately.
    pub wake_runs: u64,
    /// Wakeups that enqueued on a busy core's run queue.
    pub wake_enqueues: u64,
    /// `block_current` calls.
    pub blocks: u64,
    /// Threads pulled off a run queue onto a core.
    pub dispatches: u64,
}

impl SchedStats {
    /// Exports under the `os.sched.*` names (DESIGN.md §11).
    pub fn export(&self, reg: &mut MetricsRegistry) {
        reg.counter("os.sched.wakeups", self.wakeups);
        reg.counter("os.sched.wake_runs", self.wake_runs);
        reg.counter("os.sched.wake_enqueues", self.wake_enqueues);
        reg.counter("os.sched.blocks", self.blocks);
        // Nothing preempts or migrates a thread. Every kernel report
        // digest hashes these two names, so they stay at zero until
        // ROADMAP item 2's digest epoch drops them.
        reg.counter("os.sched.preempts", 0);
        reg.counter("os.sched.dispatches", self.dispatches);
        reg.counter("os.sched.migrations", 0);
    }
}

/// Where a woken thread was placed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WakeDecision {
    /// The core was idle: the thread starts running there immediately
    /// (the caller charges context-switch/IPI costs as appropriate).
    RunOn {
        /// Chosen core.
        core: usize,
    },
    /// Enqueued on a busy core's run queue.
    Enqueued {
        /// Chosen core.
        core: usize,
    },
    /// The thread was already runnable or running; nothing changed.
    AlreadyActive,
}

/// Scheduler errors (API misuse by the simulation driver).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedError {
    /// Unknown thread.
    UnknownThread(ThreadId),
    /// Core index out of range.
    BadCore(usize),
}

impl std::fmt::Display for SchedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchedError::UnknownThread(t) => write!(f, "unknown thread {t:?}"),
            SchedError::BadCore(c) => write!(f, "bad core index {c}"),
        }
    }
}

impl std::error::Error for SchedError {}

/// The scheduler.
#[derive(Debug)]
pub struct OsScheduler {
    cores: Vec<Option<ThreadId>>,
    threads: HashMap<ThreadId, ThreadState, IdBuildHasher>,
    queues: Vec<BTreeSet<ThreadId>>,
    stats: SchedStats,
}

impl OsScheduler {
    /// Creates a scheduler for `num_cores` cores, all idle.
    pub fn new(num_cores: usize) -> Self {
        // lint:allow(panic-path): construction-time config validation, not request path
        assert!(num_cores > 0, "scheduler needs at least one core");
        OsScheduler {
            cores: vec![None; num_cores],
            threads: HashMap::default(),
            queues: vec![BTreeSet::new(); num_cores],
            stats: SchedStats::default(),
        }
    }

    /// Activity counters accumulated since construction.
    pub fn stats(&self) -> SchedStats {
        self.stats
    }

    /// Registers a thread in the Blocked state.
    pub fn register(&mut self, tid: ThreadId) {
        self.threads.insert(tid, ThreadState::Blocked);
    }

    /// Current thread on `core`.
    pub fn current(&self, core: usize) -> Option<ThreadId> {
        self.cores.get(core).copied().flatten()
    }

    /// State of `tid`.
    pub fn state(&self, tid: ThreadId) -> Option<ThreadState> {
        self.threads.get(&tid).copied()
    }

    /// Cores with no current thread.
    pub fn idle_cores(&self) -> Vec<usize> {
        self.cores
            .iter()
            .enumerate()
            .filter_map(|(i, c)| c.is_none().then_some(i))
            .collect()
    }

    /// Wakes a blocked thread: it runs on the first idle core, else
    /// joins the shortest run queue.
    pub fn wakeup(&mut self, tid: ThreadId) -> Result<WakeDecision, SchedError> {
        match self.threads.get(&tid) {
            None => return Err(SchedError::UnknownThread(tid)),
            Some(ThreadState::Blocked) => {}
            Some(_) => return Ok(WakeDecision::AlreadyActive),
        }
        self.stats.wakeups += 1;
        let idle = self.cores.iter_mut().enumerate().find(|(_, c)| c.is_none());
        if let Some((core, slot)) = idle {
            *slot = Some(tid);
            self.threads.insert(tid, ThreadState::Running { core });
            self.stats.wake_runs += 1;
            return Ok(WakeDecision::RunOn { core });
        }
        let (core, queue) = self
            .queues
            .iter_mut()
            .enumerate()
            .min_by_key(|(_, q)| q.len())
            .ok_or(SchedError::BadCore(0))?;
        queue.insert(tid);
        self.threads.insert(tid, ThreadState::Runnable);
        self.stats.wake_enqueues += 1;
        Ok(WakeDecision::Enqueued { core })
    }

    /// Blocks the current thread on `core` and dispatches the lowest
    /// queued thread id onto it, if any.
    ///
    /// Returns the new current thread.
    pub fn block_current(&mut self, core: usize) -> Result<Option<ThreadId>, SchedError> {
        let slot = self.cores.get_mut(core).ok_or(SchedError::BadCore(core))?;
        if let Some(tid) = slot.take() {
            self.threads.insert(tid, ThreadState::Blocked);
        }
        self.stats.blocks += 1;
        let next = self.queues.get_mut(core).and_then(BTreeSet::pop_first);
        if let Some(next) = next {
            *slot = Some(next);
            self.threads.insert(next, ThreadState::Running { core });
            self.stats.dispatches += 1;
        }
        Ok(next)
    }

    /// Total runnable threads across all queues.
    pub fn total_queued(&self) -> usize {
        self.queues.iter().map(BTreeSet::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tid(n: u32) -> ThreadId {
        ThreadId(n)
    }

    fn sched_with(threads: u32, cores: usize) -> OsScheduler {
        let mut s = OsScheduler::new(cores);
        for i in 0..threads {
            s.register(tid(i));
        }
        s
    }

    #[test]
    fn wakeup_prefers_idle_core() {
        let mut s = sched_with(2, 2);
        assert_eq!(s.wakeup(tid(0)).unwrap(), WakeDecision::RunOn { core: 0 });
        assert_eq!(s.wakeup(tid(1)).unwrap(), WakeDecision::RunOn { core: 1 });
        assert_eq!(s.current(0), Some(tid(0)));
        assert_eq!(s.current(1), Some(tid(1)));
        assert!(s.idle_cores().is_empty());
    }

    #[test]
    fn wakeup_on_busy_system_enqueues_on_shortest_queue() {
        let mut s = sched_with(4, 2);
        s.wakeup(tid(0)).unwrap();
        s.wakeup(tid(1)).unwrap();
        let d = s.wakeup(tid(2)).unwrap();
        assert!(matches!(d, WakeDecision::Enqueued { .. }));
        let WakeDecision::Enqueued { core: c2 } = d else {
            unreachable!()
        };
        let d3 = s.wakeup(tid(3)).unwrap();
        let WakeDecision::Enqueued { core: c3 } = d3 else {
            panic!("expected enqueue")
        };
        assert_ne!(c2, c3, "load balanced across queues");
    }

    #[test]
    fn double_wakeup_is_idempotent() {
        let mut s = sched_with(1, 1);
        s.wakeup(tid(0)).unwrap();
        assert_eq!(s.wakeup(tid(0)).unwrap(), WakeDecision::AlreadyActive);
    }

    #[test]
    fn block_dispatches_the_lowest_queued_id() {
        let mut s = sched_with(3, 1);
        s.wakeup(tid(0)).unwrap();
        s.wakeup(tid(2)).unwrap();
        s.wakeup(tid(1)).unwrap();
        // Thread 2 queued first, but the core goes to the lower id.
        assert_eq!(s.block_current(0).unwrap(), Some(tid(1)));
        assert_eq!(s.state(tid(0)), Some(ThreadState::Blocked));
        assert_eq!(s.state(tid(1)), Some(ThreadState::Running { core: 0 }));
        assert_eq!(s.state(tid(2)), Some(ThreadState::Runnable));
        assert_eq!(s.stats().dispatches, 1);
    }

    #[test]
    fn errors_on_bad_ids() {
        let mut s = sched_with(1, 1);
        assert_eq!(s.wakeup(tid(9)), Err(SchedError::UnknownThread(tid(9))));
        assert_eq!(s.block_current(4), Err(SchedError::BadCore(4)));
    }
}
