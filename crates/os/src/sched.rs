//! A CFS-like scheduler over per-core run queues.
//!
//! This is the OS state the paper proposes to share with the NIC
//! (§5.2): which thread runs on which core, which threads are blocked,
//! and where a woken thread should be placed. The `lauberhorn-nic`
//! crate mirrors a subset of this state on the device; the kernel-stack
//! baseline consults it the traditional way (wakeups and IPIs).

use std::collections::{BTreeSet, HashMap};

use lauberhorn_sim::{IdBuildHasher, MetricsRegistry, SimDuration};

use crate::proc::{ProcessId, ThreadId, ThreadInfo, ThreadState};

/// Scheduler activity counters: written on the decision paths, read
/// only at run finalisation (observability; never consulted by any
/// scheduling decision, so enabling a report cannot change one).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// `wakeup` calls that found a registered thread.
    pub wakeups: u64,
    /// Wakeups that started the thread on an idle core immediately.
    pub wake_runs: u64,
    /// Wakeups that enqueued on a busy core's run queue.
    pub wake_enqueues: u64,
    /// `block_current` calls.
    pub blocks: u64,
    /// `preempt` calls.
    pub preempts: u64,
    /// Threads pulled off a run queue onto a core.
    pub dispatches: u64,
    /// Runnable threads moved between run queues.
    pub migrations: u64,
}

impl SchedStats {
    /// Exports under the `os.sched.*` names (DESIGN.md §11).
    pub fn export(&self, reg: &mut MetricsRegistry) {
        reg.counter("os.sched.wakeups", self.wakeups);
        reg.counter("os.sched.wake_runs", self.wake_runs);
        reg.counter("os.sched.wake_enqueues", self.wake_enqueues);
        reg.counter("os.sched.blocks", self.blocks);
        reg.counter("os.sched.preempts", self.preempts);
        reg.counter("os.sched.dispatches", self.dispatches);
        reg.counter("os.sched.migrations", self.migrations);
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
        /// Whether the woken thread should preempt the current one
        /// (its vruntime is far enough behind).
        preempt: bool,
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

/// Preemption granularity: a woken thread preempts if its vruntime is
/// at least this far behind the running thread's.
const WAKEUP_PREEMPT_GRANULARITY: u64 = SimDuration::from_us(500).as_ps();

/// The scheduler.
#[derive(Debug)]
pub struct OsScheduler {
    cores: Vec<Option<ThreadId>>,
    threads: HashMap<ThreadId, ThreadInfo, IdBuildHasher>,
    queues: Vec<BTreeSet<(u64, ThreadId)>>,
    min_vruntime: Vec<u64>,
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
            min_vruntime: vec![0; num_cores],
            stats: SchedStats::default(),
        }
    }

    /// Activity counters accumulated since construction.
    pub fn stats(&self) -> SchedStats {
        self.stats
    }

    /// Number of cores.
    pub fn num_cores(&self) -> usize {
        self.cores.len()
    }

    /// Registers a thread in the Blocked state.
    pub fn register(&mut self, tid: ThreadId, process: ProcessId, affinity: Option<usize>) {
        self.threads.insert(
            tid,
            ThreadInfo {
                process,
                state: ThreadState::Blocked,
                vruntime: 0,
                affinity,
            },
        );
    }

    /// Current thread on `core`.
    pub fn current(&self, core: usize) -> Option<ThreadId> {
        self.cores.get(core).copied().flatten()
    }

    /// State of `tid`.
    pub fn state(&self, tid: ThreadId) -> Option<ThreadState> {
        self.threads.get(&tid).map(|t| t.state)
    }

    /// Cores with no current thread.
    pub fn idle_cores(&self) -> Vec<usize> {
        self.cores
            .iter()
            .enumerate()
            .filter_map(|(i, c)| c.is_none().then_some(i))
            .collect()
    }

    /// Run-queue length of `core` (excluding the running thread).
    /// Out-of-range cores have no queue.
    pub fn queue_len(&self, core: usize) -> usize {
        self.queues.get(core).map_or(0, |q| q.len())
    }

    fn place_core(&self, info: &ThreadInfo) -> usize {
        // An out-of-range affinity (a thread registered for a core this
        // machine doesn't have) falls back to normal placement rather
        // than indexing past the core array.
        if let Some(core) = info.affinity.filter(|&c| c < self.cores.len()) {
            return core;
        }
        // Prefer an idle core; otherwise the shortest queue.
        if let Some(core) = self.cores.iter().position(|c| c.is_none()) {
            return core;
        }
        (0..self.cores.len())
            .min_by_key(|&c| self.queue_len(c))
            .unwrap_or(0)
    }

    /// Wakes a blocked thread, placing it on a core.
    pub fn wakeup(&mut self, tid: ThreadId) -> Result<WakeDecision, SchedError> {
        let info = self
            .threads
            .get(&tid)
            .ok_or(SchedError::UnknownThread(tid))?
            .clone();
        match info.state {
            ThreadState::Running { .. } | ThreadState::Runnable => {
                return Ok(WakeDecision::AlreadyActive)
            }
            ThreadState::Blocked | ThreadState::Inactive => {}
        }
        let core = self.place_core(&info);
        // A sleeper's vruntime is floored to the queue's minimum so it
        // neither starves others nor gets starved.
        let vr = info
            .vruntime
            .max(self.min_vruntime.get(core).copied().unwrap_or(0));
        let occupant = self.cores.get(core).copied().flatten();
        let t = self
            .threads
            .get_mut(&tid)
            .ok_or(SchedError::UnknownThread(tid))?;
        t.vruntime = vr;
        self.stats.wakeups += 1;
        match occupant {
            None => {
                t.state = ThreadState::Running { core };
                if let Some(slot) = self.cores.get_mut(core) {
                    *slot = Some(tid);
                }
                self.stats.wake_runs += 1;
                Ok(WakeDecision::RunOn { core })
            }
            Some(cur) => {
                t.state = ThreadState::Runnable;
                if let Some(q) = self.queues.get_mut(core) {
                    q.insert((vr, tid));
                }
                self.stats.wake_enqueues += 1;
                let preempt = self
                    .threads
                    .get(&cur)
                    .is_some_and(|c| vr + WAKEUP_PREEMPT_GRANULARITY < c.vruntime);
                Ok(WakeDecision::Enqueued { core, preempt })
            }
        }
    }

    /// Charges `ran_for` of runtime to the thread currently on `core`.
    pub fn account(&mut self, core: usize, ran_for: SimDuration) -> Result<(), SchedError> {
        let tid = *self.cores.get(core).ok_or(SchedError::BadCore(core))?;
        if let Some(t) = tid.and_then(|tid| self.threads.get_mut(&tid)) {
            t.vruntime += ran_for.as_ps();
        }
        Ok(())
    }

    fn pick_from_queue(&mut self, core: usize) -> Option<ThreadId> {
        let q = self.queues.get_mut(core)?;
        let (vr, tid) = q.iter().next().copied()?;
        q.remove(&(vr, tid));
        if let Some(floor) = self.min_vruntime.get_mut(core) {
            *floor = (*floor).max(vr);
        }
        Some(tid)
    }

    /// Blocks the current thread on `core` and dispatches the next
    /// runnable one, if any.
    ///
    /// Returns the new current thread.
    pub fn block_current(&mut self, core: usize) -> Result<Option<ThreadId>, SchedError> {
        let slot = self.cores.get_mut(core).ok_or(SchedError::BadCore(core))?;
        if let Some(tid) = slot.take() {
            if let Some(t) = self.threads.get_mut(&tid) {
                t.state = ThreadState::Blocked;
            }
        }
        self.stats.blocks += 1;
        Ok(self.dispatch(core))
    }

    /// Preempts the current thread on `core` (re-queueing it) and
    /// dispatches the next runnable one.
    ///
    /// Returns `(preempted, new)`.
    pub fn preempt(
        &mut self,
        core: usize,
    ) -> Result<(Option<ThreadId>, Option<ThreadId>), SchedError> {
        let slot = self.cores.get_mut(core).ok_or(SchedError::BadCore(core))?;
        let old = slot.take();
        if let Some(tid) = old {
            if let Some(t) = self.threads.get_mut(&tid) {
                t.state = ThreadState::Runnable;
                let vr = t.vruntime;
                if let Some(q) = self.queues.get_mut(core) {
                    q.insert((vr, tid));
                }
            }
        }
        self.stats.preempts += 1;
        let new = self.dispatch(core);
        Ok((old, new))
    }

    /// If `core` is idle, pulls the lowest-vruntime runnable thread
    /// onto it. Out-of-range cores dispatch nothing.
    pub fn dispatch(&mut self, core: usize) -> Option<ThreadId> {
        let occupant = self.cores.get(core).copied()?;
        if occupant.is_some() {
            return occupant;
        }
        let next = self.pick_from_queue(core)?;
        if let Some(t) = self.threads.get_mut(&next) {
            t.state = ThreadState::Running { core };
        }
        if let Some(slot) = self.cores.get_mut(core) {
            *slot = Some(next);
        }
        self.stats.dispatches += 1;
        Some(next)
    }

    /// Migrates a runnable thread to another core's queue (load
    /// balancing / core reallocation in experiment C4).
    pub fn migrate(&mut self, tid: ThreadId, to_core: usize) -> Result<(), SchedError> {
        if to_core >= self.cores.len() {
            return Err(SchedError::BadCore(to_core));
        }
        let floor = self.min_vruntime.get(to_core).copied().unwrap_or(0);
        let info = self
            .threads
            .get_mut(&tid)
            .ok_or(SchedError::UnknownThread(tid))?;
        if info.state != ThreadState::Runnable {
            return Ok(());
        }
        let old_vr = info.vruntime;
        let vr = old_vr.max(floor);
        info.vruntime = vr;
        for q in &mut self.queues {
            q.remove(&(old_vr, tid));
        }
        if let Some(q) = self.queues.get_mut(to_core) {
            q.insert((vr, tid));
        }
        self.stats.migrations += 1;
        Ok(())
    }

    /// Total runnable threads across all queues.
    pub fn total_queued(&self) -> usize {
        self.queues.iter().map(|q| q.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tid(n: u32) -> ThreadId {
        ThreadId(n)
    }

    fn pid(n: u32) -> ProcessId {
        ProcessId(n)
    }

    fn sched_with(threads: u32, cores: usize) -> OsScheduler {
        let mut s = OsScheduler::new(cores);
        for i in 0..threads {
            s.register(tid(i), pid(i), None);
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
        let WakeDecision::Enqueued { core: c2, .. } = d else {
            unreachable!()
        };
        let d3 = s.wakeup(tid(3)).unwrap();
        let WakeDecision::Enqueued { core: c3, .. } = d3 else {
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
    fn block_dispatches_next_by_vruntime() {
        let mut s = sched_with(3, 1);
        s.wakeup(tid(0)).unwrap();
        // Give thread 0 lots of runtime so its vruntime is high.
        s.account(0, SimDuration::from_ms(10)).unwrap();
        s.wakeup(tid(1)).unwrap();
        s.wakeup(tid(2)).unwrap();
        // Make thread 2's vruntime lower than thread 1's by accounting
        // to 1 after dispatching it... simpler: both start at floor; the
        // queue breaks ties by (vruntime, tid).
        let next = s.block_current(0).unwrap();
        assert_eq!(next, Some(tid(1)));
        assert_eq!(s.state(tid(0)), Some(ThreadState::Blocked));
        assert_eq!(s.state(tid(1)), Some(ThreadState::Running { core: 0 }));
        assert_eq!(s.state(tid(2)), Some(ThreadState::Runnable));
    }

    #[test]
    fn preempt_requeues_current() {
        let mut s = sched_with(2, 1);
        s.wakeup(tid(0)).unwrap();
        s.wakeup(tid(1)).unwrap();
        s.account(0, SimDuration::from_ms(1)).unwrap();
        let (old, new) = s.preempt(0).unwrap();
        assert_eq!(old, Some(tid(0)));
        assert_eq!(new, Some(tid(1)));
        // Thread 0 is runnable again and comes back when 1 blocks.
        assert_eq!(s.state(tid(0)), Some(ThreadState::Runnable));
        assert_eq!(s.block_current(0).unwrap(), Some(tid(0)));
    }

    #[test]
    fn fairness_by_vruntime() {
        let mut s = sched_with(2, 1);
        s.wakeup(tid(0)).unwrap();
        s.wakeup(tid(1)).unwrap();
        // Run thread 0 a long time; on preemption, thread 1 (lower
        // vruntime) must win, and after running 1 even longer, 0 wins.
        s.account(0, SimDuration::from_ms(2)).unwrap();
        let (_, new) = s.preempt(0).unwrap();
        assert_eq!(new, Some(tid(1)));
        s.account(0, SimDuration::from_ms(5)).unwrap();
        let (_, new) = s.preempt(0).unwrap();
        assert_eq!(new, Some(tid(0)));
    }

    #[test]
    fn affinity_pins_wakeup() {
        let mut s = OsScheduler::new(4);
        s.register(tid(0), pid(0), Some(3));
        assert_eq!(s.wakeup(tid(0)).unwrap(), WakeDecision::RunOn { core: 3 });
        // Block, wake again: still core 3 even though others are idle.
        s.block_current(3).unwrap();
        assert_eq!(s.wakeup(tid(0)).unwrap(), WakeDecision::RunOn { core: 3 });
    }

    #[test]
    fn wakeup_preemption_flag_for_long_sleeper() {
        let mut s = sched_with(2, 1);
        s.wakeup(tid(0)).unwrap();
        // Long-running current thread.
        s.account(0, SimDuration::from_ms(100)).unwrap();
        let d = s.wakeup(tid(1)).unwrap();
        match d {
            WakeDecision::Enqueued { preempt, .. } => assert!(preempt),
            other => panic!("expected enqueue, got {other:?}"),
        }
    }

    #[test]
    fn migrate_moves_runnable_thread() {
        let mut s = sched_with(3, 2);
        s.wakeup(tid(0)).unwrap(); // core 0
        s.wakeup(tid(1)).unwrap(); // core 1
        s.wakeup(tid(2)).unwrap(); // queued somewhere
        let from = match s.state(tid(2)) {
            Some(ThreadState::Runnable) => (0..2)
                .find(|&c| s.queue_len(c) > 0)
                .expect("queued on some core"),
            other => panic!("{other:?}"),
        };
        let to = 1 - from;
        s.migrate(tid(2), to).unwrap();
        assert_eq!(s.queue_len(from), 0);
        assert_eq!(s.queue_len(to), 1);
        s.block_current(to).unwrap();
        assert_eq!(s.current(to), Some(tid(2)));
    }

    #[test]
    fn errors_on_bad_ids() {
        let mut s = sched_with(1, 1);
        assert_eq!(s.wakeup(tid(9)), Err(SchedError::UnknownThread(tid(9))));
        assert_eq!(s.block_current(4), Err(SchedError::BadCore(4)));
        assert_eq!(s.preempt(4), Err(SchedError::BadCore(4)));
        assert_eq!(s.migrate(tid(0), 7), Err(SchedError::BadCore(7)));
    }

    #[test]
    fn dispatch_on_empty_queue_is_none() {
        let mut s = sched_with(1, 1);
        assert_eq!(s.dispatch(0), None);
        s.wakeup(tid(0)).unwrap();
        // Dispatch with a current thread returns it unchanged.
        assert_eq!(s.dispatch(0), Some(tid(0)));
    }
}
