//! Processes and threads.

/// A process (address space / isolation domain).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProcessId(pub u32);

/// A schedulable thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ThreadId(pub u32);

/// Run state of a thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreadState {
    /// Executing on the given core.
    Running {
        /// Core the thread occupies.
        core: usize,
    },
    /// On a run queue, waiting for a core.
    Runnable,
    /// Waiting for an event (I/O, RPC arrival); not on any queue.
    Blocked,
}
