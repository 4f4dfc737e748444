//! The OS model: processes, scheduling, and kernel-path costs.
//!
//! The paper's core claim is about *which component holds which state*:
//! the OS holds scheduling state (which process runs where, who is
//! waiting), the NIC holds demultiplexing state, and the cost of the
//! traditional receive path (steps 5–9 of §2) comes from software
//! consulting and updating that OS state. This crate models exactly
//! that state and those costs:
//!
//! * [`proc`] — processes and threads with run states.
//! * [`cost`] — the calibrated cycle-cost model of every kernel path
//!   segment the experiments charge (IRQ entry, softirq, socket
//!   demultiplex, wakeup, context switch, IPI, syscall, copies).
//! * [`sched`] — per-core run queues with wakeup placement (first
//!   idle core, else the shortest queue; lowest thread id first) and
//!   the blocked/runnable bookkeeping the NIC mirrors in the
//!   Lauberhorn design (§5.2).
//! * [`netstack`] — the kernel UDP receive path as a sequence of
//!   costed steps (the software half of Figure 1, and the left side of
//!   Figure 5).
//! * [`health`] — the NIC-as-failure-domain layer: a host-side shadow
//!   registry of all NIC-programmed state and a lease watchdog that
//!   detects device faults and drives degraded-mode fallback plus
//!   reconstruction.

pub mod cost;
pub mod health;
pub mod netstack;
pub mod proc;
pub mod sched;

pub use cost::CostModel;
pub use health::{ShadowRegistry, Watchdog, WatchdogStats};
pub use netstack::SocketBacklog;
pub use proc::{ProcessId, ThreadId, ThreadState};
pub use sched::{OsScheduler, SchedStats, WakeDecision};
