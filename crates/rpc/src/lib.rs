//! Whole-machine RPC simulations.
//!
//! This crate composes every substrate into three complete server
//! stacks and runs workloads through them:
//!
//! * [`sim_lauberhorn`] — the paper's system: a Lauberhorn NIC on a
//!   cache-coherent fabric, cores alternating between the Figure 5
//!   kernel dispatch loop and per-process user loops, blocked loads
//!   instead of polling.
//! * [`sim_bypass`] — the kernel-bypass baseline: a DMA NIC with
//!   flow-director steering, dedicated spinning cores, static
//!   service↔core bindings with costly rebinds (its control plane is
//!   the crate-private `bypass_ctl`).
//! * [`sim_kernel`] — the traditional kernel stack: the same DMA NIC
//!   with RSS, interrupts, softirq processing, socket wakeups, and
//!   context switches.
//!
//! The two DMA stacks share one host driver for that NIC (bring-up,
//! RX refill, TX ring). Every stack reports its requests' milestones
//! to [`stack::StackCommon`], which owns each request's record and
//! spans.
//!
//! All three implement the [`stack::ServerStack`] trait and are run by
//! the one generic [`driver`]: they consume the same [`spec`] service
//! definitions and [`wire`]-level request frames — byte-identical
//! streams, pinned by the report's request digest — and produce the
//! same [`report`] metrics, so every experiment is an apples-to-apples
//! comparison.

mod bypass_ctl;
mod dma_host;
pub mod driver;
pub mod report;
pub mod sim_bypass;
pub mod sim_kernel;
pub mod sim_lauberhorn;
pub mod spec;
pub mod stack;
pub mod wire;

pub use report::{FaultCounters, Report};
pub use sim_bypass::BypassSim;
pub use sim_kernel::KernelSim;
pub use sim_lauberhorn::LauberhornSim;
pub use spec::{ServiceSpec, WorkloadSpec};
pub use stack::{Machine, MachineConfig, RxGate, ServerStack};
pub use wire::RetryPolicy;
