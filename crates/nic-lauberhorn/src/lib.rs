//! Lauberhorn: the NIC as a full, trusted component of the OS.
//!
//! This crate implements the paper's primary contribution at device
//! level. An incoming RPC request is demultiplexed, deserialized and
//! *dispatched* entirely on the NIC; the receiving core — stalled on a
//! load of a CONTROL cache line homed on the NIC — receives "a
//! carefully prepared cache line with only the information needed to
//! dispatch an RPC: just the arguments and virtual address of the first
//! instruction of the target function to jump to" (§4).
//!
//! Modules, mapped to the paper:
//!
//! * [`dispatch`] — the prepared cache line's byte layout (§4).
//! * [`endpoint`] — the per-endpoint protocol of Figure 4: two CONTROL
//!   lines, AUX lines for larger payloads, the 15 ms TRYAGAIN timeout,
//!   response collection via fetch-exclusive, and RETIRE.
//! * [`demux`] — service demultiplexing informed by OS state (§5.2).
//! * [`sched_mirror`] — the NIC's mirror of kernel scheduling state,
//!   updated over the same lightweight cache-line channels (§4, §5.2).
//! * [`large`] — the ≥4 KiB DMA fallback (§6).
//! * [`continuation`] — ephemeral reply endpoints for nested RPCs (§6).
//! * [`tx`] — the transmit path: request submission over a disjoint
//!   set of cache lines, with credit-based backpressure (§5.1).
//! * [`tenancy`] — per-tenant pipeline-stage queues with weighted
//!   deficit-round-robin arbitration and ingress rate limits (the
//!   multi-tenant isolation domains; DESIGN.md §17).
//! * [`nic`] — [`nic::LauberhornNic`]: the composed device.

pub mod bytes;
pub mod continuation;
pub mod demux;
pub mod dispatch;
pub mod endpoint;
pub mod large;
pub mod nic;
pub mod sched_mirror;
pub mod tenancy;
pub mod tx;

pub use dispatch::{DispatchKind, DispatchLine};
pub use endpoint::{Endpoint, EndpointId, TRYAGAIN_TIMEOUT};
pub use nic::{LauberhornNic, LauberhornNicConfig, NicAction};
pub use tenancy::{TenantCounters, TenantPipeline};
