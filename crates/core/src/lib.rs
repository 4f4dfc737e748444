//! # Lauberhorn — the NIC as part of the OS
//!
//! A full reproduction of *"The NIC should be part of the OS"*
//! (Pengcheng Xu and Timothy Roscoe, HotOS '25) as a simulation study:
//! the Enzian hardware the paper prototypes on is replaced by
//! transaction-level models of every component, calibrated to published
//! measurements, and every claim in the paper is regenerated as an
//! experiment.
//!
//! ## What's inside
//!
//! The workspace builds bottom-up (each layer is its own crate,
//! re-exported here):
//!
//! * [`sim`] — deterministic discrete-event engine, histograms,
//!   per-core energy accounting.
//! * [`packet`] — byte-level Ethernet/IPv4/UDP, the RPC wire header,
//!   and the marshalling codecs the NIC deserializer transforms.
//! * [`coherence`] — MESI directory protocol with device-homed lines
//!   and deferrable fills (the blocked-load primitive of §4).
//! * [`pcie`] — MMIO/DMA/MSI-X/IOMMU models for the DMA baseline.
//! * [`nic_dma`] — the traditional descriptor-ring NIC (Figure 1).
//! * [`nic`] — the Lauberhorn NIC: demux, deserialization offload,
//!   CONTROL/AUX endpoints, TRYAGAIN/RETIRE, scheduler mirror, load
//!   stats, DMA fallback, continuations (Figures 3 and 4).
//! * [`os`] — processes, the kernel scheduler's run queues, kernel
//!   path costs.
//! * [`workload`] — arrival processes, RPC size mixtures, dynamic
//!   service popularity.
//! * [`rpc`] — three whole-machine simulations sharing identical
//!   byte streams, and the kernel-bypass control plane (flow director,
//!   bindings).
//! * [`mc`] — an explicit-state model checker and the Figure 4
//!   protocol model (the paper's TLA+ claim).
//!
//! ## Quick start
//!
//! ```
//! use lauberhorn::experiment::{Experiment, StackKind};
//! use lauberhorn::rpc::WorkloadSpec;
//!
//! // 64-byte echo RPCs, closed loop, over the paper's machine.
//! let report = Experiment::new(StackKind::LauberhornEnzian)
//!     .cores(2)
//!     .run(&WorkloadSpec::echo_closed(64, 2, 42));
//! assert!(report.completed > 100);
//! ```
//!
//! ## Reproducing the paper
//!
//! Each figure/claim has a module in [`experiments`] returning plain
//! data, and a matching binary in the `lauberhorn-bench` crate that
//! prints the table. See `EXPERIMENTS.md` at the workspace root for
//! the recorded outputs.

pub use lauberhorn_coherence as coherence;
pub use lauberhorn_mc as mc;
pub use lauberhorn_nic as nic;
pub use lauberhorn_nic_dma as nic_dma;
pub use lauberhorn_os as os;
pub use lauberhorn_packet as packet;
pub use lauberhorn_pcie as pcie;
pub use lauberhorn_rpc as rpc;
pub use lauberhorn_sim as sim;
pub use lauberhorn_workload as workload;

pub mod calib;
pub mod experiment;
pub mod experiments;
pub mod sweep;

/// Commonly used types, one import away.
pub mod prelude {
    pub use crate::experiment::{Experiment, StackKind};
    pub use crate::rpc::{Machine, MachineConfig, Report, ServerStack, ServiceSpec, WorkloadSpec};
    pub use crate::sim::{SimDuration, SimTime};
    pub use crate::sweep::SweepPoint;
    pub use crate::workload::{ArrivalProcess, DynamicMix, ServiceTime, SizeDist};
}
