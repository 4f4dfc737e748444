//! Cache-coherence substrate: the interconnect the paper builds on.
//!
//! Section 4 of the paper rests on one hardware premise: *cache-coherent
//! peripheral interconnects* (ECI on Enzian, CXL.mem 3.0, CCIX) let a
//! device own ("home") cache lines, observe loads and stores to them as
//! protocol messages, and *defer* its response to a cache fill — turning
//! an ordinary stalled load into a wakeup-on-message primitive with no
//! spinning and no interrupts.
//!
//! This crate models that substrate at transaction level:
//!
//! * [`mod@line`] — line addresses, fixed-capacity line contents
//!   ([`Line`]) and MESI states.
//! * [`fabric`] — latency models for ECI, CXL 3.0, PCIe-era MMIO and the
//!   on-chip fabric, calibrated from published measurements.
//! * [`cache`] — a set-associative cache with LRU replacement, used for
//!   data-path locality modelling (e.g. DDIO-style allocation).
//! * [`system`] — [`system::CoherentSystem`]: the directory protocol
//!   tying cores and a device home together, including deferred fills
//!   and device-initiated fetch-exclusive (the NIC pulling an RPC
//!   response out of a core's cache, §5.1).
//! * [`stats`] — protocol message counters, the "bus traffic" metric of
//!   experiment C3.
//!
//! The protocol is deliberately a *simulation* of coherence, not a
//! byte-accurate ECI implementation: data is kept canonically at the
//! home so the simulator never tracks divergent copies, while all
//! latency and message costs of ownership transfers are still charged.
//! (The `lauberhorn-mc` crate model-checks the *interaction protocol*
//! built on top, where the races live.)

pub mod cache;
pub mod fabric;
pub mod line;
pub mod stats;
pub mod system;

pub use fabric::{FabricKind, FabricModel};
pub use line::{CacheId, Line, LineAddr, LineState, MAX_LINE_SIZE};
pub use stats::CoherenceStats;
pub use system::{CoherentSystem, FillToken, LoadResult, StoreResult};
