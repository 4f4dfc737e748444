//! Deterministic discrete-event simulation engine.
//!
//! This crate is the foundation of the Lauberhorn reproduction: every
//! hardware component the paper relies on (the ECI coherence fabric, the
//! PCIe DMA NIC, CPU cores, the OS scheduler) is simulated as a set of
//! state machines driven by a single, deterministic event queue.
//!
//! The engine is deliberately simple and fully deterministic:
//!
//! * time is an integer count of picoseconds ([`SimTime`]),
//! * events with equal timestamps are delivered in insertion order,
//! * all randomness flows from a seeded [`rng::SimRng`].
//!
//! Higher crates build protocol models on top (see `lauberhorn-coherence`
//! and friends) and the `lauberhorn-rpc` crate wires them into
//! whole-machine simulations.

pub mod critpath;
pub mod energy;
pub mod fault;
pub mod hash;
pub mod metrics;
pub mod overload;
pub mod queue;
pub mod rng;
pub mod span;
pub mod stats;
pub mod tenancy;
pub mod time;

pub use critpath::{
    blame_table, critical_paths, tenant_queueing_table, BlameClass, BlameProfile, CritPath, Segment,
};
pub use energy::{CoreState, CycleAccount, EnergyMeter};
pub use fault::{
    CrashSpec, FaultDecision, FaultInjector, FaultPlan, FaultSpec, NicFaultKind, NicFaultSpec,
    TenantFaultSpec,
};
pub use hash::{IdBuildHasher, IdHasher};
pub use metrics::MetricsRegistry;
pub use overload::{load_hint, AdmissionCtl, AimdPacer, OverloadConfig, ShedReason};
pub use queue::EventQueue;
pub use rng::SimRng;
pub use span::{ObserveSpec, SpanId, SpanRecord, SpanTracer, Stage};
pub use stats::{Histogram, Summary};
pub use tenancy::{DeadlineClass, DrrScheduler, TenancyConfig, TenantSpec, TokenBucket};
pub use time::{SimDuration, SimTime};
