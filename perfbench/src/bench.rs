//! The benchmark's workloads, its three stacks, and one measured run of
//! a stack on a workload, bare or wrapped and traced.

use std::time::Instant;

use lauberhorn_rpc::sim_bypass::BypassSim;
use lauberhorn_rpc::sim_kernel::KernelSim;
use lauberhorn_rpc::sim_lauberhorn::LauberhornSim;
use lauberhorn_rpc::{
    driver, Machine, MachineConfig, Report, RetryPolicy, ServerStack, ServiceSpec, WorkloadSpec,
};
use lauberhorn_sim::fault::FaultPlan;
use lauberhorn_sim::{critical_paths, BlameProfile, ObserveSpec};
use lauberhorn_workload::{DynamicMix, SizeDist};

use crate::alloc;
use crate::timed::{CallStats, TimedStack};

/// Open-loop Poisson offered load: below every stack's knee (the
/// kernel's is about 200 krps on two cores), so modeled latency is
/// steady and does not depend on run length.
const RATE_RPS: f64 = 100_000.0;
/// Server cores of every stack.
const CORES: usize = 2;
/// Handler cost of every service.
const HANDLER_CYCLES: u64 = 1000;
/// Response payload of every service.
const RESPONSE_BYTES: usize = 32;
/// Span cap of a traced run: far above what a run records, so a
/// non-zero `sim.span.dropped` means the run outgrew it.
const SPAN_CAP: usize = 1 << 23;

/// A traffic mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One service, 64 B requests: per-request fixed costs dominate.
    Echo64b,
    /// 32 services, rotating Zipf popularity, cloud RPC sizes: the
    /// large-transfer and scheduling paths dominate.
    CloudMix,
    /// `Echo64b` with 1 % wire loss each way and client retransmission:
    /// drives the retry and at-most-once bookkeeping.
    LossyRetry,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [Workload::Echo64b, Workload::CloudMix, Workload::LossyRetry];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Echo64b => "echo-64b",
            Workload::CloudMix => "cloud-mix",
            Workload::LossyRetry => "lossy-retry",
        }
    }

    /// The workload named `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The services every stack serves.
    pub fn services(self) -> Vec<ServiceSpec> {
        let n = match self {
            Workload::CloudMix => 32,
            Workload::Echo64b | Workload::LossyRetry => 1,
        };
        ServiceSpec::uniform(n, HANDLER_CYCLES, RESPONSE_BYTES)
    }

    /// The workload over `duration_ms` of simulated load, all of its
    /// randomness derived from `seed`.
    pub fn spec(self, seed: u64, duration_ms: u64) -> WorkloadSpec {
        let echo = || {
            WorkloadSpec::open_poisson(
                RATE_RPS,
                1,
                0.0,
                SizeDist::Fixed { bytes: 64 },
                duration_ms,
                seed,
            )
        };
        match self {
            Workload::Echo64b => echo(),
            Workload::CloudMix => {
                let mut wl = WorkloadSpec::open_poisson(
                    RATE_RPS,
                    32,
                    0.99,
                    SizeDist::CloudRpc,
                    duration_ms,
                    seed,
                );
                wl.mix = DynamicMix::new(32, 0.99, 7, 1000);
                wl
            }
            Workload::LossyRetry => echo()
                .with_faults(FaultPlan::wire_loss(0.01))
                .with_retry(RetryPolicy::same_rack()),
        }
    }
}

/// One of the three stacks under comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StackId {
    /// `lauberhorn/cxl-server`.
    Lauberhorn,
    /// `bypass/pc-pcie-dma`.
    Bypass,
    /// `kernel/pc-pcie-dma`.
    Kernel,
}

impl StackId {
    /// Every stack, in the order they run.
    pub const ALL: [StackId; 3] = [StackId::Lauberhorn, StackId::Bypass, StackId::Kernel];

    /// Metric-name suffix.
    pub fn label(self) -> &'static str {
        match self {
            StackId::Lauberhorn => "lauberhorn",
            StackId::Bypass => "bypass",
            StackId::Kernel => "kernel",
        }
    }

    fn machine(self) -> MachineConfig {
        let m = match self {
            StackId::Lauberhorn => Machine::CxlProjected,
            StackId::Bypass | StackId::Kernel => Machine::PcPcie,
        };
        MachineConfig::new(m, CORES)
    }
}

/// One measured run of a stack on a workload.
pub struct Run {
    /// The driver's report.
    pub report: Report,
    /// Wall time of `driver::run`.
    pub wall_ns: u64,
    /// Heap allocations during `driver::run`.
    pub allocs: u64,
    /// Live heap the run added at its peak.
    pub peak_bytes: u64,
    /// Wrapped-call statistics (traced runs only).
    pub calls: CallStats,
    /// Wall time and allocations of recomputing the run's blame profile
    /// from its spans (traced runs only): the analysis share of the
    /// driver's time.
    pub analysis: (u64, u64),
}

fn measure<S: ServerStack>(
    machine: MachineConfig,
    services: &[ServiceSpec],
    wl: &WorkloadSpec,
) -> (Run, S) {
    let mut stack = S::build(machine, services.to_vec());
    let base = alloc::reset_peak();
    let a0 = alloc::allocs();
    let t0 = Instant::now();
    let report = driver::run(&mut stack, wl);
    let wall_ns = t0.elapsed().as_nanos() as u64;
    let allocs = alloc::allocs() - a0;
    let peak_bytes = alloc::peak_bytes().saturating_sub(base);
    let run = Run {
        report,
        wall_ns,
        allocs,
        peak_bytes,
        calls: CallStats::default(),
        analysis: (0, 0),
    };
    (run, stack)
}

fn traced_of<S: ServerStack>(
    machine: MachineConfig,
    services: &[ServiceSpec],
    wl: &WorkloadSpec,
) -> Run {
    let wl = wl.clone().with_observe(ObserveSpec::spans(SPAN_CAP));
    let (mut run, mut stack) = measure::<TimedStack<S>>(machine, services, &wl);
    run.calls = stack.stats;
    // The driver builds the blame profile from the spans at the end of
    // the run; redo it here to learn what that analysis cost.
    let common = stack.common();
    let a0 = alloc::allocs();
    let t0 = Instant::now();
    let prof = BlameProfile::build(&critical_paths(common.tracer.spans()), &common.service_of);
    run.analysis = (t0.elapsed().as_nanos() as u64, alloc::allocs() - a0);
    std::hint::black_box(prof);
    run
}

fn setup_of<S: ServerStack>(
    machine: MachineConfig,
    services: &[ServiceSpec],
    wl: &WorkloadSpec,
) -> u64 {
    let t0 = Instant::now();
    let mut stack = S::build(machine, services.to_vec());
    stack.common().begin(wl);
    stack.prepare(wl);
    let ns = t0.elapsed().as_nanos() as u64;
    drop(std::hint::black_box(stack));
    ns
}

/// Wall nanoseconds to construct `stack` and prepare it for `wl`.
pub fn setup_ns(stack: StackId, services: &[ServiceSpec], wl: &WorkloadSpec) -> u64 {
    let m = stack.machine();
    match stack {
        StackId::Lauberhorn => setup_of::<LauberhornSim>(m, services, wl),
        StackId::Bypass => setup_of::<BypassSim>(m, services, wl),
        StackId::Kernel => setup_of::<KernelSim>(m, services, wl),
    }
}

/// A bare run: no wrapper, no tracing.
pub fn plain(stack: StackId, services: &[ServiceSpec], wl: &WorkloadSpec) -> Run {
    let m = stack.machine();
    match stack {
        StackId::Lauberhorn => measure::<LauberhornSim>(m, services, wl).0,
        StackId::Bypass => measure::<BypassSim>(m, services, wl).0,
        StackId::Kernel => measure::<KernelSim>(m, services, wl).0,
    }
}

/// A traced run: every driver call timed through [`TimedStack`], and
/// spans on so the report carries a blame profile.
pub fn traced(stack: StackId, services: &[ServiceSpec], wl: &WorkloadSpec) -> Run {
    let m = stack.machine();
    match stack {
        StackId::Lauberhorn => traced_of::<LauberhornSim>(m, services, wl),
        StackId::Bypass => traced_of::<BypassSim>(m, services, wl),
        StackId::Kernel => traced_of::<KernelSim>(m, services, wl),
    }
}
