//! A transparent [`ServerStack`] wrapper that times and
//! allocation-counts every call the driver makes through the stack's
//! public interface. The wrapper touches no simulated state, so a
//! wrapped run's report digest equals the bare run's (checked by the
//! benchmark on every traced run).

use std::time::Instant;

use lauberhorn_packet::frame::EndpointAddr;
use lauberhorn_packet::PktBuf;
use lauberhorn_rpc::stack::StackCommon;
use lauberhorn_rpc::{MachineConfig, ServerStack, ServiceSpec, WorkloadSpec};
use lauberhorn_sim::energy::CycleAccount;
use lauberhorn_sim::SimTime;

use crate::alloc;

/// Calls, wall nanoseconds and heap allocations of one interface method.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CallStat {
    /// Calls made.
    pub calls: u64,
    /// Wall time inside the calls, including up to one clock read each.
    pub ns: u64,
    /// Heap allocations made inside the calls.
    pub allocs: u64,
}

impl CallStat {
    fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let a0 = alloc::allocs();
        let t0 = Instant::now();
        let r = f();
        let dt = t0.elapsed();
        self.allocs += alloc::allocs() - a0;
        self.ns += dt.as_nanos() as u64;
        self.calls += 1;
        r
    }
}

/// Per-method statistics of one wrapped run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CallStats {
    /// `ServerStack::step`: one internal event each.
    pub step: CallStat,
    /// `ServerStack::inject_frame`: one request frame each.
    pub inject: CallStat,
    /// `ServerStack::next_event_time`: the driver's queue peeks.
    pub peek: CallStat,
    /// `ServerStack::prepare`: once per run.
    pub prepare: CallStat,
}

impl CallStats {
    /// All wrapped calls.
    pub fn calls(&self) -> u64 {
        self.step.calls + self.inject.calls + self.peek.calls + self.prepare.calls
    }

    /// Wall nanoseconds inside wrapped calls.
    pub fn ns(&self) -> u64 {
        self.step.ns + self.inject.ns + self.peek.ns + self.prepare.ns
    }

    /// Heap allocations inside wrapped calls.
    pub fn allocs(&self) -> u64 {
        self.step.allocs + self.inject.allocs + self.peek.allocs + self.prepare.allocs
    }
}

/// `S` with every driver-facing call timed into [`CallStats`].
pub struct TimedStack<S> {
    inner: S,
    /// What the driver's calls cost so far.
    pub stats: CallStats,
}

impl<S: ServerStack> ServerStack for TimedStack<S> {
    fn build(machine: MachineConfig, services: Vec<ServiceSpec>) -> Self {
        TimedStack {
            inner: S::build(machine, services),
            stats: CallStats::default(),
        }
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn server_addr(&self, service: u16) -> EndpointAddr {
        self.inner.server_addr(service)
    }

    fn common(&mut self) -> &mut StackCommon {
        self.inner.common()
    }

    fn prepare(&mut self, workload: &WorkloadSpec) {
        self.stats.prepare.time(|| self.inner.prepare(workload))
    }

    fn next_event_time(&mut self) -> Option<SimTime> {
        self.stats.peek.time(|| self.inner.next_event_time())
    }

    fn step(&mut self, workload: &WorkloadSpec) {
        self.stats.step.time(|| self.inner.step(workload))
    }

    fn inject_frame(&mut self, at: SimTime, raw: PktBuf, request_id: u64) {
        self.stats
            .inject
            .time(|| self.inner.inject_frame(at, raw, request_id))
    }

    fn finish(&mut self, end: SimTime) -> (CycleAccount, u64) {
        self.inner.finish(end)
    }
}

/// What one timed call adds, measured on empty calls: `region_ns` is
/// the apparent duration of an empty timed region (what a wrapped
/// call's own reading over-counts), `call_ns` the whole cost of timing
/// one call (two clock reads and two allocation-counter loads).
#[derive(Debug, Clone, Copy)]
pub struct ClockCost {
    /// Apparent duration of an empty timed region.
    pub region_ns: f64,
    /// Total wall cost of timing one call.
    pub call_ns: f64,
}

/// Calibrates [`ClockCost`] over `n` empty timed calls.
pub fn calibrate(n: u64) -> ClockCost {
    let mut stat = CallStat::default();
    let t0 = Instant::now();
    for i in 0..n {
        stat.time(|| std::hint::black_box(i));
    }
    let total = t0.elapsed().as_nanos() as f64;
    ClockCost {
        region_ns: stat.ns as f64 / n.max(1) as f64,
        call_ns: total / n.max(1) as f64,
    }
}
