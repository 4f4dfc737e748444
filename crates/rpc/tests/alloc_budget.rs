//! Allocation budgets of the simulator's request path.
//!
//! In steady state a whole run allocates almost never per request on
//! every stack: at most 0.05 times on echo and lossy traffic, and at
//! most 0.25 (bypass, kernel) or 0.35 (Lauberhorn) times on the cloud
//! mix, whose large requests grow buffers. Client request frames are
//! written in one pass into recycled buffers, the DMA NIC validates
//! frames in place, cache lines are fixed-size values, NIC and endpoint
//! transitions write into reused buffers, the Lauberhorn NIC reuses the
//! argument buffers of collected requests, and response frames are
//! built into a reused transmit buffer.
//!
//! This binary installs its own counting allocator. It counts only
//! allocations made on the current thread inside the counted region,
//! so the test harness's other threads are not charged. The
//! whole-run tests count all of `driver::run`; the step tests count
//! only the Lauberhorn stack's `step` and `inject_frame`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use lauberhorn_packet::frame::EndpointAddr;
use lauberhorn_packet::PktBuf;
use lauberhorn_rpc::stack::StackCommon;
use lauberhorn_rpc::{
    driver, BypassSim, KernelSim, LauberhornSim, Machine, MachineConfig, RetryPolicy, ServerStack,
    ServiceSpec, WorkloadSpec,
};
use lauberhorn_sim::energy::CycleAccount;
use lauberhorn_sim::fault::FaultPlan;
use lauberhorn_sim::SimTime;
use lauberhorn_workload::{DynamicMix, SizeDist};

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note_alloc() {
    // `try_with`: the allocator also runs while thread-locals are torn
    // down, when there is nothing left to count.
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        }
    });
}

struct CountingAlloc;

// SAFETY: every operation is forwarded to `System` unchanged; counting
// touches only allocation-free thread-local cells.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim; the caller upholds `dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        // SAFETY: forwarded verbatim; the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f` with this thread's allocations counted.
fn counted<R>(f: impl FnOnce() -> R) -> R {
    COUNTING.with(|on| on.set(true));
    let r = f();
    COUNTING.with(|on| on.set(false));
    r
}

/// `S`, with the allocations of `step` and `inject_frame` counted and
/// everything else passed through untouched.
struct Counted<S>(S);

impl<S: ServerStack> ServerStack for Counted<S> {
    fn build(machine: MachineConfig, services: Vec<ServiceSpec>) -> Self {
        Counted(S::build(machine, services))
    }

    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn server_addr(&self, service: u16) -> EndpointAddr {
        self.0.server_addr(service)
    }

    fn common(&mut self) -> &mut StackCommon {
        self.0.common()
    }

    fn prepare(&mut self, workload: &WorkloadSpec) {
        self.0.prepare(workload)
    }

    fn next_event_time(&mut self) -> Option<SimTime> {
        self.0.next_event_time()
    }

    fn step(&mut self, workload: &WorkloadSpec) {
        counted(|| self.0.step(workload))
    }

    fn inject_frame(&mut self, at: SimTime, raw: PktBuf, request_id: u64) {
        counted(|| self.0.inject_frame(at, raw, request_id))
    }

    fn finish(&mut self, end: SimTime) -> (CycleAccount, u64) {
        self.0.finish(end)
    }
}

/// Lauberhorn stack allocations per completed request over 50 ms of
/// `shape` on the projected CXL server with 2 cores.
fn step_allocs_per_request(shape: Shape) -> f64 {
    let mut stack = Counted::<LauberhornSim>::build(
        MachineConfig::new(Machine::CxlProjected, 2),
        ServiceSpec::uniform(shape.services(), 1000, 32),
    );
    ALLOCS.with(|n| n.set(0));
    let report = driver::run(&mut stack, &shape.spec(50));
    let allocs = ALLOCS.with(Cell::get);
    assert!(
        report.completed > 4_000,
        "only {} completed",
        report.completed
    );
    allocs as f64 / report.completed as f64
}

#[test]
fn echo_requests_allocate_almost_never() {
    let per_req = step_allocs_per_request(Shape::Echo);
    assert!(per_req <= 0.05, "{per_req:.3} allocations per request");
}

#[test]
fn cloud_mix_requests_seldom_allocate() {
    let per_req = step_allocs_per_request(Shape::CloudMix);
    assert!(per_req <= 0.30, "{per_req:.3} allocations per request");
}

/// A traffic shape: open Poisson load at 100 krps, as in the
/// repository benchmark's workloads.
#[derive(Debug, Clone, Copy)]
enum Shape {
    /// One service, 64 B requests.
    Echo,
    /// 32 services, rotating Zipf popularity, cloud RPC sizes.
    CloudMix,
    /// `Echo` with 1 % wire loss each way and client retransmission.
    Lossy,
}

impl Shape {
    fn services(self) -> usize {
        match self {
            Shape::CloudMix => 32,
            Shape::Echo | Shape::Lossy => 1,
        }
    }

    fn spec(self, ms: u64) -> WorkloadSpec {
        let echo =
            || WorkloadSpec::open_poisson(100_000.0, 1, 0.0, SizeDist::Fixed { bytes: 64 }, ms, 1);
        match self {
            Shape::Echo => echo(),
            Shape::CloudMix => {
                let mut wl =
                    WorkloadSpec::open_poisson(100_000.0, 32, 0.99, SizeDist::CloudRpc, ms, 1);
                wl.mix = DynamicMix::new(32, 0.99, 7, 1000);
                wl
            }
            Shape::Lossy => echo()
                .with_faults(FaultPlan::wire_loss(0.01))
                .with_retry(RetryPolicy::same_rack()),
        }
    }
}

/// Allocations and completed requests of one whole `driver::run` of
/// `S` with 2 cores over `ms` of simulated load.
fn whole_run<S: ServerStack>(machine: Machine, shape: Shape, ms: u64) -> (u64, u64) {
    let mut stack = S::build(
        MachineConfig::new(machine, 2),
        ServiceSpec::uniform(shape.services(), 1000, 32),
    );
    let wl = shape.spec(ms);
    ALLOCS.with(|n| n.set(0));
    let report = counted(|| driver::run(&mut stack, &wl));
    (ALLOCS.with(Cell::get), report.completed)
}

/// Allocations per request in steady state: what a 100 ms run makes
/// beyond a 50 ms one, per extra completed request, so one-time set-up
/// and the report cancel.
fn steady_allocs_per_request<S: ServerStack>(machine: Machine, shape: Shape) -> f64 {
    let (short_allocs, short_done) = whole_run::<S>(machine, shape, 50);
    let (long_allocs, long_done) = whole_run::<S>(machine, shape, 100);
    assert!(
        long_done > short_done + 4_000,
        "{shape:?}: {short_done} then {long_done} completed"
    );
    (long_allocs as f64 - short_allocs as f64) / (long_done - short_done) as f64
}

/// Fails unless `S` stays within `bounds` on every shape.
fn check_whole_runs<S: ServerStack>(machine: Machine, bounds: [(Shape, f64); 3]) {
    for (shape, bound) in bounds {
        let per_req = steady_allocs_per_request::<S>(machine, shape);
        assert!(
            per_req <= bound,
            "{shape:?}: {per_req:.3} allocations per request, budget {bound}"
        );
    }
}

#[test]
fn bypass_runs_allocate_almost_never() {
    check_whole_runs::<BypassSim>(
        Machine::PcPcie,
        [
            (Shape::Echo, 0.05),
            (Shape::Lossy, 0.05),
            (Shape::CloudMix, 0.25),
        ],
    );
}

#[test]
fn kernel_runs_allocate_almost_never() {
    check_whole_runs::<KernelSim>(
        Machine::PcPcie,
        [
            (Shape::Echo, 0.05),
            (Shape::Lossy, 0.05),
            (Shape::CloudMix, 0.25),
        ],
    );
}

#[test]
fn lauberhorn_runs_allocate_almost_never() {
    check_whole_runs::<LauberhornSim>(
        Machine::CxlProjected,
        [
            (Shape::Echo, 0.05),
            (Shape::Lossy, 0.05),
            (Shape::CloudMix, 0.35),
        ],
    );
}
