//! Allocation budget of the Lauberhorn stack's data path. In steady
//! state its event handling allocates about once per request — the
//! buffer holding the request's dispatch-form arguments — whatever the
//! traffic mix: cache lines are fixed-size values, NIC and endpoint
//! transitions write into reused buffers, and response frames are
//! built into a reused transmit buffer.
//!
//! This binary installs its own counting allocator. It counts only
//! allocations made on the current thread inside the stack's `step`
//! and `inject_frame`, so neither the driver and client model nor the
//! test harness's other threads are charged.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use lauberhorn_packet::frame::EndpointAddr;
use lauberhorn_packet::PktBuf;
use lauberhorn_rpc::stack::StackCommon;
use lauberhorn_rpc::{
    driver, LauberhornSim, Machine, MachineConfig, ServerStack, ServiceSpec, WorkloadSpec,
};
use lauberhorn_sim::energy::CycleAccount;
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

/// Stack allocations per completed request over 50 ms of open Poisson
/// load at 100 krps on the projected CXL server with 2 cores.
fn allocs_per_request(services: usize, wl: WorkloadSpec) -> f64 {
    let mut stack = Counted::<LauberhornSim>::build(
        MachineConfig::new(Machine::CxlProjected, 2),
        ServiceSpec::uniform(services, 1000, 32),
    );
    ALLOCS.with(|n| n.set(0));
    let report = driver::run(&mut stack, &wl);
    let allocs = ALLOCS.with(Cell::get);
    assert!(
        report.completed > 4_000,
        "only {} completed",
        report.completed
    );
    allocs as f64 / report.completed as f64
}

#[test]
fn echo_requests_allocate_once() {
    let wl = WorkloadSpec::open_poisson(100_000.0, 1, 0.0, SizeDist::Fixed { bytes: 64 }, 50, 1);
    let per_req = allocs_per_request(1, wl);
    assert!(per_req <= 1.1, "{per_req:.3} allocations per request");
}

#[test]
fn cloud_mix_requests_allocate_about_once() {
    let mut wl = WorkloadSpec::open_poisson(100_000.0, 32, 0.99, SizeDist::CloudRpc, 50, 1);
    wl.mix = DynamicMix::new(32, 0.99, 7, 1000);
    let per_req = allocs_per_request(32, wl);
    assert!(per_req <= 1.5, "{per_req:.3} allocations per request");
}
