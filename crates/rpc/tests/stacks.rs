//! Cross-stack integration tests: the same workloads through all three
//! machines, checking both liveness (requests complete) and the
//! paper's ordering claims.

use lauberhorn_rpc::sim_bypass::BypassSimConfig;
use lauberhorn_rpc::sim_lauberhorn::LauberhornSimConfig;
use lauberhorn_rpc::{
    BypassSim, KernelSim, LauberhornSim, Machine, MachineConfig, ServiceSpec, WorkloadSpec,
};
use lauberhorn_workload::SizeDist;

fn services_one() -> Vec<ServiceSpec> {
    ServiceSpec::uniform(1, 1000, 32)
}

#[test]
fn lauberhorn_closed_loop_echo_completes() {
    let mut sim = LauberhornSim::new(LauberhornSimConfig::enzian(2), services_one());
    let wl = WorkloadSpec::echo_closed(64, 5, 42);
    let r = sim.run(&wl);
    assert!(r.completed > 500, "only {} completed", r.completed);
    assert_eq!(r.dropped, 0);
    // Closed-loop echo on an idle machine: RTT must be a few µs.
    assert!(
        r.rtt.p50_us() > 0.5 && r.rtt.p50_us() < 10.0,
        "rtt p50 = {} us",
        r.rtt.p50_us()
    );
    // The fast path must dominate after warmup.
    let stats = sim.nic().stats();
    assert!(
        stats.fast_path > stats.kernel_path,
        "fast={} kernel={}",
        stats.fast_path,
        stats.kernel_path
    );
}

#[test]
fn bypass_closed_loop_echo_completes() {
    let mut sim = BypassSim::new(BypassSimConfig::modern(2), services_one());
    let wl = WorkloadSpec::echo_closed(64, 5, 42);
    let r = sim.run(&wl);
    assert!(r.completed > 500, "only {} completed", r.completed);
    assert!(
        r.rtt.p50_us() > 1.0 && r.rtt.p50_us() < 20.0,
        "rtt p50 = {} us",
        r.rtt.p50_us()
    );
}

#[test]
fn kernel_closed_loop_echo_completes() {
    let mut sim = KernelSim::new(MachineConfig::new(Machine::PcPcie, 2), services_one());
    let wl = WorkloadSpec::echo_closed(64, 5, 42);
    let r = sim.run(&wl);
    assert!(r.completed > 200, "only {} completed", r.completed);
    assert!(
        r.rtt.p50_us() > 3.0 && r.rtt.p50_us() < 60.0,
        "rtt p50 = {} us",
        r.rtt.p50_us()
    );
}

#[test]
fn figure2_ordering_holds() {
    // The paper's headline: Lauberhorn-over-ECI beats DMA-based
    // kernel bypass, which beats the kernel stack, for 64 B RPCs.
    let wl = WorkloadSpec::echo_closed(64, 5, 7);
    let lb = LauberhornSim::new(LauberhornSimConfig::enzian(2), services_one()).run(&wl);
    let by = BypassSim::new(BypassSimConfig::modern(2), services_one()).run(&wl);
    let ke = KernelSim::new(MachineConfig::new(Machine::PcPcie, 2), services_one()).run(&wl);
    assert!(
        lb.rtt.p50 < by.rtt.p50,
        "lauberhorn {}us !< bypass {}us",
        lb.rtt.p50_us(),
        by.rtt.p50_us()
    );
    assert!(
        by.rtt.p50 < ke.rtt.p50,
        "bypass {}us !< kernel {}us",
        by.rtt.p50_us(),
        ke.rtt.p50_us()
    );
}

#[test]
fn energy_split_matches_the_claim() {
    // Lauberhorn cores are stalled (not active) while idle; bypass
    // cores are active the whole time.
    let wl = WorkloadSpec::open_poisson(10_000.0, 1, 0.0, SizeDist::Fixed { bytes: 64 }, 5, 3);
    let lb = LauberhornSim::new(LauberhornSimConfig::enzian(2), services_one()).run(&wl);
    let by = BypassSim::new(BypassSimConfig::modern(2), services_one()).run(&wl);
    assert!(
        lb.energy.active_fraction() < 0.3,
        "lauberhorn active fraction {}",
        lb.energy.active_fraction()
    );
    assert!(
        by.energy.active_fraction() > 0.9,
        "bypass active fraction {}",
        by.energy.active_fraction()
    );
    assert!(lb.energy_proxy < by.energy_proxy);
}

#[test]
fn open_loop_all_stacks_sustain_moderate_load() {
    let wl = WorkloadSpec::open_poisson(50_000.0, 4, 1.0, SizeDist::Fixed { bytes: 64 }, 5, 11);
    let svcs = ServiceSpec::uniform(4, 2000, 32);
    let lb = LauberhornSim::new(LauberhornSimConfig::enzian(4), svcs.clone()).run(&wl);
    let by = BypassSim::new(BypassSimConfig::modern(4), svcs.clone()).run(&wl);
    let ke = KernelSim::new(MachineConfig::new(Machine::PcPcie, 4), svcs).run(&wl);
    for r in [&lb, &by, &ke] {
        let frac = r.completed as f64 / r.offered as f64;
        assert!(
            frac > 0.95,
            "{} completed only {}/{} ({frac})",
            r.stack,
            r.completed,
            r.offered
        );
    }
}

#[test]
fn trace_records_the_interesting_events() {
    use lauberhorn_rpc::spec::LoadMode;
    use lauberhorn_rpc::ServerStack;
    use lauberhorn_sim::{SimDuration, Stage};
    use lauberhorn_workload::{ArrivalProcess, DynamicMix};

    let mut sim = LauberhornSim::new(LauberhornSimConfig::enzian(2), services_one());
    // Deterministic sparse arrivals so TRYAGAINs fire too.
    let wl = lauberhorn_rpc::WorkloadSpec {
        mode: LoadMode::Open {
            arrivals: ArrivalProcess::Deterministic { rate_rps: 50.0 },
        },
        mix: DynamicMix::stable(1, 0.0),
        request_bytes: SizeDist::Fixed { bytes: 64 },
        payload: None,
        record_responses: false,
        duration: SimDuration::from_ms(200),
        seed: 5,
        warmup: 0,
        faults: Default::default(),
        retry: None,
        observe: lauberhorn_sim::ObserveSpec::spans(1 << 16),
        overload: None,
    };
    sim.run(&wl);
    let spans = sim.common().tracer.spans();
    let count = |stages: &[Stage]| spans.iter().filter(|s| stages.contains(&s.stage)).count();
    assert!(count(&[Stage::Request]) > 5, "request roots recorded");
    assert!(
        count(&[Stage::FastDispatch, Stage::KernelDispatch]) > 5,
        "dispatch spans recorded"
    );
    assert!(
        count(&[Stage::TryAgain]) > 0,
        "no TryAgain span among {} spans",
        spans.len()
    );
}

#[test]
fn cold_service_requests_trigger_preemption_not_the_full_window() {
    use lauberhorn_rpc::spec::LoadMode;
    use lauberhorn_sim::SimDuration;
    use lauberhorn_workload::{ArrivalProcess, DynamicMix};

    // Two cores, three services: steady traffic keeps two services
    // resident on both cores; occasional requests for the third must
    // be served by preempting a user loop (RequestPreempt + RETIRE),
    // far faster than waiting out the 15 ms TRYAGAIN window.
    let services = ServiceSpec::uniform(3, 1000, 32);
    let wl = WorkloadSpec {
        mode: LoadMode::Open {
            arrivals: ArrivalProcess::Poisson { rate_rps: 60_000.0 },
        },
        // Zipf 2.5: ranks 0-1 dominate, rank 2 is rare but present.
        mix: DynamicMix::stable(3, 2.5),
        request_bytes: SizeDist::Fixed { bytes: 64 },
        payload: None,
        record_responses: false,
        duration: SimDuration::from_ms(20),
        seed: 13,
        warmup: 100,
        faults: Default::default(),
        retry: None,
        observe: lauberhorn_sim::ObserveSpec::none(),
        overload: None,
    };
    let mut sim = LauberhornSim::new(LauberhornSimConfig::enzian(2), services);
    let r = sim.run(&wl);
    let frac = r.completed as f64 / r.offered.max(1) as f64;
    assert!(frac > 0.98, "completed {frac}");
    // If cold requests waited out the 15 ms window, p99.9 would be
    // ~15 ms; with load-driven preemption it stays in microseconds.
    assert!(
        r.rtt.p999 < lauberhorn_sim::SimDuration::from_ms(1).as_ps(),
        "p99.9 = {} us — cold requests waited for the TRYAGAIN window",
        r.rtt.p999 as f64 / 1e6
    );
    // RETIREs actually happened.
    let ep = sim.nic().total_endpoint_stats();
    assert!(ep.retires > 0, "no preemption-driven retires");
}

#[test]
fn multi_client_closed_loop_pipelines() {
    // Eight concurrent clients against two cores: the two-CONTROL-line
    // pipelining and queueing must lift throughput well beyond one
    // client's, without drops.
    let wl1 = WorkloadSpec::echo_closed(64, 5, 3);
    let mut wl8 = WorkloadSpec::echo_closed(64, 5, 3);
    if let lauberhorn_rpc::spec::LoadMode::Closed { clients, .. } = &mut wl8.mode {
        *clients = 8;
    }
    let one = LauberhornSim::new(LauberhornSimConfig::enzian(2), services_one()).run(&wl1);
    let eight = LauberhornSim::new(LauberhornSimConfig::enzian(2), services_one()).run(&wl8);
    assert_eq!(eight.dropped, 0);
    assert!(
        eight.throughput_rps() > 2.0 * one.throughput_rps(),
        "8 clients {} rps vs 1 client {} rps",
        eight.throughput_rps(),
        one.throughput_rps()
    );
}
