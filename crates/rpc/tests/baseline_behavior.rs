//! Behavior tests for the two baseline machine models: the mechanisms
//! that differentiate them (NAPI interrupt suppression, cross-core
//! wakeups, rebinding windows) must actually engage.

use lauberhorn_rpc::sim_bypass::{BypassSim, BypassSimConfig};
use lauberhorn_rpc::sim_kernel::KernelSim;
use lauberhorn_rpc::spec::LoadMode;
use lauberhorn_rpc::{Machine, MachineConfig, ServiceSpec, WorkloadSpec};
use lauberhorn_sim::SimDuration;
use lauberhorn_workload::{ArrivalProcess, DynamicMix, SizeDist};

fn open_wl(rate: f64, services: usize, ms: u64, seed: u64) -> WorkloadSpec {
    WorkloadSpec {
        mode: LoadMode::Open {
            arrivals: ArrivalProcess::Poisson { rate_rps: rate },
        },
        mix: DynamicMix::stable(services, 0.0),
        request_bytes: SizeDist::Fixed { bytes: 64 },
        payload: None,
        record_responses: false,
        duration: SimDuration::from_ms(ms),
        seed,
        warmup: 50,
        faults: Default::default(),
        retry: None,
        observe: lauberhorn_sim::ObserveSpec::none(),
        overload: None,
    }
}

#[test]
fn napi_masks_interrupts_under_bursts() {
    // Within a burst the softirq poll loop stays active with the vector
    // masked, so interrupts are far rarer than packets.
    let mut sim = KernelSim::new(
        MachineConfig::new(Machine::PcPcie, 2),
        ServiceSpec::uniform(1, 500, 32),
    );
    let wl = WorkloadSpec {
        mode: LoadMode::Open {
            arrivals: ArrivalProcess::bursty(2_000_000.0, 5_000.0, 0.0005),
        },
        mix: DynamicMix::stable(1, 0.0),
        request_bytes: SizeDist::Fixed { bytes: 64 },
        payload: None,
        record_responses: false,
        duration: SimDuration::from_ms(10),
        seed: 3,
        warmup: 50,
        faults: Default::default(),
        retry: None,
        observe: lauberhorn_sim::ObserveSpec::none(),
        overload: None,
    };
    let r = sim.run(&wl);
    let stats = sim.nic().stats();
    assert!(r.completed > 1_000, "completed {}", r.completed);
    assert!(
        stats.interrupts * 2 < stats.rx_delivered,
        "interrupts {} vs packets {} — NAPI masking not engaging",
        stats.interrupts,
        stats.rx_delivered
    );
}

#[test]
fn kernel_interrupts_track_packets_at_low_rate() {
    // At a trickle, every packet interrupts (no moderation, queue
    // re-armed between packets).
    let mut sim = KernelSim::new(
        MachineConfig::new(Machine::PcPcie, 2),
        ServiceSpec::uniform(1, 500, 32),
    );
    let r = sim.run(&open_wl(1_000.0, 1, 20, 3));
    let stats = sim.nic().stats();
    assert!(r.completed > 10);
    let ratio = stats.interrupts as f64 / stats.rx_delivered.max(1) as f64;
    assert!(ratio > 0.8, "interrupt ratio {ratio}");
}

#[test]
fn kernel_spreads_services_across_cores() {
    // Four services on four cores: the scheduler must not serialize
    // them all on one core. With parallelism, an offered load that
    // exceeds one core's capacity still completes.
    let services = ServiceSpec::uniform(4, 30_000, 32); // 10 µs handlers.
    let mut sim = KernelSim::new(MachineConfig::new(Machine::PcPcie, 4), services);
    // 4 services × 10 µs handlers at 200k rps = 2.0 cores of handler
    // work alone: impossible on one core.
    let r = sim.run(&open_wl(200_000.0, 4, 10, 9));
    let frac = r.completed as f64 / r.offered.max(1) as f64;
    assert!(frac > 0.9, "completed {frac} — no cross-core parallelism?");
}

#[test]
fn bypass_rebinding_actually_rebinds() {
    let services = ServiceSpec::uniform(8, 1000, 32);
    let wl = WorkloadSpec {
        mode: LoadMode::Open {
            arrivals: ArrivalProcess::Poisson { rate_rps: 50_000.0 },
        },
        mix: DynamicMix::new(8, 1.2, 3, 1_000), // Rotate every 1 ms.
        request_bytes: SizeDist::Fixed { bytes: 64 },
        payload: None,
        record_responses: false,
        duration: SimDuration::from_ms(10),
        seed: 5,
        warmup: 50,
        faults: Default::default(),
        retry: None,
        observe: lauberhorn_sim::ObserveSpec::none(),
        overload: None,
    };
    let mut cfg = BypassSimConfig::modern(2);
    cfg.rebind_on_epoch = true;
    let mut sim = BypassSim::new(cfg, services.clone());
    sim.run(&wl);
    assert!(
        sim.rebinds() > 5,
        "only {} rebinds over 10 epochs",
        sim.rebinds()
    );

    // Without the policy, zero rebinds.
    let mut sim = BypassSim::new(BypassSimConfig::modern(2), services);
    sim.run(&wl);
    assert_eq!(sim.rebinds(), 0);
}

#[test]
fn bypass_never_interrupts() {
    let mut sim = BypassSim::new(BypassSimConfig::modern(2), ServiceSpec::uniform(1, 500, 32));
    sim.run(&open_wl(100_000.0, 1, 5, 7));
    assert_eq!(sim.nic().stats().interrupts, 0, "bypass is polled-only");
}

#[test]
fn bypass_run_to_completion_serializes_one_core() {
    // One service bound to one core: throughput is capped by the
    // per-request busy time on that core regardless of offered load.
    let services = ServiceSpec::uniform(1, 30_000, 32); // 10 µs at 3 GHz.
    let mut sim = BypassSim::new(BypassSimConfig::modern(4), services);
    let r = sim.run(&open_wl(400_000.0, 1, 10, 11));
    // Capacity ≈ 1 / (10 µs + sw) < 100 krps; must be far below offered.
    assert!(
        r.throughput_rps() < 120_000.0,
        "one core served {} rps?",
        r.throughput_rps()
    );
}
