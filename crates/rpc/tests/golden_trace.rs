//! Golden Chrome-trace fixtures: a seeded single-client echo run on
//! each stack must produce byte-for-byte the trace committed under
//! `tests/golden/` (`lauberhorn_echo`, `bypass_echo`, `kernel_echo`).
//! `kernel_queue` runs three services and three clients on one kernel
//! core, so woken receiver threads wait on the run queue and the trace
//! pins the order the scheduler dispatches them in.
//!
//! Each fixture pins three things at once: the event schedule of the
//! stack's receive path (any timing drift moves a `ts`/`dur` field),
//! the span structure (stage names, parent links, track assignment),
//! and the exporter's deterministic formatting (integer-µs rendering,
//! field order). The Lauberhorn run covers 10 µs; the DMA stacks cover
//! 50 µs, because bypass's first request waits out the 30 µs initial
//! flow-director binding.
//!
//! After an *intentional* change to any of those, regenerate with:
//!
//! ```text
//! BLESS=1 cargo test -p lauberhorn-rpc --test golden_trace
//! ```

use lauberhorn_rpc::sim_bypass::BypassSimConfig;
use lauberhorn_rpc::sim_lauberhorn::LauberhornSimConfig;
use lauberhorn_rpc::spec::LoadMode;
use lauberhorn_rpc::{
    driver, BypassSim, KernelSim, LauberhornSim, Machine, MachineConfig, ServerStack, ServiceSpec,
    WorkloadSpec,
};
use lauberhorn_sim::span::chrome_trace;
use lauberhorn_sim::{ObserveSpec, SimDuration};
use lauberhorn_workload::DynamicMix;

/// One pinned run: its fixture file, the committed bytes, and the run
/// that must reproduce them.
struct Golden {
    file: &'static str,
    pinned: &'static str,
    run: fn() -> String,
}

const GOLDENS: [Golden; 4] = [
    Golden {
        file: "lauberhorn_echo.trace.json",
        pinned: include_str!("golden/lauberhorn_echo.trace.json"),
        run: || {
            let sim = LauberhornSim::new(LauberhornSimConfig::enzian(2), services(1));
            trace(sim, echo(10))
        },
    },
    Golden {
        file: "bypass_echo.trace.json",
        pinned: include_str!("golden/bypass_echo.trace.json"),
        run: || {
            trace(
                BypassSim::new(BypassSimConfig::modern(2), services(1)),
                echo(50),
            )
        },
    },
    Golden {
        file: "kernel_echo.trace.json",
        pinned: include_str!("golden/kernel_echo.trace.json"),
        run: || {
            trace(
                KernelSim::new(MachineConfig::new(Machine::PcPcie, 2), services(1)),
                echo(50),
            )
        },
    },
    Golden {
        file: "kernel_queue.trace.json",
        pinned: include_str!("golden/kernel_queue.trace.json"),
        run: || {
            let mut wl = echo(50);
            wl.mix = DynamicMix::stable(3, 0.0);
            wl.mode = LoadMode::Closed {
                clients: 3,
                think: SimDuration::ZERO,
            };
            trace(
                KernelSim::new(MachineConfig::new(Machine::PcPcie, 1), services(3)),
                wl,
            )
        },
    },
];

fn services(n: usize) -> Vec<ServiceSpec> {
    ServiceSpec::uniform(n, 1000, 32)
}

/// One closed-loop 64 B echo client for `window_us`, every span
/// recorded.
fn echo(window_us: u64) -> WorkloadSpec {
    let mut wl = WorkloadSpec::echo_closed(64, 1, 7).with_observe(ObserveSpec::full());
    wl.duration = SimDuration::from_us(window_us);
    wl.warmup = 0;
    wl
}

/// Runs `wl` on `sim` and exports every span it recorded.
fn trace(mut sim: impl ServerStack, wl: WorkloadSpec) -> String {
    let r = driver::run(&mut sim, &wl);
    assert!(
        r.completed > 0,
        "{} fixture run completed nothing",
        sim.name()
    );
    chrome_trace(sim.name(), sim.common().tracer.spans())
}

#[test]
fn chrome_trace_matches_golden_fixture() {
    let bless = std::env::var_os("BLESS").is_some();
    for g in &GOLDENS {
        let got = (g.run)();
        if bless {
            let path = format!("{}/tests/golden/{}", env!("CARGO_MANIFEST_DIR"), g.file);
            std::fs::write(path, &got).expect("write golden fixture");
            continue;
        }
        assert!(
            got == g.pinned,
            "chrome trace drifted from the golden fixture {} \
             (BLESS=1 regenerates it after intentional changes);\ngot:\n{got}",
            g.file
        );
    }
}

#[test]
fn golden_run_is_reproducible() {
    // A fixture is only meaningful if its run is a pure function of
    // the seed.
    for g in &GOLDENS {
        assert_eq!((g.run)(), (g.run)(), "{} run is not reproducible", g.file);
    }
}
