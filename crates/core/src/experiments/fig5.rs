//! Figure 5: normal task scheduling vs NIC-driven scheduling.
//!
//! Three dispatch situations for the same request stream:
//!
//! * **lauberhorn/resident** — steady traffic keeps the core in the
//!   service's user loop: dispatch is the cache-line fill.
//! * **lauberhorn/cold** — arrival gaps exceed the TRYAGAIN window, so
//!   every request finds the core back in the kernel dispatch loop and
//!   pays the Figure 5 context switch (but still no interrupt, no
//!   socket wakeup).
//! * **kernel stack** — the traditional wakeup path: IRQ, softirq,
//!   socket, scheduler, context switch.
//!
//! The dispatch-latency distribution (NIC arrival → handler start) is
//! the figure's quantitative content.

use lauberhorn_rpc::sim_kernel::KernelSim;
use lauberhorn_rpc::sim_lauberhorn::{LauberhornSim, LauberhornSimConfig};
use lauberhorn_rpc::{Machine, MachineConfig, Report, ServiceSpec, WorkloadSpec};
use lauberhorn_sim::SimDuration;
use lauberhorn_workload::{ArrivalProcess, DynamicMix, SizeDist};

use lauberhorn_rpc::spec::LoadMode;

/// One scenario's result.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Scenario label.
    pub label: &'static str,
    /// Full report (dispatch summary is the headline).
    pub report: Report,
    /// Fraction of requests that took the NIC fast path (Lauberhorn
    /// scenarios only).
    pub fast_fraction: Option<f64>,
}

fn workload(rate_rps: f64, duration_ms: u64, warmup: u64, seed: u64) -> WorkloadSpec {
    workload_with(
        ArrivalProcess::Poisson { rate_rps },
        duration_ms,
        warmup,
        seed,
    )
}

fn workload_with(
    arrivals: ArrivalProcess,
    duration_ms: u64,
    warmup: u64,
    seed: u64,
) -> WorkloadSpec {
    WorkloadSpec {
        mode: LoadMode::Open { arrivals },
        mix: DynamicMix::stable(1, 0.0),
        request_bytes: SizeDist::Fixed { bytes: 64 },
        payload: None,
        record_responses: false,
        duration: SimDuration::from_ms(duration_ms),
        seed,
        warmup,
        faults: Default::default(),
        retry: None,
        observe: lauberhorn_sim::ObserveSpec::none(),
        overload: None,
    }
}

/// Runs all three scenarios.
pub fn run(seed: u64) -> Vec<Scenario> {
    let services = ServiceSpec::uniform(1, 1000, 32);
    // Resident: 50k rps keeps the user loop hot (20 µs gaps ≪ 15 ms).
    let mut resident_sim = LauberhornSim::new(LauberhornSimConfig::enzian(2), services.clone());
    let resident = resident_sim.run(&workload(50_000.0, 10, 50, seed));
    let resident_stats = resident_sim.nic().stats();

    // Cold: fixed 25 ms gaps > the 15 ms TRYAGAIN window — the core
    // yields between requests, so each one re-enters via the kernel
    // dispatch loop. (Deterministic gaps: with Poisson arrivals a large
    // fraction of gaps would fall inside the window.)
    let mut cold_sim = LauberhornSim::new(LauberhornSimConfig::enzian(2), services.clone());
    let cold = cold_sim.run(&workload_with(
        ArrivalProcess::Deterministic { rate_rps: 40.0 },
        800,
        3,
        seed,
    ));
    let cold_stats = cold_sim.nic().stats();

    // Kernel stack at the resident rate.
    let kernel = KernelSim::new(MachineConfig::new(Machine::PcPcie, 2), services)
        .run(&workload(50_000.0, 10, 50, seed));

    vec![
        Scenario {
            label: "lauberhorn/resident (user loop)",
            fast_fraction: Some(
                resident_stats.fast_path as f64 / resident_stats.rx_requests.max(1) as f64,
            ),
            report: resident,
        },
        Scenario {
            label: "lauberhorn/cold (kernel dispatch loop)",
            fast_fraction: Some(cold_stats.fast_path as f64 / cold_stats.rx_requests.max(1) as f64),
            report: cold,
        },
        Scenario {
            label: "kernel stack (wakeup path)",
            fast_fraction: None,
            report: kernel,
        },
    ]
}

/// Renders the comparison.
pub fn render(rows: &[Scenario]) -> String {
    let mut out = String::from("Figure 5 — dispatch latency: normal vs NIC-driven scheduling\n\n");
    out.push_str(&format!(
        "{:<42} {:>12} {:>12} {:>12} {:>10}\n",
        "scenario", "disp p50", "disp p99", "sw cyc/req", "fastpath"
    ));
    for s in rows {
        out.push_str(&format!(
            "{:<42} {:>10.2}us {:>10.2}us {:>12.0} {:>9}\n",
            s.label,
            s.report.dispatch.p50_us(),
            s.report.dispatch.p99_us(),
            s.report.sw_cycles_per_req,
            s.fast_fraction
                .map(|f| format!("{:.0}%", f * 100.0))
                .unwrap_or_else(|| "-".into()),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resident_dispatch_is_fastest_and_cold_still_beats_kernel() {
        let rows = run(11);
        let resident = &rows[0].report;
        let cold = &rows[1].report;
        let kernel = &rows[2].report;
        assert!(
            resident.dispatch.p50 < cold.dispatch.p50,
            "resident {}us !< cold {}us",
            resident.dispatch.p50_us(),
            cold.dispatch.p50_us()
        );
        assert!(
            cold.dispatch.p50 < kernel.dispatch.p50,
            "cold {}us !< kernel {}us",
            cold.dispatch.p50_us(),
            kernel.dispatch.p50_us()
        );
    }

    #[test]
    fn residency_matches_the_rates() {
        let rows = run(13);
        assert!(
            rows[0].fast_fraction.unwrap() > 0.9,
            "resident mostly fast path"
        );
        assert!(
            rows[1].fast_fraction.unwrap() < 0.3,
            "cold mostly kernel path"
        );
    }

    #[test]
    fn sw_cycles_ordering() {
        let rows = run(17);
        assert!(rows[0].report.sw_cycles_per_req < rows[1].report.sw_cycles_per_req);
        assert!(rows[1].report.sw_cycles_per_req < rows[2].report.sw_cycles_per_req);
    }
}
