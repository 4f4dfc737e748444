//! The high-level experiment API: pick a stack, run a workload.

use lauberhorn_rpc::sim_bypass::{BypassSim, BypassSimConfig};
use lauberhorn_rpc::sim_kernel::KernelSim;
use lauberhorn_rpc::sim_lauberhorn::{LauberhornSim, LauberhornSimConfig};
use lauberhorn_rpc::{
    driver, Machine, MachineConfig, Report, ServerStack, ServiceSpec, WorkloadSpec,
};

/// A server stack on a concrete machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StackKind {
    /// Lauberhorn over ECI on Enzian — the paper's system.
    LauberhornEnzian,
    /// Lauberhorn over a projected CXL 3.0 link on a PC server.
    LauberhornCxl,
    /// Lauberhorn emulated by a second NUMA node (the CC-NIC \[22\]
    /// vehicle): no special hardware, processor-interconnect latencies.
    LauberhornNuma,
    /// Kernel bypass over Enzian's PCIe DMA path.
    BypassEnzian,
    /// Kernel bypass on a modern PC server (Gen4 NIC).
    BypassModern,
    /// Linux-style kernel stack on Enzian's PCIe DMA path.
    KernelEnzian,
    /// Linux-style kernel stack on a modern PC server.
    KernelModern,
}

impl StackKind {
    /// All stacks, in the order experiment tables print them.
    pub fn all() -> [StackKind; 7] {
        [
            StackKind::LauberhornEnzian,
            StackKind::LauberhornCxl,
            StackKind::LauberhornNuma,
            StackKind::BypassEnzian,
            StackKind::BypassModern,
            StackKind::KernelEnzian,
            StackKind::KernelModern,
        ]
    }

    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            StackKind::LauberhornEnzian => "lauberhorn/enzian-eci",
            StackKind::LauberhornCxl => "lauberhorn/cxl-server",
            StackKind::LauberhornNuma => "lauberhorn/numa-emulated",
            StackKind::BypassEnzian => "bypass/enzian-pcie-dma",
            StackKind::BypassModern => "bypass/pc-pcie-dma",
            StackKind::KernelEnzian => "kernel/enzian-pcie-dma",
            StackKind::KernelModern => "kernel/pc-pcie-dma",
        }
    }

    /// The machine this stack runs on, from the centralized catalogue.
    pub fn machine(self) -> Machine {
        match self {
            StackKind::LauberhornEnzian => Machine::EnzianEci,
            StackKind::LauberhornCxl => Machine::CxlProjected,
            StackKind::LauberhornNuma => Machine::NumaEmulated,
            StackKind::BypassEnzian | StackKind::KernelEnzian => Machine::EnzianPcie,
            StackKind::BypassModern | StackKind::KernelModern => Machine::PcPcie,
        }
    }
}

/// A configured experiment.
#[derive(Debug, Clone)]
pub struct Experiment {
    stack: StackKind,
    cores: usize,
    services: Vec<ServiceSpec>,
    rebind_on_epoch: bool,
}

impl Experiment {
    /// An experiment on `stack` with one echo service and two cores.
    pub fn new(stack: StackKind) -> Self {
        Experiment {
            stack,
            cores: 2,
            services: ServiceSpec::uniform(1, 1000, 32),
            rebind_on_epoch: false,
        }
    }

    /// Sets the number of server cores.
    pub fn cores(mut self, cores: usize) -> Self {
        self.cores = cores;
        self
    }

    /// Replaces the service set.
    pub fn services(mut self, services: Vec<ServiceSpec>) -> Self {
        self.services = services;
        self
    }

    /// For bypass stacks: rebind the hot set at every mix epoch.
    pub fn rebind_on_epoch(mut self, yes: bool) -> Self {
        self.rebind_on_epoch = yes;
        self
    }

    /// Builds the configured stack as a trait object the generic
    /// driver can run (the single construction point for every
    /// experiment and sweep).
    pub fn build(&self) -> Box<dyn ServerStack> {
        match self.stack {
            StackKind::LauberhornEnzian => Box::new(LauberhornSim::new(
                LauberhornSimConfig::enzian(self.cores),
                self.services.clone(),
            )),
            StackKind::LauberhornCxl => Box::new(LauberhornSim::new(
                LauberhornSimConfig::cxl_server(self.cores),
                self.services.clone(),
            )),
            StackKind::LauberhornNuma => Box::new(LauberhornSim::new(
                LauberhornSimConfig::numa_emulated(self.cores),
                self.services.clone(),
            )),
            StackKind::BypassEnzian => {
                let mut cfg = BypassSimConfig::enzian(self.cores);
                cfg.rebind_on_epoch = self.rebind_on_epoch;
                Box::new(BypassSim::new(cfg, self.services.clone()))
            }
            StackKind::BypassModern => {
                let mut cfg = BypassSimConfig::modern(self.cores);
                cfg.rebind_on_epoch = self.rebind_on_epoch;
                Box::new(BypassSim::new(cfg, self.services.clone()))
            }
            StackKind::KernelEnzian => Box::new(KernelSim::new(
                MachineConfig::new(Machine::EnzianPcie, self.cores),
                self.services.clone(),
            )),
            StackKind::KernelModern => Box::new(KernelSim::new(
                MachineConfig::new(Machine::PcPcie, self.cores),
                self.services.clone(),
            )),
        }
    }

    /// Runs `workload` through the generic driver and reports.
    pub fn run(&self, workload: &WorkloadSpec) -> Report {
        driver::run(&mut *self.build(), workload)
    }
}

/// Runs `workload` across `seeds` and summarises the spread of a
/// metric: returns `(mean, std deviation)` of the RTT p50 in
/// microseconds. Experiments quote this to show seed sensitivity.
pub fn replicate_p50_us(
    stack: StackKind,
    cores: usize,
    services: Vec<ServiceSpec>,
    workload: &WorkloadSpec,
    seeds: &[u64],
) -> (f64, f64) {
    let points: Vec<crate::sweep::SweepPoint> = seeds
        .iter()
        .map(|&seed| {
            let mut wl = workload.clone();
            wl.seed = seed;
            crate::sweep::SweepPoint::new(stack, wl)
                .cores(cores)
                .services(services.clone())
        })
        .collect();
    let samples: Vec<f64> = crate::sweep::run_parallel(&points, 0)
        .iter()
        .map(|r| r.rtt.p50_us())
        .collect();
    let n = samples.len().max(1) as f64;
    let mean = samples.iter().sum::<f64>() / n;
    let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
    (mean, var.sqrt())
}

/// Runs the same workload across several stacks (in parallel, one
/// simulation per thread) and returns the rows in stack order.
pub fn compare(
    stacks: &[StackKind],
    cores: usize,
    services: Vec<ServiceSpec>,
    workload: &WorkloadSpec,
) -> Vec<Report> {
    let points: Vec<crate::sweep::SweepPoint> = stacks
        .iter()
        .map(|&s| {
            crate::sweep::SweepPoint::new(s, workload.clone())
                .cores(cores)
                .services(services.clone())
        })
        .collect();
    crate::sweep::run_parallel(&points, 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_stack_runs_the_echo_workload() {
        let wl = WorkloadSpec::echo_closed(64, 2, 5);
        for stack in StackKind::all() {
            let r = Experiment::new(stack).run(&wl);
            assert!(
                r.completed > 50,
                "{}: {} completed",
                stack.name(),
                r.completed
            );
            assert_eq!(r.stack, stack.name());
        }
    }

    #[test]
    fn replication_is_tight_for_closed_loop_echo() {
        // Closed-loop deterministic echo: the p50 must be essentially
        // seed-independent.
        let wl = WorkloadSpec::echo_closed(64, 2, 0);
        let (mean, std) = replicate_p50_us(
            StackKind::LauberhornEnzian,
            2,
            ServiceSpec::uniform(1, 1000, 32),
            &wl,
            &[1, 2, 3, 4],
        );
        assert!(mean > 0.5);
        assert!(std / mean < 0.05, "mean {mean} std {std}");
    }

    #[test]
    fn compare_returns_one_row_per_stack() {
        let wl = WorkloadSpec::echo_closed(64, 1, 5);
        let rows = compare(
            &[StackKind::LauberhornEnzian, StackKind::KernelModern],
            2,
            ServiceSpec::uniform(1, 500, 16),
            &wl,
        );
        assert_eq!(rows.len(), 2);
    }
}
