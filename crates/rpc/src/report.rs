//! Experiment results, comparable across all three stacks.

use lauberhorn_sim::energy::CycleAccount;
use lauberhorn_sim::{BlameProfile, Fnv1a, Histogram, MetricsRegistry, SimDuration, Summary};

/// Fault-path counters, present in every report (all-zero on a
/// fault-free run).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Request frames the injector discarded on the client→server leg.
    pub wire_tx_lost: u64,
    /// Response deliveries discarded on the server→client leg.
    pub wire_rx_lost: u64,
    /// Frames corrupted in flight (whether or not later caught).
    pub corrupted: u64,
    /// Corrupted/truncated frames the server stack rejected via
    /// checksum or parse failure.
    pub checksum_dropped: u64,
    /// Client retransmissions sent.
    pub retransmits: u64,
    /// Requests abandoned after the retry budget ran out.
    pub retries_exhausted: u64,
    /// Requests terminated by the wall-clock retry budget
    /// ([`crate::wire::RetryPolicy::budget`]): the client stopped
    /// retransmitting because the request was already past its total
    /// latency budget, not because attempts ran out.
    pub timeouts: u64,
    /// Duplicate request frames suppressed by the server dedup window.
    pub dedup_dropped: u64,
    /// Duplicate requests answered by replaying the cached completion.
    pub dedup_replayed: u64,
    /// Duplicate response frames the client ignored.
    pub dup_responses: u64,
    /// Requests that *executed* more than once — must stay zero while
    /// the dedup window is on (the at-most-once proof).
    pub dup_executions: u64,
    /// Coherence-fabric fill faults absorbed (retried/ECC-corrected
    /// deliveries, stale duplicate fills ignored).
    pub fill_faults: u64,
    /// Process crashes recovered by requeueing orphaned state.
    pub crashes_recovered: u64,
}

impl FaultCounters {
    /// One summary line for experiment tables; empty on a clean run.
    pub fn row(&self) -> String {
        if *self == FaultCounters::default() {
            return String::new();
        }
        format!(
            "lost_tx={} lost_rx={} cksum_drop={} rexmit={} exhausted={} timeouts={} dedup={}+{} dup_resp={} dup_exec={} fill_faults={} crashes={}",
            self.wire_tx_lost,
            self.wire_rx_lost,
            self.checksum_dropped,
            self.retransmits,
            self.retries_exhausted,
            self.timeouts,
            self.dedup_dropped,
            self.dedup_replayed,
            self.dup_responses,
            self.dup_executions,
            self.fill_faults,
            self.crashes_recovered,
        )
    }
}

/// Metrics from one simulation run.
#[derive(Debug, Clone)]
pub struct Report {
    /// Stack name.
    pub stack: String,
    /// Requests offered by the generator.
    pub offered: u64,
    /// Requests completed (response received by the client).
    pub completed: u64,
    /// Requests dropped anywhere in the stack.
    pub dropped: u64,
    /// Simulated duration.
    pub duration: SimDuration,
    /// Client-observed round-trip latency (picosecond samples).
    pub rtt: Summary,
    /// Server end-system latency: NIC arrival → response leaving.
    pub end_system: Summary,
    /// Dispatch latency: NIC arrival → handler start.
    pub dispatch: Summary,
    /// Mean CPU cycles of software work per completed request
    /// (excludes handler cycles — this is the *stack overhead*).
    pub sw_cycles_per_req: f64,
    /// Aggregate core-time split over the run.
    pub energy: CycleAccount,
    /// Relative dynamic-energy proxy (see `CycleAccount::energy_proxy`).
    pub energy_proxy: f64,
    /// Coherence-fabric / PCIe message count (bus traffic).
    pub fabric_messages: u64,
    /// Digest of the generated request stream: per request, the id
    /// and the service as one word each, then the payload bytes, folded
    /// by FNV-1a's step eight bytes at a time
    /// ([`lauberhorn_sim::Fnv1a::write_words`]). Two runs with equal
    /// digests were offered byte-identical workloads, regardless of
    /// stack.
    pub request_digest: u64,
    /// `(request_id, response payload)` pairs, when the workload set
    /// `record_responses` (application-logic verification).
    pub recorded: Vec<(u64, Vec<u8>)>,
    /// Fault-path counters (all zero on a fault-free run).
    pub faults: FaultCounters,
    /// Component metrics snapshot (NIC, coherence, scheduler, RPC
    /// layer), collected once at `finish` from counters the components
    /// maintain anyway. The only tracing-derived entries are the
    /// `sim.span.*` family, registered solely while observability is
    /// on and excluded from [`Report::digest`], so the rest of the
    /// registry is identical whether or not observability is on.
    pub metrics: MetricsRegistry,
    /// Critical-path blame decomposition, present only when the run
    /// traced spans. Analysis output, not simulation state: excluded
    /// from [`Report::digest`] like everything else tracing-derived.
    pub blame: Option<BlameProfile>,
}

impl Report {
    /// Completed requests per second.
    pub fn throughput_rps(&self) -> f64 {
        let s = self.duration.as_secs_f64();
        if s == 0.0 {
            0.0
        } else {
            self.completed as f64 / s
        }
    }

    /// One summary line per stack, for experiment tables.
    pub fn row(&self) -> String {
        format!(
            "{:<22} n={:<7} rtt_p50={:>8.2}us rtt_p99={:>8.2}us endsys_p50={:>8.2}us disp_p50={:>8.2}us sw_cyc/req={:>7.0} act={:>5.1}% xput={:>10.0}rps",
            self.stack,
            self.completed,
            self.rtt.p50_us(),
            self.rtt.p99_us(),
            self.end_system.p50_us(),
            self.dispatch.p50_us(),
            self.sw_cycles_per_req,
            self.energy.active_fraction() * 100.0,
            self.throughput_rps(),
        )
    }

    /// One-line component-metrics summary for experiment tables: the
    /// headline counters under fixed prefixes, zero-valued and
    /// unmatched entries omitted. Empty when nothing matched.
    pub fn metrics_row(&self) -> String {
        self.metrics.row(&[
            "nic-lauberhorn.dispatch.",
            "nic-lauberhorn.endpoint.tryagains",
            "nic-lauberhorn.sched-mirror.",
            "nic-dma.irq.",
            "coherence.fabric.",
            "os.sched.wakeups",
            "os.sched.preempts",
            "rpc.retry.",
            "rpc.dedup.",
            "rpc.overload.",
            "nic-lauberhorn.overload.",
            "os.overload.",
            "bypass.overload.",
            "bypass.",
            "rpc.latency.",
            "sim.span.",
        ])
    }

    /// FNV-1a digest over every numeric field of the report (floats by
    /// bit pattern, summaries field-by-field, metrics entries
    /// name-by-name). Two runs with equal digests produced
    /// indistinguishable reports — the zero-perturbation tests compare
    /// exactly this.
    pub fn digest(&self) -> u64 {
        struct Fnv(Fnv1a);
        impl Fnv {
            fn put(&mut self, x: u64) {
                self.0.write_u64(x);
            }
            fn put_f(&mut self, x: f64) {
                self.put(x.to_bits());
            }
            fn put_str(&mut self, s: &str) {
                for b in s.bytes() {
                    self.put(b as u64);
                }
            }
            fn put_sum(&mut self, s: &Summary) {
                self.put(s.count);
                self.put_f(s.mean);
                for v in [s.min, s.p50, s.p90, s.p99, s.p999, s.max] {
                    self.put(v);
                }
            }
        }
        let mut h = Fnv(Fnv1a::new());
        h.put_str(&self.stack);
        h.put(self.offered);
        h.put(self.completed);
        h.put(self.dropped);
        h.put(self.duration.as_ps());
        h.put_sum(&self.rtt);
        h.put_sum(&self.end_system);
        h.put_sum(&self.dispatch);
        h.put_f(self.sw_cycles_per_req);
        h.put(self.energy.active.as_ps());
        h.put(self.energy.stalled.as_ps());
        h.put(self.energy.idle.as_ps());
        h.put_f(self.energy_proxy);
        h.put(self.fabric_messages);
        h.put(self.request_digest);
        for (id, payload) in &self.recorded {
            h.put(*id);
            for b in payload {
                h.put(*b as u64);
            }
        }
        let f = &self.faults;
        for v in [
            f.wire_tx_lost,
            f.wire_rx_lost,
            f.corrupted,
            f.checksum_dropped,
            f.retransmits,
            f.retries_exhausted,
            f.timeouts,
            f.dedup_dropped,
            f.dedup_replayed,
            f.dup_responses,
            f.dup_executions,
            f.fill_faults,
            f.crashes_recovered,
        ] {
            h.put(v);
        }
        // `sim.span.*` is meta-telemetry: it counts the spans the tracer
        // recorded, dropped and truncated, not the simulated system, and
        // exists only while tracing. Hashing it would make the digest
        // observe-sensitive by construction, so the zero-perturbation
        // carve-out skips the prefix.
        for (name, v) in self.metrics.counters() {
            if name.starts_with("sim.span.") {
                continue;
            }
            h.put_str(name);
            h.put(v);
        }
        for (name, v) in self.metrics.gauges() {
            if name.starts_with("sim.span.") {
                continue;
            }
            h.put_str(name);
            h.put_f(v);
        }
        for (name, s) in self.metrics.histograms() {
            if name.starts_with("sim.span.") {
                continue;
            }
            h.put_str(name);
            h.put_sum(s);
        }
        h.0.finish()
    }
}

/// Accumulates per-request measurements during a run.
#[derive(Debug, Default)]
pub struct MetricsCollector {
    /// Client RTTs.
    pub rtt: Histogram,
    /// Server end-system latencies.
    pub end_system: Histogram,
    /// Dispatch latencies.
    pub dispatch: Histogram,
    /// Offered requests.
    pub offered: u64,
    /// Completed requests.
    pub completed: u64,
    /// Dropped requests.
    pub dropped: u64,
    /// Software overhead cycles (stack work, not handlers).
    pub sw_cycles: u64,
    /// Completions counted toward `sw_cycles` (warmed only).
    pub measured: u64,
    /// Digest of the offered request stream (set by the driver).
    pub request_digest: u64,
    /// Recorded responses (when requested by the workload).
    pub recorded: Vec<(u64, Vec<u8>)>,
    /// Fault-path counters (all zero on a fault-free run).
    pub faults: FaultCounters,
    /// Component metrics, filled by each stack's `finish` from its
    /// NIC/coherence/scheduler counters (DESIGN.md §11).
    pub registry: MetricsRegistry,
}

impl MetricsCollector {
    /// Finalises into a [`Report`], adding the RPC layer's own
    /// `rpc.*` entries (retry/dedup counters, latency summaries) to
    /// the registry alongside whatever the stack exported.
    pub fn finish(
        mut self,
        stack: impl Into<String>,
        duration: SimDuration,
        energy: CycleAccount,
        fabric_messages: u64,
    ) -> Report {
        let rtt = self.rtt.summary();
        let end_system = self.end_system.summary();
        let dispatch = self.dispatch.summary();
        self.registry
            .counter("rpc.retry.retransmits", self.faults.retransmits);
        self.registry
            .counter("rpc.retry.exhausted", self.faults.retries_exhausted);
        self.registry
            .counter("rpc.retry.timeouts", self.faults.timeouts);
        self.registry
            .counter("rpc.dedup.suppressed", self.faults.dedup_dropped);
        self.registry
            .counter("rpc.dedup.replayed", self.faults.dedup_replayed);
        self.registry
            .counter("rpc.dedup.dup_executions", self.faults.dup_executions);
        self.registry
            .counter("rpc.dedup.dup_responses", self.faults.dup_responses);
        self.registry
            .counter("rpc.wire.tx_lost", self.faults.wire_tx_lost);
        self.registry
            .counter("rpc.wire.rx_lost", self.faults.wire_rx_lost);
        self.registry
            .counter("rpc.wire.corrupted", self.faults.corrupted);
        self.registry
            .counter("rpc.wire.checksum_dropped", self.faults.checksum_dropped);
        self.registry
            .counter("rpc.fabric.fill_faults", self.faults.fill_faults);
        self.registry.counter(
            "rpc.recovery.crashes_recovered",
            self.faults.crashes_recovered,
        );
        self.registry.counter("rpc.cycles.software", self.sw_cycles);
        self.registry
            .counter("rpc.cycles.measured_completions", self.measured);
        self.registry.counter("rpc.requests.offered", self.offered);
        self.registry
            .counter("rpc.requests.completed", self.completed);
        self.registry.counter("rpc.requests.dropped", self.dropped);
        self.registry.histogram("rpc.latency.rtt", rtt);
        self.registry
            .histogram("rpc.latency.end_system", end_system);
        self.registry.histogram("rpc.latency.dispatch", dispatch);
        Report {
            stack: stack.into(),
            offered: self.offered,
            completed: self.completed,
            dropped: self.dropped,
            duration,
            rtt,
            end_system,
            dispatch,
            sw_cycles_per_req: if self.measured == 0 {
                0.0
            } else {
                self.sw_cycles as f64 / self.measured as f64
            },
            energy_proxy: energy.energy_proxy(),
            energy,
            fabric_messages,
            request_digest: self.request_digest,
            recorded: self.recorded,
            faults: self.faults,
            metrics: self.registry,
            blame: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lauberhorn_sim::SimTime;

    #[test]
    fn throughput_math() {
        let m = MetricsCollector {
            completed: 1000,
            offered: 1000,
            ..Default::default()
        };
        let r = m.finish(
            "test",
            SimTime::from_ms(100) - SimTime::ZERO,
            CycleAccount::default(),
            0,
        );
        assert!((r.throughput_rps() - 10_000.0).abs() < 1.0);
    }

    #[test]
    fn sw_cycles_averaged_over_measured() {
        let m = MetricsCollector {
            sw_cycles: 5000,
            measured: 10,
            completed: 12,
            ..Default::default()
        };
        let r = m.finish("t", SimDuration::from_ms(1), CycleAccount::default(), 0);
        assert_eq!(r.sw_cycles_per_req, 500.0);
    }

    #[test]
    fn row_renders() {
        let m = MetricsCollector::default();
        let r = m.finish(
            "kernel",
            SimDuration::from_ms(1),
            CycleAccount::default(),
            0,
        );
        assert!(r.row().contains("kernel"));
    }
}
