//! The generic experiment driver: one client model, one load
//! generator, one warmup/metrics policy for every [`ServerStack`].
//!
//! The client side — open/closed-loop generation, request marshalling,
//! RTT bookkeeping — used to be copy-pasted into each of the three
//! stack simulations, which made "are we comparing the stacks on the
//! same workload?" a diff exercise. Here it exists once: the driver
//! owns the client RNG stream, builds identical request byte streams
//! for every stack under the same seed (pinned by a running digest in
//! the report, FNV-1a's step folded a word at a time), interleaves
//! client events with the stack's internal event queue in time order,
//! and emits the common [`Report`].

use std::collections::BTreeMap;

use lauberhorn_packet::eth::ETH_HEADER_LEN;
use lauberhorn_packet::frame::EndpointAddr;
use lauberhorn_packet::{BufPool, PktBuf, RpcHeader, RpcKind};
use lauberhorn_sim::fault::{FaultDecision, FaultInjector};
use lauberhorn_sim::{AimdPacer, Fnv1a, Histogram, SimDuration, SimRng, SimTime};

use crate::report::Report;
use crate::spec::{LoadMode, PayloadGen, WorkloadSpec};
use crate::stack::{InFlight, ServerStack, StackCommon};
use crate::wire::{write_request, RetryPolicy};

/// Request frames the client keeps for reuse. Each sent frame is held
/// by the stack until it reaches the NIC, and by its retransmit record
/// until answered, so a few dozen cover the in-flight frames of every
/// workload below saturation.
const FRAME_POOL_CAP: usize = 64;

/// Appends the generated payload of `request_id` to `out`: `len` bytes
/// of `(i as u8) ^ (request_id as u8)`. `ramp` holds `0..=255`, so
/// each 256-byte chunk is the ramp XOR the id's low byte, a loop the
/// compiler vectorises.
fn write_payload(out: &mut Vec<u8>, ramp: &[u8; 256], request_id: u64, len: usize) {
    let start = out.len();
    out.resize(start + len, 0);
    let key = request_id as u8;
    for chunk in out.get_mut(start..).unwrap_or_default().chunks_mut(256) {
        for (b, r) in chunk.iter_mut().zip(ramp) {
            *b = r ^ key;
        }
    }
}

/// Client-side events, interleaved with the stack's internal queue.
#[derive(Debug)]
pub(crate) enum ClientEv {
    /// A load-generator tick for the given (closed-loop) client.
    Gen { client: usize },
    /// The response frame reached the client.
    Response { request_id: u64 },
    /// The retransmission timer for `request_id` fired; `attempt` is
    /// the transmission it was armed after (1 = the original send).
    Retry { request_id: u64, attempt: u32 },
    /// A pushback NACK reached the client: the server shed the request
    /// under overload and advertised its load as `hint` (0–255).
    Pushback { request_id: u64, hint: u8 },
}

/// Puts one request frame on the wire, applying transmit-leg faults.
/// Clean path (no injector): one `inject_frame`, nothing else. The
/// frame is a [`PktBuf`], so duplication bumps a reference count and
/// corruption copies-on-write (the retransmit copy stays pristine).
fn send_frame(
    stack: &mut (impl ServerStack + ?Sized),
    tx_fault: &mut Option<FaultInjector>,
    now: SimTime,
    raw: PktBuf,
    request_id: u64,
) {
    let arrive = now + stack.common().wire.deliver(raw.len());
    let Some(inj) = tx_fault.as_mut() else {
        stack.inject_frame(arrive, raw, request_id);
        return;
    };
    match inj.decide_frame(raw.len(), ETH_HEADER_LEN) {
        FaultDecision::Deliver => stack.inject_frame(arrive, raw, request_id),
        FaultDecision::Drop => {
            stack.common().metrics.faults.wire_tx_lost += 1;
        }
        FaultDecision::Corrupt { offset, bit } => {
            let mut raw = raw;
            FaultInjector::apply_corruption(raw.make_mut(), offset, bit);
            stack.common().metrics.faults.corrupted += 1;
            stack.inject_frame(arrive, raw, request_id);
        }
        FaultDecision::Duplicate { gap } => {
            stack.inject_frame(arrive, raw.clone(), request_id);
            stack.inject_frame(arrive + gap, raw, request_id);
        }
        FaultDecision::Delay { extra } => {
            stack.inject_frame(arrive + extra, raw, request_id);
        }
    }
}

/// The retransmission delay after `attempt` transmissions: the
/// policy's exponential RTO, jittered from the dedicated stream.
fn jittered_rto(policy: &RetryPolicy, attempt: u32, rng: &mut SimRng) -> SimDuration {
    let base = policy.rto(attempt);
    if policy.jitter_frac <= 0.0 {
        return base;
    }
    let u = rng.gen_f64() * 2.0 - 1.0;
    SimDuration::from_ns_f64(base.as_ns_f64() * (1.0 + policy.jitter_frac * u))
}

/// A closed-loop `client` whose request just ended at `now` issues its
/// next one after the think time, if that is still inside the load
/// window. Open-loop generation does not depend on completions.
fn think_then_generate(
    common: &mut StackCommon,
    workload: &WorkloadSpec,
    now: SimTime,
    client: usize,
) {
    if let LoadMode::Closed { think, .. } = &workload.mode {
        if now + *think <= common.end_of_load {
            common
                .client_q
                .schedule(now + *think, ClientEv::Gen { client });
        }
    }
}

/// The client gives up on `request_id` at `now` — retries exhausted,
/// retry budget exhausted, retransmit deadline-suppressed, or pushed
/// back: its record leaves the table, it counts as dropped, the dedup
/// window forgets it so a late retransmit may execute, and a
/// closed-loop client moves on. The caller has checked that the
/// request is still in flight.
fn give_up(common: &mut StackCommon, workload: &WorkloadSpec, request_id: u64, now: SimTime) {
    let record = common.abandon_request(request_id, now);
    common.dedup_forget(request_id);
    if let Some(r) = record {
        think_then_generate(common, workload, now, r.client);
    }
}

/// Runs `workload` against `stack` and reports.
///
/// The driver alternates between the client queue and the stack's
/// internal queue, always processing the globally-earliest event
/// (client first on ties, so request injection at time `t` is visible
/// to a stack event at the same `t`). Each request lives in one
/// `InFlight` record on [`StackCommon`] from generation until it is
/// answered or given up on.
pub fn run(stack: &mut (impl ServerStack + ?Sized), workload: &WorkloadSpec) -> Report {
    stack.common().begin(workload);
    stack.prepare(workload);

    // The client's randomness is a stream of its own, independent of
    // the stack: every stack sees the same services, sizes and gaps.
    let mut client_rng = SimRng::stream(workload.seed, "client");
    let client_addr = EndpointAddr::host(2, 7000);
    // Running digest over the generated request stream, folded a word
    // at a time; equal digests across stacks prove they were offered
    // identical bytes.
    let mut digest = Fnv1a::new();
    let ramp: [u8; 256] = std::array::from_fn(|i| i as u8);
    let mut next_request_id = 0u64;
    let mut frames = BufPool::new(FRAME_POOL_CAP);

    // Fault/retry machinery: all `None`/empty on a clean run, in which
    // case no extra RNG stream is created and no extra event is ever
    // scheduled — the clean schedule is bit-identical to pre-fault
    // builds.
    let retry = workload.effective_retry();
    let mut retry_rng = retry.map(|_| SimRng::stream(workload.seed, "retry"));
    let mut tx_fault = workload
        .faults
        .wire_tx
        .enabled()
        .then(|| FaultInjector::new(workload.faults.wire_tx, workload.seed, "fault.wire.tx"));

    // Tenant-scoped fault storm: applied at generation time, where the
    // tenant is known. The dedicated stream exists (and is drawn from)
    // only when the plan targets a tenant, so every other run's
    // schedule is untouched.
    let tenant_fault = workload.faults.tenant.filter(|t| t.enabled());
    let mut tenant_fault_rng = tenant_fault.map(|_| SimRng::stream(workload.seed, "fault.tenant"));
    let mut tenant_malformed: u64 = 0;
    let mut tenant_storm_extra: u64 = 0;

    // Per-tenant SLO ledgers, kept host-side whenever the workload
    // carries a tenancy plan — enforcing *or* measurement-only — so
    // the unbounded baseline arm is scored against the same SLOs.
    let tenancy = workload.overload.as_ref().and_then(|o| o.tenancy.as_ref());
    let mut tenant_offered: BTreeMap<u16, u64> = BTreeMap::new();
    let mut tenant_completed: BTreeMap<u16, u64> = BTreeMap::new();
    let mut tenant_rtt: BTreeMap<u16, Histogram> = BTreeMap::new();

    // When the workload declares a deadline-shedding budget and the
    // retry policy has no wall-clock budget of its own, a retransmit
    // timer firing past that deadline can only produce a frame the
    // server sheds as stale at dispatch. Suppress those retransmits at
    // the client instead of firing them into guaranteed shed work;
    // each suppression terminates the request as a `Timeout` and is
    // counted, registered only when non-zero so clean-run digests are
    // untouched.
    let retry_deadline = match (&retry, &workload.overload) {
        (Some(p), Some(o)) if p.budget.is_none() => o.deadline,
        _ => None,
    };
    let mut deadline_suppressed: u64 = 0;

    // AIMD pacing, armed only when the workload's overload config asks
    // for pushback. `None` otherwise: open-loop gaps are used as
    // sampled, bit-identically to builds without overload control.
    let mut pacer = workload
        .overload
        .as_ref()
        .filter(|o| o.pushback)
        .map(|_| AimdPacer::new());

    match &workload.mode {
        LoadMode::Open { .. } => {
            stack
                .common()
                .client_q
                .schedule(SimTime::from_ns(1), ClientEv::Gen { client: 0 });
        }
        LoadMode::Closed { clients, .. } => {
            for c in 0..*clients {
                stack.common().client_q.schedule(
                    SimTime::from_ns(1 + c as u64 * 100),
                    ClientEv::Gen { client: c },
                );
            }
        }
    }
    let mut arrivals = match &workload.mode {
        LoadMode::Open { arrivals } => Some(arrivals.clone()),
        LoadMode::Closed { .. } => None,
    };

    let mut last_now = SimTime::ZERO;
    loop {
        // The earliest event across both queues, client first on ties.
        let client_t = stack.common().client_q.peek_time();
        let stack_t = stack.next_event_time();
        let (now, client_side) = match (client_t, stack_t) {
            (Some(c), Some(s)) if c <= s => (c, true),
            (Some(c), None) => (c, true),
            (_, Some(s)) => (s, false),
            (None, None) => break,
        };
        last_now = now;
        let common = stack.common();
        if now > common.hard_end
            || (now > common.end_of_load
                && common.metrics.completed + common.metrics.dropped >= common.metrics.offered)
        {
            break;
        }
        if !client_side {
            stack.step(workload);
            continue;
        }
        let Some((_, ev)) = common.client_q.pop() else {
            break;
        };
        match ev {
            ClientEv::Gen { client } => {
                if now > common.end_of_load {
                    continue;
                }
                let request_id = next_request_id;
                next_request_id += 1;
                let service = workload.mix.sample(&mut client_rng, now);
                let (script, len) = match &workload.payload {
                    Some(PayloadGen::Script(f)) => {
                        let bytes = f(request_id);
                        let len = bytes.len();
                        (Some(bytes), len)
                    }
                    None => (None, workload.request_bytes.sample(&mut client_rng)),
                };
                // The payload is generated straight into a recycled
                // frame, and digested where it lies.
                let mut raw = frames.take();
                let header = RpcHeader {
                    kind: RpcKind::Request,
                    service_id: service,
                    method_id: 0,
                    request_id,
                    payload_len: 0,
                    cont_hint: 0,
                };
                let server = stack.server_addr(service);
                let built =
                    write_request(client_addr, server, header, len, raw.make_mut(), |out| {
                        let start = out.len();
                        match &script {
                            Some(bytes) => out.extend_from_slice(bytes),
                            None => write_payload(out, &ramp, request_id, len),
                        }
                        digest.write_word(request_id);
                        digest.write_word(service as u64);
                        digest.write_words(out.get(start..).unwrap_or_default());
                    });
                if built.is_err() {
                    // Send the empty frame the server's parse rejects.
                    debug_assert!(false, "request frame builds");
                    raw.make_mut().clear();
                }
                frames.keep(&raw);
                if tenancy.is_some() {
                    *tenant_offered.entry(service).or_default() += 1;
                }
                let common = stack.common();
                if common.tracer.is_enabled() {
                    // Blame profiles slice per service; the map exists
                    // only while tracing, so clean runs allocate nothing.
                    common.service_of.insert(request_id, service);
                }
                common.metrics.offered += 1;
                let retransmit = retry.is_some().then(|| raw.clone());
                common
                    .in_flight
                    .insert(request_id, InFlight::new(now, client, service, retransmit));
                if let (Some(policy), Some(rng)) = (&retry, retry_rng.as_mut()) {
                    let rto = jittered_rto(policy, 1, rng);
                    common.client_q.schedule(
                        now + rto,
                        ClientEv::Retry {
                            request_id,
                            attempt: 1,
                        },
                    );
                }
                match tenant_fault.filter(|tf| tf.tenant == service) {
                    Some(tf) => {
                        // Malformed: corrupt the transmitted copy only;
                        // the retransmit copy in the record stays
                        // pristine.
                        let mut wire = raw.clone();
                        if let Some(rng) = tenant_fault_rng.as_mut().filter(|_| tf.malformed > 0.0)
                        {
                            if rng.gen_f64() < tf.malformed {
                                let len = wire.len();
                                let offset =
                                    rng.gen_range(ETH_HEADER_LEN..len.max(ETH_HEADER_LEN + 1));
                                let bit = rng.gen_range(0..8) as u8;
                                FaultInjector::apply_corruption(wire.make_mut(), offset, bit);
                                tenant_malformed += 1;
                                stack.common().metrics.faults.corrupted += 1;
                            }
                        }
                        send_frame(stack, &mut tx_fault, now, wire, request_id);
                        // Storm amplification: duplicates with the same
                        // request id (at-most-once is on the hook for
                        // them).
                        for _ in 0..tf.storm_extra {
                            tenant_storm_extra += 1;
                            send_frame(stack, &mut tx_fault, now, raw.clone(), request_id);
                        }
                    }
                    None => send_frame(stack, &mut tx_fault, now, raw, request_id),
                }
                if let Some(arr) = arrivals.as_mut() {
                    let mut gap = arr.next_gap(&mut client_rng);
                    if let Some(p) = pacer.as_ref() {
                        // AIMD pacing stretches the open-loop gap;
                        // without pushback the sampled gap is used
                        // untouched.
                        gap = SimDuration::from_ns_f64(gap.as_ns_f64() * p.gap_scale());
                    }
                    stack
                        .common()
                        .client_q
                        .schedule(now + gap, ClientEv::Gen { client });
                }
            }
            ClientEv::Response { request_id } => {
                // Duplicate deliveries (a replayed dedup answer racing
                // the original, or a duplicated response frame) are
                // ignored: the first answer won.
                let Some(r) = common.in_flight.remove(&request_id) else {
                    common.metrics.faults.dup_responses += 1;
                    continue;
                };
                if let Some(p) = pacer.as_mut() {
                    p.on_success(now);
                }
                let tenant = tenancy.map(|_| r.service);
                if let Some(t) = tenant {
                    *tenant_completed.entry(t).or_default() += 1;
                }
                common.metrics.completed += 1;
                if common.metrics.completed > workload.warmup {
                    let rtt = now.since(r.times.sent);
                    common.metrics.rtt.record_duration(rtt);
                    if let Some(t) = tenant {
                        tenant_rtt.entry(t).or_default().record_duration(rtt);
                    }
                    common
                        .metrics
                        .end_system
                        .record_duration(r.times.end_system());
                    common.metrics.dispatch.record_duration(r.times.dispatch());
                    common.metrics.sw_cycles += r.sw_cycles;
                    common.metrics.measured += 1;
                }
                think_then_generate(common, workload, now, r.client);
            }
            ClientEv::Retry {
                request_id,
                attempt,
            } => {
                let Some(policy) = retry else {
                    // A retry event without a policy: stale state.
                    continue;
                };
                let Some(r) = common.in_flight.get(&request_id) else {
                    // Answered (or already abandoned): stale timer.
                    continue;
                };
                let sent = r.times.sent;
                if attempt >= policy.max_attempts {
                    common.metrics.faults.retries_exhausted += 1;
                } else if policy.budget_exhausted(sent, now) {
                    // The wall-clock retry budget ran out before the
                    // attempt bound: terminal `Timeout`, not another
                    // round of max-backoff retransmissions.
                    common.metrics.faults.timeouts += 1;
                } else if retry_deadline.is_some_and(|d| now.since(sent) > d) {
                    // The workload's overload deadline has already passed
                    // for this request: a retransmission now would
                    // arrive only to be shed as stale at dispatch.
                    // Terminal `Timeout` here instead of fired-and-shed
                    // wasted wire and queue work.
                    deadline_suppressed += 1;
                    common.metrics.faults.timeouts += 1;
                } else {
                    let Some(raw) = r.retransmit.clone() else {
                        continue;
                    };
                    common.metrics.faults.retransmits += 1;
                    if let Some(rng) = retry_rng.as_mut() {
                        let next = attempt + 1;
                        let rto = jittered_rto(&policy, next, rng);
                        common.client_q.schedule(
                            now + rto,
                            ClientEv::Retry {
                                request_id,
                                attempt: next,
                            },
                        );
                    }
                    send_frame(stack, &mut tx_fault, now, raw, request_id);
                    continue;
                }
                give_up(common, workload, request_id, now);
            }
            ClientEv::Pushback { request_id, hint } => {
                // The server refused the request under overload and said
                // so explicitly: terminate it here (no point
                // retransmitting into a shedding server) and slow the
                // generator down.
                if !common.in_flight.contains_key(&request_id) {
                    // Already answered or abandoned: stale NACK.
                    continue;
                }
                if let Some(p) = pacer.as_mut() {
                    p.on_pushback(hint, now);
                }
                give_up(common, workload, request_id, now);
            }
        }
    }

    let end = last_now.min(stack.common().hard_end);
    let (energy, fabric) = stack.finish(end);
    let common = stack.common();
    // Close spans left open at the cutoff (parked cores, in-flight
    // requests) so the balance invariant holds for exported traces.
    common.tracer.finish(end);
    common.metrics.request_digest = digest.finish();
    if let Some(p) = pacer.as_ref() {
        // Only reached when overload pushback was armed, so these
        // entries never enter a clean run's digest.
        common
            .metrics
            .registry
            .counter("rpc.overload.pushbacks", p.pushbacks);
        common
            .metrics
            .registry
            .gauge("rpc.overload.pacer_factor", p.factor());
    }
    if deadline_suppressed > 0 {
        // Only non-zero when deadline shedding and a budget-less retry
        // policy are both armed, so clean runs never see this entry.
        common
            .metrics
            .registry
            .counter("rpc.retry.deadline_suppressed", deadline_suppressed);
    }
    if let Some(tcfg) = tenancy {
        // Per-tenant SLO attainment ledgers. Present only when a
        // tenancy plan rode along with the workload (enforcing or
        // observe-only), so untenanted digests are untouched. A tenant
        // with no measured completions does not meet its SLO.
        let reg = &mut common.metrics.registry;
        let mut met: u64 = 0;
        for spec in &tcfg.tenants {
            let t = spec.tenant;
            let offered = tenant_offered.get(&t).copied().unwrap_or(0);
            let completed = tenant_completed.get(&t).copied().unwrap_or(0);
            reg.counter(&format!("rpc.tenant.offered.s{t}"), offered);
            reg.counter(&format!("rpc.tenant.completed.s{t}"), completed);
            let p99_ps = tenant_rtt
                .get(&t)
                .filter(|h| h.count() > 0)
                .map(|h| h.quantile(0.99));
            if let Some(p99_ps) = p99_ps {
                reg.gauge(&format!("rpc.tenant.rtt_p99_us.s{t}"), p99_ps as f64 / 1e6);
            }
            if p99_ps.is_some_and(|p| p <= spec.slo_p99.as_ps()) {
                met += 1;
            }
        }
        reg.counter("rpc.tenant.count", tcfg.tenants.len() as u64);
        reg.counter("rpc.tenant.slo_met", met);
    }
    if tenant_fault.is_some() {
        // Bookkeeping for the tenant-scoped fault arm: how much the
        // storm actually injected. Gated on the plan, like the ledgers.
        let reg = &mut common.metrics.registry;
        reg.counter("rpc.tenant.fault.malformed", tenant_malformed);
        reg.counter("rpc.tenant.fault.storm_extra", tenant_storm_extra);
    }
    let blame = if common.tracer.is_enabled() {
        // Trace-loss visibility (satellite of the blame work): how
        // much the measurement apparatus itself lost. These entries
        // exist only while tracing and are excluded from the report
        // digest, so the zero-perturbation guarantee is untouched.
        let reg = &mut common.metrics.registry;
        reg.counter("sim.span.recorded", common.tracer.recorded());
        reg.counter("sim.span.dropped", common.tracer.dropped());
        reg.counter("sim.span.truncated", common.tracer.truncated());
        let paths = lauberhorn_sim::critical_paths(common.tracer.spans());
        Some(lauberhorn_sim::BlameProfile::build(
            &paths,
            &common.service_of,
        ))
    } else {
        None
    };
    let metrics = std::mem::take(&mut common.metrics);
    let mut report = metrics.finish(stack.name(), end.since(SimTime::ZERO), energy, fabric);
    report.blame = blame;
    report
}

#[cfg(test)]
mod tests {
    use lauberhorn_sim::fault::FaultPlan;
    use lauberhorn_workload::SizeDist;

    use super::*;
    use crate::sim_bypass::BypassSim;
    use crate::sim_kernel::KernelSim;
    use crate::sim_lauberhorn::LauberhornSim;
    use crate::stack::{Machine, MachineConfig};
    use crate::ServiceSpec;

    fn in_flight_after_lossy_run<S: ServerStack>(machine: Machine) -> usize {
        let wl =
            WorkloadSpec::open_poisson(100_000.0, 1, 0.0, SizeDist::Fixed { bytes: 64 }, 20, 1)
                .with_faults(FaultPlan::wire_loss(0.01))
                .with_retry(RetryPolicy::same_rack());
        let mut stack = S::build(
            MachineConfig::new(machine, 2),
            ServiceSpec::uniform(1, 1000, 32),
        );
        let report = run(&mut stack, &wl);
        assert!(report.faults.retransmits > 0, "the run exercised retry");
        stack.common().in_flight.len()
    }

    /// The ramp writer produces exactly the per-byte formula, across
    /// chunk boundaries, for ids whose low byte is 0x00, 0x7f and 0xff.
    #[test]
    fn payload_writer_matches_its_formula() {
        let ramp: [u8; 256] = std::array::from_fn(|i| i as u8);
        for len in [0, 1, 255, 256, 257, 4_099, 57_344] {
            for request_id in [0x1200u64, 0x7f, 0xbeef_00ff] {
                let mut out = vec![0xee; 3];
                write_payload(&mut out, &ramp, request_id, len);
                let reference: Vec<u8> = (0..len).map(|i| (i as u8) ^ (request_id as u8)).collect();
                assert_eq!(out.get(..3), Some(&[0xee; 3][..]), "prefix kept");
                assert_eq!(
                    out.get(3..),
                    Some(&reference[..]),
                    "len {len}, id {request_id:#x}"
                );
            }
        }
    }

    /// Every request's record leaves the table by run end: answered,
    /// or given up on by the client.
    #[test]
    fn lossy_runs_leave_no_request_in_flight() {
        assert_eq!(
            in_flight_after_lossy_run::<LauberhornSim>(Machine::CxlProjected),
            0
        );
        assert_eq!(in_flight_after_lossy_run::<BypassSim>(Machine::PcPcie), 0);
        assert_eq!(in_flight_after_lossy_run::<KernelSim>(Machine::PcPcie), 0);
    }
}
