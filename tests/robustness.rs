//! Robustness: corrupted frames, unknown services, hostile inputs, and
//! overload must degrade gracefully (drops and errors, never panics or
//! wedges) across the device models.

use lauberhorn::coherence::{CacheId, CoherentSystem, FabricModel, LoadResult};
use lauberhorn::nic::nic::{DropReason, NicAction};
use lauberhorn::nic::{LauberhornNic, LauberhornNicConfig};
use lauberhorn::nic_dma::nic::RxDrop;
use lauberhorn::nic_dma::ring::RxDescriptor;
use lauberhorn::nic_dma::{DmaNic, DmaNicConfig};
use lauberhorn::os::ProcessId;
use lauberhorn::packet::frame::EndpointAddr;
use lauberhorn::packet::marshal::{ArgType, Signature};
use lauberhorn::sim::{SimRng, SimTime};

fn lb_nic() -> LauberhornNic {
    let mut n = LauberhornNic::new(LauberhornNicConfig::enzian(EndpointAddr::host(1, 9000)), 2);
    n.demux_mut().register_service(1, ProcessId(1));
    n.demux_mut()
        .register_method(1, 0x1000, 0x2000, Signature::of(&[ArgType::Bytes]))
        .expect("fresh service");
    n
}

#[test]
fn lauberhorn_nic_survives_random_garbage() {
    let mut nic = lb_nic();
    let mut rng = SimRng::stream(1, "fuzz");
    for i in 0..2_000 {
        let len = rng.gen_range(0usize..512);
        let mut frame = vec![0u8; len];
        rng.fill_bytes(&mut frame);
        let mut actions = Vec::new();
        nic.on_request_frame(SimTime::from_us(i), &frame, &mut actions);
        // Garbage either drops or (vanishingly unlikely) parses; it
        // must never panic and never produce a fill for a parked load
        // that doesn't exist.
        for a in actions {
            assert!(
                matches!(a, NicAction::Dropped { .. }),
                "garbage produced {a:?}"
            );
        }
    }
    assert_eq!(nic.stats().rx_requests, 0);
    assert!(nic.stats().dropped >= 2_000);
}

#[test]
fn lauberhorn_nic_survives_bit_flips_of_valid_frames() {
    // Start from a valid frame and flip one bit everywhere; every
    // variant must be handled without panicking.
    let mut nic = lb_nic();
    let (_, _layout) = nic.create_endpoint(ProcessId(1));
    let valid = {
        use lauberhorn::packet::marshal::{Codec, Value, VarintCodec};
        use lauberhorn::packet::{build_udp_frame, RpcHeader, RpcKind};
        let sig = Signature::of(&[ArgType::Bytes]);
        let payload = VarintCodec
            .encode(&sig, &[Value::Bytes(vec![1, 2, 3])])
            .expect("encodes");
        let h = RpcHeader {
            kind: RpcKind::Request,
            service_id: 1,
            method_id: 0,
            request_id: 1,
            payload_len: payload.len() as u32,
            cont_hint: 0,
        };
        build_udp_frame(
            EndpointAddr::host(2, 700),
            EndpointAddr::host(1, 9000),
            &h.encode_message(&payload).expect("sized"),
            0,
        )
        .expect("builds")
    };
    for byte in 0..valid.len() {
        for bit in 0..8 {
            let mut corrupt = valid.clone();
            corrupt[byte] ^= 1 << bit;
            nic.on_request_frame(SimTime::from_us(byte as u64), &corrupt, &mut Vec::new());
        }
    }
}

#[test]
fn unknown_service_and_method_drop_cleanly() {
    use lauberhorn::packet::{build_udp_frame, RpcHeader, RpcKind};
    let mut nic = lb_nic();
    let mk = |service, method| {
        let h = RpcHeader {
            kind: RpcKind::Request,
            service_id: service,
            method_id: method,
            request_id: 1,
            payload_len: 0,
            cont_hint: 0,
        };
        build_udp_frame(
            EndpointAddr::host(2, 700),
            EndpointAddr::host(1, 9000),
            &h.encode_message(&[]).expect("sized"),
            0,
        )
        .expect("builds")
    };
    let mut acts = Vec::new();
    nic.on_request_frame(SimTime::ZERO, &mk(99, 0), &mut acts);
    assert_eq!(
        acts,
        vec![NicAction::Dropped {
            reason: DropReason::UnknownService(99),
            request_id: Some(1),
        }]
    );
    let mut acts = Vec::new();
    nic.on_request_frame(SimTime::ZERO, &mk(1, 42), &mut acts);
    assert_eq!(
        acts,
        vec![NicAction::Dropped {
            reason: DropReason::UnknownMethod(1, 42),
            request_id: Some(1),
        }]
    );
}

#[test]
fn dma_nic_ring_exhaustion_counts_drops() {
    let mut nic = DmaNic::new(DmaNicConfig::modern_server(1));
    nic.iommu_mut().map(0, 0, 1 << 20, true);
    nic.post_rx(
        0,
        RxDescriptor {
            buf_iova: 0,
            buf_len: 4096,
        },
    )
    .expect("room");
    let frame = lauberhorn::packet::build_udp_frame(
        EndpointAddr::host(1, 1),
        EndpointAddr::host(2, 2),
        b"x",
        0,
    )
    .expect("builds");
    assert!(nic.rx_packet(SimTime::ZERO, &frame).is_ok());
    // Ring now empty: next packet drops, nothing panics.
    assert!(matches!(
        nic.rx_packet(SimTime::from_us(1), &frame),
        Err(RxDrop::NoDescriptor { .. })
    ));
    assert_eq!(nic.stats().rx_no_desc, 1);
}

#[test]
fn endpoint_queue_overflow_spills_to_kernel_not_panic() {
    let mut nic = lb_nic();
    let (ep, _layout) = nic.create_endpoint(ProcessId(1));
    nic.demux_mut().add_endpoint(1, ep).expect("attach");
    nic.create_kernel_endpoint(0);
    nic.push_running(0, Some(ProcessId(1)), SimTime::ZERO);
    use lauberhorn::packet::marshal::{Codec, Value, VarintCodec};
    use lauberhorn::packet::{build_udp_frame, RpcHeader, RpcKind};
    let sig = Signature::of(&[ArgType::Bytes]);
    let payload = VarintCodec
        .encode(&sig, &[Value::Bytes(vec![0; 16])])
        .expect("encodes");
    // Far more requests than the endpoint queue capacity: extras must
    // be queued at kernel endpoints or counted as dropped — never lost
    // silently, never panicking.
    let mut accepted = 0u64;
    for i in 0..500u64 {
        let h = RpcHeader {
            kind: RpcKind::Request,
            service_id: 1,
            method_id: 0,
            request_id: i,
            payload_len: payload.len() as u32,
            cont_hint: 0,
        };
        let raw = build_udp_frame(
            EndpointAddr::host(2, 700),
            EndpointAddr::host(1, 9000),
            &h.encode_message(&payload).expect("sized"),
            0,
        )
        .expect("builds");
        let mut acts = Vec::new();
        nic.on_request_frame(SimTime::from_us(i), &raw, &mut acts);
        if !acts.iter().any(|a| matches!(a, NicAction::Dropped { .. })) {
            accepted += 1;
        }
    }
    let s = nic.stats();
    assert_eq!(accepted + s.dropped, 500);
    assert_eq!(
        s.queued_user + s.queued_kernel + s.fast_path + s.kernel_path + s.dropped,
        500
    );
}

#[test]
fn armed_queue_cap_sheds_at_capacity_without_panic() {
    use lauberhorn::packet::marshal::{Codec, Value, VarintCodec};
    use lauberhorn::packet::{build_udp_frame, RpcHeader, RpcKind};
    use lauberhorn::sim::OverloadConfig;
    // A NIC with overload control armed at a tiny queue cap and no
    // kernel endpoint to spill to: once the endpoint queue is full,
    // every further request must be *shed* (a NACK-able decision, not
    // a panic, and not a silent drop).
    let mut nic = lb_nic();
    let (ep, _layout) = nic.create_endpoint(ProcessId(1));
    nic.demux_mut().add_endpoint(1, ep).expect("attach");
    nic.arm_overload(OverloadConfig::drop_tail(4), &[1]);
    let sig = Signature::of(&[ArgType::Bytes]);
    let payload = VarintCodec
        .encode(&sig, &[Value::Bytes(vec![0; 8])])
        .expect("encodes");
    let mut shed = 0u64;
    for i in 0..64u64 {
        let h = RpcHeader {
            kind: RpcKind::Request,
            service_id: 1,
            method_id: 0,
            request_id: i,
            payload_len: payload.len() as u32,
            cont_hint: 0,
        };
        let raw = build_udp_frame(
            EndpointAddr::host(2, 700),
            EndpointAddr::host(1, 9000),
            &h.encode_message(&payload).expect("sized"),
            0,
        )
        .expect("builds");
        let mut acts = Vec::new();
        nic.on_request_frame(SimTime::from_us(i), &raw, &mut acts);
        shed += acts
            .iter()
            .filter(|a| matches!(a, NicAction::Shed { .. }))
            .count() as u64;
    }
    // The cap admitted a handful; the rest were shed decisions.
    assert!(shed >= 64 - 8, "only {shed} of the overflow was shed");
    let adm = nic.admission().expect("armed");
    assert_eq!(adm.shed_total(), shed, "controller count drifted");
    // Capacity sheds happen *after* the admission gate (the request
    // passed fairness, then found the queue full), so every arrival is
    // admitted here and the shed ledger is entirely capacity refusals.
    assert_eq!(nic.stats().rx_requests, adm.admitted(1));
    assert!(shed <= adm.admitted(1));
}

#[test]
fn shed_counts_reconcile_with_the_driver_digest() {
    use lauberhorn::experiment::{Experiment, StackKind};
    use lauberhorn::experiments::overload;
    // A protected 2x-overload run must account for every request
    // exactly: the client digest (completed + dropped == offered, with
    // every drop explained by a pushback NACK or a give-up) and the
    // NIC ledger (arrivals == admitted + shed; admissions == responses
    // + post-admission deadline sheds) reconcile with no slack.
    let stack = StackKind::LauberhornCxl;
    let cap = overload::calibrate(stack, 21);
    let wl = overload::workload(2.0 * cap, overload::shed_config(), 21);
    let r = Experiment::new(stack)
        .cores(2)
        .services(overload::services())
        .run(&wl);
    assert_eq!(
        r.completed + r.dropped,
        r.offered,
        "requests in flight after the driver drained"
    );
    let c = |name: &str| r.metrics.get_counter(name).unwrap_or(0);
    let pushbacks = c("rpc.overload.pushbacks");
    assert_eq!(
        r.dropped,
        pushbacks + r.faults.retries_exhausted + r.faults.timeouts,
        "a drop was neither NACKed nor timed out"
    );
    let shed = c("nic-lauberhorn.overload.shed");
    assert!(shed > 0, "2x never shed");
    // The NIC ledger: fairness refuses *before* admission; capacity
    // and deadline shed *after* it (the request was admitted, then hit
    // a full queue or went stale). Both books must balance exactly.
    assert_eq!(
        c("nic-lauberhorn.rx.requests"),
        c("nic-lauberhorn.overload.admitted") + c("nic-lauberhorn.overload.shed_fairness"),
        "an arrival was neither admitted nor refused"
    );
    assert_eq!(
        c("nic-lauberhorn.overload.admitted"),
        r.completed
            + c("nic-lauberhorn.overload.shed_capacity")
            + c("nic-lauberhorn.overload.shed_deadline"),
        "an admitted request vanished"
    );
}

#[test]
fn coherence_rejects_misuse_without_corruption() {
    let mut sys = CoherentSystem::new(
        2,
        FabricModel::intra_socket(128),
        FabricModel::eci(),
        0x1_0000_0000,
        0x1_0100_0000,
    );
    let dev = lauberhorn::coherence::LineAddr(0x1_0000_0000);
    // Blind store to a device line: error, state unchanged.
    assert!(sys.store(CacheId(0), dev, b"x").is_err());
    // Stale token after completion: error.
    let LoadResult::Deferred { token, .. } = sys.load(CacheId(0), dev).expect("defers") else {
        unreachable!()
    };
    sys.complete_fill(token, b"ok").expect("fresh");
    assert!(sys.complete_fill(token, b"again").is_err());
    // The line is still usable afterwards.
    assert!(sys.load(CacheId(0), dev).is_ok());
}

#[test]
fn overloaded_open_loop_drops_rather_than_wedges() {
    use lauberhorn::prelude::*;
    // 4x one core's capacity on a single core: the run must finish,
    // with completion+drop accounting for all offered requests the
    // simulation had time to resolve.
    let services = ServiceSpec::uniform(1, 20_000, 32);
    let wl = WorkloadSpec::open_poisson(300_000.0, 1, 0.0, SizeDist::Fixed { bytes: 64 }, 5, 2);
    let r = Experiment::new(StackKind::LauberhornEnzian)
        .cores(1)
        .services(services)
        .run(&wl);
    assert!(r.offered > 1_000);
    // Severe overload: most requests cannot complete; the sim must not
    // hang (reaching here is the assertion) and throughput should be
    // near the service capacity (~100k rps at 20k cycles/2GHz).
    assert!(r.throughput_rps() < 150_000.0);
}

#[test]
fn corrupted_wire_frames_are_rejected_and_counted() {
    use lauberhorn::prelude::*;
    use lauberhorn::rpc::RetryPolicy;
    use lauberhorn::sim::fault::{FaultPlan, FaultSpec};
    // Corruption-only fault plan: the injector flips one bit per
    // selected frame. Every stack must catch the damage via the real
    // IPv4/UDP checksums (or parse failure), count it, and recover the
    // request through retransmission — never execute a mangled frame.
    let mut spec = FaultSpec::loss(0.0);
    spec.corrupt = 0.02;
    let plan = FaultPlan {
        wire_tx: spec,
        wire_rx: FaultSpec::loss(0.0),
        fill: FaultSpec::loss(0.0),
        crash: None,
        nic: None,
        tenant: None,
    };
    for stack in [
        StackKind::LauberhornEnzian,
        StackKind::BypassModern,
        StackKind::KernelModern,
    ] {
        let mut wl =
            WorkloadSpec::open_poisson(60_000.0, 1, 0.0, SizeDist::Fixed { bytes: 64 }, 30, 9);
        wl.warmup = 100;
        let wl = wl.with_faults(plan).with_retry(RetryPolicy::same_rack());
        let r = Experiment::new(stack)
            .cores(2)
            .services(ServiceSpec::uniform(1, 1000, 32))
            .run(&wl);
        let f = &r.faults;
        assert!(f.corrupted > 0, "{stack:?}: injector never corrupted");
        assert!(
            f.checksum_dropped > 0,
            "{stack:?}: corrupt frames never rejected ({f:?})"
        );
        assert_eq!(f.dup_executions, 0, "{stack:?}: corrupt frame executed");
        let frac = r.completed as f64 / r.offered.max(1) as f64;
        assert!(
            frac >= 0.95,
            "{stack:?}: retransmission failed to recover corrupt drops ({frac:.2})"
        );
    }
}

#[test]
fn tryagain_window_boundary_is_exactly_15ms() {
    use lauberhorn::coherence::FillToken;
    use lauberhorn::nic::dispatch::{DispatchKind, DispatchLine};
    use lauberhorn::nic::endpoint::TRYAGAIN_TIMEOUT;
    use lauberhorn::packet::marshal::{Codec, Value, VarintCodec};
    use lauberhorn::packet::{build_udp_frame, RpcHeader, RpcKind};
    use lauberhorn::sim::SimDuration;

    assert_eq!(TRYAGAIN_TIMEOUT, SimDuration::from_ms(15), "paper's window");

    let request = |request_id: u64| {
        let sig = Signature::of(&[ArgType::Bytes]);
        let payload = VarintCodec
            .encode(&sig, &[Value::Bytes(vec![7; 4])])
            .expect("encodes");
        let h = RpcHeader {
            kind: RpcKind::Request,
            service_id: 1,
            method_id: 0,
            request_id,
            payload_len: payload.len() as u32,
            cont_hint: 0,
        };
        build_udp_frame(
            EndpointAddr::host(2, 700),
            EndpointAddr::host(1, 9000),
            &h.encode_message(&payload).expect("sized"),
            0,
        )
        .expect("builds")
    };
    let fill_kind = |actions: &[NicAction]| {
        actions.iter().find_map(|a| match a {
            NicAction::CompleteFill { data, .. } => {
                Some(DispatchLine::decode(data, &[]).expect("decodes").kind)
            }
            _ => None,
        })
    };

    // --- One tick inside the window: the request wins, data arrives.
    let mut nic = lb_nic();
    let (ep, layout) = nic.create_endpoint(ProcessId(1));
    nic.demux_mut().add_endpoint(1, ep).expect("registered");
    let t0 = SimTime::from_us(1);
    let mut acts = Vec::new();
    nic.on_core_load(t0, 0, FillToken(1), layout.ctrl(0), &mut acts);
    let NicAction::ArmTimeout { generation, at, .. } = acts[0] else {
        panic!("park should arm the TRYAGAIN timer, got {acts:?}");
    };
    assert_eq!(at, t0 + TRYAGAIN_TIMEOUT, "deadline drifts off 15 ms");
    let just_inside = SimTime::from_ps(at.as_ps() - 1);
    let mut acts = Vec::new();
    nic.on_request_frame(just_inside, &request(1), &mut acts);
    assert_eq!(fill_kind(&acts), Some(DispatchKind::Rpc));
    // The timer still fires at 15 ms but is now stale: no TRYAGAIN.
    let mut acts = Vec::new();
    nic.on_timeout(at, ep, generation, &mut acts);
    assert!(acts.is_empty(), "stale timer produced {acts:?}");

    // --- Nothing arrives: at exactly 15 ms the core gets TRYAGAIN,
    // drops the line, re-issues the load, and the next request lands
    // in the re-armed window.
    let mut nic = lb_nic();
    let (ep, layout) = nic.create_endpoint(ProcessId(1));
    nic.demux_mut().add_endpoint(1, ep).expect("registered");
    let mut acts = Vec::new();
    nic.on_core_load(t0, 0, FillToken(2), layout.ctrl(0), &mut acts);
    let NicAction::ArmTimeout { generation, at, .. } = acts[0] else {
        panic!("park should arm the TRYAGAIN timer, got {acts:?}");
    };
    let mut acts = Vec::new();
    nic.on_timeout(at, ep, generation, &mut acts);
    assert_eq!(fill_kind(&acts), Some(DispatchKind::TryAgain));
    // After TRYAGAIN the core re-issues on the same parity.
    let reissue = at + SimDuration::from_us(1);
    let mut acts = Vec::new();
    nic.on_core_load(reissue, 0, FillToken(3), layout.ctrl(0), &mut acts);
    assert!(
        matches!(acts[0], NicAction::ArmTimeout { .. }),
        "re-issued load must park again, got {acts:?}"
    );
    let mut acts = Vec::new();
    nic.on_request_frame(reissue + SimDuration::from_us(5), &request(2), &mut acts);
    assert_eq!(
        fill_kind(&acts),
        Some(DispatchKind::Rpc),
        "request after re-park must be delivered"
    );
}

#[test]
fn retransmits_past_the_shed_deadline_are_suppressed_not_fired() {
    use lauberhorn::prelude::*;
    use lauberhorn::rpc::RetryPolicy;
    use lauberhorn::sim::fault::{FaultPlan, FaultSpec};
    use lauberhorn::sim::{OverloadConfig, SimDuration};
    // Backoff-vs-deadline audit: with deadline shedding armed at 100 µs
    // and a budget-less same-rack retry policy (first RTO ~200 µs),
    // every retransmit timer fires after the request is already stale.
    // The server would shed each retransmission at dispatch, so the
    // driver must suppress them at the client — terminal timeouts,
    // counted, with zero wasted retransmissions on the wire.
    let plan = FaultPlan {
        wire_tx: FaultSpec::loss(1.0),
        wire_rx: FaultSpec::loss(0.0),
        fill: FaultSpec::loss(0.0),
        crash: None,
        nic: None,
        tenant: None,
    };
    let mut wl = WorkloadSpec::open_poisson(20_000.0, 1, 0.0, SizeDist::Fixed { bytes: 64 }, 2, 13);
    wl.warmup = 0;
    let wl = wl
        .with_faults(plan)
        .with_retry(RetryPolicy::same_rack())
        .with_overload(OverloadConfig::drop_tail(64).with_deadline(SimDuration::from_us(100)));
    let r = Experiment::new(StackKind::LauberhornEnzian)
        .cores(2)
        .services(ServiceSpec::uniform(1, 1000, 32))
        .run(&wl);
    assert!(r.offered > 10, "load generator never ran");
    assert_eq!(r.completed, 0, "total loss should complete nothing");
    // Every first retransmission was due past the deadline: suppressed
    // as a terminal timeout, never put on the wire.
    assert_eq!(r.faults.retransmits, 0, "stale retransmissions fired");
    assert_eq!(r.faults.retries_exhausted, 0);
    assert_eq!(r.faults.timeouts, r.offered, "a request escaped the audit");
    let suppressed = r
        .metrics
        .get_counter("rpc.retry.deadline_suppressed")
        .unwrap_or(0);
    assert_eq!(suppressed, r.offered, "suppressions not counted");
    assert_eq!(r.completed + r.dropped, r.offered, "requests leaked");
}

#[test]
fn nic_reset_episode_loses_nothing() {
    use lauberhorn::prelude::*;
    use lauberhorn::rpc::RetryPolicy;
    use lauberhorn::sim::fault::{FaultPlan, NicFaultKind};
    use lauberhorn::sim::SimDuration;
    // A full NIC reset strikes mid-run: the watchdog lease expires,
    // the kernel salvages the device's fabric-visible state, rebuilds
    // the endpoint and demux tables from its shadow registry, writes
    // the salvaged protocol state back, and replays the link-paused
    // backlog. Headline claim of the failure-domain design: nothing
    // accepted is ever lost, and nothing runs twice.
    let plan = FaultPlan::nic_fault(NicFaultKind::Reset, SimDuration::from_ms(2));
    let mut wl =
        WorkloadSpec::open_poisson(60_000.0, 2, 0.5, SizeDist::Fixed { bytes: 64 }, 30, 11);
    wl.warmup = 100;
    let wl = wl.with_faults(plan).with_retry(RetryPolicy::same_rack());
    let r = Experiment::new(StackKind::LauberhornEnzian)
        .cores(4)
        .services(ServiceSpec::uniform(2, 1000, 32))
        .run(&wl);
    // The watchdog saw the episode through: detected, reconstructed.
    let g = |k: &str| r.metrics.get_counter(k).unwrap_or(0);
    assert_eq!(g("os.watchdog.resets_recovered"), 1, "reset not recovered");
    assert!(g("os.watchdog.faults_detected") >= 1);
    assert!(
        r.metrics
            .get_gauge("os.watchdog.degraded_us")
            .unwrap_or(0.0)
            > 0.0,
        "degraded window not recorded"
    );
    // The link paused and replayed rather than dropping.
    assert_eq!(g("nic.recovery.backlogged"), g("nic.recovery.replayed"));
    // Nothing lost forever, nothing executed twice.
    assert_eq!(r.faults.dup_executions, 0, "handler ran twice across reset");
    assert_eq!(
        r.completed + r.dropped,
        r.offered,
        "requests vanished across the NIC reset"
    );
    assert_eq!(r.dropped, 0, "reset episode dropped requests");
}
