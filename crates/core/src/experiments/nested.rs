//! Nested RPCs via continuation endpoints (§6), end to end.
//!
//! "Nested RPCs will benefit from the ability to rapidly create a
//! dedicated end-point for an RPC reply. Fine-grained interaction with
//! the NIC should make creating this continuation a cheap operation
//! with significant performance benefits."
//!
//! The script runs a complete nested call on one machine with real
//! frames: service A's handler allocates a continuation, issues a
//! sub-request to service B, and parks on the continuation endpoint;
//! B's reply — a `Response` frame carrying the continuation hint — is
//! dispatched by the NIC straight into A's stalled load, after which A
//! completes and answers the original client.

use lauberhorn_coherence::{CacheId, CoherentSystem, FabricModel, LoadResult};
use lauberhorn_nic::continuation::CONTINUATION_CREATE_COST;
use lauberhorn_nic::dispatch::DispatchLine;
use lauberhorn_nic::endpoint::RequestCtx;
use lauberhorn_nic::nic::NicAction;
use lauberhorn_nic::{LauberhornNic, LauberhornNicConfig};
use lauberhorn_os::ProcessId;
use lauberhorn_packet::frame::EndpointAddr;
use lauberhorn_packet::marshal::{ArgType, Codec, Signature, Value, VarintCodec};
use lauberhorn_packet::{build_udp_frame, RpcHeader, RpcKind};
use lauberhorn_sim::{SimDuration, SimTime};

/// Result of the scripted nested call.
#[derive(Debug, Clone)]
pub struct NestedRun {
    /// Time from A's request delivery to A's handler resuming with B's
    /// reply (the nested round trip through the NIC).
    pub nested_rtt: SimDuration,
    /// Time from the original request's arrival on the wire to A's
    /// response leaving the NIC.
    pub total: SimDuration,
    /// The cost of creating the continuation (from the model).
    pub continuation_create: SimDuration,
    /// Timeline lines for rendering.
    pub timeline: Vec<(SimTime, String)>,
}

fn request_frame(
    from: EndpointAddr,
    to: EndpointAddr,
    service: u16,
    request_id: u64,
    cont_hint: u32,
) -> Vec<u8> {
    let sig = Signature::of(&[ArgType::Bytes]);
    let args = VarintCodec
        .encode(&sig, &[Value::Bytes(vec![0x42; 32])])
        .expect("encodes");
    let header = RpcHeader {
        kind: RpcKind::Request,
        service_id: service,
        method_id: 0,
        request_id,
        payload_len: args.len() as u32,
        cont_hint,
    };
    build_udp_frame(from, to, &header.encode_message(&args).expect("sized"), 0).expect("builds")
}

/// Runs the scripted nested call; panics (test failure) if any protocol
/// step misbehaves.
pub fn run() -> NestedRun {
    let nic_addr = EndpointAddr::host(1, 9000);
    let client_addr = EndpointAddr::host(2, 7000);
    let nic_cfg = LauberhornNicConfig::enzian(nic_addr);
    let base = nic_cfg.device_base;
    let wire = SimDuration::from_ns(400);
    let mut coh = CoherentSystem::new(
        2,
        FabricModel::intra_socket(128),
        FabricModel::eci(),
        base,
        base + (1 << 20),
    );
    let mut nic = LauberhornNic::new(nic_cfg, 2);
    let sig = Signature::of(&[ArgType::Bytes]);
    for (svc, process) in [(1u16, ProcessId(1)), (2u16, ProcessId(2))] {
        nic.demux_mut().register_service(svc, process);
        nic.demux_mut()
            .register_method(svc, 0x1000 + svc as u64, 0x2000, sig.clone())
            .expect("fresh");
    }
    let (ep_a, lay_a) = nic.create_endpoint(ProcessId(1));
    nic.demux_mut().add_endpoint(1, ep_a).expect("attach");
    let (ep_b, lay_b) = nic.create_endpoint(ProcessId(2));
    nic.demux_mut().add_endpoint(2, ep_b).expect("attach");
    // The continuation endpoint A's handler will wait on.
    let (ep_c, lay_c) = nic.create_endpoint(ProcessId(1));

    let mut timeline: Vec<(SimTime, String)> = Vec::new();
    // Parks a core's load and returns the NIC's reaction.
    let park = |coh: &mut CoherentSystem,
                nic: &mut LauberhornNic,
                core: usize,
                addr: lauberhorn_coherence::LineAddr,
                now: SimTime|
     -> (Vec<NicAction>, SimTime) {
        coh.drop_line(CacheId(core), addr);
        let LoadResult::Deferred {
            token,
            request_arrival,
        } = coh.load(CacheId(core), addr).expect("loads")
        else {
            unreachable!("device line defers")
        };
        let seen = now + request_arrival;
        let mut actions = Vec::new();
        nic.on_core_load(seen, core, token, addr, &mut actions);
        (actions, seen)
    };
    // Extracts the fill a batch delivered (completing it in coherence)
    // and returns (decoded line, landing time); collects are returned too.
    type Delivered = (Option<(DispatchLine, SimTime)>, Vec<(RequestCtx, SimTime)>);
    let deliver = |coh: &mut CoherentSystem, actions: Vec<NicAction>| -> Delivered {
        let mut fill = None;
        let mut collects = Vec::new();
        for a in actions {
            match a {
                NicAction::CompleteFill { token, data, at } => {
                    let (_, _, lat) = coh.complete_fill(token, &data).expect("fresh");
                    let line = DispatchLine::decode(&data, &[]).expect("decodes");
                    fill = Some((line, at + lat));
                }
                NicAction::CollectAndTransmit { line, ctx, at } => {
                    let (_, lat) = coh.device_fetch_exclusive(line);
                    collects.push((ctx, at + lat));
                }
                NicAction::ArmTimeout { .. } => {}
                other => panic!("unexpected action: {other:?}"),
            }
        }
        (fill, collects)
    };

    // --- Both cores park on their service endpoints. ---
    let t0 = SimTime::ZERO;
    let (a0, _) = park(&mut coh, &mut nic, 0, lay_a.ctrl(0), t0);
    assert!(matches!(a0[0], NicAction::ArmTimeout { .. }));
    let (b0, _) = park(&mut coh, &mut nic, 1, lay_b.ctrl(0), t0);
    assert!(matches!(b0[0], NicAction::ArmTimeout { .. }));
    timeline.push((t0, "cores 0 and 1 parked on services A and B".into()));

    // --- The original request for A arrives. ---
    let arrival = t0 + SimDuration::from_us(2);
    let mut actions = Vec::new();
    nic.on_request_frame(
        arrival,
        &request_frame(client_addr, nic_addr, 1, 0xA11, 0),
        &mut actions,
    );
    let (fill, _) = deliver(&mut coh, actions);
    let (line, a_start) = fill.expect("A delivered");
    assert_eq!(line.request_id, 0xA11);
    timeline.push((a_start, "A's handler starts (fast path)".into()));

    // --- A's handler allocates a continuation and calls B. ---
    let hint = nic
        .continuations_mut()
        .create(ep_c, ProcessId(1), true)
        .expect("table has room");
    let t_cont = a_start + CONTINUATION_CREATE_COST;
    timeline.push((
        t_cont,
        format!("continuation {hint} created ({CONTINUATION_CREATE_COST})"),
    ));
    // The nested request loops back through the NIC (self-addressed).
    let nested = request_frame(nic_addr, nic_addr, 2, 0xB22, hint);
    let t_nested_sent = t_cont + SimDuration::from_ns(200); // Marshal + doorbell-free tx.
    let mut actions = Vec::new();
    nic.on_request_frame(t_nested_sent + wire, &nested, &mut actions);
    let (fill, _) = deliver(&mut coh, actions);
    let (bline, b_start) = fill.expect("B delivered");
    assert_eq!(bline.request_id, 0xB22);
    timeline.push((b_start, "B's handler starts (fast path)".into()));
    // Meanwhile A parks on the continuation endpoint.
    let (c_actions, _) = park(&mut coh, &mut nic, 0, lay_c.ctrl(0), t_nested_sent);
    let (cfill, collects) = deliver(&mut coh, c_actions);
    assert!(cfill.is_none(), "nothing to deliver yet");
    // A's load on a *different* endpoint is NOT a completion signal for
    // its in-progress request (cross-endpoint collection only triggers
    // after the response is written); the NIC must not have collected.
    assert!(collects.is_empty(), "premature collection: {collects:?}");

    // --- B finishes; its response is routed via the continuation. ---
    let b_done = b_start + SimDuration::from_us(1);
    coh.store(CacheId(1), lay_b.ctrl(0), b"B-result")
        .expect("held E");
    let (b_next, _) = park(&mut coh, &mut nic, 1, lay_b.ctrl(1), b_done);
    let (_, collects) = deliver(&mut coh, b_next);
    assert_eq!(collects.len(), 1, "B's response collected");
    let (bctx, b_tx) = &collects[0];
    assert_eq!(bctx.request_id, 0xB22);
    assert_eq!(bctx.cont_hint, hint, "reply carries the hint");
    timeline.push((
        *b_tx,
        "B's response collected; routed via continuation".into(),
    ));
    // The reply frame (self-addressed) re-enters the NIC.
    let mut reply = Vec::new();
    nic.build_response_frame(bctx, b"B-result", &mut reply)
        .expect("response fits a UDP frame");
    let mut actions = Vec::new();
    nic.on_request_frame(*b_tx + wire, &reply, &mut actions);
    let (fill, _) = deliver(&mut coh, actions);
    let (rline, a_resume) = fill.expect("reply dispatched into A's continuation load");
    assert_eq!(rline.request_id, 0xB22);
    assert_eq!(&rline.args[..8], b"B-result");
    timeline.push((a_resume, "A resumes with B's reply in registers".into()));

    // --- A completes and answers the original client. ---
    let a_done = a_resume + SimDuration::from_ns(500);
    coh.store(CacheId(0), lay_a.ctrl(0), b"A-result")
        .expect("held E");
    let (a_next, _) = park(&mut coh, &mut nic, 0, lay_a.ctrl(1), a_done);
    let (_, collects) = deliver(&mut coh, a_next);
    assert_eq!(collects.len(), 1, "A's response collected");
    let (actx, a_tx) = &collects[0];
    assert_eq!(actx.request_id, 0xA11);
    assert_eq!(actx.client, client_addr);
    timeline.push((*a_tx, "A's response transmitted to the client".into()));

    NestedRun {
        nested_rtt: a_resume.since(t_cont),
        total: a_tx.since(arrival),
        continuation_create: CONTINUATION_CREATE_COST,
        timeline,
    }
}

/// Renders the run.
pub fn render(r: &NestedRun) -> String {
    let mut out = String::from("Nested RPC via continuation endpoints (§6)\n\n");
    let mut lines = r.timeline.clone();
    lines.sort_by_key(|(t, _)| *t);
    for (t, what) in &lines {
        out.push_str(&format!("[{:>12}] {}\n", format!("{t}"), what));
    }
    out.push_str(&format!(
        "\nnested call round trip (A's view): {}\ntotal client-visible time:         {}\ncontinuation creation cost:        {}\n",
        r.nested_rtt, r.total, r.continuation_create
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_call_completes_end_to_end() {
        let r = run();
        // The nested round trip costs a few µs on Enzian parameters.
        assert!(r.nested_rtt > SimDuration::from_us(1));
        assert!(r.nested_rtt < SimDuration::from_us(20), "{}", r.nested_rtt);
        assert!(r.total > r.nested_rtt);
    }

    #[test]
    fn continuation_is_a_small_fraction_of_the_call() {
        let r = run();
        // §6's point: creating the continuation is cheap relative to
        // the nested call it serves.
        assert!(
            r.continuation_create.as_ns_f64() * 10.0 < r.nested_rtt.as_ns_f64(),
            "create {} vs rtt {}",
            r.continuation_create,
            r.nested_rtt
        );
    }

    #[test]
    fn render_shows_the_continuation_flow() {
        let s = render(&run());
        for kw in ["continuation", "A resumes", "B's response"] {
            assert!(s.contains(kw), "missing {kw}");
        }
    }
}
