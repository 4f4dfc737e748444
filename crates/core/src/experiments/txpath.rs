//! Extension experiment: Lauberhorn on *both* ends of the wire.
//!
//! The paper focuses on the receive path but notes that "the transmit
//! path uses a similar, disjoint set of cache lines" (§5.1). This
//! script runs one complete RPC where the client machine submits its
//! request through the TX cache-line protocol (write the TX-CONTROL
//! line, load the other line as doorbell+credit) and the server
//! machine dispatches it through the RX protocol — then compares the
//! submit cost against the DMA descriptor path the client would
//! otherwise use.

use lauberhorn_coherence::{CacheId, CoherentSystem, FabricModel, LoadResult};
use lauberhorn_nic::dispatch::DispatchLine;
use lauberhorn_nic::endpoint::EndpointLayout;
use lauberhorn_nic::nic::NicAction;
use lauberhorn_nic::tx::{TxEffect, TxEndpoint, TxLine};
use lauberhorn_nic::{LauberhornNic, LauberhornNicConfig};
use lauberhorn_os::ProcessId;
use lauberhorn_packet::frame::EndpointAddr;
use lauberhorn_packet::marshal::{ArgType, Codec, Signature, Value, VarintCodec};
use lauberhorn_packet::{build_udp_frame, RpcHeader, RpcKind};
use lauberhorn_pcie::PcieLink;
use lauberhorn_sim::{SimDuration, SimTime};

/// Result of the scripted two-machine RPC.
#[derive(Debug, Clone)]
pub struct TxPathRun {
    /// Client-side submit cost: TX line write + doorbell load +
    /// fetch-exclusive (the coherence path).
    pub tx_submit: SimDuration,
    /// The same submission through a DMA NIC (descriptor + doorbell +
    /// two device reads), for comparison.
    pub dma_submit: SimDuration,
    /// Full client-observed RTT, both machines on the line protocol.
    pub rtt: SimDuration,
    /// Timeline for rendering.
    pub timeline: Vec<(SimTime, &'static str, String)>,
}

/// Runs the scripted exchange.
pub fn run() -> TxPathRun {
    let client_addr = EndpointAddr::host(2, 7000);
    let server_addr = EndpointAddr::host(1, 9000);
    let wire = SimDuration::from_ns(350);
    let mut timeline: Vec<(SimTime, &'static str, String)> = Vec::new();

    // --- Client machine: a coherent domain + a TX endpoint. ---
    let client_cfg = LauberhornNicConfig::enzian(client_addr);
    let cbase = client_cfg.device_base;
    let mut ccoh = CoherentSystem::new(
        1,
        FabricModel::intra_socket(128),
        FabricModel::eci(),
        cbase,
        cbase + (1 << 20),
    );
    let tx_layout = EndpointLayout {
        base: lauberhorn_coherence::LineAddr(cbase),
        line_size: 128,
        n_aux: 2,
    };
    let mut tx = TxEndpoint::new(tx_layout);
    let eci = FabricModel::eci();

    // --- Server machine: the full Lauberhorn NIC. ---
    let server_cfg = LauberhornNicConfig::enzian(server_addr);
    let sbase = server_cfg.device_base;
    let mut scoh = CoherentSystem::new(
        1,
        FabricModel::intra_socket(128),
        FabricModel::eci(),
        sbase,
        sbase + (1 << 20),
    );
    let mut snic = LauberhornNic::new(server_cfg, 1);
    snic.demux_mut().register_service(1, ProcessId(1));
    snic.demux_mut()
        .register_method(1, 0xC0DE, 0xDA7A, Signature::of(&[ArgType::Bytes]))
        .expect("fresh");
    let (ep, slayout) = snic.create_endpoint(ProcessId(1));
    snic.demux_mut().add_endpoint(1, ep).expect("attach");
    // Server core parks.
    let LoadResult::Deferred {
        token: stoken,
        request_arrival,
    } = scoh.load(CacheId(0), slayout.ctrl(0)).expect("loads")
    else {
        unreachable!("device line defers")
    };
    snic.on_core_load(
        SimTime::ZERO + request_arrival,
        0,
        stoken,
        slayout.ctrl(0),
        &mut Vec::new(),
    );
    timeline.push((
        SimTime::ZERO,
        "server",
        "core parked on service endpoint".into(),
    ));

    // --- 1. Client core writes the request into its TX line. ---
    let t0 = SimTime::from_us(1);
    let sig = Signature::of(&[ArgType::Bytes]);
    let args = VarintCodec
        .encode(&sig, &[Value::Bytes(vec![0x42; 48])])
        .expect("encodes");
    let txl = TxLine {
        dst_ip: server_addr.ip,
        dst_port: server_addr.port,
        service_id: 1,
        method_id: 0,
        request_id: 0xF00D,
        cont_hint: 0,
        args: args.clone(),
    };
    let (ctrl_bytes, _aux) = txl.encode(128).expect("fits");
    // The core was granted TX-CONTROL[0] at setup: take it through the
    // protocol (one fill), then writes are local.
    let wline = tx_layout.ctrl(tx.write_line());
    let LoadResult::Deferred { token, .. } = ccoh.load(CacheId(0), wline).expect("loads") else {
        unreachable!("device line defers")
    };
    ccoh.complete_fill(token, &[]).expect("granted");
    ccoh.store(CacheId(0), wline, &ctrl_bytes).expect("held E");
    let t_written = t0 + SimDuration::from_ns(20);
    timeline.push((
        t_written,
        "client",
        "request written into TX-CONTROL[0]".into(),
    ));

    // --- 2. Doorbell: load the other TX line. ---
    let dline = tx_layout.ctrl(1 - tx.write_line());
    ccoh.drop_line(CacheId(0), dline);
    let LoadResult::Deferred {
        token: dtoken,
        request_arrival,
    } = ccoh.load(CacheId(0), dline).expect("loads")
    else {
        unreachable!("device line defers")
    };
    let t_doorbell = t_written + request_arrival;
    let fx = tx.on_doorbell_load(dtoken, true);
    let mut t_sent = t_doorbell;
    #[allow(unused_assignments)] // Recorded for the timeline only.
    let mut credit_at = t_doorbell;
    for f in fx {
        match f {
            TxEffect::FetchAndSend { line } => {
                let (data, lat) = ccoh.device_fetch_exclusive(line);
                let parsed = TxLine::decode(&data, &[]).expect("round-trips");
                assert_eq!(parsed.request_id, 0xF00D);
                assert_eq!(parsed.args, args);
                t_sent = t_doorbell + lat;
                timeline.push((
                    t_sent,
                    "client",
                    "NIC fetch-exclusived the TX line; frame on the wire".into(),
                ));
            }
            TxEffect::Credit { token } => {
                let (_, _, lat) = ccoh.complete_fill(token, &[]).expect("fresh");
                credit_at = t_doorbell + lat;
                timeline.push((credit_at, "client", "send credit returned".into()));
                let _ = credit_at;
            }
            TxEffect::Backpressure => unreachable!("queue not full"),
        }
    }
    let tx_submit = t_sent.since(t_written);

    // --- 3. The frame crosses the wire; the server dispatches. ---
    let header = RpcHeader {
        kind: RpcKind::Request,
        service_id: 1,
        method_id: 0,
        request_id: 0xF00D,
        payload_len: args.len() as u32,
        cont_hint: 0,
    };
    let frame = build_udp_frame(
        client_addr,
        server_addr,
        &header.encode_message(&args).expect("sized"),
        0,
    )
    .expect("builds");
    let t_arrive = t_sent + wire;
    let mut actions = Vec::new();
    snic.on_request_frame(t_arrive, &frame, &mut actions);
    let mut t_deliver = t_arrive;
    for a in actions {
        if let NicAction::CompleteFill { token, data, at } = a {
            let (_, _, lat) = scoh.complete_fill(token, &data).expect("fresh");
            let line = DispatchLine::decode(&data, &[]).expect("decodes");
            assert_eq!(line.request_id, 0xF00D);
            t_deliver = at + lat;
            timeline.push((
                t_deliver,
                "server",
                "request in the core's registers".into(),
            ));
        }
    }
    // Handler + response + collection.
    let t_done = t_deliver + SimDuration::from_ns(500);
    scoh.store(CacheId(0), slayout.ctrl(0), b"pong")
        .expect("held E");
    scoh.drop_line(CacheId(0), slayout.ctrl(1));
    let LoadResult::Deferred {
        token: t2,
        request_arrival,
    } = scoh.load(CacheId(0), slayout.ctrl(1)).expect("loads")
    else {
        unreachable!("device line defers")
    };
    let mut actions = Vec::new();
    snic.on_core_load(
        t_done + request_arrival,
        0,
        t2,
        slayout.ctrl(1),
        &mut actions,
    );
    let mut t_resp_tx = t_done;
    for a in actions {
        if let NicAction::CollectAndTransmit { line, ctx, at } = a {
            let (_, lat) = scoh.device_fetch_exclusive(line);
            assert_eq!(ctx.request_id, 0xF00D);
            t_resp_tx = at + lat;
            timeline.push((
                t_resp_tx,
                "server",
                "response collected and transmitted".into(),
            ));
        }
    }
    // Response crosses back; the client receives it on its RX endpoint
    // (one fill into a parked load — same as the server side).
    let t_back = t_resp_tx + wire + eci.data_lat;
    timeline.push((
        t_back,
        "client",
        "response in the client core's registers".into(),
    ));
    let rtt = t_back.since(t_written);

    // --- DMA comparison for the same submission. ---
    let link = PcieLink::enzian_fpga();
    let dma_submit = link.mmio_write_cpu
        + link.mmio_write_delivery
        + link.dma_read_time(16)
        + link.dma_read_time(frame.len());

    TxPathRun {
        tx_submit,
        dma_submit,
        rtt,
        timeline,
    }
}

/// Renders the run.
pub fn render(r: &TxPathRun) -> String {
    let mut out = String::from("TX path — Lauberhorn on both ends (§5.1)\n\n");
    let mut lines = r.timeline.clone();
    lines.sort_by_key(|(t, _, _)| *t);
    for (t, who, what) in &lines {
        out.push_str(&format!("[{:>12}] {:<7} {}\n", format!("{t}"), who, what));
    }
    out.push_str(&format!(
        "\nclient submit via TX cache lines: {}\nsame submit via DMA descriptors:  {}\nfull coherent-to-coherent RTT:    {}\n",
        r.tx_submit, r.dma_submit, r.rtt
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tx_submit_beats_dma_submit() {
        let r = run();
        assert!(
            r.tx_submit < r.dma_submit,
            "tx {} !< dma {}",
            r.tx_submit,
            r.dma_submit
        );
    }

    #[test]
    fn coherent_rtt_is_microseconds() {
        let r = run();
        assert!(r.rtt > SimDuration::from_us(1));
        assert!(r.rtt < SimDuration::from_us(10), "{}", r.rtt);
    }

    #[test]
    fn render_shows_both_machines() {
        let s = render(&run());
        assert!(s.contains("client"));
        assert!(s.contains("server"));
        assert!(s.contains("TX cache lines"));
    }
}
