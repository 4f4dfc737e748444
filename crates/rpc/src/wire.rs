//! Client-side frame construction and the network model.
//!
//! Clients are modelled as remote machines that build *real* request
//! frames (varint-marshalled arguments under the RPC wire header,
//! inside checksummed Eth/IPv4/UDP) and receive real response frames.
//! The wire adds a configurable one-way latency plus serialization at
//! line rate.

use lauberhorn_packet::frame::{EndpointAddr, FRAME_OVERHEAD};
use lauberhorn_packet::marshal::{bytes_arg_prefix_len, put_bytes_arg_prefix};
use lauberhorn_packet::{
    fill_udp_headers, parse_udp_frame_ref, PacketError, RpcHeader, RpcKind, RPC_HEADER_LEN,
};
use lauberhorn_sim::{SimDuration, SimTime};

/// The network between client and server.
#[derive(Debug, Clone, Copy)]
pub struct WireModel {
    /// One-way propagation + switching latency.
    pub one_way: SimDuration,
    /// Link rate in bits per second (serialization delay).
    pub gbps: f64,
}

impl WireModel {
    /// A same-rack 100 Gb/s network (the paper's Enzian testbed class).
    pub fn same_rack_100g() -> Self {
        WireModel {
            one_way: SimDuration::from_ns(350),
            gbps: 100.0,
        }
    }

    /// Time for `bytes` to arrive at the far end.
    pub fn deliver(&self, bytes: usize) -> SimDuration {
        self.one_way + SimDuration::from_ns_f64(bytes as f64 * 8.0 / self.gbps)
    }
}

/// Client-side retransmission policy: exponential backoff with
/// jitter, bounded attempts.
///
/// The retransmit timer for attempt `k` (1-based; attempt 1 is the
/// original transmission) is `timeout * backoff^(k-1)`, jittered by
/// up to `±jitter_frac` of itself from the driver's dedicated
/// `"retry"` RNG stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Initial retransmission timeout.
    pub timeout: SimDuration,
    /// Multiplier applied per retransmission.
    pub backoff: f64,
    /// Uniform jitter as a fraction of the current timeout.
    pub jitter_frac: f64,
    /// Total transmissions allowed (including the first). After the
    /// last timer fires unanswered, the request counts as dropped.
    pub max_attempts: u32,
    /// Wall-clock retry budget measured from the first transmission.
    /// When a retransmit timer fires past this budget the request
    /// terminates as a `Timeout` (counted in
    /// `FaultCounters::timeouts`) instead of spinning at max backoff
    /// until `max_attempts` runs out. `None` keeps the attempt bound
    /// as the only terminator.
    pub budget: Option<SimDuration>,
}

impl RetryPolicy {
    /// A policy sized for the simulated same-rack RTTs (tens of µs):
    /// 200 µs initial RTO, doubling, ±10 % jitter, 4 transmissions.
    pub fn same_rack() -> Self {
        RetryPolicy {
            timeout: SimDuration::from_us(200),
            backoff: 2.0,
            jitter_frac: 0.1,
            max_attempts: 4,
            budget: None,
        }
    }

    /// A "detect only" policy: one transmission, whose timer merely
    /// lets the driver account a lost request as dropped. Used when
    /// faults are enabled but the workload opted out of retries.
    pub fn give_up_after(timeout: SimDuration) -> Self {
        RetryPolicy {
            timeout,
            backoff: 1.0,
            jitter_frac: 0.0,
            max_attempts: 1,
            budget: None,
        }
    }

    /// Bounds total retry time: see [`RetryPolicy::budget`].
    pub fn with_budget(mut self, budget: SimDuration) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Whether a retransmit timer firing at `now` for a request first
    /// sent at `sent` has exhausted the retry budget.
    pub fn budget_exhausted(&self, sent: SimTime, now: SimTime) -> bool {
        match self.budget {
            Some(b) => now.since(sent) > b,
            None => false,
        }
    }

    /// The un-jittered retransmission timeout for 1-based `attempt`.
    pub fn rto(&self, attempt: u32) -> SimDuration {
        let scale = self.backoff.powi(attempt.saturating_sub(1) as i32);
        SimDuration::from_ns_f64(self.timeout.as_ns_f64() * scale)
    }
}

/// Writes a request frame for the uniform `\[Bytes\]` benchmark
/// signature into `out` in one pass, replacing its contents: header
/// space, the RPC header, the argument's varint prefix, then the
/// `payload_len` bytes that `payload` appends, before the Eth/IPv4/UDP
/// headers and checksums are filled in place. The bytes equal the
/// varint codec's encoding under [`RpcHeader::encode_message`] inside
/// `build_udp_frame`. `header.payload_len` is set here; the IPv4
/// identification is the request id's low 16 bits.
///
/// The exact frame length is reserved first, so a recycled buffer of
/// that capacity is rewritten without allocating. `payload` always
/// runs, even when the frame then fails to build (a payload too large
/// for a UDP datagram, or `payload` appending the wrong length).
pub(crate) fn write_request(
    client: EndpointAddr,
    server: EndpointAddr,
    header: RpcHeader,
    payload_len: usize,
    out: &mut Vec<u8>,
    payload: impl FnOnce(&mut Vec<u8>),
) -> Result<(), PacketError> {
    let args_len = bytes_arg_prefix_len(payload_len) + payload_len;
    let frame_len = FRAME_OVERHEAD + RPC_HEADER_LEN + args_len;
    out.clear();
    out.reserve_exact(frame_len);
    out.resize(FRAME_OVERHEAD + RPC_HEADER_LEN, 0);
    put_bytes_arg_prefix(out, payload_len);
    payload(out);
    let bad_len = PacketError::BadField {
        layer: "rpc",
        field: "payload_len",
    };
    if out.len() != frame_len {
        return Err(bad_len);
    }
    let header = RpcHeader {
        payload_len: u32::try_from(args_len).map_err(|_| bad_len)?,
        ..header
    };
    header.write(out.get_mut(FRAME_OVERHEAD..).unwrap_or_default())?;
    fill_udp_headers(client, server, header.request_id as u16, out)
}

/// Parses a response frame, returning `(request_id, payload_len)`.
pub fn parse_response(raw: &[u8]) -> Option<(u64, usize)> {
    let frame = parse_udp_frame_ref(raw).ok()?;
    let (h, payload) = RpcHeader::decode_message(frame.payload).ok()?;
    (h.kind == RpcKind::Response).then_some((h.request_id, payload.len()))
}

/// A pending request's timestamps, for latency accounting.
#[derive(Debug, Clone, Copy, Default)]
pub struct RequestTimes {
    /// Client issued (frame left the client).
    pub sent: SimTime,
    /// Frame reached the server NIC.
    pub nic_arrival: SimTime,
    /// Dispatch line (or software delivery) reached the handler.
    pub handler_start: SimTime,
    /// Handler finished; response written.
    pub handler_end: SimTime,
    /// Response left the server NIC.
    pub response_tx: SimTime,
}

impl RequestTimes {
    /// Server end-system latency: NIC arrival to response leaving,
    /// minus nothing — the paper's end-system metric includes NIC
    /// processing, dispatch and the handler.
    pub fn end_system(&self) -> SimDuration {
        self.response_tx.since(self.nic_arrival)
    }

    /// Dispatch latency: NIC arrival to handler start (the cost of
    /// steps 1–9 of §2, however they are split).
    pub fn dispatch(&self) -> SimDuration {
        self.handler_start.since(self.nic_arrival)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use lauberhorn_packet::build_udp_frame;
    use lauberhorn_packet::marshal::{ArgType, Codec, Signature, Value, VarintCodec};
    use lauberhorn_sim::SimRng;

    fn request_header(service_id: u16, request_id: u64) -> RpcHeader {
        RpcHeader {
            kind: RpcKind::Request,
            service_id,
            method_id: 0,
            request_id,
            payload_len: 0,
            cont_hint: 0,
        }
    }

    fn ping() -> Vec<u8> {
        let mut out = Vec::new();
        write_request(
            EndpointAddr::host(1, 100),
            EndpointAddr::host(2, 200),
            request_header(7, 42),
            4,
            &mut out,
            |o| o.extend_from_slice(b"ping"),
        )
        .unwrap();
        out
    }

    #[test]
    fn request_builds_and_parses_as_frame() {
        let raw = ping();
        let frame = parse_udp_frame_ref(&raw).unwrap();
        let (h, _) = RpcHeader::decode_message(frame.payload).unwrap();
        assert_eq!(h.kind, RpcKind::Request);
        assert_eq!(h.service_id, 7);
        assert_eq!(h.request_id, 42);
    }

    #[test]
    fn response_parse_rejects_requests() {
        assert!(parse_response(&ping()).is_none());
    }

    /// The one-pass writer against the codec composition it replaces,
    /// across every varint length boundary of the argument prefix.
    #[test]
    fn one_pass_frame_equals_the_codec_composition() {
        let mut rng = SimRng::stream(15, "wire-reference");
        let sig = Signature::of(&[ArgType::Bytes]);
        // One buffer for every frame, as the driver's recycled ones.
        let mut out = Vec::new();
        for len in [0, 1, 127, 128, 129, 16383, 16384, 16385, 57_344] {
            for _ in 0..3 {
                let request_id = rng.gen_u64();
                let service = rng.gen_u64() as u16;
                let client = EndpointAddr::host(rng.gen_range(1..1000) as u32, 7000);
                let server = EndpointAddr::host(2, 9000u16.wrapping_add(service));
                let mut payload = vec![0; len];
                rng.fill_bytes(&mut payload);
                let header = request_header(service, request_id);
                let args = VarintCodec
                    .encode(&sig, &[Value::Bytes(payload.clone())])
                    .unwrap();
                let msg = RpcHeader {
                    payload_len: args.len() as u32,
                    ..header
                }
                .encode_message(&args)
                .unwrap();
                let reference = build_udp_frame(client, server, &msg, request_id as u16).unwrap();
                write_request(client, server, header, len, &mut out, |o| {
                    o.extend_from_slice(&payload)
                })
                .unwrap();
                assert_eq!(out, reference, "payload of {len} bytes");
                // Rewriting a frame of the same length reuses the bytes.
                let at = out.as_ptr();
                write_request(client, server, header, len, &mut out, |o| {
                    o.extend_from_slice(&payload)
                })
                .unwrap();
                assert_eq!(out.as_ptr(), at);
                assert_eq!(out, reference);
            }
        }
    }

    /// The driver's request digest absorbs the payload inside
    /// `payload`, so it must run even when the frame is refused.
    #[test]
    fn payload_runs_even_when_the_frame_cannot_be_built() {
        let (client, server) = (EndpointAddr::host(1, 100), EndpointAddr::host(2, 200));
        let mut out = Vec::new();
        let mut appended = 0;
        let too_big = usize::from(u16::MAX);
        let r = write_request(
            client,
            server,
            request_header(1, 1),
            too_big,
            &mut out,
            |o| {
                o.resize(o.len() + too_big, 1);
                appended = too_big;
            },
        );
        assert!(r.is_err());
        assert_eq!(appended, too_big);
        // A payload of the wrong length is refused too.
        let r = write_request(client, server, request_header(1, 2), 10, &mut out, |o| {
            o.push(0)
        });
        assert!(r.is_err());
    }

    #[test]
    fn wire_latency_scales_with_size() {
        let w = WireModel::same_rack_100g();
        let small = w.deliver(64);
        let big = w.deliver(64 * 1024);
        assert!(big > small);
        // 64 KiB at 100 Gb/s is ~5.2 µs of serialization.
        assert!(big - small > SimDuration::from_us(5));
        assert!(big - small < SimDuration::from_us(6));
    }

    #[test]
    fn rto_backs_off_exponentially() {
        let p = RetryPolicy::same_rack();
        assert_eq!(p.rto(1), p.timeout);
        assert_eq!(p.rto(2).as_ns_f64(), p.timeout.as_ns_f64() * 2.0);
        assert_eq!(p.rto(3).as_ns_f64(), p.timeout.as_ns_f64() * 4.0);
        let flat = RetryPolicy::give_up_after(SimDuration::from_ms(1));
        assert_eq!(flat.rto(5), SimDuration::from_ms(1));
        assert_eq!(flat.max_attempts, 1);
    }

    #[test]
    fn retry_budget_bounds_total_retry_time() {
        let p = RetryPolicy::same_rack().with_budget(SimDuration::from_ms(1));
        let sent = SimTime::from_us(100);
        assert!(!p.budget_exhausted(sent, sent + SimDuration::from_us(999)));
        assert!(!p.budget_exhausted(sent, sent + SimDuration::from_ms(1)));
        assert!(p.budget_exhausted(sent, sent + SimDuration::from_us(1001)));
        // No budget: never exhausted, however long it spins.
        let free = RetryPolicy::same_rack();
        assert!(!free.budget_exhausted(sent, sent + SimDuration::from_secs(1)));
    }

    #[test]
    fn latency_accessors() {
        let t = RequestTimes {
            sent: SimTime::from_us(0),
            nic_arrival: SimTime::from_us(1),
            handler_start: SimTime::from_us(2),
            handler_end: SimTime::from_us(3),
            response_tx: SimTime::from_us(4),
        };
        assert_eq!(t.end_system(), SimDuration::from_us(3));
        assert_eq!(t.dispatch(), SimDuration::from_us(1));
    }
}
