//! Randomized tests for the packet formats: round-trips hold for
//! arbitrary inputs, and corruption never passes verification silently
//! where a checksum covers it.
//!
//! Deterministic in-tree replacement for an external property-testing
//! framework: cases are generated from a seeded SplitMix64 stream.

use lauberhorn_packet::frame::{build_udp_frame, parse_udp_frame, EndpointAddr};
use lauberhorn_packet::marshal::{
    dispatch_form_len, transform_to_dispatch_form, ArgType, Codec, FixedCodec, Signature, Value,
    VarintCodec,
};
use lauberhorn_packet::{PacketError, RpcHeader, RpcKind};

/// Deterministic SplitMix64 (the packet crate has no RNG dependency).
struct TestRng(u64);

impl TestRng {
    fn new(seed: u64) -> Self {
        TestRng(seed)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    fn bytes(&mut self, len: usize) -> Vec<u8> {
        (0..len).map(|_| self.next() as u8).collect()
    }
}

fn arb_value(rng: &mut TestRng) -> Value {
    match rng.below(5) {
        0 => Value::U64(rng.next()),
        1 => Value::I64(rng.next() as i64),
        2 => Value::Bool(rng.below(2) == 1),
        3 => {
            let len = rng.below(200) as usize;
            Value::Bytes(rng.bytes(len))
        }
        _ => {
            const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJ0123456789 ";
            let len = rng.below(65) as usize;
            Value::Str(
                (0..len)
                    .map(|_| ALPHABET[rng.below(ALPHABET.len() as u64) as usize] as char)
                    .collect(),
            )
        }
    }
}

fn arb_args(rng: &mut TestRng) -> Vec<Value> {
    let n = rng.below(8) as usize;
    (0..n).map(|_| arb_value(rng)).collect()
}

fn signature_of(args: &[Value]) -> Signature {
    Signature(args.iter().map(|v| v.arg_type()).collect())
}

#[test]
fn fixed_codec_round_trips() {
    for case in 0..256 {
        let mut rng = TestRng::new(case);
        let args = arb_args(&mut rng);
        let sig = signature_of(&args);
        let enc = FixedCodec.encode(&sig, &args).unwrap();
        assert_eq!(FixedCodec.decode(&sig, &enc).unwrap(), args);
    }
}

#[test]
fn varint_codec_round_trips() {
    for case in 0..256 {
        let mut rng = TestRng::new(1000 + case);
        let args = arb_args(&mut rng);
        let sig = signature_of(&args);
        let enc = VarintCodec.encode(&sig, &args).unwrap();
        assert_eq!(VarintCodec.decode(&sig, &enc).unwrap(), args);
    }
}

#[test]
fn nic_transform_equals_software_path() {
    for case in 0..256 {
        let mut rng = TestRng::new(2000 + case);
        let args = arb_args(&mut rng);
        // The deserialization offload must agree with decode+encode.
        let sig = signature_of(&args);
        let wire = VarintCodec.encode(&sig, &args).unwrap();
        let transformed = transform_to_dispatch_form(&sig, &wire).unwrap();
        assert_eq!(transformed, FixedCodec.encode(&sig, &args).unwrap());
    }
}

fn arb_signature(rng: &mut TestRng) -> Signature {
    let n = rng.below(6) as usize;
    Signature(
        (0..n)
            .map(|_| match rng.below(5) {
                0 => ArgType::U64,
                1 => ArgType::I64,
                2 => ArgType::Bool,
                3 => ArgType::Bytes,
                _ => ArgType::Str,
            })
            .collect(),
    )
}

/// Offset of argument `i`'s tag in the varint encoding of `args`: the
/// encoding of a prefix of the arguments is a prefix of the encoding.
fn tag_offset(args: &[Value], i: usize) -> usize {
    let prefix = &args[..i];
    VarintCodec
        .encode(&signature_of(prefix), prefix)
        .unwrap()
        .len()
}

/// A copy of `wire` damaged in one of the ways a malformed request can
/// be: truncated, a wrong field number or wire type, a bool above 1,
/// invalid UTF-8, an overlong varint, or trailing bytes. Tags are one
/// byte (fewer than 16 arguments).
fn mutate(rng: &mut TestRng, args: &[Value], wire: &[u8]) -> Vec<u8> {
    let mut w = wire.to_vec();
    let pick = |rng: &mut TestRng, want: fn(&Value) -> bool| {
        let idx: Vec<usize> = (0..args.len()).filter(|&i| want(&args[i])).collect();
        (!idx.is_empty()).then(|| idx[rng.below(idx.len() as u64) as usize])
    };
    match rng.below(7) {
        0 if !w.is_empty() => w.truncate(rng.below(w.len() as u64) as usize),
        1 => {
            if let Some(i) = pick(rng, |_| true) {
                let at = tag_offset(args, i);
                let field = 1 + (i as u64 + 1 + rng.below(14)) % 15;
                w[at] = (field << 3) as u8 | (w[at] & 0x7);
            }
        }
        2 => {
            if let Some(i) = pick(rng, |_| true) {
                let at = tag_offset(args, i);
                w[at] ^= 1 + rng.below(7) as u8;
            }
        }
        3 => {
            if let Some(i) = pick(rng, |v| matches!(v, Value::Bool(_))) {
                w[tag_offset(args, i) + 1] = 2 + rng.below(126) as u8;
            }
        }
        4 => {
            if let Some(i) = pick(rng, |v| matches!(v, Value::Str(s) if !s.is_empty())) {
                let Value::Str(text) = &args[i] else {
                    unreachable!()
                };
                // Lengths below 128 take one varint byte.
                let start = tag_offset(args, i) + 2;
                w[start + rng.below(text.len() as u64) as usize] = 0xff;
            }
        }
        5 => {
            // Replace a varint (a tag, or a scalar's value) by eleven
            // continuation-heavy bytes: more than 64 bits of payload.
            if let Some(i) = pick(rng, |_| true) {
                let at = tag_offset(args, i) + rng.below(2) as usize;
                let end = (at + 1).min(w.len());
                let mut overlong = vec![0x80; 10];
                overlong.push(0x01);
                w.splice(at..end, overlong);
            }
        }
        _ => {
            let n = 1 + rng.below(4) as usize;
            w.extend(rng.bytes(n));
        }
    }
    w
}

#[test]
fn streaming_transform_matches_decode_then_encode() {
    let mut seen = std::collections::BTreeSet::new();
    for case in 0..2048 {
        let mut rng = TestRng::new(8000 + case);
        let args = arb_args(&mut rng);
        let mut sig = signature_of(&args);
        let clean = VarintCodec.encode(&sig, &args).unwrap();
        let wire = match rng.below(4) {
            0 => clean,
            1 => {
                // A well-formed payload read against some other
                // signature.
                sig = arb_signature(&mut rng);
                clean
            }
            _ => mutate(&mut rng, &args, &clean),
        };
        let reference = VarintCodec
            .decode(&sig, &wire)
            .and_then(|vals| FixedCodec.encode(&sig, &vals));
        assert_eq!(
            transform_to_dispatch_form(&sig, &wire),
            reference,
            "case {case}: sig {sig:?} wire {wire:02x?}"
        );
        assert_eq!(
            dispatch_form_len(&sig, &wire),
            reference.as_ref().map(Vec::len).map_err(Clone::clone),
            "case {case}"
        );
        seen.insert(match reference {
            Ok(_) => "ok",
            Err(PacketError::Truncated { .. }) => "truncated",
            Err(PacketError::BadField { field, .. }) => field,
            Err(PacketError::BadChecksum { .. }) => "checksum",
        });
    }
    // Every mutation class reached the comparison.
    let want = [
        "ok",
        "truncated",
        "field_number",
        "wire_type",
        "bool",
        "utf8",
        "varint",
        "trailing",
    ];
    for w in want {
        assert!(seen.contains(w), "no case produced `{w}`: {seen:?}");
    }
}

#[test]
fn varint_decode_never_panics_on_garbage() {
    for case in 0..512 {
        let mut rng = TestRng::new(3000 + case);
        let dlen = rng.below(256) as usize;
        let data = rng.bytes(dlen);
        let n_types = rng.below(6) as usize;
        let sig = Signature(
            (0..n_types)
                .map(|_| match rng.below(5) {
                    0 => ArgType::U64,
                    1 => ArgType::I64,
                    2 => ArgType::Bool,
                    3 => ArgType::Bytes,
                    _ => ArgType::Str,
                })
                .collect(),
        );
        // Must return Ok or Err, never panic.
        let _ = VarintCodec.decode(&sig, &data);
        let _ = FixedCodec.decode(&sig, &data);
    }
}

#[test]
fn frames_round_trip() {
    for case in 0..256 {
        let mut rng = TestRng::new(4000 + case);
        let plen = rng.below(2048) as usize;
        let payload = rng.bytes(plen);
        let sport = rng.next() as u16;
        let dport = rng.next() as u16;
        let ident = rng.next() as u16;
        let src = EndpointAddr::host(1, sport);
        let dst = EndpointAddr::host(2, dport);
        let raw = build_udp_frame(src, dst, &payload, ident).unwrap();
        let parsed = parse_udp_frame(&raw).unwrap();
        assert_eq!(parsed.payload, payload);
        assert_eq!(parsed.udp.src_port, sport);
        assert_eq!(parsed.udp.dst_port, dport);
        assert_eq!(parsed.ip.ident, ident);
    }
}

#[test]
fn single_bit_flips_past_eth_are_caught() {
    for case in 0..256 {
        let mut rng = TestRng::new(5000 + case);
        let plen = 1 + rng.below(255) as usize;
        let payload = rng.bytes(plen);
        let src = EndpointAddr::host(1, 100);
        let dst = EndpointAddr::host(2, 200);
        let raw = build_udp_frame(src, dst, &payload, 0).unwrap();
        // The Ethernet header (14 bytes) carries no checksum once the
        // FCS is stripped; everything after it is covered.
        let lo = 14usize;
        let byte = lo + rng.below((raw.len() - lo) as u64) as usize;
        let bit = rng.below(8) as u8;
        let mut corrupt = raw.clone();
        corrupt[byte] ^= 1 << bit;
        assert!(
            parse_udp_frame(&corrupt).is_err(),
            "undetected corruption at byte {byte} bit {bit}"
        );
    }
}

#[test]
fn every_single_bit_flip_is_caught() {
    // Exhaustive, not sampled: flip every bit of every checksummed
    // byte of one representative frame and require a parse error.
    let payload = b"fault injection probe payload!";
    let src = EndpointAddr::host(1, 100);
    let dst = EndpointAddr::host(2, 200);
    let raw = build_udp_frame(src, dst, payload, 7).unwrap();
    for byte in 14..raw.len() {
        for bit in 0..8 {
            let mut corrupt = raw.clone();
            corrupt[byte] ^= 1 << bit;
            assert!(
                parse_udp_frame(&corrupt).is_err(),
                "undetected corruption at byte {byte} bit {bit}"
            );
        }
    }
}

#[test]
fn truncated_frames_fail_cleanly() {
    // Every proper prefix of a valid frame must parse to an error —
    // no panic, no partial success.
    let payload = b"truncation probe";
    let src = EndpointAddr::host(1, 100);
    let dst = EndpointAddr::host(2, 200);
    let raw = build_udp_frame(src, dst, payload, 0).unwrap();
    for len in 0..raw.len() {
        assert!(
            parse_udp_frame(&raw[..len]).is_err(),
            "truncated frame of {len}/{} bytes parsed",
            raw.len()
        );
    }
    assert!(parse_udp_frame(&raw).is_ok());
}

#[test]
fn truncated_rpc_messages_fail_cleanly() {
    // Same property one layer up: every proper prefix of a valid RPC
    // message is rejected by the header/payload length checks.
    let payload = b"rpc truncation probe";
    let h = RpcHeader {
        kind: RpcKind::Request,
        service_id: 3,
        method_id: 1,
        request_id: 42,
        payload_len: payload.len() as u32,
        cont_hint: 0,
    };
    let msg = h.encode_message(payload).unwrap();
    for len in 0..msg.len() {
        assert!(
            RpcHeader::decode_message(&msg[..len]).is_err(),
            "truncated message of {len}/{} bytes parsed",
            msg.len()
        );
    }
    assert!(RpcHeader::decode_message(&msg).is_ok());
}

#[test]
fn rpc_header_round_trips() {
    for case in 0..256 {
        let mut rng = TestRng::new(6000 + case);
        let kind = match rng.below(3) {
            0 => RpcKind::Request,
            1 => RpcKind::Response,
            _ => RpcKind::Error,
        };
        let plen = rng.below(512) as usize;
        let payload = rng.bytes(plen);
        let h = RpcHeader {
            kind,
            service_id: rng.next() as u16,
            method_id: rng.next() as u16,
            request_id: rng.next(),
            payload_len: payload.len() as u32,
            cont_hint: rng.next() as u32,
        };
        let msg = h.encode_message(&payload).unwrap();
        let (parsed, body) = RpcHeader::decode_message(&msg).unwrap();
        assert_eq!(parsed, h);
        assert_eq!(body, &payload[..]);
    }
}

#[test]
fn rpc_header_parse_never_panics() {
    for case in 0..512 {
        let mut rng = TestRng::new(7000 + case);
        let dlen = rng.below(64) as usize;
        let data = rng.bytes(dlen);
        let _ = RpcHeader::decode_message(&data);
    }
}
