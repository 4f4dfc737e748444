//! Whole-frame assembly and parsing: `Ethernet / IPv4 / UDP / payload`.
//!
//! This is the format every simulated wire packet uses, mirroring the
//! paper's FPGA pipeline which strips exactly these three headers
//! (§5.1).

use std::net::Ipv4Addr;

use crate::eth::{EtherType, EthernetHeader, MacAddr, ETH_HEADER_LEN};
use crate::ipv4::{Ipv4Header, IPV4_HEADER_LEN, PROTO_UDP};
use crate::udp::{UdpHeader, UDP_HEADER_LEN};
use crate::{PacketError, Result};

/// Total header overhead of a UDP frame.
pub const FRAME_OVERHEAD: usize = ETH_HEADER_LEN + IPV4_HEADER_LEN + UDP_HEADER_LEN;

/// Addressing for one endpoint of a flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EndpointAddr {
    /// Link-layer address.
    pub mac: MacAddr,
    /// Network-layer address.
    pub ip: Ipv4Addr,
    /// Transport port.
    pub port: u16,
}

impl EndpointAddr {
    /// Deterministic address for simulated host `id` using port `port`.
    pub fn host(id: u32, port: u16) -> Self {
        let b = id.to_be_bytes();
        EndpointAddr {
            mac: MacAddr::local(id),
            ip: Ipv4Addr::new(10, b[1], b[2], b[3]),
            port,
        }
    }
}

/// A fully parsed UDP frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UdpFrame {
    /// Ethernet header.
    pub eth: EthernetHeader,
    /// IPv4 header.
    pub ip: Ipv4Header,
    /// UDP header.
    pub udp: UdpHeader,
    /// UDP payload bytes.
    pub payload: Vec<u8>,
}

impl UdpFrame {
    /// The flow's 5-tuple (src ip, dst ip, src port, dst port, proto),
    /// the key RSS hashes over.
    pub fn five_tuple(&self) -> (Ipv4Addr, Ipv4Addr, u16, u16, u8) {
        (
            self.ip.src,
            self.ip.dst,
            self.udp.src_port,
            self.udp.dst_port,
            self.ip.protocol,
        )
    }
}

/// Builds a complete frame from `src` to `dst` carrying `payload`.
///
/// `ident` seeds the IPv4 identification field (useful for tracing).
pub fn build_udp_frame(
    src: EndpointAddr,
    dst: EndpointAddr,
    payload: &[u8],
    ident: u16,
) -> Result<Vec<u8>> {
    let mut buf = Vec::with_capacity(FRAME_OVERHEAD + payload.len());
    write_udp_frame(src, dst, &[payload], ident, &mut buf)?;
    Ok(buf)
}

/// Writes the frame [`build_udp_frame`] builds into `out`, replacing
/// its contents but keeping its capacity; the UDP payload is the
/// concatenation of `parts`. A transmit path that reuses one buffer
/// builds every frame without allocating. On error `out`'s contents
/// are unspecified.
pub fn write_udp_frame(
    src: EndpointAddr,
    dst: EndpointAddr,
    parts: &[&[u8]],
    ident: u16,
    out: &mut Vec<u8>,
) -> Result<()> {
    out.clear();
    out.resize(FRAME_OVERHEAD, 0);
    for part in parts {
        out.extend_from_slice(part);
    }
    fill_udp_headers(src, dst, ident, out)
}

/// Fills in the Ethernet, IPv4 and UDP headers of `frame` in place,
/// checksums included. The first [`FRAME_OVERHEAD`] bytes of `frame`
/// are header space and the rest is the UDP payload, so a writer that
/// lays the payload down itself finishes its frame with this call.
/// Nothing is written if the payload does not fit a UDP datagram.
pub fn fill_udp_headers(
    src: EndpointAddr,
    dst: EndpointAddr,
    ident: u16,
    frame: &mut [u8],
) -> Result<()> {
    let payload_len = frame
        .len()
        .checked_sub(FRAME_OVERHEAD)
        .ok_or(PacketError::Truncated {
            layer: "udp",
            need: FRAME_OVERHEAD,
            have: frame.len(),
        })?;
    let udp = UdpHeader::for_payload(src.port, dst.port, payload_len)?;
    let ip = Ipv4Header::for_payload(
        src.ip,
        dst.ip,
        PROTO_UDP,
        UDP_HEADER_LEN + payload_len,
        ident,
    )?;
    let eth = EthernetHeader {
        dst: dst.mac,
        src: src.mac,
        ethertype: EtherType::Ipv4,
    };
    let mut off = eth.write(frame)?;
    off += ip.write(&mut frame[off..])?;
    udp.write(src.ip, dst.ip, &mut frame[off..])?;
    Ok(())
}

/// A parsed UDP frame whose payload borrows the input buffer.
///
/// The zero-copy variant of [`UdpFrame`]: the NIC pipeline parses
/// every inbound frame, so borrowing the payload instead of
/// re-`Vec`-ing it saves an allocation and a copy per frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UdpFrameRef<'a> {
    /// Ethernet header.
    pub eth: EthernetHeader,
    /// IPv4 header.
    pub ip: Ipv4Header,
    /// UDP header.
    pub udp: UdpHeader,
    /// UDP payload bytes, borrowed from the input frame.
    pub payload: &'a [u8],
}

/// Parses and fully verifies a frame produced by [`build_udp_frame`],
/// borrowing the payload from `data` (no copy).
pub fn parse_udp_frame_ref(data: &[u8]) -> Result<UdpFrameRef<'_>> {
    let (eth, mut off) = EthernetHeader::parse(data)?;
    if eth.ethertype != EtherType::Ipv4 {
        return Err(PacketError::BadField {
            layer: "eth",
            field: "ethertype",
        });
    }
    let (ip, ip_len) = Ipv4Header::parse(&data[off..])?;
    off += ip_len;
    if ip.protocol != PROTO_UDP {
        return Err(PacketError::BadField {
            layer: "ipv4",
            field: "protocol",
        });
    }
    let ip_payload_end = off + ip.payload_len();
    if ip_payload_end > data.len() {
        return Err(PacketError::Truncated {
            layer: "ipv4",
            need: ip_payload_end,
            have: data.len(),
        });
    }
    let (udp, payload) = UdpHeader::parse(ip.src, ip.dst, &data[off..ip_payload_end])?;
    Ok(UdpFrameRef {
        eth,
        ip,
        udp,
        payload,
    })
}

/// Parses and fully verifies a frame produced by [`build_udp_frame`],
/// copying the payload into an owned [`UdpFrame`].
pub fn parse_udp_frame(data: &[u8]) -> Result<UdpFrame> {
    let f = parse_udp_frame_ref(data)?;
    Ok(UdpFrame {
        eth: f.eth,
        ip: f.ip,
        udp: f.udp,
        payload: f.payload.to_vec(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair() -> (EndpointAddr, EndpointAddr) {
        (EndpointAddr::host(1, 4000), EndpointAddr::host(2, 5000))
    }

    #[test]
    fn build_parse_round_trip() {
        let (src, dst) = pair();
        let payload = b"the nic should be part of the os";
        let frame = build_udp_frame(src, dst, payload, 42).unwrap();
        assert_eq!(frame.len(), FRAME_OVERHEAD + payload.len());
        let parsed = parse_udp_frame(&frame).unwrap();
        assert_eq!(parsed.payload, payload);
        assert_eq!(parsed.udp.src_port, 4000);
        assert_eq!(parsed.udp.dst_port, 5000);
        assert_eq!(parsed.ip.src, src.ip);
        assert_eq!(parsed.ip.dst, dst.ip);
        assert_eq!(parsed.eth.src, src.mac);
        assert_eq!(parsed.ip.ident, 42);
    }

    #[test]
    fn written_frame_equals_built_frame_and_reuses_the_buffer() {
        let (src, dst) = pair();
        let built = build_udp_frame(src, dst, b"headerpayload", 9).unwrap();
        let mut out = vec![0xEE; 256];
        let cap = out.capacity();
        write_udp_frame(src, dst, &[b"header", b"payload"], 9, &mut out).unwrap();
        assert_eq!(out, built);
        assert_eq!(out.capacity(), cap);
    }

    #[test]
    fn headers_filled_in_place_equal_built_frame() {
        let (src, dst) = pair();
        let built = build_udp_frame(src, dst, b"payload", 3).unwrap();
        let mut frame = vec![0xEE; FRAME_OVERHEAD];
        frame.extend_from_slice(b"payload");
        fill_udp_headers(src, dst, 3, &mut frame).unwrap();
        assert_eq!(frame, built);
        // Too short to hold the headers, or too long for a datagram:
        // refused, and nothing written.
        let mut short = vec![0xEE; FRAME_OVERHEAD - 1];
        assert!(fill_udp_headers(src, dst, 3, &mut short).is_err());
        assert!(short.iter().all(|&b| b == 0xEE));
        let mut huge = vec![0xEE; FRAME_OVERHEAD + usize::from(u16::MAX)];
        assert!(fill_udp_headers(src, dst, 3, &mut huge).is_err());
        assert!(huge.iter().all(|&b| b == 0xEE));
    }

    #[test]
    fn five_tuple_matches_addresses() {
        let (src, dst) = pair();
        let frame = build_udp_frame(src, dst, b"x", 0).unwrap();
        let parsed = parse_udp_frame(&frame).unwrap();
        assert_eq!(
            parsed.five_tuple(),
            (src.ip, dst.ip, src.port, dst.port, PROTO_UDP)
        );
    }

    #[test]
    fn bit_flip_anywhere_is_detected() {
        let (src, dst) = pair();
        let frame = build_udp_frame(src, dst, &[0xAA; 64], 7).unwrap();
        // Flip one bit in each region: eth dst is not covered by any
        // checksum (as in real Ethernet once the FCS is stripped), so
        // start from the IP header.
        for byte in ETH_HEADER_LEN..frame.len() {
            let mut corrupt = frame.clone();
            corrupt[byte] ^= 0x40;
            assert!(
                parse_udp_frame(&corrupt).is_err(),
                "corruption at byte {byte} was not detected"
            );
        }
    }

    #[test]
    fn empty_payload_frame() {
        let (src, dst) = pair();
        let frame = build_udp_frame(src, dst, &[], 0).unwrap();
        let parsed = parse_udp_frame(&frame).unwrap();
        assert!(parsed.payload.is_empty());
    }

    #[test]
    fn large_payload_frame() {
        let (src, dst) = pair();
        let payload = vec![0x5a; 9000]; // Jumbo-frame sized.
        let frame = build_udp_frame(src, dst, &payload, 0).unwrap();
        let parsed = parse_udp_frame(&frame).unwrap();
        assert_eq!(parsed.payload.len(), 9000);
    }

    #[test]
    fn rejects_non_ipv4_and_non_udp() {
        let (src, dst) = pair();
        let mut frame = build_udp_frame(src, dst, b"x", 0).unwrap();
        let mut arp = frame.clone();
        arp[12..14].copy_from_slice(&0x0806u16.to_be_bytes());
        assert!(matches!(
            parse_udp_frame(&arp),
            Err(PacketError::BadField {
                field: "ethertype",
                ..
            })
        ));
        // Claim TCP: must also fix the IP checksum so we reach the
        // protocol check.
        frame[ETH_HEADER_LEN + 9] = 6;
        frame[ETH_HEADER_LEN + 10..ETH_HEADER_LEN + 12].fill(0);
        let ck = crate::checksum::checksum(&frame[ETH_HEADER_LEN..ETH_HEADER_LEN + 20]);
        frame[ETH_HEADER_LEN + 10..ETH_HEADER_LEN + 12].copy_from_slice(&ck.to_be_bytes());
        assert!(matches!(
            parse_udp_frame(&frame),
            Err(PacketError::BadField {
                field: "protocol",
                ..
            })
        ));
    }

    #[test]
    fn hosts_get_distinct_addresses() {
        let a = EndpointAddr::host(3, 1);
        let b = EndpointAddr::host(4, 1);
        assert_ne!(a.ip, b.ip);
        assert_ne!(a.mac, b.mac);
    }
}
