//! Byte-level packet formats for the Lauberhorn reproduction.
//!
//! The paper's FPGA NIC streams Ethernet frames through "various
//! streaming-mode header decoders to demultiplex the packet and remove
//! the Ethernet, IP, and UDP headers" (§5.1). This crate implements
//! those formats for real — every simulated packet in the reproduction
//! is an actual byte buffer that is built, checksummed, parsed, and
//! unmarshalled by the code here, so the NIC models exercise genuine
//! protocol processing rather than token-passing.
//!
//! Layers:
//!
//! * [`eth`] — Ethernet II framing.
//! * [`ipv4`] — IPv4 headers with the Internet checksum.
//! * [`udp`] — UDP with the pseudo-header checksum.
//! * [`frame`] — one-shot build/parse of a full `Eth/IPv4/UDP` frame.
//! * [`rpcwire`] — the Lauberhorn RPC wire header.
//! * [`marshal`] — argument marshalling: a fixed native codec and a
//!   varint (protobuf-like) codec, the formats the NIC-side
//!   deserialization offload (§5.1, citing Optimus Prime / ProtoAcc)
//!   transforms between.

pub mod buf;
pub mod checksum;
pub mod eth;
pub mod frame;
pub mod ipv4;
pub mod marshal;
pub mod rpcwire;
pub mod udp;

pub use buf::{BufPool, PktBuf};
pub use eth::{EtherType, EthernetHeader, MacAddr};
pub use frame::{
    build_udp_frame, fill_udp_headers, parse_udp_frame, parse_udp_frame_ref, write_udp_frame,
    UdpFrame, UdpFrameRef,
};
pub use ipv4::Ipv4Header;
pub use rpcwire::{RpcHeader, RpcKind, RPC_HEADER_LEN};
pub use udp::UdpHeader;

/// Errors produced while parsing or building packets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PacketError {
    /// The buffer is too short to contain the expected header or payload.
    Truncated {
        /// Protocol layer reporting the error.
        layer: &'static str,
        /// Bytes required.
        need: usize,
        /// Bytes available.
        have: usize,
    },
    /// A checksum did not verify.
    BadChecksum {
        /// Protocol layer reporting the error.
        layer: &'static str,
    },
    /// A field held an unsupported or nonsensical value.
    BadField {
        /// Protocol layer reporting the error.
        layer: &'static str,
        /// Field name.
        field: &'static str,
    },
}

impl std::fmt::Display for PacketError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PacketError::Truncated { layer, need, have } => {
                write!(f, "{layer}: truncated (need {need} bytes, have {have})")
            }
            PacketError::BadChecksum { layer } => write!(f, "{layer}: bad checksum"),
            PacketError::BadField { layer, field } => {
                write!(f, "{layer}: unsupported value in field `{field}`")
            }
        }
    }
}

impl std::error::Error for PacketError {}

/// Convenience result alias for packet operations.
pub type Result<T> = std::result::Result<T, PacketError>;
