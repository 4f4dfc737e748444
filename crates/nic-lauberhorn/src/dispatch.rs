//! The dispatch line: what the NIC returns into a stalled load.
//!
//! Layout of the first CONTROL line (big-endian lengths, little-endian
//! pointers — matching what the CPU consumes directly):
//!
//! ```text
//! 0        8         16          24        26       28    29      30        32
//! | code_ptr | data_ptr | request_id | service | method | kind | n_aux | arg_len |
//! 32 ..                                    line_size
//! | inline argument bytes (fixed dispatch form) ... |
//! ```
//!
//! Arguments beyond the inline capacity continue in AUX lines; payloads
//! past the DMA threshold arrive via the fallback path and the line
//! carries a buffer descriptor instead. The NIC prepares only the
//! CONTROL line ([`DispatchLine::control_line`]) when it delivers a
//! request; AUX\[j\] is sliced from the argument bytes when a core
//! loads it ([`aux_line`]).

use lauberhorn_coherence::{Line, MAX_LINE_SIZE};
use lauberhorn_packet::{PacketError, Result};

use crate::bytes;

/// Fixed header bytes before the inline arguments.
pub const DISPATCH_HEADER_LEN: usize = 32;

/// What kind of message a CONTROL line carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DispatchKind {
    /// A dispatched RPC: code/data pointers and arguments.
    Rpc,
    /// The TRYAGAIN dummy (§5.1): no request arrived within the
    /// coherence-safe window; the core should re-issue the load (or
    /// enter the kernel if an IPI is pending).
    TryAgain,
    /// RETIRE (§5.2): the kernel is reallocating this core; the thread
    /// must return to the scheduler.
    Retire,
    /// Large-message fallback: the payload was DMAed to a buffer; the
    /// inline bytes hold `(buffer_addr: u64, length: u64)`.
    DmaDescriptor,
}

impl DispatchKind {
    fn to_u8(self) -> u8 {
        match self {
            DispatchKind::Rpc => 1,
            DispatchKind::TryAgain => 2,
            DispatchKind::Retire => 3,
            DispatchKind::DmaDescriptor => 4,
        }
    }

    fn from_u8(v: u8) -> Result<Self> {
        match v {
            1 => Ok(DispatchKind::Rpc),
            2 => Ok(DispatchKind::TryAgain),
            3 => Ok(DispatchKind::Retire),
            4 => Ok(DispatchKind::DmaDescriptor),
            _ => Err(PacketError::BadField {
                layer: "dispatch",
                field: "kind",
            }),
        }
    }
}

/// A decoded dispatch line (plus any AUX continuation bytes).
///
/// # Examples
///
/// ```
/// use lauberhorn_nic::dispatch::{DispatchKind, DispatchLine};
///
/// let line = DispatchLine {
///     code_ptr: 0x7f00_0000_1000,
///     data_ptr: 0x7f00_0000_2000,
///     request_id: 7,
///     service_id: 1,
///     method_id: 0,
///     kind: DispatchKind::Rpc,
///     args: vec![1, 2, 3],
/// };
/// let (ctrl, aux) = line.encode(128).unwrap();
/// assert_eq!(DispatchLine::decode(&ctrl, &aux).unwrap(), line);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DispatchLine {
    /// Virtual address of the handler's first instruction (§4).
    pub code_ptr: u64,
    /// Per-service data pointer (e.g. the service's state object).
    pub data_ptr: u64,
    /// Request id, echoed into the response.
    pub request_id: u64,
    /// Service the request targets.
    pub service_id: u16,
    /// Method within the service.
    pub method_id: u16,
    /// Message kind.
    pub kind: DispatchKind,
    /// Argument bytes in fixed dispatch form.
    pub args: Vec<u8>,
}

impl DispatchLine {
    /// A TRYAGAIN line.
    pub fn try_again() -> Self {
        DispatchLine {
            code_ptr: 0,
            data_ptr: 0,
            request_id: 0,
            service_id: 0,
            method_id: 0,
            kind: DispatchKind::TryAgain,
            args: Vec::new(),
        }
    }

    /// A RETIRE line.
    pub fn retire() -> Self {
        DispatchLine {
            kind: DispatchKind::Retire,
            ..Self::try_again()
        }
    }

    /// A TRYAGAIN line advertising NIC load: `hint` (0 = idle, 255 =
    /// queues at capacity) travels in the low byte of the data-pointer
    /// field, which TRYAGAIN/RETIRE lines otherwise leave zero — no
    /// layout change, and pre-hint consumers that ignore `data_ptr` on
    /// non-RPC kinds are unaffected.
    pub fn try_again_with_hint(hint: u8) -> Self {
        DispatchLine {
            data_ptr: hint as u64,
            ..Self::try_again()
        }
    }

    /// A RETIRE line advertising NIC load (see
    /// [`DispatchLine::try_again_with_hint`]).
    pub fn retire_with_hint(hint: u8) -> Self {
        DispatchLine {
            kind: DispatchKind::Retire,
            data_ptr: hint as u64,
            ..Self::try_again()
        }
    }

    /// The load hint carried by a TRYAGAIN or RETIRE line (0 when the
    /// line carries none, and for RPC/DMA kinds where the data-pointer
    /// field is a real pointer).
    pub fn load_hint(&self) -> u8 {
        match self.kind {
            DispatchKind::TryAgain | DispatchKind::Retire => (self.data_ptr & 0xff) as u8,
            DispatchKind::Rpc | DispatchKind::DmaDescriptor => 0,
        }
    }

    /// Inline argument capacity of the first line for `line_size`.
    pub fn inline_capacity(line_size: usize) -> usize {
        line_size.saturating_sub(DISPATCH_HEADER_LEN)
    }

    /// Number of AUX lines needed for `arg_len` argument bytes.
    pub fn aux_lines_needed(arg_len: usize, line_size: usize) -> usize {
        arg_len
            .saturating_sub(Self::inline_capacity(line_size))
            .div_ceil(line_size)
    }

    /// The CONTROL line of `line_size` bytes: the header plus the
    /// arguments that fit inline (the rest are [`aux_line`]s).
    pub fn control_line(&self, line_size: usize) -> Result<Line> {
        let n_aux = Self::aux_lines_needed(self.args.len(), line_size);
        if n_aux > u8::MAX as usize {
            return Err(PacketError::BadField {
                layer: "dispatch",
                field: "n_aux",
            });
        }
        if self.args.len() > u16::MAX as usize {
            return Err(PacketError::BadField {
                layer: "dispatch",
                field: "arg_len",
            });
        }
        if line_size < DISPATCH_HEADER_LEN {
            return Err(PacketError::Truncated {
                layer: "dispatch",
                need: DISPATCH_HEADER_LEN,
                have: line_size,
            });
        }
        if line_size > MAX_LINE_SIZE {
            return Err(PacketError::BadField {
                layer: "dispatch",
                field: "line_size",
            });
        }
        let mut ctrl = Line::zeroed(line_size);
        bytes::put(&mut ctrl, 0, &self.code_ptr.to_le_bytes());
        bytes::put(&mut ctrl, 8, &self.data_ptr.to_le_bytes());
        bytes::put(&mut ctrl, 16, &self.request_id.to_le_bytes());
        bytes::put(&mut ctrl, 24, &self.service_id.to_be_bytes());
        bytes::put(&mut ctrl, 26, &self.method_id.to_be_bytes());
        bytes::set(&mut ctrl, 28, self.kind.to_u8());
        bytes::set(&mut ctrl, 29, n_aux as u8);
        bytes::put(&mut ctrl, 30, &(self.args.len() as u16).to_be_bytes());
        let inline = self.args.len().min(Self::inline_capacity(line_size));
        bytes::put(
            &mut ctrl,
            DISPATCH_HEADER_LEN,
            bytes::slice(&self.args, 0, inline),
        );
        Ok(ctrl)
    }

    /// Encodes into the CONTROL line plus every AUX line, as owned
    /// buffers of `line_size` bytes each (for inspection; the NIC
    /// itself never materializes the AUX lines).
    ///
    /// Returns `(control_line, aux_lines)`.
    pub fn encode(&self, line_size: usize) -> Result<(Vec<u8>, Vec<Vec<u8>>)> {
        let ctrl = self.control_line(line_size)?;
        let aux = (0..Self::aux_lines_needed(self.args.len(), line_size))
            .map(|j| aux_line(&self.args, j, line_size).to_vec())
            .collect();
        Ok((ctrl.to_vec(), aux))
    }

    /// Decodes from a CONTROL line and its AUX lines.
    pub fn decode(ctrl: &[u8], aux: &[Vec<u8>]) -> Result<Self> {
        if ctrl.len() < DISPATCH_HEADER_LEN {
            return Err(PacketError::Truncated {
                layer: "dispatch",
                need: DISPATCH_HEADER_LEN,
                have: ctrl.len(),
            });
        }
        let kind = DispatchKind::from_u8(bytes::get(ctrl, 28))?;
        let n_aux = bytes::get(ctrl, 29) as usize;
        let arg_len = bytes::u16_be(ctrl, 30) as usize;
        if aux.len() < n_aux {
            return Err(PacketError::Truncated {
                layer: "dispatch",
                need: n_aux,
                have: aux.len(),
            });
        }
        let line_size = ctrl.len();
        let inline_cap = Self::inline_capacity(line_size);
        let mut args = Vec::with_capacity(arg_len);
        let inline = arg_len.min(inline_cap);
        args.extend_from_slice(bytes::slice(ctrl, DISPATCH_HEADER_LEN, inline));
        let mut remaining = arg_len - inline;
        for line in aux.iter().take(n_aux) {
            let take = remaining.min(line_size);
            if line.len() < take {
                return Err(PacketError::Truncated {
                    layer: "dispatch",
                    need: take,
                    have: line.len(),
                });
            }
            args.extend_from_slice(bytes::slice(line, 0, take));
            remaining -= take;
        }
        if remaining != 0 {
            return Err(PacketError::Truncated {
                layer: "dispatch",
                need: arg_len,
                have: arg_len - remaining,
            });
        }
        Ok(DispatchLine {
            code_ptr: bytes::u64_le(ctrl, 0),
            data_ptr: bytes::u64_le(ctrl, 8),
            request_id: bytes::u64_le(ctrl, 16),
            service_id: bytes::u16_be(ctrl, 24),
            method_id: bytes::u16_be(ctrl, 26),
            kind,
            args,
        })
    }
}

/// AUX\[j\] of a request whose dispatch-form arguments are `args`:
/// the `line_size` argument bytes starting at
/// `inline_capacity + j·line_size`, zero-padded — an all-zero line for
/// `j` at or past the request's AUX count.
pub fn aux_line(args: &[u8], j: usize, line_size: usize) -> Line {
    let start = j
        .saturating_mul(line_size)
        .saturating_add(DispatchLine::inline_capacity(line_size));
    Line::padded(
        bytes::slice(args, start, args.len().saturating_sub(start)),
        line_size,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(args: Vec<u8>) -> DispatchLine {
        DispatchLine {
            code_ptr: 0x7fff_0000_1000,
            data_ptr: 0x7fff_0000_2000,
            request_id: 99,
            service_id: 4,
            method_id: 2,
            kind: DispatchKind::Rpc,
            args,
        }
    }

    #[test]
    fn small_args_fit_inline_128() {
        let d = sample(vec![0xAB; 64]);
        let (ctrl, aux) = d.encode(128).unwrap();
        assert_eq!(ctrl.len(), 128);
        assert!(aux.is_empty());
        assert_eq!(DispatchLine::decode(&ctrl, &aux).unwrap(), d);
    }

    #[test]
    fn boundary_exactly_fills_inline() {
        let cap = DispatchLine::inline_capacity(128);
        let d = sample(vec![7; cap]);
        let (ctrl, aux) = d.encode(128).unwrap();
        assert!(aux.is_empty());
        assert_eq!(DispatchLine::decode(&ctrl, &aux).unwrap(), d);
    }

    #[test]
    fn larger_args_spill_to_aux() {
        let cap = DispatchLine::inline_capacity(128);
        let d = sample((0..=255u8).cycle().take(cap + 300).collect());
        let (ctrl, aux) = d.encode(128).unwrap();
        assert_eq!(aux.len(), 300usize.div_ceil(128));
        assert_eq!(DispatchLine::decode(&ctrl, &aux).unwrap(), d);
    }

    #[test]
    fn works_with_64_byte_lines() {
        // CXL-class 64 B lines: less inline room, more AUX.
        let d = sample(vec![9; 100]);
        let (ctrl, aux) = d.encode(64).unwrap();
        assert_eq!(ctrl.len(), 64);
        assert_eq!(aux.len(), DispatchLine::aux_lines_needed(100, 64));
        assert_eq!(DispatchLine::decode(&ctrl, &aux).unwrap(), d);
    }

    #[test]
    fn tryagain_and_retire_round_trip() {
        for d in [DispatchLine::try_again(), DispatchLine::retire()] {
            let (ctrl, aux) = d.encode(128).unwrap();
            assert_eq!(DispatchLine::decode(&ctrl, &aux).unwrap().kind, d.kind);
        }
    }

    #[test]
    fn load_hint_rides_tryagain_and_retire() {
        for d in [
            DispatchLine::try_again_with_hint(0),
            DispatchLine::try_again_with_hint(200),
            DispatchLine::retire_with_hint(255),
        ] {
            let (ctrl, aux) = d.encode(128).unwrap();
            let back = DispatchLine::decode(&ctrl, &aux).unwrap();
            assert_eq!(back.load_hint(), d.load_hint());
            assert_eq!(back, d);
        }
        // RPC lines never report a hint: data_ptr is a real pointer.
        assert_eq!(sample(vec![]).load_hint(), 0);
        // Hint-less constructors read back hint 0.
        assert_eq!(DispatchLine::try_again().load_hint(), 0);
        assert_eq!(DispatchLine::retire().load_hint(), 0);
    }

    #[test]
    fn missing_aux_detected() {
        let cap = DispatchLine::inline_capacity(128);
        let d = sample(vec![1; cap + 10]);
        let (ctrl, _) = d.encode(128).unwrap();
        assert!(matches!(
            DispatchLine::decode(&ctrl, &[]),
            Err(PacketError::Truncated { .. })
        ));
    }

    #[test]
    fn bad_kind_rejected() {
        let d = sample(vec![]);
        let (mut ctrl, aux) = d.encode(128).unwrap();
        ctrl[28] = 0;
        assert!(matches!(
            DispatchLine::decode(&ctrl, &aux),
            Err(PacketError::BadField { field: "kind", .. })
        ));
    }

    #[test]
    fn aux_lines_needed_math() {
        assert_eq!(DispatchLine::aux_lines_needed(0, 128), 0);
        assert_eq!(DispatchLine::aux_lines_needed(96, 128), 0);
        assert_eq!(DispatchLine::aux_lines_needed(97, 128), 1);
        assert_eq!(DispatchLine::aux_lines_needed(96 + 128, 128), 1);
        assert_eq!(DispatchLine::aux_lines_needed(96 + 129, 128), 2);
    }
}
