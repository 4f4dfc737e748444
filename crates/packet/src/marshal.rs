//! RPC argument marshalling.
//!
//! Two codecs are provided, matching the two families of wire formats
//! the paper's deserialization-offload lineage targets:
//!
//! * [`FixedCodec`] — a flat, native little-endian layout with
//!   length-prefixed variable-size fields. This is the *dispatch form*:
//!   what Lauberhorn writes into the CONTROL/AUX cache lines so the CPU
//!   can consume arguments directly from registers (the "carefully
//!   prepared cache line" of §4). Decoding it is nearly free.
//! * [`VarintCodec`] — a protobuf-like tag/varint/length-delimited
//!   format (the kind ProtoAcc \[13\] accelerates). This is the *wire
//!   form* clients send; the NIC-side deserializer transforms it into
//!   the fixed form.
//!
//! The software cost of decoding each format is modelled in the `rpc`
//! crate; here we implement the actual byte transformations so the
//! simulated NIC performs real work. The NIC's transformation
//! ([`transform_to_dispatch_form`], or [`dispatch_form_len`] then
//! [`append_dispatch_form`]) streams wire bytes straight into the
//! fixed form; the two codecs are its reference.

use crate::{PacketError, Result};

/// The type of one RPC argument.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArgType {
    /// Unsigned 64-bit integer.
    U64,
    /// Signed 64-bit integer (zigzag-encoded by the varint codec).
    I64,
    /// Boolean.
    Bool,
    /// Opaque byte string.
    Bytes,
    /// UTF-8 string.
    Str,
}

/// A method signature: the ordered argument types.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Signature(pub Vec<ArgType>);

impl Signature {
    /// Convenience constructor.
    pub fn of(types: &[ArgType]) -> Self {
        Signature(types.to_vec())
    }

    /// Number of arguments.
    pub fn arity(&self) -> usize {
        self.0.len()
    }
}

/// A runtime argument value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Unsigned 64-bit integer.
    U64(u64),
    /// Signed 64-bit integer.
    I64(i64),
    /// Boolean.
    Bool(bool),
    /// Opaque byte string.
    Bytes(Vec<u8>),
    /// UTF-8 string.
    Str(String),
}

impl Value {
    /// The [`ArgType`] this value inhabits.
    pub fn arg_type(&self) -> ArgType {
        match self {
            Value::U64(_) => ArgType::U64,
            Value::I64(_) => ArgType::I64,
            Value::Bool(_) => ArgType::Bool,
            Value::Bytes(_) => ArgType::Bytes,
            Value::Str(_) => ArgType::Str,
        }
    }
}

fn type_check(sig: &Signature, args: &[Value]) -> Result<()> {
    if sig.arity() != args.len() {
        return Err(PacketError::BadField {
            layer: "marshal",
            field: "arity",
        });
    }
    for (t, v) in sig.0.iter().zip(args) {
        if *t != v.arg_type() {
            return Err(PacketError::BadField {
                layer: "marshal",
                field: "type",
            });
        }
    }
    Ok(())
}

/// A marshalling codec.
pub trait Codec {
    /// Encodes `args` (which must match `sig`) to bytes.
    fn encode(&self, sig: &Signature, args: &[Value]) -> Result<Vec<u8>>;

    /// Decodes bytes into values according to `sig`.
    fn decode(&self, sig: &Signature, data: &[u8]) -> Result<Vec<Value>>;
}

// ---------------------------------------------------------------------
// Fixed codec.
// ---------------------------------------------------------------------

/// Flat little-endian layout: scalars at fixed width, `Bytes`/`Str` as a
/// `u32` length followed by the contents.
#[derive(Debug, Clone, Copy, Default)]
pub struct FixedCodec;

impl Codec for FixedCodec {
    fn encode(&self, sig: &Signature, args: &[Value]) -> Result<Vec<u8>> {
        type_check(sig, args)?;
        let mut out = Vec::new();
        for v in args {
            match v {
                Value::U64(x) => out.extend_from_slice(&x.to_le_bytes()),
                Value::I64(x) => out.extend_from_slice(&x.to_le_bytes()),
                Value::Bool(b) => out.push(*b as u8),
                Value::Bytes(b) => {
                    out.extend_from_slice(&(b.len() as u32).to_le_bytes());
                    out.extend_from_slice(b);
                }
                Value::Str(s) => {
                    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
                    out.extend_from_slice(s.as_bytes());
                }
            }
        }
        Ok(out)
    }

    fn decode(&self, sig: &Signature, data: &[u8]) -> Result<Vec<Value>> {
        let mut off = 0usize;
        let mut out = Vec::with_capacity(sig.arity());
        let need = |off: usize, n: usize, have: usize| -> Result<()> {
            if off + n > have {
                Err(PacketError::Truncated {
                    layer: "marshal",
                    need: off + n,
                    have,
                })
            } else {
                Ok(())
            }
        };
        for t in &sig.0 {
            match t {
                ArgType::U64 => {
                    need(off, 8, data.len())?;
                    out.push(Value::U64(u64::from_le_bytes(
                        data[off..off + 8].try_into().expect("8 bytes"),
                    )));
                    off += 8;
                }
                ArgType::I64 => {
                    need(off, 8, data.len())?;
                    out.push(Value::I64(i64::from_le_bytes(
                        data[off..off + 8].try_into().expect("8 bytes"),
                    )));
                    off += 8;
                }
                ArgType::Bool => {
                    need(off, 1, data.len())?;
                    match data[off] {
                        0 => out.push(Value::Bool(false)),
                        1 => out.push(Value::Bool(true)),
                        _ => {
                            return Err(PacketError::BadField {
                                layer: "marshal",
                                field: "bool",
                            })
                        }
                    }
                    off += 1;
                }
                ArgType::Bytes | ArgType::Str => {
                    need(off, 4, data.len())?;
                    let len = u32::from_le_bytes(data[off..off + 4].try_into().expect("4 bytes"))
                        as usize;
                    off += 4;
                    need(off, len, data.len())?;
                    let raw = data[off..off + len].to_vec();
                    off += len;
                    if *t == ArgType::Bytes {
                        out.push(Value::Bytes(raw));
                    } else {
                        let s = String::from_utf8(raw).map_err(|_| PacketError::BadField {
                            layer: "marshal",
                            field: "utf8",
                        })?;
                        out.push(Value::Str(s));
                    }
                }
            }
        }
        if off != data.len() {
            return Err(PacketError::BadField {
                layer: "marshal",
                field: "trailing",
            });
        }
        Ok(out)
    }
}

// ---------------------------------------------------------------------
// Varint codec.
// ---------------------------------------------------------------------

/// Protobuf-like codec: each argument is `tag` (field number = position,
/// wire type in the low 3 bits) followed by a varint or a
/// length-delimited blob. Signed integers use zigzag.
#[derive(Debug, Clone, Copy, Default)]
pub struct VarintCodec;

const WIRE_VARINT: u64 = 0;
const WIRE_LEN: u64 = 2;

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(b);
            return;
        }
        out.push(b | 0x80);
    }
}

fn get_varint(data: &[u8], off: &mut usize) -> Result<u64> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let b = *data.get(*off).ok_or(PacketError::Truncated {
            layer: "marshal",
            need: *off + 1,
            have: data.len(),
        })?;
        *off += 1;
        if shift >= 64 {
            return Err(PacketError::BadField {
                layer: "marshal",
                field: "varint",
            });
        }
        v |= ((b & 0x7f) as u64) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// Bytes `v` takes as a varint.
fn varint_len(v: u64) -> usize {
    ((u64::BITS - (v | 1).leading_zeros()) as usize).div_ceil(7)
}

/// Appends the varint wire form of a lone `Bytes` argument of `len`
/// bytes, minus the bytes: the field-1 length-delimited tag (`0x0a`),
/// then `len` as a varint. [`VarintCodec`]'s encoding of
/// `[Value::Bytes(b)]` under a `[Bytes]` signature is this prefix
/// followed by `b`, so a writer that lays `b` down itself needs no
/// [`Value`].
pub fn put_bytes_arg_prefix(out: &mut Vec<u8>, len: usize) {
    put_varint(out, 1 << 3 | WIRE_LEN);
    put_varint(out, len as u64);
}

/// Bytes [`put_bytes_arg_prefix`] appends for a `len`-byte argument.
pub fn bytes_arg_prefix_len(len: usize) -> usize {
    1 + varint_len(len as u64)
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

impl Codec for VarintCodec {
    fn encode(&self, sig: &Signature, args: &[Value]) -> Result<Vec<u8>> {
        type_check(sig, args)?;
        let mut out = Vec::new();
        for (i, v) in args.iter().enumerate() {
            let field = (i + 1) as u64;
            match v {
                Value::U64(x) => {
                    put_varint(&mut out, field << 3 | WIRE_VARINT);
                    put_varint(&mut out, *x);
                }
                Value::I64(x) => {
                    put_varint(&mut out, field << 3 | WIRE_VARINT);
                    put_varint(&mut out, zigzag(*x));
                }
                Value::Bool(b) => {
                    put_varint(&mut out, field << 3 | WIRE_VARINT);
                    put_varint(&mut out, *b as u64);
                }
                Value::Bytes(b) => {
                    put_varint(&mut out, field << 3 | WIRE_LEN);
                    put_varint(&mut out, b.len() as u64);
                    out.extend_from_slice(b);
                }
                Value::Str(s) => {
                    put_varint(&mut out, field << 3 | WIRE_LEN);
                    put_varint(&mut out, s.len() as u64);
                    out.extend_from_slice(s.as_bytes());
                }
            }
        }
        Ok(out)
    }

    fn decode(&self, sig: &Signature, data: &[u8]) -> Result<Vec<Value>> {
        let mut off = 0usize;
        let mut out = Vec::with_capacity(sig.arity());
        for (i, t) in sig.0.iter().enumerate() {
            let tag = get_varint(data, &mut off)?;
            let field = tag >> 3;
            let wire = tag & 0x7;
            if field != (i + 1) as u64 {
                return Err(PacketError::BadField {
                    layer: "marshal",
                    field: "field_number",
                });
            }
            match t {
                ArgType::U64 | ArgType::I64 | ArgType::Bool => {
                    if wire != WIRE_VARINT {
                        return Err(PacketError::BadField {
                            layer: "marshal",
                            field: "wire_type",
                        });
                    }
                    let raw = get_varint(data, &mut off)?;
                    out.push(match t {
                        ArgType::U64 => Value::U64(raw),
                        ArgType::I64 => Value::I64(unzigzag(raw)),
                        ArgType::Bool => match raw {
                            0 => Value::Bool(false),
                            1 => Value::Bool(true),
                            _ => {
                                return Err(PacketError::BadField {
                                    layer: "marshal",
                                    field: "bool",
                                })
                            }
                        },
                        _ => unreachable!(),
                    });
                }
                ArgType::Bytes | ArgType::Str => {
                    if wire != WIRE_LEN {
                        return Err(PacketError::BadField {
                            layer: "marshal",
                            field: "wire_type",
                        });
                    }
                    let len = get_varint(data, &mut off)? as usize;
                    if off.saturating_add(len) > data.len() {
                        return Err(PacketError::Truncated {
                            layer: "marshal",
                            need: off.saturating_add(len),
                            have: data.len(),
                        });
                    }
                    let raw = data[off..off + len].to_vec();
                    off += len;
                    if *t == ArgType::Bytes {
                        out.push(Value::Bytes(raw));
                    } else {
                        let s = String::from_utf8(raw).map_err(|_| PacketError::BadField {
                            layer: "marshal",
                            field: "utf8",
                        })?;
                        out.push(Value::Str(s));
                    }
                }
            }
        }
        if off != data.len() {
            return Err(PacketError::BadField {
                layer: "marshal",
                field: "trailing",
            });
        }
        Ok(out)
    }
}

/// Where the streaming transcoder puts dispatch-form bytes.
trait Sink {
    fn put(&mut self, bytes: &[u8]);
}

impl Sink for Vec<u8> {
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

/// Counts the bytes instead of keeping them.
impl Sink for usize {
    fn put(&mut self, bytes: &[u8]) {
        *self += bytes.len();
    }
}

/// One pass over the varint wire form, writing each argument's fixed
/// form as soon as it is decoded — no intermediate [`Value`]s. The
/// checks, their order and their errors are [`VarintCodec::decode`]'s.
fn stream_dispatch_form(sig: &Signature, wire: &[u8], out: &mut impl Sink) -> Result<()> {
    let bad = |field| PacketError::BadField {
        layer: "marshal",
        field,
    };
    let mut off = 0usize;
    for (i, t) in sig.0.iter().enumerate() {
        let tag = get_varint(wire, &mut off)?;
        if tag >> 3 != (i + 1) as u64 {
            return Err(bad("field_number"));
        }
        let wire_type = tag & 0x7;
        match t {
            ArgType::U64 | ArgType::I64 | ArgType::Bool => {
                if wire_type != WIRE_VARINT {
                    return Err(bad("wire_type"));
                }
                let raw = get_varint(wire, &mut off)?;
                match t {
                    ArgType::I64 => out.put(&unzigzag(raw).to_le_bytes()),
                    ArgType::Bool if raw > 1 => return Err(bad("bool")),
                    ArgType::Bool => out.put(&[raw as u8]),
                    _ => out.put(&raw.to_le_bytes()),
                }
            }
            ArgType::Bytes | ArgType::Str => {
                if wire_type != WIRE_LEN {
                    return Err(bad("wire_type"));
                }
                let len = get_varint(wire, &mut off)? as usize;
                let end = off.saturating_add(len);
                let Some(blob) = wire.get(off..end) else {
                    return Err(PacketError::Truncated {
                        layer: "marshal",
                        need: end,
                        have: wire.len(),
                    });
                };
                off = end;
                if *t == ArgType::Str && std::str::from_utf8(blob).is_err() {
                    return Err(bad("utf8"));
                }
                out.put(&(len as u32).to_le_bytes());
                out.put(blob);
            }
        }
    }
    if off != wire.len() {
        return Err(bad("trailing"));
    }
    Ok(())
}

/// Length of the fixed dispatch form of a varint-encoded payload,
/// validating it exactly as [`transform_to_dispatch_form`] does but
/// producing nothing: the NIC sizes a request (inline, AUX, or the DMA
/// fallback) before materializing it.
pub fn dispatch_form_len(sig: &Signature, wire: &[u8]) -> Result<usize> {
    let mut len = 0usize;
    stream_dispatch_form(sig, wire, &mut len)?;
    Ok(len)
}

/// Appends the fixed dispatch form of a varint-encoded payload to
/// `out` (on error, `out` may hold a partial prefix). With `out`
/// reserved to [`dispatch_form_len`], this allocates nothing.
pub fn append_dispatch_form(sig: &Signature, wire: &[u8], out: &mut Vec<u8>) -> Result<()> {
    stream_dispatch_form(sig, wire, out)
}

/// Transforms a varint-encoded payload into the fixed dispatch form —
/// the operation the Lauberhorn deserialization offload performs in
/// hardware (§5.1). Returns exactly what
/// `FixedCodec.encode(sig, &VarintCodec.decode(sig, wire)?)` returns,
/// in one exactly-sized allocation.
pub fn transform_to_dispatch_form(sig: &Signature, wire: &[u8]) -> Result<Vec<u8>> {
    let mut out = Vec::with_capacity(dispatch_form_len(sig, wire)?);
    append_dispatch_form(sig, wire, &mut out)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sig_and_args() -> (Signature, Vec<Value>) {
        (
            Signature::of(&[
                ArgType::U64,
                ArgType::I64,
                ArgType::Bool,
                ArgType::Bytes,
                ArgType::Str,
            ]),
            vec![
                Value::U64(123456789),
                Value::I64(-42),
                Value::Bool(true),
                Value::Bytes(vec![1, 2, 3]),
                Value::Str("lauberhorn".into()),
            ],
        )
    }

    #[test]
    fn fixed_round_trip() {
        let (sig, args) = sig_and_args();
        let enc = FixedCodec.encode(&sig, &args).unwrap();
        assert_eq!(FixedCodec.decode(&sig, &enc).unwrap(), args);
    }

    #[test]
    fn varint_round_trip() {
        let (sig, args) = sig_and_args();
        let enc = VarintCodec.encode(&sig, &args).unwrap();
        assert_eq!(VarintCodec.decode(&sig, &enc).unwrap(), args);
    }

    #[test]
    fn transform_matches_reencode() {
        let (sig, args) = sig_and_args();
        let wire = VarintCodec.encode(&sig, &args).unwrap();
        let dispatch = transform_to_dispatch_form(&sig, &wire).unwrap();
        assert_eq!(dispatch, FixedCodec.encode(&sig, &args).unwrap());
    }

    #[test]
    fn dispatch_form_len_matches_transform() {
        let (sig, args) = sig_and_args();
        let wire = VarintCodec.encode(&sig, &args).unwrap();
        let fixed = transform_to_dispatch_form(&sig, &wire).unwrap();
        assert_eq!(dispatch_form_len(&sig, &wire), Ok(fixed.len()));
        assert_eq!(fixed.capacity(), fixed.len(), "one exactly-sized buffer");
    }

    #[test]
    fn huge_declared_length_is_truncation_not_overflow() {
        let sig = Signature::of(&[ArgType::Bytes]);
        // Tag for field 1 length-delimited, then a length of u64::MAX.
        let mut raw = vec![0x0a];
        raw.extend_from_slice(&[0xff; 9]);
        raw.push(0x01);
        let want = Err(PacketError::Truncated {
            layer: "marshal",
            need: usize::MAX,
            have: raw.len(),
        });
        assert_eq!(VarintCodec.decode(&sig, &raw).map(|_| ()), want);
        assert_eq!(transform_to_dispatch_form(&sig, &raw).map(|_| ()), want);
    }

    #[test]
    fn varint_is_compact_for_small_ints() {
        let sig = Signature::of(&[ArgType::U64]);
        let enc = VarintCodec.encode(&sig, &[Value::U64(5)]).unwrap();
        assert_eq!(enc.len(), 2); // Tag + one varint byte.
        let fixed = FixedCodec.encode(&sig, &[Value::U64(5)]).unwrap();
        assert_eq!(fixed.len(), 8);
    }

    #[test]
    fn zigzag_round_trips_extremes() {
        for v in [0i64, -1, 1, i64::MIN, i64::MAX, -123456789] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn type_mismatch_rejected() {
        let sig = Signature::of(&[ArgType::U64]);
        let err = FixedCodec.encode(&sig, &[Value::Bool(true)]);
        assert!(matches!(
            err,
            Err(PacketError::BadField { field: "type", .. })
        ));
        let err = VarintCodec.encode(&sig, &[]);
        assert!(matches!(
            err,
            Err(PacketError::BadField { field: "arity", .. })
        ));
    }

    #[test]
    fn truncated_inputs_rejected() {
        let (sig, args) = sig_and_args();
        for codec_out in [
            FixedCodec.encode(&sig, &args).unwrap(),
            VarintCodec.encode(&sig, &args).unwrap(),
        ] {
            let cut = &codec_out[..codec_out.len() - 2];
            assert!(
                FixedCodec.decode(&sig, cut).is_err() || VarintCodec.decode(&sig, cut).is_err()
            );
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        let sig = Signature::of(&[ArgType::Bool]);
        let mut enc = FixedCodec.encode(&sig, &[Value::Bool(false)]).unwrap();
        enc.push(0xff);
        assert!(matches!(
            FixedCodec.decode(&sig, &enc),
            Err(PacketError::BadField {
                field: "trailing",
                ..
            })
        ));
        let mut enc = VarintCodec.encode(&sig, &[Value::Bool(false)]).unwrap();
        enc.push(0x00);
        assert!(VarintCodec.decode(&sig, &enc).is_err());
    }

    #[test]
    fn invalid_utf8_rejected() {
        let sig = Signature::of(&[ArgType::Str]);
        let enc = FixedCodec
            .encode(&sig, &[Value::Bytes(vec![0xff, 0xfe])])
            .err();
        assert!(enc.is_some()); // Type mismatch already.
                                // Hand-craft invalid UTF-8 in the fixed layout.
        let mut raw = 2u32.to_le_bytes().to_vec();
        raw.extend_from_slice(&[0xff, 0xfe]);
        assert!(matches!(
            FixedCodec.decode(&sig, &raw),
            Err(PacketError::BadField { field: "utf8", .. })
        ));
    }

    #[test]
    fn overlong_varint_rejected() {
        let sig = Signature::of(&[ArgType::U64]);
        // Tag, then an 11-byte varint (> 64 bits of shift).
        let mut raw = vec![0x08];
        raw.extend_from_slice(&[0x80; 10]);
        raw.push(0x01);
        assert!(matches!(
            VarintCodec.decode(&sig, &raw),
            Err(PacketError::BadField {
                field: "varint",
                ..
            })
        ));
    }

    #[test]
    fn bad_bool_values_rejected_by_both() {
        let sig = Signature::of(&[ArgType::Bool]);
        assert!(FixedCodec.decode(&sig, &[7]).is_err());
        // Varint: tag for field 1 varint, value 7.
        assert!(VarintCodec.decode(&sig, &[0x08, 0x07]).is_err());
    }
}
