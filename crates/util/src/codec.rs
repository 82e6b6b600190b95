//! Explicit binary wire codec.
//!
//! Every protocol message in CarlOS-rs crosses the simulated network as a
//! byte vector produced by this codec, so the message *sizes* reported by
//! the benchmark tables are the sizes of real encodings, not estimates.
//!
//! The format is little-endian, length-prefixed, and deliberately simple:
//! fixed-width integers, `u32`-length-prefixed byte strings and sequences.
//! Varints are intentionally not used — the 1994 systems the paper describes
//! sent fixed-width fields, and fixed widths make size accounting auditable.

use bytes::{Buf, BufMut, Bytes, BytesMut};

/// Error returned when a decode runs off the end of the buffer or reads an
/// implausible length prefix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer ended before the field was complete.
    Truncated {
        /// How many bytes the decoder needed.
        needed: usize,
        /// How many bytes remained.
        remaining: usize,
    },
    /// A length prefix exceeded the bytes remaining in the buffer.
    BadLength {
        /// The claimed length.
        claimed: usize,
        /// How many bytes remained.
        remaining: usize,
    },
    /// An enumeration discriminant had no defined meaning.
    BadTag {
        /// The unknown discriminant value.
        tag: u32,
        /// The type being decoded, for diagnostics.
        what: &'static str,
    },
}

impl core::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::Truncated { needed, remaining } => {
                write!(f, "truncated field: needed {needed} bytes, {remaining} remain")
            }
            Self::BadLength { claimed, remaining } => {
                write!(f, "bad length prefix: claimed {claimed}, {remaining} remain")
            }
            Self::BadTag { tag, what } => write!(f, "unknown tag {tag} for {what}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Encoder wrapping a growable byte buffer.
#[derive(Debug, Default)]
pub struct Encoder {
    buf: BytesMut,
}

impl Encoder {
    /// Creates an empty encoder with room for a small message: most
    /// encodings are a few words, and growing from nothing reallocates at
    /// 8, 16 and 32 bytes on the way there.
    #[must_use]
    pub fn new() -> Self {
        Self::with_capacity(64)
    }

    /// Creates an encoder with `cap` bytes preallocated.
    #[must_use]
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            buf: BytesMut::with_capacity(cap),
        }
    }

    /// Ensures room for `additional` more bytes, so a caller that knows
    /// what it is about to append grows the buffer once.
    pub fn reserve(&mut self, additional: usize) {
        self.buf.reserve(additional);
    }

    /// Appends a `u8`.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.put_u8(v);
    }

    /// Appends a `u16` (little-endian).
    pub fn put_u16(&mut self, v: u16) {
        self.buf.put_u16_le(v);
    }

    /// Appends a `u32` (little-endian).
    pub fn put_u32(&mut self, v: u32) {
        self.buf.put_u32_le(v);
    }

    /// Appends a `u64` (little-endian).
    pub fn put_u64(&mut self, v: u64) {
        self.buf.put_u64_le(v);
    }

    /// Appends an `f64` as its IEEE-754 bit pattern.
    pub fn put_f64(&mut self, v: f64) {
        self.buf.put_u64_le(v.to_bits());
    }

    /// Appends a `u32` length prefix followed by the raw bytes.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_u32(v.len() as u32);
        self.buf.put_slice(v);
    }

    /// Appends what [`Encoder::put_bytes`] appends for `n` zero bytes,
    /// without building them first.
    pub fn put_zeros(&mut self, n: usize) {
        self.put_u32(n as u32);
        self.buf.put_bytes(0, n);
    }

    /// Appends raw bytes with no length prefix (for fixed-size payloads).
    pub fn put_raw(&mut self, v: &[u8]) {
        self.buf.put_slice(v);
    }

    /// Appends a `u32` element count followed by each element via `f`.
    pub fn put_seq<T>(&mut self, items: &[T], mut f: impl FnMut(&mut Self, &T)) {
        self.put_u32(items.len() as u32);
        for item in items {
            f(self, item);
        }
    }

    /// Number of bytes encoded so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been encoded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Finishes encoding, returning the immutable byte string.
    #[must_use]
    pub fn finish(self) -> Bytes {
        self.buf.freeze()
    }

    /// Finishes encoding, returning an owned `Vec<u8>`.
    ///
    /// This reuses the encoder's buffer allocation; it does not copy.
    #[must_use]
    pub fn finish_vec(self) -> Vec<u8> {
        self.buf.into()
    }

    /// Finishes encoding, returning the still-mutable buffer.
    ///
    /// Used by senders that encode a payload with headroom for a framing
    /// header, fill the header in place, and then freeze the whole buffer
    /// once — so the wire copy and any retransmission queue share one
    /// allocation.
    #[must_use]
    pub fn finish_mut(self) -> BytesMut {
        self.buf
    }
}

/// Decoder over a borrowed byte slice. Cloning it is a cheap look-ahead:
/// the clone advances on its own.
#[derive(Debug, Clone)]
pub struct Decoder<'a> {
    buf: &'a [u8],
}

impl<'a> Decoder<'a> {
    /// Creates a decoder over `buf`.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf }
    }

    fn need(&self, n: usize) -> Result<(), DecodeError> {
        if self.buf.remaining() < n {
            Err(DecodeError::Truncated {
                needed: n,
                remaining: self.buf.remaining(),
            })
        } else {
            Ok(())
        }
    }

    /// Reads a `u8`.
    pub fn get_u8(&mut self) -> Result<u8, DecodeError> {
        self.need(1)?;
        Ok(self.buf.get_u8())
    }

    /// Reads a `u16` (little-endian).
    pub fn get_u16(&mut self) -> Result<u16, DecodeError> {
        self.need(2)?;
        Ok(self.buf.get_u16_le())
    }

    /// Reads a `u32` (little-endian).
    pub fn get_u32(&mut self) -> Result<u32, DecodeError> {
        self.need(4)?;
        Ok(self.buf.get_u32_le())
    }

    /// Reads a `u64` (little-endian).
    pub fn get_u64(&mut self) -> Result<u64, DecodeError> {
        self.need(8)?;
        Ok(self.buf.get_u64_le())
    }

    /// Reads an `f64` from its IEEE-754 bit pattern.
    pub fn get_f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads a `u32`-length-prefixed byte string without copying it.
    pub fn get_byte_slice(&mut self) -> Result<&'a [u8], DecodeError> {
        let len = self.get_u32()? as usize;
        if self.buf.remaining() < len {
            return Err(DecodeError::BadLength {
                claimed: len,
                remaining: self.buf.remaining(),
            });
        }
        let (bytes, rest) = self.buf.split_at(len);
        self.buf = rest;
        Ok(bytes)
    }

    /// Reads a `u32`-length-prefixed byte string.
    pub fn get_bytes(&mut self) -> Result<Vec<u8>, DecodeError> {
        self.get_byte_slice().map(<[u8]>::to_vec)
    }

    /// Reads `n` raw bytes (no length prefix) without copying them.
    pub fn get_raw_slice(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        self.need(n)?;
        let (bytes, rest) = self.buf.split_at(n);
        self.buf = rest;
        Ok(bytes)
    }

    /// Reads `n` raw bytes (no length prefix).
    pub fn get_raw(&mut self, n: usize) -> Result<Vec<u8>, DecodeError> {
        self.get_raw_slice(n).map(<[u8]>::to_vec)
    }

    /// Reads a `u32`-count-prefixed sequence, decoding each element via `f`.
    pub fn get_seq<T>(
        &mut self,
        mut f: impl FnMut(&mut Self) -> Result<T, DecodeError>,
    ) -> Result<Vec<T>, DecodeError> {
        let n = self.get_u32()? as usize;
        // Each element is at least one byte; reject absurd counts early.
        if n > self.buf.remaining() {
            return Err(DecodeError::BadLength {
                claimed: n,
                remaining: self.buf.remaining(),
            });
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(f(self)?);
        }
        Ok(out)
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.remaining()
    }

    /// Returns an error unless the whole buffer was consumed.
    pub fn expect_end(&self) -> Result<(), DecodeError> {
        if self.buf.remaining() == 0 {
            Ok(())
        } else {
            Err(DecodeError::BadLength {
                claimed: 0,
                remaining: self.buf.remaining(),
            })
        }
    }
}

/// A type with a canonical wire encoding.
pub trait Wire: Sized {
    /// Appends this value's encoding to `enc`.
    fn encode(&self, enc: &mut Encoder);

    /// Decodes a value from `dec`.
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError>;

    /// Convenience: encodes into a fresh byte vector.
    fn to_wire(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        self.encode(&mut enc);
        enc.finish_vec()
    }

    /// Convenience: decodes from a full buffer, requiring full consumption.
    fn from_wire(buf: &[u8]) -> Result<Self, DecodeError> {
        let mut dec = Decoder::new(buf);
        let v = Self::decode(&mut dec)?;
        dec.expect_end()?;
        Ok(v)
    }

    /// Size in bytes of this value's encoding.
    fn wire_size(&self) -> usize {
        let mut enc = Encoder::new();
        self.encode(&mut enc);
        enc.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrip() {
        let mut e = Encoder::new();
        e.put_u8(0xAB);
        e.put_u16(0xCDEF);
        e.put_u32(0xDEAD_BEEF);
        e.put_u64(0x0123_4567_89AB_CDEF);
        e.put_f64(-1.25e10);
        let buf = e.finish_vec();
        assert_eq!(buf.len(), 1 + 2 + 4 + 8 + 8);

        let mut d = Decoder::new(&buf);
        assert_eq!(d.get_u8().unwrap(), 0xAB);
        assert_eq!(d.get_u16().unwrap(), 0xCDEF);
        assert_eq!(d.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(d.get_u64().unwrap(), 0x0123_4567_89AB_CDEF);
        assert_eq!(d.get_f64().unwrap(), -1.25e10);
        d.expect_end().unwrap();
    }

    #[test]
    fn zeros_are_a_byte_string_of_zeros() {
        for n in [0, 1, 90] {
            let (mut zeros, mut bytes) = (Encoder::new(), Encoder::new());
            zeros.put_u8(7);
            bytes.put_u8(7);
            zeros.put_zeros(n);
            bytes.put_bytes(&vec![0; n]);
            assert_eq!(zeros.finish_vec(), bytes.finish_vec());
        }
    }

    #[test]
    fn byte_slices_borrow_from_the_input() {
        let mut e = Encoder::new();
        e.put_bytes(b"abc");
        e.put_u8(9);
        let buf = e.finish_vec();
        let mut d = Decoder::new(&buf);
        assert_eq!(d.get_byte_slice().unwrap(), &buf[4..7]);
        assert_eq!(d.get_u8().unwrap(), 9);
        d.expect_end().unwrap();
        assert!(matches!(
            Decoder::new(&buf[..6]).get_byte_slice(),
            Err(DecodeError::BadLength {
                claimed: 3,
                remaining: 2
            })
        ));
    }

    #[test]
    fn bytes_roundtrip() {
        let mut e = Encoder::new();
        e.put_bytes(b"hello world");
        e.put_bytes(b"");
        let buf = e.finish_vec();
        let mut d = Decoder::new(&buf);
        assert_eq!(d.get_bytes().unwrap(), b"hello world");
        assert_eq!(d.get_bytes().unwrap(), b"");
        d.expect_end().unwrap();
    }

    #[test]
    fn seq_roundtrip() {
        let items = vec![3u32, 1, 4, 1, 5, 9];
        let mut e = Encoder::new();
        e.put_seq(&items, |e, &v| e.put_u32(v));
        let buf = e.finish_vec();
        let mut d = Decoder::new(&buf);
        let back = d.get_seq(|d| d.get_u32()).unwrap();
        assert_eq!(back, items);
    }

    #[test]
    fn truncated_scalar_errors() {
        let buf = [0x01u8, 0x02];
        let mut d = Decoder::new(&buf);
        assert!(matches!(d.get_u32(), Err(DecodeError::Truncated { .. })));
    }

    #[test]
    fn bad_length_prefix_errors() {
        let mut e = Encoder::new();
        e.put_u32(1000); // claims 1000 bytes follow
        e.put_u8(1);
        let buf = e.finish_vec();
        let mut d = Decoder::new(&buf);
        assert!(matches!(d.get_bytes(), Err(DecodeError::BadLength { .. })));
    }

    #[test]
    fn bad_seq_count_errors() {
        let mut e = Encoder::new();
        e.put_u32(u32::MAX); // absurd element count
        let buf = e.finish_vec();
        let mut d = Decoder::new(&buf);
        assert!(matches!(
            d.get_seq(|d| d.get_u32()),
            Err(DecodeError::BadLength { .. })
        ));
    }

    #[test]
    fn expect_end_rejects_trailing_garbage() {
        let buf = [1u8, 2, 3];
        let mut d = Decoder::new(&buf);
        let _ = d.get_u8().unwrap();
        assert!(d.expect_end().is_err());
    }

    #[test]
    fn wire_trait_roundtrip() {
        #[derive(Debug, PartialEq)]
        struct Point {
            x: u32,
            y: u32,
        }
        impl Wire for Point {
            fn encode(&self, enc: &mut Encoder) {
                enc.put_u32(self.x);
                enc.put_u32(self.y);
            }
            fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
                Ok(Self {
                    x: dec.get_u32()?,
                    y: dec.get_u32()?,
                })
            }
        }
        let p = Point { x: 7, y: 9 };
        assert_eq!(p.wire_size(), 8);
        let back = Point::from_wire(&p.to_wire()).unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn decode_error_display_is_informative() {
        let e = DecodeError::BadTag { tag: 9, what: "Annotation" };
        assert!(e.to_string().contains("Annotation"));
        let e = DecodeError::Truncated { needed: 4, remaining: 1 };
        assert!(e.to_string().contains('4'));
    }
}
