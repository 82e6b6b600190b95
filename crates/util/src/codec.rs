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
///
/// Every `put_*` is `#[inline]`: they are called once per field of every
/// message, from other crates, and without LTO a non-generic function
/// does not inline across a crate boundary unless it says so.
#[derive(Debug, Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// Creates an empty encoder with room for a small message: most
    /// encodings are a few words, and growing from nothing reallocates at
    /// 8, 16 and 32 bytes on the way there.
    #[must_use]
    #[inline]
    pub fn new() -> Self {
        Self::with_capacity(64)
    }

    /// Creates an encoder with `cap` bytes preallocated.
    #[must_use]
    #[inline]
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Ensures room for `additional` more bytes, so a caller that knows
    /// what it is about to append grows the buffer once.
    #[inline]
    pub fn reserve(&mut self, additional: usize) {
        self.buf.reserve(additional);
    }

    /// Appends a `u8`.
    #[inline]
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u16` (little-endian).
    #[inline]
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u32` (little-endian).
    #[inline]
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64` (little-endian).
    #[inline]
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its IEEE-754 bit pattern.
    #[inline]
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a `u32` length prefix followed by the raw bytes.
    #[inline]
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_u32(v.len() as u32);
        self.buf.extend_from_slice(v);
    }

    /// Appends what [`Encoder::put_bytes`] appends for `n` zero bytes,
    /// without building them first.
    #[inline]
    pub fn put_zeros(&mut self, n: usize) {
        self.put_u32(n as u32);
        self.buf.resize(self.buf.len() + n, 0);
    }

    /// Appends raw bytes with no length prefix (for fixed-size payloads).
    #[inline]
    pub fn put_raw(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
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
    #[inline]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been encoded.
    #[must_use]
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Finishes encoding, returning the encoder's own buffer (no copy).
    #[must_use]
    #[inline]
    pub fn finish_vec(self) -> Vec<u8> {
        self.buf
    }
}

/// Decoder over a borrowed byte slice. Cloning it is a cheap look-ahead:
/// the clone advances on its own.
///
/// Each fixed-width getter is one bounds check (`split_first_chunk`) and
/// is `#[inline]` for the same reason as the [`Encoder`]'s setters.
#[derive(Debug, Clone)]
pub struct Decoder<'a> {
    buf: &'a [u8],
}

impl<'a> Decoder<'a> {
    /// Creates a decoder over `buf`.
    #[must_use]
    #[inline]
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf }
    }

    /// Consumes the next `N` bytes.
    #[inline]
    fn take<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        let Some((head, rest)) = self.buf.split_first_chunk::<N>() else {
            return Err(self.truncated(N));
        };
        self.buf = rest;
        Ok(*head)
    }

    #[cold]
    fn truncated(&self, needed: usize) -> DecodeError {
        DecodeError::Truncated {
            needed,
            remaining: self.buf.len(),
        }
    }

    /// Reads a `u8`.
    #[inline]
    pub fn get_u8(&mut self) -> Result<u8, DecodeError> {
        self.take::<1>().map(|[b]| b)
    }

    /// Reads a `u16` (little-endian).
    #[inline]
    pub fn get_u16(&mut self) -> Result<u16, DecodeError> {
        self.take().map(u16::from_le_bytes)
    }

    /// Reads a `u32` (little-endian).
    #[inline]
    pub fn get_u32(&mut self) -> Result<u32, DecodeError> {
        self.take().map(u32::from_le_bytes)
    }

    /// Reads a `u64` (little-endian).
    #[inline]
    pub fn get_u64(&mut self) -> Result<u64, DecodeError> {
        self.take().map(u64::from_le_bytes)
    }

    /// Reads an `f64` from its IEEE-754 bit pattern.
    #[inline]
    pub fn get_f64(&mut self) -> Result<f64, DecodeError> {
        self.get_u64().map(f64::from_bits)
    }

    /// Reads a `u32`-length-prefixed byte string without copying it.
    #[inline]
    pub fn get_byte_slice(&mut self) -> Result<&'a [u8], DecodeError> {
        let len = self.get_u32()? as usize;
        let Some((bytes, rest)) = self.buf.split_at_checked(len) else {
            return Err(DecodeError::BadLength {
                claimed: len,
                remaining: self.buf.len(),
            });
        };
        self.buf = rest;
        Ok(bytes)
    }

    /// Reads a `u32`-length-prefixed byte string.
    #[inline]
    pub fn get_bytes(&mut self) -> Result<Vec<u8>, DecodeError> {
        self.get_byte_slice().map(<[u8]>::to_vec)
    }

    /// Reads `n` raw bytes (no length prefix) without copying them.
    #[inline]
    pub fn get_raw_slice(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let Some((bytes, rest)) = self.buf.split_at_checked(n) else {
            return Err(self.truncated(n));
        };
        self.buf = rest;
        Ok(bytes)
    }

    /// Reads a `u32`-count-prefixed sequence, decoding each element via `f`.
    pub fn get_seq<T>(
        &mut self,
        mut f: impl FnMut(&mut Self) -> Result<T, DecodeError>,
    ) -> Result<Vec<T>, DecodeError> {
        let n = self.get_u32()? as usize;
        // Each element is at least one byte; reject absurd counts early.
        if n > self.buf.len() {
            return Err(DecodeError::BadLength {
                claimed: n,
                remaining: self.buf.len(),
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
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    /// Returns an error unless the whole buffer was consumed.
    #[inline]
    pub fn expect_end(&self) -> Result<(), DecodeError> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(DecodeError::BadLength {
                claimed: 0,
                remaining: self.buf.len(),
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

#[cfg(test)]
mod props {
    //! The decoder's contract on untrusted input: every getter returns
    //! `Ok` or `Err`, never panics, and never reads past the end; and
    //! whatever the encoder writes, the matching getters read back.

    use super::*;
    use proptest::prelude::*;

    /// Applies getter `op` and returns what it read, re-encoded, with the
    /// length of the prefix it skipped to get there.
    fn read_back(dec: &mut Decoder<'_>, op: u8) -> Result<(Vec<u8>, usize), DecodeError> {
        Ok(match op {
            0 => (vec![dec.get_u8()?], 0),
            1 => (dec.get_u16()?.to_le_bytes().to_vec(), 0),
            2 => (dec.get_u32()?.to_le_bytes().to_vec(), 0),
            3 => (dec.get_u64()?.to_le_bytes().to_vec(), 0),
            4 => (dec.get_f64()?.to_bits().to_le_bytes().to_vec(), 0),
            5 => (dec.get_byte_slice()?.to_vec(), 4),
            6 => (dec.get_bytes()?, 4),
            7 => (
                <[u8; 3]>::try_from(dec.get_raw_slice(3)?).unwrap().to_vec(),
                0,
            ),
            _ => {
                let v = dec.get_seq(|d| d.get_u16())?;
                (v.iter().flat_map(|x| x.to_le_bytes()).collect(), 4)
            }
        })
    }

    /// A value written by one `put_*` and read back by its `get_*`.
    #[derive(Debug, Clone, PartialEq)]
    enum Field {
        U8(u8),
        U16(u16),
        U32(u32),
        U64(u64),
        F64(u64),
        Bytes(Vec<u8>),
        Zeros(usize),
        Seq(Vec<u16>),
    }

    fn field() -> impl Strategy<Value = Field> {
        (
            0u8..8,
            any::<u64>(),
            proptest::collection::vec(any::<u8>(), 0..9),
        )
            .prop_map(|(kind, v, bytes)| match kind {
                0 => Field::U8(v as u8),
                1 => Field::U16(v as u16),
                2 => Field::U32(v as u32),
                3 => Field::U64(v),
                4 => Field::F64(v),
                5 => Field::Bytes(bytes),
                6 => Field::Zeros(bytes.len()),
                _ => Field::Seq(bytes.iter().map(|&b| u16::from(b) << 3).collect()),
            })
    }

    fn put(enc: &mut Encoder, f: &Field) {
        match f {
            Field::U8(v) => enc.put_u8(*v),
            Field::U16(v) => enc.put_u16(*v),
            Field::U32(v) => enc.put_u32(*v),
            Field::U64(v) => enc.put_u64(*v),
            Field::F64(bits) => enc.put_f64(f64::from_bits(*bits)),
            Field::Bytes(b) => enc.put_bytes(b),
            Field::Zeros(n) => enc.put_zeros(*n),
            Field::Seq(s) => enc.put_seq(s, |e, &v| e.put_u16(v)),
        }
    }

    fn get(dec: &mut Decoder<'_>, like: &Field) -> Result<Field, DecodeError> {
        Ok(match like {
            Field::U8(_) => Field::U8(dec.get_u8()?),
            Field::U16(_) => Field::U16(dec.get_u16()?),
            Field::U32(_) => Field::U32(dec.get_u32()?),
            Field::U64(_) => Field::U64(dec.get_u64()?),
            Field::F64(_) => Field::F64(dec.get_f64()?.to_bits()),
            Field::Bytes(_) => Field::Bytes(dec.get_bytes()?),
            Field::Zeros(_) => {
                let s = dec.get_byte_slice()?;
                assert!(s.iter().all(|&b| b == 0));
                Field::Zeros(s.len())
            }
            Field::Seq(_) => Field::Seq(dec.get_seq(|d| d.get_u16())?),
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

        #[test]
        fn getters_never_panic_on_arbitrary_bytes(
            data in proptest::collection::vec(any::<u8>(), 0..48),
            ops in proptest::collection::vec(0u8..9, 1..24),
        ) {
            let mut dec = Decoder::new(&data);
            for op in ops {
                let pos = data.len() - dec.remaining();
                if let Ok((read, prefix)) = read_back(&mut dec, op) {
                    // Exactly the bytes after `pos` were consumed.
                    let end = data.len() - dec.remaining();
                    prop_assert_eq!(&data[pos + prefix..end], &read[..]);
                }
            }
            prop_assert_eq!(dec.expect_end().is_ok(), dec.remaining() == 0);
        }

        #[test]
        fn every_put_reads_back_through_its_get(
            fields in proptest::collection::vec(field(), 0..16),
        ) {
            let mut enc = Encoder::new();
            for f in &fields {
                put(&mut enc, f);
            }
            let buf = enc.finish_vec();
            let mut dec = Decoder::new(&buf);
            for f in &fields {
                prop_assert_eq!(&get(&mut dec, f).expect("own encoding"), f);
            }
            prop_assert!(dec.expect_end().is_ok());
            // Every strict prefix runs out somewhere: an error, not a panic
            // and not a value read from beyond the cut.
            for cut in 0..buf.len() {
                let mut dec = Decoder::new(&buf[..cut]);
                let whole = fields.iter().all(|f| get(&mut dec, f).is_ok());
                prop_assert!(!whole, "a {cut}-byte prefix of {} decoded", buf.len());
            }
        }
    }
}
