//! Offline stand-in for the `bytes` crate.
//!
//! The build environment has no access to crates.io, so this workspace
//! member provides the subset of the `bytes` 1.x API that CarlOS-rs uses:
//! [`Bytes`] (a cheaply cloneable, sliceable, reference-counted immutable
//! byte buffer), [`BytesMut`] (a growable buffer that freezes into
//! [`Bytes`] without copying), and the [`Buf`] / [`BufMut`] cursor traits.
//!
//! Semantics match the real crate for the operations provided; anything
//! not used by this repository is intentionally absent.

use std::ops::{Deref, DerefMut};
use std::sync::Arc;

/// A cheaply cloneable, immutable, shareable byte buffer.
///
/// Cloning and [`Bytes::slice`] are O(1): all handles share one allocation
/// behind an [`Arc`]. This is what makes the transport's store / forward /
/// retransmit paths zero-copy.
#[derive(Clone, Default)]
pub struct Bytes {
    data: Arc<Vec<u8>>,
    off: usize,
    len: usize,
}

impl Bytes {
    /// An empty buffer (no allocation).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// A buffer holding a copy of `s` (allocates once).
    #[must_use]
    pub fn copy_from_slice(s: &[u8]) -> Self {
        Self::from(s.to_vec())
    }

    /// A buffer over static data (allocates a holder, copies once here;
    /// the real crate is allocation-free — acceptable for a shim).
    #[must_use]
    pub fn from_static(s: &'static [u8]) -> Self {
        Self::copy_from_slice(s)
    }

    /// Number of bytes viewed.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the view is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// An O(1) sub-view sharing this buffer's allocation.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    #[must_use]
    pub fn slice(&self, range: impl std::ops::RangeBounds<usize>) -> Self {
        let start = match range.start_bound() {
            std::ops::Bound::Included(&n) => n,
            std::ops::Bound::Excluded(&n) => n + 1,
            std::ops::Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            std::ops::Bound::Included(&n) => n + 1,
            std::ops::Bound::Excluded(&n) => n,
            std::ops::Bound::Unbounded => self.len,
        };
        assert!(start <= end && end <= self.len, "slice out of bounds");
        Self {
            data: Arc::clone(&self.data),
            off: self.off + start,
            len: end - start,
        }
    }

    /// Copies the viewed bytes into a fresh `Vec`.
    #[must_use]
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_ref().to_vec()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data[self.off..self.off + self.len]
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl std::borrow::Borrow<[u8]> for Bytes {
    fn borrow(&self) -> &[u8] {
        self
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        let len = v.len();
        Self {
            data: Arc::new(v),
            off: 0,
            len,
        }
    }
}

impl From<&[u8]> for Bytes {
    fn from(s: &[u8]) -> Self {
        Self::copy_from_slice(s)
    }
}

impl From<BytesMut> for Bytes {
    fn from(b: BytesMut) -> Self {
        b.freeze()
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_ref() == other.as_ref()
    }
}
impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_ref() == other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_ref() == other.as_slice()
    }
}

impl<const N: usize> PartialEq<[u8; N]> for Bytes {
    fn eq(&self, other: &[u8; N]) -> bool {
        self.as_ref() == other
    }
}

impl<const N: usize> PartialEq<&[u8; N]> for Bytes {
    fn eq(&self, other: &&[u8; N]) -> bool {
        self.as_ref() == *other
    }
}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "b\"")?;
        for &b in self.iter() {
            for esc in std::ascii::escape_default(b) {
                write!(f, "{}", esc as char)?;
            }
        }
        write!(f, "\"")
    }
}

impl std::hash::Hash for Bytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_ref().hash(state);
    }
}

/// A growable byte buffer that freezes into [`Bytes`] without copying.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct BytesMut {
    buf: Vec<u8>,
}

impl BytesMut {
    /// An empty buffer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty buffer with `cap` bytes preallocated.
    #[must_use]
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Bytes written so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Ensures room for `additional` more bytes.
    pub fn reserve(&mut self, additional: usize) {
        self.buf.reserve(additional);
    }

    /// Converts into an immutable [`Bytes`] handle. O(1): the backing
    /// allocation moves, it is not copied.
    #[must_use]
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.buf)
    }

    /// Copies the contents into a fresh `Vec` (the real crate's `to_vec`;
    /// prefer [`BytesMut::freeze`] or `Vec::from` to avoid the copy).
    #[must_use]
    pub fn to_vec(&self) -> Vec<u8> {
        self.buf.clone()
    }
}

impl From<BytesMut> for Vec<u8> {
    fn from(b: BytesMut) -> Self {
        b.buf
    }
}

impl From<Vec<u8>> for BytesMut {
    fn from(buf: Vec<u8>) -> Self {
        Self { buf }
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.buf
    }
}

impl DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.buf
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        &self.buf
    }
}

/// Read cursor over a byte source (API subset of `bytes::Buf`).
pub trait Buf {
    /// Bytes left to consume.
    fn remaining(&self) -> usize;
    /// The unconsumed bytes.
    fn chunk(&self) -> &[u8];
    /// Consumes `n` bytes.
    fn advance(&mut self, n: usize);

    /// Reads one byte.
    fn get_u8(&mut self) -> u8 {
        let v = self.chunk()[0];
        self.advance(1);
        v
    }

    /// Reads a little-endian `u16`.
    fn get_u16_le(&mut self) -> u16 {
        let mut b = [0u8; 2];
        self.copy_to_slice(&mut b);
        u16::from_le_bytes(b)
    }

    /// Reads a little-endian `u32`.
    fn get_u32_le(&mut self) -> u32 {
        let mut b = [0u8; 4];
        self.copy_to_slice(&mut b);
        u32::from_le_bytes(b)
    }

    /// Reads a little-endian `u64`.
    fn get_u64_le(&mut self) -> u64 {
        let mut b = [0u8; 8];
        self.copy_to_slice(&mut b);
        u64::from_le_bytes(b)
    }

    /// Copies `dst.len()` bytes out, consuming them.
    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        dst.copy_from_slice(&self.chunk()[..dst.len()]);
        self.advance(dst.len());
    }
}

impl Buf for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }
    fn chunk(&self) -> &[u8] {
        self
    }
    fn advance(&mut self, n: usize) {
        *self = &self[n..];
    }
}

/// Write cursor over a growable byte sink (API subset of `bytes::BufMut`).
pub trait BufMut {
    /// Appends raw bytes.
    fn put_slice(&mut self, src: &[u8]);

    /// Appends one byte.
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    /// Appends a little-endian `u16`.
    fn put_u16_le(&mut self, v: u16) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Appends `cnt` copies of `val`.
    fn put_bytes(&mut self, val: u8, cnt: usize);
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.buf.extend_from_slice(src);
    }
    fn put_bytes(&mut self, val: u8, cnt: usize) {
        self.buf.put_bytes(val, cnt);
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
    fn put_bytes(&mut self, val: u8, cnt: usize) {
        self.resize(self.len() + cnt, val);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn freeze_is_zero_copy_view() {
        let mut b = BytesMut::with_capacity(8);
        b.put_u32_le(0xDEAD_BEEF);
        let frozen = b.freeze();
        assert_eq!(frozen.len(), 4);
        assert_eq!(&frozen[..], &0xDEAD_BEEFu32.to_le_bytes());
    }

    #[test]
    fn slice_shares_and_bounds_check() {
        let b = Bytes::from(vec![1, 2, 3, 4, 5]);
        let s = b.slice(1..4);
        assert_eq!(&s[..], &[2, 3, 4]);
        let s2 = s.slice(..2);
        assert_eq!(&s2[..], &[2, 3]);
        assert_eq!(b.len(), 5);
    }

    #[test]
    fn clone_is_cheap_and_equal() {
        let b = Bytes::from(vec![9u8; 1024]);
        let c = b.clone();
        assert_eq!(b, c);
        assert_eq!(Arc::strong_count(&b.data), 2);
    }

    #[test]
    fn buf_cursor_over_slice() {
        let data = [1u8, 0, 0, 0, 0xFF];
        let mut cur: &[u8] = &data;
        assert_eq!(cur.get_u32_le(), 1);
        assert_eq!(cur.remaining(), 1);
        assert_eq!(cur.get_u8(), 0xFF);
        assert_eq!(cur.remaining(), 0);
    }
}
