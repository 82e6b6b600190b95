//! Run-length-encoded page diffs.
//!
//! "On a write-access fault to a protected page, a copy (a twin) is created
//! and the page is marked read-write. When [needed], the page is compared
//! with its twin and the modifications are recorded in a run-length encoded
//! diff structure" (§4.2). Applying an appropriate sequence of diffs,
//! perhaps from multiple writers, brings an invalid page up to date.

use carlos_util::codec::{DecodeError, Decoder, Encoder, Wire};

use crate::vc::Vc;

/// Bytes of run header in a diff buffer: `offset` and `len`, `u32` LE each.
const RUN_HEADER: usize = 8;

/// A run-length-encoded description of the difference between a page and
/// its twin.
///
/// A diff is stored the way it travels: one exact-size buffer holding
/// `([offset u32 LE][len u32 LE][len bytes])*`, the body of the wire
/// encoding, with runs in increasing, non-overlapping offset order when
/// [`Diff::create`] built it. Creating, cloning and decoding a diff each
/// allocate once, encoding is one copy, and a retained diff costs
/// `8 * runs + modified_bytes` heap bytes however many runs it has.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Diff {
    /// Exactly `runs` well-formed records, back to back, and nothing else:
    /// both constructors guarantee it and [`Diff::runs`] relies on it.
    buf: Box<[u8]>,
    runs: u32,
}

/// SWAR constants for the has-zero-byte test: `x` contains a zero byte iff
/// `(x - LOW_BITS) & !x & HIGH_BITS != 0`.
const LOW_BITS: u64 = 0x0101_0101_0101_0101;
const HIGH_BITS: u64 = 0x8080_8080_8080_8080;

#[inline]
fn load_word(s: &[u8], i: usize) -> u64 {
    u64::from_ne_bytes(s[i..i + 8].try_into().expect("8-byte chunk"))
}

/// Equal stretches are skipped this many bytes at a time first: a slice
/// comparison of this size compiles to a vectorised `memcmp`, and most of a
/// page being diffed is unchanged.
const BLOCK: usize = 128;

/// First index `>= i` where the slices disagree (or `len` if none): whole
/// equal blocks, then whole equal words, are skipped; bytes are only
/// examined inside the first differing word.
#[inline]
fn first_mismatch(a: &[u8], b: &[u8], mut i: usize) -> usize {
    let n = a.len();
    while i + BLOCK <= n && a[i..i + BLOCK] == b[i..i + BLOCK] {
        i += BLOCK;
    }
    while i + 8 <= n && load_word(a, i) == load_word(b, i) {
        i += 8;
    }
    while i < n && a[i] == b[i] {
        i += 1;
    }
    i
}

/// First index `>= i` where the slices agree (or `len` if none): words in
/// which all 8 bytes differ (their XOR has no zero byte) are skipped whole;
/// bytes are only examined inside the first word holding an equal byte.
#[inline]
fn first_match(a: &[u8], b: &[u8], mut i: usize) -> usize {
    let n = a.len();
    while i + 8 <= n {
        let x = load_word(a, i) ^ load_word(b, i);
        if x.wrapping_sub(LOW_BITS) & !x & HIGH_BITS != 0 {
            break;
        }
        i += 8;
    }
    while i < n && a[i] != b[i] {
        i += 1;
    }
    i
}

/// Calls `run(start, end)` for each maximal stretch `start..end` where
/// `twin` and `current` disagree, in increasing order. The scan compares a
/// block or a word at a time and touches individual bytes only inside
/// boundary words.
#[inline]
fn scan_runs(twin: &[u8], current: &[u8], mut run: impl FnMut(usize, usize)) {
    let n = twin.len();
    let mut i = first_mismatch(twin, current, 0);
    while i < n {
        let start = i;
        i = first_match(twin, current, i + 1);
        run(start, i);
        i = first_mismatch(twin, current, i);
    }
}

impl Diff {
    /// Computes the diff that rewrites `twin` into `current`.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths, or are too long for
    /// `u32` offsets.
    #[must_use]
    pub fn create(twin: &[u8], current: &[u8]) -> Self {
        assert_eq!(twin.len(), current.len(), "twin/page size mismatch");
        assert!(u32::try_from(twin.len()).is_ok(), "page too large to diff");
        // The first scan sizes the buffer, so it is allocated once and
        // exactly; the second, over the dirty span alone, writes the runs
        // straight into it. A lone run is its span: nothing to find again.
        let (mut runs, mut modified, mut lo, mut hi) = (0, 0, 0, 0);
        scan_runs(twin, current, |start, end| {
            if runs == 0 {
                lo = start;
            }
            hi = end;
            runs += 1;
            modified += end - start;
        });
        let mut buf = Vec::with_capacity(RUN_HEADER * runs + modified);
        let mut push = |start: usize, end: usize| {
            buf.extend_from_slice(&(start as u32).to_le_bytes());
            buf.extend_from_slice(&((end - start) as u32).to_le_bytes());
            buf.extend_from_slice(&current[start..end]);
        };
        if runs == 1 {
            push(lo, hi);
        } else {
            scan_runs(&twin[lo..hi], &current[lo..hi], |start, end| {
                push(lo + start, lo + end);
            });
        }
        Self {
            buf: buf.into_boxed_slice(),
            runs: runs as u32,
        }
    }

    /// The modified runs as `(offset, new bytes)`, in stored order.
    pub fn runs(&self) -> impl Iterator<Item = (u32, &[u8])> {
        let mut rest = &*self.buf;
        std::iter::from_fn(move || {
            let (offset, tail) = rest.split_first_chunk::<4>()?;
            let (len, tail) = tail.split_first_chunk::<4>()?;
            let (data, tail) = tail.split_at(u32::from_le_bytes(*len) as usize);
            rest = tail;
            Some((u32::from_le_bytes(*offset), data))
        })
    }

    /// Applies the diff to `page` in place.
    ///
    /// # Panics
    ///
    /// Panics if a run extends past the end of the page (a malformed diff).
    pub fn apply(&self, page: &mut [u8]) {
        for (offset, data) in self.runs() {
            let start = offset as usize;
            let end = start + data.len();
            assert!(end <= page.len(), "diff run out of page bounds");
            page[start..end].copy_from_slice(data);
        }
    }

    /// True if the diff changes nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.runs == 0
    }

    /// Total number of modified bytes described.
    #[must_use]
    pub fn modified_bytes(&self) -> usize {
        self.buf.len() - RUN_HEADER * self.runs as usize
    }

    /// Size in bytes of the wire encoding.
    #[must_use]
    pub fn wire_len(&self) -> usize {
        4 + self.buf.len()
    }
}

impl Wire for Diff {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u32(self.runs);
        enc.put_raw(&self.buf);
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let runs = dec.get_u32()?;
        // A count the remaining bytes cannot hold is rejected before any
        // run is looked at (the check `Decoder::get_seq` makes).
        if runs as usize > dec.remaining() {
            return Err(DecodeError::BadLength {
                claimed: runs as usize,
                remaining: dec.remaining(),
            });
        }
        // Walk the runs on a look-ahead to validate them and find where
        // they end, then copy them out in one piece.
        let mut walk = dec.clone();
        for _ in 0..runs {
            walk.get_u32()?;
            walk.get_byte_slice()?;
        }
        let buf = dec.get_raw_slice(dec.remaining() - walk.remaining())?;
        Ok(Self {
            buf: buf.into(),
            runs,
        })
    }
}

/// A stored, shippable diff: which node produced it, for which page, and
/// which of the producer's intervals it covers.
///
/// Because diffing is lazy, one record may cover several consecutive
/// intervals of its creator (`first..=last`): the page was dirtied across
/// multiple release points before anyone requested the modifications.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiffRecord {
    /// The node whose modifications this diff describes.
    pub node: u32,
    /// The page the diff applies to.
    pub page: u32,
    /// First interval index of `node` covered by this record.
    pub first: u32,
    /// Last interval index of `node` covered by this record.
    pub last: u32,
    /// The creator's vector timestamp when the diff was created; used to
    /// order diffs from multiple writers before application.
    pub vc: Vc,
    /// The encoded modifications.
    pub diff: Diff,
}

impl DiffRecord {
    /// Size in bytes of the wire encoding, without encoding it.
    #[must_use]
    pub fn wire_len(&self) -> usize {
        16 + self.vc.wire_len() + self.diff.wire_len()
    }
}

impl Wire for DiffRecord {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u32(self.node);
        enc.put_u32(self.page);
        enc.put_u32(self.first);
        enc.put_u32(self.last);
        self.vc.encode(enc);
        self.diff.encode(enc);
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(Self {
            node: dec.get_u32()?,
            page: dec.get_u32()?,
            first: dec.get_u32()?,
            last: dec.get_u32()?,
            vc: Vc::decode(dec)?,
            diff: Diff::decode(dec)?,
        })
    }
}

/// Sorts diff records into a linear extension of happened-before, so that
/// causally later diffs overwrite earlier ones when applied in order.
///
/// The key is `(vc.sum(), node, last)`: if record A's timestamp is strictly
/// dominated by record B's, then `sum(A) < sum(B)`, so A sorts first;
/// concurrent records (necessarily from different writers touching disjoint
/// bytes in a data-race-free program) tie-break deterministically.
pub fn sort_causally(records: &mut [DiffRecord]) {
    records.sort_by_key(|r| (r.vc.sum(), r.node, r.last));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vc2(a: u32, b: u32) -> Vc {
        let mut v = Vc::new(2);
        v.set(0, a);
        v.set(1, b);
        v
    }

    /// The byte-at-a-time scanner: the executable specification of which
    /// runs a diff holds.
    fn reference_runs(twin: &[u8], current: &[u8]) -> Vec<(u32, Vec<u8>)> {
        let mut runs = Vec::new();
        let mut i = 0;
        while i < twin.len() {
            if twin[i] == current[i] {
                i += 1;
                continue;
            }
            let start = i;
            while i < twin.len() && twin[i] != current[i] {
                i += 1;
            }
            runs.push((start as u32, current[start..i].to_vec()));
        }
        runs
    }

    fn runs_of(d: &Diff) -> Vec<(u32, Vec<u8>)> {
        d.runs()
            .map(|(offset, data)| (offset, data.to_vec()))
            .collect()
    }

    #[test]
    fn create_empty_for_identical() {
        let a = vec![7u8; 64];
        let d = Diff::create(&a, &a);
        assert!(d.is_empty());
        assert_eq!(d.modified_bytes(), 0);
    }

    #[test]
    fn create_single_run() {
        let twin = vec![0u8; 32];
        let mut cur = twin.clone();
        cur[5] = 1;
        cur[6] = 2;
        let d = Diff::create(&twin, &cur);
        assert_eq!(runs_of(&d), vec![(5, vec![1, 2])]);
        assert_eq!(d.modified_bytes(), 2);
    }

    #[test]
    fn create_multiple_runs_and_apply() {
        let twin: Vec<u8> = (0..128).map(|i| i as u8).collect();
        let mut cur = twin.clone();
        cur[0] = 0xFF;
        cur[50] = 0xEE;
        cur[51] = 0xDD;
        cur[127] = 0xCC;
        let d = Diff::create(&twin, &cur);
        assert_eq!(d.runs().count(), 3);
        assert_eq!(d.modified_bytes(), 4);
        let mut rebuilt = twin.clone();
        d.apply(&mut rebuilt);
        assert_eq!(rebuilt, cur);
    }

    #[test]
    fn apply_roundtrip_random() {
        let mut rng = carlos_util::rng::Xoshiro256::new(11);
        for _ in 0..50 {
            let n = 256;
            let twin: Vec<u8> = (0..n).map(|_| rng.next_u64() as u8).collect();
            let mut cur = twin.clone();
            for _ in 0..rng.next_below(40) {
                let i = rng.next_below(n as u64) as usize;
                cur[i] = rng.next_u64() as u8;
            }
            let d = Diff::create(&twin, &cur);
            let mut rebuilt = twin.clone();
            d.apply(&mut rebuilt);
            assert_eq!(rebuilt, cur);
        }
    }

    #[test]
    fn create_matches_reference_scanner_on_random_pages() {
        let mut rng = carlos_util::rng::Xoshiro256::new(99);
        // Unaligned lengths on purpose: the word loop must hand off to the
        // byte tail correctly.
        for n in [0usize, 1, 7, 8, 9, 63, 64, 65, 256, 1021] {
            for _ in 0..20 {
                let twin: Vec<u8> = (0..n).map(|_| rng.next_u64() as u8).collect();
                let mut cur = twin.clone();
                for _ in 0..rng.next_below(32) {
                    if n == 0 {
                        break;
                    }
                    let i = rng.next_below(n as u64) as usize;
                    cur[i] = rng.next_u64() as u8;
                }
                assert_eq!(
                    runs_of(&Diff::create(&twin, &cur)),
                    reference_runs(&twin, &cur)
                );
            }
        }
    }

    #[test]
    fn create_matches_reference_scanner_all_dirty_and_all_clean() {
        for n in [8usize, 13, 64, 4096] {
            let twin = vec![0xAAu8; n];
            let dirty = vec![0x55u8; n];
            assert_eq!(
                runs_of(&Diff::create(&twin, &dirty)),
                vec![(0, dirty.clone())]
            );
            assert_eq!(Diff::create(&twin, &twin), Diff::default());
        }
    }

    #[test]
    fn run_boundary_at_page_end() {
        let twin = vec![0u8; 16];
        let mut cur = twin.clone();
        cur[15] = 9;
        let d = Diff::create(&twin, &cur);
        assert_eq!(runs_of(&d), vec![(15, vec![9])]);
        let mut rebuilt = twin;
        d.apply(&mut rebuilt);
        assert_eq!(rebuilt, cur);
    }

    #[test]
    #[should_panic(expected = "out of page bounds")]
    fn apply_rejects_overflowing_run() {
        // One run, bytes 14..18 of a 16-byte page: well formed on the
        // wire, so it decodes; only the page it meets can refuse it.
        let d = Diff::from_wire(&[1, 0, 0, 0, 14, 0, 0, 0, 4, 0, 0, 0, 1, 2, 3, 4]).unwrap();
        let mut page = vec![0u8; 16];
        d.apply(&mut page);
    }

    /// The encoding of a three-run record as the commit before the flat
    /// layout produced it (a vector of runs, `put_seq` + `put_bytes`): the
    /// stored form is the wire form, so neither may drift.
    #[test]
    fn wire_format_is_pinned() {
        #[rustfmt::skip]
        const LEGACY: [u8; 55] = [
            1, 0, 0, 0, 42, 0, 0, 0, 3, 0, 0, 0, 5, 0, 0, 0, // node, page, first, last
            2, 0, 5, 0, 2, 0, // vc [5, 2]
            3, 0, 0, 0, // three runs
            3, 0, 0, 0, 1, 0, 0, 0, 1,
            20, 0, 0, 0, 3, 0, 0, 0, 7, 8, 9,
            63, 0, 0, 0, 1, 0, 0, 0, 2,
        ];
        let twin = vec![0u8; 64];
        let mut cur = twin.clone();
        cur[3] = 1;
        cur[20..23].copy_from_slice(&[7, 8, 9]);
        cur[63] = 2;
        let rec = DiffRecord {
            node: 1,
            page: 42,
            first: 3,
            last: 5,
            vc: vc2(5, 2),
            diff: Diff::create(&twin, &cur),
        };
        assert_eq!(rec.to_wire(), LEGACY);
        assert_eq!(rec.wire_len(), LEGACY.len());
        assert_eq!(DiffRecord::from_wire(&LEGACY).unwrap(), rec);
        // The stored buffer is the encoding's tail, byte for byte.
        assert_eq!(*rec.diff.buf, LEGACY[26..]);
    }

    #[test]
    fn decode_rejects_what_the_sequence_decoder_rejected() {
        // A run count the remaining bytes cannot hold.
        assert_eq!(
            Diff::from_wire(&[9, 0, 0, 0, 1, 2, 3]),
            Err(DecodeError::BadLength {
                claimed: 9,
                remaining: 3
            })
        );
        // A run header cut short.
        assert_eq!(
            Diff::from_wire(&[1, 0, 0, 0, 5, 0, 0, 0, 1, 0]),
            Err(DecodeError::Truncated {
                needed: 4,
                remaining: 2
            })
        );
        // A run longer than what is left.
        assert_eq!(
            Diff::from_wire(&[1, 0, 0, 0, 5, 0, 0, 0, 3, 0, 0, 0, 7, 7]),
            Err(DecodeError::BadLength {
                claimed: 3,
                remaining: 2
            })
        );
        // Bytes after the last run belong to whoever decodes next.
        let mut dec = Decoder::new(&[1, 0, 0, 0, 5, 0, 0, 0, 1, 0, 0, 0, 7, 0xEE]);
        let d = Diff::decode(&mut dec).unwrap();
        assert_eq!((runs_of(&d), dec.remaining()), (vec![(5, vec![7])], 1));
    }

    #[test]
    fn wire_roundtrip() {
        let twin = vec![0u8; 64];
        let mut cur = twin.clone();
        cur[3] = 1;
        cur[60] = 2;
        let rec = DiffRecord {
            node: 1,
            page: 42,
            first: 3,
            last: 5,
            vc: vc2(5, 2),
            diff: Diff::create(&twin, &cur),
        };
        let back = DiffRecord::from_wire(&rec.to_wire()).unwrap();
        assert_eq!(back, rec);
    }

    #[test]
    fn sort_causally_orders_dominated_first() {
        let early = DiffRecord {
            node: 0,
            page: 0,
            first: 1,
            last: 1,
            vc: vc2(1, 0),
            diff: Diff::default(),
        };
        let late = DiffRecord {
            node: 1,
            page: 0,
            first: 1,
            last: 1,
            vc: vc2(1, 1), // saw node 0's interval, then wrote
            diff: Diff::default(),
        };
        let mut v = vec![late.clone(), early.clone()];
        sort_causally(&mut v);
        assert_eq!(v[0], early);
        assert_eq!(v[1], late);
    }

    #[test]
    fn causally_later_diff_wins() {
        // Node 0 writes byte 0 = 1 (interval vc [1,0]); node 1, having seen
        // it, writes byte 0 = 2 (vc [1,1]). Applying in sorted order must
        // leave 2.
        let base = vec![0u8; 8];
        let mut v1 = base.clone();
        v1[0] = 1;
        let mut v2 = base.clone();
        v2[0] = 2;
        let mut records = vec![
            DiffRecord {
                node: 1,
                page: 0,
                first: 1,
                last: 1,
                vc: vc2(1, 1),
                diff: Diff::create(&base, &v2),
            },
            DiffRecord {
                node: 0,
                page: 0,
                first: 1,
                last: 1,
                vc: vc2(1, 0),
                diff: Diff::create(&base, &v1),
            },
        ];
        sort_causally(&mut records);
        let mut page = base;
        for r in &records {
            r.diff.apply(&mut page);
        }
        assert_eq!(page[0], 2);
    }
}
