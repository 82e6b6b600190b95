//! Run-length-encoded page diffs.
//!
//! "On a write-access fault to a protected page, a copy (a twin) is created
//! and the page is marked read-write. When [needed], the page is compared
//! with its twin and the modifications are recorded in a run-length encoded
//! diff structure" (§4.2). Applying an appropriate sequence of diffs,
//! perhaps from multiple writers, brings an invalid page up to date.

use carlos_util::codec::{DecodeError, Decoder, Encoder, Wire};

use crate::vc::Vc;

/// One modified byte run within a page.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Run {
    /// Byte offset within the page.
    pub offset: u32,
    /// The new bytes starting at `offset`.
    pub data: Vec<u8>,
}

/// A run-length-encoded description of the difference between a page and
/// its twin.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Diff {
    /// Modified runs in increasing, non-overlapping offset order.
    pub runs: Vec<Run>,
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

impl Diff {
    /// Computes the diff that rewrites `twin` into `current`.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    #[must_use]
    pub fn create(twin: &[u8], current: &[u8]) -> Self {
        let mut scratch = Vec::new();
        Self::create_with_scratch(twin, current, &mut scratch)
    }

    /// [`Diff::create`] with a caller-owned scratch vector for run-boundary
    /// assembly, so a hot caller (the LRC engine diffing on every release)
    /// amortizes the boundary allocation across captures. The result is
    /// identical to [`Diff::create_naive`]; the scan compares a word at a
    /// time and touches individual bytes only inside boundary words.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    #[must_use]
    pub fn create_with_scratch(
        twin: &[u8],
        current: &[u8],
        scratch: &mut Vec<(u32, u32)>,
    ) -> Self {
        assert_eq!(twin.len(), current.len(), "twin/page size mismatch");
        scratch.clear();
        let n = twin.len();
        let mut i = 0;
        while i < n {
            i = first_mismatch(twin, current, i);
            if i >= n {
                break;
            }
            let start = i;
            i = first_match(twin, current, i + 1);
            scratch.push((start as u32, i as u32));
        }
        let runs = scratch
            .iter()
            .map(|&(start, end)| Run {
                offset: start,
                data: current[start as usize..end as usize].to_vec(),
            })
            .collect();
        Self { runs }
    }

    /// The straightforward byte-at-a-time diff. Kept as the executable
    /// specification for the word-level scan (property tests assert the two
    /// agree) and as the "before" side of the hot-path benchmarks.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    #[must_use]
    pub fn create_naive(twin: &[u8], current: &[u8]) -> Self {
        assert_eq!(twin.len(), current.len(), "twin/page size mismatch");
        let mut runs = Vec::new();
        let mut i = 0;
        let n = twin.len();
        while i < n {
            if twin[i] == current[i] {
                i += 1;
                continue;
            }
            let start = i;
            while i < n && twin[i] != current[i] {
                i += 1;
            }
            runs.push(Run {
                offset: start as u32,
                data: current[start..i].to_vec(),
            });
        }
        Self { runs }
    }

    /// Applies the diff to `page` in place.
    ///
    /// # Panics
    ///
    /// Panics if a run extends past the end of the page (a malformed diff).
    pub fn apply(&self, page: &mut [u8]) {
        for run in &self.runs {
            let start = run.offset as usize;
            let end = start + run.data.len();
            assert!(end <= page.len(), "diff run out of page bounds");
            page[start..end].copy_from_slice(&run.data);
        }
    }

    /// True if the diff changes nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Total number of modified bytes described.
    #[must_use]
    pub fn modified_bytes(&self) -> usize {
        self.runs.iter().map(|r| r.data.len()).sum()
    }
}

impl Wire for Diff {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_seq(&self.runs, |enc, run| {
            enc.put_u32(run.offset);
            enc.put_bytes(&run.data);
        });
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let runs = dec.get_seq(|dec| {
            Ok(Run {
                offset: dec.get_u32()?,
                data: dec.get_bytes()?,
            })
        })?;
        Ok(Self { runs })
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
        assert_eq!(d.runs.len(), 1);
        assert_eq!(d.runs[0].offset, 5);
        assert_eq!(d.runs[0].data, vec![1, 2]);
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
        assert_eq!(d.runs.len(), 3);
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
    fn word_scan_matches_naive_on_random_pages() {
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
                assert_eq!(Diff::create(&twin, &cur), Diff::create_naive(&twin, &cur));
            }
        }
    }

    #[test]
    fn word_scan_matches_naive_all_dirty_and_all_clean() {
        for n in [8usize, 13, 64, 4096] {
            let twin = vec![0xAAu8; n];
            let dirty = vec![0x55u8; n];
            assert_eq!(
                Diff::create(&twin, &dirty),
                Diff::create_naive(&twin, &dirty)
            );
            assert_eq!(Diff::create(&twin, &dirty).runs.len(), 1);
            assert!(Diff::create(&twin, &twin).is_empty());
        }
    }

    #[test]
    fn scratch_is_reusable_across_captures() {
        let mut scratch = Vec::new();
        let twin = vec![0u8; 128];
        for round in 0..4u8 {
            let mut cur = twin.clone();
            cur[round as usize * 20] = round + 1;
            let d = Diff::create_with_scratch(&twin, &cur, &mut scratch);
            assert_eq!(d, Diff::create_naive(&twin, &cur));
        }
    }

    #[test]
    fn run_boundary_at_page_end() {
        let twin = vec![0u8; 16];
        let mut cur = twin.clone();
        cur[15] = 9;
        let d = Diff::create(&twin, &cur);
        assert_eq!(d.runs.len(), 1);
        assert_eq!(d.runs[0].offset, 15);
        let mut rebuilt = twin;
        d.apply(&mut rebuilt);
        assert_eq!(rebuilt, cur);
    }

    #[test]
    #[should_panic(expected = "out of page bounds")]
    fn apply_rejects_overflowing_run() {
        let d = Diff {
            runs: vec![Run {
                offset: 14,
                data: vec![1, 2, 3, 4],
            }],
        };
        let mut page = vec![0u8; 16];
        d.apply(&mut page);
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
