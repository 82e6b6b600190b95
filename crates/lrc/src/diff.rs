//! Run-length-encoded page diffs.
//!
//! "On a write-access fault to a protected page, a copy (a twin) is created
//! and the page is marked read-write. When [needed], the page is compared
//! with its twin and the modifications are recorded in a run-length encoded
//! diff structure" (§4.2). Applying an appropriate sequence of diffs,
//! perhaps from multiple writers, brings an invalid page up to date.
//!
//! The comparison is made in the consistency model's own unit, the aligned
//! [`WORD`]: a run is a maximal stretch of words that each hold a modified
//! byte, trimmed to its first and last modified byte. An unmodified byte
//! therefore travels only when it shares a word with a modified one —
//! two concurrent writers of one word are a data race the model never
//! allowed (`carlos-check` reports it), so no other writer's byte can be
//! overwritten — and two stretches of modified bytes are joined only
//! across a gap of at most 6 bytes, less than the run header a split
//! would cost.

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

/// Bytes in the sharing unit of the consistency model: concurrent writes
/// by two nodes into one aligned word are a data race, writes to different
/// words never are. The diff scanner and the checker's race detector both
/// take the unit from here.
pub const WORD: usize = 4;

/// The two words at `i`, the first in the low half.
#[inline]
fn load_pair(s: &[u8], i: usize) -> u64 {
    u64::from_le_bytes(s[i..i + 2 * WORD].try_into().expect("two words"))
}

#[inline]
fn load_word(s: &[u8], i: usize) -> u32 {
    u32::from_le_bytes(s[i..i + WORD].try_into().expect("one word"))
}

/// Equal stretches are skipped this many bytes at a time first: a slice
/// comparison of this size compiles to a vectorised `memcmp`, and most of a
/// page being diffed is unchanged.
const BLOCK: usize = 128;

/// First index `>= i` where the slices disagree (at least `len` if none):
/// whole equal blocks, then equal word pairs, are skipped, and the first
/// differing pair's XOR says which byte it is. Always inlined: left to the
/// compiler it becomes a call in both of `create`'s scans, and sparse
/// pages diff 10–40 % slower.
#[inline(always)]
fn first_mismatch(a: &[u8], b: &[u8], mut i: usize) -> usize {
    let n = a.len();
    while i + BLOCK <= n && a[i..i + BLOCK] == b[i..i + BLOCK] {
        i += BLOCK;
    }
    while i + 2 * WORD <= n {
        let x = load_pair(a, i) ^ load_pair(b, i);
        if x != 0 {
            return i + (x.trailing_zeros() / 8) as usize;
        }
        i += 2 * WORD;
    }
    while i < n && a[i] == b[i] {
        i += 1;
    }
    i
}

/// Where a stretch of dirty words that has come within two words of the
/// page's end at `i` stops: the last words are taken one at a time, and
/// the very last may be short.
#[cold]
fn stretch_end_near_page_end(twin: &[u8], current: &[u8], mut i: usize) -> usize {
    let n = twin.len();
    while i < n && twin[i..n.min(i + WORD)] != current[i..n.min(i + WORD)] {
        i += WORD;
    }
    i.min(n)
}

/// Calls `run(start, end)` for each run `start..end`, in increasing order:
/// from a first modified byte, over every following word that holds one
/// (two at a time through one XOR), back to the last modified byte. `twin`
/// must start on a word boundary of the page.
#[inline]
fn scan_runs(twin: &[u8], current: &[u8], mut run: impl FnMut(usize, usize)) {
    let n = twin.len();
    let mut i = 0;
    loop {
        i = first_mismatch(twin, current, i);
        if i >= n {
            return;
        }
        let start = i;
        i = i / WORD * WORD + WORD;
        while i + 2 * WORD <= n {
            let x = load_pair(twin, i) ^ load_pair(current, i);
            if x as u32 == 0 || x >> 32 == 0 {
                i += if x as u32 == 0 { 0 } else { WORD };
                break;
            }
            i += 2 * WORD;
        }
        if i + 2 * WORD > n {
            i = stretch_end_near_page_end(twin, current, i);
        }
        // `i` ends the stretch's last word, whose XOR says where its last
        // modified byte is; a short last word is walked.
        let mut end = i;
        if i % WORD == 0 {
            let x = load_word(twin, i - WORD) ^ load_word(current, i - WORD);
            end -= x.leading_zeros() as usize / 8;
        } else {
            while twin[end - 1] == current[end - 1] {
                end -= 1;
            }
        }
        run(start, end);
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
        // exactly; the second, over the dirty span alone (from the word its
        // first byte is in, so both see the same words), writes the runs
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
            let base = lo / WORD * WORD;
            scan_runs(&twin[base..hi], &current[base..hi], |start, end| {
                push(base + start, base + end);
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

    /// The executable specification of which runs a diff holds: mark the
    /// dirty words, take maximal stretches of them, trim each to its first
    /// and last differing byte.
    fn reference_runs(twin: &[u8], current: &[u8]) -> Vec<(u32, Vec<u8>)> {
        let differs = |i: &usize| twin[*i] != current[*i];
        let dirty: Vec<usize> = (0..twin.len().div_ceil(WORD))
            .filter(|w| (w * WORD..twin.len().min(w * WORD + WORD)).any(|i| differs(&i)))
            .collect();
        dirty
            .chunk_by(|a, b| a + 1 == *b)
            .map(|stretch| {
                let mut bytes =
                    stretch[0] * WORD..twin.len().min(stretch[stretch.len() - 1] * WORD + WORD);
                let start = bytes.find(differs).expect("dirty first word");
                let end = bytes.rfind(differs).unwrap_or(start) + 1;
                (start as u32, current[start..end].to_vec())
            })
            .collect()
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
    fn runs_join_across_dirty_words_and_nowhere_else() {
        let twin = vec![0u8; 24];
        let edit = |at: &[usize]| {
            let mut cur = twin.clone();
            at.iter().for_each(|&i| cur[i] = 9);
            runs_of(&Diff::create(&twin, &cur))
        };
        // Neighbouring words, the widest gap there is: one 8-byte run
        // (16 B with its header) where two 1-byte runs cost 18.
        assert_eq!(edit(&[0, 7]), vec![(0, vec![9, 0, 0, 0, 0, 0, 0, 9])]);
        // A narrower gap with a clean word inside it stays split: no byte
        // of word 1 may travel.
        assert_eq!(edit(&[3, 8]), vec![(3, vec![9]), (8, vec![9])]);
        // Within one word the bytes between two changes ride along.
        assert_eq!(edit(&[13, 15]), vec![(13, vec![9, 0, 9])]);
        // A stretch runs on while every word differs, then is trimmed.
        assert_eq!(
            edit(&[6, 9, 12, 21]),
            vec![(6, vec![9, 0, 0, 9, 0, 0, 9]), (21, vec![9])]
        );
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
