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
//!
//! Diff records live in one flat layout, [`Diffs`], from the twin to the
//! wire and back: a writer captures its diffs straight into its store,
//! serving a fetch encodes views of the store, a release's payload and a
//! fetch reply decode into a batch, and applying reads views of it. A
//! record is read as a [`DiffView`]; a lone record is a batch of one.

use carlos_util::codec::{DecodeError, Decoder, Encoder, Wire};

use crate::vc::wire_component;

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
/// compiler it becomes a call in the scanner's loop, and sparse pages diff
/// 10–40 % slower.
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

/// Runs whose bounds the scan keeps, 4 KiB of stack: every run a 4 KiB
/// page can hold (a run takes a dirty word and the clean word after it)
/// and all but the last few of Quicksort's densest 8 KiB pages, which make
/// up to 540. A page with more has the span after the last one kept
/// scanned again. (Twice as many would cover every 8 KiB page at twice
/// the stack, and a frame's pages stay resident on every proc's
/// coroutine stack.)
const KEPT: usize = 512;

/// The first runs, whose bounds have an array of their own: a page of few
/// runs zeroes 128 bytes of stack, not 4 KiB.
const KEPT_HEAD: usize = 16;

/// Appends the runs between `twin` and `current` to the buffer `room`
/// returns once it has made room for their `len` bytes of encoding, and
/// returns how many there are. One scan finds and measures them all and
/// keeps their bounds, so writing them compares no byte again (Quicksort's
/// partitioned 8 KiB pages make up to 540 runs each). The bounds stay in
/// this one frame: returned from a measuring function, they were copied
/// on every call, and a clean page diffed a tenth slower.
///
/// # Panics
///
/// Panics if the slices have different lengths, or are too long for
/// `u32` offsets.
fn write_runs<'b>(twin: &[u8], current: &[u8], room: impl FnOnce(usize) -> &'b mut Vec<u8>) -> u32 {
    assert_eq!(twin.len(), current.len(), "twin/page size mismatch");
    assert!(u32::try_from(twin.len()).is_ok(), "page too large to diff");
    let (mut runs, mut modified, mut hi, mut kept_end) = (0usize, 0, 0, 0);
    // Each array is made at its first run, so a clean page zeroes neither.
    let mut head: Option<[[u32; 2]; KEPT_HEAD]> = None;
    let mut tail: Option<[[u32; 2]; KEPT - KEPT_HEAD]> = None;
    scan_runs(twin, current, |start, end| {
        let bounds = match runs.checked_sub(KEPT_HEAD) {
            None => head.get_or_insert([[0; 2]; KEPT_HEAD]).get_mut(runs),
            Some(r) => tail.get_or_insert([[0; 2]; KEPT - KEPT_HEAD]).get_mut(r),
        };
        if let Some(b) = bounds {
            *b = [start as u32, end as u32];
            kept_end = end;
        }
        (runs, modified, hi) = (runs + 1, modified + end - start, end);
    });
    let out = room(RUN_HEADER * runs + modified);
    let mut push = |start: usize, end: usize| {
        out.extend_from_slice(&(start as u32).to_le_bytes());
        out.extend_from_slice(&((end - start) as u32).to_le_bytes());
        out.extend_from_slice(&current[start..end]);
    };
    let head = head.as_ref().map_or(&[][..], |b| &b[..runs.min(KEPT_HEAD)]);
    let tail = tail
        .as_ref()
        .map_or(&[][..], |b| &b[..runs.min(KEPT) - KEPT_HEAD]);
    for &[start, end] in head.iter().chain(tail) {
        push(start as usize, end as usize);
    }
    if runs > KEPT {
        // From the word after the last kept run, which its stretch left
        // clean, so both scans see the same words.
        let base = kept_end.div_ceil(WORD) * WORD;
        scan_runs(&twin[base..hi], &current[base..hi], |start, end| {
            push(base + start, base + end);
        });
    }
    runs as u32
}

/// The runs in `buf`, `([offset u32 LE][len u32 LE][len bytes])*`, as
/// `(offset, new bytes)`.
fn runs_in(buf: &[u8]) -> impl Iterator<Item = (u32, &[u8])> {
    let mut rest = buf;
    std::iter::from_fn(move || {
        let (offset, tail) = rest.split_first_chunk::<4>()?;
        let (len, tail) = tail.split_first_chunk::<4>()?;
        let (data, tail) = tail.split_at(u32::from_le_bytes(*len) as usize);
        rest = tail;
        Some((u32::from_le_bytes(*offset), data))
    })
}

/// Writes the runs in `buf` into `page`.
///
/// # Panics
///
/// Panics if a run extends past the end of the page (a malformed diff).
fn apply_runs(buf: &[u8], page: &mut [u8]) {
    for (offset, data) in runs_in(buf) {
        let start = offset as usize;
        let end = start + data.len();
        assert!(end <= page.len(), "diff run out of page bounds");
        page[start..end].copy_from_slice(data);
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
        // The scan sizes the buffer, so it is allocated once and exactly;
        // the runs it found are then written straight into it.
        let mut buf = Vec::new();
        let runs = write_runs(twin, current, |len| {
            buf.reserve_exact(len);
            &mut buf
        });
        Self {
            buf: buf.into_boxed_slice(),
            runs,
        }
    }

    /// The modified runs as `(offset, new bytes)`, in stored order.
    pub fn runs(&self) -> impl Iterator<Item = (u32, &[u8])> {
        runs_in(&self.buf)
    }

    /// Applies the diff to `page` in place.
    ///
    /// # Panics
    ///
    /// Panics if a run extends past the end of the page (a malformed diff).
    pub fn apply(&self, page: &mut [u8]) {
        apply_runs(&self.buf, page);
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

    /// The diff as the record of `[node, page, first, last]` with clock
    /// `vt`, to push onto a [`Diffs`] batch.
    #[must_use]
    pub fn view<'a>(&'a self, [node, page, first, last]: [u32; 4], vt: &'a [u32]) -> DiffView<'a> {
        DiffView {
            node,
            page,
            first,
            last,
            vt,
            runs: self.runs,
            buf: &self.buf,
        }
    }
}

impl Wire for Diff {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u32(self.runs);
        enc.put_raw(&self.buf);
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let (runs, buf) = decode_runs(dec)?;
        Ok(Self {
            buf: buf.into(),
            runs,
        })
    }
}

/// Decodes a diff's run count and, validated in a look-ahead walk, the
/// runs as one slice.
fn decode_runs<'a>(dec: &mut Decoder<'a>) -> Result<(u32, &'a [u8]), DecodeError> {
    let runs = dec.get_u32()?;
    // A count the remaining bytes cannot hold is rejected before any run
    // is looked at (the check `Decoder::get_seq` makes).
    if runs as usize > dec.remaining() {
        return Err(DecodeError::BadLength {
            claimed: runs as usize,
            remaining: dec.remaining(),
        });
    }
    let mut walk = dec.clone();
    for _ in 0..runs {
        walk.get_u32()?;
        walk.get_byte_slice()?;
    }
    Ok((runs, dec.get_raw_slice(dec.remaining() - walk.remaining())?))
}

/// One diff record read in place: which node produced it, for which page,
/// and which of the producer's intervals it covers. The engine captures
/// one per interval, at its close, so its records have `first == last`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiffView<'a> {
    /// The node whose modifications this diff describes.
    pub node: u32,
    /// The page the diff applies to.
    pub page: u32,
    /// First interval index of `node` covered by this record.
    pub first: u32,
    /// Last interval index of `node` covered by this record.
    pub last: u32,
    /// The creator's vector timestamp when the diff was created.
    pub vt: &'a [u32],
    pub(crate) runs: u32,
    /// `runs` well-formed runs, back to back: a [`Diff`]'s buffer.
    pub(crate) buf: &'a [u8],
}

impl<'a> DiffView<'a> {
    /// The modified runs as `(offset, new bytes)`, in stored order.
    pub fn runs(&self) -> impl Iterator<Item = (u32, &'a [u8])> {
        runs_in(self.buf)
    }

    /// Applies the diff to `page` in place.
    ///
    /// # Panics
    ///
    /// Panics if a run extends past the end of the page (a malformed diff).
    pub fn apply(&self, page: &mut [u8]) {
        apply_runs(self.buf, page);
    }

    /// Total number of modified bytes described.
    #[must_use]
    pub fn modified_bytes(&self) -> usize {
        self.buf.len() - RUN_HEADER * self.runs as usize
    }

    /// Size in bytes of the wire encoding.
    #[must_use]
    pub fn wire_len(&self) -> usize {
        16 + 2 + 2 * self.vt.len() + 4 + self.buf.len()
    }

    /// Bytes of the runs: their headers and new bytes.
    #[must_use]
    pub fn run_bytes(&self) -> usize {
        self.buf.len()
    }

    /// Encodes the record: node, page, first and last, the clock (a `u16`
    /// width and a `u16` a component), the run count and the runs.
    pub fn encode(&self, enc: &mut Encoder) {
        enc.put_u32(self.node);
        enc.put_u32(self.page);
        enc.put_u32(self.first);
        enc.put_u32(self.last);
        enc.put_u16(self.vt.len() as u16);
        for (c, &v) in self.vt.iter().enumerate() {
            enc.put_u16(wire_component(c as u32, v));
        }
        enc.put_u32(self.runs);
        enc.put_raw(self.buf);
    }

    /// The multi-writer application order: sorting by this key gives a
    /// linear extension of happened-before, so causally later diffs
    /// overwrite earlier ones when applied in order. If record A's
    /// timestamp is strictly dominated by record B's, then `sum(A) <
    /// sum(B)`, so A sorts first; concurrent records (necessarily from
    /// different writers touching disjoint bytes in a data-race-free
    /// program) tie-break deterministically by `(node, last)`.
    #[must_use]
    pub fn causal_key(&self) -> (u64, u32, u32) {
        causal_key(self.node, self.last, self.vt)
    }
}

/// [`DiffView::causal_key`] of a record of `node` ending at interval
/// `last` with clock `vt`.
fn causal_key(node: u32, last: u32, vt: &[u32]) -> (u64, u32, u32) {
    (vt.iter().map(|&v| u64::from(v)).sum(), node, last)
}

/// Header words of a record in a [`Diffs`] batch before its clock: node,
/// page, first, last, run count, and the end of its runs in the bytes.
const HEAD: usize = 6;

/// Diff records in one flat layout: header words in one array, run bytes
/// in another. Record `i`'s header is the words `words[i * (HEAD + n)..]`:
/// node, page, first, last, run count, the end of its runs (they start
/// where record `i - 1`'s end), then its clock (`n` words). A creator's
/// store, a fetch reply's payload and a release's are each one, so no
/// record is a heap allocation of its own.
///
/// A batch sized before it is filled keeps its runs in one array. A store
/// filled one record at a time never moves a run to grow: when a record
/// does not fit, the array is sealed, trimmed to its runs, and a new one
/// begun, a fraction of the whole; offsets run on across arrays. (A store
/// of 8 KiB diffs that grew by reallocation held both the old and the new
/// array at each step, and its process's resident memory grew by about
/// the store's size.)
///
/// A node's own diffs are stored with `n = 0`: each one's clock is its
/// interval's, which the interval log holds already.
#[derive(Debug, Clone, Default)]
pub struct Diffs {
    /// Clock width of every record.
    n: usize,
    words: Vec<u32>,
    /// The runs from offset `self.base()` on.
    bytes: Vec<u8>,
    /// The runs before, in the arrays that held them, each with the offset
    /// it starts at.
    sealed: Vec<(u32, Box<[u8]>)>,
}

/// Bytes of runs from which a store seals a full array rather than move
/// it: below, moving is cheap and sealing would only add allocations.
const SEAL_AT: usize = 1 << 16;

/// The room a store adds for `extra` more elements of which it holds
/// `len`: exactly `extra` the first time, and after that at least an
/// eighth of `len` and 256 bytes, not double — a store of large diffs keeps
/// little slack, and one filled a record at a time still grows only
/// logarithmically often.
fn step<T>(has: bool, len: usize, extra: usize) -> usize {
    if has {
        extra.max(len / 8).max(256 / std::mem::size_of::<T>())
    } else {
        extra
    }
}

impl Diffs {
    /// An empty batch.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn stride(&self) -> usize {
        HEAD + self.n
    }

    /// Number of records.
    #[must_use]
    #[inline]
    pub fn len(&self) -> usize {
        self.words.len() / self.stride()
    }

    /// True when the batch holds no record.
    #[must_use]
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Record `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    #[inline]
    pub fn get(&self, i: usize) -> DiffView<'_> {
        let stride = self.stride();
        let head = &self.words[i * stride..(i + 1) * stride];
        let start = i.checked_sub(1).map_or(0, |p| self.words[p * stride + 5] as usize);
        DiffView {
            node: head[0],
            page: head[1],
            first: head[2],
            last: head[3],
            vt: &head[HEAD..],
            runs: head[4],
            buf: self.runs_at(start, head[5] as usize),
        }
    }

    /// The offset the current byte array starts at.
    fn base(&self) -> usize {
        self.sealed.last().map_or(0, |(start, runs)| *start as usize + runs.len())
    }

    /// The run bytes at offsets `start..end`, which one array holds.
    fn runs_at(&self, start: usize, end: usize) -> &[u8] {
        let base = self.base();
        if start >= base {
            return &self.bytes[start - base..end - base];
        }
        let sealed = self.sealed.partition_point(|(at, _)| *at as usize <= start) - 1;
        let (at, runs) = &self.sealed[sealed];
        &runs[start - *at as usize..end - *at as usize]
    }

    /// The records in order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = DiffView<'_>> + '_ {
        (0..self.len()).map(|i| self.get(i))
    }

    /// True when a record covers interval `index` of `node`; read from the
    /// headers alone.
    pub(crate) fn covers(&self, node: u32, index: u32) -> bool {
        self.words
            .chunks_exact(self.stride())
            .any(|h| h[0] == node && h[2] <= index && index <= h[3])
    }

    /// Record `i`'s [`DiffView::causal_key`], read from its header alone.
    pub(crate) fn causal_key(&self, i: usize) -> (u64, u32, u32) {
        let h = &self.words[i * self.stride()..(i + 1) * self.stride()];
        causal_key(h[0], h[3], &h[HEAD..])
    }

    fn set_width(&mut self, n: usize) {
        if self.is_empty() {
            self.n = n;
        }
        assert_eq!(self.n, n, "diff records of {} and {n} nodes in one batch", self.n);
    }

    /// Makes room for `records` more records of clock width `n` holding
    /// `bytes` bytes of runs ([`DiffView::run_bytes`]) in one array: the
    /// header words grow by at least an eighth, and the runs go on in the
    /// current byte array or, if they do not fit, in a new one.
    ///
    /// # Panics
    ///
    /// Panics if the batch holds records of another width.
    pub fn reserve(&mut self, n: usize, records: usize, bytes: usize) {
        self.set_width(n);
        let words = records * self.stride();
        if self.words.capacity() - self.words.len() < words {
            let add = step::<u32>(self.words.capacity() > 0, self.words.len(), words);
            self.words.reserve_exact(add);
        }
        if self.bytes.capacity() - self.bytes.len() < bytes {
            let total = self.base() + self.bytes.len();
            let add = step::<u8>(self.bytes.capacity() > 0 || total > 0, total, bytes);
            if self.bytes.is_empty() || total < SEAL_AT {
                self.bytes.reserve_exact(add);
            } else {
                let start = self.base() as u32;
                let full = std::mem::replace(&mut self.bytes, Vec::with_capacity(add));
                self.sealed.push((start, full.into_boxed_slice()));
            }
        }
    }

    /// Appends the header `[node, page, first, last]` of a record of
    /// `runs` runs and clock `vt`, whose runs end the bytes.
    fn push_head(&mut self, head: [u32; 4], runs: u32, vt: &[u32]) {
        let end = self.base() + self.bytes.len();
        let end = u32::try_from(end).expect("diff batch past 4 GiB");
        self.words.extend_from_slice(&head);
        self.words.extend_from_slice(&[runs, end]);
        self.words.extend_from_slice(vt);
    }

    /// Appends `rec`.
    ///
    /// # Panics
    ///
    /// Panics if its clock width differs from the batch's.
    pub fn push(&mut self, rec: DiffView<'_>) {
        self.reserve(rec.vt.len(), 1, rec.buf.len());
        self.bytes.extend_from_slice(rec.buf);
        self.push_head([rec.node, rec.page, rec.first, rec.last], rec.runs, rec.vt);
    }

    /// Appends every record of `src`, one copy per array.
    pub fn extend(&mut self, src: &Diffs) {
        if src.is_empty() {
            return;
        }
        let bytes = src.base() + src.bytes.len();
        self.reserve(src.n, src.len(), bytes);
        let (stride, end) = (self.stride(), (self.base() + self.bytes.len()) as u32);
        let from = self.words.len();
        self.words.extend_from_slice(&src.words);
        for head in self.words[from..].chunks_exact_mut(stride) {
            head[5] += end;
        }
        for (_, runs) in &src.sealed {
            self.bytes.extend_from_slice(runs);
        }
        self.bytes.extend_from_slice(&src.bytes);
    }

    /// Appends, without a clock, the diff that rewrites `twin` into
    /// `current`, as interval `index` of `node` on `page`: the runs are
    /// written straight into the bytes.
    pub(crate) fn capture(
        &mut self,
        node: u32,
        page: u32,
        index: u32,
        twin: &[u8],
        current: &[u8],
    ) {
        let runs = write_runs(twin, current, |len| {
            self.reserve(0, 1, len);
            &mut self.bytes
        });
        self.push_head([node, page, index, index], runs, &[]);
    }

    /// Size in bytes of the encoding ([`Wire`]).
    #[must_use]
    pub fn wire_len(&self) -> usize {
        4 + self.iter().map(|r| r.wire_len()).sum::<usize>()
    }

    /// Decodes one record onto the arrays, which hold room for it.
    fn decode_record(&mut self, dec: &mut Decoder<'_>) -> Result<(), DecodeError> {
        let start = self.words.len();
        for _ in 0..4 {
            self.words.push(dec.get_u32()?);
        }
        // Run count and end, known once the runs are decoded.
        self.words.extend_from_slice(&[0, 0]);
        let width = usize::from(dec.get_u16()?);
        if width != self.n {
            return Err(DecodeError::BadLength {
                claimed: width,
                remaining: dec.remaining(),
            });
        }
        for _ in 0..width {
            self.words.push(u32::from(dec.get_u16()?));
        }
        let (runs, buf) = decode_runs(dec)?;
        self.bytes.extend_from_slice(buf);
        self.words[start + 4] = runs;
        self.words[start + 5] = self.bytes.len() as u32;
        Ok(())
    }
}

/// `(width, records, bytes of runs)` of the batch at `dec`, walked without
/// decoding.
fn measure(mut dec: Decoder<'_>) -> Result<(usize, usize, usize), DecodeError> {
    let count = dec.get_u32()? as usize;
    if count > dec.remaining() {
        return Err(DecodeError::BadLength {
            claimed: count,
            remaining: dec.remaining(),
        });
    }
    let (mut n, mut bytes) = (None, 0);
    for _ in 0..count {
        dec.get_raw_slice(16)?;
        let width = usize::from(dec.get_u16()?);
        n.get_or_insert(width);
        dec.get_raw_slice(2 * width)?;
        bytes += decode_runs(&mut dec)?.1.len();
    }
    Ok((n.unwrap_or(0), count, bytes))
}

/// A `u32` record count, then each record as [`DiffView::encode`] writes
/// it.
impl Wire for Diffs {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u32(self.len() as u32);
        for rec in self.iter() {
            rec.encode(enc);
        }
    }

    /// Decodes into arrays sized by a first walk over the bytes; every
    /// record of a batch has the same clock width.
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let (n, records, bytes) = measure(dec.clone())?;
        let mut out = Self::new();
        out.n = n;
        out.words.reserve_exact(records * out.stride());
        out.bytes.reserve_exact(bytes);
        for _ in 0..dec.get_u32()? {
            out.decode_record(dec)?;
        }
        Ok(out)
    }
}

impl PartialEq for Diffs {
    /// Same records, however their runs are held; an empty batch's width
    /// does not count.
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl Eq for Diffs {}

/// Sized by a first pass, so each array is allocated once.
impl<'a> FromIterator<DiffView<'a>> for Diffs {
    fn from_iter<I: IntoIterator<Item = DiffView<'a>>>(iter: I) -> Self {
        let recs: Vec<DiffView<'a>> = iter.into_iter().collect();
        let mut out = Self::new();
        if let Some(first) = recs.first() {
            out.reserve(first.vt.len(), recs.len(), recs.iter().map(|r| r.buf.len()).sum());
        }
        recs.into_iter().for_each(|rec| out.push(rec));
        out
    }
}

/// One creator's retained diffs, each covering one interval, found by
/// `(interval, page)`.
#[derive(Debug, Clone, Default)]
pub(crate) struct DiffStore {
    recs: Diffs,
    /// Positions of `recs` in `(first, page)` order; empty while the
    /// records arrive in that order (a node's own always do).
    order: Vec<u32>,
    /// In a node's own store, per record the positions plus one (0: none)
    /// of the previous and the next record of its page, so serving walks a
    /// page's records, not every record of the intervals asked for. Empty
    /// in a fetched store.
    chain: Vec<[u32; 2]>,
}

impl DiffStore {
    pub(crate) fn len(&self) -> usize {
        self.recs.len()
    }

    /// The position of the record `k`-th in `(first, page)` order.
    fn pos(&self, k: usize) -> usize {
        self.order.get(k).map_or(k, |&i| i as usize)
    }

    /// `(first, page)` of the record `k`-th in that order, read from its
    /// header alone.
    fn key(&self, k: usize) -> (u32, u32) {
        let head = &self.recs.words[self.pos(k) * self.recs.stride()..];
        (head[2], head[1])
    }

    /// Where `key` goes in `(first, page)` order.
    fn rank(&self, key: (u32, u32)) -> usize {
        let (mut lo, mut hi) = (0, self.len());
        while lo < hi {
            let mid = (lo + hi) / 2;
            if self.key(mid) < key {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// The records file a new one last at `key` unless it sorts earlier.
    fn file(&mut self, key: (u32, u32)) {
        let len = self.len();
        if self.order.is_empty() && len.checked_sub(1).is_none_or(|last| self.key(last) < key) {
            return;
        }
        if self.order.is_empty() {
            self.order = (0..len as u32).collect();
        }
        let at = self.rank(key);
        self.order.insert(at, len as u32);
    }

    /// Stores the fetched record `rec`.
    pub(crate) fn push(&mut self, rec: DiffView<'_>) {
        debug_assert_eq!(rec.first, rec.last, "stored diffs cover one interval");
        self.file((rec.first, rec.page));
        self.recs.push(rec);
    }

    /// Captures the diff that rewrites `twin` into `current` as interval
    /// `index` of `node` on `page`, without a clock: a node's own. `newest`
    /// is the interval of the page's newest record before it, if any.
    pub(crate) fn capture(
        &mut self,
        (node, page, index, newest): (u32, u32, u32, u32),
        twin: &[u8],
        current: &[u8],
    ) {
        let prev = self.find(page, newest);
        self.file((index, page));
        let at = self.len() as u32 + 1;
        if self.chain.len() == self.chain.capacity() {
            let add = step::<[u32; 2]>(self.chain.capacity() > 0, self.chain.len(), 1);
            self.chain.reserve_exact(add);
        }
        self.chain.push([prev.map_or(0, |p| p as u32 + 1), 0]);
        if let Some(p) = prev {
            self.chain[p][1] = at;
        }
        self.recs.capture(node, page, index, twin, current);
    }

    /// Makes room for `records` more records of width `n` holding `bytes`
    /// bytes of runs.
    pub(crate) fn reserve(&mut self, n: usize, records: usize, bytes: usize) {
        self.recs.reserve(n, records, bytes);
    }

    /// The position of the record covering interval `index` of `page`.
    fn find(&self, page: u32, index: u32) -> Option<usize> {
        let k = self.rank((index, page));
        (k < self.len() && self.key(k) == (index, page)).then(|| self.pos(k))
    }

    /// The record covering interval `index` of `page`.
    pub(crate) fn get(&self, page: u32, index: u32) -> Option<DiffView<'_>> {
        self.find(page, index).map(|p| self.recs.get(p))
    }

    /// The records of `page` covering intervals in `(after, through]`,
    /// oldest first, in a node's own store: from the page's newest record,
    /// at interval `newest`, back along its chain to the first one in
    /// range, then forward.
    pub(crate) fn range(
        &self,
        page: u32,
        after: u32,
        through: u32,
        newest: u32,
    ) -> impl Iterator<Item = DiffView<'_>> {
        let first = |p: usize| self.recs.words[p * self.recs.stride() + 2];
        let link = |p: usize, next: usize| (self.chain[p][next] as usize).checked_sub(1);
        let mut last = self.find(page, newest);
        while let Some(p) = last.filter(|&p| first(p) > through) {
            last = link(p, 0);
        }
        let mut start = last.filter(|&p| first(p) > after);
        while let Some(p) = start.and_then(|p| link(p, 0)).filter(|&p| first(p) > after) {
            start = Some(p);
        }
        std::iter::successors(start, move |&p| if Some(p) == last { None } else { link(p, 1) })
            .map(|p| self.recs.get(p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vc::Vc;

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
    /// layout produced it (a vector of runs: a `u32` count, then each run's offset and bytes): the
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
        let (diff, vc) = (Diff::create(&twin, &cur), vc2(5, 2));
        let rec = diff.view([1, 42, 3, 5], vc.as_slice());
        assert_eq!(rec.wire_len(), LEGACY.len());
        // A batch of one: its count, then the record.
        let one: Diffs = [rec].into_iter().collect();
        let wire = [&[1, 0, 0, 0][..], &LEGACY].concat();
        assert_eq!(one.to_wire(), wire);
        assert_eq!(Diffs::from_wire(&wire).unwrap(), one);
        // The stored buffer is the encoding's tail, byte for byte.
        assert_eq!(*diff.buf, LEGACY[26..]);
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
        let (diff, vc) = (Diff::create(&twin, &cur), vc2(5, 2));
        let one: Diffs = [diff.view([1, 42, 3, 5], vc.as_slice())].into_iter().collect();
        let back = Diffs::from_wire(&one.to_wire()).unwrap();
        assert_eq!(back, one);
    }

    #[test]
    fn sort_causally_orders_dominated_first() {
        let (empty, a, b) = (Diff::default(), vc2(1, 0), vc2(1, 1));
        let early = empty.view([0, 0, 1, 1], a.as_slice());
        // Saw node 0's interval, then wrote.
        let late = empty.view([1, 0, 1, 1], b.as_slice());
        let mut v = [late, early];
        v.sort_by_key(DiffView::causal_key);
        assert_eq!(v, [early, late]);
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
        let (d1, d2) = (Diff::create(&base, &v1), Diff::create(&base, &v2));
        let (a, b) = (vc2(1, 0), vc2(1, 1));
        let mut records = [d2.view([1, 0, 1, 1], b.as_slice()), d1.view([0, 0, 1, 1], a.as_slice())];
        records.sort_by_key(DiffView::causal_key);
        let mut page = base;
        for r in &records {
            r.apply(&mut page);
        }
        assert_eq!(page[0], 2);
    }

    /// A 4 KiB page pair whose diff is `runs` one-byte runs from byte `at`
    /// on, every eighth byte.
    fn pages(at: usize, runs: usize) -> (Vec<u8>, Vec<u8>) {
        let twin = vec![0u8; 4096];
        let mut cur = twin.clone();
        for r in 0..runs {
            cur[at + 8 * r] = (r + 1) as u8;
        }
        (twin, cur)
    }

    #[test]
    fn a_store_filled_a_record_at_a_time_moves_no_sealed_run() {
        let mut store = DiffStore::default();
        let (mut first, mut newest) = (None, [0; 5]);
        for index in 1..=200u32 {
            let (twin, cur) = pages(index as usize % 8, 1 + index as usize % 400);
            let page = (index % 5 + index / 50 % 2) % 5;
            store.capture((3, page, index, newest[page as usize]), &twin, &cur);
            newest[page as usize] = index;
            let rec = store.get(page, index).expect("just captured");
            let created = Diff::create(&twin, &cur);
            assert_eq!((rec.runs, rec.buf), (created.runs, &*created.buf));
            assert!(rec.vt.is_empty(), "an own diff's clock is its interval's");
            // Below `SEAL_AT` the array grows in place; once sealed, a run
            // stays where it is.
            if !store.recs.sealed.is_empty() {
                let runs = store.get(1, 1).expect("the first record").buf.as_ptr();
                assert_eq!(*first.get_or_insert(runs), runs, "record 1's runs moved");
            }
        }
        assert!(store.recs.sealed.len() > 4, "{} arrays", store.recs.sealed.len());
        // Sealed arrays are exact: the slack is the current array's tail,
        // an eighth of the runs and a record at most.
        let held: usize = store.recs.sealed.iter().map(|(_, r)| r.len()).sum::<usize>()
            + store.recs.bytes.capacity();
        let runs: usize = store.recs.iter().map(|r| r.run_bytes()).sum();
        assert!(held <= runs + runs / 8 + 4096, "{held} B held for {runs} B of runs");
        // A copy holds the same records in one array.
        let mut copy = Diffs::new();
        copy.extend(&store.recs);
        assert_eq!((copy.sealed.len(), &copy), (0, &store.recs));
        assert_eq!(Diffs::from_wire(&copy.to_wire()).unwrap(), store.recs);
        // A page's chain yields exactly what a scan of every record does.
        for page in 0..5 {
            for (after, through) in [(0, 200), (0, 0), (37, 151), (60, 61), (199, 300), (3, 2)] {
                let walked: Vec<u32> = store
                    .range(page, after, through, newest[page as usize])
                    .map(|r| r.first)
                    .collect();
                let scanned: Vec<u32> = store
                    .recs
                    .iter()
                    .filter(|r| r.page == page && after < r.first && r.first <= through)
                    .map(|r| r.first)
                    .collect();
                assert_eq!(walked, scanned, "page {page} ({after}, {through}]");
            }
        }
    }

    /// A store captures what `Diff::create` makes of the same pages, and
    /// both hold the reference runs, on either side of the first array of
    /// kept bounds and of the last run kept: a 16 KiB page, one byte in
    /// eight changed.
    #[test]
    fn capture_equals_create_around_the_kept_runs() {
        let mut store = DiffStore::default();
        let counts = [
            0,
            1,
            KEPT_HEAD - 1,
            KEPT_HEAD,
            KEPT_HEAD + 1,
            KEPT - 1,
            KEPT,
            KEPT + 1,
            2000,
        ];
        for (index, runs) in (1..).zip(counts) {
            let twin = vec![0u8; 16 << 10];
            let mut cur = twin.clone();
            for r in 0..runs {
                cur[3 + 8 * r] = 0xFF;
            }
            store.capture((0, 0, index, index - 1), &twin, &cur);
            let rec = store.get(0, index).expect("just captured");
            let created = Diff::create(&twin, &cur);
            assert_eq!((rec.runs, rec.buf), (created.runs, &*created.buf));
            assert_eq!(runs_of(&created), reference_runs(&twin, &cur));
            assert_eq!(created.runs().count(), runs);
        }
    }

    #[test]
    fn a_store_finds_records_that_arrived_out_of_order() {
        let made: Vec<(u32, u32, Diff, Vc)> = [(4, 2), (1, 7), (4, 1), (2, 7), (9, 0), (1, 3)]
            .into_iter()
            .map(|(index, page)| {
                let (twin, cur) = pages(index as usize, 2);
                (index, page, Diff::create(&twin, &cur), vc2(0, index))
            })
            .collect();
        let recs: Diffs = made
            .iter()
            .map(|(index, page, diff, vc)| diff.view([1, *page, *index, *index], vc.as_slice()))
            .collect();
        let mut store = DiffStore::default();
        for rec in recs.iter() {
            store.push(rec);
        }
        for rec in recs.iter() {
            assert_eq!(store.get(rec.page, rec.first), Some(rec));
        }
        assert_eq!(store.get(7, 4), None);
        assert_eq!(store.get(2, 3), None);
    }
}
