//! Intervals and write notices.
//!
//! "The execution history of each node is divided into an indexed sequence
//! of intervals whose endpoints occur at the acquire and release events
//! executed on that node. ... Each interval is summarized by a list of
//! write notices, one for each page that was modified in the interval"
//! (§4.2). In CarlOS the endpoints occur when RELEASE messages are sent
//! and accepted (§4.3).
//!
//! Records live in one flat layout, [`Records`], from a creator's log to
//! the wire and back: a sender fills a RELEASE's payload with one copy
//! per array, both wire forms encode from it and decode into it, and a
//! receiver appends it to its logs the same way. A record is read as an
//! [`Interval`] view; [`IntervalRecord`] is the owned one-record value a
//! batch can be built from.

use std::ops::Range;

use carlos_util::{
    codec::{DecodeError, Decoder, Encoder, Wire},
    event::Interval,
};

use crate::vc::{wire_component, Vc};

/// One interval as an owned value: who created it, its index in the
/// creator's sequence, the creator's vector timestamp at creation, and the
/// pages modified during it (its write notices). A [`Records`] batch
/// collects from these; nothing in the log or on the wire holds one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntervalRecord {
    /// Creating node.
    pub node: u32,
    /// 1-based index within the creator's interval sequence.
    pub index: u32,
    /// Creator's vector timestamp at interval creation (includes `index`
    /// at position `node`).
    pub vc: Vc,
    /// Pages modified during the interval — the write notices.
    pub pages: Vec<u32>,
}

impl IntervalRecord {
    /// The record as the event stream carries it.
    #[must_use]
    pub fn as_interval(&self) -> Interval<'_> {
        Interval {
            creator: self.node,
            index: self.index,
            vt: self.vc.as_slice(),
            pages: &self.pages,
        }
    }
}

impl From<Interval<'_>> for IntervalRecord {
    fn from(rec: Interval<'_>) -> Self {
        Self {
            node: rec.creator,
            index: rec.index,
            vc: Vc::from_slice(rec.vt),
            pages: rec.pages.to_vec(),
        }
    }
}

/// Interval records in one flat layout, node-major and index-ascending
/// with no `(creator, index)` twice. Record `i` is the words
/// `words[ends[i - 1]..ends[i]]`: its creator, its vector time (`n` words;
/// its index is that time's own component), then its write notices. A
/// creator's log and a RELEASE's payload are both one, so no record is a
/// heap allocation of its own: a batch is two.
#[derive(Debug, Clone, Default)]
pub struct Records {
    /// Vector-time width (the cluster size) of every record.
    n: usize,
    words: Vec<u32>,
    ends: Vec<u32>,
}

/// The wire's complaint about a batch out of order, or whose record's
/// index is not its own clock component.
fn misordered(index: u32) -> DecodeError {
    DecodeError::BadTag {
        tag: index,
        what: "interval record order",
    }
}

impl Records {
    /// An empty batch.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of records.
    #[must_use]
    #[inline]
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True when the batch holds no record.
    #[must_use]
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Write notices over all records.
    #[must_use]
    #[inline]
    pub fn notice_count(&self) -> usize {
        self.words.len() - self.len() * (1 + self.n)
    }

    /// Record `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    #[inline]
    pub fn get(&self, i: usize) -> Interval<'_> {
        let words = &self.words[self.start(i)..self.ends[i] as usize];
        let (vt, pages) = words[1..].split_at(self.n);
        Interval {
            creator: words[0],
            index: vt[words[0] as usize],
            vt,
            pages,
        }
    }

    /// The records in order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = Interval<'_>> + '_ {
        (0..self.len()).map(|i| self.get(i))
    }

    /// Each creator's records: `(creator, positions)`, creators ascending.
    fn runs(&self) -> impl Iterator<Item = (u32, Range<usize>)> + '_ {
        let creator = |i: usize| self.words[self.start(i)];
        let mut at = 0;
        std::iter::from_fn(move || {
            let (start, q) = (at, (at < self.len()).then(|| creator(at))?);
            while at < self.len() && creator(at) == q {
                at += 1;
            }
            Some((q, start..at))
        })
    }

    /// Where record `i`'s words start.
    #[inline]
    fn start(&self, i: usize) -> usize {
        i.checked_sub(1).map_or(0, |p| self.ends[p] as usize)
    }

    /// The words of records `range`.
    fn word_span(&self, range: &Range<usize>) -> Range<usize> {
        if range.is_empty() {
            return 0..0;
        }
        self.start(range.start)..self.ends[range.end - 1] as usize
    }

    /// Makes room for `records` more records of width `n` in `words`
    /// words: one growth per array at most.
    fn reserve(&mut self, n: usize, records: usize, words: usize) {
        self.set_width(n);
        self.words.reserve(words);
        self.ends.reserve(records);
    }

    fn set_width(&mut self, n: usize) {
        if self.is_empty() {
            self.n = n;
        }
        assert_eq!(
            self.n, n,
            "interval records of {} and {n} nodes in one batch",
            self.n
        );
    }

    /// True when a record `(creator, index)` may follow the last one.
    fn admits(&self, creator: u32, index: u32) -> bool {
        self.len().checked_sub(1).is_none_or(|last| {
            let rec = self.get(last);
            (rec.creator, rec.index) < (creator, index)
        })
    }

    /// Appends `rec`.
    ///
    /// # Panics
    ///
    /// Panics if `rec` does not sort after the last record, names a
    /// creator outside its vector time, has an index other than its own
    /// clock component, or its width differs from the batch's.
    pub(crate) fn push(&mut self, rec: Interval<'_>) {
        let (creator, index) = (rec.creator, rec.index);
        let clock = rec.vt;
        assert!(
            clock.get(creator as usize) == Some(&index),
            "record ({creator}, {index}) has clock {clock:?}"
        );
        assert!(
            self.admits(creator, index),
            "record ({creator}, {index}) out of node-major, index-ascending order"
        );
        self.set_width(clock.len());
        self.words.push(creator);
        self.words.extend_from_slice(clock);
        self.words.extend_from_slice(rec.pages);
        self.ends.push(self.words.len() as u32);
    }

    /// The records of `batches` of width `n`, one batch after another,
    /// copied into one sized for them first.
    ///
    /// # Panics
    ///
    /// Panics if a batch's first record does not sort after the one
    /// before it.
    #[must_use]
    pub fn concat<'a>(n: usize, batches: impl Iterator<Item = &'a Records> + Clone) -> Records {
        gather(n, batches.map(|b| (b, 0..b.len())))
    }

    /// Appends records `range` of `src`, one copy per array.
    fn extend_from(&mut self, src: &Records, range: Range<usize>) {
        if range.is_empty() {
            return;
        }
        let first = src.get(range.start);
        assert!(
            self.admits(first.creator, first.index),
            "batch out of order"
        );
        self.set_width(src.n);
        let words = src.word_span(&range);
        let (from, to) = (words.start as u32, self.words.len() as u32);
        self.ends
            .extend(src.ends[range].iter().map(|end| end - from + to));
        self.words.extend_from_slice(&src.words[words]);
    }

    /// Empties the batch and frees its arrays: a collected log gives its
    /// memory back rather than keeping it at its longest.
    fn clear(&mut self) {
        self.words = Vec::new();
        self.ends = Vec::new();
    }

    /// Checks and seals the record a decoder appended from word `start`
    /// on.
    fn seal_decoded(&mut self, start: usize, index: u32) -> Result<(), DecodeError> {
        let (creator, vt) = (self.words[start], &self.words[start + 1..]);
        if vt.get(creator as usize) != Some(&index) || !self.admits(creator, index) {
            return Err(misordered(index));
        }
        self.ends.push(self.words.len() as u32);
        Ok(())
    }

    /// Decodes one `u32`-counted notice list onto the words.
    fn decode_notices(&mut self, dec: &mut Decoder<'_>) -> Result<(), DecodeError> {
        let count = dec.get_u32()? as usize;
        let bytes = dec.get_raw_slice(count.saturating_mul(4))?;
        self.words.extend(
            bytes
                .chunks_exact(4)
                .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]])),
        );
        Ok(())
    }

    /// Decodes one full vector time of the batch's width onto the words.
    fn decode_vt(&mut self, dec: &mut Decoder<'_>) -> Result<(), DecodeError> {
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
        Ok(())
    }

    /// Size in bytes of the legacy encoding ([`Wire`]).
    #[must_use]
    pub fn wire_len(&self) -> usize {
        4 + self.len() * (4 + 4 + 2 + 2 * self.n + 4) + 4 * self.notice_count()
    }

    /// Encodes the grouped form (wire tags 4/5): each creator's records are
    /// one group whose first record carries its full vector time, and
    /// every later one only the components that differ from its
    /// predecessor's, as `(component, value)` pairs.
    pub fn encode_grouped(&self, enc: &mut Encoder) {
        enc.put_u32(self.runs().count() as u32);
        for (creator, run) in self.runs() {
            enc.put_u32(creator);
            enc.put_u32(run.len() as u32);
            for i in run.clone() {
                let rec = self.get(i);
                enc.put_u32(rec.index);
                if i == run.start {
                    put_vt(enc, rec.vt);
                } else {
                    let prev = self.get(i - 1).vt;
                    let changed = || (0..self.n).filter(|&c| rec.vt[c] != prev[c]);
                    enc.put_u16(changed().count() as u16);
                    for c in changed() {
                        enc.put_u16(c as u16);
                        enc.put_u16(wire_component(c as u32, rec.vt[c]));
                    }
                }
                put_notices(enc, rec.pages);
            }
        }
    }

    /// Decodes the grouped form: only the canonical encoding decodes
    /// (groups of strictly ascending creators, none empty, and deltas of
    /// strictly ascending components that each change a value).
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] on truncated, malformed or non-canonical
    /// input, and on a batch out of node-major, index-ascending order.
    pub fn decode_grouped(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Self::decode_form(dec, true)
    }

    /// Decodes the legacy form or, with `grouped`, the grouped one, into
    /// arrays sized by a first walk over the bytes.
    fn decode_form(dec: &mut Decoder<'_>, grouped: bool) -> Result<Self, DecodeError> {
        let (n, records, words) = measure(dec.clone(), grouped)?;
        let mut out = Self::new();
        out.reserve(n, records, words);
        // The legacy form is one group whose records name their creators.
        for _ in 0..if grouped { dec.get_u32()? } else { 1 } {
            let head = if grouped { Some(dec.get_u32()?) } else { None };
            let count = dec.get_u32()?;
            // A group's creator follows the last record's (index 0 is
            // below every index), and no group is empty.
            if let Some(creator) = head.filter(|&c| count == 0 || !out.admits(c, 0)) {
                return Err(misordered(creator));
            }
            for k in 0..count {
                let start = out.words.len();
                let creator = head.map_or_else(|| dec.get_u32(), Ok)?;
                let index = dec.get_u32()?;
                out.words.push(creator);
                if head.is_some() && k > 0 {
                    out.decode_delta(dec, start)?;
                } else {
                    out.decode_vt(dec)?;
                }
                out.decode_notices(dec)?;
                out.seal_decoded(start, index)?;
            }
        }
        Ok(out)
    }

    /// Decodes a grouped record's clock onto the words: its
    /// predecessor's, with the changed components listed ascending.
    fn decode_delta(&mut self, dec: &mut Decoder<'_>, start: usize) -> Result<(), DecodeError> {
        let prev = self.start(self.len() - 1) + 1;
        self.words.extend_from_within(prev..prev + self.n);
        let mut last = None;
        for _ in 0..dec.get_u16()? {
            let (c, v) = (usize::from(dec.get_u16()?), u32::from(dec.get_u16()?));
            if c >= self.n || last >= Some(c) || self.words[prev + c] == v {
                return Err(DecodeError::BadTag {
                    tag: c as u32,
                    what: "aggregated vc component",
                });
            }
            self.words[start + 1 + c] = v;
            last = Some(c);
        }
        Ok(())
    }
}

impl PartialEq for Records {
    /// Same records; an empty batch's width does not count.
    fn eq(&self, other: &Self) -> bool {
        self.words == other.words && self.ends == other.ends
    }
}

impl Eq for Records {}

/// Sorted by `(creator, index)`; of two records with the same key the
/// first is kept.
impl FromIterator<IntervalRecord> for Records {
    fn from_iter<I: IntoIterator<Item = IntervalRecord>>(iter: I) -> Self {
        let mut recs: Vec<IntervalRecord> = iter.into_iter().collect();
        recs.sort_by_key(|r| (r.node, r.index));
        recs.dedup_by_key(|r| (r.node, r.index));
        let mut out = Self::new();
        for rec in &recs {
            out.push(rec.as_interval());
        }
        out
    }
}

fn put_vt(enc: &mut Encoder, vt: &[u32]) {
    enc.put_u16(vt.len() as u16);
    for (c, &v) in vt.iter().enumerate() {
        enc.put_u16(wire_component(c as u32, v));
    }
}

fn put_notices(enc: &mut Encoder, pages: &[u32]) {
    enc.put_u32(pages.len() as u32);
    for &p in pages {
        enc.put_u32(p);
    }
}

/// `(width, records, words)` of the batch at `dec`, in the legacy or the
/// grouped form, walked without decoding.
fn measure(mut dec: Decoder<'_>, grouped: bool) -> Result<(usize, usize, usize), DecodeError> {
    let (mut n, mut records, mut notices) = (None, 0, 0);
    for _ in 0..if grouped { dec.get_u32()? } else { 1 } {
        if grouped {
            dec.get_u32()?;
        }
        let count = dec.get_u32()? as usize;
        for k in 0..count {
            dec.get_raw_slice(if grouped { 4 } else { 8 })?;
            // A full clock of `len` components, or a delta of `len` pairs.
            let len = usize::from(dec.get_u16()?);
            let delta = grouped && k > 0;
            if !delta {
                n.get_or_insert(len);
            }
            dec.get_raw_slice(if delta { 4 * len } else { 2 * len })?;
            notices += skip_notices(&mut dec)?;
        }
        records += count;
    }
    let n = n.unwrap_or(0);
    Ok((n, records, records * (1 + n) + notices))
}

/// Skips one notice list, returning its length.
fn skip_notices(dec: &mut Decoder<'_>) -> Result<usize, DecodeError> {
    let count = dec.get_u32()? as usize;
    dec.get_raw_slice(count.saturating_mul(4))?;
    Ok(count)
}

/// The legacy form: a `u32` record count, then per record its creator,
/// index, full vector time and notice list.
impl Wire for Records {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u32(self.len() as u32);
        for rec in self.iter() {
            enc.put_u32(rec.creator);
            enc.put_u32(rec.index);
            put_vt(enc, rec.vt);
            put_notices(enc, rec.pages);
        }
    }

    /// Only a batch in node-major, index-ascending order decodes.
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Self::decode_form(dec, false)
    }
}

/// In-memory store of all interval records a node knows about (its own and
/// those learned through acquires). A node learns each creator's intervals
/// in index order only, so each creator's records are one dense log.
#[derive(Debug, Default, Clone)]
pub struct IntervalStore {
    /// Per creator `(base, log)`, the log's record `i` having index
    /// `base + 1 + i` (`base`: the creator's `vt` at the last collection).
    logs: Vec<(u32, Records)>,
}

/// The log of a creator that has none.
static NO_LOG: Records = Records {
    n: 0,
    words: Vec::new(),
    ends: Vec::new(),
};

impl IntervalStore {
    /// Creates an empty store.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The index the next record of creator `node` must have.
    #[must_use]
    pub fn next_index(&self, node: u32) -> u32 {
        self.logs
            .get(node as usize)
            .map_or(1, |(base, log)| base + log.len() as u32 + 1)
    }

    fn log_mut(&mut self, node: u32) -> &mut Records {
        let q = node as usize;
        if q >= self.logs.len() {
            self.logs.resize_with(q + 1, Default::default);
        }
        &mut self.logs[q].1
    }

    /// Appends a record; an index already held (or collected) is a no-op.
    /// Returns whether the record was appended.
    ///
    /// # Panics
    ///
    /// Panics if the index skips past [`IntervalStore::next_index`]: a
    /// gapped log would ship records no receiver can apply.
    pub fn insert(&mut self, rec: Interval<'_>) -> bool {
        let (node, index, next) = (rec.creator, rec.index, self.next_index(rec.creator));
        assert!(
            index <= next,
            "interval log gap: creator {node} index {index}, expected {next}"
        );
        if index == next {
            self.log_mut(node).push(rec);
        }
        index == next
    }

    /// Makes room in each creator's log for the records of `batch` above
    /// `seen`, so applying it grows each of a log's arrays at most once.
    pub(crate) fn reserve_for(&mut self, batch: &Records, seen: &Vc) {
        for (creator, run) in batch.runs() {
            let old = run
                .clone()
                .take_while(|&i| batch.get(i).index <= seen.get(creator));
            let fresh = run.start + old.count()..run.end;
            let words = batch.word_span(&fresh).len();
            self.log_mut(creator).reserve(batch.n, fresh.len(), words);
        }
    }

    /// Creator `node`'s log and the positions in it of indices `lo..=hi`.
    fn span(&self, node: u32, lo: u32, hi: u32) -> (&Records, Range<usize>) {
        let Some((base, log)) = self.logs.get(node as usize) else {
            return (&NO_LOG, 0..0);
        };
        let start = lo.saturating_sub(base + 1) as usize;
        let end = (hi.saturating_sub(*base) as usize).min(log.len());
        (log, start..end.max(start))
    }

    /// Looks up a record by creator and index.
    #[must_use]
    pub fn get(&self, node: u32, index: u32) -> Option<Interval<'_>> {
        self.range(node, index, index).next()
    }

    /// The stored records of creator `node` with index in `lo..=hi`,
    /// ascending.
    pub fn range(&self, node: u32, lo: u32, hi: u32) -> impl Iterator<Item = Interval<'_>> + '_ {
        let (log, positions) = self.span(node, lo, hi);
        positions.map(|i| log.get(i))
    }

    /// Number of stored records.
    #[must_use]
    pub fn len(&self) -> usize {
        self.logs.iter().map(|(_, log)| log.len()).sum()
    }

    /// True when no records are stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All records strictly newer than `have`, i.e. records whose index
    /// exceeds `have[creator]`. This is exactly the consistency information
    /// a RELEASE message must carry to a receiver whose state is `have`.
    /// Node-major, index-ascending.
    #[must_use]
    pub fn newer_than(&self, have: &Vc) -> Records {
        self.scan(have, None)
    }

    /// Like [`IntervalStore::newer_than`] but bounded above by `through`,
    /// used to serve "missing consistency information" requests.
    #[must_use]
    pub fn newer_than_bounded(&self, have: &Vc, through: &Vc) -> Records {
        self.scan(have, Some(through))
    }

    /// One span per creator, indices in `(have, through]`.
    fn scan(&self, have: &Vc, through: Option<&Vc>) -> Records {
        gather(
            have.len(),
            (0..self.logs.len() as u32).map(|q| {
                let hi = through.map_or(u32::MAX, |t| t.get(q));
                self.span(q, have.get(q).saturating_add(1), hi)
            }),
        )
    }

    /// Records created by `node` that are newer than `have[node]` — the
    /// non-transitive (RELEASE_NT) payload.
    #[must_use]
    pub fn own_newer_than(&self, node: u32, have: &Vc) -> Records {
        let span = self.span(node, have.get(node).saturating_add(1), u32::MAX);
        gather(have.len(), std::iter::once(span))
    }

    /// Discards every record (global garbage collection at vector time
    /// `vt`): each creator's next index becomes the one after `vt`'s
    /// component, past any records a collection round skipped.
    ///
    /// # Panics
    ///
    /// Panics if a creator's log holds a record `vt` does not cover.
    pub fn discard_through(&mut self, vt: &Vc) {
        self.logs.resize_with(vt.len(), Default::default);
        for ((base, log), (q, seen)) in self.logs.iter_mut().zip(vt.iter()) {
            assert!(*base + log.len() as u32 <= seen, "creator {q}'s log is ahead of {seen}");
            *base = seen;
            log.clear();
        }
    }
}

/// The records of `spans`, of width `n`, copied into a batch sized for
/// them first: one allocation per array, however many records.
fn gather<'a, S>(n: usize, spans: S) -> Records
where
    S: Iterator<Item = (&'a Records, Range<usize>)> + Clone,
{
    let (records, words) = spans.clone().fold((0, 0), |(r, w), (log, range)| {
        (r + range.len(), w + log.word_span(&range).len())
    });
    let mut out = Records::new();
    out.reserve(n, records, words);
    spans.for_each(|(log, range)| out.extend_from(log, range));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(node: u32, index: u32, pages: Vec<u32>, n: usize) -> IntervalRecord {
        let mut vc = Vc::new(n);
        vc.set(node, index);
        IntervalRecord {
            node,
            index,
            vc,
            pages,
        }
    }

    fn keys(records: &Records) -> Vec<(u32, u32)> {
        records.iter().map(|r| (r.creator, r.index)).collect()
    }

    #[test]
    fn wire_roundtrip() {
        let batch: Records = [rec(2, 7, vec![1, 5, 9], 4), rec(3, 1, vec![], 4)]
            .into_iter()
            .collect();
        let back = Records::from_wire(&batch.to_wire()).unwrap();
        assert_eq!(back, batch);
        assert_eq!(batch.to_wire().len(), batch.wire_len());
        assert_eq!(
            IntervalRecord::from(back.get(0)),
            rec(2, 7, vec![1, 5, 9], 4)
        );
    }

    #[test]
    fn store_insert_and_get() {
        let mut s = IntervalStore::new();
        s.insert(rec(0, 1, vec![3], 2).as_interval());
        s.insert(rec(1, 1, vec![4], 2).as_interval());
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(0, 1).unwrap().pages, [3]);
        assert!(s.get(0, 2).is_none());
    }

    #[test]
    fn range_walks_one_creator_in_index_order() {
        let mut s = IntervalStore::new();
        for (node, last) in [(0, 4), (1, 3)] {
            for index in 1..=last {
                s.insert(rec(node, index, vec![], 2).as_interval());
            }
        }
        let indices = |s: &IntervalStore, node, lo, hi| {
            s.range(node, lo, hi).map(|r| r.index).collect::<Vec<_>>()
        };
        assert_eq!(indices(&s, 0, 2, 9), vec![2, 3, 4]);
        assert_eq!(indices(&s, 1, 0, 2), vec![1, 2]);
        assert_eq!(indices(&s, 0, 3, 2), Vec::<u32>::new());
        assert_eq!(indices(&s, 2, 0, u32::MAX), Vec::<u32>::new());
        // After a collection each log resumes at its creator's next index.
        let mut vt = Vc::new(2);
        vt.set(0, 4);
        vt.set(1, 3);
        s.discard_through(&vt);
        assert_eq!(
            (s.next_index(0), s.next_index(1), s.next_index(2)),
            (5, 4, 1)
        );
        s.insert(rec(0, 5, vec![], 2).as_interval());
        s.insert(rec(0, 6, vec![], 2).as_interval());
        assert_eq!(indices(&s, 0, 0, 5), vec![5]);
        assert_eq!(indices(&s, 0, 6, u32::MAX), vec![6]);
        assert!(s.get(0, 4).is_none());
        assert_eq!(s.get(0, 6).map(|r| r.index), Some(6));
    }

    #[test]
    #[should_panic(expected = "creator 1 index 3, expected 2")]
    fn gapped_insert_panics() {
        let mut s = IntervalStore::new();
        s.insert(rec(1, 1, vec![], 2).as_interval());
        s.insert(rec(1, 3, vec![], 2).as_interval());
    }

    #[test]
    fn insert_is_idempotent() {
        let mut s = IntervalStore::new();
        s.insert(rec(0, 1, vec![3], 2).as_interval());
        s.insert(rec(0, 1, vec![99], 2).as_interval()); // Ignored: first record wins.
        assert_eq!(s.len(), 1);
        assert_eq!(s.get(0, 1).unwrap().pages, [3]);
    }

    #[test]
    fn newer_than_filters_by_receiver_state() {
        let mut s = IntervalStore::new();
        s.insert(rec(0, 1, vec![], 2).as_interval());
        s.insert(rec(0, 2, vec![], 2).as_interval());
        s.insert(rec(1, 1, vec![], 2).as_interval());
        let mut have = Vc::new(2);
        have.set(0, 1); // Receiver has node 0's interval 1 already.
        assert_eq!(keys(&s.newer_than(&have)), vec![(0, 2), (1, 1)]);
    }

    #[test]
    fn newer_than_bounded_respects_upper_bound() {
        let mut s = IntervalStore::new();
        for i in 1..=5 {
            s.insert(rec(0, i, vec![], 1).as_interval());
        }
        let have = Vc::new(1);
        let mut through = Vc::new(1);
        through.set(0, 3);
        let got = s.newer_than_bounded(&have, &through);
        assert_eq!(got.len(), 3);
        assert!(got.iter().all(|r| r.index <= 3));
    }

    #[test]
    fn own_newer_than_excludes_other_nodes() {
        let mut s = IntervalStore::new();
        s.insert(rec(0, 1, vec![], 2).as_interval());
        s.insert(rec(0, 2, vec![], 2).as_interval());
        for index in 1..=5 {
            s.insert(rec(1, index, vec![], 2).as_interval());
        }
        let mut have = Vc::new(2);
        let own = s.own_newer_than(0, &have);
        assert_eq!(own.len(), 2);
        assert!(own.iter().all(|r| r.creator == 0));
        have.set(0, 1);
        have.set(1, 4);
        assert_eq!(keys(&s.own_newer_than(1, &have)), vec![(1, 5)]);
    }

    #[test]
    fn clear_empties_store() {
        let mut s = IntervalStore::new();
        s.insert(rec(0, 1, vec![], 2).as_interval());
        assert!(!s.is_empty());
        let mut vt = Vc::new(2);
        vt.set(0, 3);
        vt.set(1, 2);
        s.discard_through(&vt);
        assert!(s.is_empty());
        assert_eq!((s.next_index(0), s.next_index(1)), (4, 3));
    }

    #[test]
    fn a_collected_batch_is_sorted_and_keeps_the_first_of_a_key() {
        let batch: Records = [
            rec(1, 1, vec![7], 2),
            rec(0, 2, vec![], 2),
            rec(0, 1, vec![], 2),
        ]
        .into_iter()
        .chain([rec(1, 1, vec![8], 2)])
        .collect();
        assert_eq!(keys(&batch), vec![(0, 1), (0, 2), (1, 1)]);
        assert_eq!(batch.get(2).pages, [7]);
        assert_eq!(batch.notice_count(), 1);
    }

    #[test]
    #[should_panic(expected = "out of node-major, index-ascending order")]
    fn a_batch_refuses_a_record_out_of_order() {
        let mut batch = Records::new();
        batch.push(rec(1, 1, vec![], 2).as_interval());
        batch.push(rec(0, 4, vec![], 2).as_interval());
    }
}

#[cfg(test)]
mod decode_props {
    //! The batch decoders against arbitrary and near-valid bytes, in both
    //! wire forms: no input panics, a batch that decodes re-encodes to
    //! exactly its bytes, and order is part of the format.

    use super::*;
    use carlos_util::cases::{cases, Gen};

    #[derive(Clone, Copy, Debug)]
    enum Form {
        Legacy,
        Grouped,
    }

    impl Form {
        fn encode(self, batch: &Records) -> Vec<u8> {
            let mut enc = Encoder::new();
            match self {
                Form::Legacy => batch.encode(&mut enc),
                Form::Grouped => batch.encode_grouped(&mut enc),
            }
            enc.finish_vec()
        }

        /// The batch the whole of `bytes` decodes to.
        fn decode(self, bytes: &[u8]) -> Result<Records, DecodeError> {
            let mut dec = Decoder::new(bytes);
            let batch = match self {
                Form::Legacy => Records::decode(&mut dec),
                Form::Grouped => Records::decode_grouped(&mut dec),
            }?;
            dec.expect_end()?;
            Ok(batch)
        }
    }

    /// A valid batch: a few creators of a 3- or 4-node cluster, each a
    /// short ascending run whose clocks grow, small notice lists.
    fn batch(g: &mut Gen) -> Records {
        let n = g.range(3usize..5);
        let mut out = Records::new();
        for creator in 0..n as u32 {
            if g.range(0u8..3) == 0 {
                continue;
            }
            let mut vt = vec![0u32; n];
            vt[creator as usize] = g.range(0u32..4);
            for _ in 0..g.range(1usize..4) {
                vt[creator as usize] += 1;
                for (c, v) in vt.iter_mut().enumerate() {
                    if c != creator as usize && g.range(0u8..3) == 0 {
                        *v += g.range(1u32..3);
                    }
                }
                let pages = g.vec(0..4, |g| g.range(0u32..64));
                out.push(Interval {
                    creator,
                    index: vt[creator as usize],
                    vt: &vt,
                    pages: &pages,
                });
            }
        }
        out
    }

    #[test]
    fn arbitrary_bytes_never_panic_and_what_decodes_reencodes() {
        cases(
            "arbitrary_bytes_never_panic_and_what_decodes_reencodes",
            512,
            |g| {
                // Mostly mutated encodings of valid batches (deep coverage),
                // some raw noise.
                let form = if g.range(0u8..2) == 0 {
                    Form::Legacy
                } else {
                    Form::Grouped
                };
                let mut bytes = if g.range(0u8..4) == 0 {
                    let len = g.below(96);
                    g.bytes(len)
                } else {
                    form.encode(&batch(g))
                };
                for _ in 0..g.range(0usize..4) {
                    if bytes.is_empty() {
                        break;
                    }
                    let at = g.below(bytes.len());
                    match g.range(0u8..3) {
                        0 => bytes[at] = g.u8(),
                        1 => bytes.truncate(at),
                        _ => bytes[at] ^= 1,
                    }
                }
                if let Ok(decoded) = form.decode(&bytes) {
                    assert_eq!(form.encode(&decoded), bytes, "{form:?} decoded {decoded:?}");
                }
            },
        );
    }

    #[test]
    fn valid_batches_roundtrip_in_both_forms() {
        cases("valid_batches_roundtrip_in_both_forms", 128, |g| {
            let batch = batch(g);
            for form in [Form::Legacy, Form::Grouped] {
                assert_eq!(
                    form.decode(&form.encode(&batch)).as_ref(),
                    Ok(&batch),
                    "{form:?}"
                );
            }
            assert_eq!(Form::Legacy.encode(&batch).len(), batch.wire_len());
        });
    }

    /// The grouped form of `groups` written by hand: a group's head
    /// carries its full clock, a later record the pairs `delta` lists.
    fn grouped_by_hand(
        groups: &[&[IntervalRecord]],
        delta: impl Fn(&Vc, &Vc) -> Vec<(u32, u32)>,
    ) -> Vec<u8> {
        let mut enc = Encoder::new();
        enc.put_u32(groups.len() as u32);
        for group in groups {
            enc.put_u32(group.first().map_or(u32::MAX, |r| r.node));
            enc.put_u32(group.len() as u32);
            for (k, r) in group.iter().enumerate() {
                enc.put_u32(r.index);
                if k == 0 {
                    put_vt(&mut enc, r.vc.as_slice());
                } else {
                    let pairs = delta(&group[k - 1].vc, &r.vc);
                    enc.put_u16(pairs.len() as u16);
                    for (c, v) in pairs {
                        enc.put_u16(c as u16);
                        enc.put_u16(v as u16);
                    }
                }
                put_notices(&mut enc, &r.pages);
            }
        }
        enc.finish_vec()
    }

    /// The components of `cur` that differ from `prev`, ascending.
    fn changed(prev: &Vc, cur: &Vc) -> Vec<(u32, u32)> {
        cur.iter().filter(|&(c, v)| v != prev.get(c)).collect()
    }

    #[test]
    fn a_batch_out_of_order_does_not_decode() {
        cases("a_batch_out_of_order_does_not_decode", 128, |g| {
            let batch = batch(g);
            if batch.len() < 2 {
                return;
            }
            // Swap two records (the wire allows anything; the format does
            // not), or repeat one.
            let mut recs: Vec<IntervalRecord> = batch.iter().map(IntervalRecord::from).collect();
            let i = g.below(recs.len() - 1);
            if g.range(0u8..2) == 0 {
                recs.swap(i, i + 1);
            } else {
                recs[i + 1] = recs[i].clone();
            }
            let mut legacy = Encoder::new();
            legacy.put_u32(recs.len() as u32);
            for r in &recs {
                legacy.put_u32(r.node);
                legacy.put_u32(r.index);
                put_vt(&mut legacy, r.vc.as_slice());
                put_notices(&mut legacy, &r.pages);
            }
            let legacy = legacy.finish_vec();
            assert!(Form::Legacy.decode(&legacy).is_err(), "{recs:?}");
            // The grouped form of the same sequence, one group per record
            // where the creator changes back.
            let groups: Vec<&[IntervalRecord]> = recs.chunk_by(|a, b| a.node == b.node).collect();
            let grouped = grouped_by_hand(&groups, changed);
            assert!(Form::Grouped.decode(&grouped).is_err(), "{recs:?}");
        });
    }

    #[test]
    fn only_the_canonical_grouped_form_decodes() {
        cases("only_the_canonical_grouped_form_decodes", 128, |g| {
            let recs: Vec<IntervalRecord> = batch(g).iter().map(IntervalRecord::from).collect();
            let groups: Vec<&[IntervalRecord]> = recs.chunk_by(|a, b| a.node == b.node).collect();
            assert!(Form::Grouped.decode(&grouped_by_hand(&groups, changed)).is_ok());
            // Each way of saying the same batch differently.
            let mut variants = vec![
                // An empty group after the last.
                grouped_by_hand(&[&groups[..], &[&[]]].concat(), changed),
                // A delta that also lists an unchanged component.
                grouped_by_hand(&groups, |prev, cur| {
                    let mut pairs: Vec<(u32, u32)> = cur.iter().collect();
                    pairs.retain(|&(c, v)| v != prev.get(c) || c == 0);
                    pairs
                }),
                // The changed components in descending order.
                grouped_by_hand(&groups, |prev, cur| {
                    changed(prev, cur).into_iter().rev().collect()
                }),
            ];
            // A group split in two.
            if let Some(at) = groups.iter().position(|group| group.len() > 1) {
                let mut split = groups.clone();
                let (head, tail) = groups[at].split_at(1);
                split.splice(at..=at, [head, tail]);
                variants.push(grouped_by_hand(&split, changed));
            }
            for bytes in variants {
                let same = bytes == grouped_by_hand(&groups, changed);
                assert!(same || Form::Grouped.decode(&bytes).is_err(), "{recs:?}");
            }
        });
    }
}
