//! Intervals and write notices.
//!
//! "The execution history of each node is divided into an indexed sequence
//! of intervals whose endpoints occur at the acquire and release events
//! executed on that node. ... Each interval is summarized by a list of
//! write notices, one for each page that was modified in the interval"
//! (§4.2). In CarlOS the endpoints occur when RELEASE messages are sent
//! and accepted (§4.3).

use carlos_util::{
    codec::{DecodeError, Decoder, Encoder, Wire},
    event::Interval,
};

use crate::vc::Vc;

/// A shippable description of one interval: who created it, its index in
/// the creator's sequence, the creator's vector timestamp at creation, and
/// the pages modified during it (its write notices).
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

impl Wire for IntervalRecord {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u32(self.node);
        enc.put_u32(self.index);
        self.vc.encode(enc);
        enc.put_seq(&self.pages, |enc, &p| enc.put_u32(p));
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(Self {
            node: dec.get_u32()?,
            index: dec.get_u32()?,
            vc: Vc::decode(dec)?,
            pages: dec.get_seq(|dec| dec.get_u32())?,
        })
    }
}

/// In-memory store of all interval records a node knows about (its own and
/// those learned through acquires). A node learns each creator's intervals
/// in index order only, so each creator's records are one dense log.
#[derive(Debug, Default, Clone)]
pub struct IntervalStore {
    /// Per creator `(base, records)`, `records[i]` having index `base + 1 + i`
    /// (`base`: the creator's `vt` at the last collection).
    logs: Vec<(u32, Vec<IntervalRecord>)>,
}

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
            .map_or(1, |(base, records)| base + records.len() as u32 + 1)
    }

    /// Appends a record; an index already held (or collected) is a no-op.
    ///
    /// # Panics
    ///
    /// Panics if the index skips past [`IntervalStore::next_index`]: a
    /// gapped log would ship records no receiver can apply.
    pub fn insert(&mut self, rec: IntervalRecord) {
        let (node, index, next) = (rec.node, rec.index, self.next_index(rec.node));
        assert!(index <= next, "interval log gap: creator {node} index {index}, expected {next}");
        if index == next {
            self.reserve(node, 1);
            self.logs[node as usize].1.push(rec);
        }
    }

    /// Makes room for `additional` more records of creator `node`, so a
    /// batch grows each log at most once.
    pub(crate) fn reserve(&mut self, node: u32, additional: usize) {
        let q = node as usize;
        if q >= self.logs.len() {
            self.logs.resize_with(q + 1, Default::default);
        }
        self.logs[q].1.reserve(additional);
    }

    /// Looks up a record by creator and index.
    #[must_use]
    pub fn get(&self, node: u32, index: u32) -> Option<&IntervalRecord> {
        self.range(node, index, index).first()
    }

    /// The stored records of creator `node` with index in `lo..=hi`,
    /// ascending.
    #[must_use]
    pub fn range(&self, node: u32, lo: u32, hi: u32) -> &[IntervalRecord] {
        let Some((base, records)) = self.logs.get(node as usize) else {
            return &[];
        };
        let start = lo.saturating_sub(base + 1) as usize;
        let end = (hi.saturating_sub(*base) as usize).min(records.len());
        records.get(start..end).unwrap_or_default()
    }

    /// Number of stored records (GC pressure metric).
    #[must_use]
    pub fn len(&self) -> usize {
        self.logs.iter().map(|(_, records)| records.len()).sum()
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
    pub fn newer_than(&self, have: &Vc) -> Vec<IntervalRecord> {
        self.scan(have, None)
    }

    /// Like [`IntervalStore::newer_than`] but bounded above by `through`,
    /// used to serve "missing consistency information" requests.
    #[must_use]
    pub fn newer_than_bounded(&self, have: &Vc, through: &Vc) -> Vec<IntervalRecord> {
        self.scan(have, Some(through))
    }

    /// One slice per creator: indices in `(have, through]`.
    fn scan(&self, have: &Vc, through: Option<&Vc>) -> Vec<IntervalRecord> {
        let mut out = Vec::new();
        for q in 0..self.logs.len() as u32 {
            let hi = through.map_or(u32::MAX, |t| t.get(q));
            out.extend_from_slice(self.range(q, have.get(q).saturating_add(1), hi));
        }
        out
    }

    /// Records created by `node` that are newer than `have[node]` — the
    /// non-transitive (RELEASE_NT) payload.
    #[must_use]
    pub fn own_newer_than(&self, node: u32, have: &Vc) -> Vec<IntervalRecord> {
        self.range(node, have.get(node).saturating_add(1), u32::MAX).to_vec()
    }

    /// Discards every record (global garbage collection); next indices stay.
    pub fn clear(&mut self) {
        for (base, records) in &mut self.logs {
            *base += records.len() as u32;
            records.clear();
        }
    }
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

    #[test]
    fn wire_roundtrip() {
        let r = rec(2, 7, vec![1, 5, 9], 4);
        let back = IntervalRecord::from_wire(&r.to_wire()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn store_insert_and_get() {
        let mut s = IntervalStore::new();
        s.insert(rec(0, 1, vec![3], 2));
        s.insert(rec(1, 1, vec![4], 2));
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(0, 1).unwrap().pages, vec![3]);
        assert!(s.get(0, 2).is_none());
    }

    #[test]
    fn range_walks_one_creator_in_index_order() {
        let mut s = IntervalStore::new();
        for (node, last) in [(0, 4), (1, 3)] {
            for index in 1..=last {
                s.insert(rec(node, index, vec![], 2));
            }
        }
        let indices = |s: &IntervalStore, node, lo, hi| {
            s.range(node, lo, hi).iter().map(|r| r.index).collect::<Vec<_>>()
        };
        assert_eq!(indices(&s, 0, 2, 9), vec![2, 3, 4]);
        assert_eq!(indices(&s, 1, 0, 2), vec![1, 2]);
        assert_eq!(indices(&s, 0, 3, 2), Vec::<u32>::new());
        assert_eq!(indices(&s, 2, 0, u32::MAX), Vec::<u32>::new());
        // After a collection each log resumes at its creator's next index.
        s.clear();
        assert_eq!((s.next_index(0), s.next_index(1), s.next_index(2)), (5, 4, 1));
        s.insert(rec(0, 5, vec![], 2));
        s.insert(rec(0, 6, vec![], 2));
        assert_eq!(indices(&s, 0, 0, 5), vec![5]);
        assert_eq!(indices(&s, 0, 6, u32::MAX), vec![6]);
        assert!(s.get(0, 4).is_none());
        assert_eq!(s.get(0, 6).map(|r| r.index), Some(6));
    }

    #[test]
    #[should_panic(expected = "creator 1 index 3, expected 2")]
    fn gapped_insert_panics() {
        let mut s = IntervalStore::new();
        s.insert(rec(1, 1, vec![], 2));
        s.insert(rec(1, 3, vec![], 2));
    }

    #[test]
    fn insert_is_idempotent() {
        let mut s = IntervalStore::new();
        s.insert(rec(0, 1, vec![3], 2));
        s.insert(rec(0, 1, vec![99], 2)); // Ignored: first record wins.
        assert_eq!(s.len(), 1);
        assert_eq!(s.get(0, 1).unwrap().pages, vec![3]);
    }

    #[test]
    fn newer_than_filters_by_receiver_state() {
        let mut s = IntervalStore::new();
        s.insert(rec(0, 1, vec![], 2));
        s.insert(rec(0, 2, vec![], 2));
        s.insert(rec(1, 1, vec![], 2));
        let mut have = Vc::new(2);
        have.set(0, 1); // Receiver has node 0's interval 1 already.
        let newer = s.newer_than(&have);
        let keys: Vec<(u32, u32)> = newer.iter().map(|r| (r.node, r.index)).collect();
        assert_eq!(keys, vec![(0, 2), (1, 1)]);
    }

    #[test]
    fn newer_than_bounded_respects_upper_bound() {
        let mut s = IntervalStore::new();
        for i in 1..=5 {
            s.insert(rec(0, i, vec![], 1));
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
        s.insert(rec(0, 1, vec![], 2));
        s.insert(rec(0, 2, vec![], 2));
        for index in 1..=5 {
            s.insert(rec(1, index, vec![], 2));
        }
        let mut have = Vc::new(2);
        let own = s.own_newer_than(0, &have);
        assert_eq!(own.len(), 2);
        assert!(own.iter().all(|r| r.node == 0));
        have.set(0, 1);
        have.set(1, 4);
        let own = s.own_newer_than(1, &have);
        assert_eq!(own.iter().map(|r| (r.node, r.index)).collect::<Vec<_>>(), vec![(1, 5)]);
    }

    #[test]
    fn clear_empties_store() {
        let mut s = IntervalStore::new();
        s.insert(rec(0, 1, vec![], 1));
        assert!(!s.is_empty());
        s.clear();
        assert!(s.is_empty());
    }
}
