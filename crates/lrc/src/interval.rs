//! Intervals and write notices.
//!
//! "The execution history of each node is divided into an indexed sequence
//! of intervals whose endpoints occur at the acquire and release events
//! executed on that node. ... Each interval is summarized by a list of
//! write notices, one for each page that was modified in the interval"
//! (§4.2). In CarlOS the endpoints occur when RELEASE messages are sent
//! and accepted (§4.3).

use carlos_util::codec::{DecodeError, Decoder, Encoder, Wire};

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
/// those learned through acquires), ordered by `(node, index)`.
#[derive(Debug, Default, Clone)]
pub struct IntervalStore {
    records: std::collections::BTreeMap<(u32, u32), IntervalRecord>,
}

impl IntervalStore {
    /// Creates an empty store.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts a record (idempotent: re-inserting the same key is a no-op).
    pub fn insert(&mut self, rec: IntervalRecord) {
        self.records.entry((rec.node, rec.index)).or_insert(rec);
    }

    /// Looks up a record by creator and index.
    #[must_use]
    pub fn get(&self, node: u32, index: u32) -> Option<&IntervalRecord> {
        self.records.get(&(node, index))
    }

    /// The stored records of creator `node` with index in `lo..=hi`,
    /// ascending — one tree walk instead of a lookup per index.
    pub fn range(&self, node: u32, lo: u32, hi: u32) -> impl Iterator<Item = &IntervalRecord> {
        // `BTreeMap::range` panics on a reversed span; treat it as empty.
        (lo <= hi)
            .then(|| self.records.range((node, lo)..=(node, hi)))
            .into_iter()
            .flatten()
            .map(|(_, rec)| rec)
    }

    /// Number of stored records (GC pressure metric).
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when no records are stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// All records strictly newer than `have`, i.e. records whose index
    /// exceeds `have[creator]`. This is exactly the consistency information
    /// a RELEASE message must carry to a receiver whose state is `have`.
    ///
    /// Cost is O(output + nodes·log n), not O(all records ever seen): for
    /// each creator present in the store, only the `(creator, have+1)..`
    /// suffix is visited, exactly like [`IntervalStore::own_newer_than`].
    /// Output order (node-major, index-ascending) matches the historical
    /// full-scan implementation byte for byte.
    #[must_use]
    pub fn newer_than(&self, have: &Vc) -> Vec<IntervalRecord> {
        self.suffix_scan(have, None)
    }

    /// Like [`IntervalStore::newer_than`] but bounded above by `through`,
    /// used to serve "missing consistency information" requests.
    #[must_use]
    pub fn newer_than_bounded(&self, have: &Vc, through: &Vc) -> Vec<IntervalRecord> {
        self.suffix_scan(have, Some(through))
    }

    /// Shared per-node suffix walk: for every creator node present in the
    /// store, clone records with `have[node] < index` (and, when bounded,
    /// `index <= through[node]`). Creators are discovered from the key
    /// space itself, so the walk never depends on the vector-clock width.
    fn suffix_scan(&self, have: &Vc, through: Option<&Vc>) -> Vec<IntervalRecord> {
        let mut out = Vec::new();
        let mut from: Option<u32> = Some(0);
        while let Some(start_node) = from {
            // First record at or beyond `start_node` tells us the next
            // creator that actually has records.
            let Some((&(node, _), _)) = self.records.range((start_node, 0)..).next() else {
                break;
            };
            if let Some(lo) = have.get(node).checked_add(1) {
                let hi = through.map_or(u32::MAX, |t| t.get(node));
                if lo <= hi {
                    out.extend(
                        self.records
                            .range((node, lo)..=(node, hi))
                            .map(|(_, r)| r.clone()),
                    );
                }
            }
            from = node.checked_add(1);
        }
        out
    }

    /// Records created by `node` that are newer than `have[node]` — the
    /// non-transitive (RELEASE_NT) payload.
    #[must_use]
    pub fn own_newer_than(&self, node: u32, have: &Vc) -> Vec<IntervalRecord> {
        self.records
            .range((node, have.get(node) + 1)..=(node, u32::MAX))
            .map(|(_, r)| r.clone())
            .collect()
    }

    /// Discards everything (global garbage collection).
    pub fn clear(&mut self) {
        self.records.clear();
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
        for (node, index) in [(0, 1), (0, 2), (0, 4), (1, 2), (1, 3)] {
            s.insert(rec(node, index, vec![], 2));
        }
        let indices = |node, lo, hi| s.range(node, lo, hi).map(|r| r.index).collect::<Vec<_>>();
        assert_eq!(indices(0, 2, 9), vec![2, 4]);
        assert_eq!(indices(1, 0, 2), vec![2]);
        assert_eq!(indices(0, 3, 2), Vec::<u32>::new());
        assert_eq!(indices(2, 0, u32::MAX), Vec::<u32>::new());
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
        s.insert(rec(1, 5, vec![], 2));
        let have = Vc::new(2);
        let own = s.own_newer_than(0, &have);
        assert_eq!(own.len(), 2);
        assert!(own.iter().all(|r| r.node == 0));
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
