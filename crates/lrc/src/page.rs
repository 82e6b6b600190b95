//! The software page table.
//!
//! The paper detects modifications with `mprotect` and a `SIGSEGV` handler.
//! This reproduction substitutes a software page table: every shared-memory
//! access goes through the engine, which checks the page state and runs the
//! identical fault paths (twin creation on write faults; diff/page fetches
//! on access to invalid pages). See `DESIGN.md` §1 for the substitution
//! rationale.
//!
//! The table is *sparse*: consistency state exists per granule a node
//! holds, not per granule of the address space. An untouched granule's
//! meaning is derived (see [`PageTable`]); a full [`PageMeta`] is
//! materialised by the first mutation of a copy only (a write, a notice
//! invalidating an owner's copy, an installed page), and slots are
//! allocated a chunk at a time where granules materialise.

use crate::{
    config::{LrcConfig, PageOwnership},
    region::GranuleMap,
    vc::Vc,
};

/// Page identifier within the coherent region (0-based, dense).
pub type PageId = u32;

/// Granule slots per chunk of the slot directory: one `u32` each, so a
/// chunk is 4 KiB, allocated when its first granule materialises.
const CHUNK: usize = 1024;

/// Access state of one page on one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageState {
    /// No local copy of the data: a full page must be fetched.
    Missing,
    /// A local copy exists but remote write notices have not been applied;
    /// the missing diffs must be fetched before any access.
    Invalid,
    /// Clean and protected: reads proceed, the first write faults and
    /// creates a twin.
    ReadOnly,
    /// Write-enabled with a twin recording the pre-modification contents.
    ReadWrite,
}

/// Per-node, per-page protocol bookkeeping.
#[derive(Debug, Clone)]
pub struct PageMeta {
    /// Current access state.
    pub state: PageState,
    /// Local copy of the page contents (empty iff `Missing`).
    pub data: Vec<u8>,
    /// Pre-modification copy, present iff `ReadWrite`.
    pub twin: Option<Vec<u8>>,
    /// `applied[q]` = highest interval index of node `q` whose modifications
    /// to this page are reflected in `data`.
    pub applied: Vc,
    /// `max_notice[q]` = highest interval index of node `q` for which a
    /// write notice naming this page has been seen. The page is up to date
    /// when `applied` dominates `max_notice`.
    pub max_notice: Vc,
    /// Highest *own* interval index whose diff of this page is stored: the
    /// newest record of the page's chain in the own store. An interval
    /// whose diff was elided (an owner's granule no other node held)
    /// leaves it where it was.
    pub own_covered: u32,
}

impl PageMeta {
    /// A page with no local copy.
    #[must_use]
    pub fn missing(n_nodes: usize) -> Self {
        Self {
            state: PageState::Missing,
            data: Vec::new(),
            twin: None,
            applied: Vc::new(n_nodes),
            max_notice: Vc::new(n_nodes),
            own_covered: 0,
        }
    }

    /// True when every known write notice has been applied to `data`.
    #[must_use]
    pub fn up_to_date(&self) -> bool {
        self.applied.dominates(&self.max_notice)
    }

    /// True when the page holds local modifications not yet captured in a
    /// diff (i.e. a twin exists).
    #[must_use]
    pub fn dirty(&self) -> bool {
        self.twin.is_some()
    }
}

/// One node's sparse page table.
///
/// Granule `g`'s slot is entry `g % CHUNK` of chunk `dir[g / CHUNK]`: 0 for
/// a granule with no entry, otherwise the index of its entry in `resident`.
/// A chunk without a materialised granule is not allocated and reads as
/// all zeros, so an untouched granule has no entry and no heap allocation
/// of its own; its meaning is derived:
///
/// - on a non-owner: `Missing`, no data, zero clocks — write notices
///   naming it stay in the interval log until a first copy is installed;
/// - on its owner: `ReadOnly`, all-zero data, and clocks equal to `base` —
///   the vector time of the last garbage collection (zero before the
///   first), which is what a collection assigns every valid page.
///
/// `resident[0]` is a shared `Missing` template that untouched slots point
/// at, so the access fast paths are one state check whether or not the
/// granule is resident; it is never handed out mutably. No other resident
/// entry is `Missing` once [`LrcEngine::install_page`](crate::LrcEngine::install_page)
/// has returned: only a first copy materialises a granule this node does
/// not own.
#[derive(Debug, Clone)]
pub(crate) struct PageTable {
    node: u32,
    ownership: PageOwnership,
    /// Granule ranges a region hint homes, ascending
    /// ([`GranuleMap::homes`]); the policy places everything else.
    homes: Vec<(PageId, PageId, u32)>,
    n_granules: usize,
    dir: Vec<Option<Box<[u32; CHUNK]>>>,
    resident: Vec<(PageId, PageMeta)>,
    base: Vc,
}

impl PageTable {
    /// An all-untouched table of the granules of `granules` for `node`.
    ///
    /// # Panics
    ///
    /// Panics if a region is homed on a node the cluster does not have.
    #[must_use]
    pub(crate) fn new(node: u32, cfg: &LrcConfig, granules: &GranuleMap) -> Self {
        Self {
            node,
            ownership: cfg.ownership,
            homes: granules
                .homes(cfg.n_nodes)
                .unwrap_or_else(|e| panic!("invalid region table: {e}")),
            n_granules: granules.n_granules(),
            dir: vec![None; granules.n_granules().div_ceil(CHUNK)],
            resident: vec![(PageId::MAX, PageMeta::missing(cfg.n_nodes))],
            base: Vc::new(cfg.n_nodes),
        }
    }

    /// The pinning owner of granule `page`: its region's home if it has
    /// one, else the policy's choice. Granules are numbered in address
    /// order, so banding over granule ids still bands the address space.
    #[must_use]
    pub(crate) fn owner_of(&self, page: PageId) -> u32 {
        let upto = self.homes.partition_point(|&(first, ..)| first <= page);
        if let Some(&(_, end, home)) = self.homes[..upto].last() {
            if page < end {
                return home;
            }
        }
        match self.ownership {
            PageOwnership::SingleOwner(n) => n,
            PageOwnership::Banded => {
                let (n_nodes, n_units) = (self.base.len() as u64, self.n_granules.max(1) as u64);
                (u64::from(page) * n_nodes / n_units).min(n_nodes - 1) as u32
            }
        }
    }

    /// Number of materialised entries.
    #[must_use]
    pub(crate) fn resident_len(&self) -> usize {
        self.resident.len() - 1
    }

    /// Granule `page`'s slot: its index in `resident`, 0 when untouched.
    #[inline]
    fn slot(&self, page: usize) -> usize {
        self.dir[page / CHUNK].as_ref().map_or(0, |chunk| chunk[page % CHUNK] as usize)
    }

    /// The materialised entry for `page`, if any.
    #[must_use]
    pub(crate) fn get(&self, page: PageId) -> Option<&PageMeta> {
        match self.slot(page as usize) {
            0 => None,
            i => Some(&self.resident[i].1),
        }
    }

    /// The materialised entry for `page`, if any.
    pub(crate) fn get_mut(&mut self, page: PageId) -> Option<&mut PageMeta> {
        match self.slot(page as usize) {
            0 => None,
            i => Some(&mut self.resident[i].1),
        }
    }

    /// Access state of `page`, derived for an untouched granule.
    #[must_use]
    pub(crate) fn state(&self, page: PageId) -> PageState {
        match self.get(page) {
            Some(meta) => meta.state,
            None if self.owner_of(page) == self.node => PageState::ReadOnly,
            None => PageState::Missing,
        }
    }

    /// Contents of granule `page` if it is resident and readable — the
    /// read-hit fast path (`page` is an index: no id conversion).
    #[inline]
    #[must_use]
    pub(crate) fn readable(&self, page: usize) -> Option<&[u8]> {
        let meta = &self.resident[self.slot(page)].1;
        matches!(meta.state, PageState::ReadOnly | PageState::ReadWrite).then_some(&meta.data[..])
    }

    /// Contents of granule `page` if it is write-enabled — the write-hit
    /// fast path.
    #[inline]
    pub(crate) fn writable(&mut self, page: usize) -> Option<&mut [u8]> {
        let i = self.slot(page);
        let meta = &mut self.resident[i].1;
        (meta.state == PageState::ReadWrite).then_some(&mut meta.data[..])
    }

    /// The clocks an untouched granule owned by this node reflects.
    #[must_use]
    pub(crate) fn base(&self) -> &Vc {
        &self.base
    }

    /// The entry for `page`, materialising the derived untouched state on
    /// first use (and its slot chunk with the chunk's first granule).
    pub(crate) fn entry(&mut self, page: PageId, granules: &GranuleMap) -> &mut PageMeta {
        if self.slot(page as usize) == 0 {
            let meta = if self.owner_of(page) == self.node {
                PageMeta {
                    state: PageState::ReadOnly,
                    data: vec![0; granules.granule_len(page)],
                    twin: None,
                    applied: self.base.clone(),
                    max_notice: self.base.clone(),
                    own_covered: self.base.get(self.node),
                }
            } else {
                PageMeta::missing(self.base.len())
            };
            let chunk = self.dir[page as usize / CHUNK].get_or_insert_with(|| Box::new([0; CHUNK]));
            chunk[page as usize % CHUNK] =
                u32::try_from(self.resident.len()).expect("resident entries fit the slot width");
            self.resident.push((page, meta));
        }
        let i = self.slot(page as usize);
        &mut self.resident[i].1
    }

    /// The granules this node holds a copy of and does not own, ascending
    /// (a first copy makes its granule resident).
    #[must_use]
    pub(crate) fn copies(&self) -> Vec<PageId> {
        let mut pages: Vec<PageId> = self.resident[1..]
            .iter()
            .filter(|&&(page, ref meta)| {
                meta.state != PageState::Missing && self.owner_of(page) != self.node
            })
            .map(|&(page, _)| page)
            .collect();
        pages.sort_unstable();
        pages
    }

    /// The `Invalid` pages, ascending (only a resident page can be invalid).
    #[must_use]
    pub(crate) fn invalid_pages(&self) -> Vec<PageId> {
        let mut pages: Vec<PageId> = self.resident[1..]
            .iter()
            .filter(|(_, meta)| meta.state == PageState::Invalid)
            .map(|&(page, _)| page)
            .collect();
        pages.sort_unstable();
        pages
    }

    /// The table side of a global garbage collection at vector time `vt`:
    /// every valid page — resident or untouched — now reflects exactly
    /// `vt`.
    ///
    /// # Panics
    ///
    /// Panics if an invalid page remains (the caller skipped validation),
    /// or a resident entry has no copy.
    pub(crate) fn collect(&mut self, vt: &Vc) {
        self.base.clone_from(vt);
        for (page, meta) in &mut self.resident[1..] {
            match meta.state {
                PageState::Invalid => {
                    panic!("gc_discard with invalid page {page}; validate first")
                }
                PageState::Missing => panic!("resident page {page} has no copy"),
                PageState::ReadOnly | PageState::ReadWrite => {
                    // Everything announced is covered everywhere; intervals
                    // without notices for this page vacuously count.
                    meta.applied.clone_from(vt);
                    meta.max_notice.clone_from(vt);
                    meta.own_covered = vt.get(self.node);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(node: u32, n_granules: usize) -> (PageTable, GranuleMap) {
        let mut cfg = LrcConfig::small_test(2);
        cfg.region_bytes = n_granules * cfg.page_size;
        let granules = GranuleMap::new(cfg.region_bytes, cfg.page_size, &cfg.regions);
        (PageTable::new(node, &cfg, &granules), granules)
    }

    #[test]
    fn missing_page_has_no_data() {
        let p = PageMeta::missing(3);
        assert_eq!(p.state, PageState::Missing);
        assert!(p.data.is_empty());
        assert!(!p.dirty());
        assert!(p.up_to_date());
    }

    #[test]
    fn untouched_state_is_derived_from_ownership() {
        let (owner, _) = table(0, 4);
        let (other, _) = table(1, 4);
        assert_eq!(owner.state(2), PageState::ReadOnly);
        assert_eq!(other.state(2), PageState::Missing);
        assert_eq!(owner.resident_len() + other.resident_len(), 0);
        assert!(
            owner.readable(2).is_none(),
            "untouched reads take the slow path"
        );
    }

    #[test]
    fn a_region_home_owns_its_granules_ahead_of_the_policy() {
        use crate::region::RegionSpec;
        // Granules 0-1 belong to the policy (node 0), 2-3 are homed on 1.
        let cfg = LrcConfig {
            region_bytes: 256,
            regions: vec![RegionSpec::new(128, 128, 64).home(1)],
            ..LrcConfig::small_test(2)
        };
        let g = GranuleMap::new(cfg.region_bytes, cfg.page_size, &cfg.regions);
        let (mut policy, mut home) = (PageTable::new(0, &cfg, &g), PageTable::new(1, &cfg, &g));
        assert_eq!([0, 1, 2, 3].map(|p| home.owner_of(p)), [0, 0, 1, 1]);
        assert_eq!(policy.state(3), PageState::Missing);
        assert_eq!(home.state(3), PageState::ReadOnly);
        assert_eq!(home.state(1), PageState::Missing);
        // A collection re-bases the home's untouched copy, nobody else's.
        let mut vt = Vc::new(2);
        vt.set(1, 4);
        policy.collect(&vt);
        home.collect(&vt);
        assert_eq!(policy.entry(3, &g).state, PageState::Missing);
        let meta = home.entry(3, &g);
        assert_eq!((meta.state, &meta.applied, meta.own_covered), (PageState::ReadOnly, &vt, 4));
    }

    #[test]
    #[should_panic(expected = "region at 0x80 is homed on node 2 of 2")]
    fn a_home_nobody_has_fails_construction() {
        use crate::region::RegionSpec;
        let cfg = LrcConfig {
            regions: vec![RegionSpec::new(128, 128, 64).home(2)],
            ..LrcConfig::small_test(2)
        };
        let g = GranuleMap::new(cfg.region_bytes, cfg.page_size, &cfg.regions);
        let _ = PageTable::new(0, &cfg, &g);
    }

    #[test]
    fn entry_materialises_the_derived_state_once() {
        let (mut t, g) = table(0, 4);
        let meta = t.entry(2, &g);
        assert_eq!(meta.state, PageState::ReadOnly);
        assert_eq!(meta.data, vec![0; 64]);
        meta.max_notice.set(1, 3);
        assert!(!meta.up_to_date());
        meta.applied.set(1, 3);
        assert!(t.entry(2, &g).up_to_date());
        assert_eq!(t.resident_len(), 1);
    }

    #[test]
    fn collect_rebases_every_copy() {
        let (mut t, g) = table(1, 6);
        let fetched = t.entry(3, &g);
        fetched.state = PageState::ReadOnly;
        fetched.data = vec![7; 64];
        let mut vt = Vc::new(2);
        vt.set(0, 1);
        t.collect(&vt);
        assert_eq!(t.resident_len(), 1);
        assert_eq!(t.state(1), PageState::Missing);
        assert_eq!(t.get(3).expect("valid copy stays").applied, vt);
        assert_eq!(t.readable(3), Some(&[7u8; 64][..]));
    }

    #[test]
    #[should_panic(expected = "resident page 4 has no copy")]
    fn collect_refuses_a_resident_entry_without_a_copy() {
        let (mut t, g) = table(1, 6);
        t.entry(4, &g).max_notice.set(0, 1);
        t.collect(&Vc::new(2));
    }

    #[test]
    fn slots_are_allocated_per_touched_chunk() {
        let (mut t, g) = table(0, 3 * CHUNK + 5);
        assert_eq!(t.dir.len(), 4);
        for p in [7, CHUNK as PageId - 1, 3 * CHUNK as PageId + 4] {
            t.entry(p, &g).data[0] = 1;
        }
        let allocated: Vec<bool> = t.dir.iter().map(Option::is_some).collect();
        assert_eq!((allocated, t.resident_len()), (vec![true, false, false, true], 3));
        assert_eq!(t.readable(3 * CHUNK + 4).map(|d| d[0]), Some(1));
        assert_eq!(t.readable(CHUNK), None, "untouched, in an untouched chunk");
        assert_eq!(t.state(CHUNK as PageId), PageState::ReadOnly);
    }

    #[test]
    fn collect_rebases_untouched_owner_pages() {
        let (mut t, g) = table(0, 4);
        let mut vt = Vc::new(2);
        vt.set(0, 2);
        vt.set(1, 5);
        t.collect(&vt);
        assert_eq!(t.resident_len(), 0);
        assert_eq!(t.base(), &vt);
        let meta = t.entry(2, &g);
        assert_eq!(
            (&meta.applied, &meta.max_notice, meta.own_covered),
            (&vt, &vt, 2)
        );
    }
}
