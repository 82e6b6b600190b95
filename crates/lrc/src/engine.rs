//! The per-node lazy-release-consistency state machine.
//!
//! [`LrcEngine`] owns one node's view of the coherent shared region: page
//! table, twins, interval records, and diffs. It performs no I/O; instead,
//! operations that need remote data return [`Demand`]s, which the messaging
//! layer (`carlos-core`) converts into diff/page request messages and
//! satisfies by feeding the replies back in. This keeps the entire protocol
//! unit-testable by driving several engines by hand.
//!
//! Protocol summary (§4.2–§4.3 of the paper):
//!
//! - All clean shared pages are read-only. A write fault creates a *twin*
//!   and write-enables the page.
//! - A new interval is created when a RELEASE message is sent or accepted
//!   ([`LrcEngine::close_interval`]); it carries a write notice for every
//!   page dirtied since the previous interval.
//! - Accepting consistency information applies write notices by
//!   invalidating named pages ([`LrcEngine::apply_records`]); if the local
//!   page is dirty, its modifications are first captured in a diff.
//! - An access fault on an invalid page demands diffs from the writers
//!   whose notices are unapplied ([`LrcEngine::fault_demands`]); the
//!   writers serve the diffs they captured when each interval closed
//!   ([`LrcEngine::own_diffs`]), and they are applied in causal order
//!   ([`LrcEngine::apply_diff_records`]). A node with no copy demands the
//!   whole page.

use std::{
    collections::{btree_map::Entry, BTreeMap, BTreeSet},
    rc::Rc,
};

use carlos_util::event::{emit, Event, Interval, Sink};

use crate::{
    config::LrcConfig,
    diff::{Diff, DiffStore, DiffView, Diffs},
    interval::{IntervalRecord, IntervalStore, Records},
    page::{PageId, PageState, PageTable},
    region::GranuleMap,
    vc::Vc,
};

/// A remote operation the engine needs before an access can proceed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Demand {
    /// Fetch diffs for `page` from node `to`, covering `to`'s intervals in
    /// `(after, through]`.
    Diffs {
        /// Node that created the needed modifications.
        to: u32,
        /// Page whose diffs are needed.
        page: PageId,
        /// Highest interval of `to` already applied locally.
        after: u32,
        /// Highest interval of `to` for which a write notice is known.
        through: u32,
    },
    /// Fetch a full copy of `page` from node `to` (no local copy exists).
    Page {
        /// Node to ask (the page's owner, which pins its copy).
        to: u32,
        /// Page to fetch.
        page: PageId,
    },
}

/// Counters the engine maintains (the paper reports several of these).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Intervals created locally.
    pub intervals_created: u64,
    /// Diffs created locally (twin comparisons performed).
    pub diffs_created: u64,
    /// Diff records applied to local pages.
    pub diffs_applied: u64,
    /// Write notices applied (page invalidations considered).
    pub notices_applied: u64,
    /// Write faults (twin creations).
    pub write_faults: u64,
    /// Access faults that required remote data.
    pub remote_faults: u64,
    /// Full-page installs.
    pub pages_installed: u64,
    /// Global garbage collections participated in.
    pub gcs: u64,
}

/// One node's lazy-release-consistency engine.
#[derive(Debug, Clone)]
pub struct LrcEngine {
    node: u32,
    cfg: LrcConfig,
    /// `vt[self]` = number of locally closed intervals; `vt[q]` = highest
    /// interval of node `q` whose record has been applied here.
    vt: Vc,
    /// Sparse: an entry only for a granule whose copy this node has
    /// mutated (written, invalidated, installed or updated).
    pages: PageTable,
    /// Pages currently write-enabled (twin present).
    dirty: BTreeSet<PageId>,
    intervals: IntervalStore,
    /// This node's diffs, one per write notice of its logged intervals, in
    /// interval order: what it serves. Their clocks are the intervals'.
    own: DiffStore,
    /// Per creator, the fetched diffs a RELEASE may ship again: those of
    /// eager granules, or every one under the update strategy
    /// ([`LrcEngine::keep_fetched_diffs`]). Nothing reads another fetched
    /// diff again, so it is applied and dropped.
    fetched: Vec<DiffStore>,
    /// Fetched diffs applied and dropped since the last collection. They
    /// count as stored records, so collections fall where they did when
    /// every fetched diff was kept, as in TreadMarks.
    dropped: usize,
    keep_fetched: bool,
    /// Address→granule resolution. With no configured regions this is one
    /// segment at `page_size` and granule ids equal legacy page ids.
    granules: GranuleMap,
    /// `log2(granule)` when the whole region uses one power-of-two granule
    /// (every standard config); enables the single-page access fast path.
    page_shift: Option<u32>,
    /// The event sink; `None` (one-branch cost) unless attached.
    sink: Option<Rc<dyn Sink>>,
    /// Granules of eager regions invalidated by applied write notices since
    /// the last [`LrcEngine::take_eager_invalid`]; always empty without
    /// eager region hints.
    eager_invalid: Vec<PageId>,
    /// Per page with a local copy, the write notices `(creator, index)`
    /// naming it that the copy does not reflect yet: exactly the stored
    /// interval records above the page's `applied` that list it. A fetch is
    /// complete when each one is covered
    /// ([`LrcEngine::covers_with_claims`]), so that test costs what is
    /// outstanding, not what has happened since the page was last brought
    /// up to date. Up-to-date pages and pages without a copy have no entry.
    outstanding: BTreeMap<PageId, Vec<(u32, u32)>>,
    stats: EngineStats,
}

impl LrcEngine {
    /// Creates the engine for `node`. Pages start zero-filled and valid on
    /// their owner (node 0 by convention: applications initialize shared
    /// data there) and absent everywhere else. No per-page state exists
    /// until a copy is first mutated, so construction costs one 4-byte
    /// directory entry per 1 024 granules and no allocation per granule.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range for the configured cluster size,
    /// or the region table is invalid (see [`GranuleMap::try_new`]) or
    /// homes a region on a node the cluster does not have.
    #[must_use]
    pub fn new(node: u32, cfg: LrcConfig) -> Self {
        assert!((node as usize) < cfg.n_nodes, "node id out of range");
        let granules = GranuleMap::new(cfg.region_bytes, cfg.page_size, &cfg.regions);
        Self {
            node,
            vt: Vc::new(cfg.n_nodes),
            pages: PageTable::new(node, &cfg, &granules),
            dirty: BTreeSet::new(),
            intervals: IntervalStore::new(),
            own: DiffStore::default(),
            fetched: Vec::new(),
            dropped: 0,
            keep_fetched: false,
            page_shift: granules.uniform_shift(),
            granules,
            sink: None,
            eager_invalid: Vec::new(),
            outstanding: BTreeMap::new(),
            stats: EngineStats::default(),
            cfg,
        }
    }

    /// Keeps every fetched diff, as the update strategy needs: a RELEASE
    /// then ships any diff its write notices describe, not just those of
    /// eager granules.
    pub fn keep_fetched_diffs(&mut self) {
        self.keep_fetched = true;
    }

    /// Reports memory accesses, interval closes, record application and
    /// page installs to `sink`. Observation never alters engine behavior.
    pub fn set_sink(&mut self, sink: Rc<dyn Sink>) {
        self.sink = Some(sink);
    }

    /// The node that pins a copy of `page` and answers full-page requests.
    #[must_use]
    pub fn owner_of(&self, page: PageId) -> u32 {
        self.pages.owner_of(page)
    }

    /// This engine's node id.
    #[must_use]
    pub fn node(&self) -> u32 {
        self.node
    }

    /// The engine's configuration.
    #[must_use]
    pub fn config(&self) -> &LrcConfig {
        &self.cfg
    }

    /// Current vector timestamp.
    #[must_use]
    pub fn vt(&self) -> &Vc {
        &self.vt
    }

    /// Engine statistics.
    #[must_use]
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Read-only view of a page's state (diagnostics and tests).
    #[must_use]
    pub fn page_state(&self, page: PageId) -> PageState {
        self.pages.state(page)
    }

    /// Number of pages holding materialised state (data, twin, clocks) on
    /// this node; every other page is in its derived untouched form.
    #[must_use]
    pub fn resident_pages(&self) -> usize {
        self.pages.resident_len()
    }

    /// Granule (coherence unit) containing byte address `addr`. With no
    /// granularity hints this is the legacy `addr / page_size`.
    #[must_use]
    pub fn page_of(&self, addr: usize) -> PageId {
        self.granules.granule_of(addr)
    }

    /// The address→granule map this engine was built with.
    #[must_use]
    pub fn granules(&self) -> &GranuleMap {
        &self.granules
    }

    /// Size in bytes of the coherence unit `page` — `page_size` unless a
    /// region hint gave this range a different granule.
    #[must_use]
    pub fn granule_len(&self, page: PageId) -> usize {
        self.granules.granule_len(page)
    }

    // ------------------------------------------------------------------
    // Memory access.
    // ------------------------------------------------------------------

    /// Reads `buf.len()` bytes starting at `addr` into `buf`.
    ///
    /// The common case — a non-empty access hitting one resident page — is
    /// a single state-table load plus one slice copy; everything else
    /// (faults, page straddles, odd page sizes) is outlined into the cold
    /// slow path.
    ///
    /// # Errors
    ///
    /// Returns the demands needed to make the first inaccessible page
    /// readable; the caller satisfies them and retries (the operation is
    /// idempotent).
    ///
    /// # Panics
    ///
    /// Panics if the range extends beyond the coherent region.
    pub fn read(&mut self, addr: usize, buf: &mut [u8]) -> Result<(), Vec<Demand>> {
        if let Some(shift) = self.page_shift {
            let end = addr + buf.len();
            let page = addr >> shift;
            if !buf.is_empty() && end <= self.cfg.region_bytes && (end - 1) >> shift == page {
                if let Some(data) = self.pages.readable(page) {
                    let off = addr & ((1usize << shift) - 1);
                    buf.copy_from_slice(&data[off..off + buf.len()]);
                    self.note_read(addr, buf);
                    return Ok(());
                }
            }
        }
        self.read_slow(addr, buf)
    }

    #[cold]
    fn read_slow(&mut self, addr: usize, buf: &mut [u8]) -> Result<(), Vec<Demand>> {
        assert!(
            addr + buf.len() <= self.cfg.region_bytes,
            "read beyond coherent region: {addr}+{}",
            buf.len()
        );
        let mut done = 0;
        while done < buf.len() {
            let a = addr + done;
            let (page, off, glen) = self.granules.locate(a);
            if let Err(demands) = self.ensure_readable(page) {
                return Err(self.batched_demands(demands, a + (glen - off), addr + buf.len()));
            }
            let n = (glen - off).min(buf.len() - done);
            match self.pages.get(page) {
                Some(meta) => buf[done..done + n].copy_from_slice(&meta.data[off..off + n]),
                // Untouched and readable: an owner's never-written zeros.
                None => buf[done..done + n].fill(0),
            }
            done += n;
        }
        self.note_read(addr, buf);
        Ok(())
    }

    /// Extends a faulting access's demands with those of every other
    /// inaccessible granule in the rest of the range `[from, end)`, so one
    /// fetch round (and, with coalescing, often one message per serving
    /// node) covers the whole access instead of one round-trip per granule.
    ///
    /// Only active when granularity hints are configured: the legacy
    /// one-granule-per-fault behavior is part of the pinned golden
    /// fingerprints.
    fn batched_demands(&mut self, mut demands: Vec<Demand>, from: usize, end: usize) -> Vec<Demand> {
        if self.granules.hinted() {
            let mut a = from;
            while a < end {
                let (page, off, glen) = self.granules.locate(a);
                debug_assert_eq!(off, 0, "batch scan must start granule-aligned");
                demands.extend(self.fault_demands(page));
                a += glen - off;
            }
        }
        demands
    }

    /// Writes `data` starting at `addr`.
    ///
    /// The common case — a non-empty access hitting one already
    /// write-enabled page — is a single state-table load plus one slice
    /// copy. Write faults and page straddles live in the cold slow path.
    /// (A `ReadWrite` page always has its twin and its dirty-set entry from
    /// the faulting transition, so the fast path has no bookkeeping to do.)
    ///
    /// # Errors
    ///
    /// Returns the demands needed to make the first inaccessible page
    /// writable; the caller satisfies them and retries.
    ///
    /// # Panics
    ///
    /// Panics if the range extends beyond the coherent region.
    pub fn write(&mut self, addr: usize, data: &[u8]) -> Result<(), Vec<Demand>> {
        if let Some(shift) = self.page_shift {
            let end = addr + data.len();
            let page = addr >> shift;
            if !data.is_empty() && end <= self.cfg.region_bytes && (end - 1) >> shift == page {
                if let Some(dst) = self.pages.writable(page) {
                    let off = addr & ((1usize << shift) - 1);
                    dst[off..off + data.len()].copy_from_slice(data);
                    self.note_write(addr, data);
                    return Ok(());
                }
            }
        }
        self.write_slow(addr, data)
    }

    #[cold]
    fn write_slow(&mut self, addr: usize, data: &[u8]) -> Result<(), Vec<Demand>> {
        assert!(
            addr + data.len() <= self.cfg.region_bytes,
            "write beyond coherent region: {addr}+{}",
            data.len()
        );
        let mut done = 0;
        while done < data.len() {
            let a = addr + done;
            let (page, off, glen) = self.granules.locate(a);
            if let Err(demands) = self.ensure_writable(page) {
                return Err(self.batched_demands(demands, a + (glen - off), addr + data.len()));
            }
            let n = (glen - off).min(data.len() - done);
            let meta = self.pages.get_mut(page).expect("writable page is resident");
            meta.data[off..off + n].copy_from_slice(&data[done..done + n]);
            done += n;
        }
        self.note_write(addr, data);
        Ok(())
    }

    #[inline]
    fn note_read(&self, addr: usize, data: &[u8]) {
        emit(&self.sink, || Event::MemRead {
            node: self.node,
            addr,
            data,
            vt: self.vt.as_slice(),
        });
    }

    #[inline]
    fn note_write(&self, addr: usize, data: &[u8]) {
        emit(&self.sink, || Event::MemWrite {
            node: self.node,
            addr,
            data,
            vt: self.vt.as_slice(),
        });
    }

    /// Makes `page` readable or reports what must be fetched first.
    ///
    /// # Errors
    ///
    /// Returns outstanding [`Demand`]s if remote data is required.
    pub fn ensure_readable(&mut self, page: PageId) -> Result<(), Vec<Demand>> {
        match self.pages.state(page) {
            PageState::ReadOnly | PageState::ReadWrite => Ok(()),
            PageState::Missing | PageState::Invalid => {
                let demands = self.fault_demands(page);
                if demands.is_empty() {
                    // Every known notice is covered after all; revalidate.
                    let meta = self.pages.get_mut(page).expect("invalid page is resident");
                    meta.state = if meta.twin.is_some() {
                        PageState::ReadWrite
                    } else {
                        PageState::ReadOnly
                    };
                    Ok(())
                } else {
                    self.stats.remote_faults += 1;
                    Err(demands)
                }
            }
        }
    }

    /// Makes `page` writable (creating a twin on the transition), or
    /// reports what must be fetched first.
    ///
    /// # Errors
    ///
    /// Returns outstanding [`Demand`]s if remote data is required.
    pub fn ensure_writable(&mut self, page: PageId) -> Result<(), Vec<Demand>> {
        self.ensure_readable(page)?;
        if self.pages.state(page) == PageState::ReadOnly {
            // Software write fault: make the twin, write-enable the page.
            let meta = self.pages.entry(page, &self.granules);
            meta.twin = Some(meta.data.clone());
            meta.state = PageState::ReadWrite;
            self.dirty.insert(page);
            self.stats.write_faults += 1;
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Intervals and write notices.
    // ------------------------------------------------------------------

    /// Closes the current interval if any page was modified in it; called
    /// at every release and acquire endpoint.
    ///
    /// The closing interval receives a write notice for every page dirtied
    /// since the previous close. Pages stay write-enabled with their twins
    /// intact — diffing is lazy — so writes that land on a still-unprotected
    /// page after the close are folded, undetected, into the earlier
    /// interval's eventual diff, exactly as in TreadMarks (safe for
    /// data-race-free programs).
    pub fn close_interval(&mut self) -> Option<IntervalRecord> {
        if self.dirty.is_empty() {
            return None;
        }
        let idx = self.vt.bump(self.node);
        let pages: Vec<PageId> = std::mem::take(&mut self.dirty).into_iter().collect();
        for &p in &pages {
            let meta = self.pages.get_mut(p).expect("dirty page is resident");
            meta.max_notice.set(self.node, idx);
            // Our own data always reflects our own writes.
            meta.applied.set(self.node, idx);
        }
        self.intervals.insert(Interval {
            creator: self.node,
            index: idx,
            vt: self.vt.as_slice(),
            pages: &pages,
        });
        self.stats.intervals_created += 1;
        // Eager per-interval diffing: capture each announced page's
        // modifications now, so every diff record covers exactly one
        // interval and carries that interval's timestamp. Records that
        // merge several intervals under one capture-time timestamp cannot
        // be ordered correctly against concurrent writers — a byte written
        // in an early interval would sort by the late timestamp and could
        // overwrite a causally-later write from another node.
        for &p in &pages {
            self.capture_own_diff(p);
        }
        let rec = IntervalRecord {
            node: self.node,
            index: idx,
            vc: self.vt.clone(),
            pages,
        };
        emit(&self.sink, || Event::IntervalClosed {
            node: self.node,
            rec: rec.as_interval(),
        });
        Some(rec)
    }

    /// Interval records a receiver whose state is `have` still needs —
    /// the consistency payload of a RELEASE message.
    #[must_use]
    pub fn records_newer_than(&self, have: &Vc) -> Records {
        self.intervals.newer_than(have)
    }

    /// Own interval records newer than `have` — the RELEASE_NT payload.
    #[must_use]
    pub fn own_records_newer_than(&self, have: &Vc) -> Records {
        self.intervals.own_newer_than(self.node, have)
    }

    /// Records between `have` (exclusive) and `through` (inclusive), used
    /// to repair inadequate consistency information after a forwarded or
    /// non-transitive message.
    #[must_use]
    pub fn records_between(&self, have: &Vc, through: &Vc) -> Records {
        self.intervals.newer_than_bounded(have, through)
    }

    /// Applies a batch of interval records (the acquire side of a RELEASE).
    ///
    /// A batch is node-major and index-ascending, so records apply per
    /// creator in index order; a record whose index is not the next
    /// expected one for its creator is skipped (the caller
    /// detects the remaining gap by comparing [`LrcEngine::vt`] with the
    /// message's required timestamp and requests the missing records).
    /// Applied records are copied into the interval log, each creator's
    /// log growing at most once per array. Returns the number of records
    /// applied.
    pub fn apply_records(&mut self, records: &Records) -> usize {
        self.intervals.reserve_for(records, &self.vt);
        let mut applied = 0;
        for rec in records.iter() {
            // Another creator's next index applies; own, seen and gapped ones drop.
            if rec.creator != self.node && rec.index == self.vt.get(rec.creator) + 1 {
                self.apply_one(rec);
                applied += 1;
            }
        }
        applied
    }

    fn apply_one(&mut self, rec: Interval<'_>) {
        self.vt.set(rec.creator, rec.index);
        for &p in rec.pages {
            self.stats.notices_applied += 1;
            // Without a copy there is nothing to invalidate: the notice
            // waits in the interval log, where `install_page` finds it.
            if self.pages.state(p) == PageState::Missing {
                continue;
            }
            let meta = self.pages.entry(p, &self.granules);
            if rec.index <= meta.applied.get(rec.creator) {
                // Already covered (e.g. by a merged diff or page install).
                let cur = meta.max_notice.get(rec.creator);
                meta.max_notice.set(rec.creator, cur.max(rec.index));
                continue;
            }
            // A notice hitting a locally write-enabled page means concurrent
            // writers (data-race-free programs touch disjoint bytes). The
            // twin survives the invalidation: it holds only modifications of
            // the still-open local interval, which will be announced and
            // captured at the next close; fetched diffs are applied to both
            // the data and the twin, keeping the twin a faithful pre-local-
            // writes base.
            let cur = meta.max_notice.get(rec.creator);
            meta.max_notice.set(rec.creator, cur.max(rec.index));
            self.outstanding.entry(p).or_default().push((rec.creator, rec.index));
            meta.state = PageState::Invalid;
            if self.granules.eager_granule(p) {
                self.eager_invalid.push(p);
            }
        }
        emit(&self.sink, || Event::RecordApplied {
            node: self.node,
            rec,
        });
        self.intervals.insert(rec);
    }

    /// Drains the granules of *eager* regions that incoming write notices
    /// invalidated since the last call, sorted, deduplicated, and filtered
    /// to those still inaccessible (a diff merge between notice and drain
    /// can revalidate a granule). The runtime turns these into immediate,
    /// non-blocking fetches right after applying a RELEASE's records, so
    /// fetch coalescing can pack an interval closure's whole invalidation
    /// set into one batched request per serving node. Always empty without
    /// eager region hints — the demand-driven legacy path is untouched.
    pub fn take_eager_invalid(&mut self) -> Vec<PageId> {
        if self.eager_invalid.is_empty() {
            return Vec::new();
        }
        let mut pages = std::mem::take(&mut self.eager_invalid);
        pages.sort_unstable();
        pages.dedup();
        pages.retain(|&p| self.pages.state(p) == PageState::Invalid);
        pages
    }

    // ------------------------------------------------------------------
    // Diffs.
    // ------------------------------------------------------------------

    /// Captures this node's modifications to `page` for the just-closed
    /// interval into its store, drops the twin, and re-protects the page.
    /// Called from [`LrcEngine::close_interval`] for every page the closing
    /// interval announces, so each record covers exactly one interval and
    /// carries its timestamp (sound causal ordering).
    ///
    /// # Panics
    ///
    /// Panics if the page has no twin (an internal invariant).
    fn capture_own_diff(&mut self, page: PageId) {
        let idx = self.vt.get(self.node);
        let meta = self.pages.get_mut(page).expect("announced page is resident");
        let twin = meta.twin.take().expect("capture_own_diff without twin");
        self.own.capture((self.node, page, idx, meta.own_covered), &twin, &meta.data);
        meta.own_covered = idx;
        meta.state = if meta.up_to_date() {
            PageState::ReadOnly
        } else {
            PageState::Invalid
        };
        self.stats.diffs_created += 1;
    }

    /// True when every *individual* write notice known for `page` is either
    /// already applied or covered by one of the claimed (buffered, not yet
    /// applied) diff records.
    ///
    /// The check is exact, not a per-node maximum: diffs attached to
    /// releases under the update strategy arrive one interval at a time,
    /// so a buffer can hold a creator's interval 41 without its interval
    /// 40 — a max-based check would pass, the batch would apply, the
    /// scalar `applied` would jump past 40, and interval 40's diff would
    /// be duplicate-skipped forever. The page's entry lists exactly which
    /// of each creator's intervals named it and are not applied yet, so
    /// each one is verified individually.
    ///
    /// The messaging layer uses this to hold buffered diffs until a
    /// complete, causally sortable batch is present — applying partial
    /// batches could order a causally later record before an earlier one
    /// arriving in a later round.
    #[must_use]
    pub fn covers_with_claims(&self, page: PageId, claims: &Diffs) -> bool {
        match self.pages.get(page) {
            // An owner's untouched copy has no outstanding notice: one would
            // have materialised it.
            None if self.owner_of(page) == self.node => true,
            // Without a copy there is nothing a diff could complete, so only
            // a notice since the last collection leaves it uncovered.
            None => self.logged_notices(page, self.pages.base()).next().is_none(),
            Some(meta) => {
                debug_assert_ne!(meta.state, PageState::Missing, "page {page} has no copy");
                self.outstanding
                    .get(&page)
                    .is_none_or(|notices| notices.iter().all(|&(q, i)| claims.covers(q, i)))
            }
        }
    }

    /// The write notices `(creator, index)` naming `page` in the interval
    /// log above `after`, other creators only, each creator ascending.
    fn logged_notices<'a>(
        &'a self,
        page: PageId,
        after: &'a Vc,
    ) -> impl Iterator<Item = (u32, u32)> + 'a {
        self.vt
            .iter()
            .filter(move |&(q, _)| q != self.node)
            .flat_map(move |(q, seen)| self.intervals.range(q, after.get(q) + 1, seen))
            .filter(move |rec| rec.pages.contains(&page))
            .map(|rec| (rec.creator, rec.index))
    }

    /// Drops `page`'s outstanding notices that `applied` has caught up
    /// with; called wherever a page's `applied` rises.
    fn prune_outstanding(
        outstanding: &mut BTreeMap<PageId, Vec<(u32, u32)>>,
        page: PageId,
        applied: &Vc,
    ) {
        if let Entry::Occupied(mut notices) = outstanding.entry(page) {
            notices.get_mut().retain(|&(q, i)| i > applied.get(q));
            if notices.get().is_empty() {
                notices.remove();
            }
        }
    }

    /// [`LrcEngine::covers_with_claims`] answered from the interval store,
    /// one lookup per index in each creator's `(applied, max_notice]`: the
    /// reference the equivalence property below holds the per-page list to.
    #[cfg(test)]
    fn covers_by_store_walk(&self, page: PageId, claims: &Diffs) -> bool {
        let Some(meta) = self.pages.get(page) else {
            // No copy: every stored record since the collection counts.
            return self.owner_of(page) == self.node
                || self.vt.iter().filter(|&(q, _)| q != self.node).all(|(q, seen)| {
                    self.intervals
                        .range(q, 0, seen)
                        .all(|rec| !rec.pages.contains(&page) || claims.covers(q, rec.index))
                });
        };
        meta.applied.iter().filter(|&(q, _)| q != self.node).all(|(q, have)| {
            (have + 1..=meta.max_notice.get(q)).all(|i| {
                // No record for a known notice index (only below the base
                // of the last collection) counts as incomplete.
                self.intervals
                    .get(q, i)
                    .is_some_and(|rec| !rec.pages.contains(&page) || claims.covers(q, i))
            })
        })
    }

    /// The demands needed to make a faulted page accessible.
    #[must_use]
    pub fn fault_demands(&self, page: PageId) -> Vec<Demand> {
        match self.pages.state(page) {
            PageState::Missing => vec![Demand::Page {
                to: self.owner_of(page),
                page,
            }],
            PageState::Invalid => {
                let meta = self.pages.get(page).expect("invalid page is resident");
                let mut demands = Vec::new();
                for (q, have) in meta.applied.iter() {
                    if q == self.node {
                        continue;
                    }
                    let want = meta.max_notice.get(q);
                    if want > have {
                        demands.push(Demand::Diffs {
                            to: q,
                            page,
                            after: have,
                            through: want,
                        });
                    }
                }
                demands
            }
            PageState::ReadOnly | PageState::ReadWrite => Vec::new(),
        }
    }

    /// This node's diff records for `page` covering its intervals in
    /// `(after, through]`, oldest first — what a diff request is answered
    /// from, read in place.
    pub fn own_diffs(
        &self,
        page: PageId,
        after: u32,
        through: u32,
    ) -> impl Iterator<Item = DiffView<'_>> {
        debug_assert!(
            self.pages.get(page).map_or(self.pages.base().get(self.node), |m| m.own_covered)
                >= through.min(self.vt.get(self.node)),
            "diff request beyond materialized coverage"
        );
        let newest = self.pages.get(page).map_or(0, |m| m.own_covered);
        self.own.range(page, after, through, newest).map(|r| self.clocked(r))
    }

    /// An own diff with its clock, which is its interval's.
    fn clocked<'a>(&'a self, rec: DiffView<'a>) -> DiffView<'a> {
        let interval = self.intervals.get(self.node, rec.first);
        DiffView {
            vt: interval.expect("an own diff's interval is logged").vt,
            ..rec
        }
    }

    /// Applies fetched diff records to `page` in causal order. A record is
    /// kept for shipping again if its granule is eager or the engine keeps
    /// every fetched diff ([`LrcEngine::keep_fetched_diffs`]); any other is
    /// dropped, and counted by [`LrcEngine::record_count`] until the next
    /// collection.
    ///
    /// # Panics
    ///
    /// Panics if the page has no local copy, or a record is for another
    /// page.
    pub fn apply_diff_records(&mut self, page: PageId, records: &Diffs) {
        assert!(
            self.pages.state(page) != PageState::Missing,
            "applying diffs to a missing page"
        );
        // Records of one writer arrive in causal order already; only a
        // batch that is not needs an order of its own.
        let mut order: Vec<u32> = Vec::new();
        if !(0..records.len()).is_sorted_by_key(|i| records.causal_key(i)) {
            order = (0..records.len() as u32).collect();
            order.sort_by_key(|&i| records.causal_key(i as usize));
        }
        let keep = self.keep_fetched || self.granules.eager_granule(page);
        if keep {
            reserve_for(&mut self.fetched, records);
        }
        let meta = self.pages.entry(page, &self.granules);
        for k in 0..records.len() {
            let rec = records.get(order.get(k).map_or(k, |&i| i as usize));
            assert_eq!(rec.page, page, "diff record for a different page");
            let have = meta.applied.get(rec.node);
            if rec.last <= have {
                continue; // Duplicate coverage.
            }
            // Per-interval records are sparse: a page has records only for
            // the creator's intervals that modified it, so `rec.first` may
            // jump past `have`. Completeness is guaranteed upstream: write
            // notices arrive gap-free per creator, fault demands span
            // `(applied, max_notice]`, and the serving node returns every
            // record in that range.
            rec.apply(&mut meta.data);
            // A surviving twin holds only the still-open local interval's
            // writes; fetched diffs are from concurrent writers (disjoint
            // bytes in a data-race-free program) or causal predecessors.
            // Applying them to the twin as well keeps the twin a faithful
            // "page without my open writes" base, so the next capture
            // contains only this node's own modifications.
            if let Some(twin) = &mut meta.twin {
                rec.apply(twin);
            }
            meta.applied.set(rec.node, rec.last);
            let cur = meta.max_notice.get(rec.node);
            meta.max_notice.set(rec.node, cur.max(rec.last));
            self.stats.diffs_applied += 1;
            if keep {
                self.fetched[rec.node as usize].push(rec);
            } else {
                self.dropped += 1;
            }
        }
        Self::prune_outstanding(&mut self.outstanding, page, &meta.applied);
        if meta.state == PageState::Invalid && meta.up_to_date() {
            meta.state = if meta.twin.is_some() {
                PageState::ReadWrite
            } else {
                PageState::ReadOnly
            };
        }
    }

    /// Returns this node's stored diff record (if any) covering `index` of
    /// `node`'s intervals for `page` — used to ship diffs together with the
    /// write notices that describe them.
    #[must_use]
    pub fn stored_diff(&self, node: u32, page: PageId, index: u32) -> Option<DiffView<'_>> {
        if node == self.node {
            return self.own.get(page, index).map(|r| self.clocked(r));
        }
        self.fetched.get(node as usize)?.get(page, index)
    }

    /// Serves a full-page request: the current copy plus the applied vector
    /// describing exactly which modifications it reflects.
    ///
    /// With eager per-interval capture, a live twin holds only the
    /// still-open interval's local writes; the served data may include
    /// them (safe: they will be announced by the next close, and the
    /// receiver's applied vector does not claim them).
    ///
    /// # Panics
    ///
    /// Panics if this node has no copy (only owners are asked, and owners
    /// pin their copies).
    #[must_use]
    pub fn serve_page(&mut self, page: PageId) -> (Vec<u8>, Vc) {
        assert!(
            self.pages.state(page) != PageState::Missing,
            "page request hit a node without a copy"
        );
        match self.pages.get(page) {
            Some(meta) => (meta.data.clone(), meta.applied.clone()),
            // Untouched on its owner: never-written zeros.
            None => (vec![0; self.granules.granule_len(page)], self.pages.base().clone()),
        }
    }

    /// Installs a fetched page copy. The page becomes valid if the carried
    /// applied-vector covers every write notice known locally; otherwise it
    /// is invalid and diff demands follow.
    pub fn install_page(&mut self, page: PageId, data: Vec<u8>, applied: Vc) -> bool {
        assert_eq!(
            data.len(),
            self.granules.granule_len(page),
            "bad granule size in install"
        );
        // Notices that arrived while there was no copy stayed in the log;
        // those the copy does not cover are outstanding now. This is the
        // one walk of the log per page, once per first copy instead of once
        // per coverage test.
        let first_copy = self.pages.state(page) == PageState::Missing;
        let notices: Vec<(u32, u32)> = if first_copy {
            self.logged_notices(page, &applied).collect()
        } else {
            Vec::new()
        };
        let meta = self.pages.entry(page, &self.granules);
        // Replacement must not roll the copy backwards: only accept data
        // covering at least what is already applied locally. (A copy may
        // replace an existing one — the TreadMarks heuristic ships a whole
        // page when the pending diff chain outgrows it.)
        if !first_copy && !applied.dominates(&meta.applied) {
            // Stale copy (the server lagged); keep ours — the caller falls
            // back to plain diffs.
            return false;
        }
        // Local open-interval writes survive a replacement: the local diff
        // (twin versus data) is recomputed on top of the new base, sound
        // because concurrent writers touch disjoint bytes in a
        // data-race-free program.
        if let Some(twin) = meta.twin.take() {
            let own = Diff::create(&twin, &meta.data);
            meta.data = data.clone();
            own.apply(&mut meta.data);
            meta.twin = Some(data);
        } else {
            meta.data = data;
        }
        meta.applied.join(&applied);
        if first_copy {
            // Each creator's notices ascend, so the last one sets its maximum.
            for &(q, i) in &notices {
                meta.max_notice.set(q, i);
            }
            if !notices.is_empty() {
                self.outstanding.insert(page, notices);
            }
        } else {
            Self::prune_outstanding(&mut self.outstanding, page, &meta.applied);
        }
        // The copy reflects at least those modifications; record them as
        // known notices so bookkeeping stays monotone.
        meta.max_notice.join(&applied);
        meta.state = if meta.up_to_date() {
            if meta.twin.is_some() {
                PageState::ReadWrite
            } else {
                PageState::ReadOnly
            }
        } else {
            PageState::Invalid
        };
        self.stats.pages_installed += 1;
        emit(&self.sink, || Event::PageInstalled {
            node: self.node,
            page,
            applied: meta.applied.as_slice(),
        });
        true
    }

    // ------------------------------------------------------------------
    // Garbage collection of consistency records.
    // ------------------------------------------------------------------

    /// Number of stored consistency records (intervals + diffs); the GC
    /// pressure metric.
    #[must_use]
    pub fn record_count(&self) -> usize {
        let fetched: usize = self.fetched.iter().map(DiffStore::len).sum();
        self.intervals.len() + self.own.len() + fetched + self.dropped
    }

    /// True when this node's stored records exceed the configured GC
    /// threshold and a global garbage collection should be initiated.
    #[must_use]
    pub fn gc_needed(&self) -> bool {
        self.record_count() > self.cfg.gc_threshold_records
    }

    /// Demands required to validate every invalid page — phase two of a
    /// global GC (after the cluster has equalized vector timestamps).
    #[must_use]
    pub fn gc_validate_demands(&self) -> Vec<Demand> {
        self.pages
            .invalid_pages()
            .into_iter()
            .flat_map(|p| self.fault_demands(p))
            .collect()
    }

    /// Discards all interval and diff records — the final phase of a global
    /// GC. Callers must have ensured (a) all nodes hold identical vector
    /// timestamps and (b) every non-missing page is valid.
    ///
    /// # Panics
    ///
    /// Panics if an invalid page remains (the caller skipped validation),
    /// or if a creator's interval log does not end at its `vt` component.
    pub fn gc_discard(&mut self) {
        for (q, seen) in self.vt.iter() {
            assert_eq!(self.intervals.next_index(q), seen + 1, "creator {q}'s log is not at vt");
        }
        self.pages.collect(&self.vt);
        self.intervals.clear();
        self.own = DiffStore::default();
        self.fetched.clear();
        self.dropped = 0;
        // Every page is valid, so nothing was outstanding.
        self.outstanding.clear();
        self.stats.gcs += 1;
    }
}

/// Makes room in each creator's store of `fetched` for its records in
/// `batch`, so keeping them grows each of a store's arrays at most once.
fn reserve_for(fetched: &mut Vec<DiffStore>, batch: &Diffs) {
    let n = batch.iter().next().map_or(0, |r| r.vt.len());
    let mut done = None;
    // Each creator in turn, ascending.
    while let Some(q) = batch.iter().map(|r| r.node).filter(|&q| done.is_none_or(|d| q > d)).min() {
        let (records, bytes) = batch
            .iter()
            .filter(|r| r.node == q)
            .fold((0, 0), |(c, b), r| (c + 1, b + r.run_bytes()));
        if fetched.len() <= q as usize {
            fetched.resize_with(q as usize + 1, DiffStore::default);
        }
        fetched[q as usize].reserve(n, records, bytes);
        done = Some(q);
    }
}

#[cfg(test)]
mod tests {
    use carlos_util::cases::cases;

    use super::*;
    use crate::config::PageOwnership;

    const PAGES: u32 = 6;

    /// A small cluster driven by hand, every fetch answered at once.
    struct Cluster(Vec<LrcEngine>);

    impl Cluster {
        fn new(n: usize, banded: bool) -> Self {
            let cfg = LrcConfig {
                region_bytes: PAGES as usize * 64,
                ownership: if banded {
                    PageOwnership::Banded
                } else {
                    PageOwnership::SingleOwner(0)
                },
                ..LrcConfig::small_test(n)
            };
            Self((0..n as u32).map(|i| LrcEngine::new(i, cfg.clone())).collect())
        }

        /// The diff records `node`'s outstanding demands for `page` name,
        /// as their writers would serve them.
        fn demanded_diffs(&mut self, node: usize, page: PageId) -> Diffs {
            let mut recs = Diffs::new();
            for d in self.0[node].fault_demands(page) {
                if let Demand::Diffs { to, after, through, .. } = d {
                    recs.extend(&self.0[to as usize].own_diffs(page, after, through).collect());
                }
            }
            recs
        }

        /// Brings `page` up to date on `node`: its copy first, then diffs.
        fn fetch(&mut self, node: usize, page: PageId) {
            if self.0[node].page_state(page) == PageState::Missing {
                self.install(node, page);
            }
            let recs = self.demanded_diffs(node, page);
            if !recs.is_empty() {
                self.0[node].apply_diff_records(page, &recs);
            }
        }

        fn install(&mut self, node: usize, page: PageId) {
            let owner = self.0[node].owner_of(page) as usize;
            if owner != node {
                let (data, applied) = self.0[owner].serve_page(page);
                let _ = self.0[node].install_page(page, data, applied);
            }
        }

        fn sync(&mut self, from: usize, to: usize) {
            let recs = self.0[from].records_newer_than(&self.0[to].vt().clone());
            self.0[to].apply_records(&recs);
        }

        /// The runtime's collection: close, equalise clocks, validate, discard.
        fn gc(&mut self) {
            let n = self.0.len();
            for e in &mut self.0 {
                e.close_interval();
            }
            for _round in 0..2 {
                for a in 0..n {
                    (0..n).filter(|&b| b != a).for_each(|b| self.sync(a, b));
                }
            }
            for i in 0..n {
                for p in self.0[i].pages.invalid_pages() {
                    self.fetch(i, p);
                }
            }
            self.0.iter_mut().for_each(LrcEngine::gc_discard);
        }

        /// The list and the store walk agree on every page of every node,
        /// with no claims, every demanded diff, and the subset `mask` picks.
        fn check(&mut self, mask: u32) {
            for node in 0..self.0.len() {
                for page in 0..PAGES {
                    let all = self.demanded_diffs(node, page);
                    let some: Diffs = all
                        .iter()
                        .enumerate()
                        .filter(|(k, _)| mask >> (k % 32) & 1 == 1)
                        .map(|(_, r)| r)
                        .collect();
                    let e = &self.0[node];
                    for claims in [&Diffs::new(), &all, &some] {
                        let (list, walk) = (
                            e.covers_with_claims(page, claims),
                            e.covers_by_store_walk(page, claims),
                        );
                        // (A page without a copy demands no diffs, so its
                        // claims are empty and both say "nothing known".)
                        assert_eq!(list, walk, "node {node} page {page}");
                    }
                    if let Some(meta) = e.pages.get(page) {
                        assert_ne!(meta.state, PageState::Missing, "node {node} page {page}");
                        let listed = e.outstanding.contains_key(&page);
                        assert_eq!(listed, !meta.up_to_date(), "node {node} page {page}");
                    }
                }
            }
        }
    }

    #[test]
    fn outstanding_notices_match_the_store_walk() {
        cases("outstanding_notices_match_the_store_walk", 256, |g| {
            let (n, banded) = (g.range(2usize..5), g.bool());
            let ops = g.vec(1..100, |g| {
                (g.range(0usize..10), g.range(0usize..4), g.range(0usize..4), g.range(0..PAGES), g.u32())
            });
            let mut c = Cluster::new(n, banded);
            for (kind, node, peer, page, mask) in ops {
                let (node, peer) = (node % n, peer % n);
                match kind {
                    0..=2 => {
                        c.fetch(node, page);
                        let addr = page as usize * 64 + 4 * (node + (mask as usize % 3));
                        c.0[node].write(addr, &mask.to_le_bytes()).expect("fetched page");
                    }
                    3 | 4 => {
                        c.0[node].close_interval();
                    }
                    5 | 6 if peer != node => c.sync(node, peer),
                    7 => c.fetch(node, page),
                    8 => c.install(node, page),
                    9 if mask % 4 == 0 => c.gc(),
                    _ => {}
                }
                c.check(mask);
            }
        });
    }
}
