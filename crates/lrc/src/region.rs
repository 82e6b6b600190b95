//! Variable-granularity region table.
//!
//! The paper's coherence unit is the hardware page: 8 KiB on the Alpha
//! testbed, fixed for the whole shared region. That one size is wrong in
//! both directions at once — a 4-byte tour bound shares its page with a
//! task queue (false sharing: every bound improvement invalidates the
//! queue), while a grid row band pays one fetch round-trip per page even
//! though neighbours always want whole rows.
//!
//! The region table fixes the unit per *allocation* instead: the coherent
//! address space is partitioned into contiguous regions, each with its own
//! power-of-two granule size. Granules are the engine's "pages" — they get
//! their own [`crate::page::PageMeta`], twin, diffs, and write notices —
//! and are numbered densely in address order, so a granule id fits the
//! same `u32` slot the wire protocol always used for page ids.
//!
//! With no regions configured the table degenerates to a single segment
//! whose granule is the legacy `page_size`; granule ids then equal
//! `addr / page_size` and every byte the engine produces (wire messages,
//! costs, event order) is identical to the pre-region-table code. The
//! golden-fingerprint tests pin exactly this equivalence.

use crate::page::PageId;

/// One contiguous address range with its own coherence granule size,
/// normally produced by `CoherentHeap::alloc_with_granule` hints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegionSpec {
    /// First byte of the region (must be `granule`-aligned).
    pub start: usize,
    /// Region length in bytes (rounded up to whole granules internally).
    pub len: usize,
    /// Coherence granule size in bytes (power of two, at least 8).
    pub granule: usize,
    /// Eager-fetch policy: when true, granules of this region invalidated
    /// by incoming write notices are re-fetched immediately after the
    /// notices apply (batched per serving node by fetch coalescing),
    /// instead of one at a time on later access faults. Right for data the
    /// node is certain to re-read after every synchronization (hot
    /// scalars, task slots, boundary rows); wrong for large arrays where
    /// another node may own most of the invalidated range.
    pub eager: bool,
    /// Placement: the node that owns every granule of the region (holds
    /// the initial zero-filled copy and answers full-granule requests),
    /// ahead of the engine's `PageOwnership` policy. Right when one node
    /// is known to make the region's first and most accesses, which then
    /// fault on nothing; `None` leaves the region to the policy.
    pub home: Option<u32>,
}

impl RegionSpec {
    /// A demand-fetched (non-eager) region hint.
    #[must_use]
    pub fn new(start: usize, len: usize, granule: usize) -> Self {
        Self { start, len, granule, eager: false, home: None }
    }

    /// Marks the region for eager re-fetch on invalidation.
    #[must_use]
    pub fn eager(mut self) -> Self {
        self.eager = true;
        self
    }

    /// Homes the region on `node` instead of the ownership policy's choice.
    #[must_use]
    pub fn home(mut self, node: u32) -> Self {
        self.home = Some(node);
        self
    }
}

/// A resolved, gap-free segment of the coherent region. Gaps between
/// configured [`RegionSpec`]s are covered by segments at the default
/// (legacy) page size.
#[derive(Debug, Clone, Copy)]
struct Seg {
    /// First byte covered.
    start: usize,
    /// One past the last byte covered.
    end: usize,
    /// Granule size within the segment.
    granule: usize,
    /// Dense id of the segment's first granule.
    first_id: u32,
    /// Eager-fetch policy inherited from the [`RegionSpec`] (gap-fill
    /// segments are never eager).
    eager: bool,
    /// Home node inherited from the [`RegionSpec`] (gap-fill segments
    /// have none: the ownership policy places them).
    home: Option<u32>,
}

/// The resolved address→granule mapping for one engine: a sorted,
/// non-overlapping list of segments covering `[0, region_bytes)`.
#[derive(Debug, Clone)]
pub struct GranuleMap {
    segs: Vec<Seg>,
    n_granules: usize,
    region_bytes: usize,
    /// True when the map is anything other than the single legacy
    /// `page_size` segment — the cue for granule-aware fault batching.
    hinted: bool,
}

impl GranuleMap {
    /// Builds the map for a `region_bytes`-byte region with default
    /// granule `page_size` and the given hinted regions.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid spec: a granule that is
    /// not a power of two or smaller than 8 bytes, a start that is not
    /// granule-aligned, an empty or out-of-range region, or overlap
    /// between regions (specs need not be sorted; they are sorted here).
    pub fn try_new(
        region_bytes: usize,
        page_size: usize,
        regions: &[RegionSpec],
    ) -> Result<Self, String> {
        assert!(page_size > 0, "page size must be positive");
        let mut specs: Vec<RegionSpec> = regions.to_vec();
        specs.sort_by_key(|r| r.start);
        let mut segs: Vec<Seg> = Vec::new();
        let mut cursor = 0usize;
        let mut next_id = 0u32;
        // `hint` is the spec a segment resolves; a gap has none.
        let mut push = |segs: &mut Vec<Seg>, start: usize, end: usize, hint: Option<&RegionSpec>| {
            let granule = hint.map_or(page_size, |h| h.granule);
            let count = (end - start).div_ceil(granule);
            segs.push(Seg {
                start,
                end,
                granule,
                first_id: next_id,
                eager: hint.is_some_and(|h| h.eager),
                home: hint.and_then(|h| h.home),
            });
            next_id = u32::try_from(next_id as usize + count).expect("granule id overflow");
        };
        for spec in &specs {
            if !spec.granule.is_power_of_two() || spec.granule < 8 {
                return Err(format!(
                    "granule {} must be a power of two of at least 8 bytes",
                    spec.granule
                ));
            }
            if spec.len == 0 {
                return Err(format!("region at {:#x} is empty", spec.start));
            }
            if spec.start % spec.granule != 0 {
                return Err(format!(
                    "region start {:#x} not aligned to granule {}",
                    spec.start, spec.granule
                ));
            }
            if spec.start < cursor {
                return Err(format!(
                    "region at {:#x} overlaps the previous region",
                    spec.start
                ));
            }
            let end = spec
                .start
                .checked_add(spec.len.div_ceil(spec.granule) * spec.granule)
                .ok_or_else(|| "region length overflow".to_string())?;
            if end > region_bytes {
                return Err(format!(
                    "region {:#x}..{:#x} exceeds the coherent region ({region_bytes} bytes)",
                    spec.start, end
                ));
            }
            if spec.start > cursor {
                push(&mut segs, cursor, spec.start, None);
            }
            push(&mut segs, spec.start, end, Some(spec));
            cursor = end;
        }
        if cursor < region_bytes {
            push(&mut segs, cursor, region_bytes, None);
        }
        if segs.is_empty() {
            // Zero-byte region: keep one degenerate segment so lookups on
            // the (never-valid) address 0 stay panics, not index errors.
            segs.push(Seg {
                start: 0,
                end: 0,
                granule: page_size,
                first_id: 0,
                eager: false,
                home: None,
            });
        }
        let hinted = !(segs.len() == 1 && segs[0].granule == page_size);
        Ok(Self {
            n_granules: next_id as usize,
            segs,
            region_bytes,
            hinted,
        })
    }

    /// Like [`GranuleMap::try_new`] but panicking on invalid specs.
    ///
    /// # Panics
    ///
    /// Panics with the validation error for invalid region specs.
    #[must_use]
    pub fn new(region_bytes: usize, page_size: usize, regions: &[RegionSpec]) -> Self {
        Self::try_new(region_bytes, page_size, regions)
            .unwrap_or_else(|e| panic!("invalid region table: {e}"))
    }

    /// Total number of granules (the engine's page-table size).
    #[must_use]
    pub fn n_granules(&self) -> usize {
        self.n_granules
    }

    /// True when the table differs from the single legacy-page-size
    /// segment — i.e. when at least one allocation hinted a granule.
    #[must_use]
    pub fn hinted(&self) -> bool {
        self.hinted
    }

    /// When the whole region is one power-of-two-granule segment, that
    /// granule's shift — the engine's single-lookup access fast path.
    #[must_use]
    pub fn uniform_shift(&self) -> Option<u32> {
        match &self.segs[..] {
            [only] if only.granule.is_power_of_two() => Some(only.granule.trailing_zeros()),
            _ => None,
        }
    }

    fn seg_for_addr(&self, addr: usize) -> &Seg {
        debug_assert!(addr < self.region_bytes.max(1), "address out of region");
        let i = self
            .segs
            .partition_point(|s| s.start <= addr)
            .saturating_sub(1);
        let seg = &self.segs[i];
        debug_assert!(seg.start <= addr && addr < seg.end.max(1), "segment lookup");
        seg
    }

    fn seg_for_granule(&self, g: PageId) -> &Seg {
        let i = self
            .segs
            .partition_point(|s| s.first_id <= g)
            .saturating_sub(1);
        &self.segs[i]
    }

    /// Granule containing byte address `addr`.
    #[must_use]
    pub fn granule_of(&self, addr: usize) -> PageId {
        let seg = self.seg_for_addr(addr);
        seg.first_id + ((addr - seg.start) / seg.granule) as PageId
    }

    /// Granule containing `addr`, the offset of `addr` within it, and the
    /// granule's size — everything a byte-range access loop needs.
    #[must_use]
    pub fn locate(&self, addr: usize) -> (PageId, usize, usize) {
        let seg = self.seg_for_addr(addr);
        let rel = addr - seg.start;
        (
            seg.first_id + (rel / seg.granule) as PageId,
            rel % seg.granule,
            seg.granule,
        )
    }

    /// Size in bytes of granule `g`.
    ///
    /// # Panics
    ///
    /// Panics if `g` is out of range.
    #[must_use]
    pub fn granule_len(&self, g: PageId) -> usize {
        assert!((g as usize) < self.n_granules, "granule id out of range");
        self.seg_for_granule(g).granule
    }

    /// Whether granule `g` lies in an eager-fetch region.
    ///
    /// # Panics
    ///
    /// Panics if `g` is out of range.
    #[must_use]
    pub fn eager_granule(&self, g: PageId) -> bool {
        assert!((g as usize) < self.n_granules, "granule id out of range");
        self.seg_for_granule(g).eager
    }

    /// True when any segment carries the eager-fetch policy — the cheap
    /// gate for the runtime's eager paths (one bool, no per-granule work
    /// on unhinted configurations).
    #[must_use]
    pub fn has_eager(&self) -> bool {
        self.segs.iter().any(|s| s.eager)
    }

    /// The homed granule ranges `(first id, one past the last id, home)`,
    /// ascending — what [`RegionSpec::home`] hints resolve to once gaps
    /// are filled and ids assigned. Empty without such hints.
    ///
    /// # Errors
    ///
    /// Names the first region homed on a node outside `0..n_nodes`: its
    /// granules would be owned, and so ever served, by nobody.
    pub fn homes(&self, n_nodes: usize) -> Result<Vec<(PageId, PageId, u32)>, String> {
        let ends = self.segs.iter().skip(1).map(|s| s.first_id);
        let mut homes = Vec::new();
        for (seg, end) in self.segs.iter().zip(ends.chain([self.n_granules as PageId])) {
            let Some(home) = seg.home else { continue };
            if home as usize >= n_nodes {
                let at = seg.start;
                return Err(format!("region at {at:#x} is homed on node {home} of {n_nodes}"));
            }
            homes.push((seg.first_id, end, home));
        }
        Ok(homes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_regions_match_legacy_paging() {
        let m = GranuleMap::new(250, 100, &[]);
        assert_eq!(m.n_granules(), 3); // div_ceil: a partial last page.
        assert!(!m.hinted());
        assert_eq!(m.granule_of(0), 0);
        assert_eq!(m.granule_of(249), 2);
        assert_eq!(m.locate(205), (2, 5, 100));
        assert_eq!(m.granule_len(2), 100);
        assert_eq!(m.locate(200), (2, 0, 100));
    }

    #[test]
    fn uniform_pow2_exposes_fast_path_shift() {
        assert_eq!(GranuleMap::new(1 << 20, 8192, &[]).uniform_shift(), Some(13));
        assert_eq!(GranuleMap::new(300, 100, &[]).uniform_shift(), None);
    }

    #[test]
    fn hinted_regions_get_dense_ids_with_gap_fill() {
        // [0,64) fine 64 B region, gap [64,16384) at page size, then a bulk
        // [16384, 49152) region of 16 KiB granules, tail gap to 65536.
        let m = GranuleMap::new(
            65536,
            8192,
            &[
                RegionSpec::new(0, 64, 64),
                RegionSpec::new(16384, 32768, 16384),
            ],
        );
        assert!(m.hinted());
        assert_eq!(m.uniform_shift(), None);
        // ids: 0 (fine), 1-2 (gap pages 64..16384), 3-4 (bulk), 5-6 (tail).
        assert_eq!(m.n_granules(), 7);
        assert_eq!(m.granule_of(0), 0);
        assert_eq!(m.granule_of(63), 0);
        assert_eq!(m.granule_of(64), 1);
        assert_eq!(m.granule_of(8255), 1);
        assert_eq!(m.granule_of(16383), 2);
        assert_eq!(m.granule_of(16384), 3);
        assert_eq!(m.granule_of(32768), 4);
        assert_eq!(m.granule_of(49152), 5);
        assert_eq!(m.granule_len(0), 64);
        assert_eq!(m.granule_len(1), 8192);
        assert_eq!(m.granule_len(4), 16384);
        assert_eq!(m.locate(32768), (4, 0, 16384));
        assert_eq!(m.locate(49152), (5, 0, 8192));
        assert_eq!(m.locate(32772), (4, 4, 16384));
    }

    #[test]
    fn single_full_cover_region_at_page_size_is_not_hinted() {
        let m = GranuleMap::new(
            1 << 15,
            8192,
            &[RegionSpec::new(0, 1 << 15, 8192)],
        );
        assert!(!m.hinted(), "legacy-default cover must behave as legacy");
        assert_eq!(m.uniform_shift(), Some(13));
        assert_eq!(m.n_granules(), 4);
    }

    #[test]
    fn non_pow2_granule_rejected() {
        for g in [0usize, 3, 12, 100, 8191] {
            let r = GranuleMap::try_new(1 << 15, 8192, &[RegionSpec::new(0, 64, g)]);
            assert!(r.is_err(), "granule {g} must be rejected");
        }
        // Power of two but below the 8-byte word floor.
        assert!(GranuleMap::try_new(1 << 15, 8192, &[RegionSpec::new(0, 8, 4)]).is_err());
    }

    #[test]
    fn misaligned_overlapping_and_oversized_regions_rejected() {
        let ps = 8192;
        assert!(GranuleMap::try_new(1 << 15, ps, &[RegionSpec::new(32, 64, 64)]).is_err());
        assert!(GranuleMap::try_new(
            1 << 15,
            ps,
            &[
                RegionSpec::new(0, 128, 64),
                RegionSpec::new(64, 64, 64),
            ]
        )
        .is_err());
        assert!(GranuleMap::try_new(128, ps, &[RegionSpec::new(0, 256, 64)]).is_err());
        assert!(GranuleMap::try_new(128, ps, &[RegionSpec::new(0, 0, 64)]).is_err());
    }

    #[test]
    fn homes_resolve_to_granule_ranges_and_gaps_have_none() {
        // Fine region homed on 1, a gap, two adjacent bulk regions (the
        // first unhomed, the second homed on 0), a tail gap.
        let m = GranuleMap::new(
            65536,
            8192,
            &[
                RegionSpec::new(32768, 16384, 16384).home(0),
                RegionSpec::new(0, 128, 64).eager().home(1),
                RegionSpec::new(16384, 16384, 16384),
            ],
        );
        // ids: 0-1 (fine), 2-3 (gap 128..16384), 4 (bulk), 5 (bulk, homed),
        // 6-7 (tail).
        assert_eq!(m.n_granules(), 8);
        assert_eq!(m.homes(2), Ok(vec![(0, 2, 1), (5, 6, 0)]));
        assert!(m.eager_granule(1) && !m.eager_granule(5));
        assert_eq!(GranuleMap::new(65536, 8192, &[]).homes(1), Ok(Vec::new()));
        // A home on the last segment ends at the table's end.
        let m = GranuleMap::new(256, 64, &[RegionSpec::new(128, 128, 64).home(3)]);
        assert_eq!(m.homes(4), Ok(vec![(2, 4, 3)]));
    }

    #[test]
    fn home_outside_the_cluster_is_rejected_by_address() {
        let specs = [
            RegionSpec::new(0, 64, 64).home(1),
            RegionSpec::new(0x4000, 64, 64).home(2),
        ];
        let m = GranuleMap::new(1 << 15, 8192, &specs);
        let err = m.homes(2).expect_err("node 2 of 2 does not exist");
        assert!(err.contains("0x4000") && err.contains("node 2 of 2"), "{err}");
        assert!(m.homes(3).is_ok());
    }

    #[test]
    fn spec_length_rounds_up_to_whole_granules() {
        let m = GranuleMap::new(1 << 15, 8192, &[RegionSpec::new(0, 100, 64)]);
        // 100 bytes rounds to two 64 B granules; the rest is page-sized.
        assert_eq!(m.granule_len(0), 64);
        assert_eq!(m.granule_len(1), 64);
        assert_eq!(m.granule_of(127), 1);
        assert_eq!(m.granule_of(128), 2);
        assert_eq!(m.granule_len(2), 8192);
    }
}
