//! Configuration for the LRC engine.

use crate::region::RegionSpec;

/// Which node owns (pins a copy of, and answers full-page requests for)
/// each page of the coherent region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageOwnership {
    /// One node owns every page — natural when that node initializes all
    /// shared data (the paper's applications initialize on node 0).
    SingleOwner(u32),
    /// Pages are split into contiguous bands, one per node — natural for
    /// band-partitioned grids, avoiding a cold-start stampede to node 0.
    Banded,
}

/// Static parameters of a node's coherent shared-memory region.
#[derive(Debug, Clone)]
pub struct LrcConfig {
    /// Number of nodes in the cluster.
    pub n_nodes: usize,
    /// Page size in bytes. The paper's testbed (Alpha AXP under OSF/1) used
    /// 8 KiB virtual-memory pages; tests often use smaller pages to force
    /// interesting sharing patterns.
    pub page_size: usize,
    /// Total size of the coherent shared region in bytes (rounded up to a
    /// whole number of pages).
    pub region_bytes: usize,
    /// Garbage-collect consistency records (intervals + diffs) once their
    /// total count exceeds this threshold (see §5.2: "when the free space
    /// for system structures falls below a threshold, a global garbage
    /// collection is performed").
    pub gc_threshold_records: usize,
    /// Page-ownership policy.
    pub ownership: PageOwnership,
    /// Variable-granularity coherence hints: address ranges whose coherence
    /// unit differs from `page_size`. Empty (the default) means the whole
    /// region uses `page_size` granules, bit-for-bit as before the region
    /// table existed. See [`crate::region::GranuleMap`].
    pub regions: Vec<RegionSpec>,
}

impl LrcConfig {
    /// A configuration matching the paper's testbed geometry.
    #[must_use]
    pub fn osdi94(n_nodes: usize, region_bytes: usize) -> Self {
        Self {
            n_nodes,
            page_size: 8192,
            region_bytes,
            gc_threshold_records: 12_000,
            ownership: PageOwnership::SingleOwner(0),
            regions: Vec::new(),
        }
    }

    /// A small geometry for unit tests: tiny pages force multi-page data
    /// structures and false sharing with little data.
    #[must_use]
    pub fn small_test(n_nodes: usize) -> Self {
        Self {
            n_nodes,
            page_size: 64,
            region_bytes: 64 * 64,
            gc_threshold_records: 1_000_000,
            ownership: PageOwnership::SingleOwner(0),
            regions: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_count_rounds_up() {
        let c = LrcConfig {
            n_nodes: 2,
            page_size: 100,
            region_bytes: 250,
            gc_threshold_records: 10,
            ownership: PageOwnership::SingleOwner(0),
            regions: Vec::new(),
        };
        // The engine's page table has a granule for the partial last page.
        let granules = crate::GranuleMap::new(c.region_bytes, c.page_size, &c.regions);
        assert_eq!(granules.n_granules(), 3);
    }

    #[test]
    fn osdi94_uses_alpha_pages() {
        let c = LrcConfig::osdi94(4, 1 << 20);
        assert_eq!(c.page_size, 8192);
        assert_eq!(c.region_bytes / c.page_size, 128);
    }
}
