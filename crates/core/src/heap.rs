//! Address-space layout helpers for the three CarlOS regions (§4.1).
//!
//! Applications see three disjoint regions:
//!
//! 1. a **private** region — ordinary Rust data on each node;
//! 2. a **non-coherent shared** region — identical address mappings on all
//!    nodes, but contents kept consistent only by explicit application
//!    messages;
//! 3. the **coherent shared** region — kept consistent by the
//!    message-driven mechanism (accessed through `Runtime`).
//!
//! [`CoherentHeap`] is a deterministic bump allocator: SPMD programs run the
//! same allocation sequence on every node, so all nodes compute identical
//! addresses with no communication.

/// Deterministic bump allocator over a coherent (or non-coherent) region.
///
/// # Examples
///
/// ```
/// let mut heap = carlos_core::CoherentHeap::new(1 << 16);
/// let a = heap.alloc(100, 8);
/// let b = heap.alloc(4, 4);
/// assert!(b >= a + 100);
/// assert_eq!(a % 8, 0);
/// ```
#[derive(Debug, Clone)]
pub struct CoherentHeap {
    next: usize,
    limit: usize,
    regions: Vec<carlos_lrc::RegionSpec>,
}

impl CoherentHeap {
    /// A heap over `limit` bytes starting at address 0.
    #[must_use]
    pub fn new(limit: usize) -> Self {
        Self {
            next: 0,
            limit,
            regions: Vec::new(),
        }
    }

    /// Allocates `size` bytes aligned to `align`; returns the address.
    ///
    /// # Panics
    ///
    /// Panics if `align` is not a power of two or the region is exhausted.
    pub fn alloc(&mut self, size: usize, align: usize) -> usize {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        let addr = (self.next + align - 1) & !(align - 1);
        let end = addr
            .checked_add(size)
            .expect("allocation size overflow");
        assert!(
            end <= self.limit,
            "coherent region exhausted: want {size} at {addr}, limit {}",
            self.limit
        );
        self.next = end;
        addr
    }

    /// Allocates `size` bytes whose coherence unit is `granule` bytes
    /// instead of the engine's default page size — the variable-granularity
    /// hint API. The address is `granule`-aligned and the allocation is
    /// padded to a whole number of granules, so no later allocation can
    /// land inside the hinted range and silently inherit its granule.
    ///
    /// The recorded [`carlos_lrc::RegionSpec`]s ([`CoherentHeap::regions`])
    /// go into `LrcConfig::regions`; SPMD programs run the same allocation
    /// sequence everywhere, so all nodes build identical region tables.
    ///
    /// # Panics
    ///
    /// Panics if `granule` is not a power of two of at least 8 bytes, or if
    /// the region is exhausted.
    pub fn alloc_with_granule(&mut self, size: usize, granule: usize) -> usize {
        self.alloc_hinted(size, granule, false, None)
    }

    /// Like [`CoherentHeap::alloc_with_granule`], but additionally marks the
    /// region *eager*: granules invalidated by incoming write notices are
    /// re-fetched right after the notices apply (batched per serving node
    /// when fetch coalescing is on) instead of one at a time on later access
    /// faults. Use for data the node is certain to re-read after every
    /// synchronization — hot scalars, task slots, boundary rows — and not
    /// for large arrays mostly owned by other nodes.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`CoherentHeap::alloc_with_granule`].
    pub fn alloc_with_granule_eager(&mut self, size: usize, granule: usize) -> usize {
        self.alloc_hinted(size, granule, true, None)
    }

    /// The hint path in full: [`CoherentHeap::alloc_with_granule`] with the
    /// region's eager policy and, with `home`, its placement — the node
    /// that owns every granule of it ahead of the engine's ownership
    /// policy ([`carlos_lrc::RegionSpec::home`]): the one that makes the
    /// data's first and most accesses. Same panics; a home the cluster
    /// does not have is rejected when the engine is built.
    pub fn alloc_hinted(
        &mut self,
        size: usize,
        granule: usize,
        eager: bool,
        home: Option<u32>,
    ) -> usize {
        assert!(
            granule.is_power_of_two() && granule >= 8,
            "granule must be a power of two of at least 8 bytes"
        );
        let addr = self.alloc(size, granule);
        let len = size.div_ceil(granule) * granule;
        let end = addr.checked_add(len).expect("allocation size overflow");
        assert!(
            end <= self.limit,
            "coherent region exhausted: granule padding for {size} at {addr} passes limit {}",
            self.limit
        );
        self.next = end;
        let spec = carlos_lrc::RegionSpec::new(addr, len, granule);
        self.regions.push(carlos_lrc::RegionSpec { eager, home, ..spec });
        addr
    }

    /// The granularity hints recorded by [`CoherentHeap::alloc_with_granule`],
    /// in allocation (= address) order.
    #[must_use]
    pub fn regions(&self) -> Vec<carlos_lrc::RegionSpec> {
        self.regions.clone()
    }

    /// Bytes allocated so far.
    #[must_use]
    pub fn used(&self) -> usize {
        self.next
    }

    /// Total capacity.
    #[must_use]
    pub fn limit(&self) -> usize {
        self.limit
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bump_allocation_is_monotone_and_aligned() {
        let mut h = CoherentHeap::new(1024);
        let a = h.alloc(10, 4);
        let b = h.alloc(1, 1);
        let c = h.alloc(8, 8);
        assert_eq!(a % 4, 0);
        assert!(b >= a + 10);
        assert_eq!(c % 8, 0);
        assert!(h.used() >= 19);
    }

    #[test]
    fn identical_sequences_give_identical_addresses() {
        let mut h1 = CoherentHeap::new(4096);
        let mut h2 = CoherentHeap::new(4096);
        let seq = [(100, 8), (3, 1), (64, 16), (1, 1)];
        for (s, a) in seq {
            assert_eq!(h1.alloc(s, a), h2.alloc(s, a));
        }
    }

    #[test]
    #[should_panic(expected = "exhausted")]
    fn exhaustion_panics() {
        let mut h = CoherentHeap::new(16);
        let _ = h.alloc(17, 1);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_alignment_panics() {
        let mut h = CoherentHeap::new(64);
        let _ = h.alloc(1, 3);
    }

    #[test]
    fn granule_hints_record_padded_regions() {
        let mut h = CoherentHeap::new(1 << 16);
        let a = h.alloc(4, 4); // Unhinted prefix.
        let b = h.alloc_with_granule(100, 64);
        let c = h.alloc(4, 4);
        assert_eq!(a, 0);
        assert_eq!(b % 64, 0);
        assert!(c >= b + 128, "next alloc must clear the granule padding");
        let regions = h.regions();
        assert_eq!(regions.len(), 1);
        assert_eq!(regions[0].start, b);
        assert_eq!(regions[0].len, 128); // 100 rounded to two 64 B granules.
        assert_eq!(regions[0].granule, 64);
        assert_eq!((regions[0].eager, regions[0].home), (false, None));
        let d = h.alloc_hinted(16, 64, true, Some(3));
        assert_eq!(h.regions()[1], carlos_lrc::RegionSpec::new(d, 64, 64).eager().home(3));
    }

    #[test]
    #[should_panic(expected = "power of two of at least 8")]
    fn bad_granule_panics() {
        let mut h = CoherentHeap::new(1 << 16);
        let _ = h.alloc_with_granule(16, 48);
    }
}
