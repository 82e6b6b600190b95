//! Vector timestamps.
//!
//! "The memory-consistency state of each node is summarized by a vector
//! timestamp, each element of which is the index of the most recently seen
//! interval from the corresponding node" (§4.2).

use carlos_util::codec::{DecodeError, Decoder, Encoder, Wire};

/// Clusters up to this size keep their timestamps inline: a timestamp is
/// built, cloned or decoded for every message, interval and diff record,
/// and for the two clocks of every resident page, so at the benchmarked
/// sizes (4 and 8 nodes) none of those costs a heap allocation.
const INLINE: usize = 8;

#[derive(Clone)]
enum Repr {
    Inline { len: u8, vals: [u32; INLINE] },
    Heap(Vec<u32>),
}

/// A vector timestamp over a fixed-size cluster.
///
/// Element `i` is the index of the most recent interval of node `i` that
/// this timestamp covers. Interval indices start at 1; 0 means "none seen".
pub struct Vc(Repr);

impl Clone for Vc {
    #[inline]
    fn clone(&self) -> Self {
        Self(self.0.clone())
    }

    /// Reuses `self`'s allocation, if it has one (the derive would
    /// reallocate).
    fn clone_from(&mut self, source: &Self) {
        match (&mut self.0, &source.0) {
            (Repr::Heap(dst), Repr::Heap(src)) => dst.clone_from(src),
            (dst, src) => *dst = src.clone(),
        }
    }
}

impl PartialEq for Vc {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Vc {}

impl std::hash::Hash for Vc {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl std::fmt::Debug for Vc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Vc").field(&self.as_slice()).finish()
    }
}

impl Vc {
    /// The zero timestamp for an `n`-node cluster.
    #[must_use]
    #[inline]
    pub fn new(n: usize) -> Self {
        if n > INLINE {
            return Self(Repr::Heap(vec![0; n]));
        }
        Self(Repr::Inline {
            len: n as u8,
            vals: [0; INLINE],
        })
    }

    #[inline]
    fn as_slice(&self) -> &[u32] {
        match &self.0 {
            Repr::Inline { len, vals } => &vals[..usize::from(*len)],
            Repr::Heap(v) => v,
        }
    }

    #[inline]
    fn as_mut_slice(&mut self) -> &mut [u32] {
        match &mut self.0 {
            Repr::Inline { len, vals } => &mut vals[..usize::from(*len)],
            Repr::Heap(v) => v,
        }
    }

    /// Number of nodes this timestamp covers.
    #[must_use]
    #[inline]
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// True when the cluster size is zero (degenerate).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }

    /// The component for `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[must_use]
    #[inline]
    pub fn get(&self, node: u32) -> u32 {
        self.as_slice()[node as usize]
    }

    /// Sets the component for `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[inline]
    pub fn set(&mut self, node: u32, v: u32) {
        self.as_mut_slice()[node as usize] = v;
    }

    /// Increments the component for `node` and returns the new value.
    #[inline]
    pub fn bump(&mut self, node: u32) -> u32 {
        let c = &mut self.as_mut_slice()[node as usize];
        *c += 1;
        *c
    }

    /// True if `self` is pointwise `>= other` (i.e. `self` covers `other`).
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    #[must_use]
    #[inline]
    pub fn dominates(&self, other: &Vc) -> bool {
        assert_eq!(self.len(), other.len(), "vector timestamp size mismatch");
        self.as_slice()
            .iter()
            .zip(other.as_slice())
            .all(|(a, b)| a >= b)
    }

    /// True if `self` and `other` are ordered neither way (concurrent).
    #[must_use]
    pub fn concurrent(&self, other: &Vc) -> bool {
        !self.dominates(other) && !other.dominates(self)
    }

    /// Pointwise maximum: after this call `self` covers both inputs.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    #[inline]
    pub fn join(&mut self, other: &Vc) {
        assert_eq!(self.len(), other.len(), "vector timestamp size mismatch");
        for (a, b) in self.as_mut_slice().iter_mut().zip(other.as_slice()) {
            *a = (*a).max(*b);
        }
    }

    /// Sum of all components. Sorting records by this value is a valid
    /// linear extension of the happened-before partial order, which is how
    /// diffs from multiple writers are ordered before application.
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.as_slice().iter().map(|&v| u64::from(v)).sum()
    }

    /// Iterates `(node, component)` pairs.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.as_slice()
            .iter()
            .enumerate()
            .map(|(n, &v)| (n as u32, v))
    }

    /// Size in bytes of the wire encoding: a `u16` count and "two bytes
    /// per node" (§5.4).
    #[must_use]
    #[inline]
    pub fn wire_len(&self) -> usize {
        2 + 2 * self.len()
    }
}

/// A clock component as the wire carries it: the paper notes the
/// timestamp costs "two bytes per node" (§5.4), so each component is a
/// `u16`.
///
/// # Panics
///
/// Panics, naming the component, if `v` does not fit in 16 bits:
/// saturating it would make the receiver decode a different clock.
#[must_use]
#[inline]
pub fn wire_component(node: u32, v: u32) -> u16 {
    match u16::try_from(v) {
        Ok(c) => c,
        Err(_) => component_overflow(node, v),
    }
}

#[cold]
#[inline(never)]
fn component_overflow(node: u32, v: u32) -> ! {
    panic!("vector-clock component {node} is {v}, past the 16-bit wire encoding")
}

impl Wire for Vc {
    #[inline]
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u16(self.len() as u16);
        for (n, v) in self.iter() {
            enc.put_u16(wire_component(n, v));
        }
    }

    #[inline]
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let mut vc = Self::new(dec.get_u16()? as usize);
        for c in vc.as_mut_slice() {
            *c = u32::from(dec.get_u16()?);
        }
        Ok(vc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_is_zero() {
        let vc = Vc::new(3);
        assert_eq!(vc.len(), 3);
        assert_eq!(vc.get(0), 0);
        assert_eq!(vc.sum(), 0);
    }

    #[test]
    fn bump_and_get() {
        let mut vc = Vc::new(2);
        assert_eq!(vc.bump(1), 1);
        assert_eq!(vc.bump(1), 2);
        assert_eq!(vc.get(1), 2);
        assert_eq!(vc.get(0), 0);
    }

    #[test]
    fn dominates_is_pointwise() {
        let mut a = Vc::new(3);
        let mut b = Vc::new(3);
        assert!(a.dominates(&b) && b.dominates(&a));
        a.set(0, 2);
        assert!(a.dominates(&b) && !b.dominates(&a));
        b.set(1, 1);
        assert!(!a.dominates(&b) && !b.dominates(&a));
        assert!(a.concurrent(&b));
    }

    #[test]
    fn join_takes_pointwise_max() {
        let mut a = Vc::new(3);
        a.set(0, 5);
        a.set(2, 1);
        let mut b = Vc::new(3);
        b.set(0, 3);
        b.set(1, 7);
        a.join(&b);
        assert_eq!(a.get(0), 5);
        assert_eq!(a.get(1), 7);
        assert_eq!(a.get(2), 1);
        assert!(a.dominates(&b));
    }

    #[test]
    fn sum_is_linear_extension_witness() {
        // If a < b pointwise (and somewhere strictly), sum(a) < sum(b).
        let mut a = Vc::new(2);
        a.set(0, 1);
        let mut b = a.clone();
        b.set(1, 3);
        assert!(b.dominates(&a) && !a.dominates(&b));
        assert!(a.sum() < b.sum());
    }

    #[test]
    fn wire_roundtrip() {
        let mut vc = Vc::new(4);
        vc.set(0, 1);
        vc.set(3, 65535);
        let back = Vc::from_wire(&vc.to_wire()).unwrap();
        assert_eq!(back, vc);
        // Two bytes per node plus the two-byte count, as §5.4 describes.
        assert_eq!(vc.wire_size(), 2 + 4 * 2);
    }

    #[test]
    #[should_panic(expected = "vector-clock component 2 is 65536")]
    fn a_component_past_16_bits_does_not_encode() {
        let mut vc = Vc::new(4);
        vc.set(2, 65_536);
        let _ = vc.to_wire();
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn dominates_rejects_size_mismatch() {
        let _ = Vc::new(2).dominates(&Vc::new(3));
    }

    #[test]
    fn wide_clusters_behave_like_narrow_ones() {
        // One past the inline width: same algebra, same encoding, same
        // `Debug` shape (failure messages print timestamps).
        for n in [INLINE, INLINE + 1] {
            let mut a = Vc::new(n);
            a.set(n as u32 - 1, 4);
            assert_eq!((a.len(), a.bump(0), a.sum()), (n, 1, 5));
            let mut b = Vc::new(n);
            b.clone_from(&a);
            assert_eq!(b, a);
            b.set(1, 2);
            assert!(b.dominates(&a) && !a.dominates(&b));
            a.join(&b);
            assert_eq!(Vc::from_wire(&a.to_wire()).unwrap(), b);
            assert_eq!(a.wire_size(), 2 + 2 * n);
            let comps: Vec<u32> = a.iter().map(|(_, v)| v).collect();
            assert_eq!(format!("{a:?}"), format!("Vc({comps:?})"));
        }
    }

    #[test]
    fn iter_yields_components() {
        let mut vc = Vc::new(2);
        vc.set(1, 9);
        let v: Vec<(u32, u32)> = vc.iter().collect();
        assert_eq!(v, vec![(0, 0), (1, 9)]);
    }
}

#[cfg(test)]
mod algebra_props {
    //! Property tests for the `Vc` lattice algebra. The checker's oracle
    //! leans on these laws (join as least upper bound, `dominates` as a
    //! partial order, `concurrent` as its symmetric complement), so they
    //! are pinned here rather than assumed.

    use super::*;
    use proptest::prelude::*;

    /// Small components over a small cluster keep the order relation dense
    /// enough that dominated, dominating, and concurrent pairs all appear.
    fn vc3() -> impl Strategy<Value = Vc> {
        proptest::collection::vec(0u32..5, 4).prop_map(|comps| {
            let mut vc = Vc::new(comps.len());
            vc.as_mut_slice().copy_from_slice(&comps);
            vc
        })
    }

    fn joined(a: &Vc, b: &Vc) -> Vc {
        let mut j = a.clone();
        j.join(b);
        j
    }

    proptest! {
        #[test]
        fn join_is_upper_bound_commutative_idempotent(a in vc3(), b in vc3()) {
            let ab = joined(&a, &b);
            prop_assert!(ab.dominates(&a), "join must dominate left input");
            prop_assert!(ab.dominates(&b), "join must dominate right input");
            prop_assert_eq!(&ab, &joined(&b, &a), "join must be commutative");
            prop_assert_eq!(&joined(&a, &a), &a, "join must be idempotent");
        }

        #[test]
        fn join_is_least_upper_bound(a in vc3(), b in vc3(), c in vc3()) {
            // Any common upper bound of a and b dominates their join.
            if c.dominates(&a) && c.dominates(&b) {
                prop_assert!(c.dominates(&joined(&a, &b)));
            }
        }

        #[test]
        fn dominates_is_a_partial_order(a in vc3(), b in vc3(), c in vc3()) {
            prop_assert!(a.dominates(&a), "reflexivity");
            if a.dominates(&b) && b.dominates(&a) {
                prop_assert_eq!(&a, &b, "antisymmetry");
            }
            if a.dominates(&b) && b.dominates(&c) {
                prop_assert!(a.dominates(&c), "transitivity");
            }
        }

        #[test]
        fn concurrent_is_symmetric_and_irreflexive(a in vc3(), b in vc3()) {
            prop_assert_eq!(a.concurrent(&b), b.concurrent(&a), "symmetry");
            prop_assert!(!a.concurrent(&a), "irreflexivity");
            // Concurrency is exactly the absence of order, either way.
            prop_assert_eq!(
                a.concurrent(&b),
                !a.dominates(&b) && !b.dominates(&a)
            );
        }
    }
}
