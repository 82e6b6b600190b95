//! The sharded key-value store: shared-memory layout, wire encoding of
//! operations, and server-side execution against the DSM.
//!
//! Keys are hashed to **shards**; each shard is owned by exactly one
//! server node, which is the only writer of the shard's memory. A shard
//! is a linear-probed hash table split into two coherent regions:
//!
//! - a **metadata table** — 16 B per slot (key, version, value length).
//!   Hot and tiny, so it is carved into eager 64 B fine granules: a node
//!   holding a copy of one gets the updated header with the write notice
//!   instead of a page-sized demand fetch later. Clients hold none (a
//!   reply's body carries what they asked for), so the owning server's
//!   RELEASE replies carry them no diffs at all;
//! - a **value table** — one fixed-capacity cell per slot, allocated as
//!   demand granules of one cell each: peers that never read a value
//!   never pay for it.
//!
//! Because the owning server serializes all mutations of its shards,
//! there are no write-write races anywhere in the store; consistency
//! information flows to clients exclusively on the RELEASE-annotated
//! replies (the paper's message-driven model applied to serving).

use carlos_core::{CoherentHeap, Runtime};
use carlos_util::rng::SplitMix64;

/// Bytes per slot header: key (8) + version (4) + value length (4).
pub const META_BYTES: usize = 16;

/// `vlen` sentinel marking a tombstoned (deleted) entry.
pub const TOMBSTONE: u32 = u32::MAX;

/// Stored values must hold the 8-byte key self-tag plus an 8-byte
/// counter cell.
pub const MIN_VAL_LEN: usize = 16;

/// Addresses of the store's shard tables, computed identically on every
/// node from the configuration (SPMD layout, no communication).
#[derive(Debug, Clone)]
pub struct StoreLayout {
    /// Total shard count (`n_servers * shards_per_server`).
    pub n_shards: usize,
    /// Server nodes (shard `s` is owned by node `s % n_servers`).
    pub n_servers: usize,
    /// Slots per shard (power of two).
    pub slots_per_shard: usize,
    /// Fixed value-cell capacity in bytes.
    pub val_cap: usize,
    meta_base: Vec<usize>,
    val_base: Vec<usize>,
}

impl StoreLayout {
    /// Carves the shard tables out of `heap`: slot headers become eager
    /// 64 B fine granules and value cells demand granules of one cell, both
    /// homed on the shard's server.
    #[must_use]
    pub fn build(
        heap: &mut CoherentHeap,
        n_servers: usize,
        shards_per_server: usize,
        slots_per_shard: usize,
        val_cap: usize,
    ) -> Self {
        assert!(slots_per_shard.is_power_of_two(), "slot count must be a power of two");
        assert!(val_cap >= MIN_VAL_LEN, "value capacity below minimum");
        let val_granule = val_cap.next_power_of_two().max(64);
        let mut lay = Self {
            n_shards: n_servers * shards_per_server,
            n_servers,
            slots_per_shard,
            val_cap,
            meta_base: Vec::new(),
            val_base: Vec::new(),
        };
        for shard in 0..lay.n_shards {
            // Homed on the shard's only writer, whose first touches then
            // fault on nothing; under the banded policy most would fetch
            // an all-zero granule from a node that never uses it.
            let home = Some(lay.server_of(shard));
            let meta = heap.alloc_hinted(slots_per_shard * META_BYTES, 64, true, home);
            let val = heap.alloc_hinted(slots_per_shard * val_cap, val_granule, false, home);
            lay.meta_base.push(meta);
            lay.val_base.push(val);
        }
        lay
    }

    /// The shard a key hashes to.
    #[must_use]
    pub fn shard_of(&self, key: u64) -> usize {
        (SplitMix64::new(key).next_u64() % self.n_shards as u64) as usize
    }

    /// The server node owning `shard`.
    #[must_use]
    pub fn server_of(&self, shard: usize) -> u32 {
        (shard % self.n_servers) as u32
    }

    /// The slot linear probing starts from for `key` within its shard.
    #[must_use]
    pub fn home_slot(&self, key: u64) -> usize {
        (SplitMix64::new(key.rotate_left(32) ^ 0xC0DE).next_u64() % self.slots_per_shard as u64) as usize
    }

    /// Address of the slot header.
    #[must_use]
    pub fn meta_addr(&self, shard: usize, slot: usize) -> usize {
        self.meta_base[shard] + slot * META_BYTES
    }

    /// Address of the slot's value cell.
    #[must_use]
    pub fn val_addr(&self, shard: usize, slot: usize) -> usize {
        self.val_base[shard] + slot * self.val_cap
    }
}

/// One decoded slot header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotMeta {
    /// Key stored in the slot (meaningful when `version > 0`).
    pub key: u64,
    /// Mutation count; `0` means the slot has never been written.
    pub version: u32,
    /// Stored value length, or [`TOMBSTONE`].
    pub vlen: u32,
}

impl SlotMeta {
    /// True when the slot holds a live (non-deleted) entry.
    #[must_use]
    pub fn live(&self) -> bool {
        self.version > 0 && self.vlen != TOMBSTONE
    }

    fn read(rt: &mut Runtime, addr: usize) -> Self {
        let mut b = [0u8; META_BYTES];
        rt.read_bytes(addr, &mut b);
        Self {
            key: u64::from_le_bytes(b[0..8].try_into().expect("meta key")),
            version: u32::from_le_bytes(b[8..12].try_into().expect("meta version")),
            vlen: u32::from_le_bytes(b[12..16].try_into().expect("meta vlen")),
        }
    }

    fn write(&self, rt: &mut Runtime, addr: usize) {
        let mut b = [0u8; META_BYTES];
        b[0..8].copy_from_slice(&self.key.to_le_bytes());
        b[8..12].copy_from_slice(&self.version.to_le_bytes());
        b[12..16].copy_from_slice(&self.vlen.to_le_bytes());
        rt.write_bytes(addr, &b);
    }
}

/// Operation kinds carried in request messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Read a key.
    Get,
    /// Unconditional versioned write.
    Put,
    /// Tombstone a key.
    Delete,
    /// Compare-and-swap: write only if the stored version equals
    /// `expected` (`expected == 0` inserts into an empty or tombstoned
    /// slot).
    Cas,
}

impl OpKind {
    fn to_u8(self) -> u8 {
        match self {
            OpKind::Get => 0,
            OpKind::Put => 1,
            OpKind::Delete => 2,
            OpKind::Cas => 3,
        }
    }

    fn from_u8(v: u8) -> Option<Self> {
        Some(match v {
            0 => OpKind::Get,
            1 => OpKind::Put,
            2 => OpKind::Delete,
            3 => OpKind::Cas,
            _ => return None,
        })
    }
}

/// Reply status codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// The operation applied (or the get found a live entry).
    Ok,
    /// No live entry for the key.
    NotFound,
    /// CAS version mismatch; the reply carries the current version and
    /// value so the client can retry without a separate get.
    CasFail,
    /// The shard's slot table is full (sizing bug; counted, never silent).
    Overflow,
}

impl Status {
    fn to_u8(self) -> u8 {
        match self {
            Status::Ok => 0,
            Status::NotFound => 1,
            Status::CasFail => 2,
            Status::Overflow => 3,
        }
    }

    fn from_u8(v: u8) -> Option<Self> {
        Some(match v {
            0 => Status::Ok,
            1 => Status::NotFound,
            2 => Status::CasFail,
            3 => Status::Overflow,
            _ => return None,
        })
    }
}

/// A decoded request message (client → shard owner, REQUEST-annotated).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Client-local completion tag.
    pub req_id: u32,
    /// Operation.
    pub op: OpKind,
    /// Key operated on.
    pub key: u64,
    /// Expected version (CAS only; ignored otherwise).
    pub expected: u32,
    /// Value payload (put/CAS).
    pub value: Vec<u8>,
}

impl Request {
    /// Wire encoding.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut b = Vec::with_capacity(19 + self.value.len());
        b.extend_from_slice(&self.req_id.to_le_bytes());
        b.push(self.op.to_u8());
        b.extend_from_slice(&self.key.to_le_bytes());
        b.extend_from_slice(&self.expected.to_le_bytes());
        b.extend_from_slice(
            &u16::try_from(self.value.len()).expect("value fits u16").to_le_bytes(),
        );
        b.extend_from_slice(&self.value);
        b
    }

    /// Wire decoding; `None` on malformed input.
    #[must_use]
    pub fn from_bytes(b: &[u8]) -> Option<Self> {
        if b.len() < 19 {
            return None;
        }
        let vlen = u16::from_le_bytes(b[17..19].try_into().ok()?) as usize;
        if b.len() != 19 + vlen {
            return None;
        }
        Some(Self {
            req_id: u32::from_le_bytes(b[0..4].try_into().ok()?),
            op: OpKind::from_u8(b[4])?,
            key: u64::from_le_bytes(b[5..13].try_into().ok()?),
            expected: u32::from_le_bytes(b[13..17].try_into().ok()?),
            value: b[19..].to_vec(),
        })
    }
}

/// A decoded reply message (shard owner → client, RELEASE-annotated: the
/// reply carries the server's consistency information, so the client's
/// DSM view includes the write it just observed).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reply {
    /// Echoed completion tag.
    pub req_id: u32,
    /// Outcome.
    pub status: Status,
    /// Entry version after the operation (current version on `CasFail`).
    pub version: u32,
    /// Value payload (get hits and CAS failures).
    pub value: Vec<u8>,
}

impl Reply {
    /// Wire encoding.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut b = Vec::with_capacity(11 + self.value.len());
        b.extend_from_slice(&self.req_id.to_le_bytes());
        b.push(self.status.to_u8());
        b.extend_from_slice(&self.version.to_le_bytes());
        b.extend_from_slice(
            &u16::try_from(self.value.len()).expect("value fits u16").to_le_bytes(),
        );
        b.extend_from_slice(&self.value);
        b
    }

    /// Wire decoding; `None` on malformed input.
    #[must_use]
    pub fn from_bytes(b: &[u8]) -> Option<Self> {
        if b.len() < 11 {
            return None;
        }
        let vlen = u16::from_le_bytes(b[9..11].try_into().ok()?) as usize;
        if b.len() != 11 + vlen {
            return None;
        }
        Some(Self {
            req_id: u32::from_le_bytes(b[0..4].try_into().ok()?),
            status: Status::from_u8(b[4])?,
            version: u32::from_le_bytes(b[5..9].try_into().ok()?),
            value: b[11..].to_vec(),
        })
    }
}

/// Outcome of probing a shard for a key.
enum Probe {
    /// Slot holding the key.
    Found(usize, SlotMeta),
    /// First never-written slot on the probe path (insert target).
    Free(usize),
    /// Probed every slot without finding the key or a free slot.
    Full,
}

/// Linear probe for `key` starting at its home slot.
fn probe(rt: &mut Runtime, lay: &StoreLayout, shard: usize, key: u64) -> Probe {
    let start = lay.home_slot(key);
    for i in 0..lay.slots_per_shard {
        let slot = (start + i) & (lay.slots_per_shard - 1);
        let meta = SlotMeta::read(rt, lay.meta_addr(shard, slot));
        if meta.version == 0 {
            return Probe::Free(slot);
        }
        if meta.key == key {
            return Probe::Found(slot, meta);
        }
    }
    Probe::Full
}

/// Executes one request against the DSM. Only the shard's owning server
/// calls this, so execution is single-writer by construction; the write
/// becomes visible to the client through the RELEASE-annotated reply.
///
/// # Panics
///
/// Panics if a put/CAS value exceeds the layout's value capacity.
#[must_use]
pub fn execute(rt: &mut Runtime, lay: &StoreLayout, req: &Request) -> Reply {
    let shard = lay.shard_of(req.key);
    debug_assert_eq!(lay.server_of(shard), rt.node_id(), "op routed to wrong server");
    let reply = |status, version, value| Reply {
        req_id: req.req_id,
        status,
        version,
        value,
    };
    match req.op {
        OpKind::Get => match probe(rt, lay, shard, req.key) {
            Probe::Found(slot, meta) if meta.live() => {
                let mut v = vec![0u8; meta.vlen as usize];
                rt.read_bytes(lay.val_addr(shard, slot), &mut v);
                reply(Status::Ok, meta.version, v)
            }
            Probe::Found(_, meta) => reply(Status::NotFound, meta.version, Vec::new()),
            _ => reply(Status::NotFound, 0, Vec::new()),
        },
        OpKind::Put => {
            assert!(req.value.len() <= lay.val_cap, "value exceeds cell capacity");
            let (slot, old) = match probe(rt, lay, shard, req.key) {
                Probe::Found(slot, meta) => (slot, meta.version),
                Probe::Free(slot) => (slot, 0),
                Probe::Full => return reply(Status::Overflow, 0, Vec::new()),
            };
            let version = old + 1;
            rt.write_bytes(lay.val_addr(shard, slot), &req.value);
            SlotMeta {
                key: req.key,
                version,
                vlen: u32::try_from(req.value.len()).expect("vlen fits u32"),
            }
            .write(rt, lay.meta_addr(shard, slot));
            reply(Status::Ok, version, Vec::new())
        }
        OpKind::Delete => match probe(rt, lay, shard, req.key) {
            Probe::Found(slot, meta) if meta.live() => {
                let version = meta.version + 1;
                SlotMeta {
                    key: req.key,
                    version,
                    vlen: TOMBSTONE,
                }
                .write(rt, lay.meta_addr(shard, slot));
                reply(Status::Ok, version, Vec::new())
            }
            Probe::Found(_, meta) => reply(Status::NotFound, meta.version, Vec::new()),
            _ => reply(Status::NotFound, 0, Vec::new()),
        },
        OpKind::Cas => {
            assert!(req.value.len() <= lay.val_cap, "value exceeds cell capacity");
            let (slot, cur) = match probe(rt, lay, shard, req.key) {
                Probe::Found(slot, meta) => (slot, meta),
                Probe::Free(slot) => (
                    slot,
                    SlotMeta {
                        key: req.key,
                        version: 0,
                        vlen: TOMBSTONE,
                    },
                ),
                Probe::Full => return reply(Status::Overflow, 0, Vec::new()),
            };
            // `expected == 0` matches empty and tombstoned slots (atomic
            // insert); otherwise the live version must match exactly.
            let matches = if cur.live() {
                req.expected == cur.version
            } else {
                req.expected == 0
            };
            if matches {
                let version = cur.version + 1;
                rt.write_bytes(lay.val_addr(shard, slot), &req.value);
                SlotMeta {
                    key: req.key,
                    version,
                    vlen: u32::try_from(req.value.len()).expect("vlen fits u32"),
                }
                .write(rt, lay.meta_addr(shard, slot));
                reply(Status::Ok, version, Vec::new())
            } else if cur.live() {
                let mut v = vec![0u8; cur.vlen as usize];
                rt.read_bytes(lay.val_addr(shard, slot), &mut v);
                reply(Status::CasFail, cur.version, v)
            } else {
                reply(Status::CasFail, 0, Vec::new())
            }
        }
    }
}

/// Reads a key's slot header straight from the DSM (live or tombstoned;
/// `None` if the key was never written). Same legality conditions as
/// [`read_key`]; the serving harness uses it to audit the store against
/// each server's private version mirror.
#[must_use]
pub fn meta_of(rt: &mut Runtime, lay: &StoreLayout, key: u64) -> Option<SlotMeta> {
    let shard = lay.shard_of(key);
    match probe(rt, lay, shard, key) {
        Probe::Found(_, meta) => Some(meta),
        _ => None,
    }
}

/// Reads a key directly from the DSM (no messages): probes the shard's
/// tables with coherent reads. Valid wherever LRC legality holds — e.g.
/// after a closing barrier, or on the owning server itself. Returns the
/// live entry's `(version, value)`.
#[must_use]
pub fn read_key(rt: &mut Runtime, lay: &StoreLayout, key: u64) -> Option<(u32, Vec<u8>)> {
    let shard = lay.shard_of(key);
    match probe(rt, lay, shard, key) {
        Probe::Found(slot, meta) if meta.live() => {
            let mut v = vec![0u8; meta.vlen as usize];
            rt.read_bytes(lay.val_addr(shard, slot), &mut v);
            Some((meta.version, v))
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_roundtrip() {
        let req = Request {
            req_id: 7,
            op: OpKind::Cas,
            key: 0xDEAD_BEEF,
            expected: 3,
            value: vec![1, 2, 3],
        };
        assert_eq!(Request::from_bytes(&req.to_bytes()), Some(req.clone()));
        let rep = Reply {
            req_id: 7,
            status: Status::CasFail,
            version: 9,
            value: vec![4, 5],
        };
        assert_eq!(Reply::from_bytes(&rep.to_bytes()), Some(rep));
        assert_eq!(Request::from_bytes(&[0; 5]), None);
        assert_eq!(Reply::from_bytes(&[0; 3]), None);
    }

    #[test]
    fn layout_is_deterministic_and_disjoint() {
        let build = || {
            let mut heap = CoherentHeap::new(1 << 22);
            StoreLayout::build(&mut heap, 2, 2, 64, 64)
        };
        let a = build();
        let b = build();
        for s in 0..a.n_shards {
            assert_eq!(a.meta_addr(s, 0), b.meta_addr(s, 0));
            assert_eq!(a.val_addr(s, 0), b.val_addr(s, 0));
        }
        // Meta and value tables never overlap.
        let mut spans: Vec<(usize, usize)> = (0..a.n_shards)
            .flat_map(|s| {
                [
                    (a.meta_addr(s, 0), 64 * META_BYTES),
                    (a.val_addr(s, 0), 64 * a.val_cap),
                ]
            })
            .collect();
        spans.sort_unstable();
        for w in spans.windows(2) {
            assert!(w[0].0 + w[0].1 <= w[1].0, "overlapping tables");
        }
    }

    #[test]
    fn keys_spread_over_shards() {
        let mut heap = CoherentHeap::new(1 << 22);
        let lay = StoreLayout::build(&mut heap, 4, 4, 256, 64);
        let mut counts = vec![0u32; lay.n_shards];
        for k in 0..4096u64 {
            counts[lay.shard_of(k)] += 1;
        }
        for (s, c) in counts.iter().enumerate() {
            assert!(*c > 128, "shard {s} nearly empty: {c}");
        }
    }
}
