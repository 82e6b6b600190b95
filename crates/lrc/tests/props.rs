//! Property-based tests for the LRC substrate.

use carlos_lrc::{Demand, Diff, DiffRecord, Diffs, LrcConfig, LrcEngine, Vc, WORD};
use carlos_util::codec::{DecodeError, Decoder, Encoder, Wire};
use carlos_util::cases::{cases, Gen};

type Runs = Vec<(u32, Vec<u8>)>;

/// The executable specification of which runs a diff holds: mark the dirty
/// words, take maximal stretches of them, trim each to its first and last
/// differing byte.
fn reference_runs(twin: &[u8], current: &[u8]) -> Runs {
    let differs = |i: &usize| twin[*i] != current[*i];
    let dirty: Vec<usize> = (0..twin.len().div_ceil(WORD))
        .filter(|w| (w * WORD..twin.len().min(w * WORD + WORD)).any(|i| differs(&i)))
        .collect();
    dirty
        .chunk_by(|a, b| a + 1 == *b)
        .map(|stretch| {
            let mut bytes = stretch[0] * WORD..twin.len().min(stretch[stretch.len() - 1] * WORD + WORD);
            let start = bytes.find(differs).expect("dirty first word");
            let end = bytes.rfind(differs).unwrap_or(start) + 1;
            (start as u32, current[start..end].to_vec())
        })
        .collect()
}

/// The byte-granular scanner diffs used before: a run is a maximal stretch
/// of differing bytes. Kept to show the word rule never encodes larger.
fn byte_runs(twin: &[u8], current: &[u8]) -> Runs {
    let mut runs = Vec::new();
    let mut i = 0;
    while i < twin.len() {
        if twin[i] == current[i] {
            i += 1;
            continue;
        }
        let start = i;
        while i < twin.len() && twin[i] != current[i] {
            i += 1;
        }
        runs.push((start as u32, current[start..i].to_vec()));
    }
    runs
}

/// Length of the wire encoding of `runs`.
fn wire_len(runs: &Runs) -> usize {
    4 + runs.iter().map(|(_, data)| 8 + data.len()).sum::<usize>()
}

/// An 8 KiB page of `u32`s below 2^18 and the same page with every element
/// replaced by another such value: what a sorter leaves of a page of keys.
fn typed_u32_pages() -> (Vec<u8>, Vec<u8>) {
    let mut rng = carlos_util::rng::Xoshiro256::new(0x5150_1994);
    let mut page = || -> Vec<u8> {
        (0..2048).flat_map(|_| (rng.next_below(1 << 18) as u32).to_le_bytes()).collect()
    };
    (page(), page())
}

/// An 8 KiB page of `f64`s `1.0 + 0.37 i` and the same page with every
/// element moved by `1e-3 sin i`: one step of a particle code.
fn typed_f64_pages() -> (Vec<u8>, Vec<u8>) {
    let at = |i: usize| 1.0 + 0.37 * i as f64;
    let page = |f: &dyn Fn(usize) -> f64| (0..1024).flat_map(|i| f(i).to_le_bytes()).collect();
    (page(&at), page(&|i| at(i) + 1e-3 * (i as f64).sin()))
}

fn runs_of(d: &Diff) -> Runs {
    d.runs()
        .map(|(offset, data)| (offset, data.to_vec()))
        .collect()
}

/// How a diff was decoded while it was a vector of runs: the reference for
/// what `Diff::decode` accepts, yields and rejects.
fn reference_decode(dec: &mut Decoder<'_>) -> Result<Runs, DecodeError> {
    dec.get_seq(|dec| Ok((dec.get_u32()?, dec.get_bytes()?)))
}

/// `Diff::decode`, `DiffRecord::decode` and `Diffs::decode` on bytes from
/// anywhere: no panic, the reference decoder's verdict, and a value that
/// is exactly the bytes it consumed.
fn check_decoders(input: &[u8]) {
    let (mut dec, mut reference) = (Decoder::new(input), Decoder::new(input));
    let got = Diff::decode(&mut dec);
    assert_eq!(
        got.clone().map(|d| runs_of(&d)),
        reference_decode(&mut reference)
    );
    if let Ok(d) = got {
        assert_eq!(dec.remaining(), reference.remaining());
        assert_eq!(d.to_wire(), input[..input.len() - dec.remaining()]);
        assert_eq!(
            d.runs().map(|(_, data)| data.len()).sum::<usize>(),
            d.modified_bytes()
        );
    }
    let mut dec = Decoder::new(input);
    if let Ok(rec) = DiffRecord::decode(&mut dec) {
        assert_eq!(rec.to_wire(), input[..input.len() - dec.remaining()]);
    }
    let mut dec = Decoder::new(input);
    if let Ok(batch) = Diffs::decode(&mut dec) {
        assert_eq!(batch.to_wire(), input[..input.len() - dec.remaining()]);
    }
}

fn satisfy(engines: &mut [LrcEngine], node: usize, demands: Vec<Demand>) {
    for d in demands {
        match d {
            Demand::Diffs {
                to,
                page,
                after,
                through,
            } => {
                let recs: Diffs = engines[to as usize].own_diffs(page, after, through).collect();
                engines[node].apply_diff_records(page, &recs);
            }
            Demand::Page { to, page } => {
                let (data, applied) = engines[to as usize].serve_page(page);
                engines[node].install_page(page, data, applied);
            }
        }
    }
}

fn resolve_write(engines: &mut [LrcEngine], node: usize, addr: usize, data: &[u8]) {
    loop {
        match engines[node].write(addr, data) {
            Ok(()) => return,
            Err(d) => satisfy(engines, node, d),
        }
    }
}

fn resolve_read(engines: &mut [LrcEngine], node: usize, addr: usize, buf: &mut [u8]) {
    loop {
        match engines[node].read(addr, buf) {
            Ok(()) => return,
            Err(d) => satisfy(engines, node, d),
        }
    }
}

fn sync_release(engines: &mut [LrcEngine], from: usize, to: usize) {
    engines[from].close_interval();
    let have = engines[to].vt().clone();
    let records = engines[from].records_newer_than(&have);
    engines[to].close_interval();
    engines[to].apply_records(&records);
}

#[test]
fn diff_roundtrip() {
    cases("diff_roundtrip", 64, |g| {
        let (twin, edits) = (g.bytes(128), g.vec(0..40, |g| (g.range(0usize..128), g.u8())));
        let mut cur = twin.clone();
        for (i, v) in edits {
            cur[i] = v;
        }
        let d = Diff::create(&twin, &cur);
        let mut rebuilt = twin.clone();
        d.apply(&mut rebuilt);
        assert_eq!(rebuilt, cur);
        // Modified byte count never exceeds the edit count upper bound.
        assert!(d.modified_bytes() <= 128);
    });
}

/// `Diff::create` holds exactly the reference scanner's runs on random
/// pages of every length, multiples of the word or not (the two-word
/// step's hand-off to single words and to a short last word is the
/// risky part), whether edits are scattered bytes or rewritten words.
#[test]
fn create_equals_reference_scanner() {
    cases("create_equals_reference_scanner", 64, |g| {
        let (len, edits) = (g.range(0usize..200), g.vec(0..64, |g| (g.range(0usize..200), g.u8())));
        let twin: Vec<u8> = (0..len).map(|i| (i * 31 + 7) as u8).collect();
        let mut cur = twin.clone();
        for (k, (i, v)) in edits.into_iter().enumerate() {
            if len > 0 {
                // Every fourth edit rewrites up to a word and a half.
                let span = if k % 4 == 0 { 1 + usize::from(v) % 6 } else { 1 };
                let at = i % len;
                cur[at..len.min(at + span)].fill(v);
            }
        }
        assert_eq!(runs_of(&Diff::create(&twin, &cur)), reference_runs(&twin, &cur));
    });
}

/// Degenerate dirtiness extremes at word-multiple and odd sizes.
#[test]
fn create_equals_reference_at_extremes() {
    cases("create_equals_reference_at_extremes", 64, |g| {
        let (len, flip) = (g.range(1usize..96), g.bool());
        let twin = vec![0xA5u8; len];
        let cur = if flip { vec![0x5Au8; len] } else { twin.clone() };
        let d = Diff::create(&twin, &cur);
        assert_eq!(runs_of(&d), reference_runs(&twin, &cur));
        assert_eq!(d.modified_bytes(), if flip { len } else { 0 });
        assert_eq!(d.is_empty(), !flip);
    });
}

/// Diffing at the variable-coherence granule sizes (sub-page 64 B and
/// 256 B fine granules, the 8 KiB page, 1 MiB bulk granules):
/// create/apply roundtrips and the scanner still matches the reference
/// exactly. Granules are always powers of two, so unlike
/// `create_equals_reference_scanner` these lengths never exercise the
/// short-last-word path — what they add is coverage of whole-buffer
/// scans at every size the system diffs.
#[test]
fn granule_sized_diffs_match_reference() {
    cases("granule_sized_diffs_match_reference", 64, |g| {
        let len = [64usize, 256, 8192, 1 << 20][g.below(4)];
        let edits = g.vec(0..48, |g| (g.u64() as usize, g.u8()));
        let mut rng = carlos_util::rng::Xoshiro256::new(g.u64() | 1);
        let twin: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        let mut cur = twin.clone();
        for (i, v) in edits {
            cur[i % len] = v;
        }
        let d = Diff::create(&twin, &cur);
        assert_eq!(runs_of(&d), reference_runs(&twin, &cur), "scanners diverged at {len} B granule");
        let mut rebuilt = twin.clone();
        d.apply(&mut rebuilt);
        assert_eq!(rebuilt, cur);
    });
}

/// What makes the word rule safe and worth having, on scattered bytes
/// and on rewritten typed elements alike: the diff rebuilds the page;
/// it carries **no byte of a word the writer left clean** (so it cannot
/// overwrite what a concurrent writer of another word wrote); and its
/// encoding is never longer than the byte-granular one.
#[test]
fn word_runs_are_safe_and_never_larger() {
    cases("word_runs_are_safe_and_never_larger", 64, |g| {
        let len = g.range(1usize..300);
        let edits = g.vec(0..40, |g| (g.u64() as usize, g.range(1usize..9), g.u32()));
        let mut rng = carlos_util::rng::Xoshiro256::new(g.u64() | 1);
        let twin: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        let mut cur = twin.clone();
        for (at, width, v) in edits {
            // A small value stored 1..=8 bytes wide: its high bytes agree
            // with what small values left there before.
            let at = at % len;
            let bytes = u64::from(v & 0x3FFFF).to_le_bytes();
            let n = width.min(len - at);
            cur[at..at + n].copy_from_slice(&bytes[..n]);
        }
        let d = Diff::create(&twin, &cur);
        let mut rebuilt = twin.clone();
        d.apply(&mut rebuilt);
        assert_eq!(&rebuilt, &cur);
        let word_dirty = |w: usize| twin[w * WORD..len.min(w * WORD + WORD)] != cur[w * WORD..len.min(w * WORD + WORD)];
        for (offset, data) in d.runs() {
            for i in offset as usize..offset as usize + data.len() {
                assert!(word_dirty(i / WORD), "byte {i} carried from a clean word");
            }
        }
        assert!(d.wire_len() <= wire_len(&byte_runs(&twin, &cur)));
        assert_eq!(d.wire_len(), wire_len(&runs_of(&d)));
    });
}

/// `decode(encode(d)) == d` for a whole record, whose `wire_len` is its
/// encoding's length.
#[test]
fn record_wire_roundtrip() {
    cases("record_wire_roundtrip", 64, |g| {
        let (twin, edits) = (g.bytes(64), g.vec(0..20, |g| (g.range(0usize..64), g.u8())));
        let ids = [(); 4].map(|()| g.u32());
        // The wire saturates clock components at 16 bits.
        let clock = g.vec(0..12, |g| g.range(0u32..=65_535));
        let mut cur = twin.clone();
        for (i, v) in edits {
            cur[i] = v;
        }
        let rec = DiffRecord {
            node: ids[0],
            page: ids[1],
            first: ids[2],
            last: ids[3],
            vc: Vc::from_slice(&clock),
            diff: Diff::create(&twin, &cur),
        };
        let wire = rec.to_wire();
        assert_eq!(rec.wire_len(), wire.len());
        assert_eq!(rec.diff.wire_len(), rec.diff.to_wire().len());
        assert_eq!(Diff::from_wire(&rec.diff.to_wire()).unwrap(), rec.diff.clone());
        assert_eq!(DiffRecord::from_wire(&wire).unwrap(), rec);
        // A batch of it is the record sequence's encoding, and reads back
        // the record.
        let batch: Diffs = [rec.view(), rec.view()].into_iter().collect();
        let mut seq = Encoder::new();
        seq.put_seq(&[rec.clone(), rec.clone()], |enc, r| r.encode(enc));
        assert_eq!(batch.to_wire(), seq.finish_vec());
        assert_eq!(batch.wire_len(), batch.to_wire().len());
        assert_eq!(Diffs::from_wire(&batch.to_wire()).unwrap(), batch);
        assert_eq!(DiffRecord::from(batch.get(1)), rec);
    });
}

/// Decoding never trusts its input: arbitrary bytes, run lengths that
/// lie, and valid encodings cut short or with one bit flipped.
#[test]
fn decoders_survive_any_bytes() {
    cases("decoders_survive_any_bytes", 64, |g| {
        let noise = g.vec(0..96, Gen::u8);
        let claims = g.vec(0..6, |g| (g.u32(), g.range(0u32..12), g.vec(0..12, Gen::u8)));
        let count_skew = g.range(0u32..3);
        let edits = g.vec(0..20, |g| (g.range(0usize..64), g.u8()));
        let (cut, flip) = (g.u64() as usize, g.u64() as usize);
        check_decoders(&noise);

        let mut lying = (claims.len() as u32 + count_skew).saturating_sub(1).to_le_bytes().to_vec();
        for (offset, len, data) in &claims {
            lying.extend_from_slice(&offset.to_le_bytes());
            lying.extend_from_slice(&len.to_le_bytes());
            lying.extend_from_slice(data);
        }
        check_decoders(&lying);

        let mut cur = vec![0u8; 64];
        for (i, v) in edits {
            cur[i] = v;
        }
        let valid = DiffRecord {
            node: 1,
            page: 2,
            first: 3,
            last: 3,
            vc: Vc::new(4),
            diff: Diff::create(&[0; 64], &cur),
        };
        let batch: Diffs = [valid.view(); 2].into_iter().collect();
        for wire in [valid.to_wire(), valid.diff.to_wire(), batch.to_wire()] {
            check_decoders(&wire);
            check_decoders(&wire[..cut % wire.len()]);
            let mut flipped = wire.clone();
            flipped[flip / 8 % wire.len()] ^= 1 << (flip % 8);
            check_decoders(&flipped);
        }
    });
}

#[test]
fn vc_lattice_laws() {
    cases("vc_lattice_laws", 64, |g| {
        let va = Vc::from_slice(&[(); 4].map(|()| g.range(0u32..100)));
        let vb = Vc::from_slice(&[(); 4].map(|()| g.range(0u32..100)));
        // Join is an upper bound of both.
        let mut j = va.clone();
        j.join(&vb);
        assert!(j.dominates(&va));
        assert!(j.dominates(&vb));
        // Join is commutative.
        let mut j2 = vb.clone();
        j2.join(&va);
        assert_eq!(&j, &j2);
        // Join is idempotent.
        let mut j3 = j.clone();
        j3.join(&j);
        assert_eq!(&j3, &j);
        // Domination is antisymmetric up to equality.
        if va.dominates(&vb) && vb.dominates(&va) {
            assert_eq!(&va, &vb);
        }
        // sum() is a monotone witness.
        if va.dominates(&vb) {
            assert!(va.sum() >= vb.sum());
        }
    });
}

/// Data-race-free fuzz: each node owns a disjoint byte range and writes
/// random values into it with random interleavings of release pairs.
/// After a closing all-to-all synchronization, every node must read
/// every writer's final values.
#[test]
fn drf_runs_converge() {
    cases("drf_runs_converge", 64, |g| {
        let ops = g.vec(1..60, |g| (g.range(0usize..3), g.range(0usize..48), g.u8(), g.range(0usize..3)));
        let n = 3usize;
        let cfg = LrcConfig::small_test(n);
        let region = cfg.region_bytes;
        let slice = region / n;
        let mut engines: Vec<LrcEngine> = (0..n as u32).map(|i| LrcEngine::new(i, cfg.clone())).collect();
        let mut expected = vec![0u8; region];

        for (node, off, val, peer) in ops {
            let addr = node * slice + (off % slice);
            resolve_write(&mut engines, node, addr, &[val]);
            expected[addr] = val;
            if peer != node {
                sync_release(&mut engines, node, peer);
            }
        }
        // Closing synchronization: two all-to-all rounds make everyone
        // cover everyone (round one may create new intervals on acquirers).
        for _round in 0..2 {
            for a in 0..n {
                for b in 0..n {
                    if a != b {
                        sync_release(&mut engines, a, b);
                    }
                }
            }
        }
        for node in 0..n {
            let mut buf = vec![0u8; region];
            resolve_read(&mut engines, node, 0, &mut buf);
            assert_eq!(&buf, &expected, "node {node} diverged");
        }
    });
}

/// The release/acquire pair always leaves the acquirer's timestamp
/// covering the releaser's, regardless of history.
#[test]
fn release_always_covers() {
    cases("release_always_covers", 64, |g| {
        let ops = g.vec(1..40, |g| (g.range(0usize..3), g.range(0usize..3), g.range(0usize..64), g.u8()));
        let n = 3usize;
        let cfg = LrcConfig::small_test(n);
        let mut engines: Vec<LrcEngine> = (0..n as u32).map(|i| LrcEngine::new(i, cfg.clone())).collect();
        for (from, to, addr_seed, val) in ops {
            let slice = cfg.region_bytes / n;
            let addr = from * slice + (addr_seed % slice);
            resolve_write(&mut engines, from, addr, &[val]);
            if from != to {
                sync_release(&mut engines, from, to);
                let vt_from = engines[from].vt().clone();
                assert!(engines[to].vt().dominates(&vt_from));
            }
        }
    });
}

/// Pinned sizes on typed data. A rewritten page of small `u32`s agrees
/// with its twin in every element's top byte: byte-granular runs break
/// there 2 048 times and ship the page at 2.7 times its size; word runs
/// ship it once. Perturbed `f64`s agree in sign, exponent and the top of
/// the mantissa.
#[test]
fn typed_pages_encode_near_their_size() {
    let (twin, cur) = typed_u32_pages();
    let d = Diff::create(&twin, &cur);
    assert_eq!((d.runs().count(), d.wire_len()), (1, 8203));
    let bytewise = byte_runs(&twin, &cur);
    assert_eq!((bytewise.len(), wire_len(&bytewise)), (2055, 22067));

    let (twin, cur) = typed_f64_pages();
    let d = Diff::create(&twin, &cur);
    assert!(d.wire_len() <= 8400, "{} B in {} runs", d.wire_len(), d.runs().count());
    let bytewise = byte_runs(&twin, &cur);
    assert_eq!((bytewise.len(), wire_len(&bytewise)), (1038, 13411));
}

/// The region table rejects every non-power-of-two granule (and the
/// power-of-two ones below the 8-byte floor), whatever the rest of the
/// spec looks like — hints can degrade a run but never mis-map addresses.
mod granule_validation {
    use super::*;
    use carlos_lrc::region::{GranuleMap, RegionSpec};

    #[test]
    fn non_pow2_granules_are_rejected() {
        cases("non_pow2_granules_are_rejected", 64, |g| {
            let (raw, len) = (g.range(8usize..100_000), g.range(1usize..4096));
            // Nudge powers of two off by one; n and n+1 are never both
            // powers of two for n >= 8.
            let granule = if raw.is_power_of_two() { raw + 1 } else { raw };
            let spec = RegionSpec::new(0, len, granule);
            let r = GranuleMap::try_new(1 << 20, 8192, &[spec]);
            assert!(r.is_err(), "granule {granule} must be rejected");
        });
    }

    #[test]
    fn sub_floor_granules_are_rejected() {
        cases("sub_floor_granules_are_rejected", 64, |g| {
            let (shift, len) = (g.range(0u32..3), g.range(1usize..4096));
            // Powers of two below the 8-byte floor (1, 2, 4) are invalid too.
            let spec = RegionSpec::new(0, len, 1usize << shift);
            assert!(GranuleMap::try_new(1 << 20, 8192, &[spec]).is_err());
        });
    }

    #[test]
    fn pow2_granules_are_accepted() {
        cases("pow2_granules_are_accepted", 64, |g| {
            let (shift, len) = (g.range(3u32..17), g.range(1usize..4096));
            let granule = 1usize << shift;
            let spec = RegionSpec::new(0, len, granule);
            let m = GranuleMap::try_new(1 << 20, 8192, &[spec]).expect("a power-of-two granule");
            assert!(m.hinted() || granule == 8192);
            assert_eq!(m.granule_len(0), granule);
        });
    }
}

/// The dense interval log against the ordered map it replaced, keyed by
/// `(creator, index)`: the same random per-creator appends, re-inserts of
/// held indices and collections, then every query compared for any
/// `have` / `through` clocks — same records, same order.
mod interval_scan_equivalence {
    use std::collections::BTreeMap;

    use super::*;
    use carlos_lrc::interval::{IntervalRecord, IntervalStore, Records};

    const NODES: u32 = 6;

    fn rec(node: u32, index: u32, tag: u32) -> IntervalRecord {
        let mut vc = Vc::new(NODES as usize);
        vc.set(node, index);
        IntervalRecord { node, index, vc, pages: vec![tag] }
    }

    /// The map's answer: its records in key order, filtered.
    fn scan(
        map: &BTreeMap<(u32, u32), IntervalRecord>,
        keep: impl Fn(&IntervalRecord) -> bool,
    ) -> Records {
        map.values().filter(|r| keep(r)).cloned().collect()
    }

    fn clock(g: &mut Gen) -> Vc {
        Vc::from_slice(&[(); NODES as usize].map(|()| g.range(0u32..40)))
    }

    #[test]
    fn range_scan_matches_linear_scan() {
        cases("range_scan_matches_linear_scan", 64, |g| {
            let ops = g.vec(0..160, |g| (g.range(0u8..8), g.range(0..NODES), g.u32()));
            let (have, through) = (clock(g), clock(g));
            let mut store = IntervalStore::new();
            let mut map: BTreeMap<(u32, u32), IntervalRecord> = BTreeMap::new();
            let mut next = [1u32; NODES as usize];
            for (kind, node, tag) in ops {
                match kind {
                    // A held index again, other contents: the first record stays.
                    0 | 1 => {
                        let held: Vec<u32> =
                            map.keys().filter(|k| k.0 == node).map(|k| k.1).collect();
                        if !held.is_empty() {
                            let r = rec(node, held[tag as usize % held.len()], tag);
                            store.insert(r.as_interval());
                            map.entry((node, r.index)).or_insert(r);
                        }
                    }
                    2 => {
                        store.clear();
                        map.clear();
                    }
                    _ => {
                        let r = rec(node, next[node as usize], tag);
                        next[node as usize] += 1;
                        store.insert(r.as_interval());
                        map.insert((node, r.index), r);
                    }
                }
            }
            assert_eq!(store.len(), map.len());
            assert_eq!(store.is_empty(), map.is_empty());
            for q in 0..NODES {
                assert_eq!(store.next_index(q), next[q as usize]);
                for i in 0..next[q as usize] + 2 {
                    assert_eq!(
                        store.get(q, i),
                        map.get(&(q, i)).map(IntervalRecord::as_interval)
                    );
                }
                let (lo, hi) = (have.get(q), through.get(q));
                assert_eq!(
                    store
                        .range(q, lo, hi)
                        .map(IntervalRecord::from)
                        .collect::<Records>(),
                    scan(&map, |r| r.node == q && (lo..=hi).contains(&r.index))
                );
                assert_eq!(
                    store.own_newer_than(q, &have),
                    scan(&map, |r| r.node == q && r.index > have.get(q))
                );
            }
            assert_eq!(store.newer_than(&have), scan(&map, |r| r.index > have.get(r.node)));
            assert_eq!(
                store.newer_than_bounded(&have, &through),
                scan(&map, |r| r.index > have.get(r.node) && r.index <= through.get(r.node))
            );
        });
    }
}

/// The sparse page table against a dense reference: the engine as it was
/// when every granule of every node held a full entry from construction.
/// Random operation sequences must leave every observable — page states,
/// bytes read, demands, interval and diff records, served pages, stats —
/// identical. The model lives here only; `src/` has no dense path.
mod sparse_table_equivalence {
    use std::collections::{BTreeMap, BTreeSet};

    use super::*;
    use carlos_lrc::engine::EngineStats;
    use carlos_lrc::interval::IntervalStore;
    use carlos_lrc::{DiffRecord, GranuleMap, IntervalRecord, PageOwnership, PageState, Records, RegionSpec};

    struct DenseMeta {
        state: PageState,
        data: Vec<u8>,
        twin: Option<Vec<u8>>,
        applied: Vc,
        max_notice: Vc,
    }

    impl DenseMeta {
        fn up_to_date(&self) -> bool {
            self.applied.dominates(&self.max_notice)
        }

        fn valid_state(&self) -> PageState {
            if self.twin.is_some() {
                PageState::ReadWrite
            } else {
                PageState::ReadOnly
            }
        }
    }

    struct DenseEngine {
        node: u32,
        cfg: LrcConfig,
        vt: Vc,
        pages: Vec<DenseMeta>,
        dirty: BTreeSet<u32>,
        intervals: IntervalStore,
        diffs: BTreeMap<(u32, u32), Vec<DiffRecord>>,
        granules: GranuleMap,
        eager_invalid: Vec<u32>,
        stats: EngineStats,
    }

    impl DenseEngine {
        fn new(node: u32, cfg: LrcConfig) -> Self {
            let granules = GranuleMap::new(cfg.region_bytes, cfg.page_size, &cfg.regions);
            let mut e = Self {
                node,
                vt: Vc::new(cfg.n_nodes),
                pages: Vec::new(),
                dirty: BTreeSet::new(),
                intervals: IntervalStore::new(),
                diffs: BTreeMap::new(),
                granules,
                eager_invalid: Vec::new(),
                stats: EngineStats::default(),
                cfg,
            };
            for p in 0..e.granules.n_granules() as u32 {
                let owned = e.owner_of(p) == node;
                e.pages.push(DenseMeta {
                    state: if owned { PageState::ReadOnly } else { PageState::Missing },
                    data: if owned { vec![0; e.granules.granule_len(p)] } else { Vec::new() },
                    twin: None,
                    applied: Vc::new(e.cfg.n_nodes),
                    max_notice: Vc::new(e.cfg.n_nodes),
                });
            }
            e
        }

        /// Straight from the specs: the region holding the granule's first
        /// byte decides, then the policy.
        fn owner_of(&self, page: u32) -> u32 {
            let base = self.granules.granule_base(page);
            let region = self.cfg.regions.iter().find(|r| (r.start..r.start + r.len).contains(&base));
            if let Some(home) = region.and_then(|r| r.home) {
                return home;
            }
            match self.cfg.ownership {
                PageOwnership::SingleOwner(n) => n,
                PageOwnership::Banded => {
                    let n = self.cfg.n_nodes as u64;
                    (u64::from(page) * n / self.granules.n_granules() as u64).min(n - 1) as u32
                }
            }
        }

        fn read(&mut self, addr: usize, buf: &mut [u8]) -> Result<(), Vec<Demand>> {
            let mut done = 0;
            while done < buf.len() {
                let (page, off, glen) = self.granules.locate(addr + done);
                if let Err(d) = self.ensure_readable(page) {
                    return Err(self.batched(d, addr + done + glen - off, addr + buf.len()));
                }
                let n = (glen - off).min(buf.len() - done);
                buf[done..done + n].copy_from_slice(&self.pages[page as usize].data[off..off + n]);
                done += n;
            }
            Ok(())
        }

        fn write(&mut self, addr: usize, data: &[u8]) -> Result<(), Vec<Demand>> {
            let mut done = 0;
            while done < data.len() {
                let (page, off, glen) = self.granules.locate(addr + done);
                if let Err(d) = self.ensure_readable(page) {
                    return Err(self.batched(d, addr + done + glen - off, addr + data.len()));
                }
                let meta = &mut self.pages[page as usize];
                if meta.state == PageState::ReadOnly {
                    meta.twin = Some(meta.data.clone());
                    meta.state = PageState::ReadWrite;
                    self.dirty.insert(page);
                    self.stats.write_faults += 1;
                }
                let n = (glen - off).min(data.len() - done);
                meta.data[off..off + n].copy_from_slice(&data[done..done + n]);
                done += n;
            }
            Ok(())
        }

        fn batched(&self, mut demands: Vec<Demand>, from: usize, end: usize) -> Vec<Demand> {
            let mut a = from;
            while self.granules.hinted() && a < end {
                let (page, _, glen) = self.granules.locate(a);
                demands.extend(self.fault_demands(page));
                a += glen;
            }
            demands
        }

        fn ensure_readable(&mut self, page: u32) -> Result<(), Vec<Demand>> {
            if matches!(self.pages[page as usize].state, PageState::ReadOnly | PageState::ReadWrite) {
                return Ok(());
            }
            let demands = self.fault_demands(page);
            if demands.is_empty() {
                let meta = &mut self.pages[page as usize];
                meta.state = meta.valid_state();
                Ok(())
            } else {
                self.stats.remote_faults += 1;
                Err(demands)
            }
        }

        fn fault_demands(&self, page: u32) -> Vec<Demand> {
            let meta = &self.pages[page as usize];
            match meta.state {
                PageState::Missing => vec![Demand::Page { to: self.owner_of(page), page }],
                PageState::Invalid => meta
                    .applied
                    .iter()
                    .filter(|&(q, have)| q != self.node && meta.max_notice.get(q) > have)
                    .map(|(q, have)| Demand::Diffs {
                        to: q,
                        page,
                        after: have,
                        through: meta.max_notice.get(q),
                    })
                    .collect(),
                PageState::ReadOnly | PageState::ReadWrite => Vec::new(),
            }
        }

        fn close_interval(&mut self) -> Option<IntervalRecord> {
            if self.dirty.is_empty() {
                return None;
            }
            let idx = self.vt.bump(self.node);
            let pages: Vec<u32> = std::mem::take(&mut self.dirty).into_iter().collect();
            for &p in &pages {
                let meta = &mut self.pages[p as usize];
                meta.max_notice.set(self.node, idx);
                meta.applied.set(self.node, idx);
                let twin = meta.twin.take().expect("dirty page has a twin");
                let diff = Diff::create(&twin, &meta.data);
                meta.state = if meta.up_to_date() { PageState::ReadOnly } else { PageState::Invalid };
                self.diffs.entry((self.node, p)).or_default().push(DiffRecord {
                    node: self.node,
                    page: p,
                    first: idx,
                    last: idx,
                    vc: self.vt.clone(),
                    diff,
                });
                self.stats.diffs_created += 1;
            }
            let rec = IntervalRecord { node: self.node, index: idx, vc: self.vt.clone(), pages };
            self.intervals.insert(rec.as_interval());
            self.stats.intervals_created += 1;
            Some(rec)
        }

        fn apply_records(&mut self, records: &Records) -> usize {
            let mut applied = 0;
            for rec in records.iter() {
                if rec.creator == self.node || rec.index != self.vt.get(rec.creator) + 1 {
                    continue;
                }
                self.vt.set(rec.creator, rec.index);
                for &p in rec.pages {
                    self.stats.notices_applied += 1;
                    let meta = &mut self.pages[p as usize];
                    let covered = rec.index <= meta.applied.get(rec.creator);
                    let cur = meta.max_notice.get(rec.creator);
                    meta.max_notice.set(rec.creator, cur.max(rec.index));
                    if !covered && meta.state != PageState::Missing {
                        meta.state = PageState::Invalid;
                        if self.granules.eager_granule(p) {
                            self.eager_invalid.push(p);
                        }
                    }
                }
                self.intervals.insert(rec);
                applied += 1;
            }
            applied
        }

        fn take_eager_invalid(&mut self) -> Vec<u32> {
            let mut pages = std::mem::take(&mut self.eager_invalid);
            pages.sort_unstable();
            pages.dedup();
            pages.retain(|&p| self.pages[p as usize].state == PageState::Invalid);
            pages
        }

        fn covers_with_claims(&self, page: u32) -> bool {
            let meta = &self.pages[page as usize];
            meta.applied.iter().filter(|&(q, _)| q != self.node).all(|(q, have)| {
                (have + 1..=meta.max_notice.get(q))
                    .all(|i| self.intervals.get(q, i).is_some_and(|r| !r.pages.contains(&page)))
            })
        }

        fn serve_diffs(&self, page: u32, after: u32, through: u32) -> Vec<DiffRecord> {
            self.diffs.get(&(self.node, page)).map_or_else(Vec::new, |recs| {
                recs.iter().filter(|r| r.last > after && r.first <= through).cloned().collect()
            })
        }

        fn apply_diff_records(&mut self, page: u32, mut records: Vec<DiffRecord>) {
            records.sort_by_key(|r| r.view().causal_key());
            let meta = &mut self.pages[page as usize];
            assert!(meta.state != PageState::Missing);
            for rec in records {
                if rec.last <= meta.applied.get(rec.node) {
                    continue;
                }
                rec.diff.apply(&mut meta.data);
                if let Some(twin) = &mut meta.twin {
                    rec.diff.apply(twin);
                }
                meta.applied.set(rec.node, rec.last);
                let cur = meta.max_notice.get(rec.node);
                meta.max_notice.set(rec.node, cur.max(rec.last));
                self.stats.diffs_applied += 1;
                self.diffs.entry((rec.node, page)).or_default().push(rec);
            }
            if meta.state == PageState::Invalid && meta.up_to_date() {
                meta.state = meta.valid_state();
            }
        }

        fn serve_page(&self, page: u32) -> (Vec<u8>, Vc) {
            let meta = &self.pages[page as usize];
            assert!(meta.state != PageState::Missing);
            (meta.data.clone(), meta.applied.clone())
        }

        fn install_page(&mut self, page: u32, data: Vec<u8>, applied: Vc) -> bool {
            let meta = &mut self.pages[page as usize];
            if meta.state != PageState::Missing && !applied.dominates(&meta.applied) {
                return false;
            }
            if let Some(twin) = meta.twin.take() {
                let own = Diff::create(&twin, &meta.data);
                meta.data = data.clone();
                own.apply(&mut meta.data);
                meta.twin = Some(data);
            } else {
                meta.data = data;
            }
            meta.applied.join(&applied);
            meta.max_notice.join(&applied);
            meta.state = if meta.up_to_date() { meta.valid_state() } else { PageState::Invalid };
            self.stats.pages_installed += 1;
            true
        }

        fn gc_validate_demands(&self) -> Vec<Demand> {
            (0..self.pages.len() as u32)
                .filter(|&p| self.pages[p as usize].state == PageState::Invalid)
                .flat_map(|p| self.fault_demands(p))
                .collect()
        }

        fn gc_discard(&mut self) {
            for meta in &mut self.pages {
                let clocks = match meta.state {
                    PageState::Invalid => panic!("gc_discard with an invalid page"),
                    PageState::Missing => Vc::new(self.cfg.n_nodes),
                    PageState::ReadOnly | PageState::ReadWrite => self.vt.clone(),
                };
                meta.applied = clocks.clone();
                meta.max_notice = clocks;
            }
            self.intervals.clear();
            self.diffs.clear();
            self.stats.gcs += 1;
        }
    }

    /// The engines under test beside their dense models, driven in lockstep.
    struct Pair {
        real: Vec<LrcEngine>,
        dense: Vec<DenseEngine>,
    }

    impl Pair {
        fn new(cfg: &LrcConfig) -> Self {
            let nodes = 0..cfg.n_nodes as u32;
            Self {
                real: nodes.clone().map(|i| LrcEngine::new(i, cfg.clone())).collect(),
                dense: nodes.map(|i| DenseEngine::new(i, cfg.clone())).collect(),
            }
        }

        fn check(&self) {
            for (r, d) in self.real.iter().zip(&self.dense) {
                assert_eq!(r.vt(), &d.vt);
                assert_eq!(r.stats(), d.stats);
                for p in 0..d.pages.len() as u32 {
                    let m = &d.pages[p as usize];
                    assert_eq!(r.page_state(p), m.state, "node {} page {}", d.node, p);
                    assert_eq!(r.fault_demands(p), d.fault_demands(p));
                    assert_eq!(r.covers_with_claims(p, &Diffs::new()), d.covers_with_claims(p));
                }
            }
        }

        /// Fetches what `demands` name into `node`, comparing every reply.
        fn satisfy(&mut self, node: usize, demands: &[Demand]) {
            let mut diffs: BTreeMap<u32, Vec<DiffRecord>> = BTreeMap::new();
            for d in demands {
                match *d {
                    Demand::Page { to, page } => {
                        let (data, applied) = self.real[to as usize].serve_page(page);
                        let served = self.dense[to as usize].serve_page(page);
                        assert_eq!((&data, &applied), (&served.0, &served.1));
                        let ok = self.real[node].install_page(page, data.clone(), applied.clone());
                        assert_eq!(ok, self.dense[node].install_page(page, data, applied));
                    }
                    Demand::Diffs { to, page, after, through } => {
                        let recs: Vec<DiffRecord> = self.real[to as usize]
                            .own_diffs(page, after, through)
                            .map(DiffRecord::from)
                            .collect();
                        assert_eq!(&recs, &self.dense[to as usize].serve_diffs(page, after, through));
                        diffs.entry(page).or_default().extend(recs);
                    }
                }
            }
            for (page, recs) in diffs {
                let batch: Diffs = recs.iter().map(DiffRecord::view).collect();
                self.real[node].apply_diff_records(page, &batch);
                self.dense[node].apply_diff_records(page, recs);
            }
        }

        /// One access on both sides; on a fault, optionally fetch and retry
        /// (a page then its diffs, one granule per round without hints).
        fn access(&mut self, node: usize, addr: usize, len: usize, write: Option<u8>, resolve: bool) {
            for _ in 0..64 {
                let (mut rb, mut db) = (vec![0xEE; len], vec![0xEE; len]);
                let (r, d) = match write {
                    Some(v) => (
                        self.real[node].write(addr, &vec![v; len]),
                        self.dense[node].write(addr, &vec![v; len]),
                    ),
                    None => (self.real[node].read(addr, &mut rb), self.dense[node].read(addr, &mut db)),
                };
                assert_eq!(&r, &d, "node {node} access at {addr}+{len}");
                assert_eq!(rb, db);
                match r {
                    Err(demands) if resolve => self.satisfy(node, &demands),
                    _ => return,
                }
            }
            panic!("access never became satisfiable");
        }

        fn close(&mut self, node: usize) {
            assert_eq!(self.real[node].close_interval(), self.dense[node].close_interval());
        }

        fn sync(&mut self, from: usize, to: usize) {
            let have = self.real[to].vt().clone();
            let recs = self.real[from].records_newer_than(&have);
            assert_eq!(&recs, &self.dense[from].intervals.newer_than(&have));
            let dense = self.dense[to].apply_records(&recs);
            assert_eq!(self.real[to].apply_records(&recs), dense);
            assert_eq!(self.real[to].take_eager_invalid(), self.dense[to].take_eager_invalid());
        }

        /// A whole-cluster collection: close, equalise clocks, validate,
        /// discard — the runtime's three phases.
        fn gc(&mut self) {
            let n = self.real.len();
            (0..n).for_each(|i| self.close(i));
            for _round in 0..2 {
                for a in 0..n {
                    (0..n).filter(|&b| b != a).for_each(|b| self.sync(a, b));
                }
            }
            for i in 0..n {
                let demands = self.real[i].gc_validate_demands();
                assert_eq!(&demands, &self.dense[i].gc_validate_demands());
                self.satisfy(i, &demands);
            }
            for i in 0..n {
                self.real[i].gc_discard();
                self.dense[i].gc_discard();
            }
        }
    }

    /// 1 KiB region: uniform 64 B pages (the single-shift access fast paths)
    /// or a mix of eager 16 B granules, 64 B pages and 128 B granules with
    /// a gap on both sides of the first two regions and none before the
    /// third. `homes[i]` below `n_nodes` homes region `i` there; anything
    /// else leaves it to the policy.
    fn config(n_nodes: usize, mixed: bool, banded: bool, homes: [usize; 3]) -> LrcConfig {
        let mut regions = vec![
            RegionSpec::new(0, 128, 16).eager(),
            RegionSpec::new(512, 256, 128),
            RegionSpec::new(768, 128, 64),
        ];
        for (r, home) in regions.iter_mut().zip(homes) {
            r.home = (home < n_nodes).then_some(home as u32);
        }
        LrcConfig {
            region_bytes: 1024,
            ownership: if banded { PageOwnership::Banded } else { PageOwnership::SingleOwner(0) },
            regions: if mixed { regions } else { Vec::new() },
            ..LrcConfig::small_test(n_nodes)
        }
    }

    #[test]
    fn sparse_table_matches_dense_model() {
        cases("sparse_table_matches_dense_model", 256, |g| {
            let (n, mixed, banded) = (g.range(2usize..4), g.bool(), g.bool());
            let homes = [(); 3].map(|()| g.range(0usize..5));
            let ops = g.vec(1..80, |g| {
                let (kind, node, addr) = (g.range(0usize..12), g.range(0usize..3), g.range(0usize..1024));
                (kind, node, addr, g.range(1usize..200), g.u8(), g.range(0usize..3))
            });
            let cfg = config(n, mixed, banded, homes);
            let mut pair = Pair::new(&cfg);
            for (kind, node, addr, len, val, peer) in ops {
                let (node, peer) = (node % n, peer % n);
                let len = len.min(cfg.region_bytes - addr);
                match kind {
                    0..=2 => pair.access(node, addr, len, None, kind != 0),
                    3..=5 => pair.access(node, addr, len, Some(val), kind != 3),
                    6 | 7 => pair.close(node),
                    8 | 9 if peer != node => pair.sync(node, peer),
                    10 => {
                        // Unsolicited copy from the owner: the replacement
                        // (and stale-copy refusal) side of `install_page`.
                        let page = pair.real[node].page_of(addr);
                        let to = pair.real[node].owner_of(page);
                        if to as usize != node {
                            pair.satisfy(node, &[Demand::Page { to, page }]);
                        }
                    }
                    11 => pair.gc(),
                    _ => {}
                }
                pair.check();
            }
            // Every node can still read the whole region, identically.
            for node in 0..n {
                pair.access(node, 0, cfg.region_bytes, None, true);
            }
            pair.check();
        });
    }
}
