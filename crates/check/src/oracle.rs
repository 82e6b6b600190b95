//! Shadow-memory consistency oracle.
//!
//! The oracle keeps a per-word history of writes (the word is the model's
//! sharing unit, [`carlos_lrc::WORD`] bytes: the diffs it checks carry whole
//! words, so this is also the finest sharing they support), each tagged with
//! the writer's node, the interval the write belongs to, and the vector
//! timestamp of that interval. From this history it decides, for every
//! observed read, which write the reader is *entitled* to see under lazy
//! release consistency, and flags:
//!
//! - **write/write races** — two writes to the same word from different
//!   nodes whose intervals are concurrent (no release/acquire chain orders
//!   them);
//! - **read/write races** — a read of a word for which some other node's
//!   write is not covered by the reader's timestamp (the write neither
//!   happened-before the read nor after it);
//! - **stale reads** — the word is data-race-free, a unique most-recent
//!   covered write exists, and the value returned differs from it (a
//!   protocol bug: an established acquire failed to invalidate or a diff
//!   was lost);
//! - **unknown values** — a nonzero value read from a word no observed
//!   write ever produced (shared regions are zero-initialized).
//!
//! A write at node `p` whose engine timestamp is `vt` belongs to the still
//! open interval `vt[p] + 1`; its timestamp is `vt` with the own component
//! bumped. A read at node `r` with timestamp `vt_r` covers a write `(p, i)`
//! iff `p == r` (program order) or `vt_r[p] >= i` (the interval record was
//! applied before the read). Because the simulator serializes observation
//! in virtual-time order and messages take nonzero time, a write observed
//! *after* a read can never happen-before it — so coverage alone decides
//! the race verdict.

use std::{
    collections::{BTreeSet, HashMap},
    hash::{BuildHasherDefault, Hasher},
};

use carlos_lrc::{Vc, WORD};

use crate::{Violation, ViolationKind};

/// One recorded write to a word.
struct WriteRec {
    node: u32,
    interval: u32,
    vc: Vc,
    /// The bytes the word held after this write, if the write covered the
    /// word entirely; `None` for partial (sub-word) writes.
    value: Option<[u8; WORD]>,
}

/// Hashes a word index with one multiply (Fibonacci hashing). Every read
/// and write of a checked run looks up each word it touches, and SipHash
/// took over a quarter of a checked Quicksort run; the map is never
/// iterated, so its order cannot reach a verdict.
#[derive(Default)]
struct WordHasher(u64);

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0 << 8 | u64::from(b);
        }
    }

    fn write_usize(&mut self, w: usize) {
        self.0 = w as u64;
    }

    fn finish(&self) -> u64 {
        self.0.wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }
}

/// Per-word write history plus the racy-by-design allowlist.
pub(crate) struct Oracle {
    n_nodes: usize,
    words: HashMap<usize, Vec<WriteRec>, BuildHasherDefault<WordHasher>>,
    allow: BTreeSet<usize>,
    /// Scratch for [`Oracle::on_read`]: the index of each writer's newest
    /// write to the word being checked, reused so a read allocates nothing.
    newest: Vec<usize>,
}

impl Oracle {
    pub(crate) fn new(n_nodes: usize) -> Self {
        Self {
            n_nodes,
            words: HashMap::default(),
            allow: BTreeSet::new(),
            newest: Vec::new(),
        }
    }

    /// Exempt every word overlapping `[addr, addr + len)` from read-side
    /// checks (read/write race, stale, unknown). Write/write races on these
    /// words are still reported.
    pub(crate) fn allow_racy(&mut self, addr: usize, len: usize) {
        if len == 0 {
            return;
        }
        for w in addr / WORD..=(addr + len - 1) / WORD {
            self.allow.insert(w);
        }
    }

    /// Record a write and check it against the existing history.
    pub(crate) fn on_write(
        &mut self,
        node: u32,
        addr: usize,
        data: &[u8],
        vt: &[u32],
        node_vt: &[Vc],
    ) -> Vec<(String, Violation)> {
        if data.is_empty() {
            return Vec::new();
        }
        let mut out = Vec::new();
        let interval = vt[node as usize] + 1;
        let mut vc_w = Vc::from_slice(vt);
        vc_w.bump(node);
        // Pruning floor: every interval of `node` at or below `cover` has
        // been applied by the whole cluster, so only the newest such entry
        // can still be the legal value for any reader.
        let cover = (0..self.n_nodes)
            .map(|q| node_vt[q].get(node))
            .min()
            .unwrap_or(0);
        for w in addr / WORD..=(addr + data.len() - 1) / WORD {
            let ws = w * WORD;
            let value: Option<[u8; WORD]> = if addr <= ws && ws + WORD <= addr + data.len() {
                Some(data[ws - addr..ws - addr + WORD].try_into().unwrap())
            } else {
                None
            };
            let entries = self.words.entry(w).or_default();
            for e in entries.iter() {
                if e.node != node && vc_w.get(e.node) < e.interval {
                    out.push((
                        format!("ww:{w}:{}:{}:{node}:{interval}", e.node, e.interval),
                        Violation {
                            kind: ViolationKind::WriteWriteRace,
                            node,
                            interval,
                            addr: ws,
                            detail: format!(
                                "concurrent with write by node {} interval {}",
                                e.node, e.interval
                            ),
                        },
                    ));
                }
            }
            if let Some(e) = entries
                .iter_mut()
                .find(|e| e.node == node && e.interval == interval)
            {
                // Later write in the same interval: last value wins; a
                // partial overwrite makes the word's final bytes unknown.
                e.value = value;
            } else {
                entries.push(WriteRec {
                    node,
                    interval,
                    vc: vc_w.clone(),
                    value,
                });
                if cover > 0 {
                    if let Some(base) = entries
                        .iter()
                        .filter(|e| e.node == node && e.interval <= cover)
                        .map(|e| e.interval)
                        .max()
                    {
                        entries.retain(|e| e.node != node || e.interval >= base);
                    }
                }
            }
        }
        out
    }

    /// Check a read's race status and, where the word is race-free, the
    /// legality of the returned value.
    pub(crate) fn on_read(
        &mut self,
        node: u32,
        addr: usize,
        data: &[u8],
        vt: &[u32],
    ) -> Vec<(String, Violation)> {
        if data.is_empty() {
            return Vec::new();
        }
        let mut out = Vec::new();
        let interval = vt[node as usize] + 1;
        for w in addr / WORD..=(addr + data.len() - 1) / WORD {
            if self.allow.contains(&w) {
                continue;
            }
            let ws = w * WORD;
            // Value checks apply only to words the read covers entirely.
            let got: Option<&[u8]> = if addr <= ws && ws + WORD <= addr + data.len() {
                Some(&data[ws - addr..ws - addr + WORD])
            } else {
                None
            };
            let Some(entries) = self.words.get(&w) else {
                if let Some(g) = got {
                    if g != [0u8; WORD] {
                        out.push((
                            format!("unk:{w}:{node}"),
                            Violation {
                                kind: ViolationKind::UnknownValue,
                                node,
                                interval,
                                addr: ws,
                                detail: format!(
                                    "read {g:02x?} from a word never written \
                                     (shared memory is zero-initialized)"
                                ),
                            },
                        ));
                    }
                }
                continue;
            };
            if let Some(e) = entries
                .iter()
                .find(|e| e.node != node && vt[e.node as usize] < e.interval)
            {
                out.push((
                    format!("rw:{w}:{}:{}:{node}", e.node, e.interval),
                    Violation {
                        kind: ViolationKind::ReadWriteRace,
                        node,
                        interval,
                        addr: ws,
                        detail: format!(
                            "read races with uncovered write by node {} interval {}",
                            e.node, e.interval
                        ),
                    },
                ));
                continue; // racy word: any value is excused
            }
            let Some(g) = got else { continue };
            // All writes to this word are covered. The legal value is the
            // unique maximal write under happened-before, if one exists: of
            // each writer's newest write, the one no other writer's newest
            // write covers.
            let newest = &mut self.newest;
            newest.clear();
            for (i, e) in entries.iter().enumerate() {
                match newest.iter_mut().find(|j| entries[**j].node == e.node) {
                    Some(j) if e.interval > entries[*j].interval => *j = i,
                    Some(_) => {}
                    None => newest.push(i),
                }
            }
            let mut maximal = newest.iter().map(|&i| &entries[i]).filter(|a| {
                !newest.iter().any(|&j| {
                    let b = &entries[j];
                    b.node != a.node && b.vc.get(a.node) >= a.interval
                })
            });
            if let (Some(m), None) = (maximal.next(), maximal.next()) {
                if let Some(v) = m.value.filter(|v| g != v) {
                    out.push((
                        format!("stale:{w}:{node}"),
                        Violation {
                            kind: ViolationKind::StaleRead,
                            node,
                            interval,
                            addr: ws,
                            detail: format!(
                                "read {g:02x?} but the covering write by node {} \
                                 interval {} stored {v:02x?}",
                                m.node, m.interval
                            ),
                        },
                    ));
                }
            }
            // Multiple maximal covered writes means the writes themselves
            // raced; that was reported at write time, so any of their
            // values is accepted here.
        }
        out
    }
}
