//! The Quicksort application (§5.2).
//!
//! Sorts an array of integers in coherent shared memory. A shared work
//! stack holds subarray descriptors; when a popped subarray is below the
//! threshold the node sorts it locally, charged as the paper's Bubblesort;
//! otherwise it partitions, pushes a descriptor for the smaller half, and
//! recursively quicksorts the larger half. A final barrier collects the
//! sorted subarrays, making all nodes consistent.
//!
//! Variants, as in the paper:
//!
//! - **Lock** — the stack lives in shared memory under a lock, so its
//!   representation migrates among the nodes and every node that touches
//!   it becomes consistent with all previous manipulators.
//! - **Hybrid-1** — a non-migrating message-based work queue: "the manager
//!   node represents the queue as a list of pointers to 'enqueued'
//!   messages that have been stored. When a remote node issues a dequeue
//!   request, the stored message at the head of the queue is forwarded."
//!   Enqueues are completely asynchronous; dequeues are REQUEST/forwarded-
//!   RELEASE pairs.
//! - **Hybrid-2** — Hybrid-1 with *every* queue message marked RELEASE
//!   (the §5.2 annotation-cost contrast).
//! - **HybridNoForward** — Hybrid-1 without the forwarding mechanism (the
//!   manager accepts and re-releases); the paper found its performance
//!   nearly identical to Hybrid-2's.

use carlos_core::{Annotation, CoherentHeap, CoreConfig, Runtime};
use carlos_lrc::{LrcConfig, PageOwnership};
use carlos_sim::{time::us, SimConfig};
use carlos_sync::{
    ids::H_Q_CLOSE, BarrierSpec, LockSpec, QueueSpec,
};
use carlos_util::rng::Xoshiro256;

use crate::harness::{observed_cluster, AppReport, Collector};

const H_LEAF_DONE: u32 = 0x0210;
const QUEUE_ID: u32 = 1;

/// Which Quicksort program to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QsortVariant {
    /// Shared-memory work stack under a lock.
    Lock,
    /// Message-based queue with store-and-forward and correct annotations.
    Hybrid1,
    /// Hybrid-1 with all queue messages marked RELEASE.
    Hybrid2,
    /// Hybrid-1 with the manager accepting instead of forwarding.
    HybridNoForward,
}

/// Configuration for one Quicksort run.
#[derive(Debug, Clone)]
pub struct QsortConfig {
    /// Cluster size.
    pub n_nodes: usize,
    /// Elements to sort (256 K in the paper).
    pub n_elements: usize,
    /// Subarrays at or below this size are Bubblesorted locally (1 K).
    pub threshold: usize,
    /// Workload seed (initial shuffle).
    pub seed: u64,
    /// Program variant.
    pub variant: QsortVariant,
    /// Virtual nanoseconds per Bubblesort inner step (charged as k²/2).
    pub ns_per_bubble_step: u64,
    /// Virtual nanoseconds per partition element.
    pub ns_per_partition_elem: u64,
    /// Network/cost model.
    pub sim: SimConfig,
    /// CarlOS cost model; its `variable_granularity` also selects the
    /// fine-granule layout of the shared data.
    pub core: CoreConfig,
    /// DSM page size.
    pub page_size: usize,
    /// Verify the result on every node (tests) or only on node 0 (paper
    /// runs: the master collects the sorted array once).
    pub verify_all_nodes: bool,
    /// Optional consistency oracle on the run's event stream
    /// (observer-only: virtual time is unaffected).
    pub check: Option<carlos_check::Checker>,
    /// Optional causal tracer on the run's event stream, beside the
    /// checker if both are set (observer-only: virtual time is unaffected).
    pub trace: Option<carlos_trace::Tracer>,
}

impl QsortConfig {
    /// The paper-scale workload: 256 K integers, 1 K threshold.
    #[must_use]
    pub fn paper(n_nodes: usize, variant: QsortVariant) -> Self {
        Self {
            n_elements: 256 * 1024,
            threshold: 1024,
            seed: 0x5150_1994,
            ns_per_bubble_step: 285,
            ns_per_partition_elem: 45,
            sim: SimConfig::osdi94(),
            core: CoreConfig::osdi94(),
            page_size: 8192,
            verify_all_nodes: false,
            ..Self::test(n_nodes, variant)
        }
    }

    /// A small, fast workload for tests.
    #[must_use]
    pub fn test(n_nodes: usize, variant: QsortVariant) -> Self {
        Self {
            n_nodes,
            n_elements: 4096,
            threshold: 128,
            seed: 7,
            variant,
            ns_per_bubble_step: 20,
            ns_per_partition_elem: 10,
            sim: SimConfig::fast_test(),
            core: CoreConfig::fast_test(),
            page_size: 512,
            verify_all_nodes: true,
            check: None,
            trace: None,
        }
    }
}

/// Result of a Quicksort run.
#[derive(Debug, Clone)]
pub struct QsortResult {
    /// Simulation report and derived columns.
    pub app: AppReport,
    /// Every node verified the final array is sorted.
    pub sorted: bool,
    /// Every node verified the final array is the expected permutation.
    pub permutation_ok: bool,
}

struct Layout {
    array: usize,
    stack_top: usize,
    done: usize,
    slots: usize,
    slot_cap: usize,
}

fn layout(cfg: &QsortConfig) -> (Layout, usize, Vec<carlos_lrc::RegionSpec>) {
    let ps = cfg.page_size;
    let mut heap = CoherentHeap::new(1 << 28);
    let slot_cap = 8192;
    let (stack_top, done, slots, array);
    if cfg.core.variable_granularity {
        // Fine granules for the hot small data: the stack control words
        // share one 64 B unit, and each 64 B slot granule holds eight
        // 8-byte descriptors. The array gets 1 KiB granules, so a sorter
        // fetches only the granules of its own subarray instead of whole
        // 8 KiB pages half-filled with other sorters' leaves.
        stack_top = heap.alloc_with_granule_eager(8, 64);
        done = stack_top + 4;
        slots = heap.alloc_with_granule_eager(slot_cap * 8, 64);
        array = heap.alloc_with_granule(cfg.n_elements * 4, 1024);
    } else {
        // Control variables on their own page; slots on the next; the
        // array page-aligned after that (separate sharing units).
        stack_top = heap.alloc(4, 4);
        done = heap.alloc(4, 4);
        slots = heap.alloc(ps, ps);
        let _ = heap.alloc(slot_cap * 8, 1);
        array = heap.alloc(ps, ps);
        let _ = heap.alloc(cfg.n_elements * 4, 1);
    }
    let region = heap.used().next_multiple_of(ps);
    (
        Layout {
            array,
            stack_top,
            done,
            slots,
            slot_cap,
        },
        region,
        heap.regions(),
    )
}

/// Runs the Quicksort application on a simulated cluster, returning
/// simulation failures as a [`carlos_sim::SimError`] value instead of
/// panicking.
///
/// # Errors
///
/// Returns the [`carlos_sim::SimError`] describing how the run failed.
pub fn try_run_qsort(cfg: &QsortConfig) -> Result<QsortResult, carlos_sim::SimError> {
    let checks: Collector<(bool, bool)> = Collector::new();
    let mut cluster =
        observed_cluster(&cfg.sim, cfg.n_nodes, cfg.check.as_ref(), cfg.trace.as_ref());
    for node in 0..cfg.n_nodes as u32 {
        let cfg = cfg.clone();
        let checks = checks.clone();
        cluster.spawn_node(node, move |ctx| checks.put(node, qsort_node(&cfg, ctx)));
    }
    let report = cluster.try_run()?;
    let collected = checks.take();
    Ok(QsortResult {
        app: AppReport::new(report),
        sorted: collected.iter().all(|(_, (s, _))| *s),
        permutation_ok: collected.iter().all(|(_, (_, p))| *p),
    })
}

fn qsort_node(cfg: &QsortConfig, ctx: carlos_sim::NodeCtx) -> (bool, bool) {
    let (lay, region, regions) = layout(cfg);
    let lrc = LrcConfig {
        n_nodes: cfg.n_nodes,
        page_size: cfg.page_size,
        region_bytes: region,
        gc_threshold_records: 12_000,
        ownership: PageOwnership::SingleOwner(0),
        regions,
    };
    let mut rt = Runtime::new(ctx, lrc, cfg.core.clone());
    let sys = carlos_sync::install(&mut rt);
    let barrier = BarrierSpec::global(900, 0);
    let node = rt.node_id();
    let n = cfg.n_elements;

    if node == 0 {
        // Initialize: a shuffled permutation of 0..n.
        let mut vals: Vec<u32> = (0..n as u32).collect();
        Xoshiro256::new(cfg.seed).shuffle(&mut vals);
        let bytes: Vec<u8> = vals.iter().flat_map(|v| v.to_le_bytes()).collect();
        rt.write_bytes(lay.array, &bytes);
        rt.compute(us(200_000)); // Initialization pass over the array.
    }

    match cfg.variant {
        QsortVariant::Lock => lock_variant(cfg, &mut rt, &sys, &lay),
        _ => hybrid_variant(cfg, &mut rt, &sys, &lay),
    }

    // "When the whole array has been sorted, a barrier is used to collect
    // all of the sorted subarrays, thereby making all nodes consistent."
    sys.barrier(&mut rt, barrier, 500);
    // The timed portion of the run ends here, as in the paper.
    rt.ctx().count("app.done_ns", rt.ctx().now());
    let (sorted, permutation) = if cfg.verify_all_nodes || node == 0 {
        let mut bytes = vec![0u8; n * 4];
        rt.read_bytes(lay.array, &mut bytes);
        // Read in place: a second copy of the array would be the run's
        // heap peak.
        let vals = || {
            bytes
                .chunks_exact(4)
                .map(|c| u32::from_le_bytes(c.try_into().expect("4-byte chunk")))
        };
        let sorted = vals().zip(vals().skip(1)).all(|(a, b)| a <= b);
        // The input was a permutation of 0..n, so sorted output is 0..n.
        let permutation = vals().enumerate().all(|(i, v)| v == i as u32);
        (sorted, permutation)
    } else {
        (true, true)
    };
    sys.barrier(&mut rt, barrier, 501);
    rt.shutdown();
    (sorted, permutation)
}

fn read_range(rt: &mut Runtime, lay: &Layout, lo: usize, hi: usize) -> Vec<u32> {
    let mut bytes = vec![0u8; (hi - lo) * 4];
    rt.read_bytes(lay.array + lo * 4, &mut bytes);
    bytes
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes(c.try_into().expect("4-byte chunk")))
        .collect()
}

fn write_range(rt: &mut Runtime, lay: &Layout, lo: usize, vals: &[u32]) {
    let bytes: Vec<u8> = vals.iter().flat_map(|v| v.to_le_bytes()).collect();
    rt.write_bytes(lay.array + lo * 4, &bytes);
}

/// Sorts the leaf `[lo, hi)` locally, charging what the paper's Bubblesort
/// costs: the charge depends on the leaf's length alone and the sorted leaf
/// is the only thing the O(k²) loop would leave behind, so the host does
/// not run it.
fn sort_leaf(cfg: &QsortConfig, rt: &mut Runtime, lay: &Layout, lo: usize, hi: usize) {
    let mut vals = read_range(rt, lay, lo, hi);
    let k = vals.len() as u64;
    vals.sort_unstable();
    rt.compute(cfg.ns_per_bubble_step * k * k / 2);
    write_range(rt, lay, lo, &vals);
}

/// Partitions `[lo, hi)` around its last element; returns the pivot's
/// final index. Operates through the DSM (read, partition, write back).
fn partition(cfg: &QsortConfig, rt: &mut Runtime, lay: &Layout, lo: usize, hi: usize) -> usize {
    let mut vals = read_range(rt, lay, lo, hi);
    let pivot = vals[vals.len() - 1];
    let mut store = 0usize;
    // Lomuto's swap as a select, not a branch on an unpredictable key.
    for i in 0..vals.len() - 1 {
        let (v, w) = (vals[i], vals[store]);
        let low = v <= pivot;
        vals[i] = if low { w } else { v };
        vals[store] = if low { v } else { w };
        store += usize::from(low);
    }
    let last = vals.len() - 1;
    vals.swap(store, last);
    rt.compute(cfg.ns_per_partition_elem * (hi - lo) as u64);
    write_range(rt, lay, lo, &vals);
    lo + store
}

/// Processes one descriptor: quicksort with push-smaller / recurse-larger.
/// Returns the number of elements this call placed in final position;
/// `push` receives each smaller-half descriptor.
fn sort_descriptor(
    cfg: &QsortConfig,
    rt: &mut Runtime,
    lay: &Layout,
    mut lo: usize,
    mut hi: usize,
    mut push: impl FnMut(&mut Runtime, usize, usize),
) -> u32 {
    let mut sorted_here = 0u32;
    loop {
        if hi - lo <= cfg.threshold {
            sort_leaf(cfg, rt, lay, lo, hi);
            sorted_here += (hi - lo) as u32;
            return sorted_here;
        }
        let mid = partition(cfg, rt, lay, lo, hi);
        let (small, large) = if mid - lo < hi - (mid + 1) {
            ((lo, mid), (mid + 1, hi))
        } else {
            ((mid + 1, hi), (lo, mid))
        };
        sorted_here += 1; // The pivot is finally placed.
        if small.1 > small.0 {
            push(rt, small.0, small.1);
        }
        if large.1 <= large.0 {
            return sorted_here;
        }
        lo = large.0;
        hi = large.1;
    }
}

/// The strictly-shared-memory version: stack and done-counter under a lock.
fn lock_variant(cfg: &QsortConfig, rt: &mut Runtime, sys: &carlos_sync::SyncSystem, lay: &Layout) {
    let slock = LockSpec::new(1, 0);
    let barrier = BarrierSpec::global(900, 0);
    let node = rt.node_id();
    let n = cfg.n_elements as u32;

    if node == 0 {
        rt.write_u32(lay.slots, 0);
        rt.write_u32(lay.slots + 4, n);
        rt.write_u32(lay.stack_top, 1);
        rt.write_u32(lay.done, 0);
    }
    sys.barrier(rt, barrier, 400);

    loop {
        sys.acquire(rt, slock);
        let top = rt.read_u32(lay.stack_top);
        let desc = if top > 0 {
            let addr = lay.slots + (top as usize - 1) * 8;
            let lo = rt.read_u32(addr);
            let hi = rt.read_u32(addr + 4);
            rt.write_u32(lay.stack_top, top - 1);
            Some((lo as usize, hi as usize))
        } else {
            None
        };
        let done = rt.read_u32(lay.done);
        sys.release(rt, slock);

        let Some((lo, hi)) = desc else {
            if done >= n {
                break;
            }
            rt.sleep(us(300));
            continue;
        };

        let sorted_here = sort_descriptor(cfg, rt, lay, lo, hi, |rt, slo, shi| {
            sys.acquire(rt, slock);
            let top = rt.read_u32(lay.stack_top);
            assert!((top as usize) < lay.slot_cap, "work stack overflow");
            let addr = lay.slots + top as usize * 8;
            rt.write_u32(addr, slo as u32);
            rt.write_u32(addr + 4, shi as u32);
            rt.write_u32(lay.stack_top, top + 1);
            sys.release(rt, slock);
        });
        if sorted_here > 0 {
            sys.acquire(rt, slock);
            let d = rt.read_u32(lay.done);
            rt.write_u32(lay.done, d + sorted_here);
            sys.release(rt, slock);
        }
    }
}

/// The hybrid versions: a message-based, non-migrating work queue with a
/// message-based completion count.
fn hybrid_variant(cfg: &QsortConfig, rt: &mut Runtime, sys: &carlos_sync::SyncSystem, lay: &Layout) {
    let barrier = BarrierSpec::global(900, 0);
    let node = rt.node_id();
    let n = cfg.n_elements as u32;
    let mut q = QueueSpec::lifo(QUEUE_ID, 0);
    match cfg.variant {
        QsortVariant::Hybrid1 => {}
        QsortVariant::Hybrid2 => q = q.all_release(),
        QsortVariant::HybridNoForward => q = q.accepting(),
        QsortVariant::Lock => unreachable!("dispatched in qsort_node"),
    }

    // The manager tallies completions through NONE messages (pure process
    // coordination, no consistency interaction) and closes the queue when
    // the whole array is sorted. The handler touches only local state and
    // triggers the close with a loopback message.
    if node == 0 {
        let mut total = 0u32;
        rt.register(
            H_LEAF_DONE,
            Box::new(move |env, msg| {
                let k = u32::from_le_bytes(msg.body.as_slice().try_into().expect("leaf size"));
                env.discard(msg);
                total += k;
                if total >= n {
                    // Everything is sorted: close the queue so parked and
                    // future dequeues return empty.
                    env.send(
                        env.node_id(),
                        H_Q_CLOSE,
                        close_body(QUEUE_ID),
                        Annotation::None,
                    );
                }
            }),
        );
    }
    sys.barrier(rt, barrier, 400);

    if node == 0 {
        sys.enqueue(rt, q, &desc_bytes(0, n));
    }

    while let Some(item) = sys.dequeue(rt, q) {
        let (lo, hi) = desc_parse(&item);
        let sorted_here = sort_descriptor(cfg, rt, lay, lo, hi, |rt, slo, shi| {
            // "Enqueue operations are completely asynchronous."
            sys.enqueue(rt, q, &desc_bytes(slo as u32, shi as u32));
        });
        if sorted_here > 0 {
            rt.send(
                0,
                H_LEAF_DONE,
                sorted_here.to_le_bytes().to_vec(),
                Annotation::None,
            );
        }
    }
}

fn close_body(qid: u32) -> Vec<u8> {
    qid.to_le_bytes().to_vec()
}

fn desc_bytes(lo: u32, hi: u32) -> [u8; 8] {
    let mut b = [0u8; 8];
    b[..4].copy_from_slice(&lo.to_le_bytes());
    b[4..].copy_from_slice(&hi.to_le_bytes());
    b
}

fn desc_parse(b: &[u8]) -> (usize, usize) {
    let lo = u32::from_le_bytes(b[..4].try_into().expect("descriptor lo"));
    let hi = u32::from_le_bytes(b[4..8].try_into().expect("descriptor hi"));
    (lo as usize, hi as usize)
}
