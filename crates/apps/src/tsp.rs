//! The Traveling Salesman Problem application (§5.1).
//!
//! Branch-and-bound search for the shortest tour. Two versions, as in the
//! paper:
//!
//! - **Lock** — a "strictly shared memory" program: a work queue of partial
//!   tours lives in coherent shared memory, protected by a lock, so its
//!   representation migrates among all nodes that touch it. Workers pop a
//!   partial tour; short tours are expanded and the children pushed back
//!   (all under the queue lock); full-depth prefixes are solved
//!   exhaustively. A second lock protects updates of the current bound
//!   ("best tour"); reads of the bound are unsynchronized, as the paper
//!   notes is safe for a single-word value.
//! - **Hybrid** — the work queue becomes a centralized message-based queue
//!   whose manager *generates* the queued tours itself and participates in
//!   the search. Clients request a tour index with a REQUEST message and
//!   receive the descriptor in a RELEASE reply; tour descriptors stay in
//!   coherent shared memory; improved bounds are posted to the master in a
//!   REQUEST, which writes the value to shared memory and answers with a
//!   RELEASE. "Message-passing is used only to implement the shared work
//!   queue." (§5.1)

use carlos_core::{Annotation, CoherentHeap, CoreConfig, Runtime};
use carlos_lrc::{LrcConfig, PageOwnership};
use carlos_sim::{time::us, SimConfig};
use carlos_sync::{BarrierSpec, LockSpec, QueueSpec};
use carlos_util::rng::Xoshiro256;

use crate::harness::{observed_cluster, AppReport, Collector};

/// User handler ids (outside the `carlos-sync` reserved range).
const H_BOUND_POST: u32 = 0x0200;
const H_BOUND_ACK: u32 = 0x0201;
const H_WORKER_DONE: u32 = 0x0202;

/// Which program variant to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TspVariant {
    /// Shared-memory work queue and bound, synchronized with locks.
    Lock,
    /// Message-based work queue and bound posting.
    Hybrid,
    /// Hybrid with its REQUEST sends marked RELEASE (the §5.4 annotation
    /// experiment): the queue's dequeue requests and the bound posts. Not
    /// every message becomes RELEASE: the 2n NONE sends stay NONE (the
    /// queue's close command and empty replies, and the workers' done
    /// reports), and the barriers keep their own annotations.
    HybridAllRelease,
}

/// Configuration for one TSP run.
#[derive(Debug, Clone)]
pub struct TspConfig {
    /// Cluster size.
    pub n_nodes: usize,
    /// Number of cities (19 in the paper).
    pub n_cities: usize,
    /// Partial tours are expanded until this many cities are fixed; then a
    /// prefix is solved exhaustively by one worker.
    pub leaf_depth: usize,
    /// Workload seed (city coordinates).
    pub seed: u64,
    /// Program variant.
    pub variant: TspVariant,
    /// Virtual nanoseconds charged per branch-and-bound tree expansion
    /// (calibrates single-node time to the paper's testbed).
    pub ns_per_expansion: u64,
    /// Expansions between local-bound refreshes / compute charges.
    pub refresh_every: u32,
    /// Network/cost model.
    pub sim: SimConfig,
    /// CarlOS cost model; its `variable_granularity` also selects the
    /// fine-granule layout of the shared data.
    pub core: CoreConfig,
    /// DSM page size.
    pub page_size: usize,
    /// Optional consistency oracle on the run's event stream
    /// (observer-only: virtual time is unaffected).
    pub check: Option<carlos_check::Checker>,
    /// Optional causal tracer on the run's event stream, beside the
    /// checker if both are set (observer-only: virtual time is unaffected).
    pub trace: Option<carlos_trace::Tracer>,
}

impl TspConfig {
    /// The paper-scale workload: 19 cities.
    #[must_use]
    pub fn paper(n_nodes: usize, variant: TspVariant) -> Self {
        Self {
            n_cities: 19,
            leaf_depth: 4,
            seed: 0x7597_1994,
            ns_per_expansion: 2_550,
            refresh_every: 4_096,
            sim: SimConfig::osdi94(),
            core: CoreConfig::osdi94(),
            page_size: 8192,
            ..Self::test(n_nodes, variant)
        }
    }

    /// A small, fast workload for tests.
    #[must_use]
    pub fn test(n_nodes: usize, variant: TspVariant) -> Self {
        Self {
            n_nodes,
            n_cities: 10,
            leaf_depth: 3,
            seed: 42,
            variant,
            ns_per_expansion: 500,
            refresh_every: 256,
            sim: SimConfig::fast_test(),
            core: CoreConfig::fast_test(),
            page_size: 512,
            check: None,
            trace: None,
        }
    }
}

/// Result of a TSP run.
#[derive(Debug, Clone)]
pub struct TspResult {
    /// Simulation report and derived table columns.
    pub app: AppReport,
    /// Length of the best tour found (scaled integer distance).
    pub best_len: u32,
    /// Total branch-and-bound expansions across the cluster.
    pub expansions: u64,
}

/// Deterministic city instance: coordinates and the distance matrix.
#[derive(Debug, Clone)]
pub struct Cities {
    n: usize,
    dist: Vec<u32>,
    /// Cheapest outgoing edge per city (pruning lower bound).
    min_out: Vec<u32>,
}

impl Cities {
    /// Generates `n` cities on a 10 000 × 10 000 grid from `seed`.
    #[must_use]
    pub fn generate(n: usize, seed: u64) -> Self {
        let mut rng = Xoshiro256::new(seed);
        let pts: Vec<(f64, f64)> = (0..n)
            .map(|_| (rng.next_range_f64(0.0, 10_000.0), rng.next_range_f64(0.0, 10_000.0)))
            .collect();
        let mut dist = vec![0u32; n * n];
        for i in 0..n {
            for j in 0..n {
                let dx = pts[i].0 - pts[j].0;
                let dy = pts[i].1 - pts[j].1;
                dist[i * n + j] = (dx * dx + dy * dy).sqrt().round() as u32;
            }
        }
        let min_out = (0..n)
            .map(|i| {
                (0..n)
                    .filter(|&j| j != i)
                    .map(|j| dist[i * n + j])
                    .min()
                    .unwrap_or(0)
            })
            .collect();
        Self { n, dist, min_out }
    }

    /// Distance between cities `i` and `j`.
    #[must_use]
    pub fn d(&self, i: usize, j: usize) -> u32 {
        self.dist[i * self.n + j]
    }

    /// A nearest-neighbour tour improved by 2-opt passes — the initial
    /// bound used by the search (a tight bound keeps the branch-and-bound
    /// tree tractable, as any serious TSP code of the era did).
    #[must_use]
    pub fn improved_bound(&self) -> u32 {
        // Rebuild the NN tour explicitly.
        let n = self.n;
        let mut tour = Vec::with_capacity(n);
        let mut visited = vec![false; n];
        tour.push(0usize);
        visited[0] = true;
        for _ in 1..n {
            let cur = *tour.last().expect("tour non-empty");
            let next = (0..n)
                .filter(|&j| !visited[j])
                .min_by_key(|&j| self.d(cur, j))
                .expect("unvisited city exists");
            tour.push(next);
            visited[next] = true;
        }
        // 2-opt until no improving exchange remains.
        let mut improved = true;
        while improved {
            improved = false;
            for i in 0..n - 1 {
                for k in i + 2..n {
                    let a = tour[i];
                    let b = tour[i + 1];
                    let c = tour[k];
                    let dnext = tour[(k + 1) % n];
                    let before = self.d(a, b) + self.d(c, dnext);
                    let after = self.d(a, c) + self.d(b, dnext);
                    if after < before {
                        tour[i + 1..=k].reverse();
                        improved = true;
                    }
                }
            }
        }
        (0..n).map(|i| self.d(tour[i], tour[(i + 1) % n])).sum()
    }

    /// Exact optimum by Held–Karp dynamic programming (test oracle; only
    /// feasible for small `n`).
    ///
    /// # Panics
    ///
    /// Panics if `n > 20` (the table would not fit in memory).
    #[must_use]
    pub fn held_karp(&self) -> u32 {
        let n = self.n;
        assert!(n <= 20, "Held-Karp oracle limited to small instances");
        let full = 1usize << (n - 1); // Sets over cities 1..n.
        let mut dp = vec![u32::MAX; full * (n - 1)];
        for j in 1..n {
            dp[(1 << (j - 1)) * (n - 1) + (j - 1)] = self.d(0, j);
        }
        for mask in 1..full {
            for j in 1..n {
                if mask & (1 << (j - 1)) == 0 {
                    continue;
                }
                let cur = dp[mask * (n - 1) + (j - 1)];
                if cur == u32::MAX {
                    continue;
                }
                for k in 1..n {
                    if mask & (1 << (k - 1)) != 0 {
                        continue;
                    }
                    let nm = mask | (1 << (k - 1));
                    let cand = cur + self.d(j, k);
                    let slot = &mut dp[nm * (n - 1) + (k - 1)];
                    if cand < *slot {
                        *slot = cand;
                    }
                }
            }
        }
        (1..n)
            .map(|j| dp[(full - 1) * (n - 1) + (j - 1)].saturating_add(self.d(j, 0)))
            .min()
            .expect("at least one tour")
    }
}

/// A partial tour descriptor: up to 8 fixed cities, city 0 first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Task {
    cities: [u8; 8],
    len: u8,
}

const TASK_BYTES: usize = 9;

impl Task {
    fn root() -> Self {
        let mut cities = [0u8; 8];
        cities[0] = 0;
        Self { cities, len: 1 }
    }

    fn to_bytes(self) -> [u8; TASK_BYTES] {
        let mut b = [0u8; TASK_BYTES];
        b[..8].copy_from_slice(&self.cities);
        b[8] = self.len;
        b
    }

    fn from_bytes(b: &[u8]) -> Self {
        let mut cities = [0u8; 8];
        cities.copy_from_slice(&b[..8]);
        Self { cities, len: b[8] }
    }

    fn visited_mask(&self) -> u32 {
        self.cities[..self.len as usize]
            .iter()
            .fold(0u32, |m, &c| m | (1 << c))
    }

    fn path_len(&self, cities: &Cities) -> u32 {
        self.cities[..self.len as usize]
            .windows(2)
            .map(|w| cities.d(w[0] as usize, w[1] as usize))
            .sum()
    }

    fn child(&self, next: u8) -> Self {
        let mut c = *self;
        c.cities[c.len as usize] = next;
        c.len += 1;
        c
    }
}

/// Shared-memory layout, computed identically on every node.
struct Layout {
    best: usize,
    q_top: usize,
    q_outstanding: usize,
    slots: usize,
    slot_cap: usize,
}

fn layout(cfg: &TspConfig) -> (Layout, usize, Vec<carlos_lrc::RegionSpec>) {
    let mut heap = CoherentHeap::new(1 << 22);
    let slot_cap = 16_384;
    let (best, q_top, slots);
    if cfg.core.variable_granularity {
        // Fine granules: the bound and the queue control words each get a
        // 64 B coherence unit, and the task table is carved into 64 B
        // granules (~7 descriptors each). A pop then fetches one task's
        // granule from its one or two recent writers instead of a whole
        // 8 KiB page's diffs from every node that pushed anywhere on it.
        best = heap.alloc_with_granule_eager(4, 64);
        q_top = heap.alloc_with_granule_eager(8, 64);
        slots = heap.alloc_with_granule_eager(slot_cap * TASK_BYTES, 64);
    } else {
        best = heap.alloc(4, 4);
        // Queue control words share one page (they are read and written
        // together under the queue lock); slots and the bound live on
        // separate pages, like the paper's separate locks for queue and
        // bound.
        q_top = heap.alloc(cfg.page_size.max(8), cfg.page_size.max(8));
        slots = heap.alloc(cfg.page_size.max(8), cfg.page_size.max(8));
        let _ = heap.alloc(slot_cap * TASK_BYTES, 1);
    }
    let q_outstanding = q_top + 4;
    let region = heap.used().next_multiple_of(cfg.page_size);
    (
        Layout {
            best,
            q_top,
            q_outstanding,
            slots,
            slot_cap,
        },
        region,
        heap.regions(),
    )
}

/// Admissible lower bound on completing a partial tour: the cheapest
/// outgoing edge of the current city plus those of all unvisited cities.
fn lower_bound_rest(cities: &Cities, visited: u32, cur: usize) -> u32 {
    let mut lb = cities.min_out[cur];
    for c in 0..cities.n {
        if visited & (1 << c) == 0 {
            lb += cities.min_out[c];
        }
    }
    lb
}

/// Sequential exhaustive solver for a full-depth prefix. Returns the best
/// complete tour found (if better than `bound`) and the expansion count.
struct Solver<'a> {
    cities: &'a Cities,
    bound: u32,
    expansions: u64,
    improved: bool,
}

impl<'a> Solver<'a> {
    fn new(cities: &'a Cities, bound: u32) -> Self {
        Self {
            cities,
            bound,
            expansions: 0,
            improved: false,
        }
    }

    fn lower_bound_rest(&self, visited: u32) -> u32 {
        let mut lb = 0u32;
        for c in 0..self.cities.n {
            if visited & (1 << c) == 0 {
                lb += self.cities.min_out[c];
            }
        }
        lb
    }

    fn dfs(&mut self, cur: usize, visited: u32, len: u32) {
        self.expansions += 1;
        let n = self.cities.n;
        if visited.count_ones() as usize == n {
            let total = len + self.cities.d(cur, 0);
            if total < self.bound {
                self.bound = total;
                self.improved = true;
            }
            return;
        }
        // Prune: current length + cheapest continuation must beat bound.
        if len + self.cities.min_out[cur] + self.lower_bound_rest(visited) >= self.bound {
            return;
        }
        // Order children by distance for better pruning.
        let mut next: Vec<usize> = (0..n).filter(|&j| visited & (1 << j) == 0).collect();
        next.sort_by_key(|&j| self.cities.d(cur, j));
        for j in next {
            let nl = len + self.cities.d(cur, j);
            if nl < self.bound {
                self.dfs(j, visited | (1 << j), nl);
            }
        }
    }
}

/// Generates the full leaf-task list by expanding the root to `leaf_depth`,
/// pruning with `bound` (used by the hybrid manager, which "is responsible
/// for generating the queued tours").
fn generate_leaves(cities: &Cities, leaf_depth: usize, bound: u32) -> (Vec<Task>, u64) {
    let mut out = Vec::new();
    let mut stack = vec![Task::root()];
    let mut expansions = 0u64;
    while let Some(t) = stack.pop() {
        expansions += 1;
        if t.len as usize == leaf_depth {
            out.push(t);
            continue;
        }
        let visited = t.visited_mask();
        let plen = t.path_len(cities);
        let cur = t.cities[t.len as usize - 1] as usize;
        let mut next: Vec<usize> = (0..cities.n)
            .filter(|&j| visited & (1 << j) == 0)
            .filter(|&j| {
                let nl = plen + cities.d(cur, j);
                nl + lower_bound_rest(cities, visited | (1 << j), j) < bound
            })
            .collect();
        // Push farther cities first: nearest-first processing order.
        next.sort_by_key(|&j| std::cmp::Reverse(cities.d(cur, j)));
        for j in next {
            stack.push(t.child(j as u8));
        }
    }
    (out, expansions)
}

/// Runs the TSP application on a simulated cluster; a failed run
/// (deadlock, node panic, safety-valve trip) is the `SimError` saying how.
pub(crate) fn try_run_tsp(cfg: &TspConfig) -> Result<TspResult, carlos_sim::SimError> {
    let out: Collector<(u32, u64)> = Collector::new();
    let mut cluster =
        observed_cluster(&cfg.sim, cfg.n_nodes, cfg.check.as_ref(), cfg.trace.as_ref());
    for node in 0..cfg.n_nodes as u32 {
        let cfg = cfg.clone();
        let out = out.clone();
        cluster.spawn_node(node, move |ctx| out.put(node, tsp_node(&cfg, ctx)));
    }
    let report = cluster.try_run()?;
    let out = out.take();
    Ok(TspResult {
        app: AppReport::new(report),
        best_len: out.iter().map(|(_, (b, _))| *b).min().expect("at least one node ran"),
        expansions: out.iter().map(|(_, (_, e))| e).sum(),
    })
}

fn ann(cfg: &TspConfig, normal: Annotation) -> Annotation {
    if cfg.variant == TspVariant::HybridAllRelease {
        Annotation::Release
    } else {
        normal
    }
}

fn tsp_node(cfg: &TspConfig, ctx: carlos_sim::NodeCtx) -> (u32, u64) {
    let n_nodes = cfg.n_nodes;
    let (lay, region, regions) = layout(cfg);
    let lrc = LrcConfig {
        n_nodes,
        page_size: cfg.page_size,
        region_bytes: region,
        gc_threshold_records: 12_000,
        ownership: PageOwnership::SingleOwner(0),
        regions,
    };
    let mut rt = Runtime::new(ctx, lrc, cfg.core.clone());
    if let Some(check) = &cfg.check {
        // Reads of the bound are deliberately unsynchronized — a benign
        // single-word race the paper calls safe (§5.1). Tell the oracle.
        check.allow_racy(lay.best, 4);
    }
    let sys = carlos_sync::install(&mut rt);
    let barrier = BarrierSpec::global(900, 0);
    // Every node computes the instance locally (private data).
    let cities = Cities::generate(cfg.n_cities, cfg.seed);
    let init_bound = cities.improved_bound();
    rt.compute(us(2_000)); // Instance setup cost.

    let mut expansions = 0u64;
    match cfg.variant {
        TspVariant::Lock => {
            lock_variant(cfg, &mut rt, &sys, &lay, &cities, init_bound, &mut expansions);
        }
        TspVariant::Hybrid | TspVariant::HybridAllRelease => {
            hybrid_variant(cfg, &mut rt, &sys, &lay, &cities, init_bound, &mut expansions);
        }
    }
    // Final barrier, then read the result; a closing barrier keeps every
    // node alive to serve its peers' final faults.
    sys.barrier(&mut rt, barrier, 101);
    rt.ctx().count("app.done_ns", rt.ctx().now());
    let best = rt.read_u32(lay.best);
    sys.barrier(&mut rt, barrier, 102);
    rt.ctx().count("tsp.expansions", expansions);
    rt.shutdown();
    (best, expansions)
}

/// The strictly-shared-memory version: queue and bound under locks.
fn lock_variant(
    cfg: &TspConfig,
    rt: &mut Runtime,
    sys: &carlos_sync::SyncSystem,
    lay: &Layout,
    cities: &Cities,
    init_bound: u32,
    expansions: &mut u64,
) {
    let qlock = LockSpec::new(1, 0);
    let block = LockSpec::new(2, 0);
    let barrier = BarrierSpec::global(900, 0);
    let node = rt.node_id();

    if node == 0 {
        rt.write_u32(lay.best, init_bound);
        // Seed the stack with the root task.
        rt.write_bytes(lay.slots, &Task::root().to_bytes());
        rt.write_u32(lay.q_top, 1);
        rt.write_u32(lay.q_outstanding, 0);
    }
    sys.barrier(rt, barrier, 100);

    let mut cached_bound = init_bound;
    // Leaf completions are folded into the next pop's critical section.
    let mut finished_one = false;
    loop {
        // Pop one task (or detect completion) under the queue lock.
        sys.acquire(rt, qlock);
        if finished_one {
            let o = rt.read_u32(lay.q_outstanding);
            rt.write_u32(lay.q_outstanding, o - 1);
            finished_one = false;
        }
        let top = rt.read_u32(lay.q_top);
        let task = if top > 0 {
            let addr = lay.slots + (top as usize - 1) * TASK_BYTES;
            let mut b = [0u8; TASK_BYTES];
            rt.read_bytes(addr, &mut b);
            rt.write_u32(lay.q_top, top - 1);
            let o = rt.read_u32(lay.q_outstanding);
            rt.write_u32(lay.q_outstanding, o + 1);
            Some(Task::from_bytes(&b))
        } else {
            None
        };
        let outstanding = rt.read_u32(lay.q_outstanding);
        sys.release(rt, qlock);

        let Some(task) = task else {
            if outstanding == 0 {
                break; // Stack empty and nothing in flight: done.
            }
            // Someone may still push; idle briefly and retry.
            rt.sleep(us(500));
            continue;
        };

        // Unsynchronized bound read (single word; §5.1).
        cached_bound = cached_bound.min(rt.read_u32(lay.best));

        if (task.len as usize) < cfg.leaf_depth {
            // Expand one level; push children under the lock.
            *expansions += 1;
            rt.compute(cfg.ns_per_expansion);
            let visited = task.visited_mask();
            let plen = task.path_len(cities);
            let cur = task.cities[task.len as usize - 1] as usize;
            // Prune children with the admissible remaining-cities lower
            // bound, and push farther cities first so the LIFO stack pops
            // nearest-first (better bounds earlier).
            let mut next: Vec<usize> = (0..cities.n)
                .filter(|&j| visited & (1 << j) == 0)
                .filter(|&j| {
                    let nl = plen + cities.d(cur, j);
                    nl + lower_bound_rest(cities, visited | (1 << j), j) < cached_bound
                })
                .collect();
            next.sort_by_key(|&j| std::cmp::Reverse(cities.d(cur, j)));
            let children: Vec<Task> = next.into_iter().map(|j| task.child(j as u8)).collect();
            sys.acquire(rt, qlock);
            let mut top = rt.read_u32(lay.q_top);
            for ch in &children {
                assert!((top as usize) < lay.slot_cap, "task stack overflow");
                let addr = lay.slots + top as usize * TASK_BYTES;
                rt.write_bytes(addr, &ch.to_bytes());
                top += 1;
            }
            rt.write_u32(lay.q_top, top);
            let o = rt.read_u32(lay.q_outstanding);
            rt.write_u32(lay.q_outstanding, o - 1);
            sys.release(rt, qlock);
            continue;
        }

        // Leaf: exhaustive search with periodic bound refresh.
        let found = solve_leaf(cfg, rt, lay, cities, task, &mut cached_bound, expansions);
        if let Some(better) = found {
            // Update the global bound under its lock (test first: cheap).
            if better < rt.read_u32(lay.best) {
                sys.acquire(rt, block);
                let b = rt.read_u32(lay.best);
                if better < b {
                    rt.write_u32(lay.best, better);
                }
                sys.release(rt, block);
            }
            cached_bound = cached_bound.min(better);
        }
        finished_one = true;
    }
}

/// The hybrid version: the manager generates tours and serves them through
/// the message queue; bounds are posted with REQUEST/RELEASE pairs.
fn hybrid_variant(
    cfg: &TspConfig,
    rt: &mut Runtime,
    sys: &carlos_sync::SyncSystem,
    lay: &Layout,
    cities: &Cities,
    init_bound: u32,
    expansions: &mut u64,
) {
    let barrier = BarrierSpec::global(900, 0);
    let node = rt.node_id();
    // Items originate at the manager itself, so the accepting queue mode
    // reproduces the paper's behaviour: each dequeue reply is a *fresh*
    // RELEASE from the manager carrying its latest state (including bound
    // updates written to shared memory). The manager's accept of an
    // enqueue is the acquire alone: the item joins the pool, and nothing
    // reaches node 0's user level.
    let mut q = QueueSpec::fifo(1, 0).accepting();
    q.deq_annotation = ann(cfg, Annotation::Request);

    if node == 0 {
        rt.write_u32(lay.best, init_bound);
        // Generate all leaf tasks locally and write their descriptors into
        // coherent shared memory; the queue carries only indices.
        let (leaves, gen_exp) = generate_leaves(cities, cfg.leaf_depth, init_bound);
        *expansions += gen_exp;
        rt.compute(cfg.ns_per_expansion * gen_exp);
        assert!(leaves.len() <= lay.slot_cap, "task table overflow");
        for (i, t) in leaves.iter().enumerate() {
            rt.write_bytes(lay.slots + i * TASK_BYTES, &t.to_bytes());
        }
        rt.write_u32(lay.q_top, leaves.len() as u32);
        sys.barrier(rt, barrier, 100);
        for i in 0..leaves.len() as u32 {
            sys.enqueue(rt, q, &i.to_le_bytes());
        }
        sys.close_queue(rt, q);
    } else {
        sys.barrier(rt, barrier, 100);
    }

    let mut cached_bound = init_bound;
    let mut posts_sent = 0u64;
    loop {
        // The manager drains posted bounds between tasks, writing them to
        // shared memory and answering with RELEASE messages (§5.1).
        if node == 0 {
            drain_bound_posts(cfg, rt, lay, &mut cached_bound);
        }
        let Some(item) = sys.dequeue(rt, q) else {
            break;
        };
        let idx = u32::from_le_bytes(item.try_into().expect("task index")) as usize;
        let mut b = [0u8; TASK_BYTES];
        rt.read_bytes(lay.slots + idx * TASK_BYTES, &mut b);
        let task = Task::from_bytes(&b);
        cached_bound = cached_bound.min(rt.read_u32(lay.best));
        let found = solve_leaf(cfg, rt, lay, cities, task, &mut cached_bound, expansions);
        if let Some(better) = found {
            cached_bound = cached_bound.min(better);
            if node == 0 {
                // The master writes its own improvements directly.
                if better < rt.read_u32(lay.best) {
                    rt.write_u32(lay.best, better);
                }
            } else {
                // Post the improvement to the master.
                rt.send(
                    0,
                    H_BOUND_POST,
                    better.to_le_bytes().to_vec(),
                    ann(cfg, Annotation::Request),
                );
                posts_sent += 1;
            }
        }
    }
    if node == 0 {
        // Keep serving bound posts until every worker has confirmed it is
        // finished (its posts all acknowledged).
        let mut done = 0usize;
        while done < cfg.n_nodes - 1 {
            let m = rt.wait_accepted_any(&[H_BOUND_POST, H_WORKER_DONE]);
            if m.handler == H_WORKER_DONE {
                done += 1;
                continue;
            }
            let v = u32::from_le_bytes(m.body.as_slice().try_into().expect("bound value"));
            if v < rt.read_u32(lay.best) {
                rt.write_u32(lay.best, v);
                cached_bound = cached_bound.min(v);
            }
            let body = rt_best_bytes(rt, lay);
            rt.send(m.origin, H_BOUND_ACK, body, ann(cfg, Annotation::Release));
        }
    } else {
        // Wait for every post to be acknowledged, then report done.
        for _ in 0..posts_sent {
            let _ = rt.wait_accepted(H_BOUND_ACK);
        }
        rt.send(0, H_WORKER_DONE, Vec::new(), Annotation::None);
    }
}

fn drain_bound_posts(cfg: &TspConfig, rt: &mut Runtime, lay: &Layout, cached: &mut u32) {
    while let Some(m) = rt.try_take_accepted(H_BOUND_POST) {
        let v = u32::from_le_bytes(m.body.as_slice().try_into().expect("bound value"));
        if v < rt.read_u32(lay.best) {
            rt.write_u32(lay.best, v);
            *cached = (*cached).min(v);
        }
        let body = rt_best_bytes(rt, lay);
        rt.send(m.origin, H_BOUND_ACK, body, ann(cfg, Annotation::Release));
    }
}

fn rt_best_bytes(rt: &mut Runtime, lay: &Layout) -> Vec<u8> {
    rt.read_u32(lay.best).to_le_bytes().to_vec()
}

/// Exhaustively solves a leaf prefix, charging virtual compute in chunks
/// and refreshing the cached bound periodically. Returns an improvement.
fn solve_leaf(
    cfg: &TspConfig,
    rt: &mut Runtime,
    lay: &Layout,
    cities: &Cities,
    task: Task,
    cached_bound: &mut u32,
    expansions: &mut u64,
) -> Option<u32> {
    let mut solver = Solver::new(cities, *cached_bound);
    let cur = task.cities[task.len as usize - 1] as usize;
    // The exhaustive search runs in pruned segments so the node can charge
    // compute (and service messages) at `refresh_every` granularity; the
    // segmenting is over first-level children of the prefix.
    let visited = task.visited_mask();
    let plen = task.path_len(cities);
    let mut next: Vec<usize> = (0..cities.n)
        .filter(|&j| visited & (1 << j) == 0)
        .collect();
    next.sort_by_key(|&j| cities.d(cur, j));
    for j in next {
        let nl = plen + cities.d(cur, j);
        if nl < solver.bound {
            solver.dfs(j, visited | (1 << j), nl);
        }
        if solver.expansions >= u64::from(cfg.refresh_every) {
            rt.compute(cfg.ns_per_expansion * solver.expansions);
            *expansions += solver.expansions;
            solver.expansions = 0;
            // Refresh from shared memory (unsynchronized single-word read).
            let shared = rt.read_u32(lay.best);
            if shared < solver.bound {
                solver.bound = shared;
            }
        }
    }
    rt.compute(cfg.ns_per_expansion * solver.expansions);
    *expansions += solver.expansions;
    let improved = solver.improved;
    *cached_bound = (*cached_bound).min(solver.bound);
    improved.then_some(solver.bound)
}
