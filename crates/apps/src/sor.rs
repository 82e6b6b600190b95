//! Red-black successive over-relaxation (SOR) — a classic software-DSM
//! workload (beyond the paper's three applications; the archetype of the
//! "numerical applications [whose] communication patterns are amenable to
//! message-passing" that §3 discusses).
//!
//! A grid is partitioned into row bands, one per node. Each iteration has
//! a red half-sweep and a black half-sweep separated by barriers: every
//! cell is replaced by the average of its four neighbours, red cells
//! reading only black ones and vice versa. The only *data* communication
//! is the band-boundary rows, which neighbours read anew each half-sweep —
//! but every band page is rewritten every sweep, which makes SOR the
//! stress test for consistency-record overheads: eager per-interval
//! diffing (this crate's soundness choice, `DESIGN.md` §3.1) pays a diff
//! per band page per sweep where TreadMarks' lazy diffing paid nothing
//! for pages nobody fetched. The bench quantifies exactly that cost.
//!
//! Because each cell update reads only values frozen by the previous
//! half-sweep, the parallel result is **bitwise identical** to the
//! sequential one — which the tests exploit.

use carlos_core::{CoherentHeap, CoreConfig, Runtime};
use carlos_lrc::{LrcConfig, PageOwnership};
use carlos_sim::{time::us, SimConfig};
use carlos_sync::BarrierSpec;

use crate::harness::{observed_cluster, AppReport, Collector};

/// Configuration for one SOR run.
#[derive(Debug, Clone)]
pub struct SorConfig {
    /// Cluster size.
    pub n_nodes: usize,
    /// Grid rows (including the fixed boundary rows).
    pub rows: usize,
    /// Grid columns (including the fixed boundary columns).
    pub cols: usize,
    /// Red-black iterations (each is two half-sweeps with barriers).
    pub iters: usize,
    /// Virtual nanoseconds charged per cell update.
    pub ns_per_cell: u64,
    /// Network/cost model.
    pub sim: SimConfig,
    /// CarlOS cost model (switch `strategy` for the ablation); its
    /// `variable_granularity` makes the coherence unit one grid row.
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

impl SorConfig {
    /// A mid-1990s-scale workload: a tall 2048×512 grid, 10 iterations
    /// (row bands give each node plenty of compute per boundary byte; on a
    /// 10 Mbit/s Ethernet small grids are hopelessly communication-bound,
    /// as the TreadMarks papers also found).
    #[must_use]
    pub fn paper_scale(n_nodes: usize) -> Self {
        Self {
            rows: 2048,
            cols: 512,
            iters: 10,
            ns_per_cell: 320,
            sim: SimConfig::osdi94(),
            core: CoreConfig::osdi94(),
            page_size: 8192,
            ..Self::test(n_nodes)
        }
    }

    /// A small, fast workload for tests.
    #[must_use]
    pub fn test(n_nodes: usize) -> Self {
        Self {
            n_nodes,
            rows: 24,
            cols: 16,
            iters: 4,
            ns_per_cell: 50,
            sim: SimConfig::fast_test(),
            core: CoreConfig::fast_test(),
            page_size: 256,
            check: None,
            trace: None,
        }
    }
}

/// Result of a SOR run.
#[derive(Debug, Clone)]
pub struct SorResult {
    /// Simulation report and derived columns.
    pub app: AppReport,
    /// Final interior-cell sum (node 0's view; a compact fingerprint).
    pub checksum: f64,
    /// Final grid contents (node 0's view).
    pub grid: Vec<f64>,
}

/// The rows assigned to `node` (interior rows only; row 0 and the last row
/// are fixed boundary).
fn band(node: usize, rows: usize, n_nodes: usize) -> std::ops::Range<usize> {
    let interior = rows - 2;
    let per = interior.div_ceil(n_nodes);
    let lo = 1 + (node * per).min(interior);
    let hi = 1 + ((node + 1) * per).min(interior);
    lo..hi
}

/// A pure sequential reference implementation (same arithmetic, no DSM).
#[must_use]
pub fn sequential_reference(cfg: &SorConfig) -> Vec<f64> {
    let (rows, cols) = (cfg.rows, cfg.cols);
    let mut g = initial_grid(rows, cols);
    for _ in 0..cfg.iters {
        for color in 0..2usize {
            for r in 1..rows - 1 {
                for c in 1..cols - 1 {
                    if (r + c) % 2 == color {
                        g[r * cols + c] = 0.25
                            * (g[(r - 1) * cols + c]
                                + g[(r + 1) * cols + c]
                                + g[r * cols + c - 1]
                                + g[r * cols + c + 1]);
                    }
                }
            }
        }
    }
    g
}

fn initial_grid(rows: usize, cols: usize) -> Vec<f64> {
    let mut g = vec![0.0f64; rows * cols];
    // Hot top edge, cold bottom edge, zero interior: heat diffuses down.
    for cell in &mut g[..cols] {
        *cell = 100.0;
    }
    g
}

/// Runs red-black SOR on a simulated cluster; a failed run is the
/// `SimError` saying how.
pub(crate) fn try_run_sor(cfg: &SorConfig) -> Result<SorResult, carlos_sim::SimError> {
    let out: Collector<Vec<f64>> = Collector::new();
    let mut cluster =
        observed_cluster(&cfg.sim, cfg.n_nodes, cfg.check.as_ref(), cfg.trace.as_ref());
    for node in 0..cfg.n_nodes as u32 {
        let cfg = cfg.clone();
        let out = out.clone();
        cluster.spawn_node(node, move |ctx| out.put(node, sor_node(&cfg, ctx)));
    }
    let report = cluster.try_run()?;
    let grid = out
        .take()
        .into_iter()
        .next()
        .map(|(_, g)| g)
        .expect("node 0 ran");
    let cols = cfg.cols;
    let checksum = (1..cfg.rows - 1)
        .flat_map(|r| (1..cols - 1).map(move |c| (r, c)))
        .map(|(r, c)| grid[r * cols + c])
        .sum();
    Ok(SorResult {
        app: AppReport::new(report),
        checksum,
        grid,
    })
}

fn sor_node(cfg: &SorConfig, ctx: carlos_sim::NodeCtx) -> Vec<f64> {
    let (rows, cols) = (cfg.rows, cfg.cols);
    let mut heap = CoherentHeap::new(rows * cols * 8 + cfg.page_size);
    let row_bytes = cols * 8;
    // Variable granularity: one grid row per coherence unit (when `cols * 8`
    // is a power of two), so a halo-row fetch moves one row, not a page.
    let grid_addr = if cfg.core.variable_granularity && row_bytes.is_power_of_two() {
        heap.alloc_with_granule(rows * row_bytes, row_bytes)
    } else {
        heap.alloc(rows * cols * 8, 8)
    };
    let region = heap.used().next_multiple_of(cfg.page_size);
    let lrc = LrcConfig {
        n_nodes: cfg.n_nodes,
        page_size: cfg.page_size,
        region_bytes: region,
        // Whole-band rewrites create an interval record and a diff per
        // band page per half-sweep; the default arena would trigger a
        // global GC (validate-everything: the whole grid over the wire)
        // mid-run. Size the arena for the run instead, as TreadMarks
        // configurations did for SOR-class workloads.
        gc_threshold_records: 400_000,
        ownership: PageOwnership::Banded,
        regions: heap.regions(),
    };
    let mut rt = Runtime::new(ctx, lrc, cfg.core.clone());
    let sys = carlos_sync::install(&mut rt);
    let barrier = BarrierSpec::global(900, 0);
    let node = rt.node_id() as usize;
    let my = band(node, rows, cfg.n_nodes);

    let cell = |r: usize, c: usize| grid_addr + (r * cols + c) * 8;

    if node == 0 {
        // Pages default to zero everywhere; only the hot top edge needs
        // explicit initialization (and it lives in node 0's own band).
        let hot: Vec<u8> = (0..cols).flat_map(|_| 100.0f64.to_le_bytes()).collect();
        rt.write_bytes(grid_addr, &hot);
        rt.compute(us(5_000));
    }
    sys.barrier(&mut rt, barrier, 0);

    let mut epoch = 1;
    for _ in 0..cfg.iters {
        for color in 0..2usize {
            // Read the band plus its halo rows, compute locally, write the
            // band's updated cells of this colour back. The band rows are
            // ours alone, so one block read suffices; the two halo rows
            // belong to neighbours that are concurrently updating their
            // cells of this colour, so only the frozen opposite-colour
            // cells the stencil actually reads may be touched.
            let lo = my.start - 1;
            let hi = my.end + 1;
            let mut halo = vec![0u8; (hi - lo) * cols * 8];
            if my.start < my.end {
                let own = (my.start - lo) * cols * 8..(my.end - lo) * cols * 8;
                rt.read_bytes(cell(my.start, 0), &mut halo[own]);
            }
            for r in [lo, my.end] {
                let row = (r - lo) * cols * 8;
                for c in 0..cols {
                    if (r + c) % 2 != color {
                        let mut v = [0u8; 8];
                        rt.read_bytes(cell(r, c), &mut v);
                        halo[row + c * 8..row + c * 8 + 8].copy_from_slice(&v);
                    }
                }
            }
            let f = |r: usize, c: usize| -> f64 {
                let off = ((r - lo) * cols + c) * 8;
                f64::from_le_bytes(halo[off..off + 8].try_into().expect("cell"))
            };
            let mut cells = 0u64;
            let mut updates: Vec<(usize, usize, f64)> = Vec::new();
            for r in my.clone() {
                for c in 1..cols - 1 {
                    if (r + c) % 2 == color {
                        let v = 0.25 * (f(r - 1, c) + f(r + 1, c) + f(r, c - 1) + f(r, c + 1));
                        updates.push((r, c, v));
                        cells += 1;
                    }
                }
            }
            rt.compute(cfg.ns_per_cell * cells);
            for (r, c, v) in updates {
                rt.write_bytes(cell(r, c), &v.to_le_bytes());
            }
            sys.barrier(&mut rt, barrier, epoch);
            epoch += 1;
        }
    }
    rt.ctx().count("app.done_ns", rt.ctx().now());
    // Node 0 collects the final grid.
    let grid = if node == 0 {
        let mut bytes = vec![0u8; rows * cols * 8];
        rt.read_bytes(grid_addr, &mut bytes);
        bytes
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().expect("8-byte chunk")))
            .collect()
    } else {
        Vec::new()
    };
    sys.barrier(&mut rt, barrier, epoch);
    rt.shutdown();
    grid
}
