//! The Water application (§5.3) — molecular dynamics from the SPLASH suite.
//!
//! Each iteration has phases separated by barriers. In the dominant phase
//! the processors compute intermolecular forces for all pairs (nonzero
//! only within a cutoff); each processor is responsible for the pairs
//! between its block of molecules and half of the remaining ones, and
//! accumulates its contributions locally, performing a *single* update per
//! molecule at the end of the phase (the SPLASH-recommended reduction).
//!
//! - **Lock** — each molecule is protected by a lock; the per-molecule
//!   update is a lock–update–unlock sequence on the molecule's force
//!   vector in coherent shared memory.
//! - **Hybrid** — "the node that generates the update information sends a
//!   NONE message to the node that owns the molecule to invoke the update
//!   function. The sequential delivery property of CarlOS messages
//!   guarantees that the updates are applied atomically, thus eliminating
//!   the need to use locks on individual molecules." Function shipping
//!   replaces both data migration and explicit synchronization.

use std::collections::BTreeSet;

use carlos_core::{Annotation, CoherentHeap, CoreConfig, Runtime};
use carlos_lrc::{LrcConfig, PageOwnership};
use carlos_sim::{time::us, SimConfig};
use carlos_sync::{BarrierSpec, LockSpec};
use carlos_util::rng::Xoshiro256;

use crate::harness::{observed_cluster, AppReport, Collector};

const H_UPDATE: u32 = 0x0220;

/// Which Water program to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaterVariant {
    /// Per-molecule locks protect force updates.
    Lock,
    /// Per-molecule update functions shipped in NONE messages.
    Hybrid,
    /// Hybrid with its update messages marked RELEASE instead of NONE
    /// (the §5.4 annotation experiment).
    HybridAllRelease,
}

/// Configuration for one Water run.
#[derive(Debug, Clone)]
pub struct WaterConfig {
    /// Cluster size.
    pub n_nodes: usize,
    /// Number of molecules (343 in the paper; must be odd so the
    /// half-window pair assignment covers each pair exactly once).
    pub n_molecules: usize,
    /// Simulation steps (5 in the paper).
    pub steps: usize,
    /// Workload seed (initial velocities).
    pub seed: u64,
    /// Program variant.
    pub variant: WaterVariant,
    /// Virtual nanoseconds charged per examined molecule pair.
    pub ns_per_pair: u64,
    /// Virtual nanoseconds charged per molecule integration.
    pub ns_per_integrate: u64,
    /// Network/cost model.
    pub sim: SimConfig,
    /// CarlOS cost model; its `variable_granularity` also selects the
    /// fine-granule layout of the shared data.
    pub core: CoreConfig,
    /// DSM page size.
    pub page_size: usize,
    /// Collect final state on every node (tests) or only node 0 (paper).
    pub collect_all_nodes: bool,
    /// Optional consistency oracle on the run's event stream
    /// (observer-only: virtual time is unaffected).
    pub check: Option<carlos_check::Checker>,
    /// Optional causal tracer on the run's event stream, beside the
    /// checker if both are set (observer-only: virtual time is unaffected).
    pub trace: Option<carlos_trace::Tracer>,
}

impl WaterConfig {
    /// The paper-scale workload: 343 molecules, 5 steps.
    #[must_use]
    pub fn paper(n_nodes: usize, variant: WaterVariant) -> Self {
        Self {
            n_molecules: 343,
            steps: 5,
            seed: 0xAA71_1994,
            ns_per_pair: 104_000,
            ns_per_integrate: 60_000,
            sim: SimConfig::osdi94(),
            core: CoreConfig::osdi94(),
            page_size: 8192,
            collect_all_nodes: false,
            ..Self::test(n_nodes, variant)
        }
    }

    /// A small, fast workload for tests.
    #[must_use]
    pub fn test(n_nodes: usize, variant: WaterVariant) -> Self {
        Self {
            n_nodes,
            n_molecules: 27,
            steps: 2,
            seed: 99,
            variant,
            ns_per_pair: 200,
            ns_per_integrate: 100,
            sim: SimConfig::fast_test(),
            core: CoreConfig::fast_test(),
            page_size: 512,
            collect_all_nodes: true,
            check: None,
            trace: None,
        }
    }
}

/// Result of a Water run.
#[derive(Debug, Clone)]
pub struct WaterResult {
    /// Simulation report and derived columns.
    pub app: AppReport,
    /// Final molecule positions (x, y, z) as read by node 0.
    pub positions: Vec<[f64; 3]>,
    /// Sum of squared velocities at the end (kinetic-energy proxy).
    pub kinetic: f64,
}

/// Bytes per molecule record. The SPLASH molecule record (three atoms with
/// predictor-corrector state) is several hundred bytes; we lay out the
/// fields we integrate plus realistic padding so page-sharing behaviour
/// matches the paper's.
const MOL_BYTES: usize = 672;
const OFF_POS: usize = 0; // 3 × f64
const OFF_VEL: usize = 24; // 3 × f64
const OFF_FORCE: usize = 48; // 3 × f64 (net force on the molecule)

struct Layout {
    mols: usize,
}

fn layout(cfg: &WaterConfig) -> (Layout, usize, Vec<carlos_lrc::RegionSpec>) {
    let ps = cfg.page_size;
    let mut heap = CoherentHeap::new(1 << 26);
    let mols = if cfg.core.variable_granularity {
        // Eager 4 KiB granules over the molecule table (about six 672-byte
        // molecule records each). Every node sweeps the whole table every
        // force phase, so updates piggyback on the phase's releases (eager)
        // rather than being re-fetched; half-page granules still halve the
        // false sharing and diff scan of the 8 KiB default. Finer granules
        // cut SYSTEM bytes further but cost more messages than they save:
        // the sweep re-reads everything, so per-molecule invalidation just
        // fragments the same data into more frames.
        heap.alloc_with_granule_eager(cfg.n_molecules * MOL_BYTES, 4096)
    } else {
        let mols = heap.alloc(ps, ps);
        let _ = heap.alloc(cfg.n_molecules * MOL_BYTES, 1);
        mols
    };
    let region = heap.used().next_multiple_of(ps);
    (Layout { mols }, region, heap.regions())
}

/// Block partition: the owner of molecule `m`.
fn owner(m: usize, n_mols: usize, n_nodes: usize) -> u32 {
    let per = n_mols.div_ceil(n_nodes);
    (m / per) as u32
}

/// Molecules owned by `node`.
fn owned_range(node: u32, n_mols: usize, n_nodes: usize) -> std::ops::Range<usize> {
    let per = n_mols.div_ceil(n_nodes);
    let lo = (node as usize * per).min(n_mols);
    let hi = ((node as usize + 1) * per).min(n_mols);
    lo..hi
}

/// What each node hands back: final positions and its kinetic-energy sum.
type WaterOut = (Vec<[f64; 3]>, f64);

/// Runs the Water application on a simulated cluster, returning
/// simulation failures as a [`carlos_sim::SimError`] value instead of
/// panicking.
///
/// # Panics
///
/// Panics if `n_molecules` is even (a configuration error, not a
/// simulation failure).
///
/// # Errors
///
/// Returns the [`carlos_sim::SimError`] describing how the run failed.
pub fn try_run_water(cfg: &WaterConfig) -> Result<WaterResult, carlos_sim::SimError> {
    assert!(
        cfg.n_molecules % 2 == 1,
        "n_molecules must be odd for the half-window pair assignment"
    );
    let out: Collector<WaterOut> = Collector::new();
    let mut cluster =
        observed_cluster(&cfg.sim, cfg.n_nodes, cfg.check.as_ref(), cfg.trace.as_ref());
    for node in 0..cfg.n_nodes as u32 {
        let cfg = cfg.clone();
        let out = out.clone();
        cluster.spawn_node(node, move |ctx| out.put(node, water_node(&cfg, ctx)));
    }
    let report = cluster.try_run()?;
    let (positions, kinetic) = out
        .take()
        .into_iter()
        .next()
        .map(|(_, v)| v)
        .expect("node 0 ran");
    Ok(WaterResult {
        app: AppReport::new(report),
        positions,
        kinetic,
    })
}

fn mol_addr(lay: &Layout, m: usize) -> usize {
    lay.mols + m * MOL_BYTES
}

fn read_vec3(rt: &mut Runtime, addr: usize) -> [f64; 3] {
    [
        rt.read_f64(addr),
        rt.read_f64(addr + 8),
        rt.read_f64(addr + 16),
    ]
}

fn write_vec3(rt: &mut Runtime, addr: usize, v: [f64; 3]) {
    rt.write_f64(addr, v[0]);
    rt.write_f64(addr + 8, v[1]);
    rt.write_f64(addr + 16, v[2]);
}

/// Softened pairwise force on `a` due to `b` (zero outside the cutoff).
fn pair_force(pa: [f64; 3], pb: [f64; 3], cutoff2: f64) -> [f64; 3] {
    let dx = pa[0] - pb[0];
    let dy = pa[1] - pb[1];
    let dz = pa[2] - pb[2];
    let r2 = dx * dx + dy * dy + dz * dz;
    if r2 > cutoff2 || r2 == 0.0 {
        return [0.0; 3];
    }
    // Softened Lennard-Jones-like interaction: repulsive near, mildly
    // attractive far, bounded everywhere (numerical stability over 5 steps
    // matters more than chemistry here).
    let soft = r2 + 0.25;
    let inv = 1.0 / soft;
    let inv3 = inv * inv * inv;
    let mag = 24.0 * (2.0 * inv3 * inv3 - inv3) * inv;
    let mag = mag.clamp(-50.0, 50.0);
    [dx * mag, dy * mag, dz * mag]
}

#[allow(clippy::too_many_lines)]
fn water_node(cfg: &WaterConfig, ctx: carlos_sim::NodeCtx) -> (Vec<[f64; 3]>, f64) {
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
    let n = cfg.n_molecules;
    let n_nodes = cfg.n_nodes;
    let half = (n - 1) / 2;
    let cutoff2 = 6.25; // Cutoff radius 2.5 in lattice units.
    let dt = 2.0e-3;
    let own = owned_range(node, n, n_nodes);

    // Initialization (node 0): a cubic lattice with small seeded velocities.
    if node == 0 {
        let side = (n as f64).cbrt().ceil() as usize;
        let mut rng = Xoshiro256::new(cfg.seed);
        for m in 0..n {
            let x = (m % side) as f64 * 1.3;
            let y = ((m / side) % side) as f64 * 1.3;
            let z = (m / (side * side)) as f64 * 1.3;
            write_vec3(&mut rt, mol_addr(&lay, m) + OFF_POS, [x, y, z]);
            let vel = [
                rng.next_range_f64(-0.05, 0.05),
                rng.next_range_f64(-0.05, 0.05),
                rng.next_range_f64(-0.05, 0.05),
            ];
            write_vec3(&mut rt, mol_addr(&lay, m) + OFF_VEL, vel);
            write_vec3(&mut rt, mol_addr(&lay, m) + OFF_FORCE, [0.0; 3]);
        }
        rt.compute(us(50_000));
    }

    // Statically computable update-message counts: how many distinct
    // foreign molecules each node touches, per owner.
    let mut touches: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); n_nodes];
    for i in own.clone() {
        for k in 1..=half {
            let j = (i + k) % n;
            let q = owner(j, n, n_nodes);
            if q != node {
                touches[q as usize].insert(j);
            }
        }
    }
    // Updates this node will receive = sum over peers p of the number of
    // our molecules p touches.
    let mut expected_updates = 0usize;
    for p in 0..n_nodes as u32 {
        if p == node {
            continue;
        }
        let prange = owned_range(p, n, n_nodes);
        let mut mine: BTreeSet<usize> = BTreeSet::new();
        for i in prange {
            for k in 1..=half {
                let j = (i + k) % n;
                if owner(j, n, n_nodes) == node {
                    mine.insert(j);
                }
            }
        }
        expected_updates += mine.len();
    }

    let update_annotation = if cfg.variant == WaterVariant::HybridAllRelease {
        Annotation::Release
    } else {
        Annotation::None
    };

    sys.barrier(&mut rt, barrier, 0);

    for step in 0..cfg.steps as u32 {
        let ep = 10 + step * 10;
        // Phase 1: owners zero their molecules' force accumulators.
        for m in own.clone() {
            write_vec3(&mut rt, mol_addr(&lay, m) + OFF_FORCE, [0.0; 3]);
        }
        sys.barrier(&mut rt, barrier, ep + 1);

        // Phase 2: pairwise forces. Read all positions once (the DSM pulls
        // whatever pages changed), then accumulate locally.
        let mut pos = vec![[0.0f64; 3]; n];
        for (m, slot) in pos.iter_mut().enumerate() {
            *slot = read_vec3(&mut rt, mol_addr(&lay, m) + OFF_POS);
        }
        let mut acc = vec![[0.0f64; 3]; n];
        let mut pairs = 0u64;
        for i in own.clone() {
            for k in 1..=half {
                let j = (i + k) % n;
                let f = pair_force(pos[i], pos[j], cutoff2);
                for d in 0..3 {
                    acc[i][d] += f[d];
                    acc[j][d] -= f[d];
                }
                pairs += 1;
            }
        }
        rt.compute(cfg.ns_per_pair * pairs);

        match cfg.variant {
            WaterVariant::Lock => {
                // Every force-vector update — own molecules included — is a
                // lock–update–unlock sequence: remote contributors update
                // concurrently, so the owner must take the lock too.
                let mut targets: Vec<usize> = own.clone().collect();
                for peer_touches in touches.iter().take(n_nodes) {
                    targets.extend(peer_touches.iter().copied());
                }
                for m in targets {
                    let lock = LockSpec::new(1000 + m as u32, owner(m, n, n_nodes));
                    sys.acquire(&mut rt, lock);
                    let addr = mol_addr(&lay, m) + OFF_FORCE;
                    let cur = read_vec3(&mut rt, addr);
                    write_vec3(
                        &mut rt,
                        addr,
                        [
                            cur[0] + acc[m][0],
                            cur[1] + acc[m][1],
                            cur[2] + acc[m][2],
                        ],
                    );
                    sys.release(&mut rt, lock);
                }
                sys.barrier(&mut rt, barrier, ep + 2);
            }
            WaterVariant::Hybrid | WaterVariant::HybridAllRelease => {
                // Own contributions apply directly: the owner is the only
                // writer of its molecules in the hybrid, which is exactly
                // what function shipping buys.
                for m in own.clone() {
                    let addr = mol_addr(&lay, m) + OFF_FORCE;
                    let cur = read_vec3(&mut rt, addr);
                    write_vec3(
                        &mut rt,
                        addr,
                        [cur[0] + acc[m][0], cur[1] + acc[m][1], cur[2] + acc[m][2]],
                    );
                }
                // Ship the update function: molecule id + force delta (the
                // body is padded to atom-level size, as the real record's
                // update carries three atoms' worth of vectors).
                for (q, peer_touches) in touches.iter().enumerate().take(n_nodes) {
                    for &m in peer_touches {
                        // Molecule id + per-atom force vectors (three
                        // atoms, three dimensions, double precision) plus
                        // the higher-order correction terms the real
                        // update function carries.
                        let mut body = Vec::with_capacity(4 + 216);
                        body.extend_from_slice(&(m as u32).to_le_bytes());
                        for delta in &acc[m] {
                            body.extend_from_slice(&delta.to_le_bytes());
                        }
                        body.resize(4 + 216, 0);
                        rt.send(q as u32, H_UPDATE, body, update_annotation);
                    }
                }
                // Apply the updates shipped to us; sequential delivery makes
                // each application atomic without molecule locks.
                let mut got = 0usize;
                while got < expected_updates {
                    let m = rt.wait_accepted(H_UPDATE);
                    let id = u32::from_le_bytes(m.body[..4].try_into().expect("mol id")) as usize;
                    assert_eq!(owner(id, n, n_nodes), node, "update shipped to wrong owner");
                    let mut delta = [0.0f64; 3];
                    for (d, slot) in delta.iter_mut().enumerate() {
                        *slot = f64::from_le_bytes(
                            m.body[4 + d * 8..12 + d * 8].try_into().expect("delta"),
                        );
                    }
                    let addr = mol_addr(&lay, id) + OFF_FORCE;
                    let cur = read_vec3(&mut rt, addr);
                    write_vec3(
                        &mut rt,
                        addr,
                        [cur[0] + delta[0], cur[1] + delta[1], cur[2] + delta[2]],
                    );
                    got += 1;
                }
                sys.barrier(&mut rt, barrier, ep + 2);
            }
        }

        // Phase 3: integrate owned molecules.
        for m in own.clone() {
            let f = read_vec3(&mut rt, mol_addr(&lay, m) + OFF_FORCE);
            let mut v = read_vec3(&mut rt, mol_addr(&lay, m) + OFF_VEL);
            let mut x = read_vec3(&mut rt, mol_addr(&lay, m) + OFF_POS);
            for d in 0..3 {
                v[d] += f[d] * dt;
                x[d] += v[d] * dt;
            }
            write_vec3(&mut rt, mol_addr(&lay, m) + OFF_VEL, v);
            write_vec3(&mut rt, mol_addr(&lay, m) + OFF_POS, x);
        }
        rt.compute(cfg.ns_per_integrate * own.len() as u64);
        sys.barrier(&mut rt, barrier, ep + 3);
    }

    // The timed run ends at the last step's barrier.
    rt.ctx().count("app.done_ns", rt.ctx().now());
    // Collect results (node 0, or everyone when configured for tests).
    let mut positions = Vec::new();
    let mut kinetic = 0.0f64;
    if cfg.collect_all_nodes || node == 0 {
        positions.reserve(n);
        for m in 0..n {
            positions.push(read_vec3(&mut rt, mol_addr(&lay, m) + OFF_POS));
            let v = read_vec3(&mut rt, mol_addr(&lay, m) + OFF_VEL);
            kinetic += v[0] * v[0] + v[1] * v[1] + v[2] * v[2];
        }
    }
    sys.barrier(&mut rt, barrier, 9000);
    rt.shutdown();
    (positions, kinetic)
}
