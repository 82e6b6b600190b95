//! Property-based protocol fuzzing across the whole stack: random DRF
//! workloads over random topologies, run under both coherence strategies,
//! with loss injection, and over the variable-granularity wire forms, must
//! always converge to identical contents on every node.

use carlos::core::{Annotation, CoreConfig, Runtime};
use carlos::lrc::{LrcConfig, RegionSpec};
use carlos::sim::time::ms;
use carlos::sim::transport::AckMode;
use carlos::sim::{Cluster, SimConfig};
use carlos::sync::{BarrierSpec, LockSpec};
use carlos::util::cases::{cases, Gen};

/// One scripted operation for a node.
#[derive(Debug, Clone)]
enum Op {
    /// Write `val` at `slot` within the node's own disjoint range.
    WriteOwn { slot: usize, val: u8 },
    /// Increment the shared counter under the global lock.
    LockedIncrement,
    /// Send a RELEASE to a peer (extra synchronization edges).
    ReleaseTo { peer: usize },
    /// Compute for a while (shifts interleavings).
    Compute { us: u64 },
}

fn op(g: &mut Gen, n_nodes: usize) -> Op {
    match g.below(4) {
        0 => Op::WriteOwn {
            slot: g.range(0usize..16),
            val: g.u8(),
        },
        1 => Op::LockedIncrement,
        2 => Op::ReleaseTo {
            peer: g.range(0..n_nodes),
        },
        _ => Op::Compute {
            us: g.range(1u64..200),
        },
    }
}

const H_SYNC: u32 = 77;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Invalidate,
    Update,
    Lossy,
    /// The variable-granularity wire forms: 8-byte granules over the
    /// own-slot area (so faults batch their demands), coalesced fetches
    /// (`SYS_BATCH_*`) and aggregated RELEASE notices (tags 4/5).
    Batched,
}

/// Runs the scripted workload and returns the final region bytes and
/// counter value every node agrees on, and the run's batched fetch
/// requests.
fn run_script(scripts: &[Vec<Op>], mode: Mode) -> (Vec<u8>, u32, u64) {
    let n = scripts.len();
    let region = 64 * 16 * (n + 1);
    let sim = match mode {
        Mode::Lossy => SimConfig::fast_test()
            .with_loss(0.10, 0xF422)
            .with_ack(AckMode::Arq {
                window: 16,
                rto: ms(5),
            }),
        _ => SimConfig::fast_test(),
    };
    let out = carlos::apps::harness::Collector::<Vec<u8>>::new();
    let counter_out = carlos::apps::harness::Collector::<u32>::new();
    let mut cluster = Cluster::new(sim, n);
    for (node, script) in scripts.iter().enumerate() {
        let script = script.clone();
        let out = out.clone();
        let counter_out = counter_out.clone();
        cluster.spawn_node(node as u32, move |ctx| {
            let lrc = LrcConfig {
                n_nodes: n,
                page_size: 64,
                region_bytes: region,
                gc_threshold_records: 200, // Force GCs under fuzz too.
                ownership: carlos::lrc::PageOwnership::SingleOwner(0),
                regions: match mode {
                    Mode::Batched => vec![RegionSpec::new(64 * 16, 64 * 16 * n, 8)],
                    _ => Vec::new(),
                },
            };
            let core = match mode {
                Mode::Update => CoreConfig::fast_test().with_update_strategy(),
                Mode::Batched => CoreConfig::fast_test().with_variable_granularity(),
                _ => CoreConfig::fast_test(),
            };
            let mut rt = Runtime::new(ctx, lrc, core);
            let sys = carlos::sync::install(&mut rt);
            let lock = LockSpec::new(1, 0);
            let barrier = BarrierSpec::global(9, 0);
            // Own slots start after the shared counter page.
            let base = 64 * 16 * (node + 1);
            for op in &script {
                match op {
                    Op::WriteOwn { slot, val } => {
                        rt.write_bytes(base + slot * 8, &[*val]);
                    }
                    Op::LockedIncrement => {
                        sys.acquire(&mut rt, lock);
                        let v = rt.read_u32(0);
                        rt.write_u32(0, v + 1);
                        sys.release(&mut rt, lock);
                    }
                    Op::ReleaseTo { peer } => {
                        if *peer != node {
                            rt.send(*peer as u32, H_SYNC, vec![], Annotation::Release);
                        }
                    }
                    Op::Compute { us } => {
                        rt.compute(carlos::sim::time::us(*us));
                    }
                }
            }
            // Drain any sync releases aimed at us before the barrier.
            rt.poll();
            sys.barrier(&mut rt, barrier, 0);
            let mut buf = vec![0u8; region];
            rt.read_bytes(0, &mut buf);
            let counter = rt.read_u32(0);
            out.put(node as u32, buf);
            counter_out.put(node as u32, counter);
            sys.barrier(&mut rt, barrier, 1);
            rt.shutdown();
        });
    }
    let batches = cluster.run().counter_total("carlos.batch_requests");
    let views = out.take();
    let first = views[0].1.clone();
    for (node, view) in &views {
        assert_eq!(view, &first, "node {node} diverged after the barrier");
    }
    let counters = counter_out.take();
    let c0 = counters[0].1;
    for (node, c) in &counters {
        assert_eq!(*c, c0, "node {node} counter diverged");
    }
    (first, c0, batches)
}

/// All four modes converge, agree across nodes, and agree with the
/// scripted expectations (own-range writes are last-writer-wins by
/// construction; the counter equals the number of locked increments).
#[test]
fn fuzzed_workloads_converge() {
    let mut batches = 0;
    // Each case runs four full cluster simulations.
    cases("fuzzed_workloads_converge", 12, |g| {
        let scripts: Vec<Vec<Op>> = (0..3).map(|_| g.vec(1..25, |g| op(g, 3))).collect();
        let expected_counter: u32 = scripts
            .iter()
            .flatten()
            .filter(|op| matches!(op, Op::LockedIncrement))
            .count() as u32;

        let (inv_view, inv_counter, _) = run_script(&scripts, Mode::Invalidate);
        assert_eq!(inv_counter, expected_counter);

        // Own-range writes: the last scripted write per slot must be there.
        for (node, script) in scripts.iter().enumerate() {
            let base = 64 * 16 * (node + 1);
            let mut last: std::collections::BTreeMap<usize, u8> = Default::default();
            for op in script {
                if let Op::WriteOwn { slot, val } = op {
                    last.insert(*slot, *val);
                }
            }
            for (slot, val) in last {
                assert_eq!(inv_view[base + slot * 8], val, "node {node} slot {slot}");
            }
        }

        for (mode, what) in [
            (Mode::Update, "strategies disagree"),
            (Mode::Lossy, "loss recovery disagrees"),
            (Mode::Batched, "batched wire forms disagree"),
        ] {
            let (view, counter, b) = run_script(&scripts, mode);
            assert_eq!(counter, expected_counter, "{mode:?} counter");
            assert_eq!(view, inv_view, "{what}");
            batches += b;
        }
    });
    assert!(batches > 0, "the batched mode never sent a batch request");
}
