//! Chaos demo: scripted faults against a live cluster.
//!
//! Act 1 — a Gilbert–Elliott loss burst hammers a lock-protected counter
//! workload; the ARQ transport rides it out and the result is identical.
//! Act 2 — a partition separates the nodes mid-run and heals; backoff
//! retransmission carries the protocols across it.
//! Act 3 — a node fail-stops while its peers depend on it; with the
//! runtime's stall bound armed the run ends with a structured, attributed
//! error instead of hanging.
//!
//! Run with `cargo run --release --example chaos`.

use carlos::core::{CoreConfig, Runtime};
use carlos::lrc::LrcConfig;
use carlos::sim::time::{ms, us};
use carlos::sim::transport::AckMode;
use carlos::sim::{Cluster, FaultPlan, GeParams, SimConfig};
use carlos::sync::{BarrierSpec, LockSpec};

const NODES: usize = 3;
const INCREMENTS: u32 = 10;

const ARQ: AckMode = AckMode::Arq {
    window: 16,
    rto: ms(5),
};

/// A fast network under `plan`, with the ARQ transport that rides it out.
fn chaos_config(plan: FaultPlan) -> SimConfig {
    SimConfig::fast_test().with_fault_plan(plan).with_ack(ARQ)
}

/// The same counter workload for every act, on runtimes built with `core`.
fn spawn_workload(cluster: &mut Cluster, core: &CoreConfig) {
    for node in 0..NODES as u32 {
        let core = core.clone();
        cluster.spawn_node(node, move |ctx| {
            let mut rt = Runtime::new(ctx, LrcConfig::small_test(NODES), core);
            let sys = carlos::sync::install(&mut rt);
            let lock = LockSpec::new(1, 0);
            for _ in 0..INCREMENTS {
                sys.acquire(&mut rt, lock);
                let v = rt.read_u32(0);
                rt.write_u32(0, v + 1);
                sys.release(&mut rt, lock);
            }
            sys.barrier(&mut rt, BarrierSpec::global(9, 0), 0);
            let total = rt.read_u32(0);
            assert_eq!(total, INCREMENTS * NODES as u32, "faults corrupted the DSM");
            sys.barrier(&mut rt, BarrierSpec::global(9, 0), 1);
            rt.shutdown();
        });
    }
}

fn main() {
    // Act 1: burst loss. The bad state eats 70% of its frames.
    let plan = FaultPlan::new(0xC4A05).burst_loss(0, ms(60_000), GeParams::bursty(0.7));
    let mut cluster = Cluster::new(chaos_config(plan), NODES);
    spawn_workload(&mut cluster, &CoreConfig::fast_test());
    let r = cluster.run();
    println!(
        "act 1, burst loss: counter correct; {} datagrams, {} burst-dropped, {} retransmits, {:.1} virtual ms",
        r.net.messages,
        r.net.dropped_burst,
        r.counter_total("transport.retransmits"),
        r.elapsed as f64 / 1e6,
    );

    // Act 2: partition node 2 away from both peers, heal at 40ms.
    let plan = FaultPlan::new(7).partition(&[0, 1], &[2], us(100), ms(30));
    let mut cluster = Cluster::new(chaos_config(plan), NODES);
    spawn_workload(&mut cluster, &CoreConfig::fast_test());
    let r = cluster.run();
    println!(
        "act 2, partition+heal: counter correct; {} partition-dropped, {} retransmits, {:.1} virtual ms",
        r.net.dropped_partition,
        r.counter_total("transport.retransmits"),
        r.elapsed as f64 / 1e6,
    );

    // Act 3: node 2 fail-stops early. The stall bound turns the hang into a report.
    let plan = FaultPlan::new(7).crash(2, us(100));
    let mut cluster = Cluster::new(chaos_config(plan), NODES);
    spawn_workload(&mut cluster, &CoreConfig::fast_test().with_stall_timeout(ms(20)));
    match cluster.try_run() {
        Ok(_) => unreachable!("the barrier cannot fall with node 2 dead"),
        Err(e) => {
            println!("act 3, fail-stop crash: run ended with a structured error:");
            println!("  {e}");
            println!("  crashed nodes: {:?}", e.crashed_nodes());
        }
    }
}
