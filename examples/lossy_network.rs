//! Demonstrates the §4.3 transport: CarlOS messages ride UDP-like
//! datagrams under a sliding-window protocol that delivers reliably and in
//! order even on a lossy wire. The same lock-protected shared counter runs
//! correctly with 15% of all datagrams dropped.
//!
//! Run with `cargo run --release --example lossy_network`.

use carlos::core::{CoreConfig, Runtime};
use carlos::lrc::LrcConfig;
use carlos::sim::time::ms;
use carlos::sim::transport::AckMode;
use carlos::sim::{Cluster, SimConfig};
use carlos::sync::{BarrierSpec, LockSpec};

const NODES: usize = 3;
const INCREMENTS: u32 = 10;

fn main() {
    let config = SimConfig::osdi94()
        .with_loss(0.15, 0xBAD_5EED)
        .with_ack(AckMode::Arq {
            window: 16,
            rto: ms(25),
        });
    let mut cluster = Cluster::new(config, NODES);
    for node in 0..NODES as u32 {
        cluster.spawn_node(node, move |ctx| {
            let mut rt = Runtime::new(ctx, LrcConfig::osdi94(NODES, 1 << 16), CoreConfig::osdi94());
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
            assert_eq!(total, INCREMENTS * NODES as u32, "loss corrupted the DSM");
            sys.barrier(&mut rt, BarrierSpec::global(9, 0), 1);
            rt.shutdown();
        });
    }
    let report = cluster.run();
    println!(
        "counter correct despite loss: {} datagrams sent, {} dropped ({:.1}%), {} retransmitted",
        report.net.messages,
        report.net.dropped,
        report.net.dropped as f64 / report.net.messages.max(1) as f64 * 100.0,
        report.counter_total("transport.retransmits"),
    );
}
