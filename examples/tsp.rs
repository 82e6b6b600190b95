//! The paper's §5.1 experiment as a runnable binary: branch-and-bound TSP
//! on 1-4 nodes, lock version versus hybrid (message-based work queue and
//! bound posting).
//!
//! Run with `cargo run --release --example tsp [-- small]`.

use carlos::apps::{launch, Answer, App, Reference, Scale, Spec, TspVariant};
use carlos::sim::Bucket;

fn main() {
    let small = std::env::args().any(|a| a == "small");
    let scale = if small { Scale::Test } else { Scale::Paper };
    for (variant, name) in [(TspVariant::Lock, "lock"), (TspVariant::Hybrid, "hybrid")] {
        let mut single = 0.0;
        for n in 1..=4usize {
            let run = launch(&Spec::new(App::Tsp(variant), n, scale)).unwrap_or_else(|e| {
                eprintln!("TSP/{name} on {n} node(s) failed: {e}");
                std::process::exit(1);
            });
            let Answer::Tsp(r) = run.answer else {
                unreachable!("a TSP run");
            };
            if n == 1 {
                single = r.app.secs;
            }
            println!(
                "TSP/{name} on {n} node(s): {:6.1}s  speedup {:4.2}  msgs {:>6}  avg {:>4}B  \
                 util {:4.1}%  idle {:4.1}s/node  best tour {}",
                r.app.secs,
                if r.app.secs > 0.0 { single / r.app.secs } else { 0.0 },
                r.app.messages,
                r.app.avg_msg_bytes,
                r.app.net_util * 100.0,
                r.app.bucket_secs(Bucket::Idle),
                r.best_len,
            );
        }
    }
    if small {
        // On test-scale instances an exact oracle fits in memory.
        let spec = Spec::new(App::Tsp(TspVariant::Lock), 1, scale);
        if let Reference::Tour(oracle) = Reference::of(&spec) {
            println!("Held-Karp optimum for the small instance: {oracle}");
        }
    }
}
