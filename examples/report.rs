//! The paper-table report harness: regenerates the paper's Tables 1–3
//! (plus SOR) across 1–4 nodes with a metrics-only tracer installed,
//! writing `BENCH_paper.json` and printing a Markdown report with
//! per-message-class cost attribution (§5.4's microcosts, end to end).
//! TSP Lock and SOR also run at 8 nodes, extending the scaling tables past
//! the paper's testbed. Appends the `carlos-serve` serving rows: open-loop
//! Zipfian KV traffic at 8–32 nodes (tail latency, ops/s, bytes/op) plus a
//! chaos row reporting harvest and yield under burst loss and a partition.
//!
//! Run with `cargo run --release --example report`. Environment:
//!
//! - `CARLOS_REPORT_QUICK=1` — test-scale workloads (what CI runs);
//! - `CARLOS_REPORT_OUT=path` — JSON destination (default
//!   `BENCH_paper.json` in the current directory).

//! - `CARLOS_REPORT_BASELINE=path` — regression gates: compare the fresh
//!   TSP/Quicksort Lock n=4 rows (messages, SYSTEM bytes) and the serve
//!   rows (p999 latency, yield) against the committed baseline report
//!   JSON and exit nonzero if any grew/shrank >5%.

use carlos::bench::report::{
    run_report, run_serve_rows, serve_gate, serve_markdown, to_json, to_markdown, traffic_gate,
    ReportOptions,
};

fn main() {
    let opts = ReportOptions::from_env();
    eprintln!(
        "running report at {} scale, 1-{} nodes + 8-node TSP/SOR...",
        if opts.quick { "test" } else { "paper" },
        opts.max_nodes
    );
    let rows = run_report(&opts).unwrap_or_else(|e| {
        eprintln!("report failed: {e}");
        std::process::exit(1);
    });
    eprintln!("running serve rows (KV + KV/chaos)...");
    let serve = run_serve_rows(&opts).unwrap_or_else(|e| {
        eprintln!("serve report failed: {e}");
        std::process::exit(1);
    });
    let path =
        std::env::var("CARLOS_REPORT_OUT").unwrap_or_else(|_| "BENCH_paper.json".to_string());
    match std::fs::write(&path, to_json(&rows, &serve, &opts)) {
        Ok(()) => eprintln!("wrote {path}"),
        Err(e) => {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        }
    }
    if let Ok(baseline_path) = std::env::var("CARLOS_REPORT_BASELINE") {
        let baseline = std::fs::read_to_string(&baseline_path).unwrap_or_else(|e| {
            eprintln!("cannot read baseline {baseline_path}: {e}");
            std::process::exit(1);
        });
        match traffic_gate(&rows, &baseline) {
            Ok(lines) => {
                for line in lines {
                    eprintln!("traffic gate: {line}");
                }
            }
            Err(e) => {
                eprintln!("traffic gate FAILED: {e}");
                std::process::exit(1);
            }
        }
        match serve_gate(&serve, &baseline) {
            Ok(lines) => {
                for line in lines {
                    eprintln!("serve gate: {line}");
                }
            }
            Err(e) => {
                eprintln!("serve gate FAILED: {e}");
                std::process::exit(1);
            }
        }
    }
    println!("{}", to_markdown(&rows));
    println!("{}", serve_markdown(&serve));
}
