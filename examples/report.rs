//! The paper report: regenerates every table and figure of the paper's
//! evaluation — Tables 1–3 (plus SOR) across 1–4 nodes, Figure 2, §5.4's
//! microcosts, per-notice costs and all-RELEASE runs, §5's TreadMarks-style
//! dispatch — and the ablations beyond it, every row traced, writing
//! `BENCH_paper.json` and printing a Markdown report with per-message-class
//! cost attribution. TSP Lock and SOR also run at 8 nodes, extending the
//! scaling tables past the paper's testbed. Appends the serving rows
//! (`carlos::serve`): open-loop Zipfian KV traffic at 8–32 nodes (tail latency,
//! ops/s, bytes/op) plus a chaos row reporting harvest and yield under
//! burst loss and a partition.
//!
//! Run with `cargo run --release --example report`. Environment:
//!
//! - `CARLOS_REPORT_QUICK=1` — test-scale workloads (what CI runs);
//! - `CARLOS_REPORT_OUT=path` — JSON destination (default
//!   `BENCH_paper.json` in the current directory);
//! - `CARLOS_REPORT_BASELINE=path` — the regression gate against a
//!   committed report: every baseline row and serve row must come back
//!   with every field equal, host seconds apart (`row_gate`); exits
//!   nonzero otherwise.

use std::fmt::Display;

use carlos::apps::Scale;
use carlos::bench::report::{
    microcosts_markdown, row_gate, run_microcosts, run_report, run_serve_rows, serve_markdown,
    to_json, to_markdown, ReportOptions, SPECS,
};

/// The value, or exit 1 after printing `what` and the error.
fn or_exit<T>(r: Result<T, impl Display>, what: &str) -> T {
    r.unwrap_or_else(|e| {
        eprintln!("{what}: {e}");
        std::process::exit(1);
    })
}

fn main() {
    let opts = ReportOptions::from_env();
    eprintln!(
        "running report at {} scale, 1-{} nodes + 8-node TSP/SOR...",
        if opts.scale == Scale::Quick { "quick" } else { "paper" },
        opts.max_nodes
    );
    let rows = or_exit(run_report(SPECS, &opts), "report failed");
    let micro = or_exit(run_microcosts(), "microcosts failed");
    eprintln!("running serve rows (KV + KV/chaos)...");
    let serve = or_exit(run_serve_rows(&opts), "serve report failed");
    let path =
        std::env::var("CARLOS_REPORT_OUT").unwrap_or_else(|_| "BENCH_paper.json".to_string());
    let json = to_json(&rows, Some(&micro), &serve, &opts);
    or_exit(std::fs::write(&path, &json), &format!("cannot write {path}"));
    eprintln!("wrote {path}");
    if let Ok(baseline_path) = std::env::var("CARLOS_REPORT_BASELINE") {
        let baseline = or_exit(
            std::fs::read_to_string(&baseline_path),
            &format!("cannot read baseline {baseline_path}"),
        );
        for line in or_exit(row_gate(&json, &baseline), "row gate FAILED") {
            eprintln!("row gate: {line}");
        }
    }
    println!("{}", to_markdown(&rows));
    println!("{}", microcosts_markdown(&micro));
    println!("{}", serve_markdown(&serve));
}
