//! `carlos-repro` — command-line driver for the CarlOS reproduction.
//!
//! ```text
//! carlos-repro table1|table2|table3|figure2      regenerate a paper artifact
//!                                               (CARLOS_REPORT_QUICK=1: test scale)
//! carlos-repro tsp    [--nodes N] [--variant lock|hybrid] [--small]
//! carlos-repro qsort  [--nodes N] [--variant lock|hybrid1|hybrid2] [--small]
//! carlos-repro water  [--nodes N] [--variant lock|hybrid] [--small]
//! carlos-repro sor    [--nodes N] [--update] [--small]
//! ```
//!
//! Build with `cargo build --release` and run
//! `target/release/carlos-repro <command>`, or use
//! `cargo run --release --bin carlos-repro -- <command>`.

use carlos::apps::{
    qsort::{run_qsort, QsortConfig, QsortVariant},
    sor::{run_sor, SorConfig},
    tsp::{run_tsp, TspConfig, TspVariant},
    water::{run_water, WaterConfig, WaterVariant},
};
use carlos::bench::report::{run_report, to_markdown, ReportOptions, SPECS};
use carlos::sim::Bucket;

fn usage() -> ! {
    eprintln!(
        "usage: carlos-repro <command> [options]\n\
         \n\
         paper artifacts:\n\
         \x20 table1 | table2 | table3 | figure2\n\
         \n\
         single application runs:\n\
         \x20 tsp    [--nodes N] [--variant lock|hybrid] [--small] [--all-release]\n\
         \x20 qsort  [--nodes N] [--variant lock|hybrid1|hybrid2|noforward] [--small]\n\
         \x20 water  [--nodes N] [--variant lock|hybrid] [--small] [--all-release]\n\
         \x20 sor    [--nodes N] [--update] [--small]\n\
         \n\
         options:\n\
         \x20 --nodes N       cluster size (default 4)\n\
         \x20 --small         test-scale workload instead of paper scale\n\
         \x20 --update        update coherence strategy (sor)\n\
         \x20 --all-release   mark every message RELEASE (tsp, water)"
    );
    std::process::exit(2);
}

struct Opts {
    nodes: usize,
    small: bool,
    variant: Option<String>,
    update: bool,
    all_release: bool,
}

fn parse_opts(args: &[String]) -> Opts {
    let mut o = Opts {
        nodes: 4,
        small: false,
        variant: None,
        update: false,
        all_release: false,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--nodes" => {
                let v = it.next().unwrap_or_else(|| usage());
                o.nodes = v.parse().unwrap_or_else(|_| usage());
                if o.nodes == 0 || o.nodes > 16 {
                    eprintln!("--nodes must be 1..=16");
                    std::process::exit(2);
                }
            }
            "--variant" => o.variant = Some(it.next().unwrap_or_else(|| usage()).clone()),
            "--small" => o.small = true,
            "--update" => o.update = true,
            "--all-release" => o.all_release = true,
            _ => usage(),
        }
    }
    o
}

fn print_report(label: &str, app: &carlos::apps::harness::AppReport) {
    println!(
        "{label}: {:.2}s  msgs {}  avg {}B  util {:.1}%",
        app.secs,
        app.messages,
        app.avg_msg_bytes,
        app.net_util * 100.0
    );
    for b in Bucket::ALL {
        println!("  {:>6}: {:6.2}s per node", b.name(), app.bucket_secs(b));
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else { usage() };
    let rest = &args[1..];
    match cmd.as_str() {
        "table1" | "table2" | "table3" | "figure2" => {
            // The report's rows for the paper's tables: one table's
            // application, or all three for Figure 2.
            let app = match cmd.as_str() {
                "table1" => Some("TSP"),
                "table2" => Some("Quicksort"),
                "table3" => Some("Water"),
                _ => None,
            };
            let specs: Vec<_> = SPECS
                .iter()
                .filter(|s| s.in_paper_tables() && app.is_none_or(|a| s.workload.app() == a))
                .copied()
                .collect();
            let rows = run_report(&specs, &ReportOptions::from_env()).unwrap_or_else(|e| {
                eprintln!("{cmd} failed: {e}");
                std::process::exit(1);
            });
            println!("{}", to_markdown(&rows));
        }
        "tsp" => {
            let o = parse_opts(rest);
            let variant = match o.variant.as_deref() {
                None | Some("hybrid") => TspVariant::Hybrid,
                Some("lock") => TspVariant::Lock,
                _ => usage(),
            };
            let mut cfg = if o.small {
                TspConfig::test(o.nodes, variant)
            } else {
                TspConfig::paper(o.nodes, variant)
            };
            cfg.all_release = o.all_release;
            let r = run_tsp(&cfg);
            print_report("TSP", &r.app);
            println!("  best tour {}  expansions {}", r.best_len, r.expansions);
        }
        "qsort" => {
            let o = parse_opts(rest);
            let variant = match o.variant.as_deref() {
                None | Some("hybrid1") => QsortVariant::Hybrid1,
                Some("lock") => QsortVariant::Lock,
                Some("hybrid2") => QsortVariant::Hybrid2,
                Some("noforward") => QsortVariant::HybridNoForward,
                _ => usage(),
            };
            let cfg = if o.small {
                QsortConfig::test(o.nodes, variant)
            } else {
                QsortConfig::paper(o.nodes, variant)
            };
            let r = run_qsort(&cfg);
            print_report("Quicksort", &r.app);
            println!("  sorted: {}  permutation: {}", r.sorted, r.permutation_ok);
        }
        "water" => {
            let o = parse_opts(rest);
            let variant = match o.variant.as_deref() {
                None | Some("hybrid") => WaterVariant::Hybrid,
                Some("lock") => WaterVariant::Lock,
                _ => usage(),
            };
            let mut cfg = if o.small {
                WaterConfig::test(o.nodes, variant)
            } else {
                WaterConfig::paper(o.nodes, variant)
            };
            cfg.all_release = o.all_release;
            let r = run_water(&cfg);
            print_report("Water", &r.app);
            println!("  kinetic energy {:.4}", r.kinetic);
        }
        "sor" => {
            let o = parse_opts(rest);
            let mut cfg = if o.small {
                SorConfig::test(o.nodes)
            } else {
                SorConfig::paper_scale(o.nodes)
            };
            if o.update {
                cfg.core = cfg.core.with_update_strategy();
            }
            let r = run_sor(&cfg);
            print_report("SOR", &r.app);
            println!("  checksum {:.3}", r.checksum);
        }
        _ => usage(),
    }
}
