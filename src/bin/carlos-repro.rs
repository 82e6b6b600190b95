//! `carlos-repro` — command-line driver for the CarlOS reproduction.
//!
//! ```text
//! carlos-repro table1|table2|table3|figure2      regenerate a paper artifact
//!                                               (CARLOS_REPORT_QUICK=1: test scale)
//! carlos-repro docs <dir>                       EXPERIMENTS.md and README.md with their
//!                                               tables rendered from BENCH_paper.json
//! carlos-repro tsp    [--nodes N] [--variant lock|hybrid|allrelease] [--small] [--update]
//! carlos-repro qsort  [--nodes N] [--variant lock|hybrid1|hybrid2|noforward] [--small] [--update]
//! carlos-repro water  [--nodes N] [--variant lock|hybrid|allrelease] [--small] [--update]
//! carlos-repro sor    [--nodes N] [--small] [--update]
//! carlos-repro kv     [--nodes N] [--small | --chaos]
//! ```
//!
//! Build with `cargo build --release` and run
//! `target/release/carlos-repro <command>`, or use
//! `cargo run --release --bin carlos-repro -- <command>`.

use carlos::apps::{
    launch, Answer, App, QsortVariant, Scale, Spec, Traffic, TspVariant, Tweak, WaterVariant,
};
use carlos::bench::docs;
use carlos::bench::report::{
    decode, run_report, serve_markdown, serve_row, to_json, to_markdown, ReportOptions, SPECS,
};
use carlos::sim::Bucket;

fn usage() -> ! {
    eprintln!(
        "usage: carlos-repro <command> [options]\n\
         \n\
         paper artifacts:\n\
         \x20 table1 | table2 | table3 | figure2\n\
         \x20 docs <dir>      write EXPERIMENTS.md and README.md into <dir>, their\n\
         \x20                 generated tables rendered from ./BENCH_paper.json\n\
         \n\
         single application runs:\n\
         \x20 tsp    [--nodes N] [--variant lock|hybrid|allrelease] [--small] [--update]\n\
         \x20 qsort  [--nodes N] [--variant lock|hybrid1|hybrid2|noforward] [--small] [--update]\n\
         \x20 water  [--nodes N] [--variant lock|hybrid|allrelease] [--small] [--update]\n\
         \x20 sor    [--nodes N] [--small] [--update]\n\
         \x20 kv     [--nodes N] [--small | --chaos]\n\
         \n\
         options:\n\
         \x20 --nodes N       cluster size (default 4; kv: half servers, at least 2)\n\
         \x20 --small         test-scale workload instead of paper scale\n\
         \x20 --update        update coherence strategy\n\
         \x20 --variant allrelease  hybrid with its REQUEST (tsp) or NONE (water)\n\
         \x20                       sends marked RELEASE (section 5.4)\n\
         \x20 --chaos         kv at test scale under burst loss and a partition"
    );
    std::process::exit(2);
}

/// Parses one application run's options into a [`Spec`].
fn parse_spec(cmd: &str, args: &[String]) -> Spec {
    let (mut nodes, mut scale, mut tweak, mut variant) = (4, Scale::Paper, Tweak::None, None);
    let (mut traffic, least) = (Traffic::Steady, if cmd == "kv" { 2 } else { 1 });
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--nodes" => {
                let v = it.next().unwrap_or_else(|| usage());
                nodes = v.parse().unwrap_or_else(|_| usage());
                if !(least..=16).contains(&nodes) {
                    eprintln!("--nodes must be {least}..=16");
                    std::process::exit(2);
                }
            }
            "--variant" => variant = Some(it.next().unwrap_or_else(|| usage()).as_str()),
            "--small" => scale = Scale::Test,
            "--update" => tweak = Tweak::Update,
            "--chaos" if cmd == "kv" => (traffic, scale) = (Traffic::Chaos, Scale::Test),
            _ => usage(),
        }
    }
    let app = match (cmd, variant) {
        ("tsp", None | Some("hybrid")) => App::Tsp(TspVariant::Hybrid),
        ("tsp", Some("lock")) => App::Tsp(TspVariant::Lock),
        ("tsp", Some("allrelease")) => App::Tsp(TspVariant::HybridAllRelease),
        ("qsort", None | Some("hybrid1")) => App::Quicksort(QsortVariant::Hybrid1),
        ("qsort", Some("lock")) => App::Quicksort(QsortVariant::Lock),
        ("qsort", Some("hybrid2")) => App::Quicksort(QsortVariant::Hybrid2),
        ("qsort", Some("noforward")) => App::Quicksort(QsortVariant::HybridNoForward),
        ("water", None | Some("hybrid")) => App::Water(WaterVariant::Hybrid),
        ("water", Some("lock")) => App::Water(WaterVariant::Lock),
        ("water", Some("allrelease")) => App::Water(WaterVariant::HybridAllRelease),
        ("sor", None) => App::Sor,
        ("kv", None) => App::Serve(traffic),
        _ => usage(),
    };
    Spec {
        tweak,
        ..Spec::new(app, nodes, scale)
    }
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
                .filter(|s| s.in_paper_tables() && app.is_none_or(|a| s.app.name() == a))
                .copied()
                .collect();
            let opts = ReportOptions::from_env();
            let rows = run_report(&specs, &opts).unwrap_or_else(|e| {
                eprintln!("{cmd} failed: {e}");
                std::process::exit(1);
            });
            let report = decode(&to_json(&rows, None, &[], &opts)).expect("the report decodes");
            print!("{}", to_markdown(&report));
        }
        "docs" => {
            let [dir] = rest else { usage() };
            if let Err(e) = docs::write(std::path::Path::new(dir)) {
                eprintln!("docs failed: {e}");
                std::process::exit(1);
            }
        }
        "tsp" | "qsort" | "water" | "sor" | "kv" => {
            let spec = parse_spec(cmd, rest);
            let started = std::time::Instant::now();
            let run = launch(&spec).unwrap_or_else(|e| {
                eprintln!("{cmd} failed: {e}");
                std::process::exit(1);
            });
            let host = started.elapsed().as_secs_f64();
            print_report(spec.app.name(), run.app());
            match &run.answer {
                Answer::Tsp(r) => {
                    println!("  best tour {}  expansions {}", r.best_len, r.expansions)
                }
                Answer::Quicksort(r) => {
                    println!("  sorted: {}  permutation: {}", r.sorted, r.permutation_ok);
                }
                Answer::Water(r) => println!("  kinetic energy {:.4}", r.kinetic),
                Answer::Sor(r) => println!("  checksum {:.3}", r.checksum),
                Answer::Serve(r) => {
                    print!("{}", serve_markdown(&[serve_row(&spec, r, host)]));
                    println!("  counters {:?}", r.counters);
                }
            }
        }
        _ => usage(),
    }
}
