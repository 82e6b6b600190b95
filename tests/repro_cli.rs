//! The `carlos-repro` command line: every application command runs at test
//! scale and exits 0, and an unknown flag is a usage error (exit 2).

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_carlos-repro"))
        .args(args)
        .output()
        .expect("carlos-repro starts")
}

/// Runs `args`, asserts exit 0, and asserts the report names `app`.
fn runs(args: &[&str], app: &str) {
    let out = repro(args);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "carlos-repro {args:?}: {}\n{stdout}{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.starts_with(&format!("{app}:")), "carlos-repro {args:?}:\n{stdout}");
}

#[test]
fn each_app_command_runs_at_small_scale() {
    for (cmd, app) in [("tsp", "TSP"), ("qsort", "Quicksort"), ("water", "Water"), ("sor", "SOR")] {
        runs(&[cmd, "--small", "--nodes", "2"], app);
    }
    runs(&["kv", "--small", "--nodes", "2"], "KV");
    runs(&["kv", "--chaos", "--nodes", "2"], "KV/chaos");
}

#[test]
fn all_release_is_a_variant() {
    for (cmd, app) in [("tsp", "TSP"), ("water", "Water")] {
        runs(&[cmd, "--small", "--nodes", "2", "--variant", "allrelease"], app);
    }
}

#[test]
fn all_release_flag_is_a_usage_error() {
    for cmd in ["tsp", "water"] {
        let out = repro(&[cmd, "--small", "--nodes", "2", "--all-release"]);
        assert_eq!(out.status.code(), Some(2), "carlos-repro {cmd} --all-release");
    }
}

/// `carlos-repro docs` run in a copy of the repository's report and
/// documents: what it writes into `out/`.
fn docs_from(report: &str, case: &str) -> (String, String) {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(case);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temporary directory");
    std::fs::write(dir.join("BENCH_paper.json"), report).expect("report copy");
    for doc in ["EXPERIMENTS.md", "README.md"] {
        std::fs::copy(root.join(doc), dir.join(doc)).expect("document copy");
    }
    let out = Command::new(env!("CARGO_BIN_EXE_carlos-repro"))
        .args(["docs", "out"])
        .current_dir(&dir)
        .output()
        .expect("carlos-repro starts");
    assert!(out.status.success(), "carlos-repro docs: {}", String::from_utf8_lossy(&out.stderr));
    let read = |doc: &str| std::fs::read_to_string(dir.join("out").join(doc)).expect("written");
    (read("EXPERIMENTS.md"), read("README.md"))
}

/// `carlos-repro docs` renders both documents from the report in its
/// directory: one number changed in a row that a generated table shows
/// (TSP Lock on four nodes, in Table 1 and in README's headline table)
/// changes both. That the committed documents are the committed report's
/// rendering is `carlos_bench::docs`'s unit test.
#[test]
fn docs_are_rendered_from_the_committed_report() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let report = std::fs::read_to_string(root.join("BENCH_paper.json")).expect("committed report");
    let (experiments, readme) = docs_from(&report, "docs_committed");

    let row = "\"app\": \"TSP\", \"variant\": \"Lock\", \"n\": 4,";
    let at = report.find(row).expect("the TSP Lock n = 4 row");
    let messages = at + report[at..].find("\"messages\": ").expect("its messages");
    let edited = format!("{}\"messages\": 1{}", &report[..messages], &report[messages + 12..]);
    let (edited_experiments, edited_readme) = docs_from(&edited, "docs_edited");
    assert!(edited_experiments != experiments, "an edited row left EXPERIMENTS.md as it was");
    assert!(edited_readme != readme, "an edited row left README.md as it was");
}
