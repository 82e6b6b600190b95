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
