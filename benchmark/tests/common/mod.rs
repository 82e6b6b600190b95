//! Shared by the integration tests: run the built binary at smoke scale.

use std::{
    path::{Path, PathBuf},
    process::Command,
};

pub use carlos_benchmark::adapter::{json_parse, JsonValue};

/// A fresh output directory for one test (tests run in parallel and must
/// not share files).
pub fn out_dir(test: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(test);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create output directory");
    dir
}

/// Runs `carlos-benchmark args` from the repository root; returns stdout.
pub fn bench(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_carlos-benchmark"))
        .args(args)
        .current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/.."))
        .output()
        .expect("benchmark binary starts");
    assert!(
        out.status.success(),
        "`{}` failed: {}\n{}",
        args.join(" "),
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("UTF-8 output")
}

pub fn read_json(path: &Path) -> JsonValue {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    json_parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}
