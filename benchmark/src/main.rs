//! `carlos-benchmark`: see `benchmark/README.md` and `run.sh`.

use std::{process::ExitCode, time::Instant};

use carlos_benchmark::cli;

fn main() -> ExitCode {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match cli::parse(&args).and_then(|cmd| cli::execute(cmd, started)) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("carlos-benchmark: {msg}");
            ExitCode::from(2)
        }
    }
}
