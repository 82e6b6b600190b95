//! Command line: the driver's single-workload protocol, the full run that
//! puts every workload in its own pinned process, and the subcommands.

use std::{
    fs,
    path::{Path, PathBuf},
    process::{Command as Process, ExitCode, Stdio},
    time::Instant,
};

use crate::{
    adapter::{self, JsonValue, Scale},
    compare, json, layers, pin, report,
    spans::Spans,
    spec::{self, Workload},
    workload::{self, Opts},
};

pub const USAGE: &str = "\
usage: benchmark/run.sh [--seed S] [--seconds T] [--smoke] [--out DIR]
           every workload, each in its own pinned process, after one
           `layers` process; writes DIR/results.json (default benchmark/out)
       benchmark/run.sh --workload W [--seed S] [--seconds T] [--trace 0|1] [--smoke]
           one workload in this process (the driver's protocol); the last
           line of standard output is the result as one JSON object
       benchmark/run.sh layers [--smoke]        the layer ladder and kernel timings
       benchmark/run.sh compare A B             two results.json sets, row by row
       benchmark/run.sh benchmark-json          BENCHMARK.json as the code declares it
workloads: qsort-hybrid-4 water-lock-4 kv-read-8 kv-write-8 kv-read-32 kv-chaos-8";

#[derive(Debug)]
pub enum Command {
    All {
        seed: u64,
        seconds: f64,
        scale: Scale,
        out_dir: PathBuf,
    },
    Workload(Opts),
    SetupProbe {
        workload: Workload,
        scale: Scale,
        seed: u64,
    },
    Layers {
        scale: Scale,
        out_dir: PathBuf,
    },
    Compare {
        a: PathBuf,
        b: PathBuf,
    },
    BenchmarkJson,
}

fn value<'a>(args: &'a [String], i: &mut usize, flag: &str) -> Result<&'a str, String> {
    *i += 1;
    args.get(*i)
        .map(String::as_str)
        .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
}

pub fn parse(args: &[String]) -> Result<Command, String> {
    let mut workload = None;
    let mut seed = 0u64;
    let mut seconds = spec::RUN_SECONDS as f64;
    let mut trace = true;
    let mut scale = Scale::Paper;
    let mut layers_file = None;
    let mut out_dir = PathBuf::from("benchmark/out");
    let mut setup_probe = false;
    let mut positional = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--workload" => {
                let name = value(args, &mut i, "--workload")?;
                workload = Some(
                    Workload::from_name(name)
                        .ok_or_else(|| format!("unknown workload {name}\n{USAGE}"))?,
                );
            }
            "--seed" => {
                let v = value(args, &mut i, "--seed")?;
                seed = v
                    .parse()
                    .map_err(|_| format!("--seed {v}: not a whole number"))?;
            }
            "--seconds" => {
                let v = value(args, &mut i, "--seconds")?;
                seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds {v}: not a positive number"))?;
            }
            "--trace" => {
                trace = match value(args, &mut i, "--trace")? {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace {v}: expected 0 or 1")),
                };
            }
            "--smoke" => scale = Scale::Test,
            "--layers" => layers_file = Some(PathBuf::from(value(args, &mut i, "--layers")?)),
            "--out" => out_dir = PathBuf::from(value(args, &mut i, "--out")?),
            "--setup-probe" => setup_probe = true,
            "--help" | "-h" => return Err(USAGE.to_owned()),
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag}\n{USAGE}")),
            word => positional.push(word),
        }
        i += 1;
    }
    match (positional.as_slice(), workload) {
        ([], Some(workload)) if setup_probe => Ok(Command::SetupProbe {
            workload,
            scale,
            seed,
        }),
        ([], Some(workload)) => Ok(Command::Workload(Opts {
            workload,
            seed,
            seconds,
            trace,
            scale,
            layers_file,
            out_dir,
        })),
        ([] | ["all"], None) => Ok(Command::All {
            seed,
            seconds,
            scale,
            out_dir,
        }),
        (["layers"], None) => Ok(Command::Layers { scale, out_dir }),
        (["compare", a, b], None) => Ok(Command::Compare {
            a: PathBuf::from(a),
            b: PathBuf::from(b),
        }),
        (["benchmark-json"], None) => Ok(Command::BenchmarkJson),
        _ => Err(format!("cannot combine these arguments\n{USAGE}")),
    }
}

pub fn execute(cmd: Command, started: Instant) -> Result<ExitCode, String> {
    match cmd {
        Command::SetupProbe {
            workload,
            scale,
            seed,
        } => {
            workload::setup_probe(workload, scale, seed);
            Ok(ExitCode::SUCCESS)
        }
        Command::Workload(opts) => run_workload(&opts, started),
        Command::Layers { scale, out_dir } => run_layers(scale, &out_dir, started),
        Command::All {
            seed,
            seconds,
            scale,
            out_dir,
        } => run_all(seed, seconds, scale, &out_dir, started),
        Command::Compare { a, b } => Ok(if compare::run(&a, &b)? {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }),
        Command::BenchmarkJson => {
            print!("{}", spec::benchmark_json());
            Ok(ExitCode::SUCCESS)
        }
    }
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn warn_unpinned(pin: &pin::Pin) {
    if !pin.pinned {
        eprintln!(
            "warning: could not pin to one CPU (allowed: {:?}); host metrics are not gated",
            pin.allowed
        );
    }
}

fn run_workload(opts: &Opts, started: Instant) -> Result<ExitCode, String> {
    let pin = pin::pin_to_one();
    warn_unpinned(&pin);
    let mut spans = Spans::new(started);
    let name = opts.workload.name();
    let outcome = workload::run(opts, &pin, &mut spans, started);
    // Spans are written even when the run failed: they show how far it got.
    let spans_path = opts.out_dir.join(format!("{name}.spans.json"));
    write(&spans_path, &spans.chrome_trace())?;
    let outcome = outcome?;
    report::write_outcome(&outcome, &opts.out_dir)
        .map_err(|e| format!("{}: {e}", opts.out_dir.display()))?;
    report::print_human(&outcome);
    println!("{}", report::driver_line(&outcome));
    Ok(ExitCode::SUCCESS)
}

fn run_layers(scale: Scale, out_dir: &Path, started: Instant) -> Result<ExitCode, String> {
    let pin = pin::pin_to_one();
    warn_unpinned(&pin);
    let mut spans = Spans::new(started);
    let costs = layers::measure(&mut spans, layers::Size::own_process(scale))?;
    write(&out_dir.join("layers.spans.json"), &spans.chrome_trace())?;
    write(&out_dir.join("layers.json"), &layers::to_json(&costs))?;
    for (name, ns) in &costs {
        println!("layers  {name} = {} ns", json::num(*ns));
    }
    if scale == Scale::Paper && !layers::ordered(&costs) {
        println!("layers  warning: the layer ladder is not ordered");
    }
    Ok(ExitCode::SUCCESS)
}

/// Runs `exe args` to its end; returns its standard output.
fn child(exe: &Path, args: &[String]) -> Result<String, String> {
    let out = Process::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("{}: {e}", exe.display()))?;
    if !out.status.success() {
        return Err(format!("`{}` exited with {}", args.join(" "), out.status));
    }
    String::from_utf8(out.stdout).map_err(|e| format!("`{}`: {e}", args.join(" ")))
}

fn run_all(
    seed: u64,
    seconds: f64,
    scale: Scale,
    out_dir: &Path,
    started: Instant,
) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = out_dir.display().to_string();
    let smoke: &[String] = if scale == Scale::Test {
        &["--smoke".to_owned()]
    } else {
        &[]
    };
    let mut args = vec!["layers".to_owned(), "--out".to_owned(), out.clone()];
    args.extend_from_slice(smoke);
    print!("{}", child(&exe, &args)?);
    let layers_path = out_dir.join("layers.json");
    let layers_text =
        fs::read_to_string(&layers_path).map_err(|e| format!("{}: {e}", layers_path.display()))?;

    let mut sections = Vec::new();
    let mut all_correct = true;
    let mut all_pinned = true;
    let mut nproc = 0.0;
    for w in Workload::ALL {
        let mut args: Vec<String> = [
            "--workload",
            w.name(),
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
            "--trace",
            "1",
            "--layers",
            &layers_path.display().to_string(),
            "--out",
            &out,
        ]
        .map(str::to_owned)
        .to_vec();
        args.extend_from_slice(smoke);
        let stdout = child(&exe, &args)?;
        // Everything but the driver's line, which is the last one.
        let human = stdout
            .trim_end()
            .rsplit_once('\n')
            .map_or("", |(head, _)| head);
        println!("{human}");
        let path = out_dir.join(format!("{}.json", w.name()));
        let text = fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = adapter::json_parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let flag = |k: &str| doc.get(k) == Some(&JsonValue::Bool(true));
        all_correct &= flag("correct");
        all_pinned &= flag("pinned");
        nproc = doc
            .get("nproc")
            .and_then(JsonValue::as_f64)
            .unwrap_or(nproc);
        let wall = doc.get("wall_s").and_then(JsonValue::as_f64).unwrap_or(0.0);
        println!(
            "# {} finished in {wall:.1} s, correct {}",
            w.name(),
            flag("correct")
        );
        sections.push(format!("{}: {}", json::string(w.name()), text.trim_end()));
    }
    let wall_s = started.elapsed().as_secs_f64();
    let results = format!(
        "{{\n\"benchmark\": \"carlos-benchmark\",\n\"seed\": {seed},\n\"scale\": \"{}\",\n\
         \"pinned\": {all_pinned},\n\"nproc\": {nproc},\n\"wall_s\": {},\n\"layers\": {},\n\
         \"workloads\": {{\n{}\n}}\n}}\n",
        scale.name(),
        json::num(wall_s),
        layers_text.trim_end(),
        sections.join(",\n")
    );
    let results_path = out_dir.join("results.json");
    write(&results_path, &results)?;
    println!(
        "# whole benchmark: {wall_s:.1} s, pinned {all_pinned}, all correct {all_correct}; wrote {}",
        results_path.display()
    );
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_words(words: &[&str]) -> Result<Command, String> {
        parse(&words.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>())
    }

    #[test]
    fn the_drivers_protocol_parses() {
        let cmd = parse_words(&[
            "--workload",
            "kv-read-8",
            "--seed",
            "7",
            "--seconds",
            "8",
            "--trace",
            "0",
        ])
        .unwrap();
        let Command::Workload(o) = cmd else {
            panic!("not a workload run");
        };
        assert_eq!((o.workload, o.seed, o.trace), (Workload::KvRead8, 7, false));
        assert_eq!(o.scale, Scale::Paper);
        assert!((o.seconds - 8.0).abs() < f64::EPSILON);
    }

    #[test]
    fn subcommands_and_errors_parse() {
        assert!(matches!(parse_words(&[]), Ok(Command::All { seed: 0, .. })));
        assert!(matches!(
            parse_words(&["--smoke", "--seed", "3"]),
            Ok(Command::All {
                seed: 3,
                scale: Scale::Test,
                ..
            })
        ));
        assert!(matches!(
            parse_words(&["layers"]),
            Ok(Command::Layers { .. })
        ));
        assert!(matches!(
            parse_words(&["compare", "a", "b"]),
            Ok(Command::Compare { .. })
        ));
        assert!(matches!(
            parse_words(&["benchmark-json"]),
            Ok(Command::BenchmarkJson)
        ));
        assert!(matches!(
            parse_words(&["--setup-probe", "--workload", "water-lock-4"]),
            Ok(Command::SetupProbe { .. })
        ));
        for bad in [
            &["--workload", "tsp"][..],
            &["--trace", "2"],
            &["--seconds", "0"],
            &["--seed"],
            &["compare", "a"],
            &["--frobnicate"],
            &["layers", "--workload", "kv-read-8"],
        ] {
            assert!(parse_words(bad).is_err(), "{bad:?}");
        }
    }
}
