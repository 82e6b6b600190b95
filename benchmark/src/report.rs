//! Output: the per-workload result file, the lines a person reads, and
//! the one JSON line the driver reads.

use std::{fs, io, path::Path};

use crate::{
    json, spec,
    workload::{Metric, Outcome},
};

fn strings(items: &[String]) -> String {
    let quoted: Vec<String> = items.iter().map(|s| json::string(s)).collect();
    format!("[{}]", quoted.join(", "))
}

/// A host metric measured unpinned is reported but not gated: `compare`
/// and the reader must not take it as evidence.
fn gated(decl: &spec::EndToEnd, pinned: bool) -> bool {
    decl.clock == spec::Clock::Virtual || pinned
}

fn e2e_json(name: &str, m: &Metric, pinned: bool) -> String {
    let decl = spec::end_to_end(name).expect("recorded metrics are declared");
    let mut s = format!(
        "{{\"value\": {}, \"unit\": {}, \"clock\": \"{}\", \"better\": \"{}\", \"gated\": {}",
        json::num(m.value),
        json::string(decl.unit),
        decl.clock.name(),
        decl.better.name(),
        gated(decl, pinned)
    );
    if let Some(stat) = m.stat {
        s.push_str(&format!(
            ", \"q1\": {}, \"q3\": {}, \"n\": {}",
            json::num(stat.q1),
            json::num(stat.q3),
            stat.n
        ));
    }
    s.push('}');
    s
}

fn layer_decl(name: &str) -> &'static spec::Layer {
    spec::layer(name).expect("recorded metrics are declared")
}

/// The workload's result file: everything measured, with quartiles and
/// repetition counts of the host metrics, and which clock each uses.
pub fn outcome_json(o: &Outcome) -> String {
    let e2e: Vec<String> = o
        .end_to_end
        .iter()
        .map(|(name, m)| {
            format!(
                "    {}: {}",
                json::string(name),
                e2e_json(name, m, o.pinned)
            )
        })
        .collect();
    let layer: Vec<String> = o
        .per_layer
        .iter()
        .map(|(name, m)| {
            let decl = layer_decl(name);
            format!(
                "    {}: {{\"value\": {}, \"unit\": {}, \"clock\": \"{}\"}}",
                json::string(name),
                json::num(m.value),
                json::string(decl.unit),
                decl.clock.name()
            )
        })
        .collect();
    format!(
        "{{\n  \"workload\": {},\n  \"seed\": {},\n  \"scale\": \"{}\",\n  \"traced\": {},\n  \
         \"pinned\": {},\n  \"nproc\": {},\n  \"correct\": {},\n  \"attempted\": {},\n  \
         \"failed\": {},\n  \"unexpected\": {},\n  \"notes\": {},\n  \"warnings\": {},\n  \
         \"wall_s\": {},\n  \"end_to_end\": {{\n{}\n  }},\n  \"per_layer\": {{\n{}\n  }}\n}}\n",
        json::string(o.workload.name()),
        o.seed,
        o.scale.name(),
        o.traced,
        o.pinned,
        o.nproc,
        o.correct,
        o.attempted,
        o.failed,
        o.unexpected,
        strings(&o.notes),
        strings(&o.warnings),
        json::num(o.wall_s),
        e2e.join(",\n"),
        layer.join(",\n"),
    )
}

pub fn write_outcome(o: &Outcome, dir: &Path) -> io::Result<()> {
    fs::create_dir_all(dir)?;
    fs::write(
        dir.join(format!("{}.json", o.workload.name())),
        outcome_json(o),
    )
}

/// Every metric by name, with its unit; host metrics with quartiles and
/// count, and gated only when the process was pinned.
pub fn print_human(o: &Outcome) {
    let w = o.workload.name();
    println!(
        "# {w}  seed {}  scale {}  pinned {}  nproc {}  {} of {} operations failed  correct {}",
        o.seed,
        o.scale.name(),
        o.pinned,
        o.nproc,
        o.failed,
        o.attempted,
        o.correct
    );
    for (name, m) in &o.end_to_end {
        let decl = spec::end_to_end(name).expect("recorded metrics are declared");
        let spread = m.stat.map_or_else(String::new, |s| {
            format!("  [q1 {:.6} q3 {:.6} n {}]", s.q1, s.q3, s.n)
        });
        let gate = if gated(decl, o.pinned) {
            ""
        } else {
            "  (unpinned: not gated)"
        };
        println!(
            "{w}  {name} = {} {}  ({} clock, {} is better){spread}{gate}",
            json::num(m.value),
            decl.unit,
            decl.clock.name(),
            decl.better.name()
        );
    }
    for (name, m) in &o.per_layer {
        let decl = layer_decl(name);
        println!(
            "{w}  {name} = {} {}  ({} clock)",
            json::num(m.value),
            decl.unit,
            decl.clock.name()
        );
    }
    for note in &o.notes {
        println!("{w}  CHECK FAILED: {note}");
    }
    for warning in &o.warnings {
        println!("{w}  warning: {warning}");
    }
}

/// The driver's line: `correct`, `attempted`, `failed` and, with
/// `--trace 0`, every `end_to_end` metric of `BENCHMARK.json`; with
/// `--trace 1`, every `per_layer` metric (0 where the workload has none).
pub fn driver_line(o: &Outcome) -> String {
    let metrics: Vec<String> = if o.traced {
        spec::per_layer_names()
            .map(|(name, unit)| {
                let value = o
                    .per_layer
                    .get(name)
                    .or_else(|| o.end_to_end.get(name))
                    .map_or(0.0, |m| m.value);
                (name, value, unit)
            })
            .map(metric_json)
            .collect()
    } else {
        spec::driver_end_to_end()
            .map(|(m, _)| (m.name, o.end_to_end[m.name].value, m.unit))
            .map(metric_json)
            .collect()
    };
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct,
        o.attempted.max(1),
        o.unexpected,
        metrics.join(", ")
    )
}

fn metric_json((name, value, unit): (&str, f64, &str)) -> String {
    format!(
        "{}: {{\"value\": {}, \"unit\": {}}}",
        json::string(name),
        json::num(value),
        json::string(unit)
    )
}
