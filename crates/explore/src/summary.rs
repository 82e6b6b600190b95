//! Shared outcome bookkeeping for random-sweep and guided exploration.

use carlos_apps::{App, Reference, Spec, Tweak};
use carlos_sim::time::us;
use carlos_util::json::json_string;

use crate::explorer::{fingerprint, Counterexample, ExploreConfig, ExploreResult};
use crate::harness::{base_sim, observe, planned, RunStatus};

/// One exploration campaign's outcome, in the shape both the random
/// jitter sweep and the guided explorer produce — one bookkeeping type,
/// one nonzero-exit rule, one machine-readable JSON line.
#[derive(Debug, Clone, Default)]
pub struct ExploreSummary {
    /// Application name.
    pub app: String,
    /// Campaign mode: `"random"`, `"guided"`, or `"frontier-full"`.
    pub mode: String,
    /// Executions performed (exploration only).
    pub executions: usize,
    /// Executions whose checker recorded at least one violation.
    pub violations: usize,
    /// Executions that finished with a wrong answer.
    pub wrong_answers: usize,
    /// Executions that stalled, aborted, or panicked.
    pub crashes: usize,
    /// Distinct happens-before equivalence classes observed.
    pub distinct_classes: usize,
    /// Children pruned by fingerprint dedupe (guided modes).
    pub dedupe_hits: usize,
    /// Extra executions spent shrinking a counterexample.
    pub shrink_executions: usize,
    /// Rendered minimal counterexample plan, when one was found.
    pub counterexample: Option<String>,
}

impl ExploreSummary {
    /// True when the campaign found any misbehavior.
    #[must_use]
    pub fn failed(&self) -> bool {
        self.violations > 0 || self.wrong_answers > 0 || self.crashes > 0
    }

    /// One-line human-readable report.
    #[must_use]
    pub fn human_line(&self) -> String {
        let mut s = format!(
            "{} [{}]: {} executions, {} classes, {} violations, {} wrong answers, {} crashes",
            self.app,
            self.mode,
            self.executions,
            self.distinct_classes,
            self.violations,
            self.wrong_answers,
            self.crashes
        );
        if self.dedupe_hits > 0 {
            s.push_str(&format!(", {} deduped", self.dedupe_hits));
        }
        if let Some(ce) = &self.counterexample {
            s.push_str(&format!(
                ", counterexample [{}] after {} shrink runs",
                ce, self.shrink_executions
            ));
        }
        s
    }

    /// Machine-readable JSON summary line for CI (single line, stable
    /// key order).
    #[must_use]
    pub fn json_line(&self) -> String {
        let ce = self.counterexample.as_deref().map_or("null".to_string(), json_string);
        format!(
            concat!(
                "{{\"app\":{},\"mode\":{},\"executions\":{},",
                "\"violations\":{},\"wrong_answers\":{},\"crashes\":{},",
                "\"distinct_classes\":{},\"dedupe_hits\":{},",
                "\"shrink_executions\":{},\"counterexample\":{}}}"
            ),
            json_string(&self.app),
            json_string(&self.mode),
            self.executions,
            self.violations,
            self.wrong_answers,
            self.crashes,
            self.distinct_classes,
            self.dedupe_hits,
            self.shrink_executions,
            ce
        )
    }

    /// Builds a summary from a guided [`ExploreResult`].
    #[must_use]
    pub fn from_guided(app: &str, mode: &str, result: &ExploreResult) -> Self {
        let mut s = Self {
            app: app.to_string(),
            mode: mode.to_string(),
            executions: result.stats.executions,
            distinct_classes: result.stats.distinct_classes,
            dedupe_hits: result.stats.dedupe_hits,
            shrink_executions: result.stats.shrink_executions,
            ..Self::default()
        };
        if let Some(ce) = &result.counterexample {
            match &ce.status {
                RunStatus::Ok => {}
                RunStatus::WrongAnswer => s.wrong_answers += 1,
                RunStatus::Crashed(_) => s.crashes += 1,
            }
            if !ce.violations.is_empty() {
                s.violations += 1;
            }
            s.counterexample = Some(render_counterexample(ce));
        }
        s
    }
}

/// Renders a counterexample plan compactly: `src->dst#seq+<delay>ns`
/// joined by commas (empty plan renders as `baseline`).
#[must_use]
pub fn render_counterexample(ce: &Counterexample) -> String {
    if ce.plan.is_empty() {
        return "baseline".to_string();
    }
    ce.plan
        .iter()
        .map(|((src, dst, seq), delay)| format!("{src}->{dst}#{seq}+{delay}ns"))
        .collect::<Vec<_>>()
        .join(",")
}

/// The campaign label of `spec`: the application's short name, plus
/// `+vg` for variable-granularity runs.
fn label(spec: &Spec) -> String {
    let app = match spec.app {
        App::Sor => "sor",
        App::Quicksort(_) => "qsort",
        App::Tsp(_) => "tsp",
        App::Water(_) => "water",
        App::Serve(_) => "kv",
    };
    if spec.tweak == Tweak::Vg {
        format!("{app}+vg")
    } else {
        app.to_string()
    }
}

/// Runs the historical random jitter sweep — every (jitter, seed) cell —
/// of `spec`, producing the same summary shape as the guided explorer.
/// The sweep draws delivery delays blindly from an RNG; it covers
/// whatever classes it happens to hit.
#[must_use]
pub fn random_sweep(
    spec: &Spec,
    jitters_us: &[u64],
    seeds: &[u64],
    verbose: bool,
) -> ExploreSummary {
    let reference = Reference::of(spec);
    let mut summary = ExploreSummary {
        app: label(spec),
        mode: "random".to_string(),
        ..ExploreSummary::default()
    };
    let mut classes = std::collections::BTreeSet::new();
    for &jitter in jitters_us {
        for &seed in seeds {
            let jittered = Spec {
                sim: Some(base_sim(spec).with_jitter(us(jitter), seed)),
                ..spec.clone()
            };
            let obs = observe(&jittered, &reference);
            summary.executions += 1;
            classes.insert(fingerprint(&obs.deliveries));
            match &obs.status {
                RunStatus::Ok => {}
                RunStatus::WrongAnswer => {
                    summary.wrong_answers += 1;
                    if verbose {
                        println!(
                            "  {}: WRONG ANSWER at jitter={jitter}us seed={seed:#x}",
                            summary.app
                        );
                    }
                }
                RunStatus::Crashed(why) => {
                    summary.crashes += 1;
                    if verbose {
                        println!(
                            "  {}: CRASH at jitter={jitter}us seed={seed:#x}: {why}",
                            summary.app
                        );
                    }
                }
            }
            if !obs.violations.is_empty() {
                summary.violations += 1;
                if verbose {
                    for v in &obs.violations {
                        println!("  {}: jitter={jitter}us seed={seed:#x}: {v}", summary.app);
                    }
                }
            }
        }
    }
    summary.distinct_classes = classes.len();
    summary
}

/// Runs the guided explorer over `spec` and summarizes it.
#[must_use]
pub fn guided_sweep(spec: &Spec, cfg: &ExploreConfig) -> ExploreSummary {
    let reference = Reference::of(spec);
    let result = crate::explorer::explore(cfg, |plan| observe(&planned(spec, plan), &reference));
    let mode = if cfg.dedupe { "guided" } else { "frontier-full" };
    ExploreSummary::from_guided(&label(spec), mode, &result)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_is_parseable() {
        let s = ExploreSummary {
            app: "tsp".into(),
            mode: "guided".into(),
            executions: 12,
            violations: 1,
            wrong_answers: 0,
            crashes: 0,
            distinct_classes: 9,
            dedupe_hits: 30,
            shrink_executions: 4,
            counterexample: Some("0->2#7+5000ns".into()),
        };
        let parsed = carlos_util::json::parse(&s.json_line()).expect("valid json");
        assert_eq!(parsed.get("app").and_then(|v| v.as_str()), Some("tsp"));
        assert_eq!(parsed.get("executions").and_then(|v| v.as_f64()), Some(12.0));
        assert_eq!(
            parsed.get("counterexample").and_then(|v| v.as_str()),
            Some("0->2#7+5000ns")
        );
        assert!(s.failed());
    }

    #[test]
    fn clean_summary_does_not_fail() {
        let s = ExploreSummary {
            app: "sor".into(),
            mode: "random".into(),
            executions: 3,
            violations: 0,
            wrong_answers: 0,
            crashes: 0,
            distinct_classes: 3,
            dedupe_hits: 0,
            shrink_executions: 0,
            counterexample: None,
        };
        assert!(!s.failed());
        let parsed = carlos_util::json::parse(&s.json_line()).expect("valid json");
        assert!(parsed.get("counterexample").is_some());
    }
}
