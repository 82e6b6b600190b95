//! `compare A B`: one row per workload x end-to-end metric of two result
//! sets, with a verdict from the benchmark's own same-seed bounds.

use std::{fmt, fs, path::Path};

use crate::{
    adapter::{self, JsonValue},
    spec::{self, Better, Clock, EndToEnd, Workload},
};

/// One side's value of a metric; `q1 == q3 == value` and `n == 1` where
/// the result file has no repetitions for it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    pub value: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: f64,
}

impl Sample {
    /// The spread of the *median*: the repetitions' inter-quartile range
    /// over the square root of their count. (The raw range says how much
    /// single repetitions differ, not how well their median is known: 21
    /// repetitions with a range of 11 % resolve a 10 % shift easily.)
    fn spread(&self) -> f64 {
        (self.q3 - self.q1) / self.n.max(1.0).sqrt()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Virtual metric, bit-identical.
    Equal,
    /// Virtual metric, changed.
    Moved,
    /// Host metric, no worse and no better than the bound.
    Within,
    Worse,
    Better,
    /// Host metric whose median is known less precisely than the bound on
    /// either side: the runs cannot resolve a change of that size.
    Unresolved,
}

impl fmt::Display for Verdict {
    fn fmt(&self, out: &mut fmt::Formatter<'_>) -> fmt::Result {
        out.write_str(match self {
            Verdict::Equal => "equal",
            Verdict::Moved => "moved",
            Verdict::Within => "within",
            Verdict::Worse => "worse",
            Verdict::Better => "better",
            Verdict::Unresolved => "unresolved",
        })
    }
}

/// The verdict on `b` against the base `a`.
pub fn verdict(m: &EndToEnd, a: Sample, b: Sample) -> Verdict {
    if m.clock == Clock::Virtual {
        return if a.value.to_bits() == b.value.to_bits() {
            Verdict::Equal
        } else {
            Verdict::Moved
        };
    }
    let bound = m.bound * a.value.abs() + m.abs_slack;
    if a.spread() > bound || b.spread() > bound {
        return Verdict::Unresolved;
    }
    let worse_by = match m.better {
        Better::Lower => b.value - a.value,
        Better::Higher => a.value - b.value,
    };
    if worse_by > bound {
        Verdict::Worse
    } else if -worse_by > bound {
        Verdict::Better
    } else {
        Verdict::Within
    }
}

fn load(path: &Path) -> Result<JsonValue, String> {
    let file = if path.is_dir() {
        path.join("results.json")
    } else {
        path.to_owned()
    };
    let text = fs::read_to_string(&file).map_err(|e| format!("{}: {e}", file.display()))?;
    adapter::json_parse(&text).map_err(|e| format!("{}: {e}", file.display()))
}

fn sample(set: &JsonValue, w: Workload, metric: &str) -> Option<Sample> {
    let m = set
        .get("workloads")?
        .get(w.name())?
        .get("end_to_end")?
        .get(metric)?;
    let value = m.get("value")?.as_f64()?;
    let field = |k: &str, default: f64| m.get(k).and_then(JsonValue::as_f64).unwrap_or(default);
    Some(Sample {
        value,
        q1: field("q1", value),
        q3: field("q3", value),
        n: field("n", 1.0),
    })
}

fn pinned(set: &JsonValue) -> bool {
    set.get("pinned") == Some(&JsonValue::Bool(true))
}

/// Prints the table; `Ok(true)` when nothing got worse.
pub fn run(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let (a_set, b_set) = (load(a_path)?, load(b_path)?);
    let host_gated = pinned(&a_set) && pinned(&b_set);
    if !host_gated {
        println!("note: a set was measured unpinned; host metrics are shown but not gated");
    }
    println!(
        "{:<15} {:<19} {:<8} {:>35} {:>35} {:>26}  verdict",
        "workload", "metric", "unit", "A median [q1..q3] n", "B median [q1..q3] n", "B/A (base A)"
    );
    let mut ok = true;
    let mut rows = 0;
    for w in Workload::ALL {
        for m in spec::END_TO_END {
            let (Some(a), Some(b)) = (sample(&a_set, w, m.name), sample(&b_set, w, m.name)) else {
                continue;
            };
            let v = verdict(m, a, b);
            let failed_more = m.name == "fail_frac" && b.value > a.value;
            let gated = m.clock == Clock::Virtual || host_gated;
            if failed_more || (v == Verdict::Worse && gated) {
                ok = false;
            }
            let show = |s: Sample| {
                if s.n > 1.0 {
                    format!("{:.6} [{:.6}..{:.6}] n={}", s.value, s.q1, s.q3, s.n)
                } else {
                    format!("{}", s.value)
                }
            };
            let ratio = if a.value == 0.0 {
                "n/a (base 0)".to_owned()
            } else {
                format!("{:.4} (base {:.6})", b.value / a.value, a.value)
            };
            println!(
                "{:<15} {:<19} {:<8} {:>35} {:>35} {:>26}  {v}{}",
                w.name(),
                m.name,
                m.unit,
                show(a),
                show(b),
                ratio,
                if failed_more { "  FAILURES ROSE" } else { "" }
            );
            rows += 1;
        }
    }
    if rows == 0 {
        return Err("the two sets share no workload and metric".to_owned());
    }
    println!(
        "{}",
        if ok {
            "OK: nothing worse"
        } else {
            "REGRESSION: see rows above"
        }
    );
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flat(value: f64) -> Sample {
        spread(value, 0.0, 1.0)
    }

    /// `n` repetitions with quartiles `value -+ half`.
    fn spread(value: f64, half: f64, n: f64) -> Sample {
        Sample {
            value,
            q1: value - half,
            q3: value + half,
            n,
        }
    }

    #[test]
    fn virtual_metrics_are_equal_or_moved() {
        let m = spec::end_to_end("virt_s").unwrap();
        assert_eq!(verdict(m, flat(12.4408), flat(12.4408)), Verdict::Equal);
        assert_eq!(verdict(m, flat(12.4408), flat(12.4409)), Verdict::Moved);
    }

    #[test]
    fn host_metrics_use_the_bound_and_the_spread() {
        let m = spec::end_to_end("host_s").unwrap();
        let tight = |v| spread(v, 0.01, 9.0);
        assert_eq!(verdict(m, tight(1.0), tight(1.05)), Verdict::Within);
        assert_eq!(verdict(m, tight(1.0), tight(1.15)), Verdict::Worse);
        assert_eq!(verdict(m, tight(1.0), tight(0.85)), Verdict::Better);
        // An inter-quartile range of 16 % over 4 repetitions leaves the
        // median known to 8 %: fine; over 2 repetitions, to 11 %: too wide.
        assert_eq!(
            verdict(m, spread(1.0, 0.08, 4.0), tight(1.0)),
            Verdict::Within
        );
        assert_eq!(
            verdict(m, spread(1.0, 0.08, 2.0), tight(1.0)),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(m, tight(1.0), spread(1.3, 0.08, 2.0)),
            Verdict::Unresolved
        );
    }

    #[test]
    fn setup_has_absolute_slack() {
        let m = spec::end_to_end("setup_s").unwrap();
        // 25 % of 2 ms is 0.5 ms, but 0.05 s of slack absorbs 40 ms.
        assert_eq!(verdict(m, flat(0.002), flat(0.042)), Verdict::Within);
        assert_eq!(verdict(m, flat(0.002), flat(0.060)), Verdict::Worse);
    }
}
