//! One plain-data description of an application run, and one way to
//! launch it.
//!
//! A [`Spec`] names an application and variant, a cluster size, a scale,
//! one configuration [`Tweak`], optional replacements for the scale's
//! simulator and runtime configurations, and the observer to attach.
//! [`launch`] builds the application's configuration from it and runs it;
//! [`Run::verdict`] judges the answer against a [`Reference`], the one
//! place where an application's correctness is decided. The paper report,
//! the schedule explorer, the schedule sweeps, the chaos and footprint
//! tests and `carlos-repro` all describe their runs this way, serving runs
//! included.

use carlos_check::Checker;
use carlos_core::CoreConfig;
use carlos_sim::{SimConfig, SimError};
use carlos_trace::Tracer;

use crate::harness::AppReport;
use crate::qsort::{try_run_qsort, QsortConfig, QsortResult, QsortVariant};
use crate::serve::{try_run_serve, ServeConfig, ServeResult, Traffic};
use crate::sor::{sequential_reference, try_run_sor, SorConfig, SorResult};
use crate::tsp::{try_run_tsp, Cities, TspConfig, TspResult, TspVariant};
use crate::water::{try_run_water, WaterConfig, WaterResult, WaterVariant};

/// An application and its program variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum App {
    /// TSP (Table 1).
    Tsp(TspVariant),
    /// Quicksort (Table 2).
    Quicksort(QsortVariant),
    /// Water (Table 3).
    Water(WaterVariant),
    /// Red-black SOR (beyond the paper).
    Sor,
    /// The DSM-backed key-value service (beyond the paper).
    Serve(Traffic),
}

impl App {
    /// The application's name in report rows.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Tsp(_) => "TSP",
            Self::Quicksort(_) => "Quicksort",
            Self::Water(_) => "Water",
            Self::Sor => "SOR",
            Self::Serve(Traffic::Steady) => "KV",
            Self::Serve(Traffic::Chaos) => "KV/chaos",
        }
    }
}

/// The one configuration change a run makes to its application.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tweak {
    /// The application as the paper ran it.
    None,
    /// Variable granularity ("+vg", [`CoreConfig::variable_granularity`]):
    /// per-region granules, coalesced demand fetches and aggregated write
    /// notices.
    Vg,
    /// TreadMarks-style specialised message dispatch (§5).
    TreadMarks,
    /// The §4.3 update coherence strategy instead of invalidation.
    Update,
}

impl Tweak {
    /// `core` with this tweak's runtime change applied.
    fn core(self, core: CoreConfig) -> CoreConfig {
        match self {
            Self::None => core,
            Self::Vg => core.with_variable_granularity(),
            Self::TreadMarks => core.with_treadmarks_dispatch(),
            Self::Update => core.with_update_strategy(),
        }
    }
}

/// Workload size and cost models: each application's `paper` or `test`
/// configuration, or the report's quick cut between them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The paper's problem sizes under the `osdi94` cost models.
    Paper,
    /// Small problems under the `fast_test` cost models.
    Test,
    /// The report's quick scale: the `test` problems under the `osdi94`
    /// runtime cost model (`fast_test` zeroes every protocol cost), and
    /// serving's paper configuration on 1/32 of its schedule.
    Quick,
}

/// Which observer [`launch`] attaches to a run's event stream. To observe
/// one run with both, pass them to [`launch_with`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Observe {
    /// No observer.
    None,
    /// The consistency oracle.
    Check,
    /// The causal tracer: flows and metrics.
    Trace,
}

/// One application run, as plain data.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Application and program variant.
    pub app: App,
    /// Cluster size.
    pub n: usize,
    /// Workload size and cost models.
    pub scale: Scale,
    /// The configuration change.
    pub tweak: Tweak,
    /// Replaces the scale's simulator configuration (ack mode, fault and
    /// schedule plans, jitter, runaway caps).
    pub sim: Option<SimConfig>,
    /// Replaces the scale's runtime configuration (cost model, seeded
    /// bugs); the tweak applies on top of it.
    pub core: Option<CoreConfig>,
    /// The observer to attach.
    pub observe: Observe,
}

impl Spec {
    /// `app` on `n` nodes at `scale`, untweaked and unobserved.
    #[must_use]
    pub fn new(app: App, n: usize, scale: Scale) -> Self {
        Self {
            app,
            n,
            scale,
            tweak: Tweak::None,
            sim: None,
            core: None,
            observe: Observe::None,
        }
    }
}

/// One application's result.
#[derive(Debug, Clone)]
pub enum Answer {
    /// A TSP run's tour.
    Tsp(TspResult),
    /// A Quicksort run's verification flags.
    Quicksort(QsortResult),
    /// A Water run's final molecule state.
    Water(WaterResult),
    /// A SOR run's final grid.
    Sor(SorResult),
    /// A serving run's accounting and final shared counters.
    Serve(Box<ServeResult>),
}

/// A finished run: the application's result and the observers that
/// consumed its event stream.
#[derive(Debug, Clone)]
pub struct Run {
    /// The application's result.
    pub answer: Answer,
    /// The consistency oracle, if attached.
    pub check: Option<Checker>,
    /// The causal tracer, if attached.
    pub trace: Option<Tracer>,
}

impl Run {
    /// The simulation report and its derived table columns.
    #[must_use]
    pub fn app(&self) -> &AppReport {
        match &self.answer {
            Answer::Tsp(r) => &r.app,
            Answer::Quicksort(r) => &r.app,
            Answer::Water(r) => &r.app,
            Answer::Sor(r) => &r.app,
            Answer::Serve(r) => &r.app,
        }
    }

    /// Judges the answer against `reference`:
    /// - TSP: the tour equals the Held–Karp optimum;
    /// - Quicksort: the array is sorted and is the input permutation;
    /// - Water: every position is within 1e-6 of the n = 1 run;
    /// - SOR: the grid is bit-exact against the sequential reference;
    /// - serving: every value and server mirror is intact, every operation
    ///   and CAS intent is accounted for, and the counters are exact
    ///   (fault-free) or sum to between the landed and the issued intents.
    ///
    /// # Errors
    ///
    /// Describes how the answer is wrong.
    ///
    /// # Panics
    ///
    /// If `reference` is another application's.
    pub fn verdict(&self, reference: &Reference) -> Result<(), String> {
        let wrong = match (&self.answer, reference) {
            (Answer::Tsp(r), Reference::Tour(optimum)) => (r.best_len != *optimum)
                .then(|| format!("tour of length {} against the optimum {optimum}", r.best_len)),
            (Answer::Quicksort(r), Reference::Sorted) => (!(r.sorted && r.permutation_ok))
                .then(|| format!("sorted {}, permutation {}", r.sorted, r.permutation_ok)),
            (Answer::Water(r), Reference::Positions(seq)) => {
                let close = r.positions.len() == seq.len()
                    && r.positions
                        .iter()
                        .zip(seq)
                        .all(|(a, b)| (0..3).all(|d| (a[d] - b[d]).abs() < 1e-6));
                (!close).then(|| "positions diverged from the n = 1 run".to_string())
            }
            (Answer::Sor(r), Reference::Grid(grid)) => (r.grid != *grid)
                .then(|| "grid differs from the sequential reference".to_string()),
            (Answer::Serve(r), Reference::Counters(exact)) => serve_wrong(r, exact.as_deref()),
            _ => panic!("the reference is another application's"),
        };
        wrong.map_or(Ok(()), Err)
    }
}

/// The ground truth a run's answer is judged against, computed from a
/// clean configuration so a run with a seeded bug is judged against what
/// the application should compute.
#[derive(Debug, Clone)]
pub enum Reference {
    /// TSP: the Held–Karp optimum of the instance.
    Tour(u32),
    /// Quicksort: the run checks its own output.
    Sorted,
    /// Water: the positions of the n = 1 Lock run.
    Positions(Vec<[f64; 3]>),
    /// SOR: the sequential reference grid.
    Grid(Vec<f64>),
    /// Serving: each shared counter's exact final value, or `None` under
    /// faults, where an abandoned intent may still have landed.
    Counters(Option<Vec<u64>>),
}

impl Reference {
    /// The reference for `spec`'s application at `spec`'s scale.
    ///
    /// # Panics
    ///
    /// If Water's n = 1 reference run fails.
    #[must_use]
    pub fn of(spec: &Spec) -> Self {
        let paper = spec.scale == Scale::Paper;
        match spec.app {
            App::Tsp(v) => {
                let c = if paper { TspConfig::paper(1, v) } else { TspConfig::test(1, v) };
                Self::Tour(Cities::generate(c.n_cities, c.seed).held_karp())
            }
            App::Quicksort(_) => Self::Sorted,
            App::Water(_) => {
                let v = WaterVariant::Lock;
                let c = if paper { WaterConfig::paper(1, v) } else { WaterConfig::test(1, v) };
                Self::Positions(try_run_water(&c).expect("the n = 1 Water run").positions)
            }
            App::Sor => {
                let c = if paper { SorConfig::paper_scale(1) } else { SorConfig::test(1) };
                Self::Grid(sequential_reference(&c))
            }
            App::Serve(Traffic::Steady) => {
                let c = serve_config(Traffic::Steady, spec.n, spec.scale);
                let per_key = c.n_clients() as u64 * c.cas_per_client / c.counter_keys;
                let keys = usize::try_from(c.counter_keys).expect("counter keys fit");
                Self::Counters(Some(vec![per_key; keys]))
            }
            App::Serve(Traffic::Chaos) => Self::Counters(None),
        }
    }
}

/// What is wrong with a serving answer, judged against each counter's
/// exact value or, under faults (`None`), against the CAS ledger.
fn serve_wrong(r: &ServeResult, exact: Option<&[u64]>) -> Option<String> {
    let (t, c) = (&r.totals, &r.totals.client);
    let landed: u64 = r.counters.iter().sum();
    let wrongs = [
        (c.value_check_failures > 0, "a value failed its self-tag"),
        (t.mirror_mismatches > 0, "a server's mirror disagrees with the DSM"),
        (c.attempted != c.completed + c.timed_out, "an operation neither completed nor timed out"),
        (t.cas_intents != t.cas_done + t.cas_abandoned, "a CAS intent neither landed nor gave up"),
        (exact.is_some() && c.timed_out + c.late_replies > 0, "fault-free serving timed out"),
        (exact.is_some_and(|e| r.counters != e), "the counters are not exact"),
        (exact.is_none() && !(t.cas_done..=t.cas_intents).contains(&landed), "a CAS landed twice"),
    ];
    let (_, why) = wrongs.iter().find(|(wrong, _)| *wrong)?;
    Some(format!("{why} (counters {:?} against {exact:?})", r.counters))
}

/// A serving run's configuration: chaos is the test workload under
/// faults; fault-free traffic is `paper` or `test`, or at quick scale the
/// paper's on 1/32 of its schedule.
fn serve_config(traffic: Traffic, n: usize, scale: Scale) -> ServeConfig {
    match (traffic, scale) {
        (Traffic::Chaos, _) => ServeConfig::chaos(n),
        (Traffic::Steady, Scale::Paper) => ServeConfig::paper(n),
        (Traffic::Steady, Scale::Test) => ServeConfig::test(n),
        (Traffic::Steady, Scale::Quick) => {
            let mut c = ServeConfig::paper(n);
            c.ops_per_client /= 32;
            c.cas_per_client /= 32;
            c
        }
    }
}

/// Runs `spec` with a fresh observer of the kind `spec.observe` names.
///
/// # Errors
///
/// Returns the [`SimError`] describing how the run failed.
///
/// # Panics
///
/// If `spec` asks for chaos traffic at another scale than `Test`.
pub fn launch(spec: &Spec) -> Result<Run, SimError> {
    let check = (spec.observe == Observe::Check).then(|| Checker::new(spec.n));
    let trace = (spec.observe == Observe::Trace).then(|| Tracer::metrics_only(spec.n));
    launch_with(spec, check, trace)
}

/// Runs `spec` with `check` and `trace` attached instead of the observer
/// `spec.observe` names; either, both or neither may be passed, and with
/// both each sees the whole event stream, the checker first. A caller that
/// keeps a clone of an observer can read it even when the run fails.
///
/// The application's configuration is the scale's, with `spec.sim` and
/// `spec.core` replacing its simulator and runtime configurations and the
/// tweak applied on top.
///
/// # Errors
///
/// Returns the [`SimError`] describing how the run failed.
///
/// # Panics
///
/// If `spec` asks for chaos traffic at another scale than `Test`.
pub fn launch_with(
    spec: &Spec,
    check: Option<Checker>,
    trace: Option<Tracer>,
) -> Result<Run, SimError> {
    let (n, paper) = (spec.n, spec.scale == Scale::Paper);
    assert!(
        spec.app != App::Serve(Traffic::Chaos) || spec.scale == Scale::Test,
        "KV/chaos runs at test scale only"
    );
    // The quick scale runs the `test` problems under `osdi94` costs.
    let core = spec.core.clone().or((spec.scale == Scale::Quick).then(CoreConfig::osdi94));
    // The fields every application's configuration shares.
    macro_rules! configure {
        ($paper:expr, $test:expr) => {
            configure!(if paper { $paper } else { $test })
        };
        ($c:expr) => {{
            let mut c = $c;
            if let Some(sim) = &spec.sim {
                c.sim = sim.clone();
            }
            c.core = spec.tweak.core(core.clone().unwrap_or(c.core));
            c.check = check.clone();
            c.trace = trace.clone();
            c
        }};
    }
    let answer = match spec.app {
        App::Tsp(v) => Answer::Tsp(try_run_tsp(&configure!(
            TspConfig::paper(n, v),
            TspConfig::test(n, v)
        ))?),
        App::Quicksort(v) => Answer::Quicksort(try_run_qsort(&configure!(
            QsortConfig::paper(n, v),
            QsortConfig::test(n, v)
        ))?),
        App::Water(v) => Answer::Water(try_run_water(&configure!(
            WaterConfig::paper(n, v),
            WaterConfig::test(n, v)
        ))?),
        App::Sor => Answer::Sor(try_run_sor(&configure!(
            SorConfig::paper_scale(n),
            SorConfig::test(n)
        ))?),
        App::Serve(traffic) => Answer::Serve(Box::new(try_run_serve(&configure!(
            serve_config(traffic, n, spec.scale)
        ))?)),
    };
    Ok(Run { answer, check, trace })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fault-free serving is judged against exact counters and chaos
    /// against the CAS ledger. A fault-free answer passes both, and one
    /// counter off by one, one mirror mismatch or one operation neither
    /// completed nor timed out fails both.
    #[test]
    fn serving_verdict_rejects_each_wrong_answer() {
        let steady = Spec::new(App::Serve(Traffic::Steady), 4, Scale::Test);
        let chaos = Spec::new(App::Serve(Traffic::Chaos), 4, Scale::Test);
        let (exact, ledger) = (Reference::of(&steady), Reference::of(&chaos));
        assert!(matches!(exact, Reference::Counters(Some(_))));
        assert!(matches!(ledger, Reference::Counters(None)));
        let run = launch(&steady).expect("serving run");
        type Wrong = (&'static str, fn(&mut ServeResult));
        let wrongs: [Wrong; 3] = [
            ("a counter off by one", |r| r.counters[0] += 1),
            ("a mirror mismatch", |r| r.totals.mirror_mismatches += 1),
            ("an unattributed operation", |r| r.totals.client.attempted += 1),
        ];
        for reference in [&exact, &ledger] {
            assert_eq!(run.verdict(reference), Ok(()));
            for (what, wrong) in wrongs {
                let mut bad = run.clone();
                let Answer::Serve(r) = &mut bad.answer else { unreachable!("a serving run") };
                wrong(r);
                assert!(bad.verdict(reference).is_err(), "{what} passed {reference:?}");
            }
        }
    }
}
