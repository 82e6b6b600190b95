//! One plain-data description of an application run, and one way to
//! launch it.
//!
//! A [`Spec`] names an application and variant, a cluster size, a scale,
//! one configuration [`Tweak`], optional replacements for the scale's
//! simulator and runtime configurations, and the observer to attach.
//! [`launch`] builds the application's configuration from it and runs it;
//! [`Run::verdict`] judges the answer against a [`Reference`], the one
//! place where an application's correctness is decided. The paper report,
//! the schedule explorer, the schedule sweeps and `carlos-repro` all
//! describe their runs this way.

use carlos_check::Checker;
use carlos_core::CoreConfig;
use carlos_sim::{SimConfig, SimError};
use carlos_trace::Tracer;

use crate::harness::AppReport;
use crate::qsort::{try_run_qsort, QsortConfig, QsortResult, QsortVariant};
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
    /// Every message marked RELEASE (§5.4; TSP and Water).
    AllRelease,
    /// TreadMarks-style specialised message dispatch (§5).
    TreadMarks,
    /// The §4.3 update coherence strategy instead of invalidation.
    Update,
}

impl Tweak {
    /// `core` with this tweak's runtime change applied.
    fn core(self, core: CoreConfig) -> CoreConfig {
        match self {
            Self::None | Self::AllRelease => core,
            Self::Vg => core.with_variable_granularity(),
            Self::TreadMarks => core.with_treadmarks_dispatch(),
            Self::Update => core.with_update_strategy(),
        }
    }
}

/// Workload size and cost models: each application's `paper` or `test`
/// configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The paper's problem sizes under the `osdi94` cost models.
    Paper,
    /// Small problems under the `fast_test` cost models.
    Test,
}

/// Which observer [`launch`] attaches to a run's event stream. To observe
/// one run with both, pass them to [`launch_with`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Observe {
    /// No observer.
    None,
    /// The consistency oracle.
    Check,
    /// A metrics-only causal tracer.
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
        }
    }

    /// Judges the answer against `reference`:
    /// - TSP: the tour equals the Held–Karp optimum;
    /// - Quicksort: the array is sorted and is the input permutation;
    /// - Water: every position is within 1e-6 of the n = 1 run;
    /// - SOR: the grid is bit-exact against the sequential reference.
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
        }
    }
}

/// Runs `spec` with a fresh observer of the kind `spec.observe` names (a
/// tracer records metrics only).
///
/// # Errors
///
/// Returns the [`SimError`] describing how the run failed.
///
/// # Panics
///
/// If `spec` asks for all-RELEASE runs of Quicksort or SOR.
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
/// If `spec` asks for all-RELEASE runs of Quicksort or SOR.
pub fn launch_with(
    spec: &Spec,
    check: Option<Checker>,
    trace: Option<Tracer>,
) -> Result<Run, SimError> {
    let (n, paper) = (spec.n, spec.scale == Scale::Paper);
    let all_release = spec.tweak == Tweak::AllRelease;
    assert!(
        !all_release || matches!(spec.app, App::Tsp(_) | App::Water(_)),
        "all-RELEASE runs exist for TSP and Water"
    );
    // The fields every application's configuration shares.
    macro_rules! configure {
        ($paper:expr, $test:expr) => {{
            let mut c = if paper { $paper } else { $test };
            if let Some(sim) = &spec.sim {
                c.sim = sim.clone();
            }
            c.core = spec.tweak.core(spec.core.clone().unwrap_or(c.core));
            c.check = check.clone();
            c.trace = trace.clone();
            c
        }};
    }
    let answer = match spec.app {
        App::Tsp(v) => {
            let mut c = configure!(TspConfig::paper(n, v), TspConfig::test(n, v));
            c.all_release = all_release;
            Answer::Tsp(try_run_tsp(&c)?)
        }
        App::Quicksort(v) => Answer::Quicksort(try_run_qsort(&configure!(
            QsortConfig::paper(n, v),
            QsortConfig::test(n, v)
        ))?),
        App::Water(v) => {
            let mut c = configure!(WaterConfig::paper(n, v), WaterConfig::test(n, v));
            c.all_release = all_release;
            Answer::Water(try_run_water(&c)?)
        }
        App::Sor => Answer::Sor(try_run_sor(&configure!(
            SorConfig::paper_scale(n),
            SorConfig::test(n)
        ))?),
    };
    Ok(Run { answer, check, trace })
}
