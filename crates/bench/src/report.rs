//! The paper report: every table and figure of the paper's evaluation, and
//! the ablations beyond it, from one table of row specs.
//!
//! [`SPECS`] lists each group of rows as plain data: application and
//! variant, label, cluster sizes, one configuration [`Tweak`], and the row
//! whose single-node time is the speedup base. [`run_report`] launches
//! each cell once as a [`Spec`] with a [`Tracer`] attached,
//! judges its answer, and the rows render two ways:
//!
//! - `BENCH_paper.json` ([`to_json`]) — one row per (application, variant,
//!   cluster size): the columns of the paper's Tables 1–3 with their
//!   reference values, Figure 2's time buckets, the write notices behind
//!   §5.4's per-notice cost, and the per-message-class cost attribution the
//!   paper only reports as microcosts; then the §5.4 [`Microcosts`] block
//!   and the serving rows;
//! - Markdown ([`to_markdown`], one function per section) — the same, side
//!   by side with the paper, rendered from the document decoded back
//!   ([`decode`]), which is also how EXPERIMENTS.md's and README.md's
//!   tables are made ([`crate::docs`]).
//!
//! Scale comes from [`ReportOptions`]: paper-scale configurations by
//! default, [`Scale::Quick`] when `CARLOS_REPORT_QUICK=1` (CI runs quick
//! mode).

use std::collections::{BTreeMap, BTreeSet, HashMap};

use carlos_apps::serve::ServeResult;
use carlos_apps::{
    launch, Answer, App, AppReport, Observe, QsortVariant, Reference, Scale, Spec, Traffic,
    TspVariant, Tweak, WaterVariant,
};
use carlos_core::{Annotation, CoreConfig, MsgClass, Runtime};
use carlos_lrc::LrcConfig;
use carlos_sim::{Bucket, Cluster, SimConfig, SimError};
use carlos_trace::Tracer;
use carlos_util::json::{self, JsonValue};

/// Scale and scope of one report run.
#[derive(Debug, Clone)]
pub struct ReportOptions {
    /// `Scale::Paper`, or `Scale::Quick` (except the chaos row, which
    /// exists at one scale).
    pub scale: Scale,
    /// Largest cluster size (the paper stops at 4).
    pub max_nodes: usize,
}

impl ReportOptions {
    /// Paper-scale, 1–4 nodes, unless `CARLOS_REPORT_QUICK=1` is set.
    #[must_use]
    pub fn from_env() -> Self {
        let quick = std::env::var("CARLOS_REPORT_QUICK").is_ok_and(|v| !v.is_empty() && v != "0");
        Self {
            scale: if quick { Scale::Quick } else { Scale::Paper },
            max_nodes: 4,
        }
    }
}

/// The cluster sizes a spec runs at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sizes {
    /// 1 to `max_nodes`.
    Scaling,
    /// 1 to `max_nodes`, then the row at 8 nodes, past the paper's testbed.
    ScalingTo8,
    /// `max_nodes` only.
    Largest,
}

/// Cluster size of the TSP Lock and SOR scaling rows, past the paper's
/// 4-node testbed.
const SCALING_N: usize = 8;

impl Sizes {
    pub(crate) fn nodes(self, max_nodes: usize) -> Vec<usize> {
        match self {
            Self::Scaling => (1..=max_nodes).collect(),
            Self::ScalingTo8 => (1..=max_nodes)
                .chain((max_nodes < SCALING_N).then_some(SCALING_N))
                .collect(),
            Self::Largest => vec![max_nodes],
        }
    }
}

/// One group of report rows, as plain data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowSpec {
    /// Application and program variant.
    pub app: App,
    /// Variant label of the rows ("Lock", "Hybrid-1", "Lock+vg", …).
    pub label: &'static str,
    /// Cluster sizes.
    pub sizes: Sizes,
    /// The configuration change.
    pub tweak: Tweak,
    /// Label of the same application's spec whose n = 1 run is the speedup
    /// base. A spec based on another spec is an ablation: the contrast
    /// table pairs each of its rows with that spec's row of the same size.
    pub base: &'static str,
}

impl RowSpec {
    /// Whether the paper's Tables 1–3 report this spec (each of their
    /// variants has a four-node row).
    #[must_use]
    pub fn in_paper_tables(&self) -> bool {
        paper_row(self.app.name(), self.label, 4).is_some()
    }

    /// The run of this spec's cell at `n` nodes and `scale`.
    pub(crate) fn cell(&self, n: usize, scale: Scale) -> Spec {
        Spec {
            tweak: self.tweak,
            ..Spec::new(self.app, n, scale)
        }
    }
}

const fn spec(
    app: App,
    label: &'static str,
    sizes: Sizes,
    tweak: Tweak,
    base: &'static str,
) -> RowSpec {
    RowSpec {
        app,
        label,
        sizes,
        tweak,
        base,
    }
}

/// Every row group of the report, in row order: Tables 1–3 and SOR, the
/// variable-granularity rows, then the ablations — Table 2's Hybrid-2 and
/// §5.4's no-forward and all-RELEASE runs, §5's TreadMarks-style dispatch,
/// and the §4.3 update strategy.
pub const SPECS: &[RowSpec] = {
    use App::{Quicksort as Qs, Sor, Tsp, Water};
    use Sizes::{Largest, Scaling, ScalingTo8};
    &[
        spec(Tsp(TspVariant::Lock), "Lock", ScalingTo8, Tweak::None, "Lock"),
        spec(Tsp(TspVariant::Hybrid), "Hybrid", Scaling, Tweak::None, "Hybrid"),
        spec(Qs(QsortVariant::Lock), "Lock", Scaling, Tweak::None, "Lock"),
        spec(Qs(QsortVariant::Hybrid1), "Hybrid-1", Scaling, Tweak::None, "Hybrid-1"),
        spec(Water(WaterVariant::Lock), "Lock", Scaling, Tweak::None, "Lock"),
        spec(Water(WaterVariant::Hybrid), "Hybrid", Scaling, Tweak::None, "Hybrid"),
        spec(Sor, "-", ScalingTo8, Tweak::None, "-"),
        spec(Tsp(TspVariant::Lock), "Lock+vg", Scaling, Tweak::Vg, "Lock+vg"),
        spec(Qs(QsortVariant::Lock), "Lock+vg", Scaling, Tweak::Vg, "Lock+vg"),
        spec(Water(WaterVariant::Lock), "Lock+vg", Scaling, Tweak::Vg, "Lock+vg"),
        spec(Sor, "-+vg", Scaling, Tweak::Vg, "-+vg"),
        spec(Qs(QsortVariant::Hybrid2), "Hybrid-2", Largest, Tweak::None, "Hybrid-1"),
        spec(Qs(QsortVariant::HybridNoForward), "No-forward", Largest, Tweak::None, "Hybrid-1"),
        spec(Tsp(TspVariant::HybridAllRelease), "Hybrid+allrel", Largest, Tweak::None, "Hybrid"),
        spec(Water(WaterVariant::HybridAllRelease), "Hybrid+allrel", Largest, Tweak::None, "Hybrid"),
        spec(Tsp(TspVariant::Lock), "Lock+tmk", Largest, Tweak::TreadMarks, "Lock"),
        spec(Qs(QsortVariant::Lock), "Lock+tmk", Largest, Tweak::TreadMarks, "Lock"),
        spec(Water(WaterVariant::Lock), "Lock+tmk", Largest, Tweak::TreadMarks, "Lock"),
        spec(Tsp(TspVariant::Lock), "Lock+update", Largest, Tweak::Update, "Lock"),
        spec(Qs(QsortVariant::Lock), "Lock+update", Largest, Tweak::Update, "Lock"),
        spec(Water(WaterVariant::Lock), "Lock+update", Largest, Tweak::Update, "Lock"),
        spec(Water(WaterVariant::Hybrid), "Hybrid+update", Largest, Tweak::Update, "Hybrid"),
        spec(Sor, "-+update", Scaling, Tweak::Update, "-"),
    ]
};

/// Paper reference values for one row (from Tables 1–3).
#[derive(Debug, Clone, Copy)]
pub struct PaperRow {
    /// Elapsed seconds reported by the paper.
    pub time_s: f64,
    /// Speedup reported by the paper.
    pub speedup: f64,
    /// Message count reported by the paper.
    pub messages: u64,
    /// Average message size reported by the paper.
    pub avg_bytes: u64,
    /// Network utilization reported by the paper (fraction).
    pub util: f64,
}

/// The paper's Tables 1–3 reference values for one (application, variant,
/// cluster size) cell.
pub(crate) fn paper_row(app: &str, variant: &str, n: usize) -> Option<PaperRow> {
    let (time_s, speedup, messages, avg_bytes, util) = match (app, variant, n) {
        ("TSP", "Lock", 2) => (52.3, 1.64, 5_838, 133, 0.01),
        ("TSP", "Lock", 3) => (39.7, 2.16, 8_626, 168, 0.03),
        ("TSP", "Lock", 4) => (31.8, 2.69, 10_403, 219, 0.06),
        ("TSP", "Hybrid", 2) => (44.9, 1.91, 1_204, 356, 0.01),
        ("TSP", "Hybrid", 3) => (31.0, 2.76, 1_916, 426, 0.02),
        ("TSP", "Hybrid", 4) => (22.0, 3.89, 2_198, 498, 0.04),
        ("Quicksort", "Lock", 2) => (19.6, 1.36, 2_426, 1_209, 0.12),
        ("Quicksort", "Lock", 3) => (18.6, 1.44, 5_144, 1_446, 0.32),
        ("Quicksort", "Lock", 4) => (17.3, 1.54, 6_866, 1_560, 0.50),
        ("Quicksort", "Hybrid-1", 2) => (17.5, 1.53, 1_406, 1_704, 0.11),
        ("Quicksort", "Hybrid-1", 3) => (13.9, 1.93, 2_282, 2_265, 0.30),
        ("Quicksort", "Hybrid-1", 4) => (11.8, 2.27, 2_870, 2_564, 0.50),
        ("Quicksort", "Hybrid-2", 4) => (14.2, 1.89, 4_361, 2_254, 0.55),
        ("Water", "Lock", 2) => (23.3, 1.34, 6_920, 368, 0.09),
        ("Water", "Lock", 3) => (19.4, 1.61, 11_348, 374, 0.17),
        ("Water", "Lock", 4) => (17.3, 1.81, 15_423, 379, 0.27),
        ("Water", "Hybrid", 2) => (18.4, 1.70, 2_546, 889, 0.10),
        ("Water", "Hybrid", 3) => (14.4, 2.20, 4_155, 876, 0.20),
        ("Water", "Hybrid", 4) => (12.1, 2.58, 5_634, 871, 0.32),
        _ => return None,
    };
    Some(PaperRow {
        time_s,
        speedup,
        messages,
        avg_bytes,
        util,
    })
}

/// The paper's §5.4 consistency overhead per write notice (µs) for the
/// lock and hybrid variants.
fn paper_per_notice_us(app: &str, variant: &str) -> Option<f64> {
    Some(match (app, variant) {
        ("TSP", "Lock") => 42.0,
        ("TSP", "Hybrid") => 52.0,
        ("Quicksort", "Lock") => 125.0,
        ("Quicksort", "Hybrid-1") => 141.0,
        ("Water", "Lock") => 94.0,
        ("Water", "Hybrid") => 95.0,
        _ => return None,
    })
}

/// What the paper measured for an ablation row against its base row.
fn paper_contrast(app: &str, variant: &str) -> &'static str {
    match (app, variant) {
        ("Quicksort", "Hybrid-2") => "+20%",
        ("Quicksort", "No-forward") => "≈ Hybrid-2",
        ("TSP", "Hybrid+allrel") => "+2.4%",
        ("Water", "Hybrid+allrel") => "+1.4%",
        ("TSP" | "Quicksort", "Lock+tmk") => "CarlOS +5–6%",
        ("Water", "Lock+tmk") => "CarlOS ~0%",
        _ => "-",
    }
}

/// Per-message-class totals for one run: wire presence and protocol cost.
#[derive(Debug, Clone)]
pub struct ClassCost {
    /// Message class name (`NONE`, `REQUEST`, `RELEASE`, `RELEASE_NT`,
    /// `SYSTEM`).
    pub class: &'static str,
    /// Messages of this class sent.
    pub sent: u64,
    /// Messages of this class dispatched at their destination.
    pub dispatched: u64,
    /// Sealed wire-frame bytes carried by this class.
    pub bytes: u64,
    /// Total virtual nanoseconds of protocol cost attributed to this
    /// class across all phases (send, receive, accept, diffing, …).
    pub cost_ns: u64,
    /// Mean send-intent-to-dispatch latency for this class (virtual ns).
    pub mean_latency_ns: u64,
}

/// One row of the report: one (application, variant, cluster-size) run.
///
/// `secs` ends at the last node's `app.done_ns`, before node 0 reads the
/// result back; every traffic and bucket column covers the whole run. So
/// the buckets of a row can sum past its `secs` (Quicksort's do, by node
/// 0's verification read-back). ROADMAP item 4(a) moves them to the timed
/// window.
#[derive(Debug, Clone)]
pub struct ReportRow {
    /// Application name ("TSP", "Quicksort", "Water", "SOR").
    pub app: &'static str,
    /// Variant label ("Lock", "Hybrid", "Hybrid-1", "-", "Lock+vg", …).
    pub variant: &'static str,
    /// Variant whose single-node run is the speedup base.
    pub base: &'static str,
    /// Cluster size.
    pub n: usize,
    /// Measured elapsed virtual seconds.
    pub secs: f64,
    /// Speedup vs the measured single-node run of `base`.
    pub speedup: f64,
    /// Messages on the wire.
    pub messages: u64,
    /// Average message payload size in bytes.
    pub avg_bytes: u64,
    /// Network utilization (fraction).
    pub util: f64,
    /// Average virtual seconds per node in each [`Bucket::ALL`] bucket
    /// (User, Unix, CarlOS, Idle) over the whole run: Figure 2's bars.
    pub buckets: [f64; 4],
    /// Write notices applied, all nodes (§5.4's per-notice cost divides
    /// the CarlOS bucket by this).
    pub notices_applied: u64,
    /// Per-message-class accounting (classes with traffic only).
    pub classes: Vec<ClassCost>,
    /// Demand diff fetches observed.
    pub fetch_diffs: u64,
    /// Whole-page fetches observed.
    pub fetch_pages: u64,
    /// Fulfilled fetches of sub-page (fine) granules.
    pub granule_fine_fetches: u64,
    /// Payload bytes delivered for fine granules.
    pub granule_fine_bytes: u64,
    /// Fulfilled fetches of base-page-sized granules.
    pub granule_page_fetches: u64,
    /// Payload bytes delivered for page granules.
    pub granule_page_bytes: u64,
    /// Fulfilled fetches of super-page (bulk) granules.
    pub granule_bulk_fetches: u64,
    /// Payload bytes delivered for bulk granules.
    pub granule_bulk_bytes: u64,
    /// Total virtual ns spent blocked in lock acquires.
    pub wait_lock_ns: u64,
    /// Total virtual ns spent blocked at barriers.
    pub wait_barrier_ns: u64,
    /// Paper reference values, where the paper reports this cell.
    pub paper: Option<PaperRow>,
}

/// Collapses a finished traced run into a [`ReportRow`].
fn finish_row(
    spec: &RowSpec,
    n: usize,
    rep: &AppReport,
    speedup: f64,
    tracer: &Tracer,
) -> ReportRow {
    let m = tracer.metrics();
    let mut class_bytes: BTreeMap<&'static str, u64> = BTreeMap::new();
    for f in tracer.flows() {
        if let Some(c) = f.class {
            *class_bytes.entry(c.name()).or_default() += f.bytes as u64;
        }
    }
    let classes = MsgClass::ALL
        .iter()
        .map(|c| {
            let name = c.name();
            let cost_prefix = format!("cost.{name}.");
            ClassCost {
                class: name,
                sent: m.counter(&format!("msg.sent.{name}")),
                dispatched: m.counter(&format!("msg.dispatched.{name}")),
                bytes: class_bytes.get(name).copied().unwrap_or(0),
                cost_ns: m
                    .histograms()
                    .filter(|(k, _)| k.starts_with(&cost_prefix))
                    .map(|(_, h)| h.sum())
                    .sum(),
                mean_latency_ns: m
                    .histogram(&format!("flow.latency.{name}"))
                    .map_or(0, |h| h.mean() as u64),
            }
        })
        .filter(|c| c.sent > 0)
        .collect();
    let wait_sum = |key: &str| m.histogram(key).map_or(0, carlos_trace::VtHistogram::sum);
    let app = spec.app.name();
    ReportRow {
        app,
        variant: spec.label,
        base: spec.base,
        n,
        secs: rep.secs,
        speedup,
        messages: rep.messages,
        avg_bytes: rep.avg_msg_bytes,
        util: rep.net_util,
        buckets: Bucket::ALL.map(|b| rep.bucket_secs(b)),
        notices_applied: rep.report.counter_total("carlos.notices_applied"),
        classes,
        fetch_diffs: m.counter("fetch.diffs"),
        fetch_pages: m.counter("fetch.page"),
        granule_fine_fetches: m.counter("fetch.class.fine"),
        granule_fine_bytes: m.counter("fetch.bytes.fine"),
        granule_page_fetches: m.counter("fetch.class.page"),
        granule_page_bytes: m.counter("fetch.bytes.page"),
        granule_bulk_fetches: m.counter("fetch.class.bulk"),
        granule_bulk_bytes: m.counter("fetch.bytes.bulk"),
        wait_lock_ns: wait_sum("wait.lock acquire"),
        wait_barrier_ns: wait_sum("wait.barrier"),
        paper: paper_row(app, spec.label, n),
    }
}

/// Runs every cell of `specs` once, in order — each spec at each of its
/// cluster sizes — judges each answer, and returns one row per cell.
///
/// # Errors
///
/// Returns the first [`SimError`] if any run deadlocks, crashes, or
/// aborts (the tracer is an observer and cannot itself cause one).
///
/// # Panics
///
/// If a run computes a wrong answer, or a spec's speedup base has no
/// single-node row before it.
pub fn run_report(specs: &[RowSpec], opts: &ReportOptions) -> Result<Vec<ReportRow>, SimError> {
    let mut rows: Vec<ReportRow> = Vec::new();
    // One reference per application: it does not depend on the variant.
    let mut references = HashMap::new();
    for spec in specs {
        let app = spec.app.name();
        for n in spec.sizes.nodes(opts.max_nodes) {
            let cell = Spec {
                observe: Observe::Trace,
                ..spec.cell(n, opts.scale)
            };
            let run = launch(&cell)?;
            let reference = references
                .entry(std::mem::discriminant(&spec.app))
                .or_insert_with(|| Reference::of(&cell));
            if let Err(why) = run.verdict(reference) {
                panic!("{app}/{} n={n}: wrong answer: {why}", spec.label);
            }
            let rep = run.app();
            let tracer = run.trace.as_ref().expect("the cell is traced");
            let base_secs = if n == 1 && spec.base == spec.label {
                rep.secs
            } else {
                rows.iter()
                    .find(|r| (r.app, r.variant, r.n) == (app, spec.base, 1))
                    .unwrap_or_else(|| panic!("{app}/{}: no n = 1 {} row", spec.label, spec.base))
                    .secs
            };
            rows.push(finish_row(spec, n, rep, base_secs / rep.secs, tracer));
        }
    }
    Ok(rows)
}

/// §5.4's annotation microcosts: CarlOS-bucket time per message, sender
/// and receiver together, of a two-node stream of one annotation.
#[derive(Debug, Clone, Copy)]
pub struct Microcosts {
    /// Messages in each stream.
    pub messages: u32,
    /// Microseconds per NONE message.
    pub none_us: f64,
    /// Microseconds per REQUEST message.
    pub request_us: f64,
    /// Microseconds per RELEASE message (one dirty page, announced once).
    pub release_us: f64,
}

/// Streams 500 messages of each of NONE, REQUEST and RELEASE from node 0
/// to node 1 under the `osdi94` cost models.
///
/// # Errors
///
/// Returns the [`SimError`] of a stream that fails.
pub fn run_microcosts() -> Result<Microcosts, SimError> {
    const MESSAGES: u32 = 500;
    let per_message = |annotation: Annotation| -> Result<f64, SimError> {
        let mut cluster = Cluster::new(SimConfig::osdi94(), 2);
        cluster.spawn_node(0, move |ctx| {
            let mut rt = Runtime::new(ctx, LrcConfig::osdi94(2, 1 << 16), CoreConfig::osdi94());
            // Dirty one page so releases have an interval to announce once.
            rt.write_u32(0, 1);
            for i in 0..MESSAGES {
                rt.send(1, 7, i.to_le_bytes().to_vec(), annotation);
            }
            let _ = rt.wait_accepted(8);
            rt.shutdown();
        });
        cluster.spawn_node(1, move |ctx| {
            let mut rt = Runtime::new(ctx, LrcConfig::osdi94(2, 1 << 16), CoreConfig::osdi94());
            for _ in 0..MESSAGES {
                let _ = rt.wait_accepted(7);
            }
            rt.send(0, 8, vec![], Annotation::None);
            rt.shutdown();
        });
        #[allow(clippy::cast_precision_loss)]
        let ns = cluster.try_run()?.bucket_total(Bucket::Carlos) as f64;
        Ok(ns / 1e3 / f64::from(MESSAGES))
    };
    Ok(Microcosts {
        messages: MESSAGES,
        none_us: per_message(Annotation::None)?,
        request_us: per_message(Annotation::Request)?,
        release_us: per_message(Annotation::Release)?,
    })
}

/// One serving row: a serving run's latency/throughput/harvest
/// columns (see DESIGN.md §14 for the metric definitions).
#[derive(Debug, Clone)]
pub struct ServeRow {
    /// Variant label ("KV" fault-free, "KV/chaos" under the fault plan).
    pub variant: &'static str,
    /// Cluster size.
    pub n: usize,
    /// Elapsed virtual seconds (timed window, `app.done_ns`).
    pub secs: f64,
    /// Completed operations per virtual second.
    pub ops_per_sec: f64,
    /// Operations submitted (including CAS wire retries).
    pub attempted: u64,
    /// Operations completed before their deadline.
    pub completed: u64,
    /// Operations expired at their deadline.
    pub timed_out: u64,
    /// Median completion latency (virtual ns).
    pub p50_ns: u64,
    /// 99th-percentile completion latency (virtual ns).
    pub p99_ns: u64,
    /// 99.9th-percentile completion latency (virtual ns).
    pub p999_ns: u64,
    /// Total wire payload bytes per completed op (DSM traffic included).
    pub bytes_per_op: u64,
    /// Messages on the wire.
    pub messages: u64,
    /// Network utilization (fraction).
    pub util: f64,
    /// Yield: completed / attempted.
    pub yield_fraction: f64,
    /// Harvest: probe gets answered in time / probes issued (1.0 when no
    /// probe was scheduled).
    pub harvest: f64,
    /// CAS increment intents that landed.
    pub cas_done: u64,
    /// Server mirror/DSM disagreements (must be 0).
    pub mirror_mismatches: u64,
    /// Collection rounds the run took (`gc.rounds`, which every node
    /// counts, over the cluster size).
    pub gcs: u64,
    /// Interval records the collection rounds' arrivals and departures
    /// carried (`gc.records`).
    pub gc_records: u64,
    /// The most consistency records any node held at once.
    pub peak_records: u64,
    /// Host wall-clock seconds the run took on the generating host (every
    /// other column is virtual and machine-independent).
    pub host_seconds: f64,
}

impl ServeRow {
    /// Wire messages per completed operation — 2 (a request and its
    /// reply) plus whatever the DSM and the run's barriers add.
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub fn msgs_per_op(&self) -> f64 {
        self.messages as f64 / self.completed.max(1) as f64
    }
}

/// The serving row of `spec`'s run, whose answer is `r`.
#[must_use]
pub fn serve_row(spec: &Spec, r: &ServeResult, host_seconds: f64) -> ServeRow {
    let t = &r.totals;
    ServeRow {
        variant: spec.app.name(),
        n: spec.n,
        secs: r.app.secs,
        ops_per_sec: r.ops_per_sec(),
        attempted: t.client.attempted,
        completed: t.client.completed,
        timed_out: t.client.timed_out,
        p50_ns: t.client.hist.quantile(0.50),
        p99_ns: t.client.hist.quantile(0.99),
        p999_ns: t.client.hist.quantile(0.999),
        bytes_per_op: r.bytes_per_op(),
        messages: r.app.messages,
        util: r.app.net_util,
        yield_fraction: t.yield_fraction(),
        harvest: t.harvest(),
        cas_done: t.cas_done,
        mirror_mismatches: t.mirror_mismatches,
        gcs: r.app.report.counter_total("gc.rounds") / spec.n as u64,
        gc_records: r.app.report.counter_total("gc.records"),
        peak_records: t.peak_records,
        host_seconds,
    }
}

/// Runs the serving rows: fault-free KV workloads at n ∈ {8, 16, 32},
/// plus one chaos row — burst loss and a partition-heal window over an
/// ARQ transport — reporting harvest and yield. Quick mode runs a
/// shortened n = 8 schedule and the same chaos row.
///
/// # Errors
///
/// Returns the first [`SimError`] if any run deadlocks, crashes, or
/// aborts.
///
/// # Panics
///
/// If a run's answer fails its verdict.
pub fn run_serve_rows(opts: &ReportOptions) -> Result<Vec<ServeRow>, SimError> {
    let mut rows = Vec::new();
    for spec in serve_specs(opts) {
        let started = std::time::Instant::now();
        let run = launch(&spec)?;
        let host = started.elapsed().as_secs_f64();
        if let Err(why) = run.verdict(&Reference::of(&spec)) {
            panic!("{} n={}: wrong answer: {why}", spec.app.name(), spec.n);
        }
        let Answer::Serve(r) = &run.answer else { unreachable!("a serving run") };
        rows.push(serve_row(&spec, r, host));
    }
    Ok(rows)
}

/// The serving rows' runs: KV at each size, then KV/chaos.
pub(crate) fn serve_specs(opts: &ReportOptions) -> Vec<Spec> {
    let sizes: &[usize] = if opts.scale == Scale::Quick { &[8] } else { &[8, 16, 32] };
    sizes
        .iter()
        .map(|&n| Spec::new(App::Serve(Traffic::Steady), n, opts.scale))
        .chain([Spec::new(App::Serve(Traffic::Chaos), 8, Scale::Test)])
        .collect()
}

/// The serving rows as a Markdown table.
#[must_use]
pub fn serve_markdown(rows: &[ServeRow]) -> String {
    let mut out = String::from(
        "| Variant | N | Time(s) | Ops/s | p50(ms) | p99(ms) | p999(ms) | B/op | Msg/op | Yield | Harvest | GCs | GC records | Peak records |\n\
         |---|--:|--:|--:|--:|--:|--:|--:|--:|--:|--:|--:|--:|--:|\n",
    );
    #[allow(clippy::cast_precision_loss)]
    for r in rows {
        out.push_str(&format!(
            "| {} | {} | {:.2} | {:.1} | {:.3} | {:.3} | {:.3} | {} | {:.3} | {:.4} | {:.4} | {} | {} | {} |\n",
            r.variant,
            r.n,
            r.secs,
            r.ops_per_sec,
            r.p50_ns as f64 / 1e6,
            r.p99_ns as f64 / 1e6,
            r.p999_ns as f64 / 1e6,
            r.bytes_per_op,
            r.msgs_per_op(),
            r.yield_fraction,
            r.harvest,
            r.gcs,
            r.gc_records,
            r.peak_records
        ));
    }
    out
}

/// Renders the rows as the `BENCH_paper.json` document (valid JSON; all
/// strings are fixed ASCII labels, so no escaping is required).
#[must_use]
pub fn to_json(
    rows: &[ReportRow],
    micro: Option<&Microcosts>,
    serve: &[ServeRow],
    opts: &ReportOptions,
) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"generated_by\": \"cargo run --release --example report\",\n");
    out.push_str(&format!("  \"quick_mode\": {},\n", opts.scale == Scale::Quick));
    out.push_str(&format!("  \"max_nodes\": {},\n", opts.max_nodes));
    out.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"app\": \"{}\", \"variant\": \"{}\", \"n\": {}, \"time_s\": {:.4}, \
             \"speedup\": {:.3}, \"messages\": {}, \"avg_bytes\": {}, \"utilization\": {:.4},\n",
            r.app, r.variant, r.n, r.secs, r.speedup, r.messages, r.avg_bytes, r.util
        ));
        out.push_str(&format!(
            "     \"fetch_diffs\": {}, \"fetch_pages\": {}, \"wait_lock_ns\": {}, \
             \"wait_barrier_ns\": {},\n",
            r.fetch_diffs, r.fetch_pages, r.wait_lock_ns, r.wait_barrier_ns
        ));
        out.push_str(&format!(
            "     \"granule_fine_fetches\": {}, \"granule_fine_bytes\": {}, \
             \"granule_page_fetches\": {}, \"granule_page_bytes\": {}, \
             \"granule_bulk_fetches\": {}, \"granule_bulk_bytes\": {},\n",
            r.granule_fine_fetches,
            r.granule_fine_bytes,
            r.granule_page_fetches,
            r.granule_page_bytes,
            r.granule_bulk_fetches,
            r.granule_bulk_bytes
        ));
        out.push_str(&format!("     \"speedup_base\": \"{}\", ", r.base));
        for (b, secs) in Bucket::ALL.iter().zip(r.buckets) {
            out.push_str(&format!("\"bucket_{}_s\": {secs:.6}, ", b.name().to_lowercase()));
        }
        out.push_str(&format!("\"notices_applied\": {},\n", r.notices_applied));
        out.push_str("     \"classes\": [");
        for (j, c) in r.classes.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "{{\"class\": \"{}\", \"sent\": {}, \"dispatched\": {}, \"bytes\": {}, \
                 \"cost_ns\": {}, \"mean_latency_ns\": {}}}",
                c.class, c.sent, c.dispatched, c.bytes, c.cost_ns, c.mean_latency_ns
            ));
        }
        out.push_str("],\n");
        match &r.paper {
            Some(p) => out.push_str(&format!(
                "     \"paper\": {{\"time_s\": {:.1}, \"speedup\": {:.2}, \"messages\": {}, \
                 \"avg_bytes\": {}, \"utilization\": {:.2}}}}}",
                p.time_s, p.speedup, p.messages, p.avg_bytes, p.util
            )),
            None => out.push_str("     \"paper\": null}"),
        }
        out.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ],\n");
    if let Some(m) = micro {
        out.push_str(&format!(
            "  \"microcosts\": {{\"messages\": {}, \"none_us\": {:.3}, \"request_us\": {:.3}, \
             \"release_us\": {:.3}, \"paper_request_minus_none_us\": [5, 15], \
             \"paper_release_minus_none_us\": 30}},\n",
            m.messages, m.none_us, m.request_us, m.release_us
        ));
    }
    out.push_str("  \"serve_rows\": [\n");
    for (i, r) in serve.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"variant\": \"{}\", \"n\": {}, \"time_s\": {:.4}, \"ops_per_sec\": {:.3}, \
             \"attempted\": {}, \"completed\": {}, \"timed_out\": {},\n",
            r.variant, r.n, r.secs, r.ops_per_sec, r.attempted, r.completed, r.timed_out
        ));
        out.push_str(&format!(
            "     \"p50_ns\": {}, \"p99_ns\": {}, \"p999_ns\": {}, \"bytes_per_op\": {}, \
             \"messages\": {}, \"utilization\": {:.4},\n",
            r.p50_ns, r.p99_ns, r.p999_ns, r.bytes_per_op, r.messages, r.util
        ));
        out.push_str(&format!(
            "     \"yield\": {:.6}, \"harvest\": {:.6}, \"cas_done\": {}, \
             \"mirror_mismatches\": {}, \"gcs\": {}, \"gc_records\": {}, \
             \"peak_records\": {}, \"host_seconds\": {:.4}}}",
            r.yield_fraction,
            r.harvest,
            r.cas_done,
            r.mirror_mismatches,
            r.gcs,
            r.gc_records,
            r.peak_records,
            r.host_seconds
        ));
        out.push_str(if i + 1 < serve.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// A report as `BENCH_paper.json` holds it: the arguments [`to_json`]
/// rendered, decoded back by [`decode`].
#[derive(Debug, Clone)]
pub struct Report {
    /// One row per (application, variant, cluster size).
    pub rows: Vec<ReportRow>,
    /// The §5.4 microcosts block, if the document has one.
    pub micro: Option<Microcosts>,
    /// The serving rows.
    pub serve: Vec<ServeRow>,
    /// Scale and scope of the run that wrote the document.
    pub opts: ReportOptions,
}

/// Parses a `BENCH_paper.json` document and decodes it into the rows that
/// rendered it. Labels must be ones the report writes (an application,
/// variant or message-class name it knows), so each decodes to the same
/// `'static` label. Numbers come back at the precision [`to_json`] writes:
/// rendering the decoded report again gives the same document.
///
/// # Errors
///
/// A document that does not parse, or a missing, mistyped or unknown
/// member, named with its row.
pub fn decode(text: &str) -> Result<Report, String> {
    let doc = json::parse(text).map_err(|e| format!("report JSON does not parse: {e}"))?;
    let top = Fields(&doc, "report".into());
    let array = |key: &str| -> Result<&[JsonValue], String> {
        top.get(key)?.as_array().ok_or_else(|| format!("report: {key} is not an array"))
    };
    let micro = match doc.get("microcosts") {
        Some(m) => {
            let m = Fields(m, "microcosts".into());
            Some(Microcosts {
                messages: u32::try_from(m.u64("messages")?).map_err(|e| e.to_string())?,
                none_us: m.f64("none_us")?,
                request_us: m.f64("request_us")?,
                release_us: m.f64("release_us")?,
            })
        }
        None => None,
    };
    let quick = match top.get("quick_mode")? {
        JsonValue::Bool(quick) => *quick,
        _ => return Err("report: quick_mode is not a boolean".into()),
    };
    Ok(Report {
        rows: array("rows")?.iter().enumerate().map(decode_row).collect::<Result<_, _>>()?,
        micro,
        serve: array("serve_rows")?
            .iter()
            .enumerate()
            .map(decode_serve_row)
            .collect::<Result<_, _>>()?,
        opts: ReportOptions {
            scale: if quick { Scale::Quick } else { Scale::Paper },
            max_nodes: top.usize("max_nodes")?,
        },
    })
}

/// The members of one JSON object, and what to call it in an error.
struct Fields<'a>(&'a JsonValue, String);

impl Fields<'_> {
    fn get(&self, key: &str) -> Result<&JsonValue, String> {
        self.0.get(key).ok_or_else(|| format!("{}: no {key}", self.1))
    }

    fn f64(&self, key: &str) -> Result<f64, String> {
        self.get(key)?.as_f64().ok_or_else(|| format!("{}: {key} is not a number", self.1))
    }

    /// A count: a whole, non-negative number an `f64` holds exactly.
    fn u64(&self, key: &str) -> Result<u64, String> {
        let v = self.f64(key)?;
        if v.fract() != 0.0 || !(0.0..=9_007_199_254_740_992.0).contains(&v) {
            return Err(format!("{}: {key} = {v} is not a count", self.1));
        }
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        Ok(v as u64)
    }

    fn usize(&self, key: &str) -> Result<usize, String> {
        usize::try_from(self.u64(key)?).map_err(|e| format!("{}: {key}: {e}", self.1))
    }

    /// The text member `key`, which must be one of `known`.
    fn label(
        &self,
        key: &str,
        known: impl IntoIterator<Item = &'static str>,
    ) -> Result<&'static str, String> {
        let text =
            self.get(key)?.as_str().ok_or_else(|| format!("{}: {key} is not a string", self.1))?;
        known
            .into_iter()
            .find(|k| *k == text)
            .ok_or_else(|| format!("{}: unknown {key} {text:?}", self.1))
    }
}

fn decode_row((i, row): (usize, &JsonValue)) -> Result<ReportRow, String> {
    let f = Fields(row, format!("rows[{i}]"));
    let app = f.label("app", SPECS.iter().map(|s| s.app.name()))?;
    let labels = || SPECS.iter().map(|s| s.label);
    let classes = f
        .get("classes")?
        .as_array()
        .ok_or_else(|| format!("rows[{i}]: classes is not an array"))?
        .iter()
        .enumerate()
        .map(|(j, c)| {
            let c = Fields(c, format!("rows[{i}].classes[{j}]"));
            Ok(ClassCost {
                class: c.label("class", MsgClass::ALL.iter().map(|m| m.name()))?,
                sent: c.u64("sent")?,
                dispatched: c.u64("dispatched")?,
                bytes: c.u64("bytes")?,
                cost_ns: c.u64("cost_ns")?,
                mean_latency_ns: c.u64("mean_latency_ns")?,
            })
        })
        .collect::<Result<_, String>>()?;
    let paper = match f.get("paper")? {
        JsonValue::Null => None,
        p => {
            let p = Fields(p, format!("rows[{i}].paper"));
            Some(PaperRow {
                time_s: p.f64("time_s")?,
                speedup: p.f64("speedup")?,
                messages: p.u64("messages")?,
                avg_bytes: p.u64("avg_bytes")?,
                util: p.f64("utilization")?,
            })
        }
    };
    let mut buckets = [0.0; 4];
    for (secs, b) in buckets.iter_mut().zip(Bucket::ALL) {
        *secs = f.f64(&format!("bucket_{}_s", b.name().to_lowercase()))?;
    }
    Ok(ReportRow {
        app,
        variant: f.label("variant", labels())?,
        base: f.label("speedup_base", labels())?,
        n: f.usize("n")?,
        secs: f.f64("time_s")?,
        speedup: f.f64("speedup")?,
        messages: f.u64("messages")?,
        avg_bytes: f.u64("avg_bytes")?,
        util: f.f64("utilization")?,
        buckets,
        notices_applied: f.u64("notices_applied")?,
        classes,
        fetch_diffs: f.u64("fetch_diffs")?,
        fetch_pages: f.u64("fetch_pages")?,
        granule_fine_fetches: f.u64("granule_fine_fetches")?,
        granule_fine_bytes: f.u64("granule_fine_bytes")?,
        granule_page_fetches: f.u64("granule_page_fetches")?,
        granule_page_bytes: f.u64("granule_page_bytes")?,
        granule_bulk_fetches: f.u64("granule_bulk_fetches")?,
        granule_bulk_bytes: f.u64("granule_bulk_bytes")?,
        wait_lock_ns: f.u64("wait_lock_ns")?,
        wait_barrier_ns: f.u64("wait_barrier_ns")?,
        paper,
    })
}

fn decode_serve_row((i, row): (usize, &JsonValue)) -> Result<ServeRow, String> {
    let f = Fields(row, format!("serve_rows[{i}]"));
    let variants = [Traffic::Steady, Traffic::Chaos].map(|t| App::Serve(t).name());
    Ok(ServeRow {
        variant: f.label("variant", variants)?,
        n: f.usize("n")?,
        secs: f.f64("time_s")?,
        ops_per_sec: f.f64("ops_per_sec")?,
        attempted: f.u64("attempted")?,
        completed: f.u64("completed")?,
        timed_out: f.u64("timed_out")?,
        p50_ns: f.u64("p50_ns")?,
        p99_ns: f.u64("p99_ns")?,
        p999_ns: f.u64("p999_ns")?,
        bytes_per_op: f.u64("bytes_per_op")?,
        messages: f.u64("messages")?,
        util: f.f64("utilization")?,
        yield_fraction: f.f64("yield")?,
        harvest: f.f64("harvest")?,
        cas_done: f.u64("cas_done")?,
        mirror_mismatches: f.u64("mirror_mismatches")?,
        gcs: f.u64("gcs")?,
        gc_records: f.u64("gc_records")?,
        peak_records: f.u64("peak_records")?,
        host_seconds: f.f64("host_seconds")?,
    })
}

/// Renders a report as Markdown: each section's heading over its table —
/// the paper's Tables 1–3 layout for every row, the per-class cost
/// attribution and per-granule demand traffic, Figure 2, §5.4's
/// per-notice cost, every ablation beside its base row, then the
/// microcosts and the serving rows when the report has them.
#[must_use]
pub fn to_markdown(report: &Report) -> String {
    let rows = &report.rows;
    let mut sections = vec![
        ("Paper tables, regenerated", paper_table_markdown(rows)),
        ("Per-message-class cost attribution (largest cluster)", class_cost_markdown(rows)),
        ("Per-granule-class demand traffic (largest cluster)", granule_markdown(rows)),
    ];
    if !paper_variants_at_largest(rows).is_empty() {
        sections.push(("Figure 2 — execution breakdown", figure2_markdown(rows)));
        let per_notice = per_notice_markdown(rows);
        sections.push(("§5.4 — consistency overhead per write notice", per_notice));
    }
    if rows.iter().any(|r| r.base != r.variant) {
        sections.push(("Ablations against their base rows", contrast_markdown(rows)));
    }
    if let Some(m) = &report.micro {
        sections.push(("§5.4 — annotation microcosts", microcosts_markdown(m)));
    }
    if !report.serve.is_empty() {
        sections.push(("Serving (KV)", serve_markdown(&report.serve)));
    }
    let mut out = String::new();
    for (heading, body) in sections {
        out.push_str(&format!("## {heading}\n\n{body}\n"));
    }
    out
}

/// Tables 1–3's layout for every row: time, speedup, messages, average
/// size and utilisation, measured and — where the paper reports the cell —
/// the paper's.
#[must_use]
pub fn paper_table_markdown(rows: &[ReportRow]) -> String {
    let mut out = String::from(
        "| App | Version | N | Time(s) | Speedup | Msgs | Avg(B) | Util | \
         paper T(s) | paper spd | paper msgs | paper avg(B) | paper util |\n\
         |---|---|--:|--:|--:|--:|--:|--:|--:|--:|--:|--:|--:|\n",
    );
    for r in rows {
        let paper = r.paper.as_ref().map_or_else(
            || "- | - | - | - | -".to_string(),
            |p| {
                format!(
                    "{:.1} | {:.2} | {} | {} | {:.0}%",
                    p.time_s,
                    p.speedup,
                    p.messages,
                    p.avg_bytes,
                    p.util * 100.0
                )
            },
        );
        out.push_str(&format!(
            "| {} | {} | {} | {:.2} | {:.2} | {} | {} | {:.1}% | {paper} |\n",
            r.app,
            r.variant,
            r.n,
            r.secs,
            r.speedup,
            r.messages,
            r.avg_bytes,
            r.util * 100.0,
        ));
    }
    out
}

/// The rows of each (application, variant) at the largest cluster size it
/// reaches among `rows`.
fn largest(rows: &[ReportRow]) -> impl Iterator<Item = &ReportRow> {
    rows.iter().filter(|r| {
        rows.iter()
            .filter(|o| (o.app, o.variant) == (r.app, r.variant))
            .all(|o| o.n <= r.n)
    })
}

/// Per-message-class sends, bytes, protocol cost and latency of each
/// (application, variant) at its largest cluster size.
#[must_use]
pub fn class_cost_markdown(rows: &[ReportRow]) -> String {
    let mut out = String::from(
        "| App | Version | Class | Sent | Bytes | Cost(ms) | Mean latency(us) |\n\
         |---|---|---|--:|--:|--:|--:|\n",
    );
    for r in largest(rows) {
        for c in &r.classes {
            out.push_str(&format!(
                "| {} | {} | {} | {} | {} | {:.3} | {:.1} |\n",
                r.app,
                r.variant,
                c.class,
                c.sent,
                c.bytes,
                c.cost_ns as f64 / 1e6,
                c.mean_latency_ns as f64 / 1e3
            ));
        }
    }
    out
}

/// Demand fetches and their bytes per granule class of each (application,
/// variant) at its largest cluster size.
#[must_use]
pub fn granule_markdown(rows: &[ReportRow]) -> String {
    let mut out = String::from(
        "| App | Version | Fine fetches | Fine B | Page fetches | Page B | Bulk fetches | \
         Bulk B |\n\
         |---|---|--:|--:|--:|--:|--:|--:|\n",
    );
    for r in largest(rows) {
        out.push_str(&format!(
            "| {} | {} | {} | {} | {} | {} | {} | {} |\n",
            r.app,
            r.variant,
            r.granule_fine_fetches,
            r.granule_fine_bytes,
            r.granule_page_fetches,
            r.granule_page_bytes,
            r.granule_bulk_fetches,
            r.granule_bulk_bytes
        ));
    }
    out
}

/// The paper's own variants (rows with a paper reference and their own
/// speedup base) at the largest cluster size they reach: Figure 2's and
/// the per-notice table's rows.
fn paper_variants_at_largest(rows: &[ReportRow]) -> Vec<&ReportRow> {
    let paper_variant = |r: &&ReportRow| r.paper.is_some() && r.base == r.variant;
    let n = rows.iter().filter(paper_variant).map(|r| r.n).max();
    rows.iter().filter(paper_variant).filter(|r| Some(r.n) == n).collect()
}

/// Figure 2: the paper's variants' time buckets at the largest cluster
/// size.
#[must_use]
pub fn figure2_markdown(rows: &[ReportRow]) -> String {
    let mut out = String::from(
        "Average seconds per node over the whole run; Time(s) ends at the last \
         node's `app.done_ns`, before node 0 reads the result back, so the \
         buckets can sum past it.\n\n\
         | App | Version | N | User | Unix | CarlOS | Idle | Time(s) | paper T(s) |\n\
         |---|---|--:|--:|--:|--:|--:|--:|--:|\n",
    );
    for r in paper_variants_at_largest(rows) {
        let [user, unix, carlos, idle] = r.buckets;
        let paper = r.paper.map_or(0.0, |p| p.time_s);
        out.push_str(&format!(
            "| {} | {} | {} | {user:.1} | {unix:.1} | {carlos:.1} | {idle:.1} | {:.1} | \
             {paper:.1} |\n",
            r.app, r.variant, r.n, r.secs
        ));
    }
    out
}

/// §5.4's consistency overhead per write notice: the paper's variants'
/// CarlOS-bucket time over the notices they applied, at the largest
/// cluster size.
#[must_use]
pub fn per_notice_markdown(rows: &[ReportRow]) -> String {
    let mut out = String::from(
        "CarlOS-bucket time of all nodes over the write notices they applied \
         (n/a below 100 notices: almost no shared-memory traffic).\n\n\
         | App | Version | N | Notices | µs/notice | paper µs |\n\
         |---|---|--:|--:|--:|--:|\n",
    );
    for r in paper_variants_at_largest(rows) {
        #[allow(clippy::cast_precision_loss)]
        let measured = if r.notices_applied < 100 {
            "n/a".to_string()
        } else {
            let carlos_us = r.buckets[2] * r.n as f64 * 1e6;
            format!("{:.1}", carlos_us / r.notices_applied as f64)
        };
        let paper = paper_per_notice_us(r.app, r.variant).map_or("-".into(), |p| format!("{p:.0}"));
        out.push_str(&format!(
            "| {} | {} | {} | {} | {measured} | {paper} |\n",
            r.app, r.variant, r.n, r.notices_applied
        ));
    }
    out
}

/// Every ablation row among `rows` beside its base row of the same size
/// (when `rows` has it).
#[must_use]
pub fn contrast_markdown(rows: &[ReportRow]) -> String {
    let mut out = String::from(
        "| App | Row | Base | N | Base T(s) | T(s) | Δ time | Base msgs | Msgs | \
         Base fetches | Fetches | paper Δ |\n\
         |---|---|---|--:|--:|--:|--:|--:|--:|--:|--:|--:|\n",
    );
    let pairs = rows.iter().filter(|r| r.base != r.variant).filter_map(|r| {
        let base = rows.iter().find(|b| (b.app, b.variant, b.n) == (r.app, r.base, r.n))?;
        Some((r, base))
    });
    for (r, b) in pairs {
        out.push_str(&format!(
            "| {} | {} | {} | {} | {:.2} | {:.2} | {:+.1}% | {} | {} | {} | {} | {} |\n",
            r.app,
            r.variant,
            b.variant,
            r.n,
            b.secs,
            r.secs,
            (r.secs / b.secs - 1.0) * 100.0,
            b.messages,
            r.messages,
            b.fetch_diffs,
            r.fetch_diffs,
            paper_contrast(r.app, r.variant)
        ));
    }
    out
}

/// §5.4's annotation microcosts, measured beside the paper's.
#[must_use]
pub fn microcosts_markdown(m: &Microcosts) -> String {
    format!(
        "CarlOS-bucket time per message, sender and receiver together, over \
         a two-node stream of {} messages.\n\n\
         | Quantity | Measured (µs) | Paper |\n\
         |---|--:|---|\n\
         | NONE | {:.1} | - |\n\
         | REQUEST − NONE | {:.1} | 5–15 µs |\n\
         | RELEASE − NONE (no notices) | {:.1} | ~30 µs |\n",
        m.messages,
        m.none_us,
        m.request_us - m.none_us,
        m.release_us - m.none_us
    )
}

/// The row arrays [`row_gate`] compares: each array's name, the text
/// members that name a row beside its `n`, and the members left out (host
/// time, the one column that is not virtual).
const GATED: [(&str, &[&str], &[&str]); 2] = [
    ("rows", &["app", "variant"], &[]),
    ("serve_rows", &["variant"], &["host_seconds"]),
];

/// The exact row gate: every (app, variant, n) row and every (variant, n)
/// serve row of the committed baseline must be in the fresh report, with
/// every field the baseline row has — each `classes` entry included, a
/// serve row's `host_seconds` excepted — equal; so must the microcosts
/// block if the baseline has one. Quick runs are bit-deterministic, so any
/// difference is a real change. Rows and fields the baseline lacks pass,
/// and are listed in the returned lines.
///
/// # Errors
///
/// Returns every missing row and every differing row, each named with its
/// first differing field, one a line; or a document that does not parse.
pub fn row_gate(report_json: &str, baseline_json: &str) -> Result<Vec<String>, String> {
    let parse = |what: &str, text: &str| {
        json::parse(text).map_err(|e| format!("{what} JSON does not parse: {e}"))
    };
    let (fresh, base) = (parse("report", report_json)?, parse("baseline", baseline_json)?);
    let mut lines = Vec::new();
    let mut differ = Vec::new();
    let mut new_fields = BTreeSet::new();
    for (array, names, free) in GATED {
        let rows = |doc: &JsonValue, what: &str| {
            let rows = doc
                .get(array)
                .and_then(JsonValue::as_array)
                .ok_or_else(|| format!("{what} JSON has no {array} array"))?;
            Ok::<_, String>(rows.iter().map(|r| without(r, free)).collect::<Vec<_>>())
        };
        let (fresh_rows, base_rows) = (rows(&fresh, "report")?, rows(&base, "baseline")?);
        let key = |r: &JsonValue| {
            let text = |k: &&str| r.get(k).and_then(JsonValue::as_str).unwrap_or("?");
            let n = r.get("n").and_then(JsonValue::as_f64).unwrap_or(f64::NAN);
            format!("{} n={n}", names.iter().map(text).collect::<Vec<_>>().join("/"))
        };
        for b in &base_rows {
            let k = key(b);
            let verdict = match fresh_rows.iter().find(|f| key(f) == k) {
                Some(f) => same_json(b, f, &k, &mut new_fields),
                None => Err(format!("report has no {k} row")),
            };
            differ.extend(verdict.err());
        }
        lines.push(format!("{} baseline {array} equal", base_rows.len()));
        lines.extend(
            fresh_rows
                .iter()
                .map(key)
                .filter(|k| !base_rows.iter().any(|b| key(b) == *k))
                .map(|k| format!("new row {k}")),
        );
    }
    if let Some(b) = base.get("microcosts") {
        let verdict = match fresh.get("microcosts") {
            Some(f) => same_json(b, f, "microcosts", &mut new_fields),
            None => Err("report has no microcosts block".to_string()),
        };
        differ.extend(verdict.err());
    }
    if !differ.is_empty() {
        return Err(format!("{} baseline entries differ:\n{}", differ.len(), differ.join("\n")));
    }
    lines.extend(new_fields.into_iter().map(|f| format!("new field {f}")));
    Ok(lines)
}

/// `row` without its members `names`.
fn without(row: &JsonValue, names: &[&str]) -> JsonValue {
    let mut row = row.clone();
    if let JsonValue::Object(members) = &mut row {
        members.retain(|k, _| !names.contains(&k.as_str()));
    }
    row
}

/// Checks that `fresh` holds everything `base` does, equal, at `path`;
/// object members only `fresh` has are collected into `new_fields`.
fn same_json(
    base: &JsonValue,
    fresh: &JsonValue,
    path: &str,
    new_fields: &mut BTreeSet<String>,
) -> Result<(), String> {
    match (base, fresh) {
        (JsonValue::Object(b), JsonValue::Object(f)) => {
            for (k, v) in b {
                let at = format!("{path}: {k}");
                let fv = f.get(k).ok_or_else(|| format!("{at} is missing"))?;
                same_json(v, fv, &at, new_fields)?;
            }
            new_fields.extend(f.keys().filter(|k| !b.contains_key(*k)).cloned());
            Ok(())
        }
        (JsonValue::Array(b), JsonValue::Array(f)) if b.len() == f.len() => b
            .iter()
            .zip(f)
            .enumerate()
            .try_for_each(|(i, (b, f))| same_json(b, f, &format!("{path}[{i}]"), new_fields)),
        _ if base == fresh => Ok(()),
        _ => Err(format!("{path} changed: baseline {base:?}, now {fresh:?}")),
    }
}

#[cfg(test)]
mod tests {
    use carlos_apps::{launch_with, Run};
    use carlos_check::Checker;

    use super::*;

    fn quick(max_nodes: usize) -> ReportOptions {
        ReportOptions {
            scale: Scale::Quick,
            max_nodes,
        }
    }

    /// `x` as the document writes it, at `places` decimals.
    fn at(places: usize, x: f64) -> String {
        format!("{x:.places$}")
    }

    /// `decoded` is `rendered` field by field: labels and counts exactly,
    /// each float at the precision [`to_json`] writes it.
    fn assert_rows_decoded(rendered: &[ReportRow], decoded: &[ReportRow]) {
        assert_eq!(decoded.len(), rendered.len());
        for (a, b) in rendered.iter().zip(decoded) {
            let id = format!("{}/{}/{}", a.app, a.variant, a.n);
            assert_eq!((a.app, a.variant, a.base, a.n), (b.app, b.variant, b.base, b.n), "{id}");
            let counts = |r: &ReportRow| {
                [
                    r.messages,
                    r.avg_bytes,
                    r.notices_applied,
                    r.fetch_diffs,
                    r.fetch_pages,
                    r.granule_fine_fetches,
                    r.granule_fine_bytes,
                    r.granule_page_fetches,
                    r.granule_page_bytes,
                    r.granule_bulk_fetches,
                    r.granule_bulk_bytes,
                    r.wait_lock_ns,
                    r.wait_barrier_ns,
                ]
            };
            assert_eq!(counts(a), counts(b), "{id}");
            let floats = |r: &ReportRow| [at(4, r.secs), at(3, r.speedup), at(4, r.util)];
            assert_eq!(floats(a), floats(b), "{id}");
            assert_eq!(a.buckets.map(|s| at(6, s)), b.buckets.map(|s| at(6, s)), "{id}");
            let classes = |r: &ReportRow| {
                r.classes
                    .iter()
                    .map(|c| (c.class, c.sent, c.dispatched, c.bytes, c.cost_ns, c.mean_latency_ns))
                    .collect::<Vec<_>>()
            };
            assert_eq!(classes(a), classes(b), "{id}");
            let paper = |r: &ReportRow| {
                r.paper.map(|p| {
                    (at(1, p.time_s), at(2, p.speedup), p.messages, p.avg_bytes, at(2, p.util))
                })
            };
            assert_eq!(paper(a), paper(b), "{id}");
        }
    }

    /// `decoded` is `rendered` field by field, as [`assert_rows_decoded`].
    fn assert_serve_decoded(rendered: &[ServeRow], decoded: &[ServeRow]) {
        assert_eq!(decoded.len(), rendered.len());
        for (a, b) in rendered.iter().zip(decoded) {
            let id = format!("{}/{}", a.variant, a.n);
            assert_eq!((a.variant, a.n), (b.variant, b.n), "{id}");
            let counts = |r: &ServeRow| {
                [
                    r.attempted,
                    r.completed,
                    r.timed_out,
                    r.p50_ns,
                    r.p99_ns,
                    r.p999_ns,
                    r.bytes_per_op,
                    r.messages,
                    r.cas_done,
                    r.mirror_mismatches,
                    r.gcs,
                    r.gc_records,
                    r.peak_records,
                ]
            };
            assert_eq!(counts(a), counts(b), "{id}");
            let floats = |r: &ServeRow| {
                [
                    at(4, r.secs),
                    at(3, r.ops_per_sec),
                    at(4, r.util),
                    at(6, r.yield_fraction),
                    at(6, r.harvest),
                    at(4, r.host_seconds),
                ]
            };
            assert_eq!(floats(a), floats(b), "{id}");
        }
    }

    /// A 2-node quick report end to end: every cell runs, the class
    /// ledgers are populated and self-consistent, and the document — rows,
    /// microcosts and serving rows — decodes back into what rendered it,
    /// field by field (class ledgers and paper values included) at the
    /// precision the document holds.
    #[test]
    fn quick_report_rows_and_json_are_consistent() {
        let opts = quick(2);
        let rows = run_report(SPECS, &opts).expect("quick report runs clean");
        let micro = run_microcosts().expect("streams run clean");
        let serve = run_serve_rows(&opts).expect("serve rows run clean");
        // 7 legacy (app, variant) groups, 4 variable-granularity groups and
        // the SOR update group, × 2 cluster sizes; the TSP Lock and SOR
        // 8-node rows; 11 ablations at the largest size only.
        assert_eq!(rows.len(), 37);
        for r in &rows {
            assert!(r.secs > 0.0, "{}/{} has zero elapsed", r.app, r.variant);
            assert!(r.buckets[0] > 0.0, "{}/{} computed nothing", r.app, r.variant);
            if r.n > 1 {
                assert!(r.messages > 0, "{}/{} sent nothing", r.app, r.variant);
                let sent: u64 = r.classes.iter().map(|c| c.sent).sum();
                let dispatched: u64 = r.classes.iter().map(|c| c.dispatched).sum();
                assert!(sent > 0);
                assert_eq!(sent, dispatched, "{}/{} lost messages", r.app, r.variant);
                assert!(
                    r.classes.iter().any(|c| c.cost_ns > 0),
                    "{}/{} attributed no protocol cost",
                    r.app,
                    r.variant
                );
            }
        }
        // Hybrid-2's speedup is over Hybrid-1's single-node run, as in the
        // paper's Table 2.
        let row = |variant: &str, n: usize| {
            rows.iter()
                .find(|r| (r.app, r.variant, r.n) == ("Quicksort", variant, n))
                .expect("row")
        };
        let (h2, h1) = (row("Hybrid-2", 2), row("Hybrid-1", 1));
        assert_eq!(h2.base, "Hybrid-1");
        assert!((h2.speedup - h1.secs / h2.secs).abs() < 1e-12, "{}", h2.speedup);
        assert!(h2.paper.is_none(), "the paper reports Hybrid-2 at four nodes only");
        let json = to_json(&rows, Some(&micro), &serve, &opts);
        let doc = json::parse(&json).expect("report JSON parses");
        let h2_json = doc
            .get("rows")
            .and_then(JsonValue::as_array)
            .expect("rows array")
            .iter()
            .find(|r| r.get("variant").and_then(JsonValue::as_str) == Some("Hybrid-2"))
            .expect("Hybrid-2 row");
        assert_eq!(h2_json.get("speedup_base").and_then(JsonValue::as_str), Some("Hybrid-1"));
        for field in ["user", "unix", "carlos", "idle"].map(|b| format!("bucket_{b}_s")) {
            assert!(h2_json.get(&field).and_then(JsonValue::as_f64).is_some(), "{field}");
        }
        #[allow(clippy::cast_precision_loss)]
        let notices = h2.notices_applied as f64;
        assert_eq!(h2_json.get("notices_applied").and_then(JsonValue::as_f64), Some(notices));
        let report = decode(&json).expect("the report decodes");
        assert_rows_decoded(&rows, &report.rows);
        assert_serve_decoded(&serve, &report.serve);
        let m = report.micro.expect("the microcosts decode");
        assert_eq!(
            (m.messages, at(3, m.none_us), at(3, m.request_us), at(3, m.release_us)),
            (micro.messages, at(3, micro.none_us), at(3, micro.request_us), at(3, micro.release_us))
        );
        let again = to_json(&report.rows, report.micro.as_ref(), &report.serve, &report.opts);
        assert_eq!(again, json, "decoding lost or changed a field");
        assert!(decode(&json.replacen("\"Hybrid-2\"", "\"Hybrid-3\"", 1)).is_err());
        let md = to_markdown(&report);
        assert!(md.contains("| TSP |") && md.contains("| SOR |"));
        assert!(md.contains("Per-granule-class demand traffic"));
        assert!(md.contains("## Figure 2") && md.contains("per write notice"));
        assert!(md.contains("| Quicksort | Hybrid-2 | Hybrid-1 | 2 |"), "{md}");
        assert!(md.contains("| SOR | -+update | - | 1 |"), "{md}");
        // The variable-granularity rows actually exercise non-page
        // granules and the per-class traffic columns see them.
        let vg: Vec<_> = rows.iter().filter(|r| r.variant.ends_with("+vg")).collect();
        assert_eq!(vg.len(), 8);
        assert!(
            vg.iter()
                .any(|r| r.n > 1 && (r.granule_fine_fetches > 0 || r.granule_bulk_fetches > 0)),
            "variable-granularity rows recorded no non-page granule fetches"
        );
    }

    /// The microcost streams reproduce §5.4's differences exactly: 10 µs of
    /// vector-timestamp handling on a REQUEST, 40 µs on a RELEASE.
    #[test]
    fn microcosts_are_pinned() {
        let m = run_microcosts().expect("streams run clean");
        assert_eq!(m.messages, 500);
        assert_eq!(format!("{:.1}", m.request_us - m.none_us), "10.0");
        assert_eq!(format!("{:.1}", m.release_us - m.none_us), "40.0");
        let md = microcosts_markdown(&m);
        assert!(md.contains("| REQUEST − NONE | 10.0 |"), "{md}");
        let json = to_json(&[], Some(&m), &[], &quick(2));
        let doc = json::parse(&json).expect("microcosts JSON parses");
        assert!(doc.get("microcosts").and_then(|b| b.get("none_us")).is_some());
    }

    fn gate_row(app: &'static str, messages: u64, sys_bytes: u64) -> ReportRow {
        ReportRow {
            app,
            variant: "Lock",
            base: "Lock",
            n: 4,
            secs: 1.0,
            speedup: 1.0,
            messages,
            avg_bytes: 100,
            util: 0.1,
            buckets: [0.5, 0.1, 0.1, 0.3],
            notices_applied: 10,
            classes: vec![ClassCost {
                class: "SYSTEM",
                sent: 10,
                dispatched: 10,
                bytes: sys_bytes,
                cost_ns: 1,
                mean_latency_ns: 1,
            }],
            fetch_diffs: 1,
            fetch_pages: 1,
            granule_fine_fetches: 0,
            granule_fine_bytes: 0,
            granule_page_fetches: 1,
            granule_page_bytes: 100,
            granule_bulk_fetches: 0,
            granule_bulk_bytes: 0,
            wait_lock_ns: 0,
            wait_barrier_ns: 0,
            paper: None,
        }
    }

    fn gate_serve_row() -> ServeRow {
        ServeRow {
            variant: "KV",
            n: 8,
            secs: 1.0,
            ops_per_sec: 100.0,
            attempted: 100,
            completed: 100,
            timed_out: 0,
            p50_ns: 1_000,
            p99_ns: 2_000,
            p999_ns: 3_000,
            bytes_per_op: 200,
            messages: 300,
            util: 0.1,
            yield_fraction: 1.0,
            harvest: 1.0,
            cas_done: 2,
            mirror_mismatches: 0,
            gcs: 1,
            gc_records: 0,
            peak_records: 40,
            host_seconds: 0.5,
        }
    }

    /// The row gate passes a report against itself, fails on one changed
    /// field of a row or a serve row (naming the row and the field) and on
    /// a missing row, ignores a serve row's host time, and passes added
    /// rows and fields, listing them.
    #[test]
    fn row_gate_demands_equal_rows() {
        let opts = quick(4);
        let json = |rows: &[ReportRow], serve: &[ServeRow]| to_json(rows, None, serve, &opts);
        let both = [gate_row("TSP", 1000, 50_000), gate_row("Quicksort", 2000, 80_000)];
        let kv = [gate_serve_row()];
        let baseline = json(&both, &kv);

        let lines = row_gate(&baseline, &baseline).expect("self-comparison passes");
        assert_eq!(lines, ["2 baseline rows equal", "1 baseline serve_rows equal"]);

        let changed = [gate_row("TSP", 1000, 50_000), gate_row("Quicksort", 2000, 80_001)];
        let err = row_gate(&json(&changed, &kv), &baseline).unwrap_err();
        assert!(err.contains("Quicksort/Lock n=4") && err.contains("classes[0]: bytes"), "{err}");
        // Every differing row is named, each with its first differing field.
        let both_changed = [gate_row("TSP", 1001, 50_000), gate_row("Quicksort", 2000, 80_001)];
        let err = row_gate(&json(&both_changed, &kv), &baseline).unwrap_err();
        assert!(err.starts_with("2 baseline entries differ"), "{err}");
        assert!(err.contains("TSP/Lock n=4: messages changed"), "{err}");
        assert!(err.contains("Quicksort/Lock n=4: classes[0]: bytes"), "{err}");

        let err = row_gate(&json(&both[..1], &kv), &baseline).unwrap_err();
        assert!(err.contains("no Quicksort/Lock n=4 row"), "{err}");

        let mut slower = kv.clone();
        slower[0].p999_ns += 1;
        let err = row_gate(&json(&both, &slower), &baseline).unwrap_err();
        assert!(err.contains("KV n=8") && err.contains("p999_ns"), "{err}");
        let mut host = kv.clone();
        host[0].host_seconds *= 2.0;
        assert!(row_gate(&json(&both, &host), &baseline).is_ok(), "host time is not gated");
        let err = row_gate(&json(&both, &[]), &baseline).unwrap_err();
        assert!(err.contains("no KV n=8 row"), "{err}");

        let older = "{\"rows\": [{\"app\": \"TSP\", \"variant\": \"Lock\", \"n\": 4, \
                     \"messages\": 1000, \
                     \"classes\": [{\"class\": \"SYSTEM\", \"bytes\": 50000}]}], \
                     \"serve_rows\": []}";
        let lines = row_gate(&baseline, older).expect("added rows and fields pass");
        assert!(lines.contains(&"new row Quicksort/Lock n=4".to_string()), "{lines:?}");
        assert!(lines.contains(&"new row KV n=8".to_string()), "{lines:?}");
        assert!(lines.contains(&"new field notices_applied".to_string()), "{lines:?}");
        assert!(lines.contains(&"new field cost_ns".to_string()), "{lines:?}");

        for partial in ["{\"serve_rows\": []}", "{\"rows\": []}"] {
            assert!(
                row_gate(&baseline, partial).is_err(),
                "a baseline without rows or serve rows must fail loudly"
            );
        }
    }

    /// The 8-node scaling rows are traced like every other row — every wire
    /// message is on their class ledger, which also counts loopback sends —
    /// and the cost table shows each (application, variant) at its own
    /// largest cluster size.
    #[test]
    fn eight_node_rows_are_traced_and_render() {
        let rows = run_report(SPECS, &quick(2)).expect("quick report runs clean");
        let eight: Vec<_> = rows.iter().filter(|r| r.n == 8).collect();
        assert_eq!(
            eight.iter().map(|r| (r.app, r.variant)).collect::<Vec<_>>(),
            [("TSP", "Lock"), ("SOR", "-")]
        );
        for r in eight {
            let sent: u64 = r.classes.iter().map(|c| c.sent).sum();
            let dispatched: u64 = r.classes.iter().map(|c| c.dispatched).sum();
            assert!(sent >= r.messages, "{} n=8: {sent} on the ledger", r.app);
            assert_eq!(sent, dispatched, "{} n=8 lost messages", r.app);
        }
        let report = Report { rows, micro: None, serve: Vec::new(), opts: quick(2) };
        let md = to_markdown(&report);
        let cost_table = md
            .split("## Per-message-class cost attribution")
            .nth(1)
            .expect("cost table");
        assert!(cost_table.contains("| Water | Hybrid |"), "{cost_table}");
        assert!(cost_table.contains("| TSP | Lock |"), "{cost_table}");
    }

    /// The quick report's 8-node TSP Lock, SOR and KV configurations re-run
    /// under the consistency checker: no violation, and the same elapsed
    /// time and message count as the unchecked runs the report publishes.
    #[test]
    fn eight_node_rows_are_checked_clean() {
        let totals = |run: &Run| (run.app().report.elapsed, run.app().report.net.messages);
        let cells = SPECS
            .iter()
            .filter(|s| s.sizes == Sizes::ScalingTo8)
            .map(|s| s.cell(8, Scale::Quick));
        for cell in cells.chain([Spec::new(App::Serve(Traffic::Steady), 8, Scale::Quick)]) {
            let what = cell.app.name();
            let check = Checker::new(8);
            let checked = launch_with(&cell, Some(check.clone()), None).expect("runs clean");
            let plain = launch(&cell).expect("runs clean");
            assert_eq!(totals(&checked), totals(&plain), "{what}: the checker showed");
            check.assert_clean();
        }
    }

    /// Every configuration the report publishes, checked once: each spec's
    /// quick cell at four nodes, quick KV at four nodes and KV/chaos at four
    /// and at eight, the size of its row, run under the consistency
    /// checker, which stays clean, and compute the right answer.
    #[test]
    fn every_report_configuration_is_checked_clean() {
        let cells = SPECS.iter().map(|row| {
            let what = format!("{}/{}", row.app.name(), row.label);
            (what, row.cell(4, Scale::Quick))
        });
        let serving = [
            Spec::new(App::Serve(Traffic::Steady), 4, Scale::Quick),
            Spec::new(App::Serve(Traffic::Chaos), 4, Scale::Test),
            Spec::new(App::Serve(Traffic::Chaos), 8, Scale::Test),
        ]
        .map(|cell| (format!("{} n={}", cell.app.name(), cell.n), cell));
        for (what, cell) in cells.chain(serving) {
            let spec = Spec {
                observe: Observe::Check,
                ..cell
            };
            let run = launch(&spec).unwrap_or_else(|e| panic!("{what}: {e}"));
            let check = run.check.as_ref().expect("checked");
            assert!(check.violations().is_empty(), "{what}: {:?}", check.violations());
            assert_eq!(run.verdict(&Reference::of(&spec)), Ok(()), "{what}");
        }
    }

    /// Paper-scale KV at sixteen nodes under the consistency checker:
    /// clean across its collection rounds, and the exact counter verdict.
    /// 5–15 s in a release build
    /// and minutes in a debug one, so `ci.sh` runs it, in release.
    #[test]
    #[ignore = "paper scale; ci.sh runs it in a release build"]
    fn sixteen_node_paper_kv_is_checked_clean() {
        let spec = Spec {
            observe: Observe::Check,
            ..Spec::new(App::Serve(Traffic::Steady), 16, Scale::Paper)
        };
        let run = launch(&spec).expect("KV n=16 runs clean");
        let check = run.check.as_ref().expect("checked");
        assert!(check.violations().is_empty(), "KV n=16: {:?}", check.violations());
        assert_eq!(run.verdict(&Reference::of(&spec)), Ok(()));
        // Every node counts each round.
        let rounds = run.app().report.counter_total("gc.rounds");
        assert!(rounds > 0 && rounds.is_multiple_of(16), "KV n=16: {rounds} node rounds");
    }

    /// A serving shard's owner ships a client no slot-header diff: no
    /// client holds a copy of a header granule, so each would be dropped.
    #[test]
    fn serving_ships_no_diff_a_client_drops() {
        let opts = quick(8);
        for spec in serve_specs(&opts) {
            let what = format!("{} n={}", spec.app.name(), spec.n);
            let run = launch(&spec).unwrap_or_else(|e| panic!("{what}: {e}"));
            let report = &run.app().report;
            for counter in ["carlos.update_diffs_received", "carlos.update_diffs_dropped"] {
                assert_eq!(report.counter_total(counter), 0, "{what}: {counter}");
            }
            let Answer::Serve(r) = &run.answer else { unreachable!("a serving run") };
            if spec.app == App::Serve(Traffic::Steady) {
                let c = &r.totals.client;
                assert_eq!(c.completed, c.attempted, "{what}");
            }
        }
    }

    /// The quick serve rows run clean — the fault-free row at
    /// yield 1.0 with a clean server mirror, the chaos row shedding load
    /// with every drop attributed — the JSON round-trips through
    /// the workspace's JSON parser, and the row gate passes a run against its
    /// own output.
    #[test]
    fn serve_rows_run_gate_and_render() {
        let opts = quick(8);
        let serve = run_serve_rows(&opts).expect("serve rows run clean");
        assert_eq!(serve.len(), 2, "quick mode: KV n=8 + KV/chaos n=8");
        let kv = &serve[0];
        assert_eq!((kv.variant, kv.n), ("KV", 8));
        assert_eq!(kv.timed_out, 0, "fault-free serving must not time out");
        assert!((kv.yield_fraction - 1.0).abs() < f64::EPSILON);
        assert!(kv.completed > 0 && kv.ops_per_sec > 0.0 && kv.bytes_per_op > 0);
        let chaos = &serve[1];
        assert_eq!((chaos.variant, chaos.n), ("KV/chaos", 8));
        assert!(chaos.yield_fraction < 1.0, "chaos must shed load");
        assert!(chaos.harvest < 1.0, "the probe window straddles the partition");
        assert_eq!(
            chaos.attempted,
            chaos.completed + chaos.timed_out,
            "every drop must be attributed"
        );

        let json = to_json(&[], None, &serve, &opts);
        let doc = json::parse(&json).expect("serve JSON parses");
        let parsed = doc.get("serve_rows").and_then(JsonValue::as_array).expect("serve_rows array");
        assert_eq!(parsed.len(), serve.len());

        let lines = row_gate(&json, &json).expect("self-comparison passes");
        assert_eq!(lines, ["0 baseline rows equal", "2 baseline serve_rows equal"]);

        let md = serve_markdown(&serve);
        assert!(md.contains("| KV | 8 |") && md.contains("| KV/chaos | 8 |"), "{md}");
    }
}
