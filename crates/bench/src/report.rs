//! The paper-table report harness: runs the four applications (TSP,
//! Quicksort, Water, SOR) across 1–4 nodes — TSP Lock and SOR also at 8 —
//! with a metrics-only [`Tracer`] installed, and renders the results two
//! ways:
//!
//! - `BENCH_paper.json` — machine-readable rows mirroring the paper's
//!   Tables 1–3 (time, speedup, messages, average size, utilization,
//!   paper reference values), extended with the per-message-class cost
//!   attribution the paper only reports as §5.4 microcosts;
//! - a Markdown table for `EXPERIMENTS.md`-style side-by-side reading.
//!
//! Scale comes from [`ReportOptions`]: paper-scale configurations by
//! default, test-scale when `CARLOS_REPORT_QUICK=1` (CI runs quick mode).

use std::collections::BTreeMap;

use carlos_apps::harness::AppReport;
use carlos_apps::qsort::{try_run_qsort, QsortConfig, QsortVariant};
use carlos_apps::sor::{try_run_sor, SorConfig};
use carlos_apps::tsp::{try_run_tsp, TspConfig, TspVariant};
use carlos_apps::water::{try_run_water, WaterConfig, WaterVariant};
use carlos_core::{CoreConfig, MsgClass};
use carlos_serve::run::{try_run_serve, ServeConfig, ServeResult};
use carlos_sim::SimError;
use carlos_trace::Tracer;

use crate::{paper_table1, paper_table2, paper_table3, PaperRow};

/// Scale and scope of one report run.
#[derive(Debug, Clone)]
pub struct ReportOptions {
    /// Test-scale configurations instead of paper-scale ones.
    pub quick: bool,
    /// Largest cluster size (the paper stops at 4).
    pub max_nodes: usize,
}

impl ReportOptions {
    /// Paper-scale, 1–4 nodes, unless `CARLOS_REPORT_QUICK=1` is set.
    #[must_use]
    pub fn from_env() -> Self {
        let quick = std::env::var("CARLOS_REPORT_QUICK").is_ok_and(|v| !v.is_empty() && v != "0");
        Self {
            quick,
            max_nodes: 4,
        }
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
#[derive(Debug, Clone)]
pub struct ReportRow {
    /// Application name ("TSP", "Quicksort", "Water", "SOR").
    pub app: &'static str,
    /// Variant label ("Lock", "Hybrid", "Hybrid-1", "-").
    pub variant: &'static str,
    /// Cluster size.
    pub n: usize,
    /// Measured elapsed virtual seconds.
    pub secs: f64,
    /// Speedup vs the measured single-node run of the same variant.
    pub speedup: f64,
    /// Messages on the wire.
    pub messages: u64,
    /// Average message payload size in bytes.
    pub avg_bytes: u64,
    /// Network utilization (fraction).
    pub util: f64,
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

/// Cluster size of the TSP Lock and SOR scaling rows, past the paper's
/// 4-node testbed.
const SCALING_N: usize = 8;

/// The report's TSP configuration: paper scale, or in quick mode the
/// test-scale workload under the real cost model — the whole point of the
/// report is cost attribution, and `fast_test` zeroes every protocol cost.
fn tsp_config(opts: &ReportOptions, n: usize, variant: TspVariant) -> TspConfig {
    if opts.quick {
        let mut cfg = TspConfig::test(n, variant);
        cfg.core = CoreConfig::osdi94();
        cfg
    } else {
        TspConfig::paper(n, variant)
    }
}

/// The report's SOR configuration (see [`tsp_config`]).
fn sor_config(opts: &ReportOptions, n: usize) -> SorConfig {
    if opts.quick {
        let mut cfg = SorConfig::test(n);
        cfg.core = CoreConfig::osdi94();
        cfg
    } else {
        SorConfig::paper_scale(n)
    }
}

/// The report's fault-free serving configuration: in quick mode the same
/// cost model and protocol on 1/32 of the schedule.
fn serve_config(opts: &ReportOptions, n: usize) -> ServeConfig {
    let mut cfg = ServeConfig::paper(n);
    if opts.quick {
        cfg.ops_per_client /= 32;
        cfg.cas_per_client /= 32;
    }
    cfg
}

/// Collapses a finished traced run into a [`ReportRow`].
fn finish_row(
    app: &'static str,
    variant: &'static str,
    n: usize,
    rep: &AppReport,
    single_s: f64,
    tracer: &Tracer,
    paper: Option<PaperRow>,
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
    ReportRow {
        app,
        variant,
        n,
        secs: rep.secs,
        speedup: if rep.secs > 0.0 { single_s / rep.secs } else { 0.0 },
        messages: rep.messages,
        avg_bytes: rep.avg_msg_bytes,
        util: rep.net_util,
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
        paper,
    }
}

/// Runs every (application, variant, n) cell and returns the rows in
/// table order: TSP lock/hybrid, Quicksort lock/hybrid-1, Water
/// lock/hybrid, SOR — each from 1 node up to `max_nodes`, TSP lock and SOR
/// also at 8 nodes — then the variable-granularity rows.
///
/// # Errors
///
/// Returns the first [`SimError`] if any run deadlocks, crashes, or
/// aborts (the tracer is an observer and cannot itself cause one).
pub fn run_report(opts: &ReportOptions) -> Result<Vec<ReportRow>, SimError> {
    let mut rows: Vec<ReportRow> = Vec::new();
    let ns = 1..=opts.max_nodes;
    let scaling = (opts.max_nodes < SCALING_N).then_some(SCALING_N);

    for (variant, name) in [(TspVariant::Lock, "Lock"), (TspVariant::Hybrid, "Hybrid")] {
        let mut single = 0.0;
        for n in ns.clone().chain(scaling.filter(|_| matches!(variant, TspVariant::Lock))) {
            let tracer = Tracer::metrics_only(n);
            let mut cfg = tsp_config(opts, n, variant);
            cfg.trace = Some(tracer.clone());
            let r = try_run_tsp(&cfg)?;
            if n == 1 {
                single = r.app.secs;
            }
            rows.push(finish_row("TSP", name, n, &r.app, single, &tracer, paper_table1(name, n)));
        }
    }

    for (variant, name) in [
        (QsortVariant::Lock, "Lock"),
        (QsortVariant::Hybrid1, "Hybrid-1"),
    ] {
        let mut single = 0.0;
        for n in ns.clone() {
            let tracer = Tracer::metrics_only(n);
            let mut cfg = if opts.quick {
                // Test-scale workload, but the real cost model: the whole
                // point of the report is cost attribution, and
                // `fast_test` zeroes every protocol cost.
                let mut cfg = QsortConfig::test(n, variant);
                cfg.core = CoreConfig::osdi94();
                cfg
            } else {
                QsortConfig::paper(n, variant)
            };
            cfg.trace = Some(tracer.clone());
            let r = try_run_qsort(&cfg)?;
            assert!(r.sorted && r.permutation_ok, "report run must be correct");
            if n == 1 {
                single = r.app.secs;
            }
            rows.push(finish_row(
                "Quicksort",
                name,
                n,
                &r.app,
                single,
                &tracer,
                paper_table2(name, n),
            ));
        }
    }

    for (variant, name) in [(WaterVariant::Lock, "Lock"), (WaterVariant::Hybrid, "Hybrid")] {
        let mut single = 0.0;
        for n in ns.clone() {
            let tracer = Tracer::metrics_only(n);
            let mut cfg = if opts.quick {
                // Test-scale workload, but the real cost model: the whole
                // point of the report is cost attribution, and
                // `fast_test` zeroes every protocol cost.
                let mut cfg = WaterConfig::test(n, variant);
                cfg.core = CoreConfig::osdi94();
                cfg
            } else {
                WaterConfig::paper(n, variant)
            };
            cfg.trace = Some(tracer.clone());
            let r = try_run_water(&cfg)?;
            if n == 1 {
                single = r.app.secs;
            }
            rows.push(finish_row("Water", name, n, &r.app, single, &tracer, paper_table3(name, n)));
        }
    }

    {
        let mut single = 0.0;
        for n in ns.clone().chain(scaling) {
            let tracer = Tracer::metrics_only(n);
            let mut cfg = sor_config(opts, n);
            cfg.trace = Some(tracer.clone());
            let r = try_run_sor(&cfg)?;
            if n == 1 {
                single = r.app.secs;
            }
            rows.push(finish_row("SOR", "-", n, &r.app, single, &tracer, None));
        }
    }

    // Variable-granularity rows ("+vg"): the same Lock-variant workloads
    // with per-region granule hints, coalesced demand fetches, and
    // aggregated write notices — the traffic-reduction configuration. The
    // legacy rows above are untouched, so the before/after comparison is
    // readable from a single document.
    {
        let mut single = 0.0;
        for n in ns.clone() {
            let tracer = Tracer::metrics_only(n);
            let mut cfg = tsp_config(opts, n, TspVariant::Lock);
            cfg.granularity_hints = true;
            cfg.core = cfg.core.with_coalesced_fetches().with_aggregated_notices();
            cfg.trace = Some(tracer.clone());
            let r = try_run_tsp(&cfg)?;
            if n == 1 {
                single = r.app.secs;
            }
            rows.push(finish_row("TSP", "Lock+vg", n, &r.app, single, &tracer, None));
        }
    }

    {
        let mut single = 0.0;
        for n in ns.clone() {
            let tracer = Tracer::metrics_only(n);
            let mut cfg = if opts.quick {
                let mut cfg = QsortConfig::test(n, QsortVariant::Lock);
                cfg.core = CoreConfig::osdi94();
                cfg
            } else {
                QsortConfig::paper(n, QsortVariant::Lock)
            };
            cfg.granularity_hints = true;
            cfg.core = cfg.core.with_coalesced_fetches().with_aggregated_notices();
            cfg.trace = Some(tracer.clone());
            let r = try_run_qsort(&cfg)?;
            assert!(r.sorted && r.permutation_ok, "vg report run must be correct");
            if n == 1 {
                single = r.app.secs;
            }
            rows.push(finish_row(
                "Quicksort",
                "Lock+vg",
                n,
                &r.app,
                single,
                &tracer,
                None,
            ));
        }
    }

    {
        let mut single = 0.0;
        for n in ns.clone() {
            let tracer = Tracer::metrics_only(n);
            let mut cfg = if opts.quick {
                let mut cfg = WaterConfig::test(n, WaterVariant::Lock);
                cfg.core = CoreConfig::osdi94();
                cfg
            } else {
                WaterConfig::paper(n, WaterVariant::Lock)
            };
            cfg.granularity_hints = true;
            cfg.core = cfg.core.with_coalesced_fetches().with_aggregated_notices();
            cfg.trace = Some(tracer.clone());
            let r = try_run_water(&cfg)?;
            if n == 1 {
                single = r.app.secs;
            }
            rows.push(finish_row("Water", "Lock+vg", n, &r.app, single, &tracer, None));
        }
    }

    {
        let mut single = 0.0;
        for n in ns.clone() {
            let tracer = Tracer::metrics_only(n);
            let mut cfg = sor_config(opts, n);
            cfg.granularity_hints = true;
            cfg.core = cfg.core.with_coalesced_fetches().with_aggregated_notices();
            cfg.trace = Some(tracer.clone());
            let r = try_run_sor(&cfg)?;
            if n == 1 {
                single = r.app.secs;
            }
            rows.push(finish_row("SOR", "-+vg", n, &r.app, single, &tracer, None));
        }
    }

    Ok(rows)
}

/// One serving row: a `carlos-serve` run's latency/throughput/harvest
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

fn serve_row(variant: &'static str, n: usize, r: &ServeResult, host_seconds: f64) -> ServeRow {
    let t = &r.totals;
    ServeRow {
        variant,
        n,
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
pub fn run_serve_rows(opts: &ReportOptions) -> Result<Vec<ServeRow>, SimError> {
    let mut rows = Vec::new();
    let sizes: &[usize] = if opts.quick { &[8] } else { &[8, 16, 32] };
    for &n in sizes {
        let cfg = serve_config(opts, n);
        let started = std::time::Instant::now();
        let r = try_run_serve(&cfg)?;
        let host = started.elapsed().as_secs_f64();
        assert_eq!(
            r.totals.mirror_mismatches, 0,
            "serve row {n}: store/mirror disagreement"
        );
        rows.push(serve_row("KV", n, &r, host));
    }
    let started = std::time::Instant::now();
    let r = try_run_serve(&ServeConfig::chaos(8))?;
    let host = started.elapsed().as_secs_f64();
    assert_eq!(r.totals.mirror_mismatches, 0, "chaos row: store/mirror disagreement");
    rows.push(serve_row("KV/chaos", 8, &r, host));
    Ok(rows)
}

/// Renders the serving rows as a Markdown table.
#[must_use]
pub fn serve_markdown(rows: &[ServeRow]) -> String {
    let mut out = String::from("\n## Serving (carlos-serve)\n\n");
    out.push_str(
        "| Variant | N | Time(s) | Ops/s | p50(ms) | p99(ms) | p999(ms) | B/op | Msg/op | Yield | Harvest |\n\
         |---|--:|--:|--:|--:|--:|--:|--:|--:|--:|--:|\n",
    );
    #[allow(clippy::cast_precision_loss)]
    for r in rows {
        out.push_str(&format!(
            "| {} | {} | {:.2} | {:.1} | {:.3} | {:.3} | {:.3} | {} | {:.3} | {:.4} | {:.4} |\n",
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
            r.harvest
        ));
    }
    out
}

/// The serving regression gate: compares fresh serve rows against the
/// committed baseline's `serve_rows` by (variant, n) and rejects the run
/// if p999 latency or wire messages per completed operation grew, or
/// yield dropped, by more than 5% (runs are deterministic, so growth is
/// real). Returns one human-readable comparison line per row.
///
/// # Errors
///
/// Returns a description of the first regression, or of a baseline /
/// report row that is missing or malformed.
pub fn serve_gate(rows: &[ServeRow], baseline_json: &str) -> Result<Vec<String>, String> {
    const SERVE_TOLERANCE: f64 = 1.05;

    let doc = carlos_trace::json::parse(baseline_json)
        .map_err(|e| format!("baseline JSON does not parse: {e:?}"))?;
    let baseline_rows = doc
        .get("serve_rows")
        .and_then(carlos_trace::JsonValue::as_array)
        .ok_or_else(|| "baseline JSON has no serve_rows array".to_string())?;
    let mut lines = Vec::new();
    for r in rows {
        #[allow(clippy::cast_precision_loss)]
        let n = r.n as f64;
        let base = baseline_rows
            .iter()
            .find(|b| {
                b.get("variant").and_then(carlos_trace::JsonValue::as_str) == Some(r.variant)
                    && b.get("n").and_then(carlos_trace::JsonValue::as_f64) == Some(n)
            })
            .ok_or_else(|| format!("baseline has no {}/n={} serve row", r.variant, r.n))?;
        let field = |name: &str| {
            base.get(name)
                .and_then(carlos_trace::JsonValue::as_f64)
                .ok_or_else(|| format!("baseline {}/n={} row has no {name}", r.variant, r.n))
        };
        let base_p999 = field("p999_ns")?;
        let base_yield = field("yield")?;
        let base_msgs_per_op = field("messages")? / field("completed")?.max(1.0);
        #[allow(clippy::cast_precision_loss)]
        let p999 = r.p999_ns as f64;
        if p999 > base_p999 * SERVE_TOLERANCE {
            return Err(format!(
                "{}/n={} p999 regressed: {} ns vs baseline {} ns (>5%)",
                r.variant, r.n, r.p999_ns, base_p999
            ));
        }
        if r.yield_fraction < base_yield / SERVE_TOLERANCE {
            return Err(format!(
                "{}/n={} yield regressed: {:.4} vs baseline {:.4} (>5%)",
                r.variant, r.n, r.yield_fraction, base_yield
            ));
        }
        let msgs_per_op = r.msgs_per_op();
        if msgs_per_op > base_msgs_per_op * SERVE_TOLERANCE {
            return Err(format!(
                "{}/n={} messages per operation regressed: {msgs_per_op:.3} vs baseline \
                 {base_msgs_per_op:.3} (>5%)",
                r.variant, r.n
            ));
        }
        lines.push(format!(
            "{}/n={} p999: {} ns (baseline {} ns), yield: {:.4} (baseline {:.4}), \
             messages/op: {msgs_per_op:.3} (baseline {base_msgs_per_op:.3})",
            r.variant, r.n, r.p999_ns, base_p999, r.yield_fraction, base_yield
        ));
    }
    Ok(lines)
}

/// Renders the rows as the `BENCH_paper.json` document (valid JSON; all
/// strings are fixed ASCII labels, so no escaping is required).
#[must_use]
pub fn to_json(rows: &[ReportRow], serve: &[ServeRow], opts: &ReportOptions) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"generated_by\": \"cargo run --release --example report\",\n");
    out.push_str(&format!("  \"quick_mode\": {},\n", opts.quick));
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
             \"mirror_mismatches\": {}, \"host_seconds\": {:.4}}}",
            r.yield_fraction, r.harvest, r.cas_done, r.mirror_mismatches, r.host_seconds
        ));
        out.push_str(if i + 1 < serve.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Renders the rows as a Markdown report: one summary table in the
/// paper's column layout, then the per-class cost attribution for the
/// largest cluster size of every (application, variant).
#[must_use]
pub fn to_markdown(rows: &[ReportRow]) -> String {
    let mut out = String::from("## Paper tables, regenerated\n\n");
    out.push_str(
        "| App | Version | N | Time(s) | Speedup | Msgs | Avg(B) | Util | paper T(s) | paper spd |\n\
         |---|---|--:|--:|--:|--:|--:|--:|--:|--:|\n",
    );
    for r in rows {
        let (pt, ps) = r.paper.as_ref().map_or(("-".into(), "-".into()), |p| {
            (format!("{:.1}", p.time_s), format!("{:.2}", p.speedup))
        });
        out.push_str(&format!(
            "| {} | {} | {} | {:.2} | {:.2} | {} | {} | {:.1}% | {} | {} |\n",
            r.app,
            r.variant,
            r.n,
            r.secs,
            r.speedup,
            r.messages,
            r.avg_bytes,
            r.util * 100.0,
            pt,
            ps
        ));
    }
    out.push_str("\n## Per-message-class cost attribution (largest cluster)\n\n");
    out.push_str(
        "| App | Version | Class | Sent | Bytes | Cost(ms) | Mean latency(us) |\n\
         |---|---|---|--:|--:|--:|--:|\n",
    );
    let largest: Vec<&ReportRow> = rows
        .iter()
        .filter(|r| {
            rows.iter()
                .filter(|o| (o.app, o.variant) == (r.app, r.variant))
                .all(|o| o.n <= r.n)
        })
        .collect();
    for r in &largest {
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
    out.push_str("\n## Per-granule-class demand traffic (largest cluster)\n\n");
    out.push_str(
        "| App | Version | Fine fetches | Fine B | Page fetches | Page B | Bulk fetches | Bulk B |\n\
         |---|---|--:|--:|--:|--:|--:|--:|\n",
    );
    for r in &largest {
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

/// The wire-traffic regression gate: compares the freshly-run rows
/// against a committed baseline report JSON and rejects the run if the
/// legacy TSP or Quicksort Lock n=4 rows grew their total message count
/// or SYSTEM-class payload bytes by more than `TRAFFIC_TOLERANCE`.
/// Returns one human-readable comparison line per gated metric.
///
/// # Errors
///
/// Returns a description of the first regression, or of a baseline /
/// report row that is missing or malformed.
pub fn traffic_gate(rows: &[ReportRow], baseline_json: &str) -> Result<Vec<String>, String> {
    /// Quick-mode runs are deterministic, so any growth is a real protocol
    /// change; 5% headroom only forgives intentional small reshapes.
    const TRAFFIC_TOLERANCE: f64 = 1.05;

    let doc = carlos_trace::json::parse(baseline_json)
        .map_err(|e| format!("baseline JSON does not parse: {e:?}"))?;
    let baseline_rows = doc
        .get("rows")
        .and_then(carlos_trace::JsonValue::as_array)
        .ok_or_else(|| "baseline JSON has no rows array".to_string())?;
    let field = |row: &carlos_trace::JsonValue, key: &str| -> Option<u64> {
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        row.get(key).and_then(|v| v.as_f64()).map(|v| v as u64)
    };
    let baseline_traffic = |app: &str, variant: &str, n: f64| -> Option<(u64, u64)> {
        let row = baseline_rows.iter().find(|r| {
            r.get("app").and_then(carlos_trace::JsonValue::as_str) == Some(app)
                && r.get("variant").and_then(carlos_trace::JsonValue::as_str) == Some(variant)
                && r.get("n").and_then(carlos_trace::JsonValue::as_f64) == Some(n)
        })?;
        let messages = field(row, "messages")?;
        let sys_bytes = row
            .get("classes")
            .and_then(carlos_trace::JsonValue::as_array)?
            .iter()
            .find(|c| c.get("class").and_then(carlos_trace::JsonValue::as_str) == Some("SYSTEM"))
            .and_then(|c| field(c, "bytes"))
            .unwrap_or(0);
        Some((messages, sys_bytes))
    };

    let mut lines = Vec::new();
    for (app, variant) in [("TSP", "Lock"), ("Quicksort", "Lock")] {
        let (base_msgs, base_sys) = baseline_traffic(app, variant, 4.0)
            .ok_or_else(|| format!("baseline has no {app}/{variant} n=4 row"))?;
        let row = rows
            .iter()
            .find(|r| r.app == app && r.variant == variant && r.n == 4)
            .ok_or_else(|| format!("report has no {app}/{variant} n=4 row"))?;
        let sys = row
            .classes
            .iter()
            .find(|c| c.class == "SYSTEM")
            .map_or(0, |c| c.bytes);
        #[allow(clippy::cast_precision_loss)]
        for (metric, now, base) in [
            ("messages", row.messages, base_msgs),
            ("SYSTEM bytes", sys, base_sys),
        ] {
            if now as f64 > base as f64 * TRAFFIC_TOLERANCE {
                return Err(format!(
                    "{app}/{variant} n=4 {metric} regressed: {now} vs baseline {base} (>5%)"
                ));
            }
            lines.push(format!(
                "{app}/{variant} n=4 {metric}: {now} (baseline {base})"
            ));
        }
    }
    Ok(lines)
}

#[cfg(test)]
mod tests {
    use carlos_check::Checker;

    use super::*;

    /// A 2-node quick report end to end: every cell runs, the JSON is
    /// valid (checked with carlos-trace's own parser), and the class
    /// ledgers are populated and self-consistent.
    #[test]
    fn quick_report_rows_and_json_are_consistent() {
        let opts = ReportOptions {
            quick: true,
            max_nodes: 2,
        };
        let rows = run_report(&opts).expect("quick report runs clean");
        // 7 legacy (app, variant) groups plus 4 variable-granularity
        // groups, × 2 cluster sizes, plus the TSP Lock and SOR 8-node rows.
        assert_eq!(rows.len(), 24);
        for r in &rows {
            assert!(r.secs > 0.0, "{}/{} has zero elapsed", r.app, r.variant);
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
        let json = to_json(&rows, &[], &opts);
        let doc = carlos_trace::json::parse(&json).expect("report JSON parses");
        let parsed = doc
            .get("rows")
            .and_then(carlos_trace::JsonValue::as_array)
            .expect("rows array");
        assert_eq!(parsed.len(), rows.len());
        let md = to_markdown(&rows);
        assert!(md.contains("| TSP |") && md.contains("| SOR |"));
        assert!(md.contains("Per-granule-class demand traffic"));
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

    fn gate_row(app: &'static str, messages: u64, sys_bytes: u64) -> ReportRow {
        ReportRow {
            app,
            variant: "Lock",
            n: 4,
            secs: 1.0,
            speedup: 1.0,
            messages,
            avg_bytes: 100,
            util: 0.1,
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

    /// The traffic gate passes a run against its own JSON, tolerates small
    /// (<5%) growth, and rejects anything beyond on either metric.
    #[test]
    fn traffic_gate_catches_regressions() {
        let opts = ReportOptions {
            quick: true,
            max_nodes: 4,
        };
        let baseline_rows = vec![gate_row("TSP", 1000, 50_000), gate_row("Quicksort", 2000, 80_000)];
        let baseline = to_json(&baseline_rows, &[], &opts);

        let lines = traffic_gate(&baseline_rows, &baseline).expect("self-comparison passes");
        assert_eq!(lines.len(), 4, "two metrics per gated app: {lines:?}");

        let small_growth = vec![gate_row("TSP", 1040, 51_000), gate_row("Quicksort", 2000, 80_000)];
        assert!(traffic_gate(&small_growth, &baseline).is_ok(), "<5% growth tolerated");

        let msg_regress = vec![gate_row("TSP", 1100, 50_000), gate_row("Quicksort", 2000, 80_000)];
        let err = traffic_gate(&msg_regress, &baseline).unwrap_err();
        assert!(err.contains("TSP") && err.contains("messages"), "{err}");

        let byte_regress = vec![gate_row("TSP", 1000, 50_000), gate_row("Quicksort", 2000, 90_000)];
        let err = traffic_gate(&byte_regress, &baseline).unwrap_err();
        assert!(err.contains("Quicksort") && err.contains("SYSTEM bytes"), "{err}");

        assert!(
            traffic_gate(&baseline_rows, "{\"rows\": []}").is_err(),
            "missing baseline rows must fail loudly"
        );
    }

    /// The 8-node scaling rows are traced like every other row — every wire
    /// message is on their class ledger, which also counts loopback sends —
    /// and the cost table shows each (application, variant) at its own
    /// largest cluster size.
    #[test]
    fn eight_node_rows_are_traced_and_render() {
        let opts = ReportOptions {
            quick: true,
            max_nodes: 2,
        };
        let rows = run_report(&opts).expect("quick report runs clean");
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
        let md = to_markdown(&rows);
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
        let opts = ReportOptions {
            quick: true,
            max_nodes: 4,
        };
        let totals = |app: &AppReport| (app.report.elapsed, app.report.net.messages);
        let same_under_checker = |what: &str, run: &dyn Fn(Option<Checker>) -> AppReport| {
            let check = Checker::new(8);
            let (checked, plain) = (run(Some(check.clone())), run(None));
            assert_eq!(totals(&checked), totals(&plain), "{what}: the checker showed");
            check.assert_clean();
        };
        same_under_checker("TSP", &|check| {
            let mut cfg = tsp_config(&opts, 8, TspVariant::Lock);
            cfg.check = check;
            try_run_tsp(&cfg).expect("TSP runs clean").app
        });
        same_under_checker("SOR", &|check| {
            let mut cfg = sor_config(&opts, 8);
            cfg.check = check;
            try_run_sor(&cfg).expect("SOR runs clean").app
        });
        same_under_checker("KV", &|check| {
            let mut cfg = serve_config(&opts, 8);
            cfg.check = check;
            try_run_serve(&cfg).expect("KV runs clean").app
        });
    }

    /// The quick serve rows run clean — the fault-free row at
    /// yield 1.0 with a clean server mirror, the chaos row shedding load
    /// with every drop attributed — the JSON round-trips through
    /// carlos-trace's parser, and the serve gate passes a run against its
    /// own output while rejecting synthetic p999, yield and
    /// messages-per-operation regressions.
    #[test]
    fn serve_rows_run_gate_and_render() {
        let opts = ReportOptions {
            quick: true,
            max_nodes: 8,
        };
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

        let json = to_json(&[], &serve, &opts);
        let doc = carlos_trace::json::parse(&json).expect("serve JSON parses");
        let parsed = doc
            .get("serve_rows")
            .and_then(carlos_trace::JsonValue::as_array)
            .expect("serve_rows array");
        assert_eq!(parsed.len(), serve.len());

        let lines = serve_gate(&serve, &json).expect("self-comparison passes");
        assert_eq!(lines.len(), serve.len());

        let mut worse = serve.clone();
        worse[0].p999_ns *= 2;
        let err = serve_gate(&worse, &json).unwrap_err();
        assert!(err.contains("p999"), "{err}");
        let mut lossy = serve.clone();
        lossy[1].yield_fraction *= 0.5;
        let err = serve_gate(&lossy, &json).unwrap_err();
        assert!(err.contains("yield"), "{err}");
        let mut chatty = serve.clone();
        chatty[0].messages += chatty[0].messages / 19; // +5.3 %
        let err = serve_gate(&chatty, &json).unwrap_err();
        assert!(err.contains("messages per operation"), "{err}");
        chatty[0].messages = serve[0].messages + serve[0].messages / 21; // +4.8 %
        assert!(serve_gate(&chatty, &json).is_ok(), "<5% growth tolerated");

        let md = serve_markdown(&serve);
        assert!(md.contains("| KV | 8 |") && md.contains("| KV/chaos | 8 |"), "{md}");

        assert!(
            serve_gate(&serve, "{\"serve_rows\": []}").is_err(),
            "missing baseline serve rows must fail loudly"
        );
    }
}
