//! Runs one workload in this (pinned) process: warm-up, bracketed
//! repetitions and output checks for the end-to-end metrics; with
//! `--trace 1` also the load ladder, the traced, checked, single-node and
//! unpinned runs, the layer ladder and the from-outside host profile.

use std::{
    collections::BTreeMap,
    path::PathBuf,
    process::{Command, Stdio},
    time::Instant,
};

use crate::{
    adapter::{self, Config, Fingerprint, JsonValue, Observed, Observer, RunOut, Scale, TraceOut},
    knee::{self, LadderPoint},
    layers::{self, UnitCosts, RAW_EVENT_NS},
    pin::{self, Pin},
    spans::Spans,
    spec::{self, Workload, LADDER_RATES},
    timing::{self, HostStat},
};

/// How one workload process was asked to run.
#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: Workload,
    pub seed: u64,
    /// Budget of the timed repetitions, seconds.
    pub seconds: f64,
    /// Also measure the per-layer metrics.
    pub trace: bool,
    pub scale: Scale,
    /// Unit costs measured by a `layers` process; measured in-process at a
    /// fifth of the size when absent.
    pub layers_file: Option<PathBuf>,
    pub out_dir: PathBuf,
}

/// A reported value; host metrics carry their repetitions' statistics.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub value: f64,
    pub stat: Option<HostStat>,
}

/// Everything one workload process found.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub workload: Workload,
    pub seed: u64,
    pub scale: Scale,
    pub traced: bool,
    pub pinned: bool,
    pub nproc: usize,
    /// Every check passed.
    pub correct: bool,
    /// Operations behind `fail_frac`: client operations at the reference
    /// rate (KV) or runs made (applications).
    pub attempted: u64,
    /// Operations that failed, the scheduled time-outs of `kv-chaos-8`
    /// included.
    pub failed: u64,
    /// Operations with a *wrong* outcome: `failed` without the time-outs
    /// that `kv-chaos-8`'s fault plan injects. The driver's `failed`.
    pub unexpected: u64,
    /// One line per failed check.
    pub notes: Vec<String>,
    /// Validity warnings about the measurement itself (ladder does not
    /// bracket the knee, layer ladder out of order); never flip `correct`.
    pub warnings: Vec<String>,
    pub end_to_end: BTreeMap<&'static str, Metric>,
    pub per_layer: BTreeMap<&'static str, Metric>,
    pub wall_s: f64,
}

struct Recorder {
    workload: Workload,
    end_to_end: BTreeMap<&'static str, Metric>,
    per_layer: BTreeMap<&'static str, Metric>,
}

impl Recorder {
    fn check(&self, name: &str) {
        assert_eq!(
            spec::applies(name, self.workload),
            Some(true),
            "{name} is not declared for {}",
            self.workload.name()
        );
    }

    fn e2e(&mut self, name: &str, value: f64) {
        self.e2e_metric(name, Metric { value, stat: None });
    }

    fn e2e_host(&mut self, name: &str, samples: &[f64]) -> HostStat {
        let stat = HostStat::of(samples);
        self.e2e_metric(
            name,
            Metric {
                value: stat.median,
                stat: Some(stat),
            },
        );
        stat
    }

    fn e2e_metric(&mut self, name: &str, metric: Metric) {
        self.check(name);
        let name = spec::end_to_end(name).expect("checked above").name;
        assert!(
            self.end_to_end.insert(name, metric).is_none(),
            "{name} emitted twice"
        );
    }

    fn layer(&mut self, name: &str, value: f64) {
        self.check(name);
        let name = spec::layer(name).expect("checked above").name;
        let metric = Metric { value, stat: None };
        assert!(
            self.per_layer.insert(name, metric).is_none(),
            "{name} emitted twice"
        );
    }
}

#[allow(clippy::cast_precision_loss)]
fn f(v: u64) -> f64 {
    v as f64
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// State shared by the phases of one workload run.
struct Session<'a> {
    opts: &'a Opts,
    pin: &'a Pin,
    cfg: Config,
    rec: Recorder,
    notes: Vec<String>,
    warnings: Vec<String>,
    /// Runs made and runs failed (the applications' operations).
    runs_made: u64,
    runs_failed: u64,
    /// Fingerprint of the first run; every later run of `cfg` must match.
    reference: Option<Fingerprint>,
}

impl Session<'_> {
    fn note(&mut self, msg: String) {
        eprintln!("[{}] CHECK FAILED: {msg}", self.opts.workload.name());
        self.notes.push(msg);
    }

    fn warn(&mut self, msg: &str) {
        eprintln!("[{}] warning: {msg}", self.opts.workload.name());
        self.warnings.push(msg.to_owned());
    }

    /// One run of the workload's configuration inside a span, verified:
    /// no `SimError`, the program's self-check, and the virtual
    /// fingerprint of the first run.
    fn run(
        &mut self,
        spans: &mut Spans,
        label: &str,
        observer: Observer,
    ) -> Option<(RunOut, Observed, f64)> {
        let cfg = self.cfg.clone();
        let out = self.run_cfg(spans, label, &cfg, observer)?;
        match self.reference {
            None => self.reference = Some(out.0.fingerprint),
            Some(first) if first != out.0.fingerprint => {
                self.runs_failed += 1;
                self.note(format!(
                    "{label}: virtual fingerprint {:?} differs from the first run's {first:?}",
                    out.0.fingerprint
                ));
            }
            Some(_) => {}
        }
        Some(out)
    }

    /// Like [`Session::run`] for another configuration (no fingerprint check).
    fn run_cfg(
        &mut self,
        spans: &mut Spans,
        label: &str,
        cfg: &Config,
        observer: Observer,
    ) -> Option<(RunOut, Observed, f64)> {
        self.runs_made += 1;
        let (result, secs) = spans.scope(label, |_| adapter::run(cfg, observer));
        match result {
            Ok((out, observed)) => {
                if !out.output_ok {
                    self.runs_failed += 1;
                    self.note(format!("{label}: output not sorted or not a permutation"));
                }
                Some((out, observed, secs))
            }
            Err(e) => {
                self.runs_failed += 1;
                self.note(format!("{label}: {e}"));
                None
            }
        }
    }
}

/// Median wall time of a child process that does everything this one
/// does before its first timed repetition except the warm-up run —
/// start, pin, parse, build the configuration — and exits. Set-up is
/// repeated so that its median is steady; the warm-up is excluded because
/// its first-touch cost (3-13 s at n=32) depends on the VM's memory state,
/// not on the program (reported as `bench.cold_run_s`).
fn setup_samples(opts: &Opts, spans: &mut Spans) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let probes = if opts.scale == Scale::Test { 3 } else { 15 };
    let mut samples = Vec::with_capacity(probes);
    for i in 0..probes {
        let mut cmd = Command::new(&exe);
        cmd.args(["--setup-probe", "--workload", opts.workload.name()])
            .args(["--seed", &opts.seed.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::null());
        if opts.scale == Scale::Test {
            cmd.arg("--smoke");
        }
        let (status, secs) = spans.scope(&format!("setup #{i}"), |_| cmd.status());
        match status {
            Ok(s) if s.success() => samples.push(secs),
            Ok(s) => return Err(format!("set-up probe exited with {s}")),
            Err(e) => return Err(format!("set-up probe did not start: {e}")),
        }
    }
    Ok(samples)
}

/// The body of a `--setup-probe` child.
pub fn setup_probe(workload: Workload, scale: Scale, seed: u64) {
    let _pin = pin::pin_to_one();
    std::hint::black_box(adapter::workload_config(workload, scale, seed));
}

fn water_positions_agree(a: &[[f64; 3]], b: &[[f64; 3]]) -> bool {
    // The tolerance `crates/apps/tests/water.rs` uses: force contributions
    // sum in a different order on four nodes.
    const TOLERANCE: f64 = 1e-6;
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| (0..3).all(|d| (x[d] - y[d]).abs() < TOLERANCE))
}

/// The operations behind `fail_frac`.
struct Operations {
    attempted: u64,
    /// Failed, the scheduled time-outs of `kv-chaos-8` included.
    failed: u64,
    /// Failed with a wrong outcome: what the driver's line reports.
    unexpected: u64,
}

/// The client operations of a serving run; every failed check adds a note.
fn serve_operations(w: Workload, out: &RunOut, notes: &mut Vec<String>) -> Operations {
    let s = out.serve.as_ref().expect("serving run");
    let mut wrong = s.value_check_failures + s.mirror_mismatches;
    if wrong > 0 {
        notes.push(format!(
            "{} value-check failures, {} mirror mismatches",
            s.value_check_failures, s.mirror_mismatches
        ));
    }
    if s.attempted != s.completed + s.timed_out {
        wrong += 1;
        notes.push(format!(
            "attempted {} != completed {} + timed out {}",
            s.attempted, s.completed, s.timed_out
        ));
    }
    if w == Workload::KvChaos8 {
        // At-most-once CAS under faults: totals land in [done, intents].
        let total: u64 = s.counters.iter().sum();
        if total < s.cas_done || total > s.cas_intents {
            wrong += 1;
            notes.push(format!(
                "CAS total {total} outside [{}, {}]",
                s.cas_done, s.cas_intents
            ));
        }
        return Operations {
            attempted: s.attempted,
            failed: s.timed_out + wrong,
            unexpected: wrong,
        };
    }
    let bad = s
        .counters
        .iter()
        .filter(|&&c| c != s.expected_counter)
        .count() as u64;
    if bad > 0 {
        notes.push(format!(
            "{bad} CAS counters are not exactly {}: {:?}",
            s.expected_counter, s.counters
        ));
    }
    if s.timed_out > 0 {
        notes.push(format!(
            "{} operations timed out on a fault-free run",
            s.timed_out
        ));
    }
    let failed = s.timed_out + wrong + bad;
    Operations {
        attempted: s.attempted,
        failed,
        unexpected: failed,
    }
}

fn emit_sim_counters(rec: &mut Recorder, out: &RunOut, host_s: f64) {
    let net = &out.report.net;
    rec.layer("sim.events", f(out.fingerprint.events));
    rec.layer(
        "sim.host_ns_per_event",
        ratio(host_s * 1e9, f(out.fingerprint.events)),
    );
    rec.layer("sim.frames_data", f(net.classes.data.sent));
    rec.layer("sim.frames_ack", f(net.classes.ack.sent));
    rec.layer("sim.wire_util", out.wire_util);
    let [user, unix, carlos, idle] = out.bucket_fracs();
    rec.layer("sim.bucket_user_frac", user);
    rec.layer("sim.bucket_unix_frac", unix);
    rec.layer("sim.bucket_carlos_frac", carlos);
    rec.layer("sim.bucket_idle_frac", idle);
    rec.layer("sim.dropped", f(net.dropped));
    rec.layer("sim.retransmits", f(out.counter("transport.retransmits")));
    for (metric, counter) in [
        ("lrc.write_faults", "lrc.write_faults"),
        ("lrc.remote_faults", "lrc.remote_faults"),
        ("lrc.diffs_created", "lrc.diffs_created"),
        ("lrc.diffs_applied", "lrc.diffs_applied"),
        ("lrc.intervals_created", "lrc.intervals_created"),
        ("lrc.pages_installed", "lrc.pages_installed"),
        ("lrc.gc_rounds", "gc.rounds"),
        ("core.sent_none", "carlos.sent.none"),
        ("core.sent_request", "carlos.sent.request"),
        ("core.sent_release", "carlos.sent.release"),
        ("core.sent_release_nt", "carlos.sent.release_nt"),
        ("core.sent_system", "carlos.sent.system"),
        ("core.forwarded", "carlos.forwarded"),
        ("core.stored", "carlos.stored"),
        ("core.diff_requests", "carlos.diff_requests"),
        ("core.page_requests", "carlos.page_requests"),
        ("core.eager_fetches", "carlos.eager_fetches"),
        ("core.update_diffs_received", "carlos.update_diffs_received"),
        ("sync.lock_acquires", "lock.acquires"),
        ("sync.lock_local_reacquires", "lock.local_reacquires"),
    ] {
        rec.layer(metric, f(out.counter(counter)));
    }
}

fn emit_trace(rec: &mut Recorder, t: &TraceOut) {
    rec.layer("sim.wire_latency_mean_us", t.mean_ns("wire.latency") / 1e3);
    rec.layer("sim.send_delay_mean_us", t.mean_ns("flow.send_delay") / 1e3);
    rec.layer("lrc.write_notices", f(t.counter("lrc.write_notices")));
    rec.layer("lrc.records_applied", f(t.counter("lrc.records_applied")));
    rec.layer("lrc.fetch_diffs", f(t.counter("fetch.diffs")));
    rec.layer("lrc.fetch_pages", f(t.counter("fetch.page")));
    rec.layer("lrc.fetch_bytes_fine", f(t.counter("fetch.bytes.fine")));
    rec.layer("lrc.fetch_bytes_page", f(t.counter("fetch.bytes.page")));
    rec.layer(
        "lrc.fetch_latency_diffs_us",
        t.mean_ns("fetch.latency.diffs") / 1e3,
    );
    rec.layer(
        "lrc.fetch_latency_page_us",
        t.mean_ns("fetch.latency.page") / 1e3,
    );
    for (metric, class) in [
        ("core.cost_none_us", "NONE"),
        ("core.cost_request_us", "REQUEST"),
        ("core.cost_release_us", "RELEASE"),
        ("core.cost_release_nt_us", "RELEASE_NT"),
        ("core.cost_system_us", "SYSTEM"),
    ] {
        rec.layer(metric, f(t.class_cost_ns(class)) / 1e3);
    }
    for (metric, class) in [
        ("core.flow_latency_request_us", "REQUEST"),
        ("core.flow_latency_release_us", "RELEASE"),
        ("core.flow_latency_system_us", "SYSTEM"),
    ] {
        rec.layer(metric, t.mean_ns(&format!("flow.latency.{class}")) / 1e3);
    }
    rec.layer("sync.wait_lock_ms", f(t.sum_ns("wait.lock acquire")) / 1e6);
    rec.layer("sync.wait_barrier_ms", f(t.sum_ns("wait.barrier")) / 1e6);
    rec.layer("trace.flows", t.flows as f64);
}

/// Whether the run reproduces its committed `BENCH_paper.json` row
/// (messages and time, or attempted and completed). Any failure to read
/// or find the row is a mismatch, never an error: the point is to make
/// drift between the two artifacts visible.
fn paper_row_match(w: Workload, out: &RunOut) -> bool {
    let Some(doc) = std::fs::read_to_string("BENCH_paper.json")
        .ok()
        .and_then(|text| adapter::json_parse(&text).ok())
    else {
        return false;
    };
    let text = |s: &str| JsonValue::String(s.to_owned());
    // Whether `list` has a row with the fields `want` whose numbers are `have`.
    let row_has = |list: &str, want: &[(&str, JsonValue)], have: &[(&str, f64)]| {
        let rows = doc.get(list).and_then(JsonValue::as_array).unwrap_or(&[]);
        rows.iter()
            .find(|row| want.iter().all(|(k, v)| row.get(k) == Some(v)))
            .is_some_and(|row| {
                have.iter().all(|(k, v)| {
                    row.get(k)
                        .and_then(JsonValue::as_f64)
                        .is_some_and(|x| (x - v).abs() < 5e-5)
                })
            })
    };
    let app_row = |app: &str, variant: &str| {
        let want = [
            ("app", text(app)),
            ("variant", text(variant)),
            ("n", JsonValue::Number(4.0)),
        ];
        let have = [
            ("messages", f(out.fingerprint.msgs)),
            ("time_s", out.virt_s),
        ];
        row_has("rows", &want, &have)
    };
    match (w, &out.serve) {
        (Workload::QsortHybrid4, _) => app_row("Quicksort", "Hybrid-1"),
        (Workload::WaterLock4, _) => app_row("Water", "Lock"),
        (Workload::KvChaos8, Some(s)) => row_has(
            "serve_rows",
            &[("variant", text("KV/chaos"))],
            &[("attempted", f(s.attempted)), ("completed", f(s.completed))],
        ),
        _ => false,
    }
}

/// The from-outside host profile: count x unit cost / `host_s`. An
/// estimate, with the remainder reported, not a measurement; item 2's
/// in-program profiler replaces it.
fn emit_estimate(
    rec: &mut Recorder,
    out: &RunOut,
    costs: &UnitCosts,
    host_s: f64,
    single_node: Option<&(RunOut, f64)>,
) {
    let c = |k: &str| costs.get(k).copied().unwrap_or(0.0);
    let step = |hi: &str, lo: &str| (c(hi) - c(lo)).max(0.0) / 2.0;
    let n = |name: &str| f(out.counter(name));
    let mut sim = f(out.fingerprint.events) * c(RAW_EVENT_NS)
        + f(out.fingerprint.msgs) * step("sim.transport_rt_ns", "sim.raw_rt_ns");
    let net = &out.report.net.classes;
    if net.ack.sent > 0 {
        // Acknowledgements on the wire: the run used the ARQ transport.
        sim += f(net.data.sent) * step("sim.arq_rt_ns", "sim.transport_rt_ns");
    }
    let annotated = n("carlos.sent.request")
        + n("carlos.sent.release")
        + n("carlos.sent.release_nt")
        + n("carlos.sent.system");
    let core = n("carlos.sent.none") * step("core.none_rt_ns", "sim.transport_rt_ns")
        + annotated * step("core.reqrel_rt_ns", "sim.transport_rt_ns");
    // `close_interval_ns` covers fault, twin, interval and the eager diff
    // of one 8 KiB page, so finer granules are overestimated.
    let lrc = n("lrc.write_faults") * c("lrc.close_interval_ns")
        + n("lrc.diffs_applied") * c("lrc.diff_apply_ns");
    let apps = match (single_node, &out.serve) {
        // One node runs the same computation with no remote traffic.
        (Some((one, secs)), _) => {
            (secs * 1e9 - f(one.fingerprint.events) * c(RAW_EVENT_NS)).max(0.0)
        }
        (None, Some(s)) => f(s.attempted) * c("serve.workload_next_ns"),
        (None, None) => 0.0,
    };
    let total = host_s * 1e9;
    let fracs = [sim, apps, lrc, core].map(|ns| ratio(ns, total));
    rec.layer("est.sim_frac", fracs[0]);
    rec.layer("est.apps_frac", fracs[1]);
    rec.layer("est.lrc_frac", fracs[2]);
    rec.layer("est.core_frac", fracs[3]);
    rec.layer("est.unattributed_frac", 1.0 - fracs.iter().sum::<f64>());
}

fn load_or_measure_layers(opts: &Opts, spans: &mut Spans) -> Result<UnitCosts, String> {
    if let Some(path) = &opts.layers_file {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = adapter::json_parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        return layers::from_json(&doc);
    }
    layers::measure(spans, layers::Size::in_process(opts.scale))
}

/// Runs the workload. `started` is process start; `Err` means nothing
/// could be measured (the warm-up run failed or set-up broke).
#[allow(clippy::too_many_lines)]
pub fn run(opts: &Opts, pin: &Pin, spans: &mut Spans, started: Instant) -> Result<Outcome, String> {
    let w = opts.workload;
    let smoke = opts.scale == Scale::Test;
    let (cfg, _) = spans.scope("setup.config", |_| {
        adapter::workload_config(w, opts.scale, opts.seed)
    });
    let mut session = Session {
        opts,
        pin,
        cfg,
        rec: Recorder {
            workload: w,
            end_to_end: BTreeMap::new(),
            per_layer: BTreeMap::new(),
        },
        notes: Vec::new(),
        warnings: Vec::new(),
        runs_made: 0,
        runs_failed: 0,
        reference: None,
    };

    let setup = setup_samples(opts, spans)?;
    session.rec.e2e_host("setup_s", &setup);

    // Two untimed warm-up runs. The first fills caches and first-touches
    // memory (`bench.cold_run_s`); lazy set-up is still not finished after
    // it — measured, the next run is 10-60 % slower than the steady ones
    // (qsort 0.67 s against 0.59 s, kv-read-32 3.0-4.8 s against 2.5 s) —
    // so a second run absorbs that, and its time sizes the repetitions.
    let (first, _, cold_s) = session
        .run(spans, "warmup cold", Observer::None)
        .ok_or_else(|| format!("warm-up run failed: {}", session.notes.join("; ")))?;
    let warm_s = session
        .run(spans, "warmup", Observer::None)
        .map_or(cold_s, |(_, _, secs)| secs);

    // Smoke runs check that everything is emitted, not how long it takes.
    let (reps, calib_steps) = if smoke {
        (2, timing::CALIB_STEPS / 100)
    } else {
        (timing::rep_count(warm_s, opts.seconds), timing::CALIB_STEPS)
    };
    let timed = timing::repeat(spans, reps, calib_steps, |spans, i| {
        session
            .run(spans, &format!("rep #{i}"), Observer::None)
            .map_or(f64::NAN, |(_, _, secs)| secs)
    });
    let host: Vec<f64> = timed
        .secs
        .iter()
        .copied()
        .filter(|s| s.is_finite())
        .collect();
    if host.is_empty() {
        return Err(format!(
            "every repetition failed: {}",
            session.notes.join("; ")
        ));
    }
    let host_stat = session.rec.e2e_host("host_s", &host);
    session.rec.e2e("peak_rss_mb", pin::peak_rss_mib());
    session.rec.e2e("virt_s", first.virt_s);
    session.rec.e2e("wire_msgs", f(first.fingerprint.msgs));
    session.rec.e2e("wire_bytes", f(first.fingerprint.bytes));

    // Water's output check needs the sequential answer; Quicksort's
    // single-node run only feeds `apps.*`.
    let single_cfg = adapter::single_node(&session.cfg);
    let single_node = match &single_cfg {
        Some(cfg) if w == Workload::WaterLock4 || opts.trace => session
            .run_cfg(spans, "single-node", cfg, Observer::None)
            .map(|(out, _, secs)| (out, secs)),
        _ => None,
    };
    if w == Workload::WaterLock4 {
        let agree = single_node
            .as_ref()
            .is_some_and(|(one, _)| water_positions_agree(&one.positions, &first.positions));
        if !agree {
            session.runs_failed += 1;
            session.note("positions differ from the single-node run by more than 1e-6".to_owned());
        }
    }

    if let Some(s) = &first.serve {
        session.rec.e2e("lat_mean_ms", s.latency.mean_ns / 1e6);
        session.rec.e2e("lat_p50_ms", f(s.latency.p50_ns) / 1e6);
        session.rec.e2e("lat_p99_ms", f(s.latency.p99_ns) / 1e6);
        if spec::applies("lat_p999_ms", w) == Some(true) {
            session.rec.e2e("lat_p999_ms", f(s.latency.p999_ns) / 1e6);
        }
        session.rec.e2e("bytes_per_op", f(s.bytes_per_op));
        if spec::applies("harvest", w) == Some(true) {
            session.rec.e2e("harvest", s.harvest);
        }
    }

    if opts.trace {
        session.trace_phase(
            spans,
            &first,
            single_node.as_ref(),
            host_stat,
            cold_s,
            &timed,
        )?;
    }

    // Operations: client operations of the reference run (KV) or every
    // run this process made (applications).
    let ops = if w.is_kv() {
        let mut notes = Vec::new();
        let ops = serve_operations(w, &first, &mut notes);
        notes.into_iter().for_each(|n| session.note(n));
        ops
    } else {
        Operations {
            attempted: session.runs_made,
            failed: session.runs_failed,
            unexpected: session.runs_failed,
        }
    };
    let fail_frac = ratio(f(ops.failed), f(ops.attempted));
    session.rec.e2e("fail_frac", fail_frac);
    session.rec.e2e("ok_frac", 1.0 - fail_frac);

    Ok(Outcome {
        workload: w,
        seed: opts.seed,
        scale: opts.scale,
        traced: opts.trace,
        pinned: pin.pinned,
        nproc: pin.nproc(),
        correct: session.notes.is_empty(),
        attempted: ops.attempted,
        failed: ops.failed,
        unexpected: ops.unexpected,
        notes: session.notes,
        warnings: session.warnings,
        end_to_end: session.rec.end_to_end,
        per_layer: session.rec.per_layer,
        wall_s: started.elapsed().as_secs_f64(),
    })
}

impl Session<'_> {
    /// Everything `--trace 1` adds.
    #[allow(clippy::too_many_lines)]
    fn trace_phase(
        &mut self,
        spans: &mut Spans,
        first: &RunOut,
        single_node: Option<&(RunOut, f64)>,
        host: HostStat,
        cold_s: f64,
        timed: &timing::Timed,
    ) -> Result<(), String> {
        let w = self.opts.workload;
        let host_s = host.median;
        emit_sim_counters(&mut self.rec, first, host_s);

        // Traced run: must leave the virtual fingerprint identical (checked
        // by `run`); its extra host time is the tracing overhead.
        let (_, observed, traced_s) = self
            .run(spans, "traced", Observer::Trace)
            .ok_or("traced run failed")?;
        self.rec
            .layer("trace.overhead_frac", traced_s / host_s - 1.0);
        emit_trace(
            &mut self.rec,
            &observed.trace.ok_or("traced run recorded nothing")?,
        );

        if w.has_checked_run() {
            if let Some((_, observed, secs)) = self.run(spans, "checked", Observer::Check) {
                let violations = observed.violations.unwrap_or(0);
                if violations > 0 {
                    self.runs_failed += 1;
                    self.note(format!("checker reported {violations} violations"));
                }
                self.rec.layer("check.overhead_frac", secs / host_s - 1.0);
                self.rec.layer("check.violations", violations as f64);
            } else {
                return Err("checked run failed".to_owned());
            }
        }

        if let Some((one, secs)) = single_node {
            self.rec.layer("apps.compute_host_s", *secs);
            self.rec
                .layer("apps.virt_speedup", ratio(one.virt_s, first.virt_s));
        }

        let mut ladder_r800_s = None;
        if w.has_ladder() {
            let mut points = Vec::with_capacity(LADDER_RATES.len());
            for rate in LADDER_RATES {
                let cfg = adapter::ladder_config(w, self.opts.scale, self.opts.seed, rate);
                let Some((out, _, secs)) =
                    self.run_cfg(spans, &format!("ladder r{rate}"), &cfg, Observer::None)
                else {
                    return Err(format!("ladder point {rate} ops/s failed"));
                };
                let s = out.serve.as_ref().expect("serving run");
                if rate == 800 {
                    ladder_r800_s = Some(secs);
                }
                self.rec
                    .layer(&format!("serve.r{rate}.goodput_ops_s"), s.goodput);
                self.rec
                    .layer(&format!("serve.r{rate}.p99_ms"), f(s.latency.p99_ns) / 1e6);
                points.push(LadderPoint {
                    rate,
                    attempted: s.attempted,
                    completed: s.completed,
                    p99_ns: s.latency.p99_ns,
                    max_ns: s.latency.max_ns,
                    op_timeout_ns: s.op_timeout_ns,
                    goodput: s.goodput,
                });
            }
            self.rec
                .e2e("knee_ops_s", f(knee::knee(&points).unwrap_or(0)));
            self.rec
                .e2e("peak_goodput_ops_s", knee::peak_goodput(&points));
            if self.opts.scale == Scale::Paper && !knee::bracketed(&points) {
                self.warn("the ladder does not bracket the knee");
            }
        }

        if let Some(s) = &first.serve {
            self.rec.layer("serve.attempted", f(s.attempted));
            self.rec.layer("serve.completed", f(s.completed));
            self.rec.layer("serve.timed_out", f(s.timed_out));
            self.rec.layer("serve.late_replies", f(s.late_replies));
            self.rec.layer("serve.cas_done", f(s.cas_done));
            self.rec.layer(
                "serve.msgs_per_op",
                ratio(f(first.fingerprint.msgs), f(s.completed)),
            );
            self.rec
                .layer("serve.host_us_per_op", ratio(host_s * 1e6, f(s.attempted)));
        }

        if w.has_unpinned_run() {
            // kv-read-8 repeats the half-size r800 ladder point (an
            // unpinned full run can take 7 s); water-lock-4 the full run.
            let (cfg, pinned_s) = match ladder_r800_s {
                Some(secs) => (
                    adapter::ladder_config(w, self.opts.scale, self.opts.seed, 800),
                    secs,
                ),
                None => (self.cfg.clone(), host_s),
            };
            let widened = self.pin.unpin();
            let mut unpinned = Vec::new();
            for i in 0..if self.opts.scale == Scale::Test { 1 } else { 3 } {
                if let Some((_, _, secs)) =
                    self.run_cfg(spans, &format!("unpinned #{i}"), &cfg, Observer::None)
                {
                    unpinned.push(secs);
                }
            }
            if widened && self.pin.pinned && !self.pin.repin() {
                return Err("could not pin again after the unpinned runs".to_owned());
            }
            self.rec.layer(
                "bench.unpinned_ratio",
                ratio(timing::median(&unpinned), pinned_s),
            );
        }

        let costs = load_or_measure_layers(self.opts, spans)?;
        for (name, value) in &costs {
            if name != RAW_EVENT_NS {
                self.rec.layer(name, *value);
            }
        }
        if self.opts.scale == Scale::Paper && !layers::ordered(&costs) {
            self.warn("the layer ladder is not ordered");
        }
        emit_estimate(&mut self.rec, first, &costs, host_s, single_node);

        self.rec
            .layer("bench.calib_ms", timing::median(&timed.calib_ms));
        self.rec.layer("bench.cold_run_s", cold_s);
        self.rec.layer("bench.reps", host.n as f64);
        self.rec.layer("bench.host_s_iqr_frac", host.iqr_frac());
        if spec::applies("bench.paper_row_match", w) == Some(true) {
            let matches =
                self.opts.seed == 0 && self.opts.scale == Scale::Paper && paper_row_match(w, first);
            self.rec
                .layer("bench.paper_row_match", f(u64::from(matches)));
        }
        Ok(())
    }
}
