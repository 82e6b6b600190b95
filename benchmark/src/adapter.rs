//! The one file that calls into the repository. Everything here goes
//! through `carlos::` facade paths; `benchmark/README.md` lists the
//! surface this pins, so a later simplification PR knows what to keep or
//! to change here in the same commit.

use std::{
    hint::black_box,
    time::{Duration, Instant},
};

use carlos::{
    apps::{
        try_run_qsort, try_run_water, AppReport, QsortConfig, QsortVariant, WaterConfig,
        WaterVariant,
    },
    check::Checker,
    core::{Annotation, Consistency, CoreConfig, Message, Runtime},
    lrc::{Diff, IntervalRecord, LrcConfig, LrcEngine, Vc},
    serve::{try_run_serve, OpMix, ServeConfig, ServeResult, Workload as KvSchedule},
    sim::{
        time::{ms, secs, Ns},
        AckMode, Bucket, Cluster, SimConfig, SimReport, Transport,
    },
    sync::{self, BarrierSpec, LockSpec},
    trace::{Metrics, Tracer},
    util::{
        codec::{Decoder, Encoder},
        rng::{SplitMix64, Xoshiro256},
    },
};

pub use carlos::trace::json::{parse as json_parse, JsonValue};

use crate::spec::Workload;

/// `Paper` is the measured scale; `Test` (the `*Config::test` scale) is
/// what `--smoke` and the package's tests run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Paper,
    Test,
}

impl Scale {
    /// The name result files carry.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Paper => "paper",
            Scale::Test => "smoke",
        }
    }
}

/// A ready-to-run configuration of one of the three programs.
#[derive(Debug, Clone)]
pub enum Config {
    Qsort(QsortConfig),
    Water(WaterConfig),
    Serve(Box<ServeConfig>),
}

/// Seed 0 keeps the configuration's built-in seed, so numbers line up
/// with `BENCH_paper.json`; any other seed is mixed into it.
fn mix_seed(builtin: u64, seed: u64) -> u64 {
    if seed == 0 {
        builtin
    } else {
        builtin ^ SplitMix64::new(seed).next_u64()
    }
}

const WRITE_HEAVY: OpMix = OpMix {
    get: 50,
    put: 45,
    delete: 5,
};

/// Client operations of a fault-free KV run: 16 384 at the reference
/// rate, 8 192 per ladder point; 128 per client at test scale.
fn kv_ops_per_client(scale: Scale, clients: u64, ladder: bool) -> u64 {
    match (scale, ladder) {
        (Scale::Paper, false) => 16_384 / clients,
        (Scale::Paper, true) => 8_192 / clients,
        (Scale::Test, _) => 128,
    }
}

fn kv_config(w: Workload, scale: Scale, seed: u64, rate: u64, ladder: bool) -> ServeConfig {
    let n = if w == Workload::KvRead32 { 32 } else { 8 };
    let mut c = match scale {
        Scale::Paper => ServeConfig::paper(n),
        Scale::Test => ServeConfig::test(n),
    };
    let clients = c.n_clients() as u64;
    if w == Workload::KvWrite8 {
        c.mix = WRITE_HEAVY;
    }
    c.ops_per_client = kv_ops_per_client(scale, clients, ladder);
    c.cas_per_client = c.ops_per_client / 64;
    assert_eq!(
        c.cas_per_client % c.counter_keys,
        0,
        "exact counter check needs whole round-robin turns"
    );
    c.mean_interarrival = 1_000_000_000 * clients / rate;
    c.op_timeout = secs(2);
    c.drain = secs(4);
    c.seed = mix_seed(c.seed, seed);
    c
}

/// The configuration `w` measures (KV: at its reference rate).
pub fn workload_config(w: Workload, scale: Scale, seed: u64) -> Config {
    match w {
        Workload::QsortHybrid4 => {
            let mut c = match scale {
                Scale::Paper => QsortConfig::paper(4, QsortVariant::Hybrid1),
                Scale::Test => QsortConfig::test(4, QsortVariant::Hybrid1),
            };
            c.seed = mix_seed(c.seed, seed);
            Config::Qsort(c)
        }
        Workload::WaterLock4 => {
            let mut c = match scale {
                Scale::Paper => WaterConfig::paper(4, WaterVariant::Lock),
                Scale::Test => WaterConfig::test(4, WaterVariant::Lock),
            };
            c.seed = mix_seed(c.seed, seed);
            Config::Water(c)
        }
        Workload::KvChaos8 => {
            // `ServeConfig::chaos` is the test scale under faults: one scale.
            let mut c = ServeConfig::chaos(8);
            c.seed = mix_seed(c.seed, seed);
            Config::Serve(Box::new(c))
        }
        Workload::KvRead8 | Workload::KvWrite8 | Workload::KvRead32 => {
            let rate = w
                .reference_rate()
                .expect("fault-free KV has a reference rate");
            Config::Serve(Box::new(kv_config(w, scale, seed, rate, false)))
        }
    }
}

/// One point of `w`'s load ladder: half the operations, offered at `rate`.
pub fn ladder_config(w: Workload, scale: Scale, seed: u64, rate: u64) -> Config {
    Config::Serve(Box::new(kv_config(w, scale, seed, rate, true)))
}

/// The same application on one node: the reference for Water's positions
/// and the source of `apps.*`. `None` for serving.
pub fn single_node(cfg: &Config) -> Option<Config> {
    match cfg {
        Config::Qsort(c) => Some(Config::Qsort(QsortConfig {
            n_nodes: 1,
            ..c.clone()
        })),
        Config::Water(c) => Some(Config::Water(WaterConfig {
            n_nodes: 1,
            ..c.clone()
        })),
        Config::Serve(_) => None,
    }
}

/// The virtual fingerprint: a host-only change leaves it bit-identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    pub elapsed: u64,
    pub events: u64,
    pub msgs: u64,
    pub bytes: u64,
}

/// Client-side latency, virtual ns. Quantiles are pow-2 bucket edges of
/// `VtHistogram` (capped at the maximum); the mean is exact.
#[derive(Debug, Clone, Copy, Default)]
pub struct Latency {
    pub mean_ns: f64,
    pub p50_ns: u64,
    pub p99_ns: u64,
    pub p999_ns: u64,
    pub max_ns: u64,
}

/// What a serving run reports beyond the common columns.
#[derive(Debug, Clone, Default)]
pub struct ServeOut {
    pub attempted: u64,
    pub completed: u64,
    pub timed_out: u64,
    pub late_replies: u64,
    pub value_check_failures: u64,
    pub mirror_mismatches: u64,
    pub cas_intents: u64,
    pub cas_done: u64,
    /// Final shared counters, read from the DSM by node 0.
    pub counters: Vec<u64>,
    /// What every counter must be when nothing times out.
    pub expected_counter: u64,
    pub op_timeout_ns: u64,
    pub latency: Latency,
    pub harvest: f64,
    pub bytes_per_op: u64,
    /// Completed operations per virtual second.
    pub goodput: f64,
}

/// One verified run.
#[derive(Debug, Clone)]
pub struct RunOut {
    pub fingerprint: Fingerprint,
    pub virt_s: f64,
    pub wire_util: f64,
    pub report: SimReport,
    /// Quicksort: sorted and a permutation; `true` where the program has
    /// no such self-check.
    pub output_ok: bool,
    /// Water: final positions as read by node 0.
    pub positions: Vec<[f64; 3]>,
    pub serve: Option<ServeOut>,
}

impl RunOut {
    fn new(app: AppReport) -> Self {
        let report = app.report;
        Self {
            fingerprint: Fingerprint {
                elapsed: report.elapsed,
                events: report.events_processed,
                msgs: report.net.messages,
                bytes: report.net.payload_bytes,
            },
            virt_s: app.secs,
            wire_util: app.net_util,
            report,
            output_ok: true,
            positions: Vec::new(),
            serve: None,
        }
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.report.counter_total(name)
    }

    /// Share of all node time spent in each of the paper's Figure 2
    /// buckets: user, unix, carlos, idle.
    pub fn bucket_fracs(&self) -> [f64; 4] {
        let ns = Bucket::ALL.map(|b| self.report.bucket_total(b));
        let total: u64 = ns.iter().sum();
        #[allow(clippy::cast_precision_loss)]
        ns.map(|v| {
            if total == 0 {
                0.0
            } else {
                v as f64 / total as f64
            }
        })
    }
}

fn serve_out(cfg: &ServeConfig, r: &ServeResult) -> ServeOut {
    let c = &r.totals.client;
    let h = &c.hist;
    ServeOut {
        attempted: c.attempted,
        completed: c.completed,
        timed_out: c.timed_out,
        late_replies: c.late_replies,
        value_check_failures: c.value_check_failures,
        mirror_mismatches: r.totals.mirror_mismatches,
        cas_intents: r.totals.cas_intents,
        cas_done: r.totals.cas_done,
        counters: r.counters.clone(),
        expected_counter: cfg.n_clients() as u64 * cfg.cas_per_client / cfg.counter_keys,
        op_timeout_ns: cfg.op_timeout,
        latency: Latency {
            mean_ns: h.mean(),
            p50_ns: h.quantile(0.50),
            p99_ns: h.quantile(0.99),
            p999_ns: h.quantile(0.999),
            max_ns: h.max(),
        },
        harvest: r.totals.harvest(),
        bytes_per_op: r.bytes_per_op(),
        goodput: r.ops_per_sec(),
    }
}

/// Which observer rides along. Checker and tracer exclude each other
/// (one probe slot per runtime), hence two separate runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Observer {
    None,
    /// `Tracer::metrics_only(n)`.
    Trace,
    /// `Checker::new(n)`.
    Check,
}

/// What the traced run recorded, by the tracer's metric keys.
#[derive(Debug, Clone)]
pub struct TraceOut {
    metrics: Metrics,
    pub flows: usize,
}

impl TraceOut {
    pub fn counter(&self, key: &str) -> u64 {
        self.metrics.counter(key)
    }

    /// Sum of a virtual-time histogram, ns.
    pub fn sum_ns(&self, key: &str) -> u64 {
        self.metrics.histogram(key).map_or(0, |h| h.sum())
    }

    /// Exact mean of a virtual-time histogram, ns.
    pub fn mean_ns(&self, key: &str) -> f64 {
        self.metrics.histogram(key).map_or(0.0, |h| h.mean())
    }

    /// Protocol cost charged to one message class over all its phases
    /// (`cost.<CLASS>.*`), ns: the paper's section 5.4 microcosts.
    pub fn class_cost_ns(&self, class: &str) -> u64 {
        let prefix = format!("cost.{class}.");
        self.metrics
            .histograms()
            .filter(|(k, _)| k.starts_with(&prefix))
            .map(|(_, h)| h.sum())
            .sum()
    }
}

/// What the observer saw.
#[derive(Debug, Clone, Default)]
pub struct Observed {
    pub trace: Option<TraceOut>,
    /// Checker violations (`Some` only after a checked run).
    pub violations: Option<usize>,
}

/// Runs `cfg` once through `try_run_*` and collects everything the
/// benchmark verifies or reports. `Err` carries the `SimError` text.
pub fn run(cfg: &Config, observer: Observer) -> Result<(RunOut, Observed), String> {
    let n = match cfg {
        Config::Qsort(c) => c.n_nodes,
        Config::Water(c) => c.n_nodes,
        Config::Serve(c) => c.n_nodes,
    };
    let tracer = (observer == Observer::Trace).then(|| Tracer::metrics_only(n));
    let checker = (observer == Observer::Check).then(|| Checker::new(n));
    let out = match cfg {
        Config::Qsort(c) => {
            let mut c = c.clone();
            c.trace.clone_from(&tracer);
            c.check.clone_from(&checker);
            let r = try_run_qsort(&c).map_err(|e| e.to_string())?;
            let mut out = RunOut::new(r.app);
            out.output_ok = r.sorted && r.permutation_ok;
            out
        }
        Config::Water(c) => {
            let mut c = c.clone();
            c.trace.clone_from(&tracer);
            c.check.clone_from(&checker);
            let r = try_run_water(&c).map_err(|e| e.to_string())?;
            let mut out = RunOut::new(r.app);
            out.positions = r.positions;
            out
        }
        Config::Serve(c) => {
            let mut c = c.clone();
            c.trace.clone_from(&tracer);
            c.check.clone_from(&checker);
            let r = try_run_serve(&c).map_err(|e| e.to_string())?;
            let serve = serve_out(&c, &r);
            let mut out = RunOut::new(r.app);
            out.serve = Some(serve);
            out
        }
    };
    let observed = Observed {
        trace: tracer.map(|t| TraceOut {
            metrics: t.metrics(),
            flows: t.flows().len(),
        }),
        violations: checker.map(|c| c.violations().len()),
    };
    Ok((out, observed))
}

/// `steps` steps of `Xoshiro256`: the fixed calibration loop.
pub fn rng_steps(steps: u64) -> u64 {
    let mut rng = Xoshiro256::new(0xCA11_B8A7);
    let mut acc = 0u64;
    for _ in 0..steps {
        acc ^= rng.next_u64();
    }
    acc
}

// ---------------------------------------------------------------------
// Layer ladder: 2-node (barrier: 4-node) probes, each adding one layer
// through its public calls, so each difference is that layer's host cost.
// ---------------------------------------------------------------------

/// One rung of the layer ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Probe {
    /// `NodeCtx::send_datagram` / `wait_recv`: kernel heap + baton.
    Raw,
    /// `Transport::send` / `wait`, implicit acks: + framing.
    Transport,
    /// The same under ARQ (window 16, RTO 5 ms): + acks and timers.
    Arq,
    /// `Runtime::send(.., Annotation::None)` + `wait_accepted`: + codec
    /// and dispatch.
    CoreNone,
    /// REQUEST out, RELEASE back: + vector timestamps and records.
    CoreReqRel,
    /// REQUEST out, RELEASE back carrying one dirty word the requester
    /// then reads: + fault, twin, interval, notice, diff fetch, apply.
    CoreReleaseDirty,
    /// Two nodes alternating `sync` lock acquire / release.
    SyncLock,
    /// Four nodes, barrier rounds.
    SyncBarrier,
}

/// What a probe did: `units` round trips (lock: remote acquires; barrier:
/// rounds) in `events` simulator events.
#[derive(Debug, Clone, Copy)]
pub struct ProbeOut {
    pub units: u64,
    pub events: u64,
}

const H_PING: u32 = 0x0700;
const H_PONG: u32 = 0x0701;
const H_DONE: u32 = 0x0702;
const PROBE_BODY: [u8; 8] = [0xC5; 8];
const PROBE_ADDR: usize = 0;

fn probe_runtime(ctx: carlos::sim::NodeCtx) -> Runtime {
    let n = ctx.num_nodes();
    Runtime::new(ctx, LrcConfig::osdi94(n, 64 * 1024), CoreConfig::osdi94())
}

fn transport_probe(cluster: &mut Cluster, mode: AckMode, n: u32) {
    cluster.spawn_node(0, move |ctx| {
        let mut t = Transport::new(ctx, mode);
        for _ in 0..n {
            t.send(1, PROBE_BODY.to_vec());
            t.wait(None).expect("echo");
        }
        t.flush();
    });
    cluster.spawn_node(1, move |ctx| {
        let mut t = Transport::new(ctx, mode);
        for _ in 0..n {
            let (_, body) = t.wait(None).expect("ping");
            t.send(0, body.to_vec());
        }
        t.flush();
    });
}

/// REQUEST-or-NONE out, reply back; with `dirty` the replier writes a
/// word before each RELEASE and the requester reads it after accepting.
fn core_probe(cluster: &mut Cluster, out: Annotation, back: Annotation, dirty: bool, n: u32) {
    cluster.spawn_node(0, move |ctx| {
        let mut rt = probe_runtime(ctx);
        for i in 0..n {
            rt.send(1, H_PING, PROBE_BODY.to_vec(), out);
            let _ = rt.wait_accepted(H_PONG);
            if dirty {
                assert_eq!(
                    rt.read_u32(PROBE_ADDR),
                    i,
                    "release did not carry the write"
                );
            }
        }
        rt.send(1, H_DONE, Vec::new(), Annotation::None);
        rt.shutdown();
    });
    cluster.spawn_node(1, move |ctx| {
        let mut rt = probe_runtime(ctx);
        for i in 0..n {
            let _ = rt.wait_accepted(H_PING);
            if dirty {
                rt.write_u32(PROBE_ADDR, i);
            }
            rt.send(0, H_PONG, PROBE_BODY.to_vec(), back);
        }
        // Stay alive to serve the last diff fetch.
        let _ = rt.wait_accepted(H_DONE);
        rt.shutdown();
    });
}

/// Virtual hold time of the lock probe: longer than a forwarded acquire
/// takes to arrive, so every release finds a queued successor and the
/// lock strictly alternates (no local re-acquires).
const LOCK_HOLD: Ns = ms(5);

/// Runs probe `p` for `n` round trips (lock: `n` acquires over both
/// nodes; barrier: `n` rounds).
pub fn probe(p: Probe, n: u32) -> Result<ProbeOut, String> {
    let nodes = if p == Probe::SyncBarrier { 4 } else { 2 };
    let mut cluster = Cluster::new(SimConfig::osdi94(), nodes);
    match p {
        Probe::Raw => {
            cluster.spawn_node(0, move |ctx| {
                for _ in 0..n {
                    ctx.send_datagram(1, PROBE_BODY.to_vec());
                    ctx.wait_recv(None).expect("echo");
                }
            });
            cluster.spawn_node(1, move |ctx| {
                for _ in 0..n {
                    let d = ctx.wait_recv(None).expect("ping");
                    ctx.send_datagram(0, d.payload.to_vec());
                }
            });
        }
        Probe::Transport => transport_probe(&mut cluster, AckMode::Implicit, n),
        Probe::Arq => transport_probe(
            &mut cluster,
            AckMode::Arq {
                window: 16,
                rto: ms(5),
            },
            n,
        ),
        Probe::CoreNone => core_probe(&mut cluster, Annotation::None, Annotation::None, false, n),
        Probe::CoreReqRel => {
            core_probe(
                &mut cluster,
                Annotation::Request,
                Annotation::Release,
                false,
                n,
            );
        }
        Probe::CoreReleaseDirty => {
            core_probe(
                &mut cluster,
                Annotation::Request,
                Annotation::Release,
                true,
                n,
            );
        }
        Probe::SyncLock => {
            for node in 0..2 {
                cluster.spawn_node(node, move |ctx| {
                    let mut rt = probe_runtime(ctx);
                    let sys = sync::install(&mut rt);
                    let lock = LockSpec::new(1, 0);
                    for _ in 0..n / 2 {
                        sys.acquire(&mut rt, lock);
                        rt.compute(LOCK_HOLD);
                        sys.release(&mut rt, lock);
                    }
                    sys.barrier(&mut rt, BarrierSpec::global(2, 0), 0);
                    rt.shutdown();
                });
            }
        }
        Probe::SyncBarrier => {
            for node in 0..4 {
                cluster.spawn_node(node, move |ctx| {
                    let mut rt = probe_runtime(ctx);
                    let sys = sync::install(&mut rt);
                    let barrier = BarrierSpec::global(1, 0);
                    for epoch in 0..n {
                        sys.barrier(&mut rt, barrier, epoch);
                    }
                    rt.shutdown();
                });
            }
        }
    }
    let report = cluster.try_run().map_err(|e| e.to_string())?;
    let units = match p {
        Probe::SyncLock => report.counter_total("lock.acquires"),
        _ => u64::from(n),
    };
    Ok(ProbeOut {
        units,
        events: report.events_processed,
    })
}

// ---------------------------------------------------------------------
// Kernel timings: one public call of one layer in a loop.
// ---------------------------------------------------------------------

/// One timed kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// `Encoder` put u32 + u64 + 16 bytes, `Decoder` get them back.
    CodecPutGet,
    /// `Diff::create` on 8 KiB, one byte in 64 dirty.
    DiffCreate,
    /// `Diff::apply` of that diff.
    DiffApply,
    /// `LrcEngine::write` of 4 bytes to a writable page.
    EngineWriteHit,
    /// `LrcEngine::read` of 4 bytes from a resident page.
    EngineReadHit,
    /// `LrcEngine::write` + `close_interval` on one 8 KiB page: write
    /// fault, twin, interval record, its write notice and the eager diff.
    CloseInterval,
    /// `Message::to_framed` of a RELEASE carrying 8 interval records.
    MsgEncode,
    /// `Message::from_wire_bytes` of the same.
    MsgDecode,
    /// `serve::Workload::next_arrival` (gap + Zipf key + op draw).
    WorkloadNext,
}

const PAGE: usize = 8192;

/// A (twin, current) page pair with one byte in 64 changed.
fn page_pair() -> (Vec<u8>, Vec<u8>) {
    let mut rng = Xoshiro256::new(42);
    #[allow(clippy::cast_possible_truncation)]
    let twin: Vec<u8> = (0..PAGE).map(|_| rng.next_u64() as u8).collect();
    let mut cur = twin.clone();
    for i in (32..PAGE).step_by(64) {
        cur[i] = cur[i].wrapping_add(1);
    }
    (twin, cur)
}

/// A RELEASE shaped like lock-transfer traffic on 8 nodes: a required
/// timestamp plus 8 interval records of 4 write notices each.
fn release_message() -> Message {
    let n = 8;
    let mut required = Vc::new(n);
    for i in 0..8u32 {
        required.set(i, 17 + i);
    }
    let records = (0..8u32)
        .map(|k| {
            let mut vc = Vc::new(n);
            vc.set(k, 18 + k);
            IntervalRecord {
                node: k,
                index: 18 + k,
                vc,
                pages: (k..k + 4).collect(),
            }
        })
        .collect();
    Message {
        src: 1,
        origin: 1,
        handler: 3,
        annotation: Annotation::Release,
        body: vec![0xAB; 64],
        consistency: Consistency::Release {
            required,
            records,
            diffs: Vec::new(),
        },
    }
}

fn timed(iters: u64, mut f: impl FnMut(u64)) -> Duration {
    let start = Instant::now();
    for i in 0..iters {
        f(i);
    }
    start.elapsed()
}

/// Runs `k` `iters` times; returns the time of the loop alone (inputs
/// are built before the clock starts).
pub fn kernel(k: Kernel, iters: u64) -> Duration {
    const MODEL_HEADER_PAD: usize = 32;
    match k {
        Kernel::CodecPutGet => timed(iters, |i| {
            let mut e = Encoder::new();
            #[allow(clippy::cast_possible_truncation)]
            e.put_u32(i as u32);
            e.put_u64(black_box(i));
            e.put_bytes(&[7u8; 16]);
            let buf = e.finish_vec();
            let mut d = Decoder::new(black_box(&buf));
            black_box((d.get_u32().ok(), d.get_u64().ok(), d.get_bytes().ok()));
        }),
        Kernel::DiffCreate => {
            let (twin, cur) = page_pair();
            timed(iters, |_| {
                black_box(Diff::create(black_box(&twin), black_box(&cur)));
            })
        }
        Kernel::DiffApply => {
            let (twin, cur) = page_pair();
            let diff = Diff::create(&twin, &cur);
            let mut page = twin;
            timed(iters, |_| {
                black_box(&diff).apply(black_box(&mut page));
            })
        }
        Kernel::EngineWriteHit | Kernel::EngineReadHit | Kernel::CloseInterval => {
            let mut cfg = LrcConfig::osdi94(2, 8 * PAGE);
            cfg.gc_threshold_records = usize::MAX;
            let mut engine = LrcEngine::new(0, cfg);
            engine
                .write(0, &[1, 2, 3, 4])
                .expect("node 0 owns every page");
            let mut buf = [0u8; 4];
            match k {
                Kernel::EngineWriteHit => timed(iters, |i| {
                    #[allow(clippy::cast_possible_truncation)]
                    black_box(
                        engine
                            .write(black_box(64), &(i as u32).to_le_bytes())
                            .is_ok(),
                    );
                }),
                Kernel::EngineReadHit => timed(iters, |_| {
                    black_box(engine.read(black_box(64), &mut buf).is_ok());
                    black_box(&buf);
                }),
                _ => timed(iters, |i| {
                    #[allow(clippy::cast_possible_truncation)]
                    black_box(engine.write(PAGE, &(i as u32).to_le_bytes()).is_ok());
                    black_box(engine.close_interval());
                }),
            }
        }
        Kernel::MsgEncode => {
            let msg = release_message();
            timed(iters, |_| {
                black_box(black_box(&msg).to_framed(MODEL_HEADER_PAD));
            })
        }
        Kernel::MsgDecode => {
            let bytes = release_message().to_wire_bytes(MODEL_HEADER_PAD);
            timed(iters, |_| {
                black_box(Message::from_wire_bytes(1, black_box(&bytes)).is_ok());
            })
        }
        Kernel::WorkloadNext => {
            let cas = iters / 64;
            let mut schedule = KvSchedule::new(
                0x5E7E_1994,
                4,
                65_536,
                0.99,
                ms(5),
                OpMix::read_heavy(),
                iters,
                cas,
                8,
            );
            timed(iters, |_| {
                black_box(schedule.next_arrival());
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_zero_keeps_the_built_in_seed() {
        assert_eq!(mix_seed(0x5150_1994, 0), 0x5150_1994);
        assert_ne!(mix_seed(0x5150_1994, 1), 0x5150_1994);
        assert_ne!(mix_seed(0x5150_1994, 1), mix_seed(0x5150_1994, 2));
    }

    #[test]
    fn kv_counters_divide_evenly_at_every_scale() {
        for scale in [Scale::Paper, Scale::Test] {
            for w in [Workload::KvRead8, Workload::KvWrite8, Workload::KvRead32] {
                let _ = workload_config(w, scale, 3);
            }
            let _ = ladder_config(Workload::KvRead8, scale, 3, 800);
        }
    }

    #[test]
    fn every_probe_and_kernel_runs() {
        for p in [
            Probe::Raw,
            Probe::Transport,
            Probe::Arq,
            Probe::CoreNone,
            Probe::CoreReqRel,
            Probe::CoreReleaseDirty,
            Probe::SyncLock,
            Probe::SyncBarrier,
        ] {
            let out = probe(p, 20).unwrap_or_else(|e| panic!("{p:?}: {e}"));
            assert!(out.events > 0, "{p:?}");
            if p == Probe::SyncLock {
                // Strict alternation: every acquire after the first is a
                // hand-off between the nodes, none a local re-acquire.
                assert_eq!(out.units, 20, "lock probe did not alternate");
            }
        }
        for k in [
            Kernel::CodecPutGet,
            Kernel::DiffCreate,
            Kernel::DiffApply,
            Kernel::EngineWriteHit,
            Kernel::EngineReadHit,
            Kernel::CloseInterval,
            Kernel::MsgEncode,
            Kernel::MsgDecode,
            Kernel::WorkloadNext,
        ] {
            let _ = kernel(k, 64);
        }
    }
}
