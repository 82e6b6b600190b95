//! End-to-end serving runs: cluster roles, configuration scales, the
//! server and client node programs, and the merged serving result.
//!
//! The first `n/2` nodes are **servers** (each owns its hash shards and is
//! the sole writer of their memory); the rest are **clients** replaying
//! their deterministic open-loop schedules through the async request API.
//! A run is bracketed by barriers: epoch 100 starts traffic, epoch 101
//! closes it (and ends the timed window via `app.done_ns`), then node 0
//! reads the shared counters straight from the DSM — legal after the
//! barrier — and epoch 102 lets every node retire.

use std::collections::BTreeMap;
use std::rc::Rc;

use carlos_core::{Annotation, CoherentHeap, CoreConfig, Runtime};
use carlos_lrc::{LrcConfig, PageOwnership};
use carlos_sim::{
    time::{ms, us, Ns},
    AckMode, FaultPlan, GeParams, NodeCtx, SimConfig,
};
use carlos_sync::BarrierSpec;

use crate::harness::observed_cluster;
use crate::serve::client::{ClientStats, KvClient, H_KV_REP, H_KV_REQ, H_SERVE_DONE};
use crate::serve::store::{
    execute, meta_of, read_key, OpKind, Request, Status, StoreLayout, META_BYTES,
};
use crate::serve::workload::{
    counter_bytes, counter_value, value_bytes, OpMix, Workload, ZipfTable,
};
use crate::{AppReport, Collector};

/// A scheduled harvest probe: at virtual time `at`, every client issues
/// `samples` gets spread evenly over the keyspace with a short deadline.
/// The answered fraction is the run's **harvest** — how much of the data
/// was reachable while faults were active (probes are scheduled inside the
/// fault window in the chaos configurations).
#[derive(Debug, Clone, Copy)]
pub struct HarvestProbe {
    /// Virtual time the probe fires.
    pub at: Ns,
    /// Per-probe answer deadline.
    pub timeout: Ns,
    /// Keys sampled per client.
    pub samples: usize,
}

/// The traffic a serving run offers ([`App::Serve`](crate::App::Serve)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Traffic {
    /// The fault-free open-loop workload, exact at every scale.
    Steady,
    /// The test workload under faults ([`ServeConfig::chaos`]): it sheds load.
    Chaos,
}

/// Configuration for one serving run.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Cluster size; the first `n_nodes / 2` nodes are servers.
    pub n_nodes: usize,
    /// Run seed (workload schedules derive per-client streams from it).
    pub seed: u64,
    /// Distinct keys in the Zipfian keyspace (counter keys live above it).
    pub keyspace: u64,
    /// Zipf skew parameter (0.99 is the YCSB-style default).
    pub theta: f64,
    /// Stored value length in bytes.
    pub val_len: usize,
    /// Relative get/put/delete weights.
    pub mix: OpMix,
    /// Operations each client issues.
    pub ops_per_client: u64,
    /// CAS increment intents per client, interleaved evenly.
    pub cas_per_client: u64,
    /// Shared counters the CAS intents target round-robin.
    pub counter_keys: u64,
    /// Mean exponential inter-arrival gap per client.
    pub mean_interarrival: Ns,
    /// Per-operation completion deadline.
    pub op_timeout: Ns,
    /// Extra virtual time after the last arrival before a client gives up
    /// on stragglers (everything still pending is attributed timed-out).
    pub drain: Ns,
    /// Hash shards per server node.
    pub shards_per_server: usize,
    /// Slots per shard (power of two; sized ≥ 2× expected keys/shard).
    pub slots_per_shard: usize,
    /// Server-side compute charged per request executed.
    pub ns_per_op: Ns,
    /// DSM page size.
    pub page_size: usize,
    /// LRC record-count GC threshold: a node holding more consistency
    /// records asks for a collection round, which runs mid-serve.
    pub gc_threshold_records: usize,
    /// Optional harvest probe.
    pub probe: Option<HarvestProbe>,
    /// Network/cost model.
    pub sim: SimConfig,
    /// CarlOS cost model.
    pub core: CoreConfig,
    /// Optional consistency oracle (observer-only).
    pub check: Option<carlos_check::Checker>,
    /// Optional causal tracer (observer-only).
    pub trace: Option<carlos_trace::Tracer>,
}

/// The consistency records one paper-scale serving node may hold, in
/// bytes: TreadMarks sized an arena for them and collected when it ran
/// low (§5.2). 96 KiB keeps the interval logs of an 8-node run, which
/// grow with run length without a collection, to about a tenth of the
/// process.
const RECORD_BUDGET_BYTES: usize = 96 << 10;

/// Bytes one interval record takes in a node's log at cluster size `n`:
/// its creator, its `n`-word vector time, its end offset and, for a
/// serving write, a write notice or two (the bound the hot-path gate
/// holds a logged record to).
fn record_bytes(n_nodes: usize) -> usize {
    4 * (n_nodes + 4)
}

/// Slot count giving a ≤ 50% load factor for `keyspace` keys over
/// `n_shards` shards.
fn slots_for(keyspace: u64, n_shards: usize) -> usize {
    let keyspace = usize::try_from(keyspace).expect("keyspace fits usize");
    ((keyspace * 2) / n_shards).next_power_of_two().max(64)
}

impl ServeConfig {
    /// The paper-scale serving row: 64 Ki keys, 128 B values, a cluster
    /// offered load of ~1000 ops/s split evenly over the clients (total
    /// 256 Ki operations regardless of cluster size, so rows at different
    /// `n` serve the same traffic). Each node's consistency records are
    /// held to a budget of 96 KiB: the GC threshold is the budget over the
    /// bytes of one record at `n_nodes` (2 048 records at n = 8).
    ///
    /// # Panics
    ///
    /// Panics if `n_nodes < 2` (one server and one client are required).
    #[must_use]
    pub fn paper(n_nodes: usize) -> Self {
        assert!(n_nodes >= 2, "serving needs a server and a client");
        let n_servers = n_nodes / 2;
        let clients = (n_nodes - n_servers) as u64;
        let shards_per_server = 4;
        let keyspace: u64 = 65_536;
        let ops_per_client = 262_144 / clients;
        let mean_interarrival = us(1_000) * clients;
        Self {
            seed: 0x5E7E_1994,
            keyspace,
            val_len: 128,
            ops_per_client,
            cas_per_client: ops_per_client / 64,
            counter_keys: 8,
            mean_interarrival,
            // Generous: fault-free serving must never time out, even in
            // the extreme tail (queueing bursts on the hot shards).
            op_timeout: mean_interarrival * 1_000,
            drain: mean_interarrival * 2_000,
            shards_per_server,
            slots_per_shard: slots_for(keyspace, n_servers * shards_per_server),
            ns_per_op: us(20),
            page_size: 8192,
            gc_threshold_records: RECORD_BUDGET_BYTES / record_bytes(n_nodes),
            sim: SimConfig::osdi94(),
            core: CoreConfig::osdi94(),
            ..Self::test(n_nodes)
        }
    }

    /// A small, fast workload for tests.
    ///
    /// # Panics
    ///
    /// Panics if `n_nodes < 2`.
    #[must_use]
    pub fn test(n_nodes: usize) -> Self {
        assert!(n_nodes >= 2, "serving needs a server and a client");
        let n_servers = n_nodes / 2;
        let shards_per_server = 2;
        let keyspace: u64 = 4_096;
        Self {
            n_nodes,
            seed: 0x0CA5_E5E7,
            keyspace,
            theta: 0.99,
            val_len: 64,
            mix: OpMix::read_heavy(),
            ops_per_client: 384,
            cas_per_client: 24,
            counter_keys: 2,
            mean_interarrival: us(250),
            op_timeout: ms(25),
            drain: ms(50),
            shards_per_server,
            slots_per_shard: slots_for(keyspace, n_servers * shards_per_server),
            ns_per_op: us(2),
            page_size: 512,
            gc_threshold_records: 1_000_000,
            probe: None,
            sim: SimConfig::fast_test(),
            core: CoreConfig::fast_test(),
            check: None,
            trace: None,
        }
    }

    /// The chaos configuration: the test workload under an ARQ transport,
    /// a burst-loss window, and a partition cutting the last server off
    /// from every client, with a harvest probe scheduled inside the
    /// partition and an op timeout short enough that partitioned traffic
    /// visibly times out (yield < 1).
    ///
    /// # Panics
    ///
    /// Panics if `n_nodes < 2`.
    #[must_use]
    pub fn chaos(n_nodes: usize) -> Self {
        let mut cfg = Self::test(n_nodes);
        // Traffic horizon: the span of one client's arrival schedule.
        let horizon = cfg.ops_per_client * cfg.mean_interarrival;
        let n_servers = cfg.n_servers();
        let last_server = (n_servers - 1) as u32;
        let clients: Vec<u32> = (n_servers as u32..cfg.n_nodes as u32).collect();
        cfg.sim.ack = AckMode::Arq {
            window: 16,
            rto: ms(5),
        };
        cfg.op_timeout = cfg.mean_interarrival * 16;
        cfg.drain = cfg.op_timeout * 5;
        cfg.probe = Some(HarvestProbe {
            at: horizon * 2 / 5,
            timeout: cfg.op_timeout,
            samples: 64,
        });
        cfg.sim.fault_plan = FaultPlan::new(0x0DD5_EED5)
            .burst_loss(horizon / 10, horizon / 5, GeParams::bursty(0.3))
            .partition(&[last_server], &clients, horizon / 4, horizon * 55 / 100);
        cfg
    }

    /// Server node count (the first `n_servers` node ids).
    #[must_use]
    pub fn n_servers(&self) -> usize {
        (self.n_nodes / 2).max(1)
    }

    /// Client node count.
    #[must_use]
    pub fn n_clients(&self) -> usize {
        self.n_nodes - self.n_servers()
    }
}

/// Per-server accounting.
#[derive(Debug, Clone, Default)]
pub struct ServerStats {
    /// Requests executed.
    pub ops_served: u64,
    /// Executed requests per status: Ok / NotFound / CasFail / Overflow.
    pub status_counts: [u64; 4],
    /// Keys this server mutated (size of its private version mirror).
    pub mirror_keys: u64,
    /// Mirror entries whose version disagrees with the DSM slot header
    /// after serving ends (an integrity failure; always 0).
    pub mirror_mismatches: u64,
}

/// Per-client accounting: the request-API stats plus the CAS-chain
/// intent ledger.
#[derive(Debug, Clone, Default)]
pub struct ClientNodeStats {
    /// Submit/poll accounting (includes CAS wire retries).
    pub stats: ClientStats,
    /// CAS increment intents scheduled.
    pub cas_intents: u64,
    /// Intents that landed an `Ok`.
    pub cas_done: u64,
    /// Intents abandoned on timeout or at the drain deadline.
    pub cas_abandoned: u64,
}

/// One node's contribution to the merged totals.
#[derive(Debug, Clone)]
struct NodeStats {
    role: Role,
    /// The most consistency records the node held at once.
    peak_records: u64,
}

/// A node's role and its role's accounting.
#[derive(Debug, Clone)]
enum Role {
    Server(ServerStats),
    Client(Box<ClientNodeStats>),
}

/// Cluster-wide serving totals, merged in node-id order.
#[derive(Debug, Clone, Default)]
pub struct ServeTotals {
    /// Merged client-side accounting.
    pub client: ClientStats,
    /// CAS intents scheduled across all clients.
    pub cas_intents: u64,
    /// CAS intents completed.
    pub cas_done: u64,
    /// CAS intents abandoned.
    pub cas_abandoned: u64,
    /// Requests executed across all servers.
    pub ops_served: u64,
    /// Server-side status counts.
    pub server_status: [u64; 4],
    /// Mutated keys across all server mirrors.
    pub mirror_keys: u64,
    /// Mirror/DSM version disagreements (always 0).
    pub mirror_mismatches: u64,
    /// The most consistency records any node held at once.
    pub peak_records: u64,
}

/// `part / whole`, or 1.0 when `whole` is 0.
#[allow(clippy::cast_precision_loss)]
fn fraction(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        1.0
    } else {
        part as f64 / whole as f64
    }
}

impl ServeTotals {
    /// **Yield**: completed / attempted operations (1.0 when idle).
    #[must_use]
    pub fn yield_fraction(&self) -> f64 {
        fraction(self.client.completed, self.client.attempted)
    }

    /// **Harvest**: the fraction of probe gets answered in time (1.0 when
    /// no probe was scheduled).
    #[must_use]
    pub fn harvest(&self) -> f64 {
        fraction(self.client.probes_answered, self.client.probes_attempted)
    }
}

/// Result of a serving run.
#[derive(Debug, Clone)]
pub struct ServeResult {
    /// Simulation report and derived table columns.
    pub app: AppReport,
    /// Merged serving totals.
    pub totals: ServeTotals,
    /// Final shared-counter values, read from the DSM by node 0 after the
    /// closing barrier (index = counter key).
    pub counters: Vec<u64>,
}

impl ServeResult {
    /// Completed operations per virtual second.
    #[must_use]
    pub fn ops_per_sec(&self) -> f64 {
        if self.app.secs == 0.0 {
            0.0
        } else {
            #[allow(clippy::cast_precision_loss)]
            {
                self.totals.client.completed as f64 / self.app.secs
            }
        }
    }

    /// Total wire payload bytes per completed operation (includes DSM
    /// consistency traffic — the real cost of an op on this system).
    #[must_use]
    pub fn bytes_per_op(&self) -> u64 {
        self.app.report.net.payload_bytes / self.totals.client.completed.max(1)
    }
}

/// The coherent-region geometry every node of a `cfg` serving run builds
/// its engine from (what the footprint benches construct engines over).
#[must_use]
pub fn lrc_config(cfg: &ServeConfig) -> LrcConfig {
    layout(cfg).1
}

/// SPMD store layout: identical on every node, no communication.
fn layout(cfg: &ServeConfig) -> (StoreLayout, LrcConfig) {
    let n_shards = cfg.n_servers() * cfg.shards_per_server;
    let need = n_shards * cfg.slots_per_shard * (META_BYTES + cfg.val_len);
    let mut heap = CoherentHeap::new((need * 2).next_power_of_two().max(1 << 22));
    let lay = StoreLayout::build(
        &mut heap,
        cfg.n_servers(),
        cfg.shards_per_server,
        cfg.slots_per_shard,
        cfg.val_len,
    );
    let lrc = LrcConfig {
        n_nodes: cfg.n_nodes,
        page_size: cfg.page_size,
        region_bytes: heap.used().next_multiple_of(cfg.page_size),
        gc_threshold_records: cfg.gc_threshold_records,
        ownership: PageOwnership::Banded,
        regions: heap.regions(),
    };
    (lay, lrc)
}

/// The server program: execute requests until every client said DONE,
/// then audit the DSM against the private version mirror.
fn server_node(cfg: &ServeConfig, rt: &mut Runtime, lay: &StoreLayout) -> ServerStats {
    let n_clients = cfg.n_clients();
    let mut stats = ServerStats::default();
    // Private mirror of every version this server committed. Validated
    // against the DSM after serving: a strong integrity check that costs
    // no cross-node traffic.
    let mut mirror: BTreeMap<u64, u32> = BTreeMap::new();
    let mut dones = 0usize;
    while dones < n_clients {
        let m = rt.wait_accepted_any(&[H_KV_REQ, H_SERVE_DONE]);
        if m.handler == H_SERVE_DONE {
            dones += 1;
            continue;
        }
        let req = Request::from_bytes(&m.body).expect("well-formed request");
        rt.compute(cfg.ns_per_op);
        let rep = execute(rt, lay, &req);
        if rep.status == Status::Ok && req.op != OpKind::Get {
            mirror.insert(req.key, rep.version);
        }
        stats.ops_served += 1;
        stats.status_counts[rep.status as usize] += 1;
        rt.send(m.origin, H_KV_REP, rep.to_bytes(), Annotation::Release);
    }
    stats.mirror_keys = mirror.len() as u64;
    for (&key, &ver) in &mirror {
        if meta_of(rt, lay, key).map(|m| m.version) != Some(ver) {
            stats.mirror_mismatches += 1;
        }
    }
    stats
}

/// One shared counter's increment chain: at most one CAS in flight per
/// counter per client; later intents queue behind it.
#[derive(Debug, Clone, Copy, Default)]
struct Chain {
    queued: u64,
    in_flight: Option<u32>,
    version: u32,
    count: u64,
    pending_count: u64,
}

fn submit_incr(
    rt: &mut Runtime,
    kv: &mut KvClient,
    cfg: &ServeConfig,
    idx: usize,
    ch: &mut Chain,
    cas_req: &mut BTreeMap<u32, usize>,
) {
    let key = cfg.keyspace + idx as u64;
    ch.pending_count = ch.count + 1;
    let value = counter_bytes(key, ch.pending_count, cfg.val_len.min(64));
    let deadline = rt.ctx().now() + cfg.op_timeout;
    let id = kv.submit(rt, OpKind::Cas, key, ch.version, value, deadline, false);
    cas_req.insert(id, idx);
    ch.in_flight = Some(id);
}

/// The client program: replay the open-loop schedule, multiplexing every
/// in-flight op through the submit/poll API; fire the harvest probe; keep
/// CAS chains moving; attribute every scheduled op as completed or
/// timed out by the drain deadline.
#[allow(clippy::too_many_lines)]
fn client_node(
    cfg: &ServeConfig,
    zipf: Rc<ZipfTable>,
    rt: &mut Runtime,
    lay: &StoreLayout,
) -> ClientNodeStats {
    let node = rt.node_id();
    let mut wl = Workload::with_table(
        zipf,
        cfg.seed,
        node,
        cfg.mean_interarrival,
        cfg.mix,
        cfg.ops_per_client,
        cfg.cas_per_client,
        cfg.counter_keys,
    );
    let mut kv = KvClient::new(lay.clone());
    let mut chains: Vec<Chain> =
        vec![Chain::default(); usize::try_from(cfg.counter_keys).expect("counter keys fit")];
    let mut cas_req: BTreeMap<u32, usize> = BTreeMap::new();
    let mut out = ClientNodeStats::default();
    let mut next = wl.next_arrival();
    let mut end_deadline = Ns::MAX;
    let mut probe_fired = cfg.probe.is_none();

    loop {
        for c in kv.poll(rt) {
            if c.probe || c.op != OpKind::Cas {
                continue;
            }
            let Some(idx) = cas_req.remove(&c.req_id) else {
                continue;
            };
            let ch = &mut chains[idx];
            ch.in_flight = None;
            match c.status {
                Status::Ok => {
                    ch.version = c.version;
                    ch.count = ch.pending_count;
                    out.cas_done += 1;
                    if ch.queued > 0 {
                        ch.queued -= 1;
                        submit_incr(rt, &mut kv, cfg, idx, ch, &mut cas_req);
                    }
                }
                Status::CasFail => {
                    // Another client won; the reply carries the current
                    // version and cell, so retry without a separate get.
                    ch.version = c.version;
                    ch.count = if c.value.is_empty() {
                        0
                    } else {
                        counter_value(&c.value)
                    };
                    submit_incr(rt, &mut kv, cfg, idx, ch, &mut cas_req);
                }
                Status::NotFound | Status::Overflow => {
                    out.cas_abandoned += 1;
                }
            }
        }
        // CAS requests the API expired: the intent is abandoned (retrying
        // risks double-increment if the original was applied late), but
        // the chain moves on to its next queued intent.
        for (idx, ch) in chains.iter_mut().enumerate() {
            if let Some(id) = ch.in_flight {
                if !kv.is_pending(id) {
                    cas_req.remove(&id);
                    ch.in_flight = None;
                    out.cas_abandoned += 1;
                    if ch.queued > 0 {
                        ch.queued -= 1;
                        submit_incr(rt, &mut kv, cfg, idx, ch, &mut cas_req);
                    }
                }
            }
        }

        let now = rt.ctx().now();
        if let Some(p) = &cfg.probe {
            if !probe_fired && now >= p.at {
                probe_fired = true;
                for i in 0..p.samples {
                    let key = (i as u64) * cfg.keyspace / (p.samples as u64);
                    kv.submit(rt, OpKind::Get, key, 0, Vec::new(), now + p.timeout, true);
                }
                continue;
            }
        }
        if let Some(a) = next {
            if now >= a.at {
                match a.op {
                    OpKind::Cas => {
                        out.cas_intents += 1;
                        let idx = usize::try_from(a.key).expect("counter index fits");
                        let ch = &mut chains[idx];
                        if ch.in_flight.is_some() {
                            ch.queued += 1;
                        } else {
                            submit_incr(rt, &mut kv, cfg, idx, ch, &mut cas_req);
                        }
                    }
                    op => {
                        let value = if op == OpKind::Put {
                            value_bytes(a.key, node, cfg.val_len)
                        } else {
                            Vec::new()
                        };
                        kv.submit(rt, op, a.key, 0, value, now + cfg.op_timeout, false);
                    }
                }
                next = wl.next_arrival();
                if next.is_none() {
                    end_deadline = a.at + cfg.drain;
                }
                continue;
            }
        }

        let chains_idle = chains.iter().all(|c| c.in_flight.is_none() && c.queued == 0);
        if next.is_none() && probe_fired && chains_idle && kv.in_flight() == 0 {
            break;
        }
        if now >= end_deadline {
            break;
        }
        let mut dl = end_deadline;
        if let Some(a) = next {
            dl = dl.min(a.at);
        }
        if let Some(p) = &cfg.probe {
            if !probe_fired {
                dl = dl.min(p.at);
            }
        }
        dl = dl.min(kv.next_expiry());
        rt.pump(Some(dl));
    }

    // Drain deadline: everything still in flight is attributed timed-out,
    // queued intents are abandoned — nothing disappears silently.
    kv.expire_all();
    for ch in &mut chains {
        out.cas_abandoned += ch.queued;
        ch.queued = 0;
        if ch.in_flight.take().is_some() {
            out.cas_abandoned += 1;
        }
    }
    // Tell every server this client is finished: per-pair FIFO guarantees
    // all of its requests arrive first.
    for s in 0..cfg.n_servers() as u32 {
        rt.send(s, H_SERVE_DONE, Vec::new(), Annotation::None);
    }
    out.stats = std::mem::take(&mut kv.stats);
    out
}

/// One node of the serving cluster (role decided by node id); a client
/// draws its keys from `zipf`.
fn serve_node(
    cfg: &ServeConfig,
    zipf: Rc<ZipfTable>,
    ctx: NodeCtx,
) -> (NodeStats, Option<Vec<u64>>) {
    let (lay, lrc) = layout(cfg);
    let mut rt = Runtime::new(ctx, lrc, cfg.core.clone());
    let sys = carlos_sync::install(&mut rt);
    let barrier = BarrierSpec::global(900, 0);
    sys.barrier(&mut rt, barrier, 100);
    let node = rt.node_id();
    let out = if (node as usize) < cfg.n_servers() {
        // Servers draw no keys: dropping their handles now frees the table
        // when the last client's schedule ends, not at the end of the run.
        drop(zipf);
        let s = server_node(cfg, &mut rt, &lay);
        rt.ctx().count("serve.served", s.ops_served);
        Role::Server(s)
    } else {
        let c = client_node(cfg, zipf, &mut rt, &lay);
        rt.ctx().count("serve.attempted", c.stats.attempted);
        rt.ctx().count("serve.completed", c.stats.completed);
        rt.ctx().count("serve.timed_out", c.stats.timed_out);
        Role::Client(Box::new(c))
    };
    sys.barrier(&mut rt, barrier, 101);
    rt.ctx().count("app.done_ns", rt.ctx().now());
    let counters = (node == 0).then(|| {
        (0..cfg.counter_keys)
            .map(|c| {
                read_key(&mut rt, &lay, cfg.keyspace + c).map_or(0, |(_, v)| counter_value(&v))
            })
            .collect()
    });
    sys.barrier(&mut rt, barrier, 102);
    let out = NodeStats {
        role: out,
        peak_records: rt.peak_record_count() as u64,
    };
    rt.shutdown();
    (out, counters)
}

/// Runs a serving workload on a simulated cluster, returning simulation
/// failures (deadlock, node panic, safety-valve trip) as a
/// [`carlos_sim::SimError`] value instead of panicking.
///
/// # Errors
///
/// Returns the [`carlos_sim::SimError`] describing how the run failed.
pub fn try_run_serve(cfg: &ServeConfig) -> Result<ServeResult, carlos_sim::SimError> {
    let stats_c: Collector<NodeStats> = Collector::new();
    let counters_c: Collector<Vec<u64>> = Collector::new();
    let mut cluster =
        observed_cluster(&cfg.sim, cfg.n_nodes, cfg.check.as_ref(), cfg.trace.as_ref());
    // One Zipf table per run, shared by every client: it depends on the
    // keyspace and skew alone.
    let zipf = Rc::new(ZipfTable::new(cfg.keyspace, cfg.theta));
    for node in 0..cfg.n_nodes as u32 {
        let cfg = cfg.clone();
        let zipf = Rc::clone(&zipf);
        let stats_c = stats_c.clone();
        let counters_c = counters_c.clone();
        cluster.spawn_node(node, move |ctx| {
            let (stats, counters) = serve_node(&cfg, zipf, ctx);
            stats_c.put(node, stats);
            if let Some(c) = counters {
                counters_c.put(node, c);
            }
        });
    }
    let report = cluster.try_run()?;
    let mut totals = ServeTotals::default();
    for (_, s) in stats_c.take() {
        totals.peak_records = totals.peak_records.max(s.peak_records);
        match s.role {
            Role::Server(sv) => {
                totals.ops_served += sv.ops_served;
                for (a, b) in totals.server_status.iter_mut().zip(sv.status_counts) {
                    *a += b;
                }
                totals.mirror_keys += sv.mirror_keys;
                totals.mirror_mismatches += sv.mirror_mismatches;
            }
            Role::Client(cl) => {
                totals.client.merge(&cl.stats);
                totals.cas_intents += cl.cas_intents;
                totals.cas_done += cl.cas_done;
                totals.cas_abandoned += cl.cas_abandoned;
            }
        }
    }
    let counters = counters_c
        .take()
        .into_iter()
        .next()
        .map(|(_, c)| c)
        .unwrap_or_default();
    Ok(ServeResult {
        app: AppReport::new(report),
        totals,
        counters,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fmt::Write as _;

    fn serve(cfg: &ServeConfig) -> ServeResult {
        try_run_serve(cfg).expect("serving run")
    }

    fn fingerprint(r: &ServeResult) -> String {
        let mut s = String::new();
        let t = &r.totals;
        let _ = writeln!(
            s,
            "elapsed={} events={} messages={} payload={}",
            r.app.report.elapsed,
            r.app.report.events_processed,
            r.app.report.net.messages,
            r.app.report.net.payload_bytes,
        );
        let _ = writeln!(
            s,
            "attempted={} completed={} timed_out={} late={} status={:?} badvals={}",
            t.client.attempted,
            t.client.completed,
            t.client.timed_out,
            t.client.late_replies,
            t.client.status_counts,
            t.client.value_check_failures,
        );
        let _ = writeln!(
            s,
            "cas intents={} done={} abandoned={} served={} mirror={}/{}",
            t.cas_intents,
            t.cas_done,
            t.cas_abandoned,
            t.ops_served,
            t.mirror_mismatches,
            t.mirror_keys,
        );
        let _ = writeln!(
            s,
            "hist n={} sum={} p50={} p99={} p999={} probes={}/{}",
            t.client.hist.count(),
            t.client.hist.sum(),
            t.client.hist.quantile(0.50),
            t.client.hist.quantile(0.99),
            t.client.hist.quantile(0.999),
            t.client.probes_answered,
            t.client.probes_attempted,
        );
        let _ = writeln!(s, "counters={:?}", r.counters);
        s
    }

    #[test]
    fn fault_free_serve_is_exact() {
        let cfg = ServeConfig::test(4);
        let r = serve(&cfg);
        let t = &r.totals;
        let clients = cfg.n_clients() as u64;
        // Every scheduled op resolves: no timeouts, no late replies, no
        // corrupt values, perfect yield.
        assert_eq!(t.client.timed_out, 0);
        assert_eq!(t.client.late_replies, 0);
        assert_eq!(t.client.value_check_failures, 0);
        assert_eq!(t.client.completed, t.client.attempted);
        assert!((t.yield_fraction() - 1.0).abs() < f64::EPSILON);
        // Server-side integrity: the mirrors agree with the DSM.
        assert_eq!(t.mirror_mismatches, 0);
        assert!(t.mirror_keys > 0);
        assert_eq!(t.ops_served, t.client.attempted);
        // CAS exactness: every intent lands, and the shared counters sum
        // to exactly the cluster-wide intent count.
        assert_eq!(t.cas_intents, clients * cfg.cas_per_client);
        assert_eq!(t.cas_done, t.cas_intents);
        assert_eq!(t.cas_abandoned, 0);
        let per_counter = clients * cfg.cas_per_client / cfg.counter_keys;
        assert_eq!(r.counters, vec![per_counter; cfg.counter_keys as usize]);
        // Latency accounting covers exactly the completed ops.
        assert_eq!(t.client.hist.count(), t.client.completed);
        assert!(r.ops_per_sec() > 0.0);
        assert!(r.bytes_per_op() > 0);
    }

    #[test]
    fn same_seed_is_bit_identical() {
        let a = serve(&ServeConfig::test(4));
        let b = serve(&ServeConfig::test(4));
        assert_eq!(fingerprint(&a), fingerprint(&b));
    }

    #[test]
    fn fault_free_serving_costs_two_messages_per_operation() {
        let cfg = ServeConfig::test(8);
        let r = serve(&cfg);
        let (done, msgs) = (r.totals.client.completed, r.app.report.net.messages);
        assert_eq!(done, r.totals.client.attempted);
        // A request and its reply; the rest is barriers, DONEs and node 0's
        // closing read of the counters.
        assert!(msgs * 100 <= done * 205, "{msgs} messages for {done} operations");
        // A shard's granules are homed on its server, so serving never
        // demand-fetches: only node 0 faults, on the counters of shards it
        // does not serve (a slot header and a value cell each).
        let faults = |node: usize| r.app.report.node_counters[node].get("lrc.remote_faults");
        assert!((1..cfg.n_servers()).all(|s| faults(s) == 0));
        assert!(faults(0) <= 2 * cfg.counter_keys, "node 0 faulted {} times", faults(0));
    }

    /// A threshold this low makes the nodes ask for rounds while they
    /// serve: without a collection, a `test(4)` node ends holding up to
    /// 271 records.
    const LOW_THRESHOLD: usize = 32;

    #[test]
    fn collection_rounds_run_mid_serve_and_keep_it_exact() {
        let mut cfg = ServeConfig::test(4);
        cfg.gc_threshold_records = LOW_THRESHOLD;
        // Armed, every step of a round is a bounded wait.
        cfg.core = cfg.core.with_stall_timeout(ms(20));
        let check = carlos_check::Checker::new(cfg.n_nodes);
        cfg.check = Some(check.clone());
        let r = serve(&cfg);
        let t = &r.totals;
        let report = &r.app.report;
        // Barriers 101 and 102 host at most one round each, and barrier
        // 100 falls before any record exists: the rest ran mid-serve.
        let rounds = report.counter_total("gc.rounds") / cfg.n_nodes as u64;
        assert!(rounds >= 2 + 3, "{rounds} collection rounds");
        assert_eq!((t.client.completed, t.client.timed_out), (t.client.attempted, 0));
        assert_eq!(t.client.value_check_failures, 0);
        assert_eq!(t.mirror_mismatches, 0);
        let clients = cfg.n_clients() as u64;
        assert_eq!((t.cas_done, t.cas_abandoned), (clients * cfg.cas_per_client, 0));
        let per_counter = clients * cfg.cas_per_client / cfg.counter_keys;
        assert_eq!(r.counters, vec![per_counter; cfg.counter_keys as usize]);
        assert_eq!(report.counter_total("carlos.residue"), 0);
        assert_eq!(check.violations(), Vec::new());
        // No record names a page a node other than its writer holds.
        assert_eq!(report.counter_total("gc.records"), 0);
    }

    #[test]
    fn peak_records_do_not_grow_with_run_length() {
        let peak = |ops: u64| {
            let mut cfg = ServeConfig::test(4);
            cfg.gc_threshold_records = LOW_THRESHOLD;
            cfg.ops_per_client = ops;
            cfg.cas_per_client = ops / 16;
            let r = serve(&cfg);
            assert_eq!(r.totals.client.completed, r.totals.client.attempted);
            r.totals.peak_records
        };
        let (short, long) = (peak(384), peak(768));
        // A node over the threshold keeps taking records until its round
        // discards them: the requests its ask overtakes and the
        // departure. Without collection the peak doubles with the run.
        let bound = 2 * LOW_THRESHOLD as u64;
        assert!(short <= bound && long <= bound, "peaks {short} and {long} over {bound}");
    }

    #[test]
    fn overload_ships_no_notice_twice_to_a_client() {
        // Four times the test rate and a time-out nothing can reach: every
        // request waits behind others, so every REQUEST's timestamp is older
        // than replies already on their way to its client.
        let mut cfg = ServeConfig::test(8);
        cfg.mean_interarrival /= 4;
        cfg.op_timeout = ms(10_000);
        cfg.drain = ms(20_000);
        let r = serve(&cfg);
        let t = &r.totals;
        assert_eq!((t.client.completed, t.client.timed_out), (t.client.attempted, 0));
        assert_eq!(t.mirror_mismatches, 0);
        let sum = |nodes: std::ops::Range<usize>, name: &str| -> u64 {
            nodes.map(|n| r.app.report.node_counters[n].get(name)).sum()
        };
        let created = sum(0..cfg.n_servers(), "lrc.diffs_created");
        let applied = sum(cfg.n_servers()..cfg.n_nodes, "carlos.notices_applied");
        assert!(
            applied <= cfg.n_clients() as u64 * created,
            "{applied} notices reached the clients for {created} created"
        );
    }
}
