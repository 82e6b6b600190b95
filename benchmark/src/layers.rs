//! The layer ladder and the kernel timings: host unit costs of single
//! layers, measured through their public calls. Run once as their own
//! pinned process by a full run (`layers`), or in-process at a fifth of
//! the size by a driver `--trace 1` run; every workload's `est.*` is
//! built from them.

use std::collections::BTreeMap;

use crate::{
    adapter::{self, JsonValue, Kernel, Probe, Scale},
    json,
    spans::Spans,
    timing::median,
};

/// Host ns per simulator event in the raw probe: the unit cost `est.sim`
/// multiplies by a workload's event count. Kept in `layers.json` only.
pub const RAW_EVENT_NS: &str = "sim.raw_event_ns";

/// Interleaved passes per probe and kernel. A rung is reported as the rung
/// below it plus the median over passes of the *paired* difference: the
/// steps between rungs (0.3-0.5 us) are smaller than what the machine's
/// fast and slow phases move a whole pass by (1-3 us), but the probes of one
/// pass run within 0.3 s of each other, so the phase is common to both and
/// cancels. Differences of medians or of fastest passes reorder the ladder
/// in a third of the runs.
const PASSES: u32 = 9;

/// Each rung and the rung it builds on; `None` for a base, reported as its
/// own median pass. The core rungs stand on the transport they use.
const LADDER: [(&str, Option<&str>); 8] = [
    ("sim.raw_rt_ns", None),
    ("sim.transport_rt_ns", Some("sim.raw_rt_ns")),
    ("sim.arq_rt_ns", Some("sim.transport_rt_ns")),
    ("core.none_rt_ns", Some("sim.transport_rt_ns")),
    ("core.reqrel_rt_ns", Some("core.none_rt_ns")),
    ("core.release_dirty_rt_ns", Some("core.reqrel_rt_ns")),
    ("sync.lock_handoff_ns", None),
    ("sync.barrier_round_ns", None),
];

const PROBES: [(Probe, &str); 8] = [
    (Probe::Raw, "sim.raw_rt_ns"),
    (Probe::Transport, "sim.transport_rt_ns"),
    (Probe::Arq, "sim.arq_rt_ns"),
    (Probe::CoreNone, "core.none_rt_ns"),
    (Probe::CoreReqRel, "core.reqrel_rt_ns"),
    (Probe::CoreReleaseDirty, "core.release_dirty_rt_ns"),
    (Probe::SyncLock, "sync.lock_handoff_ns"),
    (Probe::SyncBarrier, "sync.barrier_round_ns"),
];

/// Kernel, metric name, iterations of a full-size measurement (each
/// about 0.1-0.3 s in total).
const KERNELS: [(Kernel, &str, u64); 9] = [
    (Kernel::CodecPutGet, "util.codec_put_get_ns", 2_000_000),
    (Kernel::DiffCreate, "lrc.diff_create_ns", 100_000),
    (Kernel::DiffApply, "lrc.diff_apply_ns", 200_000),
    (
        Kernel::EngineWriteHit,
        "lrc.engine_write_hit_ns",
        10_000_000,
    ),
    (Kernel::EngineReadHit, "lrc.engine_read_hit_ns", 10_000_000),
    (Kernel::CloseInterval, "lrc.close_interval_ns", 50_000),
    (Kernel::MsgEncode, "core.msg_encode_ns", 200_000),
    (Kernel::MsgDecode, "core.msg_decode_ns", 200_000),
    (Kernel::WorkloadNext, "serve.workload_next_ns", 2_000_000),
];

/// Size of a measurement: round trips per probe and the divisor applied
/// to the kernels' iteration counts.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    pub round_trips: u32,
    pub kernel_div: u64,
}

impl Size {
    /// The `layers` process of a full run: 20 000 round trips.
    pub const FULL: Size = Size {
        round_trips: 20_000,
        kernel_div: 1,
    };
    /// In-process under the driver: a fifth, to fit the run's budget.
    pub const IN_PROCESS: Size = Size {
        round_trips: 4_000,
        kernel_div: 5,
    };
    pub const SMOKE: Size = Size {
        round_trips: 100,
        kernel_div: 1_000,
    };

    /// The size a `layers` process measures at.
    pub fn own_process(scale: Scale) -> Size {
        match scale {
            Scale::Paper => Size::FULL,
            Scale::Test => Size::SMOKE,
        }
    }

    /// The size a workload process measures at when it has no `layers`
    /// file to read.
    pub fn in_process(scale: Scale) -> Size {
        match scale {
            Scale::Paper => Size::IN_PROCESS,
            Scale::Test => Size::SMOKE,
        }
    }
}

/// Unit costs by metric name (ns), plus [`RAW_EVENT_NS`].
pub type UnitCosts = BTreeMap<String, f64>;

/// Measures every rung and kernel.
pub fn measure(spans: &mut Spans, size: Size) -> Result<UnitCosts, String> {
    let per_pass = (size.round_trips / PASSES).max(2);
    // Per pass: ns per unit of every probe and kernel, by metric name.
    let mut passes: Vec<BTreeMap<&str, f64>> = Vec::new();
    spans
        .scope("layers", |spans| -> Result<(), String> {
            for pass in 0..PASSES {
                let mut ns = BTreeMap::new();
                for (probe, name) in PROBES {
                    let (out, secs) = spans.scope(&format!("probe {name} #{pass}"), |_| {
                        adapter::probe(probe, per_pass)
                    });
                    let out = out?;
                    #[allow(clippy::cast_precision_loss)]
                    ns.insert(name, secs * 1e9 / out.units.max(1) as f64);
                    if probe == Probe::Raw {
                        #[allow(clippy::cast_precision_loss)]
                        ns.insert(RAW_EVENT_NS, secs * 1e9 / out.events.max(1) as f64);
                    }
                }
                for (kernel, name, iters) in KERNELS {
                    let iters = (iters / size.kernel_div / u64::from(PASSES)).max(16);
                    let (took, _) = spans.scope(&format!("kernel {name} #{pass}"), |_| {
                        adapter::kernel(kernel, iters)
                    });
                    #[allow(clippy::cast_precision_loss)]
                    ns.insert(name, took.as_secs_f64() * 1e9 / iters as f64);
                }
                passes.push(ns);
            }
            Ok(())
        })
        .0?;
    let over_passes =
        |f: &dyn Fn(&BTreeMap<&str, f64>) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    let mut costs = UnitCosts::new();
    for (name, below) in LADDER {
        let ns = match below {
            None => over_passes(&|p| p[name]),
            Some(below) => costs[below] + over_passes(&|p| p[name] - p[below]),
        };
        costs.insert(name.to_owned(), ns);
    }
    for name in KERNELS.iter().map(|k| k.1).chain([RAW_EVENT_NS]) {
        costs.insert(name.to_owned(), over_passes(&|p| p[name]));
    }
    Ok(costs)
}

/// Whether the ladder is ordered: each rung costs at least the one it
/// builds on (raw <= transport <= ARQ; none <= request/release <= dirty
/// release).
pub fn ordered(costs: &UnitCosts) -> bool {
    let c = |k: &str| costs.get(k).copied().unwrap_or(f64::NAN);
    c("sim.raw_rt_ns") <= c("sim.transport_rt_ns")
        && c("sim.transport_rt_ns") <= c("sim.arq_rt_ns")
        && c("core.none_rt_ns") <= c("core.reqrel_rt_ns")
        && c("core.reqrel_rt_ns") <= c("core.release_dirty_rt_ns")
}

pub fn to_json(costs: &UnitCosts) -> String {
    let rows: Vec<String> = costs
        .iter()
        .map(|(k, v)| format!("  {}: {}", json::string(k), json::num(*v)))
        .collect();
    format!("{{\n{}\n}}\n", rows.join(",\n"))
}

pub fn from_json(v: &JsonValue) -> Result<UnitCosts, String> {
    let obj = v.as_object().ok_or("unit costs: not a JSON object")?;
    let costs: UnitCosts = obj
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
        .collect();
    for name in PROBES
        .iter()
        .map(|p| p.1)
        .chain(KERNELS.iter().map(|k| k.1))
    {
        if !costs.contains_key(name) {
            return Err(format!("unit costs: {name} missing"));
        }
    }
    Ok(costs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn measure_reports_every_unit_cost_and_round_trips_through_json() {
        let mut spans = Spans::new(Instant::now());
        let costs = measure(&mut spans, Size::SMOKE).expect("probes run");
        assert_eq!(costs.len(), PROBES.len() + KERNELS.len() + 1);
        assert!(
            costs.values().all(|v| v.is_finite() && *v > 0.0),
            "{costs:?}"
        );
        let parsed = adapter::json_parse(&to_json(&costs)).expect("valid JSON");
        assert_eq!(from_json(&parsed).expect("complete"), costs);
        assert!(from_json(&adapter::json_parse("{}").unwrap()).is_err());
        // One span per probe and kernel pass, all children of "layers".
        let n = PASSES as usize * (PROBES.len() + KERNELS.len());
        assert_eq!(spans.spans().len(), n + 1);
        assert!(spans.spans()[1..].iter().all(|s| s.parent == Some(0)));
    }

    #[test]
    fn ordered_checks_both_ladders() {
        let mut c = UnitCosts::new();
        for (k, v) in [
            ("sim.raw_rt_ns", 10.0),
            ("sim.transport_rt_ns", 11.0),
            ("sim.arq_rt_ns", 15.0),
            ("core.none_rt_ns", 20.0),
            ("core.reqrel_rt_ns", 22.0),
            ("core.release_dirty_rt_ns", 60.0),
        ] {
            c.insert(k.to_owned(), v);
        }
        assert!(ordered(&c));
        c.insert("sim.transport_rt_ns".to_owned(), 9.0);
        assert!(!ordered(&c));
        assert!(!ordered(&UnitCosts::new()));
    }
}
