//! The footprint ledger, `BENCH_footprint.json`: what each run costs the
//! host's heap, in numbers that repeat bit for bit.
//!
//! Host seconds and peak RSS drift with the machine; the allocations a
//! deterministic run makes do not. [`cells`] lists the runs — every quick
//! report cell, the quick serving rows, and three paper-scale rows — and
//! [`to_json`] renders one [`Row`] per run. The counting itself needs a
//! global allocator, which library code does not install: the report
//! example counts around each [`launch`](carlos_apps::launch) and hands
//! the counts here.

use carlos_apps::{App, QsortVariant, Run, Scale, Spec, Traffic, WaterVariant};

use crate::report::{serve_specs, ReportOptions, SPECS};

/// Heap activity of one run, as a counting allocator saw it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Heap {
    /// Allocations (a `realloc` counts as one).
    pub allocs: u64,
    /// Bytes requested by those allocations (a `realloc`, its new size).
    pub bytes: u64,
    /// Most bytes live at once during the run, above what was live when
    /// it started.
    pub peak_live: u64,
}

/// One ledger row.
#[derive(Debug, Clone)]
pub struct Row {
    /// Which run: application, variant, cluster size and scale.
    pub label: String,
    /// Its heap activity.
    pub heap: Heap,
    /// Messages the run put on the wire.
    pub messages: u64,
    /// Simulator events it processed.
    pub events: u64,
}

impl Row {
    /// The row of `run`, labelled `label`, whose heap activity was `heap`.
    #[must_use]
    pub fn new(label: String, run: &Run, heap: Heap) -> Self {
        let app = run.app();
        Self {
            label,
            heap,
            messages: app.messages,
            events: app.report.events_processed,
        }
    }
}

fn scale_name(scale: Scale) -> &'static str {
    match scale {
        Scale::Paper => "paper",
        Scale::Test => "test",
        Scale::Quick => "quick",
    }
}

/// The ledger's runs, labelled, in row order: each cell of the quick
/// report (`max_nodes` 4), its serving rows, then paper-scale Water Lock
/// and Quicksort Hybrid-1 on four nodes and KV on eight. Every run is
/// unobserved.
#[must_use]
pub fn cells() -> Vec<(String, Spec)> {
    let quick = ReportOptions {
        scale: Scale::Quick,
        max_nodes: 4,
    };
    let report = SPECS.iter().flat_map(|spec| {
        spec.sizes
            .nodes(quick.max_nodes)
            .into_iter()
            .map(move |n| (spec.app, spec.label, spec.cell(n, Scale::Quick)))
    });
    let serve = serve_specs(&quick).into_iter().map(|s| (s.app, "", s));
    let paper = [
        App::Water(WaterVariant::Lock),
        App::Quicksort(QsortVariant::Hybrid1),
        App::Serve(Traffic::Steady),
    ]
    .into_iter()
    .map(|app| {
        let n = if matches!(app, App::Serve(_)) { 8 } else { 4 };
        let label = match app {
            App::Water(_) => "Lock",
            App::Quicksort(_) => "Hybrid-1",
            _ => "",
        };
        (app, label, Spec::new(app, n, Scale::Paper))
    });
    report
        .chain(serve)
        .chain(paper)
        .map(|(app, variant, spec)| {
            let name = [app.name(), variant].join(" ");
            let label = format!("{} n={} {}", name.trim_end(), spec.n, scale_name(spec.scale));
            (label, spec)
        })
        .collect()
}

/// Renders the ledger, one row per line (valid JSON; labels are fixed
/// ASCII, so no escaping is required).
#[must_use]
#[allow(clippy::cast_precision_loss)]
pub fn to_json(rows: &[Row]) -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"generated_by\": \"CARLOS_REPORT_FOOTPRINT=path cargo run --release --example report\",\n",
    );
    out.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"row\": \"{}\", \"allocs\": {}, \"alloc_bytes\": {}, \"peak_live_bytes\": {}, \
             \"messages\": {}, \"allocs_per_msg\": {:.3}, \"events\": {}}}",
            r.label,
            r.heap.allocs,
            r.heap.bytes,
            r.heap.peak_live,
            r.messages,
            r.heap.allocs as f64 / r.messages.max(1) as f64,
            r.events
        ));
        out.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}
