//! The numbers in EXPERIMENTS.md and README.md, rendered from the committed
//! `BENCH_paper.json`.
//!
//! Each measured table of the two documents sits between a
//! `<!-- generated: NAME -->` line and a `<!-- end generated -->` line.
//! [`write`] decodes the report ([`report::decode`]), replaces every region
//! with its table, rendered by the report's own Markdown section functions,
//! and writes both documents into a directory; a unit test holds the
//! committed ones equal to it. Text outside the regions is copied unchanged.

use std::path::Path;

use crate::report::{
    self, class_cost_markdown, contrast_markdown, figure2_markdown, granule_markdown,
    microcosts_markdown, paper_table_markdown, per_notice_markdown, serve_markdown, Report,
    ReportRow,
};

/// The documents [`write`] renders, by file name.
const DOCS: [&str; 2] = ["EXPERIMENTS.md", "README.md"];

const BEGIN: &str = "<!-- generated: ";
const END: &str = "<!-- end generated -->";

/// The table of region `name`, or `None` for a name no region has.
fn region(name: &str, report: &Report) -> Option<String> {
    let rows = |keep: &dyn Fn(&ReportRow) -> bool| -> Vec<ReportRow> {
        report.rows.iter().filter(|r| keep(r)).cloned().collect()
    };
    let testbed = report.opts.max_nodes;
    let paper_variant = |r: &ReportRow| report::paper_row(r.app, r.variant, testbed).is_some();
    let table = |app: &str| {
        paper_table_markdown(&rows(&|r| r.app == app && r.n <= testbed && paper_variant(r)))
    };
    // An ablation table shows the ablation rows `keep` names beside their
    // base rows.
    let ablations = |keep: &dyn Fn(&ReportRow) -> bool| {
        contrast_markdown(&rows(&|r| r.base == r.variant || keep(r)))
    };
    // Each legacy lock row and its variable-granularity twin.
    let vg = || rows(&|r| r.n == testbed && matches!(r.variant, "Lock" | "-" | "Lock+vg" | "-+vg"));
    Some(match name {
        "table1" => table("TSP"),
        "table2" => table("Quicksort"),
        "table3" => table("Water"),
        "figure2" => figure2_markdown(&report.rows),
        "per-notice" => per_notice_markdown(&report.rows),
        "microcosts" => microcosts_markdown(report.micro.as_ref()?),
        "annotation-ablations" => {
            ablations(&|r| matches!(r.variant, "Hybrid-2" | "No-forward" | "Hybrid+allrel"))
        }
        "treadmarks" => ablations(&|r| r.variant.ends_with("+tmk")),
        "update" => ablations(&|r| r.variant.ends_with("+update") && r.n == testbed),
        "sor" => paper_table_markdown(&rows(&|r| {
            r.app == "SOR" && r.n <= testbed && !r.variant.ends_with("+vg")
        })),
        "eight-node" => paper_table_markdown(&rows(&|r| r.n > testbed)),
        "vg" => paper_table_markdown(&vg()),
        "vg-classes" => class_cost_markdown(&vg()),
        "vg-granules" => granule_markdown(&vg()),
        "serving" => serve_markdown(&report.serve),
        "headline" => paper_table_markdown(&rows(&|r| r.n == testbed && paper_variant(r))),
        _ => return None,
    })
}

/// `doc` with every generated region's body replaced by its table. A
/// marker is a whole line; the body between the two markers is dropped and
/// the table written in its place, a blank line either side.
///
/// # Errors
///
/// A region whose name is unknown, an end marker outside a region, or a
/// region that is not closed before the next opens or the document ends.
fn splice(doc: &str, report: &Report) -> Result<String, String> {
    let mut out = String::with_capacity(doc.len());
    let mut open = None;
    for line in doc.split_inclusive('\n') {
        let text = line.trim_end_matches('\n');
        if let Some(name) = text.strip_prefix(BEGIN).and_then(|t| t.strip_suffix(" -->")) {
            if let Some(outer) = open {
                return Err(format!("region {outer} is not closed before {name} opens"));
            }
            let table =
                region(name, report).ok_or_else(|| format!("no region is named {name:?}"))?;
            out.push_str(line);
            out.push('\n');
            out.push_str(&table);
            out.push('\n');
            open = Some(name);
        } else if text == END {
            open.take().ok_or_else(|| format!("{END} outside a region"))?;
            out.push_str(line);
        } else if open.is_none() {
            out.push_str(line);
        }
    }
    match open {
        Some(name) => Err(format!("region {name} is not closed by {END}")),
        None => Ok(out),
    }
}

/// Reads `BENCH_paper.json` and [`DOCS`] from the current directory and
/// writes each document, its regions re-rendered, into `dir`.
///
/// # Errors
///
/// A file that cannot be read or written, a report that does not decode, or
/// a region [`splice`] rejects, naming the file.
pub fn write(dir: &Path) -> Result<(), String> {
    let read = |path: &str| std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"));
    let report =
        report::decode(&read("BENCH_paper.json")?).map_err(|e| format!("BENCH_paper.json: {e}"))?;
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for name in DOCS {
        let doc = splice(&read(name)?, &report).map_err(|e| format!("{name}: {e}"))?;
        let out = dir.join(name);
        std::fs::write(&out, doc).map_err(|e| format!("{}: {e}", out.display()))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn committed() -> Report {
        let text = include_str!("../../../BENCH_paper.json");
        report::decode(text).expect("the committed report decodes")
    }

    /// Splicing replaces exactly the region bodies and is a fixed point; a
    /// marker quoted inside a line is text; an unknown, unclosed or
    /// unopened region is an error.
    #[test]
    fn splice_replaces_region_bodies_only() {
        let report = committed();
        let doc = format!("intro `{BEGIN}x -->`\n{BEGIN}microcosts -->\nstale\n{END}\noutro\n");
        let once = splice(&doc, &report).expect("splices");
        assert!(once.starts_with(&format!("intro `{BEGIN}x -->`\n{BEGIN}microcosts -->\n\n")));
        assert!(once.contains("| REQUEST − NONE | 10.0 |") && !once.contains("stale"), "{once}");
        assert!(once.ends_with(&format!("\n\n{END}\noutro\n")), "{once}");
        assert_eq!(splice(&once, &report).expect("splices"), once);
        for bad in [
            format!("{BEGIN}nonsense -->\n{END}\n"),
            format!("{BEGIN}table1 -->\n"),
            format!("{BEGIN}table1 -->\n{BEGIN}table2 -->\n{END}\n"),
            format!("text\n{END}\n"),
        ] {
            assert!(splice(&bad, &report).is_err(), "{bad}");
        }
    }

    /// The committed documents are exactly what [`write`] renders from the
    /// committed report.
    #[test]
    fn committed_documents_are_their_own_rendering() {
        let report = committed();
        for (name, doc) in [
            ("EXPERIMENTS.md", include_str!("../../../EXPERIMENTS.md")),
            ("README.md", include_str!("../../../README.md")),
        ] {
            let rendered = splice(doc, &report).expect("splices");
            if rendered == doc {
                continue;
            }
            let lines = |text| str::split_inclusive(text, '\n');
            let (mut old, mut new) = (lines(doc), lines(&rendered));
            let line = (1..).find(|_| old.next() != new.next()).expect("a line differs");
            let show = |text| format!("{:?}", lines(text).nth(line - 1).unwrap_or(""));
            panic!(
                "{name} differs from its rendering at line {line}: {} against {}\n\
                 cargo run --release -q --bin carlos-repro -- docs target/docs && \
                 cp target/docs/{name} {name}",
                show(doc),
                show(&rendered),
            );
        }
    }
}
