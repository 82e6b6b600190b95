//! The same seed twice gives byte-identical virtual metrics; another seed
//! gives another virtual fingerprint.

mod common;

use carlos_benchmark::spec::Workload;
use common::{bench, out_dir, read_json, JsonValue};

/// Every metric on the virtual clock of one traced smoke run, as text.
fn virtual_metrics(workload: Workload, seed: &str, tag: &str) -> Vec<String> {
    let out = out_dir(&format!("determinism-{}-{seed}-{tag}", workload.name()));
    bench(&[
        "--workload",
        workload.name(),
        "--seed",
        seed,
        "--seconds",
        "1",
        "--trace",
        "1",
        "--smoke",
        "--out",
        out.to_str().unwrap(),
    ]);
    let run = read_json(&out.join(format!("{}.json", workload.name())));
    let mut rows = Vec::new();
    for table in ["end_to_end", "per_layer"] {
        for (name, m) in run.get(table).and_then(JsonValue::as_object).expect(table) {
            if m.get("clock").and_then(JsonValue::as_str) == Some("virtual") {
                let value = m.get("value").and_then(JsonValue::as_f64).expect("value");
                rows.push(format!("{name} {:016x}", value.to_bits()));
            }
        }
    }
    assert!(
        rows.len() > 40,
        "{}: only {} virtual metrics",
        workload.name(),
        rows.len()
    );
    rows
}

fn same_seed_repeats(w: Workload) -> Vec<String> {
    let first = virtual_metrics(w, "5", "a");
    assert_eq!(first, virtual_metrics(w, "5", "b"), "{}", w.name());
    first
}

// One test per program (and the fault path), so they run in parallel.

#[test]
fn qsort_repeats_bit_for_bit() {
    same_seed_repeats(Workload::QsortHybrid4);
}

#[test]
fn water_repeats_bit_for_bit() {
    same_seed_repeats(Workload::WaterLock4);
}

#[test]
fn kv_chaos_repeats_bit_for_bit() {
    same_seed_repeats(Workload::KvChaos8);
}

#[test]
fn kv_read_repeats_bit_for_bit_and_another_seed_differs() {
    let fingerprint = |rows: Vec<String>| -> Vec<String> {
        rows.into_iter()
            .filter(|row| {
                ["virt_s ", "sim.events ", "wire_msgs ", "wire_bytes "]
                    .iter()
                    .any(|p| row.starts_with(p))
            })
            .collect()
    };
    let five = fingerprint(same_seed_repeats(Workload::KvRead8));
    let six = fingerprint(virtual_metrics(Workload::KvRead8, "6", "a"));
    assert_eq!(five.len(), 4);
    assert_ne!(five, six);
}
