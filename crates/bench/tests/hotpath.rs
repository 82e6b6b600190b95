//! The hot-path gates: a quick wall-clock bench run against the committed
//! `BENCH_hotpath.json`.
//!
//! Timed rows stay within 3× of the committed time, both sides divided by
//! their own run's calibration loop (`calib_ms`), so a slower host does not
//! trip them. Deterministic footprint keys stay within the bounds their
//! layouts imply. The cases below plant values at and just past each bound;
//! `a_fresh_bench_run_passes_the_hotpath_gates` applies the gate to
//! `target/BENCH_hotpath.json`, which `ci.sh` writes with a quick release
//! bench run before it runs that test.

use carlos_util::json::{self, JsonValue};

const COMMITTED: &str = include_str!("../../../BENCH_hotpath.json");

/// The timed rows gated within 3× of their committed time:
/// - the interval log on both sides of a RELEASE: the 8-record payload out
///   of a 4-creator × 2 000-record log, and accepting 64 decoded records;
/// - the codec: a 4-creator RELEASE of 8 records encoded with transport
///   headroom, and decoded back. The benchmark builds without LTO, so a
///   codec function that loses its `#[inline]` shows here as a call per
///   field;
/// - diffing a partitioned 8 KiB page of distinct keys, the shape of
///   Quicksort's diffs (about 90 runs, `diff_runs_typed_u32_partitioned_8k`);
/// - the serving load generator: one arrival (gap, Zipf key, op) drawn at
///   paper scale, 65 536 keys;
/// - observing a run: a test-scale Quicksort Hybrid-1 launch on four nodes
///   with the checker, and with the checker and the tracer on one stream
///   (the host time a checked run adds, in absolute ns).
const ROWS: [(&str, &str); 8] = [
    ("interval_log", "newer_than_8_of_4x2000"),
    ("interval_log", "apply_64_decoded"),
    ("codec", "encode_framed"),
    ("codec", "decode"),
    ("diff_create", "typed_u32_partitioned_8k"),
    ("serve", "next_arrival_64k"),
    ("observe", "check"),
    ("observe", "both"),
];

/// Whether a bound holds, and what it read; or the key it could not find.
type Reading = Result<(bool, String), String>;

fn derived(doc: &JsonValue, key: &str) -> Result<f64, String> {
    doc.get("derived")
        .and_then(|d| d.get(key))
        .and_then(JsonValue::as_f64)
        .ok_or_else(|| format!("no derived key {key}"))
}

/// Whether `row` is bench row `group`/`id`.
fn is_row(row: &JsonValue, group: &str, id: &str) -> bool {
    let is = |key, want| row.get(key).and_then(JsonValue::as_str) == Some(want);
    is("group", group) && is("id", id)
}

fn median_ns(doc: &JsonValue, group: &str, id: &str) -> Result<f64, String> {
    doc.get("benches")
        .and_then(JsonValue::as_array)
        .unwrap_or_default()
        .iter()
        .find(|row| is_row(row, group, id))
        .and_then(|row| row.get("median_ns")?.as_f64())
        .ok_or_else(|| format!("no bench row {group}/{id}"))
}

/// `ns` within 3× of the committed `base`, each divided by its own run's
/// `calib_ms`; a time of nothing is a broken measurement, not a fast one.
fn scaled(fresh: &JsonValue, committed: &JsonValue, ns: f64, base: f64) -> Reading {
    let (c, bc) = (derived(fresh, "calib_ms")?, derived(committed, "calib_ms")?);
    let ok = c > 0.0 && bc > 0.0 && base > 0.0 && ns > 0.0 && ns / c <= 3.0 * base / bc;
    Ok((ok, format!("{ns} ns at calib {c} ms (at most 3x committed {base} at {bc} ms)")))
}

/// Sparse page table (serving layout): an untouched granule costs at most
/// 1 heap byte per node (slots come a 1 024-granule chunk at a time, when a
/// granule in it materialises), and building the engines stays within 3×
/// of the committed ns per granule.
fn page_table(fresh: &JsonValue, committed: &JsonValue, n: u32) -> Reading {
    let bytes = derived(fresh, &format!("engine_bytes_per_untouched_granule_n{n}"))?;
    let key = format!("engine_new_ns_per_granule_n{n}");
    let (ok, time) = scaled(fresh, committed, derived(fresh, &key)?, derived(committed, &key)?)?;
    let ok = ok && bytes > 0.0 && bytes <= 1.0;
    Ok((ok, format!("{bytes} B/untouched granule (at most 1), {time} per granule")))
}

/// Interval log: a log filled by applying one 10 000-record batch of
/// one-notice records holds each record in its creator, clock and notice
/// words plus an end offset, at most 4·(n + 4) heap bytes, and allocates
/// nothing per record: at most 0.01 allocations each (the JSON keeps three
/// decimals, so a few growths read as 0.000).
fn interval_log(fresh: &JsonValue, n: u32) -> Reading {
    let bytes = derived(fresh, &format!("engine_bytes_per_logged_record_n{n}"))?;
    let allocs = derived(fresh, &format!("engine_allocs_per_logged_record_n{n}"))?;
    let limit = 4.0 * f64::from(n + 4);
    let ok = bytes > 0.0 && bytes <= limit && (0.0..=0.01).contains(&allocs);
    Ok((ok, format!("{bytes} B (at most {limit}) and {allocs} allocations per record")))
}

/// Diff store, beside the interval log: a store filled by keeping one
/// 10 000-record batch of fetched diffs (the update strategy) holds each
/// record in its 6 header words, n clock words and its runs, at most its
/// run bytes plus 4·(n + 6) and a tenth of a byte for what the batch
/// allocates once, and allocates nothing per record: at most 0.01
/// allocations each.
fn diff_store(fresh: &JsonValue, n: u32) -> Reading {
    let bytes = derived(fresh, &format!("engine_bytes_per_stored_diff_n{n}"))?;
    let runs = derived(fresh, &format!("engine_run_bytes_per_stored_diff_n{n}"))?;
    let allocs = derived(fresh, &format!("engine_allocs_per_stored_diff_n{n}"))?;
    let limit = runs + 4.0 * f64::from(n + 6) + 0.1;
    let ok = bytes > 0.0 && runs > 0.0 && bytes <= limit && (0.0..=0.01).contains(&allocs);
    Ok((ok, format!("{bytes} B (at most {limit:.3}) and {allocs} allocations per stored diff")))
}

/// Flat diff (4 KiB page, one byte in 8 changed, which leaves every second
/// word clean: 512 runs that must not merge): a diff is one buffer whatever
/// its run count, at most 2 allocations and 12 heap bytes per run (8 of
/// header, 1 of data here), and creating it stays within 3× of the
/// committed time.
fn flat_diff(fresh: &JsonValue, committed: &JsonValue) -> Reading {
    let allocs = derived(fresh, "diff_allocs_dense_1_in_8")?;
    let per_run = derived(fresh, "diff_heap_bytes_per_run_dense_1_in_8")?;
    let (group, id) = ("diff_create", "word_dense_1_in_8");
    let ns = median_ns(fresh, group, id)?;
    let (ok, time) = scaled(fresh, committed, ns, median_ns(committed, group, id)?)?;
    let ok = ok && allocs > 0.0 && allocs <= 2.0 && per_run > 0.0 && per_run <= 12.0;
    Ok((ok, format!("{allocs} allocation(s) (at most 2), {per_run} B/run (at most 12), {time}")))
}

/// A timed row of [`ROWS`], within 3× of its committed time.
fn row(fresh: &JsonValue, committed: &JsonValue, group: &str, id: &str) -> Reading {
    let ns = median_ns(fresh, group, id)?;
    let (ok, time) = scaled(fresh, committed, ns, median_ns(committed, group, id)?)?;
    Ok((ok && ns > 0.0, time))
}

/// Typed diff (8 KiB page of u32s below 2^18, every element replaced):
/// runs are stretches of dirty 4-byte words, so the agreeing top bytes do
/// not split it: exactly one run and 8 203 wire bytes (a byte-granular
/// scanner made 2 055 runs and 22 067 bytes of the same page).
fn typed_diff(fresh: &JsonValue) -> Reading {
    let wire = derived(fresh, "diff_wire_len_typed_u32_8k")?;
    let runs = derived(fresh, "diff_runs_typed_u32_8k")?;
    Ok((wire == 8203.0 && runs == 1.0, format!("{wire} B in {runs} run(s) (8203 in 1)")))
}

/// Hand-off (raw 2-node ping-pong, two hand-offs per round trip): a
/// simulated context switch is two coroutine switches through the runner,
/// all on one thread, so the number does not depend on core placement and
/// needs no pinning. It stays within 3× of the committed value; an
/// OS-thread hand-off cost 5–6× as much.
fn handoff(fresh: &JsonValue, committed: &JsonValue) -> Reading {
    let key = "serial_ns_per_handoff";
    let ns = derived(fresh, key)?;
    let (ok, time) = scaled(fresh, committed, ns, derived(committed, key)?)?;
    Ok((ok && ns > 0.0, time))
}

/// Every hot-path bound of `fresh` against `committed`. Prints each
/// reading that holds and returns the rest, each naming its gate and what
/// it read or could not find.
fn gate(fresh: &JsonValue, committed: &JsonValue) -> Vec<String> {
    let mut readings = Vec::new();
    for n in [8, 32] {
        readings.push((format!("page table n={n}"), page_table(fresh, committed, n)));
        readings.push((format!("interval log n={n}"), interval_log(fresh, n)));
        readings.push((format!("diff store n={n}"), diff_store(fresh, n)));
    }
    readings.push(("flat diff dense_1_in_8".to_owned(), flat_diff(fresh, committed)));
    for (group, id) in ROWS {
        readings.push((format!("{group}/{id}"), row(fresh, committed, group, id)));
    }
    readings.push(("typed diff u32_8k".to_owned(), typed_diff(fresh)));
    readings.push(("serial hand-off".to_owned(), handoff(fresh, committed)));
    let mut failures = Vec::new();
    for (name, reading) in readings {
        match reading {
            Ok((true, read)) => println!("{name}: {read}"),
            Ok((false, read)) => failures.push(format!("{name}: {read}")),
            Err(missing) => failures.push(format!("{name}: {missing}")),
        }
    }
    failures
}

/// Run with `CARLOS_BENCH_QUICK=1
/// CARLOS_BENCH_OUT=$PWD/target/BENCH_hotpath.json cargo bench -p
/// carlos-bench --bench wallclock` first.
#[test]
#[ignore = "reads a fresh quick bench run; ci.sh runs both, in release"]
fn a_fresh_bench_run_passes_the_hotpath_gates() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/BENCH_hotpath.json");
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let fresh = json::parse(&text).unwrap_or_else(|e| panic!("{path}: {e}"));
    let failures = gate(&fresh, &committed());
    assert!(failures.is_empty(), "hot-path gates failed:\n{}", failures.join("\n"));
}

fn committed() -> JsonValue {
    json::parse(COMMITTED).expect("the committed BENCH_hotpath.json parses")
}

/// `doc` with `key` (a derived key, or `group/id` for a bench row's
/// median) set to `value`, or the key or row removed for `None`.
fn plant(mut doc: JsonValue, key: &str, value: Option<f64>) -> JsonValue {
    let JsonValue::Object(top) = &mut doc else { panic!("not an object") };
    if let Some((group, id)) = key.split_once('/') {
        let Some(JsonValue::Array(rows)) = top.get_mut("benches") else { panic!("no benches") };
        let at = rows.iter().position(|row| is_row(row, group, id)).expect("bench row");
        let JsonValue::Object(row) = &mut rows[at] else { panic!("bench row not an object") };
        match value {
            Some(v) => drop(row.insert("median_ns".into(), JsonValue::Number(v))),
            None => drop(rows.remove(at)),
        }
    } else {
        let Some(JsonValue::Object(derived)) = top.get_mut("derived") else { panic!("no derived") };
        match value {
            Some(v) => derived.insert(key.to_owned(), JsonValue::Number(v)),
            None => derived.remove(key),
        }
        .expect("derived key");
    }
    doc
}

/// The gate's failures for the committed run with one value planted.
fn failures_with(key: &str, value: Option<f64>) -> Vec<String> {
    gate(&plant(committed(), key, value), &committed())
}

#[test]
fn the_committed_run_passes_its_own_gate() {
    assert_eq!(gate(&committed(), &committed()), Vec::<String>::new());
}

/// Each footprint bound passes at its limit and fails just past it.
#[test]
fn each_footprint_bound_holds_at_its_limit_and_fails_past_it() {
    let mut bounds = vec![
        ("diff_allocs_dense_1_in_8".to_owned(), vec![2.0], vec![2.001, 0.0]),
        ("diff_heap_bytes_per_run_dense_1_in_8".to_owned(), vec![12.0], vec![12.001, 0.0]),
        ("diff_wire_len_typed_u32_8k".to_owned(), vec![8203.0], vec![8204.0, 8202.0]),
        ("diff_runs_typed_u32_8k".to_owned(), vec![1.0], vec![2.0, 0.0]),
    ];
    for n in [8, 32] {
        let runs =
            derived(&committed(), &format!("engine_run_bytes_per_stored_diff_n{n}")).unwrap();
        // 48 B at n = 8 passes and 48.1 B fails.
        let logged = 4.0 * f64::from(n + 4);
        let stored = runs + 4.0 * f64::from(n + 6) + 0.1;
        for (key, pass, fail) in [
            ("engine_bytes_per_untouched_granule_n", vec![1.0], vec![1.001, 0.0]),
            ("engine_bytes_per_logged_record_n", vec![logged], vec![logged + 0.1, 0.0]),
            ("engine_allocs_per_logged_record_n", vec![0.0, 0.01], vec![0.011, -0.001]),
            ("engine_bytes_per_stored_diff_n", vec![stored], vec![stored + 0.001, 0.0]),
            ("engine_run_bytes_per_stored_diff_n", vec![], vec![0.0]),
            ("engine_allocs_per_stored_diff_n", vec![0.0, 0.01], vec![0.011, -0.001]),
        ] {
            bounds.push((format!("{key}{n}"), pass, fail));
        }
    }
    for (key, pass, fail) in bounds {
        for v in pass {
            assert_eq!(failures_with(&key, Some(v)), Vec::<String>::new(), "{key} = {v}");
        }
        for v in fail {
            let failures = failures_with(&key, Some(v));
            assert_eq!(failures.len(), 1, "{key} = {v}: {failures:?}");
        }
    }
}

/// Each timed value passes at 3× its committed value per `calib_ms` and
/// fails just past it, on a fresh run as fast as the committed one and on
/// one half as fast.
#[test]
fn each_timed_value_holds_at_three_times_and_fails_past_it() {
    let mut timed: Vec<String> = ROWS.iter().map(|(group, id)| format!("{group}/{id}")).collect();
    timed.extend(
        [
            "diff_create/word_dense_1_in_8",
            "serial_ns_per_handoff",
            "engine_new_ns_per_granule_n8",
            "engine_new_ns_per_granule_n32",
        ]
        .map(str::to_owned),
    );
    let base = committed();
    let calib = derived(&base, "calib_ms").unwrap();
    for slowdown in [1.0, 2.0] {
        let host = plant(committed(), "calib_ms", Some(calib * slowdown));
        for key in &timed {
            let value = match key.split_once('/') {
                Some((group, id)) => median_ns(&base, group, id),
                None => derived(&base, key),
            }
            .unwrap();
            let limit = 3.0 * value * slowdown;
            let at = plant(host.clone(), key, Some(limit));
            assert_eq!(gate(&at, &base), Vec::<String>::new(), "{key} at 3x, slowdown {slowdown}");
            let past = plant(host.clone(), key, Some(limit * (1.0 + 1e-9)));
            let failures = gate(&past, &base);
            assert_eq!(failures.len(), 1, "{key} past 3x, slowdown {slowdown}: {failures:?}");
        }
    }
    // A row timed at nothing is a broken row, not a fast one.
    assert_eq!(failures_with("codec/decode", Some(0.0)).len(), 1);
    assert_eq!(failures_with("serial_ns_per_handoff", Some(0.0)).len(), 1);
    assert_eq!(failures_with("engine_new_ns_per_granule_n8", Some(0.0)).len(), 1);
}

/// A key or row missing from either run fails and names itself.
#[test]
fn a_missing_key_or_row_fails_and_names_itself() {
    let mut keys: Vec<String> = ROWS.iter().map(|(group, id)| format!("{group}/{id}")).collect();
    keys.push("diff_create/word_dense_1_in_8".to_owned());
    for key in committed().get("derived").and_then(JsonValue::as_object).unwrap().keys() {
        keys.push(key.clone());
    }
    let named = |failures: &[String], key: &str| {
        !failures.is_empty() && failures.iter().all(|f| f.contains(key))
    };
    // Derived keys the gate does not read.
    let ungated = ["serial_ns_per_event", "diff_runs_typed_u32_partitioned_8k", "host_cores"];
    for key in &keys {
        let fresh = gate(&plant(committed(), key, None), &committed());
        if ungated.contains(&key.as_str()) {
            assert_eq!(fresh, Vec::<String>::new(), "{key}");
            continue;
        }
        assert!(named(&fresh, key), "fresh run without {key}: {fresh:?}");
    }
    for key in
        ["calib_ms", "serial_ns_per_handoff", "engine_new_ns_per_granule_n32", "codec/decode"]
    {
        let failures = gate(&committed(), &plant(committed(), key, None));
        assert!(named(&failures, key), "committed run without {key}: {failures:?}");
    }
}
