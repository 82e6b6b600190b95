//! The repository's source-level rules, checked on every test run.
//!
//! - **Structural rules**: names and constructs that may not come back
//!   into the directories each rule lists. Each rule scans every line of
//!   every file there, comments included. A listed directory that is
//!   missing, or holds no `.rs` file, fails its rule rather than passing
//!   it, so renaming a crate cannot switch a rule off.
//! - **Packages**: every package under `crates/` is named `carlos-*`.
//! - **Line ledger**: `BENCH_lines.json` holds the non-test source lines
//!   of each `crates/*/src` directory and of `src`, so every change
//!   commits its line delta.

use std::fs;
use std::path::{Path, PathBuf};

/// A structural rule: no line of a file under `dirs` that `keep` admits
/// may match `hit`. A `*` in a directory stands for every directory in
/// its parent. `caught` and `passed` are lines the rule must catch and must
/// let through.
struct Rule {
    dirs: &'static [&'static str],
    keep: fn(&str) -> bool,
    hit: fn(&str) -> bool,
    reason: &'static str,
    caught: &'static [&'static str],
    passed: &'static [&'static str],
}

/// Every crate's source directory and the facade's.
const ALL_SRC: &[&str] = &["crates/*/src", "src"];

const RULES: &[Rule] = &[
    // The simulator is single-threaded.
    Rule {
        dirs: &["crates/sim/src"],
        keep: every_file,
        hit: |l| contains_any(l, &["thread::spawn", "thread::Builder", "thread::JoinHandle"]),
        reason: "crates/sim/src must not spawn threads",
        caught: &["std::thread::spawn(f)", "thread::Builder::new()", "h: thread::JoinHandle<()>"],
        passed: &["thread_local! {"],
    },
    // Each simulated node runs exactly one proc: its scheduling state lives
    // in the node's own state, so no second proc per node, proc table or
    // proc id comes back.
    Rule {
        dirs: &["crates/sim/src"],
        keep: every_file,
        hit: |l| contains_any(l, &["fn spawn_thread", "ProcState", "ProcId"]),
        reason: "one proc per node: no spawn_thread, ProcState or ProcId in crates/sim/src",
        caught: &["pub fn spawn_thread(", "procs: Vec<ProcState>", "id: ProcId,"],
        passed: &["pub fn spawn_node("],
    },
    // A run's procs, kernel and observers share one thread: state they
    // share is Rc / RefCell / Cell, and a lazily initialised global
    // (OnceLock, LazyLock) is process state shared by every run.
    // (std::sync::Once for the panic hook stays allowed.) Serving runs in
    // the apps crate, so its code is covered.
    Rule {
        dirs: &[
            "crates/util/src",
            "crates/sim/src",
            "crates/lrc/src",
            "crates/core/src",
            "crates/sync/src",
            "crates/check/src",
            "crates/trace/src",
            "crates/apps/src",
        ],
        keep: every_file,
        hit: |l| {
            let banned = ["Mutex", "RwLock", "Condvar", "OnceLock", "LazyLock", "Atomic"];
            contains_any(l, &banned) || contains_any(l, &["parking_lot", "Arc<", "Arc::"])
        },
        reason: "no locks, atomics, lazy globals or Arc in the crates a run executes",
        caught: &[
            "use std::sync::Mutex;",
            "RwLock<u8>",
            "Condvar::new()",
            "static X: OnceLock<u8>",
            "LazyLock::new(f)",
            "AtomicU64",
            "parking_lot::Mutex",
            "Arc<Node>",
            "Arc::new(x)",
        ],
        passed: &["static HOOK: std::sync::Once = std::sync::Once::new();", "Rc<RefCell<Kernel>>"],
    },
    // A run is configured by its Spec and configs alone: no environment
    // variable changes what the crates a run executes do. (The report's and
    // the bench's CARLOS_REPORT_* / CARLOS_BENCH_* switches live in
    // crates/bench.)
    Rule {
        dirs: &[
            "crates/util/src",
            "crates/sim/src",
            "crates/lrc/src",
            "crates/core/src",
            "crates/sync/src",
            "crates/check/src",
            "crates/trace/src",
            "crates/apps/src",
            "crates/explore/src",
        ],
        keep: every_file,
        hit: |l| l.contains("env::var"),
        reason: "no environment variables in the crates a run executes; add a config field",
        caught: &["std::env::var(\"LOCK_TRACE\")", "env::var_os(k)"],
        passed: &["std::env::args()"],
    },
    // One way to run serving: it is an application like the others,
    // described by a Spec, started by launch and judged by Run::verdict, so
    // only the apps crate calls its configuration-level entry point.
    // (benchmark/, a workspace of its own, is not searched.) This file is
    // searched too, so it spells the name in two pieces.
    Rule {
        dirs: &["crates", "src", "tests", "examples"],
        keep: |path| path.ends_with(".rs") && !path.starts_with("crates/apps/src/"),
        hit: |l| word(l, concat!("try_run", "_serve")),
        reason: concat!(
            "run serving as launch(&Spec::new(App::Serve(traffic), n, scale)), not try_run",
            "_serve"
        ),
        caught: &[concat!("let r = serve::try_run", "_serve(&cfg);")],
        passed: &[concat!("fn try_run", "_served()"), concat!("my_try_run", "_serve()")],
    },
    // One event stream: every layer emits `carlos_util::event::Event`s into
    // one `Sink`, so no per-layer observer trait or single-slot setter
    // comes back.
    Rule {
        dirs: ALL_SRC,
        keep: every_file,
        hit: observer_trait,
        reason: "observe through carlos_util::event::Sink, not a new *Observer / *Probe trait",
        caught: &["pub trait NetObserver {", "trait  Probe: Sized {"],
        passed: &["trait ObserverSet {", "subtrait FooProbe", "trait Sink {"],
    },
    Rule {
        dirs: ALL_SRC,
        keep: every_file,
        hit: |l| {
            let slot = |at: usize| {
                let rest = &l[at + "fn set_".len()..];
                let run = rest.find(|c: char| !c.is_ascii_lowercase() && c != '_');
                let (run, after) = rest.split_at(run.unwrap_or(rest.len()));
                run.ends_with("observer") && !after.starts_with(is_word)
            };
            l.match_indices("fn set_").any(|(at, _)| slot(at)) || ends_word(l, "fn set_probe")
        },
        reason: "attach sinks with Cluster::observe, not a set_*observer / set_probe slot",
        caught: &["pub fn set_observer(&mut self)", "fn set_net_observer(", "fn set_probe(p)"],
        passed: &["fn set_observers(", "fn set_observer2(", "fn set_prober("],
    },
    // One ack mode per run: how transports acknowledge frames is a property
    // of the network, set once in carlos_sim's SimConfig, so no second
    // runtime constructor or other crate's config carries it.
    Rule {
        dirs: ALL_SRC,
        keep: every_file,
        hit: |l| ends_word(l, "fn with_ack_mode"),
        reason: "build a Runtime with Runtime::new; the ack mode comes from SimConfig::ack",
        caught: &["pub fn with_ack_mode(self, a: AckMode)"],
        passed: &["pub fn with_ack_modes(self)"],
    },
    Rule {
        dirs: ALL_SRC,
        keep: |path| !path.starts_with("crates/sim/src/"),
        hit: ack_field,
        reason: "set the ack mode on SimConfig::ack, not in a config of its own",
        caught: &["    ack: AckMode,", "pub ack : AckMode,", "\tpub(crate)  ack: AckMode,"],
        passed: &[
            "    acks: u64,",
            "    nack: bool,",
            "    puback: bool,",
            "    let ack = f.ack();",
        ],
    },
    // One store-and-forward manager: queues, stacks and semaphores (a FIFO
    // queue of empty items) share the queue manager's one pool per queue,
    // and a handler relays a message through one forward per disposition,
    // so no second manager store or second forward path comes back.
    Rule {
        dirs: ALL_SRC,
        keep: every_file,
        hit: |l| {
            let banned = ["SemSpec", "SemState", "H_SEM_", "local_items"];
            contains_any(l, &banned) || contains_any(l, &["fn forward_as", "fn forward_stored_as"])
        },
        reason: "one store-and-forward manager: a semaphore is a queue of empty items, \
                 and Env::forward / forward_stored take the target handler",
        caught: &[
            "pub struct SemSpec",
            "sems: Vec<SemState>",
            "const H_SEM_WAIT: u16 = 9;",
            "local_items: Vec<u8>",
            "fn forward_as(",
            "fn forward_stored_as(",
        ],
        passed: &["fn forward_stored(&mut self, to: u16, h: u16)"],
    },
    // One path to user level: a handler's Env::accept is the acquire alone,
    // and only the default disposition (no handler registered) delivers to
    // user level, so no second acquire-only disposition forks off beside
    // accept.
    Rule {
        dirs: ALL_SRC,
        keep: every_file,
        hit: |l| word(l, "fn absorb"),
        reason: "Env::accept is the acquire alone; no absorb beside it",
        caught: &["pub fn absorb(&mut self) -> bool {"],
        passed: &["fn absorber()", "fn absorb_all()"],
    },
    // One ship rule: which diffs an owner keeps and which a RELEASE carries
    // is decided in carlos-lrc (LrcEngine::release_diffs), so the messaging
    // layer neither looks up a stored diff nor asks which granules are
    // eager.
    Rule {
        dirs: &["crates/core/src"],
        keep: every_file,
        hit: |l| word(l, "stored_diff") || word(l, "eager_granule"),
        reason: "the ship rule belongs to carlos-lrc: call LrcEngine::release_diffs",
        caught: &["engine.stored_diff(p, id)", "if lrc.eager_granule(g) {"],
        passed: &["stored_diffs: 0,", "eager_granules()"],
    },
];

fn every_file(_: &str) -> bool {
    true
}

/// A character `\w` matches.
fn is_word(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

fn contains_any(line: &str, needles: &[&str]) -> bool {
    needles.iter().any(|n| line.contains(n))
}

/// `needle` occurs in `line` with no word character after it:
/// `needle\b` for a needle that ends in a word character.
fn ends_word(line: &str, needle: &str) -> bool {
    line.match_indices(needle).any(|(at, _)| !line[at + needle.len()..].starts_with(is_word))
}

/// `needle` occurs in `line` as whole words: `\bneedle\b` for a needle
/// that starts and ends in a word character.
fn word(line: &str, needle: &str) -> bool {
    line.match_indices(needle).any(|(at, _)| {
        !line[..at].ends_with(is_word) && !line[at + needle.len()..].starts_with(is_word)
    })
}

/// `\btrait\s+\w*(Observer|Probe)\b`: a trait whose name ends in
/// `Observer` or `Probe`.
fn observer_trait(line: &str) -> bool {
    line.match_indices("trait").any(|(at, _)| {
        let rest = &line[at + "trait".len()..];
        let name = rest.trim_start();
        let spaced = name.len() < rest.len();
        let name = &name[..name.find(|c| !is_word(c)).unwrap_or(name.len())];
        !line[..at].ends_with(is_word)
            && spaced
            && (name.ends_with("Observer") || name.ends_with("Probe"))
    })
}

/// `^\s*(pub(\([a-z]+\))?\s+)?ack\s*:`: a field named `ack`.
fn ack_field(line: &str) -> bool {
    let mut rest = line.trim_start();
    if let Some(after) = rest.strip_prefix("pub") {
        let scoped = after.strip_prefix('(').and_then(|s| {
            let close = s.find(')')?;
            let scope = &s[..close];
            (!scope.is_empty() && scope.chars().all(|c| c.is_ascii_lowercase()))
                .then(|| &s[close + 1..])
        });
        let after = scoped.unwrap_or(after);
        if after.trim_start().len() == after.len() {
            return false;
        }
        rest = after.trim_start();
    }
    rest.strip_prefix("ack").is_some_and(|s| s.trim_start().starts_with(':'))
}

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// The paths `pattern` names under `root`, a `*` expanded to every
/// directory in its parent, in name order.
fn expand(root: &Path, pattern: &str) -> Vec<String> {
    let Some((parent, child)) = pattern.split_once("/*/") else {
        return vec![pattern.to_owned()];
    };
    let mut names: Vec<String> = fs::read_dir(root.join(parent))
        .into_iter()
        .flatten()
        .filter_map(|e| e.ok().filter(|e| e.path().is_dir())?.file_name().into_string().ok())
        .collect();
    names.sort();
    names.into_iter().map(|name| format!("{parent}/{name}/{child}")).collect()
}

/// Every file under `dir` (relative to `root`), recursively, as paths
/// relative to `root`, in name order.
fn files(root: &Path, dir: &str) -> Vec<String> {
    let mut entries: Vec<PathBuf> = fs::read_dir(root.join(dir))
        .into_iter()
        .flatten()
        .filter_map(|e| Some(e.ok()?.path()))
        .collect();
    entries.sort();
    let mut out = Vec::new();
    for path in entries {
        let name = path.file_name().and_then(|n| n.to_str()).expect("UTF-8 file name");
        let rel = format!("{dir}/{name}");
        if path.is_dir() {
            out.extend(files(root, &rel));
        } else {
            out.push(rel);
        }
    }
    out
}

/// Each line under `rule`'s directories that breaks it, as
/// `path:line: text`, and each listed directory that is missing or holds
/// no `.rs` file.
fn breaches(root: &Path, rule: &Rule) -> Vec<String> {
    let mut out = Vec::new();
    for pattern in rule.dirs {
        let dirs = expand(root, pattern);
        if dirs.is_empty() {
            out.push(format!("{pattern}: matches no directory"));
        }
        for dir in dirs {
            let files = files(root, &dir);
            if !files.iter().any(|f| f.ends_with(".rs")) {
                out.push(format!("{dir}: missing, or holds no .rs file"));
            }
            for path in files.into_iter().filter(|p| (rule.keep)(p)) {
                let bytes = fs::read(root.join(&path)).expect("readable file");
                let text = String::from_utf8_lossy(&bytes);
                for (i, line) in text.lines().enumerate() {
                    if (rule.hit)(line) {
                        out.push(format!("{path}:{}: {line}", i + 1));
                    }
                }
            }
        }
    }
    out
}

#[test]
fn no_source_line_breaks_a_structural_rule() {
    let mut failures = Vec::new();
    for rule in RULES {
        let found = breaches(root(), rule);
        if !found.is_empty() {
            failures.push(format!("{}\n  {}", found.join("\n"), rule.reason));
        }
    }
    assert!(failures.is_empty(), "structural rules broken:\n{}", failures.join("\n"));
}

#[test]
fn every_rule_catches_its_planted_lines_and_passes_its_near_misses() {
    for rule in RULES {
        for line in rule.caught {
            assert!((rule.hit)(line), "{:?} missed {line:?}", rule.reason);
        }
        for line in rule.passed {
            assert!(!(rule.hit)(line), "{:?} caught {line:?}", rule.reason);
        }
    }
}

/// A planted line is reported by path, line number and text, and a
/// directory that is missing or holds no `.rs` file fails its rule.
#[test]
fn a_breach_names_its_line_and_a_missing_directory_fails() {
    let tree = Path::new(env!("CARGO_TARGET_TMPDIR")).join("gates");
    let _ = fs::remove_dir_all(&tree);
    for dir in ["crates/core/src/nested", "crates/sim/src", "src"] {
        fs::create_dir_all(tree.join(dir)).expect("scratch directory");
    }
    fs::write(tree.join("crates/core/src/nested/lib.rs"), "fn f() {\n    stored_diff(p);\n}\n")
        .expect("planted file");
    fs::write(tree.join("crates/sim/src/notes.md"), "not Rust\n").expect("planted file");
    // The ship rule, over other directories.
    let rule = |dirs: &'static [&'static str]| Rule { dirs, ..RULES[RULES.len() - 1] };
    let hit = "crates/core/src/nested/lib.rs:2:     stored_diff(p);";
    assert_eq!(breaches(&tree, &rule(&["crates/core/src"])), [hit]);
    assert_eq!(
        breaches(&tree, &rule(&["crates/sim/src", "src", "crates/renamed/src"])),
        [
            "crates/sim/src: missing, or holds no .rs file",
            "src: missing, or holds no .rs file",
            "crates/renamed/src: missing, or holds no .rs file",
        ]
    );
    assert_eq!(breaches(&tree, &rule(&["lib/*/src"])), ["lib/*/src: matches no directory"]);
    assert_eq!(
        breaches(&tree, &rule(&["crates/*/src"])),
        [hit, "crates/sim/src: missing, or holds no .rs file"]
    );
}

/// The package name a manifest declares: its first `name = "…"` line.
fn package_name(manifest: &str) -> Option<&str> {
    manifest.lines().find(|l| l.starts_with("name = "))?.split('"').nth(1)
}

/// No stand-in crates: every workspace package is one of ours. Each of the
/// four offline shims this workspace once carried took the name of the
/// registry crate it imitated.
#[test]
fn every_crate_package_is_named_carlos() {
    let manifests: Vec<String> = expand(root(), "crates/*/Cargo.toml");
    assert!(!manifests.is_empty(), "no crates/*/Cargo.toml");
    for manifest in manifests {
        let text = fs::read_to_string(root().join(&manifest)).expect("readable manifest");
        let name = package_name(&text).unwrap_or_default();
        assert!(
            name.starts_with("carlos-"),
            "{manifest}: package {name:?} is not carlos-*; no stand-in crates"
        );
    }
    assert_eq!(package_name("[package]\nname = \"carlos-sim\"\n"), Some("carlos-sim"));
    assert_eq!(package_name("[package]\nname = \"serde\"\nname = \"carlos-x\"\n"), Some("serde"));
    assert_eq!(package_name("[package]\nversion = \"0.1.0\"\n"), None);
}

/// A file's non-test lines: every line before the first that begins
/// `#[cfg(test)]`.
fn counted_lines(text: &str) -> usize {
    text.lines().take_while(|l| !l.starts_with("#[cfg(test)]")).count()
}

/// The ledger `BENCH_lines.json` holds, byte for byte: each source
/// directory's non-test lines and their total.
fn line_ledger(root: &Path) -> String {
    let mut ledger = String::from("{\n");
    let mut total = 0;
    for dir in ALL_SRC.iter().flat_map(|pattern| expand(root, pattern)) {
        let n: usize = files(root, &dir)
            .iter()
            .filter(|f| f.ends_with(".rs"))
            .map(|f| fs::read(root.join(f)).expect("readable source file"))
            .map(|bytes| counted_lines(&String::from_utf8_lossy(&bytes)))
            .sum();
        total += n;
        ledger.push_str(&format!("  \"{dir}\": {n},\n"));
    }
    ledger + &format!("  \"total\": {total}\n}}\n")
}

#[test]
fn only_an_unindented_cfg_test_line_ends_the_count() {
    let text = [
        "use a;",
        "#[cfg(any(test, feature = \"seeded-bugs\"))]",
        "fn f() {",
        "    #[cfg(test)]",
        "    fn g() {}",
        "}",
        "#[cfg(test)]",
        "mod tests {}",
    ]
    .join("\n");
    assert_eq!(counted_lines(&text), 6);
    assert_eq!(counted_lines("a\nb"), 2);
    assert_eq!(counted_lines(""), 0);
}

/// Non-test source lines must equal the committed `BENCH_lines.json`, so
/// every change records its line delta there.
#[test]
fn bench_lines_json_counts_the_tree() {
    let fresh = line_ledger(root());
    let committed = fs::read_to_string(root().join("BENCH_lines.json")).expect("BENCH_lines.json");
    if fresh != committed {
        let out = root().join("target/BENCH_lines.json");
        fs::create_dir_all(out.parent().unwrap()).expect("target directory");
        fs::write(&out, &fresh).expect("target/BENCH_lines.json written");
        panic!(
            "non-test source lines differ from BENCH_lines.json:\n{fresh}\
             cp target/BENCH_lines.json BENCH_lines.json and commit it"
        );
    }
}
