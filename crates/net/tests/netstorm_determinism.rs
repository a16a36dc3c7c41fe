//! End-to-end determinism gate for `netstorm`: a same-seed campaign
//! must produce a byte-identical journal, a byte-identical
//! deterministic metrics section, and byte-identical stdout rows at any
//! worker count. This is the same contract `experiments` honours (see
//! `crates/bench/tests/par_determinism.rs`), extended to the network
//! simulator: event timing, fault dice, retransmissions, and verdicts
//! may not depend on scheduling.

use locert_trace::export::MetricsDoc;
use std::path::{Path, PathBuf};
use std::process::Command;

struct RunArtifacts {
    journal: String,
    metrics: String,
    stdout: String,
}

fn run_netstorm(threads: usize, dir: &Path) -> RunArtifacts {
    let out = dir.join(format!("t{threads}"));
    let output = Command::new(env!("CARGO_BIN_EXE_netstorm"))
        .args(["--quick", "--seed", "7", "--out"])
        .arg(&out)
        .env("LOCERT_THREADS", threads.to_string())
        .output()
        .expect("spawn netstorm binary");
    assert!(
        output.status.success(),
        "netstorm failed at {threads} threads: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let read = |p: &PathBuf| std::fs::read_to_string(p).unwrap_or_else(|e| panic!("{p:?}: {e}"));
    // Drop the one line naming the (per-thread-count) output directory;
    // every other stdout line is campaign data and must be identical.
    let stdout = String::from_utf8(output.stdout)
        .expect("utf-8 stdout")
        .lines()
        .filter(|l| !l.starts_with("artifacts written to"))
        .fold(String::new(), |mut acc, l| {
            acc.push_str(l);
            acc.push('\n');
            acc
        });
    RunArtifacts {
        journal: read(&out.join("net-journal.jsonl")),
        metrics: read(&out.join("net-metrics.json")),
        stdout,
    }
}

/// The deterministic projection (`quick`, `experiments` and the
/// `journal` ring section) — the one `trace-check --compare` diffs.
fn deterministic_section(metrics: &str) -> String {
    let projection = MetricsDoc::parse(metrics)
        .and_then(|doc| doc.deterministic())
        .expect("a locert-trace/v2 dump with a deterministic projection");
    assert!(
        projection.contains("\"journal\":{\"capacity\""),
        "netstorm's projection covers its journal section"
    );
    projection
}

#[test]
fn same_seed_campaigns_are_byte_identical_at_one_and_four_threads() {
    let dir = std::env::temp_dir().join(format!("locert_netstorm_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");

    let one = run_netstorm(1, &dir);
    let four = run_netstorm(4, &dir);

    assert!(!one.journal.is_empty(), "journal is empty");
    assert_eq!(
        one.journal, four.journal,
        "netstorm journal diverged between 1 and 4 threads"
    );
    assert_eq!(
        deterministic_section(&one.metrics),
        deterministic_section(&four.metrics),
        "deterministic metrics section diverged between 1 and 4 threads"
    );
    assert_eq!(
        one.stdout, four.stdout,
        "campaign rows diverged between 1 and 4 threads"
    );
    // The journal carries the new network event types end to end.
    for kind in ["net-send", "net-verdict"] {
        assert!(
            one.journal.contains(kind),
            "journal is missing {kind} events"
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}

/// `--threads 0` and `LOCERT_THREADS=0` are usage errors: exit 2, with
/// the source named on stderr (the workspace rule of `locert_par::cli`).
#[test]
fn zero_threads_is_a_usage_error() {
    let exe = env!("CARGO_BIN_EXE_netstorm");
    let flag = Command::new(exe)
        .args(["--threads", "0"])
        .env_remove("LOCERT_THREADS")
        .output()
        .expect("spawn netstorm");
    let env = Command::new(exe)
        .env("LOCERT_THREADS", "0")
        .output()
        .expect("spawn netstorm");
    for (out, source) in [(flag, "--threads 0"), (env, "LOCERT_THREADS=0")] {
        assert_eq!(out.status.code(), Some(2), "{source} must exit 2");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains(source),
            "stderr names {source}"
        );
    }
}
