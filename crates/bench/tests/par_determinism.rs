//! End-to-end determinism gate for the `locert-par` runtime: the
//! `experiments` binary must produce byte-identical deterministic
//! artifacts (verification journal, deterministic metrics section,
//! report tables) no matter how many workers the pool runs.
//!
//! This is the contract that makes parallel verification trustworthy:
//! scheduling may vary, results may not. The quick E3/S1/S2/A1/E5/E6
//! grid covers the parallelised paths — per-vertex verdicts
//! (`run_verification`), exhaustive certificate enumeration
//! (`exhaustive_soundness`), fault-campaign rounds (`run_campaign`), and
//! the run-scoped memos every pool worker of a run shares: the universal
//! scheme's maps (A1) and the kernel schemes' type tables (E5, E6).

use std::path::{Path, PathBuf};
use std::process::Command;

use locert_trace::export::MetricsDoc;

/// Artifacts of one subprocess run of the experiments binary.
struct RunArtifacts {
    journal: String,
    metrics: String,
    report: String,
}

fn run_experiments(threads: usize, dir: &Path) -> RunArtifacts {
    let journal = dir.join(format!("journal_{threads}.jsonl"));
    let metrics = dir.join(format!("metrics_{threads}.json"));
    let report = dir.join(format!("report_{threads}.md"));
    let status = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["e3", "s1", "s2", "a1", "e5", "e6", "--quick", "--metrics"])
        .arg(&metrics)
        .arg("--journal")
        .arg(&journal)
        .arg("--out")
        .arg(&report)
        .env("LOCERT_THREADS", threads.to_string())
        .status()
        .expect("spawn experiments binary");
    assert!(status.success(), "experiments failed at {threads} threads");
    let read = |p: &PathBuf| std::fs::read_to_string(p).unwrap_or_else(|e| panic!("{p:?}: {e}"));
    RunArtifacts {
        journal: read(&journal),
        metrics: read(&metrics),
        report: read(&report),
    }
}

/// The deterministic projection of a `locert-trace/v2` dump — the one
/// `trace-check --compare` diffs.
fn deterministic_section(metrics: &str) -> String {
    MetricsDoc::parse(metrics)
        .and_then(|doc| doc.deterministic())
        .expect("a locert-trace/v2 dump with a deterministic projection")
}

/// Strips the run-varying parts of the report: the line naming the
/// per-run metrics path, and every wall-time table column (headers with
/// a time unit — `wall time [s]`, `prover [ms]`, `verify [µs/vertex]`).
/// Everything else — every deterministic table cell — must be
/// byte-identical across thread counts.
fn deterministic_report(report: &str) -> String {
    let timing_col = |h: &str| h.contains("[ms]") || h.contains("[µs") || h.contains("[s]");
    let mut out = String::new();
    let mut drop_cols: Vec<usize> = Vec::new();
    let mut in_table = false;
    for line in report.lines() {
        if line.contains("machine-readable") {
            continue; // names the per-run metrics path
        }
        if line.starts_with('|') {
            let cells: Vec<&str> = line.split('|').collect();
            if !in_table {
                in_table = true;
                drop_cols = cells
                    .iter()
                    .enumerate()
                    .filter(|(_, c)| timing_col(c))
                    .map(|(i, _)| i)
                    .collect();
            }
            let kept: Vec<&str> = cells
                .iter()
                .enumerate()
                .filter(|(i, _)| !drop_cols.contains(i))
                .map(|(_, c)| *c)
                .collect();
            out.push_str(&kept.join("|"));
        } else {
            in_table = false;
            out.push_str(line);
        }
        out.push('\n');
    }
    out
}

#[test]
fn artifacts_are_byte_identical_at_one_and_four_threads() {
    let dir = std::env::temp_dir().join(format!("locert_par_det_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");

    let one = run_experiments(1, &dir);
    let four = run_experiments(4, &dir);

    assert!(
        !one.journal.is_empty(),
        "journal must record events for the comparison to mean anything"
    );
    assert_eq!(
        one.journal, four.journal,
        "verification journal diverged between 1 and 4 threads"
    );

    let det_one = deterministic_section(&one.metrics);
    let det_four = deterministic_section(&four.metrics);
    assert!(det_one.contains("counters"), "deterministic section empty");
    assert_eq!(
        det_one, det_four,
        "deterministic metrics section diverged between 1 and 4 threads"
    );

    let report_one = deterministic_report(&one.report);
    let report_four = deterministic_report(&four.report);
    assert!(
        report_one.contains("| "),
        "report must contain experiment tables"
    );
    assert_eq!(
        report_one, report_four,
        "report tables diverged between 1 and 4 threads"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// The `--threads` flag must behave exactly like the environment
/// variable: a `--threads 3` run and a `LOCERT_THREADS=3` run produce
/// the same deterministic journal (they are the same pool, configured
/// through two doors).
#[test]
fn threads_flag_matches_environment_variable() {
    let dir = std::env::temp_dir().join(format!("locert_par_flag_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");

    let via_env = run_experiments(3, &dir);

    let journal = dir.join("journal_flag.jsonl");
    let report = dir.join("report_flag.md");
    let status = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["e3", "--quick", "--threads", "3", "--journal"])
        .arg(&journal)
        .arg("--out")
        .arg(&report)
        .env_remove("LOCERT_THREADS")
        .status()
        .expect("spawn experiments binary");
    assert!(status.success(), "experiments --threads 3 failed");
    let flag_journal = std::fs::read_to_string(&journal).expect("flag journal");

    // The env run covered e3+s1+s2+a1; restrict both journals to e3 events
    // (everything from the e3 marker up to the next experiment marker).
    let e3_slice = |jsonl: &str| -> String {
        let mut out = String::new();
        let mut active = false;
        for line in jsonl.lines() {
            if line.contains("\"marker\"") {
                active = line.contains("\"e3\"");
            }
            if active {
                out.push_str(line);
                out.push('\n');
            }
        }
        out
    };
    let env_e3 = e3_slice(&via_env.journal);
    let flag_e3 = e3_slice(&flag_journal);
    assert!(!flag_e3.is_empty(), "e3 journal slice is empty");
    // Sequence numbers restart identically because e3 runs first in both
    // invocations, so the slices compare byte-for-byte.
    assert_eq!(
        env_e3, flag_e3,
        "--threads 3 and LOCERT_THREADS=3 journals diverged"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// A zero worker count — through the flag or the environment — is a
/// usage error (exit 2, naming its source), not a silently ignored
/// value: a zero-worker pool would deadlock the first parallel region,
/// and the old fallback hid typos in CI matrices. Every binary that runs
/// on the pool shares the rule (`locert_par::cli`); the diffhunt,
/// netstorm, locert-serve and locert twins live in their own crates'
/// tests.
#[test]
fn zero_threads_is_a_usage_error() {
    for (exe, args) in [
        (env!("CARGO_BIN_EXE_experiments"), &["e3", "--quick"][..]),
        (env!("CARGO_BIN_EXE_boundcheck"), &["--quick"][..]),
    ] {
        let flag = Command::new(exe)
            .args(args)
            .args(["--threads", "0"])
            .env_remove("LOCERT_THREADS")
            .output()
            .expect("spawn binary");
        assert_eq!(flag.status.code(), Some(2), "{exe} --threads 0 must exit 2");
        assert!(
            String::from_utf8_lossy(&flag.stderr).contains("thread count must be at least 1"),
            "stderr names the problem"
        );

        let env = Command::new(exe)
            .args(args)
            .env("LOCERT_THREADS", "0")
            .output()
            .expect("spawn binary");
        assert_eq!(
            env.status.code(),
            Some(2),
            "{exe}: LOCERT_THREADS=0 must exit 2"
        );
        assert!(
            String::from_utf8_lossy(&env.stderr).contains("LOCERT_THREADS=0"),
            "stderr names the source"
        );
    }
}
