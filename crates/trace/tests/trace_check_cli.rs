//! Black-box tests of `trace-check`'s v2 validation: consistent
//! `journal` ring accounting passes (and is surfaced in the OK line),
//! impossible accounting fails, and span trees must carry non-negative
//! integer counts.

use std::path::PathBuf;
use std::process::{Command, Output};

fn check(doc: &str, name: &str) -> Output {
    let dir = std::env::temp_dir().join(format!("trace-check-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let path: PathBuf = dir.join(name);
    std::fs::write(&path, doc).expect("write metrics doc");
    Command::new(env!("CARGO_BIN_EXE_trace-check"))
        .arg(&path)
        .output()
        .expect("spawn trace-check")
}

/// One span node, the only one in [`v2_doc`]'s span tree.
const SPAN: &str = r#"{"name":"s2","calls":1,"total_ns":5,"children":[]}"#;

/// A minimal valid `locert-trace/v2` document with the given span node
/// and optional `journal` section spliced in.
fn v2_doc_with(span: &str, journal: Option<&str>) -> String {
    let journal = journal.map_or_else(String::new, |j| format!(r#","journal":{j}"#));
    format!(
        concat!(
            r#"{{"schema":"locert-trace/v2","quick":true,"#,
            r#""experiments":[{{"id":"s2","telemetry":{{"counters":{{"x":1}}}}}}],"#,
            r#""timings":[{{"id":"s2","wall_s":0.5,"telemetry":{{"spans":[{}]}}}}]"#,
            r#"{}}}"#
        ),
        span, journal
    )
}

fn v2_doc(journal: Option<&str>) -> String {
    v2_doc_with(SPAN, journal)
}

#[test]
fn journal_section_is_optional() {
    let out = check(&v2_doc(None), "plain.json");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(
        !stdout.contains("journal"),
        "no journal note without one: {stdout}"
    );
}

#[test]
fn consistent_journal_accounting_passes_and_is_reported() {
    let out = check(
        &v2_doc(Some(r#"{"capacity":8,"dropped":0,"entries":3}"#)),
        "journal-ok.json",
    );
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(
        stdout.contains("journal 3/8 events, 0 dropped"),
        "OK line surfaces the ring state: {stdout}"
    );

    // A full ring that dropped events is consistent too.
    let out = check(
        &v2_doc(Some(r#"{"capacity":4,"dropped":6,"entries":4}"#)),
        "journal-full.json",
    );
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("journal 4/4 events, 6 dropped"));
}

#[test]
fn impossible_journal_accounting_fails() {
    // More entries than the ring holds.
    let out = check(
        &v2_doc(Some(r#"{"capacity":4,"dropped":0,"entries":9}"#)),
        "journal-overfull.json",
    );
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("9 entries in a ring of 4"));

    // Drops without a full ring: drop-oldest only evicts when full.
    let out = check(
        &v2_doc(Some(r#"{"capacity":8,"dropped":2,"entries":3}"#)),
        "journal-phantom-drop.json",
    );
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("ring is not full"));

    // Zero capacity and missing fields are malformed.
    let out = check(
        &v2_doc(Some(r#"{"capacity":0,"dropped":0,"entries":0}"#)),
        "journal-zero-cap.json",
    );
    assert!(!out.status.success());
    let out = check(&v2_doc(Some(r#"{"dropped":0}"#)), "journal-missing.json");
    assert!(!out.status.success());
}

#[test]
fn span_trees_need_non_negative_integer_counts() {
    let out = check(&v2_doc(None), "span-ok.json");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // The reader rejects what it used to truncate: 2.5 calls, -1 ns.
    for (name, bad) in [
        (
            "span-frac-calls.json",
            SPAN.replace(r#""calls":1"#, r#""calls":2.5"#),
        ),
        (
            "span-frac-ns.json",
            SPAN.replace(r#""total_ns":5"#, r#""total_ns":5.5"#),
        ),
        (
            "span-neg-ns.json",
            SPAN.replace(r#""total_ns":5"#, r#""total_ns":-1"#),
        ),
        ("span-empty.json", "{}".to_string()),
    ] {
        let out = check(&v2_doc_with(&bad, None), name);
        assert_eq!(out.status.code(), Some(1), "{name} must fail the check");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("malformed span node"),
            "{name}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}
