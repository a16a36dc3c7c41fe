//! `trace-check` — CI gate for telemetry artifacts.
//!
//! Usage:
//!
//! ```text
//! trace-check METRICS_JSON
//! trace-check --compare A_JSON B_JSON
//! ```
//!
//! The single-file mode exits non-zero (with a diagnostic) unless the
//! file exists, parses as JSON, and has the shape `experiments --metrics`
//! writes: a `locert-trace/v2` document with a non-empty `experiments`
//! array (per entry: `id` + non-empty deterministic counters) and a
//! matching `timings` array (per entry: `id` + `wall_s` + span tree).
//! The optional v2 `journal` section (written when the run recorded a
//! journal) must carry consistent ring-buffer accounting: `capacity`
//! ≥ 1, `entries` ≤ `capacity`, and a `dropped` count — reported in the
//! OK line so a truncated journal is visible at a glance.
//!
//! `--compare` checks that two dumps have byte-identical *deterministic*
//! projections (`quick`, `experiments` and the optional `journal`
//! section, serialized with sorted keys) — the CI determinism gate
//! between `LOCERT_THREADS=1` and `=4` runs. The `timings` sections are
//! expected to differ and are ignored.
//!
//! The document format itself is owned by `locert_trace::export`
//! (`metrics_document` writes it, `MetricsDoc` reads it); this binary
//! only adds the gate's policy: at least one section, and every section
//! recorded counters and spans.
//!
//! Exit codes: 0 the check holds, 1 it fails, 2 usage error or a file
//! that cannot be read or parsed.

use locert_trace::export::{MetricsDoc, METRICS_SCHEMA};
use locert_trace::json;
use std::process::ExitCode;

const USAGE: &str = "usage: trace-check METRICS_JSON | trace-check --compare A_JSON B_JSON";

/// Exits with the workspace's usage-or-I/O status (2); a check that
/// fails exits 1.
fn fail_usage(msg: &str) -> ! {
    eprintln!("trace-check: {msg}");
    std::process::exit(2)
}

fn parse_doc(path: &str) -> (Result<MetricsDoc, String>, usize) {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| fail_usage(&format!("cannot read {path}: {e}")));
    let doc = json::parse(&text).unwrap_or_else(|e| fail_usage(&format!("{path}: {e}")));
    (MetricsDoc::from_value(doc), text.len())
}

fn check(path: &str) -> Result<String, String> {
    let (doc, bytes) = parse_doc(path);
    let at = |e: String| format!("{path}: {e}");
    let doc = doc.map_err(at)?;
    let sections = doc.sections().map_err(at)?;
    if sections.is_empty() {
        return Err(at("\"experiments\" is empty".into()));
    }
    for section in &sections {
        if section.counters().map_err(at)?.is_empty() {
            return Err(at(format!(
                "experiment {} recorded no counters",
                section.id
            )));
        }
        if section.spans().map_err(at)?.is_empty() {
            return Err(at(format!("timing {} recorded no spans", section.id)));
        }
    }
    let journal_note = doc.journal().map_err(at)?.map_or_else(String::new, |j| {
        format!(
            ", journal {}/{} events, {} dropped",
            j.entries, j.capacity, j.dropped
        )
    });
    Ok(format!(
        "{path}: OK ({METRICS_SCHEMA}, {} experiments, {bytes} bytes{journal_note})",
        sections.len(),
    ))
}

/// The deterministic projection of a dump ([`MetricsDoc::deterministic`]).
fn deterministic_section(path: &str) -> Result<String, String> {
    parse_doc(path)
        .0
        .and_then(|doc| doc.deterministic())
        .map_err(|e| format!("{path}: {e}"))
}

fn compare(a: &str, b: &str) -> Result<String, String> {
    let sa = deterministic_section(a)?;
    let sb = deterministic_section(b)?;
    if sa == sb {
        Ok(format!(
            "deterministic sections identical ({a} vs {b}, {} bytes)",
            sa.len()
        ))
    } else {
        // Locate the first divergence for the diagnostic.
        let at = sa
            .bytes()
            .zip(sb.bytes())
            .position(|(x, y)| x != y)
            .unwrap_or_else(|| sa.len().min(sb.len()));
        let ctx = |s: &str| {
            let start = at.saturating_sub(40);
            let end = (at + 40).min(s.len());
            s.get(start..end)
                .unwrap_or("<non-utf8 boundary>")
                .to_string()
        };
        Err(format!(
            "deterministic sections differ at byte {at}:\n  {a}: …{}…\n  {b}: …{}…",
            ctx(&sa),
            ctx(&sb)
        ))
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.as_slice() {
        [path] => check(path),
        [flag, a, b] if flag == "--compare" => compare(a, b),
        _ => fail_usage(USAGE),
    };
    match result {
        Ok(msg) => {
            println!("{msg}");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("trace-check: {msg}");
            ExitCode::FAILURE
        }
    }
}
