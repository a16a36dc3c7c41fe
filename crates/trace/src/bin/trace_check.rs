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
//! sections (`quick` + `experiments`, serialized with sorted keys) — the
//! CI determinism gate between `LOCERT_THREADS=1` and `=4` runs. The
//! `timings` sections are expected to differ and are ignored.
//!
//! Exit codes: 0 the check holds, 1 it fails, 2 usage error or a file
//! that cannot be read or parsed.

use locert_trace::json::{self, Value};
use std::process::ExitCode;

const USAGE: &str = "usage: trace-check METRICS_JSON | trace-check --compare A_JSON B_JSON";

/// Exits with the workspace's usage-or-I/O status (2); a check that
/// fails exits 1.
fn fail_usage(msg: &str) -> ! {
    eprintln!("trace-check: {msg}");
    std::process::exit(2)
}

fn parse_doc(path: &str) -> (Value, usize) {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| fail_usage(&format!("cannot read {path}: {e}")));
    let doc = json::parse(&text).unwrap_or_else(|e| fail_usage(&format!("{path}: {e}")));
    (doc, text.len())
}

fn check(path: &str) -> Result<String, String> {
    let (doc, bytes) = parse_doc(path);
    let schema = doc.get("schema").and_then(Value::as_str).unwrap_or("");
    if schema != "locert-trace/v2" {
        return Err(format!("{path}: unknown schema {schema:?}"));
    }
    let experiments = doc
        .get("experiments")
        .and_then(Value::as_arr)
        .ok_or_else(|| format!("{path}: missing top-level \"experiments\" array"))?;
    if experiments.is_empty() {
        return Err(format!("{path}: \"experiments\" is empty"));
    }
    for (i, exp) in experiments.iter().enumerate() {
        let id = exp
            .get("id")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{path}: experiments[{i}] has no \"id\""))?;
        match exp.get("telemetry").and_then(|t| t.get("counters")) {
            Some(Value::Obj(counters)) if !counters.is_empty() => {}
            _ => return Err(format!("{path}: experiment {id} recorded no counters")),
        }
    }
    let timings = doc
        .get("timings")
        .and_then(Value::as_arr)
        .ok_or_else(|| format!("{path}: missing top-level \"timings\" array"))?;
    if timings.len() != experiments.len() {
        return Err(format!(
            "{path}: timings has {} entries, experiments {}",
            timings.len(),
            experiments.len()
        ));
    }
    for (i, t) in timings.iter().enumerate() {
        let id = t
            .get("id")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{path}: timings[{i}] has no \"id\""))?;
        if t.get("wall_s").and_then(Value::as_num).is_none() {
            return Err(format!("{path}: timing {id} has no wall_s"));
        }
        let spans = t
            .get("telemetry")
            .and_then(|tel| tel.get("spans"))
            .and_then(Value::as_arr)
            .ok_or_else(|| format!("{path}: timing {id} has no span tree"))?;
        if spans.is_empty() {
            return Err(format!("{path}: timing {id} recorded no spans"));
        }
    }
    let journal_note = match doc.get("journal") {
        None => String::new(),
        Some(j) => {
            let field = |name: &str| {
                j.get(name)
                    .and_then(Value::as_num)
                    .filter(|v| v.fract() == 0.0 && *v >= 0.0)
                    .map(|v| v as u64)
                    .ok_or_else(|| format!("{path}: journal section has no integer \"{name}\""))
            };
            let capacity = field("capacity")?;
            let dropped = field("dropped")?;
            let entries = field("entries")?;
            if capacity == 0 {
                return Err(format!("{path}: journal capacity must be at least 1"));
            }
            if entries > capacity {
                return Err(format!(
                    "{path}: journal claims {entries} entries in a ring of {capacity}"
                ));
            }
            if dropped > 0 && entries < capacity {
                return Err(format!(
                    "{path}: journal dropped {dropped} events but the ring is not full \
                     ({entries} of {capacity})"
                ));
            }
            format!(", journal {entries}/{capacity} events, {dropped} dropped")
        }
    };
    Ok(format!(
        "{path}: OK ({schema}, {} experiments, {bytes} bytes{journal_note})",
        experiments.len(),
    ))
}

/// The deterministic section of a dump, re-serialized (sorted keys, so
/// formatting differences don't matter — only content does).
fn deterministic_section(path: &str) -> Result<String, String> {
    let (doc, _) = parse_doc(path);
    let quick = doc
        .get("quick")
        .cloned()
        .ok_or_else(|| format!("{path}: missing \"quick\""))?;
    let experiments = doc
        .get("experiments")
        .cloned()
        .ok_or_else(|| format!("{path}: missing \"experiments\""))?;
    Ok(Value::obj([
        ("quick".to_string(), quick),
        ("experiments".to_string(), experiments),
    ])
    .to_string())
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
