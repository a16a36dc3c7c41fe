//! bench-diff — the regression gate over committed benchmark baselines.
//!
//! ```text
//! bench-diff BASELINE CURRENT [--threshold FACTOR]
//! bench-diff scale FACTOR IN OUT
//! ```
//!
//! Compares two benchmark artifacts and exits nonzero when any entry in
//! CURRENT is slower than its BASELINE counterpart by the noise threshold
//! or more (default 1.5x). Three artifact schemas are auto-detected:
//!
//! - `locert-criterion/v1` (`BENCH_*.json` from the vendored criterion
//!   stub): compares `median_ns` per benchmark name;
//! - `locert-trace/v2` (`metrics.json`): compares `wall_s` per
//!   experiment id from the `timings` section — the deterministic
//!   `experiments` section carries no wall-clock by design;
//! - `locert-serve/v1` (`loadgen-latency.json` from the serve load
//!   generator): compares `p50_ns` and `p99_ns` per latency entry,
//!   flattened to `<name>/p50` and `<name>/p99` rows.
//!
//! Entries present in only one file are reported but never fail the gate
//! (benchmarks come and go; the gate is about the ones that persist). A
//! markdown delta table goes to stdout so CI logs double as a report.
//!
//! `scale` multiplies every metric in IN by FACTOR and writes OUT — CI
//! uses it to synthesize a known 2x regression and assert the gate trips.
//!
//! Exit codes: 0 = within threshold, 1 = regression, 2 = usage/IO/parse.

use locert_par::cli::{Cli, FINDING};
use locert_trace::export::{MetricsDoc, RingMeta, METRICS_SCHEMA};
use locert_trace::json::{parse, Value};
use std::process::ExitCode;

/// Noise tolerance: current/baseline ratios strictly below this factor pass.
const DEFAULT_THRESHOLD: f64 = 1.5;

const USAGE: &str = "\
usage: bench-diff BASELINE CURRENT [--threshold FACTOR]
       bench-diff scale FACTOR IN OUT

Compares two benchmark artifacts (BENCH_*.json with schema
locert-criterion/v1, metrics.json with schema locert-trace/v2 —
whose wall-clock lives in the \"timings\" section — or
loadgen-latency.json with schema locert-serve/v1, whose p50/p99
nanoseconds are compared per entry), prints a markdown delta table,
and exits 1 if any shared entry in CURRENT reaches or exceeds
BASELINE times FACTOR (default 1.5).

The scale form multiplies every metric in IN by FACTOR and writes
OUT; CI uses it to inject a synthetic regression.";

/// One comparable entry extracted from an artifact: a name and a metric.
struct Entry {
    name: String,
    value: f64,
}

/// Which schema an artifact declared, and the unit its metric carries.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kind {
    Criterion,
    Metrics,
    Serve,
}

impl Kind {
    fn unit(self) -> &'static str {
        match self {
            Kind::Criterion => "median ns",
            Kind::Metrics => "wall s",
            Kind::Serve => "latency ns",
        }
    }
}

/// Reads and parses one artifact into its kind, entry list, and
/// (for v2 metrics dumps) journal ring accounting.
fn load(path: &str) -> Result<(Kind, Vec<Entry>, Option<RingMeta>), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let (kind, entries) = extract(&doc).map_err(|e| format!("{path}: {e}"))?;
    let journal = match kind {
        Kind::Metrics => MetricsDoc::from_value(doc)
            .and_then(|doc| doc.journal())
            .map_err(|e| format!("{path}: {e}"))?,
        _ => None,
    };
    Ok((kind, entries, journal))
}

fn extract(doc: &Value) -> Result<(Kind, Vec<Entry>), String> {
    let schema = doc
        .get("schema")
        .and_then(Value::as_str)
        .ok_or("missing \"schema\" key")?;
    match schema {
        "locert-criterion/v1" => {
            let items = doc
                .get("benchmarks")
                .and_then(Value::as_arr)
                .ok_or("missing \"benchmarks\" array")?;
            let entries = items
                .iter()
                .map(|b| {
                    Ok(Entry {
                        name: b
                            .get("name")
                            .and_then(Value::as_str)
                            .ok_or("benchmark without \"name\"")?
                            .to_string(),
                        value: b
                            .get("median_ns")
                            .and_then(Value::as_num)
                            .ok_or("benchmark without \"median_ns\"")?,
                    })
                })
                .collect::<Result<Vec<_>, &str>>()?;
            Ok((Kind::Criterion, entries))
        }
        METRICS_SCHEMA => {
            // Every wall-clock key lives in the "timings" half, so the
            // committed deterministic half never diffs on regeneration.
            let entries = MetricsDoc::from_value(doc.clone())?
                .sections()?
                .iter()
                .map(|s| Entry {
                    name: s.id.to_string(),
                    value: s.wall_s,
                })
                .collect();
            Ok((Kind::Metrics, entries))
        }
        "locert-serve/v1" => {
            // Each latency entry carries two comparable quantiles;
            // flatten them into independent rows so a p99-only
            // regression is its own line in the delta table.
            let items = doc
                .get("latency")
                .and_then(Value::as_arr)
                .ok_or("missing \"latency\" array")?;
            let mut entries = Vec::new();
            for item in items {
                let name = item
                    .get("name")
                    .and_then(Value::as_str)
                    .ok_or("latency entry without \"name\"")?;
                for quantile in ["p50", "p99"] {
                    entries.push(Entry {
                        name: format!("{name}/{quantile}"),
                        value: item
                            .get(&format!("{quantile}_ns"))
                            .and_then(Value::as_num)
                            .ok_or("latency entry without p50_ns/p99_ns")?,
                    });
                }
            }
            Ok((Kind::Serve, entries))
        }
        other => Err(format!("unknown schema {other:?}")),
    }
}

/// Multiplies every metric in the artifact by `factor`, in place.
fn scale_doc(doc: &mut Value, factor: f64) -> Result<(), String> {
    let (list_key, metric_keys): (&str, &[&str]) = match extract(doc)?.0 {
        Kind::Criterion => ("benchmarks", &["median_ns"]),
        Kind::Serve => ("latency", &["p50_ns", "p99_ns"]),
        Kind::Metrics => {
            let mut metrics = MetricsDoc::from_value(std::mem::replace(doc, Value::Null))?;
            metrics.scale_wall_s(factor);
            *doc = metrics.into_value();
            return Ok(());
        }
    };
    let Value::Obj(map) = doc else {
        unreachable!("extract checked")
    };
    let Some(Value::Arr(items)) = map.get_mut(list_key) else {
        unreachable!("extract checked")
    };
    for item in items {
        if let Value::Obj(fields) = item {
            for metric_key in metric_keys {
                if let Some(Value::Num(v)) = fields.get_mut(*metric_key) {
                    *v *= factor;
                }
            }
        }
    }
    Ok(())
}

fn run_scale(cli: &Cli, factor_s: &str, input: &str, output: &str) -> ExitCode {
    let Ok(factor) = factor_s.parse::<f64>() else {
        cli.usage_error(format!("bad scale factor {factor_s:?}"));
    };
    let text = std::fs::read_to_string(input)
        .unwrap_or_else(|e| cli.io_error(format!("cannot read {input}: {e}")));
    let mut doc = parse(&text).unwrap_or_else(|e| cli.io_error(format!("{input}: {e}")));
    if let Err(e) = scale_doc(&mut doc, factor) {
        cli.io_error(e);
    }
    if let Err(e) = std::fs::write(output, format!("{doc}\n")) {
        cli.io_error(format!("cannot write {output}: {e}"));
    }
    println!("scaled {input} by {factor} -> {output}");
    ExitCode::SUCCESS
}

/// Formats a metric for the table: ns as integers, seconds with precision.
fn fmt_value(kind: Kind, v: f64) -> String {
    match kind {
        Kind::Criterion | Kind::Serve => format!("{v:.0}"),
        Kind::Metrics => format!("{v:.3}"),
    }
}

fn run_diff(cli: &Cli, baseline_path: &str, current_path: &str, threshold: f64) -> ExitCode {
    let (base_kind, base, base_journal) = load(baseline_path).unwrap_or_else(|e| cli.io_error(e));
    let (cur_kind, cur, cur_journal) = load(current_path).unwrap_or_else(|e| cli.io_error(e));
    if base_kind != cur_kind {
        cli.io_error(format!(
            "schema mismatch: {baseline_path} is {base_kind:?}, {current_path} is {cur_kind:?}"
        ));
    }

    println!("## bench-diff: {baseline_path} vs {current_path}");
    println!();
    println!("Threshold: current/baseline >= {threshold:.2} on any shared entry fails the gate.");
    println!();
    // Journal ring accounting (report-only, never gates): a truncated
    // journal means wall-clock entries were produced under different
    // recording pressure, worth seeing next to the deltas.
    for (label, meta) in [("baseline", &base_journal), ("current", &cur_journal)] {
        if let Some(RingMeta {
            capacity,
            dropped,
            entries,
        }) = meta
        {
            let note = if *dropped > 0 {
                " — **truncated**"
            } else {
                ""
            };
            println!("Journal ({label}): {entries}/{capacity} events, {dropped} dropped{note}.");
        }
    }
    if base_journal.is_some() || cur_journal.is_some() {
        println!();
    }
    println!(
        "| benchmark | baseline ({u}) | current ({u}) | ratio | status |",
        u = base_kind.unit()
    );
    println!("|---|---:|---:|---:|---|");

    let mut regressions = Vec::new();
    let mut shared = 0usize;
    for b in &base {
        let Some(c) = cur.iter().find(|c| c.name == b.name) else {
            println!(
                "| {} | {} | — | — | removed |",
                b.name,
                fmt_value(base_kind, b.value)
            );
            continue;
        };
        shared += 1;
        // A zero baseline can't define a ratio; treat any nonzero current
        // value as within noise rather than dividing by zero.
        let ratio = if b.value == 0.0 {
            1.0
        } else {
            c.value / b.value
        };
        // A regression exactly at the threshold counts: the gate promises
        // "ratios up to FACTOR pass", so landing on the factor fails. The
        // `ratio > 1.0` guard keeps identical inputs green at threshold 1.
        let status = if ratio >= threshold && ratio > 1.0 {
            regressions.push(b.name.clone());
            "**REGRESSION**"
        } else if ratio < 1.0 / threshold {
            "improved"
        } else {
            "ok"
        };
        println!(
            "| {} | {} | {} | {ratio:.2} | {status} |",
            b.name,
            fmt_value(base_kind, b.value),
            fmt_value(base_kind, c.value),
        );
    }
    for c in &cur {
        if !base.iter().any(|b| b.name == c.name) {
            println!(
                "| {} | — | {} | — | added |",
                c.name,
                fmt_value(base_kind, c.value)
            );
        }
    }

    println!();
    if regressions.is_empty() {
        println!("No regressions across {shared} shared entries.");
        ExitCode::SUCCESS
    } else {
        println!(
            "{} regression(s) at or beyond {threshold:.2}x: {}",
            regressions.len(),
            regressions.join(", ")
        );
        ExitCode::from(FINDING)
    }
}

fn main() -> ExitCode {
    let mut cli = Cli::new("bench-diff", USAGE);
    let mut threshold = DEFAULT_THRESHOLD;
    let mut operands = Vec::new();
    while let Some(arg) = cli.next() {
        match arg.as_str() {
            "--threshold" => {
                threshold = cli.parse("--threshold");
                if threshold.is_nan() || threshold < 1.0 {
                    cli.usage_error(format!("bad threshold {threshold} (need a number >= 1)"));
                }
            }
            flag if flag.starts_with('-') => cli.usage_error(format!("unknown flag {flag:?}")),
            _ => operands.push(arg),
        }
    }
    match operands.as_slice() {
        [scale, factor, input, output] if scale == "scale" => {
            run_scale(&cli, factor, input, output)
        }
        [scale, ..] if scale == "scale" => cli.usage_error("scale takes exactly FACTOR IN OUT"),
        [baseline, current] => run_diff(&cli, baseline, current, threshold),
        _ => cli.usage_error("expected exactly BASELINE and CURRENT paths"),
    }
}
