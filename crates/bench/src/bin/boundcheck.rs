//! `boundcheck` — the asymptotic-bound conformance gate.
//!
//! Sweeps every catalogue scheme over its growing instance family under
//! a bit-ledger capture (see `locert_bench::e9_bounds`) and fails when
//!
//! 1. any certificate bit is unattributed (the ledger must tile),
//! 2. the measured size curve grows faster than the scheme's declared
//!    asymptotic bound (least-squares slope tolerance), or
//! 3. the numbers drift off the committed `BOUNDS_baseline.json` —
//!    per-point sizes and declared families exactly, component shares
//!    within half a percentage point.
//!
//! Usage:
//!
//! ```text
//! boundcheck [--baseline [PATH]] [--threads N] [--quick] [--mutants]
//!            [--list]
//! ```
//!
//! `--baseline` regenerates the committed baseline instead of gating;
//! `--mutants` self-tests the gate by poisoning catalogue entries with
//! known size bugs and demanding every one is caught. Exit codes: 0 conforming, 1 violations, 2 usage or
//! I/O error.

use locert_bench::e9_bounds::{self, baseline, fit_sweep, TOLERANCE};
use locert_par::cli::{Cli, FINDING};
use locert_trace::json;

const DEFAULT_BASELINE: &str = "BOUNDS_baseline.json";

const USAGE: &str = "\
usage: boundcheck [--baseline [PATH]] [--threads N] [--quick] [--mutants]
                  [--list]

  --baseline [PATH]  write the bounds baseline (default BOUNDS_baseline.json)
                     instead of gating against it
  --threads N        worker count for the locert-par pool (default:
                     LOCERT_THREADS env, then available parallelism)
  --quick            shrink the size grids (smoke mode; skips the
                     baseline compare, whose grids are full-size)
  --mutants          self-test: poison entries with known size bugs and
                     verify the gate catches every one
  --list             list catalogue entries with declared bounds and
                     components
  --help             print this message";

struct Options {
    write_baseline: Option<String>,
    quick: bool,
    mutants: bool,
    list: bool,
}

fn parse_args(cli: &mut Cli) -> Options {
    let mut opts = Options {
        write_baseline: None,
        quick: false,
        mutants: false,
        list: false,
    };
    while let Some(arg) = cli.next() {
        match arg.as_str() {
            "--baseline" => {
                let path = cli.optional(|a| !a.starts_with("--"));
                opts.write_baseline = Some(path.unwrap_or_else(|| DEFAULT_BASELINE.into()));
            }
            "--threads" => cli.threads(),
            "--quick" => opts.quick = true,
            "--mutants" => opts.mutants = true,
            "--list" => opts.list = true,
            other => cli.unknown(other),
        }
    }
    opts
}

fn list_entries() {
    for entry in locert_core::catalogue::entries() {
        let (point, declared) = e9_bounds::measure(&entry, 16, false);
        println!(
            "{:24} declared {:14} components at n=16: {}",
            entry.id,
            declared.family(),
            point
                .components
                .keys()
                .copied()
                .collect::<Vec<_>>()
                .join(", ")
        );
    }
}

/// Gates one sweep set: attribution + fit (+ optional baseline
/// compare). Returns violations.
fn gate(results: &[e9_bounds::SweepResult], committed: Option<&json::Value>) -> Vec<String> {
    let mut violations = Vec::new();
    for r in results {
        for p in &r.points {
            if !p.fully_attributed {
                violations.push(format!(
                    "{}: unattributed certificate bits at n = {}",
                    r.name, p.n_actual
                ));
            }
        }
        let fit = fit_sweep(r);
        if !fit.conforms {
            violations.push(format!(
                "{}: measured growth exceeds declared {} (rel slope {:+.3} > {:.3})",
                r.name,
                r.declared.family(),
                fit.rel_slope,
                TOLERANCE
            ));
        }
    }
    if let Some(committed) = committed {
        violations.extend(baseline::compare(results, committed));
    }
    violations
}

fn run_mutants(committed: &json::Value) -> ! {
    let mut escaped = 0usize;
    for mutant in e9_bounds::mutants::mutants() {
        let entries = e9_bounds::mutants::apply(&mutant);
        // Mutant verifiers are vacuous; sweep provers only.
        let results: Vec<_> = entries
            .iter()
            .map(|e| e9_bounds::sweep(e, false, false))
            .collect();
        // The honest sweep verifies read amplification; the mutant sweep
        // does not, so exempt read-amp from the compare by gating the
        // poisoned case's size data only.
        let violations: Vec<String> = gate(&results, Some(committed))
            .into_iter()
            .filter(|v| v.starts_with(mutant.case) && !v.contains("read amplification"))
            .collect();
        let caught = !violations.is_empty();
        let fit_failed = violations.iter().any(|v| v.contains("exceeds declared"));
        println!(
            "mutant {:16} on {:16} {} ({})",
            mutant.name,
            mutant.case,
            if caught { "caught" } else { "ESCAPED" },
            violations
                .first()
                .map_or_else(|| "no violation".to_string(), Clone::clone)
        );
        if !caught || (mutant.caught_by_fit && !fit_failed) {
            escaped += 1;
        }
    }
    if escaped > 0 {
        eprintln!("boundcheck: {escaped} mutant(s) escaped the gate");
        std::process::exit(FINDING.into());
    }
    println!("all mutants caught");
    std::process::exit(0);
}

/// The committed baseline, `BOUNDS_baseline.json`.
fn read_committed(cli: &Cli) -> json::Value {
    let path = DEFAULT_BASELINE;
    let raw = std::fs::read_to_string(path)
        .unwrap_or_else(|e| cli.io_error(format!("reading {path}: {e}")));
    json::parse(&raw).unwrap_or_else(|e| cli.io_error(format!("parsing {path}: {e}")))
}

fn main() {
    let mut cli = Cli::with_pool("boundcheck", USAGE);
    let opts = parse_args(&mut cli);
    if opts.list {
        list_entries();
        return;
    }
    if opts.mutants {
        let committed = read_committed(&cli);
        run_mutants(&committed);
    }
    let results = e9_bounds::sweep_all(opts.quick, true);
    if let Some(path) = opts.write_baseline {
        let doc = baseline::to_json(&results);
        std::fs::write(&path, format!("{doc}\n"))
            .unwrap_or_else(|e| cli.io_error(format!("writing {path}: {e}")));
        println!(
            "wrote {path} ({} schemes, {} points)",
            results.len(),
            results.iter().map(|r| r.points.len()).sum::<usize>()
        );
        return;
    }
    let committed = if opts.quick {
        // Quick grids don't match the committed full-size baseline.
        None
    } else {
        Some(read_committed(&cli))
    };
    let violations = gate(&results, committed.as_ref());
    for v in &violations {
        eprintln!("boundcheck: {v}");
    }
    if violations.is_empty() {
        println!(
            "bounds conform: {} schemes, tolerance {}, baseline {}",
            results.len(),
            TOLERANCE,
            if opts.quick {
                "skipped (quick)"
            } else {
                DEFAULT_BASELINE
            }
        );
    } else {
        eprintln!("boundcheck: {} violation(s)", violations.len());
        std::process::exit(FINDING.into());
    }
}
