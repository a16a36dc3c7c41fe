//! loadgen — seeded load generator for a live locert-serve daemon.
//!
//! ```text
//! loadgen --addr HOST:PORT [--seed N] [--unique N] [--repeats N]
//!         [--schemes a,b,c] [--inject-errors N] [--min-hit-rate F]
//!         [--out DIR] [--shutdown]
//! ```
//!
//! Replays the two-phase seeded workload (fresh instances, then a
//! repeated pool exercising the certificate cache) as roundtrip
//! requests, in order, over one connection, cross-checks every verdict
//! locally, and prints one summary line per phase. With
//! `--out DIR` writes `loadgen-deterministic.txt` (the byte-comparable
//! counter lines) and `loadgen-metrics.json` (a `locert-trace/v2`
//! document splitting counts from wall-clock timings). Exits 0 when
//! every gate holds — zero unexpected errors, zero verdict mismatches,
//! and the phase-2 hit rate at or above `--min-hit-rate` — 1 on a gate
//! violation, 2 on usage or I/O errors (a transport failure included).

use locert_par::cli::{Cli, FINDING};
use locert_serve::loadgen::{parse_mix, run_loadgen, LoadgenConfig};
use locert_trace::json::Value;
use std::process::ExitCode;

const USAGE: &str = "\
usage: loadgen --addr HOST:PORT [--seed N] [--unique N] [--repeats N]
               [--schemes a,b,c] [--inject-errors N] [--min-hit-rate F]
               [--out DIR] [--shutdown]

Seeded two-phase workload of roundtrip requests, sent in order over one
connection to a live locert-serve daemon, with local verdict
cross-checks and cache-hit accounting.

  --addr HOST:PORT   daemon protocol address (required)
  --seed N           workload seed (default 1)
  --unique N         phase-1 fresh-instance requests (default 30)
  --repeats N        phase-2 requests, cycling 5 distinct instances
                     (default 60)
  --schemes a,b,c    scheme mix of catalogue ids; an unknown id is a
                     usage error (default spanning-tree,acyclicity,
                     mso-perfect-matching)
  --inject-errors N  unknown-scheme probes expecting that exact code
  --min-hit-rate F   phase-2 hit-rate gate (default 0.9; 0 disables)
  --out DIR          write loadgen-deterministic.txt and
                     loadgen-metrics.json
  --shutdown         send the drain opcode after the workload";

struct Args {
    config: LoadgenConfig,
    addr: Option<String>,
    min_hit_rate: f64,
    out: Option<std::path::PathBuf>,
    shutdown: bool,
}

fn parse_args(cli: &mut Cli) -> Args {
    let mut args = Args {
        config: LoadgenConfig::default(),
        addr: None,
        min_hit_rate: 0.9,
        out: None,
        shutdown: false,
    };
    while let Some(arg) = cli.next() {
        match arg.as_str() {
            "--addr" => args.addr = Some(cli.value("--addr")),
            "--seed" => args.config.seed = cli.parse("--seed"),
            "--unique" => args.config.unique = cli.parse("--unique"),
            "--repeats" => args.config.repeats = cli.parse("--repeats"),
            "--inject-errors" => args.config.inject_errors = cli.parse("--inject-errors"),
            "--schemes" => {
                args.config.schemes =
                    parse_mix(&cli.value("--schemes")).unwrap_or_else(|e| cli.usage_error(e));
            }
            "--min-hit-rate" => args.min_hit_rate = cli.parse("--min-hit-rate"),
            "--out" => args.out = Some(cli.value("--out").into()),
            "--shutdown" => args.shutdown = true,
            other => cli.unknown(other),
        }
    }
    args
}

/// Serializes observed latency quantiles as a `locert-serve/v1`
/// document — the schema `bench-diff` compares for the S5 regression
/// gate (per-name `p50_ns`/`p99_ns`, lower is better).
fn latency_json(report: &locert_serve::loadgen::Report) -> String {
    let entry = |name: &str, phase: Option<u8>| {
        Value::obj([
            ("name".to_string(), Value::from(name)),
            (
                "p50_ns".to_string(),
                Value::from(report.latency_quantile_ns(phase, 0.5).unwrap_or(0)),
            ),
            (
                "p99_ns".to_string(),
                Value::from(report.latency_quantile_ns(phase, 0.99).unwrap_or(0)),
            ),
        ])
    };
    let doc = Value::obj([
        ("schema".to_string(), Value::from("locert-serve/v1")),
        (
            "latency".to_string(),
            Value::Arr(vec![
                entry("request", None),
                entry("request.cold", Some(1)),
                entry("request.repeated", Some(2)),
            ]),
        ),
    ]);
    format!("{doc}\n")
}

fn main() -> ExitCode {
    let mut cli = Cli::with_pool("loadgen", USAGE);
    let mut args = parse_args(&mut cli);
    let Some(addr) = args.addr.take() else {
        cli.usage_error("--addr is required");
    };
    let addr = match std::net::ToSocketAddrs::to_socket_addrs(&addr)
        .ok()
        .and_then(|mut addrs| addrs.next())
    {
        Some(addr) => addr,
        None => cli.usage_error(format!("cannot resolve {addr:?}")),
    };
    args.config.addr = addr;
    locert_trace::enable();
    let report = match run_loadgen(&args.config) {
        Ok(report) => report,
        Err(e) => cli.io_error(format!("transport failure: {e}")),
    };
    println!(
        "loadgen: {} requests in {:.3}s ({:.0} req/s), ok={} hit={} miss={} bypass={}",
        report.requests,
        report.wall_s,
        report.requests as f64 / report.wall_s.max(1e-9),
        report.ok,
        report.hits,
        report.misses,
        report.bypass,
    );
    println!(
        "loadgen: phase2 hit rate {:.3} ({}/{}), mismatches={}, unexpected={}",
        report.phase2_hit_rate(),
        report.phase2_hits,
        report.phase2_requests,
        report.mismatches,
        report.unexpected,
    );
    println!(
        "loadgen: latency p50={}ns p99={}ns",
        report.latency_quantile_ns(None, 0.5).unwrap_or(0),
        report.latency_quantile_ns(None, 0.99).unwrap_or(0),
    );
    for (code, count) in &report.errors {
        println!("loadgen: error {code}: {count}");
    }
    if args.shutdown {
        match locert_serve::Client::connect(addr).and_then(locert_serve::Client::shutdown) {
            Ok(true) => println!("loadgen: daemon acknowledged drain"),
            Ok(false) => eprintln!("loadgen: daemon closed without a drain ack"),
            Err(e) => eprintln!("loadgen: drain request failed: {e}"),
        }
    }
    if let Some(dir) = &args.out {
        if let Err(e) = std::fs::create_dir_all(dir)
            .map_err(|e| e.to_string())
            .and_then(|()| {
                std::fs::write(
                    dir.join("loadgen-deterministic.txt"),
                    report.deterministic_lines(),
                )
                .map_err(|e| e.to_string())?;
                // Client telemetry: counts under `experiments`, every
                // wall-clock quantity under `timings`.
                let metrics = locert_trace::export::metrics_document(
                    false,
                    [("loadgen", report.wall_s, &locert_trace::snapshot())],
                    None,
                );
                std::fs::write(dir.join("loadgen-metrics.json"), metrics)
                    .map_err(|e| e.to_string())?;
                std::fs::write(dir.join("loadgen-latency.json"), latency_json(&report))
                    .map_err(|e| e.to_string())
            })
        {
            cli.io_error(format!("cannot write artifacts to {}: {e}", dir.display()));
        }
    }
    let hit_rate_ok = args.min_hit_rate <= 0.0 || report.phase2_hit_rate() >= args.min_hit_rate;
    if report.mismatches == 0 && report.unexpected == 0 && hit_rate_ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("loadgen: gate violated");
        ExitCode::from(FINDING)
    }
}
