//! netstorm — the network fault-grid campaign CLI.
//!
//! ```text
//! netstorm [--seed N] [--quick] [--threads N] [--out DIR] [--list]
//! ```
//!
//! Drives every catalogued (scheme, yes-instance) target through the
//! fault grid — packet loss, duplication, delay, transit corruption,
//! stored-certificate corruption, crash-restart, healing partitions —
//! and prints one row per (target, point): detection rate over effective
//! runs, false-reject and false-inconclusive tallies, mean time to
//! detection, and transport cost. Exits 0 when the acceptance grid
//! holds (benign points never reject, corrupting points always detect,
//! reliable points always complete), 1 on any violation, 2 on usage
//! or I/O errors (a zero `--threads` or `LOCERT_THREADS` included).
//!
//! Output is deterministic for a fixed seed at any thread count — the
//! simulator has no wall clock and the journal is flushed in task
//! order — so CI byte-compares `--out` artifacts at `LOCERT_THREADS=1`
//! and `4`. With `--out DIR` the run writes the replayable
//! `net-journal.jsonl` and a `locert-trace/v2` `net-metrics.json` whose
//! deterministic section `trace-check --compare` can diff.

use locert_net::campaign::{fault_grid, run_net_campaign, CampaignConfig};
use locert_net::catalogue::catalogue;
use locert_par::cli::{Cli, FINDING};
use locert_trace::journal;
use std::process::ExitCode;

const USAGE: &str = "\
usage: netstorm [--seed N] [--quick] [--threads N] [--out DIR] [--list]

Seeded, deterministic message-passing simulation of every catalogued
certification scheme under a grid of network faults: loss, duplication,
reordering delay, in-transit and stored-certificate corruption,
crash-restart with certificate loss, and healing partitions.

  --seed N     base RNG seed; every run derives its own (default 1)
  --quick      2 runs per point on ~8-vertex instances (CI smoke mode);
               the full grid runs 5 per point on ~12-vertex instances
  --threads N  worker threads (also honours LOCERT_THREADS; must be >= 1)
  --out DIR    write net-journal.jsonl and net-metrics.json
  --list       print the target catalogue and fault grid, then exit";

struct Args {
    seed: u64,
    quick: bool,
    out: Option<std::path::PathBuf>,
    list: bool,
}

fn parse_args(cli: &mut Cli) -> Args {
    let mut args = Args {
        seed: 1,
        quick: false,
        out: None,
        list: false,
    };
    while let Some(arg) = cli.next() {
        match arg.as_str() {
            "--seed" => args.seed = cli.parse("--seed"),
            "--threads" => cli.threads(),
            "--out" => args.out = Some(cli.value("--out").into()),
            "--quick" => args.quick = true,
            "--list" => args.list = true,
            other => cli.unknown(other),
        }
    }
    args
}

fn write_artifacts(dir: &std::path::Path, quick: bool, wall_s: f64) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let journal_snap = journal::snapshot();
    let journal_path = dir.join("net-journal.jsonl");
    // Streamed one line at a time: a full 2^20-event ring serializes
    // without a second in-memory copy.
    let stream = || -> std::io::Result<()> {
        let file = std::fs::File::create(&journal_path)?;
        let mut out = std::io::BufWriter::new(file);
        journal::write_jsonl(&journal_snap, &mut out)?;
        std::io::Write::flush(&mut out)
    };
    stream().map_err(|e| format!("cannot write {}: {e}", journal_path.display()))?;
    let metrics_path = dir.join("net-metrics.json");
    std::fs::write(
        &metrics_path,
        // One section, `s4`, plus the ring section of the journal
        // written next to it; `trace-check --compare` diffs the
        // deterministic half against a second run.
        locert_trace::export::metrics_document(
            quick,
            [("s4", wall_s, &locert_trace::snapshot())],
            Some(locert_trace::export::RingMeta::of(&journal_snap)),
        ),
    )
    .map_err(|e| format!("cannot write {}: {e}", metrics_path.display()))?;
    Ok(())
}

fn main() -> ExitCode {
    let mut cli = Cli::with_pool("netstorm", USAGE);
    let args = parse_args(&mut cli);
    if args.list {
        for target in catalogue(CampaignConfig::new(args.seed).target_size) {
            println!(
                "target {:<22} {:>3} vertices",
                target.name,
                target.graph.num_nodes()
            );
        }
        for point in fault_grid() {
            let class = if point.corrupting {
                "corrupting"
            } else if point.benign {
                "benign"
            } else {
                "measured"
            };
            println!("point  {:<22} [{class}]", point.name);
        }
        return ExitCode::SUCCESS;
    }
    journal::set_capacity(journal::BATCH_CAPACITY);
    journal::enable();
    locert_trace::enable();
    let cfg = if args.quick {
        CampaignConfig::quick(args.seed)
    } else {
        CampaignConfig::new(args.seed)
    };
    println!(
        "netstorm: {} targets x {} fault points x {} runs (seed {}, ~{} vertices)",
        catalogue(cfg.target_size).len(),
        fault_grid().len(),
        cfg.runs_per_point,
        cfg.seed,
        cfg.target_size
    );
    let start = std::time::Instant::now();
    let rows = run_net_campaign(&cfg);
    let wall_s = start.elapsed().as_secs_f64();
    let mut violations = 0usize;
    for row in &rows {
        let ttd = row
            .mean_detection_time()
            .map(|t| format!("{t:.1}"))
            .unwrap_or_else(|| "-".to_string());
        println!(
            "{:<22} {:<20} runs {:>3}  effective {:>3}  detected {:>3}  inconclusive {:>3}  \
             msgs/run {:>7.1}  retries/run {:>6.1}  mean-ttd {ttd}",
            row.scheme,
            row.point,
            row.runs,
            row.effective,
            row.detected,
            row.inconclusive,
            row.mean_messages(),
            row.mean_retries(),
        );
        if row.benign && row.detected > 0 {
            violations += 1;
            println!(
                "VIOLATION {}/{}: false reject on a yes-instance under a benign fault",
                row.scheme, row.point
            );
        }
        if row.corrupting && row.detected < row.effective {
            violations += 1;
            println!(
                "VIOLATION {}/{}: detection rate {:.2} ({} of {} effective runs)",
                row.scheme,
                row.point,
                row.detection_rate(),
                row.detected,
                row.effective
            );
        }
        if row.expect_complete && row.inconclusive > 0 {
            violations += 1;
            println!(
                "VIOLATION {}/{}: false inconclusive under reliable delivery",
                row.scheme, row.point
            );
        }
    }
    if let Some(dir) = &args.out {
        if let Err(e) = write_artifacts(dir, args.quick, wall_s) {
            cli.io_error(e);
        }
        println!("artifacts written to {}", dir.display());
    }
    if violations == 0 {
        println!("netstorm: clean ({} rows)", rows.len());
        ExitCode::SUCCESS
    } else {
        println!("netstorm: {violations} violation(s)");
        ExitCode::from(FINDING)
    }
}
