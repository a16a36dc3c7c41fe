//! diffhunt — the differential oracle CLI.
//!
//! ```text
//! diffhunt [--seed N] [--quick] [--threads N] [--out DIR] [--mutants] [--list]
//! ```
//!
//! Runs the full oracle sweep (every catalogue case × the seeded graph
//! family) and exits 0 when clean, 1 on any disagreement or escaped
//! mutant, 2 on usage or I/O errors. Output is deterministic for a fixed seed
//! at any thread count — no wall-clock, no unordered iteration — so CI
//! byte-compares runs at `LOCERT_THREADS=1` and `4`.
//!
//! With `--out DIR` the run writes a replayable `locert-journal/v1`
//! artifact (`oracle-journal.jsonl`) and one minimal `.graph` repro per
//! shrunk disagreement. With `--mutants` it runs the self-test instead:
//! every injected scheme bug must be detected with a witness of at most
//! 12 vertices.

use locert_oracle::{cases, harness, mutants};
use locert_par::cli::{Cli, FINDING};
use locert_trace::journal;
use std::process::ExitCode;

const USAGE: &str = "\
usage: diffhunt [--seed N] [--quick] [--threads N] [--out DIR] [--mutants] [--list]

Differential + metamorphic oracle over every catalogued certification
scheme: honest runs are cross-checked against exact oracles and sibling
schemes, no-instances are attacked adversarially, and each disagreement
is shrunk to a minimal repro.

  --seed N     RNG seed for the graph family and attacks (default 1)
  --quick      smaller random family (CI smoke mode)
  --threads N  worker threads (also honours LOCERT_THREADS)
  --out DIR    write oracle-journal.jsonl and shrunk .graph repros
  --mutants    mutation self-test: every injected scheme bug must be caught
  --list       print the case catalogue and exit";

struct Args {
    seed: u64,
    quick: bool,
    out: Option<std::path::PathBuf>,
    mutants: bool,
    list: bool,
}

fn parse_args(cli: &mut Cli) -> Args {
    let mut args = Args {
        seed: 1,
        quick: false,
        out: None,
        mutants: false,
        list: false,
    };
    while let Some(arg) = cli.next() {
        match arg.as_str() {
            "--seed" => args.seed = cli.parse("--seed"),
            "--threads" => cli.threads(),
            "--out" => args.out = Some(cli.value("--out").into()),
            "--quick" => args.quick = true,
            "--mutants" => args.mutants = true,
            "--list" => args.list = true,
            other => cli.unknown(other),
        }
    }
    args
}

fn write_artifacts(
    dir: &std::path::Path,
    disagreements: &[harness::Disagreement],
) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let journal_path = dir.join("oracle-journal.jsonl");
    let text = journal::to_jsonl(&journal::snapshot());
    std::fs::write(&journal_path, text)
        .map_err(|e| format!("cannot write {}: {e}", journal_path.display()))?;
    for (i, d) in disagreements.iter().enumerate() {
        let slug: String = d
            .relation
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
            .collect();
        let path = dir.join(format!("{}-{slug}-{i}.graph", d.case));
        std::fs::write(&path, locert_graph::io::to_edge_list(&d.graph))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    Ok(())
}

fn run_sweep(cli: &Cli, args: &Args) -> ExitCode {
    let cases = cases::catalogue();
    let graphs = harness::family(args.quick, args.seed);
    let rounds = if args.quick { 20 } else { 60 };
    println!(
        "diffhunt: {} cases x {} graphs (seed {}, {} attack rounds)",
        cases.len(),
        graphs.len(),
        args.seed,
        rounds
    );
    let report = harness::run_oracle(&cases, &graphs, args.seed, rounds);
    for stat in &report.stats {
        println!(
            "case {:<22} [{:<10}] checked {:>3}  skipped {:>3}  disagreements {}",
            stat.name, stat.group, stat.checked, stat.skipped, stat.disagreements
        );
    }
    for d in &report.disagreements {
        println!(
            "DISAGREEMENT {} / {}: {} ({} vertices shrunk)",
            d.case,
            d.relation,
            d.detail,
            d.graph.num_nodes()
        );
    }
    if let Some(dir) = &args.out {
        if let Err(e) = write_artifacts(dir, &report.disagreements) {
            cli.io_error(e);
        }
        println!("artifacts written to {}", dir.display());
    }
    if report.clean() {
        println!("diffhunt: clean");
        ExitCode::SUCCESS
    } else {
        println!("diffhunt: {} disagreement(s)", report.disagreements.len());
        ExitCode::from(FINDING)
    }
}

fn run_mutants(cli: &Cli, args: &Args) -> ExitCode {
    let graphs = harness::family(true, args.seed);
    let mut escaped = 0usize;
    let mut all = Vec::new();
    for mutant in mutants::mutants() {
        let cases = mutants::apply(&mutant);
        let report = harness::run_oracle(&cases, &graphs, args.seed, 20);
        let found: Vec<_> = report
            .disagreements
            .into_iter()
            .filter(|d| d.case == mutant.case)
            .collect();
        match found.iter().map(|d| d.graph.num_nodes()).min() {
            Some(min) if min <= 12 => {
                println!(
                    "mutant {:<22} detected ({} relation(s), smallest witness {} vertices)",
                    mutant.name,
                    found.len(),
                    min
                );
            }
            Some(min) => {
                escaped += 1;
                println!(
                    "mutant {:<22} DETECTED BUT UNSHRUNK (smallest witness {} vertices)",
                    mutant.name, min
                );
            }
            None => {
                escaped += 1;
                println!("mutant {:<22} ESCAPED", mutant.name);
            }
        }
        all.extend(found);
    }
    if let Some(dir) = &args.out {
        if let Err(e) = write_artifacts(dir, &all) {
            cli.io_error(e);
        }
        println!("artifacts written to {}", dir.display());
    }
    if escaped == 0 {
        println!("diffhunt: all mutants detected");
        ExitCode::SUCCESS
    } else {
        println!("diffhunt: {escaped} mutant(s) escaped");
        ExitCode::from(FINDING)
    }
}

fn main() -> ExitCode {
    let mut cli = Cli::with_pool("diffhunt", USAGE);
    let args = parse_args(&mut cli);
    if args.list {
        for case in cases::catalogue() {
            println!("{:<22} [{}]", case.name, case.group);
        }
        return ExitCode::SUCCESS;
    }
    journal::set_capacity(journal::BATCH_CAPACITY);
    journal::enable();
    if args.mutants {
        run_mutants(&cli, &args)
    } else {
        run_sweep(&cli, &args)
    }
}
