//! locert-serve — the certification daemon CLI.
//!
//! ```text
//! locert-serve [--addr HOST:PORT] [--metrics-addr HOST:PORT]
//!              [--cache-capacity N] [--admission-limit N]
//!              [--threads N] [--journal PATH]
//! ```
//!
//! Binds the binary protocol plane (and, when asked, the HTTP metrics
//! plane), prints one `ready` line per plane so scripts can scrape the
//! ephemeral ports, then blocks until a client sends the shutdown
//! opcode — the drain path: in-flight batches finish, late requests get
//! `shutting-down`, every thread joins, and with `--journal` the event
//! journal is flushed to JSONL before exit. Exits 0 on a clean drain,
//! 2 on usage or I/O errors.

use locert_par::cli::Cli;
use locert_serve::{ServeConfig, Server};
use locert_trace::journal;
use std::process::ExitCode;

const USAGE: &str = "\
usage: locert-serve [--addr HOST:PORT] [--metrics-addr HOST:PORT]
                    [--cache-capacity N] [--admission-limit N]
                    [--threads N] [--journal PATH]

Serves prove/verify/roundtrip requests for the shared scheme catalogue
over the locert-serve binary protocol, with a content-addressed
certificate cache and per-scheme admission limits.

  --addr HOST:PORT     protocol bind address (default 127.0.0.1:0)
  --metrics-addr HOST:PORT
                       also serve HTTP /metrics and /healthz here
  --cache-capacity N   certificate-cache entries (default 256)
  --admission-limit N  in-flight requests per scheme (default 64)
  --threads N          locert-par worker threads (also LOCERT_THREADS)
  --journal PATH       write the event journal as JSONL on shutdown";

struct Args {
    config: ServeConfig,
    journal: Option<std::path::PathBuf>,
}

fn parse_args(cli: &mut Cli) -> Args {
    let mut args = Args {
        config: ServeConfig::default(),
        journal: None,
    };
    while let Some(arg) = cli.next() {
        match arg.as_str() {
            "--addr" => args.config.addr = cli.value("--addr"),
            "--metrics-addr" => args.config.metrics_addr = Some(cli.value("--metrics-addr")),
            "--cache-capacity" => args.config.cache_capacity = cli.parse("--cache-capacity"),
            "--admission-limit" => {
                args.config.admission_limit = cli.parse_at_least("--admission-limit", 1)
            }
            "--threads" => cli.threads(),
            "--journal" => args.journal = Some(cli.value("--journal").into()),
            other => cli.unknown(other),
        }
    }
    args
}

fn main() -> ExitCode {
    let mut cli = Cli::with_pool("locert-serve", USAGE);
    let args = parse_args(&mut cli);
    locert_trace::enable();
    journal::enable();
    let mut server = match Server::start(&args.config) {
        Ok(server) => server,
        Err(e) => cli.io_error(format!("cannot start: {e}")),
    };
    println!("ready addr={}", server.addr());
    if let Some(addr) = server.metrics_addr() {
        println!("ready metrics={addr}");
    }
    server.join();
    let (hits, misses, evictions) = server.cache_stats();
    eprintln!("locert-serve: drained (cache hits={hits} misses={misses} evictions={evictions})");
    if let Some(path) = &args.journal {
        let snap = journal::snapshot();
        let write = std::fs::File::create(path)
            .map_err(|e| e.to_string())
            .and_then(|mut f| journal::write_jsonl(&snap, &mut f).map_err(|e| e.to_string()));
        if let Err(e) = write {
            cli.io_error(format!("cannot write journal {}: {e}", path.display()));
        }
    }
    ExitCode::SUCCESS
}
