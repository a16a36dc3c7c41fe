//! tracescope — query, explain, diff, window, flame, tail, and serve
//! locert journals and metrics.
//!
//! ```text
//! tracescope query   JOURNAL [--kind K]… [--vertex V] [--name N]
//!                            [--round R] [--scope S] [--limit N] [--count]
//! tracescope why     JOURNAL [--vertex V]
//! tracescope diff    LEFT RIGHT
//! tracescope windows JOURNAL [--scope S] [--interval N]
//! tracescope flame   METRICS_JSON [--out PATH]
//! tracescope tail    JOURNAL [-n N]
//! tracescope serve   [JOURNAL] [--addr HOST:PORT] [--max-requests N]
//! ```
//!
//! Exit codes: 0 success (for `diff`: identical; for `why`: fully
//! resolved), 1 finding (divergence / unresolved detection), 2 usage or
//! I/O error — the same convention as `trace-check` and `bench_diff`,
//! so CI gates read naturally.

use locert_par::cli::{Cli, FINDING};
use locert_scope::{causal, diff, flame, http, query, window};
use locert_trace::journal::{self, Event, JournalSnapshot};
use locert_trace::json;
use std::process::ExitCode;

const USAGE: &str = "\
usage: tracescope <command> …
  query   JOURNAL [--kind K]… [--vertex V] [--name N] [--round R]
                  [--scope S] [--limit N] [--count]
  why     JOURNAL [--vertex V]         causal chains (all detections when
                                       no vertex; exit 1 if any detection
                                       is unresolved)
  diff    LEFT RIGHT                   first divergence (exit 1) or
                                       identical (exit 0)
  windows JOURNAL [--scope S] [--interval N]
                                       per-window event counts over
                                       logical rounds (default interval 1)
  flame   METRICS_JSON [--out PATH]    collapsed-stack flamegraph export
  tail    JOURNAL [-n N]               newest N entries as JSONL
  serve   [JOURNAL] [--addr HOST:PORT] [--max-requests N]
                                       HTTP exporter: /metrics /healthz
                                       /journal/tail?n=";

fn read_file(cli: &Cli, path: &str) -> String {
    std::fs::read_to_string(path)
        .unwrap_or_else(|e| cli.io_error(format!("cannot read {path}: {e}")))
}

fn load_journal(cli: &Cli, path: &str) -> JournalSnapshot {
    journal::from_jsonl(&read_file(cli, path))
        .unwrap_or_else(|e| cli.io_error(format!("{path}: {e}")))
}

/// Exactly `N` operands, none of them an unknown `--` option.
fn operands<const N: usize>(cli: &Cli, args: Vec<String>, what: &str) -> [String; N] {
    if let Some(stray) = args.iter().find(|a| a.starts_with("--")) {
        cli.usage_error(format!("unknown option {stray}"));
    }
    <[String; N]>::try_from(args).unwrap_or_else(|_| cli.usage_error(format!("expected {what}")))
}

fn main() -> ExitCode {
    let mut cli = Cli::new("tracescope", USAGE);
    let Some(cmd) = cli.next() else {
        cli.usage_error("missing command");
    };
    match cmd.as_str() {
        "query" => cmd_query(cli),
        "why" => cmd_why(cli),
        "diff" => cmd_diff(cli),
        "windows" => cmd_windows(cli),
        "flame" => cmd_flame(cli),
        "tail" => cmd_tail(cli),
        "serve" => cmd_serve(cli),
        other => cli.usage_error(format!("unknown command {other:?}")),
    }
}

fn cmd_query(mut cli: Cli) -> ExitCode {
    let mut q = query::Query::default();
    let mut limit: Option<usize> = None;
    let mut count_only = false;
    let mut args = Vec::new();
    while let Some(arg) = cli.next() {
        match arg.as_str() {
            "--kind" => {
                let kind = cli.value("--kind");
                if !Event::KINDS.contains(&kind.as_str()) {
                    cli.usage_error(format!(
                        "unknown event kind {kind:?} (expected one of: {})",
                        Event::KINDS.join(", ")
                    ));
                }
                q.kinds.push(kind);
            }
            "--vertex" => q.vertex = Some(cli.parse("--vertex")),
            "--name" => q.name = Some(cli.value("--name")),
            "--round" => q.round = Some(cli.parse("--round")),
            "--scope" => q.scope = Some(cli.value("--scope")),
            "--limit" => limit = Some(cli.parse("--limit")),
            "--count" => count_only = true,
            _ => args.push(arg),
        }
    }
    let [path] = operands(&cli, args, "one JOURNAL path");
    let snap = load_journal(&cli, &path);
    let hits = query::run(&snap, &q);
    if count_only {
        println!("{}", hits.len());
        return ExitCode::SUCCESS;
    }
    for entry in hits.iter().take(limit.unwrap_or(usize::MAX)) {
        println!("{}", journal::entry_to_jsonl_line(entry));
    }
    if let Some(limit) = limit {
        if hits.len() > limit {
            eprintln!("… {} more (raise --limit)", hits.len() - limit);
        }
    }
    ExitCode::SUCCESS
}

fn cmd_why(mut cli: Cli) -> ExitCode {
    let mut vertex: Option<u64> = None;
    let mut args = Vec::new();
    while let Some(arg) = cli.next() {
        match arg.as_str() {
            "--vertex" => vertex = Some(cli.parse("--vertex")),
            _ => args.push(arg),
        }
    }
    let [path] = operands(&cli, args, "one JOURNAL path");
    let snap = load_journal(&cli, &path);
    let report = causal::resolve(&snap);
    let chains: Vec<&causal::CausalChain> = report
        .chains
        .iter()
        .filter(|c| vertex.is_none_or(|v| c.detector == v))
        .collect();
    for c in &chains {
        let round = c.round.map_or_else(|| "-".to_string(), |r| r.to_string());
        let distance = c
            .distance
            .map_or_else(|| "unreachable".to_string(), |d| format!("distance {d}"));
        let verdict = c
            .verdict_seq
            .map_or_else(String::new, |s| format!(" -> verdict seq {s}"));
        println!(
            "vertex {} rejected ({}) in round {round}: {} fault injected at site {} \
             (seq {}, effective {}) -> detection seq {} at {distance}{verdict}",
            c.detector, c.reason, c.model, c.site, c.injection_seq, c.effective, c.detection_seq
        );
    }
    if chains.is_empty() {
        println!(
            "no causal chains{}",
            vertex.map_or_else(String::new, |v| format!(" for vertex {v}"))
        );
    }
    let unresolved: Vec<_> = report
        .unresolved
        .iter()
        .filter(|u| vertex.is_none_or(|v| u.detector == v))
        .collect();
    if !unresolved.is_empty() {
        for u in &unresolved {
            eprintln!(
                "UNRESOLVED: detection seq {} (detector {}, claimed site {}) has no \
                 matching injection{}",
                u.detection_seq,
                u.detector,
                u.site,
                if snap.dropped > 0 {
                    format!(" — journal dropped {} events", snap.dropped)
                } else {
                    String::new()
                }
            );
        }
        return ExitCode::from(FINDING);
    }
    ExitCode::SUCCESS
}

fn cmd_diff(mut cli: Cli) -> ExitCode {
    let args = cli.by_ref().collect();
    let [left_path, right_path] = operands(&cli, args, "LEFT and RIGHT journal paths");
    let (left, right) = (read_file(&cli, &left_path), read_file(&cli, &right_path));
    match diff::first_divergence(&left, &right) {
        None => {
            println!("identical: {left_path} == {right_path}");
            ExitCode::SUCCESS
        }
        Some(d) => {
            print!("{d}");
            ExitCode::from(FINDING)
        }
    }
}

fn cmd_windows(mut cli: Cli) -> ExitCode {
    let mut scope = None;
    let mut interval: u64 = 1;
    let mut args = Vec::new();
    while let Some(arg) = cli.next() {
        match arg.as_str() {
            "--scope" => scope = Some(cli.value("--scope")),
            "--interval" => interval = cli.parse("--interval"),
            _ => args.push(arg),
        }
    }
    let [path] = operands(&cli, args, "one JOURNAL path");
    let snap = load_journal(&cli, &path);
    let windows = window::journal_windows(&snap, scope.as_deref(), interval);
    if windows.is_empty() {
        println!("no windowed rounds (journal has no round marks in scope)");
        return ExitCode::SUCCESS;
    }
    for w in &windows {
        let counts: Vec<String> = w
            .counters
            .iter()
            .map(|(k, v)| format!("{}={v}", k.trim_start_matches("events.")))
            .collect();
        println!(
            "window {} (rounds {}..{}): {}",
            w.window,
            w.start_round,
            w.end_round,
            counts.join(" ")
        );
    }
    ExitCode::SUCCESS
}

fn cmd_flame(mut cli: Cli) -> ExitCode {
    let mut out_path = None;
    let mut args = Vec::new();
    while let Some(arg) = cli.next() {
        match arg.as_str() {
            "--out" => out_path = Some(cli.value("--out")),
            _ => args.push(arg),
        }
    }
    let [path] = operands(&cli, args, "one METRICS_JSON path");
    let folded = json::parse(&read_file(&cli, &path))
        .map_err(|e| e.to_string())
        .and_then(flame::from_metrics_json)
        .unwrap_or_else(|e| cli.io_error(format!("{path}: {e}")));
    match out_path {
        Some(out) => {
            if let Err(e) = std::fs::write(&out, &folded) {
                cli.io_error(format!("cannot write {out}: {e}"));
            }
            eprintln!("wrote {out} ({} stacks)", folded.lines().count());
        }
        None => print!("{folded}"),
    }
    ExitCode::SUCCESS
}

fn cmd_tail(mut cli: Cli) -> ExitCode {
    let mut n = http::DEFAULT_TAIL;
    let mut args = Vec::new();
    while let Some(arg) = cli.next() {
        match arg.as_str() {
            "-n" => n = cli.parse("-n"),
            _ => args.push(arg),
        }
    }
    let [path] = operands(&cli, args, "one JOURNAL path");
    let snap = load_journal(&cli, &path);
    let skip = snap.entries.len().saturating_sub(n);
    for entry in &snap.entries[skip..] {
        println!("{}", journal::entry_to_jsonl_line(entry));
    }
    ExitCode::SUCCESS
}

fn cmd_serve(mut cli: Cli) -> ExitCode {
    let mut addr = "127.0.0.1:9184".to_string();
    let mut max_requests: Option<usize> = None;
    let mut args = Vec::new();
    while let Some(arg) = cli.next() {
        match arg.as_str() {
            "--addr" => addr = cli.value("--addr"),
            "--max-requests" => max_requests = Some(cli.parse("--max-requests")),
            _ => args.push(arg),
        }
    }
    if args.len() > 1 {
        cli.usage_error("expected at most one JOURNAL path");
    }
    // Replaying a journal file populates both surfaces: the ring buffer
    // behind /journal/tail, and per-kind counters (plus the recorded
    // drop count) behind /metrics.
    if let Some(path) = args.first() {
        let snap = load_journal(&cli, path);
        locert_trace::enable();
        locert_trace::journal::set_capacity(snap.entries.len().max(journal::DEFAULT_CAPACITY));
        locert_trace::journal::enable();
        for entry in &snap.entries {
            locert_trace::add(&format!("scope.journal.events.{}", entry.event.kind()), 1);
        }
        locert_trace::add(journal::DROPPED_EVENTS_COUNTER, snap.dropped);
        journal::append_events(snap.entries.into_iter().map(|e| e.event));
        eprintln!("replayed {path}");
    } else {
        locert_trace::enable();
        locert_trace::journal::enable();
    }
    let mut server = http::ScopeServer::serve(&addr, max_requests)
        .unwrap_or_else(|e| cli.io_error(format!("cannot bind {addr}: {e}")));
    println!("listening on http://{}", server.addr());
    if max_requests.is_some() {
        server.join();
    } else {
        // Serve until killed.
        loop {
            std::thread::park();
        }
    }
    ExitCode::SUCCESS
}
