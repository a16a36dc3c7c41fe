//! `locert` — command-line front end for the certification library.
//!
//! ```text
//! locert certify <scheme> <graph-file> [--certs OUT]   prover → certificates
//! locert verify  <scheme> <graph-file> --certs FILE    run every local verifier
//! locert schemes                                       list the scheme catalogue
//! ```
//!
//! Graph files use the edge-list format of `locert::graph::io` (lines
//! `u v`, optional `p <n>` header, `#`/`c` comments). Certificates are
//! stored one per line as `<len_bits>:<hex>`, in vertex order.
//!
//! A scheme is a `locert::cert::catalogue` id. The ids ending in `-<k>`
//! name one member of a parametric family, and `<stem>-<k>` picks any
//! other member in the family's range (`treedepth-7`). Exit codes: 0
//! accepted, 1 rejected (or the prover refuses a no-instance), 2 usage
//! or I/O error.

use locert::cert::bits::Certificate;
use locert::cert::catalogue::{self, Spec};
use locert::cert::schemes::common::id_bits_for;
use locert::cert::{run_verification, Assignment, Instance};
use locert::graph::{io, Graph, IdAssignment};
use locert_par::cli::{Cli, FINDING};
use std::process::ExitCode;

const USAGE: &str = "\
usage: locert certify <scheme> <graph-file> [--certs OUT]
       locert verify  <scheme> <graph-file> --certs FILE
       locert schemes

<scheme> is a catalogue id (listed by `locert schemes`); an id ending
in -<k> also names its family at any k in range, e.g. treedepth-7.";

/// Lists every catalogue id with its declared bound, name and, for
/// parametric families, the range of `k`.
fn list_schemes() {
    for entry in catalogue::entries() {
        let scheme = (entry.build)(16, 16);
        let range = entry.param.map_or_else(String::new, |p| {
            format!("  [{}-<k>, k in {}..={}]", p.stem, p.min, p.max)
        });
        println!(
            "{:<22} {:<22} {}{range}",
            entry.id,
            scheme.declared_bound().label(),
            scheme.name()
        );
    }
}

fn load_graph(cli: &Cli, path: &str) -> Graph {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| cli.io_error(format!("cannot read {path}: {e}")));
    let g = io::parse_edge_list(&text).unwrap_or_else(|e| cli.io_error(format!("{path}: {e}")));
    if g.num_nodes() == 0 {
        cli.io_error(format!("{path}: graph is empty"));
    }
    if !g.is_connected() {
        cli.io_error(format!(
            "{path}: graph is disconnected (the model assumes connectivity)"
        ));
    }
    g
}

fn load_certs(cli: &Cli, path: &str, n: usize) -> Vec<Certificate> {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| cli.io_error(format!("cannot read {path}: {e}")));
    let certs: Vec<Certificate> = text
        .lines()
        .enumerate()
        .map(|(i, line)| {
            Certificate::from_hex(line.trim()).unwrap_or_else(|| {
                cli.io_error(format!("{path}: line {} is not a certificate", i + 1))
            })
        })
        .collect();
    if certs.len() != n {
        cli.io_error(format!(
            "{path}: {} certificates for {n} vertices",
            certs.len()
        ));
    }
    certs
}

fn certify(cli: &Cli, spec: Spec, g: &Graph, certs_out: Option<&str>) -> ExitCode {
    let ids = IdAssignment::contiguous(g.num_nodes());
    let inst = Instance::new(g, &ids);
    let scheme = spec.build(id_bits_for(&inst), g.num_nodes());
    let assignment = match scheme.assign(&inst) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("locert: prover: {e}");
            return ExitCode::from(FINDING);
        }
    };
    let outcome = run_verification(scheme.as_ref(), &inst, &assignment);
    println!(
        "scheme {}: n = {}, certificate size = {} bits (total {} bits), verification: {}",
        scheme.name(),
        g.num_nodes(),
        assignment.max_bits(),
        assignment.total_bits(),
        if outcome.accepted() {
            "all accept"
        } else {
            "REJECTED (bug!)"
        }
    );
    if let Some(path) = certs_out {
        let mut text = String::new();
        for v in g.nodes() {
            text.push_str(&assignment.cert(v).to_hex());
            text.push('\n');
        }
        std::fs::write(path, text)
            .unwrap_or_else(|e| cli.io_error(format!("cannot write {path}: {e}")));
        println!("certificates written to {path}");
    }
    if !outcome.accepted() {
        eprintln!("locert: honest certificates were rejected — please report this");
        return ExitCode::from(FINDING);
    }
    ExitCode::SUCCESS
}

fn verify(spec: Spec, g: &Graph, certs: Vec<Certificate>) -> ExitCode {
    let ids = IdAssignment::contiguous(g.num_nodes());
    let inst = Instance::new(g, &ids);
    let scheme = spec.build(id_bits_for(&inst), g.num_nodes());
    let outcome = run_verification(scheme.as_ref(), &inst, &Assignment::new(certs));
    if outcome.accepted() {
        println!("ACCEPTED: every vertex accepts");
        ExitCode::SUCCESS
    } else {
        println!("REJECTED by vertices {:?}", outcome.rejecting());
        ExitCode::from(FINDING)
    }
}

fn main() -> ExitCode {
    let mut cli = Cli::with_pool("locert", USAGE);
    let command = cli
        .next()
        .unwrap_or_else(|| cli.usage_error("missing command"));
    if command == "schemes" {
        if let Some(arg) = cli.next() {
            cli.unknown(&arg);
        }
        list_schemes();
        return ExitCode::SUCCESS;
    }
    if command != "certify" && command != "verify" {
        cli.usage_error(format!("unknown command {command:?}"));
    }
    let mut operands = Vec::new();
    let mut certs = None;
    while let Some(arg) = cli.next() {
        match arg.as_str() {
            "--certs" => certs = Some(cli.value("--certs")),
            flag if flag.starts_with("--") => cli.unknown(flag),
            _ => operands.push(arg),
        }
    }
    let [spec, graph_path] = <[String; 2]>::try_from(operands)
        .unwrap_or_else(|_| cli.usage_error(format!("{command} needs <scheme> <graph-file>")));
    let spec = catalogue::resolve(&spec).unwrap_or_else(|e| cli.usage_error(e));
    if command == "verify" {
        let Some(certs_path) = certs else {
            cli.usage_error("verify needs --certs FILE");
        };
        let g = load_graph(&cli, &graph_path);
        let certs = load_certs(&cli, &certs_path, g.num_nodes());
        verify(spec, &g, certs)
    } else {
        let g = load_graph(&cli, &graph_path);
        certify(&cli, spec, &g, certs.as_deref())
    }
}
