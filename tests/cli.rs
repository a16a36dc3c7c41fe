//! The `locert` command line: every catalogue id certifies and verifies
//! its own family instance, tampering is rejected, parametric specs
//! resolve within their ranges, and every usage error exits 2 without a
//! panic.

use locert::cert::catalogue;
use locert::graph::io::to_edge_list;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn locert(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_locert"))
        .args(args)
        .env_remove("LOCERT_THREADS")
        .output()
        .expect("spawn locert")
}

fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("locert-cli");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir.join(name)
}

fn path_str(p: &Path) -> &str {
    p.to_str().expect("utf-8 path")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// A usage error: exit 2, a message, no panic.
fn assert_usage_error(args: &[&str]) {
    let out = locert(args);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {}", stderr(&out));
    assert!(
        !stderr(&out).contains("panicked"),
        "{args:?}: {}",
        stderr(&out)
    );
}

/// A 4-vertex path in a file of its own (tests run in parallel).
fn p4(name: &str) -> PathBuf {
    let path = scratch(&format!("{name}.graph"));
    std::fs::write(&path, "p 4\n0 1\n1 2\n2 3\n").expect("write p4");
    path
}

#[test]
fn every_catalogue_id_certifies_and_verifies_its_family() {
    for entry in catalogue::entries() {
        let (g, _) = (entry.family)(12);
        let graph = scratch(&format!("{}.graph", entry.id));
        let certs = scratch(&format!("{}.certs", entry.id));
        std::fs::write(&graph, to_edge_list(&g)).expect("write graph");
        let (graph, certs) = (path_str(&graph), path_str(&certs));

        let out = locert(&["certify", entry.id, graph, "--certs", certs]);
        assert_eq!(out.status.code(), Some(0), "{}: {}", entry.id, stderr(&out));
        assert!(stdout(&out).contains("all accept"), "{}", entry.id);

        let out = locert(&["verify", entry.id, graph, "--certs", certs]);
        assert_eq!(out.status.code(), Some(0), "{}: {}", entry.id, stderr(&out));
        assert!(stdout(&out).contains("ACCEPTED"), "{}", entry.id);
    }
}

#[test]
fn a_flipped_nibble_is_rejected() {
    let graph = scratch("flip.graph");
    let certs = scratch("flip.certs");
    std::fs::write(&graph, to_edge_list(&locert::graph::generators::path(8))).unwrap();
    let (graph_s, certs_s) = (path_str(&graph), path_str(&certs));
    let out = locert(&["certify", "acyclicity", graph_s, "--certs", certs_s]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));

    // Flip the leading nibble of vertex 0's certificate (its root id).
    let text = std::fs::read_to_string(&certs).unwrap();
    let (len, hex) = text.split_once(':').unwrap();
    let flipped = u8::from_str_radix(&hex[..1], 16).unwrap() ^ 0x8;
    std::fs::write(&certs, format!("{len}:{flipped:x}{}", &hex[1..])).unwrap();

    let out = locert(&["verify", "acyclicity", graph_s, "--certs", certs_s]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    assert!(stdout(&out).contains("REJECTED"), "{}", stdout(&out));
    assert!(!stderr(&out).contains("panicked"));
}

#[test]
fn parametric_specs_resolve_within_their_ranges() {
    let p4 = p4("ranges");
    let out = locert(&["certify", "treedepth-5", path_str(&p4)]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert!(stdout(&out).contains("treedepth<= 5"), "{}", stdout(&out));

    for spec in [
        "path-minor-free-1",
        "ct-minor-free-2",
        "mso-height-0",
        "mso-height-64",
        "path-minor-free-2000",
        "ct-minor-free-40",
        "ct-minor-free-18",
    ] {
        let out = locert(&["certify", spec, path_str(&p4)]);
        assert_eq!(out.status.code(), Some(2), "{spec}: {}", stderr(&out));
        assert!(
            stderr(&out).contains("needs k in"),
            "{spec}: {}",
            stderr(&out)
        );
        assert!(!stderr(&out).contains("panicked"), "{spec}");
    }
}

#[test]
fn schemes_lists_every_catalogue_id() {
    let out = locert(&["schemes"]);
    assert_eq!(out.status.code(), Some(0));
    let listed: Vec<String> = stdout(&out)
        .lines()
        .filter_map(|l| l.split_whitespace().next().map(str::to_string))
        .collect();
    assert_eq!(listed, catalogue::ids());
}

#[test]
fn usage_errors_exit_two() {
    let p4 = p4("usage");
    let p4 = path_str(&p4);
    assert_usage_error(&["certify", "no-such-scheme", p4]);
    assert_usage_error(&["certify", "word-no-12", p4]);
    assert_usage_error(&[]);
    assert_usage_error(&["frobnicate"]);
    assert_usage_error(&["certify"]);
    assert_usage_error(&["certify", "acyclicity"]);
    assert_usage_error(&["verify", "acyclicity", p4]);
    assert_usage_error(&["certify", "acyclicity", p4, "--bogus"]);
    assert_usage_error(&["certify", "acyclicity", "/nonexistent/graph"]);
}

/// `locert` takes no `--threads` flag; the pool's environment variable
/// follows the workspace rule.
#[test]
fn zero_threads_is_a_usage_error() {
    let p4 = p4("threads");
    let out = Command::new(env!("CARGO_BIN_EXE_locert"))
        .args(["certify", "acyclicity", path_str(&p4)])
        .env("LOCERT_THREADS", "0")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "LOCERT_THREADS=0 must exit 2");
    assert!(
        stderr(&out).contains("LOCERT_THREADS=0"),
        "stderr names the source"
    );
}
