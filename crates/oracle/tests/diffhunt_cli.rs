//! `diffhunt` command-line contract.

use std::process::Command;

/// `--threads 0` and `LOCERT_THREADS=0` are usage errors: exit 2, with
/// the source named on stderr (the workspace rule of `locert_par::cli`).
#[test]
fn zero_threads_is_a_usage_error() {
    let exe = env!("CARGO_BIN_EXE_diffhunt");
    let flag = Command::new(exe)
        .args(["--threads", "0"])
        .env_remove("LOCERT_THREADS")
        .output()
        .expect("spawn diffhunt");
    let env = Command::new(exe)
        .env("LOCERT_THREADS", "0")
        .output()
        .expect("spawn diffhunt");
    for (out, source) in [(flag, "--threads 0"), (env, "LOCERT_THREADS=0")] {
        assert_eq!(out.status.code(), Some(2), "{source} must exit 2");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains(source),
            "stderr names {source}"
        );
    }
}
