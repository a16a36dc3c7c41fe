//! The process-wide capture flag, `ledger::active()`.
//!
//! The flag counts captures on every thread, so this test has a binary
//! of its own: no other test runs in its process and holds a capture
//! open while it asserts the flag is clear.

use locert_trace::ledger::{active, capture, capturing};

#[test]
fn capture_raises_the_global_flag_and_clears_it_on_exit() {
    assert!(!active());
    let ((), outer) = capture(|| {
        assert!(active() && capturing());
        // Another thread sees the flag but runs no capture of its own.
        std::thread::spawn(|| assert!(active() && !capturing()))
            .join()
            .unwrap();
    });
    assert!(outer.certs.is_empty());
    assert!(!active());
    // An unwinding capture still lowers the flag.
    let unwound = std::panic::catch_unwind(|| capture(|| panic!("prover failed")));
    assert!(unwound.is_err());
    assert!(!active());
}
