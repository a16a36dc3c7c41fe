//! Panic propagation: a panicking leaf must abort its batch with the
//! *original* payload, without deadlocking the submitter, and leave the
//! pool usable for the next batch.

use locert_par::Pool;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

fn payload_str(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("<non-string payload>")
}

#[test]
fn chunk_panic_reaches_the_submitter() {
    let pool = Pool::new(4);
    let err = catch_unwind(AssertUnwindSafe(|| {
        pool.par_map_collect(1024, |i| {
            if i == 500 {
                panic!("leaf exploded at 500");
            }
            i
        })
    }))
    .expect_err("batch should propagate the leaf panic");
    assert_eq!(payload_str(&*err), "leaf exploded at 500");

    // The pool survives: the next batch runs to completion.
    let done = AtomicUsize::new(0);
    let out = pool.par_map_collect(256, |i| {
        done.fetch_add(1, Ordering::Relaxed);
        i * 2
    });
    assert_eq!(done.load(Ordering::Relaxed), 256);
    assert_eq!(out, (0..256).map(|i| i * 2).collect::<Vec<_>>());
}

#[test]
fn map_collect_panic_does_not_deadlock_inline_or_parallel() {
    for threads in [1, 4] {
        let pool = Pool::new(threads);
        let err = catch_unwind(AssertUnwindSafe(|| {
            pool.par_map_collect(512, |i| {
                if i == 300 {
                    panic!("mapper failed");
                }
                i * 2
            })
        }))
        .expect_err("map panic should propagate");
        assert_eq!(payload_str(&*err), "mapper failed", "threads = {threads}");
    }
}
