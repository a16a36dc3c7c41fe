//! Scheduler stress: many more workers than cores, small chunks, and
//! an atomic bitmap proving no index is lost or run twice. This is the
//! loom-less stand-in for a model checker: heavy preemption across 64
//! oversubscribed workers exercises the cursor claims, the holder count
//! a submitter waits on before its batch is freed, and the park/wake
//! races of the batch queue.
//!
//! CI runs this in a dedicated job (see `par-stress` in ci.yml); locally
//! it is just a normal (slow-ish) test.

use locert_par::Pool;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

const WORKERS: usize = 64;
const TASKS: usize = 10_000;

/// One bit per task; `fetch_or` returns the previous word so a double-run
/// (bit already set) is detected exactly.
struct Bitmap {
    words: Vec<AtomicU64>,
    double_runs: AtomicUsize,
}

impl Bitmap {
    fn new(bits: usize) -> Bitmap {
        Bitmap {
            words: (0..bits.div_ceil(64)).map(|_| AtomicU64::new(0)).collect(),
            double_runs: AtomicUsize::new(0),
        }
    }

    fn mark(&self, i: usize) {
        let prev = self.words[i / 64].fetch_or(1 << (i % 64), Ordering::SeqCst);
        if prev & (1 << (i % 64)) != 0 {
            self.double_runs.fetch_add(1, Ordering::SeqCst);
        }
    }

    fn assert_all_exactly_once(&self, bits: usize) {
        assert_eq!(
            self.double_runs.load(Ordering::SeqCst),
            0,
            "double-run tasks"
        );
        for i in 0..bits {
            assert!(
                self.words[i / 64].load(Ordering::SeqCst) & (1 << (i % 64)) != 0,
                "task {i} lost"
            );
        }
    }
}

#[test]
fn oversubscribed_map_runs_every_index_exactly_once() {
    let pool = Pool::new(WORKERS);
    let bitmap = Bitmap::new(TASKS);
    // About four chunks per worker, so all 64 workers compete for claims.
    let out = pool.par_map_collect(TASKS, |i| {
        bitmap.mark(i);
        i
    });
    bitmap.assert_all_exactly_once(TASKS);
    assert!(out.iter().enumerate().all(|(i, &x)| x == i));
}

#[test]
fn repeated_small_batches_survive_churn() {
    let pool = Pool::new(WORKERS);
    for round in 0..200 {
        // n < 4 · 64, so every chunk holds one index.
        let n = 1 + (round * 7) % 97;
        let bitmap = Bitmap::new(n);
        pool.par_map_collect(n, |i| bitmap.mark(i));
        bitmap.assert_all_exactly_once(n);
    }
}
