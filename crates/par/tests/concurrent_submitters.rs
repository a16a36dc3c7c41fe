//! Several OS threads submitting to one pool at once, as the daemon does
//! with one handler thread per connection on the global pool. Every
//! batch must return exactly the sequential result, whichever worker or
//! submitter ran its chunks.
//!
//! CI runs this in the `par-stress` job (see ci.yml).

use locert_par::Pool;
use std::sync::Barrier;

const SUBMITTERS: usize = 4;
const ROUNDS: usize = 200;

fn mix(i: usize) -> u64 {
    (i as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .rotate_left(17)
}

fn hammer(pool: &Pool) {
    let start = Barrier::new(SUBMITTERS);
    std::thread::scope(|s| {
        for t in 0..SUBMITTERS {
            let start = &start;
            s.spawn(move || {
                // Release all submitters at once so their batches overlap.
                start.wait();
                for round in 0..ROUNDS {
                    let n = (round * 37 + t * 101) % 1500;
                    let expect: Vec<u64> = (0..n).map(mix).collect();
                    assert_eq!(pool.par_map_collect(n, mix), expect, "map n={n}");

                    let modulus = 7 + (round + t) % 500;
                    let hit = |i: usize| mix(i).is_multiple_of(modulus as u64).then_some(i * 3);
                    let expect = (0..n).find_map(|i| hit(i).map(|v| (i, v)));
                    assert_eq!(pool.par_find_first(n, hit), expect, "find n={n}");
                }
            });
        }
    });
}

#[test]
fn concurrent_submitters_get_sequential_results() {
    hammer(&Pool::new(4));
}

#[test]
fn concurrent_submitters_on_an_oversubscribed_pool() {
    hammer(&Pool::new(64));
}
