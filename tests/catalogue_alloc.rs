//! Asserts that every compact catalogue scheme certifies with at most
//! one heap allocation per vertex in its prover and at most one in its
//! verifier, decode included.
//!
//! Each id runs its prover ([`Prover::assign`]) and then
//! [`run_verification_in`] on an inline one-worker pool, on its
//! catalogue family at two sizes. Allocations made once per run (the
//! assignment's arena, the decode arena, scratch buffers, tables) cancel
//! in the difference between the two sizes, up to the few more times a
//! buffer grown by doubling reallocates at the larger size
//! ([`GROWTH`]); what is left, divided by the number of added vertices,
//! is the per-vertex count. The universal scheme broadcasts the whole
//! graph and is not compact, so it is left out.
//!
//! This lives in its own integration-test binary because the
//! `#[global_allocator]` is process-wide; keeping a single `#[test]`
//! here means no concurrent test can allocate and pollute the count.

use locert_core::catalogue::{self, SchemeEntry};
use locert_core::framework::{run_verification_in, DeclaredBound, Instance};
use locert_core::schemes::common::id_bits_for;
use locert_graph::IdAssignment;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const SMALL: usize = 1024;
const LARGE: usize = 16384;

/// The allocations a run at `LARGE` may make beyond one per added vertex
/// without allocating per vertex: a buffer grown by doubling reallocates
/// `log₂(LARGE / SMALL) = 4` more times, and this covers 16 such
/// buffers.
const GROWTH: usize = 64;

/// Allocations made by `entry`'s prover and by its verification run on
/// `entry.family(n)`, after the instance and the scheme are built.
fn allocations(entry: &SchemeEntry, pool: &locert_par::Pool, n: usize) -> (usize, usize, usize) {
    let (graph, inputs) = (entry.family)(n);
    let ids = IdAssignment::contiguous(graph.num_nodes());
    let instance = match &inputs {
        Some(inputs) => Instance::with_inputs(&graph, &ids, inputs),
        None => Instance::new(&graph, &ids),
    };
    let scheme = (entry.build)(id_bits_for(&instance), graph.num_nodes());
    let count = || ALLOCATIONS.load(Ordering::SeqCst);
    let before = count();
    let assignment = scheme
        .assign(&instance)
        .unwrap_or_else(|e| panic!("{}: prover refused: {e}", entry.id));
    let proved = count();
    let outcome = run_verification_in(pool, scheme.as_ref(), &instance, &assignment);
    let verified = count();
    assert!(outcome.accepted(), "{}: honest run rejected", entry.id);
    (graph.num_nodes(), proved - before, verified - proved)
}

#[test]
fn compact_schemes_allocate_at_most_once_per_vertex() {
    let pool = locert_par::Pool::new(1);
    let mut failures = Vec::new();
    for entry in catalogue::entries() {
        if (entry.build)(16, 8).declared_bound() == DeclaredBound::QuadraticN {
            continue;
        }
        let (n_small, prove_small, verify_small) = allocations(&entry, &pool, SMALL);
        let (n_large, prove_large, verify_large) = allocations(&entry, &pool, LARGE);
        let added = n_large - n_small;
        let per_vertex =
            |small: usize, large: usize| large.saturating_sub(small) as f64 / added as f64;
        let within = |small: usize, large: usize| large <= small + added + GROWTH;
        let prove = per_vertex(prove_small, prove_large);
        let verify = per_vertex(verify_small, verify_large);
        eprintln!("{:<24} prove {prove:6.3}  verify {verify:6.3}", entry.id);
        if !within(prove_small, prove_large) || !within(verify_small, verify_large) {
            failures.push(format!(
                "{}: {prove:.3} allocations per vertex in assign, {verify:.3} in \
                 run_verification_in ({prove_small}/{prove_large} and \
                 {verify_small}/{verify_large} at n = {n_small}/{n_large})",
                entry.id
            ));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
