//! Asserts that a radius-`r` run allocates once per run, not once per
//! vertex.
//!
//! `run_radius_verification` searches each vertex's ball in one scratch,
//! allocated once per run (its three buffers), and hands the verifier a
//! view holding the ball's depth. A run of `DiameterTwoAtRadiusThree` on
//! a star of any size should therefore make the same few allocations; a
//! per-vertex buffer would make the count grow with `n`. A counting
//! global allocator checks that.
//!
//! This lives in its own integration-test binary because the
//! `#[global_allocator]` is process-wide; keeping a single `#[test]`
//! here means no concurrent test can allocate and pollute the count.

use locert_core::framework::{Assignment, Instance};
use locert_core::radius::{
    run_radius_verification, BallView, DiameterTwoAtRadiusThree, RadiusVerifier,
};
use locert_graph::{generators, IdAssignment};
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

/// Allocates a buffer at every vertex, so its runs must allocate per
/// vertex.
struct AllocatesPerVertex;

impl RadiusVerifier for AllocatesPerVertex {
    fn radius(&self) -> usize {
        3
    }

    fn verify(&self, view: &BallView) -> bool {
        std::hint::black_box(vec![0u8; view.depth() + 1]).len() <= 3
    }
}

/// Allocations made by one run of `verifier` on `star(n)`, after the
/// instance is built.
fn allocations_of_a_run(verifier: &dyn RadiusVerifier, n: usize) -> usize {
    let graph = generators::star(n);
    let ids = IdAssignment::contiguous(n);
    let instance = Instance::new(&graph, &ids);
    let empty = Assignment::empty(n);
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let rejecting = run_radius_verification(verifier, &instance, &empty);
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    assert!(rejecting.is_empty(), "stars accept");
    after - before
}

#[test]
fn radius_three_runs_allocate_per_run_not_per_vertex() {
    let small = allocations_of_a_run(&DiameterTwoAtRadiusThree, 64);
    let large = allocations_of_a_run(&DiameterTwoAtRadiusThree, 256);
    assert_eq!(
        small, large,
        "star(64) made {small} allocations, star(256) {large}"
    );
    assert!(small <= 3, "one scratch per run, not {small} allocations");

    // Sanity: the counter sees a verifier's allocation at every vertex.
    let small = allocations_of_a_run(&AllocatesPerVertex, 64);
    let large = allocations_of_a_run(&AllocatesPerVertex, 256);
    assert!(
        large >= small + 192,
        "per-vertex buffers made {small} and {large} allocations"
    );
}
