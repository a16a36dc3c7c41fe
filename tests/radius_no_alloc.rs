//! Asserts that a radius-`r` run allocates once per run, not once per
//! vertex.
//!
//! `run_radius_verification` hands each vertex a view borrowed from one
//! scratch, lists the ball's members and distances into the scratch's
//! own buffers when a verifier reads them, and builds the induced ball
//! only when a verifier reads it. `DiameterTwoAtRadiusThree` reads the
//! ball's depth alone, and a verifier may read members and distances,
//! so a run of either on a star of any size should make the same few
//! allocations (the scratch's three buffers); a per-vertex copy or an
//! induced ball would make the count grow with `n`. A counting global
//! allocator checks that.
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

/// Reads the members, the center and the distances, which a view lists
/// into the scratch.
struct ReadsTheDistances;

impl RadiusVerifier for ReadsTheDistances {
    fn radius(&self) -> usize {
        3
    }

    fn verify(&self, view: &BallView<'_>) -> bool {
        view.members().len() == view.dist().len() && view.dist()[view.center()] == 0
    }
}

/// Reads the induced ball, so its runs must allocate per vertex.
struct ReadsTheBall;

impl RadiusVerifier for ReadsTheBall {
    fn radius(&self) -> usize {
        3
    }

    fn verify(&self, view: &BallView<'_>) -> bool {
        view.ball().num_edges() + 1 >= view.members().len()
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
    for verifier in [
        &DiameterTwoAtRadiusThree as &dyn RadiusVerifier,
        &ReadsTheDistances,
    ] {
        let small = allocations_of_a_run(verifier, 64);
        let large = allocations_of_a_run(verifier, 256);
        assert_eq!(
            small, large,
            "star(64) made {small} allocations, star(256) {large}"
        );
        assert!(small <= 3, "one scratch per run, not {small} allocations");
    }

    // Sanity: the counter sees the views' work once a verifier reads
    // the induced ball, which is built per vertex.
    let small = allocations_of_a_run(&ReadsTheBall, 64);
    let large = allocations_of_a_run(&ReadsTheBall, 256);
    assert!(
        large >= small + 192,
        "ball reads made {small} and {large} allocations"
    );
}
