//! Asserts that building a graph costs a constant number of allocations.
//!
//! [`Graph::from_edges`] sits on `locert-serve`'s admission path, once
//! per request, so its cost should not carry a per-vertex allocation
//! term: the counting-sort build allocates the edge list, `offsets` and
//! `neighbors`, whatever the vertex count. A counting global allocator
//! checks that the count is the same on a 64-vertex and a 4096-vertex
//! random tree; a builder that kept a set (or any heap object) per
//! vertex would make the larger tree allocate more. The same holds for
//! `generators::clique`, which knows its edge count up front: an edge
//! buffer that regrew by doubling would make a larger clique allocate
//! more.
//!
//! This lives in its own integration-test binary because the
//! `#[global_allocator]` is process-wide; keeping a single `#[test]`
//! here means no concurrent test can allocate and pollute the count.

use locert_graph::{generators, Graph};
use rand::rngs::StdRng;
use rand::SeedableRng;
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

/// Allocations made by `Graph::from_edges` on a random `n`-vertex tree.
fn allocations_to_build_a_tree(n: usize) -> usize {
    let mut rng = StdRng::seed_from_u64(n as u64);
    let tree = generators::random_tree(n, &mut rng);
    // Present each edge high endpoint first, as a wire client might.
    let edges: Vec<(usize, usize)> = tree.edges().map(|(u, v)| (v.0, u.0)).collect();

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let built = Graph::from_edges(n, edges.iter().copied()).expect("a tree is simple");
    let after = ALLOCATIONS.load(Ordering::SeqCst);

    assert_eq!(built, tree, "rebuilt {n}-vertex tree differs");
    after - before
}

/// Allocations made by `generators::clique(n)`.
fn allocations_to_build_a_clique(n: usize) -> usize {
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let clique = generators::clique(n);
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    assert_eq!(clique.num_edges(), n * (n - 1) / 2);
    after - before
}

#[test]
fn from_edges_allocates_a_constant_number_of_times() {
    let small = allocations_to_build_a_tree(64);
    let large = allocations_to_build_a_tree(4096);
    assert_eq!(
        small, large,
        "building a 4096-vertex tree allocated {large} times, a 64-vertex one {small}: \
         the build has a per-vertex allocation"
    );
    assert!(
        small <= 3,
        "from_edges allocated {small} times; the edge list, offsets and neighbors take 3"
    );
    let small = allocations_to_build_a_clique(8);
    let large = allocations_to_build_a_clique(64);
    assert_eq!(
        small, large,
        "clique(64) allocated {large} times, clique(8) {small}: its edge buffer regrew"
    );
    assert!(small <= 3, "clique allocated {small} times");
}
