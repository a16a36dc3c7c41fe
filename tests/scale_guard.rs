//! Scale guard for the compact path: the random-graph generator, the
//! tree-diameter scheme and the per-block `C_t`-minor-freeness scheme
//! must stay linear-work at n = 2^16, and the radius-3 check on a sparse
//! host must cost its balls, not the host, per vertex at n = 2^20.
//!
//! There is no timing assertion. A quadratic regression shows as a run
//! that does not finish: listing every non-edge of a 2^16-vertex graph
//! takes about 50 GB, all-pairs BFS on a 2^16-vertex star takes 2^32
//! steps, a dense n-entry index per block of a 2^16-vertex path clears
//! some 34 GB, and scanning every host slot per radius-3 view of a
//! 2^20-vertex path visits 2^40 slots. In a release build each test
//! takes well under a second.

use locert::cert::catalogue;
use locert::cert::radius::{run_radius_verification, DiameterTwoAtRadiusThree};
use locert::cert::schemes::common::id_bits_for;
use locert::cert::{run_scheme, Assignment, Instance};
use locert::graph::{generators, IdAssignment};
use rand::rngs::StdRng;
use rand::SeedableRng;

const N: usize = 1 << 16;

#[test]
fn random_connected_at_two_to_the_sixteen() {
    let mut rng = StdRng::seed_from_u64(16);
    let extra = 1 << 15;
    let g = generators::random_connected(N, extra, &mut rng);
    assert!(g.is_connected());
    assert_eq!(g.num_edges(), N - 1 + extra);
}

#[test]
fn tree_diameter_proves_and_verifies_a_two_to_the_sixteen_star() {
    let entry = catalogue::by_id("tree-diameter-3").expect("catalogued");
    let (g, inputs) = (entry.family)(N);
    assert!(inputs.is_none());
    let ids = IdAssignment::contiguous(N);
    let inst = Instance::new(&g, &ids);
    let scheme = (entry.build)(id_bits_for(&inst), N);
    let out = run_scheme(scheme.as_ref(), &inst).expect("a star has diameter 2");
    assert!(out.accepted());
}

#[test]
fn ct_minor_freeness_proves_and_verifies_a_two_to_the_sixteen_path() {
    let entry = catalogue::by_id("ct-minor-free-3").expect("catalogued");
    let (g, inputs) = (entry.family)(N);
    assert!(inputs.is_none());
    let ids = IdAssignment::contiguous(N);
    let inst = Instance::new(&g, &ids);
    let scheme = (entry.build)(id_bits_for(&inst), N);
    let out = run_scheme(scheme.as_ref(), &inst).expect("a path is C_3-minor-free");
    assert!(out.accepted());
}

#[test]
fn radius_three_on_a_two_to_the_twenty_path() {
    let n = 1 << 20;
    let g = generators::path(n);
    let ids = IdAssignment::contiguous(n);
    let inst = Instance::new(&g, &ids);
    let empty = Assignment::empty(n);
    // Every vertex of a path this long has a vertex 3 hops away.
    let rejecting = run_radius_verification(&DiameterTwoAtRadiusThree, &inst, &empty);
    assert_eq!(rejecting.len(), n);
}
