//! Certificate searches leave no per-candidate trace.
//!
//! When an exhaustive sweep finds a witness, workers also decide
//! candidates past it, so anything a candidate decision counted would
//! depend on the schedule. The sweep therefore decides uncounted and
//! records only `core.attacks.exhaustive.assignments`, which must be the
//! same at every worker count. The trace registry is process-global, so
//! this test has a binary of its own.

use locert_core::attacks::{exhaustive_soundness_in, SoundnessError};
use locert_core::framework::RejectReason;
use locert_core::{Certificate, Decode, DecodedView, Instance};
use locert_graph::{generators, IdAssignment};
use locert_par::Pool;

/// Accepts iff the vertex has degree 2 and its certificate starts with a
/// 1-bit: many assignments fool it on a cycle.
struct PrefixToken;

impl Decode for PrefixToken {
    type Decoded = bool;
    type Cache = ();

    fn decode(&self, cert: &Certificate, _: &()) -> bool {
        cert.len_bits() >= 1 && cert.bit(0)
    }

    fn decide_decoded(&self, view: &DecodedView<'_, bool>) -> Result<(), RejectReason> {
        if view.degree() == 2 && *view.own {
            Ok(())
        } else {
            Err(RejectReason::PropertyViolation)
        }
    }
}

#[test]
fn a_sweep_that_finds_a_witness_records_only_its_assignment_count() {
    let g = generators::cycle(5);
    let ids = IdAssignment::contiguous(5);
    let inst = Instance::new(&g, &ids);
    let mut counts = Vec::new();
    for threads in [1, 4] {
        let pool = Pool::new(threads);
        locert_trace::enable();
        locert_trace::reset();
        let res = exhaustive_soundness_in(&pool, &PrefixToken, &inst, 2, 1_000_000);
        locert_trace::disable();
        let snap = locert_trace::snapshot();
        locert_trace::reset();
        assert!(
            matches!(res, Err(SoundnessError::Fooled(_))),
            "threads = {threads}: {res:?}"
        );
        assert_eq!(
            snap.counters.get("core.framework.view_of.calls"),
            None,
            "threads = {threads}"
        );
        assert!(
            !snap
                .histograms
                .contains_key("core.framework.view.neighbors"),
            "threads = {threads}"
        );
        counts.push(snap.counters["core.attacks.exhaustive.assignments"]);
    }
    // The least witness gives "1" to all five vertices: digit 2 of 7
    // everywhere.
    assert_eq!(counts, vec![2 * (1 + 7 + 49 + 343 + 2401) + 1; 2]);
}
