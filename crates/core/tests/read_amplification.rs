//! The verifier's read-amplification histogram under tracing.
//!
//! The trace registry is process-global and every `run_verification`
//! records into it while tracing is on, so this test has a binary of its
//! own: no other test runs in its process and writes to the histogram it
//! counts.

use locert_core::bits::{BitReader, Certificate};
use locert_core::framework::{DeclaredBound, RejectReason};
use locert_core::{
    run_verification, Assignment, Decode, DecodedView, Instance, Prover, ProverError, Scheme,
};
use locert_graph::{generators, IdAssignment};

/// Toy scheme: every vertex's certificate is its own degree; verified
/// against the visible neighbor count.
struct DegreeScheme;

impl Prover for DegreeScheme {
    fn assign(&self, instance: &Instance<'_>) -> Result<Assignment, ProverError> {
        let g = instance.graph();
        Ok(Assignment::write_each(g.num_nodes(), |v, w| {
            w.component("degree");
            w.write(g.degree(v) as u64, 16);
        }))
    }
}

impl Decode for DegreeScheme {
    type Decoded = Option<u64>;
    type Cache = ();

    fn decode(&self, cert: &Certificate, _: &()) -> Option<u64> {
        let mut r = BitReader::new(cert);
        let claimed = r.read(16)?;
        r.exhausted().then_some(claimed)
    }

    fn decide_decoded(&self, view: &DecodedView<'_, Option<u64>>) -> Result<(), RejectReason> {
        let claimed = view.own.ok_or(RejectReason::MalformedCertificate)?;
        if claimed != view.degree() as u64 {
            return Err(RejectReason::CounterMismatch);
        }
        Ok(())
    }
}

impl Scheme for DegreeScheme {
    fn name(&self) -> String {
        "degree".into()
    }

    fn declared_bound(&self) -> DeclaredBound {
        DeclaredBound::Constant
    }
}

#[test]
fn read_amplification_histogram_records_under_tracing() {
    let g = generators::cycle(6);
    let ids = IdAssignment::contiguous(6);
    let inst = Instance::new(&g, &ids);
    let asg = DegreeScheme.assign(&inst).unwrap();
    locert_trace::enable();
    locert_trace::reset();
    let out = run_verification(&DegreeScheme, &inst, &asg);
    locert_trace::disable();
    let snap = locert_trace::snapshot();
    locert_trace::reset();
    assert!(out.accepted());
    let hist = &snap.histograms["core.framework.verify.read_amplification"];
    assert_eq!(hist.count, 1);
    // On a cycle every vertex reads its own cert plus two
    // neighbors': amplification is exactly 3x = 300.
    assert_eq!(hist.min, Some(300));
    assert_eq!(hist.max, Some(300));
    // All-empty assignments record nothing (the ratio is undefined).
    locert_trace::enable();
    locert_trace::reset();
    let _ = run_verification(&DegreeScheme, &inst, &Assignment::empty(6));
    locert_trace::disable();
    let snap = locert_trace::snapshot();
    locert_trace::reset();
    assert!(!snap
        .histograms
        .contains_key("core.framework.verify.read_amplification"));
}
