//! Fault-injection invariants and fuzz-style robustness tests.
//!
//! Soundness says every *wrong* certificate assignment is rejected
//! somewhere; these tests pin down the complementary engineering claims:
//! verification never panics on garbage, injection is deterministic, and
//! an unfaulted plan is indistinguishable from the honest world.

use locert::automata::library;
use locert::cert::bits::{BitWriter, Certificate};
use locert::cert::faults::{inject, run_with_faults, FaultModel, FaultPlan};
use locert::cert::schemes::acyclicity::AcyclicityScheme;
use locert::cert::schemes::common::id_bits_for;
use locert::cert::schemes::depth2_fo::Depth2FoScheme;
use locert::cert::schemes::existential_fo::ExistentialFoScheme;
use locert::cert::schemes::minor_free::PathMinorFreeScheme;
use locert::cert::schemes::mso_tree::MsoTreeScheme;
use locert::cert::schemes::spanning_tree::{SpanningTreeScheme, VertexCountScheme};
use locert::cert::schemes::tree_depth_bound::TreeDepthBoundScheme;
use locert::cert::schemes::tree_diameter::TreeDiameterScheme;
use locert::cert::schemes::treedepth::TreedepthScheme;
use locert::cert::{run_verification, Assignment, Instance, Prover, Scheme};
use locert::graph::{generators, Graph, IdAssignment, NodeId};
use locert::logic::props;
use proptest::prelude::*;
use rand::prelude::*;
use rand::rngs::StdRng;

/// Every scheme under test, paired with a yes-instance its prover accepts.
fn all_schemes(b: u32) -> Vec<(Box<dyn Scheme>, Graph)> {
    vec![
        (Box::new(AcyclicityScheme::new(b)), generators::path(10)),
        (Box::new(SpanningTreeScheme::new(b)), generators::cycle(10)),
        (
            Box::new(VertexCountScheme::new(b, 10)),
            generators::path(10),
        ),
        (
            Box::new(TreeDiameterScheme::new(b, 3)),
            generators::star(10),
        ),
        (Box::new(TreedepthScheme::new(b, 3)), generators::path(7)),
        (Box::new(TreeDepthBoundScheme::new(2)), generators::star(10)),
        (
            Box::new(MsoTreeScheme::new(library::has_perfect_matching())),
            generators::path(10),
        ),
        (
            Box::new(ExistentialFoScheme::new(b, &props::has_clique(3)).expect("existential")),
            generators::clique(4),
        ),
        (
            Box::new(
                Depth2FoScheme::from_formula(b, &props::has_dominating_vertex()).expect("depth 2"),
            ),
            generators::star(10),
        ),
        (
            Box::new(PathMinorFreeScheme::new(b, 4)),
            generators::star(10),
        ),
    ]
}

/// A certificate of `bits` uniformly random bits.
fn random_cert(rng: &mut StdRng, bits: usize) -> Certificate {
    let mut w = BitWriter::new();
    for _ in 0..bits {
        w.write_bit(rng.random_bool(0.5));
    }
    w.finish()
}

/// Feeding arbitrary byte strings as certificates to every scheme's
/// verifier — on graphs of several shapes, with under- and over-length
/// assignments — must never panic. Acceptance is irrelevant here;
/// completing the sweep is the assertion.
#[test]
fn fuzz_random_certificates_never_panic() {
    let mut rng = StdRng::seed_from_u64(0xF022);
    let graphs = [
        generators::path(9),
        generators::star(9),
        generators::cycle(9),
        generators::clique(5),
        generators::spider(3, 3),
    ];
    for g in &graphs {
        let n = g.num_nodes();
        let ids = IdAssignment::contiguous(n);
        let inst = Instance::new(g, &ids);
        for (scheme, _) in all_schemes(6) {
            for _ in 0..30 {
                // Random lengths, including 0 and far beyond honest width.
                let certs: Vec<Certificate> = (0..n)
                    .map(|_| {
                        let bits = rng.random_range(0..200usize);
                        random_cert(&mut rng, bits)
                    })
                    .collect();
                let asg = Assignment::new(certs);
                let _ = run_verification(scheme.as_ref(), &inst, &asg);
            }
            // Truncated assignment: fewer certificates than vertices.
            let short = Assignment::new(vec![random_cert(&mut rng, 8); n / 2]);
            let _ = run_verification(scheme.as_ref(), &inst, &short);
            // Empty assignment.
            let _ = run_verification(scheme.as_ref(), &inst, &Assignment::new(Vec::new()));
        }
    }
}

/// Every fault model injected at every site of every scheme's yes-instance
/// must run to completion (no panic), whatever it does to acceptance.
#[test]
fn fuzz_every_fault_model_never_panics() {
    for (scheme, g) in all_schemes(6) {
        let ids = IdAssignment::contiguous(g.num_nodes());
        let inst = Instance::new(&g, &ids);
        let honest = scheme
            .assign(&inst)
            .unwrap_or_else(|e| panic!("{}: prover refused yes-instance: {e}", scheme.name()));
        for model in FaultModel::ALL {
            for site in 0..g.num_nodes() {
                let plan = FaultPlan::new(site as u64).with_fault(model, NodeId(site));
                let _ = run_with_faults(scheme.as_ref(), &inst, &honest, &plan);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// An honest yes-instance under an *unfaulted* plan still accepts:
    /// injection with an empty plan is the identity.
    #[test]
    fn unfaulted_plan_preserves_acceptance(seq in prop::collection::vec(0usize..8, 6), seed in 0u64..1000) {
        let n = 8;
        let g = generators::tree_from_prufer(n, &seq);
        let ids = IdAssignment::contiguous(n);
        let inst = Instance::new(&g, &ids);
        let scheme = AcyclicityScheme::new(id_bits_for(&inst));
        let honest = scheme.assign(&inst).expect("tree is a yes-instance");
        let outcome = run_with_faults(&scheme, &inst, &honest, &FaultPlan::new(seed));
        prop_assert!(!outcome.detected());
        prop_assert!(!outcome.effective);
        // And the original assignment still verifies untouched.
        prop_assert!(run_verification(&scheme, &inst, &honest).accepted());
    }

    /// A fault plan with a fixed seed injects identically every time.
    #[test]
    fn fault_plans_are_deterministic(model_ix in 0usize..FaultModel::ALL.len(), seed in 0u64..10_000, seq in prop::collection::vec(0usize..8, 6)) {
        let n = 8;
        let g = generators::tree_from_prufer(n, &seq);
        let ids = IdAssignment::contiguous(n);
        let inst = Instance::new(&g, &ids);
        let scheme = VertexCountScheme::new(id_bits_for(&inst), n as u64);
        let honest = scheme.assign(&inst).expect("yes-instance");
        let model = FaultModel::ALL[model_ix];
        let plan = FaultPlan::single_at_random_site(model, n, seed);
        let w1 = inject(&inst, &honest, &plan);
        let w2 = inject(&inst, &honest, &plan);
        prop_assert_eq!(w1.certs(), w2.certs());
        prop_assert_eq!(w1.is_effective(), w2.is_effective());
        let o1 = run_with_faults(&scheme, &inst, &honest, &plan);
        let o2 = run_with_faults(&scheme, &inst, &honest, &plan);
        prop_assert_eq!(o1, o2);
    }

    /// `to_hex`/`from_hex` round-trips certificates of arbitrary bit
    /// length, including the empty certificate, and rejects non-canonical
    /// padding.
    #[test]
    fn certificate_hex_roundtrip(bits in prop::collection::vec(0u64..2, 0..75)) {
        let mut w = BitWriter::new();
        for &b in &bits {
            w.write_bit(b == 1);
        }
        let cert = w.finish();
        prop_assert_eq!(cert.len_bits(), bits.len());
        let hex = cert.to_hex();
        let back = Certificate::from_hex(&hex);
        prop_assert_eq!(back, Some(cert.clone()));
        // A set padding bit past `len_bits` is non-canonical: both
        // parsers reject it.
        if bits.len() % 8 != 0 {
            let mut bytes = cert.as_bytes().to_vec();
            *bytes.last_mut().unwrap() |= 1;
            let padded: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
            prop_assert_eq!(Certificate::from_hex(&format!("{}:{padded}", bits.len())), None);
            prop_assert_eq!(Certificate::from_bytes(bytes, bits.len()), None);
        }
    }
}
