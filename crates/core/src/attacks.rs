//! Soundness attack harness.
//!
//! A lower-bound-free way to *test* soundness: a scheme is sound when no
//! certificate assignment makes a no-instance accept. Universally
//! quantifying over assignments is only feasible exhaustively at tiny
//! sizes ([`exhaustive_soundness`]); at realistic sizes we attack with
//! adversarial provers ([`mutation_attacks`], [`random_assignments`]) —
//! these can only *falsify* soundness, never prove it, which is exactly
//! their role in the test suite.

use crate::bits::{BitWriter, Certificate};
use crate::framework::{run_verification, Assignment, Instance, Verifier};
use locert_graph::NodeId;
use rand::{Rng, RngExt};
use std::error::Error;
use std::fmt;

/// How an exhaustive soundness check can fail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SoundnessError {
    /// A certificate assignment fooled every vertex on the no-instance —
    /// the scheme is unsound; the witness is attached.
    Fooled(Box<Assignment>),
    /// The assignment space exceeds the caller's budget; `space` is `None`
    /// when the count itself overflows `u64`.
    BudgetExceeded {
        /// Number of assignments the sweep would have to check.
        space: Option<u64>,
        /// The caller-supplied cap.
        budget: u64,
    },
}

impl fmt::Display for SoundnessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SoundnessError::Fooled(asg) => {
                write!(
                    f,
                    "soundness violated: fooling assignment of {} bits",
                    asg.max_bits()
                )
            }
            SoundnessError::BudgetExceeded { space, budget } => match space {
                Some(s) => write!(
                    f,
                    "exhaustive space of {s} assignments exceeds budget {budget}"
                ),
                None => write!(f, "exhaustive space overflows u64 (budget {budget})"),
            },
        }
    }
}

impl Error for SoundnessError {}

/// Exhaustively checks that **no** assignment with per-vertex certificates
/// of at most `max_bits` bits is accepted on `instance`, enumerating on
/// the global [`locert_par`] pool.
///
/// Returns `Ok(checked)` with the number of assignments tried (under the
/// canonical enumeration order — see [`exhaustive_soundness_in`]).
///
/// # Errors
///
/// [`SoundnessError::Fooled`] with the fooling assignment if soundness
/// fails, or [`SoundnessError::BudgetExceeded`] when the search space
/// `(2^{max_bits+1} - 1)^n` exceeds `budget` — a typed error instead of a
/// panic, so campaign drivers can skip oversized sweeps gracefully.
pub fn exhaustive_soundness(
    verifier: &dyn Verifier,
    instance: &Instance<'_>,
    max_bits: usize,
    budget: u64,
) -> Result<u64, SoundnessError> {
    exhaustive_soundness_in(locert_par::global(), verifier, instance, max_bits, budget)
}

/// [`exhaustive_soundness`] on an explicit pool (tests pin worker counts
/// in-process with it).
///
/// Assignments are enumerated in a canonical order — certificates sorted
/// by (length, value), combined as a mixed-radix counter with vertex 0 as
/// the least-significant digit — and the early exit always reports the
/// **least** fooling assignment under that order, whatever the worker
/// count or schedule. `SoundnessError::Fooled` payloads, the
/// `checked` count, and the `core.attacks.exhaustive.assignments` counter
/// are therefore byte-identical to a sequential sweep.
///
/// Candidate checks are journal-silent (no per-candidate `Verdict`
/// events) and uncounted; the single deterministic counter above is the
/// sweep's trace footprint.
///
/// # Errors
///
/// As [`exhaustive_soundness`].
pub fn exhaustive_soundness_in(
    pool: &locert_par::Pool,
    verifier: &dyn Verifier,
    instance: &Instance<'_>,
    max_bits: usize,
    budget: u64,
) -> Result<u64, SoundnessError> {
    let _span = locert_trace::span!("core.attacks.exhaustive");
    let n = instance.graph().num_nodes();
    // All bit strings of length 0..=max_bits, sorted by (length, value).
    let mut space: Vec<Certificate> = Vec::new();
    for len in 0..=max_bits {
        for value in 0..(1u64 << len) {
            let mut w = BitWriter::new();
            w.write(value, len as u32);
            space.push(w.finish());
        }
    }
    let m = space.len();
    let total = (m as u64).checked_pow(n as u32);
    if total.is_none_or(|t| t > budget) {
        return Err(SoundnessError::BudgetExceeded {
            space: total,
            budget,
        });
    }
    let total = total.expect("guarded above");
    // Every candidate certificate decoded once; enumeration index `idx`
    // gives vertex `u` the space entry at digit `u` (no overflow: the
    // digit weights stay below `total`).
    let prepared = verifier.prepare(&space);
    let digit = |idx: usize, u: NodeId| idx / m.pow(u.0 as u32) % m;
    // One candidate: journal-silent accept-all probe (short-circuits on
    // the first rejecting vertex).
    let fooled = |idx: usize| -> Option<()> {
        instance
            .graph()
            .nodes()
            .all(|v| prepared.decide_at(instance, v, |u| digit(idx, u)).is_ok())
            .then_some(())
    };
    let found = pool.par_find_first(total as usize, fooled);
    let checked = found.as_ref().map_or(total, |(idx, _)| *idx as u64 + 1);
    if locert_trace::enabled() {
        locert_trace::add("core.attacks.exhaustive.assignments", checked);
    }
    match found {
        Some((idx, ())) => {
            let certs = instance
                .graph()
                .nodes()
                .map(|v| space[digit(idx, v)].clone());
            Err(SoundnessError::Fooled(Box::new(Assignment::from_unpacked(
                certs.collect(),
            ))))
        }
        None => Ok(checked),
    }
}

/// Mutation attacks on a no-instance, seeded from a base assignment
/// (typically an honest assignment for a *related yes-instance*, replayed
/// here): per-vertex bit flips, pairwise certificate swaps, and
/// truncations. Returns `None` if every attack was rejected, or the
/// fooling assignment.
pub fn mutation_attacks(
    verifier: &dyn Verifier,
    instance: &Instance<'_>,
    base: &Assignment,
    rng: &mut impl Rng,
    rounds: usize,
) -> Option<Assignment> {
    let n = instance.graph().num_nodes();
    // The base itself.
    if run_verification(verifier, instance, base).accepted() {
        return Some(base.clone());
    }
    for _ in 0..rounds {
        let mut asg = base.clone();
        match rng.random_range(0..3u32) {
            0 => {
                // Flip a random bit of a random non-empty certificate.
                let v = NodeId(rng.random_range(0..n));
                let c = asg.cert(v).clone();
                if c.len_bits() > 0 {
                    let bit = rng.random_range(0..c.len_bits());
                    *asg.cert_mut(v) = c.with_bit_flipped(bit);
                }
            }
            1 => {
                // Swap two vertices' certificates.
                let a = NodeId(rng.random_range(0..n));
                let b = NodeId(rng.random_range(0..n));
                let ca = asg.cert(a).clone();
                let cb = asg.cert(b).clone();
                *asg.cert_mut(a) = cb;
                *asg.cert_mut(b) = ca;
            }
            _ => {
                // Blank one certificate.
                let v = NodeId(rng.random_range(0..n));
                *asg.cert_mut(v) = Certificate::empty();
            }
        }
        if run_verification(verifier, instance, &asg).accepted() {
            return Some(asg);
        }
    }
    None
}

/// Random-assignment attack: uniformly random certificates of exactly
/// `bits` bits at every vertex, `rounds` times. Returns a fooling
/// assignment if found.
pub fn random_assignments(
    verifier: &dyn Verifier,
    instance: &Instance<'_>,
    bits: usize,
    rng: &mut impl Rng,
    rounds: usize,
) -> Option<Assignment> {
    let n = instance.graph().num_nodes();
    for _ in 0..rounds {
        let certs = (0..n)
            .map(|_| {
                let mut w = BitWriter::new();
                for _ in 0..bits {
                    w.write_bit(rng.random_bool(0.5));
                }
                w.finish()
            })
            .collect();
        let asg = Assignment::from_unpacked(certs);
        if run_verification(verifier, instance, &asg).accepted() {
            return Some(asg);
        }
    }
    None
}

/// The bundled adversarial battery the differential oracle runs on every
/// no-instance: the all-empty assignment first (catches accept-everything
/// verifiers for free), then [`mutation_attacks`] off `base` when one is
/// available, then [`random_assignments`] at a few widths. Returns the
/// first fooling assignment found, or `None` when every attack was
/// rejected.
///
/// Like the individual attacks this can only *falsify* soundness; a
/// `None` is evidence, not proof.
pub fn attack_battery(
    verifier: &dyn Verifier,
    instance: &Instance<'_>,
    base: Option<&Assignment>,
    rng: &mut impl Rng,
    rounds: usize,
) -> Option<Assignment> {
    let _span = locert_trace::span!("core.attacks.battery");
    let n = instance.graph().num_nodes();
    let empty = Assignment::empty(n);
    if run_verification(verifier, instance, &empty).accepted() {
        return Some(empty);
    }
    if let Some(base) = base {
        if let Some(asg) = mutation_attacks(verifier, instance, base, rng, rounds) {
            return Some(asg);
        }
    }
    for bits in [1usize, 4, 16] {
        if let Some(asg) = random_assignments(verifier, instance, bits, rng, rounds) {
            return Some(asg);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::{Decode, DecodedView, RejectReason};
    use locert_graph::{generators, IdAssignment};
    use locert_par::Pool;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A verifier for "the graph is a triangle-free cycle"… simplified:
    /// accepts iff every vertex has degree 2 and its certificate equals
    /// the constant 0b1.
    struct TokenVerifier;

    /// Accepts iff the vertex has degree 2 and its certificate decoded
    /// to `true`.
    fn degree_two_token(view: &DecodedView<'_, bool>) -> Result<(), RejectReason> {
        if view.degree() == 2 && *view.own {
            Ok(())
        } else {
            Err(RejectReason::PropertyViolation)
        }
    }

    impl Decode for TokenVerifier {
        type Decoded = bool;
        type Cache = ();

        fn decode(&self, cert: &Certificate, _: &()) -> bool {
            cert.len_bits() == 1 && cert.bit(0)
        }

        fn decide_decoded(&self, view: &DecodedView<'_, bool>) -> Result<(), RejectReason> {
            degree_two_token(view)
        }
    }

    #[test]
    fn exhaustive_finds_fooling_assignment_when_one_exists() {
        // On a cycle, the all-0b1 assignment fools TokenVerifier — the
        // harness must find it.
        let g = generators::cycle(3);
        let ids = IdAssignment::contiguous(3);
        let inst = Instance::new(&g, &ids);
        let res = exhaustive_soundness(&TokenVerifier, &inst, 1, 1_000_000);
        assert!(res.is_err());
    }

    #[test]
    fn exhaustive_confirms_rejection_on_wrong_shape() {
        // On a path, degree-1 endpoints always reject: no assignment
        // works.
        let g = generators::path(3);
        let ids = IdAssignment::contiguous(3);
        let inst = Instance::new(&g, &ids);
        let res = exhaustive_soundness(&TokenVerifier, &inst, 2, 1_000_000);
        let checked = res.expect("no fooling assignment exists");
        // (2^3 - 1) strings of length <= 2 per vertex... space = 1+2+4 = 7.
        assert_eq!(checked, 7u64.pow(3));
    }

    #[test]
    fn exhaustive_budget_guard_is_typed() {
        let g = generators::cycle(8);
        let ids = IdAssignment::contiguous(8);
        let inst = Instance::new(&g, &ids);
        let res = exhaustive_soundness(&TokenVerifier, &inst, 8, 1000);
        match res {
            Err(SoundnessError::BudgetExceeded { space, budget }) => {
                assert_eq!(budget, 1000);
                assert!(space.is_none_or(|s| s > 1000));
            }
            other => panic!("expected BudgetExceeded, got {other:?}"),
        }
        // A space too large even to count overflows into `space: None`.
        let g2 = generators::cycle(64);
        let ids2 = IdAssignment::contiguous(64);
        let inst2 = Instance::new(&g2, &ids2);
        match exhaustive_soundness(&TokenVerifier, &inst2, 8, u64::MAX) {
            Err(SoundnessError::BudgetExceeded { space: None, .. }) => {}
            other => panic!("expected overflowing BudgetExceeded, got {other:?}"),
        }
    }

    #[test]
    fn fooling_assignment_is_typed() {
        let g = generators::cycle(3);
        let ids = IdAssignment::contiguous(3);
        let inst = Instance::new(&g, &ids);
        match exhaustive_soundness(&TokenVerifier, &inst, 1, 1_000_000) {
            Err(SoundnessError::Fooled(asg)) => assert_eq!(asg.max_bits(), 1),
            other => panic!("expected Fooled, got {other:?}"),
        }
    }

    /// Accepts iff degree 2 and the certificate *starts* with a 1-bit —
    /// deliberately sloppy, so many certificates ("1", "10", "11", …)
    /// fool it on a cycle and the early exit has real choices to make.
    struct PrefixTokenVerifier;

    impl Decode for PrefixTokenVerifier {
        type Decoded = bool;
        type Cache = ();

        fn decode(&self, cert: &Certificate, _: &()) -> bool {
            cert.len_bits() >= 1 && cert.bit(0)
        }

        fn decide_decoded(&self, view: &DecodedView<'_, bool>) -> Result<(), RejectReason> {
            degree_two_token(view)
        }
    }

    #[test]
    fn exhaustive_early_exit_reports_least_witness_at_any_thread_count() {
        let g = generators::cycle(3);
        let ids = IdAssignment::contiguous(3);
        let inst = Instance::new(&g, &ids);
        // Sanity: the sloppy verifier has at least two distinct fooling
        // assignments in the max_bits = 2 space.
        let count_fooling = || {
            let mut space = Vec::new();
            for len in 0..=2usize {
                for value in 0..(1u64 << len) {
                    let mut w = BitWriter::new();
                    w.write(value, len as u32);
                    space.push(w.finish());
                }
            }
            let mut fooling = Vec::new();
            let m = space.len();
            for idx in 0..m * m * m {
                let certs = vec![
                    space[idx % m].clone(),
                    space[(idx / m) % m].clone(),
                    space[(idx / m / m) % m].clone(),
                ];
                let asg = Assignment::new(certs);
                if run_verification(&PrefixTokenVerifier, &inst, &asg).accepted() {
                    fooling.push(idx);
                }
            }
            fooling
        };
        let fooling = count_fooling();
        assert!(
            fooling.len() >= 2,
            "test premise: multiple fooling assignments, got {fooling:?}"
        );
        // The sequential pool is the reference semantics.
        let sequential = Pool::new(1);
        let reference =
            match exhaustive_soundness_in(&sequential, &PrefixTokenVerifier, &inst, 2, 1_000_000) {
                Err(SoundnessError::Fooled(asg)) => *asg,
                other => panic!("expected Fooled, got {other:?}"),
            };
        // The reference is the least fooling index's assignment.
        let least = fooling[0];
        let expected_certs: Vec<Certificate> =
            (0..3).map(|v| reference.cert(NodeId(v)).clone()).collect();
        {
            let mut space = Vec::new();
            for len in 0..=2usize {
                for value in 0..(1u64 << len) {
                    let mut w = BitWriter::new();
                    w.write(value, len as u32);
                    space.push(w.finish());
                }
            }
            let m = space.len();
            let least_certs: Vec<Certificate> = vec![
                space[least % m].clone(),
                space[(least / m) % m].clone(),
                space[(least / m / m) % m].clone(),
            ];
            assert_eq!(expected_certs, least_certs, "least witness mismatch");
        }
        // Parallel pools must report the exact same witness, every time.
        let parallel = Pool::new(4);
        for round in 0..10 {
            match exhaustive_soundness_in(&parallel, &PrefixTokenVerifier, &inst, 2, 1_000_000) {
                Err(SoundnessError::Fooled(asg)) => {
                    for v in 0..3 {
                        assert_eq!(
                            asg.cert(NodeId(v)),
                            reference.cert(NodeId(v)),
                            "witness diverged at vertex {v}, round {round}"
                        );
                    }
                }
                other => panic!("expected Fooled, got {other:?}"),
            }
        }
    }

    #[test]
    fn exhaustive_checked_count_matches_sequential_at_any_thread_count() {
        // No fooling assignment exists on a path (degree-1 endpoints):
        // the count is the full space at every width.
        let g = generators::path(3);
        let ids = IdAssignment::contiguous(3);
        let inst = Instance::new(&g, &ids);
        for threads in [1, 4] {
            let pool = Pool::new(threads);
            let checked = exhaustive_soundness_in(&pool, &TokenVerifier, &inst, 2, 1_000_000)
                .expect("no fooling assignment exists");
            assert_eq!(checked, 7u64.pow(3), "threads = {threads}");
        }
    }

    #[test]
    fn mutation_attacks_rejected_on_path() {
        let g = generators::path(4);
        let ids = IdAssignment::contiguous(4);
        let inst = Instance::new(&g, &ids);
        let mut w = BitWriter::new();
        w.write_bit(true);
        let base = Assignment::new(vec![w.finish(); 4]);
        let mut rng = StdRng::seed_from_u64(61);
        assert!(mutation_attacks(&TokenVerifier, &inst, &base, &mut rng, 200).is_none());
    }

    /// Accepts every view — the battery's empty-assignment probe alone
    /// must catch it.
    struct AcceptAllVerifier;

    impl Decode for AcceptAllVerifier {
        type Decoded = ();
        type Cache = ();

        fn decode(&self, _: &Certificate, _: &()) {}

        fn decide_decoded(&self, _: &DecodedView<'_, ()>) -> Result<(), RejectReason> {
            Ok(())
        }
    }

    #[test]
    fn battery_catches_accept_all_and_clears_sound_verifier() {
        let g = generators::path(4);
        let ids = IdAssignment::contiguous(4);
        let inst = Instance::new(&g, &ids);
        let mut rng = StdRng::seed_from_u64(63);
        let fooled = attack_battery(&AcceptAllVerifier, &inst, None, &mut rng, 10)
            .expect("accept-all verifier must be fooled");
        assert_eq!(fooled.max_bits(), 0, "the empty assignment suffices");
        // TokenVerifier on a path is unfoolable (degree-1 endpoints).
        assert!(attack_battery(&TokenVerifier, &inst, None, &mut rng, 50).is_none());
    }

    #[test]
    fn random_attack_finds_hole_in_weak_verifier() {
        // TokenVerifier on a cycle is fooled by the right random draw.
        let g = generators::cycle(4);
        let ids = IdAssignment::contiguous(4);
        let inst = Instance::new(&g, &ids);
        let mut rng = StdRng::seed_from_u64(62);
        let found = random_assignments(&TokenVerifier, &inst, 1, &mut rng, 500);
        assert!(found.is_some());
    }
}
