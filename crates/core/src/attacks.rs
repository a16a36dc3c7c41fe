//! Soundness attack harness.
//!
//! A lower-bound-free way to *test* soundness: a scheme is sound when no
//! certificate assignment makes a no-instance accept. Universally
//! quantifying over assignments is only feasible exhaustively at tiny
//! sizes ([`exhaustive_soundness`]); at realistic sizes we attack with
//! adversarial provers ([`mutation_attacks`], [`random_assignments`]) —
//! these can only *falsify* soundness, never prove it, which is exactly
//! their role in the test suite.
//!
//! The exhaustive questions — the soundness quantifier here and
//! `locert-lb`'s Alice/Bob simulation — are each one [`search_in`].

use crate::bits::{BitWriter, Certificate};
use crate::framework::{run_verification, Assignment, Instance, Verifier};
use locert_graph::NodeId;
use rand::{Rng, RngExt};
use std::error::Error;
use std::fmt;
use std::ops::Range;

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

/// One certificate search (see [`search_in`]); entries index `candidates`.
#[derive(Debug)]
pub struct Search<'a> {
    /// The candidate certificates, decoded once per search.
    pub candidates: &'a [Certificate],
    /// Each vertex's entry by [`NodeId`]; the search overwrites the free ones'.
    pub fixed: &'a [usize],
    /// The vertices the search labels, `free[0]` the least-significant digit.
    pub free: &'a [NodeId],
    /// The entries each free vertex ranges over.
    pub range: Range<usize>,
    /// The vertices that must all accept, decided in order up to the first reject.
    pub checked: &'a [NodeId],
}

/// What a [`search_in`] found.
#[derive(Debug, PartialEq, Eq)]
pub enum SearchOutcome {
    /// No labelling is accepted; all `total = range.len()^free.len()` were decided.
    Exhausted { total: u64 },
    /// The least labelling accepted, at enumeration index `index`, as every
    /// vertex's entry by [`NodeId`].
    Found { index: u64, entries: Vec<usize> },
}

impl SearchOutcome {
    /// The labellings covered: all of them, or up to the one found.
    pub fn covered(&self) -> u64 {
        match self {
            SearchOutcome::Exhausted { total } => *total,
            SearchOutcome::Found { index, .. } => index + 1,
        }
    }
}

/// Searches the labellings of `search.free` on `pool` for the least one
/// under which every vertex of `search.checked` accepts.
///
/// Labelling `index` gives `free[k]` the entry `range.start + index /
/// m^k % m` (`m = range.len()`) and every other vertex its `fixed` entry.
/// The least accepted index wins at any worker count. Decisions go
/// through [`Prepared::decide`](crate::framework::Prepared::decide) and
/// record nothing, so workers that run past a find leave no trace.
///
/// # Errors
///
/// [`SoundnessError::BudgetExceeded`] when the `m^|free|` labellings
/// exceed `budget`, before any candidate is decoded.
///
/// # Panics
///
/// If `fixed` misses a vertex or an entry is out of range for `candidates`.
pub fn search_in(
    pool: &locert_par::Pool,
    verifier: &dyn Verifier,
    instance: &Instance<'_>,
    search: &Search<'_>,
    budget: u64,
) -> Result<SearchOutcome, SoundnessError> {
    let m = search.range.len();
    let space = (m as u64).checked_pow(search.free.len() as u32);
    let total = match space {
        Some(total) if total <= budget => total,
        _ => return Err(SoundnessError::BudgetExceeded { space, budget }),
    };
    let g = instance.graph();
    let labelling = |mut index: usize| {
        let mut entries = search.fixed.to_vec();
        for &v in search.free {
            entries[v.0] = search.range.start + index % m;
            index /= m;
        }
        entries
    };
    let prepared = verifier.prepare(search.candidates);
    let ids = instance.ids();
    let accepted = |index: usize| -> Option<Vec<usize>> {
        let entries = labelling(index);
        let mut neighbors = Vec::new();
        let mut accepts = |v: NodeId| {
            neighbors.clear();
            neighbors.extend(
                g.neighbors(v)
                    .iter()
                    .map(|&u| (ids.ident(u), instance.input(u), entries[u.0])),
            );
            prepared
                .decide(ids.ident(v), instance.input(v), entries[v.0], &neighbors)
                .is_ok()
        };
        let accepted = search.checked.iter().all(|&v| accepts(v));
        accepted.then_some(entries)
    };
    Ok(match pool.par_find_first(total as usize, accepted) {
        None => SearchOutcome::Exhausted { total },
        Some((index, entries)) => SearchOutcome::Found {
            index: index as u64,
            entries,
        },
    })
}

/// Exhaustively checks that **no** assignment with per-vertex certificates
/// of at most `max_bits` bits is accepted on `instance`, on the global
/// [`locert_par`] pool; `Ok(checked)` counts the assignments tried.
///
/// # Errors
///
/// [`SoundnessError::Fooled`] with the least fooling assignment, or
/// [`SoundnessError::BudgetExceeded`] when the `(2^{max_bits+1} - 1)^n`
/// assignments exceed `budget`, so campaigns can skip oversized sweeps.
pub fn exhaustive_soundness(
    verifier: &dyn Verifier,
    instance: &Instance<'_>,
    max_bits: usize,
    budget: u64,
) -> Result<u64, SoundnessError> {
    exhaustive_soundness_in(locert_par::global(), verifier, instance, max_bits, budget)
}

/// [`exhaustive_soundness`] on an explicit pool: one [`search_in`] with
/// every vertex free and checked over the bit strings in (length, value)
/// order, vertex 0 the least-significant digit. Witness, count and the
/// `core.attacks.exhaustive.assignments` counter, its one trace, are a
/// sequential sweep's at any worker count.
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
    // All bit strings of length 0..=max_bits, sorted by (length, value).
    let mut candidates: Vec<Certificate> = Vec::new();
    for len in 0..=max_bits {
        for value in 0..(1u64 << len) {
            let mut w = BitWriter::new();
            w.write(value, len as u32);
            candidates.push(w.finish());
        }
    }
    let all: Vec<NodeId> = instance.graph().nodes().collect();
    let search = Search {
        candidates: &candidates,
        fixed: &vec![0; all.len()],
        free: &all,
        range: 0..candidates.len(),
        checked: &all,
    };
    let outcome = search_in(pool, verifier, instance, &search, budget)?;
    if locert_trace::enabled() {
        locert_trace::add("core.attacks.exhaustive.assignments", outcome.covered());
    }
    match outcome {
        SearchOutcome::Exhausted { total } => Ok(total),
        SearchOutcome::Found { entries, .. } => Err(SoundnessError::Fooled(Box::new(
            Assignment::from_unpacked(entries.iter().map(|&e| candidates[e].clone()).collect()),
        ))),
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

    /// The sweep's reference semantics, independent of the engine: every
    /// full assignment in the canonical order (certificates sorted by
    /// (length, value), vertex 0 the least-significant digit), one
    /// `run_verification` each, up to the first one accepted.
    fn reference_sweep(
        verifier: &dyn Verifier,
        instance: &Instance<'_>,
        max_bits: usize,
    ) -> Result<u64, SoundnessError> {
        let mut space = Vec::new();
        for len in 0..=max_bits {
            for value in 0..(1u64 << len) {
                let mut w = BitWriter::new();
                w.write(value, len as u32);
                space.push(w.finish());
            }
        }
        let (n, m) = (instance.graph().num_nodes(), space.len());
        let total = m.pow(n as u32);
        for idx in 0..total {
            let mut rest = idx;
            let certs: Vec<_> = (0..n)
                .map(|_| {
                    let cert = space[rest % m].clone();
                    rest /= m;
                    cert
                })
                .collect();
            let asg = Assignment::new(certs);
            if run_verification(verifier, instance, &asg).accepted() {
                return Err(SoundnessError::Fooled(Box::new(asg)));
            }
        }
        Ok(total as u64)
    }

    /// Requires the engine, at 1 and 4 workers, to return exactly what
    /// the reference sweep returns.
    fn assert_agrees(verifier: &dyn Verifier, instance: &Instance<'_>, max_bits: usize) {
        let reference = reference_sweep(verifier, instance, max_bits);
        for threads in [1, 4] {
            let pool = Pool::new(threads);
            assert_eq!(
                exhaustive_soundness_in(&pool, verifier, instance, max_bits, 1_000_000),
                reference,
                "max_bits = {max_bits}, threads = {threads}"
            );
        }
    }

    #[test]
    fn sweep_agrees_with_reference_on_test_verifiers() {
        let verifiers: [&dyn Verifier; 3] =
            [&TokenVerifier, &PrefixTokenVerifier, &AcceptAllVerifier];
        for g in [generators::cycle(3), generators::path(3)] {
            let ids = IdAssignment::contiguous(3);
            let inst = Instance::new(&g, &ids);
            for verifier in verifiers {
                for max_bits in [1, 2] {
                    assert_agrees(verifier, &inst, max_bits);
                }
            }
        }
    }

    #[test]
    fn sweep_agrees_with_reference_on_s1b_cases() {
        use crate::schemes::acyclicity::AcyclicityScheme;
        use crate::schemes::spanning_tree::VertexCountScheme;
        use crate::schemes::tree_depth_bound::TreeDepthBoundScheme;
        use crate::schemes::tree_diameter::TreeDiameterScheme;
        // S1b's scheme/no-instance pairs (`s1_soundness::exhaustive_cases`).
        let cases: [(&dyn Verifier, locert_graph::Graph); 4] = [
            (&AcyclicityScheme::new(6), generators::cycle(4)),
            (&VertexCountScheme::new(6, 5), generators::path(4)),
            (&TreeDiameterScheme::new(6, 1), generators::path(4)),
            (&TreeDepthBoundScheme::new(1), generators::path(4)),
        ];
        let ids = IdAssignment::contiguous(4);
        for (verifier, g) in &cases {
            let inst = Instance::new(g, &ids);
            for max_bits in [1, 2] {
                assert_agrees(*verifier, &inst, max_bits);
            }
        }
    }

    #[test]
    fn exhaustive_early_exit_reports_least_witness_at_any_thread_count() {
        let g = generators::cycle(3);
        let ids = IdAssignment::contiguous(3);
        let inst = Instance::new(&g, &ids);
        // The reference: the sloppy verifier's least fooling assignment in
        // the max_bits = 2 space is "1" everywhere, and "11" at vertex 0
        // fools it too, so the early exit has real choices to make.
        let reference = match reference_sweep(&PrefixTokenVerifier, &inst, 2) {
            Err(SoundnessError::Fooled(asg)) => *asg,
            other => panic!("expected Fooled, got {other:?}"),
        };
        let mut one = BitWriter::new();
        one.write_bit(true);
        assert_eq!(reference, Assignment::new(vec![one.finish(); 3]));
        // Parallel pools must report the exact same witness, every time.
        let parallel = Pool::new(4);
        for round in 0..10 {
            match exhaustive_soundness_in(&parallel, &PrefixTokenVerifier, &inst, 2, 1_000_000) {
                Err(SoundnessError::Fooled(asg)) => {
                    assert_eq!(*asg, reference, "witness diverged in round {round}");
                }
                other => panic!("expected Fooled, got {other:?}"),
            }
        }
    }

    #[test]
    fn search_keeps_fixed_entries_and_checks_only_the_checked() {
        // Vertex 1 of a 3-path is fixed to "1"; the endpoints range over
        // {"", "0", "1"}, and only the middle vertex is checked, so the
        // least labelling is (0, 0): it covers one labelling of nine.
        let g = generators::path(3);
        let ids = IdAssignment::contiguous(3);
        let inst = Instance::new(&g, &ids);
        let mut one = BitWriter::new();
        one.write_bit(true);
        let mut zero = BitWriter::new();
        zero.write_bit(false);
        let candidates = [Certificate::empty(), zero.finish(), one.finish()];
        let (ends, middle) = ([NodeId(0), NodeId(2)], [NodeId(1)]);
        let search = |checked| Search {
            candidates: &candidates,
            fixed: &[0, 2, 0],
            free: &ends,
            range: 0..3,
            checked,
        };
        let pool = Pool::new(1);
        let found = search_in(&pool, &TokenVerifier, &inst, &search(&middle), 100).unwrap();
        assert_eq!(
            found,
            SearchOutcome::Found {
                index: 0,
                entries: vec![0, 2, 0]
            }
        );
        assert_eq!(found.covered(), 1);
        // Checking the endpoints too (degree 1) exhausts all nine.
        let all = [NodeId(0), NodeId(1), NodeId(2)];
        assert_eq!(
            search_in(&pool, &TokenVerifier, &inst, &search(&all), 100),
            Ok(SearchOutcome::Exhausted { total: 9 })
        );
        assert_eq!(
            search_in(&pool, &TokenVerifier, &inst, &search(&all), 8),
            Err(SoundnessError::BudgetExceeded {
                space: Some(9),
                budget: 8
            })
        );
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
