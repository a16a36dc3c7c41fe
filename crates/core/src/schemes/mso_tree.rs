//! MSO certification on trees with O(1)-bit certificates (Theorem 2.2).
//!
//! The scheme labels every vertex with
//!
//! 1. its distance to a prover-chosen root **mod 3** (2 bits) — enough to
//!    orient the tree consistently;
//! 2. its state in an accepting run of the property's tree automaton
//!    (`⌈log₂|Q|⌉` bits);
//! 3. a fingerprint of the automaton (16 bits) — the paper ships the
//!    automaton description itself, which is a constant; the fingerprint
//!    plays that role here since the verifier is constructed with the
//!    automaton.
//!
//! Verification at a vertex: the mod-3 counters orient its edges (one
//! neighbor at `d − 1` — the parent — or none — the root); the children's
//! states must satisfy the automaton guard for the vertex's state and
//! label; the root's state must accept.
//!
//! The scheme operates under the paper's *promise* that the input graph
//! is a tree (Theorem 2.2 is stated for trees). Without the promise,
//! compose with [`crate::schemes::acyclicity`] — at the price of
//! `O(log n)` bits, which the paper notes is unavoidable for tree-ness.
//!
//! Labels: the vertex *inputs* of the instance are used as node labels
//! (the paper's locally-checkable-labeling extension); unlabeled trees
//! use input 0 everywhere.

use crate::bits::{width_for, BitReader};
use crate::framework::{
    Assignment, DeclaredBound, Decode, DecodedView, Instance, Prover, ProverError, RejectReason,
    Scheme,
};
use locert_automata::trees::{LabeledTree, TreeAutomaton, MAX_STATES};
use locert_graph::{NodeId, RootedTree};

/// 16-bit FNV-1a fingerprint of an automaton's debug serialization.
fn fingerprint(a: &TreeAutomaton) -> u64 {
    let s = format!("{a:?}");
    let mut h: u64 = 0xcbf29ce484222325;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h & 0xffff
}

/// Certifies an automaton-recognized (hence MSO) property of labeled
/// trees with constant-size certificates.
#[derive(Debug, Clone)]
pub struct MsoTreeScheme {
    automaton: TreeAutomaton,
    state_bits: u32,
    fp: u64,
}

impl MsoTreeScheme {
    /// Builds the scheme for `automaton`.
    pub fn new(automaton: TreeAutomaton) -> Self {
        // max(1) guards the subtraction: a degenerate automaton with no
        // states (which accepts nothing) must not underflow the width.
        let state_bits = width_for((automaton.num_states() as u64).max(1) - 1);
        let fp = fingerprint(&automaton);
        MsoTreeScheme {
            automaton,
            state_bits,
            fp,
        }
    }

    /// The underlying automaton.
    pub fn automaton(&self) -> &TreeAutomaton {
        &self.automaton
    }

    /// Certificate size in bits — a constant for a fixed automaton.
    pub fn certificate_bits(&self) -> usize {
        2 + self.state_bits as usize + 16
    }
}

impl Prover for MsoTreeScheme {
    fn assign(&self, instance: &Instance<'_>) -> Result<Assignment, ProverError> {
        let _span = locert_trace::span!("core.schemes.mso_tree.prover");
        let g = instance.graph();
        let rooted = RootedTree::from_tree(g, NodeId(0)).ok_or(ProverError::NotAYesInstance)?;
        let labels: Vec<usize> = g.nodes().map(|v| instance.input(v)).collect();
        let tree = LabeledTree::new(rooted, labels, self.automaton.num_labels())
            .ok_or(ProverError::NotAYesInstance)?;
        let run = self
            .automaton
            .accepting_run(&tree)
            .ok_or(ProverError::NotAYesInstance)?;
        Ok(Assignment::write_each(g.num_nodes(), |v, w| {
            w.component("depth-mod-3");
            w.write((tree.tree().depth(v) % 3) as u64, 2);
            w.component("automaton-state");
            w.write(run[v.0] as u64, self.state_bits);
            w.component("automaton-fingerprint");
            w.write(self.fp, 16);
        }))
    }
}

impl Decode for MsoTreeScheme {
    /// Depth mod 3 and automaton state.
    type Decoded = Option<(u64, usize)>;
    type Cache = ();

    fn decode(&self, mut r: BitReader<'_>, _: &()) -> Option<(u64, usize)> {
        let d = r.read(2)?;
        let q = r.read(self.state_bits)? as usize;
        let fp = r.read(16)?;
        (d < 3 && q < self.automaton.num_states() && fp == self.fp && r.exhausted())
            .then_some((d, q))
    }

    fn decide_decoded(
        &self,
        view: &DecodedView<'_, Option<(u64, usize)>>,
    ) -> Result<(), RejectReason> {
        if view.input >= self.automaton.num_labels() {
            return Err(RejectReason::BadInput);
        }
        let (d, q) = view.own.ok_or(RejectReason::MalformedCertificate)?;
        // Orient edges by mod-3 counters.
        let mut parents = 0usize;
        // On the stack: an automaton has at most `MAX_STATES` states.
        let mut counts = [0usize; MAX_STATES];
        let child_counts = &mut counts[..self.automaton.num_states()];
        for (_, _, decoded) in view.neighbors() {
            let (nd, nq) = decoded.ok_or(RejectReason::MalformedNeighborCertificate)?;
            if nd == (d + 1) % 3 {
                child_counts[nq] += 1;
            } else if nd == (d + 2) % 3 {
                parents += 1;
            } else {
                // Equal counters across an edge break the orientation.
                return Err(RejectReason::CounterMismatch);
            }
        }
        match parents {
            // I am the root: my state must accept.
            0 if !self.automaton.is_accepting(q) => return Err(RejectReason::NotAccepting),
            0 | 1 => {}
            // Two parents cannot happen in a tree.
            _ => return Err(RejectReason::RootMismatch),
        }
        if !self.automaton.guard(q, view.input).eval(child_counts) {
            return Err(RejectReason::AutomatonStateClash);
        }
        Ok(())
    }
}

impl Scheme for MsoTreeScheme {
    fn name(&self) -> String {
        format!("mso-tree[{} states]", self.automaton.num_states())
    }

    fn declared_bound(&self) -> DeclaredBound {
        // Theorem 2.2: 2 + ⌈log₂|Q|⌉ + 16 bits, independent of n.
        DeclaredBound::Constant
    }
}

/// Theorem 2.2 *without* the tree promise: conjoin the acyclicity scheme
/// (which certifies tree-ness with `O(log n)` bits — unavoidable, per the
/// paper's remark that acyclicity needs `Ω(log n)` \[31, 37]) with the
/// constant-size automaton-run scheme.
pub fn checked_mso_tree(
    id_bits: u32,
    automaton: TreeAutomaton,
) -> crate::schemes::combinators::AndScheme<
    crate::schemes::acyclicity::AcyclicityScheme,
    MsoTreeScheme,
> {
    crate::schemes::combinators::AndScheme::new(
        crate::schemes::acyclicity::AcyclicityScheme::new(id_bits),
        MsoTreeScheme::new(automaton),
        16,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attacks;
    use crate::bits::BitWriter;
    use crate::framework::{run_scheme, run_verification};
    use locert_automata::library;
    use locert_graph::{generators, IdAssignment};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn constant_size_certificates() {
        // The headline of Theorem 2.2: certificate size does not grow
        // with n.
        let scheme = MsoTreeScheme::new(library::has_perfect_matching());
        let mut sizes = Vec::new();
        for n in [2usize, 16, 256, 2048] {
            let g = generators::path(n);
            let ids = IdAssignment::contiguous(n);
            let inst = Instance::new(&g, &ids);
            let out = run_scheme(&scheme, &inst).unwrap();
            assert!(out.accepted(), "n = {n}");
            sizes.push(out.max_bits());
        }
        assert!(sizes.windows(2).all(|w| w[0] == w[1]), "sizes {sizes:?}");
        assert_eq!(sizes[0], scheme.certificate_bits());
    }

    #[test]
    fn completeness_and_prover_refusal_across_library() {
        let mut rng = StdRng::seed_from_u64(121);
        let schemes = vec![
            MsoTreeScheme::new(library::height_at_most(4)),
            MsoTreeScheme::new(library::has_perfect_matching()),
            MsoTreeScheme::new(library::max_children_at_most(3)),
            MsoTreeScheme::new(library::some_leaf_at_depth(2)),
        ];
        for _ in 0..15 {
            let n = 2 + rand::RngExt::random_range(&mut rng, 0..12usize);
            let g = generators::random_tree(n, &mut rng);
            let ids = IdAssignment::shuffled(n, &mut rng);
            let inst = Instance::new(&g, &ids);
            for scheme in &schemes {
                // Ground truth straight from the automaton.
                let rooted = RootedTree::from_tree(&g, NodeId(0)).unwrap();
                let t = LabeledTree::unlabeled(rooted);
                let expected = scheme.automaton().accepts(&t);
                match run_scheme(scheme, &inst) {
                    Ok(out) => {
                        assert!(out.accepted());
                        assert!(expected, "{} accepted a no-instance", scheme.name());
                    }
                    Err(ProverError::NotAYesInstance) => {
                        assert!(!expected, "{} refused a yes-instance", scheme.name());
                    }
                    Err(e) => panic!(
                        "prover error for {} on {n}-vertex tree {g:?}: {e}",
                        scheme.name()
                    ),
                }
            }
        }
    }

    #[test]
    fn forged_state_rejected() {
        let scheme = MsoTreeScheme::new(library::has_perfect_matching());
        let g = generators::path(4);
        let ids = IdAssignment::contiguous(4);
        let inst = Instance::new(&g, &ids);
        let mut asg = scheme.assign(&inst).unwrap();
        // Corrupt vertex 2's state field (bits 2..2+state_bits).
        let c = asg.cert(NodeId(2)).clone();
        *asg.cert_mut(NodeId(2)) = c.with_bit_flipped(2);
        assert!(!run_verification(&scheme, &inst, &asg).accepted());
    }

    #[test]
    fn no_instance_attacks_rejected() {
        // P_5 has no perfect matching: the prover refuses and random
        // certificates must fail somewhere.
        let scheme = MsoTreeScheme::new(library::has_perfect_matching());
        let g = generators::path(5);
        let ids = IdAssignment::contiguous(5);
        let inst = Instance::new(&g, &ids);
        assert_eq!(
            run_scheme(&scheme, &inst).unwrap_err(),
            ProverError::NotAYesInstance
        );
        let mut rng = StdRng::seed_from_u64(122);
        assert!(attacks::random_assignments(
            &scheme,
            &inst,
            scheme.certificate_bits(),
            &mut rng,
            500
        )
        .is_none());
    }

    #[test]
    fn exhaustive_soundness_over_valid_shaped_certs() {
        // Star on 4 vertices has no perfect matching (3 leaves): exhaust
        // all certificates whose fingerprint field is correct — the only
        // ones that can pass parsing — over all (d, q) pairs.
        let scheme = MsoTreeScheme::new(library::has_perfect_matching());
        let g = generators::star(4);
        let ids = IdAssignment::contiguous(4);
        let inst = Instance::new(&g, &ids);
        let options: Vec<crate::bits::Certificate> = (0..3u64)
            .flat_map(|d| (0..3u64).map(move |q| (d, q)))
            .map(|(d, q)| {
                let mut w = BitWriter::new();
                w.write(d, 2);
                w.write(q, scheme.state_bits);
                w.write(scheme.fp, 16);
                w.finish()
            })
            .collect();
        let all: Vec<NodeId> = g.nodes().collect();
        let search = attacks::Search {
            candidates: &options,
            fixed: &[0; 4],
            free: &all,
            range: 0..options.len(),
            checked: &all,
        };
        assert_eq!(
            attacks::search_in(locert_par::global(), &scheme, &inst, &search, 10_000),
            Ok(attacks::SearchOutcome::Exhausted { total: 9u64.pow(4) })
        );
    }

    #[test]
    fn labeled_instance_flow() {
        // Automaton over 2 labels: accept iff the root's label is 1
        // (state = own label, parent checks nothing).
        use locert_automata::trees::Guard;
        let a = TreeAutomaton::new(
            2,
            2,
            vec![
                vec![Guard::True, Guard::False],
                vec![Guard::False, Guard::True],
            ],
            vec![false, true],
        )
        .unwrap();
        let scheme = MsoTreeScheme::new(a);
        let g = generators::star(4);
        let ids = IdAssignment::contiguous(4);
        let labels_yes = vec![1usize, 0, 0, 0]; // root (vertex 0) labeled 1.
        let inst = Instance::with_inputs(&g, &ids, &labels_yes);
        assert!(run_scheme(&scheme, &inst).unwrap().accepted());
        let labels_no = vec![0usize, 1, 1, 1];
        let inst2 = Instance::with_inputs(&g, &ids, &labels_no);
        assert_eq!(
            run_scheme(&scheme, &inst2).unwrap_err(),
            ProverError::NotAYesInstance
        );
    }

    #[test]
    fn prover_rejects_non_trees() {
        let scheme = MsoTreeScheme::new(library::height_at_most(3));
        let g = generators::cycle(4);
        let ids = IdAssignment::contiguous(4);
        let inst = Instance::new(&g, &ids);
        assert_eq!(
            run_scheme(&scheme, &inst).unwrap_err(),
            ProverError::NotAYesInstance
        );
    }

    #[test]
    fn checked_variant_drops_the_tree_promise() {
        use crate::framework::Scheme;
        // On a 3-divisible cycle, a forged mod-3 orientation could fool
        // the bare scheme — the checked variant's acyclicity layer
        // catches it.
        let g = generators::cycle(6);
        let ids = IdAssignment::contiguous(6);
        let inst = Instance::new(&g, &ids);
        let bare = MsoTreeScheme::new(library::max_children_at_most(2));
        let checked = checked_mso_tree(
            crate::schemes::common::id_bits_for(&inst),
            library::max_children_at_most(2),
        );
        // Forged bare certificates: orient the 6-cycle with counters
        // 0,1,2,0,1,2 and state 0 everywhere (every vertex then sees one
        // parent and one child — locally tree-like!).
        let certs: Vec<crate::bits::Certificate> = (0..6)
            .map(|v| {
                let mut w = BitWriter::new();
                w.write((v % 3) as u64, 2);
                w.write(0, bare.state_bits);
                w.write(bare.fp, 16);
                w.finish()
            })
            .collect();
        let asg = Assignment::new(certs);
        // The bare scheme is fooled (this is exactly why it runs under a
        // promise)…
        assert!(run_verification(&bare, &inst, &asg).accepted());
        // …the checked scheme cannot be: random attacks at its exact
        // certificate width all fail (acyclicity is unforgeable on a
        // cycle).
        let mut rng = StdRng::seed_from_u64(123);
        let honest_width = {
            // Width on a same-size tree, for a realistic budget.
            let t = generators::path(6);
            let inst_t = Instance::new(&t, &ids);
            checked.assign(&inst_t).unwrap().max_bits()
        };
        assert!(
            attacks::random_assignments(&checked, &inst, honest_width, &mut rng, 300).is_none()
        );
        // And on genuine trees the checked scheme still works, at
        // O(log n) total (a path rooted anywhere has ≤ 2 children).
        let tree = generators::path(6);
        let inst_tree = Instance::new(&tree, &ids);
        let out = run_scheme(&checked, &inst_tree).unwrap();
        assert!(out.accepted());
        assert_eq!(checked.name(), "(acyclicity AND mso-tree[2 states])");
    }

    #[test]
    fn distinct_automata_have_distinct_fingerprints() {
        let a = fingerprint(&library::has_perfect_matching());
        let b = fingerprint(&library::height_at_most(3));
        assert_ne!(a, b);
    }
}
