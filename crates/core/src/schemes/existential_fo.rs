//! Existential FO certification (Lemma A.2).
//!
//! An existential-prenex sentence `∃x₁ … ∃x_k φ` (quantifier-free `φ`) is
//! certified with `O(k log n)` bits: every vertex receives
//!
//! 1. the identifiers of witnesses `v₁, …, v_k`;
//! 2. the `k × k` adjacency matrix of the witnesses;
//! 3. for each `i`, spanning-tree fields pointing to `v_i`.
//!
//! Verification (per the paper's proof): neighbors carry the same list
//! and matrix; the `i`-th spanning tree is locally correct and its root's
//! identifier is `v_i` (so each witness really exists); each witness
//! checks its own matrix row against its visible neighbor identifiers;
//! every vertex checks the matrix is symmetric, loop-free, and that it
//! satisfies `φ`.

use crate::bits::{BitReader, Certificate};
use crate::framework::{
    Assignment, DeclaredBound, Decode, DecodedView, Instance, Memo, Prover, ProverError,
    RejectReason, Scheme, Shared,
};
use crate::schemes::common::{read_ident, write_ident};
use crate::schemes::spanning_tree::{try_honest_tree_fields, verify_tree_position, TreeFields};
use locert_graph::{Graph, IdAssignment, Ident, NodeId};
use locert_logic::ast::{Formula, Var};
use locert_logic::depth::existential_prefix;
use std::sync::Arc;

/// The witness identifiers and their row-major adjacency matrix: the
/// part of the certificate every vertex carries identically.
pub struct WitnessClaim {
    witnesses: Vec<Ident>,
    matrix: Vec<bool>,
}

/// Parsed existential-FO certificate.
pub struct ExistentialCert {
    /// The claim, keyed by its `k·id_bits + k²` bits: every fixed-width
    /// field reads back to a distinct value, so two claims are equal iff
    /// their bits are.
    pub(crate) claim: Arc<Shared<WitnessClaim>>,
    trees: Box<[TreeFields]>,
}

/// The quantifier-free matrix with every variable resolved, once at
/// construction, to its witness index: the first prefix position that
/// binds it.
#[derive(Debug, Clone)]
enum Matrix {
    True,
    False,
    Eq(usize, usize),
    Adj(usize, usize),
    Not(Box<Matrix>),
    And(Box<Matrix>, Box<Matrix>),
    Or(Box<Matrix>, Box<Matrix>),
    Implies(Box<Matrix>, Box<Matrix>),
}

impl Matrix {
    fn resolve(f: &Formula, prefix: &[Var]) -> Matrix {
        let idx = |v: &Var| {
            prefix
                .iter()
                .position(|p| p == v)
                .expect("matrix variables come from the prefix")
        };
        let sub = |g: &Formula| Box::new(Matrix::resolve(g, prefix));
        match f {
            Formula::True => Matrix::True,
            Formula::Eq(x, y) => Matrix::Eq(idx(x), idx(y)),
            Formula::Adj(x, y) => Matrix::Adj(idx(x), idx(y)),
            Formula::Not(g) => Matrix::Not(sub(g)),
            Formula::And(a, b) => Matrix::And(sub(a), sub(b)),
            Formula::Or(a, b) => Matrix::Or(sub(a), sub(b)),
            Formula::Implies(a, b) => Matrix::Implies(sub(a), sub(b)),
            // Quantifiers/membership cannot appear (checked at build).
            _ => Matrix::False,
        }
    }

    /// Evaluates against witness identifiers and the row-major `k × k`
    /// adjacency matrix.
    fn holds(&self, witnesses: &[Ident], adjacency: &[bool], k: usize) -> bool {
        match self {
            Matrix::True => true,
            Matrix::False => false,
            Matrix::Eq(x, y) => witnesses[*x] == witnesses[*y],
            Matrix::Adj(x, y) => adjacency[x * k + y],
            Matrix::Not(g) => !g.holds(witnesses, adjacency, k),
            Matrix::And(a, b) => {
                a.holds(witnesses, adjacency, k) && b.holds(witnesses, adjacency, k)
            }
            Matrix::Or(a, b) => {
                a.holds(witnesses, adjacency, k) || b.holds(witnesses, adjacency, k)
            }
            Matrix::Implies(a, b) => {
                !a.holds(witnesses, adjacency, k) || b.holds(witnesses, adjacency, k)
            }
        }
    }
}

/// Certifies an existential-prenex FO sentence.
#[derive(Debug, Clone)]
pub struct ExistentialFoScheme {
    id_bits: u32,
    prefix: Vec<Var>,
    matrix: Matrix,
}

impl ExistentialFoScheme {
    /// Builds a scheme from a sentence in existential prenex form.
    ///
    /// Returns `None` if the sentence is not existential-prenex FO.
    pub fn new(id_bits: u32, sentence: &Formula) -> Option<Self> {
        let (prefix, matrix) = existential_prefix(sentence)?;
        if !sentence.is_sentence() {
            return None;
        }
        Some(ExistentialFoScheme {
            id_bits,
            matrix: Matrix::resolve(matrix, &prefix),
            prefix,
        })
    }

    /// Builds the scheme from *any* FO sentence whose prenex normal form
    /// is existential — the exact Lemma 2.1 statement. Prenexification
    /// (with renaming-apart) happens here, so e.g. `¬∀x.¬φ` is accepted.
    ///
    /// Returns `None` when the sentence is not FO, not closed, or its
    /// prenex prefix contains a universal quantifier.
    pub fn from_any_fo(id_bits: u32, sentence: &Formula) -> Option<Self> {
        let normal = locert_logic::prenex::existential_normal_form(sentence)?;
        Self::new(id_bits, &normal)
    }

    /// Number of witnesses `k`.
    pub fn arity(&self) -> usize {
        self.prefix.len()
    }

    /// Parses the claim bits: `k` identifiers, then the `k × k` matrix.
    fn parse_claim(&self, bits: &Certificate) -> Option<WitnessClaim> {
        let k = self.arity();
        let mut r = BitReader::new(bits);
        let witnesses = (0..k)
            .map(|_| read_ident(&mut r, self.id_bits))
            .collect::<Option<_>>()?;
        let matrix = (0..k * k).map(|_| r.read_bit()).collect::<Option<_>>()?;
        Some(WitnessClaim { witnesses, matrix })
    }

    /// Evaluates the quantifier-free matrix formula against the claimed
    /// witness identifiers and adjacency matrix.
    fn matrix_holds(&self, witnesses: &[Ident], matrix: &[bool]) -> bool {
        self.matrix.holds(witnesses, matrix, self.arity())
    }

    /// The first witness tuple, in the order that counts the tuple up
    /// like a number with `v₁` as its lowest digit, whose identifiers and
    /// row-major adjacency matrix satisfy the matrix formula: the tuple,
    /// its identifiers and its matrix. A brute-force `n^k` search
    /// (experiment workloads keep `k` small) over buffers it fills in
    /// place, so a step allocates nothing.
    fn search(&self, g: &Graph, ids: &IdAssignment) -> Option<(Vec<usize>, Vec<Ident>, Vec<bool>)> {
        let k = self.arity();
        let n = g.num_nodes();
        let mut choice = vec![0usize; k];
        let mut witnesses = vec![Ident(0); k];
        let mut matrix = vec![false; k * k];
        loop {
            for (id, &c) in witnesses.iter_mut().zip(&choice) {
                *id = ids.ident(NodeId(c));
            }
            for (cell, at) in matrix.iter_mut().zip(0..) {
                *cell = g.has_edge(NodeId(choice[at / k]), NodeId(choice[at % k]));
            }
            if self.matrix_holds(&witnesses, &matrix) {
                return Some((choice, witnesses, matrix));
            }
            let mut i = 0;
            loop {
                if i == k {
                    return None;
                }
                choice[i] += 1;
                if choice[i] < n {
                    break;
                }
                choice[i] = 0;
                i += 1;
            }
        }
    }
}

impl Prover for ExistentialFoScheme {
    fn assign(&self, instance: &Instance<'_>) -> Result<Assignment, ProverError> {
        let _span = locert_trace::span!("core.schemes.existential_fo.prover");
        let g = instance.graph();
        let ids = instance.ids();
        if g.num_nodes() == 0 && self.arity() > 0 {
            // ∃-sentences are false over an empty domain; the witness
            // search would index vertex 0.
            return Err(ProverError::NotAYesInstance);
        }
        let (witnesses_idx, witness_ids, matrix) =
            self.search(g, ids).ok_or(ProverError::NotAYesInstance)?;
        // Witnesses can exist in a disconnected graph, but the witness
        // spanning trees cannot: surface the broken connected-graph
        // promise as a typed error instead of panicking.
        let trees: Vec<Vec<TreeFields>> = witnesses_idx
            .iter()
            .map(|&w| try_honest_tree_fields(instance, NodeId(w)))
            .collect::<Option<_>>()
            .ok_or_else(|| {
                ProverError::WitnessUnavailable(
                    "instance is disconnected (connected-graph promise)".into(),
                )
            })?;
        Ok(Assignment::write_each(g.num_nodes(), |v, w| {
            w.component("witness-ids");
            for &id in &witness_ids {
                write_ident(w, id, self.id_bits);
            }
            w.component("adjacency");
            for &b in &matrix {
                w.write_bit(b);
            }
            for tf in &trees {
                tf[v.0].write(w, self.id_bits);
            }
        }))
    }
}

impl Decode for ExistentialFoScheme {
    type Decoded = Option<ExistentialCert>;
    /// In an honest run every certificate makes the same claim, so the
    /// arena holds one copy of it.
    type Cache = Memo<WitnessClaim>;

    fn decode(&self, mut r: BitReader<'_>, memo: &Memo<WitnessClaim>) -> Option<ExistentialCert> {
        let k = self.arity();
        let claim = r.take(k * self.id_bits as usize + k * k)?;
        // Exactly `k` entries: the one allocation of the decode.
        let mut trees = Vec::with_capacity(k);
        for _ in 0..k {
            trees.push(TreeFields::read(&mut r, self.id_bits)?);
        }
        if !r.exhausted() {
            return None;
        }
        Some(ExistentialCert {
            claim: memo.get(claim, |bits| self.parse_claim(bits)),
            trees: trees.into_boxed_slice(),
        })
    }

    fn decide_decoded(
        &self,
        view: &DecodedView<'_, Option<ExistentialCert>>,
    ) -> Result<(), RejectReason> {
        let k = self.arity();
        let mine = view
            .own
            .as_ref()
            .ok_or(RejectReason::MalformedCertificate)?;
        let claim = mine
            .claim
            .parsed(|bits| self.parse_claim(bits))
            .ok_or(RejectReason::MalformedCertificate)?;
        let WitnessClaim { witnesses, matrix } = &*claim;
        // Neighbors carry identical lists and matrices.
        for (_, _, decoded) in view.neighbors() {
            let nc = decoded
                .as_ref()
                .ok_or(RejectReason::MalformedNeighborCertificate)?;
            if !Arc::ptr_eq(&nc.claim, &mine.claim) && nc.claim.bits() != mine.claim.bits() {
                return Err(RejectReason::CopyMismatch);
            }
        }
        // Matrix shape: symmetric, loop-free.
        for i in 0..k {
            if matrix[i * k + i] {
                return Err(RejectReason::MalformedCertificate);
            }
            for j in 0..k {
                if matrix[i * k + j] != matrix[j * k + i] {
                    return Err(RejectReason::MalformedCertificate);
                }
            }
        }
        // Spanning trees: tree i points at witness i.
        for (i, (f, &witness)) in mine.trees.iter().zip(witnesses).enumerate() {
            if f.root != witness {
                return Err(RejectReason::RootMismatch);
            }
            verify_tree_position(view, f, |d| d.as_ref().map(|nc| nc.trees[i]))?;
        }
        // If I am a witness, audit my matrix row against my real
        // neighborhood.
        for i in 0..k {
            if witnesses[i] != view.id {
                continue;
            }
            for j in 0..k {
                if j == i {
                    continue;
                }
                let expected = if witnesses[j] == view.id {
                    false
                } else {
                    view.has_neighbor(witnesses[j])
                };
                if matrix[i * k + j] != expected {
                    return Err(RejectReason::AdjacencyMismatch);
                }
            }
        }
        // The matrix must satisfy φ.
        if self.matrix_holds(witnesses, matrix) {
            Ok(())
        } else {
            Err(RejectReason::PropertyViolation)
        }
    }
}

impl Scheme for ExistentialFoScheme {
    fn name(&self) -> String {
        format!("existential-fo[k={}]", self.arity())
    }

    fn declared_bound(&self) -> DeclaredBound {
        // O(k log n) for fixed k (Lemma A.2): witness ids, matrix, and k
        // spanning trees are each identifier-width per field.
        DeclaredBound::LogN
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attacks;
    use crate::bits::BitWriter;
    use crate::framework::{run_scheme, run_verification};
    use crate::schemes::common::id_bits_for;
    use crate::schemes::spanning_tree::honest_tree_fields;
    use locert_graph::generators;
    use locert_logic::props;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The witness search as it stood: fresh identifier and matrix
    /// vectors, and a copy of the tuple per matrix cell, at every step.
    fn search_reference(
        scheme: &ExistentialFoScheme,
        g: &Graph,
        ids: &IdAssignment,
    ) -> Option<Vec<usize>> {
        let k = scheme.arity();
        let n = g.num_nodes();
        let mut choice = vec![0usize; k];
        loop {
            let witnesses: Vec<Ident> = choice.iter().map(|&i| ids.ident(NodeId(i))).collect();
            let matrix: Vec<bool> = (0..k)
                .flat_map(|i| {
                    let choice = choice.clone();
                    (0..k).map(move |j| (i, j, choice.clone()))
                })
                .map(|(i, j, ch)| g.has_edge(NodeId(ch[i]), NodeId(ch[j])))
                .collect();
            if scheme.matrix_holds(&witnesses, &matrix) {
                return Some(choice);
            }
            let mut i = 0;
            loop {
                if i == k {
                    return None;
                }
                choice[i] += 1;
                if choice[i] < n {
                    break;
                }
                choice[i] = 0;
                i += 1;
            }
        }
    }

    #[test]
    fn search_finds_the_reference_witnesses() {
        let sentences = [
            props::has_clique(3),
            props::has_independent_set(3),
            props::has_path(4),
            props::has_cycle_of_length(4),
        ];
        let mut rng = StdRng::seed_from_u64(29);
        let mut found = 0;
        for round in 0..60 {
            let n = 1 + round % 9;
            let g = generators::random_connected(n, round % 5, &mut rng);
            let ids = IdAssignment::random_polynomial(n, 2, &mut rng);
            for sentence in &sentences {
                let scheme = ExistentialFoScheme::new(8, sentence).unwrap();
                let searched = scheme.search(&g, &ids);
                let expected = search_reference(&scheme, &g, &ids);
                assert_eq!(searched.as_ref().map(|s| &s.0), expected.as_ref());
                if expected.is_none() {
                    let refused = scheme.assign(&Instance::new(&g, &ids));
                    assert!(matches!(refused, Err(ProverError::NotAYesInstance)));
                }
                if let Some((choice, witnesses, matrix)) = searched {
                    found += 1;
                    let named: Vec<Ident> = choice.iter().map(|&c| ids.ident(NodeId(c))).collect();
                    assert_eq!(witnesses, named);
                    assert!(scheme.matrix_holds(&witnesses, &matrix));
                }
            }
        }
        assert!(found > 20 && found < 200, "{found} of 240 searches succeed");
    }

    #[test]
    fn rejects_non_existential_sentences() {
        assert!(ExistentialFoScheme::new(4, &props::diameter_at_most_2()).is_none());
        assert!(ExistentialFoScheme::new(4, &props::has_clique(3)).is_some());
    }

    #[test]
    fn from_any_fo_prenexifies() {
        use locert_logic::ast::{adj, exists, forall, not};
        // ¬∀x0.¬∃x1. x0 ~ x1 ≡ ∃∃ …: accepted after prenexification.
        let f = not(forall(Var(0), not(exists(Var(1), adj(Var(0), Var(1))))));
        let g = generators::path(4);
        let ids = IdAssignment::contiguous(4);
        let inst = Instance::new(&g, &ids);
        let scheme = ExistentialFoScheme::from_any_fo(id_bits_for(&inst), &f).expect("existential");
        assert_eq!(scheme.arity(), 2);
        assert!(run_scheme(&scheme, &inst).unwrap().accepted());
        // A genuinely universal sentence is rejected by the constructor.
        let u = forall(Var(0), exists(Var(1), adj(Var(0), Var(1))));
        assert!(ExistentialFoScheme::from_any_fo(4, &u).is_none());
    }

    #[test]
    fn certifies_triangles() {
        let phi = props::has_clique(3);
        let g = generators::clique(4);
        let ids = IdAssignment::contiguous(4);
        let inst = Instance::new(&g, &ids);
        let scheme = ExistentialFoScheme::new(id_bits_for(&inst), &phi).unwrap();
        let out = run_scheme(&scheme, &inst).unwrap();
        assert!(out.accepted());
        // k = 3 witnesses: 3L + 9 + 3·3L bits.
        let l = id_bits_for(&inst) as usize;
        assert_eq!(out.max_bits(), 3 * l + 9 + 9 * l);
    }

    #[test]
    fn prover_refuses_on_triangle_free() {
        let phi = props::has_clique(3);
        let g = generators::cycle(5);
        let ids = IdAssignment::contiguous(5);
        let inst = Instance::new(&g, &ids);
        let scheme = ExistentialFoScheme::new(id_bits_for(&inst), &phi).unwrap();
        assert_eq!(
            run_scheme(&scheme, &inst).unwrap_err(),
            ProverError::NotAYesInstance
        );
    }

    #[test]
    fn forged_matrix_caught_by_witness() {
        // Claim a triangle on a C_4 by forging one matrix bit: a witness
        // audits its row and rejects.
        let phi = props::has_clique(3);
        let square = generators::cycle(4);
        let ids = IdAssignment::contiguous(4);
        let inst = Instance::new(&square, &ids);
        let scheme = ExistentialFoScheme::new(id_bits_for(&inst), &phi).unwrap();
        // Build a forged assignment by hand: witnesses 1, 2, 3 with a full
        // matrix, trees rooted honestly.
        let g = &square;
        let trees: Vec<Vec<TreeFields>> = [0usize, 1, 2]
            .iter()
            .map(|&w| honest_tree_fields(&inst, NodeId(w)))
            .collect();
        let witness_ids = [Ident(1), Ident(2), Ident(3)];
        let matrix = [
            false, true, true, //
            true, false, true, //
            true, true, false,
        ];
        let certs: Vec<_> = g
            .nodes()
            .map(|v| {
                let mut w = BitWriter::new();
                for id in witness_ids {
                    write_ident(&mut w, id, id_bits_for(&inst));
                }
                for b in matrix {
                    w.write_bit(b);
                }
                for tf in &trees {
                    tf[v.0].write(&mut w, id_bits_for(&inst));
                }
                w.finish()
            })
            .collect();
        let asg = Assignment::new(certs);
        let out = run_verification(&scheme, &inst, &asg);
        assert!(!out.accepted());
        // Specifically a witness must be among the rejectors.
        assert!(out.rejecting().iter().any(|id| witness_ids.contains(id)));
    }

    #[test]
    fn independent_set_and_repeated_witnesses() {
        // ∃x∃y x = y is satisfied everywhere with repeated witnesses.
        use locert_logic::ast::{eq, exists_all};
        let phi = exists_all([Var(0), Var(1)], eq(Var(0), Var(1)));
        let g = generators::path(3);
        let ids = IdAssignment::contiguous(3);
        let inst = Instance::new(&g, &ids);
        let scheme = ExistentialFoScheme::new(id_bits_for(&inst), &phi).unwrap();
        assert!(run_scheme(&scheme, &inst).unwrap().accepted());
        // Independent set of size 3 on C_6.
        let phi2 = props::has_independent_set(3);
        let c6 = generators::cycle(6);
        let ids6 = IdAssignment::contiguous(6);
        let inst6 = Instance::new(&c6, &ids6);
        let scheme2 = ExistentialFoScheme::new(id_bits_for(&inst6), &phi2).unwrap();
        assert!(run_scheme(&scheme2, &inst6).unwrap().accepted());
    }

    #[test]
    fn random_attacks_rejected() {
        let phi = props::has_clique(3);
        let g = generators::cycle(6);
        let ids = IdAssignment::shuffled(6, &mut StdRng::seed_from_u64(101));
        let inst = Instance::new(&g, &ids);
        let scheme = ExistentialFoScheme::new(id_bits_for(&inst), &phi).unwrap();
        let mut rng = StdRng::seed_from_u64(102);
        let bits = 3 * id_bits_for(&inst) as usize + 9 + 9 * id_bits_for(&inst) as usize;
        assert!(attacks::random_assignments(&scheme, &inst, bits, &mut rng, 200).is_none());
    }

    #[test]
    fn disconnected_and_empty_instances_are_typed_errors() {
        // Regression: a disconnected graph can satisfy ∃x∃y. x ~ y, but
        // building the witness spanning trees used to panic ("connected
        // instance").
        let phi = props::has_clique(2);
        let g = locert_graph::Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        let ids = IdAssignment::contiguous(4);
        let inst = Instance::new(&g, &ids);
        let scheme = ExistentialFoScheme::new(id_bits_for(&inst), &phi).unwrap();
        assert!(matches!(
            run_scheme(&scheme, &inst).unwrap_err(),
            ProverError::WitnessUnavailable(_)
        ));
        // Regression: the witness loop used to index vertex 0 of the
        // empty graph.
        let empty = locert_graph::Graph::empty(0);
        let ids0 = IdAssignment::contiguous(0);
        let inst0 = Instance::new(&empty, &ids0);
        let scheme0 = ExistentialFoScheme::new(4, &phi).unwrap();
        assert_eq!(
            run_scheme(&scheme0, &inst0).unwrap_err(),
            ProverError::NotAYesInstance
        );
    }

    #[test]
    fn an_honest_run_holds_one_claim() {
        let g = crate::catalogue::lollipop(64);
        let ids = IdAssignment::shuffled(64, &mut StdRng::seed_from_u64(103));
        let inst = Instance::new(&g, &ids);
        let scheme = ExistentialFoScheme::new(id_bits_for(&inst), &props::has_clique(3)).unwrap();
        let asg = scheme.assign(&inst).unwrap();
        let memo = Memo::default();
        let decoded: Vec<ExistentialCert> = g
            .nodes()
            .map(|v| scheme.decode(BitReader::new(asg.cert(v)), &memo).unwrap())
            .collect();
        let first = &decoded[0].claim;
        assert!(first.is_kept());
        assert!(decoded.iter().all(|d| Arc::ptr_eq(&d.claim, first)));
    }

    #[test]
    fn nonexistent_witness_id_rejected() {
        // Claim a witness id that no vertex carries: its spanning tree has
        // no root, so someone rejects.
        let phi = props::has_clique(2); // an edge — true on any n >= 2 graph.
        let g = generators::path(3);
        let ids = IdAssignment::contiguous(3);
        let inst = Instance::new(&g, &ids);
        // Use a 4-bit id field so absent identifiers are representable.
        let l = 4u32;
        let scheme = ExistentialFoScheme::new(l, &phi).unwrap();
        let honest = scheme.assign(&inst).unwrap();
        // Rewrite every certificate to claim witness ids {6, 7} (absent).
        let certs: Vec<_> = g
            .nodes()
            .map(|v| {
                let mut w = BitWriter::new();
                write_ident(&mut w, Ident(6), l);
                write_ident(&mut w, Ident(7), l);
                w.write_bit(false);
                w.write_bit(true);
                w.write_bit(true);
                w.write_bit(false);
                // Replay the honest trees (roots now mismatch).
                let mine = honest.cert(v);
                let mut r = BitReader::new(mine);
                let _ = r.read(2 * l); // skip ids
                let _ = r.read(4); // skip matrix
                for _ in 0..2 {
                    let tf = TreeFields::read(&mut r, l).unwrap();
                    tf.write(&mut w, l);
                }
                w.finish()
            })
            .collect();
        let out = run_verification(&scheme, &inst, &Assignment::new(certs));
        assert!(!out.accepted());
    }
}
