//! The Section 7.1 reduction framework.
//!
//! A *gadget family* builds, for every input pair `(s_A, s_B)`, a graph
//! `G(s_A, s_B)` over a vertex set partitioned into
//! `V_A ∪ V_α ∪ V_β ∪ V_B`, such that
//!
//! - the fixed part `E_P` only uses the edge types
//!   `V_A×V_α, V_α×V_α, V_α×V_β, V_β×V_β, V_β×V_B` (Figure 2);
//! - Alice's private edges lie inside `V_A`, Bob's inside `V_B`;
//! - identifiers of `V_α ∪ V_β` are fixed (`1..r`), so both players know
//!   them.
//!
//! `ExtractedProtocol` is Proposition 7.2's simulation: the
//! prover's CC certificate carries `q` bits per `V_α ∪ V_β` vertex;
//! Alice enumerates all `q`-bit labelings of `V_A` and accepts when some
//! labeling satisfies the verifier on all of `V_A ∪ V_α`; Bob
//! symmetrically. Hence a local certification of a property `P` with
//! `P(G(s_A, s_B)) ⇔ s_A = s_B` yields an EQUALITY protocol with
//! `r·q` certificate bits, so `q = Ω(ℓ/r)` (Theorem 7.1).

use crate::cc::Protocol;
use locert_core::attacks::{search_in, Search, SearchOutcome};
use locert_core::bits::{BitWriter, Certificate};
use locert_core::framework::{Instance, Verifier};
use locert_graph::{Graph, IdAssignment, NodeId};

/// The most private labelings one player's side enumerates.
const LABELINGS_BUDGET: u64 = 1_000_000;

/// The four-way partition of a gadget graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// Alice's private vertices.
    pub v_a: Vec<NodeId>,
    /// The Alice-side interface.
    pub v_alpha: Vec<NodeId>,
    /// The Bob-side interface.
    pub v_beta: Vec<NodeId>,
    /// Bob's private vertices.
    pub v_b: Vec<NodeId>,
}

impl Partition {
    /// `r = |V_α ∪ V_β|`.
    pub fn interface_size(&self) -> usize {
        self.v_alpha.len() + self.v_beta.len()
    }

    /// Checks the structural constraints of Figure 2 on a built gadget:
    /// the partition covers every vertex exactly once; no `V_A`–`V_B`,
    /// `V_A`–`V_β`, or `V_α`–`V_B` edges.
    pub fn validates(&self, g: &Graph) -> bool {
        let n = g.num_nodes();
        let mut side = vec![None; n];
        for (tag, set) in [
            (0u8, &self.v_a),
            (1, &self.v_alpha),
            (2, &self.v_beta),
            (3, &self.v_b),
        ] {
            for &v in set {
                if v.0 >= n || side[v.0].is_some() {
                    return false;
                }
                side[v.0] = Some(tag);
            }
        }
        if side.iter().any(Option::is_none) {
            return false;
        }
        g.edges().all(|(u, v)| {
            let (a, b) = (side[u.0].unwrap(), side[v.0].unwrap());
            let (lo, hi) = (a.min(b), a.max(b));
            // Forbidden: 0-2, 0-3, 1-3.
            !matches!((lo, hi), (0, 2) | (0, 3) | (1, 3))
        })
    }
}

/// A family of gadget graphs indexed by input pairs.
pub trait GadgetFamily {
    /// Builds `G(s_A, s_B)` with its partition and identifier assignment
    /// (interface identifiers must not depend on the inputs).
    fn build(&self, s_a: &[bool], s_b: &[bool]) -> (Graph, Partition, IdAssignment);

    /// Input length `ℓ`.
    fn input_bits(&self) -> usize;
}

/// Proposition 7.2: a local verifier + gadget family + per-vertex budget
/// `q` become an EQUALITY protocol with `r·q` certificate bits.
///
/// The players' enumeration over private labelings is exponential in
/// `q · |V_A|`; use tiny parameters.
pub struct ExtractedProtocol<'v, F> {
    verifier: &'v dyn Verifier,
    family: F,
    /// Per-vertex certificate budget `q`.
    pub q: usize,
}

impl<'v, F: GadgetFamily> ExtractedProtocol<'v, F> {
    /// Wraps the pieces.
    pub fn new(verifier: &'v dyn Verifier, family: F, q: usize) -> Self {
        ExtractedProtocol {
            verifier,
            family,
            q,
        }
    }

    /// One player's side: accept if some `q`-bit labeling of its private
    /// vertices makes them and its interface vertices (`side` picks both)
    /// accept. The other side's verdicts are ignored: its certificates are
    /// blank here, which can only make it reject, and that is the other
    /// player's business.
    ///
    /// # Panics
    ///
    /// Panics with "simulation space too large; shrink q or the gadget"
    /// above `LABELINGS_BUDGET` labelings: [`Protocol`] answers a `bool`.
    fn side_accepts(
        &self,
        (g, part, ids): (Graph, Partition, IdAssignment),
        cert: &[bool],
        side: fn(&Partition) -> (&Vec<NodeId>, &Vec<NodeId>),
    ) -> bool {
        // Entry u is vertex u's certificate: its q bits of `cert` on V_α ++
        // V_β, else blank. The q-bit labels follow; none past the budget's
        // can be reached.
        let (q, n) = (self.q, g.num_nodes());
        let mut certs = vec![Certificate::empty(); n];
        for (i, &v) in part.v_alpha.iter().chain(&part.v_beta).enumerate() {
            let mut w = BitWriter::new();
            for &bit in &cert[i * q..(i + 1) * q] {
                w.write_bit(bit);
            }
            certs[v.0] = w.finish();
        }
        let labels = (0..1u64 << q).take(LABELINGS_BUDGET as usize + 1);
        certs.extend(labels.map(|label| {
            let mut w = BitWriter::new();
            w.write(label, q as u32);
            w.finish()
        }));
        let (private, interface) = side(&part);
        let fixed: Vec<usize> = (0..n).collect();
        let checked: Vec<NodeId> = private.iter().chain(interface).copied().collect();
        let search = Search {
            candidates: &certs,
            fixed: &fixed,
            free: private,
            range: n..certs.len(),
            checked: &checked,
        };
        let (pool, inst) = (locert_par::global(), Instance::new(&g, &ids));
        let outcome = search_in(pool, self.verifier, &inst, &search, LABELINGS_BUDGET)
            .unwrap_or_else(|_| panic!("simulation space too large; shrink q or the gadget"));
        if locert_trace::enabled() {
            locert_trace::add("lb.framework.labelings_enumerated", outcome.covered());
        }
        matches!(outcome, SearchOutcome::Found { .. })
    }
}

impl<'v, F: GadgetFamily> Protocol for ExtractedProtocol<'v, F> {
    fn alice(&self, s_a: &[bool], cert: &[bool]) -> bool {
        // Alice builds the gadget with an *empty* Bob string: she cannot
        // know s_B, and the vertices she checks (V_A ∪ V_α) have no Bob
        // edges in sight.
        let blank = vec![false; self.family.input_bits()];
        let gadget = self.family.build(s_a, &blank);
        self.side_accepts(gadget, cert, |p| (&p.v_a, &p.v_alpha))
    }

    fn bob(&self, s_b: &[bool], cert: &[bool]) -> bool {
        let blank = vec![false; self.family.input_bits()];
        let gadget = self.family.build(&blank, s_b);
        self.side_accepts(gadget, cert, |p| (&p.v_b, &p.v_beta))
    }

    fn certificate_bits(&self) -> usize {
        // Build any instance to read off r.
        let blank = vec![false; self.family.input_bits()];
        let (_, part, _) = self.family.build(&blank, &blank);
        part.interface_size() * self.q
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cc::{decides_equality, exists_accepting_certificate};
    use locert_core::framework::{Decode, DecodedView, RejectReason};
    use locert_core::BitReader;
    use locert_graph::{GraphBuilder, Ident};

    /// Toy family: V_A = {a}, V_α = {α}, V_β = {β}, V_B = {b} on a path
    /// a–α–β–b; Alice attaches a pendant leaf to `a` iff her single input
    /// bit is 1 — wait, private edges must stay within V_A, so V_A has
    /// two vertices and the bit toggles the edge between them.
    struct ToyFamily;

    impl GadgetFamily for ToyFamily {
        fn build(&self, s_a: &[bool], s_b: &[bool]) -> (Graph, Partition, IdAssignment) {
            // Vertices: 0,1 = V_A; 2 = α; 3 = β; 4,5 = V_B.
            let mut b = GraphBuilder::new(6);
            b.add_edge(0, 2).unwrap();
            b.add_edge(2, 3).unwrap();
            b.add_edge(3, 4).unwrap();
            if s_a[0] {
                b.add_edge(0, 1).unwrap();
            }
            if s_b[0] {
                b.add_edge(4, 5).unwrap();
            }
            // Keep the graph connected regardless: 1 and 5 hang off their
            // side's first vertex.
            b.add_edge(0, 1).ok();
            b.add_edge(4, 5).ok();
            let part = Partition {
                v_a: vec![NodeId(0), NodeId(1)],
                v_alpha: vec![NodeId(2)],
                v_beta: vec![NodeId(3)],
                v_b: vec![NodeId(4), NodeId(5)],
            };
            // Interface ids 1..=2 first, privates after.
            let ids = IdAssignment::new(vec![
                Ident(3),
                Ident(4),
                Ident(1),
                Ident(2),
                Ident(5),
                Ident(6),
            ])
            .unwrap();
            (b.build(), part, ids)
        }

        fn input_bits(&self) -> usize {
            1
        }
    }

    #[test]
    fn toy_partition_validates() {
        let (g, part, _) = ToyFamily.build(&[true], &[false]);
        assert!(part.validates(&g));
    }

    #[test]
    fn partition_rejects_cross_edges() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 3).unwrap(); // V_A – V_B: forbidden.
        let g = b.build();
        let part = Partition {
            v_a: vec![NodeId(0)],
            v_alpha: vec![NodeId(1)],
            v_beta: vec![NodeId(2)],
            v_b: vec![NodeId(3)],
        };
        assert!(!part.validates(&g));
    }

    #[test]
    fn partition_rejects_non_cover() {
        let g = Graph::empty(3);
        let part = Partition {
            v_a: vec![NodeId(0)],
            v_alpha: vec![NodeId(1)],
            v_beta: vec![NodeId(1)],
            v_b: vec![NodeId(2)],
        };
        assert!(!part.validates(&g));
    }

    /// A toy verifier for "degree parity at interface matches label":
    /// each vertex accepts iff its 1-bit certificate equals (degree mod
    /// 2). On the toy family this certifies s_A = s_B = 1 ↔ … — more to
    /// the point, it exercises the simulation plumbing end-to-end.
    struct DegreeParityVerifier;

    impl Decode for DegreeParityVerifier {
        /// The certificate's bit, when it is exactly one bit long.
        type Decoded = Option<bool>;
        type Cache = ();

        fn decode(&self, mut r: BitReader<'_>, _: &()) -> Option<bool> {
            r.read_bit().filter(|_| r.exhausted())
        }

        fn decide_decoded(&self, view: &DecodedView<'_, Option<bool>>) -> Result<(), RejectReason> {
            if *view.own == Some(view.degree() % 2 == 1) {
                Ok(())
            } else {
                Err(RejectReason::PropertyViolation)
            }
        }
    }

    #[test]
    fn extracted_protocol_runs_both_sides() {
        let p = ExtractedProtocol::new(&DegreeParityVerifier, ToyFamily, 1);
        assert_eq!(p.certificate_bits(), 2);
        // The interface degrees are fixed (α and β both have degree 2),
        // so the certificate (0, 0) satisfies both interface vertices,
        // and each side can always label its privates with their parity.
        let cert = vec![false, false];
        assert!(p.alice(&[true], &cert));
        assert!(p.alice(&[false], &cert));
        assert!(p.bob(&[true], &cert));
        // A wrong label at α breaks Alice (who checks V_A ∪ V_α) but not
        // Bob, and symmetrically for β.
        let bad_alpha = vec![true, false];
        assert!(!p.alice(&[true], &bad_alpha));
        assert!(p.bob(&[false], &bad_alpha));
        let bad_beta = vec![false, true];
        assert!(p.alice(&[true], &bad_beta));
        assert!(!p.bob(&[false], &bad_beta));
    }

    /// End-to-end Proposition 7.2 on a *correct* toy certification: the
    /// property "s_A = s_B" on the toy family is certified by giving
    /// every vertex the shared bit; the verifier checks its bit equals
    /// the degree parity of vertex 1 — no wait, locality. Instead: each
    /// vertex stores the claimed shared bit; endpoints of the private
    /// pendant edge check it against their actual degree where the bit
    /// is visible (vertex 1 has degree 1 always — the toy family keeps
    /// the pendant edge in both cases, so EQUALITY is *not* decided by
    /// this family; the real instantiations live in the sibling
    /// modules). Here we simply confirm the extracted protocol is
    /// *complete* for a trivially-accepting verifier.
    struct AcceptAll;

    impl Decode for AcceptAll {
        type Decoded = ();
        type Cache = ();

        fn decode(&self, _: BitReader<'_>, _: &()) {}

        fn decide_decoded(&self, _: &DecodedView<'_, ()>) -> Result<(), RejectReason> {
            Ok(())
        }
    }

    #[test]
    fn accept_all_verifier_gives_total_protocol() {
        let p = ExtractedProtocol::new(&AcceptAll, ToyFamily, 1);
        for s_a in [[false], [true]] {
            for s_b in [[false], [true]] {
                assert!(exists_accepting_certificate(&p, &s_a, &s_b).is_some());
            }
        }
        // And consequently it does NOT decide equality (as expected for a
        // verifier with no checks).
        assert!(decides_equality(&p, 1).is_err());
    }
}
