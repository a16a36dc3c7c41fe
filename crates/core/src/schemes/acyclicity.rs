//! Acyclicity (tree-ness) certification.
//!
//! Certifies that the (connected) graph is a tree: spanning-tree fields
//! plus the check that **every incident edge is a tree edge** — each
//! neighbor is either my parent or claims me as its parent. If all edges
//! are tree edges of a valid rooted spanning tree, the graph is acyclic.
//!
//! This folklore `O(log n)` scheme is the entry point of several other
//! schemes here (MSO-on-trees first certifies tree-ness; the paper notes
//! acyclicity requires `Ω(log n)` bits [31, 37], so this is tight).

use crate::bits::BitReader;
use crate::framework::{
    Assignment, DeclaredBound, Decode, DecodedView, Instance, Prover, ProverError, RejectReason,
    Scheme,
};
use crate::schemes::spanning_tree::{honest_tree_fields, verify_tree_position, TreeFields};
use locert_graph::NodeId;

/// Certifies that the graph is a tree.
#[derive(Debug, Clone, Copy)]
pub struct AcyclicityScheme {
    id_bits: u32,
}

impl AcyclicityScheme {
    /// A scheme with identifier fields of `id_bits` bits.
    pub fn new(id_bits: u32) -> Self {
        AcyclicityScheme { id_bits }
    }
}

impl Prover for AcyclicityScheme {
    fn assign(&self, instance: &Instance<'_>) -> Result<Assignment, ProverError> {
        let _span = locert_trace::span!("core.schemes.acyclicity.prover");
        if !instance.graph().is_tree() {
            return Err(ProverError::NotAYesInstance);
        }
        let fields = honest_tree_fields(instance, NodeId(0));
        Ok(Assignment::write_each(fields.len(), |v, w| {
            fields[v.0].write(w, self.id_bits);
        }))
    }
}

impl Decode for AcyclicityScheme {
    type Decoded = Option<TreeFields>;
    type Cache = ();

    fn decode(&self, mut r: BitReader<'_>, _: &()) -> Option<TreeFields> {
        let f = TreeFields::read(&mut r, self.id_bits)?;
        r.exhausted().then_some(f)
    }

    fn decide_decoded(
        &self,
        view: &DecodedView<'_, Option<TreeFields>>,
    ) -> Result<(), RejectReason> {
        let mine = view.own.ok_or(RejectReason::MalformedCertificate)?;
        verify_tree_position(view, &mine, |f| *f)?;
        // Every incident edge must be a tree edge: each neighbor is my
        // parent, or claims me as its parent one level further.
        for (nid, _, nf) in view.neighbors() {
            let nf = nf.ok_or(RejectReason::MalformedNeighborCertificate)?;
            if nf.root != mine.root {
                return Err(RejectReason::RootMismatch);
            }
            let i_am_their_parent = nf.parent == view.id && nf.dist == mine.dist + 1;
            let they_are_my_parent =
                nid == mine.parent && nf.dist + 1 == mine.dist && view.id != mine.root;
            if !(i_am_their_parent || they_are_my_parent) {
                return Err(RejectReason::NonTreeEdge);
            }
        }
        Ok(())
    }
}

impl Scheme for AcyclicityScheme {
    fn name(&self) -> String {
        "acyclicity".into()
    }

    fn declared_bound(&self) -> DeclaredBound {
        // Folklore O(log n), tight by [31, 37].
        DeclaredBound::LogN
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attacks;
    use crate::framework::{run_scheme, run_verification};
    use crate::schemes::common::id_bits_for;
    use locert_graph::{generators, IdAssignment};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn accepts_trees() {
        let mut rng = StdRng::seed_from_u64(81);
        for n in [1usize, 2, 7, 30] {
            let g = generators::random_tree(n, &mut rng);
            let ids = IdAssignment::shuffled(n, &mut rng);
            let inst = Instance::new(&g, &ids);
            let scheme = AcyclicityScheme::new(id_bits_for(&inst));
            assert!(run_scheme(&scheme, &inst).unwrap().accepted(), "n = {n}");
        }
    }

    #[test]
    fn prover_rejects_cycles() {
        let g = generators::cycle(5);
        let ids = IdAssignment::contiguous(5);
        let inst = Instance::new(&g, &ids);
        let scheme = AcyclicityScheme::new(id_bits_for(&inst));
        assert_eq!(
            run_scheme(&scheme, &inst).unwrap_err(),
            ProverError::NotAYesInstance
        );
    }

    #[test]
    fn cycle_not_certifiable_exhaustively() {
        // C_3 with 2-bit ids: no assignment with ≤ 6-bit certificates is
        // accepted (certificates need exactly 6 bits to parse; larger
        // reject on parse).
        let g = generators::cycle(3);
        let ids = IdAssignment::contiguous(3);
        let inst = Instance::new(&g, &ids);
        let scheme = AcyclicityScheme::new(2);
        let res = attacks::exhaustive_soundness(&scheme, &inst, 6, 5_000_000);
        assert!(res.is_ok(), "cycle was certified as a tree: {res:?}");
    }

    #[test]
    fn random_attacks_on_cycles_rejected() {
        let mut rng = StdRng::seed_from_u64(82);
        for n in [4usize, 6, 9] {
            let g = generators::cycle(n);
            let ids = IdAssignment::shuffled(n, &mut rng);
            let inst = Instance::new(&g, &ids);
            let scheme = AcyclicityScheme::new(id_bits_for(&inst));
            assert!(
                attacks::random_assignments(&scheme, &inst, 12, &mut rng, 300).is_none(),
                "n = {n}"
            );
        }
    }

    #[test]
    fn tree_plus_chord_rejected_with_replayed_certs() {
        // Take honest certificates for a path, then verify them on the
        // same vertex set with an extra chord: the chord endpoints see a
        // non-tree edge and reject.
        let path = generators::path(6);
        let ids = IdAssignment::contiguous(6);
        let inst_path = Instance::new(&path, &ids);
        let scheme = AcyclicityScheme::new(id_bits_for(&inst_path));
        let honest = scheme.assign(&inst_path).unwrap();
        let chorded = path.with_edges([(0, 3)]).unwrap();
        let inst_chord = Instance::new(&chorded, &ids);
        let out = run_verification(&scheme, &inst_chord, &honest);
        assert!(!out.accepted());
    }

    #[test]
    fn mutation_attacks_on_near_tree() {
        let mut rng = StdRng::seed_from_u64(83);
        let tree = generators::random_tree(8, &mut rng);
        let ids = IdAssignment::contiguous(8);
        // Add one extra edge to create a single cycle.
        let mut extra = None;
        'outer: for u in 0..8 {
            for v in (u + 1)..8 {
                if !tree.has_edge(u.into(), v.into()) {
                    extra = Some((u, v));
                    break 'outer;
                }
            }
        }
        let g = tree.with_edges([extra.unwrap()]).unwrap();
        let inst_tree = Instance::new(&tree, &ids);
        let scheme = AcyclicityScheme::new(id_bits_for(&inst_tree));
        let base = scheme.assign(&inst_tree).unwrap();
        let inst_bad = Instance::new(&g, &ids);
        assert!(attacks::mutation_attacks(&scheme, &inst_bad, &base, &mut rng, 400).is_none());
    }
}
