//! Diameter certification on trees (Section 2.3 warm-up).
//!
//! The paper motivates tree-restricted certification with the diameter
//! example: point a spanning structure at a root and store, at every
//! vertex, its distance to the root and the height of its subtree; all
//! checks are distance comparisons.
//!
//! Here: certify tree-ness (as in [`crate::schemes::acyclicity`]) and
//! additionally store `height(v)` = the number of edges on the longest
//! downward path from `v`. Every vertex checks its height is consistent
//! with its children's and that the longest path *bending at it* —
//! the two largest child heights plus two — does not exceed `D`. Every
//! path in a tree bends at its topmost vertex, so these local checks
//! cover every path; conversely a diameter-`D` tree passes them.
//!
//! Size: `O(log n)`.

use crate::bits::BitReader;
use crate::framework::{
    Assignment, DeclaredBound, Decode, DecodedView, Instance, Prover, ProverError, RejectReason,
    Scheme,
};
use crate::schemes::spanning_tree::{honest_tree_fields, verify_tree_position, TreeFields};
use locert_graph::{NodeId, RootedTree};

/// Certifies "the tree has diameter at most `D`".
#[derive(Debug, Clone, Copy)]
pub struct TreeDiameterScheme {
    id_bits: u32,
    diameter: u64,
}

impl TreeDiameterScheme {
    /// A scheme for diameter bound `diameter`, identifier fields of
    /// `id_bits` bits.
    pub fn new(id_bits: u32, diameter: u64) -> Self {
        TreeDiameterScheme { id_bits, diameter }
    }
}

impl Prover for TreeDiameterScheme {
    fn assign(&self, instance: &Instance<'_>) -> Result<Assignment, ProverError> {
        let _span = locert_trace::span!("core.schemes.tree_diameter.prover");
        let g = instance.graph();
        if !g.is_tree() {
            return Err(ProverError::NotAYesInstance);
        }
        let rooted = RootedTree::from_tree(g, NodeId(0)).expect("checked tree");
        // Heights bottom-up; the diameter is the longest path bending at
        // any vertex, the same quantity every verifier checks locally.
        let mut height = vec![0u64; g.num_nodes()];
        let mut diam = 0u64;
        for v in rooted.postorder() {
            let (mut top1, mut top2) = (0u64, 0u64);
            for c in rooted.children(v) {
                let h = height[c.0] + 1;
                if h > top1 {
                    (top1, top2) = (h, top1);
                } else if h > top2 {
                    top2 = h;
                }
            }
            height[v.0] = top1;
            diam = diam.max(top1 + top2);
        }
        if diam > self.diameter {
            return Err(ProverError::NotAYesInstance);
        }
        let fields = honest_tree_fields(instance, NodeId(0));
        Ok(Assignment::write_each(g.num_nodes(), |v, w| {
            fields[v.0].write(w, self.id_bits);
            w.component("height");
            w.write(height[v.0], self.id_bits);
        }))
    }
}

/// Tree fields and the claimed subtree height.
type HeightFields = (TreeFields, u64);

impl Decode for TreeDiameterScheme {
    type Decoded = Option<HeightFields>;
    type Cache = ();

    fn decode(&self, mut r: BitReader<'_>, _: &()) -> Option<HeightFields> {
        let f = TreeFields::read(&mut r, self.id_bits)?;
        let height = r.read(self.id_bits)?;
        r.exhausted().then_some((f, height))
    }

    fn decide_decoded(
        &self,
        view: &DecodedView<'_, Option<HeightFields>>,
    ) -> Result<(), RejectReason> {
        let (mine, my_height) = view.own.ok_or(RejectReason::MalformedCertificate)?;
        verify_tree_position(view, &mine, |d| d.map(|(f, _)| f))?;
        // The two greatest of `h + 1` over the children's heights `h`, 0
        // where there is none (tree-ness: every edge is parent or child).
        let (mut top1, mut top2) = (0, 0);
        for (nid, _, decoded) in view.neighbors() {
            let (nf, nh) = decoded.ok_or(RejectReason::MalformedNeighborCertificate)?;
            if nf.root != mine.root {
                return Err(RejectReason::RootMismatch);
            }
            let is_child = nf.parent == view.id && nf.dist == mine.dist + 1;
            let is_parent = nid == mine.parent && nf.dist + 1 == mine.dist && view.id != mine.root;
            if is_child {
                let h = nh + 1;
                if h > top1 {
                    top2 = top1;
                    top1 = h;
                } else if h > top2 {
                    top2 = h;
                }
            } else if !is_parent {
                return Err(RejectReason::NonTreeEdge);
            }
        }
        // Height consistency.
        if my_height != top1 {
            return Err(RejectReason::CounterMismatch);
        }
        // Longest path bending here.
        if top1 + top2 > self.diameter {
            return Err(RejectReason::PropertyViolation);
        }
        Ok(())
    }
}

impl Scheme for TreeDiameterScheme {
    fn name(&self) -> String {
        format!("tree-diameter<= {}", self.diameter)
    }

    fn declared_bound(&self) -> DeclaredBound {
        // Tree fields plus one height counter, all identifier-width.
        DeclaredBound::LogN
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attacks;
    use crate::framework::run_scheme;
    use crate::schemes::common::id_bits_for;
    use locert_graph::{generators, traversal, IdAssignment};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn accepts_exactly_at_true_diameter() {
        let mut rng = StdRng::seed_from_u64(91);
        for _ in 0..10 {
            let g = generators::random_tree(12, &mut rng);
            let ids = IdAssignment::shuffled(12, &mut rng);
            let inst = Instance::new(&g, &ids);
            let diam = traversal::diameter(&g).unwrap() as u64;
            for bound in [diam, diam + 1, diam + 5] {
                let scheme = TreeDiameterScheme::new(id_bits_for(&inst), bound);
                assert!(run_scheme(&scheme, &inst).unwrap().accepted());
            }
            if diam > 0 {
                let tight = TreeDiameterScheme::new(id_bits_for(&inst), diam - 1);
                assert_eq!(
                    run_scheme(&tight, &inst).unwrap_err(),
                    ProverError::NotAYesInstance
                );
            }
        }
    }

    #[test]
    fn prover_refuses_exactly_above_true_diameter() {
        let mut rng = StdRng::seed_from_u64(95);
        for n in [1usize, 2, 3, 4, 9, 30, 120] {
            for _ in 0..8 {
                let g = generators::random_tree(n, &mut rng);
                let ids = IdAssignment::shuffled(n, &mut rng);
                let inst = Instance::new(&g, &ids);
                let diam = traversal::diameter(&g).unwrap() as u64;
                for bound in [diam.saturating_sub(1), diam, diam + 1] {
                    let scheme = TreeDiameterScheme::new(id_bits_for(&inst), bound);
                    assert_eq!(
                        scheme.assign(&inst).is_ok(),
                        diam <= bound,
                        "n {n}, diameter {diam}, bound {bound}"
                    );
                }
            }
        }
    }

    #[test]
    fn spider_and_star_diameters() {
        let star = generators::star(8);
        let ids = IdAssignment::contiguous(8);
        let inst = Instance::new(&star, &ids);
        assert!(
            run_scheme(&TreeDiameterScheme::new(id_bits_for(&inst), 2), &inst)
                .unwrap()
                .accepted()
        );
        let spider = generators::spider(3, 3);
        let ids2 = IdAssignment::contiguous(10);
        let inst2 = Instance::new(&spider, &ids2);
        assert!(
            run_scheme(&TreeDiameterScheme::new(id_bits_for(&inst2), 6), &inst2)
                .unwrap()
                .accepted()
        );
        assert_eq!(
            run_scheme(&TreeDiameterScheme::new(id_bits_for(&inst2), 5), &inst2).unwrap_err(),
            ProverError::NotAYesInstance
        );
    }

    #[test]
    fn random_attacks_on_long_paths_rejected() {
        // Claim diameter ≤ 3 on P_8: no assignment should pass; try
        // random ones.
        let g = generators::path(8);
        let ids = IdAssignment::contiguous(8);
        let inst = Instance::new(&g, &ids);
        let scheme = TreeDiameterScheme::new(id_bits_for(&inst), 3);
        let mut rng = StdRng::seed_from_u64(92);
        assert!(attacks::random_assignments(&scheme, &inst, 16, &mut rng, 400).is_none());
    }

    #[test]
    fn honest_replay_under_tighter_bound_rejected() {
        let g = generators::path(6); // diameter 5
        let ids = IdAssignment::contiguous(6);
        let inst = Instance::new(&g, &ids);
        let loose = TreeDiameterScheme::new(id_bits_for(&inst), 5);
        let base = loose.assign(&inst).unwrap();
        let tight = TreeDiameterScheme::new(id_bits_for(&inst), 4);
        let mut rng = StdRng::seed_from_u64(93);
        assert!(attacks::mutation_attacks(&tight, &inst, &base, &mut rng, 400).is_none());
    }

    #[test]
    fn single_vertex_tree() {
        let g = locert_graph::Graph::empty(1);
        let ids = IdAssignment::contiguous(1);
        let inst = Instance::new(&g, &ids);
        let scheme = TreeDiameterScheme::new(1, 0);
        assert!(run_scheme(&scheme, &inst).unwrap().accepted());
    }

    #[test]
    fn rejects_on_cycles() {
        let g = generators::cycle(4);
        let ids = IdAssignment::contiguous(4);
        let inst = Instance::new(&g, &ids);
        let scheme = TreeDiameterScheme::new(id_bits_for(&inst), 10);
        assert_eq!(
            run_scheme(&scheme, &inst).unwrap_err(),
            ProverError::NotAYesInstance
        );
        let mut rng = StdRng::seed_from_u64(94);
        assert!(attacks::random_assignments(&scheme, &inst, 12, &mut rng, 300).is_none());
    }
}
