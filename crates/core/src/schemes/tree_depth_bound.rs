//! Depth certification on trees with O(log k) bits (Section 2.4 remark).
//!
//! The paper contrasts Theorem 2.5 ("treedepth ≤ k needs Ω(log n) bits on
//! general graphs") with the fact that *rooted-tree depth* ≤ k is
//! certifiable with `O(log k)` bits — independent of `n` — by storing
//! each vertex's distance to the root. The scheme runs under the tree
//! promise (like Theorem 2.2's):
//!
//! - certificate: the vertex's depth `d ≤ k`, in `⌈log₂(k+1)⌉` bits;
//! - checks: exactly one neighbor at depth `d − 1` (none iff `d = 0`,
//!   making the vertex the root) and all others at `d + 1 ≤ k`.
//!
//! On trees the depths then measure a genuine rooting of height ≤ k.

use crate::bits::{width_for, BitReader, Certificate};
use crate::framework::{
    Assignment, DeclaredBound, Decode, DecodedView, Instance, Prover, ProverError, RejectReason,
    Scheme,
};
#[cfg(test)]
use locert_graph::NodeId;
use locert_graph::RootedTree;

/// Certifies "the tree can be rooted with depth at most `k`" — i.e. its
/// height as a rooted tree is ≤ `k` edges from the best root, certified
/// with `O(log k)` bits.
#[derive(Debug, Clone, Copy)]
pub struct TreeDepthBoundScheme {
    k: usize,
    bits: u32,
}

impl TreeDepthBoundScheme {
    /// A scheme for depth bound `k` (edges on a root-to-leaf path).
    pub fn new(k: usize) -> Self {
        TreeDepthBoundScheme {
            k,
            bits: width_for(k as u64),
        }
    }

    /// Certificate size in bits (`⌈log₂(k+1)⌉`, independent of `n`).
    pub fn certificate_bits(&self) -> usize {
        self.bits as usize
    }
}

impl Prover for TreeDepthBoundScheme {
    fn assign(&self, instance: &Instance<'_>) -> Result<Assignment, ProverError> {
        let _span = locert_trace::span!("core.schemes.tree_depth_bound.prover");
        let g = instance.graph();
        if !g.is_tree() {
            return Err(ProverError::NotAYesInstance);
        }
        // Root at a center to minimize depth.
        let center = locert_graph::canon::center(g).expect("tree")[0];
        let rooted = RootedTree::from_tree(g, center).expect("tree");
        if rooted.height() > self.k {
            return Err(ProverError::NotAYesInstance);
        }
        Ok(Assignment::write_each(g.num_nodes(), |v, w| {
            w.component("depth");
            w.write(rooted.depth(v) as u64, self.bits);
        }))
    }
}

impl Decode for TreeDepthBoundScheme {
    type Decoded = Option<u64>;
    type Cache = ();

    fn decode(&self, cert: &Certificate, _: &()) -> Option<u64> {
        let mut r = BitReader::new(cert);
        let d = r.read(self.bits)?;
        (d <= self.k as u64 && r.exhausted()).then_some(d)
    }

    fn decide_decoded(&self, view: &DecodedView<'_, Option<u64>>) -> Result<(), RejectReason> {
        let d = view.own.ok_or(RejectReason::MalformedCertificate)?;
        let mut parents = 0usize;
        for (_, _, decoded) in view.neighbors() {
            let nd = decoded.ok_or(RejectReason::MalformedNeighborCertificate)?;
            if nd + 1 == d {
                parents += 1;
            } else if nd != d + 1 {
                // Neither a parent nor a child; nd ≤ k by parse.
                return Err(RejectReason::ParentDistanceClash);
            }
        }
        // Exactly one parent, except the root (depth 0).
        if (d == 0 && parents == 0) || (d > 0 && parents == 1) {
            Ok(())
        } else {
            Err(RejectReason::RootMismatch)
        }
    }
}

impl Scheme for TreeDepthBoundScheme {
    fn name(&self) -> String {
        format!("tree-depth<= {}", self.k)
    }

    fn declared_bound(&self) -> DeclaredBound {
        // ⌈log₂(k+1)⌉ bits, independent of n (Section 2.4 remark).
        DeclaredBound::LogK { k: self.k as u64 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attacks;
    use crate::framework::{run_scheme, run_verification};
    use locert_graph::{generators, IdAssignment};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn size_independent_of_n() {
        // The Section 2.4 contrast: O(log k) bits, flat in n.
        let scheme = TreeDepthBoundScheme::new(6);
        let mut sizes = Vec::new();
        // Stars of growing size: depth 1 from the hub, any n.
        for n in [8usize, 64, 512, 4096] {
            let g = generators::star(n);
            let ids = IdAssignment::contiguous(n);
            let inst = Instance::new(&g, &ids);
            let out = run_scheme(&scheme, &inst).unwrap();
            assert!(out.accepted());
            sizes.push(out.max_bits());
        }
        assert!(sizes.windows(2).all(|w| w[0] == w[1]), "{sizes:?}");
        assert_eq!(sizes[0], scheme.certificate_bits());
    }

    #[test]
    fn depth_threshold_exact() {
        // A path of 2k+1 vertices center-roots at depth k.
        for k in 1..=5 {
            let g = generators::path(2 * k + 1);
            let ids = IdAssignment::contiguous(2 * k + 1);
            let inst = Instance::new(&g, &ids);
            assert!(run_scheme(&TreeDepthBoundScheme::new(k), &inst)
                .unwrap()
                .accepted());
            assert_eq!(
                run_scheme(&TreeDepthBoundScheme::new(k - 1), &inst).unwrap_err(),
                ProverError::NotAYesInstance
            );
        }
    }

    #[test]
    fn forged_depths_rejected() {
        let g = generators::spider(3, 2);
        let ids = IdAssignment::contiguous(7);
        let inst = Instance::new(&g, &ids);
        let scheme = TreeDepthBoundScheme::new(2);
        let mut asg = scheme.assign(&inst).unwrap();
        let c = asg.cert(NodeId(3)).clone();
        *asg.cert_mut(NodeId(3)) = c.with_bit_flipped(0);
        assert!(!run_verification(&scheme, &inst, &asg).accepted());
    }

    #[test]
    fn exhaustive_soundness_on_deep_path() {
        // P_7 center-roots at depth 3; with k = 2 (2-bit certificates) no
        // assignment works — exhaust all of them.
        let g = generators::path(7);
        let ids = IdAssignment::contiguous(7);
        let inst = Instance::new(&g, &ids);
        let scheme = TreeDepthBoundScheme::new(2);
        let res = attacks::exhaustive_soundness(&scheme, &inst, 2, 1_000_000);
        assert!(res.is_ok(), "fooling assignment: {res:?}");
    }

    #[test]
    fn random_attacks_rejected() {
        let g = generators::path(15); // depth 7 from the center.
        let ids = IdAssignment::contiguous(15);
        let inst = Instance::new(&g, &ids);
        let scheme = TreeDepthBoundScheme::new(3);
        let mut rng = StdRng::seed_from_u64(171);
        assert!(attacks::random_assignments(
            &scheme,
            &inst,
            scheme.certificate_bits(),
            &mut rng,
            500
        )
        .is_none());
    }
}
