//! Constant-radius verification (Appendix A.1).
//!
//! The paper fixes the verification radius to **1** and discusses why:
//! with radius adapted to the formula, FO properties need no certificates
//! at all — e.g. "diameter ≤ 2" is decidable by a radius-3 verifier with
//! empty certificates, while at radius 1 it needs `Ω̃(n)` bits \[10].
//!
//! This module implements the radius-`r` model — a vertex sees the entire
//! ball of radius `r` around itself, **including the edges inside the
//! ball** (unlike the radius-1 [`LocalView`](crate::framework::LocalView),
//! which hides edges among neighbors) — and the certificate-free radius-3
//! decision of "diameter ≤ 2", making the appendix's contrast executable.

use crate::framework::{Assignment, Instance};
use locert_graph::{Graph, Ident, NodeId};

/// What a vertex sees at radius `r`: the induced ball around it, with
/// identifiers, inputs and certificates of every ball member.
#[derive(Debug, Clone)]
pub struct BallView {
    /// The center's index *within* [`BallView::ball`].
    pub center: usize,
    /// The induced subgraph on the ball (local indices).
    pub ball: Graph,
    /// Identifier of each ball member.
    pub ids: Vec<Ident>,
    /// Input of each ball member.
    pub inputs: Vec<usize>,
    /// Certificate bits of each ball member (cloned).
    pub certs: Vec<crate::bits::Certificate>,
    /// Distance from the center for each ball member.
    pub dist: Vec<usize>,
}

/// Builds the radius-`r` ball view of `v`.
pub fn ball_view(
    instance: &Instance<'_>,
    assignment: &Assignment,
    v: NodeId,
    r: usize,
) -> BallView {
    BallScratch::new(instance.graph().num_nodes()).view(instance, assignment, v, r)
}

/// Dense scratch for building ball views on one host graph: a BFS
/// distance and a ball-local index per host vertex, `usize::MAX` when
/// unset, plus the member list. Each view resets only the entries it
/// set, so a run over every vertex allocates the scratch once and pays
/// time proportional to each ball, not to `n`.
struct BallScratch {
    dist: Vec<usize>,
    local: Vec<usize>,
    members: Vec<NodeId>,
}

impl BallScratch {
    fn new(n: usize) -> Self {
        BallScratch {
            dist: vec![usize::MAX; n],
            local: vec![usize::MAX; n],
            members: Vec::new(),
        }
    }

    fn view(
        &mut self,
        instance: &Instance<'_>,
        assignment: &Assignment,
        v: NodeId,
        r: usize,
    ) -> BallView {
        let g = instance.graph();
        // BFS to depth r; `members` doubles as the queue.
        self.members.clear();
        self.members.push(v);
        self.dist[v.0] = 0;
        let mut head = 0;
        while let Some(&u) = self.members.get(head) {
            head += 1;
            let d = self.dist[u.0];
            if d == r {
                continue;
            }
            for &w in g.neighbors(u) {
                if self.dist[w.0] == usize::MAX {
                    self.dist[w.0] = d + 1;
                    self.members.push(w);
                }
            }
        }
        self.members.sort_unstable();
        for (i, &m) in self.members.iter().enumerate() {
            self.local[m.0] = i;
        }
        let view = BallView {
            center: self.local[v.0],
            ball: g.induced_on_sorted(&self.members, &self.local),
            ids: self
                .members
                .iter()
                .map(|&m| instance.ids().ident(m))
                .collect(),
            inputs: self.members.iter().map(|&m| instance.input(m)).collect(),
            certs: self
                .members
                .iter()
                .map(|&m| assignment.cert(m).clone())
                .collect(),
            dist: self.members.iter().map(|&m| self.dist[m.0]).collect(),
        };
        for &m in &self.members {
            self.dist[m.0] = usize::MAX;
            self.local[m.0] = usize::MAX;
        }
        view
    }
}

/// A verifier reading radius-`r` balls.
pub trait RadiusVerifier {
    /// The verification radius.
    fn radius(&self) -> usize;
    /// One vertex's decision.
    fn verify(&self, view: &BallView) -> bool;
}

/// Runs a radius verifier at every vertex; returns the rejecting ids.
pub fn run_radius_verification(
    verifier: &dyn RadiusVerifier,
    instance: &Instance<'_>,
    assignment: &Assignment,
) -> Vec<Ident> {
    let mut scratch = BallScratch::new(instance.graph().num_nodes());
    instance
        .graph()
        .nodes()
        .filter(|&v| !verifier.verify(&scratch.view(instance, assignment, v, verifier.radius())))
        .map(|v| instance.ids().ident(v))
        .collect()
}

/// Appendix A.1's example: "diameter ≤ 2" with **empty certificates** at
/// radius 3.
///
/// A connected graph has diameter ≤ 2 iff no vertex has another vertex
/// at distance exactly 3, so each vertex accepts iff its radius-3 ball
/// records no distance above 2. Radius 3 suffices: if some pair is at
/// distance ≥ 3, the shortest path from one endpoint passes a vertex at
/// distance exactly 3, which that endpoint's ball contains (a pair at
/// distance ∞ would need a disconnected graph, excluded by the model's
/// promise).
#[derive(Debug, Clone, Copy)]
pub struct DiameterTwoAtRadiusThree;

impl RadiusVerifier for DiameterTwoAtRadiusThree {
    fn radius(&self) -> usize {
        3
    }

    fn verify(&self, view: &BallView) -> bool {
        view.dist.iter().all(|&d| d <= 2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use locert_graph::traversal;
    use locert_graph::{generators, IdAssignment};

    fn check(g: &Graph) -> bool {
        let ids = IdAssignment::contiguous(g.num_nodes());
        let inst = Instance::new(g, &ids);
        let asg = Assignment::empty(g.num_nodes());
        run_radius_verification(&DiameterTwoAtRadiusThree, &inst, &asg).is_empty()
    }

    #[test]
    fn diameter_two_decided_without_certificates() {
        assert!(check(&generators::star(8)));
        assert!(check(&generators::clique(5)));
        assert!(check(&generators::cycle(5)));
        assert!(!check(&generators::cycle(6)));
        assert!(!check(&generators::path(4)));
        assert!(check(&generators::path(3)));
    }

    #[test]
    fn agrees_with_bfs_diameter_on_random_graphs() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(120);
        for _ in 0..15 {
            let g = generators::random_connected(9, 5, &mut rng);
            assert_eq!(
                check(&g),
                traversal::diameter(&g).unwrap() <= 2,
                "graph {g:?}"
            );
        }
    }

    #[test]
    fn ball_views_expose_internal_edges() {
        // Unlike the radius-1 model, the ball contains the edges among
        // neighbors: on a triangle, the center's radius-1 ball is the
        // whole triangle with its 3 edges.
        let g = generators::cycle(3);
        let ids = IdAssignment::contiguous(3);
        let inst = Instance::new(&g, &ids);
        let asg = Assignment::empty(3);
        let view = ball_view(&inst, &asg, NodeId(0), 1);
        assert_eq!(view.ball.num_nodes(), 3);
        assert_eq!(view.ball.num_edges(), 3);
        assert_eq!(view.dist[view.center], 0);
    }

    #[test]
    fn ball_radius_truncates() {
        let g = generators::path(7);
        let ids = IdAssignment::contiguous(7);
        let inst = Instance::new(&g, &ids);
        let asg = Assignment::empty(7);
        let view = ball_view(&inst, &asg, NodeId(0), 2);
        assert_eq!(view.ball.num_nodes(), 3);
        assert_eq!(view.dist.iter().copied().max(), Some(2));
    }
}
