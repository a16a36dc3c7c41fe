//! Constant-radius verification (Appendix A.1).
//!
//! The paper fixes the verification radius to **1** and discusses why:
//! with radius adapted to the formula, FO properties need no certificates
//! at all — e.g. "diameter ≤ 2" is decidable by a radius-3 verifier with
//! empty certificates, while at radius 1 it needs `Ω̃(n)` bits \[10].
//!
//! This module implements the radius-`r` model — a vertex sees the entire
//! ball of radius `r` around itself, **including the edges inside the
//! ball** (unlike the radius-1
//! [`DecodedView`](crate::framework::DecodedView), which hides edges
//! among neighbors) — and the certificate-free radius-3
//! decision of "diameter ≤ 2", making the appendix's contrast executable.

use crate::bits::Certificate;
use crate::framework::{Assignment, Instance};
use locert_graph::{Graph, Ident, NodeId};
use std::cell::OnceCell;

/// What a vertex sees at radius `r`: the ball around it, with the
/// identifiers, inputs and certificates of every ball member and the
/// edges among them.
///
/// A view is borrowed from a [`BallScratch`] and builds only what its
/// reader asks for: members, distances and the center come from the
/// BFS, identifiers, inputs and certificates are read in place from the
/// instance and the assignment, and the induced subgraph is built on
/// the first call to [`BallView::ball`].
#[derive(Debug)]
pub struct BallView<'a> {
    instance: &'a Instance<'a>,
    assignment: &'a Assignment,
    members: &'a [NodeId],
    dist: &'a [usize],
    /// Host index → position in `members`, `usize::MAX` outside the ball.
    local: &'a [usize],
    center: usize,
    ball: OnceCell<Graph>,
}

impl<'a> BallView<'a> {
    /// The ball's members as host vertices, in host order; position `i`
    /// here is vertex `i` of [`BallView::ball`].
    pub fn members(&self) -> &'a [NodeId] {
        self.members
    }

    /// The center's position among the members.
    pub fn center(&self) -> usize {
        self.center
    }

    /// Distance from the center of each member.
    pub fn dist(&self) -> &'a [usize] {
        self.dist
    }

    /// Identifier of member `i`.
    pub fn id(&self, i: usize) -> Ident {
        self.instance.ids().ident(self.members[i])
    }

    /// Input of member `i`.
    pub fn input(&self, i: usize) -> usize {
        self.instance.input(self.members[i])
    }

    /// Certificate of member `i`.
    pub fn cert(&self, i: usize) -> &'a Certificate {
        self.assignment.cert(self.members[i])
    }

    /// The subgraph induced by the ball, on member positions; built on
    /// first read.
    pub fn ball(&self) -> &Graph {
        self.ball.get_or_init(|| {
            self.instance
                .graph()
                .induced_on_sorted(self.members, self.local)
        })
    }
}

/// Dense scratch for building ball views on one host graph. Each view
/// clears the entries the previous one set and reads its members' host
/// order off one scan of the slots, so a run over every vertex
/// allocates the scratch once and pays the BFS plus `n` per view.
#[derive(Debug)]
pub struct BallScratch {
    /// Per host vertex: its BFS distance while a ball is searched, then
    /// its position among the members; `usize::MAX` outside the ball.
    slot: Vec<usize>,
    members: Vec<NodeId>,
    dist: Vec<usize>,
}

impl BallScratch {
    /// Scratch for balls of an `n`-vertex host graph.
    pub fn new(n: usize) -> Self {
        BallScratch {
            slot: vec![usize::MAX; n],
            members: Vec::with_capacity(n),
            dist: Vec::with_capacity(n),
        }
    }

    /// The radius-`r` ball view of `v`.
    ///
    /// # Panics
    ///
    /// Panics if the scratch was made for fewer vertices than
    /// `instance` has.
    pub fn view<'a>(
        &'a mut self,
        instance: &'a Instance<'a>,
        assignment: &'a Assignment,
        v: NodeId,
        r: usize,
    ) -> BallView<'a> {
        let g = instance.graph();
        for &m in &self.members {
            self.slot[m.0] = usize::MAX;
        }
        // BFS to depth r; `members` doubles as the queue.
        self.members.clear();
        self.members.push(v);
        self.slot[v.0] = 0;
        let mut head = 0;
        while let Some(&u) = self.members.get(head) {
            head += 1;
            let d = self.slot[u.0];
            if d == r {
                continue;
            }
            for &w in g.neighbors(u) {
                if self.slot[w.0] == usize::MAX {
                    self.slot[w.0] = d + 1;
                    self.members.push(w);
                }
            }
        }
        // Host order from one scan of every slot, each member's distance
        // read out and its slot turned into its position.
        self.dist.clear();
        self.members.clear();
        for (u, s) in self.slot.iter_mut().enumerate() {
            if *s != usize::MAX {
                self.dist.push(*s);
                *s = self.members.len();
                self.members.push(NodeId(u));
            }
        }
        BallView {
            instance,
            assignment,
            members: &self.members,
            dist: &self.dist,
            local: &self.slot,
            center: self.slot[v.0],
            ball: OnceCell::new(),
        }
    }
}

/// A verifier reading radius-`r` balls.
pub trait RadiusVerifier {
    /// The verification radius.
    fn radius(&self) -> usize;
    /// One vertex's decision.
    fn verify(&self, view: &BallView<'_>) -> bool;
}

/// Runs a radius verifier at every vertex; returns the rejecting ids.
pub fn run_radius_verification(
    verifier: &dyn RadiusVerifier,
    instance: &Instance<'_>,
    assignment: &Assignment,
) -> Vec<Ident> {
    let mut scratch = BallScratch::new(instance.graph().num_nodes());
    let r = verifier.radius();
    instance
        .graph()
        .nodes()
        .filter(|&v| !verifier.verify(&scratch.view(instance, assignment, v, r)))
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

    fn verify(&self, view: &BallView<'_>) -> bool {
        view.dist().iter().all(|&d| d <= 2)
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

    /// A ball as the run built it before views were borrowed: sorted
    /// members, the induced subgraph, and a copy of every member's
    /// identifier, input, certificate and distance.
    struct EagerBall {
        members: Vec<NodeId>,
        center: usize,
        ball: Graph,
        ids: Vec<Ident>,
        inputs: Vec<usize>,
        certs: Vec<Certificate>,
        dist: Vec<usize>,
    }

    fn eager_reference(
        instance: &Instance<'_>,
        assignment: &Assignment,
        v: NodeId,
        r: usize,
    ) -> EagerBall {
        let g = instance.graph();
        let mut dist = vec![usize::MAX; g.num_nodes()];
        let mut local = vec![usize::MAX; g.num_nodes()];
        let mut members = vec![v];
        dist[v.0] = 0;
        let mut head = 0;
        while let Some(&u) = members.get(head) {
            head += 1;
            let d = dist[u.0];
            if d == r {
                continue;
            }
            for &w in g.neighbors(u) {
                if dist[w.0] == usize::MAX {
                    dist[w.0] = d + 1;
                    members.push(w);
                }
            }
        }
        members.sort_unstable();
        for (i, &m) in members.iter().enumerate() {
            local[m.0] = i;
        }
        EagerBall {
            center: local[v.0],
            ball: g.induced_on_sorted(&members, &local),
            ids: members.iter().map(|&m| instance.ids().ident(m)).collect(),
            inputs: members.iter().map(|&m| instance.input(m)).collect(),
            certs: members
                .iter()
                .map(|&m| assignment.cert(m).clone())
                .collect(),
            dist: members.iter().map(|&m| dist[m.0]).collect(),
            members,
        }
    }

    fn rows(g: &Graph) -> Vec<Vec<NodeId>> {
        g.nodes().map(|u| g.neighbors(u).to_vec()).collect()
    }

    #[test]
    fn lazy_views_agree_with_the_eager_reference() {
        use locert_graph::GraphBuilder;
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x26);
        for trial in 0..24 {
            let n = rng.random_range(1..40usize);
            // Connected graphs, and sparse possibly disconnected ones,
            // so balls range from one vertex to the whole host.
            let g = if trial % 2 == 0 {
                let extra = rng.random_range(0..2 * n);
                generators::random_connected(n, extra, &mut rng)
            } else {
                let mut b = GraphBuilder::new(n);
                for _ in 0..n {
                    let (u, w) = (rng.random_range(0..n), rng.random_range(0..n));
                    if u != w {
                        b.add_edge(u, w).expect("in range");
                    }
                }
                b.build()
            };
            let ids = IdAssignment::shuffled(n, &mut rng);
            let inputs: Vec<usize> = (0..n).map(|_| rng.random_range(0..4)).collect();
            let inst = Instance::with_inputs(&g, &ids, &inputs);
            let asg = Assignment::write_each(n, |v, w| {
                w.component("index");
                w.write(v.0 as u64, 6);
            });
            // One scratch across every center and radius, as a run uses it.
            let mut scratch = BallScratch::new(n);
            for r in 1..=3 {
                for v in g.nodes() {
                    let want = eager_reference(&inst, &asg, v, r);
                    let view = scratch.view(&inst, &asg, v, r);
                    let k = view.members().len();
                    assert_eq!(view.members(), &want.members[..], "r = {r}, v = {v:?}");
                    assert_eq!(view.center(), want.center);
                    assert_eq!(view.dist(), &want.dist[..]);
                    assert_eq!((0..k).map(|i| view.id(i)).collect::<Vec<_>>(), want.ids);
                    assert_eq!(
                        (0..k).map(|i| view.input(i)).collect::<Vec<_>>(),
                        want.inputs
                    );
                    assert_eq!(
                        (0..k).map(|i| view.cert(i).clone()).collect::<Vec<_>>(),
                        want.certs
                    );
                    assert_eq!(rows(view.ball()), rows(&want.ball));
                    assert_eq!(view.ball().num_edges(), want.ball.num_edges());
                }
            }
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
        let mut scratch = BallScratch::new(3);
        let view = scratch.view(&inst, &asg, NodeId(0), 1);
        assert_eq!(view.ball().num_nodes(), 3);
        assert_eq!(view.ball().num_edges(), 3);
        assert_eq!(view.dist()[view.center()], 0);
    }

    #[test]
    fn ball_radius_truncates() {
        let g = generators::path(7);
        let ids = IdAssignment::contiguous(7);
        let inst = Instance::new(&g, &ids);
        let asg = Assignment::empty(7);
        let mut scratch = BallScratch::new(7);
        let view = scratch.view(&inst, &asg, NodeId(0), 2);
        assert_eq!(view.ball().num_nodes(), 3);
        assert_eq!(view.dist().iter().copied().max(), Some(2));
    }
}
