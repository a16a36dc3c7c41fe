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
//! That decision reads only how deep its ball reaches, so a
//! [`BallView`] carries the ball's depth and nothing else.
//!
//! Each ball is found by a breadth-first search over 64-bit words, so a
//! view costs about its ball's size in words, not the host's `n`
//! vertices:
//!
//! - the visited set is a word bitset, cleared through the list of the
//!   words it touched;
//! - sparse levels are vertex lists, expanded over the CSR;
//! - a host row of degree at least `⌈n/64⌉` (a *hub row*) is kept once
//!   per run as a bitset, which is then no longer than the row's list,
//!   and a level that holds a hub is expanded into a bitset, each hub
//!   row ORed in whole.
//!
//! A level made by a bitset step stays a bitset: the 510 leaves two
//! hops from a leaf of a 512-vertex star are never listed. Each vertex
//! still decides from its own ball alone; hub rows are only another form
//! of the host's adjacency.

use crate::framework::{Assignment, Instance};
use locert_graph::{Graph, Ident, NodeId};

/// Bits per bitset word.
const WORD: usize = 64;

/// The hub-row entry of a vertex whose row stays a list.
const NO_ROW: usize = usize::MAX;

/// What a vertex's radius-`r` search found: how deep its ball reaches.
#[derive(Debug)]
pub struct BallView {
    depth: usize,
    /// The ball's size, for the tests' reference.
    #[cfg(test)]
    size: usize,
}

impl BallView {
    /// The largest distance from the center to a ball member: the
    /// deepest level the search reached, at most `r`.
    pub fn depth(&self) -> usize {
        self.depth
    }
}

/// Scratch for the radius-`r` views of one graph. It is allocated once,
/// in three buffers, and each view clears only what the previous one
/// set, so a run over every vertex allocates nothing per vertex:
///
/// - bitsets of `⌈n/64⌉` words each: the visited set, the current and
///   the next level, and the hub rows (at most `2m` words in all);
/// - the queue of the list levels;
/// - each vertex's hub row, and the words the visited set touched.
#[derive(Debug)]
pub struct BallScratch<'a> {
    g: &'a Graph,
    /// The visited set, the current level, the next level, then the hub
    /// rows.
    words: Vec<u64>,
    /// `n` queue entries.
    queue: Vec<NodeId>,
    /// `n` hub-row offsets (in words past the level bitsets; [`NO_ROW`]
    /// for a list row), then `⌈n/64⌉` touched words.
    slots: Vec<usize>,
    /// The touched words the last search recorded.
    touched: usize,
}

impl<'a> BallScratch<'a> {
    /// Scratch for the balls of `g`; stores the graph's hub rows.
    pub fn new(g: &'a Graph) -> Self {
        let n = g.num_nodes();
        let w = n.div_ceil(WORD);
        let is_hub = |u: NodeId| g.degree(u) >= w;
        let hubs = g.nodes().filter(|&u| is_hub(u)).count();
        let mut words = vec![0; (3 + hubs) * w];
        let mut slots = vec![NO_ROW; n + w];
        let rows = &mut words[3 * w..];
        for (k, u) in g.nodes().filter(|&u| is_hub(u)).enumerate() {
            slots[u.0] = k * w;
            for x in g.neighbors(u) {
                set(&mut rows[k * w..], x.0);
            }
        }
        BallScratch {
            g,
            words,
            queue: vec![NodeId(0); n],
            slots,
            touched: 0,
        }
    }

    /// The radius-`r` ball view of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not a vertex of the graph.
    pub fn view(&mut self, v: NodeId, r: usize) -> BallView {
        let n = self.g.num_nodes();
        let w = n.div_ceil(WORD);
        let (visited, rest) = self.words.split_at_mut(w);
        let (levels, rows) = rest.split_at_mut(2 * w);
        let (row, touched) = self.slots.split_at_mut(n);
        for &i in &touched[..self.touched] {
            visited[i] = 0;
        }
        let mut search = Search {
            g: self.g,
            row,
            rows,
            visited: Visited {
                words: visited,
                touched,
                len: 0,
                count: 0,
            },
        };
        let depth = search.run(v, r, levels, &mut self.queue);
        self.touched = search.visited.len;
        BallView {
            depth,
            #[cfg(test)]
            size: search.visited.count,
        }
    }
}

/// Where a level of the search lives.
#[derive(Clone, Copy)]
enum Level {
    /// `queue[start..end]`.
    List { start: usize, end: usize },
    /// The current-level bitset, holding this many vertices.
    Bits(usize),
}

impl Level {
    fn len(self) -> usize {
        match self {
            Level::List { start, end } => end - start,
            Level::Bits(len) => len,
        }
    }
}

/// The visited bitset of one search and the words it touched.
struct Visited<'s> {
    words: &'s mut [u64],
    touched: &'s mut [usize],
    /// Touched words recorded.
    len: usize,
    /// Vertices visited.
    count: usize,
}

impl Visited<'_> {
    /// Adds `u`; whether it was new.
    fn insert(&mut self, u: usize) -> bool {
        let (i, bit) = (u / WORD, 1 << (u % WORD));
        let word = &mut self.words[i];
        if *word & bit != 0 {
            return false;
        }
        if *word == 0 {
            self.touched[self.len] = i;
            self.len += 1;
        }
        *word |= bit;
        self.count += 1;
        true
    }

    /// Drops the visited vertices from `next`, adds the rest, and returns
    /// how many those are.
    fn absorb(&mut self, next: &mut [u64]) -> usize {
        let mut added = 0;
        for (i, (seen, new)) in self.words.iter_mut().zip(next.iter_mut()).enumerate() {
            *new &= !*seen;
            if *new != 0 {
                if *seen == 0 {
                    self.touched[self.len] = i;
                    self.len += 1;
                }
                *seen |= *new;
                added += new.count_ones() as usize;
            }
        }
        self.count += added;
        added
    }
}

/// One ball search over the host graph and its hub rows.
struct Search<'s> {
    g: &'s Graph,
    /// Per host vertex, its hub row's offset in `rows`, or [`NO_ROW`].
    row: &'s [usize],
    rows: &'s [u64],
    visited: Visited<'s>,
}

impl Search<'_> {
    /// Searches from `v` to depth `r`, with `levels` holding two level
    /// bitsets and `queue` the list levels; returns the deepest level
    /// reached.
    fn run(&mut self, v: NodeId, r: usize, levels: &mut [u64], queue: &mut [NodeId]) -> usize {
        let n = self.g.num_nodes();
        let (mut front, mut next) = levels.split_at_mut(levels.len() / 2);
        self.visited.insert(v.0);
        queue[0] = v;
        let mut level = Level::List { start: 0, end: 1 };
        let mut depth = 0;
        while depth < r && self.visited.count < n {
            let found = match self.list_step(level, queue) {
                Some(found) => found,
                None => self.bits_step(level, queue, front, next),
            };
            if found.len() == 0 {
                break;
            }
            if let Level::Bits(_) = found {
                std::mem::swap(&mut front, &mut next);
            }
            level = found;
            depth += 1;
        }
        depth
    }

    /// Expands a list level without hub rows, appending the next level
    /// to `queue`; `None` for any other level.
    fn list_step(&mut self, level: Level, queue: &mut [NodeId]) -> Option<Level> {
        let Level::List { start, end } = level else {
            return None;
        };
        if queue[start..end].iter().any(|u| self.row[u.0] != NO_ROW) {
            return None;
        }
        let mut tail = end;
        for k in start..end {
            for &x in self.g.neighbors(queue[k]) {
                if self.visited.insert(x.0) {
                    queue[tail] = x;
                    tail += 1;
                }
            }
        }
        Some(Level::List {
            start: end,
            end: tail,
        })
    }

    /// Expands `level` (the list in `queue` or the bitset `front`) into
    /// the bitset `next`, ORing hub rows in whole.
    fn bits_step(
        &mut self,
        level: Level,
        queue: &[NodeId],
        front: &[u64],
        next: &mut [u64],
    ) -> Level {
        next.fill(0);
        let w = next.len();
        let mut expand = |u: usize| match self.row[u] {
            NO_ROW => {
                for x in self.g.neighbors(NodeId(u)) {
                    set(next, x.0);
                }
            }
            at => {
                for (word, hub) in next.iter_mut().zip(&self.rows[at..at + w]) {
                    *word |= hub;
                }
            }
        };
        match level {
            Level::List { start, end } => queue[start..end].iter().for_each(|u| expand(u.0)),
            Level::Bits(_) => {
                for (i, &word) in front.iter().enumerate() {
                    let mut rest = word;
                    while rest != 0 {
                        expand(i * WORD + rest.trailing_zeros() as usize);
                        rest &= rest - 1;
                    }
                }
            }
        }
        Level::Bits(self.visited.absorb(next))
    }
}

fn set(bits: &mut [u64], u: usize) {
    bits[u / WORD] |= 1 << (u % WORD);
}

/// A verifier reading radius-`r` balls.
pub trait RadiusVerifier {
    /// The verification radius.
    fn radius(&self) -> usize;
    /// One vertex's decision.
    fn verify(&self, view: &BallView) -> bool;
}

/// Runs a radius verifier at every vertex; returns the rejecting ids.
///
/// `_assignment` is the model's certificate input; Appendix A.1's
/// verifier decides with empty certificates and does not read it.
pub fn run_radius_verification(
    verifier: &dyn RadiusVerifier,
    instance: &Instance<'_>,
    _assignment: &Assignment,
) -> Vec<Ident> {
    let mut scratch = BallScratch::new(instance.graph());
    let r = verifier.radius();
    instance
        .graph()
        .nodes()
        .filter(|&v| !verifier.verify(&scratch.view(v, r)))
        .map(|v| instance.ids().ident(v))
        .collect()
}

/// Appendix A.1's example: "diameter ≤ 2" with **empty certificates** at
/// radius 3.
///
/// A connected graph has diameter ≤ 2 iff no vertex has another vertex
/// at distance exactly 3, so each vertex accepts iff its radius-3 ball
/// has depth at most 2 (no member at distance 3). Radius 3 suffices: if
/// some pair is at distance ≥ 3, the shortest path from one endpoint
/// passes a vertex at distance exactly 3, which that endpoint's ball
/// contains (a pair at distance ∞ would need a disconnected graph,
/// excluded by the model's promise).
#[derive(Debug, Clone, Copy)]
pub struct DiameterTwoAtRadiusThree;

impl RadiusVerifier for DiameterTwoAtRadiusThree {
    fn radius(&self) -> usize {
        3
    }

    fn verify(&self, view: &BallView) -> bool {
        view.depth() <= 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use locert_graph::traversal;
    use locert_graph::{generators, GraphBuilder, IdAssignment};
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

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

    /// The view as the scratch built it before the word search: a BFS
    /// into one dense slot per host vertex, then host order from a scan
    /// of every slot, which reads out each member's distance and turns
    /// its slot into its position. Reused across centers, as the run
    /// reused it.
    struct SlotScan {
        slot: Vec<usize>,
        members: Vec<NodeId>,
        dist: Vec<usize>,
    }

    impl SlotScan {
        fn new(n: usize) -> Self {
            SlotScan {
                slot: vec![usize::MAX; n],
                members: Vec::new(),
                dist: Vec::new(),
            }
        }

        fn scan(&mut self, g: &Graph, v: NodeId, r: usize) {
            for &m in &self.members {
                self.slot[m.0] = usize::MAX;
            }
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
            self.dist.clear();
            self.members.clear();
            for (u, s) in self.slot.iter_mut().enumerate() {
                if *s != usize::MAX {
                    self.dist.push(*s);
                    *s = self.members.len();
                    self.members.push(NodeId(u));
                }
            }
        }
    }

    /// Holds every view of `g` at r = 1..3 to the slot scan, depth and
    /// size, with one scratch across every center and radius as a run
    /// uses it, and the radius-3 run's rejecting set to the scan's. A
    /// third of the views follow a view of another center.
    fn assert_views_agree(g: &Graph, rng: &mut StdRng) {
        let n = g.num_nodes();
        let ids = IdAssignment::shuffled(n, rng);
        let inst = Instance::new(g, &ids);
        let mut scan = SlotScan::new(n);
        let mut scratch = BallScratch::new(g);
        let mut assert_view = |scan: &mut SlotScan, v: NodeId, r: usize| {
            scan.scan(g, v, r);
            let view = scratch.view(v, r);
            let deepest = scan.dist.iter().copied().max();
            assert_eq!(Some(view.depth()), deepest, "r = {r}, v = {v:?}");
            assert_eq!(view.size, scan.members.len(), "r = {r}, v = {v:?}");
        };
        for r in 1..=3 {
            for v in g.nodes() {
                if v.0 % 3 == 0 {
                    assert_view(&mut scan, NodeId((v.0 + 1) % n), r);
                }
                assert_view(&mut scan, v, r);
            }
        }
        let rejecting =
            run_radius_verification(&DiameterTwoAtRadiusThree, &inst, &Assignment::empty(n));
        let want: Vec<Ident> = g
            .nodes()
            .filter(|&v| {
                scan.scan(g, v, 3);
                scan.dist.iter().any(|&d| d > 2)
            })
            .map(|v| ids.ident(v))
            .collect();
        assert_eq!(rejecting, want, "graph {g:?}");
    }

    /// A graph on `n` vertices with `m` random edges, possibly
    /// disconnected.
    fn random_sparse(n: usize, m: usize, rng: &mut StdRng) -> Graph {
        let mut b = GraphBuilder::new(n);
        for _ in 0..m {
            let (u, w) = (rng.random_range(0..n), rng.random_range(0..n));
            if u != w {
                b.add_edge(u, w).expect("in range");
            }
        }
        b.build()
    }

    #[test]
    fn views_agree_with_the_slot_scan() {
        let mut rng = StdRng::seed_from_u64(0x26);
        // Hosts below 64 vertices, where every row of degree at least 1 is
        // a hub row. Connected graphs, and sparse possibly disconnected
        // ones, so balls range from one vertex to the whole host.
        for trial in 0..24 {
            let n = rng.random_range(1..40usize);
            let g = if trial % 2 == 0 {
                let extra = rng.random_range(0..2 * n);
                generators::random_connected(n, extra, &mut rng)
            } else {
                random_sparse(n, n, &mut rng)
            };
            assert_views_agree(&g, &mut rng);
        }
        // Hosts of 65 to 300 vertices, where rows of degree below
        // ⌈n/64⌉ stay lists: sparse connected, sparse disconnected, and
        // dense graphs.
        for trial in 0..12 {
            let n = rng.random_range(65..300usize);
            let g = match trial % 3 {
                0 => {
                    let extra = rng.random_range(0..n);
                    generators::random_connected(n, extra, &mut rng)
                }
                1 => random_sparse(n, n, &mut rng),
                _ => {
                    let extra = n * rng.random_range(4..16usize);
                    generators::random_connected(n, extra, &mut rng)
                }
            };
            assert_views_agree(&g, &mut rng);
        }
        // Stars with pendant paths (a hub row ORed in, then bitset
        // levels), stars, paths, cycles, a clique, a tree beside a star
        // and a star with cliques beyond a leaf; the paths, `cycle(7)`,
        // `cycle(130)` and both last hosts reject.
        for g in [
            generators::spider(100, 2),
            generators::spider(60, 3),
            generators::star(300),
            generators::star(65),
            generators::path(70),
            generators::path(300),
            generators::cycle(7),
            generators::cycle(130),
            generators::clique(80),
            tree_beside_a_star(),
            cliques_beyond_a_star(),
        ] {
            assert_views_agree(&g, &mut rng);
        }
    }

    /// A star with 100 leaves on vertices 0..=100, its center a hub row,
    /// and vertex 101 below leaf 1, beside a tree rooted at vertex 102:
    /// 63 children with 62 children each, and one more vertex below each
    /// of the first 126 of those. No tree row is a hub row (degree
    /// 63 < ⌈4198/64⌉ = 66), so the root's three levels are lists. The
    /// star's last views leave vertex 101 in a level bitset, which a
    /// stale frontier would pass to leaf 1.
    fn tree_beside_a_star() -> Graph {
        let mut b = GraphBuilder::new(102);
        for leaf in 1..=100 {
            b.add_edge(0, leaf).expect("in range");
        }
        b.add_edge(1, 101).expect("in range");
        let root = b.add_node().0;
        let mut below = Vec::new();
        for _ in 0..63 {
            let child = b.add_node().0;
            b.add_edge(root, child).expect("in range");
            for _ in 0..62 {
                let grandchild = b.add_node().0;
                b.add_edge(child, grandchild).expect("in range");
                below.push(grandchild);
            }
        }
        for &parent in &below[..126] {
            let leaf = b.add_node().0;
            b.add_edge(parent, leaf).expect("in range");
        }
        let g = b.build();
        assert_eq!(g.num_nodes(), 4198);
        g
    }

    /// A star with 700 leaves on vertices 0..=700, its center a hub row,
    /// and a vertex `p` below leaf 1 joined to one vertex of each of nine
    /// disjoint 10-cliques: 792 vertices, so every row but the center's
    /// is a list (degree at most 10 < ⌈792/64⌉ = 13). The radius-3 view
    /// of every leaf but 1 reaches `p` and no clique, and leaves most of
    /// the host's edges, the cliques', unvisited; `p`'s views expand list
    /// levels into the cliques and a hub row beyond leaf 1.
    fn cliques_beyond_a_star() -> Graph {
        let mut b = GraphBuilder::new(702);
        for leaf in 1..=700 {
            b.add_edge(0, leaf).expect("in range");
        }
        b.add_edge(1, 701).expect("in range");
        for _ in 0..9 {
            let clique: Vec<usize> = (0..10).map(|_| b.add_node().0).collect();
            b.add_edge(701, clique[0]).expect("in range");
            for (i, &x) in clique.iter().enumerate() {
                for &y in &clique[i + 1..] {
                    b.add_edge(x, y).expect("in range");
                }
            }
        }
        let g = b.build();
        assert_eq!(g.num_nodes(), 792);
        g
    }

    #[test]
    fn ball_radius_truncates() {
        let g = generators::path(7);
        let mut scratch = BallScratch::new(&g);
        let view = scratch.view(NodeId(0), 2);
        assert_eq!(view.depth(), 2);
        assert_eq!(view.size, 3);
    }
}
