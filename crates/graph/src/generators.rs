//! Deterministic and random graph generators.
//!
//! Every workload in the experiment suite comes from this module:
//! elementary families (paths, cycles, cliques, stars, spiders, complete
//! k-ary trees), uniformly random labeled trees (via Prüfer sequences),
//! random connected graphs, and random graphs of bounded treedepth built
//! from an explicit elimination tree (so the treedepth witness is known by
//! construction).

use crate::graph::{Graph, GraphBuilder};
use rand::prelude::IndexedRandom;
use rand::seq;
use rand::{Rng, RngExt};

/// The path `P_n` on `n` vertices (`0 - 1 - … - n-1`).
///
/// # Panics
///
/// Panics if `n == 0` (the paper only considers non-empty graphs).
pub fn path(n: usize) -> Graph {
    assert!(n > 0, "path requires at least one vertex");
    Graph::from_edges(n, (1..n).map(|i| (i - 1, i))).expect("path edges are valid")
}

/// The cycle `C_n` on `n >= 3` vertices.
///
/// # Panics
///
/// Panics if `n < 3`.
pub fn cycle(n: usize) -> Graph {
    assert!(n >= 3, "cycle requires at least three vertices");
    Graph::from_edges(n, (0..n).map(|i| (i, (i + 1) % n))).expect("cycle edges are valid")
}

/// The complete graph `K_n`.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn clique(n: usize) -> Graph {
    assert!(n > 0, "clique requires at least one vertex");
    let mut b = GraphBuilder::with_capacity(n, n * (n - 1) / 2);
    for u in 0..n {
        for v in (u + 1)..n {
            b.add_edge(u, v).expect("clique edges are valid");
        }
    }
    b.build()
}

/// The star `K_{1,n-1}`: vertex 0 adjacent to all others.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn star(n: usize) -> Graph {
    assert!(n > 0, "star requires at least one vertex");
    Graph::from_edges(n, (1..n).map(|i| (0, i))).expect("star edges are valid")
}

/// A spider: `legs` paths of length `leg_len` glued at a central vertex 0.
///
/// Has `1 + legs * leg_len` vertices.
///
/// # Panics
///
/// Panics if `leg_len == 0` and `legs > 0` is requested with zero-length
/// legs (use [`star`] for unit legs).
pub fn spider(legs: usize, leg_len: usize) -> Graph {
    assert!(leg_len > 0, "spider legs must have positive length");
    let n = 1 + legs * leg_len;
    let mut b = GraphBuilder::new(n);
    for l in 0..legs {
        let mut prev = 0;
        for j in 0..leg_len {
            let v = 1 + l * leg_len + j;
            b.add_edge(prev, v).expect("spider edges are valid");
            prev = v;
        }
    }
    b.build()
}

/// The complete `k`-ary tree of the given `depth` (a single vertex at
/// depth 0). Vertex 0 is the root; children are laid out level by level.
///
/// # Panics
///
/// Panics if `k == 0`.
pub fn complete_kary_tree(k: usize, depth: usize) -> Graph {
    assert!(k > 0, "arity must be positive");
    // Count vertices: 1 + k + k^2 + ... + k^depth.
    let mut n = 1usize;
    let mut level = 1usize;
    for _ in 0..depth {
        level *= k;
        n += level;
    }
    let mut b = GraphBuilder::new(n);
    // Level-order: vertex i's children are k*i + 1 ... k*i + k while in range.
    for i in 0..n {
        for c in 1..=k {
            let child = k * i + c;
            if child < n {
                b.add_edge(i, child).expect("tree edges are valid");
            }
        }
    }
    b.build()
}

/// Decodes a Prüfer sequence of length `n - 2` into a labeled tree on `n`
/// vertices. With a uniformly random sequence this samples labeled trees
/// uniformly (Cayley's bijection).
///
/// # Panics
///
/// Panics if `n < 2` or `seq.len() != n - 2`, or if a sequence entry is
/// `>= n`.
pub fn tree_from_prufer(n: usize, seq: &[usize]) -> Graph {
    assert!(n >= 2, "Prüfer decoding needs n >= 2");
    assert_eq!(seq.len(), n - 2, "Prüfer sequence must have length n - 2");
    let mut degree = vec![1usize; n];
    for &x in seq {
        assert!(x < n, "Prüfer entry out of range");
        degree[x] += 1;
    }
    let mut b = GraphBuilder::new(n);
    // Min-heap via sorted scan: use a BinaryHeap of Reverse for clarity.
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    let mut leaves: BinaryHeap<Reverse<usize>> =
        (0..n).filter(|&v| degree[v] == 1).map(Reverse).collect();
    for &x in seq {
        let Reverse(leaf) = leaves.pop().expect("a leaf always exists");
        b.add_edge(leaf, x).expect("Prüfer edges are valid");
        degree[x] -= 1;
        if degree[x] == 1 {
            leaves.push(Reverse(x));
        }
    }
    let Reverse(u) = leaves.pop().expect("two leaves remain");
    let Reverse(v) = leaves.pop().expect("two leaves remain");
    b.add_edge(u, v).expect("Prüfer edges are valid");
    b.build()
}

/// Uniformly random labeled tree on `n` vertices.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn random_tree<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Graph {
    assert!(n > 0, "tree requires at least one vertex");
    if n == 1 {
        return Graph::empty(1);
    }
    if n == 2 {
        return Graph::from_edges(2, [(0, 1)]).expect("valid");
    }
    let seq: Vec<usize> = (0..n - 2).map(|_| rng.random_range(0..n)).collect();
    tree_from_prufer(n, &seq)
}

/// Random connected graph: a random tree plus `extra_edges` additional
/// uniformly random non-edges (as many as available).
///
/// The non-edges are never listed: each row `u` holds
/// `(n − 1 − u) − |{tree neighbours > u}|` of them in lexicographic
/// order, a prefix sum over the rows turns a sampled index into its row,
/// and a walk along the tree's sorted neighbour row finds the column.
/// Cost: `O(n + extra_edges · (log n + Δ))` time and
/// `O(n + extra_edges)` space, with `Δ` the tree's maximum degree. The
/// draws are those of a partial Fisher–Yates over the lexicographic
/// non-edge list.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn random_connected<R: Rng + ?Sized>(n: usize, extra_edges: usize, rng: &mut R) -> Graph {
    let tree = random_tree(n, rng);
    let mut edges: Vec<(usize, usize)> = tree.edges().map(|(u, v)| (u.0, v.0)).collect();
    // `row_start[u]`: lexicographic index of row u's first non-edge.
    let mut row_start = Vec::with_capacity(n + 1);
    let mut total = 0usize;
    for u in 0..n {
        row_start.push(total);
        total += (n - 1 - u) - tree_neighbours_above(&tree, u).len();
    }
    row_start.push(total);
    let take = extra_edges.min(total);
    for k in seq::index::sample(rng, total, take) {
        let u = row_start.partition_point(|&s| s <= k) - 1;
        // The (k − row_start[u])-th v > u that is not a tree neighbour.
        let mut v = u + 1 + (k - row_start[u]);
        for &w in tree_neighbours_above(&tree, u) {
            if w.0 > v {
                break;
            }
            v += 1;
        }
        edges.push((u, v));
    }
    Graph::from_edges(n, edges).expect("sampled edges are valid")
}

/// The tree neighbours of `u` greater than `u`, ascending (a suffix of
/// the sorted CSR row).
fn tree_neighbours_above(tree: &Graph, u: usize) -> &[crate::NodeId] {
    let row = tree.neighbors(u.into());
    &row[row.partition_point(|w| w.0 < u)..]
}

/// A random rooted tree with exactly `n` vertices and depth at most
/// `max_depth`, returned as (graph, parent array, depth array) with vertex 0
/// as the root.
///
/// Each non-root vertex picks a uniformly random earlier vertex of depth
/// `< max_depth` as its parent, so the depth bound holds by construction.
///
/// # Panics
///
/// Panics if `n == 0`, or if `max_depth == 0 && n > 1`.
pub fn random_bounded_depth_tree<R: Rng + ?Sized>(
    n: usize,
    max_depth: usize,
    rng: &mut R,
) -> (Graph, Vec<Option<usize>>, Vec<usize>) {
    assert!(n > 0, "tree requires at least one vertex");
    assert!(
        max_depth > 0 || n == 1,
        "depth 0 only allows a single vertex"
    );
    let (parent, depth) = bounded_depth_parents(n, max_depth, rng);
    let edges = (1..n).map(|v| (parent[v].expect("non-root has a parent"), v));
    let g = Graph::from_edges(n, edges).expect("tree edges are valid");
    (g, parent, depth)
}

/// The parent and depth arrays of [`random_bounded_depth_tree`], from the
/// same draws, without building the graph.
fn bounded_depth_parents<R: Rng + ?Sized>(
    n: usize,
    max_depth: usize,
    rng: &mut R,
) -> (Vec<Option<usize>>, Vec<usize>) {
    let mut parent: Vec<Option<usize>> = vec![None; n];
    let mut depth = vec![0usize; n];
    let mut eligible: Vec<usize> = vec![0];
    for v in 1..n {
        let &p = eligible.choose(rng).expect("root is always eligible");
        parent[v] = Some(p);
        depth[v] = depth[p] + 1;
        if depth[v] < max_depth {
            eligible.push(v);
        }
    }
    (parent, depth)
}

/// A random connected graph of treedepth at most `t`, built from an explicit
/// elimination tree: first a random rooted tree of depth `< t` on the vertex
/// set (the elimination tree), then each tree edge becomes a graph edge
/// (making the model coherent and the graph connected) and every other
/// ancestor–descendant pair becomes an edge independently with probability
/// `ancestor_edge_prob`.
///
/// Returns the graph and the elimination-tree parent array (vertex 0 is the
/// root). The graph's treedepth is at most `t` by construction
/// (Definition 3.1).
///
/// # Panics
///
/// Panics if `t == 0`, or `n == 0`, or `ancestor_edge_prob` is not in
/// `[0, 1]`.
pub fn random_bounded_treedepth<R: Rng + ?Sized>(
    n: usize,
    t: usize,
    ancestor_edge_prob: f64,
    rng: &mut R,
) -> (Graph, Vec<Option<usize>>) {
    assert!(t > 0, "treedepth bound must be positive");
    assert!(
        (0.0..=1.0).contains(&ancestor_edge_prob),
        "probability must lie in [0, 1]"
    );
    // Depth here is 0-based, so "height <= t" means depth <= t - 1.
    let (parent, depth) = bounded_depth_parents(n, t - 1, rng);
    // Room for every ancestor pair: the most edges the draws can keep, so
    // the list never regrows.
    let mut edges = Vec::with_capacity(depth.iter().sum());
    for v in 1..n {
        let p = parent[v].expect("non-root has a parent");
        edges.push((p, v));
        // Walk strict ancestors above the parent.
        let mut a = parent[p];
        while let Some(anc) = a {
            if rng.random_bool(ancestor_edge_prob) {
                edges.push((anc, v));
            }
            a = parent[anc];
        }
    }
    let g = Graph::from_edges(n, edges).expect("tree and ancestor edges are valid");
    (g, parent)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traversal;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn path_shape() {
        let g = path(5);
        assert!(g.is_tree());
        assert_eq!(traversal::diameter(&g), Some(4));
        assert_eq!(g.degree(0.into()), 1);
        assert_eq!(g.degree(2.into()), 2);
    }

    #[test]
    fn path_single_vertex() {
        let g = path(1);
        assert_eq!(g.num_nodes(), 1);
        assert!(g.is_tree());
    }

    #[test]
    fn cycle_shape() {
        let g = cycle(6);
        assert_eq!(g.num_edges(), 6);
        assert!(traversal::has_cycle(&g));
        for v in g.nodes() {
            assert_eq!(g.degree(v), 2);
        }
    }

    #[test]
    fn clique_shape() {
        let g = clique(5);
        assert_eq!(g.num_edges(), 10);
        for v in g.nodes() {
            assert_eq!(g.degree(v), 4);
        }
    }

    #[test]
    fn star_shape() {
        let g = star(7);
        assert!(g.is_tree());
        assert_eq!(g.degree(0.into()), 6);
    }

    #[test]
    fn spider_shape() {
        let g = spider(3, 2);
        assert_eq!(g.num_nodes(), 7);
        assert!(g.is_tree());
        assert_eq!(g.degree(0.into()), 3);
        assert_eq!(traversal::diameter(&g), Some(4));
    }

    #[test]
    fn complete_binary_tree_shape() {
        let g = complete_kary_tree(2, 3);
        assert_eq!(g.num_nodes(), 15);
        assert!(g.is_tree());
        assert_eq!(traversal::eccentricity(&g, 0.into()), Some(3));
    }

    #[test]
    fn complete_kary_depth_zero() {
        let g = complete_kary_tree(3, 0);
        assert_eq!(g.num_nodes(), 1);
    }

    #[test]
    fn prufer_known_decoding() {
        // Classic example: sequence (3, 3, 3, 4) on 6 vertices gives a tree
        // where 3 has degree 4 (neighbors 0, 1, 2, 4) and 4-5 is an edge.
        let g = tree_from_prufer(6, &[3, 3, 3, 4]);
        assert!(g.is_tree());
        assert_eq!(g.degree(3.into()), 4);
        assert!(g.has_edge(4.into(), 5.into()));
    }

    #[test]
    fn prufer_n2() {
        let g = tree_from_prufer(2, &[]);
        assert!(g.is_tree());
        assert!(g.has_edge(0.into(), 1.into()));
    }

    #[test]
    fn random_tree_is_tree() {
        let mut rng = StdRng::seed_from_u64(1);
        for n in [1usize, 2, 3, 10, 57] {
            let g = random_tree(n, &mut rng);
            assert!(g.is_tree(), "n = {n}");
        }
    }

    #[test]
    fn random_connected_is_connected() {
        let mut rng = StdRng::seed_from_u64(2);
        for (n, extra) in [(1usize, 0usize), (5, 3), (20, 40), (8, 1000)] {
            let g = random_connected(n, extra, &mut rng);
            assert!(g.is_connected(), "n = {n}");
            assert!(g.num_edges() <= n * (n - 1) / 2 + 1);
        }
    }

    /// The O(n²) `random_connected` that the prefix-sum decoder
    /// replaces: list every non-edge, then sample the list.
    fn random_connected_reference<R: Rng + ?Sized>(n: usize, extra: usize, rng: &mut R) -> Graph {
        let tree = random_tree(n, rng);
        let mut edges: Vec<(usize, usize)> = tree.edges().map(|(u, v)| (u.0, v.0)).collect();
        let mut non_edges: Vec<(usize, usize)> = Vec::new();
        for u in 0..n {
            for v in (u + 1)..n {
                if !tree.has_edge(u.into(), v.into()) {
                    non_edges.push((u, v));
                }
            }
        }
        let take = extra.min(non_edges.len());
        edges.extend(non_edges.sample(rng, take).copied());
        Graph::from_edges(n, edges).expect("valid")
    }

    #[test]
    fn random_connected_matches_non_edge_list_reference() {
        // Non-edge counts: n(n−1)/2 − (n−1) = (n−1)(n−2)/2.
        let shapes = [
            (1usize, 0usize),
            (1, 5),
            (2, 0),
            (2, 3),
            (3, 0),
            (3, 1),
            (3, 2),
            (7, 14),
            (7, 15),
            (7, 16),
            (12, 20),
            (30, 406),
            (30, 500),
            (1000, 500),
        ];
        for seed in 0..40u64 {
            for &(n, extra) in &shapes {
                let mut fast_rng = StdRng::seed_from_u64(seed);
                let mut ref_rng = StdRng::seed_from_u64(seed);
                let fast = random_connected(n, extra, &mut fast_rng);
                let reference = random_connected_reference(n, extra, &mut ref_rng);
                assert_eq!(
                    fast.edges().collect::<Vec<_>>(),
                    reference.edges().collect::<Vec<_>>(),
                    "seed {seed}, n {n}, extra {extra}"
                );
                assert_eq!(
                    fast_rng.next_u64(),
                    ref_rng.next_u64(),
                    "seed {seed}, n {n}"
                );
            }
        }
    }

    /// The bounded-treedepth generators draw and build as they always
    /// have: pinned digests of the graph and of the parent array, so a
    /// change to how the edges are collected cannot move the instances.
    #[test]
    fn bounded_treedepth_instances_are_pinned() {
        for (seed, n, t, p, instance, tree) in [
            (
                1u64,
                8192usize,
                3usize,
                0.3,
                0x0aeb_1bdd_3303_e86c_u64,
                0xd3ed_c88f_d99e_cee6_u64,
            ),
            (7, 500, 4, 0.5, 0x0502_d4af_57b3_cf1d, 0x6382_b3dd_42cb_6a64),
            (11, 64, 2, 1.0, 0x6c7e_c141_ca5c_8ce6, 0x7345_c9fb_92bb_c3f8),
            (3, 1, 1, 0.5, 0xafd8_f3fa_8833_04db, 0xb026_cb45_7020_ada6),
        ] {
            let mut rng = StdRng::seed_from_u64(seed);
            let (g, parent) = random_bounded_treedepth(n, t, p, &mut rng);
            let parents = parent.iter().fold(crate::digest::digest(&g), |h, x| {
                h.wrapping_mul(31)
                    .wrapping_add(x.map_or(u64::MAX, |v| v as u64))
            });
            assert_eq!(parents, instance, "seed {seed}");
            let (g, _, _) = random_bounded_depth_tree(n.max(2), t, &mut rng);
            assert_eq!(crate::digest::digest(&g), tree, "seed {seed}");
        }
    }

    #[test]
    fn random_bounded_depth_tree_respects_depth() {
        let mut rng = StdRng::seed_from_u64(3);
        for (n, d) in [(10usize, 1usize), (50, 3), (100, 2)] {
            let (g, parent, depth) = random_bounded_depth_tree(n, d, &mut rng);
            assert!(g.is_tree());
            assert_eq!(parent[0], None);
            assert!(depth.iter().all(|&x| x <= d));
        }
        let (g, _, _) = random_bounded_depth_tree(1, 0, &mut rng);
        assert_eq!(g.num_nodes(), 1);
    }

    #[test]
    fn random_bounded_treedepth_is_connected_and_witnessed() {
        let mut rng = StdRng::seed_from_u64(4);
        for (n, t) in [(1usize, 1usize), (10, 3), (40, 4), (40, 2)] {
            let (g, parent) = random_bounded_treedepth(n, t, 0.5, &mut rng);
            assert!(g.is_connected());
            // Every graph edge joins an ancestor-descendant pair.
            let ancestors = |mut v: usize| -> Vec<usize> {
                let mut out = vec![v];
                while let Some(p) = parent[v] {
                    out.push(p);
                    v = p;
                }
                out
            };
            for (u, v) in g.edges() {
                let au = ancestors(u.0);
                let av = ancestors(v.0);
                assert!(
                    au.contains(&v.0) || av.contains(&u.0),
                    "edge {u}-{v} not ancestor-descendant"
                );
            }
        }
    }
}
