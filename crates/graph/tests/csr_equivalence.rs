//! CSR observational equivalence: the flat offsets/neighbors layout
//! behind [`locert_graph::Graph`], and the counting-sort build in
//! [`GraphBuilder::build`] that fills it, must be indistinguishable from
//! a per-vertex adjacency-set model.
//!
//! The reference model is a per-vertex `BTreeSet`, rebuilt either from
//! the graph's own edge list or from the raw builder calls (duplicates,
//! both orientations, `add_node` between edges, invalid edges): if the
//! CSR slices were unsorted, duplicated, asymmetric, or misaligned
//! against `offsets`, the slices and the sets would disagree somewhere.
//! On top of that, BFS orders, `digest()`, and `.graph` text
//! round-trips must all be stable under a rebuild — those are the
//! observations the certification stack actually makes.

use locert_graph::digest::digest;
use locert_graph::io::{parse_edge_list, to_edge_list};
use locert_graph::{generators, traversal, Graph, GraphBuilder, GraphError, NodeId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeSet, VecDeque};

/// Every generator family at a size steered by `seed`.
fn families(seed: u64) -> Vec<(&'static str, Graph)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = 2 + (seed as usize % 21);
    let mut out = vec![
        ("path", generators::path(n)),
        ("cycle", generators::cycle(n.max(3))),
        ("clique", generators::clique(n.min(8))),
        ("star", generators::star(n)),
        ("spider", generators::spider(1 + n % 4, 1 + n % 5)),
        ("kary", generators::complete_kary_tree(2 + n % 2, 1 + n % 3)),
        ("random_tree", generators::random_tree(n, &mut rng)),
        (
            "random_connected",
            generators::random_connected(n, n / 2, &mut rng),
        ),
    ];
    let (g, _) = generators::random_bounded_treedepth(n.max(4), 3, 0.4, &mut rng);
    out.push(("bounded_td", g));
    out
}

/// Reference adjacency sets, rebuilt from the edge list alone.
fn reference_sets(g: &Graph) -> Vec<BTreeSet<usize>> {
    let mut sets = vec![BTreeSet::new(); g.num_nodes()];
    for (u, v) in g.edges() {
        sets[u.0].insert(v.0);
        sets[v.0].insert(u.0);
    }
    sets
}

/// BFS visit order over the reference sets (queue discipline, ascending
/// neighbor order) — the order the adjacency-set graph produced.
fn reference_bfs(sets: &[BTreeSet<usize>], source: usize) -> Vec<usize> {
    let mut seen = vec![false; sets.len()];
    let mut order = Vec::new();
    let mut queue = VecDeque::from([source]);
    seen[source] = true;
    while let Some(u) = queue.pop_front() {
        order.push(u);
        for &v in &sets[u] {
            if !seen[v] {
                seen[v] = true;
                queue.push_back(v);
            }
        }
    }
    order
}

/// BFS visit order over the CSR slices.
fn csr_bfs(g: &Graph, source: NodeId) -> Vec<usize> {
    let mut seen = vec![false; g.num_nodes()];
    let mut order = Vec::new();
    let mut queue = VecDeque::from([source]);
    seen[source.0] = true;
    while let Some(u) = queue.pop_front() {
        order.push(u.0);
        for &v in g.neighbors(u) {
            if !seen[v.0] {
                seen[v.0] = true;
                queue.push_back(v);
            }
        }
    }
    order
}

/// Replays raw builder calls on a `BTreeSet` model with the builder's
/// checks in the builder's order. Each op is `(kind, a, b)`: kind 0 adds
/// a vertex, any other kind adds the edge `{a mod (n + 1), b mod (n + 1)}`
/// for the current `n`, so endpoints `== n` (out of range) and self-loops
/// both turn up. Returns the sets and the error each edge call gave.
fn reference_build(
    n: usize,
    ops: &[(u8, usize, usize)],
) -> (Vec<BTreeSet<usize>>, Vec<Option<GraphError>>) {
    let mut sets = vec![BTreeSet::new(); n];
    let mut errors = Vec::new();
    for &(kind, a, b) in ops {
        let n = sets.len();
        if kind == 0 {
            sets.push(BTreeSet::new());
            continue;
        }
        let (u, v) = (a % (n + 1), b % (n + 1));
        let error = if u >= n {
            Some(GraphError::NodeOutOfRange { node: u, n })
        } else if v >= n {
            Some(GraphError::NodeOutOfRange { node: v, n })
        } else if u == v {
            Some(GraphError::SelfLoop { node: u })
        } else {
            sets[u].insert(v);
            sets[v].insert(u);
            None
        };
        errors.push(error);
    }
    (sets, errors)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn builder_matches_the_set_model_on_edge_multisets(
        n in 0usize..10,
        ops in prop::collection::vec((0u8..6, 0usize..64, 0usize..64), 0..60),
    ) {
        let (sets, expected_errors) = reference_build(n, &ops);

        let mut b = GraphBuilder::new(n);
        let mut errors = Vec::new();
        for &(kind, a, c) in &ops {
            if kind == 0 {
                let v = b.add_node();
                prop_assert_eq!(v, NodeId(b.num_nodes() - 1));
                continue;
            }
            let m = b.num_nodes() + 1;
            errors.push(b.add_edge(a % m, c % m).err());
        }
        prop_assert_eq!(&errors, &expected_errors, "errors diverged");
        let g = b.build();
        prop_assert_eq!(g.num_nodes(), sets.len());
        for v in g.nodes() {
            let row: Vec<usize> = g.neighbors(v).iter().map(|u| u.0).collect();
            let want: Vec<usize> = sets[v.0].iter().copied().collect();
            prop_assert_eq!(row, want, "row {:?} diverged", v);
        }
        let set_sum: usize = sets.iter().map(BTreeSet::len).sum();
        prop_assert_eq!(g.num_edges(), set_sum / 2);

        // `from_edges` on the same edges (no vertex added between them)
        // fails at the first bad edge, with that edge's error.
        let edges: Vec<(usize, usize)> =
            ops.iter().map(|&(_, a, c)| (a % (n + 1), c % (n + 1))).collect();
        let (edge_sets, edge_errors) =
            reference_build(n, &ops.iter().map(|&(_, a, c)| (1, a, c)).collect::<Vec<_>>());
        match edge_errors.into_iter().flatten().next() {
            Some(first) => prop_assert_eq!(Graph::from_edges(n, edges), Err(first)),
            None => {
                let g = Graph::from_edges(n, edges).unwrap();
                let rows: Vec<BTreeSet<usize>> = g
                    .nodes()
                    .map(|v| g.neighbors(v).iter().map(|u| u.0).collect())
                    .collect();
                prop_assert_eq!(rows, edge_sets);
            }
        }
    }

    #[test]
    fn csr_matches_adjacency_set_model(seed in 0u64..1 << 16) {
        for (name, g) in families(seed) {
            let sets = reference_sets(&g);

            // Neighbor slices: sorted, duplicate-free, symmetric, and
            // aligned with degrees and the edge count.
            let mut degree_sum = 0;
            for v in g.nodes() {
                let slice = g.neighbors(v);
                prop_assert!(
                    slice.windows(2).all(|w| w[0] < w[1]),
                    "{name}: neighbors of {v:?} not strictly sorted"
                );
                let as_set: BTreeSet<usize> = slice.iter().map(|u| u.0).collect();
                prop_assert_eq!(
                    &as_set, &sets[v.0],
                    "{}: neighbor set of {:?} diverged", name, v
                );
                prop_assert_eq!(g.degree(v), slice.len(), "{}: degree of {:?}", name, v);
                degree_sum += slice.len();
                for &u in slice {
                    prop_assert!(g.has_edge(v, u) && g.has_edge(u, v),
                        "{name}: has_edge asymmetric on ({v:?}, {u:?})");
                }
            }
            prop_assert_eq!(degree_sum, 2 * g.num_edges(), "{}: handshake", name);

            // BFS observation: the CSR slices visit in exactly the order
            // the sorted adjacency sets did.
            prop_assert_eq!(
                csr_bfs(&g, NodeId(0)),
                reference_bfs(&sets, 0),
                "{}: BFS order changed", name
            );
            prop_assert_eq!(
                traversal::is_connected(&g),
                reference_bfs(&sets, 0).len() == g.num_nodes(),
                "{}: connectivity", name
            );
        }
    }

    #[test]
    fn csr_rebuilds_and_io_round_trips_are_fixpoints(seed in 0u64..1 << 16) {
        for (name, g) in families(seed) {
            // Rebuilding through the set-based builder is the identity.
            let mut b = GraphBuilder::new(g.num_nodes());
            for (u, v) in g.edges() {
                b.add_edge(u.0, v.0).unwrap();
            }
            let rebuilt = b.build();
            prop_assert_eq!(&rebuilt, &g, "{}: builder round-trip", name);
            prop_assert_eq!(digest(&rebuilt), digest(&g), "{}: digest drift", name);

            // `.graph` text round-trip preserves the graph and its digest.
            let parsed = parse_edge_list(&to_edge_list(&g)).unwrap();
            prop_assert_eq!(&parsed, &g, "{}: io round-trip", name);
            prop_assert_eq!(digest(&parsed), digest(&g), "{}: io digest drift", name);
        }
    }
}
