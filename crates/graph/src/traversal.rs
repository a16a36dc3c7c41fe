//! Breadth-first / depth-first traversal utilities.
//!
//! These are the workhorse primitives behind connectivity checks, distance
//! computations, spanning-tree provers and the diameter measurements used
//! throughout the experiment suite.

use crate::graph::Graph;
use crate::node::NodeId;
use std::collections::VecDeque;

/// BFS distances from `source`; `None` marks unreachable vertices.
///
/// # Panics
///
/// Panics if `source` is out of range.
pub fn bfs_distances(g: &Graph, source: NodeId) -> Vec<Option<usize>> {
    let mut dist = vec![None; g.num_nodes()];
    let mut queue = VecDeque::new();
    dist[source.0] = Some(0);
    queue.push_back(source);
    while let Some(u) = queue.pop_front() {
        let du = dist[u.0].expect("queued vertices have distances");
        for &v in g.neighbors(u) {
            if dist[v.0].is_none() {
                dist[v.0] = Some(du + 1);
                queue.push_back(v);
            }
        }
    }
    dist
}

/// A BFS tree from `source`: for every reachable vertex other than the
/// source, its parent in the BFS tree; `None` for the source and for
/// unreachable vertices.
pub fn bfs_parents(g: &Graph, source: NodeId) -> Vec<Option<NodeId>> {
    let mut parent = vec![None; g.num_nodes()];
    let mut seen = vec![false; g.num_nodes()];
    let mut queue = VecDeque::new();
    seen[source.0] = true;
    queue.push_back(source);
    while let Some(u) = queue.pop_front() {
        for &v in g.neighbors(u) {
            if !seen[v.0] {
                seen[v.0] = true;
                parent[v.0] = Some(u);
                queue.push_back(v);
            }
        }
    }
    parent
}

/// Whether `g` is connected. The empty graph is not connected.
pub fn is_connected(g: &Graph) -> bool {
    if g.num_nodes() == 0 {
        return false;
    }
    bfs_distances(g, NodeId(0)).iter().all(Option::is_some)
}

/// Connected components: `component[v]` is the component index of `v`,
/// with components numbered `0..` by smallest contained vertex.
pub fn components(g: &Graph) -> Vec<usize> {
    let mut comp = vec![usize::MAX; g.num_nodes()];
    let mut next = 0;
    for s in 0..g.num_nodes() {
        if comp[s] != usize::MAX {
            continue;
        }
        let mut queue = VecDeque::new();
        comp[s] = next;
        queue.push_back(NodeId(s));
        while let Some(u) = queue.pop_front() {
            for &v in g.neighbors(u) {
                if comp[v.0] == usize::MAX {
                    comp[v.0] = next;
                    queue.push_back(v);
                }
            }
        }
        next += 1;
    }
    comp
}

/// Vertex sets of the connected components, ordered by smallest vertex.
pub fn component_sets(g: &Graph) -> Vec<Vec<NodeId>> {
    let comp = components(g);
    let count = comp.iter().copied().max().map_or(0, |m| m + 1);
    let mut sets = vec![Vec::new(); count];
    for (v, &c) in comp.iter().enumerate() {
        sets[c].push(NodeId(v));
    }
    sets
}

/// Eccentricity of `v` (greatest distance to any vertex), or `None` if the
/// graph is disconnected.
pub fn eccentricity(g: &Graph, v: NodeId) -> Option<usize> {
    let dist = bfs_distances(g, v);
    let mut ecc = 0;
    for d in dist {
        ecc = ecc.max(d?);
    }
    Some(ecc)
}

/// Diameter of a connected graph, or `None` if disconnected or empty.
///
/// On a tree this is a double sweep: a BFS from vertex 0, then the
/// eccentricity of a vertex farthest from it (`O(n)` in all). Any other
/// graph runs a BFS from every vertex (`O(n·m)`).
pub fn diameter(g: &Graph) -> Option<usize> {
    if g.num_nodes() == 0 {
        return None;
    }
    if g.is_tree() {
        let from_root = bfs_distances(g, NodeId(0));
        let far = (0..from_root.len()).max_by_key(|&v| from_root[v])?;
        return eccentricity(g, NodeId(far));
    }
    let mut best = 0;
    for v in g.nodes() {
        best = best.max(eccentricity(g, v)?);
    }
    Some(best)
}

/// The endpoints and length of a longest shortest path (a "diametral pair").
pub fn diametral_pair(g: &Graph) -> Option<(NodeId, NodeId, usize)> {
    let mut best: Option<(NodeId, NodeId, usize)> = None;
    for v in g.nodes() {
        let dist = bfs_distances(g, v);
        for (u, d) in dist.iter().enumerate() {
            let d = (*d)?;
            if best.is_none_or(|(_, _, b)| d > b) {
                best = Some((v, NodeId(u), d));
            }
        }
    }
    best
}

/// Early-exit BFS from `source` to the nearest member of `targets`:
/// returns that vertex and its distance, or `None` when no target is
/// reachable (or `targets` is empty).
///
/// Used by the fault-injection campaigns to measure *rejection locality*
/// (how far from a fault site the nearest rejecting verifier sits), where
/// scanning full distance vectors per fault would be wasteful.
pub fn nearest_of(g: &Graph, source: NodeId, targets: &[NodeId]) -> Option<(NodeId, usize)> {
    let mut is_target = vec![false; g.num_nodes()];
    for &t in targets {
        if t.0 < g.num_nodes() {
            is_target[t.0] = true;
        }
    }
    if source.0 >= g.num_nodes() {
        return None;
    }
    if is_target[source.0] {
        return Some((source, 0));
    }
    let mut dist = vec![usize::MAX; g.num_nodes()];
    let mut queue = VecDeque::new();
    dist[source.0] = 0;
    queue.push_back(source);
    while let Some(u) = queue.pop_front() {
        for &v in g.neighbors(u) {
            if dist[v.0] == usize::MAX {
                dist[v.0] = dist[u.0] + 1;
                if is_target[v.0] {
                    return Some((v, dist[v.0]));
                }
                queue.push_back(v);
            }
        }
    }
    None
}

/// Whether the graph contains a cycle (i.e. is not a forest).
pub fn has_cycle(g: &Graph) -> bool {
    // A forest has exactly n - #components edges.
    let comps = components(g).iter().copied().max().map_or(0, |m| m + 1);
    g.num_edges() > g.num_nodes() - comps
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn bfs_distances_on_path() {
        let g = generators::path(5);
        let d = bfs_distances(&g, NodeId(0));
        assert_eq!(d, vec![Some(0), Some(1), Some(2), Some(3), Some(4)]);
    }

    #[test]
    fn bfs_distances_disconnected() {
        let g = Graph::from_edges(4, [(0, 1)]).unwrap();
        let d = bfs_distances(&g, NodeId(0));
        assert_eq!(d[2], None);
        assert_eq!(d[3], None);
    }

    #[test]
    fn bfs_parents_form_tree() {
        let g = generators::cycle(6);
        let p = bfs_parents(&g, NodeId(0));
        assert_eq!(p[0], None);
        let tree_edges = p.iter().filter(|x| x.is_some()).count();
        assert_eq!(tree_edges, 5);
        // Every parent edge is a real edge.
        for (v, par) in p.iter().enumerate() {
            if let Some(u) = par {
                assert!(g.has_edge(NodeId(v), *u));
            }
        }
    }

    #[test]
    fn components_counts() {
        let g = Graph::from_edges(5, [(0, 1), (2, 3)]).unwrap();
        let c = components(&g);
        assert_eq!(c[0], c[1]);
        assert_eq!(c[2], c[3]);
        assert_ne!(c[0], c[2]);
        assert_ne!(c[4], c[0]);
        assert_ne!(c[4], c[2]);
        assert_eq!(component_sets(&g).len(), 3);
    }

    #[test]
    fn diameter_of_path_and_cycle() {
        assert_eq!(diameter(&generators::path(7)), Some(6));
        assert_eq!(diameter(&generators::cycle(8)), Some(4));
        assert_eq!(diameter(&generators::clique(5)), Some(1));
        assert_eq!(diameter(&Graph::empty(1)), Some(0));
        assert_eq!(diameter(&Graph::empty(0)), None);
        assert_eq!(diameter(&Graph::empty(2)), None);
    }

    /// The all-pairs diameter the tree double sweep must agree with.
    fn diameter_all_pairs(g: &Graph) -> Option<usize> {
        if g.num_nodes() == 0 {
            return None;
        }
        g.nodes().map(|v| eccentricity(g, v)).max()?
    }

    #[test]
    fn diameter_matches_all_pairs() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(5);
        let mut graphs = vec![
            generators::path(1),
            generators::path(2),
            generators::path(9),
            generators::star(2),
            generators::star(11),
            generators::spider(4, 3),
            generators::cycle(7),
            generators::clique(4),
            // n − 1 edges but disconnected: a triangle plus a vertex.
            Graph::from_edges(4, [(0, 1), (1, 2), (0, 2)]).unwrap(),
            Graph::from_edges(6, [(0, 1), (2, 3), (4, 5)]).unwrap(),
            Graph::empty(3),
        ];
        for n in [1usize, 2, 3, 5, 13, 40, 90] {
            for _ in 0..6 {
                graphs.push(generators::random_tree(n, &mut rng));
                graphs.push(generators::random_connected(n, n / 3 + 1, &mut rng));
                let forest = generators::random_tree(n, &mut rng);
                let cut: Vec<_> = forest.edges().skip(1).map(|(u, v)| (u.0, v.0)).collect();
                graphs.push(Graph::from_edges(n, cut).unwrap());
            }
        }
        for g in &graphs {
            assert_eq!(diameter(g), diameter_all_pairs(g), "{g:?}");
        }
    }

    #[test]
    fn diametral_pair_on_path() {
        let g = generators::path(4);
        let (u, v, d) = diametral_pair(&g).unwrap();
        assert_eq!(d, 3);
        assert!((u, v) == (NodeId(0), NodeId(3)) || (u, v) == (NodeId(3), NodeId(0)));
    }

    #[test]
    fn eccentricity_star_center() {
        let g = generators::star(6);
        assert_eq!(eccentricity(&g, NodeId(0)), Some(1));
        assert_eq!(eccentricity(&g, NodeId(1)), Some(2));
    }

    #[test]
    fn nearest_of_finds_closest_target() {
        let g = generators::path(7);
        // From v2, targets at both ends: v0 at distance 2 beats v6 at 4.
        assert_eq!(
            nearest_of(&g, NodeId(2), &[NodeId(0), NodeId(6)]),
            Some((NodeId(0), 2))
        );
        // Source itself a target.
        assert_eq!(
            nearest_of(&g, NodeId(3), &[NodeId(3)]),
            Some((NodeId(3), 0))
        );
        // No targets / unreachable targets.
        assert_eq!(nearest_of(&g, NodeId(0), &[]), None);
        let disc = Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        assert_eq!(nearest_of(&disc, NodeId(0), &[NodeId(3)]), None);
        // Out-of-range targets are ignored rather than panicking.
        assert_eq!(nearest_of(&g, NodeId(0), &[NodeId(99)]), None);
    }

    #[test]
    fn has_cycle_detects() {
        assert!(!has_cycle(&generators::path(6)));
        assert!(has_cycle(&generators::cycle(3)));
        let forest = Graph::from_edges(5, [(0, 1), (2, 3), (3, 4)]).unwrap();
        assert!(!has_cycle(&forest));
        let forest_plus = forest.with_edges([(2, 4)]).unwrap();
        assert!(has_cycle(&forest_plus));
    }
}
