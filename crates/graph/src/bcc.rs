//! Biconnected components and cut vertices (Tarjan–Hopcroft).
//!
//! Corollary 2.7 certifies `C_t`-minor-freeness by decomposing the graph
//! into 2-connected components and certifying `P_{t²}`-minor-freeness on
//! each; this module provides the decomposition and its ground truth.

use crate::graph::Graph;
use crate::node::NodeId;

/// The biconnected components of `g`, as edge sets, plus the cut vertices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BccDecomposition {
    /// Each biconnected component, as a list of edges.
    pub components: Vec<Vec<(NodeId, NodeId)>>,
    /// The cut (articulation) vertices.
    pub cut_vertices: Vec<NodeId>,
}

impl BccDecomposition {
    /// Overwrites `vs` with the vertex set of component `i` (sorted,
    /// deduplicated), reusing its allocation.
    pub fn component_vertices(&self, i: usize, vs: &mut Vec<NodeId>) {
        vs.clear();
        vs.extend(self.components[i].iter().flat_map(|&(u, v)| [u, v]));
        vs.sort_unstable();
        vs.dedup();
    }
}

/// Computes the biconnected components and cut vertices of `g` with an
/// iterative Tarjan–Hopcroft DFS (no recursion, safe on long paths).
///
/// Isolated vertices appear in no component; a bridge forms a component of
/// one edge.
pub fn biconnected_components(g: &Graph) -> BccDecomposition {
    let n = g.num_nodes();
    let mut disc = vec![usize::MAX; n];
    let mut low = vec![usize::MAX; n];
    let mut is_cut = vec![false; n];
    let mut time = 0usize;
    let mut edge_stack: Vec<(NodeId, NodeId)> = Vec::new();
    let mut components = Vec::new();

    // Iterative DFS frames:
    // (vertex, parent, next neighbor index, DFS child count, edge-stack base).
    // `edge_base` is the edge-stack length just before the tree edge into
    // this vertex was pushed; popping down to it yields the biconnected
    // component hanging below that edge.
    struct Frame {
        u: usize,
        parent: Option<usize>,
        idx: usize,
        children: usize,
        edge_base: usize,
    }
    for start in 0..n {
        if disc[start] != usize::MAX {
            continue;
        }
        disc[start] = time;
        low[start] = time;
        time += 1;
        let mut stack = vec![Frame {
            u: start,
            parent: None,
            idx: 0,
            children: 0,
            edge_base: 0,
        }];
        while let Some(top) = stack.last_mut() {
            let u = top.u;
            let parent = top.parent;
            let nbrs = g.neighbors(NodeId(u));
            if top.idx < nbrs.len() {
                let v = nbrs[top.idx].0;
                top.idx += 1;
                if disc[v] == usize::MAX {
                    top.children += 1;
                    let edge_base = edge_stack.len();
                    edge_stack.push((NodeId(u), NodeId(v)));
                    disc[v] = time;
                    low[v] = time;
                    time += 1;
                    stack.push(Frame {
                        u: v,
                        parent: Some(u),
                        idx: 0,
                        children: 0,
                        edge_base,
                    });
                } else if Some(v) != parent && disc[v] < disc[u] {
                    edge_stack.push((NodeId(u), NodeId(v)));
                    low[u] = low[u].min(disc[v]);
                }
            } else {
                // Finished u; propagate low-link and detect components.
                let frame = stack.pop().expect("frame exists");
                if let Some(p) = frame.parent {
                    low[p] = low[p].min(low[u]);
                    if low[u] >= disc[p] {
                        // Edge (p, u) closes a biconnected component. p is a
                        // cut vertex unless it is the DFS root (handled via
                        // child count when its own frame pops).
                        if stack.len() > 1 {
                            is_cut[p] = true;
                        }
                        let comp: Vec<(NodeId, NodeId)> =
                            edge_stack.drain(frame.edge_base..).collect();
                        debug_assert!(!comp.is_empty());
                        components.push(comp);
                    }
                } else if frame.children >= 2 {
                    // DFS root: cut vertex iff it has at least two children.
                    is_cut[u] = true;
                }
            }
        }
        debug_assert!(edge_stack.is_empty());
    }

    let cut_vertices = (0..n).filter(|&v| is_cut[v]).map(NodeId).collect();
    BccDecomposition {
        components,
        cut_vertices,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn path_every_edge_is_a_component() {
        let g = generators::path(5);
        let d = biconnected_components(&g);
        assert_eq!(d.components.len(), 4);
        for c in &d.components {
            assert_eq!(c.len(), 1);
        }
        // Internal path vertices are cut vertices.
        assert_eq!(d.cut_vertices, vec![NodeId(1), NodeId(2), NodeId(3)]);
    }

    #[test]
    fn cycle_is_one_component() {
        let g = generators::cycle(6);
        let d = biconnected_components(&g);
        assert_eq!(d.components.len(), 1);
        assert_eq!(d.components[0].len(), 6);
        assert!(d.cut_vertices.is_empty());
    }

    #[test]
    fn two_triangles_sharing_a_vertex() {
        // Triangles 0-1-2 and 2-3-4 share vertex 2.
        let g = Graph::from_edges(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)]).unwrap();
        let d = biconnected_components(&g);
        assert_eq!(d.components.len(), 2);
        assert_eq!(d.cut_vertices, vec![NodeId(2)]);
        let mut vs = Vec::new();
        for i in 0..2 {
            d.component_vertices(i, &mut vs);
            assert_eq!(vs.len(), 3);
        }
    }

    #[test]
    fn bridge_between_cycles() {
        // Cycle 0-1-2, bridge 2-3, cycle 3-4-5.
        let g =
            Graph::from_edges(6, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3)]).unwrap();
        let d = biconnected_components(&g);
        assert_eq!(d.components.len(), 3);
        let sizes: Vec<usize> = {
            let mut s: Vec<usize> = d.components.iter().map(Vec::len).collect();
            s.sort();
            s
        };
        assert_eq!(sizes, vec![1, 3, 3]);
        assert_eq!(d.cut_vertices, vec![NodeId(2), NodeId(3)]);
    }

    #[test]
    fn disconnected_graphs() {
        let g = Graph::from_edges(6, [(0, 1), (2, 3), (3, 4), (4, 2)]).unwrap();
        let d = biconnected_components(&g);
        assert_eq!(d.components.len(), 2);
        assert!(d.cut_vertices.is_empty());
    }

    #[test]
    fn star_center_is_cut() {
        let g = generators::star(5);
        let d = biconnected_components(&g);
        assert_eq!(d.components.len(), 4);
        assert_eq!(d.cut_vertices, vec![NodeId(0)]);
    }

    #[test]
    fn clique_is_single_component_no_cuts() {
        let g = generators::clique(5);
        let d = biconnected_components(&g);
        assert_eq!(d.components.len(), 1);
        assert_eq!(d.components[0].len(), 10);
        assert!(d.cut_vertices.is_empty());
    }

    #[test]
    fn edges_partition_into_components() {
        // Every edge appears in exactly one component.
        let g = Graph::from_edges(
            8,
            [
                (0, 1),
                (1, 2),
                (2, 0),
                (2, 3),
                (3, 4),
                (4, 5),
                (5, 3),
                (5, 6),
                (6, 7),
            ],
        )
        .unwrap();
        let d = biconnected_components(&g);
        let mut all: Vec<(usize, usize)> = d
            .components
            .iter()
            .flatten()
            .map(|&(u, v)| (u.0.min(v.0), u.0.max(v.0)))
            .collect();
        all.sort();
        let mut expected: Vec<(usize, usize)> = g.edges().map(|(u, v)| (u.0, v.0)).collect();
        expected.sort();
        assert_eq!(all, expected);
    }
}
