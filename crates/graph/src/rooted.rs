//! Rooted trees extracted from tree-shaped graphs.
//!
//! A [`RootedTree`] fixes a root in a tree-shaped [`Graph`] and
//! precomputes parents, children lists and depths. It is the shared
//! substrate for AHU canonical forms ([`crate::canon`]), tree automata runs
//! and the kernelization of Section 6 of the paper.

use crate::graph::Graph;
use crate::node::NodeId;

/// A rooted tree over the vertex set of a tree-shaped graph.
///
/// # Example
///
/// ```
/// use locert_graph::{generators, RootedTree, NodeId};
///
/// let g = generators::path(3);
/// let t = RootedTree::from_tree(&g, NodeId(1)).unwrap();
/// assert_eq!(t.depth(NodeId(1)), 0);
/// assert_eq!(t.children(NodeId(1)).len(), 2);
/// assert_eq!(t.height(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RootedTree {
    root: NodeId,
    parent: Vec<Option<NodeId>>,
    /// The children of `v` are `children[child_start[v]..child_start[v + 1]]`:
    /// every children list in one array, as a graph's CSR rows.
    child_start: Vec<usize>,
    children: Vec<NodeId>,
    depth: Vec<usize>,
}

impl RootedTree {
    /// Roots the tree-shaped graph `g` at `root`.
    ///
    /// Returns `None` if `g` is not a tree or `root` is out of range.
    /// The children of a vertex keep the order of its neighbors.
    pub fn from_tree(g: &Graph, root: NodeId) -> Option<Self> {
        if root.0 >= g.num_nodes() || !g.is_tree() {
            return None;
        }
        let n = g.num_nodes();
        // In a tree every neighbor but the parent is a child, so the rows
        // are the degrees less one off the root, and a breadth-first walk
        // writes each row in neighbor order.
        let mut child_start = Vec::with_capacity(n + 1);
        child_start.push(0);
        for v in g.nodes() {
            let row = g.degree(v) - usize::from(v != root);
            child_start.push(child_start[v.0] + row);
        }
        let mut parent = vec![None; n];
        let mut children = vec![NodeId(0); n - 1];
        let mut depth = vec![0usize; n];
        let mut order = Vec::with_capacity(n);
        order.push(root);
        let mut next = 0;
        while let Some(&u) = order.get(next) {
            next += 1;
            let mut at = child_start[u.0];
            for &v in g.neighbors(u) {
                if Some(v) != parent[u.0] {
                    parent[v.0] = Some(u);
                    depth[v.0] = depth[u.0] + 1;
                    order.push(v);
                    children[at] = v;
                    at += 1;
                }
            }
            debug_assert_eq!(at, child_start[u.0 + 1]);
        }
        Some(RootedTree {
            root,
            parent,
            child_start,
            children,
            depth,
        })
    }

    /// Builds a rooted tree directly from a parent array (`parent[root] ==
    /// None`, exactly one root).
    ///
    /// Returns `None` if the array does not describe a rooted tree (multiple
    /// or zero roots, out-of-range parents, or cycles). The children of a
    /// vertex are in increasing order.
    pub fn from_parent_array(parent: &[Option<usize>]) -> Option<Self> {
        let n = parent.len();
        let mut root = None;
        for (v, p) in parent.iter().enumerate() {
            match p {
                None => {
                    if root.is_some() {
                        return None;
                    }
                    root = Some(v);
                }
                Some(p) if *p >= n => return None,
                _ => {}
            }
        }
        let root = NodeId(root?);
        // A counting sort of the vertices by parent, stable in vertex
        // order.
        let mut child_start = vec![0usize; n + 1];
        for &p in parent.iter().flatten() {
            child_start[p + 1] += 1;
        }
        for v in 0..n {
            child_start[v + 1] += child_start[v];
        }
        let mut at = child_start.clone();
        let mut children = vec![NodeId(0); n - 1];
        for (v, p) in parent.iter().enumerate() {
            if let &Some(p) = p {
                children[at[p]] = NodeId(v);
                at[p] += 1;
            }
        }
        // Compute depths by BFS from the root; cycle (or disconnection)
        // detection: every vertex must be reached exactly once.
        let mut depth = vec![usize::MAX; n];
        let mut order = Vec::with_capacity(n);
        depth[root.0] = 0;
        order.push(root);
        let mut next = 0;
        while let Some(&u) = order.get(next) {
            next += 1;
            for &c in &children[child_start[u.0]..child_start[u.0 + 1]] {
                depth[c.0] = depth[u.0] + 1;
                order.push(c);
            }
        }
        if order.len() != n {
            return None;
        }
        Some(RootedTree {
            root,
            parent: parent.iter().map(|p| p.map(NodeId)).collect(),
            child_start,
            children,
            depth,
        })
    }

    /// The root.
    #[inline]
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Number of vertices.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.parent.len()
    }

    /// Parent of `v`, or `None` for the root.
    #[inline]
    pub fn parent(&self, v: NodeId) -> Option<NodeId> {
        self.parent[v.0]
    }

    /// Children of `v`.
    #[inline]
    pub fn children(&self, v: NodeId) -> &[NodeId] {
        &self.children[self.child_start[v.0]..self.child_start[v.0 + 1]]
    }

    /// Depth of `v` (root has depth 0).
    #[inline]
    pub fn depth(&self, v: NodeId) -> usize {
        self.depth[v.0]
    }

    /// Height of the tree: maximum depth over all vertices.
    pub fn height(&self) -> usize {
        self.depth.iter().copied().max().unwrap_or(0)
    }

    /// Ancestors of `v` from `v` itself up to the root (inclusive).
    pub fn ancestors(&self, v: NodeId) -> Vec<NodeId> {
        let mut out = vec![v];
        let mut cur = v;
        while let Some(p) = self.parent[cur.0] {
            out.push(p);
            cur = p;
        }
        out
    }

    /// Whether `a` is an ancestor of `d` (a vertex is an ancestor of itself).
    pub fn is_ancestor(&self, a: NodeId, d: NodeId) -> bool {
        let mut cur = d;
        loop {
            if cur == a {
                return true;
            }
            match self.parent[cur.0] {
                Some(p) => cur = p,
                None => return false,
            }
        }
    }

    /// Vertices of the subtree rooted at `v`, in preorder.
    pub fn subtree(&self, v: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        let mut stack = vec![v];
        while let Some(u) = stack.pop() {
            out.push(u);
            stack.extend_from_slice(self.children(u));
        }
        out
    }

    /// Vertices in an order such that every vertex appears after all of its
    /// descendants (children before parents): a postorder.
    pub fn postorder(&self) -> Vec<NodeId> {
        let mut order = Vec::with_capacity(self.num_nodes());
        let mut stack = vec![(self.root, false)];
        while let Some((u, expanded)) = stack.pop() {
            if expanded {
                order.push(u);
            } else {
                stack.push((u, true));
                stack.extend(self.children(u).iter().map(|&c| (c, false)));
            }
        }
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    #[test]
    fn children_rows_follow_neighbor_and_index_order() {
        let mut rng = StdRng::seed_from_u64(25);
        for _ in 0..50 {
            let n = rng.random_range(1..40usize);
            let g = generators::random_tree(n, &mut rng);
            let root = NodeId(rng.random_range(0..n));
            let t = RootedTree::from_tree(&g, root).unwrap();
            let parents: Vec<Option<usize>> = g.nodes().map(|v| t.parent(v).map(|p| p.0)).collect();
            let p = RootedTree::from_parent_array(&parents).unwrap();
            for v in g.nodes() {
                let expected: Vec<NodeId> = g
                    .neighbors(v)
                    .iter()
                    .copied()
                    .filter(|&w| Some(w) != t.parent(v))
                    .collect();
                assert_eq!(t.children(v), expected, "neighbor order of {v:?}");
                // Neighbors are sorted, so both constructors agree.
                assert_eq!(p.children(v), expected, "index order of {v:?}");
                assert_eq!(p.depth(v), t.depth(v));
            }
        }
    }

    #[test]
    fn from_tree_rejects_non_trees() {
        assert!(RootedTree::from_tree(&generators::cycle(4), NodeId(0)).is_none());
        let g = Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        assert!(RootedTree::from_tree(&g, NodeId(0)).is_none());
        assert!(RootedTree::from_tree(&generators::path(3), NodeId(9)).is_none());
    }

    #[test]
    fn path_rooted_at_end() {
        let g = generators::path(4);
        let t = RootedTree::from_tree(&g, NodeId(0)).unwrap();
        assert_eq!(t.height(), 3);
        assert_eq!(t.depth(NodeId(3)), 3);
        assert_eq!(t.parent(NodeId(3)), Some(NodeId(2)));
        assert_eq!(t.parent(NodeId(0)), None);
        assert_eq!(
            t.ancestors(NodeId(3)),
            vec![NodeId(3), NodeId(2), NodeId(1), NodeId(0)]
        );
    }

    #[test]
    fn is_ancestor_and_subtree() {
        let g = generators::star(5);
        let t = RootedTree::from_tree(&g, NodeId(0)).unwrap();
        assert!(t.is_ancestor(NodeId(0), NodeId(3)));
        assert!(t.is_ancestor(NodeId(3), NodeId(3)));
        assert!(!t.is_ancestor(NodeId(3), NodeId(0)));
        assert_eq!(t.subtree(NodeId(0)).len(), 5);
        assert_eq!(t.subtree(NodeId(2)), vec![NodeId(2)]);
    }

    #[test]
    fn postorder_children_before_parents() {
        let g = generators::complete_kary_tree(2, 2);
        let t = RootedTree::from_tree(&g, NodeId(0)).unwrap();
        let order = t.postorder();
        assert_eq!(order.len(), 7);
        let pos: Vec<usize> = {
            let mut p = vec![0; 7];
            for (i, v) in order.iter().enumerate() {
                p[v.0] = i;
            }
            p
        };
        for v in g.nodes() {
            if let Some(par) = t.parent(v) {
                assert!(pos[v.0] < pos[par.0], "child {v} must precede parent {par}");
            }
        }
    }

    #[test]
    fn from_parent_array_valid() {
        let t = RootedTree::from_parent_array(&[None, Some(0), Some(0), Some(1)]).unwrap();
        assert_eq!(t.root(), NodeId(0));
        assert_eq!(t.height(), 2);
        assert_eq!(t.children(NodeId(0)), &[NodeId(1), NodeId(2)]);
    }

    #[test]
    fn from_parent_array_rejects_bad_inputs() {
        // Two roots.
        assert!(RootedTree::from_parent_array(&[None, None]).is_none());
        // No root (2-cycle).
        assert!(RootedTree::from_parent_array(&[Some(1), Some(0)]).is_none());
        // Out of range.
        assert!(RootedTree::from_parent_array(&[None, Some(7)]).is_none());
        // Cycle among non-roots.
        assert!(RootedTree::from_parent_array(&[None, Some(2), Some(1)]).is_none());
    }

    #[test]
    fn single_vertex_tree() {
        let g = Graph::empty(1);
        let t = RootedTree::from_tree(&g, NodeId(0)).unwrap();
        assert_eq!(t.height(), 0);
        assert_eq!(t.subtree(NodeId(0)), vec![NodeId(0)]);
        assert_eq!(t.postorder(), vec![NodeId(0)]);
    }
}
