//! Simple undirected graphs.
//!
//! [`Graph`] is the single graph type used across the workspace: simple
//! (no parallel edges), loopless, undirected, with vertices indexed by
//! [`NodeId`] in `0..n`. Construction goes through [`GraphBuilder`], which
//! validates edges, or through the convenience constructor
//! [`Graph::from_edges`]. The builder holds only the edge list and
//! builds the CSR arrays with one counting sort, so constructing a graph
//! costs a constant number of allocations rather than one per vertex.

use crate::node::NodeId;
use std::error::Error;
use std::fmt;

/// Error produced when constructing an invalid graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// An edge endpoint is `>= n`.
    NodeOutOfRange {
        /// The offending endpoint.
        node: usize,
        /// The number of vertices in the graph under construction.
        n: usize,
    },
    /// An edge joins a vertex to itself.
    SelfLoop {
        /// The vertex carrying the loop.
        node: usize,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::NodeOutOfRange { node, n } => {
                write!(f, "edge endpoint {node} out of range for {n} vertices")
            }
            GraphError::SelfLoop { node } => write!(f, "self-loop at vertex {node}"),
        }
    }
}

impl Error for GraphError {}

/// A simple, undirected, loopless graph in CSR (compressed sparse row)
/// form.
///
/// Vertices are `NodeId(0) .. NodeId(n-1)`. Adjacency is stored as two
/// flat arrays: `offsets` (length `n + 1`) and `neighbors` (length `2m`),
/// with the neighbors of `v` at `neighbors[offsets[v]..offsets[v + 1]]`,
/// sorted and deduplicated. Iteration order is deterministic and
/// [`Graph::has_edge`] is a binary search; the flat layout keeps neighbor
/// scans on one cache line run instead of chasing per-vertex heap
/// allocations.
///
/// # Example
///
/// ```
/// use locert_graph::Graph;
///
/// let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap();
/// assert_eq!(g.num_nodes(), 4);
/// assert_eq!(g.num_edges(), 3);
/// assert!(g.has_edge(1.into(), 2.into()));
/// assert!(!g.has_edge(0.into(), 3.into()));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Graph {
    /// `offsets[v]..offsets[v + 1]` indexes `neighbors`; length `n + 1`.
    offsets: Vec<usize>,
    /// Concatenated sorted adjacency lists; length `2 * num_edges`.
    neighbors: Vec<NodeId>,
    num_edges: usize,
}

impl Graph {
    /// Creates a graph with `n` vertices and no edges.
    pub fn empty(n: usize) -> Self {
        Graph {
            offsets: vec![0; n + 1],
            neighbors: Vec::new(),
            num_edges: 0,
        }
    }

    /// Builds a graph from an edge list.
    ///
    /// Duplicate edges are silently merged (the graph is simple).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfRange`] if an endpoint is `>= n` and
    /// [`GraphError::SelfLoop`] if an edge joins a vertex to itself.
    pub fn from_edges<I>(n: usize, edges: I) -> Result<Self, GraphError>
    where
        I: IntoIterator<Item = (usize, usize)>,
    {
        let edges = edges.into_iter();
        // The whole list fits without regrowing when the iterator knows its
        // length; otherwise start, like `GraphBuilder::new`, at a tree's worth.
        let mut b = GraphBuilder::with_capacity(n, edges.size_hint().0.max(n));
        for (u, v) in edges {
            b.add_edge(u, v)?;
        }
        Ok(b.build())
    }

    /// Number of vertices.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Iterator over all vertices in increasing index order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.num_nodes()).map(NodeId)
    }

    /// Sorted neighbors of `v`, as a slice of the shared CSR array.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        &self.neighbors[self.offsets[v.0]..self.offsets[v.0 + 1]]
    }

    /// Degree of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        self.offsets[v.0 + 1] - self.offsets[v.0]
    }

    /// Whether the edge `{u, v}` is present. `O(log deg)`.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        u != v && self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Iterator over all edges `(u, v)` with `u < v`, in lexicographic order.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.nodes().flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .filter(move |&&v| u < v)
                .map(move |&v| (u, v))
        })
    }

    /// Whether the graph is connected. The empty graph is not connected
    /// (the paper only considers non-empty connected graphs).
    pub fn is_connected(&self) -> bool {
        crate::traversal::is_connected(self)
    }

    /// Whether the graph is a tree (connected with `n - 1` edges).
    pub fn is_tree(&self) -> bool {
        self.num_nodes() >= 1 && self.num_edges() == self.num_nodes() - 1 && self.is_connected()
    }

    /// The subgraph induced by `keep`, together with the mapping from new
    /// indices to old indices.
    ///
    /// Vertices of the result are renumbered `0..k` following the sorted
    /// order of the distinct entries of `keep`; the returned vector maps
    /// each new [`NodeId`] to its original one.
    ///
    /// # Panics
    ///
    /// Panics if an entry of `keep` is out of range.
    pub fn induced_subgraph(&self, keep: &[NodeId]) -> (Graph, Vec<NodeId>) {
        let mut old_of_new = keep.to_vec();
        old_of_new.sort_unstable();
        old_of_new.dedup();
        let mut new_of_old = vec![usize::MAX; self.num_nodes()];
        for (new, &old) in old_of_new.iter().enumerate() {
            new_of_old[old.0] = new;
        }
        (self.induced_on_sorted(&old_of_new, &new_of_old), old_of_new)
    }

    /// The subgraph induced by `members`, renumbered `0..members.len()` in
    /// the order of `members`.
    ///
    /// `members` must be sorted and distinct, and `local` must map every
    /// member's old index to its position in `members` and every other
    /// vertex to `usize::MAX`. The renumbering is then monotone, so each
    /// row of the result is the parent's sorted row filtered and mapped:
    /// the CSR arrays are written directly, with no builder and no sort.
    /// Callers that extract many subgraphs (the `C_t` prover's blocks)
    /// reuse one dense `local` and reset only the entries they set.
    ///
    /// # Panics
    ///
    /// Panics if a member is out of range or `local` is shorter than
    /// [`Graph::num_nodes`].
    pub fn induced_on_sorted(&self, members: &[NodeId], local: &[usize]) -> Graph {
        let mut induced = Graph {
            offsets: Vec::with_capacity(members.len() + 1),
            neighbors: Vec::new(),
            num_edges: 0,
        };
        self.induce_on_sorted_into(members, local, &mut induced);
        induced
    }

    /// Overwrites `induced` with [`Graph::induced_on_sorted`]`(members,
    /// local)`, reusing its arrays: a caller that induces many small
    /// subgraphs one at a time allocates only when one outgrows them.
    ///
    /// # Panics
    ///
    /// As [`Graph::induced_on_sorted`].
    pub fn induce_on_sorted_into(&self, members: &[NodeId], local: &[usize], induced: &mut Graph) {
        debug_assert!(members.windows(2).all(|w| w[0] < w[1]));
        let Graph {
            offsets,
            neighbors,
            num_edges,
        } = induced;
        offsets.clear();
        offsets.push(0);
        neighbors.clear();
        for &old in members {
            debug_assert_eq!(members.get(local[old.0]), Some(&old));
            neighbors.extend(self.neighbors(old).iter().filter_map(|&w| {
                let new = local[w.0];
                (new != usize::MAX).then_some(NodeId(new))
            }));
            offsets.push(neighbors.len());
        }
        *num_edges = neighbors.len() / 2;
    }

    /// Disjoint union of two graphs; vertices of `other` are shifted by
    /// `self.num_nodes()`.
    pub fn disjoint_union(&self, other: &Graph) -> Graph {
        let off = self.num_nodes();
        let mut b = GraphBuilder::new(off + other.num_nodes());
        for (u, v) in self.edges() {
            b.add_edge(u.0, v.0).expect("valid");
        }
        for (u, v) in other.edges() {
            b.add_edge(u.0 + off, v.0 + off).expect("valid");
        }
        b.build()
    }

    /// Returns a copy of this graph with the additional `edges`.
    ///
    /// # Errors
    ///
    /// Same as [`Graph::from_edges`].
    pub fn with_edges<I>(&self, edges: I) -> Result<Graph, GraphError>
    where
        I: IntoIterator<Item = (usize, usize)>,
    {
        let mut b = GraphBuilder::new(self.num_nodes());
        for (u, v) in self.edges() {
            b.add_edge(u.0, v.0)?;
        }
        for (u, v) in edges {
            b.add_edge(u, v)?;
        }
        Ok(b.build())
    }
}

/// Incremental, validating builder for [`Graph`].
///
/// The builder keeps the validated edge list and nothing per vertex;
/// [`GraphBuilder::build`] turns it into CSR form with a counting sort.
///
/// # Example
///
/// ```
/// use locert_graph::GraphBuilder;
///
/// let mut b = GraphBuilder::new(3);
/// b.add_edge(0, 1)?;
/// b.add_edge(1, 2)?;
/// let g = b.build();
/// assert_eq!(g.num_edges(), 2);
/// # Ok::<(), locert_graph::GraphError>(())
/// ```
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    n: usize,
    /// Validated edges in insertion order, duplicates included.
    edges: Vec<(NodeId, NodeId)>,
}

impl GraphBuilder {
    /// Starts a builder for a graph on `n` vertices, with room for `n`
    /// edges: a tree's edge list (the common case) never regrows, and a
    /// buffer grown by doubling would leave freed copies behind in the
    /// heap on every build.
    pub fn new(n: usize) -> Self {
        GraphBuilder::with_capacity(n, n)
    }

    /// Starts a builder for a graph on `n` vertices, with room for
    /// `edges` edges: a builder that knows its edge count (a clique, an
    /// exact-size edge list) adds them all without regrowing.
    pub(crate) fn with_capacity(n: usize, edges: usize) -> Self {
        GraphBuilder {
            n,
            edges: Vec::with_capacity(edges),
        }
    }

    /// Number of vertices of the graph under construction.
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Adds the undirected edge `{u, v}`. Adding an existing edge is a no-op.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfRange`] or [`GraphError::SelfLoop`].
    pub fn add_edge(&mut self, u: usize, v: usize) -> Result<&mut Self, GraphError> {
        let n = self.n;
        if u >= n {
            return Err(GraphError::NodeOutOfRange { node: u, n });
        }
        if v >= n {
            return Err(GraphError::NodeOutOfRange { node: v, n });
        }
        if u == v {
            return Err(GraphError::SelfLoop { node: u });
        }
        self.edges.push((NodeId(u), NodeId(v)));
        Ok(self)
    }

    /// Appends a fresh isolated vertex and returns its id.
    pub fn add_node(&mut self) -> NodeId {
        self.n += 1;
        NodeId(self.n - 1)
    }

    /// Finalizes the graph with a counting sort of the half-edges.
    ///
    /// Degrees are counted into `offsets` and prefix-summed, so
    /// `offsets[v]` ends row `v`; scattering each half-edge at
    /// `--offsets[u]` then leaves `offsets[v]` at the start of row `v`,
    /// with no second cursor array. The edge list is dropped before the
    /// rows are sorted and compacted in place, which merges duplicate
    /// edges. With the edge list, a build from [`Graph::from_edges`] is
    /// three allocations (edge list, offsets, neighbors), whatever `n` is,
    /// and one more to shrink `neighbors` when duplicates were merged.
    pub fn build(self) -> Graph {
        let GraphBuilder { n, edges } = self;
        let mut offsets = vec![0usize; n + 1];
        for &(u, v) in &edges {
            offsets[u.0] += 1;
            offsets[v.0] += 1;
        }
        let mut total = 0;
        for end in &mut offsets[..n] {
            total += *end;
            *end = total;
        }
        offsets[n] = total;
        let mut neighbors = vec![NodeId(0); total];
        for (u, v) in edges {
            offsets[u.0] -= 1;
            neighbors[offsets[u.0]] = v;
            offsets[v.0] -= 1;
            neighbors[offsets[v.0]] = u;
        }
        // Sort each row and drop repeats, sliding rows left over the gaps
        // duplicates leave. `offsets[v + 1]` still holds the old end of
        // row `v` when it is read, since only `offsets[v]` is rewritten.
        let mut len = 0;
        for v in 0..n {
            let (start, end) = (offsets[v], offsets[v + 1]);
            neighbors[start..end].sort_unstable();
            offsets[v] = len;
            for i in start..end {
                let w = neighbors[i];
                if len == offsets[v] || neighbors[len - 1] != w {
                    neighbors[len] = w;
                    len += 1;
                }
            }
        }
        offsets[n] = len;
        neighbors.truncate(len);
        neighbors.shrink_to_fit();
        Graph {
            offsets,
            neighbors,
            num_edges: len / 2,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph() {
        let g = Graph::empty(5);
        assert_eq!(g.num_nodes(), 5);
        assert_eq!(g.num_edges(), 0);
        assert!(!g.is_connected());
    }

    #[test]
    fn from_edges_dedups() {
        let g = Graph::from_edges(3, [(0, 1), (1, 0), (0, 1)]).unwrap();
        assert_eq!(g.num_edges(), 1);
        assert!(g.has_edge(NodeId(0), NodeId(1)));
    }

    #[test]
    fn self_loop_rejected() {
        assert_eq!(
            Graph::from_edges(2, [(1, 1)]),
            Err(GraphError::SelfLoop { node: 1 })
        );
    }

    #[test]
    fn out_of_range_rejected() {
        assert_eq!(
            Graph::from_edges(2, [(0, 2)]),
            Err(GraphError::NodeOutOfRange { node: 2, n: 2 })
        );
    }

    #[test]
    fn neighbors_sorted() {
        let g = Graph::from_edges(4, [(2, 0), (2, 3), (2, 1)]).unwrap();
        assert_eq!(g.neighbors(NodeId(2)), &[NodeId(0), NodeId(1), NodeId(3)]);
        assert_eq!(g.degree(NodeId(2)), 3);
        assert_eq!(g.degree(NodeId(0)), 1);
    }

    #[test]
    fn edges_iterates_once_per_edge() {
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges.len(), 4);
        assert_eq!(edges[0], (NodeId(0), NodeId(1)));
        for (u, v) in edges {
            assert!(u < v);
        }
    }

    #[test]
    fn is_tree_recognizes_paths_and_rejects_cycles() {
        let path = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap();
        assert!(path.is_tree());
        let cycle = Graph::from_edges(3, [(0, 1), (1, 2), (2, 0)]).unwrap();
        assert!(!cycle.is_tree());
        let disconnected = Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        assert!(!disconnected.is_tree());
    }

    #[test]
    fn single_vertex_is_tree() {
        let g = Graph::empty(1);
        assert!(g.is_connected());
        assert!(g.is_tree());
    }

    #[test]
    fn induced_subgraph_renumbers() {
        // Path 0-1-2-3, keep {0, 2, 3}: edge 2-3 survives as 1-2.
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap();
        let (h, map) = g.induced_subgraph(&[NodeId(3), NodeId(0), NodeId(2)]);
        assert_eq!(h.num_nodes(), 3);
        assert_eq!(h.num_edges(), 1);
        assert_eq!(map, vec![NodeId(0), NodeId(2), NodeId(3)]);
        assert!(h.has_edge(NodeId(1), NodeId(2)));
    }

    #[test]
    fn disjoint_union_shifts() {
        let a = Graph::from_edges(2, [(0, 1)]).unwrap();
        let b = Graph::from_edges(3, [(0, 2)]).unwrap();
        let u = a.disjoint_union(&b);
        assert_eq!(u.num_nodes(), 5);
        assert_eq!(u.num_edges(), 2);
        assert!(u.has_edge(NodeId(0), NodeId(1)));
        assert!(u.has_edge(NodeId(2), NodeId(4)));
    }

    #[test]
    fn with_edges_extends() {
        let a = Graph::from_edges(3, [(0, 1)]).unwrap();
        let b = a.with_edges([(1, 2)]).unwrap();
        assert_eq!(b.num_edges(), 2);
        assert!(b.is_tree());
    }

    #[test]
    fn builder_add_node() {
        let mut b = GraphBuilder::new(1);
        let v = b.add_node();
        assert_eq!(v, NodeId(1));
        b.add_edge(0, 1).unwrap();
        assert!(b.build().is_tree());
    }
}
