//! The Section 6 kernelization: `k`-reduced graphs of bounded-treedepth
//! graphs.
//!
//! Given a graph `G` with a coherent `t`-model `T` and a parameter `k`,
//! the *k-reduced graph* `H` is obtained by repeatedly pruning, at a
//! vertex of the largest possible depth, one subtree rooted at a child
//! whose *type* is shared by more than `k` siblings (Section 6.1). The
//! paper proves:
//!
//! - the number of possible *end types* at depth `d` is bounded by
//!   `f_d(k, t) = 2^d · (k+1)^{f_{d+1}(k,t)}` (Proposition 6.2), so `|H|`
//!   depends only on `k` and `t`;
//! - `G ≃_k H` (Proposition 6.3) — they satisfy the same FO sentences of
//!   quantifier depth ≤ `k`.
//!
//! This crate computes types (hash-consed in a [`TypeTable`]), performs
//! the deepest-first pruning ([`k_reduce`]), extracts the kernel graph,
//! tracks the per-vertex pruned flags and end types that the
//! Proposition 6.4 certification broadcasts, and evaluates the
//! `log₂ f_d` size bounds ([`log2_type_bound`]).

use locert_graph::{Graph, NodeId};
use locert_treedepth::EliminationTree;
use std::collections::HashMap;

/// Interned identifier of a vertex type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TypeId(pub u32);

/// The data of a type: the vertex's ancestor vector plus the multiset of
/// its (kept) children's types.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TypeData {
    /// `ancestors[j] = true` iff the vertex is adjacent in `G` to its
    /// ancestor at depth `j` (strict ancestors only, so the length equals
    /// the vertex's depth).
    pub ancestors: Vec<bool>,
    /// Multiset of children types: `(type, multiplicity)` in ascending
    /// type order, one entry per type.
    pub children: Vec<(TypeId, usize)>,
}

/// Hash-consing table for types.
#[derive(Debug, Default, Clone)]
pub struct TypeTable {
    data: Vec<TypeData>,
    index: HashMap<TypeData, TypeId>,
}

impl TypeTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `data`, returning its stable id: ids count up in order of
    /// first interning, and only a type not seen before is copied.
    pub fn intern(&mut self, data: &TypeData) -> TypeId {
        if let Some(&id) = self.index.get(data) {
            return id;
        }
        let id = TypeId(self.data.len() as u32);
        self.data.push(data.clone());
        self.index.insert(data.clone(), id);
        id
    }

    /// The data of `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not interned by this table.
    pub fn get(&self, id: TypeId) -> &TypeData {
        &self.data[id.0 as usize]
    }

    /// Number of distinct types interned.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

/// The result of the deepest-first `k`-reduction.
#[derive(Debug, Clone)]
pub struct Reduction {
    /// Interned types.
    pub types: TypeTable,
    /// Whether each vertex survives in the kernel.
    pub kept: Vec<bool>,
    /// Whether each vertex is *pruned* (the root of a removed subtree);
    /// vertices inside a removed subtree are deleted but not pruned.
    pub pruned: Vec<bool>,
    /// The end type of every vertex of `G` (kept or deleted).
    pub end_type: Vec<TypeId>,
    /// The kernel graph `H` (induced on the kept vertices, renumbered).
    pub kernel: Graph,
    /// Maps kernel vertices back to vertices of `G`.
    pub kernel_to_g: Vec<NodeId>,
    /// The restriction of the model to the kernel, as a parent array over
    /// kernel indices.
    pub kernel_parents: Vec<Option<usize>>,
}

impl Reduction {
    /// The kernel's elimination tree (restriction of the input model).
    ///
    /// # Panics
    ///
    /// Panics if the reduction is inconsistent (cannot happen for values
    /// produced by [`k_reduce`]).
    pub fn kernel_model(&self) -> EliminationTree {
        EliminationTree::new(&self.kernel, &self.kernel_parents)
            .expect("restriction of a model is a model")
    }

    /// Number of kernel vertices.
    pub fn kernel_size(&self) -> usize {
        self.kernel.num_nodes()
    }
}

/// Overwrites `vec` with the ancestor vector of `v`: adjacency of `v` to
/// its strict ancestors, indexed by ancestor depth `0..depth(v)`.
fn fill_ancestor_vector(g: &Graph, model: &EliminationTree, v: NodeId, vec: &mut Vec<bool>) {
    vec.clear();
    vec.resize(model.depth(v), false);
    let mut anc = model.tree().parent(v);
    while let Some(a) = anc {
        vec[model.depth(a)] = g.has_edge(v, a);
        anc = model.tree().parent(a);
    }
}

/// Performs the deepest-first `k`-reduction of `(g, model)`.
///
/// Children of each vertex are grouped by end type; in every group, the
/// `k` lowest-indexed children are kept and the rest are pruned (with
/// their whole subtrees). Processing is bottom-up (deepest parents
/// first), which realizes the paper's "valid pruning on a vertex of the
/// largest possible depth while possible" and makes every vertex's
/// bottom-up type its *end type*.
///
/// # Panics
///
/// Panics if `k == 0`.
pub fn k_reduce(g: &Graph, model: &EliminationTree, k: usize) -> Reduction {
    assert!(k >= 1, "k must be positive");
    let n = g.num_nodes();
    let tree = model.tree();
    let mut types = TypeTable::new();
    let mut end_type = vec![TypeId(u32::MAX); n];
    let mut kept = vec![true; n];
    let mut pruned = vec![false; n];

    // Postorder guarantees children are finalized before parents; pruning
    // at a parent of depth d happens only after all deeper pruning, which
    // is exactly the deepest-first discipline. The type of each vertex is
    // built in one reused record, so interning a type already in the
    // table allocates nothing.
    let mut tagged: Vec<(TypeId, NodeId)> = Vec::new();
    let mut data = TypeData {
        ancestors: Vec::new(),
        children: Vec::new(),
    };
    let mut stack: Vec<NodeId> = Vec::new();
    for v in tree.postorder() {
        // Group the *kept* children by their end types: a reused,
        // stably-sorted slice instead of a per-vertex map of per-group
        // vectors. The stable sort keeps same-type children in child
        // order, so "the k lowest-indexed are kept" is unchanged, and
        // runs come out in ascending TypeId order.
        tagged.clear();
        tagged.extend(
            tree.children(v)
                .iter()
                .filter(|c| kept[c.0])
                .map(|&c| (end_type[c.0], c)),
        );
        tagged.sort_by_key(|&(ty, _)| ty);
        data.children.clear();
        for members in tagged.chunk_by(|a, b| a.0 == b.0) {
            for &(_, drop) in members.iter().skip(k) {
                pruned[drop.0] = true;
                stack.push(drop);
                while let Some(u) = stack.pop() {
                    kept[u.0] = false;
                    stack.extend_from_slice(tree.children(u));
                }
            }
            data.children.push((members[0].0, members.len().min(k)));
        }
        fill_ancestor_vector(g, model, v, &mut data.ancestors);
        end_type[v.0] = types.intern(&data);
    }

    // Extract the kernel.
    let kept_nodes: Vec<NodeId> = g.nodes().filter(|v| kept[v.0]).collect();
    let (kernel, kernel_to_g) = g.induced_subgraph(&kept_nodes);
    let mut g_to_kernel = vec![usize::MAX; n];
    for (i, &v) in kernel_to_g.iter().enumerate() {
        g_to_kernel[v.0] = i;
    }
    let kernel_parents: Vec<Option<usize>> = kernel_to_g
        .iter()
        .map(|&v| tree.parent(v).map(|p| g_to_kernel[p.0]))
        .collect();

    Reduction {
        types,
        kept,
        pruned,
        end_type,
        kernel,
        kernel_to_g,
        kernel_parents,
    }
}

/// `log₂ f_d(k, t)` per Proposition 6.2, where `f_t = 2^t` and
/// `f_d = 2^d · (k+1)^{f_{d+1}}`. Saturates to `f64::INFINITY` — the
/// certification only needs the bit-widths `⌈log₂ f_d⌉`, and the bound is
/// astronomically loose anyway.
///
/// # Panics
///
/// Panics if `d > t`.
pub fn log2_type_bound(k: usize, t: usize, d: usize) -> f64 {
    assert!(d <= t, "depth beyond the model height");
    // log2 f_t = t. Going up: log2 f_d = d + f_{d+1} * log2(k+1), which
    // needs f_{d+1} itself; track both f (saturating) and log2 f.
    let mut f: f64 = (2f64).powi(t as i32); // f at current level (may be inf)
    let mut log2f: f64 = t as f64;
    let mut level = t;
    while level > d {
        level -= 1;
        log2f = level as f64 + f * ((k + 1) as f64).log2();
        f = if log2f >= f64::MAX.log2() {
            f64::INFINITY
        } else {
            (2f64).powf(log2f)
        };
    }
    log2f
}

/// An upper bound, in bits, for writing one end type of a depth-`d`
/// vertex (`⌈log₂ f_d⌉`, saturated to `u32::MAX` when the bound
/// overflows — callers at experiment scale always use the *actual* number
/// of interned types instead).
pub fn type_bits_bound(k: usize, t: usize, d: usize) -> u32 {
    let l = log2_type_bound(k, t, d);
    if l.is_finite() && l < u32::MAX as f64 {
        (l.ceil() as u32).max(1)
    } else {
        u32::MAX
    }
}

/// Checks Lemma 6.1 on a reduction: for every deleted child `u` of a kept
/// vertex `v`, exactly `k` kept children of `v` share `u`'s end type.
/// Returns the first violation, if any (for tests).
pub fn check_lemma_6_1(
    model: &EliminationTree,
    red: &Reduction,
    k: usize,
) -> Option<(NodeId, NodeId)> {
    let tree = model.tree();
    for v in tree.postorder() {
        if !red.kept[v.0] {
            continue;
        }
        for &u in tree.children(v) {
            if red.kept[u.0] {
                continue;
            }
            let same = tree
                .children(v)
                .iter()
                .filter(|c| red.kept[c.0] && red.end_type[c.0] == red.end_type[u.0])
                .count();
            if same != k {
                return Some((v, u));
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use locert_graph::generators;
    use locert_treedepth::{optimal_elimination_tree, EliminationTree};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn star_model(n: usize) -> (Graph, EliminationTree) {
        let g = generators::star(n);
        let mut parent = vec![Some(0); n];
        parent[0] = None;
        let t = EliminationTree::new(&g, &parent).unwrap();
        (g, t)
    }

    #[test]
    fn ancestor_vectors_on_figure1_path() {
        let g = generators::path(7);
        let parent = vec![Some(1), Some(3), Some(1), None, Some(5), Some(3), Some(5)];
        let model = EliminationTree::new(&g, &parent).unwrap();
        let ancestor_vector = |v| {
            let mut vec = vec![true; 5];
            fill_ancestor_vector(&g, &model, v, &mut vec);
            vec
        };
        // Root has empty vector.
        assert_eq!(ancestor_vector(NodeId(3)), Vec::<bool>::new());
        // Vertex 1 (depth 1): not adjacent to root 3 in P_7... 1-3 is not
        // an edge; but the model only demands comparability for edges.
        assert_eq!(ancestor_vector(NodeId(1)), vec![false]);
        // Vertex 2 (depth 2, parent 1, root 3): edges 2-1 and 2-3 both
        // exist.
        assert_eq!(ancestor_vector(NodeId(2)), vec![true, true]);
        // Vertex 0 (depth 2): edge 0-1 only.
        assert_eq!(ancestor_vector(NodeId(0)), vec![false, true]);
    }

    #[test]
    fn star_reduces_to_k_plus_one_vertices() {
        let (g, model) = star_model(10);
        for k in 1..=4 {
            let red = k_reduce(&g, &model, k);
            // All 9 leaves share one type; k survive.
            assert_eq!(red.kernel_size(), k + 1);
            assert_eq!(red.pruned.iter().filter(|&&p| p).count(), 9 - k);
            assert!(check_lemma_6_1(&model, &red, k).is_none());
        }
    }

    #[test]
    fn small_graph_nothing_pruned() {
        let g = generators::path(5);
        let model = optimal_elimination_tree(&g);
        let red = k_reduce(&g, &model, 3);
        assert_eq!(red.kernel_size(), 5);
        assert!(red.pruned.iter().all(|&p| !p));
        assert_eq!(red.kernel, g);
    }

    #[test]
    fn kernel_model_is_valid_and_no_taller() {
        let mut rng = StdRng::seed_from_u64(51);
        for _ in 0..10 {
            let (g, parents) = generators::random_bounded_treedepth(30, 3, 0.5, &mut rng);
            let model = EliminationTree::new(&g, &parents)
                .unwrap()
                .make_coherent(&g);
            let red = k_reduce(&g, &model, 2);
            let km = red.kernel_model();
            assert!(km.height() <= model.height());
            assert!(red.kernel.is_connected());
        }
    }

    #[test]
    fn kernel_size_is_bounded_independent_of_n() {
        // Fixed t = 2 (stars), k = 2: kernels stay at 3 vertices for all n.
        for n in [5usize, 50, 500] {
            let (g, model) = star_model(n);
            let red = k_reduce(&g, &model, 2);
            assert_eq!(red.kernel_size(), 3, "n = {n}");
        }
        // Depth-2 random trees, k = 1: kernel size bounded by the type
        // count bound (loose), here just check plateau behavior.
        let mut rng = StdRng::seed_from_u64(52);
        let mut sizes = Vec::new();
        for n in [20usize, 80, 320] {
            let (g, parent, _) = generators::random_bounded_depth_tree(n, 2, &mut rng);
            let model = EliminationTree::new(&g, &parent).unwrap();
            let red = k_reduce(&g, &model, 1);
            sizes.push(red.kernel_size());
        }
        // With k = 1 and depth ≤ 2 (t = 3 levels), there are at most
        // 2 types at depth 2 and thus ≤ 2^2·(1+1)^2 ≈ bounded kernels.
        assert!(sizes.iter().all(|&s| s <= 40), "sizes {sizes:?}");
    }

    #[test]
    fn end_types_depend_on_ancestor_edges() {
        // Two leaves under the same root, one adjacent to the root's
        // parent... build: path 0-1 plus leaves 2,3 on 1; edge 0-2 only.
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (1, 3), (0, 2)]).unwrap();
        let parent = vec![None, Some(0), Some(1), Some(1)];
        let model = EliminationTree::new(&g, &parent).unwrap();
        let red = k_reduce(&g, &model, 1);
        // Leaves 2 and 3 have different ancestor vectors, so both survive
        // even with k = 1.
        assert_ne!(red.end_type[2], red.end_type[3]);
        assert_eq!(red.kernel_size(), 4);
    }

    #[test]
    fn ef_equivalence_of_kernel() {
        use locert_logic::ef::duplicator_wins;
        // Proposition 6.3: G ≃_k H. Stars with many leaves, k = 2.
        let (g, model) = star_model(8);
        let red = k_reduce(&g, &model, 2);
        assert_eq!(red.kernel_size(), 3);
        assert!(duplicator_wins(&g, &red.kernel, 2));
        // And a depth-2 tree case with k = 2.
        let mut rng = StdRng::seed_from_u64(53);
        let (g, parent, _) = generators::random_bounded_depth_tree(12, 2, &mut rng);
        let model = EliminationTree::new(&g, &parent).unwrap();
        let red = k_reduce(&g, &model, 2);
        assert!(
            duplicator_wins(&g, &red.kernel, 2),
            "kernel not ≃_2: G = {g:?}, H = {:?}",
            red.kernel
        );
    }

    #[test]
    fn ef_equivalence_random_bounded_treedepth() {
        use locert_logic::ef::duplicator_wins;
        let mut rng = StdRng::seed_from_u64(54);
        for _ in 0..5 {
            let (g, parents) = generators::random_bounded_treedepth(12, 3, 0.6, &mut rng);
            let model = EliminationTree::new(&g, &parents)
                .unwrap()
                .make_coherent(&g);
            let red = k_reduce(&g, &model, 2);
            assert!(
                duplicator_wins(&g, &red.kernel, 2),
                "G {g:?} vs kernel {:?}",
                red.kernel
            );
        }
    }

    #[test]
    fn lemma_6_1_on_random_instances() {
        let mut rng = StdRng::seed_from_u64(55);
        for k in 1..=3 {
            let (g, parents) = generators::random_bounded_treedepth(60, 4, 0.4, &mut rng);
            let model = EliminationTree::new(&g, &parents)
                .unwrap()
                .make_coherent(&g);
            let red = k_reduce(&g, &model, k);
            assert_eq!(check_lemma_6_1(&model, &red, k), None, "k = {k}");
        }
    }

    #[test]
    fn type_bound_values() {
        // f_t = 2^t at the deepest level.
        assert_eq!(log2_type_bound(3, 4, 4), 4.0);
        assert_eq!(log2_type_bound(1, 2, 2), 2.0);
        // One level up: log2 f_{t-1} = (t-1) + 2^t·log2(k+1).
        let l = log2_type_bound(1, 2, 1);
        assert!((l - (1.0 + 4.0 * 2f64.log2())).abs() < 1e-9);
        // Deep recursion saturates but stays monotone.
        let top = log2_type_bound(2, 5, 0);
        assert!(top.is_infinite() || top > log2_type_bound(2, 5, 3));
    }

    #[test]
    fn type_bound_monotone_in_depth_and_k() {
        // Shallower levels have (weakly) more types; larger k too.
        for t in 2..=4usize {
            for d in 1..=t {
                assert!(
                    log2_type_bound(2, t, d - 1) >= log2_type_bound(2, t, d),
                    "t = {t}, d = {d}"
                );
            }
        }
        assert!(log2_type_bound(3, 3, 1) >= log2_type_bound(1, 3, 1));
    }

    #[test]
    fn type_bits_bound_saturates() {
        assert_eq!(type_bits_bound(1, 2, 2), 2);
        assert!(type_bits_bound(3, 6, 0) == u32::MAX || type_bits_bound(3, 6, 0) > 100);
    }

    #[test]
    fn interning_is_stable() {
        let mut t = TypeTable::new();
        let a = t.intern(&TypeData {
            ancestors: vec![true],
            children: Vec::new(),
        });
        let b = t.intern(&TypeData {
            ancestors: vec![true],
            children: Vec::new(),
        });
        assert_eq!(a, b);
        assert_eq!(t.len(), 1);
        let c = t.intern(&TypeData {
            ancestors: vec![false],
            children: Vec::new(),
        });
        assert_ne!(a, c);
        assert_eq!(t.get(c).ancestors, vec![false]);
    }

    #[test]
    fn pruned_vs_deleted_distinction() {
        // Deep star-of-stars: root with many identical depth-2 subtrees.
        let mut edges = Vec::new();
        let mut parent = vec![None];
        let mut next = 1;
        for _ in 0..5 {
            let mid = next;
            next += 1;
            edges.push((0, mid));
            parent.push(Some(0));
            for _ in 0..2 {
                edges.push((mid, next));
                parent.push(Some(mid));
                next += 1;
            }
        }
        let g = Graph::from_edges(next, edges).unwrap();
        let model = EliminationTree::new(&g, &parent).unwrap();
        let red = k_reduce(&g, &model, 2);
        // 3 of the 5 identical mid-subtrees go: 3 pruned roots, and their
        // 6 leaf descendants are deleted but not pruned.
        let pruned_count = red.pruned.iter().filter(|&&p| p).count();
        assert_eq!(pruned_count, 3);
        let deleted = red.kept.iter().filter(|&&x| !x).count();
        assert_eq!(deleted, 9);
        assert_eq!(red.kernel_size(), next - 9);
    }
}
