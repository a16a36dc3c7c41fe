//! Treedepth certification with `O(t log n)` bits (Theorem 2.4, Section 5).
//!
//! The certificate of a vertex `u` at depth `m` of a coherent elimination
//! tree consists of
//!
//! 1. the identifiers of its ancestors, from `u` itself up to the root
//!    (`m + 1` identifiers);
//! 2. for each strict ancestor `v = α_j` at depth `j ≥ 1`, a spanning-tree
//!    entry `(exit id, distance)` for the spanning tree of `G_v` (the
//!    subgraph induced by `v`'s subtree) rooted at the *exit vertex* of
//!    `v` — a vertex of `G_v` adjacent to `v`'s parent.
//!
//! Verification (the paper's steps 1–4):
//!
//! - the list has length ≤ `t` and starts with the vertex's own id;
//! - every neighbor's list is a suffix of mine or vice versa (edges join
//!   comparable vertices);
//! - for each `j`: if my distance in tree `j` is 0 I am the exit vertex
//!   (my id equals the exit id) and I must be adjacent to a vertex whose
//!   full list is my list truncated to its last `j` entries — the
//!   *parent* of `α_j`, which pins coherence; otherwise some neighbor
//!   with the same `(j+1)`-suffix carries the same exit id at distance
//!   one less.
//!
//! Soundness (paper's Claim 1): the spanning-tree chains force, for every
//! vertex with a list of length ≥ 2, the existence of a vertex carrying
//! the list minus its first element; following these pointers yields a
//! genuine elimination forest of height ≤ `t` in which every edge joins
//! comparable vertices.

use crate::bits::{width_for, BitReader, BitWriter};
use crate::framework::{
    Assignment, DeclaredBound, Decode, DecodedView, Instance, Prover, ProverError, RejectReason,
    Scheme,
};
use crate::schemes::common::{read_ident, write_ident};
use locert_graph::{Graph, Ident, NodeId};
use locert_treedepth::{exact, heuristic, EliminationTree};

/// How the prover obtains an elimination tree of height ≤ `t`.
#[derive(Debug, Clone, Default)]
pub enum ModelStrategy {
    /// Exact solver for small graphs, separator heuristic beyond
    /// (heuristic failures surface as
    /// [`ProverError::WitnessUnavailable`]).
    #[default]
    Auto,
    /// Always the DFS elimination tree (used by `P_t`-minor-freeness,
    /// where the DFS depth bound is guaranteed).
    Dfs,
    /// An explicit witness parent array (e.g. from the workload
    /// generator).
    Explicit(Vec<Option<usize>>),
}

/// A parsed treedepth certificate over its words `W`: owned in one
/// allocation ([`TdCert`]), or borrowed from a larger decode ([`TdRef`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Td<W> {
    /// The `len` ancestor identifiers from the vertex itself (index 0)
    /// to the root (last); then `(exit id, distance)` per strict
    /// ancestor, two words each, indexed by ancestor depth − 1; then the
    /// words a composite scheme keeps with them ([`Td::with_tail`]).
    words: W,
    len: usize,
}

/// One vertex's parsed treedepth certificate, in one allocation.
pub type TdCert = Td<Box<[Ident]>>;

/// A treedepth certificate borrowed from the decode that holds it.
pub type TdRef<'a> = Td<&'a [Ident]>;

impl<W: AsRef<[Ident]>> Td<W> {
    /// The certificate borrowed.
    pub fn as_ref(&self) -> TdRef<'_> {
        Td {
            words: self.words.as_ref(),
            len: self.len,
        }
    }

    /// Ancestor identifiers from the vertex itself (index 0) to the root
    /// (last).
    pub fn ancestors(&self) -> &[Ident] {
        &self.words.as_ref()[..self.len]
    }

    /// The `(exit id, distance)` entry of the depth-`j + 1` ancestor.
    ///
    /// # Panics
    ///
    /// Panics if `j >= self.depth()`.
    pub fn tree(&self, j: usize) -> (Ident, u64) {
        let at = self.len + 2 * j;
        let words = self.words.as_ref();
        (words[at], words[at + 1].0)
    }

    /// The `(exit id, distance)` entries, one per strict ancestor, by
    /// ancestor depth.
    pub fn trees(&self) -> impl ExactSizeIterator<Item = (Ident, u64)> + '_ {
        (0..self.depth()).map(|j| self.tree(j))
    }

    /// The certificate whose words are `words`: the treedepth words of
    /// some list length, then `tail_per_ancestor` words per ancestor
    /// ([`record_words`] in all).
    pub(crate) fn with_tail(words: W, tail_per_ancestor: usize) -> Td<W> {
        let len = (words.as_ref().len() + 2) / (3 + tail_per_ancestor);
        debug_assert_eq!(
            words.as_ref().len(),
            record_words(len, tail_per_ancestor),
            "whole records only"
        );
        Td { words, len }
    }

    /// The words after the spanning-tree entries ([`Td::with_tail`]).
    pub(crate) fn tail(&self) -> &[Ident] {
        &self.words.as_ref()[record_words(self.len, 0)..]
    }

    /// The vertex's depth `m` (list length − 1).
    pub fn depth(&self) -> usize {
        self.len - 1
    }

    /// The suffix of the ancestor list from the depth-`j` ancestor to the
    /// root (length `j + 1`).
    ///
    /// # Panics
    ///
    /// Panics if `j > self.depth()`.
    pub fn suffix_from_depth(&self, j: usize) -> &[Ident] {
        &self.ancestors()[self.depth() - j..]
    }

    /// Serializes the certificate, marking the ledger components
    /// (`list-len`, `ancestor-ids`, `exit-id`, `exit-distance`).
    pub fn write(&self, w: &mut BitWriter, id_bits: u32, t: usize) {
        let ancestors = self.ancestors().iter().copied();
        write_td(w, self.len, ancestors, self.trees(), id_bits, t);
    }
}

impl TdCert {
    /// The certificate with `ancestors` (the vertex first, the root last)
    /// and one `(exit id, distance)` entry per strict ancestor.
    ///
    /// # Panics
    ///
    /// Panics unless there is one entry fewer than there are ancestors.
    pub fn new(ancestors: &[Ident], trees: &[(Ident, u64)]) -> TdCert {
        assert_eq!(
            trees.len() + 1,
            ancestors.len(),
            "one entry per strict ancestor"
        );
        let mut words = Vec::with_capacity(record_words(ancestors.len(), 0));
        words.extend_from_slice(ancestors);
        for &(exit, dist) in trees {
            words.extend([exit, Ident(dist)]);
        }
        Td {
            words: words.into_boxed_slice(),
            len: ancestors.len(),
        }
    }

    /// Parses a certificate written by [`Td::write`]. Enforces
    /// `1 ≤ list length ≤ t`.
    pub fn read(r: &mut BitReader<'_>, id_bits: u32, t: usize) -> Option<TdCert> {
        let len = read_len(r, t)?;
        let mut words = Vec::with_capacity(record_words(len, 0));
        read_words(r, id_bits, len, &mut words)?;
        Some(Td {
            words: words.into_boxed_slice(),
            len,
        })
    }
}

/// The words of a record with `len` ancestors: the `3·len − 2`
/// treedepth words (ancestor ids, then two per strict ancestor), then
/// `tail_per_ancestor` words per ancestor.
pub(crate) fn record_words(len: usize, tail_per_ancestor: usize) -> usize {
    (3 + tail_per_ancestor) * len - 2
}

/// Reads the list-length field of a treedepth certificate, `1..=t`.
pub(crate) fn read_len(r: &mut BitReader<'_>, t: usize) -> Option<usize> {
    let len = r.read(width_for(t as u64))? as usize;
    (1..=t).contains(&len).then_some(len)
}

/// Reads the `3·len − 2` words after the list length: the ancestor ids,
/// then `(exit id, distance)` per strict ancestor.
pub(crate) fn read_words(
    r: &mut BitReader<'_>,
    id_bits: u32,
    len: usize,
    words: &mut Vec<Ident>,
) -> Option<()> {
    for _ in 0..len {
        words.push(read_ident(r, id_bits)?);
    }
    for _ in 0..len - 1 {
        words.push(read_ident(r, id_bits)?);
        words.push(Ident(r.read(id_bits)?));
    }
    Some(())
}

/// Writes a treedepth certificate from its parts: the `len` ancestor ids
/// from the vertex up to the root, and the `(exit id, distance)` entry
/// per strict ancestor. The one encoder of the format [`TdCert::read`]
/// parses.
fn write_td(
    w: &mut BitWriter,
    len: usize,
    ancestors: impl Iterator<Item = Ident>,
    trees: impl Iterator<Item = (Ident, u64)>,
    id_bits: u32,
    t: usize,
) {
    w.component("list-len");
    w.write(len as u64, width_for(t as u64));
    w.component("ancestor-ids");
    for id in ancestors {
        write_ident(w, id, id_bits);
    }
    for (exit, dist) in trees {
        w.component("exit-id");
        write_ident(w, exit, id_bits);
        w.component("exit-distance");
        w.write(dist, id_bits);
    }
}

/// The honest treedepth certificates of one coherent model, kept flat:
/// every vertex's spanning-tree entries in one array, its ancestor ids
/// read from the model as it is written. The scratch of the subtree
/// walks and searches is kept too, so one value serves model after model
/// (a `C_t` prover's blocks) without allocating again.
#[derive(Debug, Default)]
pub struct HonestTd {
    /// Vertex `v`'s entries are `trees[start[v]..start[v + 1]]`, one per
    /// strict ancestor, indexed by ancestor depth − 1.
    start: Vec<usize>,
    trees: Vec<(Ident, u64)>,
    in_sub: Vec<bool>,
    dist: Vec<u64>,
    members: Vec<NodeId>,
    stack: Vec<NodeId>,
    queue: std::collections::VecDeque<NodeId>,
}

impl HonestTd {
    /// Computes the entries of every vertex of `g` under the coherent
    /// `model`, with `ident` naming the vertices.
    ///
    /// For every non-root vertex `v`, the spanning tree of `G_v` is the
    /// breadth-first tree from its exit vertex: the first vertex of `v`'s
    /// subtree, in [`locert_graph::RootedTree::subtree`] order, that is
    /// adjacent to `v`'s parent.
    ///
    /// # Panics
    ///
    /// Panics if the model is not coherent (the prover must repair first).
    pub fn fill(&mut self, g: &Graph, ident: impl Fn(NodeId) -> Ident, model: &EliminationTree) {
        let tree = model.tree();
        let n = g.num_nodes();
        self.start.clear();
        self.start.push(0);
        for v in g.nodes() {
            self.start.push(self.start[v.0] + model.depth(v));
        }
        self.trees.clear();
        self.trees.resize(self.start[n], (Ident(0), 0));
        self.in_sub.clear();
        self.in_sub.resize(n, false);
        self.dist.clear();
        self.dist.resize(n, u64::MAX);
        for v in g.nodes() {
            let Some(parent) = tree.parent(v) else {
                continue;
            };
            // v's subtree, in `RootedTree::subtree` order.
            self.members.clear();
            self.stack.clear();
            self.stack.push(v);
            while let Some(u) = self.stack.pop() {
                self.members.push(u);
                self.stack.extend_from_slice(tree.children(u));
            }
            let exit = *self
                .members
                .iter()
                .find(|&&x| g.has_edge(x, parent))
                .expect("coherent model has an exit vertex per subtree");
            // BFS within G_v from the exit.
            for &x in &self.members {
                self.in_sub[x.0] = true;
            }
            self.dist[exit.0] = 0;
            self.queue.clear();
            self.queue.push_back(exit);
            while let Some(x) = self.queue.pop_front() {
                for &y in g.neighbors(x) {
                    if self.in_sub[y.0] && self.dist[y.0] == u64::MAX {
                        self.dist[y.0] = self.dist[x.0] + 1;
                        self.queue.push_back(y);
                    }
                }
            }
            let j = model.depth(v); // ancestor depth of v; tree index j − 1.
            let exit_id = ident(exit);
            for &x in &self.members {
                debug_assert_ne!(self.dist[x.0], u64::MAX, "coherent subtree is connected");
                self.trees[self.start[x.0] + j - 1] = (exit_id, self.dist[x.0]);
                self.in_sub[x.0] = false;
                self.dist[x.0] = u64::MAX;
            }
        }
    }

    /// Writes `v`'s certificate, as [`Td::write`] writes it, under
    /// the model and naming of the last [`HonestTd::fill`].
    pub fn write(
        &self,
        w: &mut BitWriter,
        v: NodeId,
        model: &EliminationTree,
        ident: impl Fn(NodeId) -> Ident,
        id_bits: u32,
        t: usize,
    ) {
        let trees = &self.trees[self.start[v.0]..self.start[v.0 + 1]];
        let ancestors = ancestors(model, v).map(ident);
        write_td(
            w,
            trees.len() + 1,
            ancestors,
            trees.iter().copied(),
            id_bits,
            t,
        );
    }
}

/// The ancestors of `v` in `model`, from `v` itself up to the root.
pub(crate) fn ancestors(model: &EliminationTree, v: NodeId) -> impl Iterator<Item = NodeId> + '_ {
    std::iter::successors(Some(v), |&u| model.tree().parent(u))
}

/// The vertex-local checks of a treedepth certificate: ancestor-list
/// length and head (a [`TdCert`] holds one tree entry per strict
/// ancestor by construction). Composite schemes that embed a [`TdCert`]
/// inside a larger certificate call this (and [`check_td_edges`]) on
/// their own decodes.
///
/// # Errors
///
/// [`RejectReason::AncestryViolation`] when the list is too long or
/// mis-headed.
pub fn check_own_td(id: Ident, mine: TdRef<'_>, t: usize) -> Result<(), RejectReason> {
    if mine.ancestors().len() > t || mine.ancestors()[0] != id {
        return Err(RejectReason::AncestryViolation);
    }
    Ok(())
}

/// The edge checks of a treedepth certificate against the neighbors'
/// decodes: cross-edge comparability and the per-ancestor spanning-tree
/// chains.
///
/// # Errors
///
/// [`RejectReason::AncestryViolation`] when ancestor lists are
/// incomparable across an edge or a subtree spanning tree is broken, and
/// [`RejectReason::MissingNeighbor`] when an exit vertex cannot see its
/// subtree's parent.
pub fn check_td_edges<'a>(
    id: Ident,
    mine: TdRef<'_>,
    nbrs: impl Iterator<Item = TdRef<'a>> + Clone,
) -> Result<(), RejectReason> {
    let m = mine.depth();
    // Every edge joins comparable vertices: one list is a suffix of the
    // other.
    for nc in nbrs.clone() {
        let (short, long) = if nc.ancestors().len() <= mine.ancestors().len() {
            (nc.ancestors(), mine.ancestors())
        } else {
            (mine.ancestors(), nc.ancestors())
        };
        if long[long.len() - short.len()..] != short[..] {
            return Err(RejectReason::AncestryViolation);
        }
    }
    // Spanning-tree checks per strict ancestor.
    for j in 1..=m {
        let (exit, dist) = mine.tree(j - 1);
        let my_suffix = mine.suffix_from_depth(j);
        if dist == 0 {
            // I am the exit vertex of α_j: adjacent to α_j's parent,
            // whose full list is my suffix of length j.
            if id != exit {
                return Err(RejectReason::AncestryViolation);
            }
            let parent_list = mine.suffix_from_depth(j - 1);
            if !nbrs.clone().any(|nc| nc.ancestors() == parent_list) {
                return Err(RejectReason::MissingNeighbor);
            }
        } else {
            // Some neighbor in the same subtree carries the same exit at
            // distance one less.
            let found = nbrs.clone().any(|nc| {
                nc.depth() >= j
                    && nc.suffix_from_depth(j) == my_suffix
                    && nc.tree(j - 1) == (exit, dist - 1)
            });
            if !found {
                return Err(RejectReason::AncestryViolation);
            }
        }
    }
    Ok(())
}

/// Certifies "the graph has treedepth at most `t`" (vertex-count
/// convention).
#[derive(Debug, Clone)]
pub struct TreedepthScheme {
    id_bits: u32,
    t: usize,
    strategy: ModelStrategy,
}

impl TreedepthScheme {
    /// A scheme for bound `t` with identifier fields of `id_bits` bits
    /// and the default (auto) prover strategy.
    pub fn new(id_bits: u32, t: usize) -> Self {
        TreedepthScheme {
            id_bits,
            t,
            strategy: ModelStrategy::Auto,
        }
    }

    /// Overrides the prover's model strategy.
    pub fn with_strategy(mut self, strategy: ModelStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// The treedepth bound `t`.
    pub fn bound(&self) -> usize {
        self.t
    }
}

/// Branch-expansion budget for the exact solver on the Auto path. Far
/// above anything the ≤ [`exact::EXACT_LIMIT`]-vertex instances of this
/// workspace need, so it only trips on a runaway search, which surfaces
/// as a typed [`ProverError`] instead of an unbounded hang.
const EXACT_BRANCH_BUDGET: u64 = 1 << 28;

/// Finds a coherent model of height ≤ `t` per `strategy` (shared with
/// [`crate::schemes::kernel_mso`]). The model depends on the graph alone,
/// never on identifiers.
pub fn model_for(
    g: &Graph,
    t: usize,
    strategy: &ModelStrategy,
) -> Result<EliminationTree, ProverError> {
    // Treedepth and elimination trees are defined on non-empty connected
    // graphs (the paper's standing convention); the solvers assert this,
    // so refuse with a typed error before dispatching to them.
    if g.num_nodes() == 0 || !g.is_connected() {
        return Err(ProverError::WitnessUnavailable(
            "instance is empty or disconnected (connected-graph promise)".into(),
        ));
    }
    let model = match strategy {
        ModelStrategy::Explicit(parents) => EliminationTree::new(g, parents)
            .map_err(|e| ProverError::WitnessUnavailable(e.to_string()))?,
        ModelStrategy::Dfs => heuristic::dfs_elimination_tree(g),
        ModelStrategy::Auto => {
            if g.num_nodes() <= exact::EXACT_LIMIT {
                exact::optimal_elimination_tree_within(g, EXACT_BRANCH_BUDGET)
                    .map_err(|e| ProverError::WitnessUnavailable(e.to_string()))?
            } else {
                heuristic::separator_elimination_tree(g)
            }
        }
    };
    if model.height() > t {
        // With the exact solver this is a definite no; otherwise the
        // heuristic may simply have failed.
        return Err(
            if matches!(strategy, ModelStrategy::Auto) && g.num_nodes() <= exact::EXACT_LIMIT {
                ProverError::NotAYesInstance
            } else if matches!(strategy, ModelStrategy::Dfs) {
                // DFS depth witnesses a long path, used by minor-freeness
                // where this is a definite no as well; generic treedepth
                // callers should prefer Auto/Explicit.
                ProverError::NotAYesInstance
            } else {
                ProverError::WitnessUnavailable(format!(
                    "model of height {} exceeds bound {t}",
                    model.height()
                ))
            },
        );
    }
    Ok(model.make_coherent(g))
}

impl Prover for TreedepthScheme {
    fn assign(&self, instance: &Instance<'_>) -> Result<Assignment, ProverError> {
        let _span = locert_trace::span!("core.schemes.treedepth.prover");
        let model = model_for(instance.graph(), self.t, &self.strategy)?;
        let ids = instance.ids();
        let mut td = HonestTd::default();
        td.fill(instance.graph(), |v| ids.ident(v), &model);
        Ok(Assignment::write_each(
            instance.graph().num_nodes(),
            |v, w| {
                td.write(w, v, &model, |a| ids.ident(a), self.id_bits, self.t);
            },
        ))
    }
}

impl Decode for TreedepthScheme {
    type Decoded = Option<TdCert>;
    type Cache = ();

    fn decode(&self, mut r: BitReader<'_>, _: &()) -> Option<TdCert> {
        let c = TdCert::read(&mut r, self.id_bits, self.t)?;
        r.exhausted().then_some(c)
    }

    fn decide_decoded(&self, view: &DecodedView<'_, Option<TdCert>>) -> Result<(), RejectReason> {
        let mine = view
            .own
            .as_ref()
            .ok_or(RejectReason::MalformedCertificate)?;
        check_own_td(view.id, mine.as_ref(), self.t)?;
        // Every neighbor must parse before any edge check runs.
        for (_, _, decoded) in view.neighbors() {
            decoded
                .as_ref()
                .ok_or(RejectReason::MalformedNeighborCertificate)?;
        }
        let nbrs = view
            .neighbors()
            .filter_map(|(_, _, decoded)| decoded.as_ref().map(TdCert::as_ref));
        check_td_edges(view.id, mine.as_ref(), nbrs)
    }
}

impl Scheme for TreedepthScheme {
    fn name(&self) -> String {
        format!("treedepth<= {}", self.t)
    }

    fn declared_bound(&self) -> DeclaredBound {
        // Theorem 2.4: O(t log n) — t ancestor ids plus t spanning-tree
        // entries of identifier width.
        DeclaredBound::PolyTdLogN { td: self.t as u32 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attacks;
    use crate::bits::Certificate;
    use crate::framework::{run_scheme, run_verification};
    use crate::schemes::common::id_bits_for;
    use locert_graph::{generators, IdAssignment};
    use locert_treedepth::bounds;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn completeness_on_paths() {
        // td(P_n) = ⌈log2(n+1)⌉.
        for n in [1usize, 3, 7, 15, 31] {
            let g = generators::path(n);
            let ids = IdAssignment::contiguous(n);
            let inst = Instance::new(&g, &ids);
            let t = bounds::treedepth_of_path(n);
            let scheme = TreedepthScheme::new(id_bits_for(&inst), t);
            let out = run_scheme(&scheme, &inst).unwrap();
            assert!(out.accepted(), "P_{n} at t = {t}");
            // O(t log n): list ≤ t ids + (t−1) tree entries of 2 ids.
            let l = id_bits_for(&inst) as usize;
            assert!(out.max_bits() <= 8 + t * l + (t - 1) * 2 * l);
        }
    }

    #[test]
    fn prover_exact_refusal_below_true_treedepth() {
        let g = generators::path(15); // td = 4.
        let ids = IdAssignment::contiguous(15);
        let inst = Instance::new(&g, &ids);
        let scheme = TreedepthScheme::new(id_bits_for(&inst), 3);
        assert_eq!(
            run_scheme(&scheme, &inst).unwrap_err(),
            ProverError::NotAYesInstance
        );
    }

    #[test]
    fn explicit_witness_strategy() {
        let mut rng = StdRng::seed_from_u64(141);
        let (g, parents) = generators::random_bounded_treedepth(40, 4, 0.5, &mut rng);
        let ids = IdAssignment::shuffled(40, &mut rng);
        let inst = Instance::new(&g, &ids);
        let scheme = TreedepthScheme::new(id_bits_for(&inst), 4)
            .with_strategy(ModelStrategy::Explicit(parents));
        let out = run_scheme(&scheme, &inst).unwrap();
        assert!(out.accepted());
    }

    #[test]
    fn larger_instances_via_heuristics() {
        let mut rng = StdRng::seed_from_u64(142);
        let (g, parents) = generators::random_bounded_treedepth(200, 5, 0.4, &mut rng);
        let ids = IdAssignment::shuffled(200, &mut rng);
        let inst = Instance::new(&g, &ids);
        // Explicit witness always works.
        let scheme = TreedepthScheme::new(id_bits_for(&inst), 5)
            .with_strategy(ModelStrategy::Explicit(parents));
        assert!(run_scheme(&scheme, &inst).unwrap().accepted());
    }

    #[test]
    fn cliques_at_their_treedepth() {
        for n in 2..=5 {
            let g = generators::clique(n);
            let ids = IdAssignment::contiguous(n);
            let inst = Instance::new(&g, &ids);
            assert!(
                run_scheme(&TreedepthScheme::new(id_bits_for(&inst), n), &inst)
                    .unwrap()
                    .accepted()
            );
            assert_eq!(
                run_scheme(&TreedepthScheme::new(id_bits_for(&inst), n - 1), &inst).unwrap_err(),
                ProverError::NotAYesInstance
            );
        }
    }

    #[test]
    fn forged_list_rejected() {
        let g = generators::path(7);
        let ids = IdAssignment::contiguous(7);
        let inst = Instance::new(&g, &ids);
        let scheme = TreedepthScheme::new(id_bits_for(&inst), 3);
        let mut asg = scheme.assign(&inst).unwrap();
        // Corrupt a middle vertex's first ancestor id.
        let c = asg.cert(NodeId(3)).clone();
        let len_bits = width_for(3) as usize;
        *asg.cert_mut(NodeId(3)) = c.with_bit_flipped(len_bits + 1);
        assert!(!run_verification(&scheme, &inst, &asg).accepted());
    }

    #[test]
    fn replayed_certificates_under_tighter_bound_rejected() {
        // Certificates valid for t = 4 cannot pass the t = 3 verifier on
        // P_15 (lists of length 4 exceed the bound).
        let g = generators::path(15);
        let ids = IdAssignment::contiguous(15);
        let inst = Instance::new(&g, &ids);
        let loose = TreedepthScheme::new(id_bits_for(&inst), 4);
        let base = loose.assign(&inst).unwrap();
        let tight = TreedepthScheme::new(id_bits_for(&inst), 3);
        assert!(!run_verification(&tight, &inst, &base).accepted());
        let mut rng = StdRng::seed_from_u64(143);
        assert!(attacks::mutation_attacks(&tight, &inst, &base, &mut rng, 500).is_none());
    }

    #[test]
    fn random_attacks_rejected() {
        let g = generators::path(15); // td 4.
        let ids = IdAssignment::contiguous(15);
        let inst = Instance::new(&g, &ids);
        let scheme = TreedepthScheme::new(id_bits_for(&inst), 3);
        let mut rng = StdRng::seed_from_u64(144);
        assert!(attacks::random_assignments(&scheme, &inst, 40, &mut rng, 400).is_none());
    }

    #[test]
    fn exhaustive_soundness_p2_at_t1() {
        // P_2 has treedepth 2; at t = 1 every certificate is a
        // single-entry list, forcing two adjacent "roots" — impossible.
        // Exhaust every assignment with up to 6-bit certificates.
        let g = generators::path(2);
        let ids = IdAssignment::contiguous(2);
        let inst = Instance::new(&g, &ids);
        let scheme = TreedepthScheme::new(2, 1);
        let res = attacks::exhaustive_soundness(&scheme, &inst, 6, 1_000_000);
        assert!(res.is_ok(), "fooling assignment found: {res:?}");
    }

    #[test]
    fn coherence_enforced_by_exit_checks() {
        // Hand-build certificates from an *incoherent* model of P_4:
        // chain 1 -> 0 -> 2 -> 3 (vertex indices), where vertex 2's
        // subtree has no vertex adjacent to its parent 0 — the honest
        // prover would repair this; hand-written certificates for it must
        // be rejected. We simulate by taking the honest prover on the
        // coherent repair and verifying it differs, then forging the
        // incoherent lists directly.
        let g = generators::path(4);
        let ids = IdAssignment::contiguous(4);
        let inst = Instance::new(&g, &ids);
        let t = 4;
        let scheme = TreedepthScheme::new(id_bits_for(&inst), t);
        // Incoherent lists: 1 root; 0 child of 1; 2 child of 0; 3 child of 2.
        // Vertex 2's subtree {2, 3} has no neighbor of 0 — exit vertex
        // check at depth-2 trees must fail for any dist labels we try.
        let id = |v: usize| ids.ident(NodeId(v));
        let lists: Vec<Vec<Ident>> = vec![
            vec![id(0), id(1)],
            vec![id(1)],
            vec![id(2), id(0), id(1)],
            vec![id(3), id(2), id(0), id(1)],
        ];
        // Try all small dist labelings for the forged trees.
        let mut fooled = false;
        for d2 in 0..2u64 {
            for d3 in 0..3u64 {
                let certs: Vec<Certificate> = (0..4)
                    .map(|v| {
                        let mut trees = Vec::new();
                        match v {
                            0 => trees.push((id(0), 0)), // G_0 = {0,2,3}? exit claims.
                            2 => {
                                trees.push((id(2), d2)); // in G_0's tree.
                                trees.push((id(2), 0)); // exit of G_2.
                            }
                            3 => {
                                trees.push((id(3), d2 + 1));
                                trees.push((id(3), d3));
                                trees.push((id(3), 0));
                            }
                            _ => {}
                        }
                        let c = TdCert::new(&lists[v], &trees);
                        let mut w = BitWriter::new();
                        c.write(&mut w, id_bits_for(&inst), t);
                        w.finish()
                    })
                    .collect();
                if run_verification(&scheme, &inst, &Assignment::new(certs)).accepted() {
                    fooled = true;
                }
            }
        }
        assert!(!fooled, "incoherent forged model was accepted");
    }

    #[test]
    fn auto_strategy_heuristic_on_large_paths() {
        // Beyond the exact-solver limit the Auto strategy falls back to
        // the separator heuristic, which is optimal on paths.
        let n = 1023; // td = 10.
        let g = generators::path(n);
        let ids = IdAssignment::contiguous(n);
        let inst = Instance::new(&g, &ids);
        let scheme = TreedepthScheme::new(id_bits_for(&inst), 10);
        let out = run_scheme(&scheme, &inst).unwrap();
        assert!(out.accepted());
        // Below the true treedepth the heuristic cannot find a model and
        // honestly reports WitnessUnavailable (not a soundness claim).
        let tight = TreedepthScheme::new(id_bits_for(&inst), 9);
        assert!(matches!(
            run_scheme(&tight, &inst).unwrap_err(),
            ProverError::WitnessUnavailable(_)
        ));
    }

    #[test]
    fn adversarial_handcrafted_certificates() {
        // Target P_4 at t = 3 (true treedepth 3) and attack specific
        // fields of the certificate structure.
        let g = generators::path(4);
        let ids = IdAssignment::contiguous(4);
        let inst = Instance::new(&g, &ids);
        let t = 3;
        let b = id_bits_for(&inst);
        let scheme = TreedepthScheme::new(b, t);
        let honest = scheme.assign(&inst).unwrap();
        assert!(run_verification(&scheme, &inst, &honest).accepted());
        let id = |v: usize| ids.ident(NodeId(v));

        let write = |c: &TdCert| {
            let mut w = BitWriter::new();
            c.write(&mut w, b, t);
            w.finish()
        };

        // (a) A list that does not start with the vertex's own id.
        let mut bad = honest.clone();
        let decode = |v: usize| {
            let parsed = scheme.decode(BitReader::new(honest.cert(NodeId(v))), &());
            let parsed = parsed.unwrap();
            (
                parsed.ancestors().to_vec(),
                parsed.trees().collect::<Vec<_>>(),
            )
        };
        let (mut ancestors, trees) = decode(2);
        ancestors[0] = id(3);
        *bad.cert_mut(NodeId(2)) = write(&TdCert::new(&ancestors, &trees));
        assert!(!run_verification(&scheme, &inst, &bad).accepted());

        // (b) Suffix-incomparable neighbor lists: vertex 1 claims root A,
        // vertex 2 claims a disjoint chain.
        let certs: Vec<Certificate> = vec![
            write(&TdCert::new(&[id(0), id(1)], &[(id(0), 0)])),
            write(&TdCert::new(&[id(1)], &[])),
            write(&TdCert::new(&[id(2), id(3)], &[(id(2), 0)])),
            write(&TdCert::new(&[id(3)], &[])),
        ];
        assert!(!run_verification(&scheme, &inst, &Assignment::new(certs)).accepted());

        // (c) A broken distance chain inside a subtree spanning tree:
        // take honest certs and bump one ST distance by 2.
        let mut bad2 = honest.clone();
        let (ancestors2, mut trees2) = decode(3);
        if let Some(slot) = trees2.first_mut() {
            slot.1 += 2;
            *bad2.cert_mut(NodeId(3)) = write(&TdCert::new(&ancestors2, &trees2));
            assert!(!run_verification(&scheme, &inst, &bad2).accepted());
        }

        // (d) A forged exit identifier pointing at a non-neighbor.
        let mut bad3 = honest.clone();
        let (ancestors3, mut trees3) = decode(0);
        if let Some(slot) = trees3.first_mut() {
            slot.0 = id(3);
            *bad3.cert_mut(NodeId(0)) = write(&TdCert::new(&ancestors3, &trees3));
            assert!(!run_verification(&scheme, &inst, &bad3).accepted());
        }
    }

    #[test]
    fn star_treedepth_2() {
        let g = generators::star(20);
        let ids = IdAssignment::contiguous(20);
        let inst = Instance::new(&g, &ids);
        let scheme = TreedepthScheme::new(id_bits_for(&inst), 2);
        assert!(run_scheme(&scheme, &inst).unwrap().accepted());
    }

    #[test]
    fn disconnected_and_empty_instances_are_typed_errors() {
        // Regression: model_for used to hand disconnected graphs to the
        // exact/heuristic solvers, which assert connectivity and panicked.
        let g = Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        let ids = IdAssignment::contiguous(4);
        let inst = Instance::new(&g, &ids);
        for strategy in [ModelStrategy::Auto, ModelStrategy::Dfs] {
            let scheme = TreedepthScheme::new(id_bits_for(&inst), 3).with_strategy(strategy);
            assert!(matches!(
                run_scheme(&scheme, &inst).unwrap_err(),
                ProverError::WitnessUnavailable(_)
            ));
        }
        assert!(matches!(
            model_for(&Graph::empty(0), 1, &ModelStrategy::Auto).unwrap_err(),
            ProverError::WitnessUnavailable(_)
        ));
    }

    #[test]
    fn single_vertex() {
        let g = Graph::empty(1);
        let ids = IdAssignment::contiguous(1);
        let inst = Instance::new(&g, &ids);
        let scheme = TreedepthScheme::new(1, 1);
        assert!(run_scheme(&scheme, &inst).unwrap().accepted());
    }
}
