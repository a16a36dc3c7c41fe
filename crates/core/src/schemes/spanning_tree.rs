//! Spanning-tree and vertex-count certification (Proposition 3.4).
//!
//! The classic `O(log n)` tools of the area:
//!
//! - [`SpanningTreeScheme`] certifies a rooted spanning tree of a
//!   connected graph: every vertex is labeled `(root id, distance to
//!   root, parent id)`; acyclicity follows from distances strictly
//!   decreasing along parent pointers, uniqueness of the root from
//!   identifier uniqueness. An optional *root predicate* lets other
//!   schemes point the tree at a vertex with a locally-checkable property
//!   (e.g. "the root dominates the graph").
//! - [`VertexCountScheme`] additionally certifies `n`, by labeling every
//!   vertex with the claimed total and its subtree size.

use crate::bits::{BitReader, BitWriter, Certificate};
use crate::framework::{
    Assignment, DeclaredBound, Decode, DecodedView, Instance, Prover, ProverError, RejectReason,
    Scheme,
};
use crate::schemes::common::{read_ident, write_ident};
use locert_graph::{traversal, Ident, NodeId};

/// Parsed spanning-tree certificate fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TreeFields {
    /// The claimed root identifier (shared by every vertex).
    pub root: Ident,
    /// The claimed distance to the root.
    pub dist: u64,
    /// The claimed parent identifier (self for the root).
    pub parent: Ident,
}

impl TreeFields {
    /// Serializes with identifier fields of `id_bits` bits. Marks the
    /// fields as ledger components (`root-id`, `distance`,
    /// `parent-id`) for bit attribution.
    pub fn write(&self, w: &mut BitWriter, id_bits: u32) {
        w.component("root-id");
        write_ident(w, self.root, id_bits);
        w.component("distance");
        w.write(self.dist, id_bits);
        w.component("parent-id");
        write_ident(w, self.parent, id_bits);
    }

    /// Parses fields written by [`TreeFields::write`].
    pub fn read(r: &mut BitReader<'_>, id_bits: u32) -> Option<TreeFields> {
        Some(TreeFields {
            root: read_ident(r, id_bits)?,
            dist: r.read(id_bits)?,
            parent: read_ident(r, id_bits)?,
        })
    }
}

/// Computes the honest BFS spanning-tree fields for every vertex, rooted
/// at `root`. Returns `None` when `root` is out of range or some vertex
/// is unreachable from it (no spanning tree rooted there exists).
pub fn try_honest_tree_fields(instance: &Instance<'_>, root: NodeId) -> Option<Vec<TreeFields>> {
    let g = instance.graph();
    let ids = instance.ids();
    if root.0 >= g.num_nodes() {
        return None;
    }
    let dist = traversal::bfs_distances(g, root);
    let parent = traversal::bfs_parents(g, root);
    g.nodes()
        .map(|v| {
            Some(TreeFields {
                root: ids.ident(root),
                dist: dist[v.0]? as u64,
                parent: parent[v.0].map_or(ids.ident(root), |p| ids.ident(p)),
            })
        })
        .collect()
}

/// Computes the honest BFS spanning-tree fields for every vertex, rooted
/// at `root`.
///
/// # Panics
///
/// On a disconnected instance or an out-of-range root; provers should
/// prefer [`try_honest_tree_fields`] and surface a typed error.
pub fn honest_tree_fields(instance: &Instance<'_>, root: NodeId) -> Vec<TreeFields> {
    try_honest_tree_fields(instance, root).expect("connected instance")
}

/// Verifies the spanning-tree fields `mine` of one vertex against its
/// decoded view: every neighbor's fields parse and share the root, then
/// the vertex's position ([`verify_tree_position`]). `extract` reads a
/// neighbor's tree fields out of its decoded certificate, so composite
/// certificates can embed them anywhere.
///
/// # Errors
///
/// The [`RejectReason`] for the first failed check.
pub fn verify_tree_fields<D>(
    view: &DecodedView<'_, D>,
    mine: &TreeFields,
    extract: impl Fn(&D) -> Option<TreeFields>,
) -> Result<(), RejectReason> {
    // Root consistency across all neighbors.
    for (_, _, decoded) in view.neighbors() {
        let f = extract(decoded).ok_or(RejectReason::MalformedNeighborCertificate)?;
        if f.root != mine.root {
            return Err(RejectReason::RootMismatch);
        }
    }
    verify_tree_position(view, mine, extract)
}

/// Core positional checks, with a caller-supplied reader of the tree
/// fields in a neighbor's decoded certificate (composite schemes store
/// the fields elsewhere).
///
/// # Errors
///
/// [`RejectReason::RootMismatch`] for a forged or ill-formed root claim,
/// [`RejectReason::MissingNeighbor`] when the claimed parent is not
/// visible, [`RejectReason::MalformedNeighborCertificate`] when the
/// parent's fields do not parse, and
/// [`RejectReason::ParentDistanceClash`] when the parent is not exactly
/// one step closer to the root.
pub fn verify_tree_position<D>(
    view: &DecodedView<'_, D>,
    mine: &TreeFields,
    extract: impl Fn(&D) -> Option<TreeFields>,
) -> Result<(), RejectReason> {
    if view.id == mine.root {
        // The unique root: distance 0, self-parent.
        if mine.dist == 0 && mine.parent == view.id {
            return Ok(());
        }
        return Err(RejectReason::RootMismatch);
    }
    if mine.dist == 0 {
        // Distance 0 elsewhere would forge a second root.
        return Err(RejectReason::RootMismatch);
    }
    // The claimed parent must be a visible neighbor one step closer.
    let Some(decoded) = view.neighbor_decoded(mine.parent) else {
        return Err(RejectReason::MissingNeighbor);
    };
    let f = extract(decoded).ok_or(RejectReason::MalformedNeighborCertificate)?;
    if f.root != mine.root {
        return Err(RejectReason::RootMismatch);
    }
    if f.dist + 1 != mine.dist {
        return Err(RejectReason::ParentDistanceClash);
    }
    Ok(())
}

/// Prover-side root chooser (see
/// [`SpanningTreeScheme::with_root_predicate`]).
pub type RootSelector = Box<dyn Fn(&Instance<'_>) -> Option<NodeId> + Send + Sync>;
/// Verifier-side root predicate, on the root's identifier and degree.
pub type RootCheck = Box<dyn Fn(Ident, usize) -> bool + Send + Sync>;

/// Certifies a rooted spanning tree (Proposition 3.4), with an optional
/// locally-checked predicate on the root.
pub struct SpanningTreeScheme {
    id_bits: u32,
    /// Prover-side root choice; `None` = vertex 0.
    root_selector: Option<RootSelector>,
    /// Extra verifier-side check applied at the root only.
    root_check: Option<RootCheck>,
}

impl std::fmt::Debug for SpanningTreeScheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpanningTreeScheme")
            .field("id_bits", &self.id_bits)
            .field("has_root_selector", &self.root_selector.is_some())
            .field("has_root_check", &self.root_check.is_some())
            .finish()
    }
}

impl SpanningTreeScheme {
    /// A scheme with identifier fields of `id_bits` bits, rooted at
    /// vertex 0.
    pub fn new(id_bits: u32) -> Self {
        SpanningTreeScheme {
            id_bits,
            root_selector: None,
            root_check: None,
        }
    }

    /// Points the tree at a prover-chosen root satisfying a verifier-side
    /// predicate. The prover fails with
    /// [`ProverError::NotAYesInstance`] when `selector` returns `None`.
    pub fn with_root_predicate(
        id_bits: u32,
        selector: impl Fn(&Instance<'_>) -> Option<NodeId> + Send + Sync + 'static,
        check: impl Fn(Ident, usize) -> bool + Send + Sync + 'static,
    ) -> Self {
        SpanningTreeScheme {
            id_bits,
            root_selector: Some(Box::new(selector)),
            root_check: Some(Box::new(check)),
        }
    }
}

impl Prover for SpanningTreeScheme {
    fn assign(&self, instance: &Instance<'_>) -> Result<Assignment, ProverError> {
        let _span = locert_trace::span!("core.schemes.spanning_tree.prover");
        let root = match &self.root_selector {
            Some(sel) => sel(instance).ok_or(ProverError::NotAYesInstance)?,
            None => NodeId(0),
        };
        // A rooted spanning tree exists iff the instance is non-empty and
        // connected: anything else is a no-instance, not a panic.
        let fields = try_honest_tree_fields(instance, root).ok_or(ProverError::NotAYesInstance)?;
        Ok(Assignment::write_each(fields.len(), |v, w| {
            fields[v.0].write(w, self.id_bits);
        }))
    }
}

impl Decode for SpanningTreeScheme {
    type Decoded = Option<TreeFields>;
    type Cache = ();

    fn decode(&self, cert: &Certificate, _: &()) -> Option<TreeFields> {
        TreeFields::read(&mut BitReader::new(cert), self.id_bits)
    }

    fn decide_decoded(
        &self,
        view: &DecodedView<'_, Option<TreeFields>>,
    ) -> Result<(), RejectReason> {
        let mine = view.own.ok_or(RejectReason::MalformedCertificate)?;
        verify_tree_fields(view, &mine, |f| *f)?;
        if view.id == mine.root
            && !self
                .root_check
                .as_ref()
                .is_none_or(|check| check(view.id, view.degree()))
        {
            return Err(RejectReason::PropertyViolation);
        }
        Ok(())
    }
}

impl Scheme for SpanningTreeScheme {
    fn name(&self) -> String {
        "spanning-tree".into()
    }

    fn declared_bound(&self) -> DeclaredBound {
        // Prop 3.4: three identifier-width fields.
        DeclaredBound::LogN
    }
}

/// Parsed vertex-count certificate fields: tree fields plus the claimed
/// total and subtree size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CountFields {
    /// The spanning-tree fields.
    pub tree: TreeFields,
    /// The claimed number of vertices (shared by every vertex).
    pub total: u64,
    /// The number of vertices in this vertex's subtree.
    pub sub: u64,
}

impl CountFields {
    /// Serializes with identifier fields of `id_bits` bits; the two
    /// counters are marked as `total-count` / `subtree-count` ledger
    /// components (the tree fields mark their own).
    pub fn write(&self, w: &mut BitWriter, id_bits: u32) {
        self.tree.write(w, id_bits);
        w.component("total-count");
        w.write(self.total, id_bits);
        w.component("subtree-count");
        w.write(self.sub, id_bits);
    }

    /// Parses fields written by [`CountFields::write`].
    pub fn read(r: &mut BitReader<'_>, id_bits: u32) -> Option<CountFields> {
        Some(CountFields {
            tree: TreeFields::read(r, id_bits)?,
            total: r.read(id_bits)?,
            sub: r.read(id_bits)?,
        })
    }
}

/// Honest count fields rooted at `root` (BFS tree + subtree sizes).
/// Returns `None` exactly when [`try_honest_tree_fields`] does.
pub fn try_honest_count_fields(instance: &Instance<'_>, root: NodeId) -> Option<Vec<CountFields>> {
    let g = instance.graph();
    let n = g.num_nodes() as u64;
    let fields = try_honest_tree_fields(instance, root)?;
    let parent = traversal::bfs_parents(g, root);
    let dist = traversal::bfs_distances(g, root);
    let mut size = vec![1u64; g.num_nodes()];
    let mut order: Vec<NodeId> = g.nodes().collect();
    order.sort_by_key(|v| std::cmp::Reverse(dist[v.0]));
    for v in order {
        if let Some(p) = parent[v.0] {
            size[p.0] += size[v.0];
        }
    }
    Some(
        g.nodes()
            .map(|v| CountFields {
                tree: fields[v.0],
                total: n,
                sub: size[v.0],
            })
            .collect(),
    )
}

/// Verifies count fields at one vertex, with a caller-supplied reader of
/// the count fields in a decoded certificate (so composite certificates
/// can embed them anywhere). Returns the own fields on success.
///
/// # Errors
///
/// The [`RejectReason`] for the first failed check: malformed own or
/// neighbor fields, a broken tree position, a root/total copy
/// disagreement, or subtree arithmetic that does not add up.
pub fn verify_count_fields<D>(
    view: &DecodedView<'_, D>,
    extract: impl Fn(&D) -> Option<CountFields>,
) -> Result<CountFields, RejectReason> {
    let mine = extract(view.own).ok_or(RejectReason::MalformedCertificate)?;
    verify_tree_position(view, &mine.tree, |d| extract(d).map(|f| f.tree))?;
    let mut children_sum = 0u64;
    for (nid, _, decoded) in view.neighbors() {
        let nf = extract(decoded).ok_or(RejectReason::MalformedNeighborCertificate)?;
        if nf.tree.root != mine.tree.root {
            return Err(RejectReason::RootMismatch);
        }
        if nf.total != mine.total {
            return Err(RejectReason::CopyMismatch);
        }
        if nf.tree.parent == view.id && nid != mine.tree.parent {
            if nf.tree.dist != mine.tree.dist + 1 {
                return Err(RejectReason::ParentDistanceClash);
            }
            children_sum = children_sum.saturating_add(nf.sub);
        }
    }
    if mine.sub != children_sum + 1 {
        return Err(RejectReason::CounterMismatch);
    }
    if view.id == mine.tree.root && mine.sub != mine.total {
        return Err(RejectReason::CounterMismatch);
    }
    Ok(mine)
}

/// Certifies the number of vertices (Proposition 3.4, second part):
/// spanning-tree fields plus `(claimed n, subtree size)` per vertex.
#[derive(Debug)]
pub struct VertexCountScheme {
    id_bits: u32,
    /// The count the verifier insists on; `None` certifies *some*
    /// consistent count (callers embed the claimed count elsewhere).
    pub expected: Option<u64>,
}

impl VertexCountScheme {
    /// Certifies that the graph has exactly `expected` vertices.
    pub fn new(id_bits: u32, expected: u64) -> Self {
        VertexCountScheme {
            id_bits,
            expected: Some(expected),
        }
    }

    /// Certifies a consistent count without pinning its value.
    pub fn any_count(id_bits: u32) -> Self {
        VertexCountScheme {
            id_bits,
            expected: None,
        }
    }
}

impl Prover for VertexCountScheme {
    fn assign(&self, instance: &Instance<'_>) -> Result<Assignment, ProverError> {
        let _span = locert_trace::span!("core.schemes.vertex_count.prover");
        let g = instance.graph();
        let n = g.num_nodes() as u64;
        if self.expected.is_some_and(|e| e != n) {
            return Err(ProverError::NotAYesInstance);
        }
        let fields =
            try_honest_count_fields(instance, NodeId(0)).ok_or(ProverError::NotAYesInstance)?;
        Ok(Assignment::write_each(fields.len(), |v, w| {
            fields[v.0].write(w, self.id_bits);
        }))
    }
}

impl Decode for VertexCountScheme {
    type Decoded = Option<CountFields>;
    type Cache = ();

    fn decode(&self, cert: &Certificate, _: &()) -> Option<CountFields> {
        CountFields::read(&mut BitReader::new(cert), self.id_bits)
    }

    fn decide_decoded(
        &self,
        view: &DecodedView<'_, Option<CountFields>>,
    ) -> Result<(), RejectReason> {
        let mine = verify_count_fields(view, |f| *f)?;
        if self.expected.is_some_and(|e| mine.total != e) {
            return Err(RejectReason::CounterMismatch);
        }
        Ok(())
    }
}

impl Scheme for VertexCountScheme {
    fn name(&self) -> String {
        "vertex-count".into()
    }

    fn declared_bound(&self) -> DeclaredBound {
        // Prop 3.4: tree fields plus two counters, all O(log n).
        DeclaredBound::LogN
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attacks;
    use crate::framework::{run_scheme, run_verification};
    use crate::schemes::common::id_bits_for;
    use locert_graph::{generators, IdAssignment};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn spanning_tree_completeness() {
        let mut rng = StdRng::seed_from_u64(71);
        for n in [1usize, 2, 5, 20] {
            let g = generators::random_connected(n, n / 2, &mut rng);
            let ids = IdAssignment::shuffled(n, &mut rng);
            let inst = Instance::new(&g, &ids);
            let scheme = SpanningTreeScheme::new(id_bits_for(&inst));
            let out = run_scheme(&scheme, &inst).unwrap();
            assert!(out.accepted(), "n = {n}");
            assert!(out.max_bits() <= 3 * id_bits_for(&inst) as usize);
        }
    }

    #[test]
    fn spanning_tree_rejects_forged_second_root() {
        let g = generators::path(4);
        let ids = IdAssignment::contiguous(4);
        let inst = Instance::new(&g, &ids);
        let scheme = SpanningTreeScheme::new(id_bits_for(&inst));
        let mut asg = scheme.assign(&inst).unwrap();
        // Forge vertex 3's certificate to claim dist 0.
        let mut w = BitWriter::new();
        TreeFields {
            root: Ident(1),
            dist: 0,
            parent: Ident(4),
        }
        .write(&mut w, id_bits_for(&inst));
        *asg.cert_mut(NodeId(3)) = w.finish();
        assert!(!run_verification(&scheme, &inst, &asg).accepted());
    }

    #[test]
    fn spanning_tree_mutation_attacks_rejected() {
        let g = generators::cycle(6);
        let ids = IdAssignment::contiguous(6);
        let inst = Instance::new(&g, &ids);
        let scheme = SpanningTreeScheme::new(id_bits_for(&inst));
        let base = scheme.assign(&inst).unwrap();
        let mut rng = StdRng::seed_from_u64(72);
        // Mutations of a valid assignment must never *forge a different
        // tree silently*: here we attack the verifier on the same (yes)
        // instance, so acceptance is fine; instead check distance forgery.
        let mut bad = base.clone();
        let c = bad.cert(NodeId(3)).clone();
        // Flip a bit inside the dist field (bits id_bits..2*id_bits).
        let b = id_bits_for(&inst) as usize;
        *bad.cert_mut(NodeId(3)) = c.with_bit_flipped(b + 1);
        assert!(!run_verification(&scheme, &inst, &bad).accepted());
        let _ = &mut rng;
    }

    #[test]
    fn root_predicate_scheme() {
        // Certify "some vertex dominates": point the tree at it, root
        // checks its degree.
        let make = |id_bits: u32, n: usize| {
            SpanningTreeScheme::with_root_predicate(
                id_bits,
                move |inst| {
                    inst.graph()
                        .nodes()
                        .find(|&v| inst.graph().degree(v) == inst.graph().num_nodes() - 1)
                },
                move |_, degree| degree == n - 1,
            )
        };
        let g = generators::star(6);
        let ids = IdAssignment::contiguous(6);
        let inst = Instance::new(&g, &ids);
        let scheme = make(id_bits_for(&inst), 6);
        assert!(run_scheme(&scheme, &inst).unwrap().accepted());
        // A path has no dominator: prover refuses.
        let p = generators::path(6);
        let inst2 = Instance::new(&p, &ids);
        let scheme2 = make(id_bits_for(&inst2), 6);
        assert_eq!(
            run_scheme(&scheme2, &inst2).unwrap_err(),
            ProverError::NotAYesInstance
        );
    }

    #[test]
    fn vertex_count_completeness_and_exactness() {
        let mut rng = StdRng::seed_from_u64(73);
        for n in [1usize, 3, 8, 17] {
            let g = generators::random_connected(n, 2, &mut rng);
            let ids = IdAssignment::shuffled(n, &mut rng);
            let inst = Instance::new(&g, &ids);
            let good = VertexCountScheme::new(id_bits_for(&inst), n as u64);
            assert!(run_scheme(&good, &inst).unwrap().accepted(), "n = {n}");
            let wrong = VertexCountScheme::new(id_bits_for(&inst), n as u64 + 1);
            assert_eq!(
                run_scheme(&wrong, &inst).unwrap_err(),
                ProverError::NotAYesInstance
            );
        }
    }

    #[test]
    fn vertex_count_rejects_inflated_total() {
        // Replay honest certs but with the total field bumped everywhere
        // is impossible without breaking subtree sums; test a manual
        // inflation.
        let g = generators::path(5);
        let ids = IdAssignment::contiguous(5);
        let inst = Instance::new(&g, &ids);
        let honest = VertexCountScheme::new(id_bits_for(&inst), 5);
        let base = honest.assign(&inst).unwrap();
        // The verifier pinned to 6 must reject the honest assignment.
        let pinned6 = VertexCountScheme::new(id_bits_for(&inst), 6);
        assert!(!run_verification(&pinned6, &inst, &base).accepted());
        // And random assignments cannot fool it.
        let mut rng = StdRng::seed_from_u64(74);
        assert!(attacks::random_assignments(&pinned6, &inst, 15, &mut rng, 300).is_none());
    }

    #[test]
    fn vertex_count_exhaustive_soundness_tiny() {
        // P_2 with ids {1,2}: certificates up to 3 bits cannot fake
        // "n = 3".
        let g = generators::path(2);
        let ids = IdAssignment::contiguous(2);
        let inst = Instance::new(&g, &ids);
        let pinned = VertexCountScheme::new(2, 3);
        let res = attacks::exhaustive_soundness(&pinned, &inst, 3, 10_000_000);
        assert!(res.is_ok(), "found fooling assignment: {res:?}");
    }

    #[test]
    fn disconnected_instance_is_a_typed_refusal_not_a_panic() {
        // Regression: both provers used to panic on "connected instance"
        // when handed a disconnected graph.
        let g = locert_graph::Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        let ids = IdAssignment::contiguous(4);
        let inst = Instance::new(&g, &ids);
        let tree = SpanningTreeScheme::new(id_bits_for(&inst));
        assert_eq!(
            run_scheme(&tree, &inst).unwrap_err(),
            ProverError::NotAYesInstance
        );
        let count = VertexCountScheme::new(id_bits_for(&inst), 4);
        assert_eq!(
            run_scheme(&count, &inst).unwrap_err(),
            ProverError::NotAYesInstance
        );
        assert!(try_honest_tree_fields(&inst, NodeId(0)).is_none());
        assert!(try_honest_count_fields(&inst, NodeId(0)).is_none());
    }

    #[test]
    fn empty_instance_is_a_typed_refusal_not_a_panic() {
        // Regression: VertexCountScheme rooted the tree at NodeId(0),
        // which does not exist in the empty graph.
        let g = locert_graph::Graph::empty(0);
        let ids = IdAssignment::contiguous(0);
        let inst = Instance::new(&g, &ids);
        let count = VertexCountScheme::new(4, 0);
        assert_eq!(
            run_scheme(&count, &inst).unwrap_err(),
            ProverError::NotAYesInstance
        );
        assert!(try_honest_tree_fields(&inst, NodeId(0)).is_none());
    }

    #[test]
    fn subtree_sizes_forgery_rejected() {
        let g = generators::star(5);
        let ids = IdAssignment::contiguous(5);
        let inst = Instance::new(&g, &ids);
        let scheme = VertexCountScheme::new(id_bits_for(&inst), 5);
        let mut asg = scheme.assign(&inst).unwrap();
        // Tamper with a leaf's subtree size field (last id_bits bits).
        let b = id_bits_for(&inst);
        let cert = asg.cert(NodeId(2)).clone();
        *asg.cert_mut(NodeId(2)) = cert.with_bit_flipped(4 * b as usize);
        assert!(!run_verification(&scheme, &inst, &asg).accepted());
    }
}
