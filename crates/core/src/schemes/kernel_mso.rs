//! FO/MSO certification on bounded-treedepth graphs via certified
//! kernelization (Theorem 2.6, Propositions 6.2–6.4).
//!
//! The certificate of a vertex at depth `m` of a coherent `t`-model
//! extends the Theorem 2.4 treedepth certificate with
//!
//! 1. one *pruned* flag per ancestor (including the vertex itself):
//!    whether that ancestor's subtree was pruned during the `k`-reduction;
//! 2. one *end type* per ancestor (Section 6.1), coded as an index into
//! 3. a serialized *type table* — the interned `(ancestor vector,
//!    children-type multiset)` data of every end type, identical at every
//!    vertex. Its size depends only on `k` and `t` (Proposition 6.2), not
//!    on `n`.
//!
//! Verification (Proposition 6.4): the treedepth checks; table equality
//! with neighbors; each vertex audits its own end type — the ancestor
//! vector against its actual adjacency (it sees its ancestors' ids), and
//! the children-type multiset against the types reported by the visible
//! members of its children's subtrees (coherence, enforced by the exit
//! checks of Theorem 2.4, guarantees every child is visible); a pruned
//! child must leave exactly `k` kept siblings of its type (Lemma 6.1).
//! Finally every vertex *expands the root's end type into the kernel
//! graph `H`* — a constant-size description — and checks `H ⊨ φ`, which
//! by `G ≃_k H` (Proposition 6.3) decides `G ⊨ φ`.

use crate::bits::{width_for, BitReader, BitWriter, Certificate};
use crate::framework::{
    with_scratch, Assignment, DeclaredBound, Decode, DecodedView, Held, Instance, Memo, Prover,
    ProverError, RejectReason, Scheme, Shared, Verifier,
};
use crate::schemes::treedepth::{
    ancestors, check_own_td, check_td_edges, model_for, read_len, read_words, record_words,
    HonestTd, ModelStrategy, Td, TdCert, TdRef,
};
use locert_graph::{Graph, Ident, NodeId};
use locert_kernel::{k_reduce, TypeId};
use locert_logic::depth::{is_fo, quantifier_depth};
use locert_logic::eval::models;
use locert_logic::Formula;
use locert_treedepth::EliminationTree;
use std::sync::{Arc, OnceLock};

/// A fast decision procedure for `φ` on expanded kernels (see
/// [`KernelMsoScheme::with_evaluator`]). `Send + Sync` because verifiers
/// run concurrently across vertices (`locert-par`).
pub type KernelEvaluator = Box<dyn Fn(&Graph) -> bool + Send + Sync>;

/// Hard cap on the expanded kernel size a verifier will accept; beyond it
/// the certificate is rejected (the bound `f(t, φ)` is a constant for
/// fixed parameters, so honest certificates at experiment scale stay far
/// below).
pub const KERNEL_EXPANSION_CAP: usize = 4000;

/// One serialized type-table entry.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SerType {
    /// Depth of vertices carrying this type.
    pub depth: usize,
    /// Adjacency to the ancestors at depths `0..depth`.
    pub anc: Vec<bool>,
    /// Children-type multiset: (type index, multiplicity).
    pub children: Vec<(u32, usize)>,
}

/// The serialized table.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct SerTable {
    /// Entries indexed by type id.
    pub types: Vec<SerType>,
}

impl SerTable {
    fn type_bits(&self) -> u32 {
        width_for(self.types.len().max(1) as u64 - 1)
    }

    fn write(&self, w: &mut BitWriter, t: usize, k: usize) {
        w.write(self.types.len() as u64, 12);
        let tb = self.type_bits();
        let db = width_for(t as u64);
        let mb = width_for(k as u64);
        for ty in &self.types {
            w.write(ty.depth as u64, db);
            for &b in &ty.anc {
                w.write_bit(b);
            }
            w.write(ty.children.len() as u64, 8);
            for &(child, mult) in &ty.children {
                w.write(child as u64, tb);
                w.write(mult as u64, mb);
            }
        }
    }

    fn read(r: &mut BitReader<'_>, t: usize, k: usize) -> Option<SerTable> {
        let count = r.read(12)? as usize;
        let tb = width_for(count.max(1) as u64 - 1);
        let db = width_for(t as u64);
        let mb = width_for(k as u64);
        let mut types = Vec::with_capacity(count);
        for _ in 0..count {
            let depth = r.read(db)? as usize;
            if depth >= t {
                return None;
            }
            let mut anc = Vec::with_capacity(depth);
            for _ in 0..depth {
                anc.push(r.read_bit()?);
            }
            let n_children = r.read(8)? as usize;
            let mut children = Vec::with_capacity(n_children);
            for _ in 0..n_children {
                let child = r.read(tb)? as u32;
                let mult = r.read(mb)? as usize;
                children.push((child, mult));
            }
            types.push(SerType {
                depth,
                anc,
                children,
            });
        }
        Some(SerTable { types })
    }

    /// Structural well-formedness: references in range, multiplicities in
    /// `1..=k`, children one level deeper, children lists strictly sorted
    /// by type id (canonical form, so equal tables have equal bits), no
    /// duplicate entries (so a type id is determined by its data).
    fn well_formed(&self, k: usize) -> bool {
        let n = self.types.len();
        let mut seen = std::collections::HashSet::new();
        for ty in &self.types {
            if !seen.insert(ty) {
                return false;
            }
            let mut last_child: Option<u32> = None;
            for &(child, mult) in &ty.children {
                if child as usize >= n || mult == 0 || mult > k {
                    return false;
                }
                if self.types[child as usize].depth != ty.depth + 1 {
                    return false;
                }
                if last_child.is_some_and(|l| l >= child) {
                    return false;
                }
                last_child = Some(child);
            }
        }
        true
    }

    /// Expands `root` into the kernel graph. Returns `None` when the
    /// expansion exceeds `cap` vertices or the root has non-zero depth.
    pub fn expand(&self, root: u32, cap: usize) -> Option<Graph> {
        if self.types.get(root as usize)?.depth != 0 {
            return None;
        }
        // Nodes: (type, ancestor node indices root→parent).
        let mut node_types: Vec<u32> = vec![root];
        let mut ancestors: Vec<Vec<usize>> = vec![vec![]];
        let mut edges: Vec<(usize, usize)> = Vec::new();
        let mut queue = std::collections::VecDeque::from([0usize]);
        while let Some(node) = queue.pop_front() {
            let ty = &self.types[node_types[node] as usize];
            // Edges to ancestors per the ancestor vector.
            for (j, &adj) in ty.anc.iter().enumerate() {
                if adj {
                    edges.push((ancestors[node][j], node));
                }
            }
            for &(child_ty, mult) in &ty.children {
                for _ in 0..mult {
                    let idx = node_types.len();
                    if idx >= cap {
                        return None;
                    }
                    node_types.push(child_ty);
                    let mut chain = ancestors[node].clone();
                    chain.push(node);
                    ancestors.push(chain);
                    queue.push_back(idx);
                }
            }
        }
        Graph::from_edges(node_types.len(), edges).ok()
    }
}

/// Parsed kernel-MSO certificate, its fields in one allocation.
pub struct KernelCert {
    /// The treedepth layer; its tail holds one mark per ancestor,
    /// aligned with the ancestors ([`mark`]).
    td: TdCert,
    /// The type table (the certificate suffix after the end types). A
    /// table is a function of `(t, φ)` and the certified graph's
    /// structure (a block's, for `C_t`) only, never of identifiers, so in
    /// an honest run the vertices of a graph share one entry. Two parsed
    /// tables are equal iff their bits are: every field's width is fixed
    /// by `(t, k)` and the fields before it, and the parse must consume
    /// the bits exactly.
    pub(crate) table: Arc<Shared<ParsedTable>>,
}

impl KernelCert {
    /// The certificate borrowed.
    pub(crate) fn as_ref(&self) -> KernelRef<'_> {
        KernelRef {
            td: self.td.as_ref(),
            table: &self.table,
        }
    }
}

/// A kernel certificate borrowed from the decode that holds it: a
/// [`KernelCert`], or one block of a `C_t` certificate.
#[derive(Clone, Copy)]
pub(crate) struct KernelRef<'a> {
    /// The treedepth layer, one mark per ancestor in its tail.
    pub(crate) td: TdRef<'a>,
    pub(crate) table: &'a Arc<Shared<ParsedTable>>,
}

impl<'a> KernelRef<'a> {
    /// The certificate whose words [`KernelMsoScheme::read_into`] pushed
    /// as `record`, with its table.
    pub(crate) fn at(record: &'a [Ident], table: &'a Arc<Shared<ParsedTable>>) -> Self {
        KernelRef {
            td: Td::with_tail(record, MARK_WORDS),
            table,
        }
    }

    /// One word per ancestor: its end type and pruned flag ([`mark`]).
    fn marks(&self) -> &[Ident] {
        self.td.tail()
    }
}

/// The words per ancestor a kernel record keeps after its treedepth
/// words: the ancestor's mark.
const MARK_WORDS: usize = 1;

/// An ancestor's end type and pruned flag, kept as one word (the type
/// above the flag bit) so they sit with the treedepth words.
fn mark(word: Ident) -> (u32, bool) {
    ((word.0 >> 1) as u32, word.0 & 1 == 1)
}

/// Reads, after a list of `len` ancestors, the pruned flags and end
/// types onto `words`, one mark per ancestor ([`mark`]), checking each
/// type against the table's type count, which it returns.
fn read_marks(r: &mut BitReader<'_>, len: usize, words: &mut Vec<Ident>) -> Option<usize> {
    let base = words.len();
    for _ in 0..len {
        words.push(Ident(u64::from(r.read_bit()?)));
    }
    // The type-id field width is set by the count, which sits in the
    // table at the end; write the count redundantly before the types.
    let count = r.read(12)? as usize;
    let tb = width_for(count.max(1) as u64 - 1);
    for word in &mut words[base..] {
        let ty = r.read(tb)?;
        if ty as usize >= count {
            return None;
        }
        word.0 |= ty << 1;
    }
    Some(count)
}

/// A parsed type table and what follows from the table alone.
pub struct ParsedTable {
    table: SerTable,
    well_formed: bool,
    /// Whether the expansion of each root type satisfies φ, indexed by
    /// type and computed by the first vertex that needs it.
    phi: Vec<OnceLock<bool>>,
}

/// The identifier-free part of an honest kernel assignment: the coherent
/// model, its `k`-reduction and the serialized table, which passed the φ
/// gate. It is a function of the graph (and the scheme's parameters)
/// alone, so graphs with equal CSR arrays share one shape.
pub(crate) struct KernelShape {
    pub(crate) model: EliminationTree,
    pruned: Vec<bool>,
    end_type: Vec<TypeId>,
    /// The number of types in the table and the width of a type index.
    types: usize,
    type_bits: u32,
    /// The table serialized once: every certificate ends with these bits.
    table: Certificate,
}

/// Certifies an FO sentence on graphs of treedepth ≤ `t` (Theorem 2.6).
pub struct KernelMsoScheme {
    id_bits: u32,
    t: usize,
    k: usize,
    formula: Formula,
    strategy: ModelStrategy,
    /// Optional fast decision procedure for `φ` on the expanded kernel,
    /// replacing the brute-force FO evaluator. **Must be semantically
    /// equivalent to `φ`** — used e.g. by `P_t`-minor-freeness, where the
    /// sentence `¬∃x₁…x_t path` has quantifier depth `t` and brute-force
    /// evaluation is `|H|^t`, while a bounded path search is cheap.
    evaluator: Option<KernelEvaluator>,
}

impl std::fmt::Debug for KernelMsoScheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KernelMsoScheme")
            .field("id_bits", &self.id_bits)
            .field("t", &self.t)
            .field("k", &self.k)
            .field("formula", &self.formula.to_string())
            .field("has_custom_evaluator", &self.evaluator.is_some())
            .finish()
    }
}

impl KernelMsoScheme {
    /// Builds the scheme for an FO sentence `phi` on graphs of treedepth
    /// at most `t`. The reduction parameter `k` is `phi`'s quantifier
    /// depth.
    ///
    /// Returns `None` if `phi` is not a closed FO formula. (MSO sentences
    /// are handled by first translating to FO on bounded-treedepth
    /// classes, per Theorem 3.2 — the translation itself is outside this
    /// crate's scope.)
    pub fn new(id_bits: u32, t: usize, phi: Formula) -> Option<Self> {
        if !is_fo(&phi) || !phi.is_sentence() {
            return None;
        }
        let k = quantifier_depth(&phi).max(1);
        Some(KernelMsoScheme {
            id_bits,
            t,
            k,
            formula: phi,
            strategy: ModelStrategy::Auto,
            evaluator: None,
        })
    }

    /// Overrides the prover's model strategy.
    pub fn with_strategy(mut self, strategy: ModelStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Installs a fast kernel evaluator equivalent to `φ` (see the field
    /// docs; the caller owns the equivalence proof).
    pub fn with_evaluator(
        mut self,
        evaluator: impl Fn(&Graph) -> bool + Send + Sync + 'static,
    ) -> Self {
        self.evaluator = Some(Box::new(evaluator));
        self
    }

    /// The reduction parameter `k` (the formula's quantifier depth).
    pub fn k(&self) -> usize {
        self.k
    }

    /// Parses `cert` with a memo of its own.
    #[cfg(test)]
    fn parse(&self, cert: &Certificate) -> Option<KernelCert> {
        self.decode(BitReader::new(cert), &Memo::default())
    }

    /// Reads the certificate in `r` onto `words` as one record (the
    /// treedepth words, then one mark per ancestor; [`KernelRef::at`]
    /// reads it back), taking its table through `memo`, which it returns.
    /// On `None` the certificate does not parse and `words` may hold part
    /// of it.
    pub(crate) fn read_into(
        &self,
        memo: &Memo<ParsedTable>,
        mut r: BitReader<'_>,
        words: &mut Vec<Ident>,
    ) -> Option<Arc<Shared<ParsedTable>>> {
        let len = read_len(&mut r, self.t)?;
        read_words(&mut r, self.id_bits, len, words)?;
        let count = read_marks(&mut r, len, words)?;
        self.read_table(memo, r, count)
    }

    /// The table in the bits left in `r`, taken through `memo`, if it
    /// parses to `count` types.
    fn read_table(
        &self,
        memo: &Memo<ParsedTable>,
        r: BitReader<'_>,
        count: usize,
    ) -> Option<Arc<Shared<ParsedTable>>> {
        let table = memo.get(r, |bits| self.parse_table(bits));
        let types = self.table(&table)?.table.types.len();
        (types == count).then_some(table)
    }

    /// The parse of a table entry, kept or made again.
    fn table<'a>(&self, entry: &'a Shared<ParsedTable>) -> Option<Held<'a, ParsedTable>> {
        entry.parsed(|bits| self.parse_table(bits))
    }

    /// Parses the table `bits`, which it must consume exactly, and
    /// derives what depends on the table alone.
    fn parse_table(&self, bits: &Certificate) -> Option<ParsedTable> {
        let mut r = BitReader::new(bits);
        let table = SerTable::read(&mut r, self.t, self.k)?;
        r.exhausted().then(|| ParsedTable {
            well_formed: table.well_formed(self.k),
            phi: table.types.iter().map(|_| OnceLock::new()).collect(),
            table,
        })
    }

    /// Whether the expansion of `root` is a non-empty kernel within
    /// [`KERNEL_EXPANSION_CAP`] that satisfies φ.
    fn kernel_satisfies_phi(&self, table: &SerTable, root: u32) -> bool {
        table.expand(root, KERNEL_EXPANSION_CAP).is_some_and(|h| {
            h.num_nodes() > 0
                && match &self.evaluator {
                    Some(f) => f(&h),
                    None => models(&h, &self.formula),
                }
        })
    }

    /// The shape of `g`'s honest assignment: model, `k`-reduction,
    /// serialized table, and the completeness gate, which checks φ on the
    /// expanded kernel — the same object the verifier will inspect.
    ///
    /// # Errors
    ///
    /// [`ProverError::NotAYesInstance`] when φ fails on the kernel (or the
    /// DFS model is too deep); [`ProverError::WitnessUnavailable`] when no
    /// model or table can be built.
    pub(crate) fn shape(&self, g: &Graph) -> Result<KernelShape, ProverError> {
        let model = model_for(g, self.t, &self.strategy)?;
        let red = k_reduce(g, &model, self.k);
        // Serialize the type table.
        let table = SerTable {
            types: (0..red.types.len())
                .map(|i| {
                    let data = red.types.get(TypeId(i as u32));
                    SerType {
                        depth: data.ancestors.len(),
                        anc: data.ancestors.clone(),
                        children: data.children.iter().map(|&(TypeId(c), m)| (c, m)).collect(),
                    }
                })
                .collect(),
        };
        if table.types.len() >= (1 << 12) {
            return Err(ProverError::WitnessUnavailable(
                "type table exceeds the 12-bit index space".into(),
            ));
        }
        let root_type = red.end_type[model.root().0];
        if !self.kernel_satisfies_phi(&table, root_type.0) {
            return Err(ProverError::NotAYesInstance);
        }
        let mut w = BitWriter::new();
        table.write(&mut w, self.t, self.k);
        Ok(KernelShape {
            model,
            pruned: red.pruned,
            end_type: red.end_type,
            types: table.types.len(),
            type_bits: table.type_bits(),
            table: w.finish(),
        })
    }

    /// Writes `v`'s certificate of `shape`, whose model `td` was last
    /// filled with, under the naming `ident`. `shape` must be the shape of
    /// the certified graph, or of a graph with equal CSR arrays.
    pub(crate) fn stamp(
        &self,
        w: &mut BitWriter,
        v: NodeId,
        shape: &KernelShape,
        td: &HonestTd,
        ident: impl Fn(NodeId) -> Ident,
    ) {
        self.stamp_local(w, v, shape, td, ident);
        w.component("kernel-table");
        w.write_cert(&shape.table);
    }

    /// [`KernelMsoScheme::stamp`] without the trailing table: `v`'s
    /// local certificate in the global+local split.
    fn stamp_local(
        &self,
        w: &mut BitWriter,
        v: NodeId,
        shape: &KernelShape,
        td: &HonestTd,
        ident: impl Fn(NodeId) -> Ident,
    ) {
        let KernelShape {
            model,
            pruned,
            end_type,
            types,
            type_bits,
            table: _,
        } = shape;
        td.write(w, v, model, ident, self.id_bits, self.t);
        w.component("pruned-flags");
        for a in ancestors(model, v) {
            w.write_bit(pruned[a.0]);
        }
        w.component("end-types");
        w.write(*types as u64, 12);
        for a in ancestors(model, v) {
            w.write(end_type[a.0].0 as u64, *type_bits);
        }
    }
}

impl Prover for KernelMsoScheme {
    fn assign(&self, instance: &Instance<'_>) -> Result<Assignment, ProverError> {
        let _span = locert_trace::span!("core.schemes.kernel_mso.prover");
        let g = instance.graph();
        let ids = instance.ids();
        let shape = self.shape(g)?;
        let mut td = HonestTd::default();
        td.fill(g, |v| ids.ident(v), &shape.model);
        Ok(Assignment::write_each(g.num_nodes(), |v, w| {
            self.stamp(w, v, &shape, &td, |a| ids.ident(a));
        }))
    }
}

impl Decode for KernelMsoScheme {
    type Decoded = Option<KernelCert>;
    /// Each distinct table is parsed and checked once per run, and φ
    /// evaluated once per (table, root type), rather than once per
    /// vertex and neighbor.
    type Cache = Memo<ParsedTable>;

    fn decode(&self, r: BitReader<'_>, memo: &Memo<ParsedTable>) -> Option<KernelCert> {
        // The list length, read ahead, sizes the record's one allocation.
        let len = read_len(&mut r.clone(), self.t)?;
        let mut words = Vec::with_capacity(record_words(len, MARK_WORDS));
        let table = self.read_into(memo, r, &mut words)?;
        let td = Td::with_tail(words.into_boxed_slice(), MARK_WORDS);
        Some(KernelCert { td, table })
    }

    fn decide_decoded(
        &self,
        view: &DecodedView<'_, Option<KernelCert>>,
    ) -> Result<(), RejectReason> {
        let nbrs = view
            .neighbors()
            .map(|(nid, _, decoded)| (nid, decoded.as_ref().map(KernelCert::as_ref)));
        self.decide_ref(view.id, view.own.as_ref().map(KernelCert::as_ref), nbrs)
    }
}

impl KernelMsoScheme {
    /// The decision of the vertex `id` whose certificate is `own`, given
    /// each neighbor's identifier and certificate (`None` when it does
    /// not parse), wherever the decodes are kept.
    pub(crate) fn decide_ref<'a>(
        &self,
        id: Ident,
        own: Option<KernelRef<'_>>,
        nbrs: impl Iterator<Item = (Ident, Option<KernelRef<'a>>)> + Clone,
    ) -> Result<(), RejectReason> {
        // 1. Treedepth layer, on the decodes the kernel-layer checks
        //    below reuse.
        let mine = own.ok_or(RejectReason::MalformedCertificate)?;
        check_own_td(id, mine.td, self.t)?;
        if nbrs.clone().any(|(_, decoded)| decoded.is_none()) {
            return Err(RejectReason::MalformedNeighborCertificate);
        }
        let decoded = nbrs.clone().filter_map(|(_, decoded)| decoded);
        check_td_edges(id, mine.td, decoded.clone().map(|nc| nc.td))?;
        let td = mine.td;
        let m = td.depth();
        let marks = mine.marks();
        // 2. Table integrity.
        let parsed = self
            .table(mine.table)
            .ok_or(RejectReason::MalformedCertificate)?;
        if !parsed.well_formed {
            return Err(RejectReason::MalformedCertificate);
        }
        let table = &parsed.table;
        // 3. Identical tables; shared-ancestor types and flags agree.
        for nc in decoded.clone() {
            if !Arc::ptr_eq(nc.table, mine.table) && nc.table.bits() != mine.table.bits() {
                return Err(RejectReason::CopyMismatch);
            }
            let theirs = nc.marks();
            let shared = marks.len().min(theirs.len());
            if marks[marks.len() - shared..] != theirs[theirs.len() - shared..] {
                return Err(RejectReason::CopyMismatch);
            }
        }
        // 4. Each carried type sits at the right depth.
        for (i, &word) in marks.iter().enumerate() {
            let depth = m - i;
            if table.types[mark(word).0 as usize].depth != depth {
                return Err(RejectReason::AutomatonStateClash);
            }
        }
        // 5. My own type's ancestor vector against my real adjacency.
        let my_type = &table.types[mark(marks[0]).0 as usize];
        for j in 0..m {
            let anc_id = td.ancestors()[m - j];
            if my_type.anc[j] != nbrs.clone().any(|(nid, _)| nid == anc_id) {
                return Err(RejectReason::AdjacencyMismatch);
            }
        }
        // 6. Children audit: collect (child id, (type, flag)) from
        //    strict descendants among my neighbors. A sorted vector
        //    replaces the per-vertex HashMap: duplicates are adjacent
        //    after the sort, and the declared children list is already
        //    in canonical sorted order (`well_formed`), so the multiset
        //    comparison is a linear slice walk.
        with_scratch(|children: &mut Vec<(u64, (u32, bool))>| {
            for nc in decoded.clone() {
                let nm = nc.td.depth();
                if nm < m + 1 {
                    continue;
                }
                // Strict descendant iff my list is a proper suffix of
                // theirs (already guaranteed comparable by the td layer).
                let off = nm - m;
                if nc.td.ancestors()[off..] != *td.ancestors() {
                    continue;
                }
                let child_idx = off - 1; // their ancestor at depth m + 1.
                let child_id = nc.td.ancestors()[child_idx].value();
                children.push((child_id, mark(nc.marks()[child_idx])));
            }
            children.sort_unstable();
            for w in children.windows(2) {
                if w[0].0 == w[1].0 && w[0].1 != w[1].1 {
                    return Err(RejectReason::CopyMismatch);
                }
            }
            children.dedup();
            // Multiset of kept-children types, as sorted (type, count)
            // runs: kept children first, each group sorted by type.
            children.sort_unstable_by_key(|&(_, (ty, pruned))| (pruned, ty));
            let kept = children.partition_point(|&(_, (_, pruned))| !pruned);
            let kept_counts = children[..kept]
                .chunk_by(|a, b| a.1 .0 == b.1 .0)
                .map(|run| (run[0].1 .0, run.len()));
            if !kept_counts.eq(my_type.children.iter().copied()) {
                return Err(RejectReason::CounterMismatch);
            }
            // Lemma 6.1: every pruned child type has exactly k kept
            // siblings.
            for &(_, (ty, _)) in &children[kept..] {
                let declared = my_type
                    .children
                    .binary_search_by_key(&ty, |&(c, _)| c)
                    .ok()
                    .map(|i| my_type.children[i].1);
                if declared != Some(self.k) {
                    return Err(RejectReason::CounterMismatch);
                }
            }
            Ok(())
        })?;
        // 7. The kernel satisfies φ (the list is non-empty by parse).
        let root_type = mark(marks[m]).0;
        let holds = parsed.phi[root_type as usize]
            .get_or_init(|| self.kernel_satisfies_phi(table, root_type));
        if *holds {
            Ok(())
        } else {
            Err(RejectReason::NotAccepting)
        }
    }
}

impl Scheme for KernelMsoScheme {
    fn name(&self) -> String {
        format!("kernel-mso[t={}, k={}]", self.t, self.k)
    }

    fn declared_bound(&self) -> DeclaredBound {
        // Theorem 2.6: O(t log n) treedepth layer + f(t, φ) table.
        DeclaredBound::PolyTdLogN { td: self.t as u32 }
    }
}

/// The global+local variant of the paper's Section 7.1 remark (and
/// \[27]): vertices receive one **shared global certificate** — here the
/// constant-size type table — plus short local certificates (the
/// Theorem 2.4 layer, pruned flags, and type indices).
///
/// Semantics are identical to [`KernelMsoScheme`] (the implementation
/// reconstitutes full certificates by appending the global part, which is
/// exactly where the local-only scheme keeps the table), but the *sizes*
/// split: the `f(t, φ)` table is paid once globally, the per-vertex cost
/// drops to `O(t log n)`.
pub struct KernelMsoGlobalScheme {
    inner: KernelMsoScheme,
}

impl std::fmt::Debug for KernelMsoGlobalScheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KernelMsoGlobalScheme")
            .field("inner", &self.inner)
            .finish()
    }
}

/// Outcome of a global+local run: acceptance and the two size components.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GlobalOutcome {
    /// Whether every vertex accepted.
    pub accepted: bool,
    /// Bits of the shared global certificate.
    pub global_bits: usize,
    /// Maximum bits over the per-vertex local certificates.
    pub max_local_bits: usize,
}

impl KernelMsoGlobalScheme {
    /// Builds the scheme (same parameters as [`KernelMsoScheme::new`]).
    pub fn new(id_bits: u32, t: usize, phi: Formula) -> Option<Self> {
        Some(KernelMsoGlobalScheme {
            inner: KernelMsoScheme::new(id_bits, t, phi)?,
        })
    }

    /// Overrides the prover's model strategy.
    pub fn with_strategy(mut self, strategy: ModelStrategy) -> Self {
        self.inner = self.inner.with_strategy(strategy);
        self
    }

    /// Prover: the shared global certificate (the table) and the
    /// per-vertex locals.
    ///
    /// # Errors
    ///
    /// Same as [`KernelMsoScheme`]'s prover.
    pub fn assign_split(
        &self,
        instance: &Instance<'_>,
    ) -> Result<(Certificate, Assignment), ProverError> {
        let g = instance.graph();
        let ids = instance.ids();
        let shape = self.inner.shape(g)?;
        let mut td = HonestTd::default();
        td.fill(g, |v| ids.ident(v), &shape.model);
        let locals = Assignment::write_each(g.num_nodes(), |v, w| {
            self.inner.stamp_local(w, v, &shape, &td, |a| ids.ident(a));
        });
        Ok((shape.table, locals))
    }

    /// Whether every vertex accepts its local certificate (in `locals`)
    /// glued to the shared global certificate. Stops at the first
    /// rejecting vertex.
    pub fn verify_with_global(
        &self,
        instance: &Instance<'_>,
        locals: &Assignment,
        global: &Certificate,
    ) -> bool {
        let full: Vec<Certificate> = instance
            .graph()
            .nodes()
            .map(|v| {
                let mut w = BitWriter::new();
                w.write_cert(locals.cert(v));
                w.write_cert(global);
                w.finish()
            })
            .collect();
        let prepared = self.inner.prepare(&full);
        instance
            .graph()
            .nodes()
            .all(|v| prepared.decide_at(instance, v, |u| u.0).is_ok())
    }

    /// Runs the full global+local pipeline.
    ///
    /// # Errors
    ///
    /// Propagates the prover's error.
    pub fn run(&self, instance: &Instance<'_>) -> Result<GlobalOutcome, ProverError> {
        let (global, locals) = self.assign_split(instance)?;
        Ok(GlobalOutcome {
            accepted: self.verify_with_global(instance, &locals, &global),
            global_bits: global.len_bits(),
            max_local_bits: locals.max_bits(),
        })
    }
}

/// The kernel scheme's prover and verifier as they stood before shapes
/// and run memos, plus the harness that holds the production paths to
/// them (also used by the minor-freeness tests).
#[cfg(test)]
pub(crate) mod reference {
    use super::*;
    use crate::framework::test_views::{view_of, LocalView};
    use crate::framework::{run_verification_in, Verdict};
    use locert_par::Pool;

    /// The parsed certificate as it stood: flags and types apart, the
    /// table parsed in full at every use.
    struct RefCert {
        td: TdCert,
        flags: Vec<bool>,
        types: Vec<u32>,
        table: SerTable,
    }

    fn parse(s: &KernelMsoScheme, cert: &Certificate) -> Option<RefCert> {
        let mut r = BitReader::new(cert);
        let td = TdCert::read(&mut r, s.id_bits, s.t)?;
        let len = td.ancestors().len();
        let mut flags = Vec::with_capacity(len);
        for _ in 0..len {
            flags.push(r.read_bit()?);
        }
        let count = r.read(12)? as usize;
        let tb = width_for(count.max(1) as u64 - 1);
        let mut types = Vec::with_capacity(len);
        for _ in 0..len {
            let ty = r.read(tb)? as u32;
            if ty as usize >= count {
                return None;
            }
            types.push(ty);
        }
        let table = SerTable::read(&mut r, s.t, s.k)?;
        if table.types.len() != count || !r.exhausted() {
            return None;
        }
        Some(RefCert {
            td,
            flags,
            types,
            table,
        })
    }

    /// The bit length of the table at the end of `cert`, if it parses.
    pub(crate) fn table_bits(s: &KernelMsoScheme, cert: &Certificate) -> Option<usize> {
        let parsed = parse(s, cert)?;
        let mut w = BitWriter::new();
        parsed.table.write(&mut w, s.t, s.k);
        Some(w.len_bits())
    }

    /// The root type and table bits of `cert`, if it parses.
    pub(crate) fn root_and_table(
        s: &KernelMsoScheme,
        cert: &Certificate,
    ) -> Option<(u32, Certificate)> {
        let parsed = parse(s, cert)?;
        let mut w = BitWriter::new();
        parsed.table.write(&mut w, s.t, s.k);
        Some((*parsed.types.last()?, w.finish()))
    }

    /// The honest treedepth certificates as they stood: one `TdCert` per
    /// vertex, a `subtree` and an `ancestors` list allocated per vertex.
    ///
    /// # Panics
    ///
    /// Panics if the model is not coherent (the prover must repair first).
    pub(crate) fn honest_td_certs(instance: &Instance<'_>, model: &EliminationTree) -> Vec<TdCert> {
        let g = instance.graph();
        let ids = instance.ids();
        let tree = model.tree();
        let n = g.num_nodes();
        let mut trees: Vec<Vec<(Ident, u64)>> = (0..n)
            .map(|v| vec![(Ident(0), 0); model.depth(NodeId(v))])
            .collect();
        // For every non-root vertex v: a spanning tree of G_v rooted at the
        // exit vertex, recorded at each member of G_v at tree index
        // depth(v) − 1. Membership marks are epoch-stamped so the scratch
        // arrays are allocated once, not per subtree.
        let mut in_sub = vec![0u64; n];
        let mut epoch = 0u64;
        let mut dist = vec![u64::MAX; n];
        let mut queue = std::collections::VecDeque::new();
        for v in g.nodes() {
            let Some(parent) = tree.parent(v) else {
                continue;
            };
            let members = tree.subtree(v);
            let exit = members
                .iter()
                .copied()
                .find(|&x| g.has_edge(x, parent))
                .expect("coherent model has an exit vertex per subtree");
            // BFS within G_v from the exit.
            epoch += 1;
            for &x in &members {
                in_sub[x.0] = epoch;
                dist[x.0] = u64::MAX;
            }
            dist[exit.0] = 0;
            queue.clear();
            queue.push_back(exit);
            while let Some(x) = queue.pop_front() {
                for &y in g.neighbors(x) {
                    if in_sub[y.0] == epoch && dist[y.0] == u64::MAX {
                        dist[y.0] = dist[x.0] + 1;
                        queue.push_back(y);
                    }
                }
            }
            let j = model.depth(v); // ancestor depth of v; tree index j − 1.
            let exit_id = ids.ident(exit);
            for &x in &members {
                debug_assert_ne!(dist[x.0], u64::MAX, "coherent subtree is connected");
                trees[x.0][j - 1] = (exit_id, dist[x.0]);
            }
        }
        g.nodes()
            .map(|v| {
                let ancestors: Vec<Ident> =
                    tree.ancestors(v).iter().map(|&a| ids.ident(a)).collect();
                TdCert::new(&ancestors, &trees[v.0])
            })
            .collect()
    }

    /// The prover as it stood: one pass, no shape.
    pub(crate) fn assign(
        s: &KernelMsoScheme,
        instance: &Instance<'_>,
    ) -> Result<Assignment, ProverError> {
        let g = instance.graph();
        let model = model_for(g, s.t, &s.strategy)?;
        let red = k_reduce(g, &model, s.k);
        let table = SerTable {
            types: (0..red.types.len())
                .map(|i| {
                    let data = red.types.get(TypeId(i as u32));
                    SerType {
                        depth: data.ancestors.len(),
                        anc: data.ancestors.clone(),
                        children: data.children.iter().map(|&(TypeId(c), m)| (c, m)).collect(),
                    }
                })
                .collect(),
        };
        if table.types.len() >= (1 << 12) {
            return Err(ProverError::WitnessUnavailable(
                "type table exceeds the 12-bit index space".into(),
            ));
        }
        let root_type = red.end_type[model.root().0];
        if !s.kernel_satisfies_phi(&table, root_type.0) {
            return Err(ProverError::NotAYesInstance);
        }
        let td = honest_td_certs(instance, &model);
        let tb = table.type_bits();
        let certs: Vec<_> = g
            .nodes()
            .map(|v| {
                let ancs = model.ancestors(v);
                let mut w = BitWriter::new();
                td[v.0].write(&mut w, s.id_bits, s.t);
                for &a in &ancs {
                    w.write_bit(red.pruned[a.0]);
                }
                w.write(table.types.len() as u64, 12);
                for &a in &ancs {
                    w.write(red.end_type[a.0].0 as u64, tb);
                }
                table.write(&mut w, s.t, s.k);
                w.finish()
            })
            .collect();
        Ok(Assignment::new(certs))
    }

    /// The per-vertex decision as it stood: every certificate in the view
    /// parsed in full, tables compared parsed, φ evaluated afresh.
    pub(crate) fn decide(s: &KernelMsoScheme, view: &LocalView<'_>) -> Result<(), RejectReason> {
        let mine = parse(s, view.cert).ok_or(RejectReason::MalformedCertificate)?;
        check_own_td(view.id, mine.td.as_ref(), s.t)?;
        let mut nbrs = Vec::with_capacity(view.neighbors.len());
        for &(_, _, cert) in &view.neighbors {
            nbrs.push(parse(s, cert).ok_or(RejectReason::MalformedNeighborCertificate)?);
        }
        check_td_edges(
            view.id,
            mine.td.as_ref(),
            nbrs.iter().map(|nc| nc.td.as_ref()),
        )?;
        let m = mine.td.depth();
        if mine.flags.len() != m + 1 || mine.types.len() != m + 1 {
            return Err(RejectReason::MalformedCertificate);
        }
        if !mine.table.well_formed(s.k) {
            return Err(RejectReason::MalformedCertificate);
        }
        for nc in &nbrs {
            if nc.table != mine.table {
                return Err(RejectReason::CopyMismatch);
            }
            let shared = mine.types.len().min(nc.types.len());
            let my_off = mine.types.len() - shared;
            let n_off = nc.types.len() - shared;
            if mine.types[my_off..] != nc.types[n_off..]
                || mine.flags[my_off..] != nc.flags[n_off..]
            {
                return Err(RejectReason::CopyMismatch);
            }
        }
        for (i, &ty) in mine.types.iter().enumerate() {
            if mine.table.types[ty as usize].depth != m - i {
                return Err(RejectReason::AutomatonStateClash);
            }
        }
        let my_type = &mine.table.types[mine.types[0] as usize];
        for j in 0..m {
            let anc_id = mine.td.ancestors()[m - j];
            if my_type.anc[j] != view.has_neighbor(anc_id) {
                return Err(RejectReason::AdjacencyMismatch);
            }
        }
        let mut children: Vec<(u64, (u32, bool))> = Vec::new();
        for nc in &nbrs {
            let nm = nc.td.depth();
            if nm < m + 1 {
                continue;
            }
            let off = nm - m;
            if nc.td.ancestors()[off..] != *mine.td.ancestors() {
                continue;
            }
            let child_idx = off - 1;
            let child_id = nc.td.ancestors()[child_idx].value();
            children.push((child_id, (nc.types[child_idx], nc.flags[child_idx])));
        }
        children.sort_unstable();
        for w in children.windows(2) {
            if w[0].0 == w[1].0 && w[0].1 != w[1].1 {
                return Err(RejectReason::CopyMismatch);
            }
        }
        children.dedup();
        let mut kept: Vec<u32> = Vec::new();
        let mut pruned_types: Vec<u32> = Vec::new();
        for &(_, (ty, pruned)) in &children {
            if pruned {
                pruned_types.push(ty);
            } else {
                kept.push(ty);
            }
        }
        kept.sort_unstable();
        let mut kept_counts: Vec<(u32, usize)> = Vec::new();
        for &ty in &kept {
            match kept_counts.last_mut() {
                Some((last, count)) if *last == ty => *count += 1,
                _ => kept_counts.push((ty, 1)),
            }
        }
        if kept_counts != my_type.children {
            return Err(RejectReason::CounterMismatch);
        }
        for ty in pruned_types {
            let declared = my_type
                .children
                .binary_search_by_key(&ty, |&(c, _)| c)
                .ok()
                .map(|i| my_type.children[i].1);
            if declared != Some(s.k) {
                return Err(RejectReason::CounterMismatch);
            }
        }
        let Some(&root_type) = mine.types.last() else {
            return Err(RejectReason::MalformedCertificate);
        };
        if s.kernel_satisfies_phi(&mine.table, root_type) {
            Ok(())
        } else {
            Err(RejectReason::NotAccepting)
        }
    }

    /// Checks `run_verification` on every pool and the prepared per-vertex
    /// decision against `reference`, verdict by verdict; returns the
    /// verdicts.
    pub(crate) fn agrees(
        pools: &[Pool],
        scheme: &dyn Verifier,
        reference: impl Fn(&LocalView<'_>) -> Result<(), RejectReason>,
        inst: &Instance<'_>,
        asg: &Assignment,
    ) -> Vec<Verdict> {
        let certs: Vec<Certificate> = inst.graph().nodes().map(|v| asg.cert(v).clone()).collect();
        let prepared = scheme.prepare(&certs);
        let expected: Vec<Verdict> = inst
            .graph()
            .nodes()
            .map(|v| {
                let view = view_of(inst, asg, v);
                let reason = reference(&view).err();
                let decided = prepared.decide_at(inst, v, |u| u.0);
                assert_eq!(decided.err(), reason, "decide at vertex {v:?}");
                Verdict {
                    accepted: reason.is_none(),
                    reason,
                    bits_read: view.bits(),
                }
            })
            .collect();
        for pool in pools {
            let out = run_verification_in(pool, scheme, inst, asg);
            assert_eq!(out.verdicts(), &expected[..], "{} workers", pool.threads());
        }
        expected
    }

    /// `cert` cut to its first `len` bits.
    pub(crate) fn truncated(cert: &Certificate, len: usize) -> Certificate {
        BitReader::new(cert)
            .read_cert(len.min(cert.len_bits()))
            .expect("within the certificate")
    }
}

#[cfg(test)]
mod tests {
    use super::reference::{self, agrees, truncated};
    use super::*;
    use crate::framework::test_views::{view_of, LocalView};
    use crate::framework::{run_scheme, run_verification, run_verification_in};
    use crate::schemes::common::id_bits_for;
    use locert_graph::{generators, IdAssignment};
    use locert_logic::props;
    use locert_par::Pool;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    use std::collections::BTreeSet;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn pools() -> [Pool; 2] {
        [Pool::new(1), Pool::new(4)]
    }

    #[test]
    fn prover_matches_reference() {
        let mut rng = StdRng::seed_from_u64(0x15);
        for _ in 0..12 {
            let (g, parents) = generators::random_bounded_treedepth(14, 3, 0.4, &mut rng);
            let ids = IdAssignment::shuffled(14, &mut rng);
            let inst = Instance::new(&g, &ids);
            for strategy in [
                ModelStrategy::Auto,
                ModelStrategy::Explicit(parents.clone()),
            ] {
                for phi in [props::triangle_free(), props::has_dominating_vertex()] {
                    let scheme = KernelMsoScheme::new(id_bits_for(&inst), 3, phi)
                        .unwrap()
                        .with_strategy(strategy.clone());
                    assert_eq!(scheme.assign(&inst), reference::assign(&scheme, &inst));
                }
            }
        }
    }

    #[test]
    fn honest_td_matches_the_reference_on_exact_models() {
        // Exact models, made coherent, leave subtree roots that are not
        // adjacent to their parent, so the exit vertex is a choice among
        // several members: the walk order that picks it must match.
        let mut rng = StdRng::seed_from_u64(0x19);
        let mut off_root_exits = 0;
        for n in 5..=11 {
            for _ in 0..8 {
                let g = generators::random_connected(n, n / 2, &mut rng);
                let ids = IdAssignment::shuffled(n, &mut rng);
                let inst = Instance::new(&g, &ids);
                let model = model_for(&g, n, &ModelStrategy::Auto).unwrap();
                let id_bits = id_bits_for(&inst);
                let mut td = HonestTd::default();
                td.fill(&g, |v| ids.ident(v), &model);
                let expected = reference::honest_td_certs(&inst, &model);
                for v in g.nodes() {
                    let (mut flat, mut listed) = (BitWriter::new(), BitWriter::new());
                    td.write(&mut flat, v, &model, |a| ids.ident(a), id_bits, n);
                    expected[v.0].write(&mut listed, id_bits, n);
                    assert_eq!(flat.finish(), listed.finish(), "{g:?} at {v:?}");
                    let parent = model.tree().parent(v);
                    off_root_exits += usize::from(parent.is_some_and(|p| !g.has_edge(v, p)));
                }
            }
        }
        assert!(off_root_exits > 0, "no exit vertex was a choice");
    }

    #[test]
    fn run_path_matches_reference_under_mutations() {
        let pools = pools();
        let mut rng = StdRng::seed_from_u64(0x15);
        let mut graphs = vec![
            generators::star(7),
            generators::path(6),
            generators::spider(3, 2),
        ];
        for _ in 0..4 {
            graphs.push(generators::random_bounded_treedepth(10, 3, 0.3, &mut rng).0);
        }
        let mut reasons = BTreeSet::new();
        for g in &graphs {
            let n = g.num_nodes();
            let ids = IdAssignment::shuffled(n, &mut rng);
            let inst = Instance::new(g, &ids);
            let b = id_bits_for(&inst);
            for phi in [props::triangle_free(), props::has_dominating_vertex()] {
                let scheme = KernelMsoScheme::new(b, 3, phi.clone()).unwrap();
                // Same t and k, the opposite sentence: honest tables whose
                // kernels fail φ.
                let negated = KernelMsoScheme::new(b, 3, locert_logic::ast::not(phi)).unwrap();
                let Ok(honest) = scheme.assign(&inst) else {
                    continue;
                };
                for s in [&scheme, &negated] {
                    let verdicts = agrees(&pools, s, |v| reference::decide(s, v), &inst, &honest);
                    reasons.extend(verdicts.iter().map(|v| v.reason.map(|r| r.code())));
                }
                for trial in 0..48 {
                    let asg = mutated(&scheme, &honest, trial, &mut rng);
                    let verdicts = agrees(
                        &pools,
                        &scheme,
                        |v| reference::decide(&scheme, v),
                        &inst,
                        &asg,
                    );
                    reasons.extend(verdicts.iter().map(|v| v.reason.map(|r| r.code())));
                }
            }
        }
        for reason in [
            RejectReason::MalformedCertificate,
            RejectReason::MalformedNeighborCertificate,
            RejectReason::CopyMismatch,
            RejectReason::NotAccepting,
        ] {
            assert!(
                reasons.contains(&Some(reason.code())),
                "{reason} never seen in {reasons:?}"
            );
        }
        assert!(reasons.contains(&None));
    }

    /// `honest` under the mutation `trial` selects, at seeded positions.
    fn mutated(
        scheme: &KernelMsoScheme,
        honest: &Assignment,
        trial: usize,
        rng: &mut StdRng,
    ) -> Assignment {
        let n = honest.len();
        let mut asg = honest.clone();
        let v = NodeId(rng.random_range(0..n));
        let u = NodeId(rng.random_range(0..n));
        let cert = honest.cert(v);
        let len = cert.len_bits();
        let table_start = len - reference::table_bits(scheme, cert).expect("honest");
        match trial % 6 {
            // A random bit flip at one vertex.
            0 => *asg.cert_mut(v) = cert.with_bit_flipped(rng.random_range(0..len)),
            1 => *asg.cert_mut(v) = truncated(cert, rng.random_range(0..len)),
            // Two vertices swap certificates.
            2 => {
                *asg.cert_mut(v) = honest.cert(u).clone();
                *asg.cert_mut(u) = cert.clone();
            }
            // A table altered in one copy only.
            3 => *asg.cert_mut(v) = cert.with_bit_flipped(rng.random_range(table_start..len)),
            // The same table bit flipped in every copy.
            4 => {
                let offset = rng.random_range(0..len - table_start);
                for w in 0..n {
                    let c = honest.cert(NodeId(w));
                    *asg.cert_mut(NodeId(w)) = c.with_bit_flipped(c.len_bits() - offset - 1);
                }
            }
            _ => *asg.cert_mut(v) = Certificate::empty(),
        }
        asg
    }

    #[test]
    fn tables_past_the_memo_cap_keep_only_their_bits() {
        // Every vertex but 0 flips a different bit of its table, so the
        // run carries up to n distinct tables. A memo with no room beyond
        // its first table stores one parse; every other table's decode
        // keeps only its bits.
        let mut rng = StdRng::seed_from_u64(0x16);
        let graphs = [
            generators::star(9),
            generators::spider(3, 2),
            generators::random_bounded_treedepth(12, 3, 0.3, &mut rng).0,
        ];
        let mut refused = 0;
        for g in &graphs {
            let n = g.num_nodes();
            let ids = IdAssignment::shuffled(n, &mut rng);
            let inst = Instance::new(g, &ids);
            let scheme =
                KernelMsoScheme::new(id_bits_for(&inst), 3, props::triangle_free()).unwrap();
            let Ok(mut asg) = scheme.assign(&inst) else {
                continue;
            };
            for v in 1..n {
                let cert = asg.cert(NodeId(v));
                let table = reference::table_bits(&scheme, cert).expect("honest");
                let bit = cert.len_bits() - 1 - (v * 7) % table;
                *asg.cert_mut(NodeId(v)) = cert.with_bit_flipped(bit);
            }
            let decided = |memo: &Memo<ParsedTable>| {
                let decoded: Vec<Option<KernelCert>> = g
                    .nodes()
                    .map(|v| scheme.decode(BitReader::new(asg.cert(v)), memo))
                    .collect();
                let reasons: Vec<_> = g
                    .nodes()
                    .map(|v| {
                        let nbrs: Vec<_> = g
                            .neighbors(v)
                            .iter()
                            .map(|&u| (ids.ident(u), 0, &decoded[u.0]))
                            .collect();
                        let view = DecodedView::listed(ids.ident(v), 0, &decoded[v.0], &nbrs);
                        scheme.decide_decoded(&view).err()
                    })
                    .collect();
                (decoded, reasons)
            };
            let (capped, reasons) = decided(&Memo::with_cap(0));
            let mut held: Vec<&Arc<Shared<ParsedTable>>> = Vec::new();
            for kc in capped.iter().flatten() {
                if kc.table.is_kept() {
                    held.push(&kc.table);
                } else {
                    refused += 1;
                }
            }
            held.sort_by_key(|e| Arc::as_ptr(e));
            held.dedup_by(|a, b| Arc::ptr_eq(a, b));
            assert_eq!(held.len(), 1, "the memo holds its first table only");
            // Verdicts do not depend on what the memo keeps.
            let expected: Vec<_> = g
                .nodes()
                .map(|v| reference::decide(&scheme, &view_of(&inst, &asg, v)).err())
                .collect();
            assert_eq!(reasons, expected);
            assert_eq!(decided(&Memo::default()).1, expected);
        }
        assert!(refused > 0, "no table was refused");
    }

    #[test]
    fn one_run_keeps_a_phi_verdict_per_root_type() {
        // A table with two root types (kernels K2 and P3) and a leaf type;
        // "no path on 3 vertices" holds on K2 only. One run decides a
        // leaf under each root in turn.
        let scheme = KernelMsoScheme::new(2, 2, props::path_minor_free(3)).unwrap();
        let leaf = SerType {
            depth: 1,
            anc: vec![true],
            children: vec![],
        };
        let root = |mult| SerType {
            depth: 0,
            anc: vec![],
            children: vec![(2, mult)],
        };
        let table = SerTable {
            types: vec![root(1), root(2), leaf],
        };
        assert!(table.well_formed(scheme.k()));
        let cert = |td: TdCert, marks: &[(u64, bool)]| {
            let mut w = BitWriter::new();
            td.write(&mut w, scheme.id_bits, scheme.t);
            for &(_, pruned) in marks {
                w.write_bit(pruned);
            }
            w.write(3, 12);
            for &(ty, _) in marks {
                w.write(ty, table.type_bits());
            }
            table.write(&mut w, scheme.t, scheme.k);
            w.finish()
        };
        let memo = Memo::default();
        for (root_type, accepted) in [(0, true), (1, false), (0, true)] {
            let root_cert = cert(TdCert::new(&[Ident(1)], &[]), &[(root_type, false)]);
            let leaf_cert = cert(
                TdCert::new(&[Ident(2), Ident(1)], &[(Ident(2), 0)]),
                &[(2, false), (root_type, false)],
            );
            let view = LocalView {
                id: Ident(2),
                input: 0,
                cert: &leaf_cert,
                neighbors: vec![(Ident(1), 0, &root_cert)],
            };
            let (own, parent) = (
                scheme.decode(BitReader::new(&leaf_cert), &memo),
                scheme.decode(BitReader::new(&root_cert), &memo),
            );
            let neighbors = [(Ident(1), 0, &parent)];
            let decided =
                scheme.decide_decoded(&DecodedView::listed(Ident(2), 0, &own, &neighbors));
            assert_eq!(decided, reference::decide(&scheme, &view));
            assert_eq!(decided.is_ok(), accepted, "root type {root_type}");
        }
    }

    #[test]
    fn phi_runs_once_per_table_and_root_per_run() {
        let calls = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&calls);
        let phi = props::has_dominating_vertex();
        let g = generators::star(9);
        let ids = IdAssignment::contiguous(9);
        let inst = Instance::new(&g, &ids);
        let scheme = KernelMsoScheme::new(id_bits_for(&inst), 2, phi.clone())
            .unwrap()
            .with_evaluator(move |h| {
                counter.fetch_add(1, Ordering::SeqCst);
                models(h, &phi)
            });
        let asg = scheme.assign(&inst).unwrap();
        for pool in pools() {
            calls.store(0, Ordering::SeqCst);
            assert!(run_verification_in(&pool, &scheme, &inst, &asg).accepted());
            assert_eq!(
                calls.load(Ordering::SeqCst),
                1,
                "{} workers",
                pool.threads()
            );
            // Nothing survives the run: a second run evaluates again.
            assert!(run_verification_in(&pool, &scheme, &inst, &asg).accepted());
            assert_eq!(
                calls.load(Ordering::SeqCst),
                2,
                "{} workers",
                pool.threads()
            );
        }
        // A prepared list has a memo of its own, shared by its decisions.
        calls.store(0, Ordering::SeqCst);
        let certs: Vec<Certificate> = g.nodes().map(|v| asg.cert(v).clone()).collect();
        let prepared = scheme.prepare(&certs);
        for v in g.nodes() {
            assert_eq!(prepared.decide_at(&inst, v, |u| u.0), Ok(()));
        }
        assert_eq!(calls.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn disconnected_instance_is_a_typed_error_not_a_panic() {
        // Regression: model_for handed disconnected graphs straight to
        // the treedepth solvers, which assert connectivity.
        let g = Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        let ids = IdAssignment::contiguous(4);
        let inst = Instance::new(&g, &ids);
        let scheme =
            KernelMsoScheme::new(id_bits_for(&inst), 2, props::has_dominating_vertex()).unwrap();
        assert!(matches!(
            run_scheme(&scheme, &inst).unwrap_err(),
            ProverError::WitnessUnavailable(_)
        ));
        let split =
            KernelMsoGlobalScheme::new(id_bits_for(&inst), 2, props::has_dominating_vertex())
                .unwrap();
        assert!(matches!(
            split.run(&inst).unwrap_err(),
            ProverError::WitnessUnavailable(_)
        ));
    }

    fn check_matches_ground_truth(g: &Graph, t: usize, phi: &Formula, strategy: ModelStrategy) {
        let ids = IdAssignment::contiguous(g.num_nodes());
        let inst = Instance::new(g, &ids);
        let scheme = KernelMsoScheme::new(id_bits_for(&inst), t, phi.clone())
            .unwrap()
            .with_strategy(strategy);
        let expected = models(g, phi);
        match run_scheme(&scheme, &inst) {
            Ok(out) => {
                assert!(
                    out.accepted(),
                    "verifier rejected honest prover: {phi} on {g:?}"
                );
                assert!(expected, "accepted a no-instance: {phi} on {g:?}");
            }
            Err(ProverError::NotAYesInstance) => {
                assert!(!expected, "refused a yes-instance: {phi} on {g:?}");
            }
            Err(e) => panic!("prover error for {} ({phi} on {g:?}): {e}", scheme.name()),
        }
    }

    #[test]
    fn stars_and_domination() {
        // Stars (treedepth 2): domination holds; on a path it does not.
        check_matches_ground_truth(
            &generators::star(9),
            2,
            &props::has_dominating_vertex(),
            ModelStrategy::Auto,
        );
        check_matches_ground_truth(
            &generators::path(7),
            3,
            &props::has_dominating_vertex(),
            ModelStrategy::Auto,
        );
    }

    #[test]
    fn triangle_freeness_on_bounded_treedepth() {
        let mut rng = StdRng::seed_from_u64(151);
        for _ in 0..6 {
            let (g, parents) = generators::random_bounded_treedepth(14, 3, 0.5, &mut rng);
            check_matches_ground_truth(
                &g,
                3,
                &props::triangle_free(),
                ModelStrategy::Explicit(parents),
            );
        }
    }

    #[test]
    fn path_freeness_formula() {
        // P_4-freeness on stars (true) and paths (false).
        check_matches_ground_truth(
            &generators::star(8),
            2,
            &props::path_minor_free(4),
            ModelStrategy::Auto,
        );
        check_matches_ground_truth(
            &generators::path(6),
            3,
            &props::path_minor_free(4),
            ModelStrategy::Auto,
        );
    }

    #[test]
    fn certificate_sizes_scale_with_t_log_n_plus_constant() {
        // Same t and φ, growing n: the certificate splits into an
        // O(t log n) part and a constant table.
        let phi = props::has_dominating_vertex();
        let mut sizes = Vec::new();
        for exp in [3u32, 5, 7] {
            let n = 1usize << exp;
            let g = generators::star(n);
            let ids = IdAssignment::contiguous(n);
            let inst = Instance::new(&g, &ids);
            let scheme = KernelMsoScheme::new(id_bits_for(&inst), 2, phi.clone()).unwrap();
            let out = run_scheme(&scheme, &inst).unwrap();
            assert!(out.accepted());
            sizes.push(out.max_bits());
        }
        // Growth between successive doublings is bounded by the id-width
        // growth (a few bits per extra id bit), far below the table size.
        assert!(sizes[2] - sizes[1] <= 30, "sizes {sizes:?}");
    }

    #[test]
    fn forged_type_rejected() {
        let g = generators::star(6);
        let ids = IdAssignment::contiguous(6);
        let inst = Instance::new(&g, &ids);
        let scheme =
            KernelMsoScheme::new(id_bits_for(&inst), 2, props::has_dominating_vertex()).unwrap();
        let asg = scheme.assign(&inst).unwrap();
        // Flip each bit of one leaf's certificate in turn; all must be
        // rejected (no single-bit forgery survives).
        let victim = NodeId(3);
        let base = asg.cert(victim).clone();
        for bit in 0..base.len_bits() {
            let mut forged = asg.clone();
            *forged.cert_mut(victim) = base.with_bit_flipped(bit);
            let out = run_verification(&scheme, &inst, &forged);
            assert!(!out.accepted(), "bit {bit} forgery accepted");
        }
    }

    #[test]
    fn replay_across_instances_rejected() {
        // Certificates from a dominated graph replayed on a path of the
        // same size: must fail.
        let star = generators::star(6);
        let path = generators::path(6);
        let ids = IdAssignment::contiguous(6);
        let inst_star = Instance::new(&star, &ids);
        let inst_path = Instance::new(&path, &ids);
        let scheme =
            KernelMsoScheme::new(id_bits_for(&inst_star), 3, props::has_dominating_vertex())
                .unwrap();
        let honest = scheme.assign(&inst_star).unwrap();
        assert!(!run_verification(&scheme, &inst_path, &honest).accepted());
    }

    #[test]
    fn kernel_reduces_large_stars_to_constant_table() {
        // The table of a star does not grow with n.
        let phi = props::has_dominating_vertex();
        let mut table_sizes = Vec::new();
        for n in [8usize, 64, 512] {
            let g = generators::star(n);
            let ids = IdAssignment::contiguous(n);
            let inst = Instance::new(&g, &ids);
            let scheme = KernelMsoScheme::new(id_bits_for(&inst), 2, phi.clone()).unwrap();
            let asg = scheme.assign(&inst).unwrap();
            let parsed = scheme.parse(asg.cert(NodeId(0))).unwrap();
            let table = &scheme.table(&parsed.table).unwrap().table;
            table_sizes.push(table.types.len());
        }
        assert_eq!(table_sizes[0], table_sizes[1]);
        assert_eq!(table_sizes[1], table_sizes[2]);
    }

    #[test]
    fn expansion_reconstructs_kernel() {
        // For a star with k = 2, the expansion of the root type is the
        // 3-vertex star.
        let g = generators::star(10);
        let ids = IdAssignment::contiguous(10);
        let inst = Instance::new(&g, &ids);
        let phi = props::has_dominating_vertex(); // depth 2 → k = 2.
        let scheme = KernelMsoScheme::new(id_bits_for(&inst), 2, phi).unwrap();
        let asg = scheme.assign(&inst).unwrap();
        let parsed = scheme.parse(asg.cert(NodeId(0))).unwrap();
        let root_ty = mark(*parsed.td.tail().last().unwrap()).0;
        let table = &scheme.table(&parsed.table).unwrap().table;
        let h = table.expand(root_ty, 100).unwrap();
        assert_eq!(h.num_nodes(), 3);
        assert_eq!(h.num_edges(), 2);
    }

    #[test]
    fn ill_formed_table_rejected() {
        let g = generators::star(4);
        let ids = IdAssignment::contiguous(4);
        let inst = Instance::new(&g, &ids);
        let scheme =
            KernelMsoScheme::new(id_bits_for(&inst), 2, props::has_dominating_vertex()).unwrap();
        // A table whose child multiplicity exceeds k is rejected by
        // well_formed.
        let bad = SerTable {
            types: vec![
                SerType {
                    depth: 0,
                    anc: vec![],
                    children: vec![(1, 99)],
                },
                SerType {
                    depth: 1,
                    anc: vec![true],
                    children: vec![],
                },
            ],
        };
        assert!(!bad.well_formed(scheme.k()));
        let good = SerTable {
            types: vec![
                SerType {
                    depth: 0,
                    anc: vec![],
                    children: vec![(1, 2)],
                },
                SerType {
                    depth: 1,
                    anc: vec![true],
                    children: vec![],
                },
            ],
        };
        assert!(good.well_formed(2));
        // Expansion of the good table: root + 2 children, edges to root.
        let h = good.expand(0, 10).unwrap();
        assert_eq!(h.num_nodes(), 3);
        assert_eq!(h.num_edges(), 2);
    }

    #[test]
    fn expansion_cap_enforced() {
        // A self-exploding table: depth-0 root with many children each
        // with many children.
        let t = SerTable {
            types: vec![
                SerType {
                    depth: 0,
                    anc: vec![],
                    children: vec![(1, 3)],
                },
                SerType {
                    depth: 1,
                    anc: vec![true],
                    children: vec![(2, 3)],
                },
                SerType {
                    depth: 2,
                    anc: vec![true, true],
                    children: vec![],
                },
            ],
        };
        assert!(t.expand(0, 5).is_none());
        assert!(t.expand(0, 100).is_some());
        // Root must have depth 0.
        assert!(t.expand(1, 100).is_none());
    }

    #[test]
    fn global_variant_agrees_and_shrinks_locals() {
        let phi = props::has_dominating_vertex();
        for n in [16usize, 128, 1024] {
            let g = generators::star(n);
            let ids = IdAssignment::contiguous(n);
            let inst = Instance::new(&g, &ids);
            let local_only = KernelMsoScheme::new(id_bits_for(&inst), 2, phi.clone()).unwrap();
            let split = KernelMsoGlobalScheme::new(id_bits_for(&inst), 2, phi.clone()).unwrap();
            let full = run_scheme(&local_only, &inst).unwrap();
            assert!(full.accepted());
            let out = split.run(&inst).unwrap();
            assert!(out.accepted);
            // Local + global = local-only total per vertex.
            assert_eq!(out.max_local_bits + out.global_bits, full.max_bits());
            assert!(out.max_local_bits < full.max_bits());
        }
    }

    #[test]
    fn split_certificates_concatenate_to_the_local_only_ones() {
        let phi = props::has_dominating_vertex();
        for n in [2usize, 5, 9] {
            let g = generators::star(n);
            let ids = IdAssignment::contiguous(n);
            let inst = Instance::new(&g, &ids);
            let local_only = KernelMsoScheme::new(id_bits_for(&inst), 2, phi.clone()).unwrap();
            let split = KernelMsoGlobalScheme::new(id_bits_for(&inst), 2, phi.clone()).unwrap();
            let full = local_only.assign(&inst).unwrap();
            let (global, locals) = split.assign_split(&inst).unwrap();
            for v in g.nodes() {
                let mut w = BitWriter::new();
                w.write_cert(locals.cert(v));
                w.write_cert(&global);
                assert_eq!(&w.finish(), full.cert(v), "n {n}, vertex {v}");
            }
        }
    }

    #[test]
    fn global_variant_soundness_spot_checks() {
        let phi = props::has_dominating_vertex();
        let g = generators::star(8);
        let ids = IdAssignment::contiguous(8);
        let inst = Instance::new(&g, &ids);
        let split = KernelMsoGlobalScheme::new(id_bits_for(&inst), 2, phi).unwrap();
        let (global, locals) = split.assign_split(&inst).unwrap();
        assert!(split.verify_with_global(&inst, &locals, &global));
        // Corrupt the global table: everyone who reads it rejects.
        let bad_global = global.with_bit_flipped(global.len_bits() / 2);
        assert!(
            !split.verify_with_global(&inst, &locals, &bad_global),
            "corrupted global table went unnoticed"
        );
        // Corrupt one local certificate.
        let mut bad_locals = locals.clone();
        let c = bad_locals.cert(NodeId(3)).clone();
        *bad_locals.cert_mut(NodeId(3)) = c.with_bit_flipped(1);
        assert!(!split.verify_with_global(&inst, &bad_locals, &global));
    }

    #[test]
    fn random_larger_instances_with_witness() {
        let mut rng = StdRng::seed_from_u64(152);
        let (g, parents) = generators::random_bounded_treedepth(60, 3, 0.6, &mut rng);
        let ids = IdAssignment::shuffled(60, &mut rng);
        let inst = Instance::new(&g, &ids);
        let phi = props::triangle_free();
        let expected = models(&g, &phi);
        let scheme = KernelMsoScheme::new(id_bits_for(&inst), 3, phi)
            .unwrap()
            .with_strategy(ModelStrategy::Explicit(parents));
        match run_scheme(&scheme, &inst) {
            Ok(out) => {
                assert!(out.accepted());
                assert!(expected);
            }
            Err(ProverError::NotAYesInstance) => assert!(!expected),
            Err(e) => panic!(
                "prover error for {} on 60-vertex bounded-treedepth instance: {e}",
                scheme.name()
            ),
        }
    }
}
