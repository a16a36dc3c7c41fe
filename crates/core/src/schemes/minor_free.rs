//! Minor-freeness certification for paths and cycles (Corollary 2.7).
//!
//! **`P_t`-minor-freeness** is fully certified: a graph has a `P_t` minor
//! iff it contains a path on `t` vertices, so `P_t`-minor-free graphs
//! have DFS trees of depth ≤ `t − 1` — which are elimination trees. The
//! prover therefore always finds a `(t−1)`-model (DFS), and the property
//! itself is the FO sentence "no path on `t` vertices", certified by the
//! Theorem 2.6 kernelization ([`crate::schemes::kernel_mso`]). Total
//! size: `O(log n)` for fixed `t`.
//!
//! **`C_t`-minor-freeness** follows the paper's reduction: every
//! 2-connected component of a `C_t`-minor-free graph is
//! `P_{t²}`-minor-free (the paper proves this in Appendix D.3), so one
//! certifies the block decomposition and then `P_{t²}`-freeness per
//! block. The paper delegates the block-decomposition certification to
//! its companion paper \[8]; we follow suit: [`CtMinorFreeScheme`] runs
//! under the *certified-decomposition promise* — block membership is
//! provided in the certificates and the \[8] machinery that would pin it
//! down is out of scope (documented substitution, see DESIGN.md). Within
//! each block, the full `P_{t²}` scheme runs with all its checks against
//! the block-restricted view.

use crate::bits::{BitReader, BitWriter, Certificate};
use crate::framework::{
    with_scratch, Assignment, DeclaredBound, Decode, DecodedView, Held, Instance, Memo, Prover,
    ProverError, RejectReason, Scheme, Shared,
};
use crate::schemes::kernel_mso::{
    KernelCert, KernelMsoScheme, KernelRef, KernelShape, ParsedTable,
};
use crate::schemes::treedepth::{HonestTd, ModelStrategy};
use locert_graph::bcc::biconnected_components;
use locert_graph::{Graph, Ident, NodeId};
use locert_logic::props;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Block decodes one `C_t` run keeps in its arena. An honest run lists
/// each block once per member, at most 2n entries in all. The budget
/// bounds memory when an adversarial assignment lists up to 2^16 blocks
/// per certificate, each decoding to several times its bits: past it, a
/// certificate's decode keeps only its bits, and each decision that reads
/// it parses it again, keeps the one block it needs and drops the rest.
const DECODED_BLOCKS: usize = 1 << 18;

/// Certifies "the graph is `P_t`-minor-free" with `O(log n)` bits (fixed
/// `t`).
#[derive(Debug)]
pub struct PathMinorFreeScheme {
    inner: KernelMsoScheme,
    t: usize,
}

impl PathMinorFreeScheme {
    /// A scheme for `P_t` with identifier fields of `id_bits` bits.
    ///
    /// # Panics
    ///
    /// Panics if `t < 2`.
    pub fn new(id_bits: u32, t: usize) -> Self {
        assert!(t >= 2, "P_t needs t >= 2");
        let phi = props::path_minor_free(t);
        let inner = KernelMsoScheme::new(id_bits, t - 1, phi)
            .expect("path-freeness is a closed FO sentence")
            .with_strategy(ModelStrategy::Dfs)
            // Equivalent to ¬∃ path on t vertices, but polynomial in |H|
            // instead of |H|^t (see locert_graph::minors).
            .with_evaluator(move |h| !locert_graph::minors::has_path_of_order(h, t));
        PathMinorFreeScheme { inner, t }
    }

    /// The forbidden path order `t`.
    pub fn t(&self) -> usize {
        self.t
    }
}

impl Prover for PathMinorFreeScheme {
    fn assign(&self, instance: &Instance<'_>) -> Result<Assignment, ProverError> {
        let _span = locert_trace::span!("core.schemes.minor_free.path.prover");
        // The DFS model strategy cannot fail on yes-instances: any DFS
        // root-to-leaf chain is a real path, so depth ≤ t − 1 whenever
        // the graph is P_t-minor-free.
        self.inner.assign(instance)
    }
}

impl Decode for PathMinorFreeScheme {
    type Decoded = Option<KernelCert>;
    type Cache = Memo<ParsedTable>;

    fn decode(&self, r: BitReader<'_>, memo: &Memo<ParsedTable>) -> Option<KernelCert> {
        self.inner.decode(r, memo)
    }

    fn decide_decoded(
        &self,
        view: &DecodedView<'_, Option<KernelCert>>,
    ) -> Result<(), RejectReason> {
        self.inner.decide_decoded(view)
    }
}

impl Scheme for PathMinorFreeScheme {
    fn name(&self) -> String {
        format!("P{}-minor-free", self.t)
    }

    fn declared_bound(&self) -> DeclaredBound {
        // Corollary 2.7: kernelization at treedepth t − 1, O(log n) for
        // fixed t.
        self.inner.declared_bound()
    }
}

/// Certifies "the graph is `C_t`-minor-free" per block, under the
/// certified-decomposition promise (see the module docs).
///
/// Certificate layout per vertex: the number of blocks containing it,
/// then for each block `(block id, sub-certificate length, P_{t²}
/// sub-certificate for the block-induced subgraph)`. A block id is the
/// pair of the block's two smallest member identifiers — unique because
/// two distinct blocks share at most one vertex.
#[derive(Debug)]
pub struct CtMinorFreeScheme {
    id_bits: u32,
    t: usize,
    inner: KernelMsoScheme,
}

impl CtMinorFreeScheme {
    /// A scheme for `C_t` with identifier fields of `id_bits` bits.
    ///
    /// Per block, the certified FO property is "`P_{t²+1}`-free ∧ no
    /// cycle of length in `[t, t²]`": on `P_{t²+1}`-free graphs every
    /// cycle has length ≤ `t²`, so the conjunction is exactly
    /// `C_t`-minor-freeness, and the first conjunct also bounds the
    /// block's treedepth by `t²` so Theorem 2.6 applies (the paper's
    /// Appendix D.3 lemma guarantees completeness: blocks of
    /// `C_t`-minor-free graphs *are* `P_{t²}`-free).
    ///
    /// # Panics
    ///
    /// Panics if `t < 3`.
    pub fn new(id_bits: u32, t: usize) -> Self {
        assert!(t >= 3, "C_t needs t >= 3");
        let max_len = t * t;
        let phi = props::ct_minor_free_bounded(t, max_len);
        let inner = KernelMsoScheme::new(id_bits, max_len, phi)
            .expect("closed FO sentence")
            .with_strategy(ModelStrategy::Dfs)
            .with_evaluator(move |h| {
                !locert_graph::minors::has_path_of_order(h, max_len + 1)
                    && !locert_graph::minors::has_cycle_at_least(h, t, max_len)
            });
        CtMinorFreeScheme { id_bits, t, inner }
    }
}

/// The blocks a `C_t` certificate lists, decoded into one allocation.
/// Per block, `words` holds the header `[id₀, id₁, size, table]`, then
/// the `size` words of the block's `P_{t²}` sub-certificate as
/// `KernelMsoScheme::read_into` records it (`size` is 0 when it does not
/// parse); `table` indexes the block's table among the distinct ones the
/// certificate names.
#[derive(Default)]
pub struct CtBlocks {
    words: Box<[Ident]>,
    /// The number of blocks.
    count: usize,
    /// The first distinct table, kept inline: the blocks of a vertex
    /// often share one shape (every vertex of a path, say), and then its
    /// decode makes no allocation beyond `words`.
    first: Option<Arc<Shared<ParsedTable>>>,
    /// The other distinct tables, in order of first appearance.
    rest: Vec<Arc<Shared<ParsedTable>>>,
}

/// The header words of each block in a [`CtBlocks`].
const HEADER: usize = 4;

impl CtBlocks {
    /// Each block's word offset and id, in certificate order.
    pub(crate) fn blocks(&self) -> impl Iterator<Item = (usize, (Ident, Ident))> + Clone + '_ {
        let mut at = 0;
        std::iter::from_fn(move || {
            let header = self.words.get(at..at + HEADER)?;
            let block = (at, (header[0], header[1]));
            at += HEADER + header[2].0 as usize;
            Some(block)
        })
    }

    /// The decoded sub-certificate of the block at word offset `at`;
    /// `None` when it does not parse.
    pub(crate) fn sub(&self, at: usize) -> Option<KernelRef<'_>> {
        let size = self.words[at + 2].0 as usize;
        let table = match self.words[at + 3].0 as usize {
            0 => self.first.as_ref()?,
            i => &self.rest[i - 1],
        };
        let start = at + HEADER;
        (size > 0).then(|| KernelRef::at(&self.words[start..start + size], table))
    }

    /// The block at word offset `at` alone, copied out with its table.
    fn only(&self, at: usize) -> CtBlocks {
        let end = at + HEADER + self.words[at + 2].0 as usize;
        let mut words: Box<[Ident]> = self.words[at..end].into();
        words[3] = Ident(0);
        CtBlocks {
            words,
            count: 1,
            first: self.sub(at).map(|sub| Arc::clone(sub.table)),
            rest: Vec::new(),
        }
    }

    /// The index a block naming `table` stores, noting the table when it
    /// is new.
    fn table_index(&mut self, table: Arc<Shared<ParsedTable>>) -> usize {
        let Some(first) = &self.first else {
            self.first = Some(table);
            return 0;
        };
        if Arc::ptr_eq(first, &table) {
            return 0;
        }
        1 + match self.rest.iter().position(|t| Arc::ptr_eq(t, &table)) {
            Some(i) => i,
            None => {
                self.rest.push(table);
                self.rest.len() - 1
            }
        }
    }
}

/// A decoded `C_t` certificate.
pub enum CtCert {
    /// The blocks it lists.
    Blocks(CtBlocks),
    /// A certificate that does not parse or is past the run's block
    /// budget: only its bits, parsed again by each decision that reads
    /// it.
    Bits(Box<Certificate>),
}

impl CtCert {
    /// The block list, from the arena or parsed again; `None` when the
    /// certificate does not parse.
    fn blocks(&self, scheme: &CtMinorFreeScheme) -> Option<Held<'_, CtBlocks>> {
        match self {
            CtCert::Blocks(blocks) => Some(Held::Kept(blocks)),
            CtCert::Bits(cert) => scheme
                .parse(BitReader::new(cert), &Memo::default())
                .map(Held::Parsed),
        }
    }
}

/// The decode cache of a `C_t` run: one table memo for every block of
/// every vertex, and the block decodes the arena may still take.
pub struct CtCache {
    tables: Memo<ParsedTable>,
    blocks_left: AtomicUsize,
}

impl Default for CtCache {
    fn default() -> Self {
        CtCache {
            tables: Memo::default(),
            blocks_left: AtomicUsize::new(DECODED_BLOCKS),
        }
    }
}

impl CtCache {
    /// A cache whose arena takes at most `blocks` block decodes.
    #[cfg(test)]
    fn with_budget(blocks: usize) -> Self {
        CtCache {
            blocks_left: AtomicUsize::new(blocks),
            ..CtCache::default()
        }
    }
}

/// Whether the block ids `blocks` lists are pairwise distinct: by pairs
/// for the few blocks a vertex usually lies in, by sorting beyond.
fn distinct_blocks(blocks: &CtBlocks) -> bool {
    if blocks.count <= 8 {
        return blocks
            .blocks()
            .enumerate()
            .all(|(i, (_, b))| blocks.blocks().take(i).all(|(_, c)| c != b));
    }
    let mut ids: Vec<(Ident, Ident)> = blocks.blocks().map(|(_, b)| b).collect();
    ids.sort_unstable();
    ids.windows(2).all(|w| w[0] != w[1])
}

/// The one block of `mine` that a neighbor's `blocks` shares: its index
/// in `mine` and the word offset in `blocks` of the neighbor's
/// sub-certificate there (the first the neighbor lists with that id);
/// `None` unless the neighbor lists exactly one of my blocks.
fn shared_block(blocks: &CtBlocks, mine: &CtBlocks) -> Option<(usize, usize)> {
    let mut shared: Option<(usize, usize)> = None;
    for (at, block) in blocks.blocks() {
        if let Some(i) = mine.blocks().position(|(_, b)| b == block) {
            match shared {
                None => shared = Some((i, at)),
                Some((first, _)) if first != i => return None,
                Some(_) => {}
            }
        }
    }
    shared
}

impl Prover for CtMinorFreeScheme {
    fn assign(&self, instance: &Instance<'_>) -> Result<Assignment, ProverError> {
        let _span = locert_trace::span!("core.schemes.minor_free.cycle.prover");
        let g = instance.graph();
        let ids = instance.ids();
        let decomposition = biconnected_components(g);
        // One dense block-local index per vertex, `usize::MAX` off the
        // current block; each block resets only the entries it set, so
        // building every block costs O(n + m) in total.
        let mut local = vec![usize::MAX; g.num_nodes()];
        // The P_{t²} prover's shape reads the block graph alone, so blocks
        // with equal CSR arrays (every edge of a path, say) share one.
        let mut shapes: HashMap<Graph, KernelShape> = HashMap::new();
        // Every member's P_{t²} sub-certificate, byte-aligned and back to
        // back in `subs`, listed as (member, block id, byte offset, bits)
        // in block order; the writer, the treedepth entries and the
        // member ids are reused from block to block.
        let mut subs: Vec<u8> = Vec::new();
        let mut listed: Vec<(NodeId, (Ident, Ident), usize, usize)> = Vec::new();
        let mut w = BitWriter::new();
        let mut td = HonestTd::default();
        let mut member_ids: Vec<Ident> = Vec::new();
        // The block's members and induced subgraph, rebuilt in place.
        let mut members: Vec<NodeId> = Vec::new();
        let mut sub = Graph::empty(0);
        for bi in 0..decomposition.components.len() {
            decomposition.component_vertices(bi, &mut members);
            for (i, &v) in members.iter().enumerate() {
                local[v.0] = i;
            }
            g.induce_on_sorted_into(&members, &local, &mut sub);
            for &v in &members {
                local[v.0] = usize::MAX;
            }
            // Block id: the two smallest member identifiers (unique,
            // since distinct blocks share at most one vertex).
            member_ids.clear();
            member_ids.extend(members.iter().map(|&v| ids.ident(v)));
            let block_id = two_smallest(&member_ids);
            // Run the P_{t²} prover on the block-induced subgraph with the
            // members' own identifiers.
            if !shapes.contains_key(&sub) {
                let shape = self.inner.shape(&sub)?;
                shapes.insert(sub.clone(), shape);
            }
            let shape = &shapes[&sub];
            td.fill(&sub, |v| member_ids[v.0], &shape.model);
            for (i, &v) in members.iter().enumerate() {
                w.clear();
                self.inner
                    .stamp(&mut w, NodeId(i), shape, &td, |a| member_ids[a.0]);
                listed.push((v, block_id, subs.len(), w.len_bits()));
                subs.extend_from_slice(w.bytes());
            }
        }
        // Each vertex's blocks, in block order (a stable counting sort).
        let mut start = vec![0usize; g.num_nodes() + 1];
        for &(v, ..) in &listed {
            start[v.0 + 1] += 1;
        }
        for v in 0..g.num_nodes() {
            start[v + 1] += start[v];
        }
        let mut at = start.clone();
        let mut blocks = vec![((Ident(0), Ident(0)), 0, 0); listed.len()];
        for &(v, block_id, off, len) in &listed {
            blocks[at[v.0]] = (block_id, off, len);
            at[v.0] += 1;
        }
        Ok(Assignment::write_each(g.num_nodes(), |v, w| {
            let mine = &blocks[start[v.0]..start[v.0 + 1]];
            w.component("block-count");
            w.write(mine.len() as u64, 16);
            for &(block_id, off, len) in mine {
                w.component("block-id");
                w.write(block_id.0.value(), self.id_bits);
                w.write(block_id.1.value(), self.id_bits);
                w.component("length-header");
                w.write(len as u64, 20);
                w.component("embedded");
                w.write_bits(&subs[off..off + len.div_ceil(8)], len);
            }
        }))
    }
}

/// The two smallest of at least two identifiers, smallest first.
fn two_smallest(ids: &[Ident]) -> (Ident, Ident) {
    let (mut a, mut b) = (ids[0].min(ids[1]), ids[0].max(ids[1]));
    for &id in &ids[2..] {
        if id < a {
            (a, b) = (id, a);
        } else if id < b {
            b = id;
        }
    }
    (a, b)
}

impl CtMinorFreeScheme {
    /// The blocks the certificate in `r` lists, each block's
    /// sub-certificate decoded in place (nothing is copied); `None` if it
    /// does not parse.
    fn parse(&self, mut r: BitReader<'_>, memo: &Memo<ParsedTable>) -> Option<CtBlocks> {
        let count = r.read(16)? as usize;
        let mut blocks = CtBlocks {
            words: Box::default(),
            count,
            first: None,
            rest: Vec::new(),
        };
        // The words are gathered in a reused buffer and copied once into
        // an allocation of their exact size.
        with_scratch(|words: &mut Vec<Ident>| {
            for _ in 0..count {
                let block = (Ident(r.read(self.id_bits)?), Ident(r.read(self.id_bits)?));
                let len = r.read(20)? as usize;
                let window = r.take(len)?;
                let at = words.len();
                words.extend([block.0, block.1, Ident(0), Ident(0)]);
                match self.inner.read_into(memo, window, words) {
                    Some(table) => {
                        words[at + 2] = Ident((words.len() - at - HEADER) as u64);
                        words[at + 3] = Ident(blocks.table_index(table) as u64);
                    }
                    None => words.truncate(at + HEADER),
                }
            }
            blocks.words = words.as_slice().into();
            Some(())
        })?;
        r.exhausted().then_some(blocks)
    }
}

impl Decode for CtMinorFreeScheme {
    type Decoded = CtCert;
    type Cache = CtCache;

    fn decode(&self, r: BitReader<'_>, cache: &CtCache) -> CtCert {
        let bits = || {
            let mut r = r.clone();
            let cert = r.read_cert(r.remaining()).expect("a window holds its bits");
            CtCert::Bits(Box::new(cert))
        };
        let Some(blocks) = self.parse(r.clone(), &cache.tables) else {
            return bits();
        };
        let charged =
            cache
                .blocks_left
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |left| {
                    left.checked_sub(blocks.count)
                });
        match charged {
            Ok(_) => CtCert::Blocks(blocks),
            Err(_) => bits(),
        }
    }

    fn decide_decoded(&self, view: &DecodedView<'_, CtCert>) -> Result<(), RejectReason> {
        let mine = view
            .own
            .blocks(self)
            .ok_or(RejectReason::MalformedCertificate)?;
        let mine = &*mine;
        // Block ids must be distinct within a vertex.
        if !distinct_blocks(mine) {
            return Err(RejectReason::MalformedCertificate);
        }
        let parsed = self.reparsed(view, mine)?;
        // Every neighbor's identifier and block list.
        let lists = view.neighbors().scan(0, |bits, (nid, _, decoded)| {
            Some(match decoded {
                CtCert::Blocks(blocks) => (nid, blocks),
                CtCert::Bits(_) => {
                    *bits += 1;
                    (nid, &parsed[*bits - 1])
                }
            })
        });
        with_scratch(|shared: &mut Vec<Option<(usize, usize)>>| {
            // Per neighbor, the one block it shares with me and where its
            // sub-certificate there sits. Every edge lies in exactly one
            // common block (the promise layer: a pair of adjacent
            // vertices shares exactly one block).
            shared.extend(lists.clone().map(|(_, blocks)| shared_block(blocks, mine)));
            if shared.iter().any(Option::is_none) {
                return Err(RejectReason::NonTreeEdge);
            }
            // Run the P_{t²} verifier inside each of my blocks,
            // restricting the view to same-block neighbors. Inner reasons
            // propagate.
            for (i, (at, _)) in mine.blocks().enumerate() {
                let nbrs = lists
                    .clone()
                    .zip(shared.iter())
                    .filter_map(|((nid, blocks), block)| match *block {
                        Some((j, theirs)) if j == i => Some((nid, blocks.sub(theirs))),
                        _ => None,
                    });
                self.inner.decide_ref(view.id, mine.sub(at), nbrs)?;
            }
            Ok(())
        })
    }
}

impl CtMinorFreeScheme {
    /// Of each neighbor whose decode kept only bits, in view order: its
    /// certificate parsed again, reduced to the one block it shares with
    /// `mine` (no block when it shares none or several), so a decision
    /// holds one full parse at a time. An honest run has no such
    /// neighbor, and this list stays empty and unallocated.
    fn reparsed(
        &self,
        view: &DecodedView<'_, CtCert>,
        mine: &CtBlocks,
    ) -> Result<Vec<CtBlocks>, RejectReason> {
        let mut parsed = Vec::new();
        for (_, _, decoded) in view.neighbors() {
            if let CtCert::Bits(cert) = decoded {
                let blocks = self
                    .parse(BitReader::new(cert), &Memo::default())
                    .ok_or(RejectReason::MalformedNeighborCertificate)?;
                parsed.push(match shared_block(&blocks, mine) {
                    Some((_, at)) => blocks.only(at),
                    None => CtBlocks::default(),
                });
            }
        }
        Ok(parsed)
    }
}

impl Scheme for CtMinorFreeScheme {
    fn name(&self) -> String {
        format!("C{}-minor-free", self.t)
    }

    fn declared_bound(&self) -> DeclaredBound {
        // Per-block P_{t²} kernels at O(log n) each; a vertex lies in at
        // most deg(v) blocks but the paper's measure counts the dominant
        // identifier-width fields, still O(log n) for fixed t on the
        // bounded-degree families exercised here.
        self.inner.declared_bound()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::test_views::{view_of, LocalView};
    use crate::framework::{run_scheme, run_verification, run_verification_in};
    use crate::schemes::common::id_bits_for;
    use crate::schemes::kernel_mso::reference::{self, agrees, truncated};
    use locert_graph::{generators, minors, GraphBuilder, IdAssignment};
    use locert_par::Pool;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    use std::collections::BTreeSet;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn pools() -> [Pool; 2] {
        [Pool::new(1), Pool::new(4)]
    }

    /// The prover as it stood: a fresh induced subgraph (and a dense
    /// index of all `n` vertices) and a full kernel prover run per block.
    fn assign_reference(
        scheme: &CtMinorFreeScheme,
        instance: &Instance<'_>,
    ) -> Result<Assignment, ProverError> {
        let g = instance.graph();
        let ids = instance.ids();
        let decomposition = biconnected_components(g);
        let mut per_vertex: Vec<Vec<((Ident, Ident), Certificate)>> =
            vec![Vec::new(); g.num_nodes()];
        let mut members = Vec::new();
        for bi in 0..decomposition.components.len() {
            decomposition.component_vertices(bi, &mut members);
            let mut member_ids: Vec<Ident> = members.iter().map(|&v| ids.ident(v)).collect();
            member_ids.sort();
            let block_id = (member_ids[0], member_ids[1]);
            let (sub, map) = g.induced_subgraph(&members);
            let sub_ids = IdAssignment::new(map.iter().map(|&v| ids.ident(v)).collect()).unwrap();
            let sub_asg = reference::assign(&scheme.inner, &Instance::new(&sub, &sub_ids))?;
            for (local, &global) in map.iter().enumerate() {
                per_vertex[global.0].push((block_id, sub_asg.cert(NodeId(local)).clone()));
            }
        }
        Ok(Assignment::new(
            per_vertex
                .iter()
                .map(|blocks| encode(scheme.id_bits, blocks))
                .collect::<Vec<_>>(),
        ))
    }

    /// The certificate listing `blocks`.
    fn encode(id_bits: u32, blocks: &[((Ident, Ident), Certificate)]) -> Certificate {
        let mut w = BitWriter::new();
        w.write(blocks.len() as u64, 16);
        for (block_id, cert) in blocks {
            w.write(block_id.0.value(), id_bits);
            w.write(block_id.1.value(), id_bits);
            w.write(cert.len_bits() as u64, 20);
            w.write_cert(cert);
        }
        w.finish()
    }

    /// The per-vertex decision as it stood: every certificate in the view
    /// parsed with every sub-certificate copied out, each block checked
    /// by the reference kernel verifier.
    fn decide_reference(
        scheme: &CtMinorFreeScheme,
        view: &LocalView<'_>,
    ) -> Result<(), RejectReason> {
        let mine = ct_parse_bitwise(scheme.id_bits, view.cert)
            .ok_or(RejectReason::MalformedCertificate)?;
        let mut block_ids: Vec<(Ident, Ident)> = mine.iter().map(|&(b, _)| b).collect();
        block_ids.sort();
        block_ids.dedup();
        if block_ids.len() != mine.len() {
            return Err(RejectReason::MalformedCertificate);
        }
        let mut nbr_blocks = Vec::with_capacity(view.neighbors.len());
        for &(nid, ninput, cert) in &view.neighbors {
            let nb = ct_parse_bitwise(scheme.id_bits, cert)
                .ok_or(RejectReason::MalformedNeighborCertificate)?;
            nbr_blocks.push((nid, ninput, nb));
        }
        for (_, _, nb) in &nbr_blocks {
            let common = mine
                .iter()
                .filter(|(b, _)| nb.iter().any(|(nb_id, _)| nb_id == b))
                .count();
            if common != 1 {
                return Err(RejectReason::NonTreeEdge);
            }
        }
        for (block, sub_cert) in &mine {
            let neighbors: Vec<(Ident, usize, &Certificate)> = nbr_blocks
                .iter()
                .filter_map(|(nid, ninput, nb)| {
                    nb.iter()
                        .find(|(b, _)| b == block)
                        .map(|(_, c)| (*nid, *ninput, c))
                })
                .collect();
            let sub_view = LocalView {
                id: view.id,
                input: view.input,
                cert: sub_cert,
                neighbors,
            };
            reference::decide(&scheme.inner, &sub_view)?;
        }
        Ok(())
    }

    /// A seeded cactus on about `n` vertices: each step hangs a bridge or
    /// a cycle of length `3..=max_cycle` off a random vertex.
    fn cactus(n: usize, max_cycle: usize, rng: &mut StdRng) -> Graph {
        let mut edges = Vec::new();
        let mut size = 1;
        while size < n {
            let at = rng.random_range(0..size);
            let len = rng.random_range(2..=max_cycle);
            let mut prev = at;
            for _ in 1..len {
                edges.push((prev, size));
                prev = size;
                size += 1;
            }
            if len > 2 {
                edges.push((prev, at));
            }
        }
        Graph::from_edges(size, edges).unwrap()
    }

    /// `count` cycles of length `len` in a chain, consecutive cycles
    /// sharing one vertex.
    fn cycle_chain(count: usize, len: usize) -> Graph {
        let n = 1 + count * (len - 1);
        let mut b = GraphBuilder::new(n);
        for c in 0..count {
            let start = c * (len - 1);
            for i in 0..len - 1 {
                b.add_edge(start + i, start + i + 1).unwrap();
            }
            b.add_edge(start + len - 1, start).unwrap();
        }
        b.build()
    }

    /// Connected test graphs for the minor-freeness schemes.
    fn ct_graphs(rng: &mut StdRng) -> Vec<Graph> {
        let mut graphs = vec![
            generators::path(2),
            generators::path(9),
            generators::cycle(3),
            generators::cycle(5),
            generators::cycle(10),
            cycle_chain(4, 3),
            cycle_chain(3, 4),
            generators::star(6),
        ];
        for _ in 0..4 {
            graphs.push(cactus(12, 5, rng));
        }
        // Renumbered cacti: equal-length cycles whose blocks differ in
        // their CSR arrays.
        for _ in 0..3 {
            let g = cactus(14, 4, rng);
            let mut perm: Vec<usize> = (0..g.num_nodes()).collect();
            for i in (1..perm.len()).rev() {
                perm.swap(i, rng.random_range(0..=i));
            }
            let edges = g.edges().map(|(u, v)| (perm[u.0], perm[v.0]));
            graphs.push(Graph::from_edges(g.num_nodes(), edges).unwrap());
        }
        for n in [6, 9] {
            graphs.push(generators::random_connected(n, 2, rng));
        }
        graphs
    }

    #[test]
    fn ct_prover_matches_reference() {
        let mut rng = StdRng::seed_from_u64(0x15c);
        for g in ct_graphs(&mut rng) {
            let n = g.num_nodes();
            for ids in [
                IdAssignment::contiguous(n),
                IdAssignment::shuffled(n, &mut rng),
            ] {
                let inst = Instance::new(&g, &ids);
                for t in [3, 4, 5] {
                    let scheme = CtMinorFreeScheme::new(id_bits_for(&inst), t);
                    assert_eq!(
                        scheme.assign(&inst),
                        assign_reference(&scheme, &inst),
                        "t = {t} on {g:?}"
                    );
                }
            }
        }
    }

    /// `honest` under the mutation `trial` selects, at seeded positions.
    fn ct_mutated(
        scheme: &CtMinorFreeScheme,
        g: &Graph,
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
        let mut blocks = ct_parse_bitwise(scheme.id_bits, cert).expect("honest");
        match trial % 7 {
            0 => *asg.cert_mut(v) = cert.with_bit_flipped(rng.random_range(0..len)),
            1 => *asg.cert_mut(v) = truncated(cert, rng.random_range(0..len)),
            // v's certificate copied onto a neighbor, which then lists
            // every block of v.
            5 if g.degree(v) > 0 => {
                let w = g.neighbors(v)[rng.random_range(0..g.degree(v))];
                *asg.cert_mut(w) = cert.clone();
            }
            2 => {
                *asg.cert_mut(v) = honest.cert(u).clone();
                *asg.cert_mut(u) = cert.clone();
            }
            // One block's sub-certificate moved to another of v's blocks.
            3 if blocks.len() >= 2 => {
                let from = rng.random_range(0..blocks.len());
                let to = (from + 1 + rng.random_range(0..blocks.len() - 1)) % blocks.len();
                blocks[to].1 = blocks[from].1.clone();
                *asg.cert_mut(v) = encode(scheme.id_bits, &blocks);
            }
            // A block's table altered in v's copy only.
            3 | 4 => {
                let i = rng.random_range(0..blocks.len());
                let sub = &blocks[i].1;
                let table = reference::table_bits(&scheme.inner, sub).expect("honest");
                let bit = sub.len_bits() - 1 - rng.random_range(0..table);
                blocks[i].1 = sub.with_bit_flipped(bit);
                *asg.cert_mut(v) = encode(scheme.id_bits, &blocks);
            }
            _ => *asg.cert_mut(v) = Certificate::empty(),
        }
        asg
    }

    #[test]
    fn blocks_past_the_budget_keep_only_their_bits() {
        // Budgets from none to half an honest run's blocks: decodes past
        // the budget keep only their bits, and verdicts do not change.
        let mut rng = StdRng::seed_from_u64(0x16c);
        let mut refused = 0;
        for g in ct_graphs(&mut rng) {
            let n = g.num_nodes();
            let ids = IdAssignment::shuffled(n, &mut rng);
            let inst = Instance::new(&g, &ids);
            let scheme = CtMinorFreeScheme::new(id_bits_for(&inst), 4);
            let Ok(honest) = scheme.assign(&inst) else {
                continue;
            };
            let total: usize = g.nodes().map(|v| honest_blocks(&scheme, &honest, v)).sum();
            for trial in 0..8 {
                let asg = ct_mutated(&scheme, &g, &honest, trial, &mut rng);
                let expected: Vec<_> = g
                    .nodes()
                    .map(|v| decide_reference(&scheme, &view_of(&inst, &asg, v)).err())
                    .collect();
                for budget in [0, 3, total / 2, DECODED_BLOCKS] {
                    let cache = CtCache::with_budget(budget);
                    let decoded: Vec<CtCert> = g
                        .nodes()
                        .map(|v| scheme.decode(BitReader::new(asg.cert(v)), &cache))
                        .collect();
                    let mut held = 0;
                    for d in &decoded {
                        match d {
                            CtCert::Blocks(list) => held += list.count,
                            CtCert::Bits(cert) => {
                                let parse = scheme.parse(BitReader::new(cert), &cache.tables);
                                refused += usize::from(parse.is_some())
                            }
                        }
                    }
                    assert!(
                        held <= budget,
                        "{held} blocks held past a budget of {budget}"
                    );
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
                    assert_eq!(reasons, expected, "budget {budget}");
                }
            }
        }
        assert!(refused > 0, "no certificate went past the budget");
    }

    #[test]
    fn reparsed_neighbors_keep_one_block_each() {
        // A star whose leaves each list their one honest block behind 64
        // copies of it under ids that name no block of the center. With
        // no budget every leaf keeps only bits, and the center's decision
        // keeps one block of each, not each leaf's whole parse.
        let g = generators::star(17);
        let ids = IdAssignment::contiguous(17);
        let inst = Instance::new(&g, &ids);
        let scheme = CtMinorFreeScheme::new(id_bits_for(&inst), 3);
        let mut asg = scheme.assign(&inst).expect("a star is C_3-minor-free");
        let center = NodeId(0);
        // The most words a leaf's one honest block decodes to.
        let honest_words = g
            .neighbors(center)
            .iter()
            .map(
                |&leaf| match scheme.decode(BitReader::new(asg.cert(leaf)), &CtCache::default()) {
                    CtCert::Blocks(blocks) => blocks.words.len(),
                    CtCert::Bits(_) => unreachable!("an honest certificate parses"),
                },
            )
            .max()
            .unwrap();
        for &leaf in g.neighbors(center) {
            let honest = ct_parse_bitwise(scheme.id_bits, asg.cert(leaf)).expect("honest");
            let sub = &honest[0].1;
            let junk = (1..=64u64).map(|j| ((Ident(j % 17), Ident(j % 17)), sub.clone()));
            let blocks: Vec<_> = junk.chain(honest.iter().cloned()).collect();
            *asg.cert_mut(leaf) = encode(scheme.id_bits, &blocks);
        }
        let cache = CtCache::with_budget(0);
        let decoded: Vec<CtCert> = g
            .nodes()
            .map(|v| scheme.decode(BitReader::new(asg.cert(v)), &cache))
            .collect();
        let nbrs: Vec<_> = g
            .neighbors(center)
            .iter()
            .map(|&u| (ids.ident(u), 0, &decoded[u.0]))
            .collect();
        let view = DecodedView::listed(ids.ident(center), 0, &decoded[center.0], &nbrs);
        let mine = decoded[center.0].blocks(&scheme).expect("honest");
        let kept = scheme.reparsed(&view, &mine).expect("the leaves parse");
        assert_eq!(kept.len(), 16);
        for blocks in &kept {
            assert_eq!(blocks.count, 1);
            assert!(blocks.words.len() <= honest_words);
            assert!(blocks.sub(0).is_some());
        }
        let expected = decide_reference(&scheme, &view_of(&inst, &asg, center));
        assert_eq!(scheme.decide_decoded(&view), expected);
        assert_eq!(expected, Ok(()));
    }

    /// The number of blocks vertex `v`'s honest certificate lists.
    fn honest_blocks(scheme: &CtMinorFreeScheme, honest: &Assignment, v: NodeId) -> usize {
        ct_parse_bitwise(scheme.id_bits, honest.cert(v))
            .expect("honest")
            .len()
    }

    #[test]
    fn ct_run_path_matches_reference_under_mutations() {
        let pools = pools();
        let mut rng = StdRng::seed_from_u64(0x15d);
        let mut reasons = BTreeSet::new();
        for g in ct_graphs(&mut rng) {
            let n = g.num_nodes();
            let ids = IdAssignment::shuffled(n, &mut rng);
            let inst = Instance::new(&g, &ids);
            let scheme = CtMinorFreeScheme::new(id_bits_for(&inst), 4);
            let Ok(honest) = scheme.assign(&inst) else {
                continue;
            };
            let reference = |view: &LocalView<'_>| decide_reference(&scheme, view);
            let verdicts = agrees(&pools, &scheme, reference, &inst, &honest);
            assert!(verdicts.iter().all(|v| v.accepted));
            for trial in 0..42 {
                let asg = ct_mutated(&scheme, &g, &honest, trial, &mut rng);
                let verdicts = agrees(&pools, &scheme, reference, &inst, &asg);
                reasons.extend(verdicts.iter().map(|v| v.reason.map(|r| r.code())));
            }
        }
        for reason in [
            RejectReason::MalformedCertificate,
            RejectReason::MalformedNeighborCertificate,
            RejectReason::NonTreeEdge,
            RejectReason::CopyMismatch,
        ] {
            assert!(
                reasons.contains(&Some(reason.code())),
                "{reason} never seen in {reasons:?}"
            );
        }
        assert!(reasons.contains(&None));
    }

    #[test]
    fn path_free_run_path_matches_reference_under_mutations() {
        let pools = pools();
        let mut rng = StdRng::seed_from_u64(0x15e);
        for g in [
            generators::star(8),
            generators::spider(3, 1),
            generators::random_tree(9, &mut rng),
        ] {
            let n = g.num_nodes();
            let ids = IdAssignment::shuffled(n, &mut rng);
            let inst = Instance::new(&g, &ids);
            let scheme = PathMinorFreeScheme::new(id_bits_for(&inst), 5);
            let Ok(honest) = scheme.assign(&inst) else {
                continue;
            };
            let reference = |view: &LocalView<'_>| reference::decide(&scheme.inner, view);
            assert!(agrees(&pools, &scheme, reference, &inst, &honest)
                .iter()
                .all(|v| v.accepted));
            for _ in 0..30 {
                let mut asg = honest.clone();
                let v = NodeId(rng.random_range(0..n));
                let bit = rng.random_range(0..honest.cert(v).len_bits());
                *asg.cert_mut(v) = honest.cert(v).with_bit_flipped(bit);
                agrees(&pools, &scheme, reference, &inst, &asg);
            }
        }
    }

    #[test]
    fn ct_phi_runs_once_per_table_and_root_per_run() {
        let calls = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&calls);
        let mut rng = StdRng::seed_from_u64(0x15f);
        // Bridges, triangles and 4-cycles: several block shapes.
        let g = cactus(30, 4, &mut rng);
        let n = g.num_nodes();
        let ids = IdAssignment::shuffled(n, &mut rng);
        let inst = Instance::new(&g, &ids);
        let max_len = 25;
        let scheme = CtMinorFreeScheme {
            id_bits: id_bits_for(&inst),
            t: 5,
            inner: KernelMsoScheme::new(
                id_bits_for(&inst),
                max_len,
                props::ct_minor_free_bounded(5, max_len),
            )
            .unwrap()
            .with_strategy(ModelStrategy::Dfs)
            .with_evaluator(move |h| {
                counter.fetch_add(1, Ordering::SeqCst);
                !minors::has_path_of_order(h, max_len + 1)
                    && !minors::has_cycle_at_least(h, 5, max_len)
            }),
        };
        let asg = scheme.assign(&inst).unwrap();
        // The distinct (table, root) pairs among all sub-certificates.
        let distinct: BTreeSet<(u32, String)> = g
            .nodes()
            .flat_map(|v| ct_parse_bitwise(scheme.id_bits, asg.cert(v)).unwrap())
            .map(|(_, sub)| {
                let (root, table) = reference::root_and_table(&scheme.inner, &sub).unwrap();
                (root, table.to_hex())
            })
            .collect();
        assert!(distinct.len() >= 2, "{distinct:?}");
        for pool in pools() {
            calls.store(0, Ordering::SeqCst);
            assert!(run_verification_in(&pool, &scheme, &inst, &asg).accepted());
            assert_eq!(
                calls.load(Ordering::SeqCst),
                distinct.len(),
                "{} workers",
                pool.threads()
            );
            assert!(run_verification_in(&pool, &scheme, &inst, &asg).accepted());
            assert_eq!(
                calls.load(Ordering::SeqCst),
                2 * distinct.len(),
                "{} workers",
                pool.threads()
            );
        }
    }

    /// Ground truth: on connected graphs the prover succeeds iff the
    /// graph is `C_t`-minor-free, and its certificates are accepted.
    #[test]
    fn ct_free_matches_ground_truth() {
        let mut rng = StdRng::seed_from_u64(0x15a);
        let mut graphs = Vec::new();
        for _ in 0..40 {
            let n = rng.random_range(1..=10usize);
            let extra = rng.random_range(0..=n.min(5));
            let extra = extra.min(n * (n - 1) / 2 - (n - 1));
            graphs.push(generators::random_connected(n, extra, &mut rng));
        }
        for _ in 0..12 {
            graphs.push(cactus(rng.random_range(4..=14), 6, &mut rng));
        }
        let mut outcomes = BTreeSet::new();
        for g in &graphs {
            let n = g.num_nodes();
            let ids = IdAssignment::shuffled(n, &mut rng);
            let inst = Instance::new(g, &ids);
            for t in [3, 4] {
                let free = !minors::has_cycle_minor(g, t);
                let scheme = CtMinorFreeScheme::new(id_bits_for(&inst), t);
                match run_scheme(&scheme, &inst) {
                    Ok(out) => {
                        assert!(free, "certified a C_{t} minor in {g:?}");
                        assert!(out.accepted(), "rejected honest certificates on {g:?}");
                    }
                    Err(ProverError::NotAYesInstance) => {
                        assert!(!free, "refused a C_{t}-minor-free graph {g:?}")
                    }
                    Err(e) => panic!("prover error for t = {t} on {g:?}: {e}"),
                }
                outcomes.insert((t, free));
            }
        }
        // Both answers occur for both t.
        assert_eq!(outcomes.len(), 4, "{outcomes:?}");
    }

    #[test]
    fn path_free_stars_and_spiders() {
        // A star has no P_4; a spider with legs of length 2 has P_5 but
        // no P_6.
        let star = generators::star(9);
        let ids = IdAssignment::contiguous(9);
        let inst = Instance::new(&star, &ids);
        let scheme = PathMinorFreeScheme::new(id_bits_for(&inst), 4);
        assert!(run_scheme(&scheme, &inst).unwrap().accepted());
        let spider = generators::spider(3, 2);
        let ids7 = IdAssignment::contiguous(7);
        let inst7 = Instance::new(&spider, &ids7);
        assert!(
            run_scheme(&PathMinorFreeScheme::new(id_bits_for(&inst7), 6), &inst7)
                .unwrap()
                .accepted()
        );
        assert_eq!(
            run_scheme(&PathMinorFreeScheme::new(id_bits_for(&inst7), 5), &inst7).unwrap_err(),
            ProverError::NotAYesInstance
        );
    }

    #[test]
    fn path_free_matches_ground_truth_on_random_trees() {
        let mut rng = StdRng::seed_from_u64(161);
        for _ in 0..10 {
            let g = generators::random_tree(10, &mut rng);
            let ids = IdAssignment::contiguous(10);
            let inst = Instance::new(&g, &ids);
            for t in 3..=6 {
                let expected = !minors::has_path_minor(&g, t);
                let scheme = PathMinorFreeScheme::new(id_bits_for(&inst), t);
                match run_scheme(&scheme, &inst) {
                    Ok(out) => {
                        assert!(out.accepted());
                        assert!(expected, "accepted P_{t}-minor graph {g:?}");
                    }
                    Err(ProverError::NotAYesInstance) => {
                        assert!(!expected, "refused P_{t}-minor-free graph {g:?}");
                    }
                    Err(e) => panic!("prover error for {} on tree {g:?}: {e}", scheme.name()),
                }
            }
        }
    }

    #[test]
    fn path_free_size_logarithmic() {
        let mut sizes = Vec::new();
        for n in [8usize, 64, 512] {
            let g = generators::star(n);
            let ids = IdAssignment::contiguous(n);
            let inst = Instance::new(&g, &ids);
            let scheme = PathMinorFreeScheme::new(id_bits_for(&inst), 4);
            let out = run_scheme(&scheme, &inst).unwrap();
            assert!(out.accepted());
            sizes.push(out.max_bits());
        }
        // Doubling n adds only O(1) id bits.
        assert!(sizes[2] - sizes[1] <= 40, "sizes {sizes:?}");
    }

    /// The paper's Appendix D.3 lemma, validated empirically: blocks of
    /// C_t-minor-free graphs are P_{t²}-minor-free.
    #[test]
    fn blocks_of_ct_free_graphs_are_path_bounded() {
        let mut rng = StdRng::seed_from_u64(162);
        for _ in 0..20 {
            let g = generators::random_connected(12, 4, &mut rng);
            for t in [4usize, 5] {
                if minors::has_cycle_minor(&g, t) {
                    continue;
                }
                let d = biconnected_components(&g);
                let mut members = Vec::new();
                for bi in 0..d.components.len() {
                    d.component_vertices(bi, &mut members);
                    let (sub, _) = g.induced_subgraph(&members);
                    assert!(
                        !minors::has_path_minor(&sub, t * t),
                        "C_{t}-free graph has a block with a P_{} minor: {g:?}",
                        t * t
                    );
                }
            }
        }
    }

    /// The bit-at-a-time `CtMinorFreeScheme::parse` that `read_cert`
    /// replaces.
    fn ct_parse_bitwise(
        id_bits: u32,
        cert: &Certificate,
    ) -> Option<Vec<((Ident, Ident), Certificate)>> {
        let mut r = BitReader::new(cert);
        let count = r.read(16)? as usize;
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            let block = (Ident(r.read(id_bits)?), Ident(r.read(id_bits)?));
            let len = r.read(20)? as usize;
            if len > r.remaining() {
                return None;
            }
            let mut w = BitWriter::new();
            for _ in 0..len {
                w.write_bit(r.read_bit()?);
            }
            out.push((block, w.finish()));
        }
        r.exhausted().then_some(out)
    }

    /// The block ids `cert` decodes to, each with whether its
    /// sub-certificate decodes.
    fn decoded_shape(
        scheme: &CtMinorFreeScheme,
        cert: &Certificate,
    ) -> Option<Vec<((Ident, Ident), bool)>> {
        let blocks = scheme.parse(BitReader::new(cert), &Memo::default())?;
        let shape = blocks.blocks().map(|(at, b)| (b, blocks.sub(at).is_some()));
        Some(shape.collect())
    }

    /// The same from the bit-at-a-time parse, decoding each copied-out
    /// sub-certificate on its own.
    fn bitwise_shape(
        scheme: &CtMinorFreeScheme,
        cert: &Certificate,
    ) -> Option<Vec<((Ident, Ident), bool)>> {
        let blocks = ct_parse_bitwise(scheme.id_bits, cert)?;
        let memo = Memo::default();
        Some(
            blocks
                .iter()
                .map(|(b, sub)| {
                    let decoded = scheme.inner.decode(BitReader::new(sub), &memo);
                    (*b, decoded.is_some())
                })
                .collect(),
        )
    }

    #[test]
    fn ct_parse_matches_bit_loop() {
        use rand::RngExt;
        let mut rng = StdRng::seed_from_u64(41);
        // id_bits 1..=8 puts the first sub-certificate at every offset
        // mod 8.
        for id_bits in 1..=8u32 {
            let scheme = CtMinorFreeScheme::new(id_bits, 3);
            for _ in 0..12 {
                // Well-formed layouts with random payloads, then every
                // truncation and one over-long variant.
                let mut w = BitWriter::new();
                let count = rng.random_range(0..4u64);
                w.write(count, 16);
                for _ in 0..count {
                    w.write(rng.random_range(0..1u64 << id_bits), id_bits);
                    w.write(rng.random_range(0..1u64 << id_bits), id_bits);
                    let len = rng.random_range(0..90u64);
                    w.write(len, 20);
                    for _ in 0..len {
                        w.write_bit(rng.random_bool(0.5));
                    }
                }
                let full = w.clone().finish();
                w.write_bit(true);
                let over = w.finish();
                assert_eq!(decoded_shape(&scheme, &over), bitwise_shape(&scheme, &over));
                assert!(decoded_shape(&scheme, &full).is_some());
                for cut in 0..=full.len_bits() {
                    let prefix = BitReader::new(&full).read_cert(cut).unwrap();
                    assert_eq!(
                        decoded_shape(&scheme, &prefix),
                        bitwise_shape(&scheme, &prefix)
                    );
                }
            }
        }
    }

    #[test]
    fn ct_free_accepts_trees_and_small_cycles() {
        // Trees are C_3-minor-free.
        let g = generators::spider(3, 2);
        let ids = IdAssignment::contiguous(7);
        let inst = Instance::new(&g, &ids);
        let scheme = CtMinorFreeScheme::new(id_bits_for(&inst), 3);
        assert!(run_scheme(&scheme, &inst).unwrap().accepted());
        // A triangle is C_4-minor-free but not C_3-minor-free.
        let tri = generators::cycle(3);
        let ids3 = IdAssignment::contiguous(3);
        let inst3 = Instance::new(&tri, &ids3);
        assert!(
            run_scheme(&CtMinorFreeScheme::new(id_bits_for(&inst3), 4), &inst3)
                .unwrap()
                .accepted()
        );
        assert_eq!(
            run_scheme(&CtMinorFreeScheme::new(id_bits_for(&inst3), 3), &inst3).unwrap_err(),
            ProverError::NotAYesInstance
        );
    }

    #[test]
    fn ct_free_on_cactus_like_graphs() {
        // Two triangles joined by a bridge: C_4-minor-free.
        let g =
            Graph::from_edges(6, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3)]).unwrap();
        let ids = IdAssignment::contiguous(6);
        let inst = Instance::new(&g, &ids);
        let scheme = CtMinorFreeScheme::new(id_bits_for(&inst), 4);
        assert!(run_scheme(&scheme, &inst).unwrap().accepted());
        // A C_6 has a C_4 minor: the cycle-range conjunct refuses it.
        let c6 = generators::cycle(6);
        let ids6 = IdAssignment::contiguous(6);
        let inst6 = Instance::new(&c6, &ids6);
        let scheme6 = CtMinorFreeScheme::new(id_bits_for(&inst6), 4);
        assert_eq!(
            run_scheme(&scheme6, &inst6).unwrap_err(),
            ProverError::NotAYesInstance
        );
        // A C_17 additionally violates the path bound (P_17 ⊄ allowed).
        let big = generators::cycle(17);
        let ids17 = IdAssignment::contiguous(17);
        let inst17 = Instance::new(&big, &ids17);
        let scheme4 = CtMinorFreeScheme::new(id_bits_for(&inst17), 4);
        assert_eq!(
            run_scheme(&scheme4, &inst17).unwrap_err(),
            ProverError::NotAYesInstance
        );
    }

    #[test]
    fn ct_replay_with_wrong_blocks_rejected() {
        // Take honest certificates for two triangles sharing a bridge,
        // replay them with a forged extra edge merging the blocks: the
        // common-block check fails at the new edge's endpoints.
        let g =
            Graph::from_edges(6, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3)]).unwrap();
        let ids = IdAssignment::contiguous(6);
        let inst = Instance::new(&g, &ids);
        let scheme = CtMinorFreeScheme::new(id_bits_for(&inst), 4);
        let honest = scheme.assign(&inst).unwrap();
        let merged = g.with_edges([(0, 4)]).unwrap();
        let inst2 = Instance::new(&merged, &ids);
        assert!(!run_verification(&scheme, &inst2, &honest).accepted());
    }
}
