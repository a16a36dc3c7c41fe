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
    Assignment, DeclaredBound, Decode, DecodedView, Held, Instance, Memo, Prover, ProverError,
    RejectReason, Scheme,
};
use crate::schemes::kernel_mso::{KernelCert, KernelMsoScheme, KernelShape, ParsedTable};
use crate::schemes::treedepth::ModelStrategy;
use locert_graph::bcc::biconnected_components;
use locert_graph::{Graph, IdAssignment, Ident, NodeId};
use locert_logic::props;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Block decodes one `C_t` run keeps in its arena. An honest run lists
/// each block once per member, at most 2n entries in all. The budget
/// bounds memory when an adversarial assignment lists up to 2^16 blocks
/// per certificate, each decoding to several times its bits: past it, a
/// certificate's decode keeps only its bits, and each decision that reads
/// it parses it again and drops the parse.
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

    fn decode(&self, cert: &Certificate, memo: &Memo<ParsedTable>) -> Option<KernelCert> {
        self.inner.decode(cert, memo)
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

/// The blocks a `C_t` certificate lists: each block id with the decoded
/// `P_{t²}` sub-certificate for that block.
pub type BlockList = Box<[((Ident, Ident), Option<KernelCert>)]>;

/// A decoded `C_t` certificate (two words, like the block list alone).
pub enum CtCert {
    /// The blocks it lists.
    Blocks(BlockList),
    /// A certificate that does not parse or is past the run's block
    /// budget: only its bits, parsed again by each decision that reads
    /// it.
    Bits(Box<Certificate>),
}

impl CtCert {
    /// The block list, from the arena or parsed again; `None` when the
    /// certificate does not parse.
    fn blocks(&self, scheme: &CtMinorFreeScheme) -> Option<Held<'_, BlockList>> {
        match self {
            CtCert::Blocks(blocks) => Some(Held::Kept(blocks)),
            CtCert::Bits(cert) => scheme.parse(cert, &Memo::default()).map(Held::Parsed),
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
fn distinct_blocks(blocks: &BlockList) -> bool {
    if blocks.len() <= 8 {
        return blocks
            .iter()
            .enumerate()
            .all(|(i, (b, _))| blocks[..i].iter().all(|(c, _)| c != b));
    }
    let mut ids: Vec<(Ident, Ident)> = blocks.iter().map(|&(b, _)| b).collect();
    ids.sort_unstable();
    ids.windows(2).all(|w| w[0] != w[1])
}

/// The one block of `mine` that a neighbor's `blocks` shares: its index in
/// `mine` and the index in `blocks` of the neighbor's sub-certificate
/// there (the first the neighbor lists with that id); `None` unless the
/// neighbor lists exactly one of my blocks.
fn shared_block(blocks: &BlockList, mine: &BlockList) -> Option<(usize, usize)> {
    let mut shared: Option<(usize, usize)> = None;
    for (k, (block, _)) in blocks.iter().enumerate() {
        if let Some(i) = mine.iter().position(|(b, _)| b == block) {
            match shared {
                None => shared = Some((i, k)),
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
        // Per-vertex block certificate lists.
        let mut per_vertex: Vec<Vec<((Ident, Ident), Certificate)>> =
            vec![Vec::new(); g.num_nodes()];
        // One dense block-local index per vertex, `usize::MAX` off the
        // current block; each block resets only the entries it set, so
        // building every block costs O(n + m) in total.
        let mut local = vec![usize::MAX; g.num_nodes()];
        // The P_{t²} prover's shape reads the block graph alone, so blocks
        // with equal CSR arrays (every edge of a path, say) share one.
        let mut shapes: HashMap<Graph, KernelShape> = HashMap::new();
        for bi in 0..decomposition.components.len() {
            let members = decomposition.component_vertices(bi);
            for (i, &v) in members.iter().enumerate() {
                local[v.0] = i;
            }
            let sub = g.induced_on_sorted(&members, &local);
            for &v in &members {
                local[v.0] = usize::MAX;
            }
            // Block id: the two smallest member identifiers (unique,
            // since distinct blocks share at most one vertex).
            let mut member_ids: Vec<Ident> = members.iter().map(|&v| ids.ident(v)).collect();
            member_ids.sort();
            let block_id = (member_ids[0], member_ids[1]);
            // Run the P_{t²} scheme on the block-induced subgraph with the
            // members' own identifiers.
            if !shapes.contains_key(&sub) {
                let shape = self.inner.shape(&sub)?;
                shapes.insert(sub.clone(), shape);
            }
            let sub_ids = IdAssignment::new(members.iter().map(|&v| ids.ident(v)).collect())
                .expect("identifiers stay distinct");
            let sub_asg = self
                .inner
                .stamp(&Instance::new(&sub, &sub_ids), &shapes[&sub]);
            for (i, &v) in members.iter().enumerate() {
                per_vertex[v.0].push((block_id, sub_asg.cert(NodeId(i)).clone()));
            }
        }
        let certs = per_vertex
            .into_iter()
            .enumerate()
            .map(|(v, blocks)| {
                let mut w = BitWriter::new();
                w.component("block-count");
                w.write(blocks.len() as u64, 16);
                for (block_id, cert) in blocks {
                    w.component("block-id");
                    w.write(block_id.0.value(), self.id_bits);
                    w.write(block_id.1.value(), self.id_bits);
                    w.component("length-header");
                    w.write(cert.len_bits() as u64, 20);
                    w.component("embedded");
                    w.write_cert(&cert);
                }
                w.finish_for(v)
            })
            .collect();
        Ok(Assignment::new(certs))
    }
}

impl CtMinorFreeScheme {
    /// The blocks `cert` lists, each block's sub-certificate read in place
    /// (nothing is copied); `None` if it does not parse.
    fn parse(&self, cert: &Certificate, memo: &Memo<ParsedTable>) -> Option<BlockList> {
        let mut r = BitReader::new(cert);
        let count = r.read(16)? as usize;
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            let block = (Ident(r.read(self.id_bits)?), Ident(r.read(self.id_bits)?));
            let len = r.read(20)? as usize;
            out.push((block, self.inner.parse_in(memo, r.take(len)?)));
        }
        r.exhausted().then(|| out.into_boxed_slice())
    }
}

impl Decode for CtMinorFreeScheme {
    type Decoded = CtCert;
    type Cache = CtCache;

    fn decode(&self, cert: &Certificate, cache: &CtCache) -> CtCert {
        let bits = || CtCert::Bits(Box::new(cert.clone()));
        let Some(blocks) = self.parse(cert, &cache.tables) else {
            return bits();
        };
        let charged =
            cache
                .blocks_left
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |left| {
                    left.checked_sub(blocks.len())
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
        // Per neighbor, the sub-certificate of the one block it shares
        // with me; of a neighbor parsed again, only that block is kept.
        let mut shared = Vec::with_capacity(view.degree());
        for (nid, ninput, decoded) in view.neighbors() {
            let blocks = decoded
                .blocks(self)
                .ok_or(RejectReason::MalformedNeighborCertificate)?;
            let block = shared_block(&blocks, mine).map(|(i, k)| {
                let sub = match blocks {
                    Held::Kept(list) => Held::Kept(&list[k].1),
                    Held::Parsed(list) => Held::Parsed(list.into_vec().swap_remove(k).1),
                };
                (i, sub)
            });
            shared.push((nid, ninput, block));
        }
        // Every edge lies in exactly one common block (the promise layer:
        // a pair of adjacent vertices shares exactly one block).
        if shared.iter().any(|(_, _, block)| block.is_none()) {
            return Err(RejectReason::NonTreeEdge);
        }
        // Run the P_{t²} verifier inside each of my blocks, restricting
        // the view to same-block neighbors. Inner reasons propagate.
        let mut neighbors = Vec::with_capacity(shared.len());
        for (i, (_, sub)) in mine.iter().enumerate() {
            neighbors.clear();
            neighbors.extend(
                shared
                    .iter()
                    .filter_map(|(nid, ninput, block)| match block {
                        Some((j, sub)) if *j == i => Some((*nid, *ninput, &**sub)),
                        _ => None,
                    }),
            );
            self.inner
                .decide_decoded(&DecodedView::listed(view.id, view.input, sub, &neighbors))?;
        }
        Ok(())
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
    use crate::framework::{run_scheme, run_verification, run_verification_in, view_of, LocalView};
    use crate::schemes::common::id_bits_for;
    use crate::schemes::kernel_mso::reference::{self, agrees, truncated};
    use locert_graph::{generators, minors, GraphBuilder};
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
        for bi in 0..decomposition.components.len() {
            let members = decomposition.component_vertices(bi);
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
                .collect(),
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
                        .map(|v| scheme.decode(asg.cert(v), &cache))
                        .collect();
                    let mut held = 0;
                    for d in &decoded {
                        match d {
                            CtCert::Blocks(list) => held += list.len(),
                            CtCert::Bits(cert) => {
                                refused += usize::from(scheme.parse(cert, &cache.tables).is_some())
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
                for bi in 0..d.components.len() {
                    let (sub, _) = g.induced_subgraph(&d.component_vertices(bi));
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
        let blocks = scheme.parse(cert, &Memo::default())?;
        Some(blocks.iter().map(|(b, sub)| (*b, sub.is_some())).collect())
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
                .map(|(b, sub)| (*b, scheme.inner.decode(sub, &memo).is_some()))
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
