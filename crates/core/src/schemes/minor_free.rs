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
    Assignment, DeclaredBound, Instance, LocalView, Prover, ProverError, RejectReason, Scheme,
    Verifier,
};
use crate::schemes::kernel_mso::KernelMsoScheme;
use crate::schemes::treedepth::ModelStrategy;
use locert_graph::bcc::biconnected_components;
use locert_graph::{IdAssignment, Ident, NodeId};
use locert_logic::props;

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

impl Verifier for PathMinorFreeScheme {
    fn decide(&self, view: &LocalView<'_>) -> Result<(), RejectReason> {
        self.inner.decide(view)
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

    fn parse(&self, cert: &Certificate) -> Option<Vec<((Ident, Ident), Certificate)>> {
        let mut r = BitReader::new(cert);
        let count = r.read(16)? as usize;
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            let block = (Ident(r.read(self.id_bits)?), Ident(r.read(self.id_bits)?));
            let len = r.read(20)? as usize;
            out.push((block, r.read_cert(len)?));
        }
        r.exhausted().then_some(out)
    }
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
        for (bi, _) in decomposition.components.iter().enumerate() {
            let members = decomposition.component_vertices(bi);
            // Block id: the two smallest member identifiers (unique,
            // since distinct blocks share at most one vertex).
            let mut member_ids: Vec<Ident> = members.iter().map(|&v| ids.ident(v)).collect();
            member_ids.sort();
            let block_id = (member_ids[0], member_ids[1]);
            // Run the P_{t²} scheme on the block-induced subgraph with the
            // members' own identifiers.
            let (sub, map) = g.induced_subgraph(&members);
            let sub_ids = IdAssignment::new(map.iter().map(|&v| ids.ident(v)).collect())
                .expect("identifiers stay distinct");
            let sub_inst = Instance::new(&sub, &sub_ids);
            let sub_asg = self.inner.assign(&sub_inst)?;
            for (local, &global) in map.iter().enumerate() {
                per_vertex[global.0].push((block_id, sub_asg.cert(NodeId(local)).clone()));
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

impl Verifier for CtMinorFreeScheme {
    fn decide(&self, view: &LocalView<'_>) -> Result<(), RejectReason> {
        let mine = self
            .parse(view.cert)
            .ok_or(RejectReason::MalformedCertificate)?;
        // Block ids must be distinct within a vertex.
        let mut block_ids: Vec<(Ident, Ident)> = mine.iter().map(|&(b, _)| b).collect();
        block_ids.sort();
        block_ids.dedup();
        if block_ids.len() != mine.len() {
            return Err(RejectReason::MalformedCertificate);
        }
        // Parse neighbors.
        let mut nbr_blocks = Vec::with_capacity(view.neighbors.len());
        for &(nid, ninput, cert) in &view.neighbors {
            let nb = self
                .parse(cert)
                .ok_or(RejectReason::MalformedNeighborCertificate)?;
            nbr_blocks.push((nid, ninput, nb));
        }
        // Every edge lies in exactly one common block (the promise layer:
        // a pair of adjacent vertices shares exactly one block).
        for (_, _, nb) in &nbr_blocks {
            let common = mine
                .iter()
                .filter(|(b, _)| nb.iter().any(|(nb_id, _)| nb_id == b))
                .count();
            if common != 1 {
                return Err(RejectReason::NonTreeEdge);
            }
        }
        // Run the P_{t²} verifier inside each of my blocks, restricting
        // the view to same-block neighbors. Inner reasons propagate.
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
            self.inner.decide(&sub_view)?;
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
    use crate::framework::{run_scheme, run_verification};
    use crate::schemes::common::id_bits_for;
    use locert_graph::{generators, minors, Graph};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

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
                assert_eq!(scheme.parse(&over), ct_parse_bitwise(id_bits, &over));
                assert!(scheme.parse(&full).is_some());
                for cut in 0..=full.len_bits() {
                    let prefix = BitReader::new(&full).read_cert(cut).unwrap();
                    assert_eq!(scheme.parse(&prefix), ct_parse_bitwise(id_bits, &prefix));
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
