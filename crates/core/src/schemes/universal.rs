//! The universal certification (Section 1.2): *any* property of connected
//! graphs is certifiable by broadcasting the whole graph.
//!
//! Every vertex receives the full map — vertex count, the identifier
//! list, the adjacency matrix — plus its own index in the map. Each
//! vertex checks that (1) its neighbors carry the identical map, (2) the
//! map's row at its own index matches its *actual* neighborhood exactly,
//! and (3) the map graph satisfies the property.
//!
//! Soundness for connected targets: every real vertex pins its own row,
//! so the map restricted to real identifiers is exactly `G`; phantom map
//! vertices cannot claim edges into the real part (the real endpoint
//! would see a foreign identifier), so they form separate components —
//! killed by requiring the map to be connected.
//!
//! Size: `n² + O(n log n)` bits — the paper's generic upper bound, and
//! the upper-bound companion to the `Ω̃(n)` lower bound of Theorem 2.3
//! (e.g. instantiated with the fixed-point-free-automorphism property via
//! [`crate::schemes::universal::fpf_automorphism_scheme`]).

use crate::bits::{BitReader, BitWriter, Certificate};
use crate::framework::{
    Assignment, DeclaredBound, Decode, DecodedView, Instance, Memo, Prover, ProverError,
    RejectReason, Scheme, Shared,
};
use crate::schemes::common::{read_ident, write_ident};
use locert_graph::{automorphism, Graph, Ident, NodeId};
use std::collections::BTreeSet;
use std::sync::{Arc, OnceLock};

/// Largest vertex count a map may declare. The verifier rejects larger
/// maps, so the prover refuses larger graphs instead of writing
/// certificates that every vertex would reject.
pub const MAX_N: usize = 4096;

/// Width of the leading size field and of the trailing self-index.
const INDEX_BITS: u32 = 16;

/// Width of the edge-list encoding's edge-count field.
const EDGE_COUNT_BITS: u32 = 20;

/// How the broadcast map is encoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MapEncoding {
    /// Upper-triangular adjacency matrix: `n²/2` bits — the paper's
    /// generic `O(n²)` bound.
    Matrix,
    /// Edge list: `O(m log n)` bits — `Õ(n)` on trees, matching the
    /// Theorem 2.3 lower bound for fixed-point-free automorphism.
    EdgeList,
}

/// Certifies an arbitrary (isomorphism-invariant) property of connected
/// graphs by broadcasting the full graph description.
pub struct UniversalScheme {
    id_bits: u32,
    encoding: MapEncoding,
    property: Arc<dyn Fn(&Graph) -> bool + Send + Sync>,
    name: String,
}

impl std::fmt::Debug for UniversalScheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UniversalScheme")
            .field("id_bits", &self.id_bits)
            .field("name", &self.name)
            .finish()
    }
}

/// A parsed broadcast map: the identifier list and the map graph.
#[derive(Debug, PartialEq, Eq)]
struct Map {
    ids: Vec<Ident>,
    graph: Graph,
}

/// What a map prefix decodes to, shared by every certificate with that
/// prefix.
pub struct Parsed {
    map: Map,
    /// Whether the map is connected and has the property, computed by the
    /// first vertex that needs it.
    verdict: OnceLock<bool>,
}

impl UniversalScheme {
    /// Builds the scheme for `property` (evaluated on the broadcast map;
    /// it must be isomorphism-invariant and should imply connectivity or
    /// tolerate checking it — the verifier additionally rejects
    /// disconnected maps).
    pub fn new(
        id_bits: u32,
        name: impl Into<String>,
        property: impl Fn(&Graph) -> bool + Send + Sync + 'static,
    ) -> Self {
        UniversalScheme {
            id_bits,
            encoding: MapEncoding::Matrix,
            property: Arc::new(property),
            name: name.into(),
        }
    }

    /// Switches to the sparse edge-list encoding (`O(m log n)` bits).
    pub fn sparse(mut self) -> Self {
        self.encoding = MapEncoding::EdgeList;
        self
    }

    /// Parses a map prefix: size, identifiers and adjacency, which must
    /// use up the prefix exactly. Its verdict is not yet evaluated.
    fn parse(&self, prefix: &Certificate) -> Option<Parsed> {
        let mut r = BitReader::new(prefix);
        let n = r.read(INDEX_BITS)? as usize;
        if n == 0 || n > MAX_N {
            return None;
        }
        let mut ids = Vec::with_capacity(n);
        for _ in 0..n {
            ids.push(read_ident(&mut r, self.id_bits)?);
        }
        // Distinct identifiers.
        if ids.iter().collect::<BTreeSet<_>>().len() != n {
            return None;
        }
        let mut edges = Vec::new();
        match self.encoding {
            MapEncoding::Matrix => {
                for i in 0..n {
                    for j in (i + 1)..n {
                        if r.read_bit()? {
                            edges.push((i, j));
                        }
                    }
                }
            }
            MapEncoding::EdgeList => {
                let vb = crate::bits::width_for(n as u64 - 1);
                let m = r.read(EDGE_COUNT_BITS)? as usize;
                for _ in 0..m {
                    let i = r.read(vb)? as usize;
                    let j = r.read(vb)? as usize;
                    if i >= n || j >= n || i >= j {
                        return None; // canonical: i < j.
                    }
                    edges.push((i, j));
                }
            }
        }
        if !r.exhausted() {
            return None;
        }
        let graph = Graph::from_edges(n, edges).ok()?;
        Some(Parsed {
            map: Map { ids, graph },
            verdict: OnceLock::new(),
        })
    }

    /// The map prefix every certificate shares: size field, identifier
    /// list and adjacency, each behind its component mark.
    fn encode_map(&self, instance: &Instance<'_>) -> BitWriter {
        let g = instance.graph();
        let n = g.num_nodes();
        let mut w = BitWriter::new();
        w.component("size-field");
        w.write(n as u64, INDEX_BITS);
        w.component("id-list");
        for u in g.nodes() {
            write_ident(&mut w, instance.ids().ident(u), self.id_bits);
        }
        w.component("adjacency");
        match self.encoding {
            MapEncoding::Matrix => {
                for i in 0..n {
                    for j in (i + 1)..n {
                        w.write_bit(g.has_edge(i.into(), j.into()));
                    }
                }
            }
            MapEncoding::EdgeList => {
                let vb = crate::bits::width_for(n as u64 - 1);
                w.write(g.num_edges() as u64, EDGE_COUNT_BITS);
                for (a, b) in g.edges() {
                    w.write(a.0 as u64, vb);
                    w.write(b.0 as u64, vb);
                }
            }
        }
        w
    }
}

impl Prover for UniversalScheme {
    fn assign(&self, instance: &Instance<'_>) -> Result<Assignment, ProverError> {
        let _span = locert_trace::span!("core.schemes.universal.prover");
        let g = instance.graph();
        if !(self.property)(g) || !g.is_connected() {
            return Err(ProverError::NotAYesInstance);
        }
        let n = g.num_nodes();
        if n > MAX_N {
            return Err(ProverError::WitnessUnavailable(format!(
                "the universal scheme's maps hold at most {MAX_N} vertices"
            )));
        }
        if self.encoding == MapEncoding::EdgeList && g.num_edges() >> EDGE_COUNT_BITS != 0 {
            return Err(ProverError::WitnessUnavailable(format!(
                "the universal scheme's edge lists hold fewer than 2^{EDGE_COUNT_BITS} edges"
            )));
        }
        // Every certificate opens with the same map, so it is encoded once,
        // component marks included, and copied in front of each self-index.
        let map = self.encode_map(instance);
        Ok(Assignment::write_each(n, |v, w| {
            w.append(&map);
            w.component("self-index");
            w.write(v.0 as u64, INDEX_BITS);
        }))
    }
}

/// A decoded universal certificate: its map prefix, keyed by every bit
/// but the trailing self-index, and that self-index.
pub struct UniversalCert {
    pub(crate) map: Arc<Shared<Parsed>>,
    self_index: Option<usize>,
}

impl Decode for UniversalScheme {
    type Decoded = UniversalCert;
    /// Each distinct map is parsed, and its property evaluated, once per
    /// run rather than once per vertex and neighbor.
    type Cache = Memo<Parsed>;

    fn decode(&self, mut r: BitReader<'_>, memo: &Memo<Parsed>) -> UniversalCert {
        let prefix = r.remaining().saturating_sub(INDEX_BITS as usize);
        let window = r.take(prefix).expect("a prefix of the window");
        UniversalCert {
            map: memo.get(window, |bits| self.parse(bits)),
            self_index: r.read(INDEX_BITS).map(|i| i as usize),
        }
    }

    fn decide_decoded(&self, view: &DecodedView<'_, UniversalCert>) -> Result<(), RejectReason> {
        let own = view.own;
        let parsed = own
            .map
            .parsed(|bits| self.parse(bits))
            .ok_or(RejectReason::MalformedCertificate)?;
        let map = &parsed.map;
        let n = map.ids.len();
        let self_idx = own
            .self_index
            .filter(|&i| i < n)
            .ok_or(RejectReason::MalformedCertificate)?;
        // My identifier sits at my claimed index.
        if map.ids[self_idx] != view.id {
            return Err(RejectReason::AdjacencyMismatch);
        }
        // Neighbors carry the identical map (ids + adjacency). A neighbor
        // sharing my map's entry (equal prefix bits) with its self-index
        // in range is a copy; any other is compared parsed.
        for (_, _, theirs) in view.neighbors() {
            let valid_index = |m: &Map| theirs.self_index.is_some_and(|i| i < m.ids.len());
            if Arc::ptr_eq(&own.map, &theirs.map) && valid_index(map) {
                continue;
            }
            let nparsed = theirs
                .map
                .parsed(|bits| self.parse(bits))
                .filter(|p| valid_index(&p.map))
                .ok_or(RejectReason::MalformedNeighborCertificate)?;
            if nparsed.map != *map {
                return Err(RejectReason::CopyMismatch);
            }
        }
        // My map row matches my actual neighborhood exactly.
        let claimed: BTreeSet<Ident> = map
            .graph
            .neighbors(NodeId(self_idx))
            .iter()
            .map(|&j| map.ids[j.0])
            .collect();
        let actual: BTreeSet<Ident> = view.neighbor_ids().collect();
        if claimed != actual {
            return Err(RejectReason::AdjacencyMismatch);
        }
        // The map is connected and satisfies the property.
        let holds = parsed
            .verdict
            .get_or_init(|| map.graph.is_connected() && (self.property)(&map.graph));
        if !holds {
            return Err(RejectReason::PropertyViolation);
        }
        Ok(())
    }
}

impl Scheme for UniversalScheme {
    fn name(&self) -> String {
        format!("universal[{}]", self.name)
    }

    fn declared_bound(&self) -> DeclaredBound {
        // Broadcasting the map costs n² + O(n log n) bits (Section 1.2);
        // the sparse edge-list variant stays within the same family.
        DeclaredBound::QuadraticN
    }
}

/// The Theorem 2.3 upper-bound companion: certify "the tree has a
/// fixed-point-free automorphism" with Õ(n)-bit certificates via the
/// universal scheme (the lower bound says this is essentially optimal —
/// in stark contrast with the O(1) bits of every MSO property).
pub fn fpf_automorphism_scheme(id_bits: u32) -> UniversalScheme {
    UniversalScheme::new(id_bits, "fpf-automorphism", |g| {
        automorphism::tree_has_fpf_automorphism(g) == Some(true)
    })
    // Trees are sparse: the edge list costs O(n log n) = Õ(n) bits,
    // matching the Ω̃(n) lower bound of Theorem 2.3.
    .sparse()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attacks;
    use crate::framework::test_views::{view_of, LocalView};
    use crate::framework::{
        run_scheme, run_verification, run_verification_in, DecodedView, Verdict, Verifier,
    };
    use crate::schemes::common::id_bits_for;
    use locert_graph::{generators, traversal, IdAssignment};
    use locert_par::Pool;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// The parse as it stood before the run-scoped memo.
    fn parse_reference(
        scheme: &UniversalScheme,
        cert: &Certificate,
    ) -> Option<(Vec<Ident>, Graph, usize)> {
        let mut r = BitReader::new(cert);
        let n = r.read(16)? as usize;
        if n == 0 || n > 4096 {
            return None;
        }
        let mut ids = Vec::with_capacity(n);
        for _ in 0..n {
            ids.push(read_ident(&mut r, scheme.id_bits)?);
        }
        if ids.iter().collect::<BTreeSet<_>>().len() != n {
            return None;
        }
        let mut edges = Vec::new();
        match scheme.encoding {
            MapEncoding::Matrix => {
                for i in 0..n {
                    for j in (i + 1)..n {
                        if r.read_bit()? {
                            edges.push((i, j));
                        }
                    }
                }
            }
            MapEncoding::EdgeList => {
                let vb = crate::bits::width_for(n as u64 - 1);
                let m = r.read(20)? as usize;
                for _ in 0..m {
                    let i = r.read(vb)? as usize;
                    let j = r.read(vb)? as usize;
                    if i >= n || j >= n || i >= j {
                        return None;
                    }
                    edges.push((i, j));
                }
            }
        }
        let self_idx = r.read(16)? as usize;
        if self_idx >= n || !r.exhausted() {
            return None;
        }
        let g = Graph::from_edges(n, edges).ok()?;
        Some((ids, g, self_idx))
    }

    /// The per-vertex decision as it stood before the run-scoped memo:
    /// every certificate in the view parsed in full, neighbor maps
    /// compared parsed. The production path must agree with it exactly.
    fn decide_reference(
        scheme: &UniversalScheme,
        view: &LocalView<'_>,
    ) -> Result<(), RejectReason> {
        let (ids, map, self_idx) =
            parse_reference(scheme, view.cert).ok_or(RejectReason::MalformedCertificate)?;
        if ids[self_idx] != view.id {
            return Err(RejectReason::AdjacencyMismatch);
        }
        for &(_, _, cert) in &view.neighbors {
            let (nids, nmap, _) =
                parse_reference(scheme, cert).ok_or(RejectReason::MalformedNeighborCertificate)?;
            if nids != ids || nmap != map {
                return Err(RejectReason::CopyMismatch);
            }
        }
        let claimed: BTreeSet<Ident> = map
            .neighbors(NodeId(self_idx))
            .iter()
            .map(|&j| ids[j.0])
            .collect();
        let actual: BTreeSet<Ident> = view.neighbors.iter().map(|&(nid, _, _)| nid).collect();
        if claimed != actual {
            return Err(RejectReason::AdjacencyMismatch);
        }
        if !map.is_connected() || !(scheme.property)(&map) {
            return Err(RejectReason::PropertyViolation);
        }
        Ok(())
    }

    /// The prover's writes as they stood before the map was encoded once:
    /// every vertex's writer encodes the whole map field by field.
    fn assign_reference(scheme: &UniversalScheme, instance: &Instance<'_>) -> Assignment {
        let g = instance.graph();
        let n = g.num_nodes();
        let ids = instance.ids();
        Assignment::write_each(n, |v, w| {
            w.component("size-field");
            w.write(n as u64, INDEX_BITS);
            w.component("id-list");
            for u in g.nodes() {
                write_ident(w, ids.ident(u), scheme.id_bits);
            }
            w.component("adjacency");
            match scheme.encoding {
                MapEncoding::Matrix => {
                    for i in 0..n {
                        for j in (i + 1)..n {
                            w.write_bit(g.has_edge(i.into(), j.into()));
                        }
                    }
                }
                MapEncoding::EdgeList => {
                    let vb = crate::bits::width_for(n as u64 - 1);
                    w.write(g.num_edges() as u64, EDGE_COUNT_BITS);
                    for (a, b) in g.edges() {
                        w.write(a.0 as u64, vb);
                        w.write(b.0 as u64, vb);
                    }
                }
            }
            w.component("self-index");
            w.write(v.0 as u64, INDEX_BITS);
        })
    }

    /// Checks `run_verification` on every pool and the prepared per-vertex
    /// decision against the reference, verdict by verdict; returns the
    /// verdicts.
    fn agrees_with_reference(
        pools: &[Pool],
        scheme: &UniversalScheme,
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
                let reason = decide_reference(scheme, &view).err();
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

    fn pools() -> [Pool; 2] {
        [Pool::new(1), Pool::new(4)]
    }

    /// `cert` cut to its first `len` bits.
    fn truncated(cert: &Certificate, len: usize) -> Certificate {
        let mut w = BitWriter::new();
        for i in 0..len.min(cert.len_bits()) {
            w.write_bit(cert.bit(i));
        }
        w.finish()
    }

    /// `cert` with its trailing 16-bit self-index replaced by `index`.
    fn reindexed(cert: &Certificate, index: u64) -> Certificate {
        let mut w = BitWriter::new();
        w.write_cert(&truncated(cert, cert.len_bits() - 16));
        w.write(index, 16);
        w.finish()
    }

    #[test]
    fn certifies_arbitrary_properties() {
        // "The graph has an even number of edges" — far outside MSO's
        // certifiable-with-small-certificates world, trivial here.
        let g = generators::cycle(6);
        let ids = IdAssignment::contiguous(6);
        let inst = Instance::new(&g, &ids);
        let scheme =
            UniversalScheme::new(id_bits_for(&inst), "even-edges", |g| g.num_edges() % 2 == 0);
        assert!(run_scheme(&scheme, &inst).unwrap().accepted());
        let c5 = generators::cycle(5);
        let ids5 = IdAssignment::contiguous(5);
        let inst5 = Instance::new(&c5, &ids5);
        let scheme5 = UniversalScheme::new(id_bits_for(&inst5), "even-edges", |g| {
            g.num_edges() % 2 == 0
        });
        assert_eq!(
            run_scheme(&scheme5, &inst5).unwrap_err(),
            ProverError::NotAYesInstance
        );
    }

    #[test]
    fn fpf_scheme_matches_ground_truth() {
        let mut rng = StdRng::seed_from_u64(91);
        for _ in 0..12 {
            let n = 2 + rand::RngExt::random_range(&mut rng, 0..8usize);
            let g = generators::random_tree(n, &mut rng);
            let ids = IdAssignment::shuffled(n, &mut rng);
            let inst = Instance::new(&g, &ids);
            let scheme = fpf_automorphism_scheme(id_bits_for(&inst));
            let expected = automorphism::tree_has_fpf_automorphism(&g) == Some(true);
            match run_scheme(&scheme, &inst) {
                Ok(out) => {
                    assert!(out.accepted());
                    assert!(expected);
                }
                Err(ProverError::NotAYesInstance) => assert!(!expected),
                Err(e) => {
                    panic!(
                        "prover error for {} on {n}-vertex tree {g:?}: {e}",
                        scheme.name()
                    )
                }
            }
        }
    }

    #[test]
    fn size_is_quadratic_plus_n_log_n() {
        for n in [8usize, 16, 32] {
            let g = generators::path(n);
            let ids = IdAssignment::contiguous(n);
            let inst = Instance::new(&g, &ids);
            let scheme = UniversalScheme::new(id_bits_for(&inst), "any", |_| true);
            let out = run_scheme(&scheme, &inst).unwrap();
            let expected = 16 + n * id_bits_for(&inst) as usize + n * (n - 1) / 2 + 16;
            assert_eq!(out.max_bits(), expected, "n = {n}");
        }
    }

    #[test]
    fn sparse_encoding_is_quasilinear_on_trees() {
        for n in [16usize, 64, 256] {
            let g = generators::path(n);
            let ids = IdAssignment::contiguous(n);
            let inst = Instance::new(&g, &ids);
            let dense = UniversalScheme::new(id_bits_for(&inst), "any", |_| true);
            let sparse = UniversalScheme::new(id_bits_for(&inst), "any", |_| true).sparse();
            let db = run_scheme(&dense, &inst).unwrap().max_bits();
            let sb = run_scheme(&sparse, &inst).unwrap().max_bits();
            // Sparse beats dense as soon as m log n < n²/2.
            if n >= 64 {
                assert!(sb < db, "n = {n}: sparse {sb} >= dense {db}");
            }
            // Õ(n): within a log factor of linear.
            let l = id_bits_for(&inst) as usize;
            assert!(sb <= 52 + n * l + (n - 1) * 2 * l, "n = {n}, sb = {sb}");
        }
    }

    #[test]
    fn sparse_rejects_non_canonical_edge_lists() {
        // An edge encoded as (j, i) with j > i must not parse.
        let g = generators::path(2);
        let ids = IdAssignment::contiguous(2);
        let inst = Instance::new(&g, &ids);
        let b = id_bits_for(&inst);
        let scheme = UniversalScheme::new(b, "any", |_| true).sparse();
        let mut w = BitWriter::new();
        w.write(2, 16);
        write_ident(&mut w, Ident(1), b);
        write_ident(&mut w, Ident(2), b);
        w.write(1, 20); // one edge
        w.write(1, 1); // i = 1
        w.write(0, 1); // j = 0 (non-canonical)
        w.write(0, 16);
        let asg = Assignment::new(vec![w.finish(), Certificate::empty()]);
        assert!(!run_verification(&scheme, &inst, &asg).accepted());
    }

    #[test]
    fn forged_map_row_caught_by_owner() {
        let g = generators::path(4);
        let ids = IdAssignment::contiguous(4);
        let inst = Instance::new(&g, &ids);
        let scheme = UniversalScheme::new(id_bits_for(&inst), "any", |_| true);
        let honest = scheme.assign(&inst).unwrap();
        // Forge an extra edge into every copy of the map (bit of pair
        // (0, 2) in the upper-triangle block).
        let n = 4;
        let header = 16 + n * id_bits_for(&inst) as usize;
        let pair_index = |i: usize, j: usize| {
            // upper triangle, row-major: (0,1)(0,2)(0,3)(1,2)...
            let mut k = 0;
            for a in 0..n {
                for b in (a + 1)..n {
                    if (a, b) == (i, j) {
                        return k;
                    }
                    k += 1;
                }
            }
            unreachable!()
        };
        let mut forged = honest.clone();
        for v in 0..n {
            let c = forged.cert(NodeId(v)).clone();
            *forged.cert_mut(NodeId(v)) = c.with_bit_flipped(header + pair_index(0, 2));
        }
        let out = run_verification(&scheme, &inst, &forged);
        assert!(!out.accepted());
        // The endpoints of the phantom edge are among the rejectors.
        assert!(out.rejecting().contains(&Ident(1)) || out.rejecting().contains(&Ident(3)));
    }

    #[test]
    fn phantom_component_killed_by_connectivity() {
        // Hand-build a map with an extra isolated phantom vertex: the
        // map is disconnected → rejected.
        let g = generators::path(2);
        let ids = IdAssignment::contiguous(2);
        let inst = Instance::new(&g, &ids);
        let b = id_bits_for(&inst);
        let scheme = UniversalScheme::new(b, "any", |_| true);
        let make = |self_idx: u64| {
            let mut w = BitWriter::new();
            w.write(3, 16); // claim n = 3.
            write_ident(&mut w, Ident(1), b);
            write_ident(&mut w, Ident(2), b);
            write_ident(&mut w, Ident(3), b); // phantom.
                                              // adjacency pairs (0,1), (0,2), (1,2): only the real edge.
            w.write_bit(true);
            w.write_bit(false);
            w.write_bit(false);
            w.write(self_idx, 16);
            w.finish()
        };
        let asg = Assignment::new(vec![make(0), make(1)]);
        assert!(!run_verification(&scheme, &inst, &asg).accepted());
    }

    #[test]
    fn random_attacks_rejected() {
        let g = generators::star(5); // no FPF automorphism (center fixed).
        let ids = IdAssignment::contiguous(5);
        let inst = Instance::new(&g, &ids);
        let scheme = fpf_automorphism_scheme(id_bits_for(&inst));
        let mut rng = StdRng::seed_from_u64(92);
        let bits = 16 + 5 * 3 + 10 + 16;
        assert!(attacks::random_assignments(&scheme, &inst, bits, &mut rng, 200).is_none());
    }

    #[test]
    fn prover_matches_the_per_vertex_reference_and_its_ledger() {
        let mut rng = StdRng::seed_from_u64(0x26);
        let graphs = [
            generators::path(9),
            generators::path(40),
            generators::star(10),
            generators::star(33),
            generators::clique(7),
            generators::clique(12),
            generators::random_connected(12, 10, &mut rng),
            generators::random_connected(30, 25, &mut rng),
        ];
        for g in &graphs {
            let n = g.num_nodes();
            let ids = IdAssignment::shuffled(n, &mut rng);
            let inst = Instance::new(g, &ids);
            let b = id_bits_for(&inst);
            for scheme in [
                UniversalScheme::new(b, "any", |_| true),
                UniversalScheme::new(b, "any", |_| true).sparse(),
            ] {
                let label = format!("{:?} on {g:?}", scheme.encoding);
                let (asg, ledger) =
                    locert_trace::ledger::capture(|| scheme.assign(&inst).expect("honest"));
                let (reference, reference_ledger) =
                    locert_trace::ledger::capture(|| assign_reference(&scheme, &inst));
                let plain = scheme.assign(&inst).expect("honest");
                for v in g.nodes() {
                    for got in [asg.cert(v), plain.cert(v)] {
                        assert_eq!(got.len_bits(), reference.cert(v).len_bits(), "{label}");
                        assert_eq!(got.as_bytes(), reference.cert(v).as_bytes(), "{label}");
                    }
                }
                assert_eq!(ledger, reference_ledger, "{label}");
                assert_eq!(ledger.certs.len(), n, "{label}");
            }
        }
    }

    #[test]
    fn run_path_matches_reference_under_mutations() {
        let pools = pools();
        let mut rng = StdRng::seed_from_u64(0x13);
        let graphs = [
            generators::path(5),
            generators::star(6),
            generators::cycle(6),
            generators::clique(4),
            generators::random_tree(7, &mut rng),
            generators::random_connected(7, 4, &mut rng),
        ];
        let mut reasons = BTreeSet::new();
        for g in &graphs {
            let n = g.num_nodes();
            let ids = IdAssignment::shuffled(n, &mut rng);
            let inst = Instance::new(g, &ids);
            let b = id_bits_for(&inst);
            for sparse in [false, true] {
                let with = |scheme: UniversalScheme| if sparse { scheme.sparse() } else { scheme };
                let any = with(UniversalScheme::new(b, "any", |_| true));
                let diameter_two = with(UniversalScheme::new(b, "diameter<=2", |g| {
                    traversal::diameter(g).is_some_and(|d| d <= 2)
                }));
                let honest = any.assign(&inst).unwrap();
                let len = honest.cert(NodeId(0)).len_bits();
                for scheme in [&any, &diameter_two] {
                    agrees_with_reference(&pools, scheme, &inst, &honest);
                }
                for trial in 0..60 {
                    let mut asg = honest.clone();
                    let v = NodeId(rng.random_range(0..n));
                    let bit = rng.random_range(0..len);
                    match trial % 6 {
                        // A random bit flip at one vertex.
                        0 => *asg.cert_mut(v) = asg.cert(v).with_bit_flipped(bit),
                        // The same flip in every copy: a consistent forgery
                        // of the size field, an identifier or a map row.
                        1 => {
                            for u in g.nodes() {
                                *asg.cert_mut(u) = asg.cert(u).with_bit_flipped(bit);
                            }
                        }
                        2 => *asg.cert_mut(v) = truncated(asg.cert(v), bit),
                        // A matching prefix with a self-index at or past n.
                        3 => {
                            let index = rng.random_range(n..n + 3) as u64;
                            *asg.cert_mut(v) = reindexed(asg.cert(v), index);
                        }
                        // Another vertex's certificate (a wrong self-index).
                        4 => {
                            let u = NodeId(rng.random_range(0..n));
                            *asg.cert_mut(v) = asg.cert(u).clone();
                        }
                        _ => *asg.cert_mut(v) = Certificate::empty(),
                    }
                    for scheme in [&any, &diameter_two] {
                        let verdicts = agrees_with_reference(&pools, scheme, &inst, &asg);
                        reasons.extend(verdicts.iter().map(|v| v.reason.map(|r| r.code())));
                    }
                }
            }
        }
        // Every outcome the verifier can give shows up.
        for reason in [
            RejectReason::MalformedCertificate,
            RejectReason::MalformedNeighborCertificate,
            RejectReason::CopyMismatch,
            RejectReason::AdjacencyMismatch,
            RejectReason::PropertyViolation,
        ] {
            assert!(
                reasons.contains(&Some(reason.code())),
                "{reason} never seen"
            );
        }
        assert!(reasons.contains(&None));
    }

    #[test]
    fn permuted_edge_list_is_a_copy() {
        // The star 0-1, 0-2, 0-3: vertex 2 writes its edge list in
        // reverse. Its bits differ from everyone else's, its parsed map
        // does not, so every vertex still accepts.
        let g = generators::star(4);
        let ids = IdAssignment::contiguous(4);
        let inst = Instance::new(&g, &ids);
        let b = id_bits_for(&inst);
        let scheme = UniversalScheme::new(b, "any", |_| true).sparse();
        let make = |edges: &[(u64, u64)], self_idx: u64| {
            let mut w = BitWriter::new();
            w.write(4, 16);
            for id in 1..=4 {
                write_ident(&mut w, Ident(id), b);
            }
            w.write(edges.len() as u64, 20);
            for &(i, j) in edges {
                w.write(i, 2);
                w.write(j, 2);
            }
            w.write(self_idx, 16);
            w.finish()
        };
        let sorted = [(0, 1), (0, 2), (0, 3)];
        let reversed = [(0, 3), (0, 2), (0, 1)];
        let asg = Assignment::new(vec![
            make(&sorted, 0),
            make(&sorted, 1),
            make(&reversed, 2),
            make(&sorted, 3),
        ]);
        let honest = scheme.assign(&inst).unwrap();
        for v in 0..4 {
            assert_eq!(asg.cert(NodeId(v)) == honest.cert(NodeId(v)), v != 2);
        }
        let verdicts = agrees_with_reference(&pools(), &scheme, &inst, &asg);
        assert!(verdicts.iter().all(|v| v.accepted));
    }

    #[test]
    fn matching_prefix_with_out_of_range_self_index_is_malformed() {
        let g = generators::path(3);
        let ids = IdAssignment::contiguous(3);
        let inst = Instance::new(&g, &ids);
        let scheme = UniversalScheme::new(id_bits_for(&inst), "any", |_| true).sparse();
        let mut asg = scheme.assign(&inst).unwrap();
        *asg.cert_mut(NodeId(2)) = reindexed(asg.cert(NodeId(2)), 3);
        let verdicts = agrees_with_reference(&pools(), &scheme, &inst, &asg);
        let reasons: Vec<_> = verdicts.iter().map(|v| v.reason).collect();
        assert_eq!(
            reasons,
            [
                None,
                Some(RejectReason::MalformedNeighborCertificate),
                Some(RejectReason::MalformedCertificate),
            ]
        );
    }

    #[test]
    fn maps_past_the_memo_cap_keep_only_their_bits() {
        // On clique(6), odd vertices each drop a different edge from their
        // map: three distinct forged maps next to the honest one. A memo
        // with room for one map beyond its first stores the honest map and
        // one forgery; the other two decodes keep only their certificates.
        let n = 6;
        let g = generators::clique(n);
        let ids = IdAssignment::contiguous(n);
        let inst = Instance::new(&g, &ids);
        let b = id_bits_for(&inst);
        let scheme = UniversalScheme::new(b, "any", |_| true);
        let mut asg = scheme.assign(&inst).unwrap();
        let matrix = 16 + n * b as usize;
        for v in (1..n).step_by(2) {
            *asg.cert_mut(NodeId(v)) = asg.cert(NodeId(v)).with_bit_flipped(matrix + v);
        }
        let prefix_bits = |v: usize| asg.cert(NodeId(v)).len_bits() - 16;
        let decided = |memo: &Memo<Parsed>| {
            let decoded: Vec<UniversalCert> = g
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
        let (capped, reasons) = decided(&Memo::with_cap(prefix_bits(1)));
        let stored: Vec<bool> = capped.iter().map(|d| d.map.is_kept()).collect();
        assert_eq!(stored, [true, true, true, false, true, false]);
        // Live parses: the honest map and one forgery.
        let mut held: Vec<&Arc<Shared<Parsed>>> = capped
            .iter()
            .map(|d| &d.map)
            .filter(|m| m.is_kept())
            .collect();
        held.sort_by_key(|p| Arc::as_ptr(p));
        held.dedup_by(|a, b| Arc::ptr_eq(a, b));
        let bits: usize = held.iter().map(|p| p.bits().len_bits()).sum();
        assert_eq!(held.len(), 2);
        assert!(bits <= prefix_bits(0) + prefix_bits(1));
        // Verdicts do not depend on what the memo keeps.
        let expected: Vec<_> = g
            .nodes()
            .map(|v| decide_reference(&scheme, &view_of(&inst, &asg, v)).err())
            .collect();
        assert_eq!(reasons, expected);
        assert_eq!(decided(&Memo::default()).1, expected);
        assert!(expected.contains(&Some(RejectReason::CopyMismatch)));
    }

    #[test]
    fn property_runs_once_per_map_per_run() {
        let calls = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&calls);
        let g = generators::star(9);
        let ids = IdAssignment::contiguous(9);
        let inst = Instance::new(&g, &ids);
        let scheme = UniversalScheme::new(id_bits_for(&inst), "counted", move |_| {
            counter.fetch_add(1, Ordering::SeqCst);
            true
        })
        .sparse();
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
    }

    #[test]
    fn prover_refuses_maps_the_verifier_rejects() {
        // n one past the cap the verifier enforces.
        let n = MAX_N + 1;
        let g = generators::star(n);
        let ids = IdAssignment::contiguous(n);
        let inst = Instance::new(&g, &ids);
        for scheme in [
            UniversalScheme::new(id_bits_for(&inst), "any", |_| true),
            UniversalScheme::new(id_bits_for(&inst), "any", |_| true).sparse(),
        ] {
            assert!(matches!(
                scheme.assign(&inst),
                Err(ProverError::WitnessUnavailable(_))
            ));
        }
        // At the cap the sparse map is still certified and accepted.
        let g = generators::star(MAX_N);
        let ids = IdAssignment::contiguous(MAX_N);
        let inst = Instance::new(&g, &ids);
        let scheme = UniversalScheme::new(id_bits_for(&inst), "any", |_| true).sparse();
        assert!(run_scheme(&scheme, &inst).unwrap().accepted());
    }

    #[test]
    fn prover_refuses_edge_lists_past_the_count_field() {
        // clique(1449) has 1_049_076 edges, past the 20-bit count field.
        let g = generators::clique(1449);
        assert!(g.num_edges() >= 1 << 20);
        let ids = IdAssignment::contiguous(1449);
        let inst = Instance::new(&g, &ids);
        let scheme = UniversalScheme::new(id_bits_for(&inst), "any", |_| true).sparse();
        assert!(matches!(
            scheme.assign(&inst),
            Err(ProverError::WitnessUnavailable(_))
        ));
    }
}
