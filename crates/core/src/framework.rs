//! The certification framework: instances, views, provers, verifiers, and
//! the network simulator.
//!
//! The model is the paper's (Section 3.3 and Appendix A.1):
//!
//! - vertices carry unique identifiers from a polynomial range;
//! - the verification radius is exactly **1**: a vertex sees its own
//!   identifier, input and certificate and the identifiers, inputs and
//!   certificates of its neighbors — and *cannot* see which edges run
//!   among those neighbors;
//! - optionally, vertices carry constant-size *inputs* (the paper's
//!   locally-checkable-labeling extension), used e.g. to put letters on
//!   path graphs.

use crate::bits::{BitReader, BitWriter, Certificate};
use locert_graph::{Graph, IdAssignment, Ident, NodeId};
use locert_trace::LocalHistogram;
use std::any::Any;
use std::cell::RefCell;
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::ops::Deref;
use std::sync::{Arc, Mutex, OnceLock};

/// A certification instance: a connected graph, an identifier assignment,
/// and optional constant-size inputs.
#[derive(Debug, Clone)]
pub struct Instance<'a> {
    graph: &'a Graph,
    ids: &'a IdAssignment,
    inputs: Option<&'a [usize]>,
}

impl<'a> Instance<'a> {
    /// Pairs a graph with an identifier assignment (no inputs).
    ///
    /// # Panics
    ///
    /// Panics if the assignment size disagrees with the vertex count.
    pub fn new(graph: &'a Graph, ids: &'a IdAssignment) -> Self {
        assert_eq!(
            graph.num_nodes(),
            ids.len(),
            "identifier assignment must cover every vertex"
        );
        Instance {
            graph,
            ids,
            inputs: None,
        }
    }

    /// Adds per-vertex inputs (e.g. letters on a path).
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` disagrees with the vertex count.
    pub fn with_inputs(graph: &'a Graph, ids: &'a IdAssignment, inputs: &'a [usize]) -> Self {
        assert_eq!(graph.num_nodes(), ids.len(), "ids must cover every vertex");
        assert_eq!(
            graph.num_nodes(),
            inputs.len(),
            "inputs must cover every vertex"
        );
        Instance {
            graph,
            ids,
            inputs: Some(inputs),
        }
    }

    /// The graph.
    pub fn graph(&self) -> &Graph {
        self.graph
    }

    /// The identifier assignment.
    pub fn ids(&self) -> &IdAssignment {
        self.ids
    }

    /// The input of vertex `v` (0 when no inputs were attached).
    pub fn input(&self, v: NodeId) -> usize {
        self.inputs.map_or(0, |ins| ins[v.0])
    }
}

/// A certificate assignment: one certificate per vertex.
///
/// [`Assignment::new`] packs the certificates into one contiguous byte
/// arena and stores per-vertex [`Certificate`] *views* into it: cloning
/// a certificate out of an assignment is a refcount bump, and the serve
/// cache and wire encoders serialize each certificate with a single
/// memcpy of its arena window. Mutation through [`Assignment::cert_mut`]
/// replaces the vertex's slot (typically with an owned copy-on-write
/// certificate); the arena itself is immutable for its whole life.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Assignment {
    certs: Vec<Certificate>,
}

impl Assignment {
    /// Wraps per-vertex certificates (indexed by [`NodeId`]), packing
    /// their bytes into one shared arena. The list is only read, so a
    /// caller that keeps its certificates lends them (`&[Certificate]`,
    /// `&Vec<Certificate>`) instead of cloning them in.
    pub fn new(certs: impl AsRef<[Certificate]>) -> Self {
        let certs = certs.as_ref();
        let total: usize = certs.iter().map(|c| c.as_bytes().len()).sum();
        let mut arena = Vec::with_capacity(total);
        let mut offsets = Vec::with_capacity(certs.len());
        for c in certs {
            offsets.push(arena.len());
            arena.extend_from_slice(c.as_bytes());
        }
        let arena: std::sync::Arc<[u8]> = arena.into();
        let certs = certs
            .iter()
            .zip(offsets)
            .map(|(c, off)| Certificate::view(arena.clone(), off, c.len_bits()))
            .collect();
        Assignment { certs }
    }

    /// Writes the certificates of vertices `0..n`, each by `write` into
    /// one reused writer, straight into one arena: the assignment that
    /// [`Assignment::new`] makes of per-vertex writers finished with
    /// [`BitWriter::finish_for`], ledger records included, without a
    /// buffer per vertex.
    pub fn write_each(n: usize, mut write: impl FnMut(NodeId, &mut BitWriter)) -> Self {
        let mut arena = Vec::new();
        let mut spans = Vec::with_capacity(n);
        let mut w = BitWriter::new();
        for v in 0..n {
            w.clear();
            write(NodeId(v), &mut w);
            w.record_for(v);
            spans.push((arena.len(), w.len_bits()));
            arena.extend_from_slice(w.bytes());
        }
        let arena: std::sync::Arc<[u8]> = arena.into();
        let certs = spans
            .into_iter()
            .map(|(off, len)| Certificate::view(arena.clone(), off, len))
            .collect();
        Assignment { certs }
    }

    /// Wraps per-vertex certificates as-is, without arena packing, for
    /// short-lived assignments (attack candidates, faulty worlds) that
    /// would not repay `new`'s two allocations. Honest provers use
    /// [`Assignment::write_each`] so long-lived assignments stay
    /// arena-backed.
    pub fn from_unpacked(certs: Vec<Certificate>) -> Self {
        Assignment { certs }
    }

    /// All-empty certificates for `n` vertices.
    pub fn empty(n: usize) -> Self {
        Assignment {
            certs: vec![Certificate::empty(); n],
        }
    }

    /// The certificate of `v`. Total: vertices the assignment does not
    /// cover read as the empty certificate, so adversarially truncated
    /// assignments flow into rejection rather than a panic.
    pub fn cert(&self, v: NodeId) -> &Certificate {
        static EMPTY: Certificate = Certificate::const_empty();
        self.certs.get(v.0).unwrap_or(&EMPTY)
    }

    /// Mutable access (for attack harnesses and fault injection). Hands
    /// the mutation to the event journal so a replay shows *which*
    /// certificates the harness touched; with the journal disabled the
    /// extra cost is one relaxed atomic load.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range — mutation is a simulator-side
    /// operation on vertices that exist, unlike the read path which must
    /// stay total under adversarial inputs.
    pub fn cert_mut(&mut self, v: NodeId) -> &mut Certificate {
        locert_trace::journal::record_with(|| locert_trace::journal::Event::CertMutated {
            vertex: v.0 as u64,
        });
        &mut self.certs[v.0]
    }

    /// Number of vertices covered.
    pub fn len(&self) -> usize {
        self.certs.len()
    }

    /// Whether no vertex is covered.
    pub fn is_empty(&self) -> bool {
        self.certs.is_empty()
    }

    /// The size of the assignment: the maximum certificate length in bits
    /// (the paper's measure).
    ///
    /// Zero-length certificates contribute 0, so
    /// [`Assignment::empty`]`(n).max_bits() == 0` for every `n` —
    /// including `n == 0`, where there is no certificate at all. A
    /// certificate-free scheme genuinely has size 0 in the paper's
    /// measure; callers must not treat 0 as "no assignment".
    pub fn max_bits(&self) -> usize {
        self.certs
            .iter()
            .map(Certificate::len_bits)
            .max()
            .unwrap_or(0)
    }

    /// Total bits across all vertices (for redundancy analyses).
    ///
    /// Like [`Assignment::max_bits`], this is 0 both for the empty
    /// assignment (`n == 0`) and for assignments of all-empty
    /// certificates.
    pub fn total_bits(&self) -> usize {
        self.certs.iter().map(Certificate::len_bits).sum()
    }
}

/// Error produced by a prover.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProverError {
    /// The instance does not satisfy the property (no certificate can
    /// exist; this is a *no*-instance).
    NotAYesInstance,
    /// The prover needs a witness it could not compute at this scale
    /// (e.g. an optimal elimination tree beyond the exact solver's limit).
    WitnessUnavailable(String),
}

impl fmt::Display for ProverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProverError::NotAYesInstance => write!(f, "instance does not satisfy the property"),
            ProverError::WitnessUnavailable(msg) => write!(f, "witness unavailable: {msg}"),
        }
    }
}

impl Error for ProverError {}

/// The honest prover of a scheme.
pub trait Prover {
    /// Computes a certificate assignment for a yes-instance.
    ///
    /// # Errors
    ///
    /// [`ProverError::NotAYesInstance`] when the property fails (so
    /// completeness tests can also drive no-instances through the
    /// prover), or [`ProverError::WitnessUnavailable`] when the instance
    /// exceeds what the prover can handle.
    fn assign(&self, instance: &Instance<'_>) -> Result<Assignment, ProverError>;
}

/// Why a vertex rejected its radius-1 view.
///
/// The catalogue is deliberately scheme-agnostic: every verifier in the
/// workspace maps its checks onto these reasons so fault campaigns,
/// attack harnesses and the event journal can aggregate across schemes.
/// [`RejectReason::code`] gives the stable kebab-case string stored in
/// JSONL journals and provenance tables; [`RejectReason::from_code`]
/// inverts it for replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RejectReason {
    /// The vertex's own certificate failed to parse (bad bit index,
    /// truncated field, out-of-range value).
    MalformedCertificate,
    /// A neighbor's certificate failed to parse.
    MalformedNeighborCertificate,
    /// A neighbor or witness the certificate promises is not visible in
    /// the view.
    MissingNeighbor,
    /// Root bookkeeping is inconsistent: a forged second root, a
    /// non-root claiming root fields, or root fields disagreeing across
    /// an edge.
    RootMismatch,
    /// A claimed tree parent is not exactly one step closer to the root.
    ParentDistanceClash,
    /// An edge of the graph is not covered by the claimed tree/block
    /// structure.
    NonTreeEdge,
    /// Arithmetic bookkeeping (subtree counts, heights, distances) does
    /// not add up.
    CounterMismatch,
    /// A value that must be replicated identically across an edge (a
    /// shared map, matrix, table or orientation counter) differs.
    CopyMismatch,
    /// A tree-automaton or NFA transition is violated at this vertex.
    AutomatonStateClash,
    /// The final/root automaton state (or the kernel property) is not
    /// accepting.
    NotAccepting,
    /// A claimed adjacency row disagrees with the actually visible
    /// neighborhood.
    AdjacencyMismatch,
    /// The vertex's input label is outside the scheme's alphabet.
    BadInput,
    /// A structural degree constraint fails (e.g. degree > 2 on a path).
    DegreeViolation,
    /// Treedepth ancestor lists are inconsistent (too long, wrong head,
    /// incomparable endpoints, broken subtree spanning tree).
    AncestryViolation,
    /// The fully reconstructed object fails the certified property.
    PropertyViolation,
    /// A scheme-specific reason outside the shared catalogue.
    Other(&'static str),
}

impl RejectReason {
    /// Every catalogued reason (excluding the open-ended [`Other`]).
    ///
    /// [`Other`]: RejectReason::Other
    pub const ALL: [RejectReason; 15] = [
        RejectReason::MalformedCertificate,
        RejectReason::MalformedNeighborCertificate,
        RejectReason::MissingNeighbor,
        RejectReason::RootMismatch,
        RejectReason::ParentDistanceClash,
        RejectReason::NonTreeEdge,
        RejectReason::CounterMismatch,
        RejectReason::CopyMismatch,
        RejectReason::AutomatonStateClash,
        RejectReason::NotAccepting,
        RejectReason::AdjacencyMismatch,
        RejectReason::BadInput,
        RejectReason::DegreeViolation,
        RejectReason::AncestryViolation,
        RejectReason::PropertyViolation,
    ];

    /// The stable kebab-case code used in journals and reports.
    pub fn code(&self) -> &'static str {
        match self {
            RejectReason::MalformedCertificate => "malformed-certificate",
            RejectReason::MalformedNeighborCertificate => "malformed-neighbor-certificate",
            RejectReason::MissingNeighbor => "missing-neighbor",
            RejectReason::RootMismatch => "root-mismatch",
            RejectReason::ParentDistanceClash => "parent-distance-clash",
            RejectReason::NonTreeEdge => "non-tree-edge",
            RejectReason::CounterMismatch => "counter-mismatch",
            RejectReason::CopyMismatch => "copy-mismatch",
            RejectReason::AutomatonStateClash => "automaton-state-clash",
            RejectReason::NotAccepting => "not-accepting",
            RejectReason::AdjacencyMismatch => "adjacency-mismatch",
            RejectReason::BadInput => "bad-input",
            RejectReason::DegreeViolation => "degree-violation",
            RejectReason::AncestryViolation => "ancestry-violation",
            RejectReason::PropertyViolation => "property-violation",
            RejectReason::Other(code) => code,
        }
    }

    /// Inverts [`code`](RejectReason::code) for the catalogued reasons.
    /// Codes minted through [`Other`](RejectReason::Other) cannot be
    /// reconstructed and return `None`.
    pub fn from_code(code: &str) -> Option<RejectReason> {
        RejectReason::ALL.into_iter().find(|r| r.code() == code)
    }
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

/// One vertex's verification verdict, with provenance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Verdict {
    /// Whether the vertex accepted.
    pub accepted: bool,
    /// Why it rejected (`None` iff `accepted`).
    pub reason: Option<RejectReason>,
    /// Certificate bits in the vertex's radius-1 view: its own
    /// certificate plus every neighbor's (the paper's per-vertex
    /// verification volume).
    pub bits_read: usize,
}

/// The local verification algorithm of a scheme, as the simulator calls
/// it.
///
/// `Sync` is a supertrait because [`run_verification`] runs vertices in
/// parallel sharing one `&dyn Verifier` — faithful to the model, where
/// every vertex runs the *same* stateless decision procedure on its own
/// radius-1 view. Interior mutability (memo caches) must be thread-safe
/// (`Mutex`, atomics), not `RefCell`.
///
/// A scheme implements [`Decode`] and gets this trait from the blanket
/// implementation below, the only one: both entry points decide through
/// [`Decode::decide_decoded`].
pub trait Verifier: Sync {
    /// Every vertex's reject reason (`None` = accept) under
    /// `assignment`, indexed by [`NodeId`], exactly one entry per vertex:
    /// the per-run hook [`run_verification_in`] calls.
    fn decide_all(
        &self,
        instance: &Instance<'_>,
        assignment: &Assignment,
        pool: &locert_par::Pool,
    ) -> Vec<Option<RejectReason>>;

    /// Decodes a candidate certificate list once, for deciding any vertex
    /// whose own and neighbors' certificates are entries of it.
    fn prepare(&self, certs: &[Certificate]) -> Prepared<'_>;
}

/// A verifier's decision over a candidate certificate list decoded once
/// ([`Verifier::prepare`]). Exhaustive attacks, fault campaigns, the
/// network simulator and the lower-bound protocols decide vertices
/// through it: each list entry is decoded once, however many vertices
/// and candidate assignments read it.
pub struct Prepared<'a> {
    decide: Box<PreparedDecide<'a>>,
}

/// The decision a [`Prepared`] list wraps (see [`Prepared::decide`]).
type PreparedDecide<'a> =
    dyn Fn(Ident, usize, usize, &[(Ident, usize, usize)]) -> Result<(), RejectReason> + Sync + 'a;

impl Prepared<'_> {
    /// The decision of a vertex with identifier `id` and input `input`
    /// whose certificate is entry `own`, given one `(identifier, input,
    /// entry)` per incident edge.
    ///
    /// # Errors
    ///
    /// The reason the vertex rejects; `Ok(())` means accept.
    ///
    /// # Panics
    ///
    /// Panics if an entry is out of range for the prepared list.
    pub fn decide(
        &self,
        id: Ident,
        input: usize,
        own: usize,
        neighbors: &[(Ident, usize, usize)],
    ) -> Result<(), RejectReason> {
        (self.decide)(id, input, own, neighbors)
    }

    /// The decision of vertex `v` of `instance` when each vertex `u`
    /// carries entry `entry(u)`: `v`'s radius-1 view, counted in the view
    /// telemetry (one `core.framework.view_of.calls`, and the degree in
    /// `core.framework.view.neighbors`) as a run counts each vertex.
    ///
    /// # Errors
    ///
    /// As [`Prepared::decide`].
    pub fn decide_at(
        &self,
        instance: &Instance<'_>,
        v: NodeId,
        entry: impl Fn(NodeId) -> usize,
    ) -> Result<(), RejectReason> {
        with_scratch(|neighbors: &mut Vec<(Ident, usize, usize)>| {
            neighbors.extend(
                instance
                    .graph()
                    .neighbors(v)
                    .iter()
                    .map(|&u| (instance.ids().ident(u), instance.input(u), entry(u))),
            );
            if locert_trace::enabled() {
                locert_trace::add("core.framework.view_of.calls", 1);
                locert_trace::record("core.framework.view.neighbors", neighbors.len() as u64);
            }
            self.decide(
                instance.ids().ident(v),
                instance.input(v),
                entry(v),
                neighbors,
            )
        })
    }
}

/// A verifier split into a *decode stage* and a decision on decoded
/// certificates (DESIGN.md §7.1): the one verifier contract a scheme
/// implements.
///
/// [`Decode::decode`] is a pure function of one certificate's bits: it
/// sees no identifier, input, graph or neighbor, so a decoded
/// certificate carries exactly what any vertex could have parsed from
/// those bits itself, and deciding on decoded certificates stays inside
/// the radius-1 model. That purity is what lets [`run_verification_in`]
/// decode each of the `n` certificates once per run into an arena, and
/// [`Verifier::prepare`] each candidate certificate once per list.
///
/// The blanket [`Verifier`] implementation routes both entry points
/// through [`Decode::decide_decoded`], so there is one decision path:
/// `decide_all` reads the run's arena and `prepare` a decoded list.
pub trait Decode: Sync {
    /// One certificate's decoding, including its parse failures (a
    /// scheme decides *where* in its checks a malformed certificate
    /// rejects, so the decode stage never rejects by itself).
    type Decoded: Send + Sync;

    /// A memo shared by the decodes of one run (or of one prepared
    /// list): work that equal certificate bits share, such as a parsed
    /// broadcast map or type table (a [`Memo`]). It must be keyed by
    /// certificate bits alone, so it changes what decoding costs, never
    /// what it returns.
    type Cache: Default + Sync;

    /// Decodes the certificate in the bits left in `window`: a whole
    /// certificate for the framework, or a part of one that a composite
    /// scheme split off in place ([`BitReader::take`]), so no part is
    /// copied out before it is decoded.
    fn decode(&self, window: BitReader<'_>, cache: &Self::Cache) -> Self::Decoded;

    /// The decision of one vertex given its decoded radius-1 view.
    ///
    /// # Errors
    ///
    /// The reason the vertex rejects; `Ok(())` means accept.
    fn decide_decoded(&self, view: &DecodedView<'_, Self::Decoded>) -> Result<(), RejectReason>;
}

impl<S: Decode> Verifier for S {
    fn decide_all(
        &self,
        instance: &Instance<'_>,
        assignment: &Assignment,
        pool: &locert_par::Pool,
    ) -> Vec<Option<RejectReason>> {
        let n = instance.graph().num_nodes();
        let cache = S::Cache::default();
        // The decode stage: each certificate once, into the run's arena.
        let decoded: Vec<S::Decoded> = pool.par_map_collect(n, |i| {
            self.decode(BitReader::new(assignment.cert(NodeId(i))), &cache)
        });
        let ids = instance.ids();
        let reasons = decide_timed(pool, n, &|i| {
            let v = NodeId(i);
            let view = DecodedView {
                id: ids.ident(v),
                input: instance.input(v),
                own: &decoded[i],
                neighbors: Neighbors::Arena {
                    adj: instance.graph().neighbors(v),
                    decoded: &decoded,
                    ids,
                    inputs: instance.inputs,
                },
            };
            self.decide_decoded(&view).err()
        });
        record_views(instance.graph());
        reasons
    }

    fn prepare(&self, certs: &[Certificate]) -> Prepared<'_> {
        let cache = S::Cache::default();
        let decoded: Vec<S::Decoded> = certs
            .iter()
            .map(|c| self.decode(BitReader::new(c), &cache))
            .collect();
        Prepared {
            decide: Box::new(move |id, input, own, entries| {
                DecodedView::with_entries(id, input, own, entries, &decoded, |view| {
                    self.decide_decoded(view)
                })
            }),
        }
    }
}

/// Key bits a [`Memo`] stores beyond its first kept entry, whether they
/// parse or not. A parse takes at most about two words per key bit (a
/// broadcast map; one for a type table or a witness claim), so a run
/// keeps at most about 2²² parsed words however many distinct keys an
/// assignment carries.
pub const MEMO_BITS: usize = 1 << 21;

/// Bits that many certificates of a run carry identically (a broadcast
/// map, a type table, a witness claim) and what the memo knows of their
/// parse.
pub struct Shared<T> {
    bits: Certificate,
    parse: Parse<T>,
}

/// What a [`Shared`] entry knows of its bits' parse.
enum Parse<T> {
    /// Parsed and kept.
    Kept(T),
    /// Past the memo's cap: each decision that needs the parse makes it
    /// again and drops it.
    Dropped,
    /// The bits do not parse.
    Failed,
}

impl<T> Shared<T> {
    /// The key bits.
    pub fn bits(&self) -> &Certificate {
        &self.bits
    }

    /// Whether the parse is kept.
    pub fn is_kept(&self) -> bool {
        matches!(self.parse, Parse::Kept(_))
    }

    /// The parse, kept or made again by `parse` (the same function the
    /// memo was given); `None` when the bits do not parse.
    pub fn parsed(&self, parse: impl FnOnce(&Certificate) -> Option<T>) -> Option<Held<'_, T>> {
        match &self.parse {
            Parse::Kept(parsed) => Some(Held::Kept(parsed)),
            Parse::Dropped => parse(&self.bits).map(Held::Parsed),
            Parse::Failed => None,
        }
    }
}

/// A parse borrowed from where it is kept (a memo entry, a run's arena),
/// or made again for one decision and dropped after it.
pub enum Held<'a, T> {
    /// Borrowed from where it is kept.
    Kept(&'a T),
    /// Parsed again.
    Parsed(T),
}

impl<T> Deref for Held<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        match self {
            Held::Kept(parsed) => parsed,
            Held::Parsed(parsed) => parsed,
        }
    }
}

/// A decode-side memo (DESIGN.md §7.1): the parse of each distinct key,
/// keyed by the exact bits of a certificate window, shared by the decodes
/// of one run. A key that does not parse is stored as such, its bits
/// counted against [`MEMO_BITS`]; a key past the cap gets an entry of its
/// own, holding only its bits (and the failure, when it does not parse).
pub struct Memo<T> {
    /// The first kept entry, compared before any copying, hashing or
    /// locking: in an honest run, every decode's entry.
    first: OnceLock<Arc<Shared<T>>>,
    state: Mutex<MemoState<T>>,
    /// Key bits the memo stores beyond its first kept entry.
    cap: usize,
}

struct MemoState<T> {
    entries: HashMap<Certificate, Arc<Shared<T>>>,
    /// Key bits held by every entry but the first kept one.
    bits: usize,
}

impl<T> Default for Memo<T> {
    fn default() -> Self {
        Memo {
            first: OnceLock::new(),
            state: Mutex::new(MemoState {
                entries: HashMap::new(),
                bits: 0,
            }),
            cap: MEMO_BITS,
        }
    }
}

impl<T> Memo<T> {
    /// A memo storing at most `cap` key bits beyond its first kept entry.
    #[cfg(test)]
    pub(crate) fn with_cap(cap: usize) -> Self {
        Memo {
            cap,
            ..Memo::default()
        }
    }

    /// The entry for the bits left in `window`: stored, or parsed by
    /// `parse` and stored, or unstored when the bits are past the cap.
    /// Bits that do not parse are stored as such while they fit, so no
    /// decode or decision parses them again. Parsing runs outside the
    /// lock; when two workers race on one key, the first insert wins and
    /// both use it, so a stored entry's lazily evaluated cells are filled
    /// at most once per memo.
    pub fn get(
        &self,
        mut window: BitReader<'_>,
        parse: impl FnOnce(&Certificate) -> Option<T>,
    ) -> Arc<Shared<T>> {
        if let Some(first) = self.first.get() {
            if window.remaining_eq(&first.bits) {
                return Arc::clone(first);
            }
        }
        let bits = window
            .read_cert(window.remaining())
            .expect("a window holds its remaining bits");
        let lock = || {
            self.state
                .lock()
                .expect("nothing panics while holding the memo lock")
        };
        // The first kept entry is free; every other entry counts its bits.
        let fits = |state: &MemoState<T>, kept: bool| {
            (kept && self.first.get().is_none()) || state.bits + bits.len_bits() <= self.cap
        };
        {
            let state = lock();
            if let Some(hit) = state.entries.get(&bits) {
                return Arc::clone(hit);
            }
            if !fits(&state, true) {
                return Arc::new(Shared {
                    bits,
                    parse: Parse::Dropped,
                });
            }
        }
        let (parse, kept) = match parse(&bits) {
            Some(parsed) => (Parse::Kept(parsed), true),
            None => (Parse::Failed, false),
        };
        let mut state = lock();
        if let Some(hit) = state.entries.get(&bits) {
            return Arc::clone(hit);
        }
        let fits = fits(&state, kept);
        let fresh = Arc::new(Shared {
            bits,
            parse: if fits || !kept { parse } else { Parse::Dropped },
        });
        if !fits {
            return fresh;
        }
        if !(kept && self.first.set(Arc::clone(&fresh)).is_ok()) {
            state.bits += fresh.bits.len_bits();
        }
        state.entries.insert(fresh.bits.clone(), Arc::clone(&fresh));
        fresh
    }
}

/// What one vertex sees with every certificate decoded: its own
/// identifier, input and decoded certificate, and per incident edge the
/// neighbor's identifier, input and decoded certificate. As in the
/// model, it has no information about edges among neighbors.
pub struct DecodedView<'a, D> {
    /// The vertex's own identifier.
    pub id: Ident,
    /// The vertex's own input (0 if the instance has none).
    pub input: usize,
    /// The vertex's own decoded certificate.
    pub own: &'a D,
    neighbors: Neighbors<'a, D>,
}

/// Where a [`DecodedView`] reads its neighbors from.
enum Neighbors<'a, D> {
    /// The run's arena, indexed by [`NodeId`], and the vertex's
    /// adjacency.
    Arena {
        adj: &'a [NodeId],
        decoded: &'a [D],
        ids: &'a IdAssignment,
        inputs: Option<&'a [usize]>,
    },
    /// Neighbors read through [`Parts`]: a prepared list's entries (see
    /// [`DecodedView::with_entries`]) or another view's, each decode seen
    /// through a part of it (see [`DecodedView::project`]).
    Indirect(&'a dyn Parts<D>),
}

/// The neighbors of a view that reads them neither from the arena nor
/// from the instance.
trait Parts<E> {
    /// The number of neighbors.
    fn degree(&self) -> usize;

    /// The `i`-th neighbor's identifier, input and decode part.
    fn part(&self, i: usize) -> (Ident, usize, &E);
}

/// A view and the part of each decode it projects to.
struct Projection<'a, D, F> {
    view: DecodedView<'a, D>,
    part: F,
}

impl<D, E, F: Fn(&D) -> &E> Parts<E> for Projection<'_, D, F> {
    fn degree(&self) -> usize {
        self.view.degree()
    }

    fn part(&self, i: usize) -> (Ident, usize, &E) {
        let (id, input, decoded) = self.view.neighbor(i);
        (id, input, (self.part)(decoded))
    }
}

/// A prepared list's view of one vertex's neighbors: one `(identifier,
/// input, entry)` per neighbor, each entry an index into the list's
/// decodes.
struct Entries<'a, D> {
    entries: &'a [(Ident, usize, usize)],
    decoded: &'a [D],
}

impl<D> Parts<D> for Entries<'_, D> {
    fn degree(&self) -> usize {
        self.entries.len()
    }

    fn part(&self, i: usize) -> (Ident, usize, &D) {
        let (id, input, entry) = self.entries[i];
        (id, input, &self.decoded[entry])
    }
}

impl<D> Clone for Neighbors<'_, D> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<D> Copy for Neighbors<'_, D> {}

impl<D> Clone for DecodedView<'_, D> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<D> Copy for DecodedView<'_, D> {}

impl<'a, D> DecodedView<'a, D> {
    /// The view of a vertex whose certificate decodes to `decoded[own]`,
    /// with one `(identifier, input, entry)` per neighbor whose
    /// certificate decodes to `decoded[entry]`, handed to `decide`: how a
    /// [`Prepared`] list decides, reading each neighbor's decode straight
    /// from the list.
    pub(crate) fn with_entries<R>(
        id: Ident,
        input: usize,
        own: usize,
        entries: &[(Ident, usize, usize)],
        decoded: &[D],
        decide: impl FnOnce(&DecodedView<'_, D>) -> R,
    ) -> R {
        decide(&DecodedView {
            id,
            input,
            own: &decoded[own],
            neighbors: Neighbors::Indirect(&Entries { entries, decoded }),
        })
    }

    /// This view with each decode, its own and its neighbors', mapped
    /// through `part`, handed to `decide`: a composite scheme gives a
    /// part's decision the part's decodes without listing them anywhere.
    pub fn project<E, R>(
        &self,
        part: impl Fn(&D) -> &E,
        decide: impl FnOnce(&DecodedView<'_, E>) -> R,
    ) -> R {
        let own = part(self.own);
        let projection = Projection { view: *self, part };
        decide(&DecodedView {
            id: self.id,
            input: self.input,
            own,
            neighbors: Neighbors::Indirect(&projection),
        })
    }

    /// The degree of the vertex.
    pub fn degree(&self) -> usize {
        match self.neighbors {
            Neighbors::Arena { adj, .. } => adj.len(),
            Neighbors::Indirect(parts) => parts.degree(),
        }
    }

    /// The `i`-th neighbor's identifier, input and decoded certificate.
    fn neighbor(&self, i: usize) -> (Ident, usize, &'a D) {
        match self.neighbors {
            Neighbors::Arena {
                adj,
                decoded,
                ids,
                inputs,
            } => {
                let u = adj[i];
                (
                    ids.ident(u),
                    inputs.map_or(0, |ins| ins[u.0]),
                    &decoded[u.0],
                )
            }
            Neighbors::Indirect(parts) => parts.part(i),
        }
    }

    /// The neighbors' identifiers, inputs and decoded certificates, in
    /// adjacency order.
    pub fn neighbors(&self) -> NeighborIter<'a, D> {
        NeighborIter {
            view: *self,
            next: 0,
            end: self.degree(),
        }
    }

    /// The neighbors' identifiers, in adjacency order (decodes nothing).
    pub fn neighbor_ids(&self) -> impl Iterator<Item = Ident> + Clone + '_ {
        (0..self.degree()).map(move |i| match self.neighbors {
            Neighbors::Arena { adj, ids, .. } => ids.ident(adj[i]),
            Neighbors::Indirect(parts) => parts.part(i).0,
        })
    }

    /// Whether some neighbor carries identifier `id`.
    pub fn has_neighbor(&self, id: Ident) -> bool {
        self.neighbor_ids().any(|nid| nid == id)
    }

    /// The decoded certificate of the first neighbor with identifier
    /// `id`, if present.
    pub fn neighbor_decoded(&self, id: Ident) -> Option<&'a D> {
        let i = self.neighbor_ids().position(|nid| nid == id)?;
        Some(self.neighbor(i).2)
    }
}

thread_local! {
    /// The buffers [`with_scratch`] lends, each a `Vec<T>` for some `T`.
    static SCRATCH: RefCell<Vec<Box<dyn Any>>> = const { RefCell::new(Vec::new()) };
}

/// The most bytes of capacity a buffer [`with_scratch`] lends keeps once
/// given back. An honest decision needs a few words per neighbor, far
/// below it; a buffer an outsized certificate grew past it is freed, so a
/// long-lived worker thread does not hold it.
const SCRATCH_KEPT_BYTES: usize = 1 << 16;

/// Runs `f` on an empty `Vec<T>` that this thread reuses from call to
/// call: the buffer a decision needs once per vertex is allocated once
/// per thread instead. A call made inside `f` (a nested decision's)
/// gets a buffer of its own.
pub fn with_scratch<T: 'static, R>(f: impl FnOnce(&mut Vec<T>) -> R) -> R {
    let taken = SCRATCH.with(|free| {
        let mut free = free.borrow_mut();
        let at = free.iter().rposition(|buffer| (**buffer).is::<Vec<T>>())?;
        Some(free.swap_remove(at))
    });
    let mut buffer = taken.unwrap_or_else(|| Box::new(Vec::<T>::new()));
    let scratch = buffer
        .downcast_mut::<Vec<T>>()
        .expect("a buffer is taken by its type");
    scratch.clear();
    let out = f(scratch);
    scratch.clear();
    if scratch.capacity() * std::mem::size_of::<T>() <= SCRATCH_KEPT_BYTES {
        SCRATCH.with(|free| free.borrow_mut().push(buffer));
    }
    out
}

/// Iterator over a [`DecodedView`]'s neighbors.
pub struct NeighborIter<'a, D> {
    view: DecodedView<'a, D>,
    next: usize,
    end: usize,
}

impl<D> Clone for NeighborIter<'_, D> {
    fn clone(&self) -> Self {
        NeighborIter { ..*self }
    }
}

impl<'a, D> Iterator for NeighborIter<'a, D> {
    type Item = (Ident, usize, &'a D);

    fn next(&mut self) -> Option<Self::Item> {
        (self.next < self.end).then(|| {
            self.next += 1;
            self.view.neighbor(self.next - 1)
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.end - self.next;
        (left, Some(left))
    }
}

impl<D> ExactSizeIterator for NeighborIter<'_, D> {}

/// The view telemetry of a run: one `core.framework.view_of.calls` and
/// one degree per vertex, as [`Prepared::decide_at`] counts a vertex (and
/// nothing without a vertex).
fn record_views(g: &Graph) {
    if !locert_trace::enabled() || g.num_nodes() == 0 {
        return;
    }
    locert_trace::Counter::named("core.framework.view_of.calls").add(g.num_nodes() as u64);
    let mut neighbors = LocalHistogram::default();
    for v in g.nodes() {
        neighbors.record(g.degree(v) as u64);
    }
    locert_trace::Histogram::named("core.framework.view.neighbors").merge(&neighbors);
}

/// Every vertex's `decide(v)` on `pool`. While tracing is on, each
/// decision is timed and the run's times go into
/// `core.framework.verifier.ns` in one merge; otherwise nothing reads the
/// clock. (`decide` is a trait object so the pool loops are compiled
/// once, not once per scheme.)
fn decide_timed(
    pool: &locert_par::Pool,
    n: usize,
    decide: &(dyn Fn(usize) -> Option<RejectReason> + Sync),
) -> Vec<Option<RejectReason>> {
    if !locert_trace::enabled() {
        return pool.par_map_collect(n, decide);
    }
    let timed = pool.par_map_collect(n, |i| {
        let start = std::time::Instant::now();
        let reason = decide(i);
        (reason, start.elapsed().as_nanos() as u64)
    });
    let mut ns = LocalHistogram::default();
    for &(_, t) in &timed {
        ns.record(t);
    }
    locert_trace::Histogram::named("core.framework.verifier.ns").merge(&ns);
    timed.into_iter().map(|(reason, _)| reason).collect()
}

/// The asymptotic certificate-size family a scheme claims, as a
/// machine-readable value the conformance observatory (`boundcheck`,
/// experiment E9) can fit measured sizes against.
///
/// The taxonomy mirrors the paper's bound table: `O(1)` for MSO on
/// trees and words (Thm 2.2, §4), `O(log k)` for parameterized bounds
/// independent of `n`, `O(log n)` for the FO fragments, spanning-tree
/// and minor-freeness schemes (Lemma 2.1, Prop 3.4, Cor 2.7), and
/// `poly(td)·log n` for the treedepth routes (Thm 2.4, Thm 2.6). The
/// universal fallback broadcasts the whole graph and is quadratic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeclaredBound {
    /// `O(1)`: size independent of `n` and of every parameter.
    Constant,
    /// `O(log k)`: grows only with the named parameter bound `k`,
    /// never with `n`.
    LogK {
        /// The parameter value the scheme was instantiated with.
        k: u64,
    },
    /// `O(log n)`.
    LogN,
    /// `poly(td)·log n` with the treedepth parameter fixed.
    PolyTdLogN {
        /// The treedepth (or minor-order) bound `t`.
        td: u32,
    },
    /// `O(n²)`: the universal scheme's full-graph broadcast.
    QuadraticN,
}

impl DeclaredBound {
    /// Rank in the dominance order `O(1) < O(log k) < O(log n) <
    /// poly(td)·log n < O(n²)`, used to combine operand bounds.
    fn rank(&self) -> u8 {
        match self {
            DeclaredBound::Constant => 0,
            DeclaredBound::LogK { .. } => 1,
            DeclaredBound::LogN => 2,
            DeclaredBound::PolyTdLogN { .. } => 3,
            DeclaredBound::QuadraticN => 4,
        }
    }

    /// The stable family code (`o1`, `o-log-k`, `o-log-n`,
    /// `poly-td-log-n`, `o-n2`) used in baselines and reports.
    pub fn family(&self) -> &'static str {
        match self {
            DeclaredBound::Constant => "o1",
            DeclaredBound::LogK { .. } => "o-log-k",
            DeclaredBound::LogN => "o-log-n",
            DeclaredBound::PolyTdLogN { .. } => "poly-td-log-n",
            DeclaredBound::QuadraticN => "o-n2",
        }
    }

    /// Human-readable bound with parameters filled in.
    pub fn label(&self) -> String {
        match self {
            DeclaredBound::Constant => "O(1)".into(),
            DeclaredBound::LogK { k } => format!("O(log k), k={k}"),
            DeclaredBound::LogN => "O(log n)".into(),
            DeclaredBound::PolyTdLogN { td } => format!("poly(td)·log n, td={td}"),
            DeclaredBound::QuadraticN => "O(n²)".into(),
        }
    }

    /// The growth envelope `g(n)` the bound permits, up to a constant:
    /// `1` for `n`-independent families, `log₂ n` for the logarithmic
    /// ones (the `poly(td)` factor is a constant once `td` is fixed),
    /// `n²` for the universal fallback. Measured sizes conform when
    /// `max_bits(n) / g(n)` stays bounded as `n` grows.
    pub fn growth(&self, n: usize) -> f64 {
        match self {
            DeclaredBound::Constant | DeclaredBound::LogK { .. } => 1.0,
            DeclaredBound::LogN | DeclaredBound::PolyTdLogN { .. } => (n.max(2) as f64).log2(),
            DeclaredBound::QuadraticN => {
                let n = n.max(1) as f64;
                n * n
            }
        }
    }

    /// The bound of a scheme combining two sub-schemes: the dominating
    /// family, with parameters merged by maximum when the families tie.
    pub fn combine(self, other: DeclaredBound) -> DeclaredBound {
        match (self, other) {
            (DeclaredBound::LogK { k: a }, DeclaredBound::LogK { k: b }) => {
                DeclaredBound::LogK { k: a.max(b) }
            }
            (DeclaredBound::PolyTdLogN { td: a }, DeclaredBound::PolyTdLogN { td: b }) => {
                DeclaredBound::PolyTdLogN { td: a.max(b) }
            }
            (a, b) => {
                if a.rank() >= b.rank() {
                    a
                } else {
                    b
                }
            }
        }
    }
}

impl fmt::Display for DeclaredBound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

/// A complete certification scheme: prover + verifier + metadata.
pub trait Scheme: Prover + Verifier {
    /// Human-readable name (for experiment reports).
    fn name(&self) -> String;

    /// The certificate-size bound the scheme claims (the paper's
    /// theorem statement for it), checked against measured sizes by
    /// the conformance observatory.
    fn declared_bound(&self) -> DeclaredBound;
}

/// The outcome of running the verifier at every vertex.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerificationOutcome {
    rejecting: Vec<Ident>,
    verdicts: Vec<Verdict>,
    max_bits: usize,
}

impl VerificationOutcome {
    /// Whether every vertex accepted.
    pub fn accepted(&self) -> bool {
        self.rejecting.is_empty()
    }

    /// Identifiers of the rejecting vertices.
    pub fn rejecting(&self) -> &[Ident] {
        &self.rejecting
    }

    /// Per-vertex verdicts, indexed by [`NodeId`].
    pub fn verdicts(&self) -> &[Verdict] {
        &self.verdicts
    }

    /// The verdict of one vertex.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range for the instance that was run.
    pub fn verdict(&self, v: NodeId) -> &Verdict {
        &self.verdicts[v.0]
    }

    /// The certificate size (max bits) of the assignment that was run.
    pub fn max_bits(&self) -> usize {
        self.max_bits
    }
}

/// Runs `verifier` at every vertex under `assignment`.
///
/// Total under adversarial assignments: vertices the assignment does not
/// cover see the empty certificate (and so reject in any scheme that
/// requires certificate contents) instead of panicking the simulator.
pub fn run_verification(
    verifier: &dyn Verifier,
    instance: &Instance<'_>,
    assignment: &Assignment,
) -> VerificationOutcome {
    run_verification_in(locert_par::global(), verifier, instance, assignment)
}

/// [`run_verification`] on an explicit pool (the outcome is identical at
/// any worker count).
pub fn run_verification_in(
    pool: &locert_par::Pool,
    verifier: &dyn Verifier,
    instance: &Instance<'_>,
    assignment: &Assignment,
) -> VerificationOutcome {
    let _span = locert_trace::span!("core.run_verification");
    // Decide every vertex in parallel: vertices are independent by
    // construction (each sees only its radius-1 view), and the results
    // land in per-vertex slots, so the outcome is identical to the
    // sequential loop at any worker count.
    let g = instance.graph();
    let n = g.num_nodes();
    let reasons = verifier.decide_all(instance, assignment, pool);
    assert_eq!(reasons.len(), n, "decide_all must answer every vertex");
    let mut cert_bits = locert_trace::enabled().then(LocalHistogram::default);
    let decided = reasons.into_iter().enumerate().map(|(i, reason)| {
        let v = NodeId(i);
        let bits = |u: NodeId| assignment.cert(u).len_bits();
        let bits_read = bits(v) + g.neighbors(v).iter().map(|&u| bits(u)).sum::<usize>();
        if let Some(cert_bits) = &mut cert_bits {
            cert_bits.record(bits(v) as u64);
        }
        (reason, bits_read)
    });
    // Emit verdicts sequentially in vertex order, off the hot path: the
    // journal stays byte-identical to a single-threaded run. The round
    // mark carries no number — this function has no deterministic local
    // counter (a global one would record schedule order when running
    // inside `journal::capture` on a worker thread), so windowing
    // readers assign ordinals by marker position instead.
    locert_trace::journal::record_with(|| locert_trace::journal::Event::RoundMark {
        scope: "core.verify".to_string(),
        round: None,
    });
    let mut rejecting = Vec::new();
    let mut verdicts = Vec::with_capacity(n);
    for (i, (reason, bits_read)) in decided.enumerate() {
        let v = NodeId(i);
        locert_trace::journal::record_with(|| locert_trace::journal::Event::Verdict {
            vertex: v.0 as u64,
            accepted: reason.is_none(),
            reason: reason.as_ref().map(|r| r.code().to_string()),
            bits_read: bits_read as u64,
        });
        if reason.is_some() {
            rejecting.push(instance.ids().ident(v));
        }
        verdicts.push(Verdict {
            accepted: reason.is_none(),
            reason,
            bits_read,
        });
    }
    if let Some(cert_bits) = &cert_bits {
        locert_trace::Histogram::named("core.framework.certificate.bits").merge(cert_bits);
    }
    if locert_trace::enabled() {
        locert_trace::Counter::named("core.framework.verifier.invocations").add(n as u64);
        locert_trace::Counter::named("core.framework.verifier.rejections")
            .add(rejecting.len() as u64);
        // Read amplification: certificate bits examined across all
        // radius-1 views over bits stored, in fixed-point percent (100
        // = every stored bit read exactly once). Each vertex's
        // certificate is re-read once per incident edge, so this is
        // 100·(1 + 2m/n) on certificates of uniform length. Undefined
        // (and not recorded) for all-empty assignments.
        let read: usize = verdicts.iter().map(|v| v.bits_read).sum();
        if let Some(amp) = (read * 100).checked_div(assignment.total_bits()) {
            locert_trace::record("core.framework.verify.read_amplification", amp as u64);
        }
    }
    VerificationOutcome {
        rejecting,
        verdicts,
        max_bits: assignment.max_bits(),
    }
}

/// Runs the full pipeline: prover, then verification at every vertex.
///
/// # Errors
///
/// Propagates the prover's error on non-yes-instances.
pub fn run_scheme(
    scheme: &dyn Scheme,
    instance: &Instance<'_>,
) -> Result<VerificationOutcome, ProverError> {
    let _span = locert_trace::span!("core.run_scheme");
    locert_trace::journal::record_with(|| locert_trace::journal::Event::ProverStart {
        scheme: scheme.name(),
    });
    let result = {
        let _prover_span = locert_trace::span!("core.prover");
        scheme.assign(instance)
    };
    locert_trace::journal::record_with(|| locert_trace::journal::Event::ProverEnd {
        scheme: scheme.name(),
        ok: result.is_ok(),
        max_bits: result.as_ref().map_or(0, |a| a.max_bits() as u64),
    });
    let assignment = result?;
    if locert_trace::enabled() {
        locert_trace::add("core.prover.assignments", 1);
        locert_trace::record(
            "core.framework.assignment.max_bits",
            assignment.max_bits() as u64,
        );
        locert_trace::record(
            "core.framework.assignment.total_bits",
            assignment.total_bits() as u64,
        );
    }
    Ok(run_verification(scheme, instance, &assignment))
}

#[cfg(test)]
mod tests {
    use super::test_views::{Seen, ViewProbe};
    use super::*;
    use crate::bits::BitWriter;
    use locert_graph::generators;

    /// Toy scheme: every vertex's certificate is its own degree; verified
    /// against the visible neighbor count.
    struct DegreeScheme;

    impl Prover for DegreeScheme {
        fn assign(&self, instance: &Instance<'_>) -> Result<Assignment, ProverError> {
            let g = instance.graph();
            Ok(Assignment::write_each(g.num_nodes(), |v, w| {
                w.component("degree");
                w.write(g.degree(v) as u64, 16);
            }))
        }
    }

    impl Decode for DegreeScheme {
        type Decoded = Option<u64>;
        type Cache = ();

        fn decode(&self, mut r: BitReader<'_>, _: &()) -> Option<u64> {
            let claimed = r.read(16)?;
            r.exhausted().then_some(claimed)
        }

        fn decide_decoded(&self, view: &DecodedView<'_, Option<u64>>) -> Result<(), RejectReason> {
            let claimed = view.own.ok_or(RejectReason::MalformedCertificate)?;
            if claimed != view.degree() as u64 {
                return Err(RejectReason::CounterMismatch);
            }
            Ok(())
        }
    }

    impl Scheme for DegreeScheme {
        fn name(&self) -> String {
            "degree".into()
        }

        fn declared_bound(&self) -> DeclaredBound {
            // A fixed 16-bit field regardless of n.
            DeclaredBound::Constant
        }
    }

    #[test]
    fn pipeline_accepts_honest_prover() {
        let g = generators::cycle(5);
        let ids = IdAssignment::contiguous(5);
        let inst = Instance::new(&g, &ids);
        let out = run_scheme(&DegreeScheme, &inst).unwrap();
        assert!(out.accepted());
        assert_eq!(out.max_bits(), 16);
    }

    #[test]
    fn scratch_nests_and_frees_outsized_buffers() {
        // A nested call gets a buffer of its own; both are kept.
        with_scratch(|outer: &mut Vec<u64>| {
            outer.reserve(8);
            with_scratch(|inner: &mut Vec<u64>| {
                assert_eq!(inner.capacity(), 0);
                inner.reserve(8);
            });
        });
        with_scratch(|kept: &mut Vec<u64>| assert!(kept.capacity() >= 8));
        // A buffer grown past the bound is freed when given back.
        let words = SCRATCH_KEPT_BYTES / 8 + 1;
        for _ in 0..2 {
            with_scratch(|big: &mut Vec<u64>| {
                assert!(big.capacity() < words);
                big.reserve(words);
            });
        }
    }

    #[test]
    fn corrupted_certificate_rejected_by_owner() {
        let g = generators::star(4);
        let ids = IdAssignment::contiguous(4);
        let inst = Instance::new(&g, &ids);
        let mut asg = DegreeScheme.assign(&inst).unwrap();
        *asg.cert_mut(NodeId(0)) = asg.cert(NodeId(0)).with_bit_flipped(15);
        let out = run_verification(&DegreeScheme, &inst, &asg);
        assert!(!out.accepted());
        assert_eq!(out.rejecting(), &[ids.ident(NodeId(0))]);
    }

    #[test]
    fn verdicts_carry_reason_and_bits_read() {
        let g = generators::star(4);
        let ids = IdAssignment::contiguous(4);
        let inst = Instance::new(&g, &ids);
        let mut asg = DegreeScheme.assign(&inst).unwrap();
        *asg.cert_mut(NodeId(0)) = asg.cert(NodeId(0)).with_bit_flipped(15);
        let out = run_verification(&DegreeScheme, &inst, &asg);
        assert_eq!(out.verdicts().len(), 4);
        let bad = out.verdict(NodeId(0));
        assert!(!bad.accepted);
        assert_eq!(bad.reason, Some(RejectReason::CounterMismatch));
        // Center of the star: own 16 bits + three neighbors' 16 bits.
        assert_eq!(bad.bits_read, 64);
        for v in 1..4 {
            let verdict = out.verdict(NodeId(v));
            assert!(verdict.accepted);
            assert_eq!(verdict.reason, None);
            assert_eq!(verdict.bits_read, 32);
        }
    }

    #[test]
    fn reject_reason_codes_roundtrip() {
        for reason in RejectReason::ALL {
            assert_eq!(RejectReason::from_code(reason.code()), Some(reason));
            assert_eq!(reason.to_string(), reason.code());
        }
        assert_eq!(RejectReason::Other("custom-check").code(), "custom-check");
        assert_eq!(RejectReason::from_code("custom-check"), None);
    }

    /// What `v` sees on a run and on a prepared list, which must agree.
    fn seen(inst: &Instance<'_>, asg: &Assignment, v: NodeId) -> Seen {
        let probe = ViewProbe::default();
        run_verification(&probe, inst, asg);
        let certs: Vec<Certificate> = inst.graph().nodes().map(|u| asg.cert(u).clone()).collect();
        assert_eq!(probe.prepare(&certs).decide_at(inst, v, |u| u.0), Ok(()));
        let mut seen = probe.0.into_inner().unwrap();
        let prepared = seen.pop().unwrap();
        let id = inst.ids().ident(v);
        assert_eq!(seen.iter().find(|s| s.0 == id), Some(&prepared));
        prepared
    }

    #[test]
    fn views_do_not_expose_neighbor_edges() {
        // The view type simply has no such field; spot-check the shape.
        let g = generators::clique(3);
        let ids = IdAssignment::contiguous(3);
        let inst = Instance::new(&g, &ids);
        let mut w = BitWriter::new();
        w.write(0, 5);
        let asg = Assignment::new(vec![Certificate::empty(), w.finish(), Certificate::empty()]);
        let (id, _, neighbors) = seen(&inst, &asg, NodeId(0));
        assert_eq!(id, Ident(1));
        assert_eq!(neighbors, [(Ident(2), 0, 5), (Ident(3), 0, 0)]);
    }

    #[test]
    fn inputs_flow_into_views() {
        let g = generators::path(3);
        let ids = IdAssignment::contiguous(3);
        let inputs = vec![7usize, 8, 9];
        let inst = Instance::with_inputs(&g, &ids, &inputs);
        let asg = Assignment::empty(3);
        let (_, input, neighbors) = seen(&inst, &asg, NodeId(1));
        assert_eq!(input, 8);
        let mut nbr_inputs: Vec<usize> = neighbors.iter().map(|&(_, i, _)| i).collect();
        nbr_inputs.sort_unstable();
        assert_eq!(nbr_inputs, vec![7, 9]);
    }

    #[test]
    fn assignment_size_accounting() {
        let mut w1 = BitWriter::new();
        w1.write(1, 5);
        let mut w2 = BitWriter::new();
        w2.write(1, 9);
        let asg = Assignment::new(vec![w1.finish(), w2.finish()]);
        assert_eq!(asg.max_bits(), 9);
        assert_eq!(asg.total_bits(), 14);
    }

    #[test]
    fn size_accounting_edge_cases() {
        // No vertices at all: both measures are 0, not a panic.
        let none = Assignment::empty(0);
        assert!(none.is_empty());
        assert_eq!(none.max_bits(), 0);
        assert_eq!(none.total_bits(), 0);
        // Vertices with zero-length certificates: still 0 — a
        // certificate-free scheme has size 0 in the paper's measure.
        let empty = Assignment::empty(5);
        assert_eq!(empty.len(), 5);
        assert_eq!(empty.max_bits(), 0);
        assert_eq!(empty.total_bits(), 0);
        // A mix of empty and non-empty certificates: empties count as
        // length 0 on both measures.
        let mut w = BitWriter::new();
        w.write(1, 3);
        let asg = Assignment::new(vec![Certificate::empty(), w.finish()]);
        assert_eq!(asg.max_bits(), 3);
        assert_eq!(asg.total_bits(), 3);
    }

    #[test]
    fn declared_bounds_order_combine_and_describe() {
        use DeclaredBound::*;
        assert_eq!(Constant.combine(LogN), LogN);
        assert_eq!(LogN.combine(Constant), LogN);
        assert_eq!(LogK { k: 3 }.combine(LogK { k: 9 }), LogK { k: 9 });
        assert_eq!(
            PolyTdLogN { td: 2 }.combine(PolyTdLogN { td: 5 }),
            PolyTdLogN { td: 5 }
        );
        assert_eq!(LogN.combine(QuadraticN), QuadraticN);
        assert_eq!(PolyTdLogN { td: 4 }.combine(LogN), PolyTdLogN { td: 4 });
        // Growth envelopes.
        assert_eq!(Constant.growth(1 << 20), 1.0);
        assert_eq!(LogK { k: 7 }.growth(1 << 20), 1.0);
        assert_eq!(LogN.growth(256), 8.0);
        assert_eq!(PolyTdLogN { td: 3 }.growth(256), 8.0);
        assert_eq!(QuadraticN.growth(10), 100.0);
        // Degenerate n never yields a zero or negative envelope.
        assert!(LogN.growth(0) >= 1.0 && LogN.growth(1) >= 1.0);
        // Stable codes and labels.
        assert_eq!(LogN.family(), "o-log-n");
        assert_eq!(PolyTdLogN { td: 3 }.to_string(), "poly(td)·log n, td=3");
        assert_eq!(DegreeScheme.declared_bound(), Constant);
    }

    /// `bits` (`'0'`/`'1'`) as a certificate.
    fn key(bits: &str) -> Certificate {
        let mut w = BitWriter::new();
        for b in bits.chars() {
            w.write_bit(b == '1');
        }
        w.finish()
    }

    fn stored<T>(memo: &Memo<T>) -> usize {
        memo.state.lock().unwrap().entries.len()
    }

    #[test]
    fn equal_keys_share_one_entry_across_workers() {
        let bits = key("1011001110001111000011111000001111110");
        let memo = Memo::default();
        let shared = locert_par::Pool::new(4).par_map_collect(256, |_| {
            memo.get(BitReader::new(&bits), |b| Some(b.len_bits()))
        });
        assert_eq!(stored(&memo), 1);
        assert!(shared[0].is_kept());
        assert!(shared.iter().all(|s| Arc::ptr_eq(s, &shared[0])));
    }

    #[test]
    fn equal_bytes_of_other_lengths_are_other_keys() {
        // One byte 0x80 each, at 1, 2 and 8 bits: three keys.
        let memo = Memo::default();
        let entries: Vec<_> = ["1", "10", "10000000", "1"]
            .iter()
            .map(|bits| memo.get(BitReader::new(&key(bits)), |b| Some(b.len_bits())))
            .collect();
        assert_eq!(stored(&memo), 3);
        assert!(!Arc::ptr_eq(&entries[0], &entries[1]));
        assert!(!Arc::ptr_eq(&entries[1], &entries[2]));
        assert!(Arc::ptr_eq(&entries[0], &entries[3]));
        let lengths: Vec<usize> = entries
            .iter()
            .map(|e| *e.parsed(|_| None).unwrap())
            .collect();
        assert_eq!(lengths, [1, 2, 8, 1]);
        // A window of a longer certificate is keyed by its own bits.
        let longer = key("1000000011");
        let mut r = BitReader::new(&longer);
        let window = r.take(8).unwrap();
        assert!(Arc::ptr_eq(&memo.get(window, |_| None), &entries[2]));
    }

    #[test]
    fn unparseable_keys_are_stored_as_failures_under_the_cap() {
        let never = |_: &Certificate| -> Option<()> { unreachable!("parsed again") };
        let memo: Memo<()> = Memo::with_cap(4);
        let bad = memo.get(BitReader::new(&key("0110")), |_| None);
        assert!(!bad.is_kept());
        assert_eq!(bad.bits(), &key("0110"));
        assert!(bad.parsed(never).is_none());
        assert!(Arc::ptr_eq(
            &memo.get(BitReader::new(&key("0110")), never),
            &bad
        ));
        // Its bits fill the cap: the next failure is not stored, but it
        // keeps its verdict.
        let worse = memo.get(BitReader::new(&key("0")), |_| None);
        assert!(worse.parsed(never).is_none());
        assert_eq!(stored(&memo), 1);
        // The first key that parses is the first kept entry, stored for
        // free.
        let good = memo.get(BitReader::new(&key("0111")), |_| Some(()));
        assert!(good.is_kept());
        assert_eq!(stored(&memo), 2);
        assert!(Arc::ptr_eq(
            &memo.get(BitReader::new(&key("0111")), never),
            &good
        ));
    }

    #[test]
    fn a_zero_cap_keeps_only_the_first_entry() {
        let memo = Memo::with_cap(0);
        let first = memo.get(BitReader::new(&key("110")), |b| Some(b.len_bits()));
        let past = memo.get(BitReader::new(&key("111")), |b| Some(b.len_bits()));
        assert!(first.is_kept());
        assert!(!past.is_kept());
        assert_eq!(past.bits(), &key("111"));
        assert!(matches!(
            past.parsed(|b| Some(b.len_bits())),
            Some(Held::Parsed(3))
        ));
        assert!(Arc::ptr_eq(
            &memo.get(BitReader::new(&key("110")), |_| None),
            &first
        ));
        assert_eq!(stored(&memo), 1);
    }

    #[test]
    fn written_arenas_match_packed_writers_and_their_ledger() {
        // Lengths 0..=20 bits, so certificates start on and off byte
        // boundaries and some are empty.
        let write = |v: usize, w: &mut BitWriter| {
            for i in 0..v {
                w.component(if i % 2 == 0 { "even" } else { "odd" });
                w.write_bit(i % 3 == 0);
            }
        };
        let (packed, packed_ledger) = locert_trace::ledger::capture(|| {
            let certs: Vec<_> = (0..21)
                .map(|v| {
                    let mut w = BitWriter::new();
                    write(v, &mut w);
                    w.finish_for(v)
                })
                .collect();
            Assignment::new(certs)
        });
        let (written, written_ledger) =
            locert_trace::ledger::capture(|| Assignment::write_each(21, |v, w| write(v.0, w)));
        assert_eq!(written.len(), 21);
        for v in 0..21 {
            assert_eq!(written.cert(NodeId(v)), packed.cert(NodeId(v)));
            assert!(written.cert(NodeId(v)).is_view());
        }
        assert_eq!(written_ledger, packed_ledger);
    }

    #[test]
    fn honest_run_yields_a_fully_tiled_ledger() {
        let g = generators::cycle(5);
        let ids = IdAssignment::contiguous(5);
        let inst = Instance::new(&g, &ids);
        let (result, ledger) = locert_trace::ledger::capture(|| run_scheme(&DegreeScheme, &inst));
        assert!(result.unwrap().accepted());
        assert!(ledger.fully_attributed());
        let finals = ledger.final_certs();
        assert_eq!(finals.len(), 5);
        for v in 0..5 {
            assert_eq!(finals[&v].total_bits, 16);
            assert_eq!(finals[&v].component_bits()["degree"], 16);
        }
        assert_eq!(ledger.max_bits(), 16);
    }
}

/// Views for tests: the raw-bits view the reference verifiers in the
/// scheme tests decide from, and a verifier that records the decoded
/// views it is given.
#[cfg(test)]
pub(crate) mod test_views {
    use super::*;

    /// A vertex's radius-1 view on raw certificate bits: what the reference
    /// verifiers in the scheme tests decide from, parsing every certificate
    /// in the view afresh, as the schemes did before the decode stage.
    pub(crate) struct LocalView<'a> {
        /// The vertex's own identifier.
        pub id: Ident,
        /// The vertex's own input (0 if the instance has none).
        pub input: usize,
        /// The vertex's own certificate.
        pub cert: &'a Certificate,
        /// For each incident edge: the neighbor's identifier, input and
        /// certificate.
        pub neighbors: Vec<(Ident, usize, &'a Certificate)>,
    }

    impl LocalView<'_> {
        /// Whether some neighbor carries identifier `id`.
        pub fn has_neighbor(&self, id: Ident) -> bool {
            self.neighbors.iter().any(|&(nid, _, _)| nid == id)
        }

        /// Certificate bits in the view (a [`Verdict`]'s `bits_read`).
        pub fn bits(&self) -> usize {
            self.cert.len_bits()
                + self
                    .neighbors
                    .iter()
                    .map(|&(_, _, c)| c.len_bits())
                    .sum::<usize>()
        }
    }

    /// The raw view of vertex `v` under `assignment`.
    pub(crate) fn view_of<'a>(
        instance: &'a Instance<'a>,
        assignment: &'a Assignment,
        v: NodeId,
    ) -> LocalView<'a> {
        LocalView {
            id: instance.ids().ident(v),
            input: instance.input(v),
            cert: assignment.cert(v),
            neighbors: instance
                .graph()
                .neighbors(v)
                .iter()
                .map(|&u| {
                    (
                        instance.ids().ident(u),
                        instance.input(u),
                        assignment.cert(u),
                    )
                })
                .collect(),
        }
    }

    /// What a decision saw: the vertex's identifier and input, and each
    /// neighbor's identifier, input and certificate length.
    pub(crate) type Seen = (Ident, usize, Vec<(Ident, usize, usize)>);

    /// A test verifier that records the view of every vertex it decides, in
    /// the order it decides them, and accepts.
    #[derive(Default)]
    pub(crate) struct ViewProbe(pub Mutex<Vec<Seen>>);

    impl Decode for ViewProbe {
        type Decoded = usize;
        type Cache = ();

        fn decode(&self, window: BitReader<'_>, _: &()) -> usize {
            window.remaining()
        }

        fn decide_decoded(&self, view: &DecodedView<'_, usize>) -> Result<(), RejectReason> {
            let neighbors = view.neighbors().map(|(id, input, &bits)| (id, input, bits));
            self.0
                .lock()
                .unwrap()
                .push((view.id, view.input, neighbors.collect()));
            Ok(())
        }
    }
}
