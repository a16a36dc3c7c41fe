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

use crate::bits::Certificate;
use locert_graph::{Graph, IdAssignment, Ident, NodeId};
use std::error::Error;
use std::fmt;

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
    /// their bytes into one shared arena.
    pub fn new(certs: Vec<Certificate>) -> Self {
        let total: usize = certs.iter().map(|c| c.as_bytes().len()).sum();
        let mut arena = Vec::with_capacity(total);
        let mut offsets = Vec::with_capacity(certs.len());
        for c in &certs {
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

    /// Wraps per-vertex certificates as-is, without arena packing.
    ///
    /// For enumeration hot loops (exhaustive and random attacks) that
    /// build millions of short-lived assignments: `new`'s arena costs
    /// two allocations per assignment, which dominates when each
    /// assignment is verified once and dropped. Honest provers use
    /// [`Assignment::new`] so long-lived assignments stay arena-backed.
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

/// What one vertex sees: its radius-1 view.
#[derive(Debug, Clone)]
pub struct LocalView<'a> {
    /// The vertex's own identifier.
    pub id: Ident,
    /// The vertex's own input (0 if the instance has none).
    pub input: usize,
    /// The vertex's own certificate.
    pub cert: &'a Certificate,
    /// For each incident edge: the neighbor's identifier, input and
    /// certificate. **No information about edges among neighbors.**
    pub neighbors: Vec<(Ident, usize, &'a Certificate)>,
}

impl<'a> LocalView<'a> {
    /// The degree of the vertex.
    pub fn degree(&self) -> usize {
        self.neighbors.len()
    }

    /// Whether some neighbor carries identifier `id`.
    pub fn has_neighbor(&self, id: Ident) -> bool {
        self.neighbors.iter().any(|&(nid, _, _)| nid == id)
    }

    /// The certificate of the neighbor with identifier `id`, if present.
    pub fn neighbor_cert(&self, id: Ident) -> Option<&'a Certificate> {
        self.neighbors
            .iter()
            .find(|&&(nid, _, _)| nid == id)
            .map(|&(_, _, c)| c)
    }
}

/// Builds the view of vertex `v` under `assignment`.
pub fn view_of<'a>(
    instance: &'a Instance<'a>,
    assignment: &'a Assignment,
    v: NodeId,
) -> LocalView<'a> {
    let neighbors: Vec<(Ident, usize, &Certificate)> = instance
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
        .collect();
    if locert_trace::enabled() {
        locert_trace::add("core.framework.view_of.calls", 1);
        locert_trace::record("core.framework.view.neighbors", neighbors.len() as u64);
    }
    LocalView {
        id: instance.ids().ident(v),
        input: instance.input(v),
        cert: assignment.cert(v),
        neighbors,
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

/// One run's per-vertex decision procedure (see [`Verifier::run_decider`]).
pub type Decider<'a> = Box<dyn Fn(&LocalView<'_>) -> Result<(), RejectReason> + Sync + 'a>;

/// The local verification algorithm of a scheme.
///
/// `Sync` is a supertrait because [`run_verification`] runs vertices in
/// parallel sharing one `&dyn Verifier` — faithful to the model, where
/// every vertex runs the *same* stateless decision procedure on its own
/// radius-1 view. Interior mutability (memo caches) must be thread-safe
/// (`Mutex`, atomics), not `RefCell`.
pub trait Verifier: Sync {
    /// The decision of one vertex given its radius-1 view, with a
    /// [`RejectReason`] on rejection.
    ///
    /// # Errors
    ///
    /// The reason the vertex rejects; `Ok(())` means accept.
    fn decide(&self, view: &LocalView<'_>) -> Result<(), RejectReason>;

    /// The decision procedure for one [`run_verification`] call, which
    /// applies it to every vertex from any pool worker (provided; the
    /// default just calls [`Verifier::decide`]).
    ///
    /// Contract for overrides: on every view the returned procedure
    /// answers exactly what `decide` answers. It may keep a memo of work
    /// many vertices share, such as a parsed broadcast map; the memo must
    /// be keyed by certificate bits only, and it lives in the returned
    /// closure, so nothing carries over from one run to the next.
    fn run_decider(&self) -> Decider<'_> {
        Box::new(move |view| self.decide(view))
    }

    /// The bare boolean decision (provided; equivalent to
    /// `self.decide(view).is_ok()`).
    fn verify(&self, view: &LocalView<'_>) -> bool {
        self.decide(view).is_ok()
    }
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
    let handles = locert_trace::enabled().then(|| {
        (
            locert_trace::Counter::named("core.framework.verifier.invocations"),
            locert_trace::Counter::named("core.framework.verifier.rejections"),
            locert_trace::Histogram::named("core.framework.certificate.bits"),
            locert_trace::Histogram::named("core.framework.verifier.ns"),
        )
    });
    // Decide every vertex in parallel: vertices are independent by
    // construction (each sees only its radius-1 view), and the results
    // land in per-vertex slots, so the outcome is identical to the
    // sequential loop at any worker count.
    let n = instance.graph().num_nodes();
    let decide = verifier.run_decider();
    let decided = pool.par_map_collect(n, |i| {
        let v = NodeId(i);
        let view = view_of(instance, assignment, v);
        let bits_read = view.cert.len_bits()
            + view
                .neighbors
                .iter()
                .map(|&(_, _, c)| c.len_bits())
                .sum::<usize>();
        let start = std::time::Instant::now();
        let reason = decide(&view).err();
        if let Some((invocations, rejections, cert_bits, per_vertex_ns)) = &handles {
            per_vertex_ns.record(start.elapsed().as_nanos() as u64);
            cert_bits.record(assignment.cert(v).len_bits() as u64);
            invocations.add(1);
            if reason.is_some() {
                rejections.add(1);
            }
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
    for (i, (reason, bits_read)) in decided.into_iter().enumerate() {
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
    if locert_trace::enabled() {
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
    use super::*;
    use crate::bits::BitWriter;
    use locert_graph::generators;

    /// Toy scheme: every vertex's certificate is its own degree; verified
    /// against the visible neighbor count.
    struct DegreeScheme;

    impl Prover for DegreeScheme {
        fn assign(&self, instance: &Instance<'_>) -> Result<Assignment, ProverError> {
            let certs = instance
                .graph()
                .nodes()
                .map(|v| {
                    let mut w = BitWriter::new();
                    w.component("degree");
                    w.write(instance.graph().degree(v) as u64, 16);
                    w.finish_for(v.0)
                })
                .collect();
            Ok(Assignment::new(certs))
        }
    }

    impl Verifier for DegreeScheme {
        fn decide(&self, view: &LocalView<'_>) -> Result<(), RejectReason> {
            let mut r = crate::bits::BitReader::new(view.cert);
            let claimed = r.read(16).ok_or(RejectReason::MalformedCertificate)?;
            if !r.exhausted() {
                return Err(RejectReason::MalformedCertificate);
            }
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

    #[test]
    fn views_do_not_expose_neighbor_edges() {
        // The view type simply has no such field; spot-check the shape.
        let g = generators::clique(3);
        let ids = IdAssignment::contiguous(3);
        let inst = Instance::new(&g, &ids);
        let asg = Assignment::empty(3);
        let view = view_of(&inst, &asg, NodeId(0));
        assert_eq!(view.degree(), 2);
        assert!(view.has_neighbor(Ident(2)));
        assert!(view.has_neighbor(Ident(3)));
        assert!(!view.has_neighbor(Ident(1))); // itself.
        assert!(view.neighbor_cert(Ident(2)).unwrap().is_empty());
        assert_eq!(view.neighbor_cert(Ident(9)), None);
    }

    #[test]
    fn inputs_flow_into_views() {
        let g = generators::path(3);
        let ids = IdAssignment::contiguous(3);
        let inputs = vec![7usize, 8, 9];
        let inst = Instance::with_inputs(&g, &ids, &inputs);
        let asg = Assignment::empty(3);
        let view = view_of(&inst, &asg, NodeId(1));
        assert_eq!(view.input, 8);
        let mut nbr_inputs: Vec<usize> = view.neighbors.iter().map(|&(_, i, _)| i).collect();
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

    #[test]
    fn read_amplification_histogram_records_under_tracing() {
        // Serialized against other trace-global tests via the registry
        // lock inside locert-trace; use a throwaway metric window.
        let g = generators::cycle(6);
        let ids = IdAssignment::contiguous(6);
        let inst = Instance::new(&g, &ids);
        let asg = DegreeScheme.assign(&inst).unwrap();
        locert_trace::enable();
        locert_trace::reset();
        let out = run_verification(&DegreeScheme, &inst, &asg);
        locert_trace::disable();
        let snap = locert_trace::snapshot();
        locert_trace::reset();
        assert!(out.accepted());
        let hist = &snap.histograms["core.framework.verify.read_amplification"];
        assert_eq!(hist.count, 1);
        // On a cycle every vertex reads its own cert plus two
        // neighbors': amplification is exactly 3x = 300.
        assert_eq!(hist.min, Some(300));
        assert_eq!(hist.max, Some(300));
        // All-empty assignments record nothing (the ratio is undefined).
        locert_trace::enable();
        locert_trace::reset();
        let _ = run_verification(&DegreeScheme, &inst, &Assignment::empty(6));
        locert_trace::disable();
        let snap = locert_trace::snapshot();
        locert_trace::reset();
        assert!(!snap
            .histograms
            .contains_key("core.framework.verify.read_amplification"));
    }
}
