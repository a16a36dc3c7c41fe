//! A structured, replayable event journal.
//!
//! Where the span/counter layer *aggregates* (how many, how long), the
//! journal *records*: a bounded ring buffer of typed [`Event`]s in the
//! order they happened — prover start/end, one verdict per vertex with
//! its rejection reason and certificate-view volume, fault injections,
//! campaign rounds. Entries carry a monotone sequence number and **no
//! timestamps**, so a run with a fixed seed produces a byte-identical
//! JSONL export: the journal is the replay artifact.
//!
//! The journal is independent of the span subscriber: it has its own
//! enable flag so `experiments --journal` can record events without
//! paying for span aggregation (and vice versa). Like every other
//! instrumentation point in this crate, a disabled journal costs one
//! relaxed atomic load per call site — [`record_with`] takes a closure
//! so event construction (and its allocations) is skipped entirely when
//! recording is off.
//!
//! Event payloads are plain `u64`/`String` values rather than types from
//! `locert-core`: the trace crate sits below core in the dependency
//! graph, and string reason codes are what the JSONL format stores
//! anyway. Core's `RejectReason::code()` is the bridge.

use crate::json::{self, Value};
use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};

/// Schema identifier written in the JSONL header line.
pub const JOURNAL_SCHEMA: &str = "locert-journal/v1";

/// Default ring-buffer capacity (entries), the one the daemon runs
/// with; a run that overflows it keeps the *newest* entries and counts
/// the dropped ones.
pub const DEFAULT_CAPACITY: usize = 65_536;

/// Ring-buffer capacity of the batch binaries (`experiments`,
/// `netstorm`, `diffhunt`): 2²⁰ entries, enough that none of their runs
/// drops an event, so a journal `cmp` covers the whole run. The ring
/// fills on demand, so a short run pays only for what it records.
pub const BATCH_CAPACITY: usize = 1 << 20;

/// Registry counter bumped once per entry evicted from the ring buffer
/// (overflow or a capacity shrink). Lets CI artifacts surface silent
/// truncation: a metrics snapshot with this counter non-zero means the
/// journal on disk is missing its oldest events.
pub const DROPPED_EVENTS_COUNTER: &str = "journal.dropped_events";

fn dropped_events_counter() -> &'static crate::Counter {
    static C: OnceLock<crate::Counter> = OnceLock::new();
    C.get_or_init(|| crate::Counter::named(DROPPED_EVENTS_COUNTER))
}

/// Declares [`Event`] from one table. Each row gives a kind's JSONL
/// `type` tag, its variant and its fields; a field's Rust name is its
/// JSONL key and its type's [`Field`] impl is its encoding. The encoder
/// ([`entry_to_jsonl_line`]), the decoder ([`Event::from_json`]) and
/// [`Event::kind`] are generated from the same rows, so each tag and
/// field name is written once.
macro_rules! events {
    (
        $(#[$meta:meta])*
        pub enum Event {
            $(
                $(#[$doc:meta])*
                $tag:literal => $variant:ident {
                    $( $(#[$fdoc:meta])* $field:ident: $ty:ty ),* $(,)?
                }
            ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        pub enum Event {
            $( $(#[$doc])* $variant { $( $(#[$fdoc])* $field: $ty ),* } ),*
        }

        impl Event {
            /// Every JSONL `type` tag, in declaration order: the vocabulary
            /// of `tracescope query --kind`.
            pub const KINDS: &'static [&'static str] = &[$($tag),*];

            /// The event's JSONL `type` tag.
            pub fn kind(&self) -> &'static str {
                match self {
                    $( Event::$variant { .. } => $tag ),*
                }
            }

            /// The event's JSONL object: `type` plus one key per field.
            fn to_object(&self) -> BTreeMap<String, Value> {
                let mut obj = BTreeMap::new();
                obj.insert("type".to_string(), Value::from(self.kind()));
                match self {
                    $( Event::$variant { $($field),* } => {
                        $( obj.insert(stringify!($field).to_string(), Field::encode($field)); )*
                    } )*
                }
                obj
            }

            /// Parses one JSONL object back into its event (extra keys such
            /// as `seq` are ignored); `None` on an unknown tag or a missing
            /// or mistyped field.
            pub fn from_json(v: &Value) -> Option<Event> {
                match v.get("type")?.as_str()? {
                    $( $tag => Some(Event::$variant {
                        $( $field: Field::decode(v.get(stringify!($field))?)? ),*
                    }), )*
                    _ => None,
                }
            }
        }
    };
}

events! {
    /// One journal event. Variants mirror the phases of a certification
    /// run; reasons are kebab-case codes (see `locert-core`'s
    /// `RejectReason::code`).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum Event {
        /// A prover began assigning certificates for `scheme`.
        "prover-start" => ProverStart {
            /// Scheme display name.
            scheme: String,
        },
        /// The prover finished; `ok` is false when it returned an error.
        "prover-end" => ProverEnd {
            /// Scheme display name.
            scheme: String,
            /// Whether certificate assignment succeeded.
            ok: bool,
            /// Maximum per-vertex certificate size in bits (0 on failure).
            max_bits: u64,
        },
        /// One vertex's verification verdict.
        "verdict" => Verdict {
            /// The vertex (NodeId index).
            vertex: u64,
            /// Whether the vertex accepted.
            accepted: bool,
            /// Rejection reason code; `None` when accepted.
            reason: Option<String>,
            /// Certificate bits in the vertex's radius-1 view (own + neighbors).
            bits_read: u64,
        },
        /// A certificate was mutated in place (`Assignment::cert_mut`).
        "cert-mutated" => CertMutated {
            /// The vertex whose certificate was handed out mutably.
            vertex: u64,
        },
        /// A fault model touched the world at `site`.
        "fault-injected" => FaultInjected {
            /// Fault model name (`FaultModel::name`).
            model: String,
            /// The targeted vertex.
            site: u64,
            /// Whether the injection changed the presented world.
            effective: bool,
        },
        /// A verifier rejected in a faulty world; provenance links it back
        /// to the injection site.
        "detection" => Detection {
            /// Fault model name.
            model: String,
            /// The injected fault site.
            site: u64,
            /// The rejecting vertex.
            detector: u64,
            /// Rejection reason code.
            reason: String,
            /// BFS distance from fault site to detector, when connected.
            distance: Option<u64>,
        },
        /// One run of a fault campaign finished.
        "campaign-round" => CampaignRound {
            /// Fault model name.
            model: String,
            /// Run index within the campaign.
            run: u64,
            /// Whether any vertex rejected.
            detected: bool,
            /// Distance from fault site to the nearest rejector.
            locality: Option<u64>,
        },
        /// The differential oracle observed a disagreement between a scheme
        /// run and ground truth, a sibling scheme, or a metamorphic relation.
        "oracle-disagreement" => OracleDisagreement {
            /// Oracle case name.
            case: String,
            /// Which relation broke (e.g. `completeness`, `sibling:<name>`,
            /// `relabel`, `union`).
            relation: String,
            /// Vertex count of the disagreeing instance.
            vertices: u64,
        },
        /// One accepted step of the counterexample shrinker.
        "shrink-step" => ShrinkStep {
            /// Oracle case name.
            case: String,
            /// What was removed (`drop-vertex` or `drop-edge`).
            action: String,
            /// Vertex count after the step.
            vertices: u64,
        },
        /// A network frame was handed to the link layer (`locert-net`).
        "net-send" => NetSend {
            /// Sending vertex (NodeId index).
            src: u64,
            /// Receiving vertex (NodeId index).
            dst: u64,
            /// Logical send time in the discrete-event clock.
            time: u64,
            /// Frame payload size in bits (header + certificate).
            bits: u64,
            /// Frame kind: `data` or `ack`.
            kind: String,
        },
        /// The link layer discarded a frame.
        "net-drop" => NetDrop {
            /// Sending vertex.
            src: u64,
            /// Intended receiver.
            dst: u64,
            /// Logical send time.
            time: u64,
            /// Why the frame died: `loss`, `partition`, or `dead-receiver`.
            cause: String,
        },
        /// A node's retransmit timer fired and it resent a data frame.
        "net-retry" => NetRetry {
            /// Retransmitting vertex.
            node: u64,
            /// Neighbor index (position in the adjacency list, not NodeId).
            neighbor: u64,
            /// Retry attempt number (1 = first retransmit).
            attempt: u64,
            /// Logical time of the retransmit.
            time: u64,
        },
        /// A node crashed (losing its certificate) or restarted.
        "net-crash" => NetCrash {
            /// The affected vertex.
            node: u64,
            /// Logical time of the transition.
            time: u64,
            /// `true` on crash, `false` on restart.
            down: bool,
        },
        /// A node's final network verdict at quiescence.
        "net-verdict" => NetVerdict {
            /// The vertex.
            vertex: u64,
            /// `accepted`, `rejected`, or `inconclusive`.
            status: String,
            /// Rejection reason code when `status == "rejected"`.
            reason: Option<String>,
            /// Count of neighbors never heard from (inconclusive only).
            missing: u64,
            /// Logical time the verdict last changed.
            time: u64,
        },
        /// One `locert-serve` request lifecycle: admission through verdict
        /// (or typed rejection), with its cache disposition.
        "serve-request" => ServeRequest {
            /// Connection ordinal, in accept order.
            conn: u64,
            /// Request ordinal within the connection (batch entries count
            /// individually).
            req: u64,
            /// Stable scheme id (`locert-core`'s shared catalogue).
            scheme: String,
            /// Request mode: `prove`, `verify`, or `roundtrip`.
            mode: String,
            /// Vertex count of the request graph.
            vertices: u64,
            /// `accepted`, `rejected`, or a typed wire error code
            /// (e.g. `unknown-scheme`, `overloaded`).
            outcome: String,
            /// Certificate-cache disposition: `hit`, `miss`, or `bypass`
            /// (modes that never consult the cache).
            cache: String,
        },
        /// A logical round boundary for windowed analytics. Emitted at the
        /// *start* of a round: everything up to the next boundary event
        /// belongs to this round.
        ///
        /// `round` is the producer's own round number when it has a
        /// deterministic one (fault campaigns use the run index); `None`
        /// when the producer has no local counter (`run_verification`), in
        /// which case readers assign ordinals by position — well-defined
        /// because the journal itself is deterministic for a fixed seed.
        "round-mark" => RoundMark {
            /// The emitting subsystem (e.g. `core.verify`,
            /// `core.faults.campaign`).
            scope: String,
            /// Producer-local round number, when one exists.
            round: Option<u64>,
        },
        /// A free-form boundary marker (experiment start, phase change).
        "marker" => Marker {
            /// Marker label.
            label: String,
        },
    }
}

/// A journal entry: the event plus its position in the run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry {
    /// Monotone sequence number, assigned at record time. Survives
    /// ring-buffer eviction: after overflow the first retained entry
    /// has `seq > 0`.
    pub seq: u64,
    /// The recorded event.
    pub event: Event,
}

/// Everything the journal held when the snapshot was taken.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalSnapshot {
    /// Retained entries, oldest first.
    pub entries: Vec<Entry>,
    /// Entries evicted by the ring buffer before the snapshot.
    pub dropped: u64,
}

impl JournalSnapshot {
    /// The verdict events, in record order — the per-vertex decision
    /// trail a replay reconstructs.
    pub fn verdicts(&self) -> impl Iterator<Item = &Event> {
        self.entries
            .iter()
            .map(|e| &e.event)
            .filter(|e| matches!(e, Event::Verdict { .. }))
    }
}

static JOURNAL_ENABLED: AtomicBool = AtomicBool::new(false);

struct Buf {
    entries: VecDeque<Entry>,
    capacity: usize,
    next_seq: u64,
    dropped: u64,
}

fn buf() -> &'static Mutex<Buf> {
    static BUF: OnceLock<Mutex<Buf>> = OnceLock::new();
    BUF.get_or_init(|| {
        Mutex::new(Buf {
            entries: VecDeque::new(),
            capacity: DEFAULT_CAPACITY,
            next_seq: 0,
            dropped: 0,
        })
    })
}

/// Turns journal recording on.
pub fn enable() {
    JOURNAL_ENABLED.store(true, Ordering::Relaxed);
}

/// Turns journal recording off. Already-recorded entries stay until
/// [`reset`].
pub fn disable() {
    JOURNAL_ENABLED.store(false, Ordering::Relaxed);
}

/// Whether recording is on (one relaxed load — the entire cost of a
/// disabled instrumentation point).
#[inline]
pub fn enabled() -> bool {
    JOURNAL_ENABLED.load(Ordering::Relaxed)
}

/// Sets the ring-buffer capacity. Existing overflow is evicted oldest
/// first.
pub fn set_capacity(capacity: usize) {
    let evicted;
    {
        let mut b = buf().lock().expect("journal buffer");
        b.capacity = capacity.max(1);
        let before = b.entries.len();
        while b.entries.len() > b.capacity {
            b.entries.pop_front();
            b.dropped += 1;
        }
        evicted = (before - b.entries.len()) as u64;
    }
    if evicted > 0 {
        dropped_events_counter().add(evicted);
    }
}

/// The current ring-buffer capacity in entries.
pub fn capacity() -> usize {
    buf().lock().expect("journal buffer").capacity
}

/// Clears all entries and restarts sequence numbering.
pub fn reset() {
    let mut b = buf().lock().expect("journal buffer");
    b.entries.clear();
    b.next_seq = 0;
    b.dropped = 0;
}

thread_local! {
    /// Active [`capture`] buffer for this thread, if any. A stack via
    /// the saved outer value in `capture` itself, so captures nest.
    static CAPTURE: RefCell<Option<Vec<Event>>> = const { RefCell::new(None) };
}

/// Records the event produced by `make` — *if* the journal is enabled.
/// When disabled this is exactly one relaxed atomic load; the closure
/// is never called, so callers may capture freely and build strings
/// inside it without a disabled-path cost.
///
/// Inside a [`capture`] on this thread, the event is diverted to the
/// capture buffer instead of the global ring.
#[inline]
pub fn record_with(make: impl FnOnce() -> Event) {
    if !enabled() {
        return;
    }
    let event = make();
    let diverted = CAPTURE.with(|c| {
        let mut c = c.borrow_mut();
        match c.as_mut() {
            Some(buffer) => {
                buffer.push(event.clone());
                true
            }
            None => false,
        }
    });
    if diverted {
        return;
    }
    append_one(event);
}

fn append_one(event: Event) {
    let mut b = buf().lock().expect("journal buffer");
    let seq = b.next_seq;
    b.next_seq += 1;
    let evicted = b.entries.len() == b.capacity;
    if evicted {
        b.entries.pop_front();
        b.dropped += 1;
    }
    b.entries.push_back(Entry { seq, event });
    drop(b);
    // Outside the buffer lock: the registry lock must never nest inside it.
    if evicted {
        dropped_events_counter().add(1);
    }
}

/// Runs `f` with this thread's journal writes diverted into a private
/// buffer, returning `f`'s result together with the captured events (in
/// the order they were recorded). Nothing reaches the global ring until
/// the caller hands the buffer to [`append_events`].
///
/// This is the determinism seam for parallel work: tasks that may run
/// in any order and on any thread capture their events locally, and the
/// coordinator appends the buffers in a canonical order — the resulting
/// journal is byte-identical to a sequential run. When the journal is
/// disabled `f` runs unwrapped and the returned buffer is empty.
pub fn capture<R>(f: impl FnOnce() -> R) -> (R, Vec<Event>) {
    if !enabled() {
        return (f(), Vec::new());
    }
    /// Restores the outer buffer even if `f` unwinds, so a panicking
    /// task on a long-lived worker thread can't leave the diversion
    /// installed (captured events are dropped with the panic).
    struct Restore(Option<Vec<Event>>);
    impl Drop for Restore {
        fn drop(&mut self) {
            let outer = self.0.take();
            CAPTURE.with(|c| *c.borrow_mut() = outer);
        }
    }
    let mut guard = Restore(CAPTURE.with(|c| c.borrow_mut().replace(Vec::new())));
    let result = f();
    let events = CAPTURE
        .with(|c| std::mem::replace(&mut *c.borrow_mut(), guard.0.take()))
        .unwrap_or_default();
    std::mem::forget(guard);
    (result, events)
}

/// Appends pre-recorded events to the journal in order, assigning
/// sequence numbers at append time. The flush half of [`capture`].
pub fn append_events(events: impl IntoIterator<Item = Event>) {
    if !enabled() {
        return;
    }
    for event in events {
        append_one(event);
    }
}

/// Copies the current contents out of the ring buffer.
pub fn snapshot() -> JournalSnapshot {
    let b = buf().lock().expect("journal buffer");
    JournalSnapshot {
        entries: b.entries.iter().cloned().collect(),
        dropped: b.dropped,
    }
}

// ---------------------------------------------------------------------
// JSONL encoding
// ---------------------------------------------------------------------

/// How one field type is stored in a JSONL object: the single place a
/// payload type meets the wire format. Decoding is strict — a `u64`
/// field rejects negative and fractional numbers.
trait Field: Sized {
    fn encode(&self) -> Value;
    fn decode(v: &Value) -> Option<Self>;
}

impl Field for u64 {
    fn encode(&self) -> Value {
        Value::from(*self)
    }
    fn decode(v: &Value) -> Option<u64> {
        v.as_u64()
    }
}

impl Field for bool {
    fn encode(&self) -> Value {
        Value::from(*self)
    }
    fn decode(v: &Value) -> Option<bool> {
        v.as_bool()
    }
}

impl Field for String {
    fn encode(&self) -> Value {
        Value::from(self.as_str())
    }
    fn decode(v: &Value) -> Option<String> {
        v.as_str().map(str::to_string)
    }
}

/// `None` is stored as `null`.
impl<T: Field> Field for Option<T> {
    fn encode(&self) -> Value {
        self.as_ref().map_or(Value::Null, Field::encode)
    }
    fn decode(v: &Value) -> Option<Option<T>> {
        match v {
            Value::Null => Some(None),
            v => T::decode(v).map(Some),
        }
    }
}

/// Streams a snapshot as JSONL into `out`: a header line
/// `{"schema":"locert-journal/v1","dropped":N,"entries":N}` followed by
/// one `{"seq":N,"type":...}` object per entry. Deterministic for a
/// fixed event sequence (no timestamps, sorted keys). One line is
/// buffered at a time, so a million-entry journal writes in O(line)
/// memory — wrap `out` in a [`io::BufWriter`] when it is a file.
///
/// # Errors
///
/// Propagates the first write error from `out`.
pub fn write_jsonl<W: io::Write>(snap: &JournalSnapshot, out: &mut W) -> io::Result<()> {
    let header = Value::obj([
        ("schema".to_string(), Value::from(JOURNAL_SCHEMA)),
        ("dropped".to_string(), Value::from(snap.dropped)),
        (
            "entries".to_string(),
            Value::from(snap.entries.len() as u64),
        ),
    ]);
    writeln!(out, "{header}")?;
    for entry in &snap.entries {
        writeln!(out, "{}", entry_to_jsonl_line(entry))?;
    }
    Ok(())
}

/// One entry as its JSONL line (no trailing newline): the unit
/// [`write_jsonl`], `tracescope` and `/journal/tail` emit.
pub fn entry_to_jsonl_line(entry: &Entry) -> String {
    let mut obj = entry.event.to_object();
    obj.insert("seq".to_string(), Value::from(entry.seq));
    Value::Obj(obj).to_string()
}

/// Serializes a snapshot as one JSONL `String` (see [`write_jsonl`]).
/// Convenient for tests and small journals; prefer [`write_jsonl`] when
/// the destination is a file.
pub fn to_jsonl(snap: &JournalSnapshot) -> String {
    let mut out = Vec::with_capacity(64 + snap.entries.len() * 64);
    write_jsonl(snap, &mut out).expect("writing to a Vec cannot fail");
    String::from_utf8(out).expect("JSONL is UTF-8")
}

/// A JSONL journal decode failure: 1-based line number plus message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalParseError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for JournalParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "journal line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for JournalParseError {}

/// Parses a JSONL journal back into a snapshot (the inverse of
/// [`to_jsonl`]).
///
/// # Errors
///
/// [`JournalParseError`] naming the first malformed line: invalid JSON,
/// a bad header, an unknown event type, or a missing field. A header
/// whose `entries` count differs from the number of entry lines (a
/// truncated or padded file) fails on the header line.
pub fn from_jsonl(text: &str) -> Result<JournalSnapshot, JournalParseError> {
    let fail = |line: usize, message: &str| JournalParseError {
        line,
        message: message.to_string(),
    };
    let mut lines = text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty());
    let (h, header_line) = lines.next().ok_or_else(|| fail(1, "empty journal"))?;
    let header = json::parse(header_line).map_err(|e| fail(h + 1, &format!("bad header: {e}")))?;
    if header.get("schema").and_then(Value::as_str) != Some(JOURNAL_SCHEMA) {
        return Err(fail(h + 1, "missing or unknown schema"));
    }
    let count = |key: &str| {
        let bad = || fail(h + 1, &format!("bad {key} count"));
        header
            .get(key)
            .map(|v| v.as_u64().ok_or_else(bad))
            .transpose()
    };
    let dropped = count("dropped")?.ok_or_else(|| fail(h + 1, "bad dropped count"))?;
    let declared = count("entries")?;
    let mut entries = Vec::new();
    for (i, line) in lines {
        let v = json::parse(line).map_err(|e| fail(i + 1, &format!("bad entry: {e}")))?;
        let seq = v
            .get("seq")
            .and_then(Value::as_u64)
            .ok_or_else(|| fail(i + 1, "missing seq"))?;
        let event =
            Event::from_json(&v).ok_or_else(|| fail(i + 1, "unknown or malformed event"))?;
        entries.push(Entry { seq, event });
    }
    if let Some(declared) = declared.filter(|&n| n != entries.len() as u64) {
        return Err(fail(
            h + 1,
            &format!(
                "header declares {declared} entries but the file has {}",
                entries.len()
            ),
        ));
    }
    Ok(JournalSnapshot { entries, dropped })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<Event> {
        vec![
            Event::Marker { label: "e1".into() },
            Event::ProverStart {
                scheme: "spanning-tree".into(),
            },
            Event::ProverEnd {
                scheme: "spanning-tree".into(),
                ok: true,
                max_bits: 12,
            },
            Event::Verdict {
                vertex: 0,
                accepted: true,
                reason: None,
                bits_read: 24,
            },
            Event::Verdict {
                vertex: 3,
                accepted: false,
                reason: Some("root-mismatch".into()),
                bits_read: 36,
            },
            Event::CertMutated { vertex: 3 },
            Event::FaultInjected {
                model: "bit-flip".into(),
                site: 3,
                effective: true,
            },
            Event::Detection {
                model: "bit-flip".into(),
                site: 3,
                detector: 2,
                reason: "parent-distance-clash".into(),
                distance: Some(1),
            },
            Event::CampaignRound {
                model: "bit-flip".into(),
                run: 0,
                detected: true,
                locality: Some(1),
            },
            Event::OracleDisagreement {
                case: "spanning-tree".into(),
                relation: "sibling:vertex-count".into(),
                vertices: 7,
            },
            Event::ShrinkStep {
                case: "spanning-tree".into(),
                action: "drop-vertex".into(),
                vertices: 6,
            },
            Event::NetSend {
                src: 0,
                dst: 1,
                time: 0,
                bits: 44,
                kind: "data".into(),
            },
            Event::NetDrop {
                src: 1,
                dst: 0,
                time: 2,
                cause: "loss".into(),
            },
            Event::NetRetry {
                node: 0,
                neighbor: 0,
                attempt: 1,
                time: 8,
            },
            Event::NetCrash {
                node: 2,
                time: 4,
                down: true,
            },
            Event::NetVerdict {
                vertex: 0,
                status: "inconclusive".into(),
                reason: None,
                missing: 1,
                time: 96,
            },
            Event::NetVerdict {
                vertex: 1,
                status: "rejected".into(),
                reason: Some("malformed-certificate".into()),
                missing: 0,
                time: 12,
            },
            Event::ServeRequest {
                conn: 2,
                req: 5,
                scheme: "spanning-tree".into(),
                mode: "roundtrip".into(),
                vertices: 9,
                outcome: "accepted".into(),
                cache: "hit".into(),
            },
            Event::ServeRequest {
                conn: 0,
                req: 0,
                scheme: "no-such".into(),
                mode: "prove".into(),
                vertices: 0,
                outcome: "unknown-scheme".into(),
                cache: "bypass".into(),
            },
            Event::RoundMark {
                scope: "core.faults.campaign".into(),
                round: Some(3),
            },
            Event::RoundMark {
                scope: "core.verify".into(),
                round: None,
            },
        ]
    }

    #[test]
    fn jsonl_roundtrip_preserves_every_event() {
        let snap = JournalSnapshot {
            entries: sample_events()
                .into_iter()
                .enumerate()
                .map(|(i, event)| Entry {
                    seq: i as u64,
                    event,
                })
                .collect(),
            dropped: 7,
        };
        let text = to_jsonl(&snap);
        let back = from_jsonl(&text).expect("parses");
        assert_eq!(back, snap);
        // Determinism: encoding the re-parsed snapshot is byte-identical.
        assert_eq!(to_jsonl(&back), text);
        // The samples cover every row of the event table.
        let kinds: std::collections::BTreeSet<&str> =
            snap.entries.iter().map(|e| e.event.kind()).collect();
        let table: std::collections::BTreeSet<&str> = Event::KINDS.iter().copied().collect();
        assert_eq!(kinds, table, "sample_events must cover every kind");
        assert_eq!(table.len(), Event::KINDS.len(), "tags are distinct");
    }

    #[test]
    fn design_doc_lists_every_event_kind() {
        let design = include_str!("../../../DESIGN.md");
        for tag in Event::KINDS {
            assert!(
                design.contains(&format!("| `{tag}` |")),
                "DESIGN.md's event-taxonomy table has no row for `{tag}`"
            );
        }
    }

    #[test]
    fn recording_respects_enable_and_capacity() {
        let _g = crate::tests::serial();
        disable();
        reset();
        record_with(|| panic!("disabled journal must not build events"));
        set_capacity(4);
        enable();
        for i in 0..10u64 {
            record_with(|| Event::CertMutated { vertex: i });
        }
        disable();
        let snap = snapshot();
        set_capacity(DEFAULT_CAPACITY);
        reset();
        assert_eq!(snap.entries.len(), 4);
        assert_eq!(snap.dropped, 6);
        // Newest entries survive; seq numbers keep counting from 0.
        assert_eq!(snap.entries[0].seq, 6);
        assert_eq!(
            snap.entries.last().map(|e| &e.event),
            Some(&Event::CertMutated { vertex: 9 })
        );
    }

    #[test]
    fn capture_diverts_and_append_flushes_in_order() {
        let _g = crate::tests::serial();
        reset();
        enable();
        record_with(|| Event::Marker { label: "a".into() });
        let ((), captured) = capture(|| {
            record_with(|| Event::CertMutated { vertex: 1 });
            record_with(|| Event::CertMutated { vertex: 2 });
        });
        assert_eq!(captured.len(), 2);
        // Nothing reached the ring yet.
        assert_eq!(snapshot().entries.len(), 1);
        record_with(|| Event::Marker { label: "b".into() });
        append_events(captured);
        disable();
        let snap = snapshot();
        reset();
        let kinds: Vec<u64> = snap
            .entries
            .iter()
            .filter_map(|e| match &e.event {
                Event::CertMutated { vertex } => Some(*vertex),
                _ => None,
            })
            .collect();
        assert_eq!(kinds, vec![1, 2]);
        assert_eq!(snap.entries.len(), 4);
        // Seqs are assigned at flush time, monotone over the whole ring.
        assert!(snap.entries.windows(2).all(|w| w[0].seq < w[1].seq));
        // A panicking capture restores the outer (global) sink.
        enable();
        let _ = std::panic::catch_unwind(|| {
            capture(|| {
                record_with(|| Event::Marker {
                    label: "doomed".into(),
                });
                panic!("boom");
            })
        });
        record_with(|| Event::Marker {
            label: "after".into(),
        });
        disable();
        let snap = snapshot();
        reset();
        assert!(snap
            .entries
            .iter()
            .any(|e| matches!(&e.event, Event::Marker { label } if label == "after")));
        assert!(!snap
            .entries
            .iter()
            .any(|e| matches!(&e.event, Event::Marker { label } if label == "doomed")));
    }

    #[test]
    fn eviction_bumps_dropped_events_counter_exactly() {
        let _g = crate::tests::serial();
        crate::reset();
        reset();
        crate::enable();
        enable();
        set_capacity(4);
        for i in 0..10u64 {
            record_with(|| Event::CertMutated { vertex: i });
        }
        let snap = snapshot();
        assert_eq!(snap.dropped, 6, "ring evicted exactly the overflow");
        assert_eq!(
            crate::snapshot().counters.get(DROPPED_EVENTS_COUNTER),
            Some(&6),
            "registry counter matches the ring's eviction count"
        );
        // Shrinking the capacity evicts (and counts) the excess too.
        set_capacity(1);
        assert_eq!(snapshot().dropped, 9);
        assert_eq!(
            crate::snapshot().counters.get(DROPPED_EVENTS_COUNTER),
            Some(&9)
        );
        disable();
        crate::disable();
        set_capacity(DEFAULT_CAPACITY);
        reset();
        crate::reset();
    }

    #[test]
    fn capacity_accessor_reflects_configuration() {
        let _g = crate::tests::serial();
        assert_eq!(capacity(), DEFAULT_CAPACITY);
        set_capacity(128);
        assert_eq!(capacity(), 128);
        set_capacity(DEFAULT_CAPACITY);
        assert_eq!(capacity(), DEFAULT_CAPACITY);
    }

    #[test]
    fn from_jsonl_rejects_malformed_input() {
        assert!(from_jsonl("").is_err());
        assert!(from_jsonl("{\"schema\":\"other/v9\",\"dropped\":0,\"entries\":0}\n").is_err());
        let ok_header = "{\"dropped\":0,\"entries\":1,\"schema\":\"locert-journal/v1\"}\n";
        assert!(from_jsonl(&format!("{ok_header}not json\n")).is_err());
        assert!(from_jsonl(&format!("{ok_header}{{\"type\":\"martian\",\"seq\":0}}\n")).is_err());
        assert!(
            from_jsonl(&format!(
                "{ok_header}{{\"type\":\"marker\",\"label\":\"x\"}}\n"
            ))
            .is_err(),
            "entry without seq must fail"
        );
        let err = from_jsonl(&format!("{ok_header}null\n")).expect_err("fails");
        assert_eq!(err.line, 2);
        // A journal cut short of its header's count fails on the header.
        let marker = "{\"label\":\"x\",\"seq\":0,\"type\":\"marker\"}\n";
        assert!(from_jsonl(&format!("{ok_header}{marker}")).is_ok());
        let two = "{\"dropped\":0,\"entries\":2,\"schema\":\"locert-journal/v1\"}\n";
        let err = from_jsonl(&format!("{two}{marker}")).expect_err("truncated");
        assert_eq!(err.line, 1);
        assert!(err.message.contains("declares 2 entries"), "{err}");
        // Fractional and negative counts are malformed, not truncated.
        for bad in ["1.5", "-1"] {
            let header =
                format!("{{\"dropped\":0,\"entries\":{bad},\"schema\":\"locert-journal/v1\"}}\n");
            assert!(from_jsonl(&format!("{header}{marker}")).is_err(), "{bad}");
        }
    }

    /// A light property test (vendored proptest has no trace dep here):
    /// random event streams survive the JSONL round trip.
    #[test]
    fn randomized_streams_roundtrip() {
        // Deterministic xorshift so the test is reproducible.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..50 {
            let len = (next() % 20) as usize;
            let entries: Vec<Entry> = (0..len)
                .map(|i| {
                    let event = match next() % 5 {
                        0 => Event::Verdict {
                            vertex: next() % 1000,
                            accepted: next() % 2 == 0,
                            reason: if next() % 2 == 0 {
                                None
                            } else {
                                Some(format!("reason-{}", next() % 8))
                            },
                            bits_read: next() % 4096,
                        },
                        1 => Event::FaultInjected {
                            model: format!("model-{}", next() % 10),
                            site: next() % 1000,
                            effective: next() % 2 == 0,
                        },
                        2 => Event::Detection {
                            model: format!("model-{}", next() % 10),
                            site: next() % 1000,
                            detector: next() % 1000,
                            reason: format!("reason \"{}\" π", next() % 8),
                            distance: if next() % 2 == 0 {
                                None
                            } else {
                                Some(next() % 64)
                            },
                        },
                        3 => Event::ProverEnd {
                            scheme: format!("scheme[{}]", next() % 4),
                            ok: next() % 2 == 0,
                            max_bits: next() % 100_000,
                        },
                        _ => Event::Marker {
                            label: format!("mark\n{}", next() % 100),
                        },
                    };
                    Entry {
                        seq: i as u64,
                        event,
                    }
                })
                .collect();
            let snap = JournalSnapshot {
                entries,
                dropped: next() % 3,
            };
            let text = to_jsonl(&snap);
            assert_eq!(from_jsonl(&text).expect("parses"), snap);
        }
    }
}
