//! The bit ledger: per-certificate attribution of bit spans to named
//! witness components.
//!
//! Certificate size is the paper's central measure, and the schemes'
//! upper bounds are proved component by component — a spanning-tree
//! pointer here, a distance counter there, an automaton state, a kernel
//! table. The ledger makes that decomposition observable: while a
//! [`capture`] is active, every prover records, for each certificate it
//! finalizes, the spans of bits it attributed to named components (via
//! `BitWriter::component` in `locert-core`). Spans are derived from
//! consecutive component marks, so they tile the certificate by
//! construction — start to finish, no gaps, no overlaps — and a
//! debug-mode invariant on the prover side insists the first mark sits
//! at bit 0, i.e. that *every* bit is attributed.
//!
//! Mirrors the [`crate::journal`] capture seam: a global activity count
//! gates the instrumentation points (one relaxed atomic load while no
//! capture is active anywhere), and records divert into a thread-local
//! sink so concurrent captures on different threads cannot mix.
//!
//! # Example
//!
//! ```
//! use locert_trace::ledger::{self, CertLedger};
//!
//! let ((), ledger) = ledger::capture(|| {
//!     // A prover would do this through BitWriter::component /
//!     // BitWriter::record_for; the raw call records vertex 0 with a
//!     // 5-bit "root-id" span followed by a 3-bit "distance" span.
//!     ledger::record_cert(0, 8, &[("root-id", 0), ("distance", 5)]);
//! });
//! let cert = &ledger.certs[0];
//! assert!(cert.is_tiled() && cert.fully_attributed());
//! assert_eq!(cert.component_bits()["distance"], 3);
//! ```

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The pseudo-component charged with bits written before the first
/// component mark. A fully instrumented prover never produces it; the
/// conformance gate treats its presence as an attribution failure.
pub const UNATTRIBUTED: &str = "unattributed";

/// One attributed bit span inside a certificate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LedgerSpan {
    /// The witness component the bits belong to (e.g. `"root-id"`,
    /// `"distance"`, `"automaton-state"`, `"kernel-table"`).
    pub component: &'static str,
    /// First bit of the span.
    pub start: usize,
    /// Length in bits (always positive; empty marks are dropped).
    pub len: usize,
}

/// The attribution of one finalized certificate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CertLedger {
    /// The vertex (NodeId index) the certificate was written for.
    pub vertex: usize,
    /// Total certificate length in bits.
    pub total_bits: usize,
    /// Attributed spans in bit order.
    pub spans: Vec<LedgerSpan>,
}

impl CertLedger {
    /// Builds the span list from `(component, start)` marks taken at
    /// monotonically non-decreasing bit offsets. Each span runs from its
    /// mark to the next mark (the last to `total_bits`); zero-length
    /// spans are dropped. Bits before the first mark — attribution the
    /// prover skipped — become an [`UNATTRIBUTED`] span so the ledger
    /// still tiles the certificate.
    pub fn from_marks(vertex: usize, total_bits: usize, marks: &[(&'static str, usize)]) -> Self {
        let mut spans = Vec::with_capacity(marks.len() + 1);
        let first = marks.first().map_or(total_bits, |&(_, start)| start);
        if first > 0 {
            spans.push(LedgerSpan {
                component: UNATTRIBUTED,
                start: 0,
                len: first,
            });
        }
        for (i, &(component, start)) in marks.iter().enumerate() {
            let end = marks.get(i + 1).map_or(total_bits, |&(_, next)| next);
            debug_assert!(start <= end, "component marks out of order");
            debug_assert!(end <= total_bits, "component mark past the end");
            if end > start {
                spans.push(LedgerSpan {
                    component,
                    start,
                    len: end - start,
                });
            }
        }
        CertLedger {
            vertex,
            total_bits,
            spans,
        }
    }

    /// Whether the spans exactly tile `0..total_bits`: contiguous, in
    /// order, no gaps, no overlaps. True by construction for ledgers
    /// built through [`CertLedger::from_marks`].
    pub fn is_tiled(&self) -> bool {
        let mut pos = 0;
        for span in &self.spans {
            if span.start != pos || span.len == 0 {
                return false;
            }
            pos += span.len;
        }
        pos == self.total_bits
    }

    /// Whether the ledger is tiled *and* every bit carries a real
    /// component name (no [`UNATTRIBUTED`] span).
    pub fn fully_attributed(&self) -> bool {
        self.is_tiled() && self.spans.iter().all(|s| s.component != UNATTRIBUTED)
    }

    /// Bits per component in this certificate (a component marked
    /// several times sums its spans).
    pub fn component_bits(&self) -> BTreeMap<&'static str, usize> {
        let mut out = BTreeMap::new();
        for span in &self.spans {
            *out.entry(span.component).or_insert(0) += span.len;
        }
        out
    }
}

/// Everything one [`capture`] saw: the attribution of every certificate
/// finalized during the capture, in finish order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BitLedger {
    /// Per-certificate records, in the order the provers finished them.
    pub certs: Vec<CertLedger>,
}

impl BitLedger {
    /// The *final* record per vertex. Composite provers (combinators,
    /// block decompositions) finalize inner certificates first and the
    /// enclosing certificate last, so the last record for a vertex is
    /// the one that describes the certificate actually assigned.
    pub fn final_certs(&self) -> BTreeMap<usize, &CertLedger> {
        let mut out = BTreeMap::new();
        for cert in &self.certs {
            out.insert(cert.vertex, cert);
        }
        out
    }

    /// Maximum certificate size over the final records (the paper's
    /// measure, recomputed from the ledger).
    pub fn max_bits(&self) -> usize {
        self.final_certs()
            .values()
            .map(|c| c.total_bits)
            .max()
            .unwrap_or(0)
    }

    /// Per-component totals across all final certificates.
    pub fn component_bits(&self) -> BTreeMap<&'static str, usize> {
        let mut out = BTreeMap::new();
        for cert in self.final_certs().values() {
            for (component, bits) in cert.component_bits() {
                *out.entry(component).or_insert(0) += bits;
            }
        }
        out
    }

    /// Per-component maxima over final certificates: the largest number
    /// of bits any single vertex spends on each component. The
    /// per-component analogue of [`BitLedger::max_bits`].
    pub fn component_max_bits(&self) -> BTreeMap<&'static str, usize> {
        let mut out: BTreeMap<&'static str, usize> = BTreeMap::new();
        for cert in self.final_certs().values() {
            for (component, bits) in cert.component_bits() {
                let slot = out.entry(component).or_insert(0);
                *slot = (*slot).max(bits);
            }
        }
        out
    }

    /// Whether every final certificate is fully attributed.
    pub fn fully_attributed(&self) -> bool {
        !self.certs.is_empty() && self.final_certs().values().all(|c| c.fully_attributed())
    }
}

// ---------------------------------------------------------------------------
// Capture machinery
// ---------------------------------------------------------------------------

/// Number of captures active across all threads. Non-zero tells
/// `BitWriter` instances to keep component marks at all; the
/// thread-local sink then decides whether a finalized certificate is
/// actually recorded (only on the capturing thread).
static ACTIVE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's capture sink, if a capture is running on it.
    static SINK: RefCell<Option<Vec<CertLedger>>> = const { RefCell::new(None) };
}

/// Whether any capture is active anywhere (one relaxed atomic load).
#[inline]
pub fn active() -> bool {
    ACTIVE.load(Ordering::Relaxed) != 0
}

/// Whether a capture is running *on this thread*. While no capture runs
/// anywhere this is one relaxed atomic load — the whole cost of a
/// disabled attribution point. `BitWriter` gates its component marks
/// and its tiling assertion on this, not on [`active`]: another
/// thread's capture may start or end between a writer's first mark and
/// its `record_for`, but this thread's cannot.
#[inline]
pub fn capturing() -> bool {
    active() && SINK.with(|s| s.borrow().is_some())
}

/// Records the attribution of a finalized certificate — if a capture is
/// active *on this thread*. Called by `BitWriter::record_for`; other
/// threads' prover runs are ignored, so concurrent captures cannot mix.
pub fn record_cert(vertex: usize, total_bits: usize, marks: &[(&'static str, usize)]) {
    if !active() {
        return;
    }
    SINK.with(|s| {
        if let Some(sink) = s.borrow_mut().as_mut() {
            sink.push(CertLedger::from_marks(vertex, total_bits, marks));
        }
    });
}

/// Runs `f` with bit-ledger recording active on this thread and returns
/// its result together with everything the provers attributed. Captures
/// nest (the outer sink is saved and restored, even on unwind); a
/// nested capture's records do not reach the outer one.
pub fn capture<R>(f: impl FnOnce() -> R) -> (R, BitLedger) {
    struct Restore(Option<Vec<CertLedger>>);
    impl Drop for Restore {
        fn drop(&mut self) {
            let outer = self.0.take();
            SINK.with(|s| *s.borrow_mut() = outer);
            ACTIVE.fetch_sub(1, Ordering::Relaxed);
        }
    }
    ACTIVE.fetch_add(1, Ordering::Relaxed);
    let mut guard = Restore(SINK.with(|s| s.borrow_mut().replace(Vec::new())));
    let result = f();
    let certs = SINK
        .with(|s| std::mem::replace(&mut *s.borrow_mut(), guard.0.take()))
        .unwrap_or_default();
    // The outer sink is already back in place; running the guard's Drop
    // now would overwrite it with the `None` we just took out, losing a
    // nesting capture's records. Forget it and decrement ACTIVE by hand
    // (the Drop path still restores correctly on unwind, where the swap
    // above never ran).
    std::mem::forget(guard);
    ACTIVE.fetch_sub(1, Ordering::Relaxed);
    (result, BitLedger { certs })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn marks_tile_by_construction() {
        let c = CertLedger::from_marks(3, 10, &[("a", 0), ("b", 4), ("c", 4), ("d", 9)]);
        assert!(c.is_tiled());
        assert!(c.fully_attributed());
        // The zero-length "b"/"c" boundary keeps only the non-empty span.
        assert_eq!(
            c.spans
                .iter()
                .map(|s| (s.component, s.start, s.len))
                .collect::<Vec<_>>(),
            vec![("a", 0, 4), ("c", 4, 5), ("d", 9, 1)]
        );
        assert_eq!(c.component_bits()["c"], 5);
    }

    #[test]
    fn missing_leading_mark_becomes_unattributed() {
        let c = CertLedger::from_marks(0, 8, &[("tail", 5)]);
        assert!(c.is_tiled());
        assert!(!c.fully_attributed());
        assert_eq!(c.spans[0].component, UNATTRIBUTED);
        assert_eq!(c.spans[0].len, 5);
    }

    #[test]
    fn no_marks_at_all_is_one_unattributed_span() {
        let c = CertLedger::from_marks(0, 6, &[]);
        assert!(c.is_tiled());
        assert!(!c.fully_attributed());
        assert_eq!(c.spans.len(), 1);
        // The empty certificate is trivially fully attributed.
        let e = CertLedger::from_marks(0, 0, &[]);
        assert!(e.is_tiled() && e.fully_attributed());
        assert!(e.spans.is_empty());
    }

    #[test]
    fn capture_collects_and_deactivates() {
        // Per-thread: sibling tests run their own captures concurrently,
        // so the process-wide `active()` is checked in
        // `tests/ledger_active.rs`, a binary of its own.
        assert!(!capturing());
        let (value, ledger) = capture(|| {
            assert!(capturing());
            record_cert(0, 4, &[("x", 0)]);
            record_cert(1, 2, &[("y", 0)]);
            42
        });
        assert_eq!(value, 42);
        assert_eq!(ledger.certs.len(), 2);
        assert!(ledger.fully_attributed());
        assert_eq!(ledger.max_bits(), 4);
        assert!(!capturing());
        // Records outside a capture go nowhere.
        record_cert(9, 8, &[("z", 0)]);
        let ((), empty) = capture(|| {});
        assert!(empty.certs.is_empty());
        assert!(!empty.fully_attributed(), "empty ledger attests nothing");
    }

    #[test]
    fn capturing_is_per_thread() {
        assert!(!capturing());
        let ((), _) = capture(|| {
            assert!(capturing());
            // Another thread sees the global flag but no capture of its
            // own.
            std::thread::spawn(|| assert!(!capturing())).join().unwrap();
        });
        assert!(!capturing());
    }

    #[test]
    fn last_record_per_vertex_wins() {
        let ((), ledger) = capture(|| {
            // An inner prover writes vertex 0 first (e.g. a combinator's
            // first operand), then the composite writes the real cert.
            record_cert(0, 3, &[("inner", 0)]);
            record_cert(0, 9, &[("length-header", 0), ("embedded", 4)]);
        });
        let finals = ledger.final_certs();
        assert_eq!(finals.len(), 1);
        assert_eq!(finals[&0].total_bits, 9);
        assert_eq!(ledger.component_bits()["embedded"], 5);
        assert_eq!(ledger.component_max_bits()["length-header"], 4);
        assert_eq!(ledger.max_bits(), 9);
    }

    #[test]
    fn captures_nest_without_leaking() {
        let ((), outer) = capture(|| {
            record_cert(0, 2, &[("outer", 0)]);
            let ((), inner) = capture(|| {
                record_cert(5, 7, &[("inner", 0)]);
            });
            assert_eq!(inner.certs.len(), 1);
            assert_eq!(inner.certs[0].vertex, 5);
            record_cert(1, 2, &[("outer", 0)]);
        });
        assert_eq!(outer.certs.len(), 2);
        assert!(outer.certs.iter().all(|c| c.spans[0].component == "outer"));
    }
}
