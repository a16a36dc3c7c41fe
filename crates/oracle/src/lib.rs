//! Differential and metamorphic testing oracle for certification schemes.
//!
//! Every scheme in `locert-core` makes three promises: the honest prover
//! accepts exactly the yes-instances (completeness), no adversarial
//! assignment makes a no-instance accept (soundness), and both are
//! invariant under the symmetries the model grants — vertex relabeling,
//! and the connected-graph promise refusing anything outside it. This
//! crate checks all three *against independent ground truth*: the exact
//! treedepth solver, the MSO/FO model checker, direct tree-automaton
//! runs, and sibling schemes certifying the same property by a different
//! construction.
//!
//! The pieces:
//!
//! - [`cases`] — the catalogue of [`cases::OracleCase`]s: a scheme
//!   constructor, an independent truth function, and a sibling group.
//! - [`harness`] — the differential driver: seeded graph families, the
//!   per-graph check (completeness, soundness via
//!   `locert_core::attacks::attack_battery`, sibling agreement), and the
//!   metamorphic relations from [`metamorphic`].
//! - [`shrink`](mod@shrink) — delta-debugging: a disagreement is shrunk
//!   to a local minimum by greedy vertex then edge removal, each accepted
//!   step journaled as a `ShrinkStep` event.
//! - `mutants` (test-only, behind the `mutants` feature) — known-bad
//!   scheme wrappers the oracle must catch; the `diffhunt --mutants`
//!   self-test asserts it does.
//!
//! Everything is deterministic for a fixed seed at any thread count:
//! graph generation and attack randomness derive from
//! `locert_par::split_seed`, and the journal records verdicts in vertex
//! order regardless of the worker schedule. The `diffhunt` binary is the
//! CLI entry point; CI diffs its journal byte-for-byte across
//! `LOCERT_THREADS` settings.

pub mod cases;
pub mod harness;
pub mod metamorphic;
#[cfg(any(test, feature = "mutants"))]
pub mod mutants;
pub mod shrink;

pub use cases::{catalogue, OracleCase};
pub use harness::{check_case_on_graph, run_oracle, Decision, Disagreement, OracleReport};
pub use shrink::shrink;
