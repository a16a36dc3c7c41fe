//! Local certification: the framework and every scheme from the paper.
//!
//! A *local certification* (Section 3.3) is a prover that labels each
//! vertex with a certificate plus a verification algorithm run at every
//! vertex on its **radius-1 view**: its own identifier, input and
//! certificate, and the identifiers, inputs and certificates of its
//! neighbors — crucially *not* the edges among the neighbors
//! (Appendix A.1 fixes the radius to 1 for exactly this reason).
//!
//! - If the graph satisfies the property, the prover's assignment makes
//!   every vertex accept (*completeness*).
//! - If it does not, **every** assignment leaves at least one rejecting
//!   vertex (*soundness*).
//!
//! The framework ([`framework`]) provides bit-exact certificates
//! ([`bits`]), the prover/verifier traits, the network simulator, and a
//! soundness-attack harness ([`attacks`]) together with a fault-injection
//! subsystem ([`faults`]) that measures detection rates and rejection
//! locality under adversarial fault models. The [`schemes`] module
//! implements each certification from the paper:
//!
//! | scheme | paper result | size |
//! |---|---|---|
//! | [`schemes::spanning_tree`] | Proposition 3.4 | `O(log n)` |
//! | [`schemes::acyclicity`] | folklore, used throughout | `O(log n)` |
//! | [`schemes::tree_diameter`] | Section 2.3 warm-up | `O(log n)` |
//! | [`schemes::existential_fo`] | Lemma A.2 | `O(k log n)` |
//! | [`schemes::depth2_fo`] | Lemma A.3 | `O(log n)` |
//! | [`schemes::mso_tree`] | Theorem 2.2 | `O(1)` |
//! | [`schemes::word_path`] | Section 4 warm-up | `O(1)` |
//! | [`schemes::treedepth`] | Theorem 2.4 | `O(t log n)` |
//! | [`schemes::kernel_mso`] | Theorem 2.6 / Prop 6.4 | `O(t log n + f(t,φ))` |
//! | [`schemes::minor_free`] | Corollary 2.7 | `O(log n)` (fixed `t`) |
//! | [`schemes::combinators`] | closure under ∧/∨ | sum |
//!
//! The size column is not just documentation: every scheme answers
//! [`framework::Scheme::declared_bound`] with a machine-readable
//! [`framework::DeclaredBound`], provers attribute each certificate bit
//! span to a named component via [`bits::BitWriter::component`]
//! (captured by `locert_trace::ledger`), and the `boundcheck` gate fits
//! measured size curves against the declared family (DESIGN.md §10).
//!
//! The [`catalogue`] module names all sixteen scheme families with
//! stable id strings — the single registry behind the fault campaigns,
//! bound sweeps, oracle, and the `locert-serve` request dispatch.

pub mod attacks;
pub mod bits;
pub mod catalogue;
pub mod faults;
pub mod framework;
pub mod radius;
pub mod schemes;

pub use bits::{BitReader, BitWriter, Certificate};
pub use framework::{
    run_scheme, run_verification, Assignment, Decode, DecodedView, Instance, Prover, ProverError,
    Scheme, VerificationOutcome, Verifier,
};
