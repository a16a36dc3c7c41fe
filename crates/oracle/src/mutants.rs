//! Known-bad scheme wrappers for the mutation self-test.
//!
//! Each [`Mutant`] injects one realistic bug class into one catalogue
//! case — a flipped comparison, an off-by-one certificate width, an
//! accept-everything verifier — and the oracle must detect every one of
//! them with a shrunk counterexample. `diffhunt --mutants` runs the
//! battery; the tests here mirror it in-process. This module is
//! test-only (`mutants` feature) so the wrappers can never leak into a
//! production binary.

use crate::cases::{catalogue, OracleCase};
use locert_core::catalogue::ID_BITS;
use locert_core::framework::{DeclaredBound, RejectReason};
use locert_core::schemes::depth2_fo::Depth2FoScheme;
use locert_core::schemes::treedepth::TreedepthScheme;
use locert_core::{
    Assignment, BitWriter, Instance, LocalView, Prover, ProverError, Scheme, Verifier,
};
use locert_graph::NodeId;

fn base(name: &str) -> Box<dyn Scheme> {
    (catalogue()
        .into_iter()
        .find(|c| c.name == name)
        .expect("catalogued case")
        .build)()
}

/// Inverts every per-vertex verdict — a flipped comparison in the
/// verifier. Caught because the honest run rejects a yes-instance.
struct FlipVerdict(Box<dyn Scheme>);

impl Prover for FlipVerdict {
    fn assign(&self, instance: &Instance<'_>) -> Result<Assignment, ProverError> {
        self.0.assign(instance)
    }
}

impl Verifier for FlipVerdict {
    fn decide(&self, view: &LocalView<'_>) -> Result<(), RejectReason> {
        match self.0.decide(view) {
            Ok(()) => Err(RejectReason::PropertyViolation),
            Err(_) => Ok(()),
        }
    }
}

impl Scheme for FlipVerdict {
    fn name(&self) -> String {
        format!("{}+flip", self.0.name())
    }

    fn declared_bound(&self) -> DeclaredBound {
        self.0.declared_bound()
    }
}

/// Accepts every view — a verifier whose checks were optimized away.
/// Caught by the attack battery on any no-instance.
struct AcceptAll(Box<dyn Scheme>);

impl Prover for AcceptAll {
    fn assign(&self, instance: &Instance<'_>) -> Result<Assignment, ProverError> {
        self.0.assign(instance)
    }
}

impl Verifier for AcceptAll {
    fn decide(&self, _view: &LocalView<'_>) -> Result<(), RejectReason> {
        Ok(())
    }
}

impl Scheme for AcceptAll {
    fn name(&self) -> String {
        format!("{}+accept-all", self.0.name())
    }

    fn declared_bound(&self) -> DeclaredBound {
        self.0.declared_bound()
    }
}

/// Drops the last bit of vertex 0's certificate — an off-by-one field
/// width in the prover. Caught because the honest assignment no longer
/// parses at (or next to) vertex 0.
struct TruncateLastBit(Box<dyn Scheme>);

impl Prover for TruncateLastBit {
    fn assign(&self, instance: &Instance<'_>) -> Result<Assignment, ProverError> {
        let mut asg = self.0.assign(instance)?;
        if instance.graph().num_nodes() > 0 {
            let c = asg.cert(NodeId(0)).clone();
            if c.len_bits() > 0 {
                let mut w = BitWriter::new();
                for i in 0..c.len_bits() - 1 {
                    w.write_bit(c.bit(i));
                }
                *asg.cert_mut(NodeId(0)) = w.finish();
            }
        }
        Ok(asg)
    }
}

impl Verifier for TruncateLastBit {
    fn decide(&self, view: &LocalView<'_>) -> Result<(), RejectReason> {
        self.0.decide(view)
    }
}

impl Scheme for TruncateLastBit {
    fn name(&self) -> String {
        format!("{}+truncate", self.0.name())
    }

    fn declared_bound(&self) -> DeclaredBound {
        self.0.declared_bound()
    }
}

fn build_flip_spanning_tree() -> Box<dyn Scheme> {
    Box::new(FlipVerdict(base("spanning-tree")))
}

fn build_accept_all_spanning_tree() -> Box<dyn Scheme> {
    Box::new(AcceptAll(base("spanning-tree")))
}

fn build_truncated_spanning_tree() -> Box<dyn Scheme> {
    Box::new(TruncateLastBit(base("spanning-tree")))
}

fn build_treedepth_off_by_one() -> Box<dyn Scheme> {
    // Labeled treedepth-3 in the catalogue, but certifies t = 2: the
    // classic threshold off-by-one. Caught on any graph of treedepth
    // exactly 3 (P4 already).
    Box::new(TreedepthScheme::new(ID_BITS, crate::cases::TD_BOUND - 1))
}

fn build_always_true_dominating() -> Box<dyn Scheme> {
    // Truth-table flip: the depth-2 scheme for "has a dominating vertex"
    // replaced by the all-true table — the prover now happily certifies
    // no-instances.
    Box::new(Depth2FoScheme::from_truth_table(ID_BITS, [true; 4]))
}

/// One injected bug: which case it poisons and the poisoned constructor.
pub struct Mutant {
    /// Mutant name (stable, shown by `diffhunt --mutants`).
    pub name: &'static str,
    /// The catalogue case whose scheme is replaced.
    pub case: &'static str,
    build: fn() -> Box<dyn Scheme>,
}

/// The mutant battery.
pub fn mutants() -> Vec<Mutant> {
    vec![
        Mutant {
            name: "flip-verdict",
            case: "spanning-tree",
            build: build_flip_spanning_tree,
        },
        Mutant {
            name: "accept-all",
            case: "spanning-tree",
            build: build_accept_all_spanning_tree,
        },
        Mutant {
            name: "truncate-last-bit",
            case: "spanning-tree",
            build: build_truncated_spanning_tree,
        },
        Mutant {
            name: "treedepth-off-by-one",
            case: "treedepth-3",
            build: build_treedepth_off_by_one,
        },
        Mutant {
            name: "truth-table-flip",
            case: "depth2-dominating",
            build: build_always_true_dominating,
        },
    ]
}

/// The catalogue with `mutant`'s target case poisoned.
pub fn apply(mutant: &Mutant) -> Vec<OracleCase> {
    let mut cases = catalogue();
    let target = cases
        .iter_mut()
        .find(|c| c.name == mutant.case)
        .expect("mutant targets a catalogued case");
    target.build = mutant.build;
    cases
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{family, run_oracle};

    /// The acceptance criterion: every mutant is detected, and the shrunk
    /// counterexample stays small (≤ 12 vertices).
    #[test]
    fn oracle_detects_every_mutant_with_small_witness() {
        let graphs = family(true, 0xBEEF);
        for mutant in mutants() {
            let cases = apply(&mutant);
            let report = run_oracle(&cases, &graphs, 0xBEEF, 20);
            let found: Vec<_> = report
                .disagreements
                .iter()
                .filter(|d| d.case == mutant.case)
                .collect();
            assert!(
                !found.is_empty(),
                "mutant {} escaped the oracle",
                mutant.name
            );
            for d in &found {
                assert!(
                    d.graph.num_nodes() <= 12,
                    "mutant {}: witness not shrunk ({} vertices, relation {})",
                    mutant.name,
                    d.graph.num_nodes(),
                    d.relation
                );
            }
        }
    }
}
