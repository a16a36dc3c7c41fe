//! Known-bad scheme wrappers for the mutation self-test.
//!
//! Each [`Mutant`] injects one realistic bug class into one catalogue
//! case — a flipped comparison, an off-by-one certificate width, an
//! accept-everything verifier — and the oracle must detect every one of
//! them with a shrunk counterexample. `diffhunt --mutants` runs the
//! battery; the tests here mirror it in-process. Nothing but
//! [`apply`] puts a mutant into a case list, and only `--mutants` calls
//! it.

use crate::cases::{catalogue, OracleCase};
use locert_core::framework::{DeclaredBound, RejectReason};
use locert_core::schemes::depth2_fo::Depth2FoScheme;
use locert_core::schemes::spanning_tree::SpanningTreeScheme;
use locert_core::schemes::treedepth::TreedepthScheme;
use locert_core::{
    Assignment, BitReader, BitWriter, Decode, DecodedView, Instance, Prover, ProverError, Scheme,
};
use locert_graph::NodeId;

/// A bug injected into a wrapped scheme.
#[derive(Clone, Copy)]
enum Bug {
    /// Inverts every per-vertex verdict — a flipped comparison in the
    /// verifier. Caught because the honest run rejects a yes-instance.
    FlipVerdict,
    /// Accepts every view — a verifier whose checks were optimized
    /// away. Caught by the attack battery on any no-instance.
    AcceptAll,
    /// Drops the last bit of vertex 0's certificate — an off-by-one
    /// field width in the prover. Caught because the honest assignment
    /// no longer parses at (or next to) vertex 0.
    TruncateLastBit,
}

/// Scheme `S` with `bug` injected; it decodes as `S` does.
struct Mutated<S> {
    scheme: S,
    bug: Bug,
}

impl<S: Prover> Prover for Mutated<S> {
    fn assign(&self, instance: &Instance<'_>) -> Result<Assignment, ProverError> {
        let mut asg = self.scheme.assign(instance)?;
        if matches!(self.bug, Bug::TruncateLastBit) && instance.graph().num_nodes() > 0 {
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

impl<S: Decode> Decode for Mutated<S> {
    type Decoded = S::Decoded;
    type Cache = S::Cache;

    fn decode(&self, window: BitReader<'_>, cache: &S::Cache) -> S::Decoded {
        self.scheme.decode(window, cache)
    }

    fn decide_decoded(&self, view: &DecodedView<'_, S::Decoded>) -> Result<(), RejectReason> {
        match self.bug {
            Bug::FlipVerdict => match self.scheme.decide_decoded(view) {
                Ok(()) => Err(RejectReason::PropertyViolation),
                Err(_) => Ok(()),
            },
            Bug::AcceptAll => Ok(()),
            Bug::TruncateLastBit => self.scheme.decide_decoded(view),
        }
    }
}

impl<S: Scheme + Decode> Scheme for Mutated<S> {
    fn name(&self) -> String {
        let suffix = match self.bug {
            Bug::FlipVerdict => "flip",
            Bug::AcceptAll => "accept-all",
            Bug::TruncateLastBit => "truncate",
        };
        format!("{}+{suffix}", self.scheme.name())
    }

    fn declared_bound(&self) -> DeclaredBound {
        self.scheme.declared_bound()
    }
}

/// The catalogue's `spanning-tree` scheme with `bug` injected.
fn spanning_tree(id_bits: u32, bug: Bug) -> Box<dyn Scheme> {
    Box::new(Mutated {
        scheme: SpanningTreeScheme::new(id_bits),
        bug,
    })
}

/// One injected bug: which case it poisons and the poisoned constructor.
pub struct Mutant {
    /// Mutant name (stable, shown by `diffhunt --mutants`).
    pub name: &'static str,
    /// The catalogue case whose scheme is replaced.
    pub case: &'static str,
    build: fn(u32, usize) -> Box<dyn Scheme>,
}

/// The mutant battery.
pub fn mutants() -> Vec<Mutant> {
    vec![
        Mutant {
            name: "flip-verdict",
            case: "spanning-tree",
            build: |b, _| spanning_tree(b, Bug::FlipVerdict),
        },
        Mutant {
            name: "accept-all",
            case: "spanning-tree",
            build: |b, _| spanning_tree(b, Bug::AcceptAll),
        },
        Mutant {
            name: "truncate-last-bit",
            case: "spanning-tree",
            build: |b, _| spanning_tree(b, Bug::TruncateLastBit),
        },
        Mutant {
            name: "treedepth-off-by-one",
            case: "treedepth-3",
            // Labeled treedepth-3 in the catalogue, but certifies t = 2:
            // the classic threshold off-by-one. Caught on any graph of
            // treedepth exactly 3 (P4 already).
            build: |b, _| Box::new(TreedepthScheme::new(b, crate::cases::TD_BOUND - 1)),
        },
        Mutant {
            name: "truth-table-flip",
            case: "depth2-dominating",
            // The depth-2 scheme for "has a dominating vertex" replaced by
            // the all-true table — the prover now happily certifies
            // no-instances.
            build: |b, _| Box::new(Depth2FoScheme::from_truth_table(b, [true; 4])),
        },
    ]
}

/// The catalogue with `mutant`'s target case poisoned.
pub fn apply(mutant: &Mutant) -> Vec<OracleCase> {
    let mut cases = catalogue();
    for case in cases.iter_mut().filter(|c| c.name == mutant.case) {
        case.build = mutant.build;
    }
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
