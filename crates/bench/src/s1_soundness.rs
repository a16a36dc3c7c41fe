//! S1 — Soundness attack summary across every scheme.
//!
//! Soundness ("no assignment makes a no-instance accept") is a universal
//! statement that testing can only attack, not prove. This experiment
//! summarizes the attack campaign: for each scheme, a matched
//! no-instance, the number of random-assignment and mutation attacks run,
//! and whether any fooled the verifier (the column must read 0
//! everywhere).

use crate::report::Table;
use locert_automata::library;
use locert_core::attacks::{mutation_attacks, random_assignments};
use locert_core::framework::{Instance, Scheme};
use locert_core::schemes::acyclicity::AcyclicityScheme;
use locert_core::schemes::common::id_bits_for;
use locert_core::schemes::depth2_fo::Depth2FoScheme;
use locert_core::schemes::existential_fo::ExistentialFoScheme;
use locert_core::schemes::minor_free::PathMinorFreeScheme;
use locert_core::schemes::mso_tree::MsoTreeScheme;
use locert_core::schemes::spanning_tree::VertexCountScheme;
use locert_core::schemes::tree_depth_bound::TreeDepthBoundScheme;
use locert_core::schemes::tree_diameter::TreeDiameterScheme;
use locert_core::schemes::treedepth::TreedepthScheme;
use locert_graph::{generators, Graph, IdAssignment};
use locert_logic::props;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One attack campaign row.
struct Campaign {
    scheme: Box<dyn Scheme>,
    /// The no-instance attacked.
    no_instance: Graph,
    /// A related yes-instance whose honest certificates seed mutations
    /// (same vertex count).
    yes_instance: Option<Graph>,
}

fn campaigns(b: u32, n: usize) -> Vec<Campaign> {
    vec![
        Campaign {
            scheme: Box::new(AcyclicityScheme::new(b)),
            no_instance: generators::cycle(n),
            yes_instance: Some(generators::path(n)),
        },
        Campaign {
            scheme: Box::new(VertexCountScheme::new(b, n as u64 + 1)),
            no_instance: generators::path(n),
            yes_instance: None,
        },
        Campaign {
            scheme: Box::new(TreeDiameterScheme::new(b, 3)),
            no_instance: generators::path(n),
            yes_instance: Some(generators::star(n)),
        },
        Campaign {
            scheme: Box::new(TreedepthScheme::new(b, 3)),
            no_instance: generators::path(n.max(15)),
            yes_instance: None,
        },
        Campaign {
            scheme: Box::new(TreeDepthBoundScheme::new(2)),
            no_instance: generators::path(n.max(9)),
            yes_instance: Some(generators::star(n.max(9))),
        },
        Campaign {
            scheme: Box::new(MsoTreeScheme::new(library::has_perfect_matching())),
            no_instance: generators::star(n),
            yes_instance: Some(generators::path(if n.is_multiple_of(2) {
                n
            } else {
                n + 1
            })),
        },
        Campaign {
            scheme: Box::new(
                ExistentialFoScheme::new(b, &props::has_clique(3)).expect("existential"),
            ),
            no_instance: generators::cycle(n),
            yes_instance: None,
        },
        Campaign {
            scheme: Box::new(
                Depth2FoScheme::from_formula(b, &props::has_dominating_vertex()).expect("depth 2"),
            ),
            no_instance: generators::cycle(n.max(5)),
            yes_instance: Some(generators::star(n.max(5))),
        },
        Campaign {
            scheme: Box::new(PathMinorFreeScheme::new(b, 4)),
            no_instance: generators::path(n),
            yes_instance: Some(generators::star(n)),
        },
    ]
}

/// Runs the campaign; every row must report zero successful attacks.
pub fn run(n: usize, rounds: usize, seed: u64) -> Table {
    let mut table = Table::new(
        "S1",
        "Soundness attack campaign",
        "Soundness — every certificate assignment on a no-instance is rejected \
         somewhere — quantifies over all assignments; here each scheme faces \
         random assignments at its honest width plus mutations (bit flips, \
         swaps, blanking) of replayed honest certificates from a matched \
         yes-instance.",
        "successful-attack column identically 0",
        &[
            "scheme",
            "no-instance",
            "random attacks",
            "mutation attacks",
            "successful",
        ],
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let b = 6; // id bits for n ≤ 64.
    for c in campaigns(b, n) {
        let g = &c.no_instance;
        let ids = IdAssignment::contiguous(g.num_nodes());
        let inst = Instance::new(g, &ids);
        assert!(b >= id_bits_for(&inst));
        // Honest width for random attacks: from the yes-instance when
        // available, else a representative width.
        let (width, base) = match &c.yes_instance {
            Some(y) => {
                let yids = IdAssignment::contiguous(y.num_nodes());
                let yinst = Instance::new(y, &yids);
                match c.scheme.assign(&yinst) {
                    Ok(asg) => (asg.max_bits().max(1), Some(asg)),
                    Err(_) => (4 * b as usize, None),
                }
            }
            None => (4 * b as usize, None),
        };
        let mut fooled = 0usize;
        if random_assignments(c.scheme.as_ref(), &inst, width, &mut rng, rounds).is_some() {
            fooled += 1;
        }
        let mutations = if let Some(base) = base {
            if base.len() == g.num_nodes()
                && mutation_attacks(c.scheme.as_ref(), &inst, &base, &mut rng, rounds).is_some()
            {
                fooled += 1;
            }
            rounds
        } else {
            0
        };
        table.push([
            c.scheme.name(),
            format!("{}-vertex", g.num_nodes()),
            rounds.to_string(),
            mutations.to_string(),
            fooled.to_string(),
        ]);
    }
    table
}

/// One row of the exhaustive sweep: a scheme, a tiny no-instance, and
/// the certificate width to enumerate up to.
struct ExhaustiveCase {
    scheme: Box<dyn Scheme>,
    no_instance: Graph,
    max_bits: usize,
}

fn exhaustive_cases(b: u32) -> Vec<ExhaustiveCase> {
    vec![
        ExhaustiveCase {
            scheme: Box::new(AcyclicityScheme::new(b)),
            no_instance: generators::cycle(4),
            max_bits: 2,
        },
        ExhaustiveCase {
            scheme: Box::new(VertexCountScheme::new(b, 5)),
            no_instance: generators::path(4),
            max_bits: 2,
        },
        ExhaustiveCase {
            scheme: Box::new(TreeDiameterScheme::new(b, 1)),
            no_instance: generators::path(4),
            max_bits: 2,
        },
        ExhaustiveCase {
            scheme: Box::new(TreeDepthBoundScheme::new(1)),
            no_instance: generators::path(4),
            max_bits: 2,
        },
    ]
}

/// S1b — exhaustive soundness on tiny no-instances.
///
/// Unlike the sampled campaign of [`run`], a clean row here is a *proof*
/// of soundness for that instance and certificate width: every one of
/// the `(2^{max_bits+1} - 1)^n` assignments was enumerated and rejected
/// somewhere: one [`locert_core::attacks::search_in`] on the
/// `locert-par` pool with every vertex free and checked, deciding
/// candidates uncounted, so the one count it records is the same at
/// every thread count.
pub fn run_exhaustive() -> Table {
    use locert_core::attacks::exhaustive_soundness;

    let mut table = Table::new(
        "S1b",
        "Exhaustive soundness sweep",
        "For tiny no-instances the soundness quantifier is decidable by \
         brute force: enumerate every certificate assignment up to the \
         stated width (certificates ordered by (length, value), combined \
         as a mixed-radix counter) and check that each is rejected by some \
         vertex. The enumeration runs on the locert-par pool; the checked \
         count and any witness are byte-identical at every thread count. \
         Reproduce with: cargo run --release -p locert-bench --bin \
         experiments -- s1",
        "verdict column identically sound; checked = full space everywhere",
        &[
            "scheme",
            "no-instance",
            "max bits",
            "space",
            "checked",
            "verdict",
        ],
    );
    let b = 6;
    for case in exhaustive_cases(b) {
        let g = &case.no_instance;
        let n = g.num_nodes();
        let ids = IdAssignment::contiguous(n);
        let inst = Instance::new(g, &ids);
        assert!(b >= id_bits_for(&inst));
        let certs_per_vertex = (1u64 << (case.max_bits + 1)) - 1;
        let space = certs_per_vertex.pow(n as u32);
        let (checked, verdict) =
            match exhaustive_soundness(case.scheme.as_ref(), &inst, case.max_bits, 10_000_000) {
                Ok(checked) => (checked, "sound".to_string()),
                Err(e) => (0, format!("UNSOUND: {e}")),
            };
        table.push([
            case.scheme.name(),
            format!("{n}-vertex"),
            case.max_bits.to_string(),
            space.to_string(),
            checked.to_string(),
            verdict,
        ]);
    }
    table
}

/// One exhaustive sweep for the criterion benchmark: acyclicity on a
/// cycle, enumerated to `max_bits`, returning the checked count. The
/// space is `(2^{max_bits+1} - 1)^n`; with `n = 6, max_bits = 2` that is
/// 7^6 ≈ 118k full-graph verifications — enough work for the pool's
/// speedup to be measurable on multi-core hosts.
pub fn exhaustive_once(n: usize, max_bits: usize) -> u64 {
    let g = generators::cycle(n);
    let ids = IdAssignment::contiguous(n);
    let inst = Instance::new(&g, &ids);
    let scheme = AcyclicityScheme::new(id_bits_for(&inst));
    locert_core::attacks::exhaustive_soundness(&scheme, &inst, max_bits, 100_000_000)
        .expect("acyclicity is sound on a cycle")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_attack_succeeds() {
        let t = run(12, 120, 777);
        assert!(t.rows.len() >= 8);
        for row in &t.rows {
            assert_eq!(row[4], "0", "scheme {} was fooled", row[0]);
        }
    }

    #[test]
    fn exhaustive_sweep_proves_every_case_sound() {
        let t = run_exhaustive();
        assert!(t.rows.len() >= 4);
        for row in &t.rows {
            assert_eq!(
                row[5], "sound",
                "scheme {} exhaustive sweep: {}",
                row[0], row[5]
            );
            assert_eq!(
                row[3], row[4],
                "scheme {} early-exited a sound sweep",
                row[0]
            );
        }
    }

    #[test]
    fn exhaustive_once_checks_the_full_space() {
        assert_eq!(exhaustive_once(4, 1), 3u64.pow(4));
    }
}
