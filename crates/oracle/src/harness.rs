//! The differential driver.
//!
//! For every case × family graph the harness checks:
//!
//! 1. **Completeness** — on a ground-truth yes-instance the honest run
//!    must accept at every vertex.
//! 2. **Honest soundness** — on a no-instance the prover must refuse
//!    (`honest-accepted` when it instead produces an accepted run).
//! 3. **Adversarial soundness** — on a no-instance the
//!    [`attack_battery`] must not find a fooling assignment.
//! 4. **Sibling agreement** — cases in the same group must reach the
//!    same decision on every graph where both are in-domain.
//! 5. **Metamorphic relations** — relabeling, disjoint self-union, and
//!    leaf-append (see [`crate::metamorphic`]).
//!
//! Out-of-domain graphs (`truth == None`) are still pushed through the
//! prover: the connected-graph promise is refused with a typed error,
//! never a panic — the regression guard for the panic-audit sweep.
//!
//! Every disagreement is journaled as an `OracleDisagreement` event and
//! shrunk to a local minimum (see [`crate::shrink()`]). All randomness
//! derives from `locert_par::split_seed(seed, index)`, so a fixed seed
//! gives byte-identical output at any thread count.

use crate::cases::OracleCase;
use crate::metamorphic;
use crate::shrink::shrink;
use locert_core::attacks::attack_battery;
use locert_core::{run_scheme, Instance, Scheme};
use locert_graph::{Graph, IdAssignment};
use locert_par::split_seed;
use locert_trace::journal;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The per-graph outcome of an honest scheme run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Prover assigned and every vertex accepted.
    Accept,
    /// Prover refused with a typed error.
    Reject,
    /// Prover assigned but some vertex rejected — always a bug
    /// (`honest-rejected`), surfaced by the caller.
    HonestRejected,
}

/// One oracle finding: a case, the relation that broke, and the witness.
#[derive(Debug, Clone)]
pub struct Disagreement {
    /// Case name from the catalogue.
    pub case: String,
    /// Which relation broke: `completeness`, `honest-accepted`,
    /// `soundness`, `honest-rejected`, `sibling:<other>`, `relabel`,
    /// `union`, or `leaf-append:<inner>`.
    pub relation: String,
    /// The (possibly shrunk) witness graph.
    pub graph: Graph,
    /// Human-readable context.
    pub detail: String,
}

/// Per-case tallies across a family sweep.
#[derive(Debug, Clone)]
pub struct CaseStat {
    /// Case name.
    pub name: String,
    /// Sibling group.
    pub group: String,
    /// Graphs inside the case's promise domain.
    pub checked: usize,
    /// Graphs outside it (prover exercised, no verdict drawn).
    pub skipped: usize,
    /// Disagreements attributed to this case.
    pub disagreements: usize,
}

/// The result of [`run_oracle`].
#[derive(Debug, Clone)]
pub struct OracleReport {
    /// One entry per catalogue case, in catalogue order.
    pub stats: Vec<CaseStat>,
    /// All findings, shrunk, in discovery order.
    pub disagreements: Vec<Disagreement>,
}

impl OracleReport {
    /// Whether the sweep found no disagreement.
    pub fn clean(&self) -> bool {
        self.disagreements.is_empty()
    }
}

/// Runs one honest prover+verifier pass and classifies the outcome.
pub fn decision_of(scheme: &dyn Scheme, g: &Graph, ids: &IdAssignment) -> Decision {
    let inst = Instance::new(g, ids);
    match run_scheme(scheme, &inst) {
        Ok(outcome) if outcome.accepted() => Decision::Accept,
        Ok(_) => Decision::HonestRejected,
        Err(_) => Decision::Reject,
    }
}

fn push(out: &mut Vec<Disagreement>, case: &OracleCase, relation: &str, g: &Graph, detail: String) {
    journal::record_with(|| journal::Event::OracleDisagreement {
        case: case.name.to_string(),
        relation: relation.to_string(),
        vertices: g.num_nodes() as u64,
    });
    if locert_trace::enabled() {
        locert_trace::add("oracle.harness.disagreements", 1);
    }
    out.push(Disagreement {
        case: case.name.to_string(),
        relation: relation.to_string(),
        graph: g.clone(),
        detail,
    });
}

/// The differential check for one case on one graph (relations 1–3 plus
/// the metamorphic set). Sibling agreement needs the whole catalogue and
/// lives in [`check_graph`].
pub fn check_case_on_graph(
    case: &OracleCase,
    g: &Graph,
    seed: u64,
    rounds: usize,
) -> Vec<Disagreement> {
    let mut out = Vec::new();
    let scheme = (case.build)();
    let ids = IdAssignment::contiguous(g.num_nodes());
    let truth = (case.truth)(g);
    let decision = decision_of(scheme.as_ref(), g, &ids);
    if locert_trace::enabled() {
        locert_trace::add("oracle.harness.checks", 1);
    }
    if decision == Decision::HonestRejected {
        push(
            &mut out,
            case,
            "honest-rejected",
            g,
            "honest prover's assignment was rejected by its own verifier".into(),
        );
        return out;
    }
    match truth {
        Some(true) if decision != Decision::Accept => {
            push(
                &mut out,
                case,
                "completeness",
                g,
                "ground truth says yes; the honest run did not accept".into(),
            );
        }
        Some(true) => {}
        Some(false) => {
            if decision == Decision::Accept {
                push(
                    &mut out,
                    case,
                    "honest-accepted",
                    g,
                    "ground truth says no; the honest run accepted".into(),
                );
            }
            let inst = Instance::new(g, &ids);
            let mut rng = StdRng::seed_from_u64(split_seed(seed, 0xA77));
            if let Some(fooling) = attack_battery(scheme.as_ref(), &inst, None, &mut rng, rounds) {
                push(
                    &mut out,
                    case,
                    "soundness",
                    g,
                    format!(
                        "adversarial assignment of {} bits accepted on a no-instance",
                        fooling.max_bits()
                    ),
                );
            }
        }
        // Out of domain: the prover was already exercised above (a typed
        // refusal, not a panic); there is no verdict to compare.
        None => {}
    }
    for d in metamorphic::check(case, scheme.as_ref(), g, decision, seed) {
        journal::record_with(|| journal::Event::OracleDisagreement {
            case: d.case.clone(),
            relation: d.relation.clone(),
            vertices: d.graph.num_nodes() as u64,
        });
        if locert_trace::enabled() {
            locert_trace::add("oracle.harness.disagreements", 1);
        }
        out.push(d);
    }
    out
}

/// Runs every relation for every case on one graph, including sibling
/// agreement across the catalogue. This is also the shrinker's oracle:
/// a candidate graph "still fails" when this returns a disagreement with
/// the original case and relation.
pub fn check_graph(cases: &[OracleCase], g: &Graph, seed: u64, rounds: usize) -> Vec<Disagreement> {
    let mut out = Vec::new();
    let mut decisions: Vec<Option<Decision>> = Vec::with_capacity(cases.len());
    for (ci, case) in cases.iter().enumerate() {
        out.extend(check_case_on_graph(
            case,
            g,
            split_seed(seed, ci as u64),
            rounds,
        ));
        // Sibling decisions only compare in-domain graphs; the honest
        // decision is recomputed cheaply (the prover is deterministic).
        let d = if (case.truth)(g).is_some() {
            let scheme = (case.build)();
            let ids = IdAssignment::contiguous(g.num_nodes());
            Some(decision_of(scheme.as_ref(), g, &ids))
        } else {
            None
        };
        decisions.push(d);
    }
    for (i, a) in cases.iter().enumerate() {
        for (j, b) in cases.iter().enumerate().skip(i + 1) {
            if a.group != b.group {
                continue;
            }
            if let (Some(da), Some(db)) = (decisions[i], decisions[j]) {
                if da != db {
                    push(
                        &mut out,
                        a,
                        &format!("sibling:{}", b.name),
                        g,
                        format!(
                            "{} decided {da:?} but sibling {} decided {db:?}",
                            a.name, b.name
                        ),
                    );
                }
            }
        }
    }
    out
}

/// The full sweep: every graph through [`check_graph`], every finding
/// shrunk to a local minimum. Findings are deduplicated per
/// (case, relation) — the first witness wins and is the one shrunk.
pub fn run_oracle(
    cases: &[OracleCase],
    graphs: &[Graph],
    seed: u64,
    rounds: usize,
) -> OracleReport {
    let mut stats: Vec<CaseStat> = cases
        .iter()
        .map(|c| CaseStat {
            name: c.name.to_string(),
            group: c.group.to_string(),
            checked: 0,
            skipped: 0,
            disagreements: 0,
        })
        .collect();
    let mut seen = std::collections::BTreeSet::new();
    let mut disagreements = Vec::new();
    for (gi, g) in graphs.iter().enumerate() {
        if locert_trace::enabled() {
            locert_trace::add("oracle.harness.graphs", 1);
        }
        let graph_seed = split_seed(seed, gi as u64);
        for (ci, case) in cases.iter().enumerate() {
            if (case.truth)(g).is_some() {
                stats[ci].checked += 1;
            } else {
                stats[ci].skipped += 1;
            }
        }
        for d in check_graph(cases, g, graph_seed, rounds) {
            let key = (d.case.clone(), d.relation.clone());
            if let Some(stat) = stats.iter_mut().find(|s| s.name == d.case) {
                stat.disagreements += 1;
            }
            if !seen.insert(key) {
                continue;
            }
            // Shrink against the same (case, relation) under the seed the
            // witness was found with — deterministic and replayable.
            let case_name = d.case.clone();
            let relation = d.relation.clone();
            let shrunk = shrink(&d.case, &d.graph, |candidate| {
                check_graph(cases, candidate, graph_seed, rounds)
                    .iter()
                    .any(|x| x.case == case_name && x.relation == relation)
            });
            disagreements.push(Disagreement { graph: shrunk, ..d });
        }
    }
    OracleReport {
        stats,
        disagreements,
    }
}

/// The seeded graph family the sweep runs over: classic shapes, every
/// non-isomorphic tree on up to 5 vertices, seeded random trees and
/// connected graphs, and deliberately disconnected graphs (unions and an
/// isolated vertex) that exercise the promise boundary. `quick` bounds
/// the random sizes for the CI smoke run.
pub fn family(quick: bool, seed: u64) -> Vec<Graph> {
    use locert_graph::{enumerate, generators};
    let mut graphs = Vec::new();
    for n in 1..=6 {
        graphs.push(generators::path(n));
    }
    for n in 3..=6 {
        graphs.push(generators::cycle(n));
    }
    for n in 2..=4 {
        graphs.push(generators::clique(n));
    }
    for n in 3..=5 {
        graphs.push(generators::star(n));
    }
    graphs.push(generators::spider(3, 2));
    for n in 1..=5 {
        for pv in enumerate::enumerate_trees(n, n) {
            let edges: Vec<(usize, usize)> = pv
                .iter()
                .enumerate()
                .filter(|&(_, &p)| p != usize::MAX)
                .map(|(i, &p)| (i, p))
                .collect();
            graphs.push(Graph::from_edges(n, edges).expect("parent array edges"));
        }
    }
    let max_n = if quick { 7 } else { 10 };
    let mut idx = 0u64;
    let rng_at = |idx: u64| StdRng::seed_from_u64(split_seed(seed, 0xFA0 + idx));
    for n in 4..=max_n {
        for extra in 0..=2usize {
            graphs.push(generators::random_connected(n, extra, &mut rng_at(idx)));
            idx += 1;
        }
        graphs.push(generators::random_tree(n, &mut rng_at(idx)));
        idx += 1;
    }
    graphs.push(generators::path(2).disjoint_union(&generators::path(3)));
    graphs.push(generators::cycle(3).disjoint_union(&generators::clique(2)));
    let t = generators::random_tree(5, &mut rng_at(idx));
    let edges: Vec<(usize, usize)> = t.edges().map(|(u, v)| (u.0, v.0)).collect();
    // The 5-vertex tree plus one isolated vertex.
    graphs.push(Graph::from_edges(6, edges).expect("isolated vertex"));
    graphs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cases::catalogue;
    use locert_graph::generators;

    #[test]
    fn family_is_seed_deterministic_and_mixed() {
        let a = family(true, 42);
        let b = family(true, 42);
        assert_eq!(a, b);
        assert_ne!(family(true, 43), a, "seed must matter");
        assert!(a.iter().any(|g| !g.is_connected()), "needs no-instances");
        assert!(a.iter().any(|g| g.num_nodes() == 1));
        assert!(a.len() < family(false, 42).len());
    }

    #[test]
    fn clean_catalogue_is_clean_on_core_family() {
        let cases = catalogue();
        let graphs = vec![
            generators::path(1),
            generators::path(2),
            generators::path(4),
            generators::cycle(4),
            generators::clique(3),
            generators::star(4),
            generators::path(2).disjoint_union(&generators::path(3)),
        ];
        let report = run_oracle(&cases, &graphs, 0xD1FF, 20);
        assert!(
            report.clean(),
            "unexpected disagreements: {:?}",
            report
                .disagreements
                .iter()
                .map(|d| format!("{}/{}: {}", d.case, d.relation, d.detail))
                .collect::<Vec<_>>()
        );
        // Every case saw the family; the disconnected graph is skipped by
        // the connected-relative truths and counted for the rest.
        for stat in &report.stats {
            assert_eq!(stat.checked + stat.skipped, graphs.len(), "{}", stat.name);
            assert!(stat.checked > 0, "{} never in-domain", stat.name);
        }
    }

    #[test]
    fn decisions_track_ground_truth() {
        let cases = catalogue();
        let st = cases.iter().find(|c| c.name == "spanning-tree").unwrap();
        let scheme = (st.build)();
        let p4 = generators::path(4);
        let ids = IdAssignment::contiguous(4);
        assert_eq!(decision_of(scheme.as_ref(), &p4, &ids), Decision::Accept);
        let split = generators::path(2).disjoint_union(&generators::path(2));
        let ids4 = IdAssignment::contiguous(4);
        assert_eq!(
            decision_of(scheme.as_ref(), &split, &ids4),
            Decision::Reject
        );
    }
}
