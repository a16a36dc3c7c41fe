//! The oracle case catalogue.
//!
//! An [`OracleCase`] pairs a scheme constructor with an *independent*
//! ground-truth function — the exact treedepth solver, the FO/MSO model
//! checker, a direct automaton run, or a hand-rolled graph predicate —
//! and a sibling group: cases in the same group certify the same
//! property by different constructions and must agree on every decision.
//!
//! Truth functions return `Option<bool>`: `None` marks a graph outside
//! the case's promise domain (a non-tree for a trees-only scheme, a
//! disconnected graph where the truth itself is connectivity-relative).
//! The harness still drives out-of-domain graphs through the prover —
//! refusals must be typed errors, never panics — but draws no verdict.

use locert_automata::library;
use locert_core::catalogue::{self, ID_BITS};
use locert_core::schemes::spanning_tree::VertexCountScheme;
use locert_core::schemes::universal::UniversalScheme;
use locert_core::Scheme;
use locert_graph::rooted::RootedTree;
use locert_graph::{minors, Graph, NodeId};
use locert_logic::{eval, props};

/// Treedepth bound certified by the treedepth and kernel cases —
/// matches the bound baked into the shared catalogue's `treedepth-3`
/// and `kernel-triangle-free` constructions.
pub const TD_BOUND: usize = 3;

/// One differential-testing case.
pub struct OracleCase {
    /// Unique case name (stable: journals and repro files key on it).
    pub name: &'static str,
    /// Sibling group; same group ⇒ same property ⇒ decisions must agree.
    pub group: &'static str,
    /// Builds the scheme for identifier width `id_bits` at instance size
    /// `n` — the type of a catalogue entry's `build`.
    pub build: fn(u32, usize) -> Box<dyn Scheme>,
    /// Independent ground truth; `None` = outside the promise domain.
    pub truth: fn(&Graph) -> Option<bool>,
}

impl OracleCase {
    /// A fresh scheme at the oracle's identifier width. No case binds
    /// the instance size, so `n` is 0.
    pub fn scheme(&self) -> Box<dyn Scheme> {
        (self.build)(ID_BITS, 0)
    }
}

fn connected_domain(g: &Graph, value: bool) -> Option<bool> {
    if g.num_nodes() == 0 || !g.is_connected() {
        // Connected-promise schemes refuse these; there is no verdict to
        // cross-check (and on the empty graph acceptance is vacuous).
        None
    } else {
        Some(value)
    }
}

fn truth_connected(g: &Graph) -> Option<bool> {
    if g.num_nodes() == 0 {
        None
    } else {
        Some(g.is_connected())
    }
}

fn truth_tree(g: &Graph) -> Option<bool> {
    if g.num_nodes() == 0 {
        None
    } else {
        Some(g.is_tree())
    }
}

fn truth_td(g: &Graph) -> Option<bool> {
    connected_domain(g, true)?;
    Some(locert_treedepth::exact::treedepth_exact(g) <= TD_BOUND)
}

fn truth_dominating(g: &Graph) -> Option<bool> {
    connected_domain(g, eval::models(g, &props::has_dominating_vertex()))
}

fn truth_triangle(g: &Graph) -> Option<bool> {
    connected_domain(g, eval::models(g, &props::has_clique(3)))
}

fn truth_p4_free(g: &Graph) -> Option<bool> {
    connected_domain(g, !minors::has_path_of_order(g, 4))
}

fn truth_kernel_triangle_free(g: &Graph) -> Option<bool> {
    connected_domain(g, true)?;
    Some(
        locert_treedepth::exact::treedepth_exact(g) <= TD_BOUND
            && eval::models(g, &props::triangle_free()),
    )
}

fn truth_perfect_matching(g: &Graph) -> Option<bool> {
    if g.num_nodes() == 0 || !g.is_tree() {
        return None;
    }
    let rooted = RootedTree::from_tree(g, NodeId(0)).expect("is_tree checked");
    Some(
        library::has_perfect_matching()
            .accepts(&locert_automata::trees::LabeledTree::unlabeled(rooted)),
    )
}

fn has_dominating_vertex_direct(g: &Graph) -> bool {
    let n = g.num_nodes();
    g.nodes().any(|v| g.neighbors(v).len() + 1 == n)
}

fn has_triangle_direct(g: &Graph) -> bool {
    g.edges()
        .any(|(u, v)| g.neighbors(u).iter().any(|w| g.neighbors(v).contains(w)))
}

/// A ground-truth function: `None` = outside the promise domain.
type Truth = fn(&Graph) -> Option<bool>;

/// The full case catalogue. Order is stable — journals, repro file
/// names, and the deterministic CLI output all follow it.
///
/// Nine cases certify with their catalogue entry's own `build`, read
/// while walking [`catalogue::entries`]; the match gives each its
/// position, sibling group and truth. The other three are local
/// constructions placed between them.
pub fn catalogue() -> Vec<OracleCase> {
    let mut ranked: Vec<(usize, OracleCase)> = catalogue::entries()
        .into_iter()
        .filter_map(|entry| {
            let (rank, group, truth): (_, _, Truth) = match entry.id {
                "spanning-tree" => (0, "connected", truth_connected),
                // The verifier independently rejects disconnected
                // broadcast maps; the property closure is the identity
                // on top of that.
                "universal-connected" => (2, "connected", truth_connected),
                "acyclicity" => (3, "tree", truth_tree),
                "treedepth-3" => (4, "td3", truth_td),
                "depth2-dominating" => (5, "dominating", truth_dominating),
                "existential-triangle" => (7, "triangle", truth_triangle),
                "mso-perfect-matching" => (9, "pm", truth_perfect_matching),
                "path-minor-free-4" => (10, "p4free", truth_p4_free),
                "kernel-triangle-free" => (11, "kernel-tf", truth_kernel_triangle_free),
                _ => return None,
            };
            let case = OracleCase {
                name: entry.id,
                group,
                build: entry.build,
                truth,
            };
            Some((rank, case))
        })
        .collect();
    ranked.extend([
        (
            1,
            OracleCase {
                // Not the catalogue's `vertex-count`: this variant
                // certifies *any* count (the truth is connectivity), not
                // a fixed target `n`.
                name: "vertex-count",
                group: "connected",
                build: |b, _| Box::new(VertexCountScheme::any_count(b)),
                truth: truth_connected,
            },
        ),
        (
            6,
            OracleCase {
                name: "universal-dominating",
                group: "dominating",
                build: |b, _| {
                    Box::new(UniversalScheme::new(
                        b,
                        "universal-dominating",
                        has_dominating_vertex_direct,
                    ))
                },
                truth: truth_dominating,
            },
        ),
        (
            8,
            OracleCase {
                name: "universal-triangle",
                group: "triangle",
                build: |b, _| {
                    Box::new(UniversalScheme::new(
                        b,
                        "universal-triangle",
                        has_triangle_direct,
                    ))
                },
                truth: truth_triangle,
            },
        ),
    ]);
    ranked.sort_by_key(|&(rank, _)| rank);
    ranked.into_iter().map(|(_, case)| case).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn catalogue_builds_every_scheme_and_names_are_unique() {
        let cases = catalogue();
        let names: BTreeSet<_> = cases.iter().map(|c| c.name).collect();
        assert_eq!(names.len(), cases.len(), "duplicate case names");
        // Journals and repro files key on this order.
        let ordered: Vec<_> = cases.iter().map(|c| (c.name, c.group)).collect();
        assert_eq!(
            ordered,
            [
                ("spanning-tree", "connected"),
                ("vertex-count", "connected"),
                ("universal-connected", "connected"),
                ("acyclicity", "tree"),
                ("treedepth-3", "td3"),
                ("depth2-dominating", "dominating"),
                ("universal-dominating", "dominating"),
                ("existential-triangle", "triangle"),
                ("universal-triangle", "triangle"),
                ("mso-perfect-matching", "pm"),
                ("path-minor-free-4", "p4free"),
                ("kernel-triangle-free", "kernel-tf"),
            ]
        );
        for case in &cases {
            let scheme = case.scheme();
            assert!(!scheme.name().is_empty(), "{}", case.name);
        }
    }

    #[test]
    fn truth_functions_respect_domains() {
        let path3 = locert_graph::generators::path(3);
        let two_parts = path3.disjoint_union(&path3);
        for case in catalogue() {
            // Everything is in-domain on a small path except nothing;
            // disconnected graphs are out of every connected domain.
            if case.group == "connected" || case.group == "tree" {
                assert_eq!((case.truth)(&two_parts), Some(false), "{}", case.name);
            } else {
                assert_eq!((case.truth)(&two_parts), None, "{}", case.name);
            }
            assert!((case.truth)(&path3).is_some(), "{}", case.name);
        }
    }

    #[test]
    fn truths_match_known_instances() {
        let triangle = locert_graph::generators::clique(3);
        assert_eq!(truth_triangle(&triangle), Some(true));
        assert_eq!(truth_kernel_triangle_free(&triangle), Some(false));
        let path4 = locert_graph::generators::path(4);
        assert_eq!(truth_triangle(&path4), Some(false));
        assert_eq!(truth_p4_free(&path4), Some(false));
        assert_eq!(truth_p4_free(&triangle), Some(true));
        // P2 has a perfect matching; P3 does not.
        assert_eq!(
            truth_perfect_matching(&locert_graph::generators::path(2)),
            Some(true)
        );
        assert_eq!(
            truth_perfect_matching(&locert_graph::generators::path(3)),
            Some(false)
        );
        assert_eq!(
            truth_dominating(&locert_graph::generators::star(5)),
            Some(true)
        );
        assert_eq!(truth_td(&path4), Some(true));
        assert_eq!(
            truth_td(&locert_graph::generators::path(12)),
            Some(false),
            "P12 needs treedepth 4"
        );
    }
}
