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
    /// Builds a fresh scheme instance.
    pub build: fn() -> Box<dyn Scheme>,
    /// Independent ground truth; `None` = outside the promise domain.
    pub truth: fn(&Graph) -> Option<bool>,
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

/// Builds a shared-catalogue scheme by stable id. The instance-size
/// parameter is irrelevant for every id the oracle delegates (none of
/// them bind `n`); the differing constructions below stay local.
fn shared(id: &str) -> Box<dyn Scheme> {
    catalogue::build(id, ID_BITS, 0)
        .unwrap_or_else(|| panic!("{id} is a shared-catalogue scheme id"))
}

fn build_spanning_tree() -> Box<dyn Scheme> {
    shared("spanning-tree")
}

fn build_vertex_count() -> Box<dyn Scheme> {
    // Not the catalogue's `vertex-count`: the oracle variant certifies
    // *any* count (the truth is connectivity), not a fixed target `n`.
    Box::new(VertexCountScheme::any_count(ID_BITS))
}

fn build_universal_connected() -> Box<dyn Scheme> {
    // The verifier independently rejects disconnected broadcast maps;
    // the property closure is the identity on top of that.
    shared("universal-connected")
}

fn build_treedepth() -> Box<dyn Scheme> {
    shared("treedepth-3")
}

fn build_depth2_dominating() -> Box<dyn Scheme> {
    shared("depth2-dominating")
}

fn build_universal_dominating() -> Box<dyn Scheme> {
    Box::new(UniversalScheme::new(
        ID_BITS,
        "universal-dominating",
        has_dominating_vertex_direct,
    ))
}

fn build_existential_triangle() -> Box<dyn Scheme> {
    shared("existential-triangle")
}

fn build_universal_triangle() -> Box<dyn Scheme> {
    Box::new(UniversalScheme::new(
        ID_BITS,
        "universal-triangle",
        has_triangle_direct,
    ))
}

fn build_mso_perfect_matching() -> Box<dyn Scheme> {
    shared("mso-perfect-matching")
}

fn build_path_minor_free() -> Box<dyn Scheme> {
    shared("path-minor-free-4")
}

fn build_kernel_triangle_free() -> Box<dyn Scheme> {
    shared("kernel-triangle-free")
}

fn build_acyclicity() -> Box<dyn Scheme> {
    shared("acyclicity")
}

/// The full case catalogue. Order is stable — journals, repro file
/// names, and the deterministic CLI output all follow it.
pub fn catalogue() -> Vec<OracleCase> {
    vec![
        OracleCase {
            name: "spanning-tree",
            group: "connected",
            build: build_spanning_tree,
            truth: truth_connected,
        },
        OracleCase {
            name: "vertex-count",
            group: "connected",
            build: build_vertex_count,
            truth: truth_connected,
        },
        OracleCase {
            name: "universal-connected",
            group: "connected",
            build: build_universal_connected,
            truth: truth_connected,
        },
        OracleCase {
            name: "acyclicity",
            group: "tree",
            build: build_acyclicity,
            truth: truth_tree,
        },
        OracleCase {
            name: "treedepth-3",
            group: "td3",
            build: build_treedepth,
            truth: truth_td,
        },
        OracleCase {
            name: "depth2-dominating",
            group: "dominating",
            build: build_depth2_dominating,
            truth: truth_dominating,
        },
        OracleCase {
            name: "universal-dominating",
            group: "dominating",
            build: build_universal_dominating,
            truth: truth_dominating,
        },
        OracleCase {
            name: "existential-triangle",
            group: "triangle",
            build: build_existential_triangle,
            truth: truth_triangle,
        },
        OracleCase {
            name: "universal-triangle",
            group: "triangle",
            build: build_universal_triangle,
            truth: truth_triangle,
        },
        OracleCase {
            name: "mso-perfect-matching",
            group: "pm",
            build: build_mso_perfect_matching,
            truth: truth_perfect_matching,
        },
        OracleCase {
            name: "path-minor-free-4",
            group: "p4free",
            build: build_path_minor_free,
            truth: truth_p4_free,
        },
        OracleCase {
            name: "kernel-triangle-free",
            group: "kernel-tf",
            build: build_kernel_triangle_free,
            truth: truth_kernel_triangle_free,
        },
    ]
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
        for case in &cases {
            let scheme = (case.build)();
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
