//! Metamorphic relations: transformations with a known effect on the
//! verdict.
//!
//! - **Relabel** — vertex identifiers are names, not structure: the
//!   honest decision under a shuffled [`IdAssignment`] must equal the
//!   decision under the contiguous one.
//! - **Disjoint self-union** — every catalogued scheme certifies a
//!   property of connected graphs (or trees); `G ⊎ G` is disconnected
//!   for any non-empty `G`, so the honest run must refuse — with a typed
//!   error, not a panic. This is the standing regression guard for the
//!   panic-audit sweep across the prover fronts.
//! - **Leaf-append** — hanging a fresh leaf off vertex 0 preserves
//!   connectivity and tree-ness; the grown graph is re-checked against
//!   recomputed ground truth (completeness/refusal only — the attack
//!   battery is the differential pass's job).

use crate::cases::OracleCase;
use crate::harness::{decision_of, Decision, Disagreement};
use locert_core::Scheme;
use locert_graph::{Graph, IdAssignment, NodeId};
use locert_par::split_seed;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Appends one leaf attached to vertex 0. `None` on the empty graph.
pub fn leaf_append(g: &Graph) -> Option<Graph> {
    let n = g.num_nodes();
    if n == 0 {
        return None;
    }
    let mut edges: Vec<(usize, usize)> = g.edges().map(|(u, v)| (u.0, v.0)).collect();
    edges.push((0, n));
    Some(Graph::from_edges(n + 1, edges).expect("leaf edge is fresh"))
}

/// Runs all metamorphic relations for one case. `base_decision` is the
/// honest decision already computed on `g` under contiguous identifiers.
pub fn check(
    case: &OracleCase,
    scheme: &dyn Scheme,
    g: &Graph,
    base_decision: Decision,
    seed: u64,
) -> Vec<Disagreement> {
    let mut out = Vec::new();
    let n = g.num_nodes();
    if n == 0 {
        return out;
    }
    let mut fail = |relation: String, witness: &Graph, detail: String| {
        out.push(Disagreement {
            case: case.name.to_string(),
            relation,
            graph: witness.clone(),
            detail,
        });
    };

    // Relabel: strict decision equality under a shuffled assignment.
    let mut rng = StdRng::seed_from_u64(split_seed(seed, 0x1D5));
    let shuffled = IdAssignment::shuffled(n, &mut rng);
    let relabeled = decision_of(scheme, g, &shuffled);
    if relabeled != base_decision {
        fail(
            "relabel".into(),
            g,
            format!("decision {base_decision:?} became {relabeled:?} under relabeling"),
        );
    }

    // Disjoint self-union: disconnected, so the honest run must refuse.
    let doubled = g.disjoint_union(g);
    let union_ids = IdAssignment::contiguous(doubled.num_nodes());
    let union_decision = decision_of(scheme, &doubled, &union_ids);
    if union_decision != Decision::Reject {
        fail(
            "union".into(),
            &doubled,
            format!("disconnected self-union was not refused (got {union_decision:?})"),
        );
    }

    // Leaf-append: re-differential against recomputed truth.
    if let Some(grown) = leaf_append(g) {
        debug_assert!(grown.neighbors(NodeId(n)).len() == 1);
        let grown_ids = IdAssignment::contiguous(grown.num_nodes());
        let grown_decision = decision_of(scheme, &grown, &grown_ids);
        match ((case.truth)(&grown), grown_decision) {
            (_, Decision::HonestRejected) => fail(
                "leaf-append:honest-rejected".into(),
                &grown,
                "honest assignment rejected on the grown graph".into(),
            ),
            (Some(true), Decision::Reject) => fail(
                "leaf-append:completeness".into(),
                &grown,
                "grown graph is a yes-instance but the honest run refused".into(),
            ),
            (Some(false), Decision::Accept) => fail(
                "leaf-append:honest-accepted".into(),
                &grown,
                "grown graph is a no-instance but the honest run accepted".into(),
            ),
            _ => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cases::catalogue;
    use locert_graph::generators;

    #[test]
    fn leaf_append_grows_by_one_and_preserves_treeness() {
        let g = generators::path(3);
        let grown = leaf_append(&g).unwrap();
        assert_eq!(grown.num_nodes(), 4);
        assert!(grown.is_tree());
        assert!(leaf_append(&Graph::empty(0)).is_none());
    }

    #[test]
    fn relations_hold_for_the_spanning_tree_case() {
        let cases = catalogue();
        let case = cases.iter().find(|c| c.name == "spanning-tree").unwrap();
        let scheme = case.scheme();
        let g = generators::cycle(5);
        let ids = IdAssignment::contiguous(5);
        let base = decision_of(scheme.as_ref(), &g, &ids);
        assert_eq!(base, Decision::Accept);
        let out = check(case, scheme.as_ref(), &g, base, 7);
        assert!(out.is_empty(), "{out:?}");
    }
}
