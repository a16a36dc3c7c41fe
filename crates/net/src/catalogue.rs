//! The sixteen (scheme, yes-instance) targets of the network campaign.
//!
//! One target per scheme family in the shared catalogue
//! ([`locert_core::catalogue`]) — tree certification, counting,
//! diameter, treedepth (paper and kernel routes), MSO on trees and
//! words, existential and depth-2 FO, minor-freeness, the universal
//! fallback, and a combinator — each paired with a small yes-instance
//! whose honest certificates the fault grid then attacks in transit.
//! The schemes themselves are built by stable id via
//! [`locert_core::catalogue::build`]; only the instance pairing is
//! campaign-specific.

use locert_core::catalogue::{self, lollipop, ID_BITS};
use locert_core::Scheme;
use locert_graph::{generators, Graph};

/// One campaign target: a scheme and a yes-instance it certifies.
pub struct NetTarget {
    /// Stable target name (journals and tables key on it) — the shared
    /// catalogue's scheme id.
    pub name: &'static str,
    /// The scheme under test.
    pub scheme: Box<dyn Scheme>,
    /// A yes-instance graph for the scheme's property.
    pub graph: Graph,
    /// Vertex inputs, for input-reading schemes (word letters).
    pub inputs: Option<Vec<usize>>,
}

/// Builds the full sixteen-target catalogue, scaled to instances of
/// roughly `n` vertices (`n >= 7`). Order is stable: journals, tables,
/// and the deterministic CLI output all follow it.
pub fn catalogue(n: usize) -> Vec<NetTarget> {
    let n = n.max(7);
    let even = if n.is_multiple_of(2) { n } else { n + 1 };
    let alternating: Vec<usize> = (0..n)
        .map(|i| usize::from(i % 2 == 1 && i + 1 < n))
        .collect();
    let instances: Vec<(&'static str, Graph, Option<Vec<usize>>)> = vec![
        ("acyclicity", generators::path(n), None),
        ("spanning-tree", generators::cycle(n), None),
        ("vertex-count", generators::path(n), None),
        ("universal-connected", generators::clique(5), None),
        ("tree-diameter-3", generators::star(n.min(9)), None),
        ("treedepth-3", generators::path(7), None),
        ("tree-depth-bound-2", generators::star(n.min(9)), None),
        ("mso-perfect-matching", generators::path(even), None),
        ("mso-height-5", generators::spider(3, 2), None),
        ("word-no-11", generators::path(n), Some(alternating)),
        ("existential-triangle", lollipop(n), None),
        ("depth2-dominating", generators::star(n.min(9)), None),
        ("path-minor-free-4", generators::star(n.min(9)), None),
        ("ct-minor-free-3", generators::path(7), None),
        ("kernel-triangle-free", generators::path(7), None),
        ("and-acyclic-count", generators::path(n), None),
    ];
    instances
        .into_iter()
        .map(|(name, graph, inputs)| {
            let scheme = catalogue::build(name, ID_BITS, graph.num_nodes())
                .unwrap_or_else(|| panic!("{name} is a catalogued scheme id"));
            NetTarget {
                name,
                scheme,
                graph,
                inputs,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use locert_core::framework::{run_scheme, Instance};
    use locert_graph::IdAssignment;
    use std::collections::BTreeSet;

    #[test]
    fn sixteen_targets_with_unique_names() {
        let targets = catalogue(12);
        assert_eq!(targets.len(), 16);
        let names: BTreeSet<_> = targets.iter().map(|t| t.name).collect();
        assert_eq!(names.len(), targets.len(), "duplicate target names");
    }

    #[test]
    fn target_names_are_shared_catalogue_ids_in_order() {
        let names: Vec<_> = catalogue(12).iter().map(|t| t.name).collect();
        assert_eq!(names, locert_core::catalogue::ids());
    }

    #[test]
    fn every_target_is_a_yes_instance() {
        for target in catalogue(12) {
            let ids = IdAssignment::contiguous(target.graph.num_nodes());
            let instance = match &target.inputs {
                Some(inputs) => Instance::with_inputs(&target.graph, &ids, inputs),
                None => Instance::new(&target.graph, &ids),
            };
            let outcome = run_scheme(target.scheme.as_ref(), &instance)
                .unwrap_or_else(|e| panic!("{}: prover refused: {e:?}", target.name));
            assert!(
                outcome.rejecting().is_empty(),
                "{}: honest run rejected at {:?}",
                target.name,
                outcome.rejecting()
            );
        }
    }
}
