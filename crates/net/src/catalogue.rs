//! The sixteen (scheme, yes-instance) targets of the network campaign.
//!
//! One target per entry of the shared catalogue
//! ([`locert_core::catalogue`]) — tree certification, counting,
//! diameter, treedepth (paper and kernel routes), MSO on trees and
//! words, existential and depth-2 FO, minor-freeness, the universal
//! fallback, and a combinator — each paired with a small yes-instance
//! whose honest certificates the fault grid then attacks in transit.
//! The campaign walks the entries in order and builds each scheme from
//! its entry; only the instance pairing is campaign-specific.

use locert_core::catalogue::{self, SchemeEntry, ID_BITS};
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

/// The campaign's yes-instance for `entry` at roughly `n >= 7`
/// vertices: a fixed small graph (a star capped at 9 vertices,
/// `path(7)`, `clique(5)`, a three-legged spider) for the nine entries
/// whose campaign instance is not their growing family, and the
/// family itself for the other seven.
fn instance(entry: &SchemeEntry, n: usize) -> (Graph, Option<Vec<usize>>) {
    let graph = match entry.id {
        "universal-connected" => generators::clique(5),
        "tree-diameter-3" | "tree-depth-bound-2" | "depth2-dominating" | "path-minor-free-4" => {
            generators::star(n.min(9))
        }
        "treedepth-3" | "ct-minor-free-3" | "kernel-triangle-free" => generators::path(7),
        "mso-height-5" => generators::spider(3, 2),
        _ => return (entry.family)(n),
    };
    (graph, None)
}

/// Builds the full sixteen-target catalogue, scaled to instances of
/// roughly `n` vertices (`n >= 7`). Order is stable: journals, tables,
/// and the deterministic CLI output all follow the catalogue's.
pub fn catalogue(n: usize) -> Vec<NetTarget> {
    let n = n.max(7);
    catalogue::entries()
        .iter()
        .map(|entry| {
            let (graph, inputs) = instance(entry, n);
            NetTarget {
                name: entry.id,
                scheme: (entry.build)(ID_BITS, graph.num_nodes()),
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
