//! The shared sixteen-scheme catalogue: one stable id string per scheme
//! family in the workspace, with a constructor and a canonical growing
//! instance family.
//!
//! Every consumer that needs "all the schemes" — the `netstorm` fault
//! campaign, the `boundcheck`/`experiments` bound sweeps, the `diffhunt`
//! oracle, and the `locert-serve` daemon's by-id request dispatch —
//! resolves entries here, so a new scheme family lands everywhere by
//! adding one [`SchemeEntry`]. The id strings are wire-stable: journals,
//! tables, repro files, and serve requests all key on them.
//!
//! Consumers choose their own instances: [`SchemeEntry::family`] is the
//! canonical *growing* family used by the certificate-size sweeps, while
//! `locert-net` pairs the same schemes with small fixed yes-instances
//! and `locert-serve` certifies whatever graph the request carries.

use crate::schemes::acyclicity::AcyclicityScheme;
use crate::schemes::combinators::AndScheme;
use crate::schemes::depth2_fo::Depth2FoScheme;
use crate::schemes::existential_fo::ExistentialFoScheme;
use crate::schemes::kernel_mso::KernelMsoScheme;
use crate::schemes::minor_free::{CtMinorFreeScheme, PathMinorFreeScheme};
use crate::schemes::mso_tree::MsoTreeScheme;
use crate::schemes::spanning_tree::{SpanningTreeScheme, VertexCountScheme};
use crate::schemes::tree_depth_bound::TreeDepthBoundScheme;
use crate::schemes::tree_diameter::TreeDiameterScheme;
use crate::schemes::treedepth::TreedepthScheme;
use crate::schemes::universal::UniversalScheme;
use crate::schemes::word_path::WordPathScheme;
use crate::Scheme;
use locert_automata::library;
use locert_automata::words::Nfa;
use locert_graph::{generators, Graph};
use locert_logic::props;
use std::collections::BTreeSet;

/// One catalogued scheme family.
#[derive(Clone, Copy)]
pub struct SchemeEntry {
    /// Stable scheme id (wire format, journals, and tables key on it).
    pub id: &'static str,
    /// Builds the scheme for identifier width `id_bits` at instance
    /// size `n` (most families ignore `n`; counting schemes bind it).
    pub build: fn(u32, usize) -> Box<dyn Scheme>,
    /// The canonical growing yes-instance family: graph plus optional
    /// vertex inputs (word letters), as swept by the bound observatory.
    pub family: fn(usize) -> (Graph, Option<Vec<usize>>),
}

/// A triangle with a path tail: the smallest family that has a clique
/// witness yet grows unboundedly.
pub fn lollipop(n: usize) -> Graph {
    let n = n.max(4);
    let mut edges = vec![(0, 1), (1, 2), (2, 0)];
    for v in 3..n {
        edges.push((v - 1, v));
    }
    Graph::from_edges(n, edges).expect("lollipop is simple and connected")
}

/// The two-state "no two consecutive 1s" NFA (both states accepting;
/// reading `1` twice in a row has no successor).
pub fn no_11_nfa() -> Nfa {
    let set = |states: &[usize]| states.iter().copied().collect::<BTreeSet<_>>();
    Nfa::new(
        2,
        2,
        set(&[0]),
        vec![true, true],
        vec![
            vec![set(&[0]), set(&[1])], // q0: last letter was not 1.
            vec![set(&[0]), set(&[])],  // q1: last letter was 1.
        ],
    )
    .expect("well-formed NFA")
}

fn plain(g: Graph) -> (Graph, Option<Vec<usize>>) {
    (g, None)
}

const fn e(
    id: &'static str,
    build: fn(u32, usize) -> Box<dyn Scheme>,
    family: fn(usize) -> (Graph, Option<Vec<usize>>),
) -> SchemeEntry {
    SchemeEntry { id, build, family }
}

/// The sixteen catalogue entries, in stable order: one static table that
/// every lookup reads in place.
static ENTRIES: [SchemeEntry; 16] = [
    e(
        "acyclicity",
        |b, _| Box::new(AcyclicityScheme::new(b)),
        |n| plain(generators::path(n)),
    ),
    e(
        "spanning-tree",
        |b, _| Box::new(SpanningTreeScheme::new(b)),
        |n| plain(generators::cycle(n)),
    ),
    e(
        "vertex-count",
        |b, n| Box::new(VertexCountScheme::new(b, n as u64)),
        |n| plain(generators::path(n)),
    ),
    e(
        "universal-connected",
        |b, _| {
            Box::new(UniversalScheme::new(b, "universal-connected", |g| {
                g.is_connected()
            }))
        },
        |n| plain(generators::clique(n)),
    ),
    e(
        "tree-diameter-3",
        |b, _| Box::new(TreeDiameterScheme::new(b, 3)),
        |n| plain(generators::star(n)),
    ),
    e(
        "treedepth-3",
        |b, _| Box::new(TreedepthScheme::new(b, 3)),
        |n| plain(generators::star(n)),
    ),
    e(
        "tree-depth-bound-2",
        |_, _| Box::new(TreeDepthBoundScheme::new(2)),
        |n| plain(generators::star(n)),
    ),
    e(
        "mso-perfect-matching",
        |_, _| Box::new(MsoTreeScheme::new(library::has_perfect_matching())),
        |n| {
            plain(generators::path(if n.is_multiple_of(2) {
                n
            } else {
                n + 1
            }))
        },
    ),
    e(
        "mso-height-5",
        |_, _| Box::new(MsoTreeScheme::new(library::height_at_most(5))),
        // Spiders with legs of length 2: height 2 from the hub, any
        // number of legs.
        |n| plain(generators::spider(((n.max(7) - 1) / 2).max(3), 2)),
    ),
    e(
        "word-no-11",
        |_, _| Box::new(WordPathScheme::new(no_11_nfa())),
        |n| {
            let alternating: Vec<usize> = (0..n)
                .map(|i| usize::from(i % 2 == 1 && i + 1 < n))
                .collect();
            (generators::path(n), Some(alternating))
        },
    ),
    e(
        "existential-triangle",
        |b, _| {
            Box::new(
                ExistentialFoScheme::new(b, &props::has_clique(3))
                    .expect("has_clique(3) is existential"),
            )
        },
        |n| plain(lollipop(n)),
    ),
    e(
        "depth2-dominating",
        |b, _| {
            Box::new(
                Depth2FoScheme::from_formula(b, &props::has_dominating_vertex())
                    .expect("has_dominating_vertex is depth-2"),
            )
        },
        |n| plain(generators::star(n)),
    ),
    e(
        "path-minor-free-4",
        |b, _| Box::new(PathMinorFreeScheme::new(b, 4)),
        |n| plain(generators::star(n)),
    ),
    e(
        "ct-minor-free-3",
        |b, _| Box::new(CtMinorFreeScheme::new(b, 3)),
        |n| plain(generators::path(n)),
    ),
    e(
        "kernel-triangle-free",
        |b, _| {
            Box::new(
                KernelMsoScheme::new(b, 3, props::triangle_free())
                    .expect("triangle-free kernelizes"),
            )
        },
        |n| plain(generators::star(n)),
    ),
    e(
        "and-acyclic-count",
        |b, n| {
            Box::new(AndScheme::new(
                AcyclicityScheme::new(b),
                VertexCountScheme::new(b, n as u64),
                16,
            ))
        },
        |n| plain(generators::path(n)),
    ),
];

/// The sixteen catalogue entries, in stable order.
pub fn entries() -> Vec<SchemeEntry> {
    ENTRIES.to_vec()
}

/// Looks up one entry by its stable id.
pub fn by_id(id: &str) -> Option<&'static SchemeEntry> {
    ENTRIES.iter().find(|e| e.id == id)
}

/// Builds a catalogued scheme by id, or `None` for an unknown id.
pub fn build(id: &str, id_bits: u32, n: usize) -> Option<Box<dyn Scheme>> {
    by_id(id).map(|e| (e.build)(id_bits, n))
}

/// The stable id strings, in catalogue order.
pub fn ids() -> Vec<&'static str> {
    ENTRIES.iter().map(|e| e.id).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::{run_scheme, Instance};
    use crate::schemes::common::id_bits_for;
    use locert_graph::IdAssignment;

    #[test]
    fn sixteen_entries_with_unique_stable_ids() {
        let all = entries();
        assert_eq!(all.len(), 16);
        let ids: BTreeSet<_> = all.iter().map(|e| e.id).collect();
        assert_eq!(ids.len(), all.len(), "duplicate scheme ids");
    }

    #[test]
    fn by_id_resolves_every_id_and_rejects_unknowns() {
        for id in ids() {
            assert!(by_id(id).is_some(), "{id} must resolve");
            assert!(build(id, 16, 8).is_some(), "{id} must build");
        }
        assert!(by_id("no-such-scheme").is_none());
        assert!(build("no-such-scheme", 16, 8).is_none());
    }

    #[test]
    fn every_family_instance_certifies_honestly() {
        for entry in entries() {
            let (g, inputs) = (entry.family)(12);
            let ids = IdAssignment::contiguous(g.num_nodes());
            let inst = match &inputs {
                Some(inp) => Instance::with_inputs(&g, &ids, inp),
                None => Instance::new(&g, &ids),
            };
            let scheme = (entry.build)(id_bits_for(&inst), g.num_nodes());
            let outcome = run_scheme(scheme.as_ref(), &inst)
                .unwrap_or_else(|e| panic!("{}: prover refused: {e:?}", entry.id));
            assert!(
                outcome.rejecting().is_empty(),
                "{}: honest run rejected at {:?}",
                entry.id,
                outcome.rejecting()
            );
        }
    }
}
