//! The shared sixteen-scheme catalogue: one stable id string per scheme
//! family in the workspace, with a constructor and a canonical growing
//! instance family.
//!
//! Every consumer of schemes reads its entries here, so a new scheme
//! family lands everywhere by adding one [`SchemeEntry`]. The id strings
//! are wire-stable: journals, tables, repro files, and serve requests all
//! key on them.
//!
//! An id is resolved to its `&'static SchemeEntry` once, where it enters
//! the process: the `locert` CLI ([`resolve`]), `locert-serve`'s request
//! admission and `loadgen --schemes` ([`by_id`]). Past that point code
//! holds the entry, not the string. Consumers with no outside id walk
//! [`entries`] and hold what they read: the `boundcheck`/`experiments`
//! bound sweeps and the `netstorm` campaign take every entry in order,
//! and the `diffhunt` oracle takes the `build` of the nine entries it
//! has a ground truth for.
//!
//! Consumers choose their own instances: [`SchemeEntry::family`] is the
//! canonical *growing* family used by the certificate-size sweeps and
//! `loadgen`, `locert-net` pairs nine of the schemes with small fixed
//! yes-instances instead, and `locert-serve` certifies whatever graph
//! the request carries.
//!
//! Six entries are named members of parametric families: their ids end
//! in `-<k>` and they carry a [`Param`] record. [`resolve`] reads a spec
//! such as `treedepth-7` as the `treedepth` family at `k = 7`, checked
//! against the record's range; an exact id always wins, so `word-no-11`
//! is never split. [`by_id`] and [`build`] stay exact-match: the daemon
//! and the journals only ever see the sixteen named ids.

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
use std::fmt;

/// Identifier field width used by every catalogued scheme. Wide enough
/// for shuffled identifier assignments on every family graph.
pub const ID_BITS: u32 = 16;

/// One catalogued scheme family.
#[derive(Debug, Clone, Copy)]
pub struct SchemeEntry {
    /// Stable scheme id (wire format, journals, and tables key on it).
    pub id: &'static str,
    /// Builds the scheme for identifier width `id_bits` at instance
    /// size `n` (most families ignore `n`; counting schemes bind it).
    pub build: fn(u32, usize) -> Box<dyn Scheme>,
    /// The canonical growing yes-instance family: graph plus optional
    /// vertex inputs (word letters), as swept by the bound observatory.
    pub family: fn(usize) -> (Graph, Option<Vec<usize>>),
    /// The family parameter, for entries whose id ends in `-<k>`.
    pub param: Option<Param>,
}

/// The parameter record of a parametric family: the id stem, the valid
/// range of `k` (DESIGN.md §2.1), and the constructor at any `k` in it.
/// The entry's own `build` is `make` at the `k` in its id (`family!`).
#[derive(Debug, Clone, Copy)]
pub struct Param {
    /// The id without its `-<k>` suffix (`treedepth` for `treedepth-3`).
    pub stem: &'static str,
    /// Smallest valid `k`.
    pub min: usize,
    /// Largest valid `k`.
    pub max: usize,
    /// Builds the family member at `(id_bits, n, k)`.
    pub make: fn(u32, usize, usize) -> Box<dyn Scheme>,
}

/// A scheme spec resolved against the catalogue: an entry, plus the `k`
/// when the spec names another member of the entry's family.
#[derive(Clone, Copy)]
pub struct Spec {
    /// The matched entry.
    pub entry: &'static SchemeEntry,
    k: Option<usize>,
}

impl Spec {
    /// Builds the scheme for identifier width `id_bits` at instance size
    /// `n`.
    pub fn build(&self, id_bits: u32, n: usize) -> Box<dyn Scheme> {
        match (self.entry.param, self.k) {
            (Some(param), Some(k)) => (param.make)(id_bits, n, k),
            _ => (self.entry.build)(id_bits, n),
        }
    }
}

/// Why a spec does not resolve.
#[derive(Debug)]
pub enum SpecError {
    /// Neither a catalogue id nor `<stem>-<k>` of a parametric family.
    Unknown(String),
    /// A parametric family's spec whose `k` is not an integer in range.
    OutOfRange(String, Param),
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::Unknown(spec) => write!(f, "unknown scheme `{spec}`"),
            SpecError::OutOfRange(spec, p) => {
                write!(
                    f,
                    "`{spec}`: {}-<k> needs k in {}..={}",
                    p.stem, p.min, p.max
                )
            }
        }
    }
}

impl std::error::Error for SpecError {}

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
    SchemeEntry {
        id,
        build,
        family,
        param: None,
    }
}

/// A parametric entry named `<stem>-<k>` over `min..=max`: the id and
/// `build` both come from the one literal `k`, so they cannot disagree.
macro_rules! family {
    ($stem:literal, $k:literal, $min:expr, $max:expr, $make:path, $family:expr) => {
        SchemeEntry {
            id: concat!($stem, "-", $k),
            build: |b, n| $make(b, n, $k),
            family: $family,
            param: Some(Param {
                stem: $stem,
                min: $min,
                max: $max,
                make: $make,
            }),
        }
    };
}

/// Largest `P_t` order: the formula recursion of `t = 512` overflows an
/// 8 MiB main-thread stack, and `t = 256` a 2 MiB spawned-thread stack.
const PATH_MINOR_FREE_MAX: usize = 128;

/// Largest `C_t` order: construction grows about as `t^6` (`t²`-vertex
/// kernels); `t = 14` takes 0.8 s and 122 MB, `t = 18` 5.4 s and 535 MB.
const CT_MINOR_FREE_MAX: usize = 14;

fn tree_diameter(b: u32, _: usize, d: usize) -> Box<dyn Scheme> {
    Box::new(TreeDiameterScheme::new(b, d as u64))
}

fn treedepth(b: u32, _: usize, t: usize) -> Box<dyn Scheme> {
    Box::new(TreedepthScheme::new(b, t))
}

fn tree_depth_bound(_: u32, _: usize, k: usize) -> Box<dyn Scheme> {
    Box::new(TreeDepthBoundScheme::new(k))
}

fn mso_height(_: u32, _: usize, c: usize) -> Box<dyn Scheme> {
    Box::new(MsoTreeScheme::new(library::height_at_most(c)))
}

fn path_minor_free(b: u32, _: usize, t: usize) -> Box<dyn Scheme> {
    Box::new(PathMinorFreeScheme::new(b, t))
}

/// The `ct-minor-free` entry's scheme. It has an open soundness hole:
/// it is sound only when the claimed blocks are the true biconnected
/// components, since its verifier checks only that adjacent vertices
/// share exactly one claimed block. A forged assignment listing every
/// edge as its own block is accepted on `cycle(17)`, which has a `C₃`
/// and a `C₄` minor. The fix is ROADMAP item 1.
fn ct_minor_free(b: u32, _: usize, t: usize) -> Box<dyn Scheme> {
    Box::new(CtMinorFreeScheme::new(b, t))
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
    family!("tree-diameter", 3, 0, usize::MAX, tree_diameter, |n| plain(
        generators::star(n)
    )),
    family!("treedepth", 3, 1, u32::MAX as usize, treedepth, |n| plain(
        generators::star(n)
    )),
    family!(
        "tree-depth-bound",
        2,
        0,
        usize::MAX,
        tree_depth_bound,
        |n| plain(generators::star(n))
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
    // Spiders with legs of length 2: height 2 from the hub, any number
    // of legs.
    family!("mso-height", 5, 1, 63, mso_height, |n| plain(
        generators::spider(((n.max(7) - 1) / 2).max(3), 2)
    )),
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
    family!(
        "path-minor-free",
        4,
        2,
        PATH_MINOR_FREE_MAX,
        path_minor_free,
        |n| plain(generators::star(n))
    ),
    // Sound only on true block decompositions (see `ct_minor_free`).
    family!(
        "ct-minor-free",
        3,
        3,
        CT_MINOR_FREE_MAX,
        ct_minor_free,
        |n| plain(generators::path(n))
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

/// Resolves a scheme spec: an exact catalogue id, else `<stem>-<k>` of
/// a parametric family with `k` in its range.
///
/// # Errors
///
/// [`SpecError::Unknown`] when no entry matches, and
/// [`SpecError::OutOfRange`] when a family matches but `k` is not an
/// integer in its range.
pub fn resolve(spec: &str) -> Result<Spec, SpecError> {
    if let Some(entry) = by_id(spec) {
        return Ok(Spec { entry, k: None });
    }
    let unknown = || SpecError::Unknown(spec.to_string());
    let (stem, k) = spec.rsplit_once('-').ok_or_else(unknown)?;
    let (entry, param) = ENTRIES
        .iter()
        .find_map(|e| e.param.filter(|p| p.stem == stem).map(|p| (e, p)))
        .ok_or_else(unknown)?;
    match k.parse::<usize>() {
        Ok(k) if (param.min..=param.max).contains(&k) => Ok(Spec { entry, k: Some(k) }),
        _ => Err(SpecError::OutOfRange(spec.to_string(), param)),
    }
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
    fn parametric_ids_match_their_records() {
        let parametric: Vec<_> = ENTRIES.iter().filter(|e| e.param.is_some()).collect();
        assert_eq!(parametric.len(), 6);
        for entry in parametric {
            let param = entry.param.unwrap();
            let k: usize = entry.id[param.stem.len() + 1..].parse().unwrap();
            assert_eq!(entry.id, format!("{}-{k}", param.stem));
            assert!((param.min..=param.max).contains(&k), "{}", entry.id);
            assert_eq!(
                (entry.build)(16, 8).name(),
                (param.make)(16, 8, k).name(),
                "{}",
                entry.id
            );
        }
    }

    #[test]
    fn resolve_prefers_exact_ids_and_checks_ranges() {
        for id in ids() {
            let spec = resolve(id).unwrap();
            assert_eq!(spec.entry.id, id);
            assert_eq!(spec.build(16, 8).name(), build(id, 16, 8).unwrap().name());
        }
        let td5 = resolve("treedepth-5").unwrap();
        assert_eq!(td5.entry.id, "treedepth-3");
        assert_eq!(td5.build(16, 8).name(), "treedepth<= 5");
        assert!(by_id("treedepth-5").is_none(), "by_id stays exact");
        for spec in ["word-no-12", "no-such-scheme", "acyclicity-3", "treedepth"] {
            assert!(matches!(resolve(spec), Err(SpecError::Unknown(s)) if s == spec));
        }
        for spec in [
            "path-minor-free-1",
            "ct-minor-free-2",
            "ct-minor-free-15",
            "mso-height-0",
            "mso-height-64",
            "treedepth-0",
            "treedepth-x",
        ] {
            assert!(
                matches!(resolve(spec), Err(SpecError::OutOfRange(..))),
                "{spec}"
            );
        }
    }

    #[test]
    fn lollipop_has_a_triangle_and_a_tail() {
        let g = lollipop(8);
        assert_eq!(g.num_nodes(), 8);
        assert_eq!(g.num_edges(), 8); // 3 triangle edges + 5 tail edges.
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
