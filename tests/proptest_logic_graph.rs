//! Property-based tests for the logic stack (parser/printer round-trips,
//! evaluator laws) and graph algorithms (biconnectivity, minors, induced
//! subgraphs and radius-`r` ball views against an adjacency-set model).

use locert::cert::bits::BitWriter;
use locert::cert::framework::{Assignment, Instance};
use locert::cert::radius::BallScratch;
use locert::graph::bcc::biconnected_components;
use locert::graph::{generators, traversal, Graph, IdAssignment, NodeId};
use locert::logic::ast::{self, Formula, SetVar, Var};
use locert::logic::parser::parse;
use locert::logic::{eval, Formula as F};
use proptest::prelude::*;

/// A recursive proptest strategy over FO/MSO formulas (small variable
/// pools so sentences stay evaluable).
fn formula_strategy() -> impl Strategy<Value = Formula> {
    let var = (0u32..3).prop_map(Var);
    let setvar = (0u32..2).prop_map(SetVar);
    let leaf = prop_oneof![
        Just(Formula::True),
        Just(Formula::False),
        (var.clone(), var.clone()).prop_map(|(x, y)| ast::eq(x, y)),
        (var.clone(), var.clone()).prop_map(|(x, y)| ast::adj(x, y)),
        (var.clone(), setvar.clone()).prop_map(|(x, s)| ast::mem(x, s)),
    ];
    leaf.prop_recursive(4, 24, 3, move |inner| {
        let var = (0u32..3).prop_map(Var);
        let setvar = (0u32..2).prop_map(SetVar);
        prop_oneof![
            inner.clone().prop_map(ast::not),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| ast::and(a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| ast::or(a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| ast::implies(a, b)),
            (var.clone(), inner.clone()).prop_map(|(x, f)| ast::forall(x, f)),
            (var, inner.clone()).prop_map(|(x, f)| ast::exists(x, f)),
            (setvar.clone(), inner.clone()).prop_map(|(s, f)| ast::forall_set(s, f)),
            (setvar, inner).prop_map(|(s, f)| ast::exists_set(s, f)),
        ]
    })
}

/// Closes a formula by quantifying all free variables universally.
fn close(f: Formula) -> Formula {
    let mut g = f;
    for v in g.free_vars() {
        g = ast::forall(v, g);
    }
    for s in g.free_set_vars() {
        g = ast::forall_set(s, g);
    }
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Printer → parser round-trip is the identity on the AST.
    #[test]
    fn parse_display_roundtrip(f in formula_strategy()) {
        let printed = f.to_string();
        let reparsed = parse(&printed)
            .unwrap_or_else(|e| panic!("failed to reparse `{printed}`: {e}"));
        prop_assert_eq!(reparsed, f);
    }

    /// De Morgan / double negation at the semantic level: ¬¬φ ≡ φ and
    /// ¬(a ∧ b) ≡ ¬a ∨ ¬b, on a fixed small graph.
    #[test]
    fn evaluator_boolean_laws(f in formula_strategy(), g_pick in 0usize..3) {
        let graphs = [
            generators::path(4),
            generators::cycle(4),
            generators::star(4),
        ];
        let g = &graphs[g_pick];
        let phi = close(f);
        let double_neg = ast::not(ast::not(phi.clone()));
        prop_assert_eq!(eval::models(g, &phi), eval::models(g, &double_neg));
    }

    /// Conjunction evaluates pointwise.
    #[test]
    fn evaluator_conjunction(a in formula_strategy(), b in formula_strategy()) {
        let g = generators::path(3);
        let pa = close(a);
        let pb = close(b);
        let both = ast::and(pa.clone(), pb.clone());
        prop_assert_eq!(
            eval::models(&g, &both),
            eval::models(&g, &pa) && eval::models(&g, &pb)
        );
    }

    /// BCC: component edge sets partition the edges, and the reported cut
    /// vertices are exactly those whose removal disconnects their
    /// component.
    #[test]
    fn bcc_invariants(n in 3usize..10, extra in 0usize..8, seed in 0u64..300) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let g = generators::random_connected(n, extra, &mut rng);
        let d = biconnected_components(&g);
        // Partition check.
        let mut seen = std::collections::BTreeSet::new();
        for comp in &d.components {
            for &(u, v) in comp {
                let key = (u.0.min(v.0), u.0.max(v.0));
                prop_assert!(seen.insert(key), "edge {key:?} in two components");
            }
        }
        prop_assert_eq!(seen.len(), g.num_edges());
        // Cut-vertex check against the naive definition.
        for v in g.nodes() {
            let rest: Vec<NodeId> = g.nodes().filter(|&u| u != v).collect();
            let (sub, _) = g.induced_subgraph(&rest);
            let naive_cut = !rest.is_empty() && !traversal::is_connected(&sub);
            prop_assert_eq!(
                d.cut_vertices.contains(&v),
                naive_cut,
                "cut status of {} on {:?}", v, &g
            );
        }
    }

    /// Longest-path search: the bounded search agrees with the exhaustive
    /// one on random graphs, and both are monotone in t.
    #[test]
    fn path_search_consistency(n in 2usize..9, extra in 0usize..6, seed in 0u64..300) {
        use locert::graph::minors;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let g = generators::random_connected(n, extra, &mut rng);
        let lp = minors::longest_path_exact(&g);
        for t in 1..=n + 1 {
            prop_assert_eq!(minors::has_path_of_order(&g, t), t <= lp);
        }
    }

    /// Cycle search: has_cycle_at_least matches the circumference.
    #[test]
    fn cycle_search_consistency(n in 3usize..9, extra in 1usize..6, seed in 0u64..300) {
        use locert::graph::minors;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let g = generators::random_connected(n, extra, &mut rng);
        let circ = minors::circumference_exact(&g);
        for lo in 3..=n {
            prop_assert_eq!(
                minors::has_cycle_at_least(&g, lo, n),
                circ >= lo,
                "lo = {}, circ = {}, g = {:?}", lo, circ, &g
            );
        }
    }
}

/// Non-proptest sanity: the formula strategy covers MSO (membership) and
/// deep nesting — guard against silent strategy degeneration.
#[test]
fn strategy_produces_interesting_formulas() {
    use proptest::strategy::ValueTree;
    use proptest::test_runner::TestRunner;
    let mut runner = TestRunner::deterministic();
    let strat = formula_strategy();
    let mut saw_set = false;
    let mut saw_quant = false;
    for _ in 0..200 {
        let f = strat.new_tree(&mut runner).unwrap().current();
        let s = f.to_string();
        if s.contains('∈') {
            saw_set = true;
        }
        if s.contains('∀') || s.contains('∃') {
            saw_quant = true;
        }
    }
    assert!(saw_set, "strategy never produced membership atoms");
    assert!(saw_quant, "strategy never produced quantifiers");
}

/// Keep the F alias used (the facade re-export is part of the public API).
#[test]
fn facade_reexports() {
    let _f: F = Formula::True;
    let g: Graph = generators::path(2);
    assert_eq!(g.num_edges(), 1);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The parser never panics on arbitrary input (it returns errors).
    #[test]
    fn parser_total_on_garbage(s in "\\PC{0,40}") {
        let _ = parse(&s);
    }

    /// …including inputs built from the grammar's own token vocabulary.
    #[test]
    fn parser_total_on_token_soup(parts in prop::collection::vec(
        prop_oneof![
            Just("forall"), Just("exists"), Just("x0"), Just("X1"),
            Just("("), Just(")"), Just("."), Just("="), Just("~"),
            Just("in"), Just("&"), Just("|"), Just("->"), Just("!"),
            Just("true"), Just("false"),
        ], 0..16)) {
        let s = parts.join(" ");
        let _ = parse(&s);
    }
}

/// A graph on `n` vertices from raw endpoint pairs taken mod `n`: loops
/// dropped, duplicates kept (the constructor merges them), possibly
/// disconnected.
fn graph_from_pairs(n: usize, pairs: &[(usize, usize)]) -> Graph {
    let edges = pairs
        .iter()
        .map(|&(u, v)| (u % n, v % n))
        .filter(|&(u, v)| u != v);
    Graph::from_edges(n, edges).expect("endpoints reduced mod n")
}

/// The reference model: one adjacency set per vertex.
fn adjacency_sets(g: &Graph) -> Vec<std::collections::BTreeSet<usize>> {
    let mut sets = vec![std::collections::BTreeSet::new(); g.num_nodes()];
    for (u, v) in g.edges() {
        sets[u.0].insert(v.0);
        sets[v.0].insert(u.0);
    }
    sets
}

/// The subgraph the model induces on sorted distinct `members`, as one
/// sorted row of new indices per member.
fn model_induced(sets: &[std::collections::BTreeSet<usize>], members: &[usize]) -> Vec<Vec<usize>> {
    members
        .iter()
        .map(|&m| {
            (0..members.len())
                .filter(|&j| sets[m].contains(&members[j]))
                .collect()
        })
        .collect()
}

fn rows(g: &Graph) -> Vec<Vec<usize>> {
    g.nodes()
        .map(|u| g.neighbors(u).iter().map(|w| w.0).collect())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `induced_subgraph` on unsorted keep lists with repeats matches the
    /// adjacency-set model: members sorted and distinct, rows and edge
    /// count as the model induces them.
    #[test]
    fn induced_subgraph_matches_set_model(
        n in 1usize..14,
        pairs in prop::collection::vec((0usize..14, 0usize..14), 0..40),
        keep in prop::collection::vec(0usize..14, 0..24),
    ) {
        let g = graph_from_pairs(n, &pairs);
        let sets = adjacency_sets(&g);
        let keep: Vec<NodeId> = keep.iter().map(|&k| NodeId(k % n)).collect();
        let (h, old_of_new) = g.induced_subgraph(&keep);
        let mut members: Vec<usize> = keep.iter().map(|k| k.0).collect();
        members.sort_unstable();
        members.dedup();
        prop_assert_eq!(old_of_new.iter().map(|m| m.0).collect::<Vec<_>>(), members.clone());
        let expected = model_induced(&sets, &members);
        prop_assert_eq!(h.num_edges(), expected.iter().map(Vec::len).sum::<usize>() / 2);
        prop_assert_eq!(rows(&h), expected);
    }

    /// Radius-`r` ball views for r = 1..3 match a plain BFS over the
    /// model: members in host order with their identifiers, certificates
    /// and distances, the depth, the center's position, and the induced
    /// ball edges.
    #[test]
    fn ball_view_matches_plain_bfs(
        n in 1usize..14,
        pairs in prop::collection::vec((0usize..14, 0usize..14), 0..40),
        center in 0usize..14,
        seed in 0u64..1000,
    ) {
        check_ball_views(&graph_from_pairs(n, &pairs), center, seed)?;
    }

    /// The same on hosts of 65 to 300 vertices, where rows of degree
    /// below ⌈n/64⌉ stay lists: random sparse edges plus up to three
    /// hubs, each joined to a run of consecutive vertices, so levels are
    /// expanded from lists and from hub rows.
    #[test]
    fn ball_view_matches_plain_bfs_on_larger_hosts(
        n in 65usize..300,
        pairs in prop::collection::vec((0usize..300, 0usize..300), 0..400),
        hubs in prop::collection::vec((0usize..300, 0usize..300, 8usize..200), 0..4),
        center in 0usize..300,
        seed in 0u64..1000,
    ) {
        let mut pairs = pairs;
        for &(hub, start, len) in &hubs {
            pairs.extend((start..start + len).map(|k| (hub, k)));
        }
        check_ball_views(&graph_from_pairs(n, &pairs), center, seed)?;
    }
}

/// Holds the view of `center % n` at r = 1..3 to a plain BFS over the
/// adjacency-set model of `g`.
fn check_ball_views(g: &Graph, center: usize, seed: u64) -> Result<(), String> {
    use rand::SeedableRng;
    let n = g.num_nodes();
    let sets = adjacency_sets(g);
    let ids = IdAssignment::shuffled(n, &mut rand::rngs::StdRng::seed_from_u64(seed));
    let inst = Instance::new(g, &ids);
    // Every vertex's certificate is its own index, so a mix-up shows.
    let asg = Assignment::new(
        (0..n)
            .map(|v| {
                let mut w = BitWriter::new();
                w.write(v as u64, 9);
                w.finish()
            })
            .collect::<Vec<_>>(),
    );
    let center = center % n;
    let mut scratch = BallScratch::new(&inst, &asg);
    for r in 1..=3 {
        let mut dist = vec![usize::MAX; n];
        dist[center] = 0;
        let mut queue = std::collections::VecDeque::from([center]);
        while let Some(u) = queue.pop_front() {
            for &w in &sets[u] {
                if dist[w] == usize::MAX {
                    dist[w] = dist[u] + 1;
                    queue.push_back(w);
                }
            }
        }
        let members: Vec<usize> = (0..n).filter(|&m| dist[m] <= r).collect();
        let view = scratch.view(NodeId(center), r);
        prop_assert_eq!(Some(view.depth()), members.iter().map(|&m| dist[m]).max());
        let k = view.members().len();
        prop_assert_eq!(
            view.members().iter().map(|m| m.0).collect::<Vec<_>>(),
            members.clone()
        );
        prop_assert_eq!(members.get(view.center()), Some(&center));
        prop_assert_eq!(
            (0..k).map(|i| view.id(i)).collect::<Vec<_>>(),
            members
                .iter()
                .map(|&m| ids.ident(NodeId(m)))
                .collect::<Vec<_>>()
        );
        prop_assert_eq!(
            view.dist().to_vec(),
            members.iter().map(|&m| dist[m]).collect::<Vec<_>>()
        );
        prop_assert_eq!(
            (0..k).map(|i| view.cert(i).clone()).collect::<Vec<_>>(),
            members
                .iter()
                .map(|&m| asg.cert(NodeId(m)).clone())
                .collect::<Vec<_>>()
        );
        prop_assert_eq!(
            (0..k).map(|i| view.input(i)).collect::<Vec<_>>(),
            vec![0; members.len()]
        );
        prop_assert_eq!(rows(view.ball()), model_induced(&sets, &members));
    }
    Ok(())
}
