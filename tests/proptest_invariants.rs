//! Property-based tests (proptest) on the core data structures and
//! invariants.

use locert::cert::bits::{BitReader, BitWriter};
use locert::cert::schemes::common::id_bits_for;
use locert::cert::schemes::spanning_tree::SpanningTreeScheme;
use locert::cert::schemes::treedepth::{ModelStrategy, TdCert, TreedepthScheme};
use locert::cert::{run_scheme, Instance};
use locert::graph::canon::{tree_isomorphic, unrooted_code};
use locert::graph::{generators, Graph, IdAssignment, Ident, NodeId};
use locert::kernel::k_reduce;
use locert::treedepth::EliminationTree;
use proptest::prelude::*;

proptest! {
    /// Bit writer/reader round-trip for arbitrary field sequences.
    #[test]
    fn bits_roundtrip(fields in prop::collection::vec((0u64..u64::MAX, 1u32..=64), 0..20)) {
        let mut w = BitWriter::new();
        let mut expected = Vec::new();
        for &(value, width) in &fields {
            let masked = if width == 64 { value } else { value & ((1u64 << width) - 1) };
            w.write(masked, width);
            expected.push((masked, width));
        }
        let cert = w.finish();
        prop_assert_eq!(
            cert.len_bits(),
            fields.iter().map(|&(_, w)| w as usize).sum::<usize>()
        );
        let mut r = BitReader::new(&cert);
        for (value, width) in expected {
            prop_assert_eq!(r.read(width), Some(value));
        }
        prop_assert!(r.exhausted());
    }

    /// Prüfer decoding always yields a tree, and uniformly covers degree
    /// profiles: degree(v) = 1 + multiplicity of v in the sequence.
    #[test]
    fn prufer_degrees(seq in prop::collection::vec(0usize..8, 6)) {
        let n = 8;
        let g = generators::tree_from_prufer(n, &seq);
        prop_assert!(g.is_tree());
        for v in 0..n {
            let mult = seq.iter().filter(|&&x| x == v).count();
            prop_assert_eq!(g.degree(NodeId(v)), 1 + mult);
        }
    }

    /// AHU canonical codes are invariant under relabeling, and two trees
    /// with different degree multisets never collide.
    #[test]
    fn canonical_code_relabel_invariant(seq in prop::collection::vec(0usize..7, 5), perm_seed in 0u64..1000) {
        let n = 7;
        let g = generators::tree_from_prufer(n, &seq);
        // Relabel with a seeded permutation.
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(perm_seed);
        let mut perm: Vec<usize> = (0..n).collect();
        perm.shuffle(&mut rng);
        let h = Graph::from_edges(n, g.edges().map(|(u, v)| (perm[u.0], perm[v.0]))).unwrap();
        prop_assert_eq!(tree_isomorphic(&g, &h), Some(true));
        prop_assert_eq!(unrooted_code(&g), unrooted_code(&h));
    }

    /// The bounded-treedepth generator always produces a valid model, and
    /// the k-reduction keeps a connected kernel containing the root.
    #[test]
    fn generator_witness_valid(n in 2usize..40, t in 2usize..5, k in 1usize..4, seed in 0u64..500) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let (g, parents) = generators::random_bounded_treedepth(n, t, 0.4, &mut rng);
        let model = EliminationTree::new(&g, &parents).expect("witness is a model");
        prop_assert!(model.height() <= t);
        let coherent = model.make_coherent(&g);
        prop_assert!(coherent.is_coherent(&g));
        let red = k_reduce(&g, &coherent, k);
        prop_assert!(red.kept[coherent.root().0]);
        prop_assert!(red.kernel_size() >= 1);
        prop_assert!(red.kernel_size() <= n);
    }

    /// Spanning-tree certification is complete on arbitrary connected
    /// graphs with arbitrary identifier spreads.
    #[test]
    fn spanning_tree_complete(n in 1usize..30, extra in 0usize..20, seed in 0u64..500) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let g = generators::random_connected(n, extra, &mut rng);
        let ids = IdAssignment::random_polynomial(n, 2, &mut rng);
        let inst = Instance::new(&g, &ids);
        let scheme = SpanningTreeScheme::new(id_bits_for(&inst));
        let out = run_scheme(&scheme, &inst).expect("connected");
        prop_assert!(out.accepted());
        prop_assert!(out.max_bits() <= 3 * id_bits_for(&inst) as usize);
    }

    /// Treedepth certification is complete whenever the witness is valid,
    /// and its size obeys the O(t log n) budget.
    #[test]
    fn treedepth_complete_with_witness(n in 2usize..40, t in 2usize..5, seed in 0u64..200) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let (g, parents) = generators::random_bounded_treedepth(n, t, 0.3, &mut rng);
        let ids = IdAssignment::shuffled(n, &mut rng);
        let inst = Instance::new(&g, &ids);
        let b = id_bits_for(&inst);
        let scheme = TreedepthScheme::new(b, t)
            .with_strategy(ModelStrategy::Explicit(parents));
        let out = run_scheme(&scheme, &inst).expect("witnessed");
        prop_assert!(out.accepted());
        // Budget: length header + t ids + (t−1) tree entries of 2 ids.
        let budget = 8 + (t * b as usize) + (t - 1) * 2 * b as usize;
        prop_assert!(out.max_bits() <= budget, "bits {} > budget {budget}", out.max_bits());
    }

    /// TdCert serialization round-trips for arbitrary ancestor lists.
    #[test]
    fn tdcert_roundtrip(len in 1usize..6, seed in 0u64..1000) {
        use rand::{RngExt, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let t = 8;
        let id_bits = 10;
        let ancestors: Vec<Ident> = (0..len).map(|_| Ident(rng.random_range(1..1000u64))).collect();
        let trees: Vec<(Ident, u64)> = (0..len - 1)
            .map(|_| (Ident(rng.random_range(1..1000u64)), rng.random_range(0..1000u64)))
            .collect();
        let cert = TdCert::new(&ancestors, &trees);
        let mut w = BitWriter::new();
        cert.write(&mut w, id_bits, t);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        let parsed = TdCert::read(&mut r, id_bits, t).expect("parses");
        prop_assert_eq!(parsed, cert);
        prop_assert!(r.exhausted());
    }

    /// Tree-automaton guard evaluation is monotone for AtLeast and
    /// antitone for AtMost in every count coordinate.
    #[test]
    fn guard_monotonicity(counts in prop::collection::vec(0usize..6, 3), state in 0usize..3, c in 0usize..5) {
        use locert::automata::trees::{CountAtom, Guard};
        let atom = CountAtom { states: 1 << state, count: c };
        let at_least = Guard::AtLeast(atom);
        let at_most = Guard::AtMost(atom);
        let mut bumped = counts.clone();
        bumped[state] += 1;
        if at_least.eval(&counts) {
            prop_assert!(at_least.eval(&bumped));
        }
        if at_most.eval(&bumped) {
            prop_assert!(at_most.eval(&counts));
        }
    }

    /// Tree enumeration counts match the closed-form counting for random
    /// parameters (exhaustive agreement is in the unit tests; this pins
    /// the u128 and f64 counters against each other).
    #[test]
    fn tree_counting_consistency(n in 1usize..14, d in 0usize..5) {
        use locert::graph::enumerate::{count_trees, count_trees_log2};
        let exact = count_trees(n, d).expect("no overflow at this size");
        let log = count_trees_log2(n, d);
        if exact == 0 {
            prop_assert!(log.is_infinite() && log < 0.0);
        } else {
            prop_assert!((log - (exact as f64).log2()).abs() < 1e-6);
        }
    }
}
