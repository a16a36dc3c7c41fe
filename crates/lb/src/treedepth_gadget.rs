//! Theorem 2.5: certifying treedepth ≤ 5 needs `Ω(log n)` bits.
//!
//! The Section 7.3 construction: each of `V_A, V_α, V_β, V_B` consists of
//! two layers of `n` vertices; `E_P` is the union of the `2n` disjoint
//! paths `(V_A^j[i], V_α^j[i], V_β^j[i], V_B^j[i])` plus an apex `u`
//! adjacent to every `V_α` vertex. Alice adds the matching `f(s_A)`
//! between `V_A^1` and `V_A^2`, Bob adds `f(s_B)` between `V_B^1` and
//! `V_B^2` (`f` = Lehmer-code unranking of permutations, so
//! `ℓ = ⌊log₂ n!⌋ = Θ(n log n)` while the interface has `r = 2n`
//! vertices: `Ω(ℓ/r) = Ω(log n)`).
//!
//! Lemma 7.3 (validated here by the exact treedepth solver and the
//! cops-and-robber engine): equal matchings give `2n` disjoint 8-cycles
//! through the apex — treedepth exactly 5; unequal matchings create a
//! cycle of length ≥ 16 — treedepth at least 6.

use crate::framework::{GadgetFamily, Partition};
use locert_graph::{Graph, GraphBuilder, IdAssignment, Ident, NodeId};

/// Unranks `rank` into a permutation of `0..n` via the Lehmer code.
///
/// # Panics
///
/// Panics if `rank >= n!` or `n!` overflows `u64` (`n ≤ 20`).
pub fn unrank_permutation(n: usize, mut rank: u64) -> Vec<usize> {
    let mut fact = vec![1u64; n + 1];
    for i in 1..=n {
        fact[i] = fact[i - 1]
            .checked_mul(i as u64)
            .expect("n! must fit in u64");
    }
    assert!(rank < fact[n], "rank out of range");
    let mut available: Vec<usize> = (0..n).collect();
    let mut perm = Vec::with_capacity(n);
    for i in (0..n).rev() {
        let f = fact[i];
        let idx = (rank / f) as usize;
        rank %= f;
        perm.push(available.remove(idx));
    }
    perm
}

/// Number of whole input bits encodable as a permutation of `0..n`
/// (`⌊log₂ n!⌋`).
pub fn matching_bits(n: usize) -> usize {
    let mut log = 0f64;
    for i in 2..=n {
        log += (i as f64).log2();
    }
    log.floor() as usize
}

/// Decodes a bit string into a permutation (matching) of `0..n`.
///
/// # Panics
///
/// Panics if `s.len() > matching_bits(n)`.
pub fn matching_from_string(n: usize, s: &[bool]) -> Vec<usize> {
    assert!(s.len() <= matching_bits(n), "string too long for n");
    let mut rank = 0u64;
    for (i, &b) in s.iter().enumerate() {
        if b {
            rank |= 1 << i;
        }
    }
    unrank_permutation(n, rank)
}

/// The vertex layout of the gadget.
#[derive(Debug, Clone, Copy)]
pub struct GadgetLayout {
    /// Matching size `n` (per layer).
    pub n: usize,
}

impl GadgetLayout {
    // Layout: for j in {0,1} (layers) and i in 0..n:
    //   V_A^j[i] = j*4n + i
    //   V_α^j[i] = j*4n + n + i
    //   V_β^j[i] = j*4n + 2n + i
    //   V_B^j[i] = j*4n + 3n + i
    // apex u = 8n.
    fn va(&self, j: usize, i: usize) -> usize {
        j * 4 * self.n + i
    }
    fn valpha(&self, j: usize, i: usize) -> usize {
        j * 4 * self.n + self.n + i
    }
    fn vbeta(&self, j: usize, i: usize) -> usize {
        j * 4 * self.n + 2 * self.n + i
    }
    fn vb(&self, j: usize, i: usize) -> usize {
        j * 4 * self.n + 3 * self.n + i
    }
    fn apex(&self) -> usize {
        8 * self.n
    }

    /// Total vertex count (`8n + 1`).
    pub fn num_nodes(&self) -> usize {
        8 * self.n + 1
    }
}

/// Builds the gadget graph from two explicit matchings (permutations of
/// `0..n`).
pub fn build_gadget(n: usize, m_a: &[usize], m_b: &[usize]) -> (Graph, Partition) {
    assert_eq!(m_a.len(), n);
    assert_eq!(m_b.len(), n);
    let lay = GadgetLayout { n };
    let mut b = GraphBuilder::new(lay.num_nodes());
    for j in 0..2 {
        for i in 0..n {
            b.add_edge(lay.va(j, i), lay.valpha(j, i)).expect("valid");
            b.add_edge(lay.valpha(j, i), lay.vbeta(j, i))
                .expect("valid");
            b.add_edge(lay.vbeta(j, i), lay.vb(j, i)).expect("valid");
            b.add_edge(lay.apex(), lay.valpha(j, i)).expect("valid");
        }
    }
    for (i, &pi) in m_a.iter().enumerate() {
        b.add_edge(lay.va(0, i), lay.va(1, pi)).expect("valid");
    }
    for (i, &pi) in m_b.iter().enumerate() {
        b.add_edge(lay.vb(0, i), lay.vb(1, pi)).expect("valid");
    }
    // The apex behaves like a V_α vertex (simulated by Alice).
    let mut v_alpha: Vec<NodeId> = (0..2)
        .flat_map(|j| (0..n).map(move |i| NodeId(lay.valpha(j, i))))
        .collect();
    v_alpha.push(NodeId(lay.apex()));
    let part = Partition {
        v_a: (0..2)
            .flat_map(|j| (0..n).map(move |i| NodeId(lay.va(j, i))))
            .collect(),
        v_alpha,
        v_beta: (0..2)
            .flat_map(|j| (0..n).map(move |i| NodeId(lay.vbeta(j, i))))
            .collect(),
        v_b: (0..2)
            .flat_map(|j| (0..n).map(move |i| NodeId(lay.vb(j, i))))
            .collect(),
    };
    (b.build(), part)
}

/// The `k > 5` extension (end of Section 7.3): subdividing the
/// `(V_A, V_α)`-corner edges lengthens every cycle, shifting the
/// treedepth threshold from 5/6 to `k`/`k+1`.
///
/// For the dichotomy to stay exactly one level wide the cycle length `L`
/// must be a power of two (`td(apex + C_L's) = ⌈log₂ L⌉ + 2` when the
/// matchings are equal, and an unequal pair merges two `L`-cycles into a
/// `2L`-cycle, adding exactly one): `L = 2^{k−2}`, realized by placing
/// `(L − 8) / 2` subdivision vertices on each `A`-corner edge (they live
/// in `V_A`, which keeps the Figure 2 edge discipline).
///
/// Returns the graph and partition.
///
/// # Panics
///
/// Panics if `k < 5`.
pub fn build_gadget_k(n: usize, m_a: &[usize], m_b: &[usize], k: usize) -> (Graph, Partition) {
    assert!(k >= 5, "the construction starts at k = 5");
    let cycle_len = 1usize << (k - 2);
    let subdiv = (cycle_len - 8) / 2; // per A-corner edge.
    if subdiv == 0 {
        return build_gadget(n, m_a, m_b);
    }
    assert_eq!(m_a.len(), n);
    assert_eq!(m_b.len(), n);
    let lay = GadgetLayout { n };
    let base = lay.num_nodes();
    // Subdivision vertices: for (j, i) the chain occupies
    // base + (j*n + i)*subdiv .. + subdiv.
    let total = base + 2 * n * subdiv;
    let mut b = GraphBuilder::new(total);
    let mut sub_vertices: Vec<NodeId> = Vec::new();
    for j in 0..2 {
        for i in 0..n {
            // A-corner: V_A^j[i] — chain — V_α^j[i].
            let mut prev = lay.va(j, i);
            for s in 0..subdiv {
                let v = base + (j * n + i) * subdiv + s;
                b.add_edge(prev, v).expect("valid");
                sub_vertices.push(NodeId(v));
                prev = v;
            }
            b.add_edge(prev, lay.valpha(j, i)).expect("valid");
            b.add_edge(lay.valpha(j, i), lay.vbeta(j, i))
                .expect("valid");
            b.add_edge(lay.vbeta(j, i), lay.vb(j, i)).expect("valid");
            b.add_edge(lay.apex(), lay.valpha(j, i)).expect("valid");
        }
    }
    for (i, &pi) in m_a.iter().enumerate() {
        b.add_edge(lay.va(0, i), lay.va(1, pi)).expect("valid");
    }
    for (i, &pi) in m_b.iter().enumerate() {
        b.add_edge(lay.vb(0, i), lay.vb(1, pi)).expect("valid");
    }
    let mut v_alpha: Vec<NodeId> = (0..2)
        .flat_map(|j| (0..n).map(move |i| NodeId(lay.valpha(j, i))))
        .collect();
    v_alpha.push(NodeId(lay.apex()));
    let mut v_a: Vec<NodeId> = (0..2)
        .flat_map(|j| (0..n).map(move |i| NodeId(lay.va(j, i))))
        .collect();
    v_a.extend(sub_vertices);
    let part = Partition {
        v_a,
        v_alpha,
        v_beta: (0..2)
            .flat_map(|j| (0..n).map(move |i| NodeId(lay.vbeta(j, i))))
            .collect(),
        v_b: (0..2)
            .flat_map(|j| (0..n).map(move |i| NodeId(lay.vb(j, i))))
            .collect(),
    };
    (b.build(), part)
}

/// The Theorem 2.5 gadget family with matching size `n`.
#[derive(Debug, Clone, Copy)]
pub struct TreedepthFamily {
    /// Matching size `n` (per layer).
    pub n: usize,
}

impl GadgetFamily for TreedepthFamily {
    fn build(&self, s_a: &[bool], s_b: &[bool]) -> (Graph, Partition, IdAssignment) {
        let m_a = matching_from_string(self.n, s_a);
        let m_b = matching_from_string(self.n, s_b);
        let (g, part) = build_gadget(self.n, &m_a, &m_b);
        // Interface identifiers 1..=r first, privates after (arbitrary).
        let r = part.interface_size();
        let mut ids = vec![Ident(0); g.num_nodes()];
        for (i, &v) in part.v_alpha.iter().chain(part.v_beta.iter()).enumerate() {
            ids[v.0] = Ident(i as u64 + 1);
        }
        let mut next = r as u64 + 1;
        for id in ids.iter_mut() {
            if id.value() == 0 {
                *id = Ident(next);
                next += 1;
            }
        }
        (g, part, IdAssignment::new(ids).expect("distinct"))
    }

    fn input_bits(&self) -> usize {
        matching_bits(self.n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use locert_treedepth::cops::cop_number;
    use locert_treedepth::treedepth_exact;

    #[test]
    fn unrank_permutation_enumerates_all() {
        let mut seen = std::collections::HashSet::new();
        for rank in 0..24 {
            let p = unrank_permutation(4, rank);
            assert_eq!(p.len(), 4);
            assert!(seen.insert(p));
        }
        assert_eq!(seen.len(), 24);
    }

    #[test]
    #[should_panic(expected = "rank out of range")]
    fn unrank_rejects_large_rank() {
        unrank_permutation(3, 6);
    }

    #[test]
    fn matching_bits_values() {
        assert_eq!(matching_bits(1), 0);
        assert_eq!(matching_bits(2), 1); // log2(2) = 1.
        assert_eq!(matching_bits(3), 2); // log2(6) ≈ 2.58.
        assert_eq!(matching_bits(4), 4); // log2(24) ≈ 4.58.
        assert_eq!(matching_bits(5), 6); // log2(120) ≈ 6.9.
    }

    #[test]
    fn gadget_shape() {
        let (g, part) = build_gadget(2, &[0, 1], &[0, 1]);
        assert_eq!(g.num_nodes(), 17);
        assert!(g.is_connected());
        assert!(part.validates(&g));
        assert_eq!(part.interface_size(), 9); // 2n α + 2n β + apex.
                                              // Apex degree = 2n.
        assert_eq!(g.degree(NodeId(16)), 4);
    }

    #[test]
    fn lemma_7_3_equal_matchings_give_treedepth_5() {
        // n = 2, identity matchings: 2 disjoint 8-cycles + apex.
        let (g, _) = build_gadget(2, &[0, 1], &[0, 1]);
        assert_eq!(treedepth_exact(&g), 5);
        assert_eq!(cop_number(&g), 5);
        // Swapped matchings on both sides are still *equal*.
        let (g2, _) = build_gadget(2, &[1, 0], &[1, 0]);
        assert_eq!(treedepth_exact(&g2), 5);
    }

    #[test]
    fn lemma_7_3_unequal_matchings_give_treedepth_6() {
        let (g, _) = build_gadget(2, &[0, 1], &[1, 0]);
        assert_eq!(treedepth_exact(&g), 6);
        assert_eq!(cop_number(&g), 6);
    }

    #[test]
    fn family_dichotomy_over_all_strings() {
        let fam = TreedepthFamily { n: 2 };
        let l = fam.input_bits();
        assert_eq!(l, 1);
        for s_a in crate::cc::all_strings(l) {
            for s_b in crate::cc::all_strings(l) {
                let (g, part, ids) = fam.build(&s_a, &s_b);
                assert!(part.validates(&g));
                assert_eq!(ids.len(), g.num_nodes());
                let td = treedepth_exact(&g);
                if s_a == s_b {
                    assert_eq!(td, 5);
                } else {
                    assert!(td >= 6);
                }
            }
        }
    }

    #[test]
    fn extended_gadget_k5_equals_base() {
        let (a, _) = build_gadget_k(2, &[0, 1], &[1, 0], 5);
        let (b, _) = build_gadget(2, &[0, 1], &[1, 0]);
        assert_eq!(a, b);
    }

    #[test]
    fn extended_gadget_k6_dichotomy() {
        // k = 6: cycles of length 16; the exact solver is out of reach at
        // 33 vertices, so validate structurally: (a) the partition and
        // connectivity, (b) cycle lengths without the apex (16 vs 32),
        // (c) the closed-form treedepth of "apex over disjoint cycles":
        // 1 + td(C_L) = 1 + ⌈log₂ L⌉ + 1.
        use locert_graph::minors::has_cycle_at_least;
        use locert_graph::NodeId;
        for (m_b, equal) in [(vec![0usize, 1], true), (vec![1usize, 0], false)] {
            let (g, part) = build_gadget_k(2, &[0, 1], &m_b, 6);
            assert!(g.is_connected());
            assert!(part.validates(&g));
            assert_eq!(g.num_nodes(), 17 + 4 * 4);
            // Remove the apex: 2-regular remainder (32 vertices — beyond
            // the exact-circumference limit, so probe with the bounded
            // cycle search).
            let apex = NodeId(16);
            let keep: Vec<NodeId> = g.nodes().filter(|&v| v != apex).collect();
            let (rest, _) = g.induced_subgraph(&keep);
            assert!(rest.nodes().all(|v| rest.degree(v) == 2));
            let circ = if has_cycle_at_least(&rest, 32, 32) {
                32
            } else if has_cycle_at_least(&rest, 16, 16) && !has_cycle_at_least(&rest, 17, 32) {
                16
            } else {
                panic!("unexpected cycle structure");
            };
            if equal {
                assert_eq!(circ, 16);
                // td = ⌈log₂ 16⌉ + 2 = 6 by the closed form; spot-check
                // the upper bound with a hand model: apex root, then the
                // optimal cycle models below. (The matching lower bound
                // is Lemma 7.3's cops argument, exercised exactly at
                // k = 5 where the solver fits.)
                use locert_treedepth::bounds::treedepth_of_cycle;
                assert_eq!(1 + treedepth_of_cycle(16), 6);
            } else {
                assert_eq!(circ, 32);
                use locert_treedepth::bounds::treedepth_of_cycle;
                assert_eq!(1 + treedepth_of_cycle(32), 7);
            }
        }
    }

    #[test]
    fn figure3_cycle_structure() {
        // Without the apex, equal matchings yield disjoint 8-cycles.
        let (g, _) = build_gadget(2, &[0, 1], &[0, 1]);
        let lay = GadgetLayout { n: 2 };
        let keep: Vec<NodeId> = (0..lay.num_nodes() - 1).map(NodeId).collect();
        let (no_apex, _) = g.induced_subgraph(&keep);
        // 2-regular → disjoint cycles.
        assert!(no_apex.nodes().all(|v| no_apex.degree(v) == 2));
        use locert_graph::minors::circumference_exact;
        assert_eq!(circumference_exact(&no_apex), 8);
        // Unequal matchings: a 16-cycle appears.
        let (g2, _) = build_gadget(2, &[0, 1], &[1, 0]);
        let (no_apex2, _) = g2.induced_subgraph(&keep);
        assert_eq!(circumference_exact(&no_apex2), 16);
    }
}
