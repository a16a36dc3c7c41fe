//! Content digests of graphs — the cache key of the serving layer.
//!
//! [`digest`] hashes the *canonical* edge list (vertex count, then every
//! edge `(u, v)` with `u < v` in lexicographic order) with 64-bit
//! FNV-1a, so any presentation of the same labeled graph — shuffled
//! edge lines, flipped endpoints, comments, redundant headers — hashes
//! identically. [`Graph`] normalizes on construction, which makes the
//! canonical order free; the digest is a pure fold over it. Every
//! number is folded as its eight little-endian bytes, but a zero byte
//! only multiplies the state by the FNV prime (`h ^ 0 == h`), so the
//! zero high bytes of a small index fold as one multiply by a power of
//! the prime: the same value for a fraction of the work.
//!
//! The digest is labeled-graph identity, not isomorphism: relabeling
//! *vertices* produces a different adjacency and a different digest
//! (deliberately — certificates name vertices, so a cache keyed on
//! isomorphism classes would serve wrong blobs). Relabeling network
//! *identifiers* leaves the graph, and hence the digest, untouched.
//!
//! [`digest_instance`] extends the key with the optional per-vertex
//! input word, for schemes whose certificates depend on it.

use crate::graph::Graph;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds one byte slice into a running FNV-1a state.
fn fold(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// `FNV_PRIME^k` for `k` in `0..=8`.
const PRIME_POW: [u64; 9] = {
    let mut pow = [1u64; 9];
    let mut k = 1;
    while k < 9 {
        pow[k] = pow[k - 1].wrapping_mul(FNV_PRIME);
        k += 1;
    }
    pow
};

/// Folds the eight little-endian bytes of `x`, exactly as
/// `fold(h, &(x as u64).to_le_bytes())` does: the significant low bytes
/// one at a time, then each zero high byte, which only multiplies by
/// `FNV_PRIME`, as one multiply by the matching power.
fn fold_usize(mut h: u64, x: usize) -> u64 {
    let mut x = x as u64;
    let zero_high = (x.leading_zeros() / 8) as usize;
    for _ in zero_high..8 {
        h ^= x & 0xff;
        h = h.wrapping_mul(FNV_PRIME);
        x >>= 8;
    }
    h.wrapping_mul(PRIME_POW[zero_high])
}

/// 64-bit content digest of a graph over its canonical edge list.
///
/// Equal iff the labeled graphs are equal: same vertex count, same edge
/// set. Stable across presentations (edge order, endpoint order,
/// comments in serialized form) and across processes — the value is
/// pinned by unit tests and safe to persist or put on the wire.
pub fn digest(g: &Graph) -> u64 {
    let mut h = fold_usize(FNV_OFFSET, g.num_nodes());
    for (u, v) in g.edges() {
        h = fold_usize(h, u.0);
        h = fold_usize(h, v.0);
    }
    h
}

/// Digest of a graph together with an optional per-vertex input word.
///
/// `digest_instance(g, None)` differs from `digest_instance(g, Some(w))`
/// for every `w` (including the empty word): the input-presence flag is
/// folded in, so input-free and input-reading requests on the same
/// graph never collide.
pub fn digest_instance(g: &Graph, inputs: Option<&[usize]>) -> u64 {
    digest_instance_letters(g, inputs.map(|word| word.iter().copied()))
}

/// [`digest_instance`] of a word given as any sequence of letters of a
/// known length, such as the `u32` letters of a wire request widened one
/// at a time, so the word need not be copied out first.
pub fn digest_instance_letters(
    g: &Graph,
    inputs: Option<impl ExactSizeIterator<Item = usize>>,
) -> u64 {
    let mut h = digest(g);
    match inputs {
        None => fold(h, &[0]),
        Some(word) => {
            h = fold(h, &[1]);
            h = fold_usize(h, word.len());
            for letter in word {
                h = fold_usize(h, letter);
            }
            h
        }
    }
}

/// The digest formatted as 16 lowercase hex digits (journal/wire form).
pub fn digest_hex(g: &Graph) -> String {
    format!("{:016x}", digest(g))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::io;
    use rand::SeedableRng;

    /// Known digests, pinned: a changed value means every persisted
    /// cache key and journal entry silently changed meaning.
    #[test]
    fn known_digests_are_pinned() {
        for (g, expected) in [
            (Graph::empty(0), 0xa8c7_f832_281a_39c5_u64),
            (Graph::empty(1), 0x89cd_3129_1d2a_efa4),
            (generators::path(4), 0x55aa_a515_66e4_0e42),
            (generators::clique(4), 0x15d6_db9d_7a91_8701),
            (generators::star(5), 0xaf00_0f9d_cf5e_e0a4),
        ] {
            assert_eq!(
                digest(&g),
                expected,
                "digest drifted for {}-vertex graph with {} edges",
                g.num_nodes(),
                g.num_edges()
            );
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]

        #[test]
        fn fold_usize_matches_the_bytewise_fold(
            h in 0u64..=u64::MAX,
            x in 0u64..=u64::MAX,
            shift in 0u32..64,
        ) {
            // Shifting spreads `x` over every count of significant bytes.
            for x in [x >> shift, 0, 255, 256, u64::MAX] {
                proptest::prop_assert_eq!(
                    fold_usize(h, x as usize),
                    fold(h, &x.to_le_bytes()),
                    "x = {:#x}", x
                );
            }
        }
    }

    #[test]
    fn presentation_invariance_over_from_edges() {
        let a = Graph::from_edges(4, vec![(0, 1), (1, 2), (2, 3)]).unwrap();
        let b = Graph::from_edges(4, vec![(3, 2), (1, 0), (2, 1), (0, 1)]).unwrap();
        assert_eq!(digest(&a), digest(&b));
    }

    #[test]
    fn different_graphs_differ() {
        let path4 = generators::path(4);
        let path5 = generators::path(5);
        let star4 = generators::star(4);
        assert_ne!(digest(&path4), digest(&path5));
        assert_ne!(digest(&path4), digest(&star4));
        // An isolated vertex changes the digest even with no new edges.
        let padded = Graph::from_edges(5, vec![(0, 1), (1, 2), (2, 3)]).unwrap();
        assert_ne!(digest(&path4), digest(&padded));
    }

    #[test]
    fn inputs_extend_the_key_without_collisions() {
        let g = generators::path(3);
        let none = digest_instance(&g, None);
        let empty = digest_instance(&g, Some(&[]));
        let word = digest_instance(&g, Some(&[0, 1, 0]));
        let other = digest_instance(&g, Some(&[0, 1, 1]));
        assert_ne!(none, empty);
        assert_ne!(empty, word);
        assert_ne!(word, other);
    }

    #[test]
    fn hex_form_is_16_lowercase_digits() {
        let g = generators::path(4);
        let hex = digest_hex(&g);
        assert_eq!(hex.len(), 16);
        assert!(hex.chars().all(|c| c.is_ascii_hexdigit()));
        assert_eq!(u64::from_str_radix(&hex, 16).unwrap(), digest(&g));
    }

    #[test]
    fn io_round_trip_preserves_digest() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let g = generators::random_connected(20, 10, &mut rng);
        let text = io::to_edge_list(&g);
        let parsed = io::parse_edge_list(&text).unwrap();
        assert_eq!(digest(&g), digest(&parsed));
    }
}
