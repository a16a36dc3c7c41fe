//! Nondeterministic two-party communication complexity and EQUALITY.
//!
//! Following Section 7.1: Alice holds `s_A`, Bob holds `s_B` (both of
//! length `ℓ`); a prover publishes one certificate `s_P` of length `m`
//! seen by both; each player outputs accept/reject from its own string
//! and `s_P` alone. The protocol *decides EQUALITY* when equal inputs
//! admit an accepting certificate and unequal inputs admit none.
//!
//! Theorem 7.1 (Babai–Frankl–Simon): any such protocol needs
//! `m = Ω(ℓ)` — witnessed constructively here by the classical
//! *fooling-set* argument ([`fooling_attack`]): with `m < ℓ` there are
//! fewer certificates than strings, so two distinct strings `s ≠ s'`
//! share an accepting certificate, and the mixed instance `(s, s')` is
//! wrongly accepted.

/// A nondeterministic protocol: per-player deciders.
pub trait Protocol {
    /// Alice's decision from her input and the prover's certificate.
    fn alice(&self, s_a: &[bool], cert: &[bool]) -> bool;
    /// Bob's decision from his input and the prover's certificate.
    fn bob(&self, s_b: &[bool], cert: &[bool]) -> bool;
    /// Certificate length `m` in bits.
    fn certificate_bits(&self) -> usize;
}

/// Enumerates all bit strings of length `len` (lexicographic).
pub fn all_strings(len: usize) -> impl Iterator<Item = Vec<bool>> {
    assert!(len < 63, "string space too large to enumerate");
    (0..(1u64 << len)).map(move |x| (0..len).map(|i| (x >> i) & 1 == 1).collect())
}

/// Whether some certificate makes both players accept on `(s_a, s_b)`.
pub fn exists_accepting_certificate(
    p: &impl Protocol,
    s_a: &[bool],
    s_b: &[bool],
) -> Option<Vec<bool>> {
    let m = p.certificate_bits();
    assert!(m < 63, "certificate space too large to enumerate");
    let mut tried = 0u64;
    let found = all_strings(m).find(|cert| {
        tried += 1;
        p.alice(s_a, cert) && p.bob(s_b, cert)
    });
    if locert_trace::enabled() {
        locert_trace::add("lb.cc.certs_tried", tried);
    }
    found
}

/// Exhaustively checks that `p` decides EQUALITY on length-`ℓ` inputs.
///
/// Returns `Ok(())` or the first violating instance.
pub fn decides_equality(p: &impl Protocol, l: usize) -> Result<(), (Vec<bool>, Vec<bool>)> {
    for s_a in all_strings(l) {
        for s_b in all_strings(l) {
            let accepted = exists_accepting_certificate(p, &s_a, &s_b).is_some();
            if accepted != (s_a == s_b) {
                return Err((s_a, s_b));
            }
        }
    }
    Ok(())
}

/// The fooling-set attack: if the protocol is *complete* (every equal
/// pair has an accepting certificate) and `m < ℓ`, finds `s ≠ s'` and a
/// certificate accepted on the mixed instance `(s, s')` — breaking
/// soundness. Returns `None` only if completeness itself fails or
/// `m ≥ ℓ` saved the protocol.
pub fn fooling_attack(p: &impl Protocol, l: usize) -> Option<(Vec<bool>, Vec<bool>, Vec<bool>)> {
    use std::collections::HashMap;
    let _span = locert_trace::span!("lb.cc.fooling_attack");
    let mut by_cert: HashMap<Vec<bool>, Vec<bool>> = HashMap::new();
    for s in all_strings(l) {
        if locert_trace::enabled() {
            locert_trace::add("lb.cc.pairs_examined", 1);
        }
        let cert = exists_accepting_certificate(p, &s, &s)?;
        if let Some(prev) = by_cert.get(&cert) {
            // Two distinct strings share an accepting certificate: the
            // mixed instance is accepted iff the players' checks are
            // one-sided — which they are, since Alice only reads (s, cert).
            let (s1, s2) = (prev.clone(), s.clone());
            if p.alice(&s1, &cert) && p.bob(&s2, &cert) {
                return Some((s1, s2, cert));
            }
        } else {
            by_cert.insert(cert, s);
        }
    }
    None
}

/// The honest `ℓ`-bit protocol: the certificate *is* the claimed common
/// string; each player checks it against its own input.
#[derive(Debug, Clone, Copy)]
pub struct CopyProtocol {
    /// Input length `ℓ`.
    pub l: usize,
}

impl Protocol for CopyProtocol {
    fn alice(&self, s_a: &[bool], cert: &[bool]) -> bool {
        s_a == cert
    }

    fn bob(&self, s_b: &[bool], cert: &[bool]) -> bool {
        s_b == cert
    }

    fn certificate_bits(&self) -> usize {
        self.l
    }
}

/// A (necessarily broken) protocol that truncates the certificate to
/// `m < ℓ` bits: each player checks only the prefix.
#[derive(Debug, Clone, Copy)]
pub struct TruncatedProtocol {
    /// Input length `ℓ`.
    pub l: usize,
    /// Certificate length `m < ℓ`.
    pub m: usize,
}

impl Protocol for TruncatedProtocol {
    fn alice(&self, s_a: &[bool], cert: &[bool]) -> bool {
        s_a[..self.m] == *cert
    }

    fn bob(&self, s_b: &[bool], cert: &[bool]) -> bool {
        s_b[..self.m] == *cert
    }

    fn certificate_bits(&self) -> usize {
        self.m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn copy_protocol_decides_equality() {
        for l in 1..=5 {
            assert_eq!(decides_equality(&CopyProtocol { l }, l), Ok(()));
        }
    }

    #[test]
    fn copy_protocol_resists_fooling() {
        // m = ℓ: one certificate per string, no collision.
        assert!(fooling_attack(&CopyProtocol { l: 4 }, 4).is_none());
    }

    #[test]
    fn truncated_protocol_is_broken_and_fooled() {
        for (l, m) in [(3usize, 2usize), (4, 2), (5, 4)] {
            let p = TruncatedProtocol { l, m };
            // Soundness fails…
            assert!(decides_equality(&p, l).is_err(), "l={l} m={m}");
            // …and the fooling attack exhibits a concrete break.
            let (s1, s2, cert) = fooling_attack(&p, l).expect("collision must exist");
            assert_ne!(s1, s2);
            assert!(p.alice(&s1, &cert) && p.bob(&s2, &cert));
        }
    }

    #[test]
    fn fooling_attack_pigeonhole_threshold() {
        // Any complete protocol with m < ℓ collides — spot-check by
        // shrinking the honest protocol artificially.
        struct Parity;
        impl Protocol for Parity {
            fn alice(&self, s: &[bool], c: &[bool]) -> bool {
                c[0] == (s.iter().filter(|&&b| b).count() % 2 == 1)
            }
            fn bob(&self, s: &[bool], c: &[bool]) -> bool {
                c[0] == (s.iter().filter(|&&b| b).count() % 2 == 1)
            }
            fn certificate_bits(&self) -> usize {
                1
            }
        }
        let got = fooling_attack(&Parity, 3).expect("1 bit cannot decide 3");
        assert_ne!(got.0, got.1);
    }

    #[test]
    fn mixed_instances_rejected_by_copy() {
        let p = CopyProtocol { l: 3 };
        let s_a = vec![true, false, true];
        let s_b = vec![true, true, true];
        assert!(exists_accepting_certificate(&p, &s_a, &s_b).is_none());
        assert!(exists_accepting_certificate(&p, &s_a, &s_a).is_some());
    }
}
