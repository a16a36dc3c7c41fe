//! Scheme combinators: conjunction.
//!
//! Lemma A.3's proof uses that "certifying disjunction or conjunction of
//! certifiable sentences without (asymptotic) blow-up in size is
//! straightforward": for `∧`, concatenate certificates. The catalogue
//! needs only conjunction (`and-acyclic-count`).

use crate::bits::BitReader;
use crate::framework::{
    Assignment, DeclaredBound, Decode, DecodedView, Instance, Prover, ProverError, RejectReason,
    Scheme,
};

/// Both sub-properties hold: certificates are concatenated with a length
/// header for the first part.
pub struct AndScheme<A, B> {
    first: A,
    second: B,
    /// Bits used for the length header of the first certificate.
    len_bits: u32,
}

impl<A: Scheme, B: Scheme> AndScheme<A, B> {
    /// Combines two schemes; `len_bits` must be enough for the first
    /// scheme's certificate length (in bits).
    pub fn new(first: A, second: B, len_bits: u32) -> Self {
        AndScheme {
            first,
            second,
            len_bits,
        }
    }

    /// The two parts of the certificate in `r`, split in place: `None`
    /// when the length header does not fit.
    fn split<'a>(&self, mut r: BitReader<'a>) -> Option<(BitReader<'a>, BitReader<'a>)> {
        let len_a = r.read(self.len_bits)? as usize;
        let a = r.take(len_a)?;
        Some((a, r))
    }
}

/// A decoded conjunction certificate: both parts' decodes, each from its
/// window of the certificate.
pub struct AndCert<A, B> {
    /// Whether the length header fits; when it does not, both parts are
    /// decoded from empty windows and the vertex rejects before either
    /// part decides.
    header_fits: bool,
    first: A,
    second: B,
}

impl<A: Scheme, B: Scheme> Prover for AndScheme<A, B> {
    fn assign(&self, instance: &Instance<'_>) -> Result<Assignment, ProverError> {
        let a = self.first.assign(instance)?;
        let b = self.second.assign(instance)?;
        Ok(Assignment::write_each(
            instance.graph().num_nodes(),
            |v, w| {
                let ca = a.cert(v);
                w.component("length-header");
                w.write(ca.len_bits() as u64, self.len_bits);
                w.component("embedded");
                w.write_cert(ca);
                w.write_cert(b.cert(v));
            },
        ))
    }
}

impl<A: Scheme + Decode, B: Scheme + Decode> Decode for AndScheme<A, B> {
    type Decoded = AndCert<A::Decoded, B::Decoded>;
    type Cache = (A::Cache, B::Cache);

    fn decode(&self, mut r: BitReader<'_>, cache: &Self::Cache) -> Self::Decoded {
        let (header_fits, (a, b)) = match self.split(r.clone()) {
            Some(parts) => (true, parts),
            None => {
                let empty = r.take(0).expect("an empty window fits");
                (false, (empty.clone(), empty))
            }
        };
        AndCert {
            header_fits,
            first: self.first.decode(a, &cache.0),
            second: self.second.decode(b, &cache.1),
        }
    }

    fn decide_decoded(&self, view: &DecodedView<'_, Self::Decoded>) -> Result<(), RejectReason> {
        if !view.own.header_fits {
            return Err(RejectReason::MalformedCertificate);
        }
        if view.neighbors().any(|(_, _, decoded)| !decoded.header_fits) {
            return Err(RejectReason::MalformedNeighborCertificate);
        }
        // Inner rejection reasons propagate unchanged.
        view.project(|d| &d.first, |part| self.first.decide_decoded(part))?;
        view.project(|d| &d.second, |part| self.second.decide_decoded(part))
    }
}

impl<A: Scheme + Decode, B: Scheme + Decode> Scheme for AndScheme<A, B> {
    fn name(&self) -> String {
        format!("({} AND {})", self.first.name(), self.second.name())
    }

    fn declared_bound(&self) -> DeclaredBound {
        // Concatenation: the larger asymptotic family dominates.
        self.first
            .declared_bound()
            .combine(self.second.declared_bound())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bits::{BitWriter, Certificate};
    use crate::framework::run_scheme;
    use crate::schemes::acyclicity::AcyclicityScheme;
    use crate::schemes::common::id_bits_for;
    use crate::schemes::tree_diameter::TreeDiameterScheme;
    use locert_graph::{generators, IdAssignment};

    #[test]
    fn and_of_tree_and_diameter() {
        let g = generators::star(6);
        let ids = IdAssignment::contiguous(6);
        let inst = Instance::new(&g, &ids);
        let b = id_bits_for(&inst);
        let scheme = AndScheme::new(AcyclicityScheme::new(b), TreeDiameterScheme::new(b, 2), 10);
        let out = run_scheme(&scheme, &inst).unwrap();
        assert!(out.accepted());
        // A long path fails the second conjunct.
        let p = generators::path(6);
        let ids_p = IdAssignment::contiguous(6);
        let inst_p = Instance::new(&p, &ids_p);
        let scheme_p = AndScheme::new(
            AcyclicityScheme::new(id_bits_for(&inst_p)),
            TreeDiameterScheme::new(id_bits_for(&inst_p), 2),
            10,
        );
        assert_eq!(
            run_scheme(&scheme_p, &inst_p).unwrap_err(),
            ProverError::NotAYesInstance
        );
    }

    /// The bit-at-a-time `AndScheme::split` that `read_cert` replaces.
    fn and_split_bitwise(len_bits: u32, cert: &Certificate) -> Option<(Certificate, Certificate)> {
        let mut r = BitReader::new(cert);
        let len_a = r.read(len_bits)? as usize;
        if len_a > r.remaining() {
            return None;
        }
        let mut wa = BitWriter::new();
        for _ in 0..len_a {
            wa.write_bit(r.read_bit()?);
        }
        let mut wb = BitWriter::new();
        while let Some(b) = r.read_bit() {
            wb.write_bit(b);
        }
        Some((wa.finish(), wb.finish()))
    }

    #[test]
    fn splits_match_bit_loops_on_random_certificates() {
        use rand::{rngs::StdRng, RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(31);
        for len_bits in 1..=8u32 {
            let and = AndScheme::new(AcyclicityScheme::new(3), AcyclicityScheme::new(3), len_bits);
            for total in 0..140usize {
                let mut w = BitWriter::new();
                for _ in 0..total {
                    w.write_bit(rng.random_bool(0.5));
                }
                let cert = w.finish();
                // Truncations included: every prefix is a shorter input.
                let split = and.split(BitReader::new(&cert)).map(|(mut a, mut b)| {
                    let whole = |r: &mut BitReader<'_>| r.read_cert(r.remaining()).unwrap();
                    (whole(&mut a), whole(&mut b))
                });
                assert_eq!(split, and_split_bitwise(len_bits, &cert));
            }
        }
    }

    #[test]
    fn and_certificate_size_is_sum_plus_header() {
        let g = generators::star(4);
        let ids = IdAssignment::contiguous(4);
        let inst = Instance::new(&g, &ids);
        let b = id_bits_for(&inst);
        let a = AcyclicityScheme::new(b);
        let d = TreeDiameterScheme::new(b, 2);
        let asg_a = a.assign(&inst).unwrap();
        let asg_d = d.assign(&inst).unwrap();
        let combo = AndScheme::new(a, d, 10);
        let asg = combo.assign(&inst).unwrap();
        assert_eq!(asg.max_bits(), asg_a.max_bits() + asg_d.max_bits() + 10);
    }
}
