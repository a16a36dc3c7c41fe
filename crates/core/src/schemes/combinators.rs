//! Scheme combinators: conjunction and disjunction.
//!
//! Lemma A.3's proof uses that "certifying disjunction or conjunction of
//! certifiable sentences without (asymptotic) blow-up in size is
//! straightforward": for `∧`, concatenate certificates; for `∨`, the
//! prover writes one selector bit (which disjunct holds) followed by that
//! disjunct's certificate, and every vertex checks the selector agrees
//! with its neighbors'.

use crate::bits::{BitReader, Certificate};
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

    fn split(&self, cert: &Certificate) -> Option<(Certificate, Certificate)> {
        let mut r = BitReader::new(cert);
        let len_a = r.read(self.len_bits)? as usize;
        let a = r.read_cert(len_a)?;
        let b = r.read_cert(r.remaining())?;
        Some((a, b))
    }
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
    /// Both parts' decodes; `None` when the length header does not fit.
    type Decoded = Option<(A::Decoded, B::Decoded)>;
    type Cache = (A::Cache, B::Cache);

    fn decode(&self, cert: &Certificate, cache: &Self::Cache) -> Self::Decoded {
        let (ca, cb) = self.split(cert)?;
        Some((
            self.first.decode(&ca, &cache.0),
            self.second.decode(&cb, &cache.1),
        ))
    }

    fn decide_decoded(&self, view: &DecodedView<'_, Self::Decoded>) -> Result<(), RejectReason> {
        let (own_a, own_b) = view
            .own
            .as_ref()
            .ok_or(RejectReason::MalformedCertificate)?;
        let mut nbrs_a = Vec::with_capacity(view.degree());
        let mut nbrs_b = Vec::with_capacity(view.degree());
        for (nid, ninput, decoded) in view.neighbors() {
            let (na, nb) = decoded
                .as_ref()
                .ok_or(RejectReason::MalformedNeighborCertificate)?;
            nbrs_a.push((nid, ninput, na));
            nbrs_b.push((nid, ninput, nb));
        }
        // Inner rejection reasons propagate unchanged.
        self.first
            .decide_decoded(&DecodedView::listed(view.id, view.input, own_a, &nbrs_a))?;
        self.second
            .decide_decoded(&DecodedView::listed(view.id, view.input, own_b, &nbrs_b))
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

/// At least one sub-property holds: one selector bit plus the selected
/// scheme's certificate.
pub struct OrScheme<A, B> {
    first: A,
    second: B,
}

impl<A: Scheme, B: Scheme> OrScheme<A, B> {
    /// Combines two schemes disjunctively.
    pub fn new(first: A, second: B) -> Self {
        OrScheme { first, second }
    }

    fn split(cert: &Certificate) -> Option<(bool, Certificate)> {
        let mut r = BitReader::new(cert);
        let selector = r.read_bit()?;
        let rest = r.read_cert(r.remaining())?;
        Some((selector, rest))
    }
}

impl<A: Scheme, B: Scheme> Prover for OrScheme<A, B> {
    fn assign(&self, instance: &Instance<'_>) -> Result<Assignment, ProverError> {
        let wrap = |selector: bool, asg: Assignment, n: usize| {
            Assignment::write_each(n, |v, w| {
                w.component("selector");
                w.write_bit(selector);
                w.component("embedded");
                w.write_cert(asg.cert(v));
            })
        };
        let n = instance.graph().num_nodes();
        match self.first.assign(instance) {
            Ok(asg) => Ok(wrap(false, asg, n)),
            Err(ProverError::NotAYesInstance) => {
                let asg = self.second.assign(instance)?;
                Ok(wrap(true, asg, n))
            }
            Err(e) => Err(e),
        }
    }
}

/// One side of a disjunction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Either<A, B> {
    /// The first disjunct (selector bit 0).
    First(A),
    /// The second disjunct (selector bit 1).
    Second(B),
}

impl<A: Scheme + Decode, B: Scheme + Decode> Decode for OrScheme<A, B> {
    /// The selected disjunct's decode; `None` on an empty certificate.
    type Decoded = Option<Either<A::Decoded, B::Decoded>>;
    type Cache = (A::Cache, B::Cache);

    fn decode(&self, cert: &Certificate, cache: &Self::Cache) -> Self::Decoded {
        let (selector, rest) = Self::split(cert)?;
        Some(if selector {
            Either::Second(self.second.decode(&rest, &cache.1))
        } else {
            Either::First(self.first.decode(&rest, &cache.0))
        })
    }

    fn decide_decoded(&self, view: &DecodedView<'_, Self::Decoded>) -> Result<(), RejectReason> {
        let own = view
            .own
            .as_ref()
            .ok_or(RejectReason::MalformedCertificate)?;
        let mut firsts = Vec::new();
        let mut seconds = Vec::new();
        for (nid, ninput, decoded) in view.neighbors() {
            match (own, decoded.as_ref()) {
                (_, None) => return Err(RejectReason::MalformedNeighborCertificate),
                (Either::First(_), Some(Either::First(d))) => firsts.push((nid, ninput, d)),
                (Either::Second(_), Some(Either::Second(d))) => seconds.push((nid, ninput, d)),
                // Disagreeing selectors.
                _ => return Err(RejectReason::CopyMismatch),
            }
        }
        // The selected disjunct's rejection reason propagates unchanged.
        match own {
            Either::First(d) => self
                .first
                .decide_decoded(&DecodedView::listed(view.id, view.input, d, &firsts)),
            Either::Second(d) => self
                .second
                .decide_decoded(&DecodedView::listed(view.id, view.input, d, &seconds)),
        }
    }
}

impl<A: Scheme + Decode, B: Scheme + Decode> Scheme for OrScheme<A, B> {
    fn name(&self) -> String {
        format!("({} OR {})", self.first.name(), self.second.name())
    }

    fn declared_bound(&self) -> DeclaredBound {
        // One selector bit plus whichever disjunct was chosen.
        self.first
            .declared_bound()
            .combine(self.second.declared_bound())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bits::BitWriter;
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

    #[test]
    fn or_takes_whichever_holds() {
        // diameter ≤ 1 OR diameter ≤ 4.
        let g = generators::path(4); // diameter 3
        let ids = IdAssignment::contiguous(4);
        let inst = Instance::new(&g, &ids);
        let b = id_bits_for(&inst);
        let scheme = OrScheme::new(TreeDiameterScheme::new(b, 1), TreeDiameterScheme::new(b, 4));
        assert!(run_scheme(&scheme, &inst).unwrap().accepted());
        // Neither disjunct: diameter ≤ 1 OR ≤ 2 on P_4.
        let scheme_bad =
            OrScheme::new(TreeDiameterScheme::new(b, 1), TreeDiameterScheme::new(b, 2));
        assert_eq!(
            run_scheme(&scheme_bad, &inst).unwrap_err(),
            ProverError::NotAYesInstance
        );
    }

    #[test]
    fn or_rejects_selector_disagreement() {
        use crate::framework::run_verification;
        let g = generators::path(3);
        let ids = IdAssignment::contiguous(3);
        let inst = Instance::new(&g, &ids);
        let b = id_bits_for(&inst);
        let scheme = OrScheme::new(TreeDiameterScheme::new(b, 2), TreeDiameterScheme::new(b, 5));
        let mut asg = scheme.assign(&inst).unwrap();
        // Flip vertex 1's selector bit.
        let c = asg.cert(locert_graph::NodeId(1)).clone();
        *asg.cert_mut(locert_graph::NodeId(1)) = c.with_bit_flipped(0);
        let out = run_verification(&scheme, &inst, &asg);
        assert!(!out.accepted());
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

    /// The bit-at-a-time `OrScheme::split` that `read_cert` replaces.
    fn or_split_bitwise(cert: &Certificate) -> Option<(bool, Certificate)> {
        let mut r = BitReader::new(cert);
        let selector = r.read_bit()?;
        let mut w = BitWriter::new();
        while let Some(b) = r.read_bit() {
            w.write_bit(b);
        }
        Some((selector, w.finish()))
    }

    #[test]
    fn splits_match_bit_loops_on_random_certificates() {
        use rand::{rngs::StdRng, RngExt, SeedableRng};
        type Or = OrScheme<AcyclicityScheme, AcyclicityScheme>;
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
                assert_eq!(and.split(&cert), and_split_bitwise(len_bits, &cert));
                assert_eq!(Or::split(&cert), or_split_bitwise(&cert));
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
