//! Quantifier-depth-2 FO certification (Lemma A.3).
//!
//! The paper shows that, on connected graphs, every FO sentence of
//! quantifier depth ≤ 2 is (semantically) a boolean combination of three
//! properties:
//!
//! 1. the graph has at most one vertex;
//! 2. the graph is a clique;
//! 3. the graph has a dominating vertex.
//!
//! These carve connected graphs into four *regions* ([`Region`]):
//! single vertex; clique on ≥ 2 vertices; dominated non-clique; none of
//! the above. A depth-2 sentence therefore has a fixed truth value per
//! region, which [`Depth2FoScheme::from_formula`] extracts by evaluating
//! the sentence on one representative per region. The certification then
//! certifies the region with `O(log n)` bits:
//!
//! - `Single`: every vertex checks degree 0;
//! - `Clique`: certified vertex count + everyone checks degree `n − 1`;
//! - `DomOnly`: vertex count rooted at the dominator (root checks degree
//!   `n − 1`) plus a second tree pointing at a *non*-dominating witness
//!   (which checks degree `< n − 1`);
//! - `Neither`: certified vertex count + everyone checks degree `< n−1`.

use crate::bits::BitReader;
use crate::framework::{
    Assignment, DeclaredBound, Decode, DecodedView, Instance, Prover, ProverError, RejectReason,
    Scheme,
};
use crate::schemes::spanning_tree::{
    try_honest_count_fields, try_honest_tree_fields, verify_count_fields, verify_tree_position,
    CountFields, TreeFields,
};
use locert_graph::{generators, Graph, NodeId};
use locert_logic::depth::{is_fo, quantifier_depth};
use locert_logic::eval::models;
use locert_logic::Formula;

/// The four semantic regions of connected graphs under depth-2 FO.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Region {
    /// A single vertex.
    Single,
    /// A clique on at least two vertices.
    Clique,
    /// Has a dominating vertex but is not a clique.
    DomOnly,
    /// No dominating vertex.
    Neither,
}

impl Region {
    fn tag(self) -> u64 {
        match self {
            Region::Single => 0,
            Region::Clique => 1,
            Region::DomOnly => 2,
            Region::Neither => 3,
        }
    }

    fn from_tag(tag: u64) -> Option<Region> {
        Some(match tag {
            0 => Region::Single,
            1 => Region::Clique,
            2 => Region::DomOnly,
            3 => Region::Neither,
            _ => return None,
        })
    }
}

/// Classifies a connected graph into its [`Region`].
pub fn classify(g: &Graph) -> Region {
    let n = g.num_nodes();
    if n <= 1 {
        return Region::Single;
    }
    if g.nodes().all(|v| g.degree(v) == n - 1) {
        return Region::Clique;
    }
    if g.nodes().any(|v| g.degree(v) == n - 1) {
        return Region::DomOnly;
    }
    Region::Neither
}

/// Certifies a depth-2 FO sentence via region certification.
#[derive(Debug, Clone)]
pub struct Depth2FoScheme {
    id_bits: u32,
    /// Truth per region, indexed by [`Region::tag`].
    truth: [bool; 4],
}

impl Depth2FoScheme {
    /// Builds the scheme from a depth-≤ 2 FO sentence by evaluating it on
    /// one representative per region (sound by Lemma A.3, which proves the
    /// sentence's truth is constant per region on connected graphs).
    ///
    /// Returns `None` if the sentence is not FO, not closed, or has
    /// quantifier depth `> 2`.
    pub fn from_formula(id_bits: u32, sentence: &Formula) -> Option<Self> {
        if !is_fo(sentence) || !sentence.is_sentence() || quantifier_depth(sentence) > 2 {
            return None;
        }
        let representatives = [
            Graph::empty(1),       // Single
            generators::clique(3), // Clique
            generators::star(4),   // DomOnly
            generators::path(4),   // Neither
        ];
        let mut truth = [false; 4];
        for (i, g) in representatives.iter().enumerate() {
            truth[i] = models(g, sentence);
        }
        Some(Depth2FoScheme { id_bits, truth })
    }

    /// Builds the scheme directly from a per-region truth table.
    pub fn from_truth_table(id_bits: u32, truth: [bool; 4]) -> Self {
        Depth2FoScheme { id_bits, truth }
    }

    /// The per-region truth table.
    pub fn truth_table(&self) -> [bool; 4] {
        self.truth
    }
}

impl Prover for Depth2FoScheme {
    fn assign(&self, instance: &Instance<'_>) -> Result<Assignment, ProverError> {
        let _span = locert_trace::span!("core.schemes.depth2_fo.prover");
        let g = instance.graph();
        // Lemma A.3's region dichotomy only holds on connected graphs;
        // classify() reads degrees alone and would mislabel disconnected
        // inputs, and the spanning-tree helpers below require
        // connectivity. (The single-vertex graph is connected; the empty
        // graph is not.)
        if !g.is_connected() {
            return Err(ProverError::WitnessUnavailable(
                "instance is empty or disconnected (connected-graph promise)".into(),
            ));
        }
        let region = classify(g);
        if !self.truth[region.tag() as usize] {
            return Err(ProverError::NotAYesInstance);
        }
        let n = g.num_nodes();
        // The fields after the region tag: none on a single vertex, the
        // counting fields from vertex 0 in a clique or the neither-region,
        // and in the dominated-only region the counting fields from the
        // dominator and a spanning tree rooted at a non-dominating witness.
        let (counts, witness_tree) = match region {
            Region::Single => (None, None),
            Region::Clique | Region::Neither => {
                let counts = try_honest_count_fields(instance, NodeId(0))
                    .ok_or(ProverError::NotAYesInstance)?;
                (Some(counts), None)
            }
            Region::DomOnly => {
                let dom = g
                    .nodes()
                    .find(|&v| g.degree(v) == n - 1)
                    .ok_or(ProverError::NotAYesInstance)?;
                let witness = g
                    .nodes()
                    .find(|&v| g.degree(v) < n - 1)
                    .ok_or(ProverError::NotAYesInstance)?;
                let counts =
                    try_honest_count_fields(instance, dom).ok_or(ProverError::NotAYesInstance)?;
                let wtree = try_honest_tree_fields(instance, witness)
                    .ok_or(ProverError::NotAYesInstance)?;
                (Some(counts), Some(wtree))
            }
        };
        Ok(Assignment::write_each(n, |v, w| {
            w.component("region-tag");
            w.write(region.tag(), 2);
            if let Some(counts) = &counts {
                counts[v.0].write(w, self.id_bits);
            }
            if let Some(wtree) = &witness_tree {
                wtree[v.0].write(w, self.id_bits);
            }
        }))
    }
}

/// A parsed depth-2 certificate: the region tag, then the count fields
/// and witness-tree fields the region carries.
type RegionFields = (Region, Option<CountFields>, Option<TreeFields>);

impl Decode for Depth2FoScheme {
    type Decoded = Option<RegionFields>;
    type Cache = ();

    fn decode(&self, mut r: BitReader<'_>, _: &()) -> Option<RegionFields> {
        let region = Region::from_tag(r.read(2)?)?;
        match region {
            Region::Single => r.exhausted().then_some((region, None, None)),
            Region::Clique | Region::Neither => {
                let cf = CountFields::read(&mut r, self.id_bits)?;
                r.exhausted().then_some((region, Some(cf), None))
            }
            Region::DomOnly => {
                let cf = CountFields::read(&mut r, self.id_bits)?;
                let tf = TreeFields::read(&mut r, self.id_bits)?;
                r.exhausted().then_some((region, Some(cf), Some(tf)))
            }
        }
    }

    fn decide_decoded(
        &self,
        view: &DecodedView<'_, Option<RegionFields>>,
    ) -> Result<(), RejectReason> {
        let (region, _, _) = view.own.ok_or(RejectReason::MalformedCertificate)?;
        if !self.truth[region.tag() as usize] {
            return Err(RejectReason::PropertyViolation);
        }
        // Region tags agree across neighbors.
        for (_, _, decoded) in view.neighbors() {
            let (r, _, _) = decoded.ok_or(RejectReason::MalformedNeighborCertificate)?;
            if r != region {
                return Err(RejectReason::CopyMismatch);
            }
        }
        match region {
            Region::Single => {
                if view.degree() == 0 {
                    Ok(())
                } else {
                    Err(RejectReason::DegreeViolation)
                }
            }
            Region::Clique => {
                let cf = verify_count_fields(view, |d| d.and_then(|(_, cf, _)| cf))?;
                if view.degree() as u64 == cf.total - 1 {
                    Ok(())
                } else {
                    Err(RejectReason::DegreeViolation)
                }
            }
            Region::Neither => {
                let cf = verify_count_fields(view, |d| d.and_then(|(_, cf, _)| cf))?;
                // No vertex dominates (also implies non-clique for n ≥ 2).
                if cf.total >= 2 && (view.degree() as u64) < cf.total - 1 {
                    Ok(())
                } else {
                    Err(RejectReason::DegreeViolation)
                }
            }
            Region::DomOnly => {
                let cf = verify_count_fields(view, |d| d.and_then(|(_, cf, _)| cf))?;
                // Dominator = the count tree's root.
                if view.id == cf.tree.root && view.degree() as u64 != cf.total - 1 {
                    return Err(RejectReason::DegreeViolation);
                }
                // Witness tree: points at a non-dominating vertex.
                let (_, _, Some(wt)) = view.own.ok_or(RejectReason::MalformedCertificate)? else {
                    return Err(RejectReason::MalformedCertificate);
                };
                verify_tree_position(view, &wt, |d| d.and_then(|(_, _, t)| t))?;
                if view.id == wt.root && view.degree() as u64 >= cf.total - 1 {
                    return Err(RejectReason::DegreeViolation);
                }
                Ok(())
            }
        }
    }
}

impl Scheme for Depth2FoScheme {
    fn name(&self) -> String {
        format!("depth2-fo{:?}", self.truth)
    }

    fn declared_bound(&self) -> DeclaredBound {
        // Region tag plus count/tree fields at identifier width (Lemma A.3).
        DeclaredBound::LogN
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attacks;
    use crate::framework::run_scheme;
    use crate::schemes::common::id_bits_for;
    use locert_graph::IdAssignment;
    use locert_logic::props;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn classify_regions() {
        assert_eq!(classify(&Graph::empty(1)), Region::Single);
        assert_eq!(classify(&generators::clique(4)), Region::Clique);
        assert_eq!(classify(&generators::clique(2)), Region::Clique);
        assert_eq!(classify(&generators::star(5)), Region::DomOnly);
        assert_eq!(classify(&generators::path(4)), Region::Neither);
        assert_eq!(classify(&generators::cycle(5)), Region::Neither);
        assert_eq!(classify(&generators::path(3)), Region::DomOnly);
    }

    #[test]
    fn from_formula_guards_fragment() {
        assert!(Depth2FoScheme::from_formula(4, &props::diameter_at_most_2()).is_none());
        assert!(Depth2FoScheme::from_formula(4, &props::is_clique()).is_some());
        assert!(Depth2FoScheme::from_formula(4, &props::has_dominating_vertex()).is_some());
        assert!(Depth2FoScheme::from_formula(4, &props::bipartite()).is_none());
    }

    #[test]
    fn truth_tables_match_semantics() {
        let clique = Depth2FoScheme::from_formula(4, &props::is_clique()).unwrap();
        assert_eq!(clique.truth_table(), [true, true, false, false]);
        let dom = Depth2FoScheme::from_formula(4, &props::has_dominating_vertex()).unwrap();
        assert_eq!(dom.truth_table(), [true, true, true, false]);
        let single = Depth2FoScheme::from_formula(4, &props::at_most_one_vertex()).unwrap();
        assert_eq!(single.truth_table(), [true, false, false, false]);
    }

    /// End-to-end: scheme decision equals brute-force model checking on a
    /// zoo of graphs, for several depth-2 sentences.
    #[test]
    fn scheme_decision_matches_model_checking() {
        use locert_logic::ast::not;
        let sentences = vec![
            props::is_clique(),
            props::has_dominating_vertex(),
            props::at_most_one_vertex(),
            not(props::is_clique()),
            not(props::has_dominating_vertex()),
            props::min_degree_1(),
        ];
        let graphs = vec![
            Graph::empty(1),
            generators::clique(2),
            generators::clique(5),
            generators::star(4),
            generators::star(7),
            generators::path(3),
            generators::path(6),
            generators::cycle(4),
            generators::cycle(7),
            generators::spider(3, 2),
        ];
        for phi in &sentences {
            for g in &graphs {
                let ids = IdAssignment::contiguous(g.num_nodes());
                let inst = Instance::new(g, &ids);
                let scheme = Depth2FoScheme::from_formula(id_bits_for(&inst), phi).unwrap();
                let expected = models(g, phi);
                match run_scheme(&scheme, &inst) {
                    Ok(out) => {
                        assert!(out.accepted());
                        assert!(expected, "accepted a no-instance: {phi} on {g:?}");
                    }
                    Err(ProverError::NotAYesInstance) => {
                        assert!(!expected, "refused a yes-instance: {phi} on {g:?}");
                    }
                    Err(e) => {
                        panic!("prover error for {} ({phi} on {g:?}): {e}", scheme.name())
                    }
                }
            }
        }
    }

    #[test]
    fn forged_region_rejected() {
        // Claim "clique" on a star: leaves fail the degree check.
        let g = generators::star(5);
        let ids = IdAssignment::contiguous(5);
        let inst = Instance::new(&g, &ids);
        let scheme =
            Depth2FoScheme::from_truth_table(id_bits_for(&inst), [false, true, false, false]);
        // Prover refuses (star is DomOnly)…
        assert_eq!(
            run_scheme(&scheme, &inst).unwrap_err(),
            ProverError::NotAYesInstance
        );
        // …and random/forged certificates do not help.
        let mut rng = StdRng::seed_from_u64(111);
        let bits = 2 + 5 * id_bits_for(&inst) as usize;
        assert!(attacks::random_assignments(&scheme, &inst, bits, &mut rng, 300).is_none());
    }

    #[test]
    fn dominating_vertex_forgery_rejected() {
        // On a path of 5, claim DomOnly with a forged dominator: the fake
        // root's degree check fails; exhaust small certificates too.
        let g = generators::path(5);
        let ids = IdAssignment::contiguous(5);
        let inst = Instance::new(&g, &ids);
        let scheme =
            Depth2FoScheme::from_truth_table(id_bits_for(&inst), [false, false, true, false]);
        let mut rng = StdRng::seed_from_u64(112);
        let bits = 2 + 8 * id_bits_for(&inst) as usize;
        assert!(attacks::random_assignments(&scheme, &inst, bits, &mut rng, 400).is_none());
    }

    #[test]
    fn disconnected_instance_is_a_typed_error_not_a_panic() {
        // Regression: classify() reads degrees only, so 2 x K_2 was
        // labeled Clique and the prover panicked inside the spanning-tree
        // helpers ("connected instance").
        let g = Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        let ids = IdAssignment::contiguous(4);
        let inst = Instance::new(&g, &ids);
        let scheme = Depth2FoScheme::from_truth_table(id_bits_for(&inst), [true; 4]);
        assert!(matches!(
            run_scheme(&scheme, &inst).unwrap_err(),
            ProverError::WitnessUnavailable(_)
        ));
        // The empty graph is not connected either.
        let empty = Graph::empty(0);
        let ids0 = IdAssignment::contiguous(0);
        let inst0 = Instance::new(&empty, &ids0);
        assert!(matches!(
            run_scheme(&scheme, &inst0).unwrap_err(),
            ProverError::WitnessUnavailable(_)
        ));
    }

    #[test]
    fn certificate_sizes_logarithmic() {
        for n in [4usize, 16, 64, 256] {
            let g = generators::star(n);
            let ids = IdAssignment::contiguous(n);
            let inst = Instance::new(&g, &ids);
            let scheme =
                Depth2FoScheme::from_formula(id_bits_for(&inst), &props::has_dominating_vertex())
                    .unwrap();
            let out = run_scheme(&scheme, &inst).unwrap();
            assert!(out.accepted());
            // 2 + 5L (count fields) + 3L (witness tree) bits.
            assert!(out.max_bits() <= 2 + 8 * id_bits_for(&inst) as usize);
        }
    }
}
