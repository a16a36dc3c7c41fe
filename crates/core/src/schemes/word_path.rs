//! MSO-on-words certification on path graphs (Section 4 warm-up).
//!
//! The paper's first intuition for Theorem 2.2: a word is a labeled path;
//! an MSO word property is an NFA language (Büchi–Elgot–Trakhtenbrot, see
//! [`locert_automata::mso_words`]); an accepting run, written position by
//! position into the certificates, is locally checkable. Certificates are
//! constant-size: position mod 3 (to orient the path), the run state, and
//! an automaton fingerprint.
//!
//! Letters come from the instance *inputs*. The scheme runs under the
//! promise that the graph is a path (compose with
//! [`crate::schemes::acyclicity`] + a degree check otherwise).

use crate::bits::{width_for, BitReader, Certificate};
use crate::framework::{
    Assignment, DeclaredBound, Decode, DecodedView, Instance, Prover, ProverError, RejectReason,
    Scheme,
};
use locert_automata::words::Nfa;
use locert_graph::NodeId;

fn fingerprint(a: &Nfa) -> u64 {
    let s = format!("{a:?}");
    let mut h: u64 = 0xcbf29ce484222325;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h & 0xffff
}

/// Certifies that the word spelled by a labeled path belongs to an NFA's
/// language (in either reading direction — an unrooted path has no
/// canonical orientation).
#[derive(Debug, Clone)]
pub struct WordPathScheme {
    nfa: Nfa,
    state_bits: u32,
    fp: u64,
}

impl WordPathScheme {
    /// Builds the scheme for `nfa` (e.g. the output of
    /// [`locert_automata::mso_words::compile`]).
    pub fn new(nfa: Nfa) -> Self {
        let state_bits = width_for(nfa.num_states().max(1) as u64 - 1);
        let fp = fingerprint(&nfa);
        WordPathScheme {
            nfa,
            state_bits,
            fp,
        }
    }

    /// Certificate size in bits — constant for a fixed automaton.
    pub fn certificate_bits(&self) -> usize {
        2 + self.state_bits as usize + 16
    }

    /// An accepting run over `word` (state after reading each letter), if
    /// any.
    fn accepting_run(&self, word: &[usize]) -> Option<Vec<usize>> {
        // Forward reachable sets.
        let mut sets: Vec<Vec<usize>> = Vec::with_capacity(word.len() + 1);
        sets.push(self.nfa.start_states().iter().copied().collect());
        for &a in word {
            let prev = sets.last().expect("non-empty");
            let mut next: Vec<usize> = prev
                .iter()
                .flat_map(|&q| self.nfa.successors(q, a).iter().copied())
                .collect();
            next.sort_unstable();
            next.dedup();
            sets.push(next);
        }
        // Pick an accepting final state and walk back.
        let mut state = *sets
            .last()
            .expect("non-empty")
            .iter()
            .find(|&&q| self.nfa.is_accepting(q))?;
        let mut run = vec![0usize; word.len()];
        for i in (0..word.len()).rev() {
            run[i] = state;
            state = *sets[i]
                .iter()
                .find(|&&p| self.nfa.successors(p, word[i]).contains(&state))
                .expect("forward sets guarantee a predecessor");
        }
        // `state` is now the chosen start state (unused beyond the walk).
        Some(run)
    }
}

impl Prover for WordPathScheme {
    fn assign(&self, instance: &Instance<'_>) -> Result<Assignment, ProverError> {
        let _span = locert_trace::span!("core.schemes.word_path.prover");
        let g = instance.graph();
        let n = g.num_nodes();
        // Must be a path: a tree with max degree ≤ 2.
        if !g.is_tree() || g.nodes().any(|v| g.degree(v) > 2) {
            return Err(ProverError::NotAYesInstance);
        }
        // Order vertices along the path.
        let start = g
            .nodes()
            .find(|&v| g.degree(v) <= 1)
            .expect("a path has an endpoint");
        let mut order = Vec::with_capacity(n);
        let mut prev: Option<NodeId> = None;
        let mut cur = start;
        loop {
            order.push(cur);
            let next = g.neighbors(cur).iter().copied().find(|&u| Some(u) != prev);
            match next {
                Some(u) => {
                    prev = Some(cur);
                    cur = u;
                }
                None => break,
            }
        }
        debug_assert_eq!(order.len(), n);
        // Letters must be in range.
        let letters: Vec<usize> = order.iter().map(|&v| instance.input(v)).collect();
        if letters.iter().any(|&a| a >= self.nfa.alphabet()) {
            return Err(ProverError::NotAYesInstance);
        }
        // Try both reading directions.
        let (run, oriented) = match self.accepting_run(&letters) {
            Some(r) => (r, order.clone()),
            None => {
                let mut rev_letters = letters.clone();
                rev_letters.reverse();
                let r = self
                    .accepting_run(&rev_letters)
                    .ok_or(ProverError::NotAYesInstance)?;
                let mut rev_order = order.clone();
                rev_order.reverse();
                (r, rev_order)
            }
        };
        let mut pos_of = vec![0; n];
        for (pos, &v) in oriented.iter().enumerate() {
            pos_of[v.0] = pos;
        }
        Ok(Assignment::write_each(n, |v, w| {
            let pos = pos_of[v.0];
            w.component("pos-mod-3");
            w.write((pos % 3) as u64, 2);
            w.component("automaton-state");
            w.write(run[pos] as u64, self.state_bits);
            w.component("automaton-fingerprint");
            w.write(self.fp, 16);
        }))
    }
}

impl Decode for WordPathScheme {
    /// Position mod 3 and NFA state.
    type Decoded = Option<(u64, usize)>;
    type Cache = ();

    fn decode(&self, cert: &Certificate, _: &()) -> Option<(u64, usize)> {
        let mut r = BitReader::new(cert);
        let d = r.read(2)?;
        let q = r.read(self.state_bits)? as usize;
        let fp = r.read(16)?;
        (d < 3 && q < self.nfa.num_states() && fp == self.fp && r.exhausted()).then_some((d, q))
    }

    fn decide_decoded(
        &self,
        view: &DecodedView<'_, Option<(u64, usize)>>,
    ) -> Result<(), RejectReason> {
        if view.input >= self.nfa.alphabet() {
            return Err(RejectReason::BadInput);
        }
        let (d, q) = view.own.ok_or(RejectReason::MalformedCertificate)?;
        if view.degree() > 2 {
            return Err(RejectReason::DegreeViolation);
        }
        let mut pred: Option<usize> = None;
        let mut succ = false;
        for (_, _, decoded) in view.neighbors() {
            let (nd, nq) = decoded.ok_or(RejectReason::MalformedNeighborCertificate)?;
            if nd == (d + 2) % 3 {
                if pred.is_some() {
                    return Err(RejectReason::CounterMismatch); // two predecessors.
                }
                pred = Some(nq);
            } else if nd == (d + 1) % 3 {
                if succ {
                    return Err(RejectReason::CounterMismatch); // two successors.
                }
                succ = true;
            } else {
                return Err(RejectReason::CounterMismatch);
            }
        }
        // Transition check: my state follows from my predecessor's state
        // (or a start state at the first position) on my letter.
        let ok_transition = match pred {
            Some(p) => self.nfa.successors(p, view.input).contains(&q),
            None => self
                .nfa
                .start_states()
                .iter()
                .any(|&s| self.nfa.successors(s, view.input).contains(&q)),
        };
        if !ok_transition {
            return Err(RejectReason::AutomatonStateClash);
        }
        // Last position: accepting state.
        if !succ && !self.nfa.is_accepting(q) {
            return Err(RejectReason::NotAccepting);
        }
        Ok(())
    }
}

impl Scheme for WordPathScheme {
    fn name(&self) -> String {
        format!("word-path[{} states]", self.nfa.num_states())
    }

    fn declared_bound(&self) -> DeclaredBound {
        // Position counter + NFA state + fingerprint: all independent of n
        // (Theorem 4.1's O(1) regime for fixed formulas on words).
        DeclaredBound::Constant
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attacks;
    use crate::framework::{run_scheme, run_verification};
    use locert_automata::mso_words::{self, PosVar, WordFormula};
    use locert_automata::words::Dfa;
    use locert_graph::{generators, IdAssignment};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// "Even number of 1s" as an NFA.
    fn even_ones() -> Nfa {
        Nfa::from_dfa(&Dfa::new(2, 2, 0, vec![true, false], vec![vec![0, 1], vec![1, 0]]).unwrap())
    }

    fn instance_for<'a>(
        g: &'a locert_graph::Graph,
        ids: &'a IdAssignment,
        letters: &'a [usize],
    ) -> Instance<'a> {
        Instance::with_inputs(g, ids, letters)
    }

    #[test]
    fn accepts_even_ones_paths() {
        let scheme = WordPathScheme::new(even_ones());
        let g = generators::path(6);
        let ids = IdAssignment::contiguous(6);
        let letters = vec![1, 0, 1, 0, 0, 0];
        let inst = instance_for(&g, &ids, &letters);
        let out = run_scheme(&scheme, &inst).unwrap();
        assert!(out.accepted());
        assert_eq!(out.max_bits(), scheme.certificate_bits());
        let odd = vec![1, 0, 0, 0, 0, 0];
        let inst2 = instance_for(&g, &ids, &odd);
        assert_eq!(
            run_scheme(&scheme, &inst2).unwrap_err(),
            ProverError::NotAYesInstance
        );
    }

    #[test]
    fn constant_size_in_n() {
        let scheme = WordPathScheme::new(even_ones());
        let mut sizes = Vec::new();
        for n in [2usize, 64, 1024] {
            let g = generators::path(n);
            let ids = IdAssignment::contiguous(n);
            let letters = vec![0usize; n];
            let inst = instance_for(&g, &ids, &letters);
            let out = run_scheme(&scheme, &inst).unwrap();
            assert!(out.accepted());
            sizes.push(out.max_bits());
        }
        assert!(sizes.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn direction_sensitive_language() {
        // "The first letter is 1": not reversal-closed; the prover must
        // pick the right orientation.
        let f = WordFormula::Exists(
            PosVar(0),
            Box::new(WordFormula::And(
                Box::new(WordFormula::Not(Box::new(WordFormula::Exists(
                    PosVar(1),
                    Box::new(WordFormula::Succ(PosVar(1), PosVar(0))),
                )))),
                Box::new(WordFormula::Letter(PosVar(0), 1)),
            )),
        );
        let nfa = mso_words::compile(&f, 2).unwrap();
        let scheme = WordPathScheme::new(nfa);
        let g = generators::path(4);
        let ids = IdAssignment::contiguous(4);
        // Letters 1,0,0,0 along vertex order: accepted reading forward.
        let inst = instance_for(&g, &ids, &[1, 0, 0, 0]);
        assert!(run_scheme(&scheme, &inst).unwrap().accepted());
        // Letters 0,0,0,1: accepted reading backward.
        let inst2 = instance_for(&g, &ids, &[0, 0, 0, 1]);
        assert!(run_scheme(&scheme, &inst2).unwrap().accepted());
        // Letters 0,1,0,0: rejected both ways.
        let inst3 = instance_for(&g, &ids, &[0, 1, 0, 0]);
        assert_eq!(
            run_scheme(&scheme, &inst3).unwrap_err(),
            ProverError::NotAYesInstance
        );
    }

    #[test]
    fn compiled_mso_sentence_end_to_end() {
        // "No two consecutive 1s", compiled from MSO, certified on paths.
        let f = WordFormula::Not(Box::new(WordFormula::Exists(
            PosVar(0),
            Box::new(WordFormula::Exists(
                PosVar(1),
                Box::new(WordFormula::And(
                    Box::new(WordFormula::Succ(PosVar(0), PosVar(1))),
                    Box::new(WordFormula::And(
                        Box::new(WordFormula::Letter(PosVar(0), 1)),
                        Box::new(WordFormula::Letter(PosVar(1), 1)),
                    )),
                )),
            )),
        )));
        let nfa = mso_words::compile(&f, 2).unwrap();
        let scheme = WordPathScheme::new(nfa);
        let g = generators::path(5);
        let ids = IdAssignment::contiguous(5);
        let inst = instance_for(&g, &ids, &[1, 0, 1, 0, 1]);
        assert!(run_scheme(&scheme, &inst).unwrap().accepted());
        let inst2 = instance_for(&g, &ids, &[1, 1, 0, 0, 0]);
        assert_eq!(
            run_scheme(&scheme, &inst2).unwrap_err(),
            ProverError::NotAYesInstance
        );
    }

    #[test]
    fn forged_run_rejected() {
        let scheme = WordPathScheme::new(even_ones());
        let g = generators::path(4);
        let ids = IdAssignment::contiguous(4);
        let letters = [1usize, 1, 0, 0];
        let inst = instance_for(&g, &ids, &letters);
        let mut asg = scheme.assign(&inst).unwrap();
        let c = asg.cert(NodeId(1)).clone();
        *asg.cert_mut(NodeId(1)) = c.with_bit_flipped(2);
        assert!(!run_verification(&scheme, &inst, &asg).accepted());
    }

    #[test]
    fn random_attacks_on_no_instance() {
        let scheme = WordPathScheme::new(even_ones());
        let g = generators::path(5);
        let ids = IdAssignment::contiguous(5);
        let letters = [1usize, 0, 0, 0, 0];
        let inst = instance_for(&g, &ids, &letters);
        let mut rng = StdRng::seed_from_u64(131);
        assert!(attacks::random_assignments(
            &scheme,
            &inst,
            scheme.certificate_bits(),
            &mut rng,
            500
        )
        .is_none());
    }

    #[test]
    fn prover_rejects_non_paths() {
        let scheme = WordPathScheme::new(even_ones());
        let g = generators::star(4);
        let ids = IdAssignment::contiguous(4);
        let letters = [0usize; 4];
        let inst = instance_for(&g, &ids, &letters);
        assert_eq!(
            run_scheme(&scheme, &inst).unwrap_err(),
            ProverError::NotAYesInstance
        );
    }

    #[test]
    fn single_vertex_path() {
        let scheme = WordPathScheme::new(even_ones());
        let g = locert_graph::Graph::empty(1);
        let ids = IdAssignment::contiguous(1);
        let letters = [0usize];
        let inst = instance_for(&g, &ids, &letters);
        assert!(run_scheme(&scheme, &inst).unwrap().accepted());
        let letters1 = [1usize];
        let inst2 = instance_for(&g, &ids, &letters1);
        assert_eq!(
            run_scheme(&scheme, &inst2).unwrap_err(),
            ProverError::NotAYesInstance
        );
    }
}
