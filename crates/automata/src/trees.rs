//! Unranked–unordered tree automata with threshold counting guards — the
//! paper's *unary ordering Presburger* (UOP) tree automata \[7].
//!
//! A [`TreeAutomaton`] runs bottom-up over a [`LabeledTree`]: a run assigns
//! a state to every node; the assignment is locally correct at a node with
//! label `l` and state `q` when the guard `δ(q, l)` is satisfied by the
//! *multiset of children states* — and guards can only compare, for a set
//! of states `S`, the number of children carrying a state of `S` against
//! constants ([`Guard`]). The tree is accepted when some run puts an
//! accepting state at the root. By Boneva–Talbot (Proposition 8 of \[7],
//! quoted as the engine of Theorem 2.2), these automata recognize exactly
//! the MSO-definable sets of unordered unranked labeled rooted trees.
//!
//! The run itself is the certificate in the Theorem 2.2 scheme: each node
//! can check its own guard by looking at its children's states.
//!
//! Counting is *capped*: every constant in a guard is at most
//! [`TreeAutomaton::cap`], and count vectors saturate just past it —
//! sound because `Σ min(xᵢ, C + 1) ≥ c ⇔ Σ xᵢ ≥ c` whenever `c ≤ C`.
//!
//! Both the feasibility pass and the run search decide a node's
//! existential choice with one layered DP over packed count vectors
//! (`CountLayers`): layer `i` is the sorted, deduplicated set of capped
//! count vectors the first `i` children can produce, each vector packed
//! into a few words of one flat buffer that every node reuses. The run
//! [`TreeAutomaton::accepting_run`] returns is the least accepting run in
//! a fixed total order (see there), never one that depends on hashing.

use locert_graph::{NodeId, RootedTree};

/// One threshold atom: "the number of children whose state lies in
/// `states` (a bitmask) compares against `count`".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CountAtom {
    /// Bitmask of states counted together.
    pub states: u64,
    /// The threshold constant.
    pub count: usize,
}

/// A boolean combination of threshold atoms over children-state counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Guard {
    /// Always satisfied.
    True,
    /// Never satisfied.
    False,
    /// At least `count` children carry a state of `states`.
    AtLeast(CountAtom),
    /// At most `count` children carry a state of `states`.
    AtMost(CountAtom),
    /// Negation.
    Not(Box<Guard>),
    /// Conjunction.
    And(Box<Guard>, Box<Guard>),
    /// Disjunction.
    Or(Box<Guard>, Box<Guard>),
}

impl Guard {
    /// "Exactly `count` children carry a state of `states`."
    pub fn exactly(states: u64, count: usize) -> Guard {
        Guard::And(
            Box::new(Guard::AtLeast(CountAtom { states, count })),
            Box::new(Guard::AtMost(CountAtom { states, count })),
        )
    }

    /// "No child at all" (leaf guard), given the total number of states.
    pub fn leaf(num_states: usize) -> Guard {
        Guard::AtMost(CountAtom {
            states: mask_all(num_states),
            count: 0,
        })
    }

    /// Evaluates the guard against per-state children counts (uncapped;
    /// sums saturate internally).
    pub fn eval(&self, counts: &[usize]) -> bool {
        self.holds(&|states| set_count(counts, states))
    }

    /// Evaluates the guard, reading the number of children in a state
    /// set (a bitmask) through `count`.
    fn holds(&self, count: &impl Fn(u64) -> usize) -> bool {
        match self {
            Guard::True => true,
            Guard::False => false,
            Guard::AtLeast(a) => count(a.states) >= a.count,
            Guard::AtMost(a) => count(a.states) <= a.count,
            Guard::Not(g) => !g.holds(count),
            Guard::And(a, b) => a.holds(count) && b.holds(count),
            Guard::Or(a, b) => a.holds(count) || b.holds(count),
        }
    }

    /// Largest constant appearing in the guard.
    pub fn max_constant(&self) -> usize {
        match self {
            Guard::True | Guard::False => 0,
            Guard::AtLeast(a) | Guard::AtMost(a) => a.count,
            Guard::Not(g) => g.max_constant(),
            Guard::And(a, b) | Guard::Or(a, b) => a.max_constant().max(b.max_constant()),
        }
    }

    /// Largest state index referenced (None if no atom).
    fn max_state(&self) -> Option<usize> {
        match self {
            Guard::True | Guard::False => None,
            Guard::AtLeast(a) | Guard::AtMost(a) => {
                if a.states == 0 {
                    None
                } else {
                    Some(63 - a.states.leading_zeros() as usize)
                }
            }
            Guard::Not(g) => g.max_state(),
            Guard::And(a, b) | Guard::Or(a, b) => a.max_state().max(b.max_state()),
        }
    }

    /// Rewrites every atom's state set through `f` (used by products).
    fn map_states(&self, f: &impl Fn(u64) -> u64) -> Guard {
        match self {
            Guard::True => Guard::True,
            Guard::False => Guard::False,
            Guard::AtLeast(a) => Guard::AtLeast(CountAtom {
                states: f(a.states),
                count: a.count,
            }),
            Guard::AtMost(a) => Guard::AtMost(CountAtom {
                states: f(a.states),
                count: a.count,
            }),
            Guard::Not(g) => Guard::Not(Box::new(g.map_states(f))),
            Guard::And(a, b) => Guard::And(Box::new(a.map_states(f)), Box::new(b.map_states(f))),
            Guard::Or(a, b) => Guard::Or(Box::new(a.map_states(f)), Box::new(b.map_states(f))),
        }
    }
}

fn mask_all(num_states: usize) -> u64 {
    if num_states >= 64 {
        u64::MAX
    } else {
        (1u64 << num_states) - 1
    }
}

fn set_count(counts: &[usize], states: u64) -> usize {
    counts
        .iter()
        .enumerate()
        .filter(|&(q, _)| states & (1u64 << q) != 0)
        .map(|(_, &c)| c)
        .sum()
}

/// A rooted tree whose nodes carry labels from `0..num_labels`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LabeledTree {
    tree: RootedTree,
    labels: Vec<usize>,
    num_labels: usize,
}

impl LabeledTree {
    /// Pairs a rooted tree with labels.
    ///
    /// Returns `None` if `labels` has the wrong length or a label is out
    /// of range.
    pub fn new(tree: RootedTree, labels: Vec<usize>, num_labels: usize) -> Option<Self> {
        if labels.len() != tree.num_nodes() || labels.iter().any(|&l| l >= num_labels) {
            return None;
        }
        Some(LabeledTree {
            tree,
            labels,
            num_labels,
        })
    }

    /// An unlabeled tree (every node labeled 0).
    pub fn unlabeled(tree: RootedTree) -> Self {
        let n = tree.num_nodes();
        LabeledTree {
            tree,
            labels: vec![0; n],
            num_labels: 1,
        }
    }

    /// The underlying rooted tree.
    pub fn tree(&self) -> &RootedTree {
        &self.tree
    }

    /// The label of node `v`.
    pub fn label(&self, v: NodeId) -> usize {
        self.labels[v.0]
    }

    /// Number of distinct labels.
    pub fn num_labels(&self) -> usize {
        self.num_labels
    }
}

/// An unranked–unordered bottom-up tree automaton with counting guards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreeAutomaton {
    num_states: usize,
    num_labels: usize,
    /// `guards[state][label]`.
    guards: Vec<Vec<Guard>>,
    accepting: Vec<bool>,
}

/// The most states a [`TreeAutomaton`] has: a state set is a `u64`
/// bitmask.
pub const MAX_STATES: usize = 64;

impl TreeAutomaton {
    /// Builds an automaton, validating dimensions and state references.
    ///
    /// Returns `None` on ragged guard tables, out-of-range states in
    /// atoms, or more than [`MAX_STATES`] states.
    pub fn new(
        num_states: usize,
        num_labels: usize,
        guards: Vec<Vec<Guard>>,
        accepting: Vec<bool>,
    ) -> Option<Self> {
        if num_states == 0
            || num_states > MAX_STATES
            || guards.len() != num_states
            || accepting.len() != num_states
        {
            return None;
        }
        for row in &guards {
            if row.len() != num_labels {
                return None;
            }
            for g in row {
                if let Some(ms) = g.max_state() {
                    if ms >= num_states {
                        return None;
                    }
                }
            }
        }
        Some(TreeAutomaton {
            num_states,
            num_labels,
            guards,
            accepting,
        })
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.num_states
    }

    /// Number of labels.
    pub fn num_labels(&self) -> usize {
        self.num_labels
    }

    /// Whether `state` accepts at the root.
    pub fn is_accepting(&self, state: usize) -> bool {
        self.accepting[state]
    }

    /// The guard of `(state, label)`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn guard(&self, state: usize, label: usize) -> &Guard {
        &self.guards[state][label]
    }

    /// The saturation cap: all guard constants are `≤ cap`, and counting
    /// to `cap` decides every atom.
    pub fn cap(&self) -> usize {
        self.guards
            .iter()
            .flatten()
            .map(Guard::max_constant)
            .max()
            .unwrap_or(0)
    }

    /// Checks a full run: `states[v]` for every node, local correctness at
    /// every node, acceptance at the root.
    pub fn is_accepting_run(&self, t: &LabeledTree, states: &[usize]) -> bool {
        if states.len() != t.tree().num_nodes() || t.num_labels() > self.num_labels {
            return false;
        }
        if states.iter().any(|&q| q >= self.num_states) {
            return false;
        }
        for v in 0..states.len() {
            let v = NodeId(v);
            let mut counts = vec![0usize; self.num_states];
            for &c in t.tree().children(v) {
                counts[states[c.0]] += 1;
            }
            if !self.guards[states[v.0]][t.label(v)].eval(&counts) {
                return false;
            }
        }
        self.accepting[states[t.tree().root().0]]
    }

    /// The set of feasible states for every node (bottom-up
    /// nondeterministic evaluation), as bitmasks.
    ///
    /// A state `q` is feasible at node `v` if the children can each pick a
    /// feasible state such that `δ(q, label(v))` holds on the resulting
    /// counts. The existential choice is decided by a DP over capped count
    /// vectors.
    pub fn feasible_states(&self, t: &LabeledTree) -> Vec<u64> {
        let mut feasible = vec![0u64; t.tree().num_nodes()];
        let mut layers = CountLayers::default();
        let cap = self.cap();
        for v in t.tree().postorder() {
            let kids = t.tree().children(v);
            layers.build(self.num_states, cap, kids, &feasible);
            let label = t.label(v);
            feasible[v.0] = (0..self.num_states)
                .filter(|&q| layers.any_last(&self.guards[q][label]))
                .fold(0, |mask, q| mask | (1u64 << q));
        }
        feasible
    }

    /// Whether the automaton accepts `t`.
    pub fn accepts(&self, t: &LabeledTree) -> bool {
        let feasible = self.feasible_states(t);
        let root = t.tree().root();
        (0..self.num_states).any(|q| feasible[root.0] & (1u64 << q) != 0 && self.accepting[q])
    }

    /// An accepting run (state per node), if one exists. This is exactly
    /// the certificate of Theorem 2.2.
    ///
    /// The run is the least accepting run when runs are compared
    /// lexicographically with the nodes read in breadth-first order
    /// (children in [`RootedTree::children`] order). Top-down, that is:
    /// the root takes its least feasible accepting state, and each node
    /// gives its children the lexicographically least tuple of feasible
    /// states that satisfies its own guard. Choices below different nodes
    /// are independent once their parents are fixed, so the greedy
    /// choice is the least run, and the result is a function of the
    /// automaton and the tree alone.
    pub fn accepting_run(&self, t: &LabeledTree) -> Option<Vec<usize>> {
        let n = t.tree().num_nodes();
        let feasible = self.feasible_states(t);
        let root = t.tree().root();
        let root_state = (0..self.num_states)
            .find(|&q| feasible[root.0] & (1u64 << q) != 0 && self.accepting[q])?;
        let mut states = vec![usize::MAX; n];
        states[root.0] = root_state;
        let mut order = t.tree().postorder();
        order.reverse(); // parents before children.
        let mut layers = CountLayers::default();
        let cap = self.cap();
        for v in order {
            let kids = t.tree().children(v);
            if kids.is_empty() {
                continue;
            }
            layers.build(self.num_states, cap, kids, &feasible);
            let guard = &self.guards[states[v.0]][t.label(v)];
            let chosen = layers.choose(guard, kids, &feasible, &mut states);
            assert!(chosen, "feasibility promised a satisfying choice");
        }
        debug_assert!(self.is_accepting_run(t, &states));
        Some(states)
    }

    /// Product automaton; `combine` merges acceptance.
    ///
    /// # Panics
    ///
    /// Panics if label counts differ or the product exceeds 64 states.
    pub fn product(
        &self,
        other: &TreeAutomaton,
        combine: impl Fn(bool, bool) -> bool,
    ) -> TreeAutomaton {
        assert_eq!(self.num_labels, other.num_labels, "label alphabet mismatch");
        let n = self.num_states * other.num_states;
        assert!(n <= 64, "product exceeds 64 states");
        let code = |a: usize, b: usize| a * other.num_states + b;
        // Atom rewriting: a set S of A-states becomes the set of product
        // states whose A-component is in S (and symmetrically).
        let lift_a = |s: u64| {
            let mut out = 0u64;
            for a in 0..self.num_states {
                if s & (1u64 << a) != 0 {
                    for b in 0..other.num_states {
                        out |= 1u64 << code(a, b);
                    }
                }
            }
            out
        };
        let lift_b = |s: u64| {
            let mut out = 0u64;
            for b in 0..other.num_states {
                if s & (1u64 << b) != 0 {
                    for a in 0..self.num_states {
                        out |= 1u64 << code(a, b);
                    }
                }
            }
            out
        };
        let mut guards = Vec::with_capacity(n);
        let mut accepting = vec![false; n];
        for a in 0..self.num_states {
            for b in 0..other.num_states {
                let mut row = Vec::with_capacity(self.num_labels);
                for l in 0..self.num_labels {
                    row.push(Guard::And(
                        Box::new(self.guards[a][l].map_states(&lift_a)),
                        Box::new(other.guards[b][l].map_states(&lift_b)),
                    ));
                }
                guards.push(row);
                accepting[code(a, b)] = combine(self.accepting[a], other.accepting[b]);
            }
        }
        TreeAutomaton {
            num_states: n,
            num_labels: self.num_labels,
            guards,
            accepting,
        }
    }

    /// Intersection of the recognized tree languages.
    pub fn intersect(&self, other: &TreeAutomaton) -> TreeAutomaton {
        self.product(other, |a, b| a && b)
    }

    /// Union of the recognized tree languages.
    ///
    /// Correct when both automata are complete (every tree has at least
    /// one run in each) — which [`TreeAutomaton::is_deterministic`]
    /// automata are; for incomplete nondeterministic automata use
    /// completion first.
    pub fn union_complete(&self, other: &TreeAutomaton) -> TreeAutomaton {
        self.product(other, |a, b| a || b)
    }

    /// Complement by flipping acceptance. **Only sound for deterministic
    /// complete automata** (checked in debug builds when feasible).
    pub fn complement_deterministic(&self) -> TreeAutomaton {
        let mut c = self.clone();
        for a in &mut c.accepting {
            *a = !*a;
        }
        c
    }

    /// Whether the automaton is deterministic and complete over *all*
    /// capped count vectors: for every label and every capped vector,
    /// exactly one state's guard holds.
    ///
    /// This is stronger than determinism on reachable configurations but
    /// is exactly the discipline the [`crate::library`] automata follow,
    /// and it licenses [`TreeAutomaton::complement_deterministic`] and
    /// [`TreeAutomaton::union_complete`].
    ///
    /// # Panics
    ///
    /// Panics if the enumeration `(cap+2)^{num_states}` exceeds `10^7`
    /// vectors.
    pub fn is_deterministic(&self) -> bool {
        let cap = self.cap();
        let base = cap + 2;
        let total = (base as f64).powi(self.num_states as i32);
        assert!(total <= 1e7, "determinism check domain too large");
        let mut vec = vec![0usize; self.num_states];
        loop {
            for l in 0..self.num_labels {
                let holds = (0..self.num_states)
                    .filter(|&q| self.guards[q][l].eval(&vec))
                    .count();
                if holds != 1 {
                    return false;
                }
            }
            // Increment the mixed-radix vector.
            let mut i = 0;
            loop {
                if i == self.num_states {
                    return true;
                }
                vec[i] += 1;
                if vec[i] < base {
                    break;
                }
                vec[i] = 0;
                i += 1;
            }
        }
    }
}

/// The states of `mask`, least first.
fn states_of(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let q = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            q
        })
    })
}

/// The layered count-vector DP of one node, on scratch that every node
/// reuses.
///
/// A node with `k` children counts, per state, the children carrying it,
/// saturated at `sat = min(cap + 1, k)`: a count never exceeds `k`, so
/// below `cap + 1` saturation never fires and above it the guards cannot
/// tell the difference. A count vector packs into `width` words of
/// `bits`-bit fields, state `q` in word `q / per_word` at bit
/// `(q % per_word) * bits`, so any automaton [`TreeAutomaton::new`]
/// accepts (up to 64 states, any cap) fits. Layer `i` is the set of
/// vectors the first `i` children reach, each child taking one of its
/// feasible states; it is sorted by words and deduplicated, so a vector
/// is found by binary search, and the layers of one node lie back to
/// back in one buffer.
#[derive(Debug, Default)]
struct CountLayers {
    bits: u32,
    per_word: usize,
    width: usize,
    sat: u64,
    /// Every layer's vectors, `width` words each.
    vecs: Vec<u64>,
    /// Layer `i` is vectors `starts[i]..starts[i + 1]`.
    starts: Vec<usize>,
    /// The candidates for the layer being built, then one vector being
    /// probed while a run is chosen.
    next: Vec<u64>,
    /// The candidates' sort order.
    order: Vec<u32>,
    /// Per vector: whether some completion of it satisfies the guard
    /// being chosen for.
    good: Vec<bool>,
}

impl CountLayers {
    /// Builds every layer of a node with children `kids`.
    fn build(&mut self, num_states: usize, cap: usize, kids: &[NodeId], feasible: &[u64]) {
        self.sat = cap.saturating_add(1).min(kids.len()) as u64;
        self.bits = (u64::BITS - self.sat.leading_zeros()).max(1);
        self.per_word = (u64::BITS / self.bits) as usize;
        self.width = num_states.div_ceil(self.per_word);
        self.vecs.clear();
        self.vecs.resize(self.width, 0);
        self.starts.clear();
        self.starts.extend([0, 1]);
        let w = self.width;
        for (i, &c) in kids.iter().enumerate() {
            self.next.clear();
            for j in self.starts[i]..self.starts[i + 1] {
                for q in states_of(feasible[c.0]) {
                    let at = self.next.len();
                    self.next.extend_from_slice(&self.vecs[j * w..(j + 1) * w]);
                    self.bump(at, q);
                }
            }
            self.push_layer();
        }
    }

    /// Adds one child in state `q` to the vector at word `at` of `next`.
    fn bump(&mut self, at: usize, q: usize) {
        let word = at + q / self.per_word;
        let shift = (q % self.per_word) as u32 * self.bits;
        if (self.next[word] >> shift) & self.field_mask() < self.sat {
            self.next[word] += 1 << shift;
        }
    }

    fn field_mask(&self) -> u64 {
        u64::MAX >> (u64::BITS - self.bits)
    }

    /// Sorts and deduplicates the candidates in `next` into a new layer.
    fn push_layer(&mut self) {
        let w = self.width;
        let next = &self.next;
        self.order.clear();
        self.order.extend(0..(next.len() / w) as u32);
        let vec = |i: u32| &next[i as usize * w..(i as usize + 1) * w];
        self.order.sort_unstable_by(|&a, &b| vec(a).cmp(vec(b)));
        let first = self.vecs.len();
        for &i in &self.order {
            if self.vecs.len() == first || self.vecs[self.vecs.len() - w..] != *vec(i) {
                self.vecs.extend_from_slice(vec(i));
            }
        }
        self.starts.push(self.vecs.len() / w);
    }

    /// The index of the last layer: the node's number of children.
    fn last(&self) -> usize {
        self.starts.len() - 2
    }

    fn vec(&self, j: usize) -> &[u64] {
        &self.vecs[j * self.width..(j + 1) * self.width]
    }

    /// The number of children whose state lies in `states`, in vector
    /// `vec`.
    fn count(&self, vec: &[u64], states: u64) -> usize {
        let mask = self.field_mask();
        states_of(states)
            .map(|q| {
                let shift = (q % self.per_word) as u32 * self.bits;
                ((vec[q / self.per_word] >> shift) & mask) as usize
            })
            .sum()
    }

    /// Whether some vector of the last layer satisfies `guard`.
    fn any_last(&self, guard: &Guard) -> bool {
        let last = self.last();
        (self.starts[last]..self.starts[last + 1]).any(|j| {
            let vec = self.vec(j);
            guard.holds(&|states| self.count(vec, states))
        })
    }

    /// The index in layer `i` of vector `j` plus one child in state `q`
    /// (it must be there: `j` is in layer `i - 1` and `q` feasible for
    /// child `i`).
    fn step(&mut self, j: usize, q: usize, i: usize) -> usize {
        let w = self.width;
        self.next.clear();
        self.next.extend_from_slice(&self.vecs[j * w..(j + 1) * w]);
        self.bump(0, q);
        let probe = &self.next[..w];
        let (mut lo, mut hi) = (self.starts[i], self.starts[i + 1]);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.vec(mid) < probe {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        debug_assert_eq!(self.vec(lo), probe, "successor missing from its layer");
        lo
    }

    /// Writes into `states` the lexicographically least tuple of feasible
    /// child states whose count vector satisfies `guard`; `false` when
    /// there is none. Needs the layers of `kids`.
    fn choose(
        &mut self,
        guard: &Guard,
        kids: &[NodeId],
        feasible: &[u64],
        states: &mut [usize],
    ) -> bool {
        let k = kids.len();
        self.good.clear();
        self.good.resize(self.starts[k + 1], false);
        for j in self.starts[k]..self.starts[k + 1] {
            let vec = self.vec(j);
            self.good[j] = guard.holds(&|states| self.count(vec, states));
        }
        // Backwards: a vector is good when some feasible state of the
        // next child leads to a good vector.
        for i in (0..k).rev() {
            for j in self.starts[i]..self.starts[i + 1] {
                self.good[j] = states_of(feasible[kids[i].0]).any(|q| {
                    let next = self.step(j, q, i + 1);
                    self.good[next]
                });
            }
        }
        if !self.good[0] {
            return false;
        }
        // Forwards: each child takes its least state that stays good.
        let mut cur = 0;
        for (i, &c) in kids.iter().enumerate() {
            (states[c.0], cur) = states_of(feasible[c.0])
                .find_map(|q| {
                    let next = self.step(cur, q, i + 1);
                    self.good[next].then_some((q, next))
                })
                .expect("a good vector has a good successor");
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{lcl, library};
    use locert_graph::{generators, Graph};
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    use std::collections::HashSet;

    /// The feasibility DP as it stood before the packed layers: one
    /// hash set of unpacked `u8` count vectors per child, counts
    /// saturating at `cap + 1` (so caps below 255 only).
    fn reference_feasible_states(a: &TreeAutomaton, t: &LabeledTree) -> Vec<u64> {
        let cap = a.cap();
        let mut feasible = vec![0u64; t.tree().num_nodes()];
        for v in t.tree().postorder() {
            let mut set: Vec<Vec<u8>> = vec![vec![0u8; a.num_states]];
            for &c in t.tree().children(v) {
                let mut next: HashSet<Vec<u8>> = HashSet::new();
                for vec in &set {
                    for q in 0..a.num_states {
                        if feasible[c.0] & (1u64 << q) != 0 {
                            let mut w = vec.clone();
                            w[q] = w[q].saturating_add(1).min(cap as u8 + 1);
                            next.insert(w);
                        }
                    }
                }
                set = next.into_iter().collect();
            }
            for q in 0..a.num_states {
                let guard = &a.guards[q][t.label(v)];
                if set
                    .iter()
                    .any(|vec| guard.eval(&vec.iter().map(|&x| x as usize).collect::<Vec<_>>()))
                {
                    feasible[v.0] |= 1u64 << q;
                }
            }
        }
        feasible
    }

    /// Every `library` automaton, one product, and the two-label
    /// solution automata of the `lcl` problems.
    fn automata_under_test() -> Vec<(&'static str, TreeAutomaton)> {
        vec![
            ("height-1", library::height_at_most(1)),
            ("height-4", library::height_at_most(4)),
            ("perfect-matching", library::has_perfect_matching()),
            ("max-children-2", library::max_children_at_most(2)),
            ("internal-at-least-2", library::all_internal_at_least(2)),
            ("uniform-leaves-5", library::uniform_leaf_depth(5)),
            ("leaf-at-depth-2", library::some_leaf_at_depth(2)),
            (
                "perfect-matching ∩ height-4",
                library::has_perfect_matching().intersect(&library::height_at_most(4)),
            ),
            ("mis", lcl::maximal_independent_set().solution_automaton()),
            (
                "2-coloring",
                lcl::proper_two_coloring().solution_automaton(),
            ),
        ]
    }

    #[test]
    fn packed_layers_agree_with_the_hash_set_reference() {
        let mut rng = StdRng::seed_from_u64(25);
        for (name, a) in automata_under_test() {
            for _ in 0..60 {
                let n = rng.random_range(1..=12usize);
                let g = generators::random_tree(n, &mut rng);
                let root = rng.random_range(0..n);
                let labels = (0..n)
                    .map(|_| rng.random_range(0..a.num_labels()))
                    .collect();
                let t = LabeledTree::new(rooted(&g, root), labels, a.num_labels()).unwrap();
                let expected = reference_feasible_states(&a, &t);
                assert_eq!(a.feasible_states(&t), expected, "{name} on {g:?}");
                let accepts = expected[root]
                    & (0..a.num_states())
                        .filter(|&q| a.is_accepting(q))
                        .fold(0, |m, q| m | (1u64 << q))
                    != 0;
                assert_eq!(a.accepts(&t), accepts, "{name} on {g:?}");
                match a.accepting_run(&t) {
                    Some(run) => {
                        assert!(accepts, "{name}: a run on a rejected tree");
                        assert!(a.is_accepting_run(&t, &run), "{name} on {g:?}");
                    }
                    None => assert!(!accepts, "{name}: no run on an accepted tree"),
                }
            }
        }
    }

    #[test]
    fn caps_past_a_byte_are_counted_exactly() {
        // "At least 300 children in state 0" — the saturation point does
        // not fit the reference's u8 counts.
        let g = Guard::AtLeast(CountAtom {
            states: 0b1,
            count: 300,
        });
        let a = TreeAutomaton::new(2, 1, vec![vec![Guard::leaf(2)], vec![g]], vec![false, true])
            .unwrap();
        assert_eq!(a.cap(), 300);
        let at = |n| LabeledTree::unlabeled(rooted(&generators::star(n), 0));
        assert!(!a.accepts(&at(300)), "299 leaves");
        assert!(a.accepts(&at(301)), "300 leaves");
        let run = a.accepting_run(&at(400)).unwrap();
        assert!(a.is_accepting_run(&at(400), &run));
    }

    #[test]
    fn many_states_span_several_words() {
        // 64 states with 2-bit counts need two words per vector.
        let product = library::some_leaf_at_depth(2).intersect(&library::height_at_most(15));
        assert_eq!(product.num_states(), 64);
        let t = LabeledTree::unlabeled(rooted(&generators::spider(4, 2), 0));
        assert_eq!(
            product.feasible_states(&t),
            reference_feasible_states(&product, &t)
        );
        let run = product.accepting_run(&t).unwrap();
        assert!(product.is_accepting_run(&t, &run));
    }

    #[test]
    fn accepting_run_is_the_least_run_every_call() {
        // Six legs of length 2: any leg may carry the marked path, so the
        // automaton has six accepting runs. The least one in breadth-first
        // order marks the hub's last child: among the hub's children
        // tuples, the one with its On₁ (state 2) last is the least.
        let a = library::some_leaf_at_depth(2);
        let t = LabeledTree::unlabeled(rooted(&generators::spider(6, 2), 0));
        let first = a.accepting_run(&t).unwrap();
        for _ in 0..50 {
            assert_eq!(a.accepting_run(&t).unwrap(), first);
        }
        assert_eq!(first, PINNED_SPIDER_RUN);
        assert!(a.is_accepting_run(&t, &first));
    }

    const PINNED_SPIDER_RUN: [usize; 13] = [3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 1];

    fn rooted(g: &Graph, r: usize) -> RootedTree {
        RootedTree::from_tree(g, NodeId(r)).unwrap()
    }

    /// Single-state automaton accepting every tree.
    fn accept_all() -> TreeAutomaton {
        TreeAutomaton::new(1, 1, vec![vec![Guard::True]], vec![true]).unwrap()
    }

    /// Two-state automaton: state 0 = leaf, state 1 = internal.
    fn leaf_or_internal() -> TreeAutomaton {
        let all = mask_all(2);
        TreeAutomaton::new(
            2,
            1,
            vec![
                vec![Guard::leaf(2)],
                vec![Guard::AtLeast(CountAtom {
                    states: all,
                    count: 1,
                })],
            ],
            vec![false, true],
        )
        .unwrap()
    }

    #[test]
    fn validation_rejects_bad_shapes() {
        assert!(TreeAutomaton::new(0, 1, vec![], vec![]).is_none());
        assert!(TreeAutomaton::new(1, 1, vec![vec![]], vec![true]).is_none());
        assert!(TreeAutomaton::new(
            1,
            1,
            vec![vec![Guard::AtLeast(CountAtom {
                states: 1 << 5,
                count: 1
            })]],
            vec![true]
        )
        .is_none());
    }

    #[test]
    fn accept_all_accepts() {
        let t = LabeledTree::unlabeled(rooted(&generators::star(5), 0));
        assert!(accept_all().accepts(&t));
    }

    #[test]
    fn leaf_or_internal_classifies_roots() {
        let a = leaf_or_internal();
        let single = LabeledTree::unlabeled(rooted(&Graph::empty(1), 0));
        assert!(!a.accepts(&single)); // root is a leaf: state 0, rejecting.
        let star = LabeledTree::unlabeled(rooted(&generators::star(4), 0));
        assert!(a.accepts(&star));
    }

    #[test]
    fn feasible_states_and_run_agree() {
        let a = leaf_or_internal();
        let t = LabeledTree::unlabeled(rooted(&generators::path(5), 0));
        let run = a.accepting_run(&t).unwrap();
        assert!(a.is_accepting_run(&t, &run));
        // Leaves get state 0, internals state 1.
        assert_eq!(run[4], 0);
        assert_eq!(run[0], 1);
    }

    #[test]
    fn is_accepting_run_rejects_corrupted_runs() {
        let a = leaf_or_internal();
        let t = LabeledTree::unlabeled(rooted(&generators::path(3), 0));
        let mut run = a.accepting_run(&t).unwrap();
        run[1] = 0; // middle vertex forged as leaf.
        assert!(!a.is_accepting_run(&t, &run));
        // Wrong length.
        assert!(!a.is_accepting_run(&t, &[1, 1]));
        // Out-of-range state.
        assert!(!a.is_accepting_run(&t, &[7, 0, 0]));
    }

    #[test]
    fn guard_eval_thresholds() {
        let g = Guard::exactly(0b01, 2);
        assert!(g.eval(&[2, 5]));
        assert!(!g.eval(&[1, 0]));
        assert!(!g.eval(&[3, 0]));
        let h = Guard::Or(
            Box::new(Guard::AtLeast(CountAtom {
                states: 0b10,
                count: 1,
            })),
            Box::new(Guard::AtMost(CountAtom {
                states: 0b11,
                count: 0,
            })),
        );
        assert!(h.eval(&[0, 1]));
        assert!(h.eval(&[0, 0]));
        assert!(!h.eval(&[1, 0]));
    }

    #[test]
    fn product_intersection() {
        // accept_all ∩ leaf_or_internal ≡ leaf_or_internal.
        let p = accept_all().intersect(&leaf_or_internal());
        for g in [generators::star(4), generators::path(6)] {
            let t = LabeledTree::unlabeled(rooted(&g, 0));
            assert_eq!(p.accepts(&t), leaf_or_internal().accepts(&t));
        }
    }

    #[test]
    fn deterministic_complement() {
        let a = leaf_or_internal();
        assert!(a.is_deterministic());
        let c = a.complement_deterministic();
        let single = LabeledTree::unlabeled(rooted(&Graph::empty(1), 0));
        assert!(c.accepts(&single));
        let star = LabeledTree::unlabeled(rooted(&generators::star(4), 0));
        assert!(!c.accepts(&star));
    }

    #[test]
    fn nondeterministic_automaton_guessing() {
        // Accepts trees with some leaf at depth exactly 2 below the root:
        // states: 0 = Off, 1 = On0 (chosen leaf), 2 = On1, 3 = On2 (root).
        let off = 0u64;
        let _ = off;
        let guards = vec![
            // Off: all children Off or On-chains not ending here — children
            // must all be Off (the marked path is unique and goes through
            // one chain).
            vec![Guard::AtMost(CountAtom {
                states: 0b1110,
                count: 0,
            })],
            // On0: a leaf.
            vec![Guard::leaf(4)],
            // On1: exactly one On0 child, no other On.
            vec![Guard::And(
                Box::new(Guard::exactly(0b0010, 1)),
                Box::new(Guard::AtMost(CountAtom {
                    states: 0b1100,
                    count: 0,
                })),
            )],
            // On2: exactly one On1 child, no other On.
            vec![Guard::And(
                Box::new(Guard::exactly(0b0100, 1)),
                Box::new(Guard::AtMost(CountAtom {
                    states: 0b1010,
                    count: 0,
                })),
            )],
        ];
        let a = TreeAutomaton::new(4, 1, guards, vec![false, false, false, true]).unwrap();
        // Star: all leaves at depth 1 → reject.
        let star = LabeledTree::unlabeled(rooted(&generators::star(5), 0));
        assert!(!a.accepts(&star));
        // Path of 3 rooted at an end: leaf at depth 2 → accept.
        let p3 = LabeledTree::unlabeled(rooted(&generators::path(3), 0));
        assert!(a.accepts(&p3));
        // Path of 4 rooted at an end: single leaf at depth 3 → reject.
        let p4 = LabeledTree::unlabeled(rooted(&generators::path(4), 0));
        assert!(!a.accepts(&p4));
        // Spider with legs of length 2: accept, and a run exists.
        let sp = LabeledTree::unlabeled(rooted(&generators::spider(3, 2), 0));
        assert!(a.accepts(&sp));
        let run = a.accepting_run(&sp).unwrap();
        assert!(a.is_accepting_run(&sp, &run));
    }

    #[test]
    fn labels_affect_acceptance() {
        // Accept iff the root's label is 1 (guards: state 0 only from
        // label-0 nodes, state 1 only from label-1 nodes).
        let guards = vec![
            vec![Guard::True, Guard::False],
            vec![Guard::False, Guard::True],
        ];
        let a = TreeAutomaton::new(2, 2, guards, vec![false, true]).unwrap();
        let tree = rooted(&generators::star(3), 0);
        let t1 = LabeledTree::new(tree.clone(), vec![1, 0, 0], 2).unwrap();
        assert!(a.accepts(&t1));
        let t0 = LabeledTree::new(tree, vec![0, 1, 1], 2).unwrap();
        assert!(!a.accepts(&t0));
    }

    #[test]
    fn labeled_tree_validation() {
        let tree = rooted(&generators::path(3), 0);
        assert!(LabeledTree::new(tree.clone(), vec![0, 1], 2).is_none());
        assert!(LabeledTree::new(tree.clone(), vec![0, 1, 5], 2).is_none());
        assert!(LabeledTree::new(tree, vec![0, 1, 1], 2).is_some());
    }

    #[test]
    fn cap_saturation_is_sound() {
        // Guard "at least 3 children in state 0" on a node with many
        // children: capped counting must still fire.
        let g = Guard::AtLeast(CountAtom {
            states: 0b1,
            count: 3,
        });
        let a = TreeAutomaton::new(2, 1, vec![vec![Guard::leaf(2)], vec![g]], vec![false, true])
            .unwrap();
        let big_star = LabeledTree::unlabeled(rooted(&generators::star(10), 0));
        assert!(a.accepts(&big_star));
        let small_star = LabeledTree::unlabeled(rooted(&generators::star(3), 0));
        assert!(!a.accepts(&small_star));
    }
}
