//! Fault injection: adversarial fault models beyond certificate mutation.
//!
//! The paper's soundness guarantee ("no certificate assignment makes a
//! no-instance accept", Section 3.3) is a robustness claim about the
//! verifier. The [`attacks`](crate::attacks) harness probes exactly one
//! adversarial surface — certificate contents. This module models the
//! richer faults a deployed proof-labeling scheme faces and *measures* how
//! reliably and how locally each scheme detects them:
//!
//! - **certificate faults**: bit flips, truncation, extension, replay of
//!   another vertex's certificate, zeroing;
//! - **node faults**: byzantine always-accept vertices that present garbage
//!   to their neighbors, duplicate-identifier injection;
//! - **view faults**: dropped or duplicated neighbor entries in a vertex's
//!   radius-1 view (lost / replayed messages).
//!
//! Faults compose through a seeded [`FaultPlan`]; [`inject`] derives a
//! [`FaultyWorld`] — a corrupted certificate assignment plus per-vertex
//! view overrides — *without mutating the honest instance*, and
//! [`run_with_faults`] replays verification against it. Two metrics come
//! out of a [`run_campaign`] sweep:
//!
//! - **detection rate**: the fraction of effective faulty runs in which at
//!   least one honest vertex rejects;
//! - **rejection locality**: the BFS distance from the fault site to the
//!   nearest rejecting vertex (0 = the faulted vertex itself rejects).

use crate::bits::{BitReader, BitWriter, Certificate};
use crate::framework::{with_scratch, Assignment, Instance, RejectReason, Verifier};
use locert_graph::{traversal, Ident, NodeId};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::BTreeMap;
use std::fmt;

/// One adversarial fault model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultModel {
    /// Flip one uniformly random bit of the site's certificate.
    BitFlip,
    /// Drop a random non-empty suffix of the site's certificate.
    Truncate,
    /// Append 1–8 random bits to the site's certificate.
    Extend,
    /// Replace the site's certificate with a random other vertex's
    /// (certificate replay).
    Replay,
    /// Swap the certificates of the site and a random other vertex.
    Swap,
    /// Zero every bit of the site's certificate, keeping its length.
    ZeroCert,
    /// The site accepts unconditionally and presents uniformly random
    /// certificate bits (same length as its honest certificate) to its
    /// neighbors.
    ByzantineAccept,
    /// The site presents a random other vertex's identifier (identifier
    /// collision).
    DuplicateId,
    /// The site's view loses one random neighbor entry (lost message).
    DropNeighbor,
    /// The site's view sees one random neighbor entry twice (replayed
    /// message).
    DuplicateNeighbor,
}

impl FaultModel {
    /// Every model, in campaign-sweep order.
    pub const ALL: [FaultModel; 10] = [
        FaultModel::BitFlip,
        FaultModel::Truncate,
        FaultModel::Extend,
        FaultModel::Replay,
        FaultModel::Swap,
        FaultModel::ZeroCert,
        FaultModel::ByzantineAccept,
        FaultModel::DuplicateId,
        FaultModel::DropNeighbor,
        FaultModel::DuplicateNeighbor,
    ];

    /// Stable short name (table column key).
    pub fn name(self) -> &'static str {
        match self {
            FaultModel::BitFlip => "bit-flip",
            FaultModel::Truncate => "truncate",
            FaultModel::Extend => "extend",
            FaultModel::Replay => "replay",
            FaultModel::Swap => "swap",
            FaultModel::ZeroCert => "zero-cert",
            FaultModel::ByzantineAccept => "byzantine",
            FaultModel::DuplicateId => "dup-id",
            FaultModel::DropNeighbor => "drop-nbr",
            FaultModel::DuplicateNeighbor => "dup-nbr",
        }
    }
}

impl fmt::Display for FaultModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One concrete fault: a model applied at a site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fault {
    /// The fault model.
    pub model: FaultModel,
    /// The vertex the fault strikes.
    pub site: NodeId,
}

/// A deterministic, composable set of faults. The same plan (same seed,
/// same faults in the same order) always injects the same corruption.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    seed: u64,
    faults: Vec<Fault>,
}

impl FaultPlan {
    /// An empty plan (injecting it reproduces the honest world).
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            faults: Vec::new(),
        }
    }

    /// Adds a fault; order matters (later faults see earlier corruption).
    #[must_use]
    pub fn with_fault(mut self, model: FaultModel, site: NodeId) -> Self {
        self.faults.push(Fault { model, site });
        self
    }

    /// A single fault at a seed-derived site of an `n`-vertex graph.
    pub fn single_at_random_site(model: FaultModel, n: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xFA01_7B1A_DEAD_BEEF);
        let site = NodeId(if n == 0 { 0 } else { rng.random_range(0..n) });
        FaultPlan::new(seed).with_fault(model, site)
    }

    /// The planned faults.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// The distinct fault sites, in plan order.
    pub fn sites(&self) -> Vec<NodeId> {
        let mut sites: Vec<NodeId> = Vec::new();
        for f in &self.faults {
            if !sites.contains(&f.site) {
                sites.push(f.site);
            }
        }
        sites
    }
}

/// The corrupted world an injection produces: certificates plus per-vertex
/// view overrides. The honest instance and assignment are left untouched.
#[derive(Debug, Clone)]
pub struct FaultyWorld {
    certs: Assignment,
    byzantine: Vec<bool>,
    presented_id: Vec<Ident>,
    drop_neighbor: Vec<Option<usize>>,
    dup_neighbor: Vec<Option<usize>>,
    effective: bool,
}

impl FaultyWorld {
    /// The corrupted certificate assignment.
    pub fn certs(&self) -> &Assignment {
        &self.certs
    }

    /// Whether `v` is byzantine (accepts unconditionally).
    pub fn is_byzantine(&self, v: NodeId) -> bool {
        self.byzantine.get(v.0).copied().unwrap_or(false)
    }

    /// Whether any fault actually changed observable state. A bit flip on
    /// an empty certificate, for instance, is a no-op: counting such runs
    /// as "undetected" would understate detection rates.
    pub fn is_effective(&self) -> bool {
        self.effective
    }

    /// The identifier `v` presents to its neighbors (differs from the
    /// honest one under identifier faults). Transport layers that carry
    /// `(id, certificate)` frames — `locert-net` — must source the id
    /// here, not from the honest assignment, so identifier faults survive
    /// the trip across the wire.
    pub fn presented_ident(&self, v: NodeId) -> Ident {
        self.presented_id[v.0]
    }

    /// Applies `v`'s neighbor-entry faults to its neighbor list: a
    /// replayed entry is appended first, then a lost entry is removed.
    /// Every view of a faulty world — [`run_with_faults`] and transport
    /// layers such as `locert-net` — goes through this one rule.
    pub fn apply_entry_faults<T: Copy>(&self, v: NodeId, neighbors: &mut Vec<T>) {
        if let Some(i) = self.dup_neighbor[v.0] {
            if i < neighbors.len() {
                neighbors.push(neighbors[i]);
            }
        }
        if let Some(i) = self.drop_neighbor[v.0] {
            if i < neighbors.len() {
                neighbors.remove(i);
            }
        }
    }
}

/// Applies `plan` to the honest world, producing a [`FaultyWorld`].
/// Deterministic in `(instance, honest, plan)`. The faulty world starts
/// from what [`Assignment::cert`] reads at each vertex: empty where a
/// short `honest` does not reach.
pub fn inject(instance: &Instance<'_>, honest: &Assignment, plan: &FaultPlan) -> FaultyWorld {
    let n = instance.graph().num_nodes();
    let mut world = FaultyWorld {
        certs: Assignment::from_unpacked((0..n).map(|v| honest.cert(NodeId(v)).clone()).collect()),
        byzantine: vec![false; n],
        presented_id: (0..n).map(|v| instance.ids().ident(NodeId(v))).collect(),
        drop_neighbor: vec![None; n],
        dup_neighbor: vec![None; n],
        effective: false,
    };
    let mut rng = StdRng::seed_from_u64(plan.seed);
    for fault in &plan.faults {
        let v = fault.site;
        if v.0 >= n {
            continue;
        }
        match fault.model {
            FaultModel::BitFlip => {
                let len = world.certs.cert(v).len_bits();
                if len > 0 {
                    let bit = rng.random_range(0..len);
                    *world.certs.cert_mut(v) = world.certs.cert(v).with_bit_flipped(bit);
                    world.effective = true;
                }
            }
            FaultModel::Truncate => {
                let len = world.certs.cert(v).len_bits();
                if len > 0 {
                    let keep = rng.random_range(0..len);
                    let prefix = BitReader::new(world.certs.cert(v)).read_cert(keep);
                    *world.certs.cert_mut(v) = prefix.expect("keep < len");
                    world.effective = true;
                }
            }
            FaultModel::Extend => {
                let extra = rng.random_range(1..=8usize);
                let mut w = BitWriter::new();
                w.write_cert(world.certs.cert(v));
                for _ in 0..extra {
                    w.write_bit(rng.random_bool(0.5));
                }
                *world.certs.cert_mut(v) = w.finish();
                world.effective = true;
            }
            FaultModel::Replay => {
                if let Some(u) = other_vertex(n, v, &mut rng) {
                    let replayed = world.certs.cert(u).clone();
                    if replayed != *world.certs.cert(v) {
                        world.effective = true;
                    }
                    *world.certs.cert_mut(v) = replayed;
                }
            }
            FaultModel::Swap => {
                if let Some(u) = other_vertex(n, v, &mut rng) {
                    let cv = world.certs.cert(v).clone();
                    let cu = world.certs.cert(u).clone();
                    if cv != cu {
                        world.effective = true;
                    }
                    *world.certs.cert_mut(v) = cu;
                    *world.certs.cert_mut(u) = cv;
                }
            }
            FaultModel::ZeroCert => {
                let len = world.certs.cert(v).len_bits();
                let zeroed = Certificate::from_bytes(vec![0; len.div_ceil(8)], len);
                let zeroed = zeroed.expect("zero padding");
                if zeroed != *world.certs.cert(v) {
                    world.effective = true;
                }
                *world.certs.cert_mut(v) = zeroed;
            }
            FaultModel::ByzantineAccept => {
                let len = world.certs.cert(v).len_bits();
                let mut w = BitWriter::new();
                for _ in 0..len {
                    w.write_bit(rng.random_bool(0.5));
                }
                *world.certs.cert_mut(v) = w.finish();
                world.byzantine[v.0] = true;
                world.effective = true;
            }
            FaultModel::DuplicateId => {
                if let Some(u) = other_vertex(n, v, &mut rng) {
                    world.presented_id[v.0] = instance.ids().ident(u);
                    world.effective = true;
                }
            }
            FaultModel::DropNeighbor => {
                let deg = instance.graph().degree(v);
                if deg > 0 {
                    world.drop_neighbor[v.0] = Some(rng.random_range(0..deg));
                    world.effective = true;
                }
            }
            FaultModel::DuplicateNeighbor => {
                let deg = instance.graph().degree(v);
                if deg > 0 {
                    world.dup_neighbor[v.0] = Some(rng.random_range(0..deg));
                    world.effective = true;
                }
            }
        }
    }
    world
}

fn other_vertex(n: usize, v: NodeId, rng: &mut StdRng) -> Option<NodeId> {
    if n < 2 {
        return None;
    }
    let pick = rng.random_range(0..n - 1);
    Some(NodeId(if pick >= v.0 { pick + 1 } else { pick }))
}

/// One rejection in a faulty world, linked back to its provenance: which
/// vertex rejected, why, and how far it sits from the nearest fault site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Detection {
    /// The rejecting (honest) vertex.
    pub vertex: NodeId,
    /// The verifier's rejection reason at that vertex.
    pub reason: RejectReason,
    /// BFS distance from the nearest fault site to the detector; `None`
    /// when no site reaches it (or the plan was empty).
    pub distance: Option<usize>,
}

/// The outcome of verifying a faulty world.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultOutcome {
    /// Honest (non-byzantine) vertices that rejected.
    pub rejecting: Vec<NodeId>,
    /// Per-rejector provenance (same order as `rejecting`).
    pub detections: Vec<Detection>,
    /// Whether any fault changed observable state (see
    /// [`FaultyWorld::is_effective`]).
    pub effective: bool,
    /// BFS distance from the nearest fault site to the nearest rejecting
    /// vertex; `None` when nothing rejected (or the plan was empty).
    pub locality: Option<usize>,
}

impl FaultOutcome {
    /// Whether the fault was detected: at least one honest vertex rejects.
    pub fn detected(&self) -> bool {
        !self.rejecting.is_empty()
    }
}

/// Injects `plan` and runs the verifier at every vertex of the faulty
/// world. Byzantine vertices accept unconditionally; detection therefore
/// means an *honest* vertex rejected. Never panics on arbitrary plans —
/// corrupted certificates flow through the total decode paths.
pub fn run_with_faults(
    verifier: &dyn Verifier,
    instance: &Instance<'_>,
    honest: &Assignment,
    plan: &FaultPlan,
) -> FaultOutcome {
    let _span = locert_trace::span!("core.faults.run_with_faults");
    if locert_trace::enabled() {
        locert_trace::add("core.faults.injections", plan.faults().len() as u64);
    }
    let world = inject(instance, honest, plan);
    for fault in plan.faults() {
        locert_trace::journal::record_with(|| locert_trace::journal::Event::FaultInjected {
            model: fault.model.name().to_string(),
            site: fault.site.0 as u64,
            effective: world.is_effective(),
        });
    }
    // Each vertex's view of the faulty world: corrupted certificates,
    // presented (possibly duplicated) identifiers, and the site's dropped
    // or duplicated neighbor entries.
    let g = instance.graph();
    let certs: Vec<Certificate> = g.nodes().map(|v| world.certs.cert(v).clone()).collect();
    let prepared = verifier.prepare(&certs);
    let mut rejecting = Vec::new();
    let mut reasons = Vec::new();
    with_scratch(|neighbors: &mut Vec<(Ident, usize, usize)>| {
        for v in g.nodes() {
            if world.is_byzantine(v) {
                continue;
            }
            neighbors.clear();
            neighbors.extend(
                g.neighbors(v)
                    .iter()
                    .map(|&u| (world.presented_id[u.0], instance.input(u), u.0)),
            );
            world.apply_entry_faults(v, neighbors);
            let decided =
                prepared.decide(world.presented_id[v.0], instance.input(v), v.0, neighbors);
            if let Err(reason) = decided {
                rejecting.push(v);
                reasons.push(reason);
            }
        }
    });
    // Provenance: distance from each detector to its nearest fault site
    // (one BFS per in-range site; campaign plans have exactly one).
    let sites: Vec<NodeId> = plan
        .sites()
        .into_iter()
        .filter(|s| s.0 < instance.graph().num_nodes())
        .collect();
    let site_dists: Vec<Vec<Option<usize>>> = if rejecting.is_empty() {
        Vec::new()
    } else {
        sites
            .iter()
            .map(|&s| traversal::bfs_distances(instance.graph(), s))
            .collect()
    };
    let detections: Vec<Detection> = rejecting
        .iter()
        .zip(&reasons)
        .map(|(&v, &reason)| {
            let (distance, nearest_site) = site_dists
                .iter()
                .zip(&sites)
                .filter_map(|(dists, &s)| dists[v.0].map(|d| (d, s)))
                .min()
                .map(|(d, s)| (Some(d), Some(s)))
                .unwrap_or((None, None));
            locert_trace::journal::record_with(|| locert_trace::journal::Event::Detection {
                model: plan
                    .faults()
                    .iter()
                    .find(|f| Some(f.site) == nearest_site)
                    .or_else(|| plan.faults().first())
                    .map_or_else(|| "none".to_string(), |f| f.model.name().to_string()),
                site: nearest_site
                    .or_else(|| sites.first().copied())
                    .map_or(0, |s| s.0 as u64),
                detector: v.0 as u64,
                reason: reason.code().to_string(),
                distance: distance.map(|d| d as u64),
            });
            Detection {
                vertex: v,
                reason,
                distance,
            }
        })
        .collect();
    let locality = detections.iter().filter_map(|d| d.distance).min();
    FaultOutcome {
        rejecting,
        detections,
        effective: world.is_effective(),
        locality,
    }
}

/// Aggregate statistics of a detection campaign.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CampaignStats {
    /// Runs in which the injected fault actually changed state.
    pub effective_runs: usize,
    /// Runs skipped because the fault was a no-op on this instance.
    pub noop_runs: usize,
    /// Effective runs in which at least one honest vertex rejected.
    pub detected: usize,
    /// Sum of rejection localities over detected runs.
    pub locality_sum: usize,
    /// Tally of rejection reasons over every detection in effective runs
    /// (a run with several rejectors contributes several counts).
    pub reasons: BTreeMap<RejectReason, usize>,
    /// Tally of fault-site-to-detector BFS distances over every detection
    /// that is reachable from a fault site.
    pub distances: BTreeMap<usize, usize>,
}

impl CampaignStats {
    /// Detected fraction of effective runs (1.0 when nothing was
    /// effective, vacuously).
    pub fn detection_rate(&self) -> f64 {
        if self.effective_runs == 0 {
            1.0
        } else {
            self.detected as f64 / self.effective_runs as f64
        }
    }

    /// Mean BFS distance from fault site to nearest rejecting vertex over
    /// detected runs.
    pub fn mean_locality(&self) -> Option<f64> {
        if self.detected == 0 {
            None
        } else {
            Some(self.locality_sum as f64 / self.detected as f64)
        }
    }

    /// The most frequent rejection reason (ties break toward the
    /// `RejectReason` ordering), with its count.
    pub fn dominant_reason(&self) -> Option<(RejectReason, usize)> {
        self.reasons
            .iter()
            .max_by_key(|&(_, &count)| count)
            .map(|(&r, &count)| (r, count))
    }
}

/// Sweeps `runs` single-fault plans of `model` (seeded `base_seed..`) over
/// the instance and aggregates detection rate and rejection locality.
pub fn run_campaign(
    verifier: &dyn Verifier,
    instance: &Instance<'_>,
    honest: &Assignment,
    model: FaultModel,
    runs: usize,
    base_seed: u64,
) -> CampaignStats {
    let _span = locert_trace::span!("core.faults.run_campaign");
    let n = instance.graph().num_nodes();
    let mut stats = CampaignStats::default();
    // Rounds are independent (each derives its plan from `base_seed + r`),
    // so they run in parallel; every round captures its journal events
    // locally and the flush below appends them in round order — the
    // journal is byte-identical to a sequential sweep at any worker
    // count. Stats merge in round order too, so tallies never depend on
    // the schedule.
    let rounds = locert_par::global().par_map_collect(runs, |r| {
        locert_trace::journal::capture(|| {
            // The run index is deterministic (it seeds the plan), so the
            // round mark can carry it — windowing readers get numbered
            // rounds even though the rounds execute out of order.
            locert_trace::journal::record_with(|| locert_trace::journal::Event::RoundMark {
                scope: "core.faults.campaign".to_string(),
                round: Some(r as u64),
            });
            let plan = FaultPlan::single_at_random_site(model, n, base_seed.wrapping_add(r as u64));
            let outcome = run_with_faults(verifier, instance, honest, &plan);
            locert_trace::journal::record_with(|| locert_trace::journal::Event::CampaignRound {
                model: model.name().to_string(),
                run: r as u64,
                detected: outcome.detected(),
                locality: outcome.locality.map(|d| d as u64),
            });
            outcome
        })
    });
    for (outcome, events) in rounds {
        locert_trace::journal::append_events(events);
        if !outcome.effective {
            stats.noop_runs += 1;
            continue;
        }
        stats.effective_runs += 1;
        if outcome.detected() {
            stats.detected += 1;
            stats.locality_sum += outcome.locality.unwrap_or(0);
        }
        for d in &outcome.detections {
            *stats.reasons.entry(d.reason).or_insert(0) += 1;
            if let Some(dist) = d.distance {
                *stats.distances.entry(dist).or_insert(0) += 1;
            }
        }
    }
    if locert_trace::enabled() {
        locert_trace::add("core.faults.campaign.runs", runs as u64);
        locert_trace::add(
            "core.faults.campaign.effective",
            stats.effective_runs as u64,
        );
        locert_trace::add("core.faults.campaign.noop", stats.noop_runs as u64);
        locert_trace::add("core.faults.campaign.detected", stats.detected as u64);
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::test_views::ViewProbe;
    use crate::framework::{run_verification, Prover};
    use crate::schemes::acyclicity::AcyclicityScheme;
    use crate::schemes::spanning_tree::VertexCountScheme;
    use locert_graph::{generators, IdAssignment};

    fn tree_instance(n: usize) -> (locert_graph::Graph, IdAssignment) {
        (generators::path(n), IdAssignment::contiguous(n))
    }

    #[test]
    fn empty_plan_reproduces_honest_world() {
        let (g, ids) = tree_instance(8);
        let inst = Instance::new(&g, &ids);
        let scheme = AcyclicityScheme::new(4);
        let honest = scheme.assign(&inst).unwrap();
        let outcome = run_with_faults(&scheme, &inst, &honest, &FaultPlan::new(7));
        assert!(!outcome.detected());
        assert!(!outcome.effective);
        assert_eq!(outcome.locality, None);
        // And the honest assignment is untouched by injection.
        assert!(run_verification(&scheme, &inst, &honest).accepted());
    }

    #[test]
    fn short_honest_assignments_are_padded_not_panicked_on() {
        // Sites 2 and 3 lie past the end of a 2-vertex assignment on a
        // 4-vertex path; every model must corrupt the padding instead.
        let (g, ids) = tree_instance(4);
        let inst = Instance::new(&g, &ids);
        let scheme = AcyclicityScheme::new(4);
        let short = Assignment::empty(2);
        let full = Assignment::empty(4);
        for model in FaultModel::ALL {
            for site in 0..4 {
                let plan = FaultPlan::new(5).with_fault(model, NodeId(site));
                assert_eq!(
                    run_with_faults(&scheme, &inst, &short, &plan),
                    run_with_faults(&scheme, &inst, &full, &plan),
                    "model {model} at site {site}"
                );
            }
        }
    }

    #[test]
    fn injection_is_deterministic() {
        let (g, ids) = tree_instance(10);
        let inst = Instance::new(&g, &ids);
        let scheme = AcyclicityScheme::new(4);
        let honest = scheme.assign(&inst).unwrap();
        for model in FaultModel::ALL {
            let plan = FaultPlan::single_at_random_site(model, 10, 99);
            let a = run_with_faults(&scheme, &inst, &honest, &plan);
            let b = run_with_faults(&scheme, &inst, &honest, &plan);
            assert_eq!(a, b, "model {model} not deterministic");
        }
    }

    #[test]
    fn bit_flips_on_trees_are_detected() {
        let (g, ids) = tree_instance(9);
        let inst = Instance::new(&g, &ids);
        let scheme = AcyclicityScheme::new(4);
        let honest = scheme.assign(&inst).unwrap();
        let stats = run_campaign(&scheme, &inst, &honest, FaultModel::BitFlip, 60, 0xB17);
        assert!(stats.effective_runs > 0);
        assert_eq!(
            stats.detection_rate(),
            1.0,
            "undetected bit flips: {stats:?}"
        );
    }

    #[test]
    fn byzantine_vertex_is_excluded_from_detection() {
        let (g, ids) = tree_instance(6);
        let inst = Instance::new(&g, &ids);
        let scheme = AcyclicityScheme::new(4);
        let honest = scheme.assign(&inst).unwrap();
        let plan = FaultPlan::new(3).with_fault(FaultModel::ByzantineAccept, NodeId(2));
        let outcome = run_with_faults(&scheme, &inst, &honest, &plan);
        assert!(
            !outcome.rejecting.contains(&NodeId(2)),
            "byzantine vertex must not be counted as a rejector"
        );
    }

    #[test]
    fn locality_is_distance_to_nearest_rejector() {
        // VertexCountScheme: zeroing the certificate at an endpoint of a
        // path must be noticed by the endpoint itself or its neighbor.
        let (g, ids) = tree_instance(8);
        let inst = Instance::new(&g, &ids);
        let scheme = VertexCountScheme::new(4, 8);
        let honest = scheme.assign(&inst).unwrap();
        let plan = FaultPlan::new(11).with_fault(FaultModel::ZeroCert, NodeId(0));
        let outcome = run_with_faults(&scheme, &inst, &honest, &plan);
        assert!(outcome.detected());
        assert!(
            outcome.locality.unwrap() <= 1,
            "zeroed endpoint detected {}-far",
            outcome.locality.unwrap()
        );
    }

    #[test]
    fn detections_carry_reason_and_site_distance() {
        // Zero an endpoint's VertexCount certificate: every detection
        // names a reason and a BFS distance back to the fault site, and
        // the locality equals the nearest detection's distance.
        let (g, ids) = tree_instance(8);
        let inst = Instance::new(&g, &ids);
        let scheme = VertexCountScheme::new(4, 8);
        let honest = scheme.assign(&inst).unwrap();
        let plan = FaultPlan::new(11).with_fault(FaultModel::ZeroCert, NodeId(0));
        let outcome = run_with_faults(&scheme, &inst, &honest, &plan);
        assert!(outcome.detected());
        assert_eq!(outcome.detections.len(), outcome.rejecting.len());
        for (d, &v) in outcome.detections.iter().zip(&outcome.rejecting) {
            assert_eq!(d.vertex, v);
            // On a path every vertex is reachable from the site.
            assert_eq!(d.distance, Some(v.0), "distance from site 0 on a path");
        }
        assert_eq!(
            outcome.locality,
            outcome.detections.iter().filter_map(|d| d.distance).min()
        );
        // Campaign tallies aggregate those reasons.
        let stats = run_campaign(&scheme, &inst, &honest, FaultModel::ZeroCert, 20, 0xD1);
        assert!(stats.detected > 0);
        assert!(!stats.reasons.is_empty());
        let (_, count) = stats.dominant_reason().unwrap();
        assert!(count >= 1);
        assert!(
            stats.reasons.values().sum::<usize>() >= stats.detected,
            "every detected run contributes at least one reason"
        );
    }

    #[test]
    fn composed_plans_apply_in_order() {
        let (g, ids) = tree_instance(6);
        let inst = Instance::new(&g, &ids);
        let scheme = AcyclicityScheme::new(4);
        let honest = scheme.assign(&inst).unwrap();
        let plan = FaultPlan::new(5)
            .with_fault(FaultModel::ZeroCert, NodeId(1))
            .with_fault(FaultModel::Extend, NodeId(4))
            .with_fault(FaultModel::DuplicateId, NodeId(2));
        let world = inject(&inst, &honest, &plan);
        assert!(world.is_effective());
        assert_eq!(plan.sites(), vec![NodeId(1), NodeId(4), NodeId(2)]);
        // The duplicated id really is presented by vertex 2 in a
        // neighbor's view.
        let probe = ViewProbe::default();
        run_with_faults(&probe, &inst, &honest, &plan);
        let (_, _, neighbors) = &probe.0.into_inner().unwrap()[3];
        assert!(neighbors
            .iter()
            .any(|&(id, _, _)| id == world.presented_id[2]));
    }

    #[test]
    fn view_faults_change_degree() {
        let (g, ids) = tree_instance(5);
        let inst = Instance::new(&g, &ids);
        let honest = Assignment::empty(5);
        // Each vertex's degree as the faulty world shows it.
        let degrees = |plan: &FaultPlan| -> Vec<usize> {
            let probe = ViewProbe::default();
            run_with_faults(&probe, &inst, &honest, plan);
            let seen = probe.0.into_inner().unwrap();
            seen.iter()
                .map(|(_, _, neighbors)| neighbors.len())
                .collect()
        };
        let drop = FaultPlan::new(1).with_fault(FaultModel::DropNeighbor, NodeId(2));
        assert_eq!(degrees(&drop)[2], 1);
        let dup = FaultPlan::new(1).with_fault(FaultModel::DuplicateNeighbor, NodeId(2));
        let dup_degrees = degrees(&dup);
        assert_eq!(dup_degrees[2], 3);
        // Other vertices' views are untouched.
        assert_eq!(dup_degrees[1], 2);
    }

    #[test]
    fn noop_faults_are_counted_separately() {
        // Empty certificates: bit flips and truncations can't change
        // anything.
        let (g, ids) = tree_instance(4);
        let inst = Instance::new(&g, &ids);
        let honest = Assignment::empty(4);
        let stats = run_campaign(
            &ViewProbe::default(),
            &inst,
            &honest,
            FaultModel::BitFlip,
            10,
            1,
        );
        assert_eq!(stats.effective_runs, 0);
        assert_eq!(stats.noop_runs, 10);
        assert_eq!(stats.detection_rate(), 1.0); // vacuous
        assert_eq!(stats.mean_locality(), None);
    }

    #[test]
    fn plans_survive_out_of_range_sites() {
        let (g, ids) = tree_instance(4);
        let inst = Instance::new(&g, &ids);
        let scheme = AcyclicityScheme::new(4);
        let honest = scheme.assign(&inst).unwrap();
        let plan = FaultPlan::new(2).with_fault(FaultModel::BitFlip, NodeId(99));
        let outcome = run_with_faults(&scheme, &inst, &honest, &plan);
        assert!(!outcome.effective);
        assert!(!outcome.detected());
    }

    #[test]
    fn swap_and_replay_differ() {
        let (g, ids) = tree_instance(6);
        let inst = Instance::new(&g, &ids);
        let scheme = VertexCountScheme::new(4, 6);
        let honest = scheme.assign(&inst).unwrap();
        let swap = FaultPlan::new(21).with_fault(FaultModel::Swap, NodeId(1));
        let world_swap = inject(&inst, &honest, &swap);
        // A swap conserves the certificate multiset; replay does not
        // necessarily.
        let mut honest_bits: Vec<usize> =
            (0..6).map(|v| honest.cert(NodeId(v)).len_bits()).collect();
        let mut swapped_bits: Vec<usize> = (0..6)
            .map(|v| world_swap.certs().cert(NodeId(v)).len_bits())
            .collect();
        honest_bits.sort_unstable();
        swapped_bits.sort_unstable();
        assert_eq!(honest_bits, swapped_bits);
    }

    #[test]
    fn campaigns_against_arena_backed_assignments_are_cow() {
        // Honest assignments are arena-backed (every certificate is a view
        // into one shared buffer). Fault injection mutates certificates via
        // copy-on-write: the faulty world must never write through the
        // shared arena, so the honest assignment stays bit-identical across
        // an entire campaign.
        let (g, ids) = tree_instance(9);
        let inst = Instance::new(&g, &ids);
        let scheme = AcyclicityScheme::new(4);
        let honest = scheme.assign(&inst).unwrap();
        assert!(
            (0..9).all(|v| honest.cert(NodeId(v)).is_view()),
            "honest assignment should be arena-backed"
        );
        let before: Vec<String> = (0..9).map(|v| honest.cert(NodeId(v)).to_hex()).collect();

        for model in FaultModel::ALL {
            let stats = run_campaign(&scheme, &inst, &honest, model, 25, 0xC0);
            // Sanity: campaigns ran without panicking on view-backed certs.
            assert_eq!(stats.effective_runs + stats.noop_runs, 25);
        }

        let after: Vec<String> = (0..9).map(|v| honest.cert(NodeId(v)).to_hex()).collect();
        assert_eq!(before, after, "fault campaign wrote through the arena");
        assert!(run_verification(&scheme, &inst, &honest).accepted());
    }

    #[test]
    fn bit_flip_on_view_matches_owned() {
        // with_bit_flipped must behave identically whether the certificate
        // owns its bytes or is a view into an assignment arena.
        let (g, ids) = tree_instance(5);
        let inst = Instance::new(&g, &ids);
        let scheme = AcyclicityScheme::new(4);
        let honest = scheme.assign(&inst).unwrap();
        let view = honest.cert(NodeId(2));
        assert!(view.is_view());
        let owned = Certificate::from_bytes(view.as_bytes().to_vec(), view.len_bits()).unwrap();
        assert!(!owned.is_view());
        for i in 0..view.len_bits() {
            let a = view.with_bit_flipped(i);
            let b = owned.with_bit_flipped(i);
            assert_eq!(a, b, "flip at bit {i} diverged between view and owned");
            assert!(!a.is_view(), "COW result must own its bytes");
        }
        // The view itself is untouched.
        assert_eq!(view.as_bytes(), owned.as_bytes());
    }
}
