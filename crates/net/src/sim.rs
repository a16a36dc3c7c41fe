//! The discrete-event network simulator.
//!
//! Every vertex runs as an event-driven node process. At start-up (and
//! after every restart) a node broadcasts a data frame — its presented
//! identifier, input, and certificate — to each neighbor, and keeps a
//! per-neighbor retransmit timer with exponential backoff and seeded
//! jitter until the frame is acknowledged. Received frames are stored
//! last-writer-wins (the self-stabilizing discipline: a later frame
//! always overwrites an earlier one), and a node re-decides its verdict
//! whenever its view changes. A node that exhausts its retry budget for
//! a neighbor degrades to [`Verdict::Inconclusive`] — it never hangs
//! and never rejects a neighbor merely for being silent, so unreliable
//! delivery alone can cause lost coverage but never a false alarm.
//!
//! Crash-restart bumps the node's *epoch*: the restarted node loses its
//! certificate and its received frames, and its new-epoch broadcast
//! tells each neighbor to re-arm its own retransmit chain (the ack it
//! holds is for a state the crashed node no longer has). Stale frames
//! from earlier epochs are discarded on arrival.
//!
//! Determinism contract: one logical clock, one event queue ordered by
//! `(time, seq)` where `seq` is the enqueue counter, and one seeded RNG
//! drawn exclusively during event processing — the simulation is a
//! single-threaded pure function of `(instance, assignment, plan,
//! policy)`, so campaigns parallelized over runs stay byte-identical at
//! any `locert-par` width.

use locert_core::faults::{self, FaultPlan, FaultyWorld};
use locert_core::framework::{Assignment, Instance, RejectReason, Verifier};
use locert_core::Certificate;
use locert_graph::{Ident, NodeId};
use locert_trace::journal::{self, Event};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::BTreeMap;

/// Logical simulation time (no wall clock anywhere in the crate).
pub type SimTime = u64;

/// Frame header overhead in bits (source + destination identifiers,
/// epoch, kind tag) charged to `bits_sent` on top of the certificate.
const HEADER_BITS: u64 = 64;

/// Hard ceiling on processed events, as a runaway backstop. The retry
/// budget already bounds every run; this is defense in depth.
const MAX_EVENTS: u64 = 50_000_000;

/// Per-neighbor retransmit policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Base retransmit timeout (the first wait).
    pub timeout: SimTime,
    /// Cap on the exponentially growing backoff interval.
    pub max_backoff: SimTime,
    /// Maximum seeded jitter added to every interval.
    pub jitter: SimTime,
    /// Retransmit budget per neighbor per epoch (beyond the initial
    /// send). After `retries + 1` expired timers the node gives up on
    /// that neighbor and degrades to [`Verdict::Inconclusive`].
    pub retries: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            timeout: 4,
            max_backoff: 64,
            jitter: 2,
            retries: 12,
        }
    }
}

impl RetryPolicy {
    /// The base (pre-jitter) wait before the `k`-th timer, `k >= 0`:
    /// `min(timeout · 2^k, max_backoff)`, saturating.
    fn backoff_base(&self, k: u32) -> SimTime {
        self.timeout
            .checked_shl(k.min(32))
            .unwrap_or(SimTime::MAX)
            .min(self.max_backoff)
            .max(1)
    }
}

/// Per-link fault rates. All probabilities are per transmission attempt.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkFaults {
    /// Probability a frame is silently discarded.
    pub drop: f64,
    /// Probability a frame is delivered twice.
    pub duplicate: f64,
    /// Probability one random certificate bit is flipped in transit
    /// (data frames with non-empty certificates only).
    pub corrupt: f64,
    /// Minimum extra delivery latency (on top of the unit hop).
    pub delay_min: SimTime,
    /// Maximum extra delivery latency; `> delay_min` lets frames
    /// overtake each other (reordering).
    pub delay_max: SimTime,
}

impl Default for LinkFaults {
    fn default() -> Self {
        LinkFaults {
            drop: 0.0,
            duplicate: 0.0,
            corrupt: 0.0,
            delay_min: 0,
            delay_max: 0,
        }
    }
}

/// A temporary partition: every listed edge is cut (both directions)
/// for sends in the half-open window `[from, until)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// Cut edges (unordered).
    pub edges: Vec<(NodeId, NodeId)>,
    /// First blocked instant.
    pub from: SimTime,
    /// First instant the partition has healed.
    pub until: SimTime,
}

/// A scheduled crash: the node goes down at `at`, losing its
/// certificate and every received frame, and (optionally) comes back at
/// `restart_at` with an empty certificate and a fresh epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashSchedule {
    /// The crashing vertex.
    pub node: NodeId,
    /// Crash instant.
    pub at: SimTime,
    /// Restart instant; `None` keeps the node down forever.
    pub restart_at: Option<SimTime>,
}

/// A composable network fault plan: link-level fault rates, partitions,
/// crash-restarts, and an optional [`locert_core::faults::FaultPlan`]
/// corrupting the *initial* certificate assignment (bit flips, replays,
/// byzantine nodes, identifier collisions) before the first frame is
/// ever sent.
#[derive(Debug, Clone, Default)]
pub struct NetFaultPlan {
    seed: u64,
    default_link: LinkFaults,
    links: BTreeMap<(usize, usize), LinkFaults>,
    partitions: Vec<Partition>,
    crashes: Vec<CrashSchedule>,
    cert_plan: Option<FaultPlan>,
}

impl NetFaultPlan {
    /// A zero-fault plan with the given RNG seed (the seed still feeds
    /// jitter draws, so it matters even without faults).
    pub fn new(seed: u64) -> Self {
        NetFaultPlan {
            seed,
            ..NetFaultPlan::default()
        }
    }

    /// Sets the fault rates applied to every link without an override.
    pub fn with_default_link(mut self, faults: LinkFaults) -> Self {
        self.default_link = faults;
        self
    }

    /// Overrides the fault rates of the directed link `src -> dst`.
    pub fn with_link(mut self, src: NodeId, dst: NodeId, faults: LinkFaults) -> Self {
        self.links.insert((src.0, dst.0), faults);
        self
    }

    /// Adds a temporary partition.
    pub fn with_partition(mut self, partition: Partition) -> Self {
        self.partitions.push(partition);
        self
    }

    /// Schedules a crash (and optional restart).
    pub fn with_crash(mut self, crash: CrashSchedule) -> Self {
        self.crashes.push(crash);
        self
    }

    /// Composes a certificate-level fault plan from
    /// [`locert_core::faults`]: it is injected into the initial
    /// assignment before the simulation starts, so identifier faults
    /// and byzantine behavior ride the same frames as honest state.
    pub fn with_cert_plan(mut self, plan: FaultPlan) -> Self {
        self.cert_plan = Some(plan);
        self
    }

    /// The plan's RNG seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    fn link(&self, src: usize, dst: usize) -> &LinkFaults {
        self.links.get(&(src, dst)).unwrap_or(&self.default_link)
    }

    fn partitioned(&self, a: usize, b: usize, t: SimTime) -> bool {
        self.partitions.iter().any(|p| {
            t >= p.from
                && t < p.until
                && p.edges
                    .iter()
                    .any(|&(u, v)| (u.0 == a && v.0 == b) || (u.0 == b && v.0 == a))
        })
    }
}

/// A node's network verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// The verifier accepted a complete radius-1 view.
    Accepted,
    /// The verifier rejected a complete radius-1 view.
    Rejected(RejectReason),
    /// The view never completed within the retry budget: the node
    /// degrades gracefully instead of hanging or guessing.
    Inconclusive {
        /// Honest identifiers of the neighbors never heard from.
        missing_neighbors: Vec<Ident>,
        /// Timer rounds waited on the worst missing neighbor.
        rounds_waited: u64,
    },
}

impl Verdict {
    /// Whether this is an acceptance.
    pub fn is_accepted(&self) -> bool {
        matches!(self, Verdict::Accepted)
    }

    /// Whether this is a rejection.
    pub fn is_rejected(&self) -> bool {
        matches!(self, Verdict::Rejected(_))
    }

    /// Whether the node gave up on a complete view.
    pub fn is_inconclusive(&self) -> bool {
        matches!(self, Verdict::Inconclusive { .. })
    }
}

/// Per-node transport statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeStats {
    /// Total payload bits handed to the link layer.
    pub bits_sent: u64,
    /// Frames handed to the link layer (data + acks, including
    /// retransmits and restart broadcasts).
    pub messages: u64,
    /// Retransmit timer expirations that resent a data frame.
    pub retries: u64,
    /// Logical time the node's verdict last changed.
    pub time_to_verdict: SimTime,
}

/// The outcome of one simulated run.
#[derive(Debug, Clone)]
pub struct NetOutcome {
    /// Per-vertex final verdicts (the fixpoint at quiescence).
    pub verdicts: Vec<Verdict>,
    /// Per-vertex transport statistics.
    pub stats: Vec<NodeStats>,
    /// Logical time of the last processed event (quiescence instant).
    pub quiescence_time: SimTime,
    /// Total events processed.
    pub events_processed: u64,
    /// Total frames handed to the link layer.
    pub messages: u64,
    /// Frames discarded by the link layer (loss, partition, dead
    /// receiver).
    pub drops: u64,
    /// Data retransmissions across all nodes.
    pub retries: u64,
    /// Crash transitions.
    pub crashes: u64,
    /// Data frames whose certificate was bit-flipped in transit.
    pub corrupted_frames: u64,
    /// Whether the initial-certificate fault plan changed observable
    /// state (see [`FaultyWorld::is_effective`]); `false` when no cert
    /// plan was composed.
    pub cert_faults_effective: bool,
    /// `true` when the run hit the time or event budget before the
    /// queue drained (verdicts are still total — pending nodes finalize
    /// as inconclusive).
    pub budget_expired: bool,
}

impl NetOutcome {
    /// Vertices that rejected (byzantine vertices never do).
    pub fn rejecting(&self) -> Vec<NodeId> {
        self.verdicts
            .iter()
            .enumerate()
            .filter(|(_, v)| v.is_rejected())
            .map(|(i, _)| NodeId(i))
            .collect()
    }

    /// Vertices that degraded to an inconclusive verdict.
    pub fn inconclusive(&self) -> Vec<NodeId> {
        self.verdicts
            .iter()
            .enumerate()
            .filter(|(_, v)| v.is_inconclusive())
            .map(|(i, _)| NodeId(i))
            .collect()
    }

    /// Whether at least one vertex rejected.
    pub fn detected(&self) -> bool {
        self.verdicts.iter().any(Verdict::is_rejected)
    }

    /// Whether every vertex accepted.
    pub fn all_accepted(&self) -> bool {
        self.verdicts.iter().all(Verdict::is_accepted)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FrameKind {
    Data,
    Ack,
}

/// A frame in flight: what the link layer delivers to `dst`.
#[derive(Debug, Clone)]
struct Frame {
    src: usize,
    dst: usize,
    kind: FrameKind,
    epoch: u32,
    ident: Ident,
    input: usize,
    cert: Certificate,
}

#[derive(Debug, Clone)]
enum Ev {
    Deliver(Frame),
    Timer {
        node: usize,
        nbr: usize,
        attempt: u32,
        epoch: u32,
    },
    Crash {
        node: usize,
    },
    Restart {
        node: usize,
    },
}

struct Node {
    alive: bool,
    epoch: u32,
    cert: Certificate,
    received: Vec<Option<(Ident, usize, Certificate)>>,
    peer_epoch: Vec<u32>,
    acked: Vec<bool>,
    gave_up: Vec<bool>,
    attempts: Vec<u32>,
    timer_active: Vec<bool>,
    stats: NodeStats,
    verdict: Option<Verdict>,
}

struct Sim<'a> {
    instance: &'a Instance<'a>,
    verifier: &'a dyn Verifier,
    world: &'a FaultyWorld,
    plan: &'a NetFaultPlan,
    policy: &'a RetryPolicy,
    nodes: Vec<Node>,
    /// `nbr_index[v]` maps a neighbor's NodeId index to its position in
    /// `v`'s adjacency list.
    nbr_index: Vec<BTreeMap<usize, usize>>,
    queue: BTreeMap<(SimTime, u64), Ev>,
    next_seq: u64,
    rng: StdRng,
    now: SimTime,
    messages: u64,
    drops: u64,
    retries: u64,
    crashes: u64,
    corrupted_frames: u64,
}

impl<'a> Sim<'a> {
    fn schedule(&mut self, at: SimTime, ev: Ev) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queue.insert((at, seq), ev);
    }

    fn jittered(&mut self, base: SimTime) -> SimTime {
        let jitter = if self.policy.jitter > 0 {
            self.rng.random_range(0..=self.policy.jitter)
        } else {
            0
        };
        base.saturating_add(jitter)
    }

    /// Hands one frame to the link layer: charges the sender, rolls the
    /// link faults, and schedules the surviving deliveries.
    fn transmit(&mut self, src: usize, dst: usize, kind: FrameKind) {
        let epoch = self.nodes[src].epoch;
        let (ident, input, cert) = match kind {
            FrameKind::Data => (
                self.world.presented_ident(NodeId(src)),
                self.instance.input(NodeId(src)),
                self.nodes[src].cert.clone(),
            ),
            FrameKind::Ack => (Ident(0), 0, Certificate::empty()),
        };
        let bits = HEADER_BITS + cert.len_bits() as u64;
        self.nodes[src].stats.messages += 1;
        self.nodes[src].stats.bits_sent += bits;
        self.messages += 1;
        let now = self.now;
        journal::record_with(|| Event::NetSend {
            src: src as u64,
            dst: dst as u64,
            time: now,
            bits,
            kind: match kind {
                FrameKind::Data => "data".to_string(),
                FrameKind::Ack => "ack".to_string(),
            },
        });
        if self.plan.partitioned(src, dst, now) {
            self.drops += 1;
            journal::record_with(|| Event::NetDrop {
                src: src as u64,
                dst: dst as u64,
                time: now,
                cause: "partition".to_string(),
            });
            return;
        }
        let link = *self.plan.link(src, dst);
        if link.drop > 0.0 && self.rng.random_bool(link.drop) {
            self.drops += 1;
            journal::record_with(|| Event::NetDrop {
                src: src as u64,
                dst: dst as u64,
                time: now,
                cause: "loss".to_string(),
            });
            return;
        }
        let copies = if link.duplicate > 0.0 && self.rng.random_bool(link.duplicate) {
            2
        } else {
            1
        };
        for _ in 0..copies {
            let mut delivered = cert.clone();
            if kind == FrameKind::Data
                && link.corrupt > 0.0
                && delivered.len_bits() > 0
                && self.rng.random_bool(link.corrupt)
            {
                let bit = self.rng.random_range(0..delivered.len_bits());
                delivered = delivered.with_bit_flipped(bit);
                self.corrupted_frames += 1;
            }
            let spread = if link.delay_max > link.delay_min {
                self.rng.random_range(link.delay_min..=link.delay_max)
            } else {
                link.delay_min
            };
            let at = now.saturating_add(1).saturating_add(spread);
            self.schedule(
                at,
                Ev::Deliver(Frame {
                    src,
                    dst,
                    kind,
                    epoch,
                    ident,
                    input,
                    cert: delivered,
                }),
            );
        }
    }

    /// (Re-)arms `node`'s retransmit chain toward neighbor slot `nbr`.
    fn arm_timer(&mut self, node: usize, nbr: usize) {
        self.nodes[node].timer_active[nbr] = true;
        self.nodes[node].attempts[nbr] = 0;
        let epoch = self.nodes[node].epoch;
        let wait = self.jittered(self.policy.backoff_base(0));
        let at = self.now.saturating_add(wait);
        self.schedule(
            at,
            Ev::Timer {
                node,
                nbr,
                attempt: 1,
                epoch,
            },
        );
    }

    /// Start-of-epoch broadcast: send a data frame to every neighbor
    /// and arm the per-neighbor retransmit chains.
    fn broadcast(&mut self, node: usize) {
        let neighbors: Vec<usize> = self
            .instance
            .graph()
            .neighbors(NodeId(node))
            .iter()
            .map(|&u| u.0)
            .collect();
        for (nbr, &dst) in neighbors.iter().enumerate() {
            self.transmit(node, dst, FrameKind::Data);
            self.arm_timer(node, nbr);
        }
    }

    fn on_timer(&mut self, node: usize, nbr: usize, attempt: u32, epoch: u32) {
        let n = &self.nodes[node];
        if !n.alive || n.epoch != epoch || !n.timer_active[nbr] {
            return;
        }
        let delivered = n.acked[nbr];
        let heard = n.received[nbr].is_some();
        if delivered && heard {
            self.nodes[node].timer_active[nbr] = false;
            return;
        }
        if attempt > self.policy.retries {
            self.nodes[node].timer_active[nbr] = false;
            self.nodes[node].attempts[nbr] = attempt - 1;
            if !heard {
                self.nodes[node].gave_up[nbr] = true;
                self.refresh_verdict(node);
            }
            return;
        }
        if !delivered {
            let dst = self.instance.graph().neighbors(NodeId(node))[nbr].0;
            self.retries += 1;
            self.nodes[node].stats.retries += 1;
            let now = self.now;
            journal::record_with(|| Event::NetRetry {
                node: node as u64,
                neighbor: nbr as u64,
                attempt: attempt as u64,
                time: now,
            });
            self.transmit(node, dst, FrameKind::Data);
        }
        self.nodes[node].attempts[nbr] = attempt;
        let wait = self.jittered(self.policy.backoff_base(attempt));
        let at = self.now.saturating_add(wait);
        self.schedule(
            at,
            Ev::Timer {
                node,
                nbr,
                attempt: attempt + 1,
                epoch,
            },
        );
    }

    fn on_deliver(&mut self, frame: Frame) {
        let Frame {
            src,
            dst,
            kind,
            epoch,
            ident,
            input,
            cert,
        } = frame;
        if !self.nodes[dst].alive {
            self.drops += 1;
            let now = self.now;
            journal::record_with(|| Event::NetDrop {
                src: src as u64,
                dst: dst as u64,
                time: now,
                cause: "dead-receiver".to_string(),
            });
            return;
        }
        let Some(&nbr) = self.nbr_index[dst].get(&src) else {
            return;
        };
        match kind {
            FrameKind::Data => {
                if epoch < self.nodes[dst].peer_epoch[nbr] {
                    // Stale pre-crash frame overtaken by a newer epoch.
                    return;
                }
                let newer = epoch > self.nodes[dst].peer_epoch[nbr];
                let node = &mut self.nodes[dst];
                node.peer_epoch[nbr] = epoch;
                node.received[nbr] = Some((ident, input, cert));
                node.gave_up[nbr] = false;
                if newer {
                    // The sender restarted: the ack we hold (if any) is
                    // for state it no longer has, so re-arm our chain to
                    // re-deliver our own frame.
                    node.acked[nbr] = false;
                    if !node.timer_active[nbr] {
                        self.arm_timer(dst, nbr);
                    }
                }
                self.transmit(dst, src, FrameKind::Ack);
                self.refresh_verdict(dst);
            }
            FrameKind::Ack => {
                if epoch == self.nodes[dst].epoch {
                    self.nodes[dst].acked[nbr] = true;
                }
            }
        }
    }

    fn on_crash(&mut self, node: usize) {
        if !self.nodes[node].alive {
            return;
        }
        self.crashes += 1;
        let now = self.now;
        journal::record_with(|| Event::NetCrash {
            node: node as u64,
            time: now,
            down: true,
        });
        let n = &mut self.nodes[node];
        n.alive = false;
        n.cert = Certificate::empty();
        n.received.iter_mut().for_each(|r| *r = None);
        n.acked.iter_mut().for_each(|a| *a = false);
        n.gave_up.iter_mut().for_each(|g| *g = false);
        n.timer_active.iter_mut().for_each(|t| *t = false);
        n.attempts.iter_mut().for_each(|a| *a = 0);
        n.verdict = None;
    }

    fn on_restart(&mut self, node: usize) {
        if self.nodes[node].alive {
            return;
        }
        let now = self.now;
        journal::record_with(|| Event::NetCrash {
            node: node as u64,
            time: now,
            down: false,
        });
        let n = &mut self.nodes[node];
        n.alive = true;
        n.epoch += 1;
        self.broadcast(node);
        self.refresh_verdict(node);
    }

    /// Re-decides `node`'s verdict from its current view, recording the
    /// change time. Missing-but-still-retrying neighbors leave the
    /// verdict pending; missing-and-given-up neighbors degrade it to
    /// [`Verdict::Inconclusive`].
    fn refresh_verdict(&mut self, node: usize) {
        let v = NodeId(node);
        let n = &self.nodes[node];
        if !n.alive {
            return;
        }
        let next = if self.world.is_byzantine(v) {
            Verdict::Accepted
        } else if n.received.iter().any(Option::is_none) {
            let pending = n
                .received
                .iter()
                .enumerate()
                .any(|(i, r)| r.is_none() && !n.gave_up[i]);
            if pending {
                return; // Timers still running; no verdict yet.
            }
            let graph_neighbors = self.instance.graph().neighbors(v);
            let missing_neighbors = n
                .received
                .iter()
                .enumerate()
                .filter(|(_, r)| r.is_none())
                .map(|(i, _)| self.instance.ids().ident(graph_neighbors[i]))
                .collect();
            let rounds_waited = n.attempts.iter().copied().max().unwrap_or(0) as u64;
            Verdict::Inconclusive {
                missing_neighbors,
                rounds_waited,
            }
        } else {
            // The node's own certificate is entry 0, the frame received
            // on incident edge i entry i + 1.
            let frames = n.received.iter().flatten();
            let certs: Vec<Certificate> = std::iter::once(n.cert.clone())
                .chain(frames.clone().map(|(_, _, cert)| cert.clone()))
                .collect();
            let mut neighbors: Vec<(Ident, usize, usize)> = frames
                .enumerate()
                .map(|(i, &(ident, input, _))| (ident, input, i + 1))
                .collect();
            // The core view faults: replayed / lost neighbor entries.
            self.world.apply_entry_faults(v, &mut neighbors);
            let prepared = self.verifier.prepare(&certs);
            let id = self.world.presented_ident(v);
            match prepared.decide(id, self.instance.input(v), 0, &neighbors) {
                Ok(()) => Verdict::Accepted,
                Err(reason) => Verdict::Rejected(reason),
            }
        };
        if self.nodes[node].verdict.as_ref() != Some(&next) {
            self.nodes[node].stats.time_to_verdict = self.now;
            self.nodes[node].verdict = Some(next);
        }
    }
}

/// Runs the simulation to quiescence (event queue drained) or until
/// `max_time`, whichever comes first, and returns the per-vertex
/// verdict fixpoint.
///
/// `honest` is the prover's assignment; `plan.cert_plan` faults are
/// injected into it before the first frame. Verdicts are total: nodes
/// that never completed (budget expiry, permanent crash) finalize as
/// [`Verdict::Inconclusive`].
pub fn run_network(
    verifier: &dyn Verifier,
    instance: &Instance<'_>,
    honest: &Assignment,
    plan: &NetFaultPlan,
    policy: &RetryPolicy,
    max_time: SimTime,
) -> NetOutcome {
    let _span = locert_trace::span!("net.sim.run");
    let n = instance.graph().num_nodes();
    let empty_plan;
    let cert_plan = match &plan.cert_plan {
        Some(p) => p,
        None => {
            empty_plan = FaultPlan::new(plan.seed);
            &empty_plan
        }
    };
    let world = faults::inject(instance, honest, cert_plan);
    let nodes = (0..n)
        .map(|v| {
            let deg = instance.graph().degree(NodeId(v));
            Node {
                alive: true,
                epoch: 0,
                cert: world.certs().cert(NodeId(v)).clone(),
                received: vec![None; deg],
                peer_epoch: vec![0; deg],
                acked: vec![false; deg],
                gave_up: vec![false; deg],
                attempts: vec![0; deg],
                timer_active: vec![false; deg],
                stats: NodeStats::default(),
                verdict: None,
            }
        })
        .collect();
    let nbr_index = (0..n)
        .map(|v| {
            instance
                .graph()
                .neighbors(NodeId(v))
                .iter()
                .enumerate()
                .map(|(i, &u)| (u.0, i))
                .collect()
        })
        .collect();
    let mut sim = Sim {
        instance,
        verifier,
        world: &world,
        plan,
        policy,
        nodes,
        nbr_index,
        queue: BTreeMap::new(),
        next_seq: 0,
        rng: StdRng::seed_from_u64(plan.seed ^ 0x6e65_7473_746f_726d),
        now: 0,
        messages: 0,
        drops: 0,
        retries: 0,
        crashes: 0,
        corrupted_frames: 0,
    };
    // Crash schedules enqueue first so a crash at time t preempts
    // deliveries and timers landing at the same instant.
    for crash in &plan.crashes {
        if crash.node.0 >= n {
            continue;
        }
        sim.schedule(crash.at, Ev::Crash { node: crash.node.0 });
        if let Some(at) = crash.restart_at {
            sim.schedule(at.max(crash.at + 1), Ev::Restart { node: crash.node.0 });
        }
    }
    for v in 0..n {
        sim.broadcast(v);
    }
    for v in 0..n {
        sim.refresh_verdict(v); // Degree-0 and byzantine nodes decide now.
    }
    let mut events_processed = 0u64;
    let mut budget_expired = false;
    while let Some((&(t, seq), _)) = sim.queue.iter().next() {
        if t > max_time || events_processed >= MAX_EVENTS {
            budget_expired = true;
            break;
        }
        let ev = sim.queue.remove(&(t, seq)).expect("peeked key exists");
        sim.now = t;
        events_processed += 1;
        match ev {
            Ev::Deliver(frame) => sim.on_deliver(frame),
            Ev::Timer {
                node,
                nbr,
                attempt,
                epoch,
            } => sim.on_timer(node, nbr, attempt, epoch),
            Ev::Crash { node } => sim.on_crash(node),
            Ev::Restart { node } => sim.on_restart(node),
        }
    }
    let quiescence_time = sim.now;
    // Finalize: every node gets a total verdict. Dead nodes and nodes
    // cut off by budget expiry degrade to inconclusive.
    let verdicts: Vec<Verdict> = (0..n)
        .map(|i| {
            let node = &sim.nodes[i];
            match &node.verdict {
                Some(v) => v.clone(),
                None => {
                    let graph_neighbors = instance.graph().neighbors(NodeId(i));
                    let missing_neighbors = node
                        .received
                        .iter()
                        .enumerate()
                        .filter(|(_, r)| r.is_none())
                        .map(|(j, _)| instance.ids().ident(graph_neighbors[j]))
                        .collect();
                    Verdict::Inconclusive {
                        missing_neighbors,
                        rounds_waited: node.attempts.iter().copied().max().unwrap_or(0) as u64,
                    }
                }
            }
        })
        .collect();
    // Verdict events land sequentially in vertex order, off the hot
    // path, mirroring `run_verification` — the journal stays
    // byte-identical at any worker count.
    for (i, verdict) in verdicts.iter().enumerate() {
        let (status, reason, missing) = match verdict {
            Verdict::Accepted => ("accepted", None, 0),
            Verdict::Rejected(r) => ("rejected", Some(r.code().to_string()), 0),
            Verdict::Inconclusive {
                missing_neighbors, ..
            } => ("inconclusive", None, missing_neighbors.len() as u64),
        };
        let time = sim.nodes[i].stats.time_to_verdict;
        journal::record_with(|| Event::NetVerdict {
            vertex: i as u64,
            status: status.to_string(),
            reason,
            missing,
            time,
        });
    }
    let stats: Vec<NodeStats> = sim.nodes.iter().map(|node| node.stats).collect();
    if locert_trace::enabled() {
        locert_trace::add("net.sim.runs", 1);
        locert_trace::add("net.sim.messages", sim.messages);
        locert_trace::add("net.sim.drops", sim.drops);
        locert_trace::add("net.sim.retries", sim.retries);
        locert_trace::add("net.sim.crashes", sim.crashes);
        locert_trace::add(
            "net.sim.bits_sent",
            stats.iter().map(|s| s.bits_sent).sum::<u64>(),
        );
        locert_trace::record("net.sim.quiescence_time", quiescence_time);
        for s in &stats {
            locert_trace::record("net.sim.time_to_verdict", s.time_to_verdict);
        }
    }
    NetOutcome {
        verdicts,
        stats,
        quiescence_time,
        events_processed,
        messages: sim.messages,
        drops: sim.drops,
        retries: sim.retries,
        crashes: sim.crashes,
        corrupted_frames: sim.corrupted_frames,
        cert_faults_effective: world.is_effective(),
        budget_expired,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use locert_core::faults::FaultModel;
    use locert_core::framework::run_verification;
    use locert_core::schemes::acyclicity::AcyclicityScheme;
    use locert_core::schemes::spanning_tree::SpanningTreeScheme;
    use locert_core::Scheme;
    use locert_graph::{generators, IdAssignment};

    fn prove(scheme: &dyn Scheme, instance: &Instance<'_>) -> Assignment {
        scheme.assign(instance).expect("yes-instance")
    }

    #[test]
    fn zero_fault_run_matches_run_verification() {
        let g = generators::spider(3, 2);
        let ids = IdAssignment::contiguous(g.num_nodes());
        let instance = Instance::new(&g, &ids);
        let scheme = AcyclicityScheme::new(8);
        let honest = prove(&scheme, &instance);
        let reference = run_verification(&scheme, &instance, &honest);
        let outcome = run_network(
            &scheme,
            &instance,
            &honest,
            &NetFaultPlan::new(7),
            &RetryPolicy::default(),
            1 << 12,
        );
        assert!(!outcome.budget_expired);
        for (v, verdict) in outcome.verdicts.iter().enumerate() {
            assert_eq!(
                verdict.is_accepted(),
                reference.verdicts()[v].accepted,
                "vertex {v}"
            );
        }
        assert!(outcome.all_accepted());
        assert_eq!(outcome.drops, 0);
        assert_eq!(outcome.retries, 0);
    }

    #[test]
    fn same_seed_runs_are_identical() {
        let g = generators::cycle(8);
        let ids = IdAssignment::contiguous(g.num_nodes());
        let instance = Instance::new(&g, &ids);
        let scheme = SpanningTreeScheme::new(8);
        let honest = prove(&scheme, &instance);
        let plan = NetFaultPlan::new(3).with_default_link(LinkFaults {
            drop: 0.3,
            delay_max: 4,
            ..LinkFaults::default()
        });
        let run = |_: ()| {
            run_network(
                &scheme,
                &instance,
                &honest,
                &plan,
                &RetryPolicy::default(),
                1 << 12,
            )
        };
        let (a, b) = (run(()), run(()));
        assert_eq!(a.verdicts, b.verdicts);
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.messages, b.messages);
        assert_eq!(a.drops, b.drops);
        assert_eq!(a.quiescence_time, b.quiescence_time);
    }

    #[test]
    fn heavy_loss_degrades_to_inconclusive_not_rejection() {
        let g = generators::path(6);
        let ids = IdAssignment::contiguous(g.num_nodes());
        let instance = Instance::new(&g, &ids);
        let scheme = AcyclicityScheme::new(8);
        let honest = prove(&scheme, &instance);
        // One link is fully dead: its endpoints must give up gracefully.
        let plan = NetFaultPlan::new(11)
            .with_link(
                NodeId(2),
                NodeId(3),
                LinkFaults {
                    drop: 1.0,
                    ..LinkFaults::default()
                },
            )
            .with_link(
                NodeId(3),
                NodeId(2),
                LinkFaults {
                    drop: 1.0,
                    ..LinkFaults::default()
                },
            );
        let outcome = run_network(
            &scheme,
            &instance,
            &honest,
            &plan,
            &RetryPolicy::default(),
            1 << 14,
        );
        assert!(!outcome.detected(), "loss must never cause a rejection");
        let inconclusive = outcome.inconclusive();
        assert_eq!(inconclusive, vec![NodeId(2), NodeId(3)]);
        match &outcome.verdicts[2] {
            Verdict::Inconclusive {
                missing_neighbors,
                rounds_waited,
            } => {
                assert_eq!(missing_neighbors, &vec![ids.ident(NodeId(3))]);
                assert!(*rounds_waited >= RetryPolicy::default().retries as u64);
            }
            other => panic!("expected inconclusive, got {other:?}"),
        }
        assert!(outcome.retries > 0);
    }

    #[test]
    fn crash_restart_loses_certificate_and_is_detected() {
        let g = generators::path(5);
        let ids = IdAssignment::contiguous(g.num_nodes());
        let instance = Instance::new(&g, &ids);
        let scheme = SpanningTreeScheme::new(8);
        let honest = prove(&scheme, &instance);
        let plan = NetFaultPlan::new(5).with_crash(CrashSchedule {
            node: NodeId(2),
            at: 1,
            restart_at: Some(12),
        });
        let outcome = run_network(
            &scheme,
            &instance,
            &honest,
            &plan,
            &RetryPolicy::default(),
            1 << 14,
        );
        assert_eq!(outcome.crashes, 1);
        assert!(
            outcome.detected(),
            "an empty post-crash certificate must be rejected: {:?}",
            outcome.verdicts
        );
    }

    #[test]
    fn composed_cert_plan_bit_flip_is_detected() {
        let g = generators::cycle(7);
        let ids = IdAssignment::contiguous(g.num_nodes());
        let instance = Instance::new(&g, &ids);
        let scheme = SpanningTreeScheme::new(8);
        let honest = prove(&scheme, &instance);
        let plan = NetFaultPlan::new(9).with_cert_plan(FaultPlan::single_at_random_site(
            FaultModel::BitFlip,
            g.num_nodes(),
            9,
        ));
        let outcome = run_network(
            &scheme,
            &instance,
            &honest,
            &plan,
            &RetryPolicy::default(),
            1 << 12,
        );
        assert!(outcome.cert_faults_effective);
        assert!(outcome.detected());
    }

    #[test]
    fn partition_that_heals_converges_to_acceptance() {
        let g = generators::star(6);
        let ids = IdAssignment::contiguous(g.num_nodes());
        let instance = Instance::new(&g, &ids);
        let scheme = AcyclicityScheme::new(8);
        let honest = prove(&scheme, &instance);
        let edges: Vec<_> = g
            .neighbors(NodeId(0))
            .iter()
            .map(|&u| (NodeId(0), u))
            .collect();
        let plan = NetFaultPlan::new(2).with_partition(Partition {
            edges,
            from: 0,
            until: 16,
        });
        let outcome = run_network(
            &scheme,
            &instance,
            &honest,
            &plan,
            &RetryPolicy::default(),
            1 << 14,
        );
        assert!(outcome.all_accepted(), "{:?}", outcome.verdicts);
        assert!(outcome.drops > 0, "partition must have cost frames");
        assert!(outcome.retries > 0, "recovery must have used retransmits");
    }
}
