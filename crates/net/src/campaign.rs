//! The `netstorm` fault-grid campaign.
//!
//! Every catalogue target is driven through a grid of network fault
//! points — packet loss at three rates, duplication, reordering delay,
//! in-transit corruption, initial-certificate corruption (composed from
//! [`locert_core::faults`]), crash-restart with certificate loss, and a
//! healing partition — measuring per (target, point): detection rate
//! over effective runs, false rejects and false inconclusives on the
//! yes-instance, time to detection, and transport cost.
//!
//! Runs are parallelized over `locert-par` like
//! [`locert_core::faults::run_campaign`]: each run captures its journal
//! events locally and the flush appends them in run order, so the
//! journal and every aggregate are byte-identical at any worker count.
//!
//! A note on what "corrupting" promises: faults that corrupt *stored*
//! certificates (bit flip, zeroing, crash loss) are visible to every
//! neighbor and the owner itself, and the grid asserts they are always
//! detected. Per-link *transit* corruption is weaker — a flipped field
//! can be locally consistent at the one vertex that sees it (e.g. a
//! distance off by two parsing as the other legal neighbor distance) —
//! so its detection rate is measured, not asserted.

use crate::catalogue::{catalogue, NetTarget};
use crate::sim::{
    run_network, CrashSchedule, LinkFaults, NetFaultPlan, NetOutcome, Partition, RetryPolicy,
    SimTime, Verdict,
};
use locert_core::faults::{FaultModel, FaultPlan};
use locert_core::framework::{Assignment, Instance};
use locert_graph::{Graph, IdAssignment, NodeId};
use locert_trace::journal::{self, Event};

#[derive(Debug, Clone, Copy, PartialEq)]
enum PointKind {
    Baseline,
    Drop(f64),
    Duplicate(f64),
    Delay(SimTime),
    TransitCorrupt(f64),
    CertFault(FaultModel),
    CrashRestart,
    PartitionHeal,
}

/// One point of the fault grid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridPoint {
    /// Stable point name (tables and journals key on it).
    pub name: &'static str,
    /// Whether every effective run is required to be detected
    /// (certificate-corrupting faults).
    pub corrupting: bool,
    /// Whether the fault never corrupts any observable state, so a
    /// rejection on a yes-instance is a soundness bug in the transport
    /// (loss, duplication, delay, and partitions qualify; transit
    /// corruption does not).
    pub benign: bool,
    /// Whether the fault cannot permanently sever a link, so every view
    /// must complete: an inconclusive verdict here is a policy bug.
    pub expect_complete: bool,
    kind: PointKind,
}

/// The netstorm fault grid, in stable order.
pub fn fault_grid() -> Vec<GridPoint> {
    vec![
        GridPoint {
            name: "baseline",
            corrupting: false,
            benign: true,
            expect_complete: true,
            kind: PointKind::Baseline,
        },
        GridPoint {
            name: "drop-0.1",
            corrupting: false,
            benign: true,
            expect_complete: false,
            kind: PointKind::Drop(0.1),
        },
        GridPoint {
            name: "drop-0.3",
            corrupting: false,
            benign: true,
            expect_complete: false,
            kind: PointKind::Drop(0.3),
        },
        GridPoint {
            name: "drop-0.5",
            corrupting: false,
            benign: true,
            expect_complete: false,
            kind: PointKind::Drop(0.5),
        },
        GridPoint {
            name: "dup-0.3",
            corrupting: false,
            benign: true,
            expect_complete: true,
            kind: PointKind::Duplicate(0.3),
        },
        GridPoint {
            name: "delay-8",
            corrupting: false,
            benign: true,
            expect_complete: true,
            kind: PointKind::Delay(8),
        },
        GridPoint {
            name: "transit-corrupt-0.2",
            corrupting: false,
            benign: false, // Measured, not asserted — see module docs.
            expect_complete: true,
            kind: PointKind::TransitCorrupt(0.2),
        },
        GridPoint {
            name: "cert-bit-flip",
            corrupting: true,
            benign: false,
            expect_complete: true,
            kind: PointKind::CertFault(FaultModel::BitFlip),
        },
        GridPoint {
            name: "cert-zero",
            corrupting: true,
            benign: false,
            expect_complete: true,
            kind: PointKind::CertFault(FaultModel::ZeroCert),
        },
        GridPoint {
            name: "crash-restart",
            corrupting: true,
            benign: false,
            expect_complete: true,
            kind: PointKind::CrashRestart,
        },
        GridPoint {
            name: "partition-heal",
            corrupting: false,
            benign: true,
            expect_complete: true,
            kind: PointKind::PartitionHeal,
        },
    ]
}

/// Builds the network fault plan realizing `point` on `graph` for one
/// seeded run. Deterministic in `(point, seed, graph)`.
pub fn plan_for(point: &GridPoint, seed: u64, graph: &Graph) -> NetFaultPlan {
    let n = graph.num_nodes();
    let plan = NetFaultPlan::new(seed);
    match point.kind {
        PointKind::Baseline => plan,
        PointKind::Drop(p) => plan.with_default_link(LinkFaults {
            drop: p,
            ..LinkFaults::default()
        }),
        PointKind::Duplicate(p) => plan.with_default_link(LinkFaults {
            duplicate: p,
            delay_max: 3,
            ..LinkFaults::default()
        }),
        PointKind::Delay(d) => plan.with_default_link(LinkFaults {
            delay_max: d,
            ..LinkFaults::default()
        }),
        PointKind::TransitCorrupt(p) => plan.with_default_link(LinkFaults {
            corrupt: p,
            ..LinkFaults::default()
        }),
        PointKind::CertFault(model) => {
            plan.with_cert_plan(FaultPlan::single_at_random_site(model, n, seed))
        }
        PointKind::CrashRestart => plan.with_crash(CrashSchedule {
            node: NodeId((seed as usize) % n),
            at: 1,
            restart_at: Some(12),
        }),
        PointKind::PartitionHeal => {
            let site = NodeId((seed as usize) % n);
            let edges = graph.neighbors(site).iter().map(|&u| (site, u)).collect();
            plan.with_partition(Partition {
                edges,
                from: 0,
                until: 16,
            })
        }
    }
}

/// Campaign dimensions.
#[derive(Debug, Clone, Copy)]
pub struct CampaignConfig {
    /// Base seed; every run derives its own via `split_seed`.
    pub seed: u64,
    /// Seeded runs per (target, grid point).
    pub runs_per_point: usize,
    /// Approximate target instance size (vertices).
    pub target_size: usize,
    /// Node retransmit policy.
    pub policy: RetryPolicy,
    /// Logical-time budget per run.
    pub max_time: SimTime,
}

impl CampaignConfig {
    /// The full campaign: 5 runs per point on ~12-vertex instances.
    pub fn new(seed: u64) -> Self {
        CampaignConfig {
            seed,
            runs_per_point: 5,
            target_size: 12,
            policy: RetryPolicy::default(),
            max_time: 1 << 12,
        }
    }

    /// CI smoke mode: 2 runs per point on ~8-vertex instances.
    pub fn quick(seed: u64) -> Self {
        CampaignConfig {
            runs_per_point: 2,
            target_size: 8,
            ..CampaignConfig::new(seed)
        }
    }
}

/// Aggregates for one (target, grid point) cell.
#[derive(Debug, Clone)]
pub struct CampaignRow {
    /// Target (scheme) name.
    pub scheme: &'static str,
    /// Grid point name.
    pub point: &'static str,
    /// Whether detection is asserted on this point.
    pub corrupting: bool,
    /// Whether rejections are forbidden on this point.
    pub benign: bool,
    /// Whether inconclusive verdicts are disallowed on this point.
    pub expect_complete: bool,
    /// Total runs.
    pub runs: usize,
    /// Runs in which the fault changed observable state (equals `runs`
    /// on benign points, where the question is false alarms instead).
    pub effective: usize,
    /// Runs with at least one rejecting vertex.
    pub detected: usize,
    /// Runs with at least one inconclusive vertex.
    pub inconclusive: usize,
    /// Sum over runs of frames handed to the link layer.
    pub messages: u64,
    /// Sum over runs of data retransmissions.
    pub retries: u64,
    /// Sum over detected runs of the earliest rejection time.
    pub detection_time_sum: u64,
    /// Sum over runs of the quiescence instant.
    pub quiescence_sum: u64,
}

impl CampaignRow {
    /// Detected fraction of effective runs (vacuously 1.0 when no run
    /// was effective).
    pub fn detection_rate(&self) -> f64 {
        if self.effective == 0 {
            1.0
        } else {
            self.detected as f64 / self.effective as f64
        }
    }

    /// Mean logical time of the earliest rejection, over detected runs.
    pub fn mean_detection_time(&self) -> Option<f64> {
        (self.detected > 0).then(|| self.detection_time_sum as f64 / self.detected as f64)
    }

    /// Mean frames per run.
    pub fn mean_messages(&self) -> f64 {
        if self.runs == 0 {
            0.0
        } else {
            self.messages as f64 / self.runs as f64
        }
    }

    /// Mean retransmissions per run.
    pub fn mean_retries(&self) -> f64 {
        if self.runs == 0 {
            0.0
        } else {
            self.retries as f64 / self.runs as f64
        }
    }
}

fn instance_of<'a>(target: &'a NetTarget, ids: &'a IdAssignment) -> Instance<'a> {
    match &target.inputs {
        Some(inputs) => Instance::with_inputs(&target.graph, ids, inputs),
        None => Instance::new(&target.graph, ids),
    }
}

fn run_effective(point: &GridPoint, outcome: &NetOutcome) -> bool {
    match point.kind {
        PointKind::CertFault(_) => outcome.cert_faults_effective,
        PointKind::CrashRestart => outcome.crashes > 0,
        PointKind::TransitCorrupt(_) => outcome.corrupted_frames > 0,
        _ => true,
    }
}

/// Earliest rejection instant of a run, if any vertex rejected.
fn detection_time(outcome: &NetOutcome) -> Option<u64> {
    outcome
        .verdicts
        .iter()
        .zip(&outcome.stats)
        .filter(|(v, _)| v.is_rejected())
        .map(|(_, s)| s.time_to_verdict)
        .min()
}

/// Runs the full campaign: every catalogue target crossed with every
/// grid point, `runs_per_point` seeded runs each, parallelized over
/// runs with a journal byte-identical at any worker count. Rows come
/// back in (target, point) order.
pub fn run_net_campaign(cfg: &CampaignConfig) -> Vec<CampaignRow> {
    let _span = locert_trace::span!("net.campaign");
    let targets = catalogue(cfg.target_size);
    let grid = fault_grid();
    let ids: Vec<IdAssignment> = targets
        .iter()
        .map(|t| IdAssignment::contiguous(t.graph.num_nodes()))
        .collect();
    // Honest assignments are computed once per target, sequentially —
    // the prover is cheap and this keeps its journal events in a stable
    // prefix.
    let honest: Vec<Assignment> = targets
        .iter()
        .zip(&ids)
        .map(|(t, ids)| {
            t.scheme
                .assign(&instance_of(t, ids))
                .unwrap_or_else(|e| panic!("{}: catalogue target must prove: {e:?}", t.name))
        })
        .collect();
    let (points, runs) = (grid.len(), cfg.runs_per_point);
    let tasks = targets.len() * points * runs;
    // One task per (target, point, run); each captures its journal
    // locally, the flush below appends in task order.
    let results = locert_par::global().par_map_collect(tasks, |k| {
        let ti = k / (points * runs);
        let pi = (k / runs) % points;
        let run = k % runs;
        journal::capture(|| {
            journal::record_with(|| Event::Marker {
                label: format!("net:{}:{}:{run}", targets[ti].name, grid[pi].name),
            });
            let seed = locert_par::split_seed(cfg.seed, k as u64);
            let plan = plan_for(&grid[pi], seed, &targets[ti].graph);
            run_network(
                targets[ti].scheme.as_ref(),
                &instance_of(&targets[ti], &ids[ti]),
                &honest[ti],
                &plan,
                &cfg.policy,
                cfg.max_time,
            )
        })
    });
    let mut rows: Vec<CampaignRow> = Vec::with_capacity(targets.len() * points);
    for target in &targets {
        for point in &grid {
            rows.push(CampaignRow {
                scheme: target.name,
                point: point.name,
                corrupting: point.corrupting,
                benign: point.benign,
                expect_complete: point.expect_complete,
                runs: 0,
                effective: 0,
                detected: 0,
                inconclusive: 0,
                messages: 0,
                retries: 0,
                detection_time_sum: 0,
                quiescence_sum: 0,
            });
        }
    }
    for (k, (outcome, events)) in results.into_iter().enumerate() {
        journal::append_events(events);
        let ti = k / (points * runs);
        let pi = (k / runs) % points;
        let row = &mut rows[ti * points + pi];
        let point = &grid[pi];
        row.runs += 1;
        if run_effective(point, &outcome) {
            row.effective += 1;
        }
        if outcome.detected() {
            row.detected += 1;
            row.detection_time_sum += detection_time(&outcome).unwrap_or(0);
        }
        if outcome.verdicts.iter().any(Verdict::is_inconclusive) {
            row.inconclusive += 1;
        }
        row.messages += outcome.messages;
        row.retries += outcome.retries;
        row.quiescence_sum += outcome.quiescence_time;
    }
    if locert_trace::enabled() {
        locert_trace::add("net.campaign.rows", rows.len() as u64);
        locert_trace::add("net.campaign.tasks", tasks as u64);
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_campaign_meets_the_acceptance_grid() {
        let rows = run_net_campaign(&CampaignConfig::quick(1));
        assert_eq!(rows.len(), 16 * fault_grid().len());
        for row in &rows {
            // Yes-instances under benign faults must never reject.
            if row.benign {
                assert_eq!(
                    row.detected, 0,
                    "{}/{}: false reject on a yes-instance",
                    row.scheme, row.point
                );
            }
            // Certificate-corrupting faults must always be caught.
            if row.corrupting {
                assert!(
                    (row.detection_rate() - 1.0).abs() < f64::EPSILON,
                    "{}/{}: detection rate {} (detected {} of {} effective)",
                    row.scheme,
                    row.point,
                    row.detection_rate(),
                    row.detected,
                    row.effective
                );
            }
            // Reliable-delivery points must always complete their views.
            if row.expect_complete {
                assert_eq!(
                    row.inconclusive, 0,
                    "{}/{}: false inconclusive under reliable delivery",
                    row.scheme, row.point
                );
            }
        }
    }

    #[test]
    fn campaign_rows_are_deterministic() {
        let a = run_net_campaign(&CampaignConfig::quick(7));
        let b = run_net_campaign(&CampaignConfig::quick(7));
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.scheme, y.scheme);
            assert_eq!(x.point, y.point);
            assert_eq!(x.detected, y.detected);
            assert_eq!(x.messages, y.messages);
            assert_eq!(x.retries, y.retries);
            assert_eq!(x.quiescence_sum, y.quiescence_sum);
        }
    }
}
