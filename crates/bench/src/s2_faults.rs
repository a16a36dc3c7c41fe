//! S2 — Fault-injection campaign: detection rate and rejection locality.
//!
//! Soundness is a statement about *no*-instances; a deployed scheme must
//! also notice corruption of an accepted *yes*-instance. This experiment
//! starts from a matched yes-instance per scheme (the same nine schemes as
//! the S1 soundness campaign), injects each adversarial fault model of
//! [`locert_core::faults`] many times at seeded random sites, and reports:
//!
//! - **detection rate** — the fraction of effective faulty runs where at
//!   least one honest vertex rejects (runs where the fault was a no-op on
//!   this instance, e.g. a bit flip into an empty certificate, are counted
//!   separately and excluded);
//! - **rejection locality** — the mean BFS distance from the fault site to
//!   the nearest rejecting vertex (0 = the faulted vertex itself rejects).
//!
//! The paper's radius-1 verification model makes a sharp prediction: every
//! certificate fault at a vertex can only be noticed at distance ≤ 1 —
//! locality must never exceed 1 for certificate-level models.

use crate::report::{f2, Table};
use locert_automata::library;
use locert_core::catalogue::lollipop;
use locert_core::faults::{run_campaign, FaultModel};
use locert_core::framework::{Instance, Scheme};
use locert_core::schemes::acyclicity::AcyclicityScheme;
use locert_core::schemes::common::id_bits_for;
use locert_core::schemes::depth2_fo::Depth2FoScheme;
use locert_core::schemes::existential_fo::ExistentialFoScheme;
use locert_core::schemes::minor_free::PathMinorFreeScheme;
use locert_core::schemes::mso_tree::MsoTreeScheme;
use locert_core::schemes::spanning_tree::VertexCountScheme;
use locert_core::schemes::tree_depth_bound::TreeDepthBoundScheme;
use locert_core::schemes::tree_diameter::TreeDiameterScheme;
use locert_core::schemes::treedepth::TreedepthScheme;
use locert_graph::{generators, Graph, IdAssignment};
use locert_logic::props;

/// One fault campaign row: a scheme and a yes-instance it accepts.
struct Target {
    scheme: Box<dyn Scheme>,
    yes_instance: Graph,
}

fn targets(b: u32, n: usize) -> Vec<Target> {
    let even = if n.is_multiple_of(2) { n } else { n + 1 };
    vec![
        Target {
            scheme: Box::new(AcyclicityScheme::new(b)),
            yes_instance: generators::path(n),
        },
        Target {
            scheme: Box::new(VertexCountScheme::new(b, n as u64)),
            yes_instance: generators::path(n),
        },
        Target {
            scheme: Box::new(TreeDiameterScheme::new(b, 3)),
            yes_instance: generators::star(n),
        },
        Target {
            scheme: Box::new(TreedepthScheme::new(b, 3)),
            yes_instance: generators::path(7),
        },
        Target {
            scheme: Box::new(TreeDepthBoundScheme::new(2)),
            yes_instance: generators::star(n),
        },
        Target {
            scheme: Box::new(MsoTreeScheme::new(library::has_perfect_matching())),
            yes_instance: generators::path(even),
        },
        Target {
            scheme: Box::new(
                ExistentialFoScheme::new(b, &props::has_clique(3)).expect("existential"),
            ),
            yes_instance: lollipop(n),
        },
        Target {
            scheme: Box::new(
                Depth2FoScheme::from_formula(b, &props::has_dominating_vertex()).expect("depth 2"),
            ),
            yes_instance: generators::star(n.max(5)),
        },
        Target {
            scheme: Box::new(PathMinorFreeScheme::new(b, 4)),
            yes_instance: generators::star(n),
        },
    ]
}

/// Runs the fault campaign: every scheme × every fault model, `runs`
/// seeded injections each. Returns only the detection-rate table; use
/// [`run_with_provenance`] for the rejection-locality provenance table
/// produced by the same sweep.
pub fn run(n: usize, runs: usize, seed: u64) -> Table {
    run_with_provenance(n, runs, seed).0
}

/// Runs the fault campaign once and reports it twice: the detection-rate
/// table and the rejection-locality provenance table (per-detection
/// rejection reasons and fault-site-to-detector distances).
pub fn run_with_provenance(n: usize, runs: usize, seed: u64) -> (Table, Table) {
    let mut table = Table::new(
        "S2",
        "Fault-injection campaign",
        "Radius-1 verification (Appendix A.1) localizes certificate faults: \
         a corrupted certificate is visible only to its owner and the \
         owner's neighbors, so whenever a fault is detected at all, the \
         nearest rejecting vertex lies within BFS distance 1 of the fault \
         site. Detection itself is scheme-dependent: load-bearing fields \
         (counters, distances, automaton states) must catch every single-bit \
         flip on tree instances. Fault models (locert-core::faults, seeded \
         and deterministic): bit-flip = flip one certificate bit; truncate \
         = drop a suffix; extend = append 1–8 random bits; replay = copy \
         another vertex's certificate; swap = exchange two certificates; \
         zero-cert = zero all bits; byzantine = the vertex accepts \
         unconditionally and shows random bits to neighbors; dup-id = \
         present another vertex's identifier; drop-nbr / dup-nbr = lose or \
         duplicate one neighbor entry in the radius-1 view. Detection rate \
         = detected / effective runs (no-op injections, e.g. a bit flip \
         into an empty certificate, are excluded); mean locality = average \
         BFS distance from fault site to nearest rejecting vertex. \
         Reproduce with: cargo run --release -p locert-bench --bin \
         experiments -- s2",
        "bit-flip detection 1.00 on tree targets; locality ≤ 1 for \
         certificate-level fault models",
        &[
            "scheme",
            "fault model",
            "runs",
            "no-op",
            "effective",
            "detected",
            "detection rate",
            "mean locality",
        ],
    );
    let mut provenance = Table::new(
        "S2b",
        "Rejection-locality provenance",
        "Every rejection in the S2 campaign carries provenance: the \
         verifier's RejectReason at the rejecting vertex and the BFS \
         distance from the injected fault site to that detector \
         (locert_core::faults::Detection). The distance histogram splits \
         detections into d=0 (the faulted vertex itself rejects), d=1 (a \
         neighbor rejects), and d≥2 (only possible for fault models that \
         corrupt state beyond one certificate, e.g. swap's second site or \
         view-level faults). The dominant reason names the certificate \
         field the fault actually broke. Reproduce with: cargo run \
         --release -p locert-bench --bin experiments -- s2",
        "d≥2 = 0 for single-certificate fault models (radius-1 \
         verification); dominant reasons name load-bearing fields, not \
         generic failures",
        &[
            "scheme",
            "fault model",
            "detections",
            "d=0",
            "d=1",
            "d>=2",
            "dominant reason",
        ],
    );
    for (ti, t) in targets(6, n).into_iter().enumerate() {
        let g = &t.yes_instance;
        let ids = IdAssignment::contiguous(g.num_nodes());
        let inst = Instance::new(g, &ids);
        assert!(6 >= id_bits_for(&inst), "id width too small for n");
        let honest = t.scheme.assign(&inst).unwrap_or_else(|e| {
            panic!("{}: yes-instance rejected by prover: {e}", t.scheme.name())
        });
        for (mi, model) in FaultModel::ALL.into_iter().enumerate() {
            let base_seed = seed
                .wrapping_add((ti as u64) << 32)
                .wrapping_add((mi as u64) << 16);
            let stats = run_campaign(t.scheme.as_ref(), &inst, &honest, model, runs, base_seed);
            table.push([
                t.scheme.name(),
                model.name().to_string(),
                runs.to_string(),
                stats.noop_runs.to_string(),
                stats.effective_runs.to_string(),
                stats.detected.to_string(),
                f2(stats.detection_rate()),
                stats.mean_locality().map_or_else(|| "—".to_string(), f2),
            ]);
            let total: usize = stats.reasons.values().sum();
            let at = |d: usize| stats.distances.get(&d).copied().unwrap_or(0);
            let far: usize = stats
                .distances
                .iter()
                .filter(|&(&d, _)| d >= 2)
                .map(|(_, &c)| c)
                .sum();
            provenance.push([
                t.scheme.name(),
                model.name().to_string(),
                total.to_string(),
                at(0).to_string(),
                at(1).to_string(),
                far.to_string(),
                stats
                    .dominant_reason()
                    .map_or_else(|| "—".to_string(), |(r, c)| format!("{r} (×{c})")),
            ]);
        }
    }
    (table, provenance)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_flips_on_trees_are_always_detected_locally() {
        let t = run(12, 40, 0x52);
        assert_eq!(t.rows.len(), 9 * FaultModel::ALL.len());
        for row in &t.rows {
            if row[1] == FaultModel::BitFlip.name() {
                assert_eq!(
                    row[6], "1.00",
                    "scheme {} missed a bit flip: {row:?}",
                    row[0]
                );
            }
            // Certificate-level faults are visible only at radius 1.
            let cert_level = matches!(
                row[1].as_str(),
                "bit-flip" | "truncate" | "extend" | "zero-cert"
            );
            if cert_level && row[7] != "—" {
                let loc: f64 = row[7].parse().expect("locality cell");
                assert!(
                    loc <= 1.0,
                    "scheme {} rejected {}-far from a {} fault",
                    row[0],
                    row[7],
                    row[1]
                );
            }
        }
    }

    #[test]
    fn provenance_table_localizes_certificate_faults() {
        let (_, p) = run_with_provenance(12, 40, 0x52);
        assert_eq!(p.rows.len(), 9 * FaultModel::ALL.len());
        for row in &p.rows {
            let detections: usize = row[2].parse().expect("detections cell");
            let d0: usize = row[3].parse().expect("d=0 cell");
            let d1: usize = row[4].parse().expect("d=1 cell");
            let far: usize = row[5].parse().expect("d>=2 cell");
            // Every detection on these connected instances is reachable
            // from the fault site, so the histogram is exhaustive.
            assert_eq!(d0 + d1 + far, detections, "histogram mismatch: {row:?}");
            // Radius-1 verification: a single corrupted certificate is
            // invisible beyond the owner's neighbors.
            let cert_level = matches!(
                row[1].as_str(),
                "bit-flip" | "truncate" | "extend" | "zero-cert" | "replay"
            );
            if cert_level {
                assert_eq!(far, 0, "far detection of a {} fault: {row:?}", row[1]);
            }
            // The dominant reason is present exactly when something was
            // detected.
            assert_eq!(detections > 0, row[6] != "—", "reason cell: {row:?}");
        }
    }
}
