//! A filter engine over journal snapshots.
//!
//! Filters compose conjunctively: an entry matches when it passes every
//! set field of the [`Query`]. Vertex filters match the vertex in *any*
//! role (detector, fault site, frame endpoint, …) — "show me everything
//! that touched vertex 7" is the question an operator actually asks.
//!
//! Round filtering uses the [`Event::RoundMark`] boundaries: an entry's
//! round is that of the most recent preceding mark (in the query's
//! scope, when one is given). Marks without a producer-assigned number
//! get ordinals by position per scope — well-defined because journals
//! are deterministic for a fixed seed.

use locert_trace::journal::{Entry, Event, JournalSnapshot};
use std::collections::BTreeMap;

/// Every vertex the event mentions, in any role.
pub fn vertices_of(event: &Event) -> Vec<u64> {
    match event {
        Event::Verdict { vertex, .. }
        | Event::CertMutated { vertex }
        | Event::NetVerdict { vertex, .. } => vec![*vertex],
        Event::FaultInjected { site, .. } => vec![*site],
        Event::Detection { site, detector, .. } => vec![*site, *detector],
        Event::NetSend { src, dst, .. } | Event::NetDrop { src, dst, .. } => vec![*src, *dst],
        Event::NetRetry { node, .. } | Event::NetCrash { node, .. } => vec![*node],
        Event::ProverStart { .. }
        | Event::ProverEnd { .. }
        | Event::CampaignRound { .. }
        | Event::OracleDisagreement { .. }
        | Event::ShrinkStep { .. }
        | Event::ServeRequest { .. }
        | Event::RoundMark { .. }
        | Event::Marker { .. } => Vec::new(),
    }
}

/// The event's name-like field: scheme, fault model, oracle case, round
/// scope, or marker label.
pub fn name_of(event: &Event) -> Option<&str> {
    match event {
        Event::ProverStart { scheme } | Event::ProverEnd { scheme, .. } => Some(scheme),
        Event::FaultInjected { model, .. }
        | Event::Detection { model, .. }
        | Event::CampaignRound { model, .. } => Some(model),
        Event::OracleDisagreement { case, .. } | Event::ShrinkStep { case, .. } => Some(case),
        Event::ServeRequest { scheme, .. } => Some(scheme),
        Event::RoundMark { scope, .. } => Some(scope),
        Event::Marker { label } => Some(label),
        _ => None,
    }
}

/// A conjunctive journal filter. Unset fields match everything.
#[derive(Debug, Clone, Default)]
pub struct Query {
    /// Event kinds ([`Event::kind`] tags) to keep; empty keeps all.
    pub kinds: Vec<String>,
    /// Keep entries mentioning this vertex in any role.
    pub vertex: Option<u64>,
    /// Keep entries whose name-like field ([`name_of`]) equals this.
    pub name: Option<String>,
    /// Keep entries in this logical round (see [`assign_rounds`]).
    pub round: Option<u64>,
    /// Restrict round tracking to marks with this scope.
    pub scope: Option<String>,
}

impl Query {
    /// Whether the stateless filters (kind, vertex, name) pass.
    fn matches_stateless(&self, event: &Event) -> bool {
        if !self.kinds.is_empty() && !self.kinds.iter().any(|k| k == event.kind()) {
            return false;
        }
        if let Some(v) = self.vertex {
            if !vertices_of(event).contains(&v) {
                return false;
            }
        }
        if let Some(name) = &self.name {
            if name_of(event) != Some(name.as_str()) {
                return false;
            }
        }
        true
    }
}

/// The logical round each entry belongs to, parallel to
/// `snap.entries`: the effective round of the most recent
/// [`Event::RoundMark`] (restricted to `scope` when given), `None`
/// before the first mark. Marks with `round: None` receive ordinals by
/// position, counted separately per scope starting at 0.
pub fn assign_rounds(snap: &JournalSnapshot, scope: Option<&str>) -> Vec<Option<u64>> {
    let mut ordinals: BTreeMap<&str, u64> = BTreeMap::new();
    let mut current = None;
    snap.entries
        .iter()
        .map(|entry| {
            if let Event::RoundMark { scope: s, round } = &entry.event {
                if scope.is_none_or(|want| want == s) {
                    let effective = round.unwrap_or_else(|| {
                        let next = ordinals.entry(s.as_str()).or_insert(0);
                        let v = *next;
                        *next += 1;
                        v
                    });
                    current = Some(effective);
                }
            }
            current
        })
        .collect()
}

/// Runs the query over a snapshot, returning matching entries in journal
/// order (round marks themselves match a round filter when they open
/// that round).
pub fn run(snap: &JournalSnapshot, q: &Query) -> Vec<Entry> {
    let rounds = q
        .round
        .is_some()
        .then(|| assign_rounds(snap, q.scope.as_deref()));
    snap.entries
        .iter()
        .enumerate()
        .filter(|(i, entry)| {
            if let (Some(want), Some(rounds)) = (q.round, &rounds) {
                if rounds[*i] != Some(want) {
                    return false;
                }
            }
            q.matches_stateless(&entry.event)
        })
        .map(|(_, entry)| entry.clone())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(events: Vec<Event>) -> JournalSnapshot {
        JournalSnapshot {
            entries: events
                .into_iter()
                .enumerate()
                .map(|(i, event)| Entry {
                    seq: i as u64,
                    event,
                })
                .collect(),
            dropped: 0,
        }
    }

    fn campaign_snap() -> JournalSnapshot {
        snap(vec![
            Event::Marker { label: "s2".into() },
            Event::RoundMark {
                scope: "core.faults.campaign".into(),
                round: Some(0),
            },
            Event::FaultInjected {
                model: "bit-flip".into(),
                site: 3,
                effective: true,
            },
            Event::Detection {
                model: "bit-flip".into(),
                site: 3,
                detector: 2,
                reason: "parent-distance-clash".into(),
                distance: Some(1),
            },
            Event::RoundMark {
                scope: "core.faults.campaign".into(),
                round: Some(1),
            },
            Event::FaultInjected {
                model: "bit-flip".into(),
                site: 7,
                effective: false,
            },
        ])
    }

    #[test]
    fn kind_and_vertex_filters_compose() {
        let s = campaign_snap();
        let q = Query {
            kinds: vec!["detection".into()],
            ..Default::default()
        };
        assert_eq!(run(&s, &q).len(), 1);
        let q = Query {
            vertex: Some(3),
            ..Default::default()
        };
        // site of both the injection and the detection.
        assert_eq!(run(&s, &q).len(), 2);
        let q = Query {
            kinds: vec!["fault-injected".into()],
            vertex: Some(3),
            ..Default::default()
        };
        assert_eq!(run(&s, &q).len(), 1);
        let q = Query {
            name: Some("bit-flip".into()),
            ..Default::default()
        };
        // Two injections and one detection carry the model name.
        assert_eq!(run(&s, &q).len(), 3);
    }

    #[test]
    fn round_filter_uses_marks() {
        let s = campaign_snap();
        let q = Query {
            round: Some(0),
            ..Default::default()
        };
        let hits = run(&s, &q);
        // The mark itself, the injection, and the detection.
        assert_eq!(hits.len(), 3);
        assert!(hits
            .iter()
            .all(|e| !matches!(&e.event, Event::Marker { .. })));
        let q = Query {
            round: Some(1),
            kinds: vec!["fault-injected".into()],
            ..Default::default()
        };
        let hits = run(&s, &q);
        assert_eq!(hits.len(), 1);
        assert!(matches!(
            &hits[0].event,
            Event::FaultInjected { site: 7, .. }
        ));
    }

    #[test]
    fn unnumbered_marks_get_per_scope_ordinals() {
        let s = snap(vec![
            Event::RoundMark {
                scope: "core.verify".into(),
                round: None,
            },
            Event::Verdict {
                vertex: 0,
                accepted: true,
                reason: None,
                bits_read: 8,
            },
            Event::RoundMark {
                scope: "core.verify".into(),
                round: None,
            },
            Event::Verdict {
                vertex: 0,
                accepted: false,
                reason: Some("root-mismatch".into()),
                bits_read: 8,
            },
        ]);
        let rounds = assign_rounds(&s, Some("core.verify"));
        assert_eq!(rounds, vec![Some(0), Some(0), Some(1), Some(1)]);
        let q = Query {
            round: Some(1),
            scope: Some("core.verify".into()),
            kinds: vec!["verdict".into()],
            ..Default::default()
        };
        let hits = run(&s, &q);
        assert_eq!(hits.len(), 1);
        assert!(matches!(
            &hits[0].event,
            Event::Verdict {
                accepted: false,
                ..
            }
        ));
    }
}
