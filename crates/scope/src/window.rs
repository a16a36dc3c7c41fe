//! Fixed-interval window deltas, driven by logical rounds.
//!
//! A wall-clock window would make every windowed series
//! schedule-dependent; locert's workloads already carry a deterministic
//! logical clock — campaign run indices, verification passes — so
//! windows are keyed to *rounds*: window `w` covers rounds
//! `[w·interval, (w+1)·interval)`. Two engines share the
//! [`WindowDelta`] shape:
//!
//! - [`WindowTracker`] watches the live registry: feed it a
//!   [`Snapshot`] per observed round and it emits counter/histogram
//!   deltas each time the round number crosses into a new window;
//! - [`journal_windows`] replays a finished journal, bucketing logical
//!   rounds (from `RoundMark` boundaries, see
//!   [`crate::query::assign_rounds`]) and counting event kinds per
//!   window.
//!
//! Both are pure functions of their inputs: deterministic rounds in,
//! deterministic windows out.

use crate::query::assign_rounds;
use locert_trace::journal::JournalSnapshot;
use locert_trace::Snapshot;
use std::collections::BTreeMap;

/// One closed window's worth of change.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WindowDelta {
    /// Window index (`start_round / interval`).
    pub window: u64,
    /// First round covered (inclusive).
    pub start_round: u64,
    /// One past the last round covered.
    pub end_round: u64,
    /// Counter increments inside the window (for journal windows:
    /// event counts keyed `events.<kind>`). Zero deltas are omitted.
    pub counters: BTreeMap<String, u64>,
    /// Histogram observation-count increments inside the window. Zero
    /// deltas are omitted.
    pub histogram_counts: BTreeMap<String, u64>,
}

/// Live windowing over the metrics registry. Feed it monotone rounds;
/// it emits one delta per *completed* window (windows in which no
/// observation landed produce nothing — locert rounds are dense, and
/// an empty window has an all-zero delta anyway).
#[derive(Debug)]
pub struct WindowTracker {
    interval: u64,
    /// Window index and registry state at the last observation.
    last: Option<(u64, Snapshot)>,
}

fn counter_deltas(from: &Snapshot, to: &Snapshot) -> BTreeMap<String, u64> {
    to.counters
        .iter()
        .filter_map(|(name, &v)| {
            let before = from.counters.get(name).copied().unwrap_or(0);
            let d = v.saturating_sub(before);
            (d > 0).then(|| (name.clone(), d))
        })
        .collect()
}

fn histogram_count_deltas(from: &Snapshot, to: &Snapshot) -> BTreeMap<String, u64> {
    to.histograms
        .iter()
        .filter_map(|(name, h)| {
            let before = from.histograms.get(name).map_or(0, |h| h.count);
            let d = h.count.saturating_sub(before);
            (d > 0).then(|| (name.clone(), d))
        })
        .collect()
}

impl WindowTracker {
    /// A tracker with windows of `interval` rounds (minimum 1).
    pub fn new(interval: u64) -> WindowTracker {
        WindowTracker {
            interval: interval.max(1),
            last: None,
        }
    }

    /// The configured window width in rounds.
    pub fn interval(&self) -> u64 {
        self.interval
    }

    /// Observes the registry at logical round `round`. Returns the
    /// delta of the previously open window when `round` has moved past
    /// it; rounds must not decrease (a decrease restarts tracking).
    pub fn observe(&mut self, round: u64, snap: &Snapshot) -> Option<WindowDelta> {
        let window = round / self.interval;
        match self.last.take() {
            Some((prev_window, prev_snap)) if prev_window < window => {
                let delta = WindowDelta {
                    window: prev_window,
                    start_round: prev_window * self.interval,
                    end_round: (prev_window + 1) * self.interval,
                    counters: counter_deltas(&prev_snap, snap),
                    histogram_counts: histogram_count_deltas(&prev_snap, snap),
                };
                self.last = Some((window, snap.clone()));
                Some(delta)
            }
            Some((prev_window, prev_snap)) if prev_window == window => {
                self.last = Some((prev_window, prev_snap));
                None
            }
            // First observation, or rounds went backwards: restart.
            _ => {
                self.last = Some((window, snap.clone()));
                None
            }
        }
    }

    /// Closes the currently open window (end of run) and returns its
    /// delta against `snap`.
    pub fn finish(&mut self, snap: &Snapshot) -> Option<WindowDelta> {
        let (window, prev_snap) = self.last.take()?;
        Some(WindowDelta {
            window,
            start_round: window * self.interval,
            end_round: (window + 1) * self.interval,
            counters: counter_deltas(&prev_snap, snap),
            histogram_counts: histogram_count_deltas(&prev_snap, snap),
        })
    }
}

/// Buckets a finished journal into fixed windows of logical rounds
/// (marks in `scope`, see [`assign_rounds`]) and counts event kinds per
/// window (keys `events.<kind>`; round marks themselves are counted
/// too). Entries before the first mark are not windowed.
pub fn journal_windows(
    snap: &JournalSnapshot,
    scope: Option<&str>,
    interval: u64,
) -> Vec<WindowDelta> {
    let interval = interval.max(1);
    let rounds = assign_rounds(snap, scope);
    let mut windows: BTreeMap<u64, WindowDelta> = BTreeMap::new();
    for (entry, round) in snap.entries.iter().zip(&rounds) {
        let Some(round) = round else { continue };
        let w = round / interval;
        let delta = windows.entry(w).or_insert_with(|| WindowDelta {
            window: w,
            start_round: w * interval,
            end_round: (w + 1) * interval,
            ..WindowDelta::default()
        });
        *delta
            .counters
            .entry(format!("events.{}", entry.event.kind()))
            .or_insert(0) += 1;
    }
    windows.into_values().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use locert_trace::journal::{Entry, Event};

    fn snap_with(counters: &[(&str, u64)]) -> Snapshot {
        Snapshot {
            counters: counters.iter().map(|&(k, v)| (k.to_string(), v)).collect(),
            histograms: BTreeMap::new(),
            spans: Vec::new(),
        }
    }

    #[test]
    fn tracker_emits_deltas_at_window_boundaries() {
        let mut t = WindowTracker::new(4);
        assert_eq!(t.observe(0, &snap_with(&[("x", 10)])), None);
        assert_eq!(t.observe(3, &snap_with(&[("x", 14)])), None, "same window");
        let d = t
            .observe(4, &snap_with(&[("x", 20), ("y", 2)]))
            .expect("window 0 closed");
        assert_eq!((d.window, d.start_round, d.end_round), (0, 0, 4));
        assert_eq!(d.counters["x"], 10, "delta against window-0 entry state");
        assert_eq!(d.counters["y"], 2);
        // Skipping windows closes the open one against the new state.
        let d = t
            .observe(12, &snap_with(&[("x", 21), ("y", 2)]))
            .expect("closed");
        assert_eq!(d.window, 1);
        assert_eq!(d.counters.get("x"), Some(&1));
        assert_eq!(d.counters.get("y"), None, "zero deltas omitted");
        let d = t.finish(&snap_with(&[("x", 25), ("y", 2)])).expect("final");
        assert_eq!(d.window, 3);
        assert_eq!(d.counters["x"], 4);
        assert!(t.finish(&snap_with(&[])).is_none(), "finish consumes");
    }

    #[test]
    fn journal_windows_bucket_rounds() {
        let events = vec![
            Event::Marker {
                label: "pre".into(),
            }, // before any mark: unwindowed
            Event::RoundMark {
                scope: "core.faults.campaign".into(),
                round: Some(0),
            },
            Event::FaultInjected {
                model: "bit-flip".into(),
                site: 1,
                effective: true,
            },
            Event::RoundMark {
                scope: "core.faults.campaign".into(),
                round: Some(1),
            },
            Event::FaultInjected {
                model: "bit-flip".into(),
                site: 2,
                effective: true,
            },
            Event::RoundMark {
                scope: "core.faults.campaign".into(),
                round: Some(2),
            },
            Event::Detection {
                model: "bit-flip".into(),
                site: 2,
                detector: 2,
                reason: "malformed-certificate".into(),
                distance: Some(0),
            },
        ];
        let s = JournalSnapshot {
            entries: events
                .into_iter()
                .enumerate()
                .map(|(i, event)| Entry {
                    seq: i as u64,
                    event,
                })
                .collect(),
            dropped: 0,
        };
        let ws = journal_windows(&s, Some("core.faults.campaign"), 2);
        assert_eq!(ws.len(), 2);
        assert_eq!(
            (ws[0].window, ws[0].start_round, ws[0].end_round),
            (0, 0, 2)
        );
        assert_eq!(ws[0].counters["events.round-mark"], 2);
        assert_eq!(ws[0].counters["events.fault-injected"], 2);
        assert_eq!(ws[1].window, 1);
        assert_eq!(ws[1].counters["events.detection"], 1);
        assert_eq!(ws[1].counters.get("events.marker"), None);
    }
}
