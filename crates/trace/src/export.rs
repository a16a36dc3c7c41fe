//! Structured export of a [`Snapshot`]: JSON, the Chrome trace-event
//! timeline, and the one writer and reader of the `locert-trace/v2`
//! metrics document ([`metrics_document`], [`MetricsDoc`]).

use crate::journal::{self, JournalSnapshot};
use crate::json::{self, Value};
use crate::{HistogramSnapshot, Snapshot, SpanNode};
use std::collections::BTreeMap;

fn span_to_json(s: &SpanNode) -> Value {
    Value::obj([
        ("name".to_string(), Value::from(s.name.as_str())),
        ("calls".to_string(), Value::from(s.calls)),
        ("total_ns".to_string(), Value::from(s.total_ns)),
        (
            "children".to_string(),
            Value::Arr(s.children.iter().map(span_to_json).collect()),
        ),
    ])
}

/// Parses one exported span-tree node back (the inverse of the span
/// objects [`snapshot_to_json`] writes). `calls` and `total_ns` must be
/// non-negative integers: `2.5` or `-1` is malformed, not truncated.
pub fn span_from_json(v: &Value) -> Option<SpanNode> {
    Some(SpanNode {
        name: v.get("name")?.as_str()?.to_string(),
        calls: v.get("calls")?.as_u64()?,
        total_ns: v.get("total_ns")?.as_u64()?,
        children: v
            .get("children")?
            .as_arr()?
            .iter()
            .map(span_from_json)
            .collect::<Option<Vec<_>>>()?,
    })
}

fn histogram_to_json(h: &HistogramSnapshot) -> Value {
    let mut pairs = vec![
        ("count".to_string(), Value::from(h.count)),
        ("sum".to_string(), Value::from(h.sum)),
        (
            "buckets".to_string(),
            Value::Arr(
                h.buckets
                    .iter()
                    .map(|&(le, c)| {
                        Value::obj([
                            // The overflow bucket's bound is u64::MAX,
                            // which f64 cannot hold exactly; export as
                            // null (conventional "+Inf" bucket).
                            (
                                "le".to_string(),
                                if le == u64::MAX {
                                    Value::Null
                                } else {
                                    Value::from(le)
                                },
                            ),
                            ("count".to_string(), Value::from(c)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ];
    if let Some(min) = h.min {
        pairs.push(("min".to_string(), Value::from(min)));
    }
    if let Some(max) = h.max {
        pairs.push(("max".to_string(), Value::from(max)));
    }
    if let Some(mean) = h.mean() {
        pairs.push(("mean".to_string(), Value::from(mean)));
    }
    Value::obj(pairs)
}

/// Converts a snapshot into a JSON value:
/// `{"counters": {...}, "histograms": {...}, "spans": [...]}`.
pub fn snapshot_to_json(snap: &Snapshot) -> Value {
    Value::obj([
        (
            "counters".to_string(),
            Value::Obj(
                snap.counters
                    .iter()
                    .map(|(k, &v)| (k.clone(), Value::from(v)))
                    .collect(),
            ),
        ),
        (
            "histograms".to_string(),
            Value::Obj(
                snap.histograms
                    .iter()
                    .map(|(k, h)| (k.clone(), histogram_to_json(h)))
                    .collect(),
            ),
        ),
        (
            "spans".to_string(),
            Value::Arr(snap.spans.iter().map(span_to_json).collect()),
        ),
    ])
}

/// The snapshot as one JSON document (no trailing newline).
pub fn snapshot_json_string(snap: &Snapshot) -> String {
    snapshot_to_json(snap).to_string()
}

/// Whether `name` names a *timing* quantity — one that legitimately
/// varies between runs, machines, or worker counts, and therefore must
/// not appear in committed baselines or byte-compared artifacts:
///
/// - `par.*` counters describe scheduling (tasks stolen, workers parked),
///   which depends on the thread count and the OS scheduler;
/// - `*.ns` histograms record wall time.
///
/// Everything else in this workspace is a pure function of the seed.
/// (Span trees are always timing: their payload is `total_ns`, and their
/// shape depends on which thread ran which task.)
pub fn is_timing_key(name: &str) -> bool {
    name.starts_with("par.") || name.ends_with(".ns")
}

/// Splits a snapshot into `(deterministic, timing)` halves: counters and
/// histograms partitioned by [`is_timing_key`], and every span assigned
/// to the timing half. The deterministic half is byte-stable for a fixed
/// seed at any worker count — it is what CI compares and what `--baseline`
/// commits; the timing half is diagnostic.
pub fn split_deterministic(snap: &Snapshot) -> (Snapshot, Snapshot) {
    let mut deterministic = Snapshot {
        counters: Default::default(),
        histograms: Default::default(),
        spans: Vec::new(),
    };
    let mut timing = Snapshot {
        counters: Default::default(),
        histograms: Default::default(),
        spans: snap.spans.clone(),
    };
    for (name, &value) in &snap.counters {
        let side = if is_timing_key(name) {
            &mut timing
        } else {
            &mut deterministic
        };
        side.counters.insert(name.clone(), value);
    }
    for (name, hist) in &snap.histograms {
        let side = if is_timing_key(name) {
            &mut timing
        } else {
            &mut deterministic
        };
        side.histograms.insert(name.clone(), hist.clone());
    }
    (deterministic, timing)
}

// ---------------------------------------------------------------------
// The metrics-v2 document
// ---------------------------------------------------------------------

/// Schema tag of the metrics document written by `experiments --metrics`,
/// `netstorm` and `loadgen`.
pub const METRICS_SCHEMA: &str = "locert-trace/v2";

/// The optional `journal` section of a metrics document: the ring's
/// configuration and outcome for the journal written next to it, so a
/// truncated journal can be told from a complete one without parsing
/// the JSONL.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RingMeta {
    /// Ring capacity in entries.
    pub capacity: u64,
    /// Entries evicted before the snapshot was taken.
    pub dropped: u64,
    /// Entries the snapshot retained.
    pub entries: u64,
}

impl RingMeta {
    /// The live ring's capacity together with `snap`'s outcome.
    pub fn of(snap: &JournalSnapshot) -> RingMeta {
        RingMeta {
            capacity: journal::capacity() as u64,
            dropped: snap.dropped,
            entries: snap.entries.len() as u64,
        }
    }

    fn to_json(self) -> Value {
        Value::obj([
            ("capacity".to_string(), Value::from(self.capacity)),
            ("dropped".to_string(), Value::from(self.dropped)),
            ("entries".to_string(), Value::from(self.entries)),
        ])
    }

    /// Reads the section back and checks its accounting: `capacity` ≥ 1,
    /// `entries` ≤ `capacity`, and drops only from a full ring (the ring
    /// evicts oldest-first, and only when full).
    fn from_json(v: &Value) -> Result<RingMeta, String> {
        let field = |name: &str| {
            v.get(name)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("journal section has no integer \"{name}\""))
        };
        let (capacity, dropped, entries) =
            (field("capacity")?, field("dropped")?, field("entries")?);
        if capacity == 0 {
            return Err("journal capacity must be at least 1".into());
        }
        if entries > capacity {
            return Err(format!(
                "journal claims {entries} entries in a ring of {capacity}"
            ));
        }
        if dropped > 0 && entries < capacity {
            return Err(format!(
                "journal dropped {dropped} events but the ring is not full \
                 ({entries} of {capacity})"
            ));
        }
        Ok(RingMeta {
            capacity,
            dropped,
            entries,
        })
    }
}

/// Writes the `locert-trace/v2` metrics document (one line, with a
/// trailing newline). Each section is `(id, wall seconds, snapshot)`;
/// its snapshot is split ([`split_deterministic`]) into the
/// seed-deterministic half, under `experiments`, and the run-varying
/// half (`par.*` counters, `.ns` histograms, span trees) next to
/// `wall_s` under `timings`. `journal` adds the optional ring section.
pub fn metrics_document<'a>(
    quick: bool,
    sections: impl IntoIterator<Item = (&'a str, f64, &'a Snapshot)>,
    journal: Option<RingMeta>,
) -> String {
    let mut experiments = Vec::new();
    let mut timings = Vec::new();
    for (id, wall_s, snap) in sections {
        let (deterministic, timing) = split_deterministic(snap);
        experiments.push(Value::obj([
            ("id".to_string(), Value::from(id)),
            ("telemetry".to_string(), snapshot_to_json(&deterministic)),
        ]));
        timings.push(Value::obj([
            ("id".to_string(), Value::from(id)),
            ("wall_s".to_string(), Value::from(wall_s)),
            ("telemetry".to_string(), snapshot_to_json(&timing)),
        ]));
    }
    let mut doc = BTreeMap::from([
        ("schema".to_string(), Value::from(METRICS_SCHEMA)),
        ("quick".to_string(), Value::from(quick)),
        ("experiments".to_string(), Value::Arr(experiments)),
        ("timings".to_string(), Value::Arr(timings)),
    ]);
    if let Some(meta) = journal {
        doc.insert("journal".to_string(), meta.to_json());
    }
    format!("{}\n", Value::Obj(doc))
}

/// A parsed `locert-trace/v2` metrics document: the one reader behind
/// `trace-check`, `bench_diff` and `tracescope flame`.
#[derive(Debug, Clone)]
pub struct MetricsDoc(Value);

/// One section of a [`MetricsDoc`], as read back: the `experiments` and
/// `timings` entries that share its position and id.
#[derive(Debug, Clone, Copy)]
pub struct Section<'a> {
    /// The section id (an experiment id, `s4`, `loadgen`).
    pub id: &'a str,
    /// Wall-clock seconds of the run.
    pub wall_s: f64,
    deterministic: &'a Value,
    timing: &'a Value,
}

impl<'a> Section<'a> {
    /// The deterministic counters, by name.
    ///
    /// # Errors
    ///
    /// When `counters` is missing or holds a non-integer value.
    pub fn counters(&self) -> Result<BTreeMap<&'a str, u64>, String> {
        let malformed = || format!("experiment {} has malformed counters", self.id);
        let Some(Value::Obj(counters)) = self.deterministic.get("counters") else {
            return Err(malformed());
        };
        counters
            .iter()
            .map(|(name, v)| Some((name.as_str(), v.as_u64()?)))
            .collect::<Option<_>>()
            .ok_or_else(malformed)
    }

    /// The span forest of the run.
    ///
    /// # Errors
    ///
    /// When `spans` is missing or a node is malformed.
    pub fn spans(&self) -> Result<Vec<SpanNode>, String> {
        self.timing
            .get("spans")
            .and_then(Value::as_arr)
            .ok_or_else(|| format!("timing {} has no span tree", self.id))?
            .iter()
            .map(span_from_json)
            .collect::<Option<Vec<_>>>()
            .ok_or_else(|| format!("timing {}: malformed span node", self.id))
    }
}

impl MetricsDoc {
    /// Parses a document.
    ///
    /// # Errors
    ///
    /// Invalid JSON, or a schema other than [`METRICS_SCHEMA`].
    pub fn parse(text: &str) -> Result<MetricsDoc, String> {
        MetricsDoc::from_value(json::parse(text).map_err(|e| e.to_string())?)
    }

    /// Wraps an already parsed document.
    ///
    /// # Errors
    ///
    /// A schema other than [`METRICS_SCHEMA`].
    pub fn from_value(doc: Value) -> Result<MetricsDoc, String> {
        match doc.get("schema").and_then(Value::as_str) {
            Some(METRICS_SCHEMA) => Ok(MetricsDoc(doc)),
            schema => Err(format!("unknown schema {:?}", schema.unwrap_or(""))),
        }
    }

    /// The parsed document itself.
    pub fn into_value(self) -> Value {
        self.0
    }

    /// The sections, in order.
    ///
    /// # Errors
    ///
    /// A missing `experiments` or `timings` array, arrays of different
    /// lengths or ids, or an entry without `id` or `wall_s`.
    pub fn sections<'a>(&'a self) -> Result<Vec<Section<'a>>, String> {
        let array = |key: &str| {
            self.0
                .get(key)
                .and_then(Value::as_arr)
                .ok_or_else(|| format!("missing top-level \"{key}\" array"))
        };
        let (experiments, timings) = (array("experiments")?, array("timings")?);
        if timings.len() != experiments.len() {
            return Err(format!(
                "timings has {} entries, experiments {}",
                timings.len(),
                experiments.len()
            ));
        }
        experiments
            .iter()
            .zip(timings)
            .enumerate()
            .map(|(i, (exp, timing))| {
                let id_of = |v: &'a Value, key: &str| {
                    v.get("id")
                        .and_then(Value::as_str)
                        .ok_or_else(|| format!("{key}[{i}] has no \"id\""))
                };
                let id = id_of(exp, "experiments")?;
                if id_of(timing, "timings")? != id {
                    return Err(format!("timings[{i}] is not experiment {id}"));
                }
                let telemetry = |v: &'a Value| v.get("telemetry").unwrap_or(&Value::Null);
                Ok(Section {
                    id,
                    wall_s: timing
                        .get("wall_s")
                        .and_then(Value::as_num)
                        .ok_or_else(|| format!("timing {id} has no wall_s"))?,
                    deterministic: telemetry(exp),
                    timing: telemetry(timing),
                })
            })
            .collect()
    }

    /// The `journal` ring section, when the document has one.
    ///
    /// # Errors
    ///
    /// A section with missing fields or impossible accounting.
    pub fn journal(&self) -> Result<Option<RingMeta>, String> {
        self.0.get("journal").map(RingMeta::from_json).transpose()
    }

    /// The deterministic projection, serialized with sorted keys: `quick`,
    /// `experiments` and (when present) `journal`. Two same-seed runs
    /// agree on it at any thread count; `trace-check --compare` and the
    /// determinism tests compare it.
    ///
    /// # Errors
    ///
    /// A document without `quick` or `experiments`.
    pub fn deterministic(&self) -> Result<String, String> {
        let mut projection = BTreeMap::new();
        for key in ["quick", "experiments", "journal"] {
            match self.0.get(key) {
                Some(v) => {
                    projection.insert(key.to_string(), v.clone());
                }
                None if key == "journal" => {}
                None => return Err(format!("missing \"{key}\"")),
            }
        }
        Ok(Value::Obj(projection).to_string())
    }

    /// Multiplies every section's `wall_s` by `factor` (`bench_diff
    /// scale` synthesizes a regression with it).
    pub fn scale_wall_s(&mut self, factor: f64) {
        let Value::Obj(doc) = &mut self.0 else {
            return;
        };
        if let Some(Value::Arr(timings)) = doc.get_mut("timings") {
            for timing in timings {
                if let Value::Obj(fields) = timing {
                    if let Some(Value::Num(wall_s)) = fields.get_mut("wall_s") {
                        *wall_s *= factor;
                    }
                }
            }
        }
    }
}

fn chrome_event(name: &str, ts_us: f64, dur_us: f64, calls: u64) -> Value {
    Value::obj([
        ("name".to_string(), Value::from(name)),
        ("cat".to_string(), Value::from("span")),
        ("ph".to_string(), Value::from("X")),
        ("ts".to_string(), Value::from(ts_us)),
        ("dur".to_string(), Value::from(dur_us)),
        ("pid".to_string(), Value::from(0u64)),
        ("tid".to_string(), Value::from(0u64)),
        (
            "args".to_string(),
            Value::obj([("calls".to_string(), Value::from(calls))]),
        ),
    ])
}

/// Emits `span` as a complete ("X") event starting at `start_us`, lays
/// its children out sequentially from the same instant, and returns the
/// span's end time.
fn emit_chrome_span(events: &mut Vec<Value>, span: &SpanNode, start_us: f64) -> f64 {
    let dur_us = span.total_ns as f64 / 1e3;
    events.push(chrome_event(&span.name, start_us, dur_us, span.calls));
    let mut cursor = start_us;
    for child in &span.children {
        cursor = emit_chrome_span(events, child, cursor);
    }
    start_us + dur_us
}

/// Renders one or more labeled snapshots as a Chrome trace-event
/// document (`chrome://tracing` / Perfetto, "X" complete events).
///
/// The aggregated span forest carries durations but no timestamps, so a
/// timeline is *synthesized*: sections (and sibling spans within a
/// section) are laid out back to back, children start where their
/// parent starts. Each section gets a wrapper event named after its
/// label. The result depends only on the snapshot contents — a
/// seed-deterministic run exports a byte-identical trace.
pub fn chrome_trace_json(sections: &[(&str, &Snapshot)]) -> Value {
    let mut events = Vec::new();
    let mut cursor = 0.0f64;
    for (label, snap) in sections {
        let section_dur: f64 = snap.spans.iter().map(|s| s.total_ns as f64 / 1e3).sum();
        events.push(chrome_event(label, cursor, section_dur, 1));
        for span in &snap.spans {
            cursor = emit_chrome_span(&mut events, span, cursor);
        }
    }
    Value::obj([
        ("traceEvents".to_string(), Value::Arr(events)),
        ("displayTimeUnit".to_string(), Value::from("ms")),
    ])
}

/// [`chrome_trace_json`] as one JSON document (no trailing newline).
pub fn chrome_trace_string(sections: &[(&str, &Snapshot)]) -> String {
    chrome_trace_json(sections).to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn export_roundtrips_through_json() {
        let _g = crate::tests::serial();
        crate::disable();
        crate::reset();
        crate::enable();
        {
            let _s = crate::span!("export.test.outer");
            let _i = crate::span!("export.test.inner");
            crate::add("export.test.counter", 41);
            crate::record("export.test.histogram", 12);
            crate::record("export.test.histogram", 3);
        }
        crate::disable();
        let snap = crate::snapshot();
        crate::reset();

        let text = snapshot_json_string(&snap);
        let parsed = json::parse(&text).expect("export parses back");
        assert_eq!(
            parsed
                .get("counters")
                .and_then(|c| c.get("export.test.counter"))
                .and_then(json::Value::as_num),
            Some(41.0)
        );
        let hist = parsed
            .get("histograms")
            .and_then(|h| h.get("export.test.histogram"))
            .expect("histogram exported");
        assert_eq!(hist.get("count").and_then(json::Value::as_num), Some(2.0));
        assert_eq!(hist.get("sum").and_then(json::Value::as_num), Some(15.0));
        let spans = parsed
            .get("spans")
            .and_then(json::Value::as_arr)
            .expect("spans");
        let outer = spans
            .iter()
            .find(|s| s.get("name").and_then(json::Value::as_str) == Some("export.test.outer"))
            .expect("outer span exported");
        let children = outer
            .get("children")
            .and_then(json::Value::as_arr)
            .expect("children");
        assert_eq!(
            children[0].get("name").and_then(json::Value::as_str),
            Some("export.test.inner")
        );
    }

    #[test]
    fn chrome_trace_synthesizes_a_nested_timeline() {
        let _g = crate::tests::serial();
        crate::disable();
        crate::reset();
        crate::enable();
        {
            let _s = crate::span!("chrome.test.outer");
            let _i = crate::span!("chrome.test.inner");
        }
        crate::disable();
        let snap = crate::snapshot();
        crate::reset();

        let text = chrome_trace_string(&[("e1", &snap)]);
        let parsed = json::parse(&text).expect("valid JSON");
        let events = parsed
            .get("traceEvents")
            .and_then(json::Value::as_arr)
            .expect("traceEvents array");
        // Section wrapper + outer + inner (at least).
        assert!(events.len() >= 3, "got {} events", events.len());
        let by_name = |n: &str| {
            events
                .iter()
                .find(|e| e.get("name").and_then(json::Value::as_str) == Some(n))
                .unwrap_or_else(|| panic!("event {n} present"))
        };
        let outer = by_name("chrome.test.outer");
        let inner = by_name("chrome.test.inner");
        for e in [outer, inner, by_name("e1")] {
            assert_eq!(e.get("ph").and_then(json::Value::as_str), Some("X"));
            assert!(e.get("ts").and_then(json::Value::as_num).is_some());
            assert!(e.get("dur").and_then(json::Value::as_num).is_some());
        }
        // The child starts where its parent starts and fits inside it.
        let ts = |e: &json::Value| e.get("ts").and_then(json::Value::as_num).expect("ts");
        let dur = |e: &json::Value| e.get("dur").and_then(json::Value::as_num).expect("dur");
        assert_eq!(ts(outer), ts(inner));
        assert!(dur(inner) <= dur(outer));
    }

    #[test]
    fn chrome_trace_lays_sections_back_to_back() {
        let mk = |ns: u64| Snapshot {
            counters: Default::default(),
            histograms: Default::default(),
            spans: vec![SpanNode {
                name: "s".into(),
                calls: 1,
                total_ns: ns,
                children: Vec::new(),
            }],
        };
        let (a, b) = (mk(2_000), mk(3_000));
        let parsed = json::parse(&chrome_trace_string(&[("first", &a), ("second", &b)]))
            .expect("valid JSON");
        let events = parsed
            .get("traceEvents")
            .and_then(json::Value::as_arr)
            .expect("traceEvents");
        let find = |n: &str| {
            events
                .iter()
                .find(|e| e.get("name").and_then(json::Value::as_str) == Some(n))
                .expect("section event")
                .get("ts")
                .and_then(json::Value::as_num)
                .expect("ts")
        };
        assert_eq!(find("first"), 0.0);
        // Second section starts after the first's 2 µs of spans.
        assert_eq!(find("second"), 2.0);
    }

    #[test]
    fn chrome_trace_escapes_hostile_span_names() {
        // Span names come from `span!` literals today, but the export
        // format must survive anything a future dynamic source puts in
        // a SpanNode: quotes, backslashes, newlines, non-ASCII.
        let hostile = [
            "with \"quotes\"",
            "back\\slash\\path",
            "tab\there",
            "line\nbreak",
            "π-treewidth ≤ 3 → 日本語",
            "control\u{1}char",
        ];
        let snap = Snapshot {
            counters: Default::default(),
            histograms: Default::default(),
            spans: hostile
                .iter()
                .map(|&name| SpanNode {
                    name: name.to_string(),
                    calls: 1,
                    total_ns: 1_000,
                    children: Vec::new(),
                })
                .collect(),
        };
        let text = chrome_trace_string(&[("sect \"x\" \\ ümlaut", &snap)]);
        let parsed = json::parse(&text).expect("escaped output parses back");
        let events = parsed
            .get("traceEvents")
            .and_then(json::Value::as_arr)
            .expect("traceEvents");
        let names: Vec<&str> = events
            .iter()
            .filter_map(|e| e.get("name").and_then(json::Value::as_str))
            .collect();
        assert_eq!(names[0], "sect \"x\" \\ ümlaut");
        for name in hostile {
            assert!(
                names.contains(&name),
                "name {name:?} lost in the round trip (got {names:?})"
            );
        }
    }

    #[test]
    fn chrome_trace_event_order_is_stable() {
        // Events must come out in deterministic depth-first order —
        // sections in argument order, siblings in snapshot order,
        // parent before children — and re-exporting must be
        // byte-identical (CI compares these artifacts).
        let child = |n: &str| SpanNode {
            name: n.to_string(),
            calls: 1,
            total_ns: 500,
            children: Vec::new(),
        };
        let snap_a = Snapshot {
            counters: Default::default(),
            histograms: Default::default(),
            spans: vec![
                SpanNode {
                    name: "a.outer".into(),
                    calls: 1,
                    total_ns: 2_000,
                    children: vec![child("a.inner1"), child("a.inner2")],
                },
                child("a.second-root"),
            ],
        };
        let snap_b = Snapshot {
            counters: Default::default(),
            histograms: Default::default(),
            spans: vec![child("b.only")],
        };
        let sections: &[(&str, &Snapshot)] = &[("first", &snap_a), ("second", &snap_b)];
        let text = chrome_trace_string(sections);
        assert_eq!(
            text,
            chrome_trace_string(sections),
            "re-export must be byte-identical"
        );
        let parsed = json::parse(&text).expect("parses");
        let names: Vec<String> = parsed
            .get("traceEvents")
            .and_then(json::Value::as_arr)
            .expect("traceEvents")
            .iter()
            .filter_map(|e| e.get("name").and_then(json::Value::as_str))
            .map(str::to_string)
            .collect();
        assert_eq!(
            names,
            vec![
                "first",
                "a.outer",
                "a.inner1",
                "a.inner2",
                "a.second-root",
                "second",
                "b.only",
            ],
            "wrapper first, then depth-first spans; sections in argument order"
        );
    }

    fn run_snapshot(counter: u64, total_ns: u64) -> Snapshot {
        Snapshot {
            counters: [
                ("core.test.calls".to_string(), counter),
                ("par.worker.tasks".to_string(), total_ns),
            ]
            .into(),
            histograms: Default::default(),
            spans: vec![SpanNode {
                name: "root".into(),
                calls: 2,
                total_ns,
                children: vec![SpanNode {
                    name: "leaf".into(),
                    calls: 1,
                    total_ns: total_ns / 2,
                    children: Vec::new(),
                }],
            }],
        }
    }

    #[test]
    fn metrics_document_reads_back_through_the_reader() {
        let (a, b) = (run_snapshot(5, 1_000), run_snapshot(7, 2_000));
        let ring = RingMeta {
            capacity: 8,
            dropped: 0,
            entries: 3,
        };
        let text = metrics_document(true, [("e1", 0.5, &a), ("s2", 1.25, &b)], Some(ring));
        assert!(text.ends_with('\n'));
        let doc = MetricsDoc::parse(&text).expect("reads back");
        assert_eq!(
            format!("{}\n", doc.clone().into_value()),
            text,
            "re-serialization is byte-identical"
        );
        let sections = doc.sections().expect("sections");
        let ids: Vec<(&str, f64)> = sections.iter().map(|s| (s.id, s.wall_s)).collect();
        assert_eq!(ids, vec![("e1", 0.5), ("s2", 1.25)]);
        // Scheduling counters go to the timing half; spans come back whole.
        let counters = sections[1].counters().expect("counters");
        assert_eq!(
            counters.into_iter().collect::<Vec<_>>(),
            [("core.test.calls", 7)]
        );
        assert_eq!(sections[1].spans().expect("spans"), b.spans);
        assert_eq!(doc.journal(), Ok(Some(ring)));

        // A second run with other wall times agrees on the projection.
        let projection = doc.deterministic().expect("projection");
        assert!(projection.contains("\"journal\":{\"capacity\":8"));
        assert!(!projection.contains("wall_s") && !projection.contains("par."));
        let (c, d) = (run_snapshot(5, 9), run_snapshot(7, 9));
        let other = metrics_document(true, [("e1", 3.0, &c), ("s2", 3.0, &d)], Some(ring));
        let other = MetricsDoc::parse(&other).expect("reads back");
        assert_eq!(other.deterministic(), Ok(projection));

        let mut scaled = doc.clone();
        scaled.scale_wall_s(2.0);
        let walls: Vec<f64> = scaled
            .sections()
            .expect("sections")
            .iter()
            .map(|s| s.wall_s)
            .collect();
        assert_eq!(walls, vec![1.0, 2.5]);

        // Without a ring section the document has no `journal` key.
        let plain = metrics_document(false, [("loadgen", 0.1, &a)], None);
        let plain = MetricsDoc::parse(&plain).expect("reads back");
        assert_eq!(plain.journal(), Ok(None));
        assert!(plain
            .deterministic()
            .expect("projection")
            .contains("\"quick\":false"));
    }

    #[test]
    fn reader_rejects_malformed_documents() {
        let err = |text: &str| MetricsDoc::parse(text).and_then(|d| d.sections().map(|_| ()));
        assert!(err("{\"schema\":\"locert-trace/v1\"}")
            .unwrap_err()
            .contains("unknown schema"));
        assert!(err("{\"schema\":\"locert-trace/v2\",\"experiments\":[]}")
            .unwrap_err()
            .contains("\"timings\""));
        let swapped = r#"{"schema":"locert-trace/v2","experiments":[{"id":"a"}],
            "timings":[{"id":"b","wall_s":1}]}"#;
        assert!(err(swapped).unwrap_err().contains("timings[0]"));
        let no_quick = MetricsDoc::parse(r#"{"schema":"locert-trace/v2","experiments":[]}"#)
            .expect("schema ok");
        assert_eq!(
            no_quick.deterministic(),
            Err("missing \"quick\"".to_string())
        );
        for (ring, why) in [
            (r#"{"capacity":0,"dropped":0,"entries":0}"#, "at least 1"),
            (
                r#"{"capacity":4,"dropped":0,"entries":9}"#,
                "9 entries in a ring of 4",
            ),
            (r#"{"capacity":8,"dropped":2,"entries":3}"#, "not full"),
            (
                r#"{"capacity":8,"dropped":0,"entries":2.5}"#,
                "integer \"entries\"",
            ),
        ] {
            let doc = MetricsDoc::parse(&format!(
                r#"{{"schema":"locert-trace/v2","journal":{ring}}}"#
            ))
            .expect("schema ok");
            let e = doc.journal().expect_err(why);
            assert!(e.contains(why), "{e}");
        }
    }

    #[test]
    fn span_reader_rejects_what_it_would_truncate() {
        let span = |calls: &str, ns: &str| {
            json::parse(&format!(
                r#"{{"name":"s","calls":{calls},"total_ns":{ns},"children":[]}}"#
            ))
            .expect("valid JSON")
        };
        assert_eq!(
            span_from_json(&span("2", "7")).map(|s| (s.calls, s.total_ns)),
            Some((2, 7))
        );
        for (calls, ns) in [("2.5", "7"), ("2", "7.5"), ("-1", "7"), ("2", "-7")] {
            assert_eq!(span_from_json(&span(calls, ns)), None, "{calls} {ns}");
        }
    }

    #[test]
    fn empty_snapshot_renders_empty() {
        let snap = Snapshot {
            counters: Default::default(),
            histograms: Default::default(),
            spans: Vec::new(),
        };
        let parsed = json::parse(&snapshot_json_string(&snap)).expect("parses");
        assert_eq!(
            parsed
                .get("spans")
                .and_then(json::Value::as_arr)
                .map(<[json::Value]>::len),
            Some(0)
        );
    }
}
