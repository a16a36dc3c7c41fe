//! Collapsed-stack flamegraph export from the aggregated span forest.
//!
//! Emits the `folded` format every flamegraph renderer reads (one
//! `root;child;leaf <value>` line per stack, value = *self* time in
//! nanoseconds, i.e. a span's total minus its children's totals). The
//! span forest already aggregates by call-tree path, so each path
//! appears exactly once and line order is the forest's deterministic
//! (sorted) order.

use locert_trace::export::{span_from_json, MetricsDoc};
use locert_trace::json::Value;
use locert_trace::SpanNode;
use std::fmt::Write as _;

fn walk(prefix: &str, span: &SpanNode, out: &mut String) {
    let frame = if prefix.is_empty() {
        span.name.replace([';', '\n'], "_")
    } else {
        format!("{prefix};{}", span.name.replace([';', '\n'], "_"))
    };
    let children_ns: u64 = span.children.iter().map(|c| c.total_ns).sum();
    let self_ns = span.total_ns.saturating_sub(children_ns);
    if self_ns > 0 {
        let _ = writeln!(out, "{frame} {self_ns}");
    }
    for child in &span.children {
        walk(&frame, child, out);
    }
}

/// Renders a span forest as folded stacks, optionally under a synthetic
/// root frame (used to keep per-experiment sections apart). Spans with
/// zero self time (pure wrappers, `event!` marks) emit no line of their
/// own — their children carry the weight.
pub fn collapse(root: Option<&str>, spans: &[SpanNode]) -> String {
    let mut out = String::new();
    let prefix = root.unwrap_or("");
    for span in spans {
        walk(prefix, span, &mut out);
    }
    out
}

/// Extracts folded stacks from a parsed metrics document: either a
/// `locert-trace/v2` document (read by [`MetricsDoc`], each section
/// rooted at its id) or any object with a top-level `spans` array (a bare
/// exported snapshot).
///
/// # Errors
///
/// A message naming what was missing or malformed.
pub fn from_metrics_json(doc: Value) -> Result<String, String> {
    if doc.get("schema").is_some() {
        let doc = MetricsDoc::from_value(doc)?;
        let mut out = String::new();
        for section in doc.sections()? {
            out.push_str(&collapse(Some(section.id), &section.spans()?));
        }
        return Ok(out);
    }
    let spans = doc
        .get("spans")
        .and_then(Value::as_arr)
        .ok_or("no spans found: expected a locert-trace/v2 document or an object with `spans`")?
        .iter()
        .map(span_from_json)
        .collect::<Option<Vec<_>>>()
        .ok_or("malformed span node")?;
    Ok(collapse(None, &spans))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(name: &str, total_ns: u64, children: Vec<SpanNode>) -> SpanNode {
        SpanNode {
            name: name.into(),
            calls: 1,
            total_ns,
            children,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let forest = vec![node(
            "outer",
            10_000,
            vec![
                node("inner", 4_000, Vec::new()),
                node("leaf", 1_000, Vec::new()),
            ],
        )];
        let folded = collapse(None, &forest);
        let lines: Vec<&str> = folded.lines().collect();
        assert_eq!(
            lines,
            vec!["outer 5000", "outer;inner 4000", "outer;leaf 1000"]
        );
    }

    #[test]
    fn zero_self_wrappers_are_omitted_and_names_sanitized() {
        let forest = vec![node("wrap", 3_000, vec![node("a;b", 3_000, Vec::new())])];
        let folded = collapse(Some("e1"), &forest);
        assert_eq!(folded.lines().collect::<Vec<_>>(), vec!["e1;wrap;a_b 3000"]);
    }

    #[test]
    fn v2_document_roots_sections_at_experiment_ids() {
        let doc = locert_trace::json::parse(
            r#"{"schema":"locert-trace/v2","quick":true,
            "experiments":[{"id":"e1","telemetry":{}},{"id":"s2","telemetry":{}}],
            "timings":[
                {"id":"e1","wall_s":0.5,"telemetry":{"spans":[
                    {"name":"e1.work","calls":1,"total_ns":2000,"children":[]}]}},
                {"id":"s2","wall_s":0.1,"telemetry":{"spans":[
                    {"name":"s2.campaign","calls":1,"total_ns":1000,"children":[]}]}}
            ]}"#,
        )
        .expect("parses");
        let folded = from_metrics_json(doc).expect("collapses");
        assert_eq!(
            folded.lines().collect::<Vec<_>>(),
            vec!["e1;e1.work 2000", "s2;s2.campaign 1000"]
        );
    }

    #[test]
    fn bare_snapshot_and_errors() {
        let doc = locert_trace::json::parse(
            r#"{"spans":[{"name":"x","calls":2,"total_ns":7,"children":[]}]}"#,
        )
        .expect("parses");
        assert_eq!(from_metrics_json(doc).expect("collapses"), "x 7\n");
        let empty = locert_trace::json::parse("{}").expect("parses");
        assert!(from_metrics_json(empty).is_err());
    }
}
