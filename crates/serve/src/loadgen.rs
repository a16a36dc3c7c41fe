//! Seeded load generation against a live daemon.
//!
//! A workload is a pure function of the seed and knobs — two same-seed
//! runs send byte-identical request sequences over one connection, in
//! order, so the client-observed request/hit/miss counters replay
//! byte-identically (the determinism gate CI byte-compares). Two phases:
//!
//! 1. **unique** — every request certifies a fresh instance (strictly
//!    growing sizes per scheme), so every prove consults the cache and
//!    misses: the cold-path baseline.
//! 2. **repeated** — `distinct` instances cycled `repeats` times, so
//!    after `distinct` compulsory misses everything hits: the expected
//!    hit rate is `(repeats - distinct) / repeats`, and the observed
//!    rate is the acceptance gate.
//!
//! Every roundtrip verdict is cross-checked against a direct local
//! `run_verification` over the certificates the daemon returned — the
//! wire, the cache, and the pool must not change a single verdict.
//! `--inject-errors` interleaves unknown-scheme probes that must come
//! back with exactly the `unknown-scheme` code; anything else counts
//! as unexpected. Client-side telemetry lands in the global trace
//! registry (`loadgen.*`; latency under `loadgen.request.ns` so it
//! stays out of the deterministic section).

use crate::client::Client;
use crate::proto::{CacheDisposition, ErrorCode, Mode, Request, Response};
use locert_core::catalogue::{self, SchemeEntry};
use locert_core::framework::{run_verification, Assignment, Instance};
use locert_core::schemes::common::id_bits_for;
use locert_graph::{Graph, IdAssignment};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::time::Instant;

/// The default scheme mix: three cheap, structurally distinct families.
pub const DEFAULT_MIX: &str = "spanning-tree,acyclicity,mso-perfect-matching";

/// Resolves a comma-separated scheme mix (the `--schemes` value) to
/// catalogue entries, in order. This is where loadgen reads scheme ids;
/// everything past it holds entries.
///
/// # Errors
///
/// A message naming the first id that is empty or not in the catalogue.
pub fn parse_mix(list: &str) -> Result<Vec<&'static SchemeEntry>, String> {
    list.split(',')
        .map(str::trim)
        .map(|id| {
            if id.is_empty() {
                return Err(format!("empty scheme id in {list:?}"));
            }
            catalogue::by_id(id).ok_or_else(|| format!("unknown scheme {id:?}"))
        })
        .collect()
}

/// Workload knobs.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Daemon address.
    pub addr: SocketAddr,
    /// Workload seed.
    pub seed: u64,
    /// Phase-1 request count (fresh instance each).
    pub unique: usize,
    /// Phase-2 distinct instances.
    pub distinct: usize,
    /// Phase-2 total requests (cycling the distinct instances).
    pub repeats: usize,
    /// Scheme mix, cycled per request.
    pub schemes: Vec<&'static SchemeEntry>,
    /// Unknown-scheme probes appended after the phases.
    pub inject_errors: usize,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            seed: 1,
            unique: 30,
            distinct: 5,
            repeats: 60,
            // `DEFAULT_MIX` resolves (a unit test pins it).
            schemes: parse_mix(DEFAULT_MIX).unwrap_or_default(),
            inject_errors: 0,
        }
    }
}

/// One planned request with its local ground truth.
pub struct WorkItem {
    /// Which phase planned it (1 = unique, 2 = repeated, 0 = injected).
    pub phase: u8,
    /// The wire request.
    pub request: Request,
    /// The instance as the server will reconstruct it.
    pub graph: Graph,
    /// Input word, when the scheme reads one.
    pub inputs: Option<Vec<usize>>,
    /// The catalogue entry the request names; `None` for an
    /// unknown-scheme probe, which must come back `unknown-scheme`.
    pub entry: Option<&'static SchemeEntry>,
}

/// A roundtrip request: the daemon proves (through its cache) and
/// verifies, and returns the certificates for the local cross-check.
fn to_request(scheme: &str, graph: &Graph, inputs: &Option<Vec<usize>>) -> Request {
    Request {
        mode: Mode::Roundtrip,
        scheme: scheme.to_string(),
        n: graph.num_nodes() as u32,
        edges: graph
            .edges()
            .map(|(u, v)| (u.0 as u32, v.0 as u32))
            .collect(),
        inputs: inputs
            .as_ref()
            .map(|word| word.iter().map(|&x| x as u32).collect()),
        certs: None,
    }
}

/// Plans the full request sequence for `config` — pure in the seed.
pub fn build_workload(config: &LoadgenConfig) -> Vec<WorkItem> {
    assert!(!config.schemes.is_empty(), "scheme mix must be non-empty");
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut items = Vec::new();
    // Phase 1: per-scheme sizes grow in steps of 2 (the step survives
    // parity clamps like perfect matching's), so instances never repeat
    // and every cache consult is a compulsory miss.
    let mut next_size: BTreeMap<&str, usize> = BTreeMap::new();
    for i in 0..config.unique {
        let entry = config.schemes[i % config.schemes.len()];
        let size = next_size.entry(entry.id).or_insert(8);
        let n = *size + 2 * rng.random_range(0..2usize);
        *size = n + 2;
        let (graph, inputs) = (entry.family)(n);
        items.push(WorkItem {
            phase: 1,
            request: to_request(entry.id, &graph, &inputs),
            graph,
            inputs,
            entry: Some(entry),
        });
    }
    // Phase 2: `distinct` instances at sizes disjoint from phase 1
    // (offset past its high-water mark), cycled `repeats` times.
    let floor = 2 + next_size.values().copied().max().unwrap_or(8);
    let pool: Vec<_> = (0..config.distinct)
        .map(|k| {
            let entry = config.schemes[k % config.schemes.len()];
            let (graph, inputs) = (entry.family)(floor + 2 * k);
            (entry, graph, inputs)
        })
        .collect();
    for j in 0..config.repeats {
        let (entry, graph, inputs) = &pool[j % pool.len()];
        items.push(WorkItem {
            phase: 2,
            request: to_request(entry.id, graph, inputs),
            graph: graph.clone(),
            inputs: inputs.clone(),
            entry: Some(*entry),
        });
    }
    for _ in 0..config.inject_errors {
        let graph = locert_graph::generators::path(4);
        items.push(WorkItem {
            phase: 0,
            request: to_request("no-such-scheme", &graph, &None),
            graph,
            inputs: None,
            entry: None,
        });
    }
    items
}

/// What the run observed; counts are deterministic, wall-clock fields
/// never are.
#[derive(Debug, Default)]
pub struct Report {
    /// Requests sent (all phases, including injected probes).
    pub requests: u64,
    /// Ok responses.
    pub ok: u64,
    /// Cache dispositions across ok responses.
    pub hits: u64,
    /// Cache misses across ok responses.
    pub misses: u64,
    /// Cache bypasses across ok responses. Roundtrips never bypass, so
    /// this stays 0; the artifact's `cache.bypass=` line keeps its bytes.
    pub bypass: u64,
    /// Typed errors by code.
    pub errors: BTreeMap<String, u64>,
    /// Errors that no probe asked for, plus probes answered wrongly.
    pub unexpected: u64,
    /// Roundtrip verdicts disagreeing with local `run_verification`.
    pub mismatches: u64,
    /// Phase-2 requests and hits, for the hit-rate gate.
    pub phase2_requests: u64,
    /// Phase-2 cache hits.
    pub phase2_hits: u64,
    /// Wall-clock seconds for the whole run (never deterministic).
    pub wall_s: f64,
    /// Per-request round-trip latencies tagged with the item's phase
    /// (never deterministic; excluded from [`deterministic_lines`]).
    ///
    /// [`deterministic_lines`]: Report::deterministic_lines
    pub latency_ns: Vec<(u8, u64)>,
}

impl Report {
    /// The `q`-quantile (0.0–1.0, nearest-rank) of observed latencies,
    /// optionally restricted to one phase. `None` when no samples match.
    pub fn latency_quantile_ns(&self, phase: Option<u8>, q: f64) -> Option<u64> {
        let mut samples: Vec<u64> = self
            .latency_ns
            .iter()
            .filter(|(p, _)| phase.is_none_or(|want| want == *p))
            .map(|&(_, ns)| ns)
            .collect();
        if samples.is_empty() {
            return None;
        }
        samples.sort_unstable();
        let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
        Some(samples[rank - 1])
    }

    /// Observed phase-2 hit rate.
    pub fn phase2_hit_rate(&self) -> f64 {
        if self.phase2_requests == 0 {
            return 0.0;
        }
        self.phase2_hits as f64 / self.phase2_requests as f64
    }

    /// The deterministic half as stable key=value lines — two same-seed
    /// runs must produce byte-identical strings (CI byte-compares the
    /// artifact).
    pub fn deterministic_lines(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("requests={}\n", self.requests));
        out.push_str(&format!("ok={}\n", self.ok));
        out.push_str(&format!("cache.hit={}\n", self.hits));
        out.push_str(&format!("cache.miss={}\n", self.misses));
        out.push_str(&format!("cache.bypass={}\n", self.bypass));
        for (code, count) in &self.errors {
            out.push_str(&format!("error.{code}={count}\n"));
        }
        out.push_str(&format!("unexpected={}\n", self.unexpected));
        out.push_str(&format!("mismatches={}\n", self.mismatches));
        out.push_str(&format!("phase2.requests={}\n", self.phase2_requests));
        out.push_str(&format!("phase2.hits={}\n", self.phase2_hits));
        out
    }
}

/// Checks one roundtrip response to a request for `entry` against local
/// ground truth. Returns false on any disagreement, a response without
/// certificates included.
fn cross_check(
    entry: &SchemeEntry,
    item: &WorkItem,
    accepted: bool,
    certs: Option<&[locert_core::Certificate]>,
) -> bool {
    let Some(certs) = certs else {
        return false;
    };
    if certs.len() != item.graph.num_nodes() {
        return false;
    }
    let ids = IdAssignment::contiguous(item.graph.num_nodes());
    let instance = match &item.inputs {
        Some(word) => Instance::with_inputs(&item.graph, &ids, word),
        None => Instance::new(&item.graph, &ids),
    };
    let scheme = (entry.build)(id_bits_for(&instance), item.graph.num_nodes());
    let assignment = Assignment::new(certs);
    let outcome = run_verification(scheme.as_ref(), &instance, &assignment);
    outcome.accepted() == accepted && accepted
}

fn tally(report: &mut Report, item: &WorkItem, response: &Response) {
    report.requests += 1;
    locert_trace::add("loadgen.requests", 1);
    match response {
        Response::Ok {
            accepted,
            cache,
            certs,
            ..
        } => {
            report.ok += 1;
            match cache {
                CacheDisposition::Hit => report.hits += 1,
                CacheDisposition::Miss => report.misses += 1,
                CacheDisposition::Bypass => report.bypass += 1,
            }
            locert_trace::add(&format!("loadgen.cache.{}", cache.code()), 1);
            if item.phase == 2 {
                report.phase2_requests += 1;
                if *cache == CacheDisposition::Hit {
                    report.phase2_hits += 1;
                }
            }
            match item.entry {
                None => report.unexpected += 1, // the probe should have failed
                Some(entry) => {
                    if !cross_check(entry, item, *accepted, certs.as_deref()) {
                        report.mismatches += 1;
                        locert_trace::add("loadgen.mismatch", 1);
                    }
                }
            }
        }
        Response::Err { code, .. } => {
            *report.errors.entry(code.code().to_string()).or_insert(0) += 1;
            locert_trace::add(&format!("loadgen.error.{}", code.code()), 1);
            if item.entry.is_some() || *code != ErrorCode::UnknownScheme {
                report.unexpected += 1;
            }
        }
    }
}

/// Runs the workload: one connection sends the items in order, so the
/// run is sequential and its counts are deterministic.
///
/// # Errors
///
/// Transport errors from the connection.
pub fn run_loadgen(config: &LoadgenConfig) -> std::io::Result<Report> {
    let items = build_workload(config);
    let t0 = Instant::now();
    let mut report = Report::default();
    let mut client = Client::connect(config.addr)?;
    for item in &items {
        let sent = Instant::now();
        let responses = client.send_batch(std::slice::from_ref(&item.request))?;
        let elapsed_ns = sent.elapsed().as_nanos() as u64;
        locert_trace::record("loadgen.request.ns", elapsed_ns);
        tally(&mut report, item, &responses[0]);
        report.latency_ns.push((item.phase, elapsed_ns));
    }
    report.wall_s = t0.elapsed().as_secs_f64();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_is_pure_in_the_seed() {
        let config = LoadgenConfig {
            inject_errors: 2,
            ..LoadgenConfig::default()
        };
        let a = build_workload(&config);
        let b = build_workload(&config);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.request, y.request);
            assert_eq!(x.phase, y.phase);
        }
        let other = build_workload(&LoadgenConfig {
            seed: 2,
            ..config.clone()
        });
        assert!(
            a.iter().zip(&other).any(|(x, y)| x.request != y.request),
            "different seeds must vary the workload"
        );
    }

    #[test]
    fn unique_phase_never_repeats_an_instance() {
        let config = LoadgenConfig::default();
        let items = build_workload(&config);
        let mut seen = std::collections::HashSet::new();
        for item in items.iter().filter(|i| i.phase == 1) {
            let key = (
                item.request.scheme.clone(),
                locert_graph::digest::digest_instance(&item.graph, item.inputs.as_deref()),
            );
            assert!(seen.insert(key), "phase-1 instance repeated");
        }
    }

    #[test]
    fn repeated_phase_cycles_exactly_distinct_instances() {
        let config = LoadgenConfig::default();
        let items = build_workload(&config);
        let phase1_max = items
            .iter()
            .filter(|i| i.phase == 1)
            .map(|i| i.graph.num_nodes())
            .max()
            .unwrap();
        let mut keys = std::collections::HashSet::new();
        let mut count = 0;
        for item in items.iter().filter(|i| i.phase == 2) {
            count += 1;
            assert!(
                item.graph.num_nodes() > phase1_max,
                "phase-2 sizes must be disjoint from phase 1"
            );
            keys.insert((
                item.request.scheme.clone(),
                locert_graph::digest::digest_instance(&item.graph, item.inputs.as_deref()),
            ));
        }
        assert_eq!(count, config.repeats);
        assert_eq!(keys.len(), config.distinct);
    }

    #[test]
    fn injected_probes_expect_unknown_scheme() {
        let config = LoadgenConfig {
            inject_errors: 3,
            ..LoadgenConfig::default()
        };
        let items = build_workload(&config);
        let probes: Vec<_> = items.iter().filter(|i| i.phase == 0).collect();
        assert_eq!(probes.len(), 3);
        assert!(probes.iter().all(|p| p.entry.is_none()));
    }

    #[test]
    fn scheme_mixes_resolve_in_order_and_name_the_first_bad_id() {
        let ids = |mix: &[&SchemeEntry]| mix.iter().map(|e| e.id).collect::<Vec<_>>();
        assert_eq!(
            ids(&LoadgenConfig::default().schemes),
            ["spanning-tree", "acyclicity", "mso-perfect-matching"]
        );
        assert_eq!(
            ids(&parse_mix(" word-no-11 ,acyclicity").unwrap()),
            ["word-no-11", "acyclicity"]
        );
        let err = parse_mix("acyclicity,nope,also-nope").unwrap_err();
        assert!(err.starts_with("unknown scheme \"nope\""), "{err}");
        assert!(parse_mix("acyclicity,,spanning-tree").is_err());
        assert!(parse_mix("treedepth-5").is_err(), "daemon ids are exact");
    }

    #[test]
    fn latency_quantiles_use_nearest_rank() {
        let mut r = Report::default();
        assert_eq!(r.latency_quantile_ns(None, 0.5), None);
        r.latency_ns = (1..=100u64).map(|ns| (1, ns)).collect();
        assert_eq!(r.latency_quantile_ns(None, 0.5), Some(50));
        assert_eq!(r.latency_quantile_ns(None, 0.99), Some(99));
        assert_eq!(r.latency_quantile_ns(None, 1.0), Some(100));
        r.latency_ns.push((2, 1_000_000));
        assert_eq!(r.latency_quantile_ns(Some(2), 0.5), Some(1_000_000));
        assert_eq!(r.latency_quantile_ns(Some(1), 1.0), Some(100));
    }

    #[test]
    fn deterministic_lines_are_stable_and_exclude_wall_clock() {
        let mut r = Report {
            requests: 5,
            ok: 4,
            hits: 2,
            misses: 2,
            wall_s: 1.23,
            ..Report::default()
        };
        r.errors.insert("unknown-scheme".into(), 1);
        let lines = r.deterministic_lines();
        assert!(lines.contains("requests=5\n"));
        assert!(lines.contains("error.unknown-scheme=1\n"));
        assert!(!lines.contains("1.23"), "wall clock must stay out");
        r.wall_s = 9.87;
        assert_eq!(lines, r.deterministic_lines());
    }
}
