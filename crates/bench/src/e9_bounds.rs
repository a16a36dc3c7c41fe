//! E9 — the bound-conformance observatory: per-component certificate
//! size curves, measured against every scheme's [`DeclaredBound`].
//!
//! One sweep per shared-catalogue entry (the sixteen stable ids of
//! [`locert_core::catalogue`]), each over the entry's **growing** seeded
//! instance families with identifier widths that track `n`
//! (`id_bits_for`), so `O(log n)` growth is actually observable. Every
//! point runs the prover under a [`locert_trace::ledger`] capture: the
//! certificate tiles into named component spans, and the sweep records
//!
//! 1. the certificate size (max bits per vertex — the paper's measure),
//! 2. per-component maxima (where the bits went),
//! 3. verifier read amplification (bits examined across radius-1 views
//!    over bits stored, in percent).
//!
//! The curves are then fit against the scheme's machine-readable
//! [`DeclaredBound`] by normalized least squares (see [`fit_points`]):
//! measured growth exceeding the declared asymptotic family fails the
//! fit. `boundcheck` turns that into a CI gate; the `experiments` binary
//! emits the same numbers as deterministic `ledger.*` counters in the
//! `locert-trace/v2` metrics schema.

use crate::report::{f2, Table};
use locert_core::catalogue::{self, SchemeEntry};
use locert_core::framework::{run_verification, DeclaredBound, Instance};
use locert_core::schemes::common::id_bits_for;
use locert_graph::IdAssignment;
use std::collections::BTreeMap;

/// Slope tolerance for the least-squares conformance fit: the
/// normalized ratio drift per doubling of `n` must stay below this.
pub const TOLERANCE: f64 = 0.15;

/// The default size grid (most entries).
const GRID: &[usize] = &[16, 32, 64, 128, 256];
/// Quick-mode grid.
const GRID_QUICK: &[usize] = &[16, 64];
/// The universal scheme broadcasts the n² map; keep its grid small.
const GRID_UNIVERSAL: &[usize] = &[8, 12, 16, 24];
const GRID_UNIVERSAL_QUICK: &[usize] = &[8, 16];

/// The size grid `entry` is swept over.
fn grid(entry: &SchemeEntry, quick: bool) -> &'static [usize] {
    match (entry.id == "universal-connected", quick) {
        (true, true) => GRID_UNIVERSAL_QUICK,
        (true, false) => GRID_UNIVERSAL,
        (false, true) => GRID_QUICK,
        (false, false) => GRID,
    }
}

/// One measured sweep point.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Requested family size (the actual graph may round up, e.g. to an
    /// even vertex count).
    pub n: usize,
    /// Actual vertex count of the generated instance.
    pub n_actual: usize,
    /// Certificate size: max bits over vertices (the paper's measure).
    pub max_bits: usize,
    /// Per-component maxima from the [`locert_trace::ledger`] capture.
    pub components: BTreeMap<&'static str, usize>,
    /// Whether every certificate was fully attributed (no
    /// `unattributed` span).
    pub fully_attributed: bool,
    /// Read amplification: `100 · bits read / bits stored` during
    /// verification (`None` when verification was skipped).
    pub read_amp_pct: Option<u64>,
}

/// A full per-scheme sweep.
#[derive(Debug, Clone)]
pub struct SweepResult {
    /// Target name.
    pub name: &'static str,
    /// The scheme's declared asymptotic bound (at the largest size).
    pub declared: DeclaredBound,
    /// Measured points, in grid order.
    pub points: Vec<SweepPoint>,
}

/// Runs one entry's prover at size `n` of its family under a ledger
/// capture and (optionally) the verifier, returning the measured point
/// and the declared bound.
///
/// # Panics
///
/// Panics when the honest prover fails or (with `verify`) any vertex
/// rejects — sweep families are yes-instances by construction.
pub fn measure(entry: &SchemeEntry, n: usize, verify: bool) -> (SweepPoint, DeclaredBound) {
    let (g, inputs) = (entry.family)(n);
    let n_actual = g.num_nodes();
    let ids = IdAssignment::contiguous(n_actual);
    let inst = match &inputs {
        Some(inp) => Instance::with_inputs(&g, &ids, inp),
        None => Instance::new(&g, &ids),
    };
    let scheme = (entry.build)(id_bits_for(&inst), n_actual);
    let (asg, ledger) = locert_trace::ledger::capture(|| scheme.assign(&inst));
    let asg = asg.unwrap_or_else(|e| {
        panic!(
            "sweep family for {} is a yes-instance at n = {n}: {e}",
            entry.id
        )
    });
    debug_assert_eq!(ledger.max_bits(), asg.max_bits());
    let read_amp_pct = if verify {
        let out = run_verification(scheme.as_ref(), &inst, &asg);
        assert!(
            out.accepted(),
            "honest verification rejected for {} at n = {n}",
            entry.id
        );
        let stored = asg.total_bits();
        let read: usize = out.verdicts().iter().map(|v| v.bits_read).sum();
        (stored > 0).then(|| (read * 100 / stored) as u64)
    } else {
        None
    };
    (
        SweepPoint {
            n,
            n_actual,
            max_bits: asg.max_bits(),
            components: ledger.component_max_bits(),
            fully_attributed: ledger.fully_attributed(),
            read_amp_pct,
        },
        scheme.declared_bound(),
    )
}

/// Sweeps one entry over its grid.
pub fn sweep(entry: &SchemeEntry, quick: bool, verify: bool) -> SweepResult {
    let grid = grid(entry, quick);
    let mut points = Vec::with_capacity(grid.len());
    let mut declared = DeclaredBound::Constant;
    for &n in grid {
        let (point, bound) = measure(entry, n, verify);
        points.push(point);
        declared = bound;
    }
    SweepResult {
        name: entry.id,
        declared,
        points,
    }
}

/// Sweeps every catalogue entry, in catalogue order.
pub fn sweep_all(quick: bool, verify: bool) -> Vec<SweepResult> {
    catalogue::entries()
        .iter()
        .map(|e| sweep(e, quick, verify))
        .collect()
}

/// The conformance fit of one sweep against its declared bound.
#[derive(Debug, Clone, Copy)]
pub struct Fit {
    /// Normalized ratio drift per doubling of `n`: the least-squares
    /// slope of `max_bits / growth(n)` over `log₂ n`, divided by the
    /// mean ratio. Positive means measured growth exceeds the declared
    /// family.
    pub rel_slope: f64,
    /// Whether the drift stays within [`TOLERANCE`] (one-sided:
    /// shrinking ratios always conform).
    pub conforms: bool,
}

/// Fits measured sizes against a declared bound.
///
/// For each point the ratio `r_i = max_bits_i / g(n_i)` is formed, where
/// `g` is the declared growth function ([`DeclaredBound::growth`]); a
/// least-squares line `r = a + b·log₂ n` is fit and `b` normalized by
/// the mean ratio. If the certificates truly live in the declared
/// family the ratios flatten and the normalized slope tends to 0; a
/// scheme growing a family faster (linear declared logarithmic, say)
/// drifts upward at a rate no tolerance below ~1 accepts.
pub fn fit_points(declared: DeclaredBound, points: &[(usize, usize)]) -> Fit {
    if points.len() < 2 {
        return Fit {
            rel_slope: 0.0,
            conforms: true,
        };
    }
    let xy: Vec<(f64, f64)> = points
        .iter()
        .map(|&(n, bits)| {
            let x = (n.max(2) as f64).log2();
            let y = bits as f64 / declared.growth(n);
            (x, y)
        })
        .collect();
    let k = xy.len() as f64;
    let mean_x = xy.iter().map(|(x, _)| x).sum::<f64>() / k;
    let mean_y = xy.iter().map(|(_, y)| y).sum::<f64>() / k;
    let var_x = xy.iter().map(|(x, _)| (x - mean_x).powi(2)).sum::<f64>();
    let cov = xy
        .iter()
        .map(|(x, y)| (x - mean_x) * (y - mean_y))
        .sum::<f64>();
    let slope = if var_x > 0.0 { cov / var_x } else { 0.0 };
    let rel_slope = if mean_y.abs() > f64::EPSILON {
        slope / mean_y
    } else {
        0.0
    };
    Fit {
        rel_slope,
        conforms: rel_slope <= TOLERANCE,
    }
}

/// Fits one sweep result's `(n, max_bits)` points.
pub fn fit_sweep(result: &SweepResult) -> Fit {
    let pts: Vec<(usize, usize)> = result
        .points
        .iter()
        .map(|p| (p.n_actual, p.max_bits))
        .collect();
    fit_points(result.declared, &pts)
}

/// Emits one sweep's numbers as deterministic `ledger.*` counters (the
/// `locert-trace/v2` deterministic section: not `par.*`, not `.ns`).
pub fn emit_counters(result: &SweepResult) {
    for p in &result.points {
        let base = format!("ledger.{}.n{}", result.name, p.n_actual);
        locert_trace::add(&format!("{base}.max_bits"), p.max_bits as u64);
        for (component, bits) in &p.components {
            locert_trace::add(&format!("{base}.{component}"), *bits as u64);
        }
        if let Some(amp) = p.read_amp_pct {
            locert_trace::add(&format!("{base}.read_amp_pct"), amp);
        }
    }
}

/// E9a: the size curves, one row per (scheme, n).
pub fn curves_table(results: &[SweepResult]) -> Table {
    let mut table = Table::new(
        "E9a",
        "Certificate size curves vs. declared bounds (bit ledger)",
        "Every catalogue scheme carries a machine-readable DeclaredBound; measured \
         max-bits-per-vertex curves over growing seeded families must stay within \
         the declared asymptotic family.",
        "bits / g(n) flattens (or shrinks) as n grows, for each scheme's declared g",
        &["scheme", "declared", "n", "max cert [bits]", "bits / g(n)"],
    );
    for r in results {
        for p in &r.points {
            table.push([
                r.name.to_string(),
                r.declared.family().to_string(),
                p.n_actual.to_string(),
                p.max_bits.to_string(),
                f2(p.max_bits as f64 / r.declared.growth(p.n_actual)),
            ]);
        }
    }
    table
}

/// E9b: the conformance fit verdicts plus attribution/read-amp summary.
pub fn fit_table(results: &[SweepResult]) -> Table {
    let mut table = Table::new(
        "E9b",
        "Bound conformance fits and read amplification",
        "Least-squares drift of max_bits/g(n) over log₂ n stays within tolerance \
         for every scheme; every certificate bit is attributed to a named \
         component; read amplification is the bits-examined/bits-stored ratio of \
         the radius-1 verifier.",
        "rel slope ≤ tolerance for all 16 schemes; all ledgers fully attributed",
        &[
            "scheme",
            "declared",
            "rel slope",
            "verdict",
            "attributed",
            "read amp [%]",
        ],
    );
    for r in results {
        let fit = fit_sweep(r);
        let attributed = r.points.iter().all(|p| p.fully_attributed);
        let amp = r
            .points
            .last()
            .and_then(|p| p.read_amp_pct)
            .map_or_else(|| "-".to_string(), |a| a.to_string());
        table.push([
            r.name.to_string(),
            r.declared.family().to_string(),
            format!("{:+.3}", fit.rel_slope),
            if fit.conforms { "ok" } else { "EXCEEDS" }.to_string(),
            if attributed { "full" } else { "PARTIAL" }.to_string(),
            amp,
        ]);
    }
    table
}

/// E9c: where the bits go — per-component shares at the largest size.
pub fn components_table(results: &[SweepResult]) -> Table {
    let mut table = Table::new(
        "E9c",
        "Per-component certificate attribution (largest size)",
        "The BitLedger tiles every certificate into named witness components; \
         shares show which field dominates each scheme's footprint.",
        "component spans partition every certificate exactly (shares sum to 100%)",
        &["scheme", "component", "max bits", "share [%]"],
    );
    for r in results {
        let Some(p) = r.points.last() else { continue };
        let total: usize = p.components.values().sum();
        for (component, bits) in &p.components {
            let share = if total > 0 {
                *bits as f64 * 100.0 / total as f64
            } else {
                0.0
            };
            table.push([
                r.name.to_string(),
                component.to_string(),
                bits.to_string(),
                f2(share),
            ]);
        }
    }
    table
}

/// The full E9 experiment: sweep, emit counters, build tables.
pub fn run(quick: bool) -> Vec<Table> {
    let results = sweep_all(quick, true);
    for r in &results {
        emit_counters(r);
    }
    vec![
        curves_table(&results),
        fit_table(&results),
        components_table(&results),
    ]
}

/// Committed-baseline serialization and drift comparison
/// (`locert-bounds/v1`, the file `boundcheck` gates on).
pub mod baseline {
    use super::SweepResult;
    use locert_trace::json::Value;

    /// Schema tag of the committed bounds baseline.
    pub const SCHEMA: &str = "locert-bounds/v1";
    /// Allowed per-component share drift against the baseline, in
    /// percentage points.
    pub const SHARE_TOLERANCE_PP: f64 = 0.5;

    fn num(x: f64) -> Value {
        Value::Num(x)
    }

    fn shares(result: &SweepResult) -> Vec<(String, f64, usize)> {
        let Some(p) = result.points.last() else {
            return Vec::new();
        };
        let total: usize = p.components.values().sum();
        p.components
            .iter()
            .map(|(name, bits)| {
                let share = if total > 0 {
                    // Round to 2 decimals so the serialized baseline is
                    // short and byte-stable.
                    (*bits as f64 * 10_000.0 / total as f64).round() / 100.0
                } else {
                    0.0
                };
                ((*name).to_string(), share, *bits)
            })
            .collect()
    }

    /// Serializes sweep results as the baseline document.
    pub fn to_json(results: &[SweepResult]) -> Value {
        let schemes: Vec<Value> = results
            .iter()
            .map(|r| {
                let points: Vec<Value> = r
                    .points
                    .iter()
                    .map(|p| {
                        Value::obj([
                            ("n".to_string(), num(p.n_actual as f64)),
                            ("max_bits".to_string(), num(p.max_bits as f64)),
                        ])
                    })
                    .collect();
                let components: Vec<Value> = shares(r)
                    .into_iter()
                    .map(|(name, share, bits)| {
                        Value::obj([
                            ("name".to_string(), Value::Str(name)),
                            ("max_bits".to_string(), num(bits as f64)),
                            ("share_pct".to_string(), num(share)),
                        ])
                    })
                    .collect();
                let mut fields = vec![
                    ("name".to_string(), Value::Str(r.name.to_string())),
                    (
                        "declared".to_string(),
                        Value::Str(r.declared.family().to_string()),
                    ),
                    ("points".to_string(), Value::Arr(points)),
                    ("components".to_string(), Value::Arr(components)),
                ];
                if let Some(amp) = r.points.last().and_then(|p| p.read_amp_pct) {
                    fields.push(("read_amp_pct".to_string(), num(amp as f64)));
                }
                Value::obj(fields)
            })
            .collect();
        Value::obj([
            ("schema".to_string(), Value::Str(SCHEMA.to_string())),
            ("schemes".to_string(), Value::Arr(schemes)),
        ])
    }

    /// Compares fresh sweep results against a committed baseline.
    /// Returns human-readable violations (empty = conforming): declared
    /// families and per-point sizes must match exactly, component
    /// shares within [`SHARE_TOLERANCE_PP`], read amplification exactly.
    pub fn compare(results: &[SweepResult], committed: &Value) -> Vec<String> {
        let mut violations = Vec::new();
        if committed.get("schema").and_then(Value::as_str) != Some(SCHEMA) {
            violations.push(format!("baseline schema is not {SCHEMA}"));
            return violations;
        }
        let empty = Vec::new();
        let schemes = committed
            .get("schemes")
            .and_then(Value::as_arr)
            .unwrap_or(&empty);
        for r in results {
            let Some(base) = schemes
                .iter()
                .find(|s| s.get("name").and_then(Value::as_str) == Some(r.name))
            else {
                violations.push(format!("{}: missing from baseline", r.name));
                continue;
            };
            let declared = base.get("declared").and_then(Value::as_str);
            if declared != Some(r.declared.family()) {
                violations.push(format!(
                    "{}: declared family changed: baseline {:?}, measured {}",
                    r.name,
                    declared.unwrap_or("?"),
                    r.declared.family()
                ));
            }
            let base_points = base.get("points").and_then(Value::as_arr).unwrap_or(&empty);
            if base_points.len() != r.points.len() {
                violations.push(format!(
                    "{}: grid changed: baseline {} points, measured {}",
                    r.name,
                    base_points.len(),
                    r.points.len()
                ));
            }
            for (bp, p) in base_points.iter().zip(&r.points) {
                let bn = bp.get("n").and_then(Value::as_num).unwrap_or(-1.0) as i64;
                let bbits = bp.get("max_bits").and_then(Value::as_num).unwrap_or(-1.0) as i64;
                if bn != p.n_actual as i64 || bbits != p.max_bits as i64 {
                    violations.push(format!(
                        "{}: point drift at n = {}: baseline ({bn}, {bbits} bits), \
                         measured ({}, {} bits)",
                        r.name, p.n_actual, p.n_actual, p.max_bits
                    ));
                }
            }
            let base_comps = base
                .get("components")
                .and_then(Value::as_arr)
                .unwrap_or(&empty);
            let measured = shares(r);
            if base_comps.len() != measured.len() {
                violations.push(format!(
                    "{}: component set changed: baseline {}, measured {}",
                    r.name,
                    base_comps.len(),
                    measured.len()
                ));
            }
            for (name, share, _) in &measured {
                let Some(bc) = base_comps
                    .iter()
                    .find(|c| c.get("name").and_then(Value::as_str) == Some(name))
                else {
                    violations.push(format!("{}: new component {name}", r.name));
                    continue;
                };
                let bshare = bc.get("share_pct").and_then(Value::as_num).unwrap_or(-1.0);
                if (bshare - share).abs() > SHARE_TOLERANCE_PP {
                    violations.push(format!(
                        "{}: component {name} share drift: baseline {bshare:.2}%, \
                         measured {share:.2}% (tolerance {SHARE_TOLERANCE_PP}pp)",
                        r.name
                    ));
                }
            }
            let base_amp = base.get("read_amp_pct").and_then(Value::as_num);
            let amp = r
                .points
                .last()
                .and_then(|p| p.read_amp_pct)
                .map(|a| a as f64);
            if base_amp != amp {
                violations.push(format!(
                    "{}: read amplification drift: baseline {base_amp:?}, measured {amp:?}",
                    r.name
                ));
            }
        }
        for s in schemes {
            if let Some(name) = s.get("name").and_then(Value::as_str) {
                if !results.iter().any(|r| r.name == name) {
                    violations.push(format!("{name}: in baseline but no longer swept"));
                }
            }
        }
        violations
    }
}

/// Known-bad scheme variants for `boundcheck --mutants`: each injects a
/// realistic size bug and the gate must catch every one. Only [`apply`]
/// puts one into an entry list, and only `--mutants` calls it.
///
/// [`apply`]: mutants::apply
pub mod mutants {
    use super::*;
    use locert_core::framework::{
        Assignment, Decode, DecodedView, Prover, ProverError, RejectReason,
    };
    use locert_core::schemes::common::write_ident;
    use locert_core::schemes::spanning_tree::try_honest_tree_fields;
    use locert_core::BitReader;
    use locert_core::Scheme;
    use locert_graph::NodeId;

    /// A verifier that decodes nothing and accepts every view: these
    /// mutants are caught by their sizes alone.
    macro_rules! accepts_all {
        ($mutant:ty) => {
            impl Decode for $mutant {
                type Decoded = ();
                type Cache = ();

                fn decode(&self, _: BitReader<'_>, _: &()) {}

                fn decide_decoded(&self, _: &DecodedView<'_, ()>) -> Result<(), RejectReason> {
                    Ok(())
                }
            }
        };
    }

    /// Writes the spanning-tree distance field in **unary** — the classic
    /// `O(log n)` scheme blown up to `Θ(n)` bits while still declaring
    /// `O(log n)`. Caught by the conformance fit.
    #[derive(Debug)]
    struct UnaryDistance {
        id_bits: u32,
    }

    impl Prover for UnaryDistance {
        fn assign(&self, instance: &Instance<'_>) -> Result<Assignment, ProverError> {
            let fields =
                try_honest_tree_fields(instance, NodeId(0)).ok_or(ProverError::NotAYesInstance)?;
            Ok(Assignment::write_each(fields.len(), |v, w| {
                let f = &fields[v.0];
                w.component("root-id");
                write_ident(w, f.root, self.id_bits);
                w.component("distance");
                for _ in 0..f.dist {
                    w.write_bit(true);
                }
                w.write_bit(false);
                w.component("parent-id");
                write_ident(w, f.parent, self.id_bits);
            }))
        }
    }

    accepts_all!(UnaryDistance);

    impl Scheme for UnaryDistance {
        fn name(&self) -> String {
            "spanning-tree+unary-distance".into()
        }

        fn declared_bound(&self) -> DeclaredBound {
            // The lie under test: unary distances are Θ(n), not O(log n).
            DeclaredBound::LogN
        }
    }

    /// Pads every MSO-on-trees certificate with `n / 8` filler bits while
    /// declaring `O(1)`. Caught by the conformance fit.
    #[derive(Debug)]
    struct PaddedConstant;

    impl Prover for PaddedConstant {
        fn assign(&self, instance: &Instance<'_>) -> Result<Assignment, ProverError> {
            let g = instance.graph();
            let pad = g.num_nodes() / 8;
            Ok(Assignment::write_each(g.num_nodes(), |_, w| {
                w.component("automaton-state");
                w.write(0, 4);
                w.component("padding");
                for _ in 0..pad {
                    w.write_bit(false);
                }
            }))
        }
    }

    accepts_all!(PaddedConstant);

    impl Scheme for PaddedConstant {
        fn name(&self) -> String {
            "mso+padded-constant".into()
        }

        fn declared_bound(&self) -> DeclaredBound {
            DeclaredBound::Constant
        }
    }

    /// Writes the spanning-tree root id **twice** — still `O(log n)`, so
    /// the fit passes, but every point's size and the component shares
    /// drift off the committed baseline. Caught by the baseline compare.
    #[derive(Debug)]
    struct DoubleRoot {
        id_bits: u32,
    }

    impl Prover for DoubleRoot {
        fn assign(&self, instance: &Instance<'_>) -> Result<Assignment, ProverError> {
            let fields =
                try_honest_tree_fields(instance, NodeId(0)).ok_or(ProverError::NotAYesInstance)?;
            Ok(Assignment::write_each(fields.len(), |v, w| {
                let f = &fields[v.0];
                w.component("root-id");
                write_ident(w, f.root, self.id_bits);
                write_ident(w, f.root, self.id_bits);
                w.component("distance");
                w.write(f.dist, self.id_bits);
                w.component("parent-id");
                write_ident(w, f.parent, self.id_bits);
            }))
        }
    }

    accepts_all!(DoubleRoot);

    impl Scheme for DoubleRoot {
        fn name(&self) -> String {
            "spanning-tree+double-root".into()
        }

        fn declared_bound(&self) -> DeclaredBound {
            DeclaredBound::LogN
        }
    }

    /// One injected size bug: the poisoned entry and how the gate must
    /// catch it.
    pub struct BoundMutant {
        /// Stable mutant name (shown by `boundcheck --mutants`).
        pub name: &'static str,
        /// The catalogue id whose scheme is replaced.
        pub case: &'static str,
        /// `true` when the conformance *fit* must fail; `false` when the
        /// fit passes and only the baseline compare may catch it.
        pub caught_by_fit: bool,
        build: fn(u32, usize) -> Box<dyn Scheme>,
    }

    /// The mutant battery.
    pub fn mutants() -> Vec<BoundMutant> {
        vec![
            BoundMutant {
                name: "unary-distance",
                case: "spanning-tree",
                caught_by_fit: true,
                build: |b, _| Box::new(UnaryDistance { id_bits: b }),
            },
            BoundMutant {
                name: "padded-constant",
                case: "mso-perfect-matching",
                caught_by_fit: true,
                build: |_, _| Box::new(PaddedConstant),
            },
            BoundMutant {
                name: "double-root",
                case: "spanning-tree",
                caught_by_fit: false,
                build: |b, _| Box::new(DoubleRoot { id_bits: b }),
            },
        ]
    }

    /// Copies of the catalogue entries with `mutant`'s case poisoned.
    pub fn apply(mutant: &BoundMutant) -> Vec<SchemeEntry> {
        let mut entries = catalogue::entries();
        for entry in entries.iter_mut().filter(|e| e.id == mutant.case) {
            entry.build = mutant.build;
        }
        entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_targets_fully_attributed_and_conform_quick() {
        let results = sweep_all(true, false);
        assert_eq!(results.len(), 16);
        for r in &results {
            for p in &r.points {
                assert!(
                    p.fully_attributed,
                    "{}: n = {} has unattributed bits: {:?}",
                    r.name, p.n_actual, p.components
                );
                let total: usize = p.components.values().sum();
                assert_eq!(
                    total, p.max_bits,
                    "{}: component maxima at n = {} do not reach max_bits \
                     (uniform certificates expected on sweep families)",
                    r.name, p.n_actual
                );
            }
        }
    }

    #[test]
    fn fit_flags_linear_growth_declared_logarithmic() {
        // A Θ(n) curve declared O(log n) must fail any sane tolerance.
        let points: Vec<(usize, usize)> = [16usize, 32, 64, 128, 256]
            .iter()
            .map(|&n| (n, 8 + n))
            .collect();
        let fit = fit_points(DeclaredBound::LogN, &points);
        assert!(!fit.conforms, "rel slope {}", fit.rel_slope);
        // The same curve declared quadratic conforms (ratios shrink).
        let fit2 = fit_points(DeclaredBound::QuadraticN, &points);
        assert!(fit2.conforms, "rel slope {}", fit2.rel_slope);
    }

    #[test]
    fn fit_accepts_honest_logarithmic_growth() {
        let points: Vec<(usize, usize)> = [16usize, 32, 64, 128, 256]
            .iter()
            .map(|&n| (n, 3 * ((n as f64).log2().ceil() as usize) + 4))
            .collect();
        let fit = fit_points(DeclaredBound::LogN, &points);
        assert!(fit.conforms, "rel slope {}", fit.rel_slope);
    }

    #[test]
    fn read_amplification_is_exactly_300_on_cycles() {
        // Uniform certificates on a 2-regular graph: every stored bit is
        // read three times (once by the owner, once per neighbor).
        let entry = catalogue::by_id("spanning-tree").unwrap();
        let (point, _) = measure(entry, 16, true);
        assert_eq!(point.read_amp_pct, Some(300));
    }

    #[test]
    fn each_mutant_poisons_exactly_its_named_entry() {
        let honest: Vec<String> = catalogue::entries()
            .iter()
            .map(|e| (e.build)(16, 16).name())
            .collect();
        for mutant in mutants::mutants() {
            let poisoned = mutants::apply(&mutant);
            assert_eq!(poisoned.len(), honest.len());
            let changed: Vec<&str> = poisoned
                .iter()
                .zip(&honest)
                .filter(|(e, name)| (e.build)(16, 16).name() != **name)
                .map(|(e, _)| e.id)
                .collect();
            assert_eq!(changed, [mutant.case], "{}", mutant.name);
            for (p, h) in poisoned.iter().zip(catalogue::entries()) {
                assert_eq!(p.id, h.id, "{}: catalogue order", mutant.name);
            }
        }
    }
}
