//! Offline stand-in for the `criterion` crate.
//!
//! The build environment has no crates.io access, so the workspace vendors
//! the slice of the criterion API its benches use: [`Criterion`] with
//! `sample_size` / `measurement_time` / `warm_up_time`, benchmark groups
//! with `bench_function` / `bench_with_input`, [`BenchmarkId`], and the
//! [`criterion_group!`] / [`criterion_main!`] macros. Instead of
//! statistical analysis it reports per-benchmark min/median/mean wall
//! times — enough to compare hot paths across commits in this offline
//! setting — and [`criterion_main!`] writes the collected results as
//! `BENCH_<bench-name>.json` under the workspace `target/` directory
//! (scratch output). Set `LOCERT_BENCH_BASELINE=1` to write to the
//! workspace root instead — that is how the committed baseline used by
//! `bench-diff` is regenerated.

use std::fmt::Display;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Re-export so benches can use `criterion::black_box` like the real crate.
pub use std::hint::black_box;

/// Top-level benchmark driver.
#[derive(Debug, Clone)]
pub struct Criterion {
    sample_size: usize,
    measurement_time: Duration,
    warm_up_time: Duration,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            sample_size: 10,
            measurement_time: Duration::from_millis(500),
            warm_up_time: Duration::from_millis(100),
        }
    }
}

impl Criterion {
    /// Number of timed samples per benchmark.
    #[must_use]
    pub fn sample_size(mut self, n: usize) -> Self {
        self.sample_size = n.max(1);
        self
    }

    /// Wall-time budget per benchmark measurement.
    #[must_use]
    pub fn measurement_time(mut self, d: Duration) -> Self {
        self.measurement_time = d;
        self
    }

    /// Wall-time budget for warm-up.
    #[must_use]
    pub fn warm_up_time(mut self, d: Duration) -> Self {
        self.warm_up_time = d;
        self
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
        }
    }

    /// Runs one stand-alone benchmark.
    pub fn bench_function(&mut self, name: impl Display, mut f: impl FnMut(&mut Bencher)) {
        let label = name.to_string();
        run_one(self, &label, &mut f);
    }
}

/// A named group of benchmarks.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
}

impl BenchmarkGroup<'_> {
    /// Runs one benchmark in the group.
    pub fn bench_function(&mut self, id: impl Display, mut f: impl FnMut(&mut Bencher)) {
        let label = format!("{}/{}", self.name, id);
        run_one(self.criterion, &label, &mut f);
    }

    /// Runs one parameterized benchmark in the group.
    pub fn bench_with_input<I>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: impl FnMut(&mut Bencher, &I),
    ) {
        let label = format!("{}/{}", self.name, id);
        run_one(self.criterion, &label, &mut |b| f(b, input));
    }

    /// Ends the group (kept for API compatibility).
    pub fn finish(self) {}
}

/// Summary statistics over one benchmark's timed samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampleStats {
    /// Number of timed samples taken.
    pub iters: u64,
    /// Fastest sample in nanoseconds.
    pub min_ns: f64,
    /// Median sample in nanoseconds.
    pub median_ns: f64,
    /// Mean sample in nanoseconds.
    pub mean_ns: f64,
}

impl SampleStats {
    fn from_samples(samples: &[f64]) -> SampleStats {
        if samples.is_empty() {
            return SampleStats {
                iters: 0,
                min_ns: 0.0,
                median_ns: 0.0,
                mean_ns: 0.0,
            };
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite sample"));
        let n = sorted.len();
        let median = if n % 2 == 1 {
            sorted[n / 2]
        } else {
            (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
        };
        SampleStats {
            iters: n as u64,
            min_ns: sorted[0],
            median_ns: median,
            mean_ns: sorted.iter().sum::<f64>() / n as f64,
        }
    }
}

/// All results recorded so far in this process, in run order.
static RESULTS: Mutex<Vec<(String, SampleStats)>> = Mutex::new(Vec::new());

/// Snapshot of the results recorded so far (label, stats).
pub fn collected_results() -> Vec<(String, SampleStats)> {
    RESULTS.lock().expect("results lock").clone()
}

fn run_one(c: &Criterion, label: &str, f: &mut dyn FnMut(&mut Bencher)) {
    let mut bencher = Bencher {
        sample_size: c.sample_size,
        warm_up_time: c.warm_up_time,
        measurement_time: c.measurement_time,
        samples_ns: Vec::new(),
    };
    f(&mut bencher);
    let stats = SampleStats::from_samples(&bencher.samples_ns);
    eprintln!(
        "bench {label}: min {:.1} ns, median {:.1} ns, mean {:.1} ns over {} iters",
        stats.min_ns, stats.median_ns, stats.mean_ns, stats.iters
    );
    RESULTS
        .lock()
        .expect("results lock")
        .push((label.to_string(), stats));
}

/// Derives the report file name from the bench binary path: cargo names
/// bench executables `<bench-name>-<hash>`, so strip one trailing
/// `-<hex>` segment from the file stem.
fn bench_stem(argv0: &str) -> String {
    let stem = std::path::Path::new(argv0)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("bench");
    match stem.rsplit_once('-') {
        Some((name, hash))
            if !name.is_empty()
                && !hash.is_empty()
                && hash.chars().all(|c| c.is_ascii_hexdigit()) =>
        {
            name.to_string()
        }
        _ => stem.to_string(),
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Topmost ancestor of the working directory that contains a
/// `Cargo.toml` — the workspace root under `cargo bench`, which runs
/// bench binaries from the package directory. Falls back to `.`.
fn report_dir() -> std::path::PathBuf {
    let cwd = std::env::current_dir().unwrap_or_else(|_| std::path::PathBuf::from("."));
    let mut best = None;
    let mut dir = Some(cwd.as_path());
    while let Some(d) = dir {
        if d.join("Cargo.toml").is_file() {
            best = Some(d.to_path_buf());
        }
        dir = d.parent();
    }
    best.unwrap_or(cwd)
}

/// Writes every recorded result as `BENCH_<bench-name>.json` under the
/// workspace `target/` directory (see `report_dir`), or in the
/// workspace root itself when `LOCERT_BENCH_BASELINE` is set to anything
/// but `0` (baseline regeneration). Called by [`criterion_main!`];
/// exposed for custom harnesses.
pub fn write_report() {
    let results = collected_results();
    let name = bench_stem(&std::env::args().next().unwrap_or_default());
    let mut json = String::from("{\n  \"schema\": \"locert-criterion/v1\",\n  \"benchmarks\": [");
    for (i, (label, s)) in results.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        json.push_str(&format!(
            "\n    {{\"name\": \"{}\", \"iters\": {}, \"min_ns\": {:.1}, \
             \"median_ns\": {:.1}, \"mean_ns\": {:.1}}}",
            json_escape(label),
            s.iters,
            s.min_ns,
            s.median_ns,
            s.mean_ns
        ));
    }
    json.push_str("\n  ]\n}\n");
    let root = report_dir();
    let dir = if std::env::var_os("LOCERT_BENCH_BASELINE").is_some_and(|v| v != "0") {
        root
    } else {
        let scratch = root.join("target");
        let _ = std::fs::create_dir_all(&scratch);
        scratch
    };
    let path = dir.join(format!("BENCH_{name}.json"));
    match std::fs::write(&path, json) {
        Ok(()) => eprintln!("wrote {} ({} benchmarks)", path.display(), results.len()),
        Err(e) => eprintln!("criterion: cannot write {}: {e}", path.display()),
    }
}

/// Passed to the benchmark closure; [`Bencher::iter`] times the routine.
pub struct Bencher {
    sample_size: usize,
    warm_up_time: Duration,
    measurement_time: Duration,
    samples_ns: Vec<f64>,
}

impl Bencher {
    /// Times `routine`, first warming up, then sampling until the sample
    /// count or the measurement budget is reached.
    pub fn iter<O>(&mut self, mut routine: impl FnMut() -> O) {
        let warm_deadline = Instant::now() + self.warm_up_time;
        while Instant::now() < warm_deadline {
            black_box(routine());
        }
        self.samples_ns.clear();
        let deadline = Instant::now() + self.measurement_time;
        for _ in 0..self.sample_size.max(1) {
            let start = Instant::now();
            black_box(routine());
            self.samples_ns.push(start.elapsed().as_nanos() as f64);
            if Instant::now() >= deadline {
                break;
            }
        }
    }
}

/// Identifies a parameterized benchmark within a group.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    inner: String,
}

impl BenchmarkId {
    /// A `name/parameter` id.
    pub fn new(name: impl Display, parameter: impl Display) -> Self {
        BenchmarkId {
            inner: format!("{name}/{parameter}"),
        }
    }

    /// An id that is just the parameter.
    pub fn from_parameter(parameter: impl Display) -> Self {
        BenchmarkId {
            inner: parameter.to_string(),
        }
    }
}

impl Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.inner)
    }
}

/// Declares a benchmark group function, mirroring criterion's macro forms.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $config;
            $( $target(&mut criterion); )+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group!(
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        );
    };
}

/// Declares the bench `main` that runs each group, then writes the
/// collected statistics as `BENCH_<bench-name>.json`.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
            $crate::write_report();
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_api_smoke() {
        let mut c = Criterion::default()
            .sample_size(3)
            .measurement_time(Duration::from_millis(10))
            .warm_up_time(Duration::from_millis(1));
        let mut ran = 0u32;
        {
            let mut g = c.benchmark_group("smoke");
            g.bench_function("inline", |b| b.iter(|| black_box(2 + 2)));
            g.bench_with_input(BenchmarkId::from_parameter(5), &5usize, |b, &n| {
                b.iter(|| black_box(n * n));
            });
            g.finish();
        }
        c.bench_function("top-level", |b| {
            b.iter(|| {
                ran += 1;
                black_box(ran)
            })
        });
        assert!(ran > 0);
    }

    #[test]
    fn benchmark_id_formats() {
        assert_eq!(BenchmarkId::new("n_t", "64_3").to_string(), "n_t/64_3");
        assert_eq!(BenchmarkId::from_parameter(64).to_string(), "64");
    }

    #[test]
    fn sample_stats_order_statistics() {
        let s = SampleStats::from_samples(&[5.0, 1.0, 3.0]);
        assert_eq!(s.iters, 3);
        assert_eq!(s.min_ns, 1.0);
        assert_eq!(s.median_ns, 3.0);
        assert_eq!(s.mean_ns, 3.0);
        let even = SampleStats::from_samples(&[4.0, 2.0]);
        assert_eq!(even.median_ns, 3.0);
        assert_eq!(SampleStats::from_samples(&[]).iters, 0);
    }

    #[test]
    fn bench_stem_strips_cargo_hash() {
        assert_eq!(
            bench_stem("target/release/deps/certification-8f00d"),
            "certification"
        );
        assert_eq!(bench_stem("certification"), "certification");
        // A non-hex suffix is part of the name, not a cargo hash.
        assert_eq!(bench_stem("my-bench"), "my-bench");
        assert_eq!(bench_stem(""), "bench");
    }

    #[test]
    fn results_are_collected_for_the_report() {
        let mut c = Criterion::default()
            .sample_size(2)
            .measurement_time(Duration::from_millis(5))
            .warm_up_time(Duration::from_millis(1));
        c.bench_function("collected-probe", |b| b.iter(|| black_box(1 + 1)));
        let results = collected_results();
        let (_, stats) = results
            .iter()
            .find(|(l, _)| l == "collected-probe")
            .expect("probe recorded");
        assert!(stats.iters >= 1);
        assert!(stats.min_ns <= stats.median_ns && stats.median_ns <= stats.mean_ns + 1e-9);
    }
}
