//! A small benchmarking harness (the in-tree criterion replacement).
//!
//! Calibrated warmup, fixed sample counts, robust statistics (median / p95
//! rather than mean-of-noise), and machine-readable JSON so successive PRs
//! can compare against a recorded baseline (`BENCH_protocol.json` at the
//! repo root).
//!
//! ```no_run
//! use substrate::benchkit::Harness;
//! let mut h = Harness::new("crypto");
//! h.bench_function("fr_mul", |b| b.iter(|| std::hint::black_box(3u64 * 7)));
//! h.finish();
//! ```
//!
//! Setting `BENCHKIT_OUT=<path>` writes (or merges into) a JSON document
//! `{"suites":[{"suite":...,"results":[...]}]}`; without it the JSON goes
//! to stdout after the human-readable table.

use crate::ser::{JsonValue, ToJson};
use std::time::Duration;

const DEFAULT_SAMPLES: usize = 30;
const WARMUP: Duration = Duration::from_millis(80);
const TARGET_SAMPLE: Duration = Duration::from_millis(4);

/// One benchmark's measurements (per-iteration nanoseconds).
#[derive(Clone, Debug)]
pub struct BenchResult {
    /// Benchmark name (`group/function` for grouped benches).
    pub name: String,
    /// Sorted per-iteration times in nanoseconds, one per sample.
    pub samples_ns: Vec<f64>,
    /// Iterations averaged inside each sample.
    pub iters_per_sample: u64,
}

impl BenchResult {
    /// The p-th percentile (nearest rank) of the per-iteration times.
    pub fn percentile(&self, p: f64) -> f64 {
        let n = self.samples_ns.len();
        if n == 0 {
            return f64::NAN;
        }
        let rank = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n);
        self.samples_ns[rank - 1]
    }

    /// Median per-iteration time in nanoseconds.
    pub fn median_ns(&self) -> f64 {
        self.percentile(50.0)
    }

    /// 95th-percentile per-iteration time in nanoseconds.
    pub fn p95_ns(&self) -> f64 {
        self.percentile(95.0)
    }

    /// Mean per-iteration time in nanoseconds.
    pub fn mean_ns(&self) -> f64 {
        self.samples_ns.iter().sum::<f64>() / self.samples_ns.len() as f64
    }
}

impl ToJson for BenchResult {
    fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("name", self.name.to_json()),
            ("median_ns", self.median_ns().to_json()),
            ("p95_ns", self.p95_ns().to_json()),
            ("mean_ns", self.mean_ns().to_json()),
            ("min_ns", self.samples_ns.first().copied().unwrap_or(f64::NAN).to_json()),
            ("max_ns", self.samples_ns.last().copied().unwrap_or(f64::NAN).to_json()),
            ("samples", self.samples_ns.len().to_json()),
            ("iters_per_sample", self.iters_per_sample.to_json()),
        ])
    }
}

/// Measures one benchmark body; handed to the closure of
/// [`Harness::bench_function`].
pub struct Bencher {
    samples: usize,
    result: Option<(Vec<f64>, u64)>,
}

impl Bencher {
    /// Times `f`: warms up, calibrates an iteration count per sample, then
    /// records `samples` timed samples.
    #[expect(clippy::disallowed_types, reason = "a benchmark measures wall-clock time")]
    pub fn iter<O>(&mut self, mut f: impl FnMut() -> O) {
        // Warmup until the budget elapses (at least one call), estimating
        // the per-iteration cost as we go.
        let warm_start = std::time::Instant::now();
        let mut warm_iters: u64 = 0;
        loop {
            std::hint::black_box(f());
            warm_iters += 1;
            if warm_start.elapsed() >= WARMUP {
                break;
            }
        }
        let est_per_iter = warm_start.elapsed().as_secs_f64() / warm_iters as f64;

        // Aim each sample at TARGET_SAMPLE; slow bodies get one iteration
        // per sample so total time stays bounded.
        let iters = ((TARGET_SAMPLE.as_secs_f64() / est_per_iter) as u64).clamp(1, 1_000_000_000);

        let mut samples_ns = Vec::with_capacity(self.samples);
        for _ in 0..self.samples {
            let t0 = std::time::Instant::now();
            for _ in 0..iters {
                std::hint::black_box(f());
            }
            samples_ns.push(t0.elapsed().as_nanos() as f64 / iters as f64);
        }
        samples_ns.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
        self.result = Some((samples_ns, iters));
    }
}

/// A benchmark suite under construction.
pub struct Harness {
    suite: String,
    samples: usize,
    results: Vec<BenchResult>,
}

impl Harness {
    /// A named, empty suite.
    pub fn new(suite: &str) -> Self {
        Harness {
            suite: suite.to_owned(),
            samples: DEFAULT_SAMPLES,
            results: Vec::new(),
        }
    }

    /// Overrides the per-benchmark sample count for subsequent benches.
    pub fn sample_size(&mut self, samples: usize) -> &mut Self {
        self.samples = samples.max(2);
        self
    }

    /// Runs one benchmark; the closure must call [`Bencher::iter`] exactly
    /// once.
    pub fn bench_function(&mut self, name: &str, f: impl FnOnce(&mut Bencher)) -> &mut Self {
        let mut b = Bencher {
            samples: self.samples,
            result: None,
        };
        f(&mut b);
        let (samples_ns, iters) = b
            .result
            .unwrap_or_else(|| panic!("bench {name:?} never called Bencher::iter"));
        let result = BenchResult {
            name: name.to_owned(),
            samples_ns,
            iters_per_sample: iters,
        };
        eprintln!(
            "{:<40} median {:>12}  p95 {:>12}  ({} samples × {} iters)",
            result.name,
            fmt_ns(result.median_ns()),
            fmt_ns(result.p95_ns()),
            result.samples_ns.len(),
            result.iters_per_sample,
        );
        self.results.push(result);
        self
    }

    /// Starts a named group: benches get `group/`-prefixed names and an
    /// independent sample count (criterion's `benchmark_group` shape).
    pub fn benchmark_group(&mut self, name: &str) -> Group<'_> {
        let samples = self.samples;
        Group {
            harness: self,
            prefix: name.to_owned(),
            samples,
        }
    }

    /// The collected results.
    pub fn results(&self) -> &[BenchResult] {
        &self.results
    }

    /// The suite as a JSON object.
    pub fn suite_json(&self) -> JsonValue {
        JsonValue::object([
            ("suite", self.suite.to_json()),
            ("results", self.results.to_json()),
        ])
    }

    /// Prints the JSON document and, if `BENCHKIT_OUT` is set, writes (or
    /// merges into) that file: existing suites with other names are kept,
    /// a suite with this name is replaced.
    pub fn finish(self) {
        let mine = self.suite_json();
        match std::env::var("BENCHKIT_OUT") {
            Ok(path) => {
                let mut suites: Vec<JsonValue> = match std::fs::read_to_string(&path) {
                    Ok(existing) => JsonValue::parse(&existing)
                        .ok()
                        .and_then(|doc| {
                            doc.get("suites").and_then(|s| s.as_array()).map(<[JsonValue]>::to_vec)
                        })
                        .unwrap_or_default(),
                    Err(_) => Vec::new(),
                };
                suites.retain(|s| {
                    s.get("suite").and_then(JsonValue::as_str) != Some(self.suite.as_str())
                });
                suites.push(mine);
                let doc = JsonValue::object([("suites", JsonValue::Array(suites))]);
                std::fs::write(&path, format!("{doc}\n"))
                    .unwrap_or_else(|e| panic!("writing BENCHKIT_OUT={path}: {e}"));
                eprintln!("[benchkit] wrote {path}");
            }
            Err(_) => println!("{mine}"),
        }
    }
}

/// A group of related benches sharing a name prefix and sample count.
pub struct Group<'a> {
    harness: &'a mut Harness,
    prefix: String,
    samples: usize,
}

impl Group<'_> {
    /// Overrides the sample count for this group only.
    pub fn sample_size(&mut self, samples: usize) -> &mut Self {
        self.samples = samples.max(2);
        self
    }

    /// Runs one benchmark inside the group.
    pub fn bench_function(&mut self, name: &str, f: impl FnOnce(&mut Bencher)) -> &mut Self {
        let outer = self.harness.samples;
        self.harness.samples = self.samples;
        self.harness
            .bench_function(&format!("{}/{}", self.prefix, name), f);
        self.harness.samples = outer;
        self
    }

    /// Criterion-style parameterized bench.
    pub fn bench_with_input<I>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        f: impl FnOnce(&mut Bencher, &I),
    ) -> &mut Self {
        self.bench_function(&id.0, |b| f(b, input))
    }

    /// Ends the group (purely syntactic, matching criterion).
    pub fn finish(&mut self) {}
}

/// A bench identifier within a group.
pub struct BenchmarkId(String);

impl BenchmarkId {
    /// An id rendered from a parameter value (e.g. a group size).
    pub fn from_parameter(p: impl std::fmt::Display) -> Self {
        BenchmarkId(p.to_string())
    }

    /// An id with an explicit function name and parameter.
    pub fn new(name: &str, p: impl std::fmt::Display) -> Self {
        BenchmarkId(format!("{name}/{p}"))
    }
}

/// One benchmark's fresh-vs-baseline comparison.
#[derive(Clone, Debug)]
pub struct Comparison {
    /// Benchmark name.
    pub name: String,
    /// Recorded baseline median (ns).
    pub baseline_ns: f64,
    /// Freshly measured median (ns).
    pub fresh_ns: f64,
}

impl Comparison {
    /// `fresh / baseline` — above `1.0` means the fresh run is slower.
    pub fn ratio(&self) -> f64 {
        self.fresh_ns / self.baseline_ns
    }

    /// Whether this entry regressed beyond the tolerance band:
    /// `fresh > baseline * (1 + tolerance)`. Speedups never count as
    /// regressions.
    pub fn regressed(&self, tolerance: f64) -> bool {
        self.fresh_ns > self.baseline_ns * (1.0 + tolerance)
    }
}

/// Outcome of comparing a fresh suite run against a recorded baseline.
#[derive(Clone, Debug, Default)]
pub struct CompareReport {
    /// Per-benchmark comparisons for names present in both documents.
    pub compared: Vec<Comparison>,
    /// Baseline entries the fresh run no longer produces (renamed or
    /// deleted benches — the gate treats these as failures so a regression
    /// can't hide behind a rename).
    pub missing_in_fresh: Vec<String>,
    /// Fresh entries with no recorded baseline yet (new benches; not a
    /// failure, but the baseline should be refreshed to cover them).
    pub new_in_fresh: Vec<String>,
}

impl CompareReport {
    /// All entries regressed beyond `tolerance`.
    pub fn regressions(&self, tolerance: f64) -> Vec<&Comparison> {
        self.compared
            .iter()
            .filter(|c| c.regressed(tolerance))
            .collect()
    }
}

/// `(entry name, median ns)` of every result of `suite` in a parsed
/// benchkit document; `None` when the suite is absent or malformed.
pub fn suite_medians(doc: &JsonValue, suite: &str) -> Option<Vec<(String, f64)>> {
    let suites = doc.get("suites")?.as_array()?;
    let s = suites
        .iter()
        .find(|s| s.get("suite").and_then(JsonValue::as_str) == Some(suite))?;
    let results = s.get("results")?.as_array()?;
    let mut out = Vec::new();
    for r in results {
        let name = r.get("name")?.as_str()?.to_owned();
        let median = r.get("median_ns")?.as_f64()?;
        out.push((name, median));
    }
    Some(out)
}

/// Compares the named suite's medians between two benchkit JSON documents
/// (the `compare` mode used by the perf regression gate in `verify.sh`).
///
/// # Errors
///
/// Returns a message when either document does not parse or does not
/// contain the suite.
pub fn compare_docs(
    baseline_doc: &str,
    fresh_doc: &str,
    suite: &str,
) -> Result<CompareReport, String> {
    let baseline =
        JsonValue::parse(baseline_doc).map_err(|e| format!("baseline: invalid JSON: {e}"))?;
    let fresh = JsonValue::parse(fresh_doc).map_err(|e| format!("fresh: invalid JSON: {e}"))?;
    let baseline =
        suite_medians(&baseline, suite).ok_or_else(|| format!("baseline: no suite {suite:?}"))?;
    let fresh =
        suite_medians(&fresh, suite).ok_or_else(|| format!("fresh: no suite {suite:?}"))?;
    let mut report = CompareReport::default();
    for (name, baseline_ns) in &baseline {
        match fresh.iter().find(|(n, _)| n == name) {
            Some((_, fresh_ns)) => report.compared.push(Comparison {
                name: name.clone(),
                baseline_ns: *baseline_ns,
                fresh_ns: *fresh_ns,
            }),
            None => report.missing_in_fresh.push(name.clone()),
        }
    }
    for (name, _) in &fresh {
        if !baseline.iter().any(|(n, _)| n == name) {
            report.new_in_fresh.push(name.clone());
        }
    }
    Ok(report)
}

fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:8.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:8.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:8.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:8.3} s ", ns / 1_000_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let r = BenchResult {
            name: "t".into(),
            samples_ns: (1..=100).map(f64::from).collect(),
            iters_per_sample: 1,
        };
        assert_eq!(r.median_ns(), 50.0);
        assert_eq!(r.p95_ns(), 95.0);
        assert_eq!(r.percentile(100.0), 100.0);
        assert_eq!(r.percentile(0.0), 1.0);
    }

    #[test]
    fn suite_json_has_expected_shape() {
        let mut h = Harness::new("selftest");
        h.sample_size(3);
        h.bench_function("noop", |b| b.iter(|| std::hint::black_box(1 + 1)));
        let json = h.suite_json();
        assert_eq!(json.get("suite").unwrap().as_str(), Some("selftest"));
        let results = json.get("results").unwrap().as_array().unwrap();
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].get("name").unwrap().as_str(), Some("noop"));
        assert!(results[0].get("median_ns").unwrap().as_f64().unwrap() >= 0.0);
    }

    fn doc(suite: &str, entries: &[(&str, f64)]) -> String {
        let results: Vec<String> = entries
            .iter()
            .map(|(n, m)| format!("{{\"name\":\"{n}\",\"median_ns\":{m}}}"))
            .collect();
        format!(
            "{{\"suites\":[{{\"suite\":\"{suite}\",\"results\":[{}]}}]}}",
            results.join(",")
        )
    }

    #[test]
    fn compare_flags_regressions_and_renames() {
        let baseline = doc("crypto", &[("pairing", 1000.0), ("old_bench", 5.0)]);
        let fresh = doc("crypto", &[("pairing", 1600.0), ("new_bench", 7.0)]);
        let report = compare_docs(&baseline, &fresh, "crypto").unwrap();
        assert_eq!(report.compared.len(), 1);
        assert_eq!(report.compared[0].name, "pairing");
        assert!((report.compared[0].ratio() - 1.6).abs() < 1e-9);
        // 50% band catches the 60% slowdown; a looser band does not.
        assert_eq!(report.regressions(0.5).len(), 1);
        assert!(report.regressions(0.7).is_empty());
        assert_eq!(report.missing_in_fresh, vec!["old_bench".to_owned()]);
        assert_eq!(report.new_in_fresh, vec!["new_bench".to_owned()]);
    }

    #[test]
    fn compare_never_flags_speedups() {
        let baseline = doc("crypto", &[("pairing", 1000.0)]);
        let fresh = doc("crypto", &[("pairing", 10.0)]);
        let report = compare_docs(&baseline, &fresh, "crypto").unwrap();
        assert!(report.regressions(0.0).is_empty());
    }

    #[test]
    fn compare_rejects_missing_suite_or_bad_json() {
        let ok = doc("crypto", &[("pairing", 1.0)]);
        assert!(compare_docs(&ok, &ok, "nope").is_err());
        assert!(compare_docs("not json", &ok, "crypto").is_err());
        assert!(compare_docs(&ok, "{", "crypto").is_err());
    }

    #[test]
    fn groups_prefix_names() {
        let mut h = Harness::new("g");
        {
            let mut group = h.benchmark_group("ceremony");
            group.sample_size(2);
            group.bench_with_input(BenchmarkId::from_parameter(4), &4u32, |b, &n| {
                b.iter(|| std::hint::black_box(n * 2))
            });
            group.finish();
        }
        assert_eq!(h.results()[0].name, "ceremony/4");
    }
}
