//! Results as JSON, the printed table, and `--compare`.

use crate::metrics::{MetricDef, Metrics, Outcome, END_TO_END, PER_LAYER};
use crate::reduce::median;
use substrate::ser::JsonValue;

/// Spread of a sample as the distance between its first and third
/// quartile over its median, quartiles as Python's
/// `statistics.quantiles(v, n=4)` computes them. `None` below two values.
pub fn quartile_spread(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let quartile = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    let mid = median(&v);
    (mid != 0.0).then(|| (quartile(3) - quartile(1)) / mid.abs())
}

fn metrics_json(defs: &[MetricDef], values: &Metrics) -> Vec<(String, JsonValue)> {
    defs.iter()
        .map(|d| {
            let value = values.get(d.name).copied().unwrap_or(0.0);
            (
                d.name.to_string(),
                JsonValue::object([
                    ("value", JsonValue::Num(value)),
                    ("unit", JsonValue::Str(d.unit.to_string())),
                ]),
            )
        })
        .collect()
}

/// One workload's result object: `correct`, `attempted`, `failed`,
/// `metrics`. `e2e` and `layers` select which catalogues are included; a
/// per-layer metric the workload did not exercise is written as 0.
pub fn result_json(
    gate: &Outcome,
    e2e: Option<&Metrics>,
    layers: Option<&Metrics>,
    extra: &[(&str, f64, &str)],
) -> JsonValue {
    let mut metrics = Vec::new();
    if let Some(m) = e2e {
        metrics.extend(metrics_json(END_TO_END, m));
    }
    if let Some(m) = layers {
        metrics.extend(metrics_json(PER_LAYER, m));
    }
    for &(name, value, unit) in extra {
        metrics.push((
            name.to_string(),
            JsonValue::object([
                ("value", JsonValue::Num(value)),
                ("unit", JsonValue::Str(unit.to_string())),
            ]),
        ));
    }
    JsonValue::object([
        ("correct", JsonValue::Bool(gate.correct())),
        ("attempted", JsonValue::Num(gate.attempted as f64)),
        ("failed", JsonValue::Num(gate.failed as f64)),
        ("metrics", JsonValue::Object(metrics)),
    ])
}

/// Prints the metrics of `defs` present in `values`, one per line, with
/// the name a metric goes by in the issue text (if it differs) beside it.
pub fn print_metrics(
    defs: &[MetricDef],
    values: &Metrics,
    alias: impl Fn(&str) -> Option<&'static str>,
) {
    for d in defs {
        let Some(v) = values.get(d.name) else {
            continue;
        };
        let label = match alias(d.name) {
            Some(a) => format!("{} (= {a})", d.name),
            None => d.name.to_string(),
        };
        println!("  {label:<44} {v:>16.4} {}", d.unit);
    }
}

fn values_of(file: &JsonValue, workload: &str, metric: &str) -> Vec<f64> {
    file.get("sets")
        .and_then(JsonValue::as_array)
        .unwrap_or(&[])
        .iter()
        .filter_map(|set| {
            set.get(workload)?
                .get("metrics")?
                .get(metric)?
                .get("value")?
                .as_f64()
        })
        .collect()
}

fn all_correct(file: &JsonValue, workload: &str) -> bool {
    file.get("sets")
        .and_then(JsonValue::as_array)
        .unwrap_or(&[])
        .iter()
        .all(|set| {
            matches!(
                set.get(workload).and_then(|w| w.get("correct")),
                Some(JsonValue::Bool(true))
            )
        })
}

/// Compares result file `b` against `a`, workload by workload and metric
/// by metric, using the bounds in `benchmark` (the parsed
/// `BENCHMARK.json`). Returns the printed report and whether `b` passes:
/// no metric's median worse than `a`'s by more than its bound, every
/// workload correct in both. A metric whose run-to-run spread (over the
/// sets of either file) exceeds its bound is reported *unresolved* rather
/// than judged.
pub fn compare(benchmark: &JsonValue, a: &JsonValue, b: &JsonValue) -> (String, bool) {
    let list = |key: &str| {
        benchmark
            .get(key)
            .and_then(JsonValue::as_array)
            .unwrap_or(&[])
            .to_vec()
    };
    let mut report = String::new();
    let (mut regressions, mut unresolved, mut missing) = (0u32, 0u32, 0u32);
    for w in list("workloads") {
        let Some(workload) = w.get("name").and_then(JsonValue::as_str) else {
            continue;
        };
        let correct = all_correct(a, workload) && all_correct(b, workload);
        report += &format!(
            "{workload}{}\n",
            if correct {
                ""
            } else {
                "  ** correctness gate FAILED **"
            }
        );
        if !correct {
            regressions += 1;
        }
        for def in list("end_to_end") {
            let name = def.get("name").and_then(JsonValue::as_str).unwrap_or("");
            let bound = def.get("bound").and_then(JsonValue::as_f64).unwrap_or(0.0);
            let higher = def.get("better").and_then(JsonValue::as_str) == Some("higher");
            let (va, vb) = (values_of(a, workload, name), values_of(b, workload, name));
            if va.is_empty() || vb.is_empty() {
                report += &format!("  {name:<18} missing\n");
                missing += 1;
                continue;
            }
            let (ma, mb) = (median(&va), median(&vb));
            let worse = if higher { ma - mb } else { mb - ma } / ma.abs().max(f64::MIN_POSITIVE);
            let spread = [quartile_spread(&va), quartile_spread(&vb)]
                .into_iter()
                .flatten()
                .fold(None, |acc: Option<f64>, s| {
                    Some(acc.map_or(s, |a| a.max(s)))
                });
            let verdict = match spread {
                Some(s) if s > bound => {
                    unresolved += 1;
                    "unresolved (spread exceeds bound)"
                }
                _ if worse > bound => {
                    regressions += 1;
                    "REGRESSION"
                }
                _ => "ok",
            };
            report += &format!(
                "  {name:<18} {ma:>14.4} -> {mb:>14.4}  worse by {:>6.1}%  bound {:>4.1}%  spread {}  {verdict}\n",
                worse * 100.0,
                bound * 100.0,
                spread.map_or("n/a".to_string(), |s| format!("{:.1}%", s * 100.0)),
            );
        }
    }
    report += &format!("{regressions} regression(s), {unresolved} unresolved, {missing} missing\n");
    (report, regressions == 0 && missing == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartile_spread_matches_python_exclusive_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = quartile_spread(&v).expect("ten values");
        assert!((s - (8.25 - 2.75) / 5.5).abs() < 1e-12, "{s}");
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        let s = quartile_spread(&[3.0, 1.0]).expect("two values");
        assert!((s - 3.0 / 2.0).abs() < 1e-12, "{s}");
        assert_eq!(quartile_spread(&[1.0]), None);
    }

    fn file(sets: &[(f64, bool)]) -> JsonValue {
        JsonValue::object([(
            "sets",
            JsonValue::Array(
                sets.iter()
                    .map(|&(v, correct)| {
                        JsonValue::object([(
                            "w",
                            JsonValue::object([
                                ("correct", JsonValue::Bool(correct)),
                                (
                                    "metrics",
                                    JsonValue::object([(
                                        "lat",
                                        JsonValue::object([("value", JsonValue::Num(v))]),
                                    )]),
                                ),
                            ]),
                        )])
                    })
                    .collect(),
            ),
        )])
    }

    fn bench() -> JsonValue {
        JsonValue::parse(
            r#"{"workloads":[{"name":"w","why":"x"}],
                "end_to_end":[{"name":"lat","unit":"ms","better":"lower","bound":0.1}]}"#,
        )
        .expect("valid JSON")
    }

    #[test]
    fn compare_judges_medians_against_the_bound() {
        let (_, ok) = compare(&bench(), &file(&[(100.0, true)]), &file(&[(109.0, true)]));
        assert!(ok);
        let (report, ok) = compare(&bench(), &file(&[(100.0, true)]), &file(&[(111.0, true)]));
        assert!(!ok && report.contains("REGRESSION"), "{report}");
        // Getting better is never a regression.
        let (_, ok) = compare(&bench(), &file(&[(100.0, true)]), &file(&[(50.0, true)]));
        assert!(ok);
        // A failed gate fails the comparison whatever the numbers say.
        let (_, ok) = compare(&bench(), &file(&[(100.0, true)]), &file(&[(100.0, false)]));
        assert!(!ok);
    }

    #[test]
    fn compare_reports_a_noisy_metric_as_unresolved() {
        let a = file(&[(80.0, true), (100.0, true), (120.0, true), (140.0, true)]);
        let b = file(&[(200.0, true)]);
        let (report, ok) = compare(&bench(), &a, &b);
        assert!(report.contains("unresolved"), "{report}");
        assert!(ok, "an unresolved metric is not judged");
    }
}
