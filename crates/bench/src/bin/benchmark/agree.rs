//! `--agree A B`: do two sets of result files agree within the bounds
//! `BENCHMARK.json` fixes?
//!
//! Each set is one or more `--out` files; a metric's value for a set is its
//! median over the set's files. Every (workload, end-to-end metric) pair
//! gets a row. Two sets agree on a pair when the medians differ by at most
//! the bound, taken relative to the smaller median, so the verdict does not
//! depend on which set is named first. `setup_s` differences under
//! [`SETUP_FLOOR_S`] always agree, and `failed_frac` must be equal.

#![forbid(unsafe_code)]

use crate::json::Value;
use crate::summary::{median, sorted};

/// `setup_s` differences smaller than this are noise, whatever the ratio.
pub const SETUP_FLOOR_S: f64 = 0.020;

#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub a: Option<f64>,
    pub b: Option<f64>,
    /// |b − a| ÷ min(a, b).
    pub change: f64,
    pub bound: f64,
    pub ok: bool,
}

/// The end-to-end metrics of a `BENCHMARK.json`: (name, bound).
fn bounds(bench: &Value) -> Result<Vec<(String, f64)>, String> {
    bench
        .get("end_to_end")
        .map(Value::as_arr)
        .filter(|m| !m.is_empty())
        .ok_or("BENCHMARK.json has no end_to_end metrics")?
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Value::as_str);
            let bound = m.get("bound").and_then(Value::as_f64);
            match (name, bound) {
                (Some(n), Some(b)) => Ok((n.to_string(), b)),
                _ => Err(format!("malformed end_to_end entry {}", m.to_json())),
            }
        })
        .collect()
}

/// Workload names present in any file of the set, in first-seen order.
fn workloads(set: &[Value]) -> Vec<String> {
    let mut names: Vec<String> = Vec::new();
    for file in set {
        for (name, _) in file.get("workloads").map_or(&[][..], Value::members) {
            if !names.contains(name) {
                names.push(name.clone());
            }
        }
    }
    names
}

/// Median over the set of `workloads.<workload>.<path>`.
fn set_median(set: &[Value], workload: &str, path: &[&str]) -> Option<f64> {
    let values: Vec<f64> = set
        .iter()
        .filter_map(|file| {
            let mut v = file.get("workloads")?.get(workload)?;
            for key in path {
                v = v.get(key)?;
            }
            v.as_f64()
        })
        .collect();
    (!values.is_empty()).then(|| median(&sorted(&values)))
}

/// Compares set `a` with set `b`, one row per (workload, metric).
pub fn compare(bench: &Value, a: &[Value], b: &[Value]) -> Result<Vec<Row>, String> {
    let bounds = bounds(bench)?;
    let mut names = workloads(a);
    for name in workloads(b) {
        if !names.contains(&name) {
            names.push(name);
        }
    }
    let mut rows = Vec::new();
    for workload in &names {
        for (metric, bound) in bounds
            .iter()
            .map(|(m, b)| (m.as_str(), *b))
            .chain([("failed_frac", 0.0)])
        {
            let path: &[&str] = if metric == "failed_frac" {
                &["failed_frac"]
            } else {
                &["metrics", metric, "value"]
            };
            let (va, vb) = (set_median(a, workload, path), set_median(b, workload, path));
            let (change, ok) = match (va, vb) {
                (Some(x), Some(y)) => {
                    let diff = (y - x).abs();
                    let change = if diff == 0.0 { 0.0 } else { diff / x.min(y) };
                    let floor = metric == "setup_s" && diff < SETUP_FLOOR_S;
                    (change, change <= bound || floor)
                }
                _ => (f64::NAN, false),
            };
            rows.push(Row {
                workload: workload.clone(),
                metric: metric.to_string(),
                a: va,
                b: vb,
                change,
                bound,
                ok,
            });
        }
    }
    Ok(rows)
}

pub fn print(rows: &[Row]) {
    let show = |v: Option<f64>| v.map_or("missing".to_string(), |x| format!("{x:.6}"));
    println!(
        "{:<10} {:<14} {:>16} {:>16} {:>9} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "change", "bound"
    );
    for r in rows {
        println!(
            "{:<10} {:<14} {:>16} {:>16} {:>8.2}% {:>6.1}%  {}",
            r.workload,
            r.metric,
            show(r.a),
            show(r.b),
            100.0 * r.change,
            100.0 * r.bound,
            if r.ok { "agree" } else { "DISAGREE" }
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    const BENCH: &str = r#"{"end_to_end":[
        {"name":"slots_per_s","unit":"slots/s","better":"higher","bound":0.1},
        {"name":"setup_s","unit":"s","better":"lower","bound":0.25}]}"#;

    fn result(slots_per_s: f64, setup_s: f64, failed_frac: f64) -> Value {
        parse(&format!(
            r#"{{"workloads":{{"w":{{"failed_frac":{failed_frac},"metrics":{{
                "slots_per_s":{{"value":{slots_per_s},"unit":"slots/s"}},
                "setup_s":{{"value":{setup_s},"unit":"s"}}}}}}}}}}"#
        ))
        .unwrap()
    }

    fn verdicts(a: &[Value], b: &[Value]) -> Vec<(String, bool)> {
        compare(&parse(BENCH).unwrap(), a, b)
            .unwrap()
            .into_iter()
            .map(|r| (r.metric, r.ok))
            .collect()
    }

    fn v(pairs: &[(&str, bool)]) -> Vec<(String, bool)> {
        pairs.iter().map(|(m, ok)| (m.to_string(), *ok)).collect()
    }

    #[test]
    fn within_bounds_agrees() {
        let got = verdicts(&[result(100.0, 1.0, 0.0)], &[result(108.0, 1.2, 0.0)]);
        assert_eq!(
            got,
            v(&[
                ("slots_per_s", true),
                ("setup_s", true),
                ("failed_frac", true)
            ])
        );
    }

    #[test]
    fn out_of_bounds_disagrees_in_either_order() {
        let (a, b) = (result(100.0, 1.0, 0.0), result(89.0, 1.3, 0.0));
        let expected = v(&[
            ("slots_per_s", false),
            ("setup_s", false),
            ("failed_frac", true),
        ]);
        let one = std::slice::from_ref;
        assert_eq!(verdicts(one(&a), one(&b)), expected);
        assert_eq!(verdicts(&[b], &[a]), expected, "order does not matter");
    }

    #[test]
    fn sets_compare_by_median_and_setup_has_a_floor() {
        // Medians 100 vs 101; one outlier per set does not matter.
        let a = [
            result(100.0, 0.010, 0.0),
            result(50.0, 0.010, 0.0),
            result(101.0, 0.010, 0.0),
        ];
        let b = [
            result(101.0, 0.025, 0.0),
            result(160.0, 0.025, 0.0),
            result(99.0, 0.025, 0.0),
        ];
        // setup_s is 2.5x worse but only 15 ms apart.
        assert_eq!(
            verdicts(&a, &b),
            v(&[
                ("slots_per_s", true),
                ("setup_s", true),
                ("failed_frac", true)
            ])
        );
    }

    #[test]
    fn any_failure_or_missing_metric_disagrees() {
        let got = verdicts(&[result(100.0, 1.0, 0.0)], &[result(100.0, 1.0, 0.01)]);
        assert_eq!(got[2], ("failed_frac".to_string(), false));
        let missing = parse(r#"{"workloads":{"w":{"failed_frac":0,"metrics":{}}}}"#).unwrap();
        let got = verdicts(&[result(100.0, 1.0, 0.0)], &[missing]);
        assert_eq!(
            got,
            v(&[
                ("slots_per_s", false),
                ("setup_s", false),
                ("failed_frac", true)
            ])
        );
        assert!(compare(&parse("{}").unwrap(), &[], &[]).is_err());
    }
}
