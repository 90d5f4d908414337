//! `--compare A.json B.json`: the before/after (and repeatability) tool.
//! Applies each end-to-end metric's bound from `BENCHMARK.json` to every
//! (workload, metric) pair the two result files share.

use std::path::Path;

use crate::json::Json;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    Same,
    Worse,
    Better,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Better => "better",
        }
    }
}

/// `b` against base `a`: worse (better) when it moved against (with) the
/// metric's direction by more than `bound` as a share of `a`.
pub fn verdict(a: f64, b: f64, higher_is_better: bool, bound: f64) -> Verdict {
    let (hi, lo) = (a * (1.0 + bound), a * (1.0 - bound));
    let (worse, better) = if higher_is_better {
        (b < lo, b > hi)
    } else {
        (b > hi, b < lo)
    };
    if worse {
        Verdict::Worse
    } else if better {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

pub struct Row {
    pub workload: String,
    pub metric: String,
    pub a: f64,
    pub b: f64,
    pub verdict: Verdict,
}

fn metric_value(doc: &Json, workload: &str, metric: &str) -> Option<f64> {
    doc.get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(metric)?
        .get("value")?
        .as_f64()
}

/// One row per (workload, end-to-end metric) present in both documents,
/// in `BENCHMARK.json` order.
pub fn compare_docs(spec: &Json, a: &Json, b: &Json) -> Result<Vec<Row>, String> {
    let metrics = spec
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    let workloads = spec
        .get("workloads")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no workloads list")?;
    let mut rows = Vec::new();
    for w in workloads {
        let workload = w
            .get("name")
            .and_then(Json::as_str)
            .ok_or("unnamed workload")?;
        for m in metrics {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("unnamed metric")?;
            let bound = m
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or("metric without bound")?;
            let higher = m.get("better").and_then(Json::as_str) == Some("higher");
            if let (Some(va), Some(vb)) = (
                metric_value(a, workload, name),
                metric_value(b, workload, name),
            ) {
                rows.push(Row {
                    workload: workload.to_string(),
                    metric: name.to_string(),
                    a: va,
                    b: vb,
                    verdict: verdict(va, vb, higher, bound),
                });
            }
        }
    }
    if rows.is_empty() {
        return Err("the two files share no (workload, end-to-end metric) pair".into());
    }
    Ok(rows)
}

fn load(path: &Path) -> Result<Json, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("parse {}: {e}", path.display()))
}

/// Prints the table; `Ok(true)` when no pair is worse.
pub fn run(bounds: &Path, a: &Path, b: &Path) -> Result<bool, String> {
    let rows = compare_docs(&load(bounds)?, &load(a)?, &load(b)?)?;
    println!(
        "{:<20} {:<26} {:>14} {:>14}  {:<28} verdict",
        "workload", "metric", "A", "B", "ratio"
    );
    for r in &rows {
        println!(
            "{:<20} {:<26} {:>14.4} {:>14.4}  B/A = {:<6.4} (base A {:.4})  {}",
            r.workload,
            r.metric,
            r.a,
            r.b,
            r.b / r.a,
            r.a,
            r.verdict.label()
        );
    }
    let worse = rows.iter().filter(|r| r.verdict == Verdict::Worse).count();
    println!("{} pairs compared, {worse} worse", rows.len());
    Ok(worse == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_respects_direction_and_bound() {
        // Lower is better, bound 10 %.
        assert_eq!(verdict(100.0, 109.0, false, 0.10), Verdict::Same);
        assert_eq!(verdict(100.0, 111.0, false, 0.10), Verdict::Worse);
        assert_eq!(verdict(100.0, 89.0, false, 0.10), Verdict::Better);
        // Higher is better, bound 8 %.
        assert_eq!(verdict(1000.0, 930.0, true, 0.08), Verdict::Same);
        assert_eq!(verdict(1000.0, 910.0, true, 0.08), Verdict::Worse);
        assert_eq!(verdict(1000.0, 1090.0, true, 0.08), Verdict::Better);
    }

    #[test]
    fn compares_only_shared_pairs_in_spec_order() {
        let spec = Json::parse(
            r#"{"workloads": [{"name": "w1", "why": ""}, {"name": "w2", "why": ""}],
                "end_to_end": [
                  {"name": "qps", "unit": "1/s", "better": "higher", "bound": 0.1},
                  {"name": "p50", "unit": "ms", "better": "lower", "bound": 0.1}]}"#,
        )
        .unwrap();
        let doc = |qps: f64, p50: f64| {
            Json::parse(&format!(
                r#"{{"workloads": {{"w1": {{"end_to_end": {{
                    "qps": {{"value": {qps}, "unit": "1/s"}},
                    "p50": {{"value": {p50}, "unit": "ms"}}}}}}}}}}"#
            ))
            .unwrap()
        };
        let rows = compare_docs(&spec, &doc(100.0, 10.0), &doc(80.0, 10.5)).unwrap();
        assert_eq!(rows.len(), 2, "w2 is in neither file");
        assert_eq!(
            (rows[0].metric.as_str(), rows[0].verdict),
            ("qps", Verdict::Worse)
        );
        assert_eq!(
            (rows[1].metric.as_str(), rows[1].verdict),
            ("p50", Verdict::Same)
        );
        assert!(compare_docs(&spec, &doc(1.0, 1.0), &Json::parse("{}").unwrap()).is_err());
    }
}
