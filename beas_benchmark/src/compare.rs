//! `--compare a.jsonl b.jsonl`: judge result set `b` against result set `a`
//! by the per-metric bounds of `BENCHMARK.json`.
//!
//! A result set is the standard output of one or more `--all` runs: one JSON
//! object per workload per line.  With several runs in a file the medians
//! are compared and the spread between runs decides whether a difference can
//! be resolved at all.

use crate::json::Json;
use crate::stats::median;
use std::collections::BTreeMap;

/// One end-to-end metric's regression rule.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    pub name: String,
    pub higher_is_better: bool,
    /// Share of the baseline's median by which the metric may get worse.
    pub bound: f64,
}

/// The `end_to_end` rules of a parsed `BENCHMARK.json`.
pub fn bounds_of(benchmark: &Json) -> Result<Vec<Bound>, String> {
    let entries = benchmark
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end array")?;
    entries
        .iter()
        .map(|e| {
            let field = |k: &str| e.get(k).ok_or(format!("end_to_end entry lacks {k}"));
            Ok(Bound {
                name: field("name")?
                    .as_str()
                    .ok_or("name is not a string")?
                    .to_string(),
                higher_is_better: field("better")?.as_str() == Some("higher"),
                bound: field("bound")?.as_f64().ok_or("bound is not a number")?,
            })
        })
        .collect()
}

/// `(workload, metric) -> values`, one value per run in the file.
pub type ResultSet = BTreeMap<(String, String), Vec<f64>>;

/// Read the end-to-end values out of a result file's text.  Lines that are
/// not workload records (the derived line, cargo's chatter) are skipped.
pub fn parse_results(text: &str) -> ResultSet {
    let mut set = ResultSet::new();
    for line in text.lines() {
        let Ok(record) = Json::parse(line) else {
            continue;
        };
        let (Some(workload), Some(metrics)) = (
            record.get("workload").and_then(Json::as_str),
            record.get("end_to_end").and_then(Json::as_obj),
        ) else {
            continue;
        };
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                set.entry((workload.to_string(), name.clone()))
                    .or_default()
                    .push(v);
            }
        }
    }
    set
}

/// The quartiles Python's `statistics.quantiles(values, n=4)` returns (its
/// default, exclusive method).  `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    Some(out)
}

/// Distance between the first and third quartile as a share of the median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

/// The verdict on one (workload, metric) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The runs of one side differ among themselves by more than the bound,
    /// so a difference of that size between the sides proves nothing.
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One row of the comparison.
#[derive(Debug, Clone)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub base: f64,
    pub new: f64,
    /// Share of `base` by which `new` is worse (negative: better).
    pub worse_by: f64,
    /// The wider of the two sides' spreads, when either has one.
    pub spread: Option<f64>,
    pub bound: f64,
    pub verdict: Verdict,
}

/// Compare `new` against `base` under `bounds`, one row per pair that both
/// sides report.
pub fn compare(bounds: &[Bound], base: &ResultSet, new: &ResultSet) -> Vec<Row> {
    let mut rows = Vec::new();
    for ((workload, metric), base_values) in base {
        let Some(new_values) = new.get(&(workload.clone(), metric.clone())) else {
            continue;
        };
        let Some(rule) = bounds.iter().find(|b| b.name == *metric) else {
            continue;
        };
        let (Some(b), Some(n)) = (median(base_values), median(new_values)) else {
            continue;
        };
        let worse_by = if b == 0.0 {
            0.0
        } else if rule.higher_is_better {
            (b - n) / b.abs()
        } else {
            (n - b) / b.abs()
        };
        let spread = [spread(base_values), spread(new_values)]
            .into_iter()
            .flatten()
            .reduce(f64::max);
        let verdict = if spread.is_some_and(|s| s > rule.bound) {
            Verdict::Unresolved
        } else if worse_by > rule.bound {
            Verdict::Regressed
        } else {
            Verdict::Ok
        };
        rows.push(Row {
            workload: workload.clone(),
            metric: metric.clone(),
            base: b,
            new: n,
            worse_by,
            spread,
            bound: rule.bound,
            verdict,
        });
    }
    rows
}

/// The comparison as an aligned table.
pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<16} {:<14} {:>14} {:>14} {:>9} {:>8} {:>7}  verdict\n",
        "workload", "metric", "base", "new", "worse by", "spread", "bound"
    );
    for r in rows {
        let spread = r
            .spread
            .map_or("-".to_string(), |s| format!("{:.1}%", s * 100.0));
        out.push_str(&format!(
            "{:<16} {:<14} {:>14.3} {:>14.3} {:>8.1}% {:>8} {:>6.1}%  {}\n",
            r.workload,
            r.metric,
            r.base,
            r.new,
            r.worse_by * 100.0,
            spread,
            r.bound * 100.0,
            r.verdict.name()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bounds() -> Vec<Bound> {
        let benchmark = Json::parse(
            r#"{"end_to_end": [
                {"name": "read_p50_us", "unit": "us", "better": "lower", "bound": 0.1},
                {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.1}]}"#,
        )
        .unwrap();
        bounds_of(&benchmark).unwrap()
    }

    fn record(workload: &str, p50: f64, ops: f64) -> String {
        format!(
            "{{\"workload\": \"{workload}\", \"end_to_end\": {{\"read_p50_us\": {{\"value\": {p50}, \"unit\": \"us\"}}, \"ops_per_s\": {{\"value\": {ops}, \"unit\": \"1/s\"}}}}}}\n"
        )
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[20.0, 10.0]), Some([7.5, 15.0, 22.5]));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(spread(&ten), Some(1.0));
    }

    #[test]
    fn verdicts_follow_direction_and_bound() {
        let base = parse_results(&(record("w", 100.0, 1000.0) + "not json\n{\"derived\": {}}\n"));
        let slower = parse_results(&record("w", 115.0, 950.0));
        let rows = compare(&bounds(), &base, &slower);
        let verdict = |m: &str| rows.iter().find(|r| r.metric == m).unwrap().verdict;
        assert_eq!(verdict("read_p50_us"), Verdict::Regressed);
        assert_eq!(verdict("ops_per_s"), Verdict::Ok);
        // better is never a regression, in either direction
        let faster = parse_results(&record("w", 50.0, 5000.0));
        assert!(compare(&bounds(), &base, &faster)
            .iter()
            .all(|r| r.verdict == Verdict::Ok && r.worse_by < 0.0));
        assert!(render(&rows).contains("regressed"));
    }

    #[test]
    fn wide_spread_is_unresolved_not_unchanged() {
        let noisy: String = [80.0, 100.0, 120.0, 140.0]
            .iter()
            .map(|p| record("w", *p, 1000.0))
            .collect();
        let rows = compare(&bounds(), &parse_results(&noisy), &parse_results(&noisy));
        let row = |m: &str| rows.iter().find(|r| r.metric == m).unwrap();
        assert_eq!(row("read_p50_us").verdict, Verdict::Unresolved);
        assert_eq!(row("ops_per_s").verdict, Verdict::Ok);
        assert_eq!(row("ops_per_s").spread, Some(0.0));
    }
}
