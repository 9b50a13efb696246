//! Result sets — the repeated runs of one commit, summarised per metric —
//! and `e2e compare`, which applies the registry's bounds to two of them.

use crate::json::{self, Value};
use crate::metrics::{per_layer, Measured, END_TO_END};
use crate::stats::Spread;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The repeated runs of one workload.
#[derive(Default)]
pub struct WorkloadRuns {
    pub notes: Vec<(String, String)>,
    /// End-to-end values, one per repetition.
    pub runs: Vec<Measured>,
    /// The traced run's per-layer values, if one was made.
    pub layers: Option<Measured>,
    pub attempted: u64,
    pub failed: u64,
}

/// Renders a result set: per workload and end-to-end metric the median,
/// quartiles, relative spread and raw values; per-layer rows from the
/// traced run as single values.
pub fn render_set(
    stamps: &[(String, String)],
    workloads: &BTreeMap<String, WorkloadRuns>,
) -> String {
    let mut out = String::from("{\n");
    for (k, v) in stamps {
        let _ = writeln!(out, "  \"{k}\": \"{v}\",");
    }
    out.push_str("  \"claim\": null,\n  \"workloads\": {\n");
    for (wi, (name, w)) in workloads.iter().enumerate() {
        let _ = writeln!(out, "    \"{name}\": {{");
        for (k, v) in &w.notes {
            let _ = writeln!(out, "      \"{k}\": \"{v}\",");
        }
        let _ = writeln!(
            out,
            "      \"attempted\": {}, \"failed\": {},",
            w.attempted, w.failed
        );
        out.push_str("      \"end_to_end\": {\n");
        let rows: Vec<String> = END_TO_END
            .iter()
            .filter(|def| def.applies_to(name))
            .filter_map(|def| {
                let values: Vec<f64> = w.runs.iter().filter_map(|r| r.get(def.name)).collect();
                if values.is_empty() {
                    return None;
                }
                let s = Spread::of(&values);
                let list: Vec<String> = values.iter().map(f64::to_string).collect();
                Some(format!(
                    "        \"{}\": {{\"unit\": \"{}\", \"median\": {}, \"q1\": {}, \"q3\": {}, \
                     \"spread\": {:.4}, \"values\": [{}]}}",
                    def.name,
                    def.unit,
                    s.median,
                    s.q1,
                    s.q3,
                    s.relative(),
                    list.join(", ")
                ))
            })
            .collect();
        out.push_str(&rows.join(",\n"));
        out.push_str("\n      }");
        if let Some(layers) = &w.layers {
            out.push_str(",\n      \"per_layer\": {\n");
            let rows: Vec<String> = per_layer()
                .into_iter()
                .filter_map(|(name, unit, _)| {
                    let v = layers.get(&name).filter(|v| v.is_finite())?;
                    Some(format!(
                        "        \"{name}\": {{\"unit\": \"{unit}\", \"value\": {v}}}"
                    ))
                })
                .collect();
            out.push_str(&rows.join(",\n"));
            out.push_str("\n      }");
        }
        let _ = writeln!(
            out,
            "\n    }}{}",
            if wi + 1 < workloads.len() { "," } else { "" }
        );
    }
    out.push_str("  }\n}\n");
    out
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Regressed,
    Unchanged,
    /// The run-to-run spread is wider than the bound: the runs cannot
    /// tell "unchanged" from "regressed".
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Regressed => "regressed",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges one (metric, workload) pair: `a` is the parent's summary, `b`
/// the change's; `bound` the share of `a`'s median by which the metric
/// may worsen. A bound of 0 (`failed_ratio`) allows no increase at all.
pub fn judge(a: Spread, b: Spread, lower_is_better: bool, bound: f64) -> Verdict {
    let sign = if lower_is_better { 1.0 } else { -1.0 };
    if bound == 0.0 {
        return match ((b.median - a.median) * sign).partial_cmp(&0.0) {
            Some(std::cmp::Ordering::Greater) => Verdict::Regressed,
            Some(std::cmp::Ordering::Less) => Verdict::Improved,
            _ => Verdict::Unchanged,
        };
    }
    if a.median == 0.0 {
        return Verdict::Unresolved;
    }
    let worse = (b.median - a.median) / a.median.abs() * sign;
    let spread = a.relative().max(b.relative());
    if worse > bound {
        Verdict::Regressed
    } else if -worse > a.relative() + b.relative() {
        // Better by more than both sides' own spreads together. (A hint,
        // not a claim: a claim needs ten alternating pairs.)
        Verdict::Improved
    } else if spread > bound {
        Verdict::Unresolved
    } else {
        Verdict::Unchanged
    }
}

fn summary_of(metric: &Value) -> Option<Spread> {
    Some(Spread {
        median: metric.get("median")?.as_f64()?,
        q1: metric.get("q1")?.as_f64()?,
        q3: metric.get("q3")?.as_f64()?,
    })
}

/// `e2e compare <a.json> <b.json>`: one row per (end-to-end metric,
/// workload) pair the registry defines. Returns the table and whether the
/// sets agree (no `regressed`, no `unresolved`). A workload either set
/// lacks, or a metric either side did not report, is an error: two sets
/// that were not measured alike cannot agree.
pub fn compare(a_text: &str, b_text: &str) -> Result<(String, bool), String> {
    let (a, b) = (json::parse(a_text)?, json::parse(b_text)?);
    let workloads = |v: &Value| -> Result<BTreeMap<String, Value>, String> {
        v.get("workloads")
            .and_then(Value::as_obj)
            .cloned()
            .ok_or_else(|| "not a result set: no \"workloads\" object".to_string())
    };
    let (wa, wb) = (workloads(&a)?, workloads(&b)?);
    if wa.is_empty() || !wa.keys().eq(wb.keys()) {
        return Err(format!(
            "the sets cover different workloads: {:?} against {:?}",
            wa.keys().collect::<Vec<_>>(),
            wb.keys().collect::<Vec<_>>()
        ));
    }
    let mut table = format!(
        "{:<18} {:<24} {:>14} {:>14} {:>8} {:>7} {:>6}  verdict\n",
        "workload", "metric", "a.median", "b.median", "change", "spread", "bound"
    );
    let mut agree = true;
    for (name, a_w) in &wa {
        let b_w = &wb[name];
        for def in END_TO_END.iter().filter(|def| def.applies_to(name)) {
            let pick = |w: &Value, set: &str| {
                w.path(&["end_to_end", def.name])
                    .and_then(summary_of)
                    .ok_or_else(|| format!("set {set} has no {} for {name}", def.name))
            };
            let (sa, sb) = (pick(a_w, "a")?, pick(b_w, "b")?);
            let verdict = judge(sa, sb, def.better == "lower", def.bound);
            agree &= !matches!(verdict, Verdict::Regressed | Verdict::Unresolved);
            let change = if sa.median == 0.0 {
                // From zero (`failed_ratio`): the difference, in points.
                (sb.median - sa.median) * 100.0
            } else {
                (sb.median - sa.median) / sa.median * 100.0
            };
            let _ = writeln!(
                table,
                "{:<18} {:<24} {:>14.4} {:>14.4} {:>+7.1}% {:>6.1}% {:>5.0}%  {}",
                name,
                def.name,
                sa.median,
                sb.median,
                change,
                sa.relative().max(sb.relative()) * 100.0,
                def.bound * 100.0,
                verdict.as_str()
            );
        }
    }
    Ok((table, agree))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flat(median: f64, rel: f64) -> Spread {
        Spread {
            median,
            q1: median * (1.0 - rel / 2.0),
            q3: median * (1.0 + rel / 2.0),
        }
    }

    #[test]
    fn verdicts_follow_the_bounds() {
        let a = flat(100.0, 0.02);
        assert_eq!(judge(a, flat(104.0, 0.02), true, 0.10), Verdict::Unchanged);
        assert_eq!(judge(a, flat(115.0, 0.02), true, 0.10), Verdict::Regressed);
        assert_eq!(judge(a, flat(80.0, 0.02), true, 0.10), Verdict::Improved);
        // Throughput: higher is better.
        assert_eq!(judge(a, flat(80.0, 0.02), false, 0.10), Verdict::Regressed);
        assert_eq!(judge(a, flat(125.0, 0.02), false, 0.10), Verdict::Improved);
        // Spread wider than the bound: not "unchanged".
        assert_eq!(
            judge(flat(100.0, 0.3), flat(101.0, 0.02), true, 0.10),
            Verdict::Unresolved
        );
        // A count that repeats exactly.
        assert_eq!(
            judge(flat(16.78, 0.0), flat(16.78, 0.0), true, 0.01),
            Verdict::Unchanged
        );
        // `failed_ratio`: no increase, from zero or otherwise.
        assert_eq!(
            judge(flat(0.0, 0.0), flat(0.0, 0.0), true, 0.0),
            Verdict::Unchanged
        );
        assert_eq!(
            judge(flat(0.0, 0.0), flat(0.002, 0.0), true, 0.0),
            Verdict::Regressed
        );
        assert_eq!(
            judge(flat(0.002, 0.0), flat(0.0, 0.0), true, 0.0),
            Verdict::Improved
        );
    }

    #[test]
    fn a_set_compares_clean_against_itself_and_flags_a_regression() {
        let run = |p50: f64, failed_ratio: f64| {
            let mut m = Measured::default();
            for def in END_TO_END {
                m.set(def.name, 10.0);
            }
            m.set("query_p50_us", p50);
            m.set("failed_ratio", failed_ratio);
            m
        };
        let set = |workload: &str, scale: f64, failed_ratio: f64| {
            let mut w = BTreeMap::new();
            w.insert(
                workload.to_string(),
                WorkloadRuns {
                    notes: vec![("seed".into(), "42".into())],
                    runs: [100.0, 101.0, 99.0]
                        .iter()
                        .map(|p50| run(p50 * scale, failed_ratio))
                        .collect(),
                    layers: Some(run(1.0, 0.0)),
                    attempted: 30,
                    failed: 0,
                },
            );
            render_set(&[("host_threads".into(), "2".into())], &w)
        };
        let base = set("table1-embedded", 1.0, 0.0);
        let parsed = json::parse(&base).unwrap();
        assert_eq!(parsed.get("claim"), Some(&Value::Null));
        let e2e = |metric: &str| {
            parsed
                .path(&[
                    "workloads",
                    "table1-embedded",
                    "end_to_end",
                    metric,
                    "median",
                ])
                .and_then(Value::as_f64)
        };
        assert_eq!(e2e("query_p50_us"), Some(100.0));
        assert_eq!(e2e("failed_ratio"), Some(0.0));
        // The write-path metrics belong to `update-mixed` alone.
        assert_eq!(e2e("commit_p50_us"), None);
        let (table, agree) = compare(&base, &base).unwrap();
        assert!(agree, "{table}");
        assert_eq!(table.lines().count(), 1 + 7);
        let writes = set("update-mixed", 1.0, 0.0);
        let (table, agree) = compare(&writes, &writes).unwrap();
        assert!(agree && table.contains("wal_bytes_per_update"), "{table}");
        assert_eq!(table.lines().count(), 1 + END_TO_END.len());

        let (table, agree) = compare(&base, &set("table1-embedded", 1.5, 0.0)).unwrap();
        assert!(!agree && table.contains("regressed"), "{table}");
        // Any rise in failures is a regression, whatever the timings say.
        let (table, agree) = compare(&base, &set("table1-embedded", 1.0, 0.001)).unwrap();
        let row = table.lines().find(|l| l.contains("failed_ratio")).unwrap();
        assert!(!agree && row.ends_with("regressed"), "{table}");
        // Sets that were not measured alike cannot agree.
        assert!(compare(&base, &writes).is_err());
        assert!(compare(&base, "{\"workloads\": {}}").is_err());
        let gutted = base.replace("\"open_rss_mb\"", "\"open_rss\"");
        let err = compare(&base, &gutted).unwrap_err();
        assert!(err.contains("open_rss_mb"), "{err}");
    }
}
