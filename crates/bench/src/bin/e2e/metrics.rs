//! The registry of every metric the driver can emit — name, unit,
//! direction and (for end-to-end metrics) regression bound — and the
//! `BENCHMARK.json` rendered from it, so the two cannot disagree.

use crate::inputs::PATTERN_SLUGS;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// `run_seconds` of `BENCHMARK.json`, and the default of `--seconds`.
pub const RUN_SECONDS: u64 = 16;

pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "table1-embedded",
        "Table 1 log through RpqDatabase::query_with on one mmap'd RRPQM01 file: engine, ring and succinct do all the work; server, delta and gather none",
    ),
    (
        "table1-sharded",
        "same graph and log over save_sharded(4): every step goes through ShardedSource k-way gathers, so the layered kernel does what the pure kernel did above",
    ),
    (
        "zipf-served",
        "2 closed-loop clients ask RpqServer for the log's anchored queries, Zipf(1.0) over cached answers plus 2.3% one-offs: the median is queue/ticket/cache overhead, the tail engine; plans are cached",
    ),
    (
        "update-mixed",
        "256 updates, a WAL-fsynced commit, then 16 queries per round over ring+delta, through a whole auto-compaction cycle: commit growth, the compaction stall and reads under a delta",
    ),
];

#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen before
    /// `compare` calls it regressed; 0 means no increase at all.
    pub bound: f64,
    /// The workloads that report it; empty for all four.
    pub workloads: &'static [&'static str],
}

impl MetricDef {
    pub fn applies_to(&self, workload: &str) -> bool {
        self.workloads.is_empty() || self.workloads.contains(&workload)
    }

    /// Whether `BENCHMARK.json` lists it under `end_to_end`. The contract
    /// wants every such metric from every workload and never 0, so the
    /// write-path metrics (`update-mixed` only) are listed under
    /// `per_layer`, and `failed_ratio` (0 on a healthy run) is the result
    /// line's `failed / attempted`. `compare` gates all ten regardless.
    pub fn in_contract(&self) -> bool {
        self.workloads.is_empty() && self.bound > 0.0
    }
}

const WRITE_PATH: &[&str] = &["update-mixed"];

/// What a user of the system sees, measured with tracing off. The bounds
/// are set from the spreads measured on this PR's host over ten seeds
/// (README, "Bounds"): at least three times the spread and the issue's
/// figure; the timings get the contract's ceiling, 0.25, because that is
/// what ten runs spread when a third of them fall into a slow stretch of
/// the shared host whole.
pub const END_TO_END: [MetricDef; 10] = [
    e2e("setup_s", "s", LOWER, 0.25, &[]),
    e2e("query_p50_us", "us", LOWER, 0.25, &[]),
    e2e("query_p99_us", "us", LOWER, 0.25, &[]),
    e2e("queries_per_s", "1/s", HIGHER, 0.25, &[]),
    e2e("failed_ratio", "ratio", LOWER, 0.0, &[]),
    e2e("index_bytes_per_triple", "B", LOWER, 0.01, &[]),
    e2e("open_rss_mb", "MiB", LOWER, 0.10, &[]),
    e2e("commit_p50_us", "us", LOWER, 0.25, WRITE_PATH),
    e2e("commit_p95_us", "us", LOWER, 0.25, WRITE_PATH),
    e2e("wal_bytes_per_update", "B", LOWER, 0.01, WRITE_PATH),
];

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
    workloads: &'static [&'static str],
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
        workloads,
    }
}

const LOWER: &str = "lower";
const HIGHER: &str = "higher";

/// Per-layer metrics with fixed names: `(name, unit, better)`.
const PER_LAYER_FIXED: &[(&str, &str, &str)] = &[
    // succinct
    ("succinct.rank1_ns", "ns", LOWER),
    ("succinct.select1_ns", "ns", LOWER),
    ("succinct.wm_access_ns", "ns", LOWER),
    ("succinct.wm_rank_ns", "ns", LOWER),
    ("succinct.wm_select_ns", "ns", LOWER),
    // automata / core.plan / core.planner
    ("automata.parse_us", "us", LOWER),
    ("core.plan.compile_us", "us", LOWER),
    ("core.planner.plan_us", "us", LOWER),
    ("core.planner.regret", "ratio", LOWER),
    // core.engine
    ("core.engine.new_us", "us", LOWER),
    ("core.engine.evaluate_us", "us", LOWER),
    ("core.engine.cv_p50_us", "us", LOWER),
    ("core.engine.vv_p50_us", "us", LOWER),
    ("core.engine.cv_mean_us", "us", LOWER),
    ("core.engine.vv_mean_us", "us", LOWER),
    ("core.engine.product_nodes_per_query", "count", LOWER),
    ("core.engine.rank_ops_per_query", "count", LOWER),
    ("core.engine.wavelet_nodes_per_query", "count", LOWER),
    ("core.engine.rank_ops_saved_ratio", "ratio", HIGHER),
    ("core.engine.nodes_per_result", "ratio", LOWER),
    ("core.engine.nodes_per_result_vv", "ratio", LOWER),
    // core.route
    ("core.route.fastpath.queries", "count", HIGHER),
    ("core.route.fastpath.mean_us", "us", LOWER),
    ("core.route.bitparallel.queries", "count", HIGHER),
    ("core.route.bitparallel.mean_us", "us", LOWER),
    ("core.route.split.queries", "count", HIGHER),
    ("core.route.split.mean_us", "us", LOWER),
    ("core.route.fallback.queries", "count", LOWER),
    ("core.route.fallback.mean_us", "us", LOWER),
    // core.source
    ("core.source.sharded.slowdown", "ratio", LOWER),
    ("core.source.sharded.probes_per_query", "count", LOWER),
    (
        "core.source.sharded.shards_touched_per_query",
        "count",
        LOWER,
    ),
    (
        "core.source.sharded.single_pred_shards_touched",
        "count",
        LOWER,
    ),
    ("core.source.delta.slowdown", "ratio", LOWER),
    // core.parallel
    ("core.parallel.speedup_t2", "ratio", HIGHER),
    ("core.parallel.levels_per_query", "count", HIGHER),
    // ring
    ("ring.build_s", "s", LOWER),
    ("ring.backward_step_pred_ns", "ns", LOWER),
    ("ring.backward_step_subject_ns", "ns", LOWER),
    ("ring.lf_ns", "ns", LOWER),
    ("ring.subjects_for_ns_per_result", "ns", LOWER),
    ("ring.mapped.write_ms", "ms", LOWER),
    ("ring.mapped.open_ms", "ms", LOWER),
    ("ring.sharded.build_s", "s", LOWER),
    ("ring.sharded.balance", "ratio", LOWER),
    ("ring.l_s_bytes_per_triple", "B", LOWER),
    ("ring.l_p_bytes_per_triple", "B", LOWER),
    ("ring.l_o_bytes_per_triple", "B", LOWER),
    ("ring.boundaries_bytes_per_triple", "B", LOWER),
    ("ring.dict_bytes_per_triple", "B", LOWER),
    ("ring.ring_bytes_per_triple", "B", LOWER),
    ("ring.store.commit_us", "us", LOWER),
    ("ring.wal.append_us", "us", LOWER),
    ("ring.store.compact_s", "s", LOWER),
    ("ring.store.compactions", "count", LOWER),
    ("ring.delta.peak_entries", "count", LOWER),
    // server
    ("server.submit_us", "us", LOWER),
    ("server.queue_wait_mean_us", "us", LOWER),
    ("server.exec_mean_us", "us", LOWER),
    ("server.cached_mean_us", "us", LOWER),
    ("server.overhead_mean_us", "us", LOWER),
    ("server.plan_cache.hit_ratio", "ratio", HIGHER),
    ("server.result_cache.hit_ratio", "ratio", HIGHER),
    ("server.queue_peak", "count", LOWER),
    ("server.rejected", "count", LOWER),
    ("server.workers_busy_ratio", "ratio", LOWER),
    ("server.scaling_w2_over_w1", "ratio", HIGHER),
    ("server.metrics_json_us", "us", LOWER),
    // facade
    ("facade.ingest.parse_s", "s", LOWER),
    ("facade.ingest.triples_per_s", "1/s", HIGHER),
    ("facade.from_parts_s", "s", LOWER),
    ("facade.save_mapped_ms", "ms", LOWER),
    ("facade.open_ms", "ms", LOWER),
    ("facade.cold_first_answer_ms", "ms", LOWER),
    ("facade.query_with_mean_us", "us", LOWER),
    ("facade.updatable.apply_us_per_op", "us", LOWER),
    ("facade.updatable.commit_max_ms", "ms", LOWER),
    // baselines: a reference row, never a claim target
    ("baselines.nfa_bfs.mean_us", "us", LOWER),
    ("baselines.seminaive.mean_us", "us", LOWER),
    ("baselines.bitparallel_adj.mean_us", "us", LOWER),
    ("baselines.adjacency.bytes_per_triple", "B", LOWER),
    ("baselines.ring_over_best_mean", "ratio", LOWER),
    ("baselines.timeouts", "count", LOWER),
    // what the tracing itself costs
    ("trace.overhead_ratio", "ratio", HIGHER),
];

/// Name of the Fig. 8 median of one Table 1 pattern.
pub fn pattern_metric(pattern: usize) -> String {
    format!("core.pattern.{}.p50_us", PATTERN_SLUGS[pattern])
}

/// `BENCHMARK.json`'s `per_layer` list, `(name, unit, better)`: the
/// end-to-end metrics the contract's `end_to_end` list cannot hold (see
/// [`MetricDef::in_contract`]), the fixed layer metrics, and one Fig. 8
/// median per Table 1 pattern.
pub fn per_layer() -> Vec<(String, &'static str, &'static str)> {
    let scoped = END_TO_END
        .iter()
        .filter(|m| !m.in_contract())
        .map(|m| (m.name, m.unit, m.better));
    let mut all: Vec<(String, &'static str, &'static str)> = scoped
        .chain(PER_LAYER_FIXED.iter().copied())
        .map(|(n, u, b)| (n.to_string(), u, b))
        .collect();
    all.extend((0..PATTERN_SLUGS.len()).map(|i| (pattern_metric(i), "us", LOWER)));
    all
}

/// Values measured by one run, by metric name.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Measured(pub BTreeMap<String, f64>);

impl Measured {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.0.insert(name.into(), value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// The outcome of one workload run.
#[derive(Clone, Debug, Default)]
pub struct RunResult {
    /// Operations measured (queries, and commits on `update-mixed`).
    pub attempted: u64,
    /// Errors, timeouts, rejections and answer mismatches among them.
    pub failed: u64,
    /// Answers (and the post-run state) matched their references.
    pub correct: bool,
    pub metrics: Measured,
    /// Sizes and digests stamped next to the numbers.
    pub notes: Vec<(String, String)>,
}

impl RunResult {
    /// Closes a run: `failed_ratio` is a metric like the others.
    pub fn finish(mut self) -> Self {
        self.metrics.set(
            "failed_ratio",
            self.failed as f64 / self.attempted.max(1) as f64,
        );
        self
    }
}

/// The metrics the contract's result line carries for `trace`, in
/// registry order, with their units. With tracing off: every
/// `end_to_end` entry of `BENCHMARK.json`; a missing or zero one is a bug
/// in the workload. With tracing on: every `per_layer` entry; one the
/// workload does not exercise reads 0 (that layer did no work there).
pub fn reported(
    trace: bool,
    measured: &Measured,
) -> Result<Vec<(String, &'static str, f64)>, String> {
    if trace {
        return Ok(per_layer()
            .into_iter()
            .map(|(name, unit, _)| {
                let v = measured.get(&name).unwrap_or(0.0);
                (name, unit, v)
            })
            .collect());
    }
    END_TO_END
        .iter()
        .filter(|m| m.in_contract())
        .map(|m| {
            measured
                .get(m.name)
                .filter(|v| v.is_finite() && *v > 0.0)
                .map(|v| (m.name.to_string(), m.unit, v))
                .ok_or_else(|| format!("end-to-end metric {} was not measured", m.name))
        })
        .collect()
}

/// The one-line result the contract asks for.
pub fn result_line(trace: bool, r: &RunResult) -> Result<String, String> {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        r.correct, r.attempted, r.failed
    );
    for (i, (name, unit, v)) in reported(trace, &r.metrics)?.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    Ok(out)
}

/// `BENCHMARK.json`, rendered from the registry (`e2e manifest`).
pub fn manifest() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"crates/bench/src/bin/e2e/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"crates/bench/src/bin/e2e\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    for (i, (name, why)) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{name}\", \"why\": \"{why}\"}}{comma}"
        );
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    let listed: Vec<&MetricDef> = END_TO_END.iter().filter(|m| m.in_contract()).collect();
    for (i, m) in listed.iter().enumerate() {
        let comma = if i + 1 < listed.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}",
            m.name, m.unit, m.better, m.bound
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    let layers = per_layer();
    for (i, (name, unit, better)) in layers.iter().enumerate() {
        let comma = if i + 1 < layers.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}{comma}"
        );
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn valid_name(n: &str) -> bool {
        !n.is_empty()
            && n.len() <= 64
            && n.as_bytes()[0].is_ascii_alphanumeric()
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_units_and_counts_meet_the_contract() {
        let layers = per_layer();
        assert!(layers.len() <= 128, "{} per-layer metrics", layers.len());
        let mut seen = std::collections::BTreeSet::new();
        let listed = END_TO_END.iter().filter(|m| m.in_contract());
        let units = layers
            .iter()
            .map(|(n, u, b)| (n.as_str(), *u, *b))
            .chain(listed.clone().map(|m| (m.name, m.unit, m.better)));
        for (name, unit, better) in units.chain(WORKLOADS.iter().map(|w| (w.0, "s", LOWER))) {
            assert!(valid_name(name), "bad metric name {name:?}");
            assert!(seen.insert(name.to_string()), "{name} is used twice");
            assert!(
                unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
            assert!(better == LOWER || better == HIGHER);
        }
        // Every end-to-end metric is listed on one side or the other.
        for m in END_TO_END {
            assert!(seen.contains(m.name), "{}", m.name);
            assert!((0.0..=0.25).contains(&m.bound), "{}", m.name);
            for w in m.workloads {
                assert!(WORKLOADS.iter().any(|(name, _)| name == w), "{w}");
            }
        }
        assert_eq!(listed.clone().count(), 6);
        assert!(listed
            .clone()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == LOWER));
        // Set-up carries the largest bound.
        assert!(listed.map(|m| m.bound).fold(0.0, f64::max) <= 0.25);
        for (_, why) in WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n') && !why.contains('"'));
        }
    }

    /// The committed BENCHMARK.json is the rendered registry: every name
    /// the driver emits is listed there and nothing else is.
    #[test]
    fn benchmark_json_is_the_rendered_registry() {
        let committed = include_str!("../../../../../BENCHMARK.json");
        let v = json::parse(committed).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = v.as_obj().unwrap().keys().map(String::as_str).collect();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        assert_eq!(committed, manifest(), "regenerate with `e2e manifest`");
        assert!(committed.len() <= 64 << 10);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut r = RunResult {
            attempted: 10,
            failed: 0,
            correct: true,
            ..Default::default()
        };
        assert!(
            result_line(false, &r).is_err(),
            "missing end-to-end metrics are refused"
        );
        for m in END_TO_END {
            r.metrics.set(m.name, 1.5);
        }
        r.metrics.set("server.rejected", 0.0);
        let r = r.finish();
        assert_eq!(r.metrics.get("failed_ratio"), Some(0.0));
        let line = result_line(false, &r).unwrap();
        let v = json::parse(&line).unwrap();
        let keys: Vec<&str> = v.as_obj().unwrap().keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        let names: Vec<&str> = v
            .get("metrics")
            .unwrap()
            .as_obj()
            .unwrap()
            .keys()
            .map(String::as_str)
            .collect();
        assert_eq!(
            names,
            [
                "index_bytes_per_triple",
                "open_rss_mb",
                "queries_per_s",
                "query_p50_us",
                "query_p99_us",
                "setup_s"
            ]
        );
        assert_eq!(
            v.path(&["metrics", "setup_s", "value"]).unwrap().as_f64(),
            Some(1.5)
        );
        // A traced line carries every per-layer metric, absent ones as 0,
        // and the end-to-end ones the other list cannot hold.
        let traced = json::parse(&result_line(true, &r).unwrap()).unwrap();
        let m = traced.get("metrics").unwrap().as_obj().unwrap();
        assert_eq!(m.len(), per_layer().len());
        let value = |name: &str| traced.path(&["metrics", name, "value"]).unwrap().as_f64();
        assert_eq!(value("ring.build_s"), Some(0.0));
        assert_eq!(value("commit_p95_us"), Some(1.5));
        assert_eq!(value("failed_ratio"), Some(0.0));
        // An end-to-end metric of 0 is as bad as a missing one.
        let mut r = r;
        r.metrics.set("setup_s", 0.0);
        assert!(result_line(false, &r).is_err());
    }
}
