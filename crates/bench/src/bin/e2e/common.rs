//! Pieces every workload shares: the run context, answer signatures,
//! and the latency summary behind the end-to-end metrics.

use crate::inputs::{Inputs, RenderedQuery, Scale};
use crate::metrics::Measured;
use crate::stats::{quantile_sorted, sort, tail_at_most};
use ring::Id;
use std::collections::HashMap;

/// What one invocation asked for.
#[derive(Clone, Copy, Debug)]
pub struct Ctx<'a> {
    pub scale: &'a Scale,
    /// What the data set is made from (see `inputs::DEFAULT_SEED`).
    pub data_seed: u64,
    /// What the run draws from: replay orders, request draws, probes.
    pub seed: u64,
    /// How long the measured phase runs (whole passes or cycles: the
    /// phase ends at the first boundary after this many seconds).
    pub seconds: f64,
    pub trace: bool,
    /// Whether child processes may be started (not from unit tests,
    /// where the running binary is the test harness).
    pub children: bool,
}

/// Seed, sizes and input digests: what every result is stamped with.
pub fn run_notes(
    ctx: &Ctx,
    inputs: &Inputs,
    base_triples: usize,
    index_bytes: u64,
    result_limit: usize,
) -> Vec<(String, String)> {
    [
        ("seed", ctx.seed.to_string()),
        ("data_seed", ctx.data_seed.to_string()),
        ("scale", ctx.scale.name.to_string()),
        ("base_triples", base_triples.to_string()),
        ("queries", inputs.queries.len().to_string()),
        ("result_limit", result_limit.to_string()),
        ("index_bytes", index_bytes.to_string()),
        ("dump_crc32c", format!("{:#010x}", inputs.dump_digest())),
        ("queries_crc32c", format!("{:#010x}", inputs.query_digest())),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect()
}

/// What is compared of an answer: CRC32C over the sorted pairs, or — for
/// an answer cut at the result limit, whose choice of pairs is the
/// engine's own — only how many pairs came back.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AnswerSig {
    pub digest: u32,
    pub len: usize,
    pub truncated: bool,
}

impl AnswerSig {
    pub fn of(pairs: &[(Id, Id)], truncated: bool) -> Self {
        let mut sorted = pairs.to_vec();
        sorted.sort_unstable();
        Self::of_sorted(&sorted, truncated)
    }

    /// [`Self::of`] for pairs already in ascending order (server answers).
    pub fn of_sorted(sorted: &[(Id, Id)], truncated: bool) -> Self {
        let mut crc = succinct::Crc32c::new();
        for (s, o) in sorted {
            crc.update(&s.to_le_bytes());
            crc.update(&o.to_le_bytes());
        }
        Self {
            digest: crc.finalize(),
            len: sorted.len(),
            truncated,
        }
    }

    pub fn agrees(&self, other: &AnswerSig) -> bool {
        if self.truncated || other.truncated {
            self.len == other.len
        } else {
            self.digest == other.digest
        }
    }
}

/// Index of the first occurrence of each distinct query.
pub fn distinct(queries: &[RenderedQuery]) -> Vec<usize> {
    let mut seen: HashMap<(&str, &str, &str), usize> = HashMap::new();
    let mut first = Vec::new();
    for (i, q) in queries.iter().enumerate() {
        seen.entry((&q.subject, &q.expr, &q.object))
            .or_insert_with(|| {
                first.push(i);
                i
            });
    }
    first
}

/// Sets `query_p50_us`, `query_p99_us` and `queries_per_s` from the
/// latencies (µs) of the run's operations, each the fastest of its
/// repetitions. `least_measured` is the fewest latencies a run can have
/// measured — the operations times the repetitions every run makes: the
/// tail percentile is the highest one *that* supports, so it is the same
/// in every run however many repetitions the clock allowed. `busy_us` is
/// what throughput is taken over: the time the operations keep one caller
/// busy.
pub fn set_latency_metrics(m: &mut Measured, lat_us: &[f64], least_measured: usize, busy_us: f64) {
    let mut s = lat_us.to_vec();
    sort(&mut s);
    m.set("query_p50_us", quantile_sorted(&s, 0.5));
    m.set(
        "query_p99_us",
        quantile_sorted(&s, tail_at_most(least_measured, 0.99)),
    );
    m.set("queries_per_s", s.len() as f64 / (busy_us / 1e6));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn signatures_compare_sets_not_orders() {
        let a = AnswerSig::of(&[(1, 2), (0, 5)], false);
        let b = AnswerSig::of(&[(0, 5), (1, 2)], false);
        let c = AnswerSig::of(&[(0, 5), (1, 3)], false);
        assert!(a.agrees(&b) && !a.agrees(&c));
        // A truncated answer is an arbitrary subset: only its size counts.
        let cut = AnswerSig::of(&[(9, 9), (8, 8)], true);
        assert!(cut.agrees(&a));
        assert!(!cut.agrees(&AnswerSig::of(&[(9, 9)], false)));
    }

    #[test]
    fn the_tail_percentile_is_fixed_by_the_fewest_latencies_a_run_measures() {
        let mut m = Measured::default();
        let lat: Vec<f64> = (1..=3000).map(f64::from).collect();
        // 1000 measured latencies support p99 ...
        set_latency_metrics(&mut m, &lat, 1000, 6e6);
        assert_eq!(m.get("query_p50_us"), Some(1500.5));
        assert!((m.get("query_p99_us").unwrap() - 2970.01).abs() < 1e-6);
        assert_eq!(m.get("queries_per_s"), Some(500.0));
        // ... 415 only p95, however many this run measured.
        set_latency_metrics(&mut m, &lat, 415, 6e6);
        assert!((m.get("query_p99_us").unwrap() - 2850.05).abs() < 1e-6);
    }

    #[test]
    fn distinct_keeps_first_occurrences() {
        let q = |s: &str| RenderedQuery {
            subject: s.into(),
            expr: "<p0>".into(),
            object: "?y".into(),
            pattern: 0,
        };
        assert_eq!(distinct(&[q("a"), q("b"), q("a"), q("c")]), vec![0, 1, 3]);
    }
}
