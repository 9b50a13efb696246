//! The benchmark harness: the e2e scoreboard plus two perf gates.
//!
//! `src/bin/e2e/` is the scoreboard (its README has the contract); this
//! package auto-discovers it as bin `e2e`. Each paper artifact is one of
//! its committed rows or a test:
//!
//! - **Table 1** (the 20-pattern log mix): `workload`'s `querygen.rs`
//!   tests — the full log is 1 661 queries in the paper's counts, and
//!   every query classifies back to its pattern.
//! - **Table 2** (space and time against the baselines):
//!   `index_bytes_per_triple`, `baselines.adjacency.bytes_per_triple` and
//!   `baselines.ring_over_best_mean`.
//! - **Table 2's working space**: `crates/core/tests/scratch_reuse.rs`
//!   pins what `RpqEngine::working_space_bytes` reports; its scoreboard
//!   row is still owed (ROADMAP 1(c)).
//! - **Fig. 8** (per-pattern time, ring against the baselines):
//!   `core.pattern.*.p50_us` and `baselines.*.mean_us`.
//! - **Theorem 4.1** (no `|V|` term in the traversal's cost):
//!   `crates/core/tests/theorem41.rs`.
//! - Construction: `ring.build_s`, `facade.from_parts_s` and
//!   `ingest_bench`'s phase columns.
//!
//! Two bins stay beside it (ROADMAP 1(d)), because no scoreboard row
//! measures what they gate in CI against a committed baseline under
//! `baselines/`: `succinct_bench` (rank, select and wavelet primitives
//! across bit densities and frontier widths, where the scoreboard has one
//! `succinct.*` point each) and `ingest_bench` (the chunk-parallel ingest
//! phase by phase, and cold opens measured in child processes). This
//! library is the sample statistics `succinct_bench` uses.

/// Quantile by linear interpolation on the sorted sample.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
    }
}

/// Median convenience.
pub fn median(xs: &[f64]) -> f64 {
    let mut s = xs.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).unwrap());
    quantile(&s, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_helpers() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[1.0]), 1.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.25), 2.0);
        assert_eq!(quantile(&[1.0, 3.0], 0.75), 2.5);
    }
}
