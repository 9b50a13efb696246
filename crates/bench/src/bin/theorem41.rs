//! E5 — Theorem 4.1, measured: the ring engine's cost is
//! `O(2^m + m log|P| + |G'_E| log|G|)`. We run the log with
//! instrumentation on, then regress wall-clock time against the theorem's
//! cost term `(product nodes + product edges) · log|G|` and report the
//! fit, plus the wavelet-node count (the constant the log factor hides).

use rpq_bench::{build_ring, BenchConfig};
use rpq_core::{EngineOptions, EvalRoute, RpqEngine};
use std::time::Instant;

fn main() {
    let cfg = BenchConfig::from_env();
    eprintln!("config: {cfg:?}");
    let graph = cfg.graph();
    let ring = build_ring(&graph);
    let log = cfg.log(&graph);
    let mut engine = RpqEngine::new(&ring);
    // The traversal forced: the theorem is about it, not the §5 joins.
    let opts = EngineOptions {
        forced_route: Some(EvalRoute::BitParallel),
        limit: cfg.limit,
        timeout: Some(cfg.timeout),
        ..EngineOptions::default()
    };

    let log2_g = (ring.n_triples().max(2) as f64).log2();
    let mut rows: Vec<(f64, f64, f64)> = Vec::new(); // (cost term, wavelet nodes, seconds)
    for gq in &log {
        let start = Instant::now();
        let Ok(out) = engine.evaluate(&gq.query, &opts) else {
            continue;
        };
        let secs = start.elapsed().as_secs_f64();
        if out.timed_out {
            continue;
        }
        let work = (out.stats.product_nodes + out.stats.product_edges) as f64;
        rows.push((work * log2_g, out.stats.wavelet_nodes as f64, secs));
    }

    println!(
        "Theorem 4.1 validation over {} completed queries",
        rows.len()
    );
    println!("cost term x = (product_nodes + product_edges) * log2(|G|)\n");

    // Bucket by decade of the cost term: time per unit cost must stay flat
    // if the bound is tight (up to constants).
    println!(
        "{:>14} {:>8} {:>14} {:>16} {:>18}",
        "cost bucket", "queries", "avg time (s)", "ns per unit", "wavelet/unit"
    );
    let mut bucket_lo = 1.0;
    while bucket_lo < 1e12 {
        let bucket_hi = bucket_lo * 100.0;
        let in_bucket: Vec<&(f64, f64, f64)> = rows
            .iter()
            .filter(|r| r.0 >= bucket_lo && r.0 < bucket_hi)
            .collect();
        if !in_bucket.is_empty() {
            let avg_t: f64 = in_bucket.iter().map(|r| r.2).sum::<f64>() / in_bucket.len() as f64;
            let per_unit: f64 = in_bucket
                .iter()
                .map(|r| r.2 / r.0.max(1.0) * 1e9)
                .sum::<f64>()
                / in_bucket.len() as f64;
            let wave_per_unit: f64 = in_bucket
                .iter()
                .map(|r| r.1 / r.0.max(1.0) * log2_g)
                .sum::<f64>()
                / in_bucket.len() as f64;
            println!(
                "{:>7.0e}-{:<6.0e} {:>8} {:>14.6} {:>16.2} {:>18.3}",
                bucket_lo,
                bucket_hi,
                in_bucket.len(),
                avg_t,
                per_unit,
                wave_per_unit
            );
        }
        bucket_lo = bucket_hi;
    }

    // Least-squares slope through the origin and correlation.
    let sx2: f64 = rows.iter().map(|r| r.0 * r.0).sum();
    let sxy: f64 = rows.iter().map(|r| r.0 * r.2).sum();
    let slope = sxy / sx2.max(1.0);
    let mean_x = rows.iter().map(|r| r.0).sum::<f64>() / rows.len().max(1) as f64;
    let mean_y = rows.iter().map(|r| r.2).sum::<f64>() / rows.len().max(1) as f64;
    let cov: f64 = rows.iter().map(|r| (r.0 - mean_x) * (r.2 - mean_y)).sum();
    let vx: f64 = rows.iter().map(|r| (r.0 - mean_x).powi(2)).sum();
    let vy: f64 = rows.iter().map(|r| (r.2 - mean_y).powi(2)).sum();
    let r = cov / (vx.sqrt() * vy.sqrt()).max(f64::MIN_POSITIVE);
    println!(
        "\nzero-intercept slope: {:.3} ns per cost unit",
        slope * 1e9
    );
    println!("Pearson r(time, cost term) = {r:.3} (the bound predicts a strong linear fit)");
}
