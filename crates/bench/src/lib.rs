//! Shared harness for regenerating the paper's tables and figures.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the
//! paper's §5 (each names it in its header); this library holds the
//! common pieces: the benchmark
//! configuration (env-var overridable), engine construction, log
//! execution, and the summary statistics the paper reports.

use baselines::{
    AdjacencyIndex, BitParallelAdjEngine, NfaBfsEngine, PathEngine, RingEngine, SemiNaiveEngine,
};
use ring::ring::RingOptions;
use ring::{Graph, Ring};
use rpq_core::EngineOptions;
use std::sync::Arc;
use std::time::{Duration, Instant};
use workload::{GeneratedQuery, GraphGen, GraphGenConfig, QueryGen};

/// Benchmark configuration. Every field can be overridden with an
/// `RPQ_BENCH_*` environment variable (e.g. `RPQ_BENCH_EDGES=4000000`).
#[derive(Clone, Copy, Debug)]
pub struct BenchConfig {
    /// Node universe of the synthetic graph.
    pub n_nodes: u64,
    /// Base predicate alphabet.
    pub n_preds: u64,
    /// Edge samples.
    pub n_edges: usize,
    /// Graph and log seed.
    pub seed: u64,
    /// Fraction of the Table 1 per-pattern counts to instantiate.
    pub log_scale: f64,
    /// Per-query timeout (the paper uses 60 s at Wikidata scale).
    pub timeout: Duration,
    /// Result limit (the paper uses 10^6).
    pub limit: usize,
}

impl Default for BenchConfig {
    fn default() -> Self {
        Self {
            n_nodes: 1 << 17,
            n_preds: 128,
            n_edges: 1 << 20,
            seed: 42,
            log_scale: 0.1,
            timeout: Duration::from_secs(2),
            limit: 100_000,
        }
    }
}

impl BenchConfig {
    /// Reads overrides from the environment.
    pub fn from_env() -> Self {
        let mut c = Self::default();
        let get = |k: &str| std::env::var(k).ok();
        if let Some(v) = get("RPQ_BENCH_NODES").and_then(|v| v.parse().ok()) {
            c.n_nodes = v;
        }
        if let Some(v) = get("RPQ_BENCH_PREDS").and_then(|v| v.parse().ok()) {
            c.n_preds = v;
        }
        if let Some(v) = get("RPQ_BENCH_EDGES").and_then(|v| v.parse().ok()) {
            c.n_edges = v;
        }
        if let Some(v) = get("RPQ_BENCH_SEED").and_then(|v| v.parse().ok()) {
            c.seed = v;
        }
        if let Some(v) = get("RPQ_BENCH_LOG_SCALE").and_then(|v| v.parse().ok()) {
            c.log_scale = v;
        }
        if let Some(v) = get("RPQ_BENCH_TIMEOUT_MS").and_then(|v| v.parse::<u64>().ok()) {
            c.timeout = Duration::from_millis(v);
        }
        if let Some(v) = get("RPQ_BENCH_LIMIT").and_then(|v| v.parse().ok()) {
            c.limit = v;
        }
        c
    }

    /// The synthetic graph for this configuration.
    pub fn graph(&self) -> Graph {
        GraphGen::new(GraphGenConfig {
            n_nodes: self.n_nodes,
            n_preds: self.n_preds,
            n_edges: self.n_edges,
            seed: self.seed,
            ..Default::default()
        })
        .generate()
    }

    /// The Table 1 query log for `graph`.
    pub fn log(&self, graph: &Graph) -> Vec<GeneratedQuery> {
        QueryGen::new(graph, self.seed ^ 0x5eed).scaled_log(self.log_scale)
    }

    /// Engine options used for every measured query.
    pub fn engine_options(&self) -> EngineOptions {
        EngineOptions {
            limit: self.limit,
            timeout: Some(self.timeout),
            ..EngineOptions::default()
        }
    }
}

/// One measured query execution.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// Engine name.
    pub engine: &'static str,
    /// Table 1 pattern.
    pub pattern: &'static str,
    /// Wall-clock seconds.
    pub seconds: f64,
    /// Result pairs returned.
    pub n_results: usize,
    /// Whether the timeout was hit.
    pub timed_out: bool,
    /// Whether the query has exactly one constant endpoint.
    pub c_to_v: bool,
}

/// The four systems of Table 2, in paper order: the ring first, then the
/// stand-ins for Jena / Virtuoso / Blazegraph.
pub struct EngineSet<'r> {
    /// `(engine, index bytes)` pairs.
    pub engines: Vec<(Box<dyn PathEngine + 'r>, usize)>,
}

impl<'r> EngineSet<'r> {
    /// Builds all four engines over prebuilt indexes.
    pub fn new(ring: &'r Ring, adj: &Arc<AdjacencyIndex>) -> Self {
        let engines: Vec<(Box<dyn PathEngine + 'r>, usize)> = vec![
            {
                let e = RingEngine::new(ring);
                let b = e.index_bytes();
                (Box::new(e) as Box<dyn PathEngine>, b)
            },
            {
                let e = NfaBfsEngine::new(Arc::clone(adj));
                let b = e.index_bytes();
                (Box::new(e) as Box<dyn PathEngine>, b)
            },
            {
                let e = SemiNaiveEngine::new(Arc::clone(adj));
                let b = e.index_bytes();
                (Box::new(e) as Box<dyn PathEngine>, b)
            },
            {
                let e = BitParallelAdjEngine::new(Arc::clone(adj));
                let b = e.index_bytes();
                (Box::new(e) as Box<dyn PathEngine>, b)
            },
        ];
        Self { engines }
    }
}

/// Builds the ring index (with inverses, succinct node boundaries).
pub fn build_ring(graph: &Graph) -> Ring {
    Ring::build(graph, RingOptions::default())
}

/// Runs the whole log through every engine, measuring wall-clock time.
pub fn run_log(
    engines: &mut EngineSet,
    log: &[GeneratedQuery],
    opts: &EngineOptions,
) -> Vec<Measurement> {
    let mut out = Vec::new();
    for (engine, _) in engines.engines.iter_mut() {
        for gq in log {
            let start = Instant::now();
            let result = engine.run(&gq.query, opts);
            let seconds = start.elapsed().as_secs_f64();
            let (n_results, timed_out) = match result {
                Ok(r) => (r.pairs.len(), r.timed_out),
                Err(_) => (0, false),
            };
            out.push(Measurement {
                engine: engine.name(),
                pattern: gq.pattern,
                seconds,
                n_results,
                timed_out,
                c_to_v: workload::patterns::is_c_to_v(gq.pattern),
            });
        }
    }
    out
}

/// Mean of a sample (0 for empty).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

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

/// Five-number summary `(min, q1, median, q3, max)` — one Fig. 8 box.
pub fn five_number(xs: &[f64]) -> (f64, f64, f64, f64, f64) {
    let mut s = xs.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).unwrap());
    (
        quantile(&s, 0.0),
        quantile(&s, 0.25),
        quantile(&s, 0.5),
        quantile(&s, 0.75),
        quantile(&s, 1.0),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_helpers() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(mean(&xs), 2.5);
        assert_eq!(median(&xs), 2.5);
        let (mn, q1, md, q3, mx) = five_number(&xs);
        assert_eq!((mn, mx), (1.0, 4.0));
        assert!(q1 <= md && md <= q3);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(median(&[1.0]), 1.0);
    }

    #[test]
    fn tiny_end_to_end() {
        let cfg = BenchConfig {
            n_nodes: 200,
            n_preds: 8,
            n_edges: 1500,
            log_scale: 0.005,
            timeout: Duration::from_millis(500),
            limit: 10_000,
            seed: 1,
        };
        let graph = cfg.graph();
        let ring = build_ring(&graph);
        let adj = Arc::new(AdjacencyIndex::from_graph(&graph));
        let mut engines = EngineSet::new(&ring, &adj);
        let log = cfg.log(&graph);
        assert!(log.len() >= 20); // at least one query per pattern
        let ms = run_log(&mut engines, &log, &cfg.engine_options());
        assert_eq!(ms.len(), 4 * log.len());
        // All four engines agree on result counts per query.
        for (i, gq) in log.iter().enumerate() {
            let counts: Vec<usize> = (0..4).map(|e| ms[e * log.len() + i].n_results).collect();
            assert!(
                counts.windows(2).all(|w| w[0] == w[1]),
                "engines disagree on {:?}: {counts:?}",
                gq.pattern
            );
        }
    }
}
