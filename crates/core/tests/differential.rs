//! Cross-engine differential harness — the correctness backbone every
//! later performance PR regresses against.
//!
//! Every query engine in the workspace must produce the *same answer
//! set* on the same `(graph, query)` pair:
//!
//! * [`RpqEngine`] — the paper's ring traversal, planned freely and
//!   forced onto the bit-parallel traversal (so §5 shapes run both ways);
//! * `rpq_core::oracle::evaluate_naive` — the naive product-graph BFS,
//!   used as ground truth;
//! * the `baselines` engines over a shared [`AdjacencyIndex`]:
//!   [`NfaBfsEngine`] (Jena-like), [`SemiNaiveEngine`] (Virtuoso-like),
//!   [`BitParallelAdjEngine`] (Blazegraph-like), and [`RingEngine`]
//!   (the `PathEngine` adapter over the ring).
//!
//! Graphs come from `workload::graphgen` (Wikidata-shaped Zipf
//! predicates, skewed degrees) and queries from `workload::querygen`
//! (the paper's Table 1 pattern mix, including inverse steps), so the
//! harness exercises exactly the distribution the benchmarks run.

use baselines::{
    AdjacencyIndex, BitParallelAdjEngine, NfaBfsEngine, PathEngine, RingEngine, SemiNaiveEngine,
};
use ring::ring::RingOptions;
use ring::{Graph, Ring};
use rpq_core::oracle::evaluate_naive;
use rpq_core::{EngineOptions, EvalRoute, RpqEngine, RpqQuery};
use std::sync::Arc;
use workload::{GraphGen, GraphGenConfig, QueryGen};

/// Intra-query thread counts the ring-engine matrix runs under.
/// Parallel expansion must be answer-invisible, so every count joins
/// the same oracle comparison. `RPQ_TEST_THREADS` (comma-separated)
/// overrides — the knob CI's parallel differential job turns.
fn test_threads() -> Vec<usize> {
    match std::env::var("RPQ_TEST_THREADS") {
        Ok(v) => v
            .split(',')
            .filter_map(|s| s.trim().parse::<usize>().ok())
            .filter(|&t| t > 0)
            .collect(),
        Err(_) => vec![1, 4],
    }
}

/// Runs every engine on one `(graph, query)` pair and asserts that all
/// of them reproduce the oracle's answer set exactly.
fn assert_all_engines_agree(
    graph: &Graph,
    ring: &Ring,
    idx: &Arc<AdjacencyIndex>,
    query: &RpqQuery,
    context: &str,
) {
    let expected = evaluate_naive(graph, query);

    // The ring engine, across its option matrix (including intra-query
    // parallelism, which must be invisible in the answers).
    let mut engine = RpqEngine::new(ring);
    for forced_route in [None, Some(EvalRoute::BitParallel)] {
        for threads in test_threads() {
            let opts = EngineOptions {
                forced_route,
                intra_query_threads: threads,
                parallel_min_frontier: if threads > 1 { 2 } else { 2048 },
                ..Default::default()
            };
            let out = engine
                .evaluate(query, &opts)
                .unwrap_or_else(|e| panic!("{context}: ring engine failed: {e}"));
            assert!(
                !out.truncated && !out.timed_out,
                "{context}: ring engine hit limits unexpectedly"
            );
            assert_eq!(
                out.sorted_pairs(),
                expected,
                "{context}: ring engine (forced_route={forced_route:?}, \
                 threads={threads}) disagrees with oracle on {query:?}"
            );
        }
    }

    // The baseline engines, through the uniform PathEngine interface.
    let mut ring_adapter = RingEngine::new(ring);
    let mut nfa_bfs = NfaBfsEngine::new(Arc::clone(idx));
    let mut seminaive = SemiNaiveEngine::new(Arc::clone(idx));
    let mut bitparallel = BitParallelAdjEngine::new(Arc::clone(idx));
    let mut engines: Vec<&mut dyn PathEngine> = vec![
        &mut ring_adapter,
        &mut nfa_bfs,
        &mut seminaive,
        &mut bitparallel,
    ];
    let opts = EngineOptions::default();
    for engine in &mut engines {
        let out = engine
            .run(query, &opts)
            .unwrap_or_else(|e| panic!("{context}: {} failed: {e}", engine.name()));
        assert!(
            !out.truncated && !out.timed_out,
            "{context}: {} hit limits unexpectedly",
            engine.name()
        );
        assert_eq!(
            out.sorted_pairs(),
            expected,
            "{context}: {} disagrees with oracle on {query:?}",
            engine.name()
        );
    }
}

/// Builds the shared indices for one graph and drives a query log
/// through every engine. Returns the number of `(graph, query)` pairs
/// checked.
fn run_differential(graph: &Graph, queries: &[RpqQuery], label: &str) -> usize {
    let ring = Ring::build(graph, RingOptions::default());
    let idx = Arc::new(AdjacencyIndex::from_graph(graph));
    for (i, query) in queries.iter().enumerate() {
        let context = format!("{label}, query #{i}");
        assert_all_engines_agree(graph, &ring, &idx, query, &context);
    }
    queries.len()
}

/// The main harness: Wikidata-shaped graphs of several sizes and
/// skews, each queried with the full Table 1 pattern mix (one
/// instantiation per pattern, 20 patterns). Four graphs × 20 queries =
/// 80 differential pairs, comfortably above the 50-pair floor.
#[test]
fn all_engines_agree_on_generated_workloads() {
    let configs = [
        // (n_nodes, n_preds, n_edges, pred_zipf, node_skew, seed)
        (12u64, 3u64, 40usize, 1.0, 0.8, 0xA1),
        (24, 4, 110, 1.2, 1.0, 0xB2),
        (32, 6, 160, 1.5, 0.6, 0xC3),
        (20, 5, 90, 0.8, 1.4, 0xD4),
    ];
    let mut pairs = 0usize;
    for (n_nodes, n_preds, n_edges, pred_zipf, node_skew, seed) in configs {
        let graph = GraphGen::new(GraphGenConfig {
            n_nodes,
            n_preds,
            n_edges,
            pred_zipf,
            node_skew,
            seed,
        })
        .generate();
        let queries: Vec<RpqQuery> = QueryGen::new(&graph, seed ^ 0x5EED)
            .scaled_log(0.0) // one instantiation of each Table 1 pattern
            .into_iter()
            .map(|gq| gq.query)
            .collect();
        assert_eq!(queries.len(), 20, "Table 1 has 20 patterns");
        let label = format!("graph(seed={seed:#x}, n={n_nodes}, e={n_edges})");
        pairs += run_differential(&graph, &queries, &label);
    }
    assert!(
        pairs >= 50,
        "only {pairs} differential pairs were exercised"
    );
}

/// Degenerate graphs stress boundary handling: a single edge, a single
/// self-loop, one node with parallel edges of every predicate, and a
/// dense tiny clique.
#[test]
fn all_engines_agree_on_degenerate_graphs() {
    use ring::Triple;
    let graphs = vec![
        ("single-edge", Graph::new(vec![Triple::new(0, 0, 1)], 2, 1)),
        ("self-loop", Graph::new(vec![Triple::new(0, 0, 0)], 1, 1)),
        (
            "parallel-preds",
            Graph::new((0..4).map(|p| Triple::new(0, p, 1)).collect(), 2, 4),
        ),
        (
            "tiny-clique",
            Graph::new(
                {
                    let mut ts: Vec<Triple> = Vec::new();
                    for s in 0..3 {
                        for o in 0..3 {
                            ts.push(Triple::new(s, 0, o));
                            ts.push(Triple::new(s, 1, o));
                        }
                    }
                    ts.sort_unstable();
                    ts.dedup();
                    ts
                },
                3,
                2,
            ),
        ),
    ];
    for (name, graph) in &graphs {
        let queries: Vec<RpqQuery> = QueryGen::new(graph, 7)
            .scaled_log(0.0)
            .into_iter()
            .map(|gq| gq.query)
            .collect();
        run_differential(graph, &queries, name);
    }
}

/// Concurrent reads: N threads hammer one shared [`Ring`] with the full
/// mixed query-shape log, each with its own engine (the ring itself is
/// immutable and `Sync`; the per-query mask tables are thread-local).
/// Every thread must reproduce the sequential oracle exactly — the
/// correctness contract the `rpq-server` worker pool relies on.
#[test]
fn concurrent_readers_match_sequential_oracle() {
    const THREADS: usize = 8;
    let graph = GraphGen::new(GraphGenConfig {
        n_nodes: 40,
        n_preds: 5,
        n_edges: 200,
        pred_zipf: 1.1,
        node_skew: 0.9,
        seed: 0xC0C0,
    })
    .generate();
    let ring = Ring::build(&graph, RingOptions::default());
    // Three instantiations of each Table 1 pattern: 60 mixed queries.
    let queries: Vec<RpqQuery> = [7u64, 8, 9]
        .into_iter()
        .flat_map(|seed| {
            QueryGen::new(&graph, seed)
                .scaled_log(0.0)
                .into_iter()
                .map(|gq| gq.query)
        })
        .collect();
    assert_eq!(queries.len(), 60);

    let expected: Vec<Vec<(u64, u64)>> =
        queries.iter().map(|q| evaluate_naive(&graph, q)).collect();

    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let (ring, queries, expected) = (&ring, &queries, &expected);
            scope.spawn(move || {
                let mut engine = RpqEngine::new(ring);
                // Each thread stresses a different option combination.
                let opts = EngineOptions {
                    forced_route: (t % 2 == 1).then_some(EvalRoute::BitParallel),
                    ..Default::default()
                };
                // Offset the starting point so threads touch the ring in
                // different orders at any instant.
                for i in 0..queries.len() {
                    let i = (i + t * 7) % queries.len();
                    let out = engine
                        .evaluate(&queries[i], &opts)
                        .unwrap_or_else(|e| panic!("thread {t}, query #{i}: {e}"));
                    assert_eq!(
                        out.sorted_pairs(),
                        expected[i],
                        "thread {t} disagrees with the sequential oracle on query #{i}"
                    );
                }
            });
        }
    });
}

/// The paper's own metro graph under the Table 1 mix, several seeds
/// deep — the worked example the figures trace must stay differential-
/// clean as the engine evolves.
#[test]
fn all_engines_agree_on_metro_graph() {
    let graph = workload::metro::metro();
    for seed in [1u64, 2, 3] {
        let queries: Vec<RpqQuery> = QueryGen::new(&graph, seed)
            .scaled_log(0.0)
            .into_iter()
            .map(|gq| gq.query)
            .collect();
        run_differential(&graph, &queries, &format!("metro(seed={seed})"));
    }
}
