//! Intra-query parallelism differential suite — the acceptance tests of
//! the shared-pool frontier fan-out.
//!
//! The contract under test: for any query, any route, and any limit /
//! budget combination, evaluation with `intra_query_threads ∈ {2, 4}`
//! produces **bit-for-bit identical output** to the sequential engine —
//! the same pair *stream* (order included, so truncation points match),
//! the same flags, the same trace. Parallel expansion is speculative
//! against a frozen mask snapshot and a sequential merge replays it in
//! frontier order, so this holds at any thread count and on any core
//! count (on a single-core host the pool grants zero helpers and the
//! chunked path still runs — through the caller thread).
//!
//! `RPQ_TEST_THREADS` (comma-separated) overrides the thread counts,
//! the knob CI's parallel differential job turns.

use automata::Regex;
use ring::ring::RingOptions;
use ring::store::TripleStore;
use ring::{Graph, Ring, Triple};
use rpq_core::{EngineOptions, EvalRoute, RpqEngine, RpqQuery, Term};
use workload::{GraphGen, GraphGenConfig, QueryGen};

/// Thread counts to differentiate against the sequential baseline.
fn test_threads() -> Vec<usize> {
    match std::env::var("RPQ_TEST_THREADS") {
        Ok(v) => v
            .split(',')
            .filter_map(|s| s.trim().parse::<usize>().ok())
            .filter(|&t| t > 1)
            .collect(),
        Err(_) => vec![2, 4],
    }
}

fn star(l: u64) -> Regex {
    Regex::Star(Box::new(Regex::label(l)))
}

/// A Wikidata-shaped graph big enough that closure frontiers clear the
/// (test-lowered) parallel threshold.
fn workload_graph(seed: u64) -> Graph {
    GraphGen::new(GraphGenConfig {
        n_nodes: 60,
        n_preds: 4,
        n_edges: 320,
        pred_zipf: 1.1,
        node_skew: 0.8,
        seed,
    })
    .generate()
}

/// A layered graph with wide BFS levels: `layers` ranks of `width`
/// nodes, every node wired to three nodes of the next rank with label
/// 0, plus a sprinkling of label-1 shortcuts. `(?x, 0*, ?y)` frontiers
/// here span hundreds of nodes — several chunks at any thread count.
fn wide_graph(width: u64, layers: u64) -> Graph {
    let node = |layer: u64, i: u64| layer * width + i;
    let mut triples = Vec::new();
    for layer in 0..layers - 1 {
        for i in 0..width {
            for k in 0..3u64 {
                triples.push(Triple::new(
                    node(layer, i),
                    0,
                    node(layer + 1, (i + k * 7) % width),
                ));
            }
            if i % 5 == 0 {
                triples.push(Triple::new(node(layer, i), 1, node(layer + 1, i)));
            }
        }
    }
    Graph::from_triples(triples)
}

/// The corpus: Table 1 pattern instantiations plus closure-heavy
/// hand-built shapes whose frontiers actually fan out.
fn corpus(graph: &Graph, seed: u64) -> Vec<RpqQuery> {
    let mut queries: Vec<RpqQuery> = QueryGen::new(graph, seed)
        .scaled_log(0.0)
        .into_iter()
        .map(|gq| gq.query)
        .collect();
    queries.push(RpqQuery::new(Term::Var, star(0), Term::Var));
    queries.push(RpqQuery::new(
        Term::Var,
        Regex::concat(Regex::concat(star(0), Regex::label(1)), star(2)),
        Term::Var,
    ));
    queries.push(RpqQuery::new(
        Term::Const(0),
        Regex::Plus(Box::new(Regex::alt(Regex::label(0), Regex::label(1)))),
        Term::Var,
    ));
    queries
}

/// Runs one `(query, options)` pair sequentially and at every test
/// thread count, asserting the full output is bit-identical: the raw
/// (unsorted) pair stream, every flag, and the trace.
fn assert_bit_identical(
    engine: &mut RpqEngine<'_>,
    query: &RpqQuery,
    base_opts: &EngineOptions,
    context: &str,
) {
    let seq = engine
        .evaluate(query, base_opts)
        .unwrap_or_else(|e| panic!("{context}: sequential run failed: {e}"));
    for threads in test_threads() {
        let opts = EngineOptions {
            intra_query_threads: threads,
            parallel_min_frontier: 2,
            ..*base_opts
        };
        let par = engine
            .evaluate(query, &opts)
            .unwrap_or_else(|e| panic!("{context}: {threads}-thread run failed: {e}"));
        assert_eq!(
            par.pairs, seq.pairs,
            "{context}: {threads}-thread pair stream diverges on {query:?}"
        );
        assert_eq!(
            (par.truncated, par.timed_out, par.budget_exhausted),
            (seq.truncated, seq.timed_out, seq.budget_exhausted),
            "{context}: {threads}-thread flags diverge on {query:?}"
        );
        assert_eq!(
            par.trace, seq.trace,
            "{context}: {threads}-thread trace diverges on {query:?}"
        );
    }
}

/// Every forced route, at every thread count, over the mixed corpus:
/// the parallel engine is byte-for-byte the sequential engine.
#[test]
fn forced_routes_are_bit_identical_at_every_thread_count() {
    let mut checked = 0usize;
    for (graph, seed) in [
        (workload_graph(0x9A11), 31),
        (workload_graph(0x7E57), 32),
        (wide_graph(40, 5), 33),
    ] {
        let ring = Ring::build(&graph, RingOptions::default());
        let mut engine = RpqEngine::new(&ring);
        for query in corpus(&graph, seed) {
            for forced in EvalRoute::ALL {
                let opts = EngineOptions {
                    forced_route: Some(forced),
                    collect_trace: true,
                    ..EngineOptions::default()
                };
                assert_bit_identical(&mut engine, &query, &opts, &format!("forced {forced:?}"));
            }
            checked += 1;
        }
    }
    assert!(checked >= 63, "corpus shrank: only {checked} queries");
}

/// Truncation determinism: with a limit far below the full answer set,
/// the parallel engine stops at the *same pair* — not just the same
/// count — because replay preserves the sequential emission order.
#[test]
fn truncation_point_is_identical_at_every_thread_count() {
    let graph = wide_graph(48, 5);
    let ring = Ring::build(&graph, RingOptions::default());
    let mut engine = RpqEngine::new(&ring);
    for limit in [1usize, 7, 100, 1000] {
        for forced in EvalRoute::ALL {
            let opts = EngineOptions {
                limit,
                forced_route: Some(forced),
                ..EngineOptions::default()
            };
            let query = RpqQuery::new(Term::Var, star(0), Term::Var);
            assert_bit_identical(
                &mut engine,
                &query,
                &opts,
                &format!("limit {limit}, forced {forced:?}"),
            );
        }
    }
}

/// Budget determinism: an exhausted node budget aborts at the same
/// discovery, leaving the same partial answer, at any thread count.
#[test]
fn budget_exhaustion_is_identical_at_every_thread_count() {
    let graph = wide_graph(48, 5);
    let ring = Ring::build(&graph, RingOptions::default());
    let mut engine = RpqEngine::new(&ring);
    for budget in [1u64, 5, 50, 100_000] {
        for forced in EvalRoute::ALL {
            let opts = EngineOptions {
                node_budget: Some(budget),
                forced_route: Some(forced),
                ..EngineOptions::default()
            };
            let query = RpqQuery::new(Term::Var, star(0), Term::Var);
            assert_bit_identical(
                &mut engine,
                &query,
                &opts,
                &format!("budget {budget}, forced {forced:?}"),
            );
        }
    }
}

/// The parallel path actually engages (it is easy to pass these tests
/// by never going parallel): on a wide-frontier graph the stats must
/// record fanned-out levels split into several chunks — and the answers
/// still match. Covers all three parallel sites: the generic traversal,
/// the §5 fast paths, and the delta-overlay merged traversal.
#[test]
fn wide_frontiers_fan_out_and_counters_record_it() {
    let graph = wide_graph(64, 6);
    let ring = Ring::build(&graph, RingOptions::default());
    let mut engine = RpqEngine::new(&ring);

    // Generic traversal (closure shape, fast paths off the table).
    let query = RpqQuery::new(Term::Var, star(0), Term::Var);
    let opts = EngineOptions {
        intra_query_threads: 4,
        parallel_min_frontier: 2,
        forced_route: Some(EvalRoute::BitParallel),
        ..EngineOptions::default()
    };
    let out = engine.evaluate(&query, &opts).unwrap();
    assert!(
        out.stats.parallel_levels > 0,
        "wide closure never engaged the parallel path: {:?}",
        out.stats
    );
    assert!(
        out.stats.parallel_chunks > out.stats.parallel_levels,
        "levels were never split into multiple chunks: {:?}",
        out.stats
    );
    let seq = engine
        .evaluate(
            &query,
            &EngineOptions {
                forced_route: Some(EvalRoute::BitParallel),
                ..EngineOptions::default()
            },
        )
        .unwrap();
    assert_eq!(out.pairs, seq.pairs);
    assert_eq!(
        seq.stats.parallel_levels, 0,
        "sequential runs must not fan out"
    );

    // §5 fast path (single-label shape batched over all subjects).
    let single = RpqQuery::new(Term::Var, Regex::label(0), Term::Var);
    let opts_fast = EngineOptions {
        intra_query_threads: 4,
        parallel_min_frontier: 2,
        forced_route: Some(EvalRoute::FastPath),
        ..EngineOptions::default()
    };
    let out = engine.evaluate(&single, &opts_fast).unwrap();
    assert_eq!(out.plan.as_ref().unwrap().route, EvalRoute::FastPath);
    assert!(
        out.stats.parallel_levels > 0,
        "fast path never engaged the parallel batches: {:?}",
        out.stats
    );
    let seq = engine
        .evaluate(
            &single,
            &EngineOptions {
                forced_route: Some(EvalRoute::FastPath),
                ..EngineOptions::default()
            },
        )
        .unwrap();
    assert_eq!(out.pairs, seq.pairs);

    // Delta-overlay merged traversal: same graph with live edits on top.
    let store = TripleStore::new(graph).with_auto_compact_ratio(None);
    store.insert(Triple::new(1, 0, 0));
    store.delete(Triple::new(0, 0, 64));
    store.commit();
    let snap = store.snapshot();
    let mut merged = RpqEngine::over(&*snap);
    let out = merged.evaluate(&query, &opts).unwrap();
    assert!(
        out.stats.parallel_levels > 0,
        "merged traversal never engaged the parallel path: {:?}",
        out.stats
    );
    let seq = merged
        .evaluate(
            &query,
            &EngineOptions {
                forced_route: Some(EvalRoute::BitParallel),
                ..EngineOptions::default()
            },
        )
        .unwrap();
    assert_eq!(out.pairs, seq.pairs);
}

/// Live-update overlays at every thread count: the merged traversal
/// (ring + delta) replays speculative chunks in the same order as its
/// sequential twin, edits and tombstones included.
#[test]
fn merged_overlay_is_bit_identical_at_every_thread_count() {
    let graph = wide_graph(40, 4);
    let store = TripleStore::new(graph).with_auto_compact_ratio(None);
    // A batch of live edits: new nodes beyond the ring universe, some
    // tombstones, a shortcut edge.
    for i in 0..20u64 {
        store.insert(Triple::new(160 + i, 0, i));
        store.insert(Triple::new(i, 1, 160 + ((i * 3) % 20)));
    }
    store.delete(Triple::new(0, 0, 40));
    store.delete(Triple::new(5, 0, 45));
    store.commit();
    let snap = store.snapshot();
    let mut engine = RpqEngine::over(&*snap);
    for query in [
        RpqQuery::new(Term::Var, star(0), Term::Var),
        RpqQuery::new(Term::Var, Regex::label(0), Term::Var),
        RpqQuery::new(
            Term::Var,
            Regex::concat(Regex::label(0), Regex::label(1)),
            Term::Var,
        ),
        RpqQuery::new(
            Term::Const(160),
            Regex::Plus(Box::new(Regex::label(0))),
            Term::Var,
        ),
    ] {
        for forced in EvalRoute::ALL {
            let opts = EngineOptions {
                forced_route: Some(forced),
                collect_trace: true,
                ..EngineOptions::default()
            };
            assert_bit_identical(
                &mut engine,
                &query,
                &opts,
                &format!("merged, forced {forced:?}"),
            );
        }
    }
}
