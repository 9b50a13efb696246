//! Sharded differential suite: a [`ShardedSource`] scatter-gathering a
//! predicate-partitioned [`ShardedIndex`] must be **bit-identical** to
//! the unsharded ring — same sorted answers (equal to the naive oracle),
//! same raw pair stream, same traces, truncation points and product-graph
//! counters, same plans — under every forced route, every shard count,
//! every intra-query thread count, and both residency modes of the
//! on-disk `RRPQSH01` directory.
//!
//! `RPQ_TEST_THREADS` (comma-separated) overrides the thread counts,
//! matching the other differential suites.

use std::sync::Arc;

use automata::Regex;
use ring::mapped::{write_index, OpenMode};
use ring::ring::RingOptions;
use ring::sharded::{open_dir, shard_file_name, ShardedIndex};
use ring::{Dict, Graph, Ring, Triple};
use rpq_core::oracle::evaluate_naive;
use rpq_core::{EngineOptions, EvalRoute, RpqEngine, RpqQuery, ShardedSource, Term};
use workload::{GraphGen, GraphGenConfig, QueryGen};

const SHARD_COUNTS: [usize; 3] = [1, 2, 4];

/// Intra-query thread counts the sharded engines run under; the
/// unsharded side of every comparison runs at one thread.
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

/// `opts` at `threads` intra-query threads, fanning out from the
/// smallest frontier when there is more than one.
fn at_threads(opts: EngineOptions, threads: usize) -> EngineOptions {
    EngineOptions {
        intra_query_threads: threads,
        parallel_min_frontier: if threads > 1 { 2 } else { 2048 },
        ..opts
    }
}

fn star(l: u64) -> Regex {
    Regex::Star(Box::new(Regex::label(l)))
}

fn workload_graph(seed: u64) -> Graph {
    GraphGen::new(GraphGenConfig {
        n_nodes: 30,
        n_preds: 4,
        n_edges: 140,
        pred_zipf: 1.2,
        node_skew: 0.8,
        seed,
    })
    .generate()
}

fn rare_label_graph() -> Graph {
    let mut triples = vec![Triple::new(6, 1, 9)];
    for i in 0..14 {
        triples.push(Triple::new(i, 0, (i + 1) % 16));
        triples.push(Triple::new((i + 2) % 16, 2, (i + 5) % 16));
    }
    Graph::from_triples(triples)
}

/// Table 1 pattern instantiations plus the canonical splittable shape
/// with every endpoint combination — the same mix the route-forcing and
/// mapped differential suites use.
fn corpus(graph: &Graph, seed: u64) -> Vec<RpqQuery> {
    let mut queries: Vec<RpqQuery> = QueryGen::new(graph, seed)
        .scaled_log(0.0)
        .into_iter()
        .map(|gq| gq.query)
        .collect();
    let split_expr = Regex::concat(Regex::concat(star(0), Regex::label(1)), star(2));
    for (s, o) in [
        (Term::Var, Term::Var),
        (Term::Const(6), Term::Var),
        (Term::Var, Term::Const(9)),
        (Term::Const(6), Term::Const(9)),
    ] {
        queries.push(RpqQuery::new(s, split_expr.clone(), o));
    }
    queries
}

fn sharded_source(graph: &Graph, n_shards: usize) -> ShardedSource {
    let idx = ShardedIndex::build(graph, n_shards, RingOptions::default());
    ShardedSource::new(idx.into_shards().into_iter().map(Arc::new).collect())
}

/// The core guarantee: for every corpus query, every forced route, and
/// every shard count, the sharded answer is the oracle answer, its plan
/// routes identically to the unsharded plan (the aggregated statistics
/// sum exactly over the disjoint partition), and the *raw* pair stream —
/// order included — equals the unsharded one.
#[test]
fn every_forced_route_is_bit_identical_across_shard_counts() {
    let mut checked = 0usize;
    for (graph, seed) in [(workload_graph(0x5AAD), 41), (rare_label_graph(), 42)] {
        let ring = Ring::build(&graph, RingOptions::default());
        let mut base = RpqEngine::new(&ring);
        for n_shards in SHARD_COUNTS {
            let source = sharded_source(&graph, n_shards);
            let mut engine = RpqEngine::over(&source);
            for query in corpus(&graph, seed) {
                let expected = evaluate_naive(&graph, &query);
                for forced in EvalRoute::ALL {
                    let opts = EngineOptions {
                        forced_route: Some(forced),
                        ..EngineOptions::default()
                    };
                    let base_out = base.evaluate(&query, &opts).unwrap();
                    for threads in test_threads() {
                        let what = format!("{n_shards} shards, {threads} threads, {forced:?}");
                        let out = engine
                            .evaluate(&query, &at_threads(opts, threads))
                            .unwrap_or_else(|e| panic!("{what}: {e}"));
                        assert_eq!(
                            out.sorted_pairs(),
                            expected,
                            "{what}: disagrees with the oracle on {query:?}"
                        );
                        assert_eq!(
                            out.pairs, base_out.pairs,
                            "{what}: raw pair stream diverges from unsharded on {query:?}"
                        );
                        assert_eq!(
                            out.plan.as_ref().map(|p| p.route),
                            base_out.plan.as_ref().map(|p| p.route),
                            "{what}: executed route diverges on {query:?}"
                        );
                        checked += 1;
                    }
                }
            }
        }
    }
    assert!(checked >= 200, "corpus shrank: only {checked} combinations");
}

/// Natural planning (no forcing) must make the same route, direction and
/// split decisions over a sharded source: the planner's inputs
/// (`pred_cardinality`, `n_triples`, `edges_into`, `in_degree`) sum
/// exactly over a disjoint partition.
#[test]
fn natural_plans_are_partition_independent() {
    for (graph, seed) in [(workload_graph(0xBEEF), 43), (rare_label_graph(), 44)] {
        let ring = Ring::build(&graph, RingOptions::default());
        let mut base = RpqEngine::new(&ring);
        let opts = EngineOptions::default();
        for n_shards in SHARD_COUNTS {
            let source = sharded_source(&graph, n_shards);
            let mut engine = RpqEngine::over(&source);
            for query in corpus(&graph, seed) {
                let sharded = engine.evaluate(&query, &opts).unwrap();
                let unsharded = base.evaluate(&query, &opts).unwrap();
                let sp = sharded.plan.expect("engine outputs carry their plan");
                let up = unsharded.plan.expect("engine outputs carry their plan");
                assert_eq!(sp.route, up.route, "{n_shards} shards: route on {query:?}");
                assert_eq!(
                    sp.direction, up.direction,
                    "{n_shards} shards: direction on {query:?}"
                );
                assert_eq!(
                    sp.split_label(),
                    up.split_label(),
                    "{n_shards} shards: split on {query:?}"
                );
                assert_eq!(sharded.pairs, unsharded.pairs);
            }
        }
    }
}

/// Traces, truncation points and the product-graph counters are part of
/// the partition-independence contract: every step primitive returns its
/// work items label-ascending and their subjects sorted-distinct, so the
/// BFS visit sequence, what it counts, and the exact prefix surviving a
/// result limit cannot depend on how the triples were partitioned — and
/// all equal the unsharded engine's, on every route and thread count:
/// one traversal and one set of §5 joins run over both, testing the limit
/// at the same points. (Shard count 1 is the bare ring and is excluded.)
#[test]
fn traces_counters_and_truncation_points_are_partition_independent() {
    let graph = workload_graph(0x7ACE);
    let ring = Ring::build(&graph, RingOptions::default());
    let mut base = RpqEngine::new(&ring);
    let mut truncations = 0usize;
    let traced = EngineOptions {
        collect_trace: true,
        ..EngineOptions::default()
    };
    let counters = |out: &rpq_core::QueryOutput| {
        let s = &out.stats;
        (s.product_nodes, s.product_edges, s.bfs_steps, s.reported)
    };
    for query in corpus(&graph, 45) {
        for forced in [None, Some(EvalRoute::BitParallel)] {
            let traced = EngineOptions {
                forced_route: forced,
                ..traced
            };
            let base_out = base.evaluate(&query, &traced).unwrap();
            for n_shards in [2usize, 4, 8] {
                let source = sharded_source(&graph, n_shards);
                let mut engine = RpqEngine::over(&source);
                for threads in test_threads() {
                    let what = format!("{n_shards} shards, {threads} threads, forced {forced:?}");
                    let out = engine
                        .evaluate(&query, &at_threads(traced, threads))
                        .unwrap();
                    assert_eq!(
                        out.trace, base_out.trace,
                        "{what}: BFS trace diverges from unsharded on {query:?}"
                    );
                    assert_eq!(
                        counters(&out),
                        counters(&base_out),
                        "{what}: (product_nodes, product_edges, bfs_steps, reported) diverge \
                         from unsharded on {query:?}"
                    );
                }
            }
        }
        for limit in [1usize, 5, 64] {
            let limited = EngineOptions {
                limit,
                ..EngineOptions::default()
            };
            let base_out = base.evaluate(&query, &limited).unwrap();
            for n_shards in [2usize, 4, 8] {
                let source = sharded_source(&graph, n_shards);
                let mut engine = RpqEngine::over(&source);
                for threads in test_threads() {
                    let what = format!("{n_shards} shards, {threads} threads, limit {limit}");
                    let out = engine
                        .evaluate(&query, &at_threads(limited, threads))
                        .unwrap();
                    assert_eq!(
                        out.truncated, base_out.truncated,
                        "{what}: truncated flag diverges on {query:?}"
                    );
                    truncations += usize::from(out.truncated);
                    assert_eq!(
                        out.pairs, base_out.pairs,
                        "{what}: truncation point diverges from unsharded on {query:?}"
                    );
                    assert_eq!(
                        counters(&out),
                        counters(&base_out),
                        "{what}: counters diverge from unsharded on {query:?}"
                    );
                }
            }
        }
    }
    assert!(truncations > 0, "the limits never bit — fixture too small");
}

/// Shard counts exceeding the partition's unit count leave some shards
/// with zero triples; empty sub-rings must gather as no-ops.
#[test]
fn empty_shards_are_harmless() {
    // Two triples, one predicate, four shards: the subject-range split
    // yields two one-triple units, so shards 2 and 3 stay empty.
    let graph = Graph::from_triples(vec![Triple::new(0, 0, 1), Triple::new(1, 0, 2)]);
    let idx = ShardedIndex::build(&graph, 4, RingOptions::default());
    assert_eq!(idx.n_shards(), 4);
    assert!(
        idx.shards().iter().any(|r| r.n_triples() == 0),
        "fixture no longer produces an empty shard"
    );
    let source = ShardedSource::new(idx.into_shards().into_iter().map(Arc::new).collect());
    let mut engine = RpqEngine::over(&source);
    for (expr, expected) in [
        (
            star(0),
            vec![(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)],
        ),
        (Regex::label(0), vec![(0, 1), (1, 2)]),
    ] {
        let query = RpqQuery::new(Term::Var, expr, Term::Var);
        assert_eq!(evaluate_naive(&graph, &query), expected);
        for forced in EvalRoute::ALL {
            let opts = EngineOptions {
                forced_route: Some(forced),
                ..EngineOptions::default()
            };
            let out = engine.evaluate(&query, &opts).unwrap();
            assert_eq!(out.sorted_pairs(), expected, "forced {forced:?}");
        }
    }
}

fn dicts_for(graph: &Graph) -> (Dict, Dict) {
    let mut nodes = Dict::new();
    for i in 0..graph.n_nodes() {
        nodes.intern(&format!("<node/{i}>"));
    }
    let mut preds = Dict::new();
    for i in 0..graph.n_preds() {
        preds.intern(&format!("<pred/{i}>"));
    }
    (nodes, preds)
}

/// A round-tripped `RRPQSH01` directory — heap-resident and, where the
/// platform allows, mmap-resident — answers identically to the fresh
/// in-memory build under every forced route: as `save_dir` lays it out
/// (the dictionaries in shard 0's file only), and as earlier builds did
/// (a full copy in every shard file, which an open now leaves unread).
#[test]
fn reopened_shard_directories_match_the_oracle() {
    let dir = std::env::temp_dir().join(format!("rpq_sharded_diff_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let graph = workload_graph(0xD15C);
    let idx = ShardedIndex::build(&graph, 4, RingOptions::default());
    let (nodes, preds) = dicts_for(&graph);

    let mut modes = vec![("heap", OpenMode::Heap)];
    #[cfg(all(unix, target_pointer_width = "64"))]
    modes.push(("mmap", OpenMode::Mmap));

    let ring = Ring::build(&graph, RingOptions::default());
    let mut base = RpqEngine::new(&ring);
    for layout in ["one dictionary", "a copy per shard"] {
        idx.save_dir(&dir, &nodes, &preds).unwrap();
        if layout == "a copy per shard" {
            for (i, shard) in idx.shards().iter().enumerate() {
                write_index(&dir.join(shard_file_name(i)), shard, &nodes, &preds).unwrap();
            }
        }
        for &(residency, mode) in &modes {
            let label = format!("{layout}, {residency}");
            let opened = open_dir(&dir, mode).unwrap();
            assert_eq!(opened.nodes.len() as u64, graph.n_nodes(), "{label}");
            assert_eq!(opened.nodes.get("<node/7>"), Some(7), "{label}");
            assert_eq!(opened.preds.name(1), "<pred/1>", "{label}");
            let source = ShardedSource::new(opened.rings.into_iter().map(Arc::new).collect());
            let mut engine = RpqEngine::over(&source);
            for query in corpus(&graph, 46) {
                let expected = evaluate_naive(&graph, &query);
                for forced in EvalRoute::ALL {
                    let opts = EngineOptions {
                        forced_route: Some(forced),
                        ..EngineOptions::default()
                    };
                    let out = engine
                        .evaluate(&query, &opts)
                        .unwrap_or_else(|e| panic!("{label}: forcing {forced:?}: {e}"));
                    assert_eq!(
                        out.sorted_pairs(),
                        expected,
                        "{label}: forced {forced:?} disagrees with the oracle on {query:?}"
                    );
                    let base_out = base.evaluate(&query, &opts).unwrap();
                    assert_eq!(
                        out.pairs, base_out.pairs,
                        "{label}: reopened shards diverge from the fresh build on {query:?}"
                    );
                }
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
