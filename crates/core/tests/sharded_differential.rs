//! Sharded differential suite: a [`ShardedSource`] scatter-gathering a
//! predicate-partitioned [`ShardedIndex`] must be **bit-identical** to
//! the unsharded ring — same sorted answers (equal to the naive oracle),
//! same raw pair stream, same traces and truncation points, same plans —
//! under every forced route, every shard count, and both residency modes
//! of the on-disk `RRPQSH01` directory.

use std::sync::Arc;

use automata::Regex;
use ring::mapped::OpenMode;
use ring::ring::RingOptions;
use ring::sharded::{open_dir, ShardedIndex};
use ring::{Dict, Graph, Ring, Triple};
use rpq_core::oracle::evaluate_naive;
use rpq_core::{EngineOptions, EvalRoute, RpqEngine, RpqQuery, ShardedSource, Term};
use workload::{GraphGen, GraphGenConfig, QueryGen};

const SHARD_COUNTS: [usize; 3] = [1, 2, 4];

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
                    let out = engine
                        .evaluate(&query, &opts)
                        .unwrap_or_else(|e| panic!("{n_shards} shards, {forced:?}: {e}"));
                    assert_eq!(
                        out.sorted_pairs(),
                        expected,
                        "{n_shards} shards: forced {forced:?} disagrees with the oracle on {query:?}"
                    );
                    let base_out = base.evaluate(&query, &opts).unwrap();
                    assert_eq!(
                        out.pairs, base_out.pairs,
                        "{n_shards} shards: raw pair stream diverges from unsharded on {query:?} ({forced:?})"
                    );
                    assert_eq!(
                        out.plan.as_ref().map(|p| p.route),
                        base_out.plan.as_ref().map(|p| p.route),
                        "{n_shards} shards: executed route diverges on {query:?}"
                    );
                    checked += 1;
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

/// Traces and truncation points are part of the partition-independence
/// contract: every merged enumeration primitive returns sorted-distinct
/// nodes, so the BFS visit sequence and the exact prefix surviving a
/// result limit cannot depend on how the triples were partitioned — and
/// both equal the unsharded engine's. The wavelet-batched and the merged
/// kernel visit labels and subjects in the same ascending order, from
/// the same level-one set (a full-range start seeds the merged kernel by
/// predicate), so anchored and variable-to-variable queries, nullable or
/// not, leave the same trace and keep the same pairs under a limit.
///
/// One case still differs, in the pairs kept only: the variable-to-
/// variable shapes of the §5 fast path. Over a bare ring it tests the
/// limit once per batch of subjects, through the merged view once per
/// subject, so the two stop at different (equally valid) points; there
/// the pairs are compared across shard counts alone. (Shard count 1
/// degenerates to the pure path and is excluded.)
#[test]
fn traces_and_truncation_points_are_partition_independent() {
    let graph = workload_graph(0x7ACE);
    let ring = Ring::build(&graph, RingOptions::default());
    let mut base = RpqEngine::new(&ring);
    let mut truncations = 0usize;
    let mut against_unsharded = 0usize;
    let traced = EngineOptions {
        collect_trace: true,
        ..EngineOptions::default()
    };
    for query in corpus(&graph, 45) {
        let base_trace = base.evaluate(&query, &traced).unwrap().trace;
        for limit in [1usize, 5, 64] {
            let limited = EngineOptions {
                limit,
                ..EngineOptions::default()
            };
            let base_out = base.evaluate(&query, &limited).unwrap();
            let batched_limit_checks = query.is_var_to_var()
                && base_out.plan.as_ref().map(|p| p.route) == Some(EvalRoute::FastPath);
            let mut previous: Option<(usize, Vec<(u64, u64)>)> = None;
            for n_shards in [2usize, 4, 8] {
                let source = sharded_source(&graph, n_shards);
                let mut engine = RpqEngine::over(&source);
                let trace = engine.evaluate(&query, &traced).unwrap().trace;
                assert_eq!(
                    trace, base_trace,
                    "{n_shards} shards: BFS trace diverges from unsharded on {query:?}"
                );
                let out = engine.evaluate(&query, &limited).unwrap();
                assert_eq!(
                    out.truncated, base_out.truncated,
                    "{n_shards} shards, limit {limit}: truncated flag diverges on {query:?}"
                );
                truncations += usize::from(out.truncated);
                if !batched_limit_checks {
                    assert_eq!(
                        out.pairs, base_out.pairs,
                        "{n_shards} shards, limit {limit}: truncation point diverges from \
                         unsharded on {query:?}"
                    );
                    against_unsharded += usize::from(out.truncated);
                }
                if let Some((n_prev, pairs_prev)) = &previous {
                    assert_eq!(
                        &out.pairs, pairs_prev,
                        "limit {limit}: truncation point depends on the partition ({n_prev} vs \
                         {n_shards} shards) on {query:?}"
                    );
                }
                previous = Some((n_shards, out.pairs));
            }
        }
    }
    assert!(
        truncations > 0 && against_unsharded > 0,
        "the limits never bit — fixture too small"
    );
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
/// in-memory build under every forced route.
#[test]
fn reopened_shard_directories_match_the_oracle() {
    let dir = std::env::temp_dir().join(format!("rpq_sharded_diff_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let graph = workload_graph(0xD15C);
    let idx = ShardedIndex::build(&graph, 4, RingOptions::default());
    let (nodes, preds) = dicts_for(&graph);
    idx.save_dir(&dir, &nodes, &preds).unwrap();

    let mut modes = vec![("heap", OpenMode::Heap)];
    #[cfg(all(unix, target_pointer_width = "64"))]
    modes.push(("mmap", OpenMode::Mmap));

    let ring = Ring::build(&graph, RingOptions::default());
    let mut base = RpqEngine::new(&ring);
    for (label, mode) in modes {
        let shards = open_dir(&dir, mode).unwrap();
        let source = ShardedSource::new(shards.into_iter().map(|idx| Arc::new(idx.ring)).collect());
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
    std::fs::remove_dir_all(&dir).ok();
}
