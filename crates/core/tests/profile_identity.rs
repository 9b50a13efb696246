//! Profile-observation differential suite — the acceptance tests of the
//! "EXPLAIN ANALYZE" profiler.
//!
//! The contract under test: [`EngineOptions::profile`] is **strictly
//! observational**. For any query, any forced route, and any thread
//! count, evaluation with profiling on produces **bit-for-bit identical
//! output** to evaluation with profiling off — the same pair stream
//! (order included), the same flags, the same trace — while attaching a
//! populated [`QueryProfile`] to the output. The planner never sees the
//! flag, so there is no code path where observing a query could change
//! its answer.
//!
//! `RPQ_TEST_THREADS` (comma-separated) overrides the thread counts,
//! matching the parallel differential suite.

use automata::Regex;
use ring::ring::RingOptions;
use ring::{Graph, Ring, Triple};
use rpq_core::{EngineOptions, EvalRoute, RpqEngine, RpqQuery, Term};
use workload::{GraphGen, GraphGenConfig, QueryGen};

/// Thread counts to cover besides the sequential engine.
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

/// A Wikidata-shaped graph (Zipf predicates, skewed degrees).
fn workload_graph(seed: u64) -> Graph {
    GraphGen::new(GraphGenConfig {
        n_nodes: 40,
        n_preds: 4,
        n_edges: 200,
        pred_zipf: 1.2,
        node_skew: 0.8,
        seed,
    })
    .generate()
}

/// A graph with one rare label (1) between two dense closures, so the
/// split route is feasible without forcing tricks.
fn rare_label_graph() -> Graph {
    let mut triples = vec![Triple::new(6, 1, 9)];
    for i in 0..14 {
        triples.push(Triple::new(i, 0, (i + 1) % 16));
        triples.push(Triple::new((i + 2) % 16, 2, (i + 5) % 16));
    }
    Graph::from_triples(triples)
}

/// Table 1 pattern instantiations plus the canonical splittable shape.
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
    queries.push(RpqQuery::new(Term::Const(6), star(0), Term::Var));
    queries
}

/// Profiling on vs. off, across every forced route and thread count:
/// identical answers, and a profile attached exactly when asked for.
#[test]
fn profiling_never_changes_the_answer() {
    let mut checked = 0usize;
    let mut thread_counts = vec![1usize];
    thread_counts.extend(test_threads());
    for (graph, seed) in [(workload_graph(0xFACE), 41), (rare_label_graph(), 42)] {
        let ring = Ring::build(&graph, RingOptions::default());
        let mut engine = RpqEngine::new(&ring);
        for query in corpus(&graph, seed) {
            for forced in EvalRoute::ALL {
                for &threads in &thread_counts {
                    let base = EngineOptions {
                        forced_route: Some(forced),
                        collect_trace: true,
                        intra_query_threads: threads,
                        parallel_min_frontier: 2,
                        ..EngineOptions::default()
                    };
                    let off = engine
                        .evaluate(&query, &base)
                        .unwrap_or_else(|e| panic!("unprofiled {forced:?} failed: {e}"));
                    assert!(
                        off.profile.is_none(),
                        "profile attached without being requested on {query:?}"
                    );
                    let opts = EngineOptions {
                        profile: true,
                        ..base
                    };
                    let on = engine
                        .evaluate(&query, &opts)
                        .unwrap_or_else(|e| panic!("profiled {forced:?} failed: {e}"));
                    assert_eq!(
                        on.pairs, off.pairs,
                        "profiling changed the pair stream on {query:?} \
                         (forced {forced:?}, {threads} threads)"
                    );
                    assert_eq!(
                        (on.truncated, on.timed_out, on.budget_exhausted),
                        (off.truncated, off.timed_out, off.budget_exhausted),
                        "profiling changed the flags on {query:?}"
                    );
                    assert_eq!(
                        on.trace, off.trace,
                        "profiling changed the trace on {query:?}"
                    );
                    let (on_plan, off_plan) =
                        (on.plan.as_ref().unwrap(), off.plan.as_ref().unwrap());
                    assert_eq!(
                        (on_plan.route, on_plan.direction, on_plan.estimated_cost),
                        (off_plan.route, off_plan.direction, off_plan.estimated_cost),
                        "profiling changed the plan on {query:?}"
                    );
                    let profile = on
                        .profile
                        .unwrap_or_else(|| panic!("no profile on {query:?}"));
                    // Engine-side profiles leave the server phases unset.
                    assert_eq!(profile.queue_wait_us, None);
                    assert_eq!(profile.compile_us, None);
                    assert_eq!(profile.cache_hit, None);
                    assert!(profile.total_us >= profile.exec_us);
                    checked += 1;
                }
            }
        }
    }
    assert!(checked >= 200, "corpus shrank: only {checked} combinations");
}

/// Truncation is part of the bit-identity contract: with a tight limit
/// the profiled run must stop at the same pair as the unprofiled one.
#[test]
fn truncation_point_survives_profiling() {
    let graph = workload_graph(0xBEEF);
    let ring = Ring::build(&graph, RingOptions::default());
    let mut engine = RpqEngine::new(&ring);
    let query = RpqQuery::new(Term::Var, star(0), Term::Var);
    for limit in [1usize, 5, 50] {
        for forced in EvalRoute::ALL {
            let base = EngineOptions {
                limit,
                forced_route: Some(forced),
                ..EngineOptions::default()
            };
            let off = engine.evaluate(&query, &base).unwrap();
            let on = engine
                .evaluate(
                    &query,
                    &EngineOptions {
                        profile: true,
                        ..base
                    },
                )
                .unwrap();
            assert_eq!(on.pairs, off.pairs, "limit {limit}, forced {forced:?}");
            assert_eq!(on.truncated, off.truncated);
        }
    }
}

/// The profiler must actually observe something: a closure traversal on
/// the bit-parallel route records one sample per BFS level, the rank-op
/// deltas sum to the traversal total, and parallel fan-out shows up in
/// the per-level chunk counts.
#[test]
fn profiles_record_levels_and_fanout() {
    let graph = workload_graph(0xD00D);
    let ring = Ring::build(&graph, RingOptions::default());
    let mut engine = RpqEngine::new(&ring);
    let query = RpqQuery::new(Term::Var, star(0), Term::Var);

    let opts = EngineOptions {
        profile: true,
        forced_route: Some(EvalRoute::BitParallel),
        ..EngineOptions::default()
    };
    let out = engine.evaluate(&query, &opts).unwrap();
    let profile = out.profile.expect("profile requested");
    assert!(
        !profile.levels.is_empty(),
        "a closure traversal has BFS levels"
    );
    let level_rank_ops: u64 = profile.levels.iter().map(|l| l.rank_ops).sum();
    assert!(
        level_rank_ops <= out.stats.rank_ops,
        "per-level deltas ({level_rank_ops}) exceed the traversal total ({})",
        out.stats.rank_ops
    );
    assert!(profile.levels.iter().any(|l| l.frontier > 0));
    assert_eq!(profile.compactions, out.stats.pair_compactions);
    // The kernel's phases are timed inside the execution they split, on
    // one thread here: together they take no longer than it.
    let phases = profile.phases;
    assert!(phases.part_one_ns > 0 && phases.part_two_ns > 0 && phases.replay_ns > 0);
    let total_ns = phases.part_one_ns + phases.part_two_ns + phases.replay_ns + phases.order_ns;
    assert!(
        total_ns / 1000 <= profile.exec_us,
        "phases {phases:?} outlast the execution's {} µs",
        profile.exec_us
    );

    // With helpers granted, fanned-out levels carry their chunk counts.
    let par = engine
        .evaluate(
            &query,
            &EngineOptions {
                intra_query_threads: 4,
                parallel_min_frontier: 2,
                ..opts
            },
        )
        .unwrap();
    let profile = par.profile.expect("profile requested");
    let chunks: u64 = profile.levels.iter().map(|l| l.chunks).sum();
    assert_eq!(
        chunks, par.stats.parallel_chunks,
        "per-level chunks must sum to the traversal counter"
    );
    if par.stats.parallel_levels > 0 {
        assert!(profile.levels.iter().any(|l| l.parallel));
    }

    // The JSON rendering is a single stable object (machine-parseable
    // line in CLI output).
    let json = profile.to_json();
    assert!(json.starts_with('{') && json.ends_with('}'));
    assert!(json.contains("\"levels\":["));
}
