//! Route-forcing differential suite: every [`EvalRoute`] must produce
//! byte-identical sorted answers on the same query corpus, and the
//! explained plan must equal the executed one — the acceptance tests of
//! the unified cost-based planner.
//!
//! Forcing uses [`EngineOptions::forced_route`]; an infeasible forcing
//! (fast path on a non-§5 shape, split on an anchored query, …) falls
//! back to the natural choice, so *answers* must match the oracle for
//! every `(query, forcing)` combination unconditionally, while route
//! assertions apply where feasibility is known by construction.

use std::sync::Arc;

use automata::Regex;
use ring::ring::RingOptions;
use ring::sharded::ShardedIndex;
use ring::store::TripleStore;
use ring::{Graph, Ring, Triple};
use rpq_core::oracle::evaluate_naive;
use rpq_core::planner::{self, Direction};
use rpq_core::stats::RingStatistics;
use rpq_core::{
    EngineOptions, EvalRoute, PreparedQuery, RpqEngine, RpqQuery, ShardedSource, Term, TripleSource,
};
use workload::{GraphGen, GraphGenConfig, QueryGen};

fn star(l: u64) -> Regex {
    Regex::Star(Box::new(Regex::label(l)))
}

/// A small Wikidata-shaped graph (Zipf predicates, skewed degrees).
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

/// A graph with one rare label (1) between two dense closures — the
/// split route's natural habitat.
fn rare_label_graph() -> Graph {
    let mut triples = vec![Triple::new(6, 1, 9)];
    for i in 0..14 {
        triples.push(Triple::new(i, 0, (i + 1) % 16));
        triples.push(Triple::new((i + 2) % 16, 2, (i + 5) % 16));
    }
    Graph::from_triples(triples)
}

/// The corpus: Table 1 pattern instantiations plus hand-built queries
/// that make each route's feasibility unambiguous.
fn corpus(graph: &Graph, seed: u64) -> Vec<RpqQuery> {
    let mut queries: Vec<RpqQuery> = QueryGen::new(graph, seed)
        .scaled_log(0.0) // one query per Table 1 pattern
        .into_iter()
        .map(|gq| gq.query)
        .collect();
    // The canonical splittable shape, all four endpoint combinations.
    let split_expr = Regex::concat(Regex::concat(star(0), Regex::label(1)), star(2));
    for (s, o) in [
        (Term::Var, Term::Var),
        (Term::Const(6), Term::Var),
        (Term::Var, Term::Const(9)),
        (Term::Const(6), Term::Const(9)),
    ] {
        queries.push(RpqQuery::new(s, split_expr.clone(), o));
    }
    // Multi-factor concatenation: several split candidates.
    queries.push(RpqQuery::new(
        Term::Var,
        Regex::concat(
            Regex::concat(Regex::label(0), star(2)),
            Regex::concat(Regex::label(1), Regex::Opt(Box::new(Regex::label(0)))),
        ),
        Term::Var,
    ));
    // An inverse-step split: ^a*/b/(c|^c)* over the completed alphabet
    // (inverse of base label l is l + n_preds).
    let n_base = graph.n_preds();
    queries.push(RpqQuery::new(
        Term::Var,
        Regex::concat(
            Regex::concat(star(n_base), Regex::label(1)),
            Regex::Star(Box::new(Regex::alt(
                Regex::label(2),
                Regex::label(2 + n_base),
            ))),
        ),
        Term::Var,
    ));
    queries
}

#[test]
fn every_forced_route_matches_the_oracle() {
    let mut checked = 0usize;
    for (graph, seed) in [
        (workload_graph(0xA11CE), 7),
        (workload_graph(0xB0B), 8),
        (rare_label_graph(), 9),
    ] {
        let ring = Ring::build(&graph, RingOptions::default());
        let mut engine = RpqEngine::new(&ring);
        for query in corpus(&graph, seed) {
            let expected = evaluate_naive(&graph, &query);
            for forced in EvalRoute::ALL {
                let opts = EngineOptions {
                    forced_route: Some(forced),
                    ..EngineOptions::default()
                };
                let out = engine
                    .evaluate(&query, &opts)
                    .unwrap_or_else(|e| panic!("forcing {forced:?} on {query:?}: {e}"));
                assert!(
                    !out.truncated && !out.timed_out && !out.budget_exhausted,
                    "forced {forced:?} hit limits unexpectedly on {query:?}"
                );
                assert_eq!(
                    out.sorted_pairs(),
                    expected,
                    "forced {forced:?} disagrees with the oracle on {query:?}"
                );
                // The executed plan is recorded; when the forcing was
                // feasible it must have been obeyed.
                let plan = out.plan.expect("engine outputs carry their plan");
                let prepared = PreparedQuery::compile(
                    &query.expr,
                    &|l| ring.inverse_label(l),
                    opts.bp_split_width,
                )
                .unwrap();
                if planner::route_is_feasible(
                    &RingStatistics::new(&ring),
                    forced,
                    &prepared,
                    query.subject,
                    query.object,
                ) {
                    assert_eq!(plan.route, forced, "feasible forcing ignored on {query:?}");
                } else {
                    assert_ne!(plan.route, forced);
                }
            }
            checked += 1;
        }
    }
    assert!(checked >= 75, "corpus shrank: only {checked} queries");
}

/// A result limit caps every route on every kind of source: never more
/// than `limit` pairs, all of them answers, and variable-to-variable
/// answers sorted.
#[test]
fn every_forced_route_honors_the_limit_on_every_source() {
    let graph = workload_graph(0x11417);
    let ring = Ring::build(&graph, RingOptions::default());
    let sharded = ShardedSource::new(
        ShardedIndex::build(&graph, 4, RingOptions::default())
            .into_shards()
            .into_iter()
            .map(Arc::new)
            .collect(),
    );
    let store = TripleStore::new(graph.clone()).with_auto_compact_ratio(None);
    for i in 0..6 {
        store.insert(Triple::new(i, i % 4, 29 - i));
    }
    for t in graph.triples().iter().step_by(11) {
        store.delete(*t);
    }
    store.commit();
    let snapshot = store.snapshot();
    assert!(snapshot.delta().is_some());

    let sources: [(&str, &dyn TripleSource); 3] = [
        ("pure", &ring),
        ("4-shard", &sharded),
        ("ring+delta", &*snapshot),
    ];
    let mut truncated = [0usize; EvalRoute::ALL.len()];
    for (name, source) in sources {
        let mut engine = RpqEngine::over(source);
        for query in corpus(&graph, 10) {
            let all = engine
                .evaluate(&query, &EngineOptions::default())
                .unwrap()
                .sorted_pairs();
            for (r, forced) in EvalRoute::ALL.into_iter().enumerate() {
                for limit in [1usize, 4, 17] {
                    let opts = EngineOptions {
                        forced_route: Some(forced),
                        limit,
                        ..EngineOptions::default()
                    };
                    let out = engine.evaluate(&query, &opts).unwrap();
                    let context = format!("{name}: forced {forced:?}, limit {limit}, {query:?}");
                    assert!(
                        out.pairs.len() <= limit,
                        "{context}: {} pairs",
                        out.pairs.len()
                    );
                    assert!(
                        out.pairs.iter().all(|p| all.binary_search(p).is_ok()),
                        "{context}: a pair that is no answer"
                    );
                    assert!(
                        out.truncated || out.pairs.len() == all.len(),
                        "{context}: answers dropped without the flag"
                    );
                    if query.is_var_to_var() {
                        assert!(out.pairs.is_sorted(), "{context}: unsorted");
                    }
                    truncated[r] += usize::from(out.truncated);
                }
            }
        }
    }
    assert!(
        truncated.iter().all(|&n| n > 0),
        "a route never hit a limit: {truncated:?}"
    );
}

/// Every route agrees at the exact limit: with `limit` equal to a
/// query's answer count, every forced route returns exactly the
/// oracle's pairs, and with `limit` one below it, `limit` of them; at
/// either limit every route raises the same `truncated` flag as the
/// bit-parallel route. (Which pairs a truncated answer holds is not
/// meaningful, so only their number and membership are compared.)
#[test]
fn every_forced_route_agrees_at_the_exact_limit() {
    let mut checked = 0usize;
    for (graph, seed) in [
        (workload_graph(0xA11CE), 7),
        (workload_graph(0xB0B), 8),
        (rare_label_graph(), 9),
    ] {
        let ring = Ring::build(&graph, RingOptions::default());
        let mut engine = RpqEngine::new(&ring);
        for query in corpus(&graph, seed) {
            let answers = evaluate_naive(&graph, &query);
            let count = answers.len();
            for limit in [count, count.saturating_sub(1)] {
                if limit == 0 {
                    continue;
                }
                let mut run = |forced| {
                    let opts = EngineOptions {
                        forced_route: Some(forced),
                        limit,
                        ..EngineOptions::default()
                    };
                    let out = engine.evaluate(&query, &opts).unwrap();
                    (out.sorted_pairs(), out.truncated)
                };
                let (_, truncated) = run(EvalRoute::BitParallel);
                for forced in EvalRoute::ALL {
                    let (pairs, flag) = run(forced);
                    let context = format!("forced {forced:?}, limit {limit} of {count}: {query:?}");
                    assert_eq!(flag, truncated, "{context}: truncated");
                    if limit == count {
                        assert_eq!(pairs, answers, "{context}: pairs");
                    } else {
                        assert_eq!(pairs.len(), limit, "{context}: pairs");
                        assert!(
                            pairs.iter().all(|p| answers.binary_search(p).is_ok()),
                            "{context}: a pair that is no answer"
                        );
                    }
                }
                checked += 1;
            }
        }
    }
    assert!(checked >= 100, "corpus shrank: only {checked} checks");
}

/// The acceptance criterion: for every corpus query, the explained
/// route/direction/split equals the route/direction/split actually
/// executed (both sides consult the one planner, but this pins the
/// contract against future divergence).
#[test]
fn explain_equals_execution_for_the_whole_corpus() {
    for (graph, seed) in [(workload_graph(0xCAFE), 21), (rare_label_graph(), 22)] {
        let ring = Ring::build(&graph, RingOptions::default());
        let mut engine = RpqEngine::new(&ring);
        for forced_route in [None, Some(EvalRoute::BitParallel)] {
            let opts = EngineOptions {
                forced_route,
                ..EngineOptions::default()
            };
            for query in corpus(&graph, seed) {
                let explained = rpq_core::explain::explain_with(&ring, &query, &opts).unwrap();
                let out = engine.evaluate(&query, &opts).unwrap();
                let executed = out.plan.expect("engine outputs carry their plan");
                assert_eq!(
                    explained.plan.route, executed.route,
                    "explain/execute route divergence on {query:?} (forced_route={forced_route:?})"
                );
                assert_eq!(
                    explained.plan.direction, executed.direction,
                    "explain/execute direction divergence on {query:?}"
                );
                assert_eq!(
                    explained.plan.split_label(),
                    executed.split_label(),
                    "explain/execute split divergence on {query:?}"
                );
                assert_eq!(explained.plan.estimated_cost, executed.estimated_cost);
            }
        }
    }
}

/// `EvalRoute::Split` must be reachable *naturally* (no forcing) from
/// both public evaluation entry points, and carry the §4.3-chosen split.
#[test]
fn split_route_is_reachable_from_evaluate_and_evaluate_prepared() {
    let graph = rare_label_graph();
    let ring = Ring::build(&graph, RingOptions::default());
    let expr = Regex::concat(Regex::concat(star(0), Regex::label(1)), star(2));
    let query = RpqQuery::new(Term::Var, expr.clone(), Term::Var);
    let expected = evaluate_naive(&graph, &query);
    assert!(!expected.is_empty(), "fixture must have answers");
    let opts = EngineOptions::default();

    // Natural planning picks the split (the whole point of the fixture).
    let stats = RingStatistics::new(&ring);
    let prepared = PreparedQuery::compile(&expr, &|l| ring.inverse_label(l), 8).unwrap();
    let plan = planner::plan(&stats, &prepared, Term::Var, Term::Var, &opts);
    assert_eq!(plan.route, EvalRoute::Split);
    assert_eq!(plan.split_label(), Some(1));
    assert_eq!(plan.direction, None);

    // Entry point 1: evaluate (compiles internally).
    let mut engine = RpqEngine::new(&ring);
    let out = engine.evaluate(&query, &opts).unwrap();
    assert_eq!(out.plan.as_ref().unwrap().route, EvalRoute::Split);
    assert_eq!(out.sorted_pairs(), expected);

    // Entry point 2: evaluate_prepared (the server's path).
    let out = engine
        .evaluate_prepared(&prepared, Term::Var, Term::Var, &opts)
        .unwrap();
    assert_eq!(out.plan.as_ref().unwrap().route, EvalRoute::Split);
    assert_eq!(out.sorted_pairs(), expected);
}

/// Budgets apply cumulatively across a split's sub-queries: a node
/// budget far below the work needed must surface as `budget_exhausted`,
/// and a generous one must not.
#[test]
fn split_honors_cumulative_budgets() {
    let graph = rare_label_graph();
    let ring = Ring::build(&graph, RingOptions::default());
    let expr = Regex::concat(Regex::concat(star(0), Regex::label(1)), star(2));
    let query = RpqQuery::new(Term::Var, expr, Term::Var);
    let mut engine = RpqEngine::new(&ring);

    let opts = EngineOptions {
        forced_route: Some(EvalRoute::Split),
        node_budget: Some(3),
        ..EngineOptions::default()
    };
    let out = engine.evaluate(&query, &opts).unwrap();
    assert_eq!(out.plan.as_ref().unwrap().route, EvalRoute::Split);
    assert!(out.budget_exhausted, "a 3-node budget cannot finish");

    let opts = EngineOptions {
        forced_route: Some(EvalRoute::Split),
        node_budget: Some(1_000_000),
        ..EngineOptions::default()
    };
    let out = engine.evaluate(&query, &opts).unwrap();
    assert!(!out.budget_exhausted);
    assert_eq!(out.sorted_pairs(), evaluate_naive(&graph, &query));
}

/// Direction choices surface in the plan and flip with the statistics:
/// a constant-to-constant query starts from the endpoint with the
/// cheaper anchored expansion.
#[test]
fn const_const_direction_follows_anchored_costs() {
    // 20 edges into node 1 (label 0), one edge out of node 0 (label 0):
    // for (0, a/a, 1) the object side is the expensive anchor.
    let mut triples = vec![Triple::new(0, 0, 2), Triple::new(2, 0, 1)];
    for i in 3..23 {
        triples.push(Triple::new(i, 0, 1));
    }
    let graph = Graph::from_triples(triples);
    let ring = Ring::build(&graph, RingOptions::default());
    // a/a is a §5 Concat2 shape; force the traversal to exercise the
    // bit-parallel existence check.
    let opts = EngineOptions {
        forced_route: Some(EvalRoute::BitParallel),
        ..EngineOptions::default()
    };
    let q = RpqQuery::new(
        Term::Const(0),
        Regex::concat(Regex::label(0), Regex::label(0)),
        Term::Const(1),
    );
    let out = RpqEngine::new(&ring).evaluate(&q, &opts).unwrap();
    let plan = out.plan.clone().unwrap();
    assert_eq!(plan.route, EvalRoute::BitParallel);
    assert_eq!(
        plan.direction,
        Some(Direction::FromSubject),
        "the 1-edge subject side must win over the 21-in-edge object side"
    );
    assert_eq!(out.sorted_pairs(), vec![(0, 1)]);
    // And the mirrored query (a/^a, costs tied at 1) keeps the default
    // object-side start.
    let q = RpqQuery::new(
        Term::Const(3),
        Regex::concat(Regex::label(0), Regex::label(1)),
        Term::Const(2),
    );
    let out = RpqEngine::new(&ring).evaluate(&q, &opts).unwrap();
    assert_eq!(out.plan.unwrap().direction, Some(Direction::FromObject));
}
