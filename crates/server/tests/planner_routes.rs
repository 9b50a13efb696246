//! The server executes exactly what the shared planner decides: the
//! split route is reachable through the full submit→worker→answer path,
//! answers stay differentially correct, metrics gain the `split`
//! histogram and per-route planner decision counts, and the explained
//! plan equals the route the server actually ran.

use std::sync::Arc;

use automata::Regex;
use ring::ring::RingOptions;
use ring::{Graph, Ring, Triple};
use rpq_core::oracle::evaluate_naive;
use rpq_core::{EngineOptions, EvalRoute, RpqQuery, Term};
use rpq_server::{IndexSource, QueryBudget, RpqServer, ServerConfig};

fn star(l: u64) -> Regex {
    Regex::Star(Box::new(Regex::label(l)))
}

/// One rare b-edge between dense a- and c-closures: the planner must
/// choose the split route for `a*/b/c*` without any forcing.
fn rare_label_graph() -> Graph {
    let mut triples = vec![Triple::new(6, 1, 9)];
    for i in 0..14 {
        triples.push(Triple::new(i, 0, (i + 1) % 16));
        triples.push(Triple::new((i + 2) % 16, 2, (i + 5) % 16));
    }
    Graph::from_triples(triples)
}

#[test]
fn split_route_flows_through_the_server_path() {
    let graph = rare_label_graph();
    let ring = Ring::build(&graph, RingOptions::default());
    let split_query = RpqQuery::new(
        Term::Var,
        Regex::concat(Regex::concat(star(0), Regex::label(1)), star(2)),
        Term::Var,
    );
    let expected = evaluate_naive(&graph, &split_query);
    assert!(!expected.is_empty());

    // The explained plan for what we are about to submit.
    let explained = rpq_core::explain::explain(&ring, &split_query).unwrap();
    assert_eq!(explained.plan.route, EvalRoute::Split);

    let server = RpqServer::start(
        Arc::new(IndexSource::id_only(ring)),
        ServerConfig {
            workers: 2,
            result_cache_bytes: 1 << 20,
            ..ServerConfig::default()
        },
    )
    .unwrap();

    // A mixed workload so several routes land in the metrics: the split
    // query, a fastpath single label, and a bitparallel closure.
    let fast_query = RpqQuery::new(Term::Var, Regex::label(0), Term::Var);
    let bp_query = RpqQuery::new(Term::Const(0), star(0), Term::Var);
    for q in [&split_query, &fast_query, &bp_query] {
        let ticket = server
            .submit_parsed(q.clone(), QueryBudget::default())
            .unwrap();
        let answer = server.wait(&ticket).unwrap();
        let mut expect = evaluate_naive(&graph, q);
        expect.sort_unstable();
        assert_eq!(answer.pairs, expect, "server answer diverged on {q:?}");
    }

    // The split query's answer records the split route — the explained
    // route equals the executed one through the server path.
    let ticket = server
        .submit_parsed(split_query.clone(), QueryBudget::default())
        .unwrap();
    let answer = server.wait(&ticket).unwrap();
    assert_eq!(answer.route, Some(EvalRoute::Split));
    assert_eq!(answer.route, Some(explained.plan.route));

    // Metrics: the split histogram exists, and planner decisions count
    // one per evaluated route (the repeat was a result-cache hit, which
    // never reaches the planner).
    let json = server.metrics_json();
    assert!(json.contains("\"split\":{\"count\":1"), "{json}");
    assert!(json.contains("\"fastpath\":{\"count\":1"), "{json}");
    let decisions = json
        .split("\"decisions\":{")
        .nth(1)
        .and_then(|s| s.split('}').next())
        .unwrap_or_default();
    assert!(decisions.contains("\"split\":1"), "{json}");
    assert!(decisions.contains("\"fastpath\":1"), "{json}");
    assert!(decisions.contains("\"bitparallel\":1"), "{json}");

    assert!(
        server
            .metrics()
            .completed
            .load(std::sync::atomic::Ordering::Relaxed)
            >= 4
    );
    server.shutdown();
}

/// An expression past the one-word state mask with a rare mandatory
/// factor takes the split route server-side too: its two-word tables
/// go through the ordinary bit-parallel-against-split cost comparison,
/// and completing two anchored sides from the one rare edge wins.
#[test]
fn oversized_split_queries_avoid_the_fallback_scan() {
    let graph = rare_label_graph();
    let ring = Ring::build(&graph, RingOptions::default());
    // (a?){70}/b/c*: 72 positions, state sets of two words.
    let mut prefix = Regex::Opt(Box::new(Regex::label(0)));
    for _ in 1..70 {
        prefix = Regex::concat(prefix, Regex::Opt(Box::new(Regex::label(0))));
    }
    let expr = Regex::concat(Regex::concat(prefix, Regex::label(1)), star(2));
    let query = RpqQuery::new(Term::Var, expr, Term::Var);
    let expected = evaluate_naive(&graph, &query);

    let explained = rpq_core::explain::explain(&ring, &query).unwrap();
    assert_eq!(explained.plan.route, EvalRoute::Split);

    let server = RpqServer::start(
        Arc::new(IndexSource::id_only(ring)),
        ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let ticket = server.submit_parsed(query, QueryBudget::default()).unwrap();
    let answer = server.wait(&ticket).unwrap();
    assert_eq!(answer.route, Some(EvalRoute::Split));
    let mut expect = expected;
    expect.sort_unstable();
    assert_eq!(answer.pairs, expect);
    server.shutdown();
}

/// Forced routes travel through `EngineOptions`, not the server API —
/// but a worker evaluating under a node budget on the split route must
/// surface `BudgetExceeded` like any other route.
#[test]
fn split_route_respects_server_budgets() {
    let graph = rare_label_graph();
    let ring = Ring::build(&graph, RingOptions::default());
    let server = RpqServer::start(
        Arc::new(IndexSource::id_only(ring)),
        ServerConfig {
            workers: 1,
            result_cache_bytes: 0,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let query = RpqQuery::new(
        Term::Var,
        Regex::concat(Regex::concat(star(0), Regex::label(1)), star(2)),
        Term::Var,
    );
    let ticket = server
        .submit_parsed(
            query,
            QueryBudget {
                node_budget: Some(2),
                ..QueryBudget::default()
            },
        )
        .unwrap();
    assert!(matches!(
        server.wait(&ticket),
        Err(rpq_server::RpqError::BudgetExceeded { .. })
    ));
    let json = server.metrics_json();
    assert!(json.contains("\"budget_exceeded\":1"), "{json}");
    server.shutdown();
}

/// Sanity: the engine options a worker builds leave route forcing off,
/// so server planning is always natural.
#[test]
fn default_engine_options_do_not_force_routes() {
    assert!(EngineOptions::default().forced_route.is_none());
}
