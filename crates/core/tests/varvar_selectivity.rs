//! Variable-to-variable work is proportional to the answer — measured by
//! the engine's own counters, never by a clock.
//!
//! The fixture hides one 50-edge predicate among 20 000 nodes that never
//! carry it. `?x p+ ?y` and `?x (p/q*) ?y` touch 75 nodes at most, so on
//! every kind of source — a bare ring, four shards, ring + delta — the
//! two-pass evaluation may take only a few BFS steps per product node it
//! visits (no step per node of the universe), and under a small result
//! limit pass 1 may collect only as many anchors as the limit can use.
//!
//! `RPQ_TEST_THREADS` (comma-separated) adds thread counts, like the
//! parallel differential suite: the counters are bit-identical across
//! them, so the bounds must hold there too.

use std::sync::Arc;

use automata::glushkov::INITIAL;
use automata::Regex;
use ring::ring::RingOptions;
use ring::sharded::ShardedIndex;
use ring::store::TripleStore;
use ring::{Graph, Id, Ring, Triple};
use rpq_core::{
    Direction, EngineOptions, EvalRoute, QueryOutput, RpqEngine, RpqQuery, ShardedSource, Term,
    TripleSource,
};

const P: Id = 0;
const Q: Id = 1;
const HEAVY: Id = 2;
/// Two-edge `p` chains `3k → 3k+1 → 3k+2`.
const CHAINS: Id = 25;
/// The first node of the 20 000-node `HEAVY` chain.
const HEAVY_FROM: Id = 100;
const HEAVY_NODES: Id = 20_000;

fn t(s: Id, p: Id, o: Id) -> Triple {
    Triple::new(s, p, o)
}

/// The `p` and `q` edges: 25 two-edge `p` chains, and a `q` edge closing
/// the first ten back to their head.
fn rare_edges() -> Vec<Triple> {
    let mut edges = Vec::new();
    for k in 0..CHAINS {
        edges.push(t(3 * k, P, 3 * k + 1));
        edges.push(t(3 * k + 1, P, 3 * k + 2));
    }
    edges.extend((0..10).map(|k| t(3 * k + 2, Q, 3 * k)));
    edges
}

fn heavy_edges() -> impl Iterator<Item = Triple> {
    (HEAVY_FROM..HEAVY_FROM + HEAVY_NODES - 1).map(|v| t(v, HEAVY, v + 1))
}

fn graph() -> Graph {
    let mut triples = rare_edges();
    assert_eq!(triples.iter().filter(|e| e.p == P).count(), 50);
    triples.extend(heavy_edges());
    Graph::from_triples(triples)
}

fn var_var(expr: &Regex) -> RpqQuery {
    RpqQuery::new(Term::Var, expr.clone(), Term::Var)
}

/// `(expression, labels in it, expected answer)`.
type Case = (Regex, u64, Vec<(Id, Id)>);

/// `?x p+ ?y` and `?x (p/q*) ?y`, with their answers in closed form.
fn queries() -> [Case; 2] {
    let mut p_plus = Vec::new();
    let mut p_q_star = Vec::new();
    for k in 0..CHAINS {
        let (a, b, c) = (3 * k, 3 * k + 1, 3 * k + 2);
        p_plus.extend([(a, b), (a, c), (b, c)]);
        p_q_star.extend([(a, b), (b, c)]);
        if k < 10 {
            p_q_star.push((b, a)); // b -p-> c -q-> a
        }
    }
    p_plus.sort_unstable();
    p_q_star.sort_unstable();
    let p_q = Regex::concat(Regex::label(P), Regex::Star(Box::new(Regex::label(Q))));
    [
        (Regex::Plus(Box::new(Regex::label(P))), 1, p_plus),
        (p_q, 2, p_q_star),
    ]
}

fn test_threads() -> Vec<usize> {
    let mut threads = vec![1];
    if let Ok(v) = std::env::var("RPQ_TEST_THREADS") {
        threads.extend(v.split(',').filter_map(|s| s.trim().parse::<usize>().ok()));
    }
    threads
}

fn evaluate(source: &impl TripleSource, query: &RpqQuery, opts: &EngineOptions) -> QueryOutput {
    let out = RpqEngine::over(source).evaluate(query, opts).unwrap();
    assert_eq!(
        out.plan.as_ref().map(|p| p.route),
        Some(EvalRoute::BitParallel)
    );
    assert!(!out.timed_out && !out.budget_exhausted);
    out
}

/// Runs `check` over the three kinds of source, each holding exactly
/// [`graph`]'s triples.
fn on_every_source(mut check: impl FnMut(&str, &dyn Fn(&RpqQuery, &EngineOptions) -> QueryOutput)) {
    let graph = graph();

    let ring = Ring::build(&graph, RingOptions::default());
    check("pure", &|e, o| evaluate(&ring, e, o));

    let idx = ShardedIndex::build(&graph, 4, RingOptions::default());
    let sharded = ShardedSource::new(idx.into_shards().into_iter().map(Arc::new).collect());
    assert!(sharded.shards().is_some());
    check("4-shard", &|e, o| evaluate(&sharded, e, o));

    // Ring + delta: the base lacks the last five chains and carries three
    // stray `p` edges inside the heavy chain; one commit inserts the
    // former and deletes the latter.
    let late: Vec<Triple> = rare_edges()
        .into_iter()
        .filter(|e| e.p == P && e.s >= 3 * (CHAINS - 5))
        .collect();
    let stray: Vec<Triple> = (0..3).map(|i| t(HEAVY_FROM + 50 * i, P, 7)).collect();
    let base: Vec<Triple> = rare_edges()
        .into_iter()
        .filter(|e| !late.contains(e))
        .chain(heavy_edges())
        .chain(stray.iter().copied())
        .collect();
    let store = TripleStore::new(Graph::from_triples(base)).with_auto_compact_ratio(None);
    late.iter().for_each(|&e| store.insert(e));
    stray.iter().for_each(|&e| store.delete(e));
    store.commit();
    let snapshot = store.snapshot();
    assert!(snapshot.delta().is_some());
    check("ring+delta", &|e, o| evaluate(&*snapshot, e, o));
}

#[test]
fn steps_follow_the_product_nodes_not_the_universe() {
    on_every_source(|source, run| {
        for threads in test_threads() {
            let opts = EngineOptions {
                forced_route: Some(EvalRoute::BitParallel),
                intra_query_threads: threads,
                parallel_min_frontier: 2,
                ..EngineOptions::default()
            };
            for (expr, labels, expected) in queries() {
                let out = run(&var_var(&expr), &opts);
                assert_eq!(out.pairs, expected, "{source}, {threads} threads: {expr:?}");
                let stats = out.stats;
                assert!(
                    stats.product_nodes < 400,
                    "{source}: {expr:?} left the 75 nodes that carry its labels: {stats:?}"
                );
                assert!(
                    stats.bfs_steps <= 4 * (stats.product_nodes + labels),
                    "{source}, {threads} threads: {expr:?} steps through nodes it never \
                     visits: {stats:?}"
                );
            }
        }
    });
}

#[test]
fn a_small_limit_bounds_the_anchors_collected() {
    const LIMIT: usize = 8;
    on_every_source(|source, run| {
        for threads in test_threads() {
            let opts = EngineOptions {
                forced_route: Some(EvalRoute::BitParallel),
                limit: LIMIT,
                intra_query_threads: threads,
                parallel_min_frontier: 2,
                ..EngineOptions::default()
            };
            for (expr, _, expected) in queries() {
                let out = run(&var_var(&expr), &opts);
                assert!(out.truncated);
                assert_eq!(out.pairs.len(), LIMIT);
                assert!(out.pairs.iter().all(|p| expected.contains(p)));
                assert!(
                    out.stats.product_nodes <= 6 * LIMIT as u64,
                    "{source}, {threads} threads: {expr:?} visited {} product nodes for {LIMIT} \
                     pairs",
                    out.stats.product_nodes
                );
            }
        }
    });
}

/// Bounding pass 1 changes no answer: the reference takes the anchors in
/// the order an *unbounded* pass 1 reports them — BFS level by BFS level,
/// a level's nodes visited in ascending order, so not ascending
/// themselves: read off the trace of a run without a limit — replays
/// pass 2 as one anchored query per anchor, and cuts the concatenated
/// reports at the limit — what the two-pass strategy returned before
/// pass 1 knew about limits.
#[test]
fn bounded_pass_one_returns_what_the_unbounded_order_would() {
    on_every_source(|source, run| {
        let unlimited = EngineOptions {
            forced_route: Some(EvalRoute::BitParallel),
            limit: usize::MAX,
            collect_trace: true,
            ..EngineOptions::default()
        };
        for (expr, _, expected) in queries() {
            let full = run(&var_var(&expr), &unlimited);
            assert_eq!(full.pairs, expected);
            let sources_first =
                full.plan.as_ref().and_then(|p| p.direction) == Some(Direction::FromSubject);
            // Every anchor yields a pair and every pair an anchor, and
            // pass 1 — first in the trace — reports each exactly once.
            let mut distinct: Vec<Id> = expected
                .iter()
                .map(|&(s, o)| if sources_first { s } else { o })
                .collect();
            distinct.sort_unstable();
            distinct.dedup();
            let anchors: Vec<Id> = full
                .trace
                .iter()
                .filter(|&&(_, fresh)| fresh & INITIAL != 0)
                .map(|&(v, _)| v)
                .take(distinct.len())
                .collect();
            let mut sorted = anchors.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, distinct, "{source}: anchors of {expr:?}");

            // Pass 2, replayed without a limit: pairs in report order.
            let replay: Vec<(Id, Id)> = anchors
                .iter()
                .flat_map(|&a| {
                    let (s, o) = if sources_first {
                        (Term::Const(a), Term::Var)
                    } else {
                        (Term::Var, Term::Const(a))
                    };
                    run(&RpqQuery::new(s, expr.clone(), o), &unlimited).pairs
                })
                .collect();
            assert_eq!(replay.len(), expected.len());

            for limit in [1, 5, 8, 64, expected.len(), expected.len() + 1] {
                let mut reference = replay[..limit.min(replay.len())].to_vec();
                reference.sort_unstable();
                let opts = EngineOptions {
                    forced_route: Some(EvalRoute::BitParallel),
                    limit,
                    ..EngineOptions::default()
                };
                let out = run(&var_var(&expr), &opts);
                assert_eq!(
                    out.pairs, reference,
                    "{source}: {expr:?} under limit {limit}"
                );
                assert_eq!(out.truncated, replay.len() >= limit);
            }
        }
    });
}
