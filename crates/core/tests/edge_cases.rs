//! Torture and corner-case tests for the RPQ engine: degenerate graphs,
//! degenerate expressions, option extremes — every case cross-checked
//! against the naive oracle where results exist.

use automata::ast::{Lit, Regex};
use ring::ring::RingOptions;
use ring::{Graph, Ring, Triple};
use rpq_core::oracle::evaluate_naive;
use rpq_core::{EngineOptions, EvalRoute, RpqEngine, RpqQuery, Term};
use std::time::Duration;

fn ring_of(triples: Vec<Triple>) -> (Graph, Ring) {
    let g = Graph::from_triples(triples);
    let r = Ring::build(&g, RingOptions::default());
    (g, r)
}

fn check(g: &Graph, r: &Ring, q: &RpqQuery) {
    let expected = evaluate_naive(g, q);
    let got = RpqEngine::new(r)
        .evaluate(q, &EngineOptions::default())
        .unwrap()
        .sorted_pairs();
    assert_eq!(got, expected, "query {q:?}");
}

#[test]
fn single_self_loop() {
    let (g, r) = ring_of(vec![Triple::new(0, 0, 0)]);
    for e in [
        Regex::label(0),
        Regex::Star(Box::new(Regex::label(0))),
        Regex::Plus(Box::new(Regex::label(0))),
        Regex::concat(Regex::label(0), Regex::label(1)), // inverse of the loop
        Regex::label(1),
    ] {
        check(&g, &r, &RpqQuery::new(Term::Var, e.clone(), Term::Var));
        check(&g, &r, &RpqQuery::new(Term::Const(0), e.clone(), Term::Var));
        check(&g, &r, &RpqQuery::new(Term::Const(0), e, Term::Const(0)));
    }
}

#[test]
fn two_cycle_closures() {
    // 0 <-> 1 with one label; closures must terminate and dedup.
    let (g, r) = ring_of(vec![Triple::new(0, 0, 1), Triple::new(1, 0, 0)]);
    let star = Regex::Star(Box::new(Regex::label(0)));
    check(&g, &r, &RpqQuery::new(Term::Var, star.clone(), Term::Var));
    // Deep nesting: ((a*)*)* is still a*.
    let deep = Regex::Star(Box::new(Regex::Star(Box::new(star))));
    check(&g, &r, &RpqQuery::new(Term::Var, deep, Term::Var));
}

#[test]
fn epsilon_and_empty_class_expressions() {
    let (g, r) = ring_of(vec![Triple::new(0, 0, 1), Triple::new(1, 1, 2)]);
    // ε: only zero-length paths — the diagonal over existing nodes.
    check(&g, &r, &RpqQuery::new(Term::Var, Regex::Epsilon, Term::Var));
    check(
        &g,
        &r,
        &RpqQuery::new(Term::Const(1), Regex::Epsilon, Term::Var),
    );
    check(
        &g,
        &r,
        &RpqQuery::new(Term::Const(0), Regex::Epsilon, Term::Const(1)),
    );
    // ε? and ε* are still ε.
    check(
        &g,
        &r,
        &RpqQuery::new(Term::Var, Regex::Opt(Box::new(Regex::Epsilon)), Term::Var),
    );
}

#[test]
fn unknown_label_in_expression() {
    // Label 7 doesn't exist in a 2-predicate graph's completed alphabet
    // of size 4 — but ids up to the alphabet bound must simply match
    // nothing rather than error.
    let (g, r) = ring_of(vec![Triple::new(0, 0, 1), Triple::new(0, 1, 1)]);
    let q = RpqQuery::new(Term::Var, Regex::label(3), Term::Var); // ^1
    check(&g, &r, &q);
}

#[test]
fn star_height_and_alternation_blowup() {
    let (g, r) = ring_of(vec![
        Triple::new(0, 0, 1),
        Triple::new(1, 1, 2),
        Triple::new(2, 0, 3),
        Triple::new(3, 1, 0),
    ]);
    // (a|b)*/(b|a)*/(a|b)* — heavily redundant, must still be exact.
    let ab = || Regex::alt(Regex::label(0), Regex::label(1));
    let e = Regex::concat(
        Regex::concat(
            Regex::Star(Box::new(ab())),
            Regex::Star(Box::new(Regex::alt(Regex::label(1), Regex::label(0)))),
        ),
        Regex::Star(Box::new(ab())),
    );
    check(&g, &r, &RpqQuery::new(Term::Var, e, Term::Var));
}

#[test]
fn negated_class_of_everything() {
    let (g, r) = ring_of(vec![Triple::new(0, 0, 1), Triple::new(1, 1, 0)]);
    // Excluding the whole completed alphabet matches nothing.
    let all: Vec<u64> = (0..4).collect();
    let q = RpqQuery::new(Term::Var, Regex::Literal(Lit::NegClass(all)), Term::Var);
    check(&g, &r, &q);
    // Excluding nothing matches every edge.
    let q = RpqQuery::new(
        Term::Var,
        Regex::Literal(Lit::NegClass(vec![99])),
        Term::Var,
    );
    check(&g, &r, &q);
}

#[test]
fn limit_one_and_zero_timeout() {
    let (_, r) = ring_of(vec![
        Triple::new(0, 0, 1),
        Triple::new(0, 0, 2),
        Triple::new(0, 0, 3),
    ]);
    let mut engine = RpqEngine::new(&r);
    let q = RpqQuery::new(Term::Const(0), Regex::label(0), Term::Var);
    let out = engine
        .evaluate(
            &q,
            &EngineOptions {
                limit: 1,
                ..Default::default()
            },
        )
        .unwrap();
    assert_eq!(out.pairs.len(), 1);
    assert!(out.truncated);

    // A zero timeout must terminate quickly and flag itself (tiny queries
    // may still finish before the first deadline check — either way, no
    // hang and no wrong pairs).
    let big: Vec<Triple> = (0..2000)
        .map(|i| Triple::new(i % 500, 0, (i * 7 + 1) % 500))
        .collect();
    let (_, r2) = ring_of(big);
    let mut engine2 = RpqEngine::new(&r2);
    let q = RpqQuery::new(Term::Var, Regex::Star(Box::new(Regex::label(0))), Term::Var);
    let out = engine2
        .evaluate(
            &q,
            &EngineOptions {
                timeout: Some(Duration::ZERO),
                forced_route: Some(EvalRoute::BitParallel),
                ..Default::default()
            },
        )
        .unwrap();
    assert!(out.timed_out || out.pairs.len() <= 1_000_000);
}

#[test]
fn isolated_constant_nodes() {
    // Node 5 exists in the universe but has no edges.
    let g = Graph::new(vec![Triple::new(0, 0, 1)], 6, 1);
    let r = Ring::build(&g, RingOptions::default());
    let mut engine = RpqEngine::new(&r);
    // Nullable query anchored at an edge-free node: no (5,5) because the
    // node does not occur in the graph.
    let q = RpqQuery::new(
        Term::Const(5),
        Regex::Star(Box::new(Regex::label(0))),
        Term::Var,
    );
    let out = engine.evaluate(&q, &EngineOptions::default()).unwrap();
    assert!(out.pairs.is_empty());
    // Same against the oracle.
    assert_eq!(evaluate_naive(&g, &q), vec![]);
}

#[test]
fn parallel_edges_and_multigraph_labels() {
    // Several labels between the same pair; set semantics must not
    // duplicate the pair.
    let (g, r) = ring_of(vec![
        Triple::new(0, 0, 1),
        Triple::new(0, 1, 1),
        Triple::new(0, 2, 1),
    ]);
    let e = Regex::alt(
        Regex::alt(Regex::label(0), Regex::label(1)),
        Regex::label(2),
    );
    check(&g, &r, &RpqQuery::new(Term::Var, e.clone(), Term::Var));
    let got = RpqEngine::new(&r)
        .evaluate(
            &RpqQuery::new(Term::Var, e, Term::Var),
            &EngineOptions::default(),
        )
        .unwrap();
    assert_eq!(got.pairs.len(), 1);
}

#[test]
fn sixty_three_positions_is_accepted() {
    // The documented maximum: 63 literal occurrences.
    let (g, r) = ring_of(vec![Triple::new(0, 0, 0)]);
    let mut e = Regex::label(0);
    for _ in 0..62 {
        e = Regex::concat(e, Regex::label(0));
    }
    assert_eq!(e.literal_count(), 63);
    let q = RpqQuery::new(Term::Const(0), e, Term::Const(0));
    // A 63-step loop walk on a self-loop: reachable.
    let out = RpqEngine::new(&r)
        .evaluate(&q, &EngineOptions::default())
        .unwrap();
    assert_eq!(out.pairs, vec![(0, 0)]);
    check(&g, &r, &q);
}

#[test]
fn bipartite_alternating_labels() {
    // Strict alternation a/b/a/b…: parity must be respected.
    let (g, r) = ring_of(vec![
        Triple::new(0, 0, 1),
        Triple::new(1, 1, 2),
        Triple::new(2, 0, 3),
        Triple::new(3, 1, 4),
    ]);
    let ab = Regex::concat(Regex::label(0), Regex::label(1));
    let e = Regex::Plus(Box::new(ab));
    check(&g, &r, &RpqQuery::new(Term::Var, e.clone(), Term::Var));
    let out = RpqEngine::new(&r)
        .evaluate(
            &RpqQuery::new(Term::Const(0), e, Term::Var),
            &EngineOptions::default(),
        )
        .unwrap();
    assert_eq!(out.sorted_pairs(), vec![(0, 2), (0, 4)]);
}

#[test]
fn node_budget_boundaries() {
    // Parallel labels into the same target: (a, p|q, ?y) has exactly ONE
    // distinct answer pair reachable through two edges. A budget of 1 is
    // enough — re-finding the same pair must not exhaust it.
    let (_, r) = ring_of(vec![Triple::new(0, 0, 1), Triple::new(0, 1, 1)]);
    let disj = Regex::alt(Regex::label(0), Regex::label(1));
    let q = RpqQuery::new(Term::Const(0), disj.clone(), Term::Var);
    let budget1 = EngineOptions {
        node_budget: Some(1),
        ..Default::default()
    };
    let out = RpqEngine::new(&r).evaluate(&q, &budget1).unwrap();
    assert!(!out.budget_exhausted, "duplicate pair must not count twice");
    assert_eq!(out.sorted_pairs(), vec![(0, 1)]);

    // The same shape through the general engine (forced traversal).
    let out = RpqEngine::new(&r)
        .evaluate(
            &q,
            &EngineOptions {
                forced_route: Some(EvalRoute::BitParallel),
                node_budget: Some(8),
                ..Default::default()
            },
        )
        .unwrap();
    assert!(!out.budget_exhausted);
    assert_eq!(out.sorted_pairs(), vec![(0, 1)]);

    // A chain the budget genuinely cannot cover is flagged, and the
    // pairs that were found stay sound (a subset of the oracle's).
    let (g, r) = ring_of((0..30).map(|i| Triple::new(i, 0, i + 1)).collect());
    let q = RpqQuery::new(Term::Var, Regex::Plus(Box::new(Regex::label(0))), Term::Var);
    let out = RpqEngine::new(&r)
        .evaluate(
            &q,
            &EngineOptions {
                node_budget: Some(3),
                ..Default::default()
            },
        )
        .unwrap();
    assert!(out.budget_exhausted);
    let full = evaluate_naive(&g, &q);
    for pair in out.sorted_pairs() {
        assert!(full.contains(&pair), "budget-aborted answers must be sound");
    }
}

/// A deadline is honoured to within one frontier chunk's expansion,
/// however wide the chunks have grown: the clock is read between chunks,
/// not only every 64 replayed steps. A closure into the root of a
/// four-ary in-tree with cross edges (87 381 nodes, ids scrambled), on a
/// ring, four shards and a ring plus delta, with a deadline that passes
/// while chunks are still narrow (1 ms) and one that passes among the
/// widest (half the closure's own time).
#[test]
fn timeout_overshoot_is_bounded() {
    use ring::sharded::ShardedIndex;
    use rpq_core::{ShardedSource, TripleSource};
    use std::sync::Arc;
    use std::time::Instant;

    // Unoptimized builds take about ten times as long over a chunk (the
    // widest take 6 ms optimized, 66 ms not).
    let bound = Duration::from_millis(if cfg!(debug_assertions) { 400 } else { 25 });
    const NODES: u64 = 87_381;
    let id = |level_start: u64, j: u64| ((level_start + j) * 48_271) % NODES;
    let mut triples = Vec::new();
    let (mut start, mut width) = (0u64, 1u64);
    while start + width < NODES {
        let below = start + width;
        for j in 0..4 * width {
            triples.push(Triple::new(id(below, j), 0, id(start, j / 4)));
            triples.push(Triple::new(id(below, j), 0, id(start, (j * 7 + 3) % width)));
        }
        (start, width) = (below, 4 * width);
    }
    let graph = Graph::from_triples(triples);
    assert_eq!(graph.n_nodes(), NODES);

    let ring = Ring::build(&graph, RingOptions::default());
    let shards = ShardedIndex::build(&graph, 4, RingOptions::default());
    let sharded = ShardedSource::new(shards.into_shards().into_iter().map(Arc::new).collect());
    let (late, early): (Vec<_>, Vec<_>) =
        (graph.triples().iter().enumerate()).partition(|(i, _)| i % 5 == 0);
    let base = Graph::new(early.into_iter().map(|(_, t)| *t).collect(), NODES, 1);
    let store = ring::TripleStore::new(base).with_auto_compact_ratio(None);
    late.into_iter().for_each(|(_, t)| store.insert(*t));
    store.commit();
    let snapshot = store.snapshot();

    let closure = RpqQuery::new(
        Term::Var,
        Regex::Star(Box::new(Regex::label(0))),
        Term::Const(id(0, 0)),
    );
    let kinds: [(&str, &dyn TripleSource); 3] = [
        ("ring", &ring),
        ("4 shards", &sharded),
        ("ring + delta", &*snapshot),
    ];
    for (kind, source) in kinds {
        let mut engine = RpqEngine::over(source);
        let started = Instant::now();
        let full = engine
            .evaluate(&closure, &EngineOptions::default())
            .unwrap();
        let whole = started.elapsed();
        assert!(!full.timed_out && full.stats.product_nodes >= 50_000);
        for timeout in [Duration::from_millis(1), whole / 2] {
            let opts = EngineOptions {
                timeout: Some(timeout),
                ..EngineOptions::default()
            };
            let started = Instant::now();
            let out = engine.evaluate(&closure, &opts).unwrap();
            let took = started.elapsed();
            assert!(
                out.timed_out,
                "{kind}: {timeout:?} of {whole:?} passed unnoticed"
            );
            assert!(
                took <= timeout + bound,
                "{kind}: a {timeout:?} timeout returned after {took:?}"
            );
        }
    }
}
