//! What a limit-bound query returns and what it costs.
//!
//! * The §5 two-step joins from a constant, truncated inside a batch of
//!   256 midpoints, keep the pairs they always kept: the far nodes of a
//!   batch are pushed in ascending order, whatever order the step lists
//!   them in. The expected pairs are pinned literally.
//! * A truncated anchored closure expands about what its limit needs: a
//!   quarter of the limit costs at most half the rank operations, where a
//!   traversal expanding whole chunks pays the same for both.

use std::sync::Arc;

use automata::Regex;
use ring::ring::RingOptions;
use ring::sharded::ShardedIndex;
use ring::{Graph, Id, Ring, Triple};
use rpq_core::{EngineOptions, EvalRoute, RpqEngine, RpqQuery, ShardedSource, Term, TripleSource};

/// Node 0 steps by label 0 to 300 midpoints `1..=300`, and the midpoint
/// `m` steps by label 1 to `1000 − 2m` and `1001 − 2m`: the later a
/// midpoint, the smaller its far nodes. Mirrored into node 2000: the
/// midpoints `2001..=2300` step to it by label 1, and `3000 − 2m'` and
/// `3001 − 2m'` step to `2000 + m'` by label 0.
fn join_graph() -> Graph {
    let mut triples = Vec::new();
    for m in 1..=300u64 {
        triples.push(Triple::new(0, 0, m));
        triples.extend([1000 - 2 * m, 1001 - 2 * m].map(|far| Triple::new(m, 1, far)));
        let mid = 2000 + m;
        triples.push(Triple::new(mid, 1, 2000));
        triples.extend([3000 - 2 * m, 3001 - 2 * m].map(|near| Triple::new(near, 0, mid)));
    }
    Graph::from_triples(triples)
}

fn run(source: &(impl TripleSource + ?Sized), query: &RpqQuery, limit: usize) -> Vec<(Id, Id)> {
    let opts = EngineOptions {
        limit,
        forced_route: Some(EvalRoute::FastPath),
        ..EngineOptions::default()
    };
    let out = RpqEngine::over(source).evaluate(query, &opts).unwrap();
    assert!(out.truncated, "{query:?} at limit {limit} is not truncated");
    out.pairs
}

#[test]
fn two_step_joins_keep_their_truncation() {
    let graph = join_graph();
    let ring = Ring::build(&graph, RingOptions::default());
    let shards = ShardedIndex::build(&graph, 4, RingOptions::default()).into_shards();
    let sharded = ShardedSource::new(shards.into_iter().map(Arc::new).collect());
    let p1_p2 = Regex::concat(Regex::label(0), Regex::label(1));
    let from = RpqQuery::new(Term::Const(0), p1_p2.clone(), Term::Var);
    let into = RpqQuery::new(Term::Var, p1_p2, Term::Const(2000));
    // The first batch holds 512 pairs: the limit falls inside it.
    for (query, expected) in [
        (
            &from,
            [
                (0, 488),
                (0, 489),
                (0, 490),
                (0, 491),
                (0, 492),
                (0, 493),
                (0, 494),
                (0, 495),
                (0, 496),
                (0, 497),
            ],
        ),
        (
            &into,
            [
                (2488, 2000),
                (2489, 2000),
                (2490, 2000),
                (2491, 2000),
                (2492, 2000),
                (2493, 2000),
                (2494, 2000),
                (2495, 2000),
                (2496, 2000),
                (2497, 2000),
            ],
        ),
    ] {
        assert_eq!(run(&ring, query, 10), expected, "{query:?}, ring");
        assert_eq!(run(&sharded, query, 10), expected, "{query:?}, 4 shards");
    }
}

/// A hub with 1000 sources by label 0, each with 16 sources of its own:
/// `(?x, 0*, hub)` reports 1001 nodes in its first two levels and 16 per
/// item of its third, 1000 items wide.
fn fan_in_graph() -> Graph {
    let mut triples = Vec::new();
    for i in 1..=1000u64 {
        triples.push(Triple::new(i, 0, 0));
        triples.extend((0..16).map(|j| Triple::new(1001 + 16 * (i - 1) + j, 0, i)));
    }
    Graph::from_triples(triples)
}

#[test]
fn a_truncated_closure_costs_what_its_limit_needs() {
    let ring = Ring::build(&fan_in_graph(), RingOptions::default());
    let mut engine = RpqEngine::new(&ring);
    let query = RpqQuery::new(
        Term::Var,
        Regex::Star(Box::new(Regex::label(0))),
        Term::Const(0),
    );
    let mut rank_ops = |limit: usize| {
        let opts = EngineOptions {
            limit,
            forced_route: Some(EvalRoute::BitParallel),
            ..EngineOptions::default()
        };
        let out = engine.evaluate(&query, &opts).unwrap();
        assert!(out.truncated && out.pairs.len() == limit);
        out.stats.rank_ops
    };
    // Both limits fall inside the third level: 16 and 250 of its items.
    let (quarter, whole) = (rank_ops(1250), rank_ops(5000));
    assert!(
        2 * quarter <= whole,
        "a quarter of the limit took {quarter} rank operations, the whole {whole}"
    );
}
