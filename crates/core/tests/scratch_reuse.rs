//! Scratch reuse identity: an [`EngineScratch`] carries no meaning from
//! one source to the next.
//!
//! One scratch is attached, in turn, to a ring whose node universe is
//! just past a power of two, a 4-shard partition of the same graph, a
//! ring + delta snapshot whose universe outgrew its ring, a much smaller
//! ring, and the first ring again. On every source the engine built
//! around the travelling scratch must be **bit-identical** to a freshly
//! constructed one: raw pair stream (so truncation points match), flags,
//! trace, counters and plan — on all four forced routes, sequentially
//! and at every `RPQ_TEST_THREADS` fan-out.
//!
//! The second half pins what [`RpqEngine::working_space_bytes`] reports
//! on a pure, a delta and a sharded source.

use std::sync::Arc;

use automata::Regex;
use ring::ring::RingOptions;
use ring::sharded::ShardedIndex;
use ring::store::TripleStore;
use ring::{Graph, Ring, Triple};
use rpq_core::{
    EngineOptions, EngineScratch, EvalRoute, RpqEngine, RpqQuery, ShardedSource, Term, TripleSource,
};
use workload::{GraphGen, GraphGenConfig, QueryGen};

/// Sequential, plus the fan-outs CI's parallel differential job sets.
fn test_threads() -> Vec<usize> {
    let fanned = match std::env::var("RPQ_TEST_THREADS") {
        Ok(v) => v
            .split(',')
            .filter_map(|s| s.trim().parse::<usize>().ok())
            .filter(|&t| t > 1)
            .collect(),
        Err(_) => vec![2, 4],
    };
    std::iter::once(1).chain(fanned).collect()
}

fn star(l: u64) -> Regex {
    Regex::Star(Box::new(Regex::label(l)))
}

fn workload_graph(n_nodes: u64, n_edges: usize, seed: u64) -> Graph {
    GraphGen::new(GraphGenConfig {
        n_nodes,
        n_preds: 4,
        n_edges,
        pred_zipf: 1.1,
        node_skew: 0.8,
        seed,
    })
    .generate()
}

/// The differential corpus: Table 1 pattern instantiations plus a
/// closure and the canonical splittable shape.
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
    queries
}

/// Runs `queries` over `source` on an engine built around `scratch` and,
/// query by query, on a fresh engine; returns the scratch.
fn assert_matches_fresh<S: TripleSource>(
    source: &S,
    queries: &[RpqQuery],
    scratch: EngineScratch,
    stage: &str,
) -> EngineScratch {
    let mut reused = RpqEngine::with_scratch(source, scratch);
    let mut checked = 0usize;
    for query in queries {
        for forced in EvalRoute::ALL {
            for threads in test_threads() {
                for limit in [EngineOptions::default().limit, 3] {
                    let opts = EngineOptions {
                        forced_route: Some(forced),
                        collect_trace: true,
                        intra_query_threads: threads,
                        parallel_min_frontier: 2,
                        limit,
                        ..EngineOptions::default()
                    };
                    let context = format!(
                        "{stage}: {query:?}, forced {forced:?}, {threads} threads, limit {limit}"
                    );
                    let want = RpqEngine::over(source)
                        .evaluate(query, &opts)
                        .unwrap_or_else(|e| panic!("{context}: fresh engine failed: {e}"));
                    let got = reused
                        .evaluate(query, &opts)
                        .unwrap_or_else(|e| panic!("{context}: reused scratch failed: {e}"));
                    assert_eq!(got.pairs, want.pairs, "{context}: pair stream");
                    assert_eq!(
                        (got.truncated, got.timed_out, got.budget_exhausted),
                        (want.truncated, want.timed_out, want.budget_exhausted),
                        "{context}: flags"
                    );
                    assert_eq!(got.trace, want.trace, "{context}: trace");
                    assert_eq!(got.stats, want.stats, "{context}: counters");
                    assert_eq!(
                        format!("{:?}", got.plan),
                        format!("{:?}", want.plan),
                        "{context}: plan"
                    );
                    checked += 1;
                }
            }
        }
    }
    assert!(
        checked >= 100,
        "{stage}: corpus shrank to {checked} combinations"
    );
    reused.into_scratch()
}

#[test]
fn one_scratch_through_every_kind_of_source_matches_fresh_engines() {
    // 2^6 + 3 nodes: the last leaves of the L_s node table sit in a
    // sparsely occupied subtree.
    let big = workload_graph(67, 340, 0x5C4A);
    let big_ring = Ring::build(&big, RingOptions::default());
    assert_eq!(big_ring.n_nodes(), 67);
    let big_queries = corpus(&big, 51);

    let sharded = ShardedSource::new(
        ShardedIndex::build(&big, 4, RingOptions::default())
            .into_shards()
            .into_iter()
            .map(Arc::new)
            .collect(),
    );
    assert_eq!(sharded.n_shards(), 4);

    // Live edits on top of the same graph, some on nodes past the ring's
    // universe (so the merged masks must outgrow what the shards needed).
    let store = TripleStore::new(big.clone()).with_auto_compact_ratio(None);
    for i in 0..12u64 {
        store.insert(Triple::new(67 + i, 0, i));
        store.insert(Triple::new(i, 1, 67 + (i * 5) % 12));
    }
    for t in big.triples().iter().step_by(9) {
        store.delete(*t);
    }
    store.commit();
    let snapshot = store.snapshot();
    assert!(snapshot.n_nodes() > big_ring.n_nodes());
    let mut delta_queries = big_queries.clone();
    delta_queries.push(RpqQuery::new(
        Term::Const(70),
        Regex::Plus(Box::new(Regex::label(0))),
        Term::Var,
    ));

    let small = workload_graph(13, 40, 0x0DD5);
    let small_ring = Ring::build(&small, RingOptions::default());
    let small_queries = corpus(&small, 52);

    let mut scratch = EngineScratch::default();
    assert_eq!(scratch.size_bytes(), 0);
    scratch = assert_matches_fresh(&big_ring, &big_queries, scratch, "ring");
    let after_ring = scratch.size_bytes();
    assert!(after_ring > 0);
    scratch = assert_matches_fresh(&sharded, &big_queries, scratch, "4 shards");
    scratch = assert_matches_fresh(&*snapshot, &delta_queries, scratch, "ring + delta");
    let after_delta = scratch.size_bytes();
    assert!(
        after_delta > after_ring,
        "the layered stages added their table"
    );
    scratch = assert_matches_fresh(&small_ring, &small_queries, scratch, "smaller ring");
    assert!(
        scratch.size_bytes() >= after_delta,
        "a smaller source keeps the tables it was handed"
    );
    assert_matches_fresh(&big_ring, &big_queries, scratch, "first ring again");
}

/// `working_space_bytes` reports the tables the routes run so far have
/// allocated — the per-node masks `D[s]` on every source, plus `B[v]` on
/// a pure ring, nothing before the first traversal — plus, on every
/// source, the buffers of the one traversal.
#[test]
fn working_space_counts_the_tables_actually_allocated() {
    // 8 bytes of value and 4 of stamp per mask cell.
    const CELL: usize = 12;
    let graph = workload_graph(67, 340, 0x5C4A);
    let ring = Ring::build(&graph, RingOptions::default());
    let closure = RpqQuery::new(Term::Var, star(0), Term::Const(3));
    let bit_parallel = EngineOptions {
        forced_route: Some(EvalRoute::BitParallel),
        ..EngineOptions::default()
    };

    let mut pure = RpqEngine::new(&ring);
    assert_eq!(pure.working_space_bytes(), 0);
    // A §5 fast path reads the ring directly: still no tables.
    let fast = EngineOptions {
        forced_route: Some(EvalRoute::FastPath),
        ..EngineOptions::default()
    };
    let single = RpqQuery::new(Term::Var, Regex::label(0), Term::Const(3));
    let out = pure.evaluate(&single, &fast).unwrap();
    assert_eq!(out.plan.unwrap().route, EvalRoute::FastPath);
    assert_eq!(pure.working_space_bytes(), 0);
    pure.evaluate(&closure, &bit_parallel).unwrap();
    let tables = CELL * (ring.l_p().node_table_len() + ring.n_nodes() as usize);
    let pure_bytes = pure.working_space_bytes();
    assert!(
        pure_bytes > tables,
        "{pure_bytes} B must cover `B[v]`, the per-node masks ({tables} B) and the \
         traversal buffers"
    );
    assert_eq!(pure.into_scratch().table_bytes(), tables);

    let store = TripleStore::new(graph.clone()).with_auto_compact_ratio(None);
    store.insert(Triple::new(80, 0, 3));
    store.commit();
    let snapshot = store.snapshot();
    let mut layered = RpqEngine::over(&*snapshot);
    layered.evaluate(&closure, &bit_parallel).unwrap();
    let per_node = CELL * snapshot.n_nodes() as usize;
    assert!(layered.working_space_bytes() > per_node);
    assert_eq!(
        layered.into_scratch().table_bytes(),
        per_node,
        "a delta source allocates the per-node masks and no other table"
    );

    let sharded = ShardedSource::new(
        ShardedIndex::build(&graph, 4, RingOptions::default())
            .into_shards()
            .into_iter()
            .map(Arc::new)
            .collect(),
    );
    let mut gathered = RpqEngine::over(&sharded);
    gathered.evaluate(&closure, &bit_parallel).unwrap();
    let per_node = CELL * ring.n_nodes() as usize;
    assert!(gathered.working_space_bytes() > per_node);
    assert_eq!(
        gathered.into_scratch().table_bytes(),
        per_node,
        "a sharded source allocates the per-node masks and no other table"
    );
}

/// What a traversal leaves behind besides its two tables is bounded by
/// its widest level and its widest chunk, not by the closure: a
/// Table-1-shaped giant closure — a rare label, then the closure of the
/// commonest one, into the hub of a graph shaped like the benchmark's
/// (2^17 nodes, 128 predicates, 2^20 edges; 73 610 product nodes) — keeps
/// 2 664 704 B of level and chunk buffers. With chunks of at most 1024
/// items the parent commit kept `PARENT_BYTES` for the same query; chunks
/// of up to 8192 would have kept 3 988 992 B in the parent's layouts
/// (`usize` positions, 40-byte hits), and keep what they do because
/// every per-item and per-edge record of a chunk holds 32-bit positions.
#[test]
fn chunk_buffers_are_bounded() {
    const PARENT_BYTES: usize = 1_248_832;
    const BOUND: usize = 2_700_000;
    let graph = GraphGen::new(GraphGenConfig {
        n_nodes: 1 << 17,
        n_preds: 128,
        n_edges: 1 << 20,
        pred_zipf: 1.0,
        node_skew: 2.0,
        seed: 0x7AB1E,
    })
    .generate();
    let ring = Ring::build(&graph, RingOptions::default());
    let giant = RpqQuery::new(
        Term::Var,
        Regex::concat(Regex::label(100), star(0)),
        Term::Const(0),
    );
    let mut engine = RpqEngine::new(&ring);
    let out = engine.evaluate(&giant, &EngineOptions::default()).unwrap();
    assert!(
        out.stats.product_nodes >= 50_000 && !out.truncated,
        "the closure shrank to {} product nodes",
        out.stats.product_nodes
    );
    let scratch = engine.into_scratch();
    let buffers = scratch.size_bytes() - scratch.table_bytes();
    assert!(
        buffers <= BOUND,
        "{buffers} B of traversal buffers ({PARENT_BYTES} B with 1024-item chunks)"
    );
    // A second closure into another hub grows nothing.
    let mut engine = RpqEngine::with_scratch(&ring, scratch);
    let again = RpqQuery::new(Term::Var, star(0), Term::Const(1));
    engine.evaluate(&again, &EngineOptions::default()).unwrap();
    let scratch = engine.into_scratch();
    assert!(scratch.size_bytes() - scratch.table_bytes() <= BOUND);
}
