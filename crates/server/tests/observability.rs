//! Integration tests of the observability surface: per-answer profiles,
//! the slow-query log under concurrent load, and the Prometheus export.

use std::sync::Arc;
use std::time::Duration;

use ring::ring::RingOptions;
use ring::{Graph, Ring};
use rpq_core::oracle::evaluate_naive;
use rpq_core::RpqQuery;
use rpq_server::{IndexSource, QueryBudget, RpqServer, ServerConfig};
use workload::{GraphGen, GraphGenConfig, QueryGen};

fn workload_graph(seed: u64) -> Graph {
    GraphGen::new(GraphGenConfig {
        n_nodes: 36,
        n_preds: 4,
        n_edges: 170,
        pred_zipf: 1.2,
        node_skew: 0.8,
        seed,
    })
    .generate()
}

fn start(graph: &Graph, config: ServerConfig) -> RpqServer {
    let ring = Ring::build(graph, RingOptions::default());
    RpqServer::start(Arc::new(IndexSource::id_only(ring)), config).unwrap()
}

/// With profiling off (the default), answers carry no profile — the
/// zero-overhead contract starts with not allocating one.
#[test]
fn profiles_are_absent_by_default() {
    let graph = workload_graph(0xF00D);
    let server = start(&graph, ServerConfig::default());
    let answer = server.query_blocking("?x", "0+", "?y").unwrap();
    assert!(answer.profile.is_none());
    assert!(server.slow_log().is_empty());
    server.shutdown();
}

/// With `config.profile` on, every answer carries a profile whose
/// server-side phases are filled in: queue wait and compile time on an
/// evaluated answer, a `cache_hit` marker on a result-cache hit — and
/// the answers themselves are identical to an unprofiled server's.
#[test]
fn profiles_attach_and_answers_are_unchanged() {
    let graph = workload_graph(0xF00D);
    let plain = start(&graph, ServerConfig::default());
    let profiled = start(
        &graph,
        ServerConfig {
            profile: true,
            ..ServerConfig::default()
        },
    );

    for (s, expr, o) in [("?x", "0+", "?y"), ("0", "0/1?", "?y"), ("?x", "2", "3")] {
        let a = plain.query_blocking(s, expr, o).unwrap();
        let b = profiled.query_blocking(s, expr, o).unwrap();
        assert_eq!(a.pairs, b.pairs, "profiling changed the answer to {expr}");
        assert!(a.profile.is_none());
        let p = b
            .profile
            .as_ref()
            .expect("profiled server must attach a profile");
        assert_eq!(p.cache_hit, Some(false));
        assert!(p.queue_wait_us.is_some(), "queue wait must be measured");
        assert!(p.compile_us.is_some(), "compile time must be measured");
    }

    // A repeat of the first key is a result-cache hit, answered at
    // submit: still profiled, marked as a hit, no queue wait and no
    // execution phases to report.
    let hit = profiled.query_blocking("?x", "0+", "?y").unwrap();
    let p = hit.profile.as_ref().expect("cache hits are profiled too");
    assert_eq!(p.cache_hit, Some(true));
    assert_eq!(p.queue_wait_us, Some(0));
    assert_eq!(p.exec_us, 0);

    plain.shutdown();
    profiled.shutdown();
}

/// Cached answers must never leak a stale profile: the profile describes
/// *this* request's timings, so the one attached to a hit is freshly
/// built, not the insert-time one.
#[test]
fn cached_answers_get_fresh_profiles() {
    let graph = workload_graph(0xF00D);
    let server = start(
        &graph,
        ServerConfig {
            profile: true,
            ..ServerConfig::default()
        },
    );
    let first = server.query_blocking("?x", "0+", "?y").unwrap();
    let second = server.query_blocking("?x", "0+", "?y").unwrap();
    assert_eq!(first.pairs, second.pairs);
    assert_eq!(first.profile.as_ref().unwrap().cache_hit, Some(false));
    assert_eq!(second.profile.as_ref().unwrap().cache_hit, Some(true));
    server.shutdown();
}

/// The slow log under the 8-client stress mix: a zero threshold admits
/// everything, so the log must end up exactly full, sorted worst-first,
/// with every entry carrying a full profile (slow logging implies
/// profiling even when `config.profile` is off).
#[test]
fn slow_log_keeps_the_worst_n_under_concurrency() {
    const CLIENTS: usize = 8;
    const CAPACITY: usize = 5;
    let graph = workload_graph(0xBEEF);
    let queries: Vec<RpqQuery> = QueryGen::new(&graph, 17)
        .scaled_log(0.0)
        .into_iter()
        .map(|gq| gq.query)
        .collect();
    let server = start(
        &graph,
        ServerConfig {
            workers: 4,
            slow_log_capacity: CAPACITY,
            slow_log_threshold: Duration::ZERO,
            ..ServerConfig::default()
        },
    );

    std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            let (server, queries, graph) = (&server, &queries, &graph);
            scope.spawn(move || {
                for i in 0..queries.len() {
                    let i = (i + c * 7) % queries.len();
                    let ticket = server
                        .submit_parsed(queries[i].clone(), QueryBudget::default())
                        .unwrap();
                    let answer = server.wait(&ticket).unwrap();
                    assert_eq!(answer.pairs, evaluate_naive(graph, &queries[i]));
                    // Slow logging alone must not leak profiles onto
                    // client-visible answers.
                    assert!(answer.profile.is_none());
                }
            });
        }
    });

    let entries = server.slow_log().entries();
    assert_eq!(entries.len(), CAPACITY, "zero threshold fills the log");
    for pair in entries.windows(2) {
        assert!(
            pair[0].total_us >= pair[1].total_us,
            "entries must be sorted worst-first"
        );
    }
    for e in &entries {
        assert!(
            e.cache_hit || e.profile.is_some(),
            "evaluated slow entries carry their profile"
        );
    }
    let json = server.slow_queries_json();
    assert!(
        json.starts_with("{\"threshold_us\":0,\"capacity\":5,"),
        "{json}"
    );
    server.shutdown();
}

/// An unreachable threshold keeps the log empty no matter the load.
#[test]
fn slow_log_threshold_filters_everything_below_it() {
    let graph = workload_graph(0xBEEF);
    let server = start(
        &graph,
        ServerConfig {
            slow_log_capacity: 4,
            slow_log_threshold: Duration::from_secs(3600),
            ..ServerConfig::default()
        },
    );
    for _ in 0..10 {
        server.query_blocking("?x", "0+", "?y").unwrap();
    }
    assert!(server.slow_log().is_empty());
    assert!(server.slow_queries_json().ends_with("\"entries\":[]}"));
    server.shutdown();
}

/// The Prometheus rendering through the public server handle: the core
/// metric families are present and the text ends with a newline (the
/// exposition-format requirement scrapers check first).
#[test]
fn prometheus_export_covers_the_registry() {
    let graph = workload_graph(0xCAFE);
    let server = start(&graph, ServerConfig::default());
    server.query_blocking("?x", "0+", "?y").unwrap();
    server.query_blocking("?x", "0+", "?y").unwrap();

    let text = server.prometheus_metrics();
    assert!(text.ends_with('\n'));
    for family in [
        "rpq_queries_completed_total",
        "rpq_query_latency_seconds_bucket",
        "rpq_queue_wait_seconds_count",
        "rpq_query_exec_seconds_count",
        "rpq_planner_decisions_total",
        "rpq_cache_hits_total{cache=\"result\"}",
        "rpq_helper_pool_capacity",
    ] {
        assert!(text.contains(family), "missing {family} in:\n{text}");
    }
    // One completed evaluation + one cache hit.
    assert!(text.contains("rpq_queries_completed_total 2"), "{text}");
    assert!(
        text.contains("rpq_cache_hits_total{cache=\"result\"} 1"),
        "{text}"
    );
    server.shutdown();
}

/// A sharded source's routing table is built once, when the source is
/// assembled: every snapshot the server captures (one per submit) shares
/// it. And the per-shard probe counters the exporters render count only
/// the shards a query was routed to — a single-predicate query moves one.
#[test]
fn sharded_snapshots_share_the_routing_table_and_probe_only_owners() {
    use ring::sharded::ShardedIndex;
    use ring::Triple;
    use rpq_server::QuerySource;

    // Four predicates of ten triples each: one per shard, none split.
    let triples = (0..4)
        .flat_map(|p| (0..10).map(move |i| Triple::new(i, p, (i + p + 1) % 12)))
        .collect();
    let idx = ShardedIndex::build(&Graph::from_triples(triples), 4, RingOptions::default());
    let source = Arc::new(IndexSource::sharded_id_only(idx.into_shards()));
    let first = source.snapshot();
    assert_eq!(first.shards.len(), 4);

    let server = RpqServer::start(
        Arc::clone(&source) as Arc<dyn QuerySource>,
        ServerConfig::default(),
    )
    .unwrap();
    let probes = || -> Vec<u64> {
        let rows = source.shard_stats().expect("a sharded source has rows");
        rows.iter().map(|row| row.probes).collect()
    };
    for p in 0..4u64 {
        let before = probes();
        let answer = server.query_blocking("3", &format!("{p}+"), "?y").unwrap();
        assert!(!answer.pairs.is_empty());
        let moved = (0..4).filter(|&i| probes()[i] > before[i]).count();
        assert_eq!(moved, 1, "predicate {p} lives in one shard");
    }
    assert!(Arc::ptr_eq(&first.shards, &source.snapshot().shards));
    server.shutdown();
}
