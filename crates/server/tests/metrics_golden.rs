//! Pins the **whole** output of both metrics exporters — every key,
//! family, help text, label and number, in order — to golden files, so a
//! change to how `metrics.rs` renders the registry is a visible diff.
//! Three registries, all driven through the public API: `idle` (nothing
//! recorded, an unsharded source without update counters or index
//! facts: the defaults and every "omitted when empty" rule), `busy`
//! (fixed counters and samples on every route, update counters, a mapped
//! index, two shard rows — on an admission-only server, so nothing but
//! the test records a sample) and `caches` (a one-worker server answers a
//! scripted handful of queries; only its two cache sections are pinned,
//! its histograms hold wall-clock samples).
//!
//! Masked as `#`, being the host's and not the renderer's: uptime and
//! the plan cache's `used` bytes (the heap size of `automata`'s tables). `RPQ_UPDATE_GOLDEN=1` rewrites the
//! files; a change that means to keep the output does not set it.

use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use std::time::Duration;

use ring::ring::RingOptions;
use ring::{Graph, Id, Ring, Triple};
use rpq_core::{EvalRoute, SourceSnapshot, TraversalStats};
use rpq_server::{
    IndexSource, IndexStats, QuerySource, RpqServer, ServerConfig, ShardStat, UpdateStats,
};

type Facts = (UpdateStats, IndexStats, Vec<ShardStat>);

/// An id-only source that reports the facts it is given.
struct Fixed(IndexSource, Option<Facts>);

impl QuerySource for Fixed {
    fn snapshot(&self) -> SourceSnapshot {
        SourceSnapshot {
            epoch: self.1.as_ref().map_or(0, |facts| facts.0.epoch),
            ..self.0.snapshot()
        }
    }
    fn node_id(&self, name: &str) -> Option<Id> {
        self.0.node_id(name)
    }
    fn node_name(&self, id: Id) -> Option<String> {
        self.0.node_name(id)
    }
    fn pred_id(&self, name: &str) -> Option<Id> {
        self.0.pred_id(name)
    }
    fn update_stats(&self) -> Option<UpdateStats> {
        self.1.as_ref().map(|facts| facts.0)
    }
    fn index_info(&self) -> Option<IndexStats> {
        self.1.as_ref().map(|facts| facts.1)
    }
    fn shard_stats(&self) -> Option<Vec<ShardStat>> {
        self.1.as_ref().map(|facts| facts.2.clone())
    }
}

/// A server over a three-edge chain; without workers, admission-only.
fn server(facts: Option<Facts>, workers: usize) -> RpqServer {
    let edges = vec![
        Triple::new(0, 0, 1),
        Triple::new(1, 0, 2),
        Triple::new(2, 1, 3),
    ];
    let ring = Ring::build(&Graph::from_triples(edges), RingOptions::default());
    let config = ServerConfig {
        workers: if workers == 0 { 3 } else { workers },
        admission_only: workers == 0,
        max_pending: 48,
        plan_cache_bytes: 1 << 16,
        result_cache_bytes: 1 << 18,
        ..ServerConfig::default()
    };
    RpqServer::start(Arc::new(Fixed(IndexSource::id_only(ring), facts)), config).unwrap()
}

fn busy() -> RpqServer {
    let updates = UpdateStats {
        epoch: 7,
        commits: 11,
        compactions: 2,
        commit_ns: 1_234_567,
        compact_ns: 89_012_345,
        delta_adds: 40,
        delta_deletes: 9,
        pending_ops: 5,
    };
    let index = IndexStats {
        open_us: 4321,
        resident_mode: "mmap",
        mapped_bytes: 1 << 20,
    };
    let shard = |triples, bytes, probes| ShardStat {
        triples,
        bytes,
        probes,
    };
    let shards = vec![shard(10, 2048, 7), shard(6, 1024, 0)];
    let server = server(Some((updates, index, shards)), 0);
    let m = server.metrics();
    for (counter, n) in [
        (&m.submitted, 101),
        (&m.completed, 90),
        (&m.failed, 4),
        (&m.rejected_overload, 2),
        (&m.budget_exceeded, 1),
        (&m.epoch_bumps, 8),
        (&m.drains, 1),
        (&m.drained_jobs, 12),
        (&m.aborted_jobs, 13),
        (&m.checkpoints, 14),
        (&m.checkpoint_failures, 15),
    ] {
        counter.store(n, Relaxed);
    }
    m.queue_depth.store(6, Relaxed);
    m.queue_peak.store(17, Relaxed);
    for (histogram, micros) in [
        (&m.latency_all, &[0, 1, 3, 250, 250, 90_000, 4_000_000][..]),
        (&m.queue_wait, &[2, 10, 10, 700]),
        (&m.latency_exec, &[240, 240, 89_000]),
        (&m.latency_cached, &[5, 6]),
    ] {
        for &us in micros {
            histogram.record(Duration::from_micros(us));
        }
    }
    // One more traversal than routes: the last has no known route, so it
    // counts in the totals only and has no `by_route` row.
    for k in 1..=EvalRoute::ALL.len() as u64 + 1 {
        let route = EvalRoute::ALL.get(k as usize - 1).copied();
        if let Some(r) = route {
            (0..k).for_each(|_| m.note_planner_decision(r));
            m.route_histogram(r).record(Duration::from_micros(100 * k));
            m.route_histogram(r)
                .record(Duration::from_micros(3000 * k * k));
            // A perfect estimate, then one k+1 times too low.
            m.note_plan_accuracy(r, 99, 99, 7 * k);
            m.note_plan_accuracy(r, 24, 25 * (k + 1) - 1, k);
        }
        let stats = TraversalStats {
            rank_ops: 1000 * k,
            rank_ops_saved: 10 * k,
            ..TraversalStats::default()
        };
        m.note_traversal(&stats);
    }
    server
}

/// Plan misses and hits, result misses and hits, an invalidation, live
/// entries and bytes.
fn caches() -> RpqServer {
    let server = server(None, 1);
    for (s, e, o) in [("0", "0+", "?y"), ("0", "0+", "?y"), ("1", "0+", "?y")] {
        server.query_blocking(s, e, o).unwrap();
    }
    server.invalidate_caches();
    for (s, e, o) in [
        ("?x", "0/1", "?y"),
        ("?x", "0/1", "?y"),
        ("0", "0/1", "?y"),
        ("?x", "0*", "3"),
    ] {
        server.query_blocking(s, e, o).unwrap();
    }
    server
}

/// Replaces the number after the first occurrence of `marker` with `#`.
fn mask(text: &str, marker: &str) -> String {
    let at = text.find(marker).expect(marker) + marker.len();
    let number = |c: char| c.is_ascii_digit() || matches!(c, '.' | 'e' | '-');
    let len = text[at..].find(|c| !number(c)).unwrap_or(text.len() - at);
    format!("{}#{}", &text[..at], &text[at + len..])
}

fn check(name: &str, actual: String) {
    let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    if std::env::var_os("RPQ_UPDATE_GOLDEN").is_some() {
        return std::fs::write(path, actual).unwrap();
    }
    let golden = std::fs::read_to_string(path).unwrap();
    let differ = golden.lines().zip(actual.lines()).find(|(g, a)| g != a);
    assert!(golden == actual, "{name} is not its golden: {differ:?}");
}

#[test]
fn registry_json_is_byte_identical_to_the_golden() {
    let host = |json: String| mask(&json, "\"uptime_ms\":");
    let cached = caches().metrics_json();
    let from = cached.find("\"plan_cache\":").unwrap();
    let to = cached.find(",\"latency_us\":").unwrap();
    let text = format!(
        "## idle\n{}\n## busy\n{}\n## caches\n{}\n",
        host(server(None, 0).metrics_json()),
        host(busy().metrics_json()),
        mask(&cached[from..to], "\"used\":"),
    );
    check("registry.json.txt", text);
}

#[test]
fn registry_prometheus_is_byte_identical_to_the_golden() {
    let host = |text: String| mask(&text, "\nrpq_uptime_seconds ");
    let cached: String = caches()
        .prometheus_metrics()
        .lines()
        .filter(|l| l.split([' ', '{']).any(|w| w.starts_with("rpq_cache_")))
        .flat_map(|l| [l, "\n"])
        .collect();
    let text = format!(
        "## idle\n{}## busy\n{}## caches\n{}",
        host(server(None, 0).prometheus_metrics()),
        host(busy().prometheus_metrics()),
        mask(&cached, "rpq_cache_used_bytes{cache=\"plan\"} "),
    );
    check("registry.prom.txt", text);
}
