//! Snapshot consistency under concurrent commits: 8 client threads
//! query while a writer commits pointer-flip batches. Every batch moves
//! M "pointer" edges at once, so the full var-var answer set of the
//! pointer predicate uniquely identifies one committed version — any
//! torn read (a mix of two versions) matches no version and fails.
//!
//! Also pinned: per-client version monotonicity (snapshot epochs are
//! captured at submit time and only move forward), result-cache hits
//! never crossing an epoch bump (keys are epoch-stamped and the caches
//! drop on observed bumps), and the metrics JSON reporting the commit /
//! compaction counters and the live epoch.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use ring::store::TripleStore;
use ring::{Graph, Id, Triple};
use rpq_server::{LiveSource, RpqServer, ServerConfig};

/// Pointer count (edges flipped per batch).
const M: u64 = 4;
/// Committed versions after the base (version 0).
const VERSIONS: u64 = 12;

/// The target node of pointer `i` at version `v`.
fn target(v: u64, i: u64) -> Id {
    M + v * M + i
}

/// The full expected answer set of `(?x, p0, ?y)` at version `v`.
fn answer_at(v: u64) -> Vec<(Id, Id)> {
    let mut a: Vec<(Id, Id)> = (0..M).map(|i| (i, target(v, i))).collect();
    a.sort_unstable();
    a
}

#[test]
fn concurrent_commits_never_tear_answers() {
    let base = Graph::from_triples((0..M).map(|i| Triple::new(i, 0, target(0, i))).collect());
    let store = TripleStore::new(base).with_auto_compact_ratio(None);
    let source = Arc::new(LiveSource::new(store));
    let server = Arc::new(
        RpqServer::start(
            Arc::clone(&source) as Arc<dyn rpq_server::QuerySource>,
            ServerConfig {
                workers: 8,
                ..ServerConfig::default()
            },
        )
        .unwrap(),
    );
    let expected: Arc<Vec<Vec<(Id, Id)>>> = Arc::new((0..=VERSIONS).map(answer_at).collect());

    let done = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..8)
        .map(|r| {
            let server = Arc::clone(&server);
            let expected = Arc::clone(&expected);
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                let mut last_version = 0usize;
                let mut checked = 0usize;
                while !done.load(Ordering::Acquire) || checked == 0 {
                    let answer = server
                        .query_blocking("?x", "0", "?y")
                        .unwrap_or_else(|e| panic!("reader {r}: {e}"));
                    let version = expected
                        .iter()
                        .position(|a| a == &answer.pairs)
                        .unwrap_or_else(|| {
                            panic!(
                                "reader {r}: torn read — answer {:?} matches no \
                                 committed version",
                                answer.pairs
                            )
                        });
                    assert!(
                        version >= last_version,
                        "reader {r}: version went backwards ({last_version} -> {version})"
                    );
                    last_version = version;
                    checked += 1;
                }
                checked
            })
        })
        .collect();

    // The writer: flip all M pointers per batch, commit atomically,
    // compact once mid-run (answers must not change across it).
    for v in 1..=VERSIONS {
        for i in 0..M {
            source.store().delete(Triple::new(i, 0, target(v - 1, i)));
            source.store().insert(Triple::new(i, 0, target(v, i)));
        }
        source.store().commit();
        if v == VERSIONS / 2 {
            source.store().compact();
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    done.store(true, Ordering::Release);
    let total: usize = readers.into_iter().map(|h| h.join().unwrap()).sum();
    assert!(total >= 8, "readers barely ran ({total} checks)");

    // Settled state: the final version, twice — the second answer is a
    // result-cache hit *within* the final epoch.
    let first = server.query_blocking("?x", "0", "?y").unwrap();
    assert_eq!(first.pairs, expected[VERSIONS as usize]);
    let hits_before = server.metrics().latency_cached.count();
    let second = server.query_blocking("?x", "0", "?y").unwrap();
    assert_eq!(second.pairs, expected[VERSIONS as usize]);
    assert!(
        server.metrics().latency_cached.count() > hits_before,
        "expected a same-epoch result-cache hit"
    );

    // A post-hit commit bumps the epoch; the stale cached answer must
    // not survive it.
    source
        .store()
        .insert(Triple::new(0, 0, target(VERSIONS, 1)));
    source.store().commit();
    let after = server.query_blocking("?x", "0", "?y").unwrap();
    assert_ne!(after.pairs, expected[VERSIONS as usize]);
    assert!(after.pairs.contains(&(0, target(VERSIONS, 1))));

    // Metrics report the update counters.
    let metrics = server.metrics_json();
    let expect_commits = format!("\"commits\":{}", VERSIONS + 1);
    assert!(metrics.contains(&expect_commits), "{metrics}");
    assert!(metrics.contains("\"compactions\":1"), "{metrics}");
    // The write path's cumulative time, in both exporters.
    let stats = source.store().stats();
    assert!(stats.commit_ns > 0 && stats.compact_ns > 0, "{stats:?}");
    let prom = server.prometheus_metrics();
    for (json_key, prom_name, ns) in [
        (
            "commit_ns",
            "rpq_update_commit_nanoseconds_total",
            stats.commit_ns,
        ),
        (
            "compact_ns",
            "rpq_update_compact_nanoseconds_total",
            stats.compact_ns,
        ),
    ] {
        assert!(
            metrics.contains(&format!("\"{json_key}\":{ns}")),
            "{metrics}"
        );
        assert!(prom.contains(&format!("{prom_name} {ns}")), "{prom}");
    }
    let expect_epoch = format!("\"epoch\":{}", source.store().epoch());
    assert!(metrics.contains(&expect_epoch), "{metrics}");
    assert!(!metrics.contains("\"epoch_bumps_observed\":0"), "{metrics}");
    server.shutdown();
}

/// Delta-introduced nodes (ids beyond the ring's universe) resolve and
/// answer through the server as soon as their commit publishes — in both
/// traversal directions — and tombstoned edges disappear.
#[test]
fn delta_nodes_resolve_and_tombstones_mask() {
    let base = Graph::from_triples(vec![Triple::new(0, 0, 1), Triple::new(1, 0, 2)]);
    let store = TripleStore::new(base).with_auto_compact_ratio(None);
    let source = Arc::new(LiveSource::new(store));
    let server = RpqServer::start(
        Arc::clone(&source) as Arc<dyn rpq_server::QuerySource>,
        ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    // Node 9 does not exist yet: constant resolution fails cleanly.
    assert!(matches!(
        server.query_blocking("9", "0", "?y"),
        Err(rpq_server::RpqError::UnknownNode(_))
    ));
    source.store().insert(Triple::new(2, 0, 9));
    source.store().delete(Triple::new(0, 0, 1));
    source.store().commit();
    // Closure through the delta edge, starting from a ring node.
    let answer = server.query_blocking("1", "0+", "?y").unwrap();
    assert_eq!(answer.pairs, vec![(1, 2), (1, 9)]);
    // The delta node anchors a query and traverses an inverse step.
    let answer = server.query_blocking("9", "^0", "?y").unwrap();
    assert_eq!(answer.pairs, vec![(9, 2)]);
    // The tombstoned base edge is gone on every route.
    let answer = server.query_blocking("0", "0", "?y").unwrap();
    assert!(answer.pairs.is_empty());
    server.shutdown();
}
