//! Integration tests of the query service: concurrent differential
//! correctness against the sequential oracle, admission control,
//! budgets, refusals, cache behavior and the metrics export.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use automata::AutomatonError;

use ring::ring::RingOptions;
use ring::{Graph, Ring, Triple};
use rpq_core::oracle::evaluate_naive;
use rpq_core::{QueryError, RpqQuery, Term};
use rpq_server::{IndexSource, QueryBudget, RpqError, RpqServer, ServerConfig};
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

fn table1_queries(graph: &Graph, seeds: &[u64]) -> Vec<RpqQuery> {
    seeds
        .iter()
        .flat_map(|&seed| {
            QueryGen::new(graph, seed)
                .scaled_log(0.0)
                .into_iter()
                .map(|gq| gq.query)
        })
        .collect()
}

/// The acceptance-criteria stress test: 8 client threads hammer a
/// server with 8 workers using the full Table 1 query-shape mix, and
/// every single answer must equal the sequential oracle's.
#[test]
fn concurrent_stress_matches_sequential_oracle() {
    const CLIENTS: usize = 8;
    let graph = workload_graph(0xBEEF);
    let queries = table1_queries(&graph, &[11, 12, 13]);
    assert_eq!(queries.len(), 60, "Table 1 has 20 patterns × 3 seeds");
    let expected: Vec<Vec<(u64, u64)>> =
        queries.iter().map(|q| evaluate_naive(&graph, q)).collect();

    let ring = Ring::build(&graph, RingOptions::default());
    let server = RpqServer::start(
        Arc::new(IndexSource::id_only(ring)),
        ServerConfig {
            workers: 8,
            max_pending: 4096,
            ..ServerConfig::default()
        },
    )
    .unwrap();

    std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            let (server, queries, expected) = (&server, &queries, &expected);
            scope.spawn(move || {
                for i in 0..queries.len() {
                    let i = (i + c * 11) % queries.len();
                    let ticket = server
                        .submit_parsed(queries[i].clone(), QueryBudget::default())
                        .unwrap_or_else(|e| panic!("client {c}, query #{i}: submit: {e}"));
                    let answer = server
                        .wait(&ticket)
                        .unwrap_or_else(|e| panic!("client {c}, query #{i}: {e}"));
                    assert!(answer.is_complete(), "client {c}, query #{i} was partial");
                    assert_eq!(
                        answer.pairs, expected[i],
                        "client {c} disagrees with the sequential oracle on query #{i}"
                    );
                }
            });
        }
    });

    let m = server.metrics();
    assert_eq!(
        m.completed.load(Ordering::Relaxed) as usize,
        CLIENTS * queries.len()
    );
    assert_eq!(m.failed.load(Ordering::Relaxed), 0);
    // 8 clients submit the same 60 patterns/keys, which the result cache
    // absorbs; its section renders under the load.
    let json = server.metrics_json();
    assert!(json.contains("\"result_cache\""), "{json}");
    server.shutdown();
}

/// Repeated submissions of one key are served from the result cache
/// (identical answers, hits counted), and the invalidation hook drops
/// everything without breaking later queries.
#[test]
fn result_cache_hits_and_invalidates() {
    let graph = workload_graph(0xCAFE);
    let ring = Ring::build(&graph, RingOptions::default());
    let server = RpqServer::start(
        Arc::new(IndexSource::id_only(ring)),
        ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
    )
    .unwrap();

    let a1 = server.query_blocking("0", "0+/1?", "?y").unwrap();
    let a2 = server.query_blocking("0", "0+/1?", "?y").unwrap();
    assert_eq!(a1.pairs, a2.pairs);
    // Same pattern, different anchor: a result cache miss.
    let _ = server.query_blocking("1", "0+/1?", "?y").unwrap();

    let json = server.metrics_json();
    assert!(json.contains("\"result_cache\":{\"hits\":1"), "{json}");

    server.invalidate_caches();
    let a3 = server.query_blocking("0", "0+/1?", "?y").unwrap();
    assert_eq!(a1.pairs, a3.pairs);
    let json = server.metrics_json();
    assert!(json.contains("\"invalidations\":1"), "{json}");
    server.shutdown();
}

/// A result-cache hit still honours the *requesting* job's
/// `max_results`: a big cached answer comes back as a truncated prefix,
/// not the full payload.
#[test]
fn cache_hits_respect_the_requesters_result_limit() {
    let graph = Graph::from_triples((0..20).map(|i| Triple::new(0, 0, i + 1)).collect());
    let ring = Ring::build(&graph, RingOptions::default());
    let server = RpqServer::start(
        Arc::new(IndexSource::id_only(ring)),
        ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let q = || RpqQuery::new(Term::Const(0), automata::Regex::label(0), Term::Var);
    // Populate the cache with the full 20-pair answer.
    let t = server.submit_parsed(q(), QueryBudget::default()).unwrap();
    let full = server.wait(&t).unwrap();
    assert_eq!(full.pairs.len(), 20);
    assert!(full.is_complete());
    // Same key, tiny limit: served from cache, truncated to the limit.
    let waits = server.metrics().queue_wait.count();
    let t = server
        .submit_parsed(
            q(),
            QueryBudget {
                max_results: 3,
                ..QueryBudget::default()
            },
        )
        .unwrap();
    // The hit goes through `submit`'s own lookup: it never queues.
    assert_eq!(server.metrics().queue_wait.count(), waits);
    let small = server.wait(&t).unwrap();
    assert_eq!(small.pairs.len(), 3);
    assert!(small.truncated);
    assert_eq!(small.pairs[..], full.pairs[..3]);
    let json = server.metrics_json();
    assert!(json.contains("\"result_cache\":{\"hits\":1"), "{json}");
    server.shutdown();
}

/// A result-cache hit is answered inside `submit`: its ticket holds the
/// evaluated answer, and the hit never touches the queue — no queue-wait
/// sample, no queue depth.
#[test]
fn a_cached_answer_is_done_at_submit() {
    let graph = workload_graph(0xD0E);
    let ring = Ring::build(&graph, RingOptions::default());
    let server = RpqServer::start(
        Arc::new(IndexSource::id_only(ring)),
        ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let evaluated = server.query_blocking("?x", "0+", "?y").unwrap();
    let m = server.metrics();
    let (waits, peak) = (m.queue_wait.count(), m.queue_peak.load(Ordering::Relaxed));
    let t = server.submit("?x", "0+", "?y").unwrap();
    assert_eq!(server.wait(&t).unwrap().pairs, evaluated.pairs);
    assert_eq!(m.queue_wait.count(), waits, "a hit must not queue");
    assert_eq!(m.queue_peak.load(Ordering::Relaxed), peak);
    assert_eq!(m.submitted.load(Ordering::Relaxed), 2);
    assert_eq!(m.completed.load(Ordering::Relaxed), 2);
    server.shutdown();
}

/// Two identical requests submitted before either is awaited (how the
/// CLI pipelines a session) both queue; the worker evaluates the first
/// and answers the second from the cache at pickup, unless it finished
/// before the second was submitted. Either way the cache counts one
/// hit and one miss: hits + misses = answered requests.
#[test]
fn pipelined_repeats_count_one_hit_and_one_miss() {
    let graph = workload_graph(0xD0E);
    let ring = Ring::build(&graph, RingOptions::default());
    let server = RpqServer::start(
        Arc::new(IndexSource::id_only(ring)),
        ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let first = server.submit("?x", "0/1*", "?y").unwrap();
    let second = server.submit("?x", "0/1*", "?y").unwrap();
    let a = server.wait(&first).unwrap();
    let b = server.wait(&second).unwrap();
    assert_eq!(a.pairs, b.pairs);
    let json = server.metrics_json();
    assert!(
        json.contains("\"result_cache\":{\"hits\":1,\"misses\":1,"),
        "{json}"
    );
    server.shutdown();
}

/// Admission control: a full queue rejects synchronously with
/// `Overloaded`, and the metrics gauges track depth and rejections.
/// (`admission_only` keeps jobs queued forever, making the test
/// deterministic.)
#[test]
fn admission_control_rejects_a_full_queue() {
    let graph = Graph::from_triples(vec![Triple::new(0, 0, 1), Triple::new(1, 0, 2)]);
    let ring = Ring::build(&graph, RingOptions::default());
    let server = RpqServer::start(
        Arc::new(IndexSource::id_only(ring)),
        ServerConfig {
            workers: 0,
            admission_only: true,
            max_pending: 4,
            ..ServerConfig::default()
        },
    )
    .unwrap();

    let _tickets: Vec<_> = (0..4)
        .map(|_| server.submit("0", "0+", "?y").expect("queue has room"))
        .collect();
    let m = server.metrics();
    assert_eq!(m.queue_depth.load(Ordering::Relaxed), 4);
    match server.submit("0", "0+", "?y") {
        Err(RpqError::Overloaded { pending, capacity }) => {
            assert_eq!((pending, capacity), (4, 4));
        }
        other => panic!("expected Overloaded, got {other:?}"),
    }
    assert_eq!(m.rejected_overload.load(Ordering::Relaxed), 1);
    assert_eq!(m.submitted.load(Ordering::Relaxed), 4);
    assert_eq!(m.queue_peak.load(Ordering::Relaxed), 4);
    server.shutdown();
}

/// A ticket may be waited on more than once, and every wait returns the
/// same outcome: for a queued miss, for a hit answered at submit, and for
/// a failed job.
#[test]
fn waiting_twice_returns_the_same_outcome() {
    let graph = Graph::from_triples((0..50).map(|i| Triple::new(i, 0, i + 1)).collect());
    let ring = Ring::build(&graph, RingOptions::default());
    let server = RpqServer::start(
        Arc::new(IndexSource::id_only(ring)),
        ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let miss = server.submit("?x", "0+", "?y").unwrap();
    let first = server.wait(&miss).unwrap();
    let again = server.wait(&miss).unwrap();
    assert!(Arc::ptr_eq(&first, &again), "the same answer, not a copy");
    assert_eq!(first.pairs.len(), 50 * 51 / 2);

    let hit = server.submit("?x", "0+", "?y").unwrap();
    let (a, b) = (server.wait(&hit).unwrap(), server.wait(&hit).unwrap());
    assert!(Arc::ptr_eq(&a, &b));
    assert_eq!(a.pairs, first.pairs);

    let tiny = QueryBudget {
        node_budget: Some(2),
        ..QueryBudget::default()
    };
    let failed = server.submit_with("?x", "0/0/0+", "?y", tiny).unwrap();
    let err = server.wait(&failed).unwrap_err();
    assert!(matches!(err, RpqError::BudgetExceeded { .. }), "{err:?}");
    assert_eq!(server.wait(&failed).unwrap_err(), err);

    let m = server.metrics();
    assert_eq!(m.submitted.load(Ordering::Relaxed), 3);
    assert_eq!(m.completed.load(Ordering::Relaxed), 2);
    assert_eq!(m.failed.load(Ordering::Relaxed), 1);
    server.shutdown();
}

/// A panicking evaluation fails its own job with `Internal` and nothing
/// else: the jobs queued around it are answered, and the one worker keeps
/// serving. The trigger is an id-level query naming a label outside the
/// ring's alphabet, which the engine does not check and panics on.
#[test]
fn a_panicking_evaluation_fails_only_its_own_job() {
    let graph = Graph::from_triples(vec![Triple::new(0, 0, 1), Triple::new(1, 0, 2)]);
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
    let good = || RpqQuery::new(Term::Var, automata::Regex::label(0), Term::Var);
    let bad = RpqQuery::new(Term::Var, automata::Regex::label(77), Term::Var);
    let before = server
        .submit_parsed(good(), QueryBudget::default())
        .unwrap();
    let panics = server.submit_parsed(bad, QueryBudget::default()).unwrap();
    let after = server
        .submit_parsed(good(), QueryBudget::default())
        .unwrap();
    assert!(matches!(server.wait(&panics), Err(RpqError::Internal(_))));
    assert_eq!(server.wait(&before).unwrap().pairs, vec![(0, 1), (1, 2)]);
    assert_eq!(server.wait(&after).unwrap().pairs, vec![(0, 1), (1, 2)]);
    let m = server.metrics();
    assert_eq!(m.failed.load(Ordering::Relaxed), 1);
    assert_eq!(m.completed.load(Ordering::Relaxed), 2);
    server.shutdown();
}

/// One hostile line cannot take a session down. On a one-worker server
/// over the metro graph, each family — deep nesting, flat alternation,
/// nested repetition, long concatenation — is refused at submit with a
/// typed parse error in under 50 ms, and a chain past the widest state
/// mask by its position count before anything is compiled. None of them
/// leaves a result-cache entry, and the worker answers the ordinary query
/// that follows each one.
#[test]
fn a_refused_expression_does_not_take_a_session_down() {
    let graph = workload::metro::metro();
    let ring = Ring::build(&graph, RingOptions::default());
    let server = RpqServer::start(
        Arc::new(IndexSource::id_only(ring)),
        ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let result_entries = |server: &RpqServer| {
        let json = server.metrics_json();
        let cache = &json[json.find("\"result_cache\":").unwrap()..];
        let entries = &cache[cache.find("\"entries\":").unwrap() + 10..];
        entries[..entries.find(',').unwrap()].to_string()
    };
    let star = automata::Regex::Star(Box::new(automata::Regex::label(0)));
    let expected = evaluate_naive(&graph, &RpqQuery::new(Term::Var, star, Term::Var));

    let nested = format!("{}0{}", "(".repeat(12_000), ")".repeat(12_000));
    let alternation = vec!["0"; 20_000].join("|");
    let repetition = "((((0{64}){64}){64}){64}){64}".to_string();
    let concatenation = vec!["0*"; 3000].join("/");
    let too_many = QueryError::Automaton(AutomatonError::TooManyPositions(256));
    let hostile: [(&str, &str, Option<RpqError>); 5] = [
        (&nested, "nests deeper than", None),
        (&alternation, "nests deeper than", None),
        (&repetition, "at least 4096 literal occurrences", None),
        (&concatenation, "nests deeper than", None),
        (
            &vec!["0*"; 256].join("/"),
            "",
            Some(RpqError::Query(too_many)),
        ),
    ];
    for (round, (expr, needle, typed)) in hostile.into_iter().enumerate() {
        let t0 = Instant::now();
        let refused = server.query_blocking("?x", expr, "?y").unwrap_err();
        let took = t0.elapsed();
        match typed {
            Some(err) => assert_eq!(refused, err),
            None => assert!(
                matches!(&refused, RpqError::Parse(e) if e.to_string().contains(needle)),
                "{refused}"
            ),
        }
        assert!(took < Duration::from_millis(50), "refused in {took:?}");
        // A refusal caches nothing.
        assert_eq!(result_entries(&server), if round == 0 { "0" } else { "1" });

        let answer = server.query_blocking("?x", "0*", "?y").unwrap();
        assert_eq!(answer.pairs, expected);
        assert_eq!(result_entries(&server), "1");
    }
    server.shutdown();
}

/// Node budgets abort evaluation with a hard, typed `BudgetExceeded` on
/// both the general engine route and the fast paths.
#[test]
fn node_budget_exceeded_is_a_hard_error() {
    let graph = Graph::from_triples((0..50).map(|i| Triple::new(i, 0, i + 1)).collect());
    let ring = Ring::build(&graph, RingOptions::default());
    let server = RpqServer::start(
        Arc::new(IndexSource::id_only(ring)),
        ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let tiny = QueryBudget {
        node_budget: Some(2),
        ..QueryBudget::default()
    };

    // General route: a transitive closure visits far more than 2 nodes.
    let q = RpqQuery::new(
        Term::Var,
        automata::Regex::Plus(Box::new(automata::Regex::label(0))),
        Term::Var,
    );
    let ticket = server.submit_parsed(q, tiny).unwrap();
    match server.wait(&ticket) {
        Err(RpqError::BudgetExceeded { budget: 2, .. }) => {}
        other => panic!("expected BudgetExceeded, got {other:?}"),
    }

    // Fast-path route: a single-label v-to-v scan trips the same cap.
    let q = RpqQuery::new(Term::Var, automata::Regex::label(0), Term::Var);
    let ticket = server.submit_parsed(q, tiny).unwrap();
    assert!(matches!(
        server.wait(&ticket),
        Err(RpqError::BudgetExceeded { .. })
    ));

    // A generous budget on the same queries succeeds.
    let q = RpqQuery::new(Term::Var, automata::Regex::label(0), Term::Var);
    let ticket = server
        .submit_parsed(
            q,
            QueryBudget {
                node_budget: Some(1_000_000),
                ..QueryBudget::default()
            },
        )
        .unwrap();
    assert_eq!(server.wait(&ticket).unwrap().pairs.len(), 50);

    assert_eq!(server.metrics().budget_exceeded.load(Ordering::Relaxed), 2);
    server.shutdown();
}

/// Parse and resolution errors are synchronous at submit, and a
/// rejected line leaves the ones submitted around it untouched.
#[test]
fn submit_errors_are_synchronous() {
    let graph = Graph::from_triples(vec![Triple::new(0, 0, 1)]);
    let ring = Ring::build(&graph, RingOptions::default());
    let server = RpqServer::start(
        Arc::new(IndexSource::id_only(ring)),
        ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let first = server.submit("0", "0", "?y").unwrap();
    assert!(matches!(
        server.submit("0", "0/(", "?y"),
        Err(RpqError::Parse(_))
    ));
    assert!(matches!(
        server.submit("zzz", "0", "?y"),
        Err(RpqError::UnknownNode(_))
    ));
    let last = server.submit("?x", "0", "1").unwrap();
    assert_eq!(server.wait(&first).unwrap().pairs, vec![(0, 1)]);
    assert_eq!(server.wait(&last).unwrap().pairs, vec![(0, 1)]);
    assert_eq!(server.metrics().submitted.load(Ordering::Relaxed), 2);
    server.shutdown();
}

/// The metrics export is one structurally valid JSON object.
#[test]
fn metrics_json_is_balanced_and_complete() {
    let graph = workload_graph(0xD00D);
    let ring = Ring::build(&graph, RingOptions::default());
    let server = RpqServer::start(
        Arc::new(IndexSource::id_only(ring)),
        ServerConfig {
            workers: 2,
            default_budget: QueryBudget {
                timeout: Some(Duration::from_secs(5)),
                ..QueryBudget::default()
            },
            ..ServerConfig::default()
        },
    )
    .unwrap();
    for (s, e, o) in [("0", "0", "?y"), ("?x", "(0|1)+", "3"), ("0", "0/1", "?y")] {
        let _ = server.query_blocking(s, e, o);
    }
    let json = server.metrics_json();
    assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
    let (mut braces, mut brackets, mut in_string) = (0i64, 0i64, false);
    for c in json.chars() {
        match c {
            '"' => in_string = !in_string,
            '{' if !in_string => braces += 1,
            '}' if !in_string => braces -= 1,
            '[' if !in_string => brackets += 1,
            ']' if !in_string => brackets -= 1,
            _ => {}
        }
        assert!(braces >= 0 && brackets >= 0, "unbalanced: {json}");
    }
    assert_eq!((braces, brackets, in_string), (0, 0, false), "{json}");
    for key in [
        "\"uptime_ms\"",
        "\"workers\":2",
        "\"queries\"",
        "\"queue\"",
        "\"result_cache\"",
        "\"latency_us\"",
        "\"p99_us\"",
    ] {
        assert!(json.contains(key), "missing {key} in {json}");
    }
    server.shutdown();
}

/// Shutting down fails whatever was still queued and refuses new work;
/// the call is idempotent.
#[test]
fn shutdown_drains_and_rejects() {
    let graph = Graph::from_triples(vec![Triple::new(0, 0, 1)]);
    let ring = Ring::build(&graph, RingOptions::default());
    let server = RpqServer::start(
        Arc::new(IndexSource::id_only(ring)),
        ServerConfig {
            workers: 0,
            admission_only: true,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let ticket = server.submit("0", "0", "?y").unwrap();
    server.shutdown();
    assert_eq!(
        server.wait(&ticket).unwrap_err(),
        RpqError::ShuttingDown,
        "queued work is failed, not lost"
    );
    assert!(matches!(
        server.submit("0", "0", "?y"),
        Err(RpqError::ShuttingDown)
    ));
    server.shutdown();
}

/// The zero-worker footgun: a serving config with `workers: 0` used to
/// accept submissions that could never run (every `wait` hung forever).
/// It is now rejected at construction with a typed error, and the
/// explicit `admission_only` replacement fails `wait` fast instead of
/// blocking.
#[test]
fn zero_worker_config_is_rejected_and_admission_only_wait_fails_fast() {
    let graph = Graph::from_triples(vec![Triple::new(0, 0, 1)]);
    let ring = Ring::build(&graph, RingOptions::default());
    let source = Arc::new(IndexSource::id_only(ring));

    match RpqServer::start(
        Arc::clone(&source) as Arc<dyn rpq_server::QuerySource>,
        ServerConfig {
            workers: 0,
            ..ServerConfig::default()
        },
    ) {
        Err(RpqError::InvalidConfig(msg)) => {
            assert!(msg.contains("workers"), "unhelpful message: {msg}");
        }
        Ok(_) => panic!("workers: 0 without admission_only must be rejected"),
        Err(other) => panic!("expected InvalidConfig, got {other:?}"),
    }

    // The sanctioned queue-only mode: submissions queue, and `wait` on a
    // queued job is a typed error, not a hang.
    let server = RpqServer::start(
        source,
        ServerConfig {
            workers: 0,
            admission_only: true,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let ticket = server.submit("0", "0", "?y").unwrap();
    assert!(matches!(
        server.wait(&ticket),
        Err(RpqError::InvalidConfig(_))
    ));
    // The job is untouched: still queued, and shutdown fails it.
    assert_eq!(server.metrics().queue_depth.load(Ordering::Relaxed), 1);
    server.shutdown();
    assert_eq!(server.wait(&ticket).unwrap_err(), RpqError::ShuttingDown);
}

/// Graceful drain: admissions stop immediately, the backlog finishes,
/// and the report (plus both metrics exporters) accounts for every job;
/// when nothing can run, the deadline aborts what was queued.
#[test]
fn drain_finishes_backlog_then_deadline_aborts_stragglers() {
    // A serving configuration: every submitted query completes within
    // the deadline, nothing is aborted.
    let graph = workload_graph(11);
    let ring = Ring::build(&graph, RingOptions::default());
    let server = RpqServer::start(
        Arc::new(IndexSource::id_only(ring)),
        ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let tickets: Vec<_> = (0..8)
        .map(|_| server.submit("?x", "0", "?y").unwrap())
        .collect();
    let report = server.drain(Duration::from_secs(30));
    assert_eq!(report.aborted, 0, "a live pool must finish its backlog");
    assert!(
        report.checkpoint_epoch.is_none() && report.checkpoint_error.is_none(),
        "an immutable source has nothing durable to checkpoint"
    );
    let m = server.metrics();
    assert_eq!(
        m.completed.load(Ordering::Relaxed),
        8,
        "drained jobs completed"
    );
    for t in &tickets {
        assert!(server.wait(t).is_ok(), "drained jobs must have completed");
    }
    assert!(
        matches!(server.submit("?x", "0", "?y"), Err(RpqError::ShuttingDown)),
        "a drained server rejects new work with the typed error"
    );
    assert!(server.metrics_json().contains("\"drains\":1"));
    assert!(server.prometheus_metrics().contains("rpq_drains_total 1"));

    // Admission-only: nothing ever runs, so the deadline expires and the
    // queued job is aborted (failed with ShuttingDown), not stranded.
    let graph = Graph::from_triples(vec![Triple::new(0, 0, 1)]);
    let ring = Ring::build(&graph, RingOptions::default());
    let server = RpqServer::start(
        Arc::new(IndexSource::id_only(ring)),
        ServerConfig {
            workers: 0,
            admission_only: true,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let ticket = server.submit("0", "0", "?y").unwrap();
    let report = server.drain(Duration::from_millis(50));
    assert_eq!(report.drained, 0);
    assert_eq!(report.aborted, 1);
    assert_eq!(server.wait(&ticket).unwrap_err(), RpqError::ShuttingDown);
    let m = server.metrics();
    assert_eq!(m.drained_jobs.load(Ordering::Relaxed), 0);
    assert_eq!(m.aborted_jobs.load(Ordering::Relaxed), 1);
}

/// Submissions racing a drain must never strand a job: each submit
/// either gets a synchronous rejection (`ShuttingDown`/`Overloaded`) or
/// its job has finished once `drain` returns — every accepted job counts
/// as completed before any ticket is waited on. (The worker used to
/// count a popped job into `in_flight` only after releasing the queue
/// lock, so a drain could observe the job in neither the queue nor the
/// in-flight count and declare the backlog drained while it still ran.)
#[test]
fn drain_racing_submissions_strands_no_job() {
    const SUBMITTERS: usize = 4;
    for round in 0..12 {
        let graph = workload_graph(round);
        let ring = Ring::build(&graph, RingOptions::default());
        let server = RpqServer::start(
            Arc::new(IndexSource::id_only(ring)),
            ServerConfig {
                workers: 2,
                max_pending: 64,
                // No result cache: every job takes the evaluation path,
                // keeping workers busy while the drain flag flips.
                result_cache_bytes: 0,
                ..ServerConfig::default()
            },
        )
        .unwrap();

        let mut accepted: Vec<Vec<rpq_server::QueryTicket>> = Vec::new();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..SUBMITTERS)
                .map(|_| {
                    let server = &server;
                    scope.spawn(move || {
                        let mut mine = Vec::new();
                        loop {
                            match server.submit("?x", "0+", "?y") {
                                Ok(t) => mine.push(t),
                                Err(RpqError::ShuttingDown) => break,
                                Err(RpqError::Overloaded { .. }) => {
                                    std::thread::yield_now();
                                }
                                Err(e) => panic!("unexpected submit error: {e}"),
                            }
                        }
                        mine
                    })
                })
                .collect();
            // Let the submitters build a backlog, then drain under them.
            std::thread::sleep(Duration::from_millis(2));
            let report = server.drain(Duration::from_secs(30));
            assert_eq!(
                report.aborted, 0,
                "a live pool given 30s must finish, not abort, its backlog"
            );
            accepted = handles.into_iter().map(|h| h.join().unwrap()).collect();
        });

        // Counted before any wait, so a pending job fails the test
        // instead of hanging it.
        let n = accepted.iter().map(Vec::len).sum::<usize>() as u64;
        let m = server.metrics();
        assert_eq!(m.submitted.load(Ordering::Relaxed), n, "round {round}");
        assert_eq!(
            m.completed.load(Ordering::Relaxed),
            n,
            "round {round}: an accepted job was left pending after a successful drain"
        );
        for t in accepted.iter().flatten() {
            assert!(server.wait(t).is_ok(), "round {round}");
        }
    }
}
