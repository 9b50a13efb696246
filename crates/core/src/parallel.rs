//! Batch parallelism across queries: many queries at once, one thread
//! each.
//!
//! The ring is immutable after construction, so any number of engines can
//! read it concurrently — each worker thread gets its own [`RpqEngine`]
//! (the per-query mask tables are the only mutable state). This is the
//! intra-machine counterpart of the parallel/distributed RPQ frameworks
//! §2 surveys, and what a server embedding the ring would do per client.
//! One query always runs on one thread: the paper's parallelism is the
//! bit-parallelism inside a traversal step, not a fan-out across threads.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use crate::engine::RpqEngine;
use crate::query::{EngineOptions, QueryOutput, RpqQuery};
use crate::source::TripleSource;
use crate::QueryError;

/// Evaluates `queries` over `source` — a ring, a store snapshot or a
/// sharded source — using up to `n_threads` workers (clamped to at
/// least 1), returning one result per query in input order. Each
/// worker's engine is built with [`RpqEngine::over`], so delta overlays
/// and shard parts merge into every evaluation exactly as they do
/// single-threaded.
///
/// Work is distributed dynamically (an atomic cursor), so skewed query
/// costs — the norm in RPQ logs — balance across workers. A panicking
/// worker is contained: its in-flight query reports
/// [`QueryError::Internal`] and every other query still completes (the
/// calling thread re-claims whatever the dead worker would have run).
pub fn evaluate_batch(
    source: &(impl TripleSource + Sync + ?Sized),
    queries: &[RpqQuery],
    opts: &EngineOptions,
    n_threads: usize,
) -> Vec<Result<QueryOutput, QueryError>> {
    evaluate_batch_with(source, queries, opts, n_threads, &|engine, q, opts| {
        engine.evaluate(q, opts)
    })
}

/// [`evaluate_batch`] with the per-query evaluation injected — the seam
/// the panic-containment tests use. One engine per worker, dynamic work
/// claiming, panic containment.
pub(crate) fn evaluate_batch_with(
    source: &(impl TripleSource + Sync + ?Sized),
    queries: &[RpqQuery],
    opts: &EngineOptions,
    n_threads: usize,
    eval: &(dyn Fn(&mut RpqEngine, &RpqQuery, &EngineOptions) -> Result<QueryOutput, QueryError>
          + Sync),
) -> Vec<Result<QueryOutput, QueryError>> {
    let n = queries.len();
    if n == 0 {
        return Vec::new();
    }
    let workers = n_threads.max(1).min(n);
    let cursor = AtomicUsize::new(0);
    let done: Vec<OnceLock<Result<QueryOutput, QueryError>>> =
        (0..n).map(|_| OnceLock::new()).collect();
    std::thread::scope(|scope| {
        // Helpers run without a panic guard: a panic kills only that
        // worker, and the explicit join below swallows it so the scope
        // does not re-raise. Its in-flight query keeps an empty slot.
        let worker = || {
            let mut engine = RpqEngine::over(source);
            loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let _ = done[i].set(eval(&mut engine, &queries[i], opts));
            }
        };
        let handles: Vec<_> = (1..workers).map(|_| scope.spawn(worker)).collect();
        // The caller participates too, but guards each query so one
        // poisoned evaluation cannot sink the whole batch: on a panic the
        // engine (whose mask tables may be mid-update) is rebuilt.
        let mut engine = RpqEngine::over(source);
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                eval(&mut engine, &queries[i], opts)
            }));
            let r = r.unwrap_or_else(|cause| {
                engine = RpqEngine::over(source);
                Err(QueryError::Internal(panic_message(&cause)))
            });
            let _ = done[i].set(r);
        }
        for h in handles {
            // A worker that panicked left its in-flight slot empty; the
            // post-scope sweep converts it. Swallowing the join error is
            // the fix for the old `.expect("worker panicked")` abort.
            let _ = h.join();
        }
    });
    done.into_iter()
        .map(|slot| {
            slot.into_inner().unwrap_or_else(|| {
                Err(QueryError::Internal(
                    "batch worker panicked while evaluating this query".to_string(),
                ))
            })
        })
        .collect()
}

/// Best-effort rendering of a panic payload.
fn panic_message(cause: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = cause.downcast_ref::<&str>() {
        format!("evaluation panicked: {s}")
    } else if let Some(s) = cause.downcast_ref::<String>() {
        format!("evaluation panicked: {s}")
    } else {
        "evaluation panicked".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Term;
    use automata::Regex;
    use ring::ring::RingOptions;
    use ring::Ring;
    use ring::{Graph, Triple};

    fn ring() -> Ring {
        let triples = (0..200u64)
            .map(|i| Triple::new(i % 40, i % 3, (i * 7 + 1) % 40))
            .collect();
        Ring::build(&Graph::from_triples(triples), RingOptions::default())
    }

    fn queries() -> Vec<RpqQuery> {
        let mut qs = Vec::new();
        for p in 0..3u64 {
            for anchor in 0..10u64 {
                qs.push(RpqQuery::new(
                    Term::Const(anchor),
                    Regex::Plus(Box::new(Regex::label(p))),
                    Term::Var,
                ));
                qs.push(RpqQuery::new(
                    Term::Var,
                    Regex::concat(Regex::label(p), Regex::Star(Box::new(Regex::label(2 - p)))),
                    Term::Const(anchor),
                ));
            }
        }
        qs
    }

    #[test]
    fn parallel_matches_sequential() {
        let r = ring();
        let qs = queries();
        let opts = EngineOptions::default();
        let mut engine = RpqEngine::new(&r);
        let sequential: Vec<_> = qs
            .iter()
            .map(|q| engine.evaluate(q, &opts).unwrap().sorted_pairs())
            .collect();
        for threads in [1, 2, 4, 7] {
            let parallel = evaluate_batch(&r, &qs, &opts, threads);
            assert_eq!(parallel.len(), qs.len());
            for (i, res) in parallel.into_iter().enumerate() {
                assert_eq!(
                    res.unwrap().sorted_pairs(),
                    sequential[i],
                    "query {i} with {threads} threads"
                );
            }
        }
    }

    #[test]
    fn empty_batch_and_errors_propagate() {
        let r = ring();
        let opts = EngineOptions::default();
        assert!(evaluate_batch(&r, &[], &opts, 4).is_empty());
        // Bad query keeps its slot.
        let qs = vec![
            RpqQuery::new(Term::Const(0), Regex::label(0), Term::Var),
            RpqQuery::new(Term::Const(9999), Regex::label(0), Term::Var),
        ];
        let res = evaluate_batch(&r, &qs, &opts, 2);
        assert!(res[0].is_ok());
        assert!(matches!(
            res[1],
            Err(crate::QueryError::NodeOutOfRange(9999))
        ));
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        let r = ring();
        let qs = queries();
        let opts = EngineOptions::default();
        let res = evaluate_batch(&r, &qs, &opts, 0);
        assert_eq!(res.len(), qs.len());
        assert!(res.into_iter().all(|r| r.is_ok()));
    }

    /// A worker panicking mid-batch must not abort the process: the
    /// poisoned query reports `Internal` and every other query completes
    /// with the right answer.
    #[test]
    fn worker_panic_is_contained() {
        let r = ring();
        let qs = queries();
        let opts = EngineOptions::default();
        let mut engine = RpqEngine::new(&r);
        let sequential: Vec<_> = qs
            .iter()
            .map(|q| engine.evaluate(q, &opts).unwrap().sorted_pairs())
            .collect();
        // Poison one mid-batch query, identified by its content.
        let victim = qs.len() / 2;
        let victim_subject = qs[victim].subject;
        let victim_expr = qs[victim].expr.clone();
        // Quiet the default hook: the injected panics are expected.
        let prev_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        for threads in [0, 1, 2, 4] {
            let res = evaluate_batch_with(&r, &qs, &opts, threads, &|engine, q, opts| {
                if q.subject == victim_subject && q.expr == victim_expr {
                    panic!("injected worker failure");
                }
                engine.evaluate(q, opts)
            });
            assert_eq!(res.len(), qs.len());
            for (i, r) in res.into_iter().enumerate() {
                if qs[i].subject == victim_subject && qs[i].expr == victim_expr {
                    assert!(
                        matches!(r, Err(QueryError::Internal(_))),
                        "victim {i} with {threads} threads: {r:?}"
                    );
                } else {
                    assert_eq!(
                        r.unwrap().sorted_pairs(),
                        sequential[i],
                        "query {i} with {threads} threads"
                    );
                }
            }
        }
        std::panic::set_hook(prev_hook);
    }
}
