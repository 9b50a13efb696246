//! Threaded evaluation: batch parallelism across queries and the shared
//! worker-token pool behind intra-query frontier fan-out.
//!
//! The ring is immutable after construction, so any number of engines can
//! read it concurrently — each worker thread gets its own [`RpqEngine`]
//! (the per-query mask tables are the only mutable state). This is the
//! intra-machine counterpart of the parallel/distributed RPQ frameworks
//! §2 surveys, and what a server embedding the ring would do per client.
//!
//! ## The process-wide helper pool
//!
//! Every parallel region — a batch, a BFS level fanned out by
//! [`EngineOptions::intra_query_threads`], a fast-path sweep — draws its
//! *extra* threads from one global token budget of
//! `available_parallelism − 1` tokens (`acquire_helpers`). The calling
//! thread always participates, so total running threads can never exceed
//! the core count no matter how many queries (or server workers) fan out
//! concurrently; when tokens run dry a region simply degrades to the
//! caller-only sequential path. Tokens are released on drop, making the
//! accounting panic-safe.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

use crate::engine::RpqEngine;
use crate::query::{EngineOptions, QueryOutput, RpqQuery};
use crate::source::TripleSource;
use crate::QueryError;

/// The global budget of *extra* worker tokens (the calling thread is
/// always implicit and free). Initialized on first use to
/// `available_parallelism − 1`, overridable with the
/// `RPQ_PARALLEL_POOL` environment variable (useful to exercise real
/// concurrency in tests on small machines, or to fence the engine off a
/// few cores).
static HELPER_TOKENS: OnceLock<AtomicUsize> = OnceLock::new();
static POOL_CAPACITY: OnceLock<usize> = OnceLock::new();

/// The total extra-worker budget of the process-wide pool (see module
/// docs): `available_parallelism − 1`, or the `RPQ_PARALLEL_POOL`
/// override. Observability surfaces (the server's metrics JSON) report
/// it so parallel-efficiency numbers have a denominator.
pub fn pool_capacity() -> usize {
    *POOL_CAPACITY.get_or_init(|| {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        std::env::var("RPQ_PARALLEL_POOL")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .unwrap_or_else(|| cores.saturating_sub(1))
    })
}

fn tokens() -> &'static AtomicUsize {
    HELPER_TOKENS.get_or_init(|| AtomicUsize::new(pool_capacity()))
}

/// Extra-worker tokens currently checked out of the pool — a
/// point-in-time utilization gauge (`pool_capacity()` is the
/// denominator). Exported by the server's metrics endpoints; inherently
/// racy, like any gauge.
pub fn pool_in_use() -> usize {
    pool_capacity().saturating_sub(tokens().load(Ordering::Acquire))
}

/// A grant of extra worker tokens; tokens return to the pool on drop
/// (panic-safe, so an unwinding parallel region cannot leak capacity).
pub struct HelperGrant(usize);

impl HelperGrant {
    /// How many extra threads this grant allows (0 = run caller-only).
    pub fn count(&self) -> usize {
        self.0
    }
}

impl Drop for HelperGrant {
    fn drop(&mut self) {
        if self.0 > 0 {
            tokens().fetch_add(self.0, Ordering::AcqRel);
        }
    }
}

/// Takes up to `want` extra-worker tokens from the process-wide pool
/// (possibly 0 — the caller then runs alone). Never blocks: intra-query
/// parallelism is opportunistic by design, so contention degrades to
/// sequential evaluation instead of queuing.
pub fn acquire_helpers(want: usize) -> HelperGrant {
    if want == 0 {
        return HelperGrant(0);
    }
    let pool = tokens();
    let mut cur = pool.load(Ordering::Acquire);
    loop {
        let take = cur.min(want);
        if take == 0 {
            return HelperGrant(0);
        }
        match pool.compare_exchange_weak(cur, cur - take, Ordering::AcqRel, Ordering::Acquire) {
            Ok(_) => return HelperGrant(take),
            Err(now) => cur = now,
        }
    }
}

/// Maps `items` chunk by chunk on the shared pool and consumes the
/// results **in chunk order** — the one fan-out behind a BFS level, a
/// fast-path sweep and the chunked ingest. `map(state, chunk, slot)`
/// fills a slot from its chunk alone, reading `state` (it runs
/// concurrently); `consume(state, slot)` runs on the caller thread, in
/// ascending chunk order, may change `state`, and returns `false` to
/// stop early (pending speculative chunks are discarded, exactly like a
/// sequential loop never computing them). `slots` are the buffers the
/// chunks are mapped into, reused wave after wave and call after call.
///
/// A wave of `4 × workers` chunks is mapped at once — every one against
/// the state the wave began under — so an early stop bounds wasted
/// speculation; within a wave each thread claims the next chunk when it
/// is done with its last, so skew balances. With an empty grant a wave
/// is one chunk and this is the plain sequential map-consume loop.
pub(crate) fn map_chunks_into<S, I, T>(
    state: &mut S,
    items: &[I],
    chunk_size: usize,
    extra_threads: usize,
    slots: &mut Vec<T>,
    map: impl Fn(&S, &[I], &mut T) + Sync,
    mut consume: impl FnMut(&mut S, &mut T) -> bool,
) where
    S: Sync,
    I: Sync,
    T: Default + Send,
{
    let grant = acquire_helpers(extra_threads);
    let wave = match grant.count() {
        0 => 1,
        helpers => (helpers + 1) * 4,
    };
    for wave_items in items.chunks(chunk_size * wave) {
        let n_chunks = wave_items.len().div_ceil(chunk_size);
        if slots.len() < n_chunks {
            slots.resize_with(n_chunks, T::default);
        }
        let slots = &mut slots[..n_chunks];
        let shared = &*state;
        let jobs = slots.iter_mut().zip(wave_items.chunks(chunk_size));
        let spawn = grant.count().min(n_chunks - 1);
        if spawn == 0 {
            jobs.for_each(|(slot, chunk)| map(shared, chunk, slot));
        } else {
            let jobs = Mutex::new(jobs);
            std::thread::scope(|scope| {
                let work = || loop {
                    let job = jobs
                        .lock()
                        .expect("the job queue is only locked to take a job")
                        .next();
                    match job {
                        Some((slot, chunk)) => map(shared, chunk, slot),
                        None => break,
                    }
                };
                for _ in 0..spawn {
                    scope.spawn(work);
                }
                work();
            });
        }
        for slot in slots {
            if !consume(state, slot) {
                return;
            }
        }
    }
}

/// Maps `items` chunk by chunk on the shared pool and consumes the
/// results **in chunk order**: `map(chunk_index, chunk)` runs
/// concurrently, `consume` on the caller thread, and its `false` stops
/// early. The closure-returning form of the crate's one ordered fan-out,
/// for callers with no state to share and no buffers to keep.
pub fn map_chunks_ordered<I: Sync, T: Send>(
    items: &[I],
    chunk_size: usize,
    extra_threads: usize,
    map: impl Fn(usize, &[I]) -> T + Sync,
    mut consume: impl FnMut(T) -> bool,
) {
    let chunks: Vec<(usize, &[I])> = items.chunks(chunk_size).enumerate().collect();
    map_chunks_into(
        &mut (),
        &chunks,
        1,
        extra_threads,
        &mut Vec::new(),
        |_, numbered, slot| *slot = Some(map(numbered[0].0, numbered[0].1)),
        |_, slot| consume(slot.take().expect("every chunk of a wave is mapped")),
    );
}

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

    /// Serializes the tests that observe or drain the global token pool
    /// (the test harness runs tests concurrently).
    static POOL_TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn helper_tokens_are_returned_on_drop() {
        let _guard = POOL_TEST_LOCK.lock().unwrap();
        // Capacity is machine-dependent; what must hold is conservation.
        let before = tokens().load(Ordering::Acquire);
        {
            let g1 = acquire_helpers(2);
            assert!(g1.count() <= before.min(2));
            let remaining = tokens().load(Ordering::Acquire);
            assert_eq!(remaining, before - g1.count());
            let g2 = acquire_helpers(usize::MAX);
            assert_eq!(g2.count(), remaining);
            assert_eq!(tokens().load(Ordering::Acquire), 0);
        }
        assert_eq!(tokens().load(Ordering::Acquire), before);
        assert_eq!(acquire_helpers(0).count(), 0);
    }

    #[test]
    fn map_chunks_ordered_replays_in_order_and_stops_early() {
        let _guard = POOL_TEST_LOCK.lock().unwrap();
        let items: Vec<usize> = (0..1000).collect();
        for extra in [0, 3] {
            let mut seen = Vec::new();
            map_chunks_ordered(
                &items,
                64,
                extra,
                |c, chunk| (c, chunk.iter().sum::<usize>()),
                |t| {
                    seen.push(t);
                    true
                },
            );
            let expect: Vec<(usize, usize)> = items
                .chunks(64)
                .enumerate()
                .map(|(c, ch)| (c, ch.iter().sum()))
                .collect();
            assert_eq!(seen, expect, "extra={extra}");
            // Early stop after 3 chunks consumes exactly 3.
            let mut n = 0;
            map_chunks_ordered(
                &items,
                64,
                extra,
                |c, _| c,
                |_| {
                    n += 1;
                    n < 3
                },
            );
            assert_eq!(n, 3, "extra={extra}");
            // What a chunk maps to sees the state the consumed ones left.
            let mut n = 0;
            let see = |n: &usize, _: &[usize], slot: &mut usize| *slot = *n;
            map_chunks_into(
                &mut n,
                &items,
                64,
                extra,
                &mut Vec::new(),
                see,
                |n, slot| {
                    assert!(*slot <= *n && (extra > 0 || *slot == *n));
                    *n += 1;
                    true
                },
            );
        }
    }
}
