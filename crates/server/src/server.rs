//! The query service: a std-thread worker pool over one shared,
//! immutable ring index, with admission control at the front and the
//! plan/result caches behind it.
//!
//! Life of a query: submit, then wait. [`RpqServer::submit`] parses and
//! resolves the string query on the caller's thread
//! ([`crate::source::resolve_query`], so parse errors are synchronous,
//! and an endpoint the captured snapshot does not hold is answered
//! empty there) and looks it up in the result cache there: a hit is
//! answered on the spot, and its [`QueryTicket`] holds the answer. A miss
//! is enqueued — a full queue is an [`RpqError::Overloaded`] rejection,
//! *before* any evaluation work is spent (admission control) — and its
//! ticket holds the job. A worker pops the job, consults the result
//! cache again (an identical earlier job may have filled it meanwhile),
//! then the plan cache (compiling the Glushkov product automaton on a
//! miss), and runs the engine under the job's [`QueryBudget`].
//! [`RpqServer::wait`] returns the outcome as a shared `Arc` answer. The
//! server keeps no table of jobs: a job lives in the queue, on a worker
//! and in its ticket, and dropping the ticket frees it.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ring::Id;
use rpq_core::{
    EngineOptions, EngineScratch, EvalRoute, PreparedQuery, RpqEngine, RpqQuery, SourceSnapshot,
    Term, TraversalStats,
};

use crate::metrics::{registry_json, registry_prometheus, Metrics, View};
use crate::plan_cache::PlanCache;
use crate::result_cache::{ResultCache, ResultKey};
use crate::slowlog::{SlowEntry, SlowLog};
use crate::source::{name_pairs, resolve_query, QuerySource};
use crate::{lock_ignore_poison, RpqError};

/// Per-query evaluation budgets. `max_results` and `timeout` return
/// partial answers with the corresponding flag set; an exhausted
/// `node_budget` is a hard [`RpqError::BudgetExceeded`] failure.
#[derive(Clone, Copy, Debug)]
pub struct QueryBudget {
    /// Stop after this many result pairs (partial answer, `truncated`).
    pub max_results: usize,
    /// Give up after this much wall-clock time (partial answer,
    /// `timed_out`).
    pub timeout: Option<Duration>,
    /// Abort after visiting this many product-graph nodes (hard error).
    pub node_budget: Option<u64>,
}

impl Default for QueryBudget {
    fn default() -> Self {
        Self {
            max_results: 1_000_000,
            timeout: Some(Duration::from_secs(30)),
            node_budget: None,
        }
    }
}

/// Server construction parameters.
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// Worker threads. Must be non-zero unless [`Self::admission_only`]
    /// is set — `workers: 0` on a serving configuration used to silently
    /// strand every submission in the queue forever, so
    /// [`RpqServer::start`] now rejects it with
    /// [`RpqError::InvalidConfig`].
    pub workers: usize,
    /// Admission-only mode: accept and queue submissions but spawn no
    /// workers, so nothing ever runs — for tests and drain scenarios.
    /// [`RpqServer::wait`] on a queued job fails fast with
    /// [`RpqError::InvalidConfig`] instead of blocking forever.
    pub admission_only: bool,
    /// Queue capacity; submissions beyond it are rejected
    /// ([`RpqError::Overloaded`]). Only result-cache misses are queued:
    /// a hit at submit is answered on the caller's thread and takes no
    /// slot, so it is served even when the queue is full.
    pub max_pending: usize,
    /// Byte budget of the compiled-plan cache.
    pub plan_cache_bytes: usize,
    /// Byte budget of the result cache (`0` disables it).
    pub result_cache_bytes: usize,
    /// Budget applied to queries submitted without an explicit one.
    pub default_budget: QueryBudget,
    /// Collect a [`rpq_core::QueryProfile`] for every evaluated query
    /// and attach it to the [`QueryAnswer`]. Off by default — profiling
    /// is opt-in and evaluation is bit-identical either way (the planner
    /// never reads the flag). Implied for slow-log candidates when
    /// [`Self::slow_log_capacity`] is non-zero.
    pub profile: bool,
    /// Keep the N worst queries (by end-to-end latency) in the slow-query
    /// log, full profiles included. `0` (the default) disables the log
    /// and the profiling it implies.
    pub slow_log_capacity: usize,
    /// Only queries at or above this end-to-end latency are slow-log
    /// candidates.
    pub slow_log_threshold: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            workers: std::thread::available_parallelism().map_or(1, |n| n.get()),
            admission_only: false,
            max_pending: 1024,
            plan_cache_bytes: 4 << 20,
            result_cache_bytes: 16 << 20,
            default_budget: QueryBudget::default(),
            profile: false,
            slow_log_capacity: 0,
            slow_log_threshold: Duration::from_millis(100),
        }
    }
}

/// A finished answer: distinct pairs in sorted order (deterministic
/// across runs and thread counts), shared via `Arc` between the ticket,
/// the result cache and any number of clients.
#[derive(Clone, Debug, Default)]
pub struct QueryAnswer {
    /// Distinct `(subject, object)` pairs, sorted ascending.
    pub pairs: Vec<(Id, Id)>,
    /// The result limit was hit (answer is a prefix of the full set).
    pub truncated: bool,
    /// The timeout was hit (answer is partial).
    pub timed_out: bool,
    /// The evaluation route the planner chose and the worker executed
    /// (`None` for the empty answer to an endpoint the snapshot does not
    /// hold, which nothing evaluates; cache hits keep the original run's
    /// route).
    pub route: Option<EvalRoute>,
    /// Engine traversal statistics.
    pub stats: TraversalStats,
    /// The query's execution profile, present when the server runs with
    /// [`ServerConfig::profile`] (or an active slow log). Cached answers
    /// get a fresh minimal profile per hit (`cache_hit: true`, queue
    /// wait only: 0 for a hit answered at submit) — the original run's
    /// profile is never replayed.
    pub profile: Option<Box<rpq_core::QueryProfile>>,
}

impl QueryAnswer {
    /// Whether this is the full answer set (cacheable).
    pub fn is_complete(&self) -> bool {
        !self.truncated && !self.timed_out
    }

    /// Heap bytes of the pair vector (result-cache accounting).
    pub fn size_bytes(&self) -> usize {
        self.pairs.len() * std::mem::size_of::<(Id, Id)>()
    }
}

/// What [`RpqServer::drain`] accomplished.
#[derive(Clone, Debug, Default)]
pub struct DrainReport {
    /// Backlogged queries (queued or running at drain start) that
    /// finished within the deadline.
    pub drained: usize,
    /// Queries still queued when the deadline expired, failed with
    /// [`RpqError::ShuttingDown`].
    pub aborted: usize,
    /// The epoch the source checkpointed its durable state at (`None`
    /// when the source has nothing durable, or the checkpoint failed).
    pub checkpoint_epoch: Option<u64>,
    /// Why the checkpoint failed, if it did.
    pub checkpoint_error: Option<String>,
}

/// Handle to a submitted query, redeemed with [`RpqServer::wait`]. It
/// owns its job: dropping a ticket nobody waited on frees the job and
/// its answer once no worker holds it.
pub struct QueryTicket(Ticket);

enum Ticket {
    /// A result-cache hit, answered at submit.
    Answered(Arc<QueryAnswer>),
    /// A miss, queued for a worker.
    Queued(Arc<Job>),
}

impl std::fmt::Debug for QueryTicket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self.0 {
            Ticket::Answered(_) => "QueryTicket(answered)",
            Ticket::Queued(_) => "QueryTicket(queued)",
        })
    }
}

/// What a finished job hands its waiters.
type Outcome = Result<Arc<QueryAnswer>, RpqError>;

struct Job {
    query: RpqQuery,
    key: ResultKey,
    budget: QueryBudget,
    /// When the job was admitted — queue wait is measured from here to
    /// worker pickup, end-to-end latency from here to the answer (the
    /// submit-time cache lookup included).
    submitted: Instant,
    /// The evaluation snapshot captured at submit time: the query runs
    /// against exactly this epoch's ring + delta, no matter how many
    /// commits land before a worker picks it up.
    snapshot: SourceSnapshot,
    /// `None` while pending, the outcome once finished.
    outcome: Mutex<Option<Outcome>>,
    done: Condvar,
}

impl Job {
    fn finish(&self, outcome: Outcome) {
        // Recovering from poison matters most right here: the worker's
        // panic handler calls `finish` on the very job whose evaluation
        // just panicked, possibly with this mutex poisoned.
        *lock_ignore_poison(&self.outcome) = Some(outcome);
        self.done.notify_all();
    }
}

struct Shared {
    source: Arc<dyn QuerySource>,
    config: ServerConfig,
    queue: Mutex<VecDeque<Arc<Job>>>,
    queue_cv: Condvar,
    shutdown: AtomicBool,
    /// Set by [`RpqServer::drain`]: stop admitting, keep evaluating.
    draining: AtomicBool,
    /// Jobs a worker has popped but not finished — what a drain waits
    /// on after the queue empties.
    in_flight: AtomicUsize,
    plan_cache: PlanCache,
    result_cache: ResultCache,
    metrics: Metrics,
    slow_log: SlowLog,
    /// Highest snapshot epoch observed; a submit that sees a newer one
    /// invalidates both caches (compiled plans may embed a stale
    /// alphabet after a rebuild; results are epoch-keyed on top).
    cache_epoch: AtomicU64,
}

/// The concurrent query service. Dropping the server shuts it down
/// (joining every worker); prefer [`RpqServer::shutdown`] for an
/// explicit, observable stop.
pub struct RpqServer {
    shared: Arc<Shared>,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl RpqServer {
    /// Starts the worker pool over `source`.
    ///
    /// Rejects configurations that can never serve: `workers == 0`
    /// without [`ServerConfig::admission_only`] would leave every
    /// submission queued forever.
    pub fn start(source: Arc<dyn QuerySource>, config: ServerConfig) -> Result<Self, RpqError> {
        if config.workers == 0 && !config.admission_only {
            return Err(RpqError::InvalidConfig(
                "workers == 0 would queue every submission forever; \
                 set admission_only for a queue-only server"
                    .into(),
            ));
        }
        let epoch0 = source.snapshot().epoch;
        let shared = Arc::new(Shared {
            source,
            config,
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            in_flight: AtomicUsize::new(0),
            plan_cache: PlanCache::new(config.plan_cache_bytes),
            result_cache: ResultCache::new(config.result_cache_bytes),
            metrics: Metrics::new(),
            slow_log: SlowLog::new(config.slow_log_capacity, config.slow_log_threshold),
            cache_epoch: AtomicU64::new(epoch0),
        });
        let n_workers = if config.admission_only {
            0
        } else {
            config.workers
        };
        let handles = (0..n_workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("rpq-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawning worker thread")
            })
            .collect();
        Ok(Self {
            shared,
            handles: Mutex::new(handles),
        })
    }

    /// The source being served.
    pub fn source(&self) -> &Arc<dyn QuerySource> {
        &self.shared.source
    }

    /// The metrics registry (live counters).
    pub fn metrics(&self) -> &Metrics {
        &self.shared.metrics
    }

    /// Submits a string query under the default budget.
    pub fn submit(&self, subject: &str, expr: &str, object: &str) -> Result<QueryTicket, RpqError> {
        self.submit_with(subject, expr, object, self.shared.config.default_budget)
    }

    /// Submits a string query under an explicit budget. Parse and
    /// resolution errors are synchronous; admission rejections
    /// ([`RpqError::Overloaded`]) happen before any evaluation work. An
    /// endpoint the dictionary knows but the captured snapshot does not
    /// hold is answered here, empty (see [`crate::source`]).
    ///
    /// A result-cache hit is answered in this call, on the caller's
    /// thread: the returned ticket holds the answer, and the hit takes no
    /// queue slot and wakes no worker. A miss is
    /// queued, and the worker that picks it up looks in the cache once
    /// more before it evaluates. Either way the request counts one cache
    /// hit or one miss, by where its answer came from.
    pub fn submit_with(
        &self,
        subject: &str,
        expr: &str,
        object: &str,
        budget: QueryBudget,
    ) -> Result<QueryTicket, RpqError> {
        let snapshot = self.shared.source.snapshot();
        let query = resolve_query(&*self.shared.source, &snapshot, subject, expr, object)?;
        self.submit_at(query, budget, snapshot)
    }

    /// Submits an id-level query (the path benchmarks and embedders use;
    /// no dictionary lookups). A result-cache hit is answered in this
    /// call, as in [`Self::submit_with`].
    pub fn submit_parsed(
        &self,
        query: RpqQuery,
        budget: QueryBudget,
    ) -> Result<QueryTicket, RpqError> {
        let snapshot = self.shared.source.snapshot();
        self.submit_at(Some(query), budget, snapshot)
    }

    /// Admits `query` at `snapshot`; `None` is a query with nothing to
    /// evaluate, answered here, empty.
    fn submit_at(
        &self,
        query: Option<RpqQuery>,
        budget: QueryBudget,
        snapshot: SourceSnapshot,
    ) -> Result<QueryTicket, RpqError> {
        if self.shared.shutdown.load(Ordering::Acquire)
            || self.shared.draining.load(Ordering::Acquire)
        {
            return Err(RpqError::ShuttingDown);
        }
        let Some(query) = query else {
            let metrics = &self.shared.metrics;
            metrics.submitted.fetch_add(1, Ordering::Relaxed);
            metrics.completed.fetch_add(1, Ordering::Relaxed);
            return Ok(QueryTicket(Ticket::Answered(Arc::default())));
        };
        self.note_epoch(snapshot.epoch);
        let key = ResultKey {
            pattern: PreparedQuery::cache_key(&query.expr),
            subject: query.subject,
            object: query.object,
            epoch: snapshot.epoch,
        };
        let job = Job {
            query,
            key,
            budget,
            submitted: Instant::now(),
            snapshot,
            outcome: Mutex::new(None),
            done: Condvar::new(),
        };
        // A hit is answered here, on the caller's thread: the ticket
        // holds the answer, and the job takes no queue slot, worker or
        // `in_flight` count, so a full queue does not refuse it. A miss
        // counts nothing yet; the worker's lookup at pickup counts it.
        if let Some(cached) = self.shared.result_cache.get_hit(&job.key) {
            let answer = answer_hit(&self.shared, &job, cached, 0);
            self.shared
                .metrics
                .submitted
                .fetch_add(1, Ordering::Relaxed);
            return Ok(QueryTicket(Ticket::Answered(answer)));
        }
        let job = Arc::new(job);
        {
            let mut queue = lock_ignore_poison(&self.shared.queue);
            // Re-checked under the queue lock: shutdown() drains the queue
            // after setting the flag, so a push racing past the earlier
            // check would leave the job pending forever (and a drain that
            // observed an empty queue must not admit a straggler).
            if self.shared.shutdown.load(Ordering::Acquire)
                || self.shared.draining.load(Ordering::Acquire)
            {
                return Err(RpqError::ShuttingDown);
            }
            if queue.len() >= self.shared.config.max_pending {
                self.shared
                    .metrics
                    .rejected_overload
                    .fetch_add(1, Ordering::Relaxed);
                return Err(RpqError::Overloaded {
                    pending: queue.len(),
                    capacity: self.shared.config.max_pending,
                });
            }
            queue.push_back(Arc::clone(&job));
            self.shared.metrics.note_queue_depth(queue.len());
        }
        self.shared
            .metrics
            .submitted
            .fetch_add(1, Ordering::Relaxed);
        self.shared.queue_cv.notify_one();
        Ok(QueryTicket(Ticket::Queued(job)))
    }

    /// Blocks until the ticket's job finishes and returns its outcome.
    /// A ticket may be waited on any number of times; every call returns
    /// the same outcome.
    ///
    /// On an admission-only server nothing ever runs, so waiting on a
    /// queued job fails fast with [`RpqError::InvalidConfig`] instead of
    /// blocking forever (the job stays queued).
    pub fn wait(&self, ticket: &QueryTicket) -> Result<Arc<QueryAnswer>, RpqError> {
        let job = match &ticket.0 {
            Ticket::Answered(answer) => return Ok(Arc::clone(answer)),
            Ticket::Queued(job) => job,
        };
        let outcome = lock_ignore_poison(&job.outcome);
        if outcome.is_none() && self.shared.config.admission_only {
            return Err(RpqError::InvalidConfig(
                "wait() would block forever: this server is admission-only (no workers)".into(),
            ));
        }
        let outcome = job
            .done
            .wait_while(outcome, |o| o.is_none())
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        outcome.clone().expect("woken with an outcome")
    }

    /// Submit-and-wait convenience under the default budget.
    pub fn query_blocking(
        &self,
        subject: &str,
        expr: &str,
        object: &str,
    ) -> Result<Arc<QueryAnswer>, RpqError> {
        let ticket = self.submit(subject, expr, object)?;
        self.wait(&ticket)
    }

    /// Renders an answer's id pairs as name pairs, sorted and distinct
    /// ([`crate::source::name_pairs`]; ids without a dictionary entry
    /// print as decimal).
    pub fn resolve_pairs(&self, answer: &QueryAnswer) -> Vec<(String, String)> {
        name_pairs(&*self.shared.source, &answer.pairs)
    }

    /// Drops every cached plan and result (the invalidation hook an
    /// index-update path must call; epoch bumps observed at submit time
    /// call it automatically).
    pub fn invalidate_caches(&self) {
        self.shared.plan_cache.invalidate_all();
        self.shared.result_cache.invalidate_all();
    }

    /// Observes a snapshot epoch: a bump past the last one seen drops
    /// both caches (results are additionally epoch-keyed, so even racing
    /// insertions of older answers cannot serve a newer epoch).
    fn note_epoch(&self, epoch: u64) {
        let prev = self.shared.cache_epoch.fetch_max(epoch, Ordering::AcqRel);
        if epoch > prev {
            self.shared
                .metrics
                .epoch_bumps
                .fetch_add(1, Ordering::Relaxed);
            self.invalidate_caches();
        }
    }

    /// What both metrics exports render: the registry, the configuration,
    /// and the caches' and the source's counters as of now.
    fn metrics_view(&self) -> View<'_> {
        let Shared { source, config, .. } = &*self.shared;
        let shards = source.shard_stats();
        View {
            m: &self.shared.metrics,
            config,
            caches: [
                self.shared.plan_cache.stats(),
                self.shared.result_cache.stats(),
            ],
            epoch: source.snapshot().epoch,
            updates: source.update_stats().unwrap_or_default(),
            index: source.index_info().unwrap_or_default(),
            sharded: shards.is_some(),
            shards: shards.unwrap_or_default(),
        }
    }

    /// The full metrics registry as a JSON object.
    pub fn metrics_json(&self) -> String {
        registry_json(&self.metrics_view())
    }

    /// The full metrics registry in the Prometheus text exposition
    /// format (the same atomics as [`Self::metrics_json`]).
    pub fn prometheus_metrics(&self) -> String {
        registry_prometheus(&self.metrics_view())
    }

    /// The slow-query log (worst queries by end-to-end latency; empty
    /// unless [`ServerConfig::slow_log_capacity`] is non-zero).
    pub fn slow_log(&self) -> &SlowLog {
        &self.shared.slow_log
    }

    /// The slow-query log rendered as one JSON object, worst query
    /// first.
    pub fn slow_queries_json(&self) -> String {
        self.shared.slow_log.to_json()
    }

    /// Stops accepting work, joins every worker, and fails whatever was
    /// still queued with [`RpqError::ShuttingDown`]. Idempotent; also
    /// runs on drop. Tickets can still be waited on afterwards.
    pub fn shutdown(&self) {
        self.shutdown_impl();
    }

    /// Gracefully winds the server down: stops admitting new queries
    /// (submissions fail with [`RpqError::ShuttingDown`] immediately),
    /// waits up to `deadline` for the queue and every in-flight query to
    /// finish, then shuts down — aborting whatever the deadline left
    /// queued — and finally asks the source to
    /// [checkpoint](QuerySource::checkpoint) its durable state (for a
    /// WAL'd live source: persist a snapshot and rotate the log).
    /// Idempotent like [`Self::shutdown`]; the report says how the
    /// backlog fared.
    pub fn drain(&self, deadline: Duration) -> DrainReport {
        self.shared.draining.store(true, Ordering::Release);
        let start = Instant::now();
        // Queue length and the in-flight count must be read under one
        // queue lock: `pop_job` moves a job from the queue into
        // `in_flight` while holding it, so a lock-free pair of reads
        // could observe the job in neither place — and a drain seeing
        // that phantom empty state would report a still-running backlog
        // as drained.
        let backlog = {
            let queue = lock_ignore_poison(&self.shared.queue);
            queue.len() + self.shared.in_flight.load(Ordering::Acquire)
        };
        while start.elapsed() < deadline {
            let idle = {
                let queue = lock_ignore_poison(&self.shared.queue);
                queue.is_empty() && self.shared.in_flight.load(Ordering::Acquire) == 0
            };
            if idle {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let aborted = self.shutdown_impl();
        let drained = backlog.saturating_sub(aborted);
        let metrics = &self.shared.metrics;
        metrics.drains.fetch_add(1, Ordering::Relaxed);
        metrics
            .drained_jobs
            .fetch_add(drained as u64, Ordering::Relaxed);
        metrics
            .aborted_jobs
            .fetch_add(aborted as u64, Ordering::Relaxed);
        let (checkpoint_epoch, checkpoint_error) = match self.shared.source.checkpoint() {
            None => (None, None),
            Some(Ok(epoch)) => {
                metrics.checkpoints.fetch_add(1, Ordering::Relaxed);
                (Some(epoch), None)
            }
            Some(Err(err)) => {
                metrics.checkpoint_failures.fetch_add(1, Ordering::Relaxed);
                (None, Some(err.to_string()))
            }
        };
        DrainReport {
            drained,
            aborted,
            checkpoint_epoch,
            checkpoint_error,
        }
    }

    /// Fails queued jobs, joins workers; returns how many jobs were
    /// aborted (failed with [`RpqError::ShuttingDown`]).
    fn shutdown_impl(&self) -> usize {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.queue_cv.notify_all();
        let handles = std::mem::take(&mut *lock_ignore_poison(&self.handles));
        for h in handles {
            let _ = h.join();
        }
        let leftovers: Vec<Arc<Job>> = lock_ignore_poison(&self.shared.queue).drain(..).collect();
        for job in &leftovers {
            job.finish(Err(RpqError::ShuttingDown));
        }
        self.shared.metrics.note_queue_depth(0);
        leftovers.len()
    }
}

impl Drop for RpqServer {
    fn drop(&mut self) {
        self.shutdown_impl();
    }
}

/// Pops the next job, or `None` on shutdown.
///
/// A popped job is counted into `in_flight` *before* the queue lock is
/// released, so at no instant is a live job visible in neither the
/// queue nor the in-flight count. (Incrementing only after the pop
/// returned used to open exactly that window, and a concurrent
/// [`RpqServer::drain`] observing it reported the backlog drained while
/// the job was still about to run.) Callers own the slot: they must
/// decrement `in_flight` once the job is finished.
fn pop_job(shared: &Shared) -> Option<Arc<Job>> {
    let mut queue = lock_ignore_poison(&shared.queue);
    loop {
        if shared.shutdown.load(Ordering::Acquire) {
            return None;
        }
        if let Some(job) = queue.pop_front() {
            shared.metrics.note_queue_depth(queue.len());
            shared.in_flight.fetch_add(1, Ordering::AcqRel);
            return Some(job);
        }
        queue = shared
            .queue_cv
            .wait(queue)
            .unwrap_or_else(std::sync::PoisonError::into_inner);
    }
}

fn worker_loop(shared: &Shared) {
    // Jobs run against the snapshot captured at their submit time, which
    // may differ from job to job. The worker's mask tables belong to no
    // snapshot: a job that misses the result cache builds its engine
    // around them in O(1), and they grow in place when a commit or
    // compaction enlarges the index.
    let mut scratch = EngineScratch::default();
    while let Some(job) = pop_job(shared) {
        // A panicking evaluation must not leave the job pending (a
        // `wait` would block forever) nor shrink the worker pool: fail
        // the job and keep serving. The scratch the evaluation took
        // unwinds with its engine (the mask tables may be mid-update);
        // the next one starts empty.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_job(shared, &mut scratch, &job)
        }));
        if outcome.is_err() {
            shared.metrics.failed.fetch_add(1, Ordering::Relaxed);
            job.finish(Err(RpqError::Internal(
                "query evaluation panicked; see server logs".into(),
            )));
        }
        shared.in_flight.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Offers a completed answer to the slow-query log (no-op when the log
/// is disabled or the query beat the threshold).
fn offer_slow(shared: &Shared, job: &Job, answer: &QueryAnswer, total_us: u64, queue_wait_us: u64) {
    if !shared.slow_log.enabled() {
        return;
    }
    let term = |t: &Term| match t {
        Term::Var => "?".to_string(),
        Term::Const(id) => id.to_string(),
    };
    shared.slow_log.offer(SlowEntry {
        seq: 0,
        pattern: job.key.pattern.clone(),
        subject: term(&job.key.subject),
        object: term(&job.key.object),
        total_us,
        queue_wait_us,
        route: answer.route,
        cache_hit: answer
            .profile
            .as_ref()
            .is_some_and(|p| p.cache_hit == Some(true)),
        pairs: answer.pairs.len() as u64,
        truncated: answer.truncated,
        timed_out: answer.timed_out,
        profile: answer.profile.clone(),
    });
}

/// Whether answers get a profile: when asked for, or whenever the slow
/// log is live (its entries are useless without one). Evaluation results
/// are bit-identical either way — the planner never reads the flag.
fn want_profile(shared: &Shared) -> bool {
    shared.config.profile || shared.slow_log.enabled()
}

/// The one result-cache hit path, taken in two places: by
/// [`RpqServer::submit_with`] on the caller's thread when the entry is
/// there at submit (`queue_wait_us` 0, the job never queues), and by
/// [`run_job`] when a worker finds the entry at pickup. Cuts the cached
/// set to the requester's `max_results`, builds the hit's profile,
/// records its latency and completion and offers it to the slow log.
/// Returns the answer the job finishes with.
fn answer_hit(
    shared: &Shared,
    job: &Job,
    cached: Arc<QueryAnswer>,
    queue_wait_us: u64,
) -> Arc<QueryAnswer> {
    let metrics = &shared.metrics;
    // A cached complete set subsumes any partial, but the requester's
    // `max_results` still bounds the payload it receives: hand back a
    // truncated prefix when the cached set is larger. (`node_budget`
    // caps evaluation work; a cache hit does none, so it never fails
    // a hit.)
    let answer = if cached.pairs.len() > job.budget.max_results {
        Arc::new(QueryAnswer {
            pairs: cached.pairs[..job.budget.max_results].to_vec(),
            truncated: true,
            timed_out: false,
            route: cached.route,
            stats: cached.stats,
            profile: None,
        })
    } else {
        cached
    };
    let total = job.submitted.elapsed();
    let total_us = total.as_micros().min(u128::from(u64::MAX)) as u64;
    let mut profiled = Arc::clone(&answer);
    if want_profile(shared) {
        // A hit does no planning or evaluation; its profile records
        // the queue wait and lookup time only.
        let mut fresh = (*answer).clone();
        fresh.profile = Some(Box::new(rpq_core::QueryProfile {
            total_us,
            queue_wait_us: Some(queue_wait_us),
            cache_hit: Some(true),
            ..Default::default()
        }));
        profiled = Arc::new(fresh);
    }
    metrics.latency_cached.record(total);
    metrics.latency_all.record(total);
    metrics.completed.fetch_add(1, Ordering::Relaxed);
    offer_slow(shared, job, &profiled, total_us, queue_wait_us);
    // Profiles reach the client only when asked for; a slow-log-only
    // configuration keeps them internal.
    if shared.config.profile {
        profiled
    } else {
        answer
    }
}

fn run_job(shared: &Shared, scratch: &mut EngineScratch, job: &Job) {
    let metrics = &shared.metrics;
    let picked = Instant::now();
    let queue_wait = picked.duration_since(job.submitted);
    let queue_wait_us = queue_wait.as_micros().min(u128::from(u64::MAX)) as u64;
    metrics.queue_wait.record(queue_wait);

    // The second place a hit is answered: the entry was missing at
    // submit, but an identical earlier job may have filled it while this
    // one waited in the queue.
    if let Some(cached) = shared.result_cache.get(&job.key) {
        job.finish(Ok(answer_hit(shared, job, cached, queue_wait_us)));
        return;
    }

    let ring = &*job.snapshot.ring;
    let compile_t0 = Instant::now();
    let plan = match shared
        .plan_cache
        .get_or_compile(&job.query.expr, job.snapshot.epoch, &|l| {
            ring.inverse_label(l)
        }) {
        Ok(plan) => plan,
        Err(e) => {
            metrics.failed.fetch_add(1, Ordering::Relaxed);
            job.finish(Err(RpqError::Query(e)));
            return;
        }
    };
    // Plan-cache lookup + (on a miss) Glushkov compilation time.
    let compile_us = compile_t0.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
    let opts = EngineOptions {
        limit: job.budget.max_results,
        timeout: job.budget.timeout,
        node_budget: job.budget.node_budget,
        profile: want_profile(shared),
        ..EngineOptions::default()
    };
    let mut engine = RpqEngine::with_scratch(&job.snapshot, std::mem::take(scratch));
    let result = engine.evaluate_prepared(&plan, job.query.subject, job.query.object, &opts);
    *scratch = engine.into_scratch();

    let out = match result {
        Ok(out) => out,
        Err(e) => {
            metrics.failed.fetch_add(1, Ordering::Relaxed);
            job.finish(Err(RpqError::Query(e)));
            return;
        }
    };
    // The route the planner chose and the engine executed — recorded in
    // the output itself, so metrics can never disagree with evaluation.
    let route = out.plan.as_ref().map(|p| p.route);
    if let Some(r) = route {
        metrics.note_planner_decision(r);
    }
    metrics.note_traversal(&out.stats);
    // Cost-model accountability: every executed plan's estimate against
    // what evaluation actually visited (budget-aborted runs included —
    // gross underestimates are exactly the interesting samples).
    if let Some(p) = out.plan.as_ref() {
        metrics.note_plan_accuracy(
            p.route,
            p.estimated_cost,
            out.stats.product_nodes,
            out.stats.rank_ops,
        );
    }
    if out.budget_exhausted {
        metrics.budget_exceeded.fetch_add(1, Ordering::Relaxed);
        metrics.failed.fetch_add(1, Ordering::Relaxed);
        job.finish(Err(RpqError::BudgetExceeded {
            visited: out.stats.product_nodes,
            budget: job.budget.node_budget.unwrap_or(0),
        }));
        return;
    }

    let mut pairs = out.pairs;
    pairs.sort_unstable();
    pairs.dedup();
    let mut profile = out.profile;
    if let Some(p) = profile.as_deref_mut() {
        p.queue_wait_us = Some(queue_wait_us);
        p.compile_us = Some(compile_us);
        p.cache_hit = Some(false);
    }
    let answer = Arc::new(QueryAnswer {
        pairs,
        truncated: out.truncated,
        timed_out: out.timed_out,
        route,
        stats: out.stats,
        profile,
    });
    // Profiles are per-execution: the cached copy — and, when only the
    // slow log wanted one, the published answer — are stripped so no
    // request ever sees another run's timings.
    let stripped = if answer.profile.is_some() {
        Arc::new(QueryAnswer {
            profile: None,
            ..(*answer).clone()
        })
    } else {
        Arc::clone(&answer)
    };
    if answer.is_complete() {
        shared
            .result_cache
            .insert(job.key.clone(), Arc::clone(&stripped));
    }
    let exec = picked.elapsed();
    let total = job.submitted.elapsed();
    metrics.latency_exec.record(exec);
    metrics.latency_all.record(total);
    if let Some(r) = route {
        metrics.route_histogram(r).record(exec);
    }
    metrics.completed.fetch_add(1, Ordering::Relaxed);
    offer_slow(
        shared,
        job,
        &answer,
        total.as_micros().min(u128::from(u64::MAX)) as u64,
        queue_wait_us,
    );
    job.finish(Ok(if shared.config.profile {
        answer
    } else {
        stripped
    }));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::IndexSource;
    use ring::ring::RingOptions;
    use ring::{Graph, Ring, Triple};

    fn tiny_server(config: ServerConfig) -> RpqServer {
        let g = Graph::from_triples(vec![Triple::new(0, 0, 1), Triple::new(1, 0, 2)]);
        let ring = Ring::build(&g, RingOptions::default());
        RpqServer::start(Arc::new(IndexSource::id_only(ring)), config).unwrap()
    }

    /// The job a queued ticket owns.
    fn job_of(ticket: &QueryTicket) -> &Arc<Job> {
        match &ticket.0 {
            Ticket::Queued(job) => job,
            Ticket::Answered(_) => panic!("expected a queued ticket"),
        }
    }

    /// Panics while holding the job's outcome mutex, poisoning it — the
    /// state a worker panic used to leave behind.
    fn poison_outcome(job: &Arc<Job>) {
        let j = Arc::clone(job);
        let outcome = std::thread::Builder::new()
            .name("poisoner".into())
            .spawn(move || {
                let _guard = j.outcome.lock().unwrap();
                panic!("deliberately poisoning the outcome mutex");
            })
            .unwrap()
            .join();
        assert!(outcome.is_err());
        assert!(job.outcome.is_poisoned());
    }

    /// Regression: a poisoned outcome mutex used to turn every client
    /// touch into a fresh panic via `.lock().unwrap()`. `wait` and the
    /// shutdown that fails the queued job must both recover the lock.
    /// Deterministic via `admission_only`: the job stays queued, so the
    /// poison always lands first.
    #[test]
    fn poisoned_status_mutex_does_not_cascade_into_clients() {
        let server = tiny_server(ServerConfig {
            workers: 0,
            admission_only: true,
            ..ServerConfig::default()
        });
        let ticket = server.submit("0", "0", "?y").unwrap();
        poison_outcome(job_of(&ticket));

        assert!(matches!(
            server.wait(&ticket),
            Err(RpqError::InvalidConfig(_))
        ));
        server.shutdown();
        assert_eq!(server.wait(&ticket).unwrap_err(), RpqError::ShuttingDown);
    }

    /// The same sweep on a serving pool: jobs whose outcome mutex was
    /// poisoned mid-queue must still be evaluated and finished by the
    /// worker, and `wait` must hand their answers back instead of
    /// propagating the poison.
    #[test]
    fn wait_on_a_poisoned_job_still_returns_its_answer() {
        let server = tiny_server(ServerConfig {
            workers: 1,
            result_cache_bytes: 0,
            ..ServerConfig::default()
        });
        let tickets: Vec<QueryTicket> = (0..16)
            .map(|_| server.submit("?x", "0+", "?y").unwrap())
            .collect();
        // Poison every job — some queued, some already running or done,
        // covering finish-time recovery in the worker.
        for t in &tickets {
            poison_outcome(job_of(t));
        }
        for t in &tickets {
            let answer = server.wait(t).expect("a poisoned job must still finish");
            assert_eq!(answer.pairs, vec![(0, 1), (0, 2), (1, 2)]);
        }
        server.shutdown();
    }

    /// The server keeps no reference to a job once it is finished: a
    /// ticket dropped unwaited frees its job, answer and snapshot.
    #[test]
    fn a_dropped_ticket_frees_its_job() {
        let server = tiny_server(ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        });
        let ticket = server.submit("?x", "0+", "?y").unwrap();
        let job = Arc::downgrade(job_of(&ticket));
        drop(ticket);
        // Once drained, no worker holds the job either.
        assert_eq!(server.drain(Duration::from_secs(30)).aborted, 0);
        assert!(job.upgrade().is_none(), "nothing may keep a dropped job");
    }
}
