//! The server's metrics registry: lock-free counters, queue-depth
//! gauges, and per-engine latency histograms, exported as JSON and as
//! Prometheus text format.
//!
//! Histogram buckets are powers of two in microseconds (bucket `i` holds
//! latencies in `[2^(i-1), 2^i)` µs, bucket 0 holds sub-microsecond
//! observations), which spans 1 µs – ~1 h in 32 buckets and makes
//! quantile estimation a single scan. Everything is atomics — recording
//! a sample on the hot path is a handful of relaxed adds.
//!
//! Every exported metric is one row of `TABLE`: its place in the JSON
//! document, its Prometheus family and help text, and where its samples
//! are read. `registry_json` (what the CLI's `stats`/`.metrics` print)
//! and `registry_prometheus` (the text exposition format; the log₂-µs
//! buckets become cumulative `le` buckets in seconds) both walk it.

use std::borrow::Cow;
use std::fmt::{Display, Write as _};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use rpq_core::jsonw::JsonWriter;
use rpq_core::EvalRoute;

use crate::source::{IndexStats, ShardStat, UpdateStats};
use crate::ServerConfig;

const BUCKETS: usize = 32;

/// A log₂-bucketed latency histogram (microseconds).
#[derive(Default)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_us: AtomicU64,
    /// The sub-µs parts of the latency samples, in nanoseconds: summed
    /// apart so a 1.8 µs sample adds 1.8 µs to [`Self::sum_us`], not 1.
    sum_sub_us_ns: AtomicU64,
}

impl Histogram {
    /// Records one latency sample.
    pub fn record(&self, latency: Duration) {
        self.record_value(latency.as_micros().min(u128::from(u64::MAX)) as u64);
        let sub_us_ns = latency.subsec_nanos() % 1000;
        self.sum_sub_us_ns
            .fetch_add(u64::from(sub_us_ns), Ordering::Relaxed);
    }

    /// Records one raw sample (microseconds for latency histograms, but
    /// any unitless magnitude works — the planner-misprediction
    /// histograms store ratios ×1000).
    pub fn record_value(&self, value: u64) {
        let bucket = (64 - value.leading_zeros() as usize).min(BUCKETS - 1);
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(value, Ordering::Relaxed);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of samples, microseconds (rounded down once, not per sample).
    pub fn sum_us(&self) -> u64 {
        let sub_us = self.sum_sub_us_ns.load(Ordering::Relaxed) / 1000;
        self.sum_us.load(Ordering::Relaxed) + sub_us
    }

    /// Snapshot of the per-bucket counts (bucket `i` = samples in
    /// `[2^(i-1), 2^i)` µs).
    pub fn bucket_counts(&self) -> [u64; BUCKETS] {
        let mut counts = [0u64; BUCKETS];
        for (c, b) in counts.iter_mut().zip(self.buckets.iter()) {
            *c = b.load(Ordering::Relaxed);
        }
        counts
    }

    /// Approximate `q`-quantile in microseconds (upper bound of the
    /// bucket the quantile falls in). Returns 0 with no samples.
    pub fn quantile_us(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return if i == 0 { 1 } else { 1u64 << i };
            }
        }
        1u64 << (BUCKETS - 1)
    }

    fn non_empty(&self) -> bool {
        self.count() > 0
    }

    /// Renders `{"count":..,"sum_us":..,"p50_us":..,"p99_us":..,
    /// "buckets_log2_us":[..]}` with the bucket array truncated at the
    /// last non-zero bucket.
    fn write_json(&self, w: &mut JsonWriter) {
        let counts = self.bucket_counts();
        let last = counts.iter().rposition(|&c| c > 0).unwrap_or(0);
        w.begin_object()
            .field_u64("count", self.count())
            .field_u64("sum_us", self.sum_us())
            .field_u64("p50_us", self.quantile_us(0.50))
            .field_u64("p99_us", self.quantile_us(0.99))
            .key("buckets_log2_us")
            .begin_array();
        for &c in &counts[..=last] {
            w.u64(c);
        }
        w.end_array().end_object();
    }
}

/// Number of evaluation routes ([`EvalRoute::ALL`]).
const ROUTES: usize = EvalRoute::ALL.len();

/// The registry: query-lifecycle counters, admission gauges, planner
/// decision counts and cost-model accountability, and one latency
/// histogram per evaluation route (plus cache hits, queue wait,
/// execution time, and the all-routes end-to-end aggregate).
pub struct Metrics {
    started: Instant,
    /// Queries accepted: queued, or answered at submit (from the result
    /// cache, or empty for an endpoint the snapshot does not hold).
    pub submitted: AtomicU64,
    /// Queries that produced an answer (including truncated/timed-out
    /// partials, result-cache hits and empty answers at submit).
    pub completed: AtomicU64,
    /// Queries that failed evaluation.
    pub failed: AtomicU64,
    /// Submissions rejected because the queue was full.
    pub rejected_overload: AtomicU64,
    /// Queries aborted because their node budget ran out.
    pub budget_exceeded: AtomicU64,
    /// Current queue depth.
    pub queue_depth: AtomicUsize,
    /// High-water mark of the queue depth.
    pub queue_peak: AtomicUsize,
    /// End-to-end latency (submit → answer, queue wait included), all
    /// completions.
    pub latency_all: Histogram,
    /// Time jobs spent queued before a worker picked them up.
    pub queue_wait: Histogram,
    /// Pure evaluation time (worker pickup → answer), evaluated queries
    /// only — cache hits do no evaluation and are excluded.
    pub latency_exec: Histogram,
    /// End-to-end latency of result-cache hits.
    pub latency_cached: Histogram,
    /// Evaluation latency per route, indexed by [`EvalRoute::index`]:
    /// fastpath, bitparallel, split.
    pub latency_by_route: [Histogram; ROUTES],
    /// Planner decisions per route (every evaluated query counts once,
    /// whether or not it completed; cache hits never reach the planner).
    pub planner_decisions: [AtomicU64; ROUTES],
    /// Sum of the planner's `estimated_cost` per executed route.
    pub est_cost_by_route: [AtomicU64; ROUTES],
    /// Sum of product-graph nodes actually visited per executed route.
    pub actual_nodes_by_route: [AtomicU64; ROUTES],
    /// Sum of wavelet rank operations actually performed per executed
    /// route.
    pub actual_rank_ops_by_route: [AtomicU64; ROUTES],
    /// Per-route misprediction ratio ×1000 (`(actual_nodes + 1) * 1000 /
    /// (estimated_cost + 1)`): 1000 is a perfect estimate, above it the
    /// planner underestimated, below it overestimated.
    pub misprediction_by_route: [Histogram; ROUTES],
    /// Wavelet rank computations performed by batched traversals, summed
    /// over every evaluated query.
    pub rank_ops: AtomicU64,
    /// Rank computations the frontier batching avoided (vs per-range
    /// traversal) — the succinct hot-path win, observable in production.
    pub rank_ops_saved: AtomicU64,
    /// Snapshot-epoch bumps observed at submit time (each one dropped
    /// the plan and result caches).
    pub epoch_bumps: AtomicU64,
    /// Graceful drains started ([`RpqServer::drain`](crate::RpqServer::drain)).
    pub drains: AtomicU64,
    /// Backlogged queries that finished within a drain deadline.
    pub drained_jobs: AtomicU64,
    /// Queries a drain deadline aborted while still queued.
    pub aborted_jobs: AtomicU64,
    /// Successful durable checkpoints (snapshot persisted, WAL rotated).
    pub checkpoints: AtomicU64,
    /// Checkpoint attempts that failed.
    pub checkpoint_failures: AtomicU64,
}

impl Metrics {
    pub(crate) fn new() -> Self {
        Self {
            started: Instant::now(),
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            rejected_overload: AtomicU64::new(0),
            budget_exceeded: AtomicU64::new(0),
            queue_depth: AtomicUsize::new(0),
            queue_peak: AtomicUsize::new(0),
            latency_all: Histogram::default(),
            queue_wait: Histogram::default(),
            latency_exec: Histogram::default(),
            latency_cached: Histogram::default(),
            latency_by_route: Default::default(),
            planner_decisions: Default::default(),
            est_cost_by_route: Default::default(),
            actual_nodes_by_route: Default::default(),
            actual_rank_ops_by_route: Default::default(),
            misprediction_by_route: Default::default(),
            rank_ops: AtomicU64::new(0),
            rank_ops_saved: AtomicU64::new(0),
            epoch_bumps: AtomicU64::new(0),
            drains: AtomicU64::new(0),
            drained_jobs: AtomicU64::new(0),
            aborted_jobs: AtomicU64::new(0),
            checkpoints: AtomicU64::new(0),
            checkpoint_failures: AtomicU64::new(0),
        }
    }

    /// Folds one query's traversal counters into the registry.
    pub fn note_traversal(&self, stats: &rpq_core::TraversalStats) {
        self.rank_ops.fetch_add(stats.rank_ops, Ordering::Relaxed);
        self.rank_ops_saved
            .fetch_add(stats.rank_ops_saved, Ordering::Relaxed);
    }

    /// The histogram for one evaluation route.
    pub fn route_histogram(&self, route: EvalRoute) -> &Histogram {
        &self.latency_by_route[route.index()]
    }

    /// Counts one planner decision for `route`.
    pub fn note_planner_decision(&self, route: EvalRoute) {
        self.planner_decisions[route.index()].fetch_add(1, Ordering::Relaxed);
    }

    /// Records one executed plan's estimate against what evaluation
    /// actually cost: `estimated` is the planner's `estimated_cost`,
    /// `actual_nodes` the product-graph nodes visited, `actual_rank_ops`
    /// the wavelet ranks performed. The misprediction histogram stores
    /// `(actual_nodes + 1) * 1000 / (estimated + 1)`.
    pub fn note_plan_accuracy(
        &self,
        route: EvalRoute,
        estimated: u64,
        actual_nodes: u64,
        actual_rank_ops: u64,
    ) {
        let i = route.index();
        self.est_cost_by_route[i].fetch_add(estimated, Ordering::Relaxed);
        self.actual_nodes_by_route[i].fetch_add(actual_nodes, Ordering::Relaxed);
        self.actual_rank_ops_by_route[i].fetch_add(actual_rank_ops, Ordering::Relaxed);
        let ratio = (actual_nodes + 1).saturating_mul(1000) / (estimated + 1);
        self.misprediction_by_route[i].record_value(ratio);
    }

    pub(crate) fn note_queue_depth(&self, depth: usize) {
        self.queue_depth.store(depth, Ordering::Relaxed);
        self.queue_peak.fetch_max(depth, Ordering::Relaxed);
    }

    /// Seconds since the registry (= the server) started.
    pub fn uptime(&self) -> Duration {
        self.started.elapsed()
    }
}

/// Cache counters the server snapshots into both exports.
#[derive(Clone, Copy)]
pub(crate) struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub invalidations: u64,
    pub entries: usize,
    pub used: usize,
    pub budget: usize,
}

/// Everything an export reads: the registry, and what the server
/// snapshots around it at render time.
pub(crate) struct View<'a> {
    pub m: &'a Metrics,
    pub config: &'a ServerConfig,
    /// The plan cache, then the result cache.
    pub caches: [CacheStats; 2],
    pub epoch: u64,
    pub updates: UpdateStats,
    pub index: IndexStats,
    /// An unsharded source has no shard section at all — an always-zero
    /// `rpq_shards` would read as "sharded, 0 shards".
    pub sharded: bool,
    pub shards: Vec<ShardStat>,
}

/// What a metric has one sample per: the server; a route (`Latency`: or
/// the result cache, as route `cached`); a cache; a place the index can
/// live, as 0 or 1 (in JSON, the one place's name); the shard set, which
/// an unsharded source does not have; a shard.
#[derive(Clone, Copy, PartialEq)]
enum Per {
    One,
    Route,
    Latency,
    Cache,
    Mode,
    Sharded,
    Shard,
}

impl Per {
    /// How many samples `v` holds, `None` where it has no such section.
    fn len(self, v: &View) -> Option<usize> {
        Some(match self {
            Per::One => 1,
            Per::Route => ROUTES,
            Per::Latency => ROUTES + 1,
            Per::Cache | Per::Mode => 2,
            Per::Sharded => v.sharded.then_some(1)?,
            Per::Shard => v.sharded.then_some(v.shards.len())?,
        })
    }

    /// The Prometheus label of sample `i` and its value (a route's is also
    /// its JSON member name); neither where there is one sample.
    fn label(self, i: usize) -> (&'static str, Cow<'static, str>) {
        let route = EvalRoute::ALL.get(i).map_or("cached", |r| r.name());
        match self {
            Per::One | Per::Sharded => ("", "".into()),
            Per::Route | Per::Latency => ("route", route.into()),
            Per::Cache => ("cache", ["plan", "result"][i].into()),
            Per::Mode => ("mode", ["heap", "mmap"][i].into()),
            Per::Shard => ("shard", i.to_string().into()),
        }
    }
}

/// Where a sample is read from.
#[derive(Clone, Copy)]
enum Value {
    Num(fn(&View, usize) -> u64),
    /// A histogram, and how many of its raw units make one exported unit
    /// (10⁶ turns µs buckets into seconds).
    Hist(fn(&Metrics, usize) -> &Histogram, f64),
    /// Time since start: whole milliseconds in JSON, seconds in Prometheus.
    Uptime,
}
use Value::{Hist, Num};

impl Value {
    fn is_empty(self, v: &View, i: usize) -> bool {
        match self {
            Num(get) => get(v, i) == 0,
            Hist(get, _) => !get(v.m, i).non_empty(),
            Value::Uptime => false,
        }
    }

    fn write_json(self, w: &mut JsonWriter, v: &View, i: usize) {
        let n = match self {
            Num(get) => get(v, i),
            Hist(get, _) => return get(v.m, i).write_json(w),
            Value::Uptime => v.m.uptime().as_millis().min(u128::from(u64::MAX)) as u64,
        };
        w.u64(n);
    }
}

type Path = &'static [&'static str];

/// One metric: where it is in the JSON document, its Prometheus family if
/// it has one, and where its samples come from.
struct Desc {
    /// Path of the JSON object the metric is in. For anything but
    /// [`Per::One`], [`Per::Sharded`] and [`Per::Mode`] that object has a
    /// member per sample, holding the `key`s of the consecutive rows that
    /// share `dir` and `per`.
    dir: Path,
    /// The member name; empty where the per-sample member is the value.
    key: &'static str,
    per: Per,
    value: Value,
    /// JSON leaves a member out while it has no sample (all of a
    /// per-sample member's values are zero or empty).
    sparse: bool,
    /// Block, name and help text. Families print in block order, and in
    /// table order within a block; a name that ends in `_total` is a
    /// counter's, and of the others a histogram value's is a histogram
    /// and the rest are gauges.
    family: Option<(u8, &'static str, &'static str)>,
}

const fn row(dir: Path, key: &'static str, per: Per, value: Value) -> Desc {
    Desc {
        dir,
        key,
        per,
        value,
        sparse: false,
        family: None,
    }
}

impl Desc {
    const fn sparse(mut self) -> Self {
        self.sparse = true;
        self
    }

    const fn prom(mut self, block: u8, name: &'static str, help: &'static str) -> Self {
        self.family = Some((block, name, help));
        self
    }
}

fn g(c: &AtomicU64) -> u64 {
    c.load(Ordering::Relaxed)
}

/// Every exported metric, once, in JSON document order.
#[rustfmt::skip]
static TABLE: &[Desc] = {
    use Per::{Cache, Latency, Mode, One, Route, Shard, Sharded};
    &[
    row(&[], "uptime_ms", One, Value::Uptime).prom(0, "rpq_uptime_seconds", "Seconds since the server started."),
    row(&[], "workers", One, Num(|v, _| v.config.workers as u64)).prom(0, "rpq_workers", "Configured worker threads."),
    row(&["queries"], "submitted", One, Num(|v, _| g(&v.m.submitted))).prom(1, "rpq_queries_submitted_total", "Queries accepted: queued, or answered from the result cache at submit."),
    row(&["queries"], "completed", One, Num(|v, _| g(&v.m.completed))).prom(1, "rpq_queries_completed_total", "Queries that produced an answer."),
    row(&["queries"], "failed", One, Num(|v, _| g(&v.m.failed))).prom(1, "rpq_queries_failed_total", "Queries that failed evaluation."),
    row(&["queries"], "rejected_overload", One, Num(|v, _| g(&v.m.rejected_overload))).prom(1, "rpq_queries_rejected_overload_total", "Submissions rejected by admission control."),
    row(&["queries"], "budget_exceeded", One, Num(|v, _| g(&v.m.budget_exceeded))).prom(1, "rpq_queries_budget_exceeded_total", "Queries aborted on an exhausted node budget."),
    row(&["queue"], "depth", One, Num(|v, _| v.m.queue_depth.load(Ordering::Relaxed) as u64)).prom(4, "rpq_queue_depth", "Jobs currently queued."),
    row(&["queue"], "peak", One, Num(|v, _| v.m.queue_peak.load(Ordering::Relaxed) as u64)).prom(4, "rpq_queue_peak", "Queue-depth high-water mark."),
    row(&["queue"], "capacity", One, Num(|v, _| v.config.max_pending as u64)).prom(4, "rpq_queue_capacity", "Configured queue capacity."),
    row(&["planner", "decisions"], "", Route, Num(|v, i| g(&v.m.planner_decisions[i]))).prom(5, "rpq_planner_decisions_total", "Planner route decisions."),
    row(&["planner", "accuracy"], "estimated_cost_sum", Route, Num(|v, i| g(&v.m.est_cost_by_route[i]))).sparse().prom(5, "rpq_planner_estimated_cost_total", "Sum of planner cost estimates per executed route."),
    row(&["planner", "accuracy"], "actual_nodes_sum", Route, Num(|v, i| g(&v.m.actual_nodes_by_route[i]))).sparse().prom(5, "rpq_planner_actual_nodes_total", "Sum of product-graph nodes actually visited per executed route."),
    row(&["planner", "accuracy"], "actual_rank_ops_sum", Route, Num(|v, i| g(&v.m.actual_rank_ops_by_route[i]))).sparse().prom(5, "rpq_planner_actual_rank_ops_total", "Sum of rank operations actually performed per executed route."),
    row(&["planner", "accuracy"], "misprediction_x1000", Route, Hist(|m, i| &m.misprediction_by_route[i], 1.0)).sparse().prom(5, "rpq_planner_misprediction_x1000", "Actual-vs-estimated cost ratio x1000 per executed route (1000 = perfect)."),
    row(&["traversal"], "rank_ops", One, Num(|v, _| g(&v.m.rank_ops))).prom(3, "rpq_rank_ops_total", "Wavelet rank operations performed."),
    row(&["traversal"], "rank_ops_saved", One, Num(|v, _| g(&v.m.rank_ops_saved))).prom(3, "rpq_rank_ops_saved_total", "Rank operations avoided by frontier batching."),
    row(&["updates"], "epoch", One, Num(|v, _| v.epoch)).prom(9, "rpq_snapshot_epoch", "Current snapshot epoch."),
    row(&["updates"], "epoch_bumps_observed", One, Num(|v, _| g(&v.m.epoch_bumps))).prom(2, "rpq_epoch_bumps_total", "Snapshot-epoch bumps observed at submit time."),
    row(&["updates"], "commits", One, Num(|v, _| v.updates.commits)).prom(9, "rpq_update_commits_total", "Update batches committed."),
    row(&["updates"], "compactions", One, Num(|v, _| v.updates.compactions)).prom(9, "rpq_update_compactions_total", "Delta compactions into the ring."),
    row(&["updates"], "commit_ns", One, Num(|v, _| v.updates.commit_ns)).prom(9, "rpq_update_commit_nanoseconds_total", "Time spent merging update batches into the delta overlay."),
    row(&["updates"], "compact_ns", One, Num(|v, _| v.updates.compact_ns)).prom(9, "rpq_update_compact_nanoseconds_total", "Time spent rebuilding the ring (the compaction stall)."),
    row(&["updates"], "delta_adds", One, Num(|v, _| v.updates.delta_adds as u64)).prom(9, "rpq_delta_adds_total", "Triples added through the delta overlay."),
    row(&["updates"], "delta_deletes", One, Num(|v, _| v.updates.delta_deletes as u64)).prom(9, "rpq_delta_deletes_total", "Triples deleted through the delta overlay."),
    row(&["updates"], "pending_ops", One, Num(|v, _| v.updates.pending_ops as u64)).prom(9, "rpq_pending_ops", "Update operations not yet committed."),
    row(&["durability"], "drains", One, Num(|v, _| g(&v.m.drains))).prom(9, "rpq_drains_total", "Graceful drains started."),
    row(&["durability"], "drained_jobs", One, Num(|v, _| g(&v.m.drained_jobs))).prom(9, "rpq_drained_jobs_total", "Backlogged queries finished within a drain deadline."),
    row(&["durability"], "aborted_jobs", One, Num(|v, _| g(&v.m.aborted_jobs))).prom(9, "rpq_aborted_jobs_total", "Queries a drain deadline aborted while queued."),
    row(&["durability"], "checkpoints", One, Num(|v, _| g(&v.m.checkpoints))).prom(9, "rpq_checkpoints_total", "Durable checkpoints (snapshot persisted, WAL rotated)."),
    row(&["durability"], "checkpoint_failures", One, Num(|v, _| g(&v.m.checkpoint_failures))).prom(9, "rpq_checkpoint_failures_total", "Checkpoint attempts that failed."),
    row(&["index"], "open_us", One, Num(|v, _| v.index.open_us)).prom(9, "rpq_index_open_us", "Wall time of the index open call, microseconds (0 = built in memory)."),
    row(&["index"], "resident_mode", Mode, Num(|v, i| u64::from(Mode.label(i).1 == v.index.resident_mode))).prom(9, "rpq_index_resident_mode", "Where the index payload lives: 1 on the active mode label."),
    row(&["index"], "mapped_bytes", One, Num(|v, _| v.index.mapped_bytes)).prom(9, "rpq_index_mapped_bytes", "Bytes of the index held by a kernel mapping (0 in heap mode)."),
    row(&["shards"], "count", Sharded, Num(|v, _| v.shards.len() as u64)).prom(9, "rpq_shards", "Shards of the served index (absent when unsharded)."),
    row(&["shards"], "triples", Shard, Num(|v, i| v.shards[i].triples as u64)).prom(9, "rpq_shard_triples", "Completed triples held by one shard."),
    row(&["shards"], "bytes", Shard, Num(|v, i| v.shards[i].bytes as u64)).prom(9, "rpq_shard_bytes", "Index bytes of one shard's ring."),
    row(&["shards"], "probes", Shard, Num(|v, i| v.shards[i].probes)).prom(9, "rpq_shard_probes_total", "Scatter-gather probes served by one shard."),
    row(&[], "hits", Cache, Num(|v, i| v.caches[i].hits)).prom(8, "rpq_cache_hits_total", "Cache hits."),
    row(&[], "misses", Cache, Num(|v, i| v.caches[i].misses)).prom(8, "rpq_cache_misses_total", "Cache misses."),
    row(&[], "evictions", Cache, Num(|v, i| v.caches[i].evictions)).prom(8, "rpq_cache_evictions_total", "Cache evictions."),
    row(&[], "invalidations", Cache, Num(|v, i| v.caches[i].invalidations)).prom(8, "rpq_cache_invalidations_total", "Cache invalidations."),
    row(&[], "entries", Cache, Num(|v, i| v.caches[i].entries as u64)).prom(8, "rpq_cache_entries", "Live cache entries."),
    row(&[], "used", Cache, Num(|v, i| v.caches[i].used as u64)).prom(8, "rpq_cache_used_bytes", "Bytes held by the cache."),
    row(&[], "budget", Cache, Num(|v, i| v.caches[i].budget as u64)).prom(8, "rpq_cache_budget_bytes", "Cache byte budget."),
    row(&["latency_us"], "all", One, Hist(|m, _| &m.latency_all, 1e6)).prom(9, "rpq_query_latency_seconds", "End-to-end query latency (queue wait included)."),
    row(&["latency_us"], "queue_wait", One, Hist(|m, _| &m.queue_wait, 1e6)).sparse().prom(9, "rpq_queue_wait_seconds", "Time jobs waited in the queue."),
    row(&["latency_us"], "exec", One, Hist(|m, _| &m.latency_exec, 1e6)).sparse().prom(9, "rpq_query_exec_seconds", "Pure evaluation time (cache hits excluded)."),
    row(&["latency_us"], "", Latency, Hist(|m, i| m.latency_by_route.get(i).unwrap_or(&m.latency_cached), 1e6)).sparse().prom(9, "rpq_query_route_latency_seconds", "Evaluation latency per route (result-cache hits as route=\"cached\")."),
    ]
};

/// Makes `dir` the innermost open object of `w`, given that `open` is:
/// closes what `dir` is not inside of, opens the rest of its path.
fn enter(w: &mut JsonWriter, open: &mut Path, dir: Path) {
    let shared = open.iter().zip(dir).take_while(|(a, b)| a == b).count();
    for _ in shared..open.len() {
        w.end_object();
    }
    for k in &dir[shared..] {
        w.key(k).begin_object();
    }
    *open = dir;
}

/// Renders the registry, and what the server snapshots around it, as one
/// JSON object.
pub(crate) fn registry_json(v: &View) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    let mut open: Path = &[];
    let mut rows = TABLE;
    while let Some(d) = rows.first() {
        let single = matches!(d.per, Per::One | Per::Sharded);
        // Otherwise, the rows that make up one per-sample member.
        let same = |r: &&Desc| !single && r.dir == d.dir && r.per == d.per;
        let (run, rest) = rows.split_at(rows.iter().take_while(same).count().max(1));
        rows = rest;
        let Some(n) = d.per.len(v) else { continue };
        enter(&mut w, &mut open, d.dir);
        if single {
            if !(d.sparse && d.value.is_empty(v, 0)) {
                d.value.write_json(w.key(d.key), v, 0);
            }
            continue;
        }
        if d.per == Per::Mode {
            w.key(d.key).str(v.index.resident_mode);
            continue;
        }
        if d.per == Per::Shard {
            w.key("rows").begin_array();
        }
        for i in (0..n).filter(|&i| !(d.sparse && run.iter().all(|r| r.value.is_empty(v, i)))) {
            match d.per {
                Per::Shard => &mut w,
                Per::Cache => w.key(["plan_cache", "result_cache"][i]),
                per => w.key(&per.label(i).1),
            };
            if d.key.is_empty() {
                d.value.write_json(&mut w, v, i);
                continue;
            }
            w.begin_object();
            for r in run {
                r.value.write_json(w.key(r.key), v, i);
            }
            w.end_object();
        }
        if d.per == Per::Shard {
            w.end_array();
        }
    }
    enter(&mut w, &mut open, &[]);
    w.end_object();
    w.finish()
}

/// Appends one sample line, under `label` unless that is `("", _)`.
fn prom_sample(out: &mut String, name: &str, label: (&str, &str), value: impl Display) {
    let _ = match label {
        ("", _) => writeln!(out, "{name} {value}"),
        (k, v) => writeln!(out, "{name}{{{k}=\"{v}\"}} {value}"),
    };
}

/// Appends a full Prometheus histogram: cumulative `_bucket` lines up to
/// the last non-zero bucket plus `+Inf`, then `_sum` and `_count`, every
/// line under `label`; `scale` divides the raw log₂ bucket upper bounds
/// (1e6 turns µs buckets into seconds, 1.0 keeps raw magnitudes).
fn prom_histogram(out: &mut String, name: &str, label: (&str, &str), h: &Histogram, scale: f64) {
    let bucket = |le: &str| match label {
        ("", _) => format!("{name}_bucket{{le=\"{le}\"}}"),
        (k, v) => format!("{name}_bucket{{{k}=\"{v}\",le=\"{le}\"}}"),
    };
    let counts = h.bucket_counts();
    let filled = counts
        .iter()
        .rposition(|&c| c > 0)
        .map_or(0, |last| last + 1);
    let mut cum = 0u64;
    for (i, c) in counts[..filled].iter().enumerate() {
        cum += c;
        let le = (1u64 << i) as f64 / scale;
        prom_sample(out, &bucket(&le.to_string()), ("", ""), cum);
    }
    prom_sample(out, &bucket("+Inf"), ("", ""), h.count());
    let sum = h.sum_us() as f64 / scale;
    prom_sample(out, &format!("{name}_sum"), label, sum);
    prom_sample(out, &format!("{name}_count"), label, h.count());
}

/// Renders what [`registry_json`] renders in the Prometheus text
/// exposition format (v0.0.4): one `# HELP`/`# TYPE` pair per family,
/// log₂-µs histogram buckets mapped to cumulative `le` bounds in seconds.
/// Every labelled sample is listed, except that a labelled histogram
/// without samples has no lines.
pub(crate) fn registry_prometheus(v: &View) -> String {
    let mut out = String::with_capacity(8192);
    let mut families: Vec<_> = TABLE.iter().filter_map(|d| Some((d.family?, d))).collect();
    // Stable: table order within a block.
    families.sort_by_key(|((block, ..), _)| *block);
    for ((_, name, help), d) in families {
        let Some(n) = d.per.len(v) else { continue };
        let kind = match d.value {
            Hist(..) => "histogram",
            _ if name.ends_with("_total") => "counter",
            _ => "gauge",
        };
        let _ = writeln!(out, "# HELP {name} {help}\n# TYPE {name} {kind}");
        for i in 0..n {
            let (label, of) = d.per.label(i);
            let label = (label, &*of);
            match d.value {
                Num(get) => prom_sample(&mut out, name, label, get(v, i)),
                Hist(get, _) if !label.0.is_empty() && !get(v.m, i).non_empty() => {}
                Hist(get, scale) => prom_histogram(&mut out, name, label, get(v.m, i), scale),
                Value::Uptime => prom_sample(&mut out, name, label, v.m.uptime().as_secs_f64()),
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The default configuration over an unsharded heap index that takes
    /// no updates.
    fn view(m: &Metrics, cache: CacheStats) -> View<'_> {
        static CONFIG: std::sync::OnceLock<ServerConfig> = std::sync::OnceLock::new();
        View {
            m,
            config: CONFIG.get_or_init(ServerConfig::default),
            caches: [cache; 2],
            epoch: 0,
            updates: UpdateStats::default(),
            index: IndexStats::default(),
            sharded: false,
            shards: Vec::new(),
        }
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = Histogram::default();
        for us in [1u64, 2, 4, 100, 100, 100, 5000] {
            h.record(Duration::from_micros(us));
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.sum_us(), 5307);
        // p50 falls in the 100 µs cluster: bucket upper bound 128.
        assert_eq!(h.quantile_us(0.5), 128);
        // p99 is the 5 ms outlier's bucket: upper bound 8192.
        assert_eq!(h.quantile_us(0.99), 8192);
        assert_eq!(Histogram::default().quantile_us(0.5), 0);
    }

    /// Each sample keeps its sub-µs part in the sum: a thousand 1.5 µs
    /// hits sum to 1500 µs, not to the 1000 of whole-µs truncation.
    #[test]
    fn latency_sums_keep_sub_microsecond_parts() {
        let h = Histogram::default();
        for _ in 0..1000 {
            h.record(Duration::from_nanos(1500));
        }
        assert_eq!(h.sum_us(), 1500);
        assert_eq!(h.quantile_us(0.5), 2, "buckets stay whole-µs");
    }

    #[test]
    fn zero_latency_goes_to_bucket_zero() {
        let h = Histogram::default();
        h.record(Duration::ZERO);
        assert_eq!(h.count(), 1);
        assert_eq!(h.quantile_us(1.0), 1);
    }

    #[test]
    fn histogram_json_truncates_at_last_nonzero_bucket() {
        let h = Histogram::default();
        h.record(Duration::from_micros(3));
        let mut w = JsonWriter::new();
        h.write_json(&mut w);
        assert_eq!(
            w.finish(),
            "{\"count\":1,\"sum_us\":3,\"p50_us\":4,\"p99_us\":4,\
             \"buckets_log2_us\":[0,0,1]}"
        );
        let mut w = JsonWriter::new();
        Histogram::default().write_json(&mut w);
        assert_eq!(
            w.finish(),
            "{\"count\":0,\"sum_us\":0,\"p50_us\":0,\"p99_us\":0,\
             \"buckets_log2_us\":[0]}"
        );
    }

    #[test]
    fn plan_accuracy_ratio_is_centred_at_1000() {
        let m = Metrics::new();
        let r = EvalRoute::ALL[0];
        // Perfect estimate: ratio 1000.
        m.note_plan_accuracy(r, 99, 99, 7);
        // 4x underestimate: ratio 4000.
        m.note_plan_accuracy(r, 24, 99, 0);
        let h = &m.misprediction_by_route[r.index()];
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum_us(), 1000 + 4000);
        assert_eq!(m.est_cost_by_route[r.index()].load(Ordering::Relaxed), 123);
        assert_eq!(
            m.actual_nodes_by_route[r.index()].load(Ordering::Relaxed),
            198
        );
        assert_eq!(
            m.actual_rank_ops_by_route[r.index()].load(Ordering::Relaxed),
            7
        );
    }

    /// The Prometheus rendering must be well-formed: exactly one HELP and
    /// one TYPE line per family, every sample named after a declared
    /// family, histogram buckets cumulative and capped by `+Inf`.
    #[test]
    fn prometheus_output_is_well_formed() {
        let m = Metrics::new();
        m.submitted.fetch_add(3, Ordering::Relaxed);
        m.latency_all.record(Duration::from_micros(250));
        m.latency_all.record(Duration::from_micros(90_000));
        m.queue_wait.record(Duration::from_micros(10));
        m.latency_exec.record(Duration::from_micros(240));
        m.route_histogram(EvalRoute::ALL[1])
            .record(Duration::from_micros(240));
        m.latency_cached.record(Duration::from_micros(5));
        m.note_plan_accuracy(EvalRoute::ALL[1], 10, 20, 5);
        let cache = CacheStats {
            hits: 1,
            misses: 2,
            evictions: 0,
            invalidations: 0,
            entries: 1,
            used: 64,
            budget: 1024,
        };
        let shard_rows = [
            ShardStat {
                triples: 10,
                bytes: 2048,
                probes: 7,
            },
            ShardStat {
                triples: 6,
                bytes: 1024,
                probes: 0,
            },
        ];
        let config = ServerConfig {
            workers: 2,
            max_pending: 16,
            ..ServerConfig::default()
        };
        let text = registry_prometheus(&View {
            config: &config,
            index: IndexStats {
                open_us: 1234,
                resident_mode: "mmap",
                mapped_bytes: 4096,
            },
            sharded: true,
            shards: shard_rows.to_vec(),
            ..view(&m, cache)
        });

        let mut declared = std::collections::HashSet::new();
        let mut helps = std::collections::HashSet::new();
        let mut types = std::collections::HashSet::new();
        for line in text.lines() {
            assert!(!line.is_empty(), "no blank lines in exposition");
            if let Some(rest) = line.strip_prefix("# HELP ") {
                let name = rest.split(' ').next().unwrap();
                assert!(helps.insert(name.to_string()), "duplicate HELP for {name}");
                declared.insert(name.to_string());
            } else if let Some(rest) = line.strip_prefix("# TYPE ") {
                let mut it = rest.split(' ');
                let name = it.next().unwrap();
                let kind = it.next().unwrap();
                assert!(
                    matches!(kind, "counter" | "gauge" | "histogram"),
                    "bad TYPE {kind}"
                );
                assert!(types.insert(name.to_string()), "duplicate TYPE for {name}");
            } else {
                let name_part = line.split([' ', '{']).next().unwrap();
                let family = name_part
                    .strip_suffix("_bucket")
                    .or_else(|| name_part.strip_suffix("_sum"))
                    .or_else(|| name_part.strip_suffix("_count"))
                    .filter(|f| declared.contains(*f))
                    .unwrap_or(name_part);
                assert!(
                    declared.contains(family),
                    "sample {name_part} has no HELP/TYPE"
                );
                let value = line.rsplit(' ').next().unwrap();
                assert!(
                    value.parse::<f64>().is_ok(),
                    "unparseable sample value in {line:?}"
                );
            }
        }
        assert_eq!(helps, types, "HELP and TYPE sets must match");

        // Histogram buckets: cumulative, ending at +Inf == _count.
        assert!(text.contains("rpq_query_latency_seconds_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("rpq_query_latency_seconds_count 2"));
        assert!(
            text.contains("rpq_query_route_latency_seconds_bucket{route=\"cached\",le=\"+Inf\"} 1")
        );
        // 250 µs lands in the bucket with upper bound 256 µs.
        assert!(text.contains("rpq_query_latency_seconds_bucket{le=\"0.000256\"} 1"));
        // Sharded sources get one row per shard.
        assert!(text.contains("rpq_shards 2"));
        assert!(text.contains("rpq_shard_triples{shard=\"0\"} 10"));
        assert!(text.contains("rpq_shard_probes_total{shard=\"1\"} 0"));
    }

    /// Unsharded sources must not emit the shard families at all — an
    /// always-zero `rpq_shards` would read as "sharded with 0 shards".
    #[test]
    fn prometheus_omits_shard_families_when_unsharded() {
        let m = Metrics::new();
        let cache = CacheStats {
            hits: 0,
            misses: 0,
            evictions: 0,
            invalidations: 0,
            entries: 0,
            used: 0,
            budget: 0,
        };
        let text = registry_prometheus(&view(&m, cache));
        assert!(!text.contains("rpq_shard"));
    }

    #[test]
    fn registry_json_keeps_the_cache_grep_shape() {
        let m = Metrics::new();
        let cache = CacheStats {
            hits: 1,
            misses: 0,
            evictions: 0,
            invalidations: 0,
            entries: 1,
            used: 16,
            budget: 1024,
        };
        let json = registry_json(&view(&m, cache));
        // The CI server-smoke step greps for this exact byte shape.
        assert!(json.contains("\"result_cache\":{\"hits\":1"), "{json}");
        assert!(json.contains("\"latency_us\":{\"all\":{\"count\":0"));
        assert!(json.contains("\"planner\":{\"decisions\":{\"fastpath\":0"));
        // Unsharded sources have no shards section at all.
        assert!(!json.contains("\"shards\""));

        let rows = [ShardStat {
            triples: 4,
            bytes: 512,
            probes: 9,
        }];
        let sharded = registry_json(&View {
            sharded: true,
            shards: rows.to_vec(),
            ..view(&m, cache)
        });
        assert!(
            sharded.contains(
                "\"shards\":{\"count\":1,\"rows\":[{\"triples\":4,\"bytes\":512,\"probes\":9}]}"
            ),
            "{sharded}"
        );
    }
}
