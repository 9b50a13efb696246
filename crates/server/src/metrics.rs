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
//! Both exporters render the same registry: `registry_json` is the
//! structured snapshot the CLI's `stats`/`.metrics` surfaces print, and
//! `registry_prometheus` maps the identical atomics onto the
//! Prometheus text exposition format (the log₂-µs buckets become
//! cumulative `le`-labelled buckets in seconds).

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use rpq_core::jsonw::JsonWriter;
use rpq_core::EvalRoute;

const BUCKETS: usize = 32;

/// A log₂-bucketed latency histogram (microseconds).
#[derive(Default)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_us: AtomicU64,
}

impl Histogram {
    /// Records one latency sample.
    pub fn record(&self, latency: Duration) {
        self.record_value(latency.as_micros().min(u128::from(u64::MAX)) as u64);
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

    /// Sum of samples, microseconds.
    pub fn sum_us(&self) -> u64 {
        self.sum_us.load(Ordering::Relaxed)
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
    /// Queries accepted into the queue.
    pub submitted: AtomicU64,
    /// Queries that produced an answer (including truncated/timed-out
    /// partials and result-cache hits).
    pub completed: AtomicU64,
    /// Queries that failed evaluation.
    pub failed: AtomicU64,
    /// Queries cancelled before producing an answer.
    pub cancelled: AtomicU64,
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
    /// fastpath, bitparallel, split, fallback.
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
    /// BFS levels / fast-path sweeps that fanned out across the
    /// intra-query worker pool, summed over every evaluated query.
    pub parallel_levels: AtomicU64,
    /// Frontier chunks merged back from the pool (chunks ÷ levels is the
    /// average fan-out actually achieved).
    pub parallel_chunks: AtomicU64,
    /// Parallel levels per evaluation route, indexed by
    /// [`EvalRoute::index`] — which routes actually benefit from
    /// intra-query fan-out.
    pub parallel_levels_by_route: [AtomicU64; ROUTES],
    /// Parallel chunks per evaluation route.
    pub parallel_chunks_by_route: [AtomicU64; ROUTES],
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
            cancelled: AtomicU64::new(0),
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
            parallel_levels: AtomicU64::new(0),
            parallel_chunks: AtomicU64::new(0),
            parallel_levels_by_route: Default::default(),
            parallel_chunks_by_route: Default::default(),
            epoch_bumps: AtomicU64::new(0),
            drains: AtomicU64::new(0),
            drained_jobs: AtomicU64::new(0),
            aborted_jobs: AtomicU64::new(0),
            checkpoints: AtomicU64::new(0),
            checkpoint_failures: AtomicU64::new(0),
        }
    }

    /// Folds one query's traversal counters into the registry
    /// (per-route parallel counters when the route is known).
    pub fn note_traversal(&self, route: Option<EvalRoute>, stats: &rpq_core::TraversalStats) {
        self.rank_ops.fetch_add(stats.rank_ops, Ordering::Relaxed);
        self.rank_ops_saved
            .fetch_add(stats.rank_ops_saved, Ordering::Relaxed);
        self.parallel_levels
            .fetch_add(stats.parallel_levels, Ordering::Relaxed);
        self.parallel_chunks
            .fetch_add(stats.parallel_chunks, Ordering::Relaxed);
        if let Some(r) = route {
            self.parallel_levels_by_route[r.index()]
                .fetch_add(stats.parallel_levels, Ordering::Relaxed);
            self.parallel_chunks_by_route[r.index()]
                .fetch_add(stats.parallel_chunks, Ordering::Relaxed);
        }
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

/// Cache counters the server snapshots into the JSON export.
pub(crate) struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub invalidations: u64,
    pub entries: usize,
    pub used: usize,
    pub budget: usize,
}

impl CacheStats {
    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object()
            .field_u64("hits", self.hits)
            .field_u64("misses", self.misses)
            .field_u64("evictions", self.evictions)
            .field_u64("invalidations", self.invalidations)
            .field_u64("entries", self.entries as u64)
            .field_u64("used", self.used as u64)
            .field_u64("budget", self.budget as u64)
            .end_object();
    }
}

/// Renders the full registry (plus cache snapshots, worker count, and
/// the source's update counters) as one JSON object.
#[allow(clippy::too_many_arguments)]
pub(crate) fn registry_json(
    m: &Metrics,
    workers: usize,
    intra_query_threads: usize,
    queue_capacity: usize,
    plan_cache: &CacheStats,
    result_cache: &CacheStats,
    epoch: u64,
    updates: Option<crate::source::UpdateStats>,
    index: Option<crate::source::IndexStats>,
    shards: Option<&[crate::source::ShardStat]>,
) -> String {
    let g = |c: &AtomicU64| c.load(Ordering::Relaxed);
    let mut w = JsonWriter::new();
    w.begin_object()
        .field_u64(
            "uptime_ms",
            m.uptime().as_millis().min(u128::from(u64::MAX)) as u64,
        )
        .field_u64("workers", workers as u64);
    w.key("queries")
        .begin_object()
        .field_u64("submitted", g(&m.submitted))
        .field_u64("completed", g(&m.completed))
        .field_u64("failed", g(&m.failed))
        .field_u64("cancelled", g(&m.cancelled))
        .field_u64("rejected_overload", g(&m.rejected_overload))
        .field_u64("budget_exceeded", g(&m.budget_exceeded))
        .end_object();
    w.key("queue")
        .begin_object()
        .field_u64("depth", m.queue_depth.load(Ordering::Relaxed) as u64)
        .field_u64("peak", m.queue_peak.load(Ordering::Relaxed) as u64)
        .field_u64("capacity", queue_capacity as u64)
        .end_object();
    w.key("planner")
        .begin_object()
        .key("decisions")
        .begin_object();
    for r in EvalRoute::ALL {
        w.field_u64(
            r.name(),
            m.planner_decisions[r.index()].load(Ordering::Relaxed),
        );
    }
    w.end_object();
    w.key("accuracy").begin_object();
    for r in EvalRoute::ALL {
        let i = r.index();
        if !m.misprediction_by_route[i].non_empty() {
            continue;
        }
        w.key(r.name())
            .begin_object()
            .field_u64("estimated_cost_sum", g(&m.est_cost_by_route[i]))
            .field_u64("actual_nodes_sum", g(&m.actual_nodes_by_route[i]))
            .field_u64("actual_rank_ops_sum", g(&m.actual_rank_ops_by_route[i]))
            .key("misprediction_x1000");
        m.misprediction_by_route[i].write_json(&mut w);
        w.end_object();
    }
    w.end_object().end_object();
    w.key("traversal")
        .begin_object()
        .field_u64("rank_ops", g(&m.rank_ops))
        .field_u64("rank_ops_saved", g(&m.rank_ops_saved))
        .end_object();
    w.key("parallel")
        .begin_object()
        .field_u64("intra_query_threads", intra_query_threads as u64)
        .field_u64("pool_capacity", rpq_core::parallel::pool_capacity() as u64)
        .field_u64("pool_in_use", rpq_core::parallel::pool_in_use() as u64)
        .field_u64("levels", g(&m.parallel_levels))
        .field_u64("chunks", g(&m.parallel_chunks))
        .key("by_route")
        .begin_object();
    for r in EvalRoute::ALL {
        let levels = m.parallel_levels_by_route[r.index()].load(Ordering::Relaxed);
        let chunks = m.parallel_chunks_by_route[r.index()].load(Ordering::Relaxed);
        if levels > 0 {
            w.key(r.name())
                .begin_object()
                .field_u64("levels", levels)
                .field_u64("chunks", chunks)
                .end_object();
        }
    }
    w.end_object().end_object();
    let u = updates.unwrap_or_default();
    w.key("updates")
        .begin_object()
        .field_u64("epoch", epoch)
        .field_u64("epoch_bumps_observed", g(&m.epoch_bumps))
        .field_u64("commits", u.commits)
        .field_u64("compactions", u.compactions)
        .field_u64("commit_ns", u.commit_ns)
        .field_u64("compact_ns", u.compact_ns)
        .field_u64("delta_adds", u.delta_adds as u64)
        .field_u64("delta_deletes", u.delta_deletes as u64)
        .field_u64("pending_ops", u.pending_ops as u64)
        .end_object();
    w.key("durability")
        .begin_object()
        .field_u64("drains", g(&m.drains))
        .field_u64("drained_jobs", g(&m.drained_jobs))
        .field_u64("aborted_jobs", g(&m.aborted_jobs))
        .field_u64("checkpoints", g(&m.checkpoints))
        .field_u64("checkpoint_failures", g(&m.checkpoint_failures))
        .end_object();
    let ix = index.unwrap_or_default();
    w.key("index")
        .begin_object()
        .field_u64("open_us", ix.open_us)
        .field_str("resident_mode", ix.resident_mode)
        .field_u64("mapped_bytes", ix.mapped_bytes)
        .end_object();
    if let Some(shards) = shards {
        w.key("shards")
            .begin_object()
            .field_u64("count", shards.len() as u64)
            .key("rows")
            .begin_array();
        for s in shards {
            w.begin_object()
                .field_u64("triples", s.triples as u64)
                .field_u64("bytes", s.bytes as u64)
                .field_u64("probes", s.probes)
                .end_object();
        }
        w.end_array().end_object();
    }
    w.key("plan_cache");
    plan_cache.write_json(&mut w);
    w.key("result_cache");
    result_cache.write_json(&mut w);
    w.key("latency_us").begin_object().key("all");
    m.latency_all.write_json(&mut w);
    if m.queue_wait.non_empty() {
        w.key("queue_wait");
        m.queue_wait.write_json(&mut w);
    }
    if m.latency_exec.non_empty() {
        w.key("exec");
        m.latency_exec.write_json(&mut w);
    }
    for r in EvalRoute::ALL {
        let hist = m.route_histogram(r);
        if hist.non_empty() {
            w.key(r.name());
            hist.write_json(&mut w);
        }
    }
    if m.latency_cached.non_empty() {
        w.key("cached");
        m.latency_cached.write_json(&mut w);
    }
    w.end_object().end_object();
    w.finish()
}

/// Appends one `# HELP` / `# TYPE` header pair.
fn prom_header(out: &mut String, name: &str, help: &str, kind: &str) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} {kind}");
}

/// Appends one unlabelled sample line.
fn prom_sample(out: &mut String, name: &str, value: impl std::fmt::Display) {
    let _ = writeln!(out, "{name} {value}");
}

/// Appends one sample line with a single label.
fn prom_labeled(
    out: &mut String,
    name: &str,
    label: &str,
    label_value: &str,
    value: impl std::fmt::Display,
) {
    let _ = writeln!(out, "{name}{{{label}=\"{label_value}\"}} {value}");
}

/// Appends a full Prometheus histogram: cumulative `_bucket` lines up to
/// the last non-zero bucket plus `+Inf`, then `_sum` and `_count`.
/// `label`/`label_value` (optional) tag every line; `scale` divides the
/// raw log₂ bucket upper bounds (1e6 turns µs buckets into seconds, 1.0
/// keeps raw magnitudes).
fn prom_histogram(
    out: &mut String,
    name: &str,
    label: Option<(&str, &str)>,
    h: &Histogram,
    scale: f64,
) {
    let tag = |le: &str| match label {
        Some((k, v)) => format!("{{{k}=\"{v}\",le=\"{le}\"}}"),
        None => format!("{{le=\"{le}\"}}"),
    };
    let suffix = match label {
        Some((k, v)) => format!("{{{k}=\"{v}\"}}"),
        None => String::new(),
    };
    let counts = h.bucket_counts();
    let mut cum = 0u64;
    if let Some(last) = counts.iter().rposition(|&c| c > 0) {
        for (i, &c) in counts.iter().take(last + 1).enumerate() {
            cum += c;
            let le = (1u64 << i) as f64 / scale;
            let _ = writeln!(out, "{name}_bucket{} {cum}", tag(&le.to_string()));
        }
    }
    let _ = writeln!(out, "{name}_bucket{} {}", tag("+Inf"), h.count());
    let _ = writeln!(out, "{name}_sum{suffix} {}", h.sum_us() as f64 / scale);
    let _ = writeln!(out, "{name}_count{suffix} {}", h.count());
}

/// Renders the registry in the Prometheus text exposition format
/// (v0.0.4): the same atomics as [`registry_json`], one `# HELP`/`#
/// TYPE` pair per family, log₂-µs histogram buckets mapped to cumulative
/// `le` bounds in seconds.
#[allow(clippy::too_many_arguments)]
pub(crate) fn registry_prometheus(
    m: &Metrics,
    workers: usize,
    intra_query_threads: usize,
    queue_capacity: usize,
    plan_cache: &CacheStats,
    result_cache: &CacheStats,
    epoch: u64,
    updates: Option<crate::source::UpdateStats>,
    index: Option<crate::source::IndexStats>,
    shards: Option<&[crate::source::ShardStat]>,
) -> String {
    let g = |c: &AtomicU64| c.load(Ordering::Relaxed);
    let mut out = String::with_capacity(8192);

    prom_header(
        &mut out,
        "rpq_uptime_seconds",
        "Seconds since the server started.",
        "gauge",
    );
    prom_sample(&mut out, "rpq_uptime_seconds", m.uptime().as_secs_f64());
    prom_header(
        &mut out,
        "rpq_workers",
        "Configured worker threads.",
        "gauge",
    );
    prom_sample(&mut out, "rpq_workers", workers);
    prom_header(
        &mut out,
        "rpq_intra_query_threads",
        "Threads one query may fan its BFS levels across.",
        "gauge",
    );
    prom_sample(&mut out, "rpq_intra_query_threads", intra_query_threads);

    for (name, help, v) in [
        (
            "rpq_queries_submitted_total",
            "Queries accepted into the queue.",
            g(&m.submitted),
        ),
        (
            "rpq_queries_completed_total",
            "Queries that produced an answer.",
            g(&m.completed),
        ),
        (
            "rpq_queries_failed_total",
            "Queries that failed evaluation.",
            g(&m.failed),
        ),
        (
            "rpq_queries_cancelled_total",
            "Queries cancelled before an answer.",
            g(&m.cancelled),
        ),
        (
            "rpq_queries_rejected_overload_total",
            "Submissions rejected by admission control.",
            g(&m.rejected_overload),
        ),
        (
            "rpq_queries_budget_exceeded_total",
            "Queries aborted on an exhausted node budget.",
            g(&m.budget_exceeded),
        ),
        (
            "rpq_epoch_bumps_total",
            "Snapshot-epoch bumps observed at submit time.",
            g(&m.epoch_bumps),
        ),
        (
            "rpq_rank_ops_total",
            "Wavelet rank operations performed.",
            g(&m.rank_ops),
        ),
        (
            "rpq_rank_ops_saved_total",
            "Rank operations avoided by frontier batching.",
            g(&m.rank_ops_saved),
        ),
    ] {
        prom_header(&mut out, name, help, "counter");
        prom_sample(&mut out, name, v);
    }

    prom_header(
        &mut out,
        "rpq_queue_depth",
        "Jobs currently queued.",
        "gauge",
    );
    prom_sample(
        &mut out,
        "rpq_queue_depth",
        m.queue_depth.load(Ordering::Relaxed),
    );
    prom_header(
        &mut out,
        "rpq_queue_peak",
        "Queue-depth high-water mark.",
        "gauge",
    );
    prom_sample(
        &mut out,
        "rpq_queue_peak",
        m.queue_peak.load(Ordering::Relaxed),
    );
    prom_header(
        &mut out,
        "rpq_queue_capacity",
        "Configured queue capacity.",
        "gauge",
    );
    prom_sample(&mut out, "rpq_queue_capacity", queue_capacity);

    prom_header(
        &mut out,
        "rpq_planner_decisions_total",
        "Planner route decisions.",
        "counter",
    );
    for r in EvalRoute::ALL {
        prom_labeled(
            &mut out,
            "rpq_planner_decisions_total",
            "route",
            r.name(),
            m.planner_decisions[r.index()].load(Ordering::Relaxed),
        );
    }
    {
        let accuracy: [(&str, &str, &[AtomicU64; ROUTES]); 3] = [
            (
                "rpq_planner_estimated_cost_total",
                "Sum of planner cost estimates per executed route.",
                &m.est_cost_by_route,
            ),
            (
                "rpq_planner_actual_nodes_total",
                "Sum of product-graph nodes actually visited per executed route.",
                &m.actual_nodes_by_route,
            ),
            (
                "rpq_planner_actual_rank_ops_total",
                "Sum of rank operations actually performed per executed route.",
                &m.actual_rank_ops_by_route,
            ),
        ];
        for (name, help, arr) in accuracy {
            prom_header(&mut out, name, help, "counter");
            for r in EvalRoute::ALL {
                prom_labeled(&mut out, name, "route", r.name(), g(&arr[r.index()]));
            }
        }
    }
    prom_header(
        &mut out,
        "rpq_planner_misprediction_x1000",
        "Actual-vs-estimated cost ratio x1000 per executed route (1000 = perfect).",
        "histogram",
    );
    for r in EvalRoute::ALL {
        let h = &m.misprediction_by_route[r.index()];
        if h.non_empty() {
            prom_histogram(
                &mut out,
                "rpq_planner_misprediction_x1000",
                Some(("route", r.name())),
                h,
                1.0,
            );
        }
    }

    prom_header(
        &mut out,
        "rpq_parallel_levels_total",
        "BFS levels fanned across the intra-query pool, per route.",
        "counter",
    );
    for r in EvalRoute::ALL {
        prom_labeled(
            &mut out,
            "rpq_parallel_levels_total",
            "route",
            r.name(),
            m.parallel_levels_by_route[r.index()].load(Ordering::Relaxed),
        );
    }
    prom_header(
        &mut out,
        "rpq_parallel_chunks_total",
        "Frontier chunks merged back from the pool, per route.",
        "counter",
    );
    for r in EvalRoute::ALL {
        prom_labeled(
            &mut out,
            "rpq_parallel_chunks_total",
            "route",
            r.name(),
            m.parallel_chunks_by_route[r.index()].load(Ordering::Relaxed),
        );
    }
    prom_header(
        &mut out,
        "rpq_helper_pool_capacity",
        "Process-wide intra-query helper token capacity.",
        "gauge",
    );
    prom_sample(
        &mut out,
        "rpq_helper_pool_capacity",
        rpq_core::parallel::pool_capacity(),
    );
    prom_header(
        &mut out,
        "rpq_helper_pool_in_use",
        "Helper tokens currently checked out.",
        "gauge",
    );
    prom_sample(
        &mut out,
        "rpq_helper_pool_in_use",
        rpq_core::parallel::pool_in_use(),
    );

    {
        type CacheField = fn(&CacheStats) -> u64;
        let caches: [(&str, &str, &str, CacheField); 7] = [
            ("rpq_cache_hits_total", "Cache hits.", "counter", |c| c.hits),
            ("rpq_cache_misses_total", "Cache misses.", "counter", |c| {
                c.misses
            }),
            (
                "rpq_cache_evictions_total",
                "Cache evictions.",
                "counter",
                |c| c.evictions,
            ),
            (
                "rpq_cache_invalidations_total",
                "Cache invalidations.",
                "counter",
                |c| c.invalidations,
            ),
            ("rpq_cache_entries", "Live cache entries.", "gauge", |c| {
                c.entries as u64
            }),
            (
                "rpq_cache_used_bytes",
                "Bytes held by the cache.",
                "gauge",
                |c| c.used as u64,
            ),
            (
                "rpq_cache_budget_bytes",
                "Cache byte budget.",
                "gauge",
                |c| c.budget as u64,
            ),
        ];
        for (name, help, kind, f) in caches {
            prom_header(&mut out, name, help, kind);
            prom_labeled(&mut out, name, "cache", "plan", f(plan_cache));
            prom_labeled(&mut out, name, "cache", "result", f(result_cache));
        }
    }

    let u = updates.unwrap_or_default();
    prom_header(
        &mut out,
        "rpq_snapshot_epoch",
        "Current snapshot epoch.",
        "gauge",
    );
    prom_sample(&mut out, "rpq_snapshot_epoch", epoch);
    for (name, help, v) in [
        (
            "rpq_update_commits_total",
            "Update batches committed.",
            u.commits,
        ),
        (
            "rpq_update_compactions_total",
            "Delta compactions into the ring.",
            u.compactions,
        ),
        (
            "rpq_update_commit_nanoseconds_total",
            "Time spent merging update batches into the delta overlay.",
            u.commit_ns,
        ),
        (
            "rpq_update_compact_nanoseconds_total",
            "Time spent rebuilding the ring (the compaction stall).",
            u.compact_ns,
        ),
        (
            "rpq_delta_adds_total",
            "Triples added through the delta overlay.",
            u.delta_adds as u64,
        ),
        (
            "rpq_delta_deletes_total",
            "Triples deleted through the delta overlay.",
            u.delta_deletes as u64,
        ),
    ] {
        prom_header(&mut out, name, help, "counter");
        prom_sample(&mut out, name, v);
    }
    prom_header(
        &mut out,
        "rpq_pending_ops",
        "Update operations not yet committed.",
        "gauge",
    );
    prom_sample(&mut out, "rpq_pending_ops", u.pending_ops);

    for (name, help, v) in [
        ("rpq_drains_total", "Graceful drains started.", g(&m.drains)),
        (
            "rpq_drained_jobs_total",
            "Backlogged queries finished within a drain deadline.",
            g(&m.drained_jobs),
        ),
        (
            "rpq_aborted_jobs_total",
            "Queries a drain deadline aborted while queued.",
            g(&m.aborted_jobs),
        ),
        (
            "rpq_checkpoints_total",
            "Durable checkpoints (snapshot persisted, WAL rotated).",
            g(&m.checkpoints),
        ),
        (
            "rpq_checkpoint_failures_total",
            "Checkpoint attempts that failed.",
            g(&m.checkpoint_failures),
        ),
    ] {
        prom_header(&mut out, name, help, "counter");
        prom_sample(&mut out, name, v);
    }

    let ix = index.unwrap_or_default();
    prom_header(
        &mut out,
        "rpq_index_open_us",
        "Wall time of the index open call, microseconds (0 = built in memory).",
        "gauge",
    );
    prom_sample(&mut out, "rpq_index_open_us", ix.open_us);
    prom_header(
        &mut out,
        "rpq_index_resident_mode",
        "Where the index payload lives: 1 on the active mode label.",
        "gauge",
    );
    for mode in ["heap", "mmap"] {
        prom_labeled(
            &mut out,
            "rpq_index_resident_mode",
            "mode",
            mode,
            u64::from(mode == ix.resident_mode),
        );
    }
    prom_header(
        &mut out,
        "rpq_index_mapped_bytes",
        "Bytes of the index held by a kernel mapping (0 in heap mode).",
        "gauge",
    );
    prom_sample(&mut out, "rpq_index_mapped_bytes", ix.mapped_bytes);

    if let Some(shards) = shards {
        prom_header(
            &mut out,
            "rpq_shards",
            "Shards of the served index (absent when unsharded).",
            "gauge",
        );
        prom_sample(&mut out, "rpq_shards", shards.len());
        type ShardField = fn(&crate::source::ShardStat) -> u64;
        let per_shard: [(&str, &str, &str, ShardField); 3] = [
            (
                "rpq_shard_triples",
                "Completed triples held by one shard.",
                "gauge",
                |s| s.triples as u64,
            ),
            (
                "rpq_shard_bytes",
                "Index bytes of one shard's ring.",
                "gauge",
                |s| s.bytes as u64,
            ),
            (
                "rpq_shard_probes_total",
                "Scatter-gather probes served by one shard.",
                "counter",
                |s| s.probes,
            ),
        ];
        for (name, help, kind, f) in per_shard {
            prom_header(&mut out, name, help, kind);
            for (i, s) in shards.iter().enumerate() {
                prom_labeled(&mut out, name, "shard", &i.to_string(), f(s));
            }
        }
    }

    prom_header(
        &mut out,
        "rpq_query_latency_seconds",
        "End-to-end query latency (queue wait included).",
        "histogram",
    );
    prom_histogram(
        &mut out,
        "rpq_query_latency_seconds",
        None,
        &m.latency_all,
        1e6,
    );
    prom_header(
        &mut out,
        "rpq_queue_wait_seconds",
        "Time jobs waited in the queue.",
        "histogram",
    );
    prom_histogram(&mut out, "rpq_queue_wait_seconds", None, &m.queue_wait, 1e6);
    prom_header(
        &mut out,
        "rpq_query_exec_seconds",
        "Pure evaluation time (cache hits excluded).",
        "histogram",
    );
    prom_histogram(
        &mut out,
        "rpq_query_exec_seconds",
        None,
        &m.latency_exec,
        1e6,
    );
    prom_header(
        &mut out,
        "rpq_query_route_latency_seconds",
        "Evaluation latency per route (result-cache hits as route=\"cached\").",
        "histogram",
    );
    for r in EvalRoute::ALL {
        let h = m.route_histogram(r);
        if h.non_empty() {
            prom_histogram(
                &mut out,
                "rpq_query_route_latency_seconds",
                Some(("route", r.name())),
                h,
                1e6,
            );
        }
    }
    if m.latency_cached.non_empty() {
        prom_histogram(
            &mut out,
            "rpq_query_route_latency_seconds",
            Some(("route", "cached")),
            &m.latency_cached,
            1e6,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

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
            crate::source::ShardStat {
                triples: 10,
                bytes: 2048,
                probes: 7,
            },
            crate::source::ShardStat {
                triples: 6,
                bytes: 1024,
                probes: 0,
            },
        ];
        let text = registry_prometheus(
            &m,
            2,
            1,
            16,
            &cache,
            &cache,
            0,
            None,
            Some(crate::source::IndexStats {
                open_us: 1234,
                resident_mode: "mmap",
                mapped_bytes: 4096,
            }),
            Some(&shard_rows),
        );

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
        let text = registry_prometheus(&m, 1, 1, 8, &cache, &cache, 0, None, None, None);
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
        let json = registry_json(&m, 1, 1, 8, &cache, &cache, 0, None, None, None);
        // The CI server-smoke step greps for this exact byte shape.
        assert!(json.contains("\"result_cache\":{\"hits\":1"), "{json}");
        assert!(json.contains("\"latency_us\":{\"all\":{\"count\":0"));
        assert!(json.contains("\"planner\":{\"decisions\":{\"fastpath\":0"));
        // Unsharded sources have no shards section at all.
        assert!(!json.contains("\"shards\""));

        let rows = [crate::source::ShardStat {
            triples: 4,
            bytes: 512,
            probes: 9,
        }];
        let sharded = registry_json(&m, 1, 1, 8, &cache, &cache, 0, None, None, Some(&rows));
        assert!(
            sharded.contains(
                "\"shards\":{\"count\":1,\"rows\":[{\"triples\":4,\"bytes\":512,\"probes\":9}]}"
            ),
            "{sharded}"
        );
    }
}
