//! A bounded slow-query log: the N worst queries by end-to-end latency,
//! each with its full [`QueryProfile`].
//!
//! The log keeps entries sorted worst-first. Offering an entry below the
//! configured threshold is a no-op; once the log is full, a new entry
//! must beat the current minimum to get in (the minimum is evicted).
//! Recording is off the query hot path — the worker offers an entry
//! only after the answer is already published — and the single mutex is
//! uncontended unless many queries cross the threshold simultaneously.

use std::sync::Mutex;
use std::time::Duration;

use rpq_core::jsonw::JsonWriter;
use rpq_core::{EvalRoute, QueryProfile};

/// One logged slow query.
#[derive(Clone, Debug)]
pub struct SlowEntry {
    /// Monotonic sequence number (order of admission into the log).
    pub seq: u64,
    /// Normalized path-expression pattern (the result-cache key's).
    pub pattern: String,
    /// Subject endpoint (`?var` or a node id rendered as decimal).
    pub subject: String,
    /// Object endpoint.
    pub object: String,
    /// End-to-end latency, submit → answer, microseconds.
    pub total_us: u64,
    /// Time spent queued before a worker picked the job up.
    pub queue_wait_us: u64,
    /// The route executed; `None` for result-cache hits.
    pub route: Option<EvalRoute>,
    /// Whether the answer came from the result cache.
    pub cache_hit: bool,
    /// Result pairs returned.
    pub pairs: u64,
    /// The answer was truncated at the result limit.
    pub truncated: bool,
    /// The answer was cut short by the timeout.
    pub timed_out: bool,
    /// The query's execution profile, when profiling captured one.
    pub profile: Option<Box<QueryProfile>>,
}

impl SlowEntry {
    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object()
            .field_u64("seq", self.seq)
            .field_str("pattern", &self.pattern)
            .field_str("subject", &self.subject)
            .field_str("object", &self.object)
            .field_u64("total_us", self.total_us)
            .field_u64("queue_wait_us", self.queue_wait_us);
        match self.route {
            Some(r) => w.field_str("route", r.name()),
            None => w.key("route").null(),
        };
        w.field_bool("cache_hit", self.cache_hit)
            .field_u64("pairs", self.pairs)
            .field_bool("truncated", self.truncated)
            .field_bool("timed_out", self.timed_out);
        if let Some(p) = &self.profile {
            w.key("profile").raw(&p.to_json());
        }
        w.end_object();
    }
}

struct Inner {
    seq: u64,
    /// Sorted worst-first by `total_us` (ties broken by older first).
    entries: Vec<SlowEntry>,
}

/// The bounded worst-N log. `capacity == 0` disables it entirely —
/// every offer is rejected without taking the lock's contents into
/// account.
pub struct SlowLog {
    capacity: usize,
    threshold_us: u64,
    inner: Mutex<Inner>,
}

impl SlowLog {
    /// A log keeping the `capacity` worst queries at or above
    /// `threshold`.
    pub fn new(capacity: usize, threshold: Duration) -> Self {
        Self {
            capacity,
            threshold_us: threshold.as_micros().min(u128::from(u64::MAX)) as u64,
            inner: Mutex::new(Inner {
                seq: 0,
                entries: Vec::new(),
            }),
        }
    }

    /// Whether the log records anything at all.
    pub fn enabled(&self) -> bool {
        self.capacity > 0
    }

    /// The admission threshold, microseconds.
    pub fn threshold_us(&self) -> u64 {
        self.threshold_us
    }

    /// Offers an entry; returns whether it was admitted. Entries below
    /// the threshold, or not worse than the log's current minimum when
    /// full, are rejected.
    pub fn offer(&self, mut entry: SlowEntry) -> bool {
        if self.capacity == 0 || entry.total_us < self.threshold_us {
            return false;
        }
        let mut inner = crate::lock_ignore_poison(&self.inner);
        if inner.entries.len() >= self.capacity
            && entry.total_us <= inner.entries.last().map_or(0, |e| e.total_us)
        {
            return false;
        }
        entry.seq = inner.seq;
        inner.seq += 1;
        // Insert keeping worst-first order; equal latencies keep the
        // older entry ahead (stable position via partition_point).
        let at = inner
            .entries
            .partition_point(|e| e.total_us >= entry.total_us);
        inner.entries.insert(at, entry);
        if inner.entries.len() > self.capacity {
            inner.entries.pop();
        }
        true
    }

    /// Number of logged entries.
    pub fn len(&self) -> usize {
        crate::lock_ignore_poison(&self.inner).entries.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of the entries, worst-first.
    pub fn entries(&self) -> Vec<SlowEntry> {
        crate::lock_ignore_poison(&self.inner).entries.clone()
    }

    /// Renders `{"threshold_us":..,"capacity":..,"entries":[..]}` with
    /// entries worst-first.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object()
            .field_u64("threshold_us", self.threshold_us)
            .field_u64("capacity", self.capacity as u64)
            .key("entries")
            .begin_array();
        for e in crate::lock_ignore_poison(&self.inner).entries.iter() {
            e.write_json(&mut w);
        }
        w.end_array().end_object();
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(total_us: u64) -> SlowEntry {
        SlowEntry {
            seq: 0,
            pattern: "a+".into(),
            subject: "?x".into(),
            object: "?y".into(),
            total_us,
            queue_wait_us: 1,
            route: Some(EvalRoute::ALL[0]),
            cache_hit: false,
            pairs: 3,
            truncated: false,
            timed_out: false,
            profile: None,
        }
    }

    #[test]
    fn threshold_rejects_fast_queries() {
        let log = SlowLog::new(4, Duration::from_micros(100));
        assert!(!log.offer(entry(99)));
        assert!(log.offer(entry(100)));
        assert_eq!(log.len(), 1);
    }

    #[test]
    fn capacity_zero_disables() {
        let log = SlowLog::new(0, Duration::ZERO);
        assert!(!log.enabled());
        assert!(!log.offer(entry(1_000_000)));
        assert!(log.is_empty());
    }

    #[test]
    fn evicts_the_least_slow_once_full() {
        let log = SlowLog::new(3, Duration::ZERO);
        for us in [500, 100, 300] {
            assert!(log.offer(entry(us)));
        }
        // 50 is faster than everything logged: rejected.
        assert!(!log.offer(entry(50)));
        // 400 beats the current minimum (100): admitted, 100 evicted.
        assert!(log.offer(entry(400)));
        let totals: Vec<u64> = log.entries().iter().map(|e| e.total_us).collect();
        assert_eq!(totals, vec![500, 400, 300]);
        // Ties with the minimum do not churn the log.
        assert!(!log.offer(entry(300)));
    }

    #[test]
    fn json_shape_is_stable() {
        let log = SlowLog::new(2, Duration::ZERO);
        log.offer(entry(42));
        let json = log.to_json();
        assert_eq!(
            json,
            "{\"threshold_us\":0,\"capacity\":2,\"entries\":[\
             {\"seq\":0,\"pattern\":\"a+\",\"subject\":\"?x\",\"object\":\"?y\",\
             \"total_us\":42,\"queue_wait_us\":1,\"route\":\"fastpath\",\
             \"cache_hit\":false,\"pairs\":3,\"truncated\":false,\"timed_out\":false}]}"
        );
    }
}
