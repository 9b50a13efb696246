#![warn(missing_docs)]

//! **rpq-server** — a concurrent query service over the ring index.
//!
//! The ring (Arroyuelo et al., ICDE 2022) is a read-optimized, immutable
//! structure: once built, any number of threads can evaluate 2RPQs
//! against one shared copy. This crate turns that property into a
//! service layer:
//!
//! * [`RpqServer`] — a std-thread worker pool owning an
//!   `Arc<dyn QuerySource>` (the façade's `RpqDatabase` implements the
//!   trait), with a session API — `submit` returns a [`QueryTicket`],
//!   `wait` redeems it — and a blocking convenience (`query_blocking`);
//! * [`plan_cache`] — compiled-query sharing: normalized pattern →
//!   Glushkov product automaton + bit-parallel tables, one `Arc` for all
//!   workers;
//! * [`result_cache`] — an LRU over complete answer sets with byte-size
//!   accounting and an invalidation hook; `submit` answers a hit on the
//!   caller's thread, and only a miss is queued for a worker;
//! * admission control — a bounded queue ([`RpqError::Overloaded`]) and
//!   per-query [`QueryBudget`]s (result/time partials,
//!   [`RpqError::BudgetExceeded`] hard aborts);
//! * [`metrics`] — per-engine latency histograms (queue wait and
//!   execution time measured separately), cache hit rates, queue gauges
//!   and planner-accuracy accounting, exported as JSON and in the
//!   Prometheus text format;
//! * [`slowlog`] — a bounded log of the N worst queries with their full
//!   execution profiles.
//!
//! ```
//! use std::sync::Arc;
//! use ring::ring::RingOptions;
//! use ring::{Graph, Ring, Triple};
//! use rpq_server::{IndexSource, RpqServer, ServerConfig};
//!
//! let g = Graph::from_triples(vec![Triple::new(0, 0, 1), Triple::new(1, 0, 2)]);
//! let ring = Ring::build(&g, RingOptions::default());
//! let server = RpqServer::start(
//!     Arc::new(IndexSource::id_only(ring)),
//!     ServerConfig { workers: 2, ..ServerConfig::default() },
//! )
//! .unwrap();
//! let answer = server.query_blocking("0", "0+", "?y").unwrap();
//! assert_eq!(answer.pairs, vec![(0, 1), (0, 2)]);
//! server.shutdown();
//! ```

pub mod lru;
pub mod metrics;
pub mod plan_cache;
pub mod result_cache;
pub mod server;
pub mod slowlog;
pub mod source;

pub use plan_cache::PlanCache;
pub use result_cache::{ResultCache, ResultKey};
pub use server::{DrainReport, QueryAnswer, QueryBudget, QueryTicket, RpqServer, ServerConfig};
pub use slowlog::{SlowEntry, SlowLog};
pub use source::{IndexSource, IndexStats, LiveSource, QuerySource, ShardStat, UpdateStats};

/// Errors of the serving layer. `Parse`, `UnknownNode` and `Overloaded`
/// are reported at submit; `ShuttingDown` at submit, or through `wait`
/// for a job still queued at shutdown; the rest surface through `wait`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RpqError {
    /// The path expression failed to parse or mentions a predicate the
    /// snapshot's alphabet lacks.
    Parse(automata::parser::ParseError),
    /// An endpoint names a node absent from the dictionary.
    UnknownNode(String),
    /// Admission control rejected the query: the pending queue is full.
    Overloaded {
        /// Jobs pending when the submission was rejected.
        pending: usize,
        /// The configured queue capacity.
        capacity: usize,
    },
    /// The query's product-node budget ran out mid-evaluation.
    BudgetExceeded {
        /// Product-graph nodes visited before the abort.
        visited: u64,
        /// The configured budget.
        budget: u64,
    },
    /// The engine rejected the query.
    Query(rpq_core::QueryError),
    /// The server is shutting down.
    ShuttingDown,
    /// Evaluation panicked; the worker recovered and kept serving.
    Internal(String),
    /// The server configuration is unusable (rejected at construction,
    /// or a call that the configuration can never satisfy).
    InvalidConfig(String),
}

impl std::fmt::Display for RpqError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RpqError::Parse(e) => write!(f, "parse error: {e}"),
            RpqError::UnknownNode(n) => write!(f, "unknown node '{n}'"),
            RpqError::Overloaded { pending, capacity } => {
                write!(f, "server overloaded: {pending}/{capacity} queries pending")
            }
            RpqError::BudgetExceeded { visited, budget } => {
                write!(
                    f,
                    "node budget exceeded: {visited} product nodes visited (budget {budget})"
                )
            }
            RpqError::Query(e) => write!(f, "query error: {e}"),
            RpqError::ShuttingDown => write!(f, "server shutting down"),
            RpqError::Internal(m) => write!(f, "internal error: {m}"),
            RpqError::InvalidConfig(m) => write!(f, "invalid configuration: {m}"),
        }
    }
}

impl std::error::Error for RpqError {}

/// Locks a mutex, recovering the data from a poisoned lock instead of
/// propagating the panic into the caller.
///
/// A worker panicking mid-evaluation poisons whatever mutex its stack
/// happened to hold — most damagingly a job's `outcome` mutex, which
/// every client thread then touches through `wait`. All server mutexes
/// guard state that is consistent at every lock acquisition (a job's
/// outcome is set once, by one writer; the queue is a plain collection
/// mutated under the lock), so
/// recovering the guard is sound: the panic is still surfaced — the
/// worker's `catch_unwind` fails the job with [`RpqError::Internal`] —
/// but it stays one query's failure instead of cascading panics into
/// every thread that later locks the same mutex.
pub(crate) fn lock_ignore_poison<T>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl From<rpq_core::QueryError> for RpqError {
    fn from(e: rpq_core::QueryError) -> Self {
        RpqError::Query(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The whole service layer must be shareable across threads.
    #[test]
    fn server_types_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<RpqServer>();
        assert_send_sync::<PlanCache>();
        assert_send_sync::<ResultCache>();
        assert_send_sync::<metrics::Metrics>();
        assert_send_sync::<SlowLog>();
        assert_send_sync::<QueryAnswer>();
        assert_send_sync::<RpqError>();
        assert_send_sync::<IndexSource>();
    }
}
