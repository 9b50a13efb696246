#![warn(missing_docs)]

//! **Ring-RPQ**: regular path queries on the ring, the primary contribution
//! of "Time- and Space-Efficient Regular Path Queries on Graphs"
//! (Arroyuelo, Hogan, Navarro, Rojas-Ledesma; arXiv:2111.04556).
//!
//! The engine ([`RpqEngine`]) evaluates 2RPQs `(s, E, o)` directly on the
//! succinct [`ring::Ring`] index by traversing, backwards, exactly the
//! subgraph `G'_E` of the product graph that the query induces:
//!
//! 1. **Part one** (§4.1): from the `L_p` range of the current object(s),
//!    a B-masked wavelet-matrix traversal finds every distinct predicate
//!    that (a) reaches the object and (b) leads to an active NFA state —
//!    `D & B[v] ≠ 0` prunes whole subtrees, so no time is spent on
//!    irrelevant labels (Fact 1).
//! 2. **Part two** (§4.2): each surviving predicate's backward-search range
//!    of `L_s` is read position by position under a visited-mask filter,
//!    yielding every subject that contributes *new* NFA states; the
//!    bit-parallel reverse step `D ← T'[D & B[p]]` (Eq. 2) applies to all
//!    of them at once.
//! 3. **Part three** (§4.3): each fresh subject is re-interpreted as an
//!    object via `C_o`, and the BFS continues; subjects whose state set
//!    contains the initial state are reported as answers.
//!
//! There is one traversal, and it takes the three parts a frontier chunk
//! at a time over a crate-private batch *step source*: over a bare ring
//! each part is one pass taken level by level — a sweep of `L_p`, a
//! batched access of `L_s`, the `C_o` lookups — whose memory accesses
//! overlap; over a delta overlay or a shard partition
//! ([`MergedView`]) the same batch is stepped through every shard owning
//! the label and merged with the delta. The §5 fast paths run over the
//! same source. The crate's `README.md` ("How one BFS level is expanded")
//! has the scheme and why it visits what §4 visits, in §4's order, on
//! every source.
//!
//! All four query shapes of §4.4 are supported; route, traversal
//! direction and rare-label splits are chosen by the shared cost-based
//! [`planner`], which every layer — the engine, [`explain`], a serving
//! layer's metrics — executes or renders (one decision, no divergence).
//!
//! Modules: [`query`] (query types, options, outputs, statistics),
//! [`engine`] (the engine: planning, dispatch, profiles), [`scratch`]
//! (the traversal's reusable working memory and the pool facades share),
//! [`source`] (what an engine evaluates over, and the layered step
//! source), [`planner`] (the §4.3/§6 cost-based route
//! and direction choice), [`fastpath`] (§5 specializations), [`split`]
//! (§2 rare-label splitting), [`stats`] (§6 on-the-fly selectivity),
//! [`oracle`] (a naive reference evaluator for differential testing).

pub mod engine;
pub mod explain;
pub mod fastpath;
pub mod jsonw;
mod kernel;
#[cfg(test)]
mod level_sync_identity;
pub mod oracle;
pub mod pairbuf;
pub mod parallel;
pub mod plan;
pub mod planner;
pub mod profile;
pub mod query;
pub mod scratch;
pub mod source;
pub mod split;
pub mod stats;
mod step;

pub use engine::RpqEngine;
pub use plan::{EvalRoute, PreparedQuery};
pub use planner::{Direction, Plan};
pub use profile::{LevelSample, PhaseTimes, QueryProfile};
pub use query::{EngineOptions, QueryOutput, RpqQuery, Term, TraversalStats};
pub use scratch::{EngineScratch, ScratchPool};
pub use source::{MergedView, ShardPart, ShardSet, ShardedSource, SourceSnapshot, TripleSource};

/// Errors from query evaluation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QueryError {
    /// The regular expression could not be compiled.
    Automaton(automata::AutomatonError),
    /// A constant term is outside the graph's node universe.
    NodeOutOfRange(ring::Id),
    /// The evaluation machinery itself failed (a panicked batch worker,
    /// a poisoned engine) — not a property of the query. The payload is
    /// a human-readable diagnostic.
    Internal(String),
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::Automaton(e) => write!(f, "automaton construction failed: {e}"),
            QueryError::NodeOutOfRange(id) => write!(f, "node id {id} out of range"),
            QueryError::Internal(msg) => write!(f, "internal evaluation failure: {msg}"),
        }
    }
}

impl std::error::Error for QueryError {}

impl From<automata::AutomatonError> for QueryError {
    fn from(e: automata::AutomatonError) -> Self {
        QueryError::Automaton(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `Send + Sync` audit: everything a serving layer shares between
    /// worker threads — queries, plans, options, outputs — must be free
    /// of interior mutability. (The engine itself is deliberately *not*
    /// shared: each worker owns one, for its mask tables.)
    #[test]
    fn shared_query_types_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<RpqQuery>();
        assert_send_sync::<PreparedQuery>();
        assert_send_sync::<EngineOptions>();
        assert_send_sync::<QueryOutput>();
        assert_send_sync::<TraversalStats>();
        assert_send_sync::<QueryError>();
        // Engines are Send (movable into a worker thread), one per worker.
        fn assert_send<T: Send>() {}
        assert_send::<RpqEngine<'static>>();
    }
}
