#![warn(missing_docs)]

//! Baseline RPQ engines over a classical adjacency-list index.
//!
//! The paper compares the ring against Jena, Virtuoso and Blazegraph
//! (§5). Those systems are not available offline, so this crate implements
//! one engine per *algorithmic family* they represent:
//!
//! * [`NfaBfsEngine`] — navigational node-at-a-time product-graph BFS with
//!   a Thompson NFA: the SPARQL "Arbitrary Length Paths" procedure that
//!   Jena (and Blazegraph's ALP service) implement.
//! * [`SemiNaiveEngine`] — set-at-a-time semi-naive fix-point over the
//!   automaton-annotated reachability relation: the transitive-closure-
//!   over-a-relational-engine strategy of Virtuoso.
//! * [`BitParallelAdjEngine`] — the same bit-parallel Glushkov frontier
//!   simulation as the ring engine, but over the fat adjacency index: the
//!   "fast but big" competitor isolating exactly the paper's space/time
//!   trade-off (Blazegraph's role in Table 2).
//!
//! All engines implement [`PathEngine`], share [`AdjacencyIndex`] (a
//! two-order uncompressed index over the completed graph `G↔`), and agree
//! result-for-result with `rpq_core`'s ring engine — that equivalence is
//! property-tested.

pub mod adjacency;
pub mod bitparallel_adj;
pub mod nfa_bfs;
pub mod ring_adapter;
pub mod seminaive;

pub use adjacency::AdjacencyIndex;
pub use bitparallel_adj::BitParallelAdjEngine;
pub use nfa_bfs::NfaBfsEngine;
pub use ring_adapter::RingEngine;
pub use seminaive::SemiNaiveEngine;

use rpq_core::{EngineOptions, QueryError, QueryOutput, RpqQuery};

/// A uniform interface over all engines, for the differential tests and
/// the scoreboard's `baselines.*` rows (Table 2 and Fig. 8).
pub trait PathEngine {
    /// Display name used in the result tables.
    fn name(&self) -> &'static str;
    /// Bytes of the index this engine queries.
    fn index_bytes(&self) -> usize;
    /// Evaluates one 2RPQ.
    fn run(&mut self, query: &RpqQuery, opts: &EngineOptions) -> Result<QueryOutput, QueryError>;
}
