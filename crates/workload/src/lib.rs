#![warn(missing_docs)]

//! Workloads for the evaluation: synthetic Wikidata-like graphs and query
//! logs following the paper's Table 1 pattern mix.
//!
//! The paper benchmarks on a 958 M-edge Wikidata dump and 1 952 real
//! timeout-inducing RPQs from the Wikidata query logs \[34\]; neither is
//! available offline, so this crate generates stand-ins:
//!
//! * [`graphgen::GraphGen`] draws predicates from a Zipf distribution and
//!   endpoints from a heavy-tailed node distribution, matching the
//!   qualitative Wikidata shape (a few huge predicates, many rare ones;
//!   skewed degrees).
//! * [`querygen::QueryGen`] instantiates the exact 20-pattern mix of
//!   Table 1 with the paper's per-pattern counts, mixing
//!   frequency-weighted and uniform predicate choices so both popular and
//!   rare labels occur.
//! * [`patterns`] is the pattern taxonomy itself: the Table 1 rows and the
//!   classifier that maps a query back to its pattern string
//!   ("mapping nodes to constant/variable types and erasing their
//!   predicates", §5).
//! * [`metro`] is the paper's Fig. 1 metro graph, used by the examples and
//!   the worked-example tests.

pub mod graphgen;
pub mod logfile;
pub mod metro;
pub mod patterns;
pub mod querygen;
pub mod updates;

pub use graphgen::{GraphGen, GraphGenConfig};
pub use patterns::{classify, TABLE1_PATTERNS};
pub use querygen::{GeneratedQuery, QueryGen};
pub use updates::{StreamOp, UpdateGen, UpdateGenConfig};
