#![warn(missing_docs)]

//! The *ring* (Arroyuelo et al., SIGMOD 2021 \[4\]): a BWT-based succinct
//! representation of a labeled graph, and the substrate the Ring-RPQ
//! engine navigates.
//!
//! A graph is a set of triples `(s, p, o)`. Viewing each triple as a
//! circular string, the paper's ring has three columns (§3.4 of the RPQ
//! paper), of which this index stores two:
//!
//! * `L_s`: subjects of the triples sorted by `(p, o, s)`,
//! * `L_p`: predicates of the triples sorted by `(o, s, p)`,
//!
//! each as a wavelet matrix, plus the boundary arrays `C_p` and `C_o`
//! counting, for every symbol, how many triples sort strictly before it in
//! the respective order. (`C_s` is `C_o`: every ring is completed with its
//! inverse edges, and there a node is the subject of as many triples as
//! it is the object of.) The `L_p → L_s` LF-step and the range
//! backward-search step by predicate (Eqs. 3–5) decode every triple and
//! power the RPQ traversal.
//!
//! **Deviation from the paper, stated once.** The paper's 16.41 B/triple
//! is the full ring; this index is its RPQ-only subset. §4's algorithm
//! reads "the wavelet trees representing sequences `L_p` and `L_s`, as
//! well as all the arrays `C`" and never the third column, `L_o` (the
//! objects sorted by `(s, p, o)`), so it is not built, held or written —
//! a third of the ring's bytes. Given up with it: `objects_for(s, p)` as
//! a direct enumeration (with inverses indexed, ask
//! `subjects_for(inverse_label(p), s)`; without them there is no
//! substitute), the LF-steps out of `L_s` and `L_o` and with them the
//! closed three-step cycle, and the backward step by object. The file
//! format has no slot for the column ([`mapped`]).
//!
//! Modules:
//! * [`triple`]: the `Triple` type and sort orders.
//! * [`dict`]: dictionary encoding between names and dense ids.
//! * [`graph`]: an in-memory triple set with completion `G↔` (inverse
//!   edges) and a whitespace text format.
//! * [`boundaries`]: the `C` arrays, dense (plain words) or succinct
//!   (bit vector + select), as in §5 of the paper.
//! * [`ring`]: the index itself, and the bulk decode of its triples.
//! * [`mapped`]: the one index file format, `RRPQM01` — the ring's arrays
//!   as they are in memory, mapped in place on open.
//! * [`delta`]: the sorted add/tombstone overlay live updates accumulate
//!   into between ring rebuilds.
//! * [`store`]: the updatable store — ring + delta behind atomic,
//!   versioned snapshots with commit/compact.
//! * [`durable`]: crash-safe IO — atomic replace-writes, checksum
//!   footers, typed corruption errors, and the fault-injection layer the
//!   crash-consistency battery drives.
//! * [`wal`]: the write-ahead log that makes committed updates survive a
//!   crash between snapshots.
//! * [`sharded`]: horizontal sharding — the graph partitioned by
//!   predicate (subject ranges for skewed ones) into per-shard rings
//!   over shared universes, persisted as a manifest-bound directory of
//!   mapped files.

pub mod boundaries;
pub mod delta;
pub mod dict;
pub mod durable;
pub mod graph;
pub mod mapped;
pub mod ntriples;
pub mod ring;
pub mod sharded;
pub mod store;
pub mod triple;
pub mod wal;

pub use boundaries::Boundaries;
pub use delta::DeltaIndex;
pub use dict::Dict;
pub use graph::Graph;
pub use ring::Ring;
pub use store::{StoreSnapshot, TripleStore};
pub use triple::Triple;

/// Node or predicate identifier (dense, 0-based).
pub type Id = u64;
