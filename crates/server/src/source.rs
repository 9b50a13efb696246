//! What a server serves: an evaluation **snapshot** (ring plus optional
//! delta overlay, stamped with an epoch) and the name dictionaries
//! needed to parse string-level queries — and the one name-level query
//! path over them.
//!
//! The façade crate's `RpqDatabase` and `UpdatableDatabase` implement
//! [`QuerySource`] with their dictionaries; id-level embedders
//! (benchmarks, tests) can use [`IndexSource`] (immutable) or
//! [`LiveSource`] (an updatable [`TripleStore`] behind the same
//! interface) directly, where names are decimal ids.
//!
//! A string query `s expr o` becomes an id-level [`RpqQuery`] over one
//! captured snapshot in one place, [`resolve_query`], which both façade
//! databases and [`RpqServer::submit`](crate::RpqServer::submit) call;
//! answers become names in one place, [`name_pairs`]. The rule for names
//! at a snapshot:
//!
//! * a label resolves only if the snapshot's alphabet holds it — a label
//!   interned for an uncommitted insert is unknown (a parse error);
//! * a node name the dictionary does not know is
//!   [`RpqError::UnknownNode`];
//! * a node name the dictionary knows but the snapshot does not hold
//!   (interned for an uncommitted insert) has no edges there: the answer
//!   is empty, and nothing is evaluated.

use std::sync::Arc;

use automata::parser::{self, LabelResolver};
use ring::store::{StoreStats, TripleStore};
use ring::{Id, Ring};
use rpq_core::{MergedView, RpqQuery, SourceSnapshot, Term, TripleSource};

use crate::RpqError;

/// Cold-start facts about the served index: how it was brought into
/// memory and where its payload bytes live. Sources opened from a
/// mapped `RRPQM01` file report `mmap` residency and the mapping size;
/// everything else is heap-resident. Rendered into both metrics
/// exporters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IndexStats {
    /// Wall time of the open call, microseconds (0 = built in memory).
    pub open_us: u64,
    /// `"mmap"` or `"heap"`.
    pub resident_mode: &'static str,
    /// Bytes held by a kernel mapping (0 in heap mode).
    pub mapped_bytes: u64,
}

impl Default for IndexStats {
    fn default() -> Self {
        Self {
            open_us: 0,
            resident_mode: "heap",
            mapped_bytes: 0,
        }
    }
}

/// Per-shard serving facts for a horizontally sharded source — one row
/// per shard in both metrics exporters, so operators can see skew
/// (triples, bytes) and scatter-gather traffic (probes) per shard.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardStat {
    /// Completed triples the shard holds.
    pub triples: usize,
    /// Index size of the shard's ring in bytes.
    pub bytes: usize,
    /// Scatter-gather probes the shard has served (monotonic counter).
    pub probes: u64,
}

/// A queryable database: snapshot capture plus name resolution.
/// Snapshots are immutable once captured, so any number of workers can
/// evaluate against one concurrently; updatable sources publish new
/// snapshots (with bumped epochs) instead of mutating old ones.
pub trait QuerySource: Send + Sync {
    /// Captures the current evaluation snapshot (cheap: `Arc` clones).
    /// Immutable sources return the same epoch-0 snapshot forever.
    fn snapshot(&self) -> SourceSnapshot;
    /// Resolves a node name to its id.
    fn node_id(&self, name: &str) -> Option<Id>;
    /// The name of a node id (for rendering answers).
    fn node_name(&self, id: Id) -> Option<String>;
    /// Resolves a predicate name to its id.
    fn pred_id(&self, name: &str) -> Option<Id>;
    /// Live update counters, for sources that support updates.
    fn update_stats(&self) -> Option<StoreStats> {
        None
    }
    /// Cold-start facts (open latency, heap-vs-mmap residency), for
    /// sources that track how they were opened.
    fn index_info(&self) -> Option<IndexStats> {
        None
    }
    /// Per-shard rows for horizontally sharded sources (`None` =
    /// unsharded). Rendered as the `shards` section of both metrics
    /// exporters.
    fn shard_stats(&self) -> Option<Vec<ShardStat>> {
        None
    }
    /// Flushes durable state — for sources with a write-ahead log,
    /// persist a snapshot and rotate the log, returning the
    /// checkpointed epoch. `None` means the source has nothing durable
    /// to flush (the default); [`RpqServer::drain`](crate::RpqServer::drain)
    /// calls this once in-flight queries have finished.
    fn checkpoint(&self) -> Option<std::io::Result<u64>> {
        None
    }
}

/// An immutable [`QuerySource`] over explicit parts, without
/// dictionaries: names are decimal ids — the form synthetic workloads
/// use.
pub struct IndexSource {
    /// The one ring, or the shard set.
    snapshot: SourceSnapshot,
}

impl IndexSource {
    /// A source over one ring.
    pub fn id_only(ring: Ring) -> Self {
        Self {
            snapshot: SourceSnapshot::immutable(Arc::new(ring)),
        }
    }

    /// A horizontally sharded source: one sub-ring per shard, every
    /// query scatter-gathered across the partition. The rings must share
    /// the global node/predicate universes (as
    /// `ring::sharded::ShardedIndex`-built ones do); name resolution
    /// uses shard 0's universes. A single ring degenerates to
    /// [`IndexSource::id_only`].
    ///
    /// # Panics
    /// Panics if `rings` is empty or the rings disagree on a universe.
    pub fn sharded_id_only(mut rings: Vec<Ring>) -> Self {
        if rings.len() == 1 {
            return Self::id_only(rings.remove(0));
        }
        let source = rpq_core::ShardedSource::new(rings.into_iter().map(Arc::new).collect());
        Self {
            snapshot: source.snapshot(),
        }
    }
}

impl QuerySource for IndexSource {
    fn snapshot(&self) -> SourceSnapshot {
        self.snapshot.clone()
    }

    fn node_id(&self, name: &str) -> Option<Id> {
        let ring = &self.snapshot.ring;
        name.parse::<Id>().ok().filter(|&id| id < ring.n_nodes())
    }

    fn node_name(&self, id: Id) -> Option<String> {
        (id < self.snapshot.ring.n_nodes()).then(|| id.to_string())
    }

    fn pred_id(&self, name: &str) -> Option<Id> {
        let ring = &self.snapshot.ring;
        name.parse::<Id>()
            .ok()
            .filter(|&id| id < ring.n_preds_base())
    }

    fn shard_stats(&self) -> Option<Vec<ShardStat>> {
        let rows = self.snapshot.shards.iter().map(|p| ShardStat {
            triples: p.ring.n_triples(),
            bytes: p.ring.size_bytes(),
            probes: p.probe_count(),
        });
        (!self.snapshot.shards.is_empty()).then(|| rows.collect())
    }
}

/// An updatable [`QuerySource`]: an id-level [`TripleStore`] served
/// live. Names are decimal ids (like [`IndexSource::id_only`]); the
/// name-level updatable API lives in the façade crate. Writers keep a
/// reference to the same `Arc<LiveSource>` the server holds and
/// insert/delete/commit through [`LiveSource::store`] while queries run.
pub struct LiveSource {
    store: TripleStore,
}

impl LiveSource {
    /// Wraps a store for serving.
    pub fn new(store: TripleStore) -> Self {
        Self { store }
    }

    /// The underlying store (for writers: insert/delete/commit/compact).
    pub fn store(&self) -> &TripleStore {
        &self.store
    }
}

impl QuerySource for LiveSource {
    fn snapshot(&self) -> SourceSnapshot {
        SourceSnapshot::from_store(&self.store.snapshot())
    }

    fn node_id(&self, name: &str) -> Option<Id> {
        let snap = self.store.snapshot();
        name.parse::<Id>().ok().filter(|&id| id < snap.n_nodes())
    }

    fn node_name(&self, id: Id) -> Option<String> {
        (id < self.store.snapshot().n_nodes()).then(|| id.to_string())
    }

    fn pred_id(&self, name: &str) -> Option<Id> {
        let snap = self.store.snapshot();
        name.parse::<Id>()
            .ok()
            .filter(|&id| id < snap.ring.n_preds_base())
    }

    fn update_stats(&self) -> Option<StoreStats> {
        Some(self.store.stats())
    }
}

/// The [`LabelResolver`] of every string query: predicate names through
/// the source, inverses through the completed alphabet of the snapshot
/// captured for the query.
struct SourceResolver<'a, S: ?Sized> {
    source: &'a S,
    ring: &'a Ring,
}

impl<S: QuerySource + ?Sized> LabelResolver for SourceResolver<'_, S> {
    // A label the source interned for an uncommitted insert is not in
    // this snapshot's alphabet yet: its id there is an inverse label's.
    fn resolve(&self, name: &str) -> Option<Id> {
        let known = |p: &Id| *p < self.ring.n_preds_base();
        self.source.pred_id(name).filter(known)
    }

    fn inverse(&self, label: Id) -> Id {
        self.ring.inverse_label(label)
    }
}

/// Parses `subject expr object` into an id-level [`RpqQuery`] over
/// `ring`'s alphabet. Endpoints are variables (any token starting with
/// `?`) or node names, looked up in the source's dictionary as it is
/// now; a constant may lie beyond the snapshot (see [`resolve_query`]).
pub fn parse_query<S: QuerySource + ?Sized>(
    source: &S,
    ring: &Ring,
    subject: &str,
    expr: &str,
    object: &str,
) -> Result<RpqQuery, RpqError> {
    let expr = parser::parse(expr, &SourceResolver { source, ring }).map_err(RpqError::Parse)?;
    let term = |name: &str| {
        if name.starts_with('?') {
            return Ok(Term::Var);
        }
        source
            .node_id(name)
            .map(Term::Const)
            .ok_or_else(|| RpqError::UnknownNode(name.to_string()))
    };
    Ok(RpqQuery::new(term(subject)?, expr, term(object)?))
}

/// [`parse_query`] at `snapshot`, with the rule for a node the snapshot
/// does not hold: `None` when an endpoint names one — the answer is
/// empty, and there is nothing to evaluate.
pub fn resolve_query<S, T>(
    source: &S,
    snapshot: &T,
    subject: &str,
    expr: &str,
    object: &str,
) -> Result<Option<RpqQuery>, RpqError>
where
    S: QuerySource + ?Sized,
    T: TripleSource + ?Sized,
{
    let query = parse_query(source, snapshot.ring(), subject, expr, object)?;
    let universe = MergedView::new(snapshot).n_nodes();
    let held = |t: Term| !matches!(t, Term::Const(c) if c >= universe);
    Ok((held(query.subject) && held(query.object)).then_some(query))
}

/// `pairs` by name, sorted and distinct: how every name-level answer is
/// rendered. Ids the source cannot name print as decimal.
pub fn name_pairs<S: QuerySource + ?Sized>(
    source: &S,
    pairs: &[(Id, Id)],
) -> Vec<(String, String)> {
    let name = |id: Id| source.node_name(id).unwrap_or_else(|| id.to_string());
    let mut named: Vec<_> = pairs.iter().map(|&(s, o)| (name(s), name(o))).collect();
    named.sort_unstable();
    named.dedup();
    named
}
