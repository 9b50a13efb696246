//! The name-level updatable database: [`UpdatableDatabase`] wraps the
//! id-level [`ring::store::TripleStore`] (immutable ring + delta
//! overlay, atomic versioned snapshots) with dictionary handling,
//! N-Triples delta loading, and the same query API as [`RpqDatabase`].
//!
//! Life cycle: [`UpdatableDatabase::insert`] / [`UpdatableDatabase::delete`]
//! buffer triples (interning new names immediately — ids are stable and
//! append-only, even across compactions); [`UpdatableDatabase::commit`]
//! publishes them atomically under a new snapshot **epoch**; queries
//! capture one snapshot for their whole evaluation, so they never see a
//! half-applied batch; [`UpdatableDatabase::compact`] (or the size-ratio
//! auto-trigger, or a commit that introduces new predicate labels)
//! rebuilds the ring from ring ⊎ delta and swaps it in.
//!
//! On disk a database is the same `RRPQM01` file an immutable one is
//! ([`ring::mapped`]) — one ring, the committed overlay folded in, at the
//! snapshot's epoch — plus, opened durably, the write-ahead log of the
//! commits since (`<path>.wal`). Opening costs what
//! [`RpqDatabase::open`] costs plus a check of every section's checksum:
//! the base ring and both dictionaries stay in the mapping, commits look
//! triples up in the ring, and only the overlay, the write-ahead log's
//! tail and the names interned since the open live on the heap (a save
//! writes them into the file's dictionaries; nothing decodes the mapped
//! ones). A compaction — and a save with uncompacted commits — merges
//! the overlay into the ring's decoded `(o, s, p)` run and builds the
//! new ring from that ([`ring::store::StoreSnapshot::compacted`]).

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, RwLock};

use ring::delta::DeltaIndex;
use ring::mapped::OpenMode;
use ring::store::{StoreSnapshot, StoreStats, TripleStore, UpdateOp};
use ring::wal::{self, Wal, WalOp, WalState};
use ring::{Dict, Graph, Id, Ring, Triple};
use rpq_core::{EngineOptions, QueryOutput, RpqQuery, ScratchPool, SourceSnapshot};
use rpq_server::{source, QuerySource};

use crate::{refused, DbError, Dicts, RpqDatabase};

/// `snap` as a file holds it: one ring with the overlay folded in, over
/// universes as large as the dictionaries — append-only interning leaves
/// those larger than the store's whenever a name is used only by
/// uncommitted or deleted triples, and a file's dictionaries and ring
/// must agree ([`StoreSnapshot::compacted`]: a merge of the ring's run
/// with the overlay's, as a compaction makes). The store's own ring when
/// that is already it.
fn folded(snap: &StoreSnapshot, dicts: &Dicts) -> Arc<Ring> {
    let base = (snap.ring.n_nodes(), snap.ring.n_preds_base());
    let n_nodes = (dicts.nodes.len() as Id).max(base.0);
    let n_preds = (dicts.preds.len() as Id).max(base.1);
    if snap.delta.is_empty() && (n_nodes, n_preds) == base {
        return Arc::clone(&snap.ring);
    }
    Arc::new(snap.compacted(n_nodes, n_preds))
}

/// The durability side-car of a database opened with
/// [`UpdatableDatabase::open_durable`]: the open write-ahead log and the
/// snapshot path checkpoints rewrite.
struct DurableLog {
    wal: Wal,
    path: PathBuf,
}

/// The dictionaries and the operations buffered since the last commit,
/// under one lock: an insert or a delete interns or looks up its names
/// and buffers itself in one critical section. Each operation is kept
/// id-level, for the store, and as its write-ahead-log frame
/// ([`wal::encode_update`]), which a durable commit writes as it is; a
/// database without a log drops the frames at its commit.
struct Buffered {
    dicts: Dicts,
    ops: Vec<UpdateOp>,
    frames: Vec<u8>,
}

impl Buffered {
    fn push(&mut self, op: UpdateOp, (s, p, o): (&str, &str, &str)) {
        let insert = matches!(op, UpdateOp::Insert(_));
        self.ops.push(op);
        wal::encode_update(&mut self.frames, insert, s, p, o);
    }
}

/// A live-updatable RPQ database: the ring plus a delta overlay behind
/// snapshot-consistent queries, with name-level inserts and deletes.
///
/// ```
/// use ring_rpq::UpdatableDatabase;
///
/// let db = UpdatableDatabase::from_text("a p b\nb p c\n").unwrap();
/// db.insert("c", "p", "d");
/// db.delete("a", "p", "b");
/// db.commit();
/// let pairs = db.query("?x", "p+", "d").unwrap();
/// assert_eq!(pairs, vec![
///     ("b".to_string(), "d".to_string()),
///     ("c".to_string(), "d".to_string()),
/// ]);
/// ```
pub struct UpdatableDatabase {
    store: TripleStore,
    /// Readers take it to resolve names; inserts and deletes to buffer.
    buffered: RwLock<Buffered>,
    /// `Some` when opened via [`Self::open_durable`]. The mutex also
    /// serialises commits and checkpoints, so every committed op is
    /// WAL'd first; an operation buffered while a commit is in flight
    /// belongs to the next one. Lock order: `durable` before `buffered`
    /// — never the other way around.
    durable: Mutex<Option<DurableLog>>,
    /// Mask tables reused from query to query, across epochs: a commit
    /// or compaction that enlarges the index grows them in place.
    scratch: ScratchPool,
}

/// Updates go to a single-ring index: a sharded directory has no delta
/// overlay and no write-ahead log, and reading it as a snapshot file
/// would only say `Is a directory`.
fn refuse_sharded(path: &Path) -> std::io::Result<()> {
    if !ring::sharded::is_sharded_dir(path) {
        return Ok(());
    }
    Err(std::io::Error::new(
        std::io::ErrorKind::Unsupported,
        "sharded indexes are read-only: update the unsharded index (or the \
         triples it was built from) and rebuild with `build --shards <n>`",
    ))
}

impl UpdatableDatabase {
    /// Wraps an immutable database (consumes it; the ring is reused, not
    /// rebuilt — except for a sharded database, whose parts are decoded
    /// into one ring).
    ///
    /// # Panics
    /// Panics, for a sharded database, where [`RpqDatabase::graph`] does.
    pub fn from_database(db: RpqDatabase) -> Self {
        let parts = db
            .into_raw_parts()
            .unwrap_or_else(|e| panic!("the index does not decode to a graph: {e}"));
        Self::over(parts, 0)
    }

    /// The database over an index's parts, at `epoch`.
    fn over((ring, dicts): (Arc<Ring>, Dicts), epoch: u64) -> Self {
        Self {
            store: TripleStore::from_built(ring, DeltaIndex::empty(0), epoch),
            buffered: RwLock::new(Buffered {
                dicts,
                ops: Vec::new(),
                frames: Vec::new(),
            }),
            durable: Mutex::new(None),
            scratch: ScratchPool::default(),
        }
    }

    /// Builds from whitespace triple text (see [`RpqDatabase::from_text`]).
    pub fn from_text(text: &str) -> Result<Self, DbError> {
        RpqDatabase::from_text(text).map(Self::from_database)
    }

    /// Builds from N-Triples text (see [`RpqDatabase::from_ntriples`]).
    pub fn from_ntriples(text: &str) -> Result<Self, DbError> {
        RpqDatabase::from_ntriples(text).map(Self::from_database)
    }

    /// Reads a graph file, picking the parser by extension.
    pub fn from_graph_file(path: &Path) -> Result<Self, DbError> {
        RpqDatabase::from_graph_file(path).map(Self::from_database)
    }

    /// Replaces the auto-compaction trigger: rebuild when the committed
    /// overlay reaches `ratio × base edges` (`None` disables; the
    /// default is [`TripleStore::DEFAULT_AUTO_COMPACT_RATIO`]).
    pub fn with_auto_compact_ratio(mut self, ratio: Option<f64>) -> Self {
        self.store = self.store.with_auto_compact_ratio(ratio);
        self
    }

    /// The underlying id-level store.
    pub fn store(&self) -> &TripleStore {
        &self.store
    }

    /// Buffers the insertion of `(subject, predicate, object)`. Unknown
    /// names are interned immediately (ids are append-only and survive
    /// compaction); the triple becomes visible at the next
    /// [`Self::commit`]. Inserting a triple with a brand-new predicate
    /// makes that commit rebuild the ring (the succinct alphabet is
    /// fixed per build).
    pub fn insert(&self, subject: &str, predicate: &str, object: &str) {
        let mut buffered = self.buffered.write().unwrap();
        let dicts = &mut buffered.dicts;
        let t = Triple::new(
            dicts.nodes.intern(subject),
            dicts.preds.intern(predicate),
            dicts.nodes.intern(object),
        );
        buffered.push(UpdateOp::Insert(t), (subject, predicate, object));
    }

    /// Buffers the deletion of `(subject, predicate, object)`. Returns
    /// `false` (and buffers nothing) when a name is unknown — such a
    /// triple cannot be live.
    pub fn delete(&self, subject: &str, predicate: &str, object: &str) -> bool {
        let mut buffered = self.buffered.write().unwrap();
        let dicts = &buffered.dicts;
        let (Some(s), Some(p), Some(o)) = (
            dicts.nodes.get(subject),
            dicts.preds.get(predicate),
            dicts.nodes.get(object),
        ) else {
            return false;
        };
        let t = Triple::new(s, p, o);
        buffered.push(UpdateOp::Delete(t), (subject, predicate, object));
        true
    }

    /// Buffers every triple of a whitespace triple-text block as inserts.
    /// Returns the number of triples buffered.
    pub fn insert_text(&self, text: &str) -> Result<usize, DbError> {
        self.apply_text(text, true)
    }

    /// Buffers every triple of a whitespace triple-text block as deletes.
    pub fn delete_text(&self, text: &str) -> Result<usize, DbError> {
        self.apply_text(text, false)
    }

    fn apply_text(&self, text: &str, is_insert: bool) -> Result<usize, DbError> {
        let (graph, nodes, preds) = Graph::parse_text(text).map_err(DbError::Graph)?;
        Ok(self.apply_parsed(&graph, &nodes, &preds, is_insert))
    }

    /// Buffers every triple of an N-Triples block as inserts — the delta
    /// counterpart of [`RpqDatabase::from_ntriples`]. Returns the number
    /// of triples buffered.
    pub fn insert_ntriples(&self, text: &str) -> Result<usize, DbError> {
        self.apply_ntriples(text, true)
    }

    /// Buffers every triple of an N-Triples block as deletes.
    pub fn delete_ntriples(&self, text: &str) -> Result<usize, DbError> {
        self.apply_ntriples(text, false)
    }

    fn apply_ntriples(&self, text: &str, is_insert: bool) -> Result<usize, DbError> {
        let (graph, nodes, preds) =
            ring::ntriples::parse_ntriples(text).map_err(|e| DbError::Graph(e.to_string()))?;
        Ok(self.apply_parsed(&graph, &nodes, &preds, is_insert))
    }

    fn apply_parsed(&self, graph: &Graph, nodes: &Dict, preds: &Dict, is_insert: bool) -> usize {
        let mut n = 0;
        for t in graph.triples() {
            let s = nodes.name(t.s);
            let p = preds.name(t.p);
            let o = nodes.name(t.o);
            if is_insert {
                self.insert(&s, &p, &o);
                n += 1;
            } else if self.delete(&s, &p, &o) {
                n += 1;
            }
        }
        n
    }

    /// Atomically commits the buffered operations under a new epoch (see
    /// [`TripleStore::commit`] for the rebuild and auto-compaction
    /// rules). Returns the resulting epoch.
    ///
    /// On a database opened with [`Self::open_durable`] this is the
    /// infallible convenience form of [`Self::commit_durable`]: if the
    /// write-ahead log cannot be fsynced the commit is **not published**
    /// (acknowledging an update the log does not hold would defeat the
    /// WAL) — a warning is printed and the epoch stays put, with the
    /// buffered ops retained for a retry.
    pub fn commit(&self) -> u64 {
        match self.commit_durable() {
            Ok(epoch) => epoch,
            Err(err) => {
                eprintln!("warning: commit not published, WAL append failed: {err}");
                self.store.epoch()
            }
        }
    }

    /// [`Self::commit`] with the durability error surfaced: appends the
    /// buffered ops' frames plus a commit marker to the write-ahead log
    /// and fsyncs **before** publishing the new epoch, so an acknowledged
    /// commit survives a crash. On a non-durable database this is
    /// [`TripleStore::commit`] of the buffered ops and cannot fail.
    pub fn commit_durable(&self) -> std::io::Result<u64> {
        let mut durable = self.durable.lock().unwrap();
        let (mut ops, mut frames) = {
            let mut buffered = self.buffered.write().unwrap();
            let buffered = &mut *buffered;
            (
                std::mem::take(&mut buffered.ops),
                std::mem::take(&mut buffered.frames),
            )
        };
        if let Some(log) = durable.as_mut().filter(|_| !ops.is_empty()) {
            let next = self.store.epoch() + 1;
            if let Err(err) = log.wal.append_frames(&mut frames, next) {
                // Keep the batch, ahead of what was buffered since, for a
                // retry.
                let mut buffered = self.buffered.write().unwrap();
                ops.append(&mut buffered.ops);
                frames.append(&mut buffered.frames);
                (buffered.ops, buffered.frames) = (ops, frames);
                return Err(err);
            }
        }
        self.store.apply(ops);
        Ok(self.store.commit())
    }

    /// Rebuilds the ring from ring ⊎ delta and swaps it in. Returns the
    /// resulting epoch.
    pub fn compact(&self) -> u64 {
        self.store.compact()
    }

    /// The current snapshot epoch.
    pub fn epoch(&self) -> u64 {
        self.store.epoch()
    }

    /// Buffered, uncommitted operations.
    pub fn pending_ops(&self) -> usize {
        self.stats().pending_ops
    }

    /// Live update counters; `pending_ops` counts the operations buffered
    /// here as well as any buffered in [`Self::store`] directly.
    pub fn stats(&self) -> StoreStats {
        let mut stats = self.store.stats();
        stats.pending_ops += self.buffered.read().unwrap().ops.len();
        stats
    }

    /// Folds the overlay and unwraps into an immutable [`RpqDatabase`]
    /// (buffered, uncommitted operations are committed first), whose
    /// dictionaries take the names interned since into their bases.
    pub fn into_database(self) -> RpqDatabase {
        let Buffered { dicts, ops, .. } = self.buffered.into_inner().unwrap();
        self.store.apply(ops);
        self.store.commit();
        let snap = self.store.snapshot();
        let source = SourceSnapshot::immutable(folded(&snap, &dicts));
        RpqDatabase::from_source(source, dicts.nodes, dicts.preds)
    }

    /// Parses endpoints and expression into an id-level [`RpqQuery`]
    /// against the current snapshot's alphabet
    /// ([`rpq_server::source::parse_query`]). A label interned for an
    /// uncommitted insert is unknown; a node interned for one resolves
    /// to its id, which the snapshot does not hold yet (the id-level
    /// engine refuses it).
    pub fn parse_query(
        &self,
        subject: &str,
        expr: &str,
        object: &str,
    ) -> Result<RpqQuery, DbError> {
        let ring = &self.store.snapshot().ring;
        source::parse_query(self, ring, subject, expr, object).map_err(refused)
    }

    /// Evaluates a query against the current snapshot, returning name
    /// pairs sorted lexicographically and distinct. Concurrent commits
    /// never tear the answer: the whole evaluation runs against the
    /// snapshot captured here.
    pub fn query(
        &self,
        subject: &str,
        expr: &str,
        object: &str,
    ) -> Result<Vec<(String, String)>, DbError> {
        let out = self.query_with(subject, expr, object, &EngineOptions::default())?;
        Ok(source::name_pairs(self, &out.pairs))
    }

    /// Evaluates with explicit options, returning the raw id-level
    /// output (snapshot-consistent, like [`Self::query`]). A node
    /// interned for an uncommitted insert is absent from the snapshot:
    /// its answer is empty.
    pub fn query_with(
        &self,
        subject: &str,
        expr: &str,
        object: &str,
        opts: &EngineOptions,
    ) -> Result<QueryOutput, DbError> {
        let snap = self.store.snapshot();
        let query = source::resolve_query(self, &*snap, subject, expr, object);
        let Some(query) = query.map_err(refused)? else {
            return Ok(QueryOutput::default());
        };
        self.scratch
            .evaluate(&*snap, query, opts)
            .map_err(DbError::Query)
    }

    /// Persists the committed state as an `RRPQM01` file
    /// ([`ring::mapped`]) holding the snapshot's epoch: one ring over the
    /// dictionaries' universes, a non-empty overlay folded into it (for
    /// the file only: the database keeps its overlay and its epoch).
    /// Buffered, *uncommitted* operations are not saved. The write is
    /// atomic — a temp file in the same directory is fsynced and renamed
    /// over `path`, so a crashed save leaves the previous file intact,
    /// and a snapshot still mapped from the previous file keeps reading
    /// it — and every section carries a CRC32C that [`Self::load`]
    /// verifies. On a [`Self::open_durable`] database, saving to the
    /// opened path is a **checkpoint**: the write-ahead log is rotated
    /// back to empty once the snapshot covers it.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        // Hold the durability lock across snapshot → write → rotate so
        // no commit can slip between the persisted snapshot and the
        // log truncation (its ops would vanish from both).
        let mut durable = self.durable.lock().unwrap();
        let snap = self.store.snapshot();
        let dicts = &self.buffered.read().unwrap().dicts;
        let ring = folded(&snap, dicts);
        ring::mapped::write_index_at(path, &ring, &dicts.nodes, &dicts.preds, snap.epoch)?;
        if let Some(state) = durable.as_mut() {
            if state.path == path {
                state.wal.rotate(snap.epoch)?;
            }
        }
        Ok(())
    }

    /// For a durable database ([`Self::open_durable`]): re-saves the
    /// snapshot to the opened path and rotates the write-ahead log,
    /// bounding future replay work. Returns the checkpointed epoch.
    /// Errors with [`std::io::ErrorKind::Unsupported`] when the database
    /// was not opened durably.
    pub fn checkpoint(&self) -> std::io::Result<u64> {
        let path = match self.durable.lock().unwrap().as_ref() {
            Some(state) => state.path.clone(),
            None => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::Unsupported,
                    "checkpoint on a database without a write-ahead log",
                ))
            }
        };
        self.save(&path)?;
        Ok(self.store.epoch())
    }

    /// Whether this database was opened with [`Self::open_durable`] and
    /// is write-ahead logging its commits.
    pub fn is_durable(&self) -> bool {
        self.durable.lock().unwrap().is_some()
    }

    /// Loads a database persisted by [`Self::save`] or
    /// [`RpqDatabase::save_mapped`], at the epoch the file holds (0 for
    /// an index nothing was ever committed to). The file is mapped where
    /// the platform allows and every section is checked against its
    /// CRC32C; nothing is decoded. A sharded index directory is refused
    /// with [`std::io::ErrorKind::Unsupported`] (sharded indexes are
    /// read-only), and so is a file in a format this build no longer
    /// reads (see [`RpqDatabase::open`]).
    pub fn load(path: &Path) -> std::io::Result<Self> {
        refuse_sharded(path)?;
        let idx = ring::mapped::open_index_verified(path, OpenMode::Auto)?;
        let dicts = Dicts {
            nodes: idx.nodes,
            preds: idx.preds,
        };
        Ok(Self::over((Arc::new(idx.ring), dicts), idx.epoch))
    }

    /// The write-ahead-log sibling of a snapshot file: `<path>.wal`.
    pub fn wal_path(path: &Path) -> PathBuf {
        ring::wal::path_beside(path)
    }

    /// Opens a saved database **durably**: recovers the `<path>.wal`
    /// write-ahead log by the rules of [`ring::wal::WalState`] (creating
    /// a fresh one when absent or torn mid-rotation, truncating a torn
    /// tail), replays every committed batch the snapshot may be missing,
    /// and from then on write-ahead logs each [`Self::commit`] so
    /// acknowledged updates survive a crash. [`Self::save`] to the same
    /// path (or [`Self::checkpoint`]) rotates the log.
    ///
    /// The caller becomes the file's writer, so the orphaned temp files
    /// of an interrupted earlier save are removed first
    /// ([`ring::durable::cleanup_orphans`]); no save of `path` may be
    /// running. Read-only opens leave them alone.
    ///
    /// Replay is idempotent (the last op on a triple wins), so batches
    /// the snapshot already folded in are harmless; a log whose base
    /// epoch is *ahead* of the snapshot is rejected — it belongs to a
    /// newer snapshot that was lost or rolled back.
    pub fn open_durable(path: &Path) -> std::io::Result<Self> {
        // Before recovery touches anything next to it.
        refuse_sharded(path)?;
        let orphans = ring::durable::cleanup_orphans(path);
        if orphans > 0 {
            eprintln!(
                "recovery: removed {orphans} orphaned temp file(s) from an interrupted save of {}",
                path.display()
            );
        }
        let db = Self::load(path)?;
        let wal_path = Self::wal_path(path);
        let (wal, state) = Wal::open(&wal_path, db.epoch())?;
        match state {
            WalState::TornRotation { bytes } => eprintln!(
                "recovery: {} torn during log rotation ({bytes} byte(s)); starting a fresh log",
                wal_path.display()
            ),
            WalState::Log(recovery) => {
                if recovery.truncated_bytes > 0 {
                    eprintln!(
                        "recovery: truncated {} byte(s) of torn tail from {}",
                        recovery.truncated_bytes,
                        wal_path.display()
                    );
                }
                let snapshot_epoch = db.epoch();
                let replay = || recovery.batches_past(snapshot_epoch);
                let ops: usize = replay().map(|batch| batch.ops.len()).sum();
                if ops > 0 {
                    // Replay through the normal name-level path (the WAL
                    // is not attached yet, so nothing is re-logged);
                    // dictionary interning is deterministic, reproducing
                    // the ids.
                    for batch in replay() {
                        for op in &batch.ops {
                            match op {
                                WalOp::Insert { s, p, o } => db.insert(s, p, o),
                                WalOp::Delete { s, p, o } => {
                                    db.delete(s, p, o);
                                }
                            }
                        }
                        db.commit_durable()?;
                    }
                    eprintln!(
                        "recovery: replayed {ops} op(s) in {} committed batch(es) from {}",
                        replay().count(),
                        wal_path.display()
                    );
                }
            }
            WalState::Absent | WalState::AheadOfSnapshot { .. } => {}
        }
        *db.durable.lock().unwrap() = Some(DurableLog {
            wal,
            path: path.to_path_buf(),
        });
        Ok(db)
    }

    /// Starts a concurrent query server over this live database (see
    /// [`rpq_server::RpqServer`]): queries capture a snapshot epoch at
    /// submit time, caches are epoch-keyed and dropped on epoch bumps,
    /// and commits through the returned server's
    /// [`source`](rpq_server::RpqServer::source) are safe while queries
    /// run. Unusable configurations (zero workers without
    /// admission-only) are rejected with
    /// [`rpq_server::RpqError::InvalidConfig`].
    pub fn into_server(
        self,
        config: rpq_server::ServerConfig,
    ) -> Result<rpq_server::RpqServer, rpq_server::RpqError> {
        rpq_server::RpqServer::start(Arc::new(self), config)
    }
}

impl QuerySource for UpdatableDatabase {
    fn snapshot(&self) -> SourceSnapshot {
        SourceSnapshot::from_store(&self.store.snapshot())
    }

    fn node_id(&self, name: &str) -> Option<Id> {
        self.buffered.read().unwrap().dicts.nodes.get(name)
    }

    fn node_name(&self, id: Id) -> Option<String> {
        self.buffered.read().unwrap().dicts.node_name(id)
    }

    fn pred_id(&self, name: &str) -> Option<Id> {
        self.buffered.read().unwrap().dicts.preds.get(name)
    }

    fn update_stats(&self) -> Option<StoreStats> {
        Some(self.stats())
    }

    fn checkpoint(&self) -> Option<std::io::Result<u64>> {
        self.is_durable().then(|| self.checkpoint())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_delete_commit_roundtrip() {
        let db = UpdatableDatabase::from_text("a p b\nb p c\n")
            .unwrap()
            .with_auto_compact_ratio(None);
        db.insert("c", "p", "d");
        db.delete("a", "p", "b");
        assert_eq!(db.pending_ops(), 2);
        // Invisible before commit.
        assert_eq!(
            db.query("?x", "p", "?y").unwrap(),
            vec![("a".into(), "b".into()), ("b".into(), "c".into())]
        );
        assert_eq!(db.commit(), 1);
        assert_eq!(
            db.query("?x", "p", "?y").unwrap(),
            vec![("b".into(), "c".into()), ("c".into(), "d".into())]
        );
        // Inverse steps see the delta too.
        assert_eq!(
            db.query("d", "^p", "?y").unwrap(),
            vec![("d".into(), "c".into())]
        );
    }

    #[test]
    fn new_predicates_rebuild_and_resolve() {
        let db = UpdatableDatabase::from_text("a p b\n").unwrap();
        db.insert("b", "q", "c");
        db.commit();
        assert_eq!(
            db.query("a", "p/q", "?y").unwrap(),
            vec![("a".into(), "c".into())]
        );
        assert!(db.store().snapshot().delta.is_empty());
    }

    #[test]
    fn uncommitted_nodes_answer_empty_not_error() {
        let db = UpdatableDatabase::from_text("a p b\n").unwrap();
        db.insert("zzz", "p", "a"); // interns zzz, not committed
        assert_eq!(db.query("zzz", "p", "?y").unwrap(), vec![]);
        assert!(matches!(
            db.query("never-seen", "p", "?y"),
            Err(DbError::UnknownNode(_))
        ));
        db.commit();
        assert_eq!(
            db.query("zzz", "p", "?y").unwrap(),
            vec![("zzz".into(), "a".into())]
        );
    }

    /// A label only an uncommitted insert has used is unknown until the
    /// commit: its dictionary id is, in the current snapshot's completed
    /// alphabet, the inverse of another label (regression: `q` answered
    /// with the edges of `^p`).
    #[test]
    fn uncommitted_labels_are_unknown_not_inverses() {
        let db = UpdatableDatabase::from_text("a p b\n").unwrap();
        db.insert("b", "q", "a");
        assert!(matches!(db.query("?x", "q", "?y"), Err(DbError::Parse(_))));
        db.commit();
        assert_eq!(
            db.query("?x", "q", "?y").unwrap(),
            vec![("b".into(), "a".into())]
        );
    }

    #[test]
    fn compaction_preserves_answers_and_names() {
        let db = UpdatableDatabase::from_text("a p b\nb p c\nc q a\n")
            .unwrap()
            .with_auto_compact_ratio(None);
        db.delete("b", "p", "c");
        db.insert("c", "p", "a");
        db.commit();
        let before = db.query("?x", "p+", "?y").unwrap();
        db.compact();
        assert_eq!(db.query("?x", "p+", "?y").unwrap(), before);
        assert!(db.store().snapshot().delta.is_empty());
    }

    /// Eight threads query through `&self` while the main thread commits
    /// between their rounds (growing the node universe, then compacting)
    /// and buffers the next batch during them. Every answer equals what a
    /// single-threaded twin replaying the same batches returns, and the
    /// pool carries at most one scratch per reader across all epochs.
    #[test]
    fn concurrent_queries_across_commits_and_a_compaction() {
        const READERS: usize = 8;
        const PHASES: usize = 5;
        let mut text = String::new();
        for i in 0..60u32 {
            text.push_str(&format!("n{i} p n{}\n", (i * 7 + 1) % 60));
            text.push_str(&format!("n{i} q n{}\n", (i * 11 + 3) % 60));
        }
        let open = || {
            UpdatableDatabase::from_text(&text)
                .unwrap()
                .with_auto_compact_ratio(None)
        };
        // Batch `k` hangs ten new nodes off the graph and removes a few
        // base edges.
        let buffer_batch = |db: &UpdatableDatabase, k: usize| {
            for j in 0..10 {
                let fresh = format!("m{k}_{j}");
                db.insert(&format!("n{}", (k * 10 + j) % 60), "p", &fresh);
                db.insert(&fresh, "q", &format!("n{}", (j * 5 + k) % 60));
            }
            let i = (k * 13) % 60;
            db.delete(&format!("n{i}"), "p", &format!("n{}", (i * 7 + 1) % 60));
        };
        let publish = |db: &UpdatableDatabase, k: usize| {
            if k == 3 {
                db.commit();
                db.compact();
            } else if k > 0 {
                db.commit();
            }
        };
        let queries = [
            ("n0", "p+", "?y"),
            ("?x", "(p|q)+", "n5"),
            ("?x", "p/q", "?y"),
            ("?x", "^q/p*", "n7"),
            ("n2", "(p|^q)+", "?y"),
        ];

        let twin = open();
        let mut expected = Vec::new();
        for k in 0..PHASES {
            publish(&twin, k);
            expected.push(
                queries
                    .iter()
                    .map(|(s, e, o)| twin.query(s, e, o).unwrap())
                    .collect::<Vec<_>>(),
            );
            buffer_batch(&twin, k);
        }
        assert_eq!(twin.scratch.pooled(), 1);
        assert_ne!(expected[0], expected[PHASES - 1]);

        let db = open();
        let gate = std::sync::Barrier::new(READERS + 1);
        // Readers report mismatches instead of panicking: a reader that
        // died mid-phase would leave the others waiting at the gate.
        let mismatches: Vec<String> = std::thread::scope(|scope| {
            let readers: Vec<_> = (0..READERS)
                .map(|t| {
                    let (db, gate, expected) = (&db, &gate, &expected);
                    scope.spawn(move || {
                        let mut bad = Vec::new();
                        for (k, want) in expected.iter().enumerate() {
                            gate.wait(); // phase k is published
                            for round in 0..queries.len() {
                                let i = (t + round) % queries.len();
                                let (s, e, o) = queries[i];
                                let got = db.query(s, e, o);
                                if got.as_ref() != Ok(&want[i]) {
                                    bad.push(format!(
                                        "reader {t}, phase {k}, {s} {e} {o}: {got:?}"
                                    ));
                                }
                            }
                            gate.wait(); // every reader is done with phase k
                        }
                        bad
                    })
                })
                .collect();
            for k in 0..PHASES {
                publish(&db, k);
                gate.wait();
                // Uncommitted: interns names under the readers' feet but
                // changes no answer.
                buffer_batch(&db, k);
                gate.wait();
            }
            readers
                .into_iter()
                .flat_map(|r| r.join().expect("readers do not panic"))
                .collect()
        });
        assert!(mismatches.is_empty(), "{mismatches:#?}");
        let pooled = db.scratch.pooled();
        assert!(
            (1..=READERS).contains(&pooled),
            "{pooled} scratches pooled after {READERS} concurrent readers"
        );
    }

    #[test]
    fn ntriples_delta_loading() {
        let db = UpdatableDatabase::from_ntriples("<a> <p> <b> .\n<b> <p> <c> .\n").unwrap();
        let n = db.insert_ntriples("<c> <p> <d> .\n").unwrap();
        assert_eq!(n, 1);
        let n = db
            .delete_ntriples("<a> <p> <b> .\n<x> <p> <y> .\n")
            .unwrap();
        assert_eq!(n, 1); // unknown names cannot be live
        db.commit();
        assert_eq!(
            db.query("?x", "<p>", "?y").unwrap(),
            vec![("<b>".into(), "<c>".into()), ("<c>".into(), "<d>".into())]
        );
    }

    #[test]
    fn save_load_roundtrip_with_delta() {
        let dir = std::env::temp_dir().join(format!("rpq-updatable-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("live.db");
        let db = UpdatableDatabase::from_text("a p b\nb p c\n")
            .unwrap()
            .with_auto_compact_ratio(None);
        db.insert("c", "p", "d");
        db.delete("a", "p", "b");
        db.commit();
        db.save(&path).unwrap();
        // The overlay is folded into the file, not out of the database.
        assert_eq!(db.epoch(), 1);
        assert!(!db.store().snapshot().delta.is_empty());
        let back = UpdatableDatabase::load(&path).unwrap();
        assert_eq!(back.epoch(), 1);
        assert!(back.store().snapshot().delta.is_empty());
        assert_eq!(
            back.query("?x", "p+", "?y").unwrap(),
            db.query("?x", "p+", "?y").unwrap()
        );
        // Every saved database is an index the immutable API opens.
        let plain = RpqDatabase::open(&path).unwrap();
        assert_eq!(
            plain.query("?x", "p+", "?y").unwrap(),
            db.query("?x", "p+", "?y").unwrap()
        );
        db.compact();
        db.save(&path).unwrap();
        assert_eq!(UpdatableDatabase::load(&path).unwrap().epoch(), 2);
        std::fs::remove_file(&path).ok();
    }

    /// A loaded database reads its base from the file until a compaction
    /// rewrites the ring: the ring's arrays stay there through queries,
    /// deletes, inserts and their commits, and so do both dictionaries'
    /// bases, compaction or not. An insert that names a new node puts
    /// that name on the heap, and nothing of the base.
    #[test]
    fn a_loaded_store_stays_mapped_until_it_is_written_to() {
        let dir = std::env::temp_dir().join(format!("rpq-updatable-mapped-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("live.db");
        UpdatableDatabase::from_text("a p b\nb p c\nc q a\n")
            .unwrap()
            .save(&path)
            .unwrap();
        let db = UpdatableDatabase::load(&path)
            .unwrap()
            .with_auto_compact_ratio(None);
        let dict_heap_bytes = |db: &UpdatableDatabase| {
            let dicts = &db.buffered.read().unwrap().dicts;
            (dicts.nodes.heap_bytes(), dicts.preds.heap_bytes())
        };
        let ring_heap_bytes = |db: &UpdatableDatabase| db.store().snapshot().ring.heap_bytes();
        let nothing_new = Dict::new().heap_bytes();
        let mut d_alone = Dict::new();
        d_alone.intern("d");
        assert_eq!(dict_heap_bytes(&db), (nothing_new, nothing_new));
        assert_eq!(ring_heap_bytes(&db), 0);

        assert_eq!(db.query("a", "p+", "?y").unwrap().len(), 2);
        assert!(db.delete("a", "p", "b"));
        db.commit();
        assert_eq!(db.query("a", "p+", "?y").unwrap(), vec![]);
        assert_eq!(dict_heap_bytes(&db), (nothing_new, nothing_new));
        assert_eq!(ring_heap_bytes(&db), 0);

        db.insert("c", "p", "d");
        db.commit();
        let only_d = (d_alone.heap_bytes(), nothing_new);
        assert_eq!(dict_heap_bytes(&db), only_d, "the base stays in the file");
        assert_eq!(ring_heap_bytes(&db), 0, "commits leave the base ring alone");
        assert_eq!(
            db.query("?x", "p", "?y").unwrap(),
            vec![("b".into(), "c".into()), ("c".into(), "d".into())]
        );
        db.compact();
        assert!(
            ring_heap_bytes(&db) > 0,
            "a compaction builds the ring anew"
        );
        assert_eq!(dict_heap_bytes(&db), only_d, "and leaves the dictionaries");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Append-only dictionaries legitimately outgrow the committed
    /// graph — names interned by uncommitted triples, or nodes whose
    /// edges were committed and later deleted — and save/load must
    /// round-trip anyway: the file's ring is built over the
    /// dictionaries' universes (regression: both cases once produced
    /// files the loaders rejected with size-mismatch errors).
    #[test]
    fn oversized_dictionaries_survive_save_load() {
        let dir = std::env::temp_dir().join(format!("rpq-updatable-dicts-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();

        // Case 1: a brand-new predicate interned but never committed.
        let path = dir.join("pred.db");
        let db = UpdatableDatabase::from_text("a p b\n")
            .unwrap()
            .with_auto_compact_ratio(None);
        db.insert("a", "newpred", "b"); // buffered only
        db.save(&path).unwrap();
        let back = UpdatableDatabase::load(&path).unwrap();
        assert_eq!(
            back.query("?x", "p", "?y").unwrap(),
            vec![("a".into(), "b".into())]
        );

        // Case 2: new nodes interned, committed, then deleted away — the
        // delta cancels to empty while the dicts keep the names; the
        // saved file must stay loadable.
        let path = dir.join("node.db");
        let db = UpdatableDatabase::from_text("a p b\n")
            .unwrap()
            .with_auto_compact_ratio(None);
        db.insert("x", "p", "y");
        db.commit();
        db.delete("x", "p", "y");
        db.commit();
        assert!(db.store().snapshot().delta.is_empty());
        db.save(&path).unwrap();
        let back = UpdatableDatabase::load(&path).unwrap();
        assert_eq!(
            back.query("?x", "p", "?y").unwrap(),
            vec![("a".into(), "b".into())]
        );
        // The vanished node's name still resolves — to an empty answer.
        assert_eq!(back.query("x", "p", "?y").unwrap(), vec![]);

        // Case 3: the same names through `into_database` — the path an
        // index takes to an immutable file (regression: `save_mapped`
        // wrote a file `open` refused with `node dictionary size
        // mismatch`, 5 names over a ring universe of 3).
        let path = dir.join("folded.rpqm");
        let db = UpdatableDatabase::from_text("a p b\nb p c\n").unwrap();
        db.insert("x", "p", "y");
        db.delete("x", "p", "y");
        db.commit();
        let folded = db.into_database();
        assert_eq!(folded.ring().n_nodes(), 5);
        folded.save_mapped(&path).unwrap();
        let back = RpqDatabase::open(&path).unwrap();
        assert_eq!(back.nodes().len(), 5);
        assert_eq!(
            back.query("?x", "p", "?y").unwrap(),
            vec![("a".into(), "b".into()), ("b".into(), "c".into())]
        );
        assert_eq!(back.query("x", "p", "?y").unwrap(), vec![]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn serves_live_updates_through_the_server() {
        use rpq_server::{RpqServer, ServerConfig};
        // Writers keep their own `Arc` handle; the server shares it.
        let db = Arc::new(UpdatableDatabase::from_text("a p b\nb p c\n").unwrap());
        let server = RpqServer::start(
            Arc::clone(&db) as Arc<dyn rpq_server::QuerySource>,
            ServerConfig {
                workers: 2,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let answer = server.query_blocking("a", "p+", "?y").unwrap();
        assert_eq!(
            server.resolve_pairs(&answer),
            vec![("a".into(), "b".into()), ("a".into(), "c".into())]
        );
        // Commit through the writer handle; later queries see the new
        // epoch, and the metrics JSON reports the commit.
        db.insert("c", "p", "d");
        db.commit();
        let answer = server.query_blocking("a", "p+", "?y").unwrap();
        assert_eq!(
            server.resolve_pairs(&answer),
            vec![
                ("a".into(), "b".into()),
                ("a".into(), "c".into()),
                ("a".into(), "d".into())
            ]
        );
        let metrics = server.metrics_json();
        assert!(metrics.contains("\"commits\":1"), "{metrics}");
        server.shutdown();
    }

    #[test]
    fn database_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<UpdatableDatabase>();
    }
}
