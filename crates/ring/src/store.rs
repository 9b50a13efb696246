//! The id-level updatable triple store: an immutable ring plus a
//! committed [`DeltaIndex`] overlay behind atomic, versioned snapshots.
//!
//! LSM-style life cycle: [`TripleStore::insert`]/[`TripleStore::delete`]
//! buffer operations; [`TripleStore::commit`] merges the buffer into a new
//! immutable delta and publishes a new [`StoreSnapshot`] under an `Arc`
//! (readers that captured the previous snapshot keep evaluating against
//! it — no torn reads); [`TripleStore::compact`] rebuilds the ring from
//! ring ⊎ delta and swaps it in. Every publication bumps the snapshot
//! **epoch**, the value caches key their entries by.
//!
//! What the write path costs: a commit of `b` operations over an overlay
//! of `|δ|` entries is `O(b log b + |δ|)` — the batch is sorted, the
//! overlay only merged (see [`crate::delta`]); a compaction is one
//! two-pointer merge of base and overlay plus one [`Ring::build`]. Both
//! run on the calling thread, outside the lock readers take.
//!
//! Node and predicate ids are stable forever: compaction preserves the
//! id universes (a node keeps its id even if all its edges are deleted),
//! and new nodes extend the universe monotonically. Inserts may mention
//! predicates beyond the ring's base alphabet; since the succinct index
//! has a fixed completed alphabet, such a commit performs an immediate
//! rebuild (counted as both a commit and a compaction).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};
use std::time::Instant;

use crate::delta::{DeltaIndex, SideChange};
use crate::ring::RingOptions;
use crate::{Graph, Id, Ring, Triple};

/// One buffered update operation (canonical, base-alphabet labels).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UpdateOp {
    /// Add the triple (a no-op if it is already live).
    Insert(Triple),
    /// Remove the triple (a no-op if it is not live).
    Delete(Triple),
}

/// A consistent, immutable view of the store at one epoch. Cheap to
/// clone (four `Arc`s); queries hold one for their whole evaluation.
#[derive(Clone, Debug)]
pub struct StoreSnapshot {
    /// The base (uncompleted) graph the ring was built from.
    pub graph: Arc<Graph>,
    /// The succinct index over the completed base graph.
    pub ring: Arc<Ring>,
    /// The committed overlay (possibly empty).
    pub delta: Arc<DeltaIndex>,
    /// The snapshot version; bumped by every commit and compaction.
    pub epoch: u64,
}

impl StoreSnapshot {
    /// The evaluation node universe: ring nodes plus any delta-introduced
    /// nodes.
    pub fn n_nodes(&self) -> Id {
        self.ring.n_nodes().max(self.delta.n_nodes())
    }

    /// Whether the completed-alphabet edge `(s, p, o)` is live at this
    /// snapshot.
    pub fn contains(&self, s: Id, p: Id, o: Id) -> bool {
        if self.delta.del_contains(s, p, o) {
            return false;
        }
        self.delta.add_contains(s, p, o) || self.ring.contains(s, p, o)
    }

    /// The live canonical triples (base − deletes + adds), sorted: one
    /// two-pointer merge, all three inputs being `(s, p, o)`-sorted with
    /// the deletes a subset of the base and the adds disjoint from it.
    /// `O(base + delta)`; compaction and tests use this, not queries.
    pub fn live_triples(&self) -> Vec<Triple> {
        let base = self.graph.triples();
        let (adds, dels) = (self.delta.adds(), self.delta.dels());
        let mut live = Vec::with_capacity((base.len() + adds.len()).saturating_sub(dels.len()));
        let mut adds = adds.iter().peekable();
        let mut dels = dels.iter().peekable();
        for t in base {
            while let Some(a) = adds.next_if(|a| *a < t) {
                live.push(*a);
            }
            if dels.next_if_eq(&t).is_none() {
                live.push(*t);
            }
        }
        live.extend(adds);
        live
    }
}

/// Live update counters a serving layer exports as metrics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Current snapshot epoch.
    pub epoch: u64,
    /// Committed batches since construction.
    pub commits: u64,
    /// Ring rebuilds (explicit `compact`, auto-compactions, and
    /// alphabet-extending commits).
    pub compactions: u64,
    /// Nanoseconds commits spent merging their batch into the overlay
    /// and publishing it, since construction; the rebuild a commit
    /// triggers is counted in `compact_ns` instead.
    pub commit_ns: u64,
    /// Nanoseconds spent in ring rebuilds, since construction: the
    /// stall `compactions` times over.
    pub compact_ns: u64,
    /// Added triples in the current committed delta.
    pub delta_adds: usize,
    /// Tombstoned triples in the current committed delta.
    pub delta_deletes: usize,
    /// Buffered, not-yet-committed operations.
    pub pending_ops: usize,
}

/// The distinct triples of a batch in `(s, p, o)` order, each with
/// whether its last operation inserts it: applied in order, only the
/// last operation on a triple decides whether it is live.
fn last_ops(batch: &[UpdateOp]) -> impl Iterator<Item = (Triple, bool)> {
    let mut ops: Vec<(Triple, bool)> = batch
        .iter()
        .map(|op| match *op {
            UpdateOp::Insert(t) => (t, true),
            UpdateOp::Delete(t) => (t, false),
        })
        .collect();
    // Stable: a triple's operations stay in batch order.
    ops.sort_by_key(|&(t, _)| t);
    let mut ops = ops.into_iter().peekable();
    std::iter::from_fn(move || loop {
        let op = ops.next()?;
        if ops.peek().is_none_or(|next| next.0 != op.0) {
            return Some(op);
        }
    })
}

struct Inner {
    snap: Arc<StoreSnapshot>,
    pending: Vec<UpdateOp>,
}

/// The updatable database core. All methods take `&self`. Writers
/// ([`Self::commit`], [`Self::compact`]) are serialized on a mutex of
/// their own and build the next snapshot outside the reader–writer lock,
/// which is held only to buffer an operation, to take the buffer, to
/// clone the snapshot `Arc` and to swap it: neither a commit nor a ring
/// rebuild blocks [`Self::snapshot`], [`Self::epoch`] or [`Self::stats`]
/// for longer than a pointer swap. Operations buffered while a commit is
/// in flight belong to the next one.
pub struct TripleStore {
    inner: RwLock<Inner>,
    /// Held by the one writer deriving the next snapshot; only its holder
    /// replaces `inner.snap`.
    writer: Mutex<()>,
    /// Auto-compaction trigger: rebuild when `delta.len() ≥ ratio ·
    /// max(1, base edges)` after a commit. `None` disables.
    auto_compact_ratio: Option<f64>,
    commits: AtomicU64,
    compactions: AtomicU64,
    commit_ns: AtomicU64,
    compact_ns: AtomicU64,
    /// Called when a ring rebuild starts, with no lock but `writer` held.
    #[cfg(test)]
    on_rebuild: Mutex<Option<Box<dyn Fn() + Send>>>,
}

impl TripleStore {
    /// Default auto-compaction ratio: rebuild once the overlay reaches
    /// half the base size.
    pub const DEFAULT_AUTO_COMPACT_RATIO: f64 = 0.5;

    /// A store over `graph` (builds the ring; epoch 0, default
    /// auto-compaction).
    pub fn new(graph: Graph) -> Self {
        let ring = Ring::build(&graph, RingOptions::default());
        Self::from_built(graph, ring, DeltaIndex::empty(0), 0)
    }

    /// Reassembles a store from persisted parts (the delta's base
    /// alphabet is aligned to the graph's).
    pub fn from_built(graph: Graph, ring: Ring, delta: DeltaIndex, epoch: u64) -> Self {
        let delta = if delta.is_empty() {
            DeltaIndex::empty(graph.n_preds())
        } else {
            delta
        };
        Self {
            inner: RwLock::new(Inner {
                snap: Arc::new(StoreSnapshot {
                    graph: Arc::new(graph),
                    ring: Arc::new(ring),
                    delta: Arc::new(delta),
                    epoch,
                }),
                pending: Vec::new(),
            }),
            writer: Mutex::new(()),
            auto_compact_ratio: Some(Self::DEFAULT_AUTO_COMPACT_RATIO),
            commits: AtomicU64::new(0),
            compactions: AtomicU64::new(0),
            commit_ns: AtomicU64::new(0),
            compact_ns: AtomicU64::new(0),
            #[cfg(test)]
            on_rebuild: Mutex::new(None),
        }
    }

    /// Replaces the auto-compaction trigger (`None` disables it).
    pub fn with_auto_compact_ratio(mut self, ratio: Option<f64>) -> Self {
        self.auto_compact_ratio = ratio;
        self
    }

    /// The current snapshot (cheap: one `Arc` clone under a read lock).
    pub fn snapshot(&self) -> Arc<StoreSnapshot> {
        Arc::clone(&self.inner.read().unwrap().snap)
    }

    /// The current epoch.
    pub fn epoch(&self) -> u64 {
        self.inner.read().unwrap().snap.epoch
    }

    /// Buffers an insert (visible after the next [`Self::commit`]).
    pub fn insert(&self, t: Triple) {
        self.inner
            .write()
            .unwrap()
            .pending
            .push(UpdateOp::Insert(t));
    }

    /// Buffers a delete (visible after the next [`Self::commit`]).
    pub fn delete(&self, t: Triple) {
        self.inner
            .write()
            .unwrap()
            .pending
            .push(UpdateOp::Delete(t));
    }

    /// Buffers a batch of operations in order.
    pub fn apply(&self, ops: impl IntoIterator<Item = UpdateOp>) {
        self.inner.write().unwrap().pending.extend(ops);
    }

    /// Buffered operations not yet committed.
    pub fn pending_ops(&self) -> usize {
        self.inner.read().unwrap().pending.len()
    }

    /// Live update counters.
    pub fn stats(&self) -> StoreStats {
        let inner = self.inner.read().unwrap();
        StoreStats {
            epoch: inner.snap.epoch,
            commits: self.commits.load(Ordering::Relaxed),
            compactions: self.compactions.load(Ordering::Relaxed),
            commit_ns: self.commit_ns.load(Ordering::Relaxed),
            compact_ns: self.compact_ns.load(Ordering::Relaxed),
            delta_adds: inner.snap.delta.n_adds(),
            delta_deletes: inner.snap.delta.n_dels(),
            pending_ops: inner.pending.len(),
        }
    }

    /// Atomically commits the buffered operations: publishes a new
    /// snapshot whose delta reflects them, bumping the epoch. A commit
    /// with an empty buffer is a no-op. Commits that introduce new
    /// predicate labels rebuild the ring (the succinct alphabet is
    /// fixed); commits that push the overlay past the auto-compaction
    /// ratio publish their snapshot and then a compacted one. Returns
    /// the resulting epoch.
    pub fn commit(&self) -> u64 {
        let writer = self.writer.lock().expect("a writer panicked");
        let started = Instant::now();
        let (pending, snap) = {
            let mut inner = self.inner.write().unwrap();
            if inner.pending.is_empty() {
                return inner.snap.epoch;
            }
            (std::mem::take(&mut inner.pending), Arc::clone(&inner.snap))
        };
        self.commits.fetch_add(1, Ordering::Relaxed);
        let base = &*snap.graph;
        let new_preds = pending.iter().any(|op| match op {
            UpdateOp::Insert(t) => t.p >= base.n_preds(),
            UpdateOp::Delete(_) => false,
        });
        if new_preds {
            // The completed alphabet must grow: fold everything into a
            // fresh graph and ring in one step.
            return self.rebuild(&writer, &snap, &pending);
        }

        let (mut adds, mut dels) = (SideChange::default(), SideChange::default());
        for (t, insert) in last_ops(&pending) {
            // A base triple is live unless tombstoned (inserting it
            // revives it), any other one only while it is an add.
            match (base.contains(t.s, t.p, t.o), insert) {
                (true, true) => dels.minus.push(t),
                (true, false) => dels.plus.push(t),
                (false, true) => adds.plus.push(t),
                (false, false) => adds.minus.push(t),
            }
        }
        let delta = snap.delta.merged(adds, dels);
        let overlay = delta.len();
        let snap = self.publish(
            &writer,
            StoreSnapshot {
                graph: Arc::clone(&snap.graph),
                ring: Arc::clone(&snap.ring),
                delta: Arc::new(delta),
                epoch: snap.epoch + 1,
            },
        );
        self.commit_ns
            .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        match self.auto_compact_ratio {
            Some(ratio) if overlay > 0 && overlay as f64 >= ratio * base.len().max(1) as f64 => {
                self.rebuild(&writer, &snap, &[])
            }
            _ => snap.epoch,
        }
    }

    /// Rebuilds the ring from ring ⊎ delta and swaps it in (the overlay
    /// becomes empty). Buffered, uncommitted operations are untouched.
    /// A no-op when the overlay is already empty. Returns the epoch.
    pub fn compact(&self) -> u64 {
        let writer = self.writer.lock().expect("a writer panicked");
        let snap = self.snapshot();
        if snap.delta.is_empty() {
            return snap.epoch;
        }
        self.rebuild(&writer, &snap, &[])
    }

    /// Swaps in the next snapshot. Taking the writer's guard says that
    /// `next` was derived from the current one.
    fn publish(&self, _writer: &MutexGuard<'_, ()>, next: StoreSnapshot) -> Arc<StoreSnapshot> {
        let next = Arc::new(next);
        self.inner.write().unwrap().snap = Arc::clone(&next);
        next
    }

    /// Materializes the live triples of `snap` (plus `extra_ops`, applied
    /// in order) and publishes a rebuilt graph + ring with an empty
    /// overlay, preserving the id universes. Returns the new epoch.
    fn rebuild(
        &self,
        writer: &MutexGuard<'_, ()>,
        snap: &StoreSnapshot,
        extra_ops: &[UpdateOp],
    ) -> u64 {
        let started = Instant::now();
        #[cfg(test)]
        if let Some(hook) = self.on_rebuild.lock().unwrap().as_ref() {
            hook();
        }
        let mut live = snap.live_triples();
        if !extra_ops.is_empty() {
            let mut change = SideChange::default();
            for (t, insert) in last_ops(extra_ops) {
                if insert {
                    change.plus.push(t);
                } else {
                    change.minus.push(t);
                }
            }
            live = change.merge(&live, Triple::spo_key);
        }
        let n_nodes = live
            .iter()
            .map(|t| t.s.max(t.o) + 1)
            .max()
            .unwrap_or(0)
            .max(snap.graph.n_nodes())
            .max(snap.delta.n_nodes());
        let n_preds = live
            .iter()
            .map(|t| t.p + 1)
            .max()
            .unwrap_or(0)
            .max(snap.graph.n_preds());
        let graph = Graph::from_sorted(live, n_nodes, n_preds);
        let ring = Ring::build(&graph, RingOptions::default());
        let epoch = self
            .publish(
                writer,
                StoreSnapshot {
                    delta: Arc::new(DeltaIndex::empty(graph.n_preds())),
                    graph: Arc::new(graph),
                    ring: Arc::new(ring),
                    epoch: snap.epoch + 1,
                },
            )
            .epoch;
        self.compactions.fetch_add(1, Ordering::Relaxed);
        self.compact_ns
            .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: Id, p: Id, o: Id) -> Triple {
        Triple::new(s, p, o)
    }

    fn base_store() -> TripleStore {
        // 0 -a-> 1 -a-> 2, 2 -b-> 0
        TripleStore::new(Graph::from_triples(vec![
            t(0, 0, 1),
            t(1, 0, 2),
            t(2, 1, 0),
        ]))
        .with_auto_compact_ratio(None)
    }

    #[test]
    fn commit_publishes_atomically_and_bumps_epoch() {
        let store = base_store();
        let before = store.snapshot();
        store.insert(t(2, 0, 0));
        store.delete(t(0, 0, 1));
        assert_eq!(store.pending_ops(), 2);
        // Nothing visible before commit.
        assert!(store.snapshot().contains(0, 0, 1));
        assert!(!store.snapshot().contains(2, 0, 0));
        let epoch = store.commit();
        assert_eq!(epoch, 1);
        let snap = store.snapshot();
        assert!(snap.contains(2, 0, 0));
        assert!(!snap.contains(0, 0, 1));
        // The old snapshot is untouched (readers keep a consistent view).
        assert!(before.contains(0, 0, 1));
        assert!(!before.contains(2, 0, 0));
        assert_eq!(before.epoch, 0);
        // Inverse view through the completed alphabet.
        assert!(snap.contains(0, 2, 2));
        assert!(!snap.contains(1, 2, 0));
    }

    #[test]
    fn tombstone_and_revival_cancel() {
        let store = base_store();
        store.delete(t(0, 0, 1));
        store.insert(t(0, 0, 1)); // revive within one batch
        store.insert(t(5, 1, 5));
        store.delete(t(5, 1, 5)); // cancel an uncommitted add
        store.commit();
        let snap = store.snapshot();
        assert!(snap.delta.is_empty());
        assert!(snap.contains(0, 0, 1));
        assert!(!snap.contains(5, 1, 5));
        // Across batches: delete, commit, re-insert, commit.
        store.delete(t(0, 0, 1));
        store.commit();
        assert!(!store.snapshot().contains(0, 0, 1));
        store.insert(t(0, 0, 1));
        store.commit();
        let snap = store.snapshot();
        assert!(snap.contains(0, 0, 1));
        assert!(snap.delta.is_empty());
    }

    #[test]
    fn empty_commit_is_a_no_op() {
        let store = base_store();
        assert_eq!(store.commit(), 0);
        assert_eq!(store.stats().commits, 0);
    }

    #[test]
    fn new_nodes_live_in_the_delta_until_compaction() {
        let store = base_store();
        store.insert(t(2, 1, 9));
        store.commit();
        let snap = store.snapshot();
        assert_eq!(snap.ring.n_nodes(), 3);
        assert_eq!(snap.n_nodes(), 10);
        assert!(snap.contains(2, 1, 9));
        store.compact();
        let snap = store.snapshot();
        assert!(snap.delta.is_empty());
        assert_eq!(snap.ring.n_nodes(), 10);
        assert!(snap.contains(2, 1, 9));
    }

    #[test]
    fn new_predicates_force_a_rebuild_on_commit() {
        let store = base_store();
        store.insert(t(0, 7, 2));
        let epoch = store.commit();
        assert_eq!(epoch, 1);
        let snap = store.snapshot();
        assert!(snap.delta.is_empty());
        assert_eq!(snap.graph.n_preds(), 8);
        assert!(snap.contains(0, 7, 2));
        assert!(snap.contains(0, 0, 1)); // base data survives
        let s = store.stats();
        assert_eq!((s.commits, s.compactions), (1, 1));
    }

    #[test]
    fn compaction_matches_a_clean_build_bit_for_bit() {
        let store = base_store();
        store.delete(t(1, 0, 2));
        store.insert(t(1, 1, 1));
        store.commit();
        let live = store.snapshot().live_triples();
        store.compact();
        let snap = store.snapshot();
        let clean = Ring::build(
            &Graph::new(live, snap.graph.n_nodes(), snap.graph.n_preds()),
            RingOptions::default(),
        );
        assert!(
            crate::mapped::stored_bytes(&snap.ring) == crate::mapped::stored_bytes(&clean),
            "compacted ring bytes diverge from a clean build"
        );
    }

    #[test]
    fn auto_compaction_triggers_on_the_size_ratio() {
        let store = TripleStore::new(Graph::from_triples(vec![t(0, 0, 1), t(1, 0, 2)]))
            .with_auto_compact_ratio(Some(0.5));
        store.insert(t(0, 0, 2)); // overlay 1 ≥ 0.5 · 2
        store.commit();
        let snap = store.snapshot();
        assert!(snap.delta.is_empty(), "auto-compaction should have run");
        assert_eq!(store.stats().compactions, 1);
        assert!(snap.contains(0, 0, 2));
    }

    #[test]
    fn deleting_every_edge_keeps_the_node_universe() {
        let store = base_store();
        for tr in store.snapshot().graph.triples().to_vec() {
            store.delete(tr);
        }
        store.commit();
        store.compact();
        let snap = store.snapshot();
        assert_eq!(snap.graph.len(), 0);
        assert_eq!(snap.ring.n_nodes(), 3, "ids stay valid after deletion");
    }

    /// Readers are served from the old snapshot for the whole of a ring
    /// rebuild: the hook parks the compaction at its start, and
    /// `snapshot`, `epoch` and `stats` must return meanwhile.
    #[test]
    fn readers_get_the_old_snapshot_while_a_compaction_is_in_flight() {
        use std::sync::mpsc;
        let store = base_store();
        store.insert(t(2, 0, 0));
        assert_eq!(store.commit(), 1);

        let (started_tx, started_rx) = mpsc::channel();
        let (resume_tx, resume_rx) = mpsc::channel::<()>();
        *store.on_rebuild.lock().unwrap() = Some(Box::new(move || {
            started_tx.send(()).unwrap();
            resume_rx.recv().unwrap();
        }));
        std::thread::scope(|scope| {
            let compaction = scope.spawn(|| store.compact());
            started_rx.recv().unwrap();
            // The rebuild has begun and cannot finish before `resume`.
            let snap = store.snapshot();
            assert_eq!(snap.epoch, 1);
            assert!(!snap.delta.is_empty());
            assert!(snap.contains(2, 0, 0));
            assert_eq!(store.epoch(), 1);
            assert_eq!(store.stats().compactions, 0);
            // Buffering does not wait for the writer either.
            store.insert(t(1, 1, 1));
            assert_eq!(store.pending_ops(), 1);
            resume_tx.send(()).unwrap();
            assert_eq!(compaction.join().unwrap(), 2);
        });
        let snap = store.snapshot();
        assert_eq!(snap.epoch, 2);
        assert!(snap.delta.is_empty());
        assert!(snap.contains(2, 0, 0));
        // The operation buffered mid-rebuild is still pending.
        assert!(!snap.contains(1, 1, 1));
        assert_eq!(store.pending_ops(), 1);
        let stats = store.stats();
        assert_eq!((stats.commits, stats.compactions), (1, 1));
        assert!(stats.commit_ns > 0 && stats.compact_ns > 0);
    }

    #[test]
    fn store_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TripleStore>();
        assert_send_sync::<StoreSnapshot>();
    }
}
