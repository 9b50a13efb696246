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
//! The ring is the only copy of the base graph: over a mapped index file
//! the base stays in the mapping, and only the overlay is on the heap. A
//! commit of `b` operations over an overlay of `|δ|` entries costs
//! `O(b log b + b log σ + |δ|)` — the batch is sorted, its triples looked
//! up in the ring as one batch ([`Ring::contains_batch`]), the overlay
//! only merged (see [`crate::delta`]). A compaction is a merge too
//! ([`StoreSnapshot::compacted`]): the ring's completed `(o, s, p)` run,
//! decoded column by column, and the overlay's, whose inverse edges are
//! the only thing sorted, go into one run the ring's constructor indexes
//! — `O(n + |δ| log |δ| + |V| + |P|)` plus the two column builds, with no
//! triple list of the base. Both run on the calling thread, outside the
//! lock readers take.
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
use crate::graph::{merge_sorted, scatter};
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

/// The shape of the base graph a ring indexes — its universes and its
/// edge count, without its edges.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GraphShape {
    n_nodes: Id,
    n_preds: Id,
    len: usize,
}

impl GraphShape {
    /// The shape of the (uncompleted) graph `ring` was built from.
    pub fn of(ring: &Ring) -> Self {
        Self {
            n_nodes: ring.n_nodes(),
            n_preds: ring.n_preds_base(),
            len: ring.n_triples() / 2,
        }
    }

    /// Node universe size.
    pub fn n_nodes(&self) -> Id {
        self.n_nodes
    }

    /// Base predicate universe size.
    pub fn n_preds(&self) -> Id {
        self.n_preds
    }

    /// Number of base edges.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the base graph has no edges.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// A consistent, immutable view of the store at one epoch. Cheap to
/// clone (two `Arc`s); queries hold one for their whole evaluation.
#[derive(Clone, Debug)]
pub struct StoreSnapshot {
    /// The shape of the base graph `ring` indexes ([`GraphShape::of`]
    /// it). The ring holds the graph's triples; this is not a copy of
    /// them.
    pub graph: GraphShape,
    /// The succinct index over the completed base graph.
    pub ring: Arc<Ring>,
    /// The committed overlay (possibly empty).
    pub delta: Arc<DeltaIndex>,
    /// The snapshot version; bumped by every commit and compaction.
    pub epoch: u64,
}

impl StoreSnapshot {
    fn new(ring: Arc<Ring>, delta: Arc<DeltaIndex>, epoch: u64) -> Self {
        Self {
            graph: GraphShape::of(&ring),
            ring,
            delta,
            epoch,
        }
    }

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

    /// The live canonical triples (base − deletes + adds), sorted by
    /// `(s, p, o)`. The base comes out of the ring in `(o, s, p)` order
    /// ([`Ring::decode_triples`]); one two-pointer merge with the
    /// overlay's arrays in that order — the deletes a subset of the base,
    /// the adds disjoint from it — then two stable counting passes, by
    /// predicate and by subject. `O(base + delta + |V| + |P|)`; for
    /// tests and tools — a compaction or a save merges without listing
    /// the triples ([`Self::compacted`]).
    ///
    /// # Panics
    /// Panics if the ring's columns and boundaries contradict each other
    /// (the ring of a file whose checksums were not verified).
    pub fn live_triples(&self) -> Vec<Triple> {
        let base = self
            .ring
            .decode_triples(true)
            .unwrap_or_else(|e| panic!("the index does not decode to a graph: {e}"));
        let (adds, dels) = (self.delta.adds_osp(), self.delta.dels_osp());
        let mut live = Vec::with_capacity((base.len() + adds.len()).saturating_sub(dels.len()));
        let mut adds = adds.peekable();
        let mut dels = dels.peekable();
        for t in &base {
            while let Some(a) = adds.next_if(|a| a.osp_key() < t.osp_key()) {
                live.push(a);
            }
            if dels.next_if_eq(t).is_none() {
                live.push(*t);
            }
        }
        live.extend(adds);
        drop(base);
        let mut subj_counts = vec![0u64; self.n_nodes() as usize];
        let mut pred_counts = vec![0u64; self.ring.n_preds_base() as usize];
        for t in &live {
            subj_counts[t.s as usize] += 1;
            pred_counts[t.p as usize] += 1;
        }
        let pos = scatter(&pred_counts, live.into_iter().map(|t| (t.p, t)));
        scatter(&subj_counts, pos.into_iter().map(|t| (t.s, t)))
    }

    /// The ring of the live triples over node and predicate universes at
    /// least `n_nodes` and `n_preds` wide (and at least this snapshot's):
    /// what [`Ring::build`] makes of them, byte for byte, without
    /// listing them. The ring's completed `(o, s, p)` run is decoded as
    /// [`Ring::decode_triples`] decodes it and merged with the delta's
    /// completed run; the only sort is of the delta's inverse edges.
    /// `O(n + |δ| log |δ| + |V| + |P|)` plus the two column builds.
    ///
    /// # Panics
    /// Panics if the ring's columns and boundaries contradict each other
    /// (the ring of a file whose checksums were not verified).
    pub fn compacted(&self, n_nodes: Id, n_preds: Id) -> Ring {
        self.merged(&[], n_nodes, n_preds)
    }

    /// [`Self::compacted`] with `ops` applied after the delta, in order;
    /// they may introduce labels, which widen the alphabet.
    fn merged(&self, ops: &[UpdateOp], n_nodes: Id, n_preds: Id) -> Ring {
        let old_preds = self.ring.n_preds_base();
        let mut n_nodes = n_nodes.max(self.ring.n_nodes()).max(self.delta.n_nodes());
        let mut n_preds = n_preds.max(old_preds);
        // What the ring's triples gain and lose: the delta's adds and
        // tombstones, then the operations' (a label past the ring's names
        // no triple it holds, so its delete deletes nothing). An insert
        // wins over a tombstone in the merge below, so neither side is
        // classified against the ring.
        let changed: DeltaIndex;
        let delta = if ops.is_empty() {
            &*self.delta
        } else {
            let mut put = SideChange::default();
            let mut taken = SideChange::default();
            for (t, insert) in last_ops(ops) {
                if insert {
                    n_nodes = n_nodes.max(t.s.max(t.o) + 1);
                    n_preds = n_preds.max(t.p + 1);
                    put.plus.push(t);
                } else {
                    put.minus.push(t);
                    if t.p < old_preds {
                        taken.plus.push(t);
                    }
                }
            }
            changed = self.delta.merged(put, taken, DeltaIndex::default());
            &changed
        };
        let plus = completed_run(delta.adds_osp(), delta.adds(), n_preds);
        let minus = completed_run(delta.dels_osp(), delta.dels(), n_preds);

        // The ring's inverse labels move up with the alphabet, in order.
        let relabel = |p: Id| {
            if p < old_preds {
                p
            } else {
                p - old_preds + n_preds
            }
        };
        let len = (self.ring.n_triples() + plus.len()).saturating_sub(minus.len());
        let mut obj_counts = vec![0u64; n_nodes as usize];
        let (mut subjects, mut labels) = (Vec::with_capacity(len), Vec::with_capacity(len));
        let mut push = |t: &Triple| {
            obj_counts[t.o as usize] += 1;
            subjects.push(t.s as u32);
            labels.push(t.p as u32);
        };
        let (mut plus, mut minus) = (plus.iter().peekable(), minus.iter().peekable());
        self.ring
            .for_each_osp(|o, s, p| {
                let t = Triple::new(s, relabel(p), o);
                while let Some(a) = plus.next_if(|a| a.osp_key() < t.osp_key()) {
                    push(a);
                }
                let put = plus.next_if_eq(&&t).is_some();
                while minus.next_if(|d| d.osp_key() < t.osp_key()).is_some() {}
                if put || minus.next_if_eq(&&t).is_none() {
                    push(&t);
                }
            })
            .unwrap_or_else(|e| panic!("the index does not decode to a graph: {e}"));
        plus.for_each(push);
        Ring::from_osp_run(obj_counts, subjects, labels, (2 * n_preds).max(1), n_preds)
    }
}

/// The completion of a set of canonical triples, given in `(o, s, p)`
/// and in `(s, p, o)` order, over `n_preds` base labels: the triples and
/// their inverses `(o, p̂, s)`, in `(o, s, p)` order. The inverses are
/// sorted here — out of `spo` they come grouped by object already — and
/// that sort, over the change alone, is the only one a compaction makes.
fn completed_run(
    osp: impl Iterator<Item = Triple>,
    spo: impl Iterator<Item = Triple>,
    n_preds: Id,
) -> Vec<Triple> {
    let mut inverses: Vec<Triple> = spo.map(|t| Triple::new(t.o, t.p + n_preds, t.s)).collect();
    inverses.sort_unstable_by_key(Triple::osp_key);
    merge_sorted(&osp.collect::<Vec<_>>(), &inverses, Triple::osp_key)
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
    /// Nanoseconds spent in ring rebuilds — the merge of the ring's run
    /// with the overlay's and the column builds over it — since
    /// construction: the stall `compactions` times over.
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
    let mut ops: Vec<(Triple, usize, bool)> = (batch.iter().zip(0..))
        .map(|(op, at)| match *op {
            UpdateOp::Insert(t) => (t, at, true),
            UpdateOp::Delete(t) => (t, at, false),
        })
        .collect();
    // A triple's operations in batch order.
    ops.sort_unstable_by_key(|&(t, at, _)| (t, at));
    let mut ops = ops.into_iter().peekable();
    std::iter::from_fn(move || loop {
        let (t, _, insert) = ops.next()?;
        if ops.peek().is_none_or(|next| next.0 != t) {
            return Some((t, insert));
        }
    })
}

/// Whether each of `ops`' triples is a triple of the base `ring`: one
/// [`Ring::contains_batch`]. A label past the base alphabet is, to the
/// ring, an inverse: no base triple names one. (Looking the batch up in
/// the delta first, whose adds are not base triples and whose tombstones
/// are, cost more than the ring tests it saved: 10–31 µs for a batch of
/// 256 over a delta of 2 000–28 000 entries, against about 150 ns a
/// ring test.)
fn classify(ring: &Ring, ops: &[(Triple, bool)]) -> Vec<bool> {
    let labelled = |t: &Triple| t.p < ring.n_preds_base();
    let asked: Vec<Triple> = ops.iter().map(|&(t, _)| t).filter(labelled).collect();
    let mut found = ring.contains_batch(&asked).into_iter();
    ops.iter()
        .map(|(t, _)| labelled(t) && found.next().unwrap_or(false))
        .collect()
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
    /// replaces `inner.snap`. It keeps the delta the last publication
    /// retired: once no reader holds it, the next commit merges into its
    /// memory ([`DeltaIndex::merged`]) instead of fresh pages.
    writer: Mutex<Option<Arc<DeltaIndex>>>,
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

    /// A store over `graph` (builds the ring and drops the graph; epoch
    /// 0, default auto-compaction).
    pub fn new(graph: Graph) -> Self {
        let ring = Ring::build(&graph, RingOptions::default());
        Self::from_built(Arc::new(ring), DeltaIndex::empty(0), 0)
    }

    /// Reassembles a store from persisted parts: `ring` — built with
    /// inverses, as [`Self::new`] builds it, and perhaps borrowing a
    /// mapped file — is used as it is (the delta's base alphabet is
    /// aligned to the ring's).
    pub fn from_built(ring: Arc<Ring>, delta: DeltaIndex, epoch: u64) -> Self {
        let delta = if delta.is_empty() {
            DeltaIndex::empty(ring.n_preds_base())
        } else {
            delta
        };
        Self {
            inner: RwLock::new(Inner {
                snap: Arc::new(StoreSnapshot::new(ring, Arc::new(delta), epoch)),
                pending: Vec::new(),
            }),
            writer: Mutex::new(None),
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
    ///
    /// A commit of `b` operations over an overlay of `|δ|` entries costs
    /// `O(b log b + b log σ + |δ|)`: the batch reduced to the last
    /// operation per triple (one sort), those triples tested in the base
    /// ring as one batch ([`Ring::contains_batch`]) and sorted into the
    /// delta's two sides, and each of the delta's six arrays merged with
    /// its side's change into the memory of the delta the last
    /// publication retired (see [`crate::delta`]). Only the merge's
    /// copy grows with `|δ|`.
    pub fn commit(&self) -> u64 {
        let mut writer = self.writer.lock().expect("a writer panicked");
        let started = Instant::now();
        let (pending, snap) = {
            let mut inner = self.inner.write().unwrap();
            if inner.pending.is_empty() {
                return inner.snap.epoch;
            }
            (std::mem::take(&mut inner.pending), Arc::clone(&inner.snap))
        };
        self.commits.fetch_add(1, Ordering::Relaxed);
        let base = &*snap.ring;
        let n_preds = base.n_preds_base();
        let new_preds = pending
            .iter()
            .any(|op| matches!(op, UpdateOp::Insert(t) if t.p >= n_preds));
        if new_preds {
            // The completed alphabet must grow: merge the delta and the
            // batch into a new ring in one step.
            return self.rebuild(&mut writer, &snap, &pending);
        }

        let (mut adds, mut dels) = (SideChange::default(), SideChange::default());
        let ops: Vec<(Triple, bool)> = last_ops(&pending).collect();
        let in_base = classify(base, &ops);
        for (&(t, insert), in_base) in ops.iter().zip(in_base) {
            // A base triple is live unless tombstoned (inserting it
            // revives it), any other one only while it is an add.
            match (in_base, insert) {
                (true, true) => dels.minus.push(t),
                (true, false) => dels.plus.push(t),
                (false, true) => adds.plus.push(t),
                (false, false) => adds.minus.push(t),
            }
        }
        let spare = writer.take().and_then(Arc::into_inner);
        let delta = snap.delta.merged(adds, dels, spare.unwrap_or_default());
        let overlay = delta.len();
        let snap = self.publish(
            &mut writer,
            StoreSnapshot::new(Arc::clone(&snap.ring), Arc::new(delta), snap.epoch + 1),
        );
        self.commit_ns
            .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        match self.auto_compact_ratio {
            Some(ratio)
                if overlay > 0 && overlay as f64 >= ratio * snap.graph.len().max(1) as f64 =>
            {
                self.rebuild(&mut writer, &snap, &[])
            }
            _ => snap.epoch,
        }
    }

    /// Rebuilds the ring from ring ⊎ delta and swaps it in (the overlay
    /// becomes empty). Buffered, uncommitted operations are untouched.
    /// A no-op when the overlay is already empty. Returns the epoch.
    pub fn compact(&self) -> u64 {
        let mut writer = self.writer.lock().expect("a writer panicked");
        let snap = self.snapshot();
        if snap.delta.is_empty() {
            return snap.epoch;
        }
        self.rebuild(&mut writer, &snap, &[])
    }

    /// Swaps in the next snapshot and keeps the delta it retires. Taking
    /// the writer's guard says that `next` was derived from the current
    /// one.
    fn publish(
        &self,
        writer: &mut MutexGuard<'_, Option<Arc<DeltaIndex>>>,
        next: StoreSnapshot,
    ) -> Arc<StoreSnapshot> {
        let next = Arc::new(next);
        let retired = std::mem::replace(&mut self.inner.write().unwrap().snap, Arc::clone(&next));
        **writer = Some(Arc::clone(&retired.delta));
        next
    }

    /// Publishes the ring of the live triples of `snap`, `extra_ops`
    /// applied after its delta ([`StoreSnapshot::compacted`]), with an
    /// empty overlay, preserving the id universes. Returns the new epoch.
    fn rebuild(
        &self,
        writer: &mut MutexGuard<'_, Option<Arc<DeltaIndex>>>,
        snap: &StoreSnapshot,
        extra_ops: &[UpdateOp],
    ) -> u64 {
        let started = Instant::now();
        #[cfg(test)]
        if let Some(hook) = self.on_rebuild.lock().unwrap().as_ref() {
            hook();
        }
        let ring = snap.merged(extra_ops, 0, 0);
        let delta = DeltaIndex::empty(ring.n_preds_base());
        let epoch = self
            .publish(
                writer,
                StoreSnapshot::new(Arc::new(ring), Arc::new(delta), snap.epoch + 1),
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
    use crate::mapped::stored_bytes;
    use crate::ring::build_reference;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

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

    /// Over a ring read from an index file — what a reopened database
    /// runs on — every `(s, p, o)` of a grid that reaches past the node
    /// universe and into the inverse labels is classified as a set model
    /// says: each commit's adds and tombstones are the model's difference
    /// from the base, and `live_triples` is the model, before and after
    /// a compaction.
    #[test]
    fn commits_over_a_mapped_ring_follow_a_set_model() {
        use crate::mapped::{open_ring, write_index, OpenMode};
        use std::collections::BTreeSet;
        let mut state = 0x5EED_u64;
        let mut next = |m: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % m
        };
        // 6 nodes and 2 labels; the grid's ids run to 8 and 4.
        let triples = (0..24).map(|_| t(next(6), next(2), next(6))).collect();
        let graph = Graph::new(triples, 6, 2);
        let base: BTreeSet<Triple> = graph.triples().iter().copied().collect();
        let path = std::env::temp_dir().join(format!("rpq_store_grid_{}.rpqm", std::process::id()));
        let built = Ring::build(&graph, RingOptions::default());
        write_index(&path, &built, &crate::Dict::new(), &crate::Dict::new()).unwrap();
        let ring = open_ring(&path, OpenMode::Auto).unwrap().ring;
        std::fs::remove_file(&path).ok();
        let store = TripleStore::from_built(Arc::new(ring), DeltaIndex::empty(0), 0)
            .with_auto_compact_ratio(None);
        let mut model = base.clone();
        let grid = (0..8).flat_map(|s| (0..4).flat_map(move |p| (0..8).map(move |o| t(s, p, o))));
        for (i, tr) in grid.enumerate() {
            // Inserts stay in the base alphabet (a new label rebuilds);
            // deletes name inverse labels too, and those delete nothing.
            if tr.p < 2 && next(2) == 0 {
                store.insert(tr);
                model.insert(tr);
            } else {
                store.delete(tr);
                model.remove(&tr);
            }
            if i % 16 == 15 {
                store.commit();
                let snap = store.snapshot();
                let adds: Vec<Triple> = model.difference(&base).copied().collect();
                let dels: Vec<Triple> = base.difference(&model).copied().collect();
                assert!(snap.delta.adds().eq(adds), "adds after grid triple {i}");
                assert!(
                    snap.delta.dels().eq(dels),
                    "tombstones after grid triple {i}"
                );
                assert!(snap.live_triples().iter().eq(&model), "live after {i}");
            }
        }
        assert_eq!(store.compact(), 17);
        let snap = store.snapshot();
        assert!(snap.delta.is_empty());
        assert!(snap.live_triples().iter().eq(&model));
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
        for tr in store.snapshot().live_triples() {
            store.delete(tr);
        }
        store.commit();
        store.compact();
        let snap = store.snapshot();
        assert_eq!(snap.graph.len(), 0);
        assert_eq!(snap.ring.n_nodes(), 3, "ids stay valid after deletion");
    }

    /// splitmix64.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut x = self.0;
            x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (x ^ (x >> 31)) % n
        }

        fn pick(&mut self, from: &BTreeSet<Triple>) -> Option<Triple> {
            let i = self.below(from.len().max(1) as u64) as usize;
            from.iter().nth(i).copied()
        }
    }

    /// The ring [`build_reference`] makes of `live` over the given
    /// universes, as stored bytes.
    fn reference_bytes(live: &BTreeSet<Triple>, n_nodes: Id, n_preds: Id) -> Vec<u8> {
        let graph = Graph::from_sorted(live.iter().copied().collect(), n_nodes, n_preds);
        stored_bytes(&build_reference(&graph))
    }

    /// One random commit stream against a set model: after every commit
    /// the live triples are the model's, and every ring the store makes
    /// — compactions, commits that introduce a label, and
    /// [`StoreSnapshot::compacted`] over wider universes — has the
    /// reference's bytes. The streams revive tombstones, delete every
    /// edge of a node, add nodes past the ring's universe and, now and
    /// then, a label past its alphabet.
    fn run_compaction_stream(seed: u64) {
        const N_NODES: Id = 16;
        let mut rng = Rng(seed);
        let n_base = 1 + rng.below(3);
        let base: BTreeSet<Triple> = (0..rng.below(40))
            .map(|_| t(rng.below(N_NODES), rng.below(n_base), rng.below(N_NODES)))
            .collect();
        let store = TripleStore::new(Graph::from_sorted(
            base.iter().copied().collect(),
            N_NODES,
            n_base,
        ))
        .with_auto_compact_ratio(None);
        let (mut model, mut n_preds) = (base.clone(), n_base);
        for round in 0..20 {
            let mut ops = Vec::new();
            for _ in 0..rng.below(10) {
                let op = match rng.below(9) {
                    0 => rng.pick(&base).map(UpdateOp::Insert),
                    1 | 2 => rng.pick(&model).map(UpdateOp::Delete),
                    3 => {
                        let v = rng.below(N_NODES);
                        let edges = model.iter().filter(|tr| tr.s == v || tr.o == v);
                        ops.extend(edges.map(|&tr| UpdateOp::Delete(tr)));
                        None
                    }
                    // A label past the alphabet: inserted it widens the
                    // alphabet; deleted it names nothing the batch did not
                    // insert.
                    4 if rng.below(3) == 0 => {
                        let tr = t(
                            rng.below(N_NODES),
                            n_preds + rng.below(2),
                            rng.below(N_NODES),
                        );
                        Some(if rng.below(2) == 0 {
                            UpdateOp::Insert(tr)
                        } else {
                            UpdateOp::Delete(tr)
                        })
                    }
                    // A live triple's inverse, named by a label past the
                    // alphabet as it is or as a new label widens it: a
                    // delete of nothing the batch did not insert.
                    5 => rng
                        .pick(&model)
                        .map(|tr| UpdateOp::Delete(t(tr.o, tr.p + n_preds + rng.below(3), tr.s))),
                    6 => Some(UpdateOp::Delete(t(
                        rng.below(N_NODES + 4),
                        rng.below(n_preds),
                        rng.below(N_NODES + 4),
                    ))),
                    _ => Some(UpdateOp::Insert(t(
                        rng.below(N_NODES + 4),
                        rng.below(n_preds),
                        rng.below(N_NODES + 4),
                    ))),
                };
                ops.extend(op);
            }
            for &op in &ops {
                match op {
                    UpdateOp::Insert(tr) => model.insert(tr),
                    UpdateOp::Delete(tr) => model.remove(&tr),
                };
            }
            // A label widens the alphabet once a commit leaves it live.
            n_preds = n_preds.max(model.iter().map(|tr| tr.p + 1).max().unwrap_or(0));
            store.apply(ops.iter().copied());
            store.commit();
            let snap = store.snapshot();
            let at = format!("seed {seed:#x}, round {round}, batch {ops:?}");
            assert!(snap.live_triples().iter().eq(&model), "{at}");
            match rng.below(3) {
                0 => {
                    store.compact();
                }
                1 => {
                    let (wide_nodes, wide_preds) =
                        (snap.n_nodes() + rng.below(3), n_preds + rng.below(2));
                    assert!(
                        stored_bytes(&snap.compacted(wide_nodes, wide_preds))
                            == reference_bytes(&model, wide_nodes, wide_preds),
                        "compacted over wider universes, {at}"
                    );
                }
                _ => {}
            }
            let snap = store.snapshot();
            assert_eq!(snap.graph.n_preds(), n_preds, "{at}");
            if snap.delta.is_empty() {
                assert!(
                    stored_bytes(&snap.ring)
                        == reference_bytes(&model, snap.ring.n_nodes(), n_preds),
                    "{at}"
                );
            }
        }
    }

    #[test]
    fn compaction_streams_write_the_reference_bytes() {
        let mut bases: Vec<u64> = vec![0xC0_4AC7, 0x5E_ED05, 0xFEED];
        if let Ok(s) = std::env::var("RPQ_TEST_SEED") {
            bases.push(s.parse().expect("RPQ_TEST_SEED is a decimal u64"));
        }
        for base in bases {
            for i in 0..40u64 {
                run_compaction_stream(base.wrapping_add(i.wrapping_mul(0x9E37_79B9)));
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Fresh streams on every run; failing seeds persist under
        /// `proptest-regressions/` and replay first.
        #[test]
        fn random_compaction_streams_write_the_reference_bytes(seed in 0u64..u64::MAX) {
            run_compaction_stream(seed);
        }
    }

    /// One stream of batches whose classification is checked against
    /// one [`Ring::contains`] per triple before each commit. The batches
    /// name base triples, the delta's adds and tombstones (so revive
    /// them), a triple inserted, deleted and inserted again, deletes of
    /// triples that are nowhere, nodes past the ring's universe and
    /// labels past its base alphabet, over a ring rebuilt now and then.
    fn run_classification_stream(seed: u64) {
        const N_NODES: Id = 12;
        let mut rng = Rng(seed);
        let n_base = 1 + rng.below(3);
        let base: BTreeSet<Triple> = (0..rng.below(60))
            .map(|_| t(rng.below(N_NODES), rng.below(n_base), rng.below(N_NODES)))
            .collect();
        let graph = Graph::from_sorted(base.iter().copied().collect(), N_NODES, n_base);
        let store = TripleStore::new(graph).with_auto_compact_ratio(None);
        let mut live = base;
        for round in 0..12 {
            let snap = store.snapshot();
            let (adds, dels): (Vec<Triple>, Vec<Triple>) =
                (snap.delta.adds().collect(), snap.delta.dels().collect());
            let anywhere = |rng: &mut Rng| {
                let n = N_NODES + 4;
                t(rng.below(n), rng.below(n_base + 2), rng.below(n))
            };
            let mut batch = Vec::new();
            for _ in 0..rng.below(24) {
                let picked = match rng.below(5) {
                    0 => rng.pick(&live),
                    1 => adds
                        .get(rng.below(adds.len().max(1) as u64) as usize)
                        .copied(),
                    2 => dels
                        .get(rng.below(dels.len().max(1) as u64) as usize)
                        .copied(),
                    _ => Some(anywhere(&mut rng)),
                };
                let Some(tr) = picked else { continue };
                // A label past the alphabet is only ever deleted: inserted,
                // it would rebuild the ring instead of classifying.
                let insert = tr.p < n_base && rng.below(2) == 0;
                let op = if insert {
                    UpdateOp::Insert(tr)
                } else {
                    UpdateOp::Delete(tr)
                };
                batch.push(op);
                if rng.below(4) == 0 && tr.p < n_base {
                    batch.extend([UpdateOp::Delete(tr), UpdateOp::Insert(tr)]);
                }
            }
            let ops: Vec<(Triple, bool)> = last_ops(&batch).collect();
            let ring = &snap.ring;
            let per_op: Vec<bool> = ops
                .iter()
                .map(|(tr, _)| tr.p < n_base && ring.contains(tr.s, tr.p, tr.o))
                .collect();
            assert_eq!(
                classify(ring, &ops),
                per_op,
                "seed {seed:#x}, round {round}, {ops:?}"
            );
            for &op in &batch {
                match op {
                    UpdateOp::Insert(tr) => live.insert(tr),
                    UpdateOp::Delete(tr) => live.remove(&tr),
                };
            }
            store.apply(batch);
            store.commit();
            assert!(
                store.snapshot().live_triples().iter().eq(&live),
                "seed {seed:#x}, round {round}"
            );
            if rng.below(5) == 0 {
                store.compact();
            }
        }
    }

    #[test]
    fn classification_streams_match_per_op_contains() {
        let mut bases: Vec<u64> = vec![0xC1A55, 0xB47C4];
        if let Ok(s) = std::env::var("RPQ_TEST_SEED") {
            bases.push(s.parse().expect("RPQ_TEST_SEED is a decimal u64"));
        }
        for base in bases {
            for i in 0..60u64 {
                run_classification_stream(base.wrapping_add(i.wrapping_mul(0x9E37_79B9)));
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Fresh streams on every run; failing seeds persist under
        /// `proptest-regressions/` and replay first.
        #[test]
        fn random_classification_streams_match_per_op_contains(seed in 0u64..u64::MAX) {
            run_classification_stream(seed);
        }
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
