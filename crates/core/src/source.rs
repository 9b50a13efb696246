//! The [`TripleSource`] abstraction: what the engine evaluates against —
//! an immutable ring alone, or a ring plus a committed [`DeltaIndex`]
//! overlay (live updates). [`MergedView`] is the step-level merge: every
//! primitive the evaluation routes use (batched backward steps by
//! predicate, per-label source enumeration, node existence, edge
//! membership) answered as *ring results minus tombstones plus delta
//! adds*, so deletes mask ring edges during traversal and adds extend
//! it, triple by triple. Its `StepSource` implementation (at the end of
//! this module) is the layered instantiation of the one traversal and
//! of the §5 joins; a bare ring is the other (`step.rs`).
//!
//! Horizontal sharding rides the same seam: a [`ShardedSource`] exposes
//! its partition as a [`ShardSet`], and every [`MergedView`] primitive
//! is answered by the shards that *own* the probed label — the set's
//! routing table names them, so a shard without the label is never
//! consulted. Results stay sorted-distinct, so traversal orders (and
//! therefore answers, traces, truncation points and counters) are
//! independent of how the triples were partitioned.

use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use automata::Label;
use ring::delta::DeltaIndex;
use ring::store::StoreSnapshot;
use ring::{Id, Ring};
use succinct::util::{BitSet, EpochArray};

use crate::step::{ChunkExpansion, Firing, Hit, Range, StepSource};

/// One shard of a horizontally partitioned source: its sub-ring plus a
/// relaxed probe counter (how many gather primitives actually consulted
/// this shard's data — routing never probes a shard whose alphabet slice
/// is empty for the label).
#[derive(Debug)]
pub struct ShardPart {
    /// The shard's sub-ring, built over its triple partition with the
    /// **global** node/predicate universes (so labels and ids agree
    /// across shards).
    pub ring: Arc<Ring>,
    /// Primitives answered by this shard's data (Relaxed; a live gauge
    /// feed for per-shard serving metrics).
    pub probes: AtomicU64,
}

impl ShardPart {
    /// Probes answered so far.
    pub fn probe_count(&self) -> u64 {
        self.probes.load(Ordering::Relaxed)
    }

    fn note_probe(&self) {
        self.probes.fetch_add(1, Ordering::Relaxed);
    }
}

/// The parts of a sharded source plus their **routing table**: per
/// completed-alphabet label the shards holding at least one triple with
/// it (a bitmask, one word per 64 shards), and the set of nodes with an
/// edge in any shard. Both are derived from the sub-rings' boundary
/// arrays in one pass when the set is assembled — `8·|Σ↔| + |V|/8`
/// bytes, never persisted — so a primitive probes exactly the owners of
/// its label and node existence is one bit test.
///
/// Dereferences to the part slice.
#[derive(Debug)]
pub struct ShardSet {
    parts: Vec<ShardPart>,
    /// `owners[p · words + i / 64]` bit `i % 64`: shard `i` holds `p`.
    owners: Vec<u64>,
    /// Mask words per label: `⌈parts / 64⌉`.
    words: usize,
    /// Nodes with at least one edge in some shard.
    live: BitSet,
}

impl ShardSet {
    /// Wraps the shard sub-rings and derives their routing table.
    ///
    /// # Panics
    /// Panics if `rings` is empty or the rings disagree on the node or
    /// predicate universe (`ring::sharded::ShardedIndex`-built ones
    /// share the global ones).
    pub fn new(rings: Vec<Arc<Ring>>) -> Self {
        let first = rings.first().expect("a sharded source needs >= 1 ring");
        let (n_nodes, n_preds) = (first.n_nodes(), first.n_preds());
        assert!(
            rings
                .iter()
                .all(|r| r.n_nodes() == n_nodes && r.n_preds() == n_preds),
            "shards must share the global node and predicate universes"
        );
        let words = rings.len().div_ceil(64);
        let mut owners = vec![0u64; n_preds as usize * words];
        let mut live = BitSet::new(n_nodes as usize);
        for (i, ring) in rings.iter().enumerate() {
            ring.c_p_ref()
                .for_each_nonempty(|p| owners[p as usize * words + i / 64] |= 1 << (i % 64));
            // In the completed graph a node's subject block covers both
            // directions of its incidence.
            ring.c_s_ref().for_each_nonempty(|v| live.set(v as usize));
        }
        let parts = rings
            .into_iter()
            .map(|ring| ShardPart {
                ring,
                probes: AtomicU64::new(0),
            })
            .collect();
        Self {
            parts,
            owners,
            words,
            live,
        }
    }

    /// The partless set an unsharded [`SourceSnapshot`] carries.
    fn empty() -> Self {
        Self {
            parts: Vec::new(),
            owners: Vec::new(),
            words: 0,
            live: BitSet::new(0),
        }
    }

    /// Indices of the shards holding at least one triple labeled `p`
    /// (completed alphabet), ascending.
    pub fn owners(&self, p: Id) -> impl Iterator<Item = usize> + '_ {
        let row = &self.owners[p as usize * self.words..][..self.words];
        row.iter().enumerate().flat_map(|(w, &word)| {
            std::iter::successors(Some(word), |m| Some(m & m.wrapping_sub(1)))
                .take_while(|&m| m != 0)
                .map(move |m| w * 64 + m.trailing_zeros() as usize)
        })
    }

    /// Whether `v` has at least one edge in some shard.
    pub fn is_live(&self, v: Id) -> bool {
        (v as usize) < self.live.len() && self.live.get(v as usize)
    }

    /// The shared node universe.
    pub fn n_nodes(&self) -> Id {
        self.live.len() as Id
    }

    /// Gathers into `out` the first `cap` subjects of `p`-edges, ascending.
    /// Every owner lists ascending — so none has to list more than `cap`
    /// — and only an answer drawn from several shards is merged.
    fn gather(&self, p: Id, cap: usize, out: &mut Vec<Id>) {
        let (mut answered, mut listed) = (0, Vec::new());
        for i in self.owners(p) {
            self.parts[i].note_probe();
            self.parts[i].ring.label_subjects(p, cap, &mut listed);
            answered += usize::from(!listed.is_empty());
            out.append(&mut listed);
        }
        if answered > 1 {
            // A subject can source `p` edges in several shards
            // (subject-range splits of skewed predicates put its
            // in-edges — hence its `p̂` sources — wherever the other
            // endpoint lives), so merged gathers dedup.
            out.sort_unstable();
            out.dedup();
            out.truncate(cap);
        }
    }
}

impl Deref for ShardSet {
    type Target = [ShardPart];

    fn deref(&self) -> &[ShardPart] {
        &self.parts
    }
}

/// A source of triples to evaluate against: the immutable ring plus an
/// optional committed delta overlay.
pub trait TripleSource {
    /// The succinct base index.
    fn ring(&self) -> &Ring;
    /// The committed overlay, if this source has (non-empty) live
    /// updates. `None` selects the pure succinct hot path.
    fn delta(&self) -> Option<&DeltaIndex> {
        None
    }
    /// The partition and routing table of a horizontally sharded source.
    /// `None` for single-ring sources (the pure hot path); a returned
    /// set has at least two parts and its part 0 is the ring
    /// [`TripleSource::ring`] returns.
    fn shards(&self) -> Option<&ShardSet> {
        None
    }
    /// The parts of [`TripleSource::shards`] (empty when unsharded).
    fn shard_parts(&self) -> &[ShardPart] {
        match self.shards() {
            Some(set) => set,
            None => &[],
        }
    }
}

impl TripleSource for Ring {
    fn ring(&self) -> &Ring {
        self
    }
}

impl TripleSource for StoreSnapshot {
    fn ring(&self) -> &Ring {
        &self.ring
    }

    fn delta(&self) -> Option<&DeltaIndex> {
        (!self.delta.is_empty()).then_some(&*self.delta)
    }
}

/// A shareable, epoch-stamped evaluation snapshot — what a serving layer
/// captures at submit time and holds for the whole evaluation. Cheap to
/// clone; immutable once published.
#[derive(Clone, Debug)]
pub struct SourceSnapshot {
    /// The snapshot version (0 for immutable sources; bumped by every
    /// commit/compaction of an updatable source).
    pub epoch: u64,
    /// The succinct base index (shard 0's ring for sharded sources).
    pub ring: Arc<Ring>,
    /// The committed overlay, if any (never present together with
    /// shards: sharded sources are immutable).
    pub delta: Option<Arc<DeltaIndex>>,
    /// The shard partition with its routing table, shared with the
    /// source it was taken from (partless for single-ring sources; a
    /// single part is evaluated as the ring it is).
    pub shards: Arc<ShardSet>,
}

impl SourceSnapshot {
    /// A snapshot of an immutable ring (epoch 0, no overlay).
    pub fn immutable(ring: Arc<Ring>) -> Self {
        Self {
            epoch: 0,
            ring,
            delta: None,
            shards: Arc::new(ShardSet::empty()),
        }
    }

    /// The snapshot of an updatable store.
    pub fn from_store(snap: &StoreSnapshot) -> Self {
        Self {
            delta: (!snap.delta.is_empty()).then(|| Arc::clone(&snap.delta)),
            epoch: snap.epoch,
            ..Self::immutable(Arc::clone(&snap.ring))
        }
    }

    /// The evaluation node universe (ring nodes plus delta nodes; shards
    /// share the global universe by construction).
    pub fn n_nodes(&self) -> Id {
        MergedView::new(self).n_nodes()
    }
}

impl TripleSource for SourceSnapshot {
    fn ring(&self) -> &Ring {
        &self.ring
    }

    fn delta(&self) -> Option<&DeltaIndex> {
        self.delta.as_deref().filter(|d| !d.is_empty())
    }

    fn shards(&self) -> Option<&ShardSet> {
        (self.shards.len() > 1).then_some(&*self.shards)
    }
}

/// An immutable horizontally sharded source: one sub-ring per shard,
/// evaluated by gathering every [`MergedView`] primitive from the parts
/// its [`ShardSet`] routes it to. A single-part source degenerates to
/// the pure (unsharded) hot path.
#[derive(Clone, Debug)]
pub struct ShardedSource {
    set: Arc<ShardSet>,
}

impl ShardedSource {
    /// Wraps the shard sub-rings ([`ShardSet::new`]: the routing table
    /// is built here, once for the life of the source).
    pub fn new(rings: Vec<Arc<Ring>>) -> Self {
        Self {
            set: Arc::new(ShardSet::new(rings)),
        }
    }

    /// The shard set, including part 0.
    pub fn parts(&self) -> &Arc<ShardSet> {
        &self.set
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.set.len()
    }

    /// Total indexed triples across the partition (completed graph G↔).
    pub fn n_triples(&self) -> usize {
        self.set.iter().map(|p| p.ring.n_triples()).sum()
    }

    /// An epoch-0 snapshot sharing this source's set (parts, probe
    /// counters and routing table).
    pub fn snapshot(&self) -> SourceSnapshot {
        SourceSnapshot {
            shards: Arc::clone(&self.set),
            ..SourceSnapshot::immutable(Arc::clone(&self.set[0].ring))
        }
    }
}

impl TripleSource for ShardedSource {
    fn ring(&self) -> &Ring {
        &self.set[0].ring
    }

    fn shards(&self) -> Option<&ShardSet> {
        (self.set.len() > 1).then_some(&*self.set)
    }
}

/// The step-level merge of a ring and its delta — or of a shard
/// partition. All label arguments are from the **completed** alphabet
/// `Σ↔` (the delta canonicalizes internally); all node enumerations come
/// back **sorted ascending and distinct**, which also makes merged
/// traversal orders deterministic (and, for shards, independent of the
/// partitioning).
///
/// A delta and shards never co-occur: sharded sources are immutable, and
/// their primitives are answered by the owners of the probed label alone
/// — the base ring is consulted only when it is one of them.
#[derive(Clone, Copy)]
pub struct MergedView<'a> {
    /// The succinct base index (shard 0's ring when sharded).
    pub ring: &'a Ring,
    /// The committed overlay (`None` = pure ring semantics).
    pub delta: Option<&'a DeltaIndex>,
    /// The shard set of a sharded source (`None` = unsharded).
    pub shards: Option<&'a ShardSet>,
}

impl<'a> MergedView<'a> {
    /// A view over a source (delta present only when non-empty).
    pub fn new(source: &'a (impl TripleSource + ?Sized)) -> Self {
        Self::with_shards(source.ring(), source.delta(), source.shards())
    }

    /// A delta-free view (pure ring semantics).
    pub fn ring_only(ring: &'a Ring) -> Self {
        Self::with_shards(ring, None, None)
    }

    /// Builds a view from already-split parts (unsharded).
    pub fn from_parts(ring: &'a Ring, delta: Option<&'a DeltaIndex>) -> Self {
        Self::with_shards(ring, delta, None)
    }

    /// Builds a view over a shard set (whose part 0 must be `ring`).
    pub fn with_shards(
        ring: &'a Ring,
        delta: Option<&'a DeltaIndex>,
        shards: Option<&'a ShardSet>,
    ) -> Self {
        debug_assert!(
            shards.is_none_or(|set| std::ptr::eq(&*set[0].ring, ring)),
            "shards[0] must be the view's base ring"
        );
        debug_assert!(
            shards.is_none() || delta.is_none(),
            "sharded sources are immutable"
        );
        Self {
            ring,
            delta: delta.filter(|d| !d.is_empty()),
            shards,
        }
    }

    /// The evaluation node universe.
    pub fn n_nodes(&self) -> Id {
        self.ring
            .n_nodes()
            .max(self.delta.map_or(0, |d| d.n_nodes()))
            .max(self.shards.map_or(0, |set| set.n_nodes()))
    }

    /// Whether `v` has at least one live edge (completed-graph
    /// incidence: in the completed graph a node's subject block already
    /// covers both directions).
    pub fn node_exists(&self, v: Id) -> bool {
        if let Some(set) = self.shards {
            return set.is_live(v);
        }
        let ring_incidence = if v < self.ring.n_nodes() {
            let (b, e) = self.ring.subject_range(v);
            e - b
        } else {
            0
        };
        match self.delta {
            None => ring_incidence > 0,
            // The adds are searched only if they can still change the
            // answer: every traversal starts here, most of them short.
            Some(d) => {
                let deleted = d.deleted_incidence(v);
                ring_incidence > deleted || ring_incidence + d.added_incidence(v) > deleted
            }
        }
    }

    /// Whether the completed-alphabet edge `(s, p, o)` is live.
    pub fn has_edge(&self, s: Id, p: Id, o: Id) -> bool {
        if let Some(set) = self.shards {
            return set.owners(p).any(|i| {
                set[i].note_probe();
                set[i].ring.contains(s, p, o)
            });
        }
        if let Some(d) = self.delta {
            if d.del_contains(s, p, o) {
                return false;
            }
            if d.add_contains(s, p, o) {
                return true;
            }
        }
        self.ring.contains(s, p, o)
    }

    /// Replaces `out` with the first `cap` distinct subjects that have at
    /// least one live edge labeled `p`, ascending (a ring subject whose
    /// every `p`-edge is tombstoned is excluded) — listed at their cost
    /// and not the label's, unless the delta holds tombstones of `p`,
    /// which can take any listed subject away again.
    pub fn first_subjects_of_pred(&self, p: Id, cap: usize, out: &mut Vec<Id>) {
        out.clear();
        if let Some(set) = self.shards {
            return set.gather(p, cap, out);
        }
        let tombstoned = self.delta.is_some_and(|d| d.del_count_label(p) > 0);
        let ring_cap = if tombstoned { usize::MAX } else { cap };
        self.ring.label_subjects(p, ring_cap, out);
        if let Some(d) = self.delta {
            if tombstoned {
                let (b, e) = self.ring.pred_range(p);
                out.retain(|&s| {
                    // Cheap delta probe first: only tombstoned subjects
                    // pay the two wavelet ranks.
                    let deleted = d.del_count_from(s, p);
                    if deleted == 0 {
                        return true;
                    }
                    let ring_count = self.ring.l_s().rank(s, e) - self.ring.l_s().rank(s, b);
                    ring_count > deleted
                });
            }
            let ring_len = out.len();
            d.added_sources(p, out);
            if out.len() > ring_len {
                out.sort_unstable();
                out.dedup();
            }
            out.truncate(cap);
        }
    }
}

/// The pseudo-part of subjects part one listed itself: a delta's adds
/// into an item.
const LISTED: u32 = u32::MAX;

/// What a layered source keeps of a chunk between part one and part two.
#[derive(Default)]
pub(crate) struct LayeredWork {
    /// Per work item: its object, its label, and whether the delta holds
    /// tombstones that can take swept subjects away.
    keys: Vec<(Id, Label, bool)>,
    /// `(part, work item, range)`: a range of the part's `L_s`, or of
    /// `listed` for [`LISTED`].
    ranges: Vec<(u32, u32, Range)>,
    /// Subjects part one listed itself.
    listed: Vec<Id>,
    /// Part two's answers of every part, and the adds: `(work item,
    /// subject)` (node ids fit 32 bits).
    found: Vec<(u32, u32)>,
}

impl LayeredWork {
    pub(crate) fn clear(&mut self) {
        self.keys.clear();
        self.ranges.clear();
        self.listed.clear();
    }

    pub(crate) fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.keys.capacity() * size_of::<(Id, Label, bool)>()
            + self.ranges.capacity() * size_of::<(u32, u32, Range)>()
            + self.listed.capacity() * size_of::<Id>()
            + self.found.capacity() * size_of::<(u32, u32)>()
    }
}

/// The layered instantiation: every step is taken in each shard that
/// owns the label — batched over the chunk, as on a bare ring — and the
/// per-shard answers are merged; a delta's adds join the same merge and
/// its tombstones are filtered out of it. Work items and subject lists
/// come out exactly as one ring over the merged triples would give them.
impl StepSource for MergedView<'_> {
    fn ring(&self) -> &Ring {
        self.ring
    }

    fn n_nodes(&self) -> Id {
        MergedView::n_nodes(self)
    }

    fn node_exists(&self, v: Id) -> bool {
        MergedView::node_exists(self, v)
    }

    fn has_edge(&self, s: Id, p: Label, o: Id) -> bool {
        MergedView::has_edge(self, s, p, o)
    }

    fn label_subjects(&self, p: Label, cap: usize, out: &mut Vec<Id>) {
        self.first_subjects_of_pred(p, cap, out)
    }

    /// One batched backward step per firing label and owner, then the
    /// hits regrouped item by item and the owners' ranges of one `(item,
    /// label)` folded into one work item.
    fn fire(&self, firing: &Firing<'_>, chunk: &[(Id, u64)], x: &mut ChunkExpansion) {
        x.begin();
        let union_d = chunk.iter().fold(0, |all, &(_, d)| all | d);
        let adds = self.delta.filter(|d| d.n_adds() > 0);
        let dels = self.delta.filter(|d| d.n_dels() > 0);
        for &(label, bmask) in firing.labels.iter().filter(|l| l.1 & union_d != 0) {
            // Every ring holding the label: the owners the routing table
            // names (each noted as probed), or the one ring.
            match self.shards {
                None => x.step_hits((0, self.ring), (label, bmask), chunk),
                Some(set) => set.owners(label).for_each(|i| {
                    set[i].note_probe();
                    x.step_hits((i as u32, &set[i].ring), (label, bmask), chunk)
                }),
            }
            if let Some(delta) = adds {
                let listed = &mut x.layered.listed;
                let firing_from = chunk.iter().enumerate().filter(|(_, it)| it.1 & bmask != 0);
                for (item, &(o, d)) in firing_from {
                    let before = listed.len();
                    delta.added_into(o, label, listed);
                    if listed.len() > before {
                        x.hits.push(Hit {
                            item: item as u32,
                            part: LISTED,
                            label,
                            range: crate::step::narrow((before, listed.len())),
                            d: d & bmask,
                        });
                    }
                }
            }
        }

        // The hits arrived label by label; the stable sort leaves each
        // item's label by label still, a label's owner by owner.
        x.hits.sort_by_key(|hit| hit.item);
        let mut hits = x.hits.iter().peekable();
        for (item, &(o, _)) in chunk.iter().enumerate() {
            while let Some(&&first) = hits.peek().filter(|hit| hit.item as usize == item) {
                let (work, first_range) = (x.work_d.len() as u32, x.layered.ranges.len());
                let mut edges = 0;
                let same = |hit: &&Hit| (hit.item, hit.label) == (first.item, first.label);
                while let Some(hit) = hits.next_if(same) {
                    edges += (hit.range.1 - hit.range.0) as usize;
                    x.layered.ranges.push((hit.part, work, hit.range));
                }
                // Tombstones are of ring edges, adds are not in the ring:
                // the work item stands while live edges remain.
                let deleted = dels.map_or(0, |d| d.del_count_into(o, first.label));
                if edges > deleted {
                    x.work_d.push(firing.back(first.d));
                    x.layered.keys.push((o, first.label, deleted > 0));
                } else {
                    x.layered.ranges.truncate(first_range);
                }
            }
            x.item_end.push(x.work_d.len());
        }
    }

    /// Part two in each part that holds ranges, as on a bare ring (one
    /// batched access of its `L_s`); the answers of several parts, and a
    /// delta's adds, are merged by `(work item, subject)`.
    fn subjects(&self, visited: Option<&EpochArray>, x: &mut ChunkExpansion) {
        let n_work = x.work_d.len();
        let narrow = |s: Id| u32::try_from(s).expect("node ids fit 32 bits");
        let mut found = std::mem::take(&mut x.layered.found);
        found.clear();
        // Whether `found` holds more than one sorted run.
        let (mut swept, mut merge) = (false, false);
        for part in 0..self.shards.map_or(1, |set| set.len()) as u32 {
            x.ranges.clear();
            x.ranges.resize(n_work, (0, 0));
            let mut any = false;
            for &(of, work, range) in &x.layered.ranges {
                if of == part && x.work_d[work as usize] != 0 {
                    x.ranges[work as usize] = range;
                    any = true;
                }
            }
            if any {
                let ring = self
                    .shards
                    .map_or(self.ring, |set| &set[part as usize].ring);
                x.access_subjects(ring.l_s(), visited);
                if !x.subjects.is_empty() {
                    merge |= swept;
                    swept = true;
                }
                found.extend(x.work_subjects().map(|(work, s)| (work, narrow(s))));
            }
        }
        let keys = &x.layered.keys;
        if let Some(delta) = self.delta.filter(|_| keys.iter().any(|key| key.2)) {
            found.retain(|&(work, s)| match keys[work as usize] {
                (_, _, false) => true,
                (o, p, true) => !delta.del_contains(Id::from(s), p, o),
            });
        }
        for &(part, work, (b, e)) in &x.layered.ranges {
            if part == LISTED && x.work_d[work as usize] != 0 {
                // (Not read against `visited`: the replay's leaf filter is
                // exact, and a delta's adds are few.)
                let listed = &x.layered.listed[b as usize..e as usize];
                found.extend(listed.iter().map(|&s| (work, narrow(s))));
                merge = true;
            }
        }
        if merge {
            // A subject can source the label in several shards, or in the
            // ring and the adds both.
            found.sort_unstable();
            found.dedup();
        }
        x.subjects.clear();
        x.work_end.clear();
        let mut next = found.iter().peekable();
        for work in 0..n_work as u32 {
            while let Some(&(_, s)) = next.next_if(|found| found.0 == work) {
                x.subjects.push(Id::from(s));
            }
            x.work_end.push(x.subjects.len());
        }
        x.layered.found = found;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::step::step_label;
    use ring::ring::RingOptions;
    use ring::{Graph, Triple};

    fn t(s: Id, p: Id, o: Id) -> Triple {
        Triple::new(s, p, o)
    }

    /// 0 -a-> 1 -a-> 2, 2 -b-> 0; delta deletes (1,a,2), adds (0,a,2)
    /// and (4,b,0) (node 4 is delta-only).
    fn fixture() -> (Ring, DeltaIndex) {
        let g = Graph::from_triples(vec![t(0, 0, 1), t(1, 0, 2), t(2, 1, 0)]);
        let ring = Ring::build(&g, RingOptions::default());
        let delta = DeltaIndex::new(vec![t(0, 0, 2), t(4, 1, 0)], vec![t(1, 0, 2)], 2);
        (ring, delta)
    }

    #[test]
    fn merged_steps_mask_deletes_and_add_edges() {
        let (ring, delta) = fixture();
        let v = MergedView::from_parts(&ring, Some(&delta));
        let (mut x, mut out) = (ChunkExpansion::default(), Vec::new());
        // Into node 2 by a: ring gives {1}, tombstoned; delta adds {0}.
        step_label(&v, 0, &[(2, 1)], &mut x);
        assert_eq!(x.subjects, vec![0]);
        // Into node 0 by b: ring {2} plus delta {4}.
        step_label(&v, 1, &[(0, 1)], &mut x);
        assert_eq!(x.subjects, vec![2, 4]);
        // Inverse direction: subjects of ^b into 4 is {0}.
        step_label(&v, ring.inverse_label(1), &[(4, 1)], &mut x);
        assert_eq!(x.subjects, vec![0]);
        // Sources of a: ring {0, 1}, but 1 lost its only a-edge.
        v.first_subjects_of_pred(0, usize::MAX, &mut out);
        assert_eq!(out, vec![0]);
        // Sources of b: ring {2} plus delta {4}.
        v.first_subjects_of_pred(1, usize::MAX, &mut out);
        assert_eq!(out, vec![2, 4]);
        assert!(v.has_edge(0, 0, 2));
        assert!(!v.has_edge(1, 0, 2));
        assert!(!v.has_edge(0, ring.inverse_label(0), 0));
        assert!(v.node_exists(4));
        assert_eq!(v.n_nodes(), 5);
    }

    #[test]
    fn delta_free_view_matches_the_ring() {
        let (ring, _) = fixture();
        let v = MergedView::ring_only(&ring);
        let mut x = ChunkExpansion::default();
        step_label(&v, 0, &[(2, 1)], &mut x);
        assert_eq!(x.subjects, vec![1]);
        assert!(v.node_exists(0));
        assert!(!v.node_exists(4));
        assert_eq!(v.n_nodes(), 3);
    }

    #[test]
    fn node_vanishes_when_every_edge_is_tombstoned() {
        let g = Graph::from_triples(vec![t(0, 0, 1)]);
        let ring = Ring::build(&g, RingOptions::default());
        let delta = DeltaIndex::new(vec![], vec![t(0, 0, 1)], 1);
        let v = MergedView::from_parts(&ring, Some(&delta));
        assert!(!v.node_exists(0));
        assert!(!v.node_exists(1));
    }

    fn sharded(graph: &Graph, n_shards: usize) -> ShardedSource {
        let idx = ring::sharded::ShardedIndex::build(graph, n_shards, RingOptions::default());
        ShardedSource::new(idx.into_shards().into_iter().map(Arc::new).collect())
    }

    /// 40 nodes (38 and 39 isolated), six predicates: 0 holds 60 of the
    /// 84 triples — the partitioner cuts it by subject range — 1..=4
    /// hold six each, 5 none.
    fn skewed_graph() -> Graph {
        let mut triples: Vec<Triple> = (0..60).map(|i| t(i % 36, 0, (i * 7 + 1) % 38)).collect();
        for p in 1..=4 {
            triples.extend((0..6).map(|i| t(p * 6 + i, p, (p + i * 5) % 38)));
        }
        Graph::new(triples, 40, 6)
    }

    #[test]
    fn routing_table_names_exactly_the_owners_and_the_live_nodes() {
        let tiny = Graph::from_triples(vec![t(0, 0, 1), t(1, 0, 2)]);
        let mut hot_split = false;
        let mut empty_shard = false;
        for (graph, n_shards) in [
            (skewed_graph(), 1),
            (skewed_graph(), 2),
            (skewed_graph(), 4),
            (skewed_graph(), 8),
            (tiny, 4),
        ] {
            let source = sharded(&graph, n_shards);
            let set = source.parts();
            assert_eq!(set.len(), n_shards);
            empty_shard |= set.iter().any(|part| part.ring.n_triples() == 0);
            // Every label of the completed alphabet, inverses included.
            for p in 0..set[0].ring.n_preds() {
                let holders: Vec<usize> = (0..n_shards)
                    .filter(|&i| {
                        let (b, e) = set[i].ring.pred_range(p);
                        e > b
                    })
                    .collect();
                assert_eq!(
                    set.owners(p).collect::<Vec<_>>(),
                    holders,
                    "{n_shards} shards: owners of label {p}"
                );
                hot_split |= holders.len() > 1;
            }
            assert_eq!(set.n_nodes(), graph.n_nodes());
            for v in 0..graph.n_nodes() + 2 {
                // Node existence as it was probed before the table: some
                // shard holds an edge at `v`.
                let probed = set.iter().any(|part| {
                    v < part.ring.n_nodes() && {
                        let (b, e) = part.ring.subject_range(v);
                        e > b
                    }
                });
                assert_eq!(set.is_live(v), probed, "{n_shards} shards: node {v}");
                if n_shards > 1 {
                    assert_eq!(MergedView::new(&source).node_exists(v), probed);
                }
            }
        }
        assert!(hot_split, "fixture lost its subject-split predicate");
        assert!(empty_shard, "fixture lost its empty shard");
    }

    #[test]
    fn routing_table_is_built_once_per_source() {
        let source = sharded(&skewed_graph(), 4);
        let snap = source.snapshot();
        let again = source.snapshot().clone();
        assert!(Arc::ptr_eq(&snap.shards, source.parts()));
        assert!(Arc::ptr_eq(&snap.shards, &again.shards));
        assert!(std::ptr::eq(
            snap.shards().expect("four parts"),
            source.shards().expect("four parts")
        ));
    }

    #[test]
    fn a_single_predicate_query_probes_one_shard() {
        use crate::{EngineOptions, RpqEngine, RpqQuery, Term};
        use automata::Regex;

        // Four predicates of ten triples each: one per shard, none split.
        let triples = (0..4)
            .flat_map(|p| (0..10).map(move |i| t(i, p, (i + p + 1) % 12)))
            .collect();
        let source = sharded(&Graph::from_triples(triples), 4);
        let set = source.parts();
        let probes = || -> Vec<u64> { set.iter().map(ShardPart::probe_count).collect() };
        for p in 0..4 {
            let owner: Vec<usize> = set.owners(p).collect();
            assert_eq!(owner.len(), 1, "predicate {p} must not be split");
            for expr in [Regex::label(p), Regex::Plus(Box::new(Regex::label(p)))] {
                let before = probes();
                let query = RpqQuery::new(Term::Const(3), expr, Term::Var);
                let out = RpqEngine::over(&source)
                    .evaluate(&query, &EngineOptions::default())
                    .unwrap();
                assert!(!out.pairs.is_empty());
                let moved: Vec<usize> = (0..4).filter(|&i| probes()[i] > before[i]).collect();
                assert_eq!(moved, owner, "predicate {p}: {query:?}");
            }
        }
    }
}
