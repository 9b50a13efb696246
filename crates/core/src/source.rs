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

use succinct::wavelet_matrix::IntersectionHit;

use crate::scratch::Mask;
use crate::step::{list_from, ChunkExpansion, CommonWalk, Firing, Hit, Range, StepSource};

/// The fewest subjects a layered listing takes at a time when what it
/// takes can be dropped — tombstoned subjects, or subjects of one label
/// the other label lacks ([`next_batch`]).
const LIST_BATCH: usize = 16;

/// The next batch of a listing that kept `kept` of the `listed` subjects
/// it took so far and still wants `missing`: twice what the rate it kept
/// them at says is needed, and at least [`LIST_BATCH`]; twice the last
/// `batch` while it has kept none.
fn next_batch(batch: usize, listed: usize, kept: usize, missing: usize) -> usize {
    if kept == 0 {
        return batch.saturating_mul(2);
    }
    (missing.saturating_mul(2).saturating_mul(listed) / kept).max(LIST_BATCH)
}

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

    /// Replaces `out` with the first `cap` subjects of `p`-edges from
    /// `from` on, ascending. Every owner lists from `from` ascending — so
    /// none has to list more than `cap` — and only an answer drawn from
    /// several shards is merged. Returns the listings' rank computations.
    fn gather(&self, p: Id, from: Id, cap: usize, out: &mut Vec<Id>) -> u64 {
        out.clear();
        let (mut answered, mut ranks) = (0, 0);
        for i in self.owners(p) {
            self.parts[i].note_probe();
            let before = out.len();
            ranks += list_from(&self.parts[i].ring, p, from, cap, out);
            answered += usize::from(out.len() > before);
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
        ranks
    }

    /// Replaces `out` with the first `cap` nodes from `from` on that are
    /// subjects of an `a`-edge in some shard and of a `b`-edge in some
    /// shard: both labels gathered from where the walk stands, in growing
    /// batches, and intersected as far as both gathers reach. Returns the
    /// rank computations.
    fn common(&self, (a, b): (Id, Id), from: Id, cap: usize, out: &mut Vec<Id>) -> u64 {
        let (mut at, mut batch, mut ranks) = (from, cap.max(LIST_BATCH), 0);
        let (mut of_a, mut of_b) = (Vec::new(), Vec::new());
        loop {
            ranks += self.gather(a, at, batch, &mut of_a) + self.gather(b, at, batch, &mut of_b);
            // A gather cut at the batch is whole up to its last subject.
            let whole_to = [&of_a, &of_b]
                .into_iter()
                .filter(|list| list.len() == batch)
                .filter_map(|list| list.last().copied())
                .min();
            let upto = whole_to.unwrap_or(Id::MAX);
            let (mut i, mut j) = (0, 0);
            while i < of_a.len() && j < of_b.len() && of_a[i] <= upto && out.len() < cap {
                match of_a[i].cmp(&of_b[j]) {
                    std::cmp::Ordering::Less => i += 1,
                    std::cmp::Ordering::Greater => j += 1,
                    std::cmp::Ordering::Equal => {
                        out.push(of_a[i]);
                        (i, j) = (i + 1, j + 1);
                    }
                }
            }
            match whole_to {
                Some(last) if out.len() < cap => (at, batch) = (last + 1, batch.saturating_mul(2)),
                _ => return ranks,
            }
        }
    }
}

/// Keeps the elements of `v[start..]` that `keep` holds, in order.
fn retain_from(v: &mut Vec<Id>, start: usize, mut keep: impl FnMut(Id) -> bool) {
    let mut kept = start;
    for at in start..v.len() {
        if keep(v[at]) {
            v[kept] = v[at];
            kept += 1;
        }
    }
    v.truncate(kept);
}

/// Drops the repeats of the ascending `v[start..]`.
fn dedup_from(v: &mut Vec<Id>, start: usize) {
    let mut last = None;
    retain_from(v, start, |s| last.replace(s) != Some(s));
}

/// Merges the ascending, distinct `more` into the ascending, distinct
/// `v`, once each.
fn merge_into(v: &mut Vec<Id>, more: &[Id]) {
    if more.is_empty() {
        return;
    }
    let old = std::mem::take(v);
    let (mut i, mut j) = (0, 0);
    while i < old.len() && j < more.len() {
        let (a, b) = (old[i], more[j]);
        v.push(a.min(b));
        i += usize::from(a <= b);
        j += usize::from(b <= a);
    }
    v.extend_from_slice(&old[i..]);
    v.extend_from_slice(&more[j..]);
}

/// What a delta holds of one label: the subjects of its added edges,
/// ascending and distinct, and those of its tombstoned edges, ascending,
/// a subject once per tombstone.
struct LabelDelta {
    adds: Vec<Id>,
    dels: Vec<Id>,
}

impl LabelDelta {
    fn of(delta: &DeltaIndex, p: Id) -> Self {
        let (mut adds, mut dels) = (Vec::new(), Vec::new());
        delta.added_sources(p, &mut adds);
        delta.deleted_sources(p, &mut dels);
        Self { adds, dels }
    }

    /// The tombstones of `s`'s edges.
    fn deleted(&self, s: Id) -> usize {
        let from = self.dels.partition_point(|&d| d < s);
        self.dels[from..].partition_point(|&d| d == s)
    }

    /// Whether `s`, the subject of `ring_edges` ring edges of the label,
    /// has a live one.
    fn live(&self, s: Id, ring_edges: usize) -> bool {
        ring_edges > self.deleted(s) || self.adds.binary_search(&s).is_ok()
    }
}

/// The first `cap` nodes from `from` on that are subjects of both an
/// `a`-edge and a `b`-edge of `ring`, each with its rank range in both
/// labels' blocks — §5's intersection of two blocks of `L_s`
/// (`WaveletMatrix::range_intersect_from`). Returns its rank
/// computations.
fn intersect_from(
    ring: &Ring,
    (a, b): (Id, Id),
    from: Id,
    cap: usize,
    hits: &mut Vec<IntersectionHit>,
) -> u64 {
    let blocks = (ring.pred_range(a), ring.pred_range(b));
    ring.l_s()
        .range_intersect_from(blocks.0, blocks.1, from, cap, hits) as u64
}

/// How many edges of the block `(b, e)` of `ring`'s `L_s` have the
/// subject `s`, and the rank computations counting them took: both ends
/// and the node start they share, per level.
fn edges_in(ring: &Ring, s: Id, (b, e): (usize, usize)) -> (usize, u64) {
    if s >= ring.n_nodes() {
        return (0, 0);
    }
    let mut ends = [b, e];
    ring.l_s().rank_batch(s, &mut ends);
    (ends[1] - ends[0], 3 * ring.l_s().width() as u64)
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
    fn with_shards(
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
    /// every `p`-edge is tombstoned is excluded), listed at their cost
    /// and not the label's; returns the listing's rank computations.
    pub fn first_subjects_of_pred(&self, p: Id, cap: usize, out: &mut Vec<Id>) -> u64 {
        out.clear();
        if cap == 0 {
            return 0;
        }
        match (self.shards, self.delta) {
            (Some(set), _) => set.gather(p, 0, cap, out),
            (None, None) => list_from(self.ring, p, 0, cap, out),
            (None, Some(delta)) => self.live_subjects(delta, p, cap, out),
        }
    }

    /// [`Self::first_subjects_of_pred`] under a delta: the ring's subjects
    /// in growing batches, each whose every `p`-edge is tombstoned
    /// dropped (its ring edges counted by rank), until `cap` are live or
    /// the label runs out; then the adds merged in.
    fn live_subjects(&self, delta: &DeltaIndex, p: Id, cap: usize, out: &mut Vec<Id>) -> u64 {
        let label = LabelDelta::of(delta, p);
        let mut ranks = 0;
        if label.dels.is_empty() {
            ranks += list_from(self.ring, p, 0, cap, out);
        } else {
            let block = self.ring.pred_range(p);
            let (mut from, mut batch, mut listed) = (0, cap.max(LIST_BATCH), Vec::new());
            let mut taken = 0;
            loop {
                listed.clear();
                ranks += list_from(self.ring, p, from, batch, &mut listed);
                taken += listed.len();
                for &s in &listed {
                    let deleted = label.deleted(s);
                    if deleted > 0 {
                        let (edges, took) = edges_in(self.ring, s, block);
                        ranks += took;
                        if edges <= deleted {
                            continue;
                        }
                    }
                    out.push(s);
                }
                match listed.last() {
                    Some(&last) if listed.len() == batch && out.len() < cap => {
                        from = last + 1;
                        batch = next_batch(batch, taken, out.len(), cap - out.len());
                    }
                    _ => break,
                }
            }
        }
        merge_into(out, &label.adds);
        out.truncate(cap);
        ranks
    }

    /// Replaces `out` with the first `cap` nodes from `from` on that are
    /// subjects of both a live `a`-edge and a live `b`-edge, ascending —
    /// found no further than the batch on every source; returns the rank
    /// computations that took.
    pub fn common_subjects_from(
        &self,
        labels: (Id, Id),
        from: Id,
        cap: usize,
        out: &mut Vec<Id>,
    ) -> u64 {
        out.clear();
        if cap == 0 {
            return 0;
        }
        match (self.shards, self.delta) {
            (Some(set), _) => set.common(labels, from, cap, out),
            (None, None) => {
                let mut hits = Vec::new();
                let ranks = intersect_from(self.ring, labels, from, cap, &mut hits);
                out.extend(hits.iter().map(|hit| hit.0));
                ranks
            }
            (None, Some(delta)) => self.live_common(delta, labels, from, cap, out),
        }
    }

    /// [`Self::common_subjects_from`] under a delta: the ring's common
    /// subjects in growing batches, each kept while it has a live edge of
    /// both labels (the intersection counts its ring edges of each), then
    /// the subjects an add gives one label, checked against the other.
    fn live_common(
        &self,
        delta: &DeltaIndex,
        (a, b): (Id, Id),
        from: Id,
        cap: usize,
        out: &mut Vec<Id>,
    ) -> u64 {
        let (of_a, of_b) = (LabelDelta::of(delta, a), LabelDelta::of(delta, b));
        let (mut at, mut batch, mut hits, mut ranks) = (from, cap.max(LIST_BATCH), Vec::new(), 0);
        let mut taken = 0;
        loop {
            ranks += intersect_from(self.ring, (a, b), at, batch, &mut hits);
            taken += hits.len();
            for &(s, (ab, ae), (bb, be)) in &hits {
                if of_a.live(s, ae - ab) && of_b.live(s, be - bb) {
                    out.push(s);
                }
            }
            match hits.last() {
                Some(&(last, ..)) if hits.len() == batch && out.len() < cap => {
                    at = last + 1;
                    batch = next_batch(batch, taken, out.len(), cap - out.len());
                }
                _ => break,
            }
        }
        // Past the `cap`-th common subject of the ring nothing is wanted.
        let bound = out.get(cap - 1).copied().unwrap_or(Id::MAX);
        let mut added = Vec::new();
        let sides = [
            (&of_a, &of_b, self.ring.pred_range(b)),
            (&of_b, &of_a, self.ring.pred_range(a)),
        ];
        for (this, other, other_block) in sides {
            let wanted = this.adds.iter().skip_while(|&&s| s < from);
            for &s in wanted.take_while(|&&s| s < bound) {
                // Counted by rank only if neither the ring's intersection
                // nor the other label's adds already settled it.
                if out.binary_search(&s).is_ok() {
                    continue;
                }
                let edges = if other.adds.binary_search(&s).is_ok() {
                    0
                } else {
                    let (edges, took) = edges_in(self.ring, s, other_block);
                    ranks += took;
                    edges
                };
                if other.live(s, edges) {
                    added.push(s);
                }
            }
        }
        added.sort_unstable();
        added.dedup();
        merge_into(out, &added);
        out.truncate(cap);
        ranks
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
    /// `(item, label, tombstones)` of every `(item, label)` the delta
    /// holds tombstoned edges into.
    deleted: Vec<(u32, Label, usize)>,
    /// Part two's answers of each part: its subjects and, per work item,
    /// where they end (no ends where the part holds no range).
    runs: Vec<(Vec<Id>, Vec<usize>)>,
    /// The tombstoned subjects of one work item.
    tombstoned: Vec<Id>,
}

impl LayeredWork {
    pub(crate) fn clear(&mut self) {
        self.keys.clear();
        self.ranges.clear();
        self.listed.clear();
        self.deleted.clear();
    }

    pub(crate) fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        let runs: usize = self
            .runs
            .iter()
            .map(|(subjects, ends)| {
                subjects.capacity() * size_of::<Id>() + ends.capacity() * size_of::<usize>()
            })
            .sum();
        self.keys.capacity() * size_of::<(Id, Label, bool)>()
            + self.ranges.capacity() * size_of::<(u32, u32, Range)>()
            + self.listed.capacity() * size_of::<Id>()
            + self.deleted.capacity() * size_of::<(u32, Label, usize)>()
            + self.runs.capacity() * size_of::<(Vec<Id>, Vec<usize>)>()
            + runs
            + self.tombstoned.capacity() * size_of::<Id>()
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

    fn label_subjects(&self, p: Label, cap: usize, out: &mut Vec<Id>) -> u64 {
        self.first_subjects_of_pred(p, cap, out)
    }

    fn common_subjects(&self, walk: &mut CommonWalk, cap: usize, out: &mut Vec<Id>) -> u64 {
        let ranks = self.common_subjects_from(walk.labels, walk.from, cap, out);
        walk.passed(out);
        ranks
    }

    /// One batched backward step per firing label and owner, and the
    /// delta's adds and tombstones into the items, read with one forward
    /// cursor per label (a chunk's items ascend by node: a level is put in
    /// node order, and a join steps ascending batches); then the hits
    /// regrouped item by item and the owners' ranges of one `(item,
    /// label)` folded into one work item.
    fn fire<M: Mask>(&self, firing: &Firing<'_, M>, chunk: &[(Id, M)], x: &mut ChunkExpansion<M>) {
        x.begin();
        let union_d = chunk.iter().fold(M::ZERO, |all, &(_, d)| all.or(d));
        let adds = self.delta.filter(|d| d.n_adds() > 0);
        let dels = self.delta.filter(|d| d.n_dels() > 0);
        for &(label, bmask) in firing.labels.iter().filter(|l| l.1.intersects(union_d)) {
            // Every ring holding the label: the owners the routing table
            // names (each noted as probed), or the one ring.
            match self.shards {
                None => x.step_hits((0, self.ring), (label, bmask), chunk),
                Some(set) => set.owners(label).for_each(|i| {
                    set[i].note_probe();
                    x.step_hits((i as u32, &set[i].ring), (label, bmask), chunk)
                }),
            }
            let firing_from = || {
                let items = chunk.iter().enumerate();
                items.filter(move |(_, it)| it.1.intersects(bmask))
            };
            if let Some(delta) = adds {
                let (mut into, listed) = (delta.added_into_cursor(label), &mut x.layered.listed);
                for (item, &(o, d)) in firing_from() {
                    let before = listed.len();
                    listed.extend(into.seek(o));
                    if listed.len() > before {
                        x.hits.push(Hit {
                            item: item as u32,
                            part: LISTED,
                            label,
                            range: crate::step::narrow((before, listed.len())),
                            d: d.and(bmask),
                        });
                    }
                }
            }
            if let Some(delta) = dels {
                let mut into = delta.deleted_into_cursor(label);
                for (item, &(o, _)) in firing_from() {
                    let tombstones = into.seek(o).len();
                    if tombstones > 0 {
                        x.layered.deleted.push((item as u32, label, tombstones));
                    }
                }
            }
        }

        // The hits arrived label by label; the stable sort leaves each
        // item's label by label still, a label's owner by owner. The
        // tombstone counts, few, are put in the same order.
        x.hits.sort_by_key(|hit| hit.item);
        x.layered.deleted.sort_unstable();
        let mut tombstones = x.layered.deleted.iter().peekable();
        let mut hits = x.hits.iter().peekable();
        for (item, &(o, _)) in chunk.iter().enumerate() {
            while let Some(&&first) = hits.peek().filter(|hit| hit.item as usize == item) {
                let (work, first_range) = (x.work_d.len() as u32, x.layered.ranges.len());
                let mut edges = 0;
                let key = (first.item, first.label);
                while let Some(hit) = hits.next_if(|hit| (hit.item, hit.label) == key) {
                    edges += (hit.range.1 - hit.range.0) as usize;
                    x.layered.ranges.push((hit.part, work, hit.range));
                }
                // Tombstones are of ring edges, adds are not in the ring:
                // the work item stands while live edges remain.
                while tombstones.next_if(|del| (del.0, del.1) < key).is_some() {}
                let deleted = tombstones
                    .next_if(|del| (del.0, del.1) == key)
                    .map_or(0, |del| del.2);
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
    /// batched access of its `L_s`); then work item by work item, the
    /// parts' runs and the adds' run — each ascending — are laid out,
    /// merged only where more than one answered, and filtered against
    /// the work item's tombstones.
    fn subjects<M: Mask>(&self, visited: Option<&EpochArray>, x: &mut ChunkExpansion<M>) {
        let n_work = x.work_d.len();
        let mut runs = std::mem::take(&mut x.layered.runs);
        runs.resize_with(self.shards.map_or(1, |set| set.len()), Default::default);
        for (part, run) in runs.iter_mut().enumerate() {
            x.ranges.clear();
            x.ranges.resize(n_work, (0, 0));
            let mut any = false;
            for &(of, work, range) in &x.layered.ranges {
                if of == part as u32 && !x.work_d[work as usize].is_empty() {
                    x.ranges[work as usize] = range;
                    any = true;
                }
            }
            run.1.clear();
            if any {
                let ring = self.shards.map_or(self.ring, |set| &set[part].ring);
                x.access_subjects(ring.l_s(), visited);
                std::mem::swap(&mut x.subjects, &mut run.0);
                std::mem::swap(&mut x.work_end, &mut run.1);
            }
        }
        x.subjects.clear();
        x.work_end.clear();
        let mut listed = x
            .layered
            .ranges
            .iter()
            .filter(|range| range.0 == LISTED)
            .peekable();
        for work in 0..n_work {
            let start = x.subjects.len();
            let mut answered = 0;
            for (subjects, ends) in runs.iter().filter(|run| !run.1.is_empty()) {
                let run = &subjects[work.checked_sub(1).map_or(0, |w| ends[w])..ends[work]];
                answered += usize::from(!run.is_empty());
                x.subjects.extend_from_slice(run);
            }
            while let Some(&(_, _, (b, e))) = listed.next_if(|range| range.1 as usize == work) {
                // (Not read against `visited`: the replay's leaf filter is
                // exact, and a delta's adds are few.)
                if !x.work_d[work].is_empty() {
                    x.subjects
                        .extend_from_slice(&x.layered.listed[b as usize..e as usize]);
                    answered += 1;
                }
            }
            if answered > 1 {
                // A subject can source the label in several shards, or in
                // the ring and the adds both.
                x.subjects[start..].sort_unstable();
                dedup_from(&mut x.subjects, start);
            }
            if let (Some(delta), (o, p, true)) = (self.delta, x.layered.keys[work]) {
                let tombstoned = &mut x.layered.tombstoned;
                tombstoned.clear();
                delta.deleted_into(o, p, tombstoned);
                retain_from(&mut x.subjects, start, |s| {
                    tombstoned.binary_search(&s).is_err()
                });
            }
            x.work_end.push(x.subjects.len());
        }
        x.layered.runs = runs;
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
