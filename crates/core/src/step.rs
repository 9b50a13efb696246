//! The batch step source: the one thing the traversal
//! ([`crate::kernel`]), the §5 joins ([`crate::fastpath`]) and the
//! rare-label split ([`crate::split`]) ask of an index — which nodes
//! exist, whether an edge does, and the two steps of §4 taken for a whole
//! batch at a time:
//!
//! * **part one** ([`StepSource::fire`]): the labels that fire into a
//!   chunk of `(node, D)` items, as *work items* — one per `(item,
//!   label)` with at least one live edge, item by item, each item's
//!   labels ascending;
//! * **part two** ([`StepSource::subjects`]): the subjects of every work
//!   item, ascending and distinct, read-only against the visited table —
//!   one cell per graph node, `D[s]` in cell `s`, on every source.
//!
//! A bare [`Ring`] answers part one from the chunk's object ranges, looked
//! up once: with one batched backward step of `L_p` per firing label
//! ([`ChunkExpansion::step_hits`]) where the CPU has the AVX-512 gather
//! step and at most [`MAX_STEPPED_LABELS`] labels fire, else with one
//! level-synchronous sweep of `L_p` ([`ChunkExpansion::sweep_hits`]) —
//! the same hits either way. It answers part two with one batched access
//! of `L_s` over every position of every work item. A
//! [`MergedView`](crate::MergedView) over a delta or a shard set steps
//! label by label in each owner shard, merged with the delta arrays
//! ([`crate::source`]). Everything else — frontier, visited table,
//! replay, budget, trace, limits — is written once over this trait.

use std::mem::size_of;

use automata::{BitParallel, Label, StateMask};
use ring::{Id, Ring};
use succinct::util::EpochArray;
use succinct::wavelet_matrix::{MultiRangeGuide, MultiTraversal, RangeGuide};
use succinct::WaveletMatrix;

use crate::scratch::Mask;

/// Which labels fire from which states: what part one is asked with.
pub(crate) struct Firing<'a, M: StateMask = u64> {
    /// `B[p]` of every label that can fire, ascending by label.
    pub(crate) labels: &'a [(Label, M)],
    /// The automaton whose `T'` takes `D & B[p]` one step back (Eq. 2),
    /// and its `B[v]` masks over the wavelet nodes of `L_p` as
    /// [`StepSource::prepare`] left them. `None` for the §5 joins: a
    /// label is followed, no automaton, states pass through as they are.
    pub(crate) automaton: Option<(&'a BitParallel<M>, &'a EpochArray)>,
}

impl<M: StateMask> Firing<'_, M> {
    /// The states a work item's subjects are reached with, from its
    /// `D & B[p]`.
    pub(crate) fn back(&self, d_and_b: M) -> M {
        self.automaton
            .map_or(d_and_b, |(bp, _)| bp.apply_bwd(d_and_b))
    }
}

/// `B[p]` for every label of the completed alphabet that can fire under
/// `bp`, ascending, when that is more than its positive literal masks:
/// negated-class positions expanded against the alphabet.
pub(crate) fn negated_firing_labels<M: StateMask>(
    n_preds: Id,
    bp: &BitParallel<M>,
) -> Vec<(Label, M)> {
    (0..n_preds)
        .map(|p| (p, bp.label_mask(p)))
        .filter(|&(_, mask)| !mask.is_empty())
        .collect()
}

/// A range of positions of one `L_p` or `L_s`, as a chunk's buffers keep
/// them: a chunk holds several per item and per edge, and the steps
/// address 32-bit positions ([`MultiTraversal::run`],
/// [`WaveletMatrix::access_batch`]).
pub(crate) type Range = (u32, u32);

/// Narrows a range `b <= e` of a ring's positions.
///
/// # Panics
/// Panics on a ring of more than 2^32 − 1 positions.
pub(crate) fn narrow((b, e): (usize, usize)) -> Range {
    let e = u32::try_from(e).expect("a chunk addresses 32-bit positions");
    (b as u32, e)
}

/// The most labels that may fire into a chunk — labels whose `B[p]` meets
/// the OR of the chunk's `D` — for part one to take one batched backward
/// step per label ([`ChunkExpansion::step_hits`]) rather than sweep
/// `L_p`. On a 2-thread AVX-512 Xeon, part one of `?x (<p0>|…|<pk−1>)*
/// <n>` over 6 anchors of a 2^20-edge generated graph (each query's
/// fastest of 9, the fastest of 5 runs) took, per label against the
/// sweep, 0.58 of the time at k = 1, 0.67 at 2, 0.64 at 3, 0.73 at 4 and
/// 0.79 at 6, then 0.98 at 8, 1.65 at 16 and 1.38 at 32.
pub(crate) const MAX_STEPPED_LABELS: usize = 6;

/// Whether part one sweeps `L_p` for a chunk `firing` labels fire into,
/// under `bp`, rather than step label by label: where the CPU lacks the
/// AVX-512 level step of [`WaveletMatrix::rank_batch`]
/// ([`succinct::hardware_gather`]; on the same family the portable step
/// was 1.3–2.5× slower than the gather one, 0.81–0.89 of the sweep's time
/// at one or two labels and 1.6–1.9× of it from three on), where the
/// expression has a negated class, and where more than
/// [`MAX_STEPPED_LABELS`] fire.
pub(crate) fn sweeps<M: StateMask>(bp: &BitParallel<M>, firing: usize) -> bool {
    !succinct::hardware_gather()
        || !bp.negated_positions().is_empty()
        || firing > MAX_STEPPED_LABELS
}

/// The states any of `labels` fires from: the OR of their `B[p]`.
pub(crate) fn fired<'a, M: StateMask>(labels: impl Iterator<Item = &'a (Label, M)>) -> M {
    labels.fold(M::ZERO, |all, &(_, b)| all.or(b))
}

/// A part-one leaf: label `label` reaches item `item` with `range` of
/// some `L_s` holding the subjects.
#[derive(Clone, Copy)]
pub(crate) struct Hit<M> {
    pub(crate) item: u32,
    /// The part of a layered source that found it (0 on a bare ring).
    pub(crate) part: u32,
    pub(crate) label: Label,
    pub(crate) range: Range,
    /// `D_item & B[label]`.
    pub(crate) d: M,
}

/// What expanding one chunk read-only produces, and the buffers it is
/// produced in (all flat, all reused). A chunk's *work items* are its
/// `(item, label)` pairs in visiting order — items as they stand in the
/// chunk, each item's labels ascending. `M` is the width of the state
/// masks the chunk's items carry.
#[derive(Default)]
pub(crate) struct ChunkExpansion<M = u64> {
    /// Level-synchronous traversal state of part one's sweep of `L_p`.
    pub(crate) mt: MultiTraversal,
    /// The ranges of the step in progress: the items' in part one, the
    /// work items' in part two.
    pub(crate) ranges: Vec<Range>,
    /// Part one's leaves in arrival order (label by label).
    pub(crate) hits: Vec<Hit<M>>,
    /// The items a batched backward step is taken for, each with its
    /// `D & B[p]`, and both ends of every range it maps.
    stepped_items: Vec<(u32, M)>,
    stepped: Vec<usize>,
    /// Per item, where its work items end.
    pub(crate) item_end: Vec<usize>,
    /// Per work item, the state set `D'` of Eq. 2 its subjects are
    /// reached with; empty where the automaton has no way back.
    pub(crate) work_d: Vec<M>,
    /// Part two's positions of `L_s`, work item after work item, each
    /// taken to its subject in place: `(position, subject)` (a ring's
    /// positions and node ids fit 32 bits).
    positions: Vec<(u32, u32)>,
    /// Per work item, where its subjects end.
    pub(crate) work_end: Vec<usize>,
    /// The subjects, work item by work item, each work item's ascending.
    pub(crate) subjects: Vec<Id>,
    /// What a layered source keeps per chunk ([`crate::source`]).
    pub(crate) layered: crate::source::LayeredWork,
    /// Rank computations of both parts.
    pub(crate) rank_ops: u64,
    /// Ranks the batching avoided.
    pub(crate) rank_ops_saved: u64,
    /// Wavelet nodes part one's sweeps entered.
    pub(crate) wavelet_nodes: u64,
}

impl<M: StateMask> ChunkExpansion<M> {
    /// Forgets the last chunk's work items; the buffers keep their
    /// capacity.
    pub(crate) fn begin(&mut self) {
        self.ranges.clear();
        self.hits.clear();
        self.item_end.clear();
        self.work_d.clear();
        self.layered.clear();
        (self.rank_ops, self.rank_ops_saved, self.wavelet_nodes) = (0, 0, 0);
    }

    /// The subjects of all of `item`'s work items (those of its one work
    /// item after a single-label step).
    pub(crate) fn item_subjects(&self, item: usize) -> &[Id] {
        let subjects_before = |work: usize| work.checked_sub(1).map_or(0, |w| self.work_end[w]);
        let first = item.checked_sub(1).map_or(0, |i| self.item_end[i]);
        &self.subjects[subjects_before(first)..subjects_before(self.item_end[item])]
    }

    /// Replaces `ranges` with the object range (block of `L_p`) in `ring`
    /// of every item whose `D` meets `fired`, item by item — the `C_o`
    /// lookups of the chunk in one run ([`Ring::object_ranges`]). Every
    /// other item gets an empty range, and so does an item past the ring's
    /// nodes (a delta's new node).
    pub(crate) fn object_ranges(&mut self, ring: &Ring, chunk: &[(Id, M)], fired: M) {
        let looked_up = |&(o, d): &(Id, M)| d.intersects(fired) && o < ring.n_nodes();
        let ranges = &mut self.ranges;
        ranges.clear();
        ranges.reserve(chunk.len());
        let mut items = chunk.iter();
        let objects = chunk.iter().filter(|item| looked_up(item));
        ring.object_ranges(objects.map(|&(o, _)| o), |block| {
            for item in items.by_ref() {
                if looked_up(item) {
                    ranges.push(narrow(block));
                    break;
                }
                ranges.push((0, 0));
            }
        });
        ranges.resize(chunk.len(), (0, 0));
    }

    /// One batched backward step (Eqs. 4–5) in `ring`, from the items of
    /// `chunk` the label fires from, `ranges` holding their object ranges
    /// in that ring ([`Self::object_ranges`], under a `fired` that covers
    /// `B[label]`): the ranges are mapped to subject ranges (of `L_s`) by
    /// one [`WaveletMatrix::rank_batch`] of `L_p`, the ranks of the whole
    /// batch sharing one node-start chain, and every item the label has
    /// edges into is a hit.
    pub(crate) fn step_hits(
        &mut self,
        (part, ring): (u32, &Ring),
        (label, bmask): (Label, M),
        chunk: &[(Id, M)],
    ) {
        self.stepped_items.clear();
        self.stepped.clear();
        for (item, (&(_, d), &(b, e))) in chunk.iter().zip(&self.ranges).enumerate() {
            if e > b && d.intersects(bmask) {
                self.stepped_items.push((item as u32, d.and(bmask)));
                self.stepped.extend([b as usize, e as usize]);
            }
        }
        ring.l_p().rank_batch(label, &mut self.stepped);
        self.rank_ops += (self.stepped.len() * ring.l_p().width()) as u64;
        let base = ring.c_p_ref().get(label);
        let steps = self.stepped_items.iter().zip(self.stepped.chunks_exact(2));
        for (&(item, d), ranks) in steps.filter(|(_, ranks)| ranks[1] > ranks[0]) {
            let range = narrow((base + ranks[0], base + ranks[1]));
            self.hits.push(Hit {
                item,
                part,
                label,
                range,
                d,
            });
        }
    }

    /// Part one by one level-synchronous sweep of `ring`'s `L_p` over
    /// `ranges` ([`Self::object_ranges`]) under `B[v]` and the negated
    /// classes (§4.1): the hits [`Self::step_hits`] gives label after
    /// label, in that order, with every wavelet node entered once for the
    /// whole chunk. `union_d` is the OR of the chunk's `D`.
    pub(crate) fn sweep_hits(
        &mut self,
        ring: &Ring,
        (bp, lp_masks): (&BitParallel<M>, &EpochArray),
        chunk: &[(Id, M)],
        union_d: M,
    ) {
        let mut guide = PredGuideMulti {
            ring,
            chunk,
            union_d,
            masks: lp_masks,
            neg: bp.negated_positions(),
            width: ring.l_p().width(),
            out: &mut self.hits,
            nodes_entered: &mut self.wavelet_nodes,
            node_mask: M::ZERO,
            pending: M::ZERO,
            base: (Label::MAX, 0),
        };
        self.mt.run(ring.l_p(), &self.ranges, &mut guide);
        self.rank_ops += self.mt.ranks;
        self.rank_ops_saved += self.mt.ranks_saved;
    }

    /// Part two in one `L_s`: every position of every live work item's
    /// range (`ranges[w]` where `work_d[w] != 0`), work item after work
    /// item, taken to its subject by one [`WaveletMatrix::access_batch`];
    /// then, in one pass that lays out `subjects` and `work_end`, the
    /// subjects the `visited` table rules out — `D[s]` already holds all
    /// of the work item's `D'` — are dropped (none under `None`). A work
    /// item's subjects come out ascending and distinct: its range is one
    /// `(p, o)` block of `L_s`, which is in `(p, o, s)` order.
    pub(crate) fn access_subjects(&mut self, ls: &WaveletMatrix, visited: Option<&EpochArray>) {
        self.positions.clear();
        for (&(b, e), &d) in self.ranges.iter().zip(&self.work_d) {
            if !d.is_empty() {
                self.positions.extend((b..e).map(|at| (at, 0)));
            }
        }
        ls.access_batch(&mut self.positions);
        self.rank_ops += (self.positions.len() * ls.width()) as u64;
        self.subjects.clear();
        self.work_end.clear();
        let mut found = self.positions.iter().map(|&(_, s)| Id::from(s));
        for (&(b, e), &d) in self.ranges.iter().zip(&self.work_d) {
            if !d.is_empty() {
                let fresh = |&s: &Id| {
                    visited.is_none_or(|seen| !d.and_not(seen.get(s as usize)).is_empty())
                };
                let range = found.by_ref().take((e - b) as usize);
                self.subjects.extend(range.filter(fresh));
            }
            self.work_end.push(self.subjects.len());
        }
    }

    pub(crate) fn heap_bytes(&self) -> usize {
        self.mt.size_bytes()
            + self.ranges.capacity() * size_of::<Range>()
            + self.stepped_items.capacity() * size_of::<(u32, M)>()
            + self.stepped.capacity() * size_of::<usize>()
            + self.work_d.capacity() * size_of::<M>()
            + self.hits.capacity() * size_of::<Hit<M>>()
            + (self.item_end.capacity() + self.work_end.capacity()) * size_of::<usize>()
            + self.positions.capacity() * size_of::<(u32, u32)>()
            + self.subjects.capacity() * size_of::<Id>()
            + self.layered.heap_bytes()
    }
}

/// An ascending walk over the nodes that are subjects of both a live
/// `a`-edge and a live `b`-edge — the midpoints of a `p1/p2` join —
/// handed out a batch at a time by [`StepSource::common_subjects`].
pub(crate) struct CommonWalk {
    pub(crate) labels: (Label, Label),
    /// Every common subject below this node has been handed out.
    pub(crate) from: Id,
}

impl CommonWalk {
    /// A walk from the smallest node on.
    pub(crate) fn new(a: Label, b: Label) -> Self {
        Self {
            labels: (a, b),
            from: 0,
        }
    }

    /// Marks the batch `out` handed out.
    pub(crate) fn passed(&mut self, out: &[Id]) {
        if let Some(&last) = out.last() {
            self.from = last + 1;
        }
    }
}

/// Appends to `out` the subjects of `ring`'s `p`-edges from `from` on,
/// ascending, until `cap` are listed: one guided walk of the label's
/// block of `L_s` that enters no subtree below `from` and stops at the
/// `cap`-th leaf, so it costs what it lists. Returns its rank
/// computations, two per node it descends from.
pub(crate) fn list_from(ring: &Ring, p: Label, from: Id, cap: usize, out: &mut Vec<Id>) -> u64 {
    struct From<'a> {
        from: Id,
        width: usize,
        left: usize,
        out: &'a mut Vec<Id>,
        ranks: u64,
    }
    impl RangeGuide for From<'_> {
        const LEAF_RANKS: bool = false;

        fn enter(&mut self, level: usize, prefix: u64) -> bool {
            // The node's symbols are `[prefix·2^span, (prefix + 1)·2^span)`.
            let below = (u128::from(prefix) + 1) << (self.width - level) <= u128::from(self.from);
            if self.left == 0 || below {
                return false;
            }
            self.ranks += 2 * u64::from(level < self.width);
            true
        }

        fn leaf(&mut self, sym: u64, _: usize, _: usize) {
            self.out.push(sym);
            self.left -= 1;
        }
    }
    let (b, e) = ring.pred_range(p);
    let mut guide = From {
        from,
        width: ring.l_s().width(),
        left: cap,
        out,
        ranks: 0,
    };
    ring.l_s().guided_traverse(b, e, &mut guide);
    guide.ranks
}

/// An index the product graph can be searched backwards over, a batch of
/// steps at a time (see the module docs). Labels are from the completed
/// alphabet; node lists come back ascending and distinct, so whatever is
/// built on top visits nodes in the same order on every implementor.
pub(crate) trait StepSource: Sync {
    /// The ring whose label universe (and inverses) the source shares.
    fn ring(&self) -> &Ring;

    /// The evaluation node universe.
    fn n_nodes(&self) -> Id;

    /// Whether `v` has at least one live edge.
    fn node_exists(&self, v: Id) -> bool;

    /// Whether the edge `(s, p, o)` is live.
    fn has_edge(&self, s: Id, p: Label, o: Id) -> bool;

    /// Replaces `out` with the first `cap` subjects of live `p`-edges,
    /// ascending, listed at their cost; returns the listing's rank
    /// computations.
    fn label_subjects(&self, p: Label, cap: usize, out: &mut Vec<Id>) -> u64;

    /// Replaces `out` with the next `cap` nodes of `walk`, ascending,
    /// found from where the walk stands and no further than the batch;
    /// returns the rank computations that took.
    fn common_subjects(&self, walk: &mut CommonWalk, cap: usize, out: &mut Vec<Id>) -> u64;

    /// Readies `lp_masks` for [`Self::fire`] under `bp`, if part one
    /// reads them.
    fn prepare<M: Mask>(&self, _bp: &BitParallel<M>, _lp_masks: &mut EpochArray) {}

    /// Part one: replaces `x`'s work items with those of `chunk`.
    fn fire<M: Mask>(&self, firing: &Firing<'_, M>, chunk: &[(Id, M)], x: &mut ChunkExpansion<M>);

    /// Part two: the subjects of `x`'s work items not ruled out by the
    /// `visited` table — one cell per node, `D[s]` in cell `s`; all of
    /// them under `None` — in `x.subjects` / `x.work_end`, work item by
    /// work item.
    fn subjects<M: Mask>(&self, visited: Option<&EpochArray>, x: &mut ChunkExpansion<M>);
}

/// One label into one batch of nodes with no automaton in between: both
/// parts, leaving `x.item_subjects(i)` the subjects of `p`-edges into
/// `nodes[i]`.
pub(crate) fn step_label<S: StepSource + ?Sized>(
    src: &S,
    p: Label,
    nodes: &[(Id, u64)],
    x: &mut ChunkExpansion,
) {
    let firing = Firing {
        labels: &[(p, u64::MAX)],
        automaton: None,
    };
    src.fire(&firing, nodes, x);
    src.subjects(None, x);
}

impl StepSource for Ring {
    fn ring(&self) -> &Ring {
        self
    }

    fn n_nodes(&self) -> Id {
        Ring::n_nodes(self)
    }

    fn node_exists(&self, v: Id) -> bool {
        crate::MergedView::ring_only(self).node_exists(v)
    }

    fn has_edge(&self, s: Id, p: Label, o: Id) -> bool {
        self.contains(s, p, o)
    }

    fn label_subjects(&self, p: Label, cap: usize, out: &mut Vec<Id>) -> u64 {
        out.clear();
        list_from(self, p, 0, cap, out)
    }

    /// The paper's intersection algorithm (§5) over the two `L_s` blocks,
    /// from where the walk stands and no further than the batch.
    fn common_subjects(&self, walk: &mut CommonWalk, cap: usize, out: &mut Vec<Id>) -> u64 {
        crate::MergedView::ring_only(self).common_subjects(walk, cap, out)
    }

    fn prepare<M: Mask>(&self, bp: &BitParallel<M>, lp_masks: &mut EpochArray) {
        seed_label_masks(lp_masks, self.l_p(), bp);
    }

    /// The items' object ranges looked up once, then one batched backward
    /// step per label that fires into the chunk — those of the items some
    /// label fires from — or, with an automaton whose chunk [`sweeps`],
    /// one sweep of `L_p` over the ranges of all items under `B[v]`
    /// (§4.1). Both give the same hits in the same order.
    fn fire<M: Mask>(&self, firing: &Firing<'_, M>, chunk: &[(Id, M)], x: &mut ChunkExpansion<M>) {
        x.begin();
        let union_d = chunk.iter().fold(M::ZERO, |all, &(_, d)| all.or(d));
        let fires = firing.labels.iter().filter(|l| l.1.intersects(union_d));
        match firing.automaton {
            Some((bp, lp_masks)) if sweeps(bp, fires.clone().count()) => {
                x.object_ranges(self, chunk, union_d);
                x.sweep_hits(self, (bp, lp_masks), chunk, union_d)
            }
            _ => {
                x.object_ranges(self, chunk, fired(fires.clone()));
                fires.for_each(|&label| x.step_hits((0, self), label, chunk))
            }
        }

        // The leaves arrived label by label; item by item they are the
        // chunk's work items, each with its backward step taken.
        let (ranges, work_d) = (&mut x.ranges, &mut x.work_d);
        ranges.clear();
        ranges.resize(x.hits.len(), (0, 0));
        work_d.resize(x.hits.len(), M::ZERO);
        group_by_key(
            &mut x.item_end,
            chunk.len(),
            &x.hits,
            |hit| hit.item as usize,
            |work, hit| {
                let d_new = firing.back(hit.d);
                if !d_new.is_empty() {
                    work_d[work] = d_new;
                    ranges[work] = hit.range;
                }
            },
        );
    }

    fn subjects<M: Mask>(&self, visited: Option<&EpochArray>, x: &mut ChunkExpansion<M>) {
        x.access_subjects(self.l_s(), visited);
    }
}

/// Resets `B[v]` to cells as wide as `bp`'s masks and seeds it for all
/// wavelet-node ancestors of the query's labels (lazy initialization,
/// O(m log |P|), §4.1).
pub(crate) fn seed_label_masks<M: StateMask>(
    lp_masks: &mut EpochArray,
    lp: &WaveletMatrix,
    bp: &BitParallel<M>,
) {
    let width_p = lp.width();
    lp_masks.reset(M::LEN);
    lp_masks.ensure_len(lp.node_table_len());
    for &(label, mask) in bp.positive_label_masks() {
        for level in 0..=width_p {
            let node = WaveletMatrix::node_index(level, label >> (width_p - level));
            let seeded: M = lp_masks.get(node);
            lp_masks.set(node, seeded.or(mask));
        }
    }
}

/// §4.1, frontier-batched: prune `L_p` subtrees whose labels cannot
/// reach an active state of *any* frontier item (node level), then
/// per item against its own mask (item level). The expensive per-node
/// work — the `B[v]` lookup and the negated-class range mask — is done
/// once per node for the whole frontier.
struct PredGuideMulti<'a, M> {
    ring: &'a Ring,
    /// The items, for their state masks `D_i`.
    chunk: &'a [(Id, M)],
    /// OR of all `D_i`: the node-level admission mask.
    union_d: M,
    masks: &'a EpochArray,
    neg: &'a [(M, Vec<Label>)],
    width: usize,
    /// The leaves, in arrival order.
    out: &'a mut Vec<Hit<M>>,
    nodes_entered: &'a mut u64,
    /// `B[v] | neg` of the node admitted most recently.
    node_mask: M,
    /// `D_i & B[p]` for the item whose `leaf` call comes next (the
    /// [`MultiRangeGuide`] contract: `leaf` immediately follows its
    /// item's `enter_item`); at a leaf this is exactly Eq. 2's input.
    pending: M,
    /// `C_p` of the label whose leaves are arriving.
    base: (Label, usize),
}

impl<M: StateMask> MultiRangeGuide for PredGuideMulti<'_, M> {
    fn enter_node(&mut self, level: usize, prefix: u64) -> bool {
        *self.nodes_entered += 1;
        let mut mask: M = self.masks.get(WaveletMatrix::node_index(level, prefix));
        if !self.neg.is_empty() {
            mask = mask.or(neg_range_mask(self.neg, level, prefix, self.width));
        }
        self.node_mask = mask;
        mask.intersects(self.union_d)
    }

    fn enter_item(&mut self, item: u32, _level: usize, _prefix: u64) -> bool {
        let active = self.node_mask.and(self.chunk[item as usize].1);
        if active.is_empty() {
            return false;
        }
        self.pending = active;
        true
    }

    fn leaf(&mut self, item: u32, label: u64, rank_b: usize, rank_e: usize) {
        if self.base.0 != label {
            self.base = (label, self.ring.c_p_ref().get(label));
        }
        self.out.push(Hit {
            item,
            part: 0,
            label,
            range: narrow((self.base.1 + rank_b, self.base.1 + rank_e)),
            d: self.pending,
        });
    }
}

/// Mask contributed by negated-class positions to the wavelet node
/// `(level, prefix)` covering labels `[prefix·2^span, (prefix+1)·2^span)`:
/// the position fires unless the whole interval is excluded.
pub(crate) fn neg_range_mask<M: StateMask>(
    neg: &[(M, Vec<Label>)],
    level: usize,
    prefix: u64,
    width: usize,
) -> M {
    let span = width - level;
    let lo = prefix << span;
    let len = 1u64 << span;
    let mut mask = M::ZERO;
    for &(bit, ref excluded) in neg {
        let from = excluded.partition_point(|&l| l < lo);
        let to = excluded.partition_point(|&l| l < lo + len);
        if ((to - from) as u64) < len {
            mask = mask.or(bit);
        }
    }
    mask
}

/// A stable bucket pass over `records`, whose keys are below `n_keys`:
/// `place(slot, record)` hands every record its slot in key order —
/// records of one key keep their order — and `ends[k]` is left holding
/// where key `k`'s slots end (they begin where key `k − 1`'s end).
pub(crate) fn group_by_key<T>(
    ends: &mut Vec<usize>,
    n_keys: usize,
    records: &[T],
    key: impl Fn(&T) -> usize,
    mut place: impl FnMut(usize, &T),
) {
    ends.clear();
    ends.resize(n_keys, 0);
    for record in records {
        ends[key(record)] += 1;
    }
    let mut next = 0;
    for end in ends.iter_mut() {
        next += std::mem::replace(end, next);
    }
    for record in records {
        let slot = &mut ends[key(record)];
        place(*slot, record);
        *slot += 1;
    }
}

#[cfg(test)]
mod tests {
    use automata::Regex;
    use ring::ring::RingOptions;
    use ring::Graph;
    use workload::{GraphGen, GraphGenConfig, QueryGen};

    use super::*;
    use crate::plan::{with_tables, PreparedQuery};
    use crate::query::EngineOptions;

    /// What the comparisons covered.
    #[derive(Default)]
    struct Seen {
        hits: usize,
        /// Items whose node has an empty `C_o` block.
        empty_blocks: usize,
        /// Chunks into which 6 and 7 labels fired.
        firing: [bool; 2],
        /// Comparisons at 1, 2 and 4 words of state mask.
        widths: [usize; 3],
    }

    /// A hit as the comparison reads it: every field.
    fn fields<M: StateMask>(hit: &Hit<M>) -> (u32, u32, Label, Range, M) {
        (hit.item, hit.part, hit.label, hit.range, hit.d)
    }

    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Chunks over every node of `ring` (an item per node, nodes
    /// ascending, as a level is put) and over every third: each item's
    /// `D` all states any label fires from, a random part of them and of
    /// the initial state (which no label fires from), or the states of
    /// one label alone.
    fn chunks<M: StateMask>(ring: &Ring, bp: &BitParallel<M>, seed: u64) -> Vec<Vec<(Id, M)>> {
        let labels = bp.positive_label_masks();
        let all = labels.iter().fold(M::ZERO, |all, &(_, b)| all.or(b));
        let mut state = seed;
        let mut random = || {
            let mut d = M::ZERO;
            d.words_mut()
                .iter_mut()
                .for_each(|w| *w = splitmix(&mut state));
            d.and(all.or(M::INITIAL))
        };
        let nodes = 0..ring.n_nodes();
        vec![
            nodes.clone().map(|o| (o, all)).collect(),
            nodes.clone().map(|o| (o, random())).collect(),
            nodes
                .step_by(3)
                .map(|o| (o, labels[o as usize % labels.len()].1))
                .collect(),
        ]
    }

    /// Part one of every chunk under `bp` both ways — one sweep of `L_p`,
    /// and one batched backward step per label that fires — with the
    /// object ranges looked up once per chunk for each.
    fn compare<M: Mask>(ring: &Ring, bp: &BitParallel<M>, seen: &mut Seen, what: &str) {
        let mut lp_masks = EpochArray::default();
        seed_label_masks(&mut lp_masks, ring.l_p(), bp);
        let mut x = ChunkExpansion::<M>::default();
        for (c, chunk) in chunks(ring, bp, seen.hits as u64).iter().enumerate() {
            let union_d = chunk.iter().fold(M::ZERO, |all, &(_, d)| all.or(d));
            let labels = bp.positive_label_masks();
            let fires: Vec<_> = labels.iter().filter(|l| l.1.intersects(union_d)).collect();

            x.begin();
            x.object_ranges(ring, chunk, union_d);
            let looked_up = chunk
                .iter()
                .zip(&x.ranges)
                .filter(|(it, _)| !it.1.is_empty());
            seen.empty_blocks += looked_up.filter(|(_, (b, e))| b == e).count();
            x.sweep_hits(ring, (bp, &lp_masks), chunk, union_d);
            let swept: Vec<_> = x.hits.iter().map(fields).collect();

            x.begin();
            x.object_ranges(ring, chunk, fired(fires.iter().copied()));
            fires
                .iter()
                .for_each(|&&label| x.step_hits((0, ring), label, chunk));
            let stepped: Vec<_> = x.hits.iter().map(fields).collect();

            assert_eq!(stepped, swept, "{what}, chunk {c}: hits");
            assert_eq!(
                sweeps(bp, fires.len()),
                !succinct::hardware_gather() || fires.len() > MAX_STEPPED_LABELS,
                "{what}, chunk {c}: which step part one takes"
            );
            seen.hits += swept.len();
            for (k, fired) in [6, 7].into_iter().zip(&mut seen.firing) {
                *fired |= fires.len() == k;
            }
            seen.widths[M::LEN.trailing_zeros() as usize] += 1;
        }
    }

    /// `(<p0>|…|<pk−1>)*`, one position (a class), and `(<p0>/…/<pk−1>)*`
    /// concatenated `times` times, `k · times` positions: stars the same
    /// `k` labels fire into.
    fn stars(k: Label, times: usize) -> [Regex; 2] {
        let labels = (1..k).map(Regex::label);
        let alt = labels.clone().fold(Regex::label(0), Regex::alt);
        let cat = labels.fold(Regex::label(0), Regex::concat);
        let star = |e| Regex::Star(Box::new(e));
        let cats = (1..times).fold(star(cat.clone()), |e, _| {
            Regex::concat(e, star(cat.clone()))
        });
        [star(alt), cats]
    }

    /// Both directions of every Table 1 pattern instantiated over
    /// `graph`, and of stars of 6, 7 and every label, at 1, 2 and 4 words.
    fn compare_all(graph: &Graph, seed: u64, what: &str, seen: &mut Seen) {
        let ring = Ring::build(graph, RingOptions::default());
        let mut exprs: Vec<Regex> = QueryGen::new(graph, seed)
            .scaled_log(0.0)
            .into_iter()
            .map(|gq| gq.query.expr)
            .collect();
        for k in [6, 7, ring.n_preds()]
            .into_iter()
            .filter(|&k| k <= ring.n_preds())
        {
            exprs.extend([1, 10, 20].into_iter().flat_map(|times| stars(k, times)));
        }
        let split = EngineOptions::default().bp_split_width;
        for expr in &exprs {
            let prepared = PreparedQuery::compile(expr, &|l| ring.inverse_label(l), split).unwrap();
            with_tables!(prepared.tables(), tables => {
                for (dir, bp) in ["forward", "reversed"].into_iter().zip(tables) {
                    compare(&ring, bp, seen, &format!("{what}, {expr:?}, {dir}"));
                }
            });
        }
    }

    /// The two part-one steps give the same hits — item, label, range and
    /// `D & B[p]`, in the same order — whichever of them the running CPU
    /// takes.
    #[test]
    fn part_one_steps_give_the_same_hits() {
        println!(
            "part one on this CPU: {}",
            if succinct::hardware_gather() {
                "one batched backward step per label where at most 6 fire (AVX-512 gather), \
                 else the L_p sweep"
            } else {
                "the L_p sweep (no AVX-512 gather)"
            }
        );
        let mut seen = Seen::default();
        compare_all(&workload::metro::metro(), 1, "metro", &mut seen);
        let foaf = include_str!("../../../data/foaf.nt");
        let (foaf, _, _) = ring::ntriples::parse_ntriples(foaf).unwrap();
        compare_all(&foaf, 2, "foaf", &mut seen);
        let generated = GraphGen::new(GraphGenConfig {
            n_nodes: 600,
            n_preds: 6,
            n_edges: 2400,
            pred_zipf: 1.0,
            node_skew: 1.0,
            seed: 0x5E7,
        })
        .generate();
        // Nodes past every edge: empty `C_o` blocks.
        let generated = Graph::new(
            generated.triples().to_vec(),
            generated.n_nodes() + 9,
            generated.n_preds(),
        );
        compare_all(&generated, 3, "generated", &mut seen);
        println!(
            "compared {} hits, {} items with an empty C_o block, chunks at 1/2/4 words: {:?}",
            seen.hits, seen.empty_blocks, seen.widths
        );
        assert!(seen.hits > 10_000, "only {} hits compared", seen.hits);
        assert!(seen.empty_blocks > 0, "no item with an empty C_o block");
        assert_eq!(seen.firing, [true; 2], "6 and 7 firing labels");
        assert!(
            seen.widths.iter().all(|&n| n > 0),
            "widths {:?}",
            seen.widths
        );
    }
}
