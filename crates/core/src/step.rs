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
//! A bare [`Ring`] answers part one with one level-synchronous sweep of
//! `L_p` and part two with one batched access of `L_s` over every
//! position of every work item; a [`MergedView`](crate::MergedView) over
//! a delta or a shard set answers with the same per owner shard, merged
//! with the delta arrays ([`crate::source`]). Everything else — frontier,
//! visited table, replay, budget, trace, limits — is written once over
//! this trait.

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

    /// One batched backward step (Eqs. 4–5) in `ring`, from the items of
    /// `chunk` the label fires from: their object ranges (of `L_p`) are
    /// mapped to subject ranges (of `L_s`) with the ranks of the whole
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
        let firing = chunk
            .iter()
            .enumerate()
            .filter(|&(_, &(o, d))| d.intersects(bmask) && o < ring.n_nodes());
        let mut items = firing.clone();
        let (stepped_items, stepped) = (&mut self.stepped_items, &mut self.stepped);
        ring.object_ranges(firing.map(|(_, &(o, _))| o), |(b, e)| {
            let (item, &(_, d)) = items.next().expect("one block per firing item");
            if e > b {
                stepped_items.push((item as u32, d.and(bmask)));
                stepped.extend([b, e]);
            }
        });
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

    /// With an automaton, one sweep of `L_p` over the items' object
    /// ranges under `B[v]` (§4.1); without, one batched backward step per
    /// label.
    fn fire<M: Mask>(&self, firing: &Firing<'_, M>, chunk: &[(Id, M)], x: &mut ChunkExpansion<M>) {
        x.begin();
        match firing.automaton {
            Some((bp, lp_masks)) => {
                let ranges = &mut x.ranges;
                ranges.reserve(chunk.len());
                self.object_ranges(chunk.iter().map(|&(o, _)| o), |block| {
                    ranges.push(narrow(block))
                });
                let mut guide = PredGuideMulti {
                    ring: self,
                    chunk,
                    union_d: chunk.iter().fold(M::ZERO, |all, &(_, d)| all.or(d)),
                    masks: lp_masks,
                    neg: bp.negated_positions(),
                    width: self.l_p().width(),
                    out: &mut x.hits,
                    nodes_entered: &mut x.wavelet_nodes,
                    node_mask: M::ZERO,
                    pending: M::ZERO,
                    base: (Label::MAX, 0),
                };
                x.mt.run(self.l_p(), &x.ranges, &mut guide);
                (x.rank_ops, x.rank_ops_saved) = (x.mt.ranks, x.mt.ranks_saved);
            }
            None => firing
                .labels
                .iter()
                .for_each(|&label| x.step_hits((0, self), label, chunk)),
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
