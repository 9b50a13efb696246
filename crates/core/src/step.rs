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
//! A bare [`Ring`] answers each with one level-synchronous sweep (`L_p`,
//! then `L_s`); a [`MergedView`](crate::MergedView) over a delta or a
//! shard set answers with per-owner-shard sweeps merged with the delta
//! arrays ([`crate::source`]). Everything else — frontier, visited
//! table, replay, budget, trace, limits — is written once over this
//! trait.

use std::mem::size_of;

use automata::{BitParallel, Label};
use ring::{Id, Ring};
use succinct::util::EpochArray;
use succinct::wavelet_matrix::{MultiRangeGuide, MultiTraversal};
use succinct::WaveletMatrix;

/// Which labels fire from which states: what part one is asked with.
pub(crate) struct Firing<'a> {
    /// `B[p]` of every label that can fire, ascending by label.
    pub(crate) labels: &'a [(Label, u64)],
    /// The automaton whose `T'` takes `D & B[p]` one step back (Eq. 2),
    /// and its `B[v]` masks over the wavelet nodes of `L_p` as
    /// [`StepSource::prepare`] left them. `None` for the §5 joins: a
    /// label is followed, no automaton, states pass through as they are.
    pub(crate) automaton: Option<(&'a BitParallel, &'a EpochArray)>,
}

impl Firing<'_> {
    /// The states a work item's subjects are reached with, from its
    /// `D & B[p]`.
    pub(crate) fn back(&self, d_and_b: u64) -> u64 {
        self.automaton
            .map_or(d_and_b, |(bp, _)| bp.apply_bwd(d_and_b))
    }
}

/// `B[p]` for every label of the completed alphabet that can fire under
/// `bp`, ascending, when that is more than its positive literal masks:
/// negated-class positions expanded against the alphabet.
pub(crate) fn negated_firing_labels(n_preds: Id, bp: &BitParallel) -> Vec<(Label, u64)> {
    (0..n_preds)
        .map(|p| (p, bp.label_mask(p)))
        .filter(|&(_, mask)| mask != 0)
        .collect()
}

/// A range of positions of one `L_p` or `L_s`, as a chunk's buffers keep
/// them: a chunk holds several per item and per edge, and the sweeps
/// address 32-bit positions ([`MultiTraversal::run`]).
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
pub(crate) struct Hit {
    pub(crate) item: u32,
    /// The part of a layered source that found it (0 on a bare ring).
    pub(crate) part: u32,
    pub(crate) label: Label,
    pub(crate) range: Range,
    /// `D_item & B[label]`.
    pub(crate) d: u64,
}

/// What expanding one chunk read-only produces, and the buffers it is
/// produced in (all flat, all reused). A chunk's *work items* are its
/// `(item, label)` pairs in visiting order — items as they stand in the
/// chunk, each item's labels ascending.
#[derive(Default)]
pub(crate) struct ChunkExpansion {
    /// Level-synchronous traversal state, used for `L_p` and then `L_s`.
    pub(crate) mt: MultiTraversal,
    /// The ranges of the sweep in progress: the items' in part one, the
    /// work items' in part two.
    pub(crate) ranges: Vec<Range>,
    /// Part one's leaves in arrival order (label by label).
    pub(crate) hits: Vec<Hit>,
    /// The items a batched backward step is taken for, each with its
    /// `D & B[p]`, and both ends of every range it maps.
    stepped_items: Vec<(u32, u64)>,
    stepped: Vec<usize>,
    /// Per item, where its work items end.
    pub(crate) item_end: Vec<usize>,
    /// Per work item, the state set `D'` of Eq. 2 its subjects are
    /// reached with; 0 where the automaton has no way back.
    pub(crate) work_d: Vec<u64>,
    /// Part two's leaves, subject by subject: `(work item, subject)` (a
    /// ring's node ids fit 32 bits).
    pub(crate) candidates: Vec<(u32, u32)>,
    /// Per work item, where its subjects end.
    pub(crate) work_end: Vec<usize>,
    /// The candidates by work item, each work item's ascending.
    pub(crate) subjects: Vec<Id>,
    /// What a layered source keeps per chunk ([`crate::source`]).
    pub(crate) layered: crate::source::LayeredWork,
    /// Rank computations of the sweeps.
    pub(crate) rank_ops: u64,
    /// Ranks the batching avoided.
    pub(crate) rank_ops_saved: u64,
    /// Wavelet nodes the sweeps entered.
    pub(crate) wavelet_nodes: u64,
}

impl ChunkExpansion {
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
        (label, bmask): (Label, u64),
        chunk: &[(Id, u64)],
    ) {
        self.stepped_items.clear();
        self.stepped.clear();
        for (item, &(o, d)) in chunk.iter().enumerate() {
            if d & bmask != 0 && o < ring.n_nodes() {
                let (b, e) = ring.object_range(o);
                if e > b {
                    self.stepped_items.push((item as u32, d & bmask));
                    self.stepped.extend([b, e]);
                }
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

    /// One sweep of `ls` over `ranges` — one range per work item — under
    /// the `visited` table, `D[s]` in cell `s`: appends what it finds to
    /// `candidates`.
    pub(crate) fn sweep_subjects(&mut self, ls: &WaveletMatrix, visited: Option<&EpochArray>) {
        let mut guide = SubjGuideMulti {
            d_new: &self.work_d,
            visited,
            width: ls.width(),
            out: &mut self.candidates,
            nodes_entered: &mut self.wavelet_nodes,
            seen: None,
        };
        self.mt.run(ls, &self.ranges, &mut guide);
        self.rank_ops += self.mt.ranks;
        self.rank_ops_saved += self.mt.ranks_saved;
    }

    /// The candidates arrived subject by subject; the replay wants them
    /// work item by work item, and finds each work item's ascending.
    pub(crate) fn group_candidates(&mut self) {
        let subjects = &mut self.subjects;
        subjects.clear();
        subjects.resize(self.candidates.len(), 0);
        group_by_key(
            &mut self.work_end,
            self.work_d.len(),
            &self.candidates,
            |candidate| candidate.0 as usize,
            |slot, &(_, s)| subjects[slot] = Id::from(s),
        );
    }

    pub(crate) fn heap_bytes(&self) -> usize {
        self.mt.size_bytes()
            + self.ranges.capacity() * size_of::<Range>()
            + self.stepped_items.capacity() * size_of::<(u32, u64)>()
            + self.stepped.capacity() * size_of::<usize>()
            + self.work_d.capacity() * size_of::<u64>()
            + self.hits.capacity() * size_of::<Hit>()
            + (self.item_end.capacity() + self.work_end.capacity()) * size_of::<usize>()
            + self.candidates.capacity() * size_of::<(u32, u32)>()
            + self.subjects.capacity() * size_of::<Id>()
            + self.layered.heap_bytes()
    }
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
    /// listed at their cost where the source can.
    fn label_subjects(&self, p: Label, cap: usize, out: &mut Vec<Id>);

    /// Replaces `out` with the nodes that are subjects of both a live
    /// `a`-edge and a live `b`-edge.
    fn common_subjects(&self, a: Label, b: Label, out: &mut Vec<Id>) {
        let mut of_b = Vec::new();
        self.label_subjects(a, usize::MAX, out);
        self.label_subjects(b, usize::MAX, &mut of_b);
        out.retain(|z| of_b.binary_search(z).is_ok());
    }

    /// Readies `lp_masks` for [`Self::fire`] under `bp`, if part one
    /// reads them.
    fn prepare(&self, _bp: &BitParallel, _lp_masks: &mut EpochArray) {}

    /// Part one: replaces `x`'s work items with those of `chunk`.
    fn fire(&self, firing: &Firing<'_>, chunk: &[(Id, u64)], x: &mut ChunkExpansion);

    /// Part two: the subjects of `x`'s work items not ruled out by the
    /// `visited` table — one cell per node, `D[s]` in cell `s`; all of
    /// them under `None` — `x.candidates` subject by subject,
    /// `x.subjects` / `x.work_end` work item by work item.
    fn subjects(&self, visited: Option<&EpochArray>, x: &mut ChunkExpansion);
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

    fn label_subjects(&self, p: Label, cap: usize, out: &mut Vec<Id>) {
        out.clear();
        let (b, e) = self.pred_range(p);
        if cap > 0 {
            self.l_s().range_symbols(b, e, &mut |s| {
                out.push(s);
                out.len() < cap
            });
        }
    }

    /// The paper's intersection algorithm (§5) over the two `L_s` blocks.
    fn common_subjects(&self, a: Label, b: Label, out: &mut Vec<Id>) {
        let hits = self
            .l_s()
            .range_intersect(self.pred_range(a), self.pred_range(b));
        out.clear();
        out.extend(hits.iter().map(|hit| hit.0));
    }

    fn prepare(&self, bp: &BitParallel, lp_masks: &mut EpochArray) {
        seed_label_masks(lp_masks, self.l_p(), bp);
    }

    /// With an automaton, one sweep of `L_p` over the items' object
    /// ranges under `B[v]` (§4.1); without, one batched backward step per
    /// label.
    fn fire(&self, firing: &Firing<'_>, chunk: &[(Id, u64)], x: &mut ChunkExpansion) {
        x.begin();
        match firing.automaton {
            Some((bp, lp_masks)) => {
                x.ranges
                    .extend(chunk.iter().map(|&(o, _)| narrow(self.object_range(o))));
                let mut guide = PredGuideMulti {
                    ring: self,
                    chunk,
                    union_d: chunk.iter().fold(0, |all, &(_, d)| all | d),
                    masks: lp_masks,
                    neg: bp.negated_positions(),
                    width: self.l_p().width(),
                    out: &mut x.hits,
                    nodes_entered: &mut x.wavelet_nodes,
                    node_mask: 0,
                    pending: 0,
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
        work_d.resize(x.hits.len(), 0);
        group_by_key(
            &mut x.item_end,
            chunk.len(),
            &x.hits,
            |hit| hit.item as usize,
            |work, hit| {
                let d_new = firing.back(hit.d);
                if d_new != 0 {
                    work_d[work] = d_new;
                    ranges[work] = hit.range;
                }
            },
        );
    }

    fn subjects(&self, visited: Option<&EpochArray>, x: &mut ChunkExpansion) {
        x.candidates.clear();
        x.sweep_subjects(self.l_s(), visited);
        x.group_candidates();
    }
}

/// Resets `B[v]` and seeds it for all wavelet-node ancestors of the
/// query's labels (lazy initialization, O(m log |P|), §4.1).
pub(crate) fn seed_label_masks(lp_masks: &mut EpochArray, lp: &WaveletMatrix, bp: &BitParallel) {
    let width_p = lp.width();
    lp_masks.ensure_len(lp.node_table_len());
    lp_masks.reset();
    for &(label, mask) in bp.positive_label_masks() {
        for level in 0..=width_p {
            let prefix = label >> (width_p - level);
            lp_masks.or_with(WaveletMatrix::node_index(level, prefix), mask);
        }
    }
}

/// §4.1, frontier-batched: prune `L_p` subtrees whose labels cannot
/// reach an active state of *any* frontier item (node level), then
/// per item against its own mask (item level). The expensive per-node
/// work — the `B[v]` lookup and the negated-class range mask — is done
/// once per node for the whole frontier.
struct PredGuideMulti<'a> {
    ring: &'a Ring,
    /// The items, for their state masks `D_i`.
    chunk: &'a [(Id, u64)],
    /// OR of all `D_i`: the node-level admission mask.
    union_d: u64,
    masks: &'a EpochArray,
    neg: &'a [(u64, Vec<Label>)],
    width: usize,
    /// The leaves, in arrival order.
    out: &'a mut Vec<Hit>,
    nodes_entered: &'a mut u64,
    /// `B[v] | neg` of the node admitted most recently.
    node_mask: u64,
    /// `D_i & B[p]` for the item whose `leaf` call comes next (the
    /// [`MultiRangeGuide`] contract: `leaf` immediately follows its
    /// item's `enter_item`); at a leaf this is exactly Eq. 2's input.
    pending: u64,
    /// `C_p` of the label whose leaves are arriving.
    base: (Label, usize),
}

impl MultiRangeGuide for PredGuideMulti<'_> {
    fn enter_node(&mut self, level: usize, prefix: u64) -> bool {
        *self.nodes_entered += 1;
        let mut mask = self.masks.get(WaveletMatrix::node_index(level, prefix));
        if !self.neg.is_empty() {
            mask |= neg_range_mask(self.neg, level, prefix, self.width);
        }
        self.node_mask = mask;
        mask & self.union_d != 0
    }

    fn enter_item(&mut self, item: u32, _level: usize, _prefix: u64) -> bool {
        let active = self.node_mask & self.chunk[item as usize].1;
        if active == 0 {
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
pub(crate) fn neg_range_mask(
    neg: &[(u64, Vec<Label>)],
    level: usize,
    prefix: u64,
    width: usize,
) -> u64 {
    let span = width - level;
    let lo = prefix << span;
    let len = 1u64 << span;
    let mut mask = 0;
    for (bit, excluded) in neg {
        let from = excluded.partition_point(|&l| l < lo);
        let to = excluded.partition_point(|&l| l < lo + len);
        if ((to - from) as u64) < len {
            mask |= bit;
        }
    }
    mask
}

/// §4.2's leaf filter over a whole chunk: skip subjects already visited
/// with every state their work item would add. Internal nodes are never
/// refused (the crate's `README.md`, "Deviations from the paper"). The
/// masks are read, never written: what that admits in excess the
/// replay's leaf filter removes ([`crate::kernel::Traversal`]).
struct SubjGuideMulti<'a> {
    /// Per work item, its `D'`.
    d_new: &'a [u64],
    /// `None`: every subject is wanted (the §5 joins).
    visited: Option<&'a EpochArray>,
    width: usize,
    /// `(work item, subject)`, in arrival order.
    out: &'a mut Vec<(u32, u32)>,
    nodes_entered: &'a mut u64,
    /// `D[s]` of the leaf entered most recently, once an item has asked
    /// for it.
    seen: Option<u64>,
}

impl MultiRangeGuide for SubjGuideMulti<'_> {
    const LEAF_RANKS: bool = false;
    // Only leaves are refused.
    const UNIT_SHORTCUT: bool = true;

    fn enter_node(&mut self, _level: usize, _prefix: u64) -> bool {
        *self.nodes_entered += 1;
        self.seen = None;
        true
    }

    fn enter_item(&mut self, item: u32, level: usize, prefix: u64) -> bool {
        let Some(masks) = self.visited.filter(|_| level == self.width) else {
            return true;
        };
        let seen = *self.seen.get_or_insert_with(|| masks.get(prefix as usize));
        self.d_new[item as usize] & !seen != 0
    }

    fn leaf(&mut self, item: u32, sym: u64, _rank_b: usize, _rank_e: usize) {
        self.out.push((item, sym as u32));
    }
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
