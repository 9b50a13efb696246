//! The traversal kernel: the §4.4 dispatch over the four endpoint shapes
//! and the one backward product-graph BFS behind it, both written once.
//! What differs between sources — how a batch of backward steps reads
//! its adjacency — is behind [`StepSource`]: three level-synchronous
//! sweeps over a bare ring, per-owner-shard sweeps merged with the delta
//! arrays over a layered view.

use std::time::Instant;

use automata::glushkov::INITIAL;
use automata::{BitParallel, Label};
use ring::Id;
use succinct::util::{BitSet, EpochArray};

use crate::pairbuf::PairBuffer;
use crate::planner::Direction;
use crate::profile::LevelProf;
use crate::query::{EngineOptions, QueryOutput, Term, TraversalStats};
use crate::scratch::EngineScratch;
use crate::step::{
    negated_firing_labels, propagate_up, ChunkExpansion, Firing, StepSource, VisitedLayout,
};

/// The most frontier items expanded at a time (bounds the per-chunk
/// scratch; a BFS level is processed in chunks, in order).
pub(crate) const FRONTIER_CHUNK: usize = 1024;

/// Where a backward traversal starts.
#[derive(Clone, Copy)]
pub(crate) enum Start {
    /// From one object, marked visited with the accepting states
    /// (queries with a constant endpoint).
    Object(Id),
    /// From every object at once, none of them marked — the full `L_p`
    /// range of §4.4.
    Full,
}

/// Why a backward traversal stopped early (if it did).
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Stop {
    /// Ran to completion (or the report callback asked to stop).
    Completed,
    /// The wall-clock deadline passed.
    TimedOut,
    /// The product-node budget ran out.
    Budget,
}

/// A backward traversal bound to a query's transition tables and
/// per-call limits: what the §4.4 dispatch drives. [`Traversal`] is the
/// implementation; the tests keep an item-at-a-time reference beside it.
pub(crate) trait Kernel {
    /// Traverses the product graph backwards from `start` under `E`'s
    /// tables, or `Ê`'s when `reversed`. Calls `report(r)` for every
    /// node where the initial state newly activates (a `false` return
    /// aborts); `budget` caps the product nodes *this* run may visit.
    fn traverse(
        &mut self,
        reversed: bool,
        start: Start,
        budget: Option<u64>,
        stats: &mut TraversalStats,
        trace: Option<&mut Vec<(Id, u64)>>,
        report: &mut dyn FnMut(Id) -> bool,
    ) -> Stop;

    /// The evaluation node universe.
    fn n_nodes(&self) -> Id;

    /// Whether `v` has at least one live edge.
    fn node_exists(&self, v: Id) -> bool;
}

/// Evaluates `(subject, E, object)` on `kernel`: anchored queries
/// traverse backward from the constant (`(s, E, y) ≡ (y, Ê, s)`),
/// const-const is an existence check from the end the planner found
/// cheaper, and variable-to-variable runs the two-pass strategy.
pub(crate) fn evaluate(
    kernel: &mut impl Kernel,
    nullable: bool,
    direction: Option<Direction>,
    subject: Term,
    object: Term,
    opts: &EngineOptions,
) -> QueryOutput {
    let mut out = QueryOutput::default();
    match (subject, object) {
        (Term::Var, Term::Const(o)) => eval_anchored(kernel, false, o, None, opts, &mut out),
        (Term::Const(s), Term::Var) => eval_anchored(kernel, true, s, None, opts, &mut out),
        (Term::Const(s), Term::Const(o)) => {
            if direction == Some(Direction::FromObject) {
                eval_anchored(kernel, false, o, Some(s), opts, &mut out);
            } else {
                eval_anchored(kernel, true, s, Some(o), opts, &mut out);
            }
        }
        (Term::Var, Term::Var) => {
            let sources_first = direction == Some(Direction::FromSubject);
            eval_var_var(kernel, nullable, sources_first, opts, &mut out);
        }
    }
    out
}

/// The pair a node `r` reached from `anchor` stands for: the anchor is
/// the object under `E`, the subject under `Ê`.
fn pair_of(reversed: bool, anchor: Id, r: Id) -> (Id, Id) {
    if reversed {
        (anchor, r)
    } else {
        (r, anchor)
    }
}

/// Anchored traversal from `anchor`, reporting every node where the
/// initial state activates. `target` turns it into an existence check.
fn eval_anchored(
    kernel: &mut impl Kernel,
    reversed: bool,
    anchor: Id,
    target: Option<Id>,
    opts: &EngineOptions,
    out: &mut QueryOutput,
) {
    let QueryOutput {
        pairs,
        truncated,
        trace,
        stats,
        ..
    } = out;
    let stop = kernel.traverse(
        reversed,
        Start::Object(anchor),
        opts.node_budget,
        stats,
        opts.collect_trace.then_some(trace),
        &mut |r| match target {
            Some(t) if r != t => true,
            Some(_) => {
                pairs.push(pair_of(reversed, anchor, r));
                false
            }
            None => {
                pairs.push(pair_of(reversed, anchor, r));
                *truncated = pairs.len() >= opts.limit;
                !*truncated
            }
        },
    );
    out.timed_out = stop == Stop::TimedOut;
    out.budget_exhausted = stop == Stop::Budget;
}

/// The `(x, E, y)` strategy of §4.4: one full-range backward pass finds
/// the useful anchors, then one anchored traversal per anchor. The
/// direction (`sources_first` vs targets-first) is the planner's §5
/// smallest-first-expansion choice. The node budget is cumulative across
/// the passes.
///
/// Pass 1 stops after `opts.limit` anchors when `E` is not nullable:
/// every anchor then contributes at least one pair no other anchor can
/// produce (they differ in the anchored component), so pass 2 reaches
/// the limit within the first `limit` anchors and never looks at a
/// later one. A nullable `E` also pairs every node with itself, which
/// breaks the one-new-pair-per-anchor count, so its pass 1 runs in full.
fn eval_var_var(
    kernel: &mut impl Kernel,
    nullable: bool,
    sources_first: bool,
    opts: &EngineOptions,
    out: &mut QueryOutput,
) {
    // Sorted-vec dedup instead of a hash set: pushes are a bump write,
    // compaction amortizes, and truncation keeps a deterministic
    // (smallest) subset. See [`PairBuffer`].
    let mut pairs = PairBuffer::new();

    // Zero-length paths: every existing node pairs with itself (already
    // distinct, so the raw length is the distinct count).
    if nullable {
        for v in (0..kernel.n_nodes()).filter(|&v| kernel.node_exists(v)) {
            pairs.push((v, v));
            if pairs.distinct_reached(opts.limit) {
                out.truncated = true;
                break;
            }
        }
    }

    // Pass 1: the useful anchors, from the full range.
    let mut anchors: Vec<Id> = Vec::new();
    if !out.truncated {
        let enough = if nullable { usize::MAX } else { opts.limit };
        let stop = kernel.traverse(
            !sources_first,
            Start::Full,
            opts.node_budget,
            &mut out.stats,
            opts.collect_trace.then_some(&mut out.trace),
            &mut |r| {
                anchors.push(r);
                anchors.len() < enough
            },
        );
        out.timed_out = stop == Stop::TimedOut;
        out.budget_exhausted = stop == Stop::Budget;
    }

    // Pass 2: one anchored traversal per useful node; each gets the
    // budget the previous runs left over.
    let mut full = false;
    for &a in &anchors {
        if full || out.timed_out || out.budget_exhausted {
            break;
        }
        let mut stats = TraversalStats::default();
        let stop = kernel.traverse(
            sources_first,
            Start::Object(a),
            opts.node_budget
                .map(|nb| nb.saturating_sub(out.stats.product_nodes)),
            &mut stats,
            opts.collect_trace.then_some(&mut out.trace),
            &mut |r| {
                // Sources-first: a is a source, r its reachable target.
                pairs.push(pair_of(sources_first, a, r));
                // Amortized probe; the settle below is exact.
                full = pairs.maybe_reached(opts.limit);
                !full
            },
        );
        out.stats.add(&stats);
        out.timed_out |= stop == Stop::TimedOut;
        out.budget_exhausted |= stop == Stop::Budget;
    }

    // Exact settle: the amortized limit probe may have lagged.
    if pairs.distinct_reached(opts.limit) {
        pairs.truncate_distinct(opts.limit);
        out.truncated = true;
    }
    pairs.compact();
    out.stats.pair_compactions += pairs.compactions();
    out.pairs = pairs.into_sorted_vec();
}

/// The backward product-graph traversal (§4, parts one to three) over any
/// [`StepSource`], bound to one evaluation.
///
/// A FIFO queue visits whole BFS levels consecutively, so the traversal
/// runs level by level, each level in frontier chunks of `(node, D)`
/// items, each chunk in two steps. *Expand* writes nothing shared: the
/// source's part one finds the chunk's work items, its part two their
/// subjects under the visited masks as they stood when the chunk began
/// — a superset of what the live masks admit, in the same order, since
/// masks only grow. *Replay* ([`Replay::chunk`]) then walks the chunk's
/// work in FIFO order against the live masks and discards precisely that
/// excess; the subjects it admits are the next level's items. Nothing
/// observable tells the result from a traversal that expands one item
/// at a time, on any source or thread count (the crate's `README.md`,
/// "How one BFS level is expanded", has the argument;
/// `level_sync_identity` holds the code to it).
pub(crate) struct Traversal<'a, S: StepSource + ?Sized> {
    pub(crate) src: &'a S,
    pub(crate) scratch: &'a mut EngineScratch,
    /// The query's `(E, Ê)` tables.
    pub(crate) tables: (&'a BitParallel, &'a BitParallel),
    pub(crate) opts: &'a EngineOptions,
    pub(crate) deadline: Option<Instant>,
    /// Threads the planner granted this evaluation.
    pub(crate) threads: usize,
    pub(crate) prof: Option<&'a mut LevelProf>,
    /// `B[p]` per firing label and direction (`[E, Ê]`) of a query with
    /// negated classes: they depend on the tables alone, so every
    /// anchored run of a two-pass evaluation shares the one built on
    /// first use.
    pub(crate) negated_labels: [Option<Vec<(Label, u64)>>; 2],
}

impl<S: StepSource + ?Sized> Kernel for Traversal<'_, S> {
    fn traverse(
        &mut self,
        reversed: bool,
        start: Start,
        budget: Option<u64>,
        stats: &mut TraversalStats,
        trace: Option<&mut Vec<(Id, u64)>>,
        report: &mut dyn FnMut(Id) -> bool,
    ) -> Stop {
        let stop = self
            .run(reversed, start, budget, stats, trace, report)
            .err()
            .unwrap_or(Stop::Completed);
        // Close the last open level sample with this run's final
        // counters — the traversal has many early exits (deadline,
        // budget, report abort) and this covers them all.
        if let Some(p) = self.prof.as_deref_mut() {
            p.finish(stats.rank_ops, stats.parallel_chunks);
        }
        stop
    }

    fn n_nodes(&self) -> Id {
        self.src.n_nodes()
    }

    fn node_exists(&self, v: Id) -> bool {
        self.src.node_exists(v)
    }
}

impl<S: StepSource + ?Sized> Traversal<'_, S> {
    /// The traversal proper; `Err` carries why it stopped early.
    fn run(
        &mut self,
        reversed: bool,
        start: Start,
        budget: Option<u64>,
        stats: &mut TraversalStats,
        trace: Option<&mut Vec<(Id, u64)>>,
        report: &mut dyn FnMut(Id) -> bool,
    ) -> Result<(), Stop> {
        let (src, opts) = (self.src, self.opts);
        let bp = [self.tables.0, self.tables.1][usize::from(reversed)];
        let d0 = bp.accept_mask();
        if d0 == 0 {
            return Ok(());
        }
        let labels = if bp.negated_positions().is_empty() {
            bp.positive_label_masks()
        } else {
            self.negated_labels[usize::from(reversed)]
                .get_or_insert_with(|| negated_firing_labels(src.ring().n_preds(), bp))
                .as_slice()
        };
        let EngineScratch {
            lp_masks,
            visited,
            frontier,
            next_frontier,
            expansions,
        } = &mut *self.scratch;
        let VisitedLayout { base, len, tree } = src.prepare(bp, lp_masks);
        visited.ensure_len(len);
        visited.reset();
        let firing = Firing {
            labels,
            automaton: Some((bp, lp_masks)),
        };
        let tree = tree.filter(|_| opts.node_pruning);
        frontier.clear();
        next_frontier.clear();
        if expansions.is_empty() {
            expansions.push(ChunkExpansion::default());
        }
        let mut replay = Replay {
            base,
            tree,
            budget,
            deadline: self.deadline,
            stats,
            trace,
            report,
            next: next_frontier,
        };

        match start {
            Start::Object(o) => {
                // Mark F on the start node (§4.2) and report a zero-length
                // match if the initial state is already accepting.
                visited.set(base + o as usize, d0);
                if src.node_exists(o) {
                    if d0 & INITIAL != 0 {
                        replay.stats.reported += 1;
                        if !(replay.report)(o) {
                            return Ok(());
                        }
                    }
                    frontier.push((o, d0));
                }
            }
            Start::Full => {
                // The full `L_p` range of §4.4 as one BFS step, seeded
                // by label: every firing label's edges at once, none of
                // the labels the query does not mention.
                if let Some(p) = self.prof.as_deref_mut() {
                    p.enter(1, replay.stats.rank_ops, replay.stats.parallel_chunks);
                }
                // Nothing is visited yet: every listed subject is fresh.
                let (x, mut listed) = (&mut expansions[0], Vec::new());
                x.begin();
                x.subjects.clear();
                x.work_end.clear();
                for &(label, bmask) in labels.iter().filter(|l| l.1 & d0 != 0) {
                    src.label_subjects(label, usize::MAX, &mut listed);
                    if !listed.is_empty() {
                        x.work_d.push(bp.apply_bwd(d0 & bmask));
                        x.subjects.append(&mut listed);
                        x.work_end.push(x.subjects.len());
                    }
                }
                x.item_end.push(x.work_d.len());
                replay.chunk(visited, x)?;
                std::mem::swap(frontier, replay.next);
                replay.next.clear();
            }
        }

        let threads = self.threads.max(1);
        while !frontier.is_empty() {
            if let Some(p) = self.prof.as_deref_mut() {
                let stats = &replay.stats;
                p.enter(frontier.len() as u64, stats.rank_ops, stats.parallel_chunks);
            }
            // A level wide enough for the threads the planner granted is
            // cut into ~4 chunks per thread, so that claiming them one by
            // one balances skew: by `(frontier.len(), threads)` alone, never
            // by how many helpers the pool can spare right now.
            let fan = threads > 1 && frontier.len() >= opts.parallel_min_frontier.max(2);
            let (cuts, extra) = if fan {
                (threads * 4, threads - 1)
            } else {
                (1, 0)
            };
            let chunk_size = frontier.len().div_ceil(cuts).clamp(64, FRONTIER_CHUNK);
            replay.stats.parallel_levels += u64::from(fan);
            let mut stopped = Ok(());
            crate::parallel::map_chunks_into(
                visited,
                frontier,
                chunk_size,
                extra,
                expansions,
                |visited, chunk, x| {
                    src.fire(&firing, chunk, x);
                    src.subjects(Some((visited, base, tree.is_some())), x);
                },
                |visited, x| {
                    replay.stats.parallel_chunks += u64::from(fan);
                    stopped = replay.chunk(visited, x);
                    stopped.is_ok()
                },
            );
            stopped?;
            std::mem::swap(frontier, replay.next);
            replay.next.clear();
        }
        Ok(())
    }
}

/// What a traversal run mutates as it replays chunks — the only writer
/// of the visited masks, and the one place budget, deadline, trace,
/// `report` and the product-graph counters live.
struct Replay<'a> {
    /// [`VisitedLayout::base`] and, under node pruning,
    /// [`VisitedLayout::tree`].
    base: usize,
    tree: Option<(&'a BitSet, usize)>,
    budget: Option<u64>,
    deadline: Option<Instant>,
    stats: &'a mut TraversalStats,
    trace: Option<&'a mut Vec<(Id, u64)>>,
    report: &'a mut dyn FnMut(Id) -> bool,
    /// The next BFS level, accumulated while the current one is replayed.
    next: &'a mut Vec<(Id, u64)>,
}

impl Replay<'_> {
    /// Replays one expanded chunk in FIFO order against the live masks.
    /// `Err` is the reason the whole traversal stops here.
    fn chunk(&mut self, visited: &mut EpochArray, x: &ChunkExpansion) -> Result<(), Stop> {
        let stats = &mut *self.stats;
        stats.rank_ops += x.rank_ops;
        stats.rank_ops_saved += x.rank_ops_saved;
        stats.wavelet_nodes += x.wavelet_nodes;
        let (mut work, mut next_subject) = (0, 0);
        for &item_end in &x.item_end {
            stats.bfs_steps += 1;
            if let Some(dl) = self.deadline {
                if stats.bfs_steps.is_multiple_of(64) && Instant::now() >= dl {
                    return Err(Stop::TimedOut);
                }
            }
            while work < item_end {
                stats.product_edges += 1;
                // Eq. 2: the same new state set for every subject of the
                // work item (Fact 1).
                let d_new = x.work_d[work];
                let subjects = &x.subjects[next_subject..x.work_end[work]];
                next_subject = x.work_end[work];
                work += 1;
                for &s in subjects {
                    // The per-node visited filter D[s]: soundness and
                    // Theorem 4.1 depend on it.
                    let idx = self.base + s as usize;
                    let old = visited.get(idx);
                    let fresh = d_new & !old;
                    if fresh == 0 {
                        continue;
                    }
                    if self.budget.is_some_and(|nb| stats.product_nodes >= nb) {
                        return Err(Stop::Budget);
                    }
                    visited.set(idx, old | d_new);
                    if let Some((occupancy, width)) = self.tree {
                        propagate_up(visited, occupancy, width, s);
                    }
                    stats.product_nodes += 1;
                    if let Some(t) = self.trace.as_deref_mut() {
                        t.push((s, fresh));
                    }
                    if fresh & INITIAL != 0 {
                        stats.reported += 1;
                        if !(self.report)(s) {
                            return Err(Stop::Completed);
                        }
                    }
                    // Part three: the subject becomes an object again, on
                    // the next BFS level.
                    self.next.push((s, fresh));
                }
            }
        }
        Ok(())
    }
}
