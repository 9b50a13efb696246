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
use succinct::util::EpochArray;

use crate::pairbuf::PairBuffer;
use crate::planner::Direction;
use crate::profile::LevelProf;
use crate::query::{EngineOptions, QueryOutput, Term, TraversalStats};
use crate::scratch::EngineScratch;
use crate::step::{group_by_key, negated_firing_labels, ChunkExpansion, Firing, StepSource};

/// The frontier items a traversal's first chunk holds. A BFS level is
/// swept in chunks, in node order, and the chunk **grows with the
/// traversal**: every chunk that was full doubles the next one, up to
/// [`FRONTIER_CHUNK_MAX`]. A wide chunk walks the bit vectors of `L_p`,
/// `L_s` and `C_o` once, front to back, where narrow ones walk them over
/// and over; a narrow first chunk keeps a traversal the limit cuts short
/// from paying for a level it abandons. The geometry is a function of the
/// traversal's own history: the same on every source and thread count.
pub(crate) const FRONTIER_CHUNK: usize = 1024;

/// The most frontier items expanded at a time (bounds the per-chunk
/// scratch, and what an early stop wastes).
pub(crate) const FRONTIER_CHUNK_MAX: usize = 8 * FRONTIER_CHUNK;

/// Levels at least this wide are ordered by a radix sort.
const RADIX_MIN: usize = 512;

/// Bits per radix digit: two passes order ids below 2^22.
const RADIX_BITS: usize = 11;

/// Puts a BFS level in visiting order: ascending by node, a node reached
/// more than once kept once with its state sets united (`T'` distributes
/// over union, so one step from the union is the steps from the parts).
/// `spare` is a buffer to sort through; its contents are not kept.
pub(crate) fn order_level(level: &mut Vec<(Id, u64)>, spare: &mut Vec<(Id, u64)>) {
    if level.len() < RADIX_MIN {
        level.sort_unstable_by_key(|entry| entry.0);
    } else {
        // Least significant digit first, over the digits in use.
        let in_use = level.iter().fold(0, |bits, entry| bits | entry.0);
        let mut ends = Vec::new();
        spare.clear();
        spare.resize(level.len(), (0, 0));
        for shift in (0..Id::BITS as usize).step_by(RADIX_BITS) {
            if in_use >> shift == 0 {
                break;
            }
            let digit = |entry: &(Id, u64)| (entry.0 >> shift) as usize & ((1 << RADIX_BITS) - 1);
            group_by_key(&mut ends, 1 << RADIX_BITS, level, digit, |slot, entry| {
                spare[slot] = *entry
            });
            std::mem::swap(level, spare);
        }
    }
    level.dedup_by(|later, kept| {
        kept.0 == later.0 && {
            kept.1 |= later.1;
            true
        }
    });
}

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
/// A BFS whose levels are visited in node order: the traversal runs
/// level by level, each level's `(node, D)` items ascending by node
/// ([`order_level`]) so that every sweep reads its bit vectors front to
/// back, in chunks that grow with the traversal ([`FRONTIER_CHUNK`]),
/// each chunk in two steps. *Expand* writes nothing shared: the source's
/// part one finds the chunk's work items, its part two their subjects
/// under the visited masks as they stood when the chunk began — a
/// superset of what the live masks admit, in the same order, since masks
/// only grow. *Replay* ([`Replay::chunk`]) then walks the chunk's work in
/// visiting order against the live masks and discards precisely that
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
        src.prepare(bp, lp_masks);
        visited.ensure_len(src.n_nodes() as usize);
        visited.reset();
        let firing = Firing {
            labels,
            automaton: Some((bp, lp_masks)),
        };
        frontier.clear();
        next_frontier.clear();
        if expansions.is_empty() {
            expansions.push(ChunkExpansion::default());
        }
        let mut replay = Replay {
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
                visited.set(o as usize, d0);
                if src.node_exists(o) {
                    if d0 & INITIAL != 0 {
                        replay.stats.reported += 1;
                        if !(replay.report)(o) {
                            return Ok(());
                        }
                    }
                    replay.next.push((o, d0));
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
            }
        }

        let threads = self.threads.max(1);
        let mut chunk = FRONTIER_CHUNK;
        loop {
            order_level(replay.next, frontier);
            std::mem::swap(frontier, replay.next);
            replay.next.clear();
            if frontier.is_empty() {
                return Ok(());
            }
            if let Some(p) = self.prof.as_deref_mut() {
                let stats = &replay.stats;
                p.enter(frontier.len() as u64, stats.rank_ops, stats.parallel_chunks);
            }
            // A level wide enough for the threads the planner granted has
            // every chunk cut into ~4 pieces per thread, so that claiming
            // them one by one balances skew: by `(frontier.len(), threads)`
            // alone, never by how many helpers the pool can spare right now.
            let fan = threads > 1 && frontier.len() >= opts.parallel_min_frontier.max(2);
            let (cuts, extra) = if fan {
                (threads * 4, threads - 1)
            } else {
                (1, 0)
            };
            replay.stats.parallel_levels += u64::from(fan);
            let mut rest = frontier.as_slice();
            while !rest.is_empty() {
                // One chunk's expansion cannot be interrupted: the clock
                // is read between chunks, however few steps they replay.
                if self.deadline.is_some_and(|dl| Instant::now() >= dl) {
                    return Err(Stop::TimedOut);
                }
                let (now, later) = rest.split_at(rest.len().min(chunk));
                rest = later;
                if now.len() == chunk {
                    chunk = (2 * chunk).min(FRONTIER_CHUNK_MAX);
                }
                let mut stopped = Ok(());
                crate::parallel::map_chunks_into(
                    visited,
                    now,
                    now.len().div_ceil(cuts).max(64),
                    extra,
                    expansions,
                    |visited, piece, x| {
                        src.fire(&firing, piece, x);
                        src.subjects(Some(visited), x);
                    },
                    |visited, x| {
                        replay.stats.parallel_chunks += u64::from(fan);
                        stopped = replay.chunk(visited, x);
                        stopped.is_ok()
                    },
                );
                stopped?;
            }
        }
    }
}

/// What a traversal run mutates as it replays chunks — the only writer
/// of the visited masks, and the one place budget, deadline, trace,
/// `report` and the product-graph counters live.
struct Replay<'a> {
    budget: Option<u64>,
    deadline: Option<Instant>,
    stats: &'a mut TraversalStats,
    trace: Option<&'a mut Vec<(Id, u64)>>,
    report: &'a mut dyn FnMut(Id) -> bool,
    /// The next BFS level, accumulated while the current one is replayed.
    next: &'a mut Vec<(Id, u64)>,
}

impl Replay<'_> {
    /// Replays one expanded chunk in visiting order against the live masks.
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
                    let old = visited.get(s as usize);
                    let fresh = d_new & !old;
                    if fresh == 0 {
                        continue;
                    }
                    if self.budget.is_some_and(|nb| stats.product_nodes >= nb) {
                        return Err(Stop::Budget);
                    }
                    visited.set(s as usize, old | d_new);
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

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The visiting order as the spec words it: sorted by node, the
    /// duplicates of a node OR-ed into one entry.
    fn specified(level: &[(Id, u64)]) -> Vec<(Id, u64)> {
        let mut sorted = level.to_vec();
        sorted.sort_unstable_by_key(|entry| entry.0);
        let mut merged: Vec<(Id, u64)> = Vec::new();
        for (node, d) in sorted {
            match merged.last_mut() {
                Some(last) if last.0 == node => last.1 |= d,
                _ => merged.push((node, d)),
            }
        }
        merged
    }

    fn ordered(level: &[(Id, u64)]) -> Vec<(Id, u64)> {
        // The spare buffer's contents are nobody's business.
        let (mut level, mut spare) = (level.to_vec(), vec![(7, 7); 3]);
        order_level(&mut level, &mut spare);
        level
    }

    #[test]
    fn a_level_is_ordered_by_node_and_merged() {
        assert_eq!(ordered(&[]), vec![]);
        assert_eq!(ordered(&[(9, 0b10)]), vec![(9, 0b10)]);
        assert_eq!(
            ordered(&[(5, 0b001), (2, 0b100), (5, 0b010), (2, 0b100)]),
            vec![(2, 0b100), (5, 0b011)]
        );
        // One node, many masks, on either side of the radix threshold.
        for n in [3, RADIX_MIN - 1, RADIX_MIN, 3 * RADIX_MIN] {
            let level: Vec<(Id, u64)> = (0..n).map(|i| (1 << 30, 1 << (i % 64))).collect();
            let all = if n < 64 { (1 << n) - 1 } else { u64::MAX };
            assert_eq!(ordered(&level), vec![(1 << 30, all)], "{n} entries");
        }
        // Wide levels whose ids need one, two, three and six digits.
        for top in [1u64 << 9, 1 << 17, 1 << 24, 1 << 33, u64::MAX] {
            let level: Vec<(Id, u64)> = (0..4 * RADIX_MIN as u64)
                .map(|i| (top - (i * 0x9E37_79B9) % top.min(5000), 1 << (i % 7)))
                .collect();
            assert_eq!(ordered(&level), specified(&level), "ids up to {top}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn level_order_equals_sort_then_merge(
            raw in prop::collection::vec((any::<u64>(), any::<u64>(), 0u32..4), 0..1500),
        ) {
            // Ids from a handful (every entry a duplicate), from a dense
            // universe, from above 2^24, and from all of u64.
            let level: Vec<(Id, u64)> = raw
                .into_iter()
                .map(|(id, d, kind)| match kind {
                    0 => (id % 5, d),
                    1 => (id % 3000, d),
                    2 => ((1 << 24) + id % (1 << 20), d),
                    _ => (id, d),
                })
                .collect();
            prop_assert_eq!(ordered(&level), specified(&level));
        }
    }
}
