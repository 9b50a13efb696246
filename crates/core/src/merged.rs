//! The layered bit-parallel kernel: the §4 backward product-graph
//! traversal evaluated against a [`MergedView`] — node-granular
//! expansion where every backward step reads its adjacency through the
//! view (ring subjects with tombstones masked plus delta adds, or a
//! gather from the shards owning the label). The engine selects it for
//! every source that layers something over one ring — a non-empty delta
//! or a shard partition; a bare ring keeps the wavelet-batched kernel.
//!
//! Same answers as the wavelet-batched traversal by construction: both
//! are BFS over the product `G'_E` with the monotone visited masks
//! `D[s]`, visiting labels and subjects in ascending order; this one
//! just reads its adjacency through the overlay.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use automata::glushkov::INITIAL;
use automata::{BitParallel, Label};
use ring::Id;
use succinct::util::{EpochArray, FxHashMap};

use crate::kernel::{Kernel, Start, Stop};
use crate::profile::LevelProf;
use crate::query::{EngineOptions, TraversalStats};
use crate::source::MergedView;

/// Per-label admission masks `B[p]` for every label that can fire, from
/// the positive literal masks plus negated-class positions expanded
/// against the completed alphabet. Sorted by label for deterministic
/// expansion order.
fn relevant_labels(view: &MergedView<'_>, bp: &BitParallel) -> Vec<(Label, u64)> {
    let mut masks: FxHashMap<Label, u64> = FxHashMap::default();
    for &(label, mask) in bp.positive_label_masks() {
        *masks.entry(label).or_insert(0) |= mask;
    }
    let neg = bp.negated_positions();
    if !neg.is_empty() {
        for p in 0..view.ring.n_preds() {
            let mut bits = 0u64;
            for (bit, excluded) in neg {
                if excluded.binary_search(&p).is_err() {
                    bits |= bit;
                }
            }
            if bits != 0 {
                *masks.entry(p).or_insert(0) |= bits;
            }
        }
    }
    let mut out: Vec<(Label, u64)> = masks.into_iter().collect();
    out.sort_unstable_by_key(|&(p, _)| p);
    out
}

/// The layered kernel bound to one evaluation: the view, the per-node
/// visited masks, the query's `(E, Ê)` tables and the call's limits.
pub(crate) struct MergedKernel<'a> {
    pub(crate) view: MergedView<'a>,
    pub(crate) masks: &'a mut EpochArray,
    pub(crate) tables: (&'a BitParallel, &'a BitParallel),
    pub(crate) opts: &'a EngineOptions,
    pub(crate) deadline: Option<Instant>,
    pub(crate) threads: usize,
    pub(crate) prof: Option<&'a mut LevelProf>,
    /// Label-admission tables per direction (`[E, Ê]`): they depend only
    /// on `(view, tables)`, so every anchored run of a two-pass
    /// evaluation shares the one built on first use.
    pub(crate) labels: [Option<Vec<(Label, u64)>>; 2],
}

impl Kernel for MergedKernel<'_> {
    fn traverse(
        &mut self,
        reversed: bool,
        start: Start,
        budget: Option<u64>,
        stats: &mut TraversalStats,
        trace: Option<&mut Vec<(Id, u64)>>,
        report: &mut dyn FnMut(Id) -> bool,
    ) -> Stop {
        let bp = if reversed {
            self.tables.1
        } else {
            self.tables.0
        };
        let labels = self.labels[usize::from(reversed)]
            .get_or_insert_with(|| relevant_labels(&self.view, bp));
        let mut visit = Visit {
            masks: self.masks,
            budget,
            stats,
            trace,
            report,
            next: Vec::new(),
        };
        let stop = traverse(
            &self.view,
            bp,
            labels,
            start,
            self.deadline,
            self.threads.max(1),
            self.opts.parallel_min_frontier.max(2),
            self.prof.as_deref_mut(),
            &mut visit,
        )
        .err()
        .unwrap_or(Stop::Completed);
        // Close the last open level with this run's final counters — the
        // traversal exits early on deadline/budget/report aborts.
        if let Some(p) = self.prof.as_deref_mut() {
            p.finish(visit.stats.rank_ops, visit.stats.parallel_chunks);
        }
        stop
    }

    fn n_nodes(&self) -> Id {
        self.view.n_nodes()
    }

    fn node_exists(&self, v: Id) -> bool {
        self.view.node_exists(v)
    }
}

/// What a traversal run mutates on every product-node discovery.
struct Visit<'a> {
    masks: &'a mut EpochArray,
    budget: Option<u64>,
    stats: &'a mut TraversalStats,
    trace: Option<&'a mut Vec<(Id, u64)>>,
    report: &'a mut dyn FnMut(Id) -> bool,
    /// The next BFS level, accumulated while the current one expands.
    next: Vec<(Id, u64)>,
}

impl Visit<'_> {
    /// Offers subject `s` the state set `d_new`: when that adds states,
    /// the discovery is budgeted, recorded, traced, reported if the
    /// initial state newly activates, and queued for the next level.
    /// `Err` is the reason the whole traversal stops here.
    #[inline]
    fn admit(&mut self, s: Id, d_new: u64) -> Result<(), Stop> {
        let old = self.masks.get(s as usize);
        let fresh = d_new & !old;
        if fresh == 0 {
            return Ok(());
        }
        if self.budget.is_some_and(|nb| self.stats.product_nodes >= nb) {
            return Err(Stop::Budget);
        }
        self.masks.set(s as usize, old | d_new);
        self.stats.product_nodes += 1;
        if let Some(t) = self.trace.as_deref_mut() {
            t.push((s, fresh));
        }
        if fresh & INITIAL != 0 {
            self.stats.reported += 1;
            if !(self.report)(s) {
                return Err(Stop::Completed);
            }
        }
        self.next.push((s, fresh));
        Ok(())
    }

    /// One BFS step is about to expand: counts it and, every 64 steps,
    /// checks the deadline.
    #[inline]
    fn step(&mut self, deadline: Option<Instant>) -> Result<(), Stop> {
        self.stats.bfs_steps += 1;
        match deadline {
            Some(dl) if self.stats.bfs_steps.is_multiple_of(64) && Instant::now() >= dl => {
                Err(Stop::TimedOut)
            }
            _ => Ok(()),
        }
    }
}

/// Eq. 2 for one label: the state set every subject of a `p`-edge into a
/// node holding `d` receives (the same for all of them, Fact 1) — `None`
/// when `p` cannot fire from `d`.
#[inline]
fn step_states(bp: &BitParallel, d: u64, bmask: u64, edges: &mut u64) -> Option<u64> {
    let d_and_b = d & bmask;
    if d_and_b == 0 {
        return None;
    }
    *edges += 1;
    Some(bp.apply_bwd(d_and_b)).filter(|&d_new| d_new != 0)
}

/// The merged backward product BFS; `Err` carries why it stopped early.
///
/// [`Start::Object`] marks the start node and reports it for a
/// zero-length match. [`Start::Full`] is the full `L_p` range of §4.4 as
/// one BFS step: per label that can fire from the accepting states, all
/// of the label's subjects at once ([`MergedView::subjects_of_pred`]) —
/// the level the wavelet-batched kernel derives from the whole of `L_p`,
/// reached without visiting a node that carries none of the query's
/// labels.
///
/// Levels are expanded level-synchronously (the queue was strictly FIFO,
/// so per-level vectors visit nodes in the identical order). When
/// `threads > 1` and a level has at least `min_frontier` items, the
/// level is fanned out across pool workers in two phases: phase A
/// computes per-chunk candidate lists against a frozen snapshot of the
/// visited masks (read-only, so chunks race-free), phase B replays the
/// chunks in order on this thread, re-checking freshness against the
/// live masks and applying budget/trace/report/next-level effects in
/// the exact sequential order. The frozen filter only drops subjects
/// whose live `fresh` would also be zero (masks grow monotonically), so
/// phase B's pairs, flags, trace and counters are bit-for-bit identical
/// to the sequential walk.
#[allow(clippy::too_many_arguments)]
fn traverse(
    view: &MergedView<'_>,
    bp: &BitParallel,
    labels: &[(Label, u64)],
    start: Start,
    deadline: Option<Instant>,
    threads: usize,
    min_frontier: usize,
    mut prof: Option<&mut LevelProf>,
    visit: &mut Visit<'_>,
) -> Result<(), Stop> {
    let d0 = bp.accept_mask();
    if d0 == 0 {
        return Ok(());
    }
    visit.masks.reset();
    let mut frontier: Vec<(Id, u64)> = Vec::new();
    let mut subjects: Vec<Id> = Vec::new();
    match start {
        Start::Object(o) => {
            visit.masks.set(o as usize, d0);
            if d0 & INITIAL != 0 && view.node_exists(o) {
                visit.stats.reported += 1;
                if !(visit.report)(o) {
                    return Ok(());
                }
            }
            frontier.push((o, d0));
        }
        Start::Full => {
            if let Some(p) = prof.as_deref_mut() {
                p.enter(1, visit.stats.rank_ops, visit.stats.parallel_chunks);
            }
            visit.step(deadline)?;
            for &(p, bmask) in labels {
                let Some(d_new) = step_states(bp, d0, bmask, &mut visit.stats.product_edges) else {
                    continue;
                };
                view.subjects_of_pred(p, &mut subjects);
                for &s in &subjects {
                    visit.admit(s, d_new)?;
                }
            }
            std::mem::swap(&mut frontier, &mut visit.next);
        }
    }
    while !frontier.is_empty() {
        if let Some(p) = prof.as_deref_mut() {
            p.enter(
                frontier.len() as u64,
                visit.stats.rank_ops,
                visit.stats.parallel_chunks,
            );
        }
        if threads > 1 && frontier.len() >= min_frontier {
            // Phase A: speculative chunk expansion against frozen masks.
            let plans =
                expand_level_frozen(view, bp, labels, visit.masks, &frontier, deadline, threads);
            visit.stats.parallel_levels += 1;
            // Phase B: ordered replay with live masks.
            for plan in &plans {
                visit.stats.parallel_chunks += 1;
                if plan.deadline_hit {
                    return Err(Stop::TimedOut);
                }
                for item in &plan.items {
                    visit.step(deadline)?;
                    visit.stats.product_edges += item.n_edges;
                    for &(d_new, ref cands) in &item.preds {
                        for &s in cands {
                            visit.admit(s, d_new)?;
                        }
                    }
                }
            }
        } else {
            for &(o, d) in &frontier {
                visit.step(deadline)?;
                for &(p, bmask) in labels {
                    let Some(d_new) = step_states(bp, d, bmask, &mut visit.stats.product_edges)
                    else {
                        continue;
                    };
                    view.subjects_into(o, p, &mut subjects);
                    for &s in &subjects {
                        visit.admit(s, d_new)?;
                    }
                }
            }
        }
        std::mem::swap(&mut frontier, &mut visit.next);
        visit.next.clear();
    }
    Ok(())
}

/// A frontier chunk expanded speculatively against frozen masks: per
/// item, the labels that fire and the frozen-fresh candidate subjects.
struct LevelChunk {
    items: Vec<LevelItem>,
    /// The deadline had already passed when this chunk was claimed; the
    /// replay turns this into `Stop::TimedOut`.
    deadline_hit: bool,
}

/// One frontier item's speculative expansion.
struct LevelItem {
    /// Labels with a non-empty state intersection (the sequential
    /// `product_edges` increment, counted even when `d_new == 0`).
    n_edges: u64,
    /// `(d_new, candidates)` per label that survives `apply_bwd`;
    /// candidates are the merged subjects still fresh against the frozen
    /// masks, in merged (sorted) order.
    preds: Vec<(u64, Vec<Id>)>,
}

/// Phase A: fans `frontier` chunks across pool helpers (plus this
/// thread), each chunk reading only the ring/delta and the frozen
/// `masks` snapshot. Chunk geometry depends on `(frontier.len, threads)`
/// alone — never on how many helpers the pool actually grants — so the
/// replay order is deterministic.
fn expand_level_frozen(
    view: &MergedView<'_>,
    bp: &BitParallel,
    labels: &[(Label, u64)],
    masks: &EpochArray,
    frontier: &[(Id, u64)],
    deadline: Option<Instant>,
    threads: usize,
) -> Vec<LevelChunk> {
    // ~4 chunks per requested thread for dynamic load balancing, but
    // don't shatter small levels.
    let chunk_size = frontier.len().div_ceil(threads * 4).clamp(64, 4096);
    let n_chunks = frontier.len().div_ceil(chunk_size);
    let grant = crate::parallel::acquire_helpers(threads.saturating_sub(1));
    let slots: Vec<OnceLock<LevelChunk>> = (0..n_chunks).map(|_| OnceLock::new()).collect();
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let work = || loop {
            let c = cursor.fetch_add(1, Ordering::Relaxed);
            if c >= n_chunks {
                break;
            }
            let lo = c * chunk_size;
            let hi = (lo + chunk_size).min(frontier.len());
            let _ = slots[c].set(expand_chunk_frozen(
                view,
                bp,
                labels,
                masks,
                &frontier[lo..hi],
                deadline,
            ));
        };
        for _ in 0..grant.count().min(n_chunks.saturating_sub(1)) {
            scope.spawn(work);
        }
        work();
    });
    slots
        .into_iter()
        .map(|s| s.into_inner().expect("phase A fills every chunk slot"))
        .collect()
}

/// Expands one chunk read-only: the merged adjacency and the frozen
/// masks. Dropping subjects that are stale against the snapshot is safe
/// because masks only grow — their live `fresh` would be zero too.
fn expand_chunk_frozen(
    view: &MergedView<'_>,
    bp: &BitParallel,
    labels: &[(Label, u64)],
    masks: &EpochArray,
    chunk: &[(Id, u64)],
    deadline: Option<Instant>,
) -> LevelChunk {
    let mut out = LevelChunk {
        items: Vec::with_capacity(chunk.len()),
        deadline_hit: false,
    };
    if let Some(dl) = deadline {
        if Instant::now() >= dl {
            out.deadline_hit = true;
            return out;
        }
    }
    let mut subjects: Vec<Id> = Vec::new();
    for &(o, d) in chunk {
        let mut item = LevelItem {
            n_edges: 0,
            preds: Vec::new(),
        };
        for &(p, bmask) in labels {
            let Some(d_new) = step_states(bp, d, bmask, &mut item.n_edges) else {
                continue;
            };
            view.subjects_into(o, p, &mut subjects);
            let cands: Vec<Id> = subjects
                .iter()
                .copied()
                .filter(|&s| d_new & !masks.get(s as usize) != 0)
                .collect();
            if !cands.is_empty() {
                item.preds.push((d_new, cands));
            }
        }
        out.items.push(item);
    }
    out
}
