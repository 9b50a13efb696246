//! The §5 fast paths: query patterns `v p v`, `v ^p v`, `v p|q v`,
//! `v p/q v` (and their anchored variants) evaluated with plain backward
//! steps and batched subject lookups, bypassing the automaton.
//!
//! "Such paths can be solved as join queries, with more efficient
//! algorithms" — the paper concedes these patterns to the competitors'
//! join machinery; these handlers are the ring's equivalent. They are
//! written once over the step source, like the traversal: a bare ring
//! answers a batch with one shared rank chain and one batched access of
//! `L_s`, a delta or sharded view with the same per owner, merged — and
//! the limit is tested at the same points on every source.

use automata::ast::{Lit, Regex};
use automata::Label;
use ring::Id;
use std::time::Instant;

use crate::kernel::nanos;
use crate::pairbuf::PairBuffer;
use crate::profile::{PhaseTimes, QueryProfile};
use crate::query::{EngineOptions, QueryOutput, Term, TraversalStats};
use crate::step::{step_label, ChunkExpansion, CommonWalk, StepSource};

/// Midpoints/subjects stepped through the index per batch: the backward
/// steps of a whole batch share one rank chain and one batched access;
/// limits are re-checked between batches.
const STEP_BATCH: usize = 256;

/// Recognized specializable expression shapes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Shape {
    /// A single label (possibly an inverse): `p` or `^p`.
    Single(Label),
    /// A union of labels: `p1|p2|…` (also label classes).
    Disjunction(Vec<Label>),
    /// A two-step concatenation of single labels: `p1/p2`.
    Concat2(Label, Label),
    /// Anything else goes through the general engine.
    Other,
}

/// Classifies an expression.
pub fn shape_of(expr: &Regex) -> Shape {
    fn disj_labels(e: &Regex, out: &mut Vec<Label>) -> bool {
        match e {
            Regex::Literal(Lit::Label(l)) => {
                out.push(*l);
                true
            }
            Regex::Literal(Lit::Class(ls)) if !ls.is_empty() => {
                out.extend_from_slice(ls);
                true
            }
            Regex::Alt(a, b) => disj_labels(a, out) && disj_labels(b, out),
            _ => false,
        }
    }
    match expr {
        Regex::Literal(Lit::Label(l)) => Shape::Single(*l),
        Regex::Literal(Lit::Class(ls)) if ls.len() == 1 => Shape::Single(ls[0]),
        Regex::Literal(Lit::Class(ls)) if !ls.is_empty() => Shape::Disjunction(ls.clone()),
        Regex::Alt(_, _) => {
            let mut v = Vec::new();
            if disj_labels(expr, &mut v) {
                v.sort_unstable();
                v.dedup();
                Shape::Disjunction(v)
            } else {
                Shape::Other
            }
        }
        Regex::Concat(a, b) => match (a.as_ref(), b.as_ref()) {
            (Regex::Literal(Lit::Label(p1)), Regex::Literal(Lit::Label(p2))) => {
                Shape::Concat2(*p1, *p2)
            }
            _ => Shape::Other,
        },
        _ => Shape::Other,
    }
}

/// Evaluates a specializable shape anchored at the given endpoints,
/// fanning large variable-to-variable sweeps across up to `threads`
/// pool workers.
pub(crate) fn evaluate<S: StepSource + ?Sized>(
    src: &S,
    shape: &Shape,
    subject: Term,
    object: Term,
    opts: &EngineOptions,
    deadline: Option<Instant>,
    threads: usize,
) -> QueryOutput {
    let mut sink = Sink {
        limit: opts.limit,
        // The fast paths touch one product node per reported pair, so the
        // node budget degenerates to a pair cap here.
        node_budget: opts.node_budget.map_or(usize::MAX, |nb| nb as usize),
        deadline,
        fan_out: (threads > 1).then(|| (threads - 1, opts.parallel_min_frontier.max(2))),
        phases: opts.profile.then(PhaseTimes::default),
        ..Sink::default()
    };
    // The buffers the anchored forms step in.
    let x = &mut ChunkExpansion::default();
    match shape {
        Shape::Single(p) => single(src, *p, subject, object, &mut sink, x),
        Shape::Disjunction(ps) => {
            for &p in ps {
                single(src, p, subject, object, &mut sink, x);
                if sink.full() {
                    break;
                }
            }
        }
        Shape::Concat2(p1, p2) => concat2(src, *p1, *p2, subject, object, &mut sink, x),
        Shape::Other => unreachable!("fastpath::evaluate called on a general shape"),
    }

    let mut out = QueryOutput::default();
    sink.settle();
    let distinct = sink.buf.distinct_len() as u64;
    out.stats = TraversalStats {
        reported: distinct,
        product_nodes: distinct,
        parallel_levels: sink.par_levels,
        parallel_chunks: sink.par_chunks,
        pair_compactions: sink.buf.compactions(),
        ..sink.work
    };
    out.profile = sink.phases.map(|phases| {
        Box::new(QueryProfile {
            phases,
            ..QueryProfile::default()
        })
    });
    out.truncated = sink.truncated;
    out.timed_out = sink.timed_out;
    out.budget_exhausted = sink.budget_exhausted;
    out.pairs = sink.buf.into_sorted_vec();
    out
}

/// The buffers one batch of a variable-to-variable sweep is stepped in,
/// and the pairs it came to.
#[derive(Default)]
struct Batch {
    x: ChunkExpansion,
    y: ChunkExpansion,
    /// The batch's `(s, o)` pairs, item by item.
    pairs: Vec<(Id, Id)>,
    /// Nanoseconds the batch took, when the query is profiled.
    ns: u64,
}

/// Result collector: a [`PairBuffer`] (sorted-vec dedup, no hashing on
/// the hot path) plus exact limit/budget threshold tracking.
#[derive(Default)]
struct Sink {
    buf: PairBuffer,
    limit: usize,
    node_budget: usize,
    /// The distinct count has reached `node_budget`: the answer set must
    /// not grow further, only flag attempts to grow it.
    at_budget: bool,
    deadline: Option<Instant>,
    truncated: bool,
    timed_out: bool,
    budget_exhausted: bool,
    /// Pool helpers a sweep may ask for, and the fewest items it must
    /// have to ask (small joins pay nothing); `None` on one thread.
    fan_out: Option<(usize, usize)>,
    /// Sweeps that fanned out across pool workers.
    par_levels: u64,
    /// Chunks whose speculative results were merged from the pool.
    par_chunks: u64,
    /// The buffers sweeps step their batches in, kept from one to the next.
    batches: Vec<Batch>,
    /// What the steps, listings and intersections did: their
    /// `rank_ops`, `rank_ops_saved` and `wavelet_nodes`.
    work: TraversalStats,
    /// Where the time went, when the query is profiled: the listings and
    /// intersections are the joins' part one, the steps their part two.
    phases: Option<PhaseTimes>,
}

impl Sink {
    /// The clock, read only when the query is profiled.
    fn clock(&self) -> Option<Instant> {
        self.phases.is_some().then(Instant::now)
    }

    /// Counts a listing or intersection begun at `since` that took
    /// `ranks` rank computations.
    fn listed(&mut self, since: Option<Instant>, ranks: u64) {
        self.work.rank_ops += ranks;
        if let (Some(t), Some(phases)) = (since, self.phases.as_mut()) {
            phases.part_one_ns += nanos(t.elapsed());
        }
    }

    /// Counts what a step did in `x`, `ns` nanoseconds of it.
    fn stepped(&mut self, x: &ChunkExpansion, ns: u64) {
        self.work.rank_ops += x.rank_ops;
        self.work.rank_ops_saved += x.rank_ops_saved;
        self.work.wavelet_nodes += x.wavelet_nodes;
        if let Some(phases) = self.phases.as_mut() {
            phases.part_two_ns += ns;
        }
    }

    /// [`step_label`], counted.
    fn step<S: StepSource + ?Sized>(
        &mut self,
        src: &S,
        p: Label,
        nodes: &[(Id, u64)],
        x: &mut ChunkExpansion,
    ) {
        let t = self.clock();
        step_label(src, p, nodes, x);
        self.stepped(x, t.map_or(0, |t| nanos(t.elapsed())));
    }

    fn push(&mut self, pair: (Id, Id)) {
        if self.at_budget {
            // Only a pair that would *grow* the set exhausts the budget;
            // re-finding an already-counted pair is free.
            if !self.buf.contains(pair) {
                self.budget_exhausted = true;
            }
            return;
        }
        if self.truncated {
            return;
        }
        self.buf.push(pair);
        // Amortized probe against the nearest cap; `settle()` applies the
        // exact thresholds (detection lag only means a bounded amount of
        // extra enumeration — truncation keeps the answer set exact).
        let cap = self.limit.min(self.node_budget);
        if cap != usize::MAX && self.buf.maybe_reached(cap) {
            self.settle();
        }
    }

    /// Applies the limit/budget thresholds exactly (compacts once).
    fn settle(&mut self) {
        if self.at_budget || self.truncated {
            return;
        }
        let d = self.buf.distinct_len();
        if self.node_budget != usize::MAX && d >= self.node_budget {
            if d > self.node_budget {
                // A pair grew the set past the cap before detection.
                self.budget_exhausted = true;
            }
            self.buf.truncate_distinct(self.node_budget);
            self.at_budget = true;
        }
        if d >= self.limit {
            self.buf.truncate_distinct(self.limit);
            self.truncated = true;
        }
    }

    fn full(&mut self) -> bool {
        if self.truncated || self.budget_exhausted {
            return true;
        }
        // `full()` is consulted once per enumeration batch, not per pair,
        // so an unconditional clock read is cheap — and a conditional one
        // would almost never fire.
        if let Some(dl) = self.deadline {
            if Instant::now() >= dl {
                self.timed_out = true;
                return true;
            }
        }
        false
    }

    /// Sweeps `items` a [`STEP_BATCH`] at a time — on the pool when there
    /// are enough of them — handing on what `pairs_of` makes of each
    /// batch in batch order, until the sink is full. Chunk geometry is
    /// the same on every thread count and results are consumed in order,
    /// so the output, truncation point included, is too.
    fn sweep(&mut self, items: &[(Id, u64)], pairs_of: impl Fn(&[(Id, u64)], &mut Batch) + Sync) {
        let fan_out = self
            .fan_out
            .filter(|&(_, min_items)| items.len() >= min_items);
        let extra = fan_out.map_or(0, |(helpers, _)| helpers);
        self.par_levels += u64::from(extra > 0);
        let mut batches = std::mem::take(&mut self.batches);
        crate::parallel::map_chunks_into(
            self,
            items,
            STEP_BATCH,
            extra,
            &mut batches,
            |sink, chunk, batch: &mut Batch| {
                let t = sink.clock();
                pairs_of(chunk, batch);
                batch.ns = t.map_or(0, |t| nanos(t.elapsed()));
            },
            |sink, batch| {
                sink.stepped(&batch.x, batch.ns);
                sink.stepped(&batch.y, 0);
                if sink.full() {
                    return false;
                }
                sink.par_chunks += u64::from(extra > 0);
                for &pair in &batch.pairs {
                    sink.push(pair);
                }
                !(sink.truncated || sink.budget_exhausted)
            },
        );
        self.batches = batches;
    }
}

/// The nodes of a list as the items of a label step.
fn as_items(nodes: &[Id]) -> Vec<(Id, u64)> {
    nodes.iter().map(|&v| (v, 1)).collect()
}

/// `(x, p, y)` and its anchored forms, via backward steps only (§5):
/// subjects of `p` are listed off the label; objects of a given subject
/// `s` are the subjects of `p̂` into `s`.
fn single<S: StepSource + ?Sized>(
    src: &S,
    p: Label,
    subject: Term,
    object: Term,
    sink: &mut Sink,
    x: &mut ChunkExpansion,
) {
    let pi = src.ring().inverse_label(p);
    match (subject, object) {
        (Term::Const(s), Term::Const(o)) => {
            if src.has_edge(s, p, o) {
                sink.push((s, o));
            }
        }
        (Term::Var, Term::Const(o)) => {
            sink.step(src, p, &[(o, 1)], x);
            for &s in &x.subjects {
                sink.push((s, o));
            }
        }
        (Term::Const(s), Term::Var) => {
            sink.step(src, pi, &[(s, 1)], x);
            for &o in &x.subjects {
                sink.push((s, o));
            }
        }
        (Term::Var, Term::Var) => {
            // The subjects of p the sink can use: taken in ascending
            // order, each owns at least one pair no other shares, all of
            // them smaller than every pair of a later subject, so the
            // first `limit` fill the answer and one more is what can
            // still trip a node budget equal to the limit. Then the
            // objects of each. A batch's sweep reports object by object;
            // its pairs are handed on subject by subject, so that a limit
            // reached inside a batch keeps the smallest pairs whatever
            // the batch boundaries are.
            let (t, mut subjects) = (sink.clock(), Vec::new());
            let ranks = src.label_subjects(p, sink.limit.saturating_add(1), &mut subjects);
            sink.listed(t, ranks);
            sink.sweep(&as_items(&subjects), |chunk, batch| {
                step_label(src, pi, chunk, &mut batch.x);
                batch.pairs.clear();
                for (item, &(s, _)) in chunk.iter().enumerate() {
                    let objects = batch.x.item_subjects(item);
                    batch.pairs.extend(objects.iter().map(|&o| (s, o)));
                }
            });
        }
    }
}

/// `(x, p1/p2, y)` and anchored forms. The variable-to-variable case is
/// the paper's intersection algorithm: midpoints `z` are the nodes that
/// are both subjects of `p̂1` (targets of `p1`) and subjects of `p2`.
fn concat2<S: StepSource + ?Sized>(
    src: &S,
    p1: Label,
    p2: Label,
    subject: Term,
    object: Term,
    sink: &mut Sink,
    x: &mut ChunkExpansion,
) {
    let p1i = src.ring().inverse_label(p1);
    let p2i = src.ring().inverse_label(p2);
    match (subject, object) {
        (Term::Var, Term::Var) => {
            // The midpoints ascending, a batch at a time, each batch swept
            // before the next is found: two midpoints can lead to the same
            // pair, so no count of them bounds the answer the way a count
            // of subjects does in `single`, but a sink the limit has
            // filled stops asking for more.
            let (mut walk, mut mids) = (CommonWalk::new(p1i, p2), Vec::new());
            loop {
                let t = sink.clock();
                let ranks = src.common_subjects(&mut walk, STEP_BATCH, &mut mids);
                sink.listed(t, ranks);
                if mids.is_empty() {
                    return;
                }
                sink.sweep(&as_items(&mids), |chunk, batch| {
                    step_label(src, p1, chunk, &mut batch.x);
                    step_label(src, p2i, chunk, &mut batch.y);
                    batch.pairs.clear();
                    for item in 0..chunk.len() {
                        for &s in batch.x.item_subjects(item) {
                            let objects = batch.y.item_subjects(item);
                            batch.pairs.extend(objects.iter().map(|&o| (s, o)));
                        }
                    }
                });
                if sink.truncated || sink.budget_exhausted || sink.timed_out {
                    return;
                }
            }
        }
        (Term::Const(s), Term::Var) => through(src, s, p1i, p2i, |o| (s, o), sink, x),
        (Term::Var, Term::Const(o)) => through(src, o, p2, p1, |s| (s, o), sink, x),
        (Term::Const(s), Term::Const(o)) => {
            sink.step(src, p1i, &[(s, 1)], x);
            if x.subjects.iter().any(|&z| src.has_edge(z, p2, o)) {
                sink.push((s, o));
            }
        }
    }
}

/// The two-step join from a constant endpoint: the midpoints one
/// `to_mids` step from `near`, then the far side of each batch of them
/// by `onward`, pushed in ascending node order — a node reached from
/// several midpoints once for each — so that a limit reached inside a
/// batch keeps the same pairs whatever order the step lists them in.
fn through<S: StepSource + ?Sized>(
    src: &S,
    near: Id,
    to_mids: Label,
    onward: Label,
    pair_of: impl Fn(Id) -> (Id, Id),
    sink: &mut Sink,
    x: &mut ChunkExpansion,
) {
    sink.step(src, to_mids, &[(near, 1)], x);
    let mids = as_items(&x.subjects);
    for chunk in mids.chunks(STEP_BATCH) {
        if sink.full() {
            return;
        }
        sink.step(src, onward, chunk, x);
        x.subjects.sort_unstable();
        for &far in &x.subjects {
            sink.push(pair_of(far));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_recognized() {
        assert_eq!(shape_of(&Regex::label(3)), Shape::Single(3));
        assert_eq!(
            shape_of(&Regex::alt(Regex::label(1), Regex::label(2))),
            Shape::Disjunction(vec![1, 2])
        );
        assert_eq!(
            shape_of(&Regex::concat(Regex::label(1), Regex::label(2))),
            Shape::Concat2(1, 2)
        );
        assert_eq!(
            shape_of(&Regex::Star(Box::new(Regex::label(1)))),
            Shape::Other
        );
        assert_eq!(
            shape_of(&Regex::Literal(Lit::Class(vec![4]))),
            Shape::Single(4)
        );
        assert_eq!(
            shape_of(&Regex::alt(
                Regex::label(1),
                Regex::Literal(Lit::NegClass(vec![2]))
            )),
            Shape::Other
        );
        assert_eq!(
            shape_of(&Regex::concat(
                Regex::label(1),
                Regex::Star(Box::new(Regex::label(2)))
            )),
            Shape::Other
        );
    }
}
