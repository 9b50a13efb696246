//! The §5 fast paths: query patterns `v p v`, `v ^p v`, `v p|q v`,
//! `v p/q v` (and their anchored variants) evaluated with plain backward
//! search and wavelet-tree range operations, bypassing the automaton.
//!
//! "Such paths can be solved as join queries, with more efficient
//! algorithms" — the paper concedes these patterns to the competitors'
//! join machinery; these handlers are the ring's equivalent.

use automata::ast::{Lit, Regex};
use automata::Label;
use ring::{Id, Ring};
use std::time::Instant;
use succinct::wavelet_matrix::MultiRangeGuide;

use crate::engine::group_by_key;
use crate::pairbuf::PairBuffer;
use crate::query::{EngineOptions, QueryOutput, Term};
use crate::source::MergedView;
use crate::QueryError;

/// Midpoints/subjects stepped through the wavelet layers per batch: the
/// backward-search ranks of a whole batch share one node-start chain
/// ([`ring::Ring::backward_step_by_pred_multi`]) and the distinct-subject
/// sweeps share node entries; limits are re-checked between batches.
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

/// Intra-query fan-out policy for the batched fast-path sweeps: engage
/// `threads − 1` pool helpers only when a batch has at least
/// `min_items` items (small joins pay zero overhead). Chunk geometry is
/// always the sequential [`STEP_BATCH`], and results are consumed in
/// chunk order, so output — including limit/budget truncation points —
/// is bit-for-bit identical to the sequential sweep.
#[derive(Clone, Copy)]
struct Par {
    threads: usize,
    min_items: usize,
}

impl Par {
    fn of(opts: &EngineOptions, threads: usize) -> Self {
        Self {
            threads: threads.max(1),
            min_items: opts.parallel_min_frontier.max(2),
        }
    }

    /// Extra threads to request for a sweep over `n_items` (0 = stay
    /// sequential).
    fn extra_for(&self, n_items: usize) -> usize {
        if self.threads > 1 && n_items >= self.min_items {
            self.threads - 1
        } else {
            0
        }
    }
}

/// Evaluates a specializable shape anchored at the given endpoints,
/// fanning large variable-to-variable sweeps across up to `threads`
/// pool workers.
pub fn evaluate(
    ring: &Ring,
    shape: &Shape,
    subject: Term,
    object: Term,
    opts: &EngineOptions,
    deadline: Option<Instant>,
    threads: usize,
) -> Result<QueryOutput, QueryError> {
    let par = Par::of(opts, threads);
    let mut sink = Sink {
        buf: PairBuffer::new(),
        limit: opts.limit,
        // The fast paths touch one product node per reported pair, so the
        // node budget degenerates to a pair cap here.
        node_budget: opts.node_budget.map_or(usize::MAX, |nb| nb as usize),
        at_budget: false,
        deadline,
        truncated: false,
        timed_out: false,
        budget_exhausted: false,
        par_levels: 0,
        par_chunks: 0,
    };
    match shape {
        Shape::Single(p) => single(ring, *p, subject, object, &mut sink, par),
        Shape::Disjunction(ps) => {
            for &p in ps {
                single(ring, p, subject, object, &mut sink, par);
                if sink.full() {
                    break;
                }
            }
        }
        Shape::Concat2(p1, p2) => concat2(ring, *p1, *p2, subject, object, &mut sink, par),
        Shape::Other => unreachable!("fastpath::evaluate called on a general shape"),
    }
    Ok(finish(sink))
}

/// Drains a sink into a finished output (shared by the pure and merged
/// entry points).
fn finish(mut sink: Sink) -> QueryOutput {
    let mut out = QueryOutput::default();
    sink.settle();
    let distinct = sink.buf.distinct_len() as u64;
    out.stats.reported = distinct;
    out.stats.product_nodes = distinct;
    out.stats.parallel_levels = sink.par_levels;
    out.stats.parallel_chunks = sink.par_chunks;
    out.stats.pair_compactions = sink.buf.compactions();
    out.truncated = sink.truncated;
    out.timed_out = sink.timed_out;
    out.budget_exhausted = sink.budget_exhausted;
    out.pairs = sink.buf.into_sorted_vec();
    out
}

/// Evaluates a specializable shape against a merged source: the same §5
/// join algorithms, with every backward step and source enumeration
/// merged with the delta (tombstones masked, adds included) at node
/// granularity.
pub(crate) fn evaluate_merged(
    view: &MergedView<'_>,
    shape: &Shape,
    subject: Term,
    object: Term,
    opts: &EngineOptions,
    deadline: Option<Instant>,
    threads: usize,
) -> Result<QueryOutput, QueryError> {
    let par = Par::of(opts, threads);
    let mut sink = Sink {
        buf: PairBuffer::new(),
        limit: opts.limit,
        node_budget: opts.node_budget.map_or(usize::MAX, |nb| nb as usize),
        at_budget: false,
        deadline,
        truncated: false,
        timed_out: false,
        budget_exhausted: false,
        par_levels: 0,
        par_chunks: 0,
    };
    match shape {
        Shape::Single(p) => merged_single(view, *p, subject, object, &mut sink, par),
        Shape::Disjunction(ps) => {
            for &p in ps {
                merged_single(view, p, subject, object, &mut sink, par);
                if sink.full() {
                    break;
                }
            }
        }
        Shape::Concat2(p1, p2) => merged_concat2(view, *p1, *p2, subject, object, &mut sink, par),
        Shape::Other => unreachable!("fastpath::evaluate_merged called on a general shape"),
    }
    Ok(finish(sink))
}

/// `(x, p, y)` and anchored forms over the merged source.
fn merged_single(
    view: &MergedView<'_>,
    p: Label,
    subject: Term,
    object: Term,
    sink: &mut Sink,
    par: Par,
) {
    let pi = view.ring.inverse_label(p);
    let mut buf = Vec::new();
    match (subject, object) {
        (Term::Const(s), Term::Const(o)) => {
            if view.has_edge(s, p, o) {
                sink.push((s, o));
            }
        }
        (Term::Var, Term::Const(o)) => {
            view.subjects_into(o, p, &mut buf);
            for &s in &buf {
                sink.push((s, o));
            }
        }
        (Term::Const(s), Term::Var) => {
            view.subjects_into(s, pi, &mut buf);
            for &o in &buf {
                sink.push((s, o));
            }
        }
        (Term::Var, Term::Var) => {
            let mut subjects = Vec::new();
            view.first_subjects_of_pred(p, sink.usable_subjects(), &mut subjects);
            let extra = par.extra_for(subjects.len());
            if extra > 0 {
                // The sequential loop consults `full()` once per subject,
                // so the replay keeps per-subject granularity: each chunk
                // maps to one pair list per subject.
                sink.par_levels += 1;
                crate::parallel::map_chunks_ordered(
                    &subjects,
                    STEP_BATCH,
                    extra,
                    |_, chunk| {
                        let mut buf = Vec::new();
                        let mut per_subject = Vec::with_capacity(chunk.len());
                        for &s in chunk {
                            view.subjects_into(s, pi, &mut buf);
                            per_subject.push(buf.iter().map(|&o| (s, o)).collect::<Vec<_>>());
                        }
                        per_subject
                    },
                    |per_subject| {
                        sink.par_chunks += 1;
                        for pairs in per_subject {
                            if sink.full() {
                                return false;
                            }
                            for pair in pairs {
                                sink.push(pair);
                            }
                        }
                        true
                    },
                );
                return;
            }
            for s in subjects {
                if sink.full() {
                    return;
                }
                view.subjects_into(s, pi, &mut buf);
                for &o in &buf {
                    sink.push((s, o));
                }
            }
        }
    }
}

/// `(x, p1/p2, y)` and anchored forms over the merged source: midpoints
/// are live targets of `p1` intersected with live sources of `p2`.
fn merged_concat2(
    view: &MergedView<'_>,
    p1: Label,
    p2: Label,
    subject: Term,
    object: Term,
    sink: &mut Sink,
    par: Par,
) {
    let p1i = view.ring.inverse_label(p1);
    let p2i = view.ring.inverse_label(p2);
    let mut mids = Vec::new();
    let mut buf = Vec::new();
    match (subject, object) {
        (Term::Var, Term::Var) => {
            // Live targets of p1 ∩ live sources of p2 (both come back
            // sorted, so the intersection is a linear merge).
            let mut targets = Vec::new();
            view.subjects_of_pred(p1i, &mut targets);
            let mut sources = Vec::new();
            view.subjects_of_pred(p2, &mut sources);
            let mut i = 0;
            for &z in &targets {
                while i < sources.len() && sources[i] < z {
                    i += 1;
                }
                if i < sources.len() && sources[i] == z {
                    mids.push(z);
                }
            }
            let extra = par.extra_for(mids.len());
            if extra > 0 {
                // Per-midpoint replay granularity, matching the
                // sequential loop's `full()` cadence.
                sink.par_levels += 1;
                crate::parallel::map_chunks_ordered(
                    &mids,
                    STEP_BATCH,
                    extra,
                    |_, chunk| {
                        let mut srcs = Vec::new();
                        let mut objs = Vec::new();
                        let mut per_mid = Vec::with_capacity(chunk.len());
                        for &z in chunk {
                            view.subjects_into(z, p1, &mut srcs);
                            view.subjects_into(z, p2i, &mut objs);
                            let mut pairs = Vec::with_capacity(srcs.len() * objs.len());
                            for &s in &srcs {
                                for &o in &objs {
                                    pairs.push((s, o));
                                }
                            }
                            per_mid.push(pairs);
                        }
                        per_mid
                    },
                    |per_mid| {
                        sink.par_chunks += 1;
                        for pairs in per_mid {
                            if sink.full() {
                                return false;
                            }
                            for pair in pairs {
                                sink.push(pair);
                            }
                        }
                        true
                    },
                );
                return;
            }
            let mut srcs = Vec::new();
            for z in mids {
                if sink.full() {
                    return;
                }
                view.subjects_into(z, p1, &mut srcs);
                view.subjects_into(z, p2i, &mut buf);
                for &s in &srcs {
                    for &o in &buf {
                        sink.push((s, o));
                    }
                }
            }
        }
        (Term::Const(s), Term::Var) => {
            view.subjects_into(s, p1i, &mut mids);
            for &z in &mids {
                if sink.full() {
                    return;
                }
                view.subjects_into(z, p2i, &mut buf);
                for &o in &buf {
                    sink.push((s, o));
                }
            }
        }
        (Term::Var, Term::Const(o)) => {
            view.subjects_into(o, p2, &mut mids);
            for &z in &mids {
                if sink.full() {
                    return;
                }
                view.subjects_into(z, p1, &mut buf);
                for &s in &buf {
                    sink.push((s, o));
                }
            }
        }
        (Term::Const(s), Term::Const(o)) => {
            view.subjects_into(s, p1i, &mut mids);
            for &z in &mids {
                if view.has_edge(z, p2, o) {
                    sink.push((s, o));
                    return;
                }
            }
        }
    }
}

/// Result collector: a [`PairBuffer`] (sorted-vec dedup, no hashing on
/// the hot path) plus exact limit/budget threshold tracking.
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
    /// Sweeps that fanned out across pool workers.
    par_levels: u64,
    /// Chunks whose speculative results were merged from the pool.
    par_chunks: u64,
}

impl Sink {
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

    /// How many subjects of one label, taken in ascending order, a
    /// variable-to-variable sweep can use: each owns at least one pair no
    /// other subject of the label shares, all of them smaller than every
    /// pair of a later subject, so the first `limit` fill the answer and
    /// one more is what can still trip a node budget equal to the limit.
    fn usable_subjects(&self) -> usize {
        self.limit.saturating_add(1)
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
}

/// Distinct symbols of a wavelet range of `L_s`, ascending, pushed
/// through `f`.
fn distinct_ls(ring: &Ring, range: (usize, usize), f: &mut impl FnMut(Id)) {
    ring.l_s().range_symbols(range.0, range.1, &mut |v| {
        f(v);
        true
    });
}

/// Distinct symbols of many `L_s` ranges in one level-synchronous sweep:
/// `f(item, sym)` per distinct symbol of `ranges[item]`, symbol by symbol.
fn distinct_ls_multi(ring: &Ring, ranges: &[(usize, usize)], f: &mut impl FnMut(u32, Id)) {
    struct All<'a, F>(&'a mut F);
    impl<F: FnMut(u32, u64)> MultiRangeGuide for All<'_, F> {
        const LEAF_RANKS: bool = false;
        const UNIT_SHORTCUT: bool = true;
        fn enter_node(&mut self, _: usize, _: u64) -> bool {
            true
        }
        fn enter_item(&mut self, _: u32, _: usize, _: u64) -> bool {
            true
        }
        fn leaf(&mut self, item: u32, sym: u64, _: usize, _: usize) {
            (self.0)(item, sym)
        }
    }
    ring.l_s().guided_traverse_multi(ranges, &mut All(f));
}

/// Buffers of [`pairs_of_batch`], reused batch after batch.
#[derive(Default)]
struct Batch {
    ranges: Vec<(usize, usize)>,
    stepped: Vec<(usize, usize)>,
    found: Vec<(u32, Id)>,
    ends: Vec<usize>,
    /// The batch's `(s, o)` pairs, ascending.
    pairs: Vec<(Id, Id)>,
}

/// Every `(s, o)` with `s` in `subjects` (ascending) and `s --p--> o`,
/// `pi` being `p̂`: one batched backward step and one sweep of `L_s` for
/// the whole batch. The sweep reports object by object; the pairs are
/// handed on subject by subject, so that a limit reached inside a batch
/// keeps the smallest pairs whatever the batch boundaries are.
fn pairs_of_batch(ring: &Ring, pi: Label, subjects: &[Id], batch: &mut Batch) {
    let Batch {
        ranges,
        stepped,
        found,
        ends,
        pairs,
    } = batch;
    ranges.clear();
    ranges.extend(subjects.iter().map(|&s| ring.object_range(s)));
    stepped.clear();
    ring.backward_step_by_pred_multi(ranges, pi, stepped);
    found.clear();
    distinct_ls_multi(ring, stepped, &mut |item, o| found.push((item, o)));
    pairs.clear();
    pairs.resize(found.len(), (0, 0));
    group_by_key(
        ends,
        subjects.len(),
        found,
        |&(item, _)| item as usize,
        |slot, &(item, o)| pairs[slot] = (subjects[item as usize], o),
    );
}

/// `(x, p, y)` and its anchored forms, via backward search only (§5):
/// subjects of `p` come from `L_s[C_p[p]..C_p[p+1])`; objects of a given
/// subject `s` are the subjects of `p̂` into `s`.
fn single(ring: &Ring, p: Label, subject: Term, object: Term, sink: &mut Sink, par: Par) {
    let pi = ring.inverse_label(p);
    match (subject, object) {
        (Term::Const(s), Term::Const(o)) => {
            let r = ring.backward_step_by_pred(ring.object_range(o), p);
            if ring.l_s().rank(s, r.1) > ring.l_s().rank(s, r.0) {
                sink.push((s, o));
            }
        }
        (Term::Var, Term::Const(o)) => {
            let r = ring.backward_step_by_pred(ring.object_range(o), p);
            distinct_ls(ring, r, &mut |s| sink.push((s, o)));
        }
        (Term::Const(s), Term::Var) => {
            let r = ring.backward_step_by_pred(ring.object_range(s), pi);
            distinct_ls(ring, r, &mut |o| sink.push((s, o)));
        }
        (Term::Var, Term::Var) => {
            // The subjects of p the sink can use, then the objects of
            // each — backward steps and distinct sweeps batched
            // STEP_BATCH subjects at a time.
            let mut subjects = Vec::new();
            let (b, e) = ring.pred_range(p);
            let usable = sink.usable_subjects();
            ring.l_s().range_symbols(b, e, &mut |s| {
                subjects.push(s);
                subjects.len() < usable
            });
            let extra = par.extra_for(subjects.len());
            if extra > 0 {
                // Same STEP_BATCH geometry as below, chunks mapped
                // speculatively on the pool and replayed in order: the
                // `full()` check / push sequence the sink observes is
                // identical to the sequential loop's.
                sink.par_levels += 1;
                crate::parallel::map_chunks_ordered(
                    &subjects,
                    STEP_BATCH,
                    extra,
                    |_, chunk| {
                        let mut batch = Batch::default();
                        pairs_of_batch(ring, pi, chunk, &mut batch);
                        batch.pairs
                    },
                    |pairs| {
                        if sink.full() {
                            return false;
                        }
                        sink.par_chunks += 1;
                        for pair in pairs {
                            sink.push(pair);
                        }
                        true
                    },
                );
                return;
            }
            let mut batch = Batch::default();
            for chunk in subjects.chunks(STEP_BATCH) {
                if sink.full() {
                    return;
                }
                pairs_of_batch(ring, pi, chunk, &mut batch);
                for &pair in &batch.pairs {
                    sink.push(pair);
                }
            }
        }
    }
}

/// `(x, p1/p2, y)` and anchored forms. The variable-to-variable case is
/// the paper's intersection algorithm: midpoints `z` are the wavelet
/// intersection of the subjects of `p̂1` (targets of `p1`) and the
/// subjects of `p2` (sources of `p2`).
fn concat2(
    ring: &Ring,
    p1: Label,
    p2: Label,
    subject: Term,
    object: Term,
    sink: &mut Sink,
    par: Par,
) {
    let p1i = ring.inverse_label(p1);
    let p2i = ring.inverse_label(p2);
    match (subject, object) {
        (Term::Var, Term::Var) => {
            // All midpoints, whatever the limit: two of them can lead to
            // the same pair, so no count of midpoints bounds the answer
            // the way a count of subjects does in `single`.
            let targets_of_p1 = ring.pred_range(p1i);
            let sources_of_p2 = ring.pred_range(p2);
            let mids = ring.l_s().range_intersect(targets_of_p1, sources_of_p2);
            let extra = par.extra_for(mids.len());
            if extra > 0 {
                // Speculative per-chunk expansion on the pool, replayed
                // in chunk order with the sequential loop's exact
                // `full()` cadence.
                sink.par_levels += 1;
                crate::parallel::map_chunks_ordered(
                    &mids,
                    STEP_BATCH,
                    extra,
                    |_, chunk| {
                        let ranges: Vec<(usize, usize)> = chunk
                            .iter()
                            .map(|&(z, _, _)| ring.object_range(z))
                            .collect();
                        let mut sources: Vec<Vec<Id>> = vec![Vec::new(); chunk.len()];
                        let mut objects: Vec<Vec<Id>> = vec![Vec::new(); chunk.len()];
                        let mut stepped = Vec::with_capacity(chunk.len());
                        ring.backward_step_by_pred_multi(&ranges, p1, &mut stepped);
                        distinct_ls_multi(ring, &stepped, &mut |item, s| {
                            sources[item as usize].push(s)
                        });
                        stepped.clear();
                        ring.backward_step_by_pred_multi(&ranges, p2i, &mut stepped);
                        distinct_ls_multi(ring, &stepped, &mut |item, o| {
                            objects[item as usize].push(o)
                        });
                        let mut pairs = Vec::new();
                        for i in 0..chunk.len() {
                            for &s in &sources[i] {
                                for &o in &objects[i] {
                                    pairs.push((s, o));
                                }
                            }
                        }
                        pairs
                    },
                    |pairs| {
                        if sink.full() {
                            return false;
                        }
                        sink.par_chunks += 1;
                        for pair in pairs {
                            sink.push(pair);
                        }
                        true
                    },
                );
                return;
            }
            // Per batch of midpoints: both backward steps share their
            // rank chains, and the source/object sweeps each run as one
            // batched traversal.
            let mut sources: Vec<Vec<Id>> = Vec::new();
            let mut objects: Vec<Vec<Id>> = Vec::new();
            let mut stepped = Vec::with_capacity(STEP_BATCH);
            for chunk in mids.chunks(STEP_BATCH) {
                if sink.full() {
                    return;
                }
                let ranges: Vec<(usize, usize)> = chunk
                    .iter()
                    .map(|&(z, _, _)| ring.object_range(z))
                    .collect();
                sources.iter_mut().for_each(Vec::clear);
                sources.resize_with(sources.len().max(chunk.len()), Vec::new);
                stepped.clear();
                ring.backward_step_by_pred_multi(&ranges, p1, &mut stepped);
                distinct_ls_multi(ring, &stepped, &mut |item, s| {
                    sources[item as usize].push(s)
                });
                objects.iter_mut().for_each(Vec::clear);
                objects.resize_with(objects.len().max(chunk.len()), Vec::new);
                stepped.clear();
                ring.backward_step_by_pred_multi(&ranges, p2i, &mut stepped);
                distinct_ls_multi(ring, &stepped, &mut |item, o| {
                    objects[item as usize].push(o)
                });
                for i in 0..chunk.len() {
                    for &s in &sources[i] {
                        for &o in &objects[i] {
                            sink.push((s, o));
                        }
                    }
                }
            }
        }
        (Term::Const(s), Term::Var) => {
            let mut mids = Vec::new();
            distinct_ls(
                ring,
                ring.backward_step_by_pred(ring.object_range(s), p1i),
                &mut |z| mids.push(z),
            );
            let mut stepped = Vec::with_capacity(STEP_BATCH);
            for chunk in mids.chunks(STEP_BATCH) {
                if sink.full() {
                    return;
                }
                let ranges: Vec<(usize, usize)> =
                    chunk.iter().map(|&z| ring.object_range(z)).collect();
                stepped.clear();
                ring.backward_step_by_pred_multi(&ranges, p2i, &mut stepped);
                distinct_ls_multi(ring, &stepped, &mut |_, o| sink.push((s, o)));
            }
        }
        (Term::Var, Term::Const(o)) => {
            let mut mids = Vec::new();
            distinct_ls(
                ring,
                ring.backward_step_by_pred(ring.object_range(o), p2),
                &mut |z| mids.push(z),
            );
            let mut stepped = Vec::with_capacity(STEP_BATCH);
            for chunk in mids.chunks(STEP_BATCH) {
                if sink.full() {
                    return;
                }
                let ranges: Vec<(usize, usize)> =
                    chunk.iter().map(|&z| ring.object_range(z)).collect();
                stepped.clear();
                ring.backward_step_by_pred_multi(&ranges, p1, &mut stepped);
                distinct_ls_multi(ring, &stepped, &mut |_, s| sink.push((s, o)));
            }
        }
        (Term::Const(s), Term::Const(o)) => {
            let mut mids = Vec::new();
            distinct_ls(
                ring,
                ring.backward_step_by_pred(ring.object_range(s), p1i),
                &mut |z| mids.push(z),
            );
            for z in mids {
                let r = ring.backward_step_by_pred(ring.object_range(o), p2);
                if ring.l_s().rank(z, r.1) > ring.l_s().rank(z, r.0) {
                    sink.push((s, o));
                    return;
                }
            }
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
