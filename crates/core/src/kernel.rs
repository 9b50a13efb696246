//! What the two bit-parallel traversal kernels share: the §4.4 dispatch
//! over the four endpoint shapes, written once against the one thing the
//! kernels differ in — how a backward product-graph traversal reads its
//! adjacency (wavelet-batched over a bare ring in [`crate::engine`],
//! node-granular through a [`MergedView`](crate::MergedView) in
//! [`crate::merged`]).

use ring::Id;

use crate::pairbuf::PairBuffer;
use crate::planner::Direction;
use crate::query::{EngineOptions, QueryOutput, Term, TraversalStats};

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

/// One backward traversal kernel, bound to a query's transition tables
/// and per-call limits.
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
