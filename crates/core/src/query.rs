//! Query types, evaluation options, outputs and statistics.

use automata::glushkov::WideMask;
use automata::Regex;
use ring::Id;
use std::time::Duration;

/// A query endpoint: a fixed node or a variable.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Term {
    /// A constant node id.
    Const(Id),
    /// A variable (anonymous: RPQs have at most two, one per endpoint).
    Var,
}

impl Term {
    /// The constant, if any.
    pub fn as_const(&self) -> Option<Id> {
        match self {
            Term::Const(c) => Some(*c),
            Term::Var => None,
        }
    }
}

/// A 2RPQ `(s, E, o)` (§3.1): find pairs of nodes connected by a path whose
/// label word matches `E` over the completed alphabet `Σ↔`.
#[derive(Clone, Debug)]
pub struct RpqQuery {
    /// Subject endpoint.
    pub subject: Term,
    /// The path expression.
    pub expr: Regex,
    /// Object endpoint.
    pub object: Term,
}

impl RpqQuery {
    /// Convenience constructor.
    pub fn new(subject: Term, expr: Regex, object: Term) -> Self {
        Self {
            subject,
            expr,
            object,
        }
    }

    /// Whether both endpoints are variables ("v-to-v", 15.3% of the
    /// paper's log).
    pub fn is_var_to_var(&self) -> bool {
        matches!((self.subject, self.object), (Term::Var, Term::Var))
    }
}

/// Evaluation options (defaults follow §5: set semantics, 1 M result
/// limit, 60 s timeout — scaled down by the bench harness).
#[derive(Clone, Copy, Debug)]
pub struct EngineOptions {
    /// Stop after this many result pairs (the paper uses 10^6). Which
    /// pairs a truncated answer holds is fixed but not meaningful: an
    /// anchored traversal keeps the first `limit` it reports, in BFS
    /// level and then node-id order.
    pub limit: usize,
    /// Give up after this much wall-clock time (the paper uses 60 s).
    /// The clock is read between frontier chunks and every 64 BFS steps
    /// within one, so a run overshoots by at most one chunk's expansion.
    pub timeout: Option<Duration>,
    /// Vertical split width `d` of the §3.3 **bit-parallel transition
    /// tables** (each table row is split into `⌈m/d⌉` chunks of `d`
    /// bits, trading table size against lookups per step). This is a
    /// *compilation* parameter of [`crate::PreparedQuery`] — it has
    /// nothing to do with **rare-label splitting**, the §2/§6 evaluation
    /// strategy the planner picks as [`crate::EvalRoute::Split`]. The
    /// field was renamed from `split_width` so the two concepts cannot
    /// be confused.
    pub bp_split_width: usize,
    /// Force the planner's evaluation route, bypassing its cost model.
    /// Infeasible forcings — a fast path on a non-§5 shape, a split on
    /// an anchored or split-free query — fall back to the natural choice.
    /// `Some(EvalRoute::BitParallel)` runs a §5 shape through the
    /// traversal instead of its join.
    /// Differential tests use this to drive every route over one corpus;
    /// `None` (the default) plans normally.
    pub forced_route: Option<crate::plan::EvalRoute>,
    /// Record every product-graph visit `(node, fresh state mask)` into
    /// [`QueryOutput::trace`] — the information Fig. 6 tabulates. Costs
    /// one push per visit; off by default.
    pub collect_trace: bool,
    /// Abort after this many *distinct* product-graph node discoveries
    /// (the quantity `stats.product_nodes` counts). Unlike
    /// `limit`/`timeout` (which return partial answers with a flag), an
    /// exhausted node budget sets [`QueryOutput::budget_exhausted`], the
    /// signal a serving layer turns into a hard `BudgetExceeded` rejection
    /// — the output-sensitive cost cap the related work on RPQ evaluation
    /// budgets motivates. Granularity is per discovery on every route: on
    /// the §5 fast paths each distinct result pair is one discovery, so
    /// there the budget degenerates to a pair cap; scan work *between*
    /// discoveries (wavelet traversal, duplicate re-finds) is not
    /// budgeted on any route — `timeout` is the route-independent bound
    /// on raw work. `None` (the default) is unbounded.
    pub node_budget: Option<u64>,
    /// Read by nothing: every query runs on the calling thread. Kept
    /// only while the e2e benchmark's `core.parallel.*` rows set it;
    /// ROADMAP item 1(g) deletes it with them.
    #[doc(hidden)]
    pub intra_query_threads: usize,
    /// Collect an execution profile ("EXPLAIN ANALYZE") into
    /// [`QueryOutput::profile`]: per-phase wall time (planning vs.
    /// execution) and per-BFS-level frontier sizes and rank-op deltas.
    /// Strictly observational — the planner never reads this flag, no
    /// evaluation decision depends on it, and the answer set, flags,
    /// trace and truncation point are bit-identical with it on or off
    /// (`crates/core/tests/profile_identity.rs` pins this across every
    /// forced route). Off (the default) costs nothing: no clocks are read
    /// and nothing is allocated.
    pub profile: bool,
}

impl Default for EngineOptions {
    fn default() -> Self {
        Self {
            limit: 1_000_000,
            timeout: None,
            bp_split_width: automata::bitparallel::DEFAULT_SPLIT_WIDTH,
            forced_route: None,
            collect_trace: false,
            node_budget: None,
            intra_query_threads: 1,
            profile: false,
        }
    }
}

/// Traversal statistics: the quantities Theorem 4.1 charges costs to.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraversalStats {
    /// Product-graph node visits `(s, D_fresh)` — each adds at least one
    /// new NFA state to a graph node.
    pub product_nodes: u64,
    /// Product-graph edge batches: (object-range, predicate) expansions.
    pub product_edges: u64,
    /// Wavelet-matrix nodes entered across all guided traversals: part
    /// one's sweeps of `L_p` (none where it steps label by label, see
    /// [`Self::rank_ops`]) and the §5 listings' walks.
    pub wavelet_nodes: u64,
    /// BFS steps: `(node, D)` items visited, a node reached several
    /// times within one level counting once (its state sets are united
    /// before the level is visited).
    pub bfs_steps: u64,
    /// Answers reported before deduplication.
    pub reported: u64,
    /// Wavelet-level rank computations performed by batched traversals:
    /// part one's sweeps of `L_p`, or its batched backward steps — one
    /// `rank_batch` of `L_p` per firing label, taken instead of the sweep
    /// where at most six labels fire into a chunk and the CPU has the
    /// AVX-512 gather step, and on layered sources — and part two's
    /// accesses of `L_s`.
    pub rank_ops: u64,
    /// Rank computations the frontier batching avoided relative to
    /// per-range traversal (shared node starts, merged directory
    /// probes) — the win the succinct hot-path layer is measured by.
    pub rank_ops_saved: u64,
    /// Always 0: no level is fanned across threads. Kept only while the
    /// e2e benchmark's `core.parallel.*` rows read it; ROADMAP item 1(g)
    /// deletes it with them.
    #[doc(hidden)]
    pub parallel_levels: u64,
    /// [`PairBuffer`](crate::pairbuf::PairBuffer) compaction passes that did real
    /// work (sort-merge-dedup of a raw tail). Counted unconditionally —
    /// the counter is one branch-free increment inside an already
    /// *O*(n log n) pass — and deterministic, since the push sequence is
    /// a function of the query and the source alone.
    pub pair_compactions: u64,
}

impl TraversalStats {
    pub(crate) fn add(&mut self, other: &TraversalStats) {
        self.product_nodes += other.product_nodes;
        self.product_edges += other.product_edges;
        self.wavelet_nodes += other.wavelet_nodes;
        self.bfs_steps += other.bfs_steps;
        self.reported += other.reported;
        self.rank_ops += other.rank_ops;
        self.rank_ops_saved += other.rank_ops_saved;
        self.pair_compactions += other.pair_compactions;
    }
}

/// The result of evaluating a query.
#[derive(Clone, Debug, Default)]
pub struct QueryOutput {
    /// Distinct `(subject, object)` pairs (set semantics). For fully
    /// constant queries a single empty-domain match is encoded as the one
    /// pair of the two constants.
    pub pairs: Vec<(Id, Id)>,
    /// The result limit was hit.
    pub truncated: bool,
    /// The timeout was hit.
    pub timed_out: bool,
    /// The [`EngineOptions::node_budget`] was exhausted; the pairs
    /// collected so far are sound but possibly incomplete.
    pub budget_exhausted: bool,
    /// Traversal statistics.
    pub stats: TraversalStats,
    /// The planner decision this output was produced under — the route
    /// actually executed, its direction and split choice. Populated by
    /// [`RpqEngine::evaluate_prepared`](crate::RpqEngine::evaluate_prepared)
    /// (and everything built on it); `None` only for outputs assembled
    /// outside the engine (the oracle, raw fast-path calls).
    pub plan: Option<crate::planner::Plan>,
    /// Product-graph visits `(node, fresh states)` in BFS order, when
    /// [`EngineOptions::collect_trace`] is on, the states zero-padded to
    /// the widest mask (word 0: the initial state and positions 1–63).
    pub trace: Vec<(Id, WideMask)>,
    /// The execution profile, when [`EngineOptions::profile`] is on
    /// (boxed: profiles are cold data and must not widen the common
    /// unprofiled output). `None` whenever profiling is off.
    pub profile: Option<Box<crate::profile::QueryProfile>>,
}

impl QueryOutput {
    /// Sorted copy of the pairs (for stable comparisons in tests).
    pub fn sorted_pairs(&self) -> Vec<(Id, Id)> {
        let mut v = self.pairs.clone();
        v.sort_unstable();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn taxonomy_classification() {
        let e = Regex::label(0);
        let q = RpqQuery::new(Term::Const(1), e.clone(), Term::Var);
        assert!(!q.is_var_to_var());
        let q = RpqQuery::new(Term::Var, e.clone(), Term::Var);
        assert!(q.is_var_to_var());
        let q = RpqQuery::new(Term::Const(0), e, Term::Const(1));
        assert!(!q.is_var_to_var());
    }

    #[test]
    fn default_options_match_paper() {
        let o = EngineOptions::default();
        assert_eq!(o.limit, 1_000_000);
        assert_eq!(o.forced_route, None);
    }
}
