//! The Ring-RPQ evaluation engine (§4 of the paper).

use automata::glushkov::INITIAL;
use automata::{BitParallel, Label};
use ring::delta::DeltaIndex;
use ring::{Id, Ring};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};
use succinct::util::{BitSet, EpochArray};
use succinct::wavelet_matrix::{MultiRangeGuide, MultiTraversal, RangeGuide};
use succinct::WaveletMatrix;

use crate::kernel::{self, Kernel, Start, Stop};
use crate::merged::MergedKernel;
use crate::plan::{EvalRoute, PreparedQuery};
use crate::planner;
use crate::profile::{LevelProf, QueryProfile};
use crate::query::{EngineOptions, QueryOutput, RpqQuery, Term, TraversalStats};
use crate::scratch::{EngineScratch, TraverseScratch};
use crate::source::{MergedView, ShardSet, TripleSource};
use crate::stats::RingStatistics;
use crate::{fastpath, QueryError};

/// Frontier items batched through one `L_p` traversal at a time (bounds
/// the per-level scratch; a BFS level larger than this is processed in
/// chunks, in order).
const FRONTIER_CHUNK: usize = 1024;

/// The RPQ engine: borrows a source — a [`Ring`], optionally under a
/// delta overlay or beside further shards — and owns an
/// [`EngineScratch`], the working memory of its evaluations (the `B[v]`,
/// `D[v]` and `D[s]` mask tables with constant-time lazy reset,
/// §4.1–4.2). Construction is *O*(1): the scratch starts empty, and the
/// one per-index table the traversal needs
/// ([`Ring::ls_occupancy`]) belongs to the ring.
///
/// ```
/// use automata::Regex;
/// use ring::{Graph, Ring, Triple};
/// use ring::ring::RingOptions;
/// use rpq_core::{EngineOptions, RpqEngine, RpqQuery, Term};
///
/// // 0 --a--> 1 --a--> 2 --b--> 3
/// let g = Graph::from_triples(vec![
///     Triple::new(0, 0, 1),
///     Triple::new(1, 0, 2),
///     Triple::new(2, 1, 3),
/// ]);
/// let ring = Ring::build(&g, RingOptions::default());
/// let mut engine = RpqEngine::new(&ring);
///
/// // (x, a*/b, 3): all nodes reaching 3 by a-steps then one b.
/// let expr = Regex::concat(Regex::Star(Box::new(Regex::label(0))), Regex::label(1));
/// let q = RpqQuery::new(Term::Var, expr, Term::Const(3));
/// let out = engine.evaluate(&q, &EngineOptions::default()).unwrap();
/// assert_eq!(out.sorted_pairs(), vec![(0, 3), (1, 3), (2, 3)]);
/// ```
pub struct RpqEngine<'r> {
    ring: &'r Ring,
    /// The committed delta overlay of an updatable source, when present
    /// and non-empty. Routes evaluation through the merged (ring ⊎
    /// delta) expansion; `None` keeps the pure succinct hot path.
    delta: Option<&'r DeltaIndex>,
    /// The shard set of a sharded source (`None` = unsharded; part 0's
    /// ring is `ring`). Like a delta, a partition routes every
    /// evaluation through the merged expansion — each step gathers from
    /// the shards the set's routing table names.
    shards: Option<&'r ShardSet>,
    /// Mask tables and traversal buffers: reused across this engine's
    /// queries, each table sized by the first route that needs it.
    scratch: EngineScratch,
    /// Threads the *current* evaluation may fan frontier work across —
    /// the planner's [`Plan::intra_query_threads`] decision, stashed
    /// here by `evaluate_prepared` so the traversal internals need no
    /// extra parameter. 1 = the sequential path.
    ///
    /// [`Plan::intra_query_threads`]: crate::planner::Plan::intra_query_threads
    active_threads: usize,
    /// Per-level profile collector of the *current* evaluation, present
    /// iff [`EngineOptions::profile`] was set — same stashing pattern as
    /// `active_threads`, so the traversal internals need no extra
    /// parameter. `None` (profiling off) costs one pointer check per
    /// BFS level.
    prof_levels: Option<LevelProf>,
}

impl<'r> RpqEngine<'r> {
    /// Creates an engine over `ring`, in *O*(1): nothing is allocated
    /// until the first query, which sizes the mask tables its route needs
    /// (`O(|P| + |V|)` words on the pure path); later queries reset them
    /// in *O*(1).
    pub fn new(ring: &'r Ring) -> Self {
        Self::with_delta(ring, None)
    }

    /// Creates an engine over any [`TripleSource`] — an immutable ring,
    /// a store snapshot whose delta overlay the engine merges into every
    /// expansion step, or a sharded source whose parts it
    /// scatter-gathers.
    pub fn over<S: TripleSource + ?Sized>(source: &'r S) -> Self {
        Self::with_scratch(source, EngineScratch::default())
    }

    /// Creates an engine over a ring plus an optional delta overlay (an
    /// empty delta selects the pure path).
    pub fn with_delta(ring: &'r Ring, delta: Option<&'r DeltaIndex>) -> Self {
        Self::from_parts(ring, delta, None, EngineScratch::default())
    }

    /// [`Self::over`] around an existing scratch — typically one an
    /// earlier engine gave back through [`Self::into_scratch`], over the
    /// same source or any other: tables too small for this source grow in
    /// place when a query first needs them.
    pub fn with_scratch<S: TripleSource + ?Sized>(source: &'r S, scratch: EngineScratch) -> Self {
        Self::from_parts(source.ring(), source.delta(), source.shards(), scratch)
    }

    /// Detaches the working memory, ending the borrow of the source.
    pub fn into_scratch(self) -> EngineScratch {
        self.scratch
    }

    fn from_parts(
        ring: &'r Ring,
        delta: Option<&'r DeltaIndex>,
        shards: Option<&'r ShardSet>,
        scratch: EngineScratch,
    ) -> Self {
        Self {
            ring,
            delta: delta.filter(|d| !d.is_empty()),
            shards,
            scratch,
            active_threads: 1,
            prof_levels: None,
        }
    }

    /// The underlying ring (borrowed for the engine's full lifetime, so
    /// the reference outlives any `&mut self` evaluation borrow).
    pub fn ring(&self) -> &'r Ring {
        self.ring
    }

    /// Whether evaluation must go through the merged expansion (a delta
    /// overlay or a multi-shard partition is layered over the base
    /// ring); `false` keeps the pure succinct hot path.
    pub(crate) fn layered(&self) -> bool {
        self.view().layered()
    }

    /// The merged step-level view of this engine's source.
    pub(crate) fn view(&self) -> MergedView<'r> {
        MergedView::with_shards(self.ring, self.delta, self.shards)
    }

    /// Bytes of working memory this engine holds (Table 2's
    /// working-space accounting): the mask tables the routes run so far
    /// have sized — `B[v]` and `D[v]`/`D[s]` on the pure path, the
    /// per-node masks on a delta or sharded source — plus the capacity of
    /// the traversal buffers. Zero before the first query.
    pub fn working_space_bytes(&self) -> usize {
        self.scratch.size_bytes()
    }

    /// Evaluates a 2RPQ under the given options: compiles a one-shot
    /// [`PreparedQuery`] and runs [`Self::evaluate_prepared`]. Callers
    /// that re-run the same pattern (a server's plan cache) should
    /// compile once and call `evaluate_prepared` directly.
    pub fn evaluate(
        &mut self,
        query: &RpqQuery,
        opts: &EngineOptions,
    ) -> Result<QueryOutput, QueryError> {
        // Checked again by evaluate_prepared, but compilation itself
        // reverses the expression through `inverse_label`, which needs the
        // completed alphabet.
        if !self.ring.has_inverses() {
            return Err(QueryError::InversesRequired);
        }
        let plan = PreparedQuery::compile(
            &query.expr,
            &|l| self.ring.inverse_label(l),
            opts.bp_split_width,
        )?;
        self.evaluate_prepared(&plan, query.subject, query.object, opts)
    }

    /// Evaluates a precompiled query anchored at the given endpoints.
    ///
    /// The route, traversal direction and (possible) rare-label split
    /// come from the shared cost-based planner
    /// ([`crate::planner::plan`]); the decision actually executed is
    /// recorded in [`QueryOutput::plan`], so callers — `explain`, a
    /// server's metrics — observe exactly what ran. The prepared
    /// query's transition tables are used as-is (the
    /// `opts.bp_split_width` of this call is ignored); everything else
    /// in `opts` — limits, timeout, node budget, fast paths, pruning,
    /// route forcing — applies per call.
    pub fn evaluate_prepared(
        &mut self,
        prepared: &PreparedQuery,
        subject: Term,
        object: Term,
        opts: &EngineOptions,
    ) -> Result<QueryOutput, QueryError> {
        if !self.ring.has_inverses() {
            return Err(QueryError::InversesRequired);
        }
        for t in [subject, object] {
            if let Term::Const(c) = t {
                if c >= self.view().n_nodes() {
                    return Err(QueryError::NodeOutOfRange(c));
                }
            }
        }
        // Profiling clocks: read only when `opts.profile` is set, so the
        // unprofiled path stays exactly as before. The planner never
        // sees the flag — plans, and therefore answers, are identical
        // either way.
        let prof_t0 = opts.profile.then(Instant::now);
        let plan = planner::plan(
            &RingStatistics::with_parts(
                self.ring,
                self.delta,
                self.shards.map(|set| &set[..]).unwrap_or_default(),
            ),
            prepared,
            subject,
            object,
            opts,
        );
        let prof_planned = prof_t0.map(|_| Instant::now());
        let deadline = opts.timeout.map(|t| Instant::now() + t);
        self.active_threads = plan.intra_query_threads;
        self.prof_levels = opts.profile.then(LevelProf::new);

        let mut out = match plan.route {
            EvalRoute::FastPath => {
                if self.layered() {
                    fastpath::evaluate_merged(
                        &self.view(),
                        prepared.shape(),
                        subject,
                        object,
                        opts,
                        deadline,
                        plan.intra_query_threads,
                    )?
                } else {
                    fastpath::evaluate(
                        self.ring,
                        prepared.shape(),
                        subject,
                        object,
                        opts,
                        deadline,
                        plan.intra_query_threads,
                    )?
                }
            }
            // Expressions beyond the bit-parallel word width evaluate
            // through the explicit-state fallback (§3.3's m > w regime).
            EvalRoute::Fallback => {
                let query = RpqQuery::new(subject, prepared.expr().clone(), object);
                crate::fallback::evaluate_view(&self.view(), &query, opts)?
            }
            EvalRoute::Split => {
                let split = plan.split.clone().expect("a split plan carries its split");
                crate::split::evaluate_split_in(self, &split, opts, deadline)?
            }
            EvalRoute::BitParallel => {
                let tables = prepared
                    .tables()
                    .expect("the planner only picks bit-parallel when tables exist");
                let nullable = tables.0.is_nullable();
                let view = self.view();
                if view.layered() {
                    self.scratch
                        .merged_masks
                        .ensure_len(view.n_nodes() as usize);
                    let mut kernel = MergedKernel {
                        view,
                        masks: &mut self.scratch.merged_masks,
                        tables,
                        opts,
                        deadline,
                        threads: plan.intra_query_threads,
                        prof: self.prof_levels.as_mut(),
                        labels: [None, None],
                    };
                    kernel::evaluate(&mut kernel, nullable, plan.direction, subject, object, opts)
                } else {
                    let mut kernel = PureKernel {
                        engine: self,
                        tables,
                        opts,
                        deadline,
                    };
                    kernel::evaluate(&mut kernel, nullable, plan.direction, subject, object, opts)
                }
            }
        };
        out.plan = Some(plan);
        if let (Some(t0), Some(planned)) = (prof_t0, prof_planned) {
            let mut levels = self
                .prof_levels
                .take()
                .map(LevelProf::into_samples)
                .unwrap_or_default();
            // The split route evaluates through nested sub-queries; its
            // partial profile carries the concatenated sub-levels up.
            if let Some(sub) = out.profile.take() {
                levels.extend(sub.levels);
            }
            let done = Instant::now();
            out.profile = Some(Box::new(QueryProfile {
                plan_us: planned.duration_since(t0).as_micros() as u64,
                exec_us: done.duration_since(planned).as_micros() as u64,
                total_us: done.duration_since(t0).as_micros() as u64,
                levels,
                compactions: out.stats.pair_compactions,
                queue_wait_us: None,
                compile_us: None,
                cache_hit: None,
            }));
        }
        Ok(out)
    }

    /// The backward product-graph traversal (§4, parts one to three),
    /// frontier-batched: each BFS level's part-one (`L_p`) traversals run
    /// as **one** batched wavelet sweep over the whole frontier
    /// ([`WaveletMatrix::guided_traverse_multi`]), sharing node-start
    /// ranks, `B[v]` mask lookups and cache lines across the level's
    /// ranges. Part one only reads the static `B` masks, so batching it
    /// is semantically transparent; items are then processed in exact
    /// FIFO order (a FIFO queue visits whole levels consecutively), so
    /// visit order, traces and the product-graph counters match the
    /// item-at-a-time traversal bit for bit. (`wavelet_nodes` is the
    /// exception: batched part-one consults each `L_p` node once per
    /// frontier chunk instead of once per range, so that counter now
    /// measures the batched workload.)
    ///
    /// When the planner granted `intra_query_threads > 1` and a level's
    /// frontier reaches `parallel_min_frontier`, that level expands via
    /// the speculative two-phase scheme ([`expand_level_speculative`]):
    /// answers, flags, traces and the budget stop point stay bit-for-bit
    /// identical; `wavelet_nodes`/`rank_ops` then measure the
    /// *speculative* workload (frozen-mask pruning admits more nodes,
    /// and budget-aborted levels were already fully expanded) — the same
    /// "counters measure the executed strategy" convention the batching
    /// above established.
    #[allow(clippy::too_many_arguments)]
    /// Calls `report(r)` for every node where the initial NFA state newly
    /// activates; a `false` return aborts the traversal. `budget` caps
    /// the product-graph nodes visited by *this* run. Returns why the
    /// traversal stopped.
    fn backward_traverse(
        &mut self,
        bp: &BitParallel,
        start: Start,
        opts: &EngineOptions,
        deadline: Option<Instant>,
        budget: Option<u64>,
        stats: &mut TraversalStats,
        trace: Option<&mut Vec<(Id, u64)>>,
        report: &mut dyn FnMut(Id) -> bool,
    ) -> Stop {
        let stop =
            self.backward_traverse_impl(bp, start, opts, deadline, budget, stats, trace, report);
        // Close the last open level sample with this run's final
        // counters — the traversal body has many early exits (deadline,
        // budget, report abort) and this wrapper covers them all.
        if let Some(p) = self.prof_levels.as_mut() {
            p.finish(stats.rank_ops, stats.parallel_chunks);
        }
        stop
    }

    #[allow(clippy::too_many_arguments)]
    fn backward_traverse_impl(
        &mut self,
        bp: &BitParallel,
        start: Start,
        opts: &EngineOptions,
        deadline: Option<Instant>,
        budget: Option<u64>,
        stats: &mut TraversalStats,
        mut trace: Option<&mut Vec<(Id, u64)>>,
        report: &mut dyn FnMut(Id) -> bool,
    ) -> Stop {
        let threads = self.active_threads.max(1);
        let min_frontier = opts.parallel_min_frontier.max(2);
        let Self {
            ring,
            scratch,
            prof_levels,
            ..
        } = self;
        let ring: &Ring = ring;
        let lp = ring.l_p();
        let ls = ring.l_s();
        let width_p = lp.width();
        let width_s = ls.width();
        let ls_occupancy = ring.ls_occupancy();
        let EngineScratch {
            lp_masks,
            ls_masks,
            traverse,
            ..
        } = scratch;

        lp_masks.ensure_len(lp.node_table_len());
        ls_masks.ensure_len(ls.node_table_len());
        lp_masks.reset();
        ls_masks.reset();
        // Seed B[v] for all wavelet-node ancestors of the query's labels
        // (lazy initialization, O(m log |P|), §4.1).
        for &(label, mask) in bp.positive_label_masks() {
            for level in 0..=width_p {
                let prefix = label >> (width_p - level);
                lp_masks.or_with(WaveletMatrix::node_index(level, prefix), mask);
            }
        }
        let neg = bp.negated_positions();

        let TraverseScratch {
            mt,
            frontier,
            next_frontier,
            ranges,
            ds,
            pred_hits,
            subjects,
        } = traverse;
        frontier.clear();
        next_frontier.clear();
        let d0 = bp.accept_mask();
        if d0 == 0 {
            return Stop::Completed;
        }
        match start {
            Start::Object(o) => {
                // Mark F on the start node (§4.2) and report a zero-length
                // match if the initial state is already accepting.
                ls_masks.set(WaveletMatrix::node_index(width_s, o), d0);
                if d0 & INITIAL != 0 && MergedView::ring_only(ring).node_exists(o) {
                    stats.reported += 1;
                    if !report(o) {
                        return Stop::Completed;
                    }
                }
                let (b, e) = ring.object_range(o);
                if e > b {
                    frontier.push((b, e, d0));
                }
            }
            Start::Full => {
                let (b, e) = ring.full_range();
                if e > b {
                    frontier.push((b, e, d0));
                }
            }
        }

        while !frontier.is_empty() {
            if let Some(p) = prof_levels.as_mut() {
                p.enter(frontier.len() as u64, stats.rank_ops, stats.parallel_chunks);
            }
            if threads > 1 && frontier.len() >= min_frontier {
                // Two-phase parallel expansion. Phase A (concurrent,
                // read-only): every chunk speculatively runs part one and
                // a *frozen-mask* part two, producing an ordered
                // candidate plan. Phase B (sequential, below): replay the
                // plans in chunk/item/pred/candidate order against the
                // live masks — recomputing `fresh` exactly where the
                // sequential loop would — so pairs, flags, traces and the
                // budget stop point are bit-for-bit identical to the
                // sequential path. (Frozen pruning admits a superset of
                // candidates in the same traversal order; the replay's
                // `fresh == 0` skip is precisely the sequential leaf
                // filter, see `FrozenSubjGuide`.)
                let plans = expand_level_speculative(
                    ring,
                    bp,
                    neg,
                    lp_masks,
                    ls_masks,
                    opts.node_pruning,
                    frontier,
                    deadline,
                    threads,
                );
                stats.parallel_levels += 1;
                for plan in &plans {
                    stats.parallel_chunks += 1;
                    stats.rank_ops += plan.rank_ops;
                    stats.rank_ops_saved += plan.rank_ops_saved;
                    stats.wavelet_nodes += plan.wavelet_nodes;
                    if plan.deadline_hit {
                        // A worker saw the (monotone) deadline pass, so
                        // the sequential run would also time out by now.
                        return Stop::TimedOut;
                    }
                    for item in &plan.items {
                        stats.bfs_steps += 1;
                        if let Some(dl) = deadline {
                            if stats.bfs_steps.is_multiple_of(64) && Instant::now() >= dl {
                                return Stop::TimedOut;
                            }
                        }
                        stats.product_edges += item.n_hits;
                        for &(d_new, ref cands) in &item.preds {
                            for &s in cands {
                                let idx = WaveletMatrix::node_index(width_s, s);
                                let old = ls_masks.get(idx);
                                let fresh = d_new & !old;
                                if fresh == 0 {
                                    continue;
                                }
                                if let Some(nb) = budget {
                                    if stats.product_nodes >= nb {
                                        return Stop::Budget;
                                    }
                                }
                                ls_masks.set(idx, old | d_new);
                                if opts.node_pruning {
                                    propagate_up(ls_masks, ls_occupancy, width_s, s);
                                }
                                stats.product_nodes += 1;
                                if let Some(t) = trace.as_deref_mut() {
                                    t.push((s, fresh));
                                }
                                if fresh & INITIAL != 0 {
                                    stats.reported += 1;
                                    if !report(s) {
                                        return Stop::Completed;
                                    }
                                }
                                let (ob, oe) = ring.object_range(s);
                                if oe > ob {
                                    next_frontier.push((ob, oe, fresh));
                                }
                            }
                        }
                    }
                }
                std::mem::swap(frontier, next_frontier);
                next_frontier.clear();
                continue;
            }
            let mut chunk_start = 0;
            while chunk_start < frontier.len() {
                let chunk =
                    &frontier[chunk_start..(chunk_start + FRONTIER_CHUNK).min(frontier.len())];
                chunk_start += chunk.len();

                // Part one, batched over the chunk: distinct relevant
                // predicates reaching each range, found in one sweep.
                ranges.clear();
                ds.clear();
                for &(b, e, d) in chunk {
                    ranges.push((b, e));
                    ds.push(d);
                }
                if pred_hits.len() < chunk.len() {
                    pred_hits.resize_with(chunk.len(), Vec::new);
                }
                for hits in pred_hits[..chunk.len()].iter_mut() {
                    hits.clear();
                }
                let union_d = ds.iter().fold(0u64, |a, &d| a | d);
                {
                    let mut guide = PredGuideMulti {
                        ds,
                        union_d,
                        masks: lp_masks,
                        neg,
                        width: width_p,
                        out: pred_hits,
                        nodes_entered: &mut stats.wavelet_nodes,
                        node_mask: 0,
                        pending: 0,
                    };
                    mt.run(lp, ranges, &mut guide);
                }
                stats.rank_ops += mt.ranks;
                stats.rank_ops_saved += mt.ranks_saved;
                // The batched sweep emits leaves in unspecified order;
                // ascending-label order restores the exact predicate
                // processing sequence (and traces) of the per-range
                // traversal.
                for hits in pred_hits[..chunk.len()].iter_mut() {
                    hits.sort_unstable_by_key(|&(p, ..)| p);
                }

                // Items in FIFO order, each with its precomputed preds.
                for (i, _) in chunk.iter().enumerate() {
                    stats.bfs_steps += 1;
                    if let Some(dl) = deadline {
                        if stats.bfs_steps.is_multiple_of(64) && Instant::now() >= dl {
                            return Stop::TimedOut;
                        }
                    }

                    for &(p, rb, re, d_and_b) in pred_hits[i].iter() {
                        stats.product_edges += 1;
                        // Eq. 2: the same new state set for every subject
                        // (Fact 1).
                        let d_new = bp.apply_bwd(d_and_b);
                        if d_new == 0 {
                            continue;
                        }
                        let base = ring.pred_range(p).0;
                        let (sb, se) = (base + rb, base + re);

                        // Part two: distinct unvisited subjects in range.
                        subjects.clear();
                        {
                            let mut guide = SubjGuide {
                                d_new,
                                masks: ls_masks,
                                occ: ls_occupancy,
                                width: width_s,
                                node_pruning: opts.node_pruning,
                                out: subjects,
                                nodes_entered: &mut stats.wavelet_nodes,
                                pending_fresh: 0,
                            };
                            ls.guided_traverse(sb, se, &mut guide);
                        }

                        for &(s, fresh) in subjects.iter() {
                            if let Some(nb) = budget {
                                if stats.product_nodes >= nb {
                                    return Stop::Budget;
                                }
                            }
                            stats.product_nodes += 1;
                            if let Some(t) = trace.as_deref_mut() {
                                t.push((s, fresh));
                            }
                            if fresh & INITIAL != 0 {
                                stats.reported += 1;
                                if !report(s) {
                                    return Stop::Completed;
                                }
                            }
                            // Part three: the subject becomes an object
                            // again, on the next BFS level.
                            let (ob, oe) = ring.object_range(s);
                            if oe > ob {
                                next_frontier.push((ob, oe, fresh));
                            }
                        }
                    }
                }
            }
            std::mem::swap(frontier, next_frontier);
            next_frontier.clear();
        }
        Stop::Completed
    }
}

/// The wavelet-batched kernel bound to one evaluation: the engine (ring,
/// mask tables, thread grant, profiler), the query's `(E, Ê)` tables and
/// the call's limits.
struct PureKernel<'e, 'r> {
    engine: &'e mut RpqEngine<'r>,
    tables: (&'e BitParallel, &'e BitParallel),
    opts: &'e EngineOptions,
    deadline: Option<Instant>,
}

impl Kernel for PureKernel<'_, '_> {
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
        self.engine.backward_traverse(
            bp,
            start,
            self.opts,
            self.deadline,
            budget,
            stats,
            trace,
            report,
        )
    }

    fn n_nodes(&self) -> Id {
        self.engine.ring.n_nodes()
    }

    fn node_exists(&self, v: Id) -> bool {
        self.engine.view().node_exists(v)
    }
}

/// §4.1, frontier-batched: prune `L_p` subtrees whose labels cannot
/// reach an active state of *any* frontier item (node level), then
/// per item against its own mask (item level). The expensive per-node
/// work — the `B[v]` lookup and the negated-class range mask — is done
/// once per node for the whole frontier.
struct PredGuideMulti<'a> {
    /// Per-item state masks `D_i`.
    ds: &'a [u64],
    /// OR of all `D_i`: the node-level admission mask.
    union_d: u64,
    masks: &'a EpochArray,
    neg: &'a [(u64, Vec<Label>)],
    width: usize,
    /// Per-item output: `(pred, rank_b, rank_e, D_i & B[p])`.
    out: &'a mut Vec<Vec<(Label, usize, usize, u64)>>,
    nodes_entered: &'a mut u64,
    /// `B[v] | neg` of the node admitted most recently.
    node_mask: u64,
    /// `D_i & B[p]` for the item whose `leaf` call comes next (the
    /// [`MultiRangeGuide`] contract: `leaf` immediately follows its
    /// item's `enter_item`); at a leaf this is exactly Eq. 2's input.
    pending: u64,
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
        let active = self.node_mask & self.ds[item as usize];
        if active == 0 {
            return false;
        }
        self.pending = active;
        true
    }

    fn leaf(&mut self, item: u32, sym: u64, rank_b: usize, rank_e: usize) {
        self.out[item as usize].push((sym, rank_b, rank_e, self.pending));
    }
}

/// Mask contributed by negated-class positions to the wavelet node
/// `(level, prefix)` covering labels `[prefix·2^span, (prefix+1)·2^span)`:
/// the position fires unless the whole interval is excluded.
fn neg_range_mask(neg: &[(u64, Vec<Label>)], level: usize, prefix: u64, width: usize) -> u64 {
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

/// §4.2: skip subjects (and subtrees) already visited with every active
/// state. Internal nodes hold the **intersection** of the visited sets of
/// the occupied leaves below them — the invariant the paper states for
/// `D[v]` — maintained by upward propagation from each leaf update.
struct SubjGuide<'a> {
    d_new: u64,
    masks: &'a mut EpochArray,
    occ: &'a BitSet,
    width: usize,
    node_pruning: bool,
    out: &'a mut Vec<(Id, u64)>,
    nodes_entered: &'a mut u64,
    pending_fresh: u64,
}

impl RangeGuide for SubjGuide<'_> {
    fn enter(&mut self, level: usize, prefix: u64) -> bool {
        *self.nodes_entered += 1;
        let idx = WaveletMatrix::node_index(level, prefix);
        if level == self.width {
            // Leaf: the per-node visited filter D[s] (always on; soundness
            // and Theorem 4.1 depend on it).
            let old = self.masks.get(idx);
            let fresh = self.d_new & !old;
            if fresh == 0 {
                return false;
            }
            self.masks.set(idx, old | self.d_new);
            self.pending_fresh = fresh;
            true
        } else if self.node_pruning {
            // Prune when every occupied subject below already carries all
            // of d_new. Sound because masks[idx] is an intersection lower
            // bound (default 0 never over-prunes).
            self.d_new & !self.masks.get(idx) != 0
        } else {
            true
        }
    }

    fn leaf(&mut self, sym: u64, _rank_b: usize, _rank_e: usize) {
        self.out.push((sym, self.pending_fresh));
        if self.node_pruning {
            propagate_up(self.masks, self.occ, self.width, sym);
        }
    }
}

/// Re-establishes the intersection invariant of the internal `D[v]`
/// masks on the leaf-to-root path above `sym`, stopping as soon as an
/// ancestor's value is unchanged. Shared by the sequential leaf update
/// ([`SubjGuide::leaf`]) and the parallel merge replay, which must
/// mutate the masks identically.
fn propagate_up(masks: &mut EpochArray, occ: &BitSet, width: usize, sym: u64) {
    let mut prefix = sym;
    for level in (0..width).rev() {
        prefix >>= 1;
        let left = WaveletMatrix::node_index(level + 1, prefix << 1);
        let dl = if occ.get(left) {
            masks.get(left)
        } else {
            u64::MAX
        };
        let dr = if occ.get(left + 1) {
            masks.get(left + 1)
        } else {
            u64::MAX
        };
        let v = WaveletMatrix::node_index(level, prefix);
        let merged = dl & dr;
        if masks.get(v) == merged {
            break;
        }
        masks.set(v, merged);
    }
}

/// One frontier chunk's speculative expansion plan (Phase A output):
/// everything the sequential loop would need, computed against *frozen*
/// visited masks so it can run concurrently.
struct ChunkPlan {
    /// Per frontier item, in order.
    items: Vec<ItemPlan>,
    /// This chunk's part-one rank count.
    rank_ops: u64,
    /// Ranks the batched part-one avoided.
    rank_ops_saved: u64,
    /// Wavelet nodes entered (part one + frozen part two).
    wavelet_nodes: u64,
    /// The worker saw the deadline pass and skipped expansion; the merge
    /// turns this into `Stop::TimedOut` when it reaches the chunk.
    deadline_hit: bool,
}

/// One frontier item's speculative expansion: its part-one hit count
/// (for exact `product_edges` accounting — hits with a dead `d_new` are
/// counted by the sequential loop too) and, per surviving predicate in
/// ascending-label order, the backward state set and the candidate
/// subjects the frozen part two emitted.
struct ItemPlan {
    n_hits: u64,
    preds: Vec<(u64, Vec<Id>)>,
}

/// Phase A: expands every chunk of `frontier` speculatively, fanning
/// chunks across up to `threads − 1` pool helpers plus the calling
/// thread. Chunk geometry depends only on `(frontier.len(), threads)` —
/// never on how many helpers the pool actually granted — and per-item
/// part-one output is independent of chunk grouping (the multi-range
/// guide filters per item), so results are deterministic.
#[allow(clippy::too_many_arguments)]
fn expand_level_speculative(
    ring: &Ring,
    bp: &BitParallel,
    neg: &[(u64, Vec<Label>)],
    lp_masks: &EpochArray,
    ls_masks: &EpochArray,
    node_pruning: bool,
    frontier: &[(usize, usize, u64)],
    deadline: Option<Instant>,
    threads: usize,
) -> Vec<ChunkPlan> {
    // Aim for ~4 chunks per requested thread so dynamic claiming can
    // balance skew, but never exceed the sequential chunk bound (the
    // part-one scratch size) and don't shatter small levels.
    let chunk_size = frontier
        .len()
        .div_ceil(threads * 4)
        .clamp(64, FRONTIER_CHUNK);
    let n_chunks = frontier.len().div_ceil(chunk_size);
    let grant = crate::parallel::acquire_helpers(threads.saturating_sub(1));
    let slots: Vec<OnceLock<ChunkPlan>> = (0..n_chunks).map(|_| OnceLock::new()).collect();
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let work = || loop {
            let c = cursor.fetch_add(1, Ordering::Relaxed);
            if c >= n_chunks {
                break;
            }
            let lo = c * chunk_size;
            let hi = (lo + chunk_size).min(frontier.len());
            let plan = expand_chunk_speculative(
                ring,
                bp,
                neg,
                lp_masks,
                ls_masks,
                node_pruning,
                &frontier[lo..hi],
                deadline,
            );
            let _ = slots[c].set(plan);
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

/// Expands one chunk against frozen masks: part one (identical to the
/// sequential sweep — it only reads the static `B[v]` table) plus a
/// read-only part two per surviving predicate.
#[allow(clippy::too_many_arguments)]
fn expand_chunk_speculative(
    ring: &Ring,
    bp: &BitParallel,
    neg: &[(u64, Vec<Label>)],
    lp_masks: &EpochArray,
    ls_masks: &EpochArray,
    node_pruning: bool,
    chunk: &[(usize, usize, u64)],
    deadline: Option<Instant>,
) -> ChunkPlan {
    let mut plan = ChunkPlan {
        items: Vec::with_capacity(chunk.len()),
        rank_ops: 0,
        rank_ops_saved: 0,
        wavelet_nodes: 0,
        deadline_hit: false,
    };
    if let Some(dl) = deadline {
        if Instant::now() >= dl {
            plan.deadline_hit = true;
            return plan;
        }
    }
    let lp = ring.l_p();
    let ls = ring.l_s();
    let width_p = lp.width();
    let width_s = ls.width();
    let ranges: Vec<(usize, usize)> = chunk.iter().map(|&(b, e, _)| (b, e)).collect();
    let ds: Vec<u64> = chunk.iter().map(|&(_, _, d)| d).collect();
    let union_d = ds.iter().fold(0u64, |a, &d| a | d);
    let mut pred_hits: Vec<Vec<(Label, usize, usize, u64)>> = vec![Vec::new(); chunk.len()];
    let mut mt = MultiTraversal::default();
    {
        let mut guide = PredGuideMulti {
            ds: &ds,
            union_d,
            masks: lp_masks,
            neg,
            width: width_p,
            out: &mut pred_hits,
            nodes_entered: &mut plan.wavelet_nodes,
            node_mask: 0,
            pending: 0,
        };
        mt.run(lp, &ranges, &mut guide);
    }
    plan.rank_ops += mt.ranks;
    plan.rank_ops_saved += mt.ranks_saved;
    for hits in pred_hits.iter_mut() {
        hits.sort_unstable_by_key(|&(p, ..)| p);
    }
    for hits in pred_hits.iter() {
        let mut preds = Vec::new();
        for &(p, rb, re, d_and_b) in hits {
            let d_new = bp.apply_bwd(d_and_b);
            if d_new == 0 {
                continue;
            }
            let base = ring.pred_range(p).0;
            let mut cands = Vec::new();
            {
                let mut guide = FrozenSubjGuide {
                    d_new,
                    masks: ls_masks,
                    width: width_s,
                    node_pruning,
                    out: &mut cands,
                    nodes_entered: &mut plan.wavelet_nodes,
                };
                ls.guided_traverse(base + rb, base + re, &mut guide);
            }
            preds.push((d_new, cands));
        }
        plan.items.push(ItemPlan {
            n_hits: hits.len() as u64,
            preds,
        });
    }
    plan
}

/// The read-only counterpart of [`SubjGuide`] for Phase A: filters
/// subjects against a *frozen* snapshot of the visited masks without
/// mutating them. Because the masks only ever grow, every frozen-mask
/// check is a lower bound on the live one: this guide admits a
/// **superset** of the subjects the sequential traversal would emit, in
/// the same left-to-right order (pruning removes whole subtrees without
/// reordering survivors) — and the merge replay re-applies the exact
/// leaf filter (`fresh == 0` skip) against the live masks, discarding
/// exactly the speculative extras.
struct FrozenSubjGuide<'a> {
    d_new: u64,
    masks: &'a EpochArray,
    width: usize,
    node_pruning: bool,
    out: &'a mut Vec<Id>,
    nodes_entered: &'a mut u64,
}

impl RangeGuide for FrozenSubjGuide<'_> {
    fn enter(&mut self, level: usize, prefix: u64) -> bool {
        *self.nodes_entered += 1;
        if level == self.width || self.node_pruning {
            let idx = WaveletMatrix::node_index(level, prefix);
            self.d_new & !self.masks.get(idx) != 0
        } else {
            true
        }
    }

    fn leaf(&mut self, sym: u64, _rank_b: usize, _rank_e: usize) {
        self.out.push(sym);
    }
}

/// Convenience: evaluate one query with default options.
pub fn evaluate_query(ring: &Ring, query: &RpqQuery) -> Result<QueryOutput, QueryError> {
    RpqEngine::new(ring).evaluate(query, &EngineOptions::default())
}

/// Convenience: evaluate with a timeout.
pub fn evaluate_with_timeout(
    ring: &Ring,
    query: &RpqQuery,
    timeout: Duration,
) -> Result<QueryOutput, QueryError> {
    let opts = EngineOptions {
        timeout: Some(timeout),
        ..EngineOptions::default()
    };
    RpqEngine::new(ring).evaluate(query, &opts)
}
