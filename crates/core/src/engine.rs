//! The Ring-RPQ evaluation engine (§4 of the paper).

use automata::glushkov::INITIAL;
use automata::{BitParallel, Label};
use ring::delta::DeltaIndex;
use ring::{Id, Ring};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use succinct::util::{BitSet, EpochArray};
use succinct::wavelet_matrix::MultiRangeGuide;
use succinct::WaveletMatrix;

use crate::kernel::{self, Kernel, Start, Stop};
use crate::merged::MergedKernel;
use crate::plan::{EvalRoute, PreparedQuery};
use crate::planner;
use crate::profile::{LevelProf, QueryProfile};
use crate::query::{EngineOptions, QueryOutput, RpqQuery, Term, TraversalStats};
use crate::scratch::{ChunkExpansion, EngineScratch, PredHit, TraverseScratch};
use crate::source::{MergedView, ShardSet, TripleSource};
use crate::stats::RingStatistics;
use crate::{fastpath, QueryError};

/// Frontier items batched through one `L_p` traversal at a time (bounds
/// the per-level scratch; a BFS level larger than this is processed in
/// chunks, in order).
pub(crate) const FRONTIER_CHUNK: usize = 1024;

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

    /// The backward product-graph traversal (§4, parts one to three): a
    /// FIFO queue visits whole BFS levels consecutively, so it runs level
    /// by level, each level in frontier chunks, each chunk in two steps.
    ///
    /// *Expand* ([`Expander::expand`]) writes nothing shared. Part one is
    /// one level-synchronous sweep of `L_p` over the chunk's ranges, under
    /// the static `B[v]` masks; part two is one sweep of `L_s` over all
    /// the `(item, predicate)` ranges part one found, under the `D[v]`
    /// masks as they stood when the chunk began. Masks only ever grow, so
    /// those frozen masks admit a superset of the subjects the live ones
    /// would, in the same order. *Replay* then walks the chunk's work in
    /// FIFO order and applies the exact leaf filter `D' & !D[s]` against
    /// the live masks — discarding precisely what the frozen masks let
    /// through in excess — followed by the mask update, budget, trace and
    /// `report`; part three maps the subjects a chunk admitted to their
    /// `C_o` blocks in one batch. Pairs, flags, traces, stop points and
    /// the product-graph counters are therefore those of a traversal that
    /// expands one item at a time (`level_sync_identity` holds it to
    /// that); `wavelet_nodes` and `rank_ops` count what the sweeps did.
    ///
    /// When the planner granted `intra_query_threads > 1` and a level's
    /// frontier reaches `parallel_min_frontier`, the level is cut into
    /// smaller chunks and several are expanded at once before they are
    /// replayed in order; nothing else changes.
    ///
    /// Calls `report(r)` for every node where the initial NFA state newly
    /// activates; a `false` return aborts the traversal. `budget` caps
    /// the product-graph nodes visited by *this* run. Returns why the
    /// traversal stopped.
    #[allow(clippy::too_many_arguments)]
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
        let width_s = ring.l_s().width();
        let ls_occupancy = ring.ls_occupancy();
        let EngineScratch {
            lp_masks,
            ls_masks,
            traverse,
            ..
        } = scratch;

        seed_label_masks(lp_masks, ring.l_p(), bp);
        ls_masks.ensure_len(ring.l_s().node_table_len());
        ls_masks.reset();

        let TraverseScratch {
            frontier,
            next_frontier,
            expansions,
            admitted,
        } = traverse;
        frontier.clear();
        next_frontier.clear();
        admitted.clear();
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
            // A level wide enough for the threads the planner granted is
            // cut into ~4 chunks per thread, so that claiming them one by
            // one balances skew, and a wave of them is expanded at once.
            // The geometry depends on `(frontier.len(), threads)` only —
            // never on how many helpers the pool can spare right now.
            let grant = (threads > 1 && frontier.len() >= min_frontier)
                .then(|| crate::parallel::acquire_helpers(threads - 1));
            let (chunk_size, wave_chunks) = match grant {
                Some(_) => {
                    stats.parallel_levels += 1;
                    let size = frontier.len().div_ceil(threads * 4);
                    (size.clamp(64, FRONTIER_CHUNK), threads * 4)
                }
                None => (FRONTIER_CHUNK, 1),
            };
            for wave in frontier.chunks(chunk_size * wave_chunks) {
                let n_chunks = wave.len().div_ceil(chunk_size);
                if expansions.len() < n_chunks {
                    expansions.resize_with(n_chunks, ChunkExpansion::default);
                }
                Expander {
                    ring,
                    bp,
                    lp_masks: &*lp_masks,
                    ls_masks: &*ls_masks,
                    node_pruning: opts.node_pruning,
                }
                .expand_wave(
                    wave,
                    chunk_size,
                    &mut expansions[..n_chunks],
                    grant.as_ref().map_or(0, |g| g.count()),
                );

                for x in &expansions[..n_chunks] {
                    stats.parallel_chunks += u64::from(grant.is_some());
                    stats.rank_ops += x.rank_ops;
                    stats.rank_ops_saved += x.rank_ops_saved;
                    stats.wavelet_nodes += x.wavelet_nodes;
                    let (mut work, mut next_subject) = (0, 0);
                    for &item_end in &x.item_end {
                        stats.bfs_steps += 1;
                        if let Some(dl) = deadline {
                            if stats.bfs_steps.is_multiple_of(64) && Instant::now() >= dl {
                                return Stop::TimedOut;
                            }
                        }
                        while work < item_end {
                            stats.product_edges += 1;
                            // Eq. 2: the same new state set for every
                            // subject of the work item (Fact 1).
                            let d_new = x.work_d[work];
                            let subjects = &x.subjects[next_subject..x.work_end[work]];
                            next_subject = x.work_end[work];
                            work += 1;
                            for &s in subjects {
                                // The per-node visited filter D[s]:
                                // soundness and Theorem 4.1 depend on it.
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
                                admitted.push((s, fresh));
                            }
                        }
                    }
                    // Part three: each admitted subject becomes an object
                    // again, on the next BFS level.
                    for &(s, fresh) in admitted.iter() {
                        let (ob, oe) = ring.object_range(s);
                        if oe > ob {
                            next_frontier.push((ob, oe, fresh));
                        }
                    }
                    admitted.clear();
                }
            }
            std::mem::swap(frontier, next_frontier);
            next_frontier.clear();
        }
        Stop::Completed
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
    /// `(item, pred, rank_b, rank_e, D_i & B[p])`, in arrival order.
    out: &'a mut Vec<PredHit>,
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
        self.out.push((item, sym, rank_b, rank_e, self.pending));
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

/// §4.2 over a whole chunk: skip subjects (and subtrees) already visited
/// with every state their work item would add. Internal nodes hold the
/// **intersection** of the visited sets of the occupied leaves below them
/// — the invariant the paper states for `D[v]`, maintained by
/// [`propagate_up`] from each leaf update.
///
/// The masks are read, never written: they are the ones the chunk began
/// under, and since masks only grow every test against them passes
/// whenever the test against the live masks would. The sweep thus admits
/// a superset of what a traversal updating the masks as it goes admits,
/// in the same order, and the replay's leaf filter removes the excess.
struct SubjGuideMulti<'a> {
    /// Per work item, its `D'`.
    d_new: &'a [u64],
    masks: &'a EpochArray,
    width: usize,
    node_pruning: bool,
    /// `(work item, subject)`, in arrival order.
    out: &'a mut Vec<(u32, Id)>,
    nodes_entered: &'a mut u64,
    /// Table index of the node entered most recently, and its mask once
    /// an item has asked for it.
    node: usize,
    node_mask: Option<u64>,
}

impl MultiRangeGuide for SubjGuideMulti<'_> {
    const LEAF_RANKS: bool = false;
    // A node is refused only if every leaf below it would be.
    const UNIT_SHORTCUT: bool = true;

    fn enter_node(&mut self, level: usize, prefix: u64) -> bool {
        *self.nodes_entered += 1;
        self.node = WaveletMatrix::node_index(level, prefix);
        self.node_mask = None;
        true
    }

    fn enter_item(&mut self, item: u32, level: usize, _prefix: u64) -> bool {
        if level < self.width && !self.node_pruning {
            return true;
        }
        // At a leaf, the per-node visited filter `D[s]`. Above, a node is
        // pruned when every occupied subject below already carries all
        // of `D'` — sound because the mask is an intersection lower
        // bound (default 0 never over-prunes).
        let visited = *self
            .node_mask
            .get_or_insert_with(|| self.masks.get(self.node));
        self.d_new[item as usize] & !visited != 0
    }

    fn leaf(&mut self, item: u32, sym: u64, _rank_b: usize, _rank_e: usize) {
        self.out.push((item, sym));
    }
}

/// Re-establishes the intersection invariant of the internal `D[v]`
/// masks on the leaf-to-root path above `sym`, stopping as soon as an
/// ancestor's value is unchanged.
pub(crate) fn propagate_up(masks: &mut EpochArray, occ: &BitSet, width: usize, sym: u64) {
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

/// Everything expanding a chunk reads: the index, the query's tables and
/// the two mask tables as they stand.
struct Expander<'a> {
    ring: &'a Ring,
    bp: &'a BitParallel,
    lp_masks: &'a EpochArray,
    ls_masks: &'a EpochArray,
    node_pruning: bool,
}

impl Expander<'_> {
    /// Expands the chunks of `wave`, each into its slot, on this thread
    /// and up to `helpers` more; chunks are claimed one at a time. What a
    /// slot ends up holding depends on its chunk alone.
    fn expand_wave(
        &self,
        wave: &[(usize, usize, u64)],
        chunk_size: usize,
        slots: &mut [ChunkExpansion],
        helpers: usize,
    ) {
        let spawn = helpers.min(slots.len() - 1);
        let jobs = slots.iter_mut().zip(wave.chunks(chunk_size));
        if spawn == 0 {
            return jobs.for_each(|(x, chunk)| self.expand(chunk, x));
        }
        let jobs = Mutex::new(jobs);
        std::thread::scope(|scope| {
            let work = || loop {
                let job = jobs
                    .lock()
                    .expect("the job queue is only locked to take a job")
                    .next();
                match job {
                    Some((x, chunk)) => self.expand(chunk, x),
                    None => break,
                }
            };
            for _ in 0..spawn {
                scope.spawn(work);
            }
            work();
        });
    }

    /// Parts one and two for one chunk: which work items it has, and the
    /// subjects each of them may reach.
    fn expand(&self, chunk: &[(usize, usize, u64)], x: &mut ChunkExpansion) {
        let (lp, ls) = (self.ring.l_p(), self.ring.l_s());
        let ChunkExpansion {
            mt,
            ranges,
            ds,
            hits,
            item_end,
            work_d,
            candidates,
            work_end,
            subjects,
            rank_ops,
            rank_ops_saved,
            wavelet_nodes,
        } = x;
        *wavelet_nodes = 0;

        // Part one: the distinct relevant predicates reaching each range.
        ranges.clear();
        ds.clear();
        hits.clear();
        let mut union_d = 0;
        for &(b, e, d) in chunk {
            ranges.push((b, e));
            ds.push(d);
            union_d |= d;
        }
        let mut guide = PredGuideMulti {
            ds,
            union_d,
            masks: self.lp_masks,
            neg: self.bp.negated_positions(),
            width: lp.width(),
            out: hits,
            nodes_entered: wavelet_nodes,
            node_mask: 0,
            pending: 0,
        };
        mt.run(lp, ranges, &mut guide);
        (*rank_ops, *rank_ops_saved) = (mt.ranks, mt.ranks_saved);

        // The leaves arrived predicate by predicate; item by item they
        // are the chunk's work items, each with its backward step taken.
        ranges.clear();
        ranges.resize(hits.len(), (0, 0));
        work_d.clear();
        work_d.resize(hits.len(), 0);
        group_by_key(
            item_end,
            chunk.len(),
            hits,
            |hit| hit.0 as usize,
            |work, &(_, p, rank_b, rank_e, d_and_b)| {
                let d_new = self.bp.apply_bwd(d_and_b);
                if d_new != 0 {
                    let base = self.ring.c_p_ref().get(p);
                    work_d[work] = d_new;
                    ranges[work] = (base + rank_b, base + rank_e);
                }
            },
        );

        // Part two: the distinct subjects in each work item's range that
        // the visited masks do not rule out.
        candidates.clear();
        let mut guide = SubjGuideMulti {
            d_new: work_d,
            masks: self.ls_masks,
            width: ls.width(),
            node_pruning: self.node_pruning,
            out: candidates,
            nodes_entered: wavelet_nodes,
            node: 0,
            node_mask: None,
        };
        mt.run(ls, ranges, &mut guide);
        *rank_ops += mt.ranks;
        *rank_ops_saved += mt.ranks_saved;

        // They arrived subject by subject; the replay wants them work
        // item by work item, and finds each work item's ascending.
        subjects.clear();
        subjects.resize(candidates.len(), 0);
        group_by_key(
            work_end,
            hits.len(),
            candidates,
            |candidate| candidate.0 as usize,
            |slot, &(_, s)| subjects[slot] = s,
        );
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
