//! The Ring-RPQ evaluation engine (§4 of the paper).

use ring::delta::DeltaIndex;
use ring::Ring;
use std::time::Instant;

use crate::kernel::{self, Traversal};
use crate::plan::{with_tables, EvalRoute, PreparedQuery};
use crate::planner::{self, Plan};
use crate::profile::{LevelProf, QueryProfile};
use crate::query::{EngineOptions, QueryOutput, RpqQuery, Term};
use crate::scratch::EngineScratch;
use crate::source::{MergedView, TripleSource};
use crate::stats::RingStatistics;
use crate::step::StepSource;
use crate::{fastpath, QueryError};

/// The RPQ engine: borrows a source — a [`Ring`], optionally under a
/// delta overlay or beside further shards — and owns an
/// [`EngineScratch`], the working memory of its evaluations (the `B[v]`
/// and `D[s]` mask tables with constant-time lazy reset, §4.1–4.2).
/// Construction is *O*(1): the scratch starts empty, and the traversal
/// needs no per-index table beside the source itself.
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
    /// The source: its ring, the committed delta overlay of an updatable
    /// one (when non-empty: every step merges the delta's adds in and
    /// filters its tombstones out), the shard set of a sharded one (every
    /// step is taken in the shards its routing table names).
    view: MergedView<'r>,
    /// Mask tables and traversal buffers: reused across this engine's
    /// queries, sized by the first traversal that needs them.
    scratch: EngineScratch,
}

impl<'r> RpqEngine<'r> {
    /// Creates an engine over `ring`, in *O*(1): nothing is allocated
    /// until the first traversal, which sizes the mask tables
    /// (`O(|P| + |V|)` words); later queries reset them in *O*(1).
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
    /// empty delta is no overlay).
    pub fn with_delta(ring: &'r Ring, delta: Option<&'r DeltaIndex>) -> Self {
        Self {
            view: MergedView::from_parts(ring, delta),
            scratch: EngineScratch::default(),
        }
    }

    /// [`Self::over`] around an existing scratch — typically one an
    /// earlier engine gave back through [`Self::into_scratch`], over the
    /// same source or any other: tables too small for this source grow in
    /// place when a query first needs them.
    pub fn with_scratch<S: TripleSource + ?Sized>(source: &'r S, scratch: EngineScratch) -> Self {
        Self {
            view: MergedView::new(source),
            scratch,
        }
    }

    /// Detaches the working memory, ending the borrow of the source.
    pub fn into_scratch(self) -> EngineScratch {
        self.scratch
    }

    /// The underlying ring (borrowed for the engine's full lifetime, so
    /// the reference outlives any `&mut self` evaluation borrow).
    pub fn ring(&self) -> &'r Ring {
        self.view.ring
    }

    /// Bytes of working memory this engine holds (Table 2's
    /// working-space accounting): the mask tables the traversals run so
    /// far have sized — the per-node `D[s]` on every source, and `B[v]`
    /// over a bare ring — plus the capacity of the traversal buffers.
    /// Zero before the first traversal.
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
        let plan = PreparedQuery::compile(
            &query.expr,
            &|l| self.view.ring.inverse_label(l),
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
    /// in `opts` — limits, timeout, node budget, route forcing — applies
    /// per call.
    pub fn evaluate_prepared(
        &mut self,
        prepared: &PreparedQuery,
        subject: Term,
        object: Term,
        opts: &EngineOptions,
    ) -> Result<QueryOutput, QueryError> {
        let view = self.view;
        let (ring, delta, shards) = (view.ring, view.delta, view.shards);
        for t in [subject, object] {
            if let Term::Const(c) = t {
                if c >= view.n_nodes() {
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
                ring,
                delta,
                shards.map(|set| &set[..]).unwrap_or_default(),
            ),
            prepared,
            subject,
            object,
            opts,
        );
        let prof_planned = prof_t0.map(|_| Instant::now());
        let mut levels = opts.profile.then(LevelProf::new);

        // The one evaluation, over whichever step source the engine's
        // parts make: the bare ring, or the view layering a delta or a
        // shard set over it.
        let (ends, levels_mut) = ((subject, object), levels.as_mut());
        let mut out = match (delta, shards) {
            (None, None) => self.execute(ring, &plan, prepared, ends, opts, levels_mut)?,
            _ => self.execute(&view, &plan, prepared, ends, opts, levels_mut)?,
        };
        out.plan = Some(plan);
        if let (Some(t0), Some(planned)) = (prof_t0, prof_planned) {
            let mut phases = levels.as_ref().map(|l| l.phases).unwrap_or_default();
            let mut levels = levels.map(LevelProf::into_samples).unwrap_or_default();
            // The split route evaluates through nested sub-queries; its
            // partial profile carries the concatenated sub-levels up.
            if let Some(sub) = out.profile.take() {
                levels.extend(sub.levels);
                phases.add(&sub.phases);
            }
            let done = Instant::now();
            out.profile = Some(Box::new(QueryProfile {
                plan_us: planned.duration_since(t0).as_micros() as u64,
                exec_us: done.duration_since(planned).as_micros() as u64,
                total_us: done.duration_since(t0).as_micros() as u64,
                levels,
                compactions: out.stats.pair_compactions,
                phases,
                queue_wait_us: None,
                compile_us: None,
                cache_hit: None,
            }));
        }
        Ok(out)
    }

    /// Runs the planned route over `src`.
    fn execute<S: StepSource + ?Sized>(
        &mut self,
        src: &S,
        plan: &Plan,
        prepared: &PreparedQuery,
        (subject, object): (Term, Term),
        opts: &EngineOptions,
        levels: Option<&mut LevelProf>,
    ) -> Result<QueryOutput, QueryError> {
        let deadline = opts.timeout.map(|t| Instant::now() + t);
        match plan.route {
            EvalRoute::FastPath => Ok(fastpath::evaluate(
                src,
                prepared.shape(),
                subject,
                object,
                opts,
                deadline,
            )),
            EvalRoute::Split => {
                let split = plan.split.as_ref().expect("a split plan carries its split");
                crate::split::evaluate_split_in(self, src, split, opts, deadline)
            }
            // One kernel entry; the width of the plan's state masks picks
            // the copy of it that runs.
            EvalRoute::BitParallel => Ok(with_tables!(prepared.tables(), tables => {
                let mut kernel = Traversal {
                    src,
                    scratch: &mut self.scratch,
                    tables,
                    deadline,
                    prof: levels,
                    negated_labels: [None, None],
                };
                let (nullable, direction) = (prepared.nullable(), plan.direction);
                kernel::evaluate(&mut kernel, nullable, direction, subject, object, opts)
            })),
        }
    }
}
