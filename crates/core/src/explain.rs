//! Query-plan introspection: the planner's decision for a query,
//! rendered without running it.
//!
//! `explain` is a *thin renderer* over [`crate::planner::plan`] — the
//! exact function [`RpqEngine::evaluate_prepared`] dispatches through —
//! so the explained route, direction and split can never diverge from
//! what execution does. (They once could: this module used to re-derive
//! a parallel `Strategy` with its own cost code, and the engine ignored
//! it.) The rendered plan is enriched with the §6 selectivity context a
//! human wants next to the decision: label cardinalities and the full
//! rare-label split candidate list.
//!
//! [`RpqEngine::evaluate_prepared`]: crate::RpqEngine::evaluate_prepared

use ring::Id;

use crate::jsonw::JsonWriter;
use crate::plan::{EvalRoute, PreparedQuery};
use crate::planner::{self, Direction, Plan};
use crate::profile::QueryProfile;
use crate::query::{EngineOptions, RpqQuery, Term};
use crate::source::TripleSource;
use crate::split::split_candidates;
use crate::stats::RingStatistics;
use crate::QueryError;

/// An explained query plan: the planner's [`Plan`] plus the automaton
/// and selectivity context that motivates it.
#[derive(Clone, Debug)]
pub struct QueryPlan {
    /// Table 1 pattern string of the query (`c`/`v` endpoints around the
    /// expression).
    pub pattern: String,
    /// The subject endpoint.
    pub subject: Term,
    /// The object endpoint.
    pub object: Term,
    /// The planner's decision — byte-for-byte what the engine executes.
    pub plan: Plan,
    /// Glushkov position count (`m`) of the class-fused expression.
    pub positions: usize,
    /// Whether the expression accepts the empty word (adds the diagonal).
    pub nullable: bool,
    /// Labels the expression mentions, with their edge cardinalities,
    /// rarest first.
    pub label_cardinalities: Vec<(Id, usize)>,
    /// Rare-label split candidates `(label, cardinality)`, best first
    /// (present even when the planner picked another route).
    pub split_candidates: Vec<(Id, usize)>,
}

/// Explains `query` against `source` under default options (dry run; no
/// traversal happens).
pub fn explain(
    source: &(impl TripleSource + ?Sized),
    query: &RpqQuery,
) -> Result<QueryPlan, QueryError> {
    explain_with(source, query, &EngineOptions::default())
}

/// Explains `query` under explicit options — the same options a later
/// [`RpqEngine::evaluate`](crate::RpqEngine::evaluate) call would use,
/// so a `forced_route` or a thread grant shows its effect —
/// against any [`TripleSource`]: a bare ring, a live-store snapshot, or a
/// sharded source, whose per-shard cardinalities the statistics provider
/// sums so the explained plan is byte-for-byte the plan the engine would
/// execute over that source.
pub fn explain_with(
    source: &(impl TripleSource + ?Sized),
    query: &RpqQuery,
    opts: &EngineOptions,
) -> Result<QueryPlan, QueryError> {
    let ring = source.ring();
    if !ring.has_inverses() {
        return Err(QueryError::InversesRequired);
    }
    let n_nodes = source
        .shard_parts()
        .iter()
        .map(|p| p.ring.n_nodes())
        .fold(ring.n_nodes(), Ord::max);
    for t in [query.subject, query.object] {
        if let Term::Const(c) = t {
            if c >= n_nodes {
                return Err(QueryError::NodeOutOfRange(c));
            }
        }
    }
    let prepared =
        PreparedQuery::compile(&query.expr, &|l| ring.inverse_label(l), opts.bp_split_width)?;
    Ok(explain_prepared(
        source,
        &prepared,
        query.subject,
        query.object,
        opts,
    ))
}

/// Explains an already-compiled query (what a serving layer holds in its
/// plan cache) anchored at the given endpoints, over any [`TripleSource`]
/// (delta overlays and shard parts feed the same statistics the engine
/// plans with). Endpoint validity is the caller's responsibility here;
/// the string entry points check it.
pub fn explain_prepared(
    source: &(impl TripleSource + ?Sized),
    prepared: &PreparedQuery,
    subject: Term,
    object: Term,
    opts: &EngineOptions,
) -> QueryPlan {
    let ring = source.ring();
    let stats = RingStatistics::with_parts(ring, source.delta(), source.shard_parts());
    let plan = planner::plan(&stats, prepared, subject, object, opts);

    let fused = prepared.expr().fuse_classes();
    let positions = fused.literal_count();
    let nullable = match prepared.tables() {
        Some((bp, _)) => bp.is_nullable(),
        None => {
            let nfa = automata::Nfa::from_regex(prepared.expr());
            nfa.accepting[nfa.initial]
        }
    };

    let mut label_cardinalities: Vec<(Id, usize)> = prepared
        .expr()
        .mentioned_labels()
        .into_iter()
        .filter(|&l| l < ring.n_preds())
        .map(|l| (l, stats.pred_cardinality(l)))
        .collect();
    label_cardinalities.sort_by_key(|&(l, c)| (c, l));

    let mut splits: Vec<(Id, usize)> = split_candidates(prepared.expr())
        .into_iter()
        .filter(|s| s.label < ring.n_preds())
        .map(|s| (s.label, stats.pred_cardinality(s.label)))
        .collect();
    splits.sort_by_key(|&(l, c)| (c, l));
    splits.dedup();

    QueryPlan {
        pattern: pattern_of(prepared, subject, object),
        subject,
        object,
        plan,
        positions,
        nullable,
        label_cardinalities,
        split_candidates: splits,
    }
}

fn pattern_of(prepared: &PreparedQuery, subject: Term, object: Term) -> String {
    let t = |term: Term| match term {
        Term::Const(_) => "c",
        Term::Var => "v",
    };
    format!("{} {} {}", t(subject), prepared.expr(), t(object))
}

impl QueryPlan {
    /// Renders the plan as one stable JSON object (fixed key order, no
    /// whitespace) — the machine-readable `--explain` output scripts can
    /// diff across runs and versions. Built on the shared
    /// [`crate::jsonw`] writer, so the pattern string gets *JSON*
    /// escaping (the previous `format!("{:?}")` rendering produced
    /// Rust's `\u{..}` escapes, which are invalid JSON for non-ASCII
    /// patterns).
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object()
            .field_str("pattern", &self.pattern)
            .field_str("route", self.plan.route.name());
        w.key("direction");
        match self.plan.direction {
            Some(d) => w.str(d.name()),
            None => w.null(),
        };
        match self.plan.split_label() {
            Some(l) => {
                let card = self
                    .split_candidates
                    .iter()
                    .find(|&&(c, _)| c == l)
                    .map_or(0, |&(_, c)| c);
                w.field_u64("split_label", l)
                    .field_u64("split_label_edges", card as u64);
            }
            None => {
                w.key("split_label").null();
                w.key("split_label_edges").null();
            }
        }
        w.field_u64("estimated_cost", self.plan.estimated_cost)
            .field_u64("intra_query_threads", self.plan.intra_query_threads as u64)
            .field_u64("positions", self.positions as u64)
            .field_bool("nullable", self.nullable)
            .end_object();
        w.finish()
    }
}

impl QueryProfile {
    /// Renders the profile as one stable JSON object (fixed key order,
    /// no whitespace) — the "EXPLAIN ANALYZE" counterpart of
    /// [`QueryPlan::to_json`]. Core keys are always present; the
    /// server-path keys (`queue_wait_us`, `compile_us`, `cache_hit`)
    /// appear only when the serving layer filled them, so the schema is
    /// determined by the path that produced the profile, never by
    /// timing.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object()
            .field_u64("plan_us", self.plan_us)
            .field_u64("exec_us", self.exec_us)
            .field_u64("total_us", self.total_us)
            .field_u64("compactions", self.compactions)
            .key("levels")
            .begin_array();
        for l in &self.levels {
            w.begin_object()
                .field_u64("frontier", l.frontier)
                .field_u64("rank_ops", l.rank_ops)
                .field_u64("chunks", l.chunks)
                .field_bool("parallel", l.parallel)
                .end_object();
        }
        w.end_array();
        if let Some(q) = self.queue_wait_us {
            w.field_u64("queue_wait_us", q);
        }
        if let Some(c) = self.compile_us {
            w.field_u64("compile_us", c);
        }
        if let Some(h) = self.cache_hit {
            w.field_bool("cache_hit", h);
        }
        w.end_object();
        w.finish()
    }
}

impl std::fmt::Display for QueryPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "query:    {}", self.pattern)?;
        writeln!(
            f,
            "automaton: {} positions{}",
            self.positions,
            if self.nullable {
                " (nullable: includes the diagonal)"
            } else {
                ""
            }
        )?;
        write!(f, "route:    {}\nstrategy: ", self.plan.route.name())?;
        match (self.plan.route, self.subject, self.object) {
            (EvalRoute::FastPath, ..) => writeln!(f, "fast path — §5 join specialization")?,
            (EvalRoute::Split, ..) => writeln!(
                f,
                "rare-label split at label {} — enumerate its edges, complete both sides",
                self.plan.split_label().unwrap_or(0)
            )?,
            (EvalRoute::Fallback, ..) => writeln!(
                f,
                "explicit-state fallback (expression beyond the word width), {}",
                match self.plan.direction {
                    Some(Direction::FromObject) => "backward traversal from the object",
                    _ => "forward walk from the subject side",
                }
            )?,
            (EvalRoute::BitParallel, Term::Var, Term::Const(o)) => {
                writeln!(f, "backward traversal from object {o}")?
            }
            (EvalRoute::BitParallel, Term::Const(s), Term::Var) => writeln!(
                f,
                "backward traversal of the reversed expression from subject {s}"
            )?,
            (EvalRoute::BitParallel, Term::Const(s), Term::Const(o)) => {
                let (from, rev) = match self.plan.direction {
                    Some(Direction::FromSubject) => (s, " (reversed expression)"),
                    _ => (o, ""),
                };
                writeln!(f, "existence check from node {from}{rev}")?
            }
            (EvalRoute::BitParallel, Term::Var, Term::Var) => writeln!(
                f,
                "two-pass: full-range pass collects {}, then per-anchor queries",
                match self.plan.direction {
                    Some(Direction::FromObject) => "targets",
                    _ => "sources",
                }
            )?,
        }
        writeln!(
            f,
            "first-expansion cost estimate: {} edges",
            self.plan.estimated_cost
        )?;
        if !self.label_cardinalities.is_empty() {
            writeln!(f, "label cardinalities (rarest first):")?;
            for (l, c) in &self.label_cardinalities {
                writeln!(f, "  label {l}: {c} edges")?;
            }
        }
        if !self.split_candidates.is_empty() {
            writeln!(
                f,
                "rare-label split available at label {} ({} edges)",
                self.split_candidates[0].0, self.split_candidates[0].1
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ring::ring::RingOptions;
    use ring::{Graph, Ring, Triple};

    fn ring() -> Ring {
        Ring::build(
            &Graph::from_triples(vec![
                Triple::new(0, 0, 1),
                Triple::new(1, 0, 2),
                Triple::new(2, 1, 3),
                Triple::new(3, 2, 0),
            ]),
            RingOptions::default(),
        )
    }

    use automata::Regex;

    fn star(l: u64) -> Regex {
        Regex::Star(Box::new(Regex::label(l)))
    }

    #[test]
    fn fast_path_detected() {
        let r = ring();
        let q = RpqQuery::new(Term::Var, Regex::label(0), Term::Var);
        let plan = explain(&r, &q).unwrap();
        assert_eq!(plan.plan.route, EvalRoute::FastPath);
        assert_eq!(plan.positions, 1);
        let text = plan.to_string();
        assert!(text.contains("fast path"), "{text}");
        assert!(plan.to_json().contains("\"route\":\"fastpath\""));
    }

    #[test]
    fn direction_choices() {
        let r = ring();
        let e = Regex::concat(star(0), Regex::label(1));
        let plan = explain(&r, &RpqQuery::new(Term::Var, e.clone(), Term::Const(3))).unwrap();
        assert_eq!(plan.plan.route, EvalRoute::BitParallel);
        assert_eq!(plan.plan.direction, Some(Direction::FromObject));
        assert!(plan
            .to_string()
            .contains("backward traversal from object 3"));
        let plan = explain(&r, &RpqQuery::new(Term::Const(0), e.clone(), Term::Var)).unwrap();
        assert_eq!(plan.plan.direction, Some(Direction::FromSubject));
        let plan = explain(&r, &RpqQuery::new(Term::Var, e.clone(), Term::Var)).unwrap();
        assert!(matches!(
            plan.plan.route,
            EvalRoute::BitParallel | EvalRoute::Split
        ));
        let plan = explain(&r, &RpqQuery::new(Term::Const(0), e, Term::Const(3))).unwrap();
        assert!(plan.to_string().contains("existence check"), "{plan}");
    }

    #[test]
    fn split_candidates_surface_rarest() {
        let r = ring();
        // a*/b/c*: b (label 1) is the only split point.
        let e = Regex::concat(Regex::concat(star(0), Regex::label(1)), star(2));
        let plan = explain(&r, &RpqQuery::new(Term::Var, e, Term::Var)).unwrap();
        assert_eq!(plan.split_candidates, vec![(1, 1)]);
        assert!(!plan.nullable);
        assert!(plan
            .to_string()
            .contains("rare-label split available at label 1"));
    }

    #[test]
    fn json_is_stable_and_complete() {
        let r = ring();
        let e = Regex::concat(Regex::concat(star(0), Regex::label(1)), star(2));
        let plan = explain(&r, &RpqQuery::new(Term::Var, e, Term::Var)).unwrap();
        let json = plan.to_json();
        // The textbook split query on this tiny ring: the planner's JSON
        // names every decision field.
        for key in [
            "\"pattern\":",
            "\"route\":",
            "\"direction\":",
            "\"split_label\":",
            "\"estimated_cost\":",
            "\"positions\":3",
            "\"nullable\":false",
        ] {
            assert!(json.contains(key), "{json} missing {key}");
        }
    }

    #[test]
    fn profile_json_is_stable() {
        use crate::profile::LevelSample;
        let p = QueryProfile {
            plan_us: 1,
            exec_us: 2,
            total_us: 3,
            compactions: 1,
            levels: vec![LevelSample {
                frontier: 4,
                rank_ops: 5,
                chunks: 0,
                parallel: false,
            }],
            queue_wait_us: None,
            compile_us: None,
            cache_hit: None,
        };
        assert_eq!(
            p.to_json(),
            "{\"plan_us\":1,\"exec_us\":2,\"total_us\":3,\"compactions\":1,\
             \"levels\":[{\"frontier\":4,\"rank_ops\":5,\"chunks\":0,\"parallel\":false}]}"
        );
        // Server-path keys appear exactly when filled, in fixed order.
        let p = QueryProfile {
            queue_wait_us: Some(7),
            compile_us: Some(0),
            cache_hit: Some(true),
            ..QueryProfile::default()
        };
        let json = p.to_json();
        assert!(
            json.ends_with("\"queue_wait_us\":7,\"compile_us\":0,\"cache_hit\":true}"),
            "{json}"
        );
    }

    #[test]
    fn errors_propagate() {
        let r = ring();
        let q = RpqQuery::new(Term::Const(99), Regex::label(0), Term::Var);
        assert!(matches!(
            explain(&r, &q),
            Err(QueryError::NodeOutOfRange(99))
        ));
    }
}
