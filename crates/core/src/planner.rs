//! The cost-based query planner — the single decision point every
//! evaluation and introspection layer consults.
//!
//! The paper's §6 observes that the wavelet trees "provide on-the-fly
//! selectivity statistics, which can be used for even more sophisticated
//! query planning"; §4.3/§5 pick traversal directions by the smallest
//! first-expansion cardinality; §2 describes rare-label splitting
//! (Koschmieder & Leser). Historically those ideas lived in three
//! disconnected places — the engine's inline route choices, `explain`'s
//! parallel re-derivation, and a `split` module no evaluation path ever
//! reached. This module collapses them: [`plan`] consumes a compiled
//! [`PreparedQuery`], the query's endpoints and [`RingStatistics`], and
//! emits one [`Plan`] that *every* layer executes or renders:
//!
//! * [`RpqEngine::evaluate_prepared`](crate::RpqEngine::evaluate_prepared)
//!   dispatches on `Plan::route` and honors `Plan::direction`;
//! * [`explain`](crate::explain) renders the identical `Plan`, so the
//!   explained strategy can never diverge from the executed one;
//! * a serving layer keys its per-route metrics on the `Plan` recorded
//!   in [`QueryOutput::plan`](crate::QueryOutput::plan).
//!
//! ## The route lattice
//!
//! | Route | When it wins |
//! |---|---|
//! | [`EvalRoute::FastPath`] | §5 shapes (single label, disjunction, 2-step concat): plain backward search beats the automaton |
//! | [`EvalRoute::BitParallel`] | the general §4 product-graph traversal, `m ≤ w` positions |
//! | [`EvalRoute::Split`] | variable-to-variable `E1/p/E2` with a rare `p`: enumerate the `p`-edges, complete both sides (§2/§6) |
//! | [`EvalRoute::Fallback`] | `m > w` positions: explicit-state BFS (§3.3's multi-word regime) |
//!
//! Costs are *first-expansion estimates* in edges, read off the ring's
//! wavelet matrices in `O(log)` time per label — the §4.3 range/degree
//! estimates: a predicate's cardinality is one `C_p` range length, the
//! edges into an anchor one backward-search step.

use automata::BitParallel;
use ring::Id;

use crate::fastpath::Shape;
use crate::plan::{EvalRoute, PreparedQuery};
use crate::query::{EngineOptions, Term};
use crate::split::{best_split_with, Split};
use crate::stats::RingStatistics;

/// Which endpoint drives the traversal (meaningful for the routes that
/// have a direction choice; `None` in [`Plan::direction`] otherwise).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Driven from the subject side: the reversed expression `Ê` is
    /// traversed backward from the subject constant (anchored queries),
    /// or pass 1 of §4.4's two-pass strategy collects *sources* first
    /// (variable-to-variable).
    FromSubject,
    /// Driven from the object side: the expression `E` is traversed
    /// backward from the object constant, or pass 1 collects *targets*
    /// first.
    FromObject,
}

impl Direction {
    /// Stable lowercase name (used in metrics and the JSON explain
    /// output).
    pub fn name(self) -> &'static str {
        match self {
            Direction::FromSubject => "from_subject",
            Direction::FromObject => "from_object",
        }
    }
}

/// The planner's decision for one `(query, endpoints, ring)` triple:
/// the route, the traversal direction, the chosen rare-label split (on
/// the split route) and the first-expansion cost estimate that backed
/// the choice.
#[derive(Clone, Debug)]
pub struct Plan {
    /// The evaluation route.
    pub route: EvalRoute,
    /// Traversal direction, where the route has a choice (`None` for the
    /// fast paths and the split route, which are driven per-shape /
    /// from the split label's edges).
    pub direction: Option<Direction>,
    /// The chosen rare-label split; present iff `route` is
    /// [`EvalRoute::Split`].
    pub split: Option<Split>,
    /// Estimated first-expansion cost of the chosen route, in edges.
    pub estimated_cost: u64,
    /// Threads the executed route may fan frontier work across: the
    /// caller's [`EngineOptions::intra_query_threads`] when the
    /// estimated cost clears
    /// [`EngineOptions::parallel_min_frontier`], else 1 — small queries
    /// never pay fan-out overhead. Purely advisory above 1: the runtime
    /// additionally gates each BFS level on its actual frontier size
    /// and on the process-wide worker-token pool.
    pub intra_query_threads: usize,
}

impl Plan {
    /// The split label, when this is a split plan (convenience for
    /// renderers and metrics).
    pub fn split_label(&self) -> Option<Id> {
        self.split.as_ref().map(|s| s.label)
    }

    /// How far off [`Self::estimated_cost`] was from what evaluation
    /// actually visited, as a ratio ×1000: `(actual + 1) * 1000 /
    /// (estimated + 1)`. 1000 is a perfect estimate; above it the
    /// planner underestimated, below it overestimated. The +1 smoothing
    /// keeps zero estimates and zero-node runs finite and symmetric.
    pub fn misprediction_x1000(&self, actual: u64) -> u64 {
        (actual + 1).saturating_mul(1000) / (self.estimated_cost + 1)
    }
}

/// A split must undercut the alternative's first expansion by this
/// factor before the planner picks it: enumerating each rare edge costs
/// two anchored sub-queries, not one wavelet step.
const SPLIT_COST_FACTOR: u64 = 8;

/// Σ of cardinalities of the predicates that can fire on the *first*
/// backward expansion: labels whose `B[p]` intersects the accepting
/// set. Negated-class positions can fire on any label, so they charge
/// the whole triple count.
pub fn first_expansion_cost(stats: &RingStatistics<'_>, bp: &BitParallel) -> u64 {
    let accept = bp.accept_mask();
    let mut cost: u64 = 0;
    for &(label, mask) in bp.positive_label_masks() {
        if mask & accept != 0 {
            cost += stats.pred_cardinality(label) as u64;
        }
    }
    for (bit, _) in bp.negated_positions() {
        if bit & accept != 0 {
            cost += stats.n_triples() as u64;
        }
    }
    cost
}

/// First-expansion cost anchored at `anchor`: edges into the anchor
/// whose label can fire on the first backward step — one backward-search
/// range per label (the §4.3 range/degree estimate).
pub fn anchored_expansion_cost(stats: &RingStatistics<'_>, bp: &BitParallel, anchor: Id) -> u64 {
    let accept = bp.accept_mask();
    let mut cost: u64 = 0;
    for &(label, mask) in bp.positive_label_masks() {
        if mask & accept != 0 {
            cost += stats.edges_into(label, anchor) as u64;
        }
    }
    for (bit, _) in bp.negated_positions() {
        if bit & accept != 0 {
            cost += stats.in_degree(anchor) as u64;
        }
    }
    cost
}

/// Whether `route` can evaluate this `(prepared, endpoints)` pair at
/// all on the given ring. Forcing an infeasible route falls back to the
/// natural choice. (The split route needs the ring: a candidate whose
/// label is outside the live alphabet is not executable, exactly the
/// filter [`best_split_with`] applies.)
pub fn route_is_feasible(
    stats: &RingStatistics<'_>,
    route: EvalRoute,
    prepared: &PreparedQuery,
    subject: Term,
    object: Term,
) -> bool {
    match route {
        EvalRoute::FastPath => !matches!(prepared.shape(), Shape::Other),
        EvalRoute::BitParallel => !prepared.uses_fallback(),
        EvalRoute::Fallback => true,
        EvalRoute::Split => split_choice(stats, prepared, subject, object).is_some(),
    }
}

/// Plans one query: the single planning brain shared by
/// [`RpqEngine::evaluate_prepared`](crate::RpqEngine::evaluate_prepared),
/// [`explain`](crate::explain::explain) and (through them) the serving
/// layer. Deterministic: the same `(ring, prepared, endpoints, opts)`
/// always yields the same plan.
pub fn plan(
    stats: &RingStatistics<'_>,
    prepared: &PreparedQuery,
    subject: Term,
    object: Term,
    opts: &EngineOptions,
) -> Plan {
    // Enumerate the split candidates once; every later consumer — route
    // feasibility, the cost comparison, the emitted plan — shares this
    // one choice, so a Split route always carries its executable split.
    let split_choice = split_choice(stats, prepared, subject, object);
    let route = choose_route(stats, prepared, opts, split_choice.as_ref());
    let split = match route {
        EvalRoute::Split => split_choice,
        _ => None,
    };
    let direction = choose_direction(stats, prepared, subject, object, route);
    let estimated_cost = estimate_cost(stats, prepared, subject, object, route, split.as_ref());
    let intra_query_threads =
        if opts.intra_query_threads > 1 && estimated_cost >= opts.parallel_min_frontier as u64 {
            opts.intra_query_threads
        } else {
            1
        };
    Plan {
        route,
        direction,
        split,
        estimated_cost,
        intra_query_threads,
    }
}

/// The split the split route would execute, if the route is available
/// at all: variable-to-variable endpoints and a best (rarest, in-range)
/// split point — the same filter [`best_split_with`] applies, so feasibility
/// and execution can never disagree.
fn split_choice(
    stats: &RingStatistics<'_>,
    prepared: &PreparedQuery,
    subject: Term,
    object: Term,
) -> Option<Split> {
    if !matches!((subject, object), (Term::Var, Term::Var)) {
        return None;
    }
    best_split_with(stats, prepared.expr())
}

fn choose_route(
    stats: &RingStatistics<'_>,
    prepared: &PreparedQuery,
    opts: &EngineOptions,
    split_choice: Option<&Split>,
) -> EvalRoute {
    if let Some(forced) = opts.forced_route {
        let feasible = match forced {
            EvalRoute::FastPath => !matches!(prepared.shape(), Shape::Other),
            EvalRoute::BitParallel => !prepared.uses_fallback(),
            EvalRoute::Fallback => true,
            EvalRoute::Split => split_choice.is_some(),
        };
        if feasible {
            return forced;
        }
    }
    if !matches!(prepared.shape(), Shape::Other) {
        return EvalRoute::FastPath;
    }
    if prepared.uses_fallback() {
        // A variable-to-variable fallback run is a per-source scan of the
        // whole graph; completing each side of a split from its anchored
        // endpoints is strictly more focused whenever a split exists.
        return if split_choice.is_some() {
            EvalRoute::Split
        } else {
            EvalRoute::Fallback
        };
    }
    if let Some(split) = split_choice {
        let split_cost =
            (stats.pred_cardinality(split.label) as u64).saturating_mul(SPLIT_COST_FACTOR);
        if let Some((bp, bp_rev)) = prepared.tables() {
            let two_pass = first_expansion_cost(stats, bp).min(first_expansion_cost(stats, bp_rev));
            if split_cost < two_pass {
                return EvalRoute::Split;
            }
        }
    }
    EvalRoute::BitParallel
}

fn choose_direction(
    stats: &RingStatistics<'_>,
    prepared: &PreparedQuery,
    subject: Term,
    object: Term,
    route: EvalRoute,
) -> Option<Direction> {
    match route {
        // The fast paths are per-shape join algorithms and the split
        // route is driven from the split label's edges — neither has an
        // endpoint-direction choice.
        EvalRoute::FastPath | EvalRoute::Split => None,
        // The explicit-state fallback always walks forward along `E`:
        // from the subject constant when there is one, per source
        // otherwise; only a `(x, E, o)` query flips to the reversed
        // expression from the object.
        EvalRoute::Fallback => Some(match (subject, object) {
            (Term::Var, Term::Const(_)) => Direction::FromObject,
            _ => Direction::FromSubject,
        }),
        EvalRoute::BitParallel => {
            let (bp, bp_rev) = prepared.tables()?;
            Some(match (subject, object) {
                // Anchored queries have one sensible driving end.
                (Term::Var, Term::Const(_)) => Direction::FromObject,
                (Term::Const(_), Term::Var) => Direction::FromSubject,
                // Existence check: start from whichever endpoint admits
                // the cheaper first expansion (§4.3 / §5).
                (Term::Const(s), Term::Const(o)) => {
                    if anchored_expansion_cost(stats, bp, o)
                        <= anchored_expansion_cost(stats, bp_rev, s)
                    {
                        Direction::FromObject
                    } else {
                        Direction::FromSubject
                    }
                }
                // §4.4 two-pass: collect whichever end's predicates have
                // the smaller total cardinality first.
                (Term::Var, Term::Var) => {
                    if first_expansion_cost(stats, bp) <= first_expansion_cost(stats, bp_rev) {
                        Direction::FromSubject
                    } else {
                        Direction::FromObject
                    }
                }
            })
        }
    }
}

fn estimate_cost(
    stats: &RingStatistics<'_>,
    prepared: &PreparedQuery,
    subject: Term,
    object: Term,
    route: EvalRoute,
    split: Option<&Split>,
) -> u64 {
    match route {
        EvalRoute::FastPath => match prepared.shape() {
            Shape::Single(p) => stats.pred_cardinality(*p) as u64,
            Shape::Disjunction(ps) => ps
                .iter()
                .map(|&p| stats.pred_cardinality(p) as u64)
                .sum::<u64>(),
            // The intersection of targets(p1) and sources(p2) is bounded
            // by the smaller side.
            Shape::Concat2(p1, p2) => {
                (stats.pred_cardinality(*p1).min(stats.pred_cardinality(*p2))) as u64
            }
            Shape::Other => 0,
        },
        EvalRoute::Split => split
            .map(|s| (stats.pred_cardinality(s.label) as u64).saturating_mul(SPLIT_COST_FACTOR))
            .unwrap_or(0),
        // The explicit-state fallback reads whole per-label adjacency
        // ranges; the triple count is the honest coarse bound.
        EvalRoute::Fallback => stats.n_triples() as u64,
        EvalRoute::BitParallel => {
            let Some((bp, bp_rev)) = prepared.tables() else {
                return stats.n_triples() as u64;
            };
            match (subject, object) {
                (Term::Var, Term::Const(o)) => anchored_expansion_cost(stats, bp, o),
                (Term::Const(s), Term::Var) => anchored_expansion_cost(stats, bp_rev, s),
                (Term::Const(s), Term::Const(o)) => anchored_expansion_cost(stats, bp, o)
                    .min(anchored_expansion_cost(stats, bp_rev, s)),
                (Term::Var, Term::Var) => {
                    first_expansion_cost(stats, bp).min(first_expansion_cost(stats, bp_rev))
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use automata::Regex;
    use ring::ring::RingOptions;
    use ring::{Graph, Ring, Triple};

    fn ring() -> Ring {
        // Many a- and c-edges, one rare b-edge: the textbook split case
        // (the a/c sides must outweigh the split factor × 1 b-edge).
        let mut triples = vec![Triple::new(2, 1, 3)];
        for i in 0..12 {
            triples.push(Triple::new(i, 0, (i + 1) % 16));
            triples.push(Triple::new(i + 2, 2, (i + 3) % 16));
        }
        Ring::build(&Graph::from_triples(triples), RingOptions::default())
    }

    fn star(l: u64) -> Regex {
        Regex::Star(Box::new(Regex::label(l)))
    }

    fn prepared(ring: &Ring, e: &Regex) -> PreparedQuery {
        PreparedQuery::compile(e, &|l| ring.inverse_label(l), 8).unwrap()
    }

    #[test]
    fn fast_path_and_toggle() {
        let r = ring();
        let stats = RingStatistics::new(&r);
        let p = prepared(&r, &Regex::label(0));
        let opts = EngineOptions::default();
        let plan = plan(&stats, &p, Term::Var, Term::Var, &opts);
        assert_eq!(plan.route, EvalRoute::FastPath);
        assert_eq!(plan.direction, None);
        let opts = EngineOptions {
            forced_route: Some(EvalRoute::BitParallel),
            ..opts
        };
        let plan = super::plan(&stats, &p, Term::Var, Term::Var, &opts);
        assert_eq!(plan.route, EvalRoute::BitParallel);
    }

    #[test]
    fn rare_label_split_is_chosen_and_costed() {
        let r = ring();
        let stats = RingStatistics::new(&r);
        // a*/b/c*: b has 1 edge against 12 a/c edges → split wins.
        let e = Regex::concat(Regex::concat(star(0), Regex::label(1)), star(2));
        let p = prepared(&r, &e);
        let plan = plan(&stats, &p, Term::Var, Term::Var, &EngineOptions::default());
        assert_eq!(plan.route, EvalRoute::Split);
        assert_eq!(plan.split_label(), Some(1));
        assert_eq!(plan.estimated_cost, SPLIT_COST_FACTOR);
        // Anchoring either endpoint rules the split route out.
        let plan = super::plan(
            &stats,
            &p,
            Term::Const(0),
            Term::Var,
            &EngineOptions::default(),
        );
        assert_eq!(plan.route, EvalRoute::BitParallel);
        assert_eq!(plan.direction, Some(Direction::FromSubject));
        assert!(plan.split.is_none());
    }

    #[test]
    fn forcing_wins_when_feasible_only() {
        let r = ring();
        let stats = RingStatistics::new(&r);
        let p = prepared(&r, &star(0));
        for (forced, expect) in [
            // star is not a fast-path shape: forcing falls back.
            (EvalRoute::FastPath, EvalRoute::BitParallel),
            (EvalRoute::Fallback, EvalRoute::Fallback),
            (EvalRoute::BitParallel, EvalRoute::BitParallel),
            // a* has no split point either.
            (EvalRoute::Split, EvalRoute::BitParallel),
        ] {
            let opts = EngineOptions {
                forced_route: Some(forced),
                ..EngineOptions::default()
            };
            assert_eq!(
                plan(&stats, &p, Term::Var, Term::Var, &opts).route,
                expect,
                "forcing {forced:?}"
            );
        }
    }

    #[test]
    fn out_of_alphabet_split_labels_never_plan_a_split() {
        // An oversized expression whose only literal factor lies outside
        // the ring's alphabet compiles (the fallback regime never builds
        // the reversed tables, so the label involution is not consulted)
        // and has split *candidates* — but no executable split. The
        // planner must not emit route=Split with split=None (it used to,
        // panicking the engine's dispatch).
        let r = ring();
        let stats = RingStatistics::new(&r);
        let mut big = star(0);
        for _ in 0..70 {
            big = Regex::concat(big, star(0));
        }
        let e = Regex::concat(big, Regex::label(99));
        let p = prepared(&r, &e);
        assert!(p.uses_fallback());
        assert!(!crate::split::split_candidates(p.expr()).is_empty());
        for opts in [
            EngineOptions::default(),
            EngineOptions {
                forced_route: Some(EvalRoute::Split),
                ..EngineOptions::default()
            },
        ] {
            let plan = plan(&stats, &p, Term::Var, Term::Var, &opts);
            assert_eq!(plan.route, EvalRoute::Fallback);
            assert!(plan.split.is_none());
        }
        assert!(!route_is_feasible(
            &stats,
            EvalRoute::Split,
            &p,
            Term::Var,
            Term::Var
        ));
    }

    #[test]
    fn oversized_expressions_route_to_fallback_or_split() {
        let r = ring();
        let stats = RingStatistics::new(&r);
        let mut e = star(0);
        for _ in 0..70 {
            e = Regex::concat(e, star(0));
        }
        let p = prepared(&r, &e);
        assert!(p.uses_fallback());
        let plan = plan(&stats, &p, Term::Var, Term::Var, &EngineOptions::default());
        assert_eq!(plan.route, EvalRoute::Fallback);
        assert_eq!(plan.direction, Some(Direction::FromSubject));
        // The same monster with a mandatory rare factor splits instead.
        let e = Regex::concat(Regex::concat(e, Regex::label(1)), star(2));
        let p = prepared(&r, &e);
        assert!(p.uses_fallback());
        let plan = super::plan(&stats, &p, Term::Var, Term::Var, &EngineOptions::default());
        assert_eq!(plan.route, EvalRoute::Split);
        assert_eq!(plan.split_label(), Some(1));
    }
}
