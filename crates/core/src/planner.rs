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
//! | [`EvalRoute::BitParallel`] | the general §4 product-graph traversal, its state sets `⌈(m+1)/w⌉` words (§3.3) |
//! | [`EvalRoute::Split`] | variable-to-variable `E1/p/E2` with a rare `p`: enumerate the `p`-edges, complete both sides (§2/§6) |
//!
//! Costs are *first-expansion estimates* in edges, read off the ring's
//! wavelet matrices in `O(log)` time per label — the §4.3 range/degree
//! estimates: a predicate's cardinality is one `C_p` range length, the
//! edges into an anchor one backward-search step.

use ring::Id;

use crate::fastpath::Shape;
use crate::plan::{EvalRoute, PreparedQuery};
use crate::query::{EngineOptions, Term};
use crate::split::{Split, SplitPoint};
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

/// First-expansion cost of `E` (of `Ê` when `reversed`): the edges of
/// the labels whose `B[p]` intersects the accepting set — all of a
/// label's edges, or one backward-search range into `anchor` (the §4.3
/// range/degree estimate). Negated-class positions can fire on any
/// label, so they charge every edge (into the anchor).
fn expansion_cost(
    stats: &RingStatistics<'_>,
    prepared: &PreparedQuery,
    reversed: bool,
    anchor: Option<Id>,
) -> u64 {
    let into_anchor = anchor.map(|o| stats.edges_into_object(o));
    let cost = |label: Option<Id>| match (label, anchor) {
        (Some(p), None) => stats.pred_cardinality(p),
        (None, None) => stats.n_triples(),
        (Some(p), Some(_)) => into_anchor.as_ref().map_or(0, |edges| edges(p)),
        (None, Some(o)) => stats.in_degree(o),
    };
    prepared
        .tables()
        .first_step_cost(reversed, |label| cost(label) as u64)
}

/// Whether `route` can evaluate this `(prepared, endpoints)` pair at
/// all on the given ring. Forcing an infeasible route falls back to the
/// natural choice. (The split route needs the ring: a candidate whose
/// label is outside the live alphabet is not executable, exactly the
/// filter [`crate::split::best_split_with`] applies.)
pub fn route_is_feasible(
    stats: &RingStatistics<'_>,
    route: EvalRoute,
    prepared: &PreparedQuery,
    subject: Term,
    object: Term,
) -> bool {
    let split_point = split_choice(stats, prepared, subject, object);
    feasible(route, prepared, split_point.is_some())
}

/// [`route_is_feasible`], given whether the split route has a split.
fn feasible(route: EvalRoute, prepared: &PreparedQuery, splits: bool) -> bool {
    match route {
        EvalRoute::FastPath => !matches!(prepared.shape(), Shape::Other),
        EvalRoute::BitParallel => true,
        EvalRoute::Split => splits,
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
    // Find the split point once; every later consumer — route
    // feasibility, the cost comparison, the emitted plan — shares this
    // one choice, so a Split route always carries its executable split.
    let split_point = split_choice(stats, prepared, subject, object);
    let forced = opts
        .forced_route
        .filter(|&r| feasible(r, prepared, split_point.is_some()));
    // The driving end is costed at most once: a split is weighed
    // against it, and the bit-parallel route runs from it.
    let mut driving = None;
    let route = match (forced, split_point) {
        (Some(forced), _) => forced,
        _ if !matches!(prepared.shape(), Shape::Other) => EvalRoute::FastPath,
        (None, Some(point)) => {
            let end = driving_end(stats, prepared, subject, object);
            let split_wins = split_cost(stats, point.label) < end.1;
            driving = Some(end);
            if split_wins {
                EvalRoute::Split
            } else {
                EvalRoute::BitParallel
            }
        }
        (None, None) => EvalRoute::BitParallel,
    };
    match route {
        // The fast paths are per-shape join algorithms and the split
        // route is driven from the split label's edges — neither has an
        // endpoint-direction choice.
        EvalRoute::FastPath => Plan {
            route,
            direction: None,
            split: None,
            estimated_cost: fast_path_cost(stats, prepared.shape()),
        },
        EvalRoute::Split => {
            let point = split_point.expect("the split route is feasible");
            Plan {
                route,
                direction: None,
                split: Some(point.split(prepared.expr())),
                estimated_cost: split_cost(stats, point.label),
            }
        }
        EvalRoute::BitParallel => {
            let (direction, estimated_cost) =
                driving.unwrap_or_else(|| driving_end(stats, prepared, subject, object));
            Plan {
                route,
                direction: Some(direction),
                split: None,
                estimated_cost,
            }
        }
    }
}

/// Where the split route would split, if it is available at all:
/// variable-to-variable endpoints and a rarest in-range plain-label
/// factor — the filter [`crate::split::best_split_with`] applies, so
/// feasibility and execution can never disagree.
fn split_choice(
    stats: &RingStatistics<'_>,
    prepared: &PreparedQuery,
    subject: Term,
    object: Term,
) -> Option<SplitPoint> {
    if !matches!((subject, object), (Term::Var, Term::Var)) {
        return None;
    }
    SplitPoint::rarest(stats, prepared.expr())
}

/// What the split route's first expansion is charged: the split label's
/// edges, each worth [`SPLIT_COST_FACTOR`] wavelet steps.
fn split_cost(stats: &RingStatistics<'_>, label: Id) -> u64 {
    (stats.pred_cardinality(label) as u64).saturating_mul(SPLIT_COST_FACTOR)
}

/// The end the bit-parallel traversal is driven from, and its
/// first-expansion cost: `E` backward from the object (over the full
/// range when it is a variable), or `Ê` from the subject.
fn driving_end(
    stats: &RingStatistics<'_>,
    prepared: &PreparedQuery,
    subject: Term,
    object: Term,
) -> (Direction, u64) {
    let anchor = |t| match t {
        Term::Const(c) => Some(c),
        Term::Var => None,
    };
    let from_object = || expansion_cost(stats, prepared, false, anchor(object));
    let from_subject = || expansion_cost(stats, prepared, true, anchor(subject));
    match (subject, object) {
        // Anchored queries have one sensible driving end.
        (Term::Var, Term::Const(_)) => (Direction::FromObject, from_object()),
        (Term::Const(_), Term::Var) => (Direction::FromSubject, from_subject()),
        // Existence check: start from whichever endpoint admits the
        // cheaper first expansion (§4.3 / §5).
        (Term::Const(_), Term::Const(_)) => match (from_object(), from_subject()) {
            (o, s) if o <= s => (Direction::FromObject, o),
            (_, s) => (Direction::FromSubject, s),
        },
        // §4.4 two-pass: pass 1 runs `E` from the full range, collecting
        // sources first, when its predicates have the smaller total
        // cardinality.
        (Term::Var, Term::Var) => match (from_object(), from_subject()) {
            (e, r) if e <= r => (Direction::FromSubject, e),
            (_, r) => (Direction::FromObject, r),
        },
    }
}

/// The first-expansion cost of a §5 shape.
fn fast_path_cost(stats: &RingStatistics<'_>, shape: &Shape) -> u64 {
    match shape {
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

    /// `l0*/…/l0*` with `k` factors: `k` positions, no split point.
    fn star_chain(k: usize) -> Regex {
        (1..k).fold(star(0), |e, _| Regex::concat(e, star(0)))
    }

    #[test]
    fn oversized_expressions_run_bit_parallel_or_split() {
        // A 71-position chain needs two mask words but plans like any
        // other expression: the bit-parallel route, with a direction.
        let r = ring();
        let stats = RingStatistics::new(&r);
        let e = star_chain(71);
        let p = prepared(&r, &e);
        assert!(matches!(p.tables(), crate::plan::Tables::Two(_)));
        let plan = plan(&stats, &p, Term::Var, Term::Var, &EngineOptions::default());
        assert_eq!(plan.route, EvalRoute::BitParallel);
        assert!(plan.direction.is_some());
        // The same monster with a mandatory rare factor splits instead.
        let e = Regex::concat(Regex::concat(e, Regex::label(1)), star(2));
        let p = prepared(&r, &e);
        let plan = super::plan(&stats, &p, Term::Var, Term::Var, &EngineOptions::default());
        assert_eq!(plan.route, EvalRoute::Split);
        assert_eq!(plan.split_label(), Some(1));
    }

    #[test]
    fn out_of_alphabet_split_labels_never_plan_a_split() {
        // An expression whose only literal factor lies outside the ring's
        // alphabet (and fires on neither end) has split *candidates* —
        // but no executable split. The planner must not emit route=Split
        // with split=None (it once did, panicking the engine's dispatch).
        // A two-word expression plans like a one-word one.
        let r = ring();
        let stats = RingStatistics::new(&r);
        let plus = |l| Regex::Plus(Box::new(Regex::label(l)));
        for k in [1, 70] {
            let rare = Regex::concat(Regex::concat(plus(0), Regex::label(99)), plus(2));
            let e = Regex::concat(star_chain(k), rare);
            let p = prepared(&r, &e);
            assert!(!crate::split::split_candidates(p.expr()).is_empty());
            for opts in [
                EngineOptions::default(),
                EngineOptions {
                    forced_route: Some(EvalRoute::Split),
                    ..EngineOptions::default()
                },
            ] {
                let plan = plan(&stats, &p, Term::Var, Term::Var, &opts);
                assert_eq!(plan.route, EvalRoute::BitParallel, "{k} factors");
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
    }
}
