//! End-to-end tests of the ring engine on the paper's metro graph
//! (Figs. 1, 5–7), cross-checked against the naive oracle.

use automata::parser::{self, NumericResolver};
use automata::Regex;
use ring::ring::RingOptions;
use ring::{Graph, Id, Ring, Triple};
use rpq_core::oracle::evaluate_naive;
use rpq_core::{EngineOptions, EvalRoute, RpqEngine, RpqQuery, Term};

// Nodes: SA=0, UCh=1, LH=2, BA=3, Baq=4.
// Base predicates: l1=0, l2=1, l5=2, bus=3 (inverses get +4).
const SA: Id = 0;
const UCH: Id = 1;
const BA: Id = 3;
const BAQ: Id = 4;

/// The base metro graph of Fig. 1 (metro lines as explicit edge pairs,
/// three one-way bus edges).
fn metro() -> Graph {
    let t = |s, p, o| Triple::new(s, p, o);
    Graph::from_triples(vec![
        t(BAQ, 0, UCH),
        t(UCH, 0, BAQ),
        t(UCH, 0, 2),
        t(2, 0, UCH),
        t(2, 1, SA),
        t(SA, 1, 2),
        t(SA, 2, BA),
        t(BA, 2, SA),
        t(BA, 2, BAQ),
        t(BAQ, 2, BA),
        t(SA, 3, UCH),
        t(UCH, 3, BA),
        t(BA, 3, SA),
    ])
}

fn metro_ring() -> Ring {
    Ring::build(&metro(), RingOptions::default())
}

fn expr(s: &str) -> Regex {
    // Base alphabet has 4 predicates; inverses are 4..8.
    parser::parse(s, &NumericResolver { n_base: 4 }).unwrap()
}

fn run(q: &RpqQuery, opts: &EngineOptions) -> Vec<(Id, Id)> {
    let ring = metro_ring();
    let mut engine = RpqEngine::new(&ring);
    let out = engine.evaluate(q, opts).unwrap();
    assert!(!out.truncated && !out.timed_out);
    out.sorted_pairs()
}

fn check_against_oracle(q: &RpqQuery) {
    let expected = evaluate_naive(&metro(), q);
    for forced_route in [None, Some(EvalRoute::BitParallel)] {
        let opts = EngineOptions {
            forced_route,
            ..EngineOptions::default()
        };
        assert_eq!(
            run(q, &opts),
            expected,
            "engine (forced_route={forced_route:?}) disagrees with oracle on {q:?}"
        );
    }
}

/// The §4 worked example: (Baq, l5+/bus, y) answers {SA, UCh} —
/// the two stations reported in the Fig. 6 trace.
#[test]
fn paper_example_baq_l5plus_bus() {
    let q = RpqQuery::new(Term::Const(BAQ), expr("2+/3"), Term::Var);
    let got = run(&q, &EngineOptions::default());
    assert_eq!(got, vec![(BAQ, SA), (BAQ, UCH)]);
    check_against_oracle(&q);
}

/// The introduction's example: (Baq, (l1|l2|l5)+, y) — everything on the
/// metro network is reachable from Baquedano.
#[test]
fn intro_example_metro_closure() {
    let q = RpqQuery::new(Term::Const(BAQ), expr("(0|1|2)+"), Term::Var);
    let got = run(&q, &EngineOptions::default());
    assert_eq!(got, vec![(BAQ, 0), (BAQ, 1), (BAQ, 2), (BAQ, 3), (BAQ, 4)]);
    check_against_oracle(&q);
}

#[test]
fn all_shapes_match_oracle() {
    let exprs = [
        "0", "^3", "0|2", "2/3", "2+", "2*", "3/2*", "(0|1|2)+", "2?/3", "^(2/3)", "1/^1",
        "!(0|1)", "(2|^3)+", "0*/1/2*", "3+", "2/2/2",
    ];
    let terms = [
        (Term::Var, Term::Var),
        (Term::Const(BAQ), Term::Var),
        (Term::Var, Term::Const(SA)),
        (Term::Const(BAQ), Term::Const(UCH)),
        (Term::Const(SA), Term::Const(SA)),
    ];
    for e in exprs {
        for (s, o) in terms {
            check_against_oracle(&RpqQuery::new(s, expr(e), o));
        }
    }
}

/// The full Fig. 6 trace, level by level. The engine rewrites
/// (Baq, l5+/bus, y) to the reversed ^bus/^l5*/^l5 (the paper keeps l5
/// un-inverted because the metro lines are symmetric; the completed graph
/// makes both traces isomorphic). The product-graph visits must be, BFS
/// level by BFS level: BA{1,2}; then SA{1,2}, Baq{1,2} and SA{0}→report;
/// then UCh{0}→report — exactly the five bold nodes of Fig. 7. The figure
/// fixes which visits a level holds, not their order inside it: the
/// sequence is asserted where a level is one visit, the set where it is
/// three.
#[test]
fn fig6_exact_product_graph_trace() {
    let ring = metro_ring();
    let mut engine = RpqEngine::new(&ring);
    let q = RpqQuery::new(Term::Const(BAQ), expr("2+/3"), Term::Var);
    let opts = EngineOptions {
        forced_route: Some(EvalRoute::BitParallel),
        collect_trace: true,
        ..EngineOptions::default()
    };
    let out = engine.evaluate(&q, &opts).unwrap();
    // Our reversed automaton is ^bus/(^l5)+ with ONE l5 position (the
    // paper expands E+ to E*/E, yielding two); masks therefore differ by
    // that merged state: the paper's D = 0110 (both l5 states) is our
    // {1,2} = 0b110 on first arrival and {1} = 0b010 at Baq, whose start
    // marking already covers the accepting l5 state.
    let first_arrival = 0b110;
    let baq_fresh = 0b010;
    let initial = 0b001;
    assert_eq!(out.trace.len(), 5, "Fig. 7 has five bold nodes");
    assert_eq!(out.trace[0], (BA, first_arrival), "level one");
    let mut level_two = out.trace[1..4].to_vec();
    level_two.sort_unstable();
    assert_eq!(
        level_two,
        vec![(SA, initial), (SA, first_arrival), (BAQ, baq_fresh)],
        "level two, as a set"
    );
    assert_eq!(out.trace[4], (UCH, initial), "level three");
    assert_eq!(out.sorted_pairs(), vec![(BAQ, SA), (BAQ, UCH)]);
}

#[test]
fn nullable_var_var_includes_diagonal() {
    let q = RpqQuery::new(Term::Var, expr("3*"), Term::Var);
    let got = run(&q, &EngineOptions::default());
    for v in 0..5 {
        assert!(got.contains(&(v, v)), "missing ({v}, {v})");
    }
    check_against_oracle(&q);
}

#[test]
fn limit_truncates() {
    let ring = metro_ring();
    let mut engine = RpqEngine::new(&ring);
    let q = RpqQuery::new(Term::Var, expr("(0|1|2)+"), Term::Var);
    let opts = EngineOptions {
        limit: 3,
        ..EngineOptions::default()
    };
    let out = engine.evaluate(&q, &opts).unwrap();
    assert!(out.truncated);
    assert!(out.pairs.len() <= 3);
}

#[test]
fn stats_are_populated() {
    let ring = metro_ring();
    let mut engine = RpqEngine::new(&ring);
    let q = RpqQuery::new(Term::Const(BAQ), expr("2+/3"), Term::Var);
    let opts = EngineOptions {
        forced_route: Some(EvalRoute::BitParallel),
        ..EngineOptions::default()
    };
    let out = engine.evaluate(&q, &opts).unwrap();
    assert!(out.stats.product_nodes > 0);
    assert!(out.stats.product_edges > 0);
    assert!(out.stats.wavelet_nodes > 0);
    assert_eq!(out.stats.reported, 2);
    assert!(engine.working_space_bytes() > 0);
}

#[test]
fn errors_are_typed() {
    let ring = metro_ring();
    let mut engine = RpqEngine::new(&ring);
    // Node out of range.
    let q = RpqQuery::new(Term::Const(99), expr("0"), Term::Var);
    assert!(matches!(
        engine.evaluate(&q, &EngineOptions::default()),
        Err(rpq_core::QueryError::NodeOutOfRange(99))
    ));
    // Ring without inverses.
    let no_inv = Ring::build(
        &metro(),
        RingOptions {
            with_inverses: false,
            ..RingOptions::default()
        },
    );
    let mut engine2 = RpqEngine::new(&no_inv);
    let q = RpqQuery::new(Term::Var, expr("0"), Term::Var);
    assert!(matches!(
        engine2.evaluate(&q, &EngineOptions::default()),
        Err(rpq_core::QueryError::InversesRequired)
    ));
    // Oversized expressions (> 63 positions) evaluate through the
    // explicit-state fallback rather than erroring.
    let mut big = String::from("0");
    for _ in 0..70 {
        big.push_str("/0");
    }
    let q = RpqQuery::new(Term::Var, expr(&big), Term::Const(SA));
    let out = engine2_or(&metro_ring(), &q).unwrap();
    assert_eq!(
        out.sorted_pairs(),
        rpq_core::oracle::evaluate_naive(&metro(), &q)
    );
}

fn engine2_or(ring: &Ring, q: &RpqQuery) -> Result<rpq_core::QueryOutput, rpq_core::QueryError> {
    RpqEngine::new(ring).evaluate(q, &EngineOptions::default())
}

#[test]
fn engine_reuse_across_queries() {
    // One engine, many queries: the epoch reset must isolate them.
    let ring = metro_ring();
    let mut engine = RpqEngine::new(&ring);
    let opts = EngineOptions::default();
    for _ in 0..3 {
        for e in ["2+/3", "0", "(0|1|2)+"] {
            for anchor in [SA, UCH, BA, BAQ] {
                let q = RpqQuery::new(Term::Const(anchor), expr(e), Term::Var);
                let got = engine.evaluate(&q, &opts).unwrap().sorted_pairs();
                assert_eq!(got, evaluate_naive(&metro(), &q), "expr {e} from {anchor}");
            }
        }
    }
}
