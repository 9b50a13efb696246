//! The central correctness property of the reproduction: on arbitrary
//! graphs and arbitrary 2RPQs, the ring engine (all option combinations)
//! agrees exactly with the naive product-graph oracle.

use automata::ast::{Lit, Regex};
use proptest::prelude::*;
use ring::ring::RingOptions;
use ring::{Graph, Ring, Triple};
use rpq_core::oracle::evaluate_naive;
use rpq_core::{EngineOptions, EvalRoute, RpqEngine, RpqQuery, Term};

const N_NODES: u64 = 9;
const N_PREDS: u64 = 3; // completed alphabet: 0..6

fn arb_graph() -> impl Strategy<Value = Graph> {
    prop::collection::vec((0..N_NODES, 0..N_PREDS, 0..N_NODES), 1..60).prop_map(|raw| {
        Graph::new(
            raw.into_iter()
                .map(|(s, p, o)| Triple::new(s, p, o))
                .collect(),
            N_NODES,
            N_PREDS,
        )
    })
}

/// Random expressions over the completed alphabet 0..6.
fn arb_regex() -> impl Strategy<Value = Regex> {
    let leaf = prop_oneof![
        4 => (0u64..2 * N_PREDS).prop_map(Regex::label),
        1 => prop::collection::btree_set(0u64..2 * N_PREDS, 1..3)
            .prop_map(|s| Regex::Literal(Lit::Class(s.into_iter().collect()))),
        1 => prop::collection::btree_set(0u64..2 * N_PREDS, 1..3)
            .prop_map(|s| Regex::Literal(Lit::NegClass(s.into_iter().collect()))),
    ];
    leaf.prop_recursive(3, 12, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Regex::concat(a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Regex::alt(a, b)),
            inner.clone().prop_map(|a| Regex::Star(Box::new(a))),
            inner.clone().prop_map(|a| Regex::Plus(Box::new(a))),
            inner.prop_map(|a| Regex::Opt(Box::new(a))),
        ]
    })
}

fn arb_term() -> impl Strategy<Value = Term> {
    prop_oneof![
        2 => Just(Term::Var),
        1 => (0..N_NODES).prop_map(Term::Const),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn engine_matches_oracle(
        g in arb_graph(),
        e in arb_regex(),
        s in arb_term(),
        o in arb_term(),
    ) {
        let query = RpqQuery::new(s, e, o);
        let expected = evaluate_naive(&g, &query);
        let ring = Ring::build(&g, RingOptions::default());
        let mut engine = RpqEngine::new(&ring);
        for forced_route in [None, Some(EvalRoute::BitParallel)] {
            let opts = EngineOptions { forced_route, ..Default::default() };
            let out = engine.evaluate(&query, &opts).unwrap();
            prop_assert!(!out.truncated && !out.timed_out);
            prop_assert_eq!(
                out.sorted_pairs(), expected.clone(),
                "mismatch (forced_route={:?}) on {:?}", forced_route, query
            );
        }
    }

    #[test]
    fn fallback_matches_oracle(
        g in arb_graph(),
        e in arb_regex(),
        s in arb_term(),
        o in arb_term(),
    ) {
        // Force the explicit-state fallback path on ordinary expressions:
        // it must agree with the oracle (and hence the main engine) even
        // though the engine would normally take the bit-parallel path.
        let query = RpqQuery::new(s, e, o);
        let ring = Ring::build(&g, RingOptions::default());
        let out = rpq_core::fallback::evaluate(&ring, &query, &EngineOptions::default()).unwrap();
        prop_assert_eq!(out.sorted_pairs(), evaluate_naive(&g, &query), "{:?}", query);
    }

    #[test]
    fn limits_are_respected(
        g in arb_graph(),
        e in arb_regex(),
        limit in 1usize..6,
    ) {
        let query = RpqQuery::new(Term::Var, e, Term::Var);
        let ring = Ring::build(&g, RingOptions::default());
        let mut engine = RpqEngine::new(&ring);
        let opts = EngineOptions { limit, ..Default::default() };
        let out = engine.evaluate(&query, &opts).unwrap();
        prop_assert!(out.pairs.len() <= limit);
        let full = evaluate_naive(&g, &query);
        if full.len() > limit {
            prop_assert!(out.truncated);
        }
        // Every returned pair must be a genuine answer.
        for p in &out.pairs {
            prop_assert!(full.contains(p), "bogus pair {:?}", p);
        }
    }
}
