//! The central correctness property of the reproduction: on arbitrary
//! graphs and arbitrary 2RPQs, the ring engine (all option combinations)
//! agrees exactly with the naive product-graph oracle.

use std::sync::Arc;

use automata::ast::{Lit, Regex};
use proptest::prelude::*;
use ring::ring::RingOptions;
use ring::sharded::ShardedIndex;
use ring::store::TripleStore;
use ring::{Graph, Ring, Triple};
use rpq_core::oracle::evaluate_naive;
use rpq_core::{
    EngineOptions, EvalRoute, PreparedQuery, RpqEngine, RpqQuery, ShardedSource, Term, TripleSource,
};

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

/// A store whose live triples are `g`'s: its base ring holds half of
/// them and a stray, and its committed delta adds the rest and
/// tombstones the stray.
fn delta_store(g: &Graph) -> TripleStore {
    let (late, mut base): (Vec<Triple>, _) = g.triples().iter().partition(|t| t.o % 2 == 0);
    let stray = (0..N_NODES)
        .map(|o| Triple::new(0, 0, o))
        .find(|t| !g.triples().contains(t));
    base.extend(stray);
    let store = TripleStore::new(Graph::new(base, N_NODES, N_PREDS)).with_auto_compact_ratio(None);
    late.into_iter().for_each(|t| store.insert(t));
    stray.into_iter().for_each(|t| store.delete(t));
    store.commit();
    store
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

proptest! {
    // Fewer cases: a padded traversal is about seventy BFS levels deep.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Expressions past the word: `arb_regex()`'s expression behind a pad
    /// of one repeated literal, as an alternative and as a prefix, the pad
    /// sized so the expression's positions straddle bit 63 (two words)
    /// and, separately, bit 127 (four). Every endpoint shape, over a ring,
    /// a ring under a delta and four shards (one engine each, its scratch
    /// serving both widths), agrees exactly with the oracle.
    #[test]
    fn wide_masks_match_oracle(
        g in arb_graph(),
        e in arb_regex(),
        pad_label in 0u64..2 * N_PREDS,
        s in 0..N_NODES,
        o in 0..N_NODES,
    ) {
        let ring = Ring::build(&g, RingOptions::default());
        let store = delta_store(&g);
        let snapshot = store.snapshot();
        let sharded = ShardedSource::new(
            ShardedIndex::build(&g, 4, RingOptions::default())
                .into_shards()
                .into_iter()
                .map(Arc::new)
                .collect(),
        );
        let sources: [(&str, &dyn TripleSource); 3] =
            [("ring", &ring), ("ring + delta", &*snapshot), ("4 shards", &sharded)];
        let mut engines = sources.map(|(kind, source)| (kind, RpqEngine::over(source)));
        let n = e.fuse_classes().literal_count();
        for word_end in [63, 127] {
            let k = word_end - n / 2;
            let pad = (1..k).fold(Regex::label(pad_label), |p, _| Regex::concat(p, Regex::label(pad_label)));
            for padded in [Regex::alt(pad.clone(), e.clone()), Regex::concat(pad, e.clone())] {
                // The pad ends at or below the word's last bit, the
                // expression reaches past it.
                let m = padded.fuse_classes().literal_count();
                prop_assert!(m == k + n && k <= word_end && word_end < m, "{} positions", m);
                let prepared =
                    PreparedQuery::compile(&padded, &|l| ring.inverse_label(l), 8).unwrap();
                let (vs, vo) = (Term::Const(s), Term::Const(o));
                for (subject, object) in [(Term::Var, Term::Var), (vs, Term::Var), (Term::Var, vo), (vs, vo)] {
                    let query = RpqQuery::new(subject, padded.clone(), object);
                    let expected = evaluate_naive(&g, &query);
                    for (kind, engine) in &mut engines {
                        let opts = EngineOptions::default();
                        let out = engine.evaluate_prepared(&prepared, subject, object, &opts).unwrap();
                        prop_assert!(!out.truncated && !out.timed_out);
                        prop_assert_eq!(
                            out.sorted_pairs(), expected.clone(),
                            "{} positions, {} on {:?}", m, kind, query
                        );
                    }
                }
            }
        }
    }
}
