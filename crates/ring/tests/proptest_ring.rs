//! Property tests for the ring: construction round-trips, the `L_p → L_s`
//! walk, backward-search consistency with a naive triple scan, on random
//! graphs.

use proptest::prelude::*;
use ring::ring::RingOptions;
use ring::{Graph, Id, Ring, Triple};

fn arb_graph() -> impl Strategy<Value = Graph> {
    (
        1u64..12,
        1u64..5,
        prop::collection::vec((0u64..12, 0u64..5, 0u64..12), 0..80),
    )
        .prop_map(|(n_nodes, n_preds, raw)| {
            let triples = raw
                .into_iter()
                .map(|(s, p, o)| Triple::new(s % n_nodes, p % n_preds, o % n_nodes))
                .collect();
            Graph::new(triples, n_nodes, n_preds)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn triples_roundtrip(g in arb_graph()) {
        let r = Ring::build(&g, RingOptions::default());
        let mut decoded: Vec<Triple> = r.iter_triples().collect();
        decoded.sort_unstable();
        let completed = g.completed();
        prop_assert_eq!(decoded.as_slice(), completed.triples());
    }

    /// The bulk decode is the per-position one: the same triples in the
    /// same (`L_p` position) order, the base graph's when asked — built
    /// in memory and opened from a file under both residencies, on graphs
    /// that may be empty or have one node or one label.
    #[test]
    fn bulk_decode_matches_iter_triples(g in arb_graph()) {
        let built = Ring::build(&g, RingOptions::default());
        let path = std::env::temp_dir().join(format!("rpq_bulk_decode_{}.rpqm", std::process::id()));
        ring::mapped::write_index(&path, &built, &ring::Dict::new(), &ring::Dict::new()).unwrap();
        let mut rings = vec![built];
        for mode in [ring::mapped::OpenMode::Heap, ring::mapped::OpenMode::Auto] {
            rings.push(ring::mapped::open_ring(&path, mode).unwrap().ring);
        }
        for r in &rings {
            let all: Vec<Triple> = r.iter_triples().collect();
            prop_assert_eq!(r.decode_triples(false).unwrap(), all.clone());
            let mut base = r.decode_triples(true).unwrap();
            prop_assert!(base.iter().eq(all.iter().filter(|t| t.p < g.n_preds())));
            base.sort_unstable();
            prop_assert_eq!(base.as_slice(), g.triples());
        }
        std::fs::remove_file(&path).ok();
    }

    /// The LF cycle, two columns long: `lf_p` is a bijection between the
    /// positions of `L_p` and of `L_s`, and the walk through it decodes
    /// exactly the completed graph.
    #[test]
    fn lf_cycle_identity(g in arb_graph()) {
        let r = Ring::build(&g, RingOptions::default());
        let mut reached: Vec<usize> = (0..r.n_triples()).map(|i| r.lf_p(i)).collect();
        reached.sort_unstable();
        prop_assert!(reached.into_iter().eq(0..r.n_triples()));
        let mut decoded: Vec<Triple> = r.iter_triples().collect();
        decoded.sort_unstable();
        let completed = g.completed();
        prop_assert_eq!(decoded.as_slice(), completed.triples());
    }

    /// `contains` goes `L_p → L_s`: pinned to the completed graph on every
    /// id triple of the universes and one past them.
    #[test]
    fn contains_matches_graph(g in arb_graph()) {
        let r = Ring::build(&g, RingOptions::default());
        let indexed = g.completed();
        for s in 0..=indexed.n_nodes() {
            for p in 0..=indexed.n_preds() {
                for o in 0..=indexed.n_nodes() {
                    prop_assert_eq!(r.contains(s, p, o), indexed.contains(s, p, o), "({}, {}, {})", s, p, o);
                }
            }
        }
        prop_assert!(!r.contains(Id::MAX, 0, 0) && !r.contains(0, Id::MAX, 0) && !r.contains(0, 0, Id::MAX));
    }

    #[test]
    fn backward_step_lists_exact_subjects(g in arb_graph()) {
        let r = Ring::build(&g, RingOptions::default());
        for o in 0..g.n_nodes() {
            for p in 0..g.n_preds() {
                let mut got = Vec::new();
                r.subjects_for(p, o, &mut |s| got.push(s));
                let mut expected: Vec<Id> = g
                    .triples()
                    .iter()
                    .filter(|t| t.p == p && t.o == o)
                    .map(|t| t.s)
                    .collect();
                expected.sort_unstable();
                expected.dedup();
                prop_assert_eq!(got, expected, "subjects_for({}, {})", p, o);
            }
        }
    }

    #[test]
    fn completion_contains_both_directions(g in arb_graph()) {
        let r = Ring::build(&g, RingOptions::default());
        let np = g.n_preds();
        for t in g.triples() {
            prop_assert!(r.contains(t.s, t.p, t.o));
            prop_assert!(r.contains(t.o, t.p + np, t.s));
            prop_assert_eq!(r.inverse_label(t.p), t.p + np);
        }
        prop_assert_eq!(r.n_triples(), g.completed().len());
    }

    /// Objects of `(s, p)` are the subjects of `(p̂, s)`: what replaces the
    /// enumeration the `(s, p, o)`-order column gave.
    #[test]
    fn objects_for_matches_graph(g in arb_graph()) {
        let r = Ring::build(&g, RingOptions::default());
        for s in 0..g.n_nodes() {
            for p in 0..g.n_preds() {
                let mut got = Vec::new();
                r.subjects_for(r.inverse_label(p), s, &mut |o| got.push(o));
                let mut expected: Vec<Id> = g
                    .triples()
                    .iter()
                    .filter(|t| t.s == s && t.p == p)
                    .map(|t| t.o)
                    .collect();
                expected.sort_unstable();
                expected.dedup();
                prop_assert_eq!(got, expected, "objects of ({}, {})", s, p);
            }
        }
    }
}
