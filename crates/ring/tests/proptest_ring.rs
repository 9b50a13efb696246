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

    /// `contains_batch` is `contains` triple by triple, over the same
    /// grid, asked in reverse with every triple twice, and with ids past
    /// every universe.
    #[test]
    fn contains_batch_is_contains_per_triple(g in arb_graph()) {
        let r = Ring::build(&g, RingOptions::default());
        let (n, p) = (r.n_nodes() + 1, r.n_preds() + 1);
        let mut asked: Vec<Triple> = (0..n * p * n)
            .map(|i| Triple::new(i / (p * n), i / n % p, i % n))
            .collect();
        asked.extend(asked.clone().into_iter().rev());
        asked.extend([Triple::new(Id::MAX, 0, 0), Triple::new(0, Id::MAX, 0), Triple::new(0, 0, Id::MAX)]);
        let per_triple: Vec<bool> = asked.iter().map(|t| r.contains(t.s, t.p, t.o)).collect();
        prop_assert_eq!(r.contains_batch(&asked), per_triple);
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

/// Blocks longer than [`Ring::SCAN_BLOCK`] take a descent of their own,
/// shorter ones are read whole: on a graph with both, `contains_batch`
/// is `contains` triple by triple.
#[test]
fn contains_batch_reads_short_blocks_and_descends_long_ones() {
    // Every node points at node 0 by label 0 (one block of 12 subjects
    // into 0) and at its successor by label 1 (blocks of one).
    let n: Id = 12;
    let triples = (0..n)
        .flat_map(|s| [Triple::new(s, 0, 0), Triple::new(s, 1, (s + 1) % n)])
        .collect();
    let r = Ring::build(&Graph::new(triples, n, 2), RingOptions::default());
    assert!(n as usize > Ring::SCAN_BLOCK);
    let asked: Vec<Triple> = (0..n + 1)
        .flat_map(|s| (0..5).flat_map(move |p| (0..n + 1).map(move |o| Triple::new(s, p, o))))
        .collect();
    let per_triple: Vec<bool> = asked.iter().map(|t| r.contains(t.s, t.p, t.o)).collect();
    assert_eq!(r.contains_batch(&asked), per_triple);
    assert_eq!(per_triple.iter().filter(|&&x| x).count(), 4 * n as usize);
}
