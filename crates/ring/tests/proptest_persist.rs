//! Persistence round-trips on random inputs: every boundary
//! representation, dictionaries and full rings must survive a write/open
//! cycle through the `RRPQM01` file bit-exactly in behaviour, under both
//! residencies, and a cut file must be refused.

use std::path::PathBuf;

use proptest::prelude::*;
use ring::mapped::{open_index, open_ring, write_index};
use ring::ring::{BoundaryKind, RingOptions};
use ring::{Dict, Graph, Ring, Triple};

mod common;

const KINDS: [BoundaryKind; 3] = [
    BoundaryKind::Dense,
    BoundaryKind::Sparse,
    BoundaryKind::EliasFano,
];

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("rpq_ppersist_{name}_{}.rpqm", std::process::id()))
}

/// `ring` written to `path` and opened again, once per residency.
fn reopened(path: &std::path::Path, ring: &Ring) -> Vec<Ring> {
    write_index(path, ring, &Dict::new(), &Dict::new()).unwrap();
    common::modes()
        .into_iter()
        .map(|mode| open_ring(path, mode).unwrap().ring)
        .collect()
}

fn arb_graph() -> impl Strategy<Value = Graph> {
    (
        1u64..10,
        1u64..4,
        prop::collection::vec((0u64..10, 0u64..4, 0u64..10), 0..50),
    )
        .prop_map(|(n_nodes, n_preds, raw)| {
            Graph::new(
                raw.into_iter()
                    .map(|(s, p, o)| Triple::new(s % n_nodes, p % n_preds, o % n_nodes))
                    .collect(),
                n_nodes,
                n_preds,
            )
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `C_o` of a graph whose node `c` is the object of `counts[c]`
    /// triples is the boundary array of `counts`, in every representation.
    #[test]
    fn boundaries_roundtrip_all_kinds(counts in prop::collection::vec(0u64..20, 1..30)) {
        let path = tmp("boundaries");
        let n_nodes = (counts.len() as u64).max(20);
        let triples = counts
            .iter()
            .enumerate()
            .flat_map(|(o, &c)| (0..c).map(move |s| Triple::new(s, 0, o as u64)))
            .collect();
        let graph = Graph::new(triples, n_nodes, 1);
        for kind in KINDS {
            let ring = Ring::build(&graph, RingOptions { with_inverses: false, node_boundaries: kind });
            let b = ring.c_o_ref();
            for back in reopened(&path, &ring) {
                let back = back.c_o_ref();
                for c in 0..=n_nodes {
                    prop_assert_eq!(b.get(c), back.get(c), "C[{}]", c);
                }
                for pos in 0..b.get(n_nodes) {
                    prop_assert_eq!(b.owner(pos), back.owner(pos));
                }
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn ring_roundtrip_all_kinds(g in arb_graph()) {
        let path = tmp("ring");
        for kind in KINDS {
            let ring = Ring::build(&g, RingOptions { with_inverses: true, node_boundaries: kind });
            for back in reopened(&path, &ring) {
                prop_assert_eq!(back.n_triples(), ring.n_triples());
                prop_assert_eq!(back.n_preds_base(), ring.n_preds_base());
                let a: Vec<Triple> = ring.iter_triples().collect();
                let b: Vec<Triple> = back.iter_triples().collect();
                prop_assert_eq!(a, b, "{:?}", kind);
            }
        }
        std::fs::remove_file(&path).ok();
    }

    /// A file stores no triple list: the graph comes back out of the ring,
    /// the dictionaries as they were interned.
    #[test]
    fn graph_and_dict_roundtrip(g in arb_graph(), names in prop::collection::vec("[a-z]{1,8}", 0..20)) {
        let path = tmp("graph_dict");
        let mut nodes = Dict::new();
        for v in 0..g.n_nodes() {
            nodes.intern(&format!("n{v}"));
        }
        let mut preds = Dict::new();
        for p in 0..g.n_preds() {
            // Distinct whatever was drawn: the index as a prefix.
            preds.intern(&format!("{p}{}", names.get(p as usize).map_or("", |n| n.as_str())));
        }
        let ring = Ring::build(&g, RingOptions::default());
        write_index(&path, &ring, &nodes, &preds).unwrap();
        for mode in common::modes() {
            let back = open_index(&path, mode).unwrap();
            let mut triples = back.ring.decode_triples(true).unwrap();
            triples.sort_unstable();
            prop_assert_eq!(triples.as_slice(), g.triples());
            for (d, back) in [(&nodes, &back.nodes), (&preds, &back.preds)] {
                prop_assert_eq!(back.len(), d.len());
                for (id, name) in d.iter() {
                    prop_assert_eq!(back.get(&name), Some(id));
                    prop_assert_eq!(back.name(id), name);
                }
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_payloads_never_panic(
        g in arb_graph(),
        cut_frac in 0.0f64..1.0,
    ) {
        let path = tmp("truncated");
        let ring = Ring::build(&g, RingOptions::default());
        write_index(&path, &ring, &Dict::new(), &Dict::new()).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        // Every truncation must produce Err, never a panic or a bogus Ok.
        std::fs::write(&path, &bytes[..cut]).unwrap();
        for mode in common::modes() {
            prop_assert!(open_ring(&path, mode).is_err(), "cut at {} of {}", cut, bytes.len());
        }
        std::fs::remove_file(&path).ok();
    }
}

/// Degenerate alphabet: an empty graph (zero predicates) stores its
/// wavelet sigma clamped to 1; the open-time inverse-alphabet check
/// must accept it (found by CLI probing: `build empty.nt` produced an
/// index that then failed to load).
#[test]
fn empty_graph_ring_roundtrips() {
    let path = tmp("empty");
    let g = Graph::new(vec![], 0, 0);
    for kind in KINDS {
        let ring = Ring::build(
            &g,
            RingOptions {
                with_inverses: true,
                node_boundaries: kind,
            },
        );
        for back in reopened(&path, &ring) {
            assert_eq!(back.n_triples(), 0);
            assert_eq!(back.n_preds_base(), 0);
            assert_eq!(back.iter_triples().count(), 0);
            assert_eq!(back.decode_triples(true).unwrap(), vec![]);
        }
    }
    std::fs::remove_file(&path).ok();
}
