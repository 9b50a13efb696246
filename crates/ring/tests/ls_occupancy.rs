//! [`Ring::ls_occupancy`] is built in one sequential pass over `C_s`; it
//! must equal the definition it replaced — one `subject_range` probe per
//! graph node, then OR the children bottom-up — on every boundary
//! representation, with and without inverse edges, on a built ring and
//! on one opened from a mapped file in either residency.

use ring::mapped::{open_index, write_index, OpenMode};
use ring::ring::{BoundaryKind, RingOptions};
use ring::{Dict, Graph, Ring, Triple};
use succinct::WaveletMatrix;

/// The per-node definition.
fn reference(ring: &Ring) -> Vec<bool> {
    let width = ring.l_s().width();
    let mut occ = vec![false; ring.l_s().node_table_len()];
    for s in 0..ring.n_nodes() {
        let (b, e) = ring.subject_range(s);
        if e > b {
            occ[WaveletMatrix::node_index(width, s)] = true;
        }
    }
    for level in (0..width).rev() {
        for prefix in 0..(1u64 << level) {
            let left = WaveletMatrix::node_index(level + 1, prefix << 1);
            occ[WaveletMatrix::node_index(level, prefix)] = occ[left] || occ[left + 1];
        }
    }
    occ
}

fn assert_matches_reference(ring: &Ring, context: &str) {
    let want = reference(ring);
    let got = ring.ls_occupancy();
    assert_eq!(got.len(), want.len(), "{context}: table length");
    for (v, &w) in want.iter().enumerate() {
        assert_eq!(got.get(v), w, "{context}: wavelet node {v}");
    }
    // Built once: later calls hand out the same table.
    assert!(std::ptr::eq(got, ring.ls_occupancy()), "{context}");
}

/// `n_edges` pseudo-random triples over `n_nodes` nodes of which only
/// every third may be a subject, so whole `L_s` subtrees stay empty.
fn sparse_subject_graph(n_nodes: u64, n_edges: u64) -> Graph {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        x >> 33
    };
    let triples = (0..n_edges)
        .map(|_| Triple::new(next() % n_nodes / 3 * 3, next() % 3, next() % n_nodes))
        .collect();
    Graph::new(triples, n_nodes, 3)
}

fn names(prefix: &str, n: u64) -> Dict {
    let mut dict = Dict::new();
    for i in 0..n {
        dict.intern(&format!("{prefix}{i}"));
    }
    dict
}

#[test]
fn one_pass_occupancy_equals_the_per_node_definition() {
    let dir = std::env::temp_dir().join(format!("rpq_occupancy_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let graphs = [
        ("empty", Graph::from_triples(vec![])),
        ("one edge", Graph::from_triples(vec![Triple::new(0, 0, 1)])),
        // Universes that are not powers of two, one of them with unused
        // trailing ids, one spanning several words of the unary C_s.
        ("67 nodes", sparse_subject_graph(67, 200)),
        ("300 nodes", sparse_subject_graph(300, 90)),
        ("1031 nodes", sparse_subject_graph(1031, 4000)),
    ];
    for (name, graph) in &graphs {
        for kind in [
            BoundaryKind::Dense,
            BoundaryKind::Sparse,
            BoundaryKind::EliasFano,
        ] {
            for with_inverses in [true, false] {
                let context = format!("{name}, {kind:?}, inverses {with_inverses}");
                let ring = Ring::build(
                    graph,
                    RingOptions {
                        with_inverses,
                        node_boundaries: kind,
                    },
                );
                assert_matches_reference(&ring, &context);
                // A clone made after the build carries the table along.
                assert_matches_reference(&ring.clone(), &context);

                let path = dir.join("index.rpqm");
                let nodes = names("n", ring.n_nodes());
                let preds = names("p", ring.n_preds_base());
                write_index(&path, &ring, &nodes, &preds).unwrap();
                for mode in [OpenMode::Heap, OpenMode::Mmap] {
                    let opened = open_index(&path, mode).unwrap();
                    assert_matches_reference(&opened.ring, &format!("{context}, {mode:?}"));
                }
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
