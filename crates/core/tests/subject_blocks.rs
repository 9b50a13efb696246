//! A completed ring stores no `C_s`: its `C_o` is the `(s, p, o)`
//! order's partition as well. Over random graphs with self-loops,
//! repeated edges, isolated nodes and trailing ids no edge names, on one
//! ring and on every shard of 2- and 4-way partitions, each node's
//! subject block is the one the completed triples count, and
//! `node_exists` says whether the node has an edge at all.

use std::sync::Arc;

use proptest::prelude::*;
use ring::ring::RingOptions;
use ring::sharded::ShardedIndex;
use ring::{Graph, Id, Ring, Triple};
use rpq_core::{MergedView, ShardedSource};

/// `(subject_range(v))` of every node, counted from the completed
/// triples of `base` sorted in `(s, p, o)` order.
fn counted_subject_blocks(base: &[Triple], n_nodes: Id) -> Vec<(usize, usize)> {
    let mut counts = vec![0usize; n_nodes as usize];
    for t in base {
        // The edge itself, with subject `s`, and its inverse, with `o`.
        counts[t.s as usize] += 1;
        counts[t.o as usize] += 1;
    }
    let mut start = 0;
    counts
        .into_iter()
        .map(|c| {
            start += c;
            (start - c, start)
        })
        .collect()
}

/// A graph of up to 120 edges over `used` node ids with trailing ids no
/// edge names, and one edge in four a self-loop; duplicates are drawn and
/// collapse in `Graph::new`.
fn arb_graph() -> impl Strategy<Value = Graph> {
    (
        1u64..24,
        1u64..5,
        0u64..9,
        prop::collection::vec((0u64..24, 0u64..5, 0u64..24, 0u8..4), 0..120),
    )
        .prop_map(|(used, n_preds, trailing, raw)| {
            let triples = raw
                .into_iter()
                .map(|(s, p, o, lp)| {
                    let s = s % used;
                    Triple::new(s, p % n_preds, if lp == 0 { s } else { o % used })
                })
                .collect();
            Graph::new(triples, used + trailing, n_preds)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn the_subject_blocks_are_c_o(graph in arb_graph()) {
        let n_nodes = graph.n_nodes();
        let mut incident = vec![false; n_nodes as usize];
        for t in graph.triples() {
            incident[t.s as usize] = true;
            incident[t.o as usize] = true;
        }
        for n_shards in [1usize, 2, 4] {
            let shards = ShardedIndex::build(&graph, n_shards, RingOptions::default());
            let parts: Vec<Triple> = shards
                .shards()
                .iter()
                .flat_map(|ring| ring.decode_triples(true).unwrap())
                .collect();
            prop_assert_eq!(parts.len(), graph.len());
            for (i, ring) in shards.shards().iter().enumerate() {
                let base = ring.decode_triples(true).unwrap();
                let want = counted_subject_blocks(&base, ring.n_nodes());
                for (v, &block) in want.iter().enumerate() {
                    prop_assert_eq!(
                        ring.subject_range(v as Id),
                        block,
                        "{} shards, shard {}, node {}", n_shards, i, v
                    );
                }
            }
            let rings: Vec<Arc<Ring>> = shards.into_shards().into_iter().map(Arc::new).collect();
            let source = ShardedSource::new(rings);
            let view = MergedView::new(&source);
            for v in 0..n_nodes + 2 {
                let want = incident.get(v as usize).copied().unwrap_or(false);
                prop_assert_eq!(view.node_exists(v), want, "{} shards, node {}", n_shards, v);
            }
        }
    }
}
