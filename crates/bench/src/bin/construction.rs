//! E4 — Index construction: build time and space for the ring vs the
//! adjacency index over a sweep of graph sizes (§5 reports 2.3 h and
//! 64.75 GB RAM for the 958 M-edge Wikidata; here we report the scaling
//! shape at laptop sizes).

use baselines::AdjacencyIndex;
use rpq_bench::{build_ring, BenchConfig};
use std::time::Instant;
use workload::{GraphGen, GraphGenConfig};

fn main() {
    let cfg = BenchConfig::from_env();
    println!("Index construction sweep (seed {})", cfg.seed);
    println!(
        "{:>12} {:>12} {:>12} {:>12} {:>14}",
        "edges", "ring (s)", "ring B/edge", "adj (s)", "adj B/edge"
    );
    for shift in [
        cfg.n_edges / 8,
        cfg.n_edges / 4,
        cfg.n_edges / 2,
        cfg.n_edges,
    ] {
        let graph = GraphGen::new(GraphGenConfig {
            n_nodes: cfg.n_nodes,
            n_preds: cfg.n_preds,
            n_edges: shift,
            seed: cfg.seed,
            ..Default::default()
        })
        .generate();
        let n = graph.len() as f64;

        let t = Instant::now();
        let ring = build_ring(&graph);
        let ring_secs = t.elapsed().as_secs_f64();

        let t = Instant::now();
        let adj = AdjacencyIndex::from_graph(&graph);
        let adj_secs = t.elapsed().as_secs_f64();

        println!(
            "{:>12} {:>12.2} {:>12.2} {:>12.2} {:>14.2}",
            graph.len(),
            ring_secs,
            ring.size_bytes() as f64 / n,
            adj_secs,
            adj.size_bytes() as f64 / n
        );
    }
}
