//! E2 — Table 2: index space (bytes per edge) and query-time statistics
//! for the four systems, plus E6's working-space accounting.
//!
//! The paper's absolute numbers come from a 958 M-edge Wikidata dump on a
//! Xeon; this regenerates the table's *shape* (who is smallest, who is
//! fastest, where v-to-v flips the ranking) on the synthetic workload.
//! Scale with `RPQ_BENCH_EDGES` / `RPQ_BENCH_NODES` /
//! `RPQ_BENCH_TIMEOUT_MS` / `RPQ_BENCH_LOG_SCALE`.

use baselines::AdjacencyIndex;
use rpq_bench::{build_ring, mean, median, run_log, BenchConfig, EngineSet, Measurement};
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let cfg = BenchConfig::from_env();
    eprintln!("config: {cfg:?}");

    let t0 = Instant::now();
    let graph = cfg.graph();
    eprintln!(
        "graph: {} edges, {} nodes, {} preds ({:.1}s)",
        graph.len(),
        graph.n_nodes(),
        graph.n_preds(),
        t0.elapsed().as_secs_f64()
    );

    let t0 = Instant::now();
    let ring = build_ring(&graph);
    let ring_build = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let adj = Arc::new(AdjacencyIndex::from_graph(&graph));
    let adj_build = t0.elapsed().as_secs_f64();
    eprintln!("index build: ring {ring_build:.1}s, adjacency {adj_build:.1}s");

    let log = cfg.log(&graph);
    eprintln!("log: {} queries", log.len());

    let mut engines = EngineSet::new(&ring, &adj);
    let sizes: Vec<(&'static str, usize)> = engines
        .engines
        .iter()
        .map(|(e, b)| (e.name(), *b))
        .collect();
    let measurements = run_log(&mut engines, &log, &cfg.engine_options());

    let names: Vec<&'static str> = sizes.iter().map(|&(n, _)| n).collect();
    let n_edges = graph.len() as f64;

    println!("\nTable 2 — index space and query time statistics");
    println!("(paper reference, Wikidata: Ring 16.41 B/edge (three columns; this index stores the two §4 reads), Jena 95.83, Virtuoso 60.07, Blazegraph 90.79;");
    println!(" Ring avg 3.73 s / med 0.15 s / 43 timeouts over 1952 queries at 60 s timeout)\n");

    print!("{:<22}", "");
    for n in &names {
        print!("{n:>16}");
    }
    println!();

    print!("{:<22}", "Space (bytes/edge)");
    for &(_, b) in &sizes {
        print!("{:>16.2}", b as f64 / n_edges);
    }
    println!();

    let stats = |f: &dyn Fn(&Measurement) -> bool| -> Vec<(f64, f64, usize)> {
        names
            .iter()
            .map(|&n| {
                let xs: Vec<f64> = measurements
                    .iter()
                    .filter(|m| m.engine == n && f(m))
                    .map(|m| m.seconds)
                    .collect();
                let timeouts = measurements
                    .iter()
                    .filter(|m| m.engine == n && f(m) && m.timed_out)
                    .count();
                (mean(&xs), median(&xs), timeouts)
            })
            .collect()
    };

    let all = stats(&|_| true);
    print!("{:<22}", "Average (s)");
    for &(a, _, _) in &all {
        print!("{a:>16.4}");
    }
    println!();
    print!("{:<22}", "Median (s)");
    for &(_, m, _) in &all {
        print!("{m:>16.4}");
    }
    println!();
    print!("{:<22}", "Timeouts");
    for &(_, _, t) in &all {
        print!("{t:>16}");
    }
    println!();

    let ctv = stats(&|m: &Measurement| m.c_to_v);
    print!("{:<22}", "Average c-to-v (s)");
    for &(a, _, _) in &ctv {
        print!("{a:>16.4}");
    }
    println!();
    print!("{:<22}", "Median c-to-v (s)");
    for &(_, m, _) in &ctv {
        print!("{m:>16.4}");
    }
    println!();

    let vtv = stats(&|m: &Measurement| !m.c_to_v);
    print!("{:<22}", "Average v-to-v (s)");
    for &(a, _, _) in &vtv {
        print!("{a:>16.4}");
    }
    println!();
    print!("{:<22}", "Median v-to-v (s)");
    for &(_, m, _) in &vtv {
        print!("{m:>16.4}");
    }
    println!();

    // E6: working-space accounting (paper: D = 3.09 B/triple, B ≈ 9e-5).
    // The tables are sized by the queries that ran, so read the engine
    // that evaluated the log.
    let ws = engines.engines[0].0.working_space_bytes() as f64;
    println!(
        "\nWorking space (ring): {:.2} bytes/triple (paper: 3.09 for D + ~0 for B)",
        ws / n_edges
    );

    // Shape assertions the paper's conclusions rest on.
    let ring_space = sizes[0].1 as f64;
    for &(n, b) in &sizes[1..] {
        println!("space ratio {}/ring = {:.2}x", n, b as f64 / ring_space);
    }
}
