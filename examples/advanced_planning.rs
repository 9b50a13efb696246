//! Advanced features tour: index persistence, wavelet-based selectivity
//! statistics (§6), and the rare-label split strategy (§2 / §6 future
//! work) — all verified against the default engine as it runs.
//!
//! Run with: `cargo run --release --example advanced_planning`

use automata::Regex;
use ring::ring::RingOptions;
use ring::{Dict, Ring};
use ring_rpq::RpqDatabase;
use rpq_core::split::{best_split, evaluate_split};
use rpq_core::stats::RingStatistics;
use rpq_core::{EngineOptions, RpqEngine, RpqQuery, Term};
use workload::{GraphGen, GraphGenConfig};

fn main() {
    // A synthetic graph with one deliberately rare predicate: id 15 in a
    // Zipf tail of 16.
    let graph = GraphGen::new(GraphGenConfig {
        n_nodes: 1 << 12,
        n_preds: 16,
        n_edges: 1 << 15,
        seed: 77,
        ..Default::default()
    })
    .generate();
    let ring = Ring::build(&graph, RingOptions::default());

    // --- Selectivity statistics (§6) -----------------------------------
    let stats = RingStatistics::new(&ring);
    println!("predicate cardinalities (Zipf head and tail):");
    for p in [0u64, 1, 7, 15] {
        println!(
            "  p{p}: {} edges, {} distinct sources",
            stats.pred_cardinality(p),
            stats.distinct_subjects_of(p)
        );
    }
    let hub = (0..graph.n_nodes())
        .max_by_key(|&v| stats.in_degree(v))
        .unwrap();
    println!(
        "hub node {hub}: in-degree {}, {} distinct incoming labels",
        stats.in_degree(hub),
        stats.distinct_preds_into(hub)
    );

    // --- Rare-label splitting (§2, §6) ----------------------------------
    // a*/rare/b* — the textbook case for splitting. Tail labels keep the
    // exact answer set under the result limit so both strategies can be
    // compared pair-for-pair.
    let star = |l| Regex::Star(Box::new(Regex::label(l)));
    let expr = Regex::concat(Regex::concat(star(12), Regex::label(15)), star(13));
    println!(
        "\nsplitting {expr}: rarest label = {:?}",
        stats.rarest_label(&expr)
    );
    let split = best_split(&ring, &expr).expect("has a literal factor");
    let opts = EngineOptions::default();
    let t = std::time::Instant::now();
    let via_split = evaluate_split(&ring, &split, &opts).unwrap();
    let t_split = t.elapsed();
    let t = std::time::Instant::now();
    let direct = RpqEngine::new(&ring)
        .evaluate(&RpqQuery::new(Term::Var, expr, Term::Var), &opts)
        .unwrap();
    let t_direct = t.elapsed();
    assert!(!via_split.truncated && !direct.truncated);
    assert_eq!(via_split.sorted_pairs(), direct.sorted_pairs());
    println!(
        "split strategy: {} pairs in {t_split:?}; direct engine: same {} pairs in {t_direct:?}",
        via_split.pairs.len(),
        direct.pairs.len()
    );

    // --- Persistence -----------------------------------------------------
    // One file format: the ring's arrays as they are in memory, plus the
    // dictionaries; `open` maps it and queries run on the file in place.
    let path = std::env::temp_dir().join("advanced_planning.rpqm");
    let (mut nodes, mut preds) = (Dict::new(), Dict::new());
    for v in 0..graph.n_nodes() {
        nodes.intern(&format!("n{v}"));
    }
    for p in 0..graph.n_preds() {
        preds.intern(&format!("p{p}"));
    }
    let bytes = RpqDatabase::from_parts(graph, nodes, preds)
        .save_mapped(&path)
        .unwrap();
    let loaded = RpqDatabase::open(&path).unwrap();
    println!(
        "\npersisted index: {bytes} bytes on disk, opened {} in {} us, {} triples",
        loaded.open_info().resident.as_str(),
        loaded.open_info().open_us,
        loaded.ring().n_triples()
    );
    let q = RpqQuery::new(Term::Const(hub), star(0), Term::Var);
    assert_eq!(
        RpqEngine::new(loaded.ring())
            .evaluate(&q, &opts)
            .unwrap()
            .sorted_pairs(),
        RpqEngine::new(&ring)
            .evaluate(&q, &opts)
            .unwrap()
            .sorted_pairs(),
    );
    println!("loaded index answers queries identically — done.");
    let _ = std::fs::remove_file(&path);
}
