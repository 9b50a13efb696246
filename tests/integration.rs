//! Workspace-level integration tests: the name-level façade, the four
//! engines and the workload generator working together on shared data.

use baselines::{
    AdjacencyIndex, BitParallelAdjEngine, NfaBfsEngine, PathEngine, RingEngine, SemiNaiveEngine,
};
use ring_rpq::RpqDatabase;
use rpq_core::oracle::evaluate_naive;
use rpq_core::EngineOptions;
use std::sync::Arc;
use workload::{metro, GraphGen, GraphGenConfig, QueryGen};

#[test]
fn facade_reproduces_paper_example() {
    let g = metro::metro();
    let (nodes, preds) = metro::metro_dicts();
    let db = RpqDatabase::from_parts(g, nodes, preds);
    let got = db.query("Baquedano", "l5+/bus", "?y").unwrap();
    assert_eq!(
        got,
        vec![
            ("Baquedano".to_string(), "SantaAna".to_string()),
            ("Baquedano".to_string(), "UdeChile".to_string()),
        ]
    );
}

#[test]
fn all_engines_agree_on_generated_workload() {
    let graph = GraphGen::new(GraphGenConfig {
        n_nodes: 400,
        n_preds: 10,
        n_edges: 2500,
        seed: 99,
        ..Default::default()
    })
    .generate();
    let log = QueryGen::new(&graph, 5).scaled_log(0.01);
    assert!(log.len() >= 20);

    let ring = ring::Ring::build(&graph, ring::ring::RingOptions::default());
    let adj = Arc::new(AdjacencyIndex::from_graph(&graph));
    let opts = EngineOptions::default();

    let mut ring_engine = RingEngine::new(&ring);
    let mut engines: Vec<Box<dyn PathEngine>> = vec![
        Box::new(NfaBfsEngine::new(Arc::clone(&adj))),
        Box::new(SemiNaiveEngine::new(Arc::clone(&adj))),
        Box::new(BitParallelAdjEngine::new(Arc::clone(&adj))),
    ];

    for gq in &log {
        let expected = ring_engine.run(&gq.query, &opts).unwrap().sorted_pairs();
        // The ring itself must match the naive oracle.
        assert_eq!(
            expected,
            evaluate_naive(&graph, &gq.query),
            "ring vs oracle on {}",
            gq.pattern
        );
        for engine in engines.iter_mut() {
            assert_eq!(
                engine.run(&gq.query, &opts).unwrap().sorted_pairs(),
                expected,
                "{} vs ring on {}",
                engine.name(),
                gq.pattern
            );
        }
    }
}

#[test]
fn database_persistence_roundtrip() {
    let g = metro::metro();
    let (nodes, preds) = metro::metro_dicts();
    let db = RpqDatabase::from_parts(g, nodes, preds);
    let dir = std::env::temp_dir().join("ring_rpq_db_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("metro.db");
    db.save_mapped(&path).unwrap();

    let loaded = RpqDatabase::open(&path).unwrap();
    // The opened index answers identically without rebuilding.
    for (expr, anchor) in [("l5+/bus", "Baquedano"), ("(l1|l2|l5)+", "SantaAna")] {
        assert_eq!(
            loaded.query(anchor, expr, "?y").unwrap(),
            db.query(anchor, expr, "?y").unwrap(),
            "query {expr} from {anchor}"
        );
    }
    assert_eq!(loaded.ring().n_triples(), db.ring().n_triples());
    std::fs::remove_file(&path).unwrap();

    // Corrupt file is rejected.
    let bad = dir.join("bad.db");
    std::fs::write(&bad, b"RRPQM01\0 garbage").unwrap();
    assert!(RpqDatabase::open(&bad).is_err());
}

#[test]
fn facade_explain_and_batch() {
    let g = metro::metro();
    let (nodes, preds) = metro::metro_dicts();
    let db = RpqDatabase::from_parts(g, nodes, preds);

    let plan = db.explain("Baquedano", "l5+/bus", "?y").unwrap();
    assert!(plan.contains("strategy:"), "{plan}");
    assert!(plan.contains("backward traversal"), "{plan}");

    let queries: Vec<_> = ["l5+/bus", "(l1|l2|l5)+", "bus/bus"]
        .iter()
        .map(|e| db.parse_query("Baquedano", e, "?y").unwrap())
        .collect();
    let batch = db.query_batch(&queries, &EngineOptions::default(), 3);
    assert_eq!(batch.len(), 3);
    let mut engine = rpq_core::RpqEngine::new(db.ring());
    for (q, r) in queries.iter().zip(&batch) {
        let sequential = engine.evaluate(q, &EngineOptions::default()).unwrap();
        assert_eq!(
            r.as_ref().unwrap().sorted_pairs(),
            sequential.sorted_pairs()
        );
    }
}

#[test]
fn ntriples_to_queryable_database() {
    let nt = r#"
<http://ex/alice> <http://ex/knows> <http://ex/bob> .
<http://ex/bob>   <http://ex/knows> <http://ex/carol> .
<http://ex/carol> <http://ex/name>  "Carol"@en .
"#;
    let (graph, nodes, preds) = ring::ntriples::parse_ntriples(nt).unwrap();
    let db = RpqDatabase::from_parts(graph, nodes, preds);
    // Transitive friends of alice, via the bracketed-IRI expression syntax.
    let got = db
        .query("<http://ex/alice>", "<http://ex/knows>+", "?y")
        .unwrap();
    assert_eq!(
        got.iter().map(|p| p.1.as_str()).collect::<Vec<_>>(),
        vec!["<http://ex/bob>", "<http://ex/carol>"]
    );
    // Literals are first-class nodes: carol's name via knows+/name.
    let got = db
        .query(
            "<http://ex/alice>",
            "<http://ex/knows>+/<http://ex/name>",
            "?y",
        )
        .unwrap();
    assert_eq!(got[0].1, "\"Carol\"@en");
}

#[test]
fn text_graphs_are_portable_across_apis() {
    let text = "n0 e n1\nn1 e n2\nn2 f n0\n";
    let db = RpqDatabase::from_text(text).unwrap();
    let (graph, _, _) = ring::Graph::parse_text(text).unwrap();
    assert_eq!(db.graph().triples(), graph.triples());
    // Completion is consistent between the ring and the plain graph.
    assert_eq!(db.ring().n_triples(), graph.completed().len());
}

/// The mapped index of the bundled metro graph, pinned by its CRC32C: a
/// change to ring construction, to a succinct layout or to the `RRPQM01`
/// writer that moves a single byte fails here, naming the file, and not
/// as a drift of the scoreboard's `index_bytes_per_triple`.
#[test]
fn mapped_metro_index_bytes_are_pinned() {
    let fixture = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("data/metro.nt");
    let db = RpqDatabase::from_graph_file(&fixture).unwrap();
    let path = std::env::temp_dir().join(format!("rpq_golden_metro_{}.rpqm", std::process::id()));
    let written = db.save_mapped(&path).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(written, 1872);
    assert_eq!(bytes.len(), 1872);
    assert_eq!(
        succinct::crc32c(&bytes),
        0xf159_90ad,
        "save_mapped(data/metro.nt) changed: if the format moved on purpose, \
         re-pin, and bump its version unless older and newer files both \
         still open (as when `L_O` was emptied: 2224 B before)"
    );
}

/// The space claim, host-independent: on a generated 2^14-edge graph the
/// mapped file is its sections and its header and nothing else, the
/// `L_O` slot holds an empty matrix, and the file is at most 0.70 of what
/// it would be with the paper's third column in that slot.
#[test]
fn the_mapped_file_stores_two_columns() {
    use ring::mapped::{section_lens, EMPTY_L_O_LEN, HEADER_LEN, SECTION_NAMES};
    use succinct::SpaceUsage;

    // The scoreboard's generator and `<n17>`-style names, with 16 edges a
    // node where the scoreboard has 8: a node's dictionary entry costs the
    // same 24 bytes beside 10-bit symbols as beside 17-bit ones, and at 8
    // edges a node it would weigh more here (file 0.704 of the
    // three-column one) than there (0.65). Here: 120 216 B against
    // 176 616 B, 0.68.
    let graph = GraphGen::new(GraphGenConfig {
        n_nodes: 1 << 10,
        n_preds: 16,
        n_edges: 1 << 14,
        pred_zipf: 1.0,
        node_skew: 2.0,
        seed: 22,
    })
    .generate();
    let mut nodes = ring::Dict::new();
    for v in 0..graph.n_nodes() {
        nodes.intern(&format!("<n{v}>"));
    }
    let mut preds = ring::Dict::new();
    for p in 0..graph.n_preds() {
        preds.intern(&format!("<p{p}>"));
    }
    let l_o_syms: Vec<u32> = graph
        .completed()
        .triples()
        .iter()
        .map(|t| t.o as u32)
        .collect();
    let n_nodes = graph.n_nodes();
    let db = RpqDatabase::from_parts(graph, nodes, preds);
    let path = std::env::temp_dir().join(format!("rpq_two_columns_{}.rpqm", std::process::id()));
    let file = db.save_mapped(&path).unwrap();
    let lens = section_lens(&path).unwrap();
    std::fs::remove_file(&path).ok();

    assert_eq!(file, lens.iter().sum::<u64>() + HEADER_LEN as u64);
    let l_o = SECTION_NAMES.iter().position(|&n| n == "L_O").unwrap();
    assert_eq!(lens[l_o], EMPTY_L_O_LEN);
    let third = succinct::WaveletMatrix::from_u32_symbols(l_o_syms, n_nodes).size_bytes();
    assert!(
        file as f64 <= 0.70 * (file + third as u64) as f64,
        "{file} B against {third} B more with the third column"
    );
}
