//! Two names outlive the behaviour they named, kept only because the e2e
//! benchmark's `core.parallel.*` rows still use them:
//! `EngineOptions::intra_query_threads` (set, read by nothing) and
//! `TraversalStats::parallel_levels` (read, always 0). ROADMAP item 1(g)
//! deletes both fields, those rows and this file together.

use ring::ring::RingOptions;
use ring::store::TripleStore;
use ring::{Graph, Ring, Triple};
use rpq_core::{EngineOptions, RpqEngine, TripleSource};
use workload::{GraphGen, GraphGenConfig, QueryGen};

#[test]
fn roadmap_1g_intra_query_threads_is_inert_and_parallel_levels_stays_zero() {
    let graph = GraphGen::new(GraphGenConfig {
        n_nodes: 40,
        n_preds: 4,
        n_edges: 200,
        pred_zipf: 1.2,
        node_skew: 0.8,
        seed: 0x1C,
    })
    .generate();
    let ring = Ring::build(&graph, RingOptions::default());
    // Ring + delta over the same triples: the base lacks every fourth
    // triple, which one commit adds back.
    let late: Vec<Triple> = graph.triples().iter().copied().step_by(4).collect();
    let base = Graph::new(
        graph
            .triples()
            .iter()
            .copied()
            .filter(|t| !late.contains(t))
            .collect(),
        graph.n_nodes(),
        graph.n_preds(),
    );
    let store = TripleStore::new(base).with_auto_compact_ratio(None);
    late.into_iter().for_each(|t| store.insert(t));
    store.commit();
    let snapshot = store.snapshot();
    assert!(snapshot.delta().is_some());

    let sources: [(&str, &dyn TripleSource); 2] = [("ring", &ring), ("ring + delta", &*snapshot)];
    let fanned = EngineOptions {
        intra_query_threads: 4,
        ..EngineOptions::default()
    };
    let mut checked = 0;
    for (kind, source) in sources {
        let mut engine = RpqEngine::over(source);
        for gq in QueryGen::new(&graph, 0x1C)
            .scaled_log(0.0)
            .into_iter()
            .take(8)
        {
            let what = format!("{kind}, pattern {:?}", gq.pattern);
            let want = engine
                .evaluate(&gq.query, &EngineOptions::default())
                .unwrap();
            let got = engine.evaluate(&gq.query, &fanned).unwrap();
            assert_eq!(got.pairs, want.pairs, "{what}: pairs");
            assert_eq!(got.stats, want.stats, "{what}: counters");
            assert_eq!(got.stats.parallel_levels, 0, "{what}: parallel_levels");
            checked += 1;
        }
    }
    assert_eq!(checked, 16);
}
