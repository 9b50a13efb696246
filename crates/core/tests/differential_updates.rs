//! Randomized update-vs-rebuild differential battery — the correctness
//! backbone of the live-update layer.
//!
//! Each interleaving drives a seeded stream of
//! insert/delete/commit/compact operations (from
//! [`workload::updates::UpdateGen`]) against an id-level
//! [`ring::store::TripleStore`], while an **oracle mirror** tracks the
//! committed triple set. After every published version (commit or
//! compact), the engine evaluates a fresh query log against the store's
//! snapshot — through **all four forced evaluation routes** plus the
//! planner's natural choice — and every answer must be byte-identical
//! (sorted) to `evaluate_naive` over a graph rebuilt from scratch from
//! the mirror — and, pair stream and product-graph counters included, to
//! the engine over a ring rebuilt from that graph: ring + delta and the
//! rebuilt ring are two step sources under one traversal. Mid-batch
//! queries additionally pin snapshot isolation: uncommitted operations
//! are invisible.
//!
//! `RPQ_TEST_THREADS` (comma-separated) overrides the intra-query thread
//! counts the snapshot engines run under, as in `differential.rs`.
//!
//! Coverage: 5 fixed seed bases × 40 derived interleavings = 200
//! deterministic interleavings (plus an extra base from `RPQ_TEST_SEED`,
//! the knob CI's `test-seeds` job turns), and a proptest sweep whose
//! failing seeds persist under `proptest-regressions/`. A store's base
//! is the ring it built or — what a reopened database runs on — the ring
//! of an index file with the graph decoded back out of it, heap-resident
//! and mapped: every fifth interleaving of each base runs all three ways.

use std::collections::BTreeSet;

use proptest::prelude::*;
use ring::mapped::OpenMode;
use ring::ring::RingOptions;
use ring::store::TripleStore;
use ring::{DeltaIndex, Dict, Graph, Ring, Triple};
use rpq_core::oracle::evaluate_naive;
use rpq_core::{EngineOptions, EvalRoute, QueryOutput, RpqEngine, RpqQuery, TripleSource};
use workload::updates::{apply_op, StreamOp, UpdateGen, UpdateGenConfig};
use workload::{GraphGen, GraphGenConfig, QueryGen};

/// splitmix64 — derives independent sub-seeds from one interleaving seed.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Intra-query thread counts the snapshot engines run under; the
/// rebuilt ring they are compared with runs at one thread.
fn test_threads() -> Vec<usize> {
    match std::env::var("RPQ_TEST_THREADS") {
        Ok(v) => v
            .split(',')
            .filter_map(|s| s.trim().parse::<usize>().ok())
            .filter(|&t| t > 0)
            .collect(),
        Err(_) => vec![1, 4],
    }
}

/// Evaluates `query` over `source` through one route choice.
fn run_route(
    source: &(impl TripleSource + ?Sized),
    query: &RpqQuery,
    forced: Option<EvalRoute>,
    threads: usize,
) -> QueryOutput {
    let opts = EngineOptions {
        forced_route: forced,
        intra_query_threads: threads,
        parallel_min_frontier: if threads > 1 { 2 } else { 2048 },
        ..EngineOptions::default()
    };
    let mut engine = RpqEngine::over(source);
    let out = engine
        .evaluate(query, &opts)
        .unwrap_or_else(|e| panic!("engine failed on {query:?} (forced {forced:?}): {e}"));
    assert!(
        !out.truncated && !out.timed_out && !out.budget_exhausted,
        "unexpected limit on {query:?}"
    );
    out
}

/// Oracle graph for the committed mirror, aligned to the snapshot's id
/// universes so inverse-label encodings (`p̂ = p + |P|`) line up.
fn oracle_graph(snap: &ring::store::StoreSnapshot, committed: &BTreeSet<Triple>) -> Graph {
    Graph::new(
        committed.iter().copied().collect(),
        snap.graph.n_nodes().max(snap.delta.n_nodes()),
        snap.graph.n_preds(),
    )
}

/// Checks every route of every query in a fresh Table-1-patterned log
/// against the from-scratch oracle.
fn check_snapshot(
    snap: &ring::store::StoreSnapshot,
    committed: &BTreeSet<Triple>,
    seed: u64,
    context: &str,
) {
    // The store's live set must equal the mirror exactly.
    let live: BTreeSet<Triple> = snap.live_triples().into_iter().collect();
    assert_eq!(&live, committed, "{context}: live set diverged from mirror");
    if committed.is_empty() {
        return;
    }
    let base = oracle_graph(snap, committed);
    let rebuilt = Ring::build(&base, RingOptions::default());
    let counters = |out: &QueryOutput| {
        let s = &out.stats;
        (s.product_nodes, s.product_edges, s.bfs_steps, s.reported)
    };
    let mut qgen = QueryGen::new(&base, seed);
    let routes = [
        None,
        Some(EvalRoute::FastPath),
        Some(EvalRoute::BitParallel),
        Some(EvalRoute::Split),
        Some(EvalRoute::Fallback),
    ];
    // Three queries per checkpoint, rotating through the 20 Table 1
    // patterns across checkpoints so the whole mix gets exercised.
    let log = qgen.scaled_log(0.0);
    let picks = (0..3).map(|k| (seed as usize + k * 7) % log.len());
    for gq in picks.map(|i| log[i].clone()) {
        let expected = evaluate_naive(&base, &gq.query);
        for forced in routes {
            let want = run_route(&rebuilt, &gq.query, forced, 1);
            for threads in test_threads() {
                let what = format!(
                    "{context}: route {forced:?}, {threads} threads, pattern {:?} ({:?})",
                    gq.pattern, gq.query
                );
                let got = run_route(snap, &gq.query, forced, threads);
                assert_eq!(
                    got.sorted_pairs(),
                    expected,
                    "{what}: diverged from the rebuild oracle"
                );
                assert_eq!(
                    got.pairs, want.pairs,
                    "{what}: raw pair stream diverged from the rebuilt ring"
                );
                assert_eq!(
                    counters(&got),
                    counters(&want),
                    "{what}: (product_nodes, product_edges, bfs_steps, reported) diverged \
                     from the rebuilt ring"
                );
            }
        }
    }
}

/// Where an interleaving's store gets the ring under its first snapshots.
#[derive(Clone, Copy, Debug)]
enum Base {
    /// Built from the graph, as `TripleStore::new` does.
    Built,
    /// Opened from an index file under this residency, the graph decoded
    /// back out of it: what a reopened database runs on.
    Opened(OpenMode),
}

fn index_path(seed: u64) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "rpq_diff_updates_{}_{seed:x}.rpqm",
        std::process::id()
    ))
}

/// Everything an index file stores of `ring`: the canonical bytes two
/// builds are compared by.
fn stored_bytes(ring: &Ring, seed: u64) -> Vec<u8> {
    let path = index_path(seed);
    ring::mapped::write_index(&path, ring, &Dict::new(), &Dict::new()).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    bytes
}

fn store_over(graph: &Graph, base: Base, seed: u64) -> TripleStore {
    let Base::Opened(mode) = base else {
        return TripleStore::new(graph.clone());
    };
    let path = index_path(seed);
    let built = Ring::build(graph, RingOptions::default());
    ring::mapped::write_index(&path, &built, &Dict::new(), &Dict::new()).unwrap();
    let ring = ring::mapped::open_ring(&path, mode).unwrap().ring;
    // Unlinked while open: a mapping keeps its file.
    std::fs::remove_file(&path).ok();
    let decoded = Graph::new(
        ring.decode_triples(true).unwrap(),
        ring.n_nodes(),
        ring.n_preds_base(),
    );
    assert_eq!(decoded.triples(), graph.triples(), "seed {seed:#x}");
    TripleStore::from_built(decoded, ring, DeltaIndex::empty(0), 0)
}

/// One full interleaving: seeded base graph, seeded op stream, a
/// differential checkpoint at every published version, and a final
/// compaction equivalence check (answers *and* stored bytes).
fn run_interleaving(seed: u64, from: Base) {
    let base = GraphGen::new(GraphGenConfig {
        n_nodes: 8 + mix(seed) % 16,
        n_preds: 2 + mix(seed ^ 1) % 3,
        n_edges: 24 + (mix(seed ^ 2) % 40) as usize,
        pred_zipf: 1.0,
        node_skew: 1.0 + (mix(seed ^ 3) % 10) as f64 / 10.0,
        seed: mix(seed ^ 4),
    })
    .generate();
    let auto_ratio = match mix(seed ^ 5) % 3 {
        0 => None,
        1 => Some(0.75),
        _ => Some(2.0),
    };
    let store = store_over(&base, from, seed).with_auto_compact_ratio(auto_ratio);
    let mut pending: BTreeSet<Triple> = base.triples().iter().copied().collect();
    let mut committed = pending.clone();

    let mut gen = UpdateGen::new(
        &base,
        UpdateGenConfig {
            // A third of the interleavings may grow the predicate
            // alphabet, exercising the rebuild-on-commit path.
            new_pred_ratio: if mix(seed ^ 6).is_multiple_of(3) {
                0.05
            } else {
                0.0
            },
            new_node_ratio: 0.12,
            seed: mix(seed ^ 7),
            ..UpdateGenConfig::default()
        },
    );

    let mut checkpoints = 0u32;
    let mut mid_batch_checked = false;
    for i in 0..48 {
        let op = gen.next_op();
        match op {
            StreamOp::Insert(t) => store.insert(t),
            StreamOp::Delete(t) => store.delete(t),
            StreamOp::Commit => {
                store.commit();
            }
            StreamOp::Compact => {
                store.commit();
                store.compact();
            }
        }
        let published = apply_op(op, &mut pending, &mut committed);
        if published {
            checkpoints += 1;
            check_snapshot(
                &store.snapshot(),
                &committed,
                mix(seed ^ (0x1000 + u64::from(checkpoints))),
                &format!("seed {seed:#x}, {from:?}, op #{i}, epoch {}", store.epoch()),
            );
        } else if !mid_batch_checked && store.pending_ops() > 0 && pending != committed {
            // Snapshot isolation: a query placed mid-batch sees only the
            // committed state.
            mid_batch_checked = true;
            check_snapshot(
                &store.snapshot(),
                &committed,
                mix(seed ^ 0x2000),
                &format!("seed {seed:#x}, {from:?}, mid-batch at op #{i}"),
            );
        }
    }

    // Final flush, then the compaction acceptance check: the compacted
    // ring answers like — and serializes byte-identically to — a clean
    // build from the same triple set.
    store.commit();
    committed = pending.clone();
    store.compact();
    let snap = store.snapshot();
    check_snapshot(
        &snap,
        &committed,
        mix(seed ^ 0x3000),
        &format!("seed {seed:#x}, {from:?}, after final compaction"),
    );
    let clean = Ring::build(
        &Graph::new(
            committed.iter().copied().collect(),
            snap.graph.n_nodes(),
            snap.graph.n_preds(),
        ),
        RingOptions::default(),
    );
    assert!(
        stored_bytes(&snap.ring, seed) == stored_bytes(&clean, seed),
        "seed {seed:#x}, {from:?}: compacted ring bytes diverge from a clean build"
    );
}

/// The residencies an index file opens under here: heap everywhere, a
/// kernel mapping too where there is one.
fn opened_bases() -> Vec<Base> {
    let mut bases = vec![Base::Opened(OpenMode::Heap)];
    #[cfg(all(unix, target_pointer_width = "64"))]
    bases.push(Base::Opened(OpenMode::Mmap));
    bases
}

/// The five fixed seed bases, plus one from `RPQ_TEST_SEED` when set
/// (CI's `test-seeds` job sweeps extra values through this knob).
fn seed_bases() -> Vec<u64> {
    let mut bases = vec![0xA11CE, 0xB0B0B, 0xC0FFEE, 0xD15EA5E, 0xE57A7E];
    if let Ok(s) = std::env::var("RPQ_TEST_SEED") {
        let extra = s.parse::<u64>().unwrap_or_else(|_| {
            s.bytes().fold(0xcbf29ce484222325u64, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x100000001b3)
            })
        });
        bases.push(extra);
    }
    bases
}

/// ≥ 200 deterministic interleavings: 5 (or 6) seed bases × 40 derived
/// seeds each.
#[test]
fn two_hundred_interleavings_match_the_rebuild_oracle() {
    for base in seed_bases() {
        for i in 0..40u64 {
            let seed = mix(base.wrapping_add(i * 0x9E37_79B9));
            run_interleaving(seed, Base::Built);
            if i % 5 == 0 {
                for from in opened_bases() {
                    run_interleaving(seed, from);
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Fresh random interleavings on every run; failures persist their
    /// seed under `proptest-regressions/` and replay first.
    #[test]
    fn random_interleavings_match_the_rebuild_oracle(seed in 0u64..u64::MAX, from in 0usize..3) {
        let bases = [&[Base::Built][..], &opened_bases()].concat();
        run_interleaving(seed, bases[from % bases.len()]);
    }
}
