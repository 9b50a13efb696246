//! Ablation **A1** of the paper's design choices: §4.1's B-masked
//! wavelet traversal vs probing every query label with a plain
//! backward-search step (what a ring without the per-node masks would
//! do). §4.2's internal-node masks are not implemented;
//! `crates/core/README.md` ("What each mechanism buys") says why.

use automata::parser::{parse, NumericResolver};
use automata::{BitParallel, Glushkov};
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use ring::ring::RingOptions;
use ring::Ring;
use std::time::Duration;
use workload::{GraphGen, GraphGenConfig};

fn lcg(seed: &mut u64) -> u64 {
    *seed = seed
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *seed >> 33
}

/// A1: discovering the relevant predicates of an object range.
fn bench_masked_vs_probing(c: &mut Criterion) {
    let n_preds = 256u64;
    let graph = GraphGen::new(GraphGenConfig {
        n_nodes: 1 << 14,
        n_preds,
        n_edges: 1 << 18,
        ..Default::default()
    })
    .generate();
    let ring = Ring::build(&graph, RingOptions::default());
    let r = NumericResolver { n_base: n_preds };
    // A query mentioning 4 of the 512 completed labels.
    let expr = parse("3/(7|19)*/41", &r).unwrap();
    let g = Glushkov::new(&expr).unwrap();
    let bp = BitParallel::new(&g);
    let d = bp.accept_mask();
    let labels: Vec<u64> = expr.mentioned_labels();

    let mut q = 13u64;
    c.bench_function("a1_masked_traversal", |b| {
        b.iter(|| {
            let o = lcg(&mut q) % ring.n_nodes();
            let (lo, hi) = ring.object_range(o);
            let mut hits = 0usize;
            // The unmasked distinct traversal with a post-filter stands in
            // for the engine's masked guide (same wavelet path costs).
            ring.l_p().range_distinct(lo, hi, &mut |p, _, _| {
                if bp.label_mask(p) & d != 0 {
                    hits += 1;
                }
            });
            black_box(hits)
        })
    });
    c.bench_function("a1_per_label_probing", |b| {
        b.iter(|| {
            let o = lcg(&mut q) % ring.n_nodes();
            let range = ring.object_range(o);
            let mut hits = 0usize;
            for &l in &labels {
                if bp.label_mask(l) & d != 0 {
                    let (b2, e2) = ring.backward_step_by_pred(range, l);
                    if e2 > b2 {
                        hits += 1;
                    }
                }
            }
            black_box(hits)
        })
    });
    // The gap grows with query label count: probe all 512 labels, as a
    // label-oblivious engine would.
    c.bench_function("a1_probe_all_labels", |b| {
        b.iter(|| {
            let o = lcg(&mut q) % ring.n_nodes();
            let range = ring.object_range(o);
            let mut hits = 0usize;
            for l in 0..2 * n_preds {
                let (b2, e2) = ring.backward_step_by_pred(range, l);
                if e2 > b2 {
                    hits += 1;
                }
            }
            black_box(hits)
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    targets = bench_masked_vs_probing
}
criterion_main!(benches);
