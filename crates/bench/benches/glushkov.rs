//! A3 — bit-parallel table construction and stepping across the vertical
//! split widths `d` of §3.3 (space `O((m/d)·2^d)` vs time `O(m/d)`).

use automata::parser::{parse, NumericResolver};
use automata::{BitParallel, Glushkov};
use criterion::{black_box, criterion_group, criterion_main, Criterion};

fn lcg(seed: &mut u64) -> u64 {
    *seed = seed
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *seed >> 33
}

fn bench_glushkov(c: &mut Criterion) {
    let r = NumericResolver { n_base: 64 };
    // A 16-position expression (the paper's D cells are 16-bit).
    let expr = parse("(1|2)/3*/4+/(5/6)?/7/8*/9/10/(11|12)*/13?/14/15/16", &r).unwrap();
    let g = Glushkov::<u64>::new(&expr).unwrap();
    assert_eq!(g.positions(), 16);

    for d in [4usize, 8, 16] {
        let bp = BitParallel::with_split_width(&g, d);
        let mut q = 5u64;
        c.bench_function(&format!("glushkov_step_bwd_d{d}"), |b| {
            b.iter(|| {
                let mask = lcg(&mut q) & ((1 << 17) - 1);
                let label = lcg(&mut q) % 16;
                black_box(bp.step_bwd(mask, label))
            })
        });
        c.bench_function(&format!("glushkov_step_fwd_d{d}"), |b| {
            b.iter(|| {
                let mask = lcg(&mut q) & ((1 << 17) - 1);
                let label = lcg(&mut q) % 16;
                black_box(bp.step_fwd(mask, label))
            })
        });
        c.bench_function(&format!("glushkov_tables_build_d{d}"), |b| {
            b.iter(|| black_box(BitParallel::with_split_width(&g, d).size_bytes()))
        });
    }

    c.bench_function("glushkov_construction", |b| {
        b.iter(|| black_box(Glushkov::<u64>::new(&expr).unwrap().positions()))
    });
}

criterion_group!(benches, bench_glushkov);
criterion_main!(benches);
