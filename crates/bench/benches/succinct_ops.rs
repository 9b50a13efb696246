//! Micro-benchmarks of the succinct substrate: bit-vector rank/select and
//! wavelet access/rank — the inner loops every ring operation reduces to.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use succinct::{BitVec, RankSelect, WaveletMatrix};

fn lcg(seed: &mut u64) -> u64 {
    *seed = seed
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *seed >> 33
}

fn bench_rank_select(c: &mut Criterion) {
    let n = 1 << 22;
    let mut s = 7u64;
    let bv = BitVec::from_bits((0..n).map(|_| lcg(&mut s).is_multiple_of(3)));
    let rs = RankSelect::new(bv);
    let ones = rs.count_ones();

    let mut q = 1u64;
    c.bench_function("rank1/4M", |b| {
        b.iter(|| {
            let i = (lcg(&mut q) as usize) % (n + 1);
            black_box(rs.rank1(i))
        })
    });
    c.bench_function("select1/4M", |b| {
        b.iter(|| {
            let k = (lcg(&mut q) as usize) % ones;
            black_box(rs.select1(k))
        })
    });
    c.bench_function("select0/4M", |b| {
        b.iter(|| {
            let k = (lcg(&mut q) as usize) % rs.count_zeros();
            black_box(rs.select0(k))
        })
    });
}

fn bench_wavelet(c: &mut Criterion) {
    let n = 1 << 18;
    let sigma = 1 << 12;
    let mut s = 99u64;
    let syms: Vec<u64> = (0..n).map(|_| lcg(&mut s) % sigma).collect();
    let wm = WaveletMatrix::new(&syms, sigma);

    let mut q = 3u64;
    c.bench_function("wm_access", |b| {
        b.iter(|| black_box(wm.access((lcg(&mut q) as usize) % n)))
    });
    c.bench_function("wm_rank", |b| {
        b.iter(|| {
            let sym = lcg(&mut q) % sigma;
            let i = (lcg(&mut q) as usize) % (n + 1);
            black_box(wm.rank(sym, i))
        })
    });
    c.bench_function("wm_range_distinct_1k", |b| {
        b.iter(|| {
            let start = (lcg(&mut q) as usize) % (n - 1024);
            let mut count = 0usize;
            wm.range_distinct(start, start + 1024, &mut |_, _, _| count += 1);
            black_box(count)
        })
    });
}

criterion_group!(benches, bench_rank_select, bench_wavelet);
criterion_main!(benches);
