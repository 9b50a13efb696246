//! E9: succinct hot-path microbench, written to `BENCH_succinct.json`.
//!
//! Medians (ns/op) for the primitives every RPQ traversal step bottoms
//! out in: `rank1`, `rank1_pair`, `select1`/`select0` (against an
//! in-bench reimplementation of the pre-interleaving **binary-search
//! select** so the speedup is measured, not asserted), wavelet
//! `guided_traverse` per-range vs the frontier-batched
//! `MultiTraversal::run` at several frontier widths, the batched
//! `access_batch` part two runs over narrow ranges (in batches of
//! several widths, and one wide batch of ascending and of shuffled
//! ranges), and the batched backward-step rank. Distributions: dense/sparse/clustered synthetic
//! bits plus a metro-ring-derived pattern (the MSB sequence of the
//! bundled fixture's `L_s`, tiled), so the numbers track real ring data
//! and not just uniform noise.
//!
//! Modes: `--quick` (or `RPQ_BENCH_QUICK=1`) shrinks inputs/reps for the
//! CI perf smoke; `--check <baseline.json>` exits non-zero if any
//! `*_ns` median regresses more than [`CHECK_FACTOR`]× against the
//! committed baseline — a guard against accidental O(n) fallbacks, not
//! against machine noise. Output path honours `RPQ_BENCH_OUT`. The
//! artifact names the copies of the batched kernels that ran (`"popcount":
//! "hardware"` where the CPU has the instruction, else `"portable"`;
//! `succinct::with_popcnt`): the two differ by the cost of a popcount.
//! It also names the level step of `access_batch` and `rank_batch`
//! (`"gather": "avx512"` where the CPU has AVX-512 with its 64-bit
//! popcount, else `"portable"`; `succinct::gather`), and the two `sweep_*`
//! rows are timed on the portable loop as well (`sweep_*_portable_*`), so
//! the artifact shows the gather step's gain at this layer.

use ring::ring::RingOptions;
use ring::Ring;
use rpq_bench::median;
use std::time::Instant;
use succinct::rank_select::select_in_word;
use succinct::wavelet_matrix::{MultiRangeGuide, MultiTraversal, RangeGuide};
use succinct::{BitVec, RankSelect, WaveletMatrix};

/// Allowed regression factor for `--check`.
const CHECK_FACTOR: f64 = 3.0;

fn lcg(seed: &mut u64) -> u64 {
    *seed = seed
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *seed >> 33
}

/// The pre-PR select: binary search over a (separate) superblock rank
/// directory, then a sub-block scan — kept here as the measured baseline
/// for the sampled+broadword replacement.
struct BinSearchSelect {
    words: Vec<u64>,
    abs: Vec<u64>,
}

impl BinSearchSelect {
    fn new(rs: &RankSelect) -> Self {
        let words: Vec<u64> = (0..rs.n_bit_words()).map(|w| rs.bit_word(w)).collect();
        let mut abs = Vec::with_capacity(words.len().div_ceil(8) + 1);
        let mut acc = 0u64;
        for chunk in words.chunks(8) {
            abs.push(acc);
            acc += chunk.iter().map(|w| w.count_ones() as u64).sum::<u64>();
        }
        abs.push(acc);
        Self { words, abs }
    }

    fn select1(&self, k: usize) -> usize {
        let k64 = k as u64;
        let sup = self.abs.partition_point(|&r| r <= k64) - 1;
        let mut remaining = k - self.abs[sup] as usize;
        let mut word = sup * 8;
        loop {
            let ones = self.words[word].count_ones() as usize;
            if remaining < ones {
                break;
            }
            remaining -= ones;
            word += 1;
        }
        word * 64 + select_in_word(self.words[word], remaining as u32) as usize
    }

    fn select0(&self, k: usize) -> usize {
        let k64 = k as u64;
        let sup = {
            let (mut lo, mut hi) = (0usize, self.abs.len() - 1);
            while lo < hi {
                let mid = (lo + hi).div_ceil(2);
                if (mid * 512) as u64 - self.abs[mid] <= k64 {
                    lo = mid;
                } else {
                    hi = mid - 1;
                }
            }
            lo
        };
        let mut remaining = k - (sup * 512 - self.abs[sup] as usize);
        let mut word = sup * 8;
        loop {
            let zeros = self.words[word].count_zeros() as usize;
            if remaining < zeros {
                break;
            }
            remaining -= zeros;
            word += 1;
        }
        word * 64 + select_in_word(!self.words[word], remaining as u32) as usize
    }
}

/// Median ns/op of `op` over `reps` timed batches of `per_batch` calls.
fn time_ns(reps: usize, per_batch: usize, mut op: impl FnMut(usize) -> usize) -> f64 {
    let mut sink = 0usize;
    let mut samples = Vec::with_capacity(reps);
    for r in 0..reps {
        let t = Instant::now();
        for i in 0..per_batch {
            sink = sink.wrapping_add(op(r * per_batch + i));
        }
        samples.push(t.elapsed().as_nanos() as f64 / per_batch as f64);
    }
    std::hint::black_box(sink);
    median(&samples)
}

struct CountLeaves(usize);
impl RangeGuide for CountLeaves {
    fn enter(&mut self, _: usize, _: u64) -> bool {
        true
    }
    fn leaf(&mut self, _: u64, _: usize, _: usize) {
        self.0 += 1;
    }
}

struct CountLeavesMulti(usize);
impl MultiRangeGuide for CountLeavesMulti {
    fn enter_node(&mut self, _: usize, _: u64) -> bool {
        true
    }
    fn enter_item(&mut self, _: u32, _: usize, _: u64) -> bool {
        true
    }
    fn leaf(&mut self, _: u32, _: u64, _: usize, _: usize) {
        self.0 += 1;
    }
}

/// The MSB bit pattern of the metro fixture's `L_s`, tiled to `n` bits
/// (falls back to a two-period synthetic pattern without the fixture).
fn metro_bits(n: usize) -> BitVec {
    let pattern: Vec<bool> = match std::fs::read_to_string("data/metro.nt") {
        Ok(text) => {
            let (graph, _, _) = ring::ntriples::parse_ntriples(&text).expect("fixture parses");
            let r = Ring::build(&graph, RingOptions::default());
            let ls = r.l_s();
            let top = 1u64 << (ls.width() - 1);
            (0..ls.len()).map(|i| ls.access(i) & top != 0).collect()
        }
        Err(_) => {
            eprintln!("succinct bench: data/metro.nt not found, tiling a synthetic pattern");
            (0..64).map(|i| i % 5 == 0 || i % 7 == 3).collect()
        }
    };
    BitVec::from_bits((0..n).map(|i| pattern[i % pattern.len()]))
}

fn bench_bits(name: &str, bv: BitVec, reps: usize, per_batch: usize, out: &mut Vec<(String, f64)>) {
    let n = bv.len();
    let rs = RankSelect::new(bv);
    let bin = BinSearchSelect::new(&rs);
    let ones = rs.count_ones().max(1);
    let zeros = rs.count_zeros().max(1);

    let mut s = 0x9E37u64;
    out.push((
        format!("rank1_{name}_ns"),
        time_ns(reps, per_batch, |_| {
            rs.rank1(lcg(&mut s) as usize % (n + 1))
        }),
    ));
    let mut s = 0x9E38u64;
    out.push((
        format!("rank1_pair_{name}_ns"),
        time_ns(reps, per_batch, |_| {
            let b = lcg(&mut s) as usize % (n + 1);
            let e = (b + lcg(&mut s) as usize % 256).min(n);
            let (rb, re) = rs.rank1_pair(b, e);
            rb + re
        }),
    ));
    let mut s = 0x51u64;
    let select1_ns = time_ns(reps, per_batch, |_| {
        rs.select1(lcg(&mut s) as usize % ones).unwrap_or(0)
    });
    let mut s = 0x51u64;
    let select1_bin_ns = time_ns(reps, per_batch, |_| {
        bin.select1(lcg(&mut s) as usize % ones)
    });
    let mut s = 0x52u64;
    let select0_ns = time_ns(reps, per_batch, |_| {
        rs.select0(lcg(&mut s) as usize % zeros).unwrap_or(0)
    });
    let mut s = 0x52u64;
    let select0_bin_ns = time_ns(reps, per_batch, |_| {
        bin.select0(lcg(&mut s) as usize % zeros)
    });
    out.push((format!("select1_{name}_ns"), select1_ns));
    out.push((format!("select1_binsearch_{name}_ns"), select1_bin_ns));
    out.push((
        format!("select1_{name}_speedup"),
        select1_bin_ns / select1_ns.max(1e-9),
    ));
    out.push((format!("select0_{name}_ns"), select0_ns));
    out.push((format!("select0_binsearch_{name}_ns"), select0_bin_ns));
    out.push((
        format!("select0_{name}_speedup"),
        select0_bin_ns / select0_ns.max(1e-9),
    ));
}

fn bench_traversal(
    wm: &WaveletMatrix,
    frontier: usize,
    range_len: usize,
    reps: usize,
    out: &mut Vec<(String, f64)>,
) {
    let n = wm.len();
    let mut s = 0xF0u64 + frontier as u64;
    let mut ranges: Vec<(u32, u32)> = (0..frontier)
        .map(|_| {
            let b = lcg(&mut s) as usize % (n - range_len);
            (b as u32, (b + range_len) as u32)
        })
        .collect();
    ranges.sort_unstable();

    let mut samples = Vec::with_capacity(reps);
    let mut leaves = 0usize;
    for _ in 0..reps {
        let t = Instant::now();
        let mut g = CountLeaves(0);
        for &(b, e) in &ranges {
            wm.guided_traverse(b as usize, e as usize, &mut g);
        }
        samples.push(t.elapsed().as_nanos() as f64 / 1000.0);
        leaves = g.0;
    }
    let per_range_us = median(&samples);

    let mut mt = MultiTraversal::new();
    let mut samples = Vec::with_capacity(reps);
    let mut leaves_multi = 0usize;
    for _ in 0..reps {
        let t = Instant::now();
        let mut g = CountLeavesMulti(0);
        mt.run(wm, &ranges, &mut g);
        samples.push(t.elapsed().as_nanos() as f64 / 1000.0);
        leaves_multi = g.0;
    }
    let batched_us = median(&samples);
    assert_eq!(leaves, leaves_multi, "batched traversal dropped leaves");

    out.push((format!("traverse_per_range_f{frontier}_us"), per_range_us));
    out.push((format!("traverse_batched_f{frontier}_us"), batched_us));
    out.push((
        format!("traverse_batched_f{frontier}_speedup"),
        per_range_us / batched_us.max(1e-9),
    ));
    out.push((
        format!("traverse_f{frontier}_ranks_saved_ratio"),
        mt.ranks_saved as f64 / (mt.ranks + mt.ranks_saved).max(1) as f64,
    ));
}

/// An all-admitting guide that declines the leaf ranks.
struct CountSyms(usize);
impl RangeGuide for CountSyms {
    const LEAF_RANKS: bool = false;
    fn enter(&mut self, _: usize, _: u64) -> bool {
        true
    }
    fn leaf(&mut self, _: u64, _: usize, _: usize) {
        self.0 += 1;
    }
}

/// Every position of `ranges`, range after range, as `access_batch`
/// takes them.
fn positions_of(ranges: &[(u32, u32)], units: &mut Vec<(u32, u32)>) {
    units.clear();
    units.extend(ranges.iter().flat_map(|&(b, e)| (b..e).map(|at| (at, 0))));
}

/// The memory-level parallelism of a batched descent, at the scale of a
/// ring's `L_s`: 2^21 symbols of a 2^17 alphabet (17 levels of 320 KiB
/// each, more than any L2 holds), and ranges one or two positions wide,
/// as a backward step by predicate leaves them. A leaf costs one rank per
/// level either way; `access` and the per-range traversal walk the levels
/// as a chain of dependent cache misses, `access_batch` — the engine's
/// part two — takes the positions of `frontier` ranges down a level
/// together. Per leaf is per position there.
fn bench_narrow_ranges(reps: usize, out: &mut Vec<(String, f64)>) {
    const SIGMA: u64 = 1 << 17;
    const N: usize = 1 << 21;
    let mut s = 0x1357u64;
    let syms: Vec<u64> = (0..N).map(|_| lcg(&mut s) % SIGMA).collect();
    let wm = WaveletMatrix::new(&syms, SIGMA);
    let mut narrow_ranges = |n: usize| -> Vec<(u32, u32)> {
        (0..n)
            .map(|_| {
                let b = (lcg(&mut s) as usize % (N - 2)) as u32;
                (b, b + 1 + lcg(&mut s) as u32 % 2)
            })
            .collect()
    };
    let ranges = narrow_ranges(1024);
    let shuffled = narrow_ranges(8192);

    let per_leaf = |samples: &[f64], leaves: usize| median(samples) / leaves as f64;
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        let acc: u64 = ranges.iter().map(|&(b, _)| wm.access(b as usize)).sum();
        std::hint::black_box(acc);
        samples.push(t.elapsed().as_nanos() as f64);
    }
    out.push((
        "narrow_access_chain_ns".to_string(),
        per_leaf(&samples, ranges.len()),
    ));

    let mut samples = Vec::with_capacity(reps);
    let mut leaves = 0;
    for _ in 0..reps {
        let t = Instant::now();
        let mut g = CountSyms(0);
        for &(b, e) in &ranges {
            wm.guided_traverse(b as usize, e as usize, &mut g);
        }
        samples.push(t.elapsed().as_nanos() as f64);
        leaves = std::hint::black_box(g.0);
    }
    out.push((
        "narrow_per_range_leaf_ns".to_string(),
        per_leaf(&samples, leaves),
    ));

    let mut units = Vec::new();
    positions_of(&ranges, &mut units);
    let wanted: Vec<u64> = units
        .iter()
        .map(|&(at, _)| wm.access(at as usize))
        .collect();
    wm.access_batch(&mut units);
    let got: Vec<u64> = units.iter().map(|&(_, sym)| u64::from(sym)).collect();
    assert_eq!(got, wanted, "batched access read other symbols");
    for frontier in [2usize, 1024] {
        let (mut samples, mut leaves) = (Vec::with_capacity(reps), 0);
        for _ in 0..reps {
            let t = Instant::now();
            leaves = 0;
            for batch in ranges.chunks(frontier) {
                positions_of(batch, &mut units);
                wm.access_batch(&mut units);
                leaves += std::hint::black_box(units.len());
            }
            samples.push(t.elapsed().as_nanos() as f64);
        }
        out.push((
            format!("narrow_batched_f{frontier}_leaf_ns"),
            per_leaf(&samples, leaves),
        ));
    }

    // What the order of a frontier is worth: one batch of 8192 such
    // ranges as a BFS level visited in node order hands them over —
    // ascending, every level's first probes front to back — and the same
    // ranges as a FIFO queue does.
    let mut sorted = shuffled.clone();
    sorted.sort_unstable();
    // Each as dispatched on this CPU, and on the portable loop: where
    // the AVX-512 level step runs, the two rows differ by its gain.
    for (order, ranges) in [("sorted", &sorted), ("shuffled", &shuffled)] {
        for (copy, access) in [
            (
                "",
                WaveletMatrix::access_batch as fn(&WaveletMatrix, &mut [(u32, u32)]),
            ),
            ("_portable", WaveletMatrix::access_batch_portable),
        ] {
            let (mut samples, mut leaves) = (Vec::with_capacity(reps), 0);
            for _ in 0..reps {
                let t = Instant::now();
                positions_of(ranges, &mut units);
                access(&wm, &mut units);
                samples.push(t.elapsed().as_nanos() as f64);
                leaves = std::hint::black_box(units.len());
            }
            out.push((
                format!("sweep_{order}{copy}_leaf_ns"),
                per_leaf(&samples, leaves),
            ));
        }
    }
}

/// Extracts `"key":<number>` from a flat JSON text.
fn json_number(text: &str, key: &str) -> Option<f64> {
    let tag = format!("\"{key}\":");
    let at = text.find(&tag)? + tag.len();
    let rest = &text[at..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick")
        || std::env::var("RPQ_BENCH_QUICK").is_ok_and(|v| v == "1");
    let check_baseline = args
        .iter()
        .position(|a| a == "--check")
        .and_then(|i| args.get(i + 1))
        .cloned();

    let (n_bits, n_syms, reps, per_batch) = if quick {
        (1usize << 18, 1usize << 14, 9, 2000)
    } else {
        (1usize << 22, 1usize << 18, 15, 20000)
    };
    let sigma = 1u64 << 12;
    eprintln!(
        "succinct bench: {} bits, {} symbols{}",
        n_bits,
        n_syms,
        if quick { " (quick)" } else { "" }
    );

    let mut results: Vec<(String, f64)> = Vec::new();

    // Bit distributions: dense uniform (1/3), sparse (1/64), clustered
    // runs, metro-ring-derived.
    let mut s = 7u64;
    bench_bits(
        "dense",
        BitVec::from_bits((0..n_bits).map(|_| lcg(&mut s).is_multiple_of(3))),
        reps,
        per_batch,
        &mut results,
    );
    let mut s = 11u64;
    bench_bits(
        "sparse",
        BitVec::from_bits((0..n_bits).map(|_| lcg(&mut s).is_multiple_of(64))),
        reps,
        per_batch,
        &mut results,
    );
    let mut s = 13u64;
    let mut run = false;
    bench_bits(
        "clustered",
        BitVec::from_bits((0..n_bits).map(|_| {
            if lcg(&mut s).is_multiple_of(97) {
                run = !run;
            }
            run
        })),
        reps,
        per_batch,
        &mut results,
    );
    bench_bits("metro", metro_bits(n_bits), reps, per_batch, &mut results);

    // Wavelet traversal: per-range vs frontier-batched, zipf-ish symbols.
    let mut s = 99u64;
    let syms: Vec<u64> = (0..n_syms)
        .map(|_| {
            let r = lcg(&mut s) % sigma;
            r * r / sigma // skew towards small symbols, like real label ids
        })
        .collect();
    let wm = WaveletMatrix::new(&syms, sigma);
    for frontier in [4usize, 64, 256] {
        bench_traversal(&wm, frontier, 48, reps, &mut results);
    }

    // Narrow ranges at `L_s` scale — the same size in quick mode: the
    // row is about cache misses, which a smaller matrix would not have.
    bench_narrow_ranges(reps, &mut results);

    // Batched backward-step rank vs per-position wavelet rank.
    let mut s = 0xABu64;
    let positions: Vec<usize> = (0..256)
        .map(|_| lcg(&mut s) as usize % (n_syms + 1))
        .collect();
    let sym = syms[0];
    let t_reps = reps.max(10);
    let mut samples = Vec::new();
    for _ in 0..t_reps {
        let t = Instant::now();
        let acc: usize = positions.iter().map(|&p| wm.rank(sym, p)).sum();
        std::hint::black_box(acc);
        samples.push(t.elapsed().as_nanos() as f64 / positions.len() as f64);
    }
    results.push(("rank_per_position_ns".to_string(), median(&samples)));
    let mut samples = Vec::new();
    for _ in 0..t_reps {
        let mut batch = positions.clone();
        let t = Instant::now();
        wm.rank_batch(sym, &mut batch);
        std::hint::black_box(&batch);
        samples.push(t.elapsed().as_nanos() as f64 / positions.len() as f64);
    }
    results.push(("rank_batch_ns".to_string(), median(&samples)));

    let body: Vec<String> = results
        .iter()
        .map(|(k, v)| format!("\"{k}\":{v:.2}"))
        .collect();
    // Which copies of the batched kernels ran: `succinct::with_popcnt`'s,
    // and the wavelet level step's (`succinct::gather`).
    let popcount = if succinct::hardware_popcount() {
        "hardware"
    } else {
        "portable"
    };
    let gather = if succinct::hardware_gather() {
        "avx512"
    } else {
        "portable"
    };
    let json = format!(
        "{{\"quick\":{quick},\"popcount\":\"{popcount}\",\"gather\":\"{gather}\",\"bits\":{n_bits},\"symbols\":{n_syms},{}}}",
        body.join(",")
    );
    let out = std::env::var("RPQ_BENCH_OUT").unwrap_or_else(|_| "BENCH_succinct.json".to_string());
    std::fs::write(&out, json.clone() + "\n").expect("writing the bench artifact");
    for (k, v) in &results {
        eprintln!("  {k:<40} {v:>12.2}");
    }
    eprintln!("succinct bench -> {out}");
    println!("{json}");

    if let Some(path) = check_baseline {
        let baseline = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
        let mut failed = false;
        for (k, v) in &results {
            // Only absolute primitive timings guard regressions; speedups
            // and ratios are machine-dependent derived values.
            if !k.ends_with("_ns") && !k.ends_with("_us") {
                continue;
            }
            match json_number(&baseline, k) {
                Some(base) if *v > base * CHECK_FACTOR => {
                    eprintln!(
                        "PERF REGRESSION: {k} = {v:.2} vs baseline {base:.2} (>{CHECK_FACTOR}x)"
                    );
                    failed = true;
                }
                Some(_) => {}
                None => eprintln!("note: baseline has no entry for {k}, skipping"),
            }
        }
        if failed {
            eprintln!("succinct bench: perf smoke FAILED against {path}");
            std::process::exit(1);
        }
        eprintln!("succinct bench: perf smoke ok against {path}");
    }
}
