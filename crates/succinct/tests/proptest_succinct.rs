//! Property-based cross-validation of the succinct structures: the
//! wavelet matrix and a naive vector-backed reference must agree on every
//! operation for arbitrary inputs.

use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use succinct::mapped::{read_wavelet_matrix, write_wavelet_matrix, MapReader, SectionWriter};
use succinct::wavelet_matrix::{MultiRangeGuide, MultiTraversal};
use succinct::{BitVec, IntVec, MappedFile, RankSelect, WaveletMatrix};

fn naive_rank(syms: &[u64], sym: u64, i: usize) -> usize {
    syms[..i].iter().filter(|&&s| s == sym).count()
}

/// `(sym, rank_b, rank_e)` of every symbol of `syms[b..e]`, in increasing
/// symbol order.
fn naive_distinct(syms: &[u64], b: usize, e: usize) -> Vec<(u64, usize, usize)> {
    let mut distinct = syms[b..e].to_vec();
    distinct.sort_unstable();
    distinct.dedup();
    let ranks = |s| (s, naive_rank(syms, s, b), naive_rank(syms, s, e));
    distinct.into_iter().map(ranks).collect()
}

/// All-admitting multi-range guide collecting `(item, sym, rb, re)`.
struct CollectMulti(Vec<(u32, u64, usize, usize)>);
impl MultiRangeGuide for CollectMulti {
    fn enter_node(&mut self, _: usize, _: u64) -> bool {
        true
    }
    fn enter_item(&mut self, _: u32, _: usize, _: u64) -> bool {
        true
    }
    fn leaf(&mut self, item: u32, sym: u64, rb: usize, re: usize) {
        self.0.push((item, sym, rb, re));
    }
}

/// `wm` as a mapped index file holds it: written, mapped, read in place.
fn mapped(wm: &WaveletMatrix) -> WaveletMatrix {
    static FILES: AtomicUsize = AtomicUsize::new(0);
    let mut bytes = Vec::new();
    let mut w = SectionWriter::new(&mut bytes);
    write_wavelet_matrix(&mut w, wm).unwrap();
    w.pad().unwrap();
    let path = std::env::temp_dir().join(format!(
        "proptest_succinct_{}_{}",
        std::process::id(),
        FILES.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::write(&path, &bytes).unwrap();
    let map = MappedFile::open(&path).unwrap();
    std::fs::remove_file(&path).ok();
    let mut r = MapReader::new(map, 0, bytes.len()).unwrap();
    let back = read_wavelet_matrix(&mut r).unwrap();
    r.finish().unwrap();
    back
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn rank_select_agree_with_naive(bits in prop::collection::vec(any::<bool>(), 0..2000)) {
        let rs = RankSelect::new(BitVec::from_bits(bits.iter().copied()));
        let mut ones = 0usize;
        for (i, &bit) in bits.iter().enumerate() {
            prop_assert_eq!(rs.rank1(i), ones);
            prop_assert_eq!(rs.rank0(i), i - ones);
            if bit {
                prop_assert_eq!(rs.select1(ones), Some(i));
                ones += 1;
            }
        }
        prop_assert_eq!(rs.rank1(bits.len()), ones);
        prop_assert_eq!(rs.select1(ones), None);
    }

    #[test]
    fn select0_is_inverse_of_rank0(bits in prop::collection::vec(any::<bool>(), 0..1500)) {
        let rs = RankSelect::new(BitVec::from_bits(bits.iter().copied()));
        let mut zeros = 0usize;
        for (i, &bit) in bits.iter().enumerate() {
            if !bit {
                prop_assert_eq!(rs.select0(zeros), Some(i));
                zeros += 1;
            }
        }
        prop_assert_eq!(rs.select0(zeros), None);
    }

    /// The sampled select directory at every stride boundary: for each
    /// multiple of the (density-adapted) sampling rate, `select` must
    /// invert `rank` exactly (these are the positions the directory
    /// indexes directly, where an off-by-one in sample construction would
    /// surface). `cut` sets the density, from no ones to all ones.
    #[test]
    fn select_inverts_rank_at_sample_strides(
        draws in prop::collection::vec(0u8..64, 0..6000),
        cut in 0u8..65,
    ) {
        let bits: Vec<bool> = draws.iter().map(|&d| d < cut).collect();
        let rs = RankSelect::new(BitVec::from_bits(bits.iter().copied()));
        let (rate1, rate0) = rs.select_sample_rates();
        let ones: Vec<usize> = (0..bits.len()).filter(|&i| bits[i]).collect();
        let zeros: Vec<usize> = (0..bits.len()).filter(|&i| !bits[i]).collect();
        let mut k = 0usize;
        while k < ones.len() {
            prop_assert_eq!(rs.select1(k), Some(ones[k]), "select1 stride {}", k);
            prop_assert_eq!(rs.rank1(ones[k]), k);
            k += rate1;
        }
        let mut k = 0usize;
        while k < zeros.len() {
            prop_assert_eq!(rs.select0(k), Some(zeros[k]), "select0 stride {}", k);
            prop_assert_eq!(rs.rank0(zeros[k]), k);
            k += rate0;
        }
        prop_assert_eq!(rs.select1(ones.len()), None);
        prop_assert_eq!(rs.select0(zeros.len()), None);
    }

    /// `rank1_pair(b, e)` must equal two independent `rank1` calls for
    /// every boundary pair — in particular across superblock boundaries,
    /// where the shared-probe fast path must bow out.
    #[test]
    fn rank1_pair_equals_two_ranks(
        bits in prop::collection::vec(any::<bool>(), 0..4000),
        queries in prop::collection::vec((0usize..4001, 0usize..4001), 1..40),
    ) {
        let rs = RankSelect::new(BitVec::from_bits(bits.iter().copied()));
        for &(x, y) in &queries {
            let (mut b, mut e) = (x.min(bits.len()), y.min(bits.len()));
            if b > e { std::mem::swap(&mut b, &mut e); }
            prop_assert_eq!(rs.rank1_pair(b, e), (rs.rank1(b), rs.rank1(e)));
            prop_assert_eq!(rs.rank0_pair(b, e), (rs.rank0(b), rs.rank0(e)));
        }
    }

    /// The level-synchronous batched traversal reports, range by range,
    /// what that range's own guided traversal reports — symbols ascending
    /// per range, leaves arriving symbol by symbol — on alphabets 1, 6 and
    /// 17 bits wide.
    #[test]
    fn guided_traverse_multi_equals_per_range_traversals(
        raw_syms in prop::collection::vec(0u64..(1 << 17), 1..500),
        width in 0usize..3,
        raw_ranges in prop::collection::vec((0usize..500, 0usize..4), 0..40),
        wide in prop::collection::vec((0usize..500, 0usize..500), 0..6),
    ) {
        // 1, 6 (not a power of two) and 17 bits.
        let sigma = [2u64, 60, 1 << 17][width];
        let syms: Vec<u64> = raw_syms.iter().map(|s| s % sigma).collect();
        let n = syms.len();
        let wm = WaveletMatrix::new(&syms, sigma);
        // Mostly ranges zero to three positions wide, a few of any width.
        let ranges: Vec<(usize, usize)> = raw_ranges
            .iter()
            .map(|&(b, w)| (b.min(n), (b + w).min(n)))
            .chain(wide.iter().map(|&(x, y)| (x.min(y).min(n), x.max(y).min(n))))
            .collect();
        let narrow: Vec<(u32, u32)> = ranges.iter().map(|&(b, e)| (b as u32, e as u32)).collect();
        let mut guide = CollectMulti(Vec::new());
        MultiTraversal::new().run(&wm, &narrow, &mut guide);
        let mut got = guide.0;
        prop_assert!(got.windows(2).all(|w| (w[0].1, w[0].0) < (w[1].1, w[1].0)));
        got.sort_by_key(|&(item, ..)| item);
        let mut expected = Vec::new();
        for (i, &(b, e)) in ranges.iter().enumerate() {
            wm.range_distinct(b, e, &mut |s, rb, re| expected.push((i as u32, s, rb, re)));
        }
        prop_assert_eq!(&got, &expected);
    }

    /// Batched access ≡ `access` at every unit, in the order given: on a
    /// heap and on a mapped matrix, alphabets 1 to 20 bits wide, batches
    /// empty or not, positions repeated and in any order.
    #[test]
    fn access_batch_equals_access(
        raw_syms in prop::collection::vec(any::<u64>(), 1..400),
        width in 1usize..=20,
        raw_pos in prop::collection::vec(any::<usize>(), 0..120),
        repeat in 0usize..4,
    ) {
        let sigma = 1u64 << width;
        let syms: Vec<u64> = raw_syms.iter().map(|s| s % sigma).collect();
        let heap = WaveletMatrix::new(&syms, sigma);
        let positions: Vec<u32> = raw_pos
            .iter()
            .map(|&p| (p % syms.len()) as u32)
            .flat_map(|p| std::iter::repeat_n(p, 1 + repeat % 2))
            .collect();
        for wm in [&heap, &mapped(&heap)] {
            let mut units: Vec<(u32, u32)> = positions.iter().map(|&p| (p, u32::MAX)).collect();
            wm.access_batch(&mut units);
            let got: Vec<u64> = units.iter().map(|&(_, s)| u64::from(s)).collect();
            let expected: Vec<u64> = positions.iter().map(|&p| wm.access(p as usize)).collect();
            prop_assert_eq!(&got, &expected);
            let plain: Vec<u64> = positions.iter().map(|&p| syms[p as usize]).collect();
            prop_assert_eq!(got, plain);
        }
    }

    /// Batched wavelet rank ≡ per-position rank.
    #[test]
    fn rank_batch_equals_rank(
        syms in prop::collection::vec(0u64..32, 0..400),
        sym in 0u64..32,
        raw_pos in prop::collection::vec(0usize..401, 0..50),
    ) {
        let wm = WaveletMatrix::new(&syms, 32);
        let mut positions: Vec<usize> =
            raw_pos.iter().map(|&p| p.min(syms.len())).collect();
        let expected: Vec<usize> = positions.iter().map(|&i| wm.rank(sym, i)).collect();
        wm.rank_batch(sym, &mut positions);
        prop_assert_eq!(positions, expected);
    }

    #[test]
    fn int_vec_roundtrip(values in prop::collection::vec(0u64..(1 << 37), 0..300)) {
        let v = IntVec::from_slice(&values);
        prop_assert_eq!(v.len(), values.len());
        for (i, &x) in values.iter().enumerate() {
            prop_assert_eq!(v.get(i), x);
        }
        prop_assert_eq!(v.iter().collect::<Vec<_>>(), values);
    }

    #[test]
    fn wavelet_structures_agree(
        syms in prop::collection::vec(0u64..50, 0..400),
        queries in prop::collection::vec((0u64..50, 0usize..400), 1..20),
    ) {
        let wm = WaveletMatrix::new(&syms, 50);
        for &(sym, raw_i) in &queries {
            let i = raw_i.min(syms.len());
            prop_assert_eq!(wm.rank(sym, i), naive_rank(&syms, sym, i));
        }
        for (i, &s) in syms.iter().enumerate() {
            prop_assert_eq!(wm.access(i), s);
        }
    }

    #[test]
    fn wavelet_select_agrees(syms in prop::collection::vec(0u64..12, 0..300)) {
        let wm = WaveletMatrix::new(&syms, 12);
        for sym in 0..12u64 {
            let total = naive_rank(&syms, sym, syms.len());
            for k in 0..total {
                let expected = syms.iter().enumerate()
                    .filter(|(_, &s)| s == sym)
                    .map(|(i, _)| i)
                    .nth(k);
                prop_assert_eq!(wm.select(sym, k), expected);
            }
            prop_assert_eq!(wm.select(sym, total), None);
        }
    }

    #[test]
    fn range_distinct_agrees(
        syms in prop::collection::vec(0u64..30, 1..300),
        b_frac in 0.0f64..1.0,
        e_frac in 0.0f64..1.0,
    ) {
        let n = syms.len();
        let (mut b, mut e) = (
            (b_frac * n as f64) as usize,
            (e_frac * n as f64) as usize,
        );
        if b > e { std::mem::swap(&mut b, &mut e); }
        let wm = WaveletMatrix::new(&syms, 30);
        let mut from_wm = Vec::new();
        wm.range_distinct(b, e, &mut |s, rb, re| from_wm.push((s, rb, re)));
        prop_assert_eq!(from_wm, naive_distinct(&syms, b, e));
    }

    #[test]
    fn range_intersect_agrees(
        syms in prop::collection::vec(0u64..20, 1..300),
        cuts in prop::collection::vec(0.0f64..1.0, 4),
    ) {
        let at = |f: f64| (f * syms.len() as f64) as usize;
        let range = |x: usize, y: usize| (x.min(y), x.max(y));
        let (r1, r2) = (range(at(cuts[0]), at(cuts[1])), range(at(cuts[2]), at(cuts[3])));
        let wm = WaveletMatrix::new(&syms, 20);
        let in_r2 = naive_distinct(&syms, r2.0, r2.1);
        let expected: Vec<_> = naive_distinct(&syms, r1.0, r1.1)
            .into_iter()
            .filter_map(|(s, b1, e1)| {
                let &(_, b2, e2) = in_r2.iter().find(|hit| hit.0 == s)?;
                Some((s, (b1, e1), (b2, e2)))
            })
            .collect();
        let mut got = Vec::new();
        wm.range_intersect_from(r1, r2, 0, usize::MAX, &mut got);
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn range_next_value_agrees(
        syms in prop::collection::vec(0u64..40, 1..250),
        x in 0u64..45,
    ) {
        let wm = WaveletMatrix::new(&syms, 40);
        let b = syms.len() / 4;
        let e = syms.len();
        let expected = naive_distinct(&syms, b, e).into_iter().find(|&(s, ..)| s >= x);
        prop_assert_eq!(wm.range_next_value(b, e, x), expected);
    }
}

/// The batch lengths the two copies of the level step are pinned at:
/// empty, one, around a vector of eight, around the smallest batch the
/// gather copy takes, and long.
const BATCH_LENGTHS: [usize; 9] = [0, 1, 7, 8, 9, 31, 32, 33, 1000];

fn lcg(seed: &mut u64) -> u64 {
    *seed = seed
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *seed >> 17
}

/// `n` positions below `bound`, unsorted, every third one a repeat of the
/// one before it.
fn positions(n: usize, bound: usize, seed: &mut u64) -> Vec<usize> {
    let mut out: Vec<usize> = Vec::with_capacity(n);
    for k in 0..n {
        let p = match out.last() {
            Some(&prev) if k % 3 == 2 => prev,
            _ => lcg(seed) as usize % bound,
        };
        out.push(p);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `access_batch` and `rank_batch` as dispatched on this CPU ≡ the
    /// portable loop (and ≡ the symbols and per-position ranks): random
    /// matrices with σ from 2 to 2¹⁷, lengths that end a level mid-
    /// superblock or exactly at a superblock's end, at every length of
    /// [`BATCH_LENGTHS`], positions duplicated and unsorted, rank
    /// positions up to and including the length. Prints which copy the
    /// dispatch chose, so a `--nocapture` log shows whether the AVX-512
    /// copy ran.
    #[test]
    fn dispatched_batches_equal_the_portable_copy(
        sigma_pick in any::<u64>(),
        raw_len in 1usize..2600,
        whole_blocks in 0usize..4,
        seed in any::<u64>(),
    ) {
        let mut seed = seed;
        let sigma = 2 + sigma_pick % ((1 << 17) - 1);
        let len = if whole_blocks == 0 { raw_len } else { 512 * whole_blocks };
        let syms: Vec<u64> = (0..len).map(|_| lcg(&mut seed) % sigma).collect();
        let heap = WaveletMatrix::new(&syms, sigma);
        static SAID: std::sync::Once = std::sync::Once::new();
        SAID.call_once(|| println!(
            "level step of access_batch/rank_batch: {} (batches of {} or more)",
            if succinct::hardware_gather() { "avx512 gather" } else { "portable" },
            succinct::MIN_GATHER_BATCH
        ));
        for wm in [&heap, &mapped(&heap)] {
            for n in BATCH_LENGTHS {
                let at = positions(n, len, &mut seed);
                let units = |fill| -> Vec<(u32, u32)> { at.iter().map(|&p| (p as u32, fill)).collect() };
                let (mut dispatched, mut portable) = (units(u32::MAX), units(7));
                wm.access_batch(&mut dispatched);
                wm.access_batch_portable(&mut portable);
                let sym_of = |units: &[(u32, u32)]| -> Vec<u64> {
                    units.iter().map(|&(_, s)| u64::from(s)).collect()
                };
                let expected: Vec<u64> = at.iter().map(|&p| syms[p]).collect();
                prop_assert_eq!(sym_of(&dispatched), expected.clone(), "access, n = {}", n);
                prop_assert_eq!(sym_of(&portable), expected, "portable access, n = {}", n);

                let mut ranked = positions(n, len + 1, &mut seed);
                if let Some(last) = ranked.last_mut() {
                    *last = len;
                }
                let sym = if lcg(&mut seed).is_multiple_of(2) {
                    syms[lcg(&mut seed) as usize % len]
                } else {
                    lcg(&mut seed) % sigma
                };
                let expected: Vec<usize> = ranked.iter().map(|&p| wm.rank(sym, p)).collect();
                let mut portable = ranked.clone();
                wm.rank_batch(sym, &mut ranked);
                wm.rank_batch_portable(sym, &mut portable);
                prop_assert_eq!(&ranked, &expected, "rank of {}, n = {}", sym, n);
                prop_assert_eq!(&portable, &expected, "portable rank of {}, n = {}", sym, n);
            }
        }
    }
}
