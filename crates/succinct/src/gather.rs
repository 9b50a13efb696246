//! Eight positions per gather: the AVX-512 level step of
//! [`WaveletMatrix::access_batch`](crate::WaveletMatrix::access_batch)
//! and [`WaveletMatrix::rank_batch`](crate::WaveletMatrix::rank_batch).
//!
//! A level of either batch costs each position one rank in that level's
//! [`RankBits`]: three words of one interleaved superblock record — the
//! absolute count, the packed sub-block counts and the payload word that
//! holds the position — then a shift, a mask and a popcount. The portable
//! loop does this one position at a time (on the `popcnt` instruction,
//! through [`with_popcnt`](crate::with_popcnt)). Where the CPU has
//! AVX-512 (`avx512f`) and its 64-bit popcount (`avx512vpopcntdq`), a
//! copy compiled for them takes eight positions at a time: three gathers
//! (`vpgatherqq`) fetch the eight records' words, and one `vpopcntq`
//! counts them. LLVM does not vectorize the portable loop by itself:
//! compiled with both features enabled, it is no faster. So the step is
//! written out with intrinsics.
//!
//! The copy is chosen at run time, like [`with_popcnt`](crate::with_popcnt)'s.
//! The gather copy runs when `is_x86_feature_detected!` finds both features
//! ([`hardware_gather`]) and the batch holds at least [`MIN_GATHER_BATCH`]
//! positions. Everywhere else the portable loop runs unchanged: on other
//! CPUs and architectures, under Miri, and for shorter batches. There is
//! no option, feature or build flag. Both copies give the same answers in
//! the same order. Positions are never reordered, and the step writes only
//! into the caller's slice: it allocates nothing.
//!
//! # Safety
//!
//! Besides the call into the feature-enabled copy, made only after the
//! detection succeeded, the step has one `unsafe` block for its gathers,
//! and each of the two batches one for the masked load and one for the
//! masked store of eight lanes. A lane is gathered only where its position
//! is below the level's length, and `Level::new` asserts that the
//! records cover every such position, so every gathered index lies inside
//! the level's records. The lane mask of a batch's last, short vector
//! covers exactly the slice's remaining elements, and masked-off lanes
//! are neither read nor written.

use crate::RankBits;

/// The shortest batch the gather copy takes. A level's gathers cost
/// about as much for two lanes as for eight, so on batches of two to
/// four positions the gather copy is slower than the portable loop; from
/// twelve on it was faster on every matrix measured (random positions,
/// 2¹⁴ to 2²¹ symbols, 8 to 17 levels), and at sixteen by 2–3×.
pub const MIN_GATHER_BATCH: usize = 16;

/// Whether the running CPU has what the gather copy needs: `avx512f` and
/// `avx512vpopcntdq`, detected at run time, once, and cached by the
/// standard library. Always `false` off x86-64 and under Miri.
pub fn hardware_gather() -> bool {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    {
        std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512vpopcntdq")
    }
    #[cfg(not(all(target_arch = "x86_64", not(miri))))]
    {
        false
    }
}

/// [`WaveletMatrix::access_batch`](crate::WaveletMatrix::access_batch)'s
/// levels on the gather copy, when it is chosen. Returns whether it ran:
/// `false` leaves `units` untouched for the portable loop. The caller has
/// checked every position against the length of the levels and zeroed
/// the symbols.
#[inline]
pub(crate) fn access(levels: &[RankBits], zeros: &[usize], units: &mut [(u32, u32)]) -> bool {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    if units.len() >= MIN_GATHER_BATCH && hardware_gather() {
        // SAFETY: the only precondition of calling a `#[target_feature]`
        // function is that the CPU has the features, and
        // `hardware_gather` has just found that it does.
        unsafe { avx512::access(levels, zeros, units) };
        return true;
    }
    #[cfg(not(all(target_arch = "x86_64", not(miri))))]
    let _ = (levels, zeros, units);
    false
}

/// [`WaveletMatrix::rank_batch`](crate::WaveletMatrix::rank_batch)'s
/// levels on the gather copy, when it is chosen; returns whether it ran.
/// The caller has checked every position against the length of the
/// levels.
#[inline]
pub(crate) fn rank(
    levels: &[RankBits],
    zeros: &[usize],
    sym: u64,
    positions: &mut [usize],
) -> bool {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    if positions.len() >= MIN_GATHER_BATCH && hardware_gather() {
        // SAFETY: as in `access`: `hardware_gather` found the features.
        unsafe { avx512::rank(levels, zeros, sym, positions) };
        return true;
    }
    #[cfg(not(all(target_arch = "x86_64", not(miri))))]
    let _ = (levels, zeros, sym, positions);
    false
}

#[cfg(all(target_arch = "x86_64", not(miri)))]
mod avx512 {
    use std::arch::x86_64::*;

    use crate::rank_select::{BITS_PER_SUPER, SUPER_STRIDE};
    use crate::RankBits;

    // A unit `(position, symbol)` is one 64-bit lane: the position in the
    // low half (x86-64 is little-endian), the symbol in the high half.
    const _: () =
        assert!(std::mem::size_of::<(u32, u32)>() == 8 && std::mem::offset_of!((u32, u32), 0) == 0);

    /// The lanes of a vector that hold one of the `n` elements left.
    #[inline]
    fn lanes(n: usize) -> __mmask8 {
        if n >= 8 {
            0xFF
        } else {
            (1u8 << n) - 1
        }
    }

    /// One level's records, checked to cover its length.
    struct Level<'a> {
        records: &'a [u64],
        len: __m512i,
    }

    impl<'a> Level<'a> {
        #[inline]
        #[target_feature(enable = "avx512f,avx512vpopcntdq")]
        fn new(bits: &'a RankBits) -> Self {
            let records: &[u64] = bits.raw_parts();
            // What keeps `rank1_get`'s gathers in bounds: a record for
            // every 512 positions below `len`.
            assert!(
                records.len() >= bits.len().div_ceil(BITS_PER_SUPER) * SUPER_STRIDE,
                "rank records do not cover the level"
            );
            Self {
                records,
                len: _mm512_set1_epi64(bits.len() as i64),
            }
        }

        /// `(rank1(i), get(i), i < len)` for the positions `i` of the
        /// `active` lanes of `at` that lie below the level's length; a
        /// lane outside those reads rank 0 and bit 0.
        #[inline]
        #[target_feature(enable = "avx512f,avx512vpopcntdq")]
        fn rank1_get(&self, at: __m512i, active: __mmask8) -> (__m512i, __mmask8, __mmask8) {
            let inside = _mm512_mask_cmplt_epu64_mask(active, at, self.len);
            let block = _mm512_srli_epi64::<9>(at);
            // `block * SUPER_STRIDE`, the record's first word.
            let record =
                _mm512_add_epi64(_mm512_slli_epi64::<3>(block), _mm512_slli_epi64::<1>(block));
            let j = _mm512_and_si512(_mm512_srli_epi64::<6>(at), _mm512_set1_epi64(7));
            let base = self.records.as_ptr().cast::<i64>();
            let zero = _mm512_setzero_si512();
            // SAFETY: a lane is gathered only if it is in `inside`, so its
            // position `i` is below `len`; superblock `i / 512` is then
            // below `len.div_ceil(512)`, and `Level::new` asserted that
            // `records` holds that many ten-word records. The indices are
            // words 0, 1 and `2 + (i / 64) % 8 <= 9` of that record.
            let (abs, subs, word) = unsafe {
                (
                    _mm512_mask_i64gather_epi64::<8>(zero, inside, record, base),
                    _mm512_mask_i64gather_epi64::<8>(
                        zero,
                        inside,
                        _mm512_add_epi64(record, _mm512_set1_epi64(1)),
                        base,
                    ),
                    _mm512_mask_i64gather_epi64::<8>(
                        zero,
                        inside,
                        _mm512_add_epi64(record, _mm512_add_epi64(j, _mm512_set1_epi64(2))),
                        base,
                    ),
                )
            };
            // Sub-block count `j - 1` sits at bit `9 (j - 1)` of `subs`;
            // for `j == 0` the shift wraps past 63, which `vpsrlvq` turns
            // into 0 — the count before the block's first word.
            let nine_j = _mm512_add_epi64(_mm512_slli_epi64::<3>(j), j);
            let sub = _mm512_and_si512(
                _mm512_srlv_epi64(subs, _mm512_sub_epi64(nine_j, _mm512_set1_epi64(9))),
                _mm512_set1_epi64(0x1FF),
            );
            let shift = _mm512_and_si512(at, _mm512_set1_epi64(63));
            // The word's bits below the position.
            let below = _mm512_andnot_si512(_mm512_sllv_epi64(_mm512_set1_epi64(-1), shift), word);
            let ones = _mm512_add_epi64(_mm512_add_epi64(abs, sub), _mm512_popcnt_epi64(below));
            let bit = _mm512_test_epi64_mask(_mm512_srlv_epi64(word, shift), _mm512_set1_epi64(1));
            (ones, bit, inside)
        }
    }

    /// `WaveletMatrix::access_levels`, eight units a step.
    #[target_feature(enable = "avx512f,avx512vpopcntdq")]
    pub(super) fn access(levels: &[RankBits], zeros: &[usize], units: &mut [(u32, u32)]) {
        let low = _mm512_set1_epi64(i64::from(u32::MAX));
        let symbol_one = _mm512_set1_epi64(1 << 32);
        for (lvl, &z) in levels.iter().zip(zeros) {
            let level = Level::new(lvl);
            let z = _mm512_set1_epi64(z as i64);
            for chunk in units.chunks_mut(8) {
                let active = lanes(chunk.len());
                let lane = chunk.as_mut_ptr().cast::<i64>();
                // SAFETY: `active` covers the chunk's `len() <= 8` units,
                // eight bytes each, and nothing past them.
                let unit = unsafe { _mm512_maskz_loadu_epi64(active, lane) };
                let at = _mm512_and_si512(unit, low);
                let (ones, bit, _) = level.rank1_get(at, active);
                let next = _mm512_mask_blend_epi64(
                    bit,
                    _mm512_sub_epi64(at, ones),
                    _mm512_add_epi64(z, ones),
                );
                let sym = _mm512_or_si512(
                    _mm512_slli_epi64::<1>(_mm512_andnot_si512(low, unit)),
                    _mm512_maskz_mov_epi64(bit, symbol_one),
                );
                let unit = _mm512_or_si512(sym, _mm512_and_si512(next, low));
                // SAFETY: the units loaded above, under the same mask.
                unsafe { _mm512_mask_storeu_epi64(lane, active, unit) };
            }
        }
    }

    /// `WaveletMatrix::rank_levels`, eight positions a step.
    #[target_feature(enable = "avx512f,avx512vpopcntdq")]
    pub(super) fn rank(levels: &[RankBits], zeros: &[usize], sym: u64, positions: &mut [usize]) {
        let width = levels.len();
        let mut start = 0usize;
        for (l, (lvl, &z)) in levels.iter().zip(zeros).enumerate() {
            let level = Level::new(lvl);
            let one = (sym >> (width - 1 - l)) & 1 == 1;
            // `rank1(len)`, which has no record when `len` ends one.
            let all_ones = _mm512_set1_epi64(lvl.count_ones() as i64);
            let zv = _mm512_set1_epi64(z as i64);
            for chunk in positions.chunks_mut(8) {
                let active = lanes(chunk.len());
                let lane = chunk.as_mut_ptr().cast::<i64>();
                // SAFETY: `active` covers the chunk's `len() <= 8`
                // positions, eight bytes each on x86-64, and nothing past
                // them.
                let at = unsafe { _mm512_maskz_loadu_epi64(active, lane) };
                let (ones, _, inside) = level.rank1_get(at, active);
                let ones = _mm512_mask_blend_epi64(inside, all_ones, ones);
                let next = if one {
                    _mm512_add_epi64(zv, ones)
                } else {
                    _mm512_sub_epi64(at, ones)
                };
                // SAFETY: the positions loaded above, under the same mask.
                unsafe { _mm512_mask_storeu_epi64(lane, active, next) };
            }
            start = if one {
                z + lvl.rank1(start)
            } else {
                lvl.rank0(start)
            };
        }
        for p in positions {
            *p -= start;
        }
    }
}
