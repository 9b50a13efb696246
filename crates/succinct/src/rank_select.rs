//! Immutable bit vector with constant-time `rank` and sampled-select.
//!
//! Layout (fully interleaved): the bits and their rank directory live in
//! **one** array. Each 512-bit superblock occupies ten consecutive words
//! — one `u64` absolute cumulative count, one `u64` packing seven 9-bit
//! sub-block counters (cumulative popcounts of the first 1..=7 words),
//! then the eight payload words. A `rank` therefore touches a single
//! superblock record (two cache lines at worst, one when the queried
//! word sits early in the block) instead of three separate arrays —
//! true *O*(1), as in the structures of Clark \[10\] and Munro \[39\]
//! the paper cites. Space overhead: 2 words per 8 words of bits (25 %).
//!
//! `select1`/`select0` use a **sampled directory**: the superblock of
//! every `sample_rate`-th one (zero) is recorded, so a query is one
//! sample lookup, a short superblock hunt bounded by the sample window
//! (linear when the window is small, binary otherwise), a sub-block
//! scan over the packed counters, and a branch-free broadword in-word
//! select. [`RankSelect::rank1_pair`] answers both ends of a range from
//! one directory probe when they share a superblock — the common case
//! in wavelet-matrix traversals over small ranges.

use crate::storage::Slab;
use crate::{BitVec, SpaceUsage};

const WORDS_PER_SUPER: usize = 8; // 512-bit superblocks
/// Words per interleaved superblock record: absolute count, packed
/// sub-block counters, then the payload words.
const SUPER_STRIDE: usize = WORDS_PER_SUPER + 2;
const BITS_PER_SUPER: usize = WORDS_PER_SUPER * 64;

/// Bounds for the **adaptive** select sampling rate [`RankSelect::new`]
/// picks: the rate is chosen per bit kind so that the expected hunt
/// window is ~2 superblocks (≈ 2 directory probes per select) while the
/// sample directory stays a fraction of a percent of the bits.
/// [`RankSelect::with_select_sample`] overrides it.
pub const MIN_SELECT_SAMPLE: usize = 16;
/// Upper bound of the adaptive sampling rate.
pub const MAX_SELECT_SAMPLE: usize = 1 << 16;
/// Target hunt-window width, in superblocks.
const TARGET_WINDOW: usize = 1;

/// Window length up to which the superblock hunt scans linearly; longer
/// windows binary-search (sparse or highly skewed vectors).
const LINEAR_HUNT: usize = 8;

/// An immutable bit vector supporting `rank` and `select`.
#[derive(Clone, Debug)]
pub struct RankSelect {
    /// Interleaved superblock records: `[abs, subs, w0..w7]` per block.
    /// `abs` = ones strictly before the block; `subs` packs, in 9-bit
    /// fields, the cumulative popcounts of the block's first 1..=7 words.
    /// A [`Slab`] so a mapped index file can back it in place.
    data: Slab<u64>,
    len: usize,
    n_ones: usize,
    /// `select1_samples[m]` = superblock holding the `m·rate1`-th one.
    select1_samples: Slab<u32>,
    /// `select0_samples[m]` = superblock holding the `m·rate0`-th zero.
    select0_samples: Slab<u32>,
    rate1: usize,
    rate0: usize,
}

impl RankSelect {
    /// Builds the rank/select directories for `bits`, picking the select
    /// sampling rate adaptively per bit kind: every
    /// `TARGET_WINDOW · 512 · density`-th position is sampled (clamped to
    /// `[MIN_SELECT_SAMPLE, MAX_SELECT_SAMPLE]`), so the superblock hunt
    /// is ~2 probes at any density.
    pub fn new(bits: BitVec) -> Self {
        Self::build(bits, None)
    }

    /// Builds with an explicit select sampling rate (`>= 1`) for both bit
    /// kinds: the superblock of every `sample_rate`-th one/zero is
    /// indexed. This is the space/time knob of the select directory;
    /// [`Self::new`] picks it adaptively.
    pub fn with_select_sample(bits: BitVec, sample_rate: usize) -> Self {
        assert!(sample_rate >= 1, "select sample rate must be positive");
        Self::build(bits, Some(sample_rate))
    }

    fn build(bits: BitVec, sample_rate: Option<usize>) -> Self {
        let (words, len) = bits.into_raw();
        let n_super = words.len().div_ceil(WORDS_PER_SUPER);
        let mut data = Vec::with_capacity(n_super * SUPER_STRIDE);
        let mut acc = 0u64;
        for chunk in words.chunks(WORDS_PER_SUPER) {
            data.push(acc);
            let mut packed = 0u64;
            let mut within = 0u64;
            for (j, &w) in chunk.iter().enumerate() {
                within += w.count_ones() as u64;
                if j < 7 {
                    packed |= within << (9 * j);
                }
            }
            // Saturate the trailing fields of a partial final block so the
            // branch-free sub-block comparisons see a nondecreasing
            // cumulative sequence, not zeros.
            for j in chunk.len()..7 {
                packed |= within << (9 * j);
            }
            data.push(packed);
            data.extend_from_slice(chunk);
            // Zero-pad the final block so every record has eight words.
            data.resize(data.len() + (WORDS_PER_SUPER - chunk.len()), 0);
            acc += within;
        }
        let n_ones = acc as usize;
        let adaptive = |count: usize| {
            (TARGET_WINDOW * BITS_PER_SUPER * count / len.max(1))
                .clamp(MIN_SELECT_SAMPLE, MAX_SELECT_SAMPLE)
        };
        let rate1 = sample_rate.unwrap_or_else(|| adaptive(n_ones));
        let rate0 = sample_rate.unwrap_or_else(|| adaptive(len - n_ones));
        let mut rs = Self {
            data: data.into(),
            len,
            n_ones,
            select1_samples: Slab::new(),
            select0_samples: Slab::new(),
            rate1,
            rate0,
        };
        let (s1, s0) = rs.compute_select_samples();
        rs.select1_samples = s1.into();
        rs.select0_samples = s0.into();
        rs
    }

    fn compute_select_samples(&self) -> (Vec<u32>, Vec<u32>) {
        let n_super = self.n_super();
        let mut sel1 = Vec::new();
        let mut sel0 = Vec::new();
        let mut next1 = 0usize;
        let mut next0 = 0usize;
        let n_zeros = self.count_zeros();
        for s in 0..n_super {
            let ones_before = self.abs(s);
            let ones_after = if s + 1 < n_super {
                self.abs(s + 1)
            } else {
                self.n_ones
            };
            while next1 < self.n_ones && next1 < ones_after {
                debug_assert!(next1 >= ones_before);
                sel1.push(s as u32);
                next1 += self.rate1;
            }
            // Zeros are counted over the logical length only; the final
            // (partial) superblock holds all remaining zeros.
            let zeros_before = s * BITS_PER_SUPER - ones_before;
            let zeros_after = if s + 1 < n_super {
                (s + 1) * BITS_PER_SUPER - ones_after
            } else {
                n_zeros
            };
            let zeros_after = zeros_after.min(n_zeros);
            while next0 < n_zeros && next0 < zeros_after {
                debug_assert!(next0 >= zeros_before);
                sel0.push(s as u32);
                next0 += self.rate0;
            }
        }
        (sel1, sel0)
    }

    /// Internal views of the directory arrays, for the mapped on-disk
    /// format writer ([`crate::mapped`]).
    pub(crate) fn raw_parts(&self) -> (&Slab<u64>, &Slab<u32>, &Slab<u32>) {
        (&self.data, &self.select1_samples, &self.select0_samples)
    }

    /// Reassembles a vector from stored parts — the mapped-format load
    /// path, where the slabs may point straight into a mapped file.
    ///
    /// Performs the structural validation that keeps queries in bounds
    /// (sizes, rates, sample counts/monotonicity); in debug builds it
    /// additionally re-derives the whole directory from the payload
    /// words ([`Self::verify_deep`]), which an always-on check can't
    /// afford because it would fault in every page of a mapped index.
    pub(crate) fn from_raw_parts(
        data: Slab<u64>,
        len: usize,
        n_ones: usize,
        select1_samples: Slab<u32>,
        select0_samples: Slab<u32>,
        rate1: usize,
        rate0: usize,
    ) -> Result<Self, &'static str> {
        let n_super = len.div_ceil(64).div_ceil(WORDS_PER_SUPER);
        if data.len() != n_super * SUPER_STRIDE {
            return Err("rank/select data length does not match bit length");
        }
        if n_ones > len {
            return Err("rank/select one-count exceeds bit length");
        }
        if rate1 == 0 || rate0 == 0 {
            return Err("rank/select sample rate must be positive");
        }
        let expect = |count: usize, rate: usize| count.div_ceil(rate);
        if select1_samples.len() != expect(n_ones, rate1)
            || select0_samples.len() != expect(len - n_ones, rate0)
        {
            return Err("rank/select sample directory has wrong length");
        }
        for samples in [&select1_samples, &select0_samples] {
            let mut prev = 0u32;
            for &s in samples.iter() {
                if (s as usize) >= n_super || s < prev {
                    return Err("rank/select sample directory is not monotone in range");
                }
                prev = s;
            }
        }
        let rs = Self {
            data,
            len,
            n_ones,
            select1_samples,
            select0_samples,
            rate1,
            rate0,
        };
        #[cfg(debug_assertions)]
        rs.verify_deep()?;
        Ok(rs)
    }

    /// Recomputes the full rank directory and both select directories
    /// from the payload words and compares them with the stored ones.
    /// O(data) — debug builds and tests only.
    #[allow(dead_code)]
    pub(crate) fn verify_deep(&self) -> Result<(), &'static str> {
        let mut acc = 0u64;
        for s in 0..self.n_super() {
            let base = s * SUPER_STRIDE;
            if self.data[base] != acc {
                return Err("rank directory absolute count mismatch");
            }
            let mut packed = 0u64;
            let mut within = 0u64;
            for j in 0..WORDS_PER_SUPER {
                within += self.data[base + 2 + j].count_ones() as u64;
                if j < 7 {
                    packed |= within << (9 * j);
                }
            }
            if self.data[base + 1] != packed {
                return Err("rank directory sub-block counters mismatch");
            }
            acc += within;
        }
        if acc as usize != self.n_ones {
            return Err("rank directory total does not match one-count");
        }
        // Bits past the logical length must be zero (the build path's
        // zero padding); rank/select never read them but a nonzero tail
        // means the file was not produced by this writer.
        if !self.len.is_multiple_of(64) && self.n_bit_words() > 0 {
            let last = self.bit_word(self.n_bit_words() - 1);
            if last >> (self.len % 64) != 0 {
                return Err("bits past the logical length are not zero");
            }
        }
        for w in self.n_bit_words()..self.n_super() * WORDS_PER_SUPER {
            if self.bit_word(w) != 0 {
                return Err("superblock padding words are not zero");
            }
        }
        let (sel1, sel0) = self.compute_select_samples();
        if self.select1_samples[..] != sel1[..] || self.select0_samples[..] != sel0[..] {
            return Err("select sample directory mismatch");
        }
        Ok(())
    }

    #[inline]
    fn n_super(&self) -> usize {
        self.data.len() / SUPER_STRIDE
    }

    /// Absolute one-count before superblock `s`.
    #[inline]
    fn abs(&self, s: usize) -> usize {
        self.data[s * SUPER_STRIDE] as usize
    }

    /// Number of bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the vector holds no bits.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total number of set bits.
    #[inline]
    pub fn count_ones(&self) -> usize {
        self.n_ones
    }

    /// Total number of clear bits.
    #[inline]
    pub fn count_zeros(&self) -> usize {
        self.len - self.n_ones
    }

    /// The select sampling rates `(ones, zeros)` this vector was built
    /// with (equal when set explicitly, density-adapted otherwise).
    #[inline]
    pub fn select_sample_rates(&self) -> (usize, usize) {
        (self.rate1, self.rate0)
    }

    /// Returns the bit at `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        (self.bit_word(i / 64) >> (i % 64)) & 1 == 1
    }

    /// The `w`-th payload word (64 bits of the vector), `w < n_bit_words`.
    #[inline]
    pub fn bit_word(&self, w: usize) -> u64 {
        self.data[(w / WORDS_PER_SUPER) * SUPER_STRIDE + 2 + (w % WORDS_PER_SUPER)]
    }

    /// Number of payload words (`⌈len/64⌉`).
    #[inline]
    pub fn n_bit_words(&self) -> usize {
        self.len.div_ceil(64)
    }

    /// Number of ones in `[0, i)`. `i` may equal `len`. *O*(1): one
    /// superblock record read and one masked popcount.
    #[inline]
    pub fn rank1(&self, i: usize) -> usize {
        debug_assert!(i <= self.len, "rank index {i} > len {}", self.len);
        if i == self.len {
            return self.n_ones;
        }
        let word = i / 64;
        let base = (word / WORDS_PER_SUPER) * SUPER_STRIDE;
        let j = word % WORDS_PER_SUPER;
        let mut r = self.data[base] as usize;
        if j > 0 {
            r += ((self.data[base + 1] >> (9 * (j - 1))) & 0x1FF) as usize;
        }
        let rem = i % 64;
        if rem != 0 {
            r += (self.data[base + 2 + j] & ((1u64 << rem) - 1)).count_ones() as usize;
        }
        r
    }

    /// Number of zeros in `[0, i)`.
    #[inline]
    pub fn rank0(&self, i: usize) -> usize {
        i - self.rank1(i)
    }

    /// `(rank1(i), get(i))` for `i < len` from one superblock record: the
    /// step of a wavelet descent that follows a single position.
    #[inline]
    pub fn rank1_get(&self, i: usize) -> (usize, bool) {
        debug_assert!(i < self.len);
        let word = i / 64;
        let base = (word / WORDS_PER_SUPER) * SUPER_STRIDE;
        let j = word % WORDS_PER_SUPER;
        let mut r = self.data[base] as usize;
        if j > 0 {
            r += ((self.data[base + 1] >> (9 * (j - 1))) & 0x1FF) as usize;
        }
        let word = self.data[base + 2 + j];
        let from_i = word >> (i % 64);
        // Clearing the bits from `i` up leaves the `i % 64` bits below it.
        let below = word ^ (from_i << (i % 64));
        (r + below.count_ones() as usize, from_i & 1 == 1)
    }

    /// `(rank1(b), rank1(e))` for `b <= e`, from a single directory probe
    /// when both positions fall in the same superblock — the common case
    /// for the short ranges a wavelet-matrix traversal produces.
    #[inline]
    pub fn rank1_pair(&self, b: usize, e: usize) -> (usize, usize) {
        debug_assert!(b <= e && e <= self.len);
        if e == self.len || b / BITS_PER_SUPER != e / BITS_PER_SUPER {
            return (self.rank1(b), self.rank1(e));
        }
        let base = (b / BITS_PER_SUPER) * SUPER_STRIDE;
        let abs = self.data[base] as usize;
        let subs = self.data[base + 1];
        let one = |i: usize| {
            let j = (i / 64) % WORDS_PER_SUPER;
            let mut r = abs;
            if j > 0 {
                r += ((subs >> (9 * (j - 1))) & 0x1FF) as usize;
            }
            let rem = i % 64;
            if rem != 0 {
                r += (self.data[base + 2 + j] & ((1u64 << rem) - 1)).count_ones() as usize;
            }
            r
        };
        (one(b), one(e))
    }

    /// `(rank0(b), rank0(e))`, sharing the directory probe like
    /// [`Self::rank1_pair`].
    #[inline]
    pub fn rank0_pair(&self, b: usize, e: usize) -> (usize, usize) {
        let (rb, re) = self.rank1_pair(b, e);
        (b - rb, e - re)
    }

    /// Position of the first set bit at or after `from`, reading at most
    /// `max_words` payload words; `None` when those hold none or the
    /// vector ends first. Where ones are rarely far apart this replaces
    /// the second `select1` of a pair of consecutive ones.
    #[inline]
    pub fn next_one_within(&self, from: usize, max_words: usize) -> Option<usize> {
        let first = from / 64;
        let mut mask = !0u64 << (from % 64);
        for w in first..(first + max_words).min(self.n_bit_words()) {
            let word = self.bit_word(w) & mask;
            if word != 0 {
                return Some(w * 64 + word.trailing_zeros() as usize);
            }
            mask = !0;
        }
        None
    }

    /// Whether `b` and `e` share a superblock (their rank pair costs one
    /// directory probe).
    #[inline]
    pub fn same_superblock(b: usize, e: usize) -> bool {
        b / BITS_PER_SUPER == e / BITS_PER_SUPER
    }

    /// Position of the `k`-th one (0-based): the returned position `p`
    /// satisfies `rank1(p) == k` and `get(p) == true`. Returns `None` if
    /// fewer than `k + 1` ones exist. Sample lookup + bounded superblock
    /// hunt + broadword in-word select.
    pub fn select1(&self, k: usize) -> Option<usize> {
        if k >= self.n_ones {
            return None;
        }
        let m = k / self.rate1;
        let lo = self.select1_samples[m] as usize;
        let hi = self
            .select1_samples
            .get(m + 1)
            .map_or(self.n_super() - 1, |&s| s as usize);
        // Largest superblock with abs <= k within [lo, hi].
        let sup = self.hunt(lo, hi, |s| self.abs(s) <= k);
        let mut remaining = k - self.abs(sup);
        let base = sup * SUPER_STRIDE;
        let packed = self.data[base + 1];
        // Branch-free sub-block: count the 9-bit cumulative fields <= r.
        let j = uleq_step_9(packed, (remaining as u64) * ONES_STEP_9).count_ones() as usize;
        if j > 0 {
            remaining -= ((packed >> (9 * (j - 1))) & 0x1FF) as usize;
        }
        let word = sup * WORDS_PER_SUPER + j;
        Some(word * 64 + select_in_word(self.data[base + 2 + j], remaining as u32) as usize)
    }

    /// Position of the `k`-th zero (0-based). Returns `None` if fewer than
    /// `k + 1` zeros exist.
    pub fn select0(&self, k: usize) -> Option<usize> {
        if k >= self.count_zeros() {
            return None;
        }
        let m = k / self.rate0;
        let lo = self.select0_samples[m] as usize;
        let hi = self
            .select0_samples
            .get(m + 1)
            .map_or(self.n_super() - 1, |&s| s as usize);
        let zeros_before = |s: usize| s * BITS_PER_SUPER - self.abs(s);
        let sup = self.hunt(lo, hi, |s| zeros_before(s) <= k);
        let mut remaining = k - zeros_before(sup);
        let base = sup * SUPER_STRIDE;
        // Cumulative zero counts per sub-block: field-wise 64·(j+1) minus
        // the packed one counts (no borrows cross fields: ones <= 64·(j+1)).
        let zpacked = ZEROS_CUM_STEP_9 - self.data[base + 1];
        let j = uleq_step_9(zpacked, (remaining as u64) * ONES_STEP_9).count_ones() as usize;
        if j > 0 {
            remaining -= ((zpacked >> (9 * (j - 1))) & 0x1FF) as usize;
        }
        let word = sup * WORDS_PER_SUPER + j;
        let pos = word * 64 + select_in_word(!self.data[base + 2 + j], remaining as u32) as usize;
        debug_assert!(pos < self.len);
        Some(pos)
    }

    /// Largest `s` in `[lo, hi]` with `below(s)` true (`below` is
    /// monotone and true at `lo`): linear scan for short windows, binary
    /// search otherwise.
    #[inline]
    fn hunt(&self, lo: usize, hi: usize, below: impl Fn(usize) -> bool) -> usize {
        debug_assert!(below(lo));
        if hi - lo <= LINEAR_HUNT {
            let mut s = lo;
            while s < hi && below(s + 1) {
                s += 1;
            }
            return s;
        }
        let (mut lo, mut hi) = (lo, hi);
        while lo < hi {
            let mid = (lo + hi).div_ceil(2);
            if below(mid) {
                lo = mid;
            } else {
                hi = mid - 1;
            }
        }
        lo
    }
}

impl SpaceUsage for RankSelect {
    fn size_bytes(&self) -> usize {
        self.data.size_bytes()
            + self.select1_samples.size_bytes()
            + self.select0_samples.size_bytes()
    }
}

const ONES_STEP_8: u64 = 0x0101_0101_0101_0101;
const MSBS_STEP_8: u64 = 0x8080_8080_8080_8080;

/// 1 in the low bit of each of the seven 9-bit sub-block fields.
const ONES_STEP_9: u64 = 1 | (1 << 9) | (1 << 18) | (1 << 27) | (1 << 36) | (1 << 45) | (1 << 54);
/// Top bit (bit 8) of each 9-bit field.
const MSBS_STEP_9: u64 = 0x100 * ONES_STEP_9;
/// Field `j` holds `64 * (j + 1)`: the bit capacity of the first `j + 1`
/// words of a superblock, packed like the sub-block counters.
const ZEROS_CUM_STEP_9: u64 = {
    let mut v = 0u64;
    let mut j = 0;
    while j < 7 {
        v |= (64 * (j as u64 + 1)) << (9 * j);
        j += 1;
    }
    v
};

/// Per-field `x <= y` over the seven 9-bit lanes: returns the fields'
/// top bits set where the comparison holds (Vigna's `ULEQ_STEP_9`).
#[inline]
fn uleq_step_9(x: u64, y: u64) -> u64 {
    ((((y | MSBS_STEP_9) - (x & !MSBS_STEP_9)) | (x ^ y)) ^ (x & !y)) & MSBS_STEP_9
}

/// `SELECT_IN_BYTE[r * 256 + b]` = position of the `r`-th set bit of
/// byte `b` (entries with fewer than `r + 1` set bits are unused).
static SELECT_IN_BYTE: [u8; 2048] = build_select_in_byte();

const fn build_select_in_byte() -> [u8; 2048] {
    let mut t = [0u8; 2048];
    let mut b = 0usize;
    while b < 256 {
        let mut rank = 0usize;
        let mut i = 0usize;
        while i < 8 {
            if (b >> i) & 1 == 1 {
                t[rank * 256 + b] = i as u8;
                rank += 1;
            }
            i += 1;
        }
        b += 1;
    }
    t
}

/// Position (0..64) of the `k`-th set bit of `w` (0-based). `w` must have
/// more than `k` set bits. Branch-free broadword byte ranking (Vigna's
/// select-in-word) finished with a 2 KiB select-in-byte table.
#[inline]
pub fn select_in_word(w: u64, k: u32) -> u32 {
    debug_assert!(w.count_ones() > k);
    // Sideways addition: byte i of `byte_sums` = popcount of bytes 0..=i.
    let mut s = w - ((w >> 1) & 0x5555_5555_5555_5555);
    s = (s & 0x3333_3333_3333_3333) + ((s >> 2) & 0x3333_3333_3333_3333);
    s = (s + (s >> 4)) & 0x0F0F_0F0F_0F0F_0F0F;
    let byte_sums = s.wrapping_mul(ONES_STEP_8);
    // Byte containing the k-th one: count bytes whose cumulative sum <= k.
    let k_step_8 = (k as u64) * ONES_STEP_8;
    let geq = ((k_step_8 | MSBS_STEP_8) - byte_sums) & MSBS_STEP_8;
    let place = ((geq >> 7).wrapping_mul(ONES_STEP_8) >> 53) & !0x7;
    let byte_rank = (k as u64) - (((byte_sums << 8) >> place) & 0xFF);
    let byte = (w >> place) & 0xFF;
    place as u32 + SELECT_IN_BYTE[(byte_rank as usize) * 256 + byte as usize] as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_rank1(bits: &[bool], i: usize) -> usize {
        bits[..i].iter().filter(|&&b| b).count()
    }

    fn make(pattern: impl Fn(usize) -> bool, n: usize) -> (Vec<bool>, RankSelect) {
        let bits: Vec<bool> = (0..n).map(pattern).collect();
        let rs = RankSelect::new(BitVec::from_bits(bits.iter().copied()));
        (bits, rs)
    }

    #[test]
    fn rank_matches_naive() {
        let (bits, rs) = make(|i| i % 3 == 0 || i % 11 == 5, 3000);
        for i in 0..=3000 {
            assert_eq!(rs.rank1(i), naive_rank1(&bits, i), "rank1({i})");
            assert_eq!(rs.rank0(i), i - naive_rank1(&bits, i), "rank0({i})");
        }
        assert_eq!(rs.rank1(3000), rs.count_ones());
    }

    #[test]
    fn rank_dense_and_sparse() {
        let (bits, rs) = make(|_| true, 1333);
        for i in (0..=1333).step_by(11) {
            assert_eq!(rs.rank1(i), naive_rank1(&bits, i));
        }
        let (bits, rs) = make(|i| i == 512 || i == 1024, 1500);
        for i in (0..=1500).step_by(7) {
            assert_eq!(rs.rank1(i), naive_rank1(&bits, i));
        }
    }

    #[test]
    fn rank1_pair_matches_two_ranks() {
        let (_, rs) = make(|i| i % 7 == 0 || i % 13 == 3, 4000);
        for b in (0..=4000).step_by(17) {
            for e in [b, b + 1, b + 63, b + 300, b + 700, 4000] {
                let e = e.min(4000);
                if e < b {
                    continue;
                }
                assert_eq!(
                    rs.rank1_pair(b, e),
                    (rs.rank1(b), rs.rank1(e)),
                    "rank1_pair({b}, {e})"
                );
                assert_eq!(rs.rank0_pair(b, e), (rs.rank0(b), rs.rank0(e)));
            }
        }
    }

    #[test]
    fn rank1_get_matches_rank_and_get() {
        let (bits, rs) = make(
            |i| i % 7 == 0 || i % 13 == 3 || (600..700).contains(&i),
            2100,
        );
        for (i, &bit) in bits.iter().enumerate() {
            assert_eq!(
                rs.rank1_get(i),
                (naive_rank1(&bits, i), bit),
                "position {i}"
            );
        }
    }

    #[test]
    fn next_one_within_finds_the_next_one_or_gives_up() {
        let ones = [0usize, 5, 63, 64, 200, 1023, 1024, 2999];
        let (_, rs) = make(|i| ones.contains(&i), 3000);
        for from in 0..=3000 {
            let next = ones.iter().copied().find(|&p| p >= from);
            for max_words in [1usize, 2, 4, 64] {
                // Words `from / 64 ..` are read, `max_words` of them.
                let horizon = (from / 64 + max_words) * 64;
                let want = next.filter(|&p| p < horizon);
                assert_eq!(
                    rs.next_one_within(from, max_words),
                    want,
                    "from {from}, {max_words} words"
                );
            }
        }
    }

    #[test]
    fn select1_inverts_rank1() {
        let (bits, rs) = make(|i| i % 5 == 1, 2500);
        let ones: Vec<usize> = (0..2500).filter(|&i| bits[i]).collect();
        for (k, &pos) in ones.iter().enumerate() {
            assert_eq!(rs.select1(k), Some(pos), "select1({k})");
            assert_eq!(rs.rank1(pos), k);
        }
        assert_eq!(rs.select1(ones.len()), None);
    }

    #[test]
    fn select0_inverts_rank0() {
        let (bits, rs) = make(|i| i % 4 != 2, 2048);
        let zeros: Vec<usize> = (0..2048).filter(|&i| !bits[i]).collect();
        for (k, &pos) in zeros.iter().enumerate() {
            assert_eq!(rs.select0(k), Some(pos), "select0({k})");
        }
        assert_eq!(rs.select0(zeros.len()), None);
    }

    #[test]
    fn select_with_small_sample_rates() {
        // Tiny rates exercise sample-window boundaries exactly.
        let bits: Vec<bool> = (0..6000).map(|i| i % 37 == 0 || i % 5 == 2).collect();
        for rate in [1, 2, 7, 64, 512] {
            let rs = RankSelect::with_select_sample(BitVec::from_bits(bits.iter().copied()), rate);
            assert_eq!(rs.select_sample_rates(), (rate, rate));
            let ones: Vec<usize> = (0..6000).filter(|&i| bits[i]).collect();
            for (k, &pos) in ones.iter().enumerate() {
                assert_eq!(rs.select1(k), Some(pos), "rate {rate} select1({k})");
            }
            let zeros: Vec<usize> = (0..6000).filter(|&i| !bits[i]).collect();
            for (k, &pos) in zeros.iter().enumerate().step_by(11) {
                assert_eq!(rs.select0(k), Some(pos), "rate {rate} select0({k})");
            }
        }
    }

    #[test]
    fn select_on_long_sparse_vector_hunts_binary() {
        // Ones far apart force sample windows wider than LINEAR_HUNT.
        let n = 200_000;
        let (bits, rs) = make(|i| i % 9973 == 17, n);
        let ones: Vec<usize> = (0..n).filter(|&i| bits[i]).collect();
        for (k, &pos) in ones.iter().enumerate() {
            assert_eq!(rs.select1(k), Some(pos), "select1({k})");
        }
    }

    #[test]
    fn all_ones_and_all_zeros() {
        let (_, ones) = make(|_| true, 700);
        assert_eq!(ones.count_ones(), 700);
        assert_eq!(ones.select1(699), Some(699));
        assert_eq!(ones.select0(0), None);

        let (_, zeros) = make(|_| false, 700);
        assert_eq!(zeros.count_ones(), 0);
        assert_eq!(zeros.select0(699), Some(699));
        assert_eq!(zeros.select1(0), None);
    }

    #[test]
    fn empty_vector() {
        let rs = RankSelect::new(BitVec::new());
        assert_eq!(rs.len(), 0);
        assert_eq!(rs.rank1(0), 0);
        assert_eq!(rs.select1(0), None);
        assert_eq!(rs.select0(0), None);
        assert_eq!(rs.n_bit_words(), 0);
    }

    #[test]
    fn bit_words_roundtrip() {
        let bits: Vec<bool> = (0..777).map(|i| i % 3 == 1).collect();
        let bv = BitVec::from_bits(bits.iter().copied());
        let expected: Vec<u64> = bv.words().to_vec();
        let rs = RankSelect::new(bv);
        assert_eq!(rs.n_bit_words(), expected.len());
        let got: Vec<u64> = (0..rs.n_bit_words()).map(|w| rs.bit_word(w)).collect();
        assert_eq!(got, expected);
        for (i, &b) in bits.iter().enumerate() {
            assert_eq!(rs.get(i), b, "bit {i}");
        }
    }

    #[test]
    fn select_in_word_all_positions() {
        let w = 0b1011_0100_1000_0001u64;
        let positions: Vec<u32> = (0..64).filter(|&i| (w >> i) & 1 == 1).collect();
        for (k, &p) in positions.iter().enumerate() {
            assert_eq!(select_in_word(w, k as u32), p);
        }
        assert_eq!(select_in_word(u64::MAX, 63), 63);
        assert_eq!(select_in_word(1 << 63, 0), 63);
    }

    #[test]
    fn select_in_word_exhaustive_small() {
        // Every 16-bit pattern, every valid k, against a naive scan.
        for w16 in 0u64..(1 << 16) {
            let w = w16 | (w16 << 40);
            let mut k = 0;
            for i in 0..64 {
                if (w >> i) & 1 == 1 {
                    assert_eq!(select_in_word(w, k), i, "w={w:#x} k={k}");
                    k += 1;
                }
            }
        }
    }

    #[test]
    fn superblock_boundaries() {
        // Ones exactly at superblock boundaries (multiples of 512).
        let (bits, rs) = make(|i| i % 512 == 0, 512 * 5 + 3);
        for i in 0..=(512 * 5 + 3) {
            assert_eq!(rs.rank1(i), naive_rank1(&bits, i), "rank1({i})");
        }
        for k in 0..rs.count_ones() {
            assert_eq!(rs.select1(k), Some(k * 512));
        }
    }

    #[test]
    fn partial_final_superblock() {
        // Length not a multiple of 512 with ones in the tail words.
        let (bits, rs) = make(|i| i % 2 == 0, 512 + 200);
        for i in 0..=(512 + 200) {
            assert_eq!(rs.rank1(i), naive_rank1(&bits, i), "rank1({i})");
        }
        let ones: Vec<usize> = (0..712).filter(|&i| bits[i]).collect();
        for (k, &pos) in ones.iter().enumerate() {
            assert_eq!(rs.select1(k), Some(pos));
        }
    }
}
