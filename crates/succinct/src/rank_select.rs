//! Immutable bit vectors: [`RankBits`] with constant-time `rank`, and
//! [`RankSelect`], the same plus sampled `select`.
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
//! [`RankBits::rank1_pair`] answers both ends of a range from one
//! directory probe when they share a superblock — the common case in
//! wavelet-matrix traversals over small ranges.
//!
//! Only [`RankSelect`] has `select1`/`select0`, over a **sampled
//! directory** beside the records: the superblock of every
//! `sample_rate`-th one (zero) is recorded, so a query is one sample
//! lookup, a short superblock hunt bounded by the sample window (linear
//! when the window is small, binary otherwise), a sub-block scan over
//! the packed counters, and a branch-free broadword in-word select. The
//! ring's unary `C_o` is one; a wavelet-matrix level is a [`RankBits`]
//! and stores no samples, since the backward search only ranks.
//!
//! # The popcount instruction, where the CPU has one
//!
//! Every rank ends in a `u64::count_ones`. The default x86-64 target
//! predates the `popcnt` instruction, so a plain build compiles each one
//! to a dozen-instruction software sequence, and its binaries held no
//! `popcnt` at all. [`with_popcnt`] runs a batch ([`PopcntKernel`])
//! inside a function compiled with the instruction enabled when
//! `is_x86_feature_detected!` finds it on the running CPU; on any other
//! CPU or architecture the batch runs as compiled. The batched kernels —
//! the wavelet matrix's `access_batch` and `rank_batch` (on batches the
//! AVX-512 level step of [`crate::gather`] does not take), `guided_traverse`
//! (and so `range_distinct`), `range_intersect_from`,
//! [`MultiTraversal::run`](crate::wavelet_matrix::MultiTraversal::run),
//! and the ring's `object_ranges` (part one's `C_o` selects) and
//! `contains` — run through it, so one source is compiled twice and the
//! platform picks the copy; there is no option, feature or build flag.
//! Scalar calls outside them run as compiled. Everything a kernel calls
//! that counts bits (`rank1`, `rank1_get`, `rank1_pair`, `select1`, …,
//! and the `Deref` from [`RankSelect`] to [`RankBits`]) is
//! `#[inline(always)]`, or its popcount would stay in one shared copy
//! built without the instruction. The one `unsafe` block is the call
//! into the feature-enabled copy, made only after the detection
//! succeeded; [`hardware_popcount`] reports which copy runs.

use crate::storage::Slab;
use crate::{BitVec, SpaceUsage};

const WORDS_PER_SUPER: usize = 8; // 512-bit superblocks
/// Words per interleaved superblock record: absolute count, packed
/// sub-block counters, then the payload words.
pub(crate) const SUPER_STRIDE: usize = WORDS_PER_SUPER + 2;
pub(crate) const BITS_PER_SUPER: usize = WORDS_PER_SUPER * 64;

/// Lower bound of the **adaptive** select sampling rate
/// [`RankSelect::new`] picks: the rate is chosen per bit kind so that the
/// expected hunt window is ~2 superblocks (≈ 2 directory probes per
/// select) while the sample directory stays a fraction of a percent of
/// the bits. The rate tops out at `TARGET_WINDOW · 512` (a vector of that
/// bit kind alone).
pub const MIN_SELECT_SAMPLE: usize = 16;
/// Target hunt-window width, in superblocks.
const TARGET_WINDOW: usize = 1;

/// Window length up to which the superblock hunt scans linearly; longer
/// windows binary-search (sparse or highly skewed vectors).
const LINEAR_HUNT: usize = 8;

/// Whether [`with_popcnt`] runs its kernels with the CPU's `popcnt`
/// instruction: the running CPU has it (detected at run time, once, and
/// cached by the standard library). Always `false` off x86.
pub fn hardware_popcount() -> bool {
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    {
        std::arch::is_x86_feature_detected!("popcnt")
    }
    #[cfg(not(any(target_arch = "x86", target_arch = "x86_64")))]
    {
        false
    }
}

/// A batch of ranks and selects for [`with_popcnt`] to run: the batch's
/// inputs as fields, its loop as [`run`](Self::run).
pub trait PopcntKernel {
    /// What the batch returns.
    type Output;

    /// Runs the batch. Implementations are `#[inline(always)]`: that is
    /// what gives [`with_popcnt`] a copy of the body to compile with the
    /// instruction and one to compile without. (A closure would not do:
    /// the compiler may keep a single copy of it, built without the
    /// instruction, and call it from both.) They pass their fields, as
    /// arguments, to an `#[inline(always)]` function holding the loop:
    /// references held in a struct lose what the compiler knows of
    /// reference arguments — that the output does not alias the bit
    /// vectors — and the loop would reload a vector's words pointer at
    /// every rank.
    fn run(self) -> Self::Output;
}

/// Runs `kernel`, compiled with the `popcnt` instruction enabled when
/// the running CPU has it ([`hardware_popcount`]), as compiled
/// otherwise; what the kernel inlines — `rank1`, `rank1_get`,
/// `rank1_pair`, `select1`, … — compiles to the instruction in the
/// first copy. Wrap a whole batch, not one rank: the check is a cached
/// load and a branch.
#[inline]
pub fn with_popcnt<K: PopcntKernel>(kernel: K) -> K::Output {
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    {
        #[target_feature(enable = "popcnt")]
        fn with_instruction<K: PopcntKernel>(kernel: K) -> K::Output {
            kernel.run()
        }
        if hardware_popcount() {
            // SAFETY: the only precondition of calling a
            // `#[target_feature]` function is that the CPU has the
            // feature, and `is_x86_feature_detected!("popcnt")` has just
            // found it does.
            return unsafe { with_instruction(kernel) };
        }
    }
    kernel.run()
}

/// An immutable bit vector supporting `rank`: the bits and their
/// interleaved rank directory, nothing else. What a wavelet-matrix level
/// is — the backward search of §4 only ever ranks one.
#[derive(Clone, Debug)]
pub struct RankBits {
    /// Interleaved superblock records: `[abs, subs, w0..w7]` per block.
    /// `abs` = ones strictly before the block; `subs` packs, in 9-bit
    /// fields, the cumulative popcounts of the block's first 1..=7 words.
    /// A [`Slab`] so a mapped index file can back it in place.
    data: Slab<u64>,
    len: usize,
    n_ones: usize,
}

impl RankBits {
    /// Builds the rank directory for `bits`.
    pub fn new(bits: BitVec) -> Self {
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
        Self {
            data: data.into(),
            len,
            n_ones: acc as usize,
        }
    }

    /// The superblock records, for the mapped on-disk format writer
    /// ([`crate::mapped`]) and the gather step ([`crate::gather`]).
    pub(crate) fn raw_parts(&self) -> &Slab<u64> {
        &self.data
    }

    /// Heap bytes of the records ([`Slab::heap_bytes`]): 0 when they
    /// borrow a mapped file.
    pub fn heap_bytes(&self) -> usize {
        self.data.heap_bytes()
    }

    /// Reassembles a vector from stored parts — the mapped-format load
    /// path, where the records may point straight into a mapped file.
    ///
    /// Checks the sizes that keep queries in bounds; in debug builds it
    /// additionally re-derives the directory from the payload words
    /// ([`Self::verify_deep`]), which an always-on check can't afford
    /// because it would fault in every page of a mapped index.
    pub(crate) fn from_raw_parts(
        data: Slab<u64>,
        len: usize,
        n_ones: usize,
    ) -> Result<Self, &'static str> {
        let n_super = len.div_ceil(64).div_ceil(WORDS_PER_SUPER);
        if data.len() != n_super * SUPER_STRIDE {
            return Err("rank/select data length does not match bit length");
        }
        if n_ones > len {
            return Err("rank/select one-count exceeds bit length");
        }
        let bits = Self { data, len, n_ones };
        #[cfg(debug_assertions)]
        bits.verify_deep()?;
        Ok(bits)
    }

    /// Recomputes the rank directory from the payload words and compares
    /// it with the stored one. O(data) — debug builds and tests only.
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

    /// The superblock record holding bit `i`: one bounds check, after
    /// which the record's ten words index by constants and `word % 8`.
    #[inline(always)]
    fn record(&self, i: usize) -> &[u64; SUPER_STRIDE] {
        &self.data.as_chunks::<SUPER_STRIDE>().0[i / BITS_PER_SUPER]
    }

    /// Number of ones in `[0, i)`. `i` may equal `len`. *O*(1): one
    /// superblock record read and one masked popcount.
    #[inline(always)]
    pub fn rank1(&self, i: usize) -> usize {
        debug_assert!(i <= self.len, "rank index {i} > len {}", self.len);
        if i == self.len {
            return self.n_ones;
        }
        rank_in(self.record(i), i)
    }

    /// Number of zeros in `[0, i)`.
    #[inline(always)]
    pub fn rank0(&self, i: usize) -> usize {
        i - self.rank1(i)
    }

    /// `(rank1(i), get(i))` for `i < len` from one superblock record: the
    /// step of a wavelet descent that follows a single position.
    #[inline(always)]
    pub fn rank1_get(&self, i: usize) -> (usize, bool) {
        debug_assert!(i < self.len);
        let rec = self.record(i);
        let j = (i / 64) % WORDS_PER_SUPER;
        let mut r = rec[0] as usize;
        if j > 0 {
            r += ((rec[1] >> (9 * (j - 1))) & 0x1FF) as usize;
        }
        let word = rec[2 + j];
        let from_i = word >> (i % 64);
        // Clearing the bits from `i` up leaves the `i % 64` bits below it.
        let below = word ^ (from_i << (i % 64));
        (r + below.count_ones() as usize, from_i & 1 == 1)
    }

    /// `(rank1(b), rank1(e))` for `b <= e`, from a single directory probe
    /// when both positions fall in the same superblock — the common case
    /// for the short ranges a wavelet-matrix traversal produces.
    #[inline(always)]
    pub fn rank1_pair(&self, b: usize, e: usize) -> (usize, usize) {
        debug_assert!(b <= e && e <= self.len);
        if e == self.len || b / BITS_PER_SUPER != e / BITS_PER_SUPER {
            return (self.rank1(b), self.rank1(e));
        }
        let rec = self.record(b);
        (rank_in(rec, b), rank_in(rec, e))
    }

    /// `(rank0(b), rank0(e))`, sharing the directory probe like
    /// [`Self::rank1_pair`].
    #[inline(always)]
    pub fn rank0_pair(&self, b: usize, e: usize) -> (usize, usize) {
        let (rb, re) = self.rank1_pair(b, e);
        (b - rb, e - re)
    }

    /// Position of the first set bit at or after `from`, reading at most
    /// `max_words` payload words; `None` when those hold none or the
    /// vector ends first. Where ones are rarely far apart this replaces
    /// the second `select1` of a pair of consecutive ones.
    #[inline(always)]
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
}

impl SpaceUsage for RankBits {
    fn size_bytes(&self) -> usize {
        self.data.size_bytes()
    }
}

/// An immutable bit vector supporting `rank` ([`RankBits`], which it
/// dereferences to) and `select`.
#[derive(Clone, Debug)]
pub struct RankSelect {
    bits: RankBits,
    /// `select1_samples[m]` = superblock holding the `m·rate1`-th one.
    select1_samples: Slab<u32>,
    /// `select0_samples[m]` = superblock holding the `m·rate0`-th zero.
    select0_samples: Slab<u32>,
    rate1: usize,
    rate0: usize,
}

impl std::ops::Deref for RankSelect {
    type Target = RankBits;

    #[inline(always)]
    fn deref(&self) -> &RankBits {
        &self.bits
    }
}

impl RankSelect {
    /// Builds the rank/select directories for `bits`, picking the select
    /// sampling rate adaptively per bit kind: every
    /// `TARGET_WINDOW · 512 · density`-th position is sampled (at least
    /// every [`MIN_SELECT_SAMPLE`]-th), so the superblock hunt is ~2
    /// probes at any density.
    pub fn new(bits: BitVec) -> Self {
        let bits = RankBits::new(bits);
        let adaptive = |count: usize| {
            (TARGET_WINDOW * BITS_PER_SUPER * count / bits.len.max(1)).max(MIN_SELECT_SAMPLE)
        };
        let (rate1, rate0) = (adaptive(bits.n_ones), adaptive(bits.count_zeros()));
        let (s1, s0) = select_samples(&bits, rate1, rate0);
        Self {
            bits,
            select1_samples: s1.into(),
            select0_samples: s0.into(),
            rate1,
            rate0,
        }
    }

    /// Internal views of the directory arrays, for the mapped on-disk
    /// format writer ([`crate::mapped`]).
    pub(crate) fn raw_parts(&self) -> (&RankBits, &Slab<u32>, &Slab<u32>) {
        (&self.bits, &self.select1_samples, &self.select0_samples)
    }

    /// Heap bytes of the arrays ([`Slab::heap_bytes`]): 0 when all of
    /// them borrow a mapped file.
    pub fn heap_bytes(&self) -> usize {
        self.bits.heap_bytes()
            + self.select1_samples.heap_bytes()
            + self.select0_samples.heap_bytes()
    }

    /// Reassembles a vector from stored parts — the mapped-format load
    /// path, where the slabs may point straight into a mapped file.
    ///
    /// Checks what keeps a select in bounds (sample counts at the given
    /// positive rates, and monotonicity); in debug builds it also
    /// re-derives the samples from the rank directory.
    pub(crate) fn from_raw_parts(
        bits: RankBits,
        select1_samples: Slab<u32>,
        select0_samples: Slab<u32>,
        rate1: usize,
        rate0: usize,
    ) -> Result<Self, &'static str> {
        let expect = |count: usize, rate: usize| count.div_ceil(rate);
        if select1_samples.len() != expect(bits.n_ones, rate1)
            || select0_samples.len() != expect(bits.count_zeros(), rate0)
        {
            return Err("rank/select sample directory has wrong length");
        }
        for samples in [&select1_samples, &select0_samples] {
            let mut prev = 0u32;
            for &s in samples.iter() {
                if (s as usize) >= bits.n_super() || s < prev {
                    return Err("rank/select sample directory is not monotone in range");
                }
                prev = s;
            }
        }
        let rs = Self {
            bits,
            select1_samples,
            select0_samples,
            rate1,
            rate0,
        };
        #[cfg(debug_assertions)]
        rs.verify_deep()?;
        Ok(rs)
    }

    /// [`RankBits::verify_deep`], then the select samples recomputed from
    /// the directory and compared with the stored ones. O(data) — debug
    /// builds and tests only.
    #[allow(dead_code)]
    pub(crate) fn verify_deep(&self) -> Result<(), &'static str> {
        self.bits.verify_deep()?;
        let (sel1, sel0) = select_samples(&self.bits, self.rate1, self.rate0);
        if self.select1_samples[..] != sel1[..] || self.select0_samples[..] != sel0[..] {
            return Err("select sample directory mismatch");
        }
        Ok(())
    }

    /// The select sampling rates `(ones, zeros)` this vector was built
    /// with, each adapted to its bit kind's density.
    #[inline]
    pub fn select_sample_rates(&self) -> (usize, usize) {
        (self.rate1, self.rate0)
    }

    /// Position of the `k`-th one (0-based): the returned position `p`
    /// satisfies `rank1(p) == k` and `get(p) == true`. Returns `None` if
    /// fewer than `k + 1` ones exist. Sample lookup + bounded superblock
    /// hunt + broadword in-word select. Inlined into every caller, so that
    /// a [`with_popcnt`] kernel's selects count with the instruction.
    #[inline(always)]
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
        let packed = self.bits.data[base + 1];
        // Branch-free sub-block: count the 9-bit cumulative fields <= r.
        let j = uleq_step_9(packed, (remaining as u64) * ONES_STEP_9).count_ones() as usize;
        if j > 0 {
            remaining -= ((packed >> (9 * (j - 1))) & 0x1FF) as usize;
        }
        let word = sup * WORDS_PER_SUPER + j;
        Some(word * 64 + select_in_word(self.bits.data[base + 2 + j], remaining as u32) as usize)
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
        let zpacked = ZEROS_CUM_STEP_9 - self.bits.data[base + 1];
        let j = uleq_step_9(zpacked, (remaining as u64) * ONES_STEP_9).count_ones() as usize;
        if j > 0 {
            remaining -= ((zpacked >> (9 * (j - 1))) & 0x1FF) as usize;
        }
        let word = sup * WORDS_PER_SUPER + j;
        let pos =
            word * 64 + select_in_word(!self.bits.data[base + 2 + j], remaining as u32) as usize;
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
        self.bits.size_bytes()
            + self.select1_samples.size_bytes()
            + self.select0_samples.size_bytes()
    }
}

/// The select sample directories of `bits` at rates `(rate1, rate0)`,
/// each allocated at its exact length: a built vector takes the bytes a
/// mapped one does.
fn select_samples(bits: &RankBits, rate1: usize, rate0: usize) -> (Vec<u32>, Vec<u32>) {
    let n_super = bits.n_super();
    let n_zeros = bits.count_zeros();
    let mut sel1 = Vec::with_capacity(bits.n_ones.div_ceil(rate1));
    let mut sel0 = Vec::with_capacity(n_zeros.div_ceil(rate0));
    let mut next1 = 0usize;
    let mut next0 = 0usize;
    for s in 0..n_super {
        let ones_before = bits.abs(s);
        let ones_after = if s + 1 < n_super {
            bits.abs(s + 1)
        } else {
            bits.n_ones
        };
        while next1 < bits.n_ones && next1 < ones_after {
            debug_assert!(next1 >= ones_before);
            sel1.push(s as u32);
            next1 += rate1;
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
            next0 += rate0;
        }
    }
    (sel1, sel0)
}

/// `rank1(i)` from `rec`, the superblock record holding bit `i`.
#[inline(always)]
fn rank_in(rec: &[u64; SUPER_STRIDE], i: usize) -> usize {
    let j = (i / 64) % WORDS_PER_SUPER;
    let mut r = rec[0] as usize;
    if j > 0 {
        r += ((rec[1] >> (9 * (j - 1))) & 0x1FF) as usize;
    }
    let rem = i % 64;
    if rem != 0 {
        r += (rec[2 + j] & ((1u64 << rem) - 1)).count_ones() as usize;
    }
    r
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

    /// The adaptive rate at both ends: a vector's dense bit kind is
    /// sampled close to every `TARGET_WINDOW · 512`-th, its sparse kind
    /// every [`MIN_SELECT_SAMPLE`]-th. On a dense and a sparse vector,
    /// `select` inverts a naive scan for both kinds, through windows the
    /// hunt scans linearly and windows it binary-searches.
    #[test]
    fn adaptive_sample_rates_reach_their_bounds() {
        let n = 1 << 17;
        let top = TARGET_WINDOW * BITS_PER_SUPER;
        for ones_dense in [true, false] {
            let bits: Vec<bool> = (0..n).map(|i| (i % 9973 == 17) != ones_dense).collect();
            let rs = RankSelect::new(BitVec::from_bits(bits.iter().copied()));
            let ones: Vec<usize> = (0..n).filter(|&i| bits[i]).collect();
            let zeros: Vec<usize> = (0..n).filter(|&i| !bits[i]).collect();
            // The superblocks each sample's hunt spans: to the next
            // sample, the last one to the final superblock.
            let windows = |samples: &Slab<u32>| -> Vec<usize> {
                let ends = samples.iter().skip(1).map(|&s| s as usize);
                let ends = ends.chain([rs.n_super() - 1]);
                samples
                    .iter()
                    .zip(ends)
                    .map(|(&lo, hi)| hi - lo as usize)
                    .collect()
            };
            let (rate1, rate0) = rs.select_sample_rates();
            let (w1, w0) = (windows(&rs.select1_samples), windows(&rs.select0_samples));
            let (dense_rate, dense_w, sparse_rate, sparse_w, dense_count) = if ones_dense {
                (rate1, w1, rate0, w0, ones.len())
            } else {
                (rate0, w0, rate1, w1, zeros.len())
            };
            assert_eq!(dense_rate, top * dense_count / n);
            assert!(dense_rate >= top - 1, "dense rate {dense_rate}");
            assert_eq!(sparse_rate, MIN_SELECT_SAMPLE);
            assert!(dense_w.iter().all(|&w| w <= LINEAR_HUNT), "dense windows");
            assert!(sparse_w.iter().any(|&w| w > LINEAR_HUNT), "sparse windows");
            for (k, &pos) in ones.iter().enumerate() {
                assert_eq!(rs.select1(k), Some(pos), "select1({k})");
            }
            for (k, &pos) in zeros.iter().enumerate() {
                assert_eq!(rs.select0(k), Some(pos), "select0({k})");
            }
            assert_eq!(rs.select1(ones.len()), None);
            assert_eq!(rs.select0(zeros.len()), None);
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

    /// `rs` written as a mapped index file stores it, and read back in
    /// place from a mapping of that file.
    fn mapped_copy(rs: &RankSelect) -> RankSelect {
        use crate::mapped::{read_rank_select, write_rank_select, MapReader, SectionWriter};
        let mut bytes = Vec::new();
        let mut w = SectionWriter::new(&mut bytes);
        write_rank_select(&mut w, rs).unwrap();
        w.pad().unwrap();
        let path = std::env::temp_dir().join(format!(
            "rpq_rank_select_edges_{}_{}",
            std::process::id(),
            rs.len()
        ));
        std::fs::write(&path, &bytes).unwrap();
        let map = crate::MappedFile::open(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let mut r = MapReader::new(map, 0, bytes.len()).unwrap();
        read_rank_select(&mut r).unwrap()
    }

    /// Lengths on a superblock seam and one bit either side: where a
    /// rank's superblock record is the last one, or `rank1(len)` would
    /// ask for the record after it. Heap and mapped vectors, against a
    /// naive count.
    #[test]
    fn ranks_at_superblock_multiple_lengths() {
        for seam in [0usize, 512, 1024, 2048] {
            for len in [seam.saturating_sub(1), seam, seam + 1] {
                let (bits, heap) = make(|i| i % 3 == 0 || i % 64 == 63, len);
                // `naive[i]` = ones in `[0, i)`.
                let naive: Vec<usize> = (0..=len).map(|i| naive_rank1(&bits, i)).collect();
                let mapped = mapped_copy(&heap);
                for (form, rs) in [("heap", &heap), ("mapped", &mapped)] {
                    let what = format!("{form}, len {len}");
                    for (i, &ones) in naive.iter().enumerate() {
                        assert_eq!(rs.rank1(i), ones, "{what}: rank1({i})");
                        assert_eq!(
                            rs.rank1_pair(i, len),
                            (ones, naive[len]),
                            "{what}: rank1_pair({i}, len)"
                        );
                    }
                    for (i, &bit) in bits.iter().enumerate() {
                        assert_eq!(rs.rank1_get(i), (naive[i], bit), "{what}: rank1_get({i})");
                    }
                }
            }
        }
    }

    /// The copy [`with_popcnt`] picks on this CPU and the portable copy
    /// (`run` called as compiled) answer alike.
    #[test]
    fn both_kernel_copies_agree() {
        struct Answers<'a>(&'a RankSelect);
        impl PopcntKernel for Answers<'_> {
            type Output = Vec<usize>;
            #[inline(always)]
            fn run(self) -> Vec<usize> {
                let rs = self.0;
                let mut out = Vec::new();
                for i in 0..rs.len() {
                    let (ones, bit) = rs.rank1_get(i);
                    let (b, e) = rs.rank1_pair(i, (i + 300).min(rs.len()));
                    out.extend([rs.rank1(i), ones, usize::from(bit), b, e]);
                }
                for k in 0..rs.count_ones() {
                    out.push(rs.select1(k).unwrap());
                }
                out
            }
        }
        let (_, rs) = make(
            |i| i % 7 == 0 || i % 13 == 3 || (600..700).contains(&i),
            3000,
        );
        assert_eq!(with_popcnt(Answers(&rs)), Answers(&rs).run());
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
