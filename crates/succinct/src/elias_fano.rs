//! Elias–Fano encoding of monotone sequences.
//!
//! A non-decreasing sequence of `n` values over universe `[0, u)` in
//! `n·⌈log₂(u/n)⌉ + 2n + o(n)` bits with *O*(1) access and *O*(log)
//! predecessor queries — the textbook representation for the ring's
//! boundary arrays `C_x` (long runs of similar counts compress well) and
//! a staple of the succinct toolbox the paper builds on.
//!
//! Layout: each value splits into `l` low bits (packed in an [`IntVec`])
//! and a high part, unary-coded into a bit vector: value `i`'s high part
//! `h_i` contributes a one at position `h_i + i`.

use crate::int_vec::bits_for;
use crate::{BitVec, IntVec, RankSelect, SpaceUsage};

/// An Elias–Fano encoded non-decreasing sequence.
#[derive(Clone, Debug)]
pub struct EliasFano {
    lows: IntVec,
    highs: RankSelect,
    low_bits: usize,
    n: usize,
    universe: u64,
}

impl EliasFano {
    /// Encodes `values`, which must be non-decreasing and `< universe`.
    ///
    /// # Panics
    /// Panics if the sequence decreases or exceeds the universe.
    pub fn new(values: &[u64], universe: u64) -> Self {
        let n = values.len();
        for w in values.windows(2) {
            assert!(w[0] <= w[1], "sequence must be non-decreasing");
        }
        if let Some(&last) = values.last() {
            assert!(
                last < universe.max(1),
                "value {last} outside universe {universe}"
            );
        }
        // l = floor(log2(u/n)) clamped to sensible bounds.
        let low_bits = if n == 0 {
            1
        } else {
            let ratio = universe.max(1) / n as u64;
            if ratio <= 1 {
                1
            } else {
                bits_for(ratio) - 1
            }
        }
        .max(1);
        let mut lows = IntVec::new(low_bits);
        let max_high = values.last().map_or(0, |&v| (v >> low_bits) as usize);
        let mut highs = BitVec::with_capacity(n + max_high + 1);
        let mut prev_high = 0usize;
        for &v in values {
            lows.push(v & ((1u64 << low_bits) - 1));
            let h = (v >> low_bits) as usize;
            for _ in prev_high..h {
                highs.push(false);
            }
            highs.push(true);
            prev_high = h;
        }
        Self {
            lows,
            highs: RankSelect::new(highs),
            low_bits,
            n,
            universe,
        }
    }

    /// Internal components, for the mapped on-disk format writer
    /// ([`crate::mapped`]): `(lows, highs, low_bits)`.
    pub(crate) fn raw_parts(&self) -> (&IntVec, &RankSelect, usize) {
        (&self.lows, &self.highs, self.low_bits)
    }

    /// Reassembles a sequence from stored parts — the mapped-format load
    /// path. Validates the component shapes against `n`/`universe`; the
    /// values themselves are only re-decoded (O(n)) in debug builds,
    /// like the deep rank/select check.
    pub(crate) fn from_raw_parts(
        lows: IntVec,
        highs: RankSelect,
        low_bits: usize,
        n: usize,
        universe: u64,
    ) -> Result<Self, &'static str> {
        if low_bits == 0 || low_bits != lows.width() {
            return Err("Elias-Fano low-bit width mismatch");
        }
        if lows.len() != n || highs.count_ones() != n {
            return Err("Elias-Fano component length mismatch");
        }
        let ef = Self {
            lows,
            highs,
            low_bits,
            n,
            universe,
        };
        #[cfg(debug_assertions)]
        {
            let mut prev = 0u64;
            for i in 0..ef.n {
                let v = ef.get(i);
                if v < prev {
                    return Err("Elias-Fano values decode non-monotone");
                }
                if v >= universe.max(1) {
                    return Err("Elias-Fano value outside universe");
                }
                prev = v;
            }
        }
        Ok(ef)
    }

    /// Number of values.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the sequence is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The universe bound.
    #[inline]
    pub fn universe(&self) -> u64 {
        self.universe
    }

    /// The `i`-th value, in *O*(1).
    ///
    /// # Panics
    /// Panics if `i >= len` (via the underlying select).
    #[inline]
    pub fn get(&self, i: usize) -> u64 {
        let pos = self.highs.select1(i).expect("index within sequence");
        let high = (pos - i) as u64;
        (high << self.low_bits) | self.lows.get(i)
    }

    /// Number of values `<= x` (the predecessor-count / `owner` query).
    pub fn rank_leq(&self, x: u64) -> usize {
        if self.n == 0 {
            return 0;
        }
        let h = (x >> self.low_bits) as usize;
        // Values with high part < h: ones before the h-th zero.
        let start = if h == 0 {
            0
        } else {
            match self.highs.select0(h - 1) {
                Some(p) => self.highs.rank1(p),
                None => self.n,
            }
        };
        // Values with high part == h occupy a contiguous index range;
        // scan it with binary search over the lows.
        let end = match self.highs.select0(h) {
            Some(p) => self.highs.rank1(p),
            None => self.n,
        };
        let lo_x = x & ((1u64 << self.low_bits) - 1);
        let mut lo = start;
        let mut hi = end;
        while lo < hi {
            let mid = (lo + hi) / 2;
            if self.lows.get(mid) <= lo_x {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Smallest value `>= x`, with its index, or `None`.
    pub fn successor(&self, x: u64) -> Option<(usize, u64)> {
        let idx = if x == 0 { 0 } else { self.rank_leq(x - 1) };
        (idx < self.n).then(|| (idx, self.get(idx)))
    }

    /// Iterates all values.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        (0..self.n).map(move |i| self.get(i))
    }

    /// Heap bytes of the arrays: 0 when both halves borrow a mapped file.
    pub fn heap_bytes(&self) -> usize {
        self.lows.heap_bytes() + self.highs.heap_bytes()
    }
}

impl SpaceUsage for EliasFano {
    fn size_bytes(&self) -> usize {
        self.lows.size_bytes() + self.highs.size_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(values: &[u64], universe: u64) {
        let ef = EliasFano::new(values, universe);
        assert_eq!(ef.len(), values.len());
        for (i, &v) in values.iter().enumerate() {
            assert_eq!(ef.get(i), v, "get({i})");
        }
        for x in 0..universe.min(300) {
            let naive = values.iter().filter(|&&v| v <= x).count();
            assert_eq!(ef.rank_leq(x), naive, "rank_leq({x})");
            let succ = values
                .iter()
                .enumerate()
                .find(|(_, &v)| v >= x)
                .map(|(i, &v)| (i, v));
            assert_eq!(ef.successor(x), succ, "successor({x})");
        }
        assert_eq!(ef.iter().collect::<Vec<_>>(), values);
    }

    #[test]
    fn small_sequences() {
        check(&[], 100);
        check(&[0], 1);
        check(&[5], 100);
        check(&[0, 0, 0], 10);
        check(&[1, 3, 3, 7, 20, 99], 100);
        check(&[0, 1, 2, 3, 4, 5], 6);
    }

    #[test]
    fn clustered_and_sparse() {
        // Dense cluster then a long gap — the case EF shines on.
        let mut v: Vec<u64> = (0..64).collect();
        v.extend([200, 201, 250]);
        check(&v, 256);
        // Very sparse.
        check(&[0, 1 << 20, 1 << 30], 1 << 31);
    }

    #[test]
    fn cumulative_counts_shape() {
        // The ring's C arrays: cumulative, duplicate-heavy.
        let counts = [0u64, 4, 8, 8, 8, 10, 14, 16, 16];
        check(&counts, 17);
        let ef = EliasFano::new(&counts, 17);
        // owner-style query: values <= 9 are {0, 4, 8, 8, 8}; the block
        // containing position 9 is therefore index 5 - 1 = 4's successor.
        assert_eq!(ef.rank_leq(9), 5);
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn decreasing_rejected() {
        EliasFano::new(&[3, 2], 10);
    }

    #[test]
    fn space_beats_plain_for_sparse() {
        let values: Vec<u64> = (0..1000u64).map(|i| i * 1000).collect();
        let ef = EliasFano::new(&values, 1_000_000);
        // Plain u64s: 8000 bytes. EF: ~n(2 + log2(u/n)) bits ≈ 1.5 kB.
        assert!(ef.size_bytes() < 3000, "EF size {}", ef.size_bytes());
    }
}
