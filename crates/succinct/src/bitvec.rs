//! A plain, growable bit vector backed by `u64` words.

use crate::SpaceUsage;

/// A growable sequence of bits.
///
/// `BitVec` is the mutable builder; freeze it into a [`crate::RankSelect`]
/// to answer `rank`/`select` queries.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BitVec {
    words: Vec<u64>,
    len: usize,
}

impl BitVec {
    /// Creates an empty bit vector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty bit vector with room for `bits` bits.
    pub fn with_capacity(bits: usize) -> Self {
        Self {
            words: Vec::with_capacity(bits.div_ceil(64)),
            len: 0,
        }
    }

    /// Creates a bit vector of `len` zeros.
    pub fn zeros(len: usize) -> Self {
        Self {
            words: vec![0u64; len.div_ceil(64)],
            len,
        }
    }

    /// Builds from an iterator of bits.
    pub fn from_bits<I: IntoIterator<Item = bool>>(bits: I) -> Self {
        let mut bv = Self::new();
        for b in bits {
            bv.push(b);
        }
        bv
    }

    /// Number of bits stored.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the vector holds no bits.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends a bit.
    #[inline]
    pub fn push(&mut self, bit: bool) {
        let word = self.len / 64;
        if word == self.words.len() {
            self.words.push(0);
        }
        if bit {
            self.words[word] |= 1u64 << (self.len % 64);
        }
        self.len += 1;
    }

    /// Returns the bit at `i`.
    ///
    /// # Panics
    /// Panics if `i >= self.len()`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(
            i < self.len,
            "bit index {i} out of bounds (len {})",
            self.len
        );
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Sets the bit at `i`.
    ///
    /// # Panics
    /// Panics if `i >= self.len()`.
    #[inline]
    pub fn set(&mut self, i: usize, bit: bool) {
        assert!(
            i < self.len,
            "bit index {i} out of bounds (len {})",
            self.len
        );
        let mask = 1u64 << (i % 64);
        if bit {
            self.words[i / 64] |= mask;
        } else {
            self.words[i / 64] &= !mask;
        }
    }

    /// Total number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The backing words; bits beyond `len` are zero.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Consumes the vector, returning `(words, len)`.
    pub fn into_raw(self) -> (Vec<u64>, usize) {
        (self.words, self.len)
    }

    /// The inverse of [`Self::into_raw`]: adopts `words` as the first
    /// `len` bits, for builders that assemble a vector a word at a time.
    ///
    /// # Panics
    /// Panics unless `words` holds exactly `⌈len / 64⌉` words with every
    /// bit beyond `len` zero.
    pub fn from_raw(words: Vec<u64>, len: usize) -> Self {
        assert_eq!(words.len(), len.div_ceil(64), "word count for {len} bits");
        if !len.is_multiple_of(64) {
            let padding = words[words.len() - 1] >> (len % 64);
            assert_eq!(padding, 0, "bits beyond the length must be zero");
        }
        Self { words, len }
    }

    /// Iterates over all bits.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len).map(move |i| self.get(i))
    }
}

impl SpaceUsage for BitVec {
    fn size_bytes(&self) -> usize {
        self.words.capacity() * 8
    }
}

impl FromIterator<bool> for BitVec {
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        Self::from_bits(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty() {
        let bv = BitVec::new();
        assert_eq!(bv.len(), 0);
        assert!(bv.is_empty());
        assert_eq!(bv.count_ones(), 0);
    }

    #[test]
    fn push_get_roundtrip() {
        let pattern = |i: usize| i.is_multiple_of(3) || i % 7 == 2;
        let mut bv = BitVec::new();
        for i in 0..1000 {
            bv.push(pattern(i));
        }
        assert_eq!(bv.len(), 1000);
        for i in 0..1000 {
            assert_eq!(bv.get(i), pattern(i), "bit {i}");
        }
    }

    #[test]
    fn set_flips_bits() {
        let mut bv = BitVec::zeros(130);
        assert!(!bv.get(129));
        bv.set(129, true);
        assert!(bv.get(129));
        bv.set(129, false);
        assert!(!bv.get(129));
        assert_eq!(bv.count_ones(), 0);
    }

    #[test]
    fn count_ones_matches_iter() {
        let bv = BitVec::from_bits((0..500).map(|i| i % 5 == 0));
        assert_eq!(bv.count_ones(), bv.iter().filter(|&b| b).count());
        assert_eq!(bv.count_ones(), 100);
    }

    #[test]
    fn words_padding_is_zero() {
        let bv = BitVec::from_bits((0..65).map(|_| true));
        assert_eq!(bv.words().len(), 2);
        assert_eq!(bv.words()[1], 1);
    }

    #[test]
    fn raw_roundtrip() {
        let bv = BitVec::from_bits((0..130).map(|i| i % 3 == 0));
        let (words, len) = bv.clone().into_raw();
        let back = BitVec::from_raw(words, len);
        assert_eq!(back.len(), 130);
        assert!(back.iter().eq(bv.iter()));
        assert!(BitVec::from_raw(Vec::new(), 0).is_empty());
    }

    #[test]
    #[should_panic(expected = "beyond the length")]
    fn from_raw_rejects_dirty_padding() {
        BitVec::from_raw(vec![0b100], 2);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_out_of_bounds_panics() {
        let bv = BitVec::zeros(10);
        bv.get(10);
    }

    #[test]
    fn from_iterator_collect() {
        let bv: BitVec = vec![true, false, true].into_iter().collect();
        assert_eq!(bv.len(), 3);
        assert!(bv.get(0) && !bv.get(1) && bv.get(2));
    }
}
