//! Fixed-width packed integer vectors.
//!
//! An [`IntVec`] stores `n` integers of `width` bits each in `⌈n·width/64⌉`
//! words. This is the "packed form" the paper uses as the space yardstick
//! (8.625 bytes per Wikidata triple, §5).

use crate::storage::Slab;
use crate::SpaceUsage;

/// A packed vector of `width`-bit unsigned integers.
#[derive(Clone, Debug, Default)]
pub struct IntVec {
    /// Packed words; a [`Slab`] so a mapped index file can back them.
    data: Slab<u64>,
    width: usize,
    len: usize,
}

impl IntVec {
    /// Creates an empty vector whose elements occupy `width` bits each.
    ///
    /// # Panics
    /// Panics unless `1 <= width <= 64`.
    pub fn new(width: usize) -> Self {
        assert!((1..=64).contains(&width), "width must be in 1..=64");
        Self {
            data: Slab::new(),
            width,
            len: 0,
        }
    }

    /// Creates a zero-filled vector of `len` elements.
    pub fn zeros(width: usize, len: usize) -> Self {
        assert!((1..=64).contains(&width), "width must be in 1..=64");
        Self {
            data: vec![0; (len * width).div_ceil(64)].into(),
            width,
            len,
        }
    }

    /// Packs `values` using the smallest width that fits the maximum value
    /// (at least 1 bit).
    pub fn from_slice(values: &[u64]) -> Self {
        let max = values.iter().copied().max().unwrap_or(0);
        let width = bits_for(max);
        let mut v = Self::new(width);
        v.data.reserve((values.len() * width).div_ceil(64));
        for &x in values {
            v.push(x);
        }
        v
    }

    /// Number of bits needed per element.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the vector is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends a value.
    ///
    /// # Panics
    /// Panics if `value` does not fit in `width` bits.
    pub fn push(&mut self, value: u64) {
        assert!(
            self.width == 64 || value < (1u64 << self.width),
            "value {value} does not fit in {} bits",
            self.width
        );
        let bit = self.len * self.width;
        let word = bit / 64;
        let off = bit % 64;
        if word == self.data.len() {
            self.data.push(0);
        }
        self.data.as_mut_slice()[word] |= value << off;
        if off + self.width > 64 {
            self.data.push(value >> (64 - off));
        }
        self.len += 1;
    }

    /// Returns the element at `i`.
    ///
    /// # Panics
    /// Panics if `i >= len` (debug builds; release reads are bounds-checked
    /// by the underlying slice).
    #[inline]
    pub fn get(&self, i: usize) -> u64 {
        debug_assert!(i < self.len);
        let bit = i * self.width;
        let word = bit / 64;
        let off = bit % 64;
        let mask = if self.width == 64 {
            u64::MAX
        } else {
            (1u64 << self.width) - 1
        };
        if off + self.width <= 64 {
            (self.data[word] >> off) & mask
        } else {
            ((self.data[word] >> off) | (self.data[word + 1] << (64 - off))) & mask
        }
    }

    /// Overwrites the element at `i`.
    pub fn set(&mut self, i: usize, value: u64) {
        debug_assert!(i < self.len);
        assert!(
            self.width == 64 || value < (1u64 << self.width),
            "value {value} does not fit in {} bits",
            self.width
        );
        let bit = i * self.width;
        let word = bit / 64;
        let off = bit % 64;
        let mask = if self.width == 64 {
            u64::MAX
        } else {
            (1u64 << self.width) - 1
        };
        let data = self.data.as_mut_slice();
        data[word] &= !(mask << off);
        data[word] |= value << off;
        if off + self.width > 64 {
            let hi_bits = self.width - (64 - off);
            let hi_mask = (1u64 << hi_bits) - 1;
            data[word + 1] &= !hi_mask;
            data[word + 1] |= value >> (64 - off);
        }
    }

    /// The packed words, for the mapped-format writer ([`crate::mapped`]).
    pub(crate) fn words(&self) -> &Slab<u64> {
        &self.data
    }

    /// Heap bytes of the packed words ([`Slab::heap_bytes`]).
    pub fn heap_bytes(&self) -> usize {
        self.data.heap_bytes()
    }

    /// Reassembles a vector from stored parts — the mapped-format load
    /// path. Validates the word count against `width`/`len` so every
    /// `get` stays in bounds (a straddling read touches `word + 1`,
    /// which exists exactly when the count below is right).
    pub(crate) fn from_raw_parts(
        data: Slab<u64>,
        width: usize,
        len: usize,
    ) -> Result<Self, &'static str> {
        if !(1..=64).contains(&width) {
            return Err("packed vector width must be in 1..=64");
        }
        let Some(bits) = len.checked_mul(width) else {
            return Err("packed vector bit length overflows");
        };
        if data.len() != bits.div_ceil(64) {
            return Err("packed vector word count does not match width and length");
        }
        Ok(Self { data, width, len })
    }

    /// Iterates over all elements.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        (0..self.len).map(move |i| self.get(i))
    }
}

impl SpaceUsage for IntVec {
    fn size_bytes(&self) -> usize {
        self.data.size_bytes()
    }
}

/// Number of bits needed to represent `max` (at least 1).
#[inline]
pub fn bits_for(max: u64) -> usize {
    (64 - max.leading_zeros() as usize).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_for_boundaries() {
        assert_eq!(bits_for(0), 1);
        assert_eq!(bits_for(1), 1);
        assert_eq!(bits_for(2), 2);
        assert_eq!(bits_for(255), 8);
        assert_eq!(bits_for(256), 9);
        assert_eq!(bits_for(u64::MAX), 64);
    }

    #[test]
    fn roundtrip_odd_width() {
        // Width 13 exercises word-boundary straddling.
        let values: Vec<u64> = (0..500).map(|i| (i * 2654435761u64) % 8192).collect();
        let mut v = IntVec::new(13);
        for &x in &values {
            v.push(x);
        }
        assert_eq!(v.len(), 500);
        for (i, &x) in values.iter().enumerate() {
            assert_eq!(v.get(i), x, "element {i}");
        }
    }

    #[test]
    fn roundtrip_width_64() {
        let values = [0u64, u64::MAX, 1 << 63, 42];
        let mut v = IntVec::new(64);
        for &x in &values {
            v.push(x);
        }
        for (i, &x) in values.iter().enumerate() {
            assert_eq!(v.get(i), x);
        }
    }

    #[test]
    fn from_slice_picks_minimal_width() {
        let v = IntVec::from_slice(&[0, 1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(v.width(), 3);
        assert_eq!(v.iter().collect::<Vec<_>>(), vec![0, 1, 2, 3, 4, 5, 6, 7]);
        let v = IntVec::from_slice(&[]);
        assert_eq!(v.len(), 0);
        assert!(v.is_empty());
    }

    #[test]
    fn set_across_boundary() {
        let mut v = IntVec::zeros(33, 10);
        for i in 0..10 {
            v.set(i, (i as u64) << 25 | 0x1FF_FFFF);
        }
        for i in 0..10 {
            assert_eq!(v.get(i), (i as u64) << 25 | 0x1FF_FFFF);
        }
        v.set(3, 0);
        assert_eq!(v.get(3), 0);
        assert_eq!(v.get(2), 2u64 << 25 | 0x1FF_FFFF);
        assert_eq!(v.get(4), 4u64 << 25 | 0x1FF_FFFF);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn push_overflow_panics() {
        let mut v = IntVec::new(4);
        v.push(16);
    }
}
