//! Small utilities shared across the workspace: a fast hasher for integer
//! keys and byte strings, and an epoch-stamped array realizing
//! constant-time lazy initialization.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// The FxHash multiplication-based hasher (as used by rustc). The paper's
/// duplicate-elimination sets (`std::unordered_set` in C++) are hot; the
/// default SipHash is needlessly slow for `u64` keys.
///
/// A byte slice is folded eight bytes a step, and its last step carries
/// the slice's length, so slices that differ only in trailing zero bytes
/// or in length hash apart. The hash of a slice is a detail of this
/// implementation: nothing persisted or printed may depend on it, nor on
/// the iteration order of an [`FxHashMap`] keyed by strings.
#[derive(Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.add(u64::from_le_bytes(
                word.try_into().expect("chunks_exact(8) yields 8 bytes"),
            ));
        }
        // The tail: up to seven bytes below the length's low byte.
        let rest = words.remainder();
        let mut tail = [0u8; 8];
        tail[..rest.len()].copy_from_slice(rest);
        tail[7] = bytes.len() as u8;
        self.add(u64::from_le_bytes(tail));
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

/// A `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;
/// A `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

/// A fixed-size packed bitset backed by `u64` words: 1 bit per flag
/// instead of the byte `Vec<bool>` costs, so large flag tables (one per
/// graph node or wavelet node) stay cache-resident.
#[derive(Clone, Debug)]
pub struct BitSet {
    words: Vec<u64>,
    len: usize,
}

impl BitSet {
    /// A set of `len` flags, all clear.
    pub fn new(len: usize) -> Self {
        Self {
            words: vec![0u64; len.div_ceil(64)],
            len,
        }
    }

    /// Number of flags.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set has no flags.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reads flag `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Sets flag `i`.
    #[inline]
    pub fn set(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    /// Clears flag `i`.
    #[inline]
    pub fn clear(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i / 64] &= !(1u64 << (i % 64));
    }

    /// Number of set flags.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Heap bytes owned by the set.
    pub fn size_bytes(&self) -> usize {
        self.words.capacity() * 8
    }
}

/// A fixed number of `u64` words, least significant first: what one
/// cell of an [`EpochArray`] holds — a `u64`, or an array of them.
pub trait Words: Copy {
    /// Words per value.
    const LEN: usize;
    /// The all-zero value.
    const ZERO: Self;
    /// The words.
    fn words(&self) -> &[u64];
    /// The words, writable.
    fn words_mut(&mut self) -> &mut [u64];
}

impl Words for u64 {
    const LEN: usize = 1;
    const ZERO: Self = 0;

    #[inline]
    fn words(&self) -> &[u64] {
        std::slice::from_ref(self)
    }

    #[inline]
    fn words_mut(&mut self) -> &mut [u64] {
        std::slice::from_mut(self)
    }
}

impl<const N: usize> Words for [u64; N] {
    const LEN: usize = N;
    const ZERO: Self = [0; N];

    fn words(&self) -> &[u64] {
        self
    }

    fn words_mut(&mut self) -> &mut [u64] {
        self
    }
}

/// An array of cells with *O*(1) logical reset, each cell one or more
/// `u64` words wide ([`Words`]).
///
/// This realizes the compact constant-time lazy-initialization structure the
/// paper cites (\[40, App. C\]) for the per-node visited masks `D[s]` and the
/// per-wavelet-node masks `B[v]`/`D[v]`: memory is allocated once and a
/// 32-bit epoch stamp decides whether a cell's stored value is current.
/// The width of a cell — the words of a state set — is set at each
/// [`reset`](Self::reset); the stamps are one per cell whatever it is.
///
/// The default array is empty, its cells one word wide;
/// [`ensure_len`](Self::ensure_len) sizes it on first use.
#[derive(Clone, Debug)]
pub struct EpochArray {
    values: Vec<u64>,
    stamps: Vec<u32>,
    epoch: u32,
    /// Words per cell.
    stride: usize,
}

impl Default for EpochArray {
    fn default() -> Self {
        Self::new(0)
    }
}

impl EpochArray {
    /// Creates an array of `len` one-word cells, all logically zero.
    pub fn new(len: usize) -> Self {
        Self {
            values: vec![0; len],
            stamps: vec![0; len],
            epoch: 1,
            stride: 1,
        }
    }

    /// Grows the array to at least `n` cells, in place: cells written
    /// since the last [`reset`](Self::reset) keep their values, new cells
    /// read 0 (their stamp 0 is never the current epoch, which stays
    /// `>= 1`), and the epoch is unchanged. A no-op when the array is
    /// already that long.
    pub fn ensure_len(&mut self, n: usize) {
        if n <= self.stamps.len() {
            return;
        }
        if self.stamps.is_empty() {
            // First sizing: zeroed allocations leave untouched pages
            // unbacked, which `resize` (allocate, then fill) would not.
            self.values = vec![0; n * self.stride];
            self.stamps = vec![0; n];
        } else {
            self.values.resize(n * self.stride, 0);
            self.stamps.resize(n, 0);
        }
    }

    /// Logically zeroes every cell in *O*(1) (amortized: a real wipe happens
    /// once every `u32::MAX` resets when the epoch wraps) and makes every
    /// cell `stride` words wide, reallocating the words only when there
    /// are too few.
    pub fn reset(&mut self, stride: usize) {
        if self.epoch == u32::MAX {
            self.stamps.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.stride = stride;
        if self.values.len() < self.stamps.len() * stride {
            self.values = vec![0; self.stamps.len() * stride];
        }
    }

    /// Reads cell `i` (zero if untouched since the last [`reset`](Self::reset)).
    #[inline]
    pub fn get<W: Words>(&self, i: usize) -> W {
        debug_assert_eq!(W::LEN, self.stride);
        let mut value = W::ZERO;
        if self.stamps[i] == self.epoch {
            value
                .words_mut()
                .copy_from_slice(&self.values[i * W::LEN..][..W::LEN]);
        }
        value
    }

    /// Writes cell `i`.
    #[inline]
    pub fn set<W: Words>(&mut self, i: usize, value: W) {
        debug_assert_eq!(W::LEN, self.stride);
        self.stamps[i] = self.epoch;
        self.values[i * W::LEN..][..W::LEN].copy_from_slice(value.words());
    }

    /// Heap bytes owned by the array.
    pub fn size_bytes(&self) -> usize {
        self.values.capacity() * 8 + self.stamps.capacity() * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fxhash_distributes_u64_keys() {
        let mut set = FxHashSet::default();
        for i in 0..10_000u64 {
            set.insert(i * 64);
        }
        assert_eq!(set.len(), 10_000);
        assert!(set.contains(&6400));
        assert!(!set.contains(&6401));
    }

    #[test]
    fn fxhash_tells_slices_apart_by_length_and_trailing_zeros() {
        let hash = |bytes: &[u8]| {
            let mut h = FxHasher::default();
            h.write(bytes);
            h.finish()
        };
        let mut seen = FxHashSet::default();
        // Every length around the 8-byte step, with and without trailing
        // zero bytes, and the all-zero slices of those lengths.
        for len in 0..=25usize {
            let text: Vec<u8> = (1..=len as u8).collect();
            assert!(seen.insert(hash(&text)), "prefix of length {len}");
            for zeros in 1..=9 {
                let mut padded = text.clone();
                padded.resize(len + zeros, 0);
                if len > 0 {
                    assert_ne!(hash(&padded), hash(&text), "{len} bytes + {zeros} zeros");
                }
            }
            if len > 0 {
                assert!(seen.insert(hash(&vec![0u8; len])), "{len} zero bytes");
            }
        }
        // A difference in any byte of a word or of the tail is seen.
        let base = *b"<http://example.org/node/12345>";
        for i in 0..base.len() {
            let mut other = base;
            other[i] ^= 1;
            assert_ne!(hash(&other), hash(&base), "byte {i}");
        }
    }

    #[test]
    fn fxhash_map_basic() {
        let mut m: FxHashMap<(u64, u64), u64> = FxHashMap::default();
        m.insert((1, 2), 3);
        m.insert((2, 1), 4);
        assert_eq!(m.get(&(1, 2)), Some(&3));
        assert_eq!(m.get(&(2, 1)), Some(&4));
    }

    #[test]
    fn bitset_set_get_clear() {
        let mut s = BitSet::new(300);
        assert_eq!(s.len(), 300);
        assert!(!s.is_empty());
        assert!(!s.get(299));
        s.set(0);
        s.set(63);
        s.set(64);
        s.set(299);
        assert!(s.get(0) && s.get(63) && s.get(64) && s.get(299));
        assert!(!s.get(65));
        assert_eq!(s.count_ones(), 4);
        s.clear(64);
        assert!(!s.get(64));
        assert_eq!(s.count_ones(), 3);
        // An eighth of the Vec<bool> footprint.
        assert!(s.size_bytes() <= 300 / 8 + 8);
        assert!(BitSet::new(0).is_empty());
    }

    #[test]
    fn epoch_array_reset_is_logical_zero() {
        let mut a = EpochArray::new(8);
        a.set(3, 42u64);
        a.set(4, 0b101u64);
        assert_eq!(a.get::<u64>(3), 42);
        assert_eq!(a.get::<u64>(4), 0b101);
        assert_eq!(a.get::<u64>(0), 0);
        a.reset(1);
        for i in 0..8 {
            assert_eq!(a.get::<u64>(i), 0, "cell {i} after reset");
        }
    }

    #[test]
    fn epoch_array_grows_in_place() {
        let mut a = EpochArray::default();
        a.ensure_len(4);
        a.reset(1);
        a.set(1, 7u64);
        a.set(3, 0b11u64);
        a.ensure_len(10);
        // Cells written before the grow read back; new cells read 0.
        assert_eq!((a.get::<u64>(1), a.get::<u64>(3)), (7, 0b11));
        for i in 4..10 {
            assert_eq!(a.get::<u64>(i), 0, "new cell {i}");
        }
        a.set(9, 5u64);
        // Shrinking requests are no-ops.
        a.ensure_len(2);
        assert_eq!(a.get::<u64>(9), 5);
        a.reset(1);
        assert_eq!((a.get::<u64>(1), a.get::<u64>(9)), (0, 0));
    }

    /// A reset sets the cell width; wider cells reallocate the words
    /// only when there are too few of them.
    #[test]
    fn cells_change_width_at_reset() {
        let mut a = EpochArray::new(3);
        a.reset(4);
        a.set(2, [5u64, 6, 7, 8]);
        a.ensure_len(5);
        assert_eq!((a.get(2), a.get(4)), ([5u64, 6, 7, 8], [0; 4]));
        let bytes = a.size_bytes();
        a.reset(2);
        assert_eq!(a.get::<[u64; 2]>(2), [0; 2]);
        a.set(4, [7u64, 8]);
        a.reset(1);
        a.set(4, 3u64);
        assert_eq!(
            (a.get::<u64>(2), a.get::<u64>(4), a.size_bytes()),
            (0, 3, bytes)
        );
    }

    #[test]
    fn grown_epoch_array_survives_the_epoch_wrap() {
        let mut a = EpochArray::new(2);
        a.epoch = u32::MAX - 1;
        a.set(0, 1u64);
        a.ensure_len(5);
        a.set(4, 2u64);
        a.reset(1); // epoch == u32::MAX
        assert_eq!((a.get::<u64>(0), a.get::<u64>(4)), (0, 0));
        a.set(4, 3u64);
        a.reset(1); // wraps: stamps wiped, epoch back to 1
        assert_eq!(a.epoch, 1);
        for i in 0..5 {
            assert_eq!(a.get::<u64>(i), 0, "cell {i} after the wrap");
        }
        // Growing right after the wrap: stamp-0 cells still read 0.
        a.ensure_len(8);
        assert_eq!(a.get::<u64>(7), 0);
        a.set(7, 9u64);
        assert_eq!(a.get::<u64>(7), 9);
    }

    #[test]
    fn epoch_array_many_resets() {
        let mut a = EpochArray::new(2);
        for round in 0..1000u64 {
            a.reset(1);
            assert_eq!(a.get::<u64>(0), 0);
            a.set(0, round);
            assert_eq!(a.get::<u64>(0), round);
        }
    }
}
