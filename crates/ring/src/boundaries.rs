//! The boundary arrays `C_x` of the ring.
//!
//! `C[c]` counts the triples whose relevant component is strictly smaller
//! than `c`; `[C[c], C[c+1])` is then the block of symbol `c` in the
//! corresponding column. Two representations, as in §5 of the paper: a
//! dense word array (used for the small predicate alphabet; "C_p is
//! represented as a simple array") and a succinct unary-coded bit vector
//! with select (used for the large node alphabet; "C_o is represented
//! using a plain bitvector").

use succinct::{BitVec, RankSelect, Slab, SpaceUsage};

use crate::Id;

/// Words of a [`Boundaries::Sparse`] bit vector [`Boundaries::block`]
/// scans for the end of a block before it falls back to `select1`: blocks
/// of up to 192 occurrences are always found.
const SPARSE_BLOCK_SCAN_WORDS: usize = 4;

/// A monotone boundary sequence over symbols `0..=universe`.
#[derive(Clone, Debug)]
pub enum Boundaries {
    /// `counts[c] = C[c]`, with `counts.len() = universe + 1`. Backed by
    /// a [`Slab`] so a mapped index file can hold the array in place.
    Dense(Slab<u64>),
    /// Unary encoding: for each symbol, a `1` followed by one `0` per
    /// occurrence; `C[c] = select1(c) - c`.
    Sparse {
        /// The unary bit vector of length `n + universe`.
        bits: RankSelect,
        /// Number of symbols (blocks).
        universe: u64,
        /// Total number of occurrences.
        n: usize,
    },
}

impl Boundaries {
    /// Builds the dense representation from per-symbol occurrence counts.
    pub fn dense_from_counts(counts_per_symbol: &[u64]) -> Self {
        let mut acc = 0u64;
        let mut c = Vec::with_capacity(counts_per_symbol.len() + 1);
        c.push(0);
        for &k in counts_per_symbol {
            acc += k;
            c.push(acc);
        }
        Boundaries::Dense(c.into())
    }

    /// Builds the succinct representation from per-symbol occurrence counts.
    pub fn sparse_from_counts(counts_per_symbol: &[u64]) -> Self {
        let n: u64 = counts_per_symbol.iter().sum();
        let mut bits = BitVec::zeros(n as usize + counts_per_symbol.len());
        let mut at = 0usize;
        for &k in counts_per_symbol {
            bits.set(at, true);
            at += 1 + k as usize;
        }
        Boundaries::Sparse {
            bits: RankSelect::new(bits),
            universe: counts_per_symbol.len() as u64,
            n: n as usize,
        }
    }

    /// `C[c]`: number of occurrences of symbols `< c`. Defined for
    /// `0 <= c <= universe`.
    #[inline]
    pub fn get(&self, c: Id) -> usize {
        match self {
            Boundaries::Dense(v) => v[c as usize] as usize,
            Boundaries::Sparse { bits, universe, n } => {
                if c == *universe {
                    *n
                } else {
                    bits.select1(c as usize).expect("symbol in universe") - c as usize
                }
            }
        }
    }

    /// The block `[C[c], C[c+1])` of symbol `c`. Inlined into every
    /// caller, so that the selects of [`crate::Ring::object_ranges`]
    /// compile inside its popcount kernel.
    #[inline(always)]
    pub fn block(&self, c: Id) -> (usize, usize) {
        match self {
            // The block ends at the next one after the symbol's own: a
            // few words further on unless the block is very long, and
            // then a second `select1` finds it.
            Boundaries::Sparse { bits, universe, n } if c < *universe => {
                let one = bits.select1(c as usize).expect("symbol in universe");
                let begin = one - c as usize;
                let end = if c + 1 == *universe {
                    *n
                } else {
                    match bits.next_one_within(one + 1, SPARSE_BLOCK_SCAN_WORDS) {
                        Some(next) => next - (c as usize + 1),
                        None => self.get(c + 1),
                    }
                };
                (begin, end)
            }
            _ => (self.get(c), self.get(c + 1)),
        }
    }

    /// The symbol whose block contains position `pos` (`pos < n`).
    pub fn owner(&self, pos: usize) -> Id {
        match self {
            Boundaries::Dense(v) => (v.partition_point(|&c| c as usize <= pos) - 1) as Id,
            Boundaries::Sparse { bits, .. } => {
                let zero_pos = bits.select0(pos).expect("position within occurrences");
                (bits.rank1(zero_pos) - 1) as Id
            }
        }
    }

    /// Calls `f(c)`, ascending, for every symbol `c` whose block is
    /// non-empty, in one sequential pass over the representation — no
    /// `select` per symbol, and 64 positions per step on the unary bits
    /// of [`Boundaries::Sparse`].
    pub fn for_each_nonempty(&self, mut f: impl FnMut(Id)) {
        match self {
            Boundaries::Dense(v) => {
                for (c, w) in v.windows(2).enumerate() {
                    if w[1] > w[0] {
                        f(c as Id);
                    }
                }
            }
            Boundaries::Sparse { bits, .. } => {
                // Symbol `c` is the `c`-th one; its block is non-empty
                // iff a zero follows it directly.
                let n_words = bits.n_bit_words();
                let mut symbol: Id = 0;
                for w in 0..n_words {
                    let word = bits.bit_word(w);
                    // Bit `i + 1` under each bit `i` of this word.
                    // Positions past the end count as ones: a trailing
                    // one opens an empty block.
                    let carry = if w + 1 < n_words {
                        bits.bit_word(w + 1) & 1
                    } else {
                        1
                    };
                    let mut following = (word >> 1) | (carry << 63);
                    let valid = bits.len() - w * 64;
                    if valid < 64 {
                        following |= !0u64 << (valid - 1);
                    }
                    let mut open = word & !following;
                    while open != 0 {
                        let bit = open & open.wrapping_neg();
                        f(symbol + (word & (bit - 1)).count_ones() as Id);
                        open ^= bit;
                    }
                    symbol += word.count_ones() as Id;
                }
            }
        }
    }

    /// Number of symbols in the universe.
    pub fn universe(&self) -> u64 {
        match self {
            Boundaries::Dense(v) => (v.len() - 1) as u64,
            Boundaries::Sparse { universe, .. } => *universe,
        }
    }

    /// Payload bytes, on the heap or in a mapped file.
    pub fn size_bytes(&self) -> usize {
        match self {
            Boundaries::Dense(v) => v.size_bytes(),
            Boundaries::Sparse { bits, .. } => bits.size_bytes(),
        }
    }

    /// Payload bytes on the heap: 0 when the array borrows a mapped file.
    pub fn heap_bytes(&self) -> usize {
        match self {
            Boundaries::Dense(v) => v.heap_bytes(),
            Boundaries::Sparse { bits, .. } => bits.heap_bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(b: &Boundaries, counts: &[u64]) {
        let mut acc = 0;
        for (c, &k) in counts.iter().enumerate() {
            assert_eq!(b.get(c as Id), acc, "C[{c}]");
            let (lo, hi) = b.block(c as Id);
            assert_eq!((lo, hi), (acc, acc + k as usize), "block {c}");
            for pos in lo..hi {
                assert_eq!(b.owner(pos), c as Id, "owner of {pos}");
            }
            acc += k as usize;
        }
        assert_eq!(b.get(counts.len() as Id), acc);
        assert_eq!(b.universe(), counts.len() as u64);
        let mut nonempty = Vec::new();
        b.for_each_nonempty(|c| nonempty.push(c));
        let want: Vec<Id> = (0..counts.len() as Id)
            .filter(|&c| counts[c as usize] > 0)
            .collect();
        assert_eq!(nonempty, want, "non-empty symbols");
    }

    fn check_all(counts: &[u64]) {
        check(&Boundaries::dense_from_counts(counts), counts);
        check(&Boundaries::sparse_from_counts(counts), counts);
    }

    /// The word-parallel sparse scan across word seams: blocks that start
    /// on bit 63, end on bit 63, a vector that is an exact multiple of 64
    /// bits, trailing empty symbols, and no symbols at all.
    #[test]
    fn nonempty_scan_across_word_boundaries() {
        check_all(&[]);
        check_all(&[0]);
        check_all(&[0, 0, 0]);
        check_all(&[62, 1, 0, 3]); // the second one sits on bit 63
        check_all(&[63, 0, 1]); // a one on bit 63 followed by a one
        check_all(&[63, 5]); // bit 64 is a one whose zeros follow
        check_all(&[60, 1, 1]); // 64 bits exactly, ending in a zero
        check_all(&[61, 1, 0]); // 64 bits exactly, ending in a one
        let mut counts = vec![0u64; 300];
        for (i, c) in counts.iter_mut().enumerate() {
            *c = [0, 0, 1, 7, 0, 64, 0, 2][i % 8];
        }
        check_all(&counts);
    }

    /// `block` is `(get(c), get(c + 1))` on every representation: empty
    /// symbols, the last symbol, blocks longer than the sparse scan, and
    /// universes that end mid-word, on a word seam and past a superblock.
    #[test]
    fn block_is_the_pair_of_gets() {
        for universe in [67usize, 300, 1031] {
            let counts: Vec<u64> = (0..universe)
                .map(|c| match c % 11 {
                    0 | 1 | 5 => 0,
                    3 => 700, // three superblocks of zeros
                    7 => 64 * SPARSE_BLOCK_SCAN_WORDS as u64 - 1,
                    _ => (c as u64 * 7) % 13,
                })
                .collect();
            for trailing in [0u64, 1, 300] {
                let mut counts = counts.clone();
                *counts.last_mut().unwrap() = trailing;
                for b in [
                    Boundaries::dense_from_counts(&counts),
                    Boundaries::sparse_from_counts(&counts),
                ] {
                    for c in 0..universe as Id {
                        assert_eq!(
                            b.block(c),
                            (b.get(c), b.get(c + 1)),
                            "universe {universe}, last count {trailing}, symbol {c}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn dense_and_sparse_agree() {
        let counts = [4u64, 4, 2, 4, 2];
        check(&Boundaries::dense_from_counts(&counts), &counts);
        check(&Boundaries::sparse_from_counts(&counts), &counts);
    }

    #[test]
    fn empty_blocks() {
        let counts = [0u64, 3, 0, 0, 2, 0];
        check(&Boundaries::dense_from_counts(&counts), &counts);
        check(&Boundaries::sparse_from_counts(&counts), &counts);
        let b = Boundaries::sparse_from_counts(&counts);
        assert_eq!(b.block(0), (0, 0));
        assert_eq!(b.block(2), (3, 3));
        assert_eq!(b.owner(0), 1);
        assert_eq!(b.owner(3), 4);
    }

    #[test]
    fn paper_c_o_example() {
        // Fig. 3 (0-based): objects SA, UCh, LH, BA, Baq have 4, 4, 2, 4, 2
        // incoming triples; C_o = [0, 4, 8, 10, 14, 16].
        let b = Boundaries::sparse_from_counts(&[4, 4, 2, 4, 2]);
        for (c, expected) in [0, 4, 8, 10, 14, 16].into_iter().enumerate() {
            assert_eq!(b.get(c as Id), expected);
        }
        // The triple at (1-based) L_p[16] = position 15 belongs to Baq (id 4).
        assert_eq!(b.owner(15), 4);
    }
}
