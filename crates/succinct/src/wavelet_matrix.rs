//! The wavelet matrix (Claude, Navarro, Ordóñez \[11\]): a wavelet tree
//! layout for large alphabets, used by the paper's implementation for the
//! ring sequences `L_s` and `L_p` (§5).
//!
//! One bit vector per bit level (most-significant bit first); at each level
//! all zero-bit elements are stably moved before all one-bit elements. A
//! conceptual tree node at `(level, prefix)` — `prefix` being the `level`
//! high bits of the symbols below it — occupies a contiguous interval of the
//! level's array, so the node-local rank arithmetic of a pointer wavelet
//! tree carries over with an extra "node start" offset.
//!
//! The [`RangeGuide`] trait exposes the traversal hook that the RPQ engine
//! uses to implement the B-masked predicate discovery of §4.1 and the
//! D-masked subject discovery of §4.2: `enter` is consulted before
//! descending into a node (where the engine tests `D & B[v] != 0` or prunes
//! already-visited subtrees), and `leaf` receives each surviving symbol with
//! the rank offsets that complete a backward-search step (Eqs. 4–5).
//!
//! # Many ranges at once
//!
//! A depth-first traversal of one range is a chain of dependent memory
//! accesses: the position at level `l + 1` is a rank at level `l`, and on
//! a sequence the size of a ring's `L_s` every level is a cache miss.
//! [`MultiTraversal`] takes a whole batch of ranges — a BFS frontier —
//! down the matrix **level-synchronously** ([`MultiRangeGuide`]): at each
//! level it first ranks both ends of every live range, a loop whose
//! iterations do not depend on each other, so the processor has many
//! misses in flight at once; then it walks the level's nodes in prefix
//! order, asks the guide, and lays out the next level. The contract:
//!
//! * every range sees its symbols in increasing order, as its own
//!   [`WaveletMatrix::guided_traverse`] reports them, and leaves of
//!   different ranges arrive symbol by symbol;
//! * node-level work (the node-start rank, the guide's
//!   [`enter_node`](MultiRangeGuide::enter_node)) is done once per node,
//!   whatever number of ranges cross it;
//! * a guide that does not read leaf ranks says so
//!   ([`MultiRangeGuide::LEAF_RANKS`]) and no node start is ever ranked;
//! * a guide whose internal-node tests only anticipate its leaf tests
//!   says so ([`MultiRangeGuide::UNIT_SHORTCUT`]) and a range that has
//!   narrowed to one position — the usual width after a backward step —
//!   goes to its leaf like an `access`, one rank per level.

use crate::int_vec::bits_for;
use crate::{BitVec, RankSelect, SpaceUsage};

/// Visitor guiding a pruned wavelet-matrix range traversal.
pub trait RangeGuide {
    /// Whether [`leaf`](Self::leaf) reads its rank arguments. A guide
    /// that only wants the symbols sets this to `false`, and the
    /// traversal skips the node-start rank of every level — a third of
    /// its rank computations; `leaf` then receives unspecified ranks.
    const LEAF_RANKS: bool = true;

    /// Whether to enter the node at `(level, prefix)`. The root is
    /// `(0, 0)`; the children of `(l, v)` are `(l+1, 2v)` and `(l+1, 2v+1)`.
    /// Nodes whose interval restricted to the query range is empty are
    /// skipped without consulting the guide.
    fn enter(&mut self, level: usize, prefix: u64) -> bool;

    /// Called once per surviving symbol `sym` in the range, in increasing
    /// symbol order, with `rank_b = rank(sym, b)` and
    /// `rank_e = rank(sym, e)` (see [`Self::LEAF_RANKS`]).
    fn leaf(&mut self, sym: u64, rank_b: usize, rank_e: usize);
}

/// Per-symbol intersection record: `(sym, (rank_b1, rank_e1), (rank_b2, rank_e2))`.
pub type IntersectionHit = (u64, (usize, usize), (usize, usize));

/// Visitor guiding a **frontier-batched** traversal over many ranges at
/// once ([`MultiTraversal::run`]).
///
/// The traversal is level-synchronous: all ranges move down one level of
/// the matrix together, so the per-node work (the node-start rank, and
/// whatever per-node state the guide consults in
/// [`enter_node`](Self::enter_node)) is paid once per node instead of
/// once per `(range, node)` pair, and the rank probes of one level are
/// independent loads the processor overlaps instead of one chain of
/// cache misses per range. Semantically the batched traversal is
/// equivalent to running [`WaveletMatrix::guided_traverse`]
/// independently for every range with a guide whose `enter` is
/// `enter_node(..) && enter_item(item, ..)` — `enter_node` must therefore
/// be a *range-independent* predicate of the node.
///
/// Call-order contract: nodes are visited level by level, each level in
/// increasing prefix order. `enter_node` is called once per node some
/// range reaches, followed — if it admits the node — by `enter_item` for
/// that node's live ranges in increasing item order; at leaf depth, each
/// admitted item's [`leaf`](Self::leaf) call immediately follows its
/// `enter_item`, so a guide may carry per-item context from one to the
/// other in a single field. Leaves therefore arrive in increasing symbol
/// order, and within one symbol in increasing item order: every item
/// sees its symbols ascending, exactly as its own `guided_traverse`
/// would report them.
pub trait MultiRangeGuide {
    /// Whether [`leaf`](Self::leaf) reads its rank arguments; see
    /// [`RangeGuide::LEAF_RANKS`]. `false` drops the one rank per node
    /// the batched traversal spends on node starts.
    const LEAF_RANKS: bool = true;

    /// Whether a range that has narrowed to one position may be taken
    /// straight to the leaf of the one symbol it holds — one rank per
    /// level, no node bookkeeping — without consulting the guide on the
    /// way down. The guide is asked at the root and at the leaf as ever;
    /// what it is spared, and loses, are the internal nodes in between.
    /// Sound for a guide whose answer at a node is implied by its answer
    /// at every leaf below — one that prunes only what the leaves would
    /// reject anyway. (A position on its own can save no more by pruning
    /// than the ranks left to its leaf.)
    const UNIT_SHORTCUT: bool = false;

    /// Whether any range may enter the node at `(level, prefix)`.
    /// Returning `false` prunes the node for *every* range.
    fn enter_node(&mut self, level: usize, prefix: u64) -> bool;

    /// Whether range `item` (its index in the input slice) enters an
    /// admitted node.
    fn enter_item(&mut self, item: u32, level: usize, prefix: u64) -> bool;

    /// Called per surviving `(item, sym)` with the item's rank offsets
    /// (see [`Self::LEAF_RANKS`]).
    fn leaf(&mut self, item: u32, sym: u64, rank_b: usize, rank_e: usize);
}

/// A position of the sequence, or a symbol, as the batched traversal
/// keeps them: its scratch holds several per range and per edge of a
/// frontier thousands wide, so they are narrowed ([`MultiTraversal::run`]
/// refuses a matrix they would not address).
type Pos = u32;

/// A range one position wide on its way to its leaf: the position and
/// its node's start (both at the current level), the node's prefix, the
/// item.
type Unit = (Pos, Pos, Pos, u32);

/// Level-synchronous batched traversal, and the reusable scratch it runs
/// in: callers on a hot path (a BFS expanding frontier after frontier)
/// keep one `MultiTraversal` and reuse its buffers across calls.
#[derive(Clone, Debug, Default)]
pub struct MultiTraversal {
    /// `(prefix, start, item_hi)` per live node of the level, in
    /// increasing prefix order; a node's items end at `item_hi` and begin
    /// where the previous node's end.
    nodes: Vec<(Pos, Pos, u32)>,
    next_nodes: Vec<(Pos, Pos, u32)>,
    /// `(item, b, e)` runs, indexed by the node records.
    items: Vec<(u32, Pos, Pos)>,
    next_items: Vec<(u32, Pos, Pos)>,
    /// `(rank0(b), rank0(e))` of every live range of the level.
    zeros: Vec<(Pos, Pos)>,
    /// Single positions of a [`MultiRangeGuide::UNIT_SHORTCUT`] guide.
    units: Vec<Unit>,
    /// `(sym, item, rank_b, rank_e)` of such a guide, until the leaves of
    /// both kinds of range are handed over in order.
    leaves: Vec<(Pos, u32, Pos, Pos)>,
    /// Rank computations performed by the last run.
    pub ranks: u64,
    /// Rank computations a per-range traversal would have needed on top
    /// of [`ranks`](Self::ranks): shared node-start ranks, directory
    /// probes merged by [`RankSelect::rank1_pair`], and the second end of
    /// single positions.
    pub ranks_saved: u64,
}

impl MultiTraversal {
    /// Fresh scratch (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Heap bytes held by the reusable buffers.
    pub fn size_bytes(&self) -> usize {
        use std::mem::size_of;
        (self.nodes.capacity() + self.next_nodes.capacity()) * size_of::<(Pos, Pos, u32)>()
            + (self.items.capacity() + self.next_items.capacity()) * size_of::<(u32, Pos, Pos)>()
            + self.zeros.capacity() * size_of::<(Pos, Pos)>()
            + self.units.capacity() * size_of::<Unit>()
            + self.leaves.capacity() * size_of::<(Pos, u32, Pos, Pos)>()
    }

    /// Runs the batched traversal of `ranges` over `wm` (see
    /// [`MultiRangeGuide`] for the contract).
    ///
    /// Every level is two passes over the live ranges. The first maps
    /// both ends of every range through the level's bit vector — nothing
    /// in it depends on anything else in it, so the cache misses of a
    /// whole frontier overlap. The second walks the nodes in order,
    /// consults the guide, and lays out the next level: a node's left
    /// child first, then its right child.
    ///
    /// # Panics
    /// Panics if `wm` is longer than 2^32 − 1 or wider than 32 bits (the
    /// scratch keeps positions and symbols in 32), or a range is out of
    /// bounds.
    pub fn run<G: MultiRangeGuide>(
        &mut self,
        wm: &WaveletMatrix,
        ranges: &[(u32, u32)],
        guide: &mut G,
    ) {
        self.ranks = 0;
        self.ranks_saved = 0;
        self.nodes.clear();
        self.items.clear();
        self.units.clear();
        self.leaves.clear();
        assert!(
            Pos::try_from(wm.len).is_ok() && wm.width <= Pos::BITS as usize,
            "a batched traversal addresses 32-bit positions and symbols"
        );
        for (i, &(b, e)) in ranges.iter().enumerate() {
            assert!(b <= e && e as usize <= wm.len, "range {i} out of bounds");
        }
        if ranges.iter().all(|&(b, e)| b == e) || !guide.enter_node(0, 0) {
            return;
        }
        for (i, &(b, e)) in ranges.iter().enumerate() {
            if b < e && guide.enter_item(i as u32, 0, 0) {
                if G::UNIT_SHORTCUT && e - b == 1 {
                    self.units.push((b, 0, 0, i as u32));
                } else {
                    self.items.push((i as u32, b, e));
                }
            }
        }
        if !self.items.is_empty() {
            self.nodes.push((0, 0, self.items.len() as u32));
        }

        for level in 0..wm.width {
            if self.nodes.is_empty() && self.units.is_empty() {
                return;
            }
            let lvl = &wm.levels[level];
            let z = wm.zeros[level] as Pos;
            let at_leaves = level + 1 == wm.width;

            self.zeros.clear();
            for &(_, b, e) in &self.items {
                let (b, e) = (b as usize, e as usize);
                let (b0, e0) = if e - b == 1 {
                    // One position: one rank and the bit beside it.
                    self.ranks += 1;
                    self.ranks_saved += 1;
                    let (ones, bit) = lvl.rank1_get(b);
                    (b - ones, b - ones + usize::from(!bit))
                } else if RankSelect::same_superblock(b, e) {
                    self.ranks += 1;
                    self.ranks_saved += 1;
                    lvl.rank0_pair(b, e)
                } else {
                    self.ranks += 2;
                    (lvl.rank0(b), lvl.rank0(e))
                };
                self.zeros.push((b0 as Pos, e0 as Pos));
            }

            // Single positions follow their bit; those the pass below
            // adds are a level further down already.
            self.ranks += self.units.len() as u64 * (1 + u64::from(G::LEAF_RANKS));
            self.ranks_saved += self.units.len() as u64;
            for (at, start, prefix, _) in self.units.iter_mut() {
                let (ones, bit) = lvl.rank1_get(*at as usize);
                *at = if bit {
                    z + ones as Pos
                } else {
                    *at - ones as Pos
                };
                *prefix = *prefix << 1 | Pos::from(bit);
                if G::LEAF_RANKS {
                    let ones = lvl.rank1(*start as usize) as Pos;
                    *start = if bit { z + ones } else { *start - ones };
                }
            }

            self.next_nodes.clear();
            self.next_items.clear();
            let mut lo = 0;
            for n in 0..self.nodes.len() {
                let (prefix, start, hi) = self.nodes[n];
                let hi = hi as usize;
                // One start rank amortized over the node's whole batch; a
                // per-range traversal recomputes it for every range.
                let (s0, s1) = if G::LEAF_RANKS {
                    self.ranks += 1;
                    self.ranks_saved += (hi - lo) as u64 - 1;
                    let s0 = lvl.rank0(start as usize) as Pos;
                    (s0, z + (start - s0))
                } else {
                    (0, 0)
                };
                for (child, child_start) in [(prefix << 1, s0), (prefix << 1 | 1, s1)] {
                    // The guide hears of a child when the first range
                    // reaches it, and of no range after it refused.
                    let mut entered = None;
                    for i in lo..hi {
                        let (id, b, e) = self.items[i];
                        let (b0, e0) = self.zeros[i];
                        let (cb, ce) = if child & 1 == 0 {
                            (b0, e0)
                        } else {
                            (z + (b - b0), z + (e - e0))
                        };
                        if ce == cb {
                            continue;
                        }
                        if G::UNIT_SHORTCUT && at_leaves {
                            self.leaves
                                .push((child, id, cb - child_start, ce - child_start));
                            continue;
                        }
                        if G::UNIT_SHORTCUT && ce - cb == 1 {
                            self.units.push((cb, child_start, child, id));
                            continue;
                        }
                        let below = u64::from(child);
                        if !*entered.get_or_insert_with(|| guide.enter_node(level + 1, below)) {
                            break;
                        }
                        if guide.enter_item(id, level + 1, below) {
                            if at_leaves {
                                let (rank_b, rank_e) = (cb - child_start, ce - child_start);
                                guide.leaf(id, below, rank_b as usize, rank_e as usize);
                            } else {
                                self.next_items.push((id, cb, ce));
                            }
                        }
                    }
                    let placed = self.next_items.len() as u32;
                    if self.next_nodes.last().map_or(0, |n| n.2) < placed {
                        self.next_nodes.push((child, child_start, placed));
                    }
                }
                lo = hi;
            }
            std::mem::swap(&mut self.nodes, &mut self.next_nodes);
            std::mem::swap(&mut self.items, &mut self.next_items);
        }

        // The leaves a shortcut guide has not seen yet: those of wider
        // ranges are in order, the single positions arrived as they
        // were born; merged, they are in the order of the contract.
        let width = wm.width;
        self.units
            .sort_unstable_by_key(|&(_, _, sym, id)| (sym, id));
        let mut wide = self.leaves.iter().copied().peekable();
        let mut single = self
            .units
            .iter()
            .map(|&(at, start, sym, id)| (sym, id, at - start, at + 1 - start))
            .peekable();
        let mut node = None;
        loop {
            let next = match (wide.peek(), single.peek()) {
                (Some(w), Some(s)) if (s.0, s.1) < (w.0, w.1) => single.next(),
                (Some(_), _) => wide.next(),
                (None, _) => single.next(),
            };
            let Some((sym, id, rank_b, rank_e)) = next else {
                return;
            };
            let sym = u64::from(sym);
            let entered = match node {
                Some((at, entered)) if at == sym => entered,
                _ => guide.enter_node(width, sym),
            };
            node = Some((sym, entered));
            if entered && guide.enter_item(id, width, sym) {
                guide.leaf(id, sym, rank_b as usize, rank_e as usize);
            }
        }
    }
}

/// A wavelet matrix over a sequence of symbols in `[0, sigma)`.
///
/// ```
/// use succinct::WaveletMatrix;
///
/// let wm = WaveletMatrix::new(&[3, 1, 4, 1, 5, 1, 2], 8);
/// assert_eq!(wm.access(2), 4);
/// assert_eq!(wm.rank(1, 6), 3);           // three 1s before position 6
/// assert_eq!(wm.select(1, 1), Some(3));   // second 1 sits at position 3
/// let mut distinct = Vec::new();
/// wm.range_distinct(0, 4, &mut |sym, _, _| distinct.push(sym));
/// assert_eq!(distinct, vec![1, 3, 4]);
/// assert_eq!(wm.range_quantile(0, 7, 3), 2); // 4th smallest overall
/// ```
#[derive(Clone, Debug)]
pub struct WaveletMatrix {
    levels: Vec<RankSelect>,
    zeros: Vec<usize>,
    len: usize,
    width: usize,
    sigma: u64,
}

/// A symbol word the level builder partitions. The ring feeds `u32`
/// (its universes fit 32 bits, and a level sweep is bound by the bytes it
/// moves); [`WaveletMatrix::new`] widens to `u64` only for alphabets
/// beyond 32 bits.
trait Symbol: Copy + Default {
    /// Bit `shift` of the symbol, as 0 or 1.
    fn bit(self, shift: usize) -> u64;
}

impl Symbol for u32 {
    #[inline]
    fn bit(self, shift: usize) -> u64 {
        ((self >> shift) & 1) as u64
    }
}

impl Symbol for u64 {
    #[inline]
    fn bit(self, shift: usize) -> u64 {
        (self >> shift) & 1
    }
}

/// The bits of `cur` at `shift`, packed 64 to a word.
fn level_words<S: Symbol>(cur: &[S], shift: usize) -> Vec<u64> {
    cur.chunks(64)
        .map(|chunk| {
            chunk
                .iter()
                .enumerate()
                .fold(0u64, |word, (i, s)| word | s.bit(shift) << i)
        })
        .collect()
}

fn check_alphabet(symbols: impl Iterator<Item = u64>, sigma: u64) {
    assert!(sigma > 0, "alphabet must be non-empty");
    for s in symbols {
        assert!(s < sigma, "symbol {s} out of alphabet range [0, {sigma})");
    }
}

impl WaveletMatrix {
    /// Builds a wavelet matrix for `symbols`, all of which must be `< sigma`.
    ///
    /// # Panics
    /// Panics if `sigma == 0` or any symbol is out of range.
    pub fn new(symbols: &[u64], sigma: u64) -> Self {
        check_alphabet(symbols.iter().copied(), sigma);
        if sigma <= 1 << 32 {
            Self::from_symbols(symbols.iter().map(|&s| s as u32).collect(), sigma)
        } else {
            Self::from_symbols(symbols.to_vec(), sigma)
        }
    }

    /// [`Self::new`] over 32-bit symbols, taking the vector as the
    /// builder's working buffer — what [`Self::new`] itself runs on for
    /// alphabets up to 2³².
    ///
    /// # Panics
    /// Panics if `sigma == 0` or any symbol is out of range.
    pub fn from_u32_symbols(symbols: Vec<u32>, sigma: u64) -> Self {
        check_alphabet(symbols.iter().map(|&s| u64::from(s)), sigma);
        Self::from_symbols(symbols, sigma)
    }

    /// One sweep per level: the level's bits are assembled a word at a
    /// time while the symbols are stably partitioned into the next
    /// level's order (zeros from slot 0, ones from slot `z`). `z` is a
    /// count, so it does not depend on the order the symbols arrive in:
    /// the first level's takes its own pass, every later level's is
    /// counted by the sweep before it. The last level partitions nothing.
    /// The callers have checked the symbols against `sigma`.
    fn from_symbols<S: Symbol>(mut cur: Vec<S>, sigma: u64) -> Self {
        let len = cur.len();
        let width = bits_for(sigma.saturating_sub(1)).max(1);
        let mut levels = Vec::with_capacity(width);
        let mut zeros = Vec::with_capacity(width);
        let mut next = vec![S::default(); if width > 1 { len } else { 0 }];
        let mut z = len - cur.iter().map(|s| s.bit(width - 1) as usize).sum::<usize>();
        for shift in (1..width).rev() {
            let mut words = Vec::with_capacity(len.div_ceil(64));
            // Next free slot of the zero run and of the one run.
            let mut slot = [0usize, z];
            let mut next_ones = 0usize;
            for chunk in cur.chunks(64) {
                let mut word = 0u64;
                for (i, &s) in chunk.iter().enumerate() {
                    let bit = s.bit(shift);
                    word |= bit << i;
                    next[slot[bit as usize]] = s;
                    slot[bit as usize] += 1;
                    next_ones += s.bit(shift - 1) as usize;
                }
                words.push(word);
            }
            zeros.push(z);
            levels.push(RankSelect::new(BitVec::from_raw(words, len)));
            std::mem::swap(&mut cur, &mut next);
            z = len - next_ones;
        }
        zeros.push(z);
        levels.push(RankSelect::new(BitVec::from_raw(level_words(&cur, 0), len)));
        Self {
            levels,
            zeros,
            len,
            width,
            sigma,
        }
    }

    /// The level builder this crate shipped before [`Self::from_symbols`]
    /// (three iterator passes per level over 64-bit symbols), kept as the
    /// reference the construction tests compare bytes against.
    #[cfg(test)]
    fn new_reference(symbols: &[u64], sigma: u64) -> Self {
        assert!(sigma > 0, "alphabet must be non-empty");
        let width = bits_for(sigma.saturating_sub(1)).max(1);
        let mut levels = Vec::with_capacity(width);
        let mut zeros = Vec::with_capacity(width);
        let mut cur: Vec<u64> = symbols.to_vec();
        let mut next: Vec<u64> = Vec::with_capacity(cur.len());
        for l in 0..width {
            let shift = width - 1 - l;
            let bits = BitVec::from_bits(cur.iter().map(|&s| (s >> shift) & 1 == 1));
            next.clear();
            next.extend(cur.iter().copied().filter(|&s| (s >> shift) & 1 == 0));
            let z = next.len();
            next.extend(cur.iter().copied().filter(|&s| (s >> shift) & 1 == 1));
            zeros.push(z);
            levels.push(RankSelect::new(bits));
            std::mem::swap(&mut cur, &mut next);
        }
        Self {
            levels,
            zeros,
            len: symbols.len(),
            width,
            sigma,
        }
    }

    /// The per-level bit vectors, for the mapped on-disk format writer
    /// ([`crate::mapped`]).
    pub(crate) fn raw_levels(&self) -> &[RankSelect] {
        &self.levels
    }

    /// Reassembles a matrix from stored levels — the mapped-format load
    /// path. The `zeros` array is recomputed from the levels (it is the
    /// per-level zero count by construction), so it is never serialized
    /// and can't disagree with the bits.
    pub(crate) fn from_raw_parts(
        levels: Vec<RankSelect>,
        len: usize,
        sigma: u64,
    ) -> Result<Self, &'static str> {
        if sigma == 0 {
            return Err("wavelet matrix alphabet must be non-empty");
        }
        let width = bits_for(sigma.saturating_sub(1)).max(1);
        if levels.len() != width {
            return Err("wavelet matrix level count does not match alphabet width");
        }
        if levels.iter().any(|l| l.len() != len) {
            return Err("wavelet matrix level length does not match sequence length");
        }
        let zeros = levels.iter().map(|l| l.count_zeros()).collect();
        Ok(Self {
            levels,
            zeros,
            len,
            width,
            sigma,
        })
    }

    /// Sequence length.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the sequence is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Alphabet size.
    #[inline]
    pub fn sigma(&self) -> u64 {
        self.sigma
    }

    /// Number of bit levels (`⌈log₂ σ⌉`, at least 1).
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// The symbol at position `i`, in *O*(log σ).
    pub fn access(&self, i: usize) -> u64 {
        assert!(
            i < self.len,
            "position {i} out of bounds (len {})",
            self.len
        );
        let mut sym = 0u64;
        let mut i = i;
        for l in 0..self.width {
            let lvl = &self.levels[l];
            if lvl.get(i) {
                sym = (sym << 1) | 1;
                i = self.zeros[l] + lvl.rank1(i);
            } else {
                sym <<= 1;
                i = lvl.rank0(i);
            }
        }
        sym
    }

    /// Every symbol, in sequence order: [`Self::access`] at all `len`
    /// positions for one sequential pass per level and no rank. Bottom
    /// level up, each level's stable partition is undone: scanning the
    /// level's bits, the `k`-th zero is the element the partition put in
    /// slot `k`, the `k`-th one the element in slot `zeros + k`, so two
    /// cursors over the level below replace the two ranks of an
    /// `access` step. Two `len`-word buffers.
    pub fn decode_all(&self) -> Vec<u64> {
        let mut below = vec![0u64; self.len];
        let mut cur = vec![0u64; self.len];
        for l in (0..self.width).rev() {
            let lvl = &self.levels[l];
            let shift = self.width - 1 - l;
            // Next unread slot of the zero run and of the one run.
            let mut slot = [0usize, self.zeros[l]];
            for (w, chunk) in cur.chunks_mut(64).enumerate() {
                let word = lvl.bit_word(w);
                for (i, sym) in chunk.iter_mut().enumerate() {
                    let bit = (word >> i) & 1;
                    *sym = below[slot[bit as usize]] | bit << shift;
                    slot[bit as usize] += 1;
                }
            }
            std::mem::swap(&mut below, &mut cur);
        }
        below
    }

    /// Number of occurrences of `sym` in `[0, i)`, in *O*(log σ).
    pub fn rank(&self, sym: u64, i: usize) -> usize {
        assert!(i <= self.len);
        assert!(sym < self.sigma);
        let (mut b, mut start) = (i, 0usize);
        for l in 0..self.width {
            let lvl = &self.levels[l];
            if (sym >> (self.width - 1 - l)) & 1 == 1 {
                b = self.zeros[l] + lvl.rank1(b);
                start = self.zeros[l] + lvl.rank1(start);
            } else {
                b = lvl.rank0(b);
                start = lvl.rank0(start);
            }
        }
        b - start
    }

    /// Position of the `k`-th occurrence of `sym` (0-based), or `None`.
    pub fn select(&self, sym: u64, k: usize) -> Option<usize> {
        assert!(sym < self.sigma);
        if k >= self.rank(sym, self.len) {
            return None;
        }
        // Descend to find the leaf-level start of sym's block.
        let mut start = 0usize;
        for l in 0..self.width {
            let lvl = &self.levels[l];
            if (sym >> (self.width - 1 - l)) & 1 == 1 {
                start = self.zeros[l] + lvl.rank1(start);
            } else {
                start = lvl.rank0(start);
            }
        }
        // Ascend, inverting each level's stable partition.
        let mut pos = start + k;
        for l in (0..self.width).rev() {
            let lvl = &self.levels[l];
            pos = if (sym >> (self.width - 1 - l)) & 1 == 1 {
                lvl.select1(pos - self.zeros[l])?
            } else {
                lvl.select0(pos)?
            };
        }
        Some(pos)
    }

    /// Runs a guided traversal of the range `[b, e)` (see [`RangeGuide`]).
    ///
    /// Only nodes with a non-empty restriction of the range are visited, and
    /// only if the guide admits them, so the cost is *O*(log σ) per admitted
    /// leaf — the property Theorem 4.1 charges traversal costs with.
    pub fn guided_traverse<G: RangeGuide>(&self, b: usize, e: usize, guide: &mut G) {
        assert!(b <= e && e <= self.len);
        if b == e || !guide.enter(0, 0) {
            return;
        }
        self.traverse_rec(0, 0, 0, b, e, guide);
    }

    fn traverse_rec<G: RangeGuide>(
        &self,
        level: usize,
        prefix: u64,
        start: usize,
        b: usize,
        e: usize,
        guide: &mut G,
    ) {
        if level == self.width {
            guide.leaf(prefix, b - start, e - start);
            return;
        }
        let lvl = &self.levels[level];
        let z = self.zeros[level];
        let (b0, e0) = (lvl.rank0(b), lvl.rank0(e));
        // Node starts only feed the leaf ranks.
        let (s0, s1) = if G::LEAF_RANKS {
            let s0 = lvl.rank0(start);
            (s0, z + (start - s0))
        } else {
            (0, 0)
        };
        if e0 > b0 && guide.enter(level + 1, prefix << 1) {
            self.traverse_rec(level + 1, prefix << 1, s0, b0, e0, guide);
        }
        let (b1, e1) = (z + (b - b0), z + (e - e0));
        if e1 > b1 && guide.enter(level + 1, (prefix << 1) | 1) {
            self.traverse_rec(level + 1, (prefix << 1) | 1, s1, b1, e1, guide);
        }
    }

    /// Frontier-batched guided traversal: [`MultiTraversal::run`] on
    /// scratch allocated for this call. Hot paths hold a
    /// [`MultiTraversal`] and reuse it.
    ///
    /// # Panics
    /// Panics where [`MultiTraversal::run`] does, and if a range does not
    /// fit its 32-bit positions.
    pub fn guided_traverse_multi<G: MultiRangeGuide>(
        &self,
        ranges: &[(usize, usize)],
        guide: &mut G,
    ) {
        let narrow = |p: usize| u32::try_from(p).expect("range out of bounds");
        let ranges: Vec<(u32, u32)> = ranges
            .iter()
            .map(|&(b, e)| (narrow(b), narrow(e)))
            .collect();
        MultiTraversal::new().run(self, &ranges, guide)
    }

    /// Batched [`Self::rank`]: replaces each `positions[i]` with
    /// `rank(sym, positions[i])`. The per-symbol node-start chain is
    /// computed once for the whole batch instead of once per position,
    /// halving the level ranks for large batches — the backward-step
    /// primitive batched frontier expansion is built on.
    pub fn rank_batch(&self, sym: u64, positions: &mut [usize]) {
        assert!(sym < self.sigma);
        for (i, &p) in positions.iter().enumerate() {
            assert!(p <= self.len, "position {i} out of bounds");
        }
        let mut start = 0usize;
        for l in 0..self.width {
            let lvl = &self.levels[l];
            if (sym >> (self.width - 1 - l)) & 1 == 1 {
                let z = self.zeros[l];
                for p in positions.iter_mut() {
                    *p = z + lvl.rank1(*p);
                }
                start = z + lvl.rank1(start);
            } else {
                for p in positions.iter_mut() {
                    *p = lvl.rank0(*p);
                }
                start = lvl.rank0(start);
            }
        }
        for p in positions.iter_mut() {
            *p -= start;
        }
    }

    /// Calls `f(sym)` for the distinct symbols of `[b, e)` in increasing
    /// order, until `f` returns `false` — at the cost of the symbols
    /// visited, not of the range, and without ranking node starts.
    pub fn range_symbols<F: FnMut(u64) -> bool>(&self, b: usize, e: usize, f: &mut F) {
        struct While<'a, F> {
            f: &'a mut F,
            more: bool,
        }
        impl<F: FnMut(u64) -> bool> RangeGuide for While<'_, F> {
            const LEAF_RANKS: bool = false;
            fn enter(&mut self, _: usize, _: u64) -> bool {
                self.more
            }
            fn leaf(&mut self, sym: u64, _: usize, _: usize) {
                self.more = (self.f)(sym);
            }
        }
        self.guided_traverse(b, e, &mut While { f, more: true });
    }

    /// Calls `f(sym, rank_b, rank_e)` for every distinct symbol in `[b, e)`,
    /// in increasing symbol order.
    pub fn range_distinct<F: FnMut(u64, usize, usize)>(&self, b: usize, e: usize, f: &mut F) {
        struct All<'a, F>(&'a mut F);
        impl<F: FnMut(u64, usize, usize)> RangeGuide for All<'_, F> {
            fn enter(&mut self, _: usize, _: u64) -> bool {
                true
            }
            fn leaf(&mut self, sym: u64, rb: usize, re: usize) {
                (self.0)(sym, rb, re)
            }
        }
        self.guided_traverse(b, e, &mut All(f));
    }

    /// Number of distinct symbols in `[b, e)`.
    pub fn count_distinct(&self, b: usize, e: usize) -> usize {
        let mut n = 0;
        self.range_distinct(b, e, &mut |_, _, _| n += 1);
        n
    }

    /// Symbols occurring in **both** ranges, in increasing order, with rank
    /// offsets in each.
    pub fn range_intersect(&self, r1: (usize, usize), r2: (usize, usize)) -> Vec<IntersectionHit> {
        assert!(r1.0 <= r1.1 && r1.1 <= self.len);
        assert!(r2.0 <= r2.1 && r2.1 <= self.len);
        let mut out = Vec::new();
        if r1.0 < r1.1 && r2.0 < r2.1 {
            self.intersect_rec(0, 0, (0, r1.0, r1.1), (0, r2.0, r2.1), &mut out);
        }
        out
    }

    #[allow(clippy::type_complexity)]
    fn intersect_rec(
        &self,
        level: usize,
        prefix: u64,
        t1: (usize, usize, usize),
        t2: (usize, usize, usize),
        out: &mut Vec<IntersectionHit>,
    ) {
        if level == self.width {
            out.push((
                prefix,
                (t1.1 - t1.0, t1.2 - t1.0),
                (t2.1 - t2.0, t2.2 - t2.0),
            ));
            return;
        }
        let lvl = &self.levels[level];
        let z = self.zeros[level];
        let map0 = |t: (usize, usize, usize)| (lvl.rank0(t.0), lvl.rank0(t.1), lvl.rank0(t.2));
        let l1 = map0(t1);
        let l2 = map0(t2);
        if l1.2 > l1.1 && l2.2 > l2.1 {
            self.intersect_rec(level + 1, prefix << 1, l1, l2, out);
        }
        let map1 = |t: (usize, usize, usize), l: (usize, usize, usize)| {
            (z + (t.0 - l.0), z + (t.1 - l.1), z + (t.2 - l.2))
        };
        let h1 = map1(t1, l1);
        let h2 = map1(t2, l2);
        if h1.2 > h1.1 && h2.2 > h2.1 {
            self.intersect_rec(level + 1, (prefix << 1) | 1, h1, h2, out);
        }
    }

    /// The smallest symbol `>= x` in `[b, e)`, with rank offsets, or `None`.
    pub fn range_next_value(&self, b: usize, e: usize, x: u64) -> Option<(u64, usize, usize)> {
        assert!(b <= e && e <= self.len);
        if b == e {
            return None;
        }
        self.next_value_rec(0, 0, 0, b, e, x)
    }

    fn next_value_rec(
        &self,
        level: usize,
        prefix: u64,
        start: usize,
        b: usize,
        e: usize,
        x: u64,
    ) -> Option<(u64, usize, usize)> {
        // Symbol interval covered by this node: [lo, hi).
        let span = self.width - level;
        let lo = if span >= 64 { 0 } else { prefix << span };
        if span < 64 && lo.checked_add(1 << span).is_some_and(|hi| hi <= x) {
            return None;
        }
        if level == self.width {
            return Some((prefix, b - start, e - start));
        }
        let lvl = &self.levels[level];
        let (s0, b0, e0) = (lvl.rank0(start), lvl.rank0(b), lvl.rank0(e));
        if e0 > b0 {
            if let Some(hit) = self.next_value_rec(level + 1, prefix << 1, s0, b0, e0, x) {
                return Some(hit);
            }
        }
        let z = self.zeros[level];
        let (s1, b1, e1) = (z + (start - s0), z + (b - b0), z + (e - e0));
        if e1 > b1 {
            return self.next_value_rec(level + 1, (prefix << 1) | 1, s1, b1, e1, x);
        }
        None
    }

    /// Number of occurrences of symbols in `[lo, hi)` within positions
    /// `[b, e)` — a two-dimensional count in *O*(log σ), one of the
    /// "powerful operations providing on-the-fly selectivity statistics"
    /// §6 proposes for query planning.
    pub fn range_count_within(&self, b: usize, e: usize, lo: u64, hi: u64) -> usize {
        assert!(b <= e && e <= self.len);
        if b == e || lo >= hi {
            return 0;
        }
        self.count_within_rec(0, 0, b, e, lo, hi.min(1u64 << self.width.min(63)))
    }

    fn count_within_rec(
        &self,
        level: usize,
        prefix: u64,
        b: usize,
        e: usize,
        lo: u64,
        hi: u64,
    ) -> usize {
        if b == e {
            return 0;
        }
        let span = self.width - level;
        let node_lo = if span >= 64 { 0 } else { prefix << span };
        let node_hi = if span >= 63 {
            u64::MAX
        } else {
            node_lo + (1u64 << span)
        };
        if node_hi <= lo || node_lo >= hi {
            return 0;
        }
        if lo <= node_lo && node_hi <= hi {
            return e - b;
        }
        let lvl = &self.levels[level];
        let (b0, e0) = (lvl.rank0(b), lvl.rank0(e));
        let z = self.zeros[level];
        self.count_within_rec(level + 1, prefix << 1, b0, e0, lo, hi)
            + self.count_within_rec(
                level + 1,
                (prefix << 1) | 1,
                z + (b - b0),
                z + (e - e0),
                lo,
                hi,
            )
    }

    /// The `k`-th smallest symbol (0-based, counting multiplicity) in
    /// `[b, e)`, in *O*(log σ) — the classic wavelet-tree quantile
    /// \[21\].
    ///
    /// # Panics
    /// Panics if `k >= e - b` or the range is invalid.
    pub fn range_quantile(&self, b: usize, e: usize, k: usize) -> u64 {
        assert!(b <= e && e <= self.len);
        assert!(
            k < e - b,
            "quantile index {k} out of range of size {}",
            e - b
        );
        let (mut b, mut e, mut k) = (b, e, k);
        let mut sym = 0u64;
        for l in 0..self.width {
            let lvl = &self.levels[l];
            let (b0, e0) = (lvl.rank0(b), lvl.rank0(e));
            let zeros_here = e0 - b0;
            if k < zeros_here {
                sym <<= 1;
                b = b0;
                e = e0;
            } else {
                k -= zeros_here;
                sym = (sym << 1) | 1;
                let z = self.zeros[l];
                b = z + (b - b0);
                e = z + (e - e0);
            }
        }
        sym
    }

    /// Total number of conceptual tree nodes (`2^(width+1) - 1`), for sizing
    /// per-node mask tables in heap order.
    pub fn node_table_len(&self) -> usize {
        (1usize << (self.width + 1)) - 1
    }

    /// Heap index of the node `(level, prefix)`:
    /// `2^level - 1 + prefix`, compatible with [`Self::node_table_len`].
    #[inline]
    pub fn node_index(level: usize, prefix: u64) -> usize {
        (1usize << level) - 1 + prefix as usize
    }
}

impl SpaceUsage for WaveletMatrix {
    fn size_bytes(&self) -> usize {
        self.levels.iter().map(|l| l.size_bytes()).sum::<usize>()
            + self.zeros.capacity() * std::mem::size_of::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(n: usize, sigma: u64) -> Vec<u64> {
        (0..n)
            .map(|i| ((i as u64).wrapping_mul(0x9E3779B97F4A7C15) >> 17) % sigma)
            .collect()
    }

    /// `rank` on the plain sequence.
    fn slice_rank(syms: &[u64], sym: u64, i: usize) -> usize {
        syms[..i].iter().filter(|&&s| s == sym).count()
    }

    /// `range_distinct` on the plain sequence: `(sym, rank_b, rank_e)` of
    /// every symbol of `[b, e)`, in increasing symbol order.
    fn slice_distinct(syms: &[u64], b: usize, e: usize) -> Vec<(u64, usize, usize)> {
        let mut distinct = syms[b..e].to_vec();
        distinct.sort_unstable();
        distinct.dedup();
        let ranks = |s| (s, slice_rank(syms, s, b), slice_rank(syms, s, e));
        distinct.into_iter().map(ranks).collect()
    }

    #[test]
    fn access_matches_input() {
        let syms = sample(700, 100);
        let wm = WaveletMatrix::new(&syms, 100);
        for (i, &s) in syms.iter().enumerate() {
            assert_eq!(wm.access(i), s, "position {i}");
        }
    }

    /// Widths 1, 7, 17 and 40, lengths around the word size.
    #[test]
    fn decode_all_matches_access() {
        for sigma in [1u64, 2, 100, (1 << 16) + 3, (1 << 39) + 5] {
            for n in [0usize, 1, 63, 64, 65, 1000] {
                let syms = drawn(n, sigma, n % 2 == 1);
                let wm = WaveletMatrix::new(&syms, sigma);
                assert_eq!(wm.decode_all(), syms, "sigma {sigma}, n {n}");
            }
        }
    }

    #[test]
    fn rank_matches_slice_model() {
        let syms = sample(500, 43);
        let wm = WaveletMatrix::new(&syms, 43);
        for sym in 0..43 {
            for i in (0..=500).step_by(13) {
                assert_eq!(
                    wm.rank(sym, i),
                    slice_rank(&syms, sym, i),
                    "rank({sym}, {i})"
                );
            }
        }
    }

    #[test]
    fn select_inverts_rank() {
        let syms = sample(400, 17);
        let wm = WaveletMatrix::new(&syms, 17);
        for sym in 0..17 {
            let occ: Vec<usize> = (0..400).filter(|&i| syms[i] == sym).collect();
            for (k, &pos) in occ.iter().enumerate() {
                assert_eq!(wm.select(sym, k), Some(pos), "select({sym}, {k})");
            }
            assert_eq!(wm.select(sym, occ.len()), None);
        }
    }

    #[test]
    fn range_distinct_matches_slice_model() {
        let syms = sample(350, 29);
        let wm = WaveletMatrix::new(&syms, 29);
        for (b, e) in [(0, 350), (17, 18), (40, 200), (349, 350), (60, 60)] {
            let mut got = Vec::new();
            wm.range_distinct(b, e, &mut |s, rb, re| got.push((s, rb, re)));
            assert_eq!(got, slice_distinct(&syms, b, e), "range [{b}, {e})");
        }
    }

    #[test]
    fn guided_traversal_prunes_subtrees() {
        // Admit only symbols < 8 by pruning any node whose prefix, once
        // extended with zeros, already exceeds 7.
        let syms = sample(300, 32);
        let wm = WaveletMatrix::new(&syms, 32);
        struct Below8 {
            width: usize,
            seen: Vec<u64>,
            entered: usize,
        }
        impl RangeGuide for Below8 {
            fn enter(&mut self, level: usize, prefix: u64) -> bool {
                self.entered += 1;
                let span = self.width - level;
                (prefix << span) < 8
            }
            fn leaf(&mut self, sym: u64, _: usize, _: usize) {
                self.seen.push(sym);
            }
        }
        let mut guide = Below8 {
            width: wm.width(),
            seen: Vec::new(),
            entered: 0,
        };
        wm.guided_traverse(0, 300, &mut guide);
        let mut expected: Vec<u64> = syms.iter().copied().filter(|&s| s < 8).collect();
        expected.sort_unstable();
        expected.dedup();
        assert_eq!(guide.seen, expected);
        // Pruning must keep us away from the full 2*sigma node count.
        assert!(guide.entered < 2 * 32);
    }

    #[test]
    fn intersect_matches_slice_model() {
        let syms = sample(280, 23);
        let wm = WaveletMatrix::new(&syms, 23);
        for (r1, r2) in [
            ((0, 140), (70, 280)),
            ((5, 10), (200, 230)),
            ((0, 0), (0, 280)),
        ] {
            let in_r2 = slice_distinct(&syms, r2.0, r2.1);
            let expected: Vec<IntersectionHit> = slice_distinct(&syms, r1.0, r1.1)
                .into_iter()
                .filter_map(|(s, b1, e1)| {
                    let &(_, b2, e2) = in_r2.iter().find(|hit| hit.0 == s)?;
                    Some((s, (b1, e1), (b2, e2)))
                })
                .collect();
            assert_eq!(wm.range_intersect(r1, r2), expected, "ranges {r1:?} {r2:?}");
        }
    }

    #[test]
    fn next_value_matches_slice_model() {
        let syms = sample(260, 31);
        let wm = WaveletMatrix::new(&syms, 31);
        for x in 0..32 {
            for (b, e) in [(0usize, 260usize), (25, 80), (100, 103)] {
                let expected = slice_distinct(&syms, b, e)
                    .into_iter()
                    .find(|&(s, ..)| s >= x);
                assert_eq!(
                    wm.range_next_value(b, e, x),
                    expected,
                    "x={x} range [{b},{e})"
                );
            }
        }
    }

    #[test]
    fn sigma_one_and_empty() {
        let wm = WaveletMatrix::new(&[0, 0, 0], 1);
        assert_eq!(wm.access(2), 0);
        assert_eq!(wm.rank(0, 3), 3);
        assert_eq!(wm.select(0, 2), Some(2));

        let wm = WaveletMatrix::new(&[], 5);
        assert!(wm.is_empty());
        assert_eq!(wm.rank(4, 0), 0);
        assert_eq!(wm.count_distinct(0, 0), 0);
    }

    /// `n` symbols below `sigma`: uniform, or Zipf(1) — symbol `k` with
    /// probability about `1 / ((k + 1) ln σ)` — by a log-uniform draw.
    fn drawn(n: usize, sigma: u64, zipf: bool) -> Vec<u64> {
        let mut state = 0x2545_F491_4F6C_DD1Du64 ^ sigma;
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let r = state >> 11;
                if zipf {
                    let u = r as f64 / (1u64 << 53) as f64;
                    (((sigma as f64).powf(u) as u64).max(1) - 1).min(sigma - 1)
                } else {
                    r % sigma
                }
            })
            .collect()
    }

    /// The matrix as a mapped index file stores it.
    fn stored(wm: &WaveletMatrix) -> Vec<u8> {
        let mut bytes = Vec::new();
        crate::mapped::write_wavelet_matrix(&mut crate::mapped::SectionWriter::new(&mut bytes), wm)
            .unwrap();
        bytes
    }

    /// The one-sweep builder lays out exactly what the old three-pass one
    /// did: the same stored bytes — level words, rank and select
    /// directories.
    #[test]
    fn one_sweep_construction_is_byte_identical_to_the_reference() {
        // Widths 1, 7, 8, 17, and 40 for the 64-bit symbol path.
        for sigma in [2u64, 100, 256, (1 << 16) + 3, (1 << 39) + 5] {
            for n in [0usize, 1, 63, 64, 65, (1 << 16) + 3] {
                for zipf in [false, true] {
                    let syms = drawn(n, sigma, zipf);
                    let built = WaveletMatrix::new(&syms, sigma);
                    let reference = WaveletMatrix::new_reference(&syms, sigma);
                    let what = format!("sigma {sigma}, n {n}, zipf {zipf}");
                    assert_eq!(stored(&built), stored(&reference), "{what}");
                    assert_eq!(built.zeros, reference.zeros, "{what}");
                    assert_eq!(built.width, reference.width, "{what}");
                    for (l, (a, b)) in built.levels.iter().zip(&reference.levels).enumerate() {
                        assert_eq!(a.len(), b.len(), "{what}, level {l}");
                        assert_eq!(a.count_ones(), b.count_ones(), "{what}, level {l}");
                        assert!(a.raw_parts() == b.raw_parts(), "{what}, level {l}");
                        assert_eq!(
                            a.select_sample_rates(),
                            b.select_sample_rates(),
                            "{what}, level {l}"
                        );
                    }
                    if sigma <= 1 << 32 {
                        let narrow = syms.iter().map(|&s| s as u32).collect();
                        let from_u32 = WaveletMatrix::from_u32_symbols(narrow, sigma);
                        assert_eq!(stored(&from_u32), stored(&reference), "{what}");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of alphabet range")]
    fn from_u32_symbols_checks_the_alphabet() {
        WaveletMatrix::from_u32_symbols(vec![0, 5, 2], 5);
    }

    #[test]
    fn node_index_heap_order() {
        assert_eq!(WaveletMatrix::node_index(0, 0), 0);
        assert_eq!(WaveletMatrix::node_index(1, 0), 1);
        assert_eq!(WaveletMatrix::node_index(1, 1), 2);
        assert_eq!(WaveletMatrix::node_index(2, 3), 6);
        let wm = WaveletMatrix::new(&[0, 1, 2, 3], 4);
        assert_eq!(wm.node_table_len(), 7);
    }

    #[test]
    fn range_count_within_matches_naive() {
        let syms = sample(300, 40);
        let wm = WaveletMatrix::new(&syms, 40);
        for (b, e) in [(0usize, 300usize), (25, 120), (100, 101), (50, 50)] {
            for (lo, hi) in [(0u64, 40u64), (5, 12), (39, 40), (10, 10), (0, 1)] {
                let naive = syms[b..e].iter().filter(|&&s| s >= lo && s < hi).count();
                assert_eq!(
                    wm.range_count_within(b, e, lo, hi),
                    naive,
                    "range [{b},{e}) values [{lo},{hi})"
                );
            }
        }
    }

    #[test]
    fn range_quantile_matches_sorted() {
        let syms = sample(200, 25);
        let wm = WaveletMatrix::new(&syms, 25);
        for (b, e) in [(0usize, 200usize), (30, 90), (150, 153)] {
            let mut sorted: Vec<u64> = syms[b..e].to_vec();
            sorted.sort_unstable();
            for (k, &expected) in sorted.iter().enumerate() {
                assert_eq!(wm.range_quantile(b, e, k), expected, "k={k} in [{b},{e})");
            }
        }
    }

    /// An all-admitting multi guide recording `(item, sym, rb, re)`.
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

    #[test]
    fn multi_traversal_matches_per_range_union() {
        let syms = sample(500, 41);
        let wm = WaveletMatrix::new(&syms, 41);
        let ranges = [
            (0usize, 120usize),
            (40, 41),
            (100, 400),
            (250, 250),
            (499, 500),
        ];
        let mut guide = CollectMulti(Vec::new());
        wm.guided_traverse_multi(&ranges, &mut guide);
        let mut got = guide.0;
        got.sort_unstable();
        let mut expected = Vec::new();
        for (i, &(b, e)) in ranges.iter().enumerate() {
            wm.range_distinct(b, e, &mut |s, rb, re| {
                expected.push((i as u32, s, rb, re));
            });
        }
        expected.sort_unstable();
        assert_eq!(got, expected);
    }

    #[test]
    fn multi_traversal_respects_item_pruning() {
        // Item 0 may only see symbols < 8; item 1 sees everything.
        let syms = sample(300, 32);
        let wm = WaveletMatrix::new(&syms, 32);
        struct PerItem {
            width: usize,
            out: Vec<(u32, u64)>,
        }
        impl MultiRangeGuide for PerItem {
            fn enter_node(&mut self, _: usize, _: u64) -> bool {
                true
            }
            fn enter_item(&mut self, item: u32, level: usize, prefix: u64) -> bool {
                item != 0 || (prefix << (self.width - level)) < 8
            }
            fn leaf(&mut self, item: u32, sym: u64, _: usize, _: usize) {
                self.out.push((item, sym));
            }
        }
        let mut guide = PerItem {
            width: wm.width(),
            out: Vec::new(),
        };
        wm.guided_traverse_multi(&[(0, 300), (0, 300)], &mut guide);
        let below8: Vec<u64> = guide
            .out
            .iter()
            .filter(|&&(i, _)| i == 0)
            .map(|&(_, s)| s)
            .collect();
        assert!(below8.iter().all(|&s| s < 8));
        let mut all: Vec<u64> = guide
            .out
            .iter()
            .filter(|&&(i, _)| i == 1)
            .map(|&(_, s)| s)
            .collect();
        all.sort_unstable();
        let mut expected: Vec<u64> = syms.clone();
        expected.sort_unstable();
        expected.dedup();
        assert_eq!(all, expected);
    }

    #[test]
    fn multi_traversal_counts_saved_ranks() {
        let syms = sample(2000, 64);
        let wm = WaveletMatrix::new(&syms, 64);
        let ranges: Vec<(u32, u32)> = (0..64).map(|i| (i * 30, i * 30 + 25)).collect();
        let mut mt = MultiTraversal::new();
        let mut guide = CollectMulti(Vec::new());
        mt.run(&wm, &ranges, &mut guide);
        assert!(mt.ranks > 0);
        assert!(
            mt.ranks_saved > mt.ranks / 2,
            "batching 64 ranges should save many ranks: did {} saved {}",
            mt.ranks,
            mt.ranks_saved
        );
        // Scratch reuse: a second run over the same input agrees.
        let mut guide2 = CollectMulti(Vec::new());
        mt.run(&wm, &ranges, &mut guide2);
        assert_eq!(guide.0, guide2.0);
    }

    #[test]
    fn multi_traversal_empty_and_degenerate() {
        let wm = WaveletMatrix::new(&[1u64, 2, 3], 4);
        let mut guide = CollectMulti(Vec::new());
        wm.guided_traverse_multi(&[], &mut guide);
        wm.guided_traverse_multi(&[(0, 0), (3, 3)], &mut guide);
        assert!(guide.0.is_empty());
    }

    /// The ranges the equivalence tests push through every matrix: one
    /// position wide (first, last, mid-word), empty, the whole sequence,
    /// ending at `len`, and narrow ones on either side of and across a
    /// 512-bit superblock seam.
    fn probe_ranges(len: usize) -> Vec<(usize, usize)> {
        let mut ranges = vec![
            (0, 1),
            (len - 1, len),
            (77, 78),
            (300, 300),
            (len, len),
            (0, len),
            (len / 2, len),
            (100, 2000),
            (500, 530),
            (510, 513),
            (511, 512),
            (512, 513),
            (1020, 1030),
            (1536, 1538),
        ];
        ranges.extend((0..40).map(|i| (i * 61 + 3, i * 61 + 3 + i % 3)));
        ranges
    }

    /// A pruning rule with an item part and a node part, usable from both
    /// traversals. The item part keeps odd items out of the upper half of
    /// the alphabet. The node part is either arbitrary — one subtree in
    /// five dropped, wherever it is — or `hereditary`: the subtrees under
    /// one three-bit prefix dropped, so that a node goes exactly when all
    /// its leaves go, which is what the shortcut for single positions
    /// asks of a guide (the item part is hereditary as it stands).
    struct Pruner {
        width: usize,
        leaf_ranks: bool,
        hereditary: bool,
    }

    impl Pruner {
        fn node(&self, level: usize, prefix: u64) -> bool {
            if self.hereditary {
                let k = self.width.min(3);
                level < k || prefix >> (level - k) != 0b010 & ((1 << k) - 1)
            } else {
                level == 0 || !(prefix.wrapping_mul(0x9E37_79B9) >> 7).is_multiple_of(5)
            }
        }
        fn item(&self, item: u32, level: usize, prefix: u64) -> bool {
            item.is_multiple_of(2) || level == 0 || prefix >> (level - 1) == 0
        }
        fn ranks(&self, rb: usize, re: usize) -> (usize, usize) {
            if self.leaf_ranks {
                (rb, re)
            } else {
                (0, 0)
            }
        }
    }

    struct PrunedSingle<'a, const RANKS: bool>(&'a Pruner, u32, Vec<(u32, u64, usize, usize)>);
    impl<const RANKS: bool> RangeGuide for PrunedSingle<'_, RANKS> {
        const LEAF_RANKS: bool = RANKS;
        fn enter(&mut self, level: usize, prefix: u64) -> bool {
            self.0.node(level, prefix) && self.0.item(self.1, level, prefix)
        }
        fn leaf(&mut self, sym: u64, rb: usize, re: usize) {
            let (rb, re) = self.0.ranks(rb, re);
            self.2.push((self.1, sym, rb, re));
        }
    }

    struct PrunedMulti<'a, const RANKS: bool, const SHORTCUT: bool> {
        rule: &'a Pruner,
        leaves: Vec<(u32, u64, usize, usize)>,
        /// `enter_item` calls above the leaves.
        asked_inside: usize,
    }
    impl<const RANKS: bool, const SHORTCUT: bool> MultiRangeGuide for PrunedMulti<'_, RANKS, SHORTCUT> {
        const LEAF_RANKS: bool = RANKS;
        const UNIT_SHORTCUT: bool = SHORTCUT;
        fn enter_node(&mut self, level: usize, prefix: u64) -> bool {
            self.rule.node(level, prefix)
        }
        fn enter_item(&mut self, item: u32, level: usize, prefix: u64) -> bool {
            self.asked_inside += usize::from(level < self.rule.width);
            self.rule.item(item, level, prefix)
        }
        fn leaf(&mut self, item: u32, sym: u64, rb: usize, re: usize) {
            let (rb, re) = self.rule.ranks(rb, re);
            self.leaves.push((item, sym, rb, re));
        }
    }

    /// The level-synchronous traversal reports, for every range, what
    /// that range's own `guided_traverse` reports — same symbols, same
    /// order, same ranks when the guide reads them — under a guide that
    /// prunes by node and by item, with and without the shortcut for
    /// single positions, and its leaves arrive symbol by symbol.
    #[test]
    fn level_synchronous_multi_equals_per_range_traversal() {
        fn check<const RANKS: bool, const SHORTCUT: bool>(
            wm: &WaveletMatrix,
            ranges: &[(usize, usize)],
            hereditary: bool,
            what: &str,
        ) -> usize {
            assert!(
                hereditary || !SHORTCUT,
                "the shortcut wants a hereditary rule"
            );
            let what = format!("{what}, ranks {RANKS}, shortcut {SHORTCUT}");
            let rule = Pruner {
                width: wm.width(),
                leaf_ranks: RANKS,
                hereditary,
            };
            let fresh = || PrunedMulti::<RANKS, SHORTCUT> {
                rule: &rule,
                leaves: Vec::new(),
                asked_inside: 0,
            };
            let mut multi = fresh();
            let mut mt = MultiTraversal::new();
            let narrow: Vec<(u32, u32)> =
                ranges.iter().map(|&(b, e)| (b as u32, e as u32)).collect();
            mt.run(wm, &narrow, &mut multi);
            let arrival: Vec<(u64, u32)> = multi.leaves.iter().map(|&(i, s, ..)| (s, i)).collect();
            assert!(
                arrival.windows(2).all(|w| w[0] < w[1]),
                "{what}: leaves out of (symbol, item) order"
            );
            for (i, &(b, e)) in ranges.iter().enumerate() {
                let mut single = PrunedSingle::<RANKS>(&rule, i as u32, Vec::new());
                wm.guided_traverse(b, e, &mut single);
                let got: Vec<_> = multi
                    .leaves
                    .iter()
                    .filter(|l| l.0 == i as u32)
                    .copied()
                    .collect();
                assert_eq!(got, single.2, "{what}: range {i} = [{b}, {e})");
            }
            // The scratch carries nothing over: a second run agrees.
            let mut again = fresh();
            mt.run(wm, &narrow, &mut again);
            assert_eq!(again.leaves, multi.leaves, "{what}: second run");
            multi.asked_inside
        }
        // Widths 1, 7, 8 and 17.
        for sigma in [2u64, 100, 256, (1 << 16) + 3] {
            for zipf in [false, true] {
                let syms = drawn(2500, sigma, zipf);
                let wm = WaveletMatrix::new(&syms, sigma);
                let ranges = probe_ranges(syms.len());
                let what = format!("sigma {sigma}, zipf {zipf}");
                check::<true, false>(&wm, &ranges, false, &what);
                check::<false, false>(&wm, &ranges, false, &what);
                let asked = check::<true, false>(&wm, &ranges, true, &what);
                assert_eq!(asked, check::<false, false>(&wm, &ranges, true, &what));
                let spared = check::<false, true>(&wm, &ranges, true, &what);
                assert_eq!(spared, check::<true, true>(&wm, &ranges, true, &what));
                // The shortcut spares the narrow ranges everything
                // between the root and their leaves.
                assert!(sigma == 2 || spared < asked, "{what}: {spared} of {asked}");
            }
        }
    }

    #[test]
    fn range_symbols_lists_ascending_until_told_to_stop() {
        let syms = sample(900, 300);
        let wm = WaveletMatrix::new(&syms, 300);
        for (b, e) in [(0usize, 900usize), (10, 11), (400, 400), (250, 700)] {
            let mut all = Vec::new();
            wm.range_distinct(b, e, &mut |s, _, _| all.push(s));
            for take in [1usize, 5, all.len(), usize::MAX] {
                let mut got = Vec::new();
                wm.range_symbols(b, e, &mut |s| {
                    got.push(s);
                    got.len() < take
                });
                assert_eq!(got, all[..take.min(all.len())], "[{b}, {e}), {take}");
            }
        }
    }

    #[test]
    fn rank_batch_matches_rank() {
        let syms = sample(600, 37);
        let wm = WaveletMatrix::new(&syms, 37);
        for sym in [0u64, 5, 17, 36] {
            let mut positions: Vec<usize> = (0..=600).step_by(13).collect();
            let expected: Vec<usize> = positions.iter().map(|&i| wm.rank(sym, i)).collect();
            wm.rank_batch(sym, &mut positions);
            assert_eq!(positions, expected, "sym {sym}");
        }
        // Empty batch is a no-op.
        wm.rank_batch(3, &mut []);
    }

    #[test]
    fn rank_of_absent_symbol_is_zero() {
        let syms = vec![1u64, 3, 5, 7];
        let wm = WaveletMatrix::new(&syms, 8);
        for sym in [0u64, 2, 4, 6] {
            assert_eq!(wm.rank(sym, 4), 0);
            assert_eq!(wm.select(sym, 0), None);
        }
    }
}
