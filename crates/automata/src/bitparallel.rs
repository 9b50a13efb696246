//! Bit-parallel simulation of the Glushkov NFA (Navarro & Raffinot \[42\];
//! §3.3 of the paper).
//!
//! A state set is a mask `D` of one or more machine words
//! ([`StateMask`]): one while `m < w`, `⌈(m+1)/w⌉` past it, every
//! operation taken word by word (§3.3). Reading label `c` forward updates
//! `D ← T[D] & B[c]` (Eq. 1); reading backward, `D ← T'[D & B[c]]`
//! (Eq. 2). `T` (states reachable in one step from a set) and `T'` (states
//! reaching a set in one step) are split vertically into `d`-bit subtables
//! — `T[X] = T₁[X₁] | ⋯ | T_{⌈(m+1)/d⌉}[X_{⌈(m+1)/d⌉}]` — trading a factor
//! `O(m/d)` in time for `O((m/d)·2^d)` instead of `O(2^m)` space, exactly
//! as §3.3 describes.

use crate::ast::Lit;
use crate::glushkov::{Glushkov, StateMask};
use crate::Label;

/// Default vertical split width for the transition tables.
pub const DEFAULT_SPLIT_WIDTH: usize = 8;

/// The transition functions `T` (forward) and `T'` (backward) over
/// state masks, each split into `d`-bit subtables, in one array.
#[derive(Clone, Debug, PartialEq, Eq)]
struct SplitTables<M> {
    /// `T`'s subtables back to back, then `T'`'s: in each half,
    /// `[j << d | x]` is the image of the state subset chunk `j` holds
    /// as pattern `x`. Every chunk has `2^d` entries but the last, which
    /// has `2^w` for its width `w`.
    flat: Vec<M>,
    d: usize,
}

impl<M: StateMask> SplitTables<M> {
    /// Both tables over the states `0..n_states`, every entry empty.
    fn zeroed(n_states: usize, d: usize) -> Self {
        let last_width = n_states - (n_states - 1) / d * d;
        let len = (((n_states - 1) / d) << d) + (1 << last_width);
        // Allocated, then zeroed: for tables this small, faster than an
        // allocation that comes zeroed.
        let mut flat = Vec::with_capacity(2 * len);
        flat.resize(2 * len, M::ZERO);
        Self { flat, d }
    }

    /// `T` (`T'` when `backward`).
    #[inline]
    fn table(&self, backward: bool) -> &[M] {
        let (fwd, bwd) = self.flat.split_at(self.flat.len() / 2);
        if backward {
            bwd
        } else {
            fwd
        }
    }

    /// Sets the single-state entries from `trans(q)`, state `q`'s
    /// one-step image: `T[{q}]` is the image, and `q` joins `T'[{p}]` for
    /// every state `p` in it. Entries are found chunk by chunk, as
    /// [`Self::apply`] reads them, so that no place takes a division.
    fn enter(&mut self, n_states: usize, trans: impl Fn(usize) -> M) {
        let d = self.d;
        let half = self.flat.len() / 2;
        let (fwd, bwd) = self.flat.split_at_mut(half);
        let (mut chunk_at, mut bit) = (0, 1);
        for q in 0..n_states {
            let image = trans(q);
            fwd[chunk_at | bit] = image;
            let (mut rest, mut at) = (image, 0);
            while !rest.is_empty() {
                let mut chunk = rest.words()[0] & ((1 << d) - 1);
                while chunk != 0 {
                    let reaching = &mut bwd[at | 1 << chunk.trailing_zeros()];
                    *reaching = reaching.or(M::bit(q));
                    chunk &= chunk - 1;
                }
                rest = rest.shr(d);
                at += 1 << d;
            }
            bit <<= 1;
            if bit == 1 << d {
                (chunk_at, bit) = (chunk_at + bit, 1);
            }
        }
    }

    /// Fills every entry from the single-state ones, by dynamic
    /// programming: `T[x] = T[x without its lowest state] | T[that
    /// state]`.
    fn fill(&mut self) {
        let half = self.flat.len() / 2;
        for table in self.flat.chunks_mut(half) {
            for sub in table.chunks_mut(1 << self.d) {
                for x in 3..sub.len() {
                    let rest = x & (x - 1);
                    if rest != 0 {
                        sub[x] = sub[rest].or(sub[x ^ rest]);
                    }
                }
            }
        }
    }

    /// `T[mask]` (`T'[mask]` when `backward`): the OR of the images of
    /// every state in `mask`.
    #[inline]
    fn apply(&self, backward: bool, mask: M) -> M {
        let table = self.table(backward);
        let mut out = M::ZERO;
        let mut rest = mask;
        let mut at = 0;
        while !rest.is_empty() {
            let chunk = (rest.words()[0] & ((1 << self.d) - 1)) as usize;
            // An index past the table, which only bits beyond state m
            // make (well-formed masks carry none), reads as no state.
            out = out.or(table.get(at | chunk).copied().unwrap_or(M::ZERO));
            rest = rest.shr(self.d);
            at += 1 << self.d;
        }
        out
    }
}

/// The bit-parallel simulator: cached `B` table plus split `T`/`T'`,
/// over state masks of type `M`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BitParallel<M: StateMask = u64> {
    nullable: bool,
    accept: M,
    split: SplitTables<M>,
    /// `B[c]` for labels mentioned positively, sorted by label.
    pos_masks: Vec<(Label, M)>,
    /// Negated-class positions: `(position bit, excluded labels)`.
    neg_positions: Vec<(M, Vec<Label>)>,
}

impl<M: StateMask> BitParallel<M> {
    /// Builds the simulation tables with the default split width.
    pub fn new(g: &Glushkov<M>) -> Self {
        Self::with_split_width(g, DEFAULT_SPLIT_WIDTH)
    }

    /// Builds the simulation tables splitting `T`/`T'` into `d`-bit
    /// subtables (`1 ≤ d ≤ 16` is sensible).
    pub fn with_split_width(g: &Glushkov<M>, d: usize) -> Self {
        assert!((1..=20).contains(&d), "split width {d} out of range");
        let n_states = g.positions() + 1;
        // T[{q}] is q's one-step image; T'[{p}], the states whose image
        // holds p, is the same relation transposed.
        let mut split = SplitTables::<M>::zeroed(n_states, d);
        split.enter(n_states, |q| g.trans(q));
        split.fill();

        let mentions = |lit: &Lit| match lit {
            Lit::Label(_) => 1,
            Lit::Class(ls) => ls.len(),
            Lit::NegClass(_) => 0,
        };
        let mut pos_masks = Vec::with_capacity(g.literals().map(mentions).sum());
        let mut neg_positions = Vec::new();
        for (i, lit) in g.literals().enumerate() {
            let bit = M::bit(i + 1);
            match lit {
                Lit::Label(l) => pos_masks.push((*l, bit)),
                Lit::Class(ls) => pos_masks.extend(ls.iter().map(|&l| (l, bit))),
                Lit::NegClass(ls) => neg_positions.push((bit, ls.clone())),
            }
        }
        pos_masks.sort_unstable_by_key(|&(l, _)| l);
        pos_masks.dedup_by(|later, kept| {
            let same = later.0 == kept.0;
            if same {
                kept.1 = kept.1.or(later.1);
            }
            same
        });

        Self {
            nullable: g.nullable(),
            accept: g.accept_mask(),
            split,
            pos_masks,
            neg_positions,
        }
    }

    /// Whether the empty word is accepted.
    #[inline]
    pub fn is_nullable(&self) -> bool {
        self.nullable
    }

    /// Mask of accepting states (`F`).
    #[inline]
    pub fn accept_mask(&self) -> M {
        self.accept
    }

    /// `B[c]`: positions reachable by an edge labeled `c` from any state.
    pub fn label_mask(&self, c: Label) -> M {
        let mut mask = match self.pos_masks.binary_search_by_key(&c, |&(l, _)| l) {
            Ok(i) => self.pos_masks[i].1,
            Err(_) => M::ZERO,
        };
        for &(bit, ref excluded) in &self.neg_positions {
            if excluded.binary_search(&c).is_err() {
                mask = mask.or(bit);
            }
        }
        mask
    }

    /// Positive-literal masks, sorted by label (for seeding per-node mask
    /// tables bottom-up as §4.1 prescribes).
    pub fn positive_label_masks(&self) -> &[(Label, M)] {
        &self.pos_masks
    }

    /// Negated-class positions `(bit, excluded labels)`.
    pub fn negated_positions(&self) -> &[(M, Vec<Label>)] {
        &self.neg_positions
    }

    /// One forward step (Eq. 1): `T[D] & B[c]`.
    #[inline]
    pub fn step_fwd(&self, d: M, c: Label) -> M {
        self.apply_fwd(d).and(self.label_mask(c))
    }

    /// One backward step (Eq. 2): `T'[D & B[c]]`.
    #[inline]
    pub fn step_bwd(&self, d: M, c: Label) -> M {
        self.apply_bwd(d.and(self.label_mask(c)))
    }

    /// `T'[X]` for a pre-intersected argument (the engine intersects with
    /// `B[p]` during the wavelet traversal, per Fact 1).
    #[inline]
    pub fn apply_bwd(&self, x: M) -> M {
        self.split.apply(true, x)
    }

    /// `T[X]` without the `B` intersection.
    #[inline]
    pub fn apply_fwd(&self, x: M) -> M {
        self.split.apply(false, x)
    }

    /// Forward word matching: simulates §3.3's algorithm.
    pub fn matches(&self, word: &[Label]) -> bool {
        let mut d = M::INITIAL;
        for &c in word {
            d = self.step_fwd(d, c);
            if d.is_empty() {
                return false;
            }
        }
        d.intersects(self.accept)
    }

    /// Backward word matching: reads `word` from last to first with Eq. 2
    /// and accepts when the initial state survives. Agrees with
    /// [`Self::matches`] on every word.
    pub fn matches_reverse(&self, word: &[Label]) -> bool {
        let mut d = self.accept;
        for &c in word.iter().rev() {
            d = self.step_bwd(d, c);
            if d.is_empty() {
                return false;
            }
        }
        d.intersects(M::INITIAL)
    }

    /// Working-space bytes of the tables (Table 2 accounting).
    pub fn size_bytes(&self) -> usize {
        self.split.flat.len() * size_of::<M>()
            + self.pos_masks.len() * size_of::<(Label, M)>()
            + self
                .neg_positions
                .iter()
                .map(|(_, v)| size_of::<M>() + v.len() * 8)
                .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse, NumericResolver};

    const R: NumericResolver = NumericResolver { n_base: 50 };

    fn bp(s: &str) -> BitParallel {
        BitParallel::new(&Glushkov::<u64>::new(&parse(s, &R).unwrap()).unwrap())
    }

    /// The worked simulation of §3.3: running `a/b*/b` (a=1, b=2) over the
    /// string "abba", with accepting configurations after reading "ab" and
    /// "abb".
    #[test]
    fn fig2_forward_trace() {
        let bp = bp("1/2*/2");
        let mut d = u64::INITIAL;
        d = bp.step_fwd(d, 1);
        assert_eq!(d, 0b0010); // state 1 active
        d = bp.step_fwd(d, 2);
        assert_eq!(d, 0b1100); // states 2,3 active
        assert!(d & bp.accept_mask() != 0); // "ab" accepted
        d = bp.step_fwd(d, 2);
        assert_eq!(d, 0b1100); // still 2,3
        assert!(d & bp.accept_mask() != 0); // "abb" accepted
        d = bp.step_fwd(d, 1);
        assert_eq!(d, 0); // out of active states
    }

    /// The reverse table `T'` of Fig. 5: `T'[0001] = 0110` in the paper's
    /// MSB-initial notation becomes: predecessors of position 3 are
    /// positions {1, 2}.
    #[test]
    fn fig5_reverse_table() {
        let bp = bp("5/3*/3");
        // D = F = {3}; reading l5 backward: T'[F & B[3]] = predecessors of 3.
        let d = bp.step_bwd(bp.accept_mask(), 3);
        assert_eq!(d, 0b0110); // states 1 and 2
                               // Reading ^bus (=5) backward from {1}: predecessor is the initial state.
        let d2 = bp.step_bwd(0b0010, 5);
        assert_eq!(d2, u64::INITIAL);
    }

    #[test]
    fn forward_and_reverse_agree() {
        let bp = bp("1/(2|3)*/4?");
        let words: &[&[Label]] = &[
            &[1],
            &[1, 4],
            &[1, 2, 3, 2],
            &[1, 2, 3, 4],
            &[2],
            &[],
            &[1, 4, 4],
            &[4],
        ];
        for w in words {
            assert_eq!(
                bp.matches(w),
                bp.matches_reverse(w),
                "disagreement on {w:?}"
            );
        }
    }

    #[test]
    fn split_widths_agree() {
        let g = Glushkov::<u64>::new(&parse("(1|2)+/3*/(4/5)?", &R).unwrap()).unwrap();
        let reference = BitParallel::with_split_width(&g, 16);
        for d in [1, 2, 4, 7, 8] {
            let bp = BitParallel::with_split_width(&g, d);
            for mask in 0..(1u64 << (g.positions() + 1)) {
                assert_eq!(
                    bp.apply_fwd(mask),
                    reference.apply_fwd(mask),
                    "fwd d={d} mask={mask:b}"
                );
                assert_eq!(
                    bp.apply_bwd(mask),
                    reference.apply_bwd(mask),
                    "bwd d={d} mask={mask:b}"
                );
            }
        }
    }

    /// Past the word: `1/(2|3)*/4?` behind a chain `100/101/…` of 70
    /// or 250 literals, as an alternative and as a prefix, runs over two
    /// and four words as the NFA does, forward and backward.
    #[test]
    fn wide_masks_agree_with_the_nfa() {
        use crate::ast::Regex;
        fn check<M: StateMask>(e: &Regex, words: &[Vec<Label>]) {
            let bp = BitParallel::<M>::with_split_width(&Glushkov::new(e).unwrap(), 3);
            let nfa = crate::Nfa::from_regex(e);
            for w in words {
                let want = nfa.matches(w);
                assert_eq!((bp.matches(w), bp.matches_reverse(w)), (want, want));
            }
        }
        let core = parse("1/(2|3)*/4?", &R).unwrap();
        let mut words: Vec<Vec<Label>> = vec![vec![1, 4], vec![1, 2, 3, 2], vec![]];
        for n in [70, 250] {
            let pad =
                (101..100 + n).fold(Regex::label(100), |e, l| Regex::concat(e, Regex::label(l)));
            words.push((100..100 + n).collect());
            words.push((100..100 + n).chain([1, 3, 4]).collect());
            for e in [
                Regex::alt(pad.clone(), core.clone()),
                Regex::concat(pad, core.clone()),
            ] {
                check::<[u64; 4]>(&e, &words);
                if n < 127 {
                    check::<[u64; 2]>(&e, &words);
                }
            }
        }
    }

    #[test]
    fn empty_word_only_when_nullable() {
        assert!(!bp("1").matches(&[]));
        assert!(bp("1*").matches(&[]));
        assert!(bp("1*").matches_reverse(&[]));
        assert!(bp("1?").matches(&[]));
    }
}
