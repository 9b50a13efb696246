//! Glushkov's position automaton \[22, 6\].
//!
//! The NFA has exactly `m + 1` states for a regular expression with `m`
//! literal occurrences: one state per occurrence ("position") plus the
//! initial state. Its defining regularity — every transition arriving at a
//! position carries that position's literal — is Fact 1 of the paper and
//! what makes the bit-parallel simulation (and the whole RPQ algorithm)
//! work.
//!
//! States are bits of a [`StateMask`]: bit 0 is the initial state, bits
//! `1..=m` the positions in left-to-right order of the expression; past
//! one `u64`, §3.3's `⌈(m+1)/w⌉` words, state `q` in word `⌊q/64⌋`.

use succinct::util::Words;

use crate::ast::{Lit, Regex};
use crate::{AutomatonError, Label};

/// The most words a state set spans.
pub const MAX_WORDS: usize = 4;

/// The widest state set, to which one of any width is zero-padded.
pub type WideMask = [u64; MAX_WORDS];

/// A state set of the Glushkov NFA, as a bit mask over [`Words::LEN`]
/// machine words: `u64`, or `[u64; N]`. Every operation is §3.3's word
/// operation, taken word by word.
pub trait StateMask: Words + Eq + std::fmt::Debug + Send + Sync + 'static {
    /// The set of the initial state alone (bit 0).
    const INITIAL: Self;
    /// The most positions an automaton over these masks holds: bit 0 is
    /// the initial state.
    const POSITIONS: usize = 64 * Self::LEN - 1;

    /// The set of state `q` alone.
    fn bit(q: usize) -> Self {
        let mut mask = Self::ZERO;
        mask.words_mut()[q / 64] = 1 << (q % 64);
        mask
    }

    /// The two sets combined word by word with `f`.
    fn map2(mut self, other: Self, f: impl Fn(u64, u64) -> u64) -> Self {
        let words = self.words_mut().iter_mut().zip(other.words());
        words.for_each(|(word, &by)| *word = f(*word, by));
        self
    }

    /// Union.
    fn or(self, other: Self) -> Self {
        self.map2(other, |a, b| a | b)
    }

    /// Intersection.
    fn and(self, other: Self) -> Self {
        self.map2(other, |a, b| a & b)
    }

    /// The states of `self` not in `other`.
    fn and_not(self, other: Self) -> Self {
        self.map2(other, |a, b| a & !b)
    }

    /// Whether the set is empty.
    fn is_empty(self) -> bool {
        self.words().iter().all(|&word| word == 0)
    }

    /// Whether the two sets share a state.
    fn intersects(self, other: Self) -> bool {
        !self.and(other).is_empty()
    }

    /// The set shifted `k` states down (`0 < k < 64`): state `q + k`
    /// becomes state `q`.
    fn shr(self, k: usize) -> Self {
        let mut out = Self::ZERO;
        let words = self.words();
        for (i, word) in out.words_mut().iter_mut().enumerate() {
            let carry = words.get(i + 1).map_or(0, |&above| above << (64 - k));
            *word = words[i] >> k | carry;
        }
        out
    }

    /// The states in the set, ascending.
    fn states(self) -> impl Iterator<Item = usize> {
        let (mut i, mut word) = (0, self.words()[0]);
        std::iter::from_fn(move || {
            while word == 0 {
                i += 1;
                word = *self.words().get(i)?;
            }
            let q = 64 * i + word.trailing_zeros() as usize;
            word &= word - 1;
            Some(q)
        })
    }

    /// The set zero-padded to the widest mask.
    fn wide(self) -> WideMask {
        let mut wide = [0; MAX_WORDS];
        wide[..Self::LEN].copy_from_slice(self.words());
        wide
    }
}

impl StateMask for u64 {
    const INITIAL: Self = 1;
}

impl<const N: usize> StateMask for [u64; N] {
    const INITIAL: Self = {
        let mut mask = [0; N];
        mask[0] = 1;
        mask
    };
}

/// The Glushkov automaton of a regular expression, its state sets
/// masks of type `M`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Glushkov<M: StateMask = u64> {
    /// Number of positions (`m`).
    m: usize,
    /// Whether `ε ∈ L(E)`.
    nullable: bool,
    /// Positions that can start a match (`first(E)`).
    first: M,
    /// Positions that can end a match (`last(E)`).
    last: M,
    /// `positions[p - 1]`: position `p`.
    positions: Vec<Position<M>>,
}

/// One position of a Glushkov automaton.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Position<M> {
    /// Its literal: the label test carried by every transition arriving
    /// at it.
    lit: Lit,
    /// The positions that may follow it.
    follow: M,
    /// Its number in the reversed expression, whose concatenations list
    /// their factors right to left (what [`Glushkov::reversed`]
    /// renumbers by).
    mirror: u16,
}

impl<M: StateMask> Glushkov<M> {
    /// Builds the automaton for `expr`.
    ///
    /// # Errors
    /// [`AutomatonError::TooManyPositions`] if `expr` has more literal
    /// occurrences than an `M` holds positions ([`StateMask::POSITIONS`]);
    /// [`AutomatonError::EmptyClass`] on empty classes.
    pub fn new(expr: &Regex) -> Result<Self, AutomatonError> {
        let m = expr.literal_count();
        if m > M::POSITIONS {
            return Err(AutomatonError::TooManyPositions(m));
        }
        let mut g = Glushkov {
            m,
            nullable: false,
            first: M::ZERO,
            last: M::ZERO,
            positions: Vec::with_capacity(m),
        };
        let mut next_pos = 1;
        let info = g.visit(expr, &mut next_pos)?;
        g.nullable = info.nullable;
        g.first = info.first;
        g.last = info.last;
        // `visit` left the shifts as differences at the ends of position
        // ranges; summed from the last position down, they are each
        // position's shift.
        let mut shift = 0u16;
        for p in g.positions.iter_mut().rev() {
            shift = shift.wrapping_add(p.mirror);
            p.mirror = shift + 1;
        }
        Ok(g)
    }

    /// Adds `by` to the mirrored number of positions `lo..hi`, all
    /// visited: a difference at the range's last position and one at the
    /// position before it, summed once at the end.
    fn shift_mirror(&mut self, lo: usize, hi: usize, by: usize) {
        if lo == hi {
            return;
        }
        let last = &mut self.positions[hi - 2].mirror;
        *last = last.wrapping_add(by as u16);
        if let Some(before) = lo.checked_sub(2) {
            let before = &mut self.positions[before].mirror;
            *before = before.wrapping_sub(by as u16);
        }
    }

    /// The automaton of the reversal `Ê` of this one's expression
    /// ([`Regex::reversed`] through `inv`), derived without a second
    /// construction: `first` and `last` swap, `follow` is transposed,
    /// every literal is mapped through `inv`, and the positions are
    /// renumbered to `Ê`'s left-to-right order. It equals
    /// `Glushkov::new(&expr.reversed(inv))` field for field.
    pub fn reversed(&self, inv: &impl Fn(Label) -> Label) -> Self {
        let mirror = |p: usize| usize::from(self.positions[p - 1].mirror);
        let renumber = |mask: M| {
            let bits = mask.states().map(|p| M::bit(mirror(p)));
            bits.fold(M::ZERO, M::or)
        };
        let unset = Position {
            lit: Lit::Label(0),
            follow: M::ZERO,
            mirror: 0,
        };
        let mut positions = vec![unset; self.m];
        for (q, at) in (1..).zip(&self.positions) {
            let to = &mut positions[usize::from(at.mirror) - 1];
            to.lit = at.lit.map_labels(inv);
            to.mirror = q;
            let from = M::bit(at.mirror.into());
            for p in at.follow.states() {
                let to = &mut positions[mirror(p) - 1].follow;
                *to = to.or(from);
            }
        }
        Glushkov {
            m: self.m,
            nullable: self.nullable,
            first: renumber(self.last),
            last: renumber(self.first),
            positions,
        }
    }

    fn visit(&mut self, e: &Regex, next: &mut usize) -> Result<NodeInfo<M>, AutomatonError> {
        match e {
            Regex::Epsilon => Ok(NodeInfo {
                nullable: true,
                first: M::ZERO,
                last: M::ZERO,
            }),
            Regex::Literal(lit) => {
                if lit.mentioned_labels().is_empty() && !matches!(lit, Lit::NegClass(_)) {
                    return Err(AutomatonError::EmptyClass);
                }
                let bit = M::bit(*next);
                *next += 1;
                self.positions.push(Position {
                    lit: lit.clone(),
                    follow: M::ZERO,
                    mirror: 0,
                });
                Ok(NodeInfo {
                    nullable: false,
                    first: bit,
                    last: bit,
                })
            }
            Regex::Concat(a, b) => {
                let lo = *next;
                let ia = self.visit(a, next)?;
                let mid = *next;
                let ib = self.visit(b, next)?;
                // Reversed, `b`'s positions come first.
                self.shift_mirror(lo, mid, *next - mid);
                self.link(ia.last, ib.first);
                Ok(NodeInfo {
                    nullable: ia.nullable && ib.nullable,
                    first: if ia.nullable {
                        ia.first.or(ib.first)
                    } else {
                        ia.first
                    },
                    last: if ib.nullable {
                        ib.last.or(ia.last)
                    } else {
                        ib.last
                    },
                })
            }
            Regex::Alt(a, b) => {
                let lo = *next;
                let ia = self.visit(a, next)?;
                let mid = *next;
                let ib = self.visit(b, next)?;
                // Reversed, an alternation keeps its order.
                self.shift_mirror(mid, *next, mid - lo);
                Ok(NodeInfo {
                    nullable: ia.nullable || ib.nullable,
                    first: ia.first.or(ib.first),
                    last: ia.last.or(ib.last),
                })
            }
            Regex::Star(a) => {
                let ia = self.visit(a, next)?;
                self.link(ia.last, ia.first);
                Ok(NodeInfo {
                    nullable: true,
                    ..ia
                })
            }
            Regex::Plus(a) => {
                let ia = self.visit(a, next)?;
                self.link(ia.last, ia.first);
                Ok(ia)
            }
            Regex::Opt(a) => {
                let ia = self.visit(a, next)?;
                Ok(NodeInfo {
                    nullable: true,
                    ..ia
                })
            }
        }
    }

    /// Adds `firsts` to the follow set of every position in `lasts`.
    fn link(&mut self, lasts: M, firsts: M) {
        for p in lasts.states() {
            debug_assert!(p >= 1);
            let follow = &mut self.positions[p - 1].follow;
            *follow = follow.or(firsts);
        }
    }

    /// Number of positions `m` (the NFA has `m + 1` states).
    #[inline]
    pub fn positions(&self) -> usize {
        self.m
    }

    /// Whether the automaton accepts the empty word.
    #[inline]
    pub fn nullable(&self) -> bool {
        self.nullable
    }

    /// Mask of accepting states: `last(E)`, plus the initial state when the
    /// expression is nullable.
    #[inline]
    pub fn accept_mask(&self) -> M {
        if self.nullable {
            self.last.or(M::INITIAL)
        } else {
            self.last
        }
    }

    /// States reachable in one step from state `q` (by whatever label their
    /// literals admit): `first(E)` for the initial state, `follow(q)`
    /// otherwise.
    #[inline]
    pub fn trans(&self, q: usize) -> M {
        if q == 0 {
            self.first
        } else {
            self.positions[q - 1].follow
        }
    }

    /// All position literals, in position order (`1..=m`).
    #[inline]
    pub fn literals(&self) -> impl ExactSizeIterator<Item = &Lit> {
        self.positions.iter().map(|p| &p.lit)
    }

    /// Mask of positions whose literal matches label `c` — the table `B[c]`
    /// of the bit-parallel simulation, computed from scratch (the
    /// [`crate::BitParallel`] wrapper caches these).
    pub fn label_mask(&self, c: Label) -> M {
        let mut mask = M::ZERO;
        for (i, lit) in self.literals().enumerate() {
            if lit.matches(c) {
                mask = mask.or(M::bit(i + 1));
            }
        }
        mask
    }

    /// Explicit transition list `(from, literal_position, to)` — used by the
    /// classical baselines and by tests. Transition `(q, p)` exists iff
    /// `p ∈ trans(q)`, and it is labeled by `literal(p)` (Fact 1).
    pub fn transitions(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for q in 0..=self.m {
            out.extend(self.trans(q).states().map(|p| (q, p)));
        }
        out
    }
}

#[derive(Clone, Copy)]
struct NodeInfo<M> {
    nullable: bool,
    first: M,
    last: M,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse, NumericResolver};

    const R: NumericResolver = NumericResolver { n_base: 50 };

    fn g(s: &str) -> Glushkov {
        Glushkov::<u64>::new(&parse(s, &R).unwrap()).unwrap()
    }

    /// The paper's Fig. 2: the Glushkov automaton of `a/b*/b` (a=1, b=2)
    /// has 4 states; `B[a]` targets position 1, `B[b]` targets {2, 3},
    /// `F` = {3}, and from {0} one step reaches {1}.
    #[test]
    fn fig2_automaton_of_a_bstar_b() {
        let g = g("1/2*/2");
        assert_eq!(g.positions(), 3);
        assert!(!g.nullable());
        assert_eq!(g.label_mask(1), 0b0010); // position 1
        assert_eq!(g.label_mask(2), 0b1100); // positions 2, 3
        assert_eq!(g.accept_mask(), 0b1000); // position 3
        assert_eq!(g.trans(0), 0b0010); // initial -> {1}
        assert_eq!(g.trans(1), 0b1100); // 1 -> {2,3}
        assert_eq!(g.trans(2), 0b1100); // 2 -> {2,3}
        assert_eq!(g.trans(3), 0b0000); // 3 -> {}
    }

    /// Fig. 5: `^bus/l5*/l5` with ^bus=5, l5=3 — same shape as Fig. 2.
    #[test]
    fn fig5_automaton() {
        let g = g("5/3*/3");
        assert_eq!(g.positions(), 3);
        assert_eq!(g.label_mask(5), 0b0010);
        assert_eq!(g.label_mask(3), 0b1100);
        assert_eq!(g.label_mask(1), 0); // l1 reaches no state
        assert_eq!(g.accept_mask(), 0b1000);
    }

    #[test]
    fn nullable_adds_initial_to_accepting() {
        let g = g("4*");
        assert!(g.nullable());
        assert_eq!(g.accept_mask(), 0b10 | u64::INITIAL);
    }

    #[test]
    fn class_literal_is_one_position() {
        let e = parse("(1|2|3)+", &R).unwrap().fuse_classes();
        let g = Glushkov::<u64>::new(&e).unwrap();
        assert_eq!(g.positions(), 1);
        assert_eq!(g.label_mask(1), 0b10);
        assert_eq!(g.label_mask(2), 0b10);
        assert_eq!(g.label_mask(4), 0);
        assert_eq!(g.trans(1), 0b10); // self-loop from +
    }

    #[test]
    fn neg_class_matches_complement() {
        let g = g("!(1|2)");
        assert_eq!(g.label_mask(1), 0);
        assert_eq!(g.label_mask(2), 0);
        assert_eq!(g.label_mask(3), 0b10);
        assert_eq!(g.label_mask(49), 0b10);
    }

    #[test]
    fn too_many_positions_rejected() {
        let mut s = String::from("1");
        for _ in 0..63 {
            s.push_str("/1");
        }
        let e = parse(&s, &R).unwrap();
        assert_eq!(e.literal_count(), 64);
        assert_eq!(
            Glushkov::<u64>::new(&e).unwrap_err(),
            AutomatonError::TooManyPositions(64)
        );
    }

    /// A chain of `n` literals `0/1/…/(n−1)`.
    fn chain(n: u64) -> Regex {
        (1..n).fold(Regex::label(0), |e, l| Regex::concat(e, Regex::label(l)))
    }

    /// Positions past the word land in the words above it: a 100-literal
    /// chain in two words links position 63 to 64, and 99 accepts.
    #[test]
    fn wide_masks_cross_the_word_boundary() {
        let g = Glushkov::<[u64; 2]>::new(&chain(100)).unwrap();
        assert_eq!((g.trans(63), g.trans(64)), ([0, 1], [0, 2]));
        assert_eq!((g.label_mask(62), g.label_mask(63)), ([1 << 63, 0], [0, 1]));
        assert_eq!(g.accept_mask(), [0, 1 << 36]);
        assert_eq!(g.transitions().len(), 100);
        let err = Glushkov::<[u64; 2]>::new(&chain(128)).unwrap_err();
        assert_eq!(err, AutomatonError::TooManyPositions(128));
        let g = Glushkov::<[u64; 4]>::new(&chain(255)).unwrap();
        assert_eq!(g.accept_mask().shr(8).wide(), [0, 0, 0, 1 << 55]);
    }

    #[test]
    fn transitions_listing_matches_trans() {
        let g = g("1/(2|3)*");
        let ts = g.transitions();
        assert!(ts.contains(&(0, 1)));
        assert!(ts.contains(&(1, 2)));
        assert!(ts.contains(&(1, 3)));
        assert!(ts.contains(&(2, 2)));
        assert!(ts.contains(&(3, 2)));
        assert!(!ts.contains(&(0, 2)));
    }

    #[test]
    fn epsilon_expression() {
        let g = Glushkov::<u64>::new(&Regex::Epsilon).unwrap();
        assert_eq!(g.positions(), 0);
        assert!(g.nullable());
        assert_eq!(g.accept_mask(), u64::INITIAL);
    }

    use crate::ast::Regex;
}
