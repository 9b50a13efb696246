//! Cross-validation of the three matching paths on random expressions and
//! random words: the bit-parallel Glushkov simulation (forward *and*
//! reverse), the ε-removed Thompson NFA, and the Brzozowski-derivative
//! matcher must all agree on membership.

use automata::ast::{Lit, Regex};
use automata::{derivative, BitParallel, Glushkov, Label, Nfa, StateMask};
use proptest::prelude::*;

const SIGMA: Label = 6;

/// A recursive strategy for random regexes over labels `0..SIGMA`.
fn regex_strategy() -> impl Strategy<Value = Regex> {
    let leaf = prop_oneof![
        (0..SIGMA).prop_map(Regex::label),
        Just(Regex::Epsilon),
        prop::collection::btree_set(0..SIGMA, 1..3)
            .prop_map(|s| Regex::Literal(Lit::Class(s.into_iter().collect()))),
        prop::collection::btree_set(0..SIGMA, 1..3)
            .prop_map(|s| Regex::Literal(Lit::NegClass(s.into_iter().collect()))),
    ];
    leaf.prop_recursive(4, 24, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Regex::concat(a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Regex::alt(a, b)),
            inner.clone().prop_map(|a| Regex::Star(Box::new(a))),
            inner.clone().prop_map(|a| Regex::Plus(Box::new(a))),
            inner.prop_map(|a| Regex::Opt(Box::new(a))),
        ]
    })
}

/// The ring's label involution over a two-way alphabet: labels
/// `0..SIGMA` and their inverses `SIGMA..2·SIGMA`.
fn inv(l: Label) -> Label {
    if l < SIGMA {
        l + SIGMA
    } else {
        l - SIGMA
    }
}

/// Random two-way expressions: labels, classes and negated classes over
/// both directions, nullable parts, and `^(E)` the way the parser
/// desugars it (`E` reversed through [`inv`]).
fn two_way_strategy() -> impl Strategy<Value = Regex> {
    let leaf = prop_oneof![
        (0..2 * SIGMA).prop_map(Regex::label),
        Just(Regex::Epsilon),
        prop::collection::btree_set(0..2 * SIGMA, 1..4)
            .prop_map(|s| Regex::Literal(Lit::Class(s.into_iter().collect()))),
        prop::collection::btree_set(0..2 * SIGMA, 1..3)
            .prop_map(|s| Regex::Literal(Lit::NegClass(s.into_iter().collect()))),
    ];
    leaf.prop_recursive(4, 24, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Regex::concat(a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Regex::alt(a, b)),
            inner.clone().prop_map(|a| Regex::Star(Box::new(a))),
            inner.clone().prop_map(|a| Regex::Plus(Box::new(a))),
            inner.clone().prop_map(|a| Regex::Opt(Box::new(a))),
            inner.prop_map(|a| a.reversed(&inv)),
        ]
    })
}

/// `Ê`'s automaton and tables over `M` masks, derived from `E`'s, equal
/// the ones built from the reversed expression, bit for bit: every
/// position's literal, follow set and mirrored number, and the split
/// `T`/`T'`, the accepting mask, the positive label masks and the
/// negated positions.
fn derived_reversal_matches<M: StateMask>(fused: &Regex, d: usize) -> Result<(), TestCaseError> {
    let forward = Glushkov::<M>::new(fused).unwrap();
    let derived = forward.reversed(&inv);
    let built = Glushkov::<M>::new(&fused.reversed(&inv)).unwrap();
    prop_assert_eq!(&derived, &built, "automaton of the reversal of {}", fused);
    let derived = BitParallel::with_split_width(&derived, d);
    let built = BitParallel::with_split_width(&built, d);
    prop_assert_eq!(derived.accept_mask(), built.accept_mask());
    prop_assert_eq!(derived.positive_label_masks(), built.positive_label_masks());
    prop_assert_eq!(derived.negated_positions(), built.negated_positions());
    prop_assert_eq!(&derived, &built, "tables of the reversal of {}", fused);
    // Reversing twice gives `E`'s automaton back.
    prop_assert_eq!(
        &Glushkov::<M>::new(fused).unwrap(),
        &forward.reversed(&inv).reversed(&inv)
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Padded by a chain of `pad` labels, before, after or beside the
    /// random part, the expression needs one, two or four words.
    #[test]
    fn derived_reversal_equals_the_reversed_build(
        e in two_way_strategy(),
        pad in prop_oneof![0..4usize, 56..72usize, 118..134usize, 200..250usize],
        placement in 0..3u8,
        d in 1..9usize,
    ) {
        let chain = (1..pad).fold(Regex::label(0), |c, i| Regex::concat(c, Regex::label(i as Label % (2 * SIGMA))));
        let e = match (pad, placement) {
            (0, _) => e,
            (_, 0) => Regex::concat(chain, e),
            (_, 1) => Regex::concat(e, chain),
            _ => Regex::alt(chain, e),
        };
        let fused = e.fuse_classes();
        let m = fused.literal_count();
        if m <= u64::POSITIONS {
            derived_reversal_matches::<u64>(&fused, d)?;
        }
        if m <= <[u64; 2]>::POSITIONS {
            derived_reversal_matches::<[u64; 2]>(&fused, d)?;
        }
        if m <= <[u64; 4]>::POSITIONS {
            derived_reversal_matches::<[u64; 4]>(&fused, d)?;
        }
    }

    #[test]
    fn all_matchers_agree(
        e in regex_strategy(),
        words in prop::collection::vec(prop::collection::vec(0..SIGMA, 0..8), 1..12),
    ) {
        let g = Glushkov::<u64>::new(&e).unwrap();
        let bp = BitParallel::new(&g);
        let nfa = Nfa::from_regex(&e);
        for w in &words {
            let expected = derivative::matches(&e, w);
            prop_assert_eq!(bp.matches(w), expected, "fwd glushkov vs derivative on {:?} for {}", w, e);
            prop_assert_eq!(bp.matches_reverse(w), expected, "rev glushkov vs derivative on {:?} for {}", w, e);
            prop_assert_eq!(nfa.matches(w), expected, "thompson vs derivative on {:?} for {}", w, e);
        }
    }

    #[test]
    fn fused_classes_preserve_language(
        e in regex_strategy(),
        words in prop::collection::vec(prop::collection::vec(0..SIGMA, 0..6), 1..10),
    ) {
        let fused = e.fuse_classes();
        prop_assert!(fused.literal_count() <= e.literal_count());
        for w in &words {
            prop_assert_eq!(
                derivative::matches(&fused, w),
                derivative::matches(&e, w),
                "fusion changed language of {} on {:?}", e, w
            );
        }
    }

    #[test]
    fn reversal_matches_reversed_words(
        e in regex_strategy(),
        words in prop::collection::vec(prop::collection::vec(0..SIGMA, 0..6), 1..10),
    ) {
        // Use the identity as "inversion" so labels stay in-alphabet: then
        // L(rev(E)) must be exactly the reversals of L(E).
        let rev = e.reversed(&|l| l);
        for w in &words {
            let mut rw = w.clone();
            rw.reverse();
            prop_assert_eq!(
                derivative::matches(&rev, &rw),
                derivative::matches(&e, w),
                "reversal broke membership of {} on {:?}", e, w
            );
        }
    }

    #[test]
    fn nullability_consistent(e in regex_strategy()) {
        let g = Glushkov::<u64>::new(&e).unwrap();
        prop_assert_eq!(g.nullable(), e.nullable());
        prop_assert_eq!(g.nullable(), derivative::matches(&e, &[]));
        let bp = BitParallel::new(&g);
        prop_assert_eq!(bp.matches(&[]), e.nullable());
    }
}
