//! Cross-validation of the three matching paths on random expressions and
//! random words: the bit-parallel Glushkov simulation (forward *and*
//! reverse), the ε-removed Thompson NFA, and the Brzozowski-derivative
//! matcher must all agree on membership.

use automata::ast::{Lit, Regex};
use automata::{derivative, BitParallel, Glushkov, Label, Nfa};
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

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
