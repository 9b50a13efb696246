//! The parser must never panic: any byte soup yields `Ok` or a positioned
//! `ParseError`, and everything it accepts must re-parse from its own
//! display form to the same language. No single line may take the
//! process down either: the four hostile families — deep nesting, flat
//! alternation, nested repetition and long concatenation — are refused
//! fast, and the largest expressions accepted survive every recursive
//! pass, each on a thread with the `std::thread` default 2 MiB stack.

use std::time::{Duration, Instant};

use automata::ast::{Lit, Regex};
use automata::glushkov::WideMask;
use automata::parser::{parse, NumericResolver, MAX_DEPTH};
use automata::{derivative, Glushkov, Label, Nfa, MAX_POSITIONS};
use proptest::prelude::*;

const R: NumericResolver = NumericResolver { n_base: 16 };

/// Runs `f` on a thread with a 2 MiB stack, what a worker or an
/// embedder's `std::thread::spawn` gets.
fn on_small_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(f)
        .unwrap()
        .join()
        .unwrap()
}

/// Parses `line` on a 2 MiB stack and expects a refusal whose message
/// contains `needle`, within 50 ms.
fn refused(line: String, needle: &'static str) {
    let (took, outcome) = on_small_stack(move || {
        let t0 = Instant::now();
        let outcome = parse(&line, &R);
        (t0.elapsed(), outcome)
    });
    let Err(err) = outcome else {
        panic!("a hostile line must be refused");
    };
    assert!(err.msg.contains(needle), "{err}");
    assert!(took < Duration::from_millis(50), "refused in {took:?}");
}

/// Parses `line` on a 2 MiB stack and runs every recursive pass over
/// the result there: reversal, class fusion, the widest Glushkov
/// construction, the Thompson construction, `Display`, `Clone`,
/// equality and `Drop`.
fn survives_every_pass(line: String) {
    on_small_stack(move || {
        let e = parse(&line, &R).unwrap_or_else(|err| panic!("{err}"));
        let reversed = e.reversed(&|l| l);
        let fused = e.fuse_classes();
        assert!(fused.literal_count() <= MAX_POSITIONS);
        Glushkov::<WideMask>::new(&fused).unwrap();
        let _ = Nfa::from_regex(&e);
        assert!(!e.to_string().is_empty());
        assert_eq!(e.clone(), e);
        assert!(e.nullable() || !e.mentioned_labels().is_empty());
        drop((e, reversed, fused));
    });
}

#[test]
fn deep_nesting_is_refused_and_the_deepest_accepted_survives() {
    let nest = |n: usize| format!("{}0{}", "(".repeat(n), ")".repeat(n));
    refused(nest(12_000), "nests deeper than");
    refused(nest(MAX_DEPTH + 1), "nests deeper than");
    refused(format!("{}0", "^".repeat(20_000)), "nests deeper than");
    refused(format!("0{}", "*".repeat(20_000)), "nests deeper than");
    // The deepest of both at once: MAX_DEPTH open groups around a tree
    // MAX_DEPTH levels deep.
    survives_every_pass(format!("{}*", nest(MAX_DEPTH)).replace('*', &"*".repeat(MAX_DEPTH - 1)));
}

#[test]
fn flat_alternation_is_refused_and_the_widest_accepted_survives() {
    let alt = |n: usize| vec!["0"; n].join("|");
    refused(alt(20_000), "nests deeper than");
    refused(alt(MAX_DEPTH + 1), "nests deeper than");
    survives_every_pass(alt(MAX_DEPTH));
}

#[test]
fn nested_repetition_is_refused_before_its_copies_are_made() {
    let nest = |levels: usize| {
        let inner = format!("{}0", "(".repeat(levels - 1));
        inner + &"{64})".repeat(levels - 1) + "{64}"
    };
    assert_eq!(nest(2), "(0{64}){64}");
    for levels in 2..=5 {
        refused(nest(levels), "at least 4096 literal occurrences");
    }
    refused("(0{64}){4}".into(), "at least 256 literal occurrences");
    refused("(0|1/2){64}{2}".into(), "at least 256 literal");
    refused("(0/1){2,}{64}".into(), "at least 384 literal");
    // The most copies that fit stay accepted, and nothing fused below the
    // cap is refused: an alternation counts its larger side.
    survives_every_pass("(0{5}){51}".into());
    survives_every_pass("((0|1|2){15}){17}".into());
}

#[test]
fn long_concatenation_is_refused_and_the_longest_compilable_survives() {
    let chain = |n: usize| vec!["0*"; n].join("/");
    refused(chain(3000), "nests deeper than");
    refused(chain(5000), "nests deeper than");
    survives_every_pass(chain(MAX_POSITIONS));
    // A chain one factor past the position cap still parses: the
    // automaton construction refuses it by its count.
    assert!(parse(&chain(MAX_POSITIONS + 1), &R).is_ok());
}

/// Random ε-free regex ASTs over labels `0..8` — every Display form of
/// these is supposed to be accepted by the parser (ε itself has no
/// surface syntax, so it is excluded from generation, not from nesting
/// semantics: `a?` covers the empty-word cases).
fn ast_strategy() -> impl Strategy<Value = Regex> {
    let leaf = prop_oneof![
        (0u64..8).prop_map(Regex::label),
        prop::collection::btree_set(0u64..8, 1..4)
            .prop_map(|s| Regex::Literal(Lit::Class(s.into_iter().collect()))),
        prop::collection::btree_set(0u64..8, 1..4)
            .prop_map(|s| Regex::Literal(Lit::NegClass(s.into_iter().collect()))),
    ];
    leaf.prop_recursive(4, 32, 3, |inner| {
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
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn never_panics_on_arbitrary_input(s in "\\PC{0,40}") {
        let _ = parse(&s, &R);
    }

    #[test]
    fn never_panics_on_operator_soup(s in "[0-9/|*+?(){}!^<>, ]{0,30}") {
        let _ = parse(&s, &R);
    }

    /// Raw byte soup (not just printable characters): whatever survives
    /// lossy UTF-8 decoding must parse or fail cleanly, never panic.
    #[test]
    fn never_panics_on_raw_bytes(bytes in prop::collection::vec(0u8..=255, 0..48)) {
        let s = String::from_utf8_lossy(&bytes);
        let _ = parse(&s, &R);
    }

    /// Full AST → render → re-parse round-trip: every ε-free expression
    /// the workspace can build has a Display form the parser accepts,
    /// and the round-trip preserves the language (checked by the
    /// Brzozowski-derivative matcher on random words).
    #[test]
    fn ast_render_reparse_preserves_language(
        e in ast_strategy(),
        words in prop::collection::vec(prop::collection::vec(0u64..8, 0..6), 1..10),
    ) {
        let printed = format!("{e}");
        let e2 = match parse(&printed, &R) {
            Ok(e2) => e2,
            Err(err) => {
                return Err(TestCaseError::fail(format!(
                    "rendered form '{printed}' of {e:?} failed to re-parse: {err}"
                )))
            }
        };
        for w in &words {
            let w: &[Label] = w;
            prop_assert_eq!(
                derivative::matches(&e, w),
                derivative::matches(&e2, w),
                "language changed through '{}'", printed
            );
        }
    }

    #[test]
    fn display_reparse_preserves_language(
        s in "[0-9]{1,2}(/[0-9]{1,2}|\\|[0-9]{1,2}|\\*|\\+|\\?){0,6}",
        words in prop::collection::vec(prop::collection::vec(0u64..16, 0..5), 1..8),
    ) {
        if let Ok(e) = parse(&s, &R) {
            let printed = format!("{e}");
            let Ok(e2) = parse(&printed, &R) else {
                return Err(TestCaseError::fail(format!("display form '{printed}' failed to re-parse")));
            };
            for w in &words {
                let w: &[Label] = w;
                prop_assert_eq!(
                    derivative::matches(&e, w),
                    derivative::matches(&e2, w),
                    "language changed through display '{}'", printed
                );
            }
        }
    }
}
