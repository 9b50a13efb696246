//! `Send + Sync` audit: a compiled `PreparedQuery` holds `BitParallel`
//! tables and may be shared between threads (`rpq_core` checks that it
//! is `Send + Sync`), so the whole compilation pipeline must be free of
//! interior mutability.

use automata::{BitParallel, Glushkov, Lit, Nfa, Regex};

fn assert_send_sync<T: Send + Sync>() {}

#[test]
fn shared_structures_are_send_sync() {
    assert_send_sync::<Regex>();
    assert_send_sync::<Lit>();
    assert_send_sync::<Glushkov>();
    assert_send_sync::<BitParallel>();
    assert_send_sync::<Nfa>();
}

/// One `BitParallel` referenced from many threads steps identically.
#[test]
fn bitparallel_tables_are_safely_shared() {
    let expr = Regex::concat(
        Regex::Plus(Box::new(Regex::alt(Regex::label(0), Regex::label(1)))),
        Regex::label(2),
    );
    let bp = std::sync::Arc::new(BitParallel::new(&Glushkov::<u64>::new(&expr).unwrap()));
    let word = [0u64, 1, 0, 2];
    let expected = bp.matches(&word);
    assert!(expected);
    std::thread::scope(|scope| {
        for _ in 0..4 {
            let bp = std::sync::Arc::clone(&bp);
            scope.spawn(move || {
                for _ in 0..100 {
                    assert_eq!(bp.matches(&word), expected);
                    assert!(!bp.matches(&[2]));
                }
            });
        }
    });
}
