//! A curated 2RPQ conformance corpus: 25 queries over a fixed 12-edge
//! family/work graph with **hand-verified** expected answers, documenting
//! the semantics users rely on — inverse steps, negated property sets,
//! bounded repetition, nullable diagonals, constant anchoring, undirected
//! closures. Each case is also cross-checked against the naive oracle, so
//! a regression in either implementation trips the test.

use ring_rpq::RpqDatabase;
use rpq_core::oracle::evaluate_naive;

const DATA: &str = "
alice  parentOf bob
alice  parentOf carol
bob    parentOf dave
carol  parentOf erin
dave   friendOf erin
erin   friendOf frank
frank  worksFor acme
dave   worksFor acme
bob    worksFor initech
acme   ownedBy  holdco
initech ownedBy holdco
frank  friendOf alice
";

#[allow(clippy::type_complexity)]
fn corpus() -> Vec<(
    &'static str,
    &'static str,
    &'static str,
    Vec<(&'static str, &'static str)>,
)> {
    vec![
        // Plain steps and concatenations.
        (
            "alice",
            "parentOf",
            "?y",
            vec![("alice", "bob"), ("alice", "carol")],
        ),
        (
            "alice",
            "parentOf/parentOf",
            "?y",
            vec![("alice", "dave"), ("alice", "erin")],
        ),
        // Closures; * includes the zero-length path (the diagonal).
        (
            "alice",
            "parentOf+",
            "?y",
            vec![
                ("alice", "bob"),
                ("alice", "carol"),
                ("alice", "dave"),
                ("alice", "erin"),
            ],
        ),
        (
            "alice",
            "parentOf*",
            "?y",
            vec![
                ("alice", "alice"),
                ("alice", "bob"),
                ("alice", "carol"),
                ("alice", "dave"),
                ("alice", "erin"),
            ],
        ),
        // Bounded repetition.
        (
            "?x",
            "parentOf{2}",
            "?y",
            vec![("alice", "dave"), ("alice", "erin")],
        ),
        (
            "alice",
            "parentOf{1,2}",
            "?y",
            vec![
                ("alice", "bob"),
                ("alice", "carol"),
                ("alice", "dave"),
                ("alice", "erin"),
            ],
        ),
        // Inverse steps and inverse closures.
        ("dave", "^parentOf", "?y", vec![("dave", "bob")]),
        ("dave", "^parentOf/^parentOf", "?y", vec![("dave", "alice")]),
        (
            "erin",
            "(^parentOf)+",
            "?y",
            vec![("erin", "alice"), ("erin", "carol")],
        ),
        // Joins through shared endpoints.
        (
            "?x",
            "worksFor/ownedBy",
            "?y",
            vec![("bob", "holdco"), ("dave", "holdco"), ("frank", "holdco")],
        ),
        (
            "?x",
            "worksFor/ownedBy/^ownedBy",
            "?y",
            vec![
                ("bob", "acme"),
                ("bob", "initech"),
                ("dave", "acme"),
                ("dave", "initech"),
                ("frank", "acme"),
                ("frank", "initech"),
            ],
        ),
        // Alternation; anchored constants; empty results.
        (
            "dave",
            "friendOf|worksFor",
            "?y",
            vec![("dave", "acme"), ("dave", "erin")],
        ),
        ("?x", "friendOf", "holdco", vec![]),
        (
            "?x",
            "worksFor",
            "acme",
            vec![("dave", "acme"), ("frank", "acme")],
        ),
        ("dave", "parentOf", "?y", vec![]),
        // Negated property set over Σ↔ (alice's only non-parentOf
        // incidence is the friendOf edge from frank, taken inversely).
        (
            "alice",
            "!(parentOf|^parentOf)",
            "?y",
            vec![("alice", "frank")],
        ),
        // Mixed direction compositions.
        (
            "frank",
            "friendOf/parentOf",
            "?y",
            vec![("frank", "bob"), ("frank", "carol")],
        ),
        ("erin", "^friendOf/worksFor", "?y", vec![("erin", "acme")]),
        // Undirected closure (friendship either way) reaches the cycle.
        (
            "frank",
            "(friendOf|^friendOf)+",
            "?y",
            vec![
                ("frank", "alice"),
                ("frank", "dave"),
                ("frank", "erin"),
                ("frank", "frank"),
            ],
        ),
        // Optional step.
        (
            "alice",
            "parentOf?/worksFor",
            "?y",
            vec![("alice", "initech")],
        ),
        // Constant-to-constant existence.
        ("bob", "worksFor/ownedBy", "holdco", vec![("bob", "holdco")]),
        // Full-variable single steps, both directions.
        (
            "?x",
            "ownedBy",
            "?y",
            vec![("acme", "holdco"), ("initech", "holdco")],
        ),
        (
            "?x",
            "^ownedBy",
            "?y",
            vec![("holdco", "acme"), ("holdco", "initech")],
        ),
        // Group closure.
        (
            "alice",
            "(parentOf/parentOf)+",
            "?y",
            vec![("alice", "dave"), ("alice", "erin")],
        ),
        // Colleagues: same employer, including oneself.
        (
            "?x",
            "worksFor/^worksFor",
            "?y",
            vec![
                ("bob", "bob"),
                ("dave", "dave"),
                ("dave", "frank"),
                ("frank", "dave"),
                ("frank", "frank"),
            ],
        ),
    ]
}

#[test]
fn corpus_matches_expected_answers() {
    let db = RpqDatabase::from_text(DATA).unwrap();
    for (s, e, o, expected) in corpus() {
        let got = db.query(s, e, o).unwrap();
        let got: Vec<(&str, &str)> = got.iter().map(|(a, b)| (a.as_str(), b.as_str())).collect();
        assert_eq!(got, expected, "({s}, {e}, {o})");
    }
}

#[test]
fn corpus_matches_oracle() {
    let db = RpqDatabase::from_text(DATA).unwrap();
    for (s, e, o, _) in corpus() {
        let q = db.parse_query(s, e, o).unwrap();
        let expected = evaluate_naive(db.graph(), &q);
        let got = db
            .query_with(s, e, o, &rpq_core::EngineOptions::default())
            .unwrap()
            .sorted_pairs();
        assert_eq!(got, expected, "oracle disagrees on ({s}, {e}, {o})");
    }
}

#[test]
fn corpus_is_stable_under_persistence() {
    let db = RpqDatabase::from_text(DATA).unwrap();
    let path = std::env::temp_dir().join("corpus_roundtrip.db");
    db.save_mapped(&path).unwrap();
    let loaded = RpqDatabase::open(&path).unwrap();
    for (s, e, o, expected) in corpus() {
        let got = loaded.query(s, e, o).unwrap();
        let got: Vec<(&str, &str)> = got.iter().map(|(a, b)| (a.as_str(), b.as_str())).collect();
        assert_eq!(got, expected, "after reload: ({s}, {e}, {o})");
    }
    let _ = std::fs::remove_file(&path);
}
