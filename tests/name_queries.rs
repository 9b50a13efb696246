//! One name-level query path: a string query answers alike through
//! `UpdatableDatabase::query` and through an `RpqServer` over the same
//! database — and, where the case applies to an immutable database,
//! through `RpqDatabase::query` — including at names the snapshot does
//! not hold yet.

use std::sync::Arc;

use ring_rpq::automata::parser::ParseError;
use ring_rpq::rpq_server::{QuerySource, RpqError, RpqServer, ServerConfig};
use ring_rpq::{DbError, RpqDatabase, UpdatableDatabase};

/// What a string query comes to, whichever path answered it.
#[derive(Debug, PartialEq)]
enum Outcome {
    Rows(Vec<(String, String)>),
    UnknownNode(String),
    Parse(ParseError),
}

fn of_db(result: Result<Vec<(String, String)>, DbError>) -> Outcome {
    match result {
        Ok(rows) => Outcome::Rows(rows),
        Err(DbError::UnknownNode(name)) => Outcome::UnknownNode(name),
        Err(DbError::Parse(e)) => Outcome::Parse(e),
        Err(e) => panic!("unexpected refusal: {e}"),
    }
}

fn of_server(server: &RpqServer, (s, e, o): (&str, &str, &str)) -> Outcome {
    match server.query_blocking(s, e, o) {
        Ok(answer) => Outcome::Rows(server.resolve_pairs(&answer)),
        Err(RpqError::UnknownNode(name)) => Outcome::UnknownNode(name),
        Err(RpqError::Parse(e)) => Outcome::Parse(e),
        Err(err) => panic!("unexpected refusal of '{s} {e} {o}': {err}"),
    }
}

fn rows(pairs: &[(&str, &str)]) -> Outcome {
    let owned = pairs.iter().map(|&(s, o)| (s.to_string(), o.to_string()));
    Outcome::Rows(owned.collect())
}

const GRAPH: &str = "a p b\nb p c\n";

#[test]
fn a_string_query_answers_alike_through_both_databases_and_the_server() {
    let live = Arc::new(UpdatableDatabase::from_text(GRAPH).unwrap());
    // Uncommitted: these intern the node `zz` and the label `q`.
    live.insert("zz", "p", "a");
    live.insert("b", "q", "c");
    let server = RpqServer::start(
        Arc::clone(&live) as Arc<dyn QuerySource>,
        ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let frozen = RpqDatabase::from_text(GRAPH).unwrap();

    let unknown_label = ParseError {
        pos: 1,
        msg: "unknown label 'q'".into(),
    };
    // (query, outcome on every path, whether an immutable database
    // shows the case too)
    let cases = [
        // A committed node.
        (("a", "p+", "?y"), rows(&[("a", "b"), ("a", "c")]), true),
        // An inverse step.
        (("?x", "^p", "b"), rows(&[("c", "b")]), true),
        // A node only an uncommitted insert named: empty, not an error.
        (("zz", "p", "?y"), rows(&[]), false),
        // A node nothing ever named.
        (
            ("nowhere", "p", "?y"),
            Outcome::UnknownNode("nowhere".into()),
            true,
        ),
        // A label only an uncommitted insert named: unknown.
        (("?x", "q", "?y"), Outcome::Parse(unknown_label), false),
    ];
    for ((s, e, o), expected, immutable_too) in cases {
        assert_eq!(of_db(live.query(s, e, o)), expected, "{s} {e} {o}");
        assert_eq!(of_server(&server, (s, e, o)), expected, "{s} {e} {o}");
        if immutable_too {
            assert_eq!(of_db(frozen.query(s, e, o)), expected, "{s} {e} {o}");
        }
    }

    // Committed, both names answer on both paths.
    live.commit();
    for (query, expected) in [
        (("zz", "p", "?y"), rows(&[("zz", "a")])),
        (("?x", "q", "?y"), rows(&[("b", "c")])),
    ] {
        assert_eq!(of_db(live.query(query.0, query.1, query.2)), expected);
        assert_eq!(of_server(&server, query), expected);
    }
    server.shutdown();
}
