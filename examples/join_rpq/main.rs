//! RPQs inside multijoins: the §6 integration scenario. The ring answers
//! basic graph patterns worst-case-optimally with Leapfrog-TrieJoin, and
//! RPQs filter/extend the same index — no second data structure.
//!
//! The query, in SPARQL terms:
//!
//! ```sparql
//! SELECT ?person ?city WHERE {
//!   ?person  livesIn   ?city .
//!   ?city    locatedIn chile .
//!   ?person  (worksWith|^worksWith)+  ada .   # RPQ over the same ring
//! }
//! ```
//!
//! Run with: `cargo run --release --example join_rpq`

mod ltj;

use ltj::{leapfrog_join, Term as JoinTerm, TriplePattern};
use ring_rpq::RpqDatabase;
use rpq_core::{EngineOptions, RpqEngine, RpqQuery, Term};
use std::path::Path;
use succinct::util::FxHashSet;

fn main() {
    // Residence/collaboration data ships as the bundled N-Triples
    // fixture data/team.nt; IRIs keep their brackets as names.
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("data/team.nt");
    let db = RpqDatabase::from_graph_file(&fixture).unwrap();
    let ring = db.ring();
    let nodes = db.nodes();
    let preds = db.preds();

    // Step 1: the conjunctive part with Leapfrog-TrieJoin.
    // Variables: 0 = ?person, 1 = ?city.
    let lives_in = preds.get("<livesIn>").unwrap();
    let located_in = preds.get("<locatedIn>").unwrap();
    let chile = nodes.get("<chile>").unwrap();
    let patterns = [
        TriplePattern::new(JoinTerm::Var(0), lives_in, JoinTerm::Var(1)),
        TriplePattern::new(JoinTerm::Var(1), located_in, JoinTerm::Const(chile)),
    ];
    let bindings = leapfrog_join(ring, &patterns, &[1, 0]);
    println!("LTJ bindings (?person livesIn ?city, ?city locatedIn chile):");
    for b in &bindings {
        println!("  ?person={} ?city={}", nodes.name(b[0]), nodes.name(b[1]));
    }

    // Step 2: the RPQ over the same ring: people connected to ada through
    // the undirected worksWith network.
    let ada = nodes.get("<ada>").unwrap();
    let rpq = RpqQuery::new(
        Term::Var,
        db.parse_query("?x", "(<worksWith>|^<worksWith>)+", "?y")
            .unwrap()
            .expr,
        Term::Const(ada),
    );
    let out = RpqEngine::new(ring)
        .evaluate(&rpq, &EngineOptions::default())
        .unwrap();
    let connected: FxHashSet<u64> = out.pairs.iter().map(|&(s, _)| s).collect();
    println!("\nconnected to ada via (worksWith|^worksWith)+:");
    for &p in &connected {
        println!("  {}", nodes.name(p));
    }

    // Step 3: join the two result sets.
    println!("\nChilean residents in ada's collaboration network:");
    let mut results: Vec<(String, String)> = bindings
        .iter()
        .filter(|b| connected.contains(&b[0]) || b[0] == ada)
        .map(|b| (nodes.name(b[0]).into_owned(), nodes.name(b[1]).into_owned()))
        .collect();
    results.sort();
    for (person, city) in &results {
        println!("  {person} ({city})");
    }
    assert_eq!(
        results.iter().map(|(p, _)| p.as_str()).collect::<Vec<_>>(),
        vec!["<ada>", "<bruno>", "<carla>"]
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ltj_and_rpq_compose_on_one_ring() {
        let db = RpqDatabase::from_text(
            "a follows b\nb follows c\nc follows a\na likes x\nb likes x\nc likes y\n",
        )
        .unwrap();
        let follows = db.preds().get("follows").unwrap();
        let likes = db.preds().get("likes").unwrap();

        // ?u follows ?v, ?u likes ?w, ?v likes ?w — mutual interests.
        let pats = [
            TriplePattern::new(JoinTerm::Var(0), follows, JoinTerm::Var(1)),
            TriplePattern::new(JoinTerm::Var(0), likes, JoinTerm::Var(2)),
            TriplePattern::new(JoinTerm::Var(1), likes, JoinTerm::Var(2)),
        ];
        let rows = leapfrog_join(db.ring(), &pats, &[0, 1, 2]);
        let named: Vec<Vec<String>> = rows
            .iter()
            .map(|r| r.iter().map(|&v| db.nodes().name(v).into_owned()).collect())
            .collect();
        assert_eq!(named, vec![vec!["a", "b", "x"]]);

        // And an RPQ on the same index.
        let closure = db.query("a", "follows+", "?y").unwrap();
        assert_eq!(closure.len(), 3); // a, b, c (cycle)
    }
}
