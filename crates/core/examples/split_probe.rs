//! The rare-label split route (§2, Koschmieder & Leser) against the
//! traversal it stands in for: a family of variable-to-variable queries
//! `E1/r/E2` around a rare label `r`, each forced onto
//! [`EvalRoute::Split`] and onto [`EvalRoute::BitParallel`] beside the
//! route the planner picks, on a graph shaped like the benchmark's (2^17
//! nodes, 128 predicates, 2^20 edges, seed 0x7AB1E).
//! Labels are named by their rank in edge count: `common` is the most
//! frequent, `mid` the ninth, `rare` the 65th, `rare2` the 121st.
//! `crates/core/README.md` ("What each mechanism buys") records the table
//! this prints; the split route stays while the planner picks it here and
//! it wins.
//!
//! ```sh
//! cargo run --release --offline -p rpq_core --example split_probe
//! ```

use std::time::{Duration, Instant};

use automata::Regex;
use ring::ring::RingOptions;
use ring::Ring;
use rpq_core::explain::explain;
use rpq_core::{EngineOptions, EvalRoute, QueryOutput, RpqEngine, RpqQuery, Term};
use workload::{GraphGen, GraphGenConfig};

/// Runs `query` under `opts` until one run takes a second or three have
/// run, and keeps the fastest.
fn fastest(
    engine: &mut RpqEngine<'_>,
    query: &RpqQuery,
    opts: &EngineOptions,
) -> (QueryOutput, Duration) {
    let mut best: Option<(QueryOutput, Duration)> = None;
    for _ in 0..3 {
        let t = Instant::now();
        let out = engine.evaluate(query, opts).expect("a valid query");
        let took = t.elapsed();
        if best.as_ref().is_none_or(|b| took < b.1) {
            best = Some((out, took));
        }
        if took > Duration::from_secs(1) {
            break;
        }
    }
    best.expect("at least one run")
}

fn main() {
    let graph = GraphGen::new(GraphGenConfig {
        n_nodes: 1 << 17,
        n_preds: 128,
        n_edges: 1 << 20,
        pred_zipf: 1.0,
        node_skew: 2.0,
        seed: 0x7AB1E,
    })
    .generate();
    let ring = Ring::build(&graph, RingOptions::default());
    let mut count = vec![0usize; graph.n_preds() as usize];
    graph
        .triples()
        .iter()
        .for_each(|t| count[t.p as usize] += 1);
    let mut by_count: Vec<u64> = (0..graph.n_preds()).collect();
    by_count.sort_by_key(|&p| std::cmp::Reverse(count[p as usize]));
    let labels = [("common", 0), ("mid", 8), ("rare", 64), ("rare2", 120)]
        .map(|(name, rank)| (name, by_count[rank]));
    for (name, p) in labels {
        println!("{name:>6} = label {p:>3}: {:>6} edges", count[p as usize]);
    }
    // A named label, starred or not.
    let factor = |f: &str| {
        let name = f.trim_end_matches('*');
        let p = labels
            .iter()
            .find(|l| l.0 == name)
            .expect("a named label")
            .1;
        if f.ends_with('*') {
            Regex::Star(Box::new(Regex::label(p)))
        } else {
            Regex::label(p)
        }
    };

    let mut engine = RpqEngine::new(&ring);
    let forced = |route| EngineOptions {
        forced_route: Some(route),
        ..EngineOptions::default()
    };
    println!(
        "\n{:<22} {:>12} {:>9} {:>9} {:>15} {:>8}",
        "query (?x E ?y)", "planner", "pairs", "split ms", "bitparallel ms", "ratio"
    );
    for name in [
        "mid/rare/mid",
        "mid/rare2/mid",
        "mid*/rare/mid*",
        "common/rare/common",
        "common/rare2/common*",
        "common*/rare2/common*",
    ] {
        let expr = name.split('/').map(factor).reduce(Regex::concat);
        let query = RpqQuery::new(Term::Var, expr.expect("three factors"), Term::Var);
        let planned = explain(&ring, &query).expect("a valid query").plan.route;
        let (split, split_took) = fastest(&mut engine, &query, &forced(EvalRoute::Split));
        let (bp, bp_took) = fastest(&mut engine, &query, &forced(EvalRoute::BitParallel));
        if !split.truncated && !bp.truncated {
            assert_eq!(
                split.sorted_pairs(),
                bp.sorted_pairs(),
                "{name}: the routes disagree"
            );
        }
        println!(
            "{name:<22} {:>12} {:>8}{} {:>9.1} {:>15.1} {:>7.1}x",
            planned.name(),
            split.pairs.len(),
            if split.truncated { "+" } else { " " },
            split_took.as_secs_f64() * 1e3,
            bp_took.as_secs_f64() * 1e3,
            bp_took.as_secs_f64() / split_took.as_secs_f64(),
        );
    }
}
