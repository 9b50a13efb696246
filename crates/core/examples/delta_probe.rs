//! Reads under a delta against reads of the ring alone: the query shapes
//! of the `update-mixed` workload, on a graph of its shape (2^13 nodes,
//! 32 predicates, 2^15 edges, seed 7), at its limit of 128, under deltas
//! of 250, 2 500 and 7 500 entries (40 % tombstones of ring triples, 60 %
//! adds, one add in ten at a node past the ring's universe). Each shape
//! is timed (fastest of seven) and its rank computations counted over
//! the ring alone and over the ring and the delta, and every answer under
//! the delta is checked against a ring rebuilt from the live triples.
//! `crates/core/README.md` ("Reads under a delta") records the table this
//! prints.
//!
//! With `--quick` only the 2 500-entry delta runs, each shape three
//! times, and the probe exits non-zero if a §5 fast-path shape takes more
//! than twice the rank computations under the delta that it takes alone:
//! a count, the same on every host.
//!
//! ```sh
//! cargo run --release --offline -p rpq_core --example delta_probe [-- --quick]
//! ```

use std::collections::BTreeSet;
use std::time::{Duration, Instant};

use automata::Regex;
use ring::ring::RingOptions;
use ring::{DeltaIndex, Graph, Id, Ring, Triple};
use rpq_core::{EngineOptions, EvalRoute, QueryOutput, RpqEngine, RpqQuery, Term};
use workload::{GraphGen, GraphGenConfig};

const N_NODES: Id = 1 << 13;
const N_PREDS: Id = 32;
/// Adds reach this many nodes past the ring's universe.
const NEW_NODES: Id = 8;

/// The fastest of `runs` evaluations.
fn fastest(runs: usize, mut run: impl FnMut() -> QueryOutput) -> (QueryOutput, Duration) {
    let mut best: Option<(QueryOutput, Duration)> = None;
    for _ in 0..runs {
        let t = Instant::now();
        let out = run();
        let took = t.elapsed();
        if best.as_ref().is_none_or(|b| took < b.1) {
            best = Some((out, took));
        }
    }
    best.expect("at least one run")
}

/// A linear congruential stream of draws below `m`.
struct Lcg(u64);

impl Lcg {
    fn below(&mut self, m: u64) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 33) % m
    }
}

/// `len` delta entries over `base`: `(adds, tombstones)`.
fn delta_entries(base: &BTreeSet<Triple>, len: usize, seed: u64) -> (Vec<Triple>, Vec<Triple>) {
    let mut rng = Lcg(seed);
    let listed: Vec<Triple> = base.iter().copied().collect();
    let mut dels = BTreeSet::new();
    while dels.len() < len * 2 / 5 {
        dels.insert(listed[rng.below(listed.len() as u64) as usize]);
    }
    let mut adds = BTreeSet::new();
    while adds.len() < len - dels.len() {
        let node = |rng: &mut Lcg| match rng.below(20) {
            0 => N_NODES + rng.below(NEW_NODES),
            _ => rng.below(N_NODES),
        };
        let add = Triple::new(node(&mut rng), rng.below(N_PREDS), node(&mut rng));
        if !base.contains(&add) {
            adds.insert(add);
        }
    }
    (adds.into_iter().collect(), dels.into_iter().collect())
}

fn main() {
    let quick = std::env::args().any(|arg| arg == "--quick");
    let graph = GraphGen::new(GraphGenConfig {
        n_nodes: N_NODES,
        n_preds: N_PREDS,
        n_edges: 1 << 15,
        pred_zipf: 1.0,
        node_skew: 2.0,
        seed: 7,
    })
    .generate();
    let ring = Ring::build(&graph, RingOptions::default());
    let base: BTreeSet<Triple> = graph.triples().iter().copied().collect();
    let label = |p: Id| Regex::label(p);
    let inverse = |p: Id| Regex::label(ring.inverse_label(p));
    let star = |p: Id| Regex::Star(Box::new(label(p)));
    let shapes = [
        ("?x <p1> ?y", Term::Var, label(1), Term::Var),
        ("?x ^<p0> ?y", Term::Var, inverse(0), Term::Var),
        (
            "?x <p2>|<p3> ?y",
            Term::Var,
            Regex::alt(label(2), label(3)),
            Term::Var,
        ),
        (
            "?x <p1>/<p5> ?y",
            Term::Var,
            Regex::concat(label(1), label(5)),
            Term::Var,
        ),
        (
            "?x <p4>/^<p31> ?y",
            Term::Var,
            Regex::concat(label(4), inverse(31)),
            Term::Var,
        ),
        (
            "?x <p29>/<p1>* ?y",
            Term::Var,
            Regex::concat(label(29), star(1)),
            Term::Var,
        ),
        ("?x <p0>* <n5>", Term::Var, star(0), Term::Const(5)),
    ]
    .map(|(name, s, expr, o)| (name, RpqQuery::new(s, expr, o)));
    let opts = EngineOptions {
        limit: 128,
        ..EngineOptions::default()
    };
    let (sizes, runs): (&[usize], usize) = if quick {
        (&[2500], 3)
    } else {
        (&[250, 2500, 7500], 7)
    };
    let mut over_gate = Vec::new();
    for &len in sizes {
        let (adds, dels) = delta_entries(&base, len, 0xDE17A + len as u64);
        let live: BTreeSet<Triple> = base
            .difference(&dels.iter().copied().collect())
            .chain(adds.iter())
            .copied()
            .collect();
        let rebuilt = Ring::build(
            &Graph::new(live.into_iter().collect(), N_NODES + NEW_NODES, N_PREDS),
            RingOptions::default(),
        );
        let delta = DeltaIndex::new(adds, dels, N_PREDS);
        println!(
            "\ndelta of {len} entries ({} adds, {} tombstones)",
            delta.n_adds(),
            delta.n_dels()
        );
        println!(
            "{:<20} {:>10} {:>6} {:>9} {:>9} {:>6} {:>9} {:>9} {:>6}",
            "query", "route", "pairs", "alone µs", "delta µs", "×", "alone rk", "delta rk", "×"
        );
        for (name, query) in &shapes {
            let mut alone_engine = RpqEngine::new(&ring);
            let (alone, alone_took) =
                fastest(runs, || alone_engine.evaluate(query, &opts).unwrap());
            let mut delta_engine = RpqEngine::with_delta(&ring, Some(&delta));
            let (under, under_took) =
                fastest(runs, || delta_engine.evaluate(query, &opts).unwrap());
            let want = RpqEngine::new(&rebuilt).evaluate(query, &opts).unwrap();
            assert_eq!(
                (&under.pairs, under.truncated),
                (&want.pairs, want.truncated),
                "{name} under the {len}-entry delta: not the rebuilt ring's answer"
            );
            let route = under.plan.as_ref().expect("an engine's plan").route;
            let (r0, r1) = (alone.stats.rank_ops, under.stats.rank_ops);
            let ratio = |a: f64, b: f64| b / a.max(1e-9);
            println!(
                "{name:<20} {:>10} {:>5}{} {:>9.0} {:>9.0} {:>6.2} {:>9} {:>9} {:>6.2}",
                route.name(),
                under.pairs.len(),
                if under.truncated { "+" } else { " " },
                alone_took.as_secs_f64() * 1e6,
                under_took.as_secs_f64() * 1e6,
                ratio(alone_took.as_secs_f64(), under_took.as_secs_f64()),
                r0,
                r1,
                ratio(r0 as f64, r1 as f64),
            );
            if route == EvalRoute::FastPath && r1 > 2 * r0 {
                over_gate.push(format!(
                    "{name} at {len}: {r1} rank computations, {r0} alone"
                ));
            }
        }
    }
    if !over_gate.is_empty() {
        eprintln!("fast paths over twice their rank computations alone under the delta:");
        for line in &over_gate {
            eprintln!("  {line}");
        }
        if quick {
            std::process::exit(1);
        }
    }
}
