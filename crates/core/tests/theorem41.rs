//! Theorem 4.1 has no `|V|` term: the traversal costs
//! `O(2^m + m log|P| + |G'_E| log|G|)`, where `G'_E` is the product
//! graph's edges — nothing is charged per graph node the query never
//! reaches.
//!
//! The test builds a graph `G` and a `G'` that adds seven times as many
//! fresh nodes as `G` has, joined by edges on one fresh label that no
//! query mentions. `G`'s node and label ids are unchanged in `G'` (only
//! the inverse labels move up by one, with the alphabet). Every Table 1
//! pattern is then run forced onto the bit-parallel traversal on both
//! bare rings, as generated and variable-to-variable: the answers and the
//! product-graph counters must be equal, and the rank computations may
//! grow only by the `log|G|` factor — the ratio of the two rings' wavelet
//! heights — not by the 8× of `|V|`.

use automata::Regex;
use ring::ring::RingOptions;
use ring::{Graph, Id, Ring, Triple};
use rpq_core::{EngineOptions, EvalRoute, RpqEngine, RpqQuery, Term, TraversalStats};
use workload::{GraphGen, GraphGenConfig, QueryGen};

/// `g` plus `7·|V|` fresh nodes, each with two edges on the fresh label
/// `n_preds` to other fresh nodes.
fn with_fresh_nodes(g: &Graph) -> Graph {
    let (n, fresh_label) = (g.n_nodes(), g.n_preds());
    let extra = 7 * n;
    let mut triples = g.triples().to_vec();
    for i in 0..extra {
        triples.push(Triple::new(n + i, fresh_label, n + (i + 1) % extra));
        triples.push(Triple::new(n + i, fresh_label, n + (i * 7 + 3) % extra));
    }
    Graph::new(triples, 8 * n, fresh_label + 1)
}

/// `expr` over `G'`'s completed alphabet: an inverse label `l ≥ n_base`
/// moves to `l + 1`. (Reversing twice restores the order; the first
/// reversal maps the labels.)
fn shift_inverses(expr: &Regex, n_base: Id) -> Regex {
    expr.reversed(&|l| if l >= n_base { l + 1 } else { l })
        .reversed(&|l| l)
}

#[test]
fn the_traversal_pays_nothing_for_nodes_it_never_reaches() {
    let g = GraphGen::new(GraphGenConfig {
        n_nodes: 512,
        n_preds: 12,
        n_edges: 4000,
        seed: 41,
        ..Default::default()
    })
    .generate();
    let g2 = with_fresh_nodes(&g);
    assert!(g2.n_nodes() >= 8 * g.n_nodes());
    let (ring, ring2) = (
        Ring::build(&g, RingOptions::default()),
        Ring::build(&g2, RingOptions::default()),
    );
    let height = |r: &Ring| (r.l_p().width(), r.l_s().width());
    let ((p1, s1), (p2, s2)) = (height(&ring), height(&ring2));
    let ratio = (p2 as f64 / p1 as f64).max(s2 as f64 / s1 as f64);
    assert!(s2 > s1, "G' must need a taller L_s ({s1} → {s2})");

    let opts = EngineOptions {
        forced_route: Some(EvalRoute::BitParallel),
        ..EngineOptions::default()
    };
    let (mut engine, mut engine2) = (RpqEngine::new(&ring), RpqEngine::new(&ring2));
    let mut checked = 0usize;
    let mut rank_work = 0u64;
    for gq in QueryGen::new(&g, 0x7417).scaled_log(0.02) {
        let q = &gq.query;
        let var_var = RpqQuery::new(Term::Var, q.expr.clone(), Term::Var);
        // A nullable var-var query answers (v, v) for every node: output,
        // not work, and it grows with |V| by definition.
        for query in [q.clone(), var_var] {
            if query.is_var_to_var() && query.expr.nullable() {
                continue;
            }
            let query2 = RpqQuery::new(
                query.subject,
                shift_inverses(&query.expr, g.n_preds()),
                query.object,
            );
            let out = engine.evaluate(&query, &opts).unwrap();
            let out2 = engine2.evaluate(&query2, &opts).unwrap();
            let what = format!("{} {:?}", gq.pattern, query);
            for o in [&out, &out2] {
                assert_eq!(
                    o.plan.as_ref().unwrap().route,
                    EvalRoute::BitParallel,
                    "{what}"
                );
                assert!(!o.truncated && !o.timed_out, "{what}");
            }
            assert_eq!(out.sorted_pairs(), out2.sorted_pairs(), "{what}: answers");
            let counters = |s: &TraversalStats| (s.product_nodes, s.product_edges, s.bfs_steps);
            assert_eq!(
                counters(&out.stats),
                counters(&out2.stats),
                "{what}: (product_nodes, product_edges, bfs_steps)"
            );
            let (r1, r2) = (out.stats.rank_ops, out2.stats.rank_ops);
            assert!(
                r2 as f64 <= r1 as f64 * ratio,
                "{what}: rank_ops {r1} → {r2}, more than the height ratio {ratio:.3}"
            );
            rank_work += r1;
            checked += 1;
        }
    }
    assert!(checked >= 30, "only {checked} queries checked");
    assert!(rank_work > 0, "the log did no rank work");
}
