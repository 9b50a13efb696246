//! Large-expression fallback: expressions with more than 63 literal
//! occurrences do not fit one machine word, the regime §3.3 handles by
//! splitting `D` across `⌈(m+1)/w⌉` words at an `O(m/w)` slowdown. Rather
//! than multi-word bit-parallelism, this module evaluates such queries
//! with an explicit-state-set product-graph BFS that reads its adjacency
//! from the ring (per-label backward-search steps) — same answers, no
//! position limit, proportionally slower; the engine switches to it
//! automatically.

use automata::ast::Lit;
use automata::{Nfa, Regex};
use ring::{Id, Ring};
use std::collections::VecDeque;
use std::time::Instant;
use succinct::util::FxHashSet;

use crate::query::{EngineOptions, QueryOutput, RpqQuery, Term};
use crate::source::MergedView;
use crate::step::{step_label, ChunkExpansion};
use crate::QueryError;

/// Evaluates `query` with the explicit-state fallback over the pure
/// ring.
pub fn evaluate(
    ring: &Ring,
    query: &RpqQuery,
    opts: &EngineOptions,
) -> Result<QueryOutput, QueryError> {
    evaluate_view(&MergedView::ring_only(ring), query, opts)
}

/// Evaluates `query` with the explicit-state fallback over a merged
/// source: every expansion step enumerates live edges (ring minus
/// tombstones plus delta adds).
pub fn evaluate_view(
    view: &MergedView<'_>,
    query: &RpqQuery,
    opts: &EngineOptions,
) -> Result<QueryOutput, QueryError> {
    let ring = view.ring;
    let deadline = opts.timeout.map(|t| Instant::now() + t);
    let inv = |l: Id| ring.inverse_label(l);
    let mut out = QueryOutput::default();
    match (query.subject, query.object) {
        (Term::Const(s), Term::Var) => {
            let nfa = Nfa::from_regex(&query.expr);
            forward_bfs(view, &nfa, s, None, opts, deadline, &mut out, |s, r| (s, r));
        }
        (Term::Var, Term::Const(o)) => {
            let nfa = Nfa::from_regex(&query.expr.reversed(&inv));
            forward_bfs(view, &nfa, o, None, opts, deadline, &mut out, |o, r| (r, o));
        }
        (Term::Const(s), Term::Const(o)) => {
            let nfa = Nfa::from_regex(&query.expr);
            forward_bfs(view, &nfa, s, Some(o), opts, deadline, &mut out, |s, o| {
                (s, o)
            });
        }
        (Term::Var, Term::Var) => {
            // Per-source runs over existing nodes, like the classical ALP,
            // all into the one output: its pair count and node counter are
            // what each run checks the limit and the budget against, so
            // both are cumulative. Runs from different sources cannot
            // repeat a pair.
            let nfa = Nfa::from_regex(&query.expr);
            for s in (0..view.n_nodes()).filter(|&s| view.node_exists(s)) {
                if out.timed_out || out.truncated || out.budget_exhausted {
                    break;
                }
                forward_bfs(view, &nfa, s, None, opts, deadline, &mut out, |s, r| (s, r));
            }
            out.pairs.sort_unstable();
        }
    }
    out.stats.reported = out.pairs.len() as u64;
    Ok(out)
}

/// BFS over `(node, nfa state)` reading edges from the merged source:
/// outgoing edges of `v` labeled `p` are the (live) subjects of `p̂`
/// arriving at `v`.
#[allow(clippy::too_many_arguments)]
fn forward_bfs(
    view: &MergedView<'_>,
    nfa: &Nfa,
    start: Id,
    target: Option<Id>,
    opts: &EngineOptions,
    deadline: Option<Instant>,
    out: &mut QueryOutput,
    pair_of: impl Fn(Id, Id) -> (Id, Id),
) {
    let ring = view.ring;
    if !view.node_exists(start) {
        return;
    }
    // Labels of the completed alphabet each NFA literal can use, resolved
    // once (negated classes expand against the live alphabet; commits
    // never extend it — alphabet growth rebuilds the ring).
    let alphabet: Vec<Id> = (0..ring.n_preds()).collect();
    let mut visited: FxHashSet<(Id, u32)> = FxHashSet::default();
    let mut reported: FxHashSet<Id> = FxHashSet::default();
    let mut queue: VecDeque<(Id, u32)> = VecDeque::new();
    visited.insert((start, nfa.initial as u32));
    queue.push_back((start, nfa.initial as u32));
    let mut pops = 0u64;
    let mut step = ChunkExpansion::default();
    while let Some((v, q)) = queue.pop_front() {
        pops += 1;
        out.stats.bfs_steps += 1;
        if let Some(dl) = deadline {
            if pops.is_multiple_of(256) && Instant::now() >= dl {
                out.timed_out = true;
                return;
            }
        }
        if let Some(nb) = opts.node_budget {
            if out.stats.product_nodes >= nb {
                out.budget_exhausted = true;
                return;
            }
        }
        if nfa.accepting[q as usize] && reported.insert(v) {
            out.stats.reported += 1;
            match target {
                Some(t) if t != v => {}
                _ => {
                    out.pairs.push(pair_of(start, v));
                    if target.is_some() {
                        return;
                    }
                    if out.pairs.len() >= opts.limit {
                        out.truncated = true;
                        return;
                    }
                }
            }
        }
        for (lit, q2) in &nfa.transitions[q as usize] {
            let mut follow_label = |p: Id| {
                // v --p--> w  ⟺  w --p̂--> v in the completed graph:
                // enumerate the live subjects of p̂ into v.
                let pi = ring.inverse_label(p);
                step_label(view, pi, &[(v, 1)], &mut step);
                for &w in &step.subjects {
                    out.stats.product_edges += 1;
                    if visited.insert((w, *q2 as u32)) {
                        out.stats.product_nodes += 1;
                        queue.push_back((w, *q2 as u32));
                    }
                }
            };
            match lit {
                Lit::Label(p) => follow_label(*p),
                Lit::Class(ps) => {
                    for &p in ps {
                        if p < ring.n_preds() {
                            follow_label(p);
                        }
                    }
                }
                Lit::NegClass(_) => {
                    for &p in &alphabet {
                        if lit.matches(p) {
                            follow_label(p);
                        }
                    }
                }
            }
        }
    }
}

/// Whether an expression needs the fallback (more positions than the
/// bit-parallel word holds).
pub fn needs_fallback(expr: &Regex) -> bool {
    needs_fallback_fused(&expr.fuse_classes())
}

/// The same test on an already class-fused expression — the single
/// definition of the word-width regime boundary (`PreparedQuery` reuses
/// it on the fused form it builds anyway).
pub fn needs_fallback_fused(fused: &Regex) -> bool {
    fused.literal_count() > 63
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::evaluate_naive;
    use ring::ring::RingOptions;
    use ring::{Graph, Triple};

    fn chain_graph(n: u64) -> Graph {
        Graph::from_triples((0..n - 1).map(|i| Triple::new(i, 0, i + 1)).collect())
    }

    /// A 70-literal concatenation: over the 63-position limit.
    fn long_expr(k: usize) -> Regex {
        let mut e = Regex::label(0);
        for _ in 1..k {
            e = Regex::concat(e, Regex::label(0));
        }
        e
    }

    #[test]
    fn needs_fallback_detection() {
        assert!(!needs_fallback(&long_expr(63)));
        assert!(needs_fallback(&long_expr(64)));
        // Fused classes count once.
        let alt = (0..70).map(Regex::label).reduce(Regex::alt).unwrap();
        assert!(!needs_fallback(&alt));
    }

    #[test]
    fn long_chain_walks_exactly() {
        // A 70-step path on an 80-node chain has exactly one match.
        let g = chain_graph(80);
        let ring = Ring::build(&g, RingOptions::default());
        let q = RpqQuery::new(Term::Const(0), long_expr(70), Term::Var);
        let out = evaluate(&ring, &q, &EngineOptions::default()).unwrap();
        assert_eq!(out.sorted_pairs(), vec![(0, 70)]);
        assert_eq!(out.sorted_pairs(), evaluate_naive(&g, &q));
    }

    #[test]
    fn fallback_matches_oracle_on_all_shapes() {
        let g = Graph::from_triples(vec![
            Triple::new(0, 0, 1),
            Triple::new(1, 0, 2),
            Triple::new(2, 1, 0),
            Triple::new(2, 0, 3),
        ]);
        let ring = Ring::build(&g, RingOptions::default());
        // A >63-literal expression with real structure: 64 copies of
        // (a|^a)? then b.
        let step = Regex::Opt(Box::new(Regex::alt(Regex::label(0), Regex::label(2))));
        let mut e = step.clone();
        for _ in 1..64 {
            e = Regex::concat(e, step.clone());
        }
        e = Regex::concat(e, Regex::label(1));
        assert!(needs_fallback(&e));
        for (s, o) in [
            (Term::Var, Term::Var),
            (Term::Const(1), Term::Var),
            (Term::Var, Term::Const(0)),
            (Term::Const(1), Term::Const(0)),
        ] {
            let q = RpqQuery::new(s, e.clone(), o);
            let out = evaluate(&ring, &q, &EngineOptions::default()).unwrap();
            assert_eq!(out.sorted_pairs(), evaluate_naive(&g, &q), "{s:?} {o:?}");
        }
    }
}
