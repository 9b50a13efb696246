//! Rare-label splitting: evaluate `E1/p/E2` from the `p`-edges outward.
//!
//! §2 describes the strategy (Koschmieder & Leser \[30\]): when a
//! concatenation contains a label `p` with few edges, every matching path
//! must cross one of them, so enumerate the `p`-edges `(u, p, v)` and
//! complete each side — sources matching `E1` into `u` (a backward run)
//! and targets matching `E2` out of `v` (a backward run of `Ê2`). §6
//! notes the ring permits "running the NFA forwards or backwards from
//! those labels".
//!
//! The planner ([`crate::planner`]) picks this route —
//! [`crate::EvalRoute::Split`] — for variable-to-variable queries whose
//! rarest mandatory label undercuts the two-pass strategy's first
//! expansion, and
//! [`RpqEngine::evaluate_prepared`](crate::RpqEngine::evaluate_prepared)
//! executes it through the crate-internal `evaluate_split_in`:
//! sub-queries run on the *caller's* engine with the node budget and
//! deadline shared cumulatively across every per-edge completion.

use automata::Regex;
use ring::{Id, Ring};
use std::time::Instant;
use succinct::util::FxHashMap;

use crate::engine::RpqEngine;
use crate::pairbuf::PairBuffer;
use crate::plan::PreparedQuery;
use crate::query::{EngineOptions, QueryOutput, Term};
use crate::step::{step_label, ChunkExpansion, StepSource};
use crate::QueryError;

/// A split of a top-level concatenation `E = prefix / label / suffix`
/// (either side may be `ε`).
#[derive(Clone, Debug)]
pub struct Split {
    /// The part before the split label.
    pub prefix: Regex,
    /// The split label (a plain literal).
    pub label: Id,
    /// The part after the split label.
    pub suffix: Regex,
}

/// All ways to split `expr` at a top-level plain-label factor.
pub fn split_candidates(expr: &Regex) -> Vec<Split> {
    fn flatten<'e>(e: &'e Regex, out: &mut Vec<&'e Regex>) {
        match e {
            Regex::Concat(a, b) => {
                flatten(a, out);
                flatten(b, out);
            }
            _ => out.push(e),
        }
    }
    fn reassemble(parts: &[&Regex]) -> Regex {
        parts
            .iter()
            .cloned()
            .cloned()
            .reduce(Regex::concat)
            .unwrap_or(Regex::Epsilon)
    }
    let mut factors = Vec::new();
    flatten(expr, &mut factors);
    let mut out = Vec::new();
    for (i, f) in factors.iter().enumerate() {
        if let Regex::Literal(automata::ast::Lit::Label(p)) = f {
            out.push(Split {
                prefix: reassemble(&factors[..i]),
                label: *p,
                suffix: reassemble(&factors[i + 1..]),
            });
        }
    }
    out
}

/// Picks the candidate whose label has the smallest cardinality.
pub fn best_split(ring: &Ring, expr: &Regex) -> Option<Split> {
    best_split_with(&crate::stats::RingStatistics::new(ring), expr)
}

/// Like [`best_split`], but counting **live** cardinalities through a
/// statistics provider (delta-adjusted when the source has an overlay) —
/// the variant the planner consults.
pub fn best_split_with(stats: &crate::stats::RingStatistics<'_>, expr: &Regex) -> Option<Split> {
    split_candidates(expr)
        .into_iter()
        .filter(|s| s.label < stats.ring().n_preds())
        .min_by_key(|s| stats.pred_cardinality(s.label))
}

/// Evaluates the variable-to-variable query `(x, prefix/label/suffix, y)`
/// on a fresh engine over `ring`. Convenience wrapper for standalone
/// use (examples, property tests); the engine's own dispatch goes
/// through the crate-internal `evaluate_split_in` so the split route
/// shares the caller's mask tables, budget and deadline.
pub fn evaluate_split(
    ring: &Ring,
    split: &Split,
    opts: &EngineOptions,
) -> Result<QueryOutput, QueryError> {
    let deadline = opts.timeout.map(|t| Instant::now() + t);
    evaluate_split_in(&mut RpqEngine::new(ring), ring, split, opts, deadline)
}

/// Evaluates a split on the caller's engine, enumerating the label's
/// edges off `src` — the step source the engine evaluates over — and
/// completing both sides with anchored sub-queries, caching per-endpoint
/// sub-results.
///
/// Budgets are cumulative: each sub-query runs under the node budget the
/// previous ones left over, and `deadline` (derived once from
/// `opts.timeout` by the caller) bounds the whole split, not each
/// completion. Sub-queries plan normally — any forced route in `opts`
/// applies to the split decision already made, not to the (anchored,
/// hence unsplittable) sides.
///
/// Produces exactly the default engine's answer set when no run hits a
/// limit; under truncation the strategies keep different (equally valid)
/// subsets of the answer set, with the same flags raised.
pub(crate) fn evaluate_split_in<S: StepSource + ?Sized>(
    engine: &mut RpqEngine<'_>,
    src: &S,
    split: &Split,
    opts: &EngineOptions,
    deadline: Option<Instant>,
) -> Result<QueryOutput, QueryError> {
    let ring = engine.ring();
    let inv = |l: Id| ring.inverse_label(l);
    // Compile each non-trivial side once; every per-edge completion
    // re-anchors the same prepared query.
    let prefix_plan = (!matches!(split.prefix, Regex::Epsilon))
        .then(|| PreparedQuery::compile(&split.prefix, &inv, opts.bp_split_width))
        .transpose()?;
    let suffix_plan = (!matches!(split.suffix, Regex::Epsilon))
        .then(|| PreparedQuery::compile(&split.suffix, &inv, opts.bp_split_width))
        .transpose()?;

    let mut out = QueryOutput::default();
    let mut pairs = PairBuffer::new();
    let mut sources_cache: FxHashMap<Id, Vec<Id>> = FxHashMap::default();
    let mut targets_cache: FxHashMap<Id, Vec<Id>> = FxHashMap::default();

    // Sub-queries inherit the caller's limits but plan on their own (the
    // split decision is already made) and share the remaining budget.
    let sub_opts = |out: &QueryOutput, deadline: Option<Instant>| EngineOptions {
        forced_route: None,
        node_budget: opts
            .node_budget
            .map(|nb| nb.saturating_sub(out.stats.product_nodes)),
        timeout: deadline.map(|dl| dl.saturating_duration_since(Instant::now())),
        ..*opts
    };

    // Enumerate the split label's edges (u, p, v): its subjects, then
    // per subject u the subjects of p̂ into u.
    let mut subjects: Vec<Id> = Vec::new();
    src.label_subjects(split.label, usize::MAX, &mut subjects);
    let mut step = ChunkExpansion::default();

    'outer: for u in subjects {
        if let Some(dl) = deadline {
            if Instant::now() >= dl {
                out.timed_out = true;
                break;
            }
        }
        if out.budget_exhausted {
            break;
        }
        // Sources reaching u through the prefix.
        if let std::collections::hash_map::Entry::Vacant(entry) = sources_cache.entry(u) {
            let srcs = match &prefix_plan {
                None => vec![u],
                Some(plan) => {
                    let mut sub = engine.evaluate_prepared(
                        plan,
                        Term::Var,
                        Term::Const(u),
                        &sub_opts(&out, deadline),
                    )?;
                    absorb(&mut out, &mut sub);
                    sub.pairs.into_iter().map(|(s, _)| s).collect()
                }
            };
            entry.insert(srcs);
        }
        if sources_cache[&u].is_empty() {
            continue;
        }

        // Objects v of (u, p, v): the subjects of p̂ into u.
        step_label(src, inv(split.label), &[(u, 1)], &mut step);
        for &v in &step.subjects {
            if out.budget_exhausted || out.timed_out {
                break 'outer;
            }
            if let std::collections::hash_map::Entry::Vacant(entry) = targets_cache.entry(v) {
                let tgts = match &suffix_plan {
                    None => vec![v],
                    Some(plan) => {
                        let mut sub = engine.evaluate_prepared(
                            plan,
                            Term::Const(v),
                            Term::Var,
                            &sub_opts(&out, deadline),
                        )?;
                        absorb(&mut out, &mut sub);
                        sub.pairs.into_iter().map(|(_, o)| o).collect()
                    }
                };
                entry.insert(tgts);
            }
            for &s in &sources_cache[&u] {
                for &o in &targets_cache[&v] {
                    pairs.push((s, o));
                    // Amortized probe; the post-loop settle is exact.
                    if pairs.maybe_reached(opts.limit) {
                        pairs.truncate_distinct(opts.limit);
                        out.truncated = true;
                        break 'outer;
                    }
                }
            }
        }
    }
    if pairs.distinct_reached(opts.limit) {
        pairs.truncate_distinct(opts.limit);
        out.truncated = true;
    }
    pairs.compact();
    out.stats.pair_compactions += pairs.compactions();
    out.pairs = pairs.into_sorted_vec();
    out.stats.reported = out.pairs.len() as u64;
    Ok(out)
}

/// Folds a sub-query's statistics and limit flags into the split's
/// accumulated output (a truncated or budget-capped side means the
/// overall answer set may be incomplete too). When the sub-query was
/// profiled (split sub-queries inherit the caller's
/// [`EngineOptions::profile`]), its per-level samples are moved into a
/// partial profile on `out`, which `evaluate_prepared` folds into the
/// final one — so a split's profile shows the concatenated levels of
/// every completion it ran.
fn absorb(out: &mut QueryOutput, sub: &mut QueryOutput) {
    out.stats.add(&sub.stats);
    out.timed_out |= sub.timed_out;
    out.truncated |= sub.truncated;
    out.budget_exhausted |= sub.budget_exhausted;
    if let Some(p) = sub.profile.take() {
        out.profile
            .get_or_insert_with(Default::default)
            .levels
            .extend(p.levels);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::evaluate_naive;
    use crate::query::RpqQuery;
    use ring::ring::RingOptions;
    use ring::{Graph, Triple};

    fn graph() -> Graph {
        Graph::from_triples(vec![
            Triple::new(0, 0, 1),
            Triple::new(1, 0, 2),
            Triple::new(2, 1, 3), // the rare b edge
            Triple::new(3, 2, 4),
            Triple::new(4, 2, 5),
            Triple::new(5, 2, 3),
            Triple::new(0, 0, 0),
        ])
    }

    fn star(l: u64) -> Regex {
        Regex::Star(Box::new(Regex::label(l)))
    }

    #[test]
    fn candidates_enumerate_plain_factors() {
        // a*/b/c* has exactly one plain-label factor: b.
        let e = Regex::concat(Regex::concat(star(0), Regex::label(1)), star(2));
        let cands = split_candidates(&e);
        assert_eq!(cands.len(), 1);
        assert_eq!(cands[0].label, 1);
        assert_eq!(cands[0].prefix, star(0));
        assert_eq!(cands[0].suffix, star(2));
        // b alone splits into (ε, b, ε).
        let cands = split_candidates(&Regex::label(1));
        assert_eq!(cands.len(), 1);
        assert!(matches!(cands[0].prefix, Regex::Epsilon));
        assert!(matches!(cands[0].suffix, Regex::Epsilon));
        // A pure star has no split point.
        assert!(split_candidates(&star(0)).is_empty());
    }

    #[test]
    fn best_split_picks_rarest() {
        let ring = Ring::build(&graph(), RingOptions::default());
        // a/b/c: b has 1 edge, a has 3, c has 3.
        let e = Regex::concat(
            Regex::concat(Regex::label(0), Regex::label(1)),
            Regex::label(2),
        );
        let best = best_split(&ring, &e).unwrap();
        assert_eq!(best.label, 1);
    }

    #[test]
    fn split_evaluation_matches_engine() {
        let g = graph();
        let ring = Ring::build(&g, RingOptions::default());
        let opts = EngineOptions::default();
        // a*/b/c* — the canonical rare-label query from §2.
        let e = Regex::concat(Regex::concat(star(0), Regex::label(1)), star(2));
        let split = best_split(&ring, &e).unwrap();
        let got = evaluate_split(&ring, &split, &opts).unwrap();
        let expected = evaluate_naive(&g, &RpqQuery::new(Term::Var, e, Term::Var));
        assert_eq!(got.sorted_pairs(), expected);
        assert!(!expected.is_empty());
    }

    #[test]
    fn split_with_inverse_sides_matches() {
        let g = graph();
        let ring = Ring::build(&g, RingOptions::default());
        let opts = EngineOptions::default();
        // ^a*/b/(c|^c)* exercises inverse labels on both sides.
        let e = Regex::concat(
            Regex::concat(star(3), Regex::label(1)),
            Regex::Star(Box::new(Regex::alt(Regex::label(2), Regex::label(5)))),
        );
        let split = best_split(&ring, &e).unwrap();
        assert_eq!(split.label, 1);
        let got = evaluate_split(&ring, &split, &opts).unwrap();
        let expected = evaluate_naive(&g, &RpqQuery::new(Term::Var, e, Term::Var));
        assert_eq!(got.sorted_pairs(), expected);
    }
}
