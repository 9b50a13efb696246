//! Leapfrog-TrieJoin over the ring: worst-case optimal multijoins of
//! triple patterns (Veldhuizen \[50\]; Arroyuelo et al. SIGMOD'21 \[4\]).
//! Part of this example, not of the `ring` crate: it needs nothing but
//! the ring's public steps over `L_p` and `L_s`.
//!
//! This is the evaluation engine the ring was originally designed for, and
//! the integration target §6 of the RPQ paper describes ("our technique is
//! particularly well-suited to integrate RPQs in SPARQL multijoin queries
//! solved with Leapfrog Triejoin"). We implement the binary-relation form:
//! every pattern has a constant predicate (the overwhelmingly common case
//! in basic graph patterns), and the completed alphabet supplies the
//! inverse direction, so any pattern can seek on either endpoint.
//!
//! Candidate values at each join level come from wavelet-matrix
//! `range_next_value` seeks over contiguous ring ranges — `O(log n)` per
//! seek, with no materialization.

use ring::{Id, Ring};
use succinct::WaveletMatrix;

/// A join term: a constant id or a query variable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Term {
    /// A fixed node id.
    Const(Id),
    /// A variable, identified by index into the binding vector.
    Var(usize),
}

/// A triple pattern with a constant predicate.
#[derive(Clone, Copy, Debug)]
pub struct TriplePattern {
    /// Subject term.
    pub s: Term,
    /// Predicate (constant, in the *base* alphabet unless you know what
    /// you are doing).
    pub p: Id,
    /// Object term.
    pub o: Term,
}

impl TriplePattern {
    /// Convenience constructor.
    pub fn new(s: Term, p: Id, o: Term) -> Self {
        Self { s, p, o }
    }

    fn vars(&self) -> impl Iterator<Item = usize> {
        let a = match self.s {
            Term::Var(v) => Some(v),
            Term::Const(_) => None,
        };
        let b = match self.o {
            Term::Var(v) => Some(v),
            Term::Const(_) => None,
        };
        a.into_iter().chain(b)
    }
}

/// Evaluates the join of `patterns` with the given variable elimination
/// order (which must cover every variable mentioned). Returns all bindings
/// as vectors indexed by variable id.
///
/// # Panics
/// Panics if the ring lacks inverse edges (needed to seek on objects), if
/// a pattern mentions a variable missing from `var_order`, or if a
/// predicate id is out of range.
pub fn leapfrog_join(ring: &Ring, patterns: &[TriplePattern], var_order: &[usize]) -> Vec<Vec<Id>> {
    assert!(ring.has_inverses(), "leapfrog join requires inverse edges");
    let n_vars = var_order.len();
    for pat in patterns {
        assert!(pat.p < ring.n_preds(), "predicate {} out of range", pat.p);
        for v in pat.vars() {
            assert!(
                var_order.contains(&v),
                "variable {v} not in the elimination order"
            );
        }
    }
    let mut bindings: Vec<Option<Id>> =
        vec![None; n_vars.max(var_order.iter().max().map_or(0, |m| m + 1))];
    let mut results = Vec::new();

    // Constant-only patterns are a pre-filter.
    for pat in patterns {
        if let (Term::Const(s), Term::Const(o)) = (pat.s, pat.o) {
            if !ring.contains(s, pat.p, o) {
                return results;
            }
        }
    }

    recurse(ring, patterns, var_order, 0, &mut bindings, &mut results);
    results
}

fn recurse(
    ring: &Ring,
    patterns: &[TriplePattern],
    var_order: &[usize],
    depth: usize,
    bindings: &mut Vec<Option<Id>>,
    results: &mut Vec<Vec<Id>>,
) {
    if depth == var_order.len() {
        // All variables bound; re-verify self-join patterns (same variable
        // on both endpoints), which only contributed one seeker.
        for pat in patterns {
            let s = term_value(pat.s, bindings);
            let o = term_value(pat.o, bindings);
            if let (Some(s), Some(o)) = (s, o) {
                if !ring.contains(s, pat.p, o) {
                    return;
                }
            }
        }
        results.push(bindings.iter().map(|b| b.unwrap_or(0)).collect());
        return;
    }
    let var = var_order[depth];
    let seekers = build_seekers(ring, patterns, var, bindings);
    if seekers.is_empty() {
        // Unconstrained variable: every node qualifies. This only happens
        // for degenerate queries; enumerate the node universe.
        for v in 0..ring.n_nodes() {
            bindings[var] = Some(v);
            recurse(ring, patterns, var_order, depth + 1, bindings, results);
        }
        bindings[var] = None;
        return;
    }

    // Seek-based intersection (leapfrog): advance the candidate to the
    // maximum of all seekers until they agree.
    let mut candidate: Id = 0;
    'outer: loop {
        let mut agreed = true;
        for s in &seekers {
            match s.seek(candidate) {
                None => break 'outer,
                Some(v) if v > candidate => {
                    candidate = v;
                    agreed = false;
                    break;
                }
                Some(_) => {}
            }
        }
        if agreed {
            bindings[var] = Some(candidate);
            recurse(ring, patterns, var_order, depth + 1, bindings, results);
            bindings[var] = None;
            if candidate == Id::MAX {
                break;
            }
            candidate += 1;
        }
    }
}

fn term_value(t: Term, bindings: &[Option<Id>]) -> Option<Id> {
    match t {
        Term::Const(c) => Some(c),
        Term::Var(v) => bindings[v],
    }
}

/// A sorted-distinct-value seeker over a contiguous wavelet-matrix range.
struct RangeSeeker<'a> {
    wm: &'a WaveletMatrix,
    b: usize,
    e: usize,
}

impl RangeSeeker<'_> {
    fn seek(&self, x: Id) -> Option<Id> {
        self.wm.range_next_value(self.b, self.e, x).map(|t| t.0)
    }
}

/// Builds one seeker per pattern constraining `var` under the current
/// partial binding.
fn build_seekers<'a>(
    ring: &'a Ring,
    patterns: &[TriplePattern],
    var: usize,
    bindings: &[Option<Id>],
) -> Vec<RangeSeeker<'a>> {
    let mut seekers = Vec::new();
    for pat in patterns {
        let s_val = term_value(pat.s, bindings);
        let o_val = term_value(pat.o, bindings);
        let seeks_subject = matches!(pat.s, Term::Var(v) if v == var && s_val.is_none());
        let seeks_object = matches!(pat.o, Term::Var(v) if v == var && o_val.is_none());
        if seeks_subject {
            // Values of the subject endpoint: subjects of p, optionally
            // narrowed by a bound object.
            let range = match o_val {
                Some(o) => ring.backward_step_by_pred(ring.object_range(o), pat.p),
                None => ring.pred_range(pat.p),
            };
            seekers.push(RangeSeeker {
                wm: ring.l_s(),
                b: range.0,
                e: range.1,
            });
        } else if seeks_object {
            // Mirror through the inverse predicate: objects of p are the
            // subjects of p̂.
            let pi = ring.inverse_label(pat.p);
            let range = match s_val {
                Some(s) => ring.backward_step_by_pred(ring.object_range(s), pi),
                None => ring.pred_range(pi),
            };
            seekers.push(RangeSeeker {
                wm: ring.l_s(),
                b: range.0,
                e: range.1,
            });
        }
    }
    seekers
}

#[cfg(test)]
mod tests {
    use super::*;
    use ring::ring::RingOptions;
    use ring::{Graph, Triple};

    /// A small social graph: knows (p=0), likes (p=1).
    fn social() -> Ring {
        let t = |s, p, o| Triple::new(s, p, o);
        let g = Graph::from_triples(vec![
            t(0, 0, 1),
            t(1, 0, 2),
            t(2, 0, 3),
            t(0, 0, 2),
            t(3, 0, 0),
            t(0, 1, 3),
            t(1, 1, 3),
            t(2, 1, 0),
        ]);
        Ring::build(&g, RingOptions::default())
    }

    fn naive_join(
        triples: &[(Id, Id, Id)],
        patterns: &[TriplePattern],
        n_vars: usize,
        n_nodes: Id,
    ) -> Vec<Vec<Id>> {
        // Brute force: try all assignments.
        let mut out = Vec::new();
        let mut assignment = vec![0 as Id; n_vars];
        fn rec(
            triples: &[(Id, Id, Id)],
            patterns: &[TriplePattern],
            assignment: &mut Vec<Id>,
            level: usize,
            n_nodes: Id,
            out: &mut Vec<Vec<Id>>,
        ) {
            if level == assignment.len() {
                let ok = patterns.iter().all(|pat| {
                    let s = match pat.s {
                        Term::Const(c) => c,
                        Term::Var(v) => assignment[v],
                    };
                    let o = match pat.o {
                        Term::Const(c) => c,
                        Term::Var(v) => assignment[v],
                    };
                    triples.contains(&(s, pat.p, o))
                });
                if ok {
                    out.push(assignment.clone());
                }
                return;
            }
            for v in 0..n_nodes {
                assignment[level] = v;
                rec(triples, patterns, assignment, level + 1, n_nodes, out);
            }
        }
        rec(triples, patterns, &mut assignment, 0, n_nodes, &mut out);
        out
    }

    #[test]
    fn two_hop_path_join() {
        let ring = social();
        // ?x knows ?y, ?y knows ?z
        let pats = [
            TriplePattern::new(Term::Var(0), 0, Term::Var(1)),
            TriplePattern::new(Term::Var(1), 0, Term::Var(2)),
        ];
        let mut got = leapfrog_join(&ring, &pats, &[0, 1, 2]);
        got.sort();
        let triples: Vec<(Id, Id, Id)> =
            vec![(0, 0, 1), (1, 0, 2), (2, 0, 3), (0, 0, 2), (3, 0, 0)];
        let mut expected = naive_join(&triples, &pats, 3, 4);
        expected.sort();
        assert_eq!(got, expected);
        assert!(got.contains(&vec![0, 1, 2]));
    }

    #[test]
    fn triangle_join() {
        let ring = social();
        // ?x knows ?y, ?y likes ?z, ?z knows ?x  — a directed triangle.
        let pats = [
            TriplePattern::new(Term::Var(0), 0, Term::Var(1)),
            TriplePattern::new(Term::Var(1), 1, Term::Var(2)),
            TriplePattern::new(Term::Var(2), 0, Term::Var(0)),
        ];
        let triples: Vec<(Id, Id, Id)> = vec![
            (0, 0, 1),
            (1, 0, 2),
            (2, 0, 3),
            (0, 0, 2),
            (3, 0, 0),
            (0, 1, 3),
            (1, 1, 3),
            (2, 1, 0),
        ];
        for order in [[0, 1, 2], [2, 0, 1], [1, 2, 0]] {
            let mut got = leapfrog_join(&ring, &pats, &order);
            got.sort();
            let mut expected = naive_join(&triples, &pats, 3, 4);
            expected.sort();
            assert_eq!(got, expected, "order {order:?}");
        }
    }

    #[test]
    fn constants_and_self_joins() {
        let ring = social();
        // 0 knows ?y, ?y likes 3
        let pats = [
            TriplePattern::new(Term::Const(0), 0, Term::Var(0)),
            TriplePattern::new(Term::Var(0), 1, Term::Const(3)),
        ];
        let got = leapfrog_join(&ring, &pats, &[0]);
        assert_eq!(got, vec![vec![1]]);

        // Fully constant, satisfied and unsatisfied.
        let sat = [TriplePattern::new(Term::Const(0), 0, Term::Const(1))];
        assert_eq!(leapfrog_join(&ring, &sat, &[]), vec![Vec::<Id>::new()]);
        let unsat = [TriplePattern::new(Term::Const(1), 0, Term::Const(0))];
        assert!(leapfrog_join(&ring, &unsat, &[]).is_empty());

        // Self-loop pattern ?x knows ?x: none in this graph.
        let selfp = [TriplePattern::new(Term::Var(0), 0, Term::Var(0))];
        assert!(leapfrog_join(&ring, &selfp, &[0]).is_empty());
    }

    #[test]
    fn empty_intersection() {
        let ring = social();
        // ?x likes 1 — nobody likes node 1.
        let pats = [TriplePattern::new(Term::Var(0), 1, Term::Const(1))];
        assert!(leapfrog_join(&ring, &pats, &[0]).is_empty());
    }
}
