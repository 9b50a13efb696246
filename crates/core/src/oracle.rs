//! A naive reference evaluator for differential testing: classical
//! product-graph BFS over an uncompressed adjacency list (the §3.2
//! textbook algorithm \[36\]), with the same result semantics as the ring
//! engine. Deliberately simple — shared bugs with the succinct path are
//! implausible.

use automata::{Label, Nfa};
use ring::{Graph, Id};

use crate::query::{RpqQuery, Term};

/// The oracle: forward adjacency of the *completed* graph.
pub struct NaiveOracle {
    adj: Vec<Vec<(Label, Id)>>,
    exists: Vec<bool>,
    n_nodes: usize,
}

impl NaiveOracle {
    /// Builds the oracle from the **base** graph (completion with inverse
    /// labels `p̂ = p + |P|` happens internally, as in `Ring::build`).
    pub fn new(base: &Graph) -> Self {
        let completed = base.completed();
        let n_nodes = completed.n_nodes() as usize;
        let mut adj: Vec<Vec<(Label, Id)>> = vec![Vec::new(); n_nodes];
        let mut exists = vec![false; n_nodes];
        for t in completed.triples() {
            adj[t.s as usize].push((t.p, t.o));
            exists[t.s as usize] = true;
            exists[t.o as usize] = true;
        }
        Self {
            adj,
            exists,
            n_nodes,
        }
    }

    /// Evaluates `query`, returning sorted distinct `(s, o)` pairs.
    pub fn evaluate(&self, query: &RpqQuery) -> Vec<(Id, Id)> {
        let nfa = Nfa::from_regex(&query.expr);
        let mut pairs = Vec::new();
        match (query.subject, query.object) {
            (Term::Const(s), _) => self.bfs_from_source(s, &nfa, query.object, &mut pairs),
            (Term::Var, _) => {
                for s in 0..self.n_nodes as Id {
                    if self.exists[s as usize] {
                        self.bfs_from_source(s, &nfa, query.object, &mut pairs);
                    }
                }
            }
        }
        pairs.sort_unstable();
        pairs.dedup();
        pairs
    }

    /// BFS over the product graph from `(s, initial)`.
    fn bfs_from_source(&self, s: Id, nfa: &Nfa, object: Term, pairs: &mut Vec<(Id, Id)>) {
        if s as usize >= self.n_nodes || !self.exists[s as usize] {
            return;
        }
        let n_states = nfa.n_states;
        let mut visited = vec![false; self.n_nodes * n_states];
        let mut queue = std::collections::VecDeque::new();
        visited[s as usize * n_states + nfa.initial] = true;
        queue.push_back((s, nfa.initial));
        while let Some((v, q)) = queue.pop_front() {
            if nfa.accepting[q] {
                match object {
                    Term::Const(o) if o != v => {}
                    _ => pairs.push((s, v)),
                }
            }
            for &(ref lit, q2) in &nfa.transitions[q] {
                for &(p, w) in &self.adj[v as usize] {
                    if lit.matches(p) && !visited[w as usize * n_states + q2] {
                        visited[w as usize * n_states + q2] = true;
                        queue.push_back((w, q2));
                    }
                }
            }
        }
    }
}

/// One-call convenience wrapper.
pub fn evaluate_naive(base: &Graph, query: &RpqQuery) -> Vec<(Id, Id)> {
    NaiveOracle::new(base).evaluate(query)
}

#[cfg(test)]
mod tests {
    use super::*;
    use automata::Regex;
    use ring::Triple;

    fn chain() -> Graph {
        // 0 -a-> 1 -a-> 2 -b-> 3
        Graph::from_triples(vec![
            Triple::new(0, 0, 1),
            Triple::new(1, 0, 2),
            Triple::new(2, 1, 3),
        ])
    }

    #[test]
    fn star_concat() {
        let g = chain();
        // a*/b from variable to variable (labels over Σ↔: a=0, b=1).
        let e = Regex::concat(Regex::Star(Box::new(Regex::label(0))), Regex::label(1));
        let got = evaluate_naive(&g, &RpqQuery::new(Term::Var, e, Term::Var));
        assert_eq!(got, vec![(0, 3), (1, 3), (2, 3)]);
    }

    #[test]
    fn inverse_label() {
        let g = chain();
        // ^a (= label 2 after completion with |P| = 2): from 1 we reach 0.
        let e = Regex::label(2);
        let got = evaluate_naive(&g, &RpqQuery::new(Term::Const(1), e, Term::Var));
        assert_eq!(got, vec![(1, 0)]);
    }

    #[test]
    fn nullable_includes_self() {
        let g = chain();
        let e = Regex::Star(Box::new(Regex::label(0)));
        let got = evaluate_naive(&g, &RpqQuery::new(Term::Var, e, Term::Var));
        assert!(got.contains(&(3, 3))); // zero-length path on an existing node
        assert!(got.contains(&(0, 2)));
        assert!(!got.contains(&(2, 3)));
    }

    #[test]
    fn const_const() {
        let g = chain();
        let e = Regex::Plus(Box::new(Regex::label(0)));
        let hit = evaluate_naive(
            &g,
            &RpqQuery::new(Term::Const(0), e.clone(), Term::Const(2)),
        );
        assert_eq!(hit, vec![(0, 2)]);
        let miss = evaluate_naive(&g, &RpqQuery::new(Term::Const(0), e, Term::Const(3)));
        assert!(miss.is_empty());
    }
}
