//! Thompson's construction with ε-removal.
//!
//! This is the "classical algorithm" the paper contrasts Glushkov's
//! construction with (§3.2): the traditional product-graph baselines run on
//! this NFA, and the property tests use it as an independent oracle for the
//! bit-parallel simulation.

use crate::ast::{Lit, Regex};
use crate::Label;

/// An ε-free NFA with literal-labeled transitions.
#[derive(Clone, Debug)]
pub struct Nfa {
    /// Number of states; states are `0..n_states`.
    pub n_states: usize,
    /// The initial state.
    pub initial: usize,
    /// `accepting[q]` iff `q` is accepting.
    pub accepting: Vec<bool>,
    /// `transitions[q]` = outgoing `(literal, target)` edges of `q`.
    pub transitions: Vec<Vec<(Lit, usize)>>,
}

/// Thompson fragment during construction (over the ε-NFA).
struct Frag {
    start: usize,
    end: usize,
}

#[derive(Default)]
struct EpsNfa {
    /// `eps[q]` = ε-successors of `q`.
    eps: Vec<Vec<usize>>,
    /// `sym[q]` = literal-labeled successors of `q`.
    sym: Vec<Vec<(Lit, usize)>>,
}

impl EpsNfa {
    fn add_state(&mut self) -> usize {
        self.eps.push(Vec::new());
        self.sym.push(Vec::new());
        self.eps.len() - 1
    }

    fn build(&mut self, e: &Regex) -> Frag {
        match e {
            Regex::Epsilon => {
                let s = self.add_state();
                let t = self.add_state();
                self.eps[s].push(t);
                Frag { start: s, end: t }
            }
            Regex::Literal(l) => {
                let s = self.add_state();
                let t = self.add_state();
                self.sym[s].push((l.clone(), t));
                Frag { start: s, end: t }
            }
            Regex::Concat(a, b) => {
                let fa = self.build(a);
                let fb = self.build(b);
                self.eps[fa.end].push(fb.start);
                Frag {
                    start: fa.start,
                    end: fb.end,
                }
            }
            Regex::Alt(a, b) => {
                let s = self.add_state();
                let t = self.add_state();
                let fa = self.build(a);
                let fb = self.build(b);
                self.eps[s].push(fa.start);
                self.eps[s].push(fb.start);
                self.eps[fa.end].push(t);
                self.eps[fb.end].push(t);
                Frag { start: s, end: t }
            }
            Regex::Star(a) => {
                let s = self.add_state();
                let t = self.add_state();
                let fa = self.build(a);
                self.eps[s].push(fa.start);
                self.eps[s].push(t);
                self.eps[fa.end].push(fa.start);
                self.eps[fa.end].push(t);
                Frag { start: s, end: t }
            }
            Regex::Plus(a) => {
                let fa = self.build(a);
                let t = self.add_state();
                self.eps[fa.end].push(fa.start);
                self.eps[fa.end].push(t);
                Frag {
                    start: fa.start,
                    end: t,
                }
            }
            Regex::Opt(a) => {
                let s = self.add_state();
                let t = self.add_state();
                let fa = self.build(a);
                self.eps[s].push(fa.start);
                self.eps[s].push(t);
                self.eps[fa.end].push(t);
                Frag { start: s, end: t }
            }
        }
    }

    /// ε-closure of `q`.
    fn closure(&self, q: usize) -> Vec<usize> {
        let mut seen = vec![false; self.eps.len()];
        let mut stack = vec![q];
        seen[q] = true;
        let mut out = Vec::new();
        while let Some(s) = stack.pop() {
            out.push(s);
            for &t in &self.eps[s] {
                if !seen[t] {
                    seen[t] = true;
                    stack.push(t);
                }
            }
        }
        out
    }
}

impl Nfa {
    /// Builds the ε-free NFA for `expr` via Thompson's construction and
    /// ε-closure elimination.
    pub fn from_regex(expr: &Regex) -> Self {
        let mut eps_nfa = EpsNfa::default();
        let frag = eps_nfa.build(expr);
        let n = eps_nfa.eps.len();
        let mut accepting = vec![false; n];
        let mut transitions: Vec<Vec<(Lit, usize)>> = vec![Vec::new(); n];
        for q in 0..n {
            for c in eps_nfa.closure(q) {
                if c == frag.end {
                    accepting[q] = true;
                }
                for (lit, t) in &eps_nfa.sym[c] {
                    transitions[q].push((lit.clone(), *t));
                }
            }
        }
        Nfa {
            n_states: n,
            initial: frag.start,
            accepting,
            transitions,
        }
    }

    /// Whether the NFA accepts `word` (subset simulation; test oracle).
    pub fn matches(&self, word: &[Label]) -> bool {
        let mut current = vec![self.initial];
        for &c in word {
            let mut next = Vec::new();
            let mut in_next = vec![false; self.n_states];
            for &q in &current {
                for (lit, t) in &self.transitions[q] {
                    if lit.matches(c) && !in_next[*t] {
                        in_next[*t] = true;
                        next.push(*t);
                    }
                }
            }
            if next.is_empty() {
                return false;
            }
            current = next;
        }
        current.iter().any(|&q| self.accepting[q])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse, NumericResolver};

    const R: NumericResolver = NumericResolver { n_base: 50 };

    fn nfa(s: &str) -> Nfa {
        Nfa::from_regex(&parse(s, &R).unwrap())
    }

    #[test]
    fn literal_and_concat() {
        let n = nfa("1/2");
        assert!(n.matches(&[1, 2]));
        assert!(!n.matches(&[1]));
        assert!(!n.matches(&[2, 1]));
        assert!(!n.matches(&[]));
    }

    #[test]
    fn star_plus_opt() {
        let n = nfa("1*");
        assert!(n.matches(&[]));
        assert!(n.matches(&[1, 1, 1]));
        assert!(!n.matches(&[2]));

        let n = nfa("1+");
        assert!(!n.matches(&[]));
        assert!(n.matches(&[1]));
        assert!(n.matches(&[1, 1]));

        let n = nfa("1?");
        assert!(n.matches(&[]));
        assert!(n.matches(&[1]));
        assert!(!n.matches(&[1, 1]));
    }

    #[test]
    fn alternation_and_nesting() {
        let n = nfa("(1|2)/3*");
        assert!(n.matches(&[1]));
        assert!(n.matches(&[2, 3, 3]));
        assert!(!n.matches(&[3]));
        assert!(!n.matches(&[1, 2]));
    }

    #[test]
    fn classes_and_negation() {
        let n = Nfa::from_regex(&parse("(1|2|3)+", &R).unwrap().fuse_classes());
        assert!(n.matches(&[1, 3, 2]));
        assert!(!n.matches(&[4]));

        let n = nfa("!(1|2)");
        assert!(n.matches(&[3]));
        assert!(!n.matches(&[1]));
        assert!(!n.matches(&[2]));
        assert!(!n.matches(&[3, 3]));
    }

    #[test]
    fn epsilon_expression() {
        let n = Nfa::from_regex(&Regex::Epsilon);
        assert!(n.matches(&[]));
        assert!(!n.matches(&[1]));
    }

    use crate::ast::Regex;
}
