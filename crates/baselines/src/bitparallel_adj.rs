//! The Blazegraph-stand-in: the same bit-parallel Glushkov frontier
//! simulation the ring engine uses, but running **forward** over the fat
//! adjacency index. Comparing it with the ring isolates the paper's
//! headline trade-off: equal algorithmic machinery, ~3–5× more space, no
//! wavelet-tree range batching.

use automata::{BitParallel, Glushkov, StateMask};
use ring::Id;
use rpq_core::{EngineOptions, QueryError, QueryOutput, RpqQuery, Term};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;
use succinct::util::EpochArray;

use crate::nfa_bfs::reversed_for;
use crate::{AdjacencyIndex, PathEngine};

/// Forward bit-parallel product-graph traversal over [`AdjacencyIndex`].
pub struct BitParallelAdjEngine {
    idx: Arc<AdjacencyIndex>,
    /// Per-node visited state masks, epoch-reset per traversal.
    visited: EpochArray,
    /// Per-node reported flags (a node may hit several accepting states;
    /// set semantics reports it once per run).
    reported: EpochArray,
}

impl BitParallelAdjEngine {
    /// Creates the engine over a shared adjacency index.
    pub fn new(idx: Arc<AdjacencyIndex>) -> Self {
        Self {
            visited: EpochArray::new(idx.n_nodes() as usize),
            reported: EpochArray::new(idx.n_nodes() as usize),
            idx,
        }
    }

    /// Forward run from `start` with `D = initial`; reports nodes whose
    /// fresh states hit accepting.
    fn forward(
        &mut self,
        bp: &BitParallel,
        start: Id,
        deadline: Option<Instant>,
        out: &mut QueryOutput,
        report: &mut impl FnMut(Id, &mut QueryOutput) -> bool,
    ) -> bool {
        let idx = Arc::clone(&self.idx);
        if !idx.node_exists(start) {
            return false;
        }
        self.visited.reset(1);
        self.reported.reset(1);
        let accept = bp.accept_mask();
        let d0 = u64::INITIAL;
        self.visited.set(start as usize, d0);
        if d0 & accept != 0 {
            self.reported.set(start as usize, 1u64);
            if !report(start, out) {
                return true;
            }
        }
        let mut queue: VecDeque<(Id, u64)> = VecDeque::new();
        queue.push_back((start, d0));
        let mut pops: u64 = 0;
        while let Some((v, d)) = queue.pop_front() {
            pops += 1;
            out.stats.bfs_steps += 1;
            if let Some(dl) = deadline {
                if pops.is_multiple_of(512) && Instant::now() >= dl {
                    out.timed_out = true;
                    return true;
                }
            }
            // States reachable in one step from d, by any label (Eq. 1
            // applies the `B[p]` intersection per label run below).
            let t = bp.apply_fwd(d);
            if t == 0 {
                continue;
            }
            let (preds, objs) = idx.out_edges(v);
            let mut i = 0;
            while i < preds.len() {
                let p = preds[i];
                let mut j = i;
                while j < preds.len() && preds[j] == p {
                    j += 1;
                }
                let dn = t & bp.label_mask(p as u64);
                if dn != 0 {
                    out.stats.product_edges += 1;
                    for &w in &objs[i..j] {
                        let w = w as Id;
                        let old: u64 = self.visited.get(w as usize);
                        let fresh = dn & !old;
                        if fresh != 0 {
                            self.visited.set(w as usize, old | dn);
                            out.stats.product_nodes += 1;
                            if fresh & accept != 0 && self.reported.get::<u64>(w as usize) == 0 {
                                self.reported.set(w as usize, 1u64);
                                if !report(w, out) {
                                    return true;
                                }
                            }
                            queue.push_back((w, fresh));
                        }
                    }
                }
                i = j;
            }
        }
        false
    }

    fn eval(&mut self, query: &RpqQuery, opts: &EngineOptions) -> Result<QueryOutput, QueryError> {
        for t in [query.subject, query.object] {
            if let Term::Const(c) = t {
                if c >= self.idx.n_nodes() {
                    return Err(QueryError::NodeOutOfRange(c));
                }
            }
        }
        let deadline = opts.timeout.map(|t| Instant::now() + t);
        let limit = opts.limit;
        let mut out = QueryOutput::default();
        let compile = |e: &automata::Regex, d: usize| -> Result<BitParallel, QueryError> {
            let g = Glushkov::new(e).map_err(QueryError::Automaton)?;
            Ok(BitParallel::with_split_width(&g, d))
        };
        match (query.subject, query.object) {
            (Term::Const(s), Term::Var) => {
                let bp = compile(&query.expr, opts.bp_split_width)?;
                self.forward(&bp, s, deadline, &mut out, &mut |r, out| {
                    out.pairs.push((s, r));
                    out.pairs.len() < limit || {
                        out.truncated = true;
                        false
                    }
                });
            }
            (Term::Var, Term::Const(o)) => {
                let bp = compile(&reversed_for(&self.idx, &query.expr), opts.bp_split_width)?;
                self.forward(&bp, o, deadline, &mut out, &mut |r, out| {
                    out.pairs.push((r, o));
                    out.pairs.len() < limit || {
                        out.truncated = true;
                        false
                    }
                });
            }
            (Term::Const(s), Term::Const(o)) => {
                let bp = compile(&query.expr, opts.bp_split_width)?;
                self.forward(&bp, s, deadline, &mut out, &mut |r, out| {
                    if r == o {
                        out.pairs.push((s, o));
                        return false;
                    }
                    true
                });
            }
            (Term::Var, Term::Var) => {
                let bp = compile(&query.expr, opts.bp_split_width)?;
                for s in 0..self.idx.n_nodes() {
                    if !self.idx.node_exists(s) {
                        continue;
                    }
                    let aborted = self.forward(&bp, s, deadline, &mut out, &mut |r, out| {
                        out.pairs.push((s, r));
                        out.pairs.len() < limit || {
                            out.truncated = true;
                            false
                        }
                    });
                    if aborted && (out.timed_out || out.truncated) {
                        break;
                    }
                }
            }
        }
        out.stats.reported = out.pairs.len() as u64;
        Ok(out)
    }
}

impl PathEngine for BitParallelAdjEngine {
    fn name(&self) -> &'static str {
        "bitparallel-adj"
    }

    fn index_bytes(&self) -> usize {
        self.idx.size_bytes()
    }

    fn run(&mut self, query: &RpqQuery, opts: &EngineOptions) -> Result<QueryOutput, QueryError> {
        self.eval(query, opts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use automata::Regex;
    use ring::{Graph, Triple};

    fn engine() -> BitParallelAdjEngine {
        BitParallelAdjEngine::new(Arc::new(AdjacencyIndex::from_graph(&Graph::from_triples(
            vec![
                Triple::new(0, 0, 1),
                Triple::new(1, 0, 2),
                Triple::new(2, 1, 3),
                Triple::new(3, 0, 0),
            ],
        ))))
    }

    #[test]
    fn forward_concat() {
        let mut e = engine();
        let q = RpqQuery::new(
            Term::Const(0),
            Regex::concat(Regex::Star(Box::new(Regex::label(0))), Regex::label(1)),
            Term::Var,
        );
        let out = e.run(&q, &EngineOptions::default()).unwrap();
        assert_eq!(out.sorted_pairs(), vec![(0, 3)]);
    }

    #[test]
    fn inverse_and_const_object() {
        let mut e = engine();
        // ^a from variable to constant 0: x with 0 -a-> x... i.e. pairs
        // (x, 0) with x -^a-> 0, meaning 0 -a-> x: x = 1.
        let q = RpqQuery::new(Term::Var, Regex::label(2), Term::Const(0));
        let out = e.run(&q, &EngineOptions::default()).unwrap();
        assert_eq!(out.sorted_pairs(), vec![(1, 0)]);
    }

    #[test]
    fn nullable_reports_start() {
        let mut e = engine();
        let q = RpqQuery::new(
            Term::Const(2),
            Regex::Star(Box::new(Regex::label(0))),
            Term::Var,
        );
        let out = e.run(&q, &EngineOptions::default()).unwrap();
        assert!(out.sorted_pairs().contains(&(2, 2)));
    }
}
