//! [`PathEngine`] adapter for the ring engine, so the differential tests
//! treat all four systems uniformly.

use ring::Ring;
use rpq_core::{EngineOptions, QueryError, QueryOutput, RpqEngine, RpqQuery};

use crate::PathEngine;

/// The paper's system, behind the common engine interface.
pub struct RingEngine<'r> {
    engine: RpqEngine<'r>,
}

impl<'r> RingEngine<'r> {
    /// Wraps an engine over `ring`.
    pub fn new(ring: &'r Ring) -> Self {
        Self {
            engine: RpqEngine::new(ring),
        }
    }
}

impl PathEngine for RingEngine<'_> {
    fn name(&self) -> &'static str {
        "ring"
    }

    fn index_bytes(&self) -> usize {
        self.engine.ring().size_bytes()
    }

    fn run(&mut self, query: &RpqQuery, opts: &EngineOptions) -> Result<QueryOutput, QueryError> {
        self.engine.evaluate(query, opts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use automata::Regex;
    use ring::ring::RingOptions;
    use ring::{Graph, Triple};
    use rpq_core::Term;

    #[test]
    fn adapter_roundtrip() {
        let g = Graph::from_triples(vec![Triple::new(0, 0, 1), Triple::new(1, 0, 2)]);
        let ring = Ring::build(&g, RingOptions::default());
        let mut e = RingEngine::new(&ring);
        assert_eq!(e.name(), "ring");
        assert!(e.index_bytes() > 0);
        let q = RpqQuery::new(
            Term::Const(0),
            Regex::Plus(Box::new(Regex::label(0))),
            Term::Var,
        );
        let out = e.run(&q, &EngineOptions::default()).unwrap();
        assert_eq!(out.sorted_pairs(), vec![(0, 1), (0, 2)]);
    }
}
