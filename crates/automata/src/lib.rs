#![warn(missing_docs)]

//! Regular expressions over graph edge labels, and their automata.
//!
//! This crate implements §3.3 of the paper (Arroyuelo et al.,
//! arXiv:2111.04556) plus the classical machinery needed by the fallback
//! route, the baseline engines and the test oracles. There is one
//! automaton path — parse → Glushkov → bit-parallel tables — and the query
//! engine simulates those tables directly; nothing is determinized.
//!
//! * [`ast`]: the regular-expression AST over integer edge labels, with
//!   two-way (inverse) literals, label classes and negated label classes
//!   (SPARQL negated property sets), and expression reversal (§3.1, §4.4).
//! * [`parser`]: a SPARQL-property-path-flavoured concrete syntax
//!   (`a/b*`, `(a|^b)+`, `!(a|b)`, `<urls>` …).
//! * [`glushkov`]: Glushkov's position automaton \[22, 6\] via
//!   nullable/first/last/follow.
//! * [`bitparallel`]: the bit-parallel simulation of Navarro & Raffinot
//!   \[42\]: word `D` of active states, table `B` of label-target masks,
//!   forward table `T` and reverse table `T'`, both split vertically into
//!   `d`-bit subtables to avoid the `O(2^m)` blow-up (§3.3).
//! * [`thompson`]: Thompson's construction with ε-removal — the NFA of
//!   the engine's fallback route (expressions past the 63-position word),
//!   of `explain`, of the classical product-graph baselines and of the
//!   naive oracle.
//! * [`derivative`]: a Brzozowski-derivative matcher, a second independent
//!   oracle for the property tests.

pub mod ast;
pub mod bitparallel;
pub mod derivative;
pub mod glushkov;
pub mod parser;
pub mod thompson;

pub use ast::{Lit, Regex};
pub use bitparallel::BitParallel;
pub use glushkov::Glushkov;
pub use parser::{parse, ParseError};
pub use thompson::Nfa;

/// An edge label: an id into the *completed* alphabet `Σ↔` (original
/// predicates followed by their inverses, as laid out by the ring's
/// dictionary).
pub type Label = u64;

/// Errors from automaton construction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AutomatonError {
    /// The expression has more literal occurrences than fit in a machine
    /// word (bit 0 is the initial state, so at most 63 positions). The
    /// paper's Wikidata log never exceeds 16 (§5).
    TooManyPositions(usize),
    /// A label class `()` or `!()` without members.
    EmptyClass,
}

impl std::fmt::Display for AutomatonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AutomatonError::TooManyPositions(m) => write!(
                f,
                "regular expression has {m} literal occurrences; at most 63 are supported"
            ),
            AutomatonError::EmptyClass => write!(f, "empty label class"),
        }
    }
}

impl std::error::Error for AutomatonError {}
