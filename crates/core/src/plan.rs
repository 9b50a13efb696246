//! Prepared queries: compile the automaton machinery of a path expression
//! once, evaluate it many times.
//!
//! Compiling a 2RPQ means fusing label classes, building the Glushkov
//! position automaton for the expression *and* for its reversal `Ê`
//! (§4.4 needs both directions), and materializing the split bit-parallel
//! transition tables (§3.3) over the narrowest state mask that holds the
//! expression's positions. None of that depends on the query's
//! endpoints, so a serving layer can key compiled plans by the
//! *normalized pattern* — [`PreparedQuery::cache_key`] — and share one
//! [`PreparedQuery`] across any number of concurrent workers: the type is
//! immutable after construction (`Send + Sync`), and
//! [`RpqEngine::evaluate_prepared`](crate::RpqEngine::evaluate_prepared)
//! only reads it.

use automata::{AutomatonError, BitParallel, Glushkov, Label, Regex, StateMask, MAX_POSITIONS};

use crate::fastpath::{self, Shape};
use crate::QueryError;

/// Which evaluation route the planner chose — the label a serving layer
/// uses for per-route latency accounting. The choice itself is made by
/// [`crate::planner::plan`] from the query, its endpoints and the
/// ring's selectivity statistics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EvalRoute {
    /// A §5 fast-path shape (single label, disjunction, two-step
    /// concatenation) evaluated with plain backward search.
    FastPath,
    /// The general §4 bit-parallel product-graph traversal.
    BitParallel,
    /// Rare-label splitting (§2/§6): enumerate the edges of a rare
    /// mandatory label and complete the prefix/suffix from each edge's
    /// endpoints. Variable-to-variable queries only.
    Split,
}

impl EvalRoute {
    /// Every route, in metrics-index order (see [`Self::index`]).
    pub const ALL: [EvalRoute; 3] = [
        EvalRoute::FastPath,
        EvalRoute::BitParallel,
        EvalRoute::Split,
    ];

    /// Stable lowercase name (used as a metrics key).
    pub fn name(self) -> &'static str {
        match self {
            EvalRoute::FastPath => "fastpath",
            EvalRoute::BitParallel => "bitparallel",
            EvalRoute::Split => "split",
        }
    }

    /// Dense index into per-route tables (`ALL[route.index()] == route`).
    pub fn index(self) -> usize {
        self as usize
    }
}

/// Both directions' bit-parallel tables, `[E, Ê]`, over the narrowest
/// state mask that holds the expression: one word up to 63 positions,
/// two up to 127, four up to [`MAX_POSITIONS`] (§3.3's `⌈(m+1)/w⌉`).
#[derive(Clone, Debug)]
pub(crate) enum Tables {
    One([BitParallel<u64>; 2]),
    Two([BitParallel<[u64; 2]>; 2]),
    Four([BitParallel<[u64; 4]>; 2]),
}

/// Runs `$body` with `$t` bound to the `[E, Ê]` tables of whichever width
/// `$tables` holds: the one place the width is matched on.
macro_rules! with_tables {
    ($tables:expr, $t:ident => $body:expr) => {
        match $tables {
            $crate::plan::Tables::One($t) => $body,
            $crate::plan::Tables::Two($t) => $body,
            $crate::plan::Tables::Four($t) => $body,
        }
    };
}
pub(crate) use with_tables;

impl Tables {
    /// Builds both directions' tables over the narrowest masks that hold
    /// the `m` positions of `fused`: one Glushkov construction, `Ê`'s
    /// automaton derived from it ([`Glushkov::reversed`]). (Not generic,
    /// so that it is compiled once, not once per caller's label
    /// involution.)
    fn new(
        m: usize,
        fused: &Regex,
        inv: &dyn Fn(Label) -> Label,
        d: usize,
    ) -> Result<Self, AutomatonError> {
        fn build<M: StateMask>(
            fused: &Regex,
            inv: &dyn Fn(Label) -> Label,
            d: usize,
        ) -> Result<[BitParallel<M>; 2], AutomatonError> {
            let g = Glushkov::new(fused)?;
            let rev = g.reversed(&inv);
            Ok([g, rev].map(|g| BitParallel::with_split_width(&g, d)))
        }
        Ok(if m <= u64::POSITIONS {
            Tables::One(build(fused, inv, d)?)
        } else if m <= <[u64; 2]>::POSITIONS {
            Tables::Two(build(fused, inv, d)?)
        } else {
            Tables::Four(build(fused, inv, d)?)
        })
    }

    /// The sum of `cost` over what the first backward step of `E` (of `Ê`
    /// when `reversed`) can fire: `cost(Some(p))` for every label `p`
    /// whose `B[p]` meets the accepting states, `cost(None)` for every
    /// negated-class position among them (it fires on any label).
    pub(crate) fn first_step_cost(
        &self,
        reversed: bool,
        cost: impl Fn(Option<Label>) -> u64,
    ) -> u64 {
        fn sum<M: StateMask>(bp: &BitParallel<M>, cost: impl Fn(Option<Label>) -> u64) -> u64 {
            let fires = |mask: M| mask.intersects(bp.accept_mask());
            let labels = bp.positive_label_masks().iter().filter(|l| fires(l.1));
            let negated = bp.negated_positions().iter().filter(|n| fires(n.0));
            labels
                .map(|l| cost(Some(l.0)))
                .chain(negated.map(|_| cost(None)))
                .sum()
        }
        with_tables!(self, t => sum(&t[usize::from(reversed)], cost))
    }
}

/// A compiled path expression: everything `evaluate` derives from the
/// regex alone, ready to be shared (it is immutable) and re-anchored at
/// arbitrary endpoints.
#[derive(Clone, Debug)]
pub struct PreparedQuery {
    /// The original expression ([`Self::cache_key`] and the split route
    /// work on this form).
    expr: Regex,
    /// The §5 fast-path classification of `expr`.
    shape: Shape,
    /// Bit-parallel tables for the fused expression and its reversal.
    tables: Tables,
    /// The §3.3 vertical split width the tables were built with.
    bp_split_width: usize,
}

impl PreparedQuery {
    /// Compiles `expr`. `inv` is the ring's label involution `p ↔ p̂`
    /// (used to reverse the two-way expression), `bp_split_width` the
    /// §3.3 vertical split `d` of the bit-parallel transition tables
    /// (unrelated to rare-label splitting).
    ///
    /// # Errors
    /// [`AutomatonError::TooManyPositions`] past [`MAX_POSITIONS`]
    /// positions (counted after label classes are fused), and
    /// [`AutomatonError::EmptyClass`].
    pub fn compile(
        expr: &Regex,
        inv: &impl Fn(Label) -> Label,
        bp_split_width: usize,
    ) -> Result<Self, QueryError> {
        Self::compile_owned(expr.clone(), inv, bp_split_width)
    }

    /// [`Self::compile`], keeping `expr` itself rather than a copy: for
    /// a caller that owns the expression and is done with it.
    pub fn compile_owned(
        expr: Regex,
        inv: &impl Fn(Label) -> Label,
        bp_split_width: usize,
    ) -> Result<Self, QueryError> {
        let shape = fastpath::shape_of(&expr);
        // Both traversal directions are compiled eagerly: a plan is
        // shared and re-anchored at arbitrary endpoints, so it cannot
        // know which direction later calls need. `Ê`'s automaton is
        // derived from `E`'s rather than built again, so a one-shot
        // anchored query pays for one unused set of split tables — a few
        // hundred nanoseconds at one word and `d = 8`.
        let fused = expr.fused();
        let m = fused.literal_count();
        if m > MAX_POSITIONS {
            return Err(AutomatonError::TooManyPositions(m).into());
        }
        let tables = Tables::new(m, &fused, inv, bp_split_width)?;
        drop(fused);
        Ok(Self {
            expr,
            shape,
            tables,
            bp_split_width,
        })
    }

    /// The normalized pattern key: the canonical fully-parenthesized
    /// rendering of an id-level expression. Two surface strings that parse
    /// to the same expression (whitespace, redundant parentheses, IRI
    /// prefixes resolved to the same predicate ids) share one key, hence
    /// one cached plan.
    pub fn cache_key(expr: &Regex) -> String {
        expr.to_string()
    }

    /// This plan's own normalized key.
    pub fn key(&self) -> String {
        Self::cache_key(&self.expr)
    }

    /// The original expression.
    pub fn expr(&self) -> &Regex {
        &self.expr
    }

    /// The fast-path classification.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// The §3.3 vertical split width the bit-parallel tables were built
    /// with (evaluation uses the prebuilt tables, not the per-call
    /// option). Unrelated to rare-label splitting.
    pub fn bp_split_width(&self) -> usize {
        self.bp_split_width
    }

    /// Whether the expression accepts the empty word.
    pub fn nullable(&self) -> bool {
        with_tables!(&self.tables, t => t[0].is_nullable())
    }

    /// Both directions' transition tables. The planner reads these for
    /// its cost estimates, the engine traverses with them.
    pub(crate) fn tables(&self) -> &Tables {
        &self.tables
    }

    /// Approximate heap footprint, for cache byte accounting.
    pub fn size_bytes(&self) -> usize {
        // The AST is pointer-heavy; charge a flat word-count estimate per
        // literal occurrence plus the enum spine.
        let ast = 64 + 48 * self.expr.literal_count().max(1);
        let tables: usize =
            with_tables!(&self.tables, t => t.iter().map(BitParallel::size_bytes).sum());
        std::mem::size_of::<Self>() + tables + ast
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use succinct::util::Words;

    /// Machine words in the plan's state masks.
    fn words(p: &PreparedQuery) -> usize {
        with_tables!(p.tables(), t => t[0].accept_mask().words().len())
    }

    fn inv(l: Label) -> Label {
        if l < 8 {
            l + 8
        } else {
            l - 8
        }
    }

    #[test]
    fn routes_and_keys() {
        let single = Regex::label(1);
        let p = PreparedQuery::compile(&single, &inv, 8).unwrap();
        assert_eq!(words(&p), 1);
        assert_eq!(p.key(), "1");
        assert!(!matches!(p.shape(), Shape::Other));

        let star = Regex::Star(Box::new(Regex::label(1)));
        let p = PreparedQuery::compile(&star, &inv, 8).unwrap();
        assert!(matches!(p.shape(), Shape::Other));
        assert!(p.nullable());
        assert!(p.size_bytes() > 0);
    }

    #[test]
    fn route_names_and_indices_are_dense() {
        for (i, r) in EvalRoute::ALL.into_iter().enumerate() {
            assert_eq!(r.index(), i);
        }
        assert_eq!(EvalRoute::Split.name(), "split");
    }

    #[test]
    fn key_normalizes_structure() {
        // a/(b) and (a)/b parse to the same AST; the key is the canonical
        // rendering of that AST, independent of surface parentheses.
        let e1 = Regex::concat(Regex::label(0), Regex::label(1));
        let e2 = Regex::concat(Regex::label(0), Regex::label(1));
        assert_eq!(PreparedQuery::cache_key(&e1), PreparedQuery::cache_key(&e2));
        assert_eq!(PreparedQuery::cache_key(&e1), "(0/1)");
    }

    /// `l0*/l0*/…` with `k` factors: `k` positions.
    fn star_chain(k: usize) -> Regex {
        let star = || Regex::Star(Box::new(Regex::label(0)));
        (1..k).fold(star(), |e, _| Regex::concat(e, star()))
    }

    /// The width is the fewest words that hold the positions after class
    /// fusion, bit 0 being the initial state; past the widest mask the
    /// expression is refused by its position count.
    #[test]
    fn the_mask_width_follows_the_position_count() {
        for (k, w) in [(1, 1), (63, 1), (64, 2), (127, 2), (128, 4), (255, 4)] {
            let p = PreparedQuery::compile(&star_chain(k), &inv, 8).unwrap();
            assert_eq!(words(&p), w, "{k} positions");
            assert!(p.nullable());
        }
        assert_eq!(
            PreparedQuery::compile(&star_chain(256), &inv, 8).unwrap_err(),
            QueryError::Automaton(AutomatonError::TooManyPositions(256))
        );
        // A 300-way alternation of labels fuses into one class: one
        // position, one word.
        let wide = (1..300).fold(Regex::label(0), |e, l| Regex::alt(e, Regex::label(l)));
        assert_eq!(wide.literal_count(), 300);
        let p = PreparedQuery::compile(&wide, &|l| l, 8).unwrap();
        assert_eq!(words(&p), 1);
    }

    /// A plan past one word still builds both directions' tables, at the
    /// same width: there is no table-less regime.
    #[test]
    fn wide_plans_build_both_tables() {
        let e = (1..70).fold(Regex::label(0), |e, _| Regex::concat(e, Regex::label(0)));
        let p = PreparedQuery::compile(&e, &inv, 8).unwrap();
        assert_eq!(words(&p), 2);
        assert!(!p.nullable());
        with_tables!(p.tables(), t => {
            assert_eq!(t[0].accept_mask().words().len(), 2);
            assert_eq!(t[1].accept_mask().words().len(), 2);
        });
    }
}
