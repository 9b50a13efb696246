//! A SPARQL-property-path-flavoured concrete syntax for regular path
//! expressions.
//!
//! Grammar (whitespace is insignificant):
//!
//! ```text
//! alt     := concat ('|' concat)*
//! concat  := postfix ('/' postfix)*
//! postfix := atom ('*' | '+' | '?')*
//! atom    := '(' alt ')'            grouping
//!          | '^' atom               inverse path (reversal over Σ↔, §3.1)
//!          | '!' '(' lbl+ ')'       negated label class  (also '!' lbl)
//!          | lbl                    edge label
//! lbl     := '^'? name              name resolved by the LabelResolver
//! name    := '<' … '>'              bracketed IRI, or
//!          | run of chars not in "/|*+?()!^ \t\r\n"
//! ```
//!
//! Unlike SPARQL's direction-split negated property sets, `!(a|^b)` here
//! denotes the complement over the *completed* alphabet `Σ↔`: any label of
//! any direction other than `a` and `b̂`. This matches the paper's framing
//! of 2RPQs as plain RPQs over `Σ↔` (§3.1).
//!
//! Two refusals keep one hostile line from taking a process down. An
//! expression whose tree, or whose nesting of groups and `^`, is deeper
//! than [`MAX_DEPTH`] is refused before any recursive pass walks it. A
//! bounded repetition `{n,m}` whose copies would pass [`MAX_POSITIONS`]
//! positions is refused before any copy is made.

use crate::ast::{Lit, Regex};
use crate::{Label, MAX_POSITIONS};

/// The deepest expression the parser accepts, in tree levels and in
/// nested groups or inverses. Every pass over a [`Regex`] — reversal,
/// class fusion, the Glushkov construction, `Display`, `Drop`, the
/// parser itself — recurses once per level, and at this depth each one
/// fits a 2 MiB thread stack (the `std::thread` default): measured on
/// x86-64, the deepest accepted line needs under 512 KiB in a release
/// build and under 1.25 MiB in an unoptimised one. A chain of
/// [`MAX_POSITIONS`] factors stays below it.
pub const MAX_DEPTH: usize = 300;

/// Resolves label names to ids of the completed alphabet and provides the
/// inversion involution `p ↔ p̂`.
pub trait LabelResolver {
    /// The id of `name`, or `None` if unknown.
    fn resolve(&self, name: &str) -> Option<Label>;
    /// The inverse label `p̂` (an involution).
    fn inverse(&self, label: Label) -> Label;
}

/// A resolver for label names that are decimal ids in `[0, n_base)`, with
/// inverses in `[n_base, 2·n_base)` — the ring's completed-alphabet layout.
#[derive(Clone, Copy, Debug)]
pub struct NumericResolver {
    /// Number of base (non-inverse) labels.
    pub n_base: Label,
}

impl LabelResolver for NumericResolver {
    fn resolve(&self, name: &str) -> Option<Label> {
        let id: Label = name.parse().ok()?;
        (id < 2 * self.n_base).then_some(id)
    }

    fn inverse(&self, label: Label) -> Label {
        if label < self.n_base {
            label + self.n_base
        } else {
            label - self.n_base
        }
    }
}

/// A parse failure, with the byte offset where it occurred.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset into the input.
    pub pos: usize,
    /// Human-readable description.
    pub msg: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "parse error at offset {}: {}", self.pos, self.msg)
    }
}

impl std::error::Error for ParseError {}

/// Parses `input` into a [`Regex`], resolving label names with `resolver`.
///
/// ```
/// use automata::parser::{parse, NumericResolver};
///
/// let r = NumericResolver { n_base: 10 };
/// let e = parse("(1|2)+/^3/4{2,3}", &r).unwrap();
/// assert_eq!(e.literal_count(), 2 + 1 + 3); // alt + inverse + desugared bound
/// assert!(parse("1/(", &r).is_err());
/// ```
pub fn parse(input: &str, resolver: &impl LabelResolver) -> Result<Regex, ParseError> {
    let mut p = Parser {
        chars: input.char_indices().collect(),
        pos: 0,
        nesting: 0,
        resolver,
    };
    let e = p.alt()?;
    p.skip_ws();
    if p.pos < p.chars.len() {
        return Err(p.err("trailing input"));
    }
    Ok(e.e)
}

struct Parser<'a, R> {
    chars: Vec<(usize, char)>,
    pos: usize,
    /// Groups and inverses open at `pos`: the parser's own recursion.
    nesting: usize,
    resolver: &'a R,
}

/// A parsed subexpression and the two sizes the parser bounds.
struct Sub {
    e: Regex,
    /// Tree levels from `e` down to its deepest leaf.
    depth: usize,
    /// A lower bound of its position count once label classes are fused
    /// (`Regex::fuse_classes`): a literal counts 1, a concatenation the
    /// sum of its parts, an alternation its larger side (the sides may
    /// fuse into one class), a closure its operand.
    positions: usize,
}

impl Sub {
    fn leaf(e: Regex) -> Sub {
        let positions = usize::from(matches!(e, Regex::Literal(_)));
        Sub {
            e,
            depth: 1,
            positions,
        }
    }
}

const RESERVED: &str = "/|*+?()!^{}";

impl<R: LabelResolver> Parser<'_, R> {
    fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError {
            pos: self.chars.get(self.pos).map_or_else(
                || self.chars.last().map_or(0, |&(i, c)| i + c.len_utf8()),
                |&(i, _)| i,
            ),
            msg: msg.into(),
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(c) if c.is_whitespace()) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).map(|&(_, c)| c)
    }

    fn eat(&mut self, c: char) -> bool {
        self.skip_ws();
        if self.peek() == Some(c) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, c: char) -> Result<(), ParseError> {
        if self.eat(c) {
            Ok(())
        } else {
            Err(self.err(format!("expected '{c}'")))
        }
    }

    /// Refuses an expression (or a nesting) `depth` levels deep past
    /// [`MAX_DEPTH`].
    fn check_depth(&self, depth: usize) -> Result<(), ParseError> {
        if depth > MAX_DEPTH {
            return Err(self.err(format!("expression nests deeper than {MAX_DEPTH} levels")));
        }
        Ok(())
    }

    /// `e` as a subexpression `depth` levels deep.
    fn sub(&self, e: Regex, depth: usize, positions: usize) -> Result<Sub, ParseError> {
        self.check_depth(depth)?;
        Ok(Sub {
            e,
            depth,
            positions,
        })
    }

    fn alt(&mut self) -> Result<Sub, ParseError> {
        let mut a = self.concat()?;
        while self.eat('|') {
            let b = self.concat()?;
            let depth = a.depth.max(b.depth) + 1;
            a = self.sub(Regex::alt(a.e, b.e), depth, a.positions.max(b.positions))?;
        }
        Ok(a)
    }

    fn concat(&mut self) -> Result<Sub, ParseError> {
        let mut a = self.postfix()?;
        while self.eat('/') {
            let b = self.postfix()?;
            let depth = a.depth.max(b.depth) + 1;
            a = self.sub(Regex::concat(a.e, b.e), depth, a.positions + b.positions)?;
        }
        Ok(a)
    }

    fn postfix(&mut self) -> Result<Sub, ParseError> {
        let mut a = self.atom()?;
        loop {
            self.skip_ws();
            let closure: fn(Box<Regex>) -> Regex = match self.peek() {
                Some('*') => Regex::Star,
                Some('+') => Regex::Plus,
                Some('?') => Regex::Opt,
                Some('{') => {
                    self.pos += 1;
                    a = self.bounded_repeat(a)?;
                    continue;
                }
                _ => return Ok(a),
            };
            self.pos += 1;
            a = self.sub(closure(Box::new(a.e)), a.depth + 1, a.positions)?;
        }
    }

    /// `{n}`, `{n,}` or `{n,m}` — bounded repetition, desugared to
    /// concatenations: `E{n,m} = E^n / (E?)^(m-n)`, `E{n,} = E^n / E*`.
    /// (SPARQL 1.1 dropped the operator late in standardisation, but
    /// engines and Cypher support it.) The copies multiply `E`'s
    /// positions, so a repetition whose lower bound passes
    /// [`MAX_POSITIONS`] — nested ones grow as the product of their
    /// bounds — is refused here, before any copy is made.
    fn bounded_repeat(&mut self, a: Sub) -> Result<Sub, ParseError> {
        let n = self.number()?;
        let (lo, hi) = if self.eat(',') {
            self.skip_ws();
            if self.peek() == Some('}') {
                (n, None)
            } else {
                (n, Some(self.number()?))
            }
        } else {
            (n, Some(n))
        };
        self.expect('}')?;
        if let Some(hi) = hi {
            if hi < lo {
                return Err(self.err(format!("bad repetition bounds {{{lo},{hi}}}")));
            }
            if hi == 0 {
                return Ok(Sub::leaf(Regex::Epsilon));
            }
        }
        const MAX_REPEAT: u32 = 64;
        if lo > MAX_REPEAT || hi.is_some_and(|h| h > MAX_REPEAT) {
            return Err(self.err(format!("repetition bound exceeds {MAX_REPEAT}")));
        }
        // `E{n,}` makes n + 1 copies (the last one starred).
        let copies = hi.unwrap_or(lo + 1) as usize;
        let positions = a.positions.saturating_mul(copies);
        if positions > MAX_POSITIONS {
            return Err(self.err(format!(
                "repetition makes at least {positions} literal occurrences; \
                 at most {MAX_POSITIONS} are supported"
            )));
        }
        // A chain of `copies` parts, each at most one level over `E`.
        let depth = a.depth + copies;
        self.check_depth(depth)?;
        let e = a.e;
        let mut parts: Vec<Regex> = Vec::new();
        for _ in 0..lo {
            parts.push(e.clone());
        }
        match hi {
            Some(hi) => {
                for _ in lo..hi {
                    parts.push(Regex::Opt(Box::new(e.clone())));
                }
            }
            None => parts.push(Regex::Star(Box::new(e.clone()))),
        }
        let e = parts
            .into_iter()
            .reduce(Regex::concat)
            .unwrap_or(Regex::Epsilon);
        self.sub(e, depth, positions)
    }

    fn number(&mut self) -> Result<u32, ParseError> {
        self.skip_ws();
        let mut digits = String::new();
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            digits.push(self.peek().unwrap());
            self.pos += 1;
        }
        if digits.is_empty() {
            return Err(self.err("expected a number"));
        }
        digits
            .parse()
            .map_err(|_| self.err("repetition bound too large"))
    }

    fn atom(&mut self) -> Result<Sub, ParseError> {
        self.skip_ws();
        match self.peek() {
            // A group or an inverse path: the parser's own recursion,
            // refused past MAX_DEPTH open ones.
            Some(open @ ('(' | '^')) => {
                self.pos += 1;
                self.check_depth(self.nesting + 1)?;
                self.nesting += 1;
                let a = if open == '(' {
                    self.alt()?
                } else {
                    self.atom()?
                };
                self.nesting -= 1;
                if open == '(' {
                    self.expect(')')?;
                    return Ok(a);
                }
                let e = a.e.reversed(&|l| self.resolver.inverse(l));
                Ok(Sub { e, ..a })
            }
            Some('!') => self.negated_class(),
            Some(_) => Ok(Sub::leaf(Regex::label(self.label()?))),
            None => Err(self.err("expected an expression")),
        }
    }

    /// `!lbl` or `!(lbl|…)`: a negated label class, one literal. (Kept
    /// out of `atom`, whose stack frame every nested group pays.)
    fn negated_class(&mut self) -> Result<Sub, ParseError> {
        self.pos += 1;
        let mut excluded = Vec::new();
        if self.eat('(') {
            loop {
                excluded.push(self.label()?);
                if !self.eat('|') {
                    break;
                }
            }
            self.expect(')')?;
        } else {
            excluded.push(self.label()?);
        }
        excluded.sort_unstable();
        excluded.dedup();
        Ok(Sub::leaf(Regex::Literal(Lit::NegClass(excluded))))
    }

    /// A possibly-inverted label name.
    fn label(&mut self) -> Result<Label, ParseError> {
        self.skip_ws();
        let inverted = self.peek() == Some('^') && {
            self.pos += 1;
            true
        };
        let name = self.name()?;
        let id = self
            .resolver
            .resolve(&name)
            .ok_or_else(|| self.err(format!("unknown label '{name}'")))?;
        Ok(if inverted {
            self.resolver.inverse(id)
        } else {
            id
        })
    }

    fn name(&mut self) -> Result<String, ParseError> {
        self.skip_ws();
        if self.peek() == Some('<') {
            let start = self.pos;
            self.pos += 1;
            let mut s = String::from("<");
            loop {
                match self.peek() {
                    Some('>') => {
                        self.pos += 1;
                        s.push('>');
                        return Ok(s);
                    }
                    Some(c) => {
                        self.pos += 1;
                        s.push(c);
                    }
                    None => {
                        self.pos = start;
                        return Err(self.err("unterminated '<…>' label"));
                    }
                }
            }
        }
        let mut s = String::new();
        while let Some(c) = self.peek() {
            if c.is_whitespace() || RESERVED.contains(c) {
                break;
            }
            s.push(c);
            self.pos += 1;
        }
        if s.is_empty() {
            Err(self.err("expected a label name"))
        } else {
            Ok(s)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const R: NumericResolver = NumericResolver { n_base: 100 };

    fn p(s: &str) -> Regex {
        parse(s, &R).unwrap()
    }

    #[test]
    fn literals_and_operators() {
        assert_eq!(p("7"), Regex::label(7));
        assert_eq!(p("1/2"), Regex::concat(Regex::label(1), Regex::label(2)));
        assert_eq!(p("1|2"), Regex::alt(Regex::label(1), Regex::label(2)));
        assert_eq!(p("3*"), Regex::Star(Box::new(Regex::label(3))));
        assert_eq!(p("3+"), Regex::Plus(Box::new(Regex::label(3))));
        assert_eq!(p("3?"), Regex::Opt(Box::new(Regex::label(3))));
    }

    #[test]
    fn precedence_alt_below_concat_below_postfix() {
        // 1|2/3* parses as 1 | (2 / (3*))
        assert_eq!(
            p("1|2/3*"),
            Regex::alt(
                Regex::label(1),
                Regex::concat(Regex::label(2), Regex::Star(Box::new(Regex::label(3)))),
            )
        );
        // (1|2)/3
        assert_eq!(
            p("(1|2)/3"),
            Regex::concat(
                Regex::alt(Regex::label(1), Regex::label(2)),
                Regex::label(3)
            )
        );
    }

    #[test]
    fn inverse_label_and_inverse_path() {
        assert_eq!(p("^5"), Regex::label(105));
        assert_eq!(p("^^5"), Regex::label(5));
        // ^(1/2) = ^2 / ^1
        assert_eq!(
            p("^(1/2)"),
            Regex::concat(Regex::label(102), Regex::label(101))
        );
    }

    #[test]
    fn negated_class() {
        assert_eq!(p("!(3|^4)"), Regex::Literal(Lit::NegClass(vec![3, 104])));
        assert_eq!(p("!9"), Regex::Literal(Lit::NegClass(vec![9])));
    }

    #[test]
    fn whitespace_and_nesting() {
        assert_eq!(p("  ( 1 | 2 ) * / 3 "), p("(1|2)*/3"));
        assert_eq!(p("((((4))))"), Regex::label(4));
    }

    #[test]
    fn paper_examples_parse() {
        // (l1|l2|l5)+ with l1=1, l2=2, l5=3.
        let e = p("(1|2|3)+");
        assert_eq!(e.literal_count(), 3);
        assert_eq!(e.fuse_classes().literal_count(), 1);
        // a*/b/c* (the "rare labels" example of §2).
        let e = p("1*/2/3*");
        assert_eq!(e.literal_count(), 3);
        assert!(!e.nullable());
    }

    #[test]
    fn bracketed_iri_names() {
        struct Iri;
        impl LabelResolver for Iri {
            fn resolve(&self, name: &str) -> Option<Label> {
                (name == "<http://example.org/knows>").then_some(7)
            }
            fn inverse(&self, l: Label) -> Label {
                l + 1000
            }
        }
        assert_eq!(
            parse("<http://example.org/knows>+", &Iri).unwrap(),
            Regex::Plus(Box::new(Regex::label(7)))
        );
    }

    #[test]
    fn bounded_repetition_desugars() {
        use crate::derivative::matches;
        // 1{2} == 1/1
        assert_eq!(p("1{2}"), Regex::concat(Regex::label(1), Regex::label(1)));
        // 1{0} and 1{0,0} are epsilon.
        assert_eq!(p("1{0}"), Regex::Epsilon);
        // Semantics of {1,3}: between one and three 1s.
        let e = p("1{1,3}");
        assert!(!matches(&e, &[]));
        assert!(matches(&e, &[1]));
        assert!(matches(&e, &[1, 1]));
        assert!(matches(&e, &[1, 1, 1]));
        assert!(!matches(&e, &[1, 1, 1, 1]));
        // {2,} is unbounded above.
        let e = p("1{2,}");
        assert!(!matches(&e, &[1]));
        assert!(matches(&e, &[1, 1]));
        assert!(matches(&e, &[1; 7]));
        // Applies to groups.
        let e = p("(1|2){0,2}");
        assert!(matches(&e, &[]));
        assert!(matches(&e, &[1, 2]));
        assert!(!matches(&e, &[1, 2, 1]));
        // Errors.
        assert!(parse("1{3,2}", &R).is_err());
        assert!(parse("1{", &R).is_err());
        assert!(parse("1{a}", &R).is_err());
        assert!(parse("1{999}", &R).is_err());
    }

    #[test]
    fn errors_carry_position() {
        let e = parse("1/", &R).unwrap_err();
        assert_eq!(e.pos, 2);
        let e = parse("1 2", &R).unwrap_err();
        assert!(e.msg.contains("trailing"));
        let e = parse("(1|2", &R).unwrap_err();
        assert!(e.msg.contains("')'"));
        let e = parse("999", &R).unwrap_err();
        assert!(e.msg.contains("unknown label"));
        assert!(parse("", &R).is_err());
    }
}
