//! The regular-expression AST over integer edge labels.
//!
//! Expressions follow §3.1 of the paper: `ε`, literals, concatenation
//! (`E1/E2`), disjunction (`E1|E2`), Kleene closure (`E*`), with `E+` and
//! `E?` kept as first-class nodes (they change the Glushkov position count:
//! `E+ = E*/E` would duplicate positions). Literals may be label *classes*
//! (`(a|b)` fused to one NFA position) or *negated classes* (`!(a|b)`,
//! SPARQL negated property sets); §6 of the paper points out that Glushkov
//! automata handle both without growing the NFA.

use std::borrow::Cow;

use crate::Label;

/// A literal: the label test attached to one Glushkov position.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Lit {
    /// A single edge label.
    Label(Label),
    /// Any of the listed labels (kept sorted and deduplicated).
    Class(Vec<Label>),
    /// Any label **not** in the listed set (kept sorted and deduplicated).
    NegClass(Vec<Label>),
}

impl Lit {
    /// Whether the literal matches edge label `c`.
    pub fn matches(&self, c: Label) -> bool {
        match self {
            Lit::Label(l) => *l == c,
            Lit::Class(ls) => ls.binary_search(&c).is_ok(),
            Lit::NegClass(ls) => ls.binary_search(&c).is_err(),
        }
    }

    /// Maps every label mentioned by the literal through `f` (used to build
    /// the inverse literal `^p` when reversing a two-way expression).
    pub fn map_labels(&self, f: &impl Fn(Label) -> Label) -> Lit {
        let map_sorted = |ls: &[Label]| {
            let mut v: Vec<Label> = ls.iter().map(|&l| f(l)).collect();
            v.sort_unstable();
            v.dedup();
            v
        };
        match self {
            Lit::Label(l) => Lit::Label(f(*l)),
            Lit::Class(ls) => Lit::Class(map_sorted(ls)),
            Lit::NegClass(ls) => Lit::NegClass(map_sorted(ls)),
        }
    }

    /// Labels explicitly mentioned (for negated classes these are the
    /// *excluded* labels).
    pub fn mentioned_labels(&self) -> &[Label] {
        match self {
            Lit::Label(l) => std::slice::from_ref(l),
            Lit::Class(ls) | Lit::NegClass(ls) => ls,
        }
    }
}

/// A regular expression over edge labels.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Regex {
    /// The empty word.
    Epsilon,
    /// One literal occurrence (one Glushkov position).
    Literal(Lit),
    /// `E1/E2`.
    Concat(Box<Regex>, Box<Regex>),
    /// `E1|E2`.
    Alt(Box<Regex>, Box<Regex>),
    /// `E*`.
    Star(Box<Regex>),
    /// `E+` (≡ `E*/E`, but with the positions of `E` used once).
    Plus(Box<Regex>),
    /// `E?` (≡ `ε|E`).
    Opt(Box<Regex>),
}

impl Regex {
    /// Convenience constructor for a single-label literal.
    pub fn label(l: Label) -> Regex {
        Regex::Literal(Lit::Label(l))
    }

    /// Convenience constructor for `E1/E2`.
    pub fn concat(a: Regex, b: Regex) -> Regex {
        Regex::Concat(Box::new(a), Box::new(b))
    }

    /// Convenience constructor for `E1|E2`.
    pub fn alt(a: Regex, b: Regex) -> Regex {
        Regex::Alt(Box::new(a), Box::new(b))
    }

    /// Number of literal occurrences (`m`, the Glushkov position count).
    pub fn literal_count(&self) -> usize {
        match self {
            Regex::Epsilon => 0,
            Regex::Literal(_) => 1,
            Regex::Concat(a, b) | Regex::Alt(a, b) => a.literal_count() + b.literal_count(),
            Regex::Star(a) | Regex::Plus(a) | Regex::Opt(a) => a.literal_count(),
        }
    }

    /// Whether `ε ∈ L(E)`.
    pub fn nullable(&self) -> bool {
        match self {
            Regex::Epsilon | Regex::Star(_) | Regex::Opt(_) => true,
            Regex::Literal(_) => false,
            Regex::Concat(a, b) => a.nullable() && b.nullable(),
            Regex::Alt(a, b) => a.nullable() || b.nullable(),
            Regex::Plus(a) => a.nullable(),
        }
    }

    /// All labels explicitly mentioned, sorted and deduplicated.
    pub fn mentioned_labels(&self) -> Vec<Label> {
        fn walk(e: &Regex, out: &mut Vec<Label>) {
            match e {
                Regex::Epsilon => {}
                Regex::Literal(l) => out.extend_from_slice(l.mentioned_labels()),
                Regex::Concat(a, b) | Regex::Alt(a, b) => {
                    walk(a, out);
                    walk(b, out);
                }
                Regex::Star(a) | Regex::Plus(a) | Regex::Opt(a) => walk(a, out),
            }
        }
        let mut v = Vec::new();
        walk(self, &mut v);
        v.sort_unstable();
        v.dedup();
        v
    }

    /// The reversal `Ê` of a two-way expression (§4.4): concatenations flip
    /// order and every literal is mapped through `inv` (the ring's
    /// label-inversion function `p ↔ p̂`). `rev(rev(E)) = E` whenever `inv`
    /// is an involution.
    pub fn reversed(&self, inv: &impl Fn(Label) -> Label) -> Regex {
        match self {
            Regex::Epsilon => Regex::Epsilon,
            Regex::Literal(l) => Regex::Literal(l.map_labels(inv)),
            Regex::Concat(a, b) => {
                Regex::Concat(Box::new(b.reversed(inv)), Box::new(a.reversed(inv)))
            }
            Regex::Alt(a, b) => Regex::Alt(Box::new(a.reversed(inv)), Box::new(b.reversed(inv))),
            Regex::Star(a) => Regex::Star(Box::new(a.reversed(inv))),
            Regex::Plus(a) => Regex::Plus(Box::new(a.reversed(inv))),
            Regex::Opt(a) => Regex::Opt(Box::new(a.reversed(inv))),
        }
    }

    /// [`Self::fuse_classes`], borrowing `self` when no alternation fuses
    /// (none has two positive literals for its sides), so that nothing
    /// is rebuilt.
    pub fn fused(&self) -> Cow<'_, Regex> {
        fn fuses(e: &Regex) -> bool {
            match e {
                Regex::Epsilon | Regex::Literal(_) => false,
                Regex::Alt(a, b) if positive(a) && positive(b) => true,
                Regex::Concat(a, b) | Regex::Alt(a, b) => fuses(a) || fuses(b),
                Regex::Star(a) | Regex::Plus(a) | Regex::Opt(a) => fuses(a),
            }
        }
        fn positive(e: &Regex) -> bool {
            matches!(e, Regex::Literal(Lit::Label(_) | Lit::Class(_)))
        }
        if fuses(self) {
            Cow::Owned(self.fuse_classes())
        } else {
            Cow::Borrowed(self)
        }
    }

    /// Fuses alternations of plain literals into label classes, shrinking
    /// the Glushkov automaton: `(a|b|c)` becomes a single position instead
    /// of three. This is the class-literal optimization §6 highlights.
    pub fn fuse_classes(&self) -> Regex {
        match self {
            Regex::Alt(a, b) => {
                let fa = a.fuse_classes();
                let fb = b.fuse_classes();
                match (&fa, &fb) {
                    (Regex::Literal(la), Regex::Literal(lb)) => {
                        if let (Some(mut va), Some(vb)) = (positive_labels(la), positive_labels(lb))
                        {
                            va.extend(vb);
                            va.sort_unstable();
                            va.dedup();
                            return if va.len() == 1 {
                                Regex::Literal(Lit::Label(va[0]))
                            } else {
                                Regex::Literal(Lit::Class(va))
                            };
                        }
                        Regex::alt(fa, fb)
                    }
                    _ => Regex::alt(fa, fb),
                }
            }
            Regex::Concat(..) => {
                // A chain `e1/e2/…/en` parses left-nested, as deep as it
                // is long: its spine is walked in a loop, not recursed.
                let (mut head, mut factors) = (self, Vec::new());
                while let Regex::Concat(a, b) = head {
                    factors.push(b);
                    head = a;
                }
                let fused = factors.iter().rev().map(|b| b.fuse_classes());
                fused.fold(head.fuse_classes(), Regex::concat)
            }
            Regex::Star(a) => Regex::Star(Box::new(a.fuse_classes())),
            Regex::Plus(a) => Regex::Plus(Box::new(a.fuse_classes())),
            Regex::Opt(a) => Regex::Opt(Box::new(a.fuse_classes())),
            Regex::Epsilon | Regex::Literal(_) => self.clone(),
        }
    }
}

fn positive_labels(l: &Lit) -> Option<Vec<Label>> {
    match l {
        Lit::Label(x) => Some(vec![*x]),
        Lit::Class(xs) => Some(xs.clone()),
        Lit::NegClass(_) => None,
    }
}

impl std::fmt::Display for Regex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        fn lit(l: &Lit, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            match l {
                Lit::Label(x) => write!(f, "{x}"),
                Lit::Class(xs) => {
                    write!(f, "(")?;
                    for (i, x) in xs.iter().enumerate() {
                        if i > 0 {
                            write!(f, "|")?;
                        }
                        write!(f, "{x}")?;
                    }
                    write!(f, ")")
                }
                Lit::NegClass(xs) => {
                    write!(f, "!(")?;
                    for (i, x) in xs.iter().enumerate() {
                        if i > 0 {
                            write!(f, "|")?;
                        }
                        write!(f, "{x}")?;
                    }
                    write!(f, ")")
                }
            }
        }
        match self {
            Regex::Epsilon => write!(f, "ε"),
            Regex::Literal(l) => lit(l, f),
            Regex::Concat(a, b) => write!(f, "({a}/{b})"),
            Regex::Alt(a, b) => write!(f, "({a}|{b})"),
            Regex::Star(a) => write!(f, "{a}*"),
            Regex::Plus(a) => write!(f, "{a}+"),
            Regex::Opt(a) => write!(f, "{a}?"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inv2(np: Label) -> impl Fn(Label) -> Label {
        move |l| if l < np { l + np } else { l - np }
    }

    #[test]
    fn lit_matches() {
        assert!(Lit::Label(3).matches(3));
        assert!(!Lit::Label(3).matches(4));
        assert!(Lit::Class(vec![1, 3, 5]).matches(3));
        assert!(!Lit::Class(vec![1, 3, 5]).matches(2));
        assert!(Lit::NegClass(vec![1, 3]).matches(2));
        assert!(!Lit::NegClass(vec![1, 3]).matches(3));
    }

    #[test]
    fn literal_count_and_nullable() {
        // (a|b)*/c? has 3 literal positions and is nullable.
        let e = Regex::concat(
            Regex::Star(Box::new(Regex::alt(Regex::label(0), Regex::label(1)))),
            Regex::Opt(Box::new(Regex::label(2))),
        );
        assert_eq!(e.literal_count(), 3);
        assert!(e.nullable());
        // a/b* is not nullable.
        let e2 = Regex::concat(Regex::label(0), Regex::Star(Box::new(Regex::label(1))));
        assert!(!e2.nullable());
    }

    #[test]
    fn reversal_is_involution() {
        let inv = inv2(10);
        let e = Regex::concat(
            Regex::label(1),
            Regex::Plus(Box::new(Regex::alt(Regex::label(2), Regex::label(13)))),
        );
        let r = e.reversed(&inv);
        // rev(a / (b|^d)+) = (^b|d)+ / ^a
        assert_eq!(
            r,
            Regex::concat(
                Regex::Plus(Box::new(Regex::alt(Regex::label(12), Regex::label(3)))),
                Regex::label(11),
            )
        );
        assert_eq!(r.reversed(&inv), e);
    }

    #[test]
    fn fuse_classes_merges_unions() {
        let e = Regex::alt(
            Regex::label(1),
            Regex::alt(Regex::label(2), Regex::label(5)),
        );
        let fused = e.fuse_classes();
        assert_eq!(fused, Regex::Literal(Lit::Class(vec![1, 2, 5])));
        assert_eq!(fused.literal_count(), 1);
        // Negated classes are not fused.
        let e2 = Regex::alt(Regex::label(1), Regex::Literal(Lit::NegClass(vec![2])));
        assert_eq!(e2.fuse_classes().literal_count(), 2);
    }

    #[test]
    fn mentioned_labels_sorted_unique() {
        let e = Regex::concat(
            Regex::alt(Regex::label(5), Regex::label(2)),
            Regex::alt(Regex::label(5), Regex::Literal(Lit::NegClass(vec![9, 2]))),
        );
        assert_eq!(e.mentioned_labels(), vec![2, 5, 9]);
    }

    #[test]
    fn display_roundtrips_shape() {
        let e = Regex::concat(
            Regex::label(1),
            Regex::Star(Box::new(Regex::alt(Regex::label(2), Regex::label(3)))),
        );
        assert_eq!(format!("{e}"), "(1/(2|3)*)");
    }
}
