//! An in-memory labeled graph: a deduplicated set of triples plus alphabet
//! sizes, with the completion `G↔ = G ∪ Ĝ` of §3.1 and a simple text
//! format for examples and fixtures.

use crate::{Dict, Id, Triple};

/// A directed edge-labeled graph over dense ids.
///
/// Nodes are `0..n_nodes`, predicates `0..n_preds`. The triple list is kept
/// sorted by `(s, p, o)` and deduplicated (RPQ evaluation is under set
/// semantics, §5).
#[derive(Clone, Debug)]
pub struct Graph {
    triples: Vec<Triple>,
    n_nodes: Id,
    n_preds: Id,
}

/// Stable counting sort: lists the items by ascending key, items of one
/// key in the order they arrive. `counts[k]` is the number of items with
/// key `k` — the callers count in a pass they make anyway.
pub(crate) fn scatter<T: Copy + Default>(
    counts: &[u64],
    items: impl Iterator<Item = (Id, T)>,
) -> Vec<T> {
    let mut total = 0usize;
    let mut slot: Vec<usize> = counts
        .iter()
        .map(|&c| {
            let first = total;
            total += c as usize;
            first
        })
        .collect();
    let mut out = vec![T::default(); total];
    let mut placed = 0usize;
    for (key, item) in items {
        let at = &mut slot[key as usize];
        out[*at] = item;
        *at += 1;
        placed += 1;
    }
    assert_eq!(
        placed, total,
        "counting sort: counts do not match the items"
    );
    out
}

/// Merges two strictly increasing runs that share no element.
pub(crate) fn merge_sorted(a: &[Triple], b: &[Triple]) -> Vec<Triple> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if a[i] < b[j] {
            out.push(a[i]);
            i += 1;
        } else {
            out.push(b[j]);
            j += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

impl Graph {
    /// Builds a graph from `triples`; node and predicate universes are
    /// `0..n_nodes` and `0..n_preds`.
    ///
    /// # Panics
    /// Panics if a triple mentions an out-of-range id.
    pub fn new(mut triples: Vec<Triple>, n_nodes: Id, n_preds: Id) -> Self {
        triples.sort_unstable();
        triples.dedup();
        Self::from_sorted(triples, n_nodes, n_preds)
    }

    /// [`Self::new`] for a run that is already strictly increasing in
    /// `(s, p, o)` — a merge of sorted runs — checked here in the one
    /// pass that checks the id ranges.
    ///
    /// # Panics
    /// Panics if a triple mentions an out-of-range id or the run is not
    /// sorted and duplicate-free.
    pub(crate) fn from_sorted(triples: Vec<Triple>, n_nodes: Id, n_preds: Id) -> Self {
        for t in &triples {
            assert!(
                t.s < n_nodes && t.o < n_nodes,
                "triple {t} mentions a node >= {n_nodes}"
            );
            assert!(
                t.p < n_preds,
                "triple {t} mentions a predicate >= {n_preds}"
            );
        }
        assert!(
            triples.windows(2).all(|w| w[0] < w[1]),
            "triples are not in strictly increasing (s, p, o) order"
        );
        Self {
            triples,
            n_nodes,
            n_preds,
        }
    }

    /// Builds a graph sizing the universes from the data.
    pub fn from_triples(triples: Vec<Triple>) -> Self {
        let n_nodes = triples.iter().map(|t| t.s.max(t.o) + 1).max().unwrap_or(0);
        let n_preds = triples.iter().map(|t| t.p + 1).max().unwrap_or(0);
        Self::new(triples, n_nodes, n_preds)
    }

    /// Number of edges.
    pub fn len(&self) -> usize {
        self.triples.len()
    }

    /// Whether the graph has no edges.
    pub fn is_empty(&self) -> bool {
        self.triples.is_empty()
    }

    /// Node universe size.
    pub fn n_nodes(&self) -> Id {
        self.n_nodes
    }

    /// Predicate universe size.
    pub fn n_preds(&self) -> Id {
        self.n_preds
    }

    /// The sorted, deduplicated triples.
    pub fn triples(&self) -> &[Triple] {
        &self.triples
    }

    /// Whether `(s, p, o)` is an edge (binary search).
    pub fn contains(&self, s: Id, p: Id, o: Id) -> bool {
        self.triples.binary_search(&Triple::new(s, p, o)).is_ok()
    }

    /// The completion `G↔`: for every `(s, p, o)` adds `(o, p̂, s)` with
    /// `p̂ = p + n_preds`, doubling the predicate alphabet (§5: "if an edge
    /// is labeled with predicate p, its reverse edge has predicate
    /// p̂ = p + |P|").
    ///
    /// The inverse edges are put into `(o, p, s)` order — their own
    /// `(s, p, o)` order — by two stable counting sorts over the bounded
    /// universes and merged with the edges; the two runs share no triple,
    /// so nothing is compared twice or deduplicated.
    pub fn completed(&self) -> Graph {
        let np = self.n_preds;
        let mut pred_counts = vec![0u64; np as usize];
        let mut obj_counts = vec![0u64; self.n_nodes as usize];
        for t in &self.triples {
            pred_counts[t.p as usize] += 1;
            obj_counts[t.o as usize] += 1;
        }
        let by_pred = scatter(&pred_counts, self.triples.iter().map(|t| (t.p, *t)));
        let inverses = scatter(
            &obj_counts,
            by_pred
                .iter()
                .map(|t| (t.o, Triple::new(t.o, t.p + np, t.s))),
        );
        let all = merge_sorted(&self.triples, &inverses);
        Graph::from_sorted(all, self.n_nodes, np * 2)
    }

    /// Parses the whitespace text format: one `subject predicate object`
    /// line per edge; `#` starts a comment. Returns the graph plus the node
    /// and predicate dictionaries (ids in first-appearance order).
    pub fn parse_text(text: &str) -> Result<(Graph, Dict, Dict), String> {
        let mut nodes = Dict::new();
        let mut preds = Dict::new();
        let mut triples = Vec::new();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let mut parts = line.split_whitespace();
            let (Some(s), Some(p), Some(o), None) =
                (parts.next(), parts.next(), parts.next(), parts.next())
            else {
                return Err(format!(
                    "line {}: expected 'subject predicate object'",
                    lineno + 1
                ));
            };
            triples.push(Triple::new(
                nodes.intern(s),
                preds.intern(p),
                nodes.intern(o),
            ));
        }
        let g = Graph::new(triples, nodes.len() as Id, preds.len() as Id);
        Ok((g, nodes, preds))
    }

    /// Serializes to the text format using the given dictionaries.
    pub fn to_text(&self, nodes: &Dict, preds: &Dict) -> String {
        let mut out = String::new();
        for t in &self.triples {
            out.push_str(&nodes.name(t.s));
            out.push(' ');
            out.push_str(&preds.name(t.p));
            out.push(' ');
            out.push_str(&nodes.name(t.o));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedup_and_sort() {
        let g = Graph::from_triples(vec![
            Triple::new(1, 0, 2),
            Triple::new(0, 1, 1),
            Triple::new(1, 0, 2),
        ]);
        assert_eq!(g.len(), 2);
        assert_eq!(g.triples()[0], Triple::new(0, 1, 1));
        assert!(g.contains(1, 0, 2));
        assert!(!g.contains(2, 0, 1));
        assert_eq!(g.n_nodes(), 3);
        assert_eq!(g.n_preds(), 2);
    }

    #[test]
    fn completion_adds_inverses() {
        let g = Graph::from_triples(vec![Triple::new(0, 0, 1), Triple::new(1, 1, 2)]);
        let c = g.completed();
        assert_eq!(c.len(), 4);
        assert_eq!(c.n_preds(), 4);
        assert!(c.contains(1, 2, 0)); // inverse of (0,0,1): p̂ = 0 + 2
        assert!(c.contains(2, 3, 1)); // inverse of (1,1,2): p̂ = 1 + 2
                                      // Completing is idempotent on the edge relation it encodes:
        assert_eq!(c.completed().len(), 8);
    }

    #[test]
    fn text_roundtrip() {
        let text = "a knows b\nb knows c # comment\n\n# full comment\nc likes a\n";
        let (g, nodes, preds) = Graph::parse_text(text).unwrap();
        assert_eq!(g.len(), 3);
        assert_eq!(nodes.len(), 3);
        assert_eq!(preds.len(), 2);
        assert!(g.contains(
            nodes.get("a").unwrap(),
            preds.get("knows").unwrap(),
            nodes.get("b").unwrap()
        ));
        let text2 = g.to_text(&nodes, &preds);
        let (g2, _, _) = Graph::parse_text(&text2).unwrap();
        assert_eq!(g.triples(), g2.triples());
    }

    #[test]
    fn malformed_text_is_rejected() {
        assert!(Graph::parse_text("a b").is_err());
        assert!(Graph::parse_text("a b c d").is_err());
        assert!(Graph::parse_text("").unwrap().0.is_empty());
    }
}
