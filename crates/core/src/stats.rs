//! On-the-fly selectivity statistics from the ring's wavelet matrices —
//! the §6 observation that "the wavelet tree offers powerful operations
//! that provide on-the-fly selectivity statistics, which can be used for
//! even more sophisticated query planning".

use automata::Regex;
use ring::delta::DeltaIndex;
use ring::{Id, Ring};

use crate::source::ShardPart;

/// Statistics provider over a ring, optionally adjusted by a committed
/// delta overlay: cardinalities count *live* edges (ring − tombstones +
/// adds), so the planner's cost model follows updates without a rebuild.
///
/// For a sharded source the provider sums over the parts. Every input
/// the planner consumes (`n_triples`, `pred_cardinality`, `in_degree`,
/// `edges_into`) sums **exactly** across a disjoint triple partition, so
/// the chosen plan — and with it the whole evaluation — is identical at
/// any shard count.
pub struct RingStatistics<'r> {
    ring: &'r Ring,
    delta: Option<&'r DeltaIndex>,
    /// Extra shard parts past the base ring (empty when unsharded).
    extra: &'r [ShardPart],
}

impl<'r> RingStatistics<'r> {
    /// Creates the provider over an immutable ring.
    pub fn new(ring: &'r Ring) -> Self {
        Self {
            ring,
            delta: None,
            extra: &[],
        }
    }

    /// Creates the provider over a full source: ring, optional delta,
    /// and an optional shard partition (`shards[0].ring` must be `ring`;
    /// an empty slice means unsharded).
    pub fn with_parts(
        ring: &'r Ring,
        delta: Option<&'r DeltaIndex>,
        shards: &'r [ShardPart],
    ) -> Self {
        debug_assert!(
            shards.is_empty() || std::ptr::eq(&*shards[0].ring, ring),
            "shards[0] must be the base ring"
        );
        Self {
            ring,
            delta: delta.filter(|d| !d.is_empty()),
            extra: if shards.is_empty() { &[] } else { &shards[1..] },
        }
    }

    /// The underlying ring (statistics are cheap views over it).
    pub fn ring(&self) -> &'r Ring {
        self.ring
    }

    /// Total triples in the completed graph `G^` (live: delta adds and
    /// tombstones each count twice, once per direction) — the coarse
    /// upper bound a negated-class position or a whole-graph scan
    /// charges.
    pub fn n_triples(&self) -> usize {
        let base = self.ring.n_triples();
        let base = match self.delta {
            None => base,
            Some(d) => (base + 2 * d.n_adds()).saturating_sub(2 * d.n_dels()),
        };
        base + self.extra.iter().map(|p| p.ring.n_triples()).sum::<usize>()
    }

    /// Number of live edges labeled `p`.
    pub fn pred_cardinality(&self, p: Id) -> usize {
        let base = self.ring.pred_cardinality(p);
        let base = match self.delta {
            None => base,
            Some(d) => (base + d.add_count_label(p)).saturating_sub(d.del_count_label(p)),
        };
        base + self
            .extra
            .iter()
            .map(|s| s.ring.pred_cardinality(p))
            .sum::<usize>()
    }

    /// In-degree of `o` (live edges of any label arriving at `o`).
    pub fn in_degree(&self, o: Id) -> usize {
        let base = if o < self.ring.n_nodes() {
            let (b, e) = self.ring.object_range(o);
            e - b
        } else {
            0
        };
        let base = match self.delta {
            None => base,
            // A node's completed in-edges mirror its completed
            // out-edges' incidence: adds/dels at `o` as canonical object
            // or subject.
            Some(d) => (base + d.added_incidence(o)).saturating_sub(d.deleted_incidence(o)),
        };
        base + self
            .extra
            .iter()
            .map(|s| {
                if o < s.ring.n_nodes() {
                    let (b, e) = s.ring.object_range(o);
                    e - b
                } else {
                    0
                }
            })
            .sum::<usize>()
    }

    /// Number of **distinct** labels on edges arriving at `o`, in
    /// *O*(log |P|) per distinct label (§6's first example statistic).
    /// Summed per shard, so a label arriving at `o` in several shards
    /// counts once each — an overcount the planner never consumes.
    pub fn distinct_preds_into(&self, o: Id) -> usize {
        let one = |r: &Ring| {
            if o < r.n_nodes() {
                let (b, e) = r.object_range(o);
                r.l_p().count_distinct(b, e)
            } else {
                0
            }
        };
        one(self.ring) + self.extra.iter().map(|s| one(&s.ring)).sum::<usize>()
    }

    /// Number of **distinct** source nodes of edges labeled `p` (§6's
    /// second example statistic). Summed per shard (same overcount
    /// caveat as [`Self::distinct_preds_into`]).
    pub fn distinct_subjects_of(&self, p: Id) -> usize {
        let one = |r: &Ring| {
            let (b, e) = r.pred_range(p);
            r.l_s().count_distinct(b, e)
        };
        one(self.ring) + self.extra.iter().map(|s| one(&s.ring)).sum::<usize>()
    }

    /// Number of live edges labeled `p` arriving at `o` without
    /// enumerating them (a backward-search step is just two ranks; the
    /// delta contributes two binary searches).
    pub fn edges_into(&self, p: Id, o: Id) -> usize {
        let base = if o < self.ring.n_nodes() {
            let (b, e) = self
                .ring
                .backward_step_by_pred(self.ring.object_range(o), p);
            e - b
        } else {
            0
        };
        let base = match self.delta {
            None => base,
            Some(d) => (base + d.add_count_into(o, p)).saturating_sub(d.del_count_into(o, p)),
        };
        base + self
            .extra
            .iter()
            .map(|s| {
                if o < s.ring.n_nodes() {
                    let (b, e) = s.ring.backward_step_by_pred(s.ring.object_range(o), p);
                    e - b
                } else {
                    0
                }
            })
            .sum::<usize>()
    }

    /// The rarest plain label mentioned by `expr`, with its cardinality —
    /// the split point the rare-label strategy wants (§2, \[30\]).
    pub fn rarest_label(&self, expr: &Regex) -> Option<(Id, usize)> {
        expr.mentioned_labels()
            .into_iter()
            .filter(|&l| l < self.ring.n_preds())
            .map(|l| (l, self.pred_cardinality(l)))
            .min_by_key(|&(_, c)| c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ring::ring::RingOptions;
    use ring::{Graph, Triple};

    fn ring() -> Ring {
        // 0 -a-> 1, 0 -a-> 2, 1 -b-> 2, 2 -b-> 2, 3 -c-> 2
        let g = Graph::from_triples(vec![
            Triple::new(0, 0, 1),
            Triple::new(0, 0, 2),
            Triple::new(1, 1, 2),
            Triple::new(2, 1, 2),
            Triple::new(3, 2, 2),
        ]);
        Ring::build(&g, RingOptions::default())
    }

    #[test]
    fn cardinalities_and_degrees() {
        let r = ring();
        let s = RingStatistics::new(&r);
        assert_eq!(s.pred_cardinality(0), 2);
        assert_eq!(s.pred_cardinality(1), 2);
        assert_eq!(s.pred_cardinality(2), 1);
        // Node 2: incoming a, b, b, c plus inverse edges of its out-edge
        // (2 -b-> 2 contributes ^b into 2 as well).
        assert_eq!(s.in_degree(1), 1 + 1); // a from 0, ^b from 2? no: 1 -b-> 2 gives ^b into 1.
    }

    #[test]
    fn distinct_statistics() {
        let r = ring();
        let s = RingStatistics::new(&r);
        // Labels into node 2: a, b (twice), c, and ^b (from 2 -b-> 2).
        assert_eq!(s.distinct_preds_into(2), 4);
        // Distinct subjects of b: nodes 1 and 2.
        assert_eq!(s.distinct_subjects_of(1), 2);
        assert_eq!(s.edges_into(1, 2), 2);
        assert_eq!(s.edges_into(0, 1), 1);
        assert_eq!(s.edges_into(2, 1), 0);
    }

    #[test]
    fn rarest_label_detection() {
        let r = ring();
        let s = RingStatistics::new(&r);
        // a*/c/b*: c is rarest (1 edge).
        let e = Regex::concat(
            Regex::concat(Regex::Star(Box::new(Regex::label(0))), Regex::label(2)),
            Regex::Star(Box::new(Regex::label(1))),
        );
        assert_eq!(s.rarest_label(&e), Some((2, 1)));
        assert_eq!(s.rarest_label(&Regex::Epsilon), None);
    }
}
