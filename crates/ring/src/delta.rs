//! The mutable overlay on top of the immutable ring: a committed,
//! immutable batch of **added** triples and **tombstoned** (deleted)
//! triples, kept in the same three circular sort orders the ring itself
//! uses (`spo`, `pos`, `osp`) so every backward-search-shaped lookup the
//! RPQ engine performs has a cheap, binary-searchable delta counterpart.
//!
//! A [`DeltaIndex`] stores *canonical* triples only (predicate ids below
//! the base alphabet, no inverse completion); every accessor takes
//! labels from the **completed** alphabet `Σ↔` and canonicalizes
//! internally (`(s, p̂, o)` is the edge `(o, p, s)`), exactly mirroring
//! how [`crate::Ring`] indexes the completed graph.
//!
//! Invariants (maintained by [`crate::store::TripleStore`], not enforced
//! here): adds and deletes are disjoint, deletes refer to triples present
//! in the base ring, and adds to triples absent from it.
//!
//! A delta is never edited in place. A commit derives its successor with
//! `DeltaIndex::merged`: each of the six arrays is one linear merge of
//! the old array with the batch's insertions and removals, so a commit
//! costs `O(b log b + |δ|)` for a batch of `b` operations — it sorts the
//! batch, never the overlay. [`DeltaIndex::new`] (six sorts) is what the
//! tests use.
//!
//! A delta is not persisted: a saved database is one ring with the
//! overlay folded in, and the commits since are in its write-ahead log.

use crate::{Id, Triple};

/// An immutable, committed delta: sorted adds plus tombstoned deletes in
/// the three ring orders. See the module docs for the label-space
/// convention.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DeltaIndex {
    /// Added triples, `(s, p, o)` order — the authoritative copy.
    adds_spo: Vec<Triple>,
    /// Added triples, `(p, o, s)` order (the `L_s` order: backward steps
    /// by predicate land here).
    adds_pos: Vec<Triple>,
    /// Added triples, `(o, s, p)` order (the `L_p` order: per-object
    /// incidence).
    adds_osp: Vec<Triple>,
    /// Deleted triples, `(s, p, o)` order.
    dels_spo: Vec<Triple>,
    /// Deleted triples, `(p, o, s)` order.
    dels_pos: Vec<Triple>,
    /// Deleted triples, `(o, s, p)` order.
    dels_osp: Vec<Triple>,
    /// Base (pre-completion) predicate alphabet size; canonical triples
    /// satisfy `p < n_preds_base`.
    n_preds_base: Id,
    /// One past the largest node id mentioned by the delta (0 if empty).
    n_nodes: Id,
}

/// Sorts a triple list by the given key and deduplicates it.
fn order_by(mut v: Vec<Triple>, key: fn(&Triple) -> (Id, Id, Id)) -> Vec<Triple> {
    v.sort_unstable_by_key(key);
    v.dedup();
    v
}

/// What one commit changes on one side (adds or tombstones) of a delta:
/// the triples it puts in and the triples it takes out. The two lists
/// are disjoint; putting in a triple that is there, or taking out one
/// that is not, changes nothing.
#[derive(Debug, Default)]
pub(crate) struct SideChange {
    pub(crate) plus: Vec<Triple>,
    pub(crate) minus: Vec<Triple>,
}

impl SideChange {
    /// `(old ∪ plus) ∖ minus` in the order of `key`, which `old` is in
    /// already. The batch is sorted and each of its triples located in
    /// `old` ahead of the one before; the runs of `old` in between are
    /// copied whole.
    pub(crate) fn merge<K>(&mut self, old: &[Triple], key: K) -> Vec<Triple>
    where
        K: Fn(&Triple) -> (Id, Id, Id),
    {
        self.plus.sort_unstable_by_key(&key);
        self.minus.sort_unstable_by_key(&key);
        let mut out = Vec::with_capacity(old.len() + self.plus.len());
        let mut rest = old;
        let mut plus = self.plus.iter().peekable();
        let mut minus = self.minus.iter().peekable();
        loop {
            // The batch's next triple in key order; the lists are disjoint.
            let (t, put) = match (plus.peek(), minus.peek()) {
                (Some(p), Some(m)) if key(m) < key(p) => (minus.next(), false),
                (Some(_), _) => (plus.next(), true),
                (None, _) => (minus.next(), false),
            };
            let Some(t) = t else { break };
            let k = key(t);
            // Walk `old` a block at a time — one comparison per block,
            // front to back as the copy will read it — then search the
            // block the triple falls into.
            const BLOCK: usize = 32;
            let mut skip = 0;
            while skip + BLOCK <= rest.len() && key(&rest[skip + BLOCK - 1]) < k {
                skip += BLOCK;
            }
            let window = &rest[skip..rest.len().min(skip + BLOCK)];
            let at = skip + window.partition_point(|x| key(x) < k);
            let (before, from) = rest.split_at(at);
            out.extend_from_slice(before);
            rest = match from.split_first() {
                Some((x, tail)) if x == t => tail,
                _ => from,
            };
            if put {
                out.push(*t);
            }
        }
        out.extend_from_slice(rest);
        out
    }
}

/// The contiguous block of `v` (sorted by `key`) whose key starts with
/// `(a, b)`.
fn block2(v: &[Triple], key: fn(&Triple) -> (Id, Id, Id), a: Id, b: Id) -> &[Triple] {
    let lo = v.partition_point(|t| key(t) < (a, b, 0));
    let hi = v[lo..].partition_point(|t| {
        let k = key(t);
        (k.0, k.1) <= (a, b)
    }) + lo;
    &v[lo..hi]
}

/// The contiguous block of `v` (sorted by `key`) whose key starts with `a`.
fn block1(v: &[Triple], key: fn(&Triple) -> (Id, Id, Id), a: Id) -> &[Triple] {
    let lo = v.partition_point(|t| key(t).0 < a);
    let hi = v[lo..].partition_point(|t| key(t).0 <= a) + lo;
    &v[lo..hi]
}

impl DeltaIndex {
    /// An empty delta over the given base alphabet.
    pub fn empty(n_preds_base: Id) -> Self {
        Self {
            n_preds_base,
            ..Self::default()
        }
    }

    /// Builds a delta from canonical add/delete triple lists (sorted and
    /// deduplicated here; every predicate must be `< n_preds_base`).
    ///
    /// # Panics
    /// Panics if a triple mentions a predicate at or beyond the base
    /// alphabet — deltas never extend the ring's label space (a commit
    /// introducing new predicates rebuilds the ring instead).
    pub fn new(adds: Vec<Triple>, dels: Vec<Triple>, n_preds_base: Id) -> Self {
        for t in adds.iter().chain(dels.iter()) {
            assert!(
                t.p < n_preds_base,
                "delta triple {t} outside the base alphabet ({n_preds_base})"
            );
        }
        let n_nodes = adds
            .iter()
            .chain(dels.iter())
            .map(|t| t.s.max(t.o) + 1)
            .max()
            .unwrap_or(0);
        Self {
            adds_pos: order_by(adds.clone(), Triple::pos_key),
            adds_osp: order_by(adds.clone(), Triple::osp_key),
            adds_spo: order_by(adds, Triple::spo_key),
            dels_pos: order_by(dels.clone(), Triple::pos_key),
            dels_osp: order_by(dels.clone(), Triple::osp_key),
            dels_spo: order_by(dels, Triple::spo_key),
            n_preds_base,
            n_nodes,
        }
    }

    /// The delta one commit leaves behind: `adds` and `dels` applied to
    /// the respective side, every array by one merge (see the module
    /// docs). Equal, field for field, to [`Self::new`] over the resulting
    /// triple sets.
    pub(crate) fn merged(&self, mut adds: SideChange, mut dels: SideChange) -> Self {
        let adds_spo = adds.merge(&self.adds_spo, Triple::spo_key);
        let adds_osp = adds.merge(&self.adds_osp, Triple::osp_key);
        let dels_spo = dels.merge(&self.dels_spo, Triple::spo_key);
        let dels_osp = dels.merge(&self.dels_osp, Triple::osp_key);
        // The largest subject ends an spo array, the largest object an
        // osp one.
        let bound = |spo: &[Triple], osp: &[Triple]| {
            let s = spo.last().map_or(0, |t| t.s + 1);
            let o = osp.last().map_or(0, |t| t.o + 1);
            s.max(o)
        };
        Self {
            n_nodes: bound(&adds_spo, &adds_osp).max(bound(&dels_spo, &dels_osp)),
            adds_pos: adds.merge(&self.adds_pos, Triple::pos_key),
            dels_pos: dels.merge(&self.dels_pos, Triple::pos_key),
            adds_spo,
            adds_osp,
            dels_spo,
            dels_osp,
            n_preds_base: self.n_preds_base,
        }
    }

    /// Whether the delta holds no adds and no deletes.
    pub fn is_empty(&self) -> bool {
        self.adds_spo.is_empty() && self.dels_spo.is_empty()
    }

    /// Number of added triples.
    pub fn n_adds(&self) -> usize {
        self.adds_spo.len()
    }

    /// Number of tombstoned triples.
    pub fn n_dels(&self) -> usize {
        self.dels_spo.len()
    }

    /// Total overlay size (adds + deletes) — the quantity the size-ratio
    /// compaction trigger compares against the base.
    pub fn len(&self) -> usize {
        self.n_adds() + self.n_dels()
    }

    /// Base (pre-completion) predicate alphabet size.
    pub fn n_preds_base(&self) -> Id {
        self.n_preds_base
    }

    /// One past the largest node id the delta mentions (0 when empty).
    /// Adds may introduce nodes beyond the ring's universe; the merged
    /// evaluation universe is the max of both.
    pub fn n_nodes(&self) -> Id {
        self.n_nodes
    }

    /// The added triples in `(s, p, o)` order (canonical labels).
    pub fn adds(&self) -> &[Triple] {
        &self.adds_spo
    }

    /// The tombstoned triples in `(s, p, o)` order (canonical labels).
    pub fn dels(&self) -> &[Triple] {
        &self.dels_spo
    }

    /// Canonicalizes a completed-alphabet edge: `(s, p̂, o)` is stored as
    /// `(o, p, s)`.
    #[inline]
    fn canon(&self, s: Id, p: Id, o: Id) -> Triple {
        if p < self.n_preds_base {
            Triple::new(s, p, o)
        } else {
            Triple::new(o, p - self.n_preds_base, s)
        }
    }

    /// Whether the completed-alphabet edge `(s, p, o)` was added.
    pub fn add_contains(&self, s: Id, p: Id, o: Id) -> bool {
        self.adds_spo.binary_search(&self.canon(s, p, o)).is_ok()
    }

    /// Whether the completed-alphabet edge `(s, p, o)` is tombstoned.
    pub fn del_contains(&self, s: Id, p: Id, o: Id) -> bool {
        self.dels_spo.binary_search(&self.canon(s, p, o)).is_ok()
    }

    /// Pushes the subjects of added completed-alphabet edges `(s, p, o)`
    /// into `out`, in ascending order without duplicates — the delta
    /// counterpart of one ring backward step by predicate.
    pub fn added_into(&self, o: Id, p: Id, out: &mut Vec<Id>) {
        Self::into_side(&self.adds_pos, &self.adds_spo, self.n_preds_base, o, p, out);
    }

    /// Like [`Self::added_into`], over the tombstones.
    pub fn deleted_into(&self, o: Id, p: Id, out: &mut Vec<Id>) {
        Self::into_side(&self.dels_pos, &self.dels_spo, self.n_preds_base, o, p, out);
    }

    fn into_side(pos: &[Triple], spo: &[Triple], base: Id, o: Id, p: Id, out: &mut Vec<Id>) {
        if p < base {
            // Canonical `(·, p, o)`: a `(p, o)` block of the pos order,
            // subjects ascending (each triple is distinct, so subjects
            // within one block are too).
            out.extend(block2(pos, Triple::pos_key, p, o).iter().map(|t| t.s));
        } else {
            // Inverse `(x, p̂, o)` ⟺ canonical `(o, p, x)`: the `(o, p)`
            // prefix of o's spo block, objects ascending.
            out.extend(
                block2(spo, Triple::spo_key, o, p - base)
                    .iter()
                    .map(|t| t.o),
            );
        }
    }

    /// Pushes the distinct subjects of added completed-alphabet edges
    /// labeled `p` into `out` (ascending).
    pub fn added_sources(&self, p: Id, out: &mut Vec<Id>) {
        if p < self.n_preds_base {
            let before = out.len();
            out.extend(
                block1(&self.adds_pos, Triple::pos_key, p)
                    .iter()
                    .map(|t| t.s),
            );
            out[before..].sort_unstable();
            out.dedup();
        } else {
            // Subjects of p̂ are the canonical objects of p, ascending in
            // the pos order already.
            let before = out.len();
            out.extend(
                block1(&self.adds_pos, Triple::pos_key, p - self.n_preds_base)
                    .iter()
                    .map(|t| t.o),
            );
            out[before..].sort_unstable();
            out.dedup();
        }
    }

    /// Number of added edges with the completed-alphabet label `p`
    /// (labels and their inverses have equal counts, as in the ring).
    pub fn add_count_label(&self, p: Id) -> usize {
        let c = if p < self.n_preds_base {
            p
        } else {
            p - self.n_preds_base
        };
        block1(&self.adds_pos, Triple::pos_key, c).len()
    }

    /// Number of tombstoned edges with the completed-alphabet label `p`.
    pub fn del_count_label(&self, p: Id) -> usize {
        let c = if p < self.n_preds_base {
            p
        } else {
            p - self.n_preds_base
        };
        block1(&self.dels_pos, Triple::pos_key, c).len()
    }

    /// Number of added completed-alphabet edges `(·, p, o)`.
    pub fn add_count_into(&self, o: Id, p: Id) -> usize {
        Self::count_into(&self.adds_pos, &self.adds_spo, self.n_preds_base, o, p)
    }

    /// Number of tombstoned completed-alphabet edges `(·, p, o)`.
    pub fn del_count_into(&self, o: Id, p: Id) -> usize {
        Self::count_into(&self.dels_pos, &self.dels_spo, self.n_preds_base, o, p)
    }

    fn count_into(pos: &[Triple], spo: &[Triple], base: Id, o: Id, p: Id) -> usize {
        if p < base {
            block2(pos, Triple::pos_key, p, o).len()
        } else {
            block2(spo, Triple::spo_key, o, p - base).len()
        }
    }

    /// Number of tombstoned completed-alphabet edges `(s, p, ·)` — the
    /// count that decides whether a ring subject still has a live
    /// `p`-edge.
    pub fn del_count_from(&self, s: Id, p: Id) -> usize {
        if p < self.n_preds_base {
            block2(&self.dels_spo, Triple::spo_key, s, p).len()
        } else {
            block2(&self.dels_pos, Triple::pos_key, p - self.n_preds_base, s).len()
        }
    }

    /// Completed-graph incidence the adds contribute at node `v` (as a
    /// subject of the completed graph: canonical out-edges plus canonical
    /// in-edges).
    pub fn added_incidence(&self, v: Id) -> usize {
        block1(&self.adds_spo, Triple::spo_key, v).len()
            + block1(&self.adds_osp, Triple::osp_key, v).len()
    }

    /// Completed-graph incidence the tombstones remove at node `v`.
    pub fn deleted_incidence(&self, v: Id) -> usize {
        block1(&self.dels_spo, Triple::spo_key, v).len()
            + block1(&self.dels_osp, Triple::osp_key, v).len()
    }

    /// Heap bytes of the six sorted orders.
    pub fn size_bytes(&self) -> usize {
        6 * self.len() * std::mem::size_of::<Triple>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: Id, p: Id, o: Id) -> Triple {
        Triple::new(s, p, o)
    }

    fn sample() -> DeltaIndex {
        // Base alphabet of 3 predicates (completed labels 0..6).
        DeltaIndex::new(
            vec![t(0, 1, 2), t(5, 0, 2), t(0, 1, 3), t(7, 2, 0)],
            vec![t(1, 1, 2), t(2, 0, 0)],
            3,
        )
    }

    #[test]
    fn completed_alphabet_lookups() {
        let d = sample();
        assert!(d.add_contains(0, 1, 2));
        assert!(d.add_contains(2, 4, 0)); // inverse view of (0, 1, 2)
        assert!(!d.add_contains(2, 1, 0));
        assert!(d.del_contains(1, 1, 2));
        assert!(d.del_contains(2, 4, 1));
        assert_eq!(d.n_nodes(), 8);
        assert_eq!(d.n_adds(), 4);
        assert_eq!(d.n_dels(), 2);
        assert_eq!(d.len(), 6);
    }

    #[test]
    fn into_and_source_enumeration() {
        let d = sample();
        let mut out = Vec::new();
        d.added_into(2, 1, &mut out);
        assert_eq!(out, vec![0]);
        out.clear();
        // Inverse direction: edges (x, ^1, 0) ⟺ canonical (0, 1, x).
        d.added_into(0, 4, &mut out);
        assert_eq!(out, vec![2, 3]);
        out.clear();
        d.deleted_into(2, 1, &mut out);
        assert_eq!(out, vec![1]);
        out.clear();
        d.added_sources(1, &mut out);
        assert_eq!(out, vec![0]);
        out.clear();
        d.added_sources(4, &mut out); // subjects of ^1 = objects of 1
        assert_eq!(out, vec![2, 3]);
        assert_eq!(d.add_count_label(1), 2);
        assert_eq!(d.add_count_label(4), 2);
        assert_eq!(d.del_count_label(0), 1);
        assert_eq!(d.add_count_into(2, 1), 1);
        assert_eq!(d.del_count_from(1, 1), 1);
        // (0, ^0, ·) edges are canonical (·, 0, 0): the tombstone (2,0,0).
        assert_eq!(d.del_count_from(0, 3), 1);
        assert_eq!(d.del_count_from(2, 3), 0);
    }

    #[test]
    fn incidence_counts() {
        let d = sample();
        // Node 0: adds (0,1,2), (0,1,3) as subject; (7,2,0) as object.
        assert_eq!(d.added_incidence(0), 3);
        // Node 2: adds (0,1,2), (5,0,2) as object.
        assert_eq!(d.added_incidence(2), 2);
        assert_eq!(d.deleted_incidence(2), 2); // (1,1,2) object + (2,0,0) subject
    }

    #[test]
    fn empty_delta() {
        let d = DeltaIndex::empty(4);
        assert!(d.is_empty());
        assert_eq!(d.n_nodes(), 0);
        assert_eq!(d.add_count_label(7), 0);
        assert!(!d.add_contains(0, 0, 0));
    }

    /// `merged` against `new` on overlays long enough that whole blocks
    /// of the old arrays are skipped, with puts and takes that hit, miss,
    /// precede and follow everything that is there.
    #[test]
    fn merged_equals_new_over_the_resulting_sets() {
        use std::collections::BTreeSet;
        struct Lcg(u64);
        impl Lcg {
            fn below(&mut self, m: u64) -> u64 {
                self.0 = self
                    .0
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (self.0 >> 33) % m
            }
            fn draw(&mut self, n: usize, nodes: u64) -> BTreeSet<Triple> {
                (0..n)
                    .map(|_| t(self.below(nodes), self.below(3), self.below(nodes)))
                    .collect()
            }
            /// Half of each list from what is there, half from anywhere
            /// (nodes up to 99 sort after everything in every order).
            fn change(&mut self, side: &BTreeSet<Triple>, batch: usize) -> SideChange {
                let there: Vec<Triple> = side.iter().copied().collect();
                let mut plus = self.draw(batch, 100);
                let mut minus = self.draw(batch / 2, 100);
                for _ in 0..batch.min(there.len()) {
                    plus.insert(there[self.below(there.len() as u64) as usize]);
                    minus.insert(there[self.below(there.len() as u64) as usize]);
                }
                SideChange {
                    plus: plus.difference(&minus).copied().collect(),
                    minus: minus.into_iter().collect(),
                }
            }
        }
        let apply = |side: &BTreeSet<Triple>, change: &SideChange| -> Vec<Triple> {
            let mut side = side.clone();
            side.extend(change.plus.iter().copied());
            for m in &change.minus {
                side.remove(m);
            }
            side.into_iter().collect()
        };
        let mut rng = Lcg(0x9E37_79B9_7F4A_7C15);
        for (size, batch) in [(0, 5), (40, 0), (700, 1), (700, 24), (700, 400)] {
            let (adds, dels) = (rng.draw(size, 60), rng.draw(size / 3, 60));
            let old = DeltaIndex::new(
                adds.iter().copied().collect(),
                dels.iter().copied().collect(),
                3,
            );
            let (add_change, del_change) = (rng.change(&adds, batch), rng.change(&dels, batch));
            let expected = DeltaIndex::new(apply(&adds, &add_change), apply(&dels, &del_change), 3);
            assert_eq!(
                old.merged(add_change, del_change),
                expected,
                "overlay {size}, batch {batch}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "outside the base alphabet")]
    fn non_canonical_predicates_are_rejected() {
        DeltaIndex::new(vec![t(0, 3, 1)], vec![], 3);
    }
}
