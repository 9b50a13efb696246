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
//! Each order is one sorted array of 12-byte entries: a triple's three
//! ids in the order's key order, 32 bits each (the ring's columns hold
//! 32-bit ids too), compared as one integer, so a lookup reads half the
//! bytes a `Triple` would take and a comparison takes no branch.
//!
//! A delta is never edited in place. A commit derives its successor with
//! `DeltaIndex::merged`: each of the six arrays is one linear merge of
//! the old array with the batch's insertions and removals, written into
//! the memory of the delta the commit before retired once no reader
//! holds it (first-touched pages cost a fault each: at 16 000 entries a
//! merge into fresh memory took 236 µs, into reused memory 85). A commit
//! of `b` operations costs `O(b log b + |δ|)`: it sorts the batch, never
//! the overlay, and copies the overlay's entries, 36 bytes for each add
//! or tombstone. A young run of `√(|δ|·b)` entries, folded into the old
//! one when full, would bound the copy, but at a compaction cycle's sizes
//! the batch's own work is most of a merge (six merges of a 256-operation
//! batch: 20 µs over an empty delta, 47 over 2 000 entries, 90 over
//! 28 000), and readers would merge two runs with the removals of one
//! from the other; ROADMAP item 26 has the probe. [`DeltaIndex::new`]
//! (six sorts) is what the tests use.
//!
//! A delta is not persisted: a saved database is one ring with the
//! overlay folded in, and the commits since are in its write-ahead log.

use crate::{Id, Triple};

/// One triple in one sorted order: its ids in the order's key order
/// (`(s, p, o)`, `(p, o, s)` or `(o, s, p)`), 32 bits each, compared as
/// a tuple.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Entry(u32, u32, u32);

impl Entry {
    /// The entry as one integer with the tuple's order: one comparison
    /// without branches, where the tuple's takes up to three (a merge's
    /// searches went a quarter faster).
    #[inline(always)]
    fn rank(self) -> u128 {
        u128::from(self.0) << 64 | u128::from(self.1) << 32 | u128::from(self.2)
    }
}

impl Ord for Entry {
    #[inline(always)]
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.rank().cmp(&other.rank())
    }
}

impl PartialOrd for Entry {
    #[inline(always)]
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }

    #[inline(always)]
    fn lt(&self, other: &Self) -> bool {
        self.rank() < other.rank()
    }
}

/// An id as an entry holds it: below `u32::MAX`, which stands for the
/// ids [`key`] cannot look up.
///
/// # Panics
/// Panics if `id` does not fit: a ring's columns hold 32-bit ids, so no
/// id past them can be compacted either.
#[inline]
fn narrow(id: Id) -> u32 {
    match u32::try_from(id) {
        Ok(id) if id < u32::MAX => id,
        _ => panic!("id {id} does not fit in 32 bits"),
    }
}

/// The three sorted orders a side of the delta is kept in.
#[derive(Clone, Copy, Debug)]
enum Order {
    Spo,
    Pos,
    Osp,
}

impl Order {
    #[inline]
    fn entry(self, t: &Triple) -> Entry {
        let (s, p, o) = (narrow(t.s), narrow(t.p), narrow(t.o));
        match self {
            Order::Spo => Entry(s, p, o),
            Order::Pos => Entry(p, o, s),
            Order::Osp => Entry(o, s, p),
        }
    }

    #[inline]
    fn triple(self, Entry(a, b, c): Entry) -> Triple {
        let (a, b, c) = (Id::from(a), Id::from(b), Id::from(c));
        match self {
            Order::Spo => Triple::new(a, b, c),
            Order::Pos => Triple::new(c, a, b),
            Order::Osp => Triple::new(b, c, a),
        }
    }
}

/// One side of a delta (its adds, or its tombstones) in the three
/// orders.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct Side {
    /// `(s, p, o)` order — the authoritative copy.
    spo: Vec<Entry>,
    /// `(p, o, s)` order (the `L_s` order: backward steps by predicate
    /// land here).
    pos: Vec<Entry>,
    /// `(o, s, p)` order (the `L_p` order: per-object incidence).
    osp: Vec<Entry>,
}

impl Side {
    /// The side holding `triples` (sorted and deduplicated here).
    fn new(triples: &[Triple]) -> Self {
        let order = |order: Order| {
            let mut v: Vec<Entry> = triples.iter().map(|t| order.entry(t)).collect();
            v.sort_unstable();
            v.dedup();
            v
        };
        Self {
            spo: order(Order::Spo),
            pos: order(Order::Pos),
            osp: order(Order::Osp),
        }
    }

    /// The side `change` leaves behind, each order by one merge into the
    /// memory of `spare`'s.
    fn merged(&self, change: &SideChange, spare: Side) -> Self {
        Self {
            spo: change.merge(&self.spo, Order::Spo, spare.spo),
            pos: change.merge(&self.pos, Order::Pos, spare.pos),
            osp: change.merge(&self.osp, Order::Osp, spare.osp),
        }
    }

    /// One past the largest node id the side mentions (0 if empty): the
    /// largest subject ends the spo order, the largest object the osp one.
    fn n_nodes(&self) -> Id {
        let s = self.spo.last().map_or(0, |e| Id::from(e.0) + 1);
        let o = self.osp.last().map_or(0, |e| Id::from(e.0) + 1);
        s.max(o)
    }

    fn contains(&self, t: &Triple) -> bool {
        self.spo.binary_search(&Order::Spo.entry(t)).is_ok()
    }

    fn triples(&self, order: Order) -> impl ExactSizeIterator<Item = Triple> + '_ {
        let entries = match order {
            Order::Spo => &self.spo,
            Order::Pos => &self.pos,
            Order::Osp => &self.osp,
        };
        entries.iter().map(move |&e| order.triple(e))
    }
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
    /// `(old ∪ plus) ∖ minus` in `order`, which `old` is in already,
    /// written over `out`. The batch is sorted and each of its entries
    /// located in `old` ahead of the one before; the runs of `old` in
    /// between are copied whole.
    fn merge(&self, old: &[Entry], order: Order, mut out: Vec<Entry>) -> Vec<Entry> {
        let sorted = |triples: &[Triple]| {
            let mut v: Vec<Entry> = triples.iter().map(|t| order.entry(t)).collect();
            // A commit lists its changes in the spo order already.
            if !v.is_sorted() {
                v.sort_unstable();
            }
            v
        };
        let (plus, minus) = (sorted(&self.plus), sorted(&self.minus));
        out.clear();
        let most = old.len() + plus.len();
        if out.capacity() < most {
            // Room for the growth of a few commits: memory a merge writes
            // for the first time costs a page fault a page.
            out = Vec::with_capacity(most + most / 2);
        }
        let mut rest = old;
        let mut plus = plus.iter().peekable();
        let mut minus = minus.iter().peekable();
        loop {
            // The batch's next entry in order; the lists are disjoint.
            let (e, put) = match (plus.peek(), minus.peek()) {
                (Some(p), Some(m)) if m < p => (minus.next(), false),
                (Some(_), _) => (plus.next(), true),
                (None, _) => (minus.next(), false),
            };
            let Some(&e) = e else { break };
            // Walk `old` a block at a time — one comparison per block,
            // front to back as the copy will read it — then search the
            // block the entry falls into.
            const BLOCK: usize = 32;
            let mut skip = 0;
            while skip + BLOCK <= rest.len() && rest[skip + BLOCK - 1] < e {
                skip += BLOCK;
            }
            let window = &rest[skip..rest.len().min(skip + BLOCK)];
            let at = skip + window.partition_point(|x| *x < e);
            let (before, from) = rest.split_at(at);
            out.extend_from_slice(before);
            rest = match from.split_first() {
                Some((x, tail)) if *x == e => tail,
                _ => from,
            };
            if put {
                out.push(e);
            }
        }
        out.extend_from_slice(rest);
        out
    }
}

/// The contiguous block of `v` whose entries start with `(a, b)`.
fn block2(v: &[Entry], a: u32, b: u32) -> &[Entry] {
    let lo = v.partition_point(|e| (e.0, e.1) < (a, b));
    let hi = v[lo..].partition_point(|e| (e.0, e.1) <= (a, b)) + lo;
    &v[lo..hi]
}

/// The contiguous block of `v` whose entries start with `a`.
fn block1(v: &[Entry], a: u32) -> &[Entry] {
    let lo = v.partition_point(|e| e.0 < a);
    let hi = v[lo..].partition_point(|e| e.0 <= a) + lo;
    &v[lo..hi]
}

/// An id as a key component to look up: `u32::MAX`, which no entry
/// holds ([`narrow`]), for the ids that do not fit.
#[inline]
fn key(id: Id) -> u32 {
    u32::try_from(id).unwrap_or(u32::MAX)
}

/// The first index at or after `from` whose entry is not `before`, in a
/// `v` that is `before` up to some point and not after it: a galloping
/// search, `O(log d)` for an answer `d` places on.
fn gallop(v: &[Entry], from: usize, before: impl Fn(&Entry) -> bool) -> usize {
    let (mut lo, mut hi, mut step) = (from, from, 1);
    while hi < v.len() && before(&v[hi]) {
        lo = hi + 1;
        hi += step;
        step *= 2;
    }
    let hi = hi.min(v.len());
    lo + v[lo..hi].partition_point(before)
}

/// A forward cursor over the `(·, p, o)` blocks of one side of a delta,
/// for one completed-alphabet label `p`: asked for objects in ascending
/// order, as a batch of nodes sorted by id asks, each lookup gallops on
/// from where the one before ended instead of searching the whole side.
/// An object below the last one asked restarts from the front.
#[derive(Clone, Debug)]
pub struct IntoCursor<'a> {
    /// The `pos` order for a canonical label, the `spo` order for an
    /// inverse one (whose `(·, p̂, o)` edges are the canonical `(o, p,
    /// ·)`): either way the block of `o` is the entries whose first two
    /// ids are `(p, o)`, or `(o, p)`, and the third is the subject.
    side: &'a [Entry],
    /// The canonical label.
    p: u32,
    inverse: bool,
    /// Where the block of the last object asked ends.
    at: usize,
}

impl<'a> IntoCursor<'a> {
    fn new(side: &'a Side, base: Id, p: Id) -> Self {
        let inverse = p >= base;
        Self {
            side: if inverse { &side.spo } else { &side.pos },
            p: key(if inverse { p - base } else { p }),
            inverse,
            at: 0,
        }
    }

    /// The subjects of the edges `(·, p, o)`, ascending.
    pub fn seek(&mut self, o: Id) -> impl ExactSizeIterator<Item = Id> + 'a {
        let o = key(o);
        let want = if self.inverse {
            (o, self.p)
        } else {
            (self.p, o)
        };
        let lead = |e: &Entry| (e.0, e.1);
        if self.at > 0 && lead(&self.side[self.at - 1]) >= want {
            self.at = 0;
        }
        let lo = gallop(self.side, self.at, |e| lead(e) < want);
        let hi = gallop(self.side, lo, |e| lead(e) <= want);
        self.at = hi;
        self.side[lo..hi].iter().map(|e| Id::from(e.2))
    }
}

/// An immutable, committed delta: sorted adds plus tombstoned deletes in
/// the three ring orders. See the module docs for the label-space
/// convention and the entries' layout.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DeltaIndex {
    adds: Side,
    dels: Side,
    /// Base (pre-completion) predicate alphabet size; canonical triples
    /// satisfy `p < n_preds_base`.
    n_preds_base: Id,
    /// One past the largest node id mentioned by the delta (0 if empty).
    n_nodes: Id,
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
    /// introducing new predicates rebuilds the ring instead) — or an id
    /// that does not fit in 32 bits.
    pub fn new(adds: Vec<Triple>, dels: Vec<Triple>, n_preds_base: Id) -> Self {
        for t in adds.iter().chain(dels.iter()) {
            assert!(
                t.p < n_preds_base,
                "delta triple {t} outside the base alphabet ({n_preds_base})"
            );
        }
        let (adds, dels) = (Side::new(&adds), Side::new(&dels));
        Self {
            n_nodes: adds.n_nodes().max(dels.n_nodes()),
            adds,
            dels,
            n_preds_base,
        }
    }

    /// The delta one commit leaves behind: `adds` and `dels` applied to
    /// the respective side, every array by one merge (see the module
    /// docs). Equal, field for field, to [`Self::new`] over the resulting
    /// triple sets. The arrays are written into the memory of `spare`, a
    /// delta nothing reads any more, where it has room.
    pub(crate) fn merged(&self, adds: SideChange, dels: SideChange, spare: Self) -> Self {
        let (adds, dels) = (
            self.adds.merged(&adds, spare.adds),
            self.dels.merged(&dels, spare.dels),
        );
        Self {
            n_nodes: adds.n_nodes().max(dels.n_nodes()),
            adds,
            dels,
            n_preds_base: self.n_preds_base,
        }
    }

    /// Whether the delta holds no adds and no deletes.
    pub fn is_empty(&self) -> bool {
        self.adds.spo.is_empty() && self.dels.spo.is_empty()
    }

    /// Number of added triples.
    pub fn n_adds(&self) -> usize {
        self.adds.spo.len()
    }

    /// Number of tombstoned triples.
    pub fn n_dels(&self) -> usize {
        self.dels.spo.len()
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
    pub fn adds(&self) -> impl ExactSizeIterator<Item = Triple> + '_ {
        self.adds.triples(Order::Spo)
    }

    /// The tombstoned triples in `(s, p, o)` order (canonical labels).
    pub fn dels(&self) -> impl ExactSizeIterator<Item = Triple> + '_ {
        self.dels.triples(Order::Spo)
    }

    /// The added triples in `(o, s, p)` order (canonical labels).
    pub(crate) fn adds_osp(&self) -> impl ExactSizeIterator<Item = Triple> + '_ {
        self.adds.triples(Order::Osp)
    }

    /// The tombstoned triples in `(o, s, p)` order (canonical labels).
    pub(crate) fn dels_osp(&self) -> impl ExactSizeIterator<Item = Triple> + '_ {
        self.dels.triples(Order::Osp)
    }

    /// Canonicalizes a completed-alphabet edge: `(s, p̂, o)` is stored as
    /// `(o, p, s)`. `None` for an id no entry can hold.
    #[inline]
    fn canon(&self, s: Id, p: Id, o: Id) -> Option<Triple> {
        let t = if p < self.n_preds_base {
            Triple::new(s, p, o)
        } else {
            Triple::new(o, p - self.n_preds_base, s)
        };
        let fits = |id: Id| id < Id::from(u32::MAX);
        (fits(t.s) && fits(t.p) && fits(t.o)).then_some(t)
    }

    /// Whether the completed-alphabet edge `(s, p, o)` was added.
    pub fn add_contains(&self, s: Id, p: Id, o: Id) -> bool {
        self.canon(s, p, o).is_some_and(|t| self.adds.contains(&t))
    }

    /// Whether the completed-alphabet edge `(s, p, o)` is tombstoned.
    pub fn del_contains(&self, s: Id, p: Id, o: Id) -> bool {
        self.canon(s, p, o).is_some_and(|t| self.dels.contains(&t))
    }

    /// The subjects of the added completed-alphabet edges `(s, p, o)`, the
    /// delta counterpart of ring backward steps by predicate, for objects
    /// asked in ascending order. Canonical `(·, p, o)` edges are a `(p,
    /// o)` block of the pos order, subjects ascending; inverse `(x, p̂, o)`
    /// ones are the canonical `(o, p, x)`, an `(o, p)` block of the spo
    /// order, objects ascending.
    pub fn added_into_cursor(&self, p: Id) -> IntoCursor<'_> {
        IntoCursor::new(&self.adds, self.n_preds_base, p)
    }

    /// Like [`Self::added_into_cursor`], over the tombstones.
    pub fn deleted_into_cursor(&self, p: Id) -> IntoCursor<'_> {
        IntoCursor::new(&self.dels, self.n_preds_base, p)
    }

    /// Pushes the subjects of tombstoned completed-alphabet edges `(s, p,
    /// o)` into `out`, in ascending order without duplicates.
    pub fn deleted_into(&self, o: Id, p: Id, out: &mut Vec<Id>) {
        out.extend(self.deleted_into_cursor(p).seek(o));
    }

    /// Pushes the subjects of completed-alphabet edges labeled `p` of one
    /// side into `out`, ascending, once per edge.
    fn sources(&self, side: &Side, p: Id, out: &mut Vec<Id>) {
        let before = out.len();
        if p < self.n_preds_base {
            out.extend(block1(&side.pos, key(p)).iter().map(|e| Id::from(e.2)));
            out[before..].sort_unstable();
        } else {
            // Subjects of p̂ are the canonical objects of p, ascending in
            // the pos order already.
            let canonical = key(p - self.n_preds_base);
            out.extend(block1(&side.pos, canonical).iter().map(|e| Id::from(e.1)));
        }
    }

    /// Pushes the distinct subjects of added completed-alphabet edges
    /// labeled `p` into `out` (ascending).
    pub fn added_sources(&self, p: Id, out: &mut Vec<Id>) {
        self.sources(&self.adds, p, out);
        out.dedup();
    }

    /// Pushes the subjects of tombstoned completed-alphabet edges labeled
    /// `p` into `out`, ascending, a subject once per tombstone: how many
    /// of its `p`-edges a ring subject lost.
    pub fn deleted_sources(&self, p: Id, out: &mut Vec<Id>) {
        self.sources(&self.dels, p, out);
    }

    /// The canonical label of a completed-alphabet one.
    fn canonical_label(&self, p: Id) -> u32 {
        key(if p < self.n_preds_base {
            p
        } else {
            p - self.n_preds_base
        })
    }

    /// Number of added edges with the completed-alphabet label `p`
    /// (labels and their inverses have equal counts, as in the ring).
    pub fn add_count_label(&self, p: Id) -> usize {
        block1(&self.adds.pos, self.canonical_label(p)).len()
    }

    /// Number of tombstoned edges with the completed-alphabet label `p`.
    pub fn del_count_label(&self, p: Id) -> usize {
        block1(&self.dels.pos, self.canonical_label(p)).len()
    }

    /// Number of added completed-alphabet edges `(·, p, o)`.
    pub fn add_count_into(&self, o: Id, p: Id) -> usize {
        self.count_into(&self.adds, o, p)
    }

    /// Number of tombstoned completed-alphabet edges `(·, p, o)`.
    pub fn del_count_into(&self, o: Id, p: Id) -> usize {
        self.count_into(&self.dels, o, p)
    }

    fn count_into(&self, side: &Side, o: Id, p: Id) -> usize {
        let (o, c) = (key(o), self.canonical_label(p));
        if p < self.n_preds_base {
            block2(&side.pos, c, o).len()
        } else {
            block2(&side.spo, o, c).len()
        }
    }

    /// Completed-graph incidence the adds contribute at node `v` (as a
    /// subject of the completed graph: canonical out-edges plus canonical
    /// in-edges).
    pub fn added_incidence(&self, v: Id) -> usize {
        Self::incidence(&self.adds, v)
    }

    /// Completed-graph incidence the tombstones remove at node `v`.
    pub fn deleted_incidence(&self, v: Id) -> usize {
        Self::incidence(&self.dels, v)
    }

    fn incidence(side: &Side, v: Id) -> usize {
        let v = key(v);
        block1(&side.spo, v).len() + block1(&side.osp, v).len()
    }

    /// Bytes of the six sorted orders: three hold every add, three every
    /// tombstone, 12 bytes an entry.
    pub fn size_bytes(&self) -> usize {
        3 * self.len() * std::mem::size_of::<Entry>()
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
        let into = |cursor: &mut IntoCursor<'_>, o: Id| cursor.seek(o).collect::<Vec<_>>();
        let mut adds = d.added_into_cursor(1);
        assert_eq!(into(&mut adds, 2), vec![0]);
        assert_eq!(into(&mut adds, 3), vec![0]);
        assert_eq!(into(&mut adds, 9), vec![]);
        // Asked back: the cursor starts over.
        assert_eq!(into(&mut adds, 2), vec![0]);
        // Inverse direction: edges (x, ^1, 0) ⟺ canonical (0, 1, x).
        let mut inverse = d.added_into_cursor(4);
        assert_eq!(into(&mut inverse, 0), vec![2, 3]);
        assert_eq!(into(&mut inverse, 5), vec![]);
        assert_eq!(into(&mut d.deleted_into_cursor(1), 2), vec![1]);
        let mut out = Vec::new();
        d.deleted_into(2, 1, &mut out);
        assert_eq!(out, vec![1]);
        out.clear();
        d.added_sources(1, &mut out);
        assert_eq!(out, vec![0]);
        out.clear();
        d.added_sources(4, &mut out); // subjects of ^1 = objects of 1
        assert_eq!(out, vec![2, 3]);
        out.clear();
        d.deleted_sources(1, &mut out);
        assert_eq!(out, vec![1]);
        out.clear();
        // (0, ^0, ·) edges are canonical (·, 0, 0): the tombstone (2,0,0).
        d.deleted_sources(3, &mut out);
        assert_eq!(out, vec![0]);
        assert_eq!(d.add_count_label(1), 2);
        assert_eq!(d.add_count_label(4), 2);
        assert_eq!(d.del_count_label(0), 1);
        assert_eq!(d.add_count_into(2, 1), 1);
    }

    /// Forward cursors answer what a search of the whole side answers, for
    /// objects asked ascending (with gaps and repeats) and asked back.
    #[test]
    fn cursors_answer_what_a_search_answers() {
        let triples: Vec<Triple> = (0..400u64)
            .map(|i| t((i * 37) % 61, i % 3, (i * 11) % 53))
            .collect();
        let d = DeltaIndex::new(triples.clone(), vec![], 3);
        for p in 0..6 {
            let searched = |o: Id| -> Vec<Id> {
                let mut want: Vec<Id> = triples
                    .iter()
                    .filter_map(|x| match p < 3 {
                        true => (x.p == p && x.o == o).then_some(x.s),
                        false => (x.p == p - 3 && x.s == o).then_some(x.o),
                    })
                    .collect();
                want.sort_unstable();
                want.dedup();
                want
            };
            let mut cursor = d.added_into_cursor(p);
            for o in (0..70).chain([3, 3, 60, 1]) {
                assert_eq!(cursor.seek(o).collect::<Vec<_>>(), searched(o), "{p} {o}");
            }
        }
    }

    #[test]
    fn size_counts_each_order_once() {
        // Four adds and two tombstones, three orders each, 12 B an entry.
        assert_eq!(std::mem::size_of::<Entry>(), 12);
        assert_eq!(sample().size_bytes(), 18 * 12);
        assert_eq!(DeltaIndex::empty(3).size_bytes(), 0);
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
            // Into fresh memory, and into a spare too small and one large
            // enough, whose old entries must not show through.
            let (a, d) = (rng.draw(3000, 100), rng.draw(3000, 100));
            let roomy = DeltaIndex::new(a.into_iter().collect(), d.into_iter().collect(), 3);
            let spares = [DeltaIndex::empty(3), old.clone(), roomy];
            for spare in spares {
                let change = |c: &SideChange| SideChange {
                    plus: c.plus.clone(),
                    minus: c.minus.clone(),
                };
                assert_eq!(
                    old.merged(change(&add_change), change(&del_change), spare),
                    expected,
                    "overlay {size}, batch {batch}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "outside the base alphabet")]
    fn non_canonical_predicates_are_rejected() {
        DeltaIndex::new(vec![t(0, 3, 1)], vec![], 3);
    }
}
