//! Dictionary encoding between external names (IRIs, strings) and the
//! dense integer ids the ring operates on.
//!
//! The paper works on "a dictionary-encoded version of the graph" (§5);
//! string-to-id translation is orthogonal to the index (they report ~3
//! extra bytes/triple and ~3 ms/query for it). A dictionary is one name
//! arena — every name once, concatenated in id order in a UTF-8 blob,
//! with an offset table for `id → name` — plus a search structure for
//! `name → id`, which is the only thing its two forms differ in:
//!
//! * the mutable **heap form** (the build path) keeps an open-addressing
//!   table of ids, hashed eight bytes a step, so [`Dict::intern`] and
//!   [`Dict::get`] allocate nothing per call and a new name costs its
//!   bytes, one offset and a table slot; a slot carries where its name
//!   lies, so a lookup touches the table and the name and nothing else,
//!   and `Dict::intern_many` fetches the slots of a block of names
//!   side by side — the bulk path of the N-Triples loader;
//! * the read-only **mapped form** borrows the arena from a `RRPQM01`
//!   file together with a name-sorted id permutation searched by
//!   bisection, so opening a saved index allocates no per-name strings
//!   at all.
//!
//! The arena of the heap form *is* what the mapped writer stores
//! (`Dict::to_mapped_parts` lends it out), and the N-Triples scanner's
//! chunk-local dictionaries are this same type.

use std::hash::Hasher;

use crate::Id;
use succinct::util::FxHasher;
use succinct::{Slab, SpaceUsage};

/// A two-way map between names and dense ids `0..len`.
#[derive(Clone, Debug)]
pub struct Dict {
    /// All names concatenated in id order; every name's slice is valid
    /// UTF-8 ([`Dict::name`] relies on it).
    blob: Slab<u8>,
    /// `blob[offsets[i] .. offsets[i+1]]` is name `i`; `len + 1` entries.
    offsets: Slab<u64>,
    lookup: Lookup,
}

/// The `name → id` side of a [`Dict`].
#[derive(Clone, Debug)]
enum Lookup {
    /// Heap form: an open-addressing table with linear probing, a power
    /// of two slots, at most half of them taken. A name's home
    /// slot is the top bits of its `hash32`, so the table grows without
    /// reading a name.
    Table(Vec<Slot>),
    /// Mapped form: the ids permuted so their names are in strictly
    /// increasing byte order.
    Sorted(Slab<u64>),
}

/// One slot of the heap form's table. It holds what a probe needs to
/// reject a name without reading another array, and to find the bytes it
/// has to compare without the offset table: a lookup that hits is two
/// cache misses in a dictionary that has outgrown the caches — this slot
/// and the name — and one that misses is one. The same holds for a small
/// dictionary in a cache other work has emptied, which is how an
/// updatable store's `insert`/`delete` find it between queries: there an
/// 8-byte `hash32 | id` slot read through `offsets` measured 9–20 % more
/// per update.
#[derive(Clone, Copy, Debug, Default)]
struct Slot {
    /// `hash32 << 32 | id + 1`; 0 marks a free slot.
    key: u64,
    /// `start << 24 | min(len, LONG)` of the name's bytes in the blob.
    span: u64,
}

/// The length a [`Slot`] records for every name this long or longer.
const LONG: usize = (1 << 24) - 1;

impl Slot {
    fn new(hash: u32, id: Id, start: usize, len: usize) -> Self {
        assert!(
            id < 1 << 31 && start < 1 << 40,
            "a dictionary holds at most 2^31 names in 2^40 bytes"
        );
        Self {
            key: (hash as u64) << 32 | (id + 1),
            span: (start as u64) << 24 | len.min(LONG) as u64,
        }
    }

    fn is_free(self) -> bool {
        self.key == 0
    }

    fn hash(self) -> u32 {
        (self.key >> 32) as u32
    }

    fn id(self) -> Id {
        (self.key & u32::MAX as u64) - 1
    }

    /// Whether the slot's name can be one of `len` bytes hashing to `hash`.
    fn may_hold(self, hash: u32, len: usize) -> bool {
        self.hash() == hash && (self.span & LONG as u64) as usize == len.min(LONG)
    }
}

/// Slots of the smallest table.
const MIN_SLOTS: usize = 16;

/// Names [`Dict::intern_many`] looks up side by side.
const BLOCK: usize = 32;

/// The 32 hash bits a table slot keeps of a name: the top half of its
/// Fx hash, the half every input bit reaches.
fn hash32(name: &[u8]) -> u32 {
    let mut h = FxHasher::default();
    h.write(name);
    (h.finish() >> 32) as u32
}

/// The home slot of `hash` in a table of `slots` (a power of two ≥ 2).
fn home(hash: u32, slots: usize) -> usize {
    (hash >> (32 - slots.trailing_zeros())) as usize
}

/// Places `slot` (already known to be absent) into `table`.
fn place(table: &mut [Slot], slot: Slot) {
    let mask = table.len() - 1;
    let mut at = home(slot.hash(), table.len());
    while !table[at].is_free() {
        at = (at + 1) & mask;
    }
    table[at] = slot;
}

impl Default for Dict {
    fn default() -> Self {
        Self {
            blob: Slab::new(),
            offsets: vec![0u64].into(),
            lookup: Lookup::Table(vec![Slot::default(); MIN_SLOTS]),
        }
    }
}

impl Dict {
    /// Creates an empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Assembles the mapped, read-only representation from the arrays of
    /// a `RRPQM01` dictionary section, validating every invariant
    /// [`Dict::name`]/[`Dict::get`] later rely on: offset monotonicity
    /// and bounds, per-name UTF-8, and that `order` is a permutation
    /// sorting the names strictly (which also proves the names are
    /// distinct). O(blob) once at open, allocating only a transient
    /// presence bitmap.
    pub(crate) fn from_mapped_parts(
        blob: Slab<u8>,
        offsets: Slab<u64>,
        order: Slab<u64>,
    ) -> Result<Self, &'static str> {
        let n = order.len();
        if offsets.len() != n + 1 {
            return Err("dictionary offset table has wrong length");
        }
        if offsets[0] != 0 || offsets[n] != blob.len() as u64 {
            return Err("dictionary offsets do not span the name blob");
        }
        for w in offsets.windows(2) {
            if w[0] > w[1] {
                return Err("dictionary offsets are not monotone");
            }
        }
        for i in 0..n {
            let bytes = &blob[offsets[i] as usize..offsets[i + 1] as usize];
            if std::str::from_utf8(bytes).is_err() {
                return Err("dictionary name is not valid UTF-8");
            }
        }
        let mut seen = vec![false; n];
        let mut prev: Option<&[u8]> = None;
        for &id in order.iter() {
            let id = id as usize;
            if id >= n || seen[id] {
                return Err("dictionary order is not a permutation of the ids");
            }
            seen[id] = true;
            let name = &blob[offsets[id] as usize..offsets[id + 1] as usize];
            if let Some(p) = prev {
                if p >= name {
                    return Err("dictionary order does not sort the names strictly");
                }
            }
            prev = Some(name);
        }
        Ok(Self {
            blob,
            offsets,
            lookup: Lookup::Sorted(order),
        })
    }

    /// The mapped-form arrays `(blob, offsets, order)` of this
    /// dictionary — the `RRPQM01` writer. The arena is lent as it is;
    /// only the name-sorted permutation is made here.
    pub(crate) fn to_mapped_parts(&self) -> (&[u8], &[u64], Vec<u64>) {
        let order = match &self.lookup {
            Lookup::Sorted(order) => order.to_vec(),
            Lookup::Table(_) => {
                let mut order: Vec<u64> = (0..self.len() as u64).collect();
                order.sort_unstable_by(|&a, &b| self.name(a).cmp(self.name(b)));
                order
            }
        };
        (&self.blob, &self.offsets, order)
    }

    /// Whether this dictionary borrows a mapped index file.
    pub fn is_mapped(&self) -> bool {
        matches!(self.lookup, Lookup::Sorted(_))
    }

    /// Rewrites a mapped dictionary into the mutable heap form (no-op on
    /// heap dictionaries). O(names); called once before mutation, e.g.
    /// when a mapped index is promoted to an updatable store.
    pub fn make_owned(&mut self) {
        if !self.is_mapped() {
            return;
        }
        if self.blob.is_mapped() {
            self.blob = self.blob.to_vec().into();
        }
        if self.offsets.is_mapped() {
            self.offsets = self.offsets.to_vec().into();
        }
        let slots = (self.len() * 2).next_power_of_two().max(MIN_SLOTS);
        let mut table = vec![Slot::default(); slots];
        for (id, name) in self.iter() {
            let slot = Slot::new(
                hash32(name.as_bytes()),
                id,
                self.offsets[id as usize] as usize,
                name.len(),
            );
            place(&mut table, slot);
        }
        self.lookup = Lookup::Table(table);
    }

    /// Whether the name `slot` stands for is `name`, given that the slot
    /// [`may_hold`](Slot::may_hold) it.
    fn holds(&self, slot: Slot, name: &[u8]) -> bool {
        if name.len() < LONG {
            let start = (slot.span >> 24) as usize;
            self.blob[start..start + name.len()] == *name
        } else {
            self.name(slot.id()).as_bytes() == name
        }
    }

    /// Looks `name` up in the heap form's `table`.
    fn find(&self, table: &[Slot], name: &[u8], hash: u32) -> Option<Id> {
        let mask = table.len() - 1;
        let mut at = home(hash, table.len());
        loop {
            let slot = table[at];
            if slot.is_free() {
                return None;
            }
            if slot.may_hold(hash, name.len()) && self.holds(slot, name) {
                return Some(slot.id());
            }
            at = (at + 1) & mask;
        }
    }

    /// Returns the id of `name`, interning it if new. A mapped
    /// dictionary is first materialized to the heap ([`Self::make_owned`]).
    pub fn intern(&mut self, name: &str) -> Id {
        self.make_owned();
        let Lookup::Table(table) = &self.lookup else {
            unreachable!("make_owned leaves the heap representation");
        };
        let hash = hash32(name.as_bytes());
        if let Some(id) = self.find(table, name.as_bytes(), hash) {
            return id;
        }
        let id = self.len() as Id;
        let slot = Slot::new(hash, id, self.blob.len(), name.len());
        self.blob.extend_from_slice(name.as_bytes());
        self.offsets.push(self.blob.len() as u64);
        let Lookup::Table(table) = &mut self.lookup else {
            unreachable!("checked above");
        };
        if self.offsets.len() * 2 > table.len() {
            // `offsets.len()` is the new name count + 1: at most half the
            // slots are ever taken, so every probe ends at a free one.
            let mut grown = vec![Slot::default(); table.len() * 2];
            for &slot in table.iter().filter(|slot| !slot.is_free()) {
                place(&mut grown, slot);
            }
            *table = grown;
        }
        place(table, slot);
        id
    }

    /// Interns `names` in order and appends their ids to `ids` — what
    /// [`Self::intern`] on one after the other does, a block of names at a
    /// time. A lookup in a dictionary that has outgrown the caches is two
    /// dependent misses, the table slot and then the name's bytes; here
    /// the home slots of a whole block are gathered in one short loop
    /// before any is looked at, so the misses overlap instead of queueing
    /// up. Names the block pass does not find (new ones, repeats of new
    /// ones, and those behind a slot that only looks like theirs) take
    /// [`Self::intern`].
    pub(crate) fn intern_many(&mut self, names: &[&str], ids: &mut Vec<Id>) {
        self.make_owned();
        ids.reserve(names.len());
        let mut hashes = [0u32; BLOCK];
        let mut slots = [Slot::default(); BLOCK];
        let mut found = [false; BLOCK];
        for block in names.chunks(BLOCK) {
            let Lookup::Table(table) = &self.lookup else {
                unreachable!("make_owned leaves the heap representation");
            };
            for (k, name) in block.iter().enumerate() {
                hashes[k] = hash32(name.as_bytes());
            }
            for k in 0..block.len() {
                slots[k] = table[home(hashes[k], table.len())];
            }
            // The first slot of each probe run that may hold the name:
            // nearly always the home slot, nearly always holding it.
            for (k, name) in block.iter().enumerate() {
                let mut at = home(hashes[k], table.len());
                while !slots[k].is_free() && !slots[k].may_hold(hashes[k], name.len()) {
                    at = (at + 1) & (table.len() - 1);
                    slots[k] = table[at];
                }
            }
            for (k, name) in block.iter().enumerate() {
                found[k] = !slots[k].is_free() && self.holds(slots[k], name.as_bytes());
            }
            for (k, name) in block.iter().enumerate() {
                ids.push(if found[k] {
                    slots[k].id()
                } else {
                    self.intern(name)
                });
            }
        }
    }

    /// Interns every name of `other` and returns their ids here, in
    /// `other`'s id order ([`Self::intern_many`] over its names).
    pub(crate) fn intern_all(&mut self, other: &Dict) -> Vec<Id> {
        let mut ids = Vec::with_capacity(other.len());
        let mut names = [""; BLOCK];
        for first in (0..other.len()).step_by(BLOCK) {
            let n = BLOCK.min(other.len() - first);
            for (k, name) in names[..n].iter_mut().enumerate() {
                *name = other.name((first + k) as Id);
            }
            self.intern_many(&names[..n], &mut ids);
        }
        ids
    }

    /// The id of `name`, if interned. O(1) on the heap form, O(log n)
    /// string comparisons on the mapped form.
    pub fn get(&self, name: &str) -> Option<Id> {
        match &self.lookup {
            Lookup::Table(table) => self.find(table, name.as_bytes(), hash32(name.as_bytes())),
            Lookup::Sorted(order) => {
                let k = order
                    .binary_search_by(|&id| self.name(id).as_bytes().cmp(name.as_bytes()))
                    .ok()?;
                Some(order[k])
            }
        }
    }

    /// The name of `id`.
    ///
    /// # Panics
    /// Panics if `id` was never interned.
    pub fn name(&self, id: Id) -> &str {
        let i = id as usize;
        let bytes = &self.blob[self.offsets[i] as usize..self.offsets[i + 1] as usize];
        // SAFETY: a name's slice is valid UTF-8 in both forms — `intern`
        // appends the bytes of a `&str` and records exactly their ends,
        // and `from_mapped_parts` validated every slice.
        unsafe { std::str::from_utf8_unchecked(bytes) }
    }

    /// Number of interned names.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether the dictionary is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates `(id, name)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (Id, &str)> {
        (0..self.len() as Id).map(move |id| (id, self.name(id)))
    }

    /// Payload bytes: the arena plus the hash table on the heap form,
    /// the arena plus the name-sorted ids on the mapped form.
    pub fn size_bytes(&self) -> usize {
        self.blob.size_bytes()
            + self.offsets.size_bytes()
            + match &self.lookup {
                Lookup::Table(table) => table.capacity() * std::mem::size_of::<Slot>(),
                Lookup::Sorted(order) => order.size_bytes(),
            }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut d = Dict::new();
        let a = d.intern("alpha");
        let b = d.intern("beta");
        assert_ne!(a, b);
        assert_eq!(d.intern("alpha"), a);
        assert_eq!(d.len(), 2);
        assert_eq!(d.name(a), "alpha");
        assert_eq!(d.get("beta"), Some(b));
        assert_eq!(d.get("gamma"), None);
    }

    #[test]
    fn ids_are_dense_in_insertion_order() {
        let mut d = Dict::new();
        for (i, n) in ["x", "y", "z"].iter().enumerate() {
            assert_eq!(d.intern(n), i as Id);
        }
        let pairs: Vec<(Id, String)> = d.iter().map(|(i, n)| (i, n.to_string())).collect();
        assert_eq!(
            pairs,
            vec![(0, "x".into()), (1, "y".into()), (2, "z".into())]
        );
    }

    #[test]
    fn mapped_parts_roundtrip_on_owned_slabs() {
        let mut d = Dict::new();
        for n in ["<zeta>", "<alpha>", "_:b0", "\"lit\"@en", "<mid>"] {
            d.intern(n);
        }
        let (blob, offsets, order) = d.to_mapped_parts();
        let m =
            Dict::from_mapped_parts(blob.to_vec().into(), offsets.to_vec().into(), order.into())
                .expect("valid");
        assert!(m.is_mapped());
        assert_eq!(m.len(), d.len());
        for (id, name) in d.iter() {
            assert_eq!(m.name(id), name, "name({id})");
            assert_eq!(m.get(name), Some(id), "get({name})");
        }
        assert_eq!(m.get("<nope>"), None);
        let mut owned = m.clone();
        owned.make_owned();
        assert!(!owned.is_mapped());
        assert_eq!(owned.intern("<new>"), d.len() as Id);
    }

    #[test]
    fn mapped_parts_validation_rejects_corruption() {
        let mut d = Dict::new();
        d.intern("<a>");
        d.intern("<b>");
        let (blob, offsets, order) = d.to_mapped_parts();
        let (blob, offsets) = (blob.to_vec(), offsets.to_vec());
        // Non-permutation order.
        assert!(Dict::from_mapped_parts(
            blob.clone().into(),
            offsets.clone().into(),
            vec![0u64, 0].into()
        )
        .is_err());
        // Unsorted order.
        assert!(Dict::from_mapped_parts(
            blob.clone().into(),
            offsets.clone().into(),
            vec![1u64, 0].into()
        )
        .is_err());
        // Offsets not spanning the blob.
        let mut bad = offsets.clone();
        *bad.last_mut().unwrap() += 1;
        assert!(
            Dict::from_mapped_parts(blob.clone().into(), bad.into(), order.clone().into()).is_err()
        );
        // Invalid UTF-8 in a name.
        let mut bad_blob = blob.clone();
        bad_blob[1] = 0xFF;
        assert!(Dict::from_mapped_parts(bad_blob.into(), offsets.into(), order.into()).is_err());
    }

    /// The parent's heap dictionary — every name a `String`, kept in a
    /// vector and again as a map key — with the arrays and the `RDc1`
    /// payload it produced: what the arena must reproduce byte for byte.
    #[derive(Default)]
    struct Reference {
        names: Vec<String>,
        index: std::collections::HashMap<String, Id>,
    }

    impl Reference {
        fn intern(&mut self, name: &str) -> Id {
            if let Some(&id) = self.index.get(name) {
                return id;
            }
            let id = self.names.len() as Id;
            self.names.push(name.to_string());
            self.index.insert(name.to_string(), id);
            id
        }

        fn to_mapped_parts(&self) -> (Vec<u8>, Vec<u64>, Vec<u64>) {
            let mut blob = Vec::new();
            let mut offsets = vec![0u64];
            for name in &self.names {
                blob.extend_from_slice(name.as_bytes());
                offsets.push(blob.len() as u64);
            }
            let mut order: Vec<u64> = (0..self.names.len() as u64).collect();
            order.sort_unstable_by(|&a, &b| self.names[a as usize].cmp(&self.names[b as usize]));
            (blob, offsets, order)
        }
    }

    /// A stream of names with repeats: IRIs sharing long prefixes, blank
    /// nodes, literals, multi-byte text, the empty name, and names that
    /// differ only in length or in trailing NULs.
    fn name_stream(seed: u64, n: usize) -> Vec<String> {
        let mut state = seed | 1;
        let mut next = |m: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % m
        };
        (0..n)
            .map(|_| {
                let k = next(n as u64 / 2 + 1);
                match next(8) {
                    0 => format!("_:b{k}"),
                    1 => format!("\"name {k}\"@en"),
                    2 => format!("\"größe {k} → ∞\""),
                    3 => "x".repeat(k as usize % 20),
                    4 => format!("x{}", "\0".repeat(k as usize % 20)),
                    _ => format!("<http://example.org/entity/Q{k}>"),
                }
            })
            .collect()
    }

    #[test]
    fn arena_matches_the_reference_dictionary() {
        for seed in [1u64, 2, 3] {
            for n in [0usize, 1, 15, 16, 17, 1000, 20_000] {
                let mut d = Dict::new();
                let mut r = Reference::default();
                for name in name_stream(seed, n) {
                    assert_eq!(d.intern(&name), r.intern(&name), "intern({name:?})");
                }
                assert_eq!(d.len(), r.names.len());
                assert_eq!(d.is_empty(), r.names.is_empty());
                let listed: Vec<(Id, &str)> = d.iter().collect();
                let expected: Vec<(Id, &str)> =
                    (0..).zip(r.names.iter().map(String::as_str)).collect();
                assert_eq!(listed, expected, "iter, seed {seed}, n {n}");
                for (id, name) in &expected {
                    assert_eq!(d.get(name), Some(*id), "get({name:?})");
                    assert_eq!(d.name(*id), *name);
                }
                assert_eq!(d.get("<never interned>"), None);
                assert_eq!(d.get("\0"), None);

                // The arrays of the mapped writer.
                let (blob, offsets, order) = d.to_mapped_parts();
                let (r_blob, r_offsets, r_order) = r.to_mapped_parts();
                assert_eq!((blob, offsets), (&r_blob[..], &r_offsets[..]));
                assert_eq!(order, r_order, "seed {seed}, n {n}");

                // Mapped form and back: same answers, and interning goes on
                // where the ids left off.
                let mut m =
                    Dict::from_mapped_parts(r_blob.into(), r_offsets.into(), r_order.into())
                        .expect("the reference arrays are valid");
                for round in 0..2 {
                    for (id, name) in &expected {
                        assert_eq!(m.get(name), Some(*id), "round {round}: get({name:?})");
                        assert_eq!(m.name(*id), *name);
                    }
                    assert_eq!(m.get("<never interned>"), None);
                    assert_eq!(m.to_mapped_parts(), d.to_mapped_parts(), "round {round}");
                    m.make_owned();
                    assert!(!m.is_mapped());
                }
                assert_eq!(m.intern("<fresh>"), d.intern("<fresh>"));
                if let Some((id, name)) = expected.first() {
                    assert_eq!(m.intern(name), *id);
                }
            }
        }
    }

    #[test]
    fn interning_by_blocks_is_interning_one_by_one() {
        for seed in [1u64, 2, 3] {
            let names = name_stream(seed, 5000);
            let names: Vec<&str> = names.iter().map(String::as_str).collect();
            let mut one = Dict::new();
            let expected: Vec<Id> = names.iter().map(|n| one.intern(n)).collect();
            // Slices of every size around the block: repeats inside a
            // block, new names, and the table growing under a block.
            let mut many = Dict::new();
            let mut ids = Vec::new();
            let mut rest = &names[..];
            for len in (0..100).cycle() {
                let (head, tail) = rest.split_at(len.min(rest.len()));
                many.intern_many(head, &mut ids);
                rest = tail;
                if rest.is_empty() {
                    break;
                }
            }
            assert_eq!(ids, expected, "seed {seed}");
            assert_eq!(many.to_mapped_parts(), one.to_mapped_parts());
            // A whole dictionary into another that knows half its names.
            let mut half = Dict::new();
            for name in names.iter().step_by(2) {
                half.intern(name);
            }
            let mut model = half.clone();
            let expected: Vec<Id> = one.iter().map(|(_, n)| model.intern(n)).collect();
            assert_eq!(half.intern_all(&one), expected, "seed {seed}");
            assert_eq!(half.to_mapped_parts(), model.to_mapped_parts());
            // ... and into a mapped one, which it makes owned.
            let (blob, offsets, order) = one.to_mapped_parts();
            let mut mapped = Dict::from_mapped_parts(
                blob.to_vec().into(),
                offsets.to_vec().into(),
                order.into(),
            )
            .expect("valid");
            let same: Vec<Id> = (0..one.len() as Id).collect();
            assert_eq!(mapped.intern_all(&one), same);
            assert!(!mapped.is_mapped());
        }
    }

    #[test]
    fn names_too_long_for_a_slot_are_compared_in_full() {
        let long = "x".repeat(LONG);
        let longer = format!("{long}y");
        let other = format!("{long}z");
        let short = &long[1..];
        let mut d = Dict::new();
        for (id, name) in [&long, &longer, short, &other].into_iter().enumerate() {
            assert_eq!(d.intern(name), id as Id);
        }
        let mut ids = Vec::new();
        d.intern_many(&[&other, short, &longer, &long], &mut ids);
        assert_eq!(ids, [3, 2, 1, 0]);
        assert_eq!(d.get(&longer), Some(1));
        assert_eq!(d.get(&format!("{long}w")), None);
        assert_eq!(d.name(3), other);
        assert_eq!(d.len(), 4);
    }

    #[test]
    fn heap_form_holds_each_name_once() {
        let n = 100_000usize;
        let mut d = Dict::new();
        for i in 0..n {
            d.intern(&format!("<http://example.org/entity/Q{i}>"));
        }
        let blob = d.to_mapped_parts().0.len();
        // At most half the slots taken, and a table only doubles: fewer
        // than 4 slots a name. The two arena vectors grow by doubling too.
        let table = std::mem::size_of::<Slot>() * 4 * n;
        assert!(
            d.size_bytes() <= 2 * (blob + 8 * (n + 1)) + table,
            "{} bytes for {n} names over a {blob}-byte blob",
            d.size_bytes()
        );
        // Less than the least the two-`String`s-a-name form could take.
        assert!(d.size_bytes() < 2 * blob + n * (2 * std::mem::size_of::<String>() + 8));
    }
}
