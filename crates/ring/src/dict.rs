//! Dictionary encoding between external names (IRIs, strings) and the
//! dense integer ids the ring operates on.
//!
//! The paper works on "a dictionary-encoded version of the graph" (§5);
//! string-to-id translation is orthogonal to the index (they report ~3
//! extra bytes/triple and ~3 ms/query for it). Ids are the ones the ingest
//! assigned, in the order it met the names. A dictionary has one form:
//!
//! * a **base**, what a `RRPQM01` `NODES`/`PREDS` section stores and an
//!   open borrows in place: the names in byte order, front-coded in
//!   buckets of [`BUCKET`] — a bucket's first name (its *head*) in full,
//!   every other one as the length of the prefix it shares with the name
//!   before it and the bytes after that prefix — beside the start of
//!   every bucket and two packed permutations, `order` (sorted rank → id)
//!   and `rank` (id → sorted rank), ⌈log₂ n⌉ bits an entry. A lookup
//!   bisects the bucket heads and scans one bucket without copying a
//!   byte; [`Dict::name`] finds the bucket through `rank` and decodes;
//! * plus the **new part**, the names interned since the base was
//!   encoded, with ids from `base.len()` on — the dictionary's delta, as
//!   `DeltaIndex` is the ring's. It is one name arena (the names in id
//!   order, and their offsets) and an open-addressing table whose slots
//!   say where a name lies, so a lookup touches the slot and the name; a
//!   build interns every name here, a block at a time
//!   (`Dict::intern_many`), and a loaded store its new ones, so the base
//!   is never decoded.
//!
//! [`Dict::encode`] merges the base, walked in sorted order, with the new
//! names sorted, and front-codes the result, ids unchanged. It runs where
//! bytes leave the interner: a database encodes the dictionaries it is
//! made of (`RpqDatabase::from_parts` and every path through it), and the
//! writer a copy (`Dict::to_mapped_parts`). Compaction leaves it alone.

use std::borrow::Cow;
use std::cmp::Ordering;
use std::hash::Hasher;

use crate::Id;
use succinct::int_vec::bits_for;
use succinct::util::FxHasher;
use succinct::{IntVec, Slab, SpaceUsage};

/// A two-way map between names and dense ids `0..len`: a front-coded
/// base and the names interned since it was encoded.
#[derive(Clone, Debug, Default)]
pub struct Dict {
    base: FrontCoded,
    /// The base's bucket heads, condensed for the lookups' bisection.
    heads: HeadKeys,
    /// Names absent from `base`; the id of its name `i` is
    /// `base.len() + i`.
    new: Heap,
}

/// The new part: the name arena and the table that searches it.
#[derive(Clone, Debug)]
struct Heap {
    /// All names concatenated in id order; every name's slice is valid
    /// UTF-8 ([`Heap::name`] relies on it).
    blob: Vec<u8>,
    /// `blob[offsets[i] .. offsets[i+1]]` is name `i`; `len + 1` entries.
    offsets: Vec<u64>,
    /// An open-addressing table with linear probing, a power of two
    /// slots, at most half of them taken. A name's home slot is the top
    /// bits of its `hash32`, so the table grows without reading a name.
    table: Vec<Slot>,
}

/// One slot of the new part's table. It holds what a probe needs to
/// reject a name without reading another array, and to find the bytes it
/// has to compare without the offset table: a lookup that hits is two
/// cache misses in a table that has outgrown the caches — this slot and
/// the name — and one that misses is one (an 8-byte `hash32 | id` slot
/// read through `offsets` measured 9–20 % more per update).
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

impl Default for Heap {
    fn default() -> Self {
        Self {
            blob: Vec::new(),
            offsets: vec![0],
            table: vec![Slot::default(); MIN_SLOTS],
        }
    }
}

impl Heap {
    fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    fn bytes(&self, id: Id) -> &[u8] {
        let i = id as usize;
        &self.blob[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    fn name(&self, id: Id) -> &str {
        // SAFETY: `intern` appends the bytes of a `&str` and records
        // exactly their ends.
        unsafe { std::str::from_utf8_unchecked(self.bytes(id)) }
    }

    /// Payload bytes: the arena and the table.
    fn size_bytes(&self) -> usize {
        self.blob.capacity()
            + self.offsets.capacity() * std::mem::size_of::<u64>()
            + self.table.capacity() * std::mem::size_of::<Slot>()
    }

    /// Whether the name `slot` stands for is `name`, given that the slot
    /// [`may_hold`](Slot::may_hold) it.
    fn holds(&self, slot: Slot, name: &[u8]) -> bool {
        if name.len() < LONG {
            let start = (slot.span >> 24) as usize;
            self.blob[start..start + name.len()] == *name
        } else {
            self.bytes(slot.id()) == name
        }
    }

    fn find(&self, name: &[u8], hash: u32) -> Option<Id> {
        let mask = self.table.len() - 1;
        let mut at = home(hash, self.table.len());
        loop {
            let slot = self.table[at];
            if slot.is_free() {
                return None;
            }
            if slot.may_hold(hash, name.len()) && self.holds(slot, name) {
                return Some(slot.id());
            }
            at = (at + 1) & mask;
        }
    }

    fn intern(&mut self, name: &str) -> Id {
        let hash = hash32(name.as_bytes());
        if let Some(id) = self.find(name.as_bytes(), hash) {
            return id;
        }
        let id = self.len() as Id;
        let slot = Slot::new(hash, id, self.blob.len(), name.len());
        self.blob.extend_from_slice(name.as_bytes());
        self.offsets.push(self.blob.len() as u64);
        if self.offsets.len() * 2 > self.table.len() {
            // `offsets.len()` is the new name count + 1: at most half the
            // slots are ever taken, so every probe ends at a free one.
            let mut grown = vec![Slot::default(); self.table.len() * 2];
            for &slot in self.table.iter().filter(|slot| !slot.is_free()) {
                place(&mut grown, slot);
            }
            self.table = grown;
        }
        place(&mut self.table, slot);
        id
    }

    fn intern_many(&mut self, names: &[&str], ids: &mut Vec<Id>) {
        ids.reserve(names.len());
        let mut hashes = [0u32; BLOCK];
        let mut slots = [Slot::default(); BLOCK];
        let mut found = [false; BLOCK];
        for block in names.chunks(BLOCK) {
            let table = &self.table;
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
}

/// Names a bucket of the base holds. `crates/ring/README.md` records what
/// 8, 16, 32 and 64 cost (`examples/dict_probe.rs`): on the benchmark's
/// 2^17 `<n…>` names each doubling saves half the bytes the one before did
/// (0.82, 0.41, 0.20 B a name) for more decode time in [`Dict::name`]
/// (+23, +34, +67 ns), and `get` does not move. 16 takes the first halving
/// and not the second.
pub const BUCKET: usize = 16;

/// The base's arrays, as a `RRPQM01` `NODES`/`PREDS` section stores them,
/// each borrowed from the file in place or owned.
#[derive(Clone, Debug)]
pub(crate) struct FrontCoded {
    /// The buckets, back to back. A bucket is its head — `len` varint,
    /// then the bytes — and then, for every later name of the bucket, the
    /// length of the prefix it shares with the name before (varint), the
    /// length of the rest (varint) and the rest.
    pub(crate) data: Slab<u8>,
    /// Where each bucket starts in `data`; ⌈n / [`BUCKET`]⌉ entries.
    pub(crate) buckets: Slab<u64>,
    /// Sorted rank → id.
    pub(crate) order: IntVec,
    /// Id → sorted rank.
    pub(crate) rank: IntVec,
}

impl Default for FrontCoded {
    fn default() -> Self {
        Encoder::default().finish()
    }
}

/// Front-codes names given in strictly increasing order, each with its id.
#[derive(Default)]
struct Encoder {
    data: Vec<u8>,
    buckets: Vec<u64>,
    order: Vec<u64>,
    /// The name pushed last.
    prev: Vec<u8>,
}

impl Encoder {
    fn push(&mut self, name: &[u8], id: Id) {
        if self.order.len().is_multiple_of(BUCKET) {
            self.buckets.push(self.data.len() as u64);
            put_varint(&mut self.data, name.len());
            self.data.extend_from_slice(name);
        } else {
            let lcp = common_prefix(&self.prev, name);
            put_varint(&mut self.data, lcp);
            put_varint(&mut self.data, name.len() - lcp);
            self.data.extend_from_slice(&name[lcp..]);
        }
        self.prev.clear();
        self.prev.extend_from_slice(name);
        self.order.push(id);
    }

    fn finish(mut self) -> FrontCoded {
        let mut rank = vec![0u64; self.order.len()];
        for (r, &id) in self.order.iter().enumerate() {
            rank[id as usize] = r as u64;
        }
        self.data.shrink_to_fit();
        self.buckets.shrink_to_fit();
        // A permutation of `0..n` packs into ⌈log₂ n⌉ bits.
        FrontCoded {
            data: self.data.into(),
            buckets: self.buckets.into(),
            order: IntVec::from_slice(&self.order),
            rank: IntVec::from_slice(&rank),
        }
    }
}

/// Appends `x` as a LEB128 varint.
fn put_varint(out: &mut Vec<u8>, mut x: usize) {
    while x >= 0x80 {
        out.push(x as u8 | 0x80);
        x >>= 7;
    }
    out.push(x as u8);
}

/// Length of the longest common prefix of `a` and `b`, compared eight
/// bytes at a time.
fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    let (a8, b8) = (a.chunks_exact(8), b.chunks_exact(8));
    let mut at = 0;
    for (x, y) in a8.zip(b8) {
        let word = |bytes: &[u8]| u64::from_le_bytes(bytes.try_into().expect("chunks of eight"));
        let differ = word(x) ^ word(y);
        if differ != 0 {
            return at + differ.trailing_zeros() as usize / 8;
        }
        at += 8;
    }
    at + a[at..]
        .iter()
        .zip(&b[at..])
        .take_while(|(x, y)| x == y)
        .count()
}

/// The base's bucket heads for the lookups' bisection, built where a base
/// is made or opened: the length of the prefix every name shares, and for
/// each bucket the eight bytes of its head after it, big-endian and
/// zero-padded. One `u64` per [`BUCKET`] names, in one array, so most
/// steps of a bisection compare a key and never read a head (in the
/// benchmark's 2^17-name dictionary the heads lie across a megabyte). It
/// is derived, not stored: no file holds it, and [`Dict::size_bytes`]
/// counts what a section stores.
#[derive(Clone, Debug, Default)]
struct HeadKeys {
    shared: usize,
    keys: Vec<u64>,
}

impl HeadKeys {
    fn of(base: &FrontCoded) -> Self {
        let Some(last) = base.len().checked_sub(1) else {
            return Self::default();
        };
        let shared = common_prefix(base.head(0), &base.name(last));
        let keys = (0..base.buckets.len()).map(|b| key(&base.head(b)[shared..]));
        Self {
            shared,
            keys: keys.collect(),
        }
    }

    /// The key of `name`, or `None` if it lacks the prefix every name of
    /// `base` shares (so `base` does not hold it). A head whose key is
    /// smaller than the name's is smaller than the name, and one whose key
    /// is larger is larger; equal keys leave it open.
    fn key(&self, base: &FrontCoded, name: &[u8]) -> Option<u64> {
        if base.len() == 0 || name.get(..self.shared)? != &base.head(0)[..self.shared] {
            return None;
        }
        Some(key(&name[self.shared..]))
    }
}

/// The first eight bytes of `bytes` as a big-endian number, zero-padded.
fn key(bytes: &[u8]) -> u64 {
    let mut word = [0; 8];
    let n = bytes.len().min(8);
    word[..n].copy_from_slice(&bytes[..n]);
    u64::from_be_bytes(word)
}

/// A reader over one bucket's bytes. Every read is bounds-checked, so the
/// validation at open and the lookups after it share one decoder.
struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn varint(&mut self) -> Option<usize> {
        let mut x = 0u64;
        for shift in (0..64).step_by(7) {
            let byte = *self.bytes.get(self.at)?;
            self.at += 1;
            x |= u64::from(byte & 0x7F) << shift;
            if byte < 0x80 {
                return usize::try_from(x).ok();
            }
        }
        None
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let bytes = self.bytes.get(self.at..self.at.checked_add(n)?)?;
        self.at += n;
        Some(bytes)
    }

    /// A bucket's first name.
    fn head(&mut self) -> Option<&'a [u8]> {
        let len = self.varint()?;
        self.take(len)
    }

    /// A later name: the prefix it shares with the one before, and the
    /// bytes after it.
    fn entry(&mut self) -> Option<(usize, &'a [u8])> {
        let lcp = self.varint()?;
        let len = self.varint()?;
        Some((lcp, self.take(len)?))
    }
}

/// What a lookup in a validated section cannot fail on.
const VALID: &str = "dictionary sections are validated at open";

impl FrontCoded {
    fn len(&self) -> usize {
        self.order.len()
    }

    /// Names in bucket `b`.
    fn bucket_len(&self, b: usize) -> usize {
        BUCKET.min(self.len() - b * BUCKET)
    }

    /// The head of bucket `b`.
    fn head(&self, b: usize) -> &[u8] {
        let mut cursor = Cursor {
            bytes: &self.data[self.buckets[b] as usize..],
            at: 0,
        };
        cursor.head().expect(VALID)
    }

    fn bucket(&self, b: usize) -> Cursor<'_> {
        let start = self.buckets[b] as usize;
        let end = self
            .buckets
            .get(b + 1)
            .map_or(self.data.len(), |&end| end as usize);
        Cursor {
            bytes: &self.data[start..end],
            at: 0,
        }
    }

    /// The id of `name`: the last bucket whose head is at most `name`,
    /// bisected by the heads' `keys` and, where a key ties with the
    /// name's, by the head itself; then a scan of the bucket that keeps
    /// `m`, the prefix the name last decoded shares with `name`, and so
    /// compares each entry's suffix and nothing before it. Every name
    /// passed is smaller than `name`; the scan stops at the first that is
    /// not.
    fn get(&self, heads: &HeadKeys, name: &[u8]) -> Option<Id> {
        let key = heads.key(self, name)?;
        let (mut lo, mut hi) = (0, self.buckets.len());
        while lo < hi {
            let mid = (lo + hi) / 2;
            let at_most = match heads.keys[mid].cmp(&key) {
                Ordering::Less => true,
                Ordering::Greater => false,
                Ordering::Equal => self.head(mid) <= name,
            };
            if at_most {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        let b = lo.checked_sub(1)?;
        let mut cursor = self.bucket(b);
        let head = cursor.head().expect(VALID);
        if head == name {
            return Some(self.order.get(b * BUCKET));
        }
        let mut m = common_prefix(head, name);
        for i in 1..self.bucket_len(b) {
            let (lcp, suffix) = cursor.entry().expect(VALID);
            if lcp > m {
                // It keeps the byte at `m` of the name before, where that
                // name fell below `name`: so does this one.
                continue;
            }
            let rest = &name[lcp..];
            let k = common_prefix(suffix, rest);
            m = lcp + k;
            match (suffix.get(k), rest.get(k)) {
                (None, None) => return Some(self.order.get(b * BUCKET + i)),
                (None, Some(_)) => {}
                (Some(s), Some(q)) if s < q => {}
                _ => return None,
            }
        }
        None
    }

    /// The bytes of the name of sorted rank `r`: borrowed when it heads a
    /// bucket, decoded otherwise.
    fn name(&self, r: usize) -> Cow<'_, [u8]> {
        let mut cursor = self.bucket(r / BUCKET);
        let head = cursor.head().expect(VALID);
        if r.is_multiple_of(BUCKET) {
            return Cow::Borrowed(head);
        }
        let mut name = head.to_vec();
        for _ in 0..r % BUCKET {
            let (lcp, suffix) = cursor.entry().expect(VALID);
            name.truncate(lcp);
            name.extend_from_slice(suffix);
        }
        Cow::Owned(name)
    }

    /// Decodes every name in sorted order, calling `visit(name)` on each,
    /// and checks as it goes every invariant the lookups rely on: each
    /// bucket holds exactly its names, each shared prefix exists, each name
    /// is UTF-8 and greater than the one before. One sequential pass.
    fn walk(&self, mut visit: impl FnMut(&[u8])) -> Result<(), &'static str> {
        let mut name = Vec::new();
        for b in 0..self.buckets.len() {
            let mut cursor = self.bucket(b);
            for i in 0..self.bucket_len(b) {
                let truncated = "dictionary bucket ends inside a name";
                if i == 0 {
                    let head = cursor.head().ok_or(truncated)?;
                    if b > 0 && head <= &name[..] {
                        return Err("dictionary names are not strictly increasing");
                    }
                    name.clear();
                    name.extend_from_slice(head);
                } else {
                    let (lcp, suffix) = cursor.entry().ok_or(truncated)?;
                    if lcp > name.len() {
                        return Err("dictionary prefix is longer than the name before it");
                    }
                    if suffix <= &name[lcp..] {
                        return Err("dictionary names are not strictly increasing");
                    }
                    name.truncate(lcp);
                    name.extend_from_slice(suffix);
                }
                if std::str::from_utf8(&name).is_err() {
                    return Err("dictionary name is not valid UTF-8");
                }
                visit(&name);
            }
            if cursor.at != cursor.bytes.len() {
                return Err("dictionary bucket has bytes after its last name");
            }
        }
        Ok(())
    }

    /// Checks the arrays of a section before any lookup reads them. O(n)
    /// and sequential but for `order[rank[i]]`, allocating one name.
    fn validate(&self) -> Result<(), &'static str> {
        let n = self.len();
        if self.rank.len() != n {
            return Err("dictionary permutations differ in length");
        }
        let width = bits_for(n.saturating_sub(1) as u64);
        if self.order.width() != width || self.rank.width() != width {
            return Err("dictionary permutations have the wrong width");
        }
        if self.buckets.len() != n.div_ceil(BUCKET) {
            return Err("dictionary bucket table has the wrong length");
        }
        let data_len = self.data.len() as u64;
        if self.buckets.first().is_some_and(|&start| start != 0)
            || self.buckets.iter().any(|&start| start > data_len)
            || (n == 0 && data_len != 0)
        {
            return Err("dictionary bucket offsets are out of bounds");
        }
        if self.buckets.windows(2).any(|w| w[0] > w[1]) {
            return Err("dictionary bucket offsets are not monotone");
        }
        self.walk(|_| {})?;
        for id in 0..n {
            let r = self.rank.get(id);
            if r >= n as u64 || self.order.get(r as usize) != id as u64 {
                return Err("dictionary rank is not the inverse of order");
            }
        }
        Ok(())
    }
}

impl Dict {
    /// Creates an empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// A dictionary whose base is the arrays of a `RRPQM01` dictionary
    /// section, validating every invariant [`Dict::name`]/[`Dict::get`]
    /// later rely on: bucket offsets in bounds and monotone, each shared
    /// prefix no longer than the name before it, each name valid UTF-8 and
    /// strictly greater than the one before (which also proves the names
    /// distinct), and `order[rank[i]] == i` for every id.
    pub(crate) fn from_mapped_parts(parts: FrontCoded) -> Result<Self, &'static str> {
        parts.validate()?;
        Ok(Self {
            heads: HeadKeys::of(&parts),
            base: parts,
            new: Heap::default(),
        })
    }

    /// The base's arrays with the new part folded in — what the `RRPQM01`
    /// writer stores, and what [`Self::encode`] keeps. Borrowed when no
    /// name is new; otherwise the base's names, walked in sorted order,
    /// are merged with the new ones sorted, ids unchanged.
    pub(crate) fn to_mapped_parts(&self) -> Cow<'_, FrontCoded> {
        if self.new.len() == 0 {
            return Cow::Borrowed(&self.base);
        }
        let mut fresh: Vec<Id> = (0..self.new.len() as Id).collect();
        fresh.sort_unstable_by(|&a, &b| self.new.bytes(a).cmp(self.new.bytes(b)));
        let mut fresh = fresh.into_iter().peekable();
        let first = self.base.len() as Id;
        let mut out = Encoder::default();
        let mut r = 0;
        self.base
            .walk(|name| {
                while let Some(i) = fresh.next_if(|&i| self.new.bytes(i) < name) {
                    out.push(self.new.bytes(i), first + i);
                }
                out.push(name, self.base.order.get(r));
                r += 1;
            })
            .expect(VALID);
        for i in fresh {
            out.push(self.new.bytes(i), first + i);
        }
        Cow::Owned(out.finish())
    }

    /// Folds the names interned since the base was encoded into it, ids
    /// unchanged (`to_mapped_parts`). O(names) beyond the sort of
    /// the new ones; nothing when none is new.
    pub fn encode(&mut self) {
        if let Cow::Owned(base) = self.to_mapped_parts() {
            self.heads = HeadKeys::of(&base);
            self.base = base;
            self.new = Heap::default();
        }
    }

    /// Returns the id of `name`, interning it into the new part if the
    /// dictionary has no such name.
    pub fn intern(&mut self, name: &str) -> Id {
        match self.base.get(&self.heads, name.as_bytes()) {
            Some(id) => id,
            None => self.base.len() as Id + self.new.intern(name),
        }
    }

    /// Interns `names` in order and appends their ids to `ids` — what
    /// [`Self::intern`] on one after the other does, a block of names at a
    /// time while the base is empty, as it is under a build. A lookup in a
    /// table that has outgrown the caches is two dependent misses, the
    /// slot and then the name; here the home slots of a block are gathered
    /// before any is looked at, so the misses overlap. Names the block
    /// pass does not find take [`Self::intern`].
    pub(crate) fn intern_many(&mut self, names: &[&str], ids: &mut Vec<Id>) {
        if self.base.len() == 0 {
            self.new.intern_many(names, ids);
        } else {
            ids.extend(names.iter().map(|name| self.intern(name)));
        }
    }

    /// Interns every name of `other` and returns their ids here, in
    /// `other`'s id order ([`Self::intern_many`] over its names).
    pub(crate) fn intern_all(&mut self, other: &Dict) -> Vec<Id> {
        let mut ids = Vec::with_capacity(other.len());
        let mut block = Vec::with_capacity(BLOCK);
        for first in (0..other.len()).step_by(BLOCK) {
            block.clear();
            block.extend((first..other.len().min(first + BLOCK)).map(|id| other.name(id as Id)));
            let mut names = [""; BLOCK];
            for (name, owned) in names.iter_mut().zip(&block) {
                *name = &**owned;
            }
            self.intern_many(&names[..block.len()], &mut ids);
        }
        ids
    }

    /// The id of `name`, if interned: O(log(n / [`BUCKET`])) key
    /// comparisons and one bucket scan in the base, then, if it is not
    /// there and names were interned since, O(1) in the new part.
    pub fn get(&self, name: &str) -> Option<Id> {
        let bytes = name.as_bytes();
        match self.base.get(&self.heads, bytes) {
            Some(id) => Some(id),
            None if self.new.len() == 0 => None,
            None => Some(self.base.len() as Id + self.new.find(bytes, hash32(bytes))?),
        }
    }

    /// The name of `id`: decoded out of its bucket in the base (borrowed
    /// when it heads one), borrowed from the arena in the new part.
    ///
    /// # Panics
    /// Panics if `id` was never interned.
    pub fn name(&self, id: Id) -> Cow<'_, str> {
        if let Some(i) = (id as usize).checked_sub(self.base.len()) {
            return Cow::Borrowed(self.new.name(i as Id));
        }
        // SAFETY: the base's names are valid UTF-8: `from_mapped_parts`
        // validated them whole, and `Encoder` is given `&str`s' bytes.
        match self.base.name(self.base.rank.get(id as usize) as usize) {
            Cow::Borrowed(bytes) => Cow::Borrowed(unsafe { std::str::from_utf8_unchecked(bytes) }),
            Cow::Owned(bytes) => Cow::Owned(unsafe { String::from_utf8_unchecked(bytes) }),
        }
    }

    /// Number of interned names.
    pub fn len(&self) -> usize {
        self.base.len() + self.new.len()
    }

    /// Whether the dictionary is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates `(id, name)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (Id, Cow<'_, str>)> {
        (0..self.len() as Id).map(move |id| (id, self.name(id)))
    }

    /// Payload bytes: the base's four arrays, wherever they live, and the
    /// new part's arena and table.
    pub fn size_bytes(&self) -> usize {
        let b = &self.base;
        let base = b.data.size_bytes() + b.buckets.size_bytes();
        base + b.order.size_bytes() + b.rank.size_bytes() + self.new.size_bytes()
    }

    /// The bytes of [`Self::size_bytes`] on the heap: the base's unless
    /// it borrows a mapped file, and the new part's.
    pub fn heap_bytes(&self) -> usize {
        let b = &self.base;
        let base = b.data.heap_bytes() + b.buckets.heap_bytes();
        base + b.order.heap_bytes() + b.rank.heap_bytes() + self.new.size_bytes()
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
        let pairs: Vec<(Id, String)> = d.iter().map(|(i, n)| (i, n.into_owned())).collect();
        assert_eq!(
            pairs,
            vec![(0, "x".into()), (1, "y".into()), (2, "z".into())]
        );
    }

    /// `d` as an open reads it back: its arrays, encoded and validated,
    /// over heap-owned copies.
    fn mapped(d: &Dict) -> Dict {
        Dict::from_mapped_parts(d.to_mapped_parts().into_owned())
            .expect("the writer's arrays are valid")
    }

    /// The four arrays of a section, to compare.
    fn arrays(p: &FrontCoded) -> (Vec<u8>, Vec<u64>, Vec<u64>, Vec<u64>) {
        (
            p.data.to_vec(),
            p.buckets.to_vec(),
            p.order.iter().collect(),
            p.rank.iter().collect(),
        )
    }

    #[test]
    fn mapped_parts_roundtrip_on_owned_slabs() {
        let mut d = Dict::new();
        for n in ["<zeta>", "<alpha>", "_:b0", "\"lit\"@en", "<mid>"] {
            d.intern(n);
        }
        let mut m = mapped(&d);
        assert_eq!(m.len(), d.len());
        for (id, name) in d.iter() {
            assert_eq!(m.name(id), name, "name({id})");
            assert_eq!(m.get(&name), Some(id), "get({name})");
        }
        assert_eq!(m.get("<nope>"), None);
        assert_eq!(m.intern("<new>"), d.len() as Id);
        assert_eq!(m.intern("<zeta>"), 0);
        assert_eq!(m.get("<new>"), Some(d.len() as Id));
    }

    /// A section put together by hand: `data` and `buckets` as given, the
    /// permutations the identity.
    fn by_hand(data: &[u8], buckets: &[u64], n: usize) -> FrontCoded {
        let ids: Vec<u64> = (0..n as u64).collect();
        FrontCoded {
            data: data.to_vec().into(),
            buckets: buckets.to_vec().into(),
            order: IntVec::from_slice(&ids),
            rank: IntVec::from_slice(&ids),
        }
    }

    /// Every rule `from_mapped_parts` checks rejects its own corruption,
    /// with its own message.
    #[test]
    fn mapped_parts_validation_rejects_corruption() {
        let mut d = Dict::new();
        for i in 0..40 {
            d.intern(&format!("<n{i}>"));
        }
        let valid = d.to_mapped_parts().into_owned();
        let rejects = |parts: FrontCoded, message: &str| {
            assert_eq!(Dict::from_mapped_parts(parts).unwrap_err(), message);
        };
        let (data, buckets, order, rank) = arrays(&valid);
        assert_eq!(buckets.len(), 3);

        let mut p = valid.clone();
        p.rank = IntVec::from_slice(&rank[..39]);
        rejects(p, "dictionary permutations differ in length");

        let mut p = valid.clone();
        let mut wide = IntVec::new(p.order.width() + 1);
        order.iter().for_each(|&id| wide.push(id));
        p.order = wide;
        rejects(p, "dictionary permutations have the wrong width");

        let mut p = valid.clone();
        p.buckets = buckets[..2].to_vec().into();
        rejects(p, "dictionary bucket table has the wrong length");

        for (at, bad) in [(0, 1), (2, data.len() as u64 + 1)] {
            let mut p = valid.clone();
            let mut moved = buckets.clone();
            moved[at] = bad;
            p.buckets = moved.into();
            rejects(p, "dictionary bucket offsets are out of bounds");
        }
        rejects(
            by_hand(&[1, b'a'], &[], 0),
            "dictionary bucket offsets are out of bounds",
        );

        let mut p = valid.clone();
        p.buckets = vec![0, buckets[2], buckets[1]].into();
        rejects(p, "dictionary bucket offsets are not monotone");

        let mut p = valid.clone();
        p.data = data[..data.len() - 1].to_vec().into();
        rejects(p, "dictionary bucket ends inside a name");
        // ... and a length varint that never ends.
        rejects(
            by_hand(&[0x80; 11], &[0], 1),
            "dictionary bucket ends inside a name",
        );

        let mut p = valid.clone();
        p.data = [&data[..], b"!"].concat().into();
        rejects(p, "dictionary bucket has bytes after its last name");

        // "a", then 2 bytes shared with it.
        rejects(
            by_hand(&[1, b'a', 2, 1, b'b'], &[0], 2),
            "dictionary prefix is longer than the name before it",
        );

        rejects(
            by_hand(&[1, 0xFF], &[0], 1),
            "dictionary name is not valid UTF-8",
        );
        // "é" as its two bytes, then its first byte and 0xFF: sorted, and
        // the shared prefix splits the character.
        rejects(
            by_hand(&[2, 0xC3, 0xA9, 1, 1, 0xFF], &[0], 2),
            "dictionary name is not valid UTF-8",
        );

        // "b", then "a": in a bucket, and across two.
        rejects(
            by_hand(&[1, b'b', 0, 1, b'a'], &[0], 2),
            "dictionary names are not strictly increasing",
        );
        let mut across = vec![1, b'b'];
        for _ in 1..BUCKET {
            across.extend([1, 1, b'c']);
        }
        let second = across.len() as u64;
        across.extend([1, b'b']);
        rejects(
            by_hand(&across, &[0, second], BUCKET + 1),
            "dictionary names are not strictly increasing",
        );
        // The same name twice.
        rejects(
            by_hand(&[1, b'a', 1, 0], &[0], 2),
            "dictionary names are not strictly increasing",
        );

        let mut p = valid.clone();
        let mut swapped = order.clone();
        swapped.swap(3, 4);
        p.order = IntVec::from_slice(&swapped);
        rejects(p, "dictionary rank is not the inverse of order");

        assert!(Dict::from_mapped_parts(valid).is_ok());
    }

    /// A shared prefix shorter than the longest one is still a valid
    /// encoding, and a lookup does not rely on it being the longest.
    #[test]
    fn lookups_do_not_assume_the_longest_shared_prefix() {
        // "ab", "abc" written out in full, "abd" as "a" + "bd".
        let d = Dict::from_mapped_parts(by_hand(
            &[2, b'a', b'b', 0, 3, b'a', b'b', b'c', 1, 2, b'b', b'd'],
            &[0],
            3,
        ))
        .expect("sorted and well-formed");
        for (id, name) in ["ab", "abc", "abd"].into_iter().enumerate() {
            assert_eq!(d.get(name), Some(id as Id));
            assert_eq!(d.name(id as Id), name);
        }
        for miss in ["", "a", "aa", "abb", "abca", "abe", "b"] {
            assert_eq!(d.get(miss), None, "{miss:?}");
        }
    }

    /// The parent's heap dictionary — every name a `String`, kept in a
    /// vector and again as a map key — and a second, plain encoder of the
    /// section: what the arena and the writer must reproduce byte for
    /// byte.
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

        fn front_coded(&self) -> (Vec<u8>, Vec<u64>, Vec<u64>, Vec<u64>) {
            let leb128 = |data: &mut Vec<u8>, mut x: usize| loop {
                let low = (x & 0x7F) as u8;
                x >>= 7;
                if x == 0 {
                    data.push(low);
                    break;
                }
                data.push(low | 0x80);
            };
            let mut order: Vec<u64> = (0..self.names.len() as u64).collect();
            order.sort_unstable_by(|&a, &b| self.names[a as usize].cmp(&self.names[b as usize]));
            let mut rank = vec![0u64; order.len()];
            for (r, &id) in order.iter().enumerate() {
                rank[id as usize] = r as u64;
            }
            let (mut data, mut buckets) = (Vec::new(), Vec::new());
            for bucket in order.chunks(16) {
                buckets.push(data.len() as u64);
                let head = self.names[bucket[0] as usize].as_bytes();
                leb128(&mut data, head.len());
                data.extend_from_slice(head);
                for pair in bucket.windows(2) {
                    let [prev, name] =
                        [pair[0], pair[1]].map(|id| self.names[id as usize].as_bytes());
                    let lcp = (0..prev.len().min(name.len()))
                        .find(|&i| prev[i] != name[i])
                        .unwrap_or(prev.len().min(name.len()));
                    leb128(&mut data, lcp);
                    leb128(&mut data, name.len() - lcp);
                    data.extend_from_slice(&name[lcp..]);
                }
            }
            (data, buckets, order, rank)
        }
    }

    /// A stream of names with repeats: IRIs sharing long prefixes, blank
    /// nodes, literals, multi-byte text (some of it sharing a prefix that
    /// ends inside a character), the empty name and names that are
    /// prefixes of each other or differ only in trailing NULs, and names of
    /// 128 bytes and more, whose lengths take two varint bytes.
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
                match next(10) {
                    0 => format!("_:b{k}"),
                    1 => format!("\"name {k}\"@en"),
                    2 => format!("\"größe {k} → ∞\""),
                    3 => "x".repeat(k as usize % 20),
                    4 => format!("x{}", "\0".repeat(k as usize % 20)),
                    // é ê → ← : C3 A9, C3 AA, E2 86 92, E2 86 90.
                    5 => format!("{}{}", ['é', 'ê', '→', '←'][k as usize % 4], k / 4),
                    6 => format!(
                        "<http://example.org/{}/{k}>",
                        "long".repeat(k as usize % 64)
                    ),
                    _ => format!("<http://example.org/entity/Q{k}>"),
                }
            })
            .collect()
    }

    /// `d` answers as `expected` (id order) does, through every accessor.
    fn assert_answers(d: &Dict, expected: &[(Id, &str)], context: &str) {
        assert_eq!(d.len(), expected.len(), "{context}");
        assert_eq!(d.is_empty(), expected.is_empty(), "{context}");
        let listed: Vec<(Id, String)> = d.iter().map(|(id, n)| (id, n.into_owned())).collect();
        let want: Vec<(Id, String)> = expected.iter().map(|&(id, n)| (id, n.into())).collect();
        assert_eq!(listed, want, "iter, {context}");
        for &(id, name) in expected {
            assert_eq!(d.get(name), Some(id), "{context}: get({name:?})");
            assert_eq!(d.name(id), name, "{context}: name({id})");
        }
        for miss in ["<never interned>", "\0", "x\u{1}", "é", "\u{10FFFF}"] {
            if !expected.iter().any(|&(_, n)| n == miss) {
                assert_eq!(d.get(miss), None, "{context}: get({miss:?})");
            }
        }
    }

    #[test]
    fn arena_matches_the_reference_dictionary() {
        for seed in [1u64, 2, 3] {
            for n in [0usize, 1, 15, 16, 17, 1000, 20_000] {
                let context = format!("seed {seed}, n {n}");
                let mut d = Dict::new();
                let mut r = Reference::default();
                for name in name_stream(seed, n) {
                    assert_eq!(d.intern(&name), r.intern(&name), "intern({name:?})");
                }
                let expected: Vec<(Id, &str)> =
                    (0..).zip(r.names.iter().map(String::as_str)).collect();
                assert_answers(&d, &expected, &format!("new part, {context}"));

                // The arrays of the writer, from the new part alone.
                assert_eq!(arrays(&d.to_mapped_parts()), r.front_coded(), "{context}");

                // Read back, with an empty new part: same answers, same
                // arrays.
                let mut m = mapped(&d);
                assert_answers(&m, &expected, &format!("encoded, {context}"));
                assert_eq!(arrays(&m.to_mapped_parts()), r.front_coded(), "{context}");

                // More names interned into it — repeats of base names,
                // fresh names and repeats of those — go on where the ids
                // left off, and encoding base ⊎ new keeps every id.
                let more = name_stream(seed + 10, n / 2 + 20);
                let again: Vec<String> = r.names.iter().step_by(3).cloned().collect();
                for name in more.iter().cloned().chain(again).chain(more.clone()) {
                    assert_eq!(m.intern(&name), r.intern(&name), "intern({name:?})");
                }
                let expected: Vec<(Id, &str)> =
                    (0..).zip(r.names.iter().map(String::as_str)).collect();
                assert_answers(&m, &expected, &format!("base + new, {context}"));
                assert_eq!(arrays(&m.to_mapped_parts()), r.front_coded(), "{context}");
                m.encode();
                assert_answers(&m, &expected, &format!("re-encoded, {context}"));
                assert_eq!(arrays(&m.to_mapped_parts()), r.front_coded(), "{context}");
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
            assert_eq!(
                arrays(&many.to_mapped_parts()),
                arrays(&one.to_mapped_parts())
            );
            // A whole dictionary into another that knows half its names.
            let mut half = Dict::new();
            for name in names.iter().step_by(2) {
                half.intern(name);
            }
            let mut model = half.clone();
            let expected: Vec<Id> = one.iter().map(|(_, n)| model.intern(&n)).collect();
            assert_eq!(half.intern_all(&one), expected, "seed {seed}");
            assert_eq!(
                arrays(&half.to_mapped_parts()),
                arrays(&model.to_mapped_parts())
            );
            // ... and into an encoded one, which knows all of them or half.
            let mut encoded = mapped(&one);
            let same: Vec<Id> = (0..one.len() as Id).collect();
            assert_eq!(encoded.intern_all(&one), same);
            let mut encoded = mapped(&half);
            assert_eq!(encoded.intern_all(&one), expected, "seed {seed}");
            assert_eq!(
                arrays(&encoded.to_mapped_parts()),
                arrays(&model.to_mapped_parts())
            );
            // ... and from an encoded one.
            let mut into = Dict::new();
            assert_eq!(into.intern_all(&mapped(&one)), same);
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

    /// Names a random stream may miss, in every form: one longer than a
    /// heap slot can record, the names that are its prefixes, the empty
    /// name, NULs, names sharing a prefix that ends inside a character.
    #[test]
    fn edge_names_survive_the_mapped_form() {
        let long = "x".repeat(LONG + 1);
        let names = [
            long.as_str(),
            "x",
            "",
            "\0",
            "\0\0",
            "x\0",
            &long[..200],
            &long[..128],
            "é",
            "ê",
            "→",
            "←",
            "ab",
            "a",
        ];
        let mut d = Dict::new();
        for name in names {
            d.intern(name);
        }
        let expected: Vec<(Id, &str)> = (0..).zip(names).collect();
        let mut m = mapped(&d);
        assert_answers(&m, &expected, "encoded");
        assert_eq!(m.get(&long[..LONG]), None);
        assert_eq!(m.get(&format!("{long}x")), None);
        assert_eq!(m.intern("b"), names.len() as Id);
        m.encode();
        let expected: Vec<(Id, &str)> = (0..).zip(names.into_iter().chain(["b"])).collect();
        assert_answers(&m, &expected, "re-encoded");
    }

    #[test]
    fn heap_form_holds_each_name_once() {
        let n = 100_000usize;
        let mut d = Dict::new();
        let mut blob = 0;
        for i in 0..n {
            let name = format!("<http://example.org/entity/Q{i}>");
            blob += name.len();
            d.intern(&name);
        }
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
        // Encoded: a fraction of the names' bytes, then two packed
        // permutations of 17 bits an id and a word per bucket, and an
        // empty new part.
        d.encode();
        let packed = 2 * (n * 17).div_ceil(64) * 8 + n.div_ceil(BUCKET) * 8;
        let empty = Dict::new().size_bytes();
        assert!(
            d.size_bytes() < blob / 2 + packed + empty,
            "{} bytes encoded over a {blob}-byte blob",
            d.size_bytes()
        );
    }
}
