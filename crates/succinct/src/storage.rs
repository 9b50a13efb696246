//! Borrow-or-own word storage behind the succinct structures.
//!
//! A [`Slab`] is an immutable array of plain words that either owns a
//! heap `Vec<T>` or borrows an 8-byte-aligned region of a memory-mapped
//! index file ([`crate::mmap::MappedFile`]). Readers always go through a
//! cached `(ptr, len)` pair, so the heap and mapped paths compile to the
//! same branch-free slice access — the zero-copy trick of mappable
//! succinct archives: the structure's query code never knows (or pays
//! for) where its words live.

use std::ops::Deref;
use std::sync::Arc;

use crate::mmap::MappedFile;
use crate::SpaceUsage;

mod sealed {
    pub trait Sealed {}
    impl Sealed for u8 {}
    impl Sealed for u32 {}
    impl Sealed for u64 {}
}

/// Plain-old-data element types a [`Slab`] may hold: fixed-size
/// little-endian integers with no padding and no invalid bit patterns,
/// so reinterpreting mapped file bytes as `[T]` is sound (given the
/// alignment the mapped format guarantees).
pub trait Pod: sealed::Sealed + Copy + Send + Sync + 'static {}
impl Pod for u8 {}
impl Pod for u32 {}
impl Pod for u64 {}

enum Backing<T: Pod> {
    /// Heap storage (the build path and the non-mmap load fallback).
    Owned(Vec<T>),
    /// A region of a mapped file, kept alive by the `Arc`.
    Mapped(Arc<MappedFile>),
}

/// An immutable array of words, heap-owned or borrowed from a mapped
/// file, with branch-free `&[T]` access either way.
pub struct Slab<T: Pod> {
    /// Cached view into the backing; recomputed whenever the backing
    /// changes (never for mapped slabs — the map is pinned by the Arc).
    ptr: *const T,
    len: usize,
    backing: Backing<T>,
}

// SAFETY: a `Slab` is immutable through `&self` (mutators require
// `&mut`), the owned backing is owned by the slab itself, and the mapped
// backing is a read-only private mapping pinned by an `Arc`.
unsafe impl<T: Pod> Send for Slab<T> {}
unsafe impl<T: Pod> Sync for Slab<T> {}

impl<T: Pod> Slab<T> {
    /// An empty owned slab.
    pub fn new() -> Self {
        Vec::new().into()
    }

    /// Wraps `n` elements of `map` starting at `byte_offset`.
    ///
    /// The caller (the mapped-format reader) must have verified that the
    /// region lies within the map and that `byte_offset` is aligned to
    /// `align_of::<T>()`; both are re-asserted here because a misaligned
    /// reinterpretation would be undefined behavior, not just a wrong
    /// answer.
    pub(crate) fn from_mapped(map: Arc<MappedFile>, byte_offset: usize, n: usize) -> Self {
        let bytes = map.as_bytes();
        let end = byte_offset
            .checked_add(n * std::mem::size_of::<T>())
            .expect("mapped slab range overflows");
        assert!(end <= bytes.len(), "mapped slab out of bounds");
        let ptr = unsafe { bytes.as_ptr().add(byte_offset) } as *const T;
        assert!(
            (ptr as usize).is_multiple_of(std::mem::align_of::<T>()),
            "mapped slab is misaligned"
        );
        Self {
            ptr,
            len: n,
            backing: Backing::Mapped(map),
        }
    }

    /// Whether this slab borrows a mapped file (vs owning heap memory).
    pub fn is_mapped(&self) -> bool {
        matches!(self.backing, Backing::Mapped(_))
    }

    /// Appends an element. Only owned slabs grow.
    ///
    /// # Panics
    /// Panics on a mapped slab (mapped structures are immutable).
    pub fn push(&mut self, x: T) {
        match &mut self.backing {
            Backing::Owned(v) => {
                v.push(x);
                self.ptr = v.as_ptr();
                self.len = v.len();
            }
            Backing::Mapped(_) => panic!("cannot grow a mapped slab"),
        }
    }

    /// Appends a run of elements. Only owned slabs grow.
    ///
    /// # Panics
    /// Panics on a mapped slab (mapped structures are immutable).
    pub fn extend_from_slice(&mut self, xs: &[T]) {
        match &mut self.backing {
            Backing::Owned(v) => {
                v.extend_from_slice(xs);
                self.ptr = v.as_ptr();
                self.len = v.len();
            }
            Backing::Mapped(_) => panic!("cannot grow a mapped slab"),
        }
    }

    /// Reserves capacity for `additional` more elements. Only owned
    /// slabs grow.
    ///
    /// # Panics
    /// Panics on a mapped slab (mapped structures are immutable).
    pub fn reserve(&mut self, additional: usize) {
        match &mut self.backing {
            Backing::Owned(v) => {
                v.reserve(additional);
                self.ptr = v.as_ptr();
            }
            Backing::Mapped(_) => panic!("cannot grow a mapped slab"),
        }
    }

    /// Mutable access to the elements. Only owned slabs mutate.
    ///
    /// # Panics
    /// Panics on a mapped slab (mapped structures are immutable).
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        match &mut self.backing {
            Backing::Owned(v) => v.as_mut_slice(),
            Backing::Mapped(_) => panic!("cannot mutate a mapped slab"),
        }
    }

    /// Heap bytes owned by this slab (0 when it borrows a map — that
    /// memory is the kernel page cache's, which is the whole point).
    pub fn heap_bytes(&self) -> usize {
        match &self.backing {
            Backing::Owned(v) => v.capacity() * std::mem::size_of::<T>(),
            Backing::Mapped(_) => 0,
        }
    }
}

impl<T: Pod> Default for Slab<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Pod> From<Vec<T>> for Slab<T> {
    fn from(v: Vec<T>) -> Self {
        Self {
            ptr: v.as_ptr(),
            len: v.len(),
            backing: Backing::Owned(v),
        }
    }
}

impl<T: Pod> Deref for Slab<T> {
    type Target = [T];

    #[inline]
    fn deref(&self) -> &[T] {
        // SAFETY: `ptr`/`len` always describe the live backing — the
        // owned vector (whose buffer only moves under `&mut self`, which
        // refreshes the cache) or the pinned mapped region.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }
}

impl<T: Pod> Clone for Slab<T> {
    fn clone(&self) -> Self {
        match &self.backing {
            Backing::Owned(v) => v.clone().into(),
            Backing::Mapped(m) => Self {
                ptr: self.ptr,
                len: self.len,
                backing: Backing::Mapped(Arc::clone(m)),
            },
        }
    }
}

impl<T: Pod + std::fmt::Debug> std::fmt::Debug for Slab<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<T: Pod + PartialEq> PartialEq for Slab<T> {
    fn eq(&self, other: &Self) -> bool {
        self[..] == other[..]
    }
}

impl<T: Pod + Eq> Eq for Slab<T> {}

/// The bytes the elements occupy wherever they live: the vector's
/// allocation, or this slab's part of the mapped file.
impl<T: Pod> SpaceUsage for Slab<T> {
    fn size_bytes(&self) -> usize {
        match &self.backing {
            Backing::Owned(_) => self.heap_bytes(),
            Backing::Mapped(_) => self.len * std::mem::size_of::<T>(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn owned_roundtrip_and_growth() {
        let mut s: Slab<u64> = vec![1, 2, 3].into();
        assert_eq!(&s[..], &[1, 2, 3]);
        assert!(!s.is_mapped());
        for i in 0..1000 {
            s.push(i);
        }
        assert_eq!(s.len(), 1003);
        assert_eq!(s[1002], 999);
        s.extend_from_slice(&[5; 3000]);
        assert_eq!((s.len(), s[1002], s[4002]), (4003, 999, 5));
        let c = s.clone();
        assert_eq!(c, s);
        s.as_mut_slice()[0] = 7;
        assert_eq!(s[0], 7);
        assert_eq!(c[0], 1, "clone is independent");
    }

    #[test]
    fn empty_slab_is_safe() {
        let s: Slab<u32> = Slab::new();
        assert!(s.is_empty());
        assert_eq!(&s[..], &[] as &[u32]);
        assert_eq!(s.heap_bytes(), 0);
    }

    #[test]
    fn slab_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Slab<u64>>();
        assert_send_sync::<Slab<u32>>();
    }
}
