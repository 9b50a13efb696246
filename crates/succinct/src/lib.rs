#![warn(missing_docs)]

//! Succinct data structures underlying the ring index.
//!
//! This crate re-implements, natively in Rust, the subset of succinct data
//! structures that the Ring-RPQ system (Arroyuelo, Hogan, Navarro,
//! Rojas-Ledesma; arXiv:2111.04556) takes from `sdsl-lite`:
//!
//! * [`BitVec`]: a plain, growable bit vector.
//! * [`RankSelect`]: an immutable bit vector with *O*(1) `rank` and
//!   fast `select`, the primitive everything else is built from (§3.5 of the
//!   paper, \[10, 39\]).
//! * [`IntVec`]: a fixed-width packed integer vector (the "plain
//!   representation" the paper compares index sizes against).
//! * [`WaveletMatrix`]: the wavelet matrix of Claude, Navarro and
//!   Ordóñez \[11\], the representation the paper's implementation uses for
//!   the large-alphabet sequences `L_s` and `L_p` (§5). It exposes the
//!   *guided traversal* API that the RPQ engine uses to realize the
//!   B-masked and D-masked range searches of §4.1–§4.2: one range at a
//!   time ([`wavelet_matrix::RangeGuide`], depth first), or a whole
//!   frontier of ranges level by level
//!   ([`wavelet_matrix::MultiTraversal`]), where a level's rank probes
//!   are independent of one another and their cache misses overlap.
//!
//! All structures report their heap footprint through [`SpaceUsage`], which
//! the benchmark harness uses to regenerate the space column of Table 2.

pub mod bitvec;
pub mod checksum;
pub mod elias_fano;
pub mod int_vec;
pub mod io;
pub mod mapped;
pub mod mmap;
pub mod rank_select;
pub mod storage;
pub mod util;
pub mod wavelet_matrix;

pub use bitvec::BitVec;
pub use checksum::{crc32c, Crc32c};
pub use elias_fano::EliasFano;
pub use int_vec::IntVec;
pub use mmap::{MappedFile, ResidentMode};
pub use rank_select::RankSelect;
pub use storage::Slab;
pub use wavelet_matrix::WaveletMatrix;

/// Space accounting, in bytes, for regenerating the paper's Table 2
/// (index space in bytes per edge).
pub trait SpaceUsage {
    /// Total bytes of this structure's payload, on the heap or in a mapped
    /// file — the figure does not depend on where an index was opened
    /// from (excluding `size_of::<Self>()` unless noted otherwise).
    fn size_bytes(&self) -> usize;
}

impl<T: Copy> SpaceUsage for Vec<T> {
    fn size_bytes(&self) -> usize {
        self.capacity() * std::mem::size_of::<T>()
    }
}
