//! Building blocks of the mappable on-disk format.
//!
//! This module defines **in-place** encodings: every array lands in the
//! file 8-byte aligned and byte-for-byte identical to its in-memory
//! layout, so loading is a bounds/shape check plus a [`Slab`] pointing
//! into the mapped file. The directories are stored, not rebuilt — that
//! is what makes cold open O(header) instead of O(index).
//!
//! The format is little-endian and the in-place reader reinterprets file
//! bytes as native `u64`/`u32`, so opening is gated to little-endian
//! hosts.
//!
//! [`SectionWriter`] serializes one section (tracking its own offset so
//! it can self-align); [`MapReader`] walks a section of a
//! [`MappedFile`], enforcing bounds and the 8-byte alignment invariant
//! on every array it hands out. On top of those, this module provides
//! the codecs for the succinct primitives ([`RankBits`], [`RankSelect`],
//! [`IntVec`], [`WaveletMatrix`]); the ring crate composes them into
//! whole-index sections.

use std::io::{self, Write};
use std::sync::Arc;

use crate::mmap::MappedFile;
use crate::storage::Slab;
use crate::{IntVec, RankBits, RankSelect, WaveletMatrix};

/// Alignment (bytes) of every array in the mapped format: the strictest
/// alignment of the element types (`u64`).
pub const ALIGN: usize = 8;

/// A corrupt-data error.
pub fn err_data(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Whether this host can reinterpret the mapped format in place.
pub fn host_supported() -> bool {
    cfg!(target_endian = "little")
}

/// Writes one section of the mapped format, tracking the running offset
/// so arrays can be padded to [`ALIGN`] as they are emitted.
pub struct SectionWriter<W: Write> {
    out: W,
    pos: u64,
}

impl<W: Write> SectionWriter<W> {
    /// Starts a section at offset 0 of `out` (sections are positioned by
    /// the table of contents, which itself keeps them 8-byte aligned, so
    /// in-section offsets equal in-file alignment).
    pub fn new(out: W) -> Self {
        Self { out, pos: 0 }
    }

    /// Bytes written so far.
    pub fn pos(&self) -> u64 {
        self.pos
    }

    /// Finishes the section, returning the writer.
    pub fn into_inner(self) -> W {
        self.out
    }

    /// Writes one little-endian `u64`.
    pub fn u64(&mut self, x: u64) -> io::Result<()> {
        self.out.write_all(&x.to_le_bytes())?;
        self.pos += 8;
        Ok(())
    }

    /// Writes a `u64` array in file order.
    pub fn u64s(&mut self, xs: &[u64]) -> io::Result<()> {
        #[cfg(target_endian = "little")]
        {
            // SAFETY: reading a POD slice as bytes.
            let bytes = unsafe {
                std::slice::from_raw_parts(xs.as_ptr() as *const u8, std::mem::size_of_val(xs))
            };
            self.out.write_all(bytes)?;
        }
        #[cfg(not(target_endian = "little"))]
        for &x in xs {
            self.out.write_all(&x.to_le_bytes())?;
        }
        self.pos += 8 * xs.len() as u64;
        Ok(())
    }

    /// Writes a `u32` array in file order (callers pad afterwards).
    pub fn u32s(&mut self, xs: &[u32]) -> io::Result<()> {
        #[cfg(target_endian = "little")]
        {
            // SAFETY: reading a POD slice as bytes.
            let bytes = unsafe {
                std::slice::from_raw_parts(xs.as_ptr() as *const u8, std::mem::size_of_val(xs))
            };
            self.out.write_all(bytes)?;
        }
        #[cfg(not(target_endian = "little"))]
        for &x in xs {
            self.out.write_all(&x.to_le_bytes())?;
        }
        self.pos += 4 * xs.len() as u64;
        Ok(())
    }

    /// Writes raw bytes (callers pad afterwards).
    pub fn bytes(&mut self, xs: &[u8]) -> io::Result<()> {
        self.out.write_all(xs)?;
        self.pos += xs.len() as u64;
        Ok(())
    }

    /// Zero-pads to the next [`ALIGN`] boundary.
    pub fn pad(&mut self) -> io::Result<()> {
        let rem = (self.pos % ALIGN as u64) as usize;
        if rem != 0 {
            self.out.write_all(&[0u8; ALIGN][..ALIGN - rem])?;
            self.pos += (ALIGN - rem) as u64;
        }
        Ok(())
    }
}

/// Reads one section of a mapped file, enforcing bounds and the 8-byte
/// alignment invariant, and carving zero-copy [`Slab`]s out of it.
pub struct MapReader {
    map: Arc<MappedFile>,
    pos: usize,
    end: usize,
}

impl MapReader {
    /// A reader over `map[start..start + len]`.
    pub fn new(map: Arc<MappedFile>, start: usize, len: usize) -> io::Result<Self> {
        let end = start
            .checked_add(len)
            .ok_or_else(|| err_data("section range overflows"))?;
        if end > map.len() {
            return Err(err_data("section extends past end of file"));
        }
        Ok(Self {
            map,
            pos: start,
            end,
        })
    }

    /// Bytes left in the section.
    pub fn remaining(&self) -> usize {
        self.end - self.pos
    }

    /// Errors unless the section was consumed exactly.
    pub fn finish(self) -> io::Result<()> {
        if self.pos != self.end {
            return Err(err_data("section has trailing bytes"));
        }
        Ok(())
    }

    fn take(&mut self, n: usize) -> io::Result<usize> {
        if n > self.remaining() {
            return Err(err_data("section truncated"));
        }
        let at = self.pos;
        self.pos += n;
        Ok(at)
    }

    /// Reads one little-endian `u64`.
    pub fn u64(&mut self) -> io::Result<u64> {
        let at = self.take(8)?;
        let bytes = &self.map.as_bytes()[at..at + 8];
        Ok(u64::from_le_bytes(bytes.try_into().unwrap()))
    }

    /// Reads a `u64` declared as a length/count, bounding it so corrupt
    /// headers can't drive preallocation or multiplication overflow.
    pub fn len_u64(&mut self, max: u64) -> io::Result<usize> {
        let x = self.u64()?;
        if x > max {
            return Err(err_data(format!("declared length {x} exceeds limit {max}")));
        }
        Ok(x as usize)
    }

    fn aligned_to(&self, align: usize) -> bool {
        self.pos.is_multiple_of(align)
    }

    /// Borrows the next `n` `u64`s in place. The offset must sit on an
    /// [`ALIGN`] boundary — a misaligned `&[u64]` reinterpretation would
    /// be undefined behavior, so this is checked unconditionally.
    pub fn slab_u64(&mut self, n: usize) -> io::Result<Slab<u64>> {
        if !self.aligned_to(8) {
            return Err(err_data("u64 array is not 8-byte aligned"));
        }
        let bytes = n
            .checked_mul(8)
            .ok_or_else(|| err_data("u64 array length overflows"))?;
        let at = self.take(bytes)?;
        Ok(Slab::from_mapped(Arc::clone(&self.map), at, n))
    }

    /// Borrows the next `n` `u32`s in place, then skips the pad to the
    /// next [`ALIGN`] boundary.
    pub fn slab_u32(&mut self, n: usize) -> io::Result<Slab<u32>> {
        if !self.aligned_to(4) {
            return Err(err_data("u32 array is not 4-byte aligned"));
        }
        let bytes = n
            .checked_mul(4)
            .ok_or_else(|| err_data("u32 array length overflows"))?;
        let at = self.take(bytes)?;
        let slab = Slab::from_mapped(Arc::clone(&self.map), at, n);
        self.skip_pad()?;
        Ok(slab)
    }

    /// Borrows the next `n` bytes in place, then skips the pad to the
    /// next [`ALIGN`] boundary.
    pub fn slab_u8(&mut self, n: usize) -> io::Result<Slab<u8>> {
        let at = self.take(n)?;
        let slab = Slab::from_mapped(Arc::clone(&self.map), at, n);
        self.skip_pad()?;
        Ok(slab)
    }

    fn skip_pad(&mut self) -> io::Result<()> {
        let rem = self.pos % ALIGN;
        if rem != 0 {
            self.take(ALIGN - rem)?;
        }
        Ok(())
    }
}

/// Generous structural bound on element counts (2^40, ~1 T elements):
/// real indexes are far below it, and it keeps `count * width`
/// arithmetic comfortably inside `u64`.
pub const MAX_LEN: u64 = 1 << 40;

const WORDS_PER_SUPER: usize = 8;
const SUPER_STRIDE: usize = WORDS_PER_SUPER + 2;

/// Writes a [`RankBits`] in place: `[len, n_ones]`, then the
/// interleaved superblock records.
pub fn write_rank_bits<W: Write>(w: &mut SectionWriter<W>, bits: &RankBits) -> io::Result<()> {
    w.u64(bits.len() as u64)?;
    w.u64(bits.count_ones() as u64)?;
    w.u64s(bits.raw_parts())
}

/// Reads a [`RankBits`] written by [`write_rank_bits`], borrowing its
/// records from the mapped file.
pub fn read_rank_bits(r: &mut MapReader) -> io::Result<RankBits> {
    let len = r.len_u64(MAX_LEN)?;
    let n_ones = r.len_u64(MAX_LEN)?;
    let n_super = len.div_ceil(64).div_ceil(WORDS_PER_SUPER);
    let data = r.slab_u64(n_super * SUPER_STRIDE)?;
    RankBits::from_raw_parts(data, len, n_ones).map_err(err_data)
}

/// Writes a [`RankSelect`] in place: its [`RankBits`], `[rate1, rate0]`,
/// then both select sample directories.
pub fn write_rank_select<W: Write>(w: &mut SectionWriter<W>, rs: &RankSelect) -> io::Result<()> {
    let (bits, sel1, sel0) = rs.raw_parts();
    let (rate1, rate0) = rs.select_sample_rates();
    write_rank_bits(w, bits)?;
    w.u64(rate1 as u64)?;
    w.u64(rate0 as u64)?;
    w.u32s(sel1)?;
    w.pad()?;
    w.u32s(sel0)?;
    w.pad()
}

/// Reads a [`RankSelect`] written by [`write_rank_select`], borrowing
/// its arrays from the mapped file.
pub fn read_rank_select(r: &mut MapReader) -> io::Result<RankSelect> {
    let bits = read_rank_bits(r)?;
    let rate1 = r.len_u64(MAX_LEN)?;
    let rate0 = r.len_u64(MAX_LEN)?;
    if rate1 == 0 || rate0 == 0 {
        return Err(err_data("rank/select sample rate must be positive"));
    }
    let sel1 = r.slab_u32(bits.count_ones().div_ceil(rate1))?;
    let sel0 = r.slab_u32(bits.count_zeros().div_ceil(rate0))?;
    RankSelect::from_raw_parts(bits, sel1, sel0, rate1, rate0).map_err(err_data)
}

/// Writes an [`IntVec`] in place: `[width, len]` then the packed words.
pub fn write_int_vec<W: Write>(w: &mut SectionWriter<W>, v: &IntVec) -> io::Result<()> {
    w.u64(v.width() as u64)?;
    w.u64(v.len() as u64)?;
    w.u64s(v.words())
}

/// Reads an [`IntVec`] written by [`write_int_vec`].
pub fn read_int_vec(r: &mut MapReader) -> io::Result<IntVec> {
    let width = r.len_u64(64)?;
    let len = r.len_u64(MAX_LEN)?;
    if width == 0 {
        return Err(err_data("packed vector width must be positive"));
    }
    let words = r.slab_u64((len * width).div_ceil(64))?;
    IntVec::from_raw_parts(words, width, len).map_err(err_data)
}

/// Writes a [`WaveletMatrix`] in place: `[sigma, len]` then one
/// [`RankBits`] per bit level (the level count is implied by `sigma`;
/// the per-level zero counts are recomputed on load).
pub fn write_wavelet_matrix<W: Write>(
    w: &mut SectionWriter<W>,
    wm: &WaveletMatrix,
) -> io::Result<()> {
    w.u64(wm.sigma())?;
    w.u64(wm.len() as u64)?;
    for level in wm.raw_levels() {
        write_rank_bits(w, level)?;
    }
    Ok(())
}

/// Reads a [`WaveletMatrix`] written by [`write_wavelet_matrix`].
pub fn read_wavelet_matrix(r: &mut MapReader) -> io::Result<WaveletMatrix> {
    let sigma = r.u64()?;
    if sigma == 0 || sigma > MAX_LEN {
        return Err(err_data("wavelet matrix alphabet size out of range"));
    }
    let len = r.len_u64(MAX_LEN)?;
    let width = crate::int_vec::bits_for(sigma.saturating_sub(1)).max(1);
    let mut levels = Vec::with_capacity(width);
    for _ in 0..width {
        levels.push(read_rank_bits(r)?);
    }
    WaveletMatrix::from_raw_parts(levels, len, sigma).map_err(err_data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BitVec;

    fn write_section(
        f: impl FnOnce(&mut SectionWriter<&mut Vec<u8>>) -> io::Result<()>,
    ) -> Vec<u8> {
        let mut buf = Vec::new();
        let mut w = SectionWriter::new(&mut buf);
        f(&mut w).unwrap();
        w.pad().unwrap();
        buf
    }

    fn map_of(bytes: &[u8]) -> Arc<MappedFile> {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "rpq_mapped_unit_{}_{}",
            std::process::id(),
            bytes.len()
        ));
        std::fs::write(&p, bytes).unwrap();
        let m = MappedFile::open(&p).unwrap();
        std::fs::remove_file(&p).ok();
        m
    }

    #[test]
    fn rank_select_roundtrips_in_place() {
        let bits: Vec<bool> = (0..5000).map(|i| i % 7 == 0 || i % 31 == 4).collect();
        let rs = RankSelect::new(BitVec::from_bits(bits.iter().copied()));
        let buf = write_section(|w| write_rank_select(w, &rs));
        let map = map_of(&buf);
        let mut r = MapReader::new(Arc::clone(&map), 0, buf.len()).unwrap();
        let back = read_rank_select(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back.len(), rs.len());
        assert_eq!(back.count_ones(), rs.count_ones());
        for i in (0..=5000).step_by(13) {
            assert_eq!(back.rank1(i), rs.rank1(i));
        }
        for k in (0..rs.count_ones()).step_by(7) {
            assert_eq!(back.select1(k), rs.select1(k));
        }
        for k in (0..rs.count_zeros()).step_by(97) {
            assert_eq!(back.select0(k), rs.select0(k));
        }
        back.verify_deep().unwrap();
        // Write → read → write is byte-stable.
        assert_eq!(write_section(|w| write_rank_select(w, &back)), buf);
    }

    /// A rank-only vector — a wavelet-matrix level — comes back with its
    /// ranks, and its stored form is the select-sampled one's prefix.
    #[test]
    fn rank_bits_roundtrip_in_place() {
        let bits: Vec<bool> = (0..5000).map(|i| i % 7 == 0 || i % 31 == 4).collect();
        let rb = RankBits::new(BitVec::from_bits(bits.iter().copied()));
        let buf = write_section(|w| write_rank_bits(w, &rb));
        assert_eq!(buf.len(), 16 + 8 * rb.raw_parts().len());
        let map = map_of(&buf);
        let mut r = MapReader::new(Arc::clone(&map), 0, buf.len()).unwrap();
        let back = read_rank_bits(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!((back.len(), back.count_ones()), (rb.len(), rb.count_ones()));
        for i in 0..=5000 {
            assert_eq!(back.rank1(i), rb.rank1(i), "rank1({i})");
        }
        back.verify_deep().unwrap();
        assert_eq!(write_section(|w| write_rank_bits(w, &back)), buf);
        let rs = RankSelect::new(BitVec::from_bits(bits.iter().copied()));
        assert!(write_section(|w| write_rank_select(w, &rs)).starts_with(&buf));
    }

    #[test]
    fn wavelet_matrix_roundtrips_in_place() {
        let syms: Vec<u64> = (0..3000u64).map(|i| (i * 2654435761) % 117).collect();
        let wm = WaveletMatrix::new(&syms, 117);
        let buf = write_section(|w| write_wavelet_matrix(w, &wm));
        let map = map_of(&buf);
        let mut r = MapReader::new(map, 0, buf.len()).unwrap();
        let back = read_wavelet_matrix(&mut r).unwrap();
        r.finish().unwrap();
        for (i, &s) in syms.iter().enumerate() {
            assert_eq!(back.access(i), s, "access({i})");
        }
        assert_eq!(back.rank(33, 2500), wm.rank(33, 2500));
        assert_eq!(write_section(|w| write_wavelet_matrix(w, &back)), buf);
    }

    /// Every cut of a stored vector, with select samples or without, is
    /// an error and not a shorter vector.
    #[test]
    fn truncated_section_is_an_error() {
        let bits: Vec<bool> = (0..2000).map(|i| i % 3 == 0).collect();
        let rs = RankSelect::new(BitVec::from_bits(bits.iter().copied()));
        let buf = write_section(|w| write_rank_select(w, &rs));
        for cut in [0, 8, 31, buf.len() / 2, buf.len() - 1] {
            let map = map_of(&buf[..cut]);
            let mut r = MapReader::new(map, 0, cut).unwrap();
            assert!(read_rank_select(&mut r).is_err(), "cut at {cut}");
        }
        let level = write_section(|w| write_rank_bits(w, &rs));
        for cut in [0, 8, 15, level.len() / 2, level.len() - 8] {
            let map = map_of(&level[..cut]);
            let mut r = MapReader::new(map, 0, cut).unwrap();
            assert!(read_rank_bits(&mut r).is_err(), "level cut at {cut}");
        }
    }

    #[test]
    fn misaligned_u64_slab_is_rejected() {
        // A reader whose cursor lands off the 8-byte grid must refuse to
        // hand out a &[u64] view.
        let buf = vec![0u8; 64];
        let map = map_of(&buf);
        let mut r = MapReader::new(map, 0, 64).unwrap();
        r.slab_u8(4).unwrap(); // consumes 4 bytes + 4 pad — still aligned
        assert!(r.slab_u64(1).is_ok());
        let map2 = map_of(&buf);
        let mut r2 = MapReader::new(map2, 1, 32).unwrap();
        assert!(r2.slab_u64(1).is_err(), "offset 1 must be rejected");
    }

    #[test]
    fn oversized_declared_length_is_an_error() {
        // A header claiming 2^40 bits must fail fast on bounds, not
        // preallocate or overflow.
        let buf = write_section(|w| {
            w.u64(MAX_LEN)?; // len
            w.u64(1)?; // n_ones
            w.u64(16)?;
            w.u64(16)
        });
        let map = map_of(&buf);
        let mut r = MapReader::new(Arc::clone(&map), 0, buf.len()).unwrap();
        assert!(read_rank_select(&mut r).is_err());
        let mut r = MapReader::new(map, 0, buf.len()).unwrap();
        assert!(read_rank_bits(&mut r).is_err());
    }
}
