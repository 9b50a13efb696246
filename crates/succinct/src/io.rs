//! Binary persistence for the succinct structures.
//!
//! A small hand-rolled codec (little-endian framing, per-structure magic
//! tags, a format version) so indexes can be built once and memory-mapped
//! -free loaded later — the ring's 2.3 h Wikidata construction (§5) is
//! exactly the kind of cost one wants to pay once.
//!
//! Every structure implements [`Persist`]; round-trips are property-tested
//! and corrupted inputs fail with typed I/O errors rather than panics.

use std::io::{self, Read, Write};

use crate::{BitVec, IntVec, RankSelect, WaveletMatrix};

/// Format version written after each magic tag.
pub const FORMAT_VERSION: u32 = 1;

/// Serializable structure.
pub trait Persist: Sized {
    /// Magic tag identifying the structure kind.
    const MAGIC: [u8; 4];

    /// Writes the payload (after the magic/version header).
    fn write_payload(&self, w: &mut impl Write) -> io::Result<()>;

    /// Reads the payload (after the magic/version header).
    fn read_payload(r: &mut impl Read) -> io::Result<Self>;

    /// Writes magic, version and payload.
    fn write_to(&self, w: &mut impl Write) -> io::Result<()> {
        w.write_all(&Self::MAGIC)?;
        write_u32(w, FORMAT_VERSION)?;
        self.write_payload(w)
    }

    /// Reads and validates magic and version, then the payload.
    fn read_from(r: &mut impl Read) -> io::Result<Self> {
        let mut magic = [0u8; 4];
        r.read_exact(&mut magic)?;
        if magic != Self::MAGIC {
            return Err(bad_data(format!(
                "bad magic: expected {:?}, found {:?}",
                Self::MAGIC,
                magic
            )));
        }
        let version = read_u32(r)?;
        if version != FORMAT_VERSION {
            return Err(bad_data(format!(
                "unsupported format version {version} (expected {FORMAT_VERSION})"
            )));
        }
        Self::read_payload(r)
    }
}

/// `InvalidData` error helper.
pub fn bad_data(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Writes a `u32` little-endian.
pub fn write_u32(w: &mut impl Write, x: u32) -> io::Result<()> {
    w.write_all(&x.to_le_bytes())
}

/// Reads a `u32` little-endian.
pub fn read_u32(r: &mut impl Read) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

/// Writes a `u64` little-endian.
pub fn write_u64(w: &mut impl Write, x: u64) -> io::Result<()> {
    w.write_all(&x.to_le_bytes())
}

/// Reads a `u64` little-endian.
pub fn read_u64(r: &mut impl Read) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

/// Reads a `u64` and checks it fits `usize` and a sanity bound.
pub fn read_len(r: &mut impl Read, max: u64) -> io::Result<usize> {
    let n = read_u64(r)?;
    if n > max {
        return Err(bad_data(format!("length {n} exceeds sanity bound {max}")));
    }
    usize::try_from(n).map_err(|_| bad_data("length does not fit in usize"))
}

/// Writes a `u64` slice with a length prefix.
pub fn write_u64s(w: &mut impl Write, xs: &[u64]) -> io::Result<()> {
    write_u64(w, xs.len() as u64)?;
    for &x in xs {
        write_u64(w, x)?;
    }
    Ok(())
}

/// Reads a length-prefixed `u64` vector.
pub fn read_u64s(r: &mut impl Read, max_len: u64) -> io::Result<Vec<u64>> {
    let n = read_len(r, max_len)?;
    // Cap the pre-allocation: a corrupt length prefix must fail at EOF
    // while reading, not abort inside the allocator.
    let mut v = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        v.push(read_u64(r)?);
    }
    Ok(v)
}

/// Sanity cap for vector lengths (2^40 elements).
const MAX_LEN: u64 = 1 << 40;

impl Persist for BitVec {
    const MAGIC: [u8; 4] = *b"RBv1";

    fn write_payload(&self, w: &mut impl Write) -> io::Result<()> {
        write_u64(w, self.len() as u64)?;
        write_u64s(w, self.words())
    }

    fn read_payload(r: &mut impl Read) -> io::Result<Self> {
        let len = read_len(r, MAX_LEN)?;
        let words = read_u64s(r, MAX_LEN)?;
        if words.len() != len.div_ceil(64) {
            return Err(bad_data("bit vector word count mismatch"));
        }
        // Padding bits beyond len must be zero.
        if len % 64 != 0 {
            if let Some(&last) = words.last() {
                if last >> (len % 64) != 0 {
                    return Err(bad_data("nonzero padding bits"));
                }
            }
        }
        let mut bv = BitVec::zeros(len);
        for i in 0..len {
            if (words[i / 64] >> (i % 64)) & 1 == 1 {
                bv.set(i, true);
            }
        }
        Ok(bv)
    }
}

impl Persist for RankSelect {
    const MAGIC: [u8; 4] = *b"RRs1";

    fn write_payload(&self, w: &mut impl Write) -> io::Result<()> {
        // Only the logical bit words are serialized — never the
        // interleaved rank directory or the select samples, which are
        // rebuilt on load. The on-disk bytes are therefore a pure
        // function of the bits and stay stable across directory-layout
        // changes (the interleaved/sampled layout reads and writes the
        // exact bytes the original split-directory layout did).
        write_u64(w, self.len() as u64)?;
        write_u64(w, self.n_bit_words() as u64)?;
        for i in 0..self.n_bit_words() {
            write_u64(w, self.bit_word(i))?;
        }
        Ok(())
    }

    fn read_payload(r: &mut impl Read) -> io::Result<Self> {
        let len = read_len(r, MAX_LEN)?;
        let words = read_u64s(r, MAX_LEN)?;
        if words.len() < len.div_ceil(64) {
            return Err(bad_data("rank/select word count mismatch"));
        }
        let mut bv = BitVec::zeros(len);
        for i in 0..len {
            if (words[i / 64] >> (i % 64)) & 1 == 1 {
                bv.set(i, true);
            }
        }
        Ok(RankSelect::new(bv))
    }
}

impl Persist for IntVec {
    const MAGIC: [u8; 4] = *b"RIv1";

    fn write_payload(&self, w: &mut impl Write) -> io::Result<()> {
        write_u64(w, self.width() as u64)?;
        write_u64(w, self.len() as u64)?;
        for x in self.iter() {
            write_u64(w, x)?;
        }
        Ok(())
    }

    fn read_payload(r: &mut impl Read) -> io::Result<Self> {
        let width = read_len(r, 64)?;
        if width == 0 {
            return Err(bad_data("int vector width 0"));
        }
        let n = read_len(r, MAX_LEN)?;
        let mut v = IntVec::new(width);
        for _ in 0..n {
            let x = read_u64(r)?;
            if width < 64 && x >= (1u64 << width) {
                return Err(bad_data("int vector value exceeds width"));
            }
            v.push(x);
        }
        Ok(v)
    }
}

impl Persist for WaveletMatrix {
    const MAGIC: [u8; 4] = *b"RWm1";

    fn write_payload(&self, w: &mut impl Write) -> io::Result<()> {
        write_u64(w, self.sigma())?;
        write_u64(w, self.len() as u64)?;
        // Re-serialize via the symbols: simple, and construction is the
        // authoritative layout (loading rebuilds rank directories anyway).
        for i in 0..self.len() {
            write_u64(w, self.access(i))?;
        }
        Ok(())
    }

    fn read_payload(r: &mut impl Read) -> io::Result<Self> {
        let sigma = read_u64(r)?;
        if sigma == 0 {
            return Err(bad_data("wavelet matrix with empty alphabet"));
        }
        let n = read_len(r, MAX_LEN)?;
        let mut syms = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            let s = read_u64(r)?;
            if s >= sigma {
                return Err(bad_data("wavelet matrix symbol out of alphabet"));
            }
            syms.push(s);
        }
        Ok(WaveletMatrix::new(&syms, sigma))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Persist>(x: &T) -> T {
        let mut buf = Vec::new();
        x.write_to(&mut buf).unwrap();
        T::read_from(&mut buf.as_slice()).unwrap()
    }

    #[test]
    fn bitvec_roundtrip() {
        let bv = BitVec::from_bits((0..300).map(|i| i % 7 == 0));
        let back = roundtrip(&bv);
        assert_eq!(bv, back);
        let empty = roundtrip(&BitVec::new());
        assert!(empty.is_empty());
    }

    #[test]
    fn rank_select_roundtrip() {
        let rs = RankSelect::new(BitVec::from_bits((0..1000).map(|i| i % 3 == 1)));
        let back = roundtrip(&rs);
        assert_eq!(rs.len(), back.len());
        for i in (0..=1000).step_by(37) {
            assert_eq!(rs.rank1(i), back.rank1(i));
        }
    }

    /// The serialized bytes are the *bits*, not the directory: a
    /// `RankSelect` must serialize byte-for-byte like the `BitVec` it was
    /// built from (modulo the magic tag), so structures written before
    /// the interleaved/sampled directory layout load unchanged and
    /// vice versa — loading always rebuilds the directories.
    #[test]
    fn rank_select_bytes_match_bitvec_payload() {
        let bv = BitVec::from_bits((0..900).map(|i| i % 7 == 2 || i % 13 == 0));
        let rs = RankSelect::new(bv.clone());
        let mut rs_bytes = Vec::new();
        rs.write_to(&mut rs_bytes).unwrap();
        let mut bv_bytes = Vec::new();
        bv.write_to(&mut bv_bytes).unwrap();
        assert_eq!(&rs_bytes[4..], &bv_bytes[4..], "payloads diverge");
        // And a custom select sampling rate never leaks into the bytes.
        let resampled = RankSelect::with_select_sample(bv, 64);
        let mut resampled_bytes = Vec::new();
        resampled.write_to(&mut resampled_bytes).unwrap();
        assert_eq!(rs_bytes, resampled_bytes);
    }

    /// Serialization is idempotent across a load: write → read → write
    /// yields identical bytes (directories are derived state only).
    #[test]
    fn rank_select_write_read_write_is_stable() {
        let rs = RankSelect::new(BitVec::from_bits((0..3000).map(|i| i % 5 != 3)));
        let mut first = Vec::new();
        rs.write_to(&mut first).unwrap();
        let back = RankSelect::read_from(&mut first.as_slice()).unwrap();
        let mut second = Vec::new();
        back.write_to(&mut second).unwrap();
        assert_eq!(first, second);
    }

    /// A future format bump must fail in an old binary with an error that
    /// names both versions, not a decode panic.
    #[test]
    fn future_format_version_is_a_clear_error() {
        let rs = RankSelect::new(BitVec::from_bits((0..100).map(|i| i % 2 == 0)));
        let mut buf = Vec::new();
        rs.write_to(&mut buf).unwrap();
        buf[4..8].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
        let err = RankSelect::read_from(&mut buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        let msg = err.to_string();
        assert!(
            msg.contains(&format!("{}", FORMAT_VERSION + 1))
                && msg.contains(&format!("expected {FORMAT_VERSION}")),
            "unhelpful version error: {msg}"
        );
    }

    #[test]
    fn int_vec_roundtrip() {
        let v = IntVec::from_slice(&[0, 5, 1023, 7, 512]);
        let back = roundtrip(&v);
        assert_eq!(
            v.iter().collect::<Vec<_>>(),
            back.iter().collect::<Vec<_>>()
        );
        assert_eq!(v.width(), back.width());
    }

    #[test]
    fn wavelet_roundtrips() {
        let syms: Vec<u64> = (0..200).map(|i| (i * 17) % 50).collect();
        let wm = WaveletMatrix::new(&syms, 50);
        let back = roundtrip(&wm);
        for i in 0..200 {
            assert_eq!(wm.access(i), back.access(i));
        }
    }

    #[test]
    fn corrupted_inputs_fail_cleanly() {
        let bv = BitVec::from_bits((0..64).map(|i| i % 2 == 0));
        let mut buf = Vec::new();
        bv.write_to(&mut buf).unwrap();

        // Wrong magic.
        let mut bad = buf.clone();
        bad[0] ^= 0xFF;
        assert!(BitVec::read_from(&mut bad.as_slice()).is_err());

        // Wrong version.
        let mut bad = buf.clone();
        bad[4] ^= 0xFF;
        assert!(BitVec::read_from(&mut bad.as_slice()).is_err());

        // Truncated payload.
        let bad = &buf[..buf.len() - 3];
        assert!(BitVec::read_from(&mut &bad[..]).is_err());

        // Absurd length.
        let mut bad = buf.clone();
        bad[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(BitVec::read_from(&mut bad.as_slice()).is_err());

        // Wavelet matrix with symbol out of alphabet.
        let wm = WaveletMatrix::new(&[1, 2, 3], 4);
        let mut buf = Vec::new();
        wm.write_to(&mut buf).unwrap();
        let n = buf.len();
        buf[n - 8..].copy_from_slice(&9u64.to_le_bytes());
        assert!(WaveletMatrix::read_from(&mut buf.as_slice()).is_err());
    }
}
