//! CRC32C (Castagnoli) — the checksum the on-disk formats carry.
//!
//! Hand-rolled (no external dependency): an 8×256-entry slicing-by-8
//! table, processing eight bytes per step on the hot path. CRC32C is the
//! polynomial every modern storage stack uses (ext4, Btrfs, iSCSI,
//! LevelDB/RocksDB WALs) because it detects all burst errors up to 32
//! bits and has hardware support on most CPUs — a software table version
//! runs at multiple GB/s, which is plenty next to the disk.
//!
//! The implementation is the standard reflected CRC-32/iSCSI:
//! polynomial `0x1EDC6F41` (reflected `0x82F63B78`), init `!0`,
//! xor-out `!0`, matching the `crc32c` crates and SSE4.2 `crc32` opcode
//! byte-for-byte (test-pinned vectors below).

/// The reflected CRC32C polynomial.
const POLY: u32 = 0x82F6_3B78;

/// 8 slicing tables, built at compile time.
static TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut k = 0;
        while k < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            k += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut s = 1;
    while s < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[s - 1][i];
            t[s][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        s += 1;
    }
    t
}

/// A streaming CRC32C hasher.
///
/// ```
/// use succinct::checksum::Crc32c;
/// let mut h = Crc32c::new();
/// h.update(b"123456789");
/// assert_eq!(h.finalize(), 0xE306_9283); // the CRC-32/iSCSI check value
/// ```
#[derive(Clone, Copy, Debug)]
pub struct Crc32c {
    state: u32,
}

impl Default for Crc32c {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32c {
    /// A fresh hasher (initial state `!0`).
    pub fn new() -> Self {
        Self { state: !0 }
    }

    /// Feeds `bytes` into the running checksum.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut crc = self.state;
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
            let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
            crc = TABLES[7][(lo & 0xFF) as usize]
                ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
                ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
                ^ TABLES[4][(lo >> 24) as usize]
                ^ TABLES[3][(hi & 0xFF) as usize]
                ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
                ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
                ^ TABLES[0][(hi >> 24) as usize];
        }
        for &b in chunks.remainder() {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        self.state = crc;
    }

    /// The checksum of everything fed so far (the hasher stays usable).
    pub fn finalize(&self) -> u32 {
        !self.state
    }
}

/// One-shot CRC32C of a byte slice.
pub fn crc32c(bytes: &[u8]) -> u32 {
    let mut h = Crc32c::new();
    h.update(bytes);
    h.finalize()
}

/// A [`std::io::Write`] adapter hashing everything written through it
/// (the snapshot writers stack this over the file to produce the
/// trailing checksum footer without a second pass).
pub struct CrcWriter<W> {
    inner: W,
    crc: Crc32c,
    written: u64,
}

impl<W: std::io::Write> CrcWriter<W> {
    /// Wraps `inner`, starting a fresh checksum.
    pub fn new(inner: W) -> Self {
        Self {
            inner,
            crc: Crc32c::new(),
            written: 0,
        }
    }

    /// The checksum of the bytes written so far.
    pub fn digest(&self) -> u32 {
        self.crc.finalize()
    }

    /// Bytes written so far.
    pub fn written(&self) -> u64 {
        self.written
    }

    /// The wrapped writer (for writing unhashed trailer bytes).
    pub fn inner_mut(&mut self) -> &mut W {
        &mut self.inner
    }
}

impl<W: std::io::Write> std::io::Write for CrcWriter<W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.crc.update(&buf[..n]);
        self.written += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

/// A [`std::io::Read`] adapter hashing everything read through it (the
/// loaders use it to verify the checksum footer after parsing the
/// payload, again without a second pass).
pub struct CrcReader<R> {
    inner: R,
    crc: Crc32c,
    read: u64,
}

impl<R: std::io::Read> CrcReader<R> {
    /// Wraps `inner`, starting a fresh checksum.
    pub fn new(inner: R) -> Self {
        Self {
            inner,
            crc: Crc32c::new(),
            read: 0,
        }
    }

    /// The checksum of the bytes read so far.
    pub fn digest(&self) -> u32 {
        self.crc.finalize()
    }

    /// Bytes read so far (prefed bytes included).
    pub fn read_count(&self) -> u64 {
        self.read
    }

    /// The wrapped reader (for reading unhashed trailer bytes).
    pub fn inner_mut(&mut self) -> &mut R {
        &mut self.inner
    }
}

impl<R: std::io::Read> std::io::Read for CrcReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.crc.update(&buf[..n]);
        self.read += n as u64;
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The standard CRC-32/iSCSI check vectors — pinning the exact
    /// polynomial/reflection/xor convention, byte-compatible with the
    /// SSE4.2 `crc32` instruction and every other CRC32C implementation.
    #[test]
    fn known_vectors() {
        assert_eq!(crc32c(b""), 0);
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
        assert_eq!(crc32c(b"a"), 0xC1D0_4330);
        assert_eq!(crc32c(b"abc"), 0x364B_3FB7);
        assert_eq!(crc32c(&[0u8; 32]), 0x8A91_36AA);
        assert_eq!(crc32c(&[0xFFu8; 32]), 0x62A8_AB43);
    }

    /// Slicing-by-8 must agree with the bytewise reference at every
    /// alignment and length.
    #[test]
    fn slicing_matches_bytewise() {
        let data: Vec<u8> = (0..1024u32)
            .map(|i| (i.wrapping_mul(31) >> 3) as u8)
            .collect();
        let bytewise = |bytes: &[u8]| {
            let mut crc = !0u32;
            for &b in bytes {
                crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
            }
            !crc
        };
        for start in 0..8 {
            for len in [0, 1, 7, 8, 9, 63, 64, 65, 1000] {
                let slice = &data[start..start + len];
                assert_eq!(crc32c(slice), bytewise(slice), "start {start} len {len}");
            }
        }
    }

    /// Streaming in arbitrary chunkings matches the one-shot digest.
    #[test]
    fn streaming_is_chunking_independent() {
        let data: Vec<u8> = (0..777u32).map(|i| (i * 7 + 3) as u8).collect();
        let whole = crc32c(&data);
        for chunk in [1, 3, 8, 13, 64, 777] {
            let mut h = Crc32c::new();
            for c in data.chunks(chunk) {
                h.update(c);
            }
            assert_eq!(h.finalize(), whole, "chunk {chunk}");
        }
    }

    #[test]
    fn writer_and_reader_adapters_agree() {
        use std::io::{Read, Write};
        let data = b"the quick brown fox jumps over the lazy dog";
        let mut w = CrcWriter::new(Vec::new());
        w.write_all(data).unwrap();
        assert_eq!(w.digest(), crc32c(data));
        assert_eq!(w.written(), data.len() as u64);

        let mut r = CrcReader::new(&data[..]);
        let mut buf = Vec::new();
        r.read_to_end(&mut buf).unwrap();
        assert_eq!(r.digest(), crc32c(data));
        assert_eq!(r.read_count(), data.len() as u64);
    }
}
