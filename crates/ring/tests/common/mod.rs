//! Shared by the file-layout suites: byte pokes, the residencies to open
//! under, and files as they were written while the ring still stored the
//! paper's third column, `L_o` (the objects in `(s, p, o)` order) —
//! today's bytes with that column put back in its slot. `rpq-cli`'s tests
//! hold a file such a build really wrote (`tests/fixtures/`); these
//! assemble one for any ring.
#![allow(dead_code)] // each suite uses its own subset

use ring::mapped::OpenMode;
use ring::{Ring, Triple};
use succinct::mapped::{write_wavelet_matrix, SectionWriter};
use succinct::WaveletMatrix;

/// Index of `L_O` in the `RRPQM01` table of contents.
pub const L_O: usize = 1;

/// The column `ring` no longer has, rebuilt from its triples.
pub fn l_o_column(ring: &Ring) -> WaveletMatrix {
    let mut spo: Vec<Triple> = ring.iter_triples().collect();
    spo.sort_unstable();
    WaveletMatrix::from_u32_symbols(spo.iter().map(|t| t.o as u32).collect(), ring.n_nodes())
}

/// Heap everywhere, a kernel mapping too where there is one.
pub fn modes() -> Vec<OpenMode> {
    let mut modes = vec![OpenMode::Heap];
    #[cfg(all(unix, target_pointer_width = "64"))]
    modes.push(OpenMode::Mmap);
    modes
}

pub fn u64_at(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap())
}

pub fn put_u64(bytes: &mut [u8], at: usize, v: u64) {
    bytes[at..at + 8].copy_from_slice(&v.to_le_bytes());
}

/// `image`, a v2 `RRPQM01` file of `ring`, with a full `L_O` section:
/// the section replaced, its length and CRC32C re-stamped, every later
/// section's offset moved up.
pub fn mapped_with_l_o(image: &[u8], ring: &Ring) -> Vec<u8> {
    let mut section = Vec::new();
    let mut w = SectionWriter::new(&mut section);
    write_wavelet_matrix(&mut w, &l_o_column(ring)).unwrap();
    w.pad().unwrap();

    let entry = |i: usize| 24 + i * 32;
    let off = u64_at(image, entry(L_O) + 8) as usize;
    let len = u64_at(image, entry(L_O) + 16) as usize;
    let mut out = image[..off].to_vec();
    out.extend_from_slice(&section);
    out.extend_from_slice(&image[off + len..]);
    put_u64(&mut out, entry(L_O) + 16, section.len() as u64);
    let crc = succinct::checksum::crc32c(&section);
    put_u64(&mut out, entry(L_O) + 24, u64::from(crc));
    for i in L_O + 1..9 {
        let moved = u64_at(image, entry(i) + 8) + (section.len() - len) as u64;
        put_u64(&mut out, entry(i) + 8, moved);
    }
    out
}
