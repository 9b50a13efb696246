//! The mappable on-disk index format `RRPQM01`.
//!
//! Layout: an 8-byte magic, a fixed table of contents, then one
//! 8-byte-aligned section per component of the index:
//!
//! ```text
//! ┌──────────────────────────────────────────────────────────────┐
//! │ "RRPQM01\0" │ version u64 │ n_sections u64                   │
//! │ TOC: (tag u64, offset u64, byte_len u64, crc32c u64) × 9     │
//! ├──────────────────────────────────────────────────────────────┤
//! │ 1 META    n, n_nodes, n_preds, n_preds_base, has_inverses,   │
//! │           snapshot epoch                                     │
//! │ 2 L_O     an empty wavelet matrix (48 bytes; see below)      │
//! │ 3 L_S     wavelet matrix (subjects in (p,o) order)           │
//! │ 4 L_P     wavelet matrix (predicates in (o,s) order)         │
//! │ 5 C_S     boundaries                                         │
//! │ 6 C_P     boundaries                                         │
//! │ 7 C_O     boundaries                                         │
//! │ 8 NODES   dictionary (blob + offsets + name-sorted ids)      │
//! │ 9 PREDS   dictionary                                         │
//! └──────────────────────────────────────────────────────────────┘
//! ```
//!
//! Every array inside a section is stored byte-identical to its
//! in-memory form and 8-byte aligned relative to the file start, so
//! [`open_index`] can point the succinct structures straight into an
//! `mmap` of the file: cold open validates shapes and headers but never
//! copies or rebuilds the payload. This is the one index file format:
//! an immutable database is such a file, an updatable one such a file
//! plus its write-ahead log ([`crate::wal`]), and a sharded one
//! ([`crate::sharded`]) a directory of them.
//!
//! `META`'s sixth word is the epoch of the snapshot the file holds — what
//! a write-ahead log beside it is based on. A file without the word is at
//! epoch 0, and an index at epoch 0 is written without it: byte for byte
//! the file builds from before the word existed wrote, and still open.
//!
//! The shards of a sharded index ([`crate::sharded`]) are files of this
//! format too. Their ids are global, so the directory keeps one copy of
//! the dictionaries, in its first shard; the other shards store empty
//! `NODES`/`PREDS` sections and are opened with [`open_ring`], which reads
//! neither.
//!
//! Section 2 is the slot of the paper's third column, the objects in
//! `(s, p, o)` order. §4's algorithm never reads it and [`Ring`] does not
//! have it, so [`write_index`] fills the slot with an empty matrix and no
//! open reads it: a file written when the slot held the column still
//! opens and answers the same, its `L_O` bytes covered by the checksum
//! walk and, under `mmap`, never paged in. `rpq-cli stats` says how many
//! bytes a rebuild reclaims.
//!
//! Alignment is a **soundness** invariant, not a preference: a
//! misaligned `&[u64]` reinterpretation is undefined behavior, so the
//! reader rejects any table-of-contents offset off the 8-byte grid
//! unconditionally (see `toc_offsets_must_be_aligned` in the tests).
//!
//! ## Checksums, and the formats this one replaced
//!
//! A file stores a CRC32C per section in the TOC and is written
//! atomically (temp file + fsync + rename) by [`write_index`]. To
//! preserve the O(header) zero-copy cold open — the whole point of this
//! format — an `mmap` open validates structure only; checksums are
//! verified by [`open_index_verified`] (how an updatable database opens:
//! it decodes every byte anyway), on heap opens (which touch every byte
//! anyway), when `RPQ_VERIFY_ON_OPEN=1`, and by
//! [`verify_index_checksums`] (the `verify` CLI subcommand).
//!
//! Version 1 of this format (no checksums) and the stream formats of
//! earlier builds are refused with [`io::ErrorKind::Unsupported`] and the
//! command that rebuilds the index, not read.

use std::io::{self, Write};
use std::path::Path;
use std::sync::Arc;

use succinct::mapped::{
    err_data, host_supported, read_elias_fano, read_rank_select, read_wavelet_matrix,
    write_elias_fano, write_rank_select, write_wavelet_matrix, MapReader, SectionWriter, MAX_LEN,
};
use succinct::{MappedFile, ResidentMode, WaveletMatrix};

use crate::{Boundaries, Dict, Id, Ring};

/// Magic bytes opening a mappable index file.
pub const MAPPED_MAGIC: [u8; 8] = *b"RRPQM01\0";
/// Version of the mapped format (per-section CRC32C in the TOC).
pub const MAPPED_VERSION: u64 = 2;

const TAG_META: u64 = 1;
const TAG_L_O: u64 = 2;
const TAG_L_S: u64 = 3;
const TAG_L_P: u64 = 4;
const TAG_C_S: u64 = 5;
const TAG_C_P: u64 = 6;
const TAG_C_O: u64 = 7;
const TAG_NODES: u64 = 8;
const TAG_PREDS: u64 = 9;
/// Byte length of the `L_O` section [`write_index`] writes: `[sigma,
/// len]` and the one empty level of an empty [`WaveletMatrix`]. A longer
/// one holds a column nothing reads.
pub const EMPTY_L_O_LEN: u64 = (2 + 4) * 8;
/// Number of sections in a `RRPQM01` file.
pub const N_SECTIONS: usize = 9;

/// Header bytes before the first section: magic + version + count +
/// the table of contents (32 bytes per entry). 312 bytes — itself a
/// multiple of 8, so the first section starts aligned.
pub const HEADER_LEN: usize = 8 + 8 + 8 + N_SECTIONS * 32;

/// Human names per section, indexed `tag - 1` (error messages, verify
/// reports).
pub const SECTION_NAMES: [&str; N_SECTIONS] = [
    "META", "L_O", "L_S", "L_P", "C_S", "C_P", "C_O", "NODES", "PREDS",
];

/// How [`open_index`] should back the loaded structures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OpenMode {
    /// `mmap` where the platform supports it, aligned heap read
    /// otherwise.
    #[default]
    Auto,
    /// Require a real `mmap`; error where unavailable.
    Mmap,
    /// Force the aligned heap read (for differential testing and for
    /// hosts whose page cache should not hold the index).
    Heap,
}

/// A ring index opened from a `RRPQM01` file, plus how it is resident.
#[derive(Debug)]
pub struct MappedIndex {
    /// The ring, its arrays borrowing the opened file.
    pub ring: Ring,
    /// Node dictionary (mapped form).
    pub nodes: Dict,
    /// Predicate dictionary (mapped form).
    pub preds: Dict,
    /// Epoch of the snapshot the file holds (0 for a file that stores
    /// none).
    pub epoch: u64,
    /// Whether the bytes live in a kernel mapping or on the heap.
    pub resident: ResidentMode,
    /// Bytes held by the kernel mapping (0 in heap mode).
    pub mapped_bytes: u64,
}

/// The ring of a `RRPQM01` file opened without its dictionaries (see
/// [`open_ring`]).
#[derive(Debug)]
pub struct MappedRing {
    /// The ring, its arrays borrowing the opened file.
    pub ring: Ring,
    /// Whether the bytes live in a kernel mapping or on the heap.
    pub resident: ResidentMode,
    /// Bytes held by the kernel mapping (0 in heap mode).
    pub mapped_bytes: u64,
}

fn section(
    f: impl FnOnce(&mut SectionWriter<&mut Vec<u8>>) -> io::Result<()>,
) -> io::Result<Vec<u8>> {
    let mut buf = Vec::new();
    let mut w = SectionWriter::new(&mut buf);
    f(&mut w)?;
    w.pad()?;
    Ok(buf)
}

fn write_boundaries<W: Write>(w: &mut SectionWriter<W>, b: &Boundaries) -> io::Result<()> {
    match b {
        Boundaries::Dense(v) => {
            w.u64(0)?;
            w.u64(v.len() as u64)?;
            w.u64s(v)
        }
        Boundaries::Sparse { bits, universe, n } => {
            w.u64(1)?;
            w.u64(*universe)?;
            w.u64(*n as u64)?;
            write_rank_select(w, bits)
        }
        Boundaries::EliasFano(ef) => {
            w.u64(2)?;
            write_elias_fano(w, ef)
        }
    }
}

fn read_boundaries(r: &mut MapReader) -> io::Result<Boundaries> {
    match r.u64()? {
        0 => {
            let n = r.len_u64(MAX_LEN)?;
            let v = r.slab_u64(n)?;
            if v.is_empty() {
                return Err(err_data("empty dense boundaries"));
            }
            if v[0] != 0 {
                return Err(err_data("boundaries must start at 0"));
            }
            if v.windows(2).any(|w| w[0] > w[1]) {
                return Err(err_data("boundary counts must be monotone"));
            }
            Ok(Boundaries::Dense(v))
        }
        1 => {
            let universe = r.u64()?;
            let n = r.len_u64(MAX_LEN)?;
            let bits = read_rank_select(r)?;
            if bits.len() as u64 != universe + n as u64 {
                return Err(err_data("sparse boundary length mismatch"));
            }
            if bits.count_ones() as u64 != universe {
                return Err(err_data("sparse boundary ones-count mismatch"));
            }
            Ok(Boundaries::Sparse { bits, universe, n })
        }
        2 => {
            let ef = read_elias_fano(r)?;
            if ef.is_empty() {
                return Err(err_data("empty elias-fano boundaries"));
            }
            if ef.get(0) != 0 {
                return Err(err_data("boundaries must start at 0"));
            }
            Ok(Boundaries::EliasFano(ef))
        }
        t => Err(err_data(format!("unknown boundaries tag {t}"))),
    }
}

fn write_dict<W: Write>(w: &mut SectionWriter<W>, d: &Dict) -> io::Result<()> {
    let (blob, offsets, order) = d.to_mapped_parts();
    w.u64(order.len() as u64)?;
    w.u64(blob.len() as u64)?;
    w.u64s(offsets)?;
    w.u64s(&order)?;
    w.bytes(blob)?;
    w.pad()
}

fn read_dict(r: &mut MapReader) -> io::Result<Dict> {
    let n = r.len_u64(MAX_LEN)?;
    let blob_len = r.len_u64(MAX_LEN)?;
    let offsets = r.slab_u64(n + 1)?;
    let order = r.slab_u64(n)?;
    let blob = r.slab_u8(blob_len)?;
    Dict::from_mapped_parts(blob, offsets, order).map_err(err_data)
}

/// Writes `ring` plus its dictionaries as a mappable `RRPQM01` file at
/// snapshot epoch 0 (an index nothing has been committed to); see
/// [`write_index_at`].
pub fn write_index(path: &Path, ring: &Ring, nodes: &Dict, preds: &Dict) -> io::Result<u64> {
    write_index_at(path, ring, nodes, preds, 0)
}

/// Writes `ring` plus its dictionaries as a mappable `RRPQM01` file
/// holding the snapshot of `epoch`, atomically — the bytes go to a
/// same-directory temp file that is fsync'd and renamed over `path`, so
/// a crash mid-save preserves the previous index and a process that has
/// the previous file mapped keeps reading it. Returns the total bytes
/// written.
pub fn write_index_at(
    path: &Path,
    ring: &Ring,
    nodes: &Dict,
    preds: &Dict,
    epoch: u64,
) -> io::Result<u64> {
    let sections = index_sections(ring, nodes, preds, epoch)?;
    crate::durable::atomic_write(path, |out| {
        out.write_all(&MAPPED_MAGIC)?;
        out.write_all(&MAPPED_VERSION.to_le_bytes())?;
        out.write_all(&(N_SECTIONS as u64).to_le_bytes())?;
        let mut off = HEADER_LEN as u64;
        for (tag, buf) in &sections {
            debug_assert!(
                off.is_multiple_of(8),
                "section offsets must stay 8-byte aligned"
            );
            out.write_all(&tag.to_le_bytes())?;
            out.write_all(&off.to_le_bytes())?;
            out.write_all(&(buf.len() as u64).to_le_bytes())?;
            out.write_all(&(succinct::checksum::crc32c(buf) as u64).to_le_bytes())?;
            off += buf.len() as u64;
        }
        for (_, buf) in &sections {
            out.write_all(buf)?;
        }
        Ok(())
    })
}

/// The nine sections of a file, each with its tag, in file order.
fn index_sections(
    ring: &Ring,
    nodes: &Dict,
    preds: &Dict,
    epoch: u64,
) -> io::Result<Vec<(u64, Vec<u8>)>> {
    Ok(vec![
        (
            TAG_META,
            section(|w| {
                w.u64(ring.n_triples() as u64)?;
                w.u64(ring.n_nodes())?;
                w.u64(ring.n_preds())?;
                w.u64(ring.n_preds_base())?;
                w.u64(ring.has_inverses() as u64)?;
                if epoch != 0 {
                    w.u64(epoch)?;
                }
                Ok(())
            })?,
        ),
        (
            TAG_L_O,
            section(|w| write_wavelet_matrix(w, &WaveletMatrix::new(&[], 1)))?,
        ),
        (TAG_L_S, section(|w| write_wavelet_matrix(w, ring.l_s()))?),
        (TAG_L_P, section(|w| write_wavelet_matrix(w, ring.l_p()))?),
        (TAG_C_S, section(|w| write_boundaries(w, ring.c_s_ref()))?),
        (TAG_C_P, section(|w| write_boundaries(w, ring.c_p_ref()))?),
        (TAG_C_O, section(|w| write_boundaries(w, ring.c_o_ref()))?),
        (TAG_NODES, section(|w| write_dict(w, nodes))?),
        (TAG_PREDS, section(|w| write_dict(w, preds))?),
    ])
}

/// Everything a file stores of `ring` — every level word, directory and
/// boundary array: the canonical bytes two builders are compared by.
#[cfg(test)]
pub(crate) fn stored_bytes(ring: &Ring) -> Vec<u8> {
    let sections = index_sections(ring, &Dict::new(), &Dict::new(), 0).unwrap();
    sections.into_iter().flat_map(|(_, buf)| buf).collect()
}

fn u64_at(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap())
}

/// A parsed and structurally validated table of contents.
struct Toc {
    /// `(offset, byte_len)` per section, indexed `tag - 1`.
    sections: [(usize, usize); N_SECTIONS],
    /// Per-section CRC32C.
    crcs: [u32; N_SECTIONS],
}

/// The refusal of an index format this build no longer reads.
fn unsupported_format(what: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::Unsupported,
        format!(
            "{what} index: this format is no longer read; rebuild the index from its graph \
             with `rpq-cli build <graph> <index>`"
        ),
    )
}

/// Parses and validates the header (the TOC must list the nine known
/// tags in order). Every offset is checked to be 8-byte aligned — the
/// soundness invariant behind the zero-copy `&[u64]` views — and in
/// bounds.
fn read_toc(map: &MappedFile) -> io::Result<Toc> {
    let bytes = map.as_bytes();
    for stream_magic in ["RRPQDB01", "RRPQDB02", "RRPQDU01", "RRPQDU02"] {
        if bytes.starts_with(stream_magic.as_bytes()) {
            return Err(unsupported_format(&format!(
                "stream-format ({stream_magic})"
            )));
        }
    }
    if bytes.len() < 24 {
        return Err(err_data("file too short for a mapped index header"));
    }
    if bytes[..8] != MAPPED_MAGIC {
        return Err(err_data("bad magic: not a RRPQM01 mapped index"));
    }
    match u64_at(bytes, 8) {
        MAPPED_VERSION => {}
        1 => return Err(unsupported_format("RRPQM01 version 1 (checksum-less)")),
        v => {
            return Err(err_data(format!(
                "unsupported mapped format version {v} (supported: {MAPPED_VERSION})"
            )))
        }
    }
    if bytes.len() < HEADER_LEN {
        return Err(err_data("file too short for a mapped index header"));
    }
    if u64_at(bytes, 16) != N_SECTIONS as u64 {
        return Err(err_data("unexpected section count"));
    }
    let mut sections = [(0usize, 0usize); N_SECTIONS];
    let mut crcs = [0u32; N_SECTIONS];
    for (i, entry) in sections.iter_mut().enumerate() {
        let at = 24 + i * 32;
        let tag = u64_at(bytes, at);
        let off = u64_at(bytes, at + 8);
        let len = u64_at(bytes, at + 16);
        if tag != (i as u64) + 1 {
            return Err(err_data(format!("unexpected section tag {tag}")));
        }
        if !off.is_multiple_of(8) {
            return Err(err_data(format!(
                "section {tag} offset {off} is not 8-byte aligned"
            )));
        }
        if (off as usize) < HEADER_LEN
            || off.checked_add(len).is_none_or(|e| e > bytes.len() as u64)
        {
            return Err(err_data(format!("section {tag} extends past end of file")));
        }
        *entry = (off as usize, len as usize);
        let crc = u64_at(bytes, at + 24);
        if crc > u32::MAX as u64 {
            return Err(err_data(format!("section {tag} checksum out of range")));
        }
        crcs[i] = crc as u32;
    }
    Ok(Toc { sections, crcs })
}

/// Checks every section's bytes against the CRC32C recorded in the TOC.
/// Returns the typed
/// [`ChecksumMismatch`](crate::durable::DurabilityError::ChecksumMismatch)
/// error on the first disagreement.
fn check_section_crcs(map: &MappedFile, toc: &Toc) -> io::Result<()> {
    let bytes = map.as_bytes();
    for (i, &(off, len)) in toc.sections.iter().enumerate() {
        let actual = succinct::checksum::crc32c(&bytes[off..off + len]);
        if actual != toc.crcs[i] {
            return Err(crate::durable::checksum_error(
                format!("mapped index section {}", SECTION_NAMES[i]),
                toc.crcs[i],
                actual,
            ));
        }
    }
    Ok(())
}

/// Deep-checks the [`N_SECTIONS`] section checksums of the `RRPQM01`
/// file at `path` against its TOC (every byte is read). Structural and
/// cross-component validation is [`open_index`]'s job.
pub fn verify_index_checksums(path: &Path) -> io::Result<()> {
    let map = MappedFile::open_heap(path)?;
    check_section_crcs(&map, &read_toc(&map)?)
}

/// Opens a `RRPQM01` file, pointing the index structures into the file
/// in place. Cold-open cost is header parsing plus shape validation —
/// the succinct payloads are neither copied nor rebuilt (the dictionary
/// section is scanned once for UTF-8/order validation).
pub fn open_index(path: &Path, mode: OpenMode) -> io::Result<MappedIndex> {
    open_index_checked(path, mode, false)
}

/// [`open_index`] with every section checked against its CRC32C first,
/// whatever the residency: for a caller about to read every byte anyway.
pub fn open_index_verified(path: &Path, mode: OpenMode) -> io::Result<MappedIndex> {
    open_index_checked(path, mode, true)
}

fn open_index_checked(path: &Path, mode: OpenMode, verify: bool) -> io::Result<MappedIndex> {
    let (map, toc) = open_map(path, mode, verify)?;
    let (ring, epoch) = read_ring(&map, &toc)?;
    let (nodes, preds) = read_dicts(&map, &toc, &ring, path)?;
    let (resident, mapped_bytes) = residency(&map);
    Ok(MappedIndex {
        ring,
        nodes,
        preds,
        epoch,
        resident,
        mapped_bytes,
    })
}

/// [`open_index`] without the dictionaries: sections `NODES` and `PREDS`
/// are not read (under `mmap`, not paged in), whatever they hold. This is
/// how [`crate::sharded::open_dir`] opens every shard but the one whose
/// dictionaries the directory uses; the ring gets exactly the validation
/// a full open gives it.
pub fn open_ring(path: &Path, mode: OpenMode) -> io::Result<MappedRing> {
    let (map, toc) = open_map(path, mode, false)?;
    let (ring, _) = read_ring(&map, &toc)?;
    let (resident, mapped_bytes) = residency(&map);
    Ok(MappedRing {
        ring,
        resident,
        mapped_bytes,
    })
}

/// Byte length of every section of the `RRPQM01` file at `path`, indexed
/// like [`SECTION_NAMES`] — the file's own space table, read off its
/// table of contents.
pub fn section_lens(path: &Path) -> io::Result<[u64; N_SECTIONS]> {
    let toc = read_toc(&*MappedFile::open(path)?)?;
    Ok(toc.sections.map(|(_, len)| len as u64))
}

fn residency(map: &MappedFile) -> (ResidentMode, u64) {
    match map.mode() {
        ResidentMode::Mmap => (ResidentMode::Mmap, map.len() as u64),
        ResidentMode::Heap => (ResidentMode::Heap, 0),
    }
}

/// Brings the file in under `mode`, parses its table of contents and
/// applies the checksum policy (`verify` asks for the check outright).
fn open_map(path: &Path, mode: OpenMode, verify: bool) -> io::Result<(Arc<MappedFile>, Toc)> {
    if !host_supported() {
        return Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "mapped index format requires a little-endian host",
        ));
    }
    let map = match mode {
        OpenMode::Auto => MappedFile::open(path)?,
        OpenMode::Heap => MappedFile::open_heap(path)?,
        OpenMode::Mmap => {
            let m = MappedFile::open(path)?;
            if m.mode() != ResidentMode::Mmap {
                return Err(io::Error::new(
                    io::ErrorKind::Unsupported,
                    "mmap is unavailable on this platform",
                ));
            }
            m
        }
    };
    let toc = read_toc(&map)?;
    // Checksum policy: heap opens touch every byte anyway, so verifying
    // is nearly free; mmap opens stay O(header) to preserve the
    // zero-copy cold-open contract unless explicitly asked.
    let verify_env = std::env::var("RPQ_VERIFY_ON_OPEN").is_ok_and(|v| v != "0" && !v.is_empty());
    if verify || map.mode() == ResidentMode::Heap || verify_env {
        check_section_crcs(&map, &toc)?;
    }
    Ok((map, toc))
}

/// Reads the whole of section `tag` with `read`.
fn read_section<T>(
    map: &Arc<MappedFile>,
    toc: &Toc,
    tag: u64,
    read: impl FnOnce(&mut MapReader) -> io::Result<T>,
) -> io::Result<T> {
    let (off, len) = toc.sections[tag as usize - 1];
    let mut sec = MapReader::new(Arc::clone(map), off, len)?;
    let value = read(&mut sec)?;
    sec.finish()?;
    Ok(value)
}

/// Sections `META` and `L_S` to `C_O`: the ring, shape- and
/// cross-checked, and the snapshot epoch. `L_O` is not read, whatever it
/// holds.
fn read_ring(map: &Arc<MappedFile>, toc: &Toc) -> io::Result<(Ring, u64)> {
    let (n, n_nodes, n_preds, n_preds_base, has_inverses, epoch) =
        read_section(map, toc, TAG_META, |meta| {
            let n = meta.len_u64(MAX_LEN)?;
            let n_nodes: Id = meta.u64()?;
            let n_preds: Id = meta.u64()?;
            let n_preds_base: Id = meta.u64()?;
            let has_inverses = match meta.u64()? {
                0 => false,
                1 => true,
                _ => return Err(err_data("invalid has_inverses flag")),
            };
            let epoch = if meta.remaining() > 0 { meta.u64()? } else { 0 };
            Ok((n, n_nodes, n_preds, n_preds_base, has_inverses, epoch))
        })?;
    if n_nodes > MAX_LEN || n_preds > MAX_LEN {
        return Err(err_data("alphabet size out of range"));
    }
    let expected_preds = if n == 0 {
        (2 * n_preds_base).max(1)
    } else {
        2 * n_preds_base
    };
    if has_inverses && n_preds != expected_preds {
        return Err(err_data("inverse alphabet size mismatch"));
    }

    let l_s = read_section(map, toc, TAG_L_S, read_wavelet_matrix)?;
    let l_p = read_section(map, toc, TAG_L_P, read_wavelet_matrix)?;
    let c_s = read_section(map, toc, TAG_C_S, read_boundaries)?;
    let c_p = read_section(map, toc, TAG_C_P, read_boundaries)?;
    let c_o = read_section(map, toc, TAG_C_O, read_boundaries)?;

    // Cross-component consistency: a structurally valid but inconsistent
    // file must not produce out-of-range ids at query time.
    for (name, wm) in [("L_s", &l_s), ("L_p", &l_p)] {
        if wm.len() != n {
            return Err(err_data(format!("{name} length mismatch")));
        }
    }
    if l_s.sigma() != n_nodes.max(1) || l_p.sigma() != n_preds.max(1) {
        return Err(err_data("column alphabet mismatch"));
    }
    for (name, b, uni) in [
        ("C_s", &c_s, n_nodes),
        ("C_p", &c_p, n_preds),
        ("C_o", &c_o, n_nodes),
    ] {
        if b.universe() != uni {
            return Err(err_data(format!("{name} universe mismatch")));
        }
        if b.get(uni) != n {
            return Err(err_data(format!("{name} total mismatch")));
        }
    }
    let ring = Ring::from_raw_parts(
        l_s,
        l_p,
        c_s,
        c_p,
        c_o,
        n,
        n_nodes,
        n_preds,
        n_preds_base,
        has_inverses,
    );
    Ok((ring, epoch))
}

/// Sections `NODES` and `PREDS`, checked against `ring`'s universes.
fn read_dicts(
    map: &Arc<MappedFile>,
    toc: &Toc,
    ring: &Ring,
    path: &Path,
) -> io::Result<(Dict, Dict)> {
    let nodes = read_section(map, toc, TAG_NODES, read_dict)?;
    let preds = read_section(map, toc, TAG_PREDS, read_dict)?;
    // A sharded directory keeps its dictionaries in shard 0 alone: a
    // file with a predicate universe and no name for any of it is one of
    // the other shards, not an index of its own.
    if nodes.is_empty() && preds.is_empty() && ring.n_preds_base() > 0 {
        let dir = match path.parent() {
            Some(d) if !d.as_os_str().is_empty() => d,
            _ => Path::new("."),
        };
        return Err(err_data(format!(
            "no dictionaries in this file: it is one shard of a sharded index; open the directory {} instead",
            dir.display()
        )));
    }
    // `Ring::build` clamps the node universe to >= 1 even for an empty
    // graph, so an empty index legitimately pairs n_nodes == 1 with an
    // empty dictionary (mirroring the inverse-alphabet clamp above).
    if nodes.len() as Id != ring.n_nodes() && !(ring.n_triples() == 0 && nodes.is_empty()) {
        return Err(err_data("node dictionary size mismatch"));
    }
    if preds.len() as Id != ring.n_preds_base() {
        return Err(err_data("predicate dictionary size mismatch"));
    }
    Ok((nodes, preds))
}
