//! The mappable on-disk index format `RRPQM01`.
//!
//! Layout: an 8-byte magic, a fixed table of contents, then one
//! 8-byte-aligned section per component of the index:
//!
//! ```text
//! ┌──────────────────────────────────────────────────────────────┐
//! │ "RRPQM01\0" │ version u64 (4) │ n_sections u64               │
//! │ TOC: (tag u64, offset u64, byte_len u64, crc32c u64) × 7     │
//! ├──────────────────────────────────────────────────────────────┤
//! │ 1 META    n, n_nodes, n_preds, n_preds_base, 1 (the ring is  │
//! │           completed with inverse edges), snapshot epoch      │
//! │ 2 L_S     wavelet matrix (subjects in (p,o) order)           │
//! │ 3 L_P     wavelet matrix (predicates in (o,s) order)         │
//! │ 4 C_P     boundaries, tag 0 (dense words)                    │
//! │ 5 C_O     boundaries, tag 1 (unary bits with select samples) │
//! │ 6 NODES   dictionary (front-coded buckets; see below)        │
//! │ 7 PREDS   dictionary                                         │
//! └──────────────────────────────────────────────────────────────┘
//! ```
//!
//! A wavelet matrix is `[sigma, len]` and one level per bit of a symbol;
//! a level is `[len, n_ones]` followed by its 512-bit superblock records
//! (two directory words, eight payload words). §4's backward search only
//! ranks a level, so a level stores no select samples. The unary `C_O`
//! is the one structure that selects: its bits are stored like a level,
//! then `[rate1, rate0]` and its two sample arrays. There is no `C_S`:
//! in a ring completed with its inverse edges a node is the subject of
//! as many triples as it is the object of, so `C_s` is `C_o`.
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
//! a write-ahead log beside it is based on. An index at epoch 0 is written
//! without it, and a file without it is at epoch 0.
//!
//! A dictionary section is the base of a [`Dict`]: the names in
//! byte order, front-coded in buckets of [`BUCKET`], and two packed
//! permutations between sorted rank and id:
//!
//! ```text
//! data_len u64
//! order    IntVec [width, len, words]   sorted rank → id, ⌈log₂ n⌉ bits
//! rank     IntVec [width, len, words]   id → sorted rank
//! buckets  u64 × ⌈n / 16⌉               where each bucket starts in data
//! data     u8 × data_len, padded        per bucket: head_len varint, head,
//!                                       then (lcp varint, len varint,
//!                                       suffix) for each later name
//! ```
//!
//! The shards of a sharded index ([`crate::sharded`]) are files of this
//! format too. Their ids are global, so the directory keeps one copy of
//! the dictionaries, in its first shard; the other shards store empty
//! `NODES`/`PREDS` sections and are opened with [`open_ring`], which reads
//! neither.
//!
//! The ring stores two of the paper's three columns, `L_s` and `L_p`; the
//! third, the objects in `(s, p, o)` order, is never read by §4's
//! algorithm and has no section (version 2 kept an unread slot for it).
//!
//! Alignment is a **soundness** invariant, not a preference: a
//! misaligned `&[u64]` reinterpretation is undefined behavior, so the
//! reader rejects any table-of-contents offset off the 8-byte grid
//! unconditionally (see `toc_offsets_must_be_aligned` in the tests).
//!
//! Version 3 stored the same ring in eight sections, with more bytes:
//! every level carried `[rate1, rate0]` and two select sample arrays
//! nothing read, and a `C_S` section (the fourth) held a second copy of
//! `C_O`. On the 2^20-edge benchmark graph that was 10.46 bytes per
//! triple, against 9.32 now.
//!
//! ## Checksums, and the formats this one replaced
//!
//! A file stores a CRC32C per section in the TOC and is written
//! atomically (temp file + fsync + rename) by [`write_index`]. To
//! preserve the O(header) zero-copy cold open — the whole point of this
//! format — an `mmap` open validates structure only; checksums are
//! verified by [`open_index_verified`] (how an updatable database opens:
//! its saves rewrite the file from what it reads, under fresh
//! checksums), on heap opens (which touch every byte anyway;
//! `rpq-cli verify` is one), and when `RPQ_VERIFY_ON_OPEN=1`.
//!
//! Versions 1 (no checksums), 2 (a `NODES` section of two `u64` arrays
//! around the names, and the unread third-column slot) and 3 (select
//! samples on every level and `C_S`, or, from earlier builds, Elias–Fano
//! node boundaries) of this format, files without inverse edges (`META`
//! word 0), and the stream formats of earlier builds, are refused with
//! [`io::ErrorKind::Unsupported`] and the command that rebuilds the
//! index, not read.

use std::io::{self, Write};
use std::path::Path;
use std::sync::Arc;

use succinct::mapped::{
    err_data, host_supported, read_int_vec, read_rank_select, read_wavelet_matrix, write_int_vec,
    write_rank_select, write_wavelet_matrix, MapReader, SectionWriter, MAX_LEN,
};
use succinct::{MappedFile, ResidentMode};

use crate::dict::{FrontCoded, BUCKET};
use crate::{Boundaries, Dict, Id, Ring};

/// Magic bytes opening a mappable index file.
pub const MAPPED_MAGIC: [u8; 8] = *b"RRPQM01\0";
/// Version of the mapped format (rank-only wavelet levels, seven
/// sections).
pub const MAPPED_VERSION: u64 = 4;

const TAG_META: u64 = 1;
const TAG_L_S: u64 = 2;
const TAG_L_P: u64 = 3;
const TAG_C_P: u64 = 4;
const TAG_C_O: u64 = 5;
const TAG_NODES: u64 = 6;
const TAG_PREDS: u64 = 7;
/// Boundaries tag of a dense array (`C_p`).
const DENSE: u64 = 0;
/// Boundaries tag of a unary bit vector (`C_o`).
const SPARSE: u64 = 1;
/// Number of sections in a `RRPQM01` file.
pub const N_SECTIONS: usize = 7;

/// Header bytes before the first section: magic + version + count +
/// the table of contents (32 bytes per entry). 248 bytes — itself a
/// multiple of 8, so the first section starts aligned.
pub const HEADER_LEN: usize = 8 + 8 + 8 + N_SECTIONS * 32;

/// Human names per section, indexed `tag - 1` (error messages, verify
/// reports).
pub const SECTION_NAMES: [&str; N_SECTIONS] =
    ["META", "L_S", "L_P", "C_P", "C_O", "NODES", "PREDS"];

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
    /// Node dictionary, its base borrowing the file.
    pub nodes: Dict,
    /// Predicate dictionary, its base borrowing the file.
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
            w.u64(DENSE)?;
            w.u64(v.len() as u64)?;
            w.u64s(v)
        }
        Boundaries::Sparse { bits, universe, n } => {
            w.u64(SPARSE)?;
            w.u64(*universe)?;
            w.u64(*n as u64)?;
            write_rank_select(w, bits)
        }
    }
}

/// Reads a boundary array that must be stored under tag `want`.
fn read_boundaries(r: &mut MapReader, want: u64) -> io::Result<Boundaries> {
    match r.u64()? {
        t if t != want => Err(err_data(format!(
            "boundaries tag {t} where tag {want} belongs"
        ))),
        DENSE => {
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
        SPARSE => {
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
        t => Err(err_data(format!("unknown boundaries tag {t}"))),
    }
}

fn write_dict<W: Write>(w: &mut SectionWriter<W>, d: &Dict) -> io::Result<()> {
    let parts = d.to_mapped_parts();
    w.u64(parts.data.len() as u64)?;
    write_int_vec(w, &parts.order)?;
    write_int_vec(w, &parts.rank)?;
    w.u64s(&parts.buckets)?;
    w.bytes(&parts.data)?;
    w.pad()
}

fn read_dict(r: &mut MapReader) -> io::Result<Dict> {
    let data_len = r.len_u64(MAX_LEN)?;
    let order = read_int_vec(r)?;
    let rank = read_int_vec(r)?;
    let buckets = r.slab_u64(order.len().div_ceil(BUCKET))?;
    let data = r.slab_u8(data_len)?;
    Dict::from_mapped_parts(FrontCoded {
        data,
        buckets,
        order,
        rank,
    })
    .map_err(err_data)
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

/// The [`N_SECTIONS`] sections of a file, each with its tag, in file
/// order.
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
                // Every ring is completed with its inverse edges.
                w.u64(1)?;
                if epoch != 0 {
                    w.u64(epoch)?;
                }
                Ok(())
            })?,
        ),
        (TAG_L_S, section(|w| write_wavelet_matrix(w, ring.l_s()))?),
        (TAG_L_P, section(|w| write_wavelet_matrix(w, ring.l_p()))?),
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

/// Parses and validates the header (the TOC must list the seven known
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
        2 => {
            return Err(unsupported_format(
                "RRPQM01 version 2 (uncompressed dictionaries)",
            ))
        }
        3 => {
            return Err(unsupported_format(
                "RRPQM01 version 3 (select-sampled wavelet levels and a C_S section, \
                 or elias-fano node boundaries)",
            ))
        }
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

/// Opens a `RRPQM01` file, pointing the index structures into the file
/// in place. Cold-open cost is header parsing plus shape validation —
/// the succinct payloads are neither copied nor rebuilt (the dictionary
/// sections are decoded once, in one sequential pass each, to validate
/// them).
pub fn open_index(path: &Path, mode: OpenMode) -> io::Result<MappedIndex> {
    open_index_checked(path, mode, false)
}

/// [`open_index`] with every section checked against its CRC32C first,
/// whatever the residency: for a caller that will write what it reads
/// into a new file, whose checksums would otherwise cover a corruption.
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

/// Sections `META` to `C_O`: the ring, shape- and
/// cross-checked, and the snapshot epoch.
fn read_ring(map: &Arc<MappedFile>, toc: &Toc) -> io::Result<(Ring, u64)> {
    let (n, n_nodes, n_preds, n_preds_base, epoch) = read_section(map, toc, TAG_META, |meta| {
        let n = meta.len_u64(MAX_LEN)?;
        let n_nodes: Id = meta.u64()?;
        let n_preds: Id = meta.u64()?;
        let n_preds_base: Id = meta.u64()?;
        match meta.u64()? {
            1 => {}
            0 => return Err(unsupported_format("RRPQM01 (a ring without inverse edges)")),
            _ => return Err(err_data("invalid inverse-edges flag")),
        }
        let epoch = if meta.remaining() > 0 { meta.u64()? } else { 0 };
        Ok((n, n_nodes, n_preds, n_preds_base, epoch))
    })?;
    if n_nodes > MAX_LEN || n_preds > MAX_LEN {
        return Err(err_data("alphabet size out of range"));
    }
    let expected_preds = if n == 0 {
        (2 * n_preds_base).max(1)
    } else {
        2 * n_preds_base
    };
    if n_preds != expected_preds {
        return Err(err_data("inverse alphabet size mismatch"));
    }

    let l_s = read_section(map, toc, TAG_L_S, read_wavelet_matrix)?;
    let l_p = read_section(map, toc, TAG_L_P, read_wavelet_matrix)?;
    let c_p = read_section(map, toc, TAG_C_P, |r| read_boundaries(r, DENSE))?;
    let c_o = read_section(map, toc, TAG_C_O, |r| read_boundaries(r, SPARSE))?;

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
    for (name, b, uni) in [("C_p", &c_p, n_preds), ("C_o", &c_o, n_nodes)] {
        if b.universe() != uni {
            return Err(err_data(format!("{name} universe mismatch")));
        }
        if b.get(uni) != n {
            return Err(err_data(format!("{name} total mismatch")));
        }
    }
    let ring = Ring::from_raw_parts(l_s, l_p, c_p, c_o, n, n_nodes, n_preds, n_preds_base);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring::RingOptions;
    use crate::{Graph, Triple};

    /// The bytes of a small index, and where its file lives.
    fn image(name: &str) -> (std::path::PathBuf, Vec<u8>) {
        let path =
            std::env::temp_dir().join(format!("rpq_mapped_unit_{name}_{}", std::process::id()));
        let g = Graph::from_triples(vec![Triple::new(0, 0, 1), Triple::new(1, 1, 2)]);
        let ring = Ring::build(&g, RingOptions::default());
        write_index(&path, &ring, &Dict::new(), &Dict::new()).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        (path, bytes)
    }

    /// `bytes` with the word at `at` of section `tag` set to `value` and
    /// the section's CRC32C recomputed, opened from `path`.
    fn open_patched(path: &Path, bytes: &[u8], tag: u64, at: usize, value: u64) -> io::Error {
        let mut bytes = bytes.to_vec();
        let entry = 24 + (tag as usize - 1) * 32;
        let off = u64_at(&bytes, entry + 8) as usize;
        let len = u64_at(&bytes, entry + 16) as usize;
        bytes[off + at..off + at + 8].copy_from_slice(&value.to_le_bytes());
        let crc = succinct::crc32c(&bytes[off..off + len]) as u64;
        bytes[entry + 24..entry + 32].copy_from_slice(&crc.to_le_bytes());
        std::fs::write(path, &bytes).unwrap();
        let err = open_ring(path, OpenMode::Heap).unwrap_err();
        std::fs::remove_file(path).ok();
        err
    }

    /// A `META` inverse-edges word of 0 — a ring earlier builds could
    /// write without its inverse edges — is refused by name, under a
    /// valid checksum.
    #[test]
    fn a_ring_without_inverse_edges_is_refused() {
        let (path, bytes) = image("no_inverses");
        let err = open_patched(&path, &bytes, TAG_META, 32, 0);
        assert_eq!(err.kind(), io::ErrorKind::Unsupported, "{err}");
        assert!(err.to_string().contains("without inverse edges"), "{err}");
        assert!(
            err.to_string().contains("rpq-cli build <graph> <index>"),
            "{err}"
        );
    }

    /// Each boundary array is read only in its own form: a dense tag in
    /// the `C_o` slot is an error, and so is the Elias–Fano tag (2), which
    /// no version-4 file holds.
    #[test]
    fn boundary_tags_are_read_in_their_slot_only() {
        let (path, bytes) = image("tags");
        let err = open_patched(&path, &bytes, TAG_C_O, 0, DENSE);
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        assert!(err.to_string().contains("where tag 1 belongs"), "{err}");
        let err = open_patched(&path, &bytes, TAG_C_P, 0, SPARSE);
        assert!(err.to_string().contains("where tag 0 belongs"), "{err}");
        let err = open_patched(&path, &bytes, TAG_C_O, 0, 2);
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        assert!(
            err.to_string().contains("tag 2 where tag 1 belongs"),
            "{err}"
        );
    }

    /// A version-3 file is refused by name, with the command that
    /// rebuilds it, before any of its sections is read.
    #[test]
    fn version_3_files_are_refused_by_name() {
        let (path, mut bytes) = image("v3");
        bytes[8..16].copy_from_slice(&3u64.to_le_bytes());
        for len in [bytes.len(), 24] {
            std::fs::write(&path, &bytes[..len]).unwrap();
            let err = open_index(&path, OpenMode::Heap).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::Unsupported, "{err}");
            assert!(err.to_string().contains("RRPQM01 version 3"), "{err}");
            assert!(
                err.to_string().contains("rpq-cli build <graph> <index>"),
                "{err}"
            );
        }
        std::fs::remove_file(&path).ok();
    }
}
