//! Mapped-format (`RRPQM01`) persistence suite: write/open round-trips
//! over every boundary representation, heap-vs-mmap load equivalence,
//! and corruption rejection — truncation at every section boundary,
//! oversized declared lengths, wrong magic, version skew, and misaligned
//! table-of-contents offsets — the refusal of the formats this one
//! replaced, the snapshot epoch in `META`, and files from when the `L_O`
//! slot held a column.

mod common;

use std::path::PathBuf;

use common::{put_u64, u64_at};

use ring::mapped::{
    open_index, open_index_verified, section_lens, verify_index_checksums, write_index,
    write_index_at, OpenMode, EMPTY_L_O_LEN, HEADER_LEN, MAPPED_MAGIC,
};
use ring::ring::{BoundaryKind, RingOptions};
use ring::{Dict, Graph, Ring, Triple};

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rpq_mapped_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A small graph with repeated subjects/objects, a rare predicate, and
/// names that exercise the dictionary's sorted-order search.
fn sample() -> (Graph, Dict, Dict) {
    let text = "\
        <http://x/alice> <http://x/knows> <http://x/bob>\n\
        <http://x/bob> <http://x/knows> <http://x/carol>\n\
        <http://x/carol> <http://x/knows> <http://x/alice>\n\
        <http://x/alice> <http://x/likes> <http://x/carol>\n\
        <http://x/carol> <http://x/likes> <http://x/carol>\n\
        <http://x/dave> <http://x/knows> <http://x/alice>\n\
        <http://x/bob> <http://x/works_at> <http://x/acme>\n\
        <http://x/dave> <http://x/works_at> <http://x/acme>\n\
        <http://x/dave> <http://x/knows> <http://x/知り合い>\n";
    let (g, nodes, preds) = Graph::parse_text(text).unwrap();
    (g, nodes, preds)
}

fn assert_rings_equal(a: &Ring, b: &Ring) {
    assert_eq!(a.n_triples(), b.n_triples());
    assert_eq!(a.n_nodes(), b.n_nodes());
    assert_eq!(a.n_preds(), b.n_preds());
    assert_eq!(a.n_preds_base(), b.n_preds_base());
    assert_eq!(a.has_inverses(), b.has_inverses());
    let ta: Vec<Triple> = a.iter_triples().collect();
    let tb: Vec<Triple> = b.iter_triples().collect();
    assert_eq!(ta, tb);
    for s in 0..a.n_nodes() {
        assert_eq!(a.subject_range(s), b.subject_range(s), "subject {s}");
        assert_eq!(a.object_range(s), b.object_range(s), "object {s}");
    }
    for p in 0..a.n_preds() {
        assert_eq!(a.pred_range(p), b.pred_range(p), "pred {p}");
        assert_eq!(a.pred_cardinality(p), b.pred_cardinality(p));
        for o in 0..a.n_nodes() {
            let subjects = |r: &Ring| {
                let mut out = Vec::new();
                r.subjects_for(p, o, &mut |s| out.push(s));
                out
            };
            assert_eq!(subjects(a), subjects(b), "subjects of ({p}, {o})");
            for s in 0..a.n_nodes() {
                assert_eq!(a.contains(s, p, o), b.contains(s, p, o), "({s}, {p}, {o})");
            }
        }
    }
}

fn assert_dicts_equal(a: &Dict, b: &Dict) {
    assert_eq!(a.len(), b.len());
    for (id, name) in a.iter() {
        assert_eq!(b.name(id), name);
        assert_eq!(b.get(name), Some(id), "lookup of {name}");
    }
    assert_eq!(b.get("<no-such-name>"), None);
}

#[test]
fn roundtrip_every_boundary_kind_and_inverse_setting() {
    let dir = tmpdir("roundtrip");
    let (graph, nodes, preds) = sample();
    for kind in [
        BoundaryKind::Dense,
        BoundaryKind::Sparse,
        BoundaryKind::EliasFano,
    ] {
        for with_inverses in [true, false] {
            let ring = Ring::build(
                &graph,
                RingOptions {
                    with_inverses,
                    node_boundaries: kind,
                },
            );
            let path = dir.join(format!("{kind:?}_{with_inverses}.rpqm"));
            let written = write_index(&path, &ring, &nodes, &preds).unwrap();
            assert_eq!(written, std::fs::metadata(&path).unwrap().len());
            let idx = open_index(&path, OpenMode::Heap).unwrap();
            assert_rings_equal(&ring, &idx.ring);
            assert_dicts_equal(&nodes, &idx.nodes);
            assert_dicts_equal(&preds, &idx.preds);
            assert!(idx.nodes.is_mapped() && idx.preds.is_mapped());
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn empty_graph_roundtrips() {
    let dir = tmpdir("empty");
    let ring = Ring::build(&Graph::new(vec![], 0, 0), RingOptions::default());
    let path = dir.join("empty.rpqm");
    write_index(&path, &ring, &Dict::new(), &Dict::new()).unwrap();
    let idx = open_index(&path, OpenMode::Heap).unwrap();
    assert_eq!(idx.ring.n_triples(), 0);
    assert_eq!(idx.nodes.len(), 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[cfg(all(unix, target_pointer_width = "64"))]
#[test]
fn heap_and_mmap_opens_are_equivalent() {
    use succinct::ResidentMode;
    let dir = tmpdir("modes");
    let (graph, nodes, preds) = sample();
    let ring = Ring::build(&graph, RingOptions::default());
    let path = dir.join("idx.rpqm");
    write_index(&path, &ring, &nodes, &preds).unwrap();

    let heap = open_index(&path, OpenMode::Heap).unwrap();
    let mapped = open_index(&path, OpenMode::Mmap).unwrap();
    assert_eq!(heap.resident, ResidentMode::Heap);
    assert_eq!(heap.mapped_bytes, 0);
    assert_eq!(mapped.resident, ResidentMode::Mmap);
    assert_eq!(mapped.mapped_bytes, std::fs::metadata(&path).unwrap().len());
    assert_rings_equal(&heap.ring, &mapped.ring);
    assert_rings_equal(&ring, &mapped.ring);
    assert_dicts_equal(&heap.nodes, &mapped.nodes);
    assert_dicts_equal(&heap.preds, &mapped.preds);
    std::fs::remove_dir_all(&dir).ok();
}

/// A file written while `L_O` still held the objects column opens under
/// both residencies as the ring a fresh save opens as, and its extra
/// section stays under the checksum walk.
#[test]
fn files_with_a_full_l_o_section_still_open() {
    let dir = tmpdir("legacy_l_o");
    let (graph, nodes, preds) = sample();
    for with_inverses in [true, false] {
        let ring = Ring::build(
            &graph,
            RingOptions {
                with_inverses,
                ..Default::default()
            },
        );
        let fresh = dir.join("fresh.rpqm");
        write_index(&fresh, &ring, &nodes, &preds).unwrap();
        assert_eq!(section_lens(&fresh).unwrap()[common::L_O], EMPTY_L_O_LEN);

        let legacy = dir.join("legacy.rpqm");
        let image = common::mapped_with_l_o(&std::fs::read(&fresh).unwrap(), &ring);
        std::fs::write(&legacy, &image).unwrap();
        assert!(section_lens(&legacy).unwrap()[common::L_O] > EMPTY_L_O_LEN);
        verify_index_checksums(&legacy).unwrap();
        for mode in common::modes() {
            let old = open_index(&legacy, mode).unwrap();
            let new = open_index(&fresh, mode).unwrap();
            assert_rings_equal(&old.ring, &new.ring);
            assert_rings_equal(&old.ring, &ring);
            assert_dicts_equal(&old.nodes, &nodes);
            assert_dicts_equal(&old.preds, &preds);
        }

        // The section nothing reads is still bytes the file vouches for.
        let mut flipped = image.clone();
        let l_o_at = u64_at(&image, 24 + common::L_O * 32 + 8) as usize;
        flipped[l_o_at + 40] ^= 0x10;
        std::fs::write(&legacy, &flipped).unwrap();
        let err = verify_index_checksums(&legacy).unwrap_err().to_string();
        assert!(err.contains("L_O"), "{err}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Writes `bytes` to a file and opens it heap-resident.
fn open_bytes(dir: &std::path::Path, name: &str, bytes: &[u8]) -> std::io::Result<()> {
    let path = dir.join(name);
    std::fs::write(&path, bytes).unwrap();
    open_index(&path, OpenMode::Heap).map(|_| ())
}

/// Recomputes section `i`'s CRC32C and patches it into the TOC, so a
/// deliberate payload mutation exercises the *structural* validation
/// rather than being short-circuited by the checksum check.
fn fix_crc(bytes: &mut [u8], i: usize) {
    let off = u64_at(bytes, 24 + i * 32 + 8) as usize;
    let len = u64_at(bytes, 24 + i * 32 + 16) as usize;
    let crc = succinct::checksum::crc32c(&bytes[off..off + len]);
    put_u64(bytes, 24 + i * 32 + 24, crc as u64);
}

/// A valid file image plus its parsed TOC `(offset, len)` list.
fn valid_image(dir: &std::path::Path) -> (Vec<u8>, Vec<(usize, usize)>) {
    let (graph, nodes, preds) = sample();
    let ring = Ring::build(&graph, RingOptions::default());
    let path = dir.join("valid.rpqm");
    write_index(&path, &ring, &nodes, &preds).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    let toc = (0..9)
        .map(|i| {
            let at = 24 + i * 32;
            (
                u64_at(&bytes, at + 8) as usize,
                u64_at(&bytes, at + 16) as usize,
            )
        })
        .collect();
    (bytes, toc)
}

#[test]
fn truncation_at_every_section_boundary_is_rejected() {
    let dir = tmpdir("truncate");
    let (bytes, toc) = valid_image(&dir);
    // Sanity: the intact image opens.
    assert!(open_bytes(&dir, "ok.rpqm", &bytes).is_ok());
    let mut cuts: Vec<usize> = vec![0, 7, HEADER_LEN - 1, bytes.len() - 1];
    for &(off, len) in &toc {
        cuts.push(off);
        cuts.push(off + len / 2);
        cuts.push(off + len.saturating_sub(1));
    }
    for cut in cuts {
        if cut >= bytes.len() {
            continue;
        }
        let err = open_bytes(&dir, "cut.rpqm", &bytes[..cut])
            .expect_err(&format!("truncation at {cut} must fail"));
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "cut {cut}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn oversized_declared_lengths_are_rejected() {
    let dir = tmpdir("oversized");
    let (bytes, toc) = valid_image(&dir);
    for (i, &(_, len)) in toc.iter().enumerate() {
        // Growing any section's declared length either runs past the
        // end of the file or leaves trailing bytes in the section; the
        // reader must reject both.
        let mut bad = bytes.clone();
        put_u64(&mut bad, 24 + i * 32 + 16, len as u64 + 8);
        assert!(
            open_bytes(&dir, "grown.rpqm", &bad).is_err(),
            "section {i} grown by 8"
        );
        let mut huge = bytes.clone();
        put_u64(&mut huge, 24 + i * 32 + 16, 1 << 40);
        assert!(
            open_bytes(&dir, "huge.rpqm", &huge).is_err(),
            "section {i} with a 2^40 length"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The formats this one replaced are refused by name, with the way out —
/// whatever follows the magic, and however short the file.
#[test]
fn wrong_magic_names_the_stream_formats() {
    let dir = tmpdir("magic");
    let (bytes, _) = valid_image(&dir);
    let refused = |name: &str, image: &[u8], format: &str| {
        let err = open_bytes(&dir, name, image).unwrap_err();
        assert_eq!(
            err.kind(),
            std::io::ErrorKind::Unsupported,
            "{format}: {err}"
        );
        let msg = err.to_string();
        assert!(msg.contains(format), "error must name the format: {msg}");
        assert!(
            msg.contains("rpq-cli build <graph> <index>"),
            "error must name the rebuild command: {msg}"
        );
    };
    for stream_magic in ["RRPQDB01", "RRPQDB02", "RRPQDU01", "RRPQDU02"] {
        let mut bad = bytes.clone();
        bad[..8].copy_from_slice(stream_magic.as_bytes());
        refused("stream.rpqm", &bad, stream_magic);
        refused("stream-short.rpqm", &bad[..12], stream_magic);
    }
    // Version 1 of this format: 24-byte TOC entries, no checksums.
    let mut v1 = bytes.clone();
    put_u64(&mut v1, 8, 1);
    refused("v1.rpqm", &v1, "version 1");
    let mut garbage = bytes.clone();
    garbage[..8].copy_from_slice(b"GARBAGE!");
    let msg = open_bytes(&dir, "garbage.rpqm", &garbage)
        .unwrap_err()
        .to_string();
    assert!(msg.contains("magic"), "{msg}");

    let mut versioned = bytes.clone();
    put_u64(&mut versioned, 8, 99);
    let msg = open_bytes(&dir, "version.rpqm", &versioned)
        .unwrap_err()
        .to_string();
    assert!(msg.contains("version 99"), "{msg}");
    std::fs::remove_dir_all(&dir).ok();
}

/// The soundness invariant the module documentation points at: a
/// deliberately misaligned section offset must be rejected before any
/// `&[u64]` view is formed.
#[test]
fn toc_offsets_must_be_aligned() {
    let dir = tmpdir("align");
    let (bytes, toc) = valid_image(&dir);
    for (i, &(off, _)) in toc.iter().enumerate() {
        for bump in [1usize, 4] {
            let mut bad = bytes.clone();
            put_u64(&mut bad, 24 + i * 32 + 8, (off + bump) as u64);
            let err = open_bytes(&dir, "misaligned.rpqm", &bad)
                .expect_err(&format!("section {i} offset bumped by {bump}"));
            assert!(err.to_string().contains("aligned"), "section {i}: {err}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn inconsistent_metadata_is_rejected() {
    let dir = tmpdir("meta");
    let (bytes, toc) = valid_image(&dir);
    let meta_off = toc[0].0;
    assert_eq!(meta_off, HEADER_LEN);

    // Triple count off by one: column length checks fire.
    let mut bad = bytes.clone();
    put_u64(&mut bad, meta_off, u64_at(&bytes, meta_off) + 1);
    fix_crc(&mut bad, 0);
    assert!(open_bytes(&dir, "count.rpqm", &bad).is_err());

    // Invalid has_inverses flag.
    let mut bad = bytes.clone();
    put_u64(&mut bad, meta_off + 32, 7);
    fix_crc(&mut bad, 0);
    let msg = open_bytes(&dir, "flag.rpqm", &bad).unwrap_err().to_string();
    assert!(msg.contains("has_inverses"), "{msg}");

    // Node universe shrunk: dictionary / boundary universes disagree.
    let mut bad = bytes.clone();
    let n_nodes = u64_at(&bytes, meta_off + 8);
    put_u64(&mut bad, meta_off + 8, n_nodes - 1);
    fix_crc(&mut bad, 0);
    assert!(open_bytes(&dir, "nodes.rpqm", &bad).is_err());
    std::fs::remove_dir_all(&dir).ok();
}

/// The magic constant is the public contract other layers sniff on.
#[test]
fn magic_matches_the_public_constant() {
    let dir = tmpdir("sniff");
    let (bytes, _) = valid_image(&dir);
    assert_eq!(&bytes[..8], &MAPPED_MAGIC);
    std::fs::remove_dir_all(&dir).ok();
}

/// `META`'s sixth word is the snapshot epoch: what was written comes
/// back, under the section's checksum; a `META` of five words — an index
/// at epoch 0, and every file written before the word existed — is at
/// epoch 0.
#[test]
fn the_snapshot_epoch_is_the_sixth_word_of_meta() {
    let dir = tmpdir("epoch");
    let (graph, nodes, preds) = sample();
    let ring = Ring::build(&graph, RingOptions::default());
    let path = dir.join("epoch.rpqm");
    // Epoch 0 is the five-word `META` files have always had.
    write_index(&path, &ring, &nodes, &preds).unwrap();
    let plain = std::fs::read(&path).unwrap();
    assert_eq!(u64_at(&plain, 24 + 16), 5 * 8);
    for mode in common::modes() {
        let old = open_index_verified(&path, mode).unwrap();
        assert_eq!(old.epoch, 0, "{mode:?}");
        assert_rings_equal(&old.ring, &ring);
    }
    write_index_at(&path, &ring, &nodes, &preds, 41).unwrap();
    let image = std::fs::read(&path).unwrap();
    assert_eq!(image.len(), plain.len() + 8);
    for mode in common::modes() {
        assert_eq!(open_index(&path, mode).unwrap().epoch, 41, "{mode:?}");
        assert_eq!(open_index_verified(&path, mode).unwrap().epoch, 41);
    }
    let (meta_off, meta_len) = (u64_at(&image, 24 + 8) as usize, u64_at(&image, 24 + 16));
    assert_eq!(meta_len, 6 * 8);
    assert_eq!(u64_at(&image, meta_off + 40), 41);
    // Seven words are not a META.
    let mut seven = image.clone();
    put_u64(&mut seven, 24 + 16, 7 * 8);
    assert!(open_bytes(&dir, "seven.rpqm", &seven).is_err());

    // The word is under the checksum a verified open checks whatever the
    // residency; a plain mapped open stays O(header) and does not look.
    let mut flipped = image.clone();
    flipped[meta_off + 40] ^= 1;
    std::fs::write(&path, &flipped).unwrap();
    for mode in common::modes() {
        let err = open_index_verified(&path, mode).unwrap_err().to_string();
        assert!(err.contains("META"), "{err}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Deterministic xorshift64* for the fuzz sweep: reproducible without
/// any RNG dependency, seed printed into every assertion context.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

/// Every single-bit flip over a full `RRPQM01` image — exhaustive over
/// the header + TOC, seeded-random over the payload — must either be
/// *detected* (typed open error) or *harmless* (the index opens and
/// answers identically, e.g. a flip in alignment padding no checksum
/// covers). Never a panic, never silently wrong data.
#[test]
fn bit_flip_fuzz_never_yields_wrong_answers() {
    let dir = tmpdir("bitflip");
    let (bytes, _) = valid_image(&dir);
    let (graph, nodes, preds) = sample();
    let expect_ring = Ring::build(&graph, RingOptions::default());
    let expect: Vec<Triple> = {
        let mut v: Vec<Triple> = expect_ring.iter_triples().collect();
        v.sort();
        v
    };

    let mut flips: Vec<(usize, u8)> = Vec::new();
    // Header + TOC: every bit (this is where a flip could silently
    // redirect a section, so cover it exhaustively).
    for off in 0..HEADER_LEN.min(bytes.len()) {
        for bit in 0..8u8 {
            flips.push((off, bit));
        }
    }
    // Payload: seeded sample across the rest of the file.
    let mut rng = XorShift(0x1CDE_2022_D00D_F00D);
    for _ in 0..800 {
        let off = HEADER_LEN + (rng.next() as usize) % (bytes.len() - HEADER_LEN);
        let bit = (rng.next() & 7) as u8;
        flips.push((off, bit));
    }

    let path = dir.join("flip.rpqm");
    let mut harmless = 0usize;
    for (off, bit) in flips {
        let mut mutated = bytes.clone();
        mutated[off] ^= 1 << bit;
        std::fs::write(&path, &mutated).unwrap();
        match open_index(&path, OpenMode::Heap) {
            Err(_) => {} // detected: typed io::Error, no panic
            Ok(idx) => {
                let mut got: Vec<Triple> = idx.ring.iter_triples().collect();
                got.sort();
                assert_eq!(
                    got, expect,
                    "flip at byte {off} bit {bit} opened with WRONG triples"
                );
                assert_dicts_equal(&idx.nodes, &nodes);
                assert_dicts_equal(&idx.preds, &preds);
                harmless += 1;
            }
        }
    }
    // The original image must still open (the sweep is non-destructive
    // to its inputs), and *some* flips must have been caught — if every
    // flip opened fine the checksums are not being checked at all.
    assert!(open_bytes(&dir, "intact.rpqm", &bytes).is_ok());
    assert!(
        harmless < 800 + HEADER_LEN * 8,
        "no flip was ever detected: checksum verification is dead code"
    );
    std::fs::remove_dir_all(&dir).ok();
}
