//! The on-disk layout of a sharded index directory (`RRPQSH01`): one copy
//! of the dictionaries, in shard 0's file; every other shard opened
//! ring-only, whatever its `NODES`/`PREDS` sections hold — and no shard's
//! `L_O` section read, whatever it holds.

mod common;

use std::path::{Path, PathBuf};

use common::{modes, u64_at};

use ring::mapped::{open_index, verify_index_checksums, write_index, OpenMode, HEADER_LEN};
use ring::ring::RingOptions;
use ring::sharded::{open_dir, shard_file_name, ShardedIndex};
use ring::{Dict, Graph, Triple};

const NODES: usize = 7; // index of the section in the table of contents

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rpq_layout_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// `n_edges` distinct-ish pseudo-random triples over `n_nodes` nodes and
/// eight predicates of very different sizes, with IRI-length names.
fn generated(n_nodes: u64, n_edges: usize) -> (Graph, Dict, Dict) {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let triples = (0..n_edges)
        .map(|_| {
            // Predicate 0 holds half the triples, 1 a quarter, …
            let p = (next() % 128).leading_zeros() as u64 - 57;
            Triple::new(next() % n_nodes, p, next() % n_nodes)
        })
        .collect();
    let mut nodes = Dict::new();
    for i in 0..n_nodes {
        nodes.intern(&format!("<http://example.org/entity/Q{i}>"));
    }
    let mut preds = Dict::new();
    for i in 0..8 {
        preds.intern(&format!("<http://example.org/prop/P{i}>"));
    }
    (Graph::new(triples, n_nodes, 8), nodes, preds)
}

/// `(offset, len)` of section `i` of a v2 `RRPQM01` image.
fn section(bytes: &[u8], i: usize) -> (usize, usize) {
    let at = 24 + i * 32;
    (
        u64_at(bytes, at + 8) as usize,
        u64_at(bytes, at + 16) as usize,
    )
}

/// Re-stamps section `i`'s CRC32C, so that a mutated payload reaches the
/// structural validation on a heap open too.
fn fix_crc(bytes: &mut [u8], i: usize) {
    let (off, len) = section(bytes, i);
    let crc = succinct::checksum::crc32c(&bytes[off..off + len]) as u64;
    bytes[24 + i * 32 + 24..][..8].copy_from_slice(&crc.to_le_bytes());
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().metadata().unwrap().len())
        .sum()
}

/// The space the layout exists for: four shards cost what the one file
/// costs, plus their headers and the boundaries each shard keeps over the
/// global universes — not a second, third and fourth dictionary.
#[test]
fn four_shards_cost_one_dictionary() {
    let dir = tmpdir("size");
    std::fs::create_dir_all(&dir).unwrap();
    let (graph, nodes, preds) = generated(1 << 14, 1 << 17);
    let one = ring::Ring::build(&graph, RingOptions::default());
    let one_file = write_index(&dir.join("one.rpqm"), &one, &nodes, &preds).unwrap();

    let sharded = dir.join("sharded");
    let written = ShardedIndex::build(&graph, 4, RingOptions::default())
        .save_dir(&sharded, &nodes, &preds)
        .unwrap();
    assert_eq!(written, dir_bytes(&sharded));
    let bound = one_file as f64 * 1.05 + 4.0 * HEADER_LEN as f64;
    assert!(
        (written as f64) <= bound,
        "4 shards: {written} B against {one_file} B in one file"
    );
    for i in 1..4 {
        let image = std::fs::read(sharded.join(shard_file_name(i))).unwrap();
        assert_eq!(section(&image, NODES).1, 24, "shard {i} stores no names");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The one dictionary is validated like any mapped dictionary, under both
/// residencies.
#[test]
fn a_malformed_dictionary_in_shard_0_is_rejected() {
    let dir = tmpdir("baddict");
    let (graph, nodes, preds) = generated(64, 400);
    ShardedIndex::build(&graph, 3, RingOptions::default())
        .save_dir(&dir, &nodes, &preds)
        .unwrap();
    let shard0 = dir.join(shard_file_name(0));
    let valid = std::fs::read(&shard0).unwrap();
    let (off, _) = section(&valid, NODES);
    let n = u64_at(&valid, off) as usize;
    assert_eq!(n, 64);
    let offsets_at = off + 16;
    let order_at = offsets_at + (n + 1) * 8;

    // An offset running backwards.
    let mut backwards = valid.clone();
    let later = u64_at(&valid, offsets_at + 6 * 8);
    backwards[offsets_at + 5 * 8..][..8].copy_from_slice(&(later + 1).to_le_bytes());
    // Two neighbours of the name-sorted permutation swapped.
    let mut unsorted = valid.clone();
    unsorted.copy_within(order_at..order_at + 8, order_at + 8);
    unsorted[order_at..][..8].copy_from_slice(&valid[order_at + 8..][..8]);

    for (image, want) in [(backwards, "not monotone"), (unsorted, "does not sort")] {
        let mut image = image;
        fix_crc(&mut image, NODES);
        std::fs::write(&shard0, &image).unwrap();
        for mode in modes() {
            let err = open_dir(&dir, mode).unwrap_err().to_string();
            assert!(err.contains(want), "{mode:?}: {err}");
        }
    }
    std::fs::write(&shard0, &valid).unwrap();
    assert_eq!(open_dir(&dir, OpenMode::Heap).unwrap().nodes.len(), 64);
    std::fs::remove_dir_all(&dir).ok();
}

/// A directory whose every shard carries the dictionaries, as builds
/// before the one-dictionary layout wrote them: the copies in shards ≥ 1
/// are dead weight an mmap open never looks at, but still bytes whose
/// section checksum `verify` and a heap open hold them to.
#[test]
fn leftover_dictionary_copies_are_unread_but_still_checksummed() {
    let dir = tmpdir("leftover");
    let (graph, nodes, preds) = generated(64, 400);
    let idx = ShardedIndex::build(&graph, 4, RingOptions::default());
    idx.save_dir(&dir, &nodes, &preds).unwrap();
    for (i, shard) in idx.shards().iter().enumerate() {
        write_index(&dir.join(shard_file_name(i)), shard, &nodes, &preds).unwrap();
    }
    // Any one of them is an index of its own partition, as it always was.
    assert_eq!(
        open_index(&dir.join(shard_file_name(2)), OpenMode::Heap)
            .unwrap()
            .nodes
            .len(),
        64
    );

    let shard2 = dir.join(shard_file_name(2));
    let mut image = std::fs::read(&shard2).unwrap();
    let (off, len) = section(&image, NODES);
    image[off + len / 2] ^= 0x40;
    std::fs::write(&shard2, &image).unwrap();

    #[cfg(all(unix, target_pointer_width = "64"))]
    {
        let opened = open_dir(&dir, OpenMode::Mmap).unwrap();
        assert_eq!(opened.rings.len(), 4);
        assert_eq!(opened.nodes.name(63), nodes.name(63));
    }
    let err = verify_index_checksums(&shard2).unwrap_err().to_string();
    assert!(err.contains("NODES"), "{err}");
    let err = open_dir(&dir, OpenMode::Heap).unwrap_err().to_string();
    assert!(err.contains("NODES"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A directory saved over in part: one shard file from when `L_O` held
/// the objects column, beside shards written today. It opens as the same
/// rings under both residencies and its checksums verify.
#[test]
fn a_shard_with_a_full_l_o_section_opens_beside_new_ones() {
    let dir = tmpdir("legacy_shard");
    let (graph, nodes, preds) = generated(64, 400);
    let idx = ShardedIndex::build(&graph, 4, RingOptions::default());
    idx.save_dir(&dir, &nodes, &preds).unwrap();
    let shard2 = dir.join(shard_file_name(2));
    let image = std::fs::read(&shard2).unwrap();
    let legacy = common::mapped_with_l_o(&image, &idx.shards()[2]);
    assert!(section(&legacy, common::L_O).1 > section(&image, common::L_O).1);
    std::fs::write(&shard2, &legacy).unwrap();

    verify_index_checksums(&shard2).unwrap();
    for mode in modes() {
        let opened = open_dir(&dir, mode).unwrap();
        assert_eq!(opened.nodes.len(), 64);
        for (old, new) in opened.rings.iter().zip(idx.shards()) {
            assert!(old.iter_triples().eq(new.iter_triples()), "{mode:?}");
            for p in 0..new.n_preds() {
                assert_eq!(old.pred_range(p), new.pred_range(p), "{mode:?}");
            }
            for v in 0..new.n_nodes() {
                assert_eq!(old.object_range(v), new.object_range(v), "{mode:?}");
                assert_eq!(old.subject_range(v), new.subject_range(v), "{mode:?}");
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
