//! The on-disk layout of a sharded index directory (`RRPQSH01`): one copy
//! of the dictionaries, in shard 0's file; every other shard opened
//! ring-only, whatever its `NODES`/`PREDS` sections hold.

mod common;

use std::path::{Path, PathBuf};

use common::{modes, u64_at};

use ring::mapped::{open_index, write_index, OpenMode, HEADER_LEN};
use ring::ring::RingOptions;
use ring::sharded::{open_dir, shard_file_name, ShardedIndex};
use ring::{Dict, Graph, Triple};

const NODES: usize = 5; // index of the section in the table of contents

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

/// `(offset, len)` of section `i` of a `RRPQM01` image.
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
        // `data_len` and the two empty permutations' `[width, len]`.
        assert_eq!(section(&image, NODES).1, 40, "shard {i} stores no names");
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
    // `data_len`, then `order` and `rank` as `[width, len, words]`, then
    // where each bucket of 16 names starts.
    let (off, _) = section(&valid, NODES);
    let words_after = |at: usize| {
        let bits = u64_at(&valid, at) * u64_at(&valid, at + 8);
        at + 16 + bits.div_ceil(64) as usize * 8
    };
    let order_at = off + 8;
    assert_eq!(u64_at(&valid, order_at + 8), 64);
    let buckets_at = words_after(words_after(order_at));

    // A bucket start running backwards.
    let mut backwards = valid.clone();
    let later = u64_at(&valid, buckets_at + 3 * 8);
    backwards[buckets_at + 2 * 8..][..8].copy_from_slice(&(later + 1).to_le_bytes());
    // The first id of the name-sorted permutation changed: two ranks now
    // name the same id.
    let mut unsorted = valid.clone();
    unsorted[order_at + 16] ^= 1;

    for (image, want) in [(backwards, "not monotone"), (unsorted, "not the inverse")] {
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
    let err = open_index(&shard2, OpenMode::Heap).unwrap_err().to_string();
    assert!(err.contains("NODES"), "{err}");
    let err = open_dir(&dir, OpenMode::Heap).unwrap_err().to_string();
    assert!(err.contains("NODES"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}
