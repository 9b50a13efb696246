//! Horizontal sharding: one graph partitioned into several sub-rings.
//!
//! The partition is by **predicate** — each base predicate's triples land
//! on one shard, chosen by greedy least-loaded binning so shard sizes
//! stay balanced — with a **subject-range fallback** for skewed
//! predicates: a predicate holding more than `⌈total/n_shards⌉` triples
//! is cut into contiguous subject-sorted chunks that bin independently,
//! so one hot predicate cannot capsize a shard. Every shard ring is built
//! over the *global* node and predicate universes (the source graph's
//! `n_nodes`/`n_preds`), which keeps ids, inverse labels
//! (`p̂ = p + |P|`) and wavelet-matrix alphabets identical across shards:
//! a scatter-gather union of per-shard results equals the unsharded
//! answer exactly.
//!
//! On disk a sharded index is a directory: one [`crate::mapped`]
//! `RRPQM01` file per shard plus a CRC-footered `MANIFEST` binding them
//! together. The directory holds **one** copy of the dictionaries, in
//! `shard-000.rpqm`; the other shard files keep the eight-section
//! container with empty `NODES`/`PREDS`. Ids are global, so one
//! dictionary names every shard's triples, and a copy per shard was
//! 3 B/triple of names stored, written, validated and paged in once per
//! shard for nothing. [`open_dir`] opens shard 0 whole and every other
//! shard ring-only — whatever its `NODES`/`PREDS` hold, so a directory
//! whose shards each carry a copy (as earlier builds wrote them) opens
//! the same way. All files are written atomically through
//! [`crate::durable`], so an interrupted save never corrupts an existing
//! file; a re-save over an existing directory is atomic per file, not
//! per directory.

use std::io::{self, BufReader, Read, Write};
use std::path::{Path, PathBuf};

use succinct::checksum::{CrcReader, CrcWriter};
use succinct::io::{read_u64, write_u64};
use succinct::ResidentMode;

use crate::durable::{
    self, atomic_write, checksum_error, durability_error, finish_footer, verify_footer,
    DurabilityError, FaultReader,
};
use crate::mapped::{self, OpenMode};
use crate::ring::RingOptions;
use crate::{Dict, Graph, Id, Ring, Triple};

/// Magic bytes opening a sharded-index manifest.
pub const MANIFEST_MAGIC: [u8; 8] = *b"RRPQSH01";

/// File name of the manifest inside a sharded index directory.
pub const MANIFEST_FILE: &str = "MANIFEST";

/// File name of shard `i`'s `RRPQM01` file inside the directory.
pub fn shard_file_name(i: usize) -> String {
    format!("shard-{i:03}.rpqm")
}

/// The `i` of a canonical [`shard_file_name`], if `name` is one.
fn shard_index(name: &str) -> Option<usize> {
    let i = name.strip_prefix("shard-")?.strip_suffix(".rpqm")?;
    let i: usize = i.parse().ok()?;
    (shard_file_name(i) == name).then_some(i)
}

/// A predicate-partitioned set of sub-rings over one graph.
///
/// Build once from the full graph; the shards share the graph's node and
/// predicate universes, so their per-shard answers union (with
/// deduplication for inverse labels of subject-split predicates) into
/// exactly the unsharded answer.
pub struct ShardedIndex {
    shards: Vec<Ring>,
}

impl ShardedIndex {
    /// Partitions `graph` into `n_shards` sub-rings.
    ///
    /// # Panics
    /// Panics if `n_shards` is zero.
    pub fn build(graph: &Graph, n_shards: usize, options: RingOptions) -> Self {
        assert!(n_shards >= 1, "a sharded index needs at least one shard");
        let shards = partition_triples(graph, n_shards)
            .into_iter()
            .map(|run| {
                let part = Graph::from_sorted(run, graph.n_nodes(), graph.n_preds());
                Ring::build(&part, options)
            })
            .collect();
        Self { shards }
    }

    /// Number of shards (fixed at build/open time; empty shards count).
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// The sub-rings, in shard order.
    pub fn shards(&self) -> &[Ring] {
        &self.shards
    }

    /// Consumes the index, handing out the sub-rings.
    pub fn into_shards(self) -> Vec<Ring> {
        self.shards
    }

    /// Total completed triples across the shards (each base triple and
    /// its inverse counted once, on whichever shard holds them).
    pub fn n_triples(&self) -> usize {
        self.shards.iter().map(|r| r.n_triples()).sum()
    }

    /// Persists the index as a directory: `shard-NNN.rpqm` per shard —
    /// the dictionaries in shard 0's file only — plus the CRC-footered
    /// `MANIFEST`. Once the new manifest is durable, shard files of an
    /// earlier save with more shards are removed, and so are the temp
    /// files an interrupted save stranded. Returns total bytes written.
    pub fn save_dir(&self, dir: &Path, nodes: &Dict, preds: &Dict) -> io::Result<u64> {
        std::fs::create_dir_all(dir)?;
        let empty = Dict::new();
        let mut total = 0u64;
        for (i, ring) in self.shards.iter().enumerate() {
            let (nodes, preds) = if i == 0 {
                (nodes, preds)
            } else {
                (&empty, &empty)
            };
            total += mapped::write_index(&dir.join(shard_file_name(i)), ring, nodes, preds)?;
        }
        total += write_manifest(&dir.join(MANIFEST_FILE), &self.shards)?;
        let unnamed = unnamed_files(dir, self.shards.len());
        let stale_shards = unnamed.stale.into_iter().filter(|stale| {
            let name = stale.file_name().and_then(|n| n.to_str());
            name.and_then(shard_index).is_some()
        });
        for file in unnamed.orphan_tmps.into_iter().chain(stale_shards) {
            std::fs::remove_file(&file)?;
        }
        Ok(total)
    }
}

/// What a sharded directory holds besides its `MANIFEST` and the
/// `n_shards` shard files the manifest names.
#[derive(Debug, Default)]
pub struct UnnamedFiles {
    /// `MANIFEST.*.tmp` / `shard-NNN.rpqm.*.tmp`: what an interrupted
    /// atomic save strands.
    pub orphan_tmps: Vec<PathBuf>,
    /// Everything else — shard files past `n_shards` included.
    pub stale: Vec<PathBuf>,
}

/// Lists the files of `dir` that an index of `n_shards` shards does not
/// use (an unreadable directory lists nothing).
pub fn unnamed_files(dir: &Path, n_shards: usize) -> UnnamedFiles {
    let mut out = UnnamedFiles::default();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return out;
    };
    let saved = |file: &str| file == MANIFEST_FILE || shard_index(file).is_some();
    for entry in entries.flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        if name == MANIFEST_FILE || shard_index(&name).is_some_and(|i| i < n_shards) {
            continue;
        }
        if durable::staged_target(&name).is_some_and(saved) {
            out.orphan_tmps.push(entry.path());
        } else {
            out.stale.push(entry.path());
        }
    }
    out.orphan_tmps.sort();
    out.stale.sort();
    out
}

/// Whether `path` is a sharded index directory (a directory holding a
/// `MANIFEST` that starts with the sharded magic).
pub fn is_sharded_dir(path: &Path) -> bool {
    if !path.is_dir() {
        return false;
    }
    let Ok(mut f) = std::fs::File::open(path.join(MANIFEST_FILE)) else {
        return false;
    };
    let mut magic = [0u8; 8];
    f.read_exact(&mut magic).is_ok() && magic == MANIFEST_MAGIC
}

/// A sharded index directory, opened: the sub-rings and the one pair of
/// dictionaries that names their (global) ids.
#[derive(Debug)]
pub struct OpenedDir {
    /// The sub-rings, in shard order.
    pub rings: Vec<Ring>,
    /// Node dictionary, its base borrowing shard 0's file.
    pub nodes: Dict,
    /// Predicate dictionary, its base borrowing shard 0's file.
    pub preds: Dict,
    /// Whether the bytes live in kernel mappings or on the heap.
    pub resident: ResidentMode,
    /// Bytes held by the kernel mappings, all shards (0 in heap mode).
    pub mapped_bytes: u64,
}

/// Opens a sharded index directory: verifies the manifest checksum, then
/// opens shard 0 with its dictionaries and every other shard ring-only
/// under `mode` (each file validates its own ring's cross-component
/// shapes, and its section CRCs on a heap open) and cross-checks every
/// ring against the manifest — shard count, per-shard triple count, and
/// the shared node/predicate universes, which shard 0's open has already
/// held the dictionaries to. A section checksum error names its shard:
/// its context starts `shard {i}:`.
pub fn open_dir(dir: &Path, mode: OpenMode) -> io::Result<OpenedDir> {
    let manifest = read_manifest(&dir.join(MANIFEST_FILE))?;
    let check = |i: usize, ring: &Ring| {
        let context = || format!("{}: shard {i}", dir.display());
        if ring.n_triples() as u64 != manifest.shard_triples[i] {
            return Err(manifest_mismatch(&context(), "triple count"));
        }
        if ring.n_nodes() != manifest.n_nodes {
            return Err(manifest_mismatch(&context(), "node universe"));
        }
        if ring.n_preds_base() != manifest.n_preds_base {
            return Err(manifest_mismatch(&context(), "predicate universe"));
        }
        Ok(())
    };
    let first = mapped::open_index(&dir.join(shard_file_name(0)), mode).map_err(in_shard(0))?;
    check(0, &first.ring)?;
    let mut opened = OpenedDir {
        rings: Vec::with_capacity(manifest.shard_triples.len()),
        nodes: first.nodes,
        preds: first.preds,
        resident: first.resident,
        mapped_bytes: first.mapped_bytes,
    };
    opened.rings.push(first.ring);
    for i in 1..manifest.shard_triples.len() {
        let shard = mapped::open_ring(&dir.join(shard_file_name(i)), mode).map_err(in_shard(i))?;
        check(i, &shard.ring)?;
        opened.mapped_bytes += shard.mapped_bytes;
        opened.rings.push(shard.ring);
    }
    Ok(opened)
}

/// Prefixes `shard {i}: ` to the context of a checksum error from opening
/// shard `i`'s file; any other error passes as it is.
fn in_shard(i: usize) -> impl FnOnce(io::Error) -> io::Error {
    move |e| match durability_error(&e) {
        Some(DurabilityError::ChecksumMismatch {
            context,
            expected,
            actual,
        }) => checksum_error(format!("shard {i}: {context}"), *expected, *actual),
        _ => e,
    }
}

fn manifest_mismatch(context: &str, what: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("{context}: {what} does not match the manifest"),
    )
}

struct Manifest {
    n_nodes: Id,
    n_preds_base: Id,
    shard_triples: Vec<u64>,
}

fn write_manifest(path: &Path, shards: &[Ring]) -> io::Result<u64> {
    atomic_write(path, |w| {
        let mut cw = CrcWriter::new(w);
        cw.write_all(&MANIFEST_MAGIC)?;
        write_u64(&mut cw, shards.len() as u64)?;
        write_u64(&mut cw, shards[0].n_nodes())?;
        write_u64(&mut cw, shards[0].n_preds_base())?;
        for ring in shards {
            write_u64(&mut cw, ring.n_triples() as u64)?;
        }
        finish_footer(&mut cw)
    })
}

fn read_manifest(path: &Path) -> io::Result<Manifest> {
    let context = path.display().to_string();
    let file = FaultReader::new(std::fs::File::open(path)?);
    let mut r = CrcReader::new(BufReader::new(file));
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if magic != MANIFEST_MAGIC {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{context}: not a sharded index manifest"),
        ));
    }
    let n_shards = read_u64(&mut r)?;
    if n_shards == 0 || n_shards > 1 << 20 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{context}: implausible shard count {n_shards}"),
        ));
    }
    let n_nodes = read_u64(&mut r)?;
    let n_preds_base = read_u64(&mut r)?;
    let mut shard_triples = Vec::with_capacity(n_shards as usize);
    for _ in 0..n_shards {
        shard_triples.push(read_u64(&mut r)?);
    }
    verify_footer(&mut r, &context)?;
    Ok(Manifest {
        n_nodes,
        n_preds_base,
        shard_triples,
    })
}

/// Partitions the base triples across `n_shards`: whole predicates bin
/// greedily onto the least-loaded shard (largest first, ties broken by
/// predicate id, so the partition is deterministic); a predicate larger
/// than `⌈total/n_shards⌉` is first cut into contiguous subject-sorted
/// chunks that bin as independent units. Each shard's run comes back in
/// the graph's `(s, p, o)` order.
fn partition_triples(graph: &Graph, n_shards: usize) -> Vec<Vec<Triple>> {
    let triples = graph.triples();
    let mut counts = vec![0usize; graph.n_preds() as usize];
    for t in triples {
        counts[t.p as usize] += 1;
    }
    let threshold = triples.len().div_ceil(n_shards).max(1);

    // The units, in (predicate, chunk) order: `unit_sizes[first_unit[p] + i]`
    // is chunk `i` of predicate `p`, `chunk_len[p]` triples but for the last.
    let mut unit_sizes = Vec::new();
    let mut first_unit = vec![0usize; counts.len()];
    let mut chunk_len = vec![0usize; counts.len()];
    for (p, &count) in counts.iter().enumerate() {
        if count == 0 {
            continue;
        }
        let n_chunks = count.div_ceil(threshold);
        chunk_len[p] = count.div_ceil(n_chunks);
        first_unit[p] = unit_sizes.len();
        unit_sizes.extend(
            (0..count)
                .step_by(chunk_len[p])
                .map(|at| chunk_len[p].min(count - at)),
        );
    }

    // Largest unit first onto the least-loaded shard; the sort is stable,
    // so equal sizes keep their (predicate, chunk) order.
    let mut by_size: Vec<usize> = (0..unit_sizes.len()).collect();
    by_size.sort_by_key(|&u| std::cmp::Reverse(unit_sizes[u]));
    let mut loads = vec![0usize; n_shards];
    let mut shard_of = vec![0usize; unit_sizes.len()];
    for u in by_size {
        let target = (0..n_shards)
            .min_by_key(|&i| (loads[i], i))
            .expect("n_shards >= 1");
        loads[target] += unit_sizes[u];
        shard_of[u] = target;
    }

    // One scan deals the triples out. Those of one predicate pass in
    // `(s, o)` order — the restriction of `(s, p, o)` order to it — so a
    // running count per predicate says which of its chunks a triple is in.
    let mut shards: Vec<Vec<Triple>> = loads.iter().map(|&l| Vec::with_capacity(l)).collect();
    let mut unit = first_unit;
    let mut left = chunk_len.clone();
    for &t in triples {
        let p = t.p as usize;
        if left[p] == 0 {
            unit[p] += 1;
            left[p] = chunk_len[p];
        }
        left[p] -= 1;
        shards[shard_of[unit[p]]].push(t);
    }
    shards
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn graph() -> Graph {
        let mut triples = Vec::new();
        // Predicate 0 is hot (28 edges), 1..4 small.
        for s in 0..14u64 {
            triples.push(Triple::new(s, 0, (s + 1) % 14));
            triples.push(Triple::new(s, 0, (s + 7) % 14));
        }
        for s in 0..4u64 {
            triples.push(Triple::new(s, 1, s + 1));
            triples.push(Triple::new(s + 2, 2, s));
        }
        triples.push(Triple::new(0, 3, 13));
        Graph::from_triples(triples)
    }

    #[test]
    fn partition_is_exact_and_balanced() {
        let g = graph();
        for n_shards in [1, 2, 4, 7] {
            let parts = partition_triples(&g, n_shards);
            assert_eq!(parts.len(), n_shards);
            let mut union: Vec<Triple> = parts.iter().flatten().copied().collect();
            union.sort_unstable();
            assert_eq!(
                union,
                g.triples(),
                "partition must be exact ({n_shards} shards)"
            );
            // No shard may hold more than 2× the ideal share (greedy
            // binning of threshold-bounded units guarantees this).
            let ideal = g.len().div_ceil(n_shards);
            for p in &parts {
                assert!(p.len() <= 2 * ideal, "{} > 2×{ideal}", p.len());
            }
        }
    }

    #[test]
    fn skewed_predicate_splits_by_subject_range() {
        let g = graph();
        let parts = partition_triples(&g, 4);
        // Predicate 0 (28 of 37 triples) must span several shards.
        let holding = parts.iter().filter(|p| p.iter().any(|t| t.p == 0)).count();
        assert!(holding >= 2, "hot predicate stayed on {holding} shard(s)");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// What the one-scan deal promises, on graphs with few and with
        /// many predicates, one of them (`p = 0`, three draws in four)
        /// holding most of the triples; `n_shards` from 1 to past the
        /// predicate count.
        #[test]
        fn partition_deals_every_triple_once_in_order(
            n_preds in 1u64..7,
            raw in prop::collection::vec((0u64..24, 0u64..28, 0u64..24), 0..160),
            n_shards in 1usize..10,
        ) {
            let triples = raw
                .into_iter()
                .map(|(s, p, o)| Triple::new(s, if p % 4 == 0 { p % n_preds } else { 0 }, o))
                .collect();
            let g = Graph::new(triples, 24, n_preds);
            let parts = partition_triples(&g, n_shards);
            prop_assert_eq!(parts.len(), n_shards);

            // Every base triple lands in exactly one shard, and each
            // shard's run is strictly increasing.
            let mut union: Vec<Triple> = parts.iter().flatten().copied().collect();
            union.sort_unstable();
            prop_assert_eq!(union.as_slice(), g.triples());
            for run in &parts {
                prop_assert!(run.windows(2).all(|w| w[0] < w[1]));
            }

            let threshold = g.len().div_ceil(n_shards).max(1);
            for p in 0..n_preds {
                let of_p: Vec<Triple> = g.triples().iter().filter(|t| t.p == p).copied().collect();
                let holders: Vec<&Vec<Triple>> =
                    parts.iter().filter(|run| run.iter().any(|t| t.p == p)).collect();
                if of_p.len() <= threshold {
                    // A predicate at or under the threshold lands whole.
                    prop_assert!(holders.len() <= 1);
                    continue;
                }
                // A split predicate: equal chunks of its (s, o) order, so
                // what one shard holds of it is a union of those chunks.
                let chunk = of_p.len().div_ceil(of_p.len().div_ceil(threshold));
                for run in holders {
                    let held: Vec<Triple> = run.iter().filter(|t| t.p == p).copied().collect();
                    let mut rest = held.as_slice();
                    for c in of_p.chunks(chunk) {
                        if rest.first() == c.first() {
                            prop_assert!(rest.starts_with(c));
                            rest = &rest[c.len()..];
                        }
                    }
                    prop_assert!(rest.is_empty(), "shard holds part of a chunk of {}", p);
                }
            }

            // The shard rings are those of the same sets, sorted the
            // slow way.
            let idx = ShardedIndex::build(&g, n_shards, RingOptions::default());
            for (ring, run) in idx.shards().iter().zip(parts) {
                let want = Ring::build(&Graph::new(run, 24, n_preds), RingOptions::default());
                prop_assert!(mapped::stored_bytes(ring) == mapped::stored_bytes(&want));
            }
        }
    }

    #[test]
    fn shards_share_global_universes() {
        let g = graph();
        let idx = ShardedIndex::build(&g, 3, RingOptions::default());
        assert_eq!(idx.n_shards(), 3);
        assert_eq!(idx.n_triples(), 2 * g.len());
        for r in idx.shards() {
            assert_eq!(r.n_nodes(), g.n_nodes());
            assert_eq!(r.n_preds_base(), g.n_preds());
        }
    }

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rpq-sharded-{name}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn save_open_roundtrip_with_validation() {
        let dir = tmpdir("roundtrip");
        let g = graph();
        let idx = ShardedIndex::build(&g, 3, RingOptions::default());
        let nodes = full_dict(g.n_nodes(), "n");
        let preds = full_dict(g.n_preds(), "p");
        let bytes = idx.save_dir(&dir, &nodes, &preds).unwrap();
        assert!(bytes > 0);
        assert!(is_sharded_dir(&dir));
        assert!(!is_sharded_dir(&dir.join("nope")));

        let opened = open_dir(&dir, OpenMode::Heap).unwrap();
        assert_eq!(opened.rings.len(), 3);
        for (got, want) in opened.rings.iter().zip(idx.shards()) {
            assert_eq!(got.n_triples(), want.n_triples());
        }
        assert_eq!(opened.nodes.len() as Id, g.n_nodes());
        assert_eq!(opened.preds.len() as Id, g.n_preds());

        // A manifest/shard mismatch is rejected: a manifest for a single
        // shard of another size.
        write_manifest(&dir.join(MANIFEST_FILE), &idx.shards()[1..2]).unwrap();
        let err = open_dir(&dir, OpenMode::Heap).unwrap_err();
        assert!(err.to_string().contains("manifest"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A save over a directory that held more shards leaves none of them
    /// behind, nor the temp files of an interrupted save, and says what
    /// else is lying around without touching it.
    #[test]
    fn resave_with_fewer_shards_removes_the_stale_ones() {
        let dir = tmpdir("resave");
        let g = graph();
        let (nodes, preds) = (full_dict(g.n_nodes(), "n"), full_dict(g.n_preds(), "p"));
        let save = |n| {
            ShardedIndex::build(&g, n, RingOptions::default())
                .save_dir(&dir, &nodes, &preds)
                .unwrap()
        };
        save(4);
        let tmp = dir.join(format!("{}.77.0.tmp", shard_file_name(1)));
        std::fs::write(&tmp, b"torn").unwrap();
        std::fs::write(dir.join("MANIFEST.77.1.tmp"), b"torn").unwrap();
        std::fs::write(dir.join("notes.txt"), b"mine").unwrap();
        let unnamed = unnamed_files(&dir, 4);
        assert_eq!(unnamed.orphan_tmps, [dir.join("MANIFEST.77.1.tmp"), tmp]);
        assert_eq!(unnamed.stale, [dir.join("notes.txt")]);
        let written = save(2);

        let mut left: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        left.sort();
        assert_eq!(
            left,
            ["MANIFEST", "notes.txt", "shard-000.rpqm", "shard-001.rpqm"]
        );
        let on_disk = |f: &str| std::fs::metadata(dir.join(f)).unwrap().len();
        assert_eq!(
            written,
            on_disk("MANIFEST") + on_disk("shard-000.rpqm") + on_disk("shard-001.rpqm")
        );
        let unnamed = unnamed_files(&dir, 2);
        assert!(unnamed.orphan_tmps.is_empty());
        assert_eq!(unnamed.stale, [dir.join("notes.txt")]);
        assert_eq!(open_dir(&dir, OpenMode::Heap).unwrap().rings.len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_manifest_is_rejected() {
        let dir = tmpdir("bad");
        let g = graph();
        let idx = ShardedIndex::build(&g, 2, RingOptions::default());
        idx.save_dir(
            &dir,
            &full_dict(g.n_nodes(), "n"),
            &full_dict(g.n_preds(), "p"),
        )
        .unwrap();
        let mpath = dir.join(MANIFEST_FILE);
        let mut bytes = std::fs::read(&mpath).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&mpath, &bytes).unwrap();
        assert!(open_dir(&dir, OpenMode::Heap).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    fn full_dict(n: Id, prefix: &str) -> Dict {
        let mut d = Dict::new();
        for i in 0..n {
            d.intern(&format!("{prefix}{i}"));
        }
        d
    }
}
