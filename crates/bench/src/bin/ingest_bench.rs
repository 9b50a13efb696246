//! E11: parallel bulk ingest and zero-copy cold start, written to
//! `BENCH_ingest.json`.
//!
//! Generates a synthetic N-Triples dump (deterministic LCG, Zipf-ish
//! predicate skew), streams it through the chunk-parallel ingest path
//! into a ring, persists it as an `RRPQM01` file, decodes the graph back
//! out of the reopened ring (`graph_decode_s`, beside the `build_s` of
//! the ring it decodes), then measures **cold opens in child processes**
//! — re-executing this binary per mode — so allocator reuse in a warm
//! parent cannot flatter the resident-memory numbers: a heap and a
//! mapped `RpqDatabase` open, and an `UpdatableDatabase::open_durable`
//! of the same file (`cold_open_durable_us`, and its peak resident set
//! `hwm_open_durable_kb`). Every child reports a probe-query checksum and
//! the triple count; the parent asserts the three opens agree
//! bit-for-bit before any number is written.
//!
//! Modes follow the other benches: `--quick` / `RPQ_BENCH_QUICK=1`
//! shrinks the dump for the CI perf smoke (the full run defaults to
//! 10M triples; `RPQ_INGEST_TRIPLES` overrides either), `--check
//! <baseline.json>` exits non-zero when a timing key regresses more
//! than [`CHECK_FACTOR`]x, and the output path honours `RPQ_BENCH_OUT`.
//! `RPQ_BENCH_MIN_OPEN_SPEEDUP` arms the cold-open gate: mmap open must
//! beat the checksummed heap read of the same file by at least that
//! factor.

use ring::mapped::OpenMode;
use ring_rpq::{ingest, RpqDatabase, UpdatableDatabase};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Allowed regression factor for `--check`.
const CHECK_FACTOR: f64 = 3.0;

/// A `/proc/self/status` size of this process, in KiB: `VmRSS` (resident
/// now) or `VmHWM` (resident at its peak). 0 where procfs is unavailable.
fn status_kb(key: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find(|l| l.starts_with(key)).and_then(|l| {
                l.split_whitespace()
                    .nth(1)
                    .and_then(|v| v.parse::<u64>().ok())
            })
        })
        .unwrap_or(0)
}

fn rss_kb() -> u64 {
    status_kb("VmRSS:")
}

/// Writes `n` pseudo-random triples as N-Triples lines: `nodes = n/10`
/// subjects/objects, 32 predicates with trailing-zero skew (predicate 0
/// carries half the dump, like a Wikidata top property). One object in
/// eight is a literal — plain, `@en` or `^^<…#date>` by turns, one in
/// 256 of them with escapes — so the dump exercises the literal paths of
/// the scanner the way a truthy dump does (about half of whose objects
/// are literals).
fn generate_dump(path: &Path, n: u64) -> std::io::Result<()> {
    let n_nodes = (n / 10).max(16);
    let mut w = std::io::BufWriter::with_capacity(1 << 20, std::fs::File::create(path)?);
    let mut state = 0x9E3779B97F4A7C15u64;
    let mut next = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 11
    };
    for _ in 0..n {
        let s = next() % n_nodes;
        let o = next() % n_nodes;
        let r = next();
        let p = if r % 2 == 0 { 0 } else { 1 + (r >> 1) % 31 };
        write!(w, "<http://g/n{s}> <http://g/p{p}> ")?;
        let l = next();
        if l % 8 != 0 {
            writeln!(w, "<http://g/n{o}> .")?;
        } else if (l >> 3) % 256 == 0 {
            writeln!(w, "\"item \\\"{o}\\\" of\\t{n_nodes}\\n\" .")?;
        } else {
            match (l >> 11) % 3 {
                0 => writeln!(w, "\"item {o}\" .")?,
                1 => writeln!(w, "\"item {o}\"@en .")?,
                _ => writeln!(
                    w,
                    "\"{}-{:02}-{:02}\"^^<http://www.w3.org/2001/XMLSchema#date> .",
                    1900 + o % 120,
                    1 + o % 12,
                    1 + o % 28
                )?,
            }
        }
    }
    w.flush()
}

/// Microseconds one 256-operation commit takes once the overlay holds
/// `overlay` entries (median of five): 192 inserts of new triples and 64
/// tombstones per batch, auto-compaction off, on a 2^16-edge store.
/// A commit merges its batch into the overlay, so this may grow with the
/// overlay's length but must not with its logarithm times its length.
fn commit_us_at(overlays: &[usize]) -> Vec<f64> {
    use ring::store::{TripleStore, UpdateOp};
    use ring::{Graph, Triple};
    const NODES: u64 = 1 << 13;
    let mut state = 0x5EED_CAFE_F00Du64;
    let mut next = |m: u64| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 24) % m
    };
    let base: Vec<Triple> = (0..1 << 16)
        .map(|_| Triple::new(next(NODES), next(32), next(NODES)))
        .collect();
    let graph = Graph::new(base, NODES, 32);
    let victims = graph.triples().to_vec();
    let store = TripleStore::new(graph).with_auto_compact_ratio(None);
    let mut commit = |store: &TripleStore| {
        store.apply((0..256).map(|i| {
            if i % 4 == 3 {
                UpdateOp::Delete(victims[next(victims.len() as u64) as usize])
            } else {
                UpdateOp::Insert(Triple::new(next(NODES), next(32), next(NODES)))
            }
        }));
        let t = Instant::now();
        store.commit();
        t.elapsed().as_nanos() as f64 / 1000.0
    };
    overlays
        .iter()
        .map(|&overlay| {
            let len = |store: &TripleStore| {
                let s = store.stats();
                s.delta_adds + s.delta_deletes
            };
            while len(&store) < overlay {
                commit(&store);
            }
            let mut us: Vec<f64> = (0..5).map(|_| commit(&store)).collect();
            us.sort_by(f64::total_cmp);
            us[2]
        })
        .collect()
}

/// What one cold-open child reports back on stdout.
struct ChildReport {
    open_us: f64,
    rss_kb: u64,
    hwm_kb: u64,
    n_triples: u64,
    probe_rows: u64,
    probe_checksum: u64,
}

/// Child mode: open `path` as `mode` says — `heap`, `auto` or `mmap`
/// through `RpqDatabase::open_with`, `durable` through
/// `UpdatableDatabase::open_durable` — run the probe query, report.
fn run_child(path: &str, mode: &str) {
    // Touch the index: one anchored single-label probe, exercising
    // rank/select over the mapped columns.
    let [s, e, o] = ["<http://g/n0>", "<http://g/p0>", "?o"];
    let opts = rpq_core::EngineOptions::default();
    let path = Path::new(path);
    let t = Instant::now();
    let (open_us, out, n_triples) = if mode == "durable" {
        let db = UpdatableDatabase::open_durable(path).expect("durable cold open");
        let open_us = t.elapsed().as_nanos() as f64 / 1000.0;
        let out = db.query_with(s, e, o, &opts).expect("probe query");
        (open_us, out, db.store().snapshot().ring.n_triples())
    } else {
        let mode = match mode {
            "heap" => OpenMode::Heap,
            "auto" => OpenMode::Auto,
            "mmap" => OpenMode::Mmap,
            other => panic!("unknown open mode {other}"),
        };
        let db = RpqDatabase::open_with(path, mode).expect("cold open");
        let open_us = t.elapsed().as_nanos() as f64 / 1000.0;
        let out = db.query_with(s, e, o, &opts).expect("probe query");
        (open_us, out, db.ring().n_triples())
    };
    let mut checksum = 0u64;
    for &(s, o) in &out.pairs {
        checksum = checksum
            .wrapping_mul(0x100000001B3)
            .wrapping_add(s.wrapping_mul(1_000_003).wrapping_add(o));
    }
    println!(
        "{{\"open_us\":{open_us:.1},\"rss_kb\":{},\"hwm_kb\":{},\"n_triples\":{n_triples},\"probe_rows\":{},\"probe_checksum\":{checksum}}}",
        rss_kb(),
        status_kb("VmHWM:"),
        out.pairs.len(),
    );
}

/// Extracts `"key":<number>` from a flat JSON text.
fn json_number(text: &str, key: &str) -> Option<f64> {
    let tag = format!("\"{key}\":");
    let at = text.find(&tag)? + tag.len();
    let rest = &text[at..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

fn spawn_child(index: &Path, mode: &str) -> ChildReport {
    let exe = std::env::current_exe().expect("own executable path");
    let out = std::process::Command::new(exe)
        .arg("--open-child")
        .arg(index)
        .arg(mode)
        .output()
        .expect("spawning cold-open child");
    assert!(
        out.status.success(),
        "cold-open child ({mode}) failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).expect("child output is UTF-8");
    let field = |k: &str| {
        json_number(&text, k).unwrap_or_else(|| panic!("child ({mode}) omitted {k}: {text}"))
    };
    ChildReport {
        open_us: field("open_us"),
        rss_kb: field("rss_kb") as u64,
        hwm_kb: field("hwm_kb") as u64,
        n_triples: field("n_triples") as u64,
        probe_rows: field("probe_rows") as u64,
        probe_checksum: field("probe_checksum") as u64,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().is_some_and(|a| a == "--open-child") {
        run_child(&args[1], &args[2]);
        return;
    }
    let quick = args.iter().any(|a| a == "--quick")
        || std::env::var("RPQ_BENCH_QUICK").is_ok_and(|v| v == "1");
    let check_baseline = args
        .iter()
        .position(|a| a == "--check")
        .and_then(|i| args.get(i + 1))
        .cloned();

    let n_triples: u64 = std::env::var("RPQ_INGEST_TRIPLES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(if quick { 1_000_000 } else { 10_000_000 });
    let dir = std::env::temp_dir().join(format!("rpq_ingest_bench_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("bench scratch dir");
    let dump: PathBuf = dir.join("dump.nt");
    let mapped_path = dir.join("index.rpqm");

    eprintln!(
        "ingest bench: {n_triples} triples, {} host threads{}",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        if quick { " (quick)" } else { "" }
    );

    let t = Instant::now();
    generate_dump(&dump, n_triples).expect("writing the dump");
    let gen_ms = t.elapsed().as_secs_f64() * 1000.0;
    let dump_bytes = std::fs::metadata(&dump).expect("dump metadata").len();
    eprintln!("  generated {dump_bytes} bytes in {gen_ms:.0} ms");

    let t = Instant::now();
    let ((graph, nodes, preds), ingest_phases) =
        ingest::load_ntriples_file_timed(&dump).expect("streaming parse");
    let parse_ms = t.elapsed().as_secs_f64() * 1000.0;
    let parse_mb_per_s = dump_bytes as f64 / 1e6 / (parse_ms / 1000.0);
    let parsed_triples = graph.len() as u64;
    eprintln!(
        "  parsed {} distinct triples ({} nodes, {} preds) in {parse_ms:.0} ms ({parse_mb_per_s:.0} MB/s)",
        graph.len(),
        nodes.len(),
        preds.len()
    );
    let ingest::IngestTimings {
        read_s,
        scan_s,
        merge_s,
        sort_s,
        threads: ingest_threads,
    } = ingest_phases;
    eprintln!(
        "  ingest phases: read {read_s:.3} s, scan {scan_s:.3} s, merge {merge_s:.3} s, \
         sort {sort_s:.3} s (wall clock of the calling thread; scans on {ingest_threads} thread(s))"
    );

    let t = Instant::now();
    let db = RpqDatabase::from_parts(graph, nodes, preds);
    let build_ms = t.elapsed().as_secs_f64() * 1000.0;
    let rss_after_build_kb = rss_kb();
    eprintln!(
        "  built ring ({} indexed triples) in {build_ms:.0} ms, rss {rss_after_build_kb} KiB",
        db.ring().n_triples()
    );

    // Where a build spends its time: the same graph once more through
    // the instrumented entry point.
    let t = Instant::now();
    let (_, phases) = ring::Ring::build_timed(db.graph(), ring::ring::RingOptions::default());
    let build_s = t.elapsed().as_secs_f64();
    eprintln!(
        "  ring build {build_s:.3} s: order {:.3} s, wavelet {:.3} s, \
         boundaries {:.3} s (column seconds summed over {} thread(s))",
        phases.order_s, phases.wavelet_s, phases.boundaries_s, phases.threads
    );

    let t = Instant::now();
    let mapped_bytes = db.save_mapped(&mapped_path).expect("mapped save");
    let save_mapped_ms = t.elapsed().as_secs_f64() * 1000.0;
    let indexed_triples = db.ring().n_triples() as u64;
    eprintln!("  saved {mapped_bytes} B in {save_mapped_ms:.0} ms");

    // The way back: the graph decoded out of the reopened ring.
    let reopened = RpqDatabase::open(&mapped_path).expect("reopen");
    let t = Instant::now();
    let decoded = reopened.graph();
    let graph_decode_s = t.elapsed().as_secs_f64();
    assert!(
        decoded.triples() == db.graph().triples(),
        "the decoded graph is not the one the ring was built from"
    );
    eprintln!(
        "  graph decode {graph_decode_s:.3} s ({:.2}x the ring build)",
        graph_decode_s / build_s.max(1e-9)
    );
    drop(reopened);
    drop(db);

    // Cold opens, one fresh process per mode.
    let heap = spawn_child(&mapped_path, "heap");
    let mmap_supported = cfg!(all(unix, target_pointer_width = "64"));
    let mmap = if mmap_supported {
        spawn_child(&mapped_path, "mmap")
    } else {
        spawn_child(&mapped_path, "auto")
    };
    assert_eq!(mmap.n_triples, heap.n_triples, "triple count diverged");
    assert_eq!(mmap.probe_rows, heap.probe_rows, "probe rows diverged");
    assert_eq!(
        mmap.probe_checksum, heap.probe_checksum,
        "probe answers diverged between the residencies"
    );
    let open_speedup = heap.open_us / mmap.open_us.max(1e-9);
    eprintln!(
        "  cold open: heap {:.0} us (rss {} KiB) | mmap {:.1} us (rss {} KiB) -> {open_speedup:.1}x",
        heap.open_us, heap.rss_kb, mmap.open_us, mmap.rss_kb
    );
    // The same file opened for updates (its write-ahead log is created
    // beside it), measured by the peak resident set: it counts what the
    // open allocates and frees again before the probe.
    let durable = spawn_child(&mapped_path, "durable");
    assert_eq!(durable.n_triples, heap.n_triples, "triple count diverged");
    assert_eq!(durable.probe_rows, heap.probe_rows, "probe rows diverged");
    assert_eq!(
        durable.probe_checksum, heap.probe_checksum,
        "probe answers diverged between the immutable and the durable open"
    );
    eprintln!(
        "  durable cold open: {:.0} us (peak rss {} KiB)",
        durable.open_us, durable.hwm_kb
    );

    // WAL replay: a tiny snapshot plus a committed-but-uncheckpointed
    // log, timed through the durable open (crash-recovery cold start).
    let wal_replay_ops: u64 = std::env::var("RPQ_WAL_REPLAY_OPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(if quick { 10_000 } else { 100_000 });
    let wal_db = dir.join("wal.db");
    ring_rpq::UpdatableDatabase::from_text("seed p0 seed\n")
        .expect("seed graph")
        .save(&wal_db)
        .expect("seed save");
    let udb = ring_rpq::UpdatableDatabase::open_durable(&wal_db).expect("durable open");
    let mut state = 0x0DD0_15EAu64;
    for i in 0..wal_replay_ops {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let r = state >> 11;
        udb.insert(
            &format!("s{}", r % (wal_replay_ops / 4).max(16)),
            &format!("p{}", r % 32),
            &format!("o{}", (r >> 32) % (wal_replay_ops / 4).max(16)),
        );
        if (i + 1) % 10_000 == 0 {
            udb.commit();
        }
    }
    udb.commit();
    let wal_epoch = udb.epoch();
    let wal_live = udb.store().snapshot().live_triples().len();
    drop(udb); // crash: the updates exist only in the WAL
    let t = Instant::now();
    let revived = ring_rpq::UpdatableDatabase::open_durable(&wal_db).expect("replay open");
    let wal_replay_us = t.elapsed().as_nanos() as f64 / 1000.0;
    assert_eq!(revived.epoch(), wal_epoch, "replay lost commits");
    assert_eq!(
        revived.store().snapshot().live_triples().len(),
        wal_live,
        "replay diverged from the pre-crash state"
    );
    drop(revived);
    eprintln!(
        "  wal replay: {wal_replay_ops} op(s) in {:.0} us ({:.2}x the heap cold open)",
        wal_replay_us,
        wal_replay_us / heap.open_us.max(1e-9)
    );

    let commit_us = commit_us_at(&[1 << 10, 1 << 15]);
    let (commit_1k, commit_32k) = (commit_us[0], commit_us[1]);
    eprintln!(
        "  commit of 256 ops: {commit_1k:.0} us at overlay 1k, {commit_32k:.0} us at overlay 32k"
    );
    let ring::ring::BuildTimings {
        order_s,
        wavelet_s,
        boundaries_s,
        threads: build_threads,
    } = phases;
    let host_threads = std::thread::available_parallelism().map_or(1, |n| n.get());

    let json = format!(
        "{{\"quick\":{quick},\"host_threads\":{host_threads},\"triples_requested\":{n_triples},\"triples_parsed\":{parsed_triples},\
\"triples_indexed\":{indexed_triples},\"dump_bytes\":{dump_bytes},\"gen_ms\":{gen_ms:.1},\
\"parse_ms\":{parse_ms:.1},\"parse_mb_per_s\":{parse_mb_per_s:.1},\"read_s\":{read_s:.3},\
\"scan_s\":{scan_s:.3},\"merge_s\":{merge_s:.3},\"sort_s\":{sort_s:.3},\
\"ingest_threads\":{ingest_threads},\"build_ms\":{build_ms:.1},\"construct_ms\":{:.1},\
\"rss_after_build_kb\":{rss_after_build_kb},\"build_s\":{build_s:.3},\
\"graph_decode_s\":{graph_decode_s:.3},\"save_mapped_ms\":{save_mapped_ms:.1},\
\"mapped_bytes\":{mapped_bytes},\"cold_open_heap_us\":{:.1},\
\"cold_open_mmap_us\":{:.1},\"rss_open_heap_kb\":{},\
\"rss_open_mmap_kb\":{},\"open_speedup\":{open_speedup:.1},\"mmap_supported\":{mmap_supported},\
\"cold_open_durable_us\":{:.1},\"hwm_open_durable_kb\":{},\"wal_replay_us\":{wal_replay_us:.1},\"wal_replay_ops\":{wal_replay_ops},\
\"order_s\":{order_s:.3},\"wavelet_s\":{wavelet_s:.3},\
\"boundaries_s\":{boundaries_s:.3},\"build_threads\":{build_threads},\
\"commit_us_overlay_1k\":{commit_1k:.1},\"commit_us_overlay_32k\":{commit_32k:.1},\
\"probe_rows\":{}}}",
        parse_ms + build_ms,
        heap.open_us,
        mmap.open_us,
        heap.rss_kb,
        mmap.rss_kb,
        durable.open_us,
        durable.hwm_kb,
        heap.probe_rows,
    );
    let out = std::env::var("RPQ_BENCH_OUT").unwrap_or_else(|_| "BENCH_ingest.json".to_string());
    std::fs::write(&out, json.clone() + "\n").expect("writing the bench artifact");
    eprintln!("ingest bench -> {out}");
    println!("{json}");
    std::fs::remove_dir_all(&dir).ok();

    // The zero-copy gate (opt-in, like the parallel speedup gate): the
    // mmap cold open must beat the checksummed heap read by this factor.
    if let Ok(min) = std::env::var("RPQ_BENCH_MIN_OPEN_SPEEDUP") {
        let min: f64 = min
            .parse()
            .expect("RPQ_BENCH_MIN_OPEN_SPEEDUP parses as f64");
        if mmap_supported && open_speedup < min {
            eprintln!("PERF GATE FAILED: cold-open speedup {open_speedup:.1} < {min}");
            std::process::exit(1);
        }
        eprintln!("ingest bench: cold-open gate ok ({open_speedup:.1}x >= {min})");
    }

    if let Some(path) = check_baseline {
        let baseline = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
        let mut failed = false;
        for (key, value) in [
            ("parse_ms", parse_ms),
            ("build_ms", build_ms),
            ("cold_open_heap_us", heap.open_us),
            ("cold_open_mmap_us", mmap.open_us),
            ("cold_open_durable_us", durable.open_us),
            ("wal_replay_us", wal_replay_us),
        ] {
            match json_number(&baseline, key) {
                Some(base) if value > base * CHECK_FACTOR => {
                    eprintln!(
                        "PERF REGRESSION: {key} = {value:.1} vs baseline {base:.1} (>{CHECK_FACTOR}x)"
                    );
                    failed = true;
                }
                Some(_) => {}
                None => eprintln!("note: baseline has no entry for {key}, skipping"),
            }
        }
        if failed {
            eprintln!("ingest bench: perf smoke FAILED against {path}");
            std::process::exit(1);
        }
        eprintln!("ingest bench: perf smoke ok against {path}");
    }
}
