//! Crash-consistency battery: every save path is killed at every
//! injection point (`ring::durable::IoPolicy`), and reopening the
//! on-disk artifact must yield *exactly* the pre-save or post-save
//! state — never garbage, never a panic, never a silent wrong answer.
//!
//! Each sweep arms a fault at injection index N, attempts the
//! operation, and checks `disarm()`: once it reports the fault never
//! fired, the sweep has walked past the operation's last IO call and
//! terminates. The fault layer's crash model makes every IO call after
//! the first failure fail too, so a fired fault behaves like the
//! process dying at that point.
//!
//! Fault state is process-global, so all tests serialize on one mutex.
//! CI runs individual categories by test-name filter
//! (`cargo test --test crash_consistency mapped_write`, …).

use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};

use ring::durable::{arm, disarm, is_injected, IoPolicy};
use ring::mapped::{open_index, write_index, OpenMode};
use ring::ring::RingOptions;
use ring::wal::{Wal, WalBatch, WalOp, WalState};
use ring::{Dict, Graph, Ring, Triple};

static FAULTS: Mutex<()> = Mutex::new(());

fn lock_faults() -> MutexGuard<'static, ()> {
    FAULTS.lock().unwrap_or_else(|p| p.into_inner())
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rpq_crash_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The four kill-style fault categories (bit flips are a read-side
/// corruption model, exercised by the fuzz suites instead).
const CATEGORIES: [&str; 4] = ["write", "short", "fsync", "rename"];

fn policy(category: &str, n: u64) -> IoPolicy {
    match category {
        "write" => IoPolicy {
            fail_write: Some(n),
            ..IoPolicy::default()
        },
        "short" => IoPolicy {
            short_write: Some(n),
            ..IoPolicy::default()
        },
        "fsync" => IoPolicy {
            fail_fsync: Some(n),
            ..IoPolicy::default()
        },
        "rename" => IoPolicy {
            fail_rename: Some(n),
            ..IoPolicy::default()
        },
        other => panic!("unknown fault category {other}"),
    }
}

/// Hard cap on sweep length; every save path here has far fewer IO
/// calls, so hitting this means the sweep is not terminating.
const SWEEP_LIMIT: u64 = 10_000;

fn triples(ring: &Ring) -> Vec<Triple> {
    let mut v: Vec<Triple> = ring.iter_triples().collect();
    v.sort();
    v
}

/// Sweep one fault category over a closure that rewrites `path` from
/// the old artifact to the new one. `reset` restores the old artifact
/// (runs unarmed before each attempt); `attempt` performs the faulted
/// save; `observe` reopens the artifact and classifies it.
fn sweep<R: PartialEq + std::fmt::Debug>(
    category: &str,
    old_state: &R,
    new_state: &R,
    mut reset: impl FnMut(),
    mut attempt: impl FnMut() -> std::io::Result<()>,
    mut observe: impl FnMut() -> R,
) {
    let mut n = 0u64;
    loop {
        reset();
        arm(policy(category, n));
        let res = attempt();
        let fired = disarm();
        if !fired {
            res.unwrap_or_else(|e| panic!("[{category}:{n}] save failed with no fault armed: {e}"));
            let got = observe();
            assert_eq!(
                &got, new_state,
                "[{category}:{n}] clean save did not produce the new state"
            );
            return;
        }
        if let Err(e) = &res {
            assert!(
                is_injected(e),
                "[{category}:{n}] error is not the injected fault: {e}"
            );
        }
        let got = observe();
        assert!(
            &got == old_state || &got == new_state,
            "[{category}:{n}] reopened state is neither old nor new: {got:?}"
        );
        n += 1;
        assert!(
            n < SWEEP_LIMIT,
            "[{category}] fault sweep did not terminate"
        );
    }
}

fn sample_index(which: &str) -> (Ring, Dict, Dict) {
    let text = match which {
        "old" => {
            "<http://x/a> <http://x/p> <http://x/b>\n\
             <http://x/b> <http://x/p> <http://x/c>\n\
             <http://x/c> <http://x/q> <http://x/a>\n"
        }
        _ => {
            "<http://x/a> <http://x/p> <http://x/c>\n\
             <http://x/b> <http://x/q> <http://x/d>\n\
             <http://x/c> <http://x/p> <http://x/d>\n\
             <http://x/d> <http://x/q> <http://x/a>\n\
             <http://x/d> <http://x/p> <http://x/b>\n"
        }
    };
    let (g, nodes, preds) = Graph::parse_text(text).unwrap();
    (Ring::build(&g, RingOptions::default()), nodes, preds)
}

/// Killing `mapped::write_index` (`RRPQM01`, per-section CRCs) at any
/// point leaves the previous index intact and checksum-verifiable; only
/// a fully clean save publishes the new one.
#[test]
fn mapped_write_is_old_or_new_under_every_fault() {
    let _guard = lock_faults();
    let dir = tmpdir("mapped");
    let path = dir.join("index.rpqm");
    let (old_ring, old_nodes, old_preds) = sample_index("old");
    let (new_ring, new_nodes, new_preds) = sample_index("new");
    let (old_t, new_t) = (triples(&old_ring), triples(&new_ring));

    for category in CATEGORIES {
        sweep(
            category,
            &old_t,
            &new_t,
            || {
                write_index(&path, &old_ring, &old_nodes, &old_preds).unwrap();
            },
            || write_index(&path, &new_ring, &new_nodes, &new_preds).map(|_| ()),
            || {
                // Heap mode re-verifies every section CRC on open, so a
                // surviving file is also proven uncorrupted.
                let idx = open_index(&path, OpenMode::Heap).unwrap_or_else(|e| {
                    panic!("[{category}] interrupted write left {path:?} unreadable: {e}")
                });
                triples(&idx.ring)
            },
        );
    }
}

fn wal_ops(tag: &str) -> Vec<WalOp> {
    vec![
        WalOp::Insert {
            s: format!("s-{tag}"),
            p: "p".into(),
            o: format!("o-{tag}"),
        },
        WalOp::Delete {
            s: format!("s-{tag}"),
            p: "q".into(),
            o: "gone".into(),
        },
    ]
}

fn batch_key(batches: &[WalBatch]) -> Vec<(u64, usize)> {
    batches.iter().map(|b| (b.epoch, b.ops.len())).collect()
}

/// Killing `Wal::append_batch` at any point means recovery sees either
/// every batch up to the previous append, or the new batch as well —
/// torn frames and unacknowledged tails are truncated, never surfaced.
#[test]
fn wal_append_is_old_or_new_under_every_fault() {
    let _guard = lock_faults();
    let dir = tmpdir("wal_append");
    let path = dir.join("db.wal");
    let first = wal_ops("first");
    let second = wal_ops("second");
    let old_key = vec![(2u64, first.len())];
    let new_key = vec![(2u64, first.len()), (3u64, second.len())];

    // Rename never happens on the append path, so write/short/fsync
    // are the categories with injection points to sweep.
    for category in ["write", "short", "fsync"] {
        let mut n = 0u64;
        loop {
            let mut wal = Wal::create(&path, 1).unwrap();
            wal.append_batch(&first, 2).unwrap();
            arm(policy(category, n));
            let res = wal.append_batch(&second, 3);
            let fired = disarm();
            drop(wal); // crash model: the handle dies with the process
            let recovery = match Wal::open(&path, 1) {
                Ok((_, WalState::Log(recovery))) => recovery,
                Ok((_, state)) => panic!("[{category}:{n}] torn append left {state:?}"),
                Err(e) => panic!("[{category}:{n}] torn append left {path:?} unrecoverable: {e}"),
            };
            assert_eq!(recovery.base_epoch, 1, "[{category}:{n}]");
            let key = batch_key(&recovery.batches);
            if !fired {
                res.unwrap_or_else(|e| panic!("[{category}:{n}] clean append failed: {e}"));
                assert_eq!(key, new_key, "[{category}:{n}]");
                break;
            }
            if let Err(e) = &res {
                assert!(
                    is_injected(e),
                    "[{category}:{n}] not the injected fault: {e}"
                );
            }
            assert!(
                key == old_key || key == new_key,
                "[{category}:{n}] recovered batches are neither old nor new: {key:?}"
            );
            n += 1;
            assert!(
                n < SWEEP_LIMIT,
                "[{category}] append sweep did not terminate"
            );
        }
    }
}

/// Killing `Wal::rotate` leaves either the pre-rotation log (all
/// batches intact) or the fresh empty log. A header torn mid-write is
/// recognizable (file shorter than the fsynced header) and treated as
/// the old state being superseded — the snapshot that triggered the
/// rotation already holds the data.
#[test]
fn wal_rotate_is_old_or_new_under_every_fault() {
    let _guard = lock_faults();
    let dir = tmpdir("wal_rotate");
    let path = dir.join("db.wal");
    let ops = wal_ops("pre");

    for category in ["write", "short", "fsync"] {
        let mut n = 0u64;
        loop {
            let mut w = Wal::create(&path, 1).unwrap();
            w.append_batch(&ops, 2).unwrap();
            arm(policy(category, n));
            let res = w.rotate(9);
            let fired = disarm();
            drop(w); // crash model: the handle dies with the process

            if !fired {
                res.unwrap_or_else(|e| panic!("[{category}:{n}] clean rotate failed: {e}"));
                let recovery = ring::wal::inspect(&path).unwrap();
                assert_eq!(recovery.base_epoch, 9, "[{category}:{n}]");
                assert!(recovery.batches.is_empty(), "[{category}:{n}]");
                break;
            }
            assert!(res.is_err(), "[{category}:{n}] fired fault but rotate Ok");
            match WalState::judge(&path, 9).unwrap() {
                // Old log intact, or new header already durable.
                WalState::Log(recovery) if recovery.base_epoch == 1 => {
                    assert_eq!(batch_key(&recovery.batches), vec![(2, ops.len())]);
                }
                WalState::Log(recovery) => {
                    assert_eq!(recovery.base_epoch, 9, "[{category}:{n}]");
                    assert!(recovery.batches.is_empty(), "[{category}:{n}]");
                }
                // A header torn mid-write: what a durable open recreates.
                WalState::TornRotation { .. } => {}
                state => panic!("[{category}:{n}] rotate left {state:?}"),
            }
            n += 1;
            assert!(
                n < SWEEP_LIMIT,
                "[{category}] rotate sweep did not terminate"
            );
        }
    }
}

/// `atomic_write` removes its temp file on every failure path it can
/// reach, and `cleanup_orphans` sweeps the ones a crash strands.
#[test]
fn interrupted_saves_never_accumulate_temp_files() {
    let _guard = lock_faults();
    let dir = tmpdir("orphans");
    let path = dir.join("index.rpqm");
    let (old_ring, old_nodes, old_preds) = sample_index("old");
    let (new_ring, new_nodes, new_preds) = sample_index("new");
    write_index(&path, &old_ring, &old_nodes, &old_preds).unwrap();

    for category in CATEGORIES {
        let mut n = 0u64;
        loop {
            arm(policy(category, n));
            let res = write_index(&path, &new_ring, &new_nodes, &new_preds);
            let fired = disarm();
            if !fired {
                res.unwrap();
                break;
            }
            n += 1;
            assert!(n < SWEEP_LIMIT);
        }
    }
    // Whatever the interrupted attempts left behind, one recovery
    // sweep returns the directory to exactly the published artifact.
    ring::durable::cleanup_orphans(&path);
    let leftovers: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .filter(|name| name != "index.rpqm")
        .collect();
    assert!(leftovers.is_empty(), "stranded files: {leftovers:?}");
}

/// `RPQ_IO_FAULTS` must parse every spec the CI matrix uses, and must
/// fail loudly on typos instead of silently disabling the sweep.
#[test]
fn io_policy_env_specs_parse() {
    let cases = [
        ("write:0", policy("write", 0)),
        ("short:3", policy("short", 3)),
        ("fsync:1", policy("fsync", 1)),
        ("rename:0", policy("rename", 0)),
    ];
    for (spec, want) in cases {
        let got = parse_spec(spec).unwrap_or_else(|e| panic!("{spec} failed to parse: {e}"));
        assert_eq!(got, want, "{spec}");
    }
    let flip = parse_spec("flip:128.3").unwrap();
    assert_eq!(flip.flip_read, Some((128, 3)));
    let combo = parse_spec("write:2,fsync:0").unwrap();
    assert_eq!(combo.fail_write, Some(2));
    assert_eq!(combo.fail_fsync, Some(0));
    assert!(parse_spec("wite:2").is_err(), "typo must be rejected");
    assert!(parse_spec("flip:abc").is_err());
}

/// Round-trips a spec through the `RPQ_IO_FAULTS` parser. Env mutation
/// is process-global, so serialize on the fault lock.
fn parse_spec(spec: &str) -> std::io::Result<IoPolicy> {
    let _guard = lock_faults();
    std::env::set_var("RPQ_IO_FAULTS", spec);
    let parsed = IoPolicy::from_env();
    std::env::remove_var("RPQ_IO_FAULTS");
    parsed.map(|opt| opt.expect("spec set but parsed as None"))
}
