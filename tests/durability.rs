//! Durability suite over the name-level façade: WAL'd commits survive
//! a crash (reopen replays them), interrupted saves leave the previous
//! snapshot bytes untouched, the snapshot's epoch survives a checkpoint,
//! a checkpoint leaves a mapped reader its file, the formats earlier
//! builds wrote are refused, bit-flipped snapshots are detected, random
//! update/save/reopen sequences come back as their model, and a drain on
//! a durable server checkpoints the source.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

use proptest::prelude::*;
use ring::durable::{arm, disarm, IoPolicy};
use ring_rpq::{RpqDatabase, UpdatableDatabase};

/// Fault-injection state is process-global: serialize every test that
/// arms a policy (and any test an armed policy could bleed into).
static FAULTS: Mutex<()> = Mutex::new(());

fn lock_faults() -> MutexGuard<'static, ()> {
    FAULTS.lock().unwrap_or_else(|p| p.into_inner())
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rpq_durab_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

const BASE: &str = "a p b\nb p c\nc q a\n";

/// Name-level oracle: every (subject, object) edge per predicate,
/// stable across reopen even though internal ids may be re-interned.
fn edges(db: &UpdatableDatabase) -> Vec<(String, String, String)> {
    let mut out = Vec::new();
    for pred in ["p", "q"] {
        for (s, o) in db.query("?x", pred, "?y").unwrap() {
            out.push((s, pred.to_string(), o));
        }
    }
    out.sort();
    out
}

fn fresh_saved(dir: &Path, name: &str) -> PathBuf {
    let path = dir.join(name);
    let db = UpdatableDatabase::from_text(BASE).unwrap();
    db.save(&path).unwrap();
    path
}

/// Committed-but-never-saved updates come back on reopen: the WAL is
/// the only place they exist, and replay restores them.
#[test]
fn walled_commits_survive_a_crash() {
    let _guard = lock_faults();
    let dir = tmpdir("replay");
    let path = fresh_saved(&dir, "db.rpq");

    let db = UpdatableDatabase::open_durable(&path).unwrap();
    assert!(db.is_durable());
    db.insert("d", "p", "a");
    db.delete("c", "q", "a");
    let epoch = db.commit();
    db.insert("e", "q", "b");
    db.commit();
    let want = edges(&db);
    db.insert("f", "p", "f"); // pending, never committed: must NOT survive
    drop(db); // crash: no save, no checkpoint

    let revived = UpdatableDatabase::open_durable(&path).unwrap();
    assert_eq!(edges(&revived), want);
    assert!(revived.epoch() >= epoch);
    // The replayed log keeps protecting new commits.
    revived.insert("g", "p", "a");
    revived.commit();
    let want2 = edges(&revived);
    drop(revived);
    let again = UpdatableDatabase::open_durable(&path).unwrap();
    assert_eq!(edges(&again), want2);
}

/// A checkpoint after compaction: the file holds the epoch it was taken
/// at and the rotated WAL is based on it, so the next open accepts the
/// log as this index's.
#[test]
fn checkpoint_after_compaction_stays_openable() {
    let _guard = lock_faults();
    let dir = tmpdir("ckpt_compact");
    let path = fresh_saved(&dir, "db.rpq");

    let db = UpdatableDatabase::open_durable(&path).unwrap();
    db.insert("d", "p", "e");
    db.commit();
    db.compact();
    let epoch = db.checkpoint().unwrap();
    assert_eq!(epoch, 2);
    let want = edges(&db);
    drop(db);

    let wal = ring::wal::Wal::inspect(&UpdatableDatabase::wal_path(&path)).unwrap();
    assert_eq!(wal.base_epoch, epoch, "the WAL is based on the snapshot");
    let back = UpdatableDatabase::open_durable(&path)
        .expect("snapshot + rotated WAL must agree on the base epoch");
    assert_eq!(back.epoch(), epoch);
    assert_eq!(edges(&back), want);
}

/// Save at epoch *k* → reopen reports *k*, overlay folded or not; a log
/// based ahead of the file belongs to a snapshot that was lost.
#[test]
fn the_epoch_survives_a_checkpoint() {
    let _guard = lock_faults();
    let dir = tmpdir("epoch");
    let path = fresh_saved(&dir, "db.rpq");
    assert_eq!(UpdatableDatabase::load(&path).unwrap().epoch(), 0);

    let db = UpdatableDatabase::open_durable(&path)
        .unwrap()
        .with_auto_compact_ratio(None);
    for k in 1..=3u64 {
        db.insert(&format!("n{k}"), "p", "a");
        assert_eq!(db.commit(), k);
        assert_eq!(db.checkpoint().unwrap(), k);
        assert_eq!(db.epoch(), k, "a checkpoint publishes nothing");
        assert_eq!(UpdatableDatabase::load(&path).unwrap().epoch(), k);
    }
    let want = edges(&db);
    drop(db);
    let back = UpdatableDatabase::open_durable(&path).unwrap();
    assert_eq!(back.epoch(), 3);
    assert_eq!(edges(&back), want);
    drop(back);

    // The file rolled back to an older snapshot under a newer log.
    let older = fresh_saved(&dir, "older.rpq");
    std::fs::copy(&older, &path).unwrap();
    let err = UpdatableDatabase::open_durable(&path)
        .err()
        .expect("a log ahead of its snapshot");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    let msg = err.to_string();
    assert!(
        msg.contains("is based on epoch 3 but the snapshot is at epoch 0"),
        "{msg}"
    );
}

/// A checkpoint replaces the file by rename, never in place: a query
/// that captured its snapshot before — its ring mapped from the file the
/// checkpoint supersedes — keeps its answer through two of them.
#[test]
fn a_checkpoint_leaves_a_mapped_reader_its_file() {
    let _guard = lock_faults();
    let dir = tmpdir("mapped_reader");
    let path = fresh_saved(&dir, "db.rpq");
    let db = UpdatableDatabase::open_durable(&path).unwrap();
    if cfg!(all(unix, target_pointer_width = "64")) {
        let open = RpqDatabase::open(&path).unwrap();
        assert_eq!(open.open_info().resident.as_str(), "mmap");
    }
    let held = db.store().snapshot();
    let query = db.parse_query("?x", "p+|q", "?y").unwrap();
    let answer = |snap: &ring::StoreSnapshot| {
        rpq_core::RpqEngine::over(snap)
            .evaluate(&query, &rpq_core::EngineOptions::default())
            .unwrap()
            .sorted_pairs()
    };
    let before = answer(&held);
    assert_eq!(before.len(), 4);
    for round in 0..2 {
        for i in 0..40 {
            db.insert(&format!("r{round}n{i}"), "p", "a");
            db.delete("c", "q", "a");
        }
        db.commit();
        db.checkpoint().unwrap();
        assert_eq!(answer(&held), before, "after checkpoint {round}");
        assert_eq!(held.ring.decode_triples(true).unwrap().len(), 3);
    }
    assert_ne!(answer(&db.store().snapshot()), before);
}

/// A checkpoint rotates the WAL: reopen after it replays nothing and
/// still sees every update (now in the snapshot).
#[test]
fn checkpoint_rotates_the_wal() {
    let _guard = lock_faults();
    let dir = tmpdir("checkpoint");
    let path = fresh_saved(&dir, "db.rpq");

    let db = UpdatableDatabase::open_durable(&path).unwrap();
    db.insert("d", "p", "e");
    db.commit();
    let epoch = db.checkpoint().unwrap();
    assert_eq!(epoch, db.epoch());
    let want = edges(&db);
    drop(db);

    let wal = ring::wal::Wal::inspect(&UpdatableDatabase::wal_path(&path)).unwrap();
    assert_eq!(wal.base_epoch, epoch, "WAL must be rebased on the snapshot");
    assert_eq!(wal.op_count(), 0, "checkpointed ops must leave the WAL");
    assert_eq!(
        edges(&UpdatableDatabase::open_durable(&path).unwrap()),
        want
    );
}

/// Regression for the pre-atomic-save bug: an IO error mid-save must
/// leave the previous snapshot bytes byte-for-byte intact.
#[test]
fn failed_save_preserves_old_bytes() {
    let _guard = lock_faults();
    let dir = tmpdir("oldbytes");
    let path = fresh_saved(&dir, "db.rpq");
    let before = std::fs::read(&path).unwrap();

    let db = UpdatableDatabase::load(&path).unwrap();
    db.insert("zz", "p", "zz");
    db.commit();
    // Sweep every write-fault index the save actually reaches (writes
    // abort before the rename, so the published file must not move).
    let mut n = 0u64;
    let mut fired_any = false;
    loop {
        arm(IoPolicy {
            fail_write: Some(n),
            ..IoPolicy::default()
        });
        let res = db.save(&path);
        let fired = disarm();
        if !fired {
            res.unwrap();
            break;
        }
        fired_any = true;
        assert!(res.is_err(), "save succeeded despite injected write fault");
        assert_eq!(
            std::fs::read(&path).unwrap(),
            before,
            "interrupted save (write fault {n}) mutated the published file"
        );
        n += 1;
        assert!(n < 1000, "write-fault sweep did not terminate");
    }
    assert!(fired_any, "no write fault ever fired: injection is dead");
    // And the published file still loads.
    UpdatableDatabase::load(&path).unwrap();
}

/// Orphaned temp files from a crashed save are swept on durable open.
#[test]
fn open_durable_cleans_orphaned_temp_files() {
    let _guard = lock_faults();
    let dir = tmpdir("orphan");
    let path = fresh_saved(&dir, "db.rpq");
    let orphan = dir.join("db.rpq.12345.7.tmp");
    std::fs::write(&orphan, b"half a snapshot").unwrap();

    let db = UpdatableDatabase::open_durable(&path).unwrap();
    assert!(!orphan.exists(), "orphaned temp file survived open_durable");
    drop(db);
}

/// The formats earlier builds wrote are refused, not misread: every way
/// in names the format and the command that rebuilds the index, and
/// touches nothing beside the file.
#[test]
fn old_formats_are_refused_not_misread() {
    let _guard = lock_faults();
    let dir = tmpdir("refused");
    for (file, format) in [
        ("metro_with_l_o.db", "RRPQDB02"),
        ("metro_with_l_o.rpqm", "RRPQM01 version 2"),
    ] {
        let fixture = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("tests/fixtures")
            .join(file);
        let old = dir.join(file);
        std::fs::copy(&fixture, &old).unwrap();
        let check = |err: std::io::Error| {
            assert_eq!(err.kind(), std::io::ErrorKind::Unsupported, "{err}");
            let msg = err.to_string();
            assert!(msg.contains(format), "{msg}");
            assert!(msg.contains("rpq-cli build <graph> <index>"), "{msg}");
        };
        check(RpqDatabase::open(&old).err().expect("open"));
        check(UpdatableDatabase::load(&old).err().expect("load"));
        check(
            UpdatableDatabase::open_durable(&old)
                .err()
                .expect("durable"),
        );
        assert!(!UpdatableDatabase::wal_path(&old).exists());
        assert_eq!(
            std::fs::read(&old).unwrap(),
            std::fs::read(&fixture).unwrap()
        );
    }
}

/// Killing the WAL append under `commit` must not lose acknowledged
/// state: the commit reports failure (epoch unchanged) and the ops stay
/// pending, so a later commit retries them; reopen sees old or new.
#[test]
fn faulted_commit_is_old_or_new() {
    let _guard = lock_faults();
    let dir = tmpdir("commitfault");
    let path = fresh_saved(&dir, "db.rpq");

    for category in ["write", "short", "fsync"] {
        let sub = dir.join(category);
        std::fs::create_dir_all(&sub).unwrap();
        let db_path = sub.join("db.rpq");
        std::fs::copy(&path, &db_path).unwrap();
        let mut n = 0u64;
        loop {
            let db = UpdatableDatabase::open_durable(&db_path).unwrap();
            let before = edges(&db);
            let epoch_before = db.epoch();
            // The post-state if the commit (fully or partially) lands:
            // e.g. the WAL frame can hit the disk even when its fsync
            // reports failure, and replay then legitimately applies it.
            let after = {
                let mut v = before.clone();
                v.push(("new".into(), "p".into(), "node".into()));
                v.sort();
                v
            };
            db.insert("new", "p", "node");
            arm(match category {
                "write" => IoPolicy {
                    fail_write: Some(n),
                    ..IoPolicy::default()
                },
                "short" => IoPolicy {
                    short_write: Some(n),
                    ..IoPolicy::default()
                },
                _ => IoPolicy {
                    fail_fsync: Some(n),
                    ..IoPolicy::default()
                },
            });
            let res = db.commit_durable();
            let fired = disarm();
            drop(db); // crash
            let revived = UpdatableDatabase::open_durable(&db_path).unwrap();
            let revived_edges = edges(&revived);
            drop(revived);
            std::fs::remove_file(UpdatableDatabase::wal_path(&db_path)).ok();
            std::fs::copy(&path, &db_path).unwrap();
            if !fired {
                let epoch = res.unwrap_or_else(|e| panic!("[{category}:{n}] clean commit: {e}"));
                assert_eq!(epoch, epoch_before + 1, "[{category}:{n}]");
                assert_eq!(revived_edges, after, "[{category}:{n}] commit lost");
                break;
            }
            assert!(res.is_err(), "[{category}:{n}] fired fault but commit Ok");
            assert!(
                revived_edges == before || revived_edges == after,
                "[{category}:{n}] reopened state is neither old nor new"
            );
            n += 1;
            assert!(n < 1000, "[{category}] commit sweep did not terminate");
        }
    }
}

/// Deterministic xorshift64* — reproducible flips, no RNG dependency.
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

/// Seeded single-bit flips over a full snapshot image: every flip is
/// either detected (typed load error) or harmless (loads with identical
/// answers). Never a panic, never silently wrong data.
#[test]
fn snapshot_bit_flip_fuzz_never_yields_wrong_answers() {
    let _guard = lock_faults();
    let dir = tmpdir("snapflip");
    let path = fresh_saved(&dir, "db.rpq");
    let bytes = std::fs::read(&path).unwrap();
    let expect = edges(&UpdatableDatabase::load(&path).unwrap());

    let mut flips: Vec<(usize, u8)> = Vec::new();
    for off in 0..64.min(bytes.len()) {
        for bit in 0..8u8 {
            flips.push((off, bit)); // magic, version and first TOC entry: exhaustive
        }
    }
    let mut rng = XorShift(0xD00D_F00D_1CDE_2022);
    for _ in 0..600 {
        flips.push(((rng.next() as usize) % bytes.len(), (rng.next() & 7) as u8));
    }

    let flip_path = dir.join("flipped.rpq");
    let mut detected = 0usize;
    for (off, bit) in flips {
        let mut mutated = bytes.clone();
        mutated[off] ^= 1 << bit;
        std::fs::write(&flip_path, &mutated).unwrap();
        match UpdatableDatabase::load(&flip_path) {
            Err(_) => detected += 1, // typed io::Error, no panic
            Ok(db) => assert_eq!(
                edges(&db),
                expect,
                "flip at byte {off} bit {bit} loaded with WRONG answers"
            ),
        }
    }
    assert!(detected > 0, "no flip detected: verification is dead code");
}

/// Draining a server over a durable source checkpoints it: the report
/// carries the epoch and the WAL is rotated.
#[test]
fn drain_checkpoints_a_durable_source() {
    let _guard = lock_faults();
    let dir = tmpdir("drain");
    let path = fresh_saved(&dir, "db.rpq");

    let db = UpdatableDatabase::open_durable(&path).unwrap();
    db.insert("d", "p", "e");
    db.commit();
    let want_epoch = db.epoch();
    let server = db
        .into_server(rpq_server::ServerConfig {
            workers: 1,
            ..rpq_server::ServerConfig::default()
        })
        .unwrap();
    let answer = server.query_blocking("?x", "p", "?y").unwrap();
    assert!(!answer.pairs.is_empty());

    let report = server.drain(Duration::from_secs(30));
    assert_eq!(report.aborted, 0);
    assert_eq!(report.checkpoint_error, None);
    assert_eq!(report.checkpoint_epoch, Some(want_epoch));
    drop(server);

    let wal = ring::wal::Wal::inspect(&UpdatableDatabase::wal_path(&path)).unwrap();
    assert_eq!(wal.base_epoch, want_epoch);
    assert_eq!(wal.op_count(), 0);
    // The checkpointed snapshot holds the committed edge.
    let revived = UpdatableDatabase::open_durable(&path).unwrap();
    assert!(edges(&revived).contains(&("d".into(), "p".into(), "e".into())));
}

const NODES: [&str; 6] = ["a", "b", "c", "n3", "n4", "n5"];
const PREDS: [&str; 3] = ["p", "q", "r"];

#[derive(Clone, Debug)]
enum Step {
    Insert(usize, usize, usize),
    Delete(usize, usize, usize),
    Commit,
    Compact,
    Save,
    Reopen,
}

fn arb_step() -> impl Strategy<Value = Step> {
    let triple = (0..NODES.len(), 0..PREDS.len(), 0..NODES.len());
    prop_oneof![
        4 => triple.clone().prop_map(|(s, p, o)| Step::Insert(s, p, o)),
        3 => triple.prop_map(|(s, p, o)| Step::Delete(s, p, o)),
        2 => Just(Step::Commit),
        1 => Just(Step::Compact),
        2 => Just(Step::Save),
        1 => Just(Step::Reopen),
    ]
}

/// Every edge of `db` over the step alphabet (a label no triple ever
/// used is unknown to the parser: no edges).
fn all_edges(query: impl Fn(&str) -> Option<Vec<(String, String)>>) -> BTreeSet<[String; 3]> {
    PREDS
        .iter()
        .flat_map(|p| {
            let pairs = query(p).unwrap_or_default();
            pairs.into_iter().map(|(s, o)| [s, p.to_string(), o])
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random insert/delete/commit/compact/save/reopen sequences against
    /// a set of name triples: what a reopen finds is what was committed
    /// (durably) or saved (otherwise), every save is a file the immutable
    /// API opens to the same edges at the same epoch, and names that
    /// only uncommitted or deleted triples used never make a file its
    /// readers refuse.
    #[test]
    fn random_update_save_reopen_sequences_match_the_model(
        steps in prop::collection::vec(arb_step(), 1..40),
        durable in any::<bool>(),
    ) {
        let _guard = lock_faults();
        let dir = tmpdir("sequences");
        let path = fresh_saved(&dir, "db.rpq");
        let open = |path: &Path| {
            if durable {
                UpdatableDatabase::open_durable(path)
            } else {
                UpdatableDatabase::load(path)
            }
            .map(|db| db.with_auto_compact_ratio(Some(0.75)))
        };
        let name = |(s, p, o): (usize, usize, usize)| {
            [NODES[s].to_string(), PREDS[p].to_string(), NODES[o].to_string()]
        };
        let mut db = open(&path).unwrap();
        let mut committed: BTreeSet<[String; 3]> =
            all_edges(|p| db.query("?x", p, "?y").ok());
        prop_assert_eq!(committed.len(), 3);
        let mut saved = committed.clone();
        let mut pending: Vec<(bool, [String; 3])> = Vec::new();
        for step in steps {
            match step {
                Step::Insert(s, p, o) => {
                    let t = name((s, p, o));
                    db.insert(&t[0], &t[1], &t[2]);
                    pending.push((true, t));
                }
                Step::Delete(s, p, o) => {
                    let t = name((s, p, o));
                    db.delete(&t[0], &t[1], &t[2]);
                    pending.push((false, t));
                }
                Step::Commit => {
                    db.commit();
                    for (insert, t) in pending.drain(..) {
                        if insert {
                            committed.insert(t);
                        } else {
                            committed.remove(&t);
                        }
                    }
                }
                Step::Compact => {
                    db.compact();
                }
                Step::Save => {
                    db.save(&path).unwrap();
                    saved = committed.clone();
                    let plain = RpqDatabase::open(&path).unwrap();
                    prop_assert_eq!(&all_edges(|p| plain.query("?x", p, "?y").ok()), &saved);
                    prop_assert_eq!(UpdatableDatabase::load(&path).unwrap().epoch(), db.epoch());
                }
                Step::Reopen => {
                    drop(db);
                    db = open(&path).unwrap();
                    pending.clear();
                    if !durable {
                        committed = saved.clone();
                    }
                }
            }
            prop_assert_eq!(&all_edges(|p| db.query("?x", p, "?y").ok()), &committed);
        }
    }
}
