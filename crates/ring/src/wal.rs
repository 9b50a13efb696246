//! Write-ahead log for the updatable store.
//!
//! The LSM-style overlay (PR 5) made commits cheap and in-memory — and
//! therefore volatile: a crash between `commit()` and the next `save()`
//! silently dropped acknowledged updates. The WAL closes that window with
//! the classic log-structured discipline: every commit appends its ops
//! plus a commit marker to an append-only log and fsyncs *before* the
//! in-memory epoch is published, so an acknowledged commit is always
//! reconstructible.
//!
//! ## Format
//!
//! A 16-byte header (`b"RRPQWAL1"` + `base_epoch: u64` LE — the epoch of
//! the snapshot this log is relative to) followed by framed records:
//!
//! ```text
//! [len: u32 LE][crc32c(payload): u32 LE][payload: len bytes]
//! ```
//!
//! Payloads: tag byte `1` (insert) / `2` (delete) followed by three
//! `u32`-length-prefixed UTF-8 strings (subject, predicate, object), or
//! tag `3` (commit) followed by the published epoch as `u64` LE. Records
//! are *name-level*, not id-level: replay re-interns names through the
//! normal insert path, which reproduces dictionary assignment
//! deterministically — an id-level log would dangle for names interned
//! after the last snapshot.
//!
//! ## Recovery
//!
//! [`WalState::judge`] sorts what sits beside a snapshot as its log into
//! four cases; [`Wal::open`] repairs by that verdict and `rpq-cli verify`
//! reports it. Parsing scans forward, keeping only batches closed by a
//! commit record. An incomplete or checksum-broken *final* frame is a
//! torn tail from a crashed append — it is physically truncated and
//! recovery proceeds. A broken frame with more data *behind* it is
//! mid-file corruption of acknowledged data and surfaces as a typed
//! [`DurabilityError`](crate::durable::DurabilityError) instead of being
//! silently dropped. Replay applies the committed batches that published
//! an epoch past the snapshot's ([`WalRecovery::batches_past`]): a
//! snapshot at epoch `e` holds every batch up to `e`, so a log a crash
//! left behind a newer snapshot replays nothing the snapshot has, and a
//! save that starts a history of its own
//! ([`write_fresh_index`](crate::mapped::write_fresh_index)) stamps its
//! file past the log it supersedes.
//!
//! `save()`/`compact()` checkpoints [`rotate`](Wal::rotate) the log back
//! to an empty header once the snapshot on disk covers everything.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

use succinct::checksum::crc32c;

use crate::durable::{self, FaultWriter};

/// Magic opening every WAL file.
pub const WAL_MAGIC: [u8; 8] = *b"RRPQWAL1";
/// Header size: magic + base epoch.
pub const WAL_HEADER_LEN: u64 = 16;

const TAG_INSERT: u8 = 1;
const TAG_DELETE: u8 = 2;
const TAG_COMMIT: u8 = 3;

/// One logged update, at the name level.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalOp {
    /// Insert the triple `(subject, predicate, object)`.
    Insert {
        /// Subject name.
        s: String,
        /// Predicate name.
        p: String,
        /// Object name.
        o: String,
    },
    /// Delete the triple `(subject, predicate, object)`.
    Delete {
        /// Subject name.
        s: String,
        /// Predicate name.
        p: String,
        /// Object name.
        o: String,
    },
}

/// One committed batch recovered from the log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalBatch {
    /// The epoch the commit published: a snapshot at this epoch or a
    /// later one holds the batch, and replay skips it
    /// ([`WalRecovery::batches_past`]).
    pub epoch: u64,
    /// The ops of the batch, in logged order.
    pub ops: Vec<WalOp>,
}

/// What parsing a log found.
#[derive(Debug)]
pub struct WalRecovery {
    /// The snapshot epoch the log says it is relative to.
    pub base_epoch: u64,
    /// All committed batches, in order.
    pub batches: Vec<WalBatch>,
    /// Bytes of torn or uncommitted tail past the last committed batch
    /// (0 on a clean log).
    pub truncated_bytes: u64,
    /// Where the last committed batch ends: the length a repair cuts to.
    committed_end: u64,
}

impl WalRecovery {
    /// Total number of replayable ops across all committed batches.
    pub fn op_count(&self) -> usize {
        self.batches.iter().map(|b| b.ops.len()).sum()
    }

    /// The last epoch the log reached: its last committed batch's, or
    /// its base epoch before any.
    pub fn last_epoch(&self) -> u64 {
        let last = self.batches.last().map_or(0, |b| b.epoch);
        last.max(self.base_epoch)
    }

    /// The committed batches a snapshot at `snapshot_epoch` does not
    /// hold — those that published a later epoch — in order: what a
    /// durable open replays.
    pub fn batches_past(&self, snapshot_epoch: u64) -> impl Iterator<Item = &WalBatch> {
        self.batches
            .iter()
            .filter(move |b| b.epoch > snapshot_epoch)
    }
}

/// The write-ahead log of the index at `index`: `<index>.wal` beside it.
pub fn path_beside(index: &Path) -> PathBuf {
    let mut os = index.as_os_str().to_os_string();
    os.push(".wal");
    PathBuf::from(os)
}

/// What a log beside a snapshot holds, judged against the snapshot's
/// epoch: the one copy of the rules a durable open repairs by and
/// `verify` reports by.
#[derive(Debug)]
pub enum WalState {
    /// There is no log; a durable open creates one.
    Absent,
    /// The log is shorter than its header: a create or rotate torn
    /// mid-write. The header is fsynced before any append is
    /// acknowledged, so no committed op is in it, and a durable open
    /// recreates it.
    TornRotation {
        /// The log's length.
        bytes: u64,
    },
    /// The log is based on a later epoch than the snapshot's: the
    /// snapshot it belongs to was lost. A durable open refuses it.
    AheadOfSnapshot {
        /// The epoch the log is based on.
        base_epoch: u64,
    },
    /// A log a durable open replays, after cutting off its torn or
    /// uncommitted tail (`truncated_bytes`).
    Log(WalRecovery),
}

impl WalState {
    /// Judges the log at `path` against a snapshot at `snapshot_epoch`,
    /// changing nothing. Errors are a log that cannot be parsed (bad
    /// magic, corruption in front of committed data).
    pub fn judge(path: &Path, snapshot_epoch: u64) -> io::Result<WalState> {
        let Ok(meta) = fs::metadata(path) else {
            return Ok(WalState::Absent);
        };
        if meta.len() < WAL_HEADER_LEN {
            return Ok(WalState::TornRotation { bytes: meta.len() });
        }
        let recovery = inspect(path)?;
        Ok(if recovery.base_epoch > snapshot_epoch {
            WalState::AheadOfSnapshot {
                base_epoch: recovery.base_epoch,
            }
        } else {
            WalState::Log(recovery)
        })
    }
}

/// An open write-ahead log, positioned for appends.
pub struct Wal {
    file: FaultWriter<File>,
    path: PathBuf,
}

fn corrupt(context: String) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        crate::durable::DurabilityError::TruncatedFile { context },
    )
}

/// Appends to `buf` the frame of one update of the triple `(s, p, o)`,
/// an insert or a delete: the bytes [`Wal::append_batch`] writes for the
/// [`WalOp`] of the same update. A writer that encodes each update as it
/// is buffered hands the frames to [`Wal::append_frames`] at its commit.
pub fn encode_update(buf: &mut Vec<u8>, insert: bool, s: &str, p: &str, o: &str) {
    let start = buf.len();
    // The header's place; its length and checksum follow the payload.
    buf.extend_from_slice(&[0; 8]);
    buf.push(if insert { TAG_INSERT } else { TAG_DELETE });
    for name in [s, p, o] {
        buf.extend_from_slice(&(name.len() as u32).to_le_bytes());
        buf.extend_from_slice(name.as_bytes());
    }
    let payload = start + 8;
    let crc = crc32c(&buf[payload..]);
    let len = (buf.len() - payload) as u32;
    buf[start..start + 4].copy_from_slice(&len.to_le_bytes());
    buf[start + 4..payload].copy_from_slice(&crc.to_le_bytes());
}

fn encode_op(buf: &mut Vec<u8>, op: &WalOp) {
    match op {
        WalOp::Insert { s, p, o } => encode_update(buf, true, s, p, o),
        WalOp::Delete { s, p, o } => encode_update(buf, false, s, p, o),
    }
}

fn frame(buf: &mut Vec<u8>, payload: &[u8]) {
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(&crc32c(payload).to_le_bytes());
    buf.extend_from_slice(payload);
}

fn decode_str(payload: &[u8], pos: &mut usize, what: &str) -> io::Result<String> {
    let bytes = payload
        .get(*pos..*pos + 4)
        .ok_or_else(|| corrupt(format!("WAL record: {what} length cut off")))?;
    let len = u32::from_le_bytes(bytes.try_into().unwrap()) as usize;
    *pos += 4;
    let raw = payload
        .get(*pos..*pos + len)
        .ok_or_else(|| corrupt(format!("WAL record: {what} bytes cut off")))?;
    *pos += len;
    String::from_utf8(raw.to_vec()).map_err(|_| corrupt(format!("WAL record: {what} is not UTF-8")))
}

impl Wal {
    /// Creates (or truncates) the log at `path` with a fresh header, and
    /// fsyncs both the file and its directory so the empty log survives a
    /// crash.
    pub fn create(path: &Path, base_epoch: u64) -> io::Result<Wal> {
        let file = File::create(path)?;
        let mut fault = FaultWriter::new(file);
        let mut header = Vec::with_capacity(WAL_HEADER_LEN as usize);
        header.extend_from_slice(&WAL_MAGIC);
        header.extend_from_slice(&base_epoch.to_le_bytes());
        fault.write_all(&header)?;
        fault.sync_all()?;
        durable::fsync_parent_dir(path)?;
        Ok(Wal {
            file: fault,
            path: path.to_path_buf(),
        })
    }

    /// Opens the log beside a snapshot at `snapshot_epoch` for appends,
    /// repairing what [`WalState::judge`] finds: an absent or torn log is
    /// created afresh at `snapshot_epoch`, a torn tail is truncated, and
    /// a log based ahead of the snapshot is refused
    /// ([`io::ErrorKind::InvalidData`]). Returns the verdict with the log.
    pub fn open(path: &Path, snapshot_epoch: u64) -> io::Result<(Wal, WalState)> {
        let state = WalState::judge(path, snapshot_epoch)?;
        let wal = match &state {
            WalState::Absent | WalState::TornRotation { .. } => Wal::create(path, snapshot_epoch)?,
            WalState::AheadOfSnapshot { base_epoch } => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "WAL {} is based on epoch {base_epoch} but the snapshot is at epoch \
                         {snapshot_epoch}; the snapshot it belongs to was lost",
                        path.display()
                    ),
                ))
            }
            WalState::Log(recovery) => {
                let file = OpenOptions::new().write(true).open(path)?;
                if recovery.truncated_bytes > 0 {
                    file.set_len(recovery.committed_end)?;
                    file.sync_all()?;
                }
                let mut fault = FaultWriter::new(file);
                fault.seek_end(recovery.committed_end)?;
                Wal {
                    file: fault,
                    path: path.to_path_buf(),
                }
            }
        };
        Ok((wal, state))
    }
}

/// Parses the log at `path` and reports its committed batches and
/// torn-tail bytes, without truncating anything or opening the file for
/// append.
pub fn inspect(path: &Path) -> io::Result<WalRecovery> {
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;
    if bytes.len() < WAL_HEADER_LEN as usize {
        return Err(corrupt(format!(
            "WAL {} shorter than its header",
            path.display()
        )));
    }
    if bytes[..8] != WAL_MAGIC {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{} is not a WAL file (bad magic)", path.display()),
        ));
    }
    let base_epoch = u64::from_le_bytes(bytes[8..16].try_into().unwrap());

    let mut batches = Vec::new();
    let mut pending: Vec<WalOp> = Vec::new();
    let mut pos = WAL_HEADER_LEN as usize;
    // End of the last fully committed batch — the truncation point if
    // the tail is torn or uncommitted.
    let mut committed_end = pos;
    let mut torn = false;
    while pos < bytes.len() {
        let frame_start = pos;
        // Frame header.
        let Some(head) = bytes.get(frame_start..frame_start + 8) else {
            torn = true;
            break;
        };
        let len = u32::from_le_bytes(head[..4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(head[4..8].try_into().unwrap());
        let payload_start = frame_start + 8;
        let Some(payload) = bytes.get(payload_start..payload_start + len) else {
            // Frame extends past EOF: torn append.
            torn = true;
            break;
        };
        if crc32c(payload) != crc {
            if payload_start + len == bytes.len() {
                // Broken *final* frame: torn append that got its
                // header down but not all payload bytes in order.
                torn = true;
                break;
            }
            // Broken frame with data behind it: committed bytes
            // rotted. Refuse to silently drop acknowledged updates.
            return Err(durable::checksum_error(
                format!("WAL {} record at offset {frame_start}", path.display()),
                crc,
                crc32c(payload),
            ));
        }
        pos = payload_start + len;
        match payload.first().copied() {
            Some(TAG_INSERT) | Some(TAG_DELETE) => {
                let tag = payload[0];
                let mut p = 1usize;
                let s = decode_str(payload, &mut p, "subject")?;
                let pr = decode_str(payload, &mut p, "predicate")?;
                let o = decode_str(payload, &mut p, "object")?;
                if p != payload.len() {
                    return Err(corrupt(format!(
                        "WAL {} record at offset {frame_start} has trailing bytes",
                        path.display()
                    )));
                }
                pending.push(if tag == TAG_INSERT {
                    WalOp::Insert { s, p: pr, o }
                } else {
                    WalOp::Delete { s, p: pr, o }
                });
            }
            Some(TAG_COMMIT) => {
                let epoch_bytes = payload.get(1..9).ok_or_else(|| {
                    corrupt(format!(
                        "WAL {} commit record at offset {frame_start} cut off",
                        path.display()
                    ))
                })?;
                let epoch = u64::from_le_bytes(epoch_bytes.try_into().unwrap());
                batches.push(WalBatch {
                    epoch,
                    ops: std::mem::take(&mut pending),
                });
                committed_end = pos;
            }
            _ => {
                return Err(corrupt(format!(
                    "WAL {} record at offset {frame_start} has unknown tag",
                    path.display()
                )));
            }
        }
    }
    // Uncommitted trailing ops (valid frames, no commit marker) were
    // never acknowledged: drop them along with any torn frame.
    let truncated_bytes = (bytes.len() - committed_end) as u64;
    let _ = torn; // both torn frames and uncommitted ops truncate
    Ok(WalRecovery {
        base_epoch,
        batches,
        truncated_bytes,
        committed_end: committed_end as u64,
    })
}

impl Wal {
    /// Appends one batch — every op followed by a commit record carrying
    /// `epoch` — as a single write, then fsyncs. Only after this returns
    /// may the in-memory epoch be published.
    pub fn append_batch(&mut self, ops: &[WalOp], epoch: u64) -> io::Result<()> {
        let mut buf = Vec::new();
        for op in ops {
            encode_op(&mut buf, op);
        }
        self.append_frames(&mut buf, epoch)
    }

    /// [`Self::append_batch`] of ops already framed by [`encode_update`]:
    /// `frames` followed by a commit record carrying `epoch`, as a single
    /// write, then an fsync. The commit record is put behind `frames` for
    /// the write and taken off again, whatever the outcome.
    pub fn append_frames(&mut self, frames: &mut Vec<u8>, epoch: u64) -> io::Result<()> {
        let ops_end = frames.len();
        let mut commit = [TAG_COMMIT; 9];
        commit[1..].copy_from_slice(&epoch.to_le_bytes());
        frame(frames, &commit);
        let written = self.file.write_all(frames);
        frames.truncate(ops_end);
        written?;
        self.file.sync_all()
    }

    /// Checkpoints: truncates the log back to a fresh header relative to
    /// `base_epoch` (called right after a snapshot made everything before
    /// it durable).
    pub fn rotate(&mut self, base_epoch: u64) -> io::Result<()> {
        *self = Wal::create(&self.path, base_epoch)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::durable::{durability_error, DurabilityError};
    use std::fs;

    /// What a durable open does to the log at `path` beside a snapshot
    /// no log can be ahead of.
    fn recover(path: &Path) -> io::Result<(Wal, WalRecovery)> {
        match Wal::open(path, u64::MAX)? {
            (wal, WalState::Log(recovery)) => Ok((wal, recovery)),
            (_, state) => panic!("not a log: {state:?}"),
        }
    }

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rpq-wal-{tag}-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        dir.join("test.wal")
    }

    fn ins(s: &str, p: &str, o: &str) -> WalOp {
        WalOp::Insert {
            s: s.into(),
            p: p.into(),
            o: o.into(),
        }
    }

    fn del(s: &str, p: &str, o: &str) -> WalOp {
        WalOp::Delete {
            s: s.into(),
            p: p.into(),
            o: o.into(),
        }
    }

    #[test]
    fn roundtrip_batches() {
        let path = tmp("roundtrip");
        let mut wal = Wal::create(&path, 7).unwrap();
        wal.append_batch(&[ins("a", "p", "b"), del("c", "q", "d")], 8)
            .unwrap();
        wal.append_batch(&[ins("e", "p", "f")], 9).unwrap();
        drop(wal);

        let (_wal, rec) = recover(&path).unwrap();
        assert_eq!(rec.base_epoch, 7);
        assert_eq!(rec.truncated_bytes, 0);
        assert_eq!(rec.batches.len(), 2);
        assert_eq!(rec.batches[0].epoch, 8);
        assert_eq!(
            rec.batches[0].ops,
            vec![ins("a", "p", "b"), del("c", "q", "d")]
        );
        assert_eq!(rec.batches[1].ops, vec![ins("e", "p", "f")]);
        assert_eq!(rec.op_count(), 3);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_and_appendable() {
        let path = tmp("torn");
        let mut wal = Wal::create(&path, 0).unwrap();
        wal.append_batch(&[ins("a", "p", "b")], 1).unwrap();
        wal.append_batch(&[ins("x", "p", "y")], 2).unwrap();
        drop(wal);

        // Tear the final batch: chop bytes off the end.
        let full = fs::read(&path).unwrap();
        for cut in 1..40 {
            fs::write(&path, &full[..full.len() - cut]).unwrap();
            let (_w, rec) = recover(&path).unwrap();
            assert_eq!(rec.batches.len(), 1, "cut {cut}");
            assert_eq!(rec.batches[0].ops, vec![ins("a", "p", "b")]);
            assert!(rec.truncated_bytes > 0, "cut {cut}");
        }

        // After recovery the log accepts appends and replays cleanly.
        fs::write(&path, &full[..full.len() - 5]).unwrap();
        let (mut w, _rec) = recover(&path).unwrap();
        w.append_batch(&[ins("n", "p", "m")], 2).unwrap();
        drop(w);
        let (_w, rec) = recover(&path).unwrap();
        assert_eq!(rec.batches.len(), 2);
        assert_eq!(rec.batches[1].ops, vec![ins("n", "p", "m")]);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn uncommitted_ops_are_dropped() {
        let path = tmp("uncommitted");
        let mut wal = Wal::create(&path, 0).unwrap();
        wal.append_batch(&[ins("a", "p", "b")], 1).unwrap();
        drop(wal);
        // Append a valid op frame with no commit marker (a crash between
        // the op write and the commit write in some future coalescing).
        let mut extra = Vec::new();
        encode_op(&mut extra, &ins("ghost", "p", "x"));
        let mut bytes = fs::read(&path).unwrap();
        bytes.extend_from_slice(&extra);
        fs::write(&path, &bytes).unwrap();

        let (_w, rec) = recover(&path).unwrap();
        assert_eq!(rec.batches.len(), 1);
        assert_eq!(rec.truncated_bytes, extra.len() as u64);
        assert_eq!(
            fs::metadata(&path).unwrap().len() as usize,
            bytes.len() - extra.len()
        );
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn midfile_corruption_is_a_typed_error() {
        let path = tmp("midfile");
        let mut wal = Wal::create(&path, 0).unwrap();
        wal.append_batch(&[ins("a", "p", "b")], 1).unwrap();
        wal.append_batch(&[ins("c", "p", "d")], 2).unwrap();
        drop(wal);
        let mut bytes = fs::read(&path).unwrap();
        // Flip a payload byte of the FIRST record (committed, data after it).
        let idx = WAL_HEADER_LEN as usize + 8 + 2;
        bytes[idx] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        let err = recover(&path).err().expect("corruption must error");
        assert!(
            matches!(
                durability_error(&err),
                Some(DurabilityError::ChecksumMismatch { .. })
            ),
            "unexpected error: {err}"
        );
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn rotate_resets_to_empty_header() {
        let path = tmp("rotate");
        let mut wal = Wal::create(&path, 0).unwrap();
        wal.append_batch(&[ins("a", "p", "b")], 1).unwrap();
        wal.rotate(1).unwrap();
        wal.append_batch(&[ins("c", "p", "d")], 2).unwrap();
        drop(wal);
        let (_w, rec) = recover(&path).unwrap();
        assert_eq!(rec.base_epoch, 1);
        assert_eq!(rec.batches.len(), 1);
        assert_eq!(rec.batches[0].ops, vec![ins("c", "p", "d")]);
        fs::remove_file(&path).unwrap();
    }

    /// Judging changes nothing, and an open refuses a log ahead of the
    /// snapshot before it repairs anything.
    #[test]
    fn judge_sorts_the_four_states_and_changes_nothing() {
        let path = tmp("judge");
        let _ = fs::remove_file(&path);
        assert!(matches!(
            WalState::judge(&path, 3).unwrap(),
            WalState::Absent
        ));
        let mut wal = Wal::create(&path, 3).unwrap();
        wal.append_batch(&[ins("a", "p", "b")], 4).unwrap();
        drop(wal);
        let full = fs::read(&path).unwrap();
        fs::write(&path, &full[..15]).unwrap();
        let state = WalState::judge(&path, 3).unwrap();
        assert!(
            matches!(state, WalState::TornRotation { bytes: 15 }),
            "{state:?}"
        );
        let torn = &full[..full.len() - 1];
        fs::write(&path, torn).unwrap();
        match WalState::judge(&path, 3).unwrap() {
            WalState::Log(rec) => assert!(rec.batches.is_empty() && rec.truncated_bytes > 0),
            state => panic!("{state:?}"),
        }
        let state = WalState::judge(&path, 2).unwrap();
        assert!(
            matches!(state, WalState::AheadOfSnapshot { base_epoch: 3 }),
            "{state:?}"
        );
        let err = Wal::open(&path, 2).err().expect("a log ahead is refused");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(
            fs::read(&path).unwrap(),
            torn,
            "judging or refusing changed the log"
        );
        fs::remove_file(&path).unwrap();
    }

    /// Frames encoded one update at a time and appended with
    /// [`Wal::append_frames`] make the log [`Wal::append_batch`] makes of
    /// the same ops, byte for byte, and `frames` comes back as it went.
    #[test]
    fn frames_encoded_at_apply_are_the_batch_bytes() {
        let ops = [
            ins("a", "p", "b"),
            del("c", "q", "d"),
            ins("", "é", &"x".repeat(300)),
            del("a", "p", "b"),
        ];
        let (by_ops, by_frames) = (tmp("pin-ops"), tmp("pin-frames"));
        let mut wal = Wal::create(&by_ops, 4).unwrap();
        wal.append_batch(&ops, 5).unwrap();
        wal.append_batch(&[], 6).unwrap();
        let mut frames = Vec::new();
        for op in &ops {
            match op {
                WalOp::Insert { s, p, o } => encode_update(&mut frames, true, s, p, o),
                WalOp::Delete { s, p, o } => encode_update(&mut frames, false, s, p, o),
            }
        }
        let encoded = frames.clone();
        let mut wal = Wal::create(&by_frames, 4).unwrap();
        wal.append_frames(&mut frames, 5).unwrap();
        assert_eq!(frames, encoded);
        wal.append_frames(&mut Vec::new(), 6).unwrap();
        assert_eq!(fs::read(&by_ops).unwrap(), fs::read(&by_frames).unwrap());
        let (_w, rec) = recover(&by_frames).unwrap();
        assert_eq!(rec.batches[0].ops, ops);
        fs::remove_file(&by_ops).unwrap();
        fs::remove_file(&by_frames).unwrap();
    }

    #[test]
    fn bad_magic_rejected() {
        let path = tmp("magic");
        fs::write(&path, b"NOTAWAL!\0\0\0\0\0\0\0\0").unwrap();
        assert!(recover(&path).is_err());
        fs::remove_file(&path).unwrap();
    }
}
