//! Crash-safe snapshot IO: atomic replace-writes, checksum footers, and a
//! fault-injection layer (`IoPolicy`) for crash-consistency testing.
//!
//! Every on-disk format in the workspace routes its save path through
//! [`atomic_write`]: the new bytes go to a same-directory temp file, the
//! file is fsync'd, renamed over the destination, and the directory is
//! fsync'd so the rename itself is durable. A crash (or injected fault) at
//! any point leaves either the old file or the new file — never a torn
//! mixture — and at worst an orphaned `*.tmp` that [`cleanup_orphans`]
//! removes on the next open.
//!
//! The shard manifest additionally carries a 16-byte checksum footer
//! (`[crc32c u32][covered_len u64][b"RPQF"]`, all little-endian) produced
//! by [`finish_footer`] and checked by [`verify_footer`]; corruption and
//! truncation surface as the typed [`DurabilityError`] wrapped in an
//! [`io::Error`] (downcast with [`durability_error`]).
//!
//! The fault layer is process-global and off by default: [`arm`] installs
//! an [`IoPolicy`] whose counters tick on every write/fsync/rename that
//! flows through this module, [`disarm`] removes it and reports whether
//! the fault actually fired (so test sweeps know when they have walked
//! past the last IO operation of the path under test). Once a fault
//! fires, every subsequent write/fsync/rename fails too — modelling a
//! crash, not a transient hiccup.

use std::fmt;
use std::fs::{self, File};
use std::io::{self, BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use succinct::checksum::{CrcReader, CrcWriter};

/// Magic closing the whole-file checksum footer.
pub const FOOTER_MAGIC: [u8; 4] = *b"RPQF";
/// Size of the checksum footer: crc `u32` + covered length `u64` + magic.
pub const FOOTER_LEN: usize = 16;

// ---------------------------------------------------------------------------
// Typed durability errors
// ---------------------------------------------------------------------------

/// A typed durability failure detected while opening an index.
///
/// Carried as the source of an [`io::Error`] with kind
/// [`io::ErrorKind::InvalidData`]; recover it with [`durability_error`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DurabilityError {
    /// Stored and recomputed checksums disagree: the bytes were altered
    /// after they were written (bit rot, torn overwrite, tampering).
    ChecksumMismatch {
        /// What was being checked (file or section name).
        context: String,
        /// The checksum recorded on disk.
        expected: u32,
        /// The checksum recomputed from the bytes actually read.
        actual: u32,
    },
    /// The file ends before the format says it should (interrupted write
    /// on a pre-atomic layout, or external truncation).
    TruncatedFile {
        /// What was being read when the bytes ran out.
        context: String,
    },
}

impl fmt::Display for DurabilityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DurabilityError::ChecksumMismatch {
                context,
                expected,
                actual,
            } => write!(
                f,
                "checksum mismatch in {context}: stored {expected:#010x}, computed {actual:#010x}"
            ),
            DurabilityError::TruncatedFile { context } => {
                write!(f, "truncated file: {context}")
            }
        }
    }
}

impl std::error::Error for DurabilityError {}

/// Builds the [`io::Error`] carrying a [`DurabilityError::ChecksumMismatch`].
pub fn checksum_error(context: impl Into<String>, expected: u32, actual: u32) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        DurabilityError::ChecksumMismatch {
            context: context.into(),
            expected,
            actual,
        },
    )
}

/// Builds the [`io::Error`] carrying a [`DurabilityError::TruncatedFile`].
pub fn truncated_error(context: impl Into<String>) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        DurabilityError::TruncatedFile {
            context: context.into(),
        },
    )
}

/// Recovers the typed [`DurabilityError`] from an [`io::Error`], if that is
/// what it carries.
pub fn durability_error(err: &io::Error) -> Option<&DurabilityError> {
    err.get_ref()?.downcast_ref::<DurabilityError>()
}

// ---------------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------------

/// A fault-injection policy: which IO operation (counted per category,
/// 0-based, across everything routed through this module while armed)
/// should misbehave, and how.
///
/// All fields default to `None` (no fault). Once any write/fsync/rename
/// fault fires, the armed state turns *dead* and every later write, fsync
/// and rename fails as well — a crashed process does not come back to
/// finish the save. `flip_read` is independent: it corrupts one bit of
/// one byte (by absolute offset within the stream) on the read path and
/// does not kill anything, modelling silent media corruption.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoPolicy {
    /// Fail the Nth write with an injected error (no bytes written).
    pub fail_write: Option<u64>,
    /// Tear the Nth write: half its bytes reach the file, then it fails.
    pub short_write: Option<u64>,
    /// Fail the Nth fsync (file or directory).
    pub fail_fsync: Option<u64>,
    /// Fail the Nth rename.
    pub fail_rename: Option<u64>,
    /// Flip bit `1 << (b & 7)` of the byte at stream offset `off` on read.
    pub flip_read: Option<(u64, u8)>,
}

impl IoPolicy {
    /// Parses a policy from the `RPQ_IO_FAULTS` environment variable.
    ///
    /// Comma-separated specs: `write:N`, `short:N`, `fsync:N`,
    /// `rename:N`, `flip:OFFSET.BIT`. Returns `None` when the variable is
    /// unset or empty; malformed specs are an error so CI typos fail
    /// loudly instead of silently testing nothing.
    pub fn from_env() -> io::Result<Option<IoPolicy>> {
        let Ok(raw) = std::env::var("RPQ_IO_FAULTS") else {
            return Ok(None);
        };
        if raw.trim().is_empty() {
            return Ok(None);
        }
        let mut policy = IoPolicy::default();
        for spec in raw.split(',') {
            let spec = spec.trim();
            let bad = || {
                io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("RPQ_IO_FAULTS: malformed spec `{spec}`"),
                )
            };
            let (kind, arg) = spec.split_once(':').ok_or_else(bad)?;
            match kind {
                "write" => policy.fail_write = Some(arg.parse().map_err(|_| bad())?),
                "short" => policy.short_write = Some(arg.parse().map_err(|_| bad())?),
                "fsync" => policy.fail_fsync = Some(arg.parse().map_err(|_| bad())?),
                "rename" => policy.fail_rename = Some(arg.parse().map_err(|_| bad())?),
                "flip" => {
                    let (off, bit) = arg.split_once('.').ok_or_else(bad)?;
                    policy.flip_read = Some((
                        off.parse().map_err(|_| bad())?,
                        bit.parse().map_err(|_| bad())?,
                    ));
                }
                _ => return Err(bad()),
            }
        }
        Ok(Some(policy))
    }
}

struct ArmedPolicy {
    policy: IoPolicy,
    writes: u64,
    fsyncs: u64,
    renames: u64,
    triggered: bool,
    dead: bool,
}

static ARMED: Mutex<Option<ArmedPolicy>> = Mutex::new(None);

/// Installs `policy` process-wide. Tests arming faults must serialize on
/// their own mutex — the policy is global state.
pub fn arm(policy: IoPolicy) {
    *ARMED.lock().unwrap() = Some(ArmedPolicy {
        policy,
        writes: 0,
        fsyncs: 0,
        renames: 0,
        triggered: false,
        dead: false,
    });
}

/// Removes the armed policy; returns whether any fault fired while armed.
/// Sweeps use the `false` return to detect that the fault index walked
/// past the last IO operation of the path under test.
pub fn disarm() -> bool {
    ARMED
        .lock()
        .unwrap()
        .take()
        .map(|st| st.triggered)
        .unwrap_or(false)
}

fn injected(what: &str) -> io::Error {
    io::Error::other(format!("injected fault: {what}"))
}

/// Whether `err` is an error produced by the fault-injection layer.
pub fn is_injected(err: &io::Error) -> bool {
    err.to_string().starts_with("injected fault:")
}

enum WriteFault {
    None,
    Short,
}

fn hook_write() -> io::Result<WriteFault> {
    let mut guard = ARMED.lock().unwrap();
    let Some(st) = guard.as_mut() else {
        return Ok(WriteFault::None);
    };
    if st.dead {
        return Err(injected("write after crash"));
    }
    let n = st.writes;
    st.writes += 1;
    if st.policy.fail_write == Some(n) {
        st.triggered = true;
        st.dead = true;
        return Err(injected(format!("write #{n}").as_str()));
    }
    if st.policy.short_write == Some(n) {
        st.triggered = true;
        st.dead = true;
        return Ok(WriteFault::Short);
    }
    Ok(WriteFault::None)
}

fn hook_fsync() -> io::Result<()> {
    let mut guard = ARMED.lock().unwrap();
    let Some(st) = guard.as_mut() else {
        return Ok(());
    };
    if st.dead {
        return Err(injected("fsync after crash"));
    }
    let n = st.fsyncs;
    st.fsyncs += 1;
    if st.policy.fail_fsync == Some(n) {
        st.triggered = true;
        st.dead = true;
        return Err(injected(format!("fsync #{n}").as_str()));
    }
    Ok(())
}

fn hook_rename() -> io::Result<()> {
    let mut guard = ARMED.lock().unwrap();
    let Some(st) = guard.as_mut() else {
        return Ok(());
    };
    if st.dead {
        return Err(injected("rename after crash"));
    }
    let n = st.renames;
    st.renames += 1;
    if st.policy.fail_rename == Some(n) {
        st.triggered = true;
        st.dead = true;
        return Err(injected(format!("rename #{n}").as_str()));
    }
    Ok(())
}

fn hook_read(offset: u64, buf: &mut [u8], n: usize) {
    let mut guard = ARMED.lock().unwrap();
    let Some(st) = guard.as_mut() else { return };
    if let Some((off, bit)) = st.policy.flip_read {
        if off >= offset && off < offset + n as u64 {
            buf[(off - offset) as usize] ^= 1 << (bit & 7);
            st.triggered = true;
        }
    }
}

/// A writer that consults the armed [`IoPolicy`] on every `write`.
///
/// Save paths stack a `BufWriter` *on top* of this, so each counted write
/// is one buffer flush (~tens of KB) — keeping fault sweeps over "fail
/// the Nth write" to a handful of iterations per save instead of one per
/// field.
pub struct FaultWriter<W> {
    inner: W,
}

impl<W: Write> FaultWriter<W> {
    /// Wraps `inner`.
    pub fn new(inner: W) -> Self {
        Self { inner }
    }
}

impl FaultWriter<File> {
    /// Fsyncs the underlying file, subject to the armed fsync fault.
    pub fn sync_all(&self) -> io::Result<()> {
        hook_fsync()?;
        self.inner.sync_all()
    }

    /// Positions the underlying file at absolute offset `pos` (the WAL
    /// uses this to resume appending after recovery).
    pub fn seek_end(&mut self, pos: u64) -> io::Result<()> {
        use std::io::Seek;
        self.inner.seek(io::SeekFrom::Start(pos)).map(|_| ())
    }
}

impl<W: Write> Write for FaultWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match hook_write()? {
            WriteFault::None => self.inner.write(buf),
            WriteFault::Short => {
                // A torn write: half the bytes land, then the "crash".
                let torn = buf.len() / 2;
                self.inner.write_all(&buf[..torn])?;
                let _ = self.inner.flush();
                Err(injected("short write"))
            }
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// A reader that applies the armed bit-flip fault by absolute stream
/// offset, modelling silent media corruption on the load path.
pub struct FaultReader<R> {
    inner: R,
    offset: u64,
}

impl<R: Read> FaultReader<R> {
    /// Wraps `inner`, counting offsets from zero.
    pub fn new(inner: R) -> Self {
        Self { inner, offset: 0 }
    }
}

impl<R: Read> Read for FaultReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        hook_read(self.offset, buf, n);
        self.offset += n as u64;
        Ok(n)
    }
}

// ---------------------------------------------------------------------------
// Atomic replace-write
// ---------------------------------------------------------------------------

static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

fn temp_path_for(path: &Path) -> PathBuf {
    let name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "index".to_string());
    let unique = format!(
        "{name}.{}.{}.tmp",
        std::process::id(),
        TMP_SEQ.fetch_add(1, Ordering::Relaxed)
    );
    path.with_file_name(unique)
}

/// Atomically replaces `path` with the bytes `write` produces.
///
/// The payload goes to a unique same-directory temp file through a
/// buffered, fault-aware writer; the temp file is fsync'd, renamed over
/// `path`, and the parent directory fsync'd so the rename survives a
/// crash. On any error the temp file is removed and the previous contents
/// of `path` are untouched. Returns the number of payload bytes written.
pub fn atomic_write(
    path: &Path,
    write: impl FnOnce(&mut dyn Write) -> io::Result<()>,
) -> io::Result<u64> {
    let tmp = temp_path_for(path);
    let result = (|| {
        let file = File::create(&tmp)?;
        let mut writer = BufWriter::with_capacity(64 << 10, FaultWriter::new(file));
        write(&mut writer)?;
        writer.flush()?;
        let fault_file = writer
            .into_inner()
            .map_err(|e| io::Error::other(format!("flush on save: {e}")))?;
        fault_file.sync_all()?;
        drop(fault_file);
        hook_rename()?;
        fs::rename(&tmp, path)?;
        // Make the rename itself durable: fsync the containing directory.
        fsync_parent_dir(path)?;
        Ok(())
    })();
    match result {
        Ok(()) => {
            let len = fs::metadata(path)?.len();
            Ok(len)
        }
        Err(e) => {
            let _ = fs::remove_file(&tmp);
            Err(e)
        }
    }
}

/// Fsyncs the directory containing `path`, making a rename or file
/// creation inside it durable. Subject to the armed fsync fault.
pub fn fsync_parent_dir(path: &Path) -> io::Result<()> {
    let Some(dir) = path.parent() else {
        return Ok(());
    };
    let dir = if dir.as_os_str().is_empty() {
        Path::new(".")
    } else {
        dir
    };
    hook_fsync()?;
    File::open(dir)?.sync_all()
}

/// Best-effort removal of orphaned `*.tmp` files a crashed save left next
/// to `path` (any sibling named `<file_name>.<...>.tmp`). Returns how many
/// were removed; never fails — an unreadable directory just cleans nothing.
pub fn cleanup_orphans(path: &Path) -> usize {
    let Some(name) = path.file_name().map(|n| n.to_string_lossy().into_owned()) else {
        return 0;
    };
    let dir = match path.parent() {
        Some(d) if !d.as_os_str().is_empty() => d.to_path_buf(),
        _ => PathBuf::from("."),
    };
    let Ok(entries) = fs::read_dir(&dir) else {
        return 0;
    };
    let prefix = format!("{name}.");
    let mut removed = 0;
    for entry in entries.flatten() {
        let file = entry.file_name().to_string_lossy().into_owned();
        if file.starts_with(&prefix)
            && file.ends_with(".tmp")
            && fs::remove_file(entry.path()).is_ok()
        {
            removed += 1;
        }
    }
    removed
}

// ---------------------------------------------------------------------------
// Checksum footer
// ---------------------------------------------------------------------------

/// Appends the 16-byte checksum footer covering everything written
/// through `w` so far. The footer bytes themselves are not hashed.
pub fn finish_footer<W: Write>(w: &mut CrcWriter<W>) -> io::Result<()> {
    let crc = w.digest();
    let covered = w.written();
    let inner = w.inner_mut();
    inner.write_all(&crc.to_le_bytes())?;
    inner.write_all(&covered.to_le_bytes())?;
    inner.write_all(&FOOTER_MAGIC)
}

/// Reads and checks the checksum footer after the payload has been fully
/// consumed through `r`. Verifies the footer magic, the covered length,
/// the CRC32C, and that nothing trails the footer. Errors are the typed
/// [`DurabilityError`] variants.
pub fn verify_footer<R: Read>(r: &mut CrcReader<R>, context: &str) -> io::Result<()> {
    let actual = r.digest();
    let covered = r.read_count();
    let mut footer = [0u8; FOOTER_LEN];
    let mut got = 0usize;
    while got < FOOTER_LEN {
        let n = r.inner_mut().read(&mut footer[got..])?;
        if n == 0 {
            break;
        }
        got += n;
    }
    if got == 0 {
        return Err(truncated_error(format!(
            "{context}: missing checksum footer"
        )));
    }
    if got < FOOTER_LEN {
        return Err(truncated_error(format!(
            "{context}: checksum footer cut off"
        )));
    }
    if footer[12..16] != FOOTER_MAGIC {
        return Err(truncated_error(format!(
            "{context}: checksum footer magic missing (file cut or overwritten mid-save)"
        )));
    }
    let expected = u32::from_le_bytes(footer[0..4].try_into().unwrap());
    let stored_len = u64::from_le_bytes(footer[4..12].try_into().unwrap());
    if stored_len != covered {
        return Err(truncated_error(format!(
            "{context}: footer covers {stored_len} bytes but {covered} were read"
        )));
    }
    if expected != actual {
        return Err(checksum_error(context, expected, actual));
    }
    let mut trailing = [0u8; 1];
    if r.inner_mut().read(&mut trailing)? != 0 {
        return Err(truncated_error(format!(
            "{context}: trailing bytes after checksum footer"
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard};

    // Fault arming is process-global; serialize the tests that use it.
    static FAULT_LOCK: Mutex<()> = Mutex::new(());
    fn lock_faults() -> MutexGuard<'static, ()> {
        FAULT_LOCK.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "rpq-durable-{tag}-{}-{}",
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn atomic_write_replaces_and_reports_len() {
        let dir = tmpdir("replace");
        let path = dir.join("data.bin");
        fs::write(&path, b"old contents").unwrap();
        let len = atomic_write(&path, |w| w.write_all(b"new")).unwrap();
        assert_eq!(len, 3);
        assert_eq!(fs::read(&path).unwrap(), b"new");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_atomic_write_preserves_old_bytes() {
        let dir = tmpdir("preserve");
        let path = dir.join("data.bin");
        fs::write(&path, b"old contents").unwrap();
        let err = atomic_write(&path, |w| {
            w.write_all(b"half the new bytes")?;
            Err(io::Error::other("simulated failure"))
        })
        .unwrap_err();
        assert_eq!(err.to_string(), "simulated failure");
        assert_eq!(fs::read(&path).unwrap(), b"old contents");
        // No temp litter left behind.
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn injected_write_fault_fires_and_preserves_target() {
        let _guard = lock_faults();
        let dir = tmpdir("fault");
        let path = dir.join("data.bin");
        fs::write(&path, b"old").unwrap();
        arm(IoPolicy {
            fail_write: Some(0),
            ..IoPolicy::default()
        });
        let err = atomic_write(&path, |w| w.write_all(&[7u8; 256 << 10])).unwrap_err();
        assert!(disarm());
        assert!(is_injected(&err), "unexpected error: {err}");
        assert_eq!(fs::read(&path).unwrap(), b"old");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn disarm_reports_untriggered_fault() {
        let _guard = lock_faults();
        let dir = tmpdir("untriggered");
        let path = dir.join("data.bin");
        arm(IoPolicy {
            fail_write: Some(1000),
            ..IoPolicy::default()
        });
        atomic_write(&path, |w| w.write_all(b"tiny")).unwrap();
        assert!(!disarm(), "fault #1000 cannot fire on a one-flush save");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn footer_roundtrip_and_corruption_detection() {
        let payload = b"some payload bytes for the footer";
        let mut w = CrcWriter::new(Vec::new());
        w.write_all(payload).unwrap();
        finish_footer(&mut w).unwrap();
        let bytes = std::mem::take(w.inner_mut());
        assert_eq!(bytes.len(), payload.len() + FOOTER_LEN);

        // Clean verify.
        let mut r = CrcReader::new(&bytes[..]);
        let mut buf = vec![0u8; payload.len()];
        r.read_exact(&mut buf).unwrap();
        verify_footer(&mut r, "test").unwrap();

        // Flip one payload bit: ChecksumMismatch.
        let mut bad = bytes.clone();
        bad[5] ^= 0x10;
        let mut r = CrcReader::new(&bad[..]);
        r.read_exact(&mut buf).unwrap();
        let err = verify_footer(&mut r, "test").unwrap_err();
        assert!(matches!(
            durability_error(&err),
            Some(DurabilityError::ChecksumMismatch { .. })
        ));

        // Cut the footer short: TruncatedFile.
        let cut = &bytes[..bytes.len() - 4];
        let mut r = CrcReader::new(cut);
        r.read_exact(&mut buf).unwrap();
        let err = verify_footer(&mut r, "test").unwrap_err();
        assert!(matches!(
            durability_error(&err),
            Some(DurabilityError::TruncatedFile { .. })
        ));

        // Trailing garbage after the footer is rejected too.
        let mut long = bytes.clone();
        long.push(0xAB);
        let mut r = CrcReader::new(&long[..]);
        r.read_exact(&mut buf).unwrap();
        assert!(verify_footer(&mut r, "test").is_err());
    }

    #[test]
    fn flip_read_corrupts_exactly_one_bit() {
        let _guard = lock_faults();
        let data: Vec<u8> = (0..64u8).collect();
        arm(IoPolicy {
            flip_read: Some((10, 3)),
            ..IoPolicy::default()
        });
        let mut r = FaultReader::new(&data[..]);
        let mut out = Vec::new();
        r.read_to_end(&mut out).unwrap();
        assert!(disarm());
        assert_eq!(out[10], 10 ^ (1 << 3));
        out[10] = 10;
        assert_eq!(out, data);
    }

    #[test]
    fn cleanup_removes_only_matching_orphans() {
        let dir = tmpdir("cleanup");
        let path = dir.join("index.ring");
        fs::write(&path, b"good").unwrap();
        fs::write(dir.join("index.ring.123.0.tmp"), b"orphan").unwrap();
        fs::write(dir.join("index.ring.999.7.tmp"), b"orphan").unwrap();
        fs::write(dir.join("other.ring.5.5.tmp"), b"keep").unwrap();
        assert_eq!(cleanup_orphans(&path), 2);
        assert!(path.exists());
        assert!(dir.join("other.ring.5.5.tmp").exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn env_policy_parsing() {
        // from_env reads the live environment; only exercise the parser
        // indirectly through a scoped set/remove. Serialized by the fault
        // lock since env vars are process-global too.
        let _guard = lock_faults();
        std::env::set_var("RPQ_IO_FAULTS", "write:3,flip:128.5");
        let policy = IoPolicy::from_env().unwrap().unwrap();
        assert_eq!(policy.fail_write, Some(3));
        assert_eq!(policy.flip_read, Some((128, 5)));
        std::env::set_var("RPQ_IO_FAULTS", "bogus:1");
        assert!(IoPolicy::from_env().is_err());
        std::env::remove_var("RPQ_IO_FAULTS");
        assert!(IoPolicy::from_env().unwrap().is_none());
    }
}
