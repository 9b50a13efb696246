//! Set-up as a user would do it — dump → `ingest::load_ntriples_file` →
//! `RpqDatabase::from_parts` → save → reopen from disk — plus the scratch
//! directory, the child processes that measure a fresh process, and the
//! host stamps.

use crate::inputs::RenderedQuery;
use crate::stats::median;
use ring::mapped::OpenMode;
use ring_rpq::{ingest, RpqDatabase, UpdatableDatabase};
use rpq_core::EngineOptions;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Instant;

/// How many times a run of a read workload sets up (2.5–4.3 s each).
pub const SETUP_REPEATS: usize = 3;
/// How many times a run of `update-mixed` sets up (0.1 s each).
pub const LIVE_SETUP_REPEATS: usize = 9;

/// Shards of `table1-sharded`.
pub const N_SHARDS: usize = 4;

/// Where the driver keeps its files: `e2e-work/` beside the running
/// executable, that is, inside the build directory (`target/release`, or
/// the benchmark checkout's `.bench_build/release`). The benchmark may
/// read and write only inside its checkout, which rules out the system
/// temp directory; the build directory is the one place in a checkout
/// that is already set aside for what building and running leave behind.
fn work_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let dir = exe
        .parent()
        .ok_or("the executable has no parent directory")?
        .join("e2e-work");
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    Ok(dir)
}

/// A private directory under [`work_dir`], removed on drop.
pub struct Scratch {
    dir: PathBuf,
}

impl Scratch {
    pub fn new(tag: &str) -> Result<Self, String> {
        static NEXT: AtomicU32 = AtomicU32::new(0);
        let dir = work_dir()?.join(format!(
            "{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(Self { dir })
    }

    pub fn path(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Where a traced run of `workload` writes its spans: the one file that
/// outlives the run (each run overwrites the last).
pub fn trace_path(workload: &str) -> Result<PathBuf, String> {
    Ok(work_dir()?.join(format!("trace-{workload}.json")))
}

/// How the index is saved and reopened.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layout {
    /// One `RRPQM01` file, opened `OpenMode::Mmap`.
    Mapped,
    /// `save_sharded(N_SHARDS)` + `open_sharded(Mmap)`.
    Sharded,
    /// `UpdatableDatabase::save` + `open_durable`.
    Durable,
}

impl Layout {
    pub fn as_str(self) -> &'static str {
        match self {
            Layout::Mapped => "mapped",
            Layout::Sharded => "sharded",
            Layout::Durable => "durable",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        [Layout::Mapped, Layout::Sharded, Layout::Durable]
            .into_iter()
            .find(|l| l.as_str() == s)
    }
}

/// Phase times of one set-up, seconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    pub ingest_s: f64,
    pub build_s: f64,
    pub save_s: f64,
    pub open_s: f64,
}

impl SetupTimes {
    pub fn total_s(&self) -> f64 {
        self.ingest_s + self.build_s + self.save_s + self.open_s
    }
}

/// A read-only database set up from the dump.
pub struct ReadSetup {
    /// As built in memory: holds the ingested graph answers are checked
    /// against.
    pub built: RpqDatabase,
    /// As reopened from disk: what the workload queries.
    pub opened: RpqDatabase,
    pub index_path: PathBuf,
    pub index_bytes: u64,
    pub base_triples: usize,
    pub times: SetupTimes,
}

fn dir_bytes(path: &Path) -> std::io::Result<u64> {
    let meta = std::fs::metadata(path)?;
    if !meta.is_dir() {
        return Ok(meta.len());
    }
    let mut total = 0;
    for entry in std::fs::read_dir(path)? {
        total += dir_bytes(&entry?.path())?;
    }
    Ok(total)
}

/// One pass of the read-path set-up into `index_path`.
pub fn setup_read(dump: &Path, index_path: &Path, layout: Layout) -> Result<ReadSetup, String> {
    let t0 = Instant::now();
    let (graph, nodes, preds) = ingest::load_ntriples_file(dump)?;
    let t1 = Instant::now();
    let built = RpqDatabase::from_parts(graph, nodes, preds);
    let t2 = Instant::now();
    let io = |e: std::io::Error| format!("{}: {e}", index_path.display());
    match layout {
        Layout::Mapped => built.save_mapped(index_path).map(|_| ()).map_err(io)?,
        Layout::Sharded => {
            let _ = std::fs::remove_dir_all(index_path);
            built
                .save_sharded(index_path, N_SHARDS)
                .map(|_| ())
                .map_err(io)?
        }
        Layout::Durable => return Err("setup_read is for read-only layouts".into()),
    }
    let t3 = Instant::now();
    let opened = RpqDatabase::open_with(index_path, OpenMode::Mmap).map_err(io)?;
    let t4 = Instant::now();
    Ok(ReadSetup {
        base_triples: built.graph().len(),
        built,
        opened,
        index_path: index_path.to_path_buf(),
        index_bytes: dir_bytes(index_path).map_err(io)?,
        times: SetupTimes {
            ingest_s: (t1 - t0).as_secs_f64(),
            build_s: (t2 - t1).as_secs_f64(),
            save_s: (t3 - t2).as_secs_f64(),
            open_s: (t4 - t3).as_secs_f64(),
        },
    })
}

/// An updatable database set up from the dump and reopened durably.
pub struct LiveSetup {
    pub db: UpdatableDatabase,
    pub index_bytes: u64,
    pub base_triples: usize,
    pub times: SetupTimes,
}

pub fn setup_live(dump: &Path, snapshot_path: &Path) -> Result<LiveSetup, String> {
    let io = |e: std::io::Error| format!("{}: {e}", snapshot_path.display());
    // A stale log from an earlier set-up at this path would be replayed.
    let _ = std::fs::remove_file(UpdatableDatabase::wal_path(snapshot_path));
    let t0 = Instant::now();
    let (graph, nodes, preds) = ingest::load_ntriples_file(dump)?;
    let base_triples = graph.len();
    let t1 = Instant::now();
    let built = RpqDatabase::from_parts(graph, nodes, preds).into_updatable();
    let t2 = Instant::now();
    built.save(snapshot_path).map_err(io)?;
    let t3 = Instant::now();
    drop(built);
    let t3b = Instant::now();
    let db = UpdatableDatabase::open_durable(snapshot_path).map_err(io)?;
    let t4 = Instant::now();
    Ok(LiveSetup {
        db,
        index_bytes: dir_bytes(snapshot_path).map_err(io)?,
        base_triples,
        times: SetupTimes {
            ingest_s: (t1 - t0).as_secs_f64(),
            build_s: (t2 - t1).as_secs_f64(),
            save_s: (t3 - t2).as_secs_f64(),
            open_s: (t4 - t3b).as_secs_f64(),
        },
    })
}

/// Runs `one` `repeats` times, returning the last set-up and `setup_s`:
/// the sum of the phases, each phase the fastest of its repetitions (the
/// rule every timing here follows; see the README). `after_each` gets
/// every set-up and the share of the run's measured phase that falls to
/// it, for workloads that measure between their set-ups.
pub fn repeat_setup<T>(
    repeats: usize,
    times: impl Fn(&T) -> SetupTimes,
    mut one: impl FnMut() -> Result<T, String>,
    mut after_each: impl FnMut(&T, f64),
) -> Result<(T, f64), String> {
    let mut fastest = SetupTimes {
        ingest_s: f64::INFINITY,
        build_s: f64::INFINITY,
        save_s: f64::INFINITY,
        open_s: f64::INFINITY,
    };
    let mut last = None;
    for _ in 0..repeats.max(1) {
        // Drop the previous database before the next set-up rewrites its
        // file.
        drop(last.take());
        let s = one()?;
        let t = times(&s);
        fastest = SetupTimes {
            ingest_s: fastest.ingest_s.min(t.ingest_s),
            build_s: fastest.build_s.min(t.build_s),
            save_s: fastest.save_s.min(t.save_s),
            open_s: fastest.open_s.min(t.open_s),
        };
        after_each(&s, 1.0 / repeats.max(1) as f64);
        last = Some(s);
    }
    Ok((last.expect("at least one set-up ran"), fastest.total_s()))
}

/// The untimed warm-up sample: every 10th query.
pub fn warm_sample(queries: &[RenderedQuery]) -> impl Iterator<Item = &RenderedQuery> {
    queries.iter().step_by(10)
}

// ---- child processes: what a fresh process pays ----

/// What a child reports about itself.
#[derive(Clone, Copy, Debug)]
pub struct ChildReport {
    /// `main` → open → first answer, milliseconds.
    pub first_answer_ms: f64,
    /// Peak resident set (`VmHWM`), MiB, after the whole sample.
    pub vm_hwm_mb: f64,
}

fn vm_hwm_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Writes the sample a child runs: `subject \t expr \t object` lines.
pub fn write_sample<'a>(
    path: &Path,
    queries: impl Iterator<Item = &'a RenderedQuery>,
) -> Result<(), String> {
    let mut text = String::new();
    for q in queries {
        let _ = writeln!(text, "{}\t{}\t{}", q.subject, q.expr, q.object);
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// The body of `e2e child-open <layout> <index> <sample> <limit>`: opens
/// the index as a fresh process would, runs the sample, and prints
/// `first_answer_ms vm_hwm_mb`.
pub fn child_open(started: Instant, args: &[String]) -> Result<(), String> {
    let [layout, index, sample, limit] = args else {
        return Err("usage: e2e child-open <layout> <index> <sample> <limit>".into());
    };
    let layout = Layout::parse(layout).ok_or("unknown layout")?;
    let index = Path::new(index);
    let opts = EngineOptions {
        limit: limit.parse().map_err(|_| "bad limit")?,
        timeout: Some(crate::inputs::QUERY_TIMEOUT),
        ..EngineOptions::default()
    };
    let sample = std::fs::read_to_string(sample).map_err(|e| format!("{sample}: {e}"))?;
    enum Db {
        Read(RpqDatabase),
        Live(UpdatableDatabase),
    }
    let db = match layout {
        Layout::Durable => Db::Live(UpdatableDatabase::load(index).map_err(|e| e.to_string())?),
        _ => Db::Read(RpqDatabase::open_with(index, OpenMode::Mmap).map_err(|e| e.to_string())?),
    };
    let mut first_answer_ms = 0.0;
    for (i, line) in sample.lines().enumerate() {
        let mut f = line.split('\t');
        let (Some(s), Some(e), Some(o)) = (f.next(), f.next(), f.next()) else {
            return Err(format!("sample line {}: expected 3 fields", i + 1));
        };
        let out = match &db {
            Db::Read(db) => db.query_with(s, e, o, &opts),
            Db::Live(db) => db.query_with(s, e, o, &opts),
        }
        .map_err(|e| e.to_string())?;
        std::hint::black_box(out.pairs.len());
        if i == 0 {
            first_answer_ms = started.elapsed().as_secs_f64() * 1e3;
        }
    }
    println!("{first_answer_ms} {}", vm_hwm_mb());
    Ok(())
}

/// Re-executes the driver as a fresh process over `index` and `sample`
/// and waits for it to end.
pub fn spawn_child(
    layout: Layout,
    index: &Path,
    sample: &Path,
    limit: usize,
) -> Result<ChildReport, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .arg("child-open")
        .arg(layout.as_str())
        .arg(index)
        .arg(sample)
        .arg(limit.to_string())
        .output()
        .map_err(|e| format!("starting the child: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "child-open failed: {}",
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let mut fields = text.split_whitespace().map(str::parse::<f64>);
    match (fields.next(), fields.next()) {
        (Some(Ok(first_answer_ms)), Some(Ok(vm_hwm_mb))) => Ok(ChildReport {
            first_answer_ms,
            vm_hwm_mb,
        }),
        _ => Err(format!("child-open printed {text:?}")),
    }
}

/// `open_rss_mb`: median `VmHWM` of three fresh processes that open the
/// index and run the warm-up sample. In unit tests (`children` off) this
/// process's own peak stands in, so the metric is still a real number.
pub fn open_rss_mb(
    children: bool,
    layout: Layout,
    index: &Path,
    sample: &Path,
    limit: usize,
) -> Result<f64, String> {
    if !children {
        return Ok(vm_hwm_mb().max(1.0));
    }
    let mut peaks = Vec::new();
    for _ in 0..3 {
        peaks.push(spawn_child(layout, index, sample, limit)?.vm_hwm_mb);
    }
    Ok(median(&peaks))
}

// ---- stamps ----

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

/// Host facts printed next to every result.
pub fn host_stamps() -> Vec<(String, String)> {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    vec![
        ("host_threads".into(), threads.to_string()),
        (
            // A benchmark checkout is not a git repository.
            "commit".into(),
            command_line("git", &["rev-parse", "--short", "HEAD"])
                .unwrap_or_else(|| "unknown".into()),
        ),
        (
            "rustc".into(),
            command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()),
        ),
    ]
}
