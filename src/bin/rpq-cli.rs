//! `rpq-cli` — build, persist, query and *serve* ring-rpq databases.
//!
//! ```text
//! rpq-cli build <graph.txt|graph.nt> <index.db>  index a graph file
//!   (--shards n writes a sharded index directory instead)
//! rpq-cli query <index.db> <s> <expr> <o>      run one 2RPQ (use ?vars)
//! rpq-cli serve <index.db> [opts]              query service on stdin
//! rpq-cli batch <index.db> <queries> [opts]    run a query file via the service
//! rpq-cli stats <index.db>                     index statistics
//! rpq-cli bench <index.db> <s> <expr> <o> [n]  time a query n times
//! ```
//!
//! Examples:
//!
//! ```text
//! rpq-cli build metro.txt metro.db
//! rpq-cli query metro.db baquedano 'l5+/bus' '?y'
//! echo 'baquedano l5+/bus ?y' | rpq-cli serve metro.db --workers 4
//! rpq-cli batch metro.db queries.txt --metrics metrics.json
//! ```
//!
//! Exit codes: 0 success, 1 operational error, 2 malformed query
//! (pattern parse error or unknown node) — typed, no backtrace.

use ring_rpq::ring::mapped::OpenMode;
use ring_rpq::ring::wal::WalState;
use ring_rpq::rpq_server::source::name_pairs;
use ring_rpq::rpq_server::{QuerySource, RpqError, RpqServer, ServerConfig};
use ring_rpq::{DbError, RpqDatabase, UpdatableDatabase};
use rpq_core::stats::RingStatistics;
use rpq_core::{planner, EngineOptions, PreparedQuery, RpqEngine, TripleSource};
use std::collections::VecDeque;
use std::io::{BufRead, Write};
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

fn main() -> ExitCode {
    // Fault injection for crash-consistency CI: `RPQ_IO_FAULTS` (e.g.
    // `write:3` or `fsync:0,rename:0`) arms the durable IO layer so a
    // save dies at the Nth operation exactly like a crash would.
    match ring_rpq::ring::durable::IoPolicy::from_env() {
        Ok(Some(policy)) => {
            ring_rpq::ring::durable::arm(policy);
            eprintln!("fault injection armed: RPQ_IO_FAULTS={policy:?}");
        }
        Ok(None) => {}
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("build") => cmd_build(&args[1..]),
        Some("insert") => cmd_update(&args[1..], true),
        Some("delete") => cmd_update(&args[1..], false),
        Some("compact") => cmd_compact(&args[1..]),
        Some("query") => cmd_query(&args[1..]),
        Some("explain") => cmd_explain(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("batch") => cmd_batch(&args[1..]),
        Some("stats") => cmd_stats(&args[1..]),
        Some("verify") => cmd_verify(&args[1..]),
        Some("bench") => cmd_bench(&args[1..]),
        Some("--help" | "-h" | "help") | None => {
            eprint!("{}", USAGE);
            return ExitCode::SUCCESS;
        }
        Some(other) => Err(CliError::Other(format!(
            "unknown command '{other}'\n{USAGE}"
        ))),
    };
    match result {
        Ok(()) | Err(CliError::Closed) => ExitCode::SUCCESS,
        Err(CliError::Parse(msg)) => {
            eprintln!("error: {msg}");
            ExitCode::from(2)
        }
        Err(CliError::Other(msg)) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  rpq-cli build <graph.txt|graph.nt> <index.db>  index a graph file
  rpq-cli insert <index.db> <delta.txt|.nt>      commit a batch of triple inserts
  rpq-cli delete <index.db> <delta.txt|.nt>      commit a batch of triple deletes
  rpq-cli compact <index.db>                     fold the delta overlay into the ring
  rpq-cli query <index.db> <s> <expr> <o>        run one 2RPQ (use ?vars)
  rpq-cli explain <index.db> <s> <expr> <o>      show the evaluation plan (human-readable)
  rpq-cli serve <index.db> [opts]                query service: one 's expr o' per stdin line
  rpq-cli batch <index.db> <queries.txt> [opts]  run a query file through the service
  rpq-cli stats <index.db>                       index statistics
  rpq-cli verify <index.db>                      deep-check an index: header, checksums,
                                                 cross-component consistency, WAL tail;
                                                 prints a one-line JSON report and exits
                                                 0 (healthy) or 2 (corrupt, or a format
                                                 this build no longer reads); works on
                                                 sharded index directories too
  rpq-cli bench <index.db> <s> <expr> <o> [n]    time a query n times
build writes the aligned RRPQM01 format: the file is usable in place, so
opens map it zero-copy instead of deserializing. insert/delete/compact
rewrite it the same way and keep a write-ahead log beside it (<index.db>.wal).
build options:
  --shards <n>     write a horizontally sharded index instead: <index.db>
                   becomes a directory of n mappable RRPQM01 shard files
                   plus a checksummed manifest; query/serve/batch/stats
                   open it transparently and answers are bit-identical
                   to the unsharded index
query/serve/batch/stats/bench options:
  --mmap | --heap  require a kernel mapping / force an aligned heap read
                   of the index (default: map when the platform supports
                   it)
query/batch options:
  --explain        print the planner's chosen plan (route, direction,
                   split label, cost estimate) as stable JSON, one object
                   per query, without evaluating anything
query/serve/batch options:
  --profile        collect an execution profile (per-phase timings,
                   per-level frontier sizes, compaction and cache
                   counters; answers are bit-identical either way).
                   `query` prints it as a final JSON line; serve/batch
                   print '# profile: {json}' per answer
serve/batch options:
  --workers <n>    worker threads (default: available parallelism)
  --metrics <file> write the metrics registry JSON there ('-' = stderr)
  --slow-log <n>   keep the n worst queries (with profiles) in the
                   slow-query log (default 0 = disabled)
  --slow-ms <t>    slow-log admission threshold, milliseconds (default 100)
serve session meta-commands (one per stdin line, answers flush first):
  .metrics         print the metrics registry JSON
  .prometheus      print the registry in Prometheus text format
  .slow            print the slow-query log JSON
  .drain           graceful stop: reject new queries, finish in-flight
                   ones, checkpoint durable state, print a JSON report,
                   and end the session
";

/// CLI failures, split by exit code: malformed queries (pattern parse
/// errors, unknown nodes) exit 2; everything else exits 1. A closed
/// stdout (`rpq-cli query … | head -3`) is no failure: the run ends
/// there and exits 0.
enum CliError {
    Parse(String),
    Other(String),
    Closed,
}

/// The error of a failed write to stdout: [`CliError::Closed`] once the
/// reader has gone.
fn output_error(e: std::io::Error) -> CliError {
    if e.kind() == std::io::ErrorKind::BrokenPipe {
        CliError::Closed
    } else {
        CliError::Other(format!("writing output: {e}"))
    }
}

/// `println!` to stdout for a verb's output: a closed stdout ends the
/// verb with [`CliError::Closed`] instead of a panic.
macro_rules! outln {
    ($($arg:tt)*) => {
        writeln!(std::io::stdout(), $($arg)*).map_err(output_error)?
    };
}

/// `print!` to stdout, as [`outln!`] is `println!`.
macro_rules! out {
    ($($arg:tt)*) => {
        write!(std::io::stdout(), $($arg)*).map_err(output_error)?
    };
}

impl From<DbError> for CliError {
    fn from(e: DbError) -> Self {
        match e {
            DbError::Parse(_) | DbError::UnknownNode(_) => CliError::Parse(e.to_string()),
            other => CliError::Other(other.to_string()),
        }
    }
}

impl From<String> for CliError {
    fn from(m: String) -> Self {
        CliError::Other(m)
    }
}

fn cmd_build(args: &[String]) -> Result<(), CliError> {
    let (shards, rest) = split_uint_flag(args, "--shards")?;
    let [input, output] = &rest[..] else {
        return Err(
            format!("build needs <graph.txt|graph.nt> <index.db> [--shards n]\n{USAGE}").into(),
        );
    };
    if shards == Some(0) {
        return Err("--shards must be at least 1".to_string().into());
    }
    let t = Instant::now();
    let db = RpqDatabase::from_graph_file(Path::new(input)).map_err(|e| e.to_string())?;
    let build_secs = t.elapsed().as_secs_f64();
    let (written, what) = match shards {
        // A sharded index is a directory: one mappable RRPQM01 file per
        // shard, bound by a checksummed RRPQSH01 manifest.
        Some(n) => (
            db.save_sharded(Path::new(output), n),
            format!("{output}/ (RRPQSH01, {n} shards, mappable)"),
        ),
        None => (
            db.save_mapped(Path::new(output)),
            format!("{output} (RRPQM01, mappable)"),
        ),
    };
    let bytes = written.map_err(|e| format!("writing {output}: {e}"))?;
    // Printed once the index is written: a closed stdout ends the verb.
    outln!(
        "indexed {} edges, {} nodes, {} predicates in {:.2}s",
        db.graph().len(),
        db.graph().n_nodes(),
        db.graph().n_preds(),
        build_secs
    );
    outln!(
        "index: {bytes} bytes ({:.2} bytes/edge) -> {what}",
        bytes as f64 / db.graph().len().max(1) as f64,
    );
    Ok(())
}

/// Strips `--mmap` / `--heap` from an argument list into an [`OpenMode`].
fn split_residency(args: &[String]) -> Result<(OpenMode, Vec<String>), CliError> {
    let (mmap, rest) = split_flag(args, "--mmap");
    let (heap, rest) = split_flag(&rest, "--heap");
    if mmap && heap {
        return Err("--mmap and --heap are mutually exclusive"
            .to_string()
            .into());
    }
    let mode = if mmap {
        OpenMode::Mmap
    } else if heap {
        OpenMode::Heap
    } else {
        OpenMode::Auto
    };
    Ok((mode, rest))
}

fn load_as(path: &str, mode: OpenMode) -> Result<RpqDatabase, CliError> {
    RpqDatabase::open_with(Path::new(path), mode)
        .map_err(|e| CliError::Other(format!("loading {path}: {e}")))
}

fn load(path: &str) -> Result<RpqDatabase, CliError> {
    load_as(path, OpenMode::Auto)
}

fn load_updatable(path: &str) -> Result<UpdatableDatabase, CliError> {
    // Durably: orphaned temp files from an interrupted save are cleaned
    // up, the `<path>.wal` log is recovered (replaying commits a crash
    // kept from reaching the snapshot), and subsequent commits are
    // write-ahead logged.
    UpdatableDatabase::open_durable(Path::new(path))
        .map_err(|e| CliError::Other(format!("loading {path}: {e}")))
}

/// `insert`/`delete`: apply a delta file to a persisted database in one
/// committed batch, auto-compacting on the size-ratio trigger, and save
/// the result back.
fn cmd_update(args: &[String], is_insert: bool) -> Result<(), CliError> {
    let verb = if is_insert { "insert" } else { "delete" };
    let [index, delta_file] = args else {
        return Err(format!("{verb} needs <index.db> <delta.txt|.nt>\n{USAGE}").into());
    };
    let db = load_updatable(index)?;
    let text = std::fs::read_to_string(delta_file)
        .map_err(|e| CliError::Other(format!("reading {delta_file}: {e}")))?;
    let nt = Path::new(delta_file)
        .extension()
        .is_some_and(|x| x.eq_ignore_ascii_case("nt"));
    let n = match (nt, is_insert) {
        (true, true) => db.insert_ntriples(&text),
        (true, false) => db.delete_ntriples(&text),
        (false, true) => db.insert_text(&text),
        (false, false) => db.delete_text(&text),
    }
    .map_err(|e| CliError::Other(e.to_string()))?;
    let epoch = db.commit();
    let stats = db.stats();
    db.save(Path::new(index))
        .map_err(|e| format!("writing {index}: {e}"))?;
    outln!(
        "{verb}: {n} triples committed at epoch {epoch} (delta: +{} -{}; compactions: {})",
        stats.delta_adds,
        stats.delta_deletes,
        stats.compactions
    );
    Ok(())
}

/// `compact`: rebuild the ring from ring + delta and persist the result.
fn cmd_compact(args: &[String]) -> Result<(), CliError> {
    let [index] = args else {
        return Err(format!("compact needs <index.db>\n{USAGE}").into());
    };
    let db = load_updatable(index)?;
    let before = db.stats();
    let t = Instant::now();
    let epoch = db.compact();
    let secs = t.elapsed().as_secs_f64();
    db.save(Path::new(index))
        .map_err(|e| format!("writing {index}: {e}"))?;
    outln!(
        "compacted {} adds and {} deletes into the ring in {secs:.2}s (epoch {epoch})",
        before.delta_adds,
        before.delta_deletes
    );
    Ok(())
}

fn cmd_query(args: &[String]) -> Result<(), CliError> {
    let (explain_only, rest): (bool, Vec<String>) = split_flag(args, "--explain");
    let (profile, rest) = split_flag(&rest, "--profile");
    let (mode, rest) = split_residency(&rest)?;
    let [index, s, expr, o] = &rest[..] else {
        return Err(format!(
            "query needs <index.db> <s> <expr> <o> [--explain] [--profile] [--mmap|--heap]\n{USAGE}"
        )
        .into());
    };
    let db = load_as(index, mode)?;
    let mut stdout = std::io::stdout().lock();
    if explain_only {
        let plan = db.explain_plan(s, expr, o)?;
        return writeln!(stdout, "{}", plan.to_json()).map_err(output_error);
    }
    let opts = EngineOptions {
        timeout: Some(Duration::from_secs(60)),
        profile,
        ..EngineOptions::default()
    };
    let t = Instant::now();
    let out = db.query_with(s, expr, o, &opts)?;
    let secs = t.elapsed().as_secs_f64();
    // Deterministic output: sorted, distinct rows (stable across engines,
    // so cross-engine diffs are byte-identical), as `serve` prints them.
    let named = name_pairs(&db, &out.pairs);
    for (a, b) in &named {
        writeln!(stdout, "{a}\t{b}").map_err(output_error)?;
    }
    let batching = if out.stats.rank_ops_saved > 0 {
        format!(
            " (rank ops {} + {} saved by batching)",
            out.stats.rank_ops, out.stats.rank_ops_saved
        )
    } else {
        String::new()
    };
    eprintln!(
        "{} pairs in {:.4}s{}{}{}",
        named.len(),
        secs,
        if out.truncated { " (limit hit)" } else { "" },
        if out.timed_out { " (timed out)" } else { "" },
        batching,
    );
    // The profile is the final stdout line (a lone JSON object), so
    // scripts can split rows from profile with a '^{' match.
    if let Some(p) = &out.profile {
        writeln!(stdout, "{}", p.to_json()).map_err(output_error)?;
    }
    Ok(())
}

fn cmd_explain(args: &[String]) -> Result<(), CliError> {
    let [index, s, expr, o] = args else {
        return Err(format!("explain needs <index.db> <s> <expr> <o>\n{USAGE}").into());
    };
    out!("{}", load(index)?.explain(s, expr, o)?);
    Ok(())
}

/// Strips a boolean flag from an argument list, reporting whether it was
/// present.
fn split_flag(args: &[String], flag: &str) -> (bool, Vec<String>) {
    let rest: Vec<String> = args.iter().filter(|a| *a != flag).cloned().collect();
    (rest.len() != args.len(), rest)
}

/// Extracts a `<flag> <n>` pair from an argument list, returning the
/// parsed value (if present) and the remaining arguments.
fn split_uint_flag(args: &[String], flag: &str) -> Result<(Option<usize>, Vec<String>), CliError> {
    let mut value = None;
    let mut rest = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == flag {
            let v = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            value = Some(v.parse().map_err(|_| format!("bad {flag} value '{v}'"))?);
        } else {
            rest.push(a.clone());
        }
    }
    Ok((value, rest))
}

/// Options shared by `serve` and `batch`.
struct ServeOpts {
    positional: Vec<String>,
    workers: Option<usize>,
    metrics: Option<String>,
    explain: bool,
    profile: bool,
    slow_log: Option<usize>,
    slow_ms: Option<u64>,
    mode: OpenMode,
}

fn parse_serve_opts(args: &[String]) -> Result<ServeOpts, CliError> {
    let (mode, args) = split_residency(args)?;
    let mut opts = ServeOpts {
        positional: Vec::new(),
        workers: None,
        metrics: None,
        explain: false,
        profile: false,
        slow_log: None,
        slow_ms: None,
        mode,
    };
    let mut it = args.iter();
    let value = |flag: &str, it: &mut std::slice::Iter<'_, String>| -> Result<String, CliError> {
        it.next()
            .cloned()
            .ok_or_else(|| CliError::Other(format!("{flag} needs a value")))
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--explain" => opts.explain = true,
            "--profile" => opts.profile = true,
            "--workers" => {
                let v = value("--workers", &mut it)?;
                opts.workers = Some(
                    v.parse()
                        .map_err(|_| format!("bad --workers value '{v}'"))?,
                );
            }
            "--slow-log" => {
                let v = value("--slow-log", &mut it)?;
                opts.slow_log = Some(
                    v.parse()
                        .map_err(|_| format!("bad --slow-log value '{v}'"))?,
                );
            }
            "--slow-ms" => {
                let v = value("--slow-ms", &mut it)?;
                opts.slow_ms = Some(
                    v.parse()
                        .map_err(|_| format!("bad --slow-ms value '{v}'"))?,
                );
            }
            "--metrics" => {
                opts.metrics = Some(value("--metrics", &mut it)?);
            }
            _ => opts.positional.push(a.clone()),
        }
    }
    Ok(opts)
}

fn start_server(index: &str, opts: &ServeOpts) -> Result<RpqServer, CliError> {
    let db = load_as(index, opts.mode)?;
    let mut config = ServerConfig::default();
    if let Some(w) = opts.workers {
        config.workers = w.max(1);
    }
    config.profile = opts.profile;
    if let Some(n) = opts.slow_log {
        config.slow_log_capacity = n;
    }
    if let Some(ms) = opts.slow_ms {
        config.slow_log_threshold = Duration::from_millis(ms);
    }
    db.into_server(config)
        .map_err(|e| CliError::Other(e.to_string()))
}

/// Drives one server session: submits every query line (backpressure by
/// draining the oldest pending result when the queue is full). *Answer*
/// blocks print in submission order — sorted, distinct rows per query —
/// but a line that fails synchronously (malformed fields, parse error,
/// unknown node) prints its `# error` block immediately, possibly ahead
/// of earlier queries still in flight; every block is labelled
/// `# query N`, so association is unambiguous either way. A closed
/// stdout ends the session as the end of its input does.
fn run_session(
    server: &RpqServer,
    input: impl BufRead,
    out: &mut impl Write,
    show_profile: bool,
) -> Result<(usize, usize), CliError> {
    let mut counts = (0, 0);
    match session(server, input, out, show_profile, &mut counts) {
        Ok(()) | Err(CliError::Closed) => Ok(counts),
        Err(e) => Err(e),
    }
}

/// [`run_session`]'s loop, counting the queries it submits and those
/// that fail into `(submitted, errors)`.
fn session(
    server: &RpqServer,
    input: impl BufRead,
    out: &mut impl Write,
    show_profile: bool,
    (submitted, errors): &mut (usize, usize),
) -> Result<(), CliError> {
    let mut pending: VecDeque<(usize, String, ring_rpq::rpq_server::QueryTicket)> = VecDeque::new();
    for line in input.lines() {
        let line = line.map_err(|e| format!("reading queries: {e}"))?;
        let text = line.trim();
        if text.is_empty() || text.starts_with('#') {
            continue;
        }
        // Session meta-commands: snapshot requests interleaved with
        // queries. In-flight answers flush first, so the snapshot covers
        // everything submitted above it.
        if text == ".drain" {
            while let Some(entry) = pending.pop_front() {
                *errors += flush_one(server, entry, out, show_profile)?;
            }
            let report = server.drain(Duration::from_secs(30));
            writeln!(
                out,
                "{{\"drained\":{},\"aborted\":{},\"checkpoint_epoch\":{},\"checkpoint_error\":{}}}",
                report.drained,
                report.aborted,
                report
                    .checkpoint_epoch
                    .map_or_else(|| "null".to_string(), |e| e.to_string()),
                report
                    .checkpoint_error
                    .as_deref()
                    .map_or_else(|| "null".to_string(), rpq_core::jsonw::quoted),
            )
            .map_err(output_error)?;
            // The server rejects everything after a drain; end the
            // session rather than erroring the rest of the input.
            break;
        }
        if matches!(text, ".metrics" | ".prometheus" | ".slow") {
            while let Some(entry) = pending.pop_front() {
                *errors += flush_one(server, entry, out, show_profile)?;
            }
            match text {
                ".metrics" => writeln!(out, "{}", server.metrics_json()),
                ".prometheus" => write!(out, "{}", server.prometheus_metrics()),
                ".slow" => writeln!(out, "{}", server.slow_queries_json()),
                _ => unreachable!(),
            }
            .map_err(output_error)?;
            continue;
        }
        *submitted += 1;
        let n = *submitted;
        let tokens: Vec<&str> = text.split_whitespace().collect();
        let [s, expr, o] = tokens[..] else {
            writeln!(out, "# query {n}: {text}").map_err(output_error)?;
            writeln!(
                out,
                "# error: expected 3 fields 's expr o', got {}",
                tokens.len()
            )
            .map_err(output_error)?;
            *errors += 1;
            continue;
        };
        loop {
            match server.submit(s, expr, o) {
                Ok(ticket) => {
                    pending.push_back((n, text.to_string(), ticket));
                    break;
                }
                Err(RpqError::Overloaded { .. }) => {
                    // Backpressure: finish the oldest in-flight query
                    // before retrying.
                    match pending.pop_front() {
                        Some(entry) => *errors += flush_one(server, entry, out, show_profile)?,
                        None => std::thread::sleep(Duration::from_millis(1)),
                    }
                }
                Err(e) => {
                    writeln!(out, "# query {n}: {text}").map_err(output_error)?;
                    writeln!(out, "# error: {e}").map_err(output_error)?;
                    *errors += 1;
                    break;
                }
            }
        }
    }
    while let Some(entry) = pending.pop_front() {
        *errors += flush_one(server, entry, out, show_profile)?;
    }
    Ok(())
}

/// Waits for one pending query and prints its block; returns 1 if it
/// failed, 0 otherwise.
fn flush_one(
    server: &RpqServer,
    (n, text, ticket): (usize, String, ring_rpq::rpq_server::QueryTicket),
    out: &mut impl Write,
    show_profile: bool,
) -> Result<usize, CliError> {
    writeln!(out, "# query {n}: {text}").map_err(output_error)?;
    match server.wait(&ticket) {
        Ok(answer) => {
            // Sorted, distinct rows by name, as `rpq-cli query` prints.
            for (s, o) in server.resolve_pairs(&answer) {
                writeln!(out, "{s}\t{o}").map_err(output_error)?;
            }
            writeln!(
                out,
                "# {} pairs{}{}",
                answer.pairs.len(),
                if answer.truncated { " (limit hit)" } else { "" },
                if answer.timed_out { " (timed out)" } else { "" },
            )
            .map_err(output_error)?;
            if show_profile {
                if let Some(p) = &answer.profile {
                    writeln!(out, "# profile: {}", p.to_json()).map_err(output_error)?;
                }
            }
            Ok(0)
        }
        Err(e) => {
            writeln!(out, "# error: {e}").map_err(output_error)?;
            Ok(1)
        }
    }
}

fn emit_metrics(server: &RpqServer, target: Option<&str>) -> Result<(), CliError> {
    let json = server.metrics_json();
    match target {
        None => {}
        Some("-") => eprintln!("{json}"),
        Some(path) => std::fs::write(path, json + "\n")
            .map_err(|e| CliError::Other(format!("writing {path}: {e}")))?,
    }
    Ok(())
}

fn cmd_serve(args: &[String]) -> Result<(), CliError> {
    let opts = parse_serve_opts(args)?;
    let [index] = &opts.positional[..] else {
        return Err(
            format!("serve needs <index.db> [--workers n] [--metrics file]\n{USAGE}").into(),
        );
    };
    let server = start_server(index, &opts)?;
    let stdin = std::io::stdin();
    let mut stdout = std::io::stdout().lock();
    let (submitted, errors) = run_session(&server, stdin.lock(), &mut stdout, opts.profile)?;
    stdout.flush().ok();
    eprintln!(
        "served {submitted} queries ({} ok, {errors} failed)",
        submitted - errors
    );
    emit_metrics(&server, opts.metrics.as_deref())?;
    server.shutdown();
    Ok(())
}

fn cmd_batch(args: &[String]) -> Result<(), CliError> {
    let opts = parse_serve_opts(args)?;
    let [index, queries] = &opts.positional[..] else {
        return Err(format!(
            "batch needs <index.db> <queries.txt> [--explain] [--workers n] [--metrics file]\n{USAGE}"
        )
        .into());
    };
    let file = std::fs::File::open(queries)
        .map_err(|e| CliError::Other(format!("opening {queries}: {e}")))?;
    if opts.explain {
        return batch_explain(index, std::io::BufReader::new(file));
    }
    let server = start_server(index, &opts)?;
    let t = Instant::now();
    let mut stdout = std::io::stdout().lock();
    let (submitted, errors) = run_session(
        &server,
        std::io::BufReader::new(file),
        &mut stdout,
        opts.profile,
    )?;
    stdout.flush().ok();
    let secs = t.elapsed().as_secs_f64();
    eprintln!(
        "batch: {submitted} queries ({} ok, {errors} failed) in {secs:.3}s ({:.0} q/s)",
        submitted - errors,
        submitted as f64 / secs.max(1e-9)
    );
    emit_metrics(&server, opts.metrics.as_deref())?;
    server.shutdown();
    Ok(())
}

/// `batch --explain`: plan every query without evaluating — one stable
/// JSON object per query line (parse failures become `{"error":...}`
/// objects in place, so line N of the output always describes query N).
fn batch_explain(index: &str, input: impl BufRead) -> Result<(), CliError> {
    let db = load(index)?;
    let mut stdout = std::io::stdout().lock();
    for line in input.lines() {
        let line = line.map_err(|e| format!("reading queries: {e}"))?;
        let text = line.trim();
        if text.is_empty() || text.starts_with('#') {
            continue;
        }
        let tokens: Vec<&str> = text.split_whitespace().collect();
        let [s, expr, o] = tokens[..] else {
            writeln!(
                stdout,
                "{{\"error\":\"expected 3 fields 's expr o', got {}\"}}",
                tokens.len()
            )
            .map_err(output_error)?;
            continue;
        };
        match db.explain_plan(s, expr, o) {
            Ok(plan) => writeln!(stdout, "{}", plan.to_json()),
            Err(e) => writeln!(
                stdout,
                "{{\"error\":{}}}",
                rpq_core::jsonw::quoted(&e.to_string())
            ),
        }
        .map_err(output_error)?;
    }
    Ok(())
}

fn cmd_stats(args: &[String]) -> Result<(), CliError> {
    let (mode, rest) = split_residency(args)?;
    let [index] = &rest[..] else {
        return Err(format!("stats needs <index.db> [--mmap|--heap]\n{USAGE}").into());
    };
    let db = load_as(index, mode)?;
    let info = db.open_info();
    outln!(
        "open:                {} us ({}, {} mapped bytes)",
        info.open_us,
        info.resident.as_str(),
        info.mapped_bytes
    );
    // Which copies of the batched rank kernels this CPU runs: a speed gap
    // between two hosts may be this line.
    let popcount = if ring_rpq::succinct::hardware_popcount() {
        "hardware (popcnt, detected at run time)"
    } else {
        "portable"
    };
    let gather = if ring_rpq::succinct::hardware_gather() {
        "avx512 (detected at run time)"
    } else {
        "portable"
    };
    outln!("kernels:             popcount: {popcount}, gather: {gather}");
    // Sharded indexes aggregate across every shard (the per-shard
    // breakdown shows skew); a single ring reports itself.
    let shard_rows = if db.is_sharded() {
        use ring_rpq::rpq_server::QuerySource;
        db.shard_stats().unwrap_or_default()
    } else {
        Vec::new()
    };
    if !shard_rows.is_empty() {
        outln!("shards:              {}", shard_rows.len());
        for (i, s) in shard_rows.iter().enumerate() {
            outln!(
                "  shard {i:<3}          {} triples, {} bytes",
                s.triples,
                s.bytes
            );
        }
    }
    let g = db.graph();
    let r = db.ring();
    let (indexed, ring_bytes) = if shard_rows.is_empty() {
        (r.n_triples(), r.size_bytes())
    } else {
        (
            shard_rows.iter().map(|s| s.triples).sum(),
            shard_rows.iter().map(|s| s.bytes).sum(),
        )
    };
    outln!("edges (base):        {}", g.len());
    outln!("edges (indexed G^):  {indexed}");
    outln!("nodes:               {}", g.n_nodes());
    outln!("predicates (base):   {}", g.n_preds());
    outln!("ring bytes:          {ring_bytes}");
    outln!(
        "ring bytes/edge:     {:.2}",
        ring_bytes as f64 / g.len().max(1) as f64
    );
    let table =
        section_table(Path::new(index), &db).map_err(|e| format!("reading {index}: {e}"))?;
    out!("{table}");
    // Top predicates by cardinality — the selectivity the planner uses.
    // For a sharded index the base graph (the shards' exact union) is
    // counted directly; per-shard `pred_cardinality` would need summing
    // anyway.
    let mut cards: Vec<(u64, usize)> = if shard_rows.is_empty() {
        (0..g.n_preds())
            .map(|p| (p, r.pred_cardinality(p)))
            .collect()
    } else {
        let mut counts = vec![0usize; g.n_preds() as usize];
        for t in g.triples() {
            counts[t.p as usize] += 1;
        }
        counts
            .into_iter()
            .enumerate()
            .map(|(p, c)| (p as u64, c))
            .collect()
    };
    cards.sort_by_key(|&(_, c)| std::cmp::Reverse(c));
    outln!("top predicates:");
    for &(p, c) in cards.iter().take(5) {
        outln!("  {:<24} {c} edges", db.preds().name(p));
    }
    Ok(())
}

/// The paper's ring on Wikidata, all three columns (§5), in bytes per
/// triple: the figure the space line of `stats` sets the index against.
const PAPER_RING_BYTES_PER_TRIPLE: f64 = 16.41;

/// The space table of an index, from the files' own tables of contents:
/// one line per `RRPQM01` section, bytes and bytes per base triple — of a
/// sharded directory, summed over the shards and then shard by shard —
/// and then the whole index against the adjacency lists the baselines
/// share and against the paper's ring.
fn section_table(index: &Path, db: &RpqDatabase) -> std::io::Result<String> {
    use ring_rpq::ring::{mapped, sharded};
    use std::fmt::Write as _;
    let files: Vec<std::path::PathBuf> = if db.is_sharded() {
        (0..db.n_shards())
            .map(|i| index.join(sharded::shard_file_name(i)))
            .collect()
    } else {
        vec![index.to_path_buf()]
    };
    let edges = db.graph().len().max(1) as f64;
    let row = |out: &mut String, name: &str, bytes: u64| {
        let _ = writeln!(
            out,
            "  {name:<18} {bytes:>12} {:>7.2} B/edge",
            bytes as f64 / edges
        );
    };
    // `total` is the bytes on disk: the sections below, the five words of
    // META and the headers.
    let table =
        |out: &mut String, title: &str, lens: &[u64; mapped::N_SECTIONS], total: (&str, u64)| {
            let _ = writeln!(out, "sections, {title}:");
            for (name, &bytes) in mapped::SECTION_NAMES.iter().zip(lens).skip(1) {
                row(out, name, bytes);
            }
            row(out, total.0, total.1);
        };
    let mut out = String::new();
    let mut summed = [0u64; mapped::N_SECTIONS];
    let mut per_file = Vec::with_capacity(files.len());
    for file in &files {
        let lens = mapped::section_lens(file)?;
        for (sum, len) in summed.iter_mut().zip(lens) {
            *sum += len;
        }
        per_file.push((lens, std::fs::metadata(file)?.len()));
    }
    let on_disk = if db.is_sharded() {
        let manifest = std::fs::metadata(index.join(sharded::MANIFEST_FILE))?.len();
        let all = per_file.iter().map(|&(_, bytes)| bytes).sum::<u64>() + manifest;
        table(
            &mut out,
            &format!("all {} shards", files.len()),
            &summed,
            ("files + MANIFEST", all),
        );
        for (i, (lens, bytes)) in per_file.iter().enumerate() {
            table(&mut out, &format!("shard {i}"), lens, ("file", *bytes));
        }
        all
    } else {
        table(&mut out, "RRPQM01", &summed, ("file", per_file[0].1));
        per_file[0].1
    };
    let adjacency = ring_rpq::baselines::AdjacencyIndex::from_graph(db.graph()).size_bytes();
    let _ = writeln!(
        out,
        "space, B/edge:       {:.2} this index, {:.2} adjacency baseline, \
         {PAPER_RING_BYTES_PER_TRIPLE:.2} the paper's ring",
        on_disk as f64 / edges,
        adjacency as f64 / edges,
    );
    Ok(out)
}

/// `verify`: deep-check an index file without modifying it — header,
/// per-section checksums, cross-component consistency
/// (dictionary/alphabet/universe invariants), and the write-ahead-log
/// tail when a `<index>.wal` sibling exists. Prints a one-line JSON report
/// to stdout; exits 0 when healthy, 2 when corrupt or in a format this
/// build no longer reads.
fn cmd_verify(args: &[String]) -> Result<(), CliError> {
    let [index] = args else {
        return Err(format!("verify needs <index.db>\n{USAGE}").into());
    };
    let path = Path::new(index);
    if path.is_dir() {
        return verify_sharded_dir(index, path);
    }
    // The verdict's exit code stands whether or not anyone reads the
    // report.
    let report = |status: &str, stage: &str, err: String| -> Result<(), CliError> {
        let _ = writeln!(
            std::io::stdout(),
            "{{\"path\":{},\"status\":{},\"stage\":{},\"error\":{}}}",
            rpq_core::jsonw::quoted(index),
            rpq_core::jsonw::quoted(status),
            rpq_core::jsonw::quoted(stage),
            rpq_core::jsonw::quoted(&err),
        );
        Err(CliError::Parse(format!(
            "{index} failed verification ({stage}): {err}"
        )))
    };
    let fail = |stage: &str, err: String| report("corrupt", stage, err);
    if let Err(e) = std::fs::metadata(path) {
        return Err(CliError::Other(format!("opening {index}: {e}")));
    }
    // A heap open reads every byte: the header, every section against its
    // CRC32C, then the cross-component checks.
    let epoch = match ring_rpq::ring::mapped::open_index(path, OpenMode::Heap) {
        Ok(idx) => idx.epoch,
        Err(e) if e.kind() == std::io::ErrorKind::Unsupported => {
            return report("unsupported", "header", e.to_string())
        }
        Err(e) => {
            let typed = ring_rpq::ring::durable::durability_error(&e).is_some();
            return fail(if typed { "checksums" } else { "structure" }, e.to_string());
        }
    };
    // The WAL beside the file, judged read-only by the rules a durable
    // open repairs by.
    let wal_path = UpdatableDatabase::wal_path(path);
    let wal_json = match WalState::judge(&wal_path, epoch) {
        Err(e) => return fail("wal", e.to_string()),
        Ok(WalState::AheadOfSnapshot { base_epoch }) => {
            return fail(
                "wal",
                format!("WAL base epoch {base_epoch} is ahead of snapshot epoch {epoch}"),
            )
        }
        Ok(WalState::Absent) => "null".to_string(),
        Ok(WalState::TornRotation { bytes }) => {
            format!("{{\"torn_rotation\":true,\"bytes\":{bytes}}}")
        }
        // What a durable open replays: the batches past the snapshot.
        Ok(WalState::Log(rec)) => format!(
            "{{\"base_epoch\":{},\"batches\":{},\"ops\":{},\"torn_bytes\":{}}}",
            rec.base_epoch,
            rec.batches_past(epoch).count(),
            rec.batches_past(epoch).map(|b| b.ops.len()).sum::<usize>(),
            rec.truncated_bytes
        ),
    };
    // Temp files of an interrupted save, counted: only the writer (a
    // durable open) removes them.
    let orphans = ring_rpq::ring::durable::orphans(path).len();
    outln!(
        "{{\"path\":{},\"format\":\"RRPQM01\",\"status\":\"ok\",\"checksummed\":true,\
         \"checksum_sections\":{},\"epoch\":{epoch},\"wal\":{wal_json},\"orphan_tmp\":{orphans}}}",
        rpq_core::jsonw::quoted(index),
        ring_rpq::ring::mapped::N_SECTIONS,
    );
    Ok(())
}

/// `verify` on a sharded index directory: the RRPQSH01 manifest is read
/// (CRC footer verified) and cross-checked against every shard file,
/// whose RRPQM01 section checksums a heap open validates — every payload
/// byte is read once. Same report/exit-code contract as the
/// single-file path.
fn verify_sharded_dir(index: &str, dir: &Path) -> Result<(), CliError> {
    let fail = |stage: &str, err: String| -> Result<(), CliError> {
        let _ = writeln!(
            std::io::stdout(),
            "{{\"path\":{},\"format\":\"RRPQSH01\",\"status\":\"corrupt\",\"stage\":{},\"error\":{}}}",
            rpq_core::jsonw::quoted(index),
            rpq_core::jsonw::quoted(stage),
            rpq_core::jsonw::quoted(&err),
        );
        Err(CliError::Parse(format!(
            "{index} failed verification ({stage}): {err}"
        )))
    };
    if !ring_rpq::ring::sharded::is_sharded_dir(dir) {
        return fail(
            "header",
            "directory has no RRPQSH01 manifest (not a sharded index)".to_string(),
        );
    }
    // Manifest integrity, every shard's section checksums (a heap open
    // reads every byte), and the per-shard cross-checks (triple counts and
    // universes against the manifest). A checksum error names its shard.
    let n_shards = match ring_rpq::ring::sharded::open_dir(dir, OpenMode::Heap) {
        Ok(opened) => opened.rings.len(),
        Err(e) => {
            use ring_rpq::ring::durable::{durability_error, DurabilityError};
            let shard = match durability_error(&e) {
                Some(DurabilityError::ChecksumMismatch { context, .. }) => {
                    context.split_once(':').map(|(shard, _)| shard)
                }
                _ => None,
            };
            return match shard {
                Some(shard) => fail(&format!("{shard} checksums"), e.to_string()),
                None => fail("manifest", e.to_string()),
            };
        }
    };
    let sections = n_shards * ring_rpq::ring::mapped::N_SECTIONS;
    // Informational: what an interrupted save stranded (the next save
    // sweeps it) and whatever else the manifest does not name.
    let unnamed = ring_rpq::ring::sharded::unnamed_files(dir, n_shards);
    outln!(
        "{{\"path\":{},\"format\":\"RRPQSH01\",\"status\":\"ok\",\"checksummed\":true,\
         \"checksum_sections\":{sections},\"shards\":{n_shards},\"epoch\":null,\"wal\":null,\
         \"orphan_tmp\":{},\"stale_files\":{}}}",
        rpq_core::jsonw::quoted(index),
        unnamed.orphan_tmps.len(),
        unnamed.stale.len(),
    );
    Ok(())
}

fn cmd_bench(args: &[String]) -> Result<(), CliError> {
    let (mode, rest) = split_residency(args)?;
    let (core, n) = match rest.len() {
        4 => (&rest[..4], 10usize),
        5 => (
            &rest[..4],
            rest[4]
                .parse()
                .map_err(|_| CliError::Other("bad repeat count".into()))?,
        ),
        _ => {
            return Err(format!(
                "bench needs <index.db> <s> <expr> <o> [n] [--mmap|--heap]\n{USAGE}"
            )
            .into())
        }
    };
    let [index, s, expr, o] = core else {
        unreachable!()
    };
    let db = load_as(index, mode)?;
    let opts = EngineOptions::default();
    let us = |t: Instant| t.elapsed().as_secs_f64() * 1e6;
    let mut times = Vec::with_capacity(n);
    let mut pairs = 0usize;
    for _ in 0..n {
        let t = Instant::now();
        let out = db.query_with(s, expr, o, &opts)?;
        times.push(us(t));
        pairs = out.pairs.len();
    }
    times.sort_by(f64::total_cmp);
    outln!(
        "{} pairs; {} runs: min {:.2} µs median {:.2} µs max {:.2} µs",
        pairs,
        n,
        times[0],
        times[times.len() / 2],
        times[times.len() - 1]
    );
    // The same query again, one public call per phase, over one engine
    // (so its working memory is reused as the database's pool reuses
    // it): the fastest time of each phase over n runs.
    let snapshot = db.snapshot();
    let ring = snapshot.ring();
    let stats = RingStatistics::with_parts(ring, snapshot.delta(), snapshot.shard_parts());
    let mut engine = RpqEngine::over(&snapshot);
    let mut fastest = [f64::INFINITY; 4];
    for _ in 0..n {
        let t = Instant::now();
        let q = db.parse_query(s, expr, o)?;
        let resolve = us(t);
        let t = Instant::now();
        let inv = |l| ring.inverse_label(l);
        let prepared = PreparedQuery::compile(&q.expr, &inv, opts.bp_split_width)
            .map_err(|e| CliError::Other(e.to_string()))?;
        let compile = us(t);
        let t = Instant::now();
        std::hint::black_box(planner::plan(&stats, &prepared, q.subject, q.object, &opts));
        let plan = us(t);
        let t = Instant::now();
        let out = engine.evaluate_prepared(&prepared, q.subject, q.object, &opts);
        let plan_exec = us(t);
        out.map_err(|e| CliError::Other(e.to_string()))?;
        for (best, now) in fastest.iter_mut().zip([resolve, compile, plan, plan_exec]) {
            *best = best.min(now);
        }
    }
    let [resolve, compile, plan, plan_exec] = fastest;
    outln!(
        "fastest of {n}: resolve {resolve:.2} µs, compile {compile:.2} µs, \
         plan+exec {plan_exec:.2} µs (plan alone {plan:.2} µs)"
    );
    Ok(())
}
