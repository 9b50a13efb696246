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
use ring_rpq::rpq_server::{RpqError, RpqServer, ServerConfig};
use ring_rpq::{DbError, RpqDatabase, UpdatableDatabase};
use rpq_core::EngineOptions;
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
        Ok(()) => ExitCode::SUCCESS,
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
  --threads <n>    threads a single query may fan its frontier across
                   (default 1; answers are identical at any value)
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
/// errors, unknown nodes) exit 2; everything else exits 1.
enum CliError {
    Parse(String),
    Other(String),
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
    println!(
        "indexed {} edges, {} nodes, {} predicates in {:.2}s",
        db.graph().len(),
        db.graph().n_nodes(),
        db.graph().n_preds(),
        build_secs
    );
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
    println!(
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
    println!(
        "{verb}: {n} triples committed at epoch {epoch} (delta: +{} -{}; compactions: {})",
        stats.delta_adds, stats.delta_deletes, stats.compactions
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
    println!(
        "compacted {} adds and {} deletes into the ring in {secs:.2}s (epoch {epoch})",
        before.delta_adds, before.delta_deletes
    );
    Ok(())
}

fn cmd_query(args: &[String]) -> Result<(), CliError> {
    let (explain_only, rest): (bool, Vec<String>) = split_flag(args, "--explain");
    let (profile, rest) = split_flag(&rest, "--profile");
    let (threads, rest) = split_threads_flag(&rest)?;
    let (mode, rest) = split_residency(&rest)?;
    let [index, s, expr, o] = &rest[..] else {
        return Err(format!(
            "query needs <index.db> <s> <expr> <o> [--explain] [--profile] [--threads n] [--mmap|--heap]\n{USAGE}"
        )
        .into());
    };
    let db = load_as(index, mode)?;
    if explain_only {
        let plan = db.explain_plan(s, expr, o)?;
        println!("{}", plan.to_json());
        return Ok(());
    }
    let opts = EngineOptions {
        timeout: Some(Duration::from_secs(60)),
        intra_query_threads: threads.unwrap_or(1).max(1),
        profile,
        ..EngineOptions::default()
    };
    let t = Instant::now();
    let out = db.query_with(s, expr, o, &opts)?;
    let secs = t.elapsed().as_secs_f64();
    let mut named: Vec<(String, String)> = out
        .pairs
        .iter()
        .map(|&(a, b)| {
            (
                db.nodes().name(a).to_string(),
                db.nodes().name(b).to_string(),
            )
        })
        .collect();
    // Deterministic output: sorted, distinct rows (stable across engines
    // and thread counts, so cross-engine diffs are byte-identical).
    named.sort();
    named.dedup();
    for (a, b) in &named {
        println!("{a}\t{b}");
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
        println!("{}", p.to_json());
    }
    Ok(())
}

fn cmd_explain(args: &[String]) -> Result<(), CliError> {
    let [index, s, expr, o] = args else {
        return Err(format!("explain needs <index.db> <s> <expr> <o>\n{USAGE}").into());
    };
    print!("{}", load(index)?.explain(s, expr, o)?);
    Ok(())
}

/// Strips a boolean flag from an argument list, reporting whether it was
/// present.
fn split_flag(args: &[String], flag: &str) -> (bool, Vec<String>) {
    let rest: Vec<String> = args.iter().filter(|a| *a != flag).cloned().collect();
    (rest.len() != args.len(), rest)
}

/// Extracts `--threads <n>` from an argument list, returning it and the
/// remaining arguments.
fn split_threads_flag(args: &[String]) -> Result<(Option<usize>, Vec<String>), CliError> {
    split_uint_flag(args, "--threads")
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
    threads: Option<usize>,
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
        threads: None,
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
            "--threads" => {
                let v = value("--threads", &mut it)?;
                opts.threads = Some(
                    v.parse()
                        .map_err(|_| format!("bad --threads value '{v}'"))?,
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
    if let Some(t) = opts.threads {
        config.intra_query_threads = t.max(1);
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
/// `# query N`, so association is unambiguous either way.
fn run_session(
    server: &RpqServer,
    input: impl BufRead,
    out: &mut impl Write,
    show_profile: bool,
) -> Result<(usize, usize), CliError> {
    let mut pending: VecDeque<(usize, String, ring_rpq::rpq_server::QueryTicket)> = VecDeque::new();
    let mut submitted = 0usize;
    let mut errors = 0usize;
    let echo = |e: &std::io::Error| CliError::Other(format!("writing output: {e}"));
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
                errors += flush_one(server, entry, out, show_profile)?;
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
            .map_err(|e| echo(&e))?;
            // The server rejects everything after a drain; end the
            // session rather than erroring the rest of the input.
            break;
        }
        if matches!(text, ".metrics" | ".prometheus" | ".slow") {
            while let Some(entry) = pending.pop_front() {
                errors += flush_one(server, entry, out, show_profile)?;
            }
            match text {
                ".metrics" => writeln!(out, "{}", server.metrics_json()),
                ".prometheus" => write!(out, "{}", server.prometheus_metrics()),
                ".slow" => writeln!(out, "{}", server.slow_queries_json()),
                _ => unreachable!(),
            }
            .map_err(|e| echo(&e))?;
            continue;
        }
        submitted += 1;
        let n = submitted;
        let tokens: Vec<&str> = text.split_whitespace().collect();
        let [s, expr, o] = tokens[..] else {
            writeln!(out, "# query {n}: {text}").map_err(|e| echo(&e))?;
            writeln!(
                out,
                "# error: expected 3 fields 's expr o', got {}",
                tokens.len()
            )
            .map_err(|e| echo(&e))?;
            errors += 1;
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
                        Some(entry) => errors += flush_one(server, entry, out, show_profile)?,
                        None => std::thread::sleep(Duration::from_millis(1)),
                    }
                }
                Err(e) => {
                    writeln!(out, "# query {n}: {text}").map_err(|err| echo(&err))?;
                    writeln!(out, "# error: {e}").map_err(|err| echo(&err))?;
                    errors += 1;
                    break;
                }
            }
        }
    }
    while let Some(entry) = pending.pop_front() {
        errors += flush_one(server, entry, out, show_profile)?;
    }
    Ok((submitted, errors))
}

/// Waits for one pending query and prints its block; returns 1 if it
/// failed, 0 otherwise.
fn flush_one(
    server: &RpqServer,
    (n, text, ticket): (usize, String, ring_rpq::rpq_server::QueryTicket),
    out: &mut impl Write,
    show_profile: bool,
) -> Result<usize, CliError> {
    let echo = |e: std::io::Error| CliError::Other(format!("writing output: {e}"));
    writeln!(out, "# query {n}: {text}").map_err(echo)?;
    match server.wait(&ticket) {
        Ok(answer) => {
            // Deterministic rows: answers come id-sorted and distinct;
            // re-sort by name so output matches `rpq-cli query`.
            let mut named = server.resolve_pairs(&answer);
            named.sort();
            named.dedup();
            for (s, o) in named {
                writeln!(out, "{s}\t{o}").map_err(echo)?;
            }
            writeln!(
                out,
                "# {} pairs{}{}",
                answer.pairs.len(),
                if answer.truncated { " (limit hit)" } else { "" },
                if answer.timed_out { " (timed out)" } else { "" },
            )
            .map_err(echo)?;
            if show_profile {
                if let Some(p) = &answer.profile {
                    writeln!(out, "# profile: {}", p.to_json()).map_err(echo)?;
                }
            }
            Ok(0)
        }
        Err(e) => {
            writeln!(out, "# error: {e}").map_err(echo)?;
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
        return Err(format!(
            "serve needs <index.db> [--workers n] [--threads n] [--metrics file]\n{USAGE}"
        )
        .into());
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
            "batch needs <index.db> <queries.txt> [--explain] [--workers n] [--threads n] [--metrics file]\n{USAGE}"
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
    for line in input.lines() {
        let line = line.map_err(|e| format!("reading queries: {e}"))?;
        let text = line.trim();
        if text.is_empty() || text.starts_with('#') {
            continue;
        }
        let tokens: Vec<&str> = text.split_whitespace().collect();
        let [s, expr, o] = tokens[..] else {
            println!(
                "{{\"error\":\"expected 3 fields 's expr o', got {}\"}}",
                tokens.len()
            );
            continue;
        };
        match db.explain_plan(s, expr, o) {
            Ok(plan) => println!("{}", plan.to_json()),
            Err(e) => println!("{{\"error\":{}}}", rpq_core::jsonw::quoted(&e.to_string())),
        }
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
    println!(
        "open:                {} us ({}, {} mapped bytes)",
        info.open_us,
        info.resident.as_str(),
        info.mapped_bytes
    );
    // Sharded indexes aggregate across every shard (the per-shard
    // breakdown shows skew); a single ring reports itself.
    let shard_rows = if db.is_sharded() {
        use ring_rpq::rpq_server::QuerySource;
        db.shard_stats().unwrap_or_default()
    } else {
        Vec::new()
    };
    if !shard_rows.is_empty() {
        println!("shards:              {}", shard_rows.len());
        for (i, s) in shard_rows.iter().enumerate() {
            println!(
                "  shard {i:<3}          {} triples, {} bytes",
                s.triples, s.bytes
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
    println!("edges (base):        {}", g.len());
    println!("edges (indexed G^):  {indexed}");
    println!("nodes:               {}", g.n_nodes());
    println!("predicates (base):   {}", g.n_preds());
    println!("ring bytes:          {ring_bytes}");
    println!(
        "ring bytes/edge:     {:.2}",
        ring_bytes as f64 / g.len().max(1) as f64
    );
    print_section_table(Path::new(index), &db).map_err(|e| format!("reading {index}: {e}"))?;
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
    println!("top predicates:");
    for &(p, c) in cards.iter().take(5) {
        println!("  {:<24} {c} edges", db.preds().name(p));
    }
    Ok(())
}

/// The space table of an index, from the files' own tables of contents:
/// one line per `RRPQM01` section, bytes and bytes per base triple — of a
/// sharded directory, summed over the shards and then shard by shard.
fn print_section_table(index: &Path, db: &RpqDatabase) -> std::io::Result<()> {
    use ring_rpq::ring::{mapped, sharded};
    let files: Vec<std::path::PathBuf> = if db.is_sharded() {
        (0..db.n_shards())
            .map(|i| index.join(sharded::shard_file_name(i)))
            .collect()
    } else {
        vec![index.to_path_buf()]
    };
    let edges = db.graph().len().max(1) as f64;
    let row = |name: &str, bytes: u64, note: &str| {
        println!(
            "  {name:<18} {bytes:>12} {:>7.2} B/edge{note}",
            bytes as f64 / edges
        );
    };
    // `total` is the bytes on disk: the sections below, the five words of
    // META and the headers. `L_O` is the slot of a column no open reads:
    // what it holds beyond the empty matrix a save writes (one per file)
    // is an older file's dead weight.
    let table =
        |title: &str, lens: &[u64; mapped::N_SECTIONS], n_files: usize, total: (&str, u64)| {
            println!("sections, {title}:");
            for (name, &bytes) in mapped::SECTION_NAMES.iter().zip(lens).skip(1) {
                let unused = match *name {
                    "L_O" => bytes.saturating_sub(mapped::EMPTY_L_O_LEN * n_files as u64),
                    _ => 0,
                };
                let note = match unused {
                    0 => String::new(),
                    n => format!("  unused — rebuild to reclaim {n} bytes"),
                };
                row(name, bytes, &note);
            }
            row(total.0, total.1, "");
        };
    let mut summed = [0u64; mapped::N_SECTIONS];
    let mut per_file = Vec::with_capacity(files.len());
    for file in &files {
        let lens = mapped::section_lens(file)?;
        for (sum, len) in summed.iter_mut().zip(lens) {
            *sum += len;
        }
        per_file.push((lens, std::fs::metadata(file)?.len()));
    }
    if db.is_sharded() {
        let manifest = std::fs::metadata(index.join(sharded::MANIFEST_FILE))?.len();
        let all = per_file.iter().map(|&(_, bytes)| bytes).sum::<u64>() + manifest;
        table(
            &format!("all {} shards", files.len()),
            &summed,
            files.len(),
            ("files + MANIFEST", all),
        );
        for (i, (lens, bytes)) in per_file.iter().enumerate() {
            table(&format!("shard {i}"), lens, 1, ("file", *bytes));
        }
    } else {
        table("RRPQM01", &summed, 1, ("file", per_file[0].1));
    }
    Ok(())
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
    let report = |status: &str, stage: &str, err: String| -> Result<(), CliError> {
        println!(
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
    // WAL tail: parse-only (no truncation), committed batches counted,
    // and the base epoch must not be ahead of the snapshot.
    let wal_path = UpdatableDatabase::wal_path(path);
    let wal_len = std::fs::metadata(&wal_path).map(|m| m.len()).unwrap_or(0);
    let wal_json = if wal_path.exists() && wal_len < ring_rpq::ring::wal::WAL_HEADER_LEN {
        // A log shorter than its fsynced header is a create/rotate torn
        // mid-write: no committed op can live in it, and a durable open
        // recreates it — recoverable, not corrupt.
        format!("{{\"torn_rotation\":true,\"bytes\":{wal_len}}}")
    } else if wal_path.exists() {
        let rec = match ring_rpq::ring::wal::Wal::inspect(&wal_path) {
            Ok(rec) => rec,
            Err(e) => return fail("wal", e.to_string()),
        };
        if rec.base_epoch > epoch {
            return fail(
                "wal",
                format!(
                    "WAL base epoch {} is ahead of snapshot epoch {epoch}",
                    rec.base_epoch
                ),
            );
        }
        format!(
            "{{\"base_epoch\":{},\"batches\":{},\"ops\":{},\"torn_bytes\":{}}}",
            rec.base_epoch,
            rec.batches.len(),
            rec.op_count(),
            rec.truncated_bytes
        )
    } else {
        "null".to_string()
    };
    // Orphaned temp files from an interrupted save (informational —
    // opening the index durably would clean them up).
    let orphans = count_orphan_tmps(path);
    println!(
        "{{\"path\":{},\"format\":\"RRPQM01\",\"status\":\"ok\",\"checksummed\":true,\
         \"checksum_sections\":{},\"epoch\":{epoch},\"wal\":{wal_json},\"orphan_tmp\":{orphans}}}",
        rpq_core::jsonw::quoted(index),
        ring_rpq::ring::mapped::N_SECTIONS,
    );
    Ok(())
}

/// `verify` on a sharded index directory: the RRPQSH01 manifest is read
/// (CRC footer verified) and cross-checked against every shard file,
/// then each shard's RRPQM01 section checksums are validated — every
/// payload byte is touched. Same report/exit-code contract as the
/// single-file path.
fn verify_sharded_dir(index: &str, dir: &Path) -> Result<(), CliError> {
    let fail = |stage: &str, err: String| -> Result<(), CliError> {
        println!(
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
    // Manifest integrity + per-shard cross-checks (triple counts and
    // universes against the manifest).
    let n_shards = match ring_rpq::ring::sharded::open_dir(dir, OpenMode::Heap) {
        Ok(opened) => opened.rings.len(),
        Err(e) => return fail("manifest", e.to_string()),
    };
    for i in 0..n_shards {
        let shard = dir.join(ring_rpq::ring::sharded::shard_file_name(i));
        if let Err(e) = ring_rpq::ring::mapped::verify_index_checksums(&shard) {
            return fail(&format!("shard {i} checksums"), e.to_string());
        }
    }
    let sections = n_shards * ring_rpq::ring::mapped::N_SECTIONS;
    // Informational: what an interrupted save stranded (opening the
    // directory sweeps it) and whatever else the manifest does not name.
    let unnamed = ring_rpq::ring::sharded::unnamed_files(dir, n_shards);
    println!(
        "{{\"path\":{},\"format\":\"RRPQSH01\",\"status\":\"ok\",\"checksummed\":true,\
         \"checksum_sections\":{sections},\"shards\":{n_shards},\"epoch\":null,\"wal\":null,\
         \"orphan_tmp\":{},\"stale_files\":{}}}",
        rpq_core::jsonw::quoted(index),
        unnamed.orphan_tmps.len(),
        unnamed.stale.len(),
    );
    Ok(())
}

/// Counts `<file_name>.*.tmp` siblings — the debris an interrupted
/// atomic save leaves behind — without removing them.
fn count_orphan_tmps(path: &Path) -> usize {
    let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
        return 0;
    };
    let dir = match path.parent() {
        Some(d) if !d.as_os_str().is_empty() => d,
        _ => Path::new("."),
    };
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    let prefix = format!("{name}.");
    entries
        .filter_map(|e| e.ok())
        .filter(|e| {
            e.file_name()
                .to_str()
                .is_some_and(|n| n.starts_with(&prefix) && n.ends_with(".tmp"))
        })
        .count()
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
    let mut times = Vec::with_capacity(n);
    let mut pairs = 0usize;
    for _ in 0..n {
        let t = Instant::now();
        let out = db.query_with(s, expr, o, &opts)?;
        times.push(t.elapsed().as_secs_f64());
        pairs = out.pairs.len();
    }
    times.sort_by(|a, b| a.partial_cmp(b).unwrap());
    println!(
        "{} pairs; {} runs: min {:.6}s median {:.6}s max {:.6}s",
        pairs,
        n,
        times[0],
        times[times.len() / 2],
        times[times.len() - 1]
    );
    Ok(())
}
