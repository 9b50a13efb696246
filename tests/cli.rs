//! End-to-end tests of the `rpq-cli` binary: build → persist → load →
//! query, plus failure modes.

use std::path::PathBuf;
use std::process::Command;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_rpq-cli"))
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rpq_cli_{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn build_query_roundtrip() {
    let dir = tmpdir("roundtrip");
    let graph = dir.join("metro.txt");
    std::fs::write(
        &graph,
        "baquedano l5 bellas_artes
         bellas_artes l5 santa_ana
         santa_ana l5 bellas_artes
         bellas_artes l5 baquedano
         santa_ana bus u_de_chile
         bellas_artes bus santa_ana
        ",
    )
    .unwrap();
    let index = dir.join("metro.db");

    let out = cli()
        .args(["build", graph.to_str().unwrap(), index.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("indexed 6 edges"));
    assert!(index.exists());

    let out = cli()
        .args([
            "query",
            index.to_str().unwrap(),
            "baquedano",
            "l5+/bus",
            "?y",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("baquedano\tsanta_ana"), "{stdout}");
    assert!(stdout.contains("baquedano\tu_de_chile"), "{stdout}");

    let out = cli()
        .args(["stats", index.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("edges (base):        6"), "{stdout}");
    assert!(stdout.contains("ring bytes"), "{stdout}");

    let out = cli()
        .args(["bench", index.to_str().unwrap(), "?x", "l5*", "?y", "3"])
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("3 runs"));

    let out = cli()
        .args([
            "explain",
            index.to_str().unwrap(),
            "baquedano",
            "l5+/bus",
            "?y",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("strategy:"), "{text}");
    assert!(text.contains("backward traversal"), "{text}");

    // `query --explain`: the planner's decision as one stable JSON
    // object, no evaluation (no result rows, no pair-count footer).
    let out = cli()
        .args([
            "query",
            index.to_str().unwrap(),
            "baquedano",
            "l5+/bus",
            "?y",
            "--explain",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let json = String::from_utf8_lossy(&out.stdout);
    assert!(json.starts_with("{\"pattern\":"), "{json}");
    assert!(json.contains("\"route\":\"bitparallel\""), "{json}");
    assert!(json.contains("\"direction\":\"from_subject\""), "{json}");
    assert!(!json.contains("baquedano\t"), "--explain must not evaluate");

    // `batch --explain`: one JSON object per query line, errors inline.
    let queries = dir.join("queries.txt");
    std::fs::write(&queries, "?x l5 ?y\nbaquedano l5+/bus ?y\nnot-enough\n").unwrap();
    let out = cli()
        .args([
            "batch",
            index.to_str().unwrap(),
            queries.to_str().unwrap(),
            "--explain",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let json = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = json.lines().collect();
    assert_eq!(lines.len(), 3, "{json}");
    assert!(lines[0].contains("\"route\":\"fastpath\""), "{json}");
    assert!(lines[1].contains("\"route\":\"bitparallel\""), "{json}");
    assert!(lines[2].contains("\"error\""), "{json}");
}

#[test]
fn cli_failure_modes() {
    let dir = tmpdir("failures");

    // Unknown command.
    let out = cli().arg("frobnicate").output().unwrap();
    assert!(!out.status.success());

    // Missing input file.
    let out = cli()
        .args([
            "build",
            "/nonexistent/g.txt",
            dir.join("x.db").to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());

    // Corrupt index file.
    let bad = dir.join("bad.db");
    std::fs::write(&bad, b"not a database").unwrap();
    let out = cli()
        .args(["query", bad.to_str().unwrap(), "?x", "p", "?y"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("error"));

    // Malformed expression on a valid index: typed parse diagnostic,
    // exit code 2, no backtrace.
    let graph = dir.join("g.txt");
    std::fs::write(&graph, "a p b\n").unwrap();
    let index = dir.join("g.db");
    assert!(cli()
        .args(["build", graph.to_str().unwrap(), index.to_str().unwrap()])
        .output()
        .unwrap()
        .status
        .success());
    let out = cli()
        .args(["query", index.to_str().unwrap(), "a", "p/(", "?y"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "parse errors exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("error: expression error"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(!stderr.contains("backtrace"), "{stderr}");

    // Unknown node: same typed treatment.
    let out = cli()
        .args(["query", index.to_str().unwrap(), "nosuch", "p", "?y"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));

    // Operational errors keep exit code 1.
    let out = cli()
        .args(["query", "/nonexistent.db", "a", "p", "?y"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));

    // Help exits cleanly.
    let out = cli().arg("--help").output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
}

/// The bundled N-Triples fixture round-trips through build → query →
/// stats, exercising the `.nt` sniffing path of `cmd_build`.
#[test]
fn build_query_ntriples_fixture() {
    let dir = tmpdir("ntriples");
    let fixture = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("data/metro.nt");
    let index = dir.join("metro_nt.db");

    let out = cli()
        .args(["build", fixture.to_str().unwrap(), index.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("indexed 13 edges"));

    // The paper's worked query, §4 / Fig. 6: l5+ then one bus hop.
    let out = cli()
        .args([
            "query",
            index.to_str().unwrap(),
            "<baquedano>",
            "<l5>+/<bus>",
            "?y",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("<baquedano>\t<santa_ana>"), "{stdout}");
    assert!(stdout.contains("<baquedano>\t<u_de_chile>"), "{stdout}");

    // An inverse-step (2RPQ) query through the CLI.
    let out = cli()
        .args([
            "query",
            index.to_str().unwrap(),
            "?x",
            "^<bus>",
            "<santa_ana>",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("<u_de_chile>\t<santa_ana>"), "{stdout}");

    let out = cli()
        .args(["stats", index.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("edges (base):        13"));
}

/// The `serve` subcommand: a query-per-line session over stdin, with
/// per-query sorted/deduplicated blocks, per-line error isolation, and
/// the metrics registry JSON on demand.
#[test]
fn serve_session_over_stdin() {
    use std::io::Write;
    let dir = tmpdir("serve");
    let graph = dir.join("g.txt");
    std::fs::write(
        &graph,
        "baquedano l5 bellas_artes
         bellas_artes l5 santa_ana
         santa_ana bus u_de_chile
        ",
    )
    .unwrap();
    let index = dir.join("g.db");
    assert!(cli()
        .args(["build", graph.to_str().unwrap(), index.to_str().unwrap()])
        .output()
        .unwrap()
        .status
        .success());

    let mut child = cli()
        .args([
            "serve",
            index.to_str().unwrap(),
            "--workers",
            "2",
            "--metrics",
            "-",
        ])
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    child
        .stdin
        .take()
        .unwrap()
        .write_all(
            b"baquedano l5+/bus ?y\n\
              # a comment line\n\
              ?x l5 santa_ana\n\
              baquedano l5+/( ?y\n",
        )
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("# query 1: baquedano l5+/bus ?y"),
        "{stdout}"
    );
    assert!(stdout.contains("baquedano\tu_de_chile"), "{stdout}");
    assert!(stdout.contains("bellas_artes\tsanta_ana"), "{stdout}");
    assert!(stdout.contains("# 1 pairs"), "{stdout}");
    // The malformed third query fails in isolation.
    assert!(
        stdout.contains("# error: parse error at offset"),
        "{stdout}"
    );
    assert!(!stdout.contains("parse error: parse error"), "{stdout}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("served 3 queries (2 ok, 1 failed)"),
        "{stderr}"
    );
    // Metrics JSON lands on stderr with the expected sections.
    assert!(stderr.contains("\"result_cache\""), "{stderr}");
    assert!(stderr.contains("\"latency_us\""), "{stderr}");
}

/// The `batch` subcommand runs a query file through the service and
/// produces byte-deterministic output across worker counts.
#[test]
fn batch_is_deterministic_across_worker_counts() {
    let dir = tmpdir("batch");
    let graph = dir.join("g.txt");
    // A diamond with parallel labels: multi-row answers to sort.
    std::fs::write(&graph, "a p b\na p c\nb p d\nc p d\nd q a\nb q c\n").unwrap();
    let index = dir.join("g.db");
    assert!(cli()
        .args(["build", graph.to_str().unwrap(), index.to_str().unwrap()])
        .output()
        .unwrap()
        .status
        .success());
    let queries = dir.join("queries.txt");
    std::fs::write(&queries, "?x p+ ?y\na p/p ?y\n?x (p|q)+ a\n?x ^p d\n").unwrap();

    let run = |workers: &str| {
        let metrics = dir.join(format!("metrics_{workers}.json"));
        let out = cli()
            .args([
                "batch",
                index.to_str().unwrap(),
                queries.to_str().unwrap(),
                "--workers",
                workers,
                "--metrics",
                metrics.to_str().unwrap(),
            ])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let json = std::fs::read_to_string(&metrics).unwrap();
        assert!(json.contains("\"result_cache\""), "{json}");
        String::from_utf8_lossy(&out.stdout).to_string()
    };
    let one = run("1");
    let four = run("4");
    assert_eq!(one, four, "output must not depend on worker count");
    assert!(one.contains("a\td"), "{one}");
}

/// `build` writes the RRPQM01 format (it has no flag that chooses one);
/// queries over the index are byte-identical under every residency,
/// `stats` reports the residency, and updates fold back into a mapped
/// file at the next epoch, with a rotated write-ahead log beside it.
#[test]
fn mmap_build_query_roundtrip() {
    let dir = tmpdir("mmap");
    let fixture = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("data/metro.nt");
    let mapped = dir.join("metro.rpqm");
    build_metro(&mapped, &[]);
    let magic = std::fs::read(&mapped).unwrap()[..8].to_vec();
    assert_eq!(&magic, b"RRPQM01\0");
    let out = cli()
        .args(["build", fixture.to_str().unwrap()])
        .arg(dir.join("flagged.rpqm"))
        .arg("--mmap")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "build takes no --mmap");
    assert!(!dir.join("flagged.rpqm").exists());

    // Identical rows from the index under the default and both forced
    // residencies.
    let ask = |index: &std::path::Path, extra: &[&str]| {
        let mut args = vec![
            "query",
            index.to_str().unwrap(),
            "<baquedano>",
            "<l5>+/<bus>",
            "?y",
        ];
        args.extend_from_slice(extra);
        let out = cli().args(&args).output().unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).to_string()
    };
    let reference = ask(&mapped, &[]);
    assert!(
        reference.contains("<baquedano>\t<u_de_chile>"),
        "{reference}"
    );
    assert_eq!(ask(&mapped, &["--heap"]), reference);
    #[cfg(all(unix, target_pointer_width = "64"))]
    assert_eq!(ask(&mapped, &["--mmap"]), reference);

    // `stats` surfaces the residency of the open.
    let out = cli()
        .args(["stats", mapped.to_str().unwrap(), "--heap"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("(heap, 0 mapped bytes)"), "{stdout}");

    // Inserting into an index rewrites the file, in the same format.
    let delta = dir.join("delta.nt");
    std::fs::write(&delta, "<u_de_chile> <l5> <baquedano> .\n").unwrap();
    let out = cli()
        .args(["insert", mapped.to_str().unwrap(), delta.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let magic = std::fs::read(&mapped).unwrap()[..8].to_vec();
    assert_eq!(&magic, b"RRPQM01\0", "insert must preserve the format");
    let rows = ask(&mapped, &[]);
    assert!(rows.contains("<baquedano>\t<u_de_chile>"), "{rows}");
    let out = cli()
        .arg("query")
        .arg(&mapped)
        .args(["<u_de_chile>", "<l5>", "?y"])
        .output()
        .unwrap();
    let rows = String::from_utf8_lossy(&out.stdout);
    assert!(rows.contains("<u_de_chile>\t<baquedano>"), "{rows}");

    // The file holds the epoch of the commit; the log was rotated to it.
    let out = cli().arg("verify").arg(&mapped).output().unwrap();
    let report = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{report}");
    assert!(report.contains("\"format\":\"RRPQM01\""), "{report}");
    assert!(report.contains("\"checksum_sections\":7"), "{report}");
    assert!(report.contains("\"epoch\":1"), "{report}");
    assert!(
        report.contains("\"wal\":{\"base_epoch\":1,\"batches\":0,"),
        "{report}"
    );
}

/// A malformed N-Triples file is rejected with a positioned error, not
/// silently mis-parsed as whitespace triples.
#[test]
fn malformed_ntriples_is_rejected() {
    let dir = tmpdir("bad_ntriples");
    let bad = dir.join("bad.nt");
    std::fs::write(&bad, "<a> <p> <b> .\n<unterminated\n").unwrap();
    let out = cli()
        .args([
            "build",
            bad.to_str().unwrap(),
            dir.join("x.db").to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("line 2"), "{stderr}");
}

/// Builds `data/metro.nt` into `index` (with `extra` flags).
fn build_metro(index: &std::path::Path, extra: &[&str]) {
    let fixture = concat!(env!("CARGO_MANIFEST_DIR"), "/data/metro.nt");
    let out = cli()
        .args(["build", fixture, index.to_str().unwrap()])
        .args(extra)
        .output()
        .unwrap();
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{err}");
}

/// `build` prints the bytes it wrote: the size of the file, or of every
/// file in the directory. (The one-file branch printed the ring's heap
/// size: 1016 bytes for the then 1872-byte file of `data/metro.nt`.)
#[test]
fn build_prints_the_size_of_what_it_wrote() {
    let dir = tmpdir("build_bytes");
    for (name, extra) in [("metro.db", &[][..]), ("metro-sharded", &["--shards", "4"])] {
        let index = dir.join(name);
        let fixture = concat!(env!("CARGO_MANIFEST_DIR"), "/data/metro.nt");
        let out = cli()
            .args(["build", fixture])
            .arg(&index)
            .args(extra)
            .output()
            .unwrap();
        assert!(out.status.success());
        let stdout = String::from_utf8(out.stdout).unwrap();
        let printed: u64 = stdout
            .lines()
            .find(|line| line.contains(" bytes/edge) -> "))
            .and_then(|line| line.split_whitespace().nth(1))
            .and_then(|bytes| bytes.parse().ok())
            .unwrap_or_else(|| panic!("no byte count in:\n{stdout}"));
        let on_disk: u64 = if index.is_dir() {
            std::fs::read_dir(&index)
                .unwrap()
                .map(|entry| entry.unwrap().metadata().unwrap().len())
                .sum()
        } else {
            std::fs::metadata(&index).unwrap().len()
        };
        assert_eq!(printed, on_disk, "{name}:\n{stdout}");
    }
}

/// `explain` plans over the whole partition: its text on a 4-shard index
/// is the unsharded index's. (It once planned from shard 0's ring alone
/// and printed `label 3: 0 edges` for a label another shard holds.)
#[test]
fn explain_on_a_sharded_index_matches_the_unsharded_one() {
    let dir = tmpdir("explain_sharded");
    let (plain, sharded) = (dir.join("metro.db"), dir.join("metro-sharded"));
    build_metro(&plain, &[]);
    build_metro(&sharded, &["--shards", "4"]);
    for query in [
        ["<baquedano>", "<l5>+/<bus>", "?y"],
        ["?x", "(<l1>|<l2>|<l5>)+", "?y"],
        ["?x", "^<bus>", "<santa_ana>"],
        ["?x", "<l1>*/<bus>/<l5>*", "?y"],
    ] {
        let explain = |index: &PathBuf| {
            let out = cli()
                .arg("explain")
                .arg(index)
                .args(query)
                .output()
                .unwrap();
            assert!(out.status.success(), "{query:?}");
            String::from_utf8(out.stdout).unwrap()
        };
        let on_plain = explain(&plain);
        assert!(on_plain.contains("strategy:"), "{on_plain}");
        let on_sharded = explain(&sharded);
        assert_eq!(
            on_plain.lines().collect::<Vec<_>>(),
            on_sharded.lines().collect::<Vec<_>>(),
            "{query:?}"
        );
    }
}

/// Sharded indexes are read-only: the three updating verbs, and the two
/// library entry points under them, refuse one with a typed error that
/// says so and names the way out — and leave the directory as it was.
/// (They used to fail with `Is a directory (os error 21)`.)
#[test]
fn updates_refuse_a_sharded_index_and_leave_it_untouched() {
    use ring_rpq::UpdatableDatabase;
    let dir = tmpdir("update_sharded");
    let sharded = dir.join("metro-sharded");
    build_metro(&sharded, &["--shards", "4"]);
    let delta = dir.join("delta.nt");
    std::fs::write(&delta, "<baquedano> <l5> <u_de_chile> .\n").unwrap();
    let contents = || {
        let mut files: Vec<_> = std::fs::read_dir(&sharded)
            .unwrap()
            .map(|entry| entry.unwrap().path())
            .map(|path| (std::fs::read(&path).unwrap(), path))
            .collect();
        files.sort();
        files
    };
    let before = contents();

    for verb in ["insert", "delete", "compact"] {
        let operands = if verb == "compact" { 1 } else { 2 };
        let out = cli()
            .arg(verb)
            .args([&sharded, &delta][..operands].iter())
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(1), "{verb}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("sharded indexes are read-only"), "{err}");
        assert!(err.contains("build --shards"), "{err}");
    }
    type Open = fn(&std::path::Path) -> std::io::Result<UpdatableDatabase>;
    for open in [
        UpdatableDatabase::load as Open,
        UpdatableDatabase::open_durable,
    ] {
        let err = open(&sharded).err().expect("a sharded directory");
        assert_eq!(err.kind(), std::io::ErrorKind::Unsupported, "{err}");
    }

    assert!(contents() == before, "the directory changed");
    // ... and nothing (a write-ahead log, a temp file) appeared beside it.
    assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 2);
}

/// A directory is what its manifest names: a re-save with fewer shards
/// removes the shard files it no longer uses, an open sweeps the temp
/// files an interrupted save of a shard or of the manifest stranded, and
/// `verify` counts whatever else is lying there. (A `--shards 2` build
/// over a `--shards 4` one used to leave `shard-002`/`shard-003` behind,
/// with `verify` answering ok without a word.)
#[test]
fn a_resaved_sharded_directory_holds_no_stale_shards() {
    let dir = tmpdir("resave_sharded");
    let sharded = dir.join("metro-sharded");
    build_metro(&sharded, &["--shards", "4"]);
    build_metro(&sharded, &["--shards", "2"]);
    let names = || {
        let mut names: Vec<String> = std::fs::read_dir(&sharded)
            .unwrap()
            .map(|entry| entry.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        names
    };
    assert_eq!(names(), ["MANIFEST", "shard-000.rpqm", "shard-001.rpqm"]);

    std::fs::write(sharded.join("shard-001.rpqm.4242.0.tmp"), b"torn").unwrap();
    std::fs::write(sharded.join("MANIFEST.4242.1.tmp"), b"torn").unwrap();
    std::fs::write(sharded.join("shard-007.rpqm"), b"left over").unwrap();
    let verify = || {
        let out = cli().arg("verify").arg(&sharded).output().unwrap();
        assert!(out.status.success());
        String::from_utf8(out.stdout).unwrap()
    };
    let report = verify();
    assert!(report.contains("\"status\":\"ok\""), "{report}");
    assert!(report.contains("\"checksum_sections\":14"), "{report}");
    assert!(report.contains("\"orphan_tmp\":2"), "{report}");
    assert!(report.contains("\"stale_files\":1"), "{report}");

    // A query only reads: the temp files may be a running save's, so
    // they stay until the next save, which removes them with the stale
    // shard.
    let out = cli()
        .arg("query")
        .arg(&sharded)
        .args(["<baquedano>", "<l5>+/<bus>", "?y"])
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("<u_de_chile>"));
    assert_eq!(
        names(),
        [
            "MANIFEST",
            "MANIFEST.4242.1.tmp",
            "shard-000.rpqm",
            "shard-001.rpqm",
            "shard-001.rpqm.4242.0.tmp",
            "shard-007.rpqm"
        ]
    );
    let report = verify();
    assert!(report.contains("\"orphan_tmp\":2"), "{report}");
    assert!(report.contains("\"stale_files\":1"), "{report}");

    build_metro(&sharded, &["--shards", "2"]);
    assert_eq!(names(), ["MANIFEST", "shard-000.rpqm", "shard-001.rpqm"]);
    let report = verify();
    assert!(report.contains("\"orphan_tmp\":0"), "{report}");
    assert!(report.contains("\"stale_files\":0"), "{report}");
}

/// `verify` and a durable open judge `<index>.wal` by one set of rules:
/// for every state the log can be in, `verify` reports `"status":"ok"`
/// exactly when `open_durable` succeeds, and counts the batches and ops
/// that the open replays.
#[test]
fn verify_and_a_durable_open_agree_on_every_wal_state() {
    use ring_rpq::UpdatableDatabase;
    let dir = tmpdir("wal_states");
    let index = dir.join("metro.rpqm");
    build_metro(&index, &[]);
    let snapshot = std::fs::read(&index).unwrap();
    let l5_pairs = |db: &UpdatableDatabase| db.query("?x", "<l5>", "?y").unwrap().len();
    let base_pairs = l5_pairs(&UpdatableDatabase::load(&index).unwrap());
    // Two committed batches, two new edges and then one, that no
    // checkpoint folds into the snapshot: they live in the log only.
    let log = {
        let db = UpdatableDatabase::open_durable(&index).unwrap();
        db.insert("<a>", "<l5>", "<b>");
        db.insert("<b>", "<l5>", "<c>");
        db.commit();
        db.insert("<c>", "<l5>", "<d>");
        db.commit();
        std::fs::read(UpdatableDatabase::wal_path(&index)).unwrap()
    };
    let mut ahead = log.clone();
    ahead[8..16].copy_from_slice(&5u64.to_le_bytes());
    // (state, the log's bytes, the batches and ops replayed; None: refused)
    let states = [
        ("absent", None, Some((0, 0))),
        ("0 bytes", Some(&log[..0]), Some((0, 0))),
        ("15 bytes", Some(&log[..15]), Some((0, 0))),
        ("clean with batches", Some(&log), Some((2, 3))),
        ("torn tail", Some(&log[..log.len() - 3]), Some((1, 2))),
        ("based ahead of the snapshot", Some(&ahead), None),
    ];
    let count = |report: &str, key: &str| {
        report
            .split_once(&format!("\"{key}\":"))
            .map_or(0, |(_, rest)| {
                let digits = rest.bytes().take_while(u8::is_ascii_digit).count();
                rest[..digits].parse::<usize>().unwrap()
            })
    };
    for (i, (state, bytes, want)) in states.into_iter().enumerate() {
        let path = dir.join(format!("state-{i}.rpqm"));
        std::fs::write(&path, &snapshot).unwrap();
        let wal = UpdatableDatabase::wal_path(&path);
        let _ = std::fs::remove_file(&wal);
        if let Some(bytes) = bytes {
            std::fs::write(&wal, bytes).unwrap();
        }
        let out = cli().arg("verify").arg(&path).output().unwrap();
        let report = String::from_utf8(out.stdout).unwrap();
        let verified = report.contains("\"status\":\"ok\"");
        assert_eq!(out.status.success(), verified, "{state}: {report}");

        let opened = UpdatableDatabase::open_durable(&path);
        assert_eq!(verified, opened.is_ok(), "{state}: {report}");
        assert_eq!(want.is_some(), verified, "{state}: {report}");
        let Ok(db) = opened else { continue };
        // Each replayed batch is one commit; each op one new edge.
        let replayed = (db.epoch() as usize, l5_pairs(&db) - base_pairs);
        let reported = (count(&report, "batches"), count(&report, "ops"));
        assert_eq!(reported, replayed, "{state}: {report}");
        assert_eq!(Some(replayed), want, "{state}: {report}");
    }
}

/// `build` over an index that updates have logged starts a history of
/// its own: the log beside the index goes, the new file verifies, and a
/// later insert commits on top of it. Put back, as a crash between the
/// new file's rename and the log's removal leaves it, the old log is
/// replayed by nothing: the new file is stamped at the epoch the log
/// reached. (Before, `verify` exited 2 with "WAL base epoch 1 is ahead
/// of snapshot epoch 0" and every later insert was refused.)
#[test]
fn a_rebuild_supersedes_the_log_beside_the_index() {
    use ring_rpq::UpdatableDatabase;
    let dir = tmpdir("rebuild_log");
    let index = dir.join("metro.db");
    let wal = UpdatableDatabase::wal_path(&index);
    let delta = dir.join("delta.nt");
    std::fs::write(&delta, "<brand_new> <l5> <baquedano> .\n").unwrap();
    let run = |args: &[&str]| {
        let out = cli().args(args).output().unwrap();
        let stdout = String::from_utf8(out.stdout).unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{args:?}: {stdout}{stderr}");
        stdout
    };
    let at = index.to_str().unwrap();
    let delta_at = delta.to_str().unwrap();
    let has_new_edge = || run(&["query", at, "?x", "<l5>", "<baquedano>"]).contains("<brand_new>");

    build_metro(&index, &[]);
    run(&["insert", at, delta_at]);
    assert!(wal.exists());
    build_metro(&index, &[]);
    assert!(!wal.exists(), "the rebuild leaves the log it supersedes");
    let report = run(&["verify", at]);
    assert!(report.contains("\"status\":\"ok\""), "{report}");
    assert!(report.contains("\"epoch\":1,\"wal\":null"), "{report}");
    assert!(!has_new_edge(), "the rebuilt graph has no <brand_new>");
    run(&["insert", at, delta_at]);
    assert!(has_new_edge());

    // A log with a batch no checkpoint folded in, left beside a rebuild.
    build_metro(&index, &[]);
    let log = {
        let db = UpdatableDatabase::open_durable(&index).unwrap();
        db.insert("<a>", "<l5>", "<b>");
        db.commit();
        std::fs::read(&wal).unwrap()
    };
    build_metro(&index, &[]);
    std::fs::write(&wal, &log).unwrap();
    let report = run(&["verify", at]);
    assert!(report.contains("\"status\":\"ok\""), "{report}");
    assert!(report.contains("\"batches\":0,\"ops\":0"), "{report}");
    let db = UpdatableDatabase::open_durable(&index).unwrap();
    assert_eq!(db.epoch(), 3, "the epoch the log reached, nothing replayed");
    assert!(db.query("<a>", "<l5>", "?y").is_err(), "<a> is unknown");
}

/// One shard file of a directory is not an index: all but the first carry
/// no dictionaries, and `query` on one says which directory to open.
#[test]
fn querying_one_shard_file_names_the_directory() {
    let dir = tmpdir("shard_file");
    let sharded = dir.join("metro-sharded");
    build_metro(&sharded, &["--shards", "4"]);
    let out = cli()
        .arg("query")
        .arg(sharded.join("shard-001.rpqm"))
        .args(["<baquedano>", "<l5>+", "?y"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("shard of a sharded index"), "{err}");
    assert!(
        err.contains(&format!("{} instead", sharded.display())),
        "{err}"
    );
}

/// `stats` reports the space of what it opened, not of this process's
/// heap: a mapped index has a size, and its file's sections add up to it.
#[test]
fn stats_sizes_a_mapped_index_from_its_sections() {
    let dir = tmpdir("stats_sections");
    let (plain, sharded) = (dir.join("metro.rpqm"), dir.join("metro-sharded"));
    build_metro(&plain, &[]);
    build_metro(&sharded, &["--shards", "4"]);
    let stats = |index: &PathBuf, flag: &str| {
        let out = cli().arg("stats").arg(index).arg(flag).output().unwrap();
        assert!(out.status.success());
        String::from_utf8(out.stdout).unwrap()
    };
    let number_after = |text: &str, label: &str| -> f64 {
        let line = text
            .lines()
            .find(|l| l.trim_start().starts_with(label))
            .unwrap_or_else(|| panic!("no '{label}' line in:\n{text}"));
        let rest = line.trim_start()[label.len()..].trim_start();
        rest.split_whitespace().next().unwrap().parse().unwrap()
    };
    for flag in ["--mmap", "--heap"] {
        let text = stats(&plain, flag);
        assert!(
            number_after(&text, "ring bytes:") > 336.0,
            "{flag}:\n{text}"
        );
        assert!(
            number_after(&text, "ring bytes/edge:") > 0.0,
            "{flag}:\n{text}"
        );
        // The four ring sections are the ring, to a few header words each.
        let ring: f64 = ["L_S", "L_P", "C_P", "C_O"]
            .iter()
            .map(|name| number_after(&text, name))
            .sum();
        let reported = number_after(&text, "ring bytes:");
        assert!(
            ring >= reported && ring <= reported + 1024.0,
            "{flag}: sections {ring} B, ring {reported} B"
        );
        let sections: f64 = ["NODES", "PREDS"]
            .iter()
            .map(|name| number_after(&text, name))
            .sum::<f64>()
            + ring;
        let file = std::fs::metadata(&plain).unwrap().len() as f64;
        assert_eq!(number_after(&text, "file"), file);
        assert!(sections < file && sections > file - 512.0);
        assert!(!text.contains("L_O"), "{text}");
        assert!(!text.contains("C_S"), "{text}");
    }
    let text = stats(&sharded, "--mmap");
    assert!(text.contains("sections, all 4 shards:"), "{text}");
    assert!(text.contains("sections, shard 3:"), "{text}");
    let shard0 = text.split("sections, shard 0:").nth(1).unwrap();
    let shard1 = text.split("sections, shard 1:").nth(1).unwrap();
    // An empty dictionary section: `data_len` and two empty permutations.
    assert!(number_after(shard0, "NODES") > 40.0);
    assert_eq!(number_after(shard1, "NODES"), 40.0);
    assert!(number_after(&text, "shard 2") > 0.0);
}

/// `stats` sets the index against the space claims in one line: the whole
/// index per base edge, the adjacency lists the baselines share, and the
/// paper's ring.
#[test]
fn stats_prints_the_space_claim() {
    use ring_rpq::{baselines::AdjacencyIndex, RpqDatabase};
    let dir = tmpdir("stats_space");
    for (name, extra) in [
        ("metro.rpqm", &[][..]),
        ("metro-sharded", &["--shards", "4"]),
    ] {
        let index = dir.join(name);
        build_metro(&index, extra);
        let out = cli().arg("stats").arg(&index).output().unwrap();
        assert!(out.status.success());
        let text = String::from_utf8(out.stdout).unwrap();
        let db = RpqDatabase::open(&index).unwrap();
        let edges = db.graph().len() as f64;
        let on_disk: u64 = if index.is_dir() {
            std::fs::read_dir(&index)
                .unwrap()
                .map(|entry| entry.unwrap().metadata().unwrap().len())
                .sum()
        } else {
            std::fs::metadata(&index).unwrap().len()
        };
        let adjacency = AdjacencyIndex::from_graph(db.graph()).size_bytes();
        let expected = format!(
            "space, B/edge:       {:.2} this index, {:.2} adjacency baseline, 16.41 the paper's ring",
            on_disk as f64 / edges,
            adjacency as f64 / edges,
        );
        assert!(text.lines().any(|l| l == expected), "{expected}\n{text}");
    }
}

/// `stats` names the copies of the batched rank kernels this CPU runs:
/// the popcount and the wavelet level step.
#[test]
fn stats_names_the_popcount_kernels() {
    let index = tmpdir("stats_kernels").join("metro.rpqm");
    build_metro(&index, &[]);
    let out = cli().arg("stats").arg(&index).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
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
    let expected = format!("kernels:             popcount: {popcount}, gather: {gather}");
    assert!(text.lines().any(|l| l == expected), "{expected}\n{text}");
}

/// Indexes in formats this build no longer reads, as earlier builds wrote
/// them from `data/metro.nt`: a stream-format file, a version-2 `RRPQM01`
/// one (a dictionary of two `u64` arrays around every name, and a slot
/// holding the paper's third column), a version-3 one (select samples on
/// every wavelet level, and a `C_S` section), and a version-3 one whose
/// node boundaries are Elias–Fano coded. Every verb refuses each by
/// name, with the command that rebuilds it, `verify` reports it
/// unsupported (exit 2), and neither file is touched.
#[test]
fn indexes_in_formats_no_longer_read_are_refused_by_name() {
    let fixtures = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures"));
    for (file, format) in [
        ("metro_with_l_o.db", "RRPQDB02"),
        ("metro_with_l_o.rpqm", "RRPQM01 version 2"),
        ("metro_v3.rpqm", "RRPQM01 version 3"),
        ("metro_elias_fano.rpqm", "elias-fano node boundaries"),
    ] {
        let old = fixtures.join(file);
        let before = std::fs::read(&old).unwrap();
        for verb in [
            &["query", "?x", "<l5>", "?y"][..],
            &["stats"],
            &["compact"],
            &["verify"],
        ] {
            let out = cli()
                .arg(verb[0])
                .arg(&old)
                .args(&verb[1..])
                .output()
                .unwrap();
            let refused = if verb[0] == "verify" { 2 } else { 1 };
            assert_eq!(out.status.code(), Some(refused), "{file} {verb:?}");
            let said = if verb[0] == "verify" {
                let report = String::from_utf8_lossy(&out.stdout).to_string();
                assert!(report.contains("\"status\":\"unsupported\""), "{report}");
                report
            } else {
                String::from_utf8_lossy(&out.stderr).to_string()
            };
            assert!(said.contains(format), "{file} {verb:?}: {said}");
            assert!(said.contains("rpq-cli build <graph> <index>"), "{said}");
        }
        assert_eq!(std::fs::read(&old).unwrap(), before, "{file} changed");
        let wal = PathBuf::from(format!("{}.wal", old.display()));
        assert!(!wal.exists(), "{}", wal.display());
    }
}

/// `verify` on a sharded directory reads every shard once, in its heap
/// open, and a checksum error there names the shard it is in.
#[test]
fn verify_names_the_shard_whose_checksum_fails() {
    let dir = tmpdir("verify_shard_crc");
    let sharded = dir.join("metro-sharded");
    build_metro(&sharded, &["--shards", "4"]);
    let shard1 = sharded.join("shard-001.rpqm");
    let mut image = std::fs::read(&shard1).unwrap();
    // A payload byte: past the 248-byte header, inside the ring.
    assert!(image.len() > 560);
    let at = image.len() / 2;
    image[at] ^= 0x01;
    std::fs::write(&shard1, &image).unwrap();
    let out = cli().arg("verify").arg(&sharded).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let report = String::from_utf8_lossy(&out.stdout);
    assert!(report.contains("\"status\":\"corrupt\""), "{report}");
    assert!(
        report.contains("\"stage\":\"shard 1 checksums\""),
        "{report}"
    );
}

/// A reader that stops early (`rpq-cli query … | head -3`) ends the run
/// of `query`, `batch` and `serve`: exit 0, no panic, no error. Each
/// answer is longer than a pipe holds, so the write after the reader has
/// gone fails.
#[test]
fn a_closed_stdout_ends_the_run() {
    use std::io::{BufRead, BufReader, Write};
    use std::process::Stdio;
    let dir = tmpdir("closed_stdout");
    let graph = dir.join("chain.txt");
    let chain: String = (0..20_000)
        .map(|i| format!("n{i} p n{}\n", i + 1))
        .collect();
    std::fs::write(&graph, chain).unwrap();
    let index = dir.join("chain.db");
    let index = index.to_str().unwrap();
    assert!(cli()
        .args(["build", graph.to_str().unwrap(), index])
        .output()
        .unwrap()
        .status
        .success());
    let queries = dir.join("queries.txt");
    std::fs::write(&queries, "?x p ?y\n?x ^p ?y\n").unwrap();

    let runs: [(&str, Vec<&str>); 3] = [
        ("query", vec!["query", index, "?x", "p", "?y"]),
        ("batch", vec!["batch", index, queries.to_str().unwrap()]),
        ("serve", vec!["serve", index]),
    ];
    for (verb, args) in runs {
        let mut child = cli()
            .args(&args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap();
        let mut stdin = child.stdin.take().unwrap();
        if verb == "serve" {
            stdin.write_all(b"?x p ?y\n?x ^p ?y\n").unwrap();
        }
        drop(stdin);
        let mut stdout = BufReader::new(child.stdout.take().unwrap());
        let mut head = String::new();
        for _ in 0..3 {
            stdout.read_line(&mut head).unwrap();
        }
        drop(stdout);
        let out = child.wait_with_output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(head.lines().count(), 3, "{verb}: {head}");
        assert!(head.contains("\tn"), "{verb}: {head}");
        assert!(out.status.success(), "{verb}: {:?} {stderr}", out.status);
        assert!(!stderr.contains("panicked"), "{verb}: {stderr}");
        assert!(!stderr.contains("Broken pipe"), "{verb}: {stderr}");
    }
}
