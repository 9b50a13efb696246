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
    assert!(stdout.contains("# error: parse error"), "{stdout}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("served 3 queries (2 ok, 1 failed)"),
        "{stderr}"
    );
    // Metrics JSON lands on stderr with the expected sections.
    assert!(stderr.contains("\"plan_cache\""), "{stderr}");
    assert!(stderr.contains("\"latency_us\""), "{stderr}");
}

/// The `batch` subcommand runs a query file through the service and
/// produces byte-deterministic output across thread counts.
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
    assert!(report.contains("\"checksum_sections\":9"), "{report}");
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
/// size: 1016 bytes for the 1872-byte file of `data/metro.nt`.)
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
    assert!(report.contains("\"checksum_sections\":18"), "{report}");
    assert!(report.contains("\"orphan_tmp\":2"), "{report}");
    assert!(report.contains("\"stale_files\":1"), "{report}");

    // Opening sweeps the temp files; only a save removes a shard file.
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
            "shard-000.rpqm",
            "shard-001.rpqm",
            "shard-007.rpqm"
        ]
    );
    let report = verify();
    assert!(report.contains("\"orphan_tmp\":0"), "{report}");
    assert!(report.contains("\"stale_files\":1"), "{report}");
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
        // The six ring sections are the ring, to a few header words each.
        let ring: f64 = ["L_O", "L_S", "L_P", "C_S", "C_P", "C_O"]
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
        assert_eq!(number_after(&text, "L_O"), 48.0);
        assert!(
            !text.contains("unused") && !text.contains("rpq-only"),
            "{text}"
        );
    }
    let text = stats(&sharded, "--mmap");
    assert!(!text.contains("unused"), "{text}");
    assert!(text.contains("sections, all 4 shards:"), "{text}");
    assert!(text.contains("sections, shard 3:"), "{text}");
    let shard0 = text.split("sections, shard 0:").nth(1).unwrap();
    let shard1 = text.split("sections, shard 1:").nth(1).unwrap();
    assert!(number_after(shard0, "NODES") > 24.0);
    assert_eq!(number_after(shard1, "NODES"), 24.0);
    assert!(number_after(&text, "shard 2") > 0.0);
}

/// Indexes the build before `L_O` left the ring wrote from `data/metro.nt`
/// (`--mmap` and stream, committed as they were written). The mapped one
/// opens and answers as a fresh build does, and `stats` names the dead
/// section and what a rebuild reclaims — the 352 bytes by which the file
/// written today is smaller. The stream one is in a
/// format no longer read: every verb refuses it by name, with the
/// command that rebuilds it, and `verify` reports it unsupported.
#[test]
fn indexes_written_with_a_full_l_o_still_serve_and_say_what_is_unused() {
    let dir = tmpdir("full_l_o");
    let fresh = dir.join("metro.rpqm");
    build_metro(&fresh, &[]);
    let fixtures = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures");
    let old_mapped = PathBuf::from(fixtures).join("metro_with_l_o.rpqm");
    let old_stream = PathBuf::from(fixtures).join("metro_with_l_o.db");
    let run = |args: &[&str], index: &PathBuf| {
        let out = cli()
            .arg(args[0])
            .arg(index)
            .args(&args[1..])
            .output()
            .unwrap();
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            out.status.success(),
            "{args:?} on {}: {err}",
            index.display()
        );
        String::from_utf8(out.stdout).unwrap()
    };
    for query in [
        ["<baquedano>", "<l5>+/<bus>", "?y"],
        ["?x", "(<l1>|<l2>|<l5>)+", "?y"],
        ["?x", "^<bus>", "<santa_ana>"],
    ] {
        let args = [&["query"][..], &query[..]].concat();
        let expected = run(&args, &fresh);
        assert!(!expected.is_empty());
        for flag in ["--mmap", "--heap"] {
            let args = [&args[..], &[flag][..]].concat();
            assert_eq!(run(&args, &old_mapped), expected, "{query:?} {flag}");
        }
    }
    let report = run(&["verify"], &old_mapped);
    assert!(report.contains("\"checksum_sections\":9"), "{report}");
    assert!(report.contains("\"epoch\":0"), "{report}");

    for verb in [
        &["query", "?x", "<l5>", "?y"][..],
        &["stats"],
        &["compact"],
        &["verify"],
    ] {
        let out = cli()
            .arg(verb[0])
            .arg(&old_stream)
            .args(&verb[1..])
            .output()
            .unwrap();
        let refused = if verb[0] == "verify" { 2 } else { 1 };
        assert_eq!(out.status.code(), Some(refused), "{verb:?}");
        let said = if verb[0] == "verify" {
            let report = String::from_utf8_lossy(&out.stdout).to_string();
            assert!(report.contains("\"status\":\"unsupported\""), "{report}");
            report
        } else {
            String::from_utf8_lossy(&out.stderr).to_string()
        };
        assert!(said.contains("RRPQDB02"), "{verb:?}: {said}");
        assert!(said.contains("rpq-cli build <graph> <index>"), "{said}");
    }
    assert!(!PathBuf::from(fixtures)
        .join("metro_with_l_o.db.wal")
        .exists());

    let text = run(&["stats"], &old_mapped);
    let l_o = text.lines().find(|l| l.contains("L_O")).unwrap();
    assert!(
        l_o.contains("400") && l_o.ends_with("unused — rebuild to reclaim 352 bytes"),
        "{text}"
    );
    let saved =
        std::fs::metadata(&old_mapped).unwrap().len() - std::fs::metadata(&fresh).unwrap().len();
    assert_eq!(saved, 352);
    assert_eq!(text.matches("unused").count(), 1, "{text}");
}
