//! `ab`: the alternated-pairs protocol as one command.
//!
//! ```text
//! ab <rev-a> <rev-b> --workload <name> [--pairs N] [--seconds S] [--trace]
//!    [--seed N] [--root DIR] [--out FILE]
//! ```
//!
//! Each revision is extracted with `git archive` into a directory of its
//! own under `--root` (default: `ab` under the system's temp directory)
//! and its e2e driver built there, as the benchmark builds it; `--trace`
//! and `--seed` are passed to every run (default: 10 pairs of 16 s). The runs
//! go A B, B A, A B, … — the order alternates pair by pair, so a drift of
//! the host costs both sides alike — and each run's rows are read from
//! what the driver prints: the human table on standard error (every
//! row) and the result, its last JSON line on standard output (the
//! end-to-end rows, at full precision). Per row the summary gives the
//! median of the pairs' b/a ratios, how many pairs b won (by the row's
//! direction in `BENCHMARK.json`), the ratios' range, and both sides'
//! quartiles. Rows that do not depend on the host must be equal on both
//! sides; any that differ are listed. The summary is printed and written
//! as one JSON file (default: `ab-<workload>.json` under the root), with
//! both commits, `host_threads` and the CPU's `popcount` and `gather`.
//! Any revision is a git revision: `git stash create` names a commit of
//! the working tree.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Rows whose values do not depend on the host: a change that moves one
/// changed what is computed, not how fast.
const HOST_INDEPENDENT: [&str; 6] = [
    "index_bytes_per_triple",
    "wal_bytes_per_update",
    "failed_ratio",
    "core.engine.product_nodes_per_query",
    "core.engine.nodes_per_result_vv",
    "core.source.sharded.shards_touched_per_query",
];

/// One run's rows and stamps.
#[derive(Debug, Default)]
struct Run {
    rows: BTreeMap<String, f64>,
    stamps: BTreeMap<String, String>,
}

/// The `"key": value` pairs of a flat JSON object's text: strings
/// unquoted, nested objects' `"value"` taken as the key's.
fn json_pairs(line: &str) -> Vec<(String, String)> {
    let mut out = Vec::new();
    let mut rest = line;
    while let Some(open) = rest.find('"') {
        let Some(len) = rest[open + 1..].find('"') else {
            break;
        };
        let key = &rest[open + 1..open + 1 + len];
        rest = &rest[open + len + 2..];
        let Some(value) = rest.trim_start().strip_prefix(':') else {
            continue;
        };
        let value = value.trim_start();
        let value = value
            .strip_prefix("{\"value\":")
            .unwrap_or(value)
            .trim_start();
        let (raw, tail) = match value.strip_prefix('"') {
            Some(quoted) => {
                let end = quoted.find('"').unwrap_or(quoted.len());
                (&quoted[..end], quoted.get(end + 1..).unwrap_or(""))
            }
            None => value.split_at(value.find([',', '}']).unwrap_or(value.len())),
        };
        out.push((key.to_string(), raw.trim().to_string()));
        rest = tail;
    }
    out
}

/// Reads a run: the table rows of `stderr`, then the stamps line and the
/// result line of `stdout`, whose values replace the table's four-digit
/// ones.
fn parse_run(stdout: &str, stderr: &str) -> Result<Run, String> {
    let mut run = Run::default();
    for line in stderr.lines().filter(|l| l.starts_with("   ")) {
        let mut words = line.split_whitespace();
        if let (Some(name), Some(value), None) = (words.next(), words.next(), words.next()) {
            if let Ok(v) = value.parse() {
                run.rows.insert(name.to_string(), v);
            }
        }
    }
    let result = stdout.lines().rev().find(|l| l.contains("\"metrics\""));
    let result = result.ok_or("the run printed no result line")?;
    if result.contains("\"correct\": false") {
        return Err(format!("the run was not correct: {result}"));
    }
    let metrics = &result[result.find("\"metrics\"").unwrap_or(0) + 10..];
    for (name, value) in json_pairs(metrics) {
        if let Ok(v) = value.parse() {
            run.rows.insert(name, v);
        }
    }
    if let Some(stamps) = stdout.lines().find(|l| l.contains("\"workload\"")) {
        run.stamps.extend(json_pairs(stamps));
    }
    Ok(run)
}

/// Linear-interpolated quantile of sorted `v`.
fn quantile(v: &[f64], q: f64) -> f64 {
    let at = q * (v.len() - 1) as f64;
    let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (at - lo as f64)
}

fn quartiles(mut v: Vec<f64>) -> [f64; 3] {
    v.sort_by(f64::total_cmp);
    [0.25, 0.5, 0.75].map(|q| quantile(&v, q))
}

/// One row's comparison over the pairs.
#[derive(Debug, PartialEq)]
struct Row {
    name: String,
    higher_is_better: bool,
    median_ratio: f64,
    wins: usize,
    pairs: usize,
    ratio_range: (f64, f64),
    a: [f64; 3],
    b: [f64; 3],
}

/// Every row both sides of every pair report, with `higher` naming the
/// rows where more is better.
fn summarize(pairs: &[(Run, Run)], higher: &[String]) -> Vec<Row> {
    let Some((first, _)) = pairs.first() else {
        return Vec::new();
    };
    let mut rows = Vec::new();
    for name in first.rows.keys() {
        let values: Option<Vec<(f64, f64)>> = pairs
            .iter()
            .map(|(a, b)| Some((*a.rows.get(name)?, *b.rows.get(name)?)))
            .collect();
        let Some(values) = values else { continue };
        let higher_is_better = higher.contains(name);
        let ratios: Vec<f64> = values
            .iter()
            .map(|&(a, b)| if a == b { 1.0 } else { b / a })
            .collect();
        let wins = values
            .iter()
            .filter(|&&(a, b)| if higher_is_better { b > a } else { b < a })
            .count();
        let (lo, hi) = ratios
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &r| {
                (lo.min(r), hi.max(r))
            });
        rows.push(Row {
            name: name.clone(),
            higher_is_better,
            median_ratio: quartiles(ratios)[1],
            wins,
            pairs: values.len(),
            ratio_range: (lo, hi),
            a: quartiles(values.iter().map(|v| v.0).collect()),
            b: quartiles(values.iter().map(|v| v.1).collect()),
        });
    }
    rows
}

/// The rows `BENCHMARK.json` says are better higher.
fn higher_is_better(manifest: &str) -> Vec<String> {
    let mut higher = Vec::new();
    for line in manifest
        .lines()
        .filter(|l| l.contains("\"better\": \"higher\""))
    {
        let pairs = json_pairs(line);
        higher.extend(pairs.into_iter().find(|(k, _)| k == "name").map(|(_, v)| v));
    }
    higher
}

fn git(repo: &Path, args: &[&str]) -> Result<String, String> {
    let out = Command::new("git").arg("-C").arg(repo).args(args).output();
    let out = out.map_err(|e| format!("git: {e}"))?;
    let stderr = String::from_utf8_lossy(&out.stderr);
    if !out.status.success() {
        return Err(format!("git {}: {stderr}", args.join(" ")));
    }
    Ok(String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The e2e driver of `commit`, built from its `git archive` under `root`
/// (reused when it is there already).
fn build(repo: &Path, commit: &str, root: &Path) -> Result<PathBuf, String> {
    let dir = root.join(&commit[..12]);
    let manifest = dir.join("crates/bench/src/bin/e2e/Cargo.toml");
    if !manifest.exists() {
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let archive = format!(
            "git -C '{}' archive {commit} | tar -x -C '{}'",
            repo.display(),
            dir.display()
        );
        let ok = Command::new("sh").args(["-c", &archive]).status();
        if !ok.is_ok_and(|s| s.success()) {
            return Err(format!("could not extract {commit} into {}", dir.display()));
        }
    }
    eprintln!("ab: building {}", dir.display());
    let status = Command::new("cargo")
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
        ])
        .arg(&manifest)
        .status()
        .map_err(|e| format!("cargo: {e}"))?;
    if !status.success() {
        return Err(format!("the build of {commit} failed"));
    }
    Ok(dir.join("crates/bench/src/bin/e2e/target/release/e2e"))
}

/// One run of the driver with `args`.
fn run(e2e: &Path, args: &[String]) -> Result<Run, String> {
    let out = Command::new(e2e).args(args).output();
    let out = out.map_err(|e| format!("{}: {e}", e2e.display()))?;
    let (stdout, stderr) = (
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
    parse_run(&stdout, &stderr).map_err(|e| format!("{}: {e}\n{stderr}", e2e.display()))
}

/// The summary as a JSON object.
fn render(stamps: &[(&str, String)], rows: &[Row], differ: &[String]) -> String {
    let mut out = String::from("{\n");
    for (k, v) in stamps {
        let _ = writeln!(out, "  \"{k}\": \"{v}\",");
    }
    let differ: Vec<String> = differ.iter().map(|d| format!("\"{d}\"")).collect();
    let _ = writeln!(
        out,
        "  \"host_independent_differ\": [{}],",
        differ.join(", ")
    );
    out.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ =
            writeln!(
            out,
            "    {{\"name\": \"{}\", \"better\": \"{}\", \"median_ratio\": {:.4}, \"wins\": {}, \
             \"pairs\": {}, \"ratio_min\": {:.4}, \"ratio_max\": {:.4}, \"a_quartiles\": [{}], \
             \"b_quartiles\": [{}]}}{}",
            r.name,
            if r.higher_is_better { "higher" } else { "lower" },
            r.median_ratio,
            r.wins,
            r.pairs,
            r.ratio_range.0,
            r.ratio_range.1,
            r.a.map(|v| format!("{v:.4}")).join(", "),
            r.b.map(|v| format!("{v:.4}")).join(", "),
            if i + 1 < rows.len() { "," } else { "" }
        );
    }
    out.push_str("  ]\n}\n");
    out
}

const USAGE: &str = "usage: ab <rev-a> <rev-b> --workload <name> [--pairs N] [--seconds S] \
                     [--trace] [--seed N] [--root DIR] [--out FILE]";

fn main() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut revs, mut workload, mut pairs, mut seconds) = (Vec::new(), None, 10, 16.0);
    let (mut root, mut out, mut passed) = (std::env::temp_dir().join("ab"), None, Vec::new());
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => workload = Some(value()?),
            "--pairs" => pairs = value()?.parse().map_err(|_| "--pairs: not a count")?,
            "--seconds" => seconds = value()?.parse().map_err(|_| "--seconds: not a number")?,
            "--trace" => passed.push(arg.clone()),
            "--seed" => passed.extend([arg.clone(), value()?]),
            "--root" => root = PathBuf::from(value()?),
            "--out" => out = Some(PathBuf::from(value()?)),
            rev => revs.push(rev.to_string()),
        }
    }
    let (Some(workload), [a, b]) = (workload, &revs[..]) else {
        return Err(USAGE.into());
    };
    let mut e2e_args = vec!["--workload".to_string(), workload.clone()];
    e2e_args.extend(["--seconds".to_string(), seconds.to_string()]);
    e2e_args.extend(passed.iter().cloned());
    let repo = PathBuf::from(git(Path::new("."), &["rev-parse", "--show-toplevel"])?);
    let commits = [a, b].map(|rev| git(&repo, &["rev-parse", &format!("{rev}^{{commit}}")]));
    let [ca, cb] = commits;
    let (ca, cb) = (ca?, cb?);
    let (ea, eb) = (build(&repo, &ca, &root)?, build(&repo, &cb, &root)?);
    let mut runs = Vec::new();
    for i in 0..pairs {
        let (ra, rb) = if i % 2 == 0 {
            let ra = run(&ea, &e2e_args)?;
            (ra, run(&eb, &e2e_args)?)
        } else {
            let rb = run(&eb, &e2e_args)?;
            (run(&ea, &e2e_args)?, rb)
        };
        eprintln!("ab: pair {}/{pairs} done", i + 1);
        runs.push((ra, rb));
    }
    let manifest = std::fs::read_to_string(repo.join("BENCHMARK.json")).unwrap_or_default();
    let rows = summarize(&runs, &higher_is_better(&manifest));
    let differ: Vec<String> = rows
        .iter()
        .filter(|r| HOST_INDEPENDENT.contains(&r.name.as_str()))
        .filter(|r| r.a[0] != r.a[2] || r.b[0] != r.b[2] || r.a[1] != r.b[1])
        .map(|r| r.name.clone())
        .collect();
    let host_threads = runs[0].0.stamps.get("host_threads").cloned();
    let on = |yes: bool, what: &str| if yes { what } else { "portable" }.to_string();
    let stamps = [
        ("workload", workload.clone()),
        ("a", ca),
        ("b", cb),
        ("pairs", pairs.to_string()),
        ("e2e_args", e2e_args.join(" ")),
        ("order", "ABBA".to_string()),
        ("host_threads", host_threads.unwrap_or_default()),
        ("popcount", on(succinct::hardware_popcount(), "hardware")),
        ("gather", on(succinct::hardware_gather(), "avx512")),
    ];
    let summary = render(&stamps, &rows, &differ);
    print!("{summary}");
    if !differ.is_empty() {
        eprintln!("ab: host-independent rows differ: {}", differ.join(", "));
    }
    let out = out.unwrap_or_else(|| root.join(format!("ab-{workload}.json")));
    std::fs::write(&out, summary).map_err(|e| format!("{}: {e}", out.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What the driver prints for one run, cut down to two rows.
    fn fixture(qps: f64, commit_us: f64) -> Run {
        let stderr = format!(
            "-- update-mixed: attempted 10 failed 0 correct true\n   \
             commit_p50_us {commit_us:>16.4}\n   queries_per_s {:>16.4}\n   \
             wal_bytes_per_update 39.1141\n",
            qps.round()
        );
        let stdout = format!(
            "{{\"workload\": \"update-mixed\", \"host_threads\": \"2\", \"seed\": \"42\"}}\n\
             {{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {{\"queries_per_s\": {{\"value\": {qps}, \"unit\": \"1/s\"}}}}}}\n"
        );
        parse_run(&stdout, &stderr).unwrap()
    }

    #[test]
    fn two_fixture_runs_summarize_to_ratios_wins_and_quartiles() {
        let (a, b) = (fixture(1000.5, 400.0), fixture(1250.25, 300.0));
        assert_eq!(a.rows["queries_per_s"], 1000.5, "the result line wins");
        assert_eq!(a.stamps["host_threads"], "2");
        // A second pair in which b loses both rows.
        let pairs = vec![(a, b), (fixture(1000.0, 400.0), fixture(900.0, 500.0))];
        let higher = higher_is_better(
            "{\"name\": \"queries_per_s\", \"unit\": \"1/s\", \"better\": \"higher\", \"bound\": 0.25},",
        );
        assert_eq!(higher, ["queries_per_s"]);
        let rows = summarize(&pairs, &higher);
        let row = |name: &str| rows.iter().find(|r| r.name == name).unwrap();
        let qps = row("queries_per_s");
        assert!(qps.higher_is_better);
        assert_eq!((qps.wins, qps.pairs), (1, 2));
        assert!((qps.median_ratio - (1250.25 / 1000.5 + 0.9) / 2.0).abs() < 1e-12);
        assert_eq!(qps.ratio_range, (0.9, 1250.25 / 1000.5));
        assert_eq!(qps.a, [1000.125, 1000.25, 1000.375]);
        let commit = row("commit_p50_us");
        assert_eq!((commit.wins, commit.median_ratio), (1, 1.0));
        assert_eq!(commit.b, [350.0, 400.0, 450.0]);
        assert_eq!(row("wal_bytes_per_update").ratio_range, (1.0, 1.0));
    }
}
