//! The end-to-end scoreboard: four named workloads driven through the
//! public API only, fed rendered text, with answers verified and every
//! metric printed by name. See `README.md` beside this file.
//!
//! ```text
//! e2e --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--data-seed N]
//! e2e --workload <name|all> --repeat K [--trace 1]   # a result set on stdout
//! e2e compare <a.json> <b.json>
//! e2e manifest                                        # prints BENCHMARK.json
//! ```

mod common;
mod compare;
mod inputs;
mod json;
mod layers;
mod metrics;
mod served;
mod setup;
mod stats;
mod table1;
mod trace;
mod update;

use common::Ctx;
use compare::WorkloadRuns;
use metrics::{RunResult, END_TO_END, RUN_SECONDS, WORKLOADS};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

fn run_workload(name: &str, ctx: &Ctx) -> Result<RunResult, String> {
    match name {
        "table1-embedded" => table1::run(false, ctx),
        "table1-sharded" => table1::run(true, ctx),
        "zipf-served" => served::run(ctx),
        "update-mixed" => update::run(ctx),
        _ => Err(format!(
            "unknown workload '{name}' (one of: {})",
            WORKLOADS.map(|w| w.0).join(", ")
        )),
    }
}

struct Args {
    workload: String,
    data_seed: u64,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: Option<usize>,
    smoke: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        data_seed: inputs::DEFAULT_SEED,
        seed: inputs::DEFAULT_SEED,
        seconds: RUN_SECONDS as f64,
        trace: false,
        repeat: None,
        smoke: false,
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => a.workload = value("a name")?,
            "--seed" => {
                a.seed = value("a number")?
                    .parse()
                    .map_err(|_| "--seed: not a number")?
            }
            "--data-seed" => {
                a.data_seed = value("a number")?
                    .parse()
                    .map_err(|_| "--data-seed: not a number")?
            }
            "--seconds" => {
                a.seconds = value("a number")?
                    .parse()
                    .map_err(|_| "--seconds: not a number")?;
                if !(a.seconds > 0.0 && a.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                // `--trace`, `--trace 0` and `--trace 1` are all accepted.
                a.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--repeat" => {
                a.repeat = Some(
                    value("a count")?
                        .parse()
                        .map_err(|_| "--repeat: not a count")?,
                );
                if a.repeat == Some(0) {
                    return Err("--repeat must be at least 1".into());
                }
            }
            "--smoke" => a.smoke = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if a.workload.is_empty() {
        return Err("--workload <name> is required".into());
    }
    Ok(a)
}

/// Everything measured, for a person reading the terminal.
fn print_human(name: &str, r: &RunResult) {
    eprintln!(
        "-- {name}: attempted {} failed {} correct {}",
        r.attempted, r.failed, r.correct
    );
    for (k, v) in &r.metrics.0 {
        eprintln!("   {k:<48} {v:>16.4}");
    }
}

/// The contract's form: one workload, one run, the result as the last
/// line of standard output.
fn single_run(a: &Args, ctx: &Ctx) -> Result<ExitCode, String> {
    let r = run_workload(&a.workload, ctx)?;
    print_human(&a.workload, &r);
    let stamps: Vec<String> = setup::host_stamps()
        .into_iter()
        .chain(r.notes.iter().cloned())
        .map(|(k, v)| format!("\"{k}\": \"{v}\""))
        .collect();
    println!(
        "{{\"workload\": \"{}\", {}}}",
        a.workload,
        stamps.join(", ")
    );
    println!("{}", metrics::result_line(ctx.trace, &r)?);
    Ok(if r.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    })
}

/// `--repeat K` (and `--workload all`): K untraced runs per workload,
/// plus one traced run with `--trace 1`, summarised as a result set.
fn repeated_runs(a: &Args, ctx: &Ctx) -> Result<ExitCode, String> {
    let names: Vec<&str> = if a.workload == "all" {
        WORKLOADS.iter().map(|w| w.0).collect()
    } else {
        vec![a.workload.as_str()]
    };
    let repeat = a.repeat.unwrap_or(1);
    let mut set: BTreeMap<String, WorkloadRuns> = BTreeMap::new();
    let mut correct = true;
    for name in names {
        let w = set.entry(name.to_string()).or_default();
        for i in 0..repeat {
            let t = Instant::now();
            let r = run_workload(
                name,
                &Ctx {
                    trace: false,
                    ..*ctx
                },
            )?;
            eprintln!(
                "{name}: run {}/{repeat} took {:.1}s",
                i + 1,
                t.elapsed().as_secs_f64()
            );
            correct &= r.correct;
            w.attempted += r.attempted;
            w.failed += r.failed;
            w.notes = r.notes;
            w.runs.push(r.metrics);
        }
        if a.trace {
            let r = run_workload(
                name,
                &Ctx {
                    trace: true,
                    ..*ctx
                },
            )?;
            correct &= r.correct;
            w.layers = Some(r.metrics);
        }
    }
    let mut stamps = setup::host_stamps();
    stamps.push(("seconds".into(), a.seconds.to_string()));
    stamps.push(("repeat".into(), repeat.to_string()));
    print!("{}", compare::render_set(&stamps, &set));
    for (name, w) in &set {
        for def in END_TO_END.iter().filter(|def| def.applies_to(name)) {
            let values: Vec<f64> = w.runs.iter().filter_map(|r| r.get(def.name)).collect();
            let s = stats::Spread::of(&values);
            eprintln!(
                "{name:<18} {:<24} median {:>14.4} {:<4} spread {:>5.1}% (bound {:.0}%)",
                def.name,
                s.median,
                def.unit,
                s.relative() * 100.0,
                def.bound * 100.0
            );
        }
    }
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    })
}

fn real_main(started: Instant) -> Result<ExitCode, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("child-open") => {
            return setup::child_open(started, &args[1..]).map(|()| ExitCode::SUCCESS)
        }
        Some("manifest") => {
            print!("{}", metrics::manifest());
            return Ok(ExitCode::SUCCESS);
        }
        Some("compare") => {
            let [_, a, b] = args.as_slice() else {
                return Err("usage: e2e compare <a.json> <b.json>".into());
            };
            let read = |p: &String| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
            let (table, agree) = compare::compare(&read(a)?, &read(b)?)?;
            print!("{table}");
            return Ok(if agree {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            });
        }
        _ => {}
    }
    let a = parse_args(&args)?;
    let ctx = Ctx {
        scale: if a.smoke {
            &inputs::SMOKE
        } else {
            &inputs::FULL
        },
        data_seed: a.data_seed,
        seed: a.seed,
        seconds: a.seconds,
        trace: a.trace,
        children: true,
    };
    if a.repeat.is_some() || a.workload == "all" {
        repeated_runs(&a, &ctx)
    } else {
        single_run(&a, &ctx)
    }
}

fn main() -> ExitCode {
    // Taken first: a child process reports `main` → first answer.
    let started = Instant::now();
    match real_main(started) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("e2e: {msg}");
            ExitCode::from(3)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{per_layer, reported};

    fn smoke(trace: bool) -> Ctx<'static> {
        Ctx {
            scale: &inputs::SMOKE,
            data_seed: 7,
            seed: 7,
            seconds: 0.2,
            trace,
            // The running binary is the test harness, not the driver.
            children: false,
        }
    }

    /// All four workloads end to end at the smoke scale: every answer
    /// verified, every end-to-end metric a real number.
    #[test]
    fn smoke_runs_of_all_four_workloads_are_correct() {
        for (name, _) in WORKLOADS {
            let r = run_workload(name, &smoke(false)).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(
                r.correct && r.failed == 0 && r.attempted > 0,
                "{name}: {} failed",
                r.failed
            );
            let line = metrics::result_line(false, &r).unwrap_or_else(|e| panic!("{name}: {e}"));
            let v = json::parse(&line).unwrap();
            assert_eq!(v.get("metrics").unwrap().as_obj().unwrap().len(), 6);
            // All ten end-to-end metrics, each on the workloads it is
            // defined for, are measured with tracing off.
            for def in END_TO_END {
                assert_eq!(
                    r.metrics.get(def.name).is_some(),
                    def.applies_to(name),
                    "{name}: {}",
                    def.name
                );
            }
        }
    }

    /// The traced runs: every name they emit is in the registry, spans
    /// nest, and each workload lights up its own layers.
    #[test]
    fn smoke_traced_runs_emit_only_registered_names() {
        let registered: Vec<String> = per_layer().into_iter().map(|(n, ..)| n).collect();
        let lit = [
            ("table1-embedded", "core.engine.evaluate_us"),
            ("table1-sharded", "core.source.sharded.probes_per_query"),
            ("zipf-served", "server.result_cache.hit_ratio"),
            ("update-mixed", "ring.wal.append_us"),
        ];
        for (name, must_move) in lit {
            let r = run_workload(name, &smoke(true)).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(r.correct, "{name}: {} failed", r.failed);
            for k in r.metrics.0.keys() {
                assert!(
                    registered.contains(k),
                    "{name} emitted unregistered metric {k}"
                );
            }
            assert!(
                r.metrics.get(must_move).is_some_and(|v| v > 0.0),
                "{name}: {must_move}"
            );
            assert!(
                r.metrics
                    .get("trace.overhead_ratio")
                    .is_some_and(|v| v > 0.0),
                "{name}"
            );
            assert_eq!(reported(true, &r.metrics).unwrap().len(), registered.len());
            let path = setup::trace_path(name).unwrap();
            let spans = json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
            assert!(
                !spans.get("spans").unwrap().as_arr().unwrap().is_empty(),
                "{name}"
            );
            let _ = std::fs::remove_file(path);
        }
    }

    /// The standalone package (`Cargo.toml` beside this file) must compile
    /// the product crates exactly as the workspace does, or the benchmark
    /// would measure a build no user gets.
    #[test]
    fn the_package_builds_like_the_workspace() {
        fn profiles(manifest: &str) -> Vec<&str> {
            let mut inside = false;
            manifest
                .lines()
                .map(str::trim)
                .filter(|l| !l.is_empty() && !l.starts_with('#'))
                .filter(|l| {
                    if l.starts_with('[') {
                        inside = l.starts_with("[profile");
                    }
                    inside
                })
                .collect()
        }
        let workspace = profiles(include_str!("../../../../../Cargo.toml"));
        assert!(!workspace.is_empty(), "the workspace sets a profile");
        assert_eq!(profiles(include_str!("Cargo.toml")), workspace);
    }

    #[test]
    fn arguments_follow_the_contract() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_args(&args(
            "--workload zipf-served --seed 9 --seconds 3 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("zipf-served", 9, 3.0, true)
        );
        let a = parse_args(&args("--workload update-mixed --trace 0")).unwrap();
        assert_eq!(
            (a.seed, a.seconds, a.trace),
            (inputs::DEFAULT_SEED, RUN_SECONDS as f64, false)
        );
        assert!(
            parse_args(&args("--workload x --trace --repeat 5"))
                .unwrap()
                .trace
        );
        let a = parse_args(&args("--workload x --seed 5 --data-seed 6")).unwrap();
        assert_eq!((a.seed, a.data_seed), (5, 6));
        assert_eq!(
            parse_args(&args("--workload x --seed 5"))
                .unwrap()
                .data_seed,
            inputs::DEFAULT_SEED
        );
        assert!(parse_args(&args("--seed 1")).is_err());
        assert!(parse_args(&args("--workload x --seconds 0")).is_err());
        assert!(parse_args(&args("--workload x --bogus")).is_err());
        assert!(run_workload("nope", &smoke(false)).is_err());
    }
}
