//! `table1-embedded` and `table1-sharded`: one caller runs the Table 1
//! log through `RpqDatabase::query_with` — over one mmap'd `RRPQM01`
//! file, or over `save_sharded(4)` where every step is a k-way gather.
//!
//! The log is replayed pass after pass, each pass in an order of its own
//! drawn from `--seed`, a share of `--seconds` after each of the run's
//! set-ups, and **a query's latency is the fastest of its repetitions**. The host this runs on (two
//! threads of a shared machine) alternates between speeds 20-38 % apart,
//! for a fraction of a second or half a minute at a time; half the time it
//! is slow. Pooling every repetition measured how much of a run the
//! neighbours took (quartile spread 15-18 % over ten runs of one input);
//! the fastest of ten repetitions spread over the run reads the program
//! (1-2 %). The same rule as `timeit`'s: noise only ever adds.

use crate::common::{distinct, run_notes, set_latency_metrics, AnswerSig, Ctx};
use crate::inputs::{
    check_pins, result_limit, sub_seed, Inputs, RenderedQuery, SplitMix, QUERY_TIMEOUT,
};
use crate::layers;
use crate::metrics::{pattern_metric, Measured, RunResult};
use crate::setup::{
    open_rss_mb, repeat_setup, setup_read, trace_path, warm_sample, write_sample, Layout,
    ReadSetup, Scratch, N_SHARDS, SETUP_REPEATS,
};
use crate::stats::{mean, median};
use crate::trace::Tracer;
use baselines::{AdjacencyIndex, NfaBfsEngine, PathEngine};
use ring_rpq::RpqDatabase;
use rpq_core::stats::RingStatistics;
use rpq_core::{
    planner, EngineOptions, EvalRoute, PreparedQuery, QueryOutput, RpqEngine, RpqQuery,
    TraversalStats, TripleSource,
};
use rpq_server::QuerySource;
use std::sync::Arc;
use std::time::Instant;

/// Passes made after each set-up whatever the clock says (a full run
/// makes ten or more in all). Two after each of three set-ups measure
/// 1 254 latencies, the fewest that support a p99.
const MIN_PASSES_PER_SETUP: usize = 2;

/// One untraced pass: per-query latency (µs) and answer signature, both
/// indexed as the log is; `None` marks a query that failed (error or
/// timeout).
pub struct Pass {
    pub lat_us: Vec<f64>,
    pub sigs: Vec<Option<AnswerSig>>,
}

/// Runs every query once in log order, string in → id pairs out.
pub fn run_pass(db: &RpqDatabase, queries: &[RenderedQuery], opts: &EngineOptions) -> Pass {
    let order: Vec<usize> = (0..queries.len()).collect();
    run_pass_in(db, queries, &order, opts)
}

/// Runs every query once, in the order given.
fn run_pass_in(
    db: &RpqDatabase,
    queries: &[RenderedQuery],
    order: &[usize],
    opts: &EngineOptions,
) -> Pass {
    let mut lat_us = vec![0.0; queries.len()];
    let mut sigs = vec![None; queries.len()];
    for &i in order {
        let q = &queries[i];
        let t = Instant::now();
        let out = db.query_with(&q.subject, &q.expr, &q.object, opts);
        lat_us[i] = t.elapsed().as_secs_f64() * 1e6;
        sigs[i] = match out {
            Ok(out) if !out.timed_out => Some(AnswerSig::of(&out.pairs, out.truncated)),
            _ => None,
        };
    }
    Pass { lat_us, sigs }
}

pub fn engine_options(edges: usize) -> EngineOptions {
    EngineOptions {
        limit: result_limit(edges),
        timeout: Some(QUERY_TIMEOUT),
        ..EngineOptions::default()
    }
}

/// What `baselines::NfaBfsEngine` over the ingested graph — an
/// implementation that shares nothing with the ring — answers for every
/// distinct query: `(index, signature)`.
fn nfa_bfs_answers(
    built: &RpqDatabase,
    queries: &[RenderedQuery],
    opts: &EngineOptions,
) -> Result<Vec<(usize, AnswerSig)>, String> {
    let mut reference = NfaBfsEngine::new(Arc::new(AdjacencyIndex::from_graph(built.graph())));
    distinct(queries)
        .into_iter()
        .map(|i| {
            let q = &queries[i];
            let parsed = built
                .parse_query(&q.subject, &q.expr, &q.object)
                .map_err(|e| format!("reference parse of query {i}: {e}"))?;
            let want = reference
                .run(&parsed, opts)
                .map_err(|e| format!("reference run of query {i}: {e}"))?;
            Ok((i, AnswerSig::of(&want.pairs, want.truncated)))
        })
        .collect()
}

/// How many of a pass's answers disagree with the reference.
fn mismatches_against(
    want: &[(usize, AnswerSig)],
    queries: &[RenderedQuery],
    got: &[Option<AnswerSig>],
) -> u64 {
    let mut bad = 0;
    for (i, want) in want {
        if !got[*i].is_some_and(|g| g.agrees(want)) {
            let q = &queries[*i];
            eprintln!(
                "answer mismatch on query {i}: {} {} {}",
                q.subject, q.expr, q.object
            );
            bad += 1;
        }
    }
    bad
}

fn mismatches_between(a: &[Option<AnswerSig>], b: &[Option<AnswerSig>]) -> u64 {
    a.iter()
        .zip(b)
        .filter(|(a, b)| !matches!((a, b), (Some(a), Some(b)) if a.agrees(b)))
        .count() as u64
}

pub fn run(sharded: bool, ctx: &Ctx) -> Result<RunResult, String> {
    let (name, layout) = if sharded {
        ("table1-sharded", Layout::Sharded)
    } else {
        ("table1-embedded", Layout::Mapped)
    };
    let sc = ctx.scale;
    let inputs = Inputs::generate(ctx.data_seed, sc.nodes, sc.preds, sc.edges, sc.log_scale);
    check_pins(name, sc, &inputs)?;
    let scratch = Scratch::new(name)?;
    let dump = scratch.path("graph.nt");
    std::fs::write(&dump, &inputs.dump).map_err(|e| format!("{}: {e}", dump.display()))?;
    let index = scratch.path(if sharded {
        "index.shards"
    } else {
        "index.rpqm"
    });
    let opts = engine_options(sc.edges);
    let queries = &inputs.queries;

    // After each set-up, its share of the measured phase: whole passes
    // over the log, each in a fresh order, over the index that set-up
    // opened. A query's latency is the fastest of its repetitions (see
    // the module comment); with the set-ups between them the repetitions
    // span the whole run, not one stretch of it.
    let mut rng = SplitMix(sub_seed(ctx.seed, 30));
    let mut best_us = vec![f64::INFINITY; queries.len()];
    let mut passes: Vec<Pass> = Vec::new();
    let (setup, setup_s) = repeat_setup(
        if ctx.trace { 1 } else { SETUP_REPEATS },
        |s: &ReadSetup| s.times,
        || setup_read(&dump, &index, layout),
        |setup: &ReadSetup, share: f64| {
            // Fill page cache and lazy state before anything is timed.
            for q in warm_sample(queries) {
                let _ = setup
                    .opened
                    .query_with(&q.subject, &q.expr, &q.object, &opts);
            }
            if ctx.trace {
                return;
            }
            let started = Instant::now();
            let before = passes.len();
            while passes.len() < before + MIN_PASSES_PER_SETUP
                || started.elapsed().as_secs_f64() < ctx.seconds * share
            {
                let order = rng.permutation(queries.len());
                let pass = run_pass_in(&setup.opened, queries, &order, &opts);
                for (best, &lat) in best_us.iter_mut().zip(&pass.lat_us) {
                    *best = best.min(lat);
                }
                passes.push(pass);
            }
        },
    )?;
    let mut m = Measured::default();
    let mut result = RunResult {
        notes: run_notes(
            ctx,
            &inputs,
            setup.base_triples,
            setup.index_bytes,
            opts.limit,
        ),
        ..Default::default()
    };

    if ctx.trace {
        let bad = traced(ctx, &setup, sharded, &inputs, &opts, &scratch, &mut m)?;
        result.attempted = queries.len() as u64;
        result.failed = bad;
        result.correct = bad == 0;
        result.metrics = m;
        return Ok(result.finish());
    }

    set_latency_metrics(
        &mut m,
        &best_us,
        best_us.len() * MIN_PASSES_PER_SETUP * SETUP_REPEATS,
        best_us.iter().sum(),
    );
    result.attempted = (passes.len() * queries.len()) as u64;
    result.failed = passes
        .iter()
        .map(|p| p.sigs.iter().filter(|s| s.is_none()).count() as u64)
        .sum();

    // Untimed: are the answers right, in every pass? (For the sharded
    // index this also shows them equal to the unsharded one's, which
    // passes the same check in `table1-embedded`; the traced run compares
    // the two directly.)
    let want = nfa_bfs_answers(&setup.built, queries, &opts)?;
    let mismatches: u64 = passes
        .iter()
        .map(|p| mismatches_against(&want, queries, &p.sigs))
        .sum();
    result.failed += mismatches;
    result.correct = mismatches == 0;
    result
        .notes
        .push(("passes".into(), passes.len().to_string()));

    m.set("setup_s", setup_s);
    m.set(
        "index_bytes_per_triple",
        setup.index_bytes as f64 / setup.base_triples.max(1) as f64,
    );
    let sample = scratch.path("warm.tsv");
    write_sample(&sample, warm_sample(queries))?;
    m.set(
        "open_rss_mb",
        open_rss_mb(ctx.children, layout, &setup.index_path, &sample, opts.limit)?,
    );
    result.metrics = m;
    Ok(result.finish())
}

/// One query, step by step, with a span around each call into a layer:
/// `parse` (the facade's `parse_query`) → `PreparedQuery::compile` →
/// `planner::plan` → `RpqEngine::over` → `evaluate_prepared`. Returns the
/// output and the whole query's duration in µs.
pub fn traced_query<S: TripleSource>(
    tr: &mut Tracer,
    qid: u32,
    source: &S,
    opts: &EngineOptions,
    parse: impl FnOnce() -> Result<RpqQuery, String>,
) -> Result<(QueryOutput, f64), String> {
    let ring = source.ring();
    let root = tr.begin("query", qid);
    let (parsed, _) = tr.time("automata.parse", qid, parse);
    let parsed = parsed?;
    let (prepared, _) = tr.time("core.plan.compile", qid, || {
        PreparedQuery::compile(
            &parsed.expr,
            &|l| ring.inverse_label(l),
            opts.bp_split_width,
        )
    });
    let prepared = prepared.map_err(|e| e.to_string())?;
    let stats = RingStatistics::with_parts(ring, source.delta(), source.shard_parts());
    let (plan, _) = tr.time("core.planner.plan", qid, || {
        planner::plan(&stats, &prepared, parsed.subject, parsed.object, opts)
    });
    let (mut engine, _) = tr.time("core.engine.new", qid, || RpqEngine::over(source));
    let (out, _) = tr.time("core.engine.evaluate", qid, || {
        engine.evaluate_prepared(&prepared, parsed.subject, parsed.object, opts)
    });
    let total_us = tr.end(root) as f64 / 1e3;
    let out = out.map_err(|e| e.to_string())?;
    debug_assert_eq!(out.plan.as_ref().map(|p| p.route), Some(plan.route));
    Ok((out, total_us))
}

/// Mean self time (µs per query) of the spans [`traced_query`] records,
/// as per-layer metrics, so the shares add up to the traced mean.
pub fn set_span_metrics(tr: &Tracer, n_queries: f64, m: &mut Measured) {
    let totals = tr.totals();
    let self_us = |name: &str| {
        totals
            .get(name)
            .map_or(0.0, |t| t.self_ns as f64 / 1e3 / n_queries)
    };
    m.set("automata.parse_us", self_us("automata.parse"));
    m.set("core.plan.compile_us", self_us("core.plan.compile"));
    m.set("core.planner.plan_us", self_us("core.planner.plan"));
    m.set("core.engine.new_us", self_us("core.engine.new"));
    // evaluate_prepared plans again inside; take that share out.
    m.set(
        "core.engine.evaluate_us",
        (self_us("core.engine.evaluate") - self_us("core.planner.plan")).max(0.0),
    );
}

/// What the traced pass learns about one query.
struct Traced {
    total_us: f64,
    route: Option<EvalRoute>,
    stats: TraversalStats,
    reported: u64,
    shards_touched: usize,
    probes: u64,
    sig: Option<AnswerSig>,
}

/// `evaluate_prepared` alone, timed (µs), for every query over `db`, with
/// the answers' signatures.
fn evaluate_times(
    db: &RpqDatabase,
    queries: &[RenderedQuery],
    opts: &EngineOptions,
) -> Result<(Vec<f64>, Vec<Option<AnswerSig>>), String> {
    let snap = QuerySource::snapshot(db);
    let mut out = Vec::with_capacity(queries.len());
    let mut sigs = Vec::with_capacity(queries.len());
    for q in queries {
        let parsed = db
            .parse_query(&q.subject, &q.expr, &q.object)
            .map_err(|e| e.to_string())?;
        let prepared = PreparedQuery::compile(
            &parsed.expr,
            &|l| snap.ring.inverse_label(l),
            opts.bp_split_width,
        )
        .map_err(|e| e.to_string())?;
        let mut engine = RpqEngine::over(&snap);
        let t = Instant::now();
        let res = engine.evaluate_prepared(&prepared, parsed.subject, parsed.object, opts);
        out.push(t.elapsed().as_secs_f64() * 1e6);
        let res = res.map_err(|e| e.to_string())?;
        sigs.push((!res.timed_out).then(|| AnswerSig::of(&res.pairs, res.truncated)));
    }
    Ok((out, sigs))
}

/// The traced run: the same log, but the driver calls the pipeline step
/// by step — `parse_query` → `PreparedQuery::compile` → `planner::plan` →
/// `RpqEngine::over` → `evaluate_prepared` — with a span around each
/// call, then probes the layers underneath. Returns the number of
/// answers that disagreed with the untraced pass.
fn traced(
    ctx: &Ctx,
    setup: &ReadSetup,
    sharded: bool,
    inputs: &Inputs,
    opts: &EngineOptions,
    scratch: &Scratch,
    m: &mut Measured,
) -> Result<u64, String> {
    let db = &setup.opened;
    let queries = &inputs.queries;
    // The unsharded index the sharded answers must equal.
    let plain = if sharded {
        let path = scratch.path("plain.rpqm");
        let io = |e: std::io::Error| format!("{}: {e}", path.display());
        setup.built.save_mapped(&path).map_err(io)?;
        Some(RpqDatabase::open_with(&path, ring::mapped::OpenMode::Mmap).map_err(io)?)
    } else {
        None
    };
    let n = queries.len().max(1) as f64;

    // Set-up, phase by phase.
    let times = setup.times;
    m.set("facade.ingest.parse_s", times.ingest_s);
    m.set(
        "facade.ingest.triples_per_s",
        setup.base_triples as f64 / times.ingest_s.max(1e-9),
    );
    m.set("facade.from_parts_s", times.build_s);
    m.set("facade.open_ms", times.open_s * 1e3);
    if sharded {
        let t = Instant::now();
        let idx =
            ring::sharded::ShardedIndex::build(setup.built.graph(), N_SHARDS, Default::default());
        m.set("ring.sharded.build_s", t.elapsed().as_secs_f64());
        let sizes: Vec<f64> = idx.shards().iter().map(|r| r.n_triples() as f64).collect();
        m.set(
            "ring.sharded.balance",
            sizes.iter().cloned().fold(0.0, f64::max) / mean(&sizes).max(1.0),
        );
    } else {
        m.set("facade.save_mapped_ms", times.save_s * 1e3);
        layers::ring_phase_probes(setup, scratch, m)?;
    }
    layers::space_rows(&setup.built, m);

    // The untraced pass the traced one is compared with.
    let untraced = run_pass(db, queries, opts);
    let untraced_busy: f64 = untraced.lat_us.iter().sum();
    m.set("facade.query_with_mean_us", untraced_busy / n);

    let snap = QuerySource::snapshot(db);
    let probes_now = || -> Vec<u64> { snap.shards.iter().map(|p| p.probe_count()).collect() };
    let mut tr = Tracer::new();
    let mut per_query = Vec::with_capacity(queries.len());
    for (i, q) in queries.iter().enumerate() {
        let qid = i as u32;
        let before = probes_now();
        let (out, total_us) = traced_query(&mut tr, qid, &snap, opts, || {
            db.parse_query(&q.subject, &q.expr, &q.object)
                .map_err(|e| e.to_string())
        })?;
        let touched: Vec<u64> = probes_now()
            .iter()
            .zip(&before)
            .map(|(a, b)| a - b)
            .collect();
        per_query.push(Traced {
            total_us,
            route: out.plan.as_ref().map(|p| p.route),
            stats: out.stats,
            reported: out.pairs.len() as u64,
            shards_touched: touched.iter().filter(|&&d| d > 0).count(),
            probes: touched.iter().sum(),
            sig: (!out.timed_out).then(|| AnswerSig::of(&out.pairs, out.truncated)),
        });
    }
    tr.check_nesting()?;
    let traced_busy: f64 = per_query.iter().map(|t| t.total_us).sum();
    m.set(
        "trace.overhead_ratio",
        untraced_busy / traced_busy.max(1e-9),
    );
    let sigs: Vec<Option<AnswerSig>> = per_query.iter().map(|t| t.sig).collect();
    let mut bad = mismatches_between(&untraced.sigs, &sigs);

    set_span_metrics(&tr, n, m);

    // Table 2's split, the counters, and the output-sensitivity gap.
    let of = |keep: &dyn Fn(usize) -> bool| -> Vec<f64> {
        (0..queries.len())
            .filter(|&i| keep(i))
            .map(|i| per_query[i].total_us)
            .collect()
    };
    let vv = of(&|i| queries[i].is_var_var());
    let cv = of(&|i| !queries[i].is_var_var());
    m.set("core.engine.cv_p50_us", median(&cv));
    m.set("core.engine.vv_p50_us", median(&vv));
    m.set("core.engine.cv_mean_us", mean(&cv));
    m.set("core.engine.vv_mean_us", mean(&vv));
    let sum = |f: &dyn Fn(&Traced) -> u64| per_query.iter().map(f).sum::<u64>() as f64;
    m.set(
        "core.engine.product_nodes_per_query",
        sum(&|t| t.stats.product_nodes) / n,
    );
    m.set(
        "core.engine.rank_ops_per_query",
        sum(&|t| t.stats.rank_ops) / n,
    );
    m.set(
        "core.engine.wavelet_nodes_per_query",
        sum(&|t| t.stats.wavelet_nodes) / n,
    );
    let (ops, saved) = (sum(&|t| t.stats.rank_ops), sum(&|t| t.stats.rank_ops_saved));
    m.set(
        "core.engine.rank_ops_saved_ratio",
        saved / (ops + saved).max(1.0),
    );
    m.set(
        "core.engine.nodes_per_result",
        sum(&|t| t.stats.product_nodes) / sum(&|t| t.reported).max(1.0),
    );
    let (vv_nodes, vv_reported) = (0..queries.len())
        .filter(|&i| queries[i].is_var_var())
        .fold((0u64, 0u64), |(a, b), i| {
            (
                a + per_query[i].stats.product_nodes,
                b + per_query[i].reported,
            )
        });
    m.set(
        "core.engine.nodes_per_result_vv",
        vv_nodes as f64 / vv_reported.max(1) as f64,
    );
    for route in EvalRoute::ALL {
        let lat: Vec<f64> = per_query
            .iter()
            .filter(|t| t.route == Some(route))
            .map(|t| t.total_us)
            .collect();
        m.set(
            format!("core.route.{}.queries", route.name()),
            lat.len() as f64,
        );
        m.set(format!("core.route.{}.mean_us", route.name()), mean(&lat));
    }
    for pattern in 0..20 {
        m.set(
            pattern_metric(pattern),
            median(&of(&|i| queries[i].pattern == pattern)),
        );
    }

    layers::succinct_probes(&snap.ring, ctx.seed, m);
    layers::ring_step_probes(&snap.ring, ctx.seed, m);
    if let Some(plain) = &plain {
        // Same queries, same calls, over the bare ring.
        let (over_shards, sharded_sigs) = evaluate_times(db, queries, opts)?;
        let (over_ring, plain_sigs) = evaluate_times(plain, queries, opts)?;
        // Scatter-gather must answer exactly what the one ring does.
        bad += mismatches_between(&sharded_sigs, &plain_sigs);
        m.set(
            "core.source.sharded.slowdown",
            mean(&over_shards) / mean(&over_ring).max(1e-9),
        );
        m.set(
            "core.source.sharded.probes_per_query",
            sum(&|t| t.probes) / n,
        );
        m.set(
            "core.source.sharded.shards_touched_per_query",
            per_query.iter().map(|t| t.shards_touched).sum::<usize>() as f64 / n,
        );
        // Single-predicate queries: 1.0 once routing is shard-local.
        let single: Vec<f64> = (0..queries.len())
            .filter(|&i| queries[i].expr.matches("<p").count() == 1)
            .map(|i| per_query[i].shards_touched as f64)
            .collect();
        m.set(
            "core.source.sharded.single_pred_shards_touched",
            mean(&single),
        );
    } else {
        bad += layers::planner_regret(db, queries, 5, opts, m)?;
        layers::parallel_probes(db, queries, &untraced.lat_us, 20, opts, m)?;
        layers::baseline_probes(&setup.built, queries, &untraced.lat_us, 4, opts, m)?;
        if ctx.children {
            layers::cold_first_answer(
                Layout::Mapped,
                &setup.index_path,
                &queries[0],
                opts.limit,
                scratch,
                m,
            )?;
        }
    }
    let name = if sharded {
        "table1-sharded"
    } else {
        "table1-embedded"
    };
    let out = trace_path(name)?;
    tr.write_json(&out)
        .map_err(|e| format!("{}: {e}", out.display()))?;
    Ok(bad)
}
