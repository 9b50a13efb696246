//! `update-mixed`: writes beside reads. One caller loops over rounds of
//! 256 updates → `commit_durable` (WAL fsync; default auto-compaction) →
//! 16 queries over ring ⊎ delta, for one whole compaction cycle: from the
//! saved snapshot, through the overlay growing, to the commit that
//! compacts it. Afterwards the database is reopened from disk and
//! compared with the driver's own set model.
//!
//! A run **replays that cycle** — the same updates, the same queries,
//! from the same snapshot reopened — until `--seconds` are over, and an
//! operation's latency is the fastest of its repetitions, for the reason
//! `table1.rs` gives (the host is slow half the time; pooled over one
//! long loop, ten runs of one input spread 8-10 %).

use crate::common::{run_notes, set_latency_metrics, AnswerSig, Ctx};
use crate::inputs::{
    check_pins, node_name, pred_name, render_op, result_limit, sub_seed, Inputs, RenderedOp,
    RenderedQuery, SplitMix, OPS_PER_ROUND, QUERIES_PER_ROUND, QUERY_TIMEOUT,
};
use crate::metrics::{Measured, RunResult};
use crate::setup::{
    open_rss_mb, repeat_setup, setup_live, trace_path, warm_sample, write_sample, Layout,
    LiveSetup, Scratch, LIVE_SETUP_REPEATS,
};
use crate::stats::{mean, median, quantile_sorted, sort, tail_at_most};
use crate::table1::{set_span_metrics, traced_query};
use crate::trace::Tracer;
use baselines::{AdjacencyIndex, NfaBfsEngine, PathEngine};
use ring::wal::{Wal, WalOp};
use ring::{Graph, Id, Triple};
use ring_rpq::UpdatableDatabase;
use rpq_core::EngineOptions;
use rpq_server::QuerySource;
use std::collections::{BTreeSet, HashMap};
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use workload::{UpdateGen, UpdateGenConfig};

/// One round in this many has its answers checked against the model.
const SPOT_CHECK_EVERY: usize = 16;

/// Cycles every run replays whatever the clock says (a full run replays
/// six or more).
const MIN_CYCLES: usize = 3;

fn update_gen(inputs: &Inputs) -> UpdateGen {
    UpdateGen::new(
        &inputs.graph,
        UpdateGenConfig {
            delete_ratio: 0.4,
            new_node_ratio: 0.1,
            new_pred_ratio: 0.0,
            // The workload commits on its own schedule.
            commit_every: usize::MAX,
            compact_ratio: 0.0,
            seed: sub_seed(inputs.seed, 3),
            ..UpdateGenConfig::default()
        },
    )
}

/// The next `n` edits of the stream, rendered, with their id-level form
/// for the model.
fn next_round(gen: &mut UpdateGen, n: usize) -> Vec<(RenderedOp, Triple)> {
    let mut ops = Vec::with_capacity(n);
    while ops.len() < n {
        ops.extend(render_op(gen.next_op()));
    }
    ops
}

/// How a round's commit is driven.
enum Commit {
    /// `commit_durable` on a database opened with `open_durable`: the
    /// user's call, timed whole.
    Durable,
    /// The same two steps called one by one from here — `Wal::append_batch`
    /// (frame + fsync), then the in-memory publish — so each gets a span.
    Stepwise(Wal),
}

/// Everything one loop over rounds measured.
#[derive(Default)]
struct LoopStats {
    ops: u64,
    commit_us: Vec<f64>,
    /// Rounds whose commit ran an auto-compaction.
    compacted: Vec<bool>,
    /// Length of the write-ahead log after each round's commit.
    wal_len: Vec<u64>,
    apply_us: Vec<f64>,
    append_us: Vec<f64>,
    publish_us: Vec<f64>,
    /// Query latencies of each round.
    query_us: Vec<Vec<f64>>,
    /// The answers' signatures, round by round.
    sigs: Vec<Vec<Option<AnswerSig>>>,
    peak_entries: usize,
    failed: u64,
    mismatches: u64,
}

impl LoopStats {
    fn queries(&self) -> u64 {
        self.query_us.iter().map(|r| r.len() as u64).sum()
    }

    /// Query latencies, pooled, and the time the loop kept the caller
    /// busy (updates and commits included).
    fn queries_and_busy_us(&self) -> (Vec<f64>, f64) {
        let lat: Vec<f64> = self.query_us.iter().flatten().copied().collect();
        let busy = lat.iter().sum::<f64>()
            + self.apply_us.iter().sum::<f64>()
            + self.commit_us.iter().sum::<f64>();
        (lat, busy)
    }

    /// Keeps, operation by operation, the faster of `self` and a
    /// repetition of the same rounds.
    fn keep_fastest(&mut self, again: &LoopStats) {
        fn keep(best: &mut [f64], again: &[f64]) {
            for (b, &a) in best.iter_mut().zip(again) {
                *b = b.min(a);
            }
        }
        keep(&mut self.commit_us, &again.commit_us);
        keep(&mut self.apply_us, &again.apply_us);
        for (best, again) in self.query_us.iter_mut().zip(&again.query_us) {
            keep(best, again);
        }
    }
}

/// Maps the model (generator ids) to the database's ids by name.
fn model_in_db_ids(
    db: &UpdatableDatabase,
    model: &BTreeSet<Triple>,
) -> Result<Vec<Triple>, String> {
    // Each name is looked up once (a lookup takes the dictionary lock).
    fn memo(
        seen: &mut HashMap<Id, Id>,
        id: Id,
        lookup: impl FnOnce() -> Option<Id>,
    ) -> Result<Id, String> {
        if let Some(&v) = seen.get(&id) {
            return Ok(v);
        }
        let v = lookup().ok_or_else(|| format!("id {id} has no name in the database"))?;
        seen.insert(id, v);
        Ok(v)
    }
    let (mut nodes, mut preds) = (HashMap::new(), HashMap::new());
    let mut out = Vec::with_capacity(model.len());
    for t in model {
        let s = memo(&mut nodes, t.s, || db.node_id(&node_name(t.s)))?;
        let p = memo(&mut preds, t.p, || db.pred_id(&pred_name(t.p)))?;
        let o = memo(&mut nodes, t.o, || db.node_id(&node_name(t.o)))?;
        out.push(Triple::new(s, p, o));
    }
    out.sort_unstable();
    Ok(out)
}

/// Checks a round's answers against `baselines::NfaBfsEngine` over the
/// driver's model — an engine that shares nothing with ring or delta.
/// (`rpq_core::oracle` would do, but its variable-subject scan takes
/// seconds per query at this size, and the check runs every few rounds.)
fn spot_check(
    db: &UpdatableDatabase,
    model: &BTreeSet<Triple>,
    queries: &[&RenderedQuery],
    got: &[Option<AnswerSig>],
    opts: &EngineOptions,
) -> Result<u64, String> {
    let triples = model_in_db_ids(db, model)?;
    let snap = db.store().snapshot();
    let graph = Graph::new(triples, snap.n_nodes(), snap.graph.n_preds());
    let mut reference = NfaBfsEngine::new(Arc::new(AdjacencyIndex::from_graph(&graph)));
    let mut bad = 0;
    for (q, got) in queries.iter().zip(got) {
        let parsed = db
            .parse_query(&q.subject, &q.expr, &q.object)
            .map_err(|e| e.to_string())?;
        let want = reference.run(&parsed, opts).map_err(|e| e.to_string())?;
        let want = AnswerSig::of(&want.pairs, want.truncated);
        if !got.is_some_and(|g| g.agrees(&want)) {
            eprintln!(
                "answer mismatch under updates: {} {} {}",
                q.subject, q.expr, q.object
            );
            bad += 1;
        }
    }
    Ok(bad)
}

/// Runs rounds until `seconds` passed, the minimum rounds and
/// compactions are met, and the current compaction cycle is complete.
/// Each round asks the next 16 queries of the pool, dealt like cards:
/// the whole pool in an order drawn from `--seed`, then again in another.
#[allow(clippy::too_many_arguments)]
fn drive(
    ctx: &Ctx,
    db: &UpdatableDatabase,
    mut commit: Commit,
    wal_path: &Path,
    gen: &mut UpdateGen,
    model: &mut BTreeSet<Triple>,
    pool: &[RenderedQuery],
    opts: &EngineOptions,
    seconds: f64,
    min_compactions: u64,
    spot_checks: bool,
    mut tracer: Option<&mut Tracer>,
) -> Result<LoopStats, String> {
    let sc = ctx.scale;
    let mut st = LoopStats::default();
    let mut rng = SplitMix(sub_seed(ctx.seed, 4));
    let mut deck: Vec<usize> = Vec::new();
    let mut compactions = 0u64;
    let started = Instant::now();
    loop {
        let round = st.commit_us.len();
        let time_up = started.elapsed().as_secs_f64() >= seconds;
        let enough = round >= sc.min_rounds && compactions >= min_compactions;
        let at_boundary = min_compactions == 0 || st.compacted.last() == Some(&true);
        // A cycle that never ends must not hold the run hostage.
        let overdue =
            started.elapsed().as_secs_f64() >= 3.0 * seconds.max(10.0) && round >= sc.min_rounds;
        if (time_up && enough && at_boundary) || (overdue && round > 0) {
            break;
        }
        let ops = next_round(gen, OPS_PER_ROUND);
        let qid = round as u32;
        let root = tracer.as_deref_mut().map(|t| t.begin("round", qid));

        let t = Instant::now();
        let apply = tracer
            .as_deref_mut()
            .map(|t| t.begin("facade.updatable.apply", qid));
        for ((insert, s, p, o), _) in &ops {
            if *insert {
                db.insert(s, p, o);
            } else {
                db.delete(s, p, o);
            }
        }
        if let (Some(t), Some(id)) = (tracer.as_deref_mut(), apply) {
            t.end(id);
        }
        st.apply_us.push(t.elapsed().as_secs_f64() * 1e6);

        let before = db.stats().compactions;
        let t = Instant::now();
        match &mut commit {
            Commit::Durable => {
                db.commit_durable().map_err(|e| format!("commit: {e}"))?;
            }
            Commit::Stepwise(wal) => {
                let logged: Vec<WalOp> = ops
                    .iter()
                    .map(|((insert, s, p, o), _)| {
                        let (s, p, o) = (s.clone(), p.clone(), o.clone());
                        if *insert {
                            WalOp::Insert { s, p, o }
                        } else {
                            WalOp::Delete { s, p, o }
                        }
                    })
                    .collect();
                let tr = tracer.as_deref_mut().expect("stepwise commits are traced");
                let epoch = db.epoch() + 1;
                let (res, ns) =
                    tr.time("ring.wal.append", qid, || wal.append_batch(&logged, epoch));
                res.map_err(|e| format!("WAL append: {e}"))?;
                st.append_us.push(ns as f64 / 1e3);
                let (res, ns) = tr.time("ring.store.commit", qid, || db.commit_durable());
                res.map_err(|e| format!("commit: {e}"))?;
                st.publish_us.push(ns as f64 / 1e3);
            }
        }
        st.commit_us.push(t.elapsed().as_secs_f64() * 1e6);
        st.wal_len.push(wal_len(wal_path));
        let stats = db.stats();
        st.compacted.push(stats.compactions > before);
        compactions += stats.compactions - before;
        st.peak_entries = st.peak_entries.max(stats.delta_adds + stats.delta_deletes);
        st.ops += ops.len() as u64;
        for ((insert, ..), t) in &ops {
            if *insert {
                model.insert(*t);
            } else {
                model.remove(t);
            }
        }

        let picked: Vec<&RenderedQuery> = (0..QUERIES_PER_ROUND)
            .map(|_| {
                if deck.is_empty() {
                    deck = rng.permutation(pool.len());
                }
                &pool[deck.pop().expect("the deck was just dealt")]
            })
            .collect();
        let mut lat = Vec::with_capacity(picked.len());
        let mut got = Vec::with_capacity(picked.len());
        for q in &picked {
            let t = Instant::now();
            let out = match tracer.as_deref_mut() {
                Some(tr) => {
                    let snap = db.store().snapshot();
                    // Spans of one round share its id.
                    traced_query(tr, qid, &*snap, opts, || {
                        db.parse_query(&q.subject, &q.expr, &q.object)
                            .map_err(|e| e.to_string())
                    })
                    .map(|(out, _)| out)
                }
                None => db
                    .query_with(&q.subject, &q.expr, &q.object, opts)
                    .map_err(|e| e.to_string()),
            };
            lat.push(t.elapsed().as_secs_f64() * 1e6);
            got.push(match out {
                Ok(out) if !out.timed_out => Some(AnswerSig::of(&out.pairs, out.truncated)),
                _ => None,
            });
        }
        if let (Some(t), Some(id)) = (tracer.as_deref_mut(), root) {
            t.end(id);
        }
        st.failed += got.iter().filter(|g| g.is_none()).count() as u64;
        st.query_us.push(lat);
        if spot_checks && round % SPOT_CHECK_EVERY == 0 {
            st.mismatches += spot_check(db, model, &picked, &got, opts)?;
        }
        st.sigs.push(got);
    }
    Ok(st)
}

fn wal_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

/// Sets the write-path metrics from a loop whose log was `wal_before`
/// bytes long when it started and whose commits were each measured at
/// least `least_repeats` times.
fn set_commit_metrics(st: &LoopStats, least_repeats: usize, wal_before: u64, m: &mut Measured) {
    let mut commits = st.commit_us.clone();
    sort(&mut commits);
    m.set("commit_p50_us", quantile_sorted(&commits, 0.5));
    m.set(
        "commit_p95_us",
        quantile_sorted(&commits, tail_at_most(commits.len() * least_repeats, 0.95)),
    );
    // Over the first compaction cycle, which every loop runs whole: a
    // count over a frozen prefix of the stream repeats exactly.
    let rounds = st
        .compacted
        .iter()
        .position(|&c| c)
        .map_or(st.wal_len.len(), |last| last + 1);
    if rounds > 0 {
        m.set(
            "wal_bytes_per_update",
            (st.wal_len[rounds - 1] - wal_before) as f64 / (rounds * OPS_PER_ROUND) as f64,
        );
    }
}

pub fn run(ctx: &Ctx) -> Result<RunResult, String> {
    let name = "update-mixed";
    let sc = ctx.scale;
    let mut inputs = Inputs::generate(
        ctx.data_seed,
        sc.upd_nodes,
        sc.upd_preds,
        sc.upd_edges,
        sc.upd_pool_scale,
    );
    // The first round of updates is part of what the pin covers.
    for ((insert, s, p, o), _) in next_round(&mut update_gen(&inputs), OPS_PER_ROUND) {
        let _ = writeln!(
            inputs.pinned_extra,
            "{}\t{s}\t{p}\t{o}",
            if insert { '+' } else { '-' }
        );
    }
    check_pins(name, sc, &inputs)?;
    let scratch = Scratch::new(name)?;
    let dump = scratch.path("graph.nt");
    std::fs::write(&dump, &inputs.dump).map_err(|e| format!("{}: {e}", dump.display()))?;
    let snapshot = scratch.path("live.rpqdb");
    let (setup, setup_s) = repeat_setup(
        if ctx.trace { 1 } else { LIVE_SETUP_REPEATS },
        |s: &LiveSetup| s.times,
        || setup_live(&dump, &snapshot),
        |_, _| (),
    )?;
    let pool = &inputs.queries;
    let opts = EngineOptions {
        limit: result_limit(sc.upd_edges),
        timeout: Some(QUERY_TIMEOUT),
        ..EngineOptions::default()
    };
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

    // A fresh process over the saved snapshot, before the log grows.
    let sample = scratch.path("warm.tsv");
    write_sample(&sample, warm_sample(pool))?;
    let rss = open_rss_mb(
        ctx.children,
        Layout::Durable,
        &snapshot,
        &sample,
        opts.limit,
    )?;
    for q in warm_sample(pool) {
        let _ = setup.db.query_with(&q.subject, &q.expr, &q.object, &opts);
    }

    let wal_path = UpdatableDatabase::wal_path(&snapshot);
    let LiveSetup {
        db,
        index_bytes,
        base_triples,
        ..
    } = setup;

    if ctx.trace {
        // Half the time as the user would run it, half step by step.
        let half = ctx.seconds / 2.0;
        let min = sc.min_compactions;
        let mut model: BTreeSet<Triple> = inputs.graph.triples().iter().copied().collect();
        let mut gen = update_gen(&inputs);
        let wal_before = wal_len(&wal_path);
        let plain = drive(
            ctx,
            &db,
            Commit::Durable,
            &wal_path,
            &mut gen,
            &mut model,
            pool,
            &opts,
            half,
            min,
            true,
            None,
        )?;
        drop(db);

        // The traced half: a second database from the same snapshot
        // file, without its own log — the driver holds the `Wal`.
        let traced_snapshot = scratch.path("traced.rpqdb");
        let fresh = setup_live(&dump, &traced_snapshot)?;
        drop(fresh.db);
        let traced_wal_path = UpdatableDatabase::wal_path(&traced_snapshot);
        let db = UpdatableDatabase::load(&traced_snapshot).map_err(|e| e.to_string())?;
        let wal = Wal::create(&traced_wal_path, db.epoch()).map_err(|e| e.to_string())?;
        let mut model2: BTreeSet<Triple> = inputs.graph.triples().iter().copied().collect();
        let mut gen2 = update_gen(&inputs);
        let mut tr = Tracer::new();
        let st = drive(
            ctx,
            &db,
            Commit::Stepwise(wal),
            &traced_wal_path,
            &mut gen2,
            &mut model2,
            pool,
            &opts,
            half,
            min,
            true,
            Some(&mut tr),
        )?;
        tr.check_nesting()?;
        // Queries per busy microsecond over whole compaction cycles.
        let rate = |s: &LoopStats| {
            let (lat, busy) = s.queries_and_busy_us();
            lat.len() as f64 / busy.max(1e-9)
        };
        m.set("trace.overhead_ratio", rate(&st) / rate(&plain).max(1e-12));
        set_commit_metrics(&plain, 1, wal_before, &mut m);
        set_span_metrics(&tr, st.queries().max(1) as f64, &mut m);
        m.set("ring.wal.append_us", mean(&st.append_us));
        m.set("ring.store.commit_us", median(&st.publish_us));
        m.set(
            "facade.updatable.apply_us_per_op",
            st.apply_us.iter().sum::<f64>() / st.ops.max(1) as f64,
        );
        let stalls: Vec<f64> = (0..st.commit_us.len())
            .filter(|&r| st.compacted[r])
            .map(|r| st.publish_us[r] / 1e6)
            .collect();
        m.set("ring.store.compact_s", mean(&stalls));
        m.set("ring.store.compactions", stalls.len() as f64);
        m.set("ring.delta.peak_entries", st.peak_entries as f64);
        m.set(
            "facade.updatable.commit_max_ms",
            plain.commit_us.iter().cloned().fold(0.0, f64::max) / 1e3,
        );
        // Reads under a full delta against reads right after compaction.
        let round_mean = |r: usize| mean(&st.query_us[r]);
        let (mut before, mut after) = (Vec::new(), Vec::new());
        for r in (0..st.compacted.len()).filter(|&r| st.compacted[r]) {
            before.extend((r.saturating_sub(4)..r).map(round_mean));
            after.extend((r + 1..(r + 5).min(st.query_us.len())).map(round_mean));
        }
        if !before.is_empty() && !after.is_empty() {
            m.set(
                "core.source.delta.slowdown",
                mean(&before) / mean(&after).max(1e-9),
            );
        }
        let out = trace_path(name)?;
        tr.write_json(&out)
            .map_err(|e| format!("{}: {e}", out.display()))?;
        result.attempted =
            plain.queries() + st.queries() + (plain.commit_us.len() + st.commit_us.len()) as u64;
        result.failed = plain.failed + st.failed + plain.mismatches + st.mismatches;
        result.correct = plain.mismatches + st.mismatches == 0;
        result.metrics = m;
        return Ok(result.finish());
    }

    // The cycle, then the same cycle again from the snapshot reopened,
    // until the clock runs out; `st` keeps each operation's fastest time.
    let cycle = |db: &UpdatableDatabase, first: bool| {
        let mut model: BTreeSet<Triple> = inputs.graph.triples().iter().copied().collect();
        let st = drive(
            ctx,
            db,
            Commit::Durable,
            &wal_path,
            &mut update_gen(&inputs),
            &mut model,
            pool,
            &opts,
            0.0,
            sc.min_compactions,
            first,
            None,
        )?;
        Ok::<_, String>((st, model))
    };
    let started = Instant::now();
    let wal_before = wal_len(&wal_path);
    let (mut st, model) = cycle(&db, true)?;
    let mut db = db;
    let mut cycles = 1;
    let mut attempted = st.queries() + st.commit_us.len() as u64;
    while cycles < MIN_CYCLES || started.elapsed().as_secs_f64() < ctx.seconds {
        drop(db);
        let _ = std::fs::remove_file(&wal_path);
        db = UpdatableDatabase::open_durable(&snapshot).map_err(|e| format!("reopen: {e}"))?;
        let (again, _) = cycle(&db, false)?;
        // The same operations on the same state: the same answers.
        st.mismatches += again
            .sigs
            .iter()
            .flatten()
            .zip(st.sigs.iter().flatten())
            .filter(|(a, b)| !matches!((a, b), (Some(a), Some(b)) if a.agrees(b)))
            .count() as u64;
        st.mismatches += u64::from(again.commit_us.len() != st.commit_us.len());
        st.failed += again.failed;
        attempted += again.queries() + again.commit_us.len() as u64;
        st.keep_fastest(&again);
        cycles += 1;
    }
    let (lat, busy) = st.queries_and_busy_us();
    set_latency_metrics(&mut m, &lat, lat.len() * MIN_CYCLES, busy);
    set_commit_metrics(&st, MIN_CYCLES, wal_before, &mut m);
    result
        .notes
        .push(("rounds_per_cycle".into(), st.commit_us.len().to_string()));
    result.notes.push(("cycles".into(), cycles.to_string()));

    // Untimed: does what is on disk replay to the model?
    drop(db);
    let reopened =
        UpdatableDatabase::open_durable(&snapshot).map_err(|e| format!("reopen: {e}"))?;
    let live = reopened.store().snapshot().live_triples();
    let lost = u64::from(live != model_in_db_ids(&reopened, &model)?);
    if lost > 0 {
        eprintln!(
            "reopened database differs from the model ({} live triples, model {})",
            live.len(),
            model.len()
        );
    }
    result.attempted = attempted;
    result.failed = st.failed + st.mismatches + lost;
    result.correct = st.mismatches + lost == 0;
    m.set("setup_s", setup_s);
    m.set(
        "index_bytes_per_triple",
        index_bytes as f64 / base_triples.max(1) as f64,
    );
    m.set("open_rss_mb", rss);
    result.metrics = m;
    Ok(result.finish())
}
