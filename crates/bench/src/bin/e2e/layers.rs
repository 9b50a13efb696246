//! Probes of single layers, taken in the traced run by timing calls into
//! each layer's public functions on the workload's own index.

use crate::common::AnswerSig;
use crate::inputs::{sub_seed, RenderedQuery, SplitMix};
use crate::metrics::Measured;
use crate::setup::{spawn_child, write_sample, Layout, ReadSetup, Scratch};
use crate::stats::{mean, median};
use baselines::{AdjacencyIndex, BitParallelAdjEngine, NfaBfsEngine, PathEngine, SemiNaiveEngine};
use ring::Ring;
use ring_rpq::RpqDatabase;
use rpq_core::planner::route_is_feasible;
use rpq_core::stats::RingStatistics;
use rpq_core::{EngineOptions, EvalRoute, PreparedQuery, RpqEngine};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};
use succinct::{BitVec, RankSelect, SpaceUsage};

/// Operations per micro-probe: enough that a probe lasts tens of
/// milliseconds, so its mean is not a timer artefact.
const PROBE_OPS: usize = 200_000;

/// Mean nanoseconds of `op(i)` over `n` calls.
fn ns_per_op(n: usize, mut op: impl FnMut(usize) -> usize) -> f64 {
    let t = Instant::now();
    let mut sink = 0usize;
    for i in 0..n {
        sink = sink.wrapping_add(op(i));
    }
    black_box(sink);
    t.elapsed().as_nanos() as f64 / n as f64
}

/// `succinct.*`: rank/select on a plain bitvector (the top-level bits of
/// `L_s`, re-materialised through `access`) and access/rank/select on the
/// wavelet matrix `L_s` itself, at seeded positions.
pub fn succinct_probes(ring: &Ring, seed: u64, m: &mut Measured) {
    let ls = ring.l_s();
    let n = ls.len();
    if n == 0 {
        return;
    }
    let top = ls.width().saturating_sub(1);
    let bits = RankSelect::new(BitVec::from_bits(
        (0..n).map(|i| (ls.access(i) >> top) & 1 == 1),
    ));
    let ones = bits.count_ones().max(1);
    let mut rng = SplitMix(sub_seed(seed, 10));
    let pos: Vec<usize> = (0..PROBE_OPS).map(|_| rng.below(n)).collect();
    let syms: Vec<u64> = pos.iter().rev().map(|&p| ls.access(p)).collect();
    // A seeded occurrence of each symbol for `select` to find.
    let occs: Vec<usize> = syms
        .iter()
        .map(|&sym| rng.below(ls.rank(sym, n).max(1)))
        .collect();
    m.set(
        "succinct.rank1_ns",
        ns_per_op(PROBE_OPS, |i| bits.rank1(pos[i])),
    );
    m.set(
        "succinct.select1_ns",
        ns_per_op(PROBE_OPS, |i| bits.select1(pos[i] % ones).unwrap_or(0)),
    );
    m.set(
        "succinct.wm_access_ns",
        ns_per_op(PROBE_OPS, |i| ls.access(pos[i]) as usize),
    );
    m.set(
        "succinct.wm_rank_ns",
        ns_per_op(PROBE_OPS, |i| ls.rank(syms[i], pos[i])),
    );
    m.set(
        "succinct.wm_select_ns",
        ns_per_op(PROBE_OPS, |i| ls.select(syms[i], occs[i]).unwrap_or(0)),
    );
}

/// `ring.*` step costs at seeded positions, on the opened ring.
pub fn ring_step_probes(ring: &Ring, seed: u64, m: &mut Measured) {
    let n = ring.n_triples();
    if n == 0 {
        return;
    }
    let mut rng = SplitMix(sub_seed(seed, 11));
    // Steps a traversal would take: (object, predicate) and
    // (predicate, subject) of indexed triples.
    let triples: Vec<ring::Triple> = (0..PROBE_OPS)
        .map(|_| ring.triple_at_lp(rng.below(n)))
        .collect();
    m.set(
        "ring.backward_step_pred_ns",
        ns_per_op(PROBE_OPS, |i| {
            let t = triples[i];
            ring.backward_step_by_pred(ring.object_range(t.o), t.p).1
        }),
    );
    m.set(
        "ring.backward_step_subject_ns",
        ns_per_op(PROBE_OPS, |i| {
            let t = triples[i];
            ring.backward_step_by_subject(ring.pred_range(t.p), t.s).1
        }),
    );
    let pos: Vec<usize> = (0..PROBE_OPS).map(|_| rng.below(n)).collect();
    m.set("ring.lf_ns", ns_per_op(PROBE_OPS, |i| ring.lf_p(pos[i])));
    let sample = &triples[..PROBE_OPS / 10];
    let t = Instant::now();
    let mut results = 0usize;
    for tr in sample {
        ring.subjects_for(tr.p, tr.o, &mut |s| {
            black_box(s);
            results += 1;
        });
    }
    m.set(
        "ring.subjects_for_ns_per_result",
        t.elapsed().as_nanos() as f64 / results.max(1) as f64,
    );
}

/// The space rows, bytes per base triple, from the heap-built ring (a
/// mapped ring owns no heap) — `ring.ring_bytes_per_triple` is the figure
/// comparable to the paper's 16.41 B/edge.
pub fn space_rows(built: &RpqDatabase, m: &mut Measured) {
    let ring = built.ring();
    let per = |bytes: usize| bytes as f64 / built.graph().len().max(1) as f64;
    m.set("ring.l_s_bytes_per_triple", per(ring.l_s().size_bytes()));
    m.set("ring.l_p_bytes_per_triple", per(ring.l_p().size_bytes()));
    m.set("ring.l_o_bytes_per_triple", per(ring.l_o().size_bytes()));
    m.set(
        "ring.boundaries_bytes_per_triple",
        per(ring.c_s_ref().size_bytes()
            + ring.c_p_ref().size_bytes()
            + ring.c_o_ref().size_bytes()),
    );
    m.set(
        "ring.dict_bytes_per_triple",
        per(built.nodes().size_bytes() + built.preds().size_bytes()),
    );
    m.set("ring.ring_bytes_per_triple", per(ring.size_bytes()));
}

/// Phase times of the lower-level calls set-up goes through:
/// `Ring::build`, `ring::mapped::write_index` / `open_index`.
pub fn ring_phase_probes(
    setup: &ReadSetup,
    scratch: &Scratch,
    m: &mut Measured,
) -> Result<(), String> {
    let t = Instant::now();
    let ring = Ring::build(setup.built.graph(), ring::ring::RingOptions::default());
    m.set("ring.build_s", t.elapsed().as_secs_f64());
    let path = scratch.path("probe.rpqm");
    let io = |e: std::io::Error| format!("{}: {e}", path.display());
    let t = Instant::now();
    ring::mapped::write_index(&path, &ring, setup.built.nodes(), setup.built.preds())
        .map_err(io)?;
    m.set("ring.mapped.write_ms", t.elapsed().as_secs_f64() * 1e3);
    let t = Instant::now();
    let idx = ring::mapped::open_index(&path, ring::mapped::OpenMode::Mmap).map_err(io)?;
    m.set("ring.mapped.open_ms", t.elapsed().as_secs_f64() * 1e3);
    black_box(idx.ring.n_triples());
    Ok(())
}

/// `core.planner.regret`: over `per_pattern` queries of each pattern, the
/// time of the route the planner chose against the fastest feasible
/// forced route. An alternative only matters if it beats the chosen
/// route, so it runs under a timeout of a few times the chosen time.
/// Returns how many forced runs disagreed with the chosen route's answer.
pub fn planner_regret(
    db: &RpqDatabase,
    queries: &[RenderedQuery],
    per_pattern: usize,
    opts: &EngineOptions,
    m: &mut Measured,
) -> Result<u64, String> {
    let ring = db.ring();
    let stats = RingStatistics::new(ring);
    let mut engine = RpqEngine::new(ring);
    let mut taken = [0usize; 20];
    let (mut chosen_us, mut best_us, mut mismatches) = (0.0, 0.0, 0);
    for q in queries {
        if taken[q.pattern] >= per_pattern {
            continue;
        }
        taken[q.pattern] += 1;
        let parsed = db
            .parse_query(&q.subject, &q.expr, &q.object)
            .map_err(|e| e.to_string())?;
        let prepared = PreparedQuery::compile(
            &parsed.expr,
            &|l| ring.inverse_label(l),
            opts.bp_split_width,
        )
        .map_err(|e| e.to_string())?;
        let mut run = |o: &EngineOptions| {
            let t = Instant::now();
            let out = engine.evaluate_prepared(&prepared, parsed.subject, parsed.object, o);
            (out, t.elapsed())
        };
        let (out, chosen) = run(opts);
        let out = out.map_err(|e| e.to_string())?;
        let chosen_route = out.plan.as_ref().map(|p| p.route);
        let sig = AnswerSig::of(&out.pairs, out.truncated);
        let mut best = chosen;
        for route in EvalRoute::ALL {
            if Some(route) == chosen_route
                || !route_is_feasible(&stats, route, &prepared, parsed.subject, parsed.object)
            {
                continue;
            }
            let forced = EngineOptions {
                forced_route: Some(route),
                timeout: Some(chosen * 2 + Duration::from_millis(1)),
                ..*opts
            };
            if let (Ok(alt), took) = run(&forced) {
                if alt.timed_out {
                    continue;
                }
                // The forced fallback may overshoot the result limit by
                // one source's answers, so cut answers are not compared.
                let cut = alt.truncated || sig.truncated;
                if !cut && !AnswerSig::of(&alt.pairs, false).agrees(&sig) {
                    eprintln!(
                        "forced route {} disagrees on {} {} {}",
                        route.name(),
                        q.subject,
                        q.expr,
                        q.object
                    );
                    mismatches += 1;
                }
                best = best.min(took);
            }
        }
        chosen_us += chosen.as_secs_f64() * 1e6;
        best_us += best.as_secs_f64() * 1e6;
    }
    m.set(
        "core.planner.regret",
        if best_us > 0.0 {
            chosen_us / best_us
        } else {
            0.0
        },
    );
    Ok(mismatches)
}

/// `core.parallel.*`: the `n` heaviest variable-to-variable queries (by
/// `lat_us`) at `intra_query_threads` 2 against 1.
pub fn parallel_probes(
    db: &RpqDatabase,
    queries: &[RenderedQuery],
    lat_us: &[f64],
    n: usize,
    opts: &EngineOptions,
    m: &mut Measured,
) -> Result<(), String> {
    let mut heavy: Vec<usize> = (0..queries.len())
        .filter(|&i| queries[i].is_var_var())
        .collect();
    heavy.sort_by(|&a, &b| lat_us[b].partial_cmp(&lat_us[a]).expect("finite"));
    heavy.truncate(n);
    if heavy.is_empty() {
        return Ok(());
    }
    let mut total = [0.0f64; 2];
    let mut levels = 0u64;
    for (slot, threads) in [(0, 1usize), (1, 2)] {
        let o = EngineOptions {
            intra_query_threads: threads,
            ..*opts
        };
        for &i in &heavy {
            let q = &queries[i];
            let t = Instant::now();
            let out = db
                .query_with(&q.subject, &q.expr, &q.object, &o)
                .map_err(|e| e.to_string())?;
            total[slot] += t.elapsed().as_secs_f64();
            if threads == 2 {
                levels += out.stats.parallel_levels;
            }
        }
    }
    m.set("core.parallel.speedup_t2", total[0] / total[1].max(1e-9));
    m.set(
        "core.parallel.levels_per_query",
        levels as f64 / heavy.len() as f64,
    );
    Ok(())
}

/// `baselines.*` over every `stride`-th query: Table 2's comparison.
/// `ring_lat_us` are the ring's latencies for the same queries. A
/// baseline stuck on one query must not eat the run, so each runs under a
/// 1 s cap; a query on which any baseline hit the cap is left out of every
/// mean (a capped time is not a sample) and counted in
/// `baselines.timeouts`.
pub fn baseline_probes(
    built: &RpqDatabase,
    queries: &[RenderedQuery],
    ring_lat_us: &[f64],
    stride: usize,
    opts: &EngineOptions,
    m: &mut Measured,
) -> Result<(), String> {
    let adj = Arc::new(AdjacencyIndex::from_graph(built.graph()));
    m.set(
        "baselines.adjacency.bytes_per_triple",
        adj.size_bytes() as f64 / built.graph().len().max(1) as f64,
    );
    let picked: Vec<usize> = (0..queries.len()).step_by(stride).collect();
    let parsed = picked
        .iter()
        .map(|&i| {
            let q = &queries[i];
            built
                .parse_query(&q.subject, &q.expr, &q.object)
                .map_err(|e| e.to_string())
        })
        .collect::<Result<Vec<_>, _>>()?;
    let capped = EngineOptions {
        timeout: Some(Duration::from_secs(1)),
        ..*opts
    };
    let engines: [(&str, Box<dyn PathEngine>); 3] = [
        (
            "baselines.nfa_bfs.mean_us",
            Box::new(NfaBfsEngine::new(Arc::clone(&adj))),
        ),
        (
            "baselines.seminaive.mean_us",
            Box::new(SemiNaiveEngine::new(Arc::clone(&adj))),
        ),
        (
            "baselines.bitparallel_adj.mean_us",
            Box::new(BitParallelAdjEngine::new(Arc::clone(&adj))),
        ),
    ];
    let mut timed_out = vec![false; parsed.len()];
    let mut lat_us: Vec<(&str, Vec<f64>)> = Vec::new();
    for (name, mut engine) in engines {
        let mut lat = Vec::with_capacity(parsed.len());
        for (k, q) in parsed.iter().enumerate() {
            let t = Instant::now();
            let out = engine.run(q, &capped).map_err(|e| e.to_string())?;
            lat.push(t.elapsed().as_secs_f64() * 1e6);
            timed_out[k] |= out.timed_out;
            black_box(out.pairs.len());
        }
        lat_us.push((name, lat));
    }
    let kept = |lat: &[f64]| -> Vec<f64> {
        (0..lat.len())
            .filter(|&k| !timed_out[k])
            .map(|k| lat[k])
            .collect()
    };
    let mut best = f64::INFINITY;
    for (name, lat) in &lat_us {
        let mean_us = mean(&kept(lat));
        m.set(*name, mean_us);
        best = best.min(mean_us);
    }
    let ring: Vec<f64> = picked.iter().map(|&i| ring_lat_us[i]).collect();
    m.set(
        "baselines.ring_over_best_mean",
        mean(&kept(&ring)) / best.max(1e-9),
    );
    m.set(
        "baselines.timeouts",
        timed_out.iter().filter(|&&t| t).count() as f64,
    );
    Ok(())
}

/// `facade.cold_first_answer_ms`: `main` → open → first answer in a fresh
/// process, median of 15.
pub fn cold_first_answer(
    layout: Layout,
    index: &std::path::Path,
    first: &RenderedQuery,
    limit: usize,
    scratch: &Scratch,
    m: &mut Measured,
) -> Result<(), String> {
    let sample = scratch.path("first.tsv");
    write_sample(&sample, std::iter::once(first))?;
    let mut ms = Vec::new();
    for _ in 0..15 {
        ms.push(spawn_child(layout, index, &sample, limit)?.first_answer_ms);
    }
    m.set("facade.cold_first_answer_ms", median(&ms));
    Ok(())
}
