//! The traversal the kernel's chunked expansion is pinned to: §4 as
//! written, as a BFS whose levels are visited in node order — one item
//! at a time, every wavelet range of one ring traversed on its own under
//! masks that are updated as it goes — and the tests that hold
//! [`crate::kernel`] to it on every kind of source.
//!
//! The kernel expands a whole frontier chunk against the visited masks as
//! they stood when the chunk began and replays the result in visiting
//! order — over a bare ring, over the same graph cut into shards, over a
//! ring and a delta that add up to it; its claim is that nothing
//! observable tells any of them from this reference over the one rebuilt
//! ring: the pair stream, the flags, the trace and the four product-graph
//! counters that depend on visit order. (`wavelet_nodes` and `rank_ops`
//! describe the work a strategy did and differ by design.)

use automata::glushkov::WideMask;
use automata::{BitParallel, Label, Regex, StateMask};
use ring::ring::RingOptions;
use ring::{Graph, Id, Ring, Triple};
use succinct::util::EpochArray;
use succinct::wavelet_matrix::RangeGuide;
use succinct::WaveletMatrix;
use workload::{GraphGen, GraphGenConfig, QueryGen};

use crate::engine::RpqEngine;
use crate::kernel::{self, Bounds, Kernel, Start, Stop};
use crate::plan::{EvalRoute, PreparedQuery, Tables};
use crate::query::{EngineOptions, RpqQuery, Term, TraversalStats};
use crate::source::{MergedView, ShardedSource, TripleSource};
use crate::step::{neg_range_mask, seed_label_masks};

/// The item-at-a-time kernel: level by level, a level's `(node, D)` items
/// in ascending node order, the items of one node united into one. Its
/// state sets are one word.
struct Reference<'a> {
    ring: &'a Ring,
    tables: &'a [BitParallel; 2],
    lp_masks: EpochArray,
    /// `D[s]` in cell `s`.
    visited: EpochArray,
}

impl Kernel for Reference<'_> {
    fn traverse(
        &mut self,
        reversed: bool,
        start: Start,
        bounds: Bounds,
        stats: &mut TraversalStats,
        mut trace: Option<&mut Vec<(Id, WideMask)>>,
        report: &mut dyn FnMut(Id) -> bool,
    ) -> Stop {
        let bp = &self.tables[usize::from(reversed)];
        let ring = self.ring;
        let (lp, ls) = (ring.l_p(), ring.l_s());
        seed_label_masks(&mut self.lp_masks, lp, bp);
        self.visited.reset(1);
        self.visited.ensure_len(ring.n_nodes() as usize);

        // A level as `(L_p range, D)` items in visiting order, and the
        // `(node, fresh states)` found while it is visited.
        let mut level = Vec::new();
        let mut found: Vec<(Id, u64)> = Vec::new();
        let d0 = bp.accept_mask();
        if d0 == 0 {
            return Stop::Completed;
        }
        match start {
            Start::Object(o) => {
                self.visited.set(o as usize, d0);
                if d0 & u64::INITIAL != 0 && MergedView::ring_only(ring).node_exists(o) {
                    stats.reported += 1;
                    if !report(o) {
                        return Stop::Completed;
                    }
                }
                level.push((ring.object_range(o), d0));
            }
            Start::Full => level.push((ring.full_range(), d0)),
        }

        let mut preds = Vec::new();
        let mut subjects = Vec::new();
        while !level.is_empty() {
            for ((b, e), d) in level.drain(..).filter(|((b, e), _)| b < e) {
                stats.bfs_steps += 1;

                // Part one: the relevant predicates reaching the range.
                preds.clear();
                lp.guided_traverse(
                    b,
                    e,
                    &mut PredGuide {
                        d,
                        masks: &self.lp_masks,
                        neg: bp.negated_positions(),
                        width: lp.width(),
                        out: &mut preds,
                        pending: 0,
                    },
                );
                for &(p, rank_b, rank_e, d_and_b) in &preds {
                    stats.product_edges += 1;
                    let d_new = bp.apply_bwd(d_and_b);
                    if d_new == 0 {
                        continue;
                    }
                    let base = ring.pred_range(p).0;

                    // Part two: distinct subjects with something new to add.
                    subjects.clear();
                    ls.guided_traverse(
                        base + rank_b,
                        base + rank_e,
                        &mut SubjGuide {
                            d_new,
                            visited: &mut self.visited,
                            width: ls.width(),
                            out: &mut subjects,
                            pending_fresh: 0,
                        },
                    );
                    for &(s, fresh) in &subjects {
                        if bounds.budget.is_some_and(|nb| stats.product_nodes >= nb) {
                            return Stop::Budget;
                        }
                        stats.product_nodes += 1;
                        if let Some(t) = trace.as_deref_mut() {
                            t.push((s, fresh.wide()));
                        }
                        if fresh & u64::INITIAL != 0 {
                            stats.reported += 1;
                            if !report(s) {
                                return Stop::Completed;
                            }
                        }
                        found.push((s, fresh));
                    }
                }
            }
            // Part three: the subjects become objects again, in node
            // order, a node found more than once with its sets united.
            found.sort_by_key(|&(s, _)| s);
            let mut last = None;
            for (s, fresh) in found.drain(..) {
                match level.last_mut() {
                    Some((_, d)) if last == Some(s) => *d |= fresh,
                    _ => level.push((ring.object_range(s), fresh)),
                }
                last = Some(s);
            }
        }
        Stop::Completed
    }

    fn n_nodes(&self) -> Id {
        self.ring.n_nodes()
    }

    fn node_exists(&self, v: Id) -> bool {
        MergedView::ring_only(self.ring).node_exists(v)
    }
}

/// §4.1 for one range: prune `L_p` subtrees whose labels cannot reach an
/// active state of `d`.
struct PredGuide<'a> {
    d: u64,
    masks: &'a EpochArray,
    neg: &'a [(u64, Vec<Label>)],
    width: usize,
    /// `(pred, rank_b, rank_e, D & B[pred])`.
    out: &'a mut Vec<(Label, usize, usize, u64)>,
    pending: u64,
}

impl RangeGuide for PredGuide<'_> {
    fn enter(&mut self, level: usize, prefix: u64) -> bool {
        let mut mask: u64 = self.masks.get(WaveletMatrix::node_index(level, prefix));
        if !self.neg.is_empty() {
            mask |= neg_range_mask(self.neg, level, prefix, self.width);
        }
        self.pending = mask & self.d;
        self.pending != 0
    }

    fn leaf(&mut self, sym: u64, rank_b: usize, rank_e: usize) {
        self.out.push((sym, rank_b, rank_e, self.pending));
    }
}

/// §4.2's leaf filter for one range, updating the masks as it goes: a
/// subject is marked the moment it is found.
struct SubjGuide<'a> {
    d_new: u64,
    visited: &'a mut EpochArray,
    width: usize,
    /// `(subject, fresh states)`.
    out: &'a mut Vec<(Id, u64)>,
    pending_fresh: u64,
}

impl RangeGuide for SubjGuide<'_> {
    fn enter(&mut self, level: usize, prefix: u64) -> bool {
        if level < self.width {
            return true;
        }
        let old: u64 = self.visited.get(prefix as usize);
        let fresh = self.d_new & !old;
        if fresh == 0 {
            return false;
        }
        self.visited.set(prefix as usize, old | self.d_new);
        self.pending_fresh = fresh;
        true
    }

    fn leaf(&mut self, sym: u64, _rank_b: usize, _rank_e: usize) {
        self.out.push((sym, self.pending_fresh));
    }
}

fn star(l: Label) -> Regex {
    Regex::Star(Box::new(Regex::label(l)))
}

/// One query per Table 1 pattern over `graph`, plus closures from both
/// ends and from neither.
fn corpus(graph: &Graph, seed: u64, hub: Id) -> Vec<RpqQuery> {
    // `workload` is built against this crate as a dependency, whose
    // `RpqQuery` is not this build's: rebuilt from its parts.
    let term = |c: Option<Id>| c.map_or(Term::Var, Term::Const);
    let mut queries: Vec<RpqQuery> = QueryGen::new(graph, seed)
        .scaled_log(0.0)
        .into_iter()
        .map(|gq| {
            RpqQuery::new(
                term(gq.query.subject.as_const()),
                gq.query.expr,
                term(gq.query.object.as_const()),
            )
        })
        .collect();
    let both = Regex::Plus(Box::new(Regex::alt(Regex::label(0), Regex::label(1))));
    queries.push(RpqQuery::new(Term::Var, star(0), Term::Const(hub)));
    queries.push(RpqQuery::new(Term::Const(hub), both.clone(), Term::Var));
    queries.push(RpqQuery::new(Term::Var, both, Term::Const(hub)));
    queries.push(RpqQuery::new(
        Term::Var,
        Regex::concat(Regex::label(1), star(0)),
        Term::Var,
    ));
    queries
}

/// A hub every node of a first rank points to, a second rank pointing
/// into the first, a third into the second: the levels of `(?x, 0*, hub)`
/// are `width` items wide, every subject is reached from two items of
/// its level, and label-1 shortcuts reach some a level early.
fn fan_in_graph(width: u64) -> Graph {
    let rank = |r: u64, i: u64| 1 + r * width + i % width;
    let mut triples = Vec::new();
    for i in 0..width {
        triples.push(Triple::new(rank(0, i), 0, 0));
        triples.push(Triple::new(rank(1, i), 0, rank(0, i)));
        triples.push(Triple::new(rank(1, i), 0, rank(0, i * 7 + 3)));
        triples.push(Triple::new(rank(2, i), 0, rank(1, i)));
        triples.push(Triple::new(rank(2, i), 0, rank(1, i + 1)));
        if i % 3 == 0 {
            triples.push(Triple::new(rank(2, i), 1, rank(0, i)));
            triples.push(Triple::new(rank(1, i), 1, 0));
        }
    }
    Graph::from_triples(triples)
}

/// The graph three ways: its ring, the ring cut into four shards, and a
/// store whose base ring lacks every fifth triple and holds strays, with
/// a committed delta that adds the former and tombstones the latter.
struct Sources {
    ring: Ring,
    sharded: ShardedSource,
    store: ring::TripleStore,
}

impl Sources {
    fn of(graph: &Graph) -> Self {
        let ring = Ring::build(graph, RingOptions::default());
        let shards = ring::sharded::ShardedIndex::build(graph, 4, RingOptions::default());
        let sharded = ShardedSource::new(
            shards
                .into_shards()
                .into_iter()
                .map(std::sync::Arc::new)
                .collect(),
        );
        let have: std::collections::BTreeSet<Triple> = graph.triples().iter().copied().collect();
        let late: Vec<Triple> = have.iter().copied().step_by(5).collect();
        let early: Vec<Triple> = (have.iter().copied().enumerate())
            .filter(|(i, _)| i % 5 != 0)
            .map(|(_, t)| t)
            .collect();
        let strays: Vec<Triple> = early
            .iter()
            .step_by(7)
            .map(|t| Triple::new(t.s, t.p, (t.o + 1) % graph.n_nodes()))
            .filter(|t| !have.contains(t))
            .collect();
        let base = Graph::new(
            early.iter().chain(&strays).copied().collect(),
            graph.n_nodes(),
            graph.n_preds(),
        );
        let store = ring::TripleStore::new(base).with_auto_compact_ratio(None);
        late.into_iter().for_each(|t| store.insert(t));
        strays.into_iter().for_each(|t| store.delete(t));
        store.commit();
        Self {
            ring,
            sharded,
            store,
        }
    }
}

/// Runs `query` on the engine — over every kind of source — and on the
/// reference over the one ring, under the same plan.
fn assert_identical(sources: &Sources, query: &RpqQuery, opts: &EngineOptions, what: &str) -> bool {
    let ring = &sources.ring;
    let prepared =
        PreparedQuery::compile(&query.expr, &|l| ring.inverse_label(l), opts.bp_split_width)
            .unwrap();
    let Tables::One(tables) = prepared.tables() else {
        unreachable!("the corpus is of one-word expressions")
    };
    let snapshot = sources.store.snapshot();
    let kinds: [(&str, &dyn TripleSource); 3] = [
        ("ring", ring),
        ("4 shards", &sources.sharded),
        ("ring + delta", &*snapshot),
    ];
    let counters = |s: &TraversalStats| (s.product_nodes, s.product_edges, s.bfs_steps, s.reported);
    // One reference run per direction the planner picks.
    let mut wanted: Vec<(Option<crate::planner::Direction>, crate::QueryOutput)> = Vec::new();
    for (kind, source) in kinds {
        let got = RpqEngine::over(source)
            .evaluate_prepared(&prepared, query.subject, query.object, opts)
            .unwrap();
        let plan = got.plan.clone().unwrap();
        if plan.route != EvalRoute::BitParallel {
            return false;
        }
        if !wanted.iter().any(|(d, _)| *d == plan.direction) {
            let mut reference = Reference {
                ring,
                tables,
                lp_masks: EpochArray::default(),
                visited: EpochArray::default(),
            };
            let want = kernel::evaluate(
                &mut reference,
                tables[0].is_nullable(),
                plan.direction,
                query.subject,
                query.object,
                opts,
            );
            wanted.push((plan.direction, want));
        }
        let want = &wanted.iter().find(|(d, _)| *d == plan.direction).unwrap().1;
        let what = format!("{what}, {kind}, {query:?}");
        assert_eq!(got.pairs, want.pairs, "{what}: pairs");
        assert_eq!(
            (got.truncated, got.budget_exhausted),
            (want.truncated, want.budget_exhausted),
            "{what}: flags"
        );
        assert_eq!(got.trace, want.trace, "{what}: trace");
        assert_eq!(
            counters(&got.stats),
            counters(&want.stats),
            "{what}: counters"
        );
    }
    true
}

/// Every query × limit × budget combination on `graph`. `budget` is
/// chosen to run out in the middle of a chunk.
fn sweep(graph: &Graph, queries: &[RpqQuery], budget: u64, label: &str) -> usize {
    let sources = Sources::of(graph);
    let mut compared = 0;
    for query in queries {
        for limit in [1, 5, 64, EngineOptions::default().limit] {
            for node_budget in [None, Some(budget)] {
                let opts = EngineOptions {
                    limit,
                    node_budget,
                    collect_trace: true,
                    forced_route: Some(EvalRoute::BitParallel),
                    ..EngineOptions::default()
                };
                let what = format!("{label}: limit {limit}, budget {node_budget:?}");
                compared += usize::from(assert_identical(&sources, query, &opts, &what));
            }
        }
    }
    compared
}

/// The graphs of `tests/differential.rs`: small, Wikidata-shaped.
#[test]
fn generated_workloads_match_the_item_at_a_time_traversal() {
    let configs = [
        // (n_nodes, n_preds, n_edges, pred_zipf, node_skew, seed)
        (12u64, 3u64, 40usize, 1.0, 0.8, 0xA1),
        (24, 4, 110, 1.2, 1.0, 0xB2),
        (32, 6, 160, 1.5, 0.6, 0xC3),
        (20, 5, 90, 0.8, 1.4, 0xD4),
    ];
    let mut compared = 0;
    for (n_nodes, n_preds, n_edges, pred_zipf, node_skew, seed) in configs {
        let graph = GraphGen::new(GraphGenConfig {
            n_nodes,
            n_preds,
            n_edges,
            pred_zipf,
            node_skew,
            seed,
        })
        .generate();
        let queries = corpus(&graph, seed, 0);
        compared += sweep(&graph, &queries, 7, &format!("graph {seed:#x}"));
    }
    assert!(compared >= 500, "only {compared} combinations compared");
}

/// Frontiers of more than two chunks: every level of the closure into
/// the hub is expanded chunk by chunk — the second chunk twice the first
/// — subjects recur within a chunk and across chunks, and the budget —
/// the hub's `width` sources and 700 of theirs — runs out inside the
/// first chunk of the next level.
#[test]
fn frontiers_of_several_chunks_match_the_item_at_a_time_traversal() {
    let width = 2 * crate::kernel::FRONTIER_CHUNK as u64 + 300;
    let graph = fan_in_graph(width);
    let queries = corpus(&graph, 0xFA9, 0);
    let compared = sweep(&graph, &queries, width + 700, "fan-in");
    assert!(compared >= 150, "only {compared} combinations compared");
}

/// Levels wider than the largest chunk: the chunks of a level double
/// from the first to the largest and the level still has a rest. The
/// budget runs out inside the second — the first doubled — chunk: the
/// first 1024 of the hub's sources have at most 2048 sources between
/// them, the next 2048 about 3800.
#[test]
fn levels_wider_than_the_largest_chunk_match_the_item_at_a_time_traversal() {
    let width = 2 * crate::kernel::FRONTIER_CHUNK_MAX as u64 + 300;
    let graph = fan_in_graph(width);
    let both = Regex::Plus(Box::new(Regex::alt(Regex::label(0), Regex::label(1))));
    let queries = [
        RpqQuery::new(Term::Var, star(0), Term::Const(0)),
        RpqQuery::new(Term::Var, both, Term::Const(0)),
        RpqQuery::new(
            Term::Var,
            Regex::concat(Regex::label(1), star(0)),
            Term::Var,
        ),
    ];
    let compared = sweep(&graph, &queries, width + 3000, "wide fan-in");
    assert_eq!(compared, 24);
}
