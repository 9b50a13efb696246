//! The layered step source lists and intersects lazily, and answers what
//! a whole listing answers.
//!
//! * Under a delta — adds, tombstones, subjects whose every edge of a
//!   label is tombstoned (a run of them longer than a listing batch),
//!   delta-only nodes above the ring's universe — the first `cap` live
//!   subjects of every canonical and inverse label equal the whole live
//!   listing cut at `cap`, for every cap across the batch boundaries.
//! * The common subjects of every pair of labels, walked in batches of
//!   1, 7 and 256, equal the whole intersection, over a delta and over
//!   1, 2, 4 and 8 shards.
//! * `?x p ?y` under a limit costs what its limit needs under a delta
//!   too: over a label of 12 000 subjects with tombstones, the rank
//!   computations stay within 4× those of the ring alone.

use std::collections::BTreeSet;
use std::sync::Arc;

use automata::Regex;
use ring::ring::RingOptions;
use ring::sharded::ShardedIndex;
use ring::{DeltaIndex, Graph, Id, Ring, Triple};
use rpq_core::{EngineOptions, EvalRoute, MergedView, RpqEngine, RpqQuery, ShardedSource, Term};

/// Ring nodes; the delta adds edges at nodes up to `NODES + 4`.
const NODES: Id = 300;
const PREDS: Id = 3;

fn t(s: Id, p: Id, o: Id) -> Triple {
    Triple::new(s, p, o)
}

/// A linear congruential stream of draws below `m`.
struct Lcg(u64);

impl Lcg {
    fn below(&mut self, m: u64) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 33) % m
    }
}

/// The base graph and the delta over it: label 0 dense, 1 and 2 sparser;
/// subjects 10..40 lose every 0-edge, subject 0 every edge, and a few
/// adds land on nodes past the ring's universe.
fn fixture() -> (Graph, DeltaIndex, BTreeSet<Triple>) {
    let mut rng = Lcg(0x5EED);
    let mut base = BTreeSet::new();
    for _ in 0..2400 {
        base.insert(t(rng.below(NODES), 0, rng.below(NODES)));
    }
    for p in 1..PREDS {
        for _ in 0..500 {
            base.insert(t(rng.below(NODES), p, rng.below(NODES)));
        }
    }
    let mut dels: BTreeSet<Triple> = base
        .iter()
        .filter(|x| (x.p == 0 && (10..40).contains(&x.s)) || x.s == 0)
        .copied()
        .collect();
    let listed: Vec<Triple> = base.iter().copied().collect();
    for _ in 0..120 {
        dels.insert(listed[rng.below(listed.len() as u64) as usize]);
    }
    let mut adds = BTreeSet::new();
    while adds.len() < 150 {
        let far = |rng: &mut Lcg| match rng.below(10) {
            0 => NODES + rng.below(5),
            _ => rng.below(NODES),
        };
        let add = t(far(&mut rng), rng.below(PREDS), far(&mut rng));
        let revives = add.p == 0 && (10..40).contains(&add.s);
        if !base.contains(&add) && !revives {
            adds.insert(add);
        }
    }
    // A subject that lost every 0-edge and gained one back.
    adds.insert(t(20, 0, 7));
    let live = base.difference(&dels).chain(adds.iter()).copied().collect();
    let graph = Graph::new(base.into_iter().collect(), NODES, PREDS);
    let delta = DeltaIndex::new(
        adds.into_iter().collect(),
        dels.into_iter().collect(),
        PREDS,
    );
    (graph, delta, live)
}

/// The live subjects of the completed-alphabet label `p`, ascending.
fn subjects_of(live: &BTreeSet<Triple>, p: Id) -> Vec<Id> {
    let mut subjects: Vec<Id> = live
        .iter()
        .filter_map(|x| match p < PREDS {
            true => (x.p == p).then_some(x.s),
            false => (x.p == p - PREDS).then_some(x.o),
        })
        .collect();
    subjects.sort_unstable();
    subjects.dedup();
    subjects
}

/// Every cap from 0 past the first batches, around the doubling batch
/// boundaries, past the largest label, and unbounded.
fn caps() -> impl Iterator<Item = usize> {
    let boundaries = [16usize, 32, 64, 128, 256, 512]
        .into_iter()
        .flat_map(|b| [b - 1, b, b + 1]);
    (0..40).chain(boundaries).chain([5000, usize::MAX])
}

#[test]
fn lazy_listings_equal_the_whole_listing_cut() {
    let (graph, delta, live) = fixture();
    let ring = Ring::build(&graph, RingOptions::default());
    let view = MergedView::from_parts(&ring, Some(&delta));
    assert!(
        view.n_nodes() > ring.n_nodes(),
        "the adds reach past the ring"
    );
    let mut out = Vec::new();
    for p in 0..2 * PREDS {
        let all = subjects_of(&live, p);
        for cap in caps() {
            view.first_subjects_of_pred(p, cap, &mut out);
            assert_eq!(out, all[..cap.min(all.len())], "label {p}, cap {cap}");
        }
    }
    // The fixture covers what it claims: label 0's subjects 10..40 went
    // but 20, a ring subject past them came back, and so did delta-only
    // nodes.
    let zero = subjects_of(&live, 0);
    assert!(!zero.iter().any(|s| (10..40).contains(s) && *s != 20));
    assert!(zero.contains(&20));
    assert!((0..2 * PREDS).any(|p| subjects_of(&live, p).iter().any(|&s| s >= NODES)));
}

/// The common subjects of `labels` walked `batch` at a time.
fn walk(view: &MergedView<'_>, labels: (Id, Id), batch: usize) -> Vec<Id> {
    let (mut walked, mut out, mut from) = (Vec::new(), Vec::new(), 0);
    loop {
        view.common_subjects_from(labels, from, batch, &mut out);
        assert!(out.len() <= batch);
        let Some(&last) = out.last() else {
            return walked;
        };
        from = last + 1;
        walked.extend_from_slice(&out);
    }
}

#[test]
fn intersections_walked_in_batches_equal_the_whole_intersection() {
    let (graph, delta, live) = fixture();
    let ring = Ring::build(&graph, RingOptions::default());
    let base: BTreeSet<Triple> = graph.triples().iter().copied().collect();
    let intersection = |triples: &BTreeSet<Triple>, a: Id, b: Id| -> Vec<Id> {
        let of_b: BTreeSet<Id> = subjects_of(triples, b).into_iter().collect();
        let of_a = subjects_of(triples, a);
        of_a.into_iter().filter(|s| of_b.contains(s)).collect()
    };
    let sharded: Vec<ShardedSource> = [1, 2, 4, 8]
        .into_iter()
        .map(|n| {
            let shards = ShardedIndex::build(&graph, n, RingOptions::default()).into_shards();
            ShardedSource::new(shards.into_iter().map(Arc::new).collect())
        })
        .collect();
    let mut views = vec![("delta", MergedView::from_parts(&ring, Some(&delta)), &live)];
    views.extend(
        sharded
            .iter()
            .map(|s| ("shards", MergedView::new(s), &base)),
    );
    let mut nonempty = 0;
    for (what, view, triples) in &views {
        for a in 0..2 * PREDS {
            for b in 0..2 * PREDS {
                let all = intersection(triples, a, b);
                nonempty += usize::from(!all.is_empty());
                for batch in [1, 7, 256] {
                    assert_eq!(
                        walk(view, (a, b), batch),
                        all,
                        "{what} ({:?} shards), labels ({a}, {b}), batches of {batch}",
                        view.shards.map(|set| set.len())
                    );
                }
            }
        }
    }
    assert!(
        nonempty > 100,
        "only {nonempty} intersections are non-empty"
    );
}

#[test]
fn a_limited_label_scan_under_tombstones_costs_what_its_limit_needs() {
    // 12 000 subjects of label 0, one edge each; label 1 beside it.
    let n: Id = 12_000;
    let mut triples: Vec<Triple> = (0..n).map(|i| t(i, 0, (i * 7 + 1) % n)).collect();
    triples.extend((0..n / 4).map(|i| t(4 * i, 1, (i * 3) % n)));
    let graph = Graph::new(triples.clone(), n, 2);
    let ring = Ring::build(&graph, RingOptions::default());
    // The first three subjects lose their only 0-edge, and some later ones.
    let dels: Vec<Triple> = triples
        .iter()
        .filter(|x| x.p == 0 && (x.s < 3 || x.s % 1000 == 500))
        .copied()
        .collect();
    let delta = DeltaIndex::new(vec![t(5, 0, 9), t(n - 1, 1, 2)], dels, 2);
    let query = RpqQuery::new(Term::Var, Regex::label(0), Term::Var);
    let opts = EngineOptions {
        limit: 8,
        ..EngineOptions::default()
    };
    let bare = RpqEngine::new(&ring).evaluate(&query, &opts).unwrap();
    let layered = RpqEngine::with_delta(&ring, Some(&delta))
        .evaluate(&query, &opts)
        .unwrap();
    for out in [&bare, &layered] {
        assert_eq!(out.plan.as_ref().unwrap().route, EvalRoute::FastPath);
        assert!(out.truncated && out.pairs.len() == 8);
    }
    assert_eq!(layered.pairs[0].0, 3, "the tombstoned subjects are gone");
    let (r0, r1) = (bare.stats.rank_ops, layered.stats.rank_ops);
    assert!(
        r0 > 0,
        "the bare ring's listing and steps count their ranks"
    );
    assert!(
        r1 <= 4 * r0,
        "under the delta the query took {r1} rank computations, alone {r0}"
    );
}
