//! Commit-by-merge against the definition: after every commit the store's
//! [`DeltaIndex`] must equal — `PartialEq` over all six arrays and the
//! node bound — `DeltaIndex::new` over a `BTreeSet` model that applies
//! the same operations one by one.
//!
//! The streams are built to hit what a merge can get wrong: reviving a
//! tombstoned base triple, tombstoning and reviving in one batch,
//! inserting and deleting a non-base triple in one batch, duplicates, new
//! nodes, deletes of triples that never existed, and a batch that empties
//! the overlay. Auto-compaction is off, so the overlay only changes by
//! merges. Pinned seeds, one more base from `RPQ_TEST_SEED` (CI's
//! `test-seeds` job), and a proptest sweep.

use std::collections::BTreeSet;

use proptest::prelude::*;
use ring::store::{TripleStore, UpdateOp};
use ring::{DeltaIndex, Graph, Id, Triple};

/// splitmix64.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn pick(&mut self, from: &[Triple]) -> Option<Triple> {
        (!from.is_empty()).then(|| from[self.below(from.len() as u64) as usize])
    }
}

const N_NODES: Id = 24;
const N_PREDS: Id = 4;

/// The overlay the model's live set stands for.
struct Model {
    base: BTreeSet<Triple>,
    adds: BTreeSet<Triple>,
    dels: BTreeSet<Triple>,
}

impl Model {
    fn apply(&mut self, op: UpdateOp) {
        match op {
            UpdateOp::Insert(t) if self.base.contains(&t) => self.dels.remove(&t),
            UpdateOp::Insert(t) => self.adds.insert(t),
            UpdateOp::Delete(t) if self.base.contains(&t) => self.dels.insert(t),
            UpdateOp::Delete(t) => self.adds.remove(&t),
        };
    }

    fn delta(&self) -> DeltaIndex {
        DeltaIndex::new(
            self.adds.iter().copied().collect(),
            self.dels.iter().copied().collect(),
            N_PREDS,
        )
    }
}

/// One batch of operations, drawn so that every case of the module docs
/// comes up every few batches.
fn batch(rng: &mut Rng, model: &Model) -> Vec<UpdateOp> {
    let base: Vec<Triple> = model.base.iter().copied().collect();
    let adds: Vec<Triple> = model.adds.iter().copied().collect();
    let dels: Vec<Triple> = model.dels.iter().copied().collect();
    // Every ninth batch or so undoes the whole overlay.
    if rng.below(9) == 0 {
        return adds
            .iter()
            .map(|&t| UpdateOp::Delete(t))
            .chain(dels.iter().map(|&t| UpdateOp::Insert(t)))
            .collect();
    }
    let fresh = |rng: &mut Rng, nodes: Id| {
        Triple::new(rng.below(nodes), rng.below(N_PREDS), rng.below(nodes))
    };
    // One short script per drawn triple (a triple drawn twice gets two).
    let mut scripts: Vec<Vec<UpdateOp>> = Vec::new();
    for _ in 0..rng.below(12) {
        let t = match rng.below(6) {
            0 => rng.pick(&base),
            1 => rng.pick(&adds),
            2 => rng.pick(&dels),
            // Nodes beyond the base universe.
            3 => Some(fresh(rng, N_NODES + 8)),
            _ => Some(fresh(rng, N_NODES)),
        };
        let Some(t) = t else { continue };
        let (ins, del) = (UpdateOp::Insert(t), UpdateOp::Delete(t));
        scripts.push(match rng.below(6) {
            0 => vec![ins],
            1 => vec![del],
            2 => vec![del, ins],
            3 => vec![ins, del],
            4 => vec![ins, ins],
            _ => vec![del, ins, del],
        });
    }
    // Interleaved, each script in its own order.
    let mut ops = Vec::new();
    while !scripts.is_empty() {
        let i = rng.below(scripts.len() as u64) as usize;
        ops.push(scripts[i].remove(0));
        if scripts[i].is_empty() {
            scripts.swap_remove(i);
        }
    }
    ops
}

fn run_stream(seed: u64) {
    let mut rng = Rng(seed);
    let base: Vec<Triple> = (0..40)
        .map(|_| Triple::new(rng.below(N_NODES), rng.below(N_PREDS), rng.below(N_NODES)))
        .collect();
    let graph = Graph::new(base, N_NODES, N_PREDS);
    let mut model = Model {
        base: graph.triples().iter().copied().collect(),
        adds: BTreeSet::new(),
        dels: BTreeSet::new(),
    };
    let store = TripleStore::new(graph).with_auto_compact_ratio(None);
    for round in 0..30 {
        let ops = batch(&mut rng, &model);
        for &op in &ops {
            model.apply(op);
        }
        let before = store.epoch();
        store.apply(ops.iter().copied());
        let epoch = store.commit();
        assert_eq!(epoch, before + u64::from(!ops.is_empty()));
        let snap = store.snapshot();
        assert_eq!(
            *snap.delta,
            model.delta(),
            "seed {seed:#x}, round {round}, batch {ops:?}"
        );
        let live: Vec<Triple> = model
            .base
            .difference(&model.dels)
            .chain(&model.adds)
            .copied()
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        assert_eq!(snap.live_triples(), live, "seed {seed:#x}, round {round}");
    }
    assert_eq!(store.stats().compactions, 0, "the overlay only merges");
}

#[test]
fn pinned_streams_merge_to_the_definition() {
    let mut bases: Vec<u64> = vec![0xA11CE, 0xB0B0B, 0xC0FFEE, 0xD15EA5E, 0xE57A7E];
    if let Ok(s) = std::env::var("RPQ_TEST_SEED") {
        bases.push(s.parse().expect("RPQ_TEST_SEED is a decimal u64"));
    }
    for base in bases {
        for i in 0..40u64 {
            run_stream(base.wrapping_add(i.wrapping_mul(0x9E37_79B9)));
        }
    }
}

/// The cases by hand, so a failure names the one that broke.
#[test]
fn each_named_case_merges_to_the_definition() {
    let t = Triple::new;
    let graph = Graph::new(vec![t(0, 0, 1), t(1, 0, 2), t(2, 1, 0)], 3, 2);
    let store = TripleStore::new(graph).with_auto_compact_ratio(None);
    let delta = |adds: &[Triple], dels: &[Triple]| DeltaIndex::new(adds.to_vec(), dels.to_vec(), 2);
    let commit = |ops: &[UpdateOp]| {
        store.apply(ops.iter().copied());
        store.commit();
        store.snapshot()
    };
    use UpdateOp::{Delete, Insert};

    // A tombstone, an add with a new node, a duplicate, a phantom delete.
    let snap = commit(&[
        Delete(t(0, 0, 1)),
        Insert(t(2, 1, 9)),
        Insert(t(2, 1, 9)),
        Delete(t(7, 1, 7)),
    ]);
    assert_eq!(*snap.delta, delta(&[t(2, 1, 9)], &[t(0, 0, 1)]));
    assert_eq!(snap.delta.n_nodes(), 10);

    // Revive the tombstoned base triple; tombstone-then-revive and
    // insert-then-delete inside one batch leave no trace.
    let snap = commit(&[
        Insert(t(0, 0, 1)),
        Delete(t(1, 0, 2)),
        Insert(t(1, 0, 2)),
        Insert(t(5, 0, 5)),
        Delete(t(5, 0, 5)),
    ]);
    assert_eq!(*snap.delta, delta(&[t(2, 1, 9)], &[]));

    // Inserting a live base triple changes nothing but the epoch.
    let snap = commit(&[Insert(t(2, 1, 0))]);
    assert_eq!(*snap.delta, delta(&[t(2, 1, 9)], &[]));
    assert_eq!(snap.epoch, 3);

    // The batch that empties the overlay: the node bound falls back to 0.
    let snap = commit(&[Delete(t(2, 1, 9))]);
    assert_eq!(*snap.delta, DeltaIndex::empty(2));
    assert_eq!(snap.delta.n_nodes(), 0);
    assert_eq!(snap.live_triples(), snap.graph.triples());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Fresh streams on every run; failing seeds persist under
    /// `proptest-regressions/` and replay first.
    #[test]
    fn random_streams_merge_to_the_definition(seed in 0u64..u64::MAX) {
        run_stream(seed);
    }
}
