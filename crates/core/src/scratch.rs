//! Reusable working memory: what an [`RpqEngine`] mutates while it
//! evaluates, kept apart from the source it evaluates against.
//!
//! An engine is three things with three lifetimes. The `L_s` occupancy
//! table is static per index and lives in the [`ring::Ring`]; the
//! source (ring, delta overlay, shard parts) is borrowed per query; the
//! mask tables and traversal buffers — this module — depend on neither,
//! so one [`EngineScratch`] serves any sequence of sources and
//! constructing an engine around it costs *O*(1).

use std::mem::size_of;
use std::sync::Mutex;

use automata::Label;
use ring::Id;
use succinct::util::EpochArray;
use succinct::wavelet_matrix::MultiTraversal;

use crate::engine::RpqEngine;
use crate::source::TripleSource;

/// The mutable tables of an evaluation (§4.1–4.2), each with
/// constant-time logical reset. A fresh scratch holds nothing; each table
/// is sized — and later grown in place — by the first evaluation route
/// that needs it, so a layered (delta or sharded) evaluation never
/// allocates the wavelet-node masks and a pure-ring one never allocates
/// the per-node masks of the merged traversal.
///
/// Detach it from one engine ([`RpqEngine::into_scratch`]) and attach it
/// to the next ([`RpqEngine::with_scratch`]) to reuse the allocations
/// across sources of any size; answers never depend on what a scratch
/// was used for before.
#[derive(Default)]
pub struct EngineScratch {
    /// `B[v]` masks over the wavelet nodes of `L_p`, heap-ordered.
    pub(crate) lp_masks: EpochArray,
    /// `D[v]`/`D[s]` masks over the wavelet nodes of `L_s`; the leaf level
    /// (`node_index(width, s)`) holds the per-graph-node visited sets, and
    /// internal nodes hold the intersection of the visited sets below them
    /// (subject-free subtrees counting as saturated).
    pub(crate) ls_masks: EpochArray,
    /// Per-node visited masks of the merged (layered) traversal.
    pub(crate) merged_masks: EpochArray,
    /// Frontier-batching buffers of the pure traversal.
    pub(crate) traverse: TraverseScratch,
}

impl EngineScratch {
    /// Heap bytes currently held: the three mask tables plus the
    /// capacity of the traversal buffers.
    pub fn size_bytes(&self) -> usize {
        self.lp_masks.size_bytes()
            + self.ls_masks.size_bytes()
            + self.merged_masks.size_bytes()
            + self.traverse.size_bytes()
    }
}

/// Scratch buffers for the frontier-batched backward traversal.
#[derive(Default)]
pub(crate) struct TraverseScratch {
    /// Batched `L_p` traversal state (layer-2 primitive).
    pub(crate) mt: MultiTraversal,
    /// The current BFS level: `(range of L_p, state mask)` per item.
    pub(crate) frontier: Vec<(usize, usize, u64)>,
    /// The next BFS level, accumulated while the current one is processed.
    pub(crate) next_frontier: Vec<(usize, usize, u64)>,
    /// Chunk ranges handed to the batched traversal.
    pub(crate) ranges: Vec<(usize, usize)>,
    /// Chunk state masks, parallel to `ranges`.
    pub(crate) ds: Vec<u64>,
    /// Per-item part-one output: `(pred, rank_b, rank_e, D & B[p])`.
    pub(crate) pred_hits: Vec<Vec<(Label, usize, usize, u64)>>,
    /// Part-two output: `(subject, fresh states)`.
    pub(crate) subjects: Vec<(Id, u64)>,
}

impl TraverseScratch {
    fn size_bytes(&self) -> usize {
        type Hit = (Label, usize, usize, u64);
        self.mt.size_bytes()
            + (self.frontier.capacity() + self.next_frontier.capacity())
                * size_of::<(usize, usize, u64)>()
            + self.ranges.capacity() * size_of::<(usize, usize)>()
            + self.ds.capacity() * size_of::<u64>()
            + self.pred_hits.capacity() * size_of::<Vec<Hit>>()
            + self
                .pred_hits
                .iter()
                .map(|hits| hits.capacity() * size_of::<Hit>())
                .sum::<usize>()
            + self.subjects.capacity() * size_of::<(Id, u64)>()
    }
}

/// The most scratches a [`ScratchPool`] keeps between queries.
const MAX_POOLED: usize = 16;

/// A small pool of [`EngineScratch`]es for callers that evaluate through
/// `&self` from any number of threads: each query checks one out (or
/// starts an empty one), and returns it when it completes. The pool
/// therefore never holds more scratches than queries were in flight at
/// once — nor more than a fixed few — and retains at most that many
/// times one query's working memory.
#[derive(Default)]
pub struct ScratchPool {
    free: Mutex<Vec<EngineScratch>>,
}

impl ScratchPool {
    /// Runs `f` with an engine over `source` built around a pooled
    /// scratch. If `f` panics the scratch unwinds with the engine and is
    /// dropped, never returned: its tables may be mid-update.
    pub fn with_engine<'r, S, R>(&self, source: &'r S, f: impl FnOnce(&mut RpqEngine<'r>) -> R) -> R
    where
        S: TripleSource + ?Sized,
    {
        let scratch = self.free().pop().unwrap_or_default();
        let mut engine = RpqEngine::with_scratch(source, scratch);
        let out = f(&mut engine);
        let mut free = self.free();
        if free.len() < MAX_POOLED {
            free.push(engine.into_scratch());
        }
        out
    }

    /// Scratches currently checked in.
    pub fn pooled(&self) -> usize {
        self.free().len()
    }

    fn free(&self) -> std::sync::MutexGuard<'_, Vec<EngineScratch>> {
        self.free
            .lock()
            .expect("the scratch pool lock is only held across a push or a pop")
    }
}
