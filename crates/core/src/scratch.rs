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
    /// The current BFS level: `(range of L_p, state mask)` per item.
    pub(crate) frontier: Vec<(usize, usize, u64)>,
    /// The next BFS level, accumulated while the current one is processed.
    pub(crate) next_frontier: Vec<(usize, usize, u64)>,
    /// One expansion per frontier chunk in flight: a single one, reused
    /// chunk after chunk, unless a level fans out across threads.
    pub(crate) expansions: Vec<ChunkExpansion>,
    /// `(subject, fresh states)` of the product nodes a chunk's replay
    /// admitted, until part three turns them into the next frontier.
    pub(crate) admitted: Vec<(Id, u64)>,
}

impl TraverseScratch {
    fn size_bytes(&self) -> usize {
        (self.frontier.capacity() + self.next_frontier.capacity())
            * size_of::<(usize, usize, u64)>()
            + self.expansions.capacity() * size_of::<ChunkExpansion>()
            + self
                .expansions
                .iter()
                .map(ChunkExpansion::heap_bytes)
                .sum::<usize>()
            + self.admitted.capacity() * size_of::<(Id, u64)>()
    }
}

/// A part-one leaf: `(item, pred, rank_b, rank_e, D_item & B[pred])`.
pub(crate) type PredHit = (u32, Label, usize, usize, u64);

/// What expanding one frontier chunk read-only produces, and the buffers
/// it is produced in (all flat, all reused). A chunk's *work items* are
/// its `(item, predicate)` pairs in FIFO order — items as they stand in
/// the chunk, each item's predicates ascending.
#[derive(Default)]
pub(crate) struct ChunkExpansion {
    /// Level-synchronous traversal state, used for `L_p` and then `L_s`.
    pub(crate) mt: MultiTraversal,
    /// The ranges of the sweep in progress: the items' in part one, the
    /// work items' in part two.
    pub(crate) ranges: Vec<(usize, usize)>,
    /// The items' state masks.
    pub(crate) ds: Vec<u64>,
    /// Part one's leaves in arrival order (predicate by predicate).
    pub(crate) hits: Vec<PredHit>,
    /// Per item, where its work items end.
    pub(crate) item_end: Vec<usize>,
    /// Per work item, the state set `D'` of Eq. 2 its subjects are
    /// reached with; 0 where the automaton has no way back.
    pub(crate) work_d: Vec<u64>,
    /// Part two's leaves in arrival order (subject by subject):
    /// `(work item, subject)`.
    pub(crate) candidates: Vec<(u32, Id)>,
    /// Per work item, where its subjects end.
    pub(crate) work_end: Vec<usize>,
    /// The candidates by work item, each work item's ascending.
    pub(crate) subjects: Vec<Id>,
    /// Rank computations of the two sweeps.
    pub(crate) rank_ops: u64,
    /// Ranks the batching avoided.
    pub(crate) rank_ops_saved: u64,
    /// Wavelet nodes the two sweeps entered.
    pub(crate) wavelet_nodes: u64,
}

impl ChunkExpansion {
    fn heap_bytes(&self) -> usize {
        self.mt.size_bytes()
            + self.ranges.capacity() * size_of::<(usize, usize)>()
            + (self.ds.capacity() + self.work_d.capacity()) * size_of::<u64>()
            + self.hits.capacity() * size_of::<PredHit>()
            + (self.item_end.capacity() + self.work_end.capacity()) * size_of::<usize>()
            + self.candidates.capacity() * size_of::<(u32, Id)>()
            + self.subjects.capacity() * size_of::<Id>()
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
