//! Reusable working memory: what an [`RpqEngine`] mutates while it
//! evaluates, kept apart from the source it evaluates against.
//!
//! An engine is two things with two lifetimes. The source (ring, delta
//! overlay, shard parts) is borrowed per query; the mask tables and
//! traversal buffers — this module — do not depend on it, so one
//! [`EngineScratch`] serves any sequence of sources and constructing an
//! engine around it costs *O*(1).

use std::mem::size_of;
use std::sync::Mutex;
use std::time::Instant;

use automata::StateMask;
use ring::Id;
use succinct::util::EpochArray;

use crate::engine::RpqEngine;
use crate::plan::PreparedQuery;
use crate::query::{EngineOptions, QueryOutput, RpqQuery};
use crate::source::TripleSource;
use crate::step::ChunkExpansion;
use crate::QueryError;

/// The frontier buffers of traversals whose state masks are `M`.
#[derive(Default)]
pub(crate) struct Levels<M> {
    /// The current BFS level: `(node, state mask)` per item.
    pub(crate) frontier: Vec<(Id, M)>,
    /// The next BFS level, accumulated while the current one is replayed.
    pub(crate) next_frontier: Vec<(Id, M)>,
    /// The expansion of the frontier chunk in hand, reused chunk after
    /// chunk; allocated by the first traversal at this width.
    pub(crate) expansion: Option<Box<ChunkExpansion<M>>>,
}

impl<M: StateMask> Levels<M> {
    /// Heap bytes of the buffers' capacity.
    fn size_bytes(&self) -> usize {
        let expansion = (self.expansion.as_deref())
            .map_or(0, |x| size_of::<ChunkExpansion<M>>() + x.heap_bytes());
        (self.frontier.capacity() + self.next_frontier.capacity()) * size_of::<(Id, M)>()
            + expansion
    }
}

/// A state-mask width the traversal is compiled for — `u64`, `[u64; 2]`
/// or `[u64; 4]` (§3.3's `⌈(m+1)/w⌉` words) — each compiled to its own
/// copy of the kernel. The width's cells in the scratch's mask tables
/// are its words; its frontier buffers are its own.
pub(crate) trait Mask: StateMask + Default {
    /// The scratch's `B[v]` and `D[s]` tables, and this width's frontier
    /// buffers.
    fn parts(scratch: &mut EngineScratch) -> (&mut EpochArray, &mut EpochArray, &mut Levels<Self>);
}

macro_rules! mask_widths {
    ($($mask:ty => $levels:ident),*) => {$(
        impl Mask for $mask {
            fn parts(s: &mut EngineScratch) -> (&mut EpochArray, &mut EpochArray, &mut Levels<Self>) {
                (&mut s.lp_masks, &mut s.visited, &mut s.$levels)
            }
        }
    )*};
}
mask_widths!(u64 => one_word, [u64; 2] => two_words, [u64; 4] => four_words);

/// The mutable tables of a traversal (§4.1–4.2), each with constant-time
/// logical reset, and its frontier buffers. A fresh scratch holds
/// nothing; the first bit-parallel evaluation sizes what its source
/// reads — `B[v]` only where `L_p` is swept (a bare ring), the visited
/// table to the source's node universe — and later ones grow it in
/// place. The tables serve state masks of every width, a cell as many
/// words as the mask; the frontier buffers are kept per width. The §5
/// fast paths keep their batch buffers to themselves.
///
/// Detach it from one engine ([`RpqEngine::into_scratch`]) and attach it
/// to the next ([`RpqEngine::with_scratch`]) to reuse the allocations
/// across sources of any size; answers never depend on what a scratch
/// was used for before.
#[derive(Default)]
pub struct EngineScratch {
    /// `B[v]` masks over the wavelet nodes of `L_p`, heap-ordered.
    pub(crate) lp_masks: EpochArray,
    /// The visited sets, one cell per graph node: `D[s]` in cell `s`, on
    /// every source.
    pub(crate) visited: EpochArray,
    /// Frontier buffers per state-mask width: up to 63 positions, up to
    /// 127, up to 255.
    pub(crate) one_word: Levels<u64>,
    pub(crate) two_words: Levels<[u64; 2]>,
    pub(crate) four_words: Levels<[u64; 4]>,
}

impl EngineScratch {
    /// Heap bytes of the two mask tables alone: what the sources the
    /// scratch has served asked for, whatever their queries were.
    pub fn table_bytes(&self) -> usize {
        self.lp_masks.size_bytes() + self.visited.size_bytes()
    }

    /// Heap bytes currently held: the two mask tables plus the capacity
    /// of the traversal buffers.
    pub fn size_bytes(&self) -> usize {
        self.table_bytes()
            + self.one_word.size_bytes()
            + self.two_words.size_bytes()
            + self.four_words.size_bytes()
    }
}

/// The most scratches a default [`ScratchPool`] keeps between queries.
const MAX_POOLED: usize = 16;

/// A small pool of [`EngineScratch`]es for callers that evaluate through
/// `&self` from any number of threads: each query checks one out (or
/// starts an empty one), and returns it when it completes. The pool
/// therefore never holds more scratches than queries were in flight at
/// once — nor more than its capacity — and retains at most that many
/// times one query's working memory.
///
/// [`Self::evaluate`] is the one way the databases and the server run a
/// resolved query.
pub struct ScratchPool {
    free: Mutex<Vec<EngineScratch>>,
    /// The most scratches kept between queries.
    capacity: usize,
}

impl Default for ScratchPool {
    fn default() -> Self {
        Self::with_capacity(MAX_POOLED)
    }
}

impl ScratchPool {
    /// A pool that keeps at most `capacity` scratches between queries:
    /// for a caller that knows how many it runs at once.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            free: Mutex::default(),
            capacity,
        }
    }

    /// Compiles `query` and evaluates it over `source` on a pooled
    /// scratch: what [`RpqEngine::evaluate`] does, but the plan keeps the
    /// query's expression instead of copying it. With `opts.profile` set
    /// the profile carries the compile time
    /// ([`QueryProfile::compile_us`](crate::QueryProfile::compile_us)).
    pub fn evaluate<S: TripleSource + ?Sized>(
        &self,
        source: &S,
        query: RpqQuery,
        opts: &EngineOptions,
    ) -> Result<QueryOutput, QueryError> {
        let compile_t0 = opts.profile.then(Instant::now);
        let ring = source.ring();
        let inv = |l| ring.inverse_label(l);
        let prepared = PreparedQuery::compile_owned(query.expr, &inv, opts.bp_split_width)?;
        let compile_us = compile_t0.map(|t0| t0.elapsed().as_micros() as u64);
        let (subject, object) = (query.subject, query.object);
        let mut out = self.with_engine(source, |engine| {
            engine.evaluate_prepared(&prepared, subject, object, opts)
        })?;
        if let Some(profile) = out.profile.as_deref_mut() {
            profile.compile_us = compile_us;
        }
        Ok(out)
    }

    /// Runs `f` with an engine over `source` built around a pooled
    /// scratch. If `f` panics the scratch unwinds with the engine and is
    /// dropped, never returned: its tables may be mid-update.
    fn with_engine<'r, S, R>(&self, source: &'r S, f: impl FnOnce(&mut RpqEngine<'r>) -> R) -> R
    where
        S: TripleSource + ?Sized,
    {
        let scratch = self.free().pop().unwrap_or_default();
        let mut engine = RpqEngine::with_scratch(source, scratch);
        let out = f(&mut engine);
        let mut free = self.free();
        if free.len() < self.capacity {
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
