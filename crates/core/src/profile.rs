//! Query execution profiles — the "EXPLAIN ANALYZE" side of the
//! engine.
//!
//! [`explain`](crate::explain) answers *what the planner decided*;
//! a [`QueryProfile`] answers *what the execution actually did*:
//! per-phase wall time (planning vs. execution), where the traversal
//! kernel's time went ([`PhaseTimes`]), a per-BFS-level record of
//! frontier sizes and rank-operation deltas, and the
//! [`PairBuffer`](crate::pairbuf::PairBuffer) compaction count. The paper's
//! whole argument is cost accounting — rank/select operations decide
//! whether the ring beats the baselines — and the profile is where
//! those costs become visible per query instead of as process-wide
//! aggregates.
//!
//! Profiles are **opt-in and strictly observational**
//! ([`EngineOptions::profile`](crate::EngineOptions::profile)): the
//! planner never sees the flag, so the executed plan — and with it the
//! answer set, flags, trace and truncation point — is bit-identical
//! with profiling on or off. When the flag is off no clock is read and
//! nothing is allocated; the only unconditional cost anywhere is the
//! one-increment compaction counter inside `PairBuffer`.
//!
//! The server fills the three `Option` fields with its own phase
//! timings (queue wait, pattern compilation, cache disposition); core
//! evaluation leaves them `None`.

/// One BFS level of a product-graph traversal, as the profiler saw it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LevelSample {
    /// Frontier size at the head of the level (ranges/items expanded).
    pub frontier: u64,
    /// Wavelet rank operations charged to this level.
    pub rank_ops: u64,
}

/// Where a traversal's time went, in nanoseconds summed over its chunks
/// and over every traversal of the query (the passes of a
/// variable-to-variable query, the sub-queries of a split). The four
/// phases are the kernel's: `part_one_ns` finds a chunk's work items (the
/// labels firing into it, §4.1), `part_two_ns` their subjects (§4.2, and
/// the label listing of a full-range first level), `replay_ns` walks them
/// against the live visited table, and `order_ns` puts each BFS level in
/// node order. The §5 fast paths charge their label listings and intersections to part one and
/// their steps to part two.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseTimes {
    /// Part one: the labels firing into each chunk, ns.
    pub part_one_ns: u64,
    /// Part two: the subjects of each chunk's work items, ns.
    pub part_two_ns: u64,
    /// The replay of each chunk against the live visited table, ns.
    pub replay_ns: u64,
    /// Putting each BFS level in node order, ns.
    pub order_ns: u64,
}

impl PhaseTimes {
    /// Adds `other`'s times to these.
    pub fn add(&mut self, other: &PhaseTimes) {
        self.part_one_ns += other.part_one_ns;
        self.part_two_ns += other.part_two_ns;
        self.replay_ns += other.replay_ns;
        self.order_ns += other.order_ns;
    }
}

/// A per-query execution profile. Attached to
/// [`QueryOutput::profile`](crate::QueryOutput::profile) when
/// [`EngineOptions::profile`](crate::EngineOptions::profile) is set;
/// rendered as stable JSON by
/// [`QueryProfile::to_json`](crate::profile::QueryProfile::to_json)
/// (defined alongside the plan renderer in [`crate::explain`]).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct QueryProfile {
    /// Wall time spent planning (cost estimation + route choice), µs.
    pub plan_us: u64,
    /// Wall time spent executing the chosen route, µs.
    pub exec_us: u64,
    /// End-to-end wall time inside the engine (≥ `plan_us + exec_us`),
    /// µs.
    pub total_us: u64,
    /// Per-BFS-level samples in traversal order. Routes without a level
    /// structure (the §5 fast paths) leave this empty; multi-traversal
    /// routes (var-to-var two-pass, rare-label splits) concatenate their
    /// passes.
    pub levels: Vec<LevelSample>,
    /// `PairBuffer` compactions that did real work (mirrors
    /// [`TraversalStats::pair_compactions`](crate::TraversalStats::pair_compactions)).
    pub compactions: u64,
    /// The traversal kernel's time, phase by phase.
    pub phases: PhaseTimes,
    /// Server path only: wall time the job waited in the queue before a
    /// worker picked it up, µs.
    pub queue_wait_us: Option<u64>,
    /// Server path only: pattern compilation time on a plan-cache miss,
    /// µs (`Some(0)` on a plan-cache hit).
    pub compile_us: Option<u64>,
    /// Server path only: whether the answer came from the result cache
    /// (a hit skips planning and execution entirely).
    pub cache_hit: Option<bool>,
}

/// Per-level sample collector threaded through the traversal loops, and
/// the kernel's [`PhaseTimes`] they add up as they go.
///
/// The loops feed it *cumulative* counters; the collector turns them
/// into per-level deltas. Protocol: call [`enter`](Self::enter) at each
/// level head with the frontier size and the current cumulative
/// rank-op count, and [`finish`](Self::finish) once
/// after the loop (early exits included). `enter` closes the previous
/// level, so a query that runs several traversals (two-pass var-to-var,
/// split sub-queries) can share one collector — the passes simply
/// concatenate.
#[derive(Debug, Default)]
pub struct LevelProf {
    samples: Vec<LevelSample>,
    mark_rank: u64,
    open: bool,
    pub(crate) phases: PhaseTimes,
}

impl LevelProf {
    /// A fresh, empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Begin a level: `frontier` items about to expand, cumulative
    /// counters as of now.
    pub fn enter(&mut self, frontier: u64, rank_ops: u64) {
        self.close(rank_ops);
        self.samples.push(LevelSample {
            frontier,
            ..LevelSample::default()
        });
        self.mark_rank = rank_ops;
        self.open = true;
    }

    /// Close the last open level with the final cumulative counters.
    /// Idempotent; safe to call on a collector that never saw a level.
    pub fn finish(&mut self, rank_ops: u64) {
        self.close(rank_ops);
    }

    fn close(&mut self, rank_ops: u64) {
        if !self.open {
            return;
        }
        self.open = false;
        if let Some(last) = self.samples.last_mut() {
            last.rank_ops = rank_ops.saturating_sub(self.mark_rank);
        }
    }

    /// The collected samples, consuming the collector.
    pub fn into_samples(self) -> Vec<LevelSample> {
        self.samples
    }

    /// Number of levels recorded so far.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no level was recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deltas_are_per_level() {
        let mut p = LevelProf::new();
        p.enter(4, 0);
        p.enter(9, 10); // closes level 0: 10 rank ops
        p.enter(2, 25); // closes level 1: 15 rank ops
        p.finish(27); // closes level 2: 2 rank ops
        p.finish(99); // idempotent: already closed
        let s = p.into_samples();
        assert_eq!(s.len(), 3);
        assert_eq!((s[0].frontier, s[0].rank_ops), (4, 10));
        assert_eq!((s[1].frontier, s[1].rank_ops), (9, 15));
        assert_eq!((s[2].frontier, s[2].rank_ops), (2, 2));
    }

    #[test]
    fn passes_concatenate_with_independent_marks() {
        let mut p = LevelProf::new();
        // Pass one, its counter ends at 7.
        p.enter(3, 0);
        p.finish(7);
        // Pass two restarts from its own cumulative baseline.
        p.enter(5, 7);
        p.finish(9);
        let s = p.into_samples();
        assert_eq!(s[0].rank_ops, 7);
        assert_eq!(s[1].rank_ops, 2);
    }

    #[test]
    fn empty_collector_is_harmless() {
        let mut p = LevelProf::new();
        p.finish(0);
        assert!(p.is_empty());
        assert_eq!(p.len(), 0);
        assert!(p.into_samples().is_empty());
    }
}
