//! The compiled-query plan cache: normalized pattern → shared
//! [`PreparedQuery`] (Glushkov product automaton + split bit-parallel
//! tables, both directions).
//!
//! Keys are the canonical rendering of the *parsed, id-level* expression
//! ([`PreparedQuery::cache_key`]), so surface variations — whitespace,
//! redundant parentheses, different IRI spellings resolving to the same
//! predicate — collapse onto one plan. Plans are immutable, so one
//! `Arc<PreparedQuery>` is handed to any number of workers at once;
//! compilation on a miss happens *outside* the lock (two racing workers
//! may both compile; the map keeps one — cheaper than serializing every
//! compile behind the mutex).
//!
//! A cached `PreparedQuery` is *route-agnostic*: it holds the compiled
//! automata every route can need, and the cost-based planner
//! (`rpq_core::planner`) picks the route — fastpath, bitparallel,
//! split, or fallback — per call from the query's endpoints and the
//! ring's live statistics. One cached entry therefore serves all four
//! routes, the rare-label split route included.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use automata::{Label, Regex};
use rpq_core::{EngineOptions, PreparedQuery, QueryError};

use crate::lru::Lru;
use crate::metrics::CacheStats;

/// A bounded, shared cache of compiled plans (LRU by byte cost).
///
/// Keys carry the snapshot **epoch** the plan was compiled against: a
/// compiled plan embeds the ring's inverse-label involution (`p̂ = p +
/// n_preds_base`), which an alphabet-extending rebuild changes — so a
/// queued old-epoch job racing past the bump-triggered invalidation
/// must never hand its plan to a newer epoch.
pub struct PlanCache {
    inner: Mutex<Lru<(u64, String), Arc<PreparedQuery>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    invalidations: AtomicU64,
}

impl PlanCache {
    /// A cache holding at most `budget_bytes` of compiled tables.
    pub fn new(budget_bytes: usize) -> Self {
        Self {
            inner: Mutex::new(Lru::new(budget_bytes)),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
        }
    }

    /// Looks up the plan for `expr` at `epoch`, compiling (at the
    /// engine's default §3.3 split width) and caching it on a miss. `inv`
    /// is the involution of *that epoch's* ring.
    pub fn get_or_compile(
        &self,
        expr: &Regex,
        epoch: u64,
        inv: &impl Fn(Label) -> Label,
    ) -> Result<Arc<PreparedQuery>, QueryError> {
        let key = (epoch, PreparedQuery::cache_key(expr));
        if let Some(plan) = crate::lock_ignore_poison(&self.inner).get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::clone(plan));
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let split_width = EngineOptions::default().bp_split_width;
        let plan = Arc::new(PreparedQuery::compile(expr, inv, split_width)?);
        let cost = plan.size_bytes() + std::mem::size_of::<u64>();
        self.inner
            .lock()
            .unwrap()
            .insert(key, Arc::clone(&plan), cost);
        Ok(plan)
    }

    /// Drops every cached plan (invalidation hook: plans never go stale
    /// against an immutable ring, but a future reindex path calls this).
    pub fn invalidate_all(&self) {
        self.invalidations.fetch_add(1, Ordering::Relaxed);
        crate::lock_ignore_poison(&self.inner).clear();
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Live entry count.
    pub fn len(&self) -> usize {
        crate::lock_ignore_poison(&self.inner).len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub(crate) fn stats(&self) -> CacheStats {
        let inner = crate::lock_ignore_poison(&self.inner);
        CacheStats {
            hits: self.hits(),
            misses: self.misses(),
            evictions: inner.evictions(),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            entries: inner.len(),
            used: inner.used(),
            budget: inner.budget(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inv(l: Label) -> Label {
        if l < 4 {
            l + 4
        } else {
            l - 4
        }
    }

    #[test]
    fn hit_returns_same_plan() {
        let cache = PlanCache::new(1 << 20);
        let e = Regex::Plus(Box::new(Regex::label(1)));
        let p1 = cache.get_or_compile(&e, 0, &inv).unwrap();
        let p2 = cache.get_or_compile(&e, 0, &inv).unwrap();
        assert!(Arc::ptr_eq(&p1, &p2));
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn structurally_equal_exprs_share_a_plan() {
        let cache = PlanCache::new(1 << 20);
        let a = Regex::concat(Regex::label(0), Regex::label(1));
        let b = Regex::concat(Regex::label(0), Regex::label(1));
        cache.get_or_compile(&a, 0, &inv).unwrap();
        cache.get_or_compile(&b, 0, &inv).unwrap();
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.hits(), 1);
    }

    #[test]
    fn invalidate_clears() {
        let cache = PlanCache::new(1 << 20);
        cache.get_or_compile(&Regex::label(0), 0, &inv).unwrap();
        cache.invalidate_all();
        assert!(cache.is_empty());
        cache.get_or_compile(&Regex::label(0), 0, &inv).unwrap();
        assert_eq!(cache.misses(), 2);
    }

    /// Different epochs never share a plan, even for the same pattern —
    /// the alphabet (hence the compiled inverse tables) may differ.
    #[test]
    fn epochs_do_not_share_plans() {
        let cache = PlanCache::new(1 << 20);
        let e = Regex::label(0);
        let p1 = cache.get_or_compile(&e, 1, &inv).unwrap();
        let p2 = cache.get_or_compile(&e, 2, &inv).unwrap();
        assert!(!Arc::ptr_eq(&p1, &p2));
        assert_eq!(cache.misses(), 2);
        assert_eq!(cache.len(), 2);
    }
}
