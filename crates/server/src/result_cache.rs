//! The answer cache: `(normalized pattern, endpoints)` → shared, sorted
//! answer set, bounded by bytes with LRU eviction.
//!
//! Only *complete* answers are cached — anything truncated, timed out or
//! budget-aborted is request-specific and gets recomputed. A cached
//! answer is therefore valid for any later request of the same key
//! regardless of that request's limits (a full set subsumes every
//! partial).
//!
//! A commit to an updatable source publishes a snapshot at a new epoch,
//! and every key carries the epoch its query was submitted under, so an
//! entry only ever answers queries of its own epoch. The server clears
//! the cache the first time a submit sees a newer epoch
//! (`RpqServer::note_epoch`), so the old epoch's answers do not hold the
//! byte budget; [`ResultCache::invalidate_all`] does the clearing, and
//! bumps a generation counter so in-flight insertions from before it are
//! dropped instead of resurrecting old answers.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use rpq_core::Term;

use crate::lru::Lru;
use crate::metrics::CacheStats;
use crate::server::QueryAnswer;

/// Cache key: the query's normalized pattern, the two endpoints, and the
/// snapshot epoch the query was submitted under. The epoch makes cross-
/// epoch hits structurally impossible — even a pre-bump answer inserted
/// *after* the bump-triggered invalidation (a worker racing a commit)
/// can only ever be found by queries of its own epoch.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct ResultKey {
    /// Normalized pattern ([`rpq_core::PreparedQuery::cache_key`]).
    pub pattern: String,
    /// Subject endpoint.
    pub subject: Term,
    /// Object endpoint.
    pub object: Term,
    /// Snapshot epoch captured at submit time.
    pub epoch: u64,
}

/// A bounded, shared cache of complete query answers.
pub struct ResultCache {
    inner: Mutex<Lru<ResultKey, (u64, Arc<QueryAnswer>)>>,
    generation: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    invalidations: AtomicU64,
}

impl ResultCache {
    /// A cache holding at most `budget_bytes` of answer pairs. A budget
    /// of 0 disables caching entirely.
    pub fn new(budget_bytes: usize) -> Self {
        Self {
            inner: Mutex::new(Lru::new(budget_bytes)),
            generation: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
        }
    }

    /// Looks up a cached answer, counting a hit or a miss.
    pub fn get(&self, key: &ResultKey) -> Option<Arc<QueryAnswer>> {
        let hit = self.get_hit(key);
        if hit.is_none() {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// Looks up a cached answer, counting a hit but not a miss: for a
    /// look ahead whose miss a later [`Self::get`] of the same request
    /// counts, so that every request counts one hit or one miss.
    pub(crate) fn get_hit(&self, key: &ResultKey) -> Option<Arc<QueryAnswer>> {
        let gen = self.generation.load(Ordering::Acquire);
        let hit = match crate::lock_ignore_poison(&self.inner).get(key) {
            Some((g, ans)) if *g == gen => Some(Arc::clone(ans)),
            _ => None,
        };
        if hit.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// Caches a complete answer (the caller guarantees completeness).
    /// The entry's cost is the answer's pair bytes plus key overhead.
    pub fn insert(&self, key: ResultKey, answer: Arc<QueryAnswer>) {
        let cost = answer.size_bytes() + key.pattern.len() + 64;
        let gen = self.generation.load(Ordering::Acquire);
        crate::lock_ignore_poison(&self.inner).insert(key, (gen, answer), cost);
    }

    /// Invalidation hook: drops everything and bumps the generation so
    /// racing insertions of pre-invalidation answers are ignored on read.
    pub fn invalidate_all(&self) {
        self.generation.fetch_add(1, Ordering::AcqRel);
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

    fn answer(pairs: Vec<(u64, u64)>) -> Arc<QueryAnswer> {
        Arc::new(QueryAnswer {
            pairs,
            truncated: false,
            timed_out: false,
            route: None,
            stats: Default::default(),
            profile: None,
        })
    }

    fn key(p: &str) -> ResultKey {
        ResultKey {
            pattern: p.to_string(),
            subject: Term::Const(0),
            object: Term::Var,
            epoch: 0,
        }
    }

    #[test]
    fn round_trip_and_counters() {
        let cache = ResultCache::new(1 << 16);
        assert!(cache.get(&key("0+")).is_none());
        cache.insert(key("0+"), answer(vec![(0, 1), (0, 2)]));
        let hit = cache.get(&key("0+")).unwrap();
        assert_eq!(hit.pairs, vec![(0, 1), (0, 2)]);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        // A hit-only lookup counts its hit, and nothing on a miss.
        assert!(cache.get_hit(&key("0+")).is_some());
        assert!(cache.get_hit(&key("1")).is_none());
        assert_eq!((cache.hits(), cache.misses()), (2, 1));
        // Different endpoints are a different key.
        let other = ResultKey {
            subject: Term::Var,
            ..key("0+")
        };
        assert!(cache.get(&other).is_none());
    }

    #[test]
    fn byte_budget_evicts() {
        // Each entry costs ~ 16·pairs + pattern + 64; a tight budget only
        // keeps one.
        let cache = ResultCache::new(200);
        cache.insert(key("a"), answer(vec![(0, 0); 5]));
        cache.insert(key("b"), answer(vec![(1, 1); 5]));
        assert!(cache.get(&key("a")).is_none());
        assert!(cache.get(&key("b")).is_some());
        assert!(cache.stats().used <= 200);
    }

    #[test]
    fn zero_budget_disables() {
        let cache = ResultCache::new(0);
        cache.insert(key("a"), answer(vec![(0, 0)]));
        assert!(cache.get(&key("a")).is_none());
    }

    #[test]
    fn invalidation_empties_and_bumps_generation() {
        let cache = ResultCache::new(1 << 16);
        cache.insert(key("a"), answer(vec![(0, 0)]));
        cache.invalidate_all();
        assert!(cache.get(&key("a")).is_none());
        // Fresh insertions after the bump are served again.
        cache.insert(key("a"), answer(vec![(0, 0)]));
        assert!(cache.get(&key("a")).is_some());
    }
}
