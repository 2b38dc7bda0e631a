//! The result cache: an LRU over exact (query, options) pairs.
//!
//! RAG and recommendation streams re-ask popular questions, so a small
//! serving-side cache short-circuits the engine entirely for repeats. The
//! key is the query's exact float bits plus the options that shaped the
//! answer (`k`, `nprobe`): a repeat with a different `k` must miss, because
//! its neighbor list would differ.
//!
//! Under live index mutation, entries also carry the **epoch** of the
//! snapshot that computed them. A lookup passes the epoch current at the
//! query's arrival; an entry computed under an older epoch is removed and
//! counted as **invalidated** — neither a hit (the answer may be stale) nor
//! a plain miss (the cache did its job; the index moved underneath it).
//! Frozen-index callers use the epoch-0 wrappers and behave bit-identically
//! to the pre-mutation cache.

use annkit::topk::Neighbor;
use baselines::engine::QueryOptions;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// A clone shares the query's bits, so the recency index holds no second
/// copy of them.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct CacheKey {
    query_bits: Arc<[u32]>,
    k: usize,
    nprobe: usize,
}

impl CacheKey {
    fn new(query: &[f32], options: &QueryOptions) -> Self {
        Self {
            query_bits: query.iter().map(|x| x.to_bits()).collect(),
            k: options.k,
            nprobe: options.nprobe,
        }
    }
}

#[derive(Debug, Clone)]
struct CacheEntry {
    neighbors: Vec<Neighbor>,
    /// Simulated time the answer became available (a repeat arriving earlier
    /// must wait for it — no time-travel hits).
    ready_at: f64,
    /// Index epoch the answer was computed under (0 for a frozen index).
    epoch: u64,
    last_used: u64,
}

/// A least-recently-used cache of query results with hit/miss accounting.
#[derive(Debug, Clone)]
pub struct ResultCache {
    capacity: usize,
    entries: HashMap<CacheKey, CacheEntry>,
    /// Every entry's key by its `last_used` tick, oldest first. Ticks are
    /// unique, so the first is the one least-recently-used entry.
    recency: BTreeMap<u64, CacheKey>,
    clock: u64,
    hits: u64,
    misses: u64,
    invalidated: u64,
}

impl ResultCache {
    /// A cache holding at most `capacity` entries (0 disables caching).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            entries: HashMap::new(),
            recency: BTreeMap::new(),
            clock: 0,
            hits: 0,
            misses: 0,
            invalidated: 0,
        }
    }

    /// Looks up a query's cached neighbors against a frozen (epoch-0) index.
    /// Equivalent to `lookup_at_epoch` with epoch 0.
    pub fn lookup(
        &mut self,
        query: &[f32],
        options: &QueryOptions,
    ) -> Option<(Vec<Neighbor>, f64)> {
        self.lookup_at_epoch(query, options, 0)
    }

    /// Looks up a query's cached neighbors, counting a hit or a miss and
    /// refreshing the entry's recency on a hit. A hit returns the neighbors
    /// together with the simulated time the answer became available.
    ///
    /// `current_epoch` is the index epoch active at the query's arrival: an
    /// entry computed under an older epoch is removed and counted as
    /// **invalidated** — neither a hit nor a plain miss — and the caller
    /// recomputes against the fresh snapshot.
    pub(crate) fn lookup_at_epoch(
        &mut self,
        query: &[f32],
        options: &QueryOptions,
        current_epoch: u64,
    ) -> Option<(Vec<Neighbor>, f64)> {
        if self.capacity == 0 {
            self.misses += 1;
            return None;
        }
        self.clock += 1;
        let key = CacheKey::new(query, options);
        match self.entries.get_mut(&key) {
            Some(entry) if entry.epoch < current_epoch => {
                self.recency.remove(&entry.last_used);
                self.entries.remove(&key);
                self.invalidated += 1;
                None
            }
            Some(entry) => {
                if let Some(key) = self.recency.remove(&entry.last_used) {
                    self.recency.insert(self.clock, key);
                }
                entry.last_used = self.clock;
                self.hits += 1;
                Some((entry.neighbors.clone(), entry.ready_at))
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Stores a frozen-index (epoch-0) answer. Equivalent to
    /// `insert_at_epoch` with epoch 0.
    pub fn insert(
        &mut self,
        query: &[f32],
        options: &QueryOptions,
        neighbors: Vec<Neighbor>,
        ready_at: f64,
    ) {
        self.insert_at_epoch(query, options, neighbors, ready_at, 0);
    }

    /// Stores a query's neighbors (available from simulated time `ready_at`,
    /// computed under index epoch `epoch`), evicting the least-recently-used
    /// entry when the cache is full.
    pub(crate) fn insert_at_epoch(
        &mut self,
        query: &[f32],
        options: &QueryOptions,
        neighbors: Vec<Neighbor>,
        ready_at: f64,
        epoch: u64,
    ) {
        if self.capacity == 0 {
            return;
        }
        self.clock += 1;
        let key = CacheKey::new(query, options);
        if let Some(entry) = self.entries.get(&key) {
            self.recency.remove(&entry.last_used);
        } else if self.entries.len() >= self.capacity {
            if let Some((_, lru)) = self.recency.pop_first() {
                self.entries.remove(&lru);
            }
        }
        self.recency.insert(self.clock, key.clone());
        self.entries.insert(
            key,
            CacheEntry {
                neighbors,
                ready_at,
                epoch,
                last_used: self.clock,
            },
        );
    }

    /// Entries currently cached.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Lookups that found an entry.
    pub(crate) fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that found nothing.
    pub(crate) fn misses(&self) -> u64 {
        self.misses
    }

    /// Lookups that found an entry computed under an older epoch than the
    /// query's arrival epoch — the entry was dropped and the answer
    /// recomputed. Neither hits nor misses; always 0 on a frozen index.
    pub(crate) fn invalidated(&self) -> u64 {
        self.invalidated
    }

    /// The epoch active at time `t` under an `(activation, epoch)` schedule
    /// (see [`SnapshotTimeline::epoch_schedule`]): the entry with the largest
    /// activation `<= t`, or 0 for an empty (frozen-index) schedule. Shared
    /// by the replay front-end and the threaded runtime's admission stage so
    /// both stamp and invalidate identically.
    ///
    /// [`SnapshotTimeline::epoch_schedule`]: annkit::mutation::SnapshotTimeline::epoch_schedule
    pub(crate) fn epoch_at(schedule: &[(f64, u64)], t: f64) -> u64 {
        let idx = schedule.partition_point(|(when, _)| *when <= t);
        idx.checked_sub(1).map_or(0, |i| schedule[i].1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(k: usize, nprobe: usize) -> QueryOptions {
        QueryOptions::new(k, nprobe)
    }

    fn hit(id: u64) -> Vec<Neighbor> {
        vec![Neighbor::new(id, 0.5)]
    }

    #[test]
    fn hit_and_miss_accounting() {
        let mut cache = ResultCache::new(8);
        let q = [1.0f32, 2.0];
        assert!(cache.lookup(&q, &opts(10, 8)).is_none());
        cache.insert(&q, &opts(10, 8), hit(7), 0.5);
        let (found, ready_at) = cache.lookup(&q, &opts(10, 8)).expect("cached");
        assert_eq!(found[0].id, 7);
        assert_eq!(ready_at, 0.5);
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
    }

    #[test]
    fn different_options_are_different_entries() {
        let mut cache = ResultCache::new(8);
        let q = [1.0f32, 2.0];
        cache.insert(&q, &opts(10, 8), hit(1), 0.0);
        assert!(cache.lookup(&q, &opts(20, 8)).is_none(), "k differs");
        assert!(cache.lookup(&q, &opts(10, 4)).is_none(), "nprobe differs");
        assert!(cache.lookup(&q, &opts(10, 8)).is_some());
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut cache = ResultCache::new(2);
        let (a, b, c) = ([1.0f32], [2.0f32], [3.0f32]);
        cache.insert(&a, &opts(10, 8), hit(1), 0.0);
        cache.insert(&b, &opts(10, 8), hit(2), 0.0);
        // Touch `a`, making `b` the LRU entry.
        assert!(cache.lookup(&a, &opts(10, 8)).is_some());
        cache.insert(&c, &opts(10, 8), hit(3), 0.0);
        assert_eq!(cache.len(), 2);
        assert!(cache.lookup(&a, &opts(10, 8)).is_some(), "a survived");
        assert!(cache.lookup(&b, &opts(10, 8)).is_none(), "b was evicted");
        assert!(cache.lookup(&c, &opts(10, 8)).is_some(), "c is resident");
    }

    /// A mixed stream of lookups, inserts and epoch bumps leaves the cache
    /// holding what an LRU that scans for the smallest tick holds, with one
    /// recency entry per cached entry.
    #[test]
    fn the_ordered_index_evicts_what_a_scan_for_the_oldest_tick_would() {
        let mut cache = ResultCache::new(8);
        // Reference: (key, last used tick, epoch), scanned for the minimum.
        let mut model: Vec<(u32, u64, u64)> = Vec::new();
        let (mut tick, mut epoch, mut state) = (0u64, 0u64, 7u64);
        for _ in 0..4_000 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let key = (state >> 33) as u32 % 20;
            let q = [key as f32];
            if (state >> 20) % 97 == 0 {
                epoch += 1;
            }
            tick += 1;
            if (state >> 12) % 3 == 0 {
                cache.insert_at_epoch(&q, &opts(10, 8), hit(key.into()), 0.0, epoch);
                if let Some(at) = model.iter().position(|e| e.0 == key) {
                    model.remove(at);
                } else if model.len() == 8 {
                    let oldest = (0..model.len()).min_by_key(|&i| model[i].1).unwrap();
                    model.remove(oldest);
                }
                model.push((key, tick, epoch));
            } else {
                let found = cache.lookup_at_epoch(&q, &opts(10, 8), epoch).is_some();
                let at = model.iter().position(|e| e.0 == key);
                match at {
                    Some(at) if model[at].2 < epoch => {
                        model.remove(at);
                        assert!(!found);
                    }
                    Some(at) => {
                        model[at].1 = tick;
                        assert!(found);
                    }
                    None => assert!(!found),
                }
            }
            assert_eq!(cache.len(), model.len());
            assert_eq!(cache.recency.len(), cache.len());
        }
        assert!(cache.invalidated() > 0 && cache.hits() > 0 && cache.misses() > 0);
    }

    #[test]
    fn reinserting_an_existing_key_does_not_evict() {
        let mut cache = ResultCache::new(2);
        let (a, b) = ([1.0f32], [2.0f32]);
        cache.insert(&a, &opts(10, 8), hit(1), 0.0);
        cache.insert(&b, &opts(10, 8), hit(2), 0.0);
        cache.insert(&a, &opts(10, 8), hit(9), 1.0); // refresh, not eviction
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.lookup(&a, &opts(10, 8)).unwrap().0[0].id, 9);
        assert!(cache.lookup(&b, &opts(10, 8)).is_some());
    }

    #[test]
    fn stale_epoch_entries_are_invalidated_not_missed() {
        let mut cache = ResultCache::new(8);
        let q = [1.0f32, 2.0];
        cache.insert_at_epoch(&q, &opts(10, 8), hit(7), 0.5, 3);
        // Same-epoch and older-epoch arrivals hit.
        assert!(cache.lookup_at_epoch(&q, &opts(10, 8), 3).is_some());
        // A newer-epoch arrival invalidates: the entry is removed and the
        // rejection is counted separately from hits and misses.
        assert!(cache.lookup_at_epoch(&q, &opts(10, 8), 4).is_none());
        assert_eq!(cache.invalidated(), 1);
        assert_eq!((cache.hits(), cache.misses()), (1, 0));
        assert!(cache.is_empty(), "the stale entry was dropped");
        // The next lookup of the same key is a plain miss.
        assert!(cache.lookup_at_epoch(&q, &opts(10, 8), 4).is_none());
        assert_eq!(
            (cache.hits(), cache.misses(), cache.invalidated()),
            (1, 1, 1)
        );
        // A re-inserted fresh answer hits again.
        cache.insert_at_epoch(&q, &opts(10, 8), hit(9), 1.0, 4);
        assert_eq!(
            cache.lookup_at_epoch(&q, &opts(10, 8), 4).unwrap().0[0].id,
            9
        );
    }

    #[test]
    fn epoch_schedule_resolution() {
        // Empty schedule = frozen index: epoch 0 forever.
        assert_eq!(ResultCache::epoch_at(&[], 5.0), 0);
        let schedule = [(f64::NEG_INFINITY, 0), (2.0, 3), (4.0, 7)];
        assert_eq!(ResultCache::epoch_at(&schedule, 0.0), 0);
        assert_eq!(ResultCache::epoch_at(&schedule, 2.0), 3);
        assert_eq!(ResultCache::epoch_at(&schedule, 3.9), 3);
        assert_eq!(ResultCache::epoch_at(&schedule, 100.0), 7);
    }

    #[test]
    fn epoch_zero_wrappers_never_invalidate() {
        let mut cache = ResultCache::new(8);
        let q = [1.0f32];
        cache.insert(&q, &opts(10, 8), hit(1), 0.0);
        assert!(cache.lookup(&q, &opts(10, 8)).is_some());
        assert_eq!(cache.invalidated(), 0);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut cache = ResultCache::new(0);
        let q = [1.0f32];
        cache.insert(&q, &opts(10, 8), hit(1), 0.0);
        assert!(cache.lookup(&q, &opts(10, 8)).is_none());
        assert!(cache.is_empty());
    }
}
