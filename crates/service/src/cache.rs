//! Sharded LRU cache from canonical program shapes to built miss models.
//!
//! The expensive middle of every request — reuse partitioning plus symbolic
//! stack-distance computation (`MissModel::build`) — depends only on the
//! *canonical* program, so structurally identical requests share one entry.
//! Keys are `(stable hash, canonical Program)`; the full program equality
//! check makes hash collisions harmless.
//!
//! Sharding bounds contention: a shard is chosen by hash, and the model is
//! built *outside* the shard lock so one slow build never blocks lookups of
//! other shapes in the same shard. Two threads racing to build the same
//! shape may both build; the loser's model is dropped (double-build is
//! correct, just wasted work — the standard memoization trade).

use sdlo_ir::Program;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

struct Entry<V> {
    hash: u64,
    program: Program,
    value: Arc<V>,
    last_used: u64,
}

struct Shard<V> {
    entries: Vec<Entry<V>>,
    /// Most entries this shard holds.
    capacity: usize,
}

/// Sharded LRU keyed by canonical program shape.
pub struct ShardedCache<V> {
    shards: Vec<Mutex<Shard<V>>>,
    tick: AtomicU64,
}

impl<V> ShardedCache<V> {
    /// `capacity` is the *total* entry budget, at least one. It is split
    /// over at most `shards` shards, each holding at least one entry, and
    /// the shards' limits sum to it.
    pub fn new(shards: usize, capacity: usize) -> Self {
        let capacity = capacity.max(1);
        let shards = shards.clamp(1, capacity);
        ShardedCache {
            shards: (0..shards)
                .map(|k| {
                    Mutex::new(Shard {
                        entries: Vec::new(),
                        capacity: capacity / shards + usize::from(k < capacity % shards),
                    })
                })
                .collect(),
            tick: AtomicU64::new(0),
        }
    }

    fn shard(&self, hash: u64) -> &Mutex<Shard<V>> {
        &self.shards[(hash % self.shards.len() as u64) as usize]
    }

    fn touch(&self) -> u64 {
        self.tick.fetch_add(1, Ordering::Relaxed)
    }

    /// Look up the value for `(hash, program)`, building it with `build` on
    /// a miss. Returns `(value, hit)`.
    pub fn get_or_build(
        &self,
        hash: u64,
        program: &Program,
        build: impl FnOnce() -> V,
    ) -> (Arc<V>, bool) {
        if let Some(v) = self.get(hash, program) {
            return (v, true);
        }
        let value = Arc::new(build());
        // Re-check under the lock: another thread may have inserted while
        // we were building. Prefer the existing entry so all callers share.
        let mut shard = self.shard(hash).lock().unwrap();
        let now = self.tick.fetch_add(1, Ordering::Relaxed);
        if let Some(e) = shard
            .entries
            .iter_mut()
            .find(|e| e.hash == hash && &e.program == program)
        {
            e.last_used = now;
            return (Arc::clone(&e.value), true);
        }
        if shard.entries.len() >= shard.capacity {
            let lru = shard
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(i, _)| i)
                .expect("non-empty shard");
            shard.entries.swap_remove(lru);
        }
        shard.entries.push(Entry {
            hash,
            program: program.clone(),
            value: Arc::clone(&value),
            last_used: now,
        });
        (value, false)
    }

    /// Lookup without building.
    pub fn get(&self, hash: u64, program: &Program) -> Option<Arc<V>> {
        let mut shard = self.shard(hash).lock().unwrap();
        let now = self.touch();
        shard
            .entries
            .iter_mut()
            .find(|e| e.hash == hash && &e.program == program)
            .map(|e| {
                e.last_used = now;
                Arc::clone(&e.value)
            })
    }

    /// Lookup by canonical hash alone, for callers that reference a shape
    /// by hash without carrying the program (the `revise` op's base). The
    /// hash is the entry's *name* rather than its full key, so this serves
    /// whichever cached program bears it — acceptable because a client can
    /// only learn a base hash from a reply about that very program.
    pub fn get_by_hash(&self, hash: u64) -> Option<Arc<V>> {
        let mut shard = self.shard(hash).lock().unwrap();
        let now = self.touch();
        shard.entries.iter_mut().find(|e| e.hash == hash).map(|e| {
            e.last_used = now;
            Arc::clone(&e.value)
        })
    }

    /// Number of cached shapes across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap().entries.len())
            .sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdlo_ir::{canonicalize, programs};

    fn shape(p: &Program) -> (u64, Program) {
        let c = canonicalize(p);
        (c.hash, c.program)
    }

    #[test]
    fn second_lookup_hits() {
        let cache: ShardedCache<String> = ShardedCache::new(4, 8);
        let (h, p) = shape(&programs::matmul());
        let (v1, hit1) = cache.get_or_build(h, &p, || "built".to_string());
        let (v2, hit2) = cache.get_or_build(h, &p, || unreachable!("must hit"));
        assert!(!hit1);
        assert!(hit2);
        assert!(Arc::ptr_eq(&v1, &v2));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn distinct_shapes_do_not_collide() {
        let cache: ShardedCache<&'static str> = ShardedCache::new(2, 8);
        let (h1, p1) = shape(&programs::matmul());
        let (h2, p2) = shape(&programs::tiled_matmul());
        cache.get_or_build(h1, &p1, || "a");
        let (v, hit) = cache.get_or_build(h2, &p2, || "b");
        assert!(!hit);
        assert_eq!(*v, "b");
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn lru_evicts_the_coldest() {
        // Single shard, capacity 2: inserting a third shape evicts the
        // least recently used one.
        let cache: ShardedCache<usize> = ShardedCache::new(1, 2);
        let shapes: Vec<(u64, Program)> = [
            programs::matmul(),
            programs::tiled_matmul(),
            programs::two_index_fused(),
        ]
        .iter()
        .map(shape)
        .collect();
        cache.get_or_build(shapes[0].0, &shapes[0].1, || 0);
        cache.get_or_build(shapes[1].0, &shapes[1].1, || 1);
        // Touch shape 0 so shape 1 is the LRU.
        assert!(cache.get(shapes[0].0, &shapes[0].1).is_some());
        cache.get_or_build(shapes[2].0, &shapes[2].1, || 2);
        assert_eq!(cache.len(), 2);
        assert!(cache.get(shapes[0].0, &shapes[0].1).is_some());
        assert!(
            cache.get(shapes[1].0, &shapes[1].1).is_none(),
            "LRU entry evicted"
        );
        assert!(cache.get(shapes[2].0, &shapes[2].1).is_some());
    }

    #[test]
    fn concurrent_builds_converge() {
        let cache: Arc<ShardedCache<u64>> = Arc::new(ShardedCache::new(4, 8));
        let (h, p) = shape(&programs::tiled_matmul());
        let results: Vec<Arc<u64>> = std::thread::scope(|s| {
            (0..8)
                .map(|i| {
                    let cache = Arc::clone(&cache);
                    let p = p.clone();
                    s.spawn(move || cache.get_or_build(h, &p, || i).0)
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|t| t.join().unwrap())
                .collect()
        });
        // All callers observe a cached value; exactly one shape is stored.
        assert_eq!(cache.len(), 1);
        let stored = cache.get(h, &p).unwrap();
        assert!(results.iter().all(|r| **r == *stored));
    }
}
