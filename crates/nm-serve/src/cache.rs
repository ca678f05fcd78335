//! Sharded LRU cache of per-user recommendation lists.
//!
//! Keys include the snapshot epoch, so a reload logically invalidates
//! every cached list even before the physical `clear()` runs — a stale
//! epoch can never be looked up again.

use nm_sync::backend::lock_recover;
use std::collections::HashMap;
use std::sync::Arc;
use std::sync::Mutex;

/// Cache key for one materialized recommendation list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    pub user: u32,
    pub domain: u8,
    pub k: u32,
    /// Snapshot epoch at compute time; bumped on every reload.
    pub epoch: u64,
}

impl CacheKey {
    /// The key of `user`'s top-`k` list in `domain` at `epoch`.
    pub(crate) fn new(user: u32, domain: usize, k: usize, epoch: u64) -> Self {
        Self {
            user,
            domain: domain as u8,
            k: k as u32,
            epoch,
        }
    }
}

/// A ranked `(item, score)` list, shared without copying.
pub type CachedList = Arc<Vec<(u32, f32)>>;

struct Shard {
    map: HashMap<CacheKey, (u64, CachedList)>,
    capacity: usize,
    tick: u64,
}

impl Shard {
    fn touch(&mut self, key: &CacheKey) -> Option<CachedList> {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(key).map(|slot| {
            slot.0 = tick;
            Arc::clone(&slot.1)
        })
    }

    fn insert(&mut self, key: CacheKey, value: CachedList) {
        self.tick += 1;
        if self.map.len() >= self.capacity && !self.map.contains_key(&key) {
            // Evict the least-recently-used entry. Linear scan is fine:
            // shards are small and this is off the hot (hit) path.
            if let Some(&victim) = self.map.iter().min_by_key(|(_, (t, _))| *t).map(|(k, _)| k) {
                self.map.remove(&victim);
            }
        }
        self.map.insert(key, (self.tick, value));
    }
}

/// A fixed-shard LRU keyed by [`CacheKey`]. Sharding bounds lock
/// contention: concurrent requests for different users almost always
/// hit different shards.
pub struct ShardedLru {
    shards: Vec<Mutex<Shard>>,
}

impl ShardedLru {
    /// `capacity` is the total entry budget, split evenly over
    /// `n_shards` (both floored to at least 1).
    pub fn new(capacity: usize, n_shards: usize) -> Self {
        let n = n_shards.max(1);
        let per = (capacity / n).max(1);
        Self {
            shards: (0..n)
                .map(|_| {
                    Mutex::new(Shard {
                        map: HashMap::new(),
                        capacity: per,
                        tick: 0,
                    })
                })
                .collect(),
        }
    }

    fn shard_of(&self, key: &CacheKey) -> usize {
        // FNV-1a over the key fields; cheap and well-spread.
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in [key.user as u64, key.domain as u64, key.k as u64, key.epoch] {
            h ^= b;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        (h % self.shards.len() as u64) as usize
    }

    /// Looks up and refreshes recency.
    pub fn get(&self, key: &CacheKey) -> Option<CachedList> {
        lock_recover(&self.shards[self.shard_of(key)]).touch(key)
    }

    pub fn insert(&self, key: CacheKey, value: CachedList) {
        lock_recover(&self.shards[self.shard_of(&key)]).insert(key, value);
    }

    /// Drops every entry (snapshot reload).
    pub fn clear(&self) {
        for s in &self.shards {
            lock_recover(s).map.clear();
        }
    }

    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| lock_recover(s).map.len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(user: u32, epoch: u64) -> CacheKey {
        CacheKey::new(user, 0, 10, epoch)
    }

    fn list(v: u32) -> CachedList {
        Arc::new(vec![(v, 1.0)])
    }

    #[test]
    fn get_after_insert() {
        let c = ShardedLru::new(16, 4);
        c.insert(key(1, 0), list(42));
        assert_eq!(c.get(&key(1, 0)).unwrap()[0].0, 42);
        assert!(c.get(&key(2, 0)).is_none());
    }

    #[test]
    fn epoch_is_part_of_the_key() {
        let c = ShardedLru::new(16, 4);
        c.insert(key(1, 0), list(1));
        assert!(c.get(&key(1, 1)).is_none(), "new epoch must miss");
    }

    #[test]
    fn evicts_least_recently_used() {
        // single shard, capacity 2 → deterministic eviction order
        let c = ShardedLru::new(2, 1);
        c.insert(key(1, 0), list(1));
        c.insert(key(2, 0), list(2));
        c.get(&key(1, 0)); // refresh 1 → 2 is now LRU
        c.insert(key(3, 0), list(3));
        assert!(c.get(&key(1, 0)).is_some());
        assert!(c.get(&key(2, 0)).is_none(), "LRU entry should be evicted");
        assert!(c.get(&key(3, 0)).is_some());
    }

    #[test]
    fn clear_empties_all_shards() {
        let c = ShardedLru::new(16, 4);
        for u in 0..10 {
            c.insert(key(u, 0), list(u));
        }
        assert_eq!(c.len(), 10);
        c.clear();
        assert!(c.is_empty());
    }

    #[test]
    fn reinsert_same_key_does_not_evict_others() {
        let c = ShardedLru::new(2, 1);
        c.insert(key(1, 0), list(1));
        c.insert(key(2, 0), list(2));
        c.insert(key(1, 0), list(9)); // overwrite, still 2 entries
        assert_eq!(c.get(&key(1, 0)).unwrap()[0].0, 9);
        assert!(c.get(&key(2, 0)).is_some());
    }
}
