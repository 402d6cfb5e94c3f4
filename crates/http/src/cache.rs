//! A shared LRU segment cache — the edge tier in front of the origin
//! pool.
//!
//! Fleet clients streaming the same manifest request the same chunk
//! URLs; an edge cache turns all but the first fetch of a hot chunk
//! into a cheap local hit that never touches an origin (and therefore
//! never sees an origin fault or pays an origin RTT penalty). The model
//! here is intentionally small:
//!
//! * keys are `(chunk index, quality level)` — the segment URL;
//! * values are the segment's byte size, the only "content" the
//!   simulation carries (a hit **must** report exactly the size the
//!   origin would have served: the byte-identity property test in
//!   `tests/origin_props.rs` holds the cache to that);
//! * capacity is in bytes with strict LRU eviction, deterministic
//!   because every access is stamped with a monotone tick;
//! * a hit is served as an **edge fetch**: the same connection and the
//!   same transport bytes, but with the configured (small) edge delay
//!   instead of the origin's fault script and RTT penalty.
//!
//! The handle is `Arc<Mutex<..>>` so one cache instance can sit behind
//! every client of a fleet. Unlike the single-threaded
//! `SharedBottleneck`, it must be `Send`: it rides in the session
//! config that batch jobs carry to worker threads, and it is touched
//! once per chunk, not per packet. The fleet loop is sequential over one virtual clock, so lock order
//! is deterministic and artifacts stay bit-identical at any
//! `MPDASH_WORKERS` (each batch job builds its own cache).

use mpdash_sim::SimDuration;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Segment identity: `(chunk index, quality level)`.
pub type SegmentKey = (usize, usize);

/// Counters the cache maintains; snapshotted into session and fleet
/// reports.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found the segment.
    pub hits: u64,
    /// Lookups that did not.
    pub misses: u64,
    /// Segments evicted to make room.
    pub evictions: u64,
    /// Segments inserted in total.
    pub insertions: u64,
    /// Bytes currently resident.
    pub resident_bytes: u64,
}

impl CacheStats {
    /// Hits over lookups, 0 when nothing was looked up.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[derive(Debug)]
struct CacheInner {
    capacity: u64,
    /// key -> (size, last-access tick). Eviction scans for the minimum
    /// tick; ticks are unique, so the victim is deterministic.
    map: HashMap<SegmentKey, (u64, u64)>,
    tick: u64,
    stats: CacheStats,
}

impl CacheInner {
    fn lookup(&mut self, key: SegmentKey) -> Option<u64> {
        self.tick += 1;
        match self.map.get_mut(&key) {
            Some((size, touched)) => {
                *touched = self.tick;
                self.stats.hits += 1;
                Some(*size)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    fn insert(&mut self, key: SegmentKey, size: u64) {
        if size > self.capacity {
            // A segment larger than the whole cache would evict
            // everything and still not fit; refuse it.
            return;
        }
        self.tick += 1;
        if let Some((old, touched)) = self.map.get_mut(&key) {
            // Same URL, same bytes: refreshing the stamp is enough.
            debug_assert_eq!(*old, size, "a segment key must map to one size");
            *touched = self.tick;
            return;
        }
        while self.stats.resident_bytes + size > self.capacity {
            let victim = self
                .map
                .iter()
                .min_by_key(|(_, (_, touched))| *touched)
                .map(|(k, (sz, _))| (*k, *sz))
                .expect("resident bytes imply a resident entry");
            self.map.remove(&victim.0);
            self.stats.resident_bytes -= victim.1;
            self.stats.evictions += 1;
        }
        self.map.insert(key, (size, self.tick));
        self.stats.resident_bytes += size;
        self.stats.insertions += 1;
    }
}

/// Cloneable handle to one shared segment cache.
#[derive(Clone, Debug)]
pub struct SharedSegmentCache {
    inner: Arc<Mutex<CacheInner>>,
    capacity: u64,
    edge_delay: SimDuration,
}

impl SharedSegmentCache {
    /// An empty cache holding at most `capacity_bytes`, with the
    /// default 5 ms edge first-byte delay.
    ///
    /// # Panics
    /// If `capacity_bytes` is zero — a cache that can hold nothing
    /// would count every fetch as a miss while pretending to exist.
    pub fn new(capacity_bytes: u64) -> Self {
        assert!(capacity_bytes > 0, "cache capacity must be > 0 bytes");
        SharedSegmentCache {
            inner: Arc::new(Mutex::new(CacheInner {
                capacity: capacity_bytes,
                map: HashMap::new(),
                tick: 0,
                stats: CacheStats::default(),
            })),
            capacity: capacity_bytes,
            edge_delay: SimDuration::from_millis(5),
        }
    }

    /// Set the edge first-byte delay a hit pays instead of the origin
    /// path.
    pub fn with_edge_delay(mut self, delay: SimDuration) -> Self {
        self.edge_delay = delay;
        self
    }

    /// Capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.capacity
    }

    /// First-byte delay of an edge (cache-hit) fetch.
    pub fn edge_delay(&self) -> SimDuration {
        self.edge_delay
    }

    /// Look up a segment: `Some(size)` on a hit (stamps the LRU entry),
    /// `None` on a miss. Both outcomes count.
    pub fn lookup(&self, key: SegmentKey) -> Option<u64> {
        self.inner.lock().expect("cache lock").lookup(key)
    }

    /// Insert a completed segment, evicting least-recently-used entries
    /// until it fits.
    pub fn insert(&self, key: SegmentKey, size: u64) {
        self.inner.lock().expect("cache lock").insert(key, size)
    }

    /// Snapshot the counters.
    pub fn stats(&self) -> CacheStats {
        self.inner.lock().expect("cache lock").stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hits_misses_and_ratio() {
        let c = SharedSegmentCache::new(1_000_000);
        assert_eq!(c.lookup((0, 2)), None);
        c.insert((0, 2), 400_000);
        assert_eq!(c.lookup((0, 2)), Some(400_000));
        assert_eq!(c.lookup((1, 2)), None);
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.insertions), (1, 2, 1));
        assert!((s.hit_ratio() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn lru_evicts_the_coldest_segment_deterministically() {
        let c = SharedSegmentCache::new(1_000);
        c.insert((0, 0), 400);
        c.insert((1, 0), 400);
        // Touch (0,0) so (1,0) becomes the LRU victim.
        assert_eq!(c.lookup((0, 0)), Some(400));
        c.insert((2, 0), 400);
        assert_eq!(c.lookup((1, 0)), None, "cold segment evicted");
        assert_eq!(c.lookup((0, 0)), Some(400), "hot segment survives");
        assert_eq!(c.lookup((2, 0)), Some(400));
        let s = c.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.resident_bytes, 800);
    }

    #[test]
    fn oversized_segments_are_refused_not_thrashed() {
        let c = SharedSegmentCache::new(1_000);
        c.insert((0, 0), 400);
        c.insert((9, 9), 5_000);
        let s = c.stats();
        assert_eq!(s.insertions, 1, "the oversized insert is a no-op");
        assert_eq!(s.evictions, 0, "nothing was thrashed out for it");
        assert_eq!(c.lookup((0, 0)), Some(400));
    }

    #[test]
    fn handles_share_one_cache() {
        let a = SharedSegmentCache::new(1_000_000);
        let b = a.clone();
        a.insert((3, 1), 123);
        assert_eq!(b.lookup((3, 1)), Some(123), "clone sees the insert");
        assert_eq!(a.stats().hits, 1, "stats are shared too");
    }

    #[test]
    #[should_panic(expected = "capacity must be > 0")]
    fn zero_capacity_rejected() {
        let _ = SharedSegmentCache::new(0);
    }
}
