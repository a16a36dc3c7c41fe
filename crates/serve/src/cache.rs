//! Content-addressed certificate cache.
//!
//! The key is *labeled-instance identity*: the [`digest_instance`] of
//! the canonical edge list plus input word, paired with the scheme id.
//! Certificates name vertices, so isomorphic-but-relabeled graphs are
//! distinct entries on purpose; identifier relabeling is invisible
//! (digests never see the id assignment, and the server always proves
//! under contiguous ids).
//!
//! Eviction is least-recently-used over a monotonically stamped access
//! order — deterministic, so counter streams replay byte-identically
//! for a fixed request sequence. Hit/miss/evict counts feed both local
//! fields (for per-run reports) and the global `locert-trace` registry
//! (`serve.cache.{hit,miss,evict}`) for `/metrics`.

use locert_core::bits::Certificate;
use locert_graph::digest::{digest_instance, digest_instance_letters};
use locert_graph::Graph;
use std::collections::{BTreeMap, HashMap};

/// Identity of a cached entry: instance digest × scheme id.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// [`digest_instance`] of the graph and optional input word.
    pub digest: u64,
    /// Stable scheme id from `locert_core::catalogue`.
    pub scheme: String,
}

impl CacheKey {
    /// Keys an instance as the server sees it.
    pub fn of(graph: &Graph, inputs: Option<&[usize]>, scheme: &str) -> CacheKey {
        CacheKey {
            digest: digest_instance(graph, inputs),
            scheme: scheme.to_string(),
        }
    }

    /// [`CacheKey::of`] an instance whose input word is still in its
    /// wire form (`u32` letters): the same key, without copying the word.
    pub fn of_wire(graph: &Graph, inputs: Option<&[u32]>, scheme: &str) -> CacheKey {
        let letters = inputs.map(|word| word.iter().map(|&x| x as usize));
        CacheKey {
            digest: digest_instance_letters(graph, letters),
            scheme: scheme.to_string(),
        }
    }
}

struct Slot {
    certs: Vec<Certificate>,
    stamp: u64,
}

/// An LRU-bounded certificate store.
pub struct CertCache {
    capacity: usize,
    slots: HashMap<CacheKey, Slot>,
    /// access stamp → key, the eviction order. Stamps are unique, so
    /// the BTreeMap's first entry is always the least recently used.
    order: BTreeMap<u64, CacheKey>,
    clock: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl CertCache {
    /// An empty cache holding at most `capacity` entries. Capacity 0
    /// disables storage (every lookup is a miss, nothing is kept).
    pub fn new(capacity: usize) -> CertCache {
        CertCache {
            capacity,
            slots: HashMap::new(),
            order: BTreeMap::new(),
            clock: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Looks up `key`, refreshing its recency on a hit. Counts exactly
    /// one hit or miss.
    pub fn get(&mut self, key: &CacheKey) -> Option<Vec<Certificate>> {
        let stamp = self.tick();
        match self.slots.get_mut(key) {
            Some(slot) => {
                self.order.remove(&slot.stamp);
                slot.stamp = stamp;
                self.order.insert(stamp, key.clone());
                self.hits += 1;
                locert_trace::add("serve.cache.hit", 1);
                Some(slot.certs.clone())
            }
            None => {
                self.misses += 1;
                locert_trace::add("serve.cache.miss", 1);
                None
            }
        }
    }

    /// Inserts (or refreshes) an entry, evicting the least recently
    /// used one when full. Does not count a hit or miss.
    pub fn put(&mut self, key: CacheKey, certs: Vec<Certificate>) {
        if self.capacity == 0 {
            return;
        }
        let stamp = self.tick();
        if let Some(old) = self.slots.get(&key) {
            self.order.remove(&old.stamp);
        } else if self.slots.len() >= self.capacity {
            if let Some((&oldest, _)) = self.order.iter().next() {
                if let Some(victim) = self.order.remove(&oldest) {
                    self.slots.remove(&victim);
                    self.evictions += 1;
                    locert_trace::add("serve.cache.evict", 1);
                }
            }
        }
        self.order.insert(stamp, key.clone());
        self.slots.insert(key, Slot { certs, stamp });
    }

    /// Live entry count.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Lookups answered from the cache.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that found nothing.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Entries displaced by capacity pressure.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use locert_core::bits::BitWriter;

    fn cert(pattern: u64) -> Certificate {
        let mut w = BitWriter::new();
        for i in 0..8 {
            w.write_bit(pattern >> i & 1 == 1);
        }
        w.finish()
    }

    fn key(d: u64) -> CacheKey {
        CacheKey {
            digest: d,
            scheme: "spanning-tree".into(),
        }
    }

    #[test]
    fn hit_miss_and_eviction_counting() {
        let mut c = CertCache::new(2);
        assert_eq!(c.get(&key(1)), None);
        c.put(key(1), vec![cert(0xaa)]);
        assert_eq!(c.get(&key(1)), Some(vec![cert(0xaa)]));
        c.put(key(2), vec![cert(0xbb)]);
        // Touch 1 so 2 is the LRU victim when 3 arrives.
        assert!(c.get(&key(1)).is_some());
        c.put(key(3), vec![cert(0xcc)]);
        assert_eq!(c.get(&key(2)), None, "LRU victim evicted");
        assert!(c.get(&key(1)).is_some());
        assert!(c.get(&key(3)).is_some());
        assert_eq!((c.hits(), c.misses(), c.evictions()), (4, 2, 1));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn same_graph_different_scheme_are_distinct_entries() {
        let g = locert_graph::generators::path(4);
        let a = CacheKey::of(&g, None, "spanning-tree");
        let b = CacheKey::of(&g, None, "acyclicity");
        assert_ne!(a, b);
        let mut c = CertCache::new(4);
        c.put(a.clone(), vec![cert(1)]);
        assert_eq!(c.get(&b), None);
        assert!(c.get(&a).is_some());
    }

    #[test]
    fn inputs_distinguish_word_instances() {
        let g = locert_graph::generators::path(3);
        let w0 = [0usize, 0, 0];
        let w1 = [0usize, 1, 0];
        assert_ne!(
            CacheKey::of(&g, Some(&w0), "word-no-11"),
            CacheKey::of(&g, Some(&w1), "word-no-11")
        );
    }

    #[test]
    fn wire_words_key_like_their_widened_copies() {
        let g = locert_graph::generators::path(3);
        for word in [
            None,
            Some(vec![]),
            Some(vec![0u32, 1, 0]),
            Some(vec![u32::MAX, 7, 0]),
        ] {
            let widened: Option<Vec<usize>> = word
                .as_ref()
                .map(|w| w.iter().map(|&x| x as usize).collect());
            assert_eq!(
                CacheKey::of_wire(&g, word.as_deref(), "word-no-11"),
                CacheKey::of(&g, widened.as_deref(), "word-no-11"),
            );
        }
    }

    #[test]
    fn zero_capacity_never_stores() {
        let mut c = CertCache::new(0);
        c.put(key(1), vec![cert(1)]);
        assert_eq!(c.get(&key(1)), None);
        assert!(c.is_empty());
        assert_eq!(c.evictions(), 0);
    }

    #[test]
    fn refresh_does_not_grow_or_evict() {
        let mut c = CertCache::new(2);
        c.put(key(1), vec![cert(1)]);
        c.put(key(1), vec![cert(2)]);
        c.put(key(2), vec![cert(3)]);
        assert_eq!(c.len(), 2);
        assert_eq!(c.evictions(), 0);
        assert_eq!(
            c.get(&key(1)),
            Some(vec![cert(2)]),
            "refresh replaced value"
        );
    }
}
