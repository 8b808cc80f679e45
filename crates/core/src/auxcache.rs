//! The auxiliary candidate cache: memoized trimmed adjacency lists reused
//! across sibling subtrees (see DESIGN.md §11).
//!
//! The planner ([`light_order::auxplan`]) marks COMPs whose operands split
//! into a *fixed prefix* (ready at shallow σ slots) and a single
//! fastest-varying K1 anchor `w`. While the prefix is unchanged, the
//! result of such a COMP is a pure function of the data vertex `v = φ(w)`
//! — so the engine stores it here keyed by `(directive, v)` and replays it
//! whenever the same `v` recurs under a sibling binding, turning a k-way
//! intersection into a copy.
//!
//! ## Structure
//!
//! One direct-mapped table per directive, [`AUX_TABLE_SLOTS`] entries
//! each, indexed by a Fibonacci hash of the key vertex. Collisions evict
//! (overwrite) — a cache, not a map: bounded memory, O(1) everything, no
//! per-entry allocation churn (an overwritten slot reuses its buffer
//! capacity in place).
//!
//! ## Validity without sweeps
//!
//! Entries are never proactively invalidated. The engine stamps every MAT
//! binding with a monotone serial; an entry is valid iff its fill serial
//! is at least the current stamp of the directive's *guard slot* (the
//! deepest MAT at or below the fixed prefix). Any re-binding that could
//! change a fixed operand necessarily re-executes that MAT — stamping a
//! fresh, larger serial — before control can reach the COMP again, so one
//! `u64` compare per lookup is a sound staleness check.
//!
//! ## Memory policy
//!
//! The cache degrades, never kills: when a store would push combined
//! candidate + cache bytes over the `--max-memory` watermark, the engine
//! empties the cache (dropping buffer capacity back to the allocator) and
//! skips the store. `Outcome::MemoryExceeded` remains reserved for live
//! candidate sets alone.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, RwLock};

use light_graph::{VertexId, INVALID_VERTEX};

use crate::pool::BufferPool;

/// Entries per directive table. Power of two (the index is a hash
/// shifted to this width). 1024 slots × ~40 bytes of slot header is
/// ~40 KiB of fixed overhead per directive per worker.
pub const AUX_TABLE_SLOTS: usize = 1024;

const AUX_TABLE_BITS: u32 = AUX_TABLE_SLOTS.trailing_zeros();

/// One direct-mapped entry: a trimmed adjacency list and the serial it
/// was filled under. `key == INVALID_VERTEX` marks an empty slot.
#[derive(Debug)]
struct AuxSlot {
    key: VertexId,
    fill_serial: u64,
    buf: Vec<VertexId>,
}

impl Default for AuxSlot {
    fn default() -> Self {
        AuxSlot {
            key: INVALID_VERTEX,
            fill_serial: 0,
            buf: Vec::new(),
        }
    }
}

/// The per-enumerator auxiliary cache. Engine-local like the
/// [`BufferPool`]: no locks, no atomics; the parallel driver's workers
/// each own one.
#[derive(Debug)]
pub struct AuxCache {
    /// One table per [`light_order::TrimDirective`], plan order.
    tables: Vec<Vec<AuxSlot>>,
    /// Bytes of buffer capacity currently resident across all tables.
    bytes: usize,
    /// High-water mark of `bytes` (survives `evict_all`).
    peak_bytes: usize,
}

impl AuxCache {
    /// Empty tables for `num_directives` directives.
    pub fn new(num_directives: usize) -> Self {
        AuxCache {
            tables: (0..num_directives)
                .map(|_| (0..AUX_TABLE_SLOTS).map(|_| AuxSlot::default()).collect())
                .collect(),
            bytes: 0,
            peak_bytes: 0,
        }
    }

    /// Fibonacci-hash a key vertex to its table index.
    #[inline]
    fn index(v: VertexId) -> usize {
        (v.wrapping_mul(0x9E37_79B9) >> (32 - AUX_TABLE_BITS)) as usize
    }

    /// Bytes of buffer capacity currently resident.
    #[inline]
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// High-water mark of resident bytes over the cache's lifetime.
    pub fn peak_bytes(&self) -> usize {
        self.peak_bytes
    }

    /// Fetch the trimmed list for `(dir, v)` if present and not stale.
    /// `guard_stamp` is the engine's current bind stamp of the
    /// directive's guard slot.
    #[inline]
    pub fn lookup(&self, dir: usize, v: VertexId, guard_stamp: u64) -> Option<&[VertexId]> {
        let slot = &self.tables[dir][Self::index(v)];
        if slot.key == v && slot.fill_serial >= guard_stamp {
            Some(&slot.buf)
        } else {
            None
        }
    }

    /// Insert `data` for `(dir, v)`, filled under bind serial `serial`.
    /// Returns whether an occupied slot was overwritten (a collision
    /// eviction). Empty slots draw their buffer from `pool` so warm-run
    /// stores allocate nothing.
    pub fn store(
        &mut self,
        dir: usize,
        v: VertexId,
        serial: u64,
        data: &[VertexId],
        pool: &mut BufferPool,
    ) -> bool {
        let slot = &mut self.tables[dir][Self::index(v)];
        let evicted = slot.key != INVALID_VERTEX;
        // Panic-safe ordering: mark the slot empty before touching its
        // buffer, publish the key only after the copy completes — a panic
        // mid-copy can never leave a valid-looking corrupt entry.
        slot.key = INVALID_VERTEX;
        let old_cap = slot.buf.capacity();
        if old_cap == 0 {
            slot.buf = pool.acquire();
        }
        slot.buf.clear();
        slot.buf.extend_from_slice(data);
        self.bytes = self.bytes - old_cap * 4 + slot.buf.capacity() * 4;
        self.peak_bytes = self.peak_bytes.max(self.bytes);
        slot.fill_serial = serial;
        slot.key = v;
        evicted
    }

    /// Drop every entry *and its buffer capacity* (watermark pressure —
    /// the point is to return heap to the allocator, so buffers do not go
    /// back to the pool, whose parked capacity still counts against the
    /// watermark). Returns the number of occupied slots dropped.
    pub fn evict_all(&mut self) -> u64 {
        let mut n = 0;
        for table in &mut self.tables {
            for slot in table.iter_mut() {
                if slot.key != INVALID_VERTEX {
                    n += 1;
                }
                slot.key = INVALID_VERTEX;
                slot.buf = Vec::new();
            }
        }
        self.bytes = 0;
        n
    }
}

/// Maximum operand count a [`SharedKey`] can describe. COMPs wider than
/// this are not shared (patterns top out far below it).
pub const SHARED_KEY_MAX: usize = 8;

/// Lock shards of the [`SharedAuxStore`]. Power of two.
const SHARED_SHARDS: usize = 16;

/// Direct-mapped slots per shard. Power of two; 16 shards × 512 slots
/// bounds the store at 8192 resident intersections.
const SHARED_SLOTS_PER_SHARD: usize = 512;

/// The identity of a cross-query shareable COMP result: the *sorted* tuple
/// of data vertices whose neighbor lists were intersected. Only COMPs whose
/// operands are **all K1** (neighbor lists of bound vertices) qualify — the
/// result `∩ᵢ N(vᵢ)` is then a pure function of the graph and this tuple,
/// independent of the pattern, plan, or enumeration state that produced it.
/// K2 operands (cached candidate sets) depend on the producing query's
/// whole φ-prefix and are never shared.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SharedKey {
    len: u8,
    verts: [VertexId; SHARED_KEY_MAX],
}

impl SharedKey {
    /// Build a key from the bound operand vertices (any order; sorted
    /// internally). Returns `None` when the tuple is too wide or too
    /// narrow to be worth sharing.
    pub fn new(operand_verts: &[VertexId]) -> Option<SharedKey> {
        if operand_verts.len() < 2 || operand_verts.len() > SHARED_KEY_MAX {
            return None;
        }
        let mut verts = [INVALID_VERTEX; SHARED_KEY_MAX];
        verts[..operand_verts.len()].copy_from_slice(operand_verts);
        verts[..operand_verts.len()].sort_unstable();
        Some(SharedKey {
            len: operand_verts.len() as u8,
            verts,
        })
    }

    #[inline]
    fn hash(&self) -> u64 {
        let mut h: u64 = 0x9E37_79B9_7F4A_7C15 ^ self.len as u64;
        for &v in &self.verts[..self.len as usize] {
            h = (h ^ v as u64).wrapping_mul(0x100_0000_01B3);
        }
        h ^ (h >> 29)
    }
}

/// One direct-mapped shared-store entry. `key.len == 0` marks empty.
#[derive(Debug)]
struct SharedSlot {
    key: SharedKey,
    generation: u64,
    buf: Vec<VertexId>,
}

impl Default for SharedSlot {
    fn default() -> Self {
        SharedSlot {
            key: SharedKey {
                len: 0,
                verts: [INVALID_VERTEX; SHARED_KEY_MAX],
            },
            generation: 0,
            buf: Vec::new(),
        }
    }
}

/// Counter snapshot of a [`SharedAuxStore`] (feeds the serve tier's
/// `multiquery` stats section).
#[derive(Debug, Default, Clone, Copy)]
pub struct SharedAuxCounters {
    /// Lookups answered from the store.
    pub hits: u64,
    /// Lookups that found nothing (or another generation's entry).
    pub misses: u64,
    /// Results inserted.
    pub stores: u64,
    /// Entries dropped: collision overwrites plus watermark purges.
    pub evictions: u64,
    /// Bytes of buffer capacity currently resident.
    pub bytes: usize,
}

/// The cross-query auxiliary store: the PR-4 trimmed-adjacency idea
/// promoted to a **per-graph shared tier**. Where [`AuxCache`] memoizes
/// within one enumerator (engine-local, lock-free), this tier memoizes
/// *pure all-K1 intersections* — `∩ᵢ N(vᵢ)`, a function of the graph and
/// the sorted vertex tuple alone — behind sharded `RwLock`s so every
/// concurrent query on the same graph, batched or not, reuses every other
/// query's work.
///
/// * **Read-mostly**: lookups take a shard read lock and copy out.
/// * **Generation-stamped**: queries reach the store through a
///   [`SharedAuxHandle`] carrying the generation of the graph view they
///   run on; an entry is stamped with its writer's generation and answers
///   only readers of the same one. A mutated graph needs no invalidation
///   step — entries of older generations miss and are overwritten lazily —
///   and a query still running on the old view can neither read nor
///   publish across the commit.
/// * **`--max-memory`-aware**: a store that would cross the byte watermark
///   evicts *everything* (returning heap to the allocator) and skips the
///   insert — graceful degradation, exactly like the intra-query tier.
#[derive(Debug)]
pub struct SharedAuxStore {
    shards: Vec<RwLock<Vec<SharedSlot>>>,
    bytes: AtomicUsize,
    max_bytes: Option<usize>,
    hits: AtomicU64,
    misses: AtomicU64,
    stores: AtomicU64,
    evictions: AtomicU64,
}

impl SharedAuxStore {
    /// An empty store with an optional byte watermark.
    pub fn new(max_bytes: Option<usize>) -> Self {
        SharedAuxStore {
            shards: (0..SHARED_SHARDS)
                .map(|_| {
                    RwLock::new(
                        (0..SHARED_SLOTS_PER_SHARD)
                            .map(|_| SharedSlot::default())
                            .collect(),
                    )
                })
                .collect(),
            bytes: AtomicUsize::new(0),
            max_bytes,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            stores: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    #[inline]
    fn place(key: &SharedKey) -> (usize, usize) {
        let h = key.hash();
        (
            (h >> 48) as usize & (SHARED_SHARDS - 1),
            h as usize & (SHARED_SLOTS_PER_SHARD - 1),
        )
    }

    /// A query's handle on this store: every lookup and store through it
    /// is stamped with `generation`, the generation of the graph view the
    /// query runs on (any fixed value for a graph that never changes).
    pub fn at(self: &Arc<Self>, generation: u64) -> SharedAuxHandle {
        SharedAuxHandle {
            store: Arc::clone(self),
            generation,
        }
    }

    fn lookup(&self, generation: u64, key: &SharedKey, out: &mut Vec<VertexId>) -> bool {
        let (shard, slot) = Self::place(key);
        let Ok(guard) = self.shards[shard].read() else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return false;
        };
        let s = &guard[slot];
        if s.key == *key && s.generation == generation {
            out.clear();
            out.extend_from_slice(&s.buf);
            self.hits.fetch_add(1, Ordering::Relaxed);
            true
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            false
        }
    }

    fn store(&self, generation: u64, key: &SharedKey, data: &[VertexId]) {
        let (shard, slot) = Self::place(key);
        let projected = self.bytes.load(Ordering::Relaxed) + data.len() * 4;
        if let Some(max) = self.max_bytes {
            if projected > max {
                self.evict_all();
                return;
            }
        }
        let Ok(mut guard) = self.shards[shard].write() else {
            return;
        };
        let s = &mut guard[slot];
        let occupied = s.key.len != 0;
        // Panic-safe ordering as in the intra tier: unpublish first,
        // publish the key last.
        s.key.len = 0;
        let old_cap = s.buf.capacity();
        s.buf.clear();
        s.buf.extend_from_slice(data);
        let new_cap = s.buf.capacity();
        if new_cap >= old_cap {
            self.bytes
                .fetch_add((new_cap - old_cap) * 4, Ordering::Relaxed);
        } else {
            self.bytes
                .fetch_sub((old_cap - new_cap) * 4, Ordering::Relaxed);
        }
        s.generation = generation;
        s.key = *key;
        if occupied {
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        self.stores.fetch_add(1, Ordering::Relaxed);
    }

    /// Drop every entry and its buffer capacity. Returns occupied slots
    /// dropped.
    pub fn evict_all(&self) -> u64 {
        let mut n = 0;
        for shard in &self.shards {
            let Ok(mut guard) = shard.write() else {
                continue;
            };
            for s in guard.iter_mut() {
                if s.key.len != 0 {
                    n += 1;
                }
                s.key.len = 0;
                s.buf = Vec::new();
            }
        }
        self.bytes.store(0, Ordering::Relaxed);
        self.evictions.fetch_add(n, Ordering::Relaxed);
        n
    }

    /// Bytes of buffer capacity currently resident.
    pub fn bytes(&self) -> usize {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Counter snapshot.
    pub fn counters(&self) -> SharedAuxCounters {
        SharedAuxCounters {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            stores: self.stores.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            bytes: self.bytes(),
        }
    }
}

/// One query's view of a [`SharedAuxStore`]: the store plus the generation
/// of the graph the query enumerates. This is what
/// [`EngineConfig::shared_aux`](crate::EngineConfig) holds.
#[derive(Debug, Clone)]
pub struct SharedAuxHandle {
    store: Arc<SharedAuxStore>,
    generation: u64,
}

impl SharedAuxHandle {
    /// Copy the result stored for `key` at this handle's generation into
    /// `out` (replacing its contents). Returns whether the lookup hit.
    /// Poisoned shards are treated as misses — a writer that panicked
    /// mid-copy never published its key (same discipline as
    /// [`AuxCache::store`]), but declining to read a poisoned shard costs
    /// only a recompute.
    pub fn lookup(&self, key: &SharedKey, out: &mut Vec<VertexId>) -> bool {
        self.store.lookup(self.generation, key, out)
    }

    /// Insert `data` for `key` at this handle's generation. Under watermark
    /// pressure the store empties itself and skips the insert.
    pub fn store(&self, key: &SharedKey, data: &[VertexId]) {
        self.store.store(self.generation, key, data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_then_hit_roundtrip() {
        let mut c = AuxCache::new(2);
        let mut pool = BufferPool::new();
        assert_eq!(c.lookup(0, 7, 0), None);
        assert!(!c.store(0, 7, 5, &[1, 2, 3], &mut pool));
        assert_eq!(c.lookup(0, 7, 5), Some(&[1, 2, 3][..]));
        assert_eq!(c.lookup(0, 7, 0), Some(&[1, 2, 3][..]));
        // Other directive's table is independent.
        assert_eq!(c.lookup(1, 7, 0), None);
    }

    #[test]
    fn stale_entries_are_invisible() {
        let mut c = AuxCache::new(1);
        let mut pool = BufferPool::new();
        c.store(0, 7, 5, &[1, 2, 3], &mut pool);
        // Guard slot re-bound at serial 6: the entry is stale.
        assert_eq!(c.lookup(0, 7, 6), None);
        // Refilling at serial 8 revives it.
        c.store(0, 7, 8, &[4, 5], &mut pool);
        assert_eq!(c.lookup(0, 7, 6), Some(&[4, 5][..]));
    }

    #[test]
    fn colliding_keys_evict() {
        let mut c = AuxCache::new(1);
        let mut pool = BufferPool::new();
        // Keys v and v + SLOTS * k may or may not collide under the
        // multiplicative hash; find a genuine collision.
        let a = 1u32;
        let b = (2..100_000u32)
            .find(|&v| AuxCache::index(v) == AuxCache::index(a))
            .unwrap();
        assert!(!c.store(0, a, 1, &[10], &mut pool));
        assert!(c.store(0, b, 1, &[20], &mut pool), "collision must evict");
        assert_eq!(c.lookup(0, a, 0), None);
        assert_eq!(c.lookup(0, b, 0), Some(&[20][..]));
    }

    #[test]
    fn bytes_track_capacity_and_evict_all_frees() {
        let mut c = AuxCache::new(1);
        let mut pool = BufferPool::new();
        c.store(0, 3, 1, &[1, 2, 3, 4], &mut pool);
        assert!(c.bytes() >= 16);
        let peak = c.peak_bytes();
        assert!(peak >= 16);
        assert_eq!(c.evict_all(), 1);
        assert_eq!(c.bytes(), 0);
        assert_eq!(c.peak_bytes(), peak, "peak survives eviction");
        assert_eq!(c.lookup(0, 3, 0), None);
        assert_eq!(c.evict_all(), 0, "second sweep finds nothing");
    }

    #[test]
    fn store_reuses_slot_capacity_in_place() {
        let mut c = AuxCache::new(1);
        let mut pool = BufferPool::new();
        c.store(0, 3, 1, &[1, 2, 3, 4, 5, 6, 7, 8], &mut pool);
        let bytes = c.bytes();
        // Same slot, smaller payload: capacity (and the account) stays.
        c.store(0, 3, 2, &[9], &mut pool);
        assert_eq!(c.bytes(), bytes);
        assert_eq!(c.lookup(0, 3, 2), Some(&[9][..]));
        assert_eq!(pool.stats().fresh, 1, "one buffer drawn, then reused");
    }

    #[test]
    fn empty_result_is_cacheable() {
        let mut c = AuxCache::new(1);
        let mut pool = BufferPool::new();
        c.store(0, 3, 1, &[], &mut pool);
        assert_eq!(c.lookup(0, 3, 1), Some(&[][..]));
    }

    #[test]
    fn shared_key_sorts_and_bounds() {
        assert_eq!(SharedKey::new(&[5, 3]), SharedKey::new(&[3, 5]));
        assert_ne!(SharedKey::new(&[3, 5]), SharedKey::new(&[3, 6]));
        assert_ne!(SharedKey::new(&[3, 5]), SharedKey::new(&[3, 5, 7]));
        assert!(SharedKey::new(&[1]).is_none(), "singletons are aliases");
        assert!(SharedKey::new(&[0; SHARED_KEY_MAX + 1]).is_none());
    }

    #[test]
    fn shared_store_roundtrip_and_counters() {
        let store = Arc::new(SharedAuxStore::new(None));
        let s = store.at(0);
        let k = SharedKey::new(&[7, 2]).unwrap();
        let mut out = vec![99];
        assert!(!s.lookup(&k, &mut out));
        s.store(&k, &[10, 20, 30]);
        assert!(s.lookup(&k, &mut out));
        assert_eq!(out, vec![10, 20, 30]);
        let c = store.counters();
        assert_eq!((c.hits, c.misses, c.stores), (1, 1, 1));
        assert!(c.bytes >= 12);
    }

    #[test]
    fn entries_answer_only_their_own_generation() {
        // A query on generation 3 publishes after generation 4 exists.
        let store = Arc::new(SharedAuxStore::new(None));
        let k = SharedKey::new(&[4, 9]).unwrap();
        let old_query = store.at(3);
        let new_query = store.at(4);
        old_query.store(&k, &[1]);
        let mut out = Vec::new();
        assert!(!new_query.lookup(&k, &mut out), "old-graph entry served");
        assert!(old_query.lookup(&k, &mut out));
        assert_eq!(out, vec![1]);
        // The new generation overwrites the slot; the straggler then misses.
        new_query.store(&k, &[2]);
        assert!(new_query.lookup(&k, &mut out));
        assert_eq!(out, vec![2]);
        assert!(!old_query.lookup(&k, &mut out));
    }

    #[test]
    fn shared_store_watermark_evicts_all_and_skips() {
        let store = Arc::new(SharedAuxStore::new(Some(64)));
        let s = store.at(0);
        let a = SharedKey::new(&[1, 2]).unwrap();
        s.store(&a, &[0; 8]); // 32 bytes, fits
        assert!(store.bytes() >= 32);
        let b = SharedKey::new(&[3, 4]).unwrap();
        s.store(&b, &[0; 20]); // would cross: evict all, skip
        let mut out = Vec::new();
        assert!(!s.lookup(&a, &mut out));
        assert!(!s.lookup(&b, &mut out));
        assert_eq!(store.bytes(), 0);
        assert!(store.counters().evictions >= 1);
    }
}
