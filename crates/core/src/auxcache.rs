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
}
