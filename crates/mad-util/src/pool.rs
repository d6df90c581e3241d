//! Size-classed recycling buffer pool.
//!
//! The forwarding hot path handles one `Vec<u8>` per GTM packet: the landing
//! buffer a fragment is received into, the staging buffer a gather send is
//! assembled into, every encoded control packet. Allocating those from the
//! global heap costs a malloc/free pair per fragment — measurable next to
//! the tens-of-µs buffer-switch overhead the paper's cost model charges per
//! send, and pure waste given that the same handful of sizes recirculate
//! forever. [`BufferPool`] keeps freed buffers in power-of-two size classes
//! (each with room for a packet prelude on top) and hands them back on the
//! next request; [`PooledBuf`] returns itself to its pool on drop, so call
//! sites keep ordinary owned-buffer ergonomics.
//!
//! The pool is a cache, not an arena: a miss falls through to a plain `Vec`
//! allocation and the buffer still joins the pool when dropped. Counters
//! ([`PoolStats`]) distinguish hits from misses so tests can assert the
//! steady-state invariant the gateway aims for — zero misses per fragment
//! after warm-up.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::sync::Mutex;

/// Smallest size class, bytes. Requests below this round up.
const MIN_CLASS: usize = 64;
/// Largest pooled capacity, bytes. Larger buffers are served by the heap
/// and discarded on return (counted, not recycled) — one giant message
/// must not pin megabytes in the free lists forever.
const MAX_CLASS: usize = 1 << 20;
/// Spare bytes every class carries above its power of two, so a packet of
/// a power-of-two payload plus its GTM prelude (15 B) fits the class of its
/// payload instead of the next one, twice as large.
const HEADROOM: usize = 64;
/// Number of power-of-two classes between [`MIN_CLASS`] and [`MAX_CLASS`].
const N_CLASSES: usize = (MAX_CLASS.trailing_zeros() - MIN_CLASS.trailing_zeros()) as usize + 1;
/// Retained buffers per class. A free list holds at most what was in
/// flight at once, and that must fit: one bulk stream's application window
/// of 8 MiB is 128 fragments of 64 KiB on their way, and a cap below it
/// sends the surplus of every burst back to the heap and takes it out
/// again on the next (EXPERIMENTS A15). Beyond this, returns are
/// discarded: the cap bounds worst-case idle memory at Σ class_size ×
/// MAX_RETAINED ≈ 512 MB.
const MAX_RETAINED: usize = 256;

/// Cumulative pool counters, snapshot via [`BufferPool::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Total `get`/`take` requests: `hits + misses`.
    pub gets: u64,
    /// Requests served from a free list.
    pub hits: u64,
    /// Requests that fell through to a heap allocation.
    pub misses: u64,
    /// Buffers returned to a free list on drop.
    pub recycled: u64,
    /// Buffers dropped to the heap on return (over-cap class or oversized).
    pub discarded: u64,
}

impl PoolStats {
    /// Every counter with its trace event name, in one place.
    pub fn named(&self) -> [(&'static str, u64); 5] {
        [
            ("gets", self.gets),
            ("hits", self.hits),
            ("misses", self.misses),
            ("recycled", self.recycled),
            ("discarded", self.discarded),
        ]
    }
}

/// A thread-safe pool of recycled byte buffers in power-of-two size
/// classes from 64 B to 1 MB, each with 64 B of headroom on top.
#[derive(Debug, Default)]
pub struct BufferPool {
    classes: [Mutex<Vec<Vec<u8>>>; N_CLASSES],
    hits: AtomicU64,
    misses: AtomicU64,
    recycled: AtomicU64,
    discarded: AtomicU64,
}

/// Index of the smallest class whose capacity covers `cap`, or `None` if
/// `cap` exceeds the largest class.
fn class_for_request(cap: usize) -> Option<usize> {
    let cap = cap.saturating_sub(HEADROOM).max(MIN_CLASS);
    if cap > MAX_CLASS {
        return None;
    }
    let class = usize::BITS - (cap - 1).leading_zeros(); // ceil(log2(cap))
    Some(class as usize - MIN_CLASS.trailing_zeros() as usize)
}

/// Index of the largest class whose capacity is ≤ `cap` — where a returned
/// buffer of capacity `cap` can safely serve future requests of that class.
fn class_for_return(cap: usize) -> Option<usize> {
    let cap = cap.checked_sub(HEADROOM).filter(|&c| c >= MIN_CLASS)?;
    let class = (usize::BITS - 1 - cap.leading_zeros()) as usize; // floor(log2(cap))
    Some((class - MIN_CLASS.trailing_zeros() as usize).min(N_CLASSES - 1))
}

fn class_capacity(idx: usize) -> usize {
    (MIN_CLASS << idx) + HEADROOM
}

impl BufferPool {
    /// An empty pool behind an [`Arc`], ready to share.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// An empty buffer with capacity ≥ `min_cap`, recycled if possible.
    pub fn get(self: &Arc<Self>, min_cap: usize) -> PooledBuf {
        if let Some(idx) = class_for_request(min_cap) {
            if let Some(mut v) = self.classes[idx].lock().pop() {
                self.hits.fetch_add(1, Ordering::Relaxed);
                v.clear();
                return PooledBuf {
                    data: v,
                    pool: Some(self.clone()),
                };
            }
            self.misses.fetch_add(1, Ordering::Relaxed);
            return PooledBuf {
                data: Vec::with_capacity(class_capacity(idx)),
                pool: Some(self.clone()),
            };
        }
        // Oversized: heap-backed, still tracked so the drop is counted.
        self.misses.fetch_add(1, Ordering::Relaxed);
        PooledBuf {
            data: Vec::with_capacity(min_cap),
            pool: Some(self.clone()),
        }
    }

    /// A zero-filled buffer of exactly `len` bytes (the pooled analogue of
    /// `vec![0u8; len]`, for landings that are written by `recv_into`).
    pub fn take(self: &Arc<Self>, len: usize) -> PooledBuf {
        let mut b = self.get(len);
        b.data.resize(len, 0);
        b
    }

    /// Re-attach an arbitrary `Vec` (e.g. one received from a conduit) so
    /// that dropping it feeds the pool instead of the heap.
    pub fn adopt(self: &Arc<Self>, data: Vec<u8>) -> PooledBuf {
        PooledBuf {
            data,
            pool: Some(self.clone()),
        }
    }

    fn put(&self, data: Vec<u8>) {
        match class_for_return(data.capacity()) {
            Some(idx) if data.capacity() <= MAX_CLASS + HEADROOM => {
                let mut free = self.classes[idx].lock();
                if free.len() < MAX_RETAINED {
                    free.push(data);
                    self.recycled.fetch_add(1, Ordering::Relaxed);
                    return;
                }
            }
            _ => {}
        }
        self.discarded.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot of the cumulative counters. Every request is a hit or a
    /// miss, so `gets` is their sum rather than a third counter the hot
    /// path would pay for.
    pub fn stats(&self) -> PoolStats {
        let hits = self.hits.load(Ordering::Relaxed);
        let misses = self.misses.load(Ordering::Relaxed);
        PoolStats {
            gets: hits + misses,
            hits,
            misses,
            recycled: self.recycled.load(Ordering::Relaxed),
            discarded: self.discarded.load(Ordering::Relaxed),
        }
    }
}

/// An owned byte buffer that returns to its [`BufferPool`] on drop.
///
/// Dereferences to `[u8]`; use [`PooledBuf::vec`] for `Vec` mutators
/// (`extend_from_slice`, `resize`, …). A `PooledBuf` built with
/// [`From<Vec<u8>>`] has no pool and drops to the heap like any `Vec` —
/// that keeps non-pooled call sites (tests, one-shot paths) working with
/// the same types.
#[derive(Debug, Default)]
pub struct PooledBuf {
    data: Vec<u8>,
    pool: Option<Arc<BufferPool>>,
}

impl PooledBuf {
    /// The underlying `Vec`, for growth and truncation in place.
    pub fn vec(&mut self) -> &mut Vec<u8> {
        &mut self.data
    }

    /// Detach from the pool, keeping the bytes (the buffer will no longer
    /// be recycled).
    pub fn detach(mut self) -> Vec<u8> {
        self.pool = None;
        std::mem::take(&mut self.data)
    }
}

impl From<Vec<u8>> for PooledBuf {
    fn from(data: Vec<u8>) -> Self {
        PooledBuf { data, pool: None }
    }
}

impl Clone for PooledBuf {
    /// Clones the bytes, not the pool attachment: the copy drops to the
    /// heap. Cloning is off the hot path by design.
    fn clone(&self) -> Self {
        PooledBuf {
            data: self.data.clone(),
            pool: None,
        }
    }
}

impl Drop for PooledBuf {
    fn drop(&mut self) {
        if let Some(pool) = self.pool.take() {
            pool.put(std::mem::take(&mut self.data));
        }
    }
}

impl std::ops::Deref for PooledBuf {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl std::ops::DerefMut for PooledBuf {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }
}

impl PartialEq for PooledBuf {
    fn eq(&self, other: &Self) -> bool {
        self.data == other.data
    }
}

impl Eq for PooledBuf {}

impl std::borrow::Borrow<[u8]> for PooledBuf {
    fn borrow(&self) -> &[u8] {
        &self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recycles_within_class() {
        let pool = BufferPool::new();
        let mut b = pool.get(100);
        b.vec().extend_from_slice(&[1, 2, 3]);
        let cap = b.vec().capacity();
        drop(b);
        let mut b2 = pool.get(100);
        assert_eq!(b2.vec().capacity(), cap, "same buffer back");
        assert_eq!(b2.len(), 0, "recycled buffer comes back cleared");
        let st = pool.stats();
        assert_eq!(st.gets, 2);
        assert_eq!(st.hits, 1);
        assert_eq!(st.misses, 1);
        assert_eq!(st.recycled, 1);
    }

    #[test]
    fn class_rounding() {
        assert_eq!(class_for_request(0), Some(0));
        assert_eq!(class_for_request(64 + HEADROOM), Some(0));
        assert_eq!(class_for_request(65 + HEADROOM), Some(1));
        assert_eq!(class_for_request(128 + HEADROOM), Some(1));
        assert_eq!(class_for_request(MAX_CLASS + HEADROOM), Some(N_CLASSES - 1));
        assert_eq!(class_for_request(MAX_CLASS + HEADROOM + 1), None);
        assert_eq!(class_for_return(63 + HEADROOM), None);
        assert_eq!(class_for_return(64 + HEADROOM), Some(0));
        assert_eq!(class_for_return(127 + HEADROOM), Some(0));
        assert_eq!(class_for_return(128 + HEADROOM), Some(1));
        for idx in 0..N_CLASSES {
            let cap = class_capacity(idx);
            assert_eq!(class_for_request(cap), Some(idx));
            assert_eq!(class_for_return(cap), Some(idx));
        }
    }

    /// A 64 KiB fragment and its prelude take a buffer of the 64 KiB
    /// class, not one of 128 KiB.
    #[test]
    fn fragment_with_prelude_fits_its_payload_class() {
        let pool = BufferPool::new();
        let b = pool.get((64 << 10) + 15);
        assert!(b.data.capacity() < 128 << 10, "{}", b.data.capacity());
        assert_eq!(
            class_for_request((64 << 10) + 15),
            class_for_request(64 << 10)
        );
    }

    #[test]
    fn take_zero_fills() {
        let pool = BufferPool::new();
        let mut b = pool.take(100);
        b[99] = 7;
        drop(b);
        let b2 = pool.take(100);
        assert_eq!(b2.len(), 100);
        assert!(b2.iter().all(|&x| x == 0), "recycled take() re-zeroes");
    }

    #[test]
    fn adopt_recycles_foreign_vec() {
        let pool = BufferPool::new();
        drop(pool.adopt(Vec::with_capacity(256)));
        assert_eq!(pool.stats().recycled, 1);
        let mut b = pool.get(192);
        assert_eq!(pool.stats().hits, 1, "adopted buffer serves a get");
        assert!(b.vec().capacity() >= 192);
    }

    #[test]
    fn oversized_discarded() {
        let pool = BufferPool::new();
        drop(pool.get(MAX_CLASS + HEADROOM + 1));
        let st = pool.stats();
        assert_eq!(st.misses, 1);
        assert_eq!(st.discarded, 1);
        assert_eq!(st.recycled, 0);
    }

    #[test]
    fn retention_cap() {
        let pool = BufferPool::new();
        let bufs: Vec<_> = (0..MAX_RETAINED + 5).map(|_| pool.get(64)).collect();
        drop(bufs);
        let st = pool.stats();
        assert_eq!(st.recycled, MAX_RETAINED as u64);
        assert_eq!(st.discarded, 5);
    }

    #[test]
    fn unpooled_from_vec() {
        let b: PooledBuf = vec![1u8, 2, 3].into();
        assert_eq!(&*b, &[1, 2, 3]);
        let v = b.detach();
        assert_eq!(v, vec![1, 2, 3]);
    }
}
