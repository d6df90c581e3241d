//! A small forwarded message costs no heap allocation once the session is
//! warm: the writer stages into a pooled buffer, the gateway passes the
//! frame on as it landed, and the receiver reads it in place.
//!
//! The counting allocator sees every thread of the process, the gateway's
//! and the runtime's included. This binary holds this one test only, so
//! nothing else runs while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use mad_shm::ShmDriver;
use madeleine::session::VcOptions;
use madeleine::{NodeId, RecvMode, SendMode, SessionBuilder};

/// The system allocator, counting every allocation and reallocation.
struct Counting;

/// A statistic only: it publishes no other data.
static CALLS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method passes its arguments unchanged to `System`, whose
// implementation meets the trait's contract; counting touches only an
// atomic and allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's guarantees for `layout` are `System`'s.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from this allocator, which is `System`'s.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const WARMUP: u32 = 2_000;
const MESSAGES: u32 = 20_000;

/// Ranks 0 and 2 on their own shm networks, rank 1 the gateway between;
/// 64 B messages go back and forth, each its sender's only one in flight.
#[test]
fn small_forwarded_messages_allocate_nothing_when_warm() {
    let mut sb = SessionBuilder::new(3);
    let rt = sb.runtime().clone();
    let left = sb.network("left", ShmDriver::new(rt.clone()), &[0, 1]);
    let right = sb.network("right", ShmDriver::new(rt), &[1, 2]);
    sb.vchannel("vc", &[left, right], VcOptions::default());
    let counted = Arc::new(AtomicU64::new(0));
    let probe = counted.clone();
    sb.run(move |node| {
        let vc = node.vchannel("vc");
        let me = node.rank().0;
        let mut payload = [0x5au8; 64];
        // Rank 0 sends the even messages, rank 2 the odd ones: every
        // message is the answer to the one before.
        let (peer, first) = match me {
            0 => (NodeId(2), 0),
            2 => (NodeId(0), 1),
            _ => return,
        };
        let mut before = 0;
        for i in 0..WARMUP + MESSAGES {
            if i == WARMUP && me == 0 {
                before = CALLS.load(Ordering::SeqCst);
            }
            if i % 2 == first {
                let mut w = vc.begin_packing(peer).unwrap();
                w.pack(&payload, SendMode::Cheaper, RecvMode::Cheaper)
                    .unwrap();
                w.end_packing().unwrap();
            } else {
                payload.fill(0);
                let mut r = vc.begin_unpacking().unwrap();
                r.unpack(&mut payload, SendMode::Cheaper, RecvMode::Cheaper)
                    .unwrap();
                r.end_unpacking().unwrap();
                assert_eq!(payload, [0x5au8; 64]);
            }
        }
        if me == 0 {
            probe.store(CALLS.load(Ordering::SeqCst) - before, Ordering::SeqCst);
        }
    });
    let calls = counted.load(Ordering::SeqCst);
    assert!(
        calls * 100 < u64::from(MESSAGES),
        "{calls} allocations in {MESSAGES} warm messages"
    );
}
