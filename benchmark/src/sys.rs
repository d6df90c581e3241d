//! Whole-process accounting: CPU placement, `getrusage`, and a counting
//! global allocator. The three libc symbols are declared here because std
//! already links libc; nothing is added to the build.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Words in the affinity mask handed to the kernel (1024 CPUs).
const MASK_WORDS: usize = 16;

/// Linux `struct timeval` on 64-bit targets.
#[repr(C)]
#[derive(Default, Clone, Copy)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// Linux `struct rusage` on 64-bit targets.
#[repr(C)]
#[derive(Default, Clone, Copy)]
struct RawRusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    ixrss: i64,
    idrss: i64,
    isrss: i64,
    minflt: i64,
    majflt: i64,
    nswap: i64,
    inblock: i64,
    oublock: i64,
    msgsnd: i64,
    msgrcv: i64,
    nsignals: i64,
    nvcsw: i64,
    nivcsw: i64,
}

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn getrusage(who: i32, usage: *mut RawRusage) -> i32;
}

/// Confine the calling thread — and every thread it spawns afterwards — to
/// the last CPU of its affinity mask. Returns that CPU.
pub fn pin_to_last_cpu() -> Result<usize, String> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a valid, writable buffer of the size passed.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Err("sched_getaffinity failed".into());
    }
    let cpu = (0..MASK_WORDS * 64)
        .rev()
        .find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
        .ok_or("empty affinity mask")?;
    let mut only = [0u64; MASK_WORDS];
    only[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `only` is a valid, readable buffer of the size passed.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&only), only.as_ptr()) };
    if rc != 0 {
        return Err(format!("sched_setaffinity to CPU {cpu} failed"));
    }
    Ok(cpu)
}

/// The `getrusage(RUSAGE_SELF)` fields the benchmark reads.
#[derive(Debug, Default, Clone, Copy)]
pub struct Rusage {
    /// User + system CPU time, µs.
    pub cpu_us: u64,
    /// Voluntary context switches (a thread blocked).
    pub vcsw: u64,
    /// Involuntary context switches (a thread was preempted).
    pub ivcsw: u64,
    /// Peak resident set, KiB.
    pub maxrss_kib: u64,
}

impl Rusage {
    /// Read the process totals now.
    pub fn now() -> Rusage {
        let mut raw = RawRusage::default();
        // SAFETY: `raw` is a valid, writable `struct rusage`; 0 is RUSAGE_SELF.
        let rc = unsafe { getrusage(0, &mut raw) };
        assert_eq!(
            rc, 0,
            "getrusage(RUSAGE_SELF) cannot fail with a valid buffer"
        );
        let us = |t: Timeval| t.sec as u64 * 1_000_000 + t.usec as u64;
        Rusage {
            cpu_us: us(raw.utime) + us(raw.stime),
            vcsw: raw.nvcsw as u64,
            ivcsw: raw.nivcsw as u64,
            maxrss_kib: raw.maxrss as u64,
        }
    }
}

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

/// The system allocator plus, while switched on, a count of calls and
/// bytes. Off, it costs one relaxed load per allocation.
pub struct CountingAlloc;

impl CountingAlloc {
    /// Switch counting on or off (traced stream slices only).
    pub fn set_counting(on: bool) {
        COUNTING.store(on, Ordering::Relaxed);
    }

    /// (calls, bytes) counted so far.
    pub fn counts() -> (u64, u64) {
        (
            ALLOC_CALLS.load(Ordering::Relaxed),
            ALLOC_BYTES.load(Ordering::Relaxed),
        )
    }

    fn note(size: usize) {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
            ALLOC_BYTES.fetch_add(size as u64, Ordering::Relaxed);
        }
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters are side effects that touch no allocation.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}
