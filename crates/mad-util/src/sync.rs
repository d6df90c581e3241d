//! Non-poisoning lock primitives with the `parking_lot` API shape, and the
//! [`Epoch`] event built on them: one atomic word `epoch << 1 | SLEEPING`
//! that a bump adds to without a lock, taking the mutex and calling
//! `notify_all` only to claim threads marked asleep.
//!
//! `std::sync` locks return `LockResult` because a panicking holder poisons
//! the lock; every call site in this workspace treated that as impossible
//! (the previous `parking_lot` dependency has no poisoning either). These
//! wrappers recover the inner guard on poison, so `lock()` returns the guard
//! directly and `Condvar::wait` takes `&mut MutexGuard` — call sites migrate
//! from `parking_lot` by swapping the import path.

use std::fmt;
use std::mem::ManuallyDrop;
use std::ops::{Deref, DerefMut};
use std::os::fd::RawFd;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::poll::{self, PollFd, Source, Sources, Wake, POLLIN, POLLOUT};

/// A mutual-exclusion lock that never poisons.
pub struct Mutex<T: ?Sized> {
    inner: std::sync::Mutex<T>,
}

impl<T> Mutex<T> {
    /// Wrap `value`.
    pub const fn new(value: T) -> Self {
        Mutex {
            inner: std::sync::Mutex::new(value),
        }
    }

    /// Consume the lock, returning the value.
    pub fn into_inner(self) -> T {
        match self.inner.into_inner() {
            Ok(v) => v,
            Err(p) => p.into_inner(),
        }
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire the lock, blocking until it is free.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let guard = match self.inner.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        MutexGuard {
            inner: ManuallyDrop::new(guard),
        }
    }

    /// Acquire the lock only if it is free right now.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.inner.try_lock() {
            Ok(g) => Some(MutexGuard {
                inner: ManuallyDrop::new(g),
            }),
            Err(std::sync::TryLockError::Poisoned(p)) => Some(MutexGuard {
                inner: ManuallyDrop::new(p.into_inner()),
            }),
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }

    /// Access the value without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        match self.inner.get_mut() {
            Ok(v) => v,
            Err(p) => p.into_inner(),
        }
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

impl<T> From<T> for Mutex<T> {
    fn from(value: T) -> Self {
        Mutex::new(value)
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.try_lock() {
            Some(g) => f.debug_struct("Mutex").field("data", &&*g).finish(),
            None => f.write_str("Mutex { <locked> }"),
        }
    }
}

/// RAII guard of a [`Mutex`].
///
/// Held as `ManuallyDrop` so [`Condvar::wait`] can move the underlying
/// `std` guard out and back without an `Option` branch on every deref.
pub struct MutexGuard<'a, T: ?Sized> {
    inner: ManuallyDrop<std::sync::MutexGuard<'a, T>>,
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        // SAFETY: dropped exactly once, here; `Condvar::wait*` never leaves
        // the slot vacant (it aborts if re-acquisition is impossible).
        unsafe { ManuallyDrop::drop(&mut self.inner) };
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for MutexGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// Outcome of a [`Condvar::wait_for`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitTimeoutResult {
    timed_out: bool,
}

impl WaitTimeoutResult {
    /// True if the wait ended because the timeout elapsed (the predicate
    /// must still be re-checked: wakeups can race with the deadline).
    pub fn timed_out(&self) -> bool {
        self.timed_out
    }
}

/// A condition variable whose wait methods take `&mut MutexGuard`, as in
/// `parking_lot`, instead of consuming and returning the guard.
#[derive(Default)]
pub struct Condvar {
    inner: std::sync::Condvar,
}

/// Aborts the process if dropped during unwinding; guards the window in
/// which a `MutexGuard`'s slot is vacant. `std::sync::Condvar` only panics
/// when one condvar is used with two different mutexes — a programming
/// error for which an abort is a kinder failure than a double unlock.
struct AbortOnDrop;

impl Drop for AbortOnDrop {
    fn drop(&mut self) {
        eprintln!("mad-util: condvar used with more than one mutex; aborting");
        std::process::abort();
    }
}

impl Condvar {
    /// Create a condition variable.
    pub const fn new() -> Self {
        Condvar {
            inner: std::sync::Condvar::new(),
        }
    }

    /// Wake every waiter.
    pub fn notify_all(&self) {
        self.inner.notify_all();
    }

    /// Atomically release the mutex and block until notified, re-acquiring
    /// before returning. Spurious wakeups are possible, as with any condvar.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        // SAFETY: the slot is refilled below before anyone can observe it;
        // the bomb turns a (mismatched-mutex) panic into an abort so the
        // vacated guard is never double-dropped.
        let inner = unsafe { ManuallyDrop::take(&mut guard.inner) };
        let bomb = AbortOnDrop;
        let inner = match self.inner.wait(inner) {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        std::mem::forget(bomb);
        guard.inner = ManuallyDrop::new(inner);
    }

    /// Like [`Condvar::wait`], but gives up after `timeout`.
    pub fn wait_for<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: Duration,
    ) -> WaitTimeoutResult {
        // SAFETY: as in `wait`.
        let inner = unsafe { ManuallyDrop::take(&mut guard.inner) };
        let bomb = AbortOnDrop;
        let (inner, result) = match self.inner.wait_timeout(inner, timeout) {
            Ok((g, r)) => (g, r),
            Err(p) => {
                let (g, r) = p.into_inner();
                (g, r)
            }
        };
        std::mem::forget(bomb);
        guard.inner = ManuallyDrop::new(inner);
        WaitTimeoutResult {
            timed_out: result.timed_out(),
        }
    }
}

impl fmt::Debug for Condvar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Condvar")
    }
}

/// An epoch counter threads can block on — the workspace's one blocking
/// primitive on real threads (`RtEvent` in `madeleine` wraps it;
/// `vtime::Signal` is its virtual-clock twin).
///
/// The protocol is the classic one: a waiter reads [`Epoch::epoch`]
/// *before* it inspects the state it is waiting on and passes that value
/// to [`Epoch::wait_past`]; whoever changes the state calls
/// [`Epoch::bump`] afterwards. A bump between the check and the wait
/// moves the epoch past the value read, so the wait returns at once.
///
/// A bump wakes a thread only when one is asleep, only once, and only
/// after its own lock is free. The epoch and a `SLEEPING` bit share one
/// atomic word, `epoch << 1 | SLEEPING`. `bump` is one `fetch_add(2)`;
/// only when the word it replaced had the bit set does it take the mutex,
/// clear the bit — which claims every thread asleep right now — drop the
/// guard and call `notify_all`. A second bump before the woken threads run
/// finds the bit clear: no lock, no system call. A waiter holds the mutex,
/// loads the epoch, sets the bit with `fetch_or` and re-checks the epoch
/// that call returns before it sleeps. No wake-up is lost: both sides
/// modify the same word, so every bump is ordered before that `fetch_or`
/// (the waiter sees the new epoch and does not sleep) or after it (the
/// bump sees the bit), and the bit changes only under the mutex, which the
/// waiter gives up only inside the condvar wait. A claimed waiter whose
/// epoch has not moved sets the bit again and sleeps; a waiter that leaves
/// with no other sleeper counted clears it, so a timed-out wait leaves no
/// mark for the next bump to pay for.
///
/// **Sources.** An epoch may have [`Source`]s: descriptors whose input is
/// what the epoch announces (a socket whose frames, once read, are bumped
/// in), and a thread may have a *home* epoch whose sources every wait it
/// makes reads besides ([`Epoch::drain_on_this_thread`]). With a source
/// either way, a sleeper is counted and marked exactly as above, but
/// lists its thread's wake descriptor under the mutex and sleeps in
/// `ppoll` over the sources and that descriptor instead of on the
/// condvar; the claim writes a byte to the wake descriptor of every listed
/// sleeper (under the mutex, which the sleeper does not need to leave
/// `ppoll`), and calls `notify_all` only if a sleeper is on the condvar.
/// A sleeper that wakes unlists itself, runs the pumps of the readable
/// sources with no lock held, and re-checks the epoch. Without a source
/// the new work is a load of the epoch's flag and of the thread's home on
/// the sleeping side, and a claim looks at the poller list, empty, once.
/// `Epoch::default()` is epoch 0 with nobody waiting and no source.
#[derive(Default)]
pub struct Epoch {
    /// `epoch << 1 | SLEEPING`. The `Release` add in `bump` pairs with the
    /// `Acquire` loads of the waiters: a thread that reads the new epoch
    /// also sees the state change the bump announced.
    state: AtomicU64,
    /// Threads inside a wait right now. Guards every write of `SLEEPING`.
    sleepers: Mutex<Sleepers>,
    cv: Condvar,
    /// What a sleeper polls; shared with the threads whose home it is.
    sources: Arc<Sources>,
    /// `notify_all` calls so far, for the tests that pin the claim.
    #[cfg(test)]
    notifies: AtomicU64,
}

#[derive(Default)]
struct Sleepers {
    /// Threads inside a wait, on the condvar or in `ppoll`.
    count: usize,
    /// The wake descriptors of the threads in `ppoll`.
    pollers: Vec<Arc<Wake>>,
}

/// The low bit of [`Epoch`]'s state word: a thread may be asleep on it.
const SLEEPING: u64 = 1;

/// The longest a sleeper naps after `ppoll` itself failed, before it
/// tries again.
const POLL_RETRY: Duration = Duration::from_millis(1);

impl Epoch {
    /// The current epoch, without taking the lock.
    pub fn epoch(&self) -> u64 {
        self.state.load(Ordering::Acquire) >> 1
    }

    /// Threads inside a wait right now.
    #[cfg(test)]
    fn waiters(&self) -> usize {
        self.sleepers.lock().count
    }

    /// Increment the epoch and wake every thread waiting on it.
    pub fn bump(&self) {
        if self.state.fetch_add(2, Ordering::Release) & SLEEPING == 0 {
            return;
        }
        let on_condvar = {
            let sleepers = self.sleepers.lock();
            let claimed = self.state.fetch_and(!SLEEPING, Ordering::Relaxed) & SLEEPING != 0;
            if claimed {
                for wake in &sleepers.pollers {
                    wake.wake();
                }
            }
            claimed && sleepers.count > sleepers.pollers.len()
        };
        if on_condvar {
            #[cfg(test)]
            self.notifies.fetch_add(1, Ordering::Relaxed);
            self.cv.notify_all();
        }
    }

    /// Add a source: from now on a sleeper polls it and pumps it when it
    /// turns readable. A sleeper already on the condvar is woken, to poll.
    pub fn add_source(&self, source: Arc<dyn Source>) {
        self.sources.add(source);
        self.bump();
    }

    /// Remove `source` (compared by address). A sleeper that took its
    /// snapshot earlier may poll it once more.
    pub fn remove_source(&self, source: &dyn Source) {
        self.sources.remove(source);
    }

    /// Make this epoch the calling thread's home: every wait the thread
    /// makes from now on, on any epoch, and every [`Epoch::wait_writable`],
    /// also reads this epoch's sources. A thread that owns the input of an
    /// event keeps it flowing while it waits for something else.
    pub fn drain_on_this_thread(&self) {
        poll::set_home(self.sources.clone());
    }

    /// Block until the epoch exceeds `seen`; returns the epoch observed at
    /// wake-up.
    pub fn wait_past(&self, seen: u64) -> u64 {
        self.wait_until(seen, None)
            .expect("a wait without a deadline ends only past `seen`")
    }

    /// Like [`Epoch::wait_past`], but give up after `timeout`: `Some(epoch)`
    /// when the epoch moved, `None` on timeout.
    pub fn wait_past_timeout(&self, seen: u64, timeout: Duration) -> Option<u64> {
        self.wait_until(seen, Some(Instant::now() + timeout))
    }

    /// Block until `fd` takes more bytes (or fails at once), reading this
    /// epoch's sources and the thread's home sources meanwhile: a writer
    /// that waits for room keeps the input that shares its event flowing,
    /// so two peers that each write before they read both get on.
    pub fn wait_writable(&self, fd: RawFd) -> std::io::Result<()> {
        let home = poll::home_besides(&self.sources);
        loop {
            let own = self.sources.snapshot();
            let home_list = home.as_ref().map(|h| h.snapshot());
            let mut lead = [PollFd::new(fd, POLLOUT)];
            let lists = [&own[..], home_list.as_deref().unwrap_or(&[])];
            match poll::poll_sources(&mut lead, &lists, None, || {}) {
                Ok(_) if lead[0].writable() => return Ok(()),
                Ok(_) => {}
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    fn wait_until(&self, seen: u64, deadline: Option<Instant>) -> Option<u64> {
        // Give the CPU away once before sleeping on the condvar: a runnable
        // thread that will bump this epoch (the producer, the lock holder)
        // and shares the CPU runs now, and the wait costs one yield instead
        // of a sleep, a wake and a switch. Once per call, and not past the
        // deadline: a zero-timeout wait stays a pure check. A waiter that
        // will sleep in `ppoll` does not yield: on a TCP chain those yields
        // left the small exchanges' tail slow in a varying share of the
        // time (DESIGN §8.3 rule 4).
        let now = self.epoch();
        if now > seen {
            return Some(now);
        }
        let home = poll::home_besides(&self.sources);
        if home.is_none() && !self.sources.polled() && deadline.is_none_or(|d| Instant::now() < d) {
            std::thread::yield_now();
            let now = self.epoch();
            if now > seen {
                return Some(now);
            }
        }
        let mut sleepers = self.sleepers.lock();
        let reached = loop {
            let now = self.epoch();
            if now > seen {
                break Some(now);
            }
            let left = deadline.map(|d| d.saturating_duration_since(Instant::now()));
            if left == Some(Duration::ZERO) {
                break None;
            }
            let now = self.state.fetch_or(SLEEPING, Ordering::Acquire) >> 1;
            if now > seen {
                break Some(now);
            }
            sleepers.count += 1;
            if home.is_none() && !self.sources.polled() {
                match left {
                    None => self.cv.wait(&mut sleepers),
                    Some(left) => {
                        self.cv.wait_for(&mut sleepers, left);
                    }
                }
                sleepers.count -= 1;
                continue;
            }
            let wake = poll::thread_wake();
            sleepers.pollers.push(wake.clone());
            drop(sleepers);
            let own = self.sources.snapshot();
            let home_list = home.as_ref().map(|h| h.snapshot());
            let mut lead = [PollFd::new(wake.fd(), POLLIN)];
            let lists = [&own[..], home_list.as_deref().unwrap_or(&[])];
            // Unlisted before the pumps run, so that their bumps write to
            // no wake descriptor of this thread's.
            let unlist = || {
                let mut listed = self.sleepers.lock();
                if let Some(i) = listed.pollers.iter().position(|w| Arc::ptr_eq(w, &wake)) {
                    listed.pollers.swap_remove(i);
                }
                listed.count -= 1;
            };
            match poll::poll_sources(&mut lead, &lists, left, unlist) {
                Ok(_) if lead[0].readable() => wake.clear(),
                Ok(_) => {}
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                // Nap rather than spin on a poll that keeps failing; the
                // epoch is re-checked before the next sleep.
                Err(_) => std::thread::sleep(left.map_or(POLL_RETRY, |l| l.min(POLL_RETRY))),
            }
            // The snapshots may hold the last reference to a removed
            // source, whose drop may bump this epoch: let go of them
            // unlocked.
            drop((own, home_list));
            sleepers = self.sleepers.lock();
        };
        if sleepers.count == 0 && self.state.load(Ordering::Relaxed) & SLEEPING != 0 {
            self.state.fetch_and(!SLEEPING, Ordering::Relaxed);
        }
        reached
    }
}

/// What a queue's consumer may ask without the queue's lock: is anything
/// queued, and can anything ever be. The queue owns the two counts and
/// writes them under its lock; a reader loads them and takes nothing, so
/// a receive scan over many connections costs one atomic load each
/// (`RtQueue` in `madeleine`, `vtime`'s mailbox).
///
/// No wake-up is lost by reading instead of locking, on the epoch
/// protocol above: the queue stores the new length *before* it bumps the
/// event that announces it (`Release` store, `Release` bump), and a
/// waiter loads the epoch *before* the length. A waiter that reads the
/// bumped epoch sees the length stored before it; one that reads the old
/// epoch and an empty queue sleeps only past that old epoch, which the
/// bump has moved or will move.
///
/// [`Readiness::closed`] loads the producer count before the length: a
/// count of zero is final and every push happened before the last
/// producer left, so a length read after it is the last push's or a pop's
/// since. The other order could read an empty queue, then a count of zero
/// that the last producer wrote after one more push.
#[derive(Debug)]
pub struct Readiness {
    queued: AtomicUsize,
    producers: AtomicUsize,
}

impl Readiness {
    /// An empty queue with `producers` live producers.
    pub fn new(producers: usize) -> Self {
        Readiness {
            queued: AtomicUsize::new(0),
            producers: AtomicUsize::new(producers),
        }
    }

    /// The queue now holds `len` items. Under the queue's lock, before
    /// the bump that announces a push.
    pub fn set_queued(&self, len: usize) {
        self.queued.store(len, Ordering::Release);
    }

    /// One more producer (a clone of a live one).
    pub fn add_producer(&self) {
        self.producers.fetch_add(1, Ordering::AcqRel);
    }

    /// A producer left; returns how many are left. At zero the caller
    /// bumps its event, after this.
    pub fn drop_producer(&self) -> usize {
        self.producers.fetch_sub(1, Ordering::AcqRel) - 1
    }

    /// True if an item is queued right now.
    pub fn ready(&self) -> bool {
        self.queued.load(Ordering::Acquire) != 0
    }

    /// True once every producer is gone and the queue is drained: nothing
    /// will ever be queued again.
    pub fn closed(&self) -> bool {
        self.producers.load(Ordering::Acquire) == 0 && self.queued.load(Ordering::Acquire) == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_basic_and_try_lock() {
        let m = Mutex::new(1u32);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        let g = m.lock();
        assert!(m.try_lock().is_none());
        drop(g);
        assert_eq!(*m.try_lock().unwrap(), 2);
        assert_eq!(m.into_inner(), 2);
    }

    #[test]
    fn mutex_survives_holder_panic() {
        let m = Arc::new(Mutex::new(0u32));
        let m2 = m.clone();
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison attempt");
        })
        .join();
        // A poisoned std mutex would return Err here; ours recovers.
        *m.lock() += 1;
        assert_eq!(*m.lock(), 1);
    }

    #[test]
    fn condvar_wait_and_notify() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let pair2 = pair.clone();
        let h = std::thread::spawn(move || {
            let (lock, cv) = &*pair2;
            let mut started = lock.lock();
            while !*started {
                cv.wait(&mut started);
            }
            true
        });
        std::thread::sleep(Duration::from_millis(10));
        let (lock, cv) = &*pair;
        *lock.lock() = true;
        cv.notify_all();
        assert!(h.join().unwrap());
    }

    #[test]
    fn condvar_wait_for_times_out() {
        let m = Mutex::new(());
        let cv = Condvar::new();
        let mut g = m.lock();
        let r = cv.wait_for(&mut g, Duration::from_millis(10));
        assert!(r.timed_out());
        // The guard still guards: deref works and the mutex is still held.
        drop(g);
        assert!(m.try_lock().is_some());
    }

    fn marked(ev: &Epoch) -> bool {
        ev.state.load(Ordering::Relaxed) & SLEEPING != 0
    }

    fn notifies(ev: &Epoch) -> u64 {
        ev.notifies.load(Ordering::Relaxed)
    }

    #[test]
    fn epoch_wait_and_bump() {
        let ev = Arc::new(Epoch::default());
        assert_eq!(ev.epoch(), 0);
        ev.bump();
        assert_eq!(ev.epoch(), 1);
        assert_eq!(notifies(&ev), 0, "nobody waits: no notify");
        assert_eq!(ev.wait_past(0), 1, "an epoch already past returns at once");
        let ev2 = ev.clone();
        let h = std::thread::spawn(move || ev2.wait_past(1));
        while ev.waiters() == 0 {
            std::thread::yield_now();
        }
        ev.bump();
        assert_eq!(h.join().unwrap(), 2);
        assert_eq!(ev.waiters(), 0);
    }

    #[test]
    fn epoch_bump_claims_its_sleepers() {
        let ev = Arc::new(Epoch::default());
        let ev2 = ev.clone();
        let h = std::thread::spawn(move || ev2.wait_past(0));
        while ev.waiters() == 0 {
            std::thread::yield_now();
        }
        ev.bump();
        ev.bump(); // the first bump claimed the sleeper: nothing left to wake
        assert!(h.join().unwrap() > 0);
        assert_eq!(notifies(&ev), 1);
        assert!(!marked(&ev));
    }

    #[test]
    fn epoch_timed_out_waiter_leaves_no_mark() {
        let ev = Epoch::default();
        assert_eq!(ev.wait_past_timeout(0, Duration::from_millis(5)), None);
        assert_eq!(ev.wait_past_timeout(0, Duration::ZERO), None);
        assert_eq!(ev.waiters(), 0, "a waiter that gave up is not counted");
        assert!(!marked(&ev), "a waiter that gave up leaves the bit clear");
        ev.bump();
        assert_eq!(notifies(&ev), 0, "so the next bump wakes nobody");
        assert_eq!(ev.wait_past_timeout(0, Duration::from_secs(5)), Some(1));
    }

    /// Two threads hand a turn back and forth through two epochs with
    /// untimed waits: one lost wake-up strands both. The storm keeps
    /// bumping and so misses all but a lost last wake-up; this does not.
    #[test]
    fn epoch_ping_pong_loses_no_wake_up() {
        const ROUNDS: u64 = 20_000;
        let (ping, pong) = (Arc::new(Epoch::default()), Arc::new(Epoch::default()));
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        {
            let (ping, pong, done) = (ping.clone(), pong.clone(), done_tx.clone());
            std::thread::spawn(move || {
                for k in 0..ROUNDS {
                    ping.wait_past(k);
                    pong.bump();
                }
                let _ = done.send(());
            });
        }
        std::thread::spawn(move || {
            for k in 0..ROUNDS {
                ping.bump();
                pong.wait_past(k);
            }
            let _ = done_tx.send(());
        });
        for _ in 0..2 {
            done_rx
                .recv_timeout(Duration::from_secs(20))
                .expect("a side never got its turn back: lost wake-up");
        }
    }

    /// A waiter whose producer is runnable on its CPU yields to it and
    /// finds the epoch moved instead of sleeping: two threads pinned to one
    /// CPU hand a turn back and forth 10 000 times and sleep far fewer
    /// times than there are hand-offs (a sleep per hand-off without the
    /// yield).
    #[test]
    fn epoch_waiter_yields_to_a_producer_on_its_cpu() {
        const ROUNDS: u64 = 10_000;
        extern "C" {
            fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
            fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
        }
        let mut mask = [0u64; 16];
        // SAFETY: the mask is a live buffer of the size passed.
        if unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
            eprintln!(
                "skipped: sched_getaffinity: {}",
                std::io::Error::last_os_error()
            );
            return;
        }
        let Some(word) = mask.iter().position(|w| *w != 0) else {
            eprintln!("skipped: empty affinity mask");
            return;
        };
        let mut one = [0u64; 16];
        one[word] = 1 << mask[word].trailing_zeros();
        // Pins the calling thread only (pid 0 is the caller), runs its
        // turns once both threads are pinned, and reads its voluntary
        // switches at the end.
        let start = Arc::new(std::sync::Barrier::new(2));
        let unpinned = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let pinned = move |turns: Box<dyn FnOnce() + Send>| {
            // SAFETY: the mask is a live buffer of the size passed.
            let set = unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) };
            let error = (set != 0).then(std::io::Error::last_os_error);
            if error.is_some() {
                unpinned.store(true, Ordering::Relaxed);
            }
            start.wait();
            if let Some(e) = error {
                return Err(e);
            }
            if unpinned.load(Ordering::Relaxed) {
                return Err(std::io::Error::other("the other thread could not pin"));
            }
            turns();
            let status = std::fs::read_to_string("/proc/thread-self/status")?;
            Ok(status
                .lines()
                .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))
                .and_then(|v| v.trim().parse::<u64>().ok())
                .expect("voluntary_ctxt_switches in /proc/thread-self/status"))
        };
        let (ping, pong) = (Arc::new(Epoch::default()), Arc::new(Epoch::default()));
        let (ping2, pong2) = (ping.clone(), pong.clone());
        let pinned2 = pinned.clone();
        let a = std::thread::spawn(move || {
            pinned2(Box::new(move || {
                for k in 0..ROUNDS {
                    ping2.wait_past(k);
                    pong2.bump();
                }
            }))
        });
        let b = std::thread::spawn(move || {
            pinned(Box::new(move || {
                for k in 0..ROUNDS {
                    ping.bump();
                    pong.wait_past(k);
                }
            }))
        });
        match (a.join().unwrap(), b.join().unwrap()) {
            (Ok(a), Ok(b)) => assert!(
                a + b < 1_000,
                "{a} + {b} voluntary switches for {} hand-offs",
                2 * ROUNDS
            ),
            (Err(e), _) | (_, Err(e)) => eprintln!("skipped: sched_setaffinity: {e}"),
        }
    }

    /// A source over one end of a socket pair: its pump reads what the
    /// other end wrote, records the thread it ran on, and bumps `bumps`.
    #[derive(Default)]
    struct Pipe {
        ends: Option<(
            std::os::unix::net::UnixStream,
            std::os::unix::net::UnixStream,
        )>,
        pumped_on: Mutex<Vec<std::thread::ThreadId>>,
        bumps: std::sync::OnceLock<std::sync::Weak<Epoch>>,
    }

    impl Pipe {
        fn new() -> Arc<Pipe> {
            let (rx, tx) = std::os::unix::net::UnixStream::pair().unwrap();
            rx.set_nonblocking(true).unwrap();
            Arc::new(Pipe {
                ends: Some((rx, tx)),
                ..Pipe::default()
            })
        }

        fn write(&self) {
            use std::io::Write;
            (&self.ends.as_ref().unwrap().1).write_all(&[7]).unwrap();
        }
    }

    impl Source for Pipe {
        fn fd(&self) -> std::os::fd::RawFd {
            use std::os::fd::AsRawFd;
            self.ends.as_ref().unwrap().0.as_raw_fd()
        }

        fn pump(&self) {
            use std::io::Read;
            let mut buf = [0u8; 16];
            while matches!((&self.ends.as_ref().unwrap().0).read(&mut buf), Ok(n) if n > 0) {}
            self.pumped_on.lock().push(std::thread::current().id());
            if let Some(ev) = self.bumps.get().and_then(std::sync::Weak::upgrade) {
                ev.bump();
            }
        }
    }

    fn polled_epoch() -> (Arc<Epoch>, Arc<Pipe>) {
        let ev = Arc::new(Epoch::default());
        let pipe = Pipe::new();
        pipe.bumps.set(Arc::downgrade(&ev)).unwrap();
        ev.add_source(pipe.clone());
        (ev, pipe)
    }

    fn pollers(ev: &Epoch) -> usize {
        ev.sleepers.lock().pollers.len()
    }

    #[test]
    fn epoch_bump_claims_a_polling_sleeper() {
        let (ev, pipe) = polled_epoch();
        let seen = ev.epoch();
        let ev2 = ev.clone();
        let h = std::thread::spawn(move || ev2.wait_past(seen));
        while pollers(&ev) == 0 {
            std::thread::yield_now();
        }
        ev.bump();
        ev.bump(); // claimed already: nothing left to wake
        assert!(h.join().unwrap() > seen);
        assert_eq!(
            notifies(&ev),
            0,
            "a poller is woken by its descriptor, not the condvar"
        );
        assert!(
            pipe.pumped_on.lock().is_empty(),
            "the source never turned readable"
        );
        assert_eq!((ev.waiters(), pollers(&ev)), (0, 0));
        assert!(!marked(&ev));
    }

    #[test]
    fn epoch_readable_source_wakes_a_polling_sleeper_which_pumps() {
        let (ev, pipe) = polled_epoch();
        let seen = ev.epoch();
        let ev2 = ev.clone();
        let h = std::thread::spawn(move || (ev2.wait_past(seen), std::thread::current().id()));
        while pollers(&ev) == 0 {
            std::thread::yield_now();
        }
        pipe.write();
        let (reached, sleeper) = h.join().unwrap();
        assert!(reached > seen, "the pump's bump ends the wait");
        assert_eq!(
            *pipe.pumped_on.lock(),
            [sleeper],
            "the sleeper ran the pump"
        );
        assert_eq!((ev.waiters(), pollers(&ev)), (0, 0));
        assert!(!marked(&ev));
        ev.remove_source(&*pipe);
        assert!(!ev.sources.polled());
    }

    /// A thread's home sources are read by every wait it makes: one on an
    /// epoch without sources pumps them, and still ends only when its own
    /// epoch moves.
    #[test]
    fn epoch_home_sources_are_read_by_every_wait() {
        let (home, pipe) = polled_epoch();
        let ev = Arc::new(Epoch::default());
        let (home2, ev2) = (home.clone(), ev.clone());
        let h = std::thread::spawn(move || {
            home2.drain_on_this_thread();
            (ev2.wait_past(0), std::thread::current().id())
        });
        while pollers(&ev) == 0 {
            std::thread::yield_now();
        }
        pipe.write();
        while pipe.pumped_on.lock().is_empty() {
            std::thread::yield_now();
        }
        while pollers(&ev) == 0 {
            std::thread::yield_now(); // back asleep: the home's bump is not its own
        }
        ev.bump();
        let (reached, sleeper) = h.join().unwrap();
        assert_eq!(reached, 1);
        assert_eq!(*pipe.pumped_on.lock(), [sleeper]);
        assert!(home.epoch() > 0, "the pump bumped the home epoch");
        assert_eq!((ev.waiters(), pollers(&ev)), (0, 0));
    }

    #[test]
    fn epoch_timed_poll_wait_leaves_no_mark() {
        let (ev, pipe) = polled_epoch();
        let seen = ev.epoch();
        let t0 = Instant::now();
        assert_eq!(ev.wait_past_timeout(seen, Duration::from_millis(5)), None);
        assert!(t0.elapsed() >= Duration::from_millis(5));
        assert_eq!((ev.waiters(), pollers(&ev)), (0, 0));
        assert!(!marked(&ev), "a poller that gave up leaves the bit clear");
        ev.bump();
        assert_eq!(notifies(&ev), 0);
        assert!(pipe.pumped_on.lock().is_empty());
    }

    /// 4 bumpers against 4 waiters, half of them on short timed waits and
    /// half of them polling a source (one of each both ways): a claim that
    /// misses a sleeper of either kind leaves a waiter short of the final
    /// epoch, and a stale count, poller or `SLEEPING` bit outlives the
    /// waiters (every later bump would pay a notify).
    #[test]
    fn epoch_storm() {
        const BUMPS: u64 = 2_000;
        let ev = Arc::new(Epoch::default());
        let (polled, _pipe) = polled_epoch();
        let start = Arc::new(std::sync::Barrier::new(8));
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let bumpers: Vec<_> = (0..4)
            .map(|_| {
                let (ev, start) = (ev.clone(), start.clone());
                std::thread::spawn(move || {
                    start.wait();
                    for _ in 0..BUMPS {
                        ev.bump();
                    }
                })
            })
            .collect();
        for w in 0..4 {
            let (ev, polled) = (ev.clone(), polled.clone());
            let (start, done) = (start.clone(), done_tx.clone());
            std::thread::spawn(move || {
                start.wait();
                if w >= 2 {
                    polled.drain_on_this_thread();
                }
                let mut seen = ev.epoch();
                while seen < 4 * BUMPS {
                    let deadline = (w % 2 == 1).then(|| Instant::now() + Duration::from_micros(50));
                    seen = ev.wait_until(seen, deadline).unwrap_or(seen);
                }
                let _ = done.send(seen);
            });
        }
        for b in bumpers {
            b.join().unwrap();
        }
        for _ in 0..4 {
            let reached = done_rx
                .recv_timeout(Duration::from_secs(20))
                .expect("a waiter never saw the final epoch: lost wake-up");
            assert_eq!(reached, 4 * BUMPS);
        }
        assert_eq!(ev.epoch(), 4 * BUMPS);
        assert_eq!((ev.waiters(), pollers(&ev)), (0, 0));
        assert!(!marked(&ev), "the last waiter out clears the bit");
    }
}
