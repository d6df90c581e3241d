//! Non-poisoning lock primitives with the `parking_lot` API shape, and the
//! [`Epoch`] event built on them.
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
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

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

/// A reader-writer lock that never poisons.
pub struct RwLock<T: ?Sized> {
    inner: std::sync::RwLock<T>,
}

impl<T> RwLock<T> {
    /// Wrap `value`.
    pub const fn new(value: T) -> Self {
        RwLock {
            inner: std::sync::RwLock::new(value),
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

impl<T: ?Sized> RwLock<T> {
    /// Acquire a shared read guard.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        match self.inner.read() {
            Ok(g) => RwLockReadGuard { inner: g },
            Err(p) => RwLockReadGuard {
                inner: p.into_inner(),
            },
        }
    }

    /// Acquire an exclusive write guard.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        match self.inner.write() {
            Ok(g) => RwLockWriteGuard { inner: g },
            Err(p) => RwLockWriteGuard {
                inner: p.into_inner(),
            },
        }
    }

    /// Acquire a read guard only if no writer holds the lock.
    pub fn try_read(&self) -> Option<RwLockReadGuard<'_, T>> {
        match self.inner.try_read() {
            Ok(g) => Some(RwLockReadGuard { inner: g }),
            Err(std::sync::TryLockError::Poisoned(p)) => Some(RwLockReadGuard {
                inner: p.into_inner(),
            }),
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }

    /// Acquire a write guard only if the lock is free right now.
    pub fn try_write(&self) -> Option<RwLockWriteGuard<'_, T>> {
        match self.inner.try_write() {
            Ok(g) => Some(RwLockWriteGuard { inner: g }),
            Err(std::sync::TryLockError::Poisoned(p)) => Some(RwLockWriteGuard {
                inner: p.into_inner(),
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

impl<T: Default> Default for RwLock<T> {
    fn default() -> Self {
        RwLock::new(T::default())
    }
}

/// Shared read guard of an [`RwLock`].
pub struct RwLockReadGuard<'a, T: ?Sized> {
    inner: std::sync::RwLockReadGuard<'a, T>,
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

/// Exclusive write guard of an [`RwLock`].
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    inner: std::sync::RwLockWriteGuard<'a, T>,
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
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
/// A bump wakes a thread only when one is asleep, and only after its own
/// lock is free. Waiters are counted under the mutex that guards every
/// epoch change: `bump` increments, reads the count, drops the guard and
/// calls `notify_all` only when the count was not zero — with nobody
/// waiting it costs one uncontended lock and no system call, and a woken
/// waiter never finds the mutex still held by its waker. No wake-up is
/// lost: a waiter checks the epoch and registers under the mutex and only
/// gives it up inside the condvar wait, so a bump either comes first (the
/// waiter sees the new epoch and does not sleep) or finds it counted.
/// `Epoch::default()` is epoch 0 with nobody waiting.
#[derive(Default)]
pub struct Epoch {
    /// Threads inside a wait. Guards every write of `epoch`.
    waiters: Mutex<usize>,
    /// Only written under `waiters`' lock. The `Release` store in `bump`
    /// pairs with the `Acquire` load in `epoch()`: a thread that reads the
    /// new epoch also sees the state change the bump announced.
    epoch: AtomicU64,
    cv: Condvar,
}

impl Epoch {
    /// The current epoch, without taking the lock.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Threads inside a wait right now (tests and diagnostics).
    pub fn waiters(&self) -> usize {
        *self.waiters.lock()
    }

    /// Increment the epoch and wake every thread waiting on it.
    pub fn bump(&self) {
        let waiters = {
            let guard = self.waiters.lock();
            self.epoch.fetch_add(1, Ordering::Release);
            *guard
        };
        if waiters > 0 {
            self.cv.notify_all();
        }
    }

    /// Block until the epoch exceeds `seen`; returns the epoch observed at
    /// wake-up.
    pub fn wait_past(&self, seen: u64) -> u64 {
        let mut waiters = self.waiters.lock();
        loop {
            let now = self.epoch.load(Ordering::Relaxed);
            if now > seen {
                return now;
            }
            *waiters += 1;
            self.cv.wait(&mut waiters);
            *waiters -= 1;
        }
    }

    /// Like [`Epoch::wait_past`], but give up after `timeout`: `Some(epoch)`
    /// when the epoch moved, `None` on timeout.
    pub fn wait_past_timeout(&self, seen: u64, timeout: Duration) -> Option<u64> {
        let deadline = Instant::now() + timeout;
        let mut waiters = self.waiters.lock();
        loop {
            let now = self.epoch.load(Ordering::Relaxed);
            if now > seen {
                return Some(now);
            }
            let left = deadline.checked_duration_since(Instant::now())?;
            *waiters += 1;
            self.cv.wait_for(&mut waiters, left);
            *waiters -= 1;
        }
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
    fn rwlock_readers_coexist_writers_exclude() {
        let l = RwLock::new(5u32);
        {
            let r1 = l.read();
            let r2 = l.read();
            assert_eq!(*r1 + *r2, 10);
            assert!(l.try_write().is_none());
        }
        *l.write() = 7;
        assert_eq!(*l.read(), 7);
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

    #[test]
    fn epoch_wait_and_bump() {
        let ev = Arc::new(Epoch::default());
        assert_eq!(ev.epoch(), 0);
        ev.bump(); // nobody waits: no notify, the epoch still moves
        assert_eq!(ev.epoch(), 1);
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
    fn epoch_timed_wait_expires_uncounted() {
        let ev = Epoch::default();
        assert_eq!(ev.wait_past_timeout(0, Duration::from_millis(5)), None);
        assert_eq!(ev.wait_past_timeout(0, Duration::ZERO), None);
        assert_eq!(ev.waiters(), 0, "a waiter that gave up is not counted");
        ev.bump();
        assert_eq!(ev.wait_past_timeout(0, Duration::from_secs(5)), Some(1));
    }

    /// 4 bumpers against 4 waiters, half of them on short timed waits: a
    /// stale waiter count would either skip a notify somebody needs (a
    /// waiter never reaches the final epoch) or stay above zero for good
    /// (every later bump pays a notify).
    #[test]
    fn epoch_storm() {
        const BUMPS: u64 = 2_000;
        let ev = Arc::new(Epoch::default());
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
            let (ev, start, done) = (ev.clone(), start.clone(), done_tx.clone());
            std::thread::spawn(move || {
                start.wait();
                let mut seen = ev.epoch();
                while seen < 4 * BUMPS {
                    seen = if w % 2 == 0 {
                        ev.wait_past(seen)
                    } else {
                        ev.wait_past_timeout(seen, Duration::from_micros(50))
                            .unwrap_or(seen)
                    };
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
        assert_eq!(ev.waiters(), 0);
    }
}
