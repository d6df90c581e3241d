//! Execution-environment abstraction.
//!
//! Madeleine's protocol code must run identically on real threads (for the
//! shared-memory and TCP drivers) and under the deterministic virtual clock
//! of the hardware model. Everything environment-dependent — spawning
//! threads, blocking, timestamps, and the *cost accounting* of copies and
//! software overheads — funnels through [`Runtime`].
//!
//! [`StdRuntime`] is the real-time implementation; the simulated one lives
//! in the `mad-sim` crate (it must not be here: this crate stays ignorant of
//! virtual time).
//!
//! ## What a wake-up costs
//!
//! On real threads every blocking wait — a conduit's arrival event, a
//! queue's, a lock's, the credit ledger's — is one
//! [`mad_util::sync::Epoch`], and on one CPU the message rate *is* the
//! number of times the scheduler is called for (EXPERIMENTS A13, A14). So
//! a bump pays it only for somebody: with nobody asleep it is one atomic
//! add, and it wakes the threads asleep on that event once — the first
//! bump claims them, a second one before they run costs nothing — and
//! only after the event's own lock is free. An event whose input is a
//! socket (a TCP conduit's) has that socket as a poll *source*: its
//! sleepers sleep in `ppoll` and read it themselves, so no thread of the
//! driver's stands between the kernel and the waiter.
//!
//! What is left is the wait that does real work, and a waiter does not
//! pay a sleep for it when it need not: before it sleeps on the condvar
//! it yields its CPU once and re-reads the epoch. When the thread that
//! will bump — the producer, the lock holder — is runnable on the same
//! CPU, it runs now, and the wait costs one `sched_yield` instead of a
//! futex sleep, a futex wake and a switch; with nothing else runnable the
//! yield returns at once. A yield that switches is counted as an
//! *involuntary* switch, so compare the sum of both counts. A waiter
//! that sleeps in `ppoll` does not yield: on the TCP chain that left the
//! small exchanges' tail unsteady from run to run (EXPERIMENTS A14,
//! "yield once, then sleep").

use std::os::fd::RawFd;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use mad_util::poll::{PollFd, Source, POLLOUT};
use mad_util::sync::{Epoch, Mutex, Readiness};

/// An epoch counter that threads can block on — the one blocking primitive
/// the library needs. Semantically identical to `vtime::Signal` so the
/// simulated runtime can delegate directly.
pub trait RtEvent: Send + Sync {
    /// Current epoch.
    fn epoch(&self) -> u64;
    /// Increment the epoch and wake all waiters. On real threads a bump
    /// that finds nobody asleep is one atomic add and no system call, a
    /// bump claims the sleepers it wakes so the next one before they run
    /// pays nothing either, and a waiter on the condvar is woken only
    /// after the bumper has let go of the event's own lock; one asleep in
    /// `ppoll` over the event's sources is woken through its wake
    /// descriptor ([`mad_util::sync::Epoch`]).
    fn bump(&self);
    /// Block the calling thread until the epoch exceeds `seen`; returns the
    /// epoch observed at wake-up.
    fn wait_past(&self, seen: u64) -> u64;
    /// Like [`RtEvent::wait_past`], but give up after `timeout_ns`
    /// (relative) nanoseconds of the runtime's clock: `Some(epoch)` when
    /// the epoch moved, `None` on timeout. The robustness deadlines of the
    /// gateway (credit waits, teardown drains) are built on this — it is
    /// the only way a blocked protocol thread can observe that a peer has
    /// silently died.
    fn wait_past_timeout(&self, seen: u64, timeout_ns: u64) -> Option<u64>;
    /// Register a readable descriptor whose input this event announces:
    /// from now on whoever sleeps on the event polls it and runs its pump
    /// when it turns readable. `false` where no sleeper can poll (virtual
    /// time), and then nothing is registered.
    fn add_source(&self, _source: Arc<dyn Source>) -> bool {
        false
    }
    /// Unregister `source` (compared by address).
    fn remove_source(&self, _source: &dyn Source) {}
    /// Make this event's sources the calling thread's home: every wait the
    /// thread makes from now on, on any event, also reads them (a gateway
    /// polling thread keeps its network's sockets drained while it waits
    /// for room or credit). A no-op where nothing polls.
    fn drain_on_this_thread(&self) {}
    /// Block until `fd` takes more bytes, reading this event's sources and
    /// the thread's home sources meanwhile (a socket write that would
    /// block). Where nothing polls, a plain wait for `fd`.
    fn wait_writable(&self, fd: RawFd) -> std::io::Result<()> {
        let mut fds = [PollFd::new(fd, POLLOUT)];
        while !fds[0].writable() {
            match mad_util::poll::poll(&mut fds, None) {
                Err(e) if e.kind() != std::io::ErrorKind::Interrupted => return Err(e),
                _ => {}
            }
        }
        Ok(())
    }
    /// Concrete-type access, so a driver can recover runtime-specific
    /// internals (the simulated driver extracts the virtual-clock signal).
    fn as_any(&self) -> &dyn std::any::Any;
}

/// The services Madeleine requires from its execution environment.
pub trait Runtime: Send + Sync {
    /// Spawn a named thread. Under the simulated runtime this registers a
    /// virtual-clock actor for the thread.
    fn spawn(&self, name: String, f: Box<dyn FnOnce() + Send>) -> JoinHandle<()>;

    /// Allocate a fresh blocking event.
    fn event(&self) -> Arc<dyn RtEvent>;

    /// Account for a `bytes`-long memory copy performed by the calling
    /// thread. Free on real hardware (the copy itself already cost real
    /// time); on the simulator it advances the thread's virtual clock by
    /// `bytes / memcpy_bandwidth`.
    fn charge_copy(&self, bytes: usize);

    /// Account for a fixed software overhead (e.g. the gateway pipeline's
    /// per-buffer-switch cost, §3.3.1). Free on real hardware; a virtual
    /// sleep on the simulator.
    fn charge_overhead(&self, nanos: u64);

    /// Monotonic timestamp in nanoseconds (wall clock or virtual clock),
    /// used by benchmarks to compute bandwidth.
    fn now_nanos(&self) -> u64;

    /// Hold the world still while a multi-threaded setup completes; the
    /// returned guard is dropped when setup is done. A no-op on real
    /// threads; prevents virtual-time races during simulated bootstrap.
    fn setup_guard(&self) -> Box<dyn std::any::Any + Send>;

    /// The event tracer attached to this runtime. Protocol code records
    /// spans/counters through this handle; the default is a disabled
    /// tracer, so untraced runs pay one branch per instrumentation
    /// point.
    fn tracer(&self) -> mad_trace::Tracer {
        mad_trace::Tracer::off()
    }

    /// The session-wide recycling buffer pool. Hot-path code (gateway
    /// landings, GTM staging, control-packet encodes) draws its buffers
    /// here so steady-state forwarding allocates nothing; because the
    /// whole session shares one runtime, a buffer staged on the sending
    /// node and adopted on the receiving one closes the recycle loop.
    fn pool(&self) -> &Arc<mad_util::pool::BufferPool>;

    /// Total threads spawned through this runtime so far — engine
    /// threads, application nodes, the planes' watchdogs and responders;
    /// no driver runs a thread of its own (a TCP socket is read by whoever
    /// sleeps on its conduit's event). This is the observable thread
    /// budget; sessions flush it to the `rt:session` trace track at
    /// teardown.
    fn threads_spawned(&self) -> u64 {
        0
    }
}

/// The trace event name of a thread budget: the session's on
/// `rt:session`, each gateway engine's slice of it on its `gw:` track.
pub(crate) const THREADS_SPAWNED: &str = "threads_spawned";

/// [`RtEvent`] on real threads: [`Epoch`] is the whole implementation.
#[derive(Default)]
struct StdEvent(Epoch);

impl RtEvent for StdEvent {
    fn epoch(&self) -> u64 {
        self.0.epoch()
    }

    fn bump(&self) {
        self.0.bump();
    }

    fn wait_past(&self, seen: u64) -> u64 {
        self.0.wait_past(seen)
    }

    fn wait_past_timeout(&self, seen: u64, timeout_ns: u64) -> Option<u64> {
        self.0
            .wait_past_timeout(seen, std::time::Duration::from_nanos(timeout_ns))
    }

    fn add_source(&self, source: Arc<dyn Source>) -> bool {
        self.0.add_source(source);
        true
    }

    fn remove_source(&self, source: &dyn Source) {
        self.0.remove_source(source);
    }

    fn drain_on_this_thread(&self) {
        self.0.drain_on_this_thread();
    }

    fn wait_writable(&self, fd: RawFd) -> std::io::Result<()> {
        self.0.wait_writable(fd)
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// Real-threads runtime: `std::thread`, condvar-backed events, free cost
/// accounting, `Instant`-based timestamps.
pub struct StdRuntime {
    start: Instant,
    tracer: mad_trace::Tracer,
    pool: Arc<mad_util::pool::BufferPool>,
    spawned: std::sync::atomic::AtomicU64,
}

impl Default for StdRuntime {
    fn default() -> Self {
        StdRuntime {
            start: Instant::now(),
            tracer: mad_trace::Tracer::off(),
            pool: mad_util::pool::BufferPool::new(),
            spawned: std::sync::atomic::AtomicU64::new(0),
        }
    }
}

/// Trace clock for [`StdRuntime`]: shares the runtime's epoch so trace
/// timestamps live in the same domain as [`Runtime::now_nanos`].
struct StdClock {
    start: Instant,
}

impl mad_trace::TraceClock for StdClock {
    fn now_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }
}

impl StdRuntime {
    /// Create a shareable instance.
    pub fn shared() -> Arc<dyn Runtime> {
        Arc::new(StdRuntime::default())
    }

    /// A real-threads runtime recording into `tracer`. Binds the
    /// tracer's clock to this runtime's monotonic epoch (domain
    /// `"mono"`), so trace timestamps align with `now_nanos`.
    pub fn traced(tracer: mad_trace::Tracer) -> Arc<dyn Runtime> {
        let start = Instant::now();
        tracer.init_clock(Arc::new(StdClock { start }), "mono");
        Arc::new(StdRuntime {
            start,
            tracer,
            pool: mad_util::pool::BufferPool::new(),
            spawned: std::sync::atomic::AtomicU64::new(0),
        })
    }
}

impl Runtime for StdRuntime {
    fn spawn(&self, name: String, f: Box<dyn FnOnce() + Send>) -> JoinHandle<()> {
        self.spawned
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        #[cfg(feature = "census")]
        let f = crate::census::at_exit(f);
        std::thread::Builder::new()
            .name(name)
            .spawn(f)
            .expect("spawning runtime thread")
    }

    fn event(&self) -> Arc<dyn RtEvent> {
        Arc::new(StdEvent::default())
    }

    fn charge_copy(&self, _bytes: usize) {}

    fn charge_overhead(&self, _nanos: u64) {}

    fn now_nanos(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    fn setup_guard(&self) -> Box<dyn std::any::Any + Send> {
        Box::new(())
    }

    fn tracer(&self) -> mad_trace::Tracer {
        self.tracer.clone()
    }

    fn pool(&self) -> &Arc<mad_util::pool::BufferPool> {
        &self.pool
    }

    fn threads_spawned(&self) -> u64 {
        self.spawned.load(std::sync::atomic::Ordering::Relaxed)
    }
}

/// A mutex whose waiters block through an [`RtEvent`], making contention
/// visible to the virtual clock. A plain mutex held across a blocking
/// driver operation would freeze the simulation: the waiter appears
/// "running" to the clock while actually parked in the OS, so virtual time
/// can never advance to the point where the holder releases. Every lock
/// that can be held across a conduit send/receive must be an `RtLock`.
pub struct RtLock<T> {
    inner: Mutex<T>,
    released: Arc<dyn RtEvent>,
}

impl<T> RtLock<T> {
    /// Wrap `value` with an event from `rt`.
    pub fn new(rt: &dyn Runtime, value: T) -> Self {
        RtLock {
            inner: Mutex::new(value),
            released: rt.event(),
        }
    }

    /// Acquire the lock, blocking through the runtime event while held by
    /// another thread.
    pub fn lock(&self) -> RtLockGuard<'_, T> {
        loop {
            let seen = self.released.epoch();
            if let Some(guard) = self.inner.try_lock() {
                return RtLockGuard {
                    lock: self,
                    guard: std::mem::ManuallyDrop::new(guard),
                };
            }
            self.released.wait_past(seen);
        }
    }

    /// Try to acquire without blocking.
    pub fn try_lock(&self) -> Option<RtLockGuard<'_, T>> {
        self.inner.try_lock().map(|guard| RtLockGuard {
            lock: self,
            guard: std::mem::ManuallyDrop::new(guard),
        })
    }
}

/// RAII guard of an [`RtLock`]; wakes waiters on drop.
pub struct RtLockGuard<'a, T> {
    lock: &'a RtLock<T>,
    guard: std::mem::ManuallyDrop<mad_util::sync::MutexGuard<'a, T>>,
}

impl<T> std::ops::Deref for RtLockGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> std::ops::DerefMut for RtLockGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

impl<T> Drop for RtLockGuard<'_, T> {
    fn drop(&mut self) {
        // The mutex must be released *before* the event is bumped: a waiter
        // woken by the bump retries `try_lock` exactly once before
        // re-arming its wait, so bumping while still holding the mutex
        // would let it re-arm against an epoch that never moves again.
        // SAFETY: `guard` is dropped exactly once, here.
        unsafe { std::mem::ManuallyDrop::drop(&mut self.guard) };
        self.lock.released.bump();
    }
}

/// A multi-producer multi-consumer FIFO whose blocking operations go
/// through an [`RtEvent`], so it works under both runtimes. Used for driver
/// receive queues and the gateway pipeline slots. This type is only a
/// constructor namespace; the live halves are [`RtSender`]/[`RtReceiver`].
///
/// Pushes, pops and the handles' counts change under the queue's lock;
/// the length and the producer count are also kept in a [`Readiness`]
/// written under it, so [`RtReceiver::has_pending`],
/// [`RtReceiver::is_closed`] and [`RtSender::is_empty`] read without it,
/// and a channel's receive scan reads the same counts through
/// [`RtReceiver::readiness`].
pub struct RtQueue<T>(std::marker::PhantomData<T>);

struct RtQueueInner<T> {
    q: Mutex<QueueState<T>>,
    /// The length and the live producers, readable without `q`.
    readiness: Arc<Readiness>,
    /// Bumped on push and on producer disconnect.
    nonempty: Arc<dyn RtEvent>,
    /// Bumped on pop (for bounded-push waiters): never for an unbounded
    /// queue, where no push waits.
    nonfull: Arc<dyn RtEvent>,
    capacity: usize,
}

struct QueueState<T> {
    items: std::collections::VecDeque<T>,
    consumers: usize,
}

/// Producer handle of an [`RtQueue`]. Dropping the last producer wakes
/// blocked consumers with a disconnect.
pub struct RtSender<T> {
    inner: Arc<RtQueueInner<T>>,
}

/// Consumer handle of an [`RtQueue`].
pub struct RtReceiver<T> {
    inner: Arc<RtQueueInner<T>>,
}

impl<T> RtQueue<T> {
    /// Create a queue with the given capacity bound (`usize::MAX` for
    /// unbounded), allocating its events from `rt`.
    pub fn with_capacity(rt: &dyn Runtime, capacity: usize) -> (RtSender<T>, RtReceiver<T>) {
        Self::with_event(rt, capacity, rt.event())
    }

    /// Create a queue whose `nonempty` notifications go to a caller-provided
    /// event, so one event can multiplex several queues.
    pub fn with_event(
        rt: &dyn Runtime,
        capacity: usize,
        nonempty: Arc<dyn RtEvent>,
    ) -> (RtSender<T>, RtReceiver<T>) {
        let inner = Arc::new(RtQueueInner {
            q: Mutex::new(QueueState {
                items: std::collections::VecDeque::new(),
                consumers: 1,
            }),
            readiness: Arc::new(Readiness::new(1)),
            nonempty,
            nonfull: rt.event(),
            capacity,
        });
        (
            RtSender {
                inner: inner.clone(),
            },
            RtReceiver { inner },
        )
    }
}

impl<T> Clone for RtSender<T> {
    fn clone(&self) -> Self {
        let _st = self.inner.q.lock();
        self.inner.readiness.add_producer();
        RtSender {
            inner: self.inner.clone(),
        }
    }
}

impl<T> Drop for RtSender<T> {
    fn drop(&mut self) {
        let remaining = {
            let _st = self.inner.q.lock();
            self.inner.readiness.drop_producer()
        };
        if remaining == 0 {
            self.inner.nonempty.bump();
        }
    }
}

impl<T> RtSender<T> {
    /// Push, blocking while the queue is at capacity. Returns `Err(item)`
    /// if every receiver is gone.
    pub fn push(&self, item: T) -> std::result::Result<(), T> {
        loop {
            let seen = self.inner.nonfull.epoch();
            {
                let mut st = self.inner.q.lock();
                if st.consumers == 0 {
                    return Err(item);
                }
                if st.items.len() < self.inner.capacity {
                    st.items.push_back(item);
                    // Stored before the bump that announces it.
                    self.inner.readiness.set_queued(st.items.len());
                    drop(st);
                    self.inner.nonempty.bump();
                    return Ok(());
                }
            }
            self.inner.nonfull.wait_past(seen);
        }
    }

    /// True if nothing is queued right now. Takes no lock.
    pub fn is_empty(&self) -> bool {
        !self.inner.readiness.ready()
    }

    /// Non-blocking push: `Err(item)` when the queue is at capacity or every
    /// receiver is gone. Lets producers observe backpressure (the gateway
    /// counts these as pipeline stalls) before falling back to a blocking
    /// [`RtSender::push`].
    pub fn try_push(&self, item: T) -> std::result::Result<(), T> {
        let mut st = self.inner.q.lock();
        if st.consumers == 0 || st.items.len() >= self.inner.capacity {
            return Err(item);
        }
        st.items.push_back(item);
        self.inner.readiness.set_queued(st.items.len());
        drop(st);
        self.inner.nonempty.bump();
        Ok(())
    }
}

impl<T> Clone for RtReceiver<T> {
    fn clone(&self) -> Self {
        self.inner.q.lock().consumers += 1;
        RtReceiver {
            inner: self.inner.clone(),
        }
    }
}

impl<T> Drop for RtReceiver<T> {
    fn drop(&mut self) {
        let remaining = {
            let mut st = self.inner.q.lock();
            st.consumers -= 1;
            st.consumers
        };
        if remaining == 0 {
            // Wake producers blocked on a full queue so they observe the
            // disconnect.
            self.inner.nonfull.bump();
        }
    }
}

impl<T> RtReceiver<T> {
    /// Pop, blocking until an item arrives; `None` once all producers are
    /// gone and the queue is drained.
    pub fn pop(&self) -> Option<T> {
        while self.wait_pending() {
            if let Some(v) = self.try_pop() {
                return Some(v);
            }
        }
        None
    }

    /// Block until an item is queued, without taking it; `false` once all
    /// producers are gone and the queue is drained. For a consumer that
    /// must take its own lock before it pops.
    pub fn wait_pending(&self) -> bool {
        loop {
            let seen = self.inner.nonempty.epoch();
            if self.has_pending() {
                return true;
            }
            if self.is_closed() {
                return false;
            }
            self.inner.nonempty.wait_past(seen);
        }
    }

    /// Non-blocking pop.
    pub fn try_pop(&self) -> Option<T> {
        let mut st = self.inner.q.lock();
        let v = st.items.pop_front();
        if v.is_some() {
            self.inner.readiness.set_queued(st.items.len());
            drop(st);
            if self.inner.capacity != usize::MAX {
                self.inner.nonfull.bump();
            }
        }
        v
    }

    /// True if an item is queued right now. Takes no lock.
    pub fn has_pending(&self) -> bool {
        self.inner.readiness.ready()
    }

    /// True once every producer is gone and the queue is drained: nothing
    /// will ever arrive again. Takes no lock.
    pub fn is_closed(&self) -> bool {
        self.inner.readiness.closed()
    }

    /// The queue's counts, for a reader that holds no handle: a channel
    /// asks it whether this queue's conduit is ready or closed
    /// ([`crate::conduit::Conduit::readiness`]).
    pub fn readiness(&self) -> Arc<Readiness> {
        self.inner.readiness.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn std_event_wait_and_bump() {
        let rt = StdRuntime::default();
        let ev = rt.event();
        assert_eq!(ev.epoch(), 0);
        let ev2 = ev.clone();
        let h = std::thread::spawn(move || ev2.wait_past(0));
        std::thread::sleep(std::time::Duration::from_millis(10));
        ev.bump();
        assert_eq!(h.join().unwrap(), 1);
    }

    #[test]
    fn std_event_wait_timeout_expires_and_wakes() {
        let rt = StdRuntime::default();
        let ev = rt.event();
        // Nothing bumps: the wait must time out, not hang.
        assert_eq!(ev.wait_past_timeout(0, 5_000_000), None);
        // A bump within the window is observed.
        let ev2 = ev.clone();
        let h = std::thread::spawn(move || ev2.wait_past_timeout(0, 5_000_000_000));
        std::thread::sleep(std::time::Duration::from_millis(10));
        ev.bump();
        assert_eq!(h.join().unwrap(), Some(1));
    }

    #[test]
    fn rt_queue_fifo_and_disconnect() {
        let rt = StdRuntime::default();
        let (tx, rx) = RtQueue::with_capacity(&rt, usize::MAX);
        tx.push(1).unwrap();
        tx.push(2).unwrap();
        assert_eq!(rx.pop(), Some(1));
        assert_eq!(rx.pop(), Some(2));
        drop(tx);
        assert_eq!(rx.pop(), None);
    }

    #[test]
    fn rt_queue_bounded_blocks_producer() {
        let rt = StdRuntime::default();
        let (tx, rx) = RtQueue::<u32>::with_capacity(&rt, 1);
        tx.push(1).unwrap();
        let t0 = Instant::now();
        let h = std::thread::spawn(move || {
            tx.push(2).unwrap(); // blocks until the consumer pops
        });
        std::thread::sleep(std::time::Duration::from_millis(30));
        assert_eq!(rx.pop(), Some(1));
        h.join().unwrap();
        assert!(t0.elapsed() >= std::time::Duration::from_millis(25));
        assert_eq!(rx.pop(), Some(2));
    }

    #[test]
    fn rt_queue_push_fails_without_receiver() {
        let rt = StdRuntime::default();
        let (tx, rx) = RtQueue::with_capacity(&rt, usize::MAX);
        drop(rx);
        assert_eq!(tx.push(7), Err(7));
    }

    #[test]
    fn rt_lock_mutual_exclusion_and_wakeup() {
        let rt = StdRuntime::default();
        let lock = Arc::new(RtLock::new(&rt, 0u32));
        let l2 = lock.clone();
        let g = lock.lock();
        let h = std::thread::spawn(move || {
            let mut g = l2.lock(); // blocks until main releases
            *g += 1;
            *g
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        drop(g);
        assert_eq!(h.join().unwrap(), 1);
        assert_eq!(*lock.lock(), 1);
    }

    #[test]
    fn rt_lock_try_lock() {
        let rt = StdRuntime::default();
        let lock = RtLock::new(&rt, ());
        let g = lock.try_lock().expect("uncontended");
        assert!(lock.try_lock().is_none(), "held");
        drop(g);
        assert!(lock.try_lock().is_some());
    }

    #[test]
    fn rt_lock_handoff_storm() {
        // Regression test for the lost-wakeup bug: the guard must release
        // the mutex *before* bumping. Many rapid handoffs between threads
        // would hang within a few iterations if the order regressed.
        let rt = StdRuntime::default();
        let lock = Arc::new(RtLock::new(&rt, 0u64));
        let mut handles = vec![];
        for _ in 0..4 {
            let lock = lock.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..2_000 {
                    *lock.lock() += 1;
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*lock.lock(), 8_000);
    }

    /// How long a reader may sleep before the readiness tests call it
    /// stranded: far past any wake-up, short of a hung suite.
    const STRANDED: u64 = 5_000_000_000;

    /// The next item of `rx`, whose pushes bump `ev`, read the way a
    /// channel's scan reads: readiness first, no lock, then a pop; `None`
    /// once the queue is closed. A wait that runs out is a reader asleep
    /// while its peer waits for it: a lost wake-up.
    fn take_reading<T>(rx: &RtReceiver<T>, ev: &dyn RtEvent) -> Option<T> {
        let readiness = rx.readiness();
        loop {
            let seen = ev.epoch();
            if readiness.ready() {
                return Some(rx.try_pop().expect("a ready queue pops for its one reader"));
            }
            if readiness.closed() {
                return None;
            }
            let woke = ev.wait_past_timeout(seen, STRANDED);
            assert!(woke.is_some(), "stranded in a ping-pong: a lost wake-up");
        }
    }

    /// Ping-pong between two lock-free readers: one side pushes an item
    /// and waits for its answer before the next, so no later push can
    /// rescue a reader that slept past the one queued. A lost wake-up —
    /// a length stored after the bump, or read before the epoch — leaves
    /// both sides waiting, and the test fails at the deadline instead of
    /// hanging.
    #[test]
    fn readiness_ping_pong_loses_no_wake_up() {
        const ROUNDS: u32 = 20_000;
        let rt = StdRuntime::default();
        let (ev, back_ev) = (rt.event(), rt.event());
        let (tx, rx) = RtQueue::<u32>::with_event(&rt, usize::MAX, ev.clone());
        let (back_tx, back_rx) = RtQueue::<u32>::with_event(&rt, usize::MAX, back_ev.clone());
        let echo = std::thread::spawn(move || {
            while let Some(v) = take_reading(&rx, &*ev) {
                back_tx.push(v).unwrap();
            }
        });
        for k in 0..ROUNDS {
            tx.push(k).unwrap();
            assert_eq!(take_reading(&back_rx, &*back_ev), Some(k), "round {k}");
        }
        drop(tx);
        echo.join().unwrap();
    }

    /// A scan over several queues that share one event, as a channel's
    /// conduits do, racing a burst of pushes on each: every item is seen,
    /// and the scanner never sleeps while one is queued.
    #[test]
    fn readiness_scan_never_sleeps_past_a_queued_item() {
        const QUEUES: usize = 3;
        const ITEMS: usize = 20_000;
        let rt = StdRuntime::default();
        let ev = rt.event();
        let (txs, rxs): (Vec<_>, Vec<_>) = (0..QUEUES)
            .map(|_| RtQueue::<usize>::with_event(&rt, usize::MAX, ev.clone()))
            .unzip();
        let producers: Vec<_> = txs
            .into_iter()
            .map(|tx| {
                std::thread::spawn(move || {
                    for i in 0..ITEMS {
                        tx.push(i).unwrap();
                        if i % 64 == 0 {
                            std::thread::yield_now();
                        }
                    }
                })
            })
            .collect();
        let readiness: Vec<_> = rxs.iter().map(|rx| rx.readiness()).collect();
        let mut next = [0usize; QUEUES];
        loop {
            let seen = ev.epoch();
            let mut any = false;
            for (q, r) in readiness.iter().enumerate() {
                if r.ready() {
                    assert_eq!(rxs[q].try_pop(), Some(next[q]), "queue {q} in order");
                    next[q] += 1;
                    any = true;
                }
            }
            if any {
                continue;
            }
            if readiness.iter().all(|r| r.closed()) {
                break;
            }
            let woke = ev.wait_past_timeout(seen, STRANDED);
            assert!(
                woke.is_some() || !readiness.iter().any(|r| r.ready()),
                "asleep past a queued item: a lost wake-up"
            );
        }
        assert_eq!(next, [ITEMS; QUEUES]);
        for p in producers {
            p.join().unwrap();
        }
    }

    /// `is_closed` reads true only once the last producer has dropped and
    /// the last item is popped, read without the lock while producers push
    /// and leave. It loads the producer count before the length: the
    /// other order can read an empty queue, then a count of zero written
    /// after one more push, and call a queue with an item in it closed —
    /// a window two loads wide, which this loop only hits now and then. A
    /// length that goes stale (stored outside the lock, where a pop can
    /// overtake it) never reads closed, and fails at the deadline.
    #[test]
    fn readiness_closed_only_after_the_last_drop_and_the_last_pop() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        const PRODUCERS: usize = 2;
        const ITEMS: usize = 3;
        let rt = StdRuntime::default();
        for round in 0..2_000 {
            let (tx, rx) = RtQueue::<usize>::with_capacity(&rt, usize::MAX);
            let leaving = Arc::new(AtomicUsize::new(0));
            let producers: Vec<_> = (0..PRODUCERS)
                .map(|_| {
                    let (tx, leaving) = (tx.clone(), leaving.clone());
                    std::thread::spawn(move || {
                        for i in 0..ITEMS {
                            tx.push(i).unwrap();
                        }
                        leaving.fetch_add(1, Ordering::Relaxed);
                    })
                })
                .collect();
            drop(tx);
            let mut popped = 0;
            let began = Instant::now();
            loop {
                assert!(
                    began.elapsed().as_nanos() < STRANDED as u128,
                    "round {round}: never read closed ({popped} popped)"
                );
                let closed = rx.is_closed();
                if closed {
                    assert_eq!(
                        leaving.load(Ordering::Relaxed),
                        PRODUCERS,
                        "round {round}: closed before every producer left"
                    );
                    assert_eq!(
                        popped,
                        PRODUCERS * ITEMS,
                        "round {round}: closed with an item queued"
                    );
                    assert!(rx.try_pop().is_none());
                    break;
                }
                if rx.try_pop().is_some() {
                    popped += 1;
                }
            }
            for p in producers {
                p.join().unwrap();
            }
        }
    }

    #[test]
    fn rt_queue_unbounded_pop_bumps_no_nonfull() {
        let rt = StdRuntime::default();
        let (tx, rx) = RtQueue::with_capacity(&rt, usize::MAX);
        tx.push(1).unwrap();
        assert_eq!(rx.try_pop(), Some(1));
        assert_eq!(rx.inner.nonfull.epoch(), 0, "nobody can wait for room");
        let (tx, rx) = RtQueue::with_capacity(&rt, 1);
        tx.push(1).unwrap();
        assert_eq!(rx.try_pop(), Some(1));
        assert_eq!(rx.inner.nonfull.epoch(), 1, "a bounded pop makes room");
    }

    #[test]
    fn std_runtime_clock_is_monotonic() {
        let rt = StdRuntime::default();
        let a = rt.now_nanos();
        let b = rt.now_nanos();
        assert!(b >= a);
    }
}
