//! A std-only readiness reactor: poll-driven tasks on a fixed worker pool.
//!
//! Thread-per-link engines burn two OS threads per gateway direction plus
//! one per TCP conduit, which caps how many channels and tenants one node
//! can host. This module provides the alternative core: tasks implement
//! [`PollTask`] (a non-blocking state-machine step), a [`Reactor`] keeps a
//! ready queue and a timer wheel, and a *small, fixed* set of worker
//! threads drains them. Blocking waits become timers plus re-polls.
//!
//! ## Parking, and why there are no per-event wakers
//!
//! The reactor is built over the workspace's one blocking primitive: an
//! epoch counter threads can block on (`RtEvent` in `madeleine`,
//! `vtime::Signal` under the simulator). The [`Park`] trait maps onto it
//! 1:1 — `prepare` reads the epoch, `park` blocks until it moves, `unpark`
//! bumps it. One park instance backs one reactor.
//!
//! An epoch counter cannot say *which* task's input arrived, so the
//! reactor uses **stir semantics**: whenever the park epoch moves, every
//! idle task is marked ready and re-polled. A well-formed task's poll is
//! cheap when nothing is pending (a few non-blocking readiness checks), so
//! a stir costs microseconds — and in exchange the reactor needs no waker
//! plumbing through channels, ledgers, and conduits, all of which already
//! bump their node's event on activity. [`Waker`]s still exist for
//! targeted wake-ups (tests, external drivers), they are just not
//! required for correctness.
//!
//! ## Virtual time
//!
//! Nothing here names `Instant` or `std::thread`: time comes from
//! [`Park::now_ns`] and blocking from [`Park::park_timeout`], so a park
//! implementation backed by a virtual clock (the simulator's signal +
//! virtual deadline waits) makes the whole reactor virtual-time aware.
//! Workers must then run as clock actors; the reactor itself never spawns
//! threads — callers loop [`Reactor::run_worker`] on threads they own.
//!
//! ## Lifecycle
//!
//! Tasks finish by returning [`Poll::Ready`] (the reactor drops them, so
//! RAII guards inside the task run) or by panicking (the panic payload is
//! captured for [`Reactor::take_panic`]; the task is dropped the same
//! way). Workers run until [`Reactor::shutdown`], not until the task list
//! is empty — a reactor is a long-lived service that outlives any one
//! task. [`Reactor::drain_tasks`] drops whatever is still alive at
//! shutdown so their guards run too.

use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use crate::sync::{Epoch, Mutex};

/// Result of one task poll.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Poll {
    /// The task is finished; the reactor drops it.
    Ready,
    /// The task is waiting for input (a stir, a wake, or a timer).
    Pending,
}

/// Per-poll context: the current time plus the task's wake-up requests.
#[derive(Debug)]
pub struct Context {
    now_ns: u64,
    wake_at: Option<u64>,
    yielded: bool,
}

impl Context {
    fn new(now_ns: u64) -> Self {
        Context {
            now_ns,
            wake_at: None,
            yielded: false,
        }
    }

    /// The reactor's clock at poll time (from [`Park::now_ns`]).
    pub fn now_ns(&self) -> u64 {
        self.now_ns
    }

    /// Ask to be re-polled at `deadline_ns` (absolute, same clock as
    /// [`Context::now_ns`]) even if no event arrives before then — the
    /// reactor analog of a deadline-bounded blocking wait. The earliest
    /// of several requests in one poll wins. A stir or wake before the
    /// deadline re-polls sooner and cancels the timer.
    pub fn wake_at(&mut self, deadline_ns: u64) {
        self.wake_at = Some(match self.wake_at {
            Some(d) => d.min(deadline_ns),
            None => deadline_ns,
        });
    }

    /// Ask to be re-polled immediately after other ready tasks run — the
    /// fairness yield of a task with more input than one poll budget.
    pub fn yield_now(&mut self) {
        self.yielded = true;
    }
}

/// A non-blocking state-machine step. `poll` must never block: it makes
/// whatever progress non-blocking operations allow, records timers on the
/// context, and returns. It is called from reactor workers (one at a time
/// per task, but possibly a different worker each time).
pub trait PollTask: Send {
    /// Advance the task. See the trait docs for the contract.
    fn poll(&mut self, cx: &mut Context) -> Poll;
}

/// The blocking substrate of one reactor: an epoch counter with a clock.
/// `prepare` must be called *before* inspecting shared state and the token
/// passed to `park`, so a bump between the check and the park wakes it
/// immediately (the classic lost-wake-up protocol).
pub trait Park: Send + Sync {
    /// Monotonic nanoseconds; timers live on this clock.
    fn now_ns(&self) -> u64;
    /// Read the current epoch (the park token).
    fn prepare(&self) -> u64;
    /// Block until the epoch exceeds `token`.
    fn park(&self, token: u64);
    /// Block until the epoch exceeds `token` or `timeout_ns` elapses.
    fn park_timeout(&self, token: u64, timeout_ns: u64);
    /// Bump the epoch, waking all parked workers.
    fn unpark(&self);
}

/// A [`Park`] over [`Epoch`] and `Instant` — the real-time substrate, and
/// the one the reactor's own tests use.
pub struct StdPark {
    epoch: Epoch,
    start: Instant,
}

impl Default for StdPark {
    fn default() -> Self {
        StdPark {
            epoch: Epoch::default(),
            start: Instant::now(),
        }
    }
}

impl StdPark {
    /// A fresh park with its own clock epoch.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Park for StdPark {
    fn now_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    fn prepare(&self) -> u64 {
        self.epoch.epoch()
    }

    fn park(&self, token: u64) {
        self.epoch.wait_past(token);
    }

    fn park_timeout(&self, token: u64, timeout_ns: u64) {
        let _ = self
            .epoch
            .wait_past_timeout(token, Duration::from_nanos(timeout_ns));
    }

    fn unpark(&self) {
        self.epoch.bump();
    }
}

/// Identifier of a spawned task (its slot index plus a generation, so a
/// stale waker cannot poke a recycled slot).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskId {
    slot: usize,
    generation: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotState {
    /// Waiting for a stir, wake, or timer.
    Idle,
    /// Queued in the ready list.
    Queued,
    /// A worker holds the task and is polling it. `rearm` records a wake
    /// that arrived mid-poll, so the poll result re-queues instead of
    /// idling (the wake would otherwise be lost).
    Running { rearm: bool },
    /// Empty slot, reusable.
    Vacant,
}

struct Slot {
    task: Option<Box<dyn PollTask>>,
    state: SlotState,
    generation: u64,
    /// Key of this task's entry in the timer wheel, if armed.
    timer: Option<(u64, u64)>,
}

struct Sched {
    slots: Vec<Slot>,
    ready: VecDeque<usize>,
    /// Timer wheel: (absolute deadline ns, tiebreak seq) → slot. A
    /// `BTreeMap` keeps the earliest deadline first.
    timers: BTreeMap<(u64, u64), usize>,
    timer_seq: u64,
    live: usize,
    spawned_total: u64,
    shutdown: bool,
    /// Last park epoch a worker has already stirred for; a newer epoch
    /// means external activity since, so idle tasks get re-polled.
    stirred_epoch: Option<u64>,
    panic: Option<Box<dyn std::any::Any + Send>>,
}

impl Sched {
    /// Move every idle task to the ready queue (see module docs on stir
    /// semantics). Tasks mid-poll get their rearm flag instead.
    fn stir(&mut self) {
        for idx in 0..self.slots.len() {
            match self.slots[idx].state {
                SlotState::Idle => {
                    self.make_ready(idx);
                }
                SlotState::Running { .. } => {
                    self.slots[idx].state = SlotState::Running { rearm: true };
                }
                SlotState::Queued | SlotState::Vacant => {}
            }
        }
    }

    fn make_ready(&mut self, idx: usize) {
        if let Some(key) = self.slots[idx].timer.take() {
            self.timers.remove(&key);
        }
        self.slots[idx].state = SlotState::Queued;
        self.ready.push_back(idx);
    }

    /// Fire every timer at or before `now`.
    fn expire_timers(&mut self, now: u64) {
        while let Some((&key, &idx)) = self.timers.iter().next() {
            if key.0 > now {
                break;
            }
            self.timers.remove(&key);
            self.slots[idx].timer = None;
            match self.slots[idx].state {
                SlotState::Idle => {
                    self.slots[idx].state = SlotState::Queued;
                    self.ready.push_back(idx);
                }
                SlotState::Running { .. } => {
                    self.slots[idx].state = SlotState::Running { rearm: true };
                }
                SlotState::Queued | SlotState::Vacant => {}
            }
        }
    }

    fn next_deadline(&self) -> Option<u64> {
        self.timers.keys().next().map(|&(d, _)| d)
    }
}

/// A readiness reactor over one [`Park`]. See the module docs.
pub struct Reactor {
    park: Arc<dyn Park>,
    state: Mutex<Sched>,
    /// Optional poll-duration sink: when set, every task poll records
    /// its wall (or virtual) duration. A `OnceLock` keeps the disabled
    /// path at one relaxed load, with no lock and no clock reads.
    poll_hist: std::sync::OnceLock<Arc<crate::hist::AtomicHistogram>>,
}

impl Reactor {
    /// A reactor parked on `park`.
    pub fn new(park: Arc<dyn Park>) -> Arc<Self> {
        Arc::new(Reactor {
            park,
            poll_hist: std::sync::OnceLock::new(),
            state: Mutex::new(Sched {
                slots: Vec::new(),
                ready: VecDeque::new(),
                timers: BTreeMap::new(),
                timer_seq: 0,
                live: 0,
                spawned_total: 0,
                shutdown: false,
                stirred_epoch: None,
                panic: None,
            }),
        })
    }

    /// The reactor's park (for callers that want to feed its clock or
    /// poke it from outside).
    pub fn park(&self) -> &Arc<dyn Park> {
        &self.park
    }

    /// Add a task; it is queued for an immediate first poll.
    pub fn spawn(&self, task: Box<dyn PollTask>) -> TaskId {
        let id = {
            let mut st = self.state.lock();
            assert!(!st.shutdown, "spawning on a shut-down reactor");
            st.live += 1;
            st.spawned_total += 1;
            let slot = st
                .slots
                .iter()
                .position(|s| matches!(s.state, SlotState::Vacant));
            let idx = match slot {
                Some(idx) => {
                    st.slots[idx].task = Some(task);
                    st.slots[idx].generation += 1;
                    idx
                }
                None => {
                    st.slots.push(Slot {
                        task: Some(task),
                        state: SlotState::Vacant,
                        generation: 0,
                        timer: None,
                    });
                    st.slots.len() - 1
                }
            };
            st.make_ready(idx);
            TaskId {
                slot: idx,
                generation: st.slots[idx].generation,
            }
        };
        self.park.unpark();
        id
    }

    /// A handle that re-polls one task on demand.
    pub fn waker(self: &Arc<Self>, id: TaskId) -> Waker {
        Waker {
            reactor: Arc::downgrade(self),
            id,
        }
    }

    /// Mark every idle task ready and wake the workers — the external
    /// "something happened" signal for event sources that cannot name a
    /// task.
    pub fn stir(&self) {
        self.state.lock().stir();
        self.park.unpark();
    }

    /// Tasks alive right now (spawned, not yet finished).
    pub fn live_tasks(&self) -> usize {
        self.state.lock().live
    }

    /// Tasks ever spawned on this reactor.
    pub fn spawned_total(&self) -> u64 {
        self.state.lock().spawned_total
    }

    /// Ask every worker to return from [`Reactor::run_worker`].
    pub fn shutdown(&self) {
        self.state.lock().shutdown = true;
        self.park.unpark();
    }

    /// Drop every remaining task (running their destructors); used after
    /// shutdown so RAII guards inside abandoned tasks still run. Returns
    /// how many were dropped.
    pub fn drain_tasks(&self) -> usize {
        let taken: Vec<Box<dyn PollTask>> = {
            let mut st = self.state.lock();
            let mut out = Vec::new();
            for idx in 0..st.slots.len() {
                if let Some(task) = st.slots[idx].task.take() {
                    if let Some(key) = st.slots[idx].timer.take() {
                        st.timers.remove(&key);
                    }
                    st.slots[idx].state = SlotState::Vacant;
                    st.live -= 1;
                    out.push(task);
                }
            }
            st.ready.clear();
            out
        };
        let n = taken.len();
        drop(taken); // destructors run outside the scheduler lock
        n
    }

    /// The first panic payload captured from a task poll, if any.
    pub fn take_panic(&self) -> Option<Box<dyn std::any::Any + Send>> {
        self.state.lock().panic.take()
    }

    /// Record every future task-poll duration (in this park's clock
    /// domain, nanoseconds) into `hist`. First caller wins; later calls
    /// are ignored — the hook is set once at wiring time, before
    /// workers observe meaningful load.
    pub fn set_poll_histogram(&self, hist: Arc<crate::hist::AtomicHistogram>) {
        let _ = self.poll_hist.set(hist);
    }

    fn wake_slot(&self, id: TaskId) {
        {
            let mut st = self.state.lock();
            let Some(slot) = st.slots.get(id.slot) else {
                return;
            };
            if slot.generation != id.generation {
                return; // stale waker for a recycled slot
            }
            match slot.state {
                SlotState::Idle => st.make_ready(id.slot),
                SlotState::Running { .. } => {
                    st.slots[id.slot].state = SlotState::Running { rearm: true };
                }
                SlotState::Queued | SlotState::Vacant => {}
            }
        }
        self.park.unpark();
    }

    /// Drive the reactor until [`Reactor::shutdown`]. Call from one or
    /// more dedicated threads (clock actors, under a virtual-time park).
    pub fn run_worker(&self) {
        loop {
            // The token is read before the state check: an unpark between
            // the check and the park moves the epoch past the token, so
            // the park returns immediately instead of losing the wake.
            let token = self.park.prepare();
            let now = self.park.now_ns();
            let grabbed = {
                let mut st = self.state.lock();
                if st.shutdown {
                    return;
                }
                if st.stirred_epoch != Some(token) {
                    st.stirred_epoch = Some(token);
                    st.stir();
                }
                st.expire_timers(now);
                loop {
                    match st.ready.pop_front() {
                        Some(idx) => {
                            if !matches!(st.slots[idx].state, SlotState::Queued) {
                                continue; // drained or vacated since queueing
                            }
                            match st.slots[idx].task.take() {
                                Some(task) => {
                                    st.slots[idx].state = SlotState::Running { rearm: false };
                                    break Some((idx, task));
                                }
                                None => continue,
                            }
                        }
                        None => break None,
                    }
                }
            };
            let Some((idx, mut task)) = grabbed else {
                let deadline = self.state.lock().next_deadline();
                match deadline {
                    None => self.park.park(token),
                    Some(d) => {
                        let now = self.park.now_ns();
                        if d > now {
                            self.park.park_timeout(token, d - now);
                        }
                        // A due deadline skips the park: next turn fires it.
                    }
                }
                continue;
            };
            let mut cx = Context::new(now);
            let hist = self.poll_hist.get();
            let poll_start = hist.map(|_| self.park.now_ns());
            let polled =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| task.poll(&mut cx)));
            if let (Some(hist), Some(start)) = (hist, poll_start) {
                hist.record(self.park.now_ns().saturating_sub(start));
            }
            match polled {
                Ok(Poll::Pending) => {
                    let mut st = self.state.lock();
                    st.slots[idx].task = Some(task);
                    let rearmed = matches!(st.slots[idx].state, SlotState::Running { rearm: true });
                    if rearmed || cx.yielded {
                        st.make_ready(idx);
                    } else {
                        st.slots[idx].state = SlotState::Idle;
                        if let Some(deadline) = cx.wake_at {
                            let seq = st.timer_seq;
                            st.timer_seq += 1;
                            st.slots[idx].timer = Some((deadline, seq));
                            st.timers.insert((deadline, seq), idx);
                        }
                    }
                }
                Ok(Poll::Ready) | Err(_) => {
                    {
                        let mut st = self.state.lock();
                        st.slots[idx].state = SlotState::Vacant;
                        st.live -= 1;
                        if let Err(payload) = polled {
                            st.panic.get_or_insert(payload);
                        }
                    }
                    drop(task); // destructors run outside the scheduler lock
                                // A finished task can be what another task (or an
                                // external joiner) waits on: make the change visible.
                    self.park.unpark();
                }
            }
        }
    }
}

/// A targeted wake-up handle for one task. Cheap to clone; stale wakers
/// (task finished, slot recycled) are silently inert.
#[derive(Clone)]
pub struct Waker {
    reactor: Weak<Reactor>,
    id: TaskId,
}

impl Waker {
    /// Re-poll the task (immediately if idle; once more if mid-poll).
    pub fn wake(&self) {
        if let Some(r) = self.reactor.upgrade() {
            r.wake_slot(self.id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn reactor() -> Arc<Reactor> {
        Reactor::new(Arc::new(StdPark::new()))
    }

    fn with_worker<T>(r: &Arc<Reactor>, body: impl FnOnce() -> T) -> T {
        let rc = r.clone();
        let worker = std::thread::spawn(move || rc.run_worker());
        let out = body();
        r.shutdown();
        worker.join().unwrap();
        out
    }

    struct CountDown {
        left: usize,
        polls: Arc<AtomicUsize>,
    }

    impl PollTask for CountDown {
        fn poll(&mut self, _cx: &mut Context) -> Poll {
            self.polls.fetch_add(1, Ordering::SeqCst);
            if self.left == 0 {
                return Poll::Ready;
            }
            self.left -= 1;
            Poll::Pending
        }
    }

    #[test]
    fn stir_polls_idle_tasks_to_completion() {
        let r = reactor();
        let polls = Arc::new(AtomicUsize::new(0));
        r.spawn(Box::new(CountDown {
            left: 3,
            polls: polls.clone(),
        }));
        with_worker(&r, || {
            let mut spins = 0;
            while r.live_tasks() > 0 {
                r.stir();
                std::thread::sleep(Duration::from_millis(1));
                spins += 1;
                assert!(spins < 1000, "task never finished");
            }
        });
        assert_eq!(polls.load(Ordering::SeqCst), 4);
        assert_eq!(r.spawned_total(), 1);
    }

    struct TimerTask {
        armed: Option<u64>,
        fired_at: Arc<Mutex<Option<u64>>>,
        delay_ns: u64,
    }

    impl PollTask for TimerTask {
        fn poll(&mut self, cx: &mut Context) -> Poll {
            match self.armed {
                None => {
                    self.armed = Some(cx.now_ns());
                    cx.wake_at(cx.now_ns() + self.delay_ns);
                    Poll::Pending
                }
                Some(at) => {
                    if cx.now_ns() < at + self.delay_ns {
                        // Stirred early: re-arm and keep waiting.
                        cx.wake_at(at + self.delay_ns);
                        return Poll::Pending;
                    }
                    *self.fired_at.lock() = Some(cx.now_ns() - at);
                    Poll::Ready
                }
            }
        }
    }

    #[test]
    fn timer_fires_without_external_wakes() {
        let r = reactor();
        let fired = Arc::new(Mutex::new(None));
        r.spawn(Box::new(TimerTask {
            armed: None,
            fired_at: fired.clone(),
            delay_ns: 20_000_000,
        }));
        with_worker(&r, || {
            let t0 = Instant::now();
            while r.live_tasks() > 0 {
                std::thread::sleep(Duration::from_millis(1));
                assert!(t0.elapsed() < Duration::from_secs(5), "timer never fired");
            }
        });
        let elapsed = fired.lock().expect("timer fired");
        assert!(elapsed >= 20_000_000, "fired after {elapsed}ns, too early");
    }

    #[test]
    fn waker_targets_one_task() {
        let r = reactor();
        let polls = Arc::new(AtomicUsize::new(0));
        let id = r.spawn(Box::new(CountDown {
            left: 1,
            polls: polls.clone(),
        }));
        let waker = r.waker(id);
        with_worker(&r, || {
            // First poll happens on spawn; the wake finishes it.
            let t0 = Instant::now();
            while polls.load(Ordering::SeqCst) < 1 {
                std::thread::sleep(Duration::from_millis(1));
                assert!(t0.elapsed() < Duration::from_secs(5));
            }
            waker.wake();
            while r.live_tasks() > 0 {
                std::thread::sleep(Duration::from_millis(1));
                assert!(t0.elapsed() < Duration::from_secs(5));
            }
        });
        assert_eq!(polls.load(Ordering::SeqCst), 2);
        waker.wake(); // stale: must be inert
    }

    struct Panicker;

    impl PollTask for Panicker {
        fn poll(&mut self, _cx: &mut Context) -> Poll {
            panic!("task exploded");
        }
    }

    #[test]
    fn panic_is_captured_and_task_dropped() {
        let r = reactor();
        r.spawn(Box::new(Panicker));
        with_worker(&r, || {
            let t0 = Instant::now();
            while r.live_tasks() > 0 {
                std::thread::sleep(Duration::from_millis(1));
                assert!(t0.elapsed() < Duration::from_secs(5));
            }
        });
        let payload = r.take_panic().expect("panic captured");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or("");
        assert_eq!(msg, "task exploded");
    }

    struct NeverDone;

    impl PollTask for NeverDone {
        fn poll(&mut self, _cx: &mut Context) -> Poll {
            Poll::Pending
        }
    }

    #[test]
    fn drain_drops_remaining_tasks() {
        let r = reactor();
        r.spawn(Box::new(NeverDone));
        r.spawn(Box::new(NeverDone));
        with_worker(&r, || {
            std::thread::sleep(Duration::from_millis(5));
        });
        assert_eq!(r.live_tasks(), 2);
        assert_eq!(r.drain_tasks(), 2);
        assert_eq!(r.live_tasks(), 0);
    }

    #[test]
    fn many_tasks_many_workers() {
        let r = reactor();
        let polls = Arc::new(AtomicUsize::new(0));
        for left in 0..40 {
            r.spawn(Box::new(CountDown {
                left: left % 5,
                polls: polls.clone(),
            }));
        }
        let workers: Vec<_> = (0..4)
            .map(|_| {
                let rc = r.clone();
                std::thread::spawn(move || rc.run_worker())
            })
            .collect();
        let t0 = Instant::now();
        while r.live_tasks() > 0 {
            r.stir();
            std::thread::sleep(Duration::from_millis(1));
            assert!(t0.elapsed() < Duration::from_secs(10), "tasks stuck");
        }
        r.shutdown();
        for w in workers {
            w.join().unwrap();
        }
        assert_eq!(r.spawned_total(), 40);
    }
}
