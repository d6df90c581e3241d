//! The virtual clock: a single monitor shared by all simulated threads.
//!
//! All bookkeeping lives behind one `Mutex<Core>` + `Condvar` pair. Each
//! participating OS thread registers an [`Actor`]; the clock tracks, per
//! actor, whether it is running or waiting (with an optional deadline and an
//! optional [`Signal`] subscription). Virtual time advances exclusively in
//! [`Core::maybe_advance`], which fires only when the count of runnable
//! actors reaches zero — the conservative condition that makes the timeline
//! deterministic regardless of host scheduling.

use std::fmt;
use std::sync::Arc;

use mad_util::sync::{Condvar, Mutex};

/// Wall-clock patience before declaring a virtual-time deadlock. Generous
/// enough for threads mid-teardown to release their resources, short enough
/// for tests to fail promptly.
const DEADLOCK_GRACE: std::time::Duration = std::time::Duration::from_millis(400);

/// A point on the virtual timeline, in nanoseconds since simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    /// The origin of the simulated timeline.
    pub const ZERO: SimTime = SimTime(0);

    /// Nanoseconds since simulation start.
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since simulation start, as a float (for bandwidth math).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The instant `d` after `self`, saturating at the end of time.
    pub fn after(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }

    /// Elapsed duration since `earlier`; zero if `earlier` is in the future.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.0 as f64 / 1e3)
    }
}

/// A span of virtual time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(pub u64);

impl SimDuration {
    /// A zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Build from nanoseconds.
    pub fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Build from microseconds.
    pub fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Build from milliseconds.
    pub fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Build from fractional seconds, rounding to the nearest nanosecond.
    /// Negative and non-finite inputs clamp to zero.
    pub fn from_secs_f64(s: f64) -> Self {
        if !s.is_finite() || s <= 0.0 {
            return SimDuration(0);
        }
        SimDuration((s * 1e9).round() as u64)
    }

    /// Nanoseconds in this duration.
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// Fractional seconds in this duration.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating addition.
    pub fn saturating_add(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(other.0))
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.0 as f64 / 1e3)
    }
}

/// Result of a deadline-bounded wait ([`Actor::wait_signal_until`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitOutcome {
    /// The signal was bumped before the deadline; carries the new epoch.
    Signaled(u64),
    /// The virtual clock reached the deadline first.
    DeadlineReached,
}

#[derive(Debug, Clone)]
enum ActorState {
    Running,
    /// Waiting, runnable again when `wake_at` is reached (if set) or when
    /// signal `signal`'s epoch exceeds the recorded value (if set).
    Waiting {
        wake_at: Option<u64>,
        signal: Option<(usize, u64)>,
    },
}

#[derive(Debug)]
struct ActorRec {
    name: String,
    state: ActorState,
}

#[derive(Debug, Default)]
struct Core {
    now: u64,
    /// Slab of actors; `None` marks deregistered slots.
    actors: Vec<Option<ActorRec>>,
    runnable: usize,
    /// Epoch per signal; signals are never deallocated (they are cheap).
    signal_epochs: Vec<u64>,
    /// Optional creator-supplied labels, for deadlock diagnostics.
    signal_names: Vec<String>,
    /// Generation counter bumped on every wake-up decision, used by waiting
    /// threads to detect that *their* state was re-examined.
    generation: u64,
}

impl Core {
    fn live_actor_count(&self) -> usize {
        self.actors.iter().flatten().count()
    }

    /// Advance virtual time if no actor is runnable. Panics on deadlock.
    fn maybe_advance(&mut self) -> bool {
        if self.runnable > 0 || self.live_actor_count() == 0 {
            return false;
        }
        let mut min_wake: Option<u64> = None;
        for rec in self.actors.iter().flatten() {
            if let ActorState::Waiting {
                wake_at: Some(t), ..
            } = rec.state
            {
                min_wake = Some(min_wake.map_or(t, |m: u64| m.min(t)));
            }
        }
        // No pending deadline: the simulation is stuck *unless* an external
        // thread (one finishing its teardown, or a non-actor coordinator) is
        // about to bump a signal. Waiting threads detect true deadlocks via
        // a real-time grace period (see `Actor::wait_woken`).
        let target = match min_wake {
            Some(t) => t,
            None => return false,
        };
        debug_assert!(target >= self.now, "virtual time must be monotonic");
        self.now = self.now.max(target);
        let now = self.now;
        for rec in self.actors.iter_mut().flatten() {
            if let ActorState::Waiting {
                wake_at: Some(t), ..
            } = rec.state
            {
                if t <= now {
                    rec.state = ActorState::Running;
                    self.runnable += 1;
                }
            }
        }
        self.generation += 1;
        true
    }

    /// If every actor is waiting and none has a deadline, produce a
    /// diagnostic describing the deadlock; otherwise `None`.
    fn deadlock_report(&self) -> Option<String> {
        if self.runnable > 0 || self.live_actor_count() == 0 {
            return None;
        }
        let any_deadline = self.actors.iter().flatten().any(|rec| {
            matches!(
                rec.state,
                ActorState::Waiting {
                    wake_at: Some(_),
                    ..
                }
            )
        });
        if any_deadline {
            return None;
        }
        let mut report =
            String::from("vtime deadlock: every actor is waiting with no pending deadline\n");
        for rec in self.actors.iter().flatten() {
            let detail = match rec.state {
                ActorState::Waiting {
                    signal: Some((s, seen)),
                    ..
                } => format!(
                    "waiting on signal `{}` (epoch {} > {})",
                    self.signal_names.get(s).map(String::as_str).unwrap_or("?"),
                    self.signal_epochs.get(s).copied().unwrap_or(0),
                    seen
                ),
                _ => format!("{:?}", rec.state),
            };
            report.push_str(&format!("  actor `{}`: {detail}\n", rec.name));
        }
        Some(report)
    }

    /// Wake every actor currently subscribed to `signal`.
    fn bump_signal(&mut self, signal: usize) {
        self.signal_epochs[signal] += 1;
        for rec in self.actors.iter_mut().flatten() {
            if let ActorState::Waiting {
                signal: Some((s, _)),
                ..
            } = rec.state
            {
                if s == signal {
                    rec.state = ActorState::Running;
                    self.runnable += 1;
                }
            }
        }
        self.generation += 1;
    }
}

#[derive(Debug, Default)]
struct Monitor {
    core: Mutex<Core>,
    cv: Condvar,
}

/// The shared virtual clock. Cheap to clone (it is an `Arc` handle).
#[derive(Clone, Default)]
pub struct Clock {
    monitor: Arc<Monitor>,
}

impl fmt::Debug for Clock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let core = self.monitor.core.lock();
        f.debug_struct("Clock")
            .field("now", &SimTime(core.now))
            .field("actors", &core.live_actor_count())
            .field("runnable", &core.runnable)
            .finish()
    }
}

impl Clock {
    /// Create a clock starting at [`SimTime::ZERO`] with no actors.
    pub fn new() -> Self {
        Clock::default()
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        SimTime(self.monitor.core.lock().now)
    }

    /// Register a new actor. The calling thread (or the thread the handle is
    /// moved to) owns the registration; dropping the [`Actor`] deregisters it.
    ///
    /// An actor must only ever be used from one thread at a time — the handle
    /// is deliberately `!Sync`-ish in usage (all methods take `&self`, but
    /// waiting from two threads on one actor would corrupt the accounting, so
    /// the type is not `Clone`).
    pub fn actor(&self, name: impl Into<String>) -> Actor {
        let mut core = self.monitor.core.lock();
        let rec = ActorRec {
            name: name.into(),
            state: ActorState::Running,
        };
        let id = core.actors.iter().position(Option::is_none);
        let id = match id {
            Some(i) => {
                core.actors[i] = Some(rec);
                i
            }
            None => {
                core.actors.push(Some(rec));
                core.actors.len() - 1
            }
        };
        core.runnable += 1;
        Actor {
            clock: self.clone(),
            id,
        }
    }

    /// Hold virtual time still while setting up a simulation.
    ///
    /// The returned guard is itself a registered (always-runnable) actor, so
    /// the clock cannot advance until it is dropped. Spawning several actors
    /// one by one is otherwise racy: the first one may run arbitrarily far
    /// ahead before the second registers. Typical use:
    ///
    /// ```
    /// # use vtime::{Clock, SimDuration};
    /// let clock = Clock::new();
    /// let setup = clock.freeze();
    /// let a = clock.spawn("a", |a| { a.sleep(SimDuration::from_micros(1)); a.now() });
    /// let b = clock.spawn("b", |a| { a.sleep(SimDuration::from_micros(2)); a.now() });
    /// drop(setup); // both registered: release the timeline
    /// a.join().unwrap();
    /// b.join().unwrap();
    /// ```
    pub fn freeze(&self) -> Actor {
        self.actor("setup-freeze")
    }

    /// Allocate a fresh [`Signal`] on this clock.
    pub fn signal(&self) -> Signal {
        self.signal_named("anonymous")
    }

    /// Allocate a labeled [`Signal`]; the label appears in deadlock reports.
    pub fn signal_named(&self, name: impl Into<String>) -> Signal {
        let mut core = self.monitor.core.lock();
        core.signal_epochs.push(0);
        core.signal_names.push(name.into());
        Signal {
            clock: self.clone(),
            id: core.signal_epochs.len() - 1,
        }
    }

    /// Spawn a named OS thread owning a fresh actor; the closure receives a
    /// reference to the actor handle, which is also installed as the
    /// thread's *current actor* (see [`crate::with_current`]) so that code
    /// deep inside a driver can reach it without explicit plumbing.
    ///
    /// The actor is registered on the **calling** thread, before the new
    /// thread starts; combined with [`Clock::freeze`] this makes start-up
    /// deterministic.
    pub fn spawn<F, T>(&self, name: impl Into<String>, f: F) -> std::thread::JoinHandle<T>
    where
        F: FnOnce(&Actor) -> T + Send + 'static,
        T: Send + 'static,
    {
        let name = name.into();
        let actor = self.actor(name.clone());
        std::thread::Builder::new()
            .name(name)
            .spawn(move || {
                let _guard = crate::current::install(&actor);
                f(&actor)
            })
            .expect("spawning simulation thread")
    }

    fn with_core<R>(&self, f: impl FnOnce(&mut Core) -> R) -> R {
        let mut core = self.monitor.core.lock();

        f(&mut core)
    }
}

/// A registered participant in the virtual timeline. One per simulated
/// thread. Dropping the handle deregisters the actor (and may allow time to
/// advance for the remaining ones).
pub struct Actor {
    clock: Clock,
    id: usize,
}

impl fmt::Debug for Actor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Actor").field("id", &self.id).finish()
    }
}

impl Actor {
    /// The clock this actor belongs to.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.clock.now()
    }

    /// This actor's registered name.
    pub fn name(&self) -> String {
        self.clock.with_core(|core| {
            core.actors[self.id]
                .as_ref()
                .map(|r| r.name.clone())
                .unwrap_or_default()
        })
    }

    /// Block this thread until the virtual clock has advanced by `d`.
    /// A zero duration returns immediately without yielding.
    pub fn sleep(&self, d: SimDuration) {
        if d.0 == 0 {
            return;
        }
        let monitor = &self.clock.monitor;
        let mut core = monitor.core.lock();
        let wake_at = core.now.saturating_add(d.0);
        self.park(&mut core, Some(wake_at), None);
        self.wait_woken(&mut core);
    }

    /// Block until `signal`'s epoch exceeds `seen`; returns the new epoch.
    pub fn wait_signal(&self, signal: &Signal, seen: u64) -> u64 {
        match self.wait_inner(signal, seen, None) {
            WaitOutcome::Signaled(e) => e,
            WaitOutcome::DeadlineReached => unreachable!("no deadline was set"),
        }
    }

    /// Block until `signal`'s epoch exceeds `seen` or virtual time reaches
    /// `deadline`, whichever comes first.
    pub fn wait_signal_until(&self, signal: &Signal, seen: u64, deadline: SimTime) -> WaitOutcome {
        self.wait_inner(signal, seen, Some(deadline.0))
    }

    fn wait_inner(&self, signal: &Signal, seen: u64, deadline: Option<u64>) -> WaitOutcome {
        assert!(
            Arc::ptr_eq(&self.clock.monitor, &signal.clock.monitor),
            "signal and actor belong to different clocks"
        );
        let monitor = &self.clock.monitor;
        let mut core = monitor.core.lock();
        loop {
            let epoch = core.signal_epochs[signal.id];
            if epoch > seen {
                return WaitOutcome::Signaled(epoch);
            }
            if let Some(d) = deadline {
                if core.now >= d {
                    return WaitOutcome::DeadlineReached;
                }
            }
            self.park(&mut core, deadline, Some((signal.id, seen)));
            self.wait_woken(&mut core);
        }
    }

    /// Wait (on the real condvar) until this actor has been woken. Detects
    /// simulation deadlocks with a real-time grace period: if after
    /// [`DEADLOCK_GRACE`] of wall-clock silence every actor is still waiting
    /// with no deadline in sight, panic with a per-actor report rather than
    /// hanging forever. The grace period tolerates threads that are between
    /// deregistering their actor and releasing resources (e.g. dropping the
    /// sending half of a mailbox during teardown).
    fn wait_woken(&self, core: &mut mad_util::sync::MutexGuard<'_, Core>) {
        while matches!(
            core.actors[self.id].as_ref().map(|r| &r.state),
            Some(ActorState::Waiting { .. })
        ) {
            let timed_out = self
                .clock
                .monitor
                .cv
                .wait_for(core, DEADLOCK_GRACE)
                .timed_out();
            if timed_out {
                if let Some(report) = core.deadlock_report() {
                    panic!("{report}");
                }
            }
        }
    }

    /// Transition to Waiting and let the clock advance if that made every
    /// actor idle. Must be called with the core lock held; leaves it held.
    fn park(&self, core: &mut Core, wake_at: Option<u64>, signal: Option<(usize, u64)>) {
        let rec = core.actors[self.id]
            .as_mut()
            .expect("actor used after deregistration");
        debug_assert!(
            matches!(rec.state, ActorState::Running),
            "actor parked twice"
        );
        rec.state = ActorState::Waiting { wake_at, signal };
        core.runnable -= 1;
        if core.maybe_advance() {
            self.clock.monitor.cv.notify_all();
        }
    }
}

impl Drop for Actor {
    fn drop(&mut self) {
        let monitor = &self.clock.monitor;
        let mut core = monitor.core.lock();
        if let Some(rec) = core.actors[self.id].take() {
            if matches!(rec.state, ActorState::Running) {
                core.runnable -= 1;
            }
            if core.maybe_advance() {
                monitor.cv.notify_all();
            }
        }
    }
}

/// A monotonically increasing epoch counter used to build cancellable waits.
///
/// Cloning yields another handle to the same counter.
#[derive(Clone)]
pub struct Signal {
    clock: Clock,
    id: usize,
}

impl fmt::Debug for Signal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Signal")
            .field("id", &self.id)
            .field("epoch", &self.epoch())
            .finish()
    }
}

impl Signal {
    /// The current epoch.
    pub fn epoch(&self) -> u64 {
        self.clock.monitor.core.lock().signal_epochs[self.id]
    }

    /// Increment the epoch and wake every actor waiting on this signal.
    pub fn bump(&self) {
        let monitor = &self.clock.monitor;
        let mut core = monitor.core.lock();
        core.bump_signal(self.id);
        monitor.cv.notify_all();
    }
}
