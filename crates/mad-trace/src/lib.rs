//! `mad-trace` — unified event tracing for the madeleine workspace.
//!
//! One [`Tracer`] handle serves both execution models: simulated runs
//! bind it to the virtual clock (`vtime`, via the `simnet::TraceLog`
//! adapter) and real-backend runs (shm/tcp) bind it to a monotonic
//! [`std::time::Instant`]. Events land in per-thread ring buffers so the
//! hot paths never contend on a global log; a [`Snapshot`] merges the
//! rings afterwards and exports to a stable JSONL schema, a CSV counter
//! dump, or Chrome `trace_event` JSON that loads in Perfetto /
//! `chrome://tracing` (see DESIGN.md, "Observability").
//!
//! Like `mad-util`, this crate is deliberately std-only: no external
//! dependencies, hand-rolled JSON emission and (for the schema checker)
//! a minimal hand-rolled JSON parser.
//!
//! Recording is cheap and falls to almost nothing when disabled: a
//! disabled tracer is a `None` and every entry point is a single branch.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod export;
pub mod schema;
mod stats;

pub use export::{Snapshot, ThreadSnapshot};
pub use stats::{ChannelStats, ChannelTotals, PEER_EVENT_NAMES};

use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Default per-track ring capacity (events kept before the oldest are
/// dropped and counted in [`ThreadSnapshot::dropped`]).
const DEFAULT_CAPACITY: usize = 65_536;

/// Maximum number of key/value arguments attached to one event;
/// extra arguments are silently discarded.
const MAX_ARGS: usize = 4;

/// Version of the JSONL event schema emitted by [`Snapshot`] exporters.
pub const SCHEMA_VERSION: u64 = 1;

/// Time source for a tracer. All timestamps recorded through a tracer
/// come from one clock so spans are comparable across threads.
pub trait TraceClock: Send + Sync {
    /// Current time in nanoseconds since an arbitrary (per-run) origin.
    fn now_ns(&self) -> u64;
}

/// Default clock: monotonic wall time since the binding was created.
struct MonoClock {
    start: Instant,
}

impl TraceClock for MonoClock {
    fn now_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }
}

/// What an [`Event`] describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A time interval: `ts_ns .. ts_ns + dur_ns`.
    Span,
    /// A point in time.
    Instant,
    /// A counter increment (`value` is the delta).
    Count,
}

impl EventKind {
    /// Schema string for this kind ("span" / "instant" / "count").
    pub fn as_str(self) -> &'static str {
        match self {
            EventKind::Span => "span",
            EventKind::Instant => "instant",
            EventKind::Count => "count",
        }
    }
}

/// Fixed-capacity key/value arguments attached to an event. Keys are
/// `&'static str` so recording never allocates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Args {
    len: u8,
    kv: [(&'static str, u64); MAX_ARGS],
}

impl Default for Args {
    fn default() -> Self {
        Args {
            len: 0,
            kv: [("", 0); MAX_ARGS],
        }
    }
}

impl Args {
    /// Empty argument list.
    pub fn new() -> Self {
        Args::default()
    }

    /// Append an argument; silently dropped beyond [`MAX_ARGS`].
    pub fn push(&mut self, key: &'static str, value: u64) {
        if (self.len as usize) < MAX_ARGS {
            self.kv[self.len as usize] = (key, value);
            self.len += 1;
        }
    }

    /// Iterate over the recorded arguments.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.kv[..self.len as usize].iter().copied()
    }

    /// True when no arguments were recorded.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// One recorded event. Category and name are `&'static str` (they name
/// code sites); dynamic identity — which channel, which rank — lives in
/// the track name and in [`Args`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Timestamp in nanoseconds in the tracer's clock domain.
    pub ts_ns: u64,
    /// Duration in nanoseconds (zero for instants and counts).
    pub dur_ns: u64,
    /// What this event describes.
    pub kind: EventKind,
    /// Subsystem category, e.g. `"gw"`, `"bmm"`, `"gtm"`.
    pub cat: &'static str,
    /// Event name within the category, e.g. `"recv"`, `"flush"`.
    pub name: &'static str,
    /// Counter delta ([`EventKind::Count`] only; zero otherwise).
    pub value: i64,
    /// Optional key/value arguments.
    pub args: Args,
}

struct Ring {
    events: VecDeque<Event>,
    dropped: u64,
}

struct TrackLog {
    name: String,
    capacity: usize,
    ring: Mutex<Ring>,
}

impl TrackLog {
    fn push(&self, ev: Event) {
        let mut r = self.ring.lock().unwrap();
        if r.events.len() >= self.capacity {
            r.events.pop_front();
            r.dropped += 1;
        }
        r.events.push_back(ev);
    }
}

struct ClockBinding {
    clock: Arc<dyn TraceClock>,
    domain: &'static str,
}

struct Inner {
    capacity: usize,
    clock: OnceLock<ClockBinding>,
    tracks: Mutex<Vec<Arc<TrackLog>>>,
}

thread_local! {
    // Per-thread cache of (tracer identity -> this thread's track), so
    // the hot recording path skips the tracks mutex.
    static TRACK_CACHE: RefCell<Vec<(usize, Arc<TrackLog>)>> = const { RefCell::new(Vec::new()) };
}

/// Handle to an event recorder. Cloning is cheap (an `Arc`); a
/// disabled tracer ([`Tracer::off`], also the `Default`) records
/// nothing and costs one branch per call.
#[derive(Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<Inner>>,
}

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.enabled())
            .finish()
    }
}

impl Tracer {
    /// A disabled tracer: every recording call is a cheap no-op.
    pub const fn off() -> Self {
        Tracer { inner: None }
    }

    /// An enabled tracer with the default ring capacity.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }

    /// An enabled tracer keeping at most `capacity` events per track
    /// (older events are dropped and counted).
    pub fn with_capacity(capacity: usize) -> Self {
        Tracer {
            inner: Some(Arc::new(Inner {
                capacity: capacity.max(1),
                clock: OnceLock::new(),
                tracks: Mutex::new(Vec::new()),
            })),
        }
    }

    /// Whether this handle records anything.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Bind the clock and its domain name (`"sim"` / `"mono"`). Only
    /// the first binding wins; returns `false` if a clock was already
    /// bound (or the tracer is disabled). Unbound tracers lazily fall
    /// back to a monotonic clock on first use.
    pub fn init_clock(&self, clock: Arc<dyn TraceClock>, domain: &'static str) -> bool {
        match &self.inner {
            Some(i) => i.clock.set(ClockBinding { clock, domain }).is_ok(),
            None => false,
        }
    }

    fn binding(inner: &Inner) -> &ClockBinding {
        inner.clock.get_or_init(|| ClockBinding {
            clock: Arc::new(MonoClock {
                start: Instant::now(),
            }),
            domain: "mono",
        })
    }

    /// Current time in the tracer's clock domain (0 when disabled).
    pub fn now_ns(&self) -> u64 {
        match &self.inner {
            Some(i) => Self::binding(i).clock.now_ns(),
            None => 0,
        }
    }

    fn track_named(inner: &Inner, name: &str) -> Arc<TrackLog> {
        let mut tracks = inner.tracks.lock().unwrap();
        if let Some(t) = tracks.iter().find(|t| t.name == name) {
            return t.clone();
        }
        let log = Arc::new(TrackLog {
            name: name.to_string(),
            capacity: inner.capacity,
            ring: Mutex::new(Ring {
                events: VecDeque::new(),
                dropped: 0,
            }),
        });
        tracks.push(log.clone());
        log
    }

    fn track_for_current_thread(&self, inner: &Arc<Inner>) -> Arc<TrackLog> {
        let key = Arc::as_ptr(inner) as usize;
        TRACK_CACHE.with(|cache| {
            let mut cache = cache.borrow_mut();
            if let Some((_, log)) = cache.iter().find(|(k, _)| *k == key) {
                return log.clone();
            }
            let thread = std::thread::current();
            let log = Self::track_named(inner, thread.name().unwrap_or("<unnamed>"));
            if cache.len() >= 64 {
                cache.clear();
            }
            cache.push((key, log.clone()));
            log
        })
    }

    /// Open a span on the current thread's track; it records itself
    /// when the returned guard drops. Prefer the [`trace_span!`] macro,
    /// which skips evaluating the arguments when the tracer is off.
    #[must_use = "the span is recorded when the guard drops"]
    pub fn span(&self, cat: &'static str, name: &'static str) -> SpanGuard {
        match &self.inner {
            Some(i) => {
                let t0 = Self::binding(i).clock.now_ns();
                SpanGuard {
                    state: Some(SpanState {
                        inner: i.clone(),
                        log: self.track_for_current_thread(i),
                        t0,
                        cat,
                        name,
                        args: Args::default(),
                    }),
                }
            }
            None => SpanGuard::disabled(),
        }
    }

    /// Record a point event on the current thread's track.
    pub fn instant(&self, cat: &'static str, name: &'static str, args: &[(&'static str, u64)]) {
        let Some(i) = &self.inner else { return };
        let ts = Self::binding(i).clock.now_ns();
        let mut a = Args::default();
        for &(k, v) in args {
            a.push(k, v);
        }
        self.track_for_current_thread(i).push(Event {
            ts_ns: ts,
            dur_ns: 0,
            kind: EventKind::Instant,
            cat,
            name,
            value: 0,
            args: a,
        });
    }

    /// Record a counter delta on the current thread's track.
    pub fn count(&self, cat: &'static str, name: &'static str, delta: i64) {
        let Some(i) = &self.inner else { return };
        let ts = Self::binding(i).clock.now_ns();
        self.track_for_current_thread(i).push(Event {
            ts_ns: ts,
            dur_ns: 0,
            kind: EventKind::Count,
            cat,
            name,
            value: delta,
            args: Args::default(),
        });
    }

    /// Record a counter delta on an explicitly named track (used when
    /// the logical owner of the counter is not a thread — e.g. a
    /// channel's end-of-run totals).
    pub fn count_on(
        &self,
        track: &str,
        cat: &'static str,
        name: &'static str,
        delta: i64,
        args: &[(&'static str, u64)],
    ) {
        let Some(i) = &self.inner else { return };
        let ts = Self::binding(i).clock.now_ns();
        let mut a = Args::default();
        for &(k, v) in args {
            a.push(k, v);
        }
        Self::track_named(i, track).push(Event {
            ts_ns: ts,
            dur_ns: 0,
            kind: EventKind::Count,
            cat,
            name,
            value: delta,
            args: a,
        });
    }

    /// Record one counter of a named list per pair on `track`, all of
    /// category `cat` — how every end-of-run total reaches the trace.
    pub fn count_all_on(&self, track: &str, cat: &'static str, named: &[(&'static str, u64)]) {
        for &(name, v) in named {
            self.count_on(track, cat, name, v as i64, &[]);
        }
    }

    /// Record a pre-timed span on an explicitly named track. This is
    /// the bridge for recorders that already know both endpoints (the
    /// simulator charges virtual-time spans after the fact).
    pub fn span_at(
        &self,
        track: &str,
        cat: &'static str,
        name: &'static str,
        ts_ns: u64,
        dur_ns: u64,
    ) {
        let Some(i) = &self.inner else { return };
        Self::track_named(i, track).push(Event {
            ts_ns,
            dur_ns,
            kind: EventKind::Span,
            cat,
            name,
            value: 0,
            args: Args::default(),
        });
    }

    /// Collect everything recorded so far. Tracks with the same name
    /// are merged and each track's events are sorted by timestamp (the
    /// rings themselves are append-ordered, which for `span_at` is not
    /// time order). Recording may continue afterwards; the snapshot is
    /// a consistent point-in-time copy.
    pub fn snapshot(&self) -> Snapshot {
        let Some(i) = &self.inner else {
            return Snapshot {
                domain: "off",
                threads: Vec::new(),
            };
        };
        let domain = Self::binding(i).domain;
        let logs: Vec<Arc<TrackLog>> = i.tracks.lock().unwrap().clone();
        let mut threads: Vec<ThreadSnapshot> = Vec::new();
        for log in logs {
            let r = log.ring.lock().unwrap();
            let (events, dropped): (Vec<Event>, u64) =
                (r.events.iter().copied().collect(), r.dropped);
            drop(r);
            match threads.iter_mut().find(|t| t.name == log.name) {
                Some(t) => {
                    t.events.extend(events);
                    t.dropped += dropped;
                }
                None => threads.push(ThreadSnapshot {
                    name: log.name.clone(),
                    dropped,
                    events,
                }),
            }
        }
        for t in &mut threads {
            t.events.sort_by_key(|e| e.ts_ns);
        }
        Snapshot { domain, threads }
    }
}

struct SpanState {
    inner: Arc<Inner>,
    log: Arc<TrackLog>,
    t0: u64,
    cat: &'static str,
    name: &'static str,
    args: Args,
}

/// Guard returned by [`Tracer::span`]; records the span when dropped.
#[must_use = "the span is recorded when the guard drops"]
pub struct SpanGuard {
    state: Option<SpanState>,
}

impl SpanGuard {
    /// A guard that records nothing (what a disabled tracer returns).
    pub fn disabled() -> Self {
        SpanGuard { state: None }
    }

    /// Attach a key/value argument (builder style; silently dropped
    /// beyond [`MAX_ARGS`] or on a disabled guard).
    pub fn arg(mut self, key: &'static str, value: u64) -> Self {
        if let Some(s) = &mut self.state {
            s.args.push(key, value);
        }
        self
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(s) = self.state.take() {
            let now = Tracer::binding(&s.inner).clock.now_ns();
            s.log.push(Event {
                ts_ns: s.t0,
                dur_ns: now.saturating_sub(s.t0),
                kind: EventKind::Span,
                cat: s.cat,
                name: s.name,
                value: 0,
                args: s.args,
            });
        }
    }
}

/// Open a span on `tracer`'s current-thread track; binds the returned
/// guard's lifetime to the enclosing scope. Optional trailing
/// `"key" = value` pairs become span arguments; a disabled tracer
/// returns a disabled guard.
///
/// ```
/// # let tracer = mad_trace::Tracer::new();
/// # let bytes = 3usize;
/// let _s = mad_trace::trace_span!(tracer, "bmm", "flush", "bytes" = bytes as u64);
/// ```
#[macro_export]
macro_rules! trace_span {
    ($tracer:expr, $cat:literal, $name:literal $(, $k:literal = $v:expr)* $(,)?) => {
        if $tracer.enabled() {
            $tracer.span($cat, $name)$(.arg($k, $v))*
        } else {
            $crate::SpanGuard::disabled()
        }
    };
}

/// Record a counter delta on `tracer`'s current-thread track.
#[macro_export]
macro_rules! trace_count {
    ($tracer:expr, $cat:literal, $name:literal, $delta:expr) => {
        if $tracer.enabled() {
            $tracer.count($cat, $name, $delta);
        }
    };
}

/// Record an instant on `tracer`'s current-thread track, with optional
/// `"key" = value` arguments.
#[macro_export]
macro_rules! trace_instant {
    ($tracer:expr, $cat:literal, $name:literal $(, $k:literal = $v:expr)* $(,)?) => {
        if $tracer.enabled() {
            $tracer.instant($cat, $name, &[$(($k, $v)),*]);
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    struct FixedClock(std::sync::atomic::AtomicU64);
    impl TraceClock for FixedClock {
        fn now_ns(&self) -> u64 {
            self.0.fetch_add(10, std::sync::atomic::Ordering::Relaxed)
        }
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::off();
        assert!(!t.enabled());
        let _s = trace_span!(t, "a", "b");
        trace_count!(t, "a", "c", 5);
        trace_instant!(t, "a", "d");
        t.count_on("x", "a", "e", 1, &[]);
        let snap = t.snapshot();
        assert!(snap.threads.is_empty());
        assert_eq!(snap.domain, "off");
    }

    #[test]
    fn spans_counts_instants_are_recorded() {
        let t = Tracer::new();
        assert!(t.init_clock(
            Arc::new(FixedClock(std::sync::atomic::AtomicU64::new(0))),
            "sim"
        ));
        assert!(!t.init_clock(
            Arc::new(FixedClock(std::sync::atomic::AtomicU64::new(0))),
            "mono"
        ));
        {
            let _s = trace_span!(t, "gw", "recv", "peer" = 3);
        }
        trace_count!(t, "gtm", "encode", 2);
        trace_instant!(t, "gw", "stall", "depth" = 1);
        let snap = t.snapshot();
        assert_eq!(snap.domain, "sim");
        assert_eq!(snap.threads.len(), 1);
        let evs = &snap.threads[0].events;
        assert_eq!(evs.len(), 3);
        let span = evs.iter().find(|e| e.kind == EventKind::Span).unwrap();
        assert_eq!((span.cat, span.name), ("gw", "recv"));
        assert_eq!(span.dur_ns, 10);
        assert_eq!(span.args.iter().collect::<Vec<_>>(), vec![("peer", 3)]);
        let count = evs.iter().find(|e| e.kind == EventKind::Count).unwrap();
        assert_eq!(count.value, 2);
    }

    #[test]
    fn ring_wraps_and_counts_drops() {
        let t = Tracer::with_capacity(4);
        for i in 0..10 {
            t.count_on("ring", "t", "n", i, &[]);
        }
        let snap = t.snapshot();
        assert_eq!(snap.threads.len(), 1);
        let th = &snap.threads[0];
        assert_eq!(th.events.len(), 4);
        assert_eq!(th.dropped, 6);
        // The survivors are the newest four deltas.
        let vals: Vec<i64> = th.events.iter().map(|e| e.value).collect();
        assert_eq!(vals, vec![6, 7, 8, 9]);
    }

    #[test]
    fn args_cap_at_max() {
        let mut a = Args::new();
        for i in 0..(MAX_ARGS as u64 + 3) {
            a.push("k", i);
        }
        assert_eq!(a.iter().count(), MAX_ARGS);
    }

    #[test]
    fn tracks_with_same_name_merge_and_sort() {
        let t = Tracer::new();
        t.span_at("lane", "copy", "copy", 100, 5);
        t.span_at("lane", "copy", "copy", 20, 5);
        let snap = t.snapshot();
        let th = snap.threads.iter().find(|t| t.name == "lane").unwrap();
        let ts: Vec<u64> = th.events.iter().map(|e| e.ts_ns).collect();
        assert_eq!(ts, vec![20, 100]);
    }
}
