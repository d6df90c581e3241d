//! The simulated [`Runtime`]: Madeleine's execution hooks on virtual time.

use std::sync::Arc;
use std::thread::JoinHandle;

use madeleine::runtime::{RtEvent, Runtime};
use simnet::{calibration, TraceKind, TraceLog};
use vtime::{Clock, Signal, SimDuration};

/// An [`RtEvent`] backed by a virtual-clock [`Signal`]. Waiting requires the
/// calling thread to be a clock actor (all threads spawned through
/// [`SimRuntime::spawn`] are).
pub struct SimEvent {
    signal: Signal,
}

impl SimEvent {
    /// The underlying clock signal — drivers hand it to simnet wires so
    /// frame arrivals wake Madeleine's multiplexed receivers directly.
    pub fn signal(&self) -> &Signal {
        &self.signal
    }
}

impl RtEvent for SimEvent {
    fn epoch(&self) -> u64 {
        self.signal.epoch()
    }

    fn bump(&self) {
        self.signal.bump();
    }

    fn wait_past(&self, seen: u64) -> u64 {
        vtime::with_current(|actor| actor.wait_signal(&self.signal, seen))
    }

    fn wait_past_timeout(&self, seen: u64, timeout_ns: u64) -> Option<u64> {
        vtime::with_current(|actor| {
            let deadline = actor.now().after(SimDuration::from_nanos(timeout_ns));
            match actor.wait_signal_until(&self.signal, seen, deadline) {
                vtime::WaitOutcome::Signaled(epoch) => Some(epoch),
                vtime::WaitOutcome::DeadlineReached => None,
            }
        })
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// The virtual clock as a trace clock: event timestamps are virtual
/// nanoseconds, marked with the `"sim"` domain in exports.
struct SimClock(Clock);

impl mad_trace::TraceClock for SimClock {
    fn now_ns(&self) -> u64 {
        self.0.now().as_nanos()
    }
}

/// Runtime implementation on the virtual clock, with the paper's host cost
/// model (memcpy bandwidth of a 450 MHz Pentium II).
pub struct SimRuntime {
    clock: Clock,
    memcpy_bps: f64,
    trace: Option<TraceLog>,
    pool: Arc<mad_util::pool::BufferPool>,
    spawned: std::sync::atomic::AtomicU64,
}

impl SimRuntime {
    /// A runtime on `clock` with the calibrated memcpy bandwidth.
    pub fn new(clock: &Clock) -> Arc<Self> {
        Arc::new(SimRuntime {
            clock: clock.clone(),
            memcpy_bps: calibration::MEMCPY_BPS,
            trace: None,
            pool: mad_util::pool::BufferPool::new(),
            spawned: std::sync::atomic::AtomicU64::new(0),
        })
    }

    /// A runtime that records spans (driver sends/receives, overheads) into
    /// `trace`, labeled with the recording thread's name — the raw material
    /// of the pipeline-timeline figures. The trace's tracer is bound to the
    /// virtual clock (domain `"sim"`) and handed to Madeleine through
    /// [`Runtime::tracer`], so library spans share the stream.
    pub fn with_trace(clock: &Clock, trace: TraceLog) -> Arc<Self> {
        trace
            .tracer()
            .init_clock(Arc::new(SimClock(clock.clone())), "sim");
        Arc::new(SimRuntime {
            clock: clock.clone(),
            memcpy_bps: calibration::MEMCPY_BPS,
            trace: Some(trace),
            pool: mad_util::pool::BufferPool::new(),
            spawned: std::sync::atomic::AtomicU64::new(0),
        })
    }

    /// The attached trace log, if any.
    pub fn trace(&self) -> Option<&TraceLog> {
        self.trace.as_ref()
    }

    /// Record a span labeled with the current thread's name.
    pub(crate) fn record_span(&self, kind: TraceKind, start: vtime::SimTime, end: vtime::SimTime) {
        if let Some(trace) = &self.trace {
            let label = std::thread::current()
                .name()
                .unwrap_or("<unnamed>")
                .to_string();
            trace.record(label, kind, start, end);
        }
    }

    /// The virtual clock.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }
}

impl Runtime for SimRuntime {
    fn spawn(&self, name: String, f: Box<dyn FnOnce() + Send>) -> JoinHandle<()> {
        self.spawned
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        self.clock.spawn(name, move |_actor| f())
    }

    fn event(&self) -> Arc<dyn RtEvent> {
        let creator = std::thread::current()
            .name()
            .unwrap_or("<unnamed>")
            .to_string();
        Arc::new(SimEvent {
            signal: self.clock.signal_named(format!("event-by-{creator}")),
        })
    }

    fn charge_copy(&self, bytes: usize) {
        if bytes == 0 {
            return;
        }
        let start = self.clock.now();
        let d = SimDuration::from_secs_f64(bytes as f64 / self.memcpy_bps);
        vtime::with_current(|actor| actor.sleep(d));
        self.record_span(TraceKind::Copy, start, self.clock.now());
    }

    fn charge_overhead(&self, nanos: u64) {
        if nanos == 0 {
            return;
        }
        let start = self.clock.now();
        vtime::with_current(|actor| actor.sleep(SimDuration::from_nanos(nanos)));
        self.record_span(TraceKind::Overhead, start, self.clock.now());
    }

    fn now_nanos(&self) -> u64 {
        self.clock.now().as_nanos()
    }

    fn setup_guard(&self) -> Box<dyn std::any::Any + Send> {
        Box::new(self.clock.freeze())
    }

    fn tracer(&self) -> mad_trace::Tracer {
        self.trace
            .as_ref()
            .map(|t| t.tracer().clone())
            .unwrap_or_default()
    }

    fn pool(&self) -> &Arc<mad_util::pool::BufferPool> {
        &self.pool
    }

    fn threads_spawned(&self) -> u64 {
        self.spawned.load(std::sync::atomic::Ordering::Relaxed)
    }
}
