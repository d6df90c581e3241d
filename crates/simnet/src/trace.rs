//! Span traces of simulated activity, for the pipeline-timeline figures.
//!
//! The paper's Figures 5 and 8 are timelines of the gateway's receive and
//! send steps (ideal overlap versus PCI-conflicted). [`TraceLog`] collects
//! labeled `[start, end]` spans from instrumented code so the bench harness
//! can print the same timelines.
//!
//! Since the introduction of the unified `mad-trace` recorder, `TraceLog`
//! is a thin, API-compatible façade over a [`mad_trace::Tracer`]: spans are
//! stored as `driver/<kind>` events on a per-label track, alongside whatever
//! the Madeleine hot paths record on the same tracer. The full event stream
//! (exporters, JSONL schema) is reachable through [`TraceLog::tracer`].

use vtime::SimTime;

/// What a span represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceKind {
    /// A packet being received (link + inbound PCI).
    Recv,
    /// A packet being sent (outbound PCI + link).
    Send,
    /// A memory copy.
    Copy,
    /// Software overhead (e.g. the gateway buffer switch).
    Overhead,
}

impl TraceKind {
    /// The event name this kind maps to in the unified trace schema
    /// (category `"driver"`).
    pub fn cat(self) -> &'static str {
        match self {
            TraceKind::Recv => "recv",
            TraceKind::Send => "send",
            TraceKind::Copy => "copy",
            TraceKind::Overhead => "overhead",
        }
    }

    /// Inverse of [`TraceKind::cat`]; `None` for event names that did not
    /// come from a driver span (Madeleine hot-path spans share the tracer).
    fn from_cat(name: &str) -> Option<TraceKind> {
        match name {
            "recv" => Some(TraceKind::Recv),
            "send" => Some(TraceKind::Send),
            "copy" => Some(TraceKind::Copy),
            "overhead" => Some(TraceKind::Overhead),
            _ => None,
        }
    }
}

impl std::fmt::Display for TraceKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.cat())
    }
}

/// One recorded span.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// Which component produced the span (e.g. `"gw-recv"`).
    pub label: String,
    /// Span category.
    pub kind: TraceKind,
    /// Span start, virtual time.
    pub start: SimTime,
    /// Span end, virtual time.
    pub end: SimTime,
}

/// A shareable, append-only span log backed by the unified tracer.
#[derive(Debug, Clone)]
pub struct TraceLog {
    tracer: mad_trace::Tracer,
}

impl Default for TraceLog {
    fn default() -> Self {
        TraceLog::new()
    }
}

impl TraceLog {
    /// Create an empty log with its own enabled tracer.
    pub fn new() -> Self {
        TraceLog {
            tracer: mad_trace::Tracer::new(),
        }
    }

    /// Wrap an existing tracer (so driver spans and Madeleine hot-path
    /// events land in one stream). A disabled tracer makes every `record`
    /// a no-op.
    pub fn with_tracer(tracer: mad_trace::Tracer) -> Self {
        TraceLog { tracer }
    }

    /// The underlying unified tracer (hand to exporters, or to
    /// `SessionBuilder` runtimes so library events join driver spans).
    pub fn tracer(&self) -> &mad_trace::Tracer {
        &self.tracer
    }

    /// Append a span.
    pub fn record(&self, label: impl Into<String>, kind: TraceKind, start: SimTime, end: SimTime) {
        self.tracer.span_at(
            &label.into(),
            "driver",
            kind.cat(),
            start.as_nanos(),
            end.since(start).as_nanos(),
        );
    }

    /// Snapshot of all recorded driver spans, ordered by start time within
    /// each label. Spans recorded by Madeleine itself (category other than
    /// `"driver"`) are not included; use [`TraceLog::tracer`] for those.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        let snap = self.tracer.snapshot();
        let mut out = Vec::new();
        for t in &snap.threads {
            for e in &t.events {
                if e.kind != mad_trace::EventKind::Span || e.cat != "driver" {
                    continue;
                }
                let Some(kind) = TraceKind::from_cat(e.name) else {
                    continue;
                };
                out.push(TraceEvent {
                    label: t.name.clone(),
                    kind,
                    start: SimTime(e.ts_ns),
                    end: SimTime(e.ts_ns + e.dur_ns),
                });
            }
        }
        out
    }

    /// Number of recorded driver spans.
    pub fn len(&self) -> usize {
        self.snapshot().len()
    }

    /// True if no driver span has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total time covered by spans of `kind` under `label`, in seconds.
    pub fn total_secs(&self, label: &str, kind: TraceKind) -> f64 {
        self.snapshot()
            .iter()
            .filter(|e| e.kind == kind && e.label == label)
            .map(|e| e.end.since(e.start).as_secs_f64())
            .sum()
    }
}
