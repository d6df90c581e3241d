//! Snapshot container and exporters (JSONL, Chrome trace, counters CSV).

use std::collections::BTreeMap;
use std::fs;
use std::io::{self, Write};
use std::path::Path;

use crate::{Event, EventKind, SCHEMA_VERSION};

/// Events recorded on one track (usually one thread; explicitly named
/// tracks such as `ch:<label>@<rank>` also land here).
#[derive(Debug, Clone)]
pub struct ThreadSnapshot {
    /// Track name — the JSONL `thread` field.
    pub name: String,
    /// Events evicted from this track's ring because it was full.
    pub dropped: u64,
    /// Surviving events, sorted by timestamp.
    pub events: Vec<Event>,
}

/// A point-in-time copy of everything a [`crate::Tracer`] recorded.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Clock domain the timestamps live in (`"sim"` or `"mono"`).
    pub domain: &'static str,
    /// One entry per track, in registration order.
    pub threads: Vec<ThreadSnapshot>,
}

fn escape_json(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

fn push_args(line: &mut String, ev: &Event) {
    if ev.args.is_empty() {
        return;
    }
    line.push_str(",\"args\":{");
    for (i, (k, v)) in ev.args.iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        line.push('"');
        escape_json(k, line);
        line.push_str(&format!("\":{v}"));
    }
    line.push('}');
}

impl Snapshot {
    /// Total number of events across all tracks.
    pub fn event_count(&self) -> usize {
        self.threads.iter().map(|t| t.events.len()).sum()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.event_count() == 0
    }

    /// Spans on track `thread` with category `cat`, as
    /// `(start_ns, end_ns)` pairs.
    pub fn spans(&self, thread: &str, cat: &str) -> Vec<(u64, u64)> {
        self.threads
            .iter()
            .filter(|t| t.name == thread)
            .flat_map(|t| t.events.iter())
            .filter(|e| e.kind == EventKind::Span && e.cat == cat)
            .map(|e| (e.ts_ns, e.ts_ns + e.dur_ns))
            .collect()
    }

    /// Sum of counter deltas for `(track, cat, name)` triples, keyed in
    /// that order. Argument-bearing counter events contribute to the
    /// same key.
    pub fn counter_totals(&self) -> BTreeMap<(String, String, String), i64> {
        let mut totals = BTreeMap::new();
        for t in &self.threads {
            for e in &t.events {
                if e.kind == EventKind::Count {
                    *totals
                        .entry((t.name.clone(), e.cat.to_string(), e.name.to_string()))
                        .or_insert(0) += e.value;
                }
            }
        }
        totals
    }

    /// Write the JSONL trace (one event per line; schema in DESIGN.md,
    /// "Observability").
    pub fn write_jsonl<W: Write>(&self, w: &mut W) -> io::Result<()> {
        writeln!(
            w,
            "{{\"ts\":0,\"thread\":\"trace\",\"kind\":\"meta\",\"cat\":\"trace\",\
             \"name\":\"begin\",\"clock\":\"{}\",\"schema\":{}}}",
            self.domain, SCHEMA_VERSION
        )?;
        for t in &self.threads {
            let mut last_ts = 0u64;
            for e in &t.events {
                let mut line = String::with_capacity(96);
                line.push_str(&format!("{{\"ts\":{},\"thread\":\"", e.ts_ns));
                escape_json(&t.name, &mut line);
                line.push_str(&format!(
                    "\",\"kind\":\"{}\",\"cat\":\"{}\",\"name\":\"{}\"",
                    e.kind.as_str(),
                    e.cat,
                    e.name
                ));
                match e.kind {
                    EventKind::Span => line.push_str(&format!(",\"dur\":{}", e.dur_ns)),
                    EventKind::Count => line.push_str(&format!(",\"value\":{}", e.value)),
                    EventKind::Instant => {}
                }
                push_args(&mut line, e);
                line.push('}');
                writeln!(w, "{line}")?;
                last_ts = e.ts_ns;
            }
            if t.dropped > 0 {
                let mut line = String::new();
                line.push_str(&format!("{{\"ts\":{last_ts},\"thread\":\""));
                escape_json(&t.name, &mut line);
                line.push_str(&format!(
                    "\",\"kind\":\"meta\",\"cat\":\"trace\",\"name\":\"dropped\",\"value\":{}}}",
                    t.dropped
                ));
                writeln!(w, "{line}")?;
            }
        }
        Ok(())
    }

    /// The JSONL trace as a string.
    pub fn to_jsonl_string(&self) -> String {
        let mut buf = Vec::new();
        self.write_jsonl(&mut buf).expect("write to Vec");
        String::from_utf8(buf).expect("exporter emits UTF-8")
    }

    /// Write Chrome `trace_event` JSON (loads in Perfetto and
    /// `chrome://tracing`). Timestamps convert to microseconds; each
    /// track becomes a named thread under pid 0; counter events emit
    /// running totals per `(track, cat.name)`.
    fn write_chrome<W: Write>(&self, w: &mut W) -> io::Result<()> {
        write!(w, "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[")?;
        let mut first = true;
        let mut emit = |w: &mut W, s: String| -> io::Result<()> {
            if first {
                first = false;
            } else {
                write!(w, ",")?;
            }
            write!(w, "{s}")
        };
        for (tid, t) in self.threads.iter().enumerate() {
            let mut name = String::new();
            escape_json(&t.name, &mut name);
            emit(
                w,
                format!(
                    "{{\"ph\":\"M\",\"pid\":0,\"tid\":{tid},\"name\":\"thread_name\",\
                     \"args\":{{\"name\":\"{name}\"}}}}"
                ),
            )?;
            let mut running: BTreeMap<(&str, &str), i64> = BTreeMap::new();
            for e in &t.events {
                let ts = e.ts_ns as f64 / 1000.0;
                let mut args = String::new();
                for (i, (k, v)) in e.args.iter().enumerate() {
                    if i > 0 {
                        args.push(',');
                    }
                    args.push('"');
                    escape_json(k, &mut args);
                    args.push_str(&format!("\":{v}"));
                }
                match e.kind {
                    EventKind::Span => {
                        let dur = e.dur_ns as f64 / 1000.0;
                        emit(
                            w,
                            format!(
                                "{{\"ph\":\"X\",\"pid\":0,\"tid\":{tid},\"ts\":{ts:.3},\
                                 \"dur\":{dur:.3},\"cat\":\"{}\",\"name\":\"{}\",\
                                 \"args\":{{{args}}}}}",
                                e.cat, e.name
                            ),
                        )?;
                    }
                    EventKind::Instant => {
                        emit(
                            w,
                            format!(
                                "{{\"ph\":\"i\",\"pid\":0,\"tid\":{tid},\"ts\":{ts:.3},\
                                 \"s\":\"t\",\"cat\":\"{}\",\"name\":\"{}\",\
                                 \"args\":{{{args}}}}}",
                                e.cat, e.name
                            ),
                        )?;
                    }
                    EventKind::Count => {
                        let total = running.entry((e.cat, e.name)).or_insert(0);
                        *total += e.value;
                        emit(
                            w,
                            format!(
                                "{{\"ph\":\"C\",\"pid\":0,\"tid\":{tid},\"ts\":{ts:.3},\
                                 \"name\":\"{}.{}\",\"args\":{{\"value\":{total}}}}}",
                                e.cat, e.name
                            ),
                        )?;
                    }
                }
            }
        }
        write!(w, "]}}")
    }

    /// The Chrome trace as a string.
    pub fn to_chrome_string(&self) -> String {
        let mut buf = Vec::new();
        self.write_chrome(&mut buf).expect("write to Vec");
        String::from_utf8(buf).expect("exporter emits UTF-8")
    }

    /// Counter totals as CSV in the `results/*.csv` style
    /// (`track,cat,name,total` header plus one row per counter).
    fn counters_csv(&self) -> String {
        let mut out = String::from("track,cat,name,total\n");
        for ((track, cat, name), total) in self.counter_totals() {
            out.push_str(&format!("{track},{cat},{name},{total}\n"));
        }
        out
    }

    /// Save the JSONL trace to `path`.
    pub fn save_jsonl(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let mut f = fs::File::create(path)?;
        self.write_jsonl(&mut f)
    }

    /// Save the Chrome trace to `path`.
    pub fn save_chrome(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let mut f = fs::File::create(path)?;
        self.write_chrome(&mut f)
    }

    /// Save the counters CSV to `path`.
    pub fn save_counters_csv(&self, path: impl AsRef<Path>) -> io::Result<()> {
        fs::write(path, self.counters_csv())
    }
}

#[cfg(test)]
mod tests {
    use crate::schema;
    use crate::Tracer;

    #[test]
    fn jsonl_escapes_track_names() {
        let t = Tracer::new();
        t.count_on("weird\"name\\with\ncontrol\u{1}", "cat", "n", 1, &[]);
        let snap = t.snapshot();
        let text = snap.to_jsonl_string();
        let summary = schema::validate_jsonl(&text).expect("escaped output must re-parse");
        assert_eq!(summary.counts, 1);
        assert!(text.contains("weird\\\"name\\\\with\\ncontrol\\u0001"));
    }

    #[test]
    fn chrome_export_is_balanced_json() {
        let t = Tracer::new();
        {
            let _s = t.span("gw", "recv").arg("peer", 1);
        }
        t.count("gtm", "encode", 3);
        t.count("gtm", "encode", 2);
        t.instant("gw", "stall", &[]);
        let text = t.snapshot().to_chrome_string();
        let v = schema::parse(&text).expect("chrome export parses as JSON");
        let events = v.get("traceEvents").and_then(|e| e.as_array()).unwrap();
        // thread_name meta + span + 2 counter samples + instant
        assert_eq!(events.len(), 5);
        // Counter samples carry running totals.
        let totals: Vec<i64> = events
            .iter()
            .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("C"))
            .map(|e| {
                e.get("args")
                    .and_then(|a| a.get("value"))
                    .and_then(|v| v.as_i64())
                    .unwrap()
            })
            .collect();
        assert_eq!(totals, vec![3, 5]);
    }

    #[test]
    fn jsonl_validates_and_counts_kinds() {
        let t = Tracer::new();
        {
            let _s = t.span("bmm", "flush").arg("bytes", 42);
        }
        t.count("ch", "bytes_sent", 42);
        t.instant("gw", "stall", &[("depth", 2)]);
        let text = t.snapshot().to_jsonl_string();
        let s = schema::validate_jsonl(&text).unwrap();
        assert_eq!((s.spans, s.counts, s.instants), (1, 1, 1));
    }

    #[test]
    fn dropped_marker_is_emitted() {
        let t = Tracer::with_capacity(2);
        for _ in 0..5 {
            t.count("c", "n", 1);
        }
        let text = t.snapshot().to_jsonl_string();
        assert!(text.contains("\"name\":\"dropped\",\"value\":3"));
        schema::validate_jsonl(&text).unwrap();
    }
}
