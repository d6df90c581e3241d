//! Benchmark-side spans: recorded around the calls into the library, kept
//! in a preallocated buffer while traffic runs, written out afterwards.
//! Spans inside the library are a later issue.

use std::io::Write;

/// One recorded interval. Times are ns since the session started.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `vchannel.send`.
    pub name: &'static str,
    /// The slice kind it was recorded in: `stream`, `pingpong` or `exchange`.
    pub phase: &'static str,
    /// Index (in the same buffer) of the span that caused this one.
    pub parent: Option<u32>,
    /// Index of the message the span belongs to — the shared identifier.
    pub msg: u64,
    /// Start, ns.
    pub start: u64,
    /// End, ns.
    pub end: u64,
}

/// A fixed-capacity span buffer owned by one load thread, handed out one
/// slice's quota at a time so that every slice of a session is covered
/// however fast the code gets. Spans beyond a slice's quota are counted and
/// dropped, never reallocated mid-slice.
pub struct SpanBuf {
    spans: Vec<Span>,
    /// Length at which the open slice's quota is used up.
    limit: usize,
    dropped: u64,
}

impl SpanBuf {
    /// A buffer that never grows beyond `cap` spans; it records nothing
    /// until a slice is opened.
    pub fn with_capacity(cap: usize) -> SpanBuf {
        SpanBuf {
            spans: Vec::with_capacity(cap),
            limit: 0,
            dropped: 0,
        }
    }

    /// A slice starts: it may record `quota` more spans.
    pub fn open_slice(&mut self, quota: usize) {
        self.limit = (self.spans.len() + quota).min(self.spans.capacity());
    }

    /// Record a span; returns its index for use as a parent, or `None`
    /// when the open slice's quota is used up.
    pub fn push(&mut self, span: Span) -> Option<u32> {
        if self.spans.len() >= self.limit {
            self.dropped += 1;
            return None;
        }
        self.spans.push(span);
        Some(self.spans.len() as u32 - 1)
    }

    /// Everything recorded.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans that did not fit.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// Self time of every span: its duration minus the part of that interval
/// its direct children cover (overlapping children are not counted twice,
/// and a child is clipped to its parent).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let (a, b) = (s.start.max(parent.start), s.end.min(parent.end));
            if a < b {
                children[p as usize].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start;
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end - s.start).saturating_sub(covered)
        })
        .collect()
}

/// Append one buffer to a `.spans.jsonl` stream, one object per line.
pub fn write_jsonl(
    out: &mut impl Write,
    session: usize,
    thread: &str,
    spans: &[Span],
) -> std::io::Result<()> {
    let selfs = self_times(spans);
    for (i, (s, self_ns)) in spans.iter().zip(selfs).enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"session\":{session},\"thread\":\"{thread}\",\"id\":{i},\"parent\":{parent},\
             \"name\":\"{}\",\"phase\":\"{}\",\"msg\":{},\"start_ns\":{},\"end_ns\":{},\
             \"self_ns\":{self_ns}}}",
            s.name, s.phase, s.msg, s.start, s.end
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<u32>, start: u64, end: u64) -> Span {
        Span {
            name: "t",
            phase: "stream",
            parent,
            msg: 0,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        let spans = [
            span(None, 0, 100),     // 0: root
            span(Some(0), 10, 40),  // 1: child
            span(Some(0), 30, 60),  // 2: overlaps child 1 by 10
            span(Some(1), 15, 25),  // 3: grandchild, charged to 1 only
            span(Some(0), 90, 130), // 4: sticks out of the root, clipped
            span(Some(0), 50, 55),  // 5: inside child 2's interval
        ];
        let st = self_times(&spans);
        // Root: 100 − (10..60 ∪ 90..100) = 100 − 60 = 40.
        assert_eq!(st[0], 40);
        assert_eq!(st[1], 20); // 30 − grandchild's 10
        assert_eq!(st[2], 30);
        assert_eq!(st[3], 10);
        assert_eq!(st[4], 40);
        assert_eq!(st[5], 5);
    }

    #[test]
    fn buffer_drops_beyond_a_slice_quota_instead_of_growing() {
        let mut b = SpanBuf::with_capacity(3);
        assert_eq!(b.push(span(None, 0, 1)), None); // no slice open yet
        b.open_slice(2);
        assert_eq!(b.push(span(None, 0, 1)), Some(0));
        assert_eq!(b.push(span(Some(0), 0, 1)), Some(1));
        assert_eq!(b.push(span(None, 1, 2)), None);
        // The next slice gets its own quota, up to the capacity.
        b.open_slice(2);
        assert_eq!(b.push(span(None, 2, 3)), Some(2));
        assert_eq!(b.push(span(None, 3, 4)), None);
        assert_eq!(b.spans().len(), 3);
        assert_eq!(b.dropped(), 3);
    }

    #[test]
    fn jsonl_has_one_object_per_span() {
        let mut out = Vec::new();
        write_jsonl(
            &mut out,
            3,
            "lead",
            &[span(None, 0, 9), span(Some(0), 2, 5)],
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"parent\":null") && lines[0].contains("\"self_ns\":6"));
        assert!(lines[1].contains("\"parent\":0") && lines[1].contains("\"session\":3"));
    }
}
