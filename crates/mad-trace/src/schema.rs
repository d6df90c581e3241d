//! Minimal JSON parser and JSONL trace-schema validator.
//!
//! The workspace is std-only, so this module carries just enough JSON
//! machinery for the schema checker and the tests: a recursive-descent
//! parser for one value, and [`validate_jsonl`] which enforces the
//! trace schema documented in DESIGN.md ("Observability") — every line
//! parses, the required keys are present with the right types, kinds
//! are known, and timestamps are monotone per thread.

use std::collections::BTreeMap;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (stored as f64; trace values fit well inside 2^53).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object (insertion-ordered pairs).
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Member lookup on objects; `None` elsewhere.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as i64, if this is an integral number.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            JsonValue::Num(n) if n.fract() == 0.0 => Some(*n as i64),
            _ => None,
        }
    }

    /// The numeric payload as u64, if this is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(n) if n.fract() == 0.0 && *n >= 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(v) => Some(v),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> String {
        format!("{msg} at byte {}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek();
        if b.is_some() {
            self.pos += 1;
        }
        b
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.bump() == Some(b) {
            Ok(())
        } else {
            self.pos -= usize::from(self.pos > 0);
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, val: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(val)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = self.value()?;
            pairs.push((key, val));
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(JsonValue::Object(pairs)),
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(JsonValue::Array(items)),
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let code = self.hex4()?;
                        // Surrogate pairs: accept but only decode the BMP.
                        let c = char::from_u32(code).unwrap_or('\u{fffd}');
                        out.push(c);
                    }
                    _ => return Err(self.err("bad escape")),
                },
                Some(b) if b < 0x20 => return Err(self.err("raw control character in string")),
                Some(b) => {
                    // Re-assemble UTF-8 multibyte sequences byte-for-byte.
                    let start = self.pos - 1;
                    let len = match b {
                        0x00..=0x7f => 1,
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        _ => 4,
                    };
                    if start + len > self.bytes.len() {
                        return Err(self.err("truncated UTF-8"));
                    }
                    let chunk = std::str::from_utf8(&self.bytes[start..start + len])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    out.push_str(chunk);
                    self.pos = start + len;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let mut code = 0u32;
        for _ in 0..4 {
            let d = self.bump().ok_or_else(|| self.err("truncated \\u"))?;
            let v = (d as char)
                .to_digit(16)
                .ok_or_else(|| self.err("bad hex digit in \\u"))?;
            code = code * 16 + v;
        }
        Ok(code)
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(JsonValue::Num)
            .map_err(|_| self.err("bad number"))
    }
}

/// Parse one JSON value from `text` (leading/trailing whitespace
/// allowed, nothing else).
pub fn parse(text: &str) -> Result<JsonValue, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing garbage after JSON value"));
    }
    Ok(v)
}

/// What [`validate_jsonl`] found in a well-formed trace.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct JsonlSummary {
    /// Total lines validated.
    pub lines: usize,
    /// Distinct thread/track names seen.
    pub threads: usize,
    /// Span events.
    pub spans: usize,
    /// Counter events.
    pub counts: usize,
    /// Instant events.
    pub instants: usize,
}

fn require_str<'v>(v: &'v JsonValue, key: &str, line_no: usize) -> Result<&'v str, String> {
    v.get(key)
        .and_then(|x| x.as_str())
        .ok_or_else(|| format!("line {line_no}: missing or non-string \"{key}\""))
}

/// Validate a JSONL trace against schema v1: each non-empty line parses
/// as a JSON object; `ts` (non-negative integer), `thread`, `kind`,
/// `cat`, `name` are present and well-typed; `kind` is one of
/// `span`/`instant`/`count`/`meta`; spans carry `dur`, counts carry
/// `value`; `args` (when present) is an object of numbers; and `ts` is
/// monotone non-decreasing per thread.
pub fn validate_jsonl(text: &str) -> Result<JsonlSummary, String> {
    let mut summary = JsonlSummary::default();
    let mut last_ts: BTreeMap<String, u64> = BTreeMap::new();
    for (i, line) in text.lines().enumerate() {
        let line_no = i + 1;
        if line.trim().is_empty() {
            continue;
        }
        let v = parse(line).map_err(|e| format!("line {line_no}: {e}"))?;
        if !matches!(v, JsonValue::Object(_)) {
            return Err(format!("line {line_no}: not a JSON object"));
        }
        let ts = v
            .get("ts")
            .and_then(|t| t.as_u64())
            .ok_or_else(|| format!("line {line_no}: missing or non-integer \"ts\""))?;
        let thread = require_str(&v, "thread", line_no)?.to_string();
        let kind = require_str(&v, "kind", line_no)?;
        require_str(&v, "cat", line_no)?;
        require_str(&v, "name", line_no)?;
        match kind {
            "span" => {
                v.get("dur")
                    .and_then(|d| d.as_u64())
                    .ok_or_else(|| format!("line {line_no}: span without integer \"dur\""))?;
                summary.spans += 1;
            }
            "count" => {
                v.get("value")
                    .and_then(|x| x.as_i64())
                    .ok_or_else(|| format!("line {line_no}: count without integer \"value\""))?;
                summary.counts += 1;
            }
            "instant" => summary.instants += 1,
            "meta" => {}
            other => return Err(format!("line {line_no}: unknown kind \"{other}\"")),
        }
        if let Some(args) = v.get("args") {
            match args {
                JsonValue::Object(pairs) => {
                    for (k, av) in pairs {
                        if av.as_f64().is_none() {
                            return Err(format!("line {line_no}: args[\"{k}\"] is not a number"));
                        }
                    }
                }
                _ => return Err(format!("line {line_no}: \"args\" is not an object")),
            }
        }
        if let Some(&prev) = last_ts.get(&thread) {
            if ts < prev {
                return Err(format!(
                    "line {line_no}: ts {ts} goes backwards on thread \"{thread}\" (prev {prev})"
                ));
            }
        } else {
            summary.threads += 1;
        }
        last_ts.insert(thread, ts);
        summary.lines += 1;
    }
    if summary.lines == 0 {
        return Err("trace is empty".to_string());
    }
    Ok(summary)
}

/// Event names allowed on a `route:` track (all `count`s, cat `route`).
pub const ROUTE_EVENT_NAMES: [&str; 5] = [
    "path_bytes",
    "switches",
    "failovers",
    "deaths",
    "readmissions",
];

/// Event names allowed on a `gw:` track (all `count`s, cat `gateway`):
/// the teardown totals plus the windowed cost-model deltas.
pub const GW_EVENT_NAMES: [&str; 15] = [
    "messages",
    "fragments",
    "fragment_bytes",
    "stalls",
    "buffer_switches",
    "credits_granted",
    "grants_sent",
    "cancelled",
    "credit_timeouts",
    "errors",
    "peak_held_bytes",
    "delta_bytes",
    "delta_stalls",
    "delta_occupancy",
    "threads_spawned",
];

/// Event names allowed on an `rt:` track (all `count`s, cat `runtime`):
/// the session's end-of-run thread-budget accounting — runtime-spawned
/// threads — and, on the per-gateway `rt:{vc}@{node}` tracks, the
/// copy-placement scheduler's accounting: where relay copies landed
/// (receive- or flush-staged), how many found their stage idle, and each
/// stage's cumulative busy time.
pub const RT_EVENT_NAMES: [&str; 6] = [
    "threads_spawned",
    "copies_recv",
    "copies_flush",
    "copy_idle_hits",
    "recv_busy_ns",
    "flush_busy_ns",
];

/// Event names allowed on a `metrics:` track (all `count`s, cat
/// `metrics`): the teardown flush of each node's live registry —
/// counters and gauges by name (the multi-path plane's per-gateway byte
/// gauges folded into `path_bytes` keyed by `args.gateway`,
/// `queue_depth` paired with its `queue_depth_peak` high-water mark) plus
/// the derived quantiles of the forward-latency, credit-wait and
/// copy-size histograms.
pub const METRICS_EVENT_NAMES: [&str; 30] = [
    "degradations",
    "health_credit_starvation",
    "health_queue_saturation",
    "health_stalled_stream",
    "health_dead_path_flap",
    "queue_depth",
    "queue_depth_peak",
    "rt_threads_spawned",
    "pool_gets",
    "pool_hits",
    "pool_misses",
    "gw_held_bytes",
    "gw_bytes_per_sec",
    "open_streams",
    "path_bytes",
    "gw_forward_ns_p50",
    "gw_forward_ns_p90",
    "gw_forward_ns_p99",
    "gw_forward_ns_max",
    "gw_forward_ns_count",
    "credit_wait_ns_p50",
    "credit_wait_ns_p90",
    "credit_wait_ns_p99",
    "credit_wait_ns_max",
    "credit_wait_ns_count",
    "gw_copy_bytes_p50",
    "gw_copy_bytes_p90",
    "gw_copy_bytes_p99",
    "gw_copy_bytes_max",
    "gw_copy_bytes_count",
];

/// Event names allowed on a `health:` track (all `count`s, cat
/// `health`): the mid-run watchdog verdicts, one event per detector
/// firing.
pub const HEALTH_EVENT_NAMES: [&str; 4] = [
    "credit_starvation",
    "queue_saturation",
    "stalled_stream",
    "dead_path_flap",
];

/// Event names allowed on a `member:` track (all `count`s, cat
/// `member`): the membership plane's live protocol transitions (join
/// phases, requests, acks, leaves, epoch rejections, path retire /
/// readmit decisions) plus its teardown totals.
pub const MEMBERSHIP_EVENT_NAMES: [&str; 18] = [
    "phase_connect",
    "phase_exchange",
    "phase_verify",
    "phase_activate",
    "join_request",
    "join_ack",
    "announce",
    "peer_leave",
    "leave",
    "rejoin",
    "stale_drop",
    "retire",
    "readmit",
    "joins",
    "leaves",
    "rejoins",
    "stale_drops",
    "acks_served",
];

/// What [`validate_route_tracks`] found.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RouteSummary {
    /// Events on `route:` tracks.
    pub route_events: usize,
    /// Events on `gw:` tracks.
    pub gw_events: usize,
    /// Events on `rt:` tracks.
    pub rt_events: usize,
    /// Events on `metrics:` tracks.
    pub metrics_events: usize,
    /// Events on `health:` tracks.
    pub health_events: usize,
    /// Events on `member:` tracks.
    pub member_events: usize,
}

/// Validate the routing-plane tracks of a JSONL trace: every event on a
/// `route:`-prefixed track is a `count` of cat `route` named in
/// [`ROUTE_EVENT_NAMES`], with `path_bytes` carrying an integer
/// `args.gateway`; every event on a `gw:`-prefixed track is a `count` of
/// cat `gateway` named in [`GW_EVENT_NAMES`]; every event on an
/// `rt:`-prefixed track is a `count` of cat `runtime` named in
/// [`RT_EVENT_NAMES`]; every event on a `metrics:`-prefixed track is a
/// `count` of cat `metrics` named in [`METRICS_EVENT_NAMES`] (with
/// `path_bytes` carrying an integer `args.gateway`); every event
/// on a `health:`-prefixed track is a `count` of cat `health` named in
/// [`HEALTH_EVENT_NAMES`]; every event on a `member:`-prefixed track is
/// a `count` of cat `member` named in [`MEMBERSHIP_EVENT_NAMES`]. Traces
/// without such tracks validate trivially (zero counts) — run
/// [`validate_jsonl`] first for the base schema. A `proto:` track (retired
/// with GTM kind 12) or a `ctl:` track (retired with the self-tuning
/// controller) is an unknown track: a trace that carries one predates
/// this validator and fails.
pub fn validate_route_tracks(text: &str) -> Result<RouteSummary, String> {
    let mut summary = RouteSummary::default();
    for (i, line) in text.lines().enumerate() {
        let line_no = i + 1;
        if line.trim().is_empty() {
            continue;
        }
        let v = parse(line).map_err(|e| format!("line {line_no}: {e}"))?;
        let thread = require_str(&v, "thread", line_no)?;
        let (expect_cat, names, counter): (&str, &[&str], &mut usize) =
            if thread.starts_with("route:") {
                ("route", &ROUTE_EVENT_NAMES, &mut summary.route_events)
            } else if thread.starts_with("gw:") {
                ("gateway", &GW_EVENT_NAMES, &mut summary.gw_events)
            } else if thread.starts_with("rt:") {
                ("runtime", &RT_EVENT_NAMES, &mut summary.rt_events)
            } else if thread.starts_with("metrics:") {
                ("metrics", &METRICS_EVENT_NAMES, &mut summary.metrics_events)
            } else if thread.starts_with("health:") {
                ("health", &HEALTH_EVENT_NAMES, &mut summary.health_events)
            } else if thread.starts_with("member:") {
                (
                    "member",
                    &MEMBERSHIP_EVENT_NAMES,
                    &mut summary.member_events,
                )
            } else if thread.starts_with("proto:") || thread.starts_with("ctl:") {
                return Err(format!("line {line_no}: unknown track \"{thread}\""));
            } else {
                continue;
            };
        let kind = require_str(&v, "kind", line_no)?;
        if kind != "count" {
            return Err(format!(
                "line {line_no}: track \"{thread}\" carries a \"{kind}\" (only counts allowed)"
            ));
        }
        let cat = require_str(&v, "cat", line_no)?;
        if cat != expect_cat {
            return Err(format!(
                "line {line_no}: track \"{thread}\" event has cat \"{cat}\" (expected \"{expect_cat}\")"
            ));
        }
        let name = require_str(&v, "name", line_no)?;
        if !names.contains(&name) {
            return Err(format!(
                "line {line_no}: unknown event \"{name}\" on track \"{thread}\""
            ));
        }
        if name == "path_bytes"
            && v.get("args")
                .and_then(|a| a.get("gateway"))
                .and_then(|g| g.as_u64())
                .is_none()
        {
            return Err(format!(
                "line {line_no}: \"{name}\" without integer args[\"gateway\"]"
            ));
        }
        *counter += 1;
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_values() {
        let v = parse(r#"{"a":[1,2.5,-3],"b":{"c":"x\ny","d":true,"e":null}}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str(), Some("x\ny"));
        assert_eq!(v.get("b").unwrap().get("d"), Some(&JsonValue::Bool(true)));
    }

    #[test]
    fn parses_unicode_escapes() {
        let v = parse(r#""\u0041é\u0001""#).unwrap();
        assert_eq!(v.as_str(), Some("Aé\u{1}"));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{\"a\":}").is_err());
        assert!(parse("{} trailing").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn validator_accepts_a_good_trace() {
        let text = "\
{\"ts\":0,\"thread\":\"trace\",\"kind\":\"meta\",\"cat\":\"trace\",\"name\":\"begin\",\"clock\":\"mono\",\"schema\":1}
{\"ts\":5,\"thread\":\"node0\",\"kind\":\"span\",\"cat\":\"bmm\",\"name\":\"flush\",\"dur\":10,\"args\":{\"bytes\":42}}
{\"ts\":7,\"thread\":\"node0\",\"kind\":\"count\",\"cat\":\"ch\",\"name\":\"bytes_sent\",\"value\":42}
{\"ts\":9,\"thread\":\"node1\",\"kind\":\"instant\",\"cat\":\"gw\",\"name\":\"stall\"}
";
        let s = validate_jsonl(text).unwrap();
        assert_eq!(s.lines, 4);
        assert_eq!(s.threads, 3);
        assert_eq!((s.spans, s.counts, s.instants), (1, 1, 1));
    }

    #[test]
    fn validator_rejects_backwards_time() {
        let text = "\
{\"ts\":10,\"thread\":\"a\",\"kind\":\"instant\",\"cat\":\"c\",\"name\":\"n\"}
{\"ts\":3,\"thread\":\"a\",\"kind\":\"instant\",\"cat\":\"c\",\"name\":\"n\"}
";
        let err = validate_jsonl(text).unwrap_err();
        assert!(err.contains("goes backwards"), "{err}");
    }

    #[test]
    fn route_tracks_validate() {
        let text = "\
{\"ts\":1,\"thread\":\"route:vc\",\"kind\":\"count\",\"cat\":\"route\",\"name\":\"path_bytes\",\"value\":512,\"args\":{\"gateway\":1}}
{\"ts\":1,\"thread\":\"route:vc\",\"kind\":\"count\",\"cat\":\"route\",\"name\":\"failovers\",\"value\":1}
{\"ts\":1,\"thread\":\"route:vc\",\"kind\":\"count\",\"cat\":\"route\",\"name\":\"deaths\",\"value\":1}
{\"ts\":2,\"thread\":\"gw:vc@1\",\"kind\":\"count\",\"cat\":\"gateway\",\"name\":\"delta_bytes\",\"value\":9}
{\"ts\":3,\"thread\":\"node0\",\"kind\":\"instant\",\"cat\":\"route\",\"name\":\"anything-goes\"}
";
        let s = validate_route_tracks(text).unwrap();
        assert_eq!((s.route_events, s.gw_events), (3, 1));
    }

    #[test]
    fn rt_tracks_validate() {
        let text = "\
{\"ts\":1,\"thread\":\"rt:session\",\"kind\":\"count\",\"cat\":\"runtime\",\"name\":\"threads_spawned\",\"value\":7}
{\"ts\":1,\"thread\":\"rt:vc@1\",\"kind\":\"count\",\"cat\":\"runtime\",\"name\":\"copies_recv\",\"value\":2}
{\"ts\":1,\"thread\":\"rt:vc@1\",\"kind\":\"count\",\"cat\":\"runtime\",\"name\":\"flush_busy_ns\",\"value\":4}
{\"ts\":2,\"thread\":\"gw:vc@1\",\"kind\":\"count\",\"cat\":\"gateway\",\"name\":\"threads_spawned\",\"value\":4}
";
        let s = validate_route_tracks(text).unwrap();
        assert_eq!((s.rt_events, s.gw_events), (3, 1));
        // Wrong cat and unknown names on an rt track are rejected.
        let bad_cat = "{\"ts\":1,\"thread\":\"rt:session\",\"kind\":\"count\",\"cat\":\"rt\",\"name\":\"threads_spawned\",\"value\":1}\n";
        assert!(validate_route_tracks(bad_cat).unwrap_err().contains("cat"));
        let bad_name = "{\"ts\":1,\"thread\":\"rt:session\",\"kind\":\"count\",\"cat\":\"runtime\",\"name\":\"zap\",\"value\":1}\n";
        assert!(validate_route_tracks(bad_name)
            .unwrap_err()
            .contains("unknown event"));
    }

    #[test]
    fn metrics_and_health_tracks_validate() {
        let text = "\
{\"ts\":1,\"thread\":\"metrics:node0\",\"kind\":\"count\",\"cat\":\"metrics\",\"name\":\"gw_forward_ns_p99\",\"value\":4096}
{\"ts\":1,\"thread\":\"metrics:node0\",\"kind\":\"count\",\"cat\":\"metrics\",\"name\":\"queue_depth_peak\",\"value\":7}
{\"ts\":1,\"thread\":\"metrics:node0\",\"kind\":\"count\",\"cat\":\"metrics\",\"name\":\"path_bytes\",\"value\":512,\"args\":{\"gateway\":2}}
{\"ts\":2,\"thread\":\"health:vc@1\",\"kind\":\"count\",\"cat\":\"health\",\"name\":\"credit_starvation\",\"value\":3}
{\"ts\":3,\"thread\":\"health:vc@1\",\"kind\":\"count\",\"cat\":\"health\",\"name\":\"stalled_stream\",\"value\":1}
";
        let s = validate_route_tracks(text).unwrap();
        assert_eq!((s.metrics_events, s.health_events), (3, 2));
        // Unknown metric names, wrong cats, and path_bytes events without
        // their gateway arg are all rejected.
        let bad_name = "{\"ts\":1,\"thread\":\"metrics:node0\",\"kind\":\"count\",\"cat\":\"metrics\",\"name\":\"zap\",\"value\":1}\n";
        assert!(validate_route_tracks(bad_name)
            .unwrap_err()
            .contains("unknown event"));
        let bad_cat = "{\"ts\":1,\"thread\":\"health:vc@1\",\"kind\":\"count\",\"cat\":\"metrics\",\"name\":\"stalled_stream\",\"value\":1}\n";
        assert!(validate_route_tracks(bad_cat).unwrap_err().contains("cat"));
        let no_gw = "{\"ts\":1,\"thread\":\"metrics:node0\",\"kind\":\"count\",\"cat\":\"metrics\",\"name\":\"path_bytes\",\"value\":1}\n";
        assert!(validate_route_tracks(no_gw)
            .unwrap_err()
            .contains("gateway"));
    }

    #[test]
    fn member_and_ctl_tracks_validate() {
        let text = "\
{\"ts\":1,\"thread\":\"member:vc@3\",\"kind\":\"count\",\"cat\":\"member\",\"name\":\"phase_connect\",\"value\":1,\"args\":{\"epoch\":2}}
{\"ts\":2,\"thread\":\"member:vc@3\",\"kind\":\"count\",\"cat\":\"member\",\"name\":\"stale_drop\",\"value\":1,\"args\":{\"node\":3,\"epoch\":1}}
{\"ts\":3,\"thread\":\"member:vc@0\",\"kind\":\"count\",\"cat\":\"member\",\"name\":\"rejoins\",\"value\":1}
{\"ts\":6,\"thread\":\"route:vc\",\"kind\":\"count\",\"cat\":\"route\",\"name\":\"readmissions\",\"value\":1}
";
        let s = validate_route_tracks(text).unwrap();
        assert_eq!((s.member_events, s.route_events), (3, 1));
        let bad_name = "{\"ts\":1,\"thread\":\"member:vc@0\",\"kind\":\"count\",\"cat\":\"member\",\"name\":\"zap\",\"value\":1}\n";
        assert!(validate_route_tracks(bad_name)
            .unwrap_err()
            .contains("unknown event"));
        // The controller's track went with the controller: an event that
        // was valid on it while it existed marks the trace as an old one.
        let retired = "{\"ts\":4,\"thread\":\"ctl:vc@1\",\"kind\":\"count\",\"cat\":\"ctl\",\"name\":\"window_raise\",\"value\":12}\n";
        assert!(validate_route_tracks(retired)
            .unwrap_err()
            .contains("unknown track"));
    }

    #[test]
    fn route_tracks_reject_bad_events() {
        // Unknown name on the route track.
        let bad_name = "{\"ts\":1,\"thread\":\"route:vc\",\"kind\":\"count\",\"cat\":\"route\",\"name\":\"zap\",\"value\":1}\n";
        assert!(validate_route_tracks(bad_name)
            .unwrap_err()
            .contains("unknown event"));
        // path_bytes without its gateway arg.
        let no_gw = "{\"ts\":1,\"thread\":\"route:vc\",\"kind\":\"count\",\"cat\":\"route\",\"name\":\"path_bytes\",\"value\":1}\n";
        assert!(validate_route_tracks(no_gw)
            .unwrap_err()
            .contains("gateway"));
        // Wrong cat on a gw track.
        let bad_cat = "{\"ts\":1,\"thread\":\"gw:vc@1\",\"kind\":\"count\",\"cat\":\"gw\",\"name\":\"stalls\",\"value\":1}\n";
        assert!(validate_route_tracks(bad_cat).unwrap_err().contains("cat"));
        // Spans don't belong on counter tracks.
        let bad_kind = "{\"ts\":1,\"thread\":\"route:vc\",\"kind\":\"span\",\"cat\":\"route\",\"name\":\"switches\",\"dur\":2}\n";
        assert!(validate_route_tracks(bad_kind)
            .unwrap_err()
            .contains("only counts"));
        // A track retired with its packet kind is not passed over in
        // silence, whatever it carries: the trace is an old one.
        let retired = "{\"ts\":1,\"thread\":\"proto:vc@0\",\"kind\":\"count\",\"cat\":\"proto\",\"name\":\"eager_blocks\",\"value\":9}\n";
        assert!(validate_route_tracks(retired)
            .unwrap_err()
            .contains("unknown track"));
        // Unrelated tracks are ignored entirely.
        let other = "{\"ts\":1,\"thread\":\"node0\",\"kind\":\"span\",\"cat\":\"x\",\"name\":\"y\",\"dur\":2}\n";
        assert_eq!(
            validate_route_tracks(other).unwrap(),
            RouteSummary::default()
        );
    }

    #[test]
    fn validator_rejects_missing_keys_and_bad_kinds() {
        assert!(validate_jsonl(
            "{\"ts\":1,\"thread\":\"a\",\"kind\":\"span\",\"cat\":\"c\",\"name\":\"n\"}\n"
        )
        .unwrap_err()
        .contains("dur"));
        assert!(validate_jsonl(
            "{\"ts\":1,\"thread\":\"a\",\"kind\":\"zap\",\"cat\":\"c\",\"name\":\"n\"}\n"
        )
        .unwrap_err()
        .contains("unknown kind"));
        assert!(validate_jsonl(
            "{\"thread\":\"a\",\"kind\":\"meta\",\"cat\":\"c\",\"name\":\"n\"}\n"
        )
        .unwrap_err()
        .contains("ts"));
        assert!(validate_jsonl("").is_err());
    }
}
