//! Minimal JSON parser and JSONL trace-schema validator.
//!
//! The workspace is std-only, so this module carries just enough JSON
//! machinery for the schema checker and the tests: a recursive-descent
//! parser for one value, [`validate_jsonl`] which enforces the trace
//! schema documented in DESIGN.md ("Observability") — every line parses,
//! the required keys are present with the right types, kinds are known,
//! and timestamps are monotone per thread — and [`validate_tracks`], one
//! check for every counter-track family, against name tables its caller
//! supplies.

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
    fn as_f64(&self) -> Option<f64> {
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
    fn as_u64(&self) -> Option<u64> {
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

/// The one counter whose schema depends on an argument: on any validated
/// track it carries an integer `args.gateway`, the path whose bytes it
/// counts.
pub const PATH_BYTES: &str = "path_bytes";

/// Track prefixes retired with what wrote them: `proto:` with GTM kind
/// 12, `ctl:` with the self-tuning controller. A trace that carries one
/// predates this validator and fails, whatever the tables say.
const RETIRED_PREFIXES: [&str; 2] = ["proto:", "ctl:"];

/// One counter-track family, `(prefix, cat, names)`: every event on a
/// track whose name starts with `prefix` is a `count` of category `cat`
/// named in `names`.
pub type TrackTable<'a> = (&'a str, &'a str, Vec<&'a str>);

/// Validate the counter tracks of a JSONL trace against `tables`: every
/// event on a track that a table's prefix matches is a `count` of that
/// table's category with a name the table lists, and [`PATH_BYTES`]
/// carries an integer `args.gateway`. Tracks no table matches pass
/// untouched (run [`validate_jsonl`] first for the base schema), except
/// a retired one, which fails. Returns the events seen per table prefix,
/// zero for a prefix with none.
pub fn validate_tracks<'a>(
    text: &str,
    tables: &[TrackTable<'a>],
) -> Result<BTreeMap<&'a str, usize>, String> {
    let mut counts: BTreeMap<&'a str, usize> = tables.iter().map(|t| (t.0, 0)).collect();
    for (i, line) in text.lines().enumerate() {
        let line_no = i + 1;
        if line.trim().is_empty() {
            continue;
        }
        let v = parse(line).map_err(|e| format!("line {line_no}: {e}"))?;
        let thread = require_str(&v, "thread", line_no)?;
        if RETIRED_PREFIXES.iter().any(|p| thread.starts_with(p)) {
            return Err(format!("line {line_no}: unknown track \"{thread}\""));
        }
        let Some((prefix, expect_cat, names)) = tables.iter().find(|t| thread.starts_with(t.0))
        else {
            continue;
        };
        let kind = require_str(&v, "kind", line_no)?;
        if kind != "count" {
            return Err(format!(
                "line {line_no}: track \"{thread}\" carries a \"{kind}\" (only counts allowed)"
            ));
        }
        let cat = require_str(&v, "cat", line_no)?;
        if cat != *expect_cat {
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
        if name == PATH_BYTES
            && v.get("args")
                .and_then(|a| a.get("gateway"))
                .and_then(|g| g.as_u64())
                .is_none()
        {
            return Err(format!(
                "line {line_no}: \"{name}\" without integer args[\"gateway\"]"
            ));
        }
        *counts.entry(prefix).or_default() += 1;
    }
    Ok(counts)
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

    /// A small local table: two families, one name each besides
    /// [`PATH_BYTES`].
    fn tables() -> Vec<TrackTable<'static>> {
        vec![
            ("route:", "route", vec![PATH_BYTES, "switches"]),
            ("gw:", "gateway", vec!["stalls"]),
        ]
    }

    fn check(text: &str) -> Result<BTreeMap<&'static str, usize>, String> {
        validate_tracks(text, &tables())
    }

    #[test]
    fn counter_tracks_validate_and_count_per_prefix() {
        let text = "\
{\"ts\":1,\"thread\":\"route:vc\",\"kind\":\"count\",\"cat\":\"route\",\"name\":\"path_bytes\",\"value\":512,\"args\":{\"gateway\":1}}
{\"ts\":1,\"thread\":\"route:vc\",\"kind\":\"count\",\"cat\":\"route\",\"name\":\"switches\",\"value\":1}
{\"ts\":3,\"thread\":\"node0\",\"kind\":\"instant\",\"cat\":\"route\",\"name\":\"anything-goes\"}
";
        let counts = check(text).unwrap();
        assert_eq!(counts.get("route:"), Some(&2));
        // A family with no events still reports, as zero.
        assert_eq!(counts.get("gw:"), Some(&0));
        // Unrelated tracks are ignored entirely.
        let other = "{\"ts\":1,\"thread\":\"node0\",\"kind\":\"span\",\"cat\":\"x\",\"name\":\"y\",\"dur\":2}\n";
        assert!(check(other).unwrap().values().all(|&n| n == 0));
    }

    #[test]
    fn counter_tracks_reject_bad_events() {
        let rejects = |line: &str, why: &str| {
            let err = check(line).unwrap_err();
            assert!(err.contains(why), "{err}");
        };
        // Unknown name.
        rejects("{\"ts\":1,\"thread\":\"route:vc\",\"kind\":\"count\",\"cat\":\"route\",\"name\":\"zap\",\"value\":1}", "unknown event");
        // path_bytes without its gateway arg, or with a fractional one.
        rejects("{\"ts\":1,\"thread\":\"route:vc\",\"kind\":\"count\",\"cat\":\"route\",\"name\":\"path_bytes\",\"value\":1}", "gateway");
        rejects("{\"ts\":1,\"thread\":\"route:vc\",\"kind\":\"count\",\"cat\":\"route\",\"name\":\"path_bytes\",\"value\":1,\"args\":{\"gateway\":1.5}}", "gateway");
        // Wrong cat.
        rejects("{\"ts\":1,\"thread\":\"gw:vc@1\",\"kind\":\"count\",\"cat\":\"gw\",\"name\":\"stalls\",\"value\":1}", "cat");
        // Spans don't belong on counter tracks.
        rejects("{\"ts\":1,\"thread\":\"route:vc\",\"kind\":\"span\",\"cat\":\"route\",\"name\":\"switches\",\"dur\":2}", "only counts");
        // A track retired with its packet kind or its controller is not
        // passed over in silence, whatever it carries: the trace is an
        // old one.
        rejects("{\"ts\":1,\"thread\":\"proto:vc@0\",\"kind\":\"count\",\"cat\":\"proto\",\"name\":\"eager_blocks\",\"value\":9}", "unknown track");
        rejects("{\"ts\":4,\"thread\":\"ctl:vc@1\",\"kind\":\"count\",\"cat\":\"ctl\",\"name\":\"window_raise\",\"value\":12}", "unknown track");
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
