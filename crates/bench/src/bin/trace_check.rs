//! Validate JSONL trace files against the mad-trace schema.
//!
//! `trace_check [--require <prefix>]... <file.jsonl>...` — each line must
//! parse as a JSON object with the required keys (`ts`, `thread`, `kind`,
//! `cat`, `name` plus the kind-specific ones), timestamps must be
//! monotone per thread, and every counter track must carry only the
//! events its family lists. The families are the tables
//! `madeleine::session::trace_tables` derives from the names the library
//! flushes: `gw:` (gateway totals), `rt:` (the
//! session's thread budget and buffer-pool counters), `route:` (per-path
//! bytes and selector counters), `member:` (protocol transitions and
//! totals), `metrics:` (the registry flush), `health:` (watchdog
//! verdicts) and `ch:` (channel totals and per-peer bytes).
//!
//! Each `--require <prefix>` fails a file with no event on a track of
//! that family — `--require route:` guards traces that should come from a
//! multi-path run, `--require metrics:` from a telemetry-enabled one,
//! `--require member:` from a dynamic-membership one. Exits non-zero on
//! the first invalid file, so CI can gate on it.

use std::process::ExitCode;

use madeleine::mad_trace::schema::{validate_jsonl, validate_tracks};
use madeleine::session::trace_tables;

fn main() -> ExitCode {
    let tables = trace_tables();
    let mut required: Vec<String> = Vec::new();
    let mut paths: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--require" {
            match args.next() {
                Some(prefix) if tables.iter().any(|t| t.0 == prefix) => required.push(prefix),
                other => {
                    let known: Vec<&str> = tables.iter().map(|t| t.0).collect();
                    eprintln!("--require takes a track prefix, one of {known:?}; got {other:?}");
                    return ExitCode::FAILURE;
                }
            }
        } else {
            paths.push(arg);
        }
    }
    if paths.is_empty() {
        eprintln!("usage: trace_check [--require <prefix>]... <file.jsonl>...");
        return ExitCode::FAILURE;
    }
    for path in &paths {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("{path}: cannot read: {e}");
                return ExitCode::FAILURE;
            }
        };
        let base = match validate_jsonl(&text) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("{path}: INVALID — {e}");
                return ExitCode::FAILURE;
            }
        };
        let counts = match validate_tracks(&text, &tables) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("{path}: INVALID counter track — {e}");
                return ExitCode::FAILURE;
            }
        };
        if let Some(prefix) = required.iter().find(|p| counts[p.as_str()] == 0) {
            eprintln!("{path}: INVALID — no `{prefix}` track events (required)");
            return ExitCode::FAILURE;
        }
        let per_track: Vec<String> = counts.iter().map(|(p, n)| format!("{p} {n}")).collect();
        println!(
            "{path}: ok — {} lines, {} threads, {} spans, {} counts, {} instants; events per track family: {}",
            base.lines,
            base.threads,
            base.spans,
            base.counts,
            base.instants,
            per_track.join(", ")
        );
    }
    ExitCode::SUCCESS
}
