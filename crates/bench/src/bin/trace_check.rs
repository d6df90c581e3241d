//! Validate JSONL trace files against the mad-trace schema.
//!
//! `trace_check [--require-route] [--require-metrics]
//! [--require-membership] <file.jsonl>...` — each line must parse
//! as a JSON object with the required keys (`ts`, `thread`, `kind`,
//! `cat`, `name` plus the kind-specific ones), timestamps must be
//! monotone per thread, and any routing-plane or runtime tracks
//! (`route:`/`gw:`/`rt:` prefixes) must carry only their known counter
//! events (`path_bytes` with its `gateway` arg, `switches`, `failovers`,
//! `deaths`, `readmissions`; the gateway totals and `delta_*` windows;
//! the `rt:` thread-budget totals; the `metrics:` registry flush and
//! `health:` watchdog verdicts; the `member:` protocol transitions).
//! With `--require-route`, a file with no `route:` events at all fails —
//! the flag guards traces that are supposed to come from a multi-path run.
//! With `--require-metrics`, a file with no `metrics:` events fails —
//! the flag guards traces from runs with the telemetry plane enabled.
//! With `--require-membership`, a file with no `member:` events fails —
//! the flag guards traces from dynamic-membership runs. Exits non-zero on
//! the first invalid file, so CI can gate on it.

use std::process::ExitCode;

use madeleine::mad_trace::schema::{validate_jsonl, validate_route_tracks};

fn main() -> ExitCode {
    let mut require_route = false;
    let mut require_metrics = false;
    let mut require_membership = false;
    let mut paths: Vec<String> = Vec::new();
    for arg in std::env::args().skip(1) {
        if arg == "--require-route" {
            require_route = true;
        } else if arg == "--require-metrics" {
            require_metrics = true;
        } else if arg == "--require-membership" {
            require_membership = true;
        } else {
            paths.push(arg);
        }
    }
    if paths.is_empty() {
        eprintln!(
            "usage: trace_check [--require-route] [--require-metrics]              [--require-membership] <file.jsonl>..."
        );
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
        let route = match validate_route_tracks(&text) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("{path}: INVALID route/gw track — {e}");
                return ExitCode::FAILURE;
            }
        };
        if require_route && route.route_events == 0 {
            eprintln!("{path}: INVALID — no `route:` track events (expected a multi-path trace)");
            return ExitCode::FAILURE;
        }
        if require_metrics && route.metrics_events == 0 {
            eprintln!(
                "{path}: INVALID — no `metrics:` track events (expected a telemetry-enabled trace)"
            );
            return ExitCode::FAILURE;
        }
        if require_membership && route.member_events == 0 {
            eprintln!(
                "{path}: INVALID — no `member:` track events (expected a dynamic-membership trace)"
            );
            return ExitCode::FAILURE;
        }
        println!(
            "{path}: ok — {} lines, {} threads, {} spans, {} counts, {} instants, {} route events, {} gw events, {} rt events, {} metrics events, {} health events, {} member events",
            base.lines,
            base.threads,
            base.spans,
            base.counts,
            base.instants,
            route.route_events,
            route.gw_events,
            route.rt_events,
            route.metrics_events,
            route.health_events,
            route.member_events
        );
    }
    ExitCode::SUCCESS
}
