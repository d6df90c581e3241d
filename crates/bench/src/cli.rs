//! Tiny command-line conveniences shared by the bench binaries.
//!
//! Every trace-capable binary accepts `--trace <path>` (or
//! `--trace=<path>`): the run's unified event snapshot is exported there,
//! as JSONL when the path ends in `.jsonl` and as a Chrome
//! `trace_event` JSON (load in Perfetto or `chrome://tracing`) otherwise.

use std::path::{Path, PathBuf};

/// The `--trace` output path, if the binary was invoked with one.
pub fn trace_path() -> Option<PathBuf> {
    trace_path_from(std::env::args().skip(1))
}

/// True when the bare flag `name` (e.g. `--smoke`) is present.
pub fn flag(name: &str) -> bool {
    std::env::args().skip(1).any(|a| a == name)
}

fn trace_path_from(args: impl Iterator<Item = String>) -> Option<PathBuf> {
    let mut args = args.peekable();
    while let Some(a) = args.next() {
        if a == "--trace" {
            return args.next().map(PathBuf::from);
        }
        if let Some(p) = a.strip_prefix("--trace=") {
            return Some(PathBuf::from(p));
        }
    }
    None
}

/// Export `snap` to `path` in the format its extension selects (`.jsonl`
/// → JSONL event stream, anything else → Chrome trace JSON) and report
/// where it went.
pub fn export_trace(snap: &mad_trace::Snapshot, path: &Path) {
    let jsonl = path.extension().is_some_and(|e| e == "jsonl");
    let res = if jsonl {
        snap.save_jsonl(path)
    } else {
        snap.save_chrome(path)
    };
    match res {
        Ok(()) => println!(
            "trace: {} events on {} tracks -> {} ({})",
            snap.event_count(),
            snap.threads.len(),
            path.display(),
            if jsonl { "jsonl" } else { "chrome trace" }
        ),
        Err(e) => eprintln!("trace: failed to write {}: {e}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_both_flag_forms() {
        let two = |v: &[&str]| trace_path_from(v.iter().map(|s| s.to_string()));
        assert_eq!(two(&["--trace", "out.jsonl"]), Some("out.jsonl".into()));
        assert_eq!(two(&["--trace=out.json"]), Some("out.json".into()));
        assert_eq!(two(&["--size", "4"]), None);
        assert_eq!(two(&["--trace"]), None);
    }
}
