//! The thread-role census (cargo feature `census`, off by default).
//!
//! Every thread [`crate::StdRuntime`] spawns appends one JSON line at its
//! exit to the file named by `MAD_CENSUS` (nothing when it is unset):
//!
//! ```text
//! {"role":"gwN-vc-in-netN","name":"gw1-vc-in-net0","vcsw":12,"ivcsw":3,"cpu_ns":81234,"takes":40,"taken":52,"ones":37,"opens":0}
//! ```
//!
//! `role` is the thread's name with every run of digits folded to `N`;
//! `vcsw` and `ivcsw` are its voluntary and involuntary context switches
//! (`/proc/thread-self/status`) and `cpu_ns` its CPU time
//! (`/proc/thread-self/schedstat`). `takes` counts the thread's backlog
//! takes ([`crate::conduit::Conduit::recv_queued`]: a gateway's polling
//! turn, an endpoint's landing of a gateway's backlog), `taken` the
//! packets they took and `ones` the takes of exactly one packet. `opens`
//! counts the credit-ledger accounts the thread opened
//! ([`crate::credit::CreditLedger::open`]: a writer's stream that sent a
//! train ahead of its end, a gateway's relayed stream on a non-final hop).
//! `scripts/census.sh` sums the lines by role, or with `--names` by thread
//! name. The default build spawns its threads without any of this.

use std::cell::Cell;
use std::io::Write;

thread_local! {
    /// This thread's backlog takes: (takes, packets taken, takes of one).
    static TAKES: Cell<(u64, u64, u64)> = const { Cell::new((0, 0, 0)) };
    /// Credit-ledger accounts this thread opened.
    static OPENS: Cell<u64> = const { Cell::new(0) };
}

/// Count one credit-ledger account opened on this thread.
pub(crate) fn note_open() {
    OPENS.with(|n| n.set(n.get() + 1));
}

/// Count one backlog take of `packets` packets on this thread.
pub(crate) fn note_take(packets: usize) {
    TAKES.with(|t| {
        let (takes, taken, ones) = t.get();
        t.set((
            takes + 1,
            taken + packets as u64,
            ones + u64::from(packets == 1),
        ));
    });
}

/// `f`, followed by its thread's census line — also when `f` panics.
pub(crate) fn at_exit(f: Box<dyn FnOnce() + Send>) -> Box<dyn FnOnce() + Send> {
    Box::new(move || {
        let _line = AtExit;
        f()
    })
}

struct AtExit;

impl Drop for AtExit {
    fn drop(&mut self) {
        let Some(path) = std::env::var_os("MAD_CENSUS") else {
            return;
        };
        let line = line(std::thread::current().name().unwrap_or(""));
        // One append of one line: lines of threads that end together do
        // not interleave.
        if let Ok(mut file) = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
        {
            let _ = file.write_all(line.as_bytes());
        }
    }
}

/// The calling thread's census line, newline included.
fn line(name: &str) -> String {
    let status = std::fs::read_to_string("/proc/thread-self/status").unwrap_or_default();
    let field = |key: &str| {
        status
            .lines()
            .find_map(|l| l.strip_prefix(key))
            .and_then(|v| v.trim().parse::<u64>().ok())
            .unwrap_or(0)
    };
    let cpu_ns = std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .unwrap_or(0);
    let name: String = name.chars().filter(|c| *c != '"' && *c != '\\').collect();
    let (takes, taken, ones) = TAKES.with(Cell::get);
    let opens = OPENS.with(Cell::get);
    format!(
        "{{\"role\":\"{}\",\"name\":\"{name}\",\"vcsw\":{},\"ivcsw\":{},\"cpu_ns\":{cpu_ns},\
         \"takes\":{takes},\"taken\":{taken},\"ones\":{ones},\"opens\":{opens}}}\n",
        role(&name),
        field("voluntary_ctxt_switches:"),
        field("nonvoluntary_ctxt_switches:"),
    )
}

/// `name` with every run of digits folded to one `N`.
fn role(name: &str) -> String {
    let mut role = String::with_capacity(name.len());
    let mut in_digits = false;
    for c in name.chars() {
        if !c.is_ascii_digit() {
            role.push(c);
        } else if !in_digits {
            role.push('N');
        }
        in_digits = c.is_ascii_digit();
    }
    role
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::Runtime;

    #[test]
    fn census_role_folds_digit_runs() {
        assert_eq!(role("gw12-vc-in-net0"), "gwN-vc-in-netN");
        assert_eq!(role("node3"), "nodeN");
        assert_eq!(role("resp-vc-1"), "resp-vc-N");
    }

    /// The census of a child process: a thread spawned through the
    /// runtime writes its line to `MAD_CENSUS` at its exit. The child is
    /// this test binary again, running only [`census_child`] with the
    /// variable set, so this process's environment is left as it is.
    #[test]
    fn census_a_spawned_thread_writes_its_line() {
        let path = std::env::temp_dir().join(format!("mad-census-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let out = std::process::Command::new(std::env::current_exe().unwrap())
            .args(["--exact", "census::tests::census_child", "--test-threads=1"])
            .env("MAD_CENSUS", &path)
            .output()
            .unwrap();
        assert!(out.status.success(), "child failed: {out:?}");
        let text = std::fs::read_to_string(&path).unwrap_or_default();
        let _ = std::fs::remove_file(&path);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 1, "one line, from the spawned thread: {text}");
        let l = lines[0];
        assert!(
            l.starts_with("{\"role\":\"probeN-netN\",\"name\":\"probe7-net12\","),
            "{l}"
        );
        let num = |key: &str| -> u64 {
            let at = l.find(&format!("\"{key}\":")).unwrap() + key.len() + 3;
            l[at..].split([',', '}']).next().unwrap().parse().unwrap()
        };
        assert!(num("vcsw") >= 1, "the thread slept once: {l}");
        assert!(num("cpu_ns") > 0, "{l}");
        let _ = num("ivcsw");
        // Three takes: of one packet, of four, of one.
        assert_eq!([num("takes"), num("taken"), num("ones")], [3, 6, 2], "{l}");
        assert_eq!(num("opens"), 2, "two ledger accounts opened: {l}");
    }

    /// Does nothing unless `MAD_CENSUS` is set: the child of the test above.
    #[test]
    fn census_child() {
        if std::env::var_os("MAD_CENSUS").is_none() {
            return;
        }
        let rt = crate::StdRuntime::default();
        rt.spawn(
            "probe7-net12".into(),
            Box::new(|| {
                for packets in [1, 4, 1] {
                    note_take(packets);
                }
                let ledger = crate::credit::CreditLedger::new(crate::StdRuntime::shared().event());
                for key in [(7, 1), (7, 2)] {
                    ledger.open(key, 8);
                    ledger.close(key);
                }
                std::thread::sleep(std::time::Duration::from_millis(2))
            }),
        )
        .join()
        .unwrap();
    }
}
