//! The thread-role census (cargo feature `census`, off by default).
//!
//! Every thread [`crate::StdRuntime`] spawns appends one JSON line at its
//! exit to the file named by `MAD_CENSUS` (nothing when it is unset):
//!
//! ```text
//! {"role":"gwN-vc-in-netN","name":"gw1-vc-in-net0","vcsw":12,"ivcsw":3,"cpu_ns":81234}
//! ```
//!
//! `role` is the thread's name with every run of digits folded to `N`;
//! `vcsw` and `ivcsw` are its voluntary and involuntary context switches
//! (`/proc/thread-self/status`) and `cpu_ns` its CPU time
//! (`/proc/thread-self/schedstat`). `scripts/census.sh` sums the lines by
//! role. The default build spawns its threads without any of this.

use std::io::Write;

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
    format!(
        "{{\"role\":\"{}\",\"name\":\"{name}\",\"vcsw\":{},\"ivcsw\":{},\"cpu_ns\":{cpu_ns}}}\n",
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
            Box::new(|| std::thread::sleep(std::time::Duration::from_millis(2))),
        )
        .join()
        .unwrap();
    }
}
