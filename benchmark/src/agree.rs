//! A/A report: two sets of runs of one build, read back from the
//! `result.json` copies `agree.sh` keeps as `<set>.<workload>.<k>.json`.
//! Prints, per workload × end-to-end metric, each set's spread (calibrated
//! and raw side by side) and the difference of the two medians beside the
//! bound; the exit code says whether the benchmark agrees with itself.

use std::collections::BTreeMap;
use std::path::Path;

use crate::json::{self, Value};
use crate::report::END_TO_END;
use crate::stats::{median, spread};
use crate::workload::WORKLOADS;

/// A calibrated ten-run spread above this fails the check.
const MAX_SPREAD: f64 = 0.10;
/// `ref.in_session_ratio` must stay inside this on every run.
const IN_SESSION: std::ops::RangeInclusive<f64> = 0.8..=1.25;

/// metric name → values, one per run.
type Values = BTreeMap<String, Vec<f64>>;

fn load(dir: &Path) -> Result<BTreeMap<(String, String), Values>, String> {
    let mut sets: BTreeMap<(String, String), Values> = BTreeMap::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut paths: Vec<_> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for path in paths {
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default();
        let mut parts = name.split('.');
        let (Some(set), Some(workload), Some(_), Some("json")) =
            (parts.next(), parts.next(), parts.next(), parts.next())
        else {
            continue;
        };
        let text = std::fs::read_to_string(&path).map_err(|e| format!("{name}: {e}"))?;
        let doc = json::parse(&text).map_err(|e| format!("{name}: {e}"))?;
        let run = doc
            .get("runs")
            .and_then(Value::arr)
            .and_then(|r| r.first())
            .ok_or(format!("{name}: no run"))?;
        if run.get("correct") != Some(&Value::Bool(true)) {
            return Err(format!("{name}: the run was not correct"));
        }
        let values = sets.entry((set.into(), workload.into())).or_default();
        for m in run.get("metrics").and_then(Value::arr).unwrap_or_default() {
            if let (Some(n), Some(v)) = (
                m.get("name").and_then(Value::str),
                m.get("value").and_then(Value::num),
            ) {
                values.entry(n.into()).or_default().push(v);
            }
        }
    }
    Ok(sets)
}

/// Print the table for the runs in `dir`; the process exit code.
pub fn report(dir: &Path) -> i32 {
    let sets = match load(dir) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("agree: {e}");
            return 2;
        }
    };
    let names: Vec<String> = {
        let mut n: Vec<String> = sets.keys().map(|k| k.0.clone()).collect();
        n.dedup();
        n
    };
    let [a, b] = &names[..] else {
        eprintln!(
            "agree: expected two sets of runs in {}, found {names:?}",
            dir.display()
        );
        return 2;
    };
    let mut ok = true;
    let fmt = |v: Option<f64>| v.map_or("     -".to_string(), |v| format!("{v:6.3}"));
    println!(
        "{:<17} {:<13} {:>5} | {:>6} {:>6} | {:>6} {:>6} | {:>12} {:>12} | {:>6} {:>5}",
        "workload",
        "metric",
        "runs",
        "cal A",
        "cal B",
        "raw A",
        "raw B",
        "median A",
        "median B",
        "diff",
        "bound"
    );
    for w in &WORKLOADS {
        let (Some(sa), Some(sb)) = (
            sets.get(&(a.clone(), w.name.to_string())),
            sets.get(&(b.clone(), w.name.to_string())),
        ) else {
            continue;
        };
        let empty = Vec::new();
        for def in &END_TO_END {
            let va = sa.get(def.name).unwrap_or(&empty);
            let vb = sb.get(def.name).unwrap_or(&empty);
            let raw = format!("raw.{}", def.name);
            let (ra, rb) = (
                sa.get(&raw).unwrap_or(&empty),
                sb.get(&raw).unwrap_or(&empty),
            );
            let (ma, mb) = (median(va), median(vb));
            // Worsening of B against A, as a share of A's median.
            let diff = ma.zip(mb).map(|(ma, mb)| {
                if def.better == "higher" {
                    (ma - mb) / ma
                } else {
                    (mb - ma) / ma
                }
            });
            let (spread_a, spread_b) = (spread(va), spread(vb));
            // One set's regression is the other's gain: gate on the size.
            let fail_diff = diff.is_none_or(|d| d.abs() > def.bound);
            let fail_spread = [spread_a, spread_b]
                .iter()
                .any(|s| s.is_some_and(|s| s > MAX_SPREAD));
            ok &= !(fail_diff || fail_spread);
            println!(
                "{:<17} {:<13} {:>2}+{:<2} | {} {} | {} {} | {:>12.4} {:>12.4} | {} {:>5.2}{}",
                w.name,
                def.name,
                va.len(),
                vb.len(),
                fmt(spread_a),
                fmt(spread_b),
                fmt(spread(ra)),
                fmt(spread(rb)),
                ma.unwrap_or(f64::NAN),
                mb.unwrap_or(f64::NAN),
                fmt(diff),
                def.bound,
                if fail_diff || fail_spread {
                    "  FAIL"
                } else {
                    ""
                }
            );
        }
        for (set, values) in [(a, sa), (b, sb)] {
            let ratios = values.get("ref.in_session_ratio").unwrap_or(&empty);
            let (lo, hi) = ratios
                .iter()
                .fold((f64::MAX, f64::MIN), |(lo, hi), &r| (lo.min(r), hi.max(r)));
            let inside = !ratios.is_empty() && IN_SESSION.contains(&lo) && IN_SESSION.contains(&hi);
            ok &= inside;
            println!(
                "{:<17} set {set}: ref.in_session_ratio {lo:.3} .. {hi:.3}{}",
                w.name,
                if inside {
                    ""
                } else {
                    "  FAIL (outside [0.8, 1.25])"
                }
            );
        }
    }
    println!(
        "spread = interquartile range / median of a set's runs; diff = worsening of B's median \
         against A's; a calibrated spread above {MAX_SPREAD} or a diff beyond the bound fails"
    );
    println!("{}", if ok { "AGREE" } else { "DISAGREE" });
    i32::from(!ok)
}
