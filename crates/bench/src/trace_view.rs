//! ASCII rendering and statistics of gateway pipeline traces
//! (figures 5 and 8).
//!
//! Both renderers consume a unified [`mad_trace::Snapshot`] and look only
//! at `driver` spans (link/PCI activity recorded by the simulator or a
//! real driver), so sim and real traces go through the same code path.

use mad_trace::{EventKind, Snapshot};

use crate::report::Table;

/// `(start_ns, end_ns)` of every `driver/<name>` span on `track`.
fn driver_spans(snap: &Snapshot, track: &str, name: &str) -> Vec<(u64, u64)> {
    let mut out = Vec::new();
    for t in &snap.threads {
        if t.name != track {
            continue;
        }
        for e in &t.events {
            if e.kind == EventKind::Span && e.cat == "driver" && e.name == name {
                out.push((e.ts_ns, e.ts_ns + e.dur_ns));
            }
        }
    }
    out
}

/// Render the gateway's recv/send/copy/overhead spans as a four-lane ASCII
/// timeline (the visual analogue of the paper's figures 5 and 8). Copies
/// get their own lane: they used to share the overhead lane and overwrite
/// its marks, hiding the buffer-switch gaps the figures are about.
pub fn print_gateway_timeline(snap: &Snapshot, recv_label: &str, send_label: &str) {
    let lanes = [
        ("recv  ", 'R', driver_spans(snap, recv_label, "recv")),
        ("send  ", 'S', driver_spans(snap, send_label, "send")),
        ("copy  ", 'c', driver_spans(snap, recv_label, "copy")),
        ("sw-ovh", 'o', driver_spans(snap, recv_label, "overhead")),
    ];
    let all: Vec<(u64, u64)> = lanes.iter().flat_map(|l| l.2.iter().copied()).collect();
    let Some(first) = all.iter().map(|s| s.0).min() else {
        println!("(no gateway spans recorded)");
        return;
    };
    let last = all.iter().map(|s| s.1).max().unwrap();
    let width = 100usize;
    let scale = |t: u64| {
        ((t - first) as f64 / (last - first).max(1) as f64 * (width - 1) as f64).round() as usize
    };
    println!(
        "\ntimeline over {:.1} ms ({} spans):",
        (last - first) as f64 / 1e6,
        all.len()
    );
    for (name, ch, spans) in &lanes {
        let mut cells = vec![' '; width];
        for &(a, b) in spans {
            for cell in &mut cells[scale(a)..=scale(b).min(width - 1)] {
                *cell = *ch;
            }
        }
        println!("{name}|{}|", cells.iter().collect::<String>());
    }
}

/// Per-kind step duration statistics (the paper's 290 µs vs 540 µs step
/// analysis of §3.4.1). Returns (mean recv µs, mean send µs).
pub fn step_stats(snap: &Snapshot, recv_label: &str, send_label: &str, csv: &str) -> (f64, f64) {
    let mut table = Table::new(
        "gateway step durations (µs)",
        &["step", "count", "mean", "min", "max"],
    );
    let mut means = [0.0f64; 2];
    for (i, (name, label, kind)) in [
        ("recv", recv_label, "recv"),
        ("send", send_label, "send"),
        ("copy", recv_label, "copy"),
        ("switch-overhead", recv_label, "overhead"),
    ]
    .into_iter()
    .enumerate()
    {
        let durs: Vec<f64> = driver_spans(snap, label, kind)
            .iter()
            .map(|&(a, b)| (b - a) as f64 / 1e3)
            .collect();
        if durs.is_empty() {
            continue;
        }
        let mean = durs.iter().sum::<f64>() / durs.len() as f64;
        if i < 2 {
            means[i] = mean;
        }
        let min = durs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = durs.iter().cloned().fold(0.0, f64::max);
        table.row(vec![
            name.into(),
            durs.len().to_string(),
            format!("{mean:.1}"),
            format!("{min:.1}"),
            format!("{max:.1}"),
        ]);
    }
    table.print();
    table.write_csv(csv);
    (means[0], means[1])
}
