//! A10 — cost of the telemetry plane: the same forwarded traffic with
//! the metrics registry fully instrumented vs. disabled, plus the raw
//! per-operation price of the registry primitives.
//!
//! Two traffic shapes, both the paper's 3-node cluster-of-clusters
//! (SCI → gateway → Myrinet):
//!
//! 1. **fig. 6-style bulk** — one 8 MB message, the bandwidth-bound
//!    regime where a per-fragment histogram record is amortized over an
//!    8 KB copy.
//! 2. **short messages** — a train of 4 KB sends, the latency-bound
//!    regime where fixed per-fragment costs hurt most.
//!
//! Each shape runs with `metrics: None` (baseline — no registry, no
//! watchdog, no instrumentation reached) and `metrics: Some(default)`
//! (histograms + gauges + watchdog live). The modeled (virtual-clock)
//! throughput delta is asserted `< 2%`: instrumentation charges no
//! virtual cost, so any drift would mean the telemetry plane changed
//! the forwarding schedule itself. Host-side cost is bounded separately:
//! the measured ns/op of the registry primitives times the ops per
//! forwarded fragment must stay under 2% of the modeled per-fragment
//! forwarding time.
//!
//! Compiled with `--features mad-metrics/noop` the same binary measures
//! the compiled-out registry (every record is a no-op; the wire format
//! and handles survive) and writes its CSVs under `*_noop` names —
//! committing both runs documents the full on/noop/off ladder.
//! `--smoke` shrinks the grid and skips the CSVs.

use std::time::Instant;

use mad_bench::cli;
use mad_bench::report::{fmt_bytes, Table};
use mad_sim::{SimTech, Testbed};
use madeleine::session::VcOptions;
use madeleine::{MetricsOptions, NodeId, RecvMode, SendMode, SessionBuilder};

/// Registry touches on the forwarding fast path per fragment: forward
/// histogram, credit-wait histogram, queue-depth add/sub, held-bytes
/// add/sub, and two pool gauges — a deliberate overcount.
const OPS_PER_FRAGMENT: f64 = 8.0;

/// One forwarded run: `msgs` messages of `len` bytes, rank 0 → rank 2
/// across the gateway. Returns (virtual seconds first-send → last-recv,
/// wall-clock seconds of the whole session).
fn run_forwarded(msgs: u32, len: usize, metrics_on: bool) -> (f64, f64) {
    let tb = Testbed::new(3);
    let mut sb = SessionBuilder::new(3).with_runtime(tb.runtime());
    let n_in = sb.network("sci", tb.driver(SimTech::Sci), &[0, 1]);
    let n_out = sb.network("myri", tb.driver(SimTech::Myrinet), &[1, 2]);
    sb.vchannel(
        "vc",
        &[n_in, n_out],
        VcOptions {
            mtu: Some(8 * 1024),
            metrics: metrics_on.then_some(MetricsOptions),
            ..Default::default()
        },
    );
    let wall = Instant::now();
    let stamps = sb.run(move |node| {
        let vc = node.vchannel("vc");
        let rt = node.runtime().clone();
        node.barrier().wait();
        match node.rank().0 {
            0 => {
                let t0 = rt.now_nanos();
                let data = vec![0xA5u8; len];
                for _ in 0..msgs {
                    let mut w = vc.begin_packing(NodeId(2)).unwrap();
                    w.pack(&data, SendMode::Later, RecvMode::Cheaper).unwrap();
                    w.end_packing().unwrap();
                }
                t0
            }
            2 => {
                let mut buf = vec![0u8; len];
                for _ in 0..msgs {
                    let mut r = vc.begin_unpacking().unwrap();
                    r.unpack(&mut buf, SendMode::Later, RecvMode::Cheaper)
                        .unwrap();
                    r.end_unpacking().unwrap();
                }
                assert!(buf.iter().all(|&b| b == 0xA5), "payload corrupted");
                rt.now_nanos()
            }
            _ => 0,
        }
    });
    let virt = (stamps[2] - stamps[0]) as f64 / 1e9;
    (virt, wall.elapsed().as_secs_f64())
}

/// Best-of-`reps` for both clocks; the virtual time is deterministic
/// (identical every rep — asserted), the wall clock takes the minimum as
/// the standard noise-resistant estimator.
fn best_of(reps: usize, msgs: u32, len: usize, metrics_on: bool) -> (f64, f64) {
    let mut virt = f64::INFINITY;
    let mut wall = f64::INFINITY;
    for _ in 0..reps {
        let (v, w) = run_forwarded(msgs, len, metrics_on);
        if virt.is_finite() {
            assert!(
                (v - virt).abs() < 1e-12,
                "virtual clock must be deterministic across reps"
            );
        }
        virt = virt.min(v);
        wall = wall.min(w);
    }
    (virt, wall)
}

/// Wall-clock ns per registry operation, measured over `iters` calls.
fn ns_per_op(iters: u64, mut op: impl FnMut(u64)) -> f64 {
    let t = Instant::now();
    for i in 0..iters {
        op(i);
    }
    t.elapsed().as_nanos() as f64 / iters as f64
}

fn main() {
    let smoke = cli::flag("--smoke");
    let reps = if smoke { 3 } else { 5 };
    let mode = if mad_metrics::COMPILED_IN {
        "full"
    } else {
        "noop"
    };
    println!("A10 metrics overhead — registry compiled: {mode}");

    // 1. Registry primitives, straight-line cost per call.
    let iters: u64 = if smoke { 200_000 } else { 2_000_000 };
    let reg = mad_metrics::Registry::new();
    let (c, g, h) = (
        reg.counter("bench_counter"),
        reg.gauge("bench_gauge"),
        reg.histogram("bench_hist"),
    );
    let c_ns = ns_per_op(iters, |i| c.add(i & 1));
    let g_ns = ns_per_op(iters, |i| g.set(i as i64));
    let h_ns = ns_per_op(iters, |i| h.record(i.wrapping_mul(0x9E37_79B9)));
    let mut ops = Table::new(
        format!("A10 registry primitives ({iters} calls each, compiled: {mode})"),
        &["op", "ns/call"],
    );
    ops.row(vec!["counter.add".into(), format!("{c_ns:.1}")]);
    ops.row(vec!["gauge.set".into(), format!("{g_ns:.1}")]);
    ops.row(vec!["hist.record".into(), format!("{h_ns:.1}")]);
    ops.print();

    // 2. The two traffic shapes, metrics off vs. on.
    let bulk_len = if smoke { 1 << 20 } else { 8 << 20 };
    let (short_msgs, short_len) = if smoke { (64u32, 4096) } else { (256u32, 4096) };
    let mut tbl = Table::new(
        format!(
            "A10 forwarded throughput, metrics off vs. on — bulk 1 x {}, short {short_msgs} x {} (compiled: {mode})",
            fmt_bytes(bulk_len),
            fmt_bytes(short_len)
        ),
        &["shape", "metrics", "virtual MB/s", "wall ms (min)", "virt delta"],
    );
    let mut shapes = Vec::new();
    for (shape, msgs, len) in [("bulk", 1u32, bulk_len), ("short", short_msgs, short_len)] {
        let (off_v, off_w) = best_of(reps, msgs, len, false);
        let (on_v, on_w) = best_of(reps, msgs, len, true);
        let total = msgs as usize * len;
        let off_mbps = total as f64 / off_v / 1e6;
        let on_mbps = total as f64 / on_v / 1e6;
        let delta = on_v / off_v - 1.0;
        for (cfg, mbps, w, d) in [
            ("off", off_mbps, off_w, None),
            ("on", on_mbps, on_w, Some(delta)),
        ] {
            tbl.row(vec![
                shape.into(),
                cfg.into(),
                format!("{mbps:.1}"),
                format!("{:.1}", w * 1e3),
                d.map_or("-".into(), |d| format!("{:+.3}%", d * 100.0)),
            ]);
        }
        assert!(
            delta.abs() < 0.02,
            "{shape}: instrumentation changed the modeled schedule by {:.2}% (>= 2%)",
            delta * 100.0
        );
        shapes.push((shape, on_v, total));
    }
    tbl.print();

    // 3. Host-side bound: registry cost per fragment vs. the modeled
    //    per-fragment forwarding time of the bulk run.
    let (_, bulk_v, bulk_total) = shapes[0];
    let frags = (bulk_total as f64 / (8.0 * 1024.0)).ceil();
    let frag_ns = bulk_v * 1e9 / frags;
    let instr_ns = OPS_PER_FRAGMENT * h_ns.max(c_ns).max(g_ns);
    let ratio = instr_ns / frag_ns;
    println!(
        "\nper-fragment bound: {OPS_PER_FRAGMENT} ops x {:.1} ns = {instr_ns:.0} ns \
         vs {frag_ns:.0} ns modeled forwarding -> {:.3}% overhead",
        h_ns.max(c_ns).max(g_ns),
        ratio * 100.0
    );
    assert!(
        ratio < 0.02,
        "registry cost per fragment is {:.2}% of the forwarding time (>= 2%)",
        ratio * 100.0
    );

    if !smoke {
        let suffix = if mad_metrics::COMPILED_IN {
            ""
        } else {
            "_noop"
        };
        ops.write_csv(&format!("a10_metrics_registry_ops{suffix}"));
        tbl.write_csv(&format!("a10_metrics_overhead{suffix}"));
    }
    println!("\nA10: metrics overhead < 2% on both shapes (compiled: {mode})");
}
