//! `mad_top` — live cluster-wide telemetry viewer over the in-band
//! kind-10 metrics pull (DESIGN §13.3).
//!
//! Builds the simulated cluster-of-clusters (Myrinet {0,1,2} bridged to
//! SCI {2,3,4} by gateway 2), starts a bulk transfer 0 → 4, and has the
//! idle endpoint 1 act as the operator console: every refresh it pulls a
//! live snapshot from *every* node — requests and replies ride the
//! virtual channel's own special conduits, crossing the gateway like any
//! other control packet — and renders one per-node table: forward-latency
//! quantiles, outbound-queue occupancy, open relay streams, held bytes,
//! pool hit rate, thread budget, and watchdog degradations.
//!
//! By default the view refreshes several times while the transfer is in
//! flight (clearing the screen between frames, `top`-style). `--once`
//! renders a single mid-run frame with no screen clearing — the mode CI
//! uses. `--trace <path>` additionally exports the unified event trace,
//! whose teardown flush carries the `metrics:` track (`trace_check
//! --require metrics:` validates it). Exits non-zero if any node fails to
//! answer a pull.

use mad_bench::cli;
use mad_bench::report::fmt_bytes;
use mad_metrics::Snapshot;
use mad_sim::{SimTech, Testbed};
use madeleine::session::VcOptions;
use madeleine::{MetricsOptions, NodeId, RecvMode, SendMode, SessionBuilder};
use simnet::TraceLog;

const NODES: u32 = 5;
const MSGS: u32 = 16;
const LEN: usize = 512 * 1024;
/// Virtual time between console refreshes.
const REFRESH_NS: u64 = 10_000_000;

fn payload(idx: u32, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u8).wrapping_mul(31).wrapping_add(idx as u8))
        .collect()
}

/// One rendered frame: a row per node that answered the pull.
fn render(frame: usize, now_ns: u64, pulled: &std::collections::BTreeMap<NodeId, Snapshot>) {
    println!(
        "mad_top — frame {frame} @ {:.2} virtual ms, {} / {NODES} nodes answering",
        now_ns as f64 / 1e6,
        pulled.len()
    );
    println!(
        "{:>4}  {:>9} {:>9} {:>9} {:>7}  {:>11}  {:>4}  {:>9}  {:>5}  {:>3}  {:>4}",
        "node",
        "fwd p50",
        "fwd p99",
        "fwd max",
        "fwds",
        "queue cur/pk",
        "open",
        "held",
        "pool%",
        "thr",
        "degr"
    );
    for (node, snap) in pulled {
        let us = |v: u64| format!("{:.1}us", v as f64 / 1e3);
        let fwd = snap.hist("gw_forward_ns");
        let (q, qp) = snap.gauge("queue_depth").unwrap_or((0, 0));
        let (open, _) = snap.gauge("open_streams").unwrap_or((0, 0));
        let (held, _) = snap.gauge("gw_held_bytes").unwrap_or((0, 0));
        let gets = snap.gauge("pool_gets").map_or(0, |(v, _)| v);
        let hits = snap.gauge("pool_hits").map_or(0, |(v, _)| v);
        let pool = if gets > 0 {
            format!("{:.0}%", 100.0 * hits as f64 / gets as f64)
        } else {
            "-".to_string()
        };
        let thr = snap.gauge("rt_threads_spawned").map_or(0, |(v, _)| v);
        let degr = snap.counter("degradations").unwrap_or(0);
        println!(
            "{:>4}  {:>9} {:>9} {:>9} {:>7}  {:>11}  {:>4}  {:>9}  {:>5}  {:>3}  {:>4}",
            node.0,
            fwd.map_or("-".into(), |h| us(h.quantile(0.5))),
            fwd.map_or("-".into(), |h| us(h.quantile(0.99))),
            fwd.map_or("-".into(), |h| us(h.max)),
            fwd.map_or(0, |h| h.count()),
            format!("{q}/{qp}"),
            open,
            fmt_bytes(held.max(0) as usize),
            pool,
            thr,
            degr
        );
    }
    println!();
}

fn main() {
    let once = cli::flag("--once");
    let frames = if once { 1usize } else { 6 };
    let trace_to = cli::trace_path();

    // With `--trace <path>` the run also records the unified event trace,
    // whose teardown flush carries the `metrics:` track trace_check
    // validates (`--require metrics:` in CI).
    let trace = trace_to.as_ref().map(|_| TraceLog::new());
    let tb = match &trace {
        Some(t) => Testbed::with_trace(NODES as usize, t.clone()),
        None => Testbed::new(NODES as usize),
    };
    let mut sb = SessionBuilder::new(NODES).with_runtime(tb.runtime());
    let n0 = sb.network("myri", tb.driver(SimTech::Myrinet), &[0, 1, 2]);
    let n1 = sb.network("sci", tb.driver(SimTech::Sci), &[2, 3, 4]);
    sb.vchannel(
        "vc",
        &[n0, n1],
        VcOptions {
            mtu: Some(8 * 1024),
            metrics: Some(MetricsOptions),
            ..Default::default()
        },
    );

    // Per-rank result: (nodes answering the last pull, peak forward-
    // latency sample count observed across the rendered frames).
    let results = sb.run(move |node| {
        let vc = node.vchannel("vc");
        let rt = node.runtime().clone();
        node.barrier().wait();
        match node.rank().0 {
            0 => {
                for i in 0..MSGS {
                    let data = payload(i, LEN);
                    let mut w = vc.begin_packing(NodeId(4)).unwrap();
                    w.pack(&data, SendMode::Later, RecvMode::Cheaper).unwrap();
                    w.end_packing().unwrap();
                }
                (0usize, 0usize)
            }
            1 => {
                // The operator console: pull everyone, render, sleep a
                // refresh interval of virtual time, repeat — all while
                // the bulk transfer is crossing the gateway.
                let plane = vc.metrics_plane().expect("metrics enabled").clone();
                let targets: Vec<NodeId> = (0..NODES).map(NodeId).collect();
                let busy = |pulled: &std::collections::BTreeMap<NodeId, Snapshot>| {
                    pulled
                        .values()
                        .any(|s| s.hist("gw_forward_ns").is_some_and(|h| h.count() > 0))
                };
                // In the single-frame CI mode, wait until the gateway has
                // actually forwarded something so the one rendered frame
                // is genuinely mid-run.
                if once {
                    for _ in 0..200 {
                        if busy(&plane.pull(&targets, 1_000_000_000)) {
                            break;
                        }
                        let ev = rt.event();
                        ev.wait_past_timeout(ev.epoch(), REFRESH_NS / 10);
                    }
                }
                let mut answered = 0usize;
                let mut fwds_seen = 0u64;
                for f in 0..frames {
                    let pulled = plane.pull(&targets, 1_000_000_000);
                    if !once {
                        // top-style repaint: clear and home.
                        print!("\x1b[2J\x1b[H");
                    }
                    render(f, rt.now_nanos(), &pulled);
                    answered = pulled.len();
                    fwds_seen = fwds_seen.max(
                        pulled
                            .values()
                            .filter_map(|s| s.hist("gw_forward_ns"))
                            .map(|h| h.count())
                            .max()
                            .unwrap_or(0),
                    );
                    if f + 1 < frames {
                        let ev = rt.event();
                        ev.wait_past_timeout(ev.epoch(), REFRESH_NS);
                    }
                }
                (answered, fwds_seen as usize)
            }
            4 => {
                for i in 0..MSGS {
                    let mut buf = vec![0u8; LEN];
                    let mut r = vc.begin_unpacking().unwrap();
                    r.unpack(&mut buf, SendMode::Later, RecvMode::Cheaper)
                        .unwrap();
                    r.end_unpacking().unwrap();
                    assert_eq!(buf, payload(i, LEN), "payload #{i} corrupted");
                }
                (0, 0)
            }
            _ => (0, 0),
        }
    });

    let (answered, fwds) = results[1];
    println!(
        "mad_top: {frames} frame(s), last pull answered by {answered}/{NODES} nodes, \
         {fwds} forwards observed"
    );
    assert_eq!(
        answered, NODES as usize,
        "a node failed to answer the in-band pull"
    );
    assert!(fwds > 0, "no frame caught the gateway mid-forwarding");
    if let (Some(t), Some(path)) = (&trace, &trace_to) {
        cli::export_trace(&t.tracer().snapshot(), path);
    }
}
