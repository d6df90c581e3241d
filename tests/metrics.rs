//! Live telemetry plane: in-band cluster pulls over the paper's
//! simulated cluster-of-clusters, health watchdogs under injected
//! faults, seeded histogram properties, and the `metrics:`/`health:`
//! trace tracks.

use std::collections::BTreeMap;

use mad_metrics::Snapshot;
use mad_sim::{SimTech, Testbed};
use mad_util::hist::AtomicHistogram;
use mad_util::rng::Rng;
use madeleine::gateway::GatewayConfig;
use madeleine::mad_trace::schema::{validate_jsonl, validate_tracks};
use madeleine::session::{trace_tables, VcOptions};
use madeleine::{MetricsOptions, NodeId, RecvMode, SendMode, SessionBuilder};
use simnet::TraceLog;

/// Root seed of the randomized pieces; override with
/// `MAD_SOAK_SEED=<u64>` (CI pins one fixed value).
fn soak_seed() -> u64 {
    std::env::var("MAD_SOAK_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0x4D41_4445)
}

fn payload(n: usize, seed: u8) -> Vec<u8> {
    (0..n)
        .map(|i| (i as u8).wrapping_mul(13).wrapping_add(seed))
        .collect()
}

/// Cluster-of-clusters pull: net0 {0,1,2} and net1 {2,3,4} bridged by
/// gateway 2. While a bulk transfer runs 0 → 4, endpoint 1 pulls every
/// node's registry in-band (requests and replies relayed through the
/// gateway for the far cluster) and the gateway pulls a remote endpoint
/// itself. Every snapshot must arrive, and the gateway's must show the
/// forward-latency histogram populated by the traffic.
#[test]
fn in_band_pull_across_clusters_threaded() {
    const MSG: usize = 300_000;

    let tb = Testbed::new(5);
    let mut sb = SessionBuilder::new(5).with_runtime(tb.runtime());
    let n0 = sb.network("myri", tb.driver(SimTech::Myrinet), &[0, 1, 2]);
    let n1 = sb.network("sci", tb.driver(SimTech::Sci), &[2, 3, 4]);
    sb.vchannel(
        "vc",
        &[n0, n1],
        VcOptions {
            mtu: Some(8 * 1024),
            gateway: GatewayConfig {
                credit_window: Some(8),
                ..Default::default()
            },
            metrics: Some(MetricsOptions),
            ..Default::default()
        },
    );
    let results = sb.run(move |node| {
        let vc = node.vchannel("vc");
        node.barrier().wait();
        let out: BTreeMap<NodeId, Snapshot> = match node.rank().0 {
            0 => {
                let data = payload(MSG, 5);
                let mut w = vc.begin_packing(NodeId(4)).unwrap();
                w.pack(&data, SendMode::Later, RecvMode::Cheaper).unwrap();
                w.end_packing().unwrap();
                BTreeMap::new()
            }
            4 => {
                let mut buf = vec![0u8; MSG];
                let mut r = vc.begin_unpacking().unwrap();
                r.unpack(&mut buf, SendMode::Later, RecvMode::Cheaper)
                    .unwrap();
                r.end_unpacking().unwrap();
                BTreeMap::new()
            }
            _ => BTreeMap::new(),
        };
        // Everyone waits for the transfer to finish, then the observers
        // pull: endpoint 1 sweeps the whole cluster (both sides of the
        // gateway), the gateway node pulls a far endpoint itself.
        node.barrier().wait();
        let plane = vc.metrics_plane().expect("metrics enabled").clone();
        let pulled = match node.rank().0 {
            1 => plane.pull(
                &[NodeId(0), NodeId(1), NodeId(2), NodeId(3), NodeId(4)],
                1_000_000_000,
            ),
            2 => plane.pull(&[NodeId(2), NodeId(3)], 1_000_000_000),
            _ => BTreeMap::new(),
        };
        drop(out);
        pulled
    });

    // Endpoint 1 saw all five nodes.
    let swept = &results[1];
    assert_eq!(
        swept.keys().copied().collect::<Vec<_>>(),
        vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3), NodeId(4)],
        "endpoint pull missed nodes"
    );
    // The gateway's snapshot shows the traffic in its forward-latency
    // histogram and a live thread-budget gauge.
    let gw = &swept[&NodeId(2)];
    let fwd = gw
        .hist("gw_forward_ns")
        .expect("gateway snapshot lacks gw_forward_ns");
    assert!(fwd.count() > 0, "no forward latencies recorded");
    let (threads, _) = gw
        .gauge("rt_threads_spawned")
        .expect("gateway snapshot lacks rt_threads_spawned");
    assert!(threads > 0, "thread-budget gauge never refreshed");
    // All streams closed by pull time.
    let (open, _) = gw.gauge("open_streams").unwrap_or((0, 0));
    assert_eq!(open, 0, "streams left open after the transfer");
    // The gateway's own two-node pull (itself plus a far endpoint).
    let gw_pull = &results[2];
    assert_eq!(
        gw_pull.keys().copied().collect::<Vec<_>>(),
        vec![NodeId(2), NodeId(3)],
        "gateway pull missed nodes"
    );
}

/// Watchdog soak under an injected fault: a two-gateway chain
/// 0 → 1 → 2 → 3 whose receiver never drains. Gateway 2 jams against
/// the silent sink, stops granting credits upstream, and gateway 1's
/// outbound window — a *non-final* hop, so every fragment consumes a
/// credit — runs dry until its 50 virtual ms deadline (ten watchdog
/// ticks) cancels the stream. Exactly the matching detectors must
/// fire on gateway 1: `credit_starvation` is mandatory,
/// `stalled_stream` accompanies it (the stream sits open making no
/// progress), and `dead_path_flap` (a multi-path signal with no
/// multi-path configured) is forbidden; the trace gains well-formed
/// `health:` and `metrics:` tracks.
#[test]
fn watchdog_fires_on_injected_credit_starvation() {
    const DOOMED: usize = 128 * 1024;

    let trace = TraceLog::new();
    let tracer = trace.tracer().clone();
    let tb = Testbed::with_trace(4, trace);

    let mut sb = SessionBuilder::new(4).with_runtime(tb.runtime());
    let n0 = sb.network("myri", tb.driver(SimTech::Myrinet), &[0, 1]);
    let n1 = sb.network("sci", tb.driver(SimTech::Sci), &[1, 2]);
    let n2 = sb.network("fe", tb.driver(SimTech::FastEthernet), &[2, 3]);
    sb.vchannel(
        "vc",
        &[n0, n1, n2],
        VcOptions {
            mtu: Some(4096),
            gateway: GatewayConfig {
                credit_window: Some(4),
                credit_timeout_ns: 50_000_000,
                drain_timeout_ns: 100_000_000,
                ..Default::default()
            },
            metrics: Some(MetricsOptions),
            ..Default::default()
        },
    );
    let results = sb.run(move |node| {
        let vc = node.vchannel("vc");
        node.barrier().wait();
        if node.rank().0 == 0 {
            // Rank 3 never unpacks: the chain jams and the stream must
            // degrade into a typed error back here.
            let data = payload(DOOMED, 9);
            let r = (|| {
                let mut w = vc.begin_packing(NodeId(3))?;
                w.pack(&data, SendMode::Later, RecvMode::Cheaper)?;
                w.end_packing()
            })();
            assert!(r.is_err(), "stream into a stalled sink must fail typed");
        }
    });
    drop(results);

    let totals = tracer.snapshot().counter_totals();
    let health = |name: &str| -> i64 {
        totals
            .get(&(
                "health:vc@1".to_string(),
                "health".to_string(),
                name.to_string(),
            ))
            .copied()
            .unwrap_or(0)
    };
    assert!(
        health("credit_starvation") >= 1,
        "watchdog missed the injected credit starvation: {totals:?}"
    );
    assert!(
        health("stalled_stream") >= 1,
        "watchdog missed the stalled stream: {totals:?}"
    );
    assert_eq!(
        health("dead_path_flap"),
        0,
        "dead_path_flap fired without a multi-path plane"
    );

    // The whole trace (including the new tracks) validates, and the
    // teardown registry flush produced `metrics:` events.
    let jsonl = tracer.snapshot().to_jsonl_string();
    validate_jsonl(&jsonl).expect("trace must validate");
    let tracks = validate_tracks(&jsonl, &trace_tables()).expect("typed tracks must validate");
    assert!(tracks["health:"] >= 1, "no health events in the trace");
    assert!(
        tracks["metrics:"] > 0,
        "no metrics events in the trace teardown flush"
    );
}

/// Clean-run control for the soak above: identical topology and
/// thresholds, no fault — the watchdog must stay silent.
#[test]
fn watchdog_silent_on_clean_run() {
    const MSG: usize = 200_000;

    let trace = TraceLog::new();
    let tracer = trace.tracer().clone();
    let tb = Testbed::with_trace(5, trace);

    let mut sb = SessionBuilder::new(5).with_runtime(tb.runtime());
    let n0 = sb.network("myri", tb.driver(SimTech::Myrinet), &[0, 1, 2]);
    let n1 = sb.network("sci", tb.driver(SimTech::Sci), &[2, 3, 4]);
    sb.vchannel(
        "vc",
        &[n0, n1],
        VcOptions {
            mtu: Some(4096),
            gateway: GatewayConfig {
                credit_window: Some(4),
                credit_timeout_ns: 50_000_000,
                drain_timeout_ns: 100_000_000,
                ..Default::default()
            },
            metrics: Some(MetricsOptions),
            ..Default::default()
        },
    );
    let ok = sb.run(move |node| {
        let vc = node.vchannel("vc");
        node.barrier().wait();
        match node.rank().0 {
            1 => {
                let data = payload(MSG, 3);
                let mut w = vc.begin_packing(NodeId(4)).unwrap();
                w.pack(&data, SendMode::Later, RecvMode::Cheaper).unwrap();
                w.end_packing().unwrap();
                true
            }
            4 => {
                let mut buf = vec![0u8; MSG];
                let mut r = vc.begin_unpacking().unwrap();
                r.unpack(&mut buf, SendMode::Later, RecvMode::Cheaper)
                    .unwrap();
                r.end_unpacking().unwrap();
                buf == payload(MSG, 3)
            }
            _ => true,
        }
    });
    assert!(ok.into_iter().all(|x| x));

    let totals = tracer.snapshot().counter_totals();
    for ((track, cat, name), v) in &totals {
        assert!(
            !track.starts_with("health:"),
            "watchdog fired on a clean run: {track}/{cat}/{name} = {v}"
        );
    }
}

/// Seeded property test of the log2 histogram: for random sample sets,
/// the snapshot's count/sum/max are exact, quantiles are monotone in q,
/// every quantile is bracketed by the true min and max, and recording
/// two halves then merging equals recording everything into one.
#[test]
fn histogram_properties_hold_for_random_samples() {
    let mut rng = Rng::new(soak_seed() ^ 0x4849_5354);
    for round in 0..50 {
        let n = rng.gen_range(1..400usize);
        // Mix magnitudes so buckets from 0 to 2^40 get exercised.
        let samples: Vec<u64> = (0..n)
            .map(|_| {
                let shift = rng.gen_range(0..41u32);
                (rng.gen_range(0..u32::MAX as u64 as usize) as u64) >> (31u32.saturating_sub(shift))
            })
            .collect();

        let whole = AtomicHistogram::new();
        let lo = AtomicHistogram::new();
        let hi = AtomicHistogram::new();
        for (i, &s) in samples.iter().enumerate() {
            whole.record(s);
            if i % 2 == 0 {
                lo.record(s);
            } else {
                hi.record(s);
            }
        }

        let snap = whole.snapshot();
        assert_eq!(snap.count(), n as u64, "round {round}: count");
        assert_eq!(snap.sum, samples.iter().sum::<u64>(), "round {round}: sum");
        let true_max = *samples.iter().max().unwrap();
        let true_min = *samples.iter().min().unwrap();
        assert_eq!(snap.max, true_max, "round {round}: max");

        // Quantiles: monotone, bracketed by the true extremes (log2
        // buckets can only round *up* within a bucket, and the top
        // bucket is clamped to the true max).
        let mut prev = 0;
        for q in [0.0, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            let v = snap.quantile(q);
            assert!(v >= prev, "round {round}: quantile not monotone at {q}");
            assert!(v <= true_max, "round {round}: quantile above max at {q}");
            prev = v;
        }
        assert!(
            snap.quantile(0.0) >= true_min / 2,
            "round {round}: q0 below its bucket's lower bound"
        );

        // Merge of the halves is exactly the whole.
        let mut merged = lo.snapshot();
        merged.merge(&hi.snapshot());
        assert_eq!(merged, snap, "round {round}: merge mismatch");
    }
}
