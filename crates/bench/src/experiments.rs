//! Reusable experiment runners over the simulated testbed.
//!
//! Every runner builds a fresh 3-node cluster-of-clusters (rank 0 on the
//! source network, rank 1 the gateway with both NICs, rank 2 on the
//! destination network), exactly the paper's §3 setup, and measures the
//! one-way transmission time of a single message on the shared virtual
//! clock. The paper derived one-way times from a ping with a Fast-Ethernet
//! ack of known latency; with a global deterministic clock we read the
//! one-way time directly, which is the same quantity without the
//! subtraction step.

use crate::baseline;
use mad_sim::{SimDriver, SimTech, Testbed};
use madeleine::gateway::GatewayConfig;
use madeleine::session::VcOptions;
use madeleine::{NodeId, RecvMode, SendMode, SessionBuilder};
use simnet::{calibration, NetParams, TraceLog};

/// Result of one one-way transfer.
#[derive(Debug, Clone, Copy)]
pub struct Measurement {
    /// Payload bytes moved.
    pub bytes: usize,
    /// One-way time in (virtual) seconds.
    pub seconds: f64,
}

impl Measurement {
    /// Achieved bandwidth in MB/s (the paper's unit: 1e6 bytes/second).
    pub fn mbps(&self) -> f64 {
        self.bytes as f64 / self.seconds / 1e6
    }

    /// One-way time in microseconds.
    fn micros(&self) -> f64 {
        self.seconds * 1e6
    }
}

/// Gateway-path configuration of a forwarded-transfer experiment.
#[derive(Debug, Clone, Copy)]
pub struct GwSetup {
    /// GTM fragment size (the paper's "paquet size").
    pub mtu: usize,
    /// Pipeline buffers per direction (2 = the paper's double-buffering).
    pub pipeline_depth: usize,
    /// Zero-copy buffer handoff at the gateway.
    pub zero_copy: bool,
    /// Per-fragment buffer-switch software cost.
    pub switch_overhead_ns: u64,
    /// Optional cap (bytes/s) on the inbound network's device rate at every
    /// NIC — the flow-control probe of the paper's future work (§4).
    pub inbound_rate_cap: Option<f64>,
    /// Optional replacement parameters for the outbound network — used to
    /// model the paper's proposed workaround of driving SCI sends with the
    /// NIC's DMA engine instead of CPU PIO (§3.4.1).
    pub outbound_override: Option<NetParams>,
    /// Per-stream credit window in fragments at the gateway; `None`
    /// disables flow control (unbounded gateway occupancy).
    pub credit_window: Option<u32>,
}

impl Default for GwSetup {
    fn default() -> Self {
        GwSetup {
            mtu: calibration::CROSSOVER_PACKET,
            pipeline_depth: 2,
            zero_copy: true,
            switch_overhead_ns: calibration::gateway_switch_overhead().as_nanos(),
            inbound_rate_cap: None,
            outbound_override: None,
            credit_window: None,
        }
    }
}

impl GwSetup {
    /// Same setup with a different fragment size.
    pub fn with_mtu(mtu: usize) -> Self {
        GwSetup {
            mtu,
            ..Default::default()
        }
    }
}

fn capped_params(tech: SimTech, cap: Option<f64>) -> NetParams {
    let mut p = tech.params();
    if let Some(c) = cap {
        p.dev_in_bps = p.dev_in_bps.min(c);
    }
    p
}

/// One-way transfer of `total` bytes, rank 0 → rank 2 via the gateway.
pub fn forwarded_oneway(from: SimTech, to: SimTech, total: usize, setup: GwSetup) -> Measurement {
    let tb = Testbed::new(3);
    run_forwarded(&tb, from, to, total, setup)
}

/// Like [`forwarded_oneway`] but recording the unified event trace —
/// driver spans for the fig. 5 / fig. 8 timelines plus Madeleine's own
/// hot-path spans and counters, ready for the exporters.
pub fn forwarded_oneway_traced(
    from: SimTech,
    to: SimTech,
    total: usize,
    setup: GwSetup,
) -> (Measurement, mad_trace::Snapshot) {
    let trace = TraceLog::new();
    let tb = Testbed::with_trace(3, trace.clone());
    let m = run_forwarded(&tb, from, to, total, setup);
    (m, trace.tracer().snapshot())
}

fn run_forwarded(
    tb: &Testbed,
    from: SimTech,
    to: SimTech,
    total: usize,
    setup: GwSetup,
) -> Measurement {
    run_forwarded_stats(tb, from, to, total, setup).0
}

fn run_forwarded_stats(
    tb: &Testbed,
    from: SimTech,
    to: SimTech,
    total: usize,
    setup: GwSetup,
) -> (Measurement, madeleine::gateway::GatewayTotals) {
    let rt = tb.runtime();
    let mut sb = SessionBuilder::new(3).with_runtime(rt);
    let in_driver = SimDriver::with_params(
        from,
        capped_params(from, setup.inbound_rate_cap),
        tb.net().clone(),
        tb.hosts().to_vec(),
        tb.runtime(),
    );
    let n_in = sb.network("net-in", in_driver, &[0, 1]);
    let out_driver = match setup.outbound_override {
        Some(params) => SimDriver::with_params(
            to,
            params,
            tb.net().clone(),
            tb.hosts().to_vec(),
            tb.runtime(),
        ),
        None => tb.driver(to),
    };
    let n_out = sb.network("net-out", out_driver, &[1, 2]);
    sb.vchannel(
        "vc",
        &[n_in, n_out],
        VcOptions {
            mtu: Some(setup.mtu),
            gateway: GatewayConfig {
                pipeline_depth: setup.pipeline_depth,
                switch_overhead_ns: setup.switch_overhead_ns,
                zero_copy: setup.zero_copy,
                credit_window: setup.credit_window,
                ..Default::default()
            },
            ..Default::default()
        },
    );
    let (stamps, gw_stats) = sb.run_with_gateway_stats(move |node| {
        let vc = node.vchannel("vc");
        let rt = node.runtime().clone();
        node.barrier().wait();
        match node.rank().0 {
            0 => {
                let t0 = rt.now_nanos();
                let data = vec![0x5Au8; total];
                let mut w = vc.begin_packing(NodeId(2)).unwrap();
                w.pack(&data, SendMode::Later, RecvMode::Cheaper).unwrap();
                w.end_packing().unwrap();
                t0
            }
            1 => 0,
            2 => {
                let mut buf = vec![0u8; total];
                let mut r = vc.begin_unpacking().unwrap();
                r.unpack(&mut buf, SendMode::Later, RecvMode::Cheaper)
                    .unwrap();
                r.end_unpacking().unwrap();
                assert!(
                    buf.iter().all(|&b| b == 0x5A),
                    "payload corrupted in flight"
                );
                rt.now_nanos()
            }
            _ => unreachable!(),
        }
    });
    let totals = gw_stats
        .first()
        .map(|(_, _, st)| st.totals())
        .unwrap_or_default();
    (
        Measurement {
            bytes: total,
            seconds: (stamps[2] - stamps[0]) as f64 / 1e9,
        },
        totals,
    )
}

/// Like [`forwarded_oneway`] but also returning the gateway engine's
/// forwarding counters — credit grants, cancellations, and the peak number
/// of payload bytes held in the forwarding pipeline (the occupancy a
/// credit window is supposed to bound).
pub fn forwarded_oneway_stats(
    from: SimTech,
    to: SimTech,
    total: usize,
    setup: GwSetup,
) -> (Measurement, madeleine::gateway::GatewayTotals) {
    let tb = Testbed::new(3);
    run_forwarded_stats(&tb, from, to, total, setup)
}

/// Outcome of one mixed-size round workload (see [`mix_traced`]).
#[derive(Debug, Clone, Copy)]
pub struct MixOutcome {
    /// Aggregate measurement over every round.
    pub m: Measurement,
    /// The gateway engine's forwarding counters, including the
    /// copy-placement split (`copies_recv` / `copies_flush` /
    /// `copy_idle_hits`).
    pub totals: madeleine::gateway::GatewayTotals,
}

/// Mixed-size workload through the E3 gateway, recording the unified
/// event trace: `rounds` rounds of the `pattern` message sizes, rank 0 →
/// rank 2, with a barrier between rounds so each round starts from a
/// drained pipeline. Small messages and multi-fragment blocks share the
/// one gateway, which is what the copy-placement scheduler is measured
/// against; the teardown flush lands its accounting on the `gw:` track.
///
/// `pace_ns` is a sender-side gap charged before each message: it models
/// an application that computes between sends, so the gateway pipeline
/// has drained by the time the next message arrives. A zero pace is a
/// saturation workload where every stage stays busy and the placement
/// question is moot (there is no idle stage to find).
pub fn mix_traced(
    from: SimTech,
    to: SimTech,
    pattern: &[usize],
    rounds: u32,
    pace_ns: u64,
    setup: GwSetup,
) -> (MixOutcome, mad_trace::Snapshot) {
    let trace = TraceLog::new();
    let tb = Testbed::with_trace(3, trace.clone());
    let rt = tb.runtime();
    let mut sb = SessionBuilder::new(3).with_runtime(rt);
    let in_driver = SimDriver::with_params(
        from,
        capped_params(from, setup.inbound_rate_cap),
        tb.net().clone(),
        tb.hosts().to_vec(),
        tb.runtime(),
    );
    let n_in = sb.network("net-in", in_driver, &[0, 1]);
    let n_out = sb.network("net-out", tb.driver(to), &[1, 2]);
    sb.vchannel(
        "vc",
        &[n_in, n_out],
        VcOptions {
            mtu: Some(setup.mtu),
            gateway: GatewayConfig {
                pipeline_depth: setup.pipeline_depth,
                switch_overhead_ns: setup.switch_overhead_ns,
                zero_copy: setup.zero_copy,
                credit_window: setup.credit_window,
                ..Default::default()
            },
            ..Default::default()
        },
    );
    let sizes: Vec<usize> = pattern.to_vec();
    let (results, gw_stats) = sb.run_with_gateway_stats(move |node| {
        let vc = node.vchannel("vc");
        let rt = node.runtime().clone();
        node.barrier().wait();
        let mut out = (0u64, 0u64); // (t0, t_end)
        for round in 0..rounds {
            match node.rank().0 {
                0 => {
                    if round == 0 {
                        out.0 = rt.now_nanos();
                    }
                    for (i, &len) in sizes.iter().enumerate() {
                        if pace_ns > 0 {
                            rt.charge_overhead(pace_ns);
                        }
                        let data = stream_payload(round.wrapping_mul(31) ^ i as u32, len);
                        let mut w = vc.begin_packing(NodeId(2)).unwrap();
                        w.pack(&data, SendMode::Later, RecvMode::Cheaper).unwrap();
                        w.end_packing().unwrap();
                    }
                }
                2 => {
                    for (i, &len) in sizes.iter().enumerate() {
                        let mut buf = vec![0u8; len];
                        let mut r = vc.begin_unpacking().unwrap();
                        r.unpack(&mut buf, SendMode::Later, RecvMode::Cheaper)
                            .unwrap();
                        r.end_unpacking().unwrap();
                        assert_eq!(
                            buf,
                            stream_payload(round.wrapping_mul(31) ^ i as u32, len),
                            "round {round} message #{i} corrupted"
                        );
                    }
                    out.1 = rt.now_nanos();
                }
                _ => {}
            }
            // Every round drains fully before the next begins.
            node.barrier().wait();
        }
        out
    });
    let totals = gw_stats
        .first()
        .map(|(_, _, st)| st.totals())
        .unwrap_or_default();
    let bytes: usize = pattern.iter().sum::<usize>() * rounds as usize;
    let run = MixOutcome {
        m: Measurement {
            bytes,
            seconds: (results[2].1 - results[0].0) as f64 / 1e9,
        },
        totals,
    };
    (run, trace.tracer().snapshot())
}

/// One-way transfer of `total` bytes between two directly connected nodes,
/// sent as packets of `packet` bytes (the paper's raw Madeleine ping).
pub fn raw_oneway(tech: SimTech, total: usize, packet: usize) -> Measurement {
    let tb = Testbed::new(2);
    let rt = tb.runtime();
    let mut sb = SessionBuilder::new(2).with_runtime(rt);
    let net = sb.network("net", tb.driver(tech), &[0, 1]);
    sb.channel("ch", net);
    let stamps = sb.run(move |node| {
        let ch = node.channel("ch");
        let rt = node.runtime().clone();
        node.barrier().wait();
        if node.rank() == NodeId(0) {
            let t0 = rt.now_nanos();
            let data = vec![0x33u8; total];
            let mut w = ch.begin_packing(NodeId(1)).unwrap();
            // SendMode::Safer flushes each block as its own wire packet,
            // which is exactly "a ping with packets of size S".
            for chunk in data.chunks(packet) {
                w.pack(chunk, SendMode::Safer, RecvMode::Cheaper).unwrap();
            }
            w.end_packing().unwrap();
            t0
        } else {
            let mut buf = vec![0u8; total];
            let mut r = ch.begin_unpacking().unwrap();
            for chunk in buf.chunks_mut(packet) {
                r.unpack(chunk, SendMode::Safer, RecvMode::Cheaper).unwrap();
            }
            r.end_unpacking().unwrap();
            rt.now_nanos()
        }
    });
    Measurement {
        bytes: total,
        seconds: (stamps[1] - stamps[0]) as f64 / 1e9,
    }
}

/// One-way time of a single `size`-byte message (latency regime).
pub fn raw_latency_micros(tech: SimTech, size: usize) -> f64 {
    raw_oneway(tech, size, size.max(1)).micros()
}

/// One-way transfer through an *application-level* relay (the Nexus/PACX
/// baseline): rank 1 runs [`baseline::run_relay`] — whole-message
/// store-and-forward, no pipelining, relay code in the application.
pub fn appfwd_oneway(from: SimTech, to: SimTech, total: usize) -> Measurement {
    let tb = Testbed::new(3);
    let rt = tb.runtime();
    let mut sb = SessionBuilder::new(3).with_runtime(rt);
    let n_in = sb.network("net-in", tb.driver(from), &[0, 1]);
    let n_out = sb.network("net-out", tb.driver(to), &[1, 2]);
    sb.channel("ch-in", n_in);
    sb.channel("ch-out", n_out);
    let stamps = sb.run(move |node| {
        let rt = node.runtime().clone();
        node.barrier().wait();
        match node.rank().0 {
            0 => {
                let ch = node.channel("ch-in");
                let t0 = rt.now_nanos();
                let data = vec![0x77u8; total];
                baseline::send_via_relay(ch, NodeId(1), NodeId(2), &data).unwrap();
                t0
            }
            1 => {
                let relayed =
                    baseline::run_relay(node.channel("ch-in"), node.channel("ch-out"), |dest| {
                        (dest == NodeId(2)).then_some(NodeId(2))
                    })
                    .unwrap();
                assert_eq!(relayed, 1);
                0
            }
            2 => {
                let ch = node.channel("ch-out");
                let payload = baseline::recv_via_relay(ch, NodeId(2)).unwrap();
                assert_eq!(payload.len(), total);
                rt.now_nanos()
            }
            _ => unreachable!(),
        }
    });
    Measurement {
        bytes: total,
        seconds: (stamps[2] - stamps[0]) as f64 / 1e9,
    }
}

/// The paper's §3.4.1 workaround: drive SCI sends with the Dolphin DMA
/// engine instead of CPU PIO. DMA setup costs more per packet and the
/// engine moves data slightly slower than streamed PIO writes, but as a
/// bus-master it no longer loses arbitration to the Myrinet NIC.
pub fn sci_with_dma_engine() -> NetParams {
    let mut p = SimTech::Sci.params();
    p.out_class = simnet::XferClass::Dma;
    p.dev_out_bps = 50.0e6;
    p.overhead_send = vtime::SimDuration::from_micros(35);
    p
}

/// Deterministic soak payload, distinct per stream index.
fn stream_payload(idx: u32, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u8).wrapping_mul(13).wrapping_add(7 * idx as u8))
        .collect()
}

/// Result of one multi-path aggregate transfer: the measurement plus the
/// per-gateway payload split recorded by the routing plane (empty when the
/// plan had width 1 and the legacy single-path writer ran).
#[derive(Debug, Clone)]
pub struct MultipathRun {
    /// Aggregate one-way measurement.
    pub m: Measurement,
    /// Payload bytes per gateway rank, from [`madeleine::multipath::MultiPath::path_bytes`].
    pub split: Vec<(u32, u64)>,
}

/// Fragment size of the A8 scaling runs. Coarser than the paper's 16 KB
/// crossover MTU on purpose: fragments big enough to amortize the
/// sender's fixed per-packet cost, otherwise the sending host — not the
/// relay fabric — is the first bottleneck and extra paths cannot show.
const SCALING_MTU: usize = 128 * 1024;

fn run_multipath_aggregate(
    tb: &Testbed,
    gateways: usize,
    pairs: usize,
    msgs: u32,
    len: usize,
) -> MultipathRun {
    let nodes = (pairs * 2 + gateways) as u32;
    let mut sb = SessionBuilder::new(nodes).with_runtime(tb.runtime());
    // Senders 0..pairs, gateways pairs..pairs+gateways, receivers after.
    let gw0 = pairs as u32;
    let rx0 = (pairs + gateways) as u32;
    let inbound: Vec<u32> = (0..gw0 + gateways as u32).collect();
    let outbound: Vec<u32> = (gw0..nodes).collect();
    let n_in = sb.network("net-in", tb.driver(SimTech::Myrinet), &inbound);
    let n_out = sb.network("net-out", tb.driver(SimTech::Sci), &outbound);
    sb.vchannel(
        "vc",
        &[n_in, n_out],
        VcOptions {
            mtu: Some(SCALING_MTU),
            gateway: GatewayConfig {
                switch_overhead_ns: calibration::gateway_switch_overhead().as_nanos(),
                ..Default::default()
            },
            ..Default::default()
        },
    );
    let results = sb.run(move |node| {
        let vc = node.vchannel("vc");
        let rt = node.runtime().clone();
        node.barrier().wait();
        let rank = node.rank().0;
        let out = if rank < gw0 {
            // Sender `rank`, paired with receiver `rx0 + rank`.
            let t0 = rt.now_nanos();
            for i in 0..msgs {
                let data = stream_payload(rank.wrapping_mul(101).wrapping_add(i), len);
                let mut w = vc.begin_packing(NodeId(rx0 + rank)).unwrap();
                let hdr = [i as u8];
                w.pack(&hdr, SendMode::Safer, RecvMode::Express).unwrap();
                w.pack(&data, SendMode::Later, RecvMode::Cheaper).unwrap();
                w.end_packing().unwrap();
            }
            (t0, 0, Vec::new())
        } else if rank >= rx0 {
            let from = rank - rx0;
            let mut seen = vec![false; msgs as usize];
            for _ in 0..msgs {
                let mut r = vc.begin_unpacking().unwrap();
                let mut hdr = [0u8; 1];
                r.unpack(&mut hdr, SendMode::Safer, RecvMode::Express)
                    .unwrap();
                let i = hdr[0] as u32;
                let mut buf = vec![0u8; len];
                r.unpack(&mut buf, SendMode::Later, RecvMode::Cheaper)
                    .unwrap();
                r.end_unpacking().unwrap();
                assert_eq!(
                    buf,
                    stream_payload(from.wrapping_mul(101).wrapping_add(i), len),
                    "pair {from} stream #{i} corrupted"
                );
                assert!(!seen[i as usize], "pair {from} stream #{i} delivered twice");
                seen[i as usize] = true;
            }
            (0, rt.now_nanos(), Vec::new())
        } else {
            (0, 0, Vec::new()) // the relay ranks
        };
        // Second barrier: every stream has ended (and been accounted to its
        // path) before rank 0 snapshots the session-wide split.
        node.barrier().wait();
        if rank == 0 {
            let split = vc.multipath().map(|mp| mp.path_bytes()).unwrap_or_default();
            (out.0, out.1, split)
        } else {
            out
        }
    });
    let t0 = results[..pairs].iter().map(|r| r.0).min().unwrap();
    let t_end = results[rx0 as usize..].iter().map(|r| r.1).max().unwrap();
    MultipathRun {
        m: Measurement {
            bytes: pairs * msgs as usize * (len + 1),
            seconds: (t_end - t0) as f64 / 1e9,
        },
        split: results[0].2.clone(),
    }
}

/// Aggregate inter-cluster bandwidth of `pairs` concurrent sender/receiver
/// pairs whose streams share `gateways` parallel relays (per-stream
/// adaptive routing). This is the A8 scaling curve proper: with several
/// endpoint pairs offering load, the relay fabric — not a single host's
/// serial receive path — is the bottleneck, so aggregate bandwidth tracks
/// the gateway count.
pub fn multipath_aggregate(gateways: usize, pairs: usize, msgs: u32, len: usize) -> MultipathRun {
    let tb = Testbed::new(pairs * 2 + gateways);
    run_multipath_aggregate(&tb, gateways, pairs, msgs, len)
}

/// Like [`multipath_aggregate`] but recording the unified event trace.
pub fn multipath_aggregate_traced(
    gateways: usize,
    pairs: usize,
    msgs: u32,
    len: usize,
) -> (MultipathRun, mad_trace::Snapshot) {
    let trace = TraceLog::new();
    let tb = Testbed::with_trace(pairs * 2 + gateways, trace.clone());
    let run = run_multipath_aggregate(&tb, gateways, pairs, msgs, len);
    (run, trace.tracer().snapshot())
}

/// Outcome of one seeded gateway-death soak schedule.
#[derive(Debug, Clone, Copy)]
pub struct DeathSoakRun {
    /// Streams the sink received intact (must equal the schedule length).
    pub delivered: u32,
    /// Streams the routing plane re-issued on a surviving path.
    pub failovers: u64,
    /// Gateways the routing plane retired (must be >= 1: the kill was
    /// detected). Zero failovers with a death means every affected stream
    /// was caught at its header send, before any payload needed replaying.
    pub deaths: u64,
    /// Wall (virtual) time of the whole schedule.
    pub seconds: f64,
}

/// Seeded death soak: push `msgs` streams of `len` bytes through a
/// `gateways`-wide fabric while gateway rank 1 silently dies at
/// `kill_at_ns`. Every stream must still arrive intact, exactly once —
/// streams caught on the dead path are re-issued on survivors.
pub fn multipath_death_soak(
    gateways: usize,
    msgs: u32,
    len: usize,
    kill_at_ns: u64,
) -> DeathSoakRun {
    assert!(gateways >= 2, "a death soak needs a surviving path");
    let tb = Testbed::new(gateways + 2);
    tb.kill_host(1, kill_at_ns);
    let mut sb = SessionBuilder::new(gateways as u32 + 2).with_runtime(tb.runtime());
    // Rank 0 on the inbound network, ranks `1..=gateways` spanning both
    // clusters, the sink on the outbound one: the E3 topology widened from
    // one relay box to `gateways` of them.
    let inbound: Vec<u32> = (0..=gateways as u32).collect();
    let outbound: Vec<u32> = (1..=gateways as u32 + 1).collect();
    let n_in = sb.network("net-in", tb.driver(SimTech::Myrinet), &inbound);
    let n_out = sb.network("net-out", tb.driver(SimTech::Sci), &outbound);
    sb.vchannel(
        "vc",
        &[n_in, n_out],
        VcOptions {
            mtu: Some(calibration::CROSSOVER_PACKET),
            gateway: GatewayConfig {
                switch_overhead_ns: calibration::gateway_switch_overhead().as_nanos(),
                drain_timeout_ns: 100_000_000, // the dead engine must not hang teardown
                ..Default::default()
            },
            ..Default::default()
        },
    );
    let sink = gateways as u32 + 1;
    let results = sb.run(move |node| {
        let vc = node.vchannel("vc");
        let rt = node.runtime().clone();
        node.barrier().wait();
        match node.rank().0 {
            0 => {
                let t0 = rt.now_nanos();
                for i in 0..msgs {
                    let data = stream_payload(i, len);
                    let mut w = vc.begin_packing(NodeId(sink)).unwrap();
                    // Index stamp: streams on different paths may overtake.
                    let hdr = [i as u8];
                    w.pack(&hdr, SendMode::Safer, RecvMode::Express).unwrap();
                    w.pack(&data, SendMode::Later, RecvMode::Cheaper).unwrap();
                    w.end_packing().unwrap();
                }
                let mp = vc.multipath().expect("parallel gateways");
                let c = mp.selector().counters();
                (t0, 0u32, c.failovers, c.deaths)
            }
            r if r == sink => {
                let mut seen = vec![false; msgs as usize];
                for _ in 0..msgs {
                    let mut r = vc.begin_unpacking().unwrap();
                    let mut hdr = [0u8; 1];
                    r.unpack(&mut hdr, SendMode::Safer, RecvMode::Express)
                        .unwrap();
                    let i = hdr[0] as u32;
                    let mut buf = vec![0u8; len];
                    r.unpack(&mut buf, SendMode::Later, RecvMode::Cheaper)
                        .unwrap();
                    r.end_unpacking().unwrap();
                    assert_eq!(buf, stream_payload(i, len), "stream #{i} corrupted");
                    assert!(!seen[i as usize], "stream #{i} delivered twice");
                    seen[i as usize] = true;
                }
                let delivered = seen.iter().filter(|&&s| s).count() as u32;
                (rt.now_nanos(), delivered, 0, 0)
            }
            _ => (0, 0, 0, 0),
        }
    });
    DeathSoakRun {
        delivered: results[sink as usize].1,
        failovers: results[0].2,
        deaths: results[0].3,
        seconds: (results[sink as usize].0 - results[0].0) as f64 / 1e9,
    }
}

/// Outcome of one seeded membership-churn soak schedule.
#[derive(Debug, Clone, Copy)]
pub struct ChurnSoakRun {
    /// Streams the sink received intact (must equal the schedule length).
    pub delivered: u32,
    /// Leave → rejoin episodes the churning gateway completed.
    pub episodes: u32,
    /// Times the routing plane readmitted the retired path (>= episodes:
    /// every graceful rejoin re-plans before its ack).
    pub readmissions: u64,
    /// Paths the routing plane retired across the schedule.
    pub deaths: u64,
    /// Stale-incarnation packets dropped, summed over every plane (must
    /// be zero: graceful churn is epoch-monotone).
    pub stale_drops: u64,
    /// The churning gateway's incarnation epoch after the last rejoin.
    pub final_epoch: u64,
    /// Wall (virtual) time of the whole schedule.
    pub seconds: f64,
}

/// Seeded membership-churn soak (A11): rank 0 streams
/// `rounds * msgs_per_round` messages of `len` bytes to rank 3 over the
/// two-gateway parallel fabric (net0 {0,1,2}, net1 {1,2,3}) while
/// gateway rank 1 cycles leave → seeded linger → rejoin `rounds` times.
/// Membership, multi-path routing and the metrics plane are all live:
/// every stream must arrive intact exactly once, every episode must retire
/// and readmit the path, and no packet may be dropped as stale.
fn run_membership_churn(
    tb: &Testbed,
    rounds: u32,
    msgs_per_round: u32,
    len: usize,
    seed: u64,
) -> ChurnSoakRun {
    const JOIN_TIMEOUT: u64 = 2_000_000_000;
    let mut sb = SessionBuilder::new(4).with_runtime(tb.runtime());
    let n0 = sb.network("myri", tb.driver(SimTech::Myrinet), &[0, 1, 2]);
    let n1 = sb.network("sci", tb.driver(SimTech::Sci), &[1, 2, 3]);
    sb.vchannel(
        "vc",
        &[n0, n1],
        VcOptions {
            mtu: Some(8 * 1024),
            membership: true,
            metrics: Some(madeleine::MetricsOptions),
            gateway: GatewayConfig {
                credit_window: Some(8),
                ..Default::default()
            },
        },
    );
    let results = sb.run(move |node| {
        let vc = node.vchannel("vc");
        let rt = node.runtime().clone();
        let me = node.rank().0;
        let peers: Vec<NodeId> = (0..4).filter(|&r| r != me).map(NodeId).collect();
        let plane = vc.membership().expect("membership enabled").clone();
        node.barrier().wait();
        plane.join(&peers, JOIN_TIMEOUT).expect("join failed");
        node.barrier().wait();

        let total = rounds * msgs_per_round;
        let out = match me {
            0 => {
                // The sender never pauses: streams are in flight across
                // every leave and rejoin below.
                let t0 = rt.now_nanos();
                for i in 0..total {
                    let data = stream_payload(i, len);
                    let mut w = vc.begin_packing(NodeId(3)).unwrap();
                    let hdr = [i as u8];
                    w.pack(&hdr, SendMode::Safer, RecvMode::Express).unwrap();
                    w.pack(&data, SendMode::Later, RecvMode::Cheaper).unwrap();
                    w.end_packing().unwrap();
                }
                (t0, 0u32, 0u64, 0u64, 0u64)
            }
            3 => {
                let mut seen = vec![false; total as usize];
                for _ in 0..total {
                    let mut r = vc.begin_unpacking().unwrap();
                    let mut hdr = [0u8; 1];
                    r.unpack(&mut hdr, SendMode::Safer, RecvMode::Express)
                        .unwrap();
                    let i = hdr[0] as u32;
                    let mut buf = vec![0u8; len];
                    r.unpack(&mut buf, SendMode::Later, RecvMode::Cheaper)
                        .unwrap();
                    r.end_unpacking().unwrap();
                    assert_eq!(buf, stream_payload(i, len), "stream #{i} corrupted");
                    assert!(!seen[i as usize], "stream #{i} delivered twice");
                    seen[i as usize] = true;
                }
                let delivered = seen.iter().filter(|&&s| s).count() as u32;
                (rt.now_nanos(), delivered, 0, 0, 0)
            }
            1 => {
                // The churning gateway: leave, seeded linger, rejoin.
                let mut s = seed | 1;
                let mut epoch = 1;
                for _ in 0..rounds {
                    s ^= s << 13;
                    s ^= s >> 7;
                    s ^= s << 17;
                    rt.charge_overhead(2_000_000 + s % 4_000_000);
                    plane.leave(&peers);
                    rt.charge_overhead(2_000_000 + (s >> 8) % 4_000_000);
                    epoch = plane.rejoin(&peers, JOIN_TIMEOUT).expect("rejoin failed");
                }
                let mp = vc.multipath().expect("parallel gateways");
                let c = mp.selector().counters();
                (0, 0, c.readmissions, c.deaths, epoch)
            }
            _ => (0, 0, 0, 0, 0),
        };
        node.barrier().wait();
        (out, plane.stale_drops())
    });
    ChurnSoakRun {
        delivered: results[3].0 .1,
        episodes: rounds,
        readmissions: results[1].0 .2,
        deaths: results[1].0 .3,
        stale_drops: results.iter().map(|r| r.1).sum(),
        final_epoch: results[1].0 .4,
        seconds: (results[3].0 .0 - results[0].0 .0) as f64 / 1e9,
    }
}

/// See [`run_membership_churn`].
pub fn membership_churn_soak(
    rounds: u32,
    msgs_per_round: u32,
    len: usize,
    seed: u64,
) -> ChurnSoakRun {
    let tb = Testbed::new(4);
    run_membership_churn(&tb, rounds, msgs_per_round, len, seed)
}

/// Like [`membership_churn_soak`] but recording the unified event trace
/// (the `member:` and `health:` tracks ride along with the `route:` and
/// `gw:` ones).
pub fn membership_churn_soak_traced(
    rounds: u32,
    msgs_per_round: u32,
    len: usize,
    seed: u64,
) -> (ChurnSoakRun, mad_trace::Snapshot) {
    let trace = TraceLog::new();
    let tb = Testbed::with_trace(4, trace.clone());
    let run = run_membership_churn(&tb, rounds, msgs_per_round, len, seed);
    (run, trace.tracer().snapshot())
}

/// The standard figure sweep grids.
pub mod grids {
    /// The paper's packet sizes (fig. 6/7 legends): 8 KB … 128 KB.
    pub const PACKET_SIZES: [usize; 5] = [8 * 1024, 16 * 1024, 32 * 1024, 64 * 1024, 128 * 1024];

    /// Message sizes along the x-axis (up to 16 MB, log-spaced).
    pub const MESSAGE_SIZES: [usize; 7] = [
        64 * 1024,
        256 * 1024,
        1 << 20,
        2 << 20,
        4 << 20,
        8 << 20,
        16 << 20,
    ];
}
