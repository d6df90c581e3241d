//! Deterministic soak test: seeded random traffic over a three-cluster
//! topology, exercising direct paths, single- and double-gateway routes,
//! message interleaving from many senders, and checksum verification.

use mad_shm::ShmDriver;
use mad_sim::{LinkFault, SimTech, Testbed};
use mad_util::rng::Rng;
use madeleine::error::MadError;
use madeleine::gateway::GatewayConfig;
use madeleine::session::VcOptions;
use madeleine::{NodeId, RecvMode, SendMode, SessionBuilder};
use vtime::SimDuration;

/// Root seed of the randomized soaks; override with `MAD_SOAK_SEED=<u64>`
/// to explore other schedules (CI pins one fixed value).
fn soak_seed() -> u64 {
    std::env::var("MAD_SOAK_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0x4D41_4445)
}

/// Per-(sender, receiver) deterministic payload.
fn payload(from: u32, to: u32, idx: u32, len: usize) -> Vec<u8> {
    let seed = from
        .wrapping_mul(0x9E37)
        .wrapping_add(to.wrapping_mul(31))
        .wrapping_add(idx) as u8;
    (0..len)
        .map(|i| (i as u8).wrapping_mul(7).wrapping_add(seed))
        .collect()
}

/// Topology: net0 {0,1,2}, net1 {2,3,4}, net2 {4,5,6}; gateways 2 and 4.
/// Every even rank sends a fixed schedule of messages to every odd rank;
/// receivers know the schedule (deterministic sizes from a seeded RNG) and
/// verify every byte.
#[test]
fn random_traffic_soak() {
    const MSGS_PER_PAIR: u32 = 6;
    let senders = [0u32, 2, 4, 6];
    let receivers = [1u32, 3, 5];

    // Pre-generate the schedule (same on all nodes): sizes per (s,r,idx).
    let mut rng = Rng::new(soak_seed());
    let mut sizes = std::collections::HashMap::new();
    for &s in &senders {
        for &r in &receivers {
            for i in 0..MSGS_PER_PAIR {
                sizes.insert((s, r, i), rng.gen_range(1..40_000usize));
            }
        }
    }
    let sizes = std::sync::Arc::new(sizes);

    let mut sb = SessionBuilder::new(7);
    let rt = sb.runtime().clone();
    let n0 = sb.network("net0", ShmDriver::new(rt.clone()), &[0, 1, 2]);
    let n1 = sb.network("net1", ShmDriver::new(rt.clone()), &[2, 3, 4]);
    let n2 = sb.network("net2", ShmDriver::new(rt), &[4, 5, 6]);
    sb.vchannel(
        "vc",
        &[n0, n1, n2],
        VcOptions {
            mtu: Some(2048),
            ..Default::default()
        },
    );

    let sizes2 = sizes.clone();
    let ok = sb.run(move |node| {
        let vc = node.vchannel("vc");
        let me = node.rank().0;
        if senders.contains(&me) {
            for i in 0..MSGS_PER_PAIR {
                for &r in &receivers {
                    let len = sizes2[&(me, r, i)];
                    let data = payload(me, r, i, len);
                    let mut w = vc.begin_packing(NodeId(r)).unwrap();
                    // Stamp the message id as an express header so the
                    // receiver can match out-of-order arrivals per sender.
                    let hdr = [me as u8, i as u8];
                    w.pack(&hdr, SendMode::Safer, RecvMode::Express).unwrap();
                    w.pack(&data, SendMode::Later, RecvMode::Cheaper).unwrap();
                    w.end_packing().unwrap();
                }
            }
            true
        } else {
            // Receivers: per-sender in-order delivery is guaranteed only
            // per channel, so track the next expected index per sender.
            let total = senders.len() as u32 * MSGS_PER_PAIR;
            let mut next: std::collections::HashMap<u32, u32> =
                senders.iter().map(|&s| (s, 0)).collect();
            for _ in 0..total {
                let mut r = vc.begin_unpacking().unwrap();
                let mut hdr = [0u8; 2];
                r.unpack(&mut hdr, SendMode::Safer, RecvMode::Express)
                    .unwrap();
                let (s, i) = (hdr[0] as u32, hdr[1] as u32);
                assert_eq!(next[&s], i, "per-sender ordering violated at receiver {me}");
                *next.get_mut(&s).unwrap() += 1;
                let len = sizes2[&(s, me, i)];
                let mut buf = vec![0u8; len];
                r.unpack(&mut buf, SendMode::Later, RecvMode::Cheaper)
                    .unwrap();
                r.end_unpacking().unwrap();
                assert_eq!(buf, payload(s, me, i, len), "payload {s}→{me}#{i}");
            }
            true
        }
    });
    assert!(ok.into_iter().all(|x| x));
}

/// Concurrent long and short messages through one gateway: the engine now
/// interleaves streams at fragment granularity, so many small messages and
/// a few bulk ones share the gateway without corrupting or reordering each
/// other. Sizes are seeded (`MAD_SOAK_SEED`); each (sender, receiver) pair
/// checks every byte and strict per-sender ordering.
#[test]
fn hol_soak_short_messages_share_gateway_with_bulk() {
    const BULK_MSGS: u32 = 3;
    const SHORT_MSGS: u32 = 40;

    let mut rng = Rng::new(soak_seed() ^ 0x484F_4C21);
    let bulk_sizes: Vec<usize> = (0..BULK_MSGS)
        .map(|_| rng.gen_range(100_000..300_000usize))
        .collect();
    let short_sizes: Vec<usize> = (0..SHORT_MSGS)
        .map(|_| rng.gen_range(1..256usize))
        .collect();
    let bulk_sizes = std::sync::Arc::new(bulk_sizes);
    let short_sizes = std::sync::Arc::new(short_sizes);

    // net0 {0,1,2}, net1 {2,3,4}: rank 2 is the only gateway; both senders
    // live on net0, both receivers on net1, so every message funnels
    // through the same engine.
    let mut sb = SessionBuilder::new(5);
    let rt = sb.runtime().clone();
    let n0 = sb.network("net0", ShmDriver::new(rt.clone()), &[0, 1, 2]);
    let n1 = sb.network("net1", ShmDriver::new(rt), &[2, 3, 4]);
    sb.vchannel(
        "vc",
        &[n0, n1],
        VcOptions {
            mtu: Some(1024),
            ..Default::default()
        },
    );

    let (bulk2, short2) = (bulk_sizes.clone(), short_sizes.clone());
    let ok = sb.run(move |node| {
        let vc = node.vchannel("vc");
        node.barrier().wait();
        match node.rank().0 {
            0 => {
                for (i, &len) in bulk2.iter().enumerate() {
                    let data = payload(0, 3, i as u32, len);
                    let mut w = vc.begin_packing(NodeId(3)).unwrap();
                    w.pack(&data, SendMode::Later, RecvMode::Cheaper).unwrap();
                    w.end_packing().unwrap();
                }
                true
            }
            1 => {
                for (i, &len) in short2.iter().enumerate() {
                    let data = payload(1, 4, i as u32, len);
                    let mut w = vc.begin_packing(NodeId(4)).unwrap();
                    w.pack(&data, SendMode::Later, RecvMode::Cheaper).unwrap();
                    w.end_packing().unwrap();
                }
                true
            }
            2 => {
                // The gateway node watches its own engine mid-run through
                // the cheap snapshot API: totals must grow monotonically
                // and eventually account for every relayed message.
                let stats = node.gateway_stats("vc").expect("gateway stats").clone();
                let mut last = stats.totals();
                loop {
                    let t = stats.totals();
                    assert!(t.messages >= last.messages, "messages went backwards");
                    assert!(t.fragments >= last.fragments, "fragments went backwards");
                    assert!(
                        t.fragment_bytes >= last.fragment_bytes,
                        "fragment_bytes went backwards"
                    );
                    if t.messages >= (BULK_MSGS + SHORT_MSGS) as u64 {
                        break;
                    }
                    last = t;
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
                true
            }
            3 => {
                for (i, &len) in bulk2.iter().enumerate() {
                    let mut buf = vec![0u8; len];
                    let mut r = vc.begin_unpacking().unwrap();
                    r.unpack(&mut buf, SendMode::Later, RecvMode::Cheaper)
                        .unwrap();
                    r.end_unpacking().unwrap();
                    assert_eq!(buf, payload(0, 3, i as u32, len), "bulk #{i}");
                }
                true
            }
            4 => {
                for (i, &len) in short2.iter().enumerate() {
                    let mut buf = vec![0u8; len];
                    let mut r = vc.begin_unpacking().unwrap();
                    r.unpack(&mut buf, SendMode::Later, RecvMode::Cheaper)
                        .unwrap();
                    r.end_unpacking().unwrap();
                    assert_eq!(buf, payload(1, 4, i as u32, len), "short #{i}");
                }
                true
            }
            _ => unreachable!(),
        }
    });
    assert!(ok.into_iter().all(|x| x));
}

/// The delay bound, on the deterministic virtual clock: a 1 KB message
/// entering the gateway while a multi-megabyte bulk transfer is mid-relay
/// must come out in bounded time — a couple of fragment slots, not the
/// remainder of the bulk message. (Before fragment-granular scheduling the
/// short message waited for the entire bulk relay to finish.)
#[test]
fn short_message_delay_is_bounded_during_bulk_relay() {
    const BULK: usize = 4 << 20;
    const PING: usize = 1024;

    let tb = Testbed::new(5);
    let mut sb = SessionBuilder::new(5).with_runtime(tb.runtime());
    let n0 = sb.network("sci", tb.driver(SimTech::Sci), &[0, 1, 2]);
    let n1 = sb.network("myri", tb.driver(SimTech::Myrinet), &[2, 3, 4]);
    sb.vchannel(
        "vc",
        &[n0, n1],
        VcOptions {
            mtu: Some(8 * 1024),
            ..Default::default()
        },
    );
    let stamps = sb.run(|node| {
        let rt = node.runtime().clone();
        let vc = node.vchannel("vc");
        node.barrier().wait();
        match node.rank().0 {
            0 => {
                let data = vec![0x5Au8; BULK];
                let mut w = vc.begin_packing(NodeId(3)).unwrap();
                w.pack(&data, SendMode::Later, RecvMode::Cheaper).unwrap();
                w.end_packing().unwrap();
                0
            }
            1 => {
                // Let the bulk transfer get well underway (its relay takes
                // ~80 virtual ms), then inject the short message.
                rt.charge_overhead(10_000_000);
                let data = vec![0xA5u8; PING];
                let t0 = rt.now_nanos();
                let mut w = vc.begin_packing(NodeId(4)).unwrap();
                w.pack(&data, SendMode::Later, RecvMode::Cheaper).unwrap();
                w.end_packing().unwrap();
                t0
            }
            2 => 0,
            3 => {
                let mut buf = vec![0u8; BULK];
                let mut r = vc.begin_unpacking().unwrap();
                r.unpack(&mut buf, SendMode::Later, RecvMode::Cheaper)
                    .unwrap();
                r.end_unpacking().unwrap();
                assert!(buf.iter().all(|&b| b == 0x5A));
                rt.now_nanos()
            }
            4 => {
                let mut buf = vec![0u8; PING];
                let mut r = vc.begin_unpacking().unwrap();
                r.unpack(&mut buf, SendMode::Later, RecvMode::Cheaper)
                    .unwrap();
                r.end_unpacking().unwrap();
                assert!(buf.iter().all(|&b| b == 0xA5));
                rt.now_nanos()
            }
            _ => unreachable!(),
        }
    });
    let ping_ns = stamps[4].saturating_sub(stamps[1]);
    let bulk_done = stamps[3];
    assert!(
        bulk_done > stamps[1] + 20_000_000,
        "bulk relay must still be in flight when the ping lands \
         (bulk done at {bulk_done} ns)"
    );
    assert!(
        ping_ns < 5_000_000,
        "1 KB message delayed {ping_ns} ns behind a bulk relay — \
         head-of-line blocking is back"
    );
}

/// The credit window bounds gateway occupancy. A 4 MB transfer funnels
/// from fast Myrinet (70 MB/s) into slow Fast-Ethernet (12.5 MB/s)
/// through one gateway whose pipeline is deep enough (64 buffers) to soak
/// up the rate mismatch; without flow control the engine's resident-bytes
/// high-water mark grows far past the window bound, with an 8-fragment
/// credit window it stays under `window × (MTU + prelude)` — at a
/// bulk-bandwidth cost of at most 5%. (A PIO-send outbound network like
/// SCI would *not* stay within 5%: pacing the inbound DMA to the outbound
/// rate keeps both NICs concurrently active, and the paper's §3.4.1 bus
/// arbitration then throttles the PIO sends — that interaction is
/// measured by the A4 flow-control ablation, not asserted here.)
#[test]
fn credit_window_bounds_gateway_occupancy() {
    const TOTAL: usize = 4 << 20;
    const MTU: usize = 32 * 1024;
    const WINDOW: u32 = 8;

    fn run_one(window: Option<u32>) -> (u64, madeleine::gateway::GatewayTotals) {
        let tb = Testbed::new(3);
        let mut sb = SessionBuilder::new(3).with_runtime(tb.runtime());
        let n0 = sb.network("myri", tb.driver(SimTech::Myrinet), &[0, 1]);
        let n1 = sb.network("fe", tb.driver(SimTech::FastEthernet), &[1, 2]);
        sb.vchannel(
            "vc",
            &[n0, n1],
            VcOptions {
                mtu: Some(MTU),
                gateway: GatewayConfig {
                    pipeline_depth: 64,
                    credit_window: window,
                    ..Default::default()
                },
                ..Default::default()
            },
        );
        let (stamps, stats) = sb.run_with_gateway_stats(move |node| {
            let rt = node.runtime().clone();
            let vc = node.vchannel("vc");
            node.barrier().wait();
            match node.rank().0 {
                0 => {
                    let t0 = rt.now_nanos();
                    let data = vec![0x5Au8; TOTAL];
                    let mut w = vc.begin_packing(NodeId(2)).unwrap();
                    w.pack(&data, SendMode::Later, RecvMode::Cheaper).unwrap();
                    w.end_packing().unwrap();
                    t0
                }
                1 => 0,
                2 => {
                    let mut buf = vec![0u8; TOTAL];
                    let mut r = vc.begin_unpacking().unwrap();
                    r.unpack(&mut buf, SendMode::Later, RecvMode::Cheaper)
                        .unwrap();
                    r.end_unpacking().unwrap();
                    assert!(buf.iter().all(|&b| b == 0x5A), "payload corrupted");
                    rt.now_nanos()
                }
                _ => unreachable!(),
            }
        });
        assert_eq!(stats.len(), 1);
        (stamps[2] - stamps[0], stats[0].2.totals())
    }

    let (t_uncapped, uncapped) = run_one(None);
    let (t_capped, capped) = run_one(Some(WINDOW));

    // A fragment packet is the payload plus the 15-byte GTM prelude; allow
    // a little slack on top of the window bound.
    let bound = WINDOW as i64 * (MTU as i64 + 64) + 4096;
    assert!(
        capped.peak_held_bytes <= bound,
        "credit window violated: peak {} bytes > bound {bound}",
        capped.peak_held_bytes
    );
    assert!(
        uncapped.peak_held_bytes > bound,
        "uncapped run never exceeded the bound (peak {}), the assertion \
         above is vacuous",
        uncapped.peak_held_bytes
    );
    assert_eq!(
        capped.held_bytes, 0,
        "engine still holds bytes after teardown"
    );
    // Every relayed fragment earns a credit, returned by the half window —
    // except the tail ones whose grants race the sender's exit (its
    // conduits close once the message is fully handed over), at most a
    // window's worth.
    let frags = (TOTAL / MTU) as u64;
    assert!(
        capped.credits_granted >= frags - WINDOW as u64,
        "missing credit grants: granted {} of {frags} fragments",
        capped.credits_granted
    );
    assert_eq!(
        capped.credits_granted,
        capped.grants_sent * (WINDOW / 2) as u64,
        "every credit packet carries half a window"
    );
    assert_eq!(capped.cancelled, 0);
    assert_eq!(capped.credit_timeouts, 0);
    // Flow control must not cost meaningful bandwidth: the window (8)
    // comfortably covers the pipeline, so the bulk transfer stays within
    // 5% of the uncapped baseline on the virtual clock.
    assert!(
        t_capped as f64 <= t_uncapped as f64 * 1.05,
        "flow control cost too much bandwidth: {t_capped} ns vs {t_uncapped} ns"
    );
}

/// Fault-injection soak on the paper's two-cluster topology: jitter and
/// stalls on one inbound link, a silently dead receiver host behind the
/// gateway. The healthy stream must arrive intact; the stream toward the
/// dead host must degrade into a *typed* error at its sender (peer
/// unreachable or credit timeout, depending on how the cancel races); the
/// session must tear down without hanging and with clean gateway
/// accounting. Seeded via `MAD_SOAK_SEED`.
#[test]
fn fault_soak_stall_jitter_peer_death() {
    const HEALTHY: usize = 200_000;
    const DOOMED: usize = 128 * 1024;
    const MTU: usize = 4096;

    let tb = Testbed::new(5);
    // Perturb the healthy sender's first hop: seeded delivery jitter plus
    // occasional 1 ms stalls.
    tb.fault_link(
        0,
        2,
        LinkFault {
            jitter_max: SimDuration::from_micros(200),
            stall_prob: 0.05,
            stall: SimDuration::from_millis(1),
            seed: soak_seed(),
            ..Default::default()
        },
    );
    // Host 4 is dead from the start: every packet to or from it silently
    // vanishes after the send-side overhead — nobody is notified.
    tb.kill_host(4, 0);

    let mut sb = SessionBuilder::new(5).with_runtime(tb.runtime());
    let n0 = sb.network("myri", tb.driver(SimTech::Myrinet), &[0, 1, 2]);
    let n1 = sb.network("sci", tb.driver(SimTech::Sci), &[2, 3, 4]);
    sb.vchannel(
        "vc",
        &[n0, n1],
        VcOptions {
            mtu: Some(MTU),
            gateway: GatewayConfig {
                credit_window: Some(4),
                credit_timeout_ns: 50_000_000, // 50 virtual ms
                drain_timeout_ns: 100_000_000, // 100 virtual ms
                ..Default::default()
            },
            ..Default::default()
        },
    );

    let (results, stats) = sb.run_with_gateway_stats(move |node| {
        let vc = node.vchannel("vc");
        node.barrier().wait();
        match node.rank().0 {
            0 => {
                // Healthy stream 0 → 3, through the faulty (but alive) link.
                let data = payload(0, 3, 0, HEALTHY);
                let mut w = vc.begin_packing(NodeId(3)).unwrap();
                w.pack(&data, SendMode::Later, RecvMode::Cheaper).unwrap();
                w.end_packing().unwrap();
                Ok(())
            }
            1 => {
                // Doomed stream 1 → 4: the gateway's retransmit toward the
                // dead host fails, the stream is cancelled, and the typed
                // error propagates back here through the credit machinery.
                let data = payload(1, 4, 0, DOOMED);
                (|| {
                    let mut w = vc.begin_packing(NodeId(4))?;
                    w.pack(&data, SendMode::Later, RecvMode::Cheaper)?;
                    w.end_packing()
                })()
            }
            2 => Ok(()), // the gateway
            3 => {
                let mut buf = vec![0u8; HEALTHY];
                let mut r = vc.begin_unpacking().unwrap();
                r.unpack(&mut buf, SendMode::Later, RecvMode::Cheaper)
                    .unwrap();
                r.end_unpacking().unwrap();
                assert_eq!(buf, payload(0, 3, 0, HEALTHY), "healthy stream corrupted");
                Ok(())
            }
            4 => Ok(()), // dead host: must not block on receives that never come
            _ => unreachable!(),
        }
    });

    assert!(
        results[0].is_ok(),
        "healthy sender failed: {:?}",
        results[0]
    );
    match &results[1] {
        Err(MadError::PeerUnreachable(peer)) => assert_eq!(*peer, NodeId(4)),
        Err(MadError::CreditTimeout { dest, .. }) => assert_eq!(*dest, NodeId(4)),
        other => panic!("doomed sender must fail typed, got {other:?}"),
    }
    assert!(results[3].is_ok());

    // Gateway accounting: the healthy stream relayed in full, the doomed
    // one cancelled, nothing left resident in the engine.
    assert_eq!(stats.len(), 1);
    let t = stats[0].2.totals();
    assert!(t.messages >= 1, "healthy message not relayed");
    assert!(t.cancelled >= 1, "the doomed stream was never cancelled");
    assert_eq!(t.held_bytes, 0, "engine leaked resident bytes");
    assert!(
        t.fragment_bytes >= HEALTHY as u64,
        "healthy payload not fully relayed"
    );
}

/// The pool tentpole, asserted end-to-end on the simulated backend: once
/// the recycle loop is warm, a fault-free forwarded workload performs
/// *zero* heap allocations per fragment — every staging, landing, and
/// control buffer is a pool hit. Warm-up rounds populate the size-class
/// free lists; after them the session-wide miss counter must not move,
/// while the get counter keeps growing with traffic. Runs with 1 KB
/// fragments (so they cross as trains) and flow control on, so
/// grant/cancel control buffers and the landed frames the trains are
/// windows onto are covered by the assertion too.
#[test]
fn pool_reaches_zero_miss_steady_state() {
    const ROUNDS: u32 = 12;
    const WARMUP: u32 = 4;
    const LEN: usize = 20_000;
    const MTU: usize = 1024;

    let tb = Testbed::new(3);
    let mut sb = SessionBuilder::new(3).with_runtime(tb.runtime());
    let n0 = sb.network("myri", tb.driver(SimTech::Myrinet), &[0, 1]);
    let n1 = sb.network("fe", tb.driver(SimTech::FastEthernet), &[1, 2]);
    sb.vchannel(
        "vc",
        &[n0, n1],
        VcOptions {
            mtu: Some(MTU),
            gateway: GatewayConfig {
                pipeline_depth: 16,
                credit_window: Some(8),
                ..Default::default()
            },
            ..Default::default()
        },
    );

    let marks = sb.run(move |node| {
        let vc = node.vchannel("vc");
        let rt = node.runtime().clone();
        node.barrier().wait();
        let mut warm = (0u64, 0u64);
        for i in 0..ROUNDS {
            match node.rank().0 {
                0 => {
                    let data = payload(0, 2, i, LEN);
                    let mut w = vc.begin_packing(NodeId(2)).unwrap();
                    w.pack(&data, SendMode::Later, RecvMode::Cheaper).unwrap();
                    w.end_packing().unwrap();
                }
                1 => {} // the gateway: engine threads do the work
                2 => {
                    let mut buf = vec![0u8; LEN];
                    let mut r = vc.begin_unpacking().unwrap();
                    r.unpack(&mut buf, SendMode::Later, RecvMode::Cheaper)
                        .unwrap();
                    r.end_unpacking().unwrap();
                    assert_eq!(buf, payload(0, 2, i, LEN), "round {i}");
                }
                _ => unreachable!(),
            }
            // Round boundary: the message is fully consumed end-to-end
            // before anyone snapshots or sends again.
            node.barrier().wait();
            if i + 1 == WARMUP {
                let s = rt.pool().stats();
                warm = (s.gets, s.misses);
            }
        }
        let s = rt.pool().stats();
        (warm, (s.gets, s.misses))
    });

    let ((warm_gets, warm_misses), (end_gets, end_misses)) = marks[1];
    assert!(
        end_gets > warm_gets + 100,
        "steady-state rounds barely touched the pool ({warm_gets} → {end_gets} \
         gets) — the assertion below would be vacuous"
    );
    assert_eq!(
        end_misses,
        warm_misses,
        "pool missed {} times after warm-up: the gateway/GTM path is \
         allocating per fragment again",
        end_misses - warm_misses
    );
}

/// Multi-path death soak, seeded: a width-3 parallel-gateway fabric
/// relays a schedule of bulk streams while one gateway — chosen by the
/// seed — silently dies at a seeded point mid-schedule. The routing
/// plane must retire the dead path (`deaths >= 1`), every stream must
/// arrive intact and exactly once on a surviving gateway, the plane's
/// byte accounting must balance, and the session must tear down with
/// zero hangs. Which streams need a mid-flight *failover* (vs. being
/// caught at their header send and merely re-routed) depends on the
/// schedule, so failovers are not asserted — delivery is.
#[test]
fn multipath_death_soak_delivers_every_stream() {
    const MSGS: u32 = 18;

    // Seeded schedule: bulk sizes, the victim gateway, and the kill time.
    let mut rng = Rng::new(soak_seed() ^ 0x4D50_4454); // "MPDT"
    let sizes: Vec<usize> = (0..MSGS)
        .map(|_| rng.gen_range(100_000..300_000usize))
        .collect();
    let victim = rng.gen_range(1..4usize) as u32; // one of gateways 1..3
    let kill_at_ns = 10_000_000 + rng.gen_range(0..20_000_000usize) as u64;
    let sizes = std::sync::Arc::new(sizes);

    // net0 {0,1,2,3} Myrinet, net1 {1,2,3,4} Sci: ranks 1–3 all span the
    // clusters, so the plan for 0 → 4 has width 3.
    let tb = Testbed::new(5);
    tb.kill_host(victim as usize, kill_at_ns);
    let mut sb = SessionBuilder::new(5).with_runtime(tb.runtime());
    let n0 = sb.network("myri", tb.driver(SimTech::Myrinet), &[0, 1, 2, 3]);
    let n1 = sb.network("sci", tb.driver(SimTech::Sci), &[1, 2, 3, 4]);
    sb.vchannel(
        "vc",
        &[n0, n1],
        VcOptions {
            mtu: Some(8 * 1024),
            gateway: GatewayConfig {
                drain_timeout_ns: 100_000_000, // dead engine must not hang teardown
                ..Default::default()
            },
            ..Default::default()
        },
    );

    let sizes2 = sizes.clone();
    let deaths = sb.run(move |node| {
        let vc = node.vchannel("vc");
        node.barrier().wait();
        match node.rank().0 {
            0 => {
                for (i, &len) in sizes2.iter().enumerate() {
                    let data = payload(0, 4, i as u32, len);
                    let mut w = vc.begin_packing(NodeId(4)).unwrap();
                    // Streams on different paths may overtake each other,
                    // so stamp the index for the receiver.
                    let hdr = [i as u8];
                    w.pack(&hdr, SendMode::Safer, RecvMode::Express).unwrap();
                    w.pack(&data, SendMode::Later, RecvMode::Cheaper).unwrap();
                    w.end_packing().unwrap();
                }
                let mp = vc.multipath().expect("parallel gateways");
                // Conservation: every delivered byte is accounted to the
                // path that actually carried it, replays included.
                let total: u64 = mp.path_bytes().iter().map(|&(_, b)| b).sum();
                let expect: u64 = sizes2.iter().map(|&l| l as u64 + 1).sum();
                assert_eq!(total, expect, "path accounting out of balance");
                mp.selector().counters().deaths
            }
            4 => {
                let mut seen = vec![false; MSGS as usize];
                for _ in 0..MSGS {
                    let mut r = vc.begin_unpacking().unwrap();
                    let mut hdr = [0u8; 1];
                    r.unpack(&mut hdr, SendMode::Safer, RecvMode::Express)
                        .unwrap();
                    let i = hdr[0] as u32;
                    let len = sizes2[i as usize];
                    let mut buf = vec![0u8; len];
                    r.unpack(&mut buf, SendMode::Later, RecvMode::Cheaper)
                        .unwrap();
                    r.end_unpacking().unwrap();
                    assert_eq!(buf, payload(0, 4, i, len), "stream #{i} corrupted");
                    assert!(!seen[i as usize], "stream #{i} delivered twice");
                    seen[i as usize] = true;
                }
                assert!(seen.iter().all(|&s| s), "missing streams: {seen:?}");
                0
            }
            _ => 0, // the three gateways (one of them doomed)
        }
    });
    assert!(
        deaths[0] >= 1,
        "gateway {victim} died at {kill_at_ns} ns but the routing plane never retired it"
    );
}

/// Two plain channels over the same network are independent ordering
/// domains (paper §2.1.2: "in-order delivery is only enforced ... within
/// the same channel") — and traffic on one never leaks into the other.
#[test]
fn channels_are_isolated_worlds() {
    let mut sb = SessionBuilder::new(2);
    let rt = sb.runtime().clone();
    let net = sb.network("shm", ShmDriver::new(rt), &[0, 1]);
    sb.channel("alpha", net);
    sb.channel("beta", net);
    let ok = sb.run(|node| {
        let alpha = node.channel("alpha");
        let beta = node.channel("beta");
        if node.rank() == NodeId(0) {
            // Interleave sends across the two channels.
            for i in 0..20u8 {
                let a_byte = [i];
                let mut w = alpha.begin_packing(NodeId(1)).unwrap();
                w.pack(&a_byte, SendMode::Safer, RecvMode::Express).unwrap();
                w.end_packing().unwrap();
                let b_byte = [100 + i];
                let mut w = beta.begin_packing(NodeId(1)).unwrap();
                w.pack(&b_byte, SendMode::Safer, RecvMode::Express).unwrap();
                w.end_packing().unwrap();
            }
            true
        } else {
            // Drain beta entirely first: alpha's traffic must be untouched
            // and still in order afterwards.
            for i in 0..20u8 {
                let mut r = beta.begin_unpacking().unwrap();
                let mut b = [0u8; 1];
                r.unpack(&mut b, SendMode::Safer, RecvMode::Express)
                    .unwrap();
                r.end_unpacking().unwrap();
                assert_eq!(b[0], 100 + i);
            }
            for i in 0..20u8 {
                let mut r = alpha.begin_unpacking().unwrap();
                let mut b = [0u8; 1];
                r.unpack(&mut b, SendMode::Safer, RecvMode::Express)
                    .unwrap();
                r.end_unpacking().unwrap();
                assert_eq!(b[0], i);
            }
            true
        }
    });
    assert!(ok.into_iter().all(|x| x));
}
