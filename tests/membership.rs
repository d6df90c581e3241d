//! Dynamic membership end-to-end: the four-phase join handshake over a
//! live cluster-of-clusters, graceful leave → path retirement, rejoin
//! under a bumped incarnation epoch → path readmission, and a seeded churn
//! soak under bulk traffic that holds the credit window's occupancy bound
//! through every episode — with the `member:` trace track asserted
//! throughout.

use mad_sim::{SimTech, Testbed};
use madeleine::gateway::GatewayConfig;
use madeleine::mad_trace::schema::{validate_jsonl, validate_tracks};
use madeleine::session::{trace_tables, VcOptions};
use madeleine::{MemberState, MetricsOptions, NodeId, RecvMode, SendMode, SessionBuilder};
use simnet::TraceLog;

/// Root seed of the randomized pieces; override with
/// `MAD_SOAK_SEED=<u64>` (CI pins one fixed value).
fn soak_seed() -> u64 {
    std::env::var("MAD_SOAK_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0x4D45_4D42)
}

/// Deterministic payload, distinct per (sender, index).
fn payload(from: u32, idx: u32, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| {
            (i as u8)
                .wrapping_mul(13)
                .wrapping_add((from + 7 * idx) as u8)
        })
        .collect()
}

/// Every rank except `me` — the peer set a node joins against.
fn peers_of(me: u32, n: u32) -> Vec<NodeId> {
    (0..n).filter(|&r| r != me).map(NodeId).collect()
}

const JOIN_TIMEOUT: u64 = 2_000_000_000; // 2 virtual s
const WAIT_TIMEOUT: u64 = 2_000_000_000;

/// One full lifecycle episode on the parallel-gateway topology
/// (net0 {0,1,2}, net1 {1,2,3}; gateways 1 and 2):
///
/// 1. every node joins the session through the four-phase handshake;
/// 2. traffic 0 → 3 flows over the two-path fabric;
/// 3. gateway 1 leaves gracefully — peers retire its path in the shared
///    selector (`deaths` + a `dead_path_flap` health event, at most one
///    per watchdog per episode);
/// 4. traffic flows again (now via gateway 2 only);
/// 5. gateway 1 rejoins under a bumped incarnation epoch — serving its
///    join request readmits the retired path (`readmissions`);
/// 6. traffic flows once more over the readmitted fabric.
#[test]
fn leave_rejoin_retires_then_readmits_path_threaded() {
    const MSGS: u32 = 4;
    const LEN: usize = 100_000;

    let trace = TraceLog::new();
    let tracer = trace.tracer().clone();
    let tb = Testbed::with_trace(4, trace);
    let mut sb = SessionBuilder::new(4).with_runtime(tb.runtime());
    let n0 = sb.network("myri", tb.driver(SimTech::Myrinet), &[0, 1, 2]);
    let n1 = sb.network("sci", tb.driver(SimTech::Sci), &[1, 2, 3]);
    sb.vchannel(
        "vc",
        &[n0, n1],
        VcOptions {
            mtu: Some(8 * 1024),
            membership: true,
            metrics: Some(MetricsOptions),
            gateway: GatewayConfig::default(),
        },
    );
    let ok = sb.run(move |node| {
        let vc = node.vchannel("vc");
        let me = node.rank().0;
        let peers = peers_of(me, 4);
        let plane = vc.membership().expect("membership enabled").clone();
        node.barrier().wait();

        // 1. Everyone joins; the handshake is idempotent, so a second
        //    call is a logged no-op.
        plane.join(&peers, JOIN_TIMEOUT).expect("join failed");
        plane.join(&peers, JOIN_TIMEOUT).expect("re-join failed");
        assert_eq!(plane.phases_completed(), 4);
        assert_eq!(plane.epoch(), 1);
        node.barrier().wait();

        let send = |round: u32| {
            for i in 0..MSGS {
                let data = payload(0, round * MSGS + i, LEN);
                let mut w = vc.begin_packing(NodeId(3)).unwrap();
                let hdr = [(round * MSGS + i) as u8];
                w.pack(&hdr, SendMode::Safer, RecvMode::Express).unwrap();
                w.pack(&data, SendMode::Later, RecvMode::Cheaper).unwrap();
                w.end_packing().unwrap();
            }
        };
        let recv = || {
            let mut seen = vec![false; MSGS as usize * 3];
            for _ in 0..MSGS {
                let mut r = vc.begin_unpacking().unwrap();
                let mut hdr = [0u8; 1];
                r.unpack(&mut hdr, SendMode::Safer, RecvMode::Express)
                    .unwrap();
                let i = hdr[0] as u32;
                let mut buf = vec![0u8; LEN];
                r.unpack(&mut buf, SendMode::Later, RecvMode::Cheaper)
                    .unwrap();
                r.end_unpacking().unwrap();
                assert_eq!(buf, payload(0, i, LEN), "stream #{i} corrupted");
                assert!(!seen[i as usize], "stream #{i} delivered twice");
                seen[i as usize] = true;
            }
        };

        // 2. Traffic over the two-path fabric.
        match me {
            0 => send(0),
            3 => recv(),
            _ => {}
        }
        node.barrier().wait();

        // 3. Gateway 1 leaves gracefully; rank 0 synchronizes on the
        //    announcement before the next phase, so the retirement is
        //    deterministic, not racing the barrier.
        if me == 1 {
            plane.leave(&peers);
        }
        if me == 0 {
            assert!(
                plane.wait_member_state(NodeId(1), MemberState::Left, WAIT_TIMEOUT),
                "rank 0 never observed gateway 1's departure"
            );
            let mp = vc.multipath().expect("parallel gateways");
            let c = mp.selector().counters();
            assert!(c.deaths >= 1, "leave did not retire the path: {c:?}");
        }
        node.barrier().wait();

        // 4. Traffic with the path retired: everything rides gateway 2.
        match me {
            0 => send(1),
            3 => recv(),
            _ => {}
        }
        node.barrier().wait();

        // 5. Gateway 1 rejoins under epoch 2. Serving the request
        //    readmits the retired path *before* the ack is sent, so by
        //    the time rejoin returns the re-plan is complete — that is
        //    the bounded-time guarantee, enforced by the join timeout.
        if me == 1 {
            let epoch = plane.rejoin(&peers, JOIN_TIMEOUT).expect("rejoin failed");
            assert_eq!(epoch, 2);
            let mp = vc.multipath().expect("parallel gateways");
            let c = mp.selector().counters();
            assert_eq!(
                c.readmissions, 1,
                "rejoin must readmit the retired path exactly once: {c:?}"
            );
        }
        node.barrier().wait();
        if me == 0 {
            assert!(
                plane.wait_member_state(NodeId(1), MemberState::Active, WAIT_TIMEOUT),
                "rank 0 never observed gateway 1's reactivation"
            );
            assert_eq!(plane.member_epoch(NodeId(1)), 2);
        }
        node.barrier().wait();

        // 6. Traffic over the readmitted fabric.
        match me {
            0 => send(2),
            3 => recv(),
            _ => {}
        }
        assert_eq!(plane.stale_drops(), 0, "no packet here is stale");
        true
    });
    assert!(ok.into_iter().all(|x| x));

    // Trace: the member track validates, carries the lifecycle events,
    // and each watchdog flapped the dead path at most once per episode.
    let totals = tracer.snapshot().counter_totals();
    let sum = |want_track: &str, want_name: &str| -> i64 {
        totals
            .iter()
            .filter(|((track, _, name), _)| track.starts_with(want_track) && name == want_name)
            .map(|(_, v)| *v)
            .sum()
    };
    assert!(
        sum("member:", "phase_activate") >= 4,
        "every node activated"
    );
    assert!(sum("member:", "peer_leave") >= 1, "no peer saw the leave");
    assert_eq!(sum("member:", "retire"), 1, "one retirement episode");
    assert_eq!(sum("member:", "readmit"), 1, "one readmission");
    assert!(sum("member:", "rejoin") >= 1, "the rejoin never traced");
    for ((track, _, name), v) in &totals {
        if track.starts_with("health:") && name == "dead_path_flap" {
            assert!(
                *v <= 1,
                "{track} flapped the dead path {v} times in one episode"
            );
        }
    }
    assert!(
        sum("health:", "dead_path_flap") >= 1,
        "no watchdog reported the retirement episode"
    );

    let jsonl = tracer.snapshot().to_jsonl_string();
    validate_jsonl(&jsonl).expect("trace must validate");
    let tracks = validate_tracks(&jsonl, &trace_tables()).expect("typed tracks must validate");
    assert!(tracks["member:"] > 0, "no member events in the trace");
}

/// Seeded churn soak: gateway 1 cycles leave → rejoin while rank 0
/// streams bulk traffic to rank 3 the whole time under a credit window of
/// 8. Zero hangs, zero lost acknowledged streams,
/// every episode retires and readmits the path, stale packets never appear
/// (graceful churn is epoch-monotone), and neither gateway ever holds more
/// than the window allows (A4c's bound, which `tests/soak.rs` checks on a
/// static session).
#[test]
fn churn_soak_under_bulk_traffic() {
    const ROUNDS: u32 = 3;
    const MSGS_PER_ROUND: u32 = 6;
    const MTU: usize = 8 * 1024;
    const WINDOW: u32 = 8;
    // Four windows a message: the sender runs on returned credits, so a
    // stream's last fragments leave only once all but a window of it has
    // crossed its gateway.
    const LEN: usize = 4 * WINDOW as usize * MTU;

    let seed = soak_seed();
    let trace = TraceLog::new();
    let tracer = trace.tracer().clone();
    let tb = Testbed::with_trace(4, trace);
    let mut sb = SessionBuilder::new(4).with_runtime(tb.runtime());
    let n0 = sb.network("myri", tb.driver(SimTech::Myrinet), &[0, 1, 2]);
    let n1 = sb.network("sci", tb.driver(SimTech::Sci), &[1, 2, 3]);
    sb.vchannel(
        "vc",
        &[n0, n1],
        VcOptions {
            mtu: Some(MTU),
            membership: true,
            metrics: Some(MetricsOptions),
            gateway: GatewayConfig {
                // Deep enough that the window, not the queue, is what
                // bounds occupancy (without one a gateway peaks past the
                // bound below), as in `tests/soak.rs`.
                pipeline_depth: 64,
                credit_window: Some(WINDOW),
                ..Default::default()
            },
        },
    );
    let (ok, stats) = sb.run_with_gateway_stats(move |node| {
        let vc = node.vchannel("vc");
        let me = node.rank().0;
        let peers = peers_of(me, 4);
        let plane = vc.membership().expect("membership enabled").clone();
        node.barrier().wait();
        plane.join(&peers, JOIN_TIMEOUT).expect("join failed");
        node.barrier().wait();

        match me {
            0 => {
                // The sender never pauses: streams are in flight across
                // every leave and rejoin below.
                for i in 0..ROUNDS * MSGS_PER_ROUND {
                    let data = payload(0, i, LEN);
                    let mut w = vc.begin_packing(NodeId(3)).unwrap();
                    let hdr = [i as u8];
                    w.pack(&hdr, SendMode::Safer, RecvMode::Express).unwrap();
                    w.pack(&data, SendMode::Later, RecvMode::Cheaper).unwrap();
                    w.end_packing().unwrap();
                }
            }
            3 => {
                let total = ROUNDS * MSGS_PER_ROUND;
                let mut seen = vec![false; total as usize];
                for _ in 0..total {
                    let mut r = vc.begin_unpacking().unwrap();
                    let mut hdr = [0u8; 1];
                    r.unpack(&mut hdr, SendMode::Safer, RecvMode::Express)
                        .unwrap();
                    let i = hdr[0] as u32;
                    let mut buf = vec![0u8; LEN];
                    r.unpack(&mut buf, SendMode::Later, RecvMode::Cheaper)
                        .unwrap();
                    r.end_unpacking().unwrap();
                    assert_eq!(buf, payload(0, i, LEN), "stream #{i} corrupted");
                    assert!(!seen[i as usize], "stream #{i} delivered twice");
                    seen[i as usize] = true;
                }
                assert!(seen.iter().all(|&s| s), "lost streams: {seen:?}");
            }
            1 => {
                // The churning gateway: leave, linger (seeded), rejoin —
                // ROUNDS times, while the traffic above keeps flowing.
                let mut s = seed | 1;
                for round in 0..ROUNDS {
                    // Seeded linger between 2 and ~6 virtual ms.
                    s ^= s << 13;
                    s ^= s >> 7;
                    s ^= s << 17;
                    node.runtime().charge_overhead(2_000_000 + s % 4_000_000);
                    plane.leave(&peers);
                    node.runtime()
                        .charge_overhead(2_000_000 + (s >> 8) % 4_000_000);
                    // Rejoin returning Ok IS the bounded-re-plan assert:
                    // readmission happens before the final ack, and the
                    // whole handshake is capped by the join timeout.
                    let epoch = plane.rejoin(&peers, JOIN_TIMEOUT).expect("rejoin failed");
                    assert_eq!(epoch as u32, round + 2);
                }
                let mp = vc.multipath().expect("parallel gateways");
                let c = mp.selector().counters();
                assert!(
                    c.readmissions >= ROUNDS as u64,
                    "every churn episode must readmit the path: {c:?}"
                );
            }
            _ => {}
        }
        node.barrier().wait();
        // Graceful churn is epoch-monotone: nothing may have been
        // dropped as stale, on any plane.
        plane.stale_drops()
    });
    assert!(
        ok.into_iter().all(|d| d == 0),
        "graceful churn produced stale drops"
    );

    // The occupancy promise, through every leave → rejoin: the sender
    // holds one account at a time, so a gateway holds at most the last
    // window of one stream and the first of the next. A fragment packet
    // is the payload plus the GTM prelude; a little slack on top.
    let bound = 2 * WINDOW as i64 * (MTU as i64 + 64) + 4096;
    assert_eq!(stats.len(), 2, "one engine per gateway");
    for (_, gw, st) in &stats {
        let t = st.totals();
        assert!(
            t.peak_held_bytes <= bound,
            "gateway {gw} held {} bytes > bound {bound}",
            t.peak_held_bytes
        );
        assert_eq!(t.held_bytes, 0, "gateway {gw} holds bytes after teardown");
    }
    let jsonl = tracer.snapshot().to_jsonl_string();
    let tracks = validate_tracks(&jsonl, &trace_tables()).expect("typed tracks must validate");
    assert!(tracks["member:"] > 0, "no member events in the trace");
}
