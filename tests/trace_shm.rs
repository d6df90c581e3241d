//! Tracing over the real shared-memory driver: the exported JSONL must
//! parse against the schema, and the per-channel byte counters must equal
//! the bytes the application actually packed (plain channels add no
//! framing, so wire bytes == payload bytes).

use mad_shm::ShmDriver;
use madeleine::mad_trace::schema::{validate_jsonl, validate_tracks};
use madeleine::mad_trace::Tracer;
use madeleine::session::{trace_tables, VcOptions};
use madeleine::{NodeId, RecvMode, SendMode, SessionBuilder};

#[test]
fn shm_counters_match_bytes_packed() {
    const SIZES: [usize; 3] = [4096, 128, 1000];
    let total: usize = SIZES.iter().sum();

    let tracer = Tracer::new();
    let mut sb = SessionBuilder::new(2).with_tracer(tracer.clone());
    let rt = sb.runtime().clone();
    let net = sb.network("shm0", ShmDriver::new(rt), &[0, 1]);
    sb.channel("ch", net);
    let ok = sb.run(|node| {
        let ch = node.channel("ch");
        if node.rank() == NodeId(0) {
            for (i, &len) in SIZES.iter().enumerate() {
                let data = vec![i as u8; len];
                let mut w = ch.begin_packing(NodeId(1)).unwrap();
                w.pack(&data, SendMode::Later, RecvMode::Cheaper).unwrap();
                w.end_packing().unwrap();
            }
            true
        } else {
            for (i, &len) in SIZES.iter().enumerate() {
                let mut buf = vec![0u8; len];
                let mut r = ch.begin_unpacking().unwrap();
                r.unpack(&mut buf, SendMode::Later, RecvMode::Cheaper)
                    .unwrap();
                r.end_unpacking().unwrap();
                assert!(buf.iter().all(|&b| b == i as u8));
            }
            true
        }
    });
    assert!(ok.into_iter().all(|x| x));

    let snap = tracer.snapshot();
    assert_eq!(snap.domain, "mono");

    // The JSONL export is schema-valid.
    let jsonl = snap.to_jsonl_string();
    let summary = validate_jsonl(&jsonl).expect("exported JSONL must validate");
    assert!(summary.spans > 0, "hot paths should have recorded spans");
    assert!(summary.counts > 0, "channel counters should have flushed");

    // Plain channels put payload bytes on the wire verbatim, so the
    // flushed per-channel counters equal the bytes packed/unpacked.
    let totals = snap.counter_totals();
    let get = |track: &str, name: &str| -> i64 {
        *totals
            .get(&(track.to_string(), "channel".to_string(), name.to_string()))
            .unwrap_or_else(|| panic!("missing counter {track}/{name}"))
    };
    assert_eq!(get("ch:ch@0", "bytes_sent"), total as i64);
    assert_eq!(get("ch:ch@1", "bytes_recv"), total as i64);
    assert_eq!(get("ch:ch@0", "packets_sent"), SIZES.len() as i64);
    assert_eq!(get("ch:ch@1", "packets_recv"), SIZES.len() as i64);
}

#[test]
fn shm_gateway_session_emits_valid_jsonl() {
    const MSG: usize = 200_000;

    let tracer = Tracer::new();
    let mut sb = SessionBuilder::new(3).with_tracer(tracer.clone());
    let rt = sb.runtime().clone();
    let n0 = sb.network("shm0", ShmDriver::new(rt.clone()), &[0, 1]);
    let n1 = sb.network("shm1", ShmDriver::new(rt), &[1, 2]);
    sb.vchannel(
        "vc",
        &[n0, n1],
        VcOptions {
            mtu: Some(4096),
            ..Default::default()
        },
    );
    let ok = sb.run(|node| {
        let vc = node.vchannel("vc");
        node.barrier().wait();
        match node.rank().0 {
            0 => {
                let data = vec![0xABu8; MSG];
                let mut w = vc.begin_packing(NodeId(2)).unwrap();
                w.pack(&data, SendMode::Later, RecvMode::Cheaper).unwrap();
                w.end_packing().unwrap();
                true
            }
            1 => true,
            2 => {
                let mut buf = vec![0u8; MSG];
                let mut r = vc.begin_unpacking().unwrap();
                r.unpack(&mut buf, SendMode::Later, RecvMode::Cheaper)
                    .unwrap();
                r.end_unpacking().unwrap();
                buf.iter().all(|&b| b == 0xAB)
            }
            _ => unreachable!(),
        }
    });
    assert!(ok.into_iter().all(|x| x));

    let snap = tracer.snapshot();
    let jsonl = snap.to_jsonl_string();
    validate_jsonl(&jsonl).expect("gateway JSONL must validate");
    // Every counter track carries only the names the library flushes.
    let counts = validate_tracks(&jsonl, &trace_tables()).expect("counter tracks must validate");
    for prefix in ["gw:", "rt:", "ch:"] {
        assert!(counts[prefix] > 0, "no `{prefix}` events: {counts:?}");
    }

    // The gateway engine recorded its relay activity on the polling
    // thread's track.
    let gw_spans = snap.spans("gw1-vc-in-net0", "gw").len();
    assert!(gw_spans > 0, "gateway engine should record gw spans");
    // And the end-of-run gateway totals were flushed as counters.
    let totals = snap.counter_totals();
    let on = |track: &str, cat: &str, name: &str| {
        totals.get(&(track.to_string(), cat.to_string(), name.to_string()))
    };
    assert_eq!(on("gw:vc@1", "gateway", "messages"), Some(&1));
    // The copy-placement accounting sits on the engine's own track, and
    // the buffer pool's counters beside the session's thread budget.
    for name in [
        "copies_recv",
        "copies_flush",
        "copy_idle_hits",
        "recv_busy_ns",
        "flush_busy_ns",
    ] {
        assert!(
            on("gw:vc@1", "gateway", name).is_some(),
            "gw:vc@1 lacks {name}"
        );
    }
    for name in [
        "threads_spawned",
        "gets",
        "hits",
        "misses",
        "recycled",
        "discarded",
    ] {
        assert!(
            on("rt:session", "runtime", name).is_some(),
            "rt:session lacks {name}"
        );
    }
    let gets = on("rt:session", "runtime", "gets").copied().unwrap_or(0);
    assert!(gets > 0, "a 200 kB forwarded message draws pool buffers");

    // Every `ch:` track splits its byte totals over the channel's conduit
    // peers: the `peer` args sum to the totals and name only peers of
    // that channel's network (shm0 joins ranks 0 and 1, shm1 ranks 1 and
    // 2). Tracks are `ch:vc.<regular|special>.<net>@<rank>`.
    let mut ch_tracks = 0;
    for t in snap.threads.iter().filter(|t| t.name.starts_with("ch:")) {
        let (label, rank) = t.name["ch:".len()..].rsplit_once('@').unwrap();
        let rank: u64 = rank.parse().unwrap();
        let members: &[u64] = match label.rsplit('.').next() {
            Some("shm0") => &[0, 1],
            Some("shm1") => &[1, 2],
            other => panic!("{}: unexpected network {other:?}", t.name),
        };
        assert!(members.contains(&rank), "{}: rank off its network", t.name);
        for (total, per_peer) in [
            ("bytes_sent", "peer_bytes_sent"),
            ("bytes_recv", "peer_bytes_recv"),
        ] {
            let mut split = 0;
            for e in t.events.iter().filter(|e| e.name == per_peer) {
                let peer = e.args.iter().find(|(k, _)| *k == "peer");
                let (_, peer) = peer.unwrap_or_else(|| panic!("{}: {per_peer} lacks peer", t.name));
                assert!(
                    peer != rank && members.contains(&peer),
                    "{}: peer {peer} is no conduit peer",
                    t.name
                );
                split += e.value;
            }
            let whole = on(&t.name, "channel", total).copied();
            assert_eq!(Some(split), whole, "{}: {per_peer} vs {total}", t.name);
        }
        ch_tracks += 1;
    }
    assert_eq!(ch_tracks, 8, "two channels per network end");

    // The Chrome export is well-formed JSON too.
    let chrome = snap.to_chrome_string();
    madeleine::mad_trace::schema::parse(&chrome).expect("chrome export must parse");
}
