//! End-to-end tests of Madeleine over the simulated hardware — including
//! first checks that the paper's headline phenomena reproduce.

use madeleine::session::VcOptions;
use madeleine::{NodeId, RecvMode, SendMode, SessionBuilder};

use crate::{SimTech, Testbed};

/// One-way transfer of `total` bytes from rank 0 to rank 2 through the
/// gateway rank 1; returns achieved bandwidth in MB/s (virtual time).
fn forwarded_bandwidth(from_tech: SimTech, to_tech: SimTech, total: usize, mtu: usize) -> f64 {
    let tb = Testbed::new(3);
    let rt = tb.runtime();
    let mut sb = SessionBuilder::new(3).with_runtime(rt);
    let n_in = sb.network("net-in", tb.driver(from_tech), &[0, 1]);
    let n_out = sb.network("net-out", tb.driver(to_tech), &[1, 2]);
    let mut opts = VcOptions {
        mtu: Some(mtu),
        ..Default::default()
    };
    opts.gateway.switch_overhead_ns = simnet::calibration::gateway_switch_overhead().as_nanos();
    sb.vchannel("vc", &[n_in, n_out], opts);
    let results = sb.run(move |node| {
        let vc = node.vchannel("vc");
        let rt = node.runtime().clone();
        match node.rank().0 {
            0 => {
                let data = vec![0xA5u8; total];
                let mut w = vc.begin_packing(NodeId(2)).unwrap();
                w.pack(&data, SendMode::Later, RecvMode::Cheaper).unwrap();
                w.end_packing().unwrap();
                0.0
            }
            1 => 0.0,
            2 => {
                let mut buf = vec![0u8; total];
                let t0 = rt.now_nanos();
                let mut r = vc.begin_unpacking().unwrap();
                r.unpack(&mut buf, SendMode::Later, RecvMode::Cheaper)
                    .unwrap();
                r.end_unpacking().unwrap();
                let t1 = rt.now_nanos();
                assert!(buf.iter().all(|&b| b == 0xA5));
                total as f64 / ((t1 - t0) as f64 / 1e9) / 1e6
            }
            _ => unreachable!(),
        }
    });
    results[2]
}

#[test]
fn direct_sim_myrinet_transfer_is_correct_and_timed() {
    let tb = Testbed::new(2);
    let rt = tb.runtime();
    let mut sb = SessionBuilder::new(2).with_runtime(rt);
    let net = sb.network("myri", tb.driver(SimTech::Myrinet), &[0, 1]);
    sb.channel("ch", net);
    let results = sb.run(|node| {
        let ch = node.channel("ch");
        let rt = node.runtime().clone();
        if node.rank() == NodeId(0) {
            let data: Vec<u8> = (0..262_144).map(|i| (i % 253) as u8).collect();
            let mut w = ch.begin_packing(NodeId(1)).unwrap();
            w.pack(&data, SendMode::Later, RecvMode::Cheaper).unwrap();
            w.end_packing().unwrap();
            0
        } else {
            let mut buf = vec![0u8; 262_144];
            let mut r = ch.begin_unpacking().unwrap();
            r.unpack(&mut buf, SendMode::Later, RecvMode::Cheaper)
                .unwrap();
            r.end_unpacking().unwrap();
            assert!(buf.iter().enumerate().all(|(i, &b)| b == (i % 253) as u8));
            rt.now_nanos()
        }
    });
    // 256 KB over modeled Myrinet: 70 MB/s device ceiling means at least
    // ~3.7 ms of virtual time must have passed; a generous upper bound
    // catches gross model regressions.
    let elapsed_s = results[1] as f64 / 1e9;
    assert!(
        (0.003..0.1).contains(&elapsed_s),
        "virtual transfer time {elapsed_s}s out of plausible range"
    );
}

#[test]
fn sci_to_myrinet_forwarding_reaches_high_bandwidth() {
    // Fig. 6 regime: large messages, 32 KB packets → should approach the
    // PCI ceiling (paper: >50 MB/s for large packets, 66 theoretical max).
    let bw = forwarded_bandwidth(SimTech::Sci, SimTech::Myrinet, 4 << 20, 32 * 1024);
    assert!(
        (35.0..66.0).contains(&bw),
        "SCI→Myrinet bandwidth {bw:.1} MB/s outside the paper's regime"
    );
}

#[test]
fn myrinet_to_sci_forwarding_collapses() {
    // Fig. 7 regime: the gateway's SCI PIO sends are halved by concurrent
    // Myrinet DMA receives (paper: never exceeds ~35 MB/s).
    let bw = forwarded_bandwidth(SimTech::Myrinet, SimTech::Sci, 4 << 20, 32 * 1024);
    assert!(
        (15.0..35.0).contains(&bw),
        "Myrinet→SCI bandwidth {bw:.1} MB/s outside the paper's regime"
    );
}

#[test]
fn direction_asymmetry_matches_paper() {
    // The paper's central observation: SCI→Myrinet clearly beats
    // Myrinet→SCI at the same packet size.
    let s2m = forwarded_bandwidth(SimTech::Sci, SimTech::Myrinet, 2 << 20, 16 * 1024);
    let m2s = forwarded_bandwidth(SimTech::Myrinet, SimTech::Sci, 2 << 20, 16 * 1024);
    assert!(
        s2m > m2s * 1.3,
        "expected clear asymmetry, got SCI→Myri {s2m:.1} vs Myri→SCI {m2s:.1} MB/s"
    );
}

#[test]
fn bigger_packets_raise_sci_to_myrinet_bandwidth() {
    // Fig. 6's packet-size ordering: 8 KB packets amortize the per-switch
    // overhead worst. The message must be long enough (paper: up to 16 MB)
    // to wash out pipeline fill/drain at the largest packet size.
    let small = forwarded_bandwidth(SimTech::Sci, SimTech::Myrinet, 8 << 20, 8 * 1024);
    let large = forwarded_bandwidth(SimTech::Sci, SimTech::Myrinet, 8 << 20, 128 * 1024);
    assert!(
        large > small * 1.15,
        "expected packet-size scaling, got 8KB:{small:.1} vs 128KB:{large:.1} MB/s"
    );
}

#[test]
fn simulated_run_is_deterministic() {
    let a = forwarded_bandwidth(SimTech::Sci, SimTech::Myrinet, 1 << 20, 16 * 1024);
    let b = forwarded_bandwidth(SimTech::Sci, SimTech::Myrinet, 1 << 20, 16 * 1024);
    assert_eq!(a.to_bits(), b.to_bits(), "virtual timing must be exact");
}

#[test]
fn fast_ethernet_is_much_slower() {
    let eth = forwarded_bandwidth(SimTech::Sci, SimTech::FastEthernet, 1 << 20, 16 * 1024);
    assert!(
        eth < 12.5,
        "Fast Ethernet can't beat its 12.5 MB/s wire: got {eth:.1}"
    );
    assert!(eth > 2.0, "suspiciously slow Ethernet: {eth:.1} MB/s");
}

mod driver_units {
    use madeleine::conduit::{BufferMode, Driver};
    use madeleine::runtime::Runtime;
    use madeleine::types::NodeId;

    use crate::{SimTech, Testbed};

    #[test]
    fn tech_caps_are_consistent() {
        for tech in [
            SimTech::Myrinet,
            SimTech::Sci,
            SimTech::FastEthernet,
            SimTech::Sbp,
        ] {
            let caps = tech.caps();
            assert!(caps.max_gather >= 1);
            assert!(caps.preferred_mtu <= caps.max_packet);
            // A modeled send takes time: a gateway keeps its pipeline.
            assert!(!caps.queued_send, "{tech:?}");
            let p = tech.params();
            assert!(p.link_bw_bps > 0.0 && p.dev_in_bps > 0.0 && p.dev_out_bps > 0.0);
        }
        // Buffer disciplines per the paper's assignments.
        assert_eq!(SimTech::Myrinet.caps().mode, BufferMode::Dynamic);
        assert_eq!(SimTech::Sci.caps().mode, BufferMode::Static);
        assert_eq!(SimTech::Sbp.caps().mode, BufferMode::Static);
        // Staging: only socket/kernel-style networks copy on ordinary sends.
        assert!(!SimTech::Myrinet.send_staging_copy());
        assert!(!SimTech::Sci.send_staging_copy());
        assert!(SimTech::FastEthernet.send_staging_copy());
        assert!(SimTech::Sbp.send_staging_copy());
    }

    #[test]
    fn static_drivers_offer_buffers_dynamic_do_not() {
        let tb = Testbed::new(2);
        let rt = tb.runtime();
        for (tech, expect) in [(SimTech::Myrinet, false), (SimTech::Sci, true)] {
            let driver = tb.driver(tech);
            let (mut a, _b) = driver.connect(NodeId(0), NodeId(1), rt.event(), rt.event());
            assert_eq!(a.alloc_static(64).is_some(), expect, "{tech:?}");
        }
    }

    #[test]
    fn conduit_data_round_trip_on_clock() {
        let tb = Testbed::new(2);
        let rt = tb.runtime();
        let driver = tb.driver(SimTech::Sbp);
        let (mut a, mut b) = driver.connect(NodeId(0), NodeId(1), rt.event(), rt.event());
        let h = tb.clock().spawn("xfer", move |_| {
            a.send(&[b"he", b"llo"]).unwrap();
            let got = b.recv_owned().unwrap();
            assert_eq!(got, b"hello");
            // ready/closed bookkeeping
            assert!(!b.ready());
            assert!(!b.closed());
            drop(a);
            assert!(b.closed());
        });
        h.join().unwrap();
    }
}
