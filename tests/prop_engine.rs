//! Engine-equivalence property: the reactor engine must forward exactly
//! the bytes the threaded engine forwards. Every case generates a random
//! chained topology, gateway configuration, and message batch, runs it
//! once under each engine core, and compares the byte streams delivered
//! to every receiver — plus both against the sent payloads, so a bug that
//! corrupts both engines identically still fails.
//!
//! The same harness also covers the kind-12 protocol switch: cases with a
//! nonzero `rendezvous_threshold` re-run under both engines with the
//! threshold forced to 0 (the eager-only ablation), and all four
//! deliveries must be byte-identical to the sent payloads. A seeded soak
//! pins the threshold mid-payload-distribution so eager and rendezvous
//! streams cross the same gateways back to back.

use mad_shm::ShmDriver;
use mad_util::prop::{self, Config, Shrink};
use mad_util::rng::Rng;
use mad_util::{prop_assert, prop_require};
use madeleine::gateway::{EngineKind, GatewayConfig};
use madeleine::session::VcOptions;
use madeleine::{NodeId, RecvMode, SendMode, SessionBuilder};

/// One generated scenario: a chain of `hops + 1` shm networks (so `hops`
/// gateways in sequence), tuned by randomized engine knobs, carrying a
/// batch of end-to-end messages.
#[derive(Debug, Clone)]
struct Scenario {
    hops: usize,
    mtu: usize,
    pipeline_depth: usize,
    credit_window: Option<u32>,
    rendezvous_threshold: usize,
    messages: Vec<Vec<u8>>,
}

impl Shrink for Scenario {
    /// Shrink the payloads only; the topology and knobs are the point of
    /// the case.
    fn shrink(&self) -> Vec<Self> {
        self.messages
            .shrink()
            .into_iter()
            .filter(|m| !m.is_empty())
            .map(|messages| Scenario {
                messages,
                ..self.clone()
            })
            .collect()
    }
}

fn gen_scenario(rng: &mut Rng) -> Scenario {
    Scenario {
        hops: *rng.choose(&[1usize, 2]).unwrap(),
        mtu: *rng.choose(&[256usize, 1024, 8 * 1024]).unwrap(),
        pipeline_depth: *rng.choose(&[1usize, 2, 3]).unwrap(),
        credit_window: *rng.choose(&[None, Some(2u32), Some(4), Some(16)]).unwrap(),
        // 0 keeps everything eager; the nonzero thresholds sit below and
        // inside the payload distribution so bulk messages go rendezvous.
        rendezvous_threshold: *rng.choose(&[0usize, 2048, 16 * 1024]).unwrap(),
        messages: prop::vec_of(rng, 1..5, |r| prop::bytes(r, 0..40_000)),
    }
}

/// Run the scenario under `engine` and return the bytes each receiver-side
/// unpack produced, in order, plus the kind-12 CTS count of the first
/// gateway (0 when every stream stayed eager).
fn run_engine(sc: &Scenario, engine: EngineKind) -> (Vec<Vec<u8>>, u64) {
    let n = sc.hops as u32 + 2; // chain 0-1-…-(n-1), gateways in between
    let mut sb = SessionBuilder::new(n);
    let rt = sb.runtime().clone();
    let nets: Vec<_> = (0..=sc.hops)
        .map(|i| {
            sb.network(
                format!("net{i}"),
                ShmDriver::new(rt.clone()),
                &[i as u32, i as u32 + 1],
            )
        })
        .collect();
    sb.vchannel(
        "vc",
        &nets,
        VcOptions {
            mtu: Some(sc.mtu),
            gateway: GatewayConfig {
                engine,
                pipeline_depth: sc.pipeline_depth,
                credit_window: sc.credit_window,
                rendezvous_threshold: sc.rendezvous_threshold,
                ..Default::default()
            },
            ..Default::default()
        },
    );
    let last = NodeId(n - 1);
    let messages = sc.messages.clone();
    let (received, gw_stats) = sb.run_with_gateway_stats(move |node| {
        let vc = node.vchannel("vc");
        if node.rank() == NodeId(0) {
            for m in &messages {
                let mut w = vc.begin_packing(last).unwrap();
                w.pack(m, SendMode::Later, RecvMode::Cheaper).unwrap();
                w.end_packing().unwrap();
            }
            Vec::new()
        } else if node.rank() == last {
            let mut got = Vec::new();
            for m in &messages {
                let mut buf = vec![0u8; m.len()];
                let mut r = vc.begin_unpacking().unwrap();
                r.unpack(&mut buf, SendMode::Later, RecvMode::Cheaper)
                    .unwrap();
                r.end_unpacking().unwrap();
                got.push(buf);
            }
            got
        } else {
            Vec::new()
        }
    });
    let cts: u64 = gw_stats.iter().map(|(_, _, st)| st.totals().cts_sent).sum();
    (received.into_iter().flatten().collect(), cts)
}

fn engines_agree(sc: &Scenario) -> Result<(), String> {
    prop_require!(!sc.messages.is_empty());
    let (threaded, threaded_cts) = run_engine(sc, EngineKind::Threaded);
    let (reactor, reactor_cts) = run_engine(sc, EngineKind::Reactor);
    prop_assert!(
        threaded == sc.messages,
        "threaded engine corrupted the stream ({} hops, mtu {})",
        sc.hops,
        sc.mtu
    );
    prop_assert!(
        reactor == sc.messages,
        "reactor engine corrupted the stream ({} hops, mtu {})",
        sc.hops,
        sc.mtu
    );
    prop_assert!(
        threaded == reactor,
        "engines disagree on delivered bytes ({} hops, mtu {})",
        sc.hops,
        sc.mtu
    );
    // The protocol switch must actually engage: any bulk message over an
    // enabled threshold runs the handshake on the first gateway.
    let bulk = sc
        .messages
        .iter()
        .filter(|m| sc.rendezvous_threshold > 0 && m.len() >= sc.rendezvous_threshold)
        .count() as u64;
    if sc.credit_window.is_some() {
        prop_assert!(
            threaded_cts >= bulk && reactor_cts >= bulk,
            "bulk messages stayed eager ({bulk} over threshold {}, \
             {threaded_cts} threaded / {reactor_cts} reactor CTS)",
            sc.rendezvous_threshold
        );
    } else {
        prop_assert!(
            threaded_cts == 0 && reactor_cts == 0,
            "rendezvous ran without flow control"
        );
    }
    // Eager/rendezvous equivalence: the same traffic with the protocol
    // switch disabled must deliver the same bytes under both engines.
    if sc.rendezvous_threshold > 0 && sc.credit_window.is_some() {
        let eager = Scenario {
            rendezvous_threshold: 0,
            ..sc.clone()
        };
        for engine in [EngineKind::Threaded, EngineKind::Reactor] {
            let (got, eager_cts) = run_engine(&eager, engine);
            prop_assert!(
                got == threaded,
                "eager ablation disagrees with rendezvous delivery \
                 ({engine:?}, {} hops, mtu {}, threshold {})",
                sc.hops,
                sc.mtu,
                sc.rendezvous_threshold
            );
            prop_assert!(eager_cts == 0, "threshold 0 must be eager-only");
        }
    }
    Ok(())
}

#[test]
fn engines_forward_byte_identical_streams() {
    // Every case runs TWO full multi-threaded sessions: keep counts low.
    prop::check(
        "engines_forward_byte_identical_streams",
        &Config::with_cases(12),
        gen_scenario,
        engines_agree,
    );
}

/// Seeded mixed-protocol soak: the rendezvous threshold sits in the
/// middle of the payload distribution, so small (eager) and bulk
/// (rendezvous) streams cross the same gateway chain back to back under
/// both engine cores. Override the seed with `MAD_SOAK_SEED` to replay a
/// specific run.
#[test]
fn mixed_protocol_soak_delivers_exact_bytes() {
    let seed = std::env::var("MAD_SOAK_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(20010914u64);
    let mut rng = Rng::new(seed);
    let sc = Scenario {
        hops: 2,
        mtu: 1024,
        pipeline_depth: 2,
        credit_window: Some(4),
        rendezvous_threshold: 8 * 1024,
        messages: prop::vec_of(&mut rng, 24..25, |r| prop::bytes(r, 0..32_000)),
    };
    let (small, bulk): (Vec<_>, Vec<_>) = sc
        .messages
        .iter()
        .partition(|m| m.len() < sc.rendezvous_threshold);
    assert!(
        !small.is_empty() && !bulk.is_empty(),
        "seed must yield traffic on both sides of the threshold \
         ({} eager, {} rendezvous)",
        small.len(),
        bulk.len()
    );
    for engine in [EngineKind::Threaded, EngineKind::Reactor] {
        let (got, cts) = run_engine(&sc, engine);
        assert_eq!(
            got, sc.messages,
            "mixed-protocol soak corrupted the stream under {engine:?}"
        );
        assert!(
            cts >= bulk.len() as u64,
            "only {cts} CTS for {} bulk messages under {engine:?}",
            bulk.len()
        );
    }
}
