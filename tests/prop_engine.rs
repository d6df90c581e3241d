//! Delivery property of the forwarding engine: every case generates a
//! random chained topology, gateway configuration, and message batch, runs
//! it once, and requires the receiver to unpack exactly the messages that
//! were sent, byte for byte and in order. A seeded soak sends small and
//! multi-fragment messages across the same gateway chain back to back.

use mad_shm::ShmDriver;
use mad_util::prop::{self, Config, Shrink};
use mad_util::rng::Rng;
use mad_util::{prop_assert, prop_require};
use madeleine::gateway::GatewayConfig;
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
        // Windows of 1 and 3 are where a half-window grant period rounds.
        credit_window: *rng
            .choose(&[None, Some(1u32), Some(2), Some(3), Some(4), Some(16)])
            .unwrap(),
        messages: prop::vec_of(rng, 1..5, |r| prop::bytes(r, 0..40_000)),
    }
}

/// Run the scenario and return the bytes each receiver-side unpack
/// produced, in order.
fn run(sc: &Scenario) -> Vec<Vec<u8>> {
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
                pipeline_depth: sc.pipeline_depth,
                credit_window: sc.credit_window,
                ..Default::default()
            },
            ..Default::default()
        },
    );
    let last = NodeId(n - 1);
    let messages = sc.messages.clone();
    let received = sb.run(move |node| {
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
    received.into_iter().flatten().collect()
}

fn delivers_exactly(sc: &Scenario) -> Result<(), String> {
    prop_require!(!sc.messages.is_empty());
    prop_assert!(
        run(sc) == sc.messages,
        "the engine corrupted the stream ({} hops, mtu {}, depth {}, window {:?})",
        sc.hops,
        sc.mtu,
        sc.pipeline_depth,
        sc.credit_window
    );
    Ok(())
}

#[test]
fn engine_delivers_exactly_the_sent_messages() {
    prop::check(
        "engine_delivers_exactly_the_sent_messages",
        &Config::with_cases(24),
        gen_scenario,
        delivers_exactly,
    );
}

/// Seeded mixed-size soak: sub-fragment and multi-fragment messages (up
/// to 32 fragments) cross the same two-gateway chain back to back — the
/// file's only seeded small-then-bulk run. Override the seed with
/// `MAD_SOAK_SEED` to replay a specific run.
#[test]
fn mixed_size_soak_delivers_exact_bytes() {
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
        messages: prop::vec_of(&mut rng, 24..25, |r| prop::bytes(r, 0..32_000)),
    };
    assert_eq!(
        run(&sc),
        sc.messages,
        "mixed-size soak corrupted the stream"
    );
}
