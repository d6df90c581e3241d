//! Per-layer probes: timing calls into the library's public functions, one
//! layer at a time, outside any session. Each probe runs for a few tens of
//! milliseconds and reports the median of its batches.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use mad_shm::{ShmDriver, SHM_CAPS};
use mad_tcp::TcpDriver;
use mad_trace::ChannelStats;
use mad_util::pool::{BufferPool, PooledBuf};
use madeleine::conduit::{Conduit, Driver, DriverCaps, StaticBuf};
use madeleine::gtm::{
    self, GtmHeader, GtmPartDesc, GtmWriter, PacketBody, StreamAssembler, StreamTag,
};
use madeleine::runtime::RtEvent;
use madeleine::{
    Channel, ChannelId, CreditLedger, MadError, NetworkId, NodeId, RecvMode, Runtime, SendMode,
    StdRuntime,
};

use crate::stats::median;
use crate::workload::{Traffic, Workload, MIX_SIZES, MTU};

/// Wall time one probe may take.
const BUDGET: Duration = Duration::from_millis(40);

/// Median ns per call of `f`, over batches of `batch` calls.
fn bench(batch: usize, mut f: impl FnMut()) -> f64 {
    let mut per_call = Vec::new();
    let began = Instant::now();
    while per_call.len() < 3 || (began.elapsed() < BUDGET && per_call.len() < 64) {
        let t = Instant::now();
        for _ in 0..batch {
            f();
        }
        per_call.push(t.elapsed().as_nanos() as f64 / batch as f64);
    }
    median(&per_call).expect("at least three batches")
}

/// A conduit that keeps what is sent through it, so the probes see the
/// packets exactly as the library frames them.
struct Capture {
    sent: Arc<Mutex<Vec<Vec<u8>>>>,
    event: Arc<dyn RtEvent>,
}

impl Conduit for Capture {
    fn caps(&self) -> DriverCaps {
        SHM_CAPS
    }
    fn send(&mut self, parts: &[&[u8]]) -> madeleine::Result<()> {
        self.sent
            .lock()
            .expect("capture poisoned")
            .push(parts.concat());
        Ok(())
    }
    fn send_static(&mut self, buf: StaticBuf) -> madeleine::Result<()> {
        self.sent
            .lock()
            .expect("capture poisoned")
            .push(buf.into_vec());
        Ok(())
    }
    fn alloc_static(&mut self, _len: usize) -> Option<StaticBuf> {
        None
    }
    fn recv_into(&mut self, _dst: &mut [u8]) -> madeleine::Result<usize> {
        Err(MadError::Disconnected)
    }
    fn recv_owned(&mut self) -> madeleine::Result<Vec<u8>> {
        Err(MadError::Disconnected)
    }
    fn ready(&self) -> bool {
        false
    }
    fn closed(&self) -> bool {
        true
    }
    fn recv_event(&self) -> Arc<dyn RtEvent> {
        self.event.clone()
    }
}

const TAG: StreamTag = StreamTag {
    src: NodeId(0),
    dest: NodeId(2),
    msg_id: 1,
};

/// The wire packets of one forwarded `len`-byte message, written by the
/// library's own `GtmWriter`.
fn gtm_packets(rt: &Arc<dyn Runtime>, len: usize) -> madeleine::Result<Vec<Vec<u8>>> {
    let sent = Arc::new(Mutex::new(Vec::new()));
    let conduit: Box<dyn Conduit> = Box::new(Capture {
        sent: sent.clone(),
        event: rt.event(),
    });
    let channel = Channel::assemble(
        ChannelId(0),
        "probe",
        NetworkId(0),
        NodeId(0),
        SHM_CAPS,
        BTreeMap::from([(NodeId(1), conduit)]),
        rt.event(),
        rt.clone(),
    );
    let data = vec![0x5Au8; len];
    let mut w = GtmWriter::begin(&channel, NodeId(1), TAG, MTU, false, None)?;
    let packed = w.pack(&data, SendMode::Cheaper, RecvMode::Cheaper);
    w.end_packing().and(packed)?;
    let packets = std::mem::take(&mut *sent.lock().expect("capture poisoned"));
    Ok(packets)
}

fn gtm_probes(rt: &Arc<dyn Runtime>, w: &Workload, out: &mut Vec<(&'static str, f64)>) {
    // One message per entry of the size mix (or the one stream size).
    let sizes: Vec<usize> = match w.traffic {
        Traffic::StreamThenPingPong { size } => vec![size],
        Traffic::DuplexMix => MIX_SIZES.to_vec(),
    };
    let mut messages = Vec::new();
    for &len in &sizes {
        match gtm_packets(rt, len) {
            Ok(p) => messages.push(p),
            Err(e) => {
                eprintln!("gtm probe: framing a {len}-byte message failed: {e:?}");
                return;
            }
        }
    }
    let packets: usize = messages.iter().map(Vec::len).sum();
    let wire: usize = messages.iter().flatten().map(Vec::len).sum();
    let payload: usize = sizes.iter().sum();
    out.push(("gtm.pkts_per_msg", packets as f64 / messages.len() as f64));
    out.push(("gtm.wire_overhead_ratio", wire as f64 / payload as f64));

    let header = GtmHeader::new(TAG, MTU as u32, false);
    let part = GtmPartDesc {
        len: sizes[0] as u64,
        send: SendMode::Cheaper,
        recv: RecvMode::Cheaper,
    };
    let mut scratch = Vec::with_capacity(64);
    let encode = bench(1000, || {
        gtm::encode_header_into(&mut scratch, black_box(&header));
        black_box(&scratch);
        gtm::encode_part_into(&mut scratch, &TAG, black_box(&part));
        black_box(&scratch);
        gtm::encode_end_into(&mut scratch, black_box(&TAG));
        black_box(&scratch);
    });
    out.push(("gtm.encode_ns_per_pkt", encode / 3.0));

    let decode = bench(20, || {
        for p in messages.iter().flatten() {
            black_box(gtm::decode_packet(black_box(p)).is_ok());
        }
    });
    out.push(("gtm.decode_ns_per_pkt", decode / packets as f64));

    // Reassembly: copies of the packets are made outside the timed part;
    // the assembler takes ownership of each.
    let frags = messages
        .iter()
        .flatten()
        .filter(|p| matches!(gtm::decode_packet(p), Ok((_, PacketBody::Frag))))
        .count();
    let mut per_frag = Vec::new();
    for _ in 0..5 {
        let owned: Vec<Vec<PooledBuf>> = messages
            .iter()
            .map(|m| m.iter().cloned().map(PooledBuf::from).collect())
            .collect();
        let mut asm = StreamAssembler::new();
        let t = Instant::now();
        for message in owned {
            for packet in message {
                black_box(asm.push_packet(packet).is_ok());
            }
            if let Some(key) = asm.pop_ready() {
                while let Some(item) = asm.next_item(key) {
                    black_box(&item);
                }
                asm.finish(key);
            }
        }
        per_frag.push(t.elapsed().as_nanos() as f64 / frags.max(1) as f64);
    }
    out.push((
        "gtm.assemble_ns_per_frag",
        median(&per_frag).expect("five rounds"),
    ));
}

/// The four probes of one transport, on a raw conduit pair: same-thread
/// send+receive of 64 B and 64 KiB, a two-thread 64 B ping-pong, and a
/// two-thread windowed 64 KiB stream.
fn driver_probes(driver: &dyn Driver, rt: &Arc<dyn Runtime>) -> [f64; 4] {
    let pool = rt.pool().clone();
    let (mut a, mut b) = driver.connect(NodeId(0), NodeId(1), rt.event(), rt.event());
    let small = [0x11u8; 64];
    let big = vec![0x22u8; 64 * 1024];
    let mut failed = false;
    let mut same_thread = |buf: &[u8], batch: usize| {
        bench(batch, || {
            let ok = a
                .send(&[buf])
                .and_then(|()| b.recv_owned())
                .map(|p| drop(pool.adopt(p)));
            failed |= ok.is_err();
        })
    };
    let ns_small = same_thread(&small, 200);
    let ns_big = same_thread(&big, 50);

    // Two threads: `b` echoes 64 B packets, acknowledges every 16th large
    // one with a byte, and stops on an empty packet.
    const ACK_EVERY: usize = 16;
    const WINDOW: usize = 32;
    let (rtt_ns, stream_ns) = std::thread::scope(|s| {
        let pool = &pool;
        let echo = s.spawn(move || {
            let mut large = 0;
            while let Ok(p) = b.recv_owned() {
                let n = p.len();
                drop(pool.adopt(p));
                let reply: &[u8] = match n {
                    0 => return true,
                    64 => &small,
                    _ => {
                        large += 1;
                        if large % ACK_EVERY != 0 {
                            continue;
                        }
                        &[1]
                    }
                };
                if b.send(&[reply]).is_err() {
                    break;
                }
            }
            false
        });
        let mut ok = true;
        let rtt = bench(100, || {
            ok &= a.send(&[&small]).is_ok();
            ok &= a.recv_owned().map(|p| drop(pool.adopt(p))).is_ok();
        });
        let mut outstanding = 0;
        let stream = bench(WINDOW * 4, || {
            if outstanding == WINDOW {
                ok &= a.recv_owned().map(|p| drop(pool.adopt(p))).is_ok();
                outstanding -= ACK_EVERY;
            }
            ok &= a.send(&[&big]).is_ok();
            outstanding += 1;
        });
        ok &= a.send(&[&[]]).is_ok();
        ok &= echo.join().unwrap_or(false);
        if !ok {
            eprintln!(
                "driver probe `{}`: a raw send or receive failed",
                driver.caps().name
            );
        }
        (rtt, stream)
    });
    if failed {
        eprintln!(
            "driver probe `{}`: a same-thread transfer failed",
            driver.caps().name
        );
    }
    [
        ns_small,
        ns_big,
        rtt_ns / 1e3,
        big.len() as f64 * 1e3 / stream_ns,
    ]
}

/// Run every probe for `w`; each result is `(metric name, value)`.
pub fn run(w: &Workload) -> Vec<(&'static str, f64)> {
    let rt: Arc<dyn Runtime> = StdRuntime::shared();
    let mut out = Vec::new();

    // plan: the grouping function, as the direct path calls it.
    let lens = w.block_lengths();
    let packetize = bench(200, || {
        for &len in &lens {
            black_box(madeleine::plan::packetize(
                black_box(&[len]),
                SHM_CAPS.max_packet,
                SHM_CAPS.max_gather,
            ));
        }
    });
    out.push(("plan.packetize_ns", packetize / lens.len() as f64));

    gtm_probes(&rt, w, &mut out);

    let shm = driver_probes(&*ShmDriver::new(rt.clone()), &rt);
    let tcp = driver_probes(&*TcpDriver::new(rt.clone()), &rt);
    for (names, v) in [
        (
            [
                "mad-shm.send_recv_ns_64B",
                "mad-shm.send_recv_ns_64KiB",
                "mad-shm.xthread_rtt_us_64B",
                "mad-shm.raw_MBps_64KiB",
            ],
            shm,
        ),
        (
            [
                "mad-tcp.send_recv_ns_64B",
                "mad-tcp.send_recv_ns_64KiB",
                "mad-tcp.xthread_rtt_us_64B",
                "mad-tcp.raw_MBps_64KiB",
            ],
            tcp,
        ),
    ] {
        out.extend(names.into_iter().zip(v));
    }

    // pool: a warm get and its return.
    let pool = BufferPool::new();
    drop(pool.get(MTU));
    out.push((
        "pool.get_put_ns_64KiB",
        bench(1000, || drop(black_box(pool.get(MTU)))),
    ));

    // credit: one take and the grant that refills it.
    let ledger = CreditLedger::new(rt.event());
    let key = TAG.key();
    ledger.open(key, crate::workload::CREDIT_WINDOW);
    out.push((
        "credit.take_deposit_ns",
        bench(1000, || {
            black_box(ledger.try_take(key));
            ledger.deposit(key, 1);
        }),
    ));

    // mad-trace: the per-packet channel counters, alone and beside a
    // second thread doing the same.
    let stats = ChannelStats::new();
    let touch = || {
        stats.on_send(1, 64);
        stats.on_recv(1, 64);
    };
    out.push(("mad-trace.channelstats_ns", bench(1000, touch)));
    let stop = AtomicBool::new(false);
    let contended = std::thread::scope(|s| {
        s.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                touch();
            }
        });
        let ns = bench(1000, touch);
        stop.store(true, Ordering::Relaxed);
        ns
    });
    out.push(("mad-trace.channelstats_contended_ns", contended));
    out
}
