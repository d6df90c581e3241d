//! One session of traffic, from `SessionBuilder::new` to the return of
//! `run`: build → warm-up → rounds of [reference sample · slice] → teardown.
//!
//! Load comes from two threads — the closures of the first and the last
//! rank; middle ranks only host gateway engines. Rank 0 keeps the clock: it
//! flags the last message of every slice, and it takes every reference
//! sample while the other load thread is parked at a barrier.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use mad_metrics::Snapshot;
use mad_shm::ShmDriver;
use mad_tcp::TcpDriver;
use madeleine::gateway::{GatewayConfig, GatewayStats, GatewayTotals};
use madeleine::session::VcOptions;
use madeleine::{
    MadError, MetricsOptions, Node, NodeId, RecvMode, Runtime, SendMode, SessionBuilder,
    VirtualChannel,
};

use crate::refkernel::{RefKernel, Sample};
use crate::spans::{Span, SpanBuf};
use crate::sys::{CountingAlloc, Rusage};
use crate::workload::{
    mix_size, Payload, Topology, Traffic, Window, CREDIT_WINDOW, CTL_LAST, MIN_MSG, MTU,
    SMALL_EXCHANGE,
};

const VC: &str = "vc";
/// Warm-up stream: this many messages, but no more than this many bytes —
/// enough to fill the pools, spawn lazy threads and open the TCP windows.
const WARM_STREAM_MSGS: u64 = 200;
const WARM_STREAM_BYTES: u64 = 32 << 20;
const WARM_ROUND_TRIPS: u64 = 8;
const WARM_EXCHANGES: u64 = 60;
/// Round trips a ping-pong or exchange slice holds at least, so that ten or
/// more lie beyond its 90th percentile.
pub const MIN_ROUND_TRIPS: u64 = 100;
/// Spans one load thread may record in one traced session, shared out
/// equally among its slices; recording starts after the warm-up.
const SPAN_CAP: usize = 1 << 15;
/// A traced session records the spans of every this-many-th message, so a
/// slice's quota reaches across the slice.
pub const SPAN_STRIDE: u64 = 16;

/// Counters read around every stream slice, as one vector so that deltas
/// and sums are element-wise.
pub const N_COUNTS: usize = 12;
/// Indices into [`Counts`].
pub mod count {
    #![allow(missing_docs)]
    pub const CPU_US: usize = 0;
    pub const VCSW: usize = 1;
    pub const IVCSW: usize = 2;
    pub const POOL_GETS: usize = 3;
    pub const POOL_MISSES: usize = 4;
    pub const GW_FRAGS: usize = 5;
    pub const GW_STALLS: usize = 6;
    pub const GW_SWITCHES: usize = 7;
    pub const GW_COPIES: usize = 8;
    pub const GW_CREDITS: usize = 9;
    pub const ALLOC_CALLS: usize = 10;
    pub const ALLOC_BYTES: usize = 11;
}
/// One reading (or delta, or sum) of the slice counters.
pub type Counts = [u64; N_COUNTS];

/// What one session does.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Nodes and networks.
    pub topology: Topology,
    /// What the load threads send.
    pub traffic: Traffic,
    /// Payload and size-mix seed.
    pub seed: u64,
    /// Length of a stream or ping-pong slice (an exchange slice is twice it).
    pub slice: Duration,
    /// Rounds of slices; 0 makes a set-up-only session.
    pub rounds: usize,
    /// Record spans, count allocations, enable the library's registry.
    pub traced: bool,
}

impl Plan {
    /// Time the slices alone take — what the watchdog scales.
    pub fn nominal(&self) -> Duration {
        self.slice * 2 * self.rounds as u32
    }
}

/// What a slice timed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SliceKind {
    /// Windowed one-way stream.
    Stream,
    /// Closed-loop ping-pong, one client.
    PingPong,
    /// Duplex exchanges over the size mix: counts as both of the above.
    Exchange,
}

impl SliceKind {
    /// The name spans carry as their phase.
    pub fn name(self) -> &'static str {
        match self {
            SliceKind::Stream => "stream",
            SliceKind::PingPong => "pingpong",
            SliceKind::Exchange => "exchange",
        }
    }
}

/// One timed slice; slice `k` is flanked by samples `k` and `k + 1`.
#[derive(Debug, Clone)]
pub struct Slice {
    /// What ran.
    pub kind: SliceKind,
    /// Wall time of the slice, ns.
    pub wall_ns: f64,
    /// Messages (exchanges) completed and verified.
    pub msgs: u64,
    /// Payload bytes delivered and verified (both directions).
    pub bytes: u64,
    /// Counter deltas over the slice.
    pub counts: Counts,
    /// Wall round-trip times inside the slice, ns.
    pub rtts_ns: Vec<f64>,
}

/// Everything one session produced.
pub struct Outcome {
    /// Session start → end of warm-up, wall seconds.
    pub setup_wall_s: f64,
    /// Session start → every rank past the first barrier, ms.
    pub build_ms: f64,
    /// Session start → first verified round trip, ms.
    pub first_rtt_ms: f64,
    /// Last closure return → `run()` return, ms.
    pub teardown_ms: f64,
    /// `Runtime::threads_spawned` at the end.
    pub threads_spawned: u64,
    /// In-session reference samples (`slices.len() + 1`, or none).
    pub samples: Vec<Sample>,
    /// The timed slices, in order.
    pub slices: Vec<Slice>,
    /// Messages sent by either load thread.
    pub attempted: u64,
    /// Sends, receives or payload checks that failed.
    pub failed: u64,
    /// Every gateway's totals at the end of the session.
    pub gateways: Vec<GatewayTotals>,
    /// Traced sessions: every node's registry at the closing barrier.
    pub snapshots: Vec<Snapshot>,
    /// Traced sessions: the two load threads' spans.
    pub spans: Vec<(&'static str, SpanBuf)>,
}

struct Shared {
    plan: Plan,
    start: Instant,
    refk: Arc<RefKernel>,
    payload: Arc<Payload>,
    runtime: Arc<dyn Runtime>,
    /// The two load threads' own barrier (reference samples, slice starts).
    pair: Barrier,
    gateways: Mutex<Vec<Arc<GatewayStats>>>,
    attempted: AtomicU64,
    failed: AtomicU64,
    /// Set by the first failure: both load threads leave at the next park.
    abort: AtomicBool,
}

impl Shared {
    fn fail(&self, what: &str, err: impl std::fmt::Debug) {
        if self.failed.fetch_add(1, Ordering::Relaxed) < 8 {
            eprintln!("FAILED {what}: {err:?}");
        }
        self.abort.store(true, Ordering::SeqCst);
    }

    /// Nanoseconds since the session started, for span timestamps; an
    /// untraced session reads no clock for them.
    fn ns_if(&self, traced: bool) -> u64 {
        if traced {
            self.start.elapsed().as_nanos() as u64
        } else {
            0
        }
    }

    fn counts(&self) -> Counts {
        let ru = Rusage::now();
        let pool = self.runtime.pool().stats();
        let (alloc_calls, alloc_bytes) = CountingAlloc::counts();
        let mut c = [0; N_COUNTS];
        c[count::CPU_US] = ru.cpu_us;
        c[count::VCSW] = ru.vcsw;
        c[count::IVCSW] = ru.ivcsw;
        c[count::POOL_GETS] = pool.gets;
        c[count::POOL_MISSES] = pool.misses;
        c[count::ALLOC_CALLS] = alloc_calls;
        c[count::ALLOC_BYTES] = alloc_bytes;
        for g in self.gateways.lock().expect("gateway list poisoned").iter() {
            let t = g.totals();
            c[count::GW_FRAGS] += t.fragments;
            c[count::GW_STALLS] += t.stalls;
            c[count::GW_SWITCHES] += t.buffer_switches;
            c[count::GW_COPIES] += t.copies_recv + t.copies_flush;
            c[count::GW_CREDITS] += t.credits_granted;
        }
        c
    }
}

/// When a loop of messages ends.
#[derive(Clone, Copy)]
enum Until {
    /// After this many messages (warm-up).
    Count(u64),
    /// With the first message sent at or after `at` (a slice is fixed in
    /// duration, so a run does not shrink when the code gets faster) — but
    /// not before `at_least` are done: a ping-pong slice holds at least
    /// [`MIN_ROUND_TRIPS`], which only a slow minute on the bulk workloads
    /// makes longer than `at`.
    Deadline { at: Instant, at_least: u64 },
}

impl Until {
    /// Is the message about to be sent the last one, after `msgs` messages
    /// of which `round_trips` were timed as round trips?
    fn last(self, msgs: u64, round_trips: u64) -> bool {
        match self {
            Until::Count(n) => msgs + 1 >= n,
            Until::Deadline { at, at_least } => round_trips >= at_least && Instant::now() >= at,
        }
    }
}

/// One load thread's view of the channel: its buffers, its two message
/// counters, and (traced) its span buffer.
struct Io<'a> {
    sh: &'a Shared,
    vc: &'a VirtualChannel,
    peer: NodeId,
    tx: Vec<Vec<u8>>,
    rx: Vec<Vec<u8>>,
    tx_index: u64,
    rx_index: u64,
    /// Traced sessions, from the first slice on.
    spans: Option<SpanBuf>,
    /// The kind of the slice under way, as spans name it.
    phase: &'static str,
}

impl<'a> Io<'a> {
    fn new(sh: &'a Shared, vc: &'a VirtualChannel, peer: NodeId) -> Self {
        let mut sizes = match sh.plan.traffic {
            Traffic::StreamThenPingPong { size } => vec![MIN_MSG, size],
            Traffic::DuplexMix => crate::workload::MIX_SIZES.to_vec(),
        };
        sizes.sort_unstable();
        sizes.dedup();
        let bufs = || sizes.iter().map(|&s| sh.payload.buffer(s)).collect();
        Io {
            sh,
            vc,
            peer,
            tx: bufs(),
            rx: bufs(),
            tx_index: 0,
            rx_index: 0,
            spans: None,
            phase: "",
        }
    }

    /// The warm-up is over: a traced session records spans from here on.
    fn start_spans(&mut self) {
        if self.sh.plan.traced {
            self.spans = Some(SpanBuf::with_capacity(SPAN_CAP));
        }
    }

    /// A slice of `kind` starts, with its share of the span buffer.
    fn open_slice(&mut self, kind: SliceKind) {
        self.phase = kind.name();
        let slices = self.sh.plan.rounds * round_kinds(self.sh.plan.traffic).len();
        if let Some(spans) = self.spans.as_mut() {
            spans.open_slice(SPAN_CAP / slices);
        }
    }

    /// Does the message with this index record spans?
    fn sampled(&self, index: u64) -> bool {
        self.spans.is_some() && index.is_multiple_of(SPAN_STRIDE)
    }

    fn slot(bufs: &mut [Vec<u8>], size: usize) -> &mut Vec<u8> {
        bufs.iter_mut()
            .find(|b| b.len() == size)
            .expect("a buffer exists for every size the workload sends")
    }

    /// Send one message of `size` bytes carrying `ctl`. False on failure.
    fn send(&mut self, size: usize, ctl: u64) -> bool {
        let (sh, vc) = (self.sh, self.vc);
        let index = self.tx_index;
        self.tx_index += 1;
        let traced = self.sampled(index);
        let ns = || sh.ns_if(traced);
        sh.attempted.fetch_add(1, Ordering::Relaxed);
        let t_root = ns();
        let buf = Self::slot(&mut self.tx, size);
        sh.payload.stamp(buf, index, ctl);
        let t_send = ns();
        // A writer must be finalised even after a failed `pack`.
        let sent = vc.begin_packing(self.peer).and_then(|mut w| {
            let packed = w.pack(buf, SendMode::Cheaper, RecvMode::Cheaper);
            w.end_packing().and(packed)
        });
        if let Some(spans) = self.spans.as_mut().filter(|_| traced) {
            let end = ns();
            let (msg, phase) = (index, self.phase);
            let parent = spans.push(Span {
                name: "msg.tx",
                phase,
                parent: None,
                msg,
                start: t_root,
                end,
            });
            spans.push(Span {
                name: "vchannel.send",
                phase,
                parent,
                msg,
                start: t_send,
                end,
            });
        }
        sent.map_err(|e| sh.fail("send", e)).is_ok()
    }

    /// Receive and check one message of `size` bytes; its control word, or
    /// `None` on failure.
    fn recv(&mut self, size: usize) -> Option<u64> {
        let (sh, vc) = (self.sh, self.vc);
        let index = self.rx_index;
        self.rx_index += 1;
        let traced = self.sampled(index);
        let ns = || sh.ns_if(traced);
        let t_root = ns();
        let buf = Self::slot(&mut self.rx, size);
        if Payload::fully_checked(index) {
            buf.fill(0);
        }
        let t_wait = ns();
        let reader = vc.begin_unpacking();
        let t_unpack = ns();
        // A reader must be finalised even after a failed `unpack`.
        let got: Result<(), MadError> = reader.and_then(|mut r| {
            let unpacked = r.unpack(buf, SendMode::Cheaper, RecvMode::Cheaper);
            r.end_unpacking().and(unpacked)
        });
        let t_verify = ns();
        let checked = got.map_err(|e| sh.fail("receive", e)).and_then(|()| {
            let verified = sh.payload.verify(buf, index);
            verified.map_err(|c| sh.fail("payload check", c))
        });
        if let Some(spans) = self.spans.as_mut().filter(|_| traced) {
            let end = ns();
            let (msg, phase) = (index, self.phase);
            let parent = spans.push(Span {
                name: "msg.rx",
                phase,
                parent: None,
                msg,
                start: t_root,
                end,
            });
            for (name, start, end) in [
                ("vchannel.recv_wait", t_wait, t_unpack),
                ("vchannel.unpack", t_unpack, t_verify),
                ("verify", t_verify, end),
            ] {
                spans.push(Span {
                    name,
                    phase,
                    parent,
                    msg,
                    start,
                    end,
                });
            }
        }
        checked.ok()
    }
}

/// What the lead learns from a loop of messages.
#[derive(Default)]
struct LoopResult {
    msgs: u64,
    bytes: u64,
    rtts_ns: Vec<f64>,
    first_rtt_at: Option<Instant>,
}

/// Rank 0's side of a windowed stream.
fn stream_lead(io: &mut Io, size: usize, until: Until) -> LoopResult {
    let mut win = Window::for_size(size);
    // Read the clock every message when messages are long, every eighth
    // when they take tens of microseconds.
    let clock_every = if size >= SMALL_EXCHANGE { 1 } else { 8 };
    let mut sent = 0u64;
    loop {
        if win.full() {
            match io.recv(MIN_MSG) {
                Some(n) => win.on_ack(n as usize),
                None => break,
            }
        }
        let last = (sent + 1).is_multiple_of(clock_every) && until.last(sent, 0);
        if !io.send(size, if last { CTL_LAST } else { 0 }) {
            break;
        }
        win.on_send();
        sent += 1;
        if last {
            // Every message is acknowledged before the slice ends.
            while win.outstanding() > 0 {
                match io.recv(MIN_MSG) {
                    Some(n) => win.on_ack(n as usize),
                    None => break,
                }
            }
            break;
        }
    }
    LoopResult {
        msgs: sent,
        bytes: sent * size as u64,
        ..Default::default()
    }
}

/// The last rank's side of a windowed stream: verify, acknowledge every
/// half window and at the end.
fn stream_tail(io: &mut Io, size: usize) {
    let ack_every = Window::for_size(size).ack_every as u64;
    let mut unacked = 0u64;
    while let Some(ctl) = io.recv(size) {
        unacked += 1;
        let last = ctl & CTL_LAST != 0;
        if last || unacked == ack_every {
            if !io.send(MIN_MSG, unacked) {
                return;
            }
            unacked = 0;
        }
        if last {
            return;
        }
    }
}

/// Rank 0's side of a ping-pong: a closed loop with one client.
fn pingpong_lead(io: &mut Io, size: usize, until: Until, rtts_cap: usize) -> LoopResult {
    let mut out = LoopResult {
        rtts_ns: Vec::with_capacity(rtts_cap),
        ..Default::default()
    };
    loop {
        let last = until.last(out.msgs, out.msgs);
        let t = Instant::now();
        if !io.send(size, if last { CTL_LAST } else { 0 }) || io.recv(size).is_none() {
            break;
        }
        out.rtts_ns.push(t.elapsed().as_nanos() as f64);
        out.first_rtt_at.get_or_insert_with(Instant::now);
        out.msgs += 1;
        out.bytes += 2 * size as u64;
        if last {
            break;
        }
    }
    out
}

/// The last rank's side of a ping-pong: echo until flagged.
fn pingpong_tail(io: &mut Io, size: usize) {
    while let Some(ctl) = io.recv(size) {
        if !io.send(size, ctl) || ctl & CTL_LAST != 0 {
            return;
        }
    }
}

/// Rank 0's side of the duplex mix: loop {send `size[k]`; receive
/// `size[k]`}; exchanges of at most 4 KiB are its round trips.
fn exchange_lead(io: &mut Io, k: &mut u64, until: Until, rtts_cap: usize) -> LoopResult {
    let seed = io.sh.plan.seed;
    let mut out = LoopResult {
        rtts_ns: Vec::with_capacity(rtts_cap),
        ..Default::default()
    };
    loop {
        let size = mix_size(seed, *k);
        *k += 1;
        let last = until.last(out.msgs, out.rtts_ns.len() as u64);
        let t = Instant::now();
        if !io.send(size, if last { CTL_LAST } else { 0 }) || io.recv(size).is_none() {
            break;
        }
        if size <= SMALL_EXCHANGE {
            out.rtts_ns.push(t.elapsed().as_nanos() as f64);
        }
        out.first_rtt_at.get_or_insert_with(Instant::now);
        out.msgs += 1;
        out.bytes += 2 * size as u64;
        if last {
            break;
        }
    }
    out
}

/// The last rank's side of the duplex mix.
fn exchange_tail(io: &mut Io, k: &mut u64) {
    let seed = io.sh.plan.seed;
    loop {
        let size = mix_size(seed, *k);
        *k += 1;
        if !io.send(size, 0) {
            return;
        }
        match io.recv(size) {
            Some(ctl) if ctl & CTL_LAST == 0 => {}
            _ => return,
        }
    }
}

/// The slice kinds of one round, in order.
pub fn round_kinds(traffic: Traffic) -> &'static [SliceKind] {
    match traffic {
        Traffic::StreamThenPingPong { .. } => &[SliceKind::Stream, SliceKind::PingPong],
        Traffic::DuplexMix => &[SliceKind::Exchange],
    }
}

fn stream_size(traffic: Traffic) -> usize {
    match traffic {
        Traffic::StreamThenPingPong { size } => size,
        Traffic::DuplexMix => MIN_MSG,
    }
}

struct LeadOut {
    build: Duration,
    first_rtt: Duration,
    setup: Duration,
    samples: Vec<Sample>,
    slices: Vec<Slice>,
}

struct Returned {
    /// Rank 0 only.
    lead: Option<LeadOut>,
    spans: Option<(&'static str, SpanBuf)>,
    snapshot: Option<Snapshot>,
    at: Instant,
}

fn lead(sh: &Shared, io: &mut Io) -> LeadOut {
    let plan = sh.plan;
    let build = sh.start.elapsed();
    let size = stream_size(plan.traffic);
    let mut k = 0u64; // exchange counter of the duplex mix

    // Warm-up, then the end of set-up.
    let warm = match plan.traffic {
        Traffic::StreamThenPingPong { size } => {
            let msgs = WARM_STREAM_MSGS.min(WARM_STREAM_BYTES / size as u64);
            stream_lead(io, size, Until::Count(msgs));
            pingpong_lead(io, size, Until::Count(WARM_ROUND_TRIPS), 8)
        }
        Traffic::DuplexMix => exchange_lead(io, &mut k, Until::Count(WARM_EXCHANGES), 64),
    };
    let setup = sh.start.elapsed();
    let first_rtt = warm
        .first_rtt_at
        .map_or(setup, |t| t.duration_since(sh.start));

    let mut out = LeadOut {
        build,
        first_rtt,
        setup,
        samples: Vec::new(),
        slices: Vec::new(),
    };
    if plan.rounds == 0 {
        return out;
    }
    io.start_spans();
    // Every sample is taken while the other load thread is parked between
    // the two waits.
    let park_and_sample = || {
        sh.pair.wait();
        let s = sh.refk.sample();
        sh.pair.wait();
        s
    };
    out.samples.push(park_and_sample());
    'rounds: for _ in 0..plan.rounds {
        for &kind in round_kinds(plan.traffic) {
            if sh.abort.load(Ordering::SeqCst) {
                break 'rounds;
            }
            let rtts_cap = 1 << 14;
            io.open_slice(kind);
            let before = sh.counts();
            if plan.traced && kind != SliceKind::PingPong {
                CountingAlloc::set_counting(true);
            }
            let t = Instant::now();
            let until = |length: Duration, at_least: u64| Until::Deadline {
                at: t + length,
                at_least,
            };
            let r = match kind {
                SliceKind::Stream => stream_lead(io, size, until(plan.slice, 0)),
                SliceKind::PingPong => {
                    pingpong_lead(io, size, until(plan.slice, MIN_ROUND_TRIPS), rtts_cap)
                }
                SliceKind::Exchange => {
                    let until = until(2 * plan.slice, MIN_ROUND_TRIPS);
                    exchange_lead(io, &mut k, until, rtts_cap)
                }
            };
            let wall_ns = t.elapsed().as_nanos() as f64;
            CountingAlloc::set_counting(false);
            let after = sh.counts();
            let mut counts = [0; N_COUNTS];
            for (d, (a, b)) in counts.iter_mut().zip(after.iter().zip(before)) {
                *d = a.saturating_sub(b);
            }
            out.slices.push(Slice {
                kind,
                wall_ns,
                msgs: r.msgs,
                bytes: r.bytes,
                counts,
                rtts_ns: r.rtts_ns,
            });
            out.samples.push(park_and_sample());
        }
    }
    out
}

fn tail(sh: &Shared, io: &mut Io) {
    let plan = sh.plan;
    let size = stream_size(plan.traffic);
    let mut k = 0u64;
    match plan.traffic {
        Traffic::StreamThenPingPong { size } => {
            stream_tail(io, size);
            pingpong_tail(io, size);
        }
        Traffic::DuplexMix => exchange_tail(io, &mut k),
    }
    if plan.rounds == 0 {
        return;
    }
    io.start_spans();
    let park = || {
        sh.pair.wait();
        sh.pair.wait();
    };
    park();
    'rounds: for _ in 0..plan.rounds {
        for &kind in round_kinds(plan.traffic) {
            if sh.abort.load(Ordering::SeqCst) {
                break 'rounds;
            }
            io.open_slice(kind);
            match kind {
                SliceKind::Stream => stream_tail(io, size),
                SliceKind::PingPong => pingpong_tail(io, size),
                SliceKind::Exchange => exchange_tail(io, &mut k),
            }
            park();
        }
    }
}

fn builder(plan: &Plan) -> SessionBuilder {
    let mut s = SessionBuilder::new(plan.topology.nodes());
    let rt = s.runtime().clone();
    let nets = match plan.topology {
        Topology::Direct => vec![s.network("shm0", ShmDriver::new(rt), &[0, 1])],
        Topology::OneGateway => vec![
            s.network("shm0", ShmDriver::new(rt.clone()), &[0, 1]),
            s.network("shm1", ShmDriver::new(rt), &[1, 2]),
        ],
        Topology::Chain => vec![
            s.network("shm0", ShmDriver::new(rt.clone()), &[0, 1]),
            s.network("tcp0", TcpDriver::new(rt.clone()), &[1, 2]),
            s.network("shm1", ShmDriver::new(rt), &[2, 3]),
        ],
    };
    // Everything the library defaults stays defaulted — including the
    // engine, so the benchmark follows whatever the default becomes.
    let options = VcOptions {
        mtu: Some(MTU),
        gateway: GatewayConfig {
            credit_window: (plan.topology.gateways() > 0).then_some(CREDIT_WINDOW),
            ..Default::default()
        },
        metrics: plan.traced.then(MetricsOptions::default),
        ..Default::default()
    };
    s.vchannel(VC, &nets, options);
    s
}

/// Run one session to completion.
pub fn run(plan: Plan, refk: &Arc<RefKernel>, payload: &Arc<Payload>) -> Outcome {
    let start = Instant::now();
    let session = builder(&plan);
    let sh = Arc::new(Shared {
        plan,
        start,
        refk: refk.clone(),
        payload: payload.clone(),
        runtime: session.runtime().clone(),
        pair: Barrier::new(2),
        gateways: Mutex::new(Vec::new()),
        attempted: AtomicU64::new(0),
        failed: AtomicU64::new(0),
        abort: AtomicBool::new(false),
    });
    let last_rank = plan.topology.nodes() - 1;
    let shared = sh.clone();
    let (returned, gateways) = session.run_with_gateway_stats(move |node: Node| {
        let sh = &*shared;
        let rank = node.rank().0;
        let vc = node.vchannel(VC).clone();
        if let Some(stats) = node.gateway_stats(VC) {
            sh.gateways
                .lock()
                .expect("gateway list poisoned")
                .push(stats.clone());
        }
        // First barrier: every rank is up, every gateway's counters are
        // published.
        node.barrier().wait();
        let mut spans = None;
        let mut lead_out = None;
        if rank == 0 {
            let mut io = Io::new(sh, &vc, NodeId(last_rank));
            lead_out = Some(lead(sh, &mut io));
            spans = io.spans.map(|s| ("lead", s));
        } else if rank == last_rank {
            let mut io = Io::new(sh, &vc, NodeId(0));
            tail(sh, &mut io);
            spans = io.spans.map(|s| ("tail", s));
        }
        // Closing barrier: traffic is over, the registries are final.
        node.barrier().wait();
        let snapshot = vc.metrics_plane().map(|p| p.local_snapshot());
        Returned {
            lead: lead_out,
            spans,
            snapshot,
            at: Instant::now(),
        }
    });
    let ended = Instant::now();
    let last_return = returned.iter().map(|r| r.at).max().expect("ranks");
    let expected_slices = plan.rounds * round_kinds(plan.traffic).len();
    let mut outcome = Outcome {
        setup_wall_s: 0.0,
        build_ms: 0.0,
        first_rtt_ms: 0.0,
        teardown_ms: ended.duration_since(last_return).as_secs_f64() * 1e3,
        threads_spawned: sh.runtime.threads_spawned(),
        samples: Vec::new(),
        slices: Vec::new(),
        attempted: sh.attempted.load(Ordering::Relaxed),
        failed: sh.failed.load(Ordering::Relaxed),
        gateways: gateways.iter().map(|(_, _, g)| g.totals()).collect(),
        snapshots: Vec::new(),
        spans: Vec::new(),
    };
    for r in returned {
        outcome.spans.extend(r.spans);
        outcome.snapshots.extend(r.snapshot);
        if let Some(l) = r.lead {
            outcome.setup_wall_s = l.setup.as_secs_f64();
            outcome.build_ms = l.build.as_secs_f64() * 1e3;
            outcome.first_rtt_ms = l.first_rtt.as_secs_f64() * 1e3;
            outcome.samples = l.samples;
            outcome.slices = l.slices;
        }
    }
    // A session cut short lost slices: that is a failure even if no single
    // operation reported one.
    if outcome.slices.len() != expected_slices {
        outcome.failed += 1;
    }
    outcome
}
