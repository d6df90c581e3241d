//! # mad-tcp — real TCP loopback driver for Madeleine
//!
//! A length-prefixed framing over real `TcpStream`s on 127.0.0.1. It plays
//! the role TCP/Fast-Ethernet plays in the paper: the slow, always-available
//! commodity protocol (the paper's own test harness runs its acks over it),
//! and the transport a PACX-style system would use between clusters.
//!
//! The driver is *static-buffer*: kernel sockets copy on both sides. Gather
//! sends use vectored writes. It offers two receive architectures:
//!
//! * **Thread-per-conduit** ([`TcpDriver::new`]): each conduit side owns a
//!   socket plus a reader thread that pumps incoming frames into a runtime
//!   queue, so `ready`/`closed`/multiplexed receive behave exactly like the
//!   other drivers. Simple, but the thread count grows with the connection
//!   count.
//! * **Multiplexed** ([`TcpDriver::multiplexed`]): sockets are switched to
//!   non-blocking mode and ONE shared poller thread per driver pumps every
//!   connection's frames, with per-entry incremental reassembly state — so
//!   thousands of conduits cost one thread. This is the backend the
//!   reactor gateway engine pairs with to keep a whole session on a fixed
//!   thread budget.
//!
//! Connecting retries with seeded-jittered exponential backoff instead of
//! failing fast, so a transient refusal (listener backlog full under a
//! connection storm) does not kill session bootstrap — and a mass rejoin
//! after a gateway restart does not retry in lockstep.
//!
//! This driver runs on the real-threads runtime only (its reader and
//! poller threads block in kernel calls, which virtual time cannot see).

#![warn(missing_docs)]

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use mad_util::pool::BufferPool;
use mad_util::rng::Rng;

use madeleine::conduit::{BufferMode, Conduit, Driver, DriverCaps, StaticBuf};
use madeleine::error::{MadError, Result};
use madeleine::runtime::{RtEvent, RtQueue, RtReceiver, RtSender, Runtime};
use madeleine::types::NodeId;

/// Driver capabilities of the TCP loopback transport.
pub const TCP_CAPS: DriverCaps = DriverCaps {
    name: "tcp",
    mode: BufferMode::Static,
    max_gather: 1024,
    max_packet: 16 * 1024 * 1024,
    preferred_mtu: 32 * 1024,
    queued_send: false,
};

/// Attempts a [`connect_retry`] makes before giving up.
const CONNECT_ATTEMPTS: u32 = 8;

/// Base of the exponential backoff schedule, in microseconds (1 ms).
const BACKOFF_BASE_US: u64 = 1_000;

/// Ceiling of the exponential backoff schedule, in microseconds (100 ms).
const BACKOFF_CAP_US: u64 = 100_000;

/// The delay slept after 0-based `attempt` fails: exponential from
/// [`BACKOFF_BASE_US`], doubling per attempt and capped at
/// [`BACKOFF_CAP_US`], with seeded "equal jitter" — half the interval is
/// deterministic, the other half a uniform draw — so a mass rejoin after
/// a gateway restart spreads its reconnects across the interval instead
/// of thundering-herding the listener backlog in lockstep.
fn backoff_delay(attempt: u32, rng: &mut Rng) -> Duration {
    // The cap is reached by attempt 7, so clamping the exponent there
    // keeps the shift far from the bit width.
    let base = (BACKOFF_BASE_US << attempt.min(7)).min(BACKOFF_CAP_US);
    let half = base / 2;
    Duration::from_micros(half + rng.gen_range(0..half.saturating_add(1)))
}

/// Connect to `addr` with bounded, jittered exponential backoff (see
/// [`backoff_delay`]). Loopback connects only fail transiently when the
/// accept backlog overflows (many nodes bootstrapping at once), and that
/// clears in milliseconds. Each call draws an independent jitter
/// sequence (address hash mixed with the process id and a call nonce),
/// so simultaneous connectors de-synchronize deterministically per run.
fn connect_retry(addr: SocketAddr) -> std::io::Result<TcpStream> {
    static NONCE: AtomicU64 = AtomicU64::new(0);
    let mut seed = 0xcbf2_9ce4_8422_2325u64;
    for b in format!("{addr}").bytes() {
        seed = (seed ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    seed ^= (std::process::id() as u64).rotate_left(32);
    seed ^= NONCE.fetch_add(1, Ordering::Relaxed).rotate_left(17);
    let mut rng = Rng::new(seed);
    let mut last = None;
    for attempt in 0..CONNECT_ATTEMPTS {
        match TcpStream::connect(addr) {
            Ok(s) => return Ok(s),
            Err(e) => last = Some(e),
        }
        if attempt + 1 < CONNECT_ATTEMPTS {
            std::thread::sleep(backoff_delay(attempt, &mut rng));
        }
    }
    Err(last.unwrap_or_else(|| ErrorKind::ConnectionRefused.into()))
}

/// The TCP Protocol Management Module.
pub struct TcpDriver {
    runtime: Arc<dyn Runtime>,
    /// Shared frame poller — present in multiplexed mode only.
    poller: Option<Arc<Poller>>,
}

impl TcpDriver {
    /// Create a thread-per-conduit driver whose receive queues block
    /// through `runtime` (must be the real-threads runtime).
    pub fn new(runtime: Arc<dyn Runtime>) -> Arc<Self> {
        Arc::new(TcpDriver {
            runtime,
            poller: None,
        })
    }

    /// Create a multiplexed driver: every conduit's socket is
    /// non-blocking and one shared poller thread (spawned lazily through
    /// `runtime`, so it is counted in the session thread budget) pumps
    /// all of their incoming frames. Receive-side behavior is identical
    /// to [`TcpDriver::new`]; only the thread economics change.
    pub fn multiplexed(runtime: Arc<dyn Runtime>) -> Arc<Self> {
        Arc::new(TcpDriver {
            poller: Some(Arc::new(Poller {
                runtime: runtime.clone(),
                state: Mutex::new(PollerState {
                    entries: Vec::new(),
                    running: false,
                }),
            })),
            runtime,
        })
    }
}

impl Driver for TcpDriver {
    fn caps(&self) -> DriverCaps {
        TCP_CAPS
    }

    fn connect(
        &self,
        a: NodeId,
        b: NodeId,
        ev_a: Arc<dyn RtEvent>,
        ev_b: Arc<dyn RtEvent>,
    ) -> (Box<dyn Conduit>, Box<dyn Conduit>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("binding loopback listener");
        let addr = listener.local_addr().expect("listener address");
        let client = connect_retry(addr).expect("loopback connect");
        let (server, _) = listener.accept().expect("loopback accept");
        client.set_nodelay(true).ok();
        server.set_nodelay(true).ok();
        if let Some(poller) = &self.poller {
            return (
                Box::new(MuxConduit::new(poller, client, ev_a)),
                Box::new(MuxConduit::new(poller, server, ev_b)),
            );
        }
        (
            Box::new(TcpConduit::new(
                &*self.runtime,
                client,
                ev_a,
                format!("tcp-rd-{a}-{b}"),
            )),
            Box::new(TcpConduit::new(
                &*self.runtime,
                server,
                ev_b,
                format!("tcp-rd-{b}-{a}"),
            )),
        )
    }
}

struct TcpConduit {
    stream: TcpStream,
    frames: RtReceiver<Vec<u8>>,
    ev: Arc<dyn RtEvent>,
}

impl TcpConduit {
    fn new(rt: &dyn Runtime, stream: TcpStream, ev: Arc<dyn RtEvent>, name: String) -> Self {
        let (tx, rx) = RtQueue::with_event(rt, usize::MAX, ev.clone());
        let mut reader = stream.try_clone().expect("cloning stream for reader");
        let pool = rt.pool().clone();
        // Spawned through the runtime so the session's thread-budget
        // accounting sees it; it still blocks in kernel reads, invisible
        // to any virtual clock — which is why this driver is real-runtime
        // only. The handle is dropped: the thread exits on its own when
        // the peer closes or the conduit is dropped.
        let _detached = rt.spawn(
            name,
            Box::new(move || {
                let mut len_buf = [0u8; 4];
                loop {
                    if reader.read_exact(&mut len_buf).is_err() {
                        return; // peer closed: dropping tx disconnects
                    }
                    let len = u32::from_le_bytes(len_buf) as usize;
                    // From the session pool the receiving side adopts
                    // the spent frame back into.
                    let mut frame = pool.take(len).detach();
                    if reader.read_exact(&mut frame).is_err() {
                        return;
                    }
                    if tx.push(frame).is_err() {
                        return; // conduit dropped
                    }
                }
            }),
        );
        TcpConduit {
            stream,
            frames: rx,
            ev,
        }
    }

    fn write_frame(&mut self, parts: &[&[u8]]) -> Result<()> {
        let total: usize = parts.iter().map(|p| p.len()).sum();
        let len_buf = (total as u32).to_le_bytes();
        let mut write = |buf: &[u8]| self.stream.write_all(buf);
        write(&len_buf).map_err(|_| MadError::Disconnected)?;
        for p in parts {
            write(p).map_err(|_| MadError::Disconnected)?;
        }
        Ok(())
    }

    fn pop_blocking(&self) -> Result<Vec<u8>> {
        loop {
            let seen = self.ev.epoch();
            if let Some(frame) = self.frames.try_pop() {
                return Ok(frame);
            }
            if self.frames.is_closed() {
                return Err(MadError::Disconnected);
            }
            self.ev.wait_past(seen);
        }
    }
}

impl Drop for TcpConduit {
    fn drop(&mut self) {
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
    }
}

impl Conduit for TcpConduit {
    fn caps(&self) -> DriverCaps {
        TCP_CAPS
    }

    fn send(&mut self, parts: &[&[u8]]) -> Result<()> {
        self.write_frame(parts)
    }

    fn send_static(&mut self, buf: StaticBuf) -> Result<()> {
        buf.check_owner(TCP_CAPS.name)?;
        self.write_frame(&[buf.as_slice()])
    }

    fn alloc_static(&mut self, len: usize) -> Option<StaticBuf> {
        Some(StaticBuf::new(TCP_CAPS.name, len))
    }

    fn recv_into(&mut self, dst: &mut [u8]) -> Result<usize> {
        let frame = self.pop_blocking()?;
        if frame.len() > dst.len() {
            return Err(MadError::BufferTooSmall {
                have: dst.len(),
                need: frame.len(),
            });
        }
        dst[..frame.len()].copy_from_slice(&frame);
        Ok(frame.len())
    }

    fn recv_owned(&mut self) -> Result<Vec<u8>> {
        self.pop_blocking()
    }

    fn ready(&self) -> bool {
        self.frames.has_pending()
    }

    fn closed(&self) -> bool {
        self.frames.is_closed()
    }

    fn recv_event(&self) -> Arc<dyn RtEvent> {
        self.ev.clone()
    }
}

/// Write `buf` to a non-blocking socket, spinning (with a short sleep) on
/// `WouldBlock`. The loopback send buffer drains in microseconds, so the
/// sleep is a politeness yield, not a latency cliff.
fn write_all_nonblocking(stream: &mut TcpStream, mut buf: &[u8]) -> Result<()> {
    while !buf.is_empty() {
        match stream.write(buf) {
            Ok(0) => return Err(MadError::Disconnected),
            Ok(n) => buf = &buf[n..],
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_micros(50));
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return Err(MadError::Disconnected),
        }
    }
    Ok(())
}

/// One registered connection of the shared poller: its read-half socket
/// plus the incremental reassembly state of the frame currently being
/// read. Non-blocking reads can stop anywhere — mid-length-prefix,
/// mid-body — so the partial state lives here between poll passes.
struct Entry {
    stream: TcpStream,
    /// `None` once the conduit was dropped mid-frame (push failed); the
    /// entry then only lingers until the next pass removes it.
    tx: Option<RtSender<Vec<u8>>>,
    /// Where frame bodies come from (the receiving side adopts them back).
    pool: Arc<BufferPool>,
    len_buf: [u8; 4],
    len_got: usize,
    body: Vec<u8>,
    body_got: usize,
}

enum PumpOutcome {
    /// Made progress (bytes read or frames delivered).
    Progress,
    /// Nothing to read right now.
    Idle,
    /// Connection finished (EOF, error, or conduit dropped): remove.
    Dead,
}

/// Completed frames one entry may deliver per poller pass, so one
/// fire-hosing connection cannot starve the rest of the registry.
const PUMP_FRAME_BUDGET: usize = 64;

impl Entry {
    /// Drain whatever the socket has ready, delivering completed frames
    /// (up to [`PUMP_FRAME_BUDGET`]), without ever blocking.
    fn pump(&mut self) -> PumpOutcome {
        let mut progressed = false;
        let mut delivered = 0usize;
        loop {
            if delivered >= PUMP_FRAME_BUDGET {
                return PumpOutcome::Progress;
            }
            let (dst, done_len) = if self.len_got < 4 {
                (&mut self.len_buf[self.len_got..], true)
            } else {
                (&mut self.body[self.body_got..], false)
            };
            if dst.is_empty() {
                // Zero-length frame (or length prefix just completed with
                // len 0): fall through to frame completion below.
                self.advance(0, done_len);
                if self.deliver_if_complete(&mut delivered) == PumpOutcome::Dead {
                    return PumpOutcome::Dead;
                }
                progressed = true;
                continue;
            }
            match self.stream.read(dst) {
                Ok(0) => return PumpOutcome::Dead, // EOF
                Ok(n) => {
                    progressed = true;
                    self.advance(n, done_len);
                    if self.deliver_if_complete(&mut delivered) == PumpOutcome::Dead {
                        return PumpOutcome::Dead;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    return if progressed {
                        PumpOutcome::Progress
                    } else {
                        PumpOutcome::Idle
                    };
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return PumpOutcome::Dead,
            }
        }
    }

    fn advance(&mut self, n: usize, reading_len: bool) {
        if reading_len {
            self.len_got += n;
            if self.len_got == 4 {
                let len = u32::from_le_bytes(self.len_buf) as usize;
                self.body = self.pool.take(len).detach();
                self.body_got = 0;
            }
        } else {
            self.body_got += n;
        }
    }

    fn deliver_if_complete(&mut self, delivered: &mut usize) -> PumpOutcome {
        if self.len_got < 4 || self.body_got < self.body.len() {
            return PumpOutcome::Progress;
        }
        let frame = std::mem::take(&mut self.body);
        self.len_got = 0;
        self.body_got = 0;
        match &self.tx {
            Some(tx) => {
                if tx.push(frame).is_err() {
                    self.tx = None; // conduit dropped
                    return PumpOutcome::Dead;
                }
                *delivered += 1;
                PumpOutcome::Progress
            }
            None => PumpOutcome::Dead,
        }
    }
}

impl PartialEq for PumpOutcome {
    fn eq(&self, other: &Self) -> bool {
        matches!(
            (self, other),
            (PumpOutcome::Progress, PumpOutcome::Progress)
                | (PumpOutcome::Idle, PumpOutcome::Idle)
                | (PumpOutcome::Dead, PumpOutcome::Dead)
        )
    }
}

struct PollerState {
    entries: Vec<Entry>,
    /// True while a poller thread is live; a connect after the previous
    /// poller drained and exited spawns a fresh one.
    running: bool,
}

/// The shared frame pump of a multiplexed driver: one thread, every
/// connection. Std-only, so readiness is polled (non-blocking reads with
/// a short sleep between idle passes) rather than epoll-driven; on
/// loopback at gateway packet rates the pump is virtually always
/// progressing, so the sleep rarely triggers.
struct Poller {
    runtime: Arc<dyn Runtime>,
    state: Mutex<PollerState>,
}

impl Poller {
    /// Register a connection's read half and make sure a poller thread is
    /// running to serve it.
    fn register(self: &Arc<Self>, entry: Entry) {
        let mut st = self.state.lock().expect("poller state lock");
        st.entries.push(entry);
        if !st.running {
            st.running = true;
            drop(st);
            let poller = self.clone();
            // Through the runtime, so the budget accounting counts the
            // (single) poller thread; the handle is dropped, the thread
            // exits once every entry is gone.
            let _detached = self
                .runtime
                .spawn("tcp-poller".to_string(), Box::new(move || poller.run()));
        }
    }

    fn run(&self) {
        loop {
            let mut progressed = false;
            {
                let mut st = self.state.lock().expect("poller state lock");
                st.entries.retain_mut(|e| match e.pump() {
                    PumpOutcome::Progress => {
                        progressed = true;
                        true
                    }
                    PumpOutcome::Idle => true,
                    PumpOutcome::Dead => {
                        // Dropping the entry (and its tx) wakes the
                        // conduit with a disconnect.
                        progressed = true;
                        false
                    }
                });
                if st.entries.is_empty() {
                    st.running = false;
                    return;
                }
            }
            if !progressed {
                std::thread::sleep(Duration::from_micros(100));
            }
        }
    }
}

/// A conduit served by the shared poller: the write half lives here (the
/// socket is non-blocking, so writes spin on `WouldBlock`), the read half
/// is pumped by the poller into `frames`.
struct MuxConduit {
    stream: TcpStream,
    frames: RtReceiver<Vec<u8>>,
    ev: Arc<dyn RtEvent>,
}

impl MuxConduit {
    fn new(poller: &Arc<Poller>, stream: TcpStream, ev: Arc<dyn RtEvent>) -> Self {
        stream
            .set_nonblocking(true)
            .expect("setting socket non-blocking");
        let reader = stream.try_clone().expect("cloning stream for poller");
        let (tx, rx) = RtQueue::with_event(&*poller.runtime, usize::MAX, ev.clone());
        poller.register(Entry {
            stream: reader,
            tx: Some(tx),
            pool: poller.runtime.pool().clone(),
            len_buf: [0u8; 4],
            len_got: 0,
            body: Vec::new(),
            body_got: 0,
        });
        MuxConduit {
            stream,
            frames: rx,
            ev,
        }
    }

    fn write_frame(&mut self, parts: &[&[u8]]) -> Result<()> {
        let total: usize = parts.iter().map(|p| p.len()).sum();
        write_all_nonblocking(&mut self.stream, &(total as u32).to_le_bytes())?;
        for p in parts {
            write_all_nonblocking(&mut self.stream, p)?;
        }
        Ok(())
    }

    fn pop_blocking(&self) -> Result<Vec<u8>> {
        loop {
            let seen = self.ev.epoch();
            if let Some(frame) = self.frames.try_pop() {
                return Ok(frame);
            }
            if self.frames.is_closed() {
                return Err(MadError::Disconnected);
            }
            self.ev.wait_past(seen);
        }
    }
}

impl Drop for MuxConduit {
    fn drop(&mut self) {
        // The poller notices the shutdown as an EOF and removes the entry.
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
    }
}

impl Conduit for MuxConduit {
    fn caps(&self) -> DriverCaps {
        TCP_CAPS
    }

    fn send(&mut self, parts: &[&[u8]]) -> Result<()> {
        self.write_frame(parts)
    }

    fn send_static(&mut self, buf: StaticBuf) -> Result<()> {
        buf.check_owner(TCP_CAPS.name)?;
        self.write_frame(&[buf.as_slice()])
    }

    fn alloc_static(&mut self, len: usize) -> Option<StaticBuf> {
        Some(StaticBuf::new(TCP_CAPS.name, len))
    }

    fn recv_into(&mut self, dst: &mut [u8]) -> Result<usize> {
        let frame = self.pop_blocking()?;
        if frame.len() > dst.len() {
            return Err(MadError::BufferTooSmall {
                have: dst.len(),
                need: frame.len(),
            });
        }
        dst[..frame.len()].copy_from_slice(&frame);
        Ok(frame.len())
    }

    fn recv_owned(&mut self) -> Result<Vec<u8>> {
        self.pop_blocking()
    }

    fn ready(&self) -> bool {
        self.frames.has_pending()
    }

    fn closed(&self) -> bool {
        self.frames.is_closed()
    }

    fn recv_event(&self) -> Arc<dyn RtEvent> {
        self.ev.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use madeleine::runtime::StdRuntime;

    fn pair() -> (Box<dyn Conduit>, Box<dyn Conduit>) {
        let rt = StdRuntime::shared();
        let driver = TcpDriver::new(rt.clone());
        driver.connect(NodeId(0), NodeId(1), rt.event(), rt.event())
    }

    fn pair_mux() -> (Box<dyn Conduit>, Box<dyn Conduit>) {
        let rt = StdRuntime::shared();
        let driver = TcpDriver::multiplexed(rt.clone());
        driver.connect(NodeId(0), NodeId(1), rt.event(), rt.event())
    }

    /// A socket write can wait on the peer: a gateway keeps its pipeline
    /// in front of this driver.
    #[test]
    fn a_send_is_not_a_queue_push() {
        for (a, b) in [pair(), pair_mux()] {
            assert!(!a.caps().queued_send && !b.caps().queued_send);
        }
    }

    #[test]
    fn backoff_schedule_is_bounded_and_jittered() {
        // Every delay lives in [base/2, base] with the base doubling from
        // 1 ms and capping at 100 ms; the schedule is deterministic per
        // seed and diverges across seeds (the anti-thundering-herd point).
        let mut rng = Rng::new(42);
        let mut prev_base = 0u64;
        for attempt in 0..CONNECT_ATTEMPTS {
            let base = (BACKOFF_BASE_US << attempt.min(7)).min(BACKOFF_CAP_US);
            let d = backoff_delay(attempt, &mut rng).as_micros() as u64;
            assert!(d >= base / 2, "attempt {attempt}: {d}us under half-base");
            assert!(d <= base, "attempt {attempt}: {d}us over base");
            assert!(base >= prev_base, "base must not shrink");
            prev_base = base;
        }
        assert_eq!(prev_base, BACKOFF_CAP_US, "schedule reaches the cap");
        let schedule = |seed: u64| -> Vec<u64> {
            let mut rng = Rng::new(seed);
            (0..CONNECT_ATTEMPTS)
                .map(|a| backoff_delay(a, &mut rng).as_micros() as u64)
                .collect()
        };
        assert_eq!(schedule(7), schedule(7), "same seed, same schedule");
        assert_ne!(schedule(7), schedule(8), "different seeds de-sync");
        // Far past the cap the shift saturates instead of overflowing.
        let late = backoff_delay(200, &mut rng).as_micros() as u64;
        assert!((BACKOFF_CAP_US / 2..=BACKOFF_CAP_US).contains(&late));
    }

    #[test]
    fn mux_frames_round_trip() {
        let (mut a, mut b) = pair_mux();
        a.send(&[b"hello ", b"world"]).unwrap();
        assert_eq!(b.recv_owned().unwrap(), b"hello world");
        b.send(&[b"pong"]).unwrap();
        let mut buf = [0u8; 4];
        assert_eq!(a.recv_into(&mut buf).unwrap(), 4);
        assert_eq!(&buf, b"pong");
        a.send(&[]).unwrap();
        assert_eq!(b.recv_owned().unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn mux_large_frame_round_trips() {
        let (mut a, mut b) = pair_mux();
        let big: Vec<u8> = (0..1_000_000u32).map(|i| (i % 251) as u8).collect();
        let expect = big.clone();
        let h = std::thread::spawn(move || {
            a.send(&[&big]).unwrap();
            a
        });
        assert_eq!(b.recv_owned().unwrap(), expect);
        h.join().unwrap();
    }

    #[test]
    fn mux_disconnect_detected() {
        let (a, mut b) = pair_mux();
        drop(a);
        assert_eq!(b.recv_owned(), Err(MadError::Disconnected));
        assert!(b.closed());
    }

    #[test]
    fn mux_one_poller_serves_many_connections() {
        let rt = StdRuntime::shared();
        let before = rt.threads_spawned();
        let driver = TcpDriver::multiplexed(rt.clone());
        let mut pairs: Vec<_> = (0..32)
            .map(|i| driver.connect(NodeId(0), NodeId(i + 1), rt.event(), rt.event()))
            .collect();
        for (i, (a, b)) in pairs.iter_mut().enumerate() {
            let msg = vec![i as u8; 100 + i];
            a.send(&[&msg]).unwrap();
            assert_eq!(b.recv_owned().unwrap(), msg);
        }
        // 32 connections (64 conduits), one poller thread.
        assert_eq!(
            rt.threads_spawned() - before,
            1,
            "multiplexed driver must run a single shared poller"
        );
    }

    #[test]
    fn frames_round_trip() {
        let (mut a, mut b) = pair();
        a.send(&[b"hello ", b"world"]).unwrap();
        assert_eq!(b.recv_owned().unwrap(), b"hello world");
        b.send(&[b"pong"]).unwrap();
        let mut buf = [0u8; 4];
        assert_eq!(a.recv_into(&mut buf).unwrap(), 4);
        assert_eq!(&buf, b"pong");
    }

    #[test]
    fn empty_frame_supported() {
        let (mut a, mut b) = pair();
        a.send(&[]).unwrap();
        assert_eq!(b.recv_owned().unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn large_frame_round_trips() {
        let (mut a, mut b) = pair();
        let big: Vec<u8> = (0..1_000_000u32).map(|i| (i % 251) as u8).collect();
        let expect = big.clone();
        let h = std::thread::spawn(move || {
            a.send(&[&big]).unwrap();
            a // keep the conduit alive until the receiver is done
        });
        assert_eq!(b.recv_owned().unwrap(), expect);
        h.join().unwrap();
    }

    #[test]
    fn disconnect_detected() {
        let (a, mut b) = pair();
        drop(a);
        assert_eq!(b.recv_owned(), Err(MadError::Disconnected));
        assert!(b.closed());
    }

    #[test]
    fn static_buffer_send() {
        let (mut a, mut b) = pair();
        let mut sb = a.alloc_static(3).unwrap();
        sb.as_mut_slice().copy_from_slice(b"abc");
        a.send_static(sb).unwrap();
        assert_eq!(b.recv_owned().unwrap(), b"abc");
        // Foreign buffers are rejected.
        let foreign = StaticBuf::new("sci", 1);
        assert!(matches!(
            a.send_static(foreign),
            Err(MadError::ForeignStaticBuffer { .. })
        ));
    }
}
