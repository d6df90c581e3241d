//! # mad-tcp — real TCP loopback driver for Madeleine
//!
//! A length-prefixed framing over real `TcpStream`s on 127.0.0.1. It plays
//! the role TCP/Fast-Ethernet plays in the paper: the slow, always-available
//! commodity protocol (the paper's own test harness runs its acks over it),
//! and the transport a PACX-style system would use between clusters.
//!
//! The driver is *dynamic* (paper §2.1.1): a send gathers the caller's
//! parts straight into one vectored `write`, and stages nothing in a
//! buffer of its own, so it offers no static buffers and a gateway hands
//! it the buffer a packet landed in (§2.3, "any → dynamic: 0 copies"). A
//! frame is a u32 LE length prefix and the packet's gathered parts, and
//! all of it leaves in that one `write` — the BMM's aggregation of
//! successive buffers (paper §2) — so on a `TCP_NODELAY` socket a frame is
//! not split into a segment for its prefix and one per part. A frame
//! longer than `max_packet` is refused before a byte is written, and a
//! prefix announcing one is read as a broken connection, never allocated
//! for.
//!
//! No thread of the driver's reads a socket. Each conduit side's read
//! half, its *inbox*, is a [`Source`] of the conduit's arrival event: a
//! thread that sleeps on that event sleeps in `ppoll` over the event's
//! sockets and, when one turns readable, reads it until it would block,
//! queueing every whole frame — the paper's polling thread taking packets
//! off the adapter itself. The inbox reads into a small stash (8 KiB) and
//! cuts frames out of it, so frames that arrived together cost one
//! `read`; a frame longer than the stash gets the stashed prefix copied
//! into its pool buffer and the rest read straight into it, all the
//! socket holds in one `read(2)` into the buffer's spare capacity, with
//! no zero-fill for it to overwrite. A frame cut short by a read that
//! would block is kept and resumed.
//!
//! Who drains a socket, then: whoever sleeps on its conduit's event (an
//! endpoint's reader, a gateway's polling thread); a gateway's polling
//! thread in every other wait it makes too, as its network's sockets are
//! its thread's home ([`RtEvent::drain_on_this_thread`]); a send that
//! would block, which polls for room while it reads every socket of its
//! event, its own among them, so two peers that each write more than the
//! kernel buffers before reading do not both wait in `write` forever; and
//! teardown's quiescence scan ([`Conduit::pending`]). At the end of the
//! stream, and when the conduit is dropped, the inbox leaves the event:
//! nobody polls a dead socket.
//!
//! Connecting retries with seeded-jittered exponential backoff instead of
//! failing fast, so a transient refusal (listener backlog full under a
//! connection storm) does not kill session bootstrap — and a mass rejoin
//! after a gateway restart does not retry in lockstep.
//!
//! This driver runs on the real-threads runtime only: its input is read by
//! sleepers that poll, which virtual time cannot see.

#![warn(missing_docs)]

use std::ffi::{c_int, c_void};
use std::io::{ErrorKind, IoSlice, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::Duration;

use mad_util::poll::Source;
use mad_util::pool::BufferPool;
use mad_util::rng::Rng;
use mad_util::sync::{Mutex, Readiness};

use madeleine::conduit::{BufferMode, Conduit, Driver, DriverCaps, StaticBuf};
use madeleine::error::{MadError, Result};
use madeleine::runtime::{RtEvent, RtQueue, RtReceiver, RtSender, Runtime};
use madeleine::types::NodeId;

/// Driver capabilities of the TCP loopback transport.
const TCP_CAPS: DriverCaps = DriverCaps {
    name: "tcp",
    mode: BufferMode::Dynamic,
    max_gather: 1024,
    max_packet: 16 * 1024 * 1024,
    preferred_mtu: 32 * 1024,
    queued_send: false,
};

// The length prefix is a u32: every frame the writer accepts must fit it.
const _: () = assert!(TCP_CAPS.max_packet <= u32::MAX as usize);

/// Gather-list entries [`write_frame`] keeps on the stack: the length
/// prefix and up to 15 parts, which covers a landed packet (one part) and
/// a batch frame of up to seven packets (`1 + 2 × 7`); the duplex chain's
/// TCP hop writes 1, 5 and 9 parts. A longer list spills to one heap
/// vector.
const STACK_SLICES: usize = 16;

/// Size of an inbox's stash: the most one `read` takes from the socket,
/// and the longest frame cut from it rather than read into its own
/// buffer. A bulk frame pays at most this much copy for sharing the stash.
const STASH_BYTES: usize = 8 * 1024;

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
}

impl TcpDriver {
    /// Create a driver whose receive queues block through `runtime` (must
    /// be the real-threads runtime).
    pub fn new(runtime: Arc<dyn Runtime>) -> Arc<Self> {
        Arc::new(TcpDriver { runtime })
    }
}

impl Driver for TcpDriver {
    fn caps(&self) -> DriverCaps {
        TCP_CAPS
    }

    fn connect(
        &self,
        _a: NodeId,
        _b: NodeId,
        ev_a: Arc<dyn RtEvent>,
        ev_b: Arc<dyn RtEvent>,
    ) -> (Box<dyn Conduit>, Box<dyn Conduit>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("binding loopback listener");
        let addr = listener.local_addr().expect("listener address");
        let client = connect_retry(addr).expect("loopback connect");
        let (server, _) = listener.accept().expect("loopback accept");
        client.set_nodelay(true).ok();
        server.set_nodelay(true).ok();
        let rt = &*self.runtime;
        (
            Box::new(TcpConduit::new(rt, client, ev_a)),
            Box::new(TcpConduit::new(rt, server, ev_b)),
        )
    }
}

/// Write one frame — the u32 LE length of `parts` together, then the
/// parts — as one gather list: a single `write_vectored` when the socket
/// takes it all, resumed with [`IoSlice::advance_slices`] when it takes
/// less (a full send buffer, or more than `IOV_MAX` slices, which std
/// clamps). A write that would block calls `wait` and tries again. The
/// list lives on the stack up to [`STACK_SLICES`] entries.
fn write_frame(
    stream: &mut impl Write,
    parts: &[&[u8]],
    mut wait: impl FnMut() -> std::io::Result<()>,
) -> Result<()> {
    let total: usize = parts.iter().map(|p| p.len()).sum();
    if total > TCP_CAPS.max_packet {
        return Err(MadError::PacketTooLarge {
            len: total,
            max: TCP_CAPS.max_packet,
        });
    }
    let prefix = (total as u32).to_le_bytes();
    let mut stack = [IoSlice::new(&[]); STACK_SLICES];
    let mut heap: Vec<IoSlice> = Vec::new();
    let mut slices: &mut [IoSlice] = if parts.len() < STACK_SLICES {
        stack[0] = IoSlice::new(&prefix);
        for (slot, p) in stack[1..].iter_mut().zip(parts) {
            *slot = IoSlice::new(p);
        }
        &mut stack[..=parts.len()]
    } else {
        heap.reserve_exact(parts.len() + 1);
        heap.push(IoSlice::new(&prefix));
        heap.extend(parts.iter().map(|p| IoSlice::new(p)));
        &mut heap
    };
    let mut left = prefix.len() + total;
    while left > 0 {
        match stream.write_vectored(slices) {
            Ok(0) => return Err(MadError::Disconnected),
            Ok(n) => {
                left -= n;
                IoSlice::advance_slices(&mut slices, n);
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                wait().map_err(|_| MadError::Disconnected)?;
            }
            Err(_) => return Err(MadError::Disconnected),
        }
    }
    Ok(())
}

extern "C" {
    fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
}

/// A byte stream a bulk frame's body is read from straight into the
/// frame's spare capacity: `Read::read` wants initialised memory, and
/// `read_to_end` grows its reads 8 → 16 → 32 KiB, so one 64 KiB body that
/// was all in the socket took four reads.
trait ReadSpare: Read {
    /// Read at most `max` bytes onto the end of `frame`, into capacity it
    /// already has, in one call; 0 at the end of the stream.
    fn read_spare(&mut self, frame: &mut Vec<u8>, max: usize) -> std::io::Result<usize>;
}

impl ReadSpare for TcpStream {
    fn read_spare(&mut self, frame: &mut Vec<u8>, max: usize) -> std::io::Result<usize> {
        let spare = frame.spare_capacity_mut();
        let room = max.min(spare.len());
        // SAFETY: `read(2)` writes at most `room` bytes into the vector's
        // own spare capacity and reads none of it.
        let n = unsafe { read(self.as_raw_fd(), spare.as_mut_ptr().cast(), room) };
        if n < 0 {
            return Err(std::io::Error::last_os_error());
        }
        // SAFETY: the first `n` (≤ `room`) spare bytes were just written.
        unsafe { frame.set_len(frame.len() + n as usize) };
        Ok(n as usize)
    }
}

/// Where a [`FrameReader`] stands inside the frame it is cutting.
enum Partial {
    /// Between frames: the next thing is a length prefix.
    Prefix,
    /// Prefix read; the body, at most a stash long, is cut from the stash.
    Stashed(usize),
    /// Prefix read; the body, longer than the stash, is read straight
    /// into its pool buffer until it holds the length.
    Bulk(Vec<u8>, usize),
}

/// A conduit side's framing state, resumable: a stash that each `read`
/// fills with whatever the socket has and out of which frames are cut,
/// and the frame in progress, kept across reads that would block.
struct FrameReader<R> {
    stream: R,
    /// Where frame bodies come from (the receiving side adopts them back).
    pool: Arc<BufferPool>,
    stash: Box<[u8]>,
    /// The bytes read and not yet cut are `stash[start..end]`.
    start: usize,
    end: usize,
    partial: Partial,
    /// The last read into the stash came back short: the socket had no
    /// more, so the next one would block. Cleared by [`FrameReader::rearm`].
    dry: bool,
}

impl<R: ReadSpare> FrameReader<R> {
    fn new(stream: R, pool: Arc<BufferPool>) -> Self {
        FrameReader {
            stream,
            pool,
            stash: vec![0u8; STASH_BYTES].into_boxed_slice(),
            start: 0,
            end: 0,
            partial: Partial::Prefix,
            dry: false,
        }
    }

    /// The socket was reported readable: the next stash read may find
    /// something again.
    fn rearm(&mut self) {
        self.dry = false;
    }

    /// The next frame, in a buffer from the pool. `WouldBlock` means the
    /// socket has no more for now, and a part of the frame read so far is
    /// kept for the next call. Any other error ends the stream: the peer
    /// closed (inside a frame or between two), a read failed, or a length
    /// prefix announced more than `max_packet` — a stream that is not
    /// framed by this driver.
    fn next_frame(&mut self) -> std::io::Result<Vec<u8>> {
        loop {
            match &mut self.partial {
                Partial::Prefix => {
                    self.fill(4)?;
                    let mut prefix = [0u8; 4];
                    prefix.copy_from_slice(&self.stash[self.start..self.start + 4]);
                    self.start += 4;
                    let len = u32::from_le_bytes(prefix) as usize;
                    if len > TCP_CAPS.max_packet {
                        return Err(ErrorKind::InvalidData.into());
                    }
                    self.partial = if len <= STASH_BYTES {
                        Partial::Stashed(len)
                    } else {
                        let have = len.min(self.end - self.start);
                        let mut frame = self.pool.get(len).detach();
                        frame.extend_from_slice(&self.stash[self.start..self.start + have]);
                        self.start += have;
                        Partial::Bulk(frame, len)
                    };
                }
                Partial::Stashed(len) => {
                    let len = *len;
                    self.fill(len)?;
                    let mut frame = self.pool.get(len).detach();
                    frame.extend_from_slice(&self.stash[self.start..self.start + len]);
                    self.start += len;
                    self.partial = Partial::Prefix;
                    return Ok(frame);
                }
                Partial::Bulk(frame, len) => {
                    // The stash is empty: the rest goes straight into the
                    // frame's spare capacity, as much as the socket has in
                    // one read; what a read that would block got stays in
                    // the frame. A stream that ends short of it is a
                    // disconnect.
                    let rest = *len - frame.len();
                    if rest > 0 {
                        match self.stream.read_spare(frame, rest) {
                            Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
                            Ok(_) => {}
                            Err(e) if e.kind() == ErrorKind::Interrupted => {}
                            Err(e) => return Err(e),
                        }
                    }
                    if frame.len() == *len {
                        let frame = std::mem::take(frame);
                        self.partial = Partial::Prefix;
                        // Read up to the frame's end, not to a short read:
                        // the socket may hold more.
                        self.dry = false;
                        return Ok(frame);
                    }
                }
            }
        }
    }

    /// Read until the stash holds at least `n` (≤ [`STASH_BYTES`]) uncut
    /// bytes, first moving what it holds to the front so that each read
    /// may take as much as the socket has.
    fn fill(&mut self, n: usize) -> std::io::Result<()> {
        if self.end - self.start >= n {
            return Ok(());
        }
        self.stash.copy_within(self.start..self.end, 0);
        self.end -= self.start;
        self.start = 0;
        while self.end < n {
            if self.dry {
                return Err(ErrorKind::WouldBlock.into());
            }
            let room = self.stash.len() - self.end;
            match self.stream.read(&mut self.stash[self.end..]) {
                Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
                Ok(got) => {
                    self.end += got;
                    self.dry = got < room;
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }
}

/// The read half of a conduit side: the socket's framing state and the
/// queue it feeds. It is a [`Source`] of the conduit's arrival event, so
/// whoever sleeps on that event reads the socket; a send that would block
/// pumps it too.
struct Inbox {
    fd: RawFd,
    state: Mutex<InboxState>,
    /// The event this inbox is a source of, to leave at the end of the
    /// stream (weak: the event holds the inbox).
    ev: Weak<dyn RtEvent>,
}

struct InboxState {
    frames: FrameReader<TcpStream>,
    /// `None` once the stream ended: dropping the sender closed the queue.
    tx: Option<RtSender<Vec<u8>>>,
}

impl Source for Inbox {
    fn fd(&self) -> RawFd {
        self.fd
    }

    /// Read what the socket has and queue every whole frame. At the end
    /// of the stream the queue closes and the inbox leaves its event, so
    /// no sleeper polls a dead socket. Takes only the inbox's mutex and
    /// the queue's lock — never a conduit lock, which its caller may hold.
    fn pump(&self) {
        let mut state = self.state.lock();
        let InboxState { frames, tx } = &mut *state;
        let Some(queue) = tx else {
            return;
        };
        frames.rearm();
        let over = loop {
            match frames.next_frame() {
                Ok(frame) => {
                    if queue.push(frame).is_err() {
                        break true;
                    }
                }
                Err(e) => break e.kind() != ErrorKind::WouldBlock,
            }
        };
        if over {
            *tx = None;
            drop(state);
            if let Some(ev) = self.ev.upgrade() {
                ev.remove_source(self);
            }
        }
    }
}

/// One side of a connection. The write half is used in place by whoever
/// sends ([`write_frame`]); the read half is the [`Inbox`], drained into
/// `frames` by whoever sleeps on `ev` or waits to send.
struct TcpConduit {
    stream: TcpStream,
    inbox: Arc<Inbox>,
    frames: RtReceiver<Vec<u8>>,
    ev: Arc<dyn RtEvent>,
}

impl TcpConduit {
    fn new(rt: &dyn Runtime, stream: TcpStream, ev: Arc<dyn RtEvent>) -> Self {
        // One file description: the read half's clone is non-blocking too.
        stream
            .set_nonblocking(true)
            .expect("making a socket non-blocking");
        let (tx, rx) = RtQueue::with_event(rt, usize::MAX, ev.clone());
        let reader = stream.try_clone().expect("cloning stream for the inbox");
        let inbox = Arc::new(Inbox {
            fd: reader.as_raw_fd(),
            state: Mutex::new(InboxState {
                frames: FrameReader::new(reader, rt.pool().clone()),
                tx: Some(tx),
            }),
            ev: Arc::downgrade(&ev),
        });
        assert!(
            ev.add_source(inbox.clone()),
            "mad-tcp runs on the real-threads runtime only: its sockets are read by sleepers that poll"
        );
        TcpConduit {
            stream,
            inbox,
            frames: rx,
            ev,
        }
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

    /// Send one frame. A write that would block waits for room while it
    /// reads every socket of this conduit's event, this one's own inbox
    /// among them, and the thread's home sockets
    /// ([`RtEvent::wait_writable`]).
    fn write(&mut self, parts: &[&[u8]]) -> Result<()> {
        let (ev, socket) = (&self.ev, self.stream.as_raw_fd());
        write_frame(&mut &self.stream, parts, || ev.wait_writable(socket))
    }
}

impl Drop for TcpConduit {
    fn drop(&mut self) {
        // The peer sees an end of stream; no sleeper polls this side again.
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
        self.ev.remove_source(&*self.inbox);
    }
}

impl Conduit for TcpConduit {
    fn caps(&self) -> DriverCaps {
        TCP_CAPS
    }

    fn send(&mut self, parts: &[&[u8]]) -> Result<()> {
        self.write(parts)
    }

    fn send_static(&mut self, buf: StaticBuf) -> Result<()> {
        // A dynamic driver sends from anywhere; accept the buffer as-is.
        self.write(&[buf.as_slice()])
    }

    fn alloc_static(&mut self, _len: usize) -> Option<StaticBuf> {
        None // dynamic driver: no staging buffers to offer
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

    fn pending(&self) -> bool {
        self.ready() || {
            self.inbox.pump();
            self.ready()
        }
    }

    fn closed(&self) -> bool {
        self.frames.is_closed()
    }

    fn readiness(&self) -> Option<Arc<Readiness>> {
        Some(self.frames.readiness())
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

    /// The bytes a frame of `parts` puts on the wire: `len ‖ parts`.
    fn wire(parts: &[&[u8]]) -> Vec<u8> {
        let total: usize = parts.iter().map(|p| p.len()).sum();
        let mut out = (total as u32).to_le_bytes().to_vec();
        for p in parts {
            out.extend_from_slice(p);
        }
        out
    }

    /// A `Write` that takes at most `cap` bytes a call and counts calls.
    struct Capped {
        out: Vec<u8>,
        cap: usize,
        calls: usize,
    }

    impl Write for Capped {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
            self.calls += 1;
            let start = self.out.len();
            for b in bufs {
                let room = self.cap - (self.out.len() - start);
                self.out.extend_from_slice(&b[..b.len().min(room)]);
            }
            Ok(self.out.len() - start)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// A socket write can wait on the peer: a gateway keeps its pipeline
    /// in front of this driver. Measured on the two-gateway shm | TCP |
    /// shm duplex chain (ten alternating pairs, 30 s each): sending every
    /// unit bound for TCP on the receiving thread instead won 5.8 % of
    /// goodput and cost ×1.83 of the 90th-percentile round trip, none of
    /// ten pairs (DESIGN §10.1, EXPERIMENTS A16).
    #[test]
    fn a_send_is_not_a_queue_push() {
        let (a, b) = pair();
        assert!(!a.caps().queued_send && !b.caps().queued_send);
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

    fn never_blocks() -> std::io::Result<()> {
        unreachable!("an in-memory sink never blocks")
    }

    #[test]
    fn a_frame_is_one_write_and_resumes_exactly() {
        let many: Vec<Vec<u8>> = (0..40u8).map(|i| vec![i; i as usize % 5]).collect();
        let many: Vec<&[u8]> = many.iter().map(|p| &p[..]).collect();
        let frames: [&[&[u8]]; 5] = [
            &[],
            &[b""],
            &[b"hello ", b"world"],
            &[b"", b"x", b"", b"yz"],
            &many, // past the stack's slices
        ];
        for parts in frames {
            let mut all = Capped {
                out: Vec::new(),
                cap: usize::MAX,
                calls: 0,
            };
            write_frame(&mut all, parts, never_blocks).unwrap();
            assert_eq!(all.out, wire(parts));
            assert_eq!(all.calls, 1, "one call for {} parts", parts.len());
            let mut seven = Capped {
                out: Vec::new(),
                cap: 7,
                calls: 0,
            };
            write_frame(&mut seven, parts, never_blocks).unwrap();
            assert_eq!(seven.out, wire(parts));
            assert_eq!(seven.calls, wire(parts).len().div_ceil(7));
        }
    }

    #[test]
    fn a_frame_over_max_packet_is_refused_unwritten() {
        let mib = vec![7u8; 1 << 20];
        let over: Vec<&[u8]> = vec![&mib[..]; TCP_CAPS.max_packet / mib.len() + 1];
        let refused = Err(MadError::PacketTooLarge {
            len: TCP_CAPS.max_packet + mib.len(),
            max: TCP_CAPS.max_packet,
        });
        let mut sink = Capped {
            out: Vec::new(),
            cap: usize::MAX,
            calls: 0,
        };
        assert_eq!(write_frame(&mut sink, &over, never_blocks), refused);
        assert_eq!(sink.calls, 0);
        let (mut a, mut b) = pair();
        assert_eq!(a.send(&over), refused);
        a.send(&[b"after"]).unwrap();
        assert_eq!(b.recv_owned().unwrap(), b"after");
    }

    /// More parts than `IOV_MAX` (1 024): std clamps the `writev`, and the
    /// writer resumes where the kernel stopped.
    #[test]
    fn gather_past_iov_max_round_trips() {
        let owned: Vec<Vec<u8>> = (0..1_100u32)
            .map(|i| vec![(i % 251) as u8; (i % 13) as usize])
            .collect();
        let parts: Vec<&[u8]> = owned.iter().map(|p| &p[..]).collect();
        let expect = wire(&parts)[4..].to_vec();
        let (mut a, mut b) = pair();
        a.send(&parts).unwrap();
        assert_eq!(b.recv_owned().unwrap(), expect);
    }

    /// A `Read` that hands out at most `cap` bytes a call and counts calls;
    /// a stuttering one also answers every other call with `WouldBlock`,
    /// as a non-blocking socket does between arrivals.
    struct Trickle<'a> {
        bytes: &'a [u8],
        cap: usize,
        stutter: bool,
        calls: usize,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.calls += 1;
            if self.stutter && self.calls % 2 == 1 {
                return Err(ErrorKind::WouldBlock.into());
            }
            let n = buf.len().min(self.cap).min(self.bytes.len());
            buf[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }

    impl ReadSpare for Trickle<'_> {
        fn read_spare(&mut self, frame: &mut Vec<u8>, max: usize) -> std::io::Result<usize> {
            let start = frame.len();
            frame.resize(start + max.min(self.cap).min(self.bytes.len()), 0);
            let got = self.read(&mut frame[start..]);
            frame.truncate(start + *got.as_ref().unwrap_or(&0));
            got
        }
    }

    /// The reader's next frame, taking up again after every `WouldBlock`
    /// the way a pump does when its socket turns readable again.
    fn next_resumed<R: ReadSpare>(reader: &mut FrameReader<R>) -> std::io::Result<Vec<u8>> {
        loop {
            match reader.next_frame() {
                Err(e) if e.kind() == ErrorKind::WouldBlock => reader.rearm(),
                other => return other,
            }
        }
    }

    fn trickle(bytes: &[u8], cap: usize, stutter: bool) -> FrameReader<Trickle<'_>> {
        let stream = Trickle {
            bytes,
            cap,
            stutter,
            calls: 0,
        };
        FrameReader::new(stream, BufferPool::new())
    }

    /// Cut `frames`, written back to back, out of a stream that delivers
    /// at most `cap` bytes a read; returns the reads it took.
    fn read_back(frames: &[Vec<u8>], cap: usize, stutter: bool) -> usize {
        let bytes: Vec<u8> = frames.iter().flat_map(|f| wire(&[&f[..]])).collect();
        let mut reader = trickle(&bytes, cap, stutter);
        for (i, f) in frames.iter().enumerate() {
            assert_eq!(
                next_resumed(&mut reader).as_ref().ok(),
                Some(f),
                "frame {i}, cap {cap}"
            );
        }
        let end = next_resumed(&mut reader).map(|f| f.len());
        assert_eq!(end.map_err(|e| e.kind()), Err(ErrorKind::UnexpectedEof));
        reader.stream.calls
    }

    fn bytes(len: usize, salt: usize) -> Vec<u8> {
        (0..len).map(|i| ((i * 31 + salt) % 251) as u8).collect()
    }

    #[test]
    fn reader_cuts_back_to_back_small_frames_from_few_reads() {
        let frames: Vec<Vec<u8>> = (0..1_000).map(|i| bytes(64, i)).collect();
        let reads = read_back(&frames, usize::MAX, false);
        // Each read fills the stash but for a partial frame (< 68 B), and
        // one more sees EOF.
        assert!(
            reads <= 68_000usize.div_ceil(STASH_BYTES - 68) + 1,
            "{reads} reads"
        );
        read_back(&frames, 7, false);
    }

    #[test]
    fn reader_is_exact_across_the_stash_end() {
        // The second frame's body, then its prefix, straddle the point
        // where the first read stops.
        for first in [
            STASH_BYTES - 40,
            STASH_BYTES - 6,
            STASH_BYTES - 4,
            STASH_BYTES,
        ] {
            let frames = vec![bytes(first, 1), bytes(64, 2), bytes(STASH_BYTES, 3)];
            for cap in [usize::MAX, 7, STASH_BYTES - 1] {
                read_back(&frames, cap, false);
            }
        }
    }

    #[test]
    fn reader_passes_zero_length_frames() {
        let frames = vec![vec![], bytes(10, 1), vec![], vec![], bytes(1, 2), vec![]];
        for cap in [usize::MAX, 1, 7] {
            read_back(&frames, cap, false);
        }
    }

    #[test]
    fn reader_reads_a_bulk_frame_between_small_ones() {
        let frames = vec![bytes(64, 1), bytes(1_000_000, 2), bytes(64, 3)];
        for cap in [usize::MAX, 7 * 1024 + 3] {
            read_back(&frames, cap, false);
        }
    }

    /// A bulk body the socket already holds all of is one read after the
    /// stash's: `read_to_end` took three more for a 64 KiB body.
    #[test]
    fn a_bulk_body_the_socket_holds_is_one_read() {
        let body = bytes(64 * 1024, 7);
        let whole = wire(&[&body]);
        let mut reader = trickle(&whole, usize::MAX, false);
        assert_eq!(reader.next_frame().unwrap(), body);
        assert_eq!(
            reader.stream.calls, 2,
            "one read for the stash, one for the body"
        );
    }

    /// One byte a read and a `WouldBlock` between every two: each frame
    /// kind comes out whole, with nothing lost or repeated at a resume.
    #[test]
    fn reader_resumes_a_frame_one_byte_at_a_time() {
        let frames = vec![
            vec![],
            bytes(64, 1),
            bytes(STASH_BYTES - 6, 2), // its successor's prefix straddles the stash end
            bytes(64, 3),
            bytes(STASH_BYTES, 4),
            vec![],
            bytes(STASH_BYTES + 300, 5), // bulk
            bytes(1, 6),
        ];
        read_back(&frames, 1, true);
        read_back(&frames, 1_000, true);
    }

    /// A stream that ends inside a length prefix or a frame's body — in
    /// the stash or past it — is over: the cut frame is never handed out,
    /// whether the bytes came whole or a byte at a time between stalls.
    #[test]
    fn reader_stops_on_a_frame_cut_short() {
        for len in [64, STASH_BYTES, STASH_BYTES + 100, 1_000_000] {
            let whole = wire(&[&bytes(len, 4)]);
            for cut in [2, whole.len() - 1] {
                for (cap, stutter) in [(usize::MAX, false), (7, false), (1, true)] {
                    let mut reader = trickle(&whole[..cut], cap, stutter);
                    let got = next_resumed(&mut reader).map(|f| f.len());
                    assert_eq!(
                        got.map_err(|e| e.kind()),
                        Err(ErrorKind::UnexpectedEof),
                        "len {len}, cut at {cut}, cap {cap}"
                    );
                }
            }
        }
    }

    /// A prefix over `max_packet` is a broken stream: the conduit reports
    /// a disconnect and nothing is taken from the pool for it.
    #[test]
    fn an_oversize_prefix_disconnects_without_allocating() {
        let rt = StdRuntime::shared();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut raw = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        let mut conduit = TcpConduit::new(&*rt, server, rt.event());
        let len = (TCP_CAPS.max_packet as u32 + 1).to_le_bytes();
        raw.write_all(&len).unwrap();
        raw.write_all(b"not a frame").unwrap();
        raw.shutdown(std::net::Shutdown::Write).unwrap();
        assert_eq!(conduit.recv_owned(), Err(MadError::Disconnected));
        assert_eq!(rt.pool().stats().gets, 0);
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
        a.send(&[]).unwrap();
        assert_eq!(b.recv_owned().unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn large_frame_round_trips() {
        let (mut a, mut b) = pair();
        let big: Vec<u8> = (0..1_000_000u32).map(|i| (i % 251) as u8).collect();
        let expect = big.clone();
        let h = std::thread::spawn(move || {
            a.send(&[b"before"]).unwrap();
            a.send(&[&big]).unwrap();
            a.send(&[b"after"]).unwrap();
            a // keep the conduit alive until the receiver is done
        });
        assert_eq!(b.recv_owned().unwrap(), b"before");
        assert_eq!(b.recv_owned().unwrap(), expect);
        assert_eq!(b.recv_owned().unwrap(), b"after");
        h.join().unwrap();
    }

    #[test]
    fn disconnect_detected() {
        let (a, mut b) = pair();
        drop(a);
        assert_eq!(b.recv_owned(), Err(MadError::Disconnected));
        assert!(b.closed());
    }

    /// Once the peer closed and the end was read, the socket is no
    /// source of the event any more: a sleeper there sleeps, in one poll
    /// of what is still open, and does not spin on the dead socket.
    #[test]
    fn a_closed_peer_leaves_no_source_to_spin_on() {
        let rt = StdRuntime::shared();
        let driver = TcpDriver::new(rt.clone());
        let ev = rt.event();
        let (a, mut b) = driver.connect(NodeId(0), NodeId(1), rt.event(), ev.clone());
        let (_c, _d) = driver.connect(NodeId(2), NodeId(1), rt.event(), ev.clone());
        drop(a);
        assert_eq!(b.recv_owned(), Err(MadError::Disconnected));
        assert!(b.closed());
        let polls = std::thread::spawn(move || {
            let seen = ev.epoch();
            assert_eq!(ev.wait_past_timeout(seen, 50_000_000), None);
            mad_util::poll::polls_on_this_thread()
        })
        .join()
        .unwrap();
        assert!(polls <= 2, "{polls} polls in 50 ms");
    }
}
