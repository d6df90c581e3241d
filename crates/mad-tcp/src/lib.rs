//! # mad-tcp — real TCP loopback driver for Madeleine
//!
//! A length-prefixed framing over real `TcpStream`s on 127.0.0.1. It plays
//! the role TCP/Fast-Ethernet plays in the paper: the slow, always-available
//! commodity protocol (the paper's own test harness runs its acks over it),
//! and the transport a PACX-style system would use between clusters.
//!
//! The driver is *static-buffer*: kernel sockets copy on both sides. A frame
//! is a u32 LE length prefix and the packet's gathered parts, and all of it
//! leaves in one vectored `write` — the BMM's aggregation of successive
//! buffers (paper §2) — so on a `TCP_NODELAY` socket a frame is not split
//! into a segment for its prefix and one per part, and wakes the peer's
//! reader once. A frame longer than `max_packet` is refused before a byte
//! is written, and a prefix announcing one is read as a broken connection,
//! never allocated for.
//!
//! Each conduit side owns a blocking socket plus a reader thread that
//! pumps incoming frames into a runtime queue, so `ready`/`closed`/
//! multiplexed receive behave exactly like the other drivers. The thread
//! reads into a small stash (8 KiB) and cuts frames out of it, so frames
//! that arrived together cost one `read`; a frame longer than the stash
//! holds gets the stashed prefix copied into its pool buffer and the rest
//! read straight into it. The thread count grows with the connection
//! count.
//!
//! Connecting retries with seeded-jittered exponential backoff instead of
//! failing fast, so a transient refusal (listener backlog full under a
//! connection storm) does not kill session bootstrap — and a mass rejoin
//! after a gateway restart does not retry in lockstep.
//!
//! This driver runs on the real-threads runtime only (its reader threads
//! block in kernel calls, which virtual time cannot see).

#![warn(missing_docs)]

use std::io::{ErrorKind, IoSlice, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use mad_util::pool::BufferPool;
use mad_util::rng::Rng;

use madeleine::conduit::{BufferMode, Conduit, Driver, DriverCaps, StaticBuf};
use madeleine::error::{MadError, Result};
use madeleine::runtime::{RtEvent, RtQueue, RtReceiver, Runtime};
use madeleine::types::NodeId;

/// Driver capabilities of the TCP loopback transport.
const TCP_CAPS: DriverCaps = DriverCaps {
    name: "tcp",
    mode: BufferMode::Static,
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

/// Size of a reader thread's stash: the most one `read` takes from the
/// socket, and the longest frame cut from it rather than read into its own
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
        let rt = &*self.runtime;
        (
            Box::new(TcpConduit::new(rt, client, ev_a, format!("tcp-rd-{a}-{b}"))),
            Box::new(TcpConduit::new(rt, server, ev_b, format!("tcp-rd-{b}-{a}"))),
        )
    }
}

/// Write one frame — the u32 LE length of `parts` together, then the
/// parts — as one gather list: a single `write_vectored` when the socket
/// takes it all, resumed with [`IoSlice::advance_slices`] when it takes
/// less (a full send buffer, or more than `IOV_MAX` slices, which std
/// clamps). The list lives on the stack up to [`STACK_SLICES`] entries.
fn write_frame(stream: &mut impl Write, parts: &[&[u8]]) -> Result<()> {
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
            Err(_) => return Err(MadError::Disconnected),
        }
    }
    Ok(())
}

/// A reader thread's framing state: a stash that each `read` fills with
/// whatever the socket has, and out of which frames are cut.
struct FrameReader<R> {
    stream: R,
    /// Where frame bodies come from (the receiving side adopts them back).
    pool: Arc<BufferPool>,
    stash: Box<[u8]>,
    /// The bytes read and not yet cut are `stash[start..end]`.
    start: usize,
    end: usize,
}

impl<R: Read> FrameReader<R> {
    fn new(stream: R, pool: Arc<BufferPool>) -> Self {
        FrameReader {
            stream,
            pool,
            stash: vec![0u8; STASH_BYTES].into_boxed_slice(),
            start: 0,
            end: 0,
        }
    }

    /// The next frame, in a buffer from the pool; `None` once the peer
    /// closed, a read failed, or a length prefix announced more than
    /// `max_packet` — a stream that is not framed by this driver.
    fn next_frame(&mut self) -> Option<Vec<u8>> {
        self.fill(4)?;
        let mut prefix = [0u8; 4];
        prefix.copy_from_slice(&self.stash[self.start..self.start + 4]);
        self.start += 4;
        let len = u32::from_le_bytes(prefix) as usize;
        if len > TCP_CAPS.max_packet {
            return None;
        }
        if len <= STASH_BYTES {
            self.fill(len)?;
        }
        let have = len.min(self.end - self.start);
        let mut frame = self.pool.get(len).detach();
        frame.extend_from_slice(&self.stash[self.start..self.start + have]);
        self.start += have;
        if have < len {
            // The stash is empty: the rest goes straight into the frame's
            // spare capacity, with no zero-fill for the read to overwrite.
            // A stream that ends short of it is a disconnect.
            let rest = len - have;
            let mut body = self.stream.by_ref().take(rest as u64);
            if body.read_to_end(&mut frame).ok()? < rest {
                return None;
            }
        }
        Some(frame)
    }

    /// Read until the stash holds at least `n` (≤ [`STASH_BYTES`]) uncut
    /// bytes, first moving what it holds to the front so that each read
    /// may take as much as the socket has.
    fn fill(&mut self, n: usize) -> Option<()> {
        if self.end - self.start >= n {
            return Some(());
        }
        self.stash.copy_within(self.start..self.end, 0);
        self.end -= self.start;
        self.start = 0;
        while self.end < n {
            match self.stream.read(&mut self.stash[self.end..]) {
                Ok(0) => return None,
                Ok(got) => self.end += got,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return None,
            }
        }
        Some(())
    }
}

/// One side of a connection. The write half is used in place by whoever
/// sends ([`write_frame`]); the read half is pumped into `frames` by the
/// conduit's own reader thread, named `name`.
struct TcpConduit {
    stream: TcpStream,
    frames: RtReceiver<Vec<u8>>,
    ev: Arc<dyn RtEvent>,
}

impl TcpConduit {
    fn new(rt: &dyn Runtime, stream: TcpStream, ev: Arc<dyn RtEvent>, name: String) -> Self {
        let (tx, rx) = RtQueue::with_event(rt, usize::MAX, ev.clone());
        let reader = stream.try_clone().expect("cloning stream for reader");
        let pool = rt.pool().clone();
        // Spawned through the runtime so the session's thread-budget
        // accounting sees it; it still blocks in kernel reads, invisible
        // to any virtual clock — which is why this driver is real-runtime
        // only. The handle is dropped: the thread exits on its own when
        // the peer closes or the conduit is dropped.
        let _detached = rt.spawn(
            name,
            Box::new(move || {
                let mut frames = FrameReader::new(reader, pool);
                while let Some(frame) = frames.next_frame() {
                    if tx.push(frame).is_err() {
                        return;
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
        // The reader thread sees the shutdown as an EOF.
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
    }
}

impl Conduit for TcpConduit {
    fn caps(&self) -> DriverCaps {
        TCP_CAPS
    }

    fn send(&mut self, parts: &[&[u8]]) -> Result<()> {
        write_frame(&mut self.stream, parts)
    }

    fn send_static(&mut self, buf: StaticBuf) -> Result<()> {
        buf.check_owner(TCP_CAPS.name)?;
        write_frame(&mut self.stream, &[buf.as_slice()])
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
            write_frame(&mut all, parts).unwrap();
            assert_eq!(all.out, wire(parts));
            assert_eq!(all.calls, 1, "one call for {} parts", parts.len());
            let mut seven = Capped {
                out: Vec::new(),
                cap: 7,
                calls: 0,
            };
            write_frame(&mut seven, parts).unwrap();
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
        assert_eq!(write_frame(&mut sink, &over), refused);
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

    /// A `Read` that hands out at most `cap` bytes a call and counts calls.
    struct Trickle<'a> {
        bytes: &'a [u8],
        cap: usize,
        calls: usize,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.calls += 1;
            let n = buf.len().min(self.cap).min(self.bytes.len());
            buf[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }

    /// Cut `frames`, written back to back, out of a stream that delivers
    /// at most `cap` bytes a read; returns the reads it took.
    fn read_back(frames: &[Vec<u8>], cap: usize) -> usize {
        let bytes: Vec<u8> = frames.iter().flat_map(|f| wire(&[&f[..]])).collect();
        let stream = Trickle {
            bytes: &bytes,
            cap,
            calls: 0,
        };
        let mut reader = FrameReader::new(stream, BufferPool::new());
        for (i, f) in frames.iter().enumerate() {
            assert_eq!(
                reader.next_frame().as_ref(),
                Some(f),
                "frame {i}, cap {cap}"
            );
        }
        assert_eq!(reader.next_frame(), None, "EOF after the last frame");
        reader.stream.calls
    }

    fn bytes(len: usize, salt: usize) -> Vec<u8> {
        (0..len).map(|i| ((i * 31 + salt) % 251) as u8).collect()
    }

    #[test]
    fn reader_cuts_back_to_back_small_frames_from_few_reads() {
        let frames: Vec<Vec<u8>> = (0..1_000).map(|i| bytes(64, i)).collect();
        let reads = read_back(&frames, usize::MAX);
        // Each read fills the stash but for a partial frame (< 68 B), and
        // one more sees EOF.
        assert!(
            reads <= 68_000usize.div_ceil(STASH_BYTES - 68) + 1,
            "{reads} reads"
        );
        read_back(&frames, 7);
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
                read_back(&frames, cap);
            }
        }
    }

    #[test]
    fn reader_passes_zero_length_frames() {
        let frames = vec![vec![], bytes(10, 1), vec![], vec![], bytes(1, 2), vec![]];
        for cap in [usize::MAX, 1, 7] {
            read_back(&frames, cap);
        }
    }

    #[test]
    fn reader_reads_a_bulk_frame_between_small_ones() {
        let frames = vec![bytes(64, 1), bytes(1_000_000, 2), bytes(64, 3)];
        for cap in [usize::MAX, 7 * 1024 + 3] {
            read_back(&frames, cap);
        }
    }

    /// A stream that ends inside a frame's body — in the stash or past
    /// it — ends the reader there: the cut frame is never handed out.
    #[test]
    fn reader_stops_on_a_frame_cut_short() {
        for len in [64, STASH_BYTES + 100, 1_000_000] {
            let mut cut = wire(&[&bytes(len, 4)]);
            cut.pop();
            for cap in [usize::MAX, 7] {
                let stream = Trickle {
                    bytes: &cut,
                    cap,
                    calls: 0,
                };
                let mut reader = FrameReader::new(stream, BufferPool::new());
                assert_eq!(reader.next_frame(), None, "len {len}, cap {cap}");
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
        let mut conduit = TcpConduit::new(&*rt, server, rt.event(), "tcp-rd-test".into());
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
