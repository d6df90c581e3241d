//! The receiver reads a frame that is one whole stream in place, and every
//! other frame through its stream assembler; both read alike.
//!
//! The frames come from a scripted driver: a wrapper below the library
//! whose receiving end hands rank 1 a fixed sequence of hand-built GTM
//! packets before anything its peer sends. Steps that raise and hold
//! flags order a second reading thread against the first; a step that
//! lingers parks the receiving thread right after its next bump of any
//! event (a runtime wrapper), which is where it lets go of the conduit.
//! A scripted peer that is a gateway of the channel gives its consecutive
//! packet steps as one backlog, which the receiver lands in one receive.

use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use mad_shm::ShmDriver;
use mad_util::pool::{BufferPool, PooledBuf};
use madeleine::conduit::{Conduit, Driver, DriverCaps, StaticBuf};
use madeleine::gtm::{self, GtmHeader, GtmPartDesc, StreamTag};
use madeleine::runtime::{RtEvent, Runtime};
use madeleine::session::VcOptions;
use madeleine::vchannel::{VcReader, VirtualChannel};
use madeleine::{MadError, NodeId, RecvMode, SendMode, SessionBuilder};

/// The rank every script is read by.
const RECEIVER: u32 = 1;

/// One step of what a scripted conduit end hands its receiver.
enum Step {
    Packet(Vec<u8>),
    /// Set a flag, then go on.
    Raise(&'static str),
    /// Not ready until the flag is set.
    Hold(&'static str),
    /// Not ready until the second flag is set; a `ready` that finds it
    /// not ready raises the first (a reader has scanned the conduit).
    Gate(&'static str, &'static str),
    /// The thread that receives the next packet, at its next bump of an
    /// event, raises the first flag and waits for the second.
    Linger(&'static str, &'static str),
    /// Ready, once: the thread whose `ready` finds it — a readiness scan,
    /// which chooses this conduit — lingers as after [`Step::Linger`] at
    /// its next bump, where the scan lets go of the conduit.
    Chosen(&'static str, &'static str),
}

thread_local! {
    /// The flags a [`Step::Linger`] armed on this thread.
    static LINGER: Cell<Option<(&'static str, &'static str)>> = const { Cell::new(None) };
}

/// The session's runtime with every event wrapped: a bump bumps, then
/// lingers if the bumping thread is armed.
struct LingeringRuntime {
    inner: Arc<dyn Runtime>,
    flags: Arc<Flags>,
}

struct LingeringEvent {
    inner: Arc<dyn RtEvent>,
    flags: Arc<Flags>,
}

impl RtEvent for LingeringEvent {
    fn epoch(&self) -> u64 {
        self.inner.epoch()
    }
    fn bump(&self) {
        self.inner.bump();
        if let Some((raise, until)) = LINGER.with(Cell::take) {
            self.flags.raise(raise);
            self.flags.wait(until);
        }
    }
    fn wait_past(&self, seen: u64) -> u64 {
        self.inner.wait_past(seen)
    }
    fn wait_past_timeout(&self, seen: u64, timeout_ns: u64) -> Option<u64> {
        self.inner.wait_past_timeout(seen, timeout_ns)
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

impl Runtime for LingeringRuntime {
    fn spawn(&self, name: String, f: Box<dyn FnOnce() + Send>) -> std::thread::JoinHandle<()> {
        self.inner.spawn(name, f)
    }
    fn event(&self) -> Arc<dyn RtEvent> {
        let inner = self.inner.event();
        self.flags.events.lock().unwrap().push(inner.clone());
        Arc::new(LingeringEvent {
            inner,
            flags: self.flags.clone(),
        })
    }
    fn charge_copy(&self, bytes: usize) {
        self.inner.charge_copy(bytes)
    }
    fn charge_overhead(&self, nanos: u64) {
        self.inner.charge_overhead(nanos)
    }
    fn now_nanos(&self) -> u64 {
        self.inner.now_nanos()
    }
    fn setup_guard(&self) -> Box<dyn std::any::Any + Send> {
        self.inner.setup_guard()
    }
    fn pool(&self) -> &Arc<mad_util::pool::BufferPool> {
        self.inner.pool()
    }
}

#[derive(Default)]
struct Flags {
    set: Mutex<BTreeSet<&'static str>>,
    cond: Condvar,
    /// Every event the session made.
    events: Mutex<Vec<Arc<dyn RtEvent>>>,
}

impl Flags {
    fn is_set(&self, flag: &'static str) -> bool {
        self.set.lock().unwrap().contains(flag)
    }

    fn raise(&self, flag: &'static str) {
        self.set.lock().unwrap().insert(flag);
        self.cond.notify_all();
    }

    /// Bump every event the session made, waking whoever sleeps on one.
    fn bump_all(&self) {
        for event in self.events.lock().unwrap().iter() {
            event.bump();
        }
    }

    /// Wait for a flag; a script that never raises it fails the test
    /// rather than hanging it.
    fn wait(&self, flag: &'static str) {
        let set = self.set.lock().unwrap();
        let (set, timeout) = self
            .cond
            .wait_timeout_while(set, Duration::from_secs(10), |s| !s.contains(flag))
            .unwrap();
        assert!(
            !timeout.timed_out() || set.contains(flag),
            "{flag} never raised"
        );
    }
}

type Scripts = BTreeMap<u32, VecDeque<Step>>;

/// Wraps a driver; the first conduit pair it connects between rank 1 and
/// a scripted peer gets the script. The session builds a virtual
/// channel's regular channel on a network before its special one, so that
/// pair is the regular channel, where the receiver reads.
struct ScriptedDriver {
    inner: Arc<dyn Driver>,
    scripts: Mutex<Scripts>,
    flags: Arc<Flags>,
}

impl Driver for ScriptedDriver {
    fn caps(&self) -> DriverCaps {
        self.inner.caps()
    }

    fn connect(
        &self,
        a: NodeId,
        b: NodeId,
        ev_a: Arc<dyn RtEvent>,
        ev_b: Arc<dyn RtEvent>,
    ) -> (Box<dyn Conduit>, Box<dyn Conduit>) {
        let (ca, cb) = self.inner.connect(a, b, ev_a, ev_b);
        let mut scripts = self.scripts.lock().unwrap();
        let mut end = |inner, me: NodeId, peer: NodeId| -> Box<dyn Conduit> {
            let steps = match me.0 {
                RECEIVER => scripts.remove(&peer.0),
                _ => None,
            };
            Box::new(ScriptedConduit {
                inner,
                steps: Mutex::new(steps.unwrap_or_default()),
                flags: self.flags.clone(),
            })
        };
        (end(ca, a, b), end(cb, b, a))
    }
}

struct ScriptedConduit {
    inner: Box<dyn Conduit>,
    steps: Mutex<VecDeque<Step>>,
    flags: Arc<Flags>,
}

impl Conduit for ScriptedConduit {
    fn caps(&self) -> DriverCaps {
        self.inner.caps()
    }
    fn send(&mut self, parts: &[&[u8]]) -> madeleine::Result<()> {
        self.inner.send(parts)
    }
    fn send_owned(&mut self, packet: PooledBuf) -> madeleine::Result<()> {
        self.inner.send_owned(packet)
    }
    fn send_static(&mut self, buf: StaticBuf) -> madeleine::Result<()> {
        self.inner.send_static(buf)
    }
    fn alloc_static(&mut self, len: usize) -> Option<StaticBuf> {
        self.inner.alloc_static(len)
    }
    fn recv_into(&mut self, dst: &mut [u8]) -> madeleine::Result<usize> {
        self.inner.recv_into(dst)
    }
    fn recv_owned(&mut self) -> madeleine::Result<Vec<u8>> {
        loop {
            let step = self.steps.lock().unwrap().pop_front();
            match step {
                Some(Step::Packet(p)) => return Ok(p),
                Some(Step::Raise(flag)) => {
                    self.flags.raise(flag);
                    self.inner.recv_event().bump();
                }
                Some(Step::Hold(flag) | Step::Gate(_, flag)) => self.flags.wait(flag),
                Some(Step::Linger(raise, until)) => LINGER.with(|l| l.set(Some((raise, until)))),
                Some(Step::Chosen(..)) => {}
                None => return self.inner.recv_owned(),
            }
        }
    }
    /// One packet as `recv_owned` gives it, then every packet step right
    /// behind it, and what the wrapped conduit holds once the script is
    /// spent: consecutive scripted packets are one backlog.
    fn recv_queued(&mut self, out: &mut VecDeque<Vec<u8>>) -> madeleine::Result<()> {
        out.push_back(self.recv_owned()?);
        let mut steps = self.steps.lock().unwrap();
        while let Some(Step::Packet(_)) = steps.front() {
            if let Some(Step::Packet(p)) = steps.pop_front() {
                out.push_back(p);
            }
        }
        if steps.is_empty() && self.inner.ready() {
            self.inner.recv_queued(out)?;
        }
        Ok(())
    }
    fn ready(&self) -> bool {
        let mut steps = self.steps.lock().unwrap();
        if let Some(&Step::Chosen(raise, until)) = steps.front() {
            steps.pop_front();
            LINGER.with(|l| l.set(Some((raise, until))));
            return true;
        }
        match steps.front() {
            Some(Step::Hold(flag)) => self.flags.is_set(flag),
            Some(Step::Gate(asked, flag)) => {
                let open = self.flags.is_set(flag);
                if !open {
                    self.flags.raise(asked);
                }
                open
            }
            Some(_) => true,
            None => self.inner.ready(),
        }
    }
    fn closed(&self) -> bool {
        self.steps.lock().unwrap().is_empty() && self.inner.closed()
    }
    // No `readiness`: the script decides what is ready, so a scan locks
    // this conduit and asks it (the trait's default).
    fn recv_event(&self) -> Arc<dyn RtEvent> {
        self.inner.recv_event()
    }
}

/// Ranks `0..nodes` on one scripted shm network; rank 1 reads what the
/// scripts hand it, from the peers named, and `read` runs there.
fn receive<T: Send + 'static>(
    nodes: u32,
    scripts: Vec<(u32, Vec<Step>)>,
    read: impl Fn(&VirtualChannel, &Flags) -> T + Send + Sync + 'static,
) -> T {
    session(nodes, false, scripts, move |vc, flags, _| read(vc, flags))
}

/// The same with rank 0 a gateway of the channel, onto a second network
/// it shares with one more rank: rank 1 lands rank 0's backlog in one
/// receive. `read` also gets the session's buffer pool, whose `gets`
/// tell an assembled batch frame (a pooled copy of each fragment) from
/// one read in place (none).
fn receive_from_gateway<T: Send + 'static>(
    script: Vec<Step>,
    read: impl Fn(&VirtualChannel, &Flags, &BufferPool) -> T + Send + Sync + 'static,
) -> T {
    session(2, true, vec![(0, script)], read)
}

fn session<T: Send + 'static>(
    nodes: u32,
    gateway: bool,
    scripts: Vec<(u32, Vec<Step>)>,
    read: impl Fn(&VirtualChannel, &Flags, &BufferPool) -> T + Send + Sync + 'static,
) -> T {
    let flags = Arc::new(Flags::default());
    let sb = SessionBuilder::new(nodes + u32::from(gateway));
    let runtime = Arc::new(LingeringRuntime {
        inner: sb.runtime().clone(),
        flags: flags.clone(),
    });
    let mut sb = sb.with_runtime(runtime);
    let driver = Arc::new(ScriptedDriver {
        inner: ShmDriver::new(sb.runtime().clone()),
        scripts: Mutex::new(
            scripts
                .into_iter()
                .map(|(peer, steps)| (peer, steps.into()))
                .collect(),
        ),
        flags: flags.clone(),
    });
    let members: Vec<u32> = (0..nodes).collect();
    let mut nets = vec![sb.network("net", driver, &members)];
    if gateway {
        let far = ShmDriver::new(sb.runtime().clone());
        nets.push(sb.network("far", far, &[0, nodes]));
    }
    sb.vchannel("vc", &nets, VcOptions::default());
    let pool = sb.runtime().pool().clone();
    let mut out = sb.run(move |node| {
        (node.rank().0 == RECEIVER).then(|| read(node.vchannel("vc"), &flags, &pool))
    });
    out.remove(RECEIVER as usize).unwrap()
}

fn tag(src: u32, msg_id: u32) -> StreamTag {
    StreamTag {
        src: NodeId(src),
        dest: NodeId(RECEIVER),
        msg_id,
    }
}

const PART: GtmPartDesc = GtmPartDesc {
    len: 3,
    send: SendMode::Cheaper,
    recv: RecvMode::Cheaper,
};

/// The four packets of a stream carrying one 3-byte block.
fn stream(header: GtmHeader, data: &[u8; 3]) -> Vec<Vec<u8>> {
    let t = header.tag;
    let mut frag = gtm::frag_prelude(&t).to_vec();
    frag.extend_from_slice(data);
    vec![
        gtm::encode_header(&header),
        gtm::encode_part(&t, &PART),
        frag,
        gtm::encode_end(&t),
    ]
}

fn plain(t: StreamTag) -> GtmHeader {
    GtmHeader::new(t, 64, false)
}

fn acked(t: StreamTag, retry: bool) -> GtmHeader {
    let mut h = plain(t);
    h.acked = true;
    h.retry = retry;
    h
}

/// The packets as one batch frame.
fn frame(packets: &[Vec<u8>]) -> Step {
    let packets: Vec<&[u8]> = packets.iter().map(|p| p.as_slice()).collect();
    Step::Packet(gtm::encode_batch(&packets))
}

/// The packets as wire packets of their own.
fn singly(packets: Vec<Vec<u8>>) -> impl Iterator<Item = Step> {
    packets.into_iter().map(Step::Packet)
}

/// Read one 3-byte message whole.
fn read_one(vc: &VirtualChannel) -> [u8; 3] {
    let mut r = vc.begin_unpacking().unwrap();
    let mut data = [0; 3];
    r.unpack(&mut data, SendMode::Cheaper, RecvMode::Cheaper)
        .unwrap();
    r.end_unpacking().unwrap();
    data
}

#[test]
fn a_malformed_frame_is_a_protocol_error_and_changes_nothing() {
    let (k, j) = (tag(0, 7), tag(0, 8));
    let mut half = stream(plain(k), b"kkk");
    half.truncate(1);
    half.push(gtm::encode_credit(&k, 1));
    let mut acked_inside = stream(plain(j), b"jjj");
    acked_inside.push(gtm::encode_ack(&j));
    let mut script = vec![frame(&half), frame(&stream(plain(k), b"kkk"))];
    script.push(frame(&acked_inside));
    script.extend(singly(stream(plain(j), b"jjj")));
    let read = receive(2, vec![(0, script)], |vc, _| {
        let mut read = Vec::new();
        for _ in 0..2 {
            assert!(matches!(
                vc.begin_unpacking().map(|_| ()),
                Err(MadError::Protocol(_))
            ));
            // The refused frame opened nothing: its key is free, in place
            // and through the assembler alike.
            read.push(read_one(vc));
        }
        read
    });
    assert_eq!(read, [*b"kkk", *b"jjj"]);
}

/// A whole frame that lands while another stream waits to be claimed is
/// delivered after it. Rank 1's second thread reads stream X from rank 0
/// and, pumping for it, queues stream A (one frame with X's body: only
/// that thread pumps rank 0's conduit); meanwhile the first thread,
/// already past its claim, lands B whole from rank 2.
#[test]
fn a_whole_frame_waits_behind_a_ready_stream() {
    let (x, a, b) = (tag(0, 1), tag(0, 2), tag(2, 1));
    let mut xs = stream(plain(x), b"xxx");
    let end_x = xs.pop().unwrap();
    let hx = xs.remove(0);
    let mut a_then_x = stream(plain(a), b"aaa");
    a_then_x.extend(xs);
    let from_0 = vec![
        Step::Packet(hx),
        Step::Hold("go"),
        frame(&a_then_x),
        Step::Raise("a-ready"),
        Step::Packet(end_x),
    ];
    let from_2 = vec![
        Step::Raise("go"),
        Step::Hold("a-ready"),
        frame(&stream(plain(b), b"bbb")),
    ];
    let order = receive(3, vec![(0, from_0), (2, from_2)], |vc, flags| {
        let Ok(VcReader::Gtm(mut rx)) = vc.begin_unpacking() else {
            panic!("stream X expected");
        };
        std::thread::scope(|s| {
            let second = s.spawn(move || {
                flags.wait("go");
                let mut data = [0; 3];
                rx.unpack(&mut data, SendMode::Cheaper, RecvMode::Cheaper)
                    .unwrap();
                rx.end_unpacking().unwrap();
                data
            });
            let first = read_one(vc);
            let then = read_one(vc);
            assert_eq!(second.join().unwrap(), *b"xxx");
            [first, then]
        })
    });
    assert_eq!(order, [*b"aaa", *b"bbb"]);
}

/// A stream delivered through the assembler, then its retry as a whole
/// frame: the retry must meet the assembler, which absorbs it as a ghost.
#[test]
fn a_retry_header_takes_the_assembler_path() {
    let (k, next) = (tag(0, 3), tag(0, 4));
    let mut script: Vec<Step> = singly(stream(acked(k, false), b"kkk")).collect();
    script.push(frame(&stream(acked(k, true), b"kkk")));
    script.push(frame(&stream(plain(next), b"nnn")));
    let read = receive(2, vec![(0, script)], |vc, _| [read_one(vc), read_one(vc)]);
    assert_eq!(read, [*b"kkk", *b"nnn"]);
}

/// An acked stream read in place is recorded as delivered: its retry,
/// through the assembler, is absorbed as a ghost, not delivered twice.
#[test]
fn an_acked_stream_read_in_place_absorbs_its_retry() {
    let (k, next) = (tag(0, 3), tag(0, 4));
    let mut script = vec![frame(&stream(acked(k, false), b"kkk"))];
    script.extend(singly(stream(acked(k, true), b"kkk")));
    script.push(frame(&stream(plain(next), b"nnn")));
    let read = receive(2, vec![(0, script)], |vc, _| [read_one(vc), read_one(vc)]);
    assert_eq!(read, [*b"kkk", *b"nnn"]);
}

/// A block length or flags that differ from the caller's are the same
/// `SequenceMismatch` whether the stream is read in place or assembled.
#[test]
fn unpack_mismatches_read_alike_in_place_and_assembled() {
    let (a, b, c, d) = (tag(0, 1), tag(0, 2), tag(0, 3), tag(0, 4));
    let mut two_streams = stream(plain(b), b"bbb");
    two_streams.extend(stream(plain(c), b"ccc"));
    let script = vec![
        frame(&stream(plain(a), b"aaa")),
        frame(&two_streams),
        frame(&stream(plain(d), b"ddd")),
    ];
    let errors = receive(2, vec![(0, script)], |vc, _| {
        let mismatch = |len: usize, send: SendMode| {
            let mut r = vc.begin_unpacking().unwrap();
            let mut data = vec![0; len];
            let e = match r.unpack(&mut data, send, RecvMode::Cheaper) {
                Err(MadError::SequenceMismatch(e)) => e,
                other => panic!("expected a sequence mismatch, got {other:?}"),
            };
            assert!(r.end_unpacking().is_err());
            e
        };
        // a in place, b and c assembled, d in place.
        [
            mismatch(4, SendMode::Cheaper),
            mismatch(4, SendMode::Cheaper),
            mismatch(3, SendMode::Later),
            mismatch(3, SendMode::Later),
        ]
    });
    assert_eq!(errors[0], errors[1]);
    assert_eq!(errors[2], errors[3]);
    assert_ne!(errors[0], errors[2]);
}

/// Two threads pumping one conduit keep a stream's packets in order. The
/// first thread receives stream Y's descriptor and lingers right after it
/// lets go of the conduit; the second, reading stream X from the same
/// conduit, receives Y's fragment meanwhile. Y still reads descriptor
/// first: the descriptor was in the demultiplexer before the conduit was
/// free.
#[test]
fn two_readers_of_one_conduit_keep_a_stream_in_order() {
    let xs = stream(plain(tag(0, 1)), b"xxx");
    let ys = stream(plain(tag(0, 2)), b"yyy");
    let [hx, px, fx, ex] = <[Vec<u8>; 4]>::try_from(xs).unwrap();
    let [hy, py, fy, ey] = <[Vec<u8>; 4]>::try_from(ys).unwrap();
    let script = vec![
        Step::Packet(hx),
        Step::Packet(hy),
        Step::Linger("lingering", "frag-in"),
        Step::Packet(py), // to the first thread, reading Y
        Step::Packet(fy), // to the second, reading X
        Step::Raise("frag-in"),
        Step::Packet(px),
        Step::Packet(fx),
        Step::Packet(ex),
        Step::Packet(ey),
    ];
    let read = receive(2, vec![(0, script)], |vc, flags| {
        let Ok(VcReader::Gtm(mut rx)) = vc.begin_unpacking() else {
            panic!("stream X expected");
        };
        std::thread::scope(|s| {
            let second = s.spawn(move || {
                flags.wait("lingering");
                let mut data = [0; 3];
                rx.unpack(&mut data, SendMode::Cheaper, RecvMode::Cheaper)
                    .unwrap();
                rx.end_unpacking().unwrap();
                data
            });
            let first = read_one(vc);
            [first, second.join().unwrap()]
        })
    });
    assert_eq!(read, [*b"yyy", *b"xxx"]);
}

/// Pool gets while rank 1 reads one 3-byte message, and the message.
fn read_counted(vc: &VirtualChannel, pool: &BufferPool) -> ([u8; 3], u64) {
    let before = pool.stats().gets;
    let data = read_one(vc);
    (data, pool.stats().gets - before)
}

/// One backlog from a gateway holds a whole frame, two streams whose
/// packets interleave, a retry header in a whole frame and another whole
/// frame. They read in arrival order, and a frame is read in place
/// exactly where the assembler admits it: the first and the last, not
/// the retry.
#[test]
fn a_mixed_backlog_reads_in_order_and_in_place_where_admitted() {
    let (a, b, c, k, e) = (tag(0, 1), tag(0, 2), tag(0, 3), tag(0, 4), tag(0, 5));
    let mut script = vec![frame(&stream(plain(a), b"aaa"))];
    let bs = stream(plain(b), b"bbb");
    let cs = stream(plain(c), b"ccc");
    for (pb, pc) in bs.into_iter().zip(cs) {
        script.push(Step::Packet(pb));
        script.push(Step::Packet(pc));
    }
    script.push(frame(&stream(acked(k, true), b"kkk")));
    script.push(frame(&stream(plain(e), b"eee")));
    let read = receive_from_gateway(script, |vc, _, pool| {
        (0..5).map(|_| read_counted(vc, pool)).collect::<Vec<_>>()
    });
    assert_eq!(
        read,
        [
            (*b"aaa", 0),
            (*b"bbb", 0),
            (*b"ccc", 0),
            (*b"kkk", 1),
            (*b"eee", 0)
        ]
    );
}

/// The first thread lands a backlog that holds stream X's packets behind
/// stream Y's header and takes Y; a second thread, reading X, finds X's
/// items in that landed FIFO, feeds them in order, then receives X's end
/// from the conduit. It neither waits for packets that are already in
/// nor reads X out of order; Y reads whole afterwards.
#[test]
fn a_second_reader_takes_its_items_from_the_landed_fifo() {
    let [hx, px, fx, ex] = <[Vec<u8>; 4]>::try_from(stream(plain(tag(0, 1)), b"xxx")).unwrap();
    let [hy, py, fy, ey] = <[Vec<u8>; 4]>::try_from(stream(plain(tag(0, 2)), b"yyy")).unwrap();
    let script = vec![
        Step::Packet(hx),
        Step::Raise("x-open"),
        Step::Packet(hy),
        Step::Packet(py),
        Step::Packet(px),
        Step::Packet(fx),
        Step::Packet(fy),
        Step::Packet(ey),
        Step::Raise("x-end"),
        Step::Packet(ex),
    ];
    let read = receive_from_gateway(script, |vc, flags, _| {
        let Ok(VcReader::Gtm(mut rx)) = vc.begin_unpacking() else {
            panic!("stream X expected");
        };
        let Ok(mut ry) = vc.begin_unpacking() else {
            panic!("stream Y expected");
        };
        assert!(flags.is_set("x-open") && !flags.is_set("x-end"));
        let x = std::thread::scope(|s| {
            s.spawn(move || {
                let mut data = [0; 3];
                rx.unpack(&mut data, SendMode::Cheaper, RecvMode::Cheaper)
                    .unwrap();
                rx.end_unpacking().unwrap();
                data
            })
            .join()
            .unwrap()
        });
        assert!(flags.is_set("x-end"), "X's end came from the conduit");
        let mut y = [0; 3];
        ry.unpack(&mut y, SendMode::Cheaper, RecvMode::Cheaper)
            .unwrap();
        ry.end_unpacking().unwrap();
        [x, y]
    });
    assert_eq!(read, [*b"xxx", *b"yyy"]);
}

/// A whole frame landed behind a multi-packet stream waits for it. One
/// that lands among the stream's packets is fed to the assembler by the
/// stream's reader (whose read makes its fragment's pooled copy), and
/// reads after it; one behind the stream's end is still read in place.
#[test]
fn a_whole_frame_behind_a_landed_stream_reads_after_it() {
    let (x, w1, w2) = (tag(0, 1), tag(0, 2), tag(0, 3));
    let [hx, px, fx, ex] = <[Vec<u8>; 4]>::try_from(stream(plain(x), b"xxx")).unwrap();
    let script = vec![
        Step::Packet(hx),
        Step::Packet(px),
        frame(&stream(plain(w1), b"111")),
        Step::Packet(fx),
        Step::Packet(ex),
        frame(&stream(plain(w2), b"222")),
    ];
    let read = receive_from_gateway(script, |vc, _, pool| {
        (0..3).map(|_| read_counted(vc, pool)).collect::<Vec<_>>()
    });
    assert_eq!(read, [(*b"xxx", 1), (*b"111", 0), (*b"222", 0)]);
}

/// A reader asleep in `begin_unpacking` wakes for a whole frame that
/// another thread's stream reader lands behind its own items and leaves
/// in the landed FIFO: the conduit it scanned is empty by then. The
/// first thread opens stream X; a second, reading whole, scans the gated
/// conduit and waits; the first, reading X, then lands [X's packets, Y's
/// frame] in one receive and takes X. Y must reach the second thread
/// without any further arrival; one more frame, Z, behind a held step,
/// is what wakes a reader that missed Y, and the first thread reads it.
#[test]
fn a_waiting_reader_wakes_for_a_frame_another_reader_landed() {
    let (x, y, z) = (tag(0, 1), tag(0, 2), tag(0, 3));
    let [hx, px, fx, ex] = <[Vec<u8>; 4]>::try_from(stream(plain(x), b"xxx")).unwrap();
    let script = vec![
        Step::Packet(hx),
        Step::Gate("scanned", "go"),
        Step::Packet(px),
        Step::Packet(fx),
        Step::Packet(ex),
        frame(&stream(plain(y), b"yyy")),
        Step::Hold("rescue"),
        frame(&stream(plain(z), b"zzz")),
    ];
    let (read, woke) = receive_from_gateway(script, |vc, flags, _| {
        let Ok(VcReader::Gtm(mut rx)) = vc.begin_unpacking() else {
            panic!("stream X expected");
        };
        std::thread::scope(|s| {
            let (done, finished) = std::sync::mpsc::channel();
            let second = s.spawn(move || {
                let data = read_one(vc);
                done.send(()).unwrap();
                data
            });
            flags.wait("scanned");
            flags.raise("go");
            let mut x = [0; 3];
            rx.unpack(&mut x, SendMode::Cheaper, RecvMode::Cheaper)
                .unwrap();
            rx.end_unpacking().unwrap();
            let woke = finished.recv_timeout(Duration::from_secs(5)).is_ok();
            // Z made ready and every event bumped, as Z's arrival would:
            // a second thread still asleep wakes and finds Y first.
            flags.raise("rescue");
            flags.bump_all();
            let y = second.join().unwrap();
            ([x, y, read_one(vc)], woke)
        })
    });
    assert_eq!(read, [*b"xxx", *b"yyy", *b"zzz"]);
    assert!(woke, "the second reader slept with Y landed");
}

/// A reader that a readiness scan sent to a conduit which another reader
/// emptied before it got the lock scans again instead of blocking there.
/// The first thread opens stream X from gateway rank 0; a second, reading
/// whole, chooses rank 0's conduit and lingers; the first reads X, landing
/// the rest of rank 0's backlog; the second then finds that conduit empty,
/// while its message W waits on rank 2's. Rank 0's frame Z, behind a held
/// step, is what a reader that blocked on the emptied conduit receives
/// instead, and the first thread reads it.
#[test]
fn a_reader_whose_chosen_conduit_was_emptied_scans_again() {
    let (x, w, z) = (tag(0, 1), tag(2, 1), tag(0, 2));
    let [hx, px, fx, ex] = <[Vec<u8>; 4]>::try_from(stream(plain(x), b"xxx")).unwrap();
    let from_0 = vec![
        Step::Packet(hx),
        Step::Chosen("chosen", "go"),
        Step::Packet(px),
        Step::Packet(fx),
        Step::Packet(ex),
        Step::Hold("rescue"),
        frame(&stream(plain(z), b"zzz")),
    ];
    let from_2 = vec![Step::Hold("w-in"), frame(&stream(plain(w), b"www"))];
    let (read, scanned_again) = session(3, true, vec![(0, from_0), (2, from_2)], |vc, flags, _| {
        let Ok(VcReader::Gtm(mut rx)) = vc.begin_unpacking() else {
            panic!("stream X expected");
        };
        std::thread::scope(|s| {
            let (done, finished) = std::sync::mpsc::channel();
            let second = s.spawn(move || {
                let data = read_one(vc);
                done.send(()).unwrap();
                data
            });
            flags.wait("chosen");
            let mut x = [0; 3];
            rx.unpack(&mut x, SendMode::Cheaper, RecvMode::Cheaper)
                .unwrap();
            rx.end_unpacking().unwrap();
            flags.raise("w-in");
            flags.raise("go");
            let scanned_again = finished.recv_timeout(Duration::from_secs(5)).is_ok();
            // Lets a second thread blocked on rank 0's conduit receive Z.
            flags.raise("rescue");
            let second = second.join().unwrap();
            ([x, second, read_one(vc)], scanned_again)
        })
    });
    assert_eq!(read, [*b"xxx", *b"www", *b"zzz"]);
    assert!(
        scanned_again,
        "the second reader blocked on an emptied conduit"
    );
}
