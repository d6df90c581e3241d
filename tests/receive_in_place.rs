//! The receiver reads a frame that is one whole stream in place, and every
//! other frame through its stream assembler; both read alike.
//!
//! The frames come from a scripted driver: a wrapper below the library
//! whose receiving end hands rank 1 a fixed sequence of hand-built GTM
//! packets before anything its peer sends. Steps that raise and hold
//! flags order a second reading thread against the first; a step that
//! lingers parks the receiving thread right after its next bump of any
//! event (a runtime wrapper), which is where it lets go of the conduit.

use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use mad_shm::ShmDriver;
use mad_util::pool::PooledBuf;
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
    /// The thread that receives the next packet, at its next bump of an
    /// event, raises the first flag and waits for the second.
    Linger(&'static str, &'static str),
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
        Arc::new(LingeringEvent {
            inner: self.inner.event(),
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
}

impl Flags {
    fn is_set(&self, flag: &'static str) -> bool {
        self.set.lock().unwrap().contains(flag)
    }

    fn raise(&self, flag: &'static str) {
        self.set.lock().unwrap().insert(flag);
        self.cond.notify_all();
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
                Some(Step::Hold(flag)) => self.flags.wait(flag),
                Some(Step::Linger(raise, until)) => LINGER.with(|l| l.set(Some((raise, until)))),
                None => return self.inner.recv_owned(),
            }
        }
    }
    fn ready(&self) -> bool {
        match self.steps.lock().unwrap().front() {
            Some(Step::Hold(flag)) => self.flags.is_set(flag),
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
    let flags = Arc::new(Flags::default());
    let sb = SessionBuilder::new(nodes);
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
    let net = sb.network("net", driver, &members);
    sb.vchannel("vc", &[net], VcOptions::default());
    let mut out =
        sb.run(move |node| (node.rank().0 == RECEIVER).then(|| read(node.vchannel("vc"), &flags)));
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
