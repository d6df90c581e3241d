//! The reactor engine core: the gateway's forwarding logic as poll-driven
//! state machines on a fixed worker pool (paper §2.2.2 rethought for
//! scale).
//!
//! The threaded engine burns `nets × (1 + (nets−1))` OS threads per
//! gateway per virtual channel. This module runs the *same* forwarding
//! body — [`Inbound::serve`] (receive, demultiplex, degrade),
//! [`build_train`], the credit protocol, cancellation — under a different
//! scheduler: a pair of tasks per inbound network (a [`RecvTask`] and a
//! [`FlushTask`] sharing the outbound queues) on a per-gateway-node
//! [`GatewayReactor`] whose worker count is fixed no matter how many
//! virtual channels, networks, or streams the node hosts. Everything in
//! this file is *who waits how*; nothing in it decides what a packet
//! means.
//!
//! ## Why a receive/flush task *pair*
//!
//! The threaded engine overlaps the polling thread's receive cost with
//! the forwarding thread's transmit cost — that overlap is where its
//! single-stream pipeline bandwidth comes from. A single task would
//! serialize the two on whichever worker polls it. Splitting them along
//! the same seam as the threaded engine (the bounded pipeline queue,
//! here a mutex-guarded per-net `VecDeque`) lets two workers drive
//! receive and transmit concurrently, so bulk bandwidth matches the
//! threaded engine while the thread count stays flat.
//!
//! ## Why one reactor per gateway *node*
//!
//! A session creates every conduit of a reactor-driven gateway node
//! against that node's single arrival event (a thread-driven one gives
//! each special channel its own, for its polling thread), and the node's
//! [`CreditLedger`](crate::credit::CreditLedger) shares it: any packet
//! arrival, credit deposit, or cancellation bumps exactly that event. The
//! reactor parks its workers on it ([`RtPark`]), so "anything happened on
//! this node" is precisely "stir the reactor" — no per-source waker
//! plumbing, and under the simulated runtime the park maps onto the
//! virtual-clock signal, keeping reactor-mode sessions deterministic.
//! The task pair uses the same event to hand off: enqueueing an item or
//! freeing queue space bumps it, which stirs the peer task.
//!
//! ## Blocking calls become poll state
//!
//! * the polling thread's blocking `select_ready_after` becomes a
//!   non-blocking `try_select_ready_after` scan, re-armed by stirs;
//! * the forwarding thread's bounded queue becomes a per-outbound-net
//!   `VecDeque` whose length gates intake at `pipeline_depth` (same
//!   backpressure, no parked thread), flushed through the same
//!   [`build_train`] as `forwarding_thread`;
//! * blocking credit takes become `try_take` plus a reactor timer at the
//!   credit deadline (on expiry the stream is cancelled exactly as the
//!   threaded engine's `take_blocking` timeout would);
//! * the teardown drain deadline becomes a timer armed when a stop is
//!   requested or the inbound side disconnects.
//!
//! Packets of one stream only ever traverse one receive task and one net
//! queue in FIFO order, so per-stream byte sequences are identical to the
//! threaded engine's — the `prop_engine` property test asserts it.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use mad_trace::trace_instant;
use mad_util::reactor::{Context, Park, Poll, PollTask, Reactor};
use mad_util::sync::{Condvar, Mutex};

use super::{
    build_train, FwdItem, FwdShared, FwdUnit, GatewayConfig, GatewayStop, Inbound, ItemSink,
    OutPath, Served, ThreadExitGuard,
};
use crate::credit::TakeOutcome;
use crate::error::{MadError, Result};
use crate::gtm::CancelReason;
use crate::runtime::{RtEvent, Runtime};
use crate::types::{NetworkId, NodeId};

/// [`Park`] over a node's arrival event and its runtime's clock: the glue
/// that lets one `mad_util` reactor block correctly under both the real
/// and the simulated runtime. `prepare`/`park` map 1:1 onto the event's
/// epoch protocol, and `now_ns` onto [`Runtime::now_nanos`], so reactor
/// timers live in virtual time when the clock does.
struct RtPark {
    ev: Arc<dyn RtEvent>,
    rt: Arc<dyn Runtime>,
}

impl Park for RtPark {
    fn now_ns(&self) -> u64 {
        self.rt.now_nanos()
    }

    fn prepare(&self) -> u64 {
        self.ev.epoch()
    }

    fn park(&self, token: u64) {
        self.ev.wait_past(token);
    }

    fn park_timeout(&self, token: u64, timeout_ns: u64) {
        let _ = self.ev.wait_past_timeout(token, timeout_ns);
    }

    fn unpark(&self) {
        self.ev.bump();
    }
}

/// Completion latch for one engine's reactor tasks, decremented as each
/// task is dropped (finished, panicked, or drained at shutdown).
///
/// Plain `std`-style sync on purpose: the session's main thread — which
/// is *not* a virtual-clock actor and therefore must never wait on an
/// [`RtEvent`] — joins gateways through this, mirroring how it joins
/// threaded engines with `JoinHandle::join`.
pub(super) struct TaskLatch {
    remaining: Mutex<usize>,
    cv: Condvar,
}

impl TaskLatch {
    pub(super) fn new(n: usize) -> Arc<Self> {
        Arc::new(TaskLatch {
            remaining: Mutex::new(n),
            cv: Condvar::new(),
        })
    }

    /// Block until every task of the engine has been dropped.
    pub(super) fn wait(&self) {
        let mut left = self.remaining.lock();
        while *left > 0 {
            self.cv.wait(&mut left);
        }
    }

    fn done(&self) {
        let mut left = self.remaining.lock();
        *left = left.saturating_sub(1);
        if *left == 0 {
            self.cv.notify_all();
        }
    }
}

/// Decrements the latch on drop — panics and drains count as completion,
/// so a joiner can never hang on a task that no longer exists.
struct LatchGuard(Arc<TaskLatch>);

impl Drop for LatchGuard {
    fn drop(&mut self) {
        self.0.done();
    }
}

/// The shared reactor of one gateway node: a `mad_util` reactor parked on
/// the node's arrival event plus the fixed worker pool driving it. One
/// instance serves every reactor-mode virtual channel of the node; the
/// session builds it, hands it to `spawn_gateway`, and shuts it down after
/// all engines have drained.
pub struct GatewayReactor {
    core: Arc<Reactor>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

/// Worker threads of a gateway node's reactor. Two keep receive and
/// retransmit overlapped — the reactor's double-buffering analog; A9c
/// measured 1 and 4 and both lost.
const REACTOR_WORKERS: usize = 2;

impl GatewayReactor {
    /// Build the reactor of gateway node `rank` and spawn its
    /// `REACTOR_WORKERS` worker threads through the runtime — so they are
    /// virtual-clock actors under simulation and counted in the session
    /// thread budget.
    pub fn new(rank: NodeId, runtime: &Arc<dyn Runtime>, event: Arc<dyn RtEvent>) -> Arc<Self> {
        let core = Reactor::new(Arc::new(RtPark {
            ev: event,
            rt: runtime.clone(),
        }));
        let handles = (0..REACTOR_WORKERS)
            .map(|i| {
                let core = core.clone();
                runtime.spawn(
                    format!("gw{}-reactor-w{}", rank.0, i),
                    Box::new(move || core.run_worker()),
                )
            })
            .collect();
        Arc::new(GatewayReactor {
            core,
            workers: Mutex::new(handles),
        })
    }

    /// Worker threads driving this reactor.
    pub fn worker_count(&self) -> usize {
        self.workers.lock().len()
    }

    /// Tasks ever spawned on this reactor (a receive/flush pair per
    /// inbound network, across all virtual channels of the node).
    pub fn tasks_spawned(&self) -> u64 {
        self.core.spawned_total()
    }

    /// Spawn an auxiliary task (e.g. a health watchdog) on the node's
    /// worker pool.
    pub(crate) fn spawn_task(&self, task: Box<dyn mad_util::reactor::PollTask>) {
        self.core.spawn(task);
    }

    /// Route every task-poll duration on this reactor into `hist` (the
    /// node's `reactor_poll_ns` histogram). First caller wins; later
    /// calls are no-ops.
    pub fn set_poll_histogram(&self, hist: Arc<mad_util::hist::AtomicHistogram>) {
        self.core.set_poll_histogram(hist);
    }

    /// Stop the workers, join them, drop any remaining task (running its
    /// RAII guards), and resurface the first task panic. The session
    /// calls this after every engine's latch has been joined, so in a
    /// healthy run there is nothing left to drain.
    pub fn shutdown_and_join(&self) {
        self.core.shutdown();
        let handles: Vec<JoinHandle<()>> = self.workers.lock().drain(..).collect();
        for h in handles {
            if let Err(e) = h.join() {
                std::panic::resume_unwind(e);
            }
        }
        self.core.drain_tasks();
        if let Some(p) = self.core.take_panic() {
            std::panic::resume_unwind(p);
        }
    }
}

/// One outbound network's queue: the reactor analog of the threaded
/// engine's bounded pipeline. Per-net queues (rather than one) keep a
/// credit-blocked stream toward one network from head-of-line-blocking
/// traffic toward another, matching the isolation threaded per-pair
/// pipelines provide. Per-stream FIFO holds because a stream pins to one
/// outbound net for its whole life.
struct NetQueue {
    /// The pipeline slots: one unit per received wire packet and outgoing
    /// conduit. Its length, plus one while `pending` holds the unit in
    /// hand, is what gates intake at `pipeline_depth`.
    q: VecDeque<FwdUnit>,
    /// The flush side's work list: the packets of the unit in hand that
    /// are not on the wire yet (the threaded engine's `Flush::pending`).
    pending: VecDeque<FwdItem>,
    /// When the head item first found its credit window empty — the start
    /// of the current credit-blocked episode, whose deadline becomes a
    /// reactor timer.
    blocked_since: Option<u64>,
}

/// The queues one inbound direction feeds, shared between its receive
/// task (producer) and flush task (consumer) — the reactor's version of
/// the bounded channel between the threaded polling and forwarding
/// threads. Guarded by a plain mutex: both sides only hold it for queue
/// surgery, never across a conduit send or receive.
struct Queues {
    nets: BTreeMap<NetworkId, NetQueue>,
}

/// The reactor engine's [`ItemSink`]: relayed packets land in the
/// outbound net's queue and the flush task transmits them with
/// non-blocking credit takes and the shared [`build_train`] rule.
/// Enqueueing bumps the node event so a drained flush task wakes up.
struct ReactorSinks {
    nets: BTreeSet<NetworkId>,
    queues: Arc<Mutex<Queues>>,
    wake: Arc<dyn RtEvent>,
}

impl ItemSink for ReactorSinks {
    fn bridges(&self, net: NetworkId) -> bool {
        self.nets.contains(&net)
    }

    fn accept(&mut self, unit: FwdUnit, shared: &FwdShared) -> Result<()> {
        {
            let net = unit.out_net();
            let mut g = self.queues.lock();
            let Some(nq) = net.and_then(|net| g.nets.get_mut(&net)) else {
                // `bridges` is checked before a stream is accepted, so this
                // is unreachable in practice; account the unit and poison
                // only it.
                unit.drop_all(shared);
                return Err(MadError::Protocol(format!(
                    "no reactor queue for network {net:?}"
                )));
            };
            // Every reactor fragment crosses a queue boundary — the analog
            // of the threaded pipeline handoff.
            shared.stats.on_switch(unit.frags());
            shared.queue_depth(1);
            nq.q.push_back(unit);
        }
        self.wake.bump();
        Ok(())
    }
}

/// Packets received per poll before yielding the worker to other tasks —
/// the reactor's fairness quantum (a busy inbound net cannot monopolize a
/// worker the way it *should* monopolize its dedicated thread).
const RECV_BUDGET: usize = 32;

/// Trains transmitted per flush poll before yielding, for the same
/// fairness reason on the output side.
const TRAIN_BUDGET: usize = 16;

/// The reactor's scheduler of one [`Inbound`]: where the threaded engine's
/// polling thread blocks in `select_ready_after`, this task scans without
/// blocking and sleeps on the node event. Items it relays land in the
/// [`Queues`] its [`FlushTask`] partner drains; a full queue parks intake
/// at `pipeline_depth`, exactly like the threaded engine's bounded
/// pipeline send.
struct RecvTask {
    inbound: Inbound,
    sinks: ReactorSinks,
    stopctl: Arc<GatewayStop>,
    /// Fair-scan cursor: the peer served last turn.
    cursor: Option<NodeId>,
    /// Armed when a stop is requested; expiry abandons streams that will
    /// never end.
    drain_deadline: Option<u64>,
    /// Set (on drop) once this side stops producing, so the flush task
    /// knows the queue tail is final.
    inbound_done: Arc<AtomicBool>,
    /// Set by the flush task when an outbound conduit died: nothing this
    /// side receives can be forwarded anymore, so it finishes.
    output_dead: Arc<AtomicBool>,
    _latch: LatchGuard,
    _exit: ThreadExitGuard,
}

impl RecvTask {
    /// The unit the flush side has in hand — a credit-blocked head above
    /// all — still occupies a slot: `pipeline_depth` bounds the received
    /// wire packets this direction holds, not the ones behind the first.
    fn queues_full(&self) -> bool {
        let depth = self.inbound.ctx.cfg.pipeline_depth;
        self.sinks
            .queues
            .lock()
            .nets
            .values()
            .any(|n| n.q.len() + usize::from(!n.pending.is_empty()) >= depth)
    }
}

impl Drop for RecvTask {
    fn drop(&mut self) {
        // Finished, panicked, or drained: either way the producer is gone.
        // Publish that and stir the reactor so the flush task moves to its
        // endgame. `_exit` and `_latch` drop after this body.
        self.inbound_done.store(true, Ordering::Release);
        self.sinks.wake.bump();
    }
}

impl PollTask for RecvTask {
    fn poll(&mut self, cx: &mut Context) -> Poll {
        let mut received = 0usize;
        loop {
            let now = cx.now_ns();
            if self.output_dead.load(Ordering::Acquire) {
                // The flush side lost its conduit and drains the queues;
                // receiving more would only feed a dead path.
                return Poll::Ready;
            }
            if self.stopctl.stop_requested() {
                let deadline = *self
                    .drain_deadline
                    .get_or_insert(now.saturating_add(self.inbound.ctx.cfg.drain_timeout_ns));
                if now >= deadline {
                    // Streams that will never end (their source died
                    // silently): abandon instead of hanging the session.
                    return Poll::Ready;
                }
                cx.wake_at(deadline);
            }
            if self.queues_full() {
                // Backpressure: the threaded polling thread would park on
                // the bounded pipeline send here. The flush task bumps the
                // node event whenever it frees space.
                return Poll::Pending;
            }
            let in_channel = &self.inbound.ctx.in_channel;
            let sel = match self.inbound.pinned {
                Some(p) => match in_channel.conduit_ready(p) {
                    Ok(true) => Some(p),
                    Ok(false) => None,
                    Err(_) => return Poll::Ready,
                },
                None => match in_channel.try_select_ready_after(self.cursor) {
                    Ok(s) => s,
                    Err(_) => return Poll::Ready,
                },
            };
            let Some(peer) = sel else {
                // Intake stalled: sleep until the node's arrival event
                // stirs us.
                if self.stopctl.should_stop() {
                    return Poll::Ready;
                }
                return Poll::Pending;
            };
            self.cursor = Some(peer);
            if let Served::Finished = self.inbound.serve(peer, &mut self.sinks) {
                return Poll::Ready;
            }
            received += 1;
            if received >= RECV_BUDGET {
                cx.yield_now();
                return Poll::Pending;
            }
        }
    }
}

/// One step the flush task resolved under the queue lock, executed (any
/// conduit I/O) after the lock is released.
enum FlushStep {
    /// A train ready to transmit (in the task's `batch`
    /// scratch), plus any ledger-cancelled items popped while building it.
    Train(Vec<(FwdItem, CancelReason)>),
    /// The head item's stream is dead (ledger cancel or credit timeout).
    Cancel(FwdItem, CancelReason),
    /// Nothing sendable: queue empty, or head credit-blocked with the
    /// deadline timer armed.
    Idle,
}

/// Pop a head item whose stream is dead, for cancellation outside the
/// queue lock.
fn pop_dead(pending: &mut VecDeque<FwdItem>, reason: CancelReason) -> FlushStep {
    match pending.pop_front() {
        Some(item) => FlushStep::Cancel(item, reason),
        None => FlushStep::Idle,
    }
}

/// The transmit half of one inbound network: the threaded engine's
/// forwarding threads (credit + train building + transmit) as a
/// non-blocking task. It pops decisions under the queue lock but performs
/// every conduit send outside it, so its partner keeps receiving while it
/// transmits — that concurrency is what keeps reactor bulk bandwidth at
/// parity with the threaded engine.
struct FlushTask {
    cfg: GatewayConfig,
    shared: FwdShared,
    stopctl: Arc<GatewayStop>,
    queues: Arc<Mutex<Queues>>,
    paths: BTreeMap<NetworkId, OutPath>,
    wake: Arc<dyn RtEvent>,
    inbound_done: Arc<AtomicBool>,
    output_dead: Arc<AtomicBool>,
    /// Whether stage-busy brackets pay for clock reads; `flush_active` is
    /// maintained either way so the receive task can place copies.
    timed: bool,
    /// The train between `next_step` (built under the queue lock) and its
    /// transmission (outside it); empty otherwise.
    batch: Vec<FwdItem>,
    drain_deadline: Option<u64>,
    _latch: LatchGuard,
    _exit: ThreadExitGuard,
}

impl FlushTask {
    /// Resolve the next action for `net`'s queue under the lock: cancel a
    /// dead head, arm the credit timer for a blocked one, or build a train
    /// into `self.batch` (through the same [`build_train`] as the
    /// threaded engine's `Flush::transmit`).
    fn next_step(&mut self, net: NetworkId, cx: &mut Context) -> FlushStep {
        let now = cx.now_ns();
        let shared = &self.shared;
        let Some(path) = self.paths.get(&net) else {
            return FlushStep::Idle;
        };
        let mut g = self.queues.lock();
        let Some(nq) = g.nets.get_mut(&net) else {
            return FlushStep::Idle;
        };
        let NetQueue {
            q,
            pending,
            blocked_since,
        } = nq;
        if pending.is_empty() {
            if let Some(unit) = q.pop_front() {
                shared.queue_depth(-1);
                unit.unpack_into(pending);
            }
        }
        let Some(head) = pending.front() else {
            *blocked_since = None;
            return FlushStep::Idle;
        };
        if head.consume {
            match shared.ledger().try_take(head.tag.key()) {
                TakeOutcome::Taken => {
                    // Credit in hand: record how long the head's blocked
                    // episode lasted (0 when the take was instant), the
                    // reactor analog of the blocking-wait measurement.
                    if let Some(m) = &shared.metrics {
                        m.credit_wait_ns
                            .record(now.saturating_sub(blocked_since.unwrap_or(now)));
                    }
                }
                TakeOutcome::Cancelled(r) => {
                    *blocked_since = None;
                    return pop_dead(pending, r);
                }
                TakeOutcome::Empty => {
                    let since = match *blocked_since {
                        Some(s) => s,
                        None => {
                            shared.stats.on_stall();
                            trace_instant!(
                                shared.tracer,
                                "gw",
                                "stall",
                                "src" = head.tag.src.0 as u64,
                                "dest" = head.tag.dest.0 as u64,
                            );
                            *blocked_since = Some(now);
                            now
                        }
                    };
                    let deadline = since.saturating_add(shared.credit_timeout_ns);
                    if now >= deadline {
                        // The blocking credit take would have timed out by
                        // now: same degradation, same order.
                        shared.stats.credit_timeouts.fetch_add(1, Ordering::Relaxed);
                        *blocked_since = None;
                        return pop_dead(pending, CancelReason::CreditTimeout);
                    }
                    cx.wake_at(deadline);
                    return FlushStep::Idle; // blocked head holds this net's FIFO
                }
            }
        }
        *blocked_since = None;
        let Some(head) = pending.pop_front() else {
            return FlushStep::Idle;
        };
        let caps = path.channel(head.last_hop).caps();
        let mut cancels = Vec::new();
        build_train(
            head,
            &caps,
            &mut self.batch,
            pending,
            shared.ledger(),
            &mut cancels,
        );
        FlushStep::Train(cancels)
    }

    fn cancel_and_drop(&self, net: NetworkId, item: FwdItem, reason: CancelReason) {
        match self.paths.get(&net) {
            Some(path) => super::cancel_and_drop(path, &item, reason, &self.shared),
            None => super::drop_item(&item, &self.shared),
        }
    }

    /// Transmit until every queue is empty or credit-blocked (or the
    /// fairness budget runs out). Returns whether anything was popped.
    /// An outbound conduit failure sets `output_dead`; the caller drains.
    fn flush_pass(&mut self, cx: &mut Context, sent: &mut usize) -> bool {
        let nets: Vec<NetworkId> = self.paths.keys().copied().collect();
        let mut progress = false;
        for net in nets {
            loop {
                if *sent >= TRAIN_BUDGET || self.output_dead.load(Ordering::Acquire) {
                    return progress;
                }
                match self.next_step(net, cx) {
                    FlushStep::Idle => break,
                    FlushStep::Cancel(item, r) => {
                        self.cancel_and_drop(net, item, r);
                        progress = true;
                    }
                    FlushStep::Train(cancels) => {
                        for (item, r) in cancels {
                            self.cancel_and_drop(net, item, r);
                        }
                        let Some(path) = self.paths.get(&net) else {
                            break;
                        };
                        if !super::transmit_batch(path, &mut self.batch, &self.shared) {
                            self.output_dead.store(true, Ordering::Release);
                            return true;
                        }
                        *sent += 1;
                        progress = true;
                    }
                }
            }
        }
        progress
    }

    /// Drop every still-queued item with full accounting (held-bytes
    /// gauge, ledger close). Idempotent; also run on task drop so a
    /// drained or panicked task cannot leak stream accounting.
    fn drain_all(&self) {
        let mut g = self.queues.lock();
        for nq in g.nets.values_mut() {
            while let Some(unit) = nq.q.pop_front() {
                self.shared.queue_depth(-1);
                unit.unpack_into(&mut nq.pending);
            }
            for item in nq.pending.drain(..) {
                super::drop_item(&item, &self.shared);
            }
            nq.blocked_since = None;
        }
    }

    fn queued(&self) -> usize {
        let g = self.queues.lock();
        g.nets.values().map(|n| n.q.len() + n.pending.len()).sum()
    }
}

impl Drop for FlushTask {
    fn drop(&mut self) {
        // The consumer is gone: kill the path so the receive task stops
        // producing, and account anything still queued.
        self.output_dead.store(true, Ordering::Release);
        self.drain_all();
        self.wake.bump();
        // `_exit` (ThreadExitGuard) and `_latch` drop after this body:
        // last-task-out releases leaked streams, then the joiner wakes.
    }
}

impl PollTask for FlushTask {
    fn poll(&mut self, cx: &mut Context) -> Poll {
        if self.output_dead.load(Ordering::Acquire) {
            // Sink mode after a conduit death: swallow whatever the
            // receive task pushed before it noticed, until it is done.
            self.drain_all();
            if self.inbound_done.load(Ordering::Acquire) {
                return Poll::Ready;
            }
            return Poll::Pending;
        }
        let mut sent = 0usize;
        let progress = {
            // The flush stage is busy for the whole pass — the receive
            // task's copy-placement scheduler reads `flush_active`.
            let stats = self.shared.stats.clone();
            let runtime = self.shared.runtime.clone();
            let _stage = super::StageBusy::enter(
                Some(&stats.flush_active),
                &stats.flush_busy_ns,
                &*runtime,
                self.timed,
            );
            self.flush_pass(cx, &mut sent)
        };
        if progress {
            // Freed queue space: stir the reactor so a backpressured
            // receive task resumes intake.
            self.wake.bump();
        }
        if self.output_dead.load(Ordering::Acquire) {
            self.drain_all();
            if self.inbound_done.load(Ordering::Acquire) {
                return Poll::Ready;
            }
            return Poll::Pending;
        }
        if sent >= TRAIN_BUDGET {
            cx.yield_now();
            return Poll::Pending;
        }
        if self.queued() == 0 {
            if self.inbound_done.load(Ordering::Acquire) {
                return Poll::Ready;
            }
            // Empty and the producer lives: sleep until an accept bumps
            // the node event.
            return Poll::Pending;
        }
        // Non-empty: every head is credit-blocked (its timer is armed).
        // Once the producer is done or a stop is in flight, the tail drain
        // is bounded like the threaded engine's.
        let now = cx.now_ns();
        if self.inbound_done.load(Ordering::Acquire) || self.stopctl.stop_requested() {
            let deadline = *self
                .drain_deadline
                .get_or_insert(now.saturating_add(self.cfg.drain_timeout_ns));
            if now >= deadline {
                self.drain_all();
                return Poll::Ready;
            }
            cx.wake_at(deadline);
        }
        Poll::Pending
    }
}

/// The reactor's half of `spawn_gateway`: wrap one inbound direction in a
/// [`RecvTask`]/[`FlushTask`] pair sharing its net queues and spawn both
/// on the node's shared reactor instead of dedicated threads. Joining the
/// engine waits on `latch`, which both tasks hold a guard of.
pub(super) fn spawn_task_pair(
    reactor: &GatewayReactor,
    inbound: Inbound,
    paths: BTreeMap<NetworkId, OutPath>,
    latch: &Arc<TaskLatch>,
) {
    let shared = inbound.ctx.shared.clone();
    let stopctl = shared.live.stopctl.clone();
    let wake: Arc<dyn RtEvent> = inbound.ctx.in_channel.recv_event().clone();
    let nets = paths
        .keys()
        .map(|&net_out| {
            let queue = NetQueue {
                q: VecDeque::new(),
                pending: VecDeque::new(),
                blocked_since: None,
            };
            (net_out, queue)
        })
        .collect();
    let queues = Arc::new(Mutex::new(Queues { nets }));
    let inbound_done = Arc::new(AtomicBool::new(false));
    let output_dead = Arc::new(AtomicBool::new(false));
    let exit_guard = || ThreadExitGuard {
        live: shared.live.clone(),
    };
    let recv = RecvTask {
        sinks: ReactorSinks {
            nets: paths.keys().copied().collect(),
            queues: queues.clone(),
            wake: wake.clone(),
        },
        stopctl: stopctl.clone(),
        cursor: None,
        drain_deadline: None,
        inbound_done: inbound_done.clone(),
        output_dead: output_dead.clone(),
        _latch: LatchGuard(latch.clone()),
        _exit: exit_guard(),
        inbound,
    };
    let flush = FlushTask {
        cfg: recv.inbound.ctx.cfg,
        timed: shared.timed(),
        batch: Vec::new(),
        stopctl,
        queues,
        paths,
        wake,
        inbound_done,
        output_dead,
        drain_deadline: None,
        _latch: LatchGuard(latch.clone()),
        _exit: exit_guard(),
        shared: shared.clone(),
    };
    reactor.core.spawn(Box::new(recv));
    reactor.core.spawn(Box::new(flush));
}
