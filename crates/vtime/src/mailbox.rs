//! Typed virtual-time mailboxes.
//!
//! A mailbox is the vtime analogue of an mpsc channel: `send` never blocks
//! (the simulated hardware models its own backpressure through explicit
//! timing, so unbounded queues are correct here), while `recv` parks the
//! receiving [`Actor`] in virtual time until a message or disconnection
//! arrives.

use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

use mad_util::sync::{Mutex, Readiness};

use crate::clock::{Actor, Clock, Signal, SimTime, WaitOutcome};

/// Error returned by [`MailSender::send`] when every receiver is gone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SendError<T>(pub T);

impl<T> fmt::Display for SendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "mailbox send on a channel with no receiver")
    }
}

/// Error returned by the receive operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvError {
    /// All senders dropped and the queue is drained.
    Disconnected,
    /// The deadline passed before a message arrived (timed variant only).
    DeadlineReached,
}

impl fmt::Display for RecvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecvError::Disconnected => write!(f, "mailbox disconnected"),
            RecvError::DeadlineReached => write!(f, "mailbox recv deadline reached"),
        }
    }
}

impl std::error::Error for RecvError {}

struct Shared<T> {
    queue: Mutex<VecDeque<T>>,
    /// The queue's length and the live senders, readable without a lock;
    /// the length is written under `queue`'s.
    readiness: Arc<Readiness>,
    signal: Signal,
    receivers: Mutex<usize>,
}

/// Create a connected sender/receiver pair on `clock`.
pub fn mailbox<T>(clock: &Clock) -> (MailSender<T>, MailReceiver<T>) {
    mailbox_with_signal(clock.signal())
}

/// Create a mailbox whose enqueues bump a caller-provided signal, so several
/// mailboxes can share one wake-up channel (multiplexed polling).
pub fn mailbox_with_signal<T>(signal: Signal) -> (MailSender<T>, MailReceiver<T>) {
    let shared = Arc::new(Shared {
        queue: Mutex::new(VecDeque::new()),
        readiness: Arc::new(Readiness::new(1)),
        signal,
        receivers: Mutex::new(1),
    });
    (
        MailSender {
            shared: shared.clone(),
        },
        MailReceiver { shared },
    )
}

/// Sending half of a mailbox. Clonable; the queue disconnects when the last
/// sender drops.
pub struct MailSender<T> {
    shared: Arc<Shared<T>>,
}

impl<T> Clone for MailSender<T> {
    fn clone(&self) -> Self {
        self.shared.readiness.add_producer();
        MailSender {
            shared: self.shared.clone(),
        }
    }
}

impl<T> Drop for MailSender<T> {
    fn drop(&mut self) {
        if self.shared.readiness.drop_producer() == 0 {
            // Wake receivers so they observe the disconnection.
            self.shared.signal.bump();
        }
    }
}

impl<T> fmt::Debug for MailSender<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MailSender").finish_non_exhaustive()
    }
}

impl<T> MailSender<T> {
    /// Enqueue a message and wake the receiver. Fails when every receiver is
    /// gone, handing the message back.
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        if *self.shared.receivers.lock() == 0 {
            return Err(SendError(value));
        }
        let mut queue = self.shared.queue.lock();
        queue.push_back(value);
        self.shared.readiness.set_queued(queue.len());
        drop(queue);
        self.shared.signal.bump();
        Ok(())
    }
}

/// Receiving half of a mailbox. Clonable (any-cast: each message is consumed
/// by exactly one receiver).
pub struct MailReceiver<T> {
    shared: Arc<Shared<T>>,
}

impl<T> Clone for MailReceiver<T> {
    fn clone(&self) -> Self {
        *self.shared.receivers.lock() += 1;
        MailReceiver {
            shared: self.shared.clone(),
        }
    }
}

impl<T> Drop for MailReceiver<T> {
    fn drop(&mut self) {
        *self.shared.receivers.lock() -= 1;
    }
}

impl<T> fmt::Debug for MailReceiver<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MailReceiver").finish_non_exhaustive()
    }
}

impl<T> MailReceiver<T> {
    /// Pop a message if one is queued; never blocks.
    pub fn try_recv(&self) -> Option<T> {
        let mut queue = self.shared.queue.lock();
        let v = queue.pop_front();
        if v.is_some() {
            self.shared.readiness.set_queued(queue.len());
        }
        v
    }

    /// True if a message is currently queued. Takes no lock.
    pub fn has_pending(&self) -> bool {
        self.shared.readiness.ready()
    }

    /// Inspect the head of the queue without consuming it; `None` when
    /// the queue is empty.
    pub fn peek_map<R>(&self, f: impl FnOnce(&T) -> R) -> Option<R> {
        self.shared.queue.lock().front().map(f)
    }

    /// True once every sender is gone and the queue is drained. Takes no
    /// lock.
    pub fn is_closed(&self) -> bool {
        self.shared.readiness.closed()
    }

    /// The counts behind [`MailReceiver::has_pending`] and
    /// [`MailReceiver::is_closed`], for a reader that holds no receiver
    /// (it does not keep the mailbox open for senders).
    pub fn readiness(&self) -> Arc<Readiness> {
        self.shared.readiness.clone()
    }

    /// Block `actor` in virtual time until a message arrives.
    pub fn recv(&self, actor: &Actor) -> Result<T, RecvError> {
        let mut seen = self.shared.signal.epoch();
        loop {
            if let Some(v) = self.try_recv() {
                return Ok(v);
            }
            if self.is_closed() {
                return Err(RecvError::Disconnected);
            }
            seen = actor.wait_signal(&self.shared.signal, seen);
        }
    }

    /// Block `actor` until a message arrives or `deadline` passes.
    pub fn recv_until(&self, actor: &Actor, deadline: SimTime) -> Result<T, RecvError> {
        let mut seen = self.shared.signal.epoch();
        loop {
            if let Some(v) = self.try_recv() {
                return Ok(v);
            }
            if self.is_closed() {
                return Err(RecvError::Disconnected);
            }
            match actor.wait_signal_until(&self.shared.signal, seen, deadline) {
                WaitOutcome::Signaled(e) => seen = e,
                WaitOutcome::DeadlineReached => return Err(RecvError::DeadlineReached),
            }
        }
    }

    /// The signal bumped on every enqueue; lets callers multiplex several
    /// mailboxes with [`Actor::wait_signal_until`]-style polling loops.
    pub fn signal(&self) -> &Signal {
        &self.shared.signal
    }
}
