//! # mad-shm — in-process shared-memory driver for Madeleine
//!
//! The fastest "network" available: conduits are runtime-backed FIFOs of
//! owned packets, with dynamic buffers and unbounded gather. A FIFO of
//! owned packets must own what it queues: `send` stages its borrowed
//! gather into one recycled buffer — the driver's one copy, which no cost
//! model charges — while `send_owned` and `send_static` queue the very
//! buffer they are handed, so a packet a gateway forwards crosses this
//! driver without being copied. Every send is one push onto an unbounded
//! queue that never waits on the peer, and the driver says so
//! (`queued_send`): a gateway sends a packet bound here on the thread that
//! received it, since there is no slow send for a second thread to
//! overlap. It serves two purposes:
//!
//! * functional testing of the whole Madeleine stack at real speed, and
//! * a *real* transport for the wall-clock `benchmark/` workloads
//!   (pack/unpack throughput, gateway pipeline behaviour on actual
//!   threads).
//!
//! Because all blocking goes through [`madeleine::runtime::Runtime`]
//! events, the same driver also runs deterministically under the simulated
//! runtime (where it behaves as an infinitely fast network — only charged
//! costs take time).

#![warn(missing_docs)]

use std::collections::VecDeque;
use std::sync::Arc;

use mad_util::pool::PooledBuf;
use mad_util::sync::Readiness;
use madeleine::conduit::{BufferMode, Conduit, Driver, DriverCaps, StaticBuf};
use madeleine::error::{MadError, Result};
use madeleine::runtime::{RtEvent, RtQueue, RtReceiver, RtSender, Runtime};
use madeleine::types::NodeId;

/// Driver capabilities of the shared-memory transport.
pub const SHM_CAPS: DriverCaps = DriverCaps {
    name: "shm",
    mode: BufferMode::Dynamic,
    max_gather: usize::MAX,
    max_packet: usize::MAX,
    preferred_mtu: 64 * 1024,
    queued_send: true,
};

/// The shared-memory Protocol Management Module.
pub struct ShmDriver {
    runtime: Arc<dyn Runtime>,
}

impl ShmDriver {
    /// Create a driver whose queues block through `runtime`.
    pub fn new(runtime: Arc<dyn Runtime>) -> Arc<Self> {
        Arc::new(ShmDriver { runtime })
    }
}

impl Driver for ShmDriver {
    fn caps(&self) -> DriverCaps {
        SHM_CAPS
    }

    fn connect(
        &self,
        _a: NodeId,
        _b: NodeId,
        ev_a: Arc<dyn RtEvent>,
        ev_b: Arc<dyn RtEvent>,
    ) -> (Box<dyn Conduit>, Box<dyn Conduit>) {
        let (tx_ab, rx_at_b) = RtQueue::with_event(&*self.runtime, usize::MAX, ev_b.clone());
        let (tx_ba, rx_at_a) = RtQueue::with_event(&*self.runtime, usize::MAX, ev_a.clone());
        (
            Box::new(ShmConduit {
                tx: tx_ab,
                rx: rx_at_a,
                ev: ev_a,
                pool: self.runtime.pool().clone(),
            }),
            Box::new(ShmConduit {
                tx: tx_ba,
                rx: rx_at_b,
                ev: ev_b,
                pool: self.runtime.pool().clone(),
            }),
        )
    }
}

struct ShmConduit {
    tx: RtSender<Vec<u8>>,
    rx: RtReceiver<Vec<u8>>,
    ev: Arc<dyn RtEvent>,
    pool: Arc<mad_util::pool::BufferPool>,
}

impl ShmConduit {
    fn pop_blocking(&self) -> Result<Vec<u8>> {
        loop {
            let seen = self.ev.epoch();
            if let Some(p) = self.rx.try_pop() {
                return Ok(p);
            }
            if self.rx.is_closed() {
                return Err(MadError::Disconnected);
            }
            self.ev.wait_past(seen);
        }
    }

    /// [`ShmConduit::pop_blocking`] for the whole backlog at once.
    fn pop_all_blocking(&self, out: &mut VecDeque<Vec<u8>>) -> Result<()> {
        loop {
            let seen = self.ev.epoch();
            if self.rx.try_pop_all(out) > 0 {
                return Ok(());
            }
            if self.rx.is_closed() {
                return Err(MadError::Disconnected);
            }
            self.ev.wait_past(seen);
        }
    }
}

impl Conduit for ShmConduit {
    fn caps(&self) -> DriverCaps {
        SHM_CAPS
    }

    fn send(&mut self, parts: &[&[u8]]) -> Result<()> {
        let total: usize = parts.iter().map(|p| p.len()).sum();
        // Stage into a recycled buffer; the receiving side adopts the Vec
        // back into the same session pool when it consumes the packet.
        let mut packet = self.pool.get(total).detach();
        for p in parts {
            packet.extend_from_slice(p);
        }
        self.tx.push(packet).map_err(|_| MadError::Disconnected)
    }

    fn send_owned(&mut self, packet: PooledBuf) -> Result<()> {
        // The buffer the sender gives up is the buffer the receiver adopts.
        self.tx
            .push(packet.detach())
            .map_err(|_| MadError::Disconnected)
    }

    fn send_owned_run(&mut self, packets: &mut Vec<PooledBuf>) -> Result<()> {
        // One push for the run: the peer is woken once, for all of it.
        match self.tx.push_all(packets.drain(..).map(PooledBuf::detach)) {
            true => Ok(()),
            false => Err(MadError::Disconnected),
        }
    }

    fn send_static(&mut self, buf: StaticBuf) -> Result<()> {
        // A dynamic driver sends from anywhere; accept the buffer as-is.
        self.tx
            .push(buf.into_vec())
            .map_err(|_| MadError::Disconnected)
    }

    fn alloc_static(&mut self, _len: usize) -> Option<StaticBuf> {
        None // dynamic driver: no staging buffers to offer
    }

    fn recv_into(&mut self, dst: &mut [u8]) -> Result<usize> {
        let packet = self.pop_blocking()?;
        if packet.len() > dst.len() {
            return Err(MadError::BufferTooSmall {
                have: dst.len(),
                need: packet.len(),
            });
        }
        dst[..packet.len()].copy_from_slice(&packet);
        let n = packet.len();
        // The wire buffer is spent: recycle it for the next staging send.
        drop(self.pool.adopt(packet));
        Ok(n)
    }

    fn recv_owned(&mut self) -> Result<Vec<u8>> {
        self.pop_blocking()
    }

    fn recv_queued(&mut self, out: &mut VecDeque<Vec<u8>>) -> Result<()> {
        self.pop_all_blocking(out)
    }

    fn ready(&self) -> bool {
        self.rx.has_pending()
    }

    fn closed(&self) -> bool {
        self.rx.is_closed()
    }

    fn readiness(&self) -> Option<Arc<Readiness>> {
        Some(self.rx.readiness())
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
        let driver = ShmDriver::new(rt.clone());
        let (ev_a, ev_b) = (rt.event(), rt.event());
        driver.connect(NodeId(0), NodeId(1), ev_a, ev_b)
    }

    /// Every send is one push onto the peer's FIFO: a gateway sends on the
    /// thread that received.
    #[test]
    fn every_send_is_a_queue_push() {
        let (a, b) = pair();
        assert!(a.caps().queued_send && b.caps().queued_send);
    }

    #[test]
    fn gather_send_concatenates() {
        let (mut a, mut b) = pair();
        a.send(&[b"he", b"llo", b""]).unwrap();
        let got = b.recv_owned().unwrap();
        assert_eq!(got, b"hello");
    }

    /// The `Vec` a by-value send is given is the `Vec` the peer receives:
    /// same allocation, nothing staged in between.
    #[test]
    fn send_owned_hands_over_the_allocation() {
        let (mut a, mut b) = pair();
        let mut packet = Vec::with_capacity(4096);
        packet.extend_from_slice(b"landed here, sent from here");
        let (ptr, cap) = (packet.as_ptr(), packet.capacity());
        a.send_owned(packet.into()).unwrap();
        let got = b.recv_owned().unwrap();
        assert_eq!(got, b"landed here, sent from here");
        assert_eq!((got.as_ptr(), got.capacity()), (ptr, cap));
    }

    /// A run leaves as one push and arrives as one backlog, in order and
    /// in the allocations it was handed.
    #[test]
    fn a_run_is_one_push_and_one_backlog() {
        let (mut a, mut b) = pair();
        let mut run: Vec<PooledBuf> = [b"one".to_vec(), b"two".to_vec(), b"three".to_vec()]
            .into_iter()
            .map(PooledBuf::from)
            .collect();
        let at: Vec<usize> = run.iter().map(|p| p.as_ptr() as usize).collect();
        let seen = b.recv_event().epoch();
        a.send_owned_run(&mut run).unwrap();
        assert!(run.is_empty());
        assert_eq!(b.recv_event().epoch(), seen + 1, "one bump for the run");
        let mut got = VecDeque::new();
        b.recv_queued(&mut got).unwrap();
        assert_eq!(got, [b"one".to_vec(), b"two".to_vec(), b"three".to_vec()]);
        let got_at: Vec<usize> = got.iter().map(|p| p.as_ptr() as usize).collect();
        assert_eq!(got_at, at, "copied on the way");
        assert!(!b.ready());
        drop(a);
        assert_eq!(b.recv_queued(&mut got), Err(MadError::Disconnected));
    }

    #[test]
    fn recv_into_checks_space() {
        let (mut a, mut b) = pair();
        a.send(&[&[1, 2, 3, 4]]).unwrap();
        let mut small = [0u8; 2];
        assert_eq!(
            b.recv_into(&mut small),
            Err(MadError::BufferTooSmall { have: 2, need: 4 })
        );
    }

    #[test]
    fn bidirectional_and_ordering() {
        let (mut a, mut b) = pair();
        a.send(&[b"x1"]).unwrap();
        a.send(&[b"x2"]).unwrap();
        b.send(&[b"y"]).unwrap();
        assert_eq!(b.recv_owned().unwrap(), b"x1");
        assert_eq!(b.recv_owned().unwrap(), b"x2");
        assert_eq!(a.recv_owned().unwrap(), b"y");
    }

    #[test]
    fn disconnect_propagates() {
        let (a, mut b) = pair();
        drop(a);
        assert_eq!(b.recv_owned(), Err(MadError::Disconnected));
        assert!(b.closed());
    }

    #[test]
    fn ready_flag() {
        let (mut a, b) = pair();
        assert!(!b.ready());
        a.send(&[b"p"]).unwrap();
        assert!(b.ready());
    }
}
