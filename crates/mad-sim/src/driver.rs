//! Simulated Transmission Modules over `simnet` endpoints.

use std::sync::Arc;

use mad_util::sync::Readiness;
use madeleine::conduit::{BufferMode, Conduit, Driver, DriverCaps, StaticBuf};
use madeleine::error::{MadError, Result};
use madeleine::runtime::{RtEvent, Runtime};
use madeleine::types::NodeId;
use simnet::{calibration, Endpoint, Host, NetParams, SimNet, TraceKind};

use crate::runtime::{SimEvent, SimRuntime};

/// The network technologies of the paper's testbed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimTech {
    /// Myrinet LANai-4 with BIP: dynamic buffers, DMA both ways.
    Myrinet,
    /// Dolphin SCI with SISCI: static buffers (the mapped segment), PIO
    /// sends through the write-combining buffer.
    Sci,
    /// 100 Mb/s Fast Ethernet with TCP: static buffers (socket copies).
    FastEthernet,
    /// SBP-style kernel protocol (paper §2.3's static-buffer example):
    /// staging buffers on both sides, gigabit-class rates.
    Sbp,
}

impl SimTech {
    /// The calibrated timing parameters of this technology.
    pub fn params(self) -> NetParams {
        match self {
            SimTech::Myrinet => calibration::myrinet_bip(),
            SimTech::Sci => calibration::sci_sisci(),
            SimTech::FastEthernet => calibration::fast_ethernet_tcp(),
            SimTech::Sbp => calibration::sbp_kernel(),
        }
    }

    /// Whether ordinary sends pass through a host staging buffer that
    /// costs a memcpy. SISCI PIO writes move user data to the segment in a
    /// single pass (the PIO *is* the copy, and it is already charged as the
    /// bus transfer), and BIP DMAs straight from user memory; TCP sends
    /// copy into socket buffers.
    pub fn send_staging_copy(self) -> bool {
        matches!(self, SimTech::FastEthernet | SimTech::Sbp)
    }

    /// The Madeleine-facing capabilities of this technology's driver.
    pub fn caps(self) -> DriverCaps {
        match self {
            SimTech::Myrinet => DriverCaps {
                name: "sim-myrinet/bip",
                mode: BufferMode::Dynamic,
                max_gather: 32,
                max_packet: 512 * 1024,
                preferred_mtu: calibration::CROSSOVER_PACKET,
                queued_send: false,
            },
            SimTech::Sci => DriverCaps {
                name: "sim-sci/sisci",
                mode: BufferMode::Static,
                max_gather: usize::MAX,
                max_packet: 512 * 1024,
                preferred_mtu: calibration::CROSSOVER_PACKET,
                queued_send: false,
            },
            SimTech::FastEthernet => DriverCaps {
                name: "sim-tcp/fast-ethernet",
                mode: BufferMode::Static,
                max_gather: usize::MAX,
                max_packet: 512 * 1024,
                preferred_mtu: 32 * 1024,
                queued_send: false,
            },
            SimTech::Sbp => DriverCaps {
                name: "sim-sbp",
                mode: BufferMode::Static,
                max_gather: usize::MAX,
                max_packet: 512 * 1024,
                preferred_mtu: 32 * 1024,
                queued_send: false,
            },
        }
    }
}

/// A simulated Protocol Management Module: creates conduits whose timing
/// runs on the `simnet` hardware model.
pub struct SimDriver {
    tech: SimTech,
    params: NetParams,
    net: SimNet,
    hosts: Vec<Arc<Host>>,
    runtime: Arc<SimRuntime>,
}

impl SimDriver {
    /// A driver for `tech` whose conduits connect the given hosts
    /// (`hosts[rank]` is the machine of session rank `rank`).
    pub fn new(
        tech: SimTech,
        net: SimNet,
        hosts: Vec<Arc<Host>>,
        runtime: Arc<SimRuntime>,
    ) -> Arc<Self> {
        Self::with_params(tech, tech.params(), net, hosts, runtime)
    }

    /// Like [`SimDriver::new`] with overridden timing parameters — used by
    /// the ablation benchmarks (e.g. throttling the gateway's inbound rate
    /// for the paper's future-work flow-control probe).
    pub fn with_params(
        tech: SimTech,
        params: NetParams,
        net: SimNet,
        hosts: Vec<Arc<Host>>,
        runtime: Arc<SimRuntime>,
    ) -> Arc<Self> {
        Arc::new(SimDriver {
            tech,
            params,
            net,
            hosts,
            runtime,
        })
    }

    fn signal_of(&self, ev: &Arc<dyn RtEvent>) -> vtime::Signal {
        ev.as_any()
            .downcast_ref::<SimEvent>()
            .expect("simulated drivers require the SimRuntime (got a foreign event type)")
            .signal()
            .clone()
    }
}

impl Driver for SimDriver {
    fn caps(&self) -> DriverCaps {
        self.tech.caps()
    }

    fn connect(
        &self,
        a: NodeId,
        b: NodeId,
        ev_a: Arc<dyn RtEvent>,
        ev_b: Arc<dyn RtEvent>,
    ) -> (Box<dyn Conduit>, Box<dyn Conduit>) {
        let host_a = self
            .hosts
            .get(a.index())
            .unwrap_or_else(|| panic!("no simulated host for rank {a}"));
        let host_b = self
            .hosts
            .get(b.index())
            .unwrap_or_else(|| panic!("no simulated host for rank {b}"));
        let (ep_a, ep_b) = self.net.wire_with_signals(
            host_a,
            host_b,
            self.params,
            self.signal_of(&ev_a),
            self.signal_of(&ev_b),
        );
        let caps = self.tech.caps();
        (
            Box::new(SimConduit {
                caps,
                tech: self.tech,
                ep: ep_a,
                ev: ev_a,
                peer: b,
                runtime: self.runtime.clone(),
            }),
            Box::new(SimConduit {
                caps,
                tech: self.tech,
                ep: ep_b,
                ev: ev_b,
                peer: a,
                runtime: self.runtime.clone(),
            }),
        )
    }
}

struct SimConduit {
    caps: DriverCaps,
    tech: SimTech,
    ep: Endpoint,
    ev: Arc<dyn RtEvent>,
    peer: NodeId,
    runtime: Arc<SimRuntime>,
}

impl SimConduit {
    fn wire_send(&self, data: Vec<u8>) -> Result<()> {
        let start = self.runtime.clock().now();
        let ok = vtime::with_current(|actor| self.ep.send(actor, data));
        self.runtime
            .record_span(TraceKind::Send, start, self.runtime.clock().now());
        if ok {
            Ok(())
        } else if self.ep.peer_dead() {
            // An injected fault killed this direction: surface it as the
            // typed degradation error rather than an ordinary teardown.
            Err(MadError::PeerUnreachable(self.peer))
        } else {
            Err(MadError::Disconnected)
        }
    }

    fn wire_recv(&self) -> Result<Vec<u8>> {
        let start = self.runtime.clock().now();
        let got = vtime::with_current(|actor| self.ep.recv(actor));
        self.runtime
            .record_span(TraceKind::Recv, start, self.runtime.clock().now());
        got.ok_or(MadError::Disconnected)
    }
}

impl Conduit for SimConduit {
    fn caps(&self) -> DriverCaps {
        self.caps
    }

    fn send(&mut self, parts: &[&[u8]]) -> Result<()> {
        let total: usize = parts.iter().map(|p| p.len()).sum();
        assert!(
            total <= self.caps.max_packet,
            "packet of {total} bytes exceeds {} limit of {}",
            self.caps.name,
            self.caps.max_packet
        );
        assert!(
            parts.len() <= self.caps.max_gather,
            "{} gather limit exceeded",
            self.caps.name
        );
        if self.tech.send_staging_copy() {
            // Ordinary sends on this network stage the data into a driver
            // buffer first; that copy costs host time.
            self.runtime.charge_copy(total);
        }
        // Stage into a recycled buffer: the receiver adopts the landed
        // Vec back into the same session pool, closing the cycle.
        let mut packet = self.runtime.pool().get(total).detach();
        for p in parts {
            packet.extend_from_slice(p);
        }
        self.wire_send(packet)
    }

    fn send_static(&mut self, buf: StaticBuf) -> Result<()> {
        if self.caps.mode == BufferMode::Static {
            // The buffer *is* the driver's staging area: no copy to charge.
            buf.check_owner(self.caps.name)?;
            self.wire_send(buf.into_vec())
        } else {
            // A dynamic driver sends from anywhere, foreign buffers
            // included.
            self.wire_send(buf.into_vec())
        }
    }

    fn alloc_static(&mut self, len: usize) -> Option<StaticBuf> {
        match self.caps.mode {
            BufferMode::Static => Some(StaticBuf::from_pooled(
                self.caps.name,
                self.runtime.pool().take(len),
            )),
            BufferMode::Dynamic => None,
        }
    }

    fn recv_into(&mut self, dst: &mut [u8]) -> Result<usize> {
        let packet = self.wire_recv()?;
        if packet.len() > dst.len() {
            return Err(MadError::BufferTooSmall {
                have: dst.len(),
                need: packet.len(),
            });
        }
        dst[..packet.len()].copy_from_slice(&packet);
        if self.caps.mode == BufferMode::Static {
            // Data landed in the driver's segment; moving it to the
            // caller's memory is a real copy.
            self.runtime.charge_copy(packet.len());
        }
        let n = packet.len();
        // The wire buffer is spent: recycle it instead of freeing, so the
        // sender's next staging `get` is a pool hit.
        drop(self.runtime.pool().adopt(packet));
        Ok(n)
    }

    fn recv_owned(&mut self) -> Result<Vec<u8>> {
        // Surrendering the landed buffer is copy-free for both disciplines.
        self.wire_recv()
    }

    fn ready(&self) -> bool {
        self.ep.ready()
    }

    fn backlog(&self) -> bool {
        // A frame whose modeled arrival is still in the future is on the
        // wire, not awaiting service at this NIC.
        self.ep.deliverable()
    }

    fn closed(&self) -> bool {
        self.ep.closed()
    }

    fn readiness(&self) -> Option<Arc<Readiness>> {
        Some(self.ep.readiness())
    }

    fn recv_event(&self) -> Arc<dyn RtEvent> {
        self.ev.clone()
    }
}
