//! Hosts, network parameter sets, and modeled NIC endpoints.
//!
//! A [`Host`] owns one PCI [`FluidBus`]; an [`Endpoint`] is one side of a
//! point-to-point NIC connection attached to a host. Sending a packet
//! through an endpoint charges, in order: the per-packet host/protocol
//! overhead, the outbound PCI transfer (contending on the host bus in its
//! arbitration class), and the link occupancy (as a delivery timestamp).
//! Receiving charges the wait until delivery, the inbound host overhead, and
//! the inbound PCI transfer.

use std::sync::Arc;

use mad_util::sync::{Mutex, Readiness};
use vtime::{
    mailbox_with_signal, Actor, Clock, MailReceiver, MailSender, Signal, SimDuration, SimTime,
};

use crate::fault::{FaultCell, FaultRegistry, LinkFault};
use crate::fluid::{Arbitration, FluidBus, XferClass, XferDir};
use crate::link::Link;

/// Timing parameters of one network technology. See
/// [`crate::calibration`] for the paper's instances.
#[derive(Debug, Clone, Copy)]
pub struct NetParams {
    /// Human-readable technology name.
    pub name: &'static str,
    /// Cable bandwidth, bytes/second (per direction).
    pub link_bw_bps: f64,
    /// Cable propagation + switching latency.
    pub latency: SimDuration,
    /// Device ceiling for outbound PCI transfers, bytes/second.
    pub dev_out_bps: f64,
    /// Device ceiling for inbound PCI transfers, bytes/second.
    pub dev_in_bps: f64,
    /// Arbitration class of outbound transfers (who masters the bus).
    pub out_class: XferClass,
    /// Arbitration class of inbound transfers.
    pub in_class: XferClass,
    /// Fixed per-packet cost on the sending host (driver, protocol stack).
    pub overhead_send: SimDuration,
    /// Fixed per-packet cost on the receiving host.
    pub overhead_recv: SimDuration,
}

/// A simulated machine: a name and its shared PCI bus.
#[derive(Debug)]
pub struct Host {
    name: String,
    bus: FluidBus,
}

impl Host {
    /// Host name (diagnostics only).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The host's PCI bus, for direct instrumentation.
    pub fn bus(&self) -> &FluidBus {
        &self.bus
    }
}

/// A packet in flight: payload plus the modeled arrival time at the far NIC.
#[derive(Debug)]
pub struct Frame {
    /// The payload bytes (real data — the stack above moves actual bytes).
    pub data: Vec<u8>,
    /// When the far end may start its inbound processing.
    pub deliver_at: SimTime,
}

/// Builder/owner of a simulated network fabric on one virtual clock.
#[derive(Debug, Clone)]
pub struct SimNet {
    clock: Clock,
    faults: Arc<Mutex<FaultRegistry>>,
}

impl SimNet {
    /// Create a fabric on `clock`.
    pub fn new(clock: &Clock) -> Self {
        SimNet {
            clock: clock.clone(),
            faults: Arc::new(Mutex::new(FaultRegistry::default())),
        }
    }

    /// The underlying clock.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// Inject a fault on the `from` → `to` direction of any cable wired
    /// between these hosts. Replaces a previously registered fault on the
    /// same direction. Live: already-wired cables share their fault state
    /// with the registry and see the change immediately.
    pub fn fault_link(&self, from: &Arc<Host>, to: &Arc<Host>, fault: LinkFault) {
        self.faults.lock().fault_link(from.name(), to.name(), fault);
    }

    /// Remove any link-level fault on the `from` → `to` direction (host
    /// deaths are unaffected). Live, like [`SimNet::fault_link`].
    pub fn heal_link(&self, from: &Arc<Host>, to: &Arc<Host>) {
        self.faults.lock().heal_link(from.name(), to.name());
    }

    /// Silently kill `host` at virtual instant `after`: every direction
    /// touching it drops packets sent past that instant without notifying
    /// anyone. Live: wired cables see the death immediately.
    pub fn kill_host(&self, host: &Arc<Host>, after: SimTime) {
        self.faults.lock().kill_host(host.name(), after);
    }

    /// Erase `host`'s death record: every direction touching it delivers
    /// again (unless the link itself carries a `dead_after` fault). The
    /// inverse of [`SimNet::kill_host`]; a later kill re-arms the death.
    pub fn revive_host(&self, host: &Arc<Host>) {
        self.faults.lock().revive_host(host.name());
    }

    /// Create a host with the given PCI arbitration policy.
    pub fn host(&self, name: impl Into<String>, arb: Arbitration) -> Arc<Host> {
        Arc::new(Host {
            name: name.into(),
            bus: FluidBus::new(&self.clock, arb),
        })
    }

    /// Connect two hosts with a full-duplex cable of technology `params`,
    /// returning the endpoint at `a` and the endpoint at `b`.
    ///
    /// Each endpoint's receive queue bumps a dedicated signal; use
    /// [`SimNet::wire_with_signals`] to share a signal across several
    /// endpoints of one host (multiplexed polling).
    pub fn wire(&self, a: &Arc<Host>, b: &Arc<Host>, params: NetParams) -> (Endpoint, Endpoint) {
        self.wire_with_signals(a, b, params, self.clock.signal(), self.clock.signal())
    }

    /// Like [`SimNet::wire`], with caller-provided receive signals for the
    /// endpoint at `a` and the endpoint at `b` respectively.
    pub fn wire_with_signals(
        &self,
        a: &Arc<Host>,
        b: &Arc<Host>,
        params: NetParams,
        rx_signal_a: Signal,
        rx_signal_b: Signal,
    ) -> (Endpoint, Endpoint) {
        let ab = Arc::new(Link::new(params.link_bw_bps, params.latency));
        let ba = Arc::new(Link::new(params.link_bw_bps, params.latency));
        let (tx_to_b, rx_at_b) = mailbox_with_signal::<Frame>(rx_signal_b);
        let (tx_to_a, rx_at_a) = mailbox_with_signal::<Frame>(rx_signal_a);
        let (fault_ab, fault_ba) = {
            let mut reg = self.faults.lock();
            (
                reg.effective(a.name(), b.name()),
                reg.effective(b.name(), a.name()),
            )
        };
        let ep_a = Endpoint {
            clock: self.clock.clone(),
            host: a.clone(),
            params,
            out_link: ab,
            tx: tx_to_b,
            rx: rx_at_a,
            fault: fault_ab,
        };
        let ep_b = Endpoint {
            clock: self.clock.clone(),
            host: b.clone(),
            params,
            out_link: ba,
            tx: tx_to_a,
            rx: rx_at_b,
            fault: fault_ba,
        };
        (ep_a, ep_b)
    }
}

/// One side of a modeled NIC-to-NIC connection. Packet-oriented, reliable,
/// in-order — the service level BIP and SISCI offer Madeleine.
#[derive(Debug)]
pub struct Endpoint {
    clock: Clock,
    host: Arc<Host>,
    params: NetParams,
    out_link: Arc<Link>,
    tx: MailSender<Frame>,
    rx: MailReceiver<Frame>,
    /// Fault state of this endpoint's *outbound* direction — shared live
    /// with the registry, so mid-run kills/revives are visible here.
    fault: Arc<FaultCell>,
}

impl Endpoint {
    /// The technology parameters of this endpoint.
    pub fn params(&self) -> &NetParams {
        &self.params
    }

    /// The host this endpoint's NIC is plugged into.
    pub fn host(&self) -> &Arc<Host> {
        &self.host
    }

    /// Send one packet, blocking `actor` for the modeled send-side costs.
    /// Returns `false` if the far endpoint was dropped (session teardown)
    /// — or if an injected fault killed this direction: the send-side
    /// overhead is still charged (the sender cannot tell yet), then the
    /// packet silently vanishes. Use [`Endpoint::peer_dead`] to tell the
    /// two apart.
    #[must_use]
    pub fn send(&self, actor: &Actor, data: Vec<u8>) -> bool {
        actor.sleep(self.params.overhead_send);
        if self.fault.dead_at(actor.now()) {
            return false;
        }
        self.host.bus.transfer(
            actor,
            self.params.out_class,
            XferDir::Out,
            data.len() as u64,
            self.params.dev_out_bps,
        );
        let deliver_at = self
            .fault
            .perturb(self.out_link.schedule(actor.now(), data.len() as u64));
        self.tx.send(Frame { data, deliver_at }).is_ok()
    }

    /// Receive the next packet, blocking `actor` for delivery plus the
    /// modeled receive-side costs. Returns `None` if the peer disconnected.
    pub fn recv(&self, actor: &Actor) -> Option<Vec<u8>> {
        let frame = self.rx.recv(actor).ok()?;
        let now = actor.now();
        if frame.deliver_at > now {
            actor.sleep(frame.deliver_at.since(now));
        }
        actor.sleep(self.params.overhead_recv);
        self.host.bus.transfer(
            actor,
            self.params.in_class,
            XferDir::In,
            frame.data.len() as u64,
            self.params.dev_in_bps,
        );
        Some(frame.data)
    }

    /// True if a frame is queued (it may not have *arrived* yet in modeled
    /// time; `recv` still charges the remaining delivery wait).
    pub fn ready(&self) -> bool {
        self.rx.has_pending()
    }

    /// True if a frame is queued *and* its modeled arrival time has
    /// passed — the NIC holds deliverable data right now. A frame whose
    /// `deliver_at` is still in the future is on the wire from this
    /// host's point of view: [`Endpoint::ready`] sees it (the sender ran
    /// ahead in wall time), but nothing is awaiting service yet.
    pub fn deliverable(&self) -> bool {
        self.rx
            .peek_map(|f| f.deliver_at <= self.clock.now())
            .unwrap_or(false)
    }

    /// True once the peer endpoint is gone and no frame remains queued.
    pub fn closed(&self) -> bool {
        self.rx.is_closed()
    }

    /// The counts behind [`Endpoint::ready`] and [`Endpoint::closed`],
    /// readable without this endpoint.
    pub fn readiness(&self) -> Arc<Readiness> {
        self.rx.readiness()
    }

    /// True once an injected fault has silently killed this endpoint's
    /// outbound direction (at the current virtual instant). Distinguishes
    /// a failed [`Endpoint::send`] caused by peer death from an ordinary
    /// teardown disconnect.
    pub fn peer_dead(&self) -> bool {
        self.fault.dead_at(self.clock.now())
    }

    /// The virtual clock, for drivers needing timestamps.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }
}
