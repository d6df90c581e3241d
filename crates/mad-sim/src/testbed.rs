//! The paper's evaluation platform as a reusable builder.
//!
//! §3 of the paper: two clusters of dual Pentium-II 450 nodes (33 MHz
//! 32-bit PCI), one on Myrinet/BIP, one on Dolphin SCI/SISCI, joined by a
//! gateway node carrying both NICs. [`Testbed`] builds the hosts and
//! drivers; callers compose them into a [`madeleine::SessionBuilder`].

use std::sync::Arc;

use simnet::{calibration, Arbitration, Host, LinkFault, SimNet};
use vtime::{Clock, SimTime};

use crate::driver::{SimDriver, SimTech};
use crate::runtime::SimRuntime;

/// A set of simulated machines on one virtual clock, ready to be wired
/// into Madeleine networks.
pub struct Testbed {
    clock: Clock,
    net: SimNet,
    runtime: Arc<SimRuntime>,
    hosts: Vec<Arc<Host>>,
}

impl Testbed {
    /// `n_nodes` hosts with the paper's PCI bus.
    pub fn new(n_nodes: usize) -> Self {
        Testbed::with_arbitration(n_nodes, calibration::pci_2001())
    }

    /// `n_nodes` hosts with a custom bus arbitration (ablations).
    fn with_arbitration(n_nodes: usize, arb: Arbitration) -> Self {
        let clock = Clock::new();
        let runtime = SimRuntime::new(&clock);
        Testbed::assemble(n_nodes, arb, clock, runtime)
    }

    /// `n_nodes` hosts with the paper's PCI bus and a span-recording
    /// runtime (for the pipeline-timeline figures).
    pub fn with_trace(n_nodes: usize, trace: simnet::TraceLog) -> Self {
        let clock = Clock::new();
        let runtime = SimRuntime::with_trace(&clock, trace);
        Testbed::assemble(n_nodes, calibration::pci_2001(), clock, runtime)
    }

    fn assemble(
        n_nodes: usize,
        arb: Arbitration,
        clock: Clock,
        runtime: std::sync::Arc<SimRuntime>,
    ) -> Self {
        let net = SimNet::new(&clock);
        let hosts = (0..n_nodes)
            .map(|i| net.host(format!("host{i}"), arb))
            .collect();
        Testbed {
            clock,
            net,
            runtime,
            hosts,
        }
    }

    /// The virtual clock driving this testbed.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// The simulated runtime (hand to `SessionBuilder::with_runtime`).
    pub fn runtime(&self) -> Arc<SimRuntime> {
        self.runtime.clone()
    }

    /// The host of a given session rank.
    pub fn host(&self, rank: usize) -> &Arc<Host> {
        &self.hosts[rank]
    }

    /// All hosts, indexed by rank.
    pub fn hosts(&self) -> &[Arc<Host>] {
        &self.hosts
    }

    /// The simulated fabric (for building custom drivers).
    pub fn net(&self) -> &SimNet {
        &self.net
    }

    /// Inject `fault` on both directions of the link between ranks `a`
    /// and `b`. Live: wired cables share their fault state with the
    /// fabric, so this works before *and* during a session run.
    pub fn fault_link(&self, a: usize, b: usize, fault: LinkFault) {
        self.net.fault_link(&self.hosts[a], &self.hosts[b], fault);
        self.net.fault_link(&self.hosts[b], &self.hosts[a], fault);
    }

    /// Remove any link-level fault between ranks `a` and `b`, both
    /// directions (host deaths from [`Testbed::kill_host`] are
    /// unaffected). Live, like [`Testbed::fault_link`].
    pub fn heal_link(&self, a: usize, b: usize) {
        self.net.heal_link(&self.hosts[a], &self.hosts[b]);
        self.net.heal_link(&self.hosts[b], &self.hosts[a]);
    }

    /// Silently kill the host of rank `rank` at virtual nanosecond
    /// `after_nanos`: from then on every packet it sends or should
    /// receive vanishes without notification — only deadlines (credit or
    /// drain timeouts) can detect the loss. Live: takes effect on a
    /// running session too, so churn soaks can kill hosts mid-run.
    pub fn kill_host(&self, rank: usize, after_nanos: u64) {
        self.net.kill_host(&self.hosts[rank], SimTime(after_nanos));
    }

    /// Erase rank `rank`'s death record: its links deliver again (unless
    /// a link-level `dead_after` fault remains). The inverse of
    /// [`Testbed::kill_host`]; pairs with a membership-plane rejoin to
    /// bring the node back into a running session.
    pub fn revive_host(&self, rank: usize) {
        self.net.revive_host(&self.hosts[rank]);
    }

    /// A driver of the given technology for this testbed's hosts.
    pub fn driver(&self, tech: SimTech) -> Arc<SimDriver> {
        SimDriver::new(
            tech,
            self.net.clone(),
            self.hosts.clone(),
            self.runtime.clone(),
        )
    }
}
