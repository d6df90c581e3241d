//! Fluid-flow shared-bandwidth resource with priority arbitration.
//!
//! Concurrent transfers share the bus as continuous flows: whenever the set
//! of active transfers changes, per-transfer rates are recomputed by
//! water-filling and every waiting transfer re-estimates its completion time
//! (a cancellable virtual-time sleep on a shared [`Signal`]). Between
//! membership changes progress is linear, so accounting is exact.
//!
//! The arbitration policy reproduces the two PCI phenomena the paper
//! measured on its gateway node:
//!
//! 1. **DMA priority over PIO** (§3.4.1): bus-master transactions initiated
//!    by a NIC (Myrinet receive DMA) outrank processor-initiated programmed
//!    I/O (SCI sends). While any DMA flow is active, each PIO flow's device
//!    ceiling is multiplied by [`Arbitration::pio_slowdown_under_dma`]
//!    (paper: "slowed down by a factor of two").
//! 2. **Full-duplex derating** (§3.3.1): with simultaneous inbound and
//!    outbound flows the usable capacity drops to
//!    [`Arbitration::duplex_efficiency`] × raw (paper: ~60 of 66 MB/s
//!    achieved, "conflicts appearing on the PCI bus when doing intensive
//!    full-duplex communications").

use mad_util::sync::Mutex;
use vtime::{Actor, Clock, Signal, SimTime};

/// Who initiates the bus transaction; decides arbitration priority.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum XferClass {
    /// Bus-master DMA initiated by a device (e.g. Myrinet LANai engines).
    Dma,
    /// Programmed I/O issued by the CPU (e.g. SISCI writes into the mapped
    /// SCI segment, through the write-combining buffer).
    Pio,
}

/// Direction of the flow relative to host memory, for duplex accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum XferDir {
    /// Device → memory (a receive).
    In,
    /// Memory → device (a send).
    Out,
}

/// Arbitration policy of a [`FluidBus`].
#[derive(Debug, Clone, Copy)]
pub struct Arbitration {
    /// Raw capacity in bytes per second (33 MHz × 32 bit = 132 MB/s).
    pub capacity_bps: f64,
    /// Fraction of capacity usable when flows run in both directions.
    pub duplex_efficiency: f64,
    /// Multiplier applied to each PIO flow's ceiling while any DMA flow is
    /// active.
    pub pio_slowdown_under_dma: f64,
}

impl Arbitration {
    /// An unconstrained bus (infinite capacity, no interference); useful in
    /// unit tests that want to isolate other effects.
    pub fn unconstrained() -> Self {
        Arbitration {
            capacity_bps: f64::MAX / 4.0,
            duplex_efficiency: 1.0,
            pio_slowdown_under_dma: 1.0,
        }
    }
}

#[derive(Debug)]
struct Xfer {
    class: XferClass,
    dir: XferDir,
    remaining: f64,
    /// Device-imposed ceiling, bytes/s.
    max_rate: f64,
    /// Currently assigned rate, bytes/s.
    rate: f64,
}

#[derive(Debug, Default)]
struct BusState {
    xfers: Vec<Option<Xfer>>,
    last_update_ns: u64,
}

impl BusState {
    /// Apply linear progress from `last_update_ns` to `now_ns` using the
    /// rates assigned at the last membership change.
    fn advance_to(&mut self, now_ns: u64) {
        let dt = now_ns.saturating_sub(self.last_update_ns) as f64 / 1e9;
        if dt > 0.0 {
            for x in self.xfers.iter_mut().flatten() {
                x.remaining = (x.remaining - x.rate * dt).max(0.0);
            }
        }
        self.last_update_ns = now_ns;
    }

    /// Recompute every flow's rate by class-prioritized water-filling.
    fn recompute(&mut self, arb: &Arbitration) {
        let has_in = self
            .xfers
            .iter()
            .flatten()
            .any(|x| x.dir == XferDir::In && x.remaining > 0.0);
        let has_out = self
            .xfers
            .iter()
            .flatten()
            .any(|x| x.dir == XferDir::Out && x.remaining > 0.0);
        let cap = arb.capacity_bps
            * if has_in && has_out {
                arb.duplex_efficiency
            } else {
                1.0
            };
        let any_dma = self
            .xfers
            .iter()
            .flatten()
            .any(|x| x.class == XferClass::Dma && x.remaining > 0.0);

        let ids = |state: &BusState, class: XferClass| -> Vec<usize> {
            state
                .xfers
                .iter()
                .enumerate()
                .filter_map(|(i, x)| match x {
                    Some(x) if x.class == class && x.remaining > 0.0 => Some(i),
                    _ => None,
                })
                .collect()
        };
        let dma_ids = ids(self, XferClass::Dma);
        let pio_ids = ids(self, XferClass::Pio);

        // DMA flows fill first at their device ceilings.
        let used = self.water_fill(&dma_ids, cap, 1.0);
        // PIO flows get the leftovers, with their ceilings throttled while
        // any DMA is active.
        let pio_factor = if any_dma {
            arb.pio_slowdown_under_dma
        } else {
            1.0
        };
        self.water_fill(&pio_ids, (cap - used).max(0.0), pio_factor);
    }

    /// Assign rates to `ids` sharing `budget`, honoring per-flow ceilings
    /// scaled by `ceiling_factor`. Returns the bandwidth actually consumed.
    fn water_fill(&mut self, ids: &[usize], budget: f64, ceiling_factor: f64) -> f64 {
        let mut order: Vec<usize> = ids.to_vec();
        order.sort_by(|&a, &b| {
            let ca = self.xfers[a].as_ref().unwrap().max_rate;
            let cb = self.xfers[b].as_ref().unwrap().max_rate;
            ca.partial_cmp(&cb).unwrap()
        });
        let mut left = budget;
        let mut n = order.len();
        let mut used = 0.0;
        for id in order {
            let x = self.xfers[id].as_mut().unwrap();
            let share = if n > 0 { left / n as f64 } else { 0.0 };
            let r = (x.max_rate * ceiling_factor).min(share).max(0.0);
            x.rate = r;
            left -= r;
            used += r;
            n -= 1;
        }
        used
    }
}

/// A shared-bandwidth bus in virtual time. One instance per simulated host
/// models that host's PCI bus; every NIC on the host routes its transfers
/// through it.
pub struct FluidBus {
    clock: Clock,
    signal: Signal,
    state: Mutex<BusState>,
    arb: Arbitration,
}

impl std::fmt::Debug for FluidBus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FluidBus").field("arb", &self.arb).finish()
    }
}

impl FluidBus {
    /// Create a bus on `clock` with the given arbitration policy.
    pub fn new(clock: &Clock, arb: Arbitration) -> Self {
        FluidBus {
            clock: clock.clone(),
            signal: clock.signal(),
            state: Mutex::new(BusState::default()),
            arb,
        }
    }

    /// The policy this bus arbitrates with.
    pub fn arbitration(&self) -> Arbitration {
        self.arb
    }

    /// Move `bytes` across the bus as a `class`/`dir` flow capped at
    /// `max_rate_bps`, blocking `actor` in virtual time until the flow
    /// completes under contention.
    pub fn transfer(
        &self,
        actor: &Actor,
        class: XferClass,
        dir: XferDir,
        bytes: u64,
        max_rate_bps: f64,
    ) {
        if bytes == 0 {
            return;
        }
        assert!(
            max_rate_bps > 0.0,
            "a transfer needs a positive device ceiling"
        );
        let id = {
            let mut st = self.state.lock();
            st.advance_to(self.clock.now().as_nanos());
            let xfer = Xfer {
                class,
                dir,
                remaining: bytes as f64,
                max_rate: max_rate_bps,
                rate: 0.0,
            };
            let id = match st.xfers.iter().position(Option::is_none) {
                Some(i) => {
                    st.xfers[i] = Some(xfer);
                    i
                }
                None => {
                    st.xfers.push(Some(xfer));
                    st.xfers.len() - 1
                }
            };
            st.recompute(&self.arb);
            id
        };
        // Membership changed: wake the other flows so they re-estimate.
        self.signal.bump();

        loop {
            let (eta, seen) = {
                let mut st = self.state.lock();
                let now_ns = self.clock.now().as_nanos();
                st.advance_to(now_ns);
                let x = st.xfers[id].as_ref().unwrap();
                // Completion threshold of half a byte absorbs float error.
                if x.remaining < 0.5 {
                    st.xfers[id] = None;
                    st.recompute(&self.arb);
                    drop(st);
                    self.signal.bump();
                    return;
                }
                let rate = x.rate;
                // Below one byte per second the ETA is astronomically far
                // out (and could overflow); treat the flow as starved and
                // wait for a membership change instead.
                let eta = if rate >= 1.0 {
                    let ns = (x.remaining / rate * 1e9).ceil() as u64;
                    Some(SimTime(now_ns.saturating_add(ns.max(1))))
                } else {
                    None // starved: wait for a membership change
                };
                (eta, self.signal.epoch())
            };
            match eta {
                Some(deadline) => {
                    let _ = actor.wait_signal_until(&self.signal, seen, deadline);
                }
                None => {
                    let _ = actor.wait_signal(&self.signal, seen);
                }
            }
        }
    }
}
