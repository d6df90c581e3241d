//! Self-tuning control plane: online retuning of the credit window.
//!
//! The static `credit_window` knob in [`crate::gateway::GatewayConfig`]
//! picks one operating point for the whole run. Under churn (nodes
//! joining and leaving, paths dying and reviving) no single point is
//! right: a window sized for the steady state starves when a rejoin
//! floods the fabric. This module closes the loop, on that one leg and no
//! second:
//!
//! * [`Tuning`] is the shared mutable operating point — one per virtual
//!   channel, read lock-free by the hot paths (the gateway self-grant
//!   site, the writer's stream open) on every use, so a retune takes
//!   effect on the next stream without touching anything in flight.
//! * [`Controller`] is the per-gateway-node policy loop. Each tick it
//!   reads its own [`crate::gateway::GatewayWindow`] over the engine's
//!   counters (the watchdog has another, so neither steals the other's
//!   window) and nudges the tuning: credit starvation raises the window,
//!   queue saturation ([`crate::gateway::GatewayDelta::saturated`]) trims
//!   it, sustained calm decays it back toward the configured baseline.
//!   Every step is hysteresis-gated and clamped to a bounded stride
//!   inside `[floor, ceil]`, so the loop cannot oscillate unboundedly even
//!   with several gateway controllers nudging one shared tuning.
//!   Decisions land on a `ctl:{vc}@{rank}` trace track (validated by
//!   `trace_check --require-membership`).
//!
//! Retunes are safe by construction: windows only govern streams opened
//! after the change (grants are issued at stream open), and the
//! controller moves an enabled window, it never turns flow control on or
//! off. What travels together in one wire frame is not a tuning at all —
//! the gateway forwards a frame as it arrived (DESIGN §10.3).

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use mad_trace::Tracer;

use crate::gateway::GatewayWindow;
use crate::ticker::Ticker;

/// The live operating point of one virtual channel, shared between the
/// controllers that write it and the hot paths that read it.
#[derive(Debug)]
pub struct Tuning {
    /// Effective credit window in packets; 0 encodes "flow control off"
    /// (a `None` bootstrap window stays off — the controller never turns
    /// flow control on or off, only resizes an enabled window).
    window: AtomicU32,
    /// The smallest window `window` can ever have read: the controller's
    /// floor, or the bootstrap window where that is lower still (the clamp
    /// applies from the first step on). `None` with flow control off.
    smallest: Option<u32>,
}

impl Tuning {
    /// Seed the tuning from the bootstrap gateway knob; `window_floor` is
    /// the lower clamp of the controllers that will retune it.
    pub fn new(credit_window: Option<u32>, window_floor: u32) -> Arc<Self> {
        Arc::new(Tuning {
            window: AtomicU32::new(credit_window.unwrap_or(0)),
            smallest: credit_window.map(|w| w.min(window_floor)),
        })
    }

    /// The smallest window an account of this channel can have been opened
    /// with, whenever it was opened (`None` = flow control off). A gateway
    /// sizes its grant period from it: the sender of a stream it relays
    /// may have read the window before any retune the gateway has seen.
    pub fn smallest_window(&self) -> Option<u32> {
        self.smallest
    }

    /// The effective credit window (`None` = flow control off).
    pub fn credit_window(&self) -> Option<u32> {
        match self.window.load(Ordering::Relaxed) {
            0 => None,
            w => Some(w),
        }
    }
}

/// Policy knobs of one [`Controller`]
/// ([`crate::session::VcOptions::controller`]).
#[derive(Debug, Clone, Copy)]
pub struct ControllerConfig {
    /// Evaluation interval.
    pub interval_ns: u64,
    /// Window stride per decision, in packets.
    pub window_step: u32,
    /// Lower clamp of the retuned window.
    pub window_floor: u32,
    /// Upper clamp of the retuned window.
    pub window_ceil: u32,
    /// Consecutive ticks a signal must persist before a step is taken.
    pub hysteresis_ticks: u32,
    /// Stall count below which a window never counts as saturated
    /// (mirrors the watchdog's saturation gate).
    pub saturation_min_stalls: u64,
    /// Stall fraction of handoff attempts above which a busy window
    /// counts as saturated.
    pub saturation_stall_ratio: f64,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        ControllerConfig {
            interval_ns: 5_000_000, // 5 ms
            window_step: 4,
            window_floor: 2,
            window_ceil: 256,
            hysteresis_ticks: 2,
            saturation_min_stalls: 8,
            saturation_stall_ratio: 0.5,
        }
    }
}

/// One gateway node's policy loop over one channel's shared [`Tuning`].
/// A [`Ticker`]: the session picks the driver (thread or reactor task)
/// per engine core.
pub(crate) struct Controller {
    cfg: ControllerConfig,
    tuning: Arc<Tuning>,
    /// This controller's own window over the engine's counters.
    window: GatewayWindow,
    tracer: Tracer,
    /// The `ctl:{vc}@{rank}` trace track.
    track: String,
    /// Bootstrap window calm decays back toward.
    base_window: u32,
    starve_streak: u32,
    sat_streak: u32,
    calm_streak: u32,
    adjustments: u64,
}

impl Controller {
    pub(crate) fn new(
        cfg: ControllerConfig,
        tuning: Arc<Tuning>,
        window: GatewayWindow,
        tracer: Tracer,
        track: String,
    ) -> Controller {
        let base_window = tuning.window.load(Ordering::Relaxed);
        Controller {
            cfg,
            tuning,
            window,
            tracer,
            track,
            base_window,
            starve_streak: 0,
            sat_streak: 0,
            calm_streak: 0,
            adjustments: 0,
        }
    }

    fn trace(&self, name: &'static str, value: i64) {
        self.tracer.count_on(&self.track, "ctl", name, value, &[]);
    }

    /// Step the window by `delta` packets, clamped to the configured
    /// band, tracing the new value. No-op when flow control is off or
    /// the clamp absorbs the whole step.
    fn step_window(&mut self, delta: i64) {
        let cur = self.tuning.window.load(Ordering::Relaxed);
        if cur == 0 {
            return;
        }
        let next = (cur as i64 + delta)
            .clamp(self.cfg.window_floor as i64, self.cfg.window_ceil as i64)
            as u32;
        if next != cur {
            self.tuning.window.store(next, Ordering::Relaxed);
            self.adjustments += 1;
            let name = if next > cur {
                "window_raise"
            } else {
                "window_lower"
            };
            self.trace(name, next as i64);
        }
    }
}

impl Ticker for Controller {
    fn interval_ns(&self) -> u64 {
        self.cfg.interval_ns
    }

    /// Evaluate one window ending `now`.
    fn tick(&mut self, now_ns: u64) {
        let d = self.window.advance(now_ns);
        let starved = d.credit_timeouts > 0;
        let saturated = d.saturated(
            self.cfg.saturation_min_stalls,
            self.cfg.saturation_stall_ratio,
        );

        if starved {
            self.starve_streak += 1;
            self.calm_streak = 0;
        } else {
            self.starve_streak = 0;
        }
        if saturated {
            self.sat_streak += 1;
            self.calm_streak = 0;
        } else {
            self.sat_streak = 0;
        }

        if self.starve_streak >= self.cfg.hysteresis_ticks {
            // Credit starvation: writers hit their grant deadline. Widen
            // the window so freshly opened streams get deeper credit.
            self.step_window(self.cfg.window_step as i64);
            self.starve_streak = 0;
            return;
        }
        if self.sat_streak >= self.cfg.hysteresis_ticks {
            // Queue saturation: handoffs keep finding the pipeline full.
            // Trim the window so fewer packets pile into the choked hop.
            self.step_window(-(self.cfg.window_step as i64));
            self.sat_streak = 0;
            return;
        }
        if !starved && !saturated {
            self.calm_streak += 1;
            if self.calm_streak >= self.cfg.hysteresis_ticks.saturating_mul(4) {
                // Sustained calm: the window decays one stride (or what
                // is left of one) back toward its bootstrap value; one that
                // is off or already there does not move.
                let step = self.cfg.window_step as i64;
                let w = self.tuning.window.load(Ordering::Relaxed) as i64;
                self.step_window((self.base_window as i64 - w).clamp(-step, step));
                self.calm_streak = 0;
            }
        }
    }

    /// The teardown tick: evaluate the final window, then summarize the
    /// run (total adjustments and the final operating point) so a
    /// controller-enabled trace always carries `ctl:` events, however
    /// quiet the run.
    fn finish(&mut self, now_ns: u64) {
        self.tick(now_ns);
        self.trace("adjustments", self.adjustments as i64);
        self.trace("window", self.tuning.window.load(Ordering::Relaxed) as i64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gateway::GatewayStats;
    use mad_trace::Tracer;

    fn controller(cfg: ControllerConfig, window: Option<u32>) -> Controller {
        let tuning = Tuning::new(window, cfg.window_floor);
        let stats = Arc::new(GatewayStats::default());
        let window = GatewayWindow::open(stats, 0);
        Controller::new(cfg, tuning, window, Tracer::off(), "ctl:t@0".into())
    }

    /// Hysteresis 1: every signalled tick is a decision.
    fn no_hysteresis() -> ControllerConfig {
        ControllerConfig {
            hysteresis_ticks: 1,
            ..ControllerConfig::default()
        }
    }

    fn starve(c: &Controller) {
        let stats = c.window.stats();
        stats.credit_timeouts.fetch_add(1, Ordering::Relaxed);
    }

    fn saturate(c: &Controller) {
        let stats = c.window.stats();
        stats.stalls.fetch_add(64, Ordering::Relaxed);
        stats.fragments.fetch_add(8, Ordering::Relaxed);
    }

    #[test]
    fn tuning_encodes_disabled_window_as_none() {
        let t = Tuning::new(None, 2);
        assert_eq!(t.credit_window(), None);
        assert_eq!(t.smallest_window(), None);
        let t = Tuning::new(Some(8), 2);
        assert_eq!(t.credit_window(), Some(8));
        assert_eq!(t.smallest_window(), Some(2));
        // A bootstrap window below the floor is the smallest there is.
        assert_eq!(Tuning::new(Some(1), 2).smallest_window(), Some(1));
    }

    #[test]
    fn starvation_raises_window_after_hysteresis() {
        let cfg = ControllerConfig::default();
        let mut c = controller(cfg, Some(8));
        // One starved tick is not enough (hysteresis = 2)…
        starve(&c);
        c.tick(cfg.interval_ns);
        assert_eq!(c.tuning.credit_window(), Some(8));
        // …a second consecutive one steps the window up.
        starve(&c);
        c.tick(2 * cfg.interval_ns);
        assert_eq!(c.tuning.credit_window(), Some(8 + cfg.window_step));
        assert_eq!(c.adjustments, 1);
    }

    #[test]
    fn window_steps_stay_clamped() {
        let cfg = ControllerConfig {
            window_ceil: 10,
            ..no_hysteresis()
        };
        let mut c = controller(cfg, Some(8));
        for i in 1..=5 {
            starve(&c);
            c.tick(i * cfg.interval_ns);
        }
        assert_eq!(c.tuning.credit_window(), Some(10)); // clamped at ceil
    }

    /// Saturation is one decision on the one leg: the window down a stride.
    #[test]
    fn saturation_trims_window() {
        let cfg = no_hysteresis();
        let mut c = controller(cfg, Some(32));
        saturate(&c);
        c.tick(cfg.interval_ns);
        assert_eq!(c.tuning.credit_window(), Some(32 - cfg.window_step));
        assert_eq!(c.adjustments, 1);
    }

    /// A window below the saturation gate on either threshold is calm.
    #[test]
    fn blips_below_the_saturation_gate_move_nothing() {
        let cfg = no_hysteresis();
        let mut c = controller(cfg, Some(32));
        let stats = c.window.stats();
        // Too few stalls, however high their share…
        stats
            .stalls
            .fetch_add(cfg.saturation_min_stalls - 1, Ordering::Relaxed);
        c.tick(cfg.interval_ns);
        // …then enough stalls, but a small share of a busy window.
        let stats = c.window.stats();
        stats
            .stalls
            .fetch_add(cfg.saturation_min_stalls, Ordering::Relaxed);
        stats.fragments.fetch_add(1000, Ordering::Relaxed);
        c.tick(2 * cfg.interval_ns);
        assert_eq!(c.tuning.credit_window(), Some(32));
        assert_eq!(c.adjustments, 0);
    }

    #[test]
    fn calm_decays_the_window_back_to_baseline() {
        let cfg = no_hysteresis();
        let mut c = controller(cfg, Some(8));
        // Two saturated decisions push the window down to the floor.
        saturate(&c);
        c.tick(cfg.interval_ns);
        saturate(&c);
        c.tick(2 * cfg.interval_ns);
        assert_eq!(c.tuning.credit_window(), Some(cfg.window_floor));
        // Then calm: 4×hysteresis quiet ticks per decay step.
        let mut now = 2 * cfg.interval_ns;
        for _ in 0..8 {
            now += cfg.interval_ns;
            c.tick(now);
        }
        assert_eq!(c.tuning.credit_window(), Some(8));
    }

    #[test]
    fn controller_never_enables_disabled_flow_control() {
        let cfg = no_hysteresis();
        let mut c = controller(cfg, None);
        starve(&c);
        c.tick(cfg.interval_ns);
        assert_eq!(c.tuning.credit_window(), None);
    }
}
