//! The thread that drives a gateway node's health watchdog beside its
//! forwarding engine: one evaluation per interval, one last one at
//! teardown.

use std::sync::Arc;
use std::thread::JoinHandle;

use crate::gateway::GatewayStop;
use crate::metrics_plane::Watchdog;
use crate::runtime::{RtEvent, Runtime};

/// Nanoseconds between two evaluations of a watchdog.
const TICK_INTERVAL_NS: u64 = 5_000_000;

/// Start driving `watchdog` on a dedicated thread named `name`, once per
/// interval until the session stops; the session joins the returned
/// handle. Teardown gets one last evaluation: whatever landed since the
/// last tick must still be seen.
pub(crate) fn spawn(
    watchdog: Watchdog,
    name: String,
    runtime: &Arc<dyn Runtime>,
    event: &Arc<dyn RtEvent>,
    stop: &Arc<GatewayStop>,
) -> JoinHandle<()> {
    let (rt, event, stop) = (runtime.clone(), event.clone(), stop.clone());
    runtime.spawn(
        name,
        Box::new(move || run_ticker(watchdog, rt, event, stop)),
    )
}

/// Tick at the interval, woken early by teardown bumps of the node
/// `event`.
fn run_ticker(
    mut watchdog: Watchdog,
    runtime: Arc<dyn Runtime>,
    event: Arc<dyn RtEvent>,
    stop: Arc<GatewayStop>,
) {
    let mut next = runtime.now_nanos().saturating_add(TICK_INTERVAL_NS);
    loop {
        let seen = event.epoch();
        if stop.stop_requested() {
            watchdog.tick(runtime.now_nanos());
            return;
        }
        let now = runtime.now_nanos();
        if now >= next {
            watchdog.tick(now);
            next = now.saturating_add(TICK_INTERVAL_NS);
        }
        let wait = next.saturating_sub(runtime.now_nanos()).max(1);
        let _ = event.wait_past_timeout(seen, wait);
    }
}
