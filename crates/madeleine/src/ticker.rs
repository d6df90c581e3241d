//! The two ways of driving a gateway node's health watchdog: a dedicated
//! runtime thread beside a threaded engine, a timer task on the node's
//! shared worker pool beside a reactor engine — zero extra threads, the
//! reactor core's whole point. The evaluator is the same either way.

use std::sync::Arc;
use std::thread::JoinHandle;

use mad_util::reactor::{Context, Poll, PollTask};

use crate::gateway::{GatewayReactor, GatewayStop};
use crate::metrics_plane::Watchdog;
use crate::runtime::{RtEvent, Runtime};

/// Nanoseconds between two evaluations of a watchdog.
const TICK_INTERVAL_NS: u64 = 5_000_000;

/// Start driving `watchdog` beside a gateway engine, once per interval until
/// the session stops: as a timer task on the node's `reactor` when the
/// engine runs there, on a dedicated thread named `name` (whose handle is
/// returned for the session to join) otherwise. Teardown gets one last
/// evaluation either way: whatever landed since the last tick must still
/// be seen.
pub(crate) fn spawn(
    watchdog: Watchdog,
    name: String,
    reactor: Option<&GatewayReactor>,
    runtime: &Arc<dyn Runtime>,
    event: &Arc<dyn RtEvent>,
    stop: &Arc<GatewayStop>,
) -> Option<JoinHandle<()>> {
    let stop = stop.clone();
    match reactor {
        Some(r) => {
            r.spawn_task(Box::new(TickerTask {
                watchdog,
                stop,
                next: 0,
            }));
            None
        }
        None => {
            let (rt, event) = (runtime.clone(), event.clone());
            Some(runtime.spawn(
                name,
                Box::new(move || run_ticker(watchdog, rt, event, stop)),
            ))
        }
    }
}

/// The thread driver: tick at the interval, woken early by teardown bumps
/// of the node `event`.
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

/// The reactor driver: the same loop as a timer task.
struct TickerTask {
    watchdog: Watchdog,
    stop: Arc<GatewayStop>,
    /// Next evaluation time; 0 until the first poll reads the clock.
    next: u64,
}

impl PollTask for TickerTask {
    fn poll(&mut self, cx: &mut Context) -> Poll {
        if self.stop.stop_requested() {
            self.watchdog.tick(cx.now_ns());
            return Poll::Ready;
        }
        let now = cx.now_ns();
        if self.next == 0 {
            self.next = now.saturating_add(TICK_INTERVAL_NS);
        }
        if now >= self.next {
            self.watchdog.tick(now);
            self.next = now.saturating_add(TICK_INTERVAL_NS);
        }
        cx.wake_at(self.next);
        Poll::Pending
    }
}
