//! Periodic evaluators of a gateway node (the health watchdog, the
//! self-tuning controller) and the two ways of driving them: a dedicated
//! runtime thread beside a threaded engine, a timer task on the node's
//! shared worker pool beside a reactor engine — zero extra threads, the
//! reactor core's whole point. The evaluator is the same either way.

use std::sync::Arc;
use std::thread::JoinHandle;

use mad_util::reactor::{Context, Poll, PollTask};

use crate::gateway::{GatewayReactor, GatewayStop};
use crate::runtime::{RtEvent, Runtime};

/// Something evaluated once per interval until the session stops.
pub(crate) trait Ticker: Send + 'static {
    /// Nanoseconds between evaluations.
    fn interval_ns(&self) -> u64;
    /// Evaluate the window ending at `now_ns`.
    fn tick(&mut self, now_ns: u64);
    /// The teardown evaluation: whatever landed since the last tick must
    /// still be seen.
    fn finish(&mut self, now_ns: u64) {
        self.tick(now_ns);
    }
}

/// Start driving `ticker` beside a gateway engine: as a timer task on the
/// node's `reactor` when the engine runs there, on a dedicated thread
/// named `name` (whose handle is returned for the session to join)
/// otherwise.
pub(crate) fn spawn(
    ticker: Box<dyn Ticker>,
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
                ticker,
                stop,
                next: 0,
            }));
            None
        }
        None => {
            let (rt, event) = (runtime.clone(), event.clone());
            Some(runtime.spawn(name, Box::new(move || run_ticker(ticker, rt, event, stop))))
        }
    }
}

/// The thread driver: tick at the interval, woken early by teardown bumps
/// of the node `event`.
fn run_ticker(
    mut ticker: Box<dyn Ticker>,
    runtime: Arc<dyn Runtime>,
    event: Arc<dyn RtEvent>,
    stop: Arc<GatewayStop>,
) {
    let mut next = runtime.now_nanos().saturating_add(ticker.interval_ns());
    loop {
        let seen = event.epoch();
        if stop.stop_requested() {
            ticker.finish(runtime.now_nanos());
            return;
        }
        let now = runtime.now_nanos();
        if now >= next {
            ticker.tick(now);
            next = now.saturating_add(ticker.interval_ns());
        }
        let wait = next.saturating_sub(runtime.now_nanos()).max(1);
        let _ = event.wait_past_timeout(seen, wait);
    }
}

/// The reactor driver: the same loop as a timer task.
struct TickerTask {
    ticker: Box<dyn Ticker>,
    stop: Arc<GatewayStop>,
    /// Next evaluation time; 0 until the first poll reads the clock.
    next: u64,
}

impl PollTask for TickerTask {
    fn poll(&mut self, cx: &mut Context) -> Poll {
        if self.stop.stop_requested() {
            self.ticker.finish(cx.now_ns());
            return Poll::Ready;
        }
        let now = cx.now_ns();
        if self.next == 0 {
            self.next = now.saturating_add(self.ticker.interval_ns());
        }
        if now >= self.next {
            self.ticker.tick(now);
            self.next = now.saturating_add(self.ticker.interval_ns());
        }
        cx.wake_at(self.next);
        Poll::Pending
    }
}
