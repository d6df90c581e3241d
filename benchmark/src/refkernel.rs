//! Reference kernels and calibrated time.
//!
//! This sandbox runs 10–30 % slower for minutes at a time, and through
//! those minutes a pure-ALU loop barely moves while a memory copy moves
//! ±10 % and a thread hand-off ±15 %: the disturbance is cache/memory and
//! wake-up cost. So every timed slice of traffic is flanked by a sample of
//! two fixed kernels that do exactly those two things and never call the
//! library, and the slice's duration is divided by how slow the kernels
//! ran. This module imports nothing but `std`.

use std::hint::black_box;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// `ref.copy` at this sandbox's reference speed, ns per MiB (it measures
/// 43–48 k on quiet minutes, 55–61 k on slow ones). Fixed, never re-tuned:
/// both sides of any comparison are divided by the same constant.
pub const COPY_NOMINAL: f64 = 50_000.0;
/// `ref.handoff` at this sandbox's reference speed, ns per round trip
/// (1.8–1.9 k on quiet minutes, 2.3–2.5 k on slow ones).
pub const HANDOFF_NOMINAL: f64 = 2_000.0;

const MIB: usize = 1 << 20;
const COPY_REPS: usize = 100;
const HANDOFF_REPS: u64 = 1000;
const STOP: u64 = u64::MAX;

/// One reference sample (≈ 8 ms of work).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// `ref.copy`: ns per MiB of `copy_from_slice`.
    pub copy_ns_per_mib: f64,
    /// `ref.handoff`: ns per mailbox round trip between two threads.
    pub handoff_ns: f64,
}

/// Which kernel a workload's time is divided by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Control {
    /// The workload moves bytes.
    Copy,
    /// The workload wakes threads.
    Handoff,
    /// It does both: the geometric mean of the two.
    Both,
}

impl Control {
    /// Name as printed.
    pub fn name(self) -> &'static str {
        match self {
            Control::Copy => "copy",
            Control::Handoff => "handoff",
            Control::Both => "both",
        }
    }

    /// How many times slower than nominal the machine ran during `s`.
    pub fn slowness(self, s: &Sample) -> f64 {
        let c = s.copy_ns_per_mib / COPY_NOMINAL;
        let h = s.handoff_ns / HANDOFF_NOMINAL;
        match self {
            Control::Copy => c,
            Control::Handoff => h,
            Control::Both => (c * h).sqrt(),
        }
    }

    /// Slowness of a slice: the mean of its two flanking samples.
    pub fn between(self, before: &Sample, after: &Sample) -> f64 {
        (self.slowness(before) + self.slowness(after)) / 2.0
    }
}

/// One direction of the hand-off: a value and the condition variable that
/// announces it — the primitive the library's own wake-ups are built on.
#[derive(Default)]
struct Mailbox {
    value: Mutex<u64>,
    changed: Condvar,
}

impl Mailbox {
    fn post(&self, v: u64) {
        *self.value.lock().expect("mailbox poisoned") = v;
        self.changed.notify_one();
    }

    /// Block until the value differs from `seen`; returns it.
    fn wait_change(&self, seen: u64) -> u64 {
        let mut g = self.value.lock().expect("mailbox poisoned");
        while *g == seen {
            g = self.changed.wait(g).expect("mailbox poisoned");
        }
        *g
    }
}

/// The two kernels plus the helper thread the hand-off bounces off.
pub struct RefKernel {
    bufs: Mutex<(Vec<u8>, Vec<u8>, u64)>,
    ping: Arc<Mailbox>,
    pong: Arc<Mailbox>,
    helper: Mutex<Option<JoinHandle<()>>>,
}

impl RefKernel {
    /// Allocate the buffers and start the helper thread (call after the
    /// process has pinned itself, so the helper inherits the CPU).
    pub fn start() -> Arc<Self> {
        let ping = Arc::new(Mailbox::default());
        let pong = Arc::new(Mailbox::default());
        let (hp, hq) = (ping.clone(), pong.clone());
        let helper = std::thread::Builder::new()
            .name("ref-helper".into())
            .spawn(move || {
                let mut seen = 0;
                loop {
                    seen = hp.wait_change(seen);
                    if seen == STOP {
                        return;
                    }
                    hq.post(seen);
                }
            })
            .expect("spawning the reference helper thread");
        let src: Vec<u8> = (0..MIB).map(|i| (i * 31 + 7) as u8).collect();
        Arc::new(RefKernel {
            bufs: Mutex::new((src, vec![0u8; MIB], 0)),
            ping,
            pong,
            helper: Mutex::new(Some(helper)),
        })
    }

    /// Run both kernels once. The caller guarantees no load thread is
    /// runnable meanwhile; concurrent callers serialise.
    pub fn sample(&self) -> Sample {
        let mut g = self.bufs.lock().expect("reference buffers poisoned");
        let (src, dst, seq) = &mut *g;
        let t = Instant::now();
        for _ in 0..COPY_REPS {
            black_box(&mut *dst).copy_from_slice(black_box(&*src));
        }
        let copy_ns = t.elapsed().as_nanos() as f64;
        let t = Instant::now();
        for _ in 0..HANDOFF_REPS {
            *seq += 1;
            self.ping.post(*seq);
            self.pong.wait_change(*seq - 1);
        }
        let handoff_ns = t.elapsed().as_nanos() as f64;
        Sample {
            copy_ns_per_mib: copy_ns / COPY_REPS as f64,
            handoff_ns: handoff_ns / HANDOFF_REPS as f64,
        }
    }

    /// Stop and join the helper thread.
    pub fn stop(&self) {
        if let Some(h) = self.helper.lock().expect("helper handle poisoned").take() {
            self.ping.post(STOP);
            h.join().expect("reference helper thread panicked");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(c: f64, h: f64) -> Sample {
        Sample {
            copy_ns_per_mib: c * COPY_NOMINAL,
            handoff_ns: h * HANDOFF_NOMINAL,
        }
    }

    #[test]
    fn slowness_follows_the_control() {
        let s = sample(1.21, 4.0);
        assert!((Control::Copy.slowness(&s) - 1.21).abs() < 1e-12);
        assert!((Control::Handoff.slowness(&s) - 4.0).abs() < 1e-12);
        assert!((Control::Both.slowness(&s) - 2.2).abs() < 1e-12);
    }

    #[test]
    fn slice_slowness_is_the_mean_of_its_flanks() {
        let (a, b) = (sample(1.0, 2.0), sample(1.5, 1.0));
        assert!((Control::Copy.between(&a, &b) - 1.25).abs() < 1e-12);
        assert!((Control::Handoff.between(&a, &b) - 1.5).abs() < 1e-12);
        let both = (2f64.sqrt() + 1.5f64.sqrt()) / 2.0;
        assert!((Control::Both.between(&a, &b) - both).abs() < 1e-12);
    }

    #[test]
    fn kernels_run_and_stop() {
        let k = RefKernel::start();
        let s = k.sample();
        assert!(s.copy_ns_per_mib > 0.0 && s.handoff_ns > 0.0);
        k.stop();
        k.stop(); // idempotent
    }
}
