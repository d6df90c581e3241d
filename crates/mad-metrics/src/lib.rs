//! # mad-metrics — the live, lock-free metrics registry
//!
//! Where `mad-trace` (PR 3) answers "what happened?" after a run
//! flushes, this crate answers "what is happening *right now*?": a
//! std-only, per-node [`Registry`] of named counters, gauges, and
//! log2-bucketed latency histograms ([`mad_util::hist`]) whose hot-path
//! handles are plain `Arc`'d relaxed atomics — recording a sample is a
//! handful of uncontended atomic adds, never a lock, never an
//! allocation. The registry's name table *is* behind a mutex, but only
//! handle creation (wiring time) and snapshots (sampling time) touch
//! it.
//!
//! A [`Snapshot`] is a plain copy of every instrument, taken while the
//! node runs. Snapshots encode to a compact length-prefixed wire form
//! ([`Snapshot::encode_into`], budget-bounded with a `truncated` flag)
//! so Madeleine's GTM layer can carry them across clusters in a single
//! control packet (the kind-10 in-band pull).
//!
//! The `noop` cargo feature compiles every recording call to nothing
//! (same contract as `mad-trace/noop`): [`COMPILED_IN`] flips to
//! `false`, handle methods become empty inlinable bodies, and the A10
//! overhead bench uses exactly this to bound the compiled-out cost.

#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

use mad_util::hist::AtomicHistogram;
use mad_util::sync::Mutex;

mod snap;

pub use mad_util::hist::{bucket_bounds, bucket_index, HistSnapshot, BUCKETS};
pub use snap::{DecodeError, Snapshot};

/// Whether recording is compiled in (`false` under the `noop` feature).
pub const COMPILED_IN: bool = cfg!(not(feature = "noop"));

/// A monotonically increasing event counter.
#[derive(Debug, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Add `n` events.
    #[inline]
    pub fn add(&self, n: u64) {
        if COMPILED_IN {
            self.0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current count.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A signed instantaneous level with a high-water mark. `add`/`set`
/// keep the peak in step, so a queue-depth gauge reports both the level
/// right now and the deepest it has ever been. The workspace's one gauge
/// type: registry gauges come from [`Registry::gauge`], and a subsystem
/// that keeps its own occupancy level (a gateway's resident bytes) holds
/// a detached one from `Gauge::default()`.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<GaugeCell>);

#[derive(Debug, Default)]
struct GaugeCell {
    value: AtomicI64,
    peak: AtomicI64,
}

impl Gauge {
    /// Move the level by `d` (negative to drop). A drop can never raise
    /// the peak, so only a rise pays for the `fetch_max`.
    #[inline]
    pub fn add(&self, d: i64) {
        if COMPILED_IN {
            let now = self.0.value.fetch_add(d, Ordering::Relaxed).wrapping_add(d);
            if d > 0 {
                self.0.peak.fetch_max(now, Ordering::Relaxed);
            }
        }
    }

    /// Set the level outright (sampled gauges: thread counts, pool
    /// counters mirrored from another subsystem).
    #[inline]
    pub fn set(&self, v: i64) {
        if COMPILED_IN {
            self.0.value.store(v, Ordering::Relaxed);
            self.0.peak.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// Current level.
    pub fn get(&self) -> i64 {
        self.0.value.load(Ordering::Relaxed)
    }

    /// Highest level ever set or reached.
    pub fn peak(&self) -> i64 {
        self.0.peak.load(Ordering::Relaxed)
    }
}

/// A log2-bucketed histogram handle ([`mad_util::hist::AtomicHistogram`]).
#[derive(Debug, Clone)]
pub struct Hist(Arc<AtomicHistogram>);

impl Hist {
    /// Record one sample (typically a nanosecond duration).
    #[inline]
    pub fn record(&self, value: u64) {
        if COMPILED_IN {
            self.0.record(value);
        }
    }

    /// Copy the current buckets out.
    pub fn snapshot(&self) -> HistSnapshot {
        self.0.snapshot()
    }
}

/// One node's named instruments. Handle lookup interns the name behind
/// a short-lived lock; the returned [`Counter`]/[`Gauge`]/[`Hist`] is a
/// plain `Arc` the caller caches at wiring time, so steady-state
/// recording never sees the registry again.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    gauges: Mutex<BTreeMap<String, Arc<GaugeCell>>>,
    hists: Mutex<BTreeMap<String, Arc<AtomicHistogram>>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// The counter named `name`, created on first use.
    pub fn counter(&self, name: &str) -> Counter {
        let mut map = self.counters.lock();
        match map.get(name) {
            Some(c) => Counter(c.clone()),
            None => {
                let c = Arc::new(AtomicU64::new(0));
                map.insert(name.to_string(), c.clone());
                Counter(c)
            }
        }
    }

    /// The gauge named `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut map = self.gauges.lock();
        match map.get(name) {
            Some(g) => Gauge(g.clone()),
            None => {
                let g = Arc::new(GaugeCell::default());
                map.insert(name.to_string(), g.clone());
                Gauge(g)
            }
        }
    }

    /// The histogram named `name`, created on first use.
    pub fn histogram(&self, name: &str) -> Hist {
        let mut map = self.hists.lock();
        match map.get(name) {
            Some(h) => Hist(h.clone()),
            None => {
                let h = Arc::new(AtomicHistogram::new());
                map.insert(name.to_string(), h.clone());
                Hist(h)
            }
        }
    }

    /// Copy every instrument into a plain [`Snapshot`], sorted by name.
    pub fn snapshot(&self) -> Snapshot {
        let counters = self
            .counters
            .lock()
            .iter()
            .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
            .collect();
        let gauges = self
            .gauges
            .lock()
            .iter()
            .map(|(k, v)| {
                (
                    k.clone(),
                    v.value.load(Ordering::Relaxed),
                    v.peak.load(Ordering::Relaxed),
                )
            })
            .collect();
        let hists = self
            .hists
            .lock()
            .iter()
            .map(|(k, v)| (k.clone(), v.snapshot()))
            .collect();
        Snapshot {
            counters,
            gauges,
            hists,
            truncated: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mad_util::prop;

    #[test]
    fn registry_handles_share_state() {
        let r = Registry::new();
        let a = r.counter("x");
        let b = r.counter("x");
        a.add(3);
        b.add(4);
        assert_eq!(r.counter("x").get(), if COMPILED_IN { 7 } else { 0 });

        let g = r.gauge("depth");
        g.add(5);
        g.add(-2);
        if COMPILED_IN {
            assert_eq!(g.get(), 3);
            assert_eq!(g.peak(), 5);
        }

        let h = r.histogram("lat");
        h.record(1000);
        let snap = r.snapshot();
        assert_eq!(snap.counters.len(), 1);
        assert_eq!(snap.gauges.len(), 1);
        assert_eq!(snap.hists.len(), 1);
    }

    /// A drop leaves the peak alone; a rise past it moves it.
    #[test]
    fn gauge_peak_moves_only_on_a_new_high() {
        if !COMPILED_IN {
            return;
        }
        let g = Gauge::default();
        g.add(10);
        g.add(-4);
        assert_eq!((g.get(), g.peak()), (6, 10));
        g.add(3);
        assert_eq!((g.get(), g.peak()), (9, 10));
        g.add(5);
        assert_eq!((g.get(), g.peak()), (14, 14));
    }

    /// Two threads racing rises and drops: the peak ends at or above
    /// every level either of them saw right after an `add` of its own.
    #[test]
    fn gauge_peak_covers_every_level_under_races() {
        if !COMPILED_IN {
            return;
        }
        let g = Gauge::default();
        let barrier = std::sync::Barrier::new(2);
        let highs: Vec<i64> = std::thread::scope(|scope| {
            let racers: Vec<_> = (0..2)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        let mut high = i64::MIN;
                        for round in 0..10_000i64 {
                            let d = if round % 3 == 2 { -2 } else { round % 5 + 1 };
                            g.add(d);
                            high = high.max(g.get());
                        }
                        high
                    })
                })
                .collect();
            racers.into_iter().map(|r| r.join().unwrap()).collect()
        });
        assert!(
            highs.iter().all(|&h| g.peak() >= h),
            "{highs:?} > {}",
            g.peak()
        );
        assert!(g.peak() >= g.get());
    }

    /// The ISSUE-mandated histogram property: record/merge preserve the
    /// exact count and sum, every reported quantile lies within its
    /// bucket's bounds, and the saturating top bucket never panics.
    #[test]
    fn prop_histogram_count_sum_and_quantile_bounds() {
        let cfg = prop::Config::default();
        prop::check(
            "hist_count_sum_quantiles",
            &cfg,
            |rng| {
                let n = (rng.next_u64() % 200) as usize;
                let vals: Vec<u64> = (0..n)
                    .map(|_| {
                        // Mix magnitudes: small, mid, and near-max values so
                        // the saturating top bucket is exercised.
                        let shift = rng.next_u64() % 64;
                        rng.next_u64() >> shift
                    })
                    .collect();
                prop::NoShrink(vals)
            },
            |prop::NoShrink(vals)| {
                let h = AtomicHistogram::new();
                let mid = vals.len() / 2;
                let h2 = AtomicHistogram::new();
                for &v in &vals[..mid] {
                    h.record(v);
                }
                for &v in &vals[mid..] {
                    h2.record(v);
                }
                let mut s = h.snapshot();
                s.merge(&h2.snapshot());
                if s.count() != vals.len() as u64 {
                    return Err(format!("count {} != {}", s.count(), vals.len()));
                }
                let want_sum = vals.iter().fold(0u64, |a, &v| a.wrapping_add(v));
                if s.sum != want_sum {
                    return Err(format!("sum {} != {}", s.sum, want_sum));
                }
                for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
                    let v = s.quantile(q);
                    if vals.is_empty() {
                        if v != 0 {
                            return Err("empty quantile not 0".into());
                        }
                        continue;
                    }
                    let (lo, hi) = bucket_bounds(bucket_index(v));
                    if v < lo || v > hi {
                        return Err(format!("q{q} = {v} outside its bucket [{lo}, {hi}]"));
                    }
                    // The quantile's bucket must be non-empty: the value
                    // reported is the bound of a bucket that actually
                    // holds samples (or the clamped max, same bucket).
                    if s.buckets[bucket_index(v)] == 0 && v != s.max {
                        return Err(format!("q{q} = {v} names an empty bucket"));
                    }
                    if v > s.max {
                        return Err(format!("q{q} = {v} exceeds max {}", s.max));
                    }
                }
                Ok(())
            },
        );
    }

    /// Wire roundtrip: an untruncated encode decodes back to the exact
    /// same snapshot.
    #[test]
    fn prop_snapshot_wire_roundtrip() {
        let cfg = prop::Config::default();
        prop::check(
            "snapshot_wire_roundtrip",
            &cfg,
            |rng| {
                let r = Registry::new();
                for i in 0..(rng.next_u64() % 6) {
                    r.counter(&format!("c{i}")).add(rng.next_u64() % 1_000_000);
                }
                for i in 0..(rng.next_u64() % 4) {
                    let g = r.gauge(&format!("g{i}"));
                    g.set((rng.next_u64() % 1000) as i64 - 500);
                }
                for i in 0..(rng.next_u64() % 3) {
                    let h = r.histogram(&format!("h{i}"));
                    for _ in 0..(rng.next_u64() % 50) {
                        h.record(rng.next_u64() >> (rng.next_u64() % 64));
                    }
                }
                prop::NoShrink(r.snapshot())
            },
            |prop::NoShrink(snap)| {
                let mut wire = Vec::new();
                snap.encode_into(&mut wire, usize::MAX);
                let back = Snapshot::decode(&wire).map_err(|e| format!("{e:?}"))?;
                if &back != snap {
                    return Err("decode != original".into());
                }
                Ok(())
            },
        );
    }

    #[test]
    fn truncated_encode_stays_in_budget_and_decodes() {
        let r = Registry::new();
        for i in 0..64 {
            r.counter(&format!("counter_with_a_long_name_{i:03}"))
                .add(i);
            let h = r.histogram(&format!("hist_with_a_long_name_{i:03}"));
            for v in 0..40u64 {
                h.record(1 << (v % 40));
            }
        }
        let snap = r.snapshot();
        let mut wire = Vec::new();
        snap.encode_into(&mut wire, 512);
        assert!(wire.len() <= 512, "encode blew its budget: {}", wire.len());
        let back = Snapshot::decode(&wire).unwrap();
        assert!(back.truncated, "a 512-byte budget must truncate");
        if COMPILED_IN {
            assert!(
                !back.counters.is_empty(),
                "budget fits at least some entries"
            );
        }
    }
}
