//! # mad-util — the workspace's in-tree support subsystem
//!
//! This environment builds with **zero crates.io dependencies**: there is no
//! registry access, no vendor directory, and therefore no `parking_lot`,
//! `crossbeam`, `bytes`, `rand` or `proptest`. Everything the
//! Madeleine reproduction needs from those crates is reimplemented here, on
//! `std` alone, with APIs close enough that call sites migrate nearly 1:1 —
//! and tailored where it pays: the PRNG and property harness are
//! deterministic by construction, which the virtual-time runtime's
//! reproducibility tests actually want.
//!
//! Modules:
//!
//! * [`sync`] — non-poisoning `Mutex`/`Condvar` wrappers over
//!   `std::sync` with the `parking_lot` lock API (`lock()` returns a guard,
//!   `Condvar::wait` takes `&mut MutexGuard`), and `Epoch`, the wake-up
//!   event every blocking wait on real threads goes through: one atomic
//!   word whose bump notifies only when a sleeper is marked, and claims it;
//!   with poll sources, its sleepers sleep in `ppoll` and read them.
//! * [`poll`] — the one `ppoll(2)` declaration, the `Source` a sleeper
//!   reads (a descriptor and its pump), per-thread wake descriptors and
//!   home sources.
//! * [`rng`] — a seedable SplitMix64 PRNG for workload generation.
//! * [`prop`] — a small deterministic property-testing harness with
//!   shrinking and failing-input reports.
//! * [`pool`] — a size-classed recycling byte-buffer pool with
//!   return-on-drop handles and hit/miss counters.
//! * [`hist`] — lock-free log2-bucketed histograms (relaxed-atomic
//!   record, quantiles derived from plain snapshots) for the live
//!   metrics plane.

#![warn(missing_docs)]

pub mod hist;
pub mod poll;
pub mod pool;
pub mod prop;
pub mod rng;
pub mod sync;
