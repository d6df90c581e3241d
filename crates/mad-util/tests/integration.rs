//! Cross-module integration tests: the guarantees the rest of the
//! workspace leans on, exercised with real threads.

use std::sync::Arc;
use std::time::Duration;

use mad_util::rng::Rng;
use mad_util::sync::{Condvar, Mutex};

// -------------------------------------------------------------------- rng

#[test]
fn rng_identical_streams_across_runs() {
    // Two generators from one seed agree forever; the derived draws
    // (ranges, floats, bools, byte fills) must agree too, because tests
    // seed workloads this way on different machines.
    let mut a = Rng::new(0xDEAD_BEEF);
    let mut b = Rng::new(0xDEAD_BEEF);
    for _ in 0..1_000 {
        assert_eq!(a.next_u64(), b.next_u64());
        assert_eq!(a.gen_range(0u64..9_999), b.gen_range(0u64..9_999));
        assert_eq!(a.f64().to_bits(), b.f64().to_bits());
        assert_eq!(a.bool(), b.bool());
    }
    let (mut ba, mut bb) = ([0u8; 33], [0u8; 33]);
    a.fill_bytes(&mut ba);
    b.fill_bytes(&mut bb);
    assert_eq!(ba, bb);
}

#[test]
fn rng_split_streams_are_independent_and_deterministic() {
    let mut parent1 = Rng::new(5);
    let child1 = parent1.split();
    let mut parent2 = Rng::new(5);
    let child2 = parent2.split();
    assert_eq!(child1, child2);
    // Consuming the child does not perturb the parent's stream.
    let mut c = child1;
    for _ in 0..10 {
        c.next_u64();
    }
    assert_eq!(parent1.next_u64(), parent2.next_u64());
}

// ------------------------------------------------- condvar, vtime-style

/// The vtime clock's monitor discipline (DESIGN.md §8.3 rule 1): state
/// mutations and wakeups share one `Mutex` + `Condvar`; waiters loop on
/// `wait_for` with a grace timeout and re-check their *own* predicate on
/// every wakeup, because `notify_all` wakes everyone and timeouts race
/// with notifications. This test replicates that pattern: N waiters each
/// wait for their slot to flip, a coordinator flips them one at a time.
#[test]
fn condvar_wakeup_under_vtime_monitor_pattern() {
    const WAITERS: usize = 6;
    struct Monitor {
        core: Mutex<Vec<bool>>,
        cv: Condvar,
    }
    let m = Arc::new(Monitor {
        core: Mutex::new(vec![false; WAITERS]),
        cv: Condvar::new(),
    });

    let mut handles = Vec::new();
    for id in 0..WAITERS {
        let m = m.clone();
        handles.push(std::thread::spawn(move || {
            let mut core = m.core.lock();
            let mut grace_timeouts = 0u32;
            while !core[id] {
                // Short grace period, as in the clock's deadlock probe: a
                // timeout must NOT be treated as the predicate holding.
                let r = m.cv.wait_for(&mut core, Duration::from_millis(20));
                if r.timed_out() {
                    grace_timeouts += 1;
                }
            }
            grace_timeouts
        }));
    }

    // Flip slots one by one with pauses longer than the grace period, so
    // every waiter demonstrably survives spurious-looking timeouts.
    for id in 0..WAITERS {
        std::thread::sleep(Duration::from_millis(30));
        let mut core = m.core.lock();
        core[id] = true;
        drop(core);
        m.cv.notify_all();
    }

    let timeout_counts: Vec<u32> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    // The last waiters sat through several grace periods and many foreign
    // notify_alls without ever returning early.
    assert!(
        timeout_counts.iter().any(|&c| c > 0),
        "expected at least one waiter to ride out a grace timeout: {timeout_counts:?}"
    );
}

/// Waking between `wait_for` timeout expiry and re-acquisition must not
/// lose the notification (the predicate-recheck loop absorbs the race).
#[test]
fn condvar_timeout_notification_race_is_safe() {
    let pair = Arc::new((Mutex::new(0u32), Condvar::new()));
    let mut handles = Vec::new();
    for _ in 0..4 {
        let pair = pair.clone();
        handles.push(std::thread::spawn(move || {
            let (lock, cv) = &*pair;
            let mut v = lock.lock();
            while *v < 100 {
                cv.wait_for(&mut v, Duration::from_micros(50));
            }
            *v
        }));
    }
    {
        let (lock, cv) = &*pair;
        for _ in 0..100 {
            *lock.lock() += 1;
            cv.notify_all();
        }
    }
    for h in handles {
        assert_eq!(h.join().unwrap(), 100);
    }
}
