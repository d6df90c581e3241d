//! Cross-module integration tests: the guarantees the rest of the
//! workspace leans on, exercised with real threads.

use std::sync::Arc;
use std::time::{Duration, Instant};

use mad_util::chan::{self, RecvTimeoutError, TryRecvError, TrySendError};
use mad_util::rng::Rng;
use mad_util::sync::{Condvar, Mutex};

// ---------------------------------------------------------------- channels

#[test]
fn chan_fifo_order_single_consumer() {
    let (tx, rx) = chan::unbounded();
    for i in 0..1000 {
        tx.send(i).unwrap();
    }
    for i in 0..1000 {
        assert_eq!(rx.recv().unwrap(), i);
    }
}

#[test]
fn chan_bounded_blocks_at_capacity_until_pop() {
    let (tx, rx) = chan::bounded(2);
    tx.send(1).unwrap();
    tx.send(2).unwrap();
    assert_eq!(tx.try_send(3), Err(TrySendError::Full(3)));

    let t0 = Instant::now();
    let h = std::thread::spawn(move || {
        tx.send(3).unwrap(); // blocks until the consumer pops
        tx
    });
    std::thread::sleep(Duration::from_millis(30));
    assert_eq!(rx.recv().unwrap(), 1);
    let tx = h.join().unwrap();
    assert!(
        t0.elapsed() >= Duration::from_millis(25),
        "send returned early"
    );
    assert_eq!(rx.recv().unwrap(), 2);
    assert_eq!(rx.recv().unwrap(), 3);
    drop(tx);
    assert!(rx.recv().is_err());
}

#[test]
fn chan_disconnect_semantics_both_directions() {
    // Sender side gone: drain, then error.
    let (tx, rx) = chan::unbounded();
    tx.send(7u32).unwrap();
    drop(tx);
    assert_eq!(rx.recv(), Ok(7));
    assert!(rx.recv().is_err());
    assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));

    // Receiver side gone: send fails and returns the value.
    let (tx, rx) = chan::unbounded();
    drop(rx);
    assert_eq!(tx.send(9u32), Err(chan::SendError(9)));

    // A clone keeps the channel alive; only the last drop disconnects.
    let (tx, rx) = chan::unbounded::<u32>();
    let tx2 = tx.clone();
    drop(tx);
    assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
    tx2.send(1).unwrap();
    assert_eq!(rx.recv(), Ok(1));
}

#[test]
fn chan_recv_timeout_fires_and_recovers() {
    let (tx, rx) = chan::unbounded::<u8>();
    let t0 = Instant::now();
    assert_eq!(
        rx.recv_timeout(Duration::from_millis(30)),
        Err(RecvTimeoutError::Timeout)
    );
    assert!(t0.elapsed() >= Duration::from_millis(25));
    tx.send(5).unwrap();
    assert_eq!(rx.recv_timeout(Duration::from_millis(30)), Ok(5));
    drop(tx);
    assert_eq!(
        rx.recv_timeout(Duration::from_millis(30)),
        Err(RecvTimeoutError::Disconnected)
    );
}

#[test]
fn chan_mpmc_under_contention_delivers_exactly_once() {
    const PRODUCERS: u64 = 4;
    const CONSUMERS: usize = 4;
    const PER_PRODUCER: u64 = 2_000;
    let (tx, rx) = chan::bounded(8);
    let mut handles = Vec::new();
    for p in 0..PRODUCERS {
        let tx = tx.clone();
        handles.push(std::thread::spawn(move || {
            for i in 0..PER_PRODUCER {
                tx.send(p * PER_PRODUCER + i).unwrap();
            }
        }));
    }
    drop(tx);
    let mut consumers = Vec::new();
    for _ in 0..CONSUMERS {
        let rx = rx.clone();
        consumers.push(std::thread::spawn(move || {
            let mut got = Vec::new();
            while let Ok(v) = rx.recv() {
                got.push(v);
            }
            got
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let mut all: Vec<u64> = consumers
        .into_iter()
        .flat_map(|h| h.join().unwrap())
        .collect();
    all.sort_unstable();
    assert_eq!(all, (0..PRODUCERS * PER_PRODUCER).collect::<Vec<_>>());
}

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
