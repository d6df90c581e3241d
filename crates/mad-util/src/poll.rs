//! Readiness of real descriptors: the workspace's one `ppoll(2)` call, the
//! [`Source`]s a sleeping [`crate::sync::Epoch`] waiter reads, the
//! per-thread wake descriptor a bump writes to when it claims such a
//! waiter, and the per-thread *home* sources that every wait of a thread
//! reads besides its event's own.
//!
//! `ppoll` rather than `poll` because its timeout is a `timespec`: a wait
//! bounded in nanoseconds (a credit or teardown deadline, a watchdog tick)
//! sleeps that long, not a millisecond rounded up. libc is linked by std
//! already, so the declaration needs no crate.

use std::cell::{Cell, RefCell};
use std::ffi::{c_int, c_long, c_ulong, c_void};
use std::io::{self, Read, Write};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::sync::Mutex;

/// `poll` event: data to read (or, in `revents`, an end of stream).
pub const POLLIN: i16 = 0x001;
/// `poll` event: room to write.
pub const POLLOUT: i16 = 0x004;
const POLLERR: i16 = 0x008;
const POLLHUP: i16 = 0x010;
const POLLNVAL: i16 = 0x020;

/// One entry of a poll set, laid out as the C `struct pollfd`.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct PollFd {
    fd: c_int,
    events: i16,
    revents: i16,
}

impl PollFd {
    /// Watch `fd` for `events` ([`POLLIN`], [`POLLOUT`] or both).
    pub fn new(fd: RawFd, events: i16) -> Self {
        PollFd {
            fd,
            events,
            revents: 0,
        }
    }

    /// A read would not block: data, an end of stream or an error waits.
    pub fn readable(&self) -> bool {
        self.revents & (POLLIN | POLLERR | POLLHUP | POLLNVAL) != 0
    }

    /// A write would not block, or would fail at once.
    pub fn writable(&self) -> bool {
        self.revents & (POLLOUT | POLLERR | POLLHUP | POLLNVAL) != 0
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: c_ulong,
        timeout: *const Timespec,
        sigmask: *const c_void,
    ) -> c_int;
}

/// Block until an entry of `fds` is ready or `timeout` (`None`: never)
/// passes; returns how many entries are ready. An interrupted call is an
/// `Interrupted` error, as from any system call.
pub fn poll(fds: &mut [PollFd], timeout: Option<Duration>) -> io::Result<usize> {
    let ts = timeout.map(|t| Timespec {
        tv_sec: t.as_secs().min(c_long::MAX as u64) as c_long,
        tv_nsec: t.subsec_nanos() as c_long,
    });
    let ts_ptr = ts
        .as_ref()
        .map_or(std::ptr::null(), |t| t as *const Timespec);
    POLLS.with(|n| n.set(n.get() + 1));
    // SAFETY: `fds` is an exclusively borrowed array of `fds.len()`
    // entries laid out as `struct pollfd` (`#[repr(C)]`), which the kernel
    // writes only the `revents` of; `ts_ptr` is null or points at `ts`,
    // alive until the call returns; a null signal mask leaves the
    // thread's mask as it is.
    let n = unsafe {
        ppoll(
            fds.as_mut_ptr(),
            fds.len() as c_ulong,
            ts_ptr,
            std::ptr::null(),
        )
    };
    if n < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(n as usize)
    }
}

/// Calls to [`poll`] the calling thread has made so far: a sleeper that
/// spins on a dead descriptor shows here.
pub fn polls_on_this_thread() -> u64 {
    POLLS.with(Cell::get)
}

/// A readable descriptor and the pump that drains it: what a sleeper on
/// an [`crate::sync::Epoch`] with sources reads while it waits.
pub trait Source: Send + Sync {
    /// The descriptor to poll for input. It must stay open as long as
    /// the source lives — a sleeper may still poll a snapshot of the
    /// sources after the source was removed from its event.
    fn fd(&self) -> RawFd;

    /// Read what the descriptor holds, without blocking. Called with no
    /// lock of the event held; a pump must not wait on an event.
    fn pump(&self);
}

/// The sources of one event: replaced whole on a change, so a sleeper
/// takes a snapshot with one reference count.
#[derive(Default)]
pub(crate) struct Sources {
    list: Mutex<Arc<[Arc<dyn Source>]>>,
    /// `list` is not empty.
    polled: AtomicBool,
}

impl Sources {
    pub(crate) fn polled(&self) -> bool {
        self.polled.load(Ordering::Acquire)
    }

    pub(crate) fn snapshot(&self) -> Arc<[Arc<dyn Source>]> {
        self.list.lock().clone()
    }

    pub(crate) fn add(&self, source: Arc<dyn Source>) {
        let mut list = self.list.lock();
        let mut grown = list.to_vec();
        grown.push(source);
        *list = grown.into();
        self.polled.store(true, Ordering::Release);
    }

    pub(crate) fn remove(&self, source: &dyn Source) {
        let mut list = self.list.lock();
        let kept: Vec<Arc<dyn Source>> = list
            .iter()
            .filter(|s| !std::ptr::addr_eq(Arc::as_ptr(s), source))
            .cloned()
            .collect();
        self.polled.store(!kept.is_empty(), Ordering::Release);
        *list = kept.into();
    }
}

/// A thread's wake descriptor: a socket pair whose read end the thread
/// polls beside its sources, and whose write end a claiming bump writes
/// one byte to.
pub(crate) struct Wake {
    rx: UnixStream,
    tx: UnixStream,
}

impl Wake {
    fn new() -> io::Result<Wake> {
        let (rx, tx) = UnixStream::pair()?;
        rx.set_nonblocking(true)?;
        tx.set_nonblocking(true)?;
        Ok(Wake { rx, tx })
    }

    pub(crate) fn fd(&self) -> RawFd {
        self.rx.as_raw_fd()
    }

    /// Make the read end readable. A full pair is readable already.
    pub(crate) fn wake(&self) {
        let _ = (&self.tx).write(&[1]);
    }

    /// Take every wake byte back out.
    pub(crate) fn clear(&self) {
        let mut buf = [0u8; 64];
        while matches!((&self.rx).read(&mut buf), Ok(n) if n == buf.len()) {}
    }
}

thread_local! {
    static WAKE: Arc<Wake> = Arc::new(Wake::new().expect("creating a wake socket pair"));
    static HOME: RefCell<Option<Arc<Sources>>> = const { RefCell::new(None) };
    static SCRATCH: RefCell<Vec<PollFd>> = const { RefCell::new(Vec::new()) };
    static POLLS: Cell<u64> = const { Cell::new(0) };
}

/// The calling thread's wake descriptor.
pub(crate) fn thread_wake() -> Arc<Wake> {
    WAKE.with(Arc::clone)
}

/// Make `sources` the calling thread's home: every wait it makes from now
/// on reads them too.
pub(crate) fn set_home(sources: Arc<Sources>) {
    HOME.with(|h| *h.borrow_mut() = Some(sources));
}

/// The calling thread's home sources, unless they are `own` or empty.
pub(crate) fn home_besides(own: &Arc<Sources>) -> Option<Arc<Sources>> {
    HOME.with(|h| {
        h.borrow()
            .as_ref()
            .filter(|home| !Arc::ptr_eq(home, own) && home.polled())
            .cloned()
    })
}

/// Poll `lead` — descriptors the caller reads the `revents` of itself —
/// and every source of `lists` for input, for up to `timeout`; run
/// `then`, and then the pump of every source that turned readable.
/// Returns what [`poll`] did. The poll set is a per-thread buffer, taken
/// out for the call so that a pump that polls finds an empty one rather
/// than a borrowed one: steady state allocates nothing.
pub(crate) fn poll_sources(
    lead: &mut [PollFd],
    lists: &[&[Arc<dyn Source>]],
    timeout: Option<Duration>,
    then: impl FnOnce(),
) -> io::Result<usize> {
    let mut fds = SCRATCH.with(|s| std::mem::take(&mut *s.borrow_mut()));
    fds.clear();
    fds.extend_from_slice(lead);
    let sources = || lists.iter().flat_map(|l| l.iter());
    fds.extend(sources().map(|s| PollFd::new(s.fd(), POLLIN)));
    let polled = poll(&mut fds, timeout);
    then();
    if polled.is_ok() {
        lead.copy_from_slice(&fds[..lead.len()]);
        for (source, fd) in sources().zip(&fds[lead.len()..]) {
            if fd.readable() {
                source.pump();
            }
        }
    }
    SCRATCH.with(|s| *s.borrow_mut() = fds);
    polled
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poll_times_out_and_sees_a_wake() {
        let wake = Wake::new().unwrap();
        let mut fds = [PollFd::new(wake.fd(), POLLIN)];
        let t0 = std::time::Instant::now();
        assert_eq!(poll(&mut fds, Some(Duration::from_micros(300))).unwrap(), 0);
        assert!(t0.elapsed() >= Duration::from_micros(300));
        wake.wake();
        wake.wake();
        assert_eq!(poll(&mut fds, None).unwrap(), 1);
        assert!(fds[0].readable() && !fds[0].writable());
        wake.clear();
        assert_eq!(poll(&mut fds, Some(Duration::ZERO)).unwrap(), 0);
    }
}
