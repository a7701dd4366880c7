//! Socket readiness for the daemon's event loop.
//!
//! A daemon tick must find the few adjacency sockets that have something
//! to read among hundreds that do not. Calling `recv` on each of them
//! costs one syscall per socket per tick, almost all answering
//! `EWOULDBLOCK`. Asking `poll(2)` instead still costs a kernel walk over
//! every socket per tick, whatever the traffic. On Linux, [`Poller`]
//! keeps an epoll interest set: each socket is registered once, and
//! [`Poller::wait`] is one `epoll_wait` that hands back only the sockets
//! that are ready — with a datagram, or with a pending `ECONNREFUSED`
//! bounce, which epoll reports as an error event. The price is epoll's
//! wake-up callback on every datagram delivered to a watched socket, so
//! the trade pays while a tick finds few sockets ready (about a dozen of
//! 768 in routebench's live-mesh), not at the highest rates
//! (`docs/PERFORMANCE.md`, "The readiness wait"). Elsewhere the loop
//! sleeps and reads every socket.

use std::io;
use std::net::UdpSocket;
use std::time::Duration;

/// Readiness over a set of sockets, each registered with an owner tag
/// that [`Poller::wait`] hands back when the socket is ready.
pub(crate) struct Poller<T> {
    /// Owner tags, by registration index.
    owners: Vec<T>,
    /// The interest set: `None` until the first registration after a
    /// [`Poller::clear`].
    #[cfg(target_os = "linux")]
    epoll: Option<std::os::fd::OwnedFd>,
    /// Event buffer, one record per registered socket, so a single
    /// `epoll_wait` returns every ready socket.
    #[cfg(target_os = "linux")]
    events: Vec<sys::EpollEvent>,
}

impl<T: Copy> Default for Poller<T> {
    fn default() -> Self {
        Poller {
            owners: Vec::new(),
            #[cfg(target_os = "linux")]
            epoll: None,
            #[cfg(target_os = "linux")]
            events: Vec::new(),
        }
    }
}

impl<T: Copy> Poller<T> {
    /// Forget every registered socket (closing the interest set).
    pub(crate) fn clear(&mut self) {
        self.owners.clear();
        #[cfg(target_os = "linux")]
        {
            self.epoll = None;
            self.events.clear();
        }
    }

    /// Watch `sock` for readability on behalf of `owner`, until the next
    /// [`Poller::clear`]. A closed socket leaves the interest set by
    /// itself; the caller clears and re-registers whenever it opens or
    /// closes one, so the replacement is watched too.
    pub(crate) fn register(&mut self, sock: &UdpSocket, owner: T) -> io::Result<()> {
        #[cfg(target_os = "linux")]
        {
            use std::os::fd::{AsRawFd, FromRawFd, OwnedFd};
            let epoll = match &self.epoll {
                Some(fd) => fd.as_raw_fd(),
                None => {
                    // SAFETY: `epoll_create1` takes no pointers.
                    let fd = unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) };
                    if fd < 0 {
                        return Err(io::Error::last_os_error());
                    }
                    // SAFETY: `fd` is a fresh descriptor that nothing
                    // else owns, so the `OwnedFd` is its only closer.
                    let fd = unsafe { OwnedFd::from_raw_fd(fd) };
                    self.epoll.insert(fd).as_raw_fd()
                }
            };
            let mut ev = sys::EpollEvent {
                events: sys::EPOLLIN,
                data: self.owners.len() as u64,
            };
            // SAFETY: `ev` is a live `epoll_event` the kernel only reads
            // during the call; `epoll` and the socket's descriptor are
            // open for its duration.
            let rc =
                unsafe { sys::epoll_ctl(epoll, sys::EPOLL_CTL_ADD, sock.as_raw_fd(), &mut ev) };
            if rc < 0 {
                return Err(io::Error::last_os_error());
            }
            self.events.push(sys::EpollEvent::default());
        }
        #[cfg(not(target_os = "linux"))]
        let _ = sock;
        self.owners.push(owner);
        Ok(())
    }

    /// Wait up to `timeout` (rounded up to whole milliseconds) for a
    /// watched socket to become readable, then append the owners of every
    /// ready socket to `ready`, in registration order. A signal that
    /// interrupts the wait returns early with nothing ready.
    pub(crate) fn wait(&mut self, timeout: Duration, ready: &mut Vec<T>) -> io::Result<()> {
        self.wait_impl(timeout, ready)
    }

    #[cfg(target_os = "linux")]
    fn wait_impl(&mut self, timeout: Duration, ready: &mut Vec<T>) -> io::Result<()> {
        use std::os::fd::AsRawFd;
        let Some(epoll) = &self.epoll else {
            std::thread::sleep(timeout);
            return Ok(());
        };
        let ms = timeout.as_nanos().div_ceil(1_000_000).min(i32::MAX as u128) as i32;
        // SAFETY: `events` is a live, exclusively borrowed buffer of
        // `events.len()` records for the duration of the call, and the
        // kernel writes at most that many.
        let n = unsafe {
            sys::epoll_wait(
                epoll.as_raw_fd(),
                self.events.as_mut_ptr(),
                self.events.len().min(i32::MAX as usize) as i32,
                ms,
            )
        };
        if n < 0 {
            let err = io::Error::last_os_error();
            return if err.kind() == io::ErrorKind::Interrupted {
                Ok(())
            } else {
                Err(err)
            };
        }
        // The kernel lists ready sockets in the order they became ready.
        let hits = &mut self.events[..n as usize];
        hits.sort_unstable_by_key(|ev| ev.data);
        ready.extend(hits.iter().map(|ev| self.owners[ev.data as usize]));
        Ok(())
    }

    /// Without epoll: sleep out the tick and report every socket, so the
    /// caller reads them all.
    #[cfg(not(target_os = "linux"))]
    fn wait_impl(&mut self, timeout: Duration, ready: &mut Vec<T>) -> io::Result<()> {
        std::thread::sleep(timeout);
        ready.extend_from_slice(&self.owners);
        Ok(())
    }
}

#[cfg(target_os = "linux")]
mod sys {
    use std::os::raw::c_int;

    /// `struct epoll_event`. The kernel packs it on x86, so `data` sits
    /// right after `events`.
    #[cfg_attr(any(target_arch = "x86", target_arch = "x86_64"), repr(C, packed))]
    #[cfg_attr(not(any(target_arch = "x86", target_arch = "x86_64")), repr(C))]
    #[derive(Clone, Copy, Default)]
    pub struct EpollEvent {
        pub events: u32,
        /// The registration index.
        pub data: u64,
    }

    #[cfg(target_arch = "x86_64")]
    const _: () = assert!(std::mem::size_of::<EpollEvent>() == 12);

    /// Data to read. Error and hang-up events are always reported.
    pub const EPOLLIN: u32 = 0x1;
    pub const EPOLL_CTL_ADD: c_int = 1;
    pub const EPOLL_CLOEXEC: c_int = 0o2_000_000;

    extern "C" {
        pub fn epoll_create1(flags: c_int) -> c_int;
        pub fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        pub fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
    }
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;
    use std::time::Instant;

    fn pair() -> (UdpSocket, UdpSocket) {
        let a = UdpSocket::bind("127.0.0.1:0").unwrap();
        let b = UdpSocket::bind("127.0.0.1:0").unwrap();
        a.connect(b.local_addr().unwrap()).unwrap();
        b.connect(a.local_addr().unwrap()).unwrap();
        a.set_nonblocking(true).unwrap();
        b.set_nonblocking(true).unwrap();
        (a, b)
    }

    #[test]
    fn idle_sockets_time_out_with_nothing_ready() {
        let (a, b) = pair();
        let mut p = Poller::default();
        p.register(&a, 'a').unwrap();
        p.register(&b, 'b').unwrap();
        let mut ready = Vec::new();
        let t0 = Instant::now();
        p.wait(Duration::from_millis(5), &mut ready).unwrap();
        assert!(ready.is_empty());
        assert!(t0.elapsed() >= Duration::from_millis(4));
    }

    #[test]
    fn only_the_socket_with_a_datagram_is_ready() {
        let (a, b) = pair();
        let (c, _d) = pair();
        let mut p = Poller::default();
        p.register(&a, 0).unwrap();
        p.register(&b, 1).unwrap();
        p.register(&c, 2).unwrap();
        a.send(b"hello").unwrap();
        let mut ready = Vec::new();
        p.wait(Duration::from_secs(5), &mut ready).unwrap();
        assert_eq!(ready, vec![1]);
        let mut buf = [0u8; 16];
        assert_eq!(b.recv(&mut buf).unwrap(), 5);
        ready.clear();
        p.wait(Duration::ZERO, &mut ready).unwrap();
        assert!(ready.is_empty(), "drained socket still ready: {ready:?}");
    }

    #[test]
    fn a_refused_send_makes_the_sender_ready() {
        let (a, b) = pair();
        drop(b); // the peer's port closes: the next send bounces
        let mut p = Poller::default();
        p.register(&a, 7).unwrap();
        a.send(b"anyone?").unwrap();
        let mut ready = Vec::new();
        p.wait(Duration::from_secs(5), &mut ready).unwrap();
        assert_eq!(ready, vec![7]);
        let mut buf = [0u8; 16];
        let err = a.recv(&mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionRefused);
    }

    /// Wait until `want` sockets are ready (loopback delivery is
    /// synchronous, but give the kernel room anyway).
    fn wait_for(p: &mut Poller<usize>, want: usize) -> Vec<usize> {
        let mut ready = Vec::new();
        let t0 = Instant::now();
        while ready.len() < want && t0.elapsed() < Duration::from_secs(5) {
            ready.clear();
            p.wait(Duration::from_millis(10), &mut ready).unwrap();
        }
        ready
    }

    #[test]
    fn ready_sockets_come_back_in_registration_order() {
        let (a, b) = pair();
        let (_c, d) = pair();
        let (e, f) = pair();
        let mut p = Poller::default();
        p.register(&b, 0).unwrap();
        p.register(&d, 1).unwrap();
        p.register(&f, 2).unwrap();
        // The third socket becomes ready before the first.
        e.send(b"third").unwrap();
        a.send(b"first").unwrap();
        assert_eq!(wait_for(&mut p, 2), vec![0, 2]);
    }

    #[test]
    fn one_datagram_among_768_sockets_reports_exactly_one() {
        let pairs: Vec<_> = (0..384).map(|_| pair()).collect();
        let mut p = Poller::default();
        for (i, (a, b)) in pairs.iter().enumerate() {
            p.register(a, 2 * i).unwrap();
            p.register(b, 2 * i + 1).unwrap();
        }
        let mut ready = Vec::new();
        p.wait(Duration::ZERO, &mut ready).unwrap();
        assert!(ready.is_empty(), "idle sockets ready: {ready:?}");
        pairs[200].1.send(b"one").unwrap();
        assert_eq!(wait_for(&mut p, 1), vec![400]);
    }

    #[test]
    fn a_replaced_socket_is_watched_after_clear_and_the_dropped_one_never() {
        let (a, b) = pair();
        let (c, d) = pair();
        let mut p = Poller::default();
        p.register(&d, 1).unwrap();
        p.register(&b, 0).unwrap();
        let mut ready = Vec::new();
        p.wait(Duration::ZERO, &mut ready).unwrap();
        assert!(ready.is_empty());
        // `b` closes and a fresh socket takes its place; the set is
        // rebuilt, as the daemon does after a crash or a reboot.
        drop(b);
        let (e, f) = pair();
        p.clear();
        p.register(&f, 2).unwrap();
        p.register(&d, 1).unwrap();
        c.send(b"old peer").unwrap();
        e.send(b"new peer").unwrap();
        // `a`'s peer is gone: its send bounces, but `a` is not watched.
        let _ = a.send(b"to the dropped socket");
        assert_eq!(wait_for(&mut p, 2), vec![2, 1]);
    }
}
