//! Socket readiness for the daemon's event loop.
//!
//! A daemon tick must find the few adjacency sockets that have something
//! to read among hundreds that do not. Calling `recv` on each of them
//! costs one syscall per socket per tick, almost all answering
//! `EWOULDBLOCK`, and the loop's CPU then grows with the number of
//! sockets rather than with the traffic. [`Poller::wait`] makes a single
//! `poll(2)` instead: it sleeps until some socket is readable — a
//! datagram, or a pending `ECONNREFUSED` bounce, which `poll` reports as
//! an error event — or the timeout passes, and names only the sockets
//! that are ready.

use std::io;
use std::net::UdpSocket;
use std::time::Duration;

/// Readiness over a set of sockets, each registered with an owner tag
/// that [`Poller::wait`] hands back when the socket is ready.
pub(crate) struct Poller<T> {
    owners: Vec<T>,
    #[cfg(unix)]
    fds: Vec<sys::PollFd>,
}

impl<T: Copy> Default for Poller<T> {
    fn default() -> Self {
        Poller {
            owners: Vec::new(),
            #[cfg(unix)]
            fds: Vec::new(),
        }
    }
}

impl<T: Copy> Poller<T> {
    /// Forget every registered socket.
    pub(crate) fn clear(&mut self) {
        self.owners.clear();
        #[cfg(unix)]
        self.fds.clear();
    }

    /// Watch `sock` for readability on behalf of `owner`. The caller
    /// re-registers after closing any watched socket: a closed
    /// descriptor reads as ready until then.
    pub(crate) fn register(&mut self, sock: &UdpSocket, owner: T) {
        self.owners.push(owner);
        #[cfg(unix)]
        {
            use std::os::unix::io::AsRawFd;
            self.fds.push(sys::PollFd {
                fd: sock.as_raw_fd(),
                events: sys::POLLIN,
                revents: 0,
            });
        }
        #[cfg(not(unix))]
        let _ = sock;
    }

    /// Wait up to `timeout` (rounded up to whole milliseconds) for a
    /// watched socket to become readable, then append the owners of every
    /// ready socket to `ready`, in registration order. A signal that
    /// interrupts the wait returns early with nothing ready.
    pub(crate) fn wait(&mut self, timeout: Duration, ready: &mut Vec<T>) -> io::Result<()> {
        self.wait_impl(timeout, ready)
    }

    #[cfg(unix)]
    fn wait_impl(&mut self, timeout: Duration, ready: &mut Vec<T>) -> io::Result<()> {
        let ms = timeout.as_nanos().div_ceil(1_000_000).min(i32::MAX as u128) as i32;
        // SAFETY: `fds` is a live, exclusively borrowed array of
        // `fds.len()` pollfd records for the duration of the call.
        let n = unsafe { sys::poll(self.fds.as_mut_ptr(), self.fds.len() as sys::Nfds, ms) };
        if n < 0 {
            let err = io::Error::last_os_error();
            return if err.kind() == io::ErrorKind::Interrupted {
                Ok(())
            } else {
                Err(err)
            };
        }
        if n > 0 {
            ready.extend(
                self.fds
                    .iter()
                    .zip(&self.owners)
                    .filter(|(fd, _)| fd.revents != 0)
                    .map(|(_, &owner)| owner),
            );
        }
        Ok(())
    }

    /// Without `poll(2)`: sleep out the tick and report every socket, so
    /// the caller reads them all.
    #[cfg(not(unix))]
    fn wait_impl(&mut self, timeout: Duration, ready: &mut Vec<T>) -> io::Result<()> {
        std::thread::sleep(timeout);
        ready.extend_from_slice(&self.owners);
        Ok(())
    }
}

#[cfg(unix)]
mod sys {
    use std::os::raw::{c_int, c_short};

    /// `struct pollfd`.
    #[repr(C)]
    pub struct PollFd {
        pub fd: c_int,
        pub events: c_short,
        pub revents: c_short,
    }

    /// Data to read. Error and hang-up events are always reported.
    pub const POLLIN: c_short = 0x1;

    /// `nfds_t`.
    #[cfg(target_os = "linux")]
    pub type Nfds = std::os::raw::c_ulong;
    #[cfg(not(target_os = "linux"))]
    pub type Nfds = std::os::raw::c_uint;

    extern "C" {
        pub fn poll(fds: *mut PollFd, nfds: Nfds, timeout: c_int) -> c_int;
    }
}

#[cfg(test)]
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
        p.register(&a, 'a');
        p.register(&b, 'b');
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
        p.register(&a, 0);
        p.register(&b, 1);
        p.register(&c, 2);
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
        p.register(&a, 7);
        a.send(b"anyone?").unwrap();
        let mut ready = Vec::new();
        p.wait(Duration::from_secs(5), &mut ready).unwrap();
        assert_eq!(ready, vec![7]);
        let mut buf = [0u8; 16];
        let err = a.recv(&mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionRefused);
    }
}
