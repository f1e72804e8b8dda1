//! Readiness polling: a tiny `Poller` seam so the event loop can block
//! on "any of these sockets has bytes" without a thread per connection.
//!
//! Two backends, both std-only (the workspace's zero-dependency rule
//! means no `libc`/`mio`):
//!
//! - `EpollPoller` — Linux `epoll` driven by raw syscalls via
//!   `std::arch::asm!` (x86_64 and aarch64). Level-triggered, so the
//!   event loop never misses bytes it left unread in the kernel buffer.
//!   These syscalls are the workspace's only `unsafe` code; each block
//!   states why it is sound.
//! - [`FallbackPoller`] — a portable degraded mode: `wait` sleeps a
//!   short tick and reports every registered token as maybe-ready; the
//!   event loop's non-blocking reads turn the false positives into
//!   `WouldBlock` no-ops. Correct everywhere, a little warmer on CPU.
//!
//! [`new_poller`] builds epoll on Linux (x86_64 and aarch64) and the
//! fallback everywhere else, or when epoll cannot be set up.
//! [`PollerKind::Fallback`] forces the fallback: the chaos tests run the
//! daemon on it to keep it honest.
//!
//! [`Waker`] is the cross-thread nudge: workers finishing a job must pop
//! the event loop out of `wait` to get their response flushed. Under
//! epoll it is one end of a `UnixStream` pair registered like any other
//! fd; under the fallback the short tick already bounds wake latency, so
//! `wake` is a no-op.

use std::collections::HashMap;
use std::io;
use std::time::Duration;

#[cfg(unix)]
pub use std::os::fd::RawFd;
#[cfg(not(unix))]
pub type RawFd = i32;

/// One readiness notification.
#[derive(Clone, Copy, Debug)]
pub struct PollEvent {
    /// The token the fd was registered with.
    pub token: u64,
    pub readable: bool,
    pub writable: bool,
}

/// Which backend to construct.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum PollerKind {
    /// Epoll where the platform supports it, fallback otherwise.
    #[default]
    Auto,
    Fallback,
}

/// The readiness seam. Readable interest is implicit for every
/// registration; writable interest is toggled as write buffers fill and
/// drain.
pub trait Poller: Send {
    fn backend_name(&self) -> &'static str;
    fn register(&mut self, fd: RawFd, token: u64, writable: bool) -> io::Result<()>;
    fn modify(&mut self, fd: RawFd, token: u64, writable: bool) -> io::Result<()>;
    fn deregister(&mut self, fd: RawFd) -> io::Result<()>;
    /// Blocks up to `timeout` for readiness; appends into `out` (cleared
    /// first). Returning with an empty `out` means the timeout elapsed.
    fn wait(&mut self, out: &mut Vec<PollEvent>, timeout: Duration) -> io::Result<()>;
}

/// Constructs the requested backend plus its waker. The waker source is
/// `Some` when it must be registered with the poller (epoll); the
/// fallback needs no registration.
pub fn new_poller(kind: PollerKind) -> (Box<dyn Poller>, Waker, Option<WakerSource>) {
    if kind == PollerKind::Auto {
        #[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
        if let (Ok(p), Ok((waker, source))) = (epoll::EpollPoller::new(), Waker::pipe()) {
            return (Box::new(p), waker, Some(source));
        }
    }
    (Box::new(FallbackPoller::default()), Waker::noop(), None)
}

// ---------------------------------------------------------------------------
// Waker

/// The readable half of the waker pipe, registered with the poller by
/// the event loop; `drain` empties it after a wakeup.
pub struct WakerSource {
    #[cfg(unix)]
    rx: std::os::unix::net::UnixStream,
}

impl WakerSource {
    /// The fd to register under the event loop's waker token.
    pub fn fd(&self) -> RawFd {
        #[cfg(unix)]
        {
            use std::os::fd::AsRawFd;
            self.rx.as_raw_fd()
        }
        #[cfg(not(unix))]
        {
            -1
        }
    }

    /// Discards any pending wake bytes so the next `wake` edge is seen.
    pub fn drain(&self) {
        #[cfg(unix)]
        {
            use std::io::Read;
            let mut sink = [0u8; 64];
            while matches!((&self.rx).read(&mut sink), Ok(n) if n > 0) {}
        }
    }
}

/// Cross-thread nudge handle, cloned to every worker.
#[derive(Clone)]
pub struct Waker {
    #[cfg(unix)]
    tx: Option<std::sync::Arc<std::os::unix::net::UnixStream>>,
}

impl Waker {
    fn noop() -> Waker {
        Waker {
            #[cfg(unix)]
            tx: None,
        }
    }

    /// The self-pipe epoll waits on beside the sockets.
    #[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
    fn pipe() -> io::Result<(Waker, WakerSource)> {
        let (tx, rx) = std::os::unix::net::UnixStream::pair()?;
        tx.set_nonblocking(true)?;
        rx.set_nonblocking(true)?;
        Ok((Waker { tx: Some(std::sync::Arc::new(tx)) }, WakerSource { rx }))
    }

    /// Pops the event loop out of `wait`. A full pipe is fine — one
    /// pending byte is as good as fifty.
    pub fn wake(&self) {
        #[cfg(unix)]
        if let Some(tx) = &self.tx {
            use std::io::Write;
            let _ = (&**tx).write(&[1]);
        }
    }
}

// ---------------------------------------------------------------------------
// Fallback backend

/// Portable degraded backend: report everything registered as ready and
/// let non-blocking I/O sort out the truth.
#[derive(Default)]
pub struct FallbackPoller {
    registered: HashMap<RawFd, (u64, bool)>,
}

/// The fallback's sleep quantum: short enough that worker completions
/// and fresh bytes are picked up promptly without a waker.
const FALLBACK_TICK: Duration = Duration::from_millis(2);

impl Poller for FallbackPoller {
    fn backend_name(&self) -> &'static str {
        "fallback"
    }

    fn register(&mut self, fd: RawFd, token: u64, writable: bool) -> io::Result<()> {
        self.registered.insert(fd, (token, writable));
        Ok(())
    }

    fn modify(&mut self, fd: RawFd, token: u64, writable: bool) -> io::Result<()> {
        self.registered.insert(fd, (token, writable));
        Ok(())
    }

    fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        self.registered.remove(&fd);
        Ok(())
    }

    fn wait(&mut self, out: &mut Vec<PollEvent>, timeout: Duration) -> io::Result<()> {
        out.clear();
        std::thread::sleep(timeout.min(FALLBACK_TICK));
        for (&_fd, &(token, writable)) in &self.registered {
            out.push(PollEvent { token, readable: true, writable });
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Epoll backend (Linux x86_64 / aarch64, raw syscalls)

#[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
mod epoll {
    use super::{PollEvent, Poller, RawFd};
    use std::io;
    use std::time::Duration;

    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLLRDHUP: u32 = 0x2000;
    const EPOLL_CTL_ADD: i64 = 1;
    const EPOLL_CTL_DEL: i64 = 2;
    const EPOLL_CTL_MOD: i64 = 3;
    const EPOLL_CLOEXEC: i64 = 0x8_0000;
    const EINTR: i64 = 4;

    // The kernel packs epoll_event on x86_64 only.
    #[cfg(target_arch = "x86_64")]
    #[repr(C, packed)]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    #[cfg(not(target_arch = "x86_64"))]
    #[repr(C)]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    #[cfg(target_arch = "x86_64")]
    mod nr {
        pub const EPOLL_CREATE1: i64 = 291;
        pub const EPOLL_CTL: i64 = 233;
        pub const EPOLL_WAIT: i64 = 232;
        pub const CLOSE: i64 = 3;
    }

    #[cfg(target_arch = "aarch64")]
    mod nr {
        pub const EPOLL_CREATE1: i64 = 20;
        pub const EPOLL_CTL: i64 = 21;
        /// `epoll_pwait`, called with a null sigmask: aarch64 has no
        /// `epoll_wait`.
        pub const EPOLL_WAIT: i64 = 22;
        pub const CLOSE: i64 = 57;
    }

    /// Raw 5-argument syscall. Negative returns are `-errno`.
    ///
    /// # Safety
    ///
    /// `n` and its arguments must make a syscall that touches no memory
    /// but what the arguments point at, and every pointer argument must
    /// be valid for the kernel's reads or writes for the call's duration.
    /// The asm itself declares everything the instruction clobbers: the
    /// return register, and `rcx`/`r11` on x86_64. The kernel preserves
    /// every other register and does not use the user stack.
    #[cfg(target_arch = "x86_64")]
    unsafe fn syscall5(n: i64, a1: i64, a2: i64, a3: i64, a4: i64, a5: i64) -> i64 {
        let ret: i64;
        std::arch::asm!(
            "syscall",
            inlateout("rax") n => ret,
            in("rdi") a1,
            in("rsi") a2,
            in("rdx") a3,
            in("r10") a4,
            in("r8") a5,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack)
        );
        ret
    }

    /// See the x86_64 twin.
    #[cfg(target_arch = "aarch64")]
    unsafe fn syscall5(n: i64, a1: i64, a2: i64, a3: i64, a4: i64, a5: i64) -> i64 {
        let ret: i64;
        std::arch::asm!(
            "svc 0",
            in("x8") n,
            inlateout("x0") a1 => ret,
            in("x1") a2,
            in("x2") a3,
            in("x3") a4,
            in("x4") a5,
            options(nostack)
        );
        ret
    }

    fn check(ret: i64) -> io::Result<i64> {
        if ret < 0 {
            Err(io::Error::from_raw_os_error((-ret) as i32))
        } else {
            Ok(ret)
        }
    }

    pub struct EpollPoller {
        /// Owned: opened by `new`, closed once by `drop`.
        epfd: RawFd,
        buf: Vec<EpollEvent>,
    }

    impl EpollPoller {
        pub fn new() -> io::Result<EpollPoller> {
            // SAFETY: epoll_create1 takes no pointer; it only opens a fd.
            let epfd = check(unsafe { syscall5(nr::EPOLL_CREATE1, EPOLL_CLOEXEC, 0, 0, 0, 0) })?;
            Ok(EpollPoller {
                epfd: epfd as RawFd,
                buf: vec![EpollEvent { events: 0, data: 0 }; 256],
            })
        }

        fn ctl(&self, op: i64, fd: RawFd, token: u64, writable: bool) -> io::Result<()> {
            let mut ev = EpollEvent {
                events: EPOLLIN | EPOLLRDHUP | if writable { EPOLLOUT } else { 0 },
                data: token,
            };
            let ptr = if op == EPOLL_CTL_DEL { 0 } else { &mut ev as *mut EpollEvent as i64 };
            // SAFETY: the kernel reads one `epoll_event` at `ptr`, and `ev`
            // is one, laid out as the kernel's struct, alive across the
            // call. `EPOLL_CTL_DEL` reads nothing and takes a null pointer.
            check(unsafe { syscall5(nr::EPOLL_CTL, self.epfd as i64, op, fd as i64, ptr, 0) })
                .map(|_| ())
        }
    }

    impl Drop for EpollPoller {
        fn drop(&mut self) {
            // SAFETY: close takes no pointer, and `epfd` is this poller's
            // own fd, closed exactly once, here.
            let _ = unsafe { syscall5(nr::CLOSE, self.epfd as i64, 0, 0, 0, 0) };
        }
    }

    impl Poller for EpollPoller {
        fn backend_name(&self) -> &'static str {
            "epoll"
        }

        fn register(&mut self, fd: RawFd, token: u64, writable: bool) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, token, writable)
        }

        fn modify(&mut self, fd: RawFd, token: u64, writable: bool) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, token, writable)
        }

        fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
            self.ctl(EPOLL_CTL_DEL, fd, 0, false)
        }

        fn wait(&mut self, out: &mut Vec<PollEvent>, timeout: Duration) -> io::Result<()> {
            out.clear();
            let ms = i64::try_from(timeout.as_millis()).unwrap_or(i64::MAX).min(i32::MAX as i64);
            let n = {
                let ptr = self.buf.as_mut_ptr() as i64;
                let cap = self.buf.len() as i64;
                // SAFETY: the kernel writes at most `cap` `epoll_event`s at
                // `ptr`, and `buf` holds `cap` of them, laid out as the
                // kernel's struct; nothing else touches it during the call.
                // The fifth argument is epoll_pwait's null sigmask.
                let ret = unsafe { syscall5(nr::EPOLL_WAIT, self.epfd as i64, ptr, cap, ms, 0) };
                match ret {
                    r if r == -EINTR => 0,
                    r => check(r)?,
                }
            };
            for ev in &self.buf[..n as usize] {
                let bits = ev.events;
                out.push(PollEvent {
                    token: ev.data,
                    // Errors and hangups surface as readable: the next
                    // read returns 0/Err and the connection is reaped.
                    readable: bits & (EPOLLIN | EPOLLRDHUP | EPOLLERR | EPOLLHUP) != 0,
                    writable: bits & EPOLLOUT != 0,
                });
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;
    use std::time::Instant;

    fn backend_roundtrip(mut poller: Box<dyn Poller>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        poller.register(listener.as_raw_fd(), 7, false).unwrap();

        let mut events = Vec::new();
        // Nothing pending: a short wait returns empty (epoll) or
        // all-registered (fallback); either way it must return promptly.
        let t0 = Instant::now();
        poller.wait(&mut events, Duration::from_millis(20)).unwrap();
        assert!(t0.elapsed() < Duration::from_secs(2));

        // A connect attempt makes the listener readable.
        let addr = listener.local_addr().unwrap();
        let _client = TcpStream::connect(addr).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            poller.wait(&mut events, Duration::from_millis(50)).unwrap();
            if events.iter().any(|e| e.token == 7 && e.readable) {
                break;
            }
            assert!(Instant::now() < deadline, "listener never became readable");
        }
        let (stream, _) = listener.accept().unwrap();
        stream.set_nonblocking(true).unwrap();
        poller.register(stream.as_raw_fd(), 9, true).unwrap();

        // A fresh socket with writable interest reports writable.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            poller.wait(&mut events, Duration::from_millis(50)).unwrap();
            if events.iter().any(|e| e.token == 9 && e.writable) {
                break;
            }
            assert!(Instant::now() < deadline, "socket never became writable");
        }

        poller.deregister(stream.as_raw_fd()).unwrap();
        poller.deregister(listener.as_raw_fd()).unwrap();
    }

    #[test]
    fn fallback_backend_reports_registered_fds() {
        let (poller, _waker, source) = new_poller(PollerKind::Fallback);
        assert_eq!(poller.backend_name(), "fallback");
        assert!(source.is_none(), "fallback needs no waker registration");
        backend_roundtrip(poller);
    }

    #[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
    #[test]
    fn epoll_backend_reports_readiness() {
        let (poller, _waker, _src) = new_poller(PollerKind::Auto);
        if poller.backend_name() == "epoll" {
            backend_roundtrip(poller);
        }
    }

    #[cfg(unix)]
    #[test]
    fn waker_pops_wait_out_of_epoll() {
        let (mut poller, waker, source) = new_poller(PollerKind::Auto);
        if poller.backend_name() != "epoll" {
            return; // fallback needs no waker; nothing to test
        }
        let source = source.expect("epoll poller comes with a waker source");
        poller.register(source.fd(), 1, false).unwrap();
        let mut events = Vec::new();

        waker.wake();
        let t0 = Instant::now();
        poller.wait(&mut events, Duration::from_secs(10)).unwrap();
        assert!(t0.elapsed() < Duration::from_secs(5), "wake must interrupt wait");
        assert!(events.iter().any(|e| e.token == 1 && e.readable));
        source.drain();

        // Drained: the next wait times out instead of spinning on the
        // stale wake byte (level-triggered epoll would re-report it).
        poller.wait(&mut events, Duration::from_millis(20)).unwrap();
        assert!(events.is_empty(), "drained waker must not re-trigger");
    }

    #[test]
    fn waker_wake_is_safe_without_pipe() {
        Waker::noop().wake();
    }
}
