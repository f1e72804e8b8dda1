//! Pluggable file paging: how snapshot pool bytes reach memory.
//!
//! Mirrors the serve crate's `Poller` pattern — one trait, two
//! backends, zero dependencies:
//!
//! - [`MmapPager`] — the file is mapped read-only with raw
//!   `mmap`/`munmap`/`madvise` syscalls via `std::arch::asm!` (Linux
//!   x86_64 and aarch64). Pool bytes become resident lazily, one page
//!   fault at a time, and `madvise(MADV_DONTNEED)` gives clean pages
//!   back to the kernel on spill — on a read-only file-backed private
//!   mapping that is purely an RSS action: a later touch refaults the
//!   same bytes from the file, so zero-copy slices stay valid across
//!   spills.
//! - [`FilePager`] — portable positioned reads (`pread` via
//!   `FileExt::read_at` on Unix, a seek-locked fallback elsewhere).
//!   No zero-copy view; callers buffer what they read and drop the
//!   buffer to spill.
//!
//! [`new_pager`] picks the richest backend the platform offers unless
//! the caller says otherwise, and falls back gracefully when a map
//! cannot be established.

use std::fmt;
use std::fs::File;
use std::io;
use std::path::Path;

/// Which pager backend to use.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PagerKind {
    /// Best available: mmap where supported, positioned reads otherwise.
    Auto,
    /// Force the mmap backend; constructing on an unsupported platform
    /// is an error instead of a silent fallback.
    Mmap,
    /// Force the positioned-read backend.
    File,
}

impl PagerKind {
    /// Parses a backend name (the inverse of `Display`).
    pub fn parse(s: &str) -> Option<PagerKind> {
        match s {
            "auto" => Some(PagerKind::Auto),
            "mmap" => Some(PagerKind::Mmap),
            "file" => Some(PagerKind::File),
            _ => None,
        }
    }
}

impl fmt::Display for PagerKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            PagerKind::Auto => "auto",
            PagerKind::Mmap => "mmap",
            PagerKind::File => "file",
        })
    }
}

/// Read access to an immutable on-disk file, with optional residency
/// hints. All methods take `&self`: pagers are shared across worker
/// threads behind the residency manager.
pub trait Pager: Send + Sync {
    /// Backend name for metrics/describe output (`"mmap"` / `"file"`).
    fn backend_name(&self) -> &'static str;
    /// Total file length in bytes.
    fn len(&self) -> usize;
    /// True when the file is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Zero-copy view of the whole file, if this backend maps it.
    /// `None` means callers must go through [`Pager::read_at`].
    fn mapped(&self) -> Option<&[u8]>;
    /// Fills `buf` from absolute offset `off`. Works on every backend
    /// (the mmap backend serves it from the mapping).
    fn read_at(&self, off: u64, buf: &mut [u8]) -> io::Result<()>;
    /// Hint that `[off, off + len)` is about to be touched.
    fn advise_need(&self, off: usize, len: usize);
    /// Hint that `[off, off + len)` will not be touched for a while and
    /// its pages may leave RSS. Data must remain readable afterwards.
    fn advise_dontneed(&self, off: usize, len: usize);
}

/// Opens `path` with the requested backend. `Auto` prefers mmap and
/// falls back to positioned reads if mapping fails or the platform has
/// no mmap backend; explicit kinds do what they are told or error.
pub fn new_pager(kind: PagerKind, path: &Path) -> io::Result<Box<dyn Pager>> {
    match kind {
        PagerKind::File => Ok(Box::new(FilePager::open(path)?)),
        PagerKind::Mmap => {
            let m = mmap::MmapPager::open(path)?;
            Ok(Box::new(m))
        }
        PagerKind::Auto => match mmap::MmapPager::open(path) {
            Ok(m) => Ok(Box::new(m)),
            Err(_) => Ok(Box::new(FilePager::open(path)?)),
        },
    }
}

// ---------------------------------------------------------------------
// Positioned-read backend (portable)

/// Fallback pager: no mapping, every access is an explicit positioned
/// read. Residency hints are no-ops — the caller's own buffers are the
/// resident set, and dropping them is the spill.
pub struct FilePager {
    file: File,
    len: usize,
    /// Seek-based fallback for platforms without positioned reads.
    #[cfg(not(unix))]
    lock: std::sync::Mutex<()>,
}

impl FilePager {
    pub fn open(path: &Path) -> io::Result<FilePager> {
        let file = File::open(path)?;
        let len = file.metadata()?.len();
        let len = usize::try_from(len)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "file too large"))?;
        Ok(FilePager {
            file,
            len,
            #[cfg(not(unix))]
            lock: std::sync::Mutex::new(()),
        })
    }
}

impl Pager for FilePager {
    fn backend_name(&self) -> &'static str {
        "file"
    }
    fn len(&self) -> usize {
        self.len
    }
    fn mapped(&self) -> Option<&[u8]> {
        None
    }
    #[cfg(unix)]
    fn read_at(&self, off: u64, buf: &mut [u8]) -> io::Result<()> {
        std::os::unix::fs::FileExt::read_exact_at(&self.file, buf, off)
    }
    #[cfg(not(unix))]
    fn read_at(&self, off: u64, buf: &mut [u8]) -> io::Result<()> {
        use std::io::{Read, Seek, SeekFrom};
        let _g = self.lock.lock().unwrap();
        let mut f = &self.file;
        f.seek(SeekFrom::Start(off))?;
        f.read_exact(buf)
    }
    fn advise_need(&self, _off: usize, _len: usize) {}
    fn advise_dontneed(&self, _off: usize, _len: usize) {}
}

// ---------------------------------------------------------------------
// Mmap backend (Linux x86_64 / aarch64, raw syscalls)

#[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
pub(crate) mod mmap {
    use super::Pager;
    use std::fs::File;
    use std::io;
    use std::os::unix::io::AsRawFd;
    use std::path::Path;

    const PROT_READ: i64 = 0x1;
    const MAP_PRIVATE: i64 = 0x2;
    const MADV_WILLNEED: i64 = 3;
    const MADV_DONTNEED: i64 = 4;

    /// Hint ranges are aligned inward/outward to this granule. It is a
    /// multiple of every Linux base page size (4K/16K/64K), so a
    /// granule-aligned offset into the page-aligned mapping base is
    /// always page-aligned — no runtime page-size probe needed.
    pub const ADVISE_ALIGN: usize = 64 << 10;

    #[cfg(target_arch = "x86_64")]
    mod nr {
        pub const MMAP: i64 = 9;
        pub const MUNMAP: i64 = 11;
        pub const MADVISE: i64 = 28;
    }

    #[cfg(target_arch = "aarch64")]
    mod nr {
        pub const MMAP: i64 = 222;
        pub const MUNMAP: i64 = 215;
        pub const MADVISE: i64 = 233;
    }

    /// Raw 6-argument syscall. Negative returns are `-errno` (and for
    /// `mmap`, any value in `(-4096, 0)` is an error — valid mappings
    /// are page-aligned addresses).
    #[cfg(target_arch = "x86_64")]
    unsafe fn syscall6(n: i64, a1: i64, a2: i64, a3: i64, a4: i64, a5: i64, a6: i64) -> i64 {
        let ret: i64;
        std::arch::asm!(
            "syscall",
            inlateout("rax") n => ret,
            in("rdi") a1,
            in("rsi") a2,
            in("rdx") a3,
            in("r10") a4,
            in("r8") a5,
            in("r9") a6,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack)
        );
        ret
    }

    #[cfg(target_arch = "aarch64")]
    unsafe fn syscall6(n: i64, a1: i64, a2: i64, a3: i64, a4: i64, a5: i64, a6: i64) -> i64 {
        let ret: i64;
        std::arch::asm!(
            "svc 0",
            in("x8") n,
            inlateout("x0") a1 => ret,
            in("x1") a2,
            in("x2") a3,
            in("x3") a4,
            in("x4") a5,
            in("x5") a6,
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

    /// A read-only private mapping of an entire file.
    pub struct MmapPager {
        /// Mapping base; null for the empty-file degenerate case (the
        /// kernel rejects zero-length maps, so we don't make one).
        ptr: *const u8,
        len: usize,
    }

    // The mapping is read-only and never remapped after construction;
    // concurrent reads from any thread are safe.
    unsafe impl Send for MmapPager {}
    unsafe impl Sync for MmapPager {}

    impl MmapPager {
        pub fn open(path: &Path) -> io::Result<MmapPager> {
            let file = File::open(path)?;
            let len = usize::try_from(file.metadata()?.len())
                .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "file too large"))?;
            if len == 0 {
                return Ok(MmapPager { ptr: std::ptr::null(), len: 0 });
            }
            let ret = unsafe {
                syscall6(
                    nr::MMAP,
                    0,
                    len as i64,
                    PROT_READ,
                    MAP_PRIVATE,
                    file.as_raw_fd() as i64,
                    0,
                )
            };
            // mmap reports errors as -errno in the same word that would
            // otherwise hold the (page-aligned, hence large) address.
            if (-4095..0).contains(&ret) {
                return Err(io::Error::from_raw_os_error((-ret) as i32));
            }
            // The fd may close here; the mapping keeps the inode alive.
            Ok(MmapPager { ptr: ret as *const u8, len })
        }

        /// Issues madvise on the granule-aligned cover (for WILLNEED) or
        /// interior (for DONTNEED) of `[off, off + len)`.
        fn advise(&self, off: usize, len: usize, advice: i64, inward: bool) {
            if self.len == 0 || len == 0 {
                return;
            }
            let end = (off + len).min(self.len);
            let (start, end) = if inward {
                // Only whole granules strictly inside the range may be
                // dropped: a shared boundary page can hold a neighbor's
                // bytes.
                (off.next_multiple_of(ADVISE_ALIGN), end & !(ADVISE_ALIGN - 1))
            } else {
                (off & !(ADVISE_ALIGN - 1), end)
            };
            if start >= end {
                return;
            }
            // Advice is advisory: failures (e.g. locked pages) are not
            // actionable here, so the result is ignored.
            let _ = check(unsafe {
                syscall6(
                    nr::MADVISE,
                    self.ptr as i64 + start as i64,
                    (end - start) as i64,
                    advice,
                    0,
                    0,
                    0,
                )
            });
        }
    }

    impl Drop for MmapPager {
        fn drop(&mut self) {
            if !self.ptr.is_null() {
                let _ = unsafe {
                    syscall6(nr::MUNMAP, self.ptr as i64, self.len as i64, 0, 0, 0, 0)
                };
            }
        }
    }

    impl Pager for MmapPager {
        fn backend_name(&self) -> &'static str {
            "mmap"
        }
        fn len(&self) -> usize {
            self.len
        }
        fn mapped(&self) -> Option<&[u8]> {
            if self.len == 0 {
                return Some(&[]);
            }
            Some(unsafe { std::slice::from_raw_parts(self.ptr, self.len) })
        }
        fn read_at(&self, off: u64, buf: &mut [u8]) -> io::Result<()> {
            let off = usize::try_from(off)
                .map_err(|_| io::Error::new(io::ErrorKind::UnexpectedEof, "offset out of range"))?;
            let end = off
                .checked_add(buf.len())
                .filter(|&e| e <= self.len)
                .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "read past map"))?;
            buf.copy_from_slice(&self.mapped().unwrap()[off..end]);
            Ok(())
        }
        fn advise_need(&self, off: usize, len: usize) {
            self.advise(off, len, MADV_WILLNEED, false);
        }
        fn advise_dontneed(&self, off: usize, len: usize) {
            self.advise(off, len, MADV_DONTNEED, true);
        }
    }
}

/// Platforms without the raw-syscall mmap backend: forcing
/// `PagerKind::Mmap` is an explicit error, `Auto` silently takes the
/// positioned-read path.
#[cfg(not(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64"))))]
pub(crate) mod mmap {
    use super::Pager;
    use std::io;
    use std::path::Path;

    pub struct MmapPager;

    impl MmapPager {
        pub fn open(_path: &Path) -> io::Result<MmapPager> {
            Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "mmap pager is not available on this platform",
            ))
        }
    }

    impl Pager for MmapPager {
        fn backend_name(&self) -> &'static str {
            unreachable!("mmap pager cannot be constructed on this platform")
        }
        fn len(&self) -> usize {
            unreachable!()
        }
        fn mapped(&self) -> Option<&[u8]> {
            unreachable!()
        }
        fn read_at(&self, _off: u64, _buf: &mut [u8]) -> io::Result<()> {
            unreachable!()
        }
        fn advise_need(&self, _off: usize, _len: usize) {}
        fn advise_dontneed(&self, _off: usize, _len: usize) {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixture(name: &str, bytes: &[u8]) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("f3m-pager-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::write(&path, bytes).unwrap();
        path
    }

    fn pattern(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i * 131 % 251) as u8).collect()
    }

    #[test]
    fn kind_names_round_trip() {
        for kind in [PagerKind::Auto, PagerKind::Mmap, PagerKind::File] {
            assert_eq!(PagerKind::parse(&kind.to_string()), Some(kind));
        }
        assert_eq!(PagerKind::parse("bogus"), None);
    }

    #[test]
    fn file_pager_positioned_reads() {
        let data = pattern(10_000);
        let path = fixture("filepager.bin", &data);
        let p = FilePager::open(&path).unwrap();
        assert_eq!(p.backend_name(), "file");
        assert_eq!(p.len(), data.len());
        assert!(p.mapped().is_none());
        let mut buf = vec![0u8; 257];
        p.read_at(4_321, &mut buf).unwrap();
        assert_eq!(&buf[..], &data[4_321..4_321 + 257]);
        // Reading past EOF is an error, not UB or a short read.
        let mut tail = vec![0u8; 16];
        assert!(p.read_at(data.len() as u64 - 8, &mut tail).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
    #[test]
    fn mmap_pager_matches_file_pager() {
        let data = pattern(200_000);
        let path = fixture("mmappager.bin", &data);
        let m = mmap::MmapPager::open(&path).unwrap();
        assert_eq!(m.backend_name(), "mmap");
        assert_eq!(m.len(), data.len());
        assert_eq!(m.mapped().unwrap(), &data[..]);
        let mut buf = vec![0u8; 1000];
        m.read_at(123_456, &mut buf).unwrap();
        assert_eq!(&buf[..], &data[123_456..124_456]);
        assert!(m.read_at(data.len() as u64, &mut [0u8; 1]).is_err());
        // Hints must not invalidate the data (DONTNEED on a file-backed
        // read-only mapping refaults from the file).
        m.advise_dontneed(0, data.len());
        m.advise_need(0, data.len());
        assert_eq!(m.mapped().unwrap(), &data[..]);
        std::fs::remove_file(&path).ok();
    }

    #[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
    #[test]
    fn mmap_pager_empty_file() {
        let path = fixture("empty.bin", &[]);
        let m = mmap::MmapPager::open(&path).unwrap();
        assert_eq!(m.len(), 0);
        assert_eq!(m.mapped(), Some(&[][..]));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn auto_prefers_richest_backend() {
        let data = pattern(64);
        let path = fixture("auto.bin", &data);
        let p = new_pager(PagerKind::Auto, &path).unwrap();
        let expected = if cfg!(all(
            target_os = "linux",
            any(target_arch = "x86_64", target_arch = "aarch64")
        )) {
            "mmap"
        } else {
            "file"
        };
        assert_eq!(p.backend_name(), expected);
        let mut buf = vec![0u8; 64];
        p.read_at(0, &mut buf).unwrap();
        assert_eq!(&buf[..], &data[..]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn forced_file_backend_is_honored() {
        let data = pattern(64);
        let path = fixture("forced.bin", &data);
        let p = new_pager(PagerKind::File, &path).unwrap();
        assert_eq!(p.backend_name(), "file");
        std::fs::remove_file(&path).ok();
    }
}
