//! Positioned reads of an immutable snapshot file: how pool bytes reach
//! memory.
//!
//! [`FilePager`] is the one pager. Every access is an explicit positioned
//! read (`pread` via `FileExt::read_exact_at` on Unix, a seek and a read
//! elsewhere) into a buffer the caller owns; there is no mapping, so the
//! caller's buffers are the resident set and dropping one is the spill.
//! A file truncated under an open pager makes the next read an
//! `UnexpectedEof` error, never a fault in the process.

use std::fs::File;
use std::io;
use std::path::Path;

/// How a resident store reaches its snapshot file. Positioned reads are
/// the only way, so `Auto` is the only value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PagerKind {
    /// Positioned reads, on every platform.
    Auto,
}

/// Read access to an immutable on-disk file by positioned reads.
pub(crate) struct FilePager {
    file: File,
    len: usize,
}

impl FilePager {
    pub(crate) fn open(path: &Path) -> io::Result<FilePager> {
        let file = File::open(path)?;
        let len = usize::try_from(file.metadata()?.len())
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "file too large"))?;
        Ok(FilePager { file, len })
    }

    /// File length in bytes when the pager was opened.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Fills `buf` from absolute offset `off`; a read past the end of the
    /// file is an error, never a short read.
    #[cfg(unix)]
    pub(crate) fn read_at(&self, off: u64, buf: &mut [u8]) -> io::Result<()> {
        std::os::unix::fs::FileExt::read_exact_at(&self.file, buf, off)
    }

    /// Fills `buf` from absolute offset `off`. The seek and the read are
    /// two calls on one shared cursor, so concurrent callers must be
    /// serialized; the resident store reads only under its state mutex.
    #[cfg(not(unix))]
    pub(crate) fn read_at(&self, off: u64, buf: &mut [u8]) -> io::Result<()> {
        use std::io::{Read, Seek, SeekFrom};
        let mut f = &self.file;
        f.seek(SeekFrom::Start(off))?;
        f.read_exact(buf)
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
    fn file_pager_positioned_reads() {
        let data = pattern(10_000);
        let path = fixture("filepager.bin", &data);
        let p = FilePager::open(&path).unwrap();
        assert_eq!(p.len(), data.len());
        let mut buf = vec![0u8; 257];
        p.read_at(4_321, &mut buf).unwrap();
        assert_eq!(&buf[..], &data[4_321..4_321 + 257]);
        // Reading past EOF is an error, not UB or a short read.
        let mut tail = vec![0u8; 16];
        assert!(p.read_at(data.len() as u64 - 8, &mut tail).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn file_pager_empty_file() {
        let path = fixture("empty.bin", &[]);
        let p = FilePager::open(&path).unwrap();
        assert_eq!(p.len(), 0);
        p.read_at(0, &mut []).unwrap();
        assert!(p.read_at(0, &mut [0u8; 1]).is_err());
        std::fs::remove_file(&path).ok();
    }
}
