//! Versioned on-disk index snapshots.
//!
//! A resident daemon that dies loses nothing but time — yet at a million
//! functions, "time" is minutes of re-fingerprinting and re-bucketing.
//! The snapshot captures the whole candidate-search state in one
//! contiguous file, so a restart is a bulk load instead of a rebuild — or,
//! via [`open_snapshot_meta`] + the [`resident`](crate::resident) layer,
//! no pool read at open at all: the SoA pools are read in per shard, by
//! positioned reads, as queries touch them.
//!
//! ## Wire layout, version 3 (all integers little-endian)
//!
//! Version 3 is version 2's layout. The bump marks what the rows mean:
//! signatures computed over structural type codes rather than the
//! arrival-order numbers a v2 file's rows were computed with, which no
//! index may mix, so a v2 file is refused as [`SnapshotError::BadVersion`].
//!
//! ```text
//! off  size
//! ┌──────────────────────────────────────────────────────────────────┐
//! │   0   8  magic        "F3MSNAP1"                                 │
//! │   8   4  version      u32 (= 3)                                  │
//! │  12   1  backend      u8 tag (BackendKind::tag)                  │
//! │  13   4  k            u32  signature slots per function          │
//! │  17   4  rows         u32  LSH rows per band                     │
//! │  21   4  bands        u32  LSH bands (= band keys per function)  │
//! │  25   8  bucket_cap   u64  (usize::MAX stored as u64::MAX)       │
//! │  33   8  threshold    f64  (IEEE-754 bits)                       │
//! │  41   4  reserved     u32  written 1, ignored on load            │
//! │  45   8  epoch        u64  corpus epoch at save time             │
//! │  53   8  entries      u64  n = number of function rows           │
//! │  61   8  payload_len  u64  opaque caller section length          │
//! │  69   8  dir_len      u64  bucket directory length in bytes      │
//! │  77   8  meta_fnv     u64  FNV-1a over [0,77) ++ [85,meta_end)   │
//! │  85   8  pool_fnv     u64  FNV-1a over [meta_end,file_len)       │
//! ├──────────────────────────────────────────────────────────────────┤
//! │  93      bucket directory:  num_buckets u64, then per bucket     │
//! │            key u32 · len u32 · members len × u32  (keys          │
//! │            ascending, members ascending fn ids)                  │
//! ├──────────────────────────────────────────────────────────────────┤
//! │          payload  payload_len bytes (opaque to this layer; the   │
//! │            corpus stores module sources + entry metadata here)   │
//! │          …zero padding to pool_start = align8(meta_end)…         │
//! ├──────────────────────────────────────────────────────────────────┤
//! │          sig pool   n × k u64      (SoA, row-major by fn id)     │
//! │          key pool   n × bands u32  (SoA, row-major by fn id)     │
//! └──────────────────────────────────────────────────────────────────┘
//! meta_end = 93 + dir_len + payload_len
//! ```
//!
//! Version 2 moves the pools to the *end* of the file, 8-byte aligned,
//! and splits the v1 whole-file checksum in two. `meta_fnv` seals the
//! header, directory and payload (everything except its own field) and
//! is verified on every open; `pool_fnv` seals the padding + pools and
//! is only verified by the bulk [`decode_snapshot`] path. That split is
//! what makes lazy residency possible: a store can open the file without
//! reading a single pool byte, because validating the prefix no longer
//! requires streaming the (multi-GiB at chrome scale) pools through a
//! hash. Every reader decodes pool bytes into owned, aligned vectors, so
//! nothing depends on `pool_start` being 8-aligned; it stays aligned
//! because it is part of the format.
//!
//! The pools are verbatim copies of a
//! [`PackedFingerprintStore`](crate::store::PackedFingerprintStore)'s
//! arrays, so saving is two bulk writes and loading reconstitutes the
//! store without per-entry work. The bucket directory is the index's
//! buckets in key order, installed whole by the loader.
//!
//! The word at offset 41 once held the writer's index shard count. The
//! index is one map now; the word stays in the layout, written as 1 —
//! readers that still take it for a shard count refuse 0 — and is read by
//! nobody, so files that hold another count there load unchanged.
//!
//! Every decode failure is a typed [`SnapshotError`] — a truncated or
//! garbled file must degrade to a rebuild, never a panic. Headers are
//! untrusted: every pre-allocation is capped by the bytes actually
//! present, so a hostile `entries`/bucket count cannot force a huge
//! allocation.

use std::fmt;
use std::path::Path;

use crate::backend::BackendKind;
use crate::fnv::{fnv1a, fnv1a_seeded};
use crate::lsh::{BandKey, LshParams};
use crate::store::PackedFingerprintStore;

/// File magic: "F3MSNAP1" (the trailing `1` is part of the magic, not
/// the format version — that lives in the `version` field).
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"F3MSNAP1";
/// Current format version.
pub const SNAPSHOT_VERSION: u32 = 3;

/// Fixed-size header length in bytes (magic through `pool_fnv`).
pub const SNAPSHOT_HEADER_LEN: usize = 93;
/// Offset of the `meta_fnv` field.
const META_FNV_OFF: usize = 77;
/// Offset of the `pool_fnv` field.
const POOL_FNV_OFF: usize = 85;

/// Why a snapshot could not be written or read back.
#[derive(Debug)]
pub enum SnapshotError {
    /// Underlying filesystem error.
    Io(std::io::Error),
    /// The file does not start with [`SNAPSHOT_MAGIC`].
    BadMagic,
    /// The file's format version is not [`SNAPSHOT_VERSION`].
    BadVersion(u32),
    /// The file ends before the structure it promises.
    Truncated,
    /// An FNV-1a checksum (meta or pool) does not match the contents.
    ChecksumMismatch,
    /// Structurally invalid contents (the message names the field).
    Corrupt(&'static str),
    /// The snapshot is internally valid but incompatible with the
    /// configuration trying to load it (e.g. different merge params).
    Mismatch(String),
    /// The snapshot's epoch predates state it claims to contain — the
    /// caller should fall back to a rebuild.
    StaleEpoch {
        /// Epoch recorded in the snapshot header.
        snapshot: u64,
        /// Newest epoch stamp found in the snapshot's own entries.
        newest_entry: u64,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot io error: {e}"),
            SnapshotError::BadMagic => write!(f, "not an F3M snapshot (bad magic)"),
            SnapshotError::BadVersion(v) => {
                write!(f, "unsupported snapshot version {v} (expected {SNAPSHOT_VERSION})")
            }
            SnapshotError::Truncated => write!(f, "snapshot truncated"),
            SnapshotError::ChecksumMismatch => write!(f, "snapshot checksum mismatch"),
            SnapshotError::Corrupt(what) => write!(f, "snapshot corrupt: {what}"),
            SnapshotError::Mismatch(what) => write!(f, "snapshot incompatible: {what}"),
            SnapshotError::StaleEpoch { snapshot, newest_entry } => write!(
                f,
                "snapshot stale: header epoch {snapshot} < newest entry epoch {newest_entry}"
            ),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> SnapshotError {
        SnapshotError::Io(e)
    }
}

/// The fixed-size head of a snapshot: everything needed to decide
/// compatibility before touching the pools.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SnapshotHeader {
    /// Fingerprint family the signatures were produced by.
    pub backend: BackendKind,
    /// Signature slots per function.
    pub k: usize,
    /// Banding parameters.
    pub lsh: LshParams,
    /// Similarity threshold the index was built for.
    pub threshold: f64,
    /// Corpus epoch at save time.
    pub epoch: u64,
    /// Number of function rows.
    pub entries: usize,
}

/// Byte geometry of a snapshot file: where each region lives. Derived
/// entirely from the (checksummed) header, so a prefix read suffices to
/// compute it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SnapshotLayout {
    /// Bucket directory length in bytes (starts at [`SNAPSHOT_HEADER_LEN`]).
    pub dir_len: usize,
    /// Opaque payload length in bytes (follows the directory).
    pub payload_len: usize,
    /// End of the meta region: header + directory + payload.
    pub meta_end: usize,
    /// Start of the signature pool: `meta_end` rounded up to 8 bytes.
    pub pool_start: usize,
    /// Signature pool size in bytes (`entries × k × 8`).
    pub sig_pool_bytes: usize,
    /// Band-key pool size in bytes (`entries × bands × 4`).
    pub key_pool_bytes: usize,
    /// Total file size implied by the header.
    pub file_len: usize,
}

/// Everything except the pools: the validated meta prefix of a snapshot.
/// This is what a lazy/resident open materializes — the pools stay on
/// disk behind the [`SnapshotLayout`] geometry.
#[derive(Debug)]
pub struct SnapshotMeta {
    pub header: SnapshotHeader,
    /// Byte geometry of the whole file.
    pub layout: SnapshotLayout,
    /// Bucket directory: `(key, ascending fn ids)`, ascending by key.
    pub buckets: Vec<(BandKey, Vec<u32>)>,
    /// The caller's opaque section (corpus metadata).
    pub payload: Vec<u8>,
    /// Stored pool checksum (verified only by the bulk decode path).
    pub pool_fnv: u64,
}

/// A fully decoded snapshot.
#[derive(Debug)]
pub struct SnapshotFile {
    pub header: SnapshotHeader,
    /// The packed signature + band-key pools.
    pub store: PackedFingerprintStore,
    /// Bucket directory: `(key, ascending fn ids)`, ascending by key.
    pub buckets: Vec<(BandKey, Vec<u32>)>,
    /// The caller's opaque section (corpus metadata).
    pub payload: Vec<u8>,
}

/// Little-endian byte writer: the one encoder behind the header, the
/// bucket directory and the caller's payload section.
#[derive(Default)]
pub struct Writer {
    pub buf: Vec<u8>,
}

impl Writer {
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    /// A `u32` byte length, then the UTF-8 bytes.
    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }
}

/// Bounds-checked little-endian reader, the inverse of [`Writer`].
/// Running off the end is [`SnapshotError::Truncated`].
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self.pos.checked_add(n).ok_or(SnapshotError::Truncated)?;
        let s = self.buf.get(self.pos..end).ok_or(SnapshotError::Truncated)?;
        self.pos = end;
        Ok(s)
    }
    pub fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    pub fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    /// A string written by [`Writer::str`].
    pub fn str(&mut self) -> Result<String, SnapshotError> {
        let len = self.u32()? as usize;
        String::from_utf8(self.take(len)?.to_vec())
            .map_err(|_| SnapshotError::Corrupt("string is not UTF-8"))
    }
    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
}

fn align8(n: usize) -> usize {
    (n + 7) & !7
}

/// Serializes a snapshot to bytes (header, directory, payload, padding,
/// pools) with both checksums sealed.
///
/// # Panics
///
/// Panics if the store's row widths disagree with the header, or if a
/// bucket member id does not fit the entry count — these are programming
/// errors on the save path, not recoverable conditions.
pub fn encode_snapshot(
    header: &SnapshotHeader,
    store: &PackedFingerprintStore,
    buckets: &[(BandKey, Vec<u32>)],
    payload: &[u8],
) -> Vec<u8> {
    assert_eq!(store.k(), header.k, "store width disagrees with header");
    assert_eq!(store.bands(), header.lsh.bands, "store bands disagree with header");
    assert_eq!(store.len(), header.entries, "store rows disagree with header");

    let mut dir = Writer::default();
    dir.u64(buckets.len() as u64);
    for (key, members) in buckets {
        dir.u32(*key);
        dir.u32(members.len() as u32);
        for &m in members {
            dir.u32(m);
        }
    }
    let dir_len = dir.buf.len();

    let mut w = Writer {
        buf: Vec::with_capacity(
            SNAPSHOT_HEADER_LEN + dir_len + payload.len() + store.total_bytes() + 8,
        ),
    };
    w.buf.extend_from_slice(SNAPSHOT_MAGIC);
    w.u32(SNAPSHOT_VERSION);
    w.u8(header.backend.tag());
    w.u32(header.k as u32);
    w.u32(header.lsh.rows as u32);
    w.u32(header.lsh.bands as u32);
    w.u64(header.lsh.bucket_cap as u64);
    w.u64(header.threshold.to_bits());
    w.u32(1); // reserved (module docs)
    w.u64(header.epoch);
    w.u64(header.entries as u64);
    w.u64(payload.len() as u64);
    w.u64(dir_len as u64);
    w.u64(0); // meta_fnv, patched below
    w.u64(0); // pool_fnv, patched below
    assert_eq!(w.buf.len(), SNAPSHOT_HEADER_LEN, "header layout drifted");

    w.buf.extend_from_slice(&dir.buf);
    w.buf.extend_from_slice(payload);
    let meta_end = w.buf.len();
    w.buf.resize(align8(meta_end), 0);
    for &s in store.sig_pool() {
        w.u64(s);
    }
    for &k in store.key_pool() {
        w.u32(k);
    }

    // pool_fnv first: meta_fnv covers the sealed pool_fnv field bytes.
    let pool_fnv = fnv1a(&w.buf[meta_end..]);
    w.buf[POOL_FNV_OFF..POOL_FNV_OFF + 8].copy_from_slice(&pool_fnv.to_le_bytes());
    let meta_fnv = fnv1a_seeded(fnv1a(&w.buf[..META_FNV_OFF]), &w.buf[POOL_FNV_OFF..meta_end]);
    w.buf[META_FNV_OFF..META_FNV_OFF + 8].copy_from_slice(&meta_fnv.to_le_bytes());
    w.buf
}

fn read_u32(buf: &[u8], off: usize) -> u32 {
    u32::from_le_bytes(buf[off..off + 4].try_into().unwrap())
}

fn read_u64(buf: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(buf[off..off + 8].try_into().unwrap())
}

/// A little-endian `u64` pool as written by [`encode_snapshot`].
pub(crate) fn le_u64s(bytes: &[u8]) -> Vec<u64> {
    bytes.chunks_exact(8).map(|c| u64::from_le_bytes(c.try_into().unwrap())).collect()
}

/// A little-endian `u32` pool as written by [`encode_snapshot`].
pub(crate) fn le_u32s(bytes: &[u8]) -> Vec<u32> {
    bytes.chunks_exact(4).map(|c| u32::from_le_bytes(c.try_into().unwrap())).collect()
}

/// Checks the magic, version and length of a snapshot's fixed header and
/// returns the `meta_end` it states (header + directory + payload).
fn header_meta_end(buf: &[u8]) -> Result<u64, SnapshotError> {
    if buf.len() < SNAPSHOT_MAGIC.len() + 8 {
        return Err(SnapshotError::Truncated);
    }
    if !buf.starts_with(SNAPSHOT_MAGIC) {
        return Err(SnapshotError::BadMagic);
    }
    // Version before checksum: a future format may checksum differently,
    // so hashing its bytes under v2 rules would mislabel it as corrupt.
    let version = read_u32(buf, 8);
    if version != SNAPSHOT_VERSION {
        return Err(SnapshotError::BadVersion(version));
    }
    if buf.len() < SNAPSHOT_HEADER_LEN {
        return Err(SnapshotError::Truncated);
    }
    (SNAPSHOT_HEADER_LEN as u64)
        .checked_add(read_u64(buf, 69))
        .and_then(|v| v.checked_add(read_u64(buf, 61)))
        .ok_or(SnapshotError::Truncated)
}

/// Parses and validates the meta region of a snapshot from `buf`, which
/// must hold at least the first `meta_end` bytes of the file;
/// `file_len` is the true on-disk length (used to validate the implied
/// pool geometry without reading the pools).
///
/// Validation order matters for error typing: magic → version →
/// meta-region bounds → meta checksum → structural checks. Structural
/// `Corrupt` errors therefore only fire on files that were *written*
/// malformed, never on bit rot (that's a `ChecksumMismatch`) or short
/// files (`Truncated`).
pub fn decode_snapshot_meta(buf: &[u8], file_len: u64) -> Result<SnapshotMeta, SnapshotError> {
    let meta_end64 = header_meta_end(buf)?;
    let payload_len64 = read_u64(buf, 61);
    let dir_len64 = read_u64(buf, 69);
    let meta_fnv = read_u64(buf, META_FNV_OFF);
    let pool_fnv = read_u64(buf, POOL_FNV_OFF);
    if meta_end64 > file_len || meta_end64 > buf.len() as u64 {
        return Err(SnapshotError::Truncated);
    }
    let meta_end = meta_end64 as usize;
    let got = fnv1a_seeded(fnv1a(&buf[..META_FNV_OFF]), &buf[POOL_FNV_OFF..meta_end]);
    if got != meta_fnv {
        return Err(SnapshotError::ChecksumMismatch);
    }

    // From here on the meta region is exactly what was written; any
    // structural failure means the writer lied.
    let backend = match buf[12] {
        BackendKind::RETIRED_TAG => {
            return Err(SnapshotError::Mismatch(
                "written by a fingerprint backend that has since been retired (tag 2); \
                 re-ingest its sources under minhash, simhash or embed"
                    .to_string(),
            ))
        }
        tag => BackendKind::from_tag(tag).ok_or(SnapshotError::Corrupt("unknown backend tag"))?,
    };
    let k = read_u32(buf, 13) as usize;
    let rows = read_u32(buf, 17) as usize;
    let bands = read_u32(buf, 21) as usize;
    let bucket_cap = usize::try_from(read_u64(buf, 25)).unwrap_or(usize::MAX);
    let threshold = f64::from_bits(read_u64(buf, 33));
    let epoch = read_u64(buf, 45);
    let entries =
        usize::try_from(read_u64(buf, 53)).map_err(|_| SnapshotError::Corrupt("entry count"))?;
    if k == 0 || rows == 0 || bands == 0 {
        return Err(SnapshotError::Corrupt("zero row width"));
    }
    if k < rows * bands {
        return Err(SnapshotError::Corrupt("k smaller than rows × bands"));
    }
    if !threshold.is_finite() {
        return Err(SnapshotError::Corrupt("non-finite threshold"));
    }

    // Pool geometry implied by the header; validated against the true
    // file length so a hostile `entries` cannot force an allocation —
    // the check fails before any pool byte is touched.
    let sig_pool_bytes = entries
        .checked_mul(k)
        .and_then(|v| v.checked_mul(8))
        .ok_or(SnapshotError::Corrupt("sig pool size"))?;
    let key_pool_bytes = entries
        .checked_mul(bands)
        .and_then(|v| v.checked_mul(4))
        .ok_or(SnapshotError::Corrupt("key pool size"))?;
    let pool_start = align8(meta_end);
    let expected_len = (pool_start as u64)
        .checked_add(sig_pool_bytes as u64)
        .and_then(|v| v.checked_add(key_pool_bytes as u64))
        .ok_or(SnapshotError::Corrupt("file size overflow"))?;
    if file_len < expected_len {
        return Err(SnapshotError::Truncated);
    }
    if file_len > expected_len {
        return Err(SnapshotError::Corrupt("trailing bytes"));
    }

    let dir_len = dir_len64 as usize;
    let mut r = Reader::new(&buf[SNAPSHOT_HEADER_LEN..SNAPSHOT_HEADER_LEN + dir_len]);
    let buckets = parse_directory(&mut r, entries)?;
    if r.remaining() != 0 {
        return Err(SnapshotError::Corrupt("bucket directory trailing bytes"));
    }
    let payload = buf[SNAPSHOT_HEADER_LEN + dir_len..meta_end].to_vec();

    Ok(SnapshotMeta {
        header: SnapshotHeader {
            backend,
            k,
            lsh: LshParams { rows, bands, bucket_cap },
            threshold,
            epoch,
            entries,
        },
        layout: SnapshotLayout {
            dir_len,
            payload_len: payload_len64 as usize,
            meta_end,
            pool_start,
            sig_pool_bytes,
            key_pool_bytes,
            file_len: expected_len as usize,
        },
        buckets,
        payload,
        pool_fnv,
    })
}

/// Parses the bucket directory. The region is checksum-verified before
/// this runs, so running off its end means the directory lies about
/// itself — `Corrupt`, not `Truncated`.
fn parse_directory(
    r: &mut Reader<'_>,
    entries: usize,
) -> Result<Vec<(BandKey, Vec<u32>)>, SnapshotError> {
    let truncated = |e| match e {
        SnapshotError::Truncated => SnapshotError::Corrupt("bucket directory truncated"),
        other => other,
    };
    let num_buckets = usize::try_from(r.u64().map_err(truncated)?)
        .map_err(|_| SnapshotError::Corrupt("bucket count"))?;
    // Untrusted count: each bucket needs ≥ 12 bytes (key + len + one
    // member), so cap the pre-allocation by what is physically present.
    let mut buckets: Vec<(BandKey, Vec<u32>)> =
        Vec::with_capacity(num_buckets.min(r.remaining() / 12));
    let mut last_key: Option<BandKey> = None;
    for _ in 0..num_buckets {
        let key = r.u32().map_err(truncated)?;
        if let Some(prev) = last_key {
            if key <= prev {
                return Err(SnapshotError::Corrupt("bucket keys not ascending"));
            }
        }
        last_key = Some(key);
        let len = r.u32().map_err(truncated)? as usize;
        if len == 0 {
            return Err(SnapshotError::Corrupt("empty bucket"));
        }
        let members = le_u32s(
            r.take(len.checked_mul(4).ok_or(SnapshotError::Corrupt("bucket size"))?)
                .map_err(truncated)?,
        );
        if !members.windows(2).all(|w| w[0] < w[1]) {
            return Err(SnapshotError::Corrupt("bucket members not ascending"));
        }
        if members.iter().any(|&m| m as usize >= entries) {
            return Err(SnapshotError::Corrupt("bucket member out of range"));
        }
        buckets.push((key, members));
    }
    Ok(buckets)
}

/// Decodes and validates snapshot bytes, pools included. Inverse of
/// [`encode_snapshot`]; every malformation maps to a typed
/// [`SnapshotError`].
pub fn decode_snapshot(bytes: &[u8]) -> Result<SnapshotFile, SnapshotError> {
    let meta = decode_snapshot_meta(bytes, bytes.len() as u64)?;
    let l = meta.layout;
    if fnv1a(&bytes[l.meta_end..]) != meta.pool_fnv {
        return Err(SnapshotError::ChecksumMismatch);
    }
    let sigs = le_u64s(&bytes[l.pool_start..l.pool_start + l.sig_pool_bytes]);
    let keys = le_u32s(&bytes[l.pool_start + l.sig_pool_bytes..]);
    let store = PackedFingerprintStore::from_pools(meta.header.k, meta.header.lsh.bands, sigs, keys)
        .ok_or(SnapshotError::Corrupt("inconsistent pools"))?;
    Ok(SnapshotFile { header: meta.header, store, buckets: meta.buckets, payload: meta.payload })
}

/// Writes a snapshot file atomically (temp file + rename), so a crash
/// mid-save never leaves a half-written snapshot where a loader expects a
/// valid one.
pub fn save_snapshot(
    path: &Path,
    header: &SnapshotHeader,
    store: &PackedFingerprintStore,
    buckets: &[(BandKey, Vec<u32>)],
    payload: &[u8],
) -> Result<(), SnapshotError> {
    let bytes = encode_snapshot(header, store, buckets, payload);
    let tmp = path.with_extension("tmp");
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    std::fs::write(&tmp, &bytes)?;
    std::fs::rename(&tmp, path)?;
    Ok(())
}

/// Reads and validates a snapshot file — the whole file in one bulk read
/// (the layout is contiguous precisely so this is a single sequential
/// I/O), then a zero-rebuild decode. Verifies both checksums.
pub fn open_snapshot(path: &Path) -> Result<SnapshotFile, SnapshotError> {
    let bytes = std::fs::read(path)?;
    decode_snapshot(&bytes)
}

/// Reads and validates only the meta prefix of a snapshot file — header,
/// bucket directory and payload — leaving the pools untouched on disk.
/// This is the O(meta) entry point for resident opens: at chrome scale
/// the meta region is a few MiB while the pools are GiBs.
///
/// The pool checksum is *not* verified here (that would require reading
/// the pools); the returned [`SnapshotMeta::pool_fnv`] lets a caller do
/// so later if it wants the full-integrity path.
pub fn open_snapshot_meta(path: &Path) -> Result<SnapshotMeta, SnapshotError> {
    use std::io::Read;
    let mut f = std::fs::File::open(path)?;
    let file_len = f.metadata()?.len();
    let mut buf = Vec::new();
    (&mut f).take(SNAPSHOT_HEADER_LEN as u64).read_to_end(&mut buf)?;
    let meta_end = header_meta_end(&buf)?;
    if meta_end > file_len {
        return Err(SnapshotError::Truncated);
    }
    (&mut f).take(meta_end - SNAPSHOT_HEADER_LEN as u64).read_to_end(&mut buf)?;
    if (buf.len() as u64) < meta_end {
        return Err(SnapshotError::Truncated);
    }
    decode_snapshot_meta(&buf, file_len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lsh::{band_keys_for, LshIndex};
    use crate::fnv::xor_constants;
    use crate::minhash::minhash_signature;

    fn params() -> LshParams {
        LshParams { rows: 2, bands: 16, bucket_cap: 100 }
    }

    fn build_fixture(n: u32) -> (SnapshotHeader, PackedFingerprintStore, Vec<(BandKey, Vec<u32>)>) {
        let p = params();
        let mut store = PackedFingerprintStore::with_capacity(32, p.bands, n as usize);
        let mut index: LshIndex<u32> = LshIndex::new(p);
        for i in 0..n {
            let stream: Vec<u32> = (i % 5..i % 5 + 30).collect();
            let sig = minhash_signature(&xor_constants(32), &stream);
            let keys = band_keys_for(p, &sig);
            store.push_with_keys(&sig, &keys);
            index.insert_with_keys(i, &keys);
        }
        let header = SnapshotHeader {
            backend: BackendKind::MinHash,
            k: 32,
            lsh: p,
            threshold: 0.25,
            epoch: 9,
            entries: n as usize,
        };
        (header, store, index.export_buckets())
    }

    /// Re-seals the meta checksum after a test mutates the meta region,
    /// so structural/version checks can be exercised behind a valid
    /// checksum.
    fn reseal_meta(bytes: &mut [u8]) {
        let payload_len = read_u64(bytes, 61) as usize;
        let dir_len = read_u64(bytes, 69) as usize;
        let meta_end = SNAPSHOT_HEADER_LEN + dir_len + payload_len;
        let sum = fnv1a_seeded(fnv1a(&bytes[..META_FNV_OFF]), &bytes[POOL_FNV_OFF..meta_end]);
        bytes[META_FNV_OFF..META_FNV_OFF + 8].copy_from_slice(&sum.to_le_bytes());
    }

    #[test]
    fn encode_decode_is_a_fixpoint() {
        let (header, store, buckets) = build_fixture(12);
        let payload = b"opaque corpus bytes".to_vec();
        let bytes = encode_snapshot(&header, &store, &buckets, &payload);
        let snap = decode_snapshot(&bytes).expect("valid snapshot decodes");
        assert_eq!(snap.header, header);
        assert_eq!(snap.store, store);
        assert_eq!(snap.buckets, buckets);
        assert_eq!(snap.payload, payload);
        // Re-encoding the decoded snapshot is byte-identical.
        assert_eq!(
            encode_snapshot(&snap.header, &snap.store, &snap.buckets, &snap.payload),
            bytes
        );
    }

    /// The reserved word at offset 41 is written as 1 and read by nobody:
    /// files carrying another value there — the shard counts older
    /// writers stored — decode to the same header, store and buckets.
    #[test]
    fn the_reserved_word_is_ignored_on_load() {
        let (header, store, buckets) = build_fixture(12);
        let clean = encode_snapshot(&header, &store, &buckets, b"payload");
        assert_eq!(read_u32(&clean, 41), 1);
        for word in [1u32, 4, 8] {
            let mut bytes = clean.clone();
            bytes[41..45].copy_from_slice(&word.to_le_bytes());
            reseal_meta(&mut bytes);
            let snap = decode_snapshot(&bytes).expect("any reserved word decodes");
            assert_eq!(snap.header, header, "word {word}");
            assert_eq!(snap.store, store, "word {word}");
            assert_eq!(snap.buckets, buckets, "word {word}");
        }
    }

    #[test]
    fn sig_pool_is_eight_byte_aligned() {
        // The v2 layout puts the pools at an 8-aligned offset with zeroed
        // padding before them; the format keeps both.
        for n in [0u32, 1, 6, 12] {
            for payload in [&b""[..], b"x", b"seven b", b"unaligned payload!"] {
                let (mut header, store, buckets) = build_fixture(n);
                header.entries = store.len();
                let bytes = encode_snapshot(&header, &store, &buckets, payload);
                let meta = decode_snapshot_meta(&bytes, bytes.len() as u64).expect("meta decodes");
                assert_eq!(meta.layout.pool_start % 8, 0, "n={n} payload={payload:?}");
                assert_eq!(meta.layout.file_len, bytes.len());
                // Padding is zeroed.
                assert!(bytes[meta.layout.meta_end..meta.layout.pool_start]
                    .iter()
                    .all(|&b| b == 0));
            }
        }
    }

    #[test]
    fn empty_snapshot_round_trips() {
        let p = params();
        let header = SnapshotHeader {
            backend: BackendKind::Embed,
            k: 32,
            lsh: p,
            threshold: 0.0,
            epoch: 0,
            entries: 0,
        };
        let store = PackedFingerprintStore::with_capacity(32, p.bands, 0);
        let bytes = encode_snapshot(&header, &store, &[], &[]);
        let snap = decode_snapshot(&bytes).expect("empty snapshot decodes");
        assert_eq!(snap.header.entries, 0);
        assert_eq!(snap.header.backend, BackendKind::Embed);
        assert!(snap.buckets.is_empty());
    }

    #[test]
    fn save_open_round_trips_via_file() {
        let (header, store, buckets) = build_fixture(8);
        let dir = std::env::temp_dir().join("f3m-snapshot-test");
        let path = dir.join("roundtrip.f3msnap");
        save_snapshot(&path, &header, &store, &buckets, b"p").expect("save");
        let snap = open_snapshot(&path).expect("open");
        assert_eq!(snap.header, header);
        assert_eq!(snap.store, store);
        assert_eq!(snap.buckets, buckets);
        assert_eq!(snap.payload, b"p");
        // The meta-only open agrees with the bulk open without reading
        // the pools.
        let meta = open_snapshot_meta(&path).expect("open meta");
        assert_eq!(meta.header, header);
        assert_eq!(meta.buckets, snap.buckets);
        assert_eq!(meta.payload, snap.payload);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn every_truncation_is_a_typed_error_never_a_panic() {
        let (header, store, buckets) = build_fixture(6);
        let bytes = encode_snapshot(&header, &store, &buckets, b"payload");
        for cut in 0..bytes.len() {
            let err = decode_snapshot(&bytes[..cut]).expect_err("truncation must fail");
            assert!(
                matches!(
                    err,
                    SnapshotError::Truncated
                        | SnapshotError::ChecksumMismatch
                        | SnapshotError::BadMagic
                ),
                "cut at {cut}: unexpected error {err}"
            );
        }
    }

    #[test]
    fn truncated_pools_are_truncated_not_corrupt() {
        // Cuts that land inside the pool region specifically must read as
        // Truncated: the meta prefix is intact, so the header's implied
        // file length is the only thing that can catch it.
        let (header, store, buckets) = build_fixture(6);
        let bytes = encode_snapshot(&header, &store, &buckets, b"payload");
        let meta = decode_snapshot_meta(&bytes, bytes.len() as u64).expect("meta");
        for cut in [meta.layout.meta_end, meta.layout.pool_start + 1, bytes.len() - 1] {
            assert!(
                matches!(decode_snapshot(&bytes[..cut]), Err(SnapshotError::Truncated)),
                "cut at {cut} inside pools must be Truncated"
            );
        }
    }

    #[test]
    fn mid_pool_corruption_is_a_checksum_mismatch() {
        // A bit flip inside the pools leaves the meta prefix valid — the
        // meta-only open accepts it (by design: it never reads pools),
        // but the full decode must flag the pool checksum.
        let (header, store, buckets) = build_fixture(6);
        let clean = encode_snapshot(&header, &store, &buckets, b"payload");
        let meta = decode_snapshot_meta(&clean, clean.len() as u64).expect("meta");
        let l = meta.layout;
        for pos in [l.meta_end, l.pool_start, (l.pool_start + l.file_len) / 2, l.file_len - 1] {
            let mut bad = clean.clone();
            bad[pos] ^= 0x5A;
            assert!(
                matches!(decode_snapshot(&bad), Err(SnapshotError::ChecksumMismatch)),
                "pool flip at {pos} must be ChecksumMismatch"
            );
            assert!(
                decode_snapshot_meta(&bad, bad.len() as u64).is_ok(),
                "meta-only decode does not read pools (flip at {pos})"
            );
        }
    }

    #[test]
    fn garbled_bytes_are_rejected() {
        let (header, store, buckets) = build_fixture(6);
        let clean = encode_snapshot(&header, &store, &buckets, b"payload");
        // Flip one byte at a sample of positions: always an error.
        for pos in (0..clean.len()).step_by(7) {
            let mut bad = clean.clone();
            bad[pos] ^= 0x5A;
            assert!(decode_snapshot(&bad).is_err(), "flip at {pos} must be rejected");
        }
        // Wrong magic is reported as such.
        let mut wrong_magic = clean.clone();
        wrong_magic[0] = b'X';
        assert!(matches!(decode_snapshot(&wrong_magic), Err(SnapshotError::BadMagic)));
        // A checksum-valid file with an unsupported version is BadVersion.
        let mut future = clean.clone();
        future[8..12].copy_from_slice(&99u32.to_le_bytes());
        reseal_meta(&mut future);
        assert!(matches!(decode_snapshot(&future), Err(SnapshotError::BadVersion(99))));
        // So is one written before type codes were structural: its rows
        // were computed under another instruction encoding.
        let mut arrival_numbered = clean.clone();
        arrival_numbered[8..12].copy_from_slice(&2u32.to_le_bytes());
        reseal_meta(&mut arrival_numbered);
        assert!(matches!(decode_snapshot(&arrival_numbered), Err(SnapshotError::BadVersion(2))));
        // A checksum-valid file carrying the retired backend's tag is
        // refused by what it is, an unknown tag as corruption.
        let mut retired = clean.clone();
        retired[12] = BackendKind::RETIRED_TAG;
        reseal_meta(&mut retired);
        match decode_snapshot(&retired) {
            Err(SnapshotError::Mismatch(why)) => assert!(why.contains("retired"), "{why}"),
            other => panic!("tag 2 must be refused as retired, got {:?}", other.map(|_| ())),
        }
        let mut unknown = clean.clone();
        unknown[12] = 4;
        reseal_meta(&mut unknown);
        assert!(matches!(
            decode_snapshot(&unknown),
            Err(SnapshotError::Corrupt("unknown backend tag"))
        ));
    }

    #[test]
    fn hostile_header_cannot_force_a_huge_allocation() {
        // An attacker-controlled entry count must fail the implied-length
        // check before any pool allocation happens.
        let (header, store, buckets) = build_fixture(6);
        let mut bytes = encode_snapshot(&header, &store, &buckets, b"payload");
        bytes[53..61].copy_from_slice(&(1u64 << 40).to_le_bytes());
        reseal_meta(&mut bytes);
        assert!(matches!(decode_snapshot(&bytes), Err(SnapshotError::Truncated)));
        // An entry count whose pool size overflows entirely is Corrupt.
        let (header, store, buckets) = build_fixture(6);
        let mut bytes = encode_snapshot(&header, &store, &buckets, b"payload");
        bytes[53..61].copy_from_slice(&u64::MAX.to_le_bytes());
        reseal_meta(&mut bytes);
        assert!(matches!(decode_snapshot(&bytes), Err(SnapshotError::Corrupt(_))));

        // Same for a hostile bucket count: the directory region is tiny,
        // so the capped pre-allocation stays tiny and the parse fails as
        // a typed Corrupt.
        let (header, store, buckets) = build_fixture(6);
        let mut bytes = encode_snapshot(&header, &store, &buckets, b"payload");
        bytes[SNAPSHOT_HEADER_LEN..SNAPSHOT_HEADER_LEN + 8]
            .copy_from_slice(&(u64::MAX / 2).to_le_bytes());
        reseal_meta(&mut bytes);
        assert!(matches!(
            decode_snapshot(&bytes),
            Err(SnapshotError::Corrupt("bucket directory truncated"))
        ));
    }

    #[test]
    fn structural_corruption_is_detected_behind_a_valid_checksum() {
        // Craft a file whose checksum is right but whose bucket directory
        // lies — decode must still reject it with Corrupt.
        let (header, store, mut buckets) = build_fixture(6);
        buckets[0].1.push(100); // member id out of range (entries = 6)
        let bytes = encode_snapshot(&header, &store, &buckets, &[]);
        assert!(matches!(
            decode_snapshot(&bytes),
            Err(SnapshotError::Corrupt("bucket member out of range"))
        ));

        let (header, store, mut buckets) = build_fixture(6);
        buckets[0].1.reverse();
        if buckets[0].1.len() > 1 {
            let bytes = encode_snapshot(&header, &store, &buckets, &[]);
            assert!(matches!(
                decode_snapshot(&bytes),
                Err(SnapshotError::Corrupt("bucket members not ascending"))
            ));
        }
    }

    #[test]
    fn open_missing_file_is_io_error() {
        let err = open_snapshot(Path::new("/nonexistent/f3m.snap")).expect_err("missing file");
        assert!(matches!(err, SnapshotError::Io(_)));
        assert!(err.to_string().contains("io error"));
        let err =
            open_snapshot_meta(Path::new("/nonexistent/f3m.snap")).expect_err("missing file");
        assert!(matches!(err, SnapshotError::Io(_)));
    }
}
