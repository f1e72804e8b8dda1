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
//! ## Wire layout, version 5 (all integers little-endian)
//!
//! Rows are signatures computed over structural type codes, which no
//! index may mix with another encoding's, and the header has no word
//! that readers ignore: a file of any other version is refused as
//! [`SnapshotError::BadVersion`] before another byte is read.
//!
//! ```text
//! off  size
//! ┌──────────────────────────────────────────────────────────────────┐
//! │   0   8  magic        "F3MSNAP1"                                 │
//! │   8   4  version      u32 (= 5)                                  │
//! │  12   1  backend      u8 tag (BackendKind::tag)                  │
//! │  13   4  k            u32  signature slots per function          │
//! │  17   4  rows         u32  LSH rows per band                     │
//! │  21   4  bands        u32  LSH bands (= band keys per function)  │
//! │  25   8  bucket_cap   u64  (usize::MAX stored as u64::MAX)       │
//! │  33   8  threshold    f64  (IEEE-754 bits)                       │
//! │  41   8  epoch        u64  corpus epoch at save time             │
//! │  49   8  entries      u64  n = number of function rows           │
//! │  57   8  payload_len  u64  opaque caller section length          │
//! │  65   8  dir_len      u64  bucket directory length in bytes      │
//! │  73   8  meta_sum     u64  XXH64 over [0,73) ++ [81,meta_end)    │
//! │  81   8  pool_sum     u64  XXH64 over [meta_end,file_len)        │
//! ├──────────────────────────────────────────────────────────────────┤
//! │  89      bucket directory:  num_buckets u64, then per bucket     │
//! │            key u32 · len u32 · members len × u32  (keys          │
//! │            ascending, members ascending fn ids)                  │
//! ├──────────────────────────────────────────────────────────────────┤
//! │          payload  payload_len bytes (opaque to this layer; the   │
//! │            corpus stores module sources + per-row module/func)   │
//! │          …zero padding to pool_start = align8(meta_end)…         │
//! ├──────────────────────────────────────────────────────────────────┤
//! │          sig pool   n × k u64      (SoA, row-major by fn id)     │
//! │          key pool   n × bands u32  (SoA, row-major by fn id)     │
//! └──────────────────────────────────────────────────────────────────┘
//! meta_end = 89 + dir_len + payload_len
//! ```
//!
//! Version 2 moved the pools to the *end* of the file, 8-byte aligned,
//! and split the v1 whole-file checksum in two. `meta_sum` seals the
//! header, directory and payload (everything except its own field) and
//! is verified on every open; `pool_sum` seals the padding + pools and
//! is only verified by the bulk [`decode_snapshot`] path. That split is
//! what makes lazy residency possible: a store can open the file without
//! reading a single pool byte, because validating the prefix no longer
//! requires streaming the (multi-GiB at chrome scale) pools through a
//! hash. Every reader decodes pool bytes into owned, aligned vectors, so
//! nothing depends on `pool_start` being 8-aligned; it stays aligned
//! because it is part of the format.
//!
//! Version 5 changed only the two sums: both are XXH64 (`meta_sum` is the
//! seeded continuation `xxh64(xxh64(0, [0,73)), [81,meta_end))`,
//! `pool_sum` is `xxh64(0, [meta_end,file_len))`). Through v4 they were
//! byte-serial FNV-1a, whose one multiply per byte made the two sums most
//! of a bulk restore; XXH64 folds four 8-byte lanes at a time and runs at
//! memory speed. FNV-1a stays the fingerprint hash (paper Section III-B):
//! no signature slot or band key changed.
//!
//! The pools are verbatim copies of a
//! [`PackedFingerprintStore`](crate::store::PackedFingerprintStore)'s
//! arrays, so saving is two bulk writes and loading reconstitutes the
//! store without per-entry work. The bucket directory is the index's
//! buckets in key order, members as `u32` row ids — the id width the
//! corpus's index holds — and is decoded into a flat
//! [`BucketDirectory`] (keys, starts, members) that the index takes over
//! as its bucket pool.
//!
//! ## Reading
//!
//! One decoder, [`read_snapshot`], serves every bulk read: a file
//! ([`open_snapshot`]) or a byte slice ([`decode_snapshot`]). It never
//! holds the file whole. It reads the 89-byte header, then the directory
//! and the payload into one buffer each, and checks `meta_sum` over them
//! before any structural parse, so bit rot stays a `ChecksumMismatch`.
//! The payload buffer is the one returned, so it is not copied again. The
//! pools then stream through one buffer of at most 1 MiB: each chunk is
//! hashed into `pool_sum` by a streaming XXH64 — equal to the one-shot
//! sum wherever the chunks split — and decoded straight into the store's
//! vectors. A meta-only open ([`open_snapshot_meta`]) is the first half.
//! Short and interrupted reads are retried; a stream that ends early is
//! `Truncated`.
//!
//! Every decode failure is a typed [`SnapshotError`] — a truncated or
//! garbled file must degrade to an empty start, never a panic. Headers are
//! untrusted: every pre-allocation is capped by the bytes actually
//! present, so a hostile `entries`/bucket count cannot force a huge
//! allocation.

use std::fmt;
use std::fs::File;
use std::io::{self, Read};
use std::path::Path;

use crate::backend::BackendKind;
use crate::lsh::{BucketDirectory, LshParams};
use crate::store::PackedFingerprintStore;

/// File magic: "F3MSNAP1" (the trailing `1` is part of the magic, not
/// the format version — that lives in the `version` field).
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"F3MSNAP1";
/// Current format version.
pub const SNAPSHOT_VERSION: u32 = 5;

/// Fixed-size header length in bytes (magic through `pool_sum`).
pub const SNAPSHOT_HEADER_LEN: usize = 89;
/// Offset of the `meta_sum` field.
const META_SUM_OFF: usize = 73;
/// Offset of the `pool_sum` field.
const POOL_SUM_OFF: usize = 81;
/// The most pool bytes a bulk read holds at once.
const READ_CHUNK: usize = 1 << 20;

// XXH64's five primes.
const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const P3: u64 = 0x1656_67B1_9E37_79F9;
const P4: u64 = 0x85EB_CA77_C2B2_AE63;
const P5: u64 = 0x27D4_EB2F_1656_67C5;

fn round(acc: u64, lane: u64) -> u64 {
    acc.wrapping_add(lane.wrapping_mul(P2)).rotate_left(31).wrapping_mul(P1)
}

fn lane(b: &[u8]) -> u64 {
    u64::from_le_bytes(b[..8].try_into().unwrap())
}

/// Folds one 32-byte stripe into the four accumulators.
fn fold(acc: &mut [u64; 4], stripe: &[u8]) {
    for (i, a) in acc.iter_mut().enumerate() {
        *a = round(*a, lane(&stripe[8 * i..]));
    }
}

/// XXH64 fed in pieces — the snapshot checksum. It folds each 32-byte
/// stripe as it completes and holds back at most one partial stripe, so
/// the sum of a region read a chunk at a time equals the sum of the whole
/// region at once, wherever the chunks split it.
struct Xxh64 {
    seed: u64,
    acc: [u64; 4],
    /// The partial stripe not folded yet: `stripe[..held]`.
    stripe: [u8; 32],
    held: usize,
    total: u64,
}

impl Xxh64 {
    fn new(seed: u64) -> Xxh64 {
        let acc = [
            seed.wrapping_add(P1).wrapping_add(P2),
            seed.wrapping_add(P2),
            seed,
            seed.wrapping_sub(P1),
        ];
        Xxh64 { seed, acc, stripe: [0; 32], held: 0, total: 0 }
    }

    fn update(&mut self, mut bytes: &[u8]) {
        self.total += bytes.len() as u64;
        if self.held > 0 {
            let take = (32 - self.held).min(bytes.len());
            self.stripe[self.held..self.held + take].copy_from_slice(&bytes[..take]);
            self.held += take;
            bytes = &bytes[take..];
            if self.held < 32 {
                return;
            }
            fold(&mut self.acc, &self.stripe);
            self.held = 0;
        }
        let stripes = bytes.chunks_exact(32);
        let rest = stripes.remainder();
        let mut acc = self.acc;
        for stripe in stripes {
            fold(&mut acc, stripe);
        }
        self.acc = acc;
        self.stripe[..rest.len()].copy_from_slice(rest);
        self.held = rest.len();
    }

    fn digest(&self) -> u64 {
        let mut h = if self.total >= 32 {
            let v = self.acc;
            let mut h = v[0]
                .rotate_left(1)
                .wrapping_add(v[1].rotate_left(7))
                .wrapping_add(v[2].rotate_left(12))
                .wrapping_add(v[3].rotate_left(18));
            for acc in v {
                h = (h ^ round(0, acc)).wrapping_mul(P1).wrapping_add(P4);
            }
            h
        } else {
            self.seed.wrapping_add(P5)
        };
        h = h.wrapping_add(self.total);
        let mut rest = &self.stripe[..self.held];
        while rest.len() >= 8 {
            h = (h ^ round(0, lane(rest))).rotate_left(27).wrapping_mul(P1).wrapping_add(P4);
            rest = &rest[8..];
        }
        if rest.len() >= 4 {
            let word = u64::from(u32::from_le_bytes(rest[..4].try_into().unwrap()));
            h = (h ^ word.wrapping_mul(P1)).rotate_left(23).wrapping_mul(P2).wrapping_add(P3);
            rest = &rest[4..];
        }
        for &b in rest {
            h = (h ^ u64::from(b).wrapping_mul(P5)).rotate_left(11).wrapping_mul(P1);
        }
        h ^= h >> 33;
        h = h.wrapping_mul(P2);
        h ^= h >> 29;
        h = h.wrapping_mul(P3);
        h ^ (h >> 32)
    }
}

/// XXH64 of `bytes` under `seed`. Passing one region's sum as the seed of
/// the next seals discontiguous regions.
fn xxh64(seed: u64, bytes: &[u8]) -> u64 {
    let mut h = Xxh64::new(seed);
    h.update(bytes);
    h.digest()
}

/// The `meta_sum` of a file whose meta region ends at `meta_end`: its
/// header before the field, then everything from `pool_sum` on.
fn meta_sum(buf: &[u8], meta_end: usize) -> u64 {
    xxh64(xxh64(0, &buf[..META_SUM_OFF]), &buf[POOL_SUM_OFF..meta_end])
}

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
    /// A checksum (meta or pool) does not match the contents.
    ChecksumMismatch,
    /// Structurally invalid contents (the message names the field).
    Corrupt(&'static str),
    /// The snapshot is internally valid but incompatible with the
    /// configuration trying to load it (e.g. different merge params).
    Mismatch(String),
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
    /// Bucket directory: ascending fn ids per bucket, ascending by key.
    pub buckets: BucketDirectory<u32>,
    /// The caller's opaque section (corpus metadata).
    pub payload: Vec<u8>,
    /// Stored pool checksum (verified only by the bulk decode path).
    pub pool_sum: u64,
}

/// A fully decoded snapshot.
#[derive(Debug)]
pub struct SnapshotFile {
    pub header: SnapshotHeader,
    /// The packed signature + band-key pools.
    pub store: PackedFingerprintStore,
    /// Bucket directory: ascending fn ids per bucket, ascending by key.
    pub buckets: BucketDirectory<u32>,
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
    buckets: &BucketDirectory<u32>,
    payload: &[u8],
) -> Vec<u8> {
    assert_eq!(store.k(), header.k, "store width disagrees with header");
    assert_eq!(store.bands(), header.lsh.bands, "store bands disagree with header");
    assert_eq!(store.len(), header.entries, "store rows disagree with header");

    let mut dir = Writer::default();
    dir.u64(buckets.len() as u64);
    for (key, members) in buckets.iter() {
        dir.u32(key);
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
    w.u64(header.epoch);
    w.u64(header.entries as u64);
    w.u64(payload.len() as u64);
    w.u64(dir_len as u64);
    w.u64(0); // meta_sum, patched below
    w.u64(0); // pool_sum, patched below
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

    // pool_sum first: meta_sum covers the sealed pool_sum field bytes.
    let pool_sum = xxh64(0, &w.buf[meta_end..]);
    w.buf[POOL_SUM_OFF..POOL_SUM_OFF + 8].copy_from_slice(&pool_sum.to_le_bytes());
    let meta_sum = meta_sum(&w.buf, meta_end);
    w.buf[META_SUM_OFF..META_SUM_OFF + 8].copy_from_slice(&meta_sum.to_le_bytes());
    w.buf
}

fn read_u32(buf: &[u8], off: usize) -> u32 {
    u32::from_le_bytes(buf[off..off + 4].try_into().unwrap())
}

fn read_u64(buf: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(buf[off..off + 8].try_into().unwrap())
}

/// The words of a little-endian `u64` pool as written by
/// [`encode_snapshot`].
pub(crate) fn le_u64s(bytes: &[u8]) -> impl Iterator<Item = u64> + '_ {
    bytes.chunks_exact(8).map(|c| u64::from_le_bytes(c.try_into().unwrap()))
}

/// The words of a little-endian `u32` pool as written by
/// [`encode_snapshot`].
pub(crate) fn le_u32s(bytes: &[u8]) -> impl Iterator<Item = u32> + '_ {
    bytes.chunks_exact(4).map(|c| u32::from_le_bytes(c.try_into().unwrap()))
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
    // Version before checksum: another format may checksum differently,
    // so hashing its bytes under this version's rules would mislabel it
    // as corrupt.
    let version = read_u32(buf, 8);
    if version != SNAPSHOT_VERSION {
        return Err(SnapshotError::BadVersion(version));
    }
    if buf.len() < SNAPSHOT_HEADER_LEN {
        return Err(SnapshotError::Truncated);
    }
    (SNAPSHOT_HEADER_LEN as u64)
        .checked_add(read_u64(buf, 65))
        .and_then(|v| v.checked_add(read_u64(buf, 57)))
        .ok_or(SnapshotError::Truncated)
}

/// Fills `buf` from `r`; the stream ending first is
/// [`SnapshotError::Truncated`]. Short and interrupted reads are retried.
fn fill(r: &mut impl Read, buf: &mut [u8]) -> Result<(), SnapshotError> {
    r.read_exact(buf).map_err(|e| match e.kind() {
        io::ErrorKind::UnexpectedEof => SnapshotError::Truncated,
        _ => SnapshotError::Io(e),
    })
}

/// Reads from `r` until `buf` is full or the stream ends, and returns how
/// many bytes arrived. Short and interrupted reads are retried.
fn fill_up_to(r: &mut impl Read, buf: &mut [u8]) -> Result<usize, SnapshotError> {
    let mut got = 0;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) => break,
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(SnapshotError::Io(e)),
        }
    }
    Ok(got)
}

/// Reads and validates the meta region of a snapshot — header, bucket
/// directory, payload — from the start of `r`, leaving `r` at the end of
/// the payload. `file_len` is the length of the whole file, which
/// validates the pool geometry without reading the pools.
///
/// Validation order matters for error typing: magic → version →
/// meta-region bounds → meta checksum → structural checks. Structural
/// `Corrupt` errors therefore only fire on files that were *written*
/// malformed, never on bit rot (that's a `ChecksumMismatch`) or short
/// files (`Truncated`). The directory and the payload are each read into
/// a buffer of their own — the payload's is the one returned — and
/// hashed there; the directory is parsed only once the sum holds.
fn read_meta(r: &mut impl Read, file_len: u64) -> Result<SnapshotMeta, SnapshotError> {
    let mut head = [0u8; SNAPSHOT_HEADER_LEN];
    let got = fill_up_to(r, &mut head)?;
    let meta_end64 = header_meta_end(&head[..got])?;
    if meta_end64 > file_len {
        return Err(SnapshotError::Truncated);
    }
    // Both lengths fit in `file_len` now, so neither buffer can be made
    // larger than the file.
    let payload_len = read_u64(&head, 57) as usize;
    let dir_len = read_u64(&head, 65) as usize;
    let mut dir = vec![0; dir_len];
    fill(r, &mut dir)?;
    let mut payload = vec![0; payload_len];
    fill(r, &mut payload)?;
    let mut sum = Xxh64::new(xxh64(0, &head[..META_SUM_OFF]));
    for part in [&head[POOL_SUM_OFF..], &dir, &payload] {
        sum.update(part);
    }
    if sum.digest() != read_u64(&head, META_SUM_OFF) {
        return Err(SnapshotError::ChecksumMismatch);
    }

    // From here on the meta region is exactly what was written; any
    // structural failure means the writer lied.
    let backend =
        BackendKind::from_tag(head[12]).ok_or(SnapshotError::Corrupt("unknown backend tag"))?;
    let k = read_u32(&head, 13) as usize;
    let rows = read_u32(&head, 17) as usize;
    let bands = read_u32(&head, 21) as usize;
    let bucket_cap = usize::try_from(read_u64(&head, 25)).unwrap_or(usize::MAX);
    let threshold = f64::from_bits(read_u64(&head, 33));
    let epoch = read_u64(&head, 41);
    let entries =
        usize::try_from(read_u64(&head, 49)).map_err(|_| SnapshotError::Corrupt("entry count"))?;
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
    let meta_end = meta_end64 as usize;
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

    let mut r = Reader::new(&dir);
    let buckets = parse_directory(&mut r, entries)?;
    if r.remaining() != 0 {
        return Err(SnapshotError::Corrupt("bucket directory trailing bytes"));
    }

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
            payload_len,
            meta_end,
            pool_start,
            sig_pool_bytes,
            key_pool_bytes,
            file_len: expected_len as usize,
        },
        buckets,
        payload,
        pool_sum: read_u64(&head, POOL_SUM_OFF),
    })
}

/// Parses and validates the meta region of a snapshot from `buf`, which
/// must hold at least the first `meta_end` bytes of the file;
/// `file_len` is the true on-disk length (used to validate the implied
/// pool geometry without reading the pools). The checks and their order
/// are [`open_snapshot_meta`]'s.
pub fn decode_snapshot_meta(buf: &[u8], file_len: u64) -> Result<SnapshotMeta, SnapshotError> {
    read_meta(&mut &buf[..], file_len)
}

/// Parses the bucket directory into flat arrays, the form the corpus's
/// index takes over as its pool. The region is checksum-verified before
/// this runs, so running off its end means the directory lies about
/// itself — `Corrupt`, not `Truncated`.
fn parse_directory(
    r: &mut Reader<'_>,
    entries: usize,
) -> Result<BucketDirectory<u32>, SnapshotError> {
    let truncated = |e| match e {
        SnapshotError::Truncated => SnapshotError::Corrupt("bucket directory truncated"),
        other => other,
    };
    let num_buckets = usize::try_from(r.u64().map_err(truncated)?)
        .map_err(|_| SnapshotError::Corrupt("bucket count"))?;
    // Untrusted count: each bucket needs ≥ 12 bytes (key + len + one
    // member), so cap the pre-allocation by what is physically present.
    let room = num_buckets.min(r.remaining() / 12);
    let mut dir = BucketDirectory {
        keys: Vec::with_capacity(room),
        starts: Vec::with_capacity(room),
        members: Vec::with_capacity(r.remaining().saturating_sub(8 * room) / 4),
    };
    for _ in 0..num_buckets {
        let key = r.u32().map_err(truncated)?;
        if dir.keys.last().is_some_and(|&prev| key <= prev) {
            return Err(SnapshotError::Corrupt("bucket keys not ascending"));
        }
        let len = r.u32().map_err(truncated)? as usize;
        if len == 0 {
            return Err(SnapshotError::Corrupt("empty bucket"));
        }
        let bytes =
            r.take(len.checked_mul(4).ok_or(SnapshotError::Corrupt("bucket size"))?).map_err(truncated)?;
        let start = dir.members.len();
        dir.members.extend(le_u32s(bytes));
        let members = &dir.members[start..];
        // Non-decreasing: a row whose bands fold to one key is in its
        // bucket once per band.
        if !members.windows(2).all(|w| w[0] <= w[1]) {
            return Err(SnapshotError::Corrupt("bucket members not ascending"));
        }
        if members.iter().any(|&m| m as usize >= entries) {
            return Err(SnapshotError::Corrupt("bucket member out of range"));
        }
        dir.keys.push(key);
        dir.starts.push(start as u32);
    }
    if dir.members.len() >= u32::MAX as usize {
        return Err(SnapshotError::Corrupt("bucket directory size"));
    }
    Ok(dir)
}

/// Reads the pools that follow the meta region `meta` was read from —
/// the padding, then the signature pool, then the key pool — through one
/// buffer of at most [`READ_CHUNK`] bytes: each chunk is hashed into the
/// pool sum and decoded straight into the store's vectors. A stream that
/// runs on past the pools is `Corrupt("trailing bytes")`.
fn read_pools(
    r: &mut impl Read,
    meta: &SnapshotMeta,
) -> Result<PackedFingerprintStore, SnapshotError> {
    let l = meta.layout;
    let mut sum = Xxh64::new(0);
    let mut padding = [0u8; 8];
    let padding = &mut padding[..l.pool_start - l.meta_end];
    fill(r, padding)?;
    sum.update(padding);
    let mut chunk = vec![0; READ_CHUNK.min(l.sig_pool_bytes.max(l.key_pool_bytes))];
    let mut stream = |len: usize, decode: &mut dyn FnMut(&[u8])| {
        let mut left = len;
        while left > 0 {
            let n = left.min(chunk.len());
            let part = &mut chunk[..n];
            fill(r, part)?;
            sum.update(part);
            decode(part);
            left -= part.len();
        }
        Ok::<(), SnapshotError>(())
    };
    let mut sigs = Vec::with_capacity(l.sig_pool_bytes / 8);
    stream(l.sig_pool_bytes, &mut |part| sigs.extend(le_u64s(part)))?;
    let mut keys = Vec::with_capacity(l.key_pool_bytes / 4);
    stream(l.key_pool_bytes, &mut |part| keys.extend(le_u32s(part)))?;
    if sum.digest() != meta.pool_sum {
        return Err(SnapshotError::ChecksumMismatch);
    }
    if fill_up_to(r, &mut [0])? != 0 {
        return Err(SnapshotError::Corrupt("trailing bytes"));
    }
    PackedFingerprintStore::from_pools(meta.header.k, meta.header.lsh.bands, sigs, keys)
        .ok_or(SnapshotError::Corrupt("inconsistent pools"))
}

/// Reads and validates a whole snapshot from `reader`, which yields the
/// `len` bytes of one file from its start: the meta region first
/// ([`decode_snapshot_meta`]'s checks), then the pools, streamed and
/// checked against the pool sum. Never holds the file whole.
pub fn read_snapshot(mut reader: impl Read, len: u64) -> Result<SnapshotFile, SnapshotError> {
    let meta = read_meta(&mut reader, len)?;
    let store = read_pools(&mut reader, &meta)?;
    Ok(SnapshotFile { header: meta.header, store, buckets: meta.buckets, payload: meta.payload })
}

/// Decodes and validates snapshot bytes, pools included. Inverse of
/// [`encode_snapshot`]; every malformation maps to a typed
/// [`SnapshotError`]. The decoder is [`read_snapshot`]'s, run over the
/// slice.
pub fn decode_snapshot(bytes: &[u8]) -> Result<SnapshotFile, SnapshotError> {
    read_snapshot(bytes, bytes.len() as u64)
}

/// Writes a snapshot file atomically: to a temp file named after it
/// (`path` plus `.tmp`, so two snapshots never share one), then renamed
/// over it, so a crash mid-save never leaves a half-written snapshot where
/// a loader expects a valid one, and a reader holding the old file keeps
/// reading the old bytes. A failed write or rename removes the temp file.
pub fn save_snapshot(
    path: &Path,
    header: &SnapshotHeader,
    store: &PackedFingerprintStore,
    buckets: &BucketDirectory<u32>,
    payload: &[u8],
) -> Result<(), SnapshotError> {
    let bytes = encode_snapshot(header, store, buckets, payload);
    let mut name = path
        .file_name()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "a snapshot path names a file"))?
        .to_os_string();
    name.push(".tmp");
    let tmp = path.with_file_name(name);
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    let saved = std::fs::write(&tmp, &bytes).and_then(|()| std::fs::rename(&tmp, path));
    if saved.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    Ok(saved?)
}

/// Reads and validates a snapshot file, both checksums included, by
/// [`read_snapshot`]: the meta region into its own buffers, the pools a
/// chunk at a time into the store.
pub fn open_snapshot(path: &Path) -> Result<SnapshotFile, SnapshotError> {
    let file = File::open(path)?;
    let len = file.metadata()?.len();
    read_snapshot(file, len)
}

/// Reads and validates only the meta prefix of a snapshot file — header,
/// bucket directory and payload — leaving the pools untouched on disk.
/// This is the O(meta) entry point for resident opens: at chrome scale
/// the meta region is a few MiB while the pools are GiBs.
///
/// The pool checksum is *not* verified here (that would require reading
/// the pools); the returned [`SnapshotMeta::pool_sum`] lets a caller do
/// so later if it wants the full-integrity path.
pub fn open_snapshot_meta(path: &Path) -> Result<SnapshotMeta, SnapshotError> {
    let mut file = File::open(path)?;
    let len = file.metadata()?.len();
    read_meta(&mut file, len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lsh::{band_keys_for, LshIndex, QueryScratch};
    use crate::pager::PagerKind;
    use crate::resident::ResidentStore;
    use crate::fnv::xor_constants;
    use crate::minhash::minhash_signature;

    fn params() -> LshParams {
        LshParams { rows: 2, bands: 16, bucket_cap: 100 }
    }

    fn build_fixture(n: u32) -> (SnapshotHeader, PackedFingerprintStore, BucketDirectory<u32>) {
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
        (header, store, index.export_directory())
    }

    /// Re-seals the meta checksum after a test mutates the meta region,
    /// so structural/version checks can be exercised behind a valid
    /// checksum.
    fn reseal_meta(bytes: &mut [u8]) {
        let payload_len = read_u64(bytes, 57) as usize;
        let dir_len = read_u64(bytes, 65) as usize;
        let meta_end = SNAPSHOT_HEADER_LEN + dir_len + payload_len;
        let sum = meta_sum(bytes, meta_end);
        bytes[META_SUM_OFF..META_SUM_OFF + 8].copy_from_slice(&sum.to_le_bytes());
    }

    /// The one-shot XXH64 the streaming hasher replaced, kept verbatim as
        /// the reference it is held to.
        fn one_shot_xxh64(seed: u64, bytes: &[u8]) -> u64 {
        fn round(acc: u64, lane: u64) -> u64 {
            acc.wrapping_add(lane.wrapping_mul(P2)).rotate_left(31).wrapping_mul(P1)
        }
        fn lane(b: &[u8]) -> u64 {
            u64::from_le_bytes(b[..8].try_into().unwrap())
        }
        let stripes = bytes.chunks_exact(32);
        let mut rest = stripes.remainder();
        let mut h = if bytes.len() >= 32 {
            let mut v = [
                seed.wrapping_add(P1).wrapping_add(P2),
                seed.wrapping_add(P2),
                seed,
                seed.wrapping_sub(P1),
            ];
            for stripe in stripes {
                for (i, acc) in v.iter_mut().enumerate() {
                    *acc = round(*acc, lane(&stripe[8 * i..]));
                }
            }
            let mut h = v[0]
                .rotate_left(1)
                .wrapping_add(v[1].rotate_left(7))
                .wrapping_add(v[2].rotate_left(12))
                .wrapping_add(v[3].rotate_left(18));
            for acc in v {
                h = (h ^ round(0, acc)).wrapping_mul(P1).wrapping_add(P4);
            }
            h
        } else {
            seed.wrapping_add(P5)
        };
        h = h.wrapping_add(bytes.len() as u64);
        while rest.len() >= 8 {
            h = (h ^ round(0, lane(rest))).rotate_left(27).wrapping_mul(P1).wrapping_add(P4);
            rest = &rest[8..];
        }
        if rest.len() >= 4 {
            let word = u64::from(u32::from_le_bytes(rest[..4].try_into().unwrap()));
            h = (h ^ word.wrapping_mul(P1)).rotate_left(23).wrapping_mul(P2).wrapping_add(P3);
            rest = &rest[4..];
        }
        for &b in rest {
            h = (h ^ u64::from(b).wrapping_mul(P5)).rotate_left(11).wrapping_mul(P1);
        }
        h ^= h >> 33;
        h = h.wrapping_mul(P2);
        h ^= h >> 29;
        h = h.wrapping_mul(P3);
        h ^ (h >> 32)
    }

    #[test]
    fn xxh64_known_answers() {
        assert_eq!(xxh64(0, b""), 0xef46_db37_51d8_e999);
        assert_eq!(xxh64(0, b"abc"), 0x44bc_2cf5_ad77_0999);
        // 39 bytes: one 32-byte stripe, then an 8-, a 4- and three 1-byte
        // tail steps.
        let spam = b"Nobody inspects the spammish repetition";
        assert_eq!(spam.len(), 39);
        assert_eq!(xxh64(0, spam), 0xfbce_a83c_8a37_8bf1);
        // Fed a byte at a time, the streaming hasher gives the same three.
        for (input, sum) in [
            (&b""[..], 0xef46_db37_51d8_e999),
            (b"abc", 0x44bc_2cf5_ad77_0999),
            (spam, 0xfbce_a83c_8a37_8bf1),
        ] {
            let mut h = Xxh64::new(0);
            input.chunks(1).for_each(|b| h.update(b));
            assert_eq!(h.digest(), sum);
            assert_eq!(one_shot_xxh64(0, input), sum);
        }
    }

    /// The streaming sum is the one-shot sum wherever the input is split:
    /// at every split point of random inputs up to five stripes long (so
    /// a split lands in every position of a stripe, before and after the
    /// first whole one), under random seeds, and in three-way splits of
    /// longer inputs.
    #[test]
    fn streaming_xxh64_equals_the_one_shot_sum_at_every_split() {
        use f3m_prng::SmallRng;
        let mut rng = SmallRng::seed_from_u64(73);
        for len in 0..=160 {
            let bytes: Vec<u8> = (0..len).map(|_| rng.next_u32() as u8).collect();
            let seed = if len % 2 == 0 { 0 } else { rng.next_u64() };
            let want = one_shot_xxh64(seed, &bytes);
            assert_eq!(xxh64(seed, &bytes), want, "len {len}");
            for at in 0..=len {
                let mut h = Xxh64::new(seed);
                h.update(&bytes[..at]);
                h.update(&bytes[at..]);
                assert_eq!(h.digest(), want, "len {len} split at {at}");
            }
        }
        for _ in 0..200 {
            let len = rng.gen_range(0..5000usize);
            let bytes: Vec<u8> = (0..len).map(|_| rng.next_u32() as u8).collect();
            let (a, b) = (rng.gen_range(0..=len), rng.gen_range(0..=len));
            let (a, b) = (a.min(b), a.max(b));
            let mut h = Xxh64::new(7);
            for part in [&bytes[..a], &bytes[a..b], &bytes[b..]] {
                h.update(part);
            }
            assert_eq!(h.digest(), one_shot_xxh64(7, &bytes), "len {len} split at {a}, {b}");
        }
    }

    #[test]
    fn the_sums_are_the_documented_xxh64_continuations() {
        let (header, store, buckets) = build_fixture(12);
        let bytes = encode_snapshot(&header, &store, &buckets, b"opaque corpus bytes");
        let meta = decode_snapshot_meta(&bytes, bytes.len() as u64).expect("meta decodes");
        let meta_end = meta.layout.meta_end;
        let continued = xxh64(xxh64(0, &bytes[..73]), &bytes[81..meta_end]);
        assert_eq!(read_u64(&bytes, 73), continued, "meta_sum seals [0,73) ++ [81,meta_end)");
        assert_eq!(meta.pool_sum, xxh64(0, &bytes[meta_end..]), "pool_sum seals the tail");
        // The continuation is not the sum of the concatenation: a file
        // sealed that way fails the meta check.
        let mut joined = bytes.clone();
        let concat = [&bytes[..73], &bytes[81..meta_end]].concat();
        joined[73..81].copy_from_slice(&xxh64(0, &concat).to_le_bytes());
        assert!(matches!(
            decode_snapshot_meta(&joined, joined.len() as u64),
            Err(SnapshotError::ChecksumMismatch)
        ));
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
        let bytes = encode_snapshot(&header, &store, &BucketDirectory::default(), &[]);
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

    /// A row whose bands all fold to one key sits in that bucket once
    /// per band, so the bucket holds its id several times in a row. Such
    /// an index saves, and the bulk and the resident readers load the
    /// same buckets back and answer every row's probe alike.
    #[test]
    fn a_folded_row_saves_and_loads_through_both_readers() {
        let p = params();
        let (mut header, mut store, buckets) = build_fixture(8);
        let mut index = LshIndex::from_directory(p, buckets);
        let key = store.keys(3)[0];
        let folded = vec![key; p.bands];
        let sig = store.sig(3).to_vec();
        store.push_with_keys(&sig, &folded);
        index.insert_with_keys(8, &folded);
        header.entries = 9;
        let buckets = index.export_directory();
        let (_, members) = buckets.iter().find(|&(k, _)| k == key).expect("the folded bucket");
        assert_eq!(members.iter().filter(|&&m| m == 8).count(), p.bands);

        let dir = scratch_dir("folded");
        let path = dir.join("folded.f3msnap");
        save_snapshot(&path, &header, &store, &buckets, b"p").expect("save");
        let bulk = open_snapshot(&path).expect("the bulk reader loads a folded row");
        let (meta, resident) = ResidentStore::open(&path, PagerKind::Auto, 0)
            .expect("the resident reader loads a folded row");
        assert_eq!((&bulk.buckets, &meta.buckets), (&buckets, &buckets));
        assert_eq!(bulk.store, store);

        let restored = LshIndex::from_directory(p, bulk.buckets);
        let (mut want, mut got) = (QueryScratch::new(), QueryScratch::new());
        for row in 0..9 {
            assert_eq!(resident.row(row).keys(), store.keys(row), "row {row}");
            let (keys, id) = (store.keys(row), row as u32);
            let stats = index.probe_keys_into(keys, id, &mut want);
            assert_eq!(restored.probe_keys_into(keys, id, &mut got), stats, "row {row}");
            assert_eq!(want.out, got.out, "row {row}");
            assert!(want.out.iter().all(|&c| want.hits(c) == got.hits(c)), "row {row}");
        }
        std::fs::remove_dir_all(&dir).ok();
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
        // So is one written before type codes were structural (v2: its
        // rows were computed under another instruction encoding), one
        // with v3's header, which has a reserved word at offset 41, and
        // one sealed with v4's FNV-1a sums.
        for old in [2u32, 3, 4] {
            let mut older = clean.clone();
            older[8..12].copy_from_slice(&old.to_le_bytes());
            reseal_meta(&mut older);
            assert!(
                matches!(decode_snapshot(&older), Err(SnapshotError::BadVersion(v)) if v == old)
            );
        }
        // A checksum-valid file carrying a tag no backend has — the
        // retired backend's included, which only v2 files were written
        // with — is corrupt.
        for tag in [BackendKind::RETIRED_TAG, 4] {
            let mut unknown = clean.clone();
            unknown[12] = tag;
            reseal_meta(&mut unknown);
            assert!(matches!(
                decode_snapshot(&unknown),
                Err(SnapshotError::Corrupt("unknown backend tag"))
            ));
        }
    }

    #[test]
    fn hostile_header_cannot_force_a_huge_allocation() {
        // An attacker-controlled entry count must fail the implied-length
        // check before any pool allocation happens.
        let (header, store, buckets) = build_fixture(6);
        let mut bytes = encode_snapshot(&header, &store, &buckets, b"payload");
        bytes[49..57].copy_from_slice(&(1u64 << 40).to_le_bytes());
        reseal_meta(&mut bytes);
        assert!(matches!(decode_snapshot(&bytes), Err(SnapshotError::Truncated)));
        // An entry count whose pool size overflows entirely is Corrupt.
        let (header, store, buckets) = build_fixture(6);
        let mut bytes = encode_snapshot(&header, &store, &buckets, b"payload");
        bytes[49..57].copy_from_slice(&u64::MAX.to_le_bytes());
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
        buckets.members.push(100); // last bucket: id out of range (entries = 6)
        let bytes = encode_snapshot(&header, &store, &buckets, &[]);
        assert!(matches!(
            decode_snapshot(&bytes),
            Err(SnapshotError::Corrupt("bucket member out of range"))
        ));

        let (header, store, mut buckets) = build_fixture(6);
        let first = buckets.iter().next().expect("a bucket").1.len();
        buckets.members[..first].reverse();
        if first > 1 {
            let bytes = encode_snapshot(&header, &store, &buckets, &[]);
            assert!(matches!(
                decode_snapshot(&bytes),
                Err(SnapshotError::Corrupt("bucket members not ascending"))
            ));
        }
    }

    /// A fresh directory under the system temp dir for one test.
    fn scratch_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("f3m-snapshot-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        dir
    }

    /// A snapshot's temp file is its own name plus `.tmp`: saving `c.a`
    /// leaves a file called `c.tmp` alone (with `with_extension` it was
    /// `c.a`'s, and `c.b`'s, temp file) and leaves no temp file behind.
    #[test]
    fn each_snapshot_has_its_own_temp_file() {
        let (header, store, buckets) = build_fixture(4);
        let dir = scratch_dir("temp-name");
        std::fs::write(dir.join("c.tmp"), b"keep").unwrap();
        for name in ["c.a", "c.b"] {
            save_snapshot(&dir.join(name), &header, &store, &buckets, b"p").expect("save");
            assert!(!dir.join(format!("{name}.tmp")).exists(), "{name}: temp file left behind");
        }
        assert_eq!(std::fs::read(dir.join("c.tmp")).unwrap(), b"keep");
        assert_eq!(open_snapshot(&dir.join("c.b")).expect("open").payload, b"p");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A snapshot named `x.tmp` is replaced whole, never rewritten in
    /// place: a reader that opened the old file keeps reading the old
    /// bytes.
    #[cfg(unix)]
    #[test]
    fn a_snapshot_named_tmp_is_replaced_not_rewritten() {
        use std::io::Read;
        let dir = scratch_dir("named-tmp");
        let path = dir.join("x.tmp");
        let (header, store, buckets) = build_fixture(4);
        save_snapshot(&path, &header, &store, &buckets, b"old").expect("save");
        let old = std::fs::read(&path).unwrap();
        let mut reader = std::fs::File::open(&path).unwrap();
        let (header, store, buckets) = build_fixture(6);
        save_snapshot(&path, &header, &store, &buckets, b"new").expect("save over");
        let mut seen = Vec::new();
        reader.read_to_end(&mut seen).unwrap();
        assert_eq!(seen, old, "the open file was rewritten in place");
        assert_eq!(open_snapshot(&path).expect("open").payload, b"new");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A save whose rename fails — here onto a directory that is not
    /// empty — is an I/O error and removes its temp file.
    #[test]
    fn a_failed_save_removes_its_temp_file() {
        let dir = scratch_dir("failed-rename");
        let target = dir.join("d");
        std::fs::create_dir_all(target.join("inner")).unwrap();
        let (header, store, buckets) = build_fixture(4);
        let err = save_snapshot(&target, &header, &store, &buckets, b"p").expect_err("rename");
        assert!(matches!(err, SnapshotError::Io(_)), "{err}");
        let left: Vec<_> = std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().file_name()).collect();
        assert_eq!(left, ["d"], "only the directory remains");
        std::fs::remove_dir_all(&dir).ok();
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
