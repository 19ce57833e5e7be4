//! The per-database write-ahead log.
//!
//! Every `insert`/`delete`/`load` batch appends one length+checksum-framed
//! record *before* it is applied to the in-memory
//! [`DeltaStore`](crate::DeltaStore); recovery folds the intact records, in
//! order, into the snapshot they follow. A record is shaped like that
//! snapshot ([`crate::manifest`]): integers over a dictionary — the batch as
//! raw OID triples, preceded by the dictionary entries the committed pair
//! (snapshot + log so far) does not hold yet.
//!
//! ## The numbering invariant
//!
//! OIDs in a log are only meaningful next to the dictionary they index, so
//! the log leans on one rule, which the store keeps everywhere: **the
//! committed pair (snapshot, log) is in one numbering, and whoever renumbers
//! commits a new pair.** A snapshot dumps the dictionary entry for entry;
//! each record carries, per pool, the entries interned since the last logged
//! watermark, starting at exactly the index where the pair's copy of that
//! pool ends. Snapshot pools + the log's appends, read in order, therefore
//! *are* the live dictionary, and every logged OID resolves under them. A
//! reorganization renumbers subjects and strings — and commits a fresh
//! snapshot in the new numbering together with a fresh log (the writes that
//! arrived meanwhile, re-encoded) in one manifest rename; recovery
//! re-clusters too, and commits a fresh pair before it accepts a write. No
//! log ever outlives the numbering it was written in.
//!
//! ## File format
//!
//! ```text
//! [magic "SORDFWAL"][version u32 LE = 2][reserved u32]
//! frame*: [len u32 LE][crc32 u32 LE][payload: len bytes]
//! payload: [seq u64 LE][kind u8: 0 insert, 1 delete, 2 load]
//!          3 × pool (IRIs, blank nodes, strings):
//!              [first index u64 LE][n u32 LE] n × (varint len, UTF-8 bytes)
//!          triples to the end of the payload: (s u64 LE, p u64 LE, o u64 LE)*
//! ```
//!
//! The CRC (IEEE 802.3, same polynomial as gzip) covers the payload only.
//! A *torn* frame — short header, a length the rest of the file cannot
//! hold, short payload, CRC mismatch — ends recovery: everything before it
//! is returned and the file is truncated back to the last intact frame. An
//! fsync'd (acknowledged) record is never behind a torn one, so acknowledged
//! writes are never dropped. Everything else is an **error**, never an empty
//! or shorter log: a missing file or a damaged header on the log the
//! manifest names (a v1 header included — v1 logs were term-level and are
//! refused the way v1 snapshots are), and a frame whose checksum holds but
//! whose content does not — sequence numbers that skip, appends that do not
//! start where the pool ends, an OID beyond the pools, a subject or
//! predicate that is not an IRI, a count or length larger than the rest of
//! the frame (checked before anything is allocated for it).
//!
//! ## Durability policy
//!
//! [`SyncPolicy`] decides when appends reach stable storage: `Always`
//! fsyncs every batch (each return from a write IS the acknowledgment),
//! `IntervalMs(n)` fsyncs at most every `n` ms (bounded loss window),
//! `Never` leaves it to the OS (crash loses the tail; recovery still gets
//! a consistent prefix).
//!
//! ## The term-level writer
//!
//! [`WalWriter::append`] of a [`WalRecord`] frames a batch as N-Triples
//! text. The frozen benchmark's `storage.wal_append_us_per_batch` probe
//! times it and nothing else calls it: `Database` never writes such a frame
//! and [`WalWriter::open_recover`] refuses a log that holds one. It goes
//! when the next `[benchmark]` PR retargets that probe.

use sordf_columnar::{crash_point, io_fault};
use sordf_model::{ntriples, DictPool, Dictionary, ModelError, Oid, TermTriple, Triple, TypeTag};
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

const MAGIC: &[u8; 8] = b"SORDFWAL";
const VERSION: u32 = 2;
const HEADER_LEN: u64 = 16;
/// Sanity bound on one frame's payload.
const MAX_FRAME_LEN: u32 = 1 << 30;
/// Bytes of one logged triple.
const TRIPLE_BYTES: usize = 24;
/// Kind byte of the one term-level frame ([`WalWriter::append`]).
const TERM_INSERT: u8 = 0x80;

/// Entry counts of the dictionary's three pools (IRIs, blank nodes,
/// strings): how much of a dictionary a snapshot, or a snapshot plus the log
/// behind it, holds — the *logged watermark* the next record appends from.
pub type PoolCounts = [u64; 3];

/// Slicing-by-8 lookup tables for the IEEE 802.3 CRC-32, built at compile
/// time so the crate stays dependency-free. `CRC_TABLES[0]` is the classic
/// one-byte table; `CRC_TABLES[k][b]` is the CRC of byte `b` followed by `k`
/// zero bytes, which lets [`Crc32::update`] fold eight input bytes per step.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        t += 1;
    }
    tables
};

/// A streaming IEEE 802.3 CRC-32 (same polynomial as gzip): feed the input
/// in any number of pieces, the result equals [`crc32`] of their
/// concatenation. The snapshot writer rolls one over each frame as it
/// streams it out.
#[derive(Debug, Clone, Copy)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Crc32 {
        Crc32::new()
    }
}

impl Crc32 {
    pub fn new() -> Crc32 {
        Crc32 { state: !0 }
    }

    /// Fold `data` into the checksum, eight bytes per table step.
    pub fn update(&mut self, data: &[u8]) {
        let t = &CRC_TABLES;
        let mut c = self.state;
        let mut chunks = data.chunks_exact(8);
        for ch in &mut chunks {
            let lo = u32::from_le_bytes([ch[0], ch[1], ch[2], ch[3]]) ^ c;
            let hi = u32::from_le_bytes([ch[4], ch[5], ch[6], ch[7]]);
            c = t[7][(lo & 0xFF) as usize]
                ^ t[6][((lo >> 8) & 0xFF) as usize]
                ^ t[5][((lo >> 16) & 0xFF) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][(hi & 0xFF) as usize]
                ^ t[2][((hi >> 8) & 0xFF) as usize]
                ^ t[1][((hi >> 16) & 0xFF) as usize]
                ^ t[0][(hi >> 24) as usize];
        }
        for &b in chunks.remainder() {
            c = t[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
        }
        self.state = c;
    }

    /// The checksum of everything fed so far.
    pub fn finish(self) -> u32 {
        !self.state
    }
}

/// IEEE 802.3 CRC-32 of `data` in one call.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(data);
    c.finish()
}

/// When WAL appends reach stable storage. See the [module docs](self).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPolicy {
    /// fsync after every batch: zero acknowledged-write loss.
    Always,
    /// fsync at most every `n` milliseconds (checked on the write path —
    /// no background flusher thread): bounded loss window.
    IntervalMs(u64),
    /// Never fsync explicitly; the OS flushes eventually.
    Never,
}

pub(crate) fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8 & 0x7f) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Bounds- and width-checked varint read; `None` on truncation or overflow.
pub(crate) fn read_varint(bytes: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let &b = bytes.get(*pos)?;
        *pos += 1;
        if shift == 63 && b > 1 {
            return None;
        }
        v |= u64::from(b & 0x7f) << shift;
        if b < 0x80 {
            return Some(v);
        }
        shift += 7;
        if shift > 63 {
            return None;
        }
    }
}

pub(crate) fn read_u64(body: &[u8], off: &mut usize) -> Option<u64> {
    let bytes = body.get(*off..off.checked_add(8)?)?;
    *off += 8;
    Some(u64::from_le_bytes([
        bytes[0], bytes[1], bytes[2], bytes[3], bytes[4], bytes[5], bytes[6], bytes[7],
    ]))
}

fn read_u32(body: &[u8], off: &mut usize) -> Option<u32> {
    let bytes = body.get(*off..off.checked_add(4)?)?;
    *off += 4;
    Some(u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]))
}

/// Does `oid` resolve under a dictionary whose pools hold `counts` entries?
/// Inline values always do; with `iri_only` (subjects, predicates) nothing
/// but an IRI does. What both on-disk readers check of every stored OID.
pub(crate) fn oid_resolves(oid: Oid, counts: &PoolCounts, iri_only: bool) -> bool {
    let Some(tag) = TypeTag::from_u8((oid.raw() >> sordf_model::oid::PAYLOAD_BITS) as u8) else {
        return false;
    };
    match tag {
        TypeTag::Iri => oid.payload() < counts[0],
        _ if iri_only => false,
        TypeTag::Blank => oid.payload() < counts[1],
        TypeTag::Str => oid.payload() < counts[2],
        _ => true,
    }
}

/// What a logged batch does when recovery folds it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalKind {
    /// An `insert_terms` batch.
    Insert = 0,
    /// A `delete_triples`/`delete_matching` batch (the resolved triples).
    Delete = 1,
    /// A `load_terms` batch (staging write: lands in the base, not the
    /// delta, and invalidates every built layout, like the original).
    Load = 2,
}

/// One record read back from the log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogRecord {
    /// The batch's log sequence number.
    pub seq: u64,
    pub kind: WalKind,
    /// Per pool ([`DictPool`] order): the index of the first appended entry
    /// — exactly where the pair's copy of the pool ended — and the entries.
    pub appends: [(u64, Vec<String>); 3],
    /// The batch, encoded under the dictionary as extended by `appends`.
    pub triples: Vec<Triple>,
}

impl LogRecord {
    /// Extend `dict` — the pair's dictionary so far — with this record's
    /// appends. Each entry must land on exactly the index the record names:
    /// contiguity is checked entry by entry, and an entry the dictionary
    /// already holds (it would get two indexes) is an error too.
    pub fn append_to(&self, dict: &Dictionary) -> Result<(), ModelError> {
        for (pool, (first, entries)) in DictPool::ALL.into_iter().zip(&self.appends) {
            for (i, entry) in entries.iter().enumerate() {
                dict.append_entry(pool, first + i as u64, entry)?;
            }
        }
        Ok(())
    }
}

/// The term-level batch of [`WalWriter::append`] — see "The term-level
/// writer" in the [module docs](self). Not a database log record.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    Insert(Vec<TermTriple>),
}

/// Append side of the log. Construct via [`WalWriter::create`] (fresh log)
/// or [`WalWriter::open_recover`] (read + truncate-at-first-tear).
#[derive(Debug)]
pub struct WalWriter {
    file: File,
    path: PathBuf,
    /// Byte offset of the log end == the LSN of the next record.
    end: u64,
    /// Unsynced appends are pending.
    dirty: bool,
    last_sync: Instant,
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

impl WalWriter {
    /// Create (truncate) a fresh log at `path` and fsync its header, so a
    /// crash right after creation recovers an empty log, not a missing one.
    pub fn create(path: &Path) -> io::Result<WalWriter> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        let mut header = Vec::with_capacity(HEADER_LEN as usize);
        header.extend_from_slice(MAGIC);
        header.extend_from_slice(&VERSION.to_le_bytes());
        header.extend_from_slice(&0u32.to_le_bytes());
        file.write_all(&header)?;
        file.sync_data()?;
        Ok(WalWriter {
            file,
            path: path.to_path_buf(),
            end: HEADER_LEN,
            dirty: false,
            last_sync: Instant::now(),
        })
    }

    /// Open the log the manifest names and read every intact record,
    /// truncating the file back to the last intact frame. `pools` is what
    /// the snapshot this log follows holds of each dictionary pool: appends
    /// must continue from there, and every logged OID must resolve under
    /// the pools as the records extend them. Returns the writer positioned
    /// to append plus the records. A missing file, a damaged or v1 header
    /// and a checksummed frame with invalid content are errors (see the
    /// [module docs](self)); only a torn tail is cut.
    pub fn open_recover(
        path: &Path,
        mut pools: PoolCounts,
    ) -> io::Result<(WalWriter, Vec<LogRecord>)> {
        let mut file = match OpenOptions::new().read(true).write(true).open(path) {
            Ok(f) => f,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                return Err(io::Error::new(
                    io::ErrorKind::NotFound,
                    format!("wal: missing ({})", path.display()),
                ))
            }
            Err(e) => return Err(e),
        };
        let mut left = file.metadata()?.len();
        let mut header = [0u8; HEADER_LEN as usize];
        if !read_exact_or_eof(&mut file, &mut header)? || &header[..8] != MAGIC {
            return Err(invalid("wal: bad header".into()));
        }
        let version = u32::from_le_bytes([header[8], header[9], header[10], header[11]]);
        if version != VERSION {
            return Err(invalid(format!(
                "wal: bad header (version {version}, this build reads {VERSION})"
            )));
        }
        left -= HEADER_LEN; // the header was read in full
        let mut records: Vec<LogRecord> = Vec::new();
        let mut good_end = HEADER_LEN;
        let mut buf = Vec::new();
        loop {
            let mut frame_header = [0u8; 8];
            if !read_exact_or_eof(&mut file, &mut frame_header)? {
                break;
            }
            let mut at = 0;
            let (Some(len), Some(crc)) = (
                read_u32(&frame_header, &mut at),
                read_u32(&frame_header, &mut at),
            ) else {
                break;
            };
            // Bounded before allocation: a frame cannot be longer than
            // what is left of the file behind its header.
            if !(9..=MAX_FRAME_LEN).contains(&len) || u64::from(len) > left.saturating_sub(8) {
                break;
            }
            buf.clear();
            buf.resize(len as usize, 0);
            if !read_exact_or_eof(&mut file, &mut buf)? || crc32(&buf) != crc {
                break;
            }
            // The checksum holds, so this is what was written: content
            // that does not parse is damage or a bug, not a torn write.
            let record = parse_record(&buf, &mut pools)
                .map_err(|what| invalid(format!("wal: frame at offset {good_end}: {what}")))?;
            if let Some(prev) = records.last() {
                if record.seq != prev.seq + 1 {
                    return Err(invalid(format!(
                        "wal: frame at offset {good_end}: sequence {} follows {}",
                        record.seq, prev.seq
                    )));
                }
            }
            good_end += 8 + u64::from(len);
            left -= 8 + u64::from(len);
            records.push(record);
        }
        // Truncate the torn tail so appends continue from the last intact
        // frame (and a later recovery never re-reads the tear).
        file.set_len(good_end)?;
        file.sync_data()?;
        file.seek(SeekFrom::Start(good_end))?;
        Ok((
            WalWriter {
                file,
                path: path.to_path_buf(),
                end: good_end,
                dirty: false,
                last_sync: Instant::now(),
            },
            records,
        ))
    }

    /// The log's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The current end-of-log offset (the next record's LSN).
    pub fn lsn(&self) -> u64 {
        self.end
    }

    /// Append one batch: the entries `dict` holds beyond the `logged`
    /// watermark, then `triples` as they are. On success `logged` advances
    /// to cover what was appended and the record's LSN (offset after the
    /// frame) is returned. The record is in the OS page cache after this
    /// returns — call [`WalWriter::sync`] (or let [`WalWriter::maybe_sync`]
    /// decide) to make it crash-durable.
    pub fn append_batch(
        &mut self,
        seq: u64,
        kind: WalKind,
        dict: &Dictionary,
        logged: &mut PoolCounts,
        triples: &[Triple],
    ) -> io::Result<u64> {
        let mut frame = self.begin_frame(seq, kind as u8, TRIPLE_BYTES * triples.len() + 64);
        let mut covered = *logged;
        for (pool, count) in DictPool::ALL.into_iter().zip(&mut covered) {
            frame.extend_from_slice(&count.to_le_bytes());
            let n_at = frame.len();
            frame.extend_from_slice(&[0u8; 4]);
            let mut n = 0u32;
            // Counted as visited: a pool interned into meanwhile is dumped
            // up to some point of its growth, and the watermark follows.
            let visited: Result<(), io::Error> = dict.try_for_each_entry_from(pool, *count, |s| {
                n = n.checked_add(1).ok_or_else(too_large)?;
                write_varint(&mut frame, s.len() as u64);
                frame.extend_from_slice(s.as_bytes());
                Ok(())
            });
            visited?;
            frame[n_at..n_at + 4].copy_from_slice(&n.to_le_bytes());
            *count += u64::from(n);
        }
        for t in triples {
            for oid in [t.s, t.p, t.o] {
                frame.extend_from_slice(&oid.raw().to_le_bytes());
            }
        }
        let lsn = self.write_frame(frame)?;
        *logged = covered;
        Ok(lsn)
    }

    /// The term-level append the frozen benchmark's probe times: the batch
    /// as N-Triples text in a frame of its own kind. `Database` never calls
    /// this and [`WalWriter::open_recover`] refuses the frame — see "The
    /// term-level writer" in the [module docs](self).
    pub fn append(&mut self, seq: u64, record: &WalRecord) -> io::Result<u64> {
        let WalRecord::Insert(triples) = record;
        let mut frame = self.begin_frame(seq, TERM_INSERT, 64 * triples.len());
        ntriples::write_document(&mut frame, triples)?;
        self.write_frame(frame)
    }

    /// A frame under assembly: header placeholder, sequence, kind. The
    /// payload is serialized exactly once, in place; [`Self::write_frame`]
    /// patches length and checksum in.
    fn begin_frame(&self, seq: u64, kind: u8, payload_hint: usize) -> Vec<u8> {
        let mut frame = Vec::with_capacity(17 + payload_hint);
        frame.extend_from_slice(&[0u8; 8]);
        frame.extend_from_slice(&seq.to_le_bytes());
        frame.push(kind);
        frame
    }

    fn write_frame(&mut self, mut frame: Vec<u8>) -> io::Result<u64> {
        let len = u32::try_from(frame.len() - 8)
            .ok()
            .filter(|&l| l <= MAX_FRAME_LEN)
            .ok_or_else(too_large)?;
        let crc = crc32(&frame[8..]);
        frame[..4].copy_from_slice(&len.to_le_bytes());
        frame[4..8].copy_from_slice(&crc.to_le_bytes());
        crash_point!("wal.pre_append");
        io_fault!("wal.append", &self.path);
        self.file.write_all(&frame)?;
        crash_point!("wal.post_append");
        self.end += frame.len() as u64;
        self.dirty = true;
        Ok(self.end)
    }

    /// Force appended records to stable storage (the acknowledgment
    /// barrier). No-op when nothing is pending.
    pub fn sync(&mut self) -> io::Result<()> {
        if !self.dirty {
            return Ok(());
        }
        crash_point!("wal.pre_sync");
        io_fault!("wal.sync", &self.path);
        self.file.sync_data()?;
        crash_point!("wal.post_sync");
        self.dirty = false;
        self.last_sync = Instant::now();
        Ok(())
    }

    /// Apply the durability policy after an append.
    pub fn maybe_sync(&mut self, policy: SyncPolicy) -> io::Result<()> {
        match policy {
            SyncPolicy::Always => self.sync(),
            SyncPolicy::IntervalMs(ms) => {
                if self.dirty && self.last_sync.elapsed().as_millis() >= u128::from(ms) {
                    self.sync()
                } else {
                    Ok(())
                }
            }
            SyncPolicy::Never => Ok(()),
        }
    }
}

fn too_large() -> io::Error {
    io::Error::new(io::ErrorKind::InvalidInput, "WAL batch too large")
}

/// Parse one checksummed payload against the pool counts the pair holds so
/// far, advancing them by the record's appends. Every count and length is
/// bounded by the bytes left in the payload before anything is allocated.
fn parse_record(payload: &[u8], pools: &mut PoolCounts) -> Result<LogRecord, String> {
    let short = || "payload ends inside a field".to_string();
    let mut at = 0usize;
    let seq = read_u64(payload, &mut at).ok_or_else(short)?;
    let kind = match *payload.get(at).ok_or_else(short)? {
        0 => WalKind::Insert,
        1 => WalKind::Delete,
        2 => WalKind::Load,
        TERM_INSERT => return Err("a term-level frame: not a database log".into()),
        k => return Err(format!("unknown record kind {k}")),
    };
    at += 1;
    let mut appends: [(u64, Vec<String>); 3] = Default::default();
    for ((first, entries), count) in appends.iter_mut().zip(pools.iter_mut()) {
        *first = read_u64(payload, &mut at).ok_or_else(short)?;
        if *first != *count {
            return Err(format!(
                "dictionary appends start at {first}, the pool ends at {count}"
            ));
        }
        let n = read_u32(payload, &mut at).ok_or_else(short)? as usize;
        // An entry takes at least its length byte.
        if n > payload.len() - at {
            return Err(format!("{n} appended entries cannot fit the frame"));
        }
        entries.reserve_exact(n);
        for _ in 0..n {
            let len = read_varint(payload, &mut at)
                .and_then(|l| usize::try_from(l).ok())
                .ok_or_else(short)?;
            let end = at.checked_add(len).filter(|&e| e <= payload.len());
            let bytes = &payload[at..end.ok_or("an entry runs past the frame")?];
            entries.push(
                std::str::from_utf8(bytes)
                    .map_err(|_| "an entry is not UTF-8")?
                    .to_string(),
            );
            at += len;
        }
        *count += n as u64;
    }
    let body = &payload[at..];
    if body.len() % TRIPLE_BYTES != 0 {
        return Err("ragged triple section".into());
    }
    let mut triples = Vec::with_capacity(body.len() / TRIPLE_BYTES);
    let mut off = 0usize;
    while off < body.len() {
        let mut oid = || read_u64(body, &mut off).map(Oid::from_raw);
        let (Some(s), Some(p), Some(o)) = (oid(), oid(), oid()) else {
            return Err(short());
        };
        let resolves = oid_resolves(s, pools, true)
            && oid_resolves(p, pools, true)
            && oid_resolves(o, pools, false);
        if !resolves {
            return Err("a triple references no dictionary entry".into());
        }
        triples.push(Triple::new(s, p, o));
    }
    Ok(LogRecord {
        seq,
        kind,
        appends,
        triples,
    })
}

/// Read exactly `buf.len()` bytes from the current position; `Ok(false)` on
/// a clean or mid-buffer EOF (a torn tail), `Err` on real I/O failure.
fn read_exact_or_eof(file: &mut File, buf: &mut [u8]) -> io::Result<bool> {
    let mut read = 0usize;
    while read < buf.len() {
        match file.read(&mut buf[read..]) {
            Ok(0) => return Ok(false),
            Ok(n) => read += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sordf_model::{Term, Value};

    fn temp_path(tag: &str) -> PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        // ordering: Relaxed — unique temp names only.
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("sordf-wal-{tag}-{}-{n}.wal", std::process::id()))
    }

    struct Cleanup(PathBuf);
    impl Drop for Cleanup {
        fn drop(&mut self) {
            // sordf-lint: allow(L7) — best-effort temp cleanup in a test.
            let _ = std::fs::remove_file(&self.0);
        }
    }

    #[test]
    fn crc32_known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    /// The one-byte-per-step table loop the slicing-by-8 kernel replaced.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut c = !0u32;
        for &b in data {
            c = CRC_TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
        }
        !c
    }

    #[test]
    fn crc32_matches_the_bytewise_loop() {
        // One pseudo-random buffer; every length 0..=4096 at every start
        // alignment within a word, in one call and fed in two pieces.
        let mut lcg: u64 = 0x9E37_79B9_7F4A_7C15;
        let buf: Vec<u8> = (0..4096 + 8)
            .map(|_| {
                lcg = lcg
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (lcg >> 56) as u8
            })
            .collect();
        for align in 0..8 {
            for len in 0..=4096 {
                let data = &buf[align..align + len];
                let want = crc32_bytewise(data);
                assert_eq!(crc32(data), want, "len {len} align {align}");
                let mut rolling = Crc32::new();
                let (a, b) = data.split_at(len / 3);
                rolling.update(a);
                rolling.update(b);
                assert_eq!(rolling.finish(), want, "split len {len} align {align}");
            }
        }
    }

    /// Intern subject `i` with a predicate and two objects into `dict`: one
    /// new IRI, one new string and an inline value per call.
    fn batch(dict: &Dictionary, i: u64) -> Vec<Triple> {
        let s = dict.encode_iri(&format!("http://e/s{i}"));
        let p = dict.encode_iri("http://e/p");
        let label = dict
            .encode_value(&Value::str(format!("label {i}")))
            .unwrap();
        vec![
            Triple::new(s, p, Oid::from_int(i as i64).unwrap()),
            Triple::new(s, p, label),
        ]
    }

    /// A three-record log over a dictionary that starts empty, plus the
    /// records as the reader must return them.
    fn sample_log(path: &Path) -> (Dictionary, Vec<LogRecord>, Vec<u64>) {
        let dict = Dictionary::new();
        let mut logged = PoolCounts::default();
        let mut wal = WalWriter::create(path).unwrap();
        let (mut want, mut ends) = (Vec::new(), Vec::new());
        for (i, kind) in [WalKind::Load, WalKind::Insert, WalKind::Delete]
            .into_iter()
            .enumerate()
        {
            let first = logged;
            let triples = batch(&dict, i as u64 % 2);
            ends.push(
                wal.append_batch(i as u64 + 1, kind, &dict, &mut logged, &triples)
                    .unwrap(),
            );
            let mut appends: [(u64, Vec<String>); 3] = Default::default();
            for ((slot, pool), from) in appends.iter_mut().zip(DictPool::ALL).zip(first) {
                slot.0 = from;
                dict.try_for_each_entry_from(pool, from, |s| {
                    slot.1.push(s.to_string());
                    Ok::<(), ()>(())
                })
                .unwrap();
            }
            want.push(LogRecord {
                seq: i as u64 + 1,
                kind,
                appends,
                triples,
            });
        }
        wal.sync().unwrap();
        assert_eq!(logged, dict.pool_counts());
        (dict, want, ends)
    }

    #[test]
    fn append_recover_roundtrip() {
        let path = temp_path("roundtrip");
        let _c = Cleanup(path.clone());
        let (_, want, ends) = sample_log(&path);
        let (wal, records) = WalWriter::open_recover(&path, PoolCounts::default()).unwrap();
        assert_eq!(records, want);
        // Record 1 appends the predicate, a subject and a string; record 2
        // only what is new to the pair; record 3 (the same terms) nothing.
        assert_eq!(
            records[0].appends[0],
            (0, vec!["http://e/s0".into(), "http://e/p".into()])
        );
        assert_eq!(records[1].appends[0], (2, vec!["http://e/s1".into()]));
        assert_eq!(records[1].appends[2], (1, vec!["label 1".into()]));
        assert!(records[2].appends.iter().all(|(_, e)| e.is_empty()));
        assert_eq!(
            *ends.last().unwrap(),
            wal.lsn(),
            "last record's lsn is the log end"
        );
    }

    #[test]
    fn torn_tail_is_truncated() {
        let path = temp_path("torn");
        let _c = Cleanup(path.clone());
        let (_, want, ends) = sample_log(&path);
        // Tear the last frame: chop 3 bytes off the file.
        let full = std::fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(full - 3).unwrap();
        drop(f);
        let (wal, records) = WalWriter::open_recover(&path, PoolCounts::default()).unwrap();
        assert_eq!(records, want[..2], "the torn record is dropped");
        assert_eq!(
            wal.lsn(),
            ends[1],
            "file truncated to the last intact frame"
        );
        assert_eq!(std::fs::metadata(&path).unwrap().len(), ends[1]);
    }

    #[test]
    fn appends_continue_after_recovery() {
        let path = temp_path("continue");
        let _c = Cleanup(path.clone());
        let (dict, want, _) = sample_log(&path);
        let (mut wal, _) = WalWriter::open_recover(&path, PoolCounts::default()).unwrap();
        let mut logged = dict.pool_counts();
        let more = batch(&dict, 7);
        wal.append_batch(4, WalKind::Insert, &dict, &mut logged, &more)
            .unwrap();
        wal.sync().unwrap();
        drop(wal);
        let (_, records) = WalWriter::open_recover(&path, PoolCounts::default()).unwrap();
        assert_eq!(records[..3], want[..]);
        assert_eq!(records[3].triples, more);
        assert_eq!(records[3].appends[0], (3, vec!["http://e/s7".into()]));
    }

    #[test]
    fn a_missing_or_damaged_header_is_an_error_not_an_empty_log() {
        let path = temp_path("header");
        let _c = Cleanup(path.clone());
        let open = |path: &Path| {
            WalWriter::open_recover(path, PoolCounts::default())
                .map(|(_, r)| r.len())
                .map_err(|e| e.to_string())
        };
        let err = open(&path).unwrap_err();
        assert!(err.starts_with("wal: missing"), "{err}");
        assert!(!path.exists(), "a missing log is not created");
        sample_log(&path);
        let good = std::fs::read(&path).unwrap();
        assert_eq!(open(&path), Ok(3));
        // Garbled magic, a short header, an empty file, a v1 header.
        let mut bad = good.clone();
        bad[0] = b'X';
        let mut v1 = good.clone();
        v1[8..12].copy_from_slice(&1u32.to_le_bytes());
        for image in [&bad[..], &good[..10], &good[..0], &v1[..]] {
            std::fs::write(&path, image).unwrap();
            let err = open(&path).unwrap_err();
            assert!(err.starts_with("wal: bad header"), "{err}");
            assert_eq!(std::fs::read(&path).unwrap(), image, "left as found");
        }
    }

    #[test]
    fn the_term_level_frame_is_written_and_refused() {
        let path = temp_path("term");
        let _c = Cleanup(path.clone());
        let mut wal = WalWriter::create(&path).unwrap();
        let batch = vec![TermTriple::new(
            Term::iri("http://e/s"),
            Term::iri("http://e/p"),
            Term::int(1),
        )];
        let end = wal.append(1, &WalRecord::Insert(batch)).unwrap();
        wal.sync().unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), end);
        let err = WalWriter::open_recover(&path, PoolCounts::default()).unwrap_err();
        assert!(err.to_string().contains("term-level"), "{err}");
    }

    /// Rewrite frame `k`'s payload through `edit` and fix its checksum up,
    /// so only the record parser can object.
    fn edit_frame(path: &Path, ends: &[u64], k: usize, edit: impl FnOnce(&mut Vec<u8>)) {
        let bytes = std::fs::read(path).unwrap();
        let start = if k == 0 { HEADER_LEN } else { ends[k - 1] } as usize;
        let end = ends[k] as usize;
        let mut payload = bytes[start + 8..end].to_vec();
        edit(&mut payload);
        let mut out = bytes[..start].to_vec();
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&crc32(&payload).to_le_bytes());
        out.extend_from_slice(&payload);
        out.extend_from_slice(&bytes[end..]);
        std::fs::write(path, out).unwrap();
    }

    #[test]
    fn checksummed_frames_with_invalid_content_are_errors() {
        let path = temp_path("content");
        let _c = Cleanup(path.clone());
        // Offsets inside record 2's payload: seq 0, kind 8, IRI section 9
        // (first 9..17, n 17..21, one entry), then blanks, then strings.
        type Edit = Box<dyn FnOnce(&mut Vec<u8>)>;
        let set_u64 = |at: usize, v: u64| -> Edit {
            Box::new(move |p| p[at..at + 8].copy_from_slice(&v.to_le_bytes()))
        };
        let set_u32 = |at: usize, v: u32| -> Edit {
            Box::new(move |p| p[at..at + 4].copy_from_slice(&v.to_le_bytes()))
        };
        let last_oid = |v: u64| -> Edit {
            Box::new(move |p| {
                let at = p.len() - 8;
                p[at..].copy_from_slice(&v.to_le_bytes())
            })
        };
        let subject = |v: u64| -> Edit {
            Box::new(move |p| {
                let at = p.len() - 2 * TRIPLE_BYTES;
                p[at..at + 8].copy_from_slice(&v.to_le_bytes())
            })
        };
        let cases: Vec<(&str, Edit, &str)> = vec![
            ("sequence skips", set_u64(0, 9), "sequence 9 follows 1"),
            (
                "unknown kind",
                Box::new(|p| p[8] = 7),
                "unknown record kind",
            ),
            (
                "appends start late",
                set_u64(9, 3),
                "appends start at 3, the pool ends at 2",
            ),
            (
                "appends start early",
                set_u64(9, 1),
                "appends start at 1, the pool ends at 2",
            ),
            (
                "entry count beyond the frame",
                set_u32(17, u32::MAX),
                "cannot fit the frame",
            ),
            (
                "entry longer than the frame",
                Box::new(|p| p[21] = 0x7f),
                "runs past the frame",
            ),
            (
                "entry is not UTF-8",
                Box::new(|p| p[22] = 0xff),
                "not UTF-8",
            ),
            (
                "string beyond the pool",
                last_oid(Oid::string(2).raw()),
                "no dictionary entry",
            ),
            (
                "IRI beyond the pool",
                subject(Oid::iri(3).raw()),
                "no dictionary entry",
            ),
            (
                "subject is a literal",
                subject(Oid::from_int(1).unwrap().raw()),
                "no dictionary entry",
            ),
            (
                "no such type tag",
                last_oid(u64::MAX),
                "no dictionary entry",
            ),
            (
                "ragged triples",
                Box::new(|p| p.truncate(p.len() - 5)),
                "ragged",
            ),
            (
                "payload ends in a field",
                Box::new(|p| p.truncate(15)),
                "ends inside a field",
            ),
        ];
        for (what, edit, want) in cases {
            let (_, _, ends) = sample_log(&path);
            edit_frame(&path, &ends, 1, edit);
            let err = WalWriter::open_recover(&path, PoolCounts::default())
                .expect_err(what)
                .to_string();
            assert!(
                err.starts_with("wal: frame at offset") && err.contains(want),
                "{what}: {err}"
            );
        }
        // The pools the snapshot holds are where appends must start.
        sample_log(&path);
        let err = WalWriter::open_recover(&path, [1, 0, 0]).unwrap_err();
        assert!(err.to_string().contains("the pool ends at 1"), "{err}");
    }

    /// The PR 14 snapshot standard, for the log: whatever one flipped bit or
    /// a cut does to the file, the reader returns an error or a prefix of
    /// the records that were written — never a different record.
    #[test]
    fn every_bit_flip_and_truncation_is_an_error_or_a_prefix() {
        let path = temp_path("fuzz");
        let _c = Cleanup(path.clone());
        let (_, want, _) = sample_log(&path);
        let good = std::fs::read(&path).unwrap();
        let check = |image: &[u8], what: String| {
            std::fs::write(&path, image).unwrap();
            if let Ok((_, records)) = WalWriter::open_recover(&path, PoolCounts::default()) {
                assert!(records.len() <= want.len(), "{what}");
                assert_eq!(records[..], want[..records.len()], "{what}");
            }
        };
        for cut in 0..good.len() {
            check(&good[..cut], format!("cut at {cut}"));
        }
        for byte in 0..good.len() {
            for bit in 0..8 {
                let mut image = good.clone();
                image[byte] ^= 1 << bit;
                check(&image, format!("bit {bit} of byte {byte}"));
            }
        }
        // Garbage behind the last frame is a torn tail.
        let mut image = good.clone();
        image.extend_from_slice(&[0xAB; 11]);
        std::fs::write(&path, &image).unwrap();
        let (wal, records) = WalWriter::open_recover(&path, PoolCounts::default()).unwrap();
        assert_eq!((records.len(), wal.lsn()), (3, good.len() as u64));
    }

    #[test]
    fn interval_policy_bounds_sync_frequency() {
        let path = temp_path("interval");
        let _c = Cleanup(path.clone());
        let dict = Dictionary::new();
        let mut logged = PoolCounts::default();
        let mut wal = WalWriter::create(&path).unwrap();
        let b = batch(&dict, 0);
        wal.append_batch(1, WalKind::Insert, &dict, &mut logged, &b)
            .unwrap();
        // A huge interval: maybe_sync leaves the record unsynced...
        wal.maybe_sync(SyncPolicy::IntervalMs(3_600_000)).unwrap();
        // ...while Always forces it out.
        wal.maybe_sync(SyncPolicy::Always).unwrap();
        // A zero interval syncs immediately on the next append.
        wal.append_batch(2, WalKind::Insert, &dict, &mut logged, &b)
            .unwrap();
        wal.maybe_sync(SyncPolicy::IntervalMs(0)).unwrap();
    }
}
