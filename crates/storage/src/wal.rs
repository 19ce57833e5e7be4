//! The per-database write-ahead log.
//!
//! Every `insert`/`delete`/`load` batch appends one length+checksum-framed
//! record *before* it is applied to the in-memory
//! [`DeltaStore`](crate::DeltaStore); recovery replays intact records in
//! order and
//! truncates the log at the first torn or corrupt frame. Records carry the
//! batch's delta **sequence number** and the triples in N-Triples text —
//! term-level, not OID-level, because a generation swap renumbers the
//! dictionary and OIDs in a log would go stale.
//!
//! ## File format
//!
//! ```text
//! [magic "SORDFWAL"][version u32 LE][reserved u32]
//! frame*: [len u32 LE][crc32 u32 LE][payload: len bytes]
//! payload: [seq u64 LE][kind u8][body]
//! ```
//!
//! The record body comes in two self-describing encodings, selected per
//! record by the kind byte's high bit ([`WalFormat`]):
//!
//! * **Text** (high bit clear): the batch as N-Triples UTF-8 text — the v1
//!   format, trivially inspectable with a pager.
//! * **Binary** (high bit set): a varint-framed per-record term table
//!   (each distinct term once, tagged by type) followed by the triples as
//!   varint indexes into it. Repetitive batches shrink several-fold and
//!   replay skips text parsing entirely.
//!
//! Recovery auto-detects the encoding record by record, so one log may
//! freely mix both (e.g. after [`WalWriter::set_format`] mid-run).
//!
//! The CRC (IEEE 802.3, same polynomial as gzip) covers the payload only;
//! `len` is sanity-bounded before allocation so a corrupt length can't ask
//! for gigabytes. A *torn* frame — short header, short payload, CRC
//! mismatch, or unparseable text — ends recovery: everything before it is
//! replayed, the file is truncated back to the last intact frame, and new
//! appends continue from there. An fsync'd (acknowledged) record is never
//! behind a torn one, so acknowledged writes are never dropped.
//!
//! ## Durability policy
//!
//! [`SyncPolicy`] decides when appends reach stable storage: `Always`
//! fsyncs every batch (each return from a write IS the acknowledgment),
//! `IntervalMs(n)` fsyncs at most every `n` ms (bounded loss window),
//! `Never` leaves it to the OS (crash loses the tail; recovery still gets
//! a consistent prefix).

use sordf_columnar::crash_point;
use sordf_model::{ntriples, FxHashMap, Literal, Term, TermTriple, Value};
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

const MAGIC: &[u8; 8] = b"SORDFWAL";
/// High bit of the kind byte: the record body is [`WalFormat::Binary`].
const BINARY_KIND: u8 = 0x80;
const VERSION: u32 = 1;
const HEADER_LEN: u64 = 16;
/// Sanity bound on one frame's payload (a batch of N-Triples text).
const MAX_FRAME_LEN: u32 = 1 << 30;

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

/// On-disk encoding of a WAL record's body. See the [module docs](self).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WalFormat {
    /// N-Triples text: human-readable, the v1 format.
    #[default]
    Text,
    /// Varint-framed binary: a per-record distinct-term table plus the
    /// triples as varint indexes into it — smaller and faster to replay.
    Binary,
}

// ---- the binary record body ------------------------------------------------
//
// [n_terms varint] term* [n_triples varint] (s p o varint-index)*
// term: [tag u8][body]
//   0 Iri / 1 Blank / 2 Str:       varint len + UTF-8 bytes
//   3 Str with lang:               varint len + bytes, varint len + bytes
//   4 Int / 5 Decimal / 6 Date / 7 DateTime: zigzag varint
//   8 Bool:                        one byte

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

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

fn write_str(out: &mut Vec<u8>, s: &str) {
    write_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

fn read_str(bytes: &[u8], pos: &mut usize) -> Option<String> {
    let len = read_varint(bytes, pos)? as usize;
    let end = pos.checked_add(len)?;
    let s = bytes.get(*pos..end)?;
    *pos = end;
    String::from_utf8(s.to_vec()).ok()
}

fn write_term(out: &mut Vec<u8>, t: &Term) {
    match t {
        Term::Iri(iri) => {
            out.push(0);
            write_str(out, iri);
        }
        Term::Blank(label) => {
            out.push(1);
            write_str(out, label);
        }
        Term::Literal(Literal { value }) => match value {
            Value::Str {
                lexical,
                lang: None,
            } => {
                out.push(2);
                write_str(out, lexical);
            }
            Value::Str {
                lexical,
                lang: Some(lang),
            } => {
                out.push(3);
                write_str(out, lexical);
                write_str(out, lang);
            }
            Value::Int(v) => {
                out.push(4);
                write_varint(out, zigzag(*v));
            }
            Value::Decimal(v) => {
                out.push(5);
                write_varint(out, zigzag(*v));
            }
            Value::Date(v) => {
                out.push(6);
                write_varint(out, zigzag(*v));
            }
            Value::DateTime(v) => {
                out.push(7);
                write_varint(out, zigzag(*v));
            }
            Value::Bool(b) => {
                out.push(8);
                out.push(u8::from(*b));
            }
        },
    }
}

fn read_term(bytes: &[u8], pos: &mut usize) -> Option<Term> {
    let &tag = bytes.get(*pos)?;
    *pos += 1;
    Some(match tag {
        0 => Term::Iri(read_str(bytes, pos)?),
        1 => Term::Blank(read_str(bytes, pos)?),
        2 => Term::Literal(Literal::new(Value::Str {
            lexical: read_str(bytes, pos)?,
            lang: None,
        })),
        3 => Term::Literal(Literal::new(Value::Str {
            lexical: read_str(bytes, pos)?,
            lang: Some(read_str(bytes, pos)?),
        })),
        4 => Term::Literal(Literal::new(Value::Int(unzigzag(read_varint(bytes, pos)?)))),
        5 => Term::Literal(Literal::new(Value::Decimal(unzigzag(read_varint(
            bytes, pos,
        )?)))),
        6 => Term::Literal(Literal::new(Value::Date(unzigzag(read_varint(
            bytes, pos,
        )?)))),
        7 => Term::Literal(Literal::new(Value::DateTime(unzigzag(read_varint(
            bytes, pos,
        )?)))),
        8 => {
            let &b = bytes.get(*pos)?;
            *pos += 1;
            if b > 1 {
                return None;
            }
            Term::Literal(Literal::new(Value::Bool(b == 1)))
        }
        _ => return None,
    })
}

/// Serialize a batch as the binary record body.
fn encode_binary(out: &mut Vec<u8>, triples: &[TermTriple]) {
    let mut index: FxHashMap<&Term, u64> = FxHashMap::default();
    let mut table: Vec<&Term> = Vec::new();
    let mut ids = Vec::with_capacity(triples.len() * 3);
    for t in triples {
        for term in [&t.s, &t.p, &t.o] {
            let next = table.len() as u64;
            let id = *index.entry(term).or_insert_with(|| {
                table.push(term);
                next
            });
            ids.push(id);
        }
    }
    write_varint(out, table.len() as u64);
    for term in table {
        write_term(out, term);
    }
    write_varint(out, triples.len() as u64);
    for id in ids {
        write_varint(out, id);
    }
}

/// Parse a binary record body; `None` on any malformation (the caller
/// treats it as a torn frame).
fn decode_binary(bytes: &[u8]) -> Option<Vec<TermTriple>> {
    let mut pos = 0usize;
    let n_terms = read_varint(bytes, &mut pos)? as usize;
    // Each term takes at least 2 bytes: the table can't outnumber the body.
    if n_terms > bytes.len() {
        return None;
    }
    let mut table = Vec::with_capacity(n_terms);
    for _ in 0..n_terms {
        table.push(read_term(bytes, &mut pos)?);
    }
    let n_triples = read_varint(bytes, &mut pos)? as usize;
    if n_triples > bytes.len() {
        return None;
    }
    let mut out = Vec::with_capacity(n_triples);
    for _ in 0..n_triples {
        let mut spo = [0usize; 3];
        for slot in &mut spo {
            let id = read_varint(bytes, &mut pos)? as usize;
            if id >= table.len() {
                return None;
            }
            *slot = id;
        }
        out.push(TermTriple::new(
            table[spo[0]].clone(),
            table[spo[1]].clone(),
            table[spo[2]].clone(),
        ));
    }
    if pos != bytes.len() {
        return None; // trailing garbage: not a frame we wrote
    }
    Some(out)
}

/// One logged write batch, in term (not OID) space.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// An `insert_terms` batch.
    Insert(Vec<TermTriple>),
    /// A `delete_triples`/`delete_matching` batch (the resolved triples).
    Delete(Vec<TermTriple>),
    /// A `load_terms` batch (pre-organization staging writes: collapses
    /// into the base instead of the delta on replay, like the original).
    Load(Vec<TermTriple>),
}

/// What a logged batch does on replay — the low bits of a frame's kind
/// byte. The live write paths log a borrowed batch under its kind
/// ([`WalWriter::append_batch`]); recovery hands back owned [`WalRecord`]s.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalKind {
    Insert = 0,
    Delete = 1,
    Load = 2,
}

impl WalRecord {
    fn kind(&self) -> WalKind {
        match self {
            WalRecord::Insert(_) => WalKind::Insert,
            WalRecord::Delete(_) => WalKind::Delete,
            WalRecord::Load(_) => WalKind::Load,
        }
    }

    fn triples(&self) -> &[TermTriple] {
        match self {
            WalRecord::Insert(t) | WalRecord::Delete(t) | WalRecord::Load(t) => t,
        }
    }

    fn from_kind(kind: u8, triples: Vec<TermTriple>) -> Option<WalRecord> {
        match kind {
            0 => Some(WalRecord::Insert(triples)),
            1 => Some(WalRecord::Delete(triples)),
            2 => Some(WalRecord::Load(triples)),
            _ => None,
        }
    }
}

/// One record recovered from the log: `(lsn, seq, record)`, `lsn` being
/// the file offset just *after* the record's frame.
pub type RecoveredRecord = (u64, u64, WalRecord);

/// Append side of the log. Construct via [`WalWriter::create`] (fresh log)
/// or [`WalWriter::open_recover`] (replay + truncate-at-first-tear).
#[derive(Debug)]
pub struct WalWriter {
    file: File,
    path: PathBuf,
    /// Byte offset of the log end == the LSN of the next record.
    end: u64,
    /// Unsynced appends are pending.
    dirty: bool,
    last_sync: Instant,
    /// Body encoding for *subsequent* appends (recovery auto-detects per
    /// record, so a log may mix formats).
    format: WalFormat,
}

impl WalWriter {
    /// Create (truncate) a fresh log at `path` and fsync its header, so a
    /// crash right after creation recovers an empty log, not a missing one.
    pub fn create(path: &Path) -> io::Result<WalWriter> {
        WalWriter::create_with(path, WalFormat::default())
    }

    /// [`WalWriter::create`] with an explicit body encoding for appends.
    pub fn create_with(path: &Path, format: WalFormat) -> io::Result<WalWriter> {
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
            format,
        })
    }

    /// Open an existing log (or create one if missing), replaying every
    /// intact record and truncating the file back to the last intact frame.
    /// Returns the writer positioned to append, plus the recovered records
    /// as `(lsn, seq, record)` — `lsn` being the offset *after* the frame.
    pub fn open_recover(path: &Path) -> io::Result<(WalWriter, Vec<RecoveredRecord>)> {
        if !path.exists() {
            return Ok((WalWriter::create(path)?, Vec::new()));
        }
        let mut file = OpenOptions::new().read(true).write(true).open(path)?;
        let mut header = [0u8; HEADER_LEN as usize];
        let header_ok = {
            let mut read = 0usize;
            loop {
                match file.read(&mut header[read..]) {
                    Ok(0) => break read == header.len(),
                    Ok(n) => {
                        read += n;
                        if read == header.len() {
                            break true;
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(e),
                }
            }
        };
        if !header_ok
            || &header[..8] != MAGIC
            || u32::from_le_bytes([header[8], header[9], header[10], header[11]]) != VERSION
        {
            // The header itself is damaged: nothing in the file can be
            // trusted, start over with an empty log.
            drop(file);
            return Ok((WalWriter::create(path)?, Vec::new()));
        }
        let mut records = Vec::new();
        let mut good_end = HEADER_LEN;
        let mut buf = Vec::new();
        loop {
            let mut frame_header = [0u8; 8];
            if !read_exact_or_eof(&mut file, &mut frame_header)? {
                break;
            }
            let len = u32::from_le_bytes([
                frame_header[0],
                frame_header[1],
                frame_header[2],
                frame_header[3],
            ]);
            let crc = u32::from_le_bytes([
                frame_header[4],
                frame_header[5],
                frame_header[6],
                frame_header[7],
            ]);
            if !(9..=MAX_FRAME_LEN).contains(&len) {
                break;
            }
            buf.clear();
            buf.resize(len as usize, 0);
            if !read_exact_or_eof(&mut file, &mut buf)? {
                break;
            }
            if crc32(&buf) != crc {
                break;
            }
            let seq = u64::from_le_bytes([
                buf[0], buf[1], buf[2], buf[3], buf[4], buf[5], buf[6], buf[7],
            ]);
            let kind = buf[8];
            let triples = if kind & BINARY_KIND != 0 {
                match decode_binary(&buf[9..]) {
                    Some(t) => t,
                    None => break,
                }
            } else {
                let Ok(text) = std::str::from_utf8(&buf[9..]) else {
                    break;
                };
                match ntriples::parse_document(text) {
                    Ok(t) => t,
                    Err(_) => break,
                }
            };
            let Some(record) = WalRecord::from_kind(kind & !BINARY_KIND, triples) else {
                break;
            };
            good_end += 8 + len as u64;
            records.push((good_end, seq, record));
        }
        // Truncate the torn/corrupt tail so appends continue from the last
        // intact frame (and a later recovery never re-reads the tear).
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
                format: WalFormat::default(),
            },
            records,
        ))
    }

    /// The body encoding of subsequent appends.
    pub fn format(&self) -> WalFormat {
        self.format
    }

    /// Switch the body encoding for subsequent appends. Takes effect
    /// immediately; already-written records are untouched (recovery
    /// auto-detects per record).
    pub fn set_format(&mut self, format: WalFormat) {
        self.format = format;
    }

    /// The log's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The current end-of-log offset (the next record's LSN).
    pub fn lsn(&self) -> u64 {
        self.end
    }

    /// Append one record; returns its LSN (offset after the frame). The
    /// record is in the OS page cache after this returns — call
    /// [`WalWriter::sync`] (or let [`WalWriter::maybe_sync`] decide) to
    /// make it crash-durable.
    pub fn append(&mut self, seq: u64, record: &WalRecord) -> io::Result<u64> {
        self.append_batch(seq, record.kind(), record.triples())
    }

    /// [`WalWriter::append`] of a borrowed batch: the write paths log the
    /// caller's slice as it is, without first cloning it into a record.
    pub fn append_batch(
        &mut self,
        seq: u64,
        kind: WalKind,
        triples: &[TermTriple],
    ) -> io::Result<u64> {
        // The frame is assembled in place — header placeholder, payload,
        // then the length and checksum patched in — so the batch is
        // serialized exactly once.
        let mut frame = Vec::with_capacity(64 * triples.len() + 17);
        frame.extend_from_slice(&[0u8; 8]);
        frame.extend_from_slice(&seq.to_le_bytes());
        match self.format {
            WalFormat::Text => {
                frame.push(kind as u8);
                ntriples::write_document(&mut frame, triples)?;
            }
            WalFormat::Binary => {
                frame.push(kind as u8 | BINARY_KIND);
                encode_binary(&mut frame, triples);
            }
        }
        let len = u32::try_from(frame.len() - 8)
            .ok()
            .filter(|&l| l <= MAX_FRAME_LEN)
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "WAL batch too large"))?;
        let crc = crc32(&frame[8..]);
        frame[..4].copy_from_slice(&len.to_le_bytes());
        frame[4..8].copy_from_slice(&crc.to_le_bytes());
        crash_point!("wal.pre_append");
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
    use sordf_model::Term;

    fn tt(i: u64) -> TermTriple {
        TermTriple::new(
            Term::iri(format!("http://e/s{i}")),
            Term::iri("http://e/p"),
            Term::int(i as i64),
        )
    }

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

    #[test]
    fn append_recover_roundtrip() {
        let path = temp_path("roundtrip");
        let _c = Cleanup(path.clone());
        let mut wal = WalWriter::create(&path).unwrap();
        wal.append(1, &WalRecord::Insert(vec![tt(0), tt(1)]))
            .unwrap();
        wal.append(2, &WalRecord::Delete(vec![tt(0)])).unwrap();
        wal.append(3, &WalRecord::Load(vec![tt(2)])).unwrap();
        wal.sync().unwrap();
        drop(wal);
        let (wal, records) = WalWriter::open_recover(&path).unwrap();
        assert_eq!(records.len(), 3);
        assert_eq!(records[0].1, 1);
        assert_eq!(records[0].2, WalRecord::Insert(vec![tt(0), tt(1)]));
        assert_eq!(records[1].2, WalRecord::Delete(vec![tt(0)]));
        assert_eq!(records[2].2, WalRecord::Load(vec![tt(2)]));
        assert_eq!(records[2].0, wal.lsn(), "last record's lsn is the log end");
    }

    #[test]
    fn torn_tail_is_truncated() {
        let path = temp_path("torn");
        let _c = Cleanup(path.clone());
        let mut wal = WalWriter::create(&path).unwrap();
        wal.append(1, &WalRecord::Insert(vec![tt(0)])).unwrap();
        let good_end = wal.append(2, &WalRecord::Insert(vec![tt(1)])).unwrap();
        wal.append(3, &WalRecord::Insert(vec![tt(2)])).unwrap();
        wal.sync().unwrap();
        drop(wal);
        // Tear the last frame: chop 3 bytes off the file.
        let full = std::fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(full - 3).unwrap();
        drop(f);
        let (wal, records) = WalWriter::open_recover(&path).unwrap();
        assert_eq!(records.len(), 2, "the torn record is dropped");
        assert_eq!(records.last().unwrap().1, 2);
        assert_eq!(
            wal.lsn(),
            good_end,
            "file truncated to the last intact frame"
        );
        assert_eq!(std::fs::metadata(&path).unwrap().len(), good_end);
    }

    #[test]
    fn corrupt_frame_is_rejected_and_later_frames_dropped() {
        let path = temp_path("corrupt");
        let _c = Cleanup(path.clone());
        let mut wal = WalWriter::create(&path).unwrap();
        let end1 = wal.append(1, &WalRecord::Insert(vec![tt(0)])).unwrap();
        wal.append(2, &WalRecord::Insert(vec![tt(1)])).unwrap();
        wal.append(3, &WalRecord::Insert(vec![tt(2)])).unwrap();
        wal.sync().unwrap();
        drop(wal);
        // Flip one payload byte of the second record: its CRC must reject
        // it, and record 3 (though intact on disk) must not be replayed —
        // the log is only trustworthy up to the first tear.
        let mut bytes = std::fs::read(&path).unwrap();
        let idx = end1 as usize + 8 + 9; // second frame's first text byte
        bytes[idx] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let (wal, records) = WalWriter::open_recover(&path).unwrap();
        assert_eq!(records.len(), 1, "only the prefix before the tear");
        assert_eq!(wal.lsn(), end1);
    }

    #[test]
    fn appends_continue_after_recovery() {
        let path = temp_path("continue");
        let _c = Cleanup(path.clone());
        let mut wal = WalWriter::create(&path).unwrap();
        wal.append(1, &WalRecord::Insert(vec![tt(0)])).unwrap();
        wal.sync().unwrap();
        drop(wal);
        let (mut wal, _) = WalWriter::open_recover(&path).unwrap();
        wal.append(2, &WalRecord::Insert(vec![tt(1)])).unwrap();
        wal.sync().unwrap();
        drop(wal);
        let (_, records) = WalWriter::open_recover(&path).unwrap();
        assert_eq!(records.iter().map(|r| r.1).collect::<Vec<_>>(), vec![1, 2]);
    }

    #[test]
    fn damaged_header_restarts_the_log() {
        let path = temp_path("header");
        let _c = Cleanup(path.clone());
        let mut wal = WalWriter::create(&path).unwrap();
        wal.append(1, &WalRecord::Insert(vec![tt(0)])).unwrap();
        wal.sync().unwrap();
        drop(wal);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[0] = b'X';
        std::fs::write(&path, &bytes).unwrap();
        let (mut wal, records) = WalWriter::open_recover(&path).unwrap();
        assert!(records.is_empty(), "an untrusted header empties the log");
        assert_eq!(wal.lsn(), HEADER_LEN);
        wal.append(1, &WalRecord::Insert(vec![tt(9)])).unwrap();
        wal.sync().unwrap();
    }

    #[test]
    fn binary_roundtrip_all_term_types() {
        let path = temp_path("binary");
        let _c = Cleanup(path.clone());
        let exotic = vec![
            TermTriple::new(
                Term::iri("http://e/s"),
                Term::iri("http://e/p"),
                Term::Literal(Literal::new(Value::Str {
                    lexical: "bonjour \"le\" monde\n".into(),
                    lang: Some("fr".into()),
                })),
            ),
            TermTriple::new(
                Term::blank("b0"),
                Term::iri("http://e/p"),
                Term::str("plain"),
            ),
            TermTriple::new(
                Term::iri("http://e/s"),
                Term::iri("http://e/q"),
                Term::int(-42),
            ),
            TermTriple::new(
                Term::iri("http://e/s"),
                Term::iri("http://e/q"),
                Term::literal(Value::Decimal(-13_370_000)),
            ),
            TermTriple::new(
                Term::iri("http://e/s"),
                Term::iri("http://e/q"),
                Term::literal(Value::Date(-719_162)),
            ),
            TermTriple::new(
                Term::iri("http://e/s"),
                Term::iri("http://e/q"),
                Term::literal(Value::DateTime(1_234_567_890)),
            ),
            TermTriple::new(
                Term::iri("http://e/s"),
                Term::iri("http://e/q"),
                Term::literal(Value::Bool(true)),
            ),
        ];
        let mut wal = WalWriter::create_with(&path, WalFormat::Binary).unwrap();
        assert_eq!(wal.format(), WalFormat::Binary);
        wal.append(1, &WalRecord::Insert(exotic.clone())).unwrap();
        wal.append(2, &WalRecord::Delete(vec![exotic[0].clone()]))
            .unwrap();
        wal.append(3, &WalRecord::Load(vec![exotic[1].clone()]))
            .unwrap();
        wal.sync().unwrap();
        drop(wal);
        let (_, records) = WalWriter::open_recover(&path).unwrap();
        assert_eq!(records.len(), 3);
        assert_eq!(records[0].2, WalRecord::Insert(exotic.clone()));
        assert_eq!(records[1].2, WalRecord::Delete(vec![exotic[0].clone()]));
        assert_eq!(records[2].2, WalRecord::Load(vec![exotic[1].clone()]));
    }

    #[test]
    fn mixed_format_log_recovers() {
        let path = temp_path("mixed");
        let _c = Cleanup(path.clone());
        let mut wal = WalWriter::create(&path).unwrap();
        wal.append(1, &WalRecord::Insert(vec![tt(0)])).unwrap();
        wal.set_format(WalFormat::Binary);
        wal.append(2, &WalRecord::Insert(vec![tt(1)])).unwrap();
        wal.set_format(WalFormat::Text);
        wal.append(3, &WalRecord::Insert(vec![tt(2)])).unwrap();
        wal.sync().unwrap();
        drop(wal);
        let (_, records) = WalWriter::open_recover(&path).unwrap();
        assert_eq!(records.len(), 3, "formats interleave freely");
        for (i, r) in records.iter().enumerate() {
            assert_eq!(r.2, WalRecord::Insert(vec![tt(i as u64)]));
        }
    }

    #[test]
    fn binary_is_smaller_for_repetitive_batches() {
        // The term table pays off whenever subjects/predicates repeat —
        // the shape of every real batch.
        let batch: Vec<TermTriple> = (0..64).map(tt).collect();
        let text_path = temp_path("size-text");
        let bin_path = temp_path("size-bin");
        let _c1 = Cleanup(text_path.clone());
        let _c2 = Cleanup(bin_path.clone());
        let mut text = WalWriter::create(&text_path).unwrap();
        let mut bin = WalWriter::create_with(&bin_path, WalFormat::Binary).unwrap();
        let text_end = text.append(1, &WalRecord::Insert(batch.clone())).unwrap();
        let bin_end = bin.append(1, &WalRecord::Insert(batch)).unwrap();
        assert!(
            bin_end * 2 < text_end,
            "binary ({bin_end}) should be well under half of text ({text_end})"
        );
    }

    #[test]
    fn corrupt_binary_body_is_a_tear() {
        let path = temp_path("binary-corrupt");
        let _c = Cleanup(path.clone());
        let mut wal = WalWriter::create_with(&path, WalFormat::Binary).unwrap();
        let end1 = wal.append(1, &WalRecord::Insert(vec![tt(0)])).unwrap();
        wal.append(2, &WalRecord::Insert(vec![tt(1)])).unwrap();
        wal.sync().unwrap();
        drop(wal);
        // Corrupt the second record's body *and* fix up its CRC, so only
        // the binary parser can reject it (a bad term-table index).
        let mut bytes = std::fs::read(&path).unwrap();
        let frame = end1 as usize;
        let len = u32::from_le_bytes(bytes[frame..frame + 4].try_into().unwrap()) as usize;
        bytes[frame + 8 + len - 1] = 0x7F; // last varint index -> out of range
        let crc = crc32(&bytes[frame + 8..frame + 8 + len]);
        bytes[frame + 4..frame + 8].copy_from_slice(&crc.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let (wal, records) = WalWriter::open_recover(&path).unwrap();
        assert_eq!(records.len(), 1, "malformed binary body ends recovery");
        assert_eq!(wal.lsn(), end1);
    }

    #[test]
    fn interval_policy_bounds_sync_frequency() {
        let path = temp_path("interval");
        let _c = Cleanup(path.clone());
        let mut wal = WalWriter::create(&path).unwrap();
        wal.append(1, &WalRecord::Insert(vec![tt(0)])).unwrap();
        // A huge interval: maybe_sync leaves the record unsynced...
        wal.maybe_sync(SyncPolicy::IntervalMs(3_600_000)).unwrap();
        // ...while Always forces it out.
        wal.maybe_sync(SyncPolicy::Always).unwrap();
        // A zero interval syncs immediately on the next append.
        wal.append(2, &WalRecord::Insert(vec![tt(1)])).unwrap();
        wal.maybe_sync(SyncPolicy::IntervalMs(0)).unwrap();
    }
}
