//! The durable directory: manifest + checkpoint snapshots.
//!
//! A durable database lives in one directory:
//!
//! ```text
//! <dir>/MANIFEST    which snapshot + WAL are live (atomically replaced)
//! <dir>/snap.<N>    checkpoint: the dictionary and the visible triples as OIDs
//! <dir>/wal.<N>     write-ahead log of batches since that checkpoint
//! <dir>/data.db     page file — a *derived cache*, rebuilt on recovery
//! ```
//!
//! The commit protocol is the classic atomic-replace dance: write the new
//! snapshot, fsync it, write `MANIFEST.tmp`, fsync it, rename over
//! `MANIFEST`, fsync the directory. A crash before the rename leaves the
//! old manifest pointing at the old snapshot + WAL (both still present);
//! a crash after it leaves the new pair live — there is no intermediate
//! state. Stale `snap.*`/`wal.*` files are deleted only after the rename.
//!
//! ## Snapshot format
//!
//! A snapshot is the store's own integer form, not its text: the
//! dictionary's three pools dumped in index order and the visible triples
//! as raw OID triples under that numbering. Reading one back rebuilds the
//! dictionary pool by pool — entry `i` gets index `i` again, so every OID
//! means what it meant — and installs the triples verbatim; no term is
//! parsed or re-encoded. Which layouts were built and the schema
//! configuration ride in the header, and recovery rebuilds those layouts
//! over the loaded triples (pages are a derived cache).
//!
//! ```text
//! [magic "SORDFSNP"][version u32 LE = 2]
//! frame*: [section u8][len u32 LE][crc32 u32 LE][payload: len bytes]
//!
//! section 1 header : base_seq u64, layout flags u8, schema config,
//!                    length of the sorted string run u64     (one frame)
//! section 2 IRIs   : (varint len, UTF-8 bytes)*              (frames of whole
//! section 3 blanks : (varint len, UTF-8 bytes)*               entries, cut at
//! section 4 strings: (varint len, UTF-8 bytes)*               about 1 MiB)
//! section 5 triples: (s u64 LE, p u64 LE, o u64 LE)*
//! section 6 end    : entry count of sections 2–5, u64 each   (one frame)
//! ```
//!
//! The CRC covers section byte, length and payload. Both sides stream: the
//! writer fills one frame buffer from `(&Dictionary, impl Iterator<Item =
//! Triple>)`, checksums it and writes it out; the reader verifies a frame
//! before it parses a byte of it, and bounds every frame length by what is
//! left of the file before allocating. Neither ever holds a second copy of
//! the data. Sections appear in order, the end frame's counts must match
//! what was read and nothing may follow it, so a truncated, extended or
//! bit-flipped file is an error, never a different store.

use sordf_columnar::{crash_point, io_fault};
use sordf_model::{DictPool, Dictionary, Oid, Triple};
use sordf_schema::SchemaConfig;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

use crate::wal::{crc32, oid_resolves, read_u64, read_varint, write_varint, Crc32, PoolCounts};

const SNAP_MAGIC: &[u8; 8] = b"SORDFSNP";
const SNAP_VERSION: u32 = 2;
/// A frame is written out once its payload reaches this size.
const FRAME_TARGET: usize = 1 << 20;
/// Bytes of one frame header: section, length, checksum.
const FRAME_HEADER: usize = 9;
/// Bytes of one triple in section 5.
const TRIPLE_BYTES: usize = 24;

const SEC_HEADER: u8 = 1;
const SEC_IRIS: u8 = 2;
const SEC_BLANKS: u8 = 3;
const SEC_STRINGS: u8 = 4;
const SEC_TRIPLES: u8 = 5;
const SEC_END: u8 = 6;

/// The manifest file name inside a durable directory.
pub const MANIFEST_FILE: &str = "MANIFEST";

/// Which snapshot + WAL pair is live, plus the base sequence number the
/// snapshot folds up to (replayed WAL records with `seq <= base_seq` are
/// already inside the snapshot).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Manifest {
    /// `snap.<N>` holds the live checkpoint.
    pub snap_file: u64,
    /// `wal.<N>` holds the live log.
    pub wal_file: u64,
    /// Delta sequence number the snapshot covers.
    pub base_seq: u64,
}

impl Manifest {
    /// Path of the manifest inside `dir`.
    pub fn path(dir: &Path) -> PathBuf {
        dir.join(MANIFEST_FILE)
    }

    /// Path of snapshot `n` inside `dir`.
    pub fn snap_path(dir: &Path, n: u64) -> PathBuf {
        dir.join(format!("snap.{n}"))
    }

    /// Path of WAL `n` inside `dir`.
    pub fn wal_path(dir: &Path, n: u64) -> PathBuf {
        dir.join(format!("wal.{n}"))
    }

    /// Read the manifest, or `None` if the directory has none (a fresh or
    /// never-committed directory). A malformed manifest is an error — the
    /// atomic-replace protocol never leaves one behind, so damage means
    /// something external happened and silently starting empty would be
    /// data loss.
    pub fn read(dir: &Path) -> io::Result<Option<Manifest>> {
        let path = Manifest::path(dir);
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e),
        };
        let corrupt =
            |msg: &str| io::Error::new(io::ErrorKind::InvalidData, format!("manifest: {msg}"));
        let text = std::str::from_utf8(&bytes).map_err(|_| corrupt("not UTF-8"))?;
        let mut snap = None;
        let mut wal = None;
        let mut base_seq = None;
        let mut crc_line = None;
        let mut body_len = 0usize;
        for line in text.lines() {
            if let Some(v) = line.strip_prefix("crc = ") {
                crc_line = Some(v.trim().to_string());
                break;
            }
            body_len += line.len() + 1;
            let Some((k, v)) = line.split_once(" = ") else {
                continue;
            };
            let v: u64 = v.trim().parse().map_err(|_| corrupt("bad number"))?;
            match k.trim() {
                "snap" => snap = Some(v),
                "wal" => wal = Some(v),
                "base_seq" => base_seq = Some(v),
                _ => {}
            }
        }
        let crc_line = crc_line.ok_or_else(|| corrupt("missing crc"))?;
        let want = u32::from_str_radix(&crc_line, 16).map_err(|_| corrupt("bad crc"))?;
        if crc32(&bytes[..body_len.min(bytes.len())]) != want {
            return Err(corrupt("checksum mismatch"));
        }
        match (snap, wal, base_seq) {
            (Some(snap_file), Some(wal_file), Some(base_seq)) => Ok(Some(Manifest {
                snap_file,
                wal_file,
                base_seq,
            })),
            _ => Err(corrupt("missing field")),
        }
    }

    /// Atomically replace the manifest in `dir` with this one: tmp file +
    /// fsync + rename + directory fsync. The outer error is a failure before
    /// the rename: the previous manifest is still the live one. The inner
    /// one is the directory fsync after it: this manifest is the live one in
    /// the directory, but whether the rename survives a crash is unknown.
    pub fn commit(&self, dir: &Path) -> io::Result<io::Result<()>> {
        let mut body = String::new();
        body.push_str("sordf-manifest v1\n");
        body.push_str(&format!("snap = {}\n", self.snap_file));
        body.push_str(&format!("wal = {}\n", self.wal_file));
        body.push_str(&format!("base_seq = {}\n", self.base_seq));
        let crc = crc32(body.as_bytes());
        let full = format!("{body}crc = {crc:08x}\n");
        let tmp = dir.join("MANIFEST.tmp");
        {
            let mut f = File::create(&tmp)?;
            f.write_all(full.as_bytes())?;
            f.sync_data()?;
        }
        crash_point!("manifest.pre_rename");
        fs::rename(&tmp, Manifest::path(dir))?;
        crash_point!("manifest.post_rename");
        Ok(sync_dir(dir))
    }

    /// Delete every `snap.*`/`wal.*` in `dir` other than the live pair.
    /// Called after a successful commit; failures to unlink an orphan are
    /// returned but harmless to retry (recovery ignores orphans).
    pub fn remove_orphans(&self, dir: &Path) -> io::Result<()> {
        for entry in fs::read_dir(dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let stale = match name.split_once('.') {
                // A rebuild stages its snapshot at `snap.tmp` before the
                // rename; one left behind belongs to a crashed swap.
                Some(("snap", "tmp")) => true,
                Some(("snap", n)) => n
                    .parse::<u64>()
                    .map(|n| n != self.snap_file)
                    .unwrap_or(false),
                Some(("wal", n)) => n
                    .parse::<u64>()
                    .map(|n| n != self.wal_file)
                    .unwrap_or(false),
                Some(("MANIFEST", "tmp")) => true,
                _ => false,
            };
            if stale {
                fs::remove_file(entry.path())?;
            }
        }
        Ok(())
    }
}

/// Fsync a directory so a rename inside it is durable.
fn sync_dir(dir: &Path) -> io::Result<()> {
    io_fault!("manifest.dir_sync", dir);
    File::open(dir)?.sync_all()
}

/// Which store layouts a snapshot's generation had built (recovery rebuilds
/// the same set, in the builder's fixed order clustered → CS tables →
/// baseline). Bits 0–2 of the header's flag
/// byte; whether a schema was discovered is not recorded, because exactly
/// the two table layouts carry one. Bit 3 (a discovered schema) and bit 4
/// (plain page encoding) are retired: a snapshot that sets any bit above 2
/// is refused, never read as something else.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayoutFlags {
    pub baseline: bool,
    pub cs_parse_order: bool,
    pub clustered: bool,
}

impl LayoutFlags {
    fn to_byte(self) -> u8 {
        (self.baseline as u8) | (self.cs_parse_order as u8) << 1 | (self.clustered as u8) << 2
    }

    /// `None` when a bit above 2 is set.
    fn from_byte(b: u8) -> Option<LayoutFlags> {
        (b < 8).then_some(LayoutFlags {
            baseline: b & 1 != 0,
            cs_parse_order: b & 2 != 0,
            clustered: b & 4 != 0,
        })
    }
}

/// What a snapshot records besides the data itself.
#[derive(Debug, Clone)]
pub struct SnapshotHeader {
    /// Delta sequence number this snapshot folds up to.
    pub base_seq: u64,
    /// Layouts to rebuild on recovery.
    pub flags: LayoutFlags,
    /// Schema-discovery configuration the layouts were built with.
    pub schema_cfg: SchemaConfig,
}

/// A checkpoint read back: the dictionary, the visible triples encoded
/// under it, and everything needed to rebuild the physical layouts
/// deterministically. See the [module docs](self) for the file format.
#[derive(Debug)]
pub struct StoreSnapshot {
    pub header: SnapshotHeader,
    /// The dictionary as dumped: same entries, same indexes.
    pub dict: Dictionary,
    /// The visible triples, in the order they were written.
    pub triples: Vec<Triple>,
}

/// The writer's one buffer: the payload of the frame being filled.
struct FrameWriter<'p> {
    file: File,
    /// Where `file` lives (what an armed I/O fault is matched against).
    path: &'p Path,
    section: u8,
    payload: Vec<u8>,
}

impl FrameWriter<'_> {
    /// Start `section`, writing out what the previous one left buffered.
    fn begin(&mut self, section: u8) -> io::Result<()> {
        self.flush()?;
        self.section = section;
        Ok(())
    }

    /// Frames hold whole entries: cut before the entry that would overflow
    /// the target, never inside one.
    fn room_for(&mut self, entry_len: usize) -> io::Result<()> {
        if !self.payload.is_empty() && self.payload.len() + entry_len > FRAME_TARGET {
            self.flush()?;
        }
        Ok(())
    }

    fn put_str(&mut self, s: &str) -> io::Result<()> {
        self.room_for(s.len() + 10)?;
        write_varint(&mut self.payload, s.len() as u64);
        self.payload.extend_from_slice(s.as_bytes());
        Ok(())
    }

    fn put_triple(&mut self, t: Triple) -> io::Result<()> {
        self.room_for(TRIPLE_BYTES)?;
        for oid in [t.s, t.p, t.o] {
            self.payload.extend_from_slice(&oid.raw().to_le_bytes());
        }
        Ok(())
    }

    /// Write the buffered payload as one checksummed frame.
    fn flush(&mut self) -> io::Result<()> {
        if self.payload.is_empty() {
            return Ok(());
        }
        let len = u32::try_from(self.payload.len())
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "snapshot entry too large"))?;
        let mut head = [0u8; FRAME_HEADER];
        head[0] = self.section;
        head[1..5].copy_from_slice(&len.to_le_bytes());
        let mut crc = Crc32::new();
        crc.update(&head[..5]);
        crc.update(&self.payload);
        head[5..].copy_from_slice(&crc.finish().to_le_bytes());
        io_fault!("snap.write", self.path);
        self.file.write_all(&head)?;
        self.file.write_all(&self.payload)?;
        self.payload.clear();
        Ok(())
    }
}

impl StoreSnapshot {
    /// Stream a snapshot to `path` and fsync it: `dict`'s pools in index
    /// order, then `triples` as they come. Nothing is materialized beyond
    /// one frame buffer. Returns how many entries of each pool were dumped —
    /// the watermark the log behind this snapshot appends from.
    pub fn write_to(
        path: &Path,
        header: &SnapshotHeader,
        dict: &Dictionary,
        triples: impl Iterator<Item = Triple>,
    ) -> io::Result<PoolCounts> {
        let mut file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        file.write_all(SNAP_MAGIC)?;
        file.write_all(&SNAP_VERSION.to_le_bytes())?;
        let mut w = FrameWriter {
            file,
            path,
            section: SEC_HEADER,
            payload: Vec::with_capacity(FRAME_TARGET + TRIPLE_BYTES),
        };
        w.payload.extend_from_slice(&header.base_seq.to_le_bytes());
        w.payload.push(header.flags.to_byte());
        encode_schema_cfg(&header.schema_cfg, &mut w.payload);
        w.payload
            .extend_from_slice(&(dict.n_strings_frozen() as u64).to_le_bytes());
        // The end frame records what was actually written, entry by entry.
        let mut counts = [0u64; 4];
        let pools = [
            (SEC_IRIS, DictPool::Iris),
            (SEC_BLANKS, DictPool::Blanks),
            (SEC_STRINGS, DictPool::Strings),
        ];
        for ((section, pool), n) in pools.into_iter().zip(&mut counts) {
            w.begin(section)?;
            dict.try_for_each_entry(pool, |s| {
                *n += 1;
                w.put_str(s)
            })?;
        }
        w.begin(SEC_TRIPLES)?;
        for t in triples {
            w.put_triple(t)?;
            counts[3] += 1;
        }
        w.begin(SEC_END)?;
        for n in counts {
            w.payload.extend_from_slice(&n.to_le_bytes());
        }
        w.flush()?;
        crash_point!("snap.pre_sync");
        io_fault!("snap.sync", w.path);
        w.file.sync_data()?;
        crash_point!("snap.post_sync");
        Ok([counts[0], counts[1], counts[2]])
    }

    /// Read and verify a snapshot. Any damage is an error: a snapshot is
    /// only ever referenced by a manifest *after* being fully written and
    /// fsynced, so a bad one means external corruption, not a torn write.
    pub fn read_from(path: &Path) -> io::Result<StoreSnapshot> {
        let corrupt =
            |msg: &str| io::Error::new(io::ErrorKind::InvalidData, format!("snapshot: {msg}"));
        let truncated = |e: io::Error| match e.kind() {
            io::ErrorKind::UnexpectedEof => corrupt("truncated"),
            _ => e,
        };
        let mut f = File::open(path)?;
        let mut left = f.metadata()?.len();
        let mut preamble = [0u8; 12];
        f.read_exact(&mut preamble).map_err(truncated)?;
        left = left.saturating_sub(preamble.len() as u64);
        if &preamble[..8] != SNAP_MAGIC {
            return Err(corrupt("bad magic"));
        }
        if preamble[8..] != SNAP_VERSION.to_le_bytes() {
            return Err(corrupt("unsupported version"));
        }
        let mut header: Option<(SnapshotHeader, usize)> = None;
        let mut pools: [Vec<String>; 3] = Default::default();
        let mut triples: Vec<Triple> = Vec::new();
        let mut payload = Vec::new();
        let mut last_section = 0u8;
        loop {
            let mut head = [0u8; FRAME_HEADER];
            f.read_exact(&mut head).map_err(truncated)?;
            left = left.saturating_sub(head.len() as u64);
            let section = head[0];
            let len = u32::from_le_bytes([head[1], head[2], head[3], head[4]]);
            let want_crc = u32::from_le_bytes([head[5], head[6], head[7], head[8]]);
            // Bounded before allocation: a frame cannot be longer than what
            // is left of the file.
            if u64::from(len) > left {
                return Err(corrupt("frame longer than the file"));
            }
            payload.resize(len as usize, 0);
            f.read_exact(&mut payload).map_err(truncated)?;
            left -= u64::from(len); // len <= left, checked above
            let mut crc = Crc32::new();
            crc.update(&head[..5]);
            crc.update(&payload);
            if crc.finish() != want_crc {
                return Err(corrupt("checksum mismatch"));
            }
            // One header frame first, then sections in ascending order.
            if section < last_section.max(SEC_HEADER) || (section == SEC_HEADER) != header.is_none()
            {
                return Err(corrupt("frame out of order"));
            }
            last_section = section;
            match section {
                SEC_HEADER => {
                    header = Some(decode_header(&payload).ok_or_else(|| corrupt("bad header"))?)
                }
                SEC_IRIS | SEC_BLANKS | SEC_STRINGS => {
                    decode_entries(&payload, &mut pools[(section - SEC_IRIS) as usize])
                        .ok_or_else(|| corrupt("bad dictionary entry"))?;
                }
                SEC_TRIPLES => {
                    let mut off = 0usize;
                    while off < payload.len() {
                        let mut oid = || read_u64(&payload, &mut off).map(Oid::from_raw);
                        let (Some(s), Some(p), Some(o)) = (oid(), oid(), oid()) else {
                            return Err(corrupt("ragged triple frame"));
                        };
                        triples.push(Triple::new(s, p, o));
                    }
                }
                SEC_END => break,
                _ => return Err(corrupt("unknown section")),
            }
        }
        if left != 0 {
            return Err(corrupt("bytes after the end frame"));
        }
        let counts = [
            pools[0].len() as u64,
            pools[1].len() as u64,
            pools[2].len() as u64,
            triples.len() as u64,
        ];
        let mut off = 0usize;
        for n in counts {
            if read_u64(&payload, &mut off) != Some(n) {
                return Err(corrupt("entry counts disagree with the end frame"));
            }
        }
        if off != payload.len() {
            return Err(corrupt("bad end frame"));
        }
        // sordf-lint: allow(L3) — the loop above only leaves past a header frame.
        let (header, strings_frozen) = header.expect("header frame precedes the end frame");
        // Every OID must resolve under the dumped dictionary, and subjects
        // and predicates must be IRIs — what every builder assumes.
        let pool_counts: PoolCounts = [counts[0], counts[1], counts[2]];
        if !triples.iter().all(|t| {
            oid_resolves(t.s, &pool_counts, true)
                && oid_resolves(t.p, &pool_counts, true)
                && oid_resolves(t.o, &pool_counts, false)
        }) {
            return Err(corrupt("triple references no dictionary entry"));
        }
        let [iris, blanks, strings] = pools;
        let dict = Dictionary::from_pools(iris, blanks, strings, strings_frozen)
            .map_err(|e| corrupt(&e.to_string()))?;
        Ok(StoreSnapshot {
            header,
            dict,
            triples,
        })
    }
}

/// The header frame: `(header, length of the sorted string run)`.
fn decode_header(payload: &[u8]) -> Option<(SnapshotHeader, usize)> {
    let mut off = 0usize;
    let base_seq = read_u64(payload, &mut off)?;
    let flags = LayoutFlags::from_byte(*payload.get(off)?)?;
    off += 1;
    let schema_cfg = decode_schema_cfg(payload, &mut off)?;
    let strings_frozen = usize::try_from(read_u64(payload, &mut off)?).ok()?;
    (off == payload.len()).then_some((
        SnapshotHeader {
            base_seq,
            flags,
            schema_cfg,
        },
        strings_frozen,
    ))
}

/// One frame of `(varint len, UTF-8 bytes)` dictionary entries.
fn decode_entries(payload: &[u8], out: &mut Vec<String>) -> Option<()> {
    let mut pos = 0usize;
    while pos < payload.len() {
        let len = usize::try_from(read_varint(payload, &mut pos)?).ok()?;
        let end = pos.checked_add(len)?;
        out.push(
            std::str::from_utf8(payload.get(pos..end)?)
                .ok()?
                .to_string(),
        );
        pos = end;
    }
    Some(())
}

/// Serialize every `SchemaConfig` field in a fixed order; floats as raw
/// bits so the round trip is exact.
fn encode_schema_cfg(cfg: &SchemaConfig, out: &mut Vec<u8>) {
    out.extend_from_slice(&cfg.min_support.to_le_bytes());
    for f in [
        cfg.nullable_min_presence,
        cfg.merge_overlap,
        cfg.merge_jaccard,
        cfg.type_dominance,
        cfg.variant_min_frac,
        cfg.fk_threshold,
        cfg.multi_split_frac,
        cfg.multi_split_mean,
    ] {
        out.extend_from_slice(&f.to_bits().to_le_bytes());
    }
    out.push(cfg.unify_one_to_one as u8);
}

fn decode_schema_cfg(body: &[u8], off: &mut usize) -> Option<SchemaConfig> {
    let min_support = read_u64(body, off)?;
    let mut floats = [0f64; 8];
    for f in floats.iter_mut() {
        *f = f64::from_bits(read_u64(body, off)?);
    }
    let unify = *body.get(*off)?;
    *off += 1;
    Some(SchemaConfig {
        min_support,
        nullable_min_presence: floats[0],
        merge_overlap: floats[1],
        merge_jaccard: floats[2],
        type_dominance: floats[3],
        variant_min_frac: floats[4],
        fk_threshold: floats[5],
        multi_split_frac: floats[6],
        multi_split_mean: floats[7],
        unify_one_to_one: unify != 0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sordf_model::{Term, Value};

    fn temp_dir(tag: &str) -> PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        // ordering: Relaxed — unique temp names only.
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("sordf-manifest-{tag}-{}-{n}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    struct Cleanup(PathBuf);
    impl Drop for Cleanup {
        fn drop(&mut self) {
            // sordf-lint: allow(L7) — best-effort temp cleanup in a test.
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn manifest_roundtrip_and_missing() {
        let dir = temp_dir("roundtrip");
        let _c = Cleanup(dir.clone());
        assert!(Manifest::read(&dir).unwrap().is_none());
        let m = Manifest {
            snap_file: 3,
            wal_file: 7,
            base_seq: 42,
        };
        m.commit(&dir).unwrap().unwrap();
        assert_eq!(Manifest::read(&dir).unwrap(), Some(m));
        // Replace: the new manifest fully supersedes the old.
        let m2 = Manifest {
            snap_file: 4,
            wal_file: 8,
            base_seq: 50,
        };
        m2.commit(&dir).unwrap().unwrap();
        assert_eq!(Manifest::read(&dir).unwrap(), Some(m2));
    }

    #[test]
    fn tampered_manifest_is_an_error_not_empty() {
        let dir = temp_dir("tamper");
        let _c = Cleanup(dir.clone());
        let m = Manifest {
            snap_file: 1,
            wal_file: 1,
            base_seq: 0,
        };
        m.commit(&dir).unwrap().unwrap();
        let path = Manifest::path(&dir);
        let text = fs::read_to_string(&path).unwrap();
        fs::write(&path, text.replace("snap = 1", "snap = 2")).unwrap();
        assert!(Manifest::read(&dir).is_err(), "checksum must catch edits");
    }

    #[test]
    fn remove_orphans_keeps_the_live_pair() {
        let dir = temp_dir("orphans");
        let _c = Cleanup(dir.clone());
        for n in [1u64, 2] {
            fs::write(Manifest::snap_path(&dir, n), b"s").unwrap();
            fs::write(Manifest::wal_path(&dir, n), b"w").unwrap();
        }
        fs::write(dir.join("snap.tmp"), b"staged").unwrap();
        let m = Manifest {
            snap_file: 2,
            wal_file: 2,
            base_seq: 0,
        };
        m.remove_orphans(&dir).unwrap();
        assert!(!Manifest::snap_path(&dir, 1).exists());
        assert!(!Manifest::wal_path(&dir, 1).exists());
        assert!(!dir.join("snap.tmp").exists());
        assert!(Manifest::snap_path(&dir, 2).exists());
        assert!(Manifest::wal_path(&dir, 2).exists());
    }

    /// A small store exercising every section: a sorted string run plus a
    /// tail string, a blank-pool entry, all OID kinds.
    fn sample_store() -> (Dictionary, Vec<Triple>) {
        let mut dict = Dictionary::new();
        for s in ["pear", "apple", "fig"] {
            dict.encode_value(&Value::str(s)).unwrap();
        }
        dict.sort_strings();
        dict.encode_blank("b0");
        let p = dict.encode_iri("http://e/p");
        let mut triples = Vec::new();
        for i in 0..5i64 {
            let s = dict.encode_iri(&format!("http://e/s{i}"));
            triples.push(Triple::new(s, p, Oid::from_int(i).unwrap()));
        }
        let late = dict.encode_value(&Value::str("late")).unwrap();
        triples.push(Triple::new(triples[0].s, p, late));
        triples.push(Triple::new(triples[0].s, p, triples[1].s));
        (dict, triples)
    }

    fn sample_header() -> SnapshotHeader {
        SnapshotHeader {
            base_seq: 9,
            flags: LayoutFlags {
                baseline: true,
                cs_parse_order: false,
                clustered: true,
            },
            schema_cfg: SchemaConfig {
                min_support: 5,
                ..SchemaConfig::default()
            },
        }
    }

    fn decoded(snap: &StoreSnapshot) -> Vec<[Term; 3]> {
        snap.triples
            .iter()
            .map(|t| [t.s, t.p, t.o].map(|o| snap.dict.decode(o).unwrap()))
            .collect()
    }

    #[test]
    fn snapshot_roundtrip_preserves_numbering() {
        let dir = temp_dir("snap");
        let _c = Cleanup(dir.clone());
        let (dict, triples) = sample_store();
        let path = Manifest::snap_path(&dir, 0);
        StoreSnapshot::write_to(&path, &sample_header(), &dict, triples.iter().copied()).unwrap();
        let back = StoreSnapshot::read_from(&path).unwrap();
        assert_eq!(back.header.base_seq, 9);
        assert_eq!(back.header.flags, sample_header().flags);
        assert_eq!(back.header.schema_cfg.min_support, 5);
        // Verbatim OIDs that decode to the same terms, and lookups that
        // find the same OIDs: the numbering survived.
        assert_eq!(back.triples, triples);
        for t in &triples {
            for oid in [t.s, t.p, t.o] {
                let term = dict.decode(oid).unwrap();
                assert_eq!(back.dict.decode(oid).unwrap(), term);
                assert_eq!(back.dict.term_oid(&term), Some(oid));
            }
        }
        assert_eq!(back.dict.n_strings_frozen(), dict.n_strings_frozen());
        assert_eq!(back.dict.n_blanks(), 1);
    }

    #[test]
    fn frames_are_cut_at_entry_boundaries() {
        // Enough triples and strings for several frames of each, plus one
        // string larger than a frame.
        let dir = temp_dir("frames");
        let _c = Cleanup(dir.clone());
        let dict = Dictionary::new();
        let p = dict.encode_iri("http://e/p");
        let s = dict.encode_iri("http://e/s");
        let big = "x".repeat(FRAME_TARGET + 17);
        let mut triples = vec![Triple::new(
            s,
            p,
            dict.encode_value(&Value::str(&*big)).unwrap(),
        )];
        for i in 0..40_000 {
            let o = dict.encode_value(&Value::str(format!("{i:060}"))).unwrap();
            triples.push(Triple::new(s, p, o));
        }
        triples.extend((0..60_000).map(|i| Triple::new(s, p, Oid::from_int(i).unwrap())));
        let path = Manifest::snap_path(&dir, 0);
        StoreSnapshot::write_to(&path, &sample_header(), &dict, triples.iter().copied()).unwrap();
        let len = fs::metadata(&path).unwrap().len() as usize;
        assert!(len > 3 * FRAME_TARGET, "several frames ({len} bytes)");
        let back = StoreSnapshot::read_from(&path).unwrap();
        assert_eq!(back.triples, triples);
        assert_eq!(back.dict.decode(triples[0].o).unwrap(), Term::str(big));
    }

    /// ROADMAP item 4, on-disk readers: no damaged snapshot may panic the
    /// reader or come back as a different store.
    #[test]
    fn every_bit_flip_and_truncation_is_an_error() {
        let dir = temp_dir("snapfuzz");
        let _c = Cleanup(dir.clone());
        let path = Manifest::snap_path(&dir, 0);
        let (dict, triples) = sample_store();
        StoreSnapshot::write_to(&path, &sample_header(), &dict, triples.iter().copied()).unwrap();
        let good = fs::read(&path).unwrap();
        let want = decoded(&StoreSnapshot::read_from(&path).unwrap());
        let damaged = path.with_extension("damaged");
        for len in 0..good.len() {
            fs::write(&damaged, &good[..len]).unwrap();
            assert!(
                StoreSnapshot::read_from(&damaged).is_err(),
                "truncation to {len} of {} bytes was accepted",
                good.len()
            );
        }
        for bit in 0..good.len() * 8 {
            let mut bytes = good.clone();
            bytes[bit / 8] ^= 1 << (bit % 8);
            fs::write(&damaged, &bytes).unwrap();
            assert!(
                StoreSnapshot::read_from(&damaged).is_err(),
                "flip of bit {bit} was accepted"
            );
        }
        let mut longer = good.clone();
        longer.push(0);
        fs::write(&damaged, &longer).unwrap();
        assert!(StoreSnapshot::read_from(&damaged).is_err(), "trailing byte");
        // The reference itself still reads back (the loop damaged copies).
        assert_eq!(decoded(&StoreSnapshot::read_from(&path).unwrap()), want);
    }

    #[test]
    fn empty_snapshot_roundtrips_and_rejects_damage() {
        // What `init_durable` commits before the first write.
        let dir = temp_dir("snapempty");
        let _c = Cleanup(dir.clone());
        let path = Manifest::snap_path(&dir, 0);
        let header = SnapshotHeader {
            base_seq: 0,
            flags: LayoutFlags::default(),
            schema_cfg: SchemaConfig::default(),
        };
        StoreSnapshot::write_to(&path, &header, &Dictionary::new(), std::iter::empty()).unwrap();
        let back = StoreSnapshot::read_from(&path).unwrap();
        assert!(back.triples.is_empty());
        assert_eq!(back.dict.n_iris() + back.dict.n_strings(), 0);
        let good = fs::read(&path).unwrap();
        for len in 0..good.len() {
            fs::write(&path, &good[..len]).unwrap();
            assert!(StoreSnapshot::read_from(&path).is_err(), "truncation {len}");
        }
        for bit in 0..good.len() * 8 {
            let mut bytes = good.clone();
            bytes[bit / 8] ^= 1 << (bit % 8);
            fs::write(&path, &bytes).unwrap();
            assert!(StoreSnapshot::read_from(&path).is_err(), "bit {bit}");
        }
    }

    /// Re-frame `payload` with a valid checksum, so only the structural
    /// checks behind the CRC can reject it.
    fn frame(section: u8, payload: &[u8]) -> Vec<u8> {
        let mut out = vec![section];
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        let mut crc = Crc32::new();
        crc.update(&out);
        crc.update(payload);
        out.extend_from_slice(&crc.finish().to_le_bytes());
        out.extend_from_slice(payload);
        out
    }

    #[test]
    fn well_checksummed_nonsense_is_rejected() {
        let dir = temp_dir("snapcraft");
        let _c = Cleanup(dir.clone());
        let path = Manifest::snap_path(&dir, 0);
        let (dict, triples) = sample_store();
        StoreSnapshot::write_to(&path, &sample_header(), &dict, triples.iter().copied()).unwrap();
        let good = fs::read(&path).unwrap();
        let preamble = &good[..12];
        // Split the reference into its frames.
        let mut frames: Vec<(u8, Vec<u8>)> = Vec::new();
        let mut pos = 12;
        while pos < good.len() {
            let len = u32::from_le_bytes(good[pos + 1..pos + 5].try_into().unwrap()) as usize;
            frames.push((good[pos], good[pos + 9..pos + 9 + len].to_vec()));
            pos += 9 + len;
        }
        let assemble = |frames: &[(u8, Vec<u8>)]| {
            let mut out = preamble.to_vec();
            for (section, payload) in frames {
                out.extend(frame(*section, payload));
            }
            out
        };
        let rejects = |bytes: Vec<u8>, why: &str| {
            fs::write(&path, bytes).unwrap();
            let err = StoreSnapshot::read_from(&path).expect_err(why);
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{why}: {err}");
        };
        assert_eq!(assemble(&frames), good, "the splitter is faithful");
        let section = |sec: u8| frames.iter().position(|f| f.0 == sec).unwrap();

        // A length that claims more than the file holds: refused before any
        // allocation of that size (u32::MAX would be 4 GiB).
        let mut huge = good.clone();
        huge[13..17].copy_from_slice(&u32::MAX.to_le_bytes());
        rejects(huge, "oversized frame length");

        let mut f = frames.clone();
        f.swap(section(SEC_IRIS), section(SEC_STRINGS));
        rejects(assemble(&f), "sections out of order");

        let mut f = frames.clone();
        f.remove(section(SEC_HEADER));
        rejects(assemble(&f), "no header frame");

        let mut f = frames.clone();
        f.insert(1, frames[0].clone());
        rejects(assemble(&f), "two header frames");

        let mut f = frames.clone();
        f.remove(section(SEC_BLANKS));
        rejects(assemble(&f), "a pool short of the end frame's count");

        let mut f = frames.clone();
        let t = section(SEC_TRIPLES);
        f[t].1.truncate(TRIPLE_BYTES + 1);
        rejects(assemble(&f), "ragged triple frame");

        // An object OID past the string pool, then one with an unassigned tag.
        for raw in [Oid::string(99).raw(), 0xB000_0000_0000_0001u64] {
            let mut f = frames.clone();
            f[t].1[16..24].copy_from_slice(&raw.to_le_bytes());
            rejects(assemble(&f), "dangling object OID");
        }
        // A literal in subject position.
        let mut f = frames.clone();
        f[t].1[..8].copy_from_slice(&Oid::from_int(1).unwrap().raw().to_le_bytes());
        rejects(assemble(&f), "non-IRI subject");

        // A duplicated IRI (two indexes for one term).
        let mut f = frames.clone();
        let i = section(SEC_IRIS);
        let dup = f[i].1.clone();
        f[i].1.extend(dup);
        rejects(assemble(&f), "duplicate dictionary entry");

        // The sorted run claimed longer than it is sorted.
        let mut f = frames.clone();
        let h = section(SEC_HEADER);
        let at = f[h].1.len() - 8;
        f[h].1[at..].copy_from_slice(&4u64.to_le_bytes());
        rejects(assemble(&f), "unsorted frozen string run");
    }

    #[test]
    fn v1_snapshot_is_an_unsupported_version() {
        let dir = temp_dir("snapv1");
        let _c = Cleanup(dir.clone());
        let path = Manifest::snap_path(&dir, 0);
        // The v1 layout: magic, version 1, body length, body CRC, body.
        let body = [0u8; 90];
        let mut bytes = SNAP_MAGIC.to_vec();
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&(body.len() as u64).to_le_bytes());
        bytes.extend_from_slice(&crc32(&body).to_le_bytes());
        bytes.extend_from_slice(&body);
        fs::write(&path, bytes).unwrap();
        let err = StoreSnapshot::read_from(&path).unwrap_err();
        assert!(err.to_string().contains("unsupported version"), "{err}");
    }

    /// A snapshot written when bits 3 (schema) and 4 (plain pages) of the
    /// layout flags still meant something is refused, well checksummed or
    /// not: the reader never guesses what a retired bit meant.
    #[test]
    fn retired_layout_bits_are_refused() {
        let dir = temp_dir("snapbits");
        let _c = Cleanup(dir.clone());
        let path = Manifest::snap_path(&dir, 0);
        let (dict, triples) = sample_store();
        StoreSnapshot::write_to(&path, &sample_header(), &dict, triples.iter().copied()).unwrap();
        let good = fs::read(&path).unwrap();
        // The header frame follows the 12-byte preamble; its payload is
        // base_seq (8 bytes), then the flag byte.
        let len = u32::from_le_bytes(good[13..17].try_into().unwrap()) as usize;
        let (start, end) = (12 + FRAME_HEADER, 12 + FRAME_HEADER + len);
        for bit in 3..8 {
            let mut payload = good[start..end].to_vec();
            payload[8] |= 1 << bit;
            let mut bytes = good[..12].to_vec();
            bytes.extend(frame(SEC_HEADER, &payload));
            bytes.extend_from_slice(&good[end..]);
            fs::write(&path, bytes).unwrap();
            let err = StoreSnapshot::read_from(&path).expect_err("retired layout bit");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "bit {bit}: {err}");
        }
    }
}
