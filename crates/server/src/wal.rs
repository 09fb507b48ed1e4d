//! Durable storage for the registry: a write-ahead revision log with
//! crash-safe replay, plus periodic compiled-artifact snapshots.
//!
//! The paper's premise is that the compiled revised base `T'` is the
//! expensive artifact worth keeping — so a server that forgets every
//! named KB on restart throws away exactly the thing the
//! compact-representation theorems price. With a `--data-dir`, the
//! server appends every **committed** mutation (`load` / `revise` /
//! `drop`) to an append-only log and periodically dumps the
//! [`ArtifactCache`](crate::registry::ArtifactCache) — keyed by the
//! same canonical formula encoding used for cache lookups — to a
//! snapshot file. On boot, the snapshot pre-warms the cache and the
//! log is replayed: every model-based revise in the log then *hits*
//! the cache instead of recompiling, so the first client query after a
//! crash is a warm answer.
//!
//! ## On-disk format (version 1, pinned by a golden-file test)
//!
//! `wal.log` is the 8-byte magic `REVKBW1\n` followed by records:
//!
//! ```text
//! record  := len:u32le  crc:u32le  payload[len]     (crc = CRC-32/IEEE of payload)
//! payload := 'L' str(kb) str(t)                      load
//!          | 'R' str(kb) str(op) str(p) str(backend) revise
//!          | 'D' str(kb)                             drop
//! str     := len:u32le bytes[len]                    (UTF-8)
//! ```
//!
//! `snapshot.bin` is the magic `REVKBS1\n` followed by records framed
//! the same way, one per cached artifact:
//!
//! ```text
//! payload := str(cache_key) str(canonical_formula) n:u32le var:u32le × n logical:u8
//! ```
//!
//! ## Crash safety
//!
//! A record is appended only **after** the operation succeeded in
//! memory, and (under the default `REVKB_WAL_SYNC=always`) `sync_all`
//! runs before the append returns — so a record in the log is a
//! committed operation, and a crash can lose at most an operation
//! whose response the client never saw. Replay reads records until the
//! first short, checksum-failing, or undecodable one and truncates the
//! file there: a torn tail can never apply a partial revise.
//! Snapshots are written to `snapshot.tmp`, synced, then renamed, so a
//! crash mid-snapshot leaves the previous snapshot intact; a corrupt
//! snapshot is ignored (replay recompiles — slower, never wrong).

use crate::registry::{parse_canonical, Artifact};
use revkb_logic::Var;
use std::fs::{File, OpenOptions};
use std::io::{self, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Environment variable naming the durable data directory
/// (equivalent to `--data-dir`). Unset means no persistence.
pub const DATA_DIR_ENV: &str = "REVKB_SERVER_DATA_DIR";
/// Environment variable selecting the fsync discipline
/// (`always` | `batch` | `off`, default `always`).
pub const SYNC_ENV: &str = "REVKB_WAL_SYNC";
/// Environment variable setting how many logged revises elapse between
/// artifact snapshots (0 disables snapshots; default 8).
pub const SNAPSHOT_EVERY_ENV: &str = "REVKB_WAL_SNAPSHOT_EVERY";

/// Log file name inside the data directory.
pub const LOG_FILE: &str = "wal.log";
/// Snapshot file name inside the data directory.
pub const SNAPSHOT_FILE: &str = "snapshot.bin";
/// Magic bytes opening `wal.log` (the trailing version digit bumps on
/// any incompatible format change).
pub const LOG_MAGIC: &[u8; 8] = b"REVKBW1\n";
/// Magic bytes opening `snapshot.bin`.
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"REVKBS1\n";
/// Under `SyncMode::Batch`, `sync_all` runs every this many appends
/// (and at every snapshot), bounding the crash-loss window.
pub const BATCH_SYNC_APPENDS: u64 = 16;
/// Upper bound on a single record's payload length. Nothing the
/// server logs comes close; a replicated header claiming more than
/// this is corruption (or a desynchronised stream), not a record to
/// wait for.
pub const MAX_RECORD_LEN: u32 = 16 * 1024 * 1024;
/// Default revises-between-snapshots when the knob is unset.
pub const DEFAULT_SNAPSHOT_EVERY: usize = 8;

/// How eagerly appends reach stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncMode {
    /// `sync_all` after every append: a record is durable before the
    /// client sees the response. The default.
    Always,
    /// `sync_all` every [`BATCH_SYNC_APPENDS`] appends and at every
    /// snapshot: bounded loss window, much cheaper under load.
    Batch,
    /// Never fsync; durability is whatever the OS page cache gives.
    Off,
}

impl SyncMode {
    /// Parse the `REVKB_WAL_SYNC` value.
    pub fn parse(s: &str) -> Option<SyncMode> {
        match s.trim().to_ascii_lowercase().as_str() {
            "always" => Some(SyncMode::Always),
            "batch" => Some(SyncMode::Batch),
            "off" => Some(SyncMode::Off),
            _ => None,
        }
    }

    /// The wire tag reported in `stats`.
    pub fn tag(self) -> &'static str {
        match self {
            SyncMode::Always => "always",
            SyncMode::Batch => "batch",
            SyncMode::Off => "off",
        }
    }
}

/// One logged registry mutation. Strings are the request's raw texts
/// and wire tags: parsing is deterministic (letters intern in order of
/// first appearance per KB), so replaying the texts reproduces the
/// exact formulas — and with them the exact canonical cache keys.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalOp {
    /// `load`: create (or replace) a named KB.
    Load {
        /// KB name.
        kb: String,
        /// `;`-separated theory text.
        t: String,
    },
    /// `revise`: one committed revision step.
    Revise {
        /// KB name.
        kb: String,
        /// Operator wire tag.
        op: String,
        /// Revision formula text.
        p: String,
        /// Backend wire tag.
        backend: String,
    },
    /// `drop`: remove a named KB.
    Drop {
        /// KB name.
        kb: String,
    },
}

// ---------------------------------------------------------------- CRC

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
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
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc32_table();

/// CRC-32 (IEEE 802.3, the zlib polynomial) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ------------------------------------------------------ record coding

fn push_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn read_u32(bytes: &[u8], pos: &mut usize) -> Option<u32> {
    let slice = bytes.get(*pos..*pos + 4)?;
    *pos += 4;
    Some(u32::from_le_bytes(slice.try_into().expect("4-byte slice")))
}

fn read_str(bytes: &[u8], pos: &mut usize) -> Option<String> {
    let len = read_u32(bytes, pos)? as usize;
    let slice = bytes.get(*pos..*pos + len)?;
    *pos += len;
    String::from_utf8(slice.to_vec()).ok()
}

fn encode_payload(op: &WalOp) -> Vec<u8> {
    let mut out = Vec::new();
    match op {
        WalOp::Load { kb, t } => {
            out.push(b'L');
            push_str(&mut out, kb);
            push_str(&mut out, t);
        }
        WalOp::Revise { kb, op, p, backend } => {
            out.push(b'R');
            push_str(&mut out, kb);
            push_str(&mut out, op);
            push_str(&mut out, p);
            push_str(&mut out, backend);
        }
        WalOp::Drop { kb } => {
            out.push(b'D');
            push_str(&mut out, kb);
        }
    }
    out
}

fn decode_payload(payload: &[u8]) -> Option<WalOp> {
    let mut pos = 1usize;
    let op = match *payload.first()? {
        b'L' => WalOp::Load {
            kb: read_str(payload, &mut pos)?,
            t: read_str(payload, &mut pos)?,
        },
        b'R' => WalOp::Revise {
            kb: read_str(payload, &mut pos)?,
            op: read_str(payload, &mut pos)?,
            p: read_str(payload, &mut pos)?,
            backend: read_str(payload, &mut pos)?,
        },
        b'D' => WalOp::Drop {
            kb: read_str(payload, &mut pos)?,
        },
        _ => return None,
    };
    (pos == payload.len()).then_some(op)
}

fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 8);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Encode one operation as a complete on-disk record
/// (length prefix + checksum + payload). Public so the format can be
/// pinned by golden-file tests.
pub fn encode_record(op: &WalOp) -> Vec<u8> {
    frame(&encode_payload(op))
}

/// Walk framed records from the front of `bytes`, stopping at the
/// first short, checksum-failing, or undecodable record. Returns the
/// decoded prefix and the byte length of the good prefix — everything
/// past it is a torn tail to truncate.
pub fn decode_records(bytes: &[u8]) -> (Vec<WalOp>, usize) {
    let mut ops = Vec::new();
    let mut pos = 0usize;
    while let Some((payload, next)) = next_frame(bytes, pos) {
        let Some(op) = decode_payload(payload) else {
            break;
        };
        ops.push(op);
        pos = next;
    }
    (ops, pos)
}

/// Walk framed records from the front of `bytes` (the log body,
/// *after* the magic) and return the `(len, crc)` header of the last
/// complete record, or `None` when there is no complete record. The
/// replication handshake uses this to cross-check that a replica's
/// final durable record matches the primary's record at the same
/// offset before resuming the stream.
pub fn last_frame_info(bytes: &[u8]) -> Option<(u32, u32)> {
    let mut pos = 0usize;
    let mut last = None;
    while let Some((payload, next)) = next_frame(bytes, pos) {
        last = Some((payload.len() as u32, crc32(payload)));
        pos = next;
    }
    last
}

/// Read the framed record starting at `pos`: returns its payload and
/// the offset just past it, or `None` when the record is short,
/// fails its checksum, or `pos` is at (or inside) a torn tail.
fn next_frame(bytes: &[u8], pos: usize) -> Option<(&[u8], usize)> {
    let header = bytes.get(pos..pos + 8)?;
    let len = u32::from_le_bytes(header[..4].try_into().expect("4 bytes")) as usize;
    let crc = u32::from_le_bytes(header[4..].try_into().expect("4 bytes"));
    let payload = bytes.get(pos + 8..pos + 8 + len)?;
    (crc32(payload) == crc).then_some((payload, pos + 8 + len))
}

// -------------------------------------------------- snapshot coding

fn encode_artifact(key: &str, artifact: &Artifact) -> Vec<u8> {
    let mut out = Vec::new();
    push_str(&mut out, key);
    let mut formula = String::new();
    crate::registry::canonical_formula(&artifact.formula, &mut formula);
    push_str(&mut out, &formula);
    out.extend_from_slice(&(artifact.base.len() as u32).to_le_bytes());
    for v in &artifact.base {
        out.extend_from_slice(&v.0.to_le_bytes());
    }
    out.push(artifact.logical as u8);
    out
}

fn decode_artifact(payload: &[u8]) -> Option<(String, Artifact)> {
    let mut pos = 0usize;
    let key = read_str(payload, &mut pos)?;
    let formula = parse_canonical(&read_str(payload, &mut pos)?)?;
    let n = read_u32(payload, &mut pos)? as usize;
    let mut base = Vec::with_capacity(n);
    for _ in 0..n {
        base.push(Var(read_u32(payload, &mut pos)?));
    }
    let logical = match payload.get(pos)? {
        0 => false,
        1 => true,
        _ => return None,
    };
    (pos + 1 == payload.len()).then_some((
        key,
        Artifact {
            formula,
            base,
            logical,
        },
    ))
}

/// Render a full snapshot file (magic + one framed record per cached
/// artifact) as bytes.
pub fn encode_snapshot<'a>(entries: impl Iterator<Item = (&'a String, &'a Artifact)>) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(SNAPSHOT_MAGIC);
    for (key, artifact) in entries {
        out.extend_from_slice(&frame(&encode_artifact(key, artifact)));
    }
    out
}

/// Decode a snapshot file, keeping the valid prefix of entries (a
/// corrupt entry discards it and everything after it — replay then
/// recompiles those artifacts instead).
pub fn decode_snapshot(bytes: &[u8]) -> Vec<(String, Artifact)> {
    let Some(body) = bytes.strip_prefix(SNAPSHOT_MAGIC.as_slice()) else {
        return Vec::new();
    };
    let mut entries = Vec::new();
    let mut pos = 0usize;
    while let Some((payload, next)) = next_frame(body, pos) {
        let Some(entry) = decode_artifact(payload) else {
            break;
        };
        entries.push(entry);
        pos = next;
    }
    entries
}

// ------------------------------------------------------------- files

/// What booting from a data directory found, before replay.
#[derive(Debug)]
pub struct Recovered {
    /// The open log, positioned for appending.
    pub wal: Wal,
    /// Committed operations to replay, in commit order.
    pub ops: Vec<WalOp>,
    /// Snapshot artifacts to pre-warm the cache with.
    pub snapshot: Vec<(String, Artifact)>,
    /// Bytes discarded from the log's torn tail (0 on a clean boot).
    pub truncated_bytes: u64,
    /// `(len, crc)` header of the last committed record, used by a
    /// replica to prove its log is a prefix of the primary's when it
    /// resumes replication. `None` when the log is empty.
    pub last_record: Option<(u32, u32)>,
}

/// Post-replay recovery summary, surfaced in `stats`.
#[derive(Debug, Clone, Copy, Default)]
pub struct RecoveryReport {
    /// Log records successfully re-applied.
    pub replayed: u64,
    /// Log records that failed to re-apply and were skipped.
    pub replay_errors: u64,
    /// Artifacts pre-warmed from the snapshot.
    pub snapshot_artifacts: u64,
    /// Torn-tail bytes truncated from the log.
    pub truncated_bytes: u64,
    /// Wall time of the whole recovery (open + prewarm + replay).
    pub boot_micros: u64,
}

/// The open write-ahead log: an append handle plus the counters the
/// `stats` command reports under `wal`.
#[derive(Debug)]
pub struct Wal {
    dir: PathBuf,
    file: File,
    sync: SyncMode,
    snapshot_every: usize,
    appends_since_sync: u64,
    revises_since_snapshot: usize,
    /// Records in the log (replayed + appended this process).
    pub records: u64,
    /// Log size in bytes (magic + records).
    pub bytes: u64,
    /// Records appended by this process.
    pub appends: u64,
    /// Appends that failed with an I/O error (the in-memory state is
    /// then ahead of the log; the client was warned via stderr).
    pub append_errors: u64,
    /// `sync_all` calls issued on the log.
    pub fsyncs: u64,
    /// Snapshots written by this process.
    pub snapshots: u64,
}

impl Wal {
    /// Open (or create) the data directory: read the snapshot, scan
    /// the log, truncate any torn tail, and leave the log open for
    /// appending. Never errors on *corrupt* contents — corruption
    /// shrinks what is recovered; only real I/O failures error.
    pub fn open(dir: &Path, sync: SyncMode, snapshot_every: usize) -> io::Result<Recovered> {
        std::fs::create_dir_all(dir)?;
        let log_path = dir.join(LOG_FILE);
        let existing = match std::fs::read(&log_path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e),
        };
        let (ops, mut good_len) =
            if existing.len() >= LOG_MAGIC.len() && existing[..LOG_MAGIC.len()] == LOG_MAGIC[..] {
                let (ops, good) = decode_records(&existing[LOG_MAGIC.len()..]);
                (ops, LOG_MAGIC.len() + good)
            } else {
                // Missing, empty, or foreign file: start a fresh log.
                (Vec::new(), 0)
            };
        let truncated_bytes = (existing.len() - good_len) as u64;
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&log_path)?;
        if good_len == 0 {
            file.set_len(0)?;
            file.write_all(LOG_MAGIC)?;
            good_len = LOG_MAGIC.len();
        } else {
            file.set_len(good_len as u64)?;
        }
        file.seek(SeekFrom::End(0))?;
        if truncated_bytes > 0 && sync != SyncMode::Off {
            file.sync_all()?;
        }
        let snapshot = match std::fs::read(dir.join(SNAPSHOT_FILE)) {
            Ok(bytes) => decode_snapshot(&bytes),
            Err(_) => Vec::new(),
        };
        let records = ops.len() as u64;
        let last_record = if good_len > LOG_MAGIC.len() {
            last_frame_info(&existing[LOG_MAGIC.len()..good_len])
        } else {
            None
        };
        Ok(Recovered {
            wal: Wal {
                dir: dir.to_path_buf(),
                file,
                sync,
                snapshot_every,
                appends_since_sync: 0,
                revises_since_snapshot: 0,
                records,
                bytes: good_len as u64,
                appends: 0,
                append_errors: 0,
                fsyncs: 0,
                snapshots: 0,
            },
            ops,
            snapshot,
            truncated_bytes,
            last_record,
        })
    }

    /// The fsync discipline tag for `stats`.
    pub fn sync_tag(&self) -> &'static str {
        self.sync.tag()
    }

    /// Path of the log file this WAL appends to. Replication streams
    /// read committed bytes through an independent handle on this
    /// path, so tailing never contends with the append lock.
    pub fn log_path(&self) -> PathBuf {
        self.dir.join(LOG_FILE)
    }

    /// Append one committed operation, honouring the sync discipline.
    pub fn append(&mut self, op: &WalOp) -> io::Result<()> {
        let record = encode_record(op);
        self.file.write_all(&record)?;
        self.records += 1;
        self.appends += 1;
        self.bytes += record.len() as u64;
        if matches!(op, WalOp::Revise { .. }) {
            self.revises_since_snapshot += 1;
        }
        match self.sync {
            SyncMode::Always => {
                self.file.sync_all()?;
                self.fsyncs += 1;
            }
            SyncMode::Batch => {
                self.appends_since_sync += 1;
                if self.appends_since_sync >= BATCH_SYNC_APPENDS {
                    self.file.sync_all()?;
                    self.fsyncs += 1;
                    self.appends_since_sync = 0;
                }
            }
            SyncMode::Off => {}
        }
        Ok(())
    }

    /// Append one already-framed record exactly as received — the
    /// replication path: record encoding is canonical, so a replica
    /// that appends the shipped bytes verbatim keeps a log that is
    /// byte-for-byte a prefix of the primary's, which is what makes
    /// resume offsets directly comparable across nodes. The caller
    /// has already verified the frame's checksum.
    pub fn append_raw(&mut self, record: &[u8]) -> io::Result<()> {
        self.file.write_all(record)?;
        self.records += 1;
        self.appends += 1;
        self.bytes += record.len() as u64;
        match self.sync {
            SyncMode::Always => {
                self.file.sync_all()?;
                self.fsyncs += 1;
            }
            SyncMode::Batch => {
                self.appends_since_sync += 1;
                if self.appends_since_sync >= BATCH_SYNC_APPENDS {
                    self.file.sync_all()?;
                    self.fsyncs += 1;
                    self.appends_since_sync = 0;
                }
            }
            SyncMode::Off => {}
        }
        Ok(())
    }

    /// Is a snapshot due (enough revises logged since the last one)?
    pub fn snapshot_due(&self) -> bool {
        self.snapshot_every > 0 && self.revises_since_snapshot >= self.snapshot_every
    }

    /// Write a snapshot of the artifact cache atomically: temp file,
    /// `sync_all`, rename over [`SNAPSHOT_FILE`], directory sync. A
    /// crash at any point leaves either the old or the new snapshot.
    pub fn write_snapshot<'a>(
        &mut self,
        entries: impl Iterator<Item = (&'a String, &'a Artifact)>,
    ) -> io::Result<()> {
        let bytes = encode_snapshot(entries);
        let tmp = self.dir.join("snapshot.tmp");
        {
            let mut f = File::create(&tmp)?;
            f.write_all(&bytes)?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, self.dir.join(SNAPSHOT_FILE))?;
        if let Ok(d) = File::open(&self.dir) {
            let _ = d.sync_all();
        }
        // Under `batch`, a snapshot is also a durability point for the
        // log: records the snapshot supersedes must not outlive it.
        if self.sync == SyncMode::Batch && self.appends_since_sync > 0 {
            self.file.sync_all()?;
            self.fsyncs += 1;
            self.appends_since_sync = 0;
        }
        self.snapshots += 1;
        self.revises_since_snapshot = 0;
        Ok(())
    }
}

impl Drop for Wal {
    fn drop(&mut self) {
        // Graceful exit flushes whatever `batch` mode still owes.
        if self.sync != SyncMode::Off {
            let _ = self.file.sync_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use revkb_logic::Formula;

    fn ops() -> Vec<WalOp> {
        vec![
            WalOp::Load {
                kb: "k".into(),
                t: "a & b; b -> c".into(),
            },
            WalOp::Revise {
                kb: "k".into(),
                op: "dalal".into(),
                p: "!a".into(),
                backend: "direct".into(),
            },
            WalOp::Drop { kb: "k".into() },
        ]
    }

    #[test]
    fn crc32_matches_the_standard_check_value() {
        // The canonical CRC-32/IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn records_round_trip() {
        let mut log = Vec::new();
        for op in ops() {
            log.extend_from_slice(&encode_record(&op));
        }
        let (decoded, good) = decode_records(&log);
        assert_eq!(decoded, ops());
        assert_eq!(good, log.len());
    }

    #[test]
    fn every_truncation_point_yields_a_committed_prefix() {
        let mut log = Vec::new();
        let mut boundaries = vec![0usize];
        for op in ops() {
            log.extend_from_slice(&encode_record(&op));
            boundaries.push(log.len());
        }
        for cut in 0..=log.len() {
            let (decoded, good) = decode_records(&log[..cut]);
            // The good prefix is the last record boundary at or below
            // the cut — never a partially applied record.
            let expected = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
            assert_eq!(decoded.len(), expected, "cut at {cut}");
            assert_eq!(good, boundaries[expected], "cut at {cut}");
            assert_eq!(decoded, ops()[..expected], "cut at {cut}");
        }
    }

    #[test]
    fn corrupt_byte_stops_the_scan_at_that_record() {
        let mut log = Vec::new();
        for op in ops() {
            log.extend_from_slice(&encode_record(&op));
        }
        let first_len = encode_record(&ops()[0]).len();
        // Flip a payload byte inside the second record.
        log[first_len + 9] ^= 0x40;
        let (decoded, good) = decode_records(&log);
        assert_eq!(decoded, ops()[..1]);
        assert_eq!(good, first_len);
    }

    #[test]
    fn snapshot_round_trips_and_tolerates_corruption() {
        let a1 = Artifact {
            formula: Formula::var(Var(0)).and(Formula::var(Var(3)).not()),
            base: vec![Var(0), Var(3)],
            logical: true,
        };
        let a2 = Artifact {
            formula: Formula::var(Var(1)).implies(Formula::var(Var(2))),
            base: vec![Var(1), Var(2)],
            logical: false,
        };
        let entries = [("key-1".to_string(), a1), ("key-2".to_string(), a2)];
        let bytes = encode_snapshot(entries.iter().map(|(k, a)| (k, a)));
        let decoded = decode_snapshot(&bytes);
        assert_eq!(decoded.len(), 2);
        for ((k, a), (dk, da)) in entries.iter().zip(&decoded) {
            assert_eq!(k, dk);
            assert_eq!(a.formula, da.formula);
            assert_eq!(a.base, da.base);
            assert_eq!(a.logical, da.logical);
        }
        // Corrupting the second entry keeps the first.
        let mut corrupt = bytes.clone();
        let cut = SNAPSHOT_MAGIC.len() + 8 + {
            let body = &bytes[SNAPSHOT_MAGIC.len()..];
            u32::from_le_bytes(body[..4].try_into().unwrap()) as usize
        };
        corrupt[cut + 9] ^= 0xFF;
        let decoded = decode_snapshot(&corrupt);
        assert_eq!(decoded.len(), 1);
        assert_eq!(decoded[0].0, "key-1");
        // A foreign file decodes to nothing.
        assert!(decode_snapshot(b"not a snapshot").is_empty());
    }

    #[test]
    fn sync_mode_parses_the_documented_values() {
        assert_eq!(SyncMode::parse("always"), Some(SyncMode::Always));
        assert_eq!(SyncMode::parse(" Batch "), Some(SyncMode::Batch));
        assert_eq!(SyncMode::parse("off"), Some(SyncMode::Off));
        assert_eq!(SyncMode::parse("sometimes"), None);
        for mode in [SyncMode::Always, SyncMode::Batch, SyncMode::Off] {
            assert_eq!(SyncMode::parse(mode.tag()), Some(mode));
        }
    }

    #[test]
    fn open_append_reopen_recovers_everything() {
        let dir = std::env::temp_dir().join(format!("revkb-wal-unit-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let mut recovered = Wal::open(&dir, SyncMode::Always, 0).unwrap();
            assert!(recovered.ops.is_empty());
            assert_eq!(recovered.truncated_bytes, 0);
            for op in ops() {
                recovered.wal.append(&op).unwrap();
            }
            assert_eq!(recovered.wal.records, 3);
            assert_eq!(recovered.wal.fsyncs, 3);
        }
        // Clean reopen: all three records come back.
        let recovered = Wal::open(&dir, SyncMode::Always, 0).unwrap();
        assert_eq!(recovered.ops, ops());
        assert_eq!(recovered.truncated_bytes, 0);
        drop(recovered);
        // Tear the tail mid-record: reopen truncates to two records,
        // and the file on disk shrinks to the good prefix.
        let log_path = dir.join(LOG_FILE);
        let full = std::fs::read(&log_path).unwrap();
        std::fs::write(&log_path, &full[..full.len() - 3]).unwrap();
        let recovered = Wal::open(&dir, SyncMode::Always, 0).unwrap();
        assert_eq!(recovered.ops, ops()[..2]);
        assert!(recovered.truncated_bytes > 0);
        drop(recovered);
        let after = std::fs::read(&log_path).unwrap();
        assert_eq!(after.len(), full.len() - encode_record(&ops()[2]).len());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn last_frame_info_tracks_the_final_complete_record() {
        assert_eq!(last_frame_info(&[]), None);
        let mut log = Vec::new();
        for op in ops() {
            log.extend_from_slice(&encode_record(&op));
            let record = encode_record(&op);
            let expected = (
                (record.len() - 8) as u32,
                u32::from_le_bytes(record[4..8].try_into().unwrap()),
            );
            assert_eq!(last_frame_info(&log), Some(expected));
        }
        // A torn tail does not change the answer.
        log.extend_from_slice(&[0x07, 0x00, 0x00]);
        let record = encode_record(&ops()[2]);
        assert_eq!(
            last_frame_info(&log),
            Some((
                (record.len() - 8) as u32,
                u32::from_le_bytes(record[4..8].try_into().unwrap()),
            ))
        );
    }

    #[test]
    fn raw_appends_recover_identically_to_encoded_ones() {
        let dir = std::env::temp_dir().join(format!("revkb-wal-raw-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let mut recovered = Wal::open(&dir, SyncMode::Always, 0).unwrap();
            assert_eq!(recovered.last_record, None);
            for op in ops() {
                recovered.wal.append_raw(&encode_record(&op)).unwrap();
            }
            assert_eq!(recovered.wal.records, 3);
            assert_eq!(
                recovered.wal.bytes,
                LOG_MAGIC.len() as u64
                    + ops()
                        .iter()
                        .map(|op| encode_record(op).len() as u64)
                        .sum::<u64>()
            );
        }
        let recovered = Wal::open(&dir, SyncMode::Always, 0).unwrap();
        assert_eq!(recovered.ops, ops());
        let record = encode_record(&ops()[2]);
        assert_eq!(
            recovered.last_record,
            Some((
                (record.len() - 8) as u32,
                u32::from_le_bytes(record[4..8].try_into().unwrap()),
            ))
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
