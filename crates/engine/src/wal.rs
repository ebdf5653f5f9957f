//! The append-only transaction log behind durable sessions, and the one durable
//! format: versioned binary framing with a per-record length prefix and CRC-32
//! checksum, written through an fsync'ing writer with an injectable fault point so
//! crash-recovery tests can kill the writer at any byte offset. A data directory's
//! compaction image is a file in the same format holding exactly one
//! [`WalRecord::Image`] frame (see [`read_image`]).
//!
//! # On-disk format
//!
//! ```text
//! file   := header record*
//! header := "FLOGWAL1"                          (8 bytes, format version 1)
//! record := len:u32le crc:u32le payload         (crc = CRC-32/IEEE of payload)
//!
//! payload := kind:u8 seq:u64le body
//!   kind 1 (txn)    body := nops:u32le op*
//!                   op   := polarity:u8 pred:str arity:u16le const{arity}
//!   kind 2 (source) body := str                  (Datalog text absorbed verbatim)
//!   kind 3 (image)  body := rules:str nrels:u32le rel*
//!                   rel  := pred:str arity:u16le nrows:u32le const{arity * nrows}
//!   const := 0x00 i64le | 0x01 str
//!   str   := len:u32le utf8-bytes
//! ```
//!
//! Every record carries a monotonically increasing sequence number. An image
//! records the sequence it includes, so a log tail that survives a crashed
//! compaction is replayed only from the first record the image does *not*
//! already contain — records are applied at most once no matter where a crash
//! lands.
//!
//! # Recovery contract
//!
//! [`read_log`] scans from the start and stops at the first record whose length
//! prefix overruns the file, whose CRC mismatches, or whose payload fails to
//! decode. Everything before that point is returned; everything at and after it is
//! the *torn tail* — the bytes a crashed writer left behind — which
//! [`recover_log`] truncates away so the log is append-ready again. A torn write
//! can therefore lose only the record being written at the moment of the crash,
//! never a previously synced one. An image file has no torn tail: it is written
//! whole and renamed into place, so [`read_image`] refuses anything but one
//! intact image frame.

use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use factorlog_datalog::ast::Const;
use factorlog_datalog::symbol::Symbol;

/// Magic bytes opening every log file: identifies the file *and* its format
/// version (`FLOGWAL1` = framing version 1).
pub const WAL_MAGIC: &[u8; 8] = b"FLOGWAL1";

/// Hard ceiling on one record's payload (sanity bound during scans: a corrupt
/// length prefix must not provoke a multi-gigabyte allocation).
pub const MAX_RECORD_BYTES: u32 = 1 << 28;

/// Errors raised by the log layer.
#[derive(Debug)]
pub enum WalError {
    /// An underlying filesystem operation failed.
    Io(std::io::Error),
    /// The file exists but does not open with the `FLOGWAL1` header.
    BadHeader(PathBuf),
    /// A record failed to decode *before* the scan's stop point (only raised by
    /// strict decoding paths; tail scans turn this into truncation instead).
    Corrupt(String),
    /// The injected fault point fired: the writer "crashed" mid-write, leaving a
    /// torn tail behind. Test-harness only; never raised in production configs.
    Injected {
        /// Bytes of the in-flight record that reached the file before the crash.
        written: usize,
    },
    /// The record exceeds [`MAX_RECORD_BYTES`]; nothing was written (recovery
    /// would refuse to read such a record, so acknowledging it would lose it —
    /// and everything after it — at the next open).
    TooLarge {
        /// Encoded payload size of the rejected record.
        bytes: usize,
    },
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal i/o error: {e}"),
            WalError::BadHeader(path) => {
                write!(f, "{} is not a factorlog wal (bad header)", path.display())
            }
            WalError::Corrupt(message) => write!(f, "corrupt wal record: {message}"),
            WalError::Injected { written } => {
                write!(f, "injected wal fault after {written} byte(s)")
            }
            WalError::TooLarge { bytes } => write!(
                f,
                "record of {bytes} bytes exceeds the {MAX_RECORD_BYTES} byte record limit"
            ),
        }
    }
}

impl std::error::Error for WalError {}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> Self {
        WalError::Io(e)
    }
}

/// CRC-32 (IEEE 802.3, the zlib/PNG polynomial), table-driven.
fn crc32_table() -> &'static [u32; 256] {
    static TABLE: std::sync::OnceLock<[u32; 256]> = std::sync::OnceLock::new();
    TABLE.get_or_init(|| {
        let mut table = [0u32; 256];
        for (i, slot) in table.iter_mut().enumerate() {
            let mut crc = i as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ 0xEDB8_8320
                } else {
                    crc >> 1
                };
            }
            *slot = crc;
        }
        table
    })
}

/// CRC-32 checksum of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let table = crc32_table();
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = (crc >> 8) ^ table[((crc ^ b as u32) & 0xFF) as usize];
    }
    crc ^ 0xFFFF_FFFF
}

/// Polarity of one operation of a transaction batch — the same value from the
/// queue of a [`Txn`](crate::Txn) or a server `TXN` to the log record and back
/// out of it on replay.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WalOp {
    /// The fact was asserted.
    Assert,
    /// The fact was retracted.
    Retract,
}

/// One decoded log record.
#[derive(Clone, Debug, PartialEq)]
pub enum WalRecord {
    /// A committed transaction batch: the operations exactly as the caller queued
    /// them (pre-routing predicate names — replay re-derives IDB assertion routing
    /// and exit rules deterministically).
    Txn {
        /// This record's sequence number.
        seq: u64,
        /// The batch, in queue order.
        ops: Vec<(WalOp, Symbol, Vec<Const>)>,
    },
    /// Datalog source text absorbed into the session (rule registrations and bulk
    /// fact loads), replayed verbatim through the parser.
    Source {
        /// This record's sequence number.
        seq: u64,
        /// The absorbed text.
        text: String,
    },
    /// A whole session image — a compaction's snapshot, or a follower's
    /// bootstrap: installing it replaces the session's program and fact store,
    /// and it covers every record up to and including `seq`.
    Image {
        /// The last sequence number the image includes.
        seq: u64,
        /// The registered program as rule text (what `Source` records carry).
        rules: String,
        /// Every stored relation as (name, arity, rows).
        relations: Vec<(Symbol, usize, Vec<Vec<Const>>)>,
    },
}

impl WalRecord {
    /// The record's sequence number.
    pub fn seq(&self) -> u64 {
        match self {
            WalRecord::Txn { seq, .. }
            | WalRecord::Source { seq, .. }
            | WalRecord::Image { seq, .. } => *seq,
        }
    }

    /// Set the record's sequence number.
    pub(crate) fn set_seq(&mut self, to: u64) {
        match self {
            WalRecord::Txn { seq, .. }
            | WalRecord::Source { seq, .. }
            | WalRecord::Image { seq, .. } => *seq = to,
        }
    }

    /// Encode the record payload (everything the CRC covers).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            WalRecord::Txn { seq, ops } => {
                out.push(1u8);
                out.extend_from_slice(&seq.to_le_bytes());
                out.extend_from_slice(&(ops.len() as u32).to_le_bytes());
                for (op, predicate, tuple) in ops {
                    out.push(match op {
                        WalOp::Assert => 0u8,
                        WalOp::Retract => 1u8,
                    });
                    encode_str(&mut out, predicate.as_str());
                    out.extend_from_slice(&(tuple.len() as u16).to_le_bytes());
                    encode_consts(&mut out, tuple);
                }
            }
            WalRecord::Source { seq, text } => {
                out.push(2u8);
                out.extend_from_slice(&seq.to_le_bytes());
                encode_str(&mut out, text);
            }
            WalRecord::Image {
                seq,
                rules,
                relations,
            } => {
                out.push(3u8);
                out.extend_from_slice(&seq.to_le_bytes());
                encode_str(&mut out, rules);
                out.extend_from_slice(&(relations.len() as u32).to_le_bytes());
                for (name, arity, rows) in relations {
                    encode_str(&mut out, name.as_str());
                    out.extend_from_slice(&(*arity as u16).to_le_bytes());
                    out.extend_from_slice(&(rows.len() as u32).to_le_bytes());
                    for row in rows {
                        encode_consts(&mut out, row);
                    }
                }
            }
        }
        out
    }

    /// Decode one record payload. Any framing violation is an error (the caller
    /// decides whether that means corruption or a torn tail).
    pub fn decode(payload: &[u8]) -> Result<WalRecord, WalError> {
        let mut cursor = Cursor::new(payload);
        let kind = cursor.u8()?;
        let seq = cursor.u64()?;
        let record = match kind {
            1 => {
                // An op is at least a polarity, a name length and an arity.
                let nops = cursor.count(7, "op")?;
                let mut ops = Vec::with_capacity(nops);
                for _ in 0..nops {
                    let op = match cursor.u8()? {
                        0 => WalOp::Assert,
                        1 => WalOp::Retract,
                        other => return Err(WalError::Corrupt(format!("unknown op tag {other}"))),
                    };
                    let predicate = Symbol::intern(cursor.str()?);
                    let arity = cursor.u16()? as usize;
                    ops.push((op, predicate, cursor.consts(arity)?));
                }
                WalRecord::Txn { seq, ops }
            }
            2 => WalRecord::Source {
                seq,
                text: cursor.str()?.to_string(),
            },
            3 => {
                let rules = cursor.str()?.to_string();
                // A relation is at least a name length, an arity and a row count.
                let nrels = cursor.count(10, "relation")?;
                let mut relations = Vec::with_capacity(nrels);
                for _ in 0..nrels {
                    let name = Symbol::intern(cursor.str()?);
                    let arity = cursor.u16()? as usize;
                    // A constant is at least 5 bytes; a relation of arity 0
                    // holds at most the empty row.
                    let nrows = cursor.count(5 * arity, "row")?;
                    if arity == 0 && nrows > 1 {
                        let message = format!("row count {nrows} of a zero-arity relation");
                        return Err(WalError::Corrupt(message));
                    }
                    let rows = (0..nrows).map(|_| cursor.consts(arity));
                    relations.push((name, arity, rows.collect::<Result<_, _>>()?));
                }
                WalRecord::Image {
                    seq,
                    rules,
                    relations,
                }
            }
            other => return Err(WalError::Corrupt(format!("unknown record kind {other}"))),
        };
        if !cursor.at_end() {
            return Err(WalError::Corrupt("trailing bytes in record".to_string()));
        }
        Ok(record)
    }
}

fn encode_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// The constants of one tuple, without a count (the reader knows the arity):
/// shared by a transaction's ops and an image's rows.
fn encode_consts(out: &mut Vec<u8>, tuple: &[Const]) {
    for value in tuple {
        match value {
            Const::Int(i) => {
                out.push(0u8);
                out.extend_from_slice(&i.to_le_bytes());
            }
            Const::Sym(s) => {
                out.push(1u8);
                encode_str(out, s.as_str());
            }
        }
    }
}

/// A bounds-checked byte reader over one record payload.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Cursor<'a> {
        Cursor { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WalError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.bytes.len())
            .ok_or_else(|| WalError::Corrupt("record truncated mid-field".to_string()))?;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, WalError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, WalError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, WalError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, WalError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn i64(&mut self) -> Result<i64, WalError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn str(&mut self) -> Result<&'a str, WalError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes)
            .map_err(|_| WalError::Corrupt("string field is not utf-8".to_string()))
    }

    /// A `u32` count of items at least `min_bytes` long each, refused when
    /// they could not fit in the rest of the payload (a corrupt count must not
    /// provoke a huge allocation).
    fn count(&mut self, min_bytes: usize, what: &str) -> Result<usize, WalError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_bytes) > self.bytes.len() - self.pos {
            return Err(WalError::Corrupt(format!(
                "{what} count {n} exceeds payload size"
            )));
        }
        Ok(n)
    }

    /// `arity` constants (the decoding of [`encode_consts`]).
    fn consts(&mut self, arity: usize) -> Result<Vec<Const>, WalError> {
        let mut tuple = Vec::with_capacity(arity);
        for _ in 0..arity {
            tuple.push(match self.u8()? {
                0 => Const::Int(self.i64()?),
                1 => Const::Sym(Symbol::intern(self.str()?)),
                other => return Err(WalError::Corrupt(format!("unknown const tag {other}"))),
            });
        }
        Ok(tuple)
    }

    fn at_end(&self) -> bool {
        self.pos == self.bytes.len()
    }
}

/// A crash-injection point for the log writer: after `budget` more bytes reach the
/// file, every further byte is dropped and the write reports [`WalError::Injected`]
/// — exactly what a process killed mid-`write(2)` leaves on disk. Budgets at record
/// boundaries simulate kills between commits; budgets inside a record simulate torn
/// writes.
///
/// Defined in the shared `factorlog_datalog::fault` module since the engine-wide
/// chaos harness landed; re-exported here where the WAL's crash-injection tests
/// have always found it.
pub use factorlog_datalog::fault::FaultPoint;

/// The append side of the log: owns the file handle, tracks the append offset, and
/// optionally fsyncs after every appended batch.
pub struct WalWriter {
    path: PathBuf,
    file: File,
    /// Bytes of valid log currently on disk (header included).
    len: u64,
    /// fsync after every appended batch (disable only for tests and throughput
    /// benches — without it, the durability guarantee weakens to "whatever the OS
    /// flushed").
    fsync: bool,
    fault: Option<FaultPoint>,
    /// Set after an injected fault: the writer is unusable (as a crashed process
    /// would be) and every further append fails.
    poisoned: bool,
    /// Wall time of the fsync inside the most recent successful
    /// [`append_all`](WalWriter::append_all); `None` when that append did not
    /// fsync. Read by the engine's tracing layer to feed the `wal_fsync`
    /// latency histogram.
    last_fsync_ns: Option<u64>,
}

impl WalWriter {
    /// Create a fresh, empty log at `path` (truncating any existing file) and write
    /// the header.
    pub fn create(path: impl Into<PathBuf>, fsync: bool) -> Result<WalWriter, WalError> {
        let path = path.into();
        let mut file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(&path)?;
        file.write_all(WAL_MAGIC)?;
        WalWriter::at(path, file, WAL_MAGIC.len() as u64, fsync)
    }

    /// A writer appending to `file` at `len`, once what precedes is synced.
    fn at(path: PathBuf, file: File, len: u64, fsync: bool) -> Result<WalWriter, WalError> {
        if fsync {
            file.sync_data()?;
        }
        Ok(WalWriter {
            path,
            file,
            len,
            fsync,
            fault: None,
            poisoned: false,
            last_fsync_ns: None,
        })
    }

    /// Open an existing log for appending at `valid_len` (as reported by
    /// [`read_log`]), truncating anything after it — the torn tail of a crashed
    /// writer.
    pub fn open_append(
        path: impl Into<PathBuf>,
        valid_len: u64,
        fsync: bool,
    ) -> Result<WalWriter, WalError> {
        let path = path.into();
        let mut file = OpenOptions::new().read(true).write(true).open(&path)?;
        file.set_len(valid_len)?;
        file.seek(SeekFrom::Start(valid_len))?;
        WalWriter::at(path, file, valid_len, fsync)
    }

    /// The log file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Bytes of valid log on disk (header included).
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Is the log empty (header only)?
    pub fn is_empty(&self) -> bool {
        self.len <= WAL_MAGIC.len() as u64
    }

    /// Arm (or disarm) the crash-injection point. Test harness only.
    pub fn set_fault(&mut self, fault: Option<FaultPoint>) {
        self.fault = fault;
    }

    /// Did an earlier append fail mid-write, leaving the writer unusable (as a
    /// crashed process would be)? A poisoned writer rejects every further
    /// append; reopening the directory recovers (the torn tail is truncated).
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// Wall time, in nanoseconds, of the fsync performed by the most recent
    /// successful [`append_all`](WalWriter::append_all) — `None` when that append
    /// ran with fsync disabled. Always measured (one clock pair per append, noise
    /// next to the fsync itself); the engine samples it into the `wal_fsync`
    /// histogram only while tracing.
    pub fn last_fsync_ns(&self) -> Option<u64> {
        self.last_fsync_ns
    }

    /// Write `bytes` through the fault point: persists as much as the remaining
    /// budget allows, then reports the injected crash.
    fn write_through_fault(&mut self, bytes: &[u8]) -> Result<(), WalError> {
        match &mut self.fault {
            None => {
                self.file.write_all(bytes)?;
                Ok(())
            }
            Some(fault) => {
                let allowed = (fault.budget.min(bytes.len() as u64)) as usize;
                self.file.write_all(&bytes[..allowed])?;
                fault.budget -= allowed as u64;
                if allowed < bytes.len() {
                    // Crash mid-write: flush what made it to the file (a real crash
                    // can persist any prefix; syncing the partial write makes the
                    // test deterministic) and poison the writer.
                    self.file.sync_data().ok();
                    self.poisoned = true;
                    Err(WalError::Injected { written: allowed })
                } else {
                    Ok(())
                }
            }
        }
    }

    /// Append one record — [`append_all`](WalWriter::append_all) of a batch of one.
    pub fn append(&mut self, record: &WalRecord) -> Result<(), WalError> {
        self.append_all(std::slice::from_ref(record))
    }

    /// Append a batch of records under a single fsync: every frame (length
    /// prefix, CRC, payload) is written, then one `sync_data` (when enabled)
    /// makes the whole batch durable at once. All-or-nothing: on an error the
    /// writer first tries to truncate the file back to its length before the
    /// batch so the append can simply be retried; if even that fails, the writer
    /// poisons itself (every further append errors) — otherwise a retry would
    /// land after the torn bytes and be silently discarded by the next recovery
    /// scan. No record of a failed batch is ever acknowledged or replayed. An
    /// empty batch is a no-op.
    pub fn append_all(&mut self, records: &[WalRecord]) -> Result<(), WalError> {
        if records.is_empty() {
            return Ok(());
        }
        if self.poisoned {
            return Err(WalError::Injected { written: 0 });
        }
        let mut frames = Vec::new();
        for record in records {
            let payload = record.encode();
            if payload.len() as u64 > MAX_RECORD_BYTES as u64 {
                // Nothing has been written yet: the whole batch aborts cleanly
                // instead of acknowledging a record the recovery scan would
                // refuse to read.
                return Err(WalError::TooLarge {
                    bytes: payload.len(),
                });
            }
            frames.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            frames.extend_from_slice(&crc32(&payload).to_le_bytes());
            frames.extend_from_slice(&payload);
        }
        self.last_fsync_ns = None;
        let result = self.write_through_fault(&frames).and_then(|()| {
            if self.fsync {
                let start = std::time::Instant::now();
                self.file.sync_data()?;
                self.last_fsync_ns = Some(start.elapsed().as_nanos() as u64);
            }
            Ok(())
        });
        if let Err(error) = result {
            if !matches!(error, WalError::Injected { .. }) {
                // A real I/O failure (full disk, failed sync): roll the file back
                // to the last durable record, or poison the writer if we cannot.
                let rolled_back = self
                    .file
                    .set_len(self.len)
                    .and_then(|()| self.file.seek(SeekFrom::Start(self.len)).map(|_| ()))
                    .is_ok();
                if !rolled_back {
                    self.poisoned = true;
                }
            }
            return Err(error);
        }
        self.len += frames.len() as u64;
        Ok(())
    }

    /// Force an fsync now (used once at the end of unsynced bulk phases).
    pub fn sync(&mut self) -> Result<(), WalError> {
        self.file.sync_data()?;
        Ok(())
    }
}

/// The result of scanning a log file.
#[derive(Debug)]
pub struct LogScan {
    /// Every intact record, in file order.
    pub records: Vec<WalRecord>,
    /// Byte length of the valid prefix (header + intact records). Appending resumes
    /// here; everything beyond is the torn tail.
    pub valid_len: u64,
    /// Bytes beyond `valid_len` found in the file — non-zero exactly when a torn or
    /// corrupt tail was detected.
    pub torn_bytes: u64,
}

/// A pull-based iterator over the intact records of a log file, in file order,
/// with exactly [`read_log`]'s stop rules: the iterator ends at the first record
/// whose length prefix overruns the file, whose CRC mismatches, whose payload
/// fails to decode, or whose sequence number does not increase — everything at
/// and beyond that point is the torn tail.
///
/// This is the streaming primitive replication is built on: the leader's
/// subscription handler walks frames from disk without materializing the whole
/// log, and [`read_frames_from`] layers sequence filtering and batching on top.
pub struct FrameIter {
    bytes: Vec<u8>,
    /// Byte offset validity has been confirmed up to (the next frame starts here).
    pos: usize,
    last_seq: Option<u64>,
    stopped: bool,
}

impl FrameIter {
    /// Open `path` for frame iteration. A missing file iterates as empty; a
    /// partial-magic prefix (crash during log creation) iterates as empty with
    /// the partial header counted as torn; any other leading bytes are a
    /// [`WalError::BadHeader`].
    pub fn open(path: &Path) -> Result<FrameIter, WalError> {
        let bytes = match std::fs::read(path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e.into()),
        };
        if bytes.len() < WAL_MAGIC.len() {
            if !bytes.is_empty() && !WAL_MAGIC.starts_with(&bytes) {
                return Err(WalError::BadHeader(path.to_path_buf()));
            }
            // Empty/missing, or a crash during `create` left a partial header:
            // an empty log whose whole content (if any) is torn.
            return Ok(FrameIter {
                bytes,
                pos: 0,
                last_seq: None,
                stopped: true,
            });
        }
        if bytes[..WAL_MAGIC.len()] != *WAL_MAGIC {
            return Err(WalError::BadHeader(path.to_path_buf()));
        }
        Ok(FrameIter {
            bytes,
            pos: WAL_MAGIC.len(),
            last_seq: None,
            stopped: false,
        })
    }

    /// Byte length of the valid prefix walked so far (header + intact records).
    /// Once the iterator is exhausted this is [`LogScan::valid_len`].
    pub fn valid_len(&self) -> u64 {
        self.pos as u64
    }

    /// Bytes beyond the current position — once exhausted, the torn tail size.
    pub fn torn_bytes(&self) -> u64 {
        (self.bytes.len() - self.pos) as u64
    }
}

impl Iterator for FrameIter {
    type Item = WalRecord;

    fn next(&mut self) -> Option<WalRecord> {
        if self.stopped {
            return None;
        }
        // Anything that fails from here on is a torn/corrupt tail: stop without
        // advancing, so `valid_len` reports the intact prefix.
        let bytes = &self.bytes;
        let pos = self.pos;
        if pos + 8 > bytes.len() {
            self.stopped = true;
            return None;
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap());
        let crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().unwrap());
        if len > MAX_RECORD_BYTES {
            self.stopped = true;
            return None;
        }
        let start = pos + 8;
        let Some(end) = start
            .checked_add(len as usize)
            .filter(|&e| e <= bytes.len())
        else {
            self.stopped = true;
            return None;
        };
        let payload = &bytes[start..end];
        if crc32(payload) != crc {
            self.stopped = true;
            return None;
        }
        let Ok(record) = WalRecord::decode(payload) else {
            self.stopped = true;
            return None;
        };
        // Sequence numbers must increase; a stale or replayed block means the
        // tail is not trustworthy.
        if self.last_seq.is_some_and(|last| record.seq() <= last) {
            self.stopped = true;
            return None;
        }
        self.last_seq = Some(record.seq());
        self.pos = end;
        Some(record)
    }
}

/// Scan a log file from the start, returning every intact record and the byte
/// offset where validity ends. A missing file scans as empty. A file whose header
/// is a proper prefix of the magic (a crash during log creation) scans as empty
/// with the partial header counted as torn. Any other leading bytes are a
/// [`WalError::BadHeader`] — that file is not a factorlog log, and truncating it
/// would destroy someone else's data.
pub fn read_log(path: &Path) -> Result<LogScan, WalError> {
    let mut iter = FrameIter::open(path)?;
    let records: Vec<WalRecord> = iter.by_ref().collect();
    Ok(LogScan {
        records,
        valid_len: iter.valid_len(),
        torn_bytes: iter.torn_bytes(),
    })
}

/// The result of a sequence-filtered, batched frame read (see
/// [`read_frames_from`]).
#[derive(Debug, Default)]
pub struct FrameRead {
    /// The intact records with `seq >= from_seq`, in file order, capped at the
    /// requested batch size.
    pub frames: Vec<WalRecord>,
    /// Sequence number of the first returned frame (`None` when none matched).
    /// A value *greater* than the requested `from_seq` means the log no longer
    /// reaches back that far — the caller's position predates this log (a
    /// compaction reset it), so only the directory's image can catch it up.
    pub first_seq: Option<u64>,
    /// Sequence number of the last intact record in the *whole* log — the
    /// publisher's current position, regardless of the batch cap.
    pub last_seq: Option<u64>,
    /// Did the batch cap cut the read short (more matching frames remain)?
    pub truncated: bool,
}

/// Read the intact records with `seq >= from_seq`, at most `max_frames` of
/// them, plus the log's overall last sequence number. The streaming read under
/// the leader's `REPL SUBSCRIBE` handler: a follower at position `from_seq - 1`
/// asks for everything from `from_seq` on, in publisher-bounded batches.
/// Shares [`read_log`]'s header and torn-tail handling.
pub fn read_frames_from(
    path: &Path,
    from_seq: u64,
    max_frames: usize,
) -> Result<FrameRead, WalError> {
    let iter = FrameIter::open(path)?;
    let mut read = FrameRead::default();
    for record in iter {
        read.last_seq = Some(record.seq());
        if record.seq() < from_seq {
            continue;
        }
        if read.frames.len() >= max_frames {
            // Keep walking for `last_seq` (the lag signal) but ship no more.
            read.truncated = true;
            continue;
        }
        if read.first_seq.is_none() {
            read.first_seq = Some(record.seq());
        }
        read.frames.push(record);
    }
    Ok(read)
}

/// Read an image file: the header and exactly one intact [`WalRecord::Image`]
/// frame. Returns the record and its payload as stored (what a leader ships to
/// a follower), or `None` when the file does not exist. Anything else — other
/// leading bytes, an empty, torn or corrupt frame, a record of another kind, a
/// second frame — is an error, and the file is left as it is: an image is
/// renamed into place whole, so none of those is what a crash leaves behind.
pub fn read_image(path: &Path) -> Result<Option<(WalRecord, Vec<u8>)>, WalError> {
    if !path.exists() {
        return Ok(None);
    }
    let mut frames = FrameIter::open(path)?;
    let image = frames.next();
    let end = frames.valid_len() as usize;
    match image {
        Some(image @ WalRecord::Image { .. })
            if frames.next().is_none() && frames.torn_bytes() == 0 =>
        {
            Ok(Some((
                image,
                frames.bytes[WAL_MAGIC.len() + 8..end].to_vec(),
            )))
        }
        _ => Err(WalError::Corrupt(
            "the file is not exactly one intact image frame".to_string(),
        )),
    }
}

/// Scan `path` and truncate its torn tail (if any), returning the scan and a
/// writer positioned to append after the last intact record. A missing file is
/// created fresh.
pub fn recover_log(path: &Path, fsync: bool) -> Result<(LogScan, WalWriter), WalError> {
    let scan = read_log(path)?;
    let writer = if scan.valid_len < WAL_MAGIC.len() as u64 {
        // Missing file, or a partial header from a crashed create: start fresh.
        WalWriter::create(path, fsync)?
    } else {
        WalWriter::open_append(path, scan.valid_len, fsync)?
    };
    Ok((scan, writer))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> PathBuf {
        static COUNTER: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let n = COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "factorlog_wal_{tag}_{}_{n}.log",
            std::process::id()
        ))
    }

    fn sample_txn(seq: u64) -> WalRecord {
        WalRecord::Txn {
            seq,
            ops: vec![
                (
                    WalOp::Assert,
                    Symbol::intern("e"),
                    vec![Const::Int(seq as i64), Const::Int(seq as i64 + 1)],
                ),
                (
                    WalOp::Retract,
                    Symbol::intern("label"),
                    vec![Const::sym("blue metal")],
                ),
            ],
        }
    }

    fn sample_image(seq: u64) -> WalRecord {
        WalRecord::Image {
            seq,
            rules: "t(X, Y) :- e(X, Y).\n".to_string(),
            relations: vec![
                (
                    Symbol::intern("e"),
                    2,
                    vec![
                        vec![Const::Int(1), Const::sym("say \"hi\"")],
                        vec![Const::Int(-2), Const::Int(3)],
                    ],
                ),
                (Symbol::intern("ready"), 0, vec![vec![]]),
                (Symbol::intern("gone"), 1, vec![]),
            ],
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard check value of CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn records_round_trip_through_encoding() {
        for record in [
            sample_txn(7),
            WalRecord::Source {
                seq: 9,
                text: "t(X, Y) :- e(X, Y).\ne(1, 2).".to_string(),
            },
            WalRecord::Txn {
                seq: 1,
                ops: vec![],
            },
            sample_image(4),
        ] {
            let decoded = WalRecord::decode(&record.encode()).unwrap();
            assert_eq!(decoded, record);
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(WalRecord::decode(&[]).is_err());
        assert!(WalRecord::decode(&[9, 0, 0, 0, 0, 0, 0, 0, 0]).is_err());
        // Valid record with trailing junk.
        let mut bytes = sample_txn(3).encode();
        bytes.push(0);
        assert!(WalRecord::decode(&bytes).is_err());

        // Image payloads whose counts promise more than the payload holds: the
        // head of an image (kind, seq, empty rules) and then one relation `e`
        // of the given arity and row count, followed by `tail`.
        let image = |nrels: u32, arity: u16, nrows: u32, tail: &[u8]| {
            let mut bytes = vec![3u8];
            bytes.extend_from_slice(&7u64.to_le_bytes());
            encode_str(&mut bytes, "");
            bytes.extend_from_slice(&nrels.to_le_bytes());
            encode_str(&mut bytes, "e");
            bytes.extend_from_slice(&arity.to_le_bytes());
            bytes.extend_from_slice(&nrows.to_le_bytes());
            bytes.extend_from_slice(tail);
            WalRecord::decode(&bytes)
        };
        let one_int = [0u8, 1, 0, 0, 0, 0, 0, 0, 0];
        assert!(image(1, 1, 1, &one_int).is_ok(), "the well-formed control");
        for (case, decoded) in [
            ("relation count", image(1_000, 1, 1, &one_int)),
            ("row count", image(1, 1, 1_000, &one_int)),
            ("arity", image(1, u16::MAX, 1, &one_int)),
            ("rows of arity 0", image(1, 0, 2, &[])),
        ] {
            let Err(WalError::Corrupt(message)) = decoded else {
                panic!("{case}: an overrunning count must be refused");
            };
            assert!(
                message.contains("exceeds payload size") || message.contains("zero-arity"),
                "{case}: {message}"
            );
        }
    }

    #[test]
    fn write_then_read_round_trips() {
        let path = temp_path("roundtrip");
        let mut writer = WalWriter::create(&path, true).unwrap();
        for seq in 1..=5 {
            writer.append(&sample_txn(seq)).unwrap();
        }
        let scan = read_log(&path).unwrap();
        assert_eq!(scan.records.len(), 5);
        assert_eq!(scan.torn_bytes, 0);
        assert_eq!(scan.valid_len, writer.len());
        assert_eq!(scan.records[2], sample_txn(3));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_detected_and_truncated_at_every_offset() {
        // Build a 3-record log, then truncate at every byte offset: the scan must
        // recover exactly the records whose frames fit the prefix.
        let path = temp_path("torn");
        let mut writer = WalWriter::create(&path, false).unwrap();
        let mut boundaries = vec![writer.len()];
        for seq in 1..=3 {
            writer.append(&sample_txn(seq)).unwrap();
            boundaries.push(writer.len());
        }
        drop(writer);
        let full = std::fs::read(&path).unwrap();
        for cut in (WAL_MAGIC.len() as u64)..=(full.len() as u64) {
            std::fs::write(&path, &full[..cut as usize]).unwrap();
            let scan = read_log(&path).unwrap();
            let expect_records = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
            assert_eq!(
                scan.records.len(),
                expect_records,
                "truncation at byte {cut}"
            );
            assert_eq!(scan.valid_len, boundaries[expect_records]);
            assert_eq!(scan.torn_bytes, cut - boundaries[expect_records]);
            // And recovery truncates + appends cleanly from there.
            let (_, mut recovered) = recover_log(&path, false).unwrap();
            recovered.append(&sample_txn(99)).unwrap();
            let rescan = read_log(&path).unwrap();
            assert_eq!(rescan.records.len(), expect_records + 1);
            assert_eq!(rescan.torn_bytes, 0);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_byte_invalidates_the_record_and_everything_after() {
        let path = temp_path("corrupt");
        let mut writer = WalWriter::create(&path, false).unwrap();
        let mut boundaries = vec![writer.len()];
        for seq in 1..=3 {
            writer.append(&sample_txn(seq)).unwrap();
            boundaries.push(writer.len());
        }
        drop(writer);
        let full = std::fs::read(&path).unwrap();
        // Flip one byte inside record 2 (its CRC no longer matches): records 2 and 3
        // are both dropped — after a bad record nothing downstream is trustworthy.
        let mut bytes = full.clone();
        let target = boundaries[1] as usize + 12;
        bytes[target] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let scan = read_log(&path).unwrap();
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.valid_len, boundaries[1]);
        assert!(scan.torn_bytes > 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fault_point_tears_the_write_at_the_configured_byte() {
        let path = temp_path("fault");
        let record = sample_txn(1);
        let frame_len = record.encode().len() as u64 + 8;
        for budget in 0..frame_len {
            let mut writer = WalWriter::create(&path, false).unwrap();
            writer.append(&record).unwrap();
            writer.set_fault(Some(FaultPoint { budget }));
            let err = writer.append(&sample_txn(2)).unwrap_err();
            assert!(matches!(err, WalError::Injected { .. }), "budget {budget}");
            // The writer is poisoned, like a dead process.
            assert!(matches!(
                writer.append(&sample_txn(3)),
                Err(WalError::Injected { .. })
            ));
            drop(writer);
            // On disk: record 1 intact, record 2 torn at `budget` bytes.
            let scan = read_log(&path).unwrap();
            assert_eq!(scan.records.len(), 1, "budget {budget}");
            assert_eq!(scan.torn_bytes, budget);
        }
        // A budget covering the whole frame lets the append through.
        let mut writer = WalWriter::create(&path, false).unwrap();
        writer.set_fault(Some(FaultPoint { budget: frame_len }));
        writer.append(&record).unwrap();
        assert_eq!(read_log(&path).unwrap().records.len(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn append_all_groups_records_under_one_sync() {
        let path = temp_path("group");
        let mut writer = WalWriter::create(&path, true).unwrap();
        writer.append(&sample_txn(1)).unwrap();
        writer
            .append_all(&[sample_txn(2), sample_txn(3), sample_txn(4)])
            .unwrap();
        writer.append_all(&[]).unwrap(); // no-op
        let scan = read_log(&path).unwrap();
        assert_eq!(scan.records.len(), 4);
        assert_eq!(scan.torn_bytes, 0);
        assert_eq!(scan.valid_len, writer.len());
        assert_eq!(scan.records[3], sample_txn(4));
        // The single group fsync is timed like a plain append's.
        assert!(writer.last_fsync_ns().is_some());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn append_all_torn_mid_group_loses_the_whole_suffix_but_keeps_the_prefix() {
        // Tear the group write at every byte offset: recovery keeps exactly the
        // records whose frames fully made it to disk — a torn group commit can
        // lose a suffix of the batch but never reorders or corrupts.
        let path = temp_path("group_fault");
        let batch = [sample_txn(2), sample_txn(3)];
        let batch_len: u64 = batch.iter().map(|r| r.encode().len() as u64 + 8).sum();
        let frame2_len = batch[0].encode().len() as u64 + 8;
        for budget in 0..batch_len {
            let mut writer = WalWriter::create(&path, false).unwrap();
            writer.append(&sample_txn(1)).unwrap();
            writer.set_fault(Some(FaultPoint { budget }));
            let err = writer.append_all(&batch).unwrap_err();
            assert!(matches!(err, WalError::Injected { .. }), "budget {budget}");
            assert!(writer.is_poisoned());
            drop(writer);
            let scan = read_log(&path).unwrap();
            let expect = 1 + usize::from(budget >= frame2_len);
            assert_eq!(scan.records.len(), expect, "budget {budget}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn append_all_rejects_oversized_records_without_writing() {
        let path = temp_path("group_big");
        let mut writer = WalWriter::create(&path, false).unwrap();
        let huge = WalRecord::Source {
            seq: 1,
            text: "x".repeat(MAX_RECORD_BYTES as usize + 1),
        };
        let before = writer.len();
        assert!(matches!(
            writer.append_all(&[sample_txn(1), huge]),
            Err(WalError::TooLarge { .. })
        ));
        assert_eq!(writer.len(), before, "nothing from the group is written");
        assert!(!writer.is_poisoned());
        writer.append_all(&[sample_txn(1)]).unwrap();
        assert_eq!(read_log(&path).unwrap().records.len(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_scans_empty_and_bad_header_is_rejected() {
        let path = temp_path("missing");
        let scan = read_log(&path).unwrap();
        assert!(scan.records.is_empty());
        assert_eq!(scan.valid_len, 0);

        std::fs::write(&path, b"definitely not a wal").unwrap();
        assert!(matches!(read_log(&path), Err(WalError::BadHeader(_))));

        // A partial header (crashed create) recovers to a fresh log.
        std::fs::write(&path, &WAL_MAGIC[..4]).unwrap();
        let scan = read_log(&path).unwrap();
        assert!(scan.records.is_empty());
        assert_eq!(scan.torn_bytes, 4);
        let (_, mut writer) = recover_log(&path, false).unwrap();
        writer.append(&sample_txn(1)).unwrap();
        assert_eq!(read_log(&path).unwrap().records.len(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn frame_iter_handles_empty_and_missing_logs() {
        // Missing file: iterates as empty, nothing valid, nothing torn.
        let path = temp_path("iter_missing");
        let mut iter = FrameIter::open(&path).unwrap();
        assert!(iter.next().is_none());
        assert_eq!(iter.valid_len(), 0);
        assert_eq!(iter.torn_bytes(), 0);
        let read = read_frames_from(&path, 1, 16).unwrap();
        assert!(read.frames.is_empty());
        assert_eq!(read.first_seq, None);
        assert_eq!(read.last_seq, None);
        assert!(!read.truncated);

        // Header-only log: same, but the header counts as valid bytes.
        let writer = WalWriter::create(&path, false).unwrap();
        drop(writer);
        let mut iter = FrameIter::open(&path).unwrap();
        assert!(iter.next().is_none());
        assert_eq!(iter.valid_len(), WAL_MAGIC.len() as u64);
        assert_eq!(iter.torn_bytes(), 0);
        let read = read_frames_from(&path, 1, 16).unwrap();
        assert!(read.frames.is_empty() && read.last_seq.is_none());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn frame_iter_stops_at_a_torn_tail_mid_frame() {
        let path = temp_path("iter_torn");
        let mut writer = WalWriter::create(&path, false).unwrap();
        writer.append(&sample_txn(1)).unwrap();
        writer.append(&sample_txn(2)).unwrap();
        let boundary = writer.len();
        writer.append(&sample_txn(3)).unwrap();
        drop(writer);
        // Cut 5 bytes into record 3's frame: the iterator yields 1 and 2 and
        // reports the torn bytes without touching them.
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..boundary as usize + 5]).unwrap();
        let mut iter = FrameIter::open(&path).unwrap();
        assert_eq!(iter.next().map(|r| r.seq()), Some(1));
        assert_eq!(iter.next().map(|r| r.seq()), Some(2));
        assert!(iter.next().is_none());
        assert_eq!(iter.valid_len(), boundary);
        assert_eq!(iter.torn_bytes(), 5);
        // The streaming read sees the same prefix: last_seq stops before the tear.
        let read = read_frames_from(&path, 2, 16).unwrap();
        assert_eq!(read.frames.len(), 1);
        assert_eq!(read.first_seq, Some(2));
        assert_eq!(read.last_seq, Some(2));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn read_frames_from_at_a_compaction_boundary() {
        // After a compaction the log restarts at a later sequence (say 5..=8).
        let path = temp_path("iter_boundary");
        let mut writer = WalWriter::create(&path, false).unwrap();
        for seq in 5..=8 {
            writer.append(&sample_txn(seq)).unwrap();
        }
        drop(writer);

        // Reading from exactly the first retained sequence returns everything.
        let read = read_frames_from(&path, 5, 16).unwrap();
        assert_eq!(read.frames.len(), 4);
        assert_eq!(read.first_seq, Some(5));
        assert_eq!(read.last_seq, Some(8));
        assert!(!read.truncated);

        // Reading from *before* the boundary reveals the gap: the first frame
        // the log can supply is 5, not the 4 the caller asked for — the caller
        // must bootstrap from a snapshot instead of applying a discontinuity.
        let read = read_frames_from(&path, 4, 16).unwrap();
        assert_eq!(read.first_seq, Some(5));
        assert_eq!(read.frames[0].seq(), 5);

        // Reading from past the end returns no frames but still reports the
        // publisher position.
        let read = read_frames_from(&path, 9, 16).unwrap();
        assert!(read.frames.is_empty());
        assert_eq!(read.first_seq, None);
        assert_eq!(read.last_seq, Some(8));

        // The batch cap truncates without losing the position signal.
        let read = read_frames_from(&path, 5, 2).unwrap();
        assert_eq!(read.frames.len(), 2);
        assert_eq!(read.frames[1].seq(), 6);
        assert_eq!(read.last_seq, Some(8));
        assert!(read.truncated);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn stale_sequence_numbers_stop_the_scan() {
        // A compaction that truncated the log but crashed before finishing could in
        // principle leave an old record after a new one; the scan must refuse to
        // read past a non-increasing sequence.
        let path = temp_path("seq");
        let mut writer = WalWriter::create(&path, false).unwrap();
        writer.append(&sample_txn(5)).unwrap();
        writer.append(&sample_txn(3)).unwrap(); // stale
        drop(writer);
        let scan = read_log(&path).unwrap();
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.records[0].seq(), 5);
        std::fs::remove_file(&path).ok();
    }
}
