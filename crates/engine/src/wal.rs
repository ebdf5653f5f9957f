//! The append-only transaction log behind durable sessions, and the one durable
//! format: versioned binary framing with a per-record length prefix and CRC-32
//! checksum, written through an fsync'ing writer on a [`Disk`]. A data
//! directory's compaction image is a file in the same format holding exactly one
//! [`WalRecord::Image`] frame (see [`read_image`]), kept in memory with the log
//! as a `Mirror` that replication ships from.
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
//! `recover_log` truncates away so the log is append-ready again. A torn write
//! can therefore lose only the record being written at the moment of the crash,
//! never a previously synced one. An image file has no torn tail: it is written
//! whole and renamed into place, so [`read_image`] refuses anything but one
//! intact image frame.

use std::path::{Path, PathBuf};

use factorlog_datalog::ast::Const;
use factorlog_datalog::symbol::Symbol;

use crate::disk::{Disk, DiskFile, StdDisk};

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
    /// An earlier append failed or panicked and its bytes could not be cut
    /// off again, so the writer refuses every further append.
    Poisoned,
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
            WalError::Poisoned => f.write_str(
                "the transaction log failed mid-commit; reopen the data directory to \
                 recover (the torn record is discarded on replay)",
            ),
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

/// Append the frame of `record` (length prefix, CRC, payload) to `out`.
fn frame(out: &mut Vec<u8>, record: &WalRecord) -> Result<(), WalError> {
    let payload = record.encode();
    if payload.len() as u64 > MAX_RECORD_BYTES as u64 {
        // Recovery would refuse to read such a record, so acknowledging it would
        // lose it (and everything after it) at the next open.
        return Err(WalError::TooLarge {
            bytes: payload.len(),
        });
    }
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    Ok(())
}

/// The bytes of an image file holding `image`: the header and its one frame.
pub(crate) fn image_file(image: &WalRecord) -> Result<Vec<u8>, WalError> {
    let mut bytes = WAL_MAGIC.to_vec();
    frame(&mut bytes, image)?;
    Ok(bytes)
}

/// The append side of the log: owns the file handle, tracks the append offset, and
/// optionally fsyncs after every appended batch.
pub struct WalWriter {
    file: Box<dyn DiskFile>,
    /// Bytes of valid log currently on disk (header included).
    len: u64,
    /// fsync after every appended batch (disable only for tests and throughput
    /// benches — without it, the durability guarantee weakens to "whatever the OS
    /// flushed").
    fsync: bool,
    /// Set when a failed append could not be cut off again, an append
    /// panicked, or the file was cut short under the writer: every further
    /// append fails with [`WalError::Poisoned`].
    pub(crate) poisoned: bool,
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
        WalWriter::create_on(&StdDisk, &path.into(), fsync)
    }

    /// [`WalWriter::create`] on `disk`.
    pub(crate) fn create_on(
        disk: &dyn Disk,
        path: &Path,
        fsync: bool,
    ) -> Result<WalWriter, WalError> {
        let mut file = disk.create(path)?;
        file.write(WAL_MAGIC)?;
        WalWriter::at(file, WAL_MAGIC.len() as u64, fsync)
    }

    /// A writer appending to `file` at `len`, once what precedes is synced.
    fn at(mut file: Box<dyn DiskFile>, len: u64, fsync: bool) -> Result<WalWriter, WalError> {
        if fsync {
            file.sync()?;
        }
        Ok(WalWriter {
            file,
            len,
            fsync,
            poisoned: false,
            last_fsync_ns: None,
        })
    }

    /// Bytes of valid log on disk (header included).
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Is the log empty (header only)?
    pub fn is_empty(&self) -> bool {
        self.len <= WAL_MAGIC.len() as u64
    }

    /// Wall time, in nanoseconds, of the fsync performed by the most recent
    /// successful [`append_all`](WalWriter::append_all) — `None` when that append
    /// ran with fsync disabled. Always measured (one clock pair per append, noise
    /// next to the fsync itself); the engine samples it into the `wal_fsync`
    /// histogram only while tracing.
    pub fn last_fsync_ns(&self) -> Option<u64> {
        self.last_fsync_ns
    }

    /// Append one record — [`append_all`](WalWriter::append_all) of a batch of one.
    pub fn append(&mut self, record: &WalRecord) -> Result<(), WalError> {
        self.append_all(std::slice::from_ref(record)).map(drop)
    }

    /// Append a batch of records under a single fsync: every frame (length
    /// prefix, CRC, payload) is written, then one `sync_data` (when enabled)
    /// makes the whole batch durable at once, and the frames come back as
    /// written. All-or-nothing: on an error the
    /// writer cuts the file back to its length before the batch so the append
    /// can simply be retried; if even that fails, or the disk panics, the
    /// writer poisons itself (every further append fails with
    /// [`WalError::Poisoned`]) — otherwise a retry would land after the torn
    /// bytes and be silently discarded by the next recovery scan. No record of a failed batch is ever acknowledged. A
    /// record over [`MAX_RECORD_BYTES`] fails the batch before anything is
    /// written. An empty batch is a no-op.
    pub fn append_all(&mut self, records: &[WalRecord]) -> Result<Vec<u8>, WalError> {
        let mut frames = Vec::new();
        if records.is_empty() {
            return Ok(frames);
        }
        if self.poisoned {
            return Err(WalError::Poisoned);
        }
        for record in records {
            frame(&mut frames, record)?;
        }
        self.last_fsync_ns = None;
        // Poisoned until the batch is written or cut off again: a panic out of
        // the disk leaves unknown bytes behind the append offset.
        self.poisoned = true;
        let result = self.file.write(&frames).and_then(|()| {
            if self.fsync {
                let start = std::time::Instant::now();
                self.file.sync()?;
                self.last_fsync_ns = Some(start.elapsed().as_nanos() as u64);
            }
            Ok(())
        });
        if let Err(error) = result {
            self.poisoned = self.file.set_len(self.len).is_err();
            return Err(error.into());
        }
        self.poisoned = false;
        self.len += frames.len() as u64;
        Ok(frames)
    }

    /// Force an fsync now (used once at the end of unsynced bulk phases).
    pub fn sync(&mut self) -> Result<(), WalError> {
        self.file.sync()?;
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

/// The copy of a log and an image a durable session keeps of what it last made
/// durable, so that a replication poll ships bytes without touching the disk
/// (`replication::stream_step`): the log file's valid content byte for byte
/// (header included) with each frame's sequence number and offset, and the
/// image's payload. The session updates each part only after the disk step
/// that makes it true has succeeded. Its size is what is on disk: the image
/// plus a log that compaction keeps near `compact_threshold`.
pub(crate) struct Mirror {
    log: Vec<u8>,
    /// Each frame of `log` as (sequence number, offset), in log order.
    frames: Vec<(u64, usize)>,
    /// The image's sequence number and payload.
    pub(crate) image: Option<(u64, Vec<u8>)>,
}

impl Mirror {
    /// Record a batch the log writer made durable: its frames as written,
    /// whose records carry the sequence numbers `seqs`.
    pub(crate) fn append(&mut self, frames: &[u8], seqs: impl IntoIterator<Item = u64>) {
        let mut at = self.log.len();
        self.log.extend_from_slice(frames);
        for seq in seqs {
            self.frames.push((seq, at));
            at += 8 + self.payload(at).len();
        }
    }

    /// The log was reset to a fresh header.
    pub(crate) fn reset_log(&mut self) {
        (self.log, self.frames) = (WAL_MAGIC.to_vec(), Vec::new());
    }

    /// The log's frames with sequence numbers from `from_seq` on, as
    /// (sequence number, offset).
    pub(crate) fn frames_from(&self, from_seq: u64) -> &[(u64, usize)] {
        &self.frames[self.frames.partition_point(|&(seq, _)| seq < from_seq)..]
    }

    /// The payload of the frame at offset `at` of the log.
    pub(crate) fn payload(&self, at: usize) -> &[u8] {
        let len = u32::from_le_bytes(self.log[at..at + 4].try_into().unwrap()) as usize;
        &self.log[at + 8..at + 8 + len]
    }

    /// The last sequence number the log or the image holds (0: none).
    pub(crate) fn last_seq(&self) -> u64 {
        let log = self.frames.last().map(|&(seq, _)| seq);
        log.max(self.image.as_ref().map(|&(seq, _)| seq))
            .unwrap_or(0)
    }
}

/// The intact records at the start of `bytes`, the content of the log or image
/// file `path`; their valid prefix (header included) as a [`Mirror`] without an
/// image; and how many bytes follow it. The scan stops at the first record
/// whose length prefix overruns the file, whose CRC mismatches, whose payload
/// fails to decode, or whose sequence number does not increase: that record and
/// everything after it is the torn tail. Empty content, or a proper prefix of
/// the magic (a crash during log creation), holds no record; any other leading
/// bytes are a [`WalError::BadHeader`].
fn scan(mut bytes: Vec<u8>, path: &Path) -> Result<(Vec<WalRecord>, Mirror, u64), WalError> {
    let magic = bytes.starts_with(WAL_MAGIC);
    if !magic && !WAL_MAGIC.starts_with(&bytes) {
        return Err(WalError::BadHeader(path.to_path_buf()));
    }
    // Without the magic the content is empty, or a partial header a crash
    // during `create` left: an empty log whose whole content is torn.
    let (mut records, mut frames) = (Vec::new(), Vec::new());
    let mut pos = if magic { WAL_MAGIC.len() } else { 0 };
    while let Some(prefix) = bytes.get(pos..pos + 8).filter(|_| magic) {
        let len = u32::from_le_bytes(prefix[..4].try_into().unwrap());
        let crc = u32::from_le_bytes(prefix[4..].try_into().unwrap());
        let end = pos + 8 + len as usize;
        let intact = |payload: &&[u8]| len <= MAX_RECORD_BYTES && crc32(payload) == crc;
        let Some(Ok(record)) = bytes
            .get(pos + 8..end)
            .filter(intact)
            .map(WalRecord::decode)
        else {
            break;
        };
        // Sequence numbers must increase; a stale or replayed block means the
        // tail is not trustworthy.
        if frames.last().is_some_and(|&(last, _)| record.seq() <= last) {
            break;
        }
        frames.push((record.seq(), pos));
        records.push(record);
        pos = end;
    }
    let torn = (bytes.len() - pos) as u64;
    bytes.truncate(pos);
    let mirror = Mirror {
        log: bytes,
        frames,
        image: None,
    };
    Ok((records, mirror, torn))
}

/// Scan a log file from the start, returning every intact record and the byte
/// offset where validity ends. A missing file scans as empty. A file whose header
/// is a proper prefix of the magic (a crash during log creation) scans as empty
/// with the partial header counted as torn. Any other leading bytes are a
/// [`WalError::BadHeader`] — that file is not a factorlog log, and truncating it
/// would destroy someone else's data.
pub fn read_log(path: &Path) -> Result<LogScan, WalError> {
    Ok(scan_log(&StdDisk, path)?.0)
}

/// [`read_log`] on `disk`, with the log's valid content as a [`Mirror`].
fn scan_log(disk: &dyn Disk, path: &Path) -> Result<(LogScan, Mirror), WalError> {
    let (records, mirror, torn_bytes) = scan(disk.read(path)?.unwrap_or_default(), path)?;
    let valid_len = mirror.log.len() as u64;
    let scan = LogScan {
        records,
        valid_len,
        torn_bytes,
    };
    Ok((scan, mirror))
}

/// Read an image file: the header and exactly one intact [`WalRecord::Image`]
/// frame. Returns the record and its payload as stored (what a leader ships to
/// a follower), or `None` when the file does not exist. Anything else — other
/// leading bytes, an empty, torn or corrupt frame, a record of another kind, a
/// second frame — is an error, and the file is left as it is: an image is
/// renamed into place whole, so none of those is what a crash leaves behind.
pub fn read_image(disk: &dyn Disk, path: &Path) -> Result<Option<(WalRecord, Vec<u8>)>, WalError> {
    let Some(bytes) = disk.read(path)? else {
        return Ok(None);
    };
    let (mut records, mirror, torn) = scan(bytes, path)?;
    match records.pop() {
        Some(image @ WalRecord::Image { .. }) if records.is_empty() && torn == 0 => {
            let mut payload = mirror.log;
            payload.drain(..WAL_MAGIC.len() + 8);
            Ok(Some((image, payload)))
        }
        _ => Err(WalError::Corrupt(
            "the file is not exactly one intact image frame".to_string(),
        )),
    }
}

/// Scan `path` on `disk` and truncate its torn tail (if any), returning the scan,
/// a writer positioned to append after the last intact record, and the log's
/// valid content as a [`Mirror`] (without an image). A missing file is created
/// fresh.
pub(crate) fn recover_log(
    disk: &dyn Disk,
    path: &Path,
    fsync: bool,
) -> Result<(LogScan, WalWriter, Mirror), WalError> {
    let (scan, mut mirror) = scan_log(disk, path)?;
    let writer = if scan.valid_len < WAL_MAGIC.len() as u64 {
        // Missing file, or a partial header from a crashed create: start fresh.
        mirror.reset_log();
        WalWriter::create_on(disk, path, fsync)?
    } else {
        let file = disk.open_at(path, scan.valid_len)?;
        WalWriter::at(file, scan.valid_len, fsync)?
    };
    Ok((scan, writer, mirror))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replication::{stream_step, StreamStep};

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
            let (_, mut recovered, _) = recover_log(&StdDisk, &path, false).unwrap();
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
        let (_, mut writer, _) = recover_log(&StdDisk, &path, false).unwrap();
        writer.append(&sample_txn(1)).unwrap();
        assert_eq!(read_log(&path).unwrap().records.len(), 1);
        std::fs::remove_file(&path).ok();
    }

    /// A mirror holding the log frames of `records`, in memory.
    fn mirror_of(records: &[WalRecord]) -> Mirror {
        let mut mirror = Mirror {
            log: WAL_MAGIC.to_vec(),
            frames: Vec::new(),
            image: None,
        };
        let mut frames = Vec::new();
        for record in records {
            frame(&mut frames, record).unwrap();
        }
        mirror.append(&frames, records.iter().map(WalRecord::seq));
        mirror
    }

    #[test]
    fn frame_iter_handles_empty_and_missing_logs() {
        // Missing file: scans as empty, nothing valid, nothing torn, and a
        // poll of its mirror ships nothing.
        let path = temp_path("iter_missing");
        let (scan, mirror) = scan_log(&StdDisk, &path).unwrap();
        assert!(scan.records.is_empty());
        assert_eq!((scan.valid_len, scan.torn_bytes), (0, 0));
        let step = stream_step(&mirror, 1, 16);
        assert!(step.frames.is_empty());
        assert_eq!(step.last_seq, 0);

        // Header-only log: same, but the header counts as valid bytes.
        let writer = WalWriter::create(&path, false).unwrap();
        drop(writer);
        let (scan, mirror) = scan_log(&StdDisk, &path).unwrap();
        assert!(scan.records.is_empty());
        assert_eq!(scan.valid_len, WAL_MAGIC.len() as u64);
        assert_eq!(scan.torn_bytes, 0);
        assert_eq!(mirror.log, WAL_MAGIC);
        let step = stream_step(&mirror, 1, 16);
        assert!(step.frames.is_empty() && step.last_seq == 0);
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
        // Cut 5 bytes into record 3's frame: the scan yields 1 and 2 and
        // reports the torn bytes without touching them.
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..boundary as usize + 5]).unwrap();
        let (scan, _) = scan_log(&StdDisk, &path).unwrap();
        assert_eq!(scan.records, [sample_txn(1), sample_txn(2)]);
        assert_eq!(scan.valid_len, boundary);
        assert_eq!(scan.torn_bytes, 5);
        // The mirror a recovery builds holds the same prefix, byte for byte as
        // the log it leaves, and a poll streams from it: last_seq stops before
        // the tear.
        let (_, _, mirror) = recover_log(&StdDisk, &path, false).unwrap();
        assert_eq!(mirror.log, std::fs::read(&path).unwrap());
        let step = stream_step(&mirror, 2, 16);
        assert_eq!(step.frames, vec![sample_txn(2).encode()]);
        assert_eq!(step.last_seq, 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn stream_step_at_a_compaction_boundary() {
        // After a compaction the log restarts at a later sequence (say 5..=8).
        let records: Vec<WalRecord> = (5..=8).map(sample_txn).collect();
        let mut mirror = mirror_of(&records);
        let seqs = |step: &StreamStep| -> Vec<u64> {
            let decoded = step.frames.iter().map(|f| WalRecord::decode(f).unwrap());
            decoded.map(|record| record.seq()).collect()
        };

        // Streaming from exactly the first retained sequence ships everything.
        let step = stream_step(&mirror, 5, 16);
        assert_eq!(seqs(&step), [5, 6, 7, 8]);
        assert_eq!(step.last_seq, 8);

        // From *before* the boundary the log cannot supply the gap: with no
        // image that covers it nothing ships (the follower retries) ...
        let step = stream_step(&mirror, 4, 16);
        assert!(step.frames.is_empty());
        assert_eq!(step.last_seq, 8);
        // ... and with one, the image leads the log.
        mirror.image = Some((4, sample_image(4).encode()));
        let step = stream_step(&mirror, 3, 16);
        assert_eq!(seqs(&step), [4, 5, 6, 7, 8]);
        assert_eq!(step.frames[0], sample_image(4).encode());

        // From past the end no frames ship, but the publisher position does.
        let step = stream_step(&mirror, 9, 16);
        assert!(step.frames.is_empty());
        assert_eq!(step.last_seq, 8);

        // The batch cap truncates without losing the position signal.
        let step = stream_step(&mirror, 5, 2);
        assert_eq!(seqs(&step), [5, 6]);
        assert_eq!(step.last_seq, 8);

        // A reset log ships nothing until new frames arrive after the image.
        mirror.image = Some((8, sample_image(8).encode()));
        mirror.reset_log();
        assert_eq!(stream_step(&mirror, 9, 16).last_seq, 8);
        assert_eq!(seqs(&stream_step(&mirror, 2, 16)), [8]);
        let mut frames = Vec::new();
        frame(&mut frames, &sample_txn(9)).unwrap();
        mirror.append(&frames, [9]);
        assert_eq!(seqs(&stream_step(&mirror, 9, 16)), [9]);
        assert_eq!(seqs(&stream_step(&mirror, 2, 16)), [8, 9]);
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
