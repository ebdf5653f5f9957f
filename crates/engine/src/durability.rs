//! Crash-safe durability for [`Engine`] sessions: a data directory holding a
//! session image plus an append-only transaction log, both in the one binary
//! format of [`crate::wal`], replayed on startup and compacted once the log grows
//! past a threshold.
//!
//! # Data directory layout
//!
//! ```text
//! <dir>/snapshot.fl      the image: `FLOGWAL1` plus exactly one image record
//!                        (program + every stored relation), whose sequence
//!                        number is the last log record it includes
//! <dir>/snapshot.fl.tmp  compaction staging file (ignored and removed on open)
//! <dir>/wal.log          the record log of committed mutations since the image
//! <dir>/LOCK             single-writer lock: the PID of the live opener
//! ```
//!
//! # Write path
//!
//! The [commit protocol](crate::engine#the-commit-protocol) decides what is
//! logged and when; this module supplies its two durable steps. Every record —
//! a transaction batch, or the source text of an [`Engine::load_source`] /
//! [`Engine::add_rules`] — goes through one function, `Engine::wal_append`,
//! *before* anything it describes is applied in memory, and is fsync'd (by
//! default) before the commit call returns; then its frames are copied into the
//! session's `wal::Mirror`, which replication ships from. A commit that returns an error
//! therefore either never reached the log (validation failures, torn appends —
//! recovery truncates those) or is fully logged; there is no state a crash can
//! expose where the log has less than the acknowledged history.
//!
//! # Recovery
//!
//! [`Engine::open_durable`] replays the image (see [`crate::wal::read_image`]:
//! anything but one intact image record is refused, and the directory is left
//! as it is), truncates the log's torn tail (see [`crate::wal::read_log`]), and
//! replays every record whose sequence number the image does not already
//! include through the same commit function, told the record is already on the
//! log — the factored-evaluation machinery then rebuilds derived views on the
//! first query, exactly as it would for a freshly loaded session. A follower
//! bootstraps the same way: the leader ships its image as one more frame.
//!
//! # Compaction
//!
//! Once the log exceeds [`DurabilityOptions::compact_threshold`] bytes, the
//! engine writes the image (to a temp file, fsync, atomic rename, directory
//! fsync) and resets the log. A crash at *any* point of that sequence leaves a
//! recoverable directory: before the rename is durable, the old image + full
//! log; after it, the new image + a log whose stale records are skipped by
//! sequence number. A step that fails stops the compaction before the log
//! reset, so the log is never reset under an image that might not survive.
//!
//! # Fault model
//!
//! Every file operation goes through the session's [`Disk`](crate::disk::Disk).
//! The crash harnesses run sessions on a simulated disk that enforces these
//! persistence rules, and check every state a crash can leave under them:
//!
//! * A file's content survives a crash as of its last `sync`, followed by a
//!   prefix of the writes and length changes made since, in order; the last
//!   write of that prefix may be cut short (the harness cuts at every 64-byte
//!   boundary; the log truncation tests at every byte).
//! * A directory's entries (a creation, a rename, a removal) survive as of
//!   its last `sync_dir`, followed by a prefix of the entry changes made
//!   since, in order. A rename is one change: the name points at the old
//!   file or the new one, never at neither. Creating a name that exists
//!   truncates that file: a change of its content, not of the directory.
//! * A directory, once created, survives.
//! * Any call can fail (the operation does not happen) or panic.
//!
//! Under these rules a commit is durable once its log append is synced, the
//! log's own directory entry is synced when the session opens, and an image
//! or `TERM` file replaces its predecessor only through a synced temp file, a
//! rename and a directory sync.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use factorlog_datalog::eval::EvalOptions;

use crate::disk::{self, io_error, Disk, StdDisk};
use crate::engine::{Engine, EngineError};
use crate::wal::{self, Mirror, WalError, WalRecord, WalWriter, WAL_MAGIC};

/// File name of the session image inside a data directory.
pub const SNAPSHOT_FILE: &str = "snapshot.fl";
/// Staging name the compactor writes the next image under before renaming it.
pub const SNAPSHOT_TMP_FILE: &str = "snapshot.fl.tmp";
/// File name of the transaction log inside a data directory.
pub const WAL_FILE: &str = "wal.log";
/// File name of the single-writer lock inside a data directory. Holds the PID
/// of the live opener; a second [`Engine::open_durable`] of the same directory
/// refuses with [`EngineError::Locked`] while that process is alive, and
/// reclaims the lock when it is not (a stale lock from a crash).
pub const LOCK_FILE: &str = "LOCK";

/// Default log size (bytes) past which a commit triggers compaction.
pub const DEFAULT_COMPACT_THRESHOLD: u64 = 1 << 20;

/// Configuration of a durable session.
#[derive(Clone, Copy, Debug)]
pub struct DurabilityOptions {
    /// fsync the log after every appended record (a compaction's image is
    /// fsynced either way). On: a commit that returns is on stable storage — the
    /// crash guarantee this subsystem exists for. Off: commits are buffered by the
    /// OS (a machine crash may lose the newest ones; a mere process crash cannot),
    /// which is only appropriate for bulk loads and benchmarks (and tests on a
    /// real directory, to run hundreds of commits in bounded time).
    pub fsync: bool,
    /// Log size (bytes) past which the next commit compacts: rewrites the
    /// image atomically and resets the log. `u64::MAX` disables automatic
    /// compaction (explicit [`Engine::compact`] still works). Tests shrink it
    /// to reach compaction within a few commits, or disable it to keep one log.
    pub compact_threshold: u64,
}

impl Default for DurabilityOptions {
    fn default() -> Self {
        DurabilityOptions {
            fsync: true,
            compact_threshold: DEFAULT_COMPACT_THRESHOLD,
        }
    }
}

/// What [`Engine::open_durable`] found and did.
#[derive(Clone, Debug, Default)]
pub struct RecoveryReport {
    /// Was an image file present (it is valid, or the open fails)?
    pub snapshot_loaded: bool,
    /// The last log sequence number the image includes (0 = none).
    pub snapshot_seq: u64,
    /// Log records replayed through the transactional path.
    pub records_replayed: usize,
    /// Log records skipped because the image already includes them (left
    /// behind by a compaction that crashed between image rename and log reset).
    pub records_skipped: usize,
    /// Bytes of torn/corrupt log tail truncated away.
    pub torn_bytes_truncated: u64,
}

impl RecoveryReport {
    /// One-line human summary, shared by every front end's recovery banner:
    /// `snapshot loaded, 3 wal record(s) replayed, 42 torn byte(s) truncated`.
    pub fn describe(&self) -> String {
        use std::fmt::Write as _;
        let mut out = format!(
            "snapshot {}, {} wal record(s) replayed",
            if self.snapshot_loaded {
                "loaded"
            } else {
                "absent"
            },
            self.records_replayed
        );
        if self.torn_bytes_truncated > 0 {
            let _ = write!(
                out,
                ", {} torn byte(s) truncated",
                self.torn_bytes_truncated
            );
        }
        out
    }
}

/// What one [`Engine::compact`] did.
#[derive(Clone, Copy, Debug)]
pub struct CompactReport {
    /// Log bytes before compaction (header included).
    pub log_bytes_before: u64,
    /// Log bytes after compaction (a fresh header).
    pub log_bytes_after: u64,
    /// The sequence number the new image includes.
    pub snapshot_seq: u64,
}

/// The durable half of a session: the log writer plus the directory bookkeeping.
pub(crate) struct Durability {
    disk: Arc<dyn Disk>,
    dir: PathBuf,
    writer: WalWriter,
    options: DurabilityOptions,
    /// Sequence number the next appended record gets (last applied + 1).
    next_seq: u64,
    recovery: RecoveryReport,
    /// What the session last made durable, shared with a server's reactor.
    mirror: Arc<Mutex<Mirror>>,
    /// Held for the session's lifetime; releasing the `LOCK` file on drop.
    _lock: DirLock,
}

/// Canonical paths of every data directory this process currently holds open.
/// The PID in the lock file cannot catch a same-process double-open (our own
/// PID is very much alive), so that case is caught here.
fn lock_registry() -> &'static std::sync::Mutex<std::collections::HashSet<PathBuf>> {
    static REGISTRY: std::sync::OnceLock<std::sync::Mutex<std::collections::HashSet<PathBuf>>> =
        std::sync::OnceLock::new();
    REGISTRY.get_or_init(Default::default)
}

/// Is the process with `pid` alive? Linux answer via `/proc`; on platforms
/// without procfs this conservatively reports dead, degrading to the
/// pre-lock-file last-writer-wins behavior instead of wedging on stale locks.
fn process_alive(pid: u32) -> bool {
    cfg!(target_os = "linux") && Path::new("/proc").join(pid.to_string()).exists()
}

/// An acquired single-writer lock on a data directory: the `LOCK` file holding
/// this process's PID plus the in-process registry entry. Both are released on
/// drop, so dropping a durable [`Engine`] (or [`Engine::close_durable`]) lets
/// the next opener in.
pub(crate) struct DirLock {
    disk: Arc<dyn Disk>,
    canonical: PathBuf,
    lock_path: PathBuf,
}

impl DirLock {
    /// Create `dir` on `disk` if needed and acquire the lock on it. Refuses with
    /// [`EngineError::Locked`] when the directory is open in this process or
    /// the `LOCK` file names a live foreign process; reclaims stale locks left
    /// by dead processes.
    fn acquire(disk: Arc<dyn Disk>, dir: &Path) -> Result<DirLock, EngineError> {
        let canonical = disk
            .create_dir(dir)
            .map_err(|e| io_error("create", dir, e))?;
        let lock_path = dir.join(LOCK_FILE);
        let mut held = lock_registry().lock().expect("lock registry poisoned");
        if held.contains(&canonical) {
            return Err(EngineError::Locked {
                dir: dir.to_path_buf(),
                pid: std::process::id(),
            });
        }
        match disk.read(&lock_path) {
            Ok(Some(text)) => {
                // A foreign live process holds the directory. Our own PID here
                // without a registry entry means a prior holder in this process
                // is gone (or the PID was recycled onto us): stale either way.
                // A PID counts only when its line is whole: a crash can leave
                // a prefix of it, which may name some other live process.
                let text = String::from_utf8_lossy(&text);
                if let Some(Ok(pid)) = text.strip_suffix('\n').map(str::parse::<u32>) {
                    if pid != std::process::id() && process_alive(pid) {
                        return Err(EngineError::Locked {
                            dir: dir.to_path_buf(),
                            pid,
                        });
                    }
                }
                // Unparseable or stale: reclaim by overwriting below.
            }
            Ok(None) => {}
            Err(e) => return Err(io_error("read", &lock_path, e)),
        }
        disk.create(&lock_path)
            .and_then(|mut file| file.write(format!("{}\n", std::process::id()).as_bytes()))
            .map_err(|e| io_error("write", &lock_path, e))?;
        held.insert(canonical.clone());
        Ok(DirLock {
            disk,
            canonical,
            lock_path,
        })
    }
}

impl Drop for DirLock {
    fn drop(&mut self) {
        self.disk.remove(&self.lock_path).ok();
        if let Ok(mut held) = lock_registry().lock() {
            held.remove(&self.canonical);
        }
    }
}

impl From<WalError> for EngineError {
    fn from(e: WalError) -> Self {
        EngineError::Durability(e.to_string())
    }
}

/// The refusal of a data directory whose image is not one intact image record.
fn refuse_image(path: &Path, error: impl std::fmt::Display) -> EngineError {
    EngineError::Durability(format!(
        "refusing {}: {error}; the directory is left as it is (to carry over a \
         directory an older build wrote, `:save` it on that build, then `:load` \
         the saved file into a freshly `:open`ed directory on this one)",
        path.display()
    ))
}

impl Engine {
    /// Open (or create) a durable session in `dir` with default durability and
    /// evaluation options: replays the image, truncates the log's
    /// torn tail, replays the remaining records, and logs every subsequent
    /// committed mutation. See the [crate docs](crate) for the crash guarantees.
    ///
    /// The directory has exactly one live writer, enforced by a `LOCK` file
    /// holding the opener's PID: a second open of the same directory — from
    /// this process or another — fails with [`EngineError::Locked`] while the
    /// first session is alive, and a stale lock left by a dead process is
    /// reclaimed automatically. Dropping the engine (or
    /// [`Engine::close_durable`]) releases the lock.
    pub fn open_durable(dir: impl AsRef<Path>) -> Result<Engine, EngineError> {
        Engine::open_durable_with(dir, DurabilityOptions::default())
    }

    /// [`Engine::open_durable`] with explicit durability options.
    pub fn open_durable_with(
        dir: impl AsRef<Path>,
        options: DurabilityOptions,
    ) -> Result<Engine, EngineError> {
        Engine::open_durable_on(Arc::new(StdDisk), dir, options, EvalOptions::default())
    }

    /// [`Engine::open_durable`] on `disk` (the production path passes
    /// [`StdDisk`]), with explicit durability *and* evaluation options (the
    /// latter as in [`Engine::with_options`]). Every file operation of the
    /// session goes through `disk`.
    pub fn open_durable_on(
        disk: Arc<dyn Disk>,
        dir: impl AsRef<Path>,
        options: DurabilityOptions,
        eval_options: EvalOptions,
    ) -> Result<Engine, EngineError> {
        let dir = dir.as_ref();
        // Single-writer: take the directory lock before reading anything, so a
        // concurrent opener cannot interleave with recovery.
        let lock = DirLock::acquire(disk.clone(), dir)?;
        let mut engine = Engine::with_options(eval_options);

        // 1. The image. A leftover staging file is from a crashed compaction
        //    that never renamed: the real image + log supersede it. Nothing is
        //    written before the image is accepted.
        disk.remove(&dir.join(SNAPSHOT_TMP_FILE)).ok();
        let image_path = dir.join(SNAPSHOT_FILE);
        let mut report = RecoveryReport::default();
        let image =
            wal::read_image(&*disk, &image_path).map_err(|e| refuse_image(&image_path, e))?;
        let mut image_payload = None;
        if let Some((image, payload)) = image {
            report.snapshot_seq = image.seq();
            report.snapshot_loaded = true;
            image_payload = Some((image.seq(), payload));
            engine
                .replay(vec![image])
                .map_err(|e| refuse_image(&image_path, e))?;
        }

        // 2. The log: truncate the torn tail, replay what the image lacks
        //    (see `Engine::replay`: the ordinary commit path, so IDB assertion
        //    routing and exit rules are re-derived exactly as they were live).
        //    A log this open creates is durable once its directory entry is.
        let wal_path = dir.join(WAL_FILE);
        let (scan, writer, mut mirror) = wal::recover_log(&*disk, &wal_path, options.fsync)?;
        mirror.image = image_payload;
        disk.sync_dir(dir).map_err(|e| io_error("sync", dir, e))?;
        report.torn_bytes_truncated = scan.torn_bytes;
        let (stale, tail): (Vec<_>, Vec<_>) = scan
            .records
            .into_iter()
            .partition(|record| record.seq() <= report.snapshot_seq);
        report.records_skipped = stale.len();
        report.records_replayed = tail.len();
        let last_seq = tail.last().map_or(report.snapshot_seq, WalRecord::seq);
        engine.replay(tail)?;
        if report.torn_bytes_truncated > 0 {
            engine.stats.wal_torn_truncations += 1;
        }

        engine.durability = Some(Durability {
            disk,
            dir: dir.to_path_buf(),
            writer,
            options,
            next_seq: last_seq + 1,
            recovery: report,
            mirror: Arc::new(Mutex::new(mirror)),
            _lock: lock,
        });
        Ok(engine)
    }

    /// Is this session durable (opened via [`Engine::open_durable`])?
    pub fn is_durable(&self) -> bool {
        self.durability.is_some()
    }

    /// Detach the durable half of this session: drop the log writer and
    /// release the single-writer `LOCK`, keeping the in-memory state (rules,
    /// facts, model). Returns `true` when the session was durable. Subsequent
    /// mutations are no longer logged — used before re-opening the same
    /// directory from the same process (e.g. the REPL's `:open`).
    pub fn close_durable(&mut self) -> bool {
        self.durability.take().is_some()
    }

    /// Force an fsync of the transaction log now (a no-op for in-memory
    /// sessions). With fsync-per-append on (the default) every acknowledged
    /// commit is already durable and this adds nothing; with it off, this is
    /// the flush point bulk loaders and graceful server shutdown call before
    /// declaring the directory quiescent.
    pub fn sync_wal(&mut self) -> Result<(), EngineError> {
        if let Some(dur) = self.durability.as_mut() {
            dur.writer.sync()?;
        }
        Ok(())
    }

    /// The durable session's data directory, if any.
    pub fn data_dir(&self) -> Option<&Path> {
        self.durability.as_ref().map(|d| d.dir.as_path())
    }

    /// The durable session's disk and data directory, if any.
    pub(crate) fn data_disk(&self) -> Option<(Arc<dyn Disk>, PathBuf)> {
        let dur = self.durability.as_ref()?;
        Some((dur.disk.clone(), dur.dir.clone()))
    }

    /// The mirror of what this durable session last made durable (see
    /// `wal::Mirror`), if durable: what a served node answers polls from.
    pub(crate) fn mirror(&self) -> Option<Arc<Mutex<Mirror>>> {
        Some(self.durability.as_ref()?.mirror.clone())
    }

    /// What recovery found when this durable session was opened.
    pub fn recovery_report(&self) -> Option<&RecoveryReport> {
        self.durability.as_ref().map(|d| &d.recovery)
    }

    /// Current size of the transaction log in bytes (header included), if
    /// durable. Monotonic between compactions; each committed mutation advances
    /// it by exactly one record, so consecutive values are the record boundaries
    /// crash tests cut at.
    pub fn wal_len(&self) -> Option<u64> {
        self.durability.as_ref().map(|d| d.writer.len())
    }

    /// Compact now: atomically rewrite the image to include everything the log
    /// holds, then reset the log. A crash (or injected fault) anywhere in the
    /// sequence leaves a directory that recovers to exactly the same session,
    /// and a failed step stops it before the log reset. Errors when the
    /// session is not durable.
    pub fn compact(&mut self) -> Result<CompactReport, EngineError> {
        if self.durability.is_none() {
            return Err(EngineError::Durability(
                "session is not durable (open it with open_durable)".to_string(),
            ));
        }
        self.contained(|engine| {
            let start = engine.tracing().then(std::time::Instant::now);
            let log_bytes_before = engine.wal_len().expect("checked durable above");
            let snapshot_seq = engine.wal_last_seq().expect("checked durable above");
            engine.wal_persist_image(&engine.image(snapshot_seq))?;
            engine.wal_reset()?;
            engine.stats.wal_compactions += 1;
            if let (Some(start), Some(metrics)) = (start, engine.metrics.as_deref_mut()) {
                metrics.compaction.record(start.elapsed());
            }
            Ok(CompactReport {
                log_bytes_before,
                log_bytes_after: engine.wal_len().expect("checked durable above"),
                snapshot_seq,
            })
        })
    }

    /// Steps 1–2 of a compaction (and of a follower's bootstrap): replace the
    /// image by `image`, which includes every record logged so far (write tmp →
    /// fsync → rename → dir fsync, see `disk::replace`). On error the log must
    /// not be reset: the rename may not be durable, and a leftover tmp file is
    /// removed by the next open. After the rename the still-untruncated log's
    /// records are all stale and sequence-skipped.
    fn wal_persist_image(&self, image: &WalRecord) -> Result<(), EngineError> {
        let dur = self.durability.as_ref().expect("caller checked durable");
        let mut bytes = wal::image_file(image)?;
        disk::replace(&*dur.disk, &dur.dir, SNAPSHOT_FILE, &bytes)
            .map_err(|e| io_error("replace", &dur.dir.join(SNAPSHOT_FILE), e))?;
        // The payload follows the header and the frame's length and CRC.
        bytes.drain(..WAL_MAGIC.len() + 8);
        dur.mirror.lock().expect("mirror lock poisoned").image = Some((image.seq(), bytes));
        Ok(())
    }

    /// Step 3: reset the log to a fresh header. On failure the log may already
    /// be cut short under the old writer, so that writer is poisoned: every
    /// later append fails until a reopen, which recovers from the image.
    fn wal_reset(&mut self) -> Result<(), EngineError> {
        let dur = self.durability.as_mut().expect("caller checked durable");
        let fresh = WalWriter::create_on(&*dur.disk, &dur.dir.join(WAL_FILE), dur.options.fsync);
        dur.writer.poisoned = fresh.is_err();
        dur.writer = fresh?;
        dur.mirror.lock().expect("mirror lock poisoned").reset_log();
        Ok(())
    }

    /// Step 2 of the [commit protocol](crate::engine#the-commit-protocol), and
    /// the only function that writes to the log: number `records` from the
    /// session's next sequence number and append them under one fsync (see
    /// [`crate::wal::WalWriter::append_all`]: all or nothing). Called *after*
    /// validation and *before* any state mutation, so a failure aborts the
    /// commit with the session untouched. A no-op for in-memory sessions and
    /// for no records.
    ///
    /// A follower passes shipped records through here too: they arrive already
    /// numbered, checked to continue this log without a gap, so numbering them
    /// leaves them as they are.
    pub(crate) fn wal_append(&mut self, records: &mut [WalRecord]) -> Result<(), EngineError> {
        if self.durability.is_none() || records.is_empty() {
            return Ok(());
        }
        self.contained(|engine| {
            let tracing = engine.tracing();
            let dur = engine.durability.as_mut().expect("checked durable above");
            let mut seq = dur.next_seq;
            for record in records.iter_mut() {
                record.set_seq(seq);
                seq += 1;
            }
            let start = tracing.then(std::time::Instant::now);
            let frames = dur.writer.append_all(records)?;
            let mut mirror = dur.mirror.lock().expect("mirror lock poisoned");
            mirror.append(&frames, records.iter().map(WalRecord::seq));
            dur.next_seq = seq;
            let fsync_ns = dur.writer.last_fsync_ns();
            let txns = records
                .iter()
                .filter(|record| matches!(record, WalRecord::Txn { .. }))
                .count();
            engine.stats.wal_appends += records.len();
            if txns > 0 {
                engine.stats.wal_group_commits += 1;
                engine.stats.wal_group_txns += txns;
            }
            // Tracing: the whole append as a `wal_append` span and, when it
            // fsync'd, the fsync alone into the `wal_fsync` histogram.
            if let (Some(start), Some(metrics)) = (start, engine.metrics.as_deref_mut()) {
                metrics.wal_append.record(start.elapsed());
                if let Some(ns) = fsync_ns {
                    metrics.wal_fsync.record_ns(ns);
                }
            }
            Ok(())
        })
    }

    /// Last sequence number this durable session has logged: `None` for
    /// in-memory sessions, `Some(0)` before the first record. On a leader this
    /// is the publisher position followers chase; on a follower it is the
    /// replication position (the two advance in lockstep because shipped
    /// frames keep their leader sequence numbers).
    pub fn wal_last_seq(&self) -> Option<u64> {
        self.durability.as_ref().map(|d| d.next_seq - 1)
    }

    /// Apply a batch of shipped log records (replication's follower path): the
    /// records that continue this session's log are appended to it *verbatim* —
    /// keeping the leader's sequence numbers, so the follower's log position
    /// mirrors the leader's — under one fsync, then replayed like recovered
    /// ones, then the compaction threshold is checked once (the
    /// [commit protocol](crate::engine#the-commit-protocol) with the shipped
    /// batch as the group). An image past this session's position (the leader
    /// compacted past it, so its log no longer reaches back here) replaces
    /// everything before it: it becomes this session's own image, the log
    /// resets, and the position becomes the image's. At-most-once: records at
    /// sequences already applied, images included, are skipped silently (poll
    /// redelivery); a sequence
    /// *gap* is an error, raised after the contiguous records before it are
    /// applied, because applying past it would silently diverge from the
    /// leader. Returns how many records were newly applied. Errors when the
    /// session is not durable — a follower without its own log could not
    /// survive its own crash.
    pub(crate) fn apply_replicated(
        &mut self,
        mut records: Vec<WalRecord>,
    ) -> Result<usize, EngineError> {
        let Some(dur) = self.durability.as_ref() else {
            return Err(EngineError::Durability(
                "replication requires a durable session (open it with open_durable)".to_string(),
            ));
        };
        let mut expected = dur.next_seq;
        let mut applied = 0;
        let installs =
            |record: &WalRecord| matches!(record, WalRecord::Image { seq, .. } if *seq >= expected);
        if let Some(at) = records.iter().rposition(installs) {
            records.drain(..at);
            let image = records.remove(0);
            // Persist the image before installing it, so that an error leaves
            // memory and disk agreeing on the old state; then continue the
            // numbering after it and reset the log (best-effort: once the
            // rename lands, every record of the old log is stale).
            self.wal_persist_image(&image)?;
            expected = image.seq() + 1;
            self.durability
                .as_mut()
                .expect("checked durable above")
                .next_seq = expected;
            self.wal_reset().ok();
            self.stats.wal_compactions += 1;
            self.replay(vec![image])?;
            applied += 1;
        }
        let mut gap = None;
        let mut run = Vec::new();
        for record in records {
            match record.seq().cmp(&expected) {
                std::cmp::Ordering::Less => continue,
                std::cmp::Ordering::Equal => {
                    run.push(record);
                    expected += 1;
                }
                std::cmp::Ordering::Greater => {
                    gap = Some(record.seq());
                    break;
                }
            }
        }
        self.wal_append(&mut run)?;
        applied += run.len();
        self.replay(run)?;
        self.wal_maybe_compact()?;
        match gap {
            Some(seq) => Err(EngineError::Durability(format!(
                "replication gap: expected frame {expected}, got {seq}"
            ))),
            None => Ok(applied),
        }
    }

    /// Step 5 of the [commit protocol](crate::engine#the-commit-protocol):
    /// compact if the log has outgrown the configured threshold. A compaction
    /// error surfaces on the commit that ran the check (the commit itself is
    /// already durable — both the old and the half-compacted directory recover
    /// to it).
    pub(crate) fn wal_maybe_compact(&mut self) -> Result<(), EngineError> {
        let Some(dur) = self.durability.as_ref() else {
            return Ok(());
        };
        if dur.writer.is_empty() || dur.writer.len() <= dur.options.compact_threshold {
            return Ok(());
        }
        self.compact()?;
        Ok(())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::engine::{OnLog, Op};
    use crate::wal::WalOp;
    use factorlog_datalog::ast::Const;
    use factorlog_datalog::fault::{FaultAction, FaultInjector, FaultSite};
    use factorlog_datalog::parser::parse_query;
    use factorlog_datalog::symbol::Symbol;

    fn c(i: i64) -> Const {
        Const::Int(i)
    }

    /// A scratch data directory for a unit test, unique per call and cleaned before use.
    pub(crate) fn fresh_dir(tag: &str) -> PathBuf {
        static COUNTER: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let n = COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "factorlog_durability_{tag}_{}_{n}",
            std::process::id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    const TC: &str = "t(X, Y) :- e(X, Y).\nt(X, Y) :- e(X, W), t(W, Y).";

    #[test]
    fn durable_sessions_survive_reopen() {
        let dir = fresh_dir("reopen");
        let query = parse_query("t(0, Y)").unwrap();
        {
            let mut engine = Engine::open_durable(&dir).unwrap();
            assert!(engine.is_durable());
            assert_eq!(engine.data_dir(), Some(dir.as_path()));
            engine.load_source(TC).unwrap();
            for i in 0..4 {
                engine.insert("e", &[c(i), c(i + 1)]).unwrap();
            }
            let mut txn = engine.transaction();
            txn.retract("e", &[c(1), c(2)]).assert("e", &[c(1), c(9)]);
            txn.commit().unwrap();
            assert_eq!(engine.stats().wal_appends, 6);
            // Dropped without any clean-shutdown step: the log is the truth.
        }
        let mut reopened = Engine::open_durable(&dir).unwrap();
        let report = reopened.recovery_report().unwrap().clone();
        assert!(!report.snapshot_loaded);
        assert_eq!(report.records_replayed, 6);
        assert_eq!(reopened.stats().wal_replays, 6);
        let answers = reopened.query(&query).unwrap();
        assert_eq!(answers, vec![vec![c(1)], vec![c(9)]]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compaction_resets_the_log_and_preserves_the_image() {
        let dir = fresh_dir("compact");
        let query = parse_query("t(0, Y)").unwrap();
        let mut engine = Engine::open_durable(&dir).unwrap();
        engine.load_source(TC).unwrap();
        for i in 0..5 {
            engine.insert("e", &[c(i), c(i + 1)]).unwrap();
        }
        let before = engine.wal_len().unwrap();
        let report = engine.compact().unwrap();
        assert_eq!(report.log_bytes_before, before);
        assert!(report.log_bytes_after < before);
        assert_eq!(engine.stats().wal_compactions, 1);
        assert_eq!(report.snapshot_seq, 6);

        // More commits after the compaction land in the fresh log.
        engine.insert("e", &[c(5), c(6)]).unwrap();
        let answers = engine.query(&query).unwrap();
        drop(engine);

        let mut reopened = Engine::open_durable(&dir).unwrap();
        let rec = reopened.recovery_report().unwrap().clone();
        assert!(rec.snapshot_loaded);
        assert_eq!(rec.snapshot_seq, 6);
        assert_eq!(rec.records_replayed, 1);
        assert_eq!(reopened.query(&query).unwrap(), answers);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Regression: a group commit whose *first* batch finds the log over the
    /// compaction threshold must not snapshot before the rest of the group is
    /// applied — the snapshot carries the sequence number of the group's last
    /// record, so the later batches (logged, fsynced, acknowledged) would be in
    /// neither the snapshot nor the reset log.
    #[test]
    fn a_group_commit_crossing_the_compaction_threshold_keeps_every_batch() {
        let dir = fresh_dir("group_compact");
        let options = DurabilityOptions {
            fsync: false,
            compact_threshold: 256,
        };
        let batch = |from: i64| -> Vec<Op> {
            (from..from + 4)
                .map(|i| (WalOp::Assert, Symbol::intern("e"), vec![c(i), c(i + 1)]))
                .collect()
        };
        let mut expected = Engine::new();
        let mut engine = Engine::open_durable_with(&dir, options).unwrap();
        engine.load_source(TC).unwrap();
        expected.load_source(TC).unwrap();
        // Three groups of four batches: the log (about 100 bytes per batch) crosses
        // the threshold inside a group, and again in later ones after the reset.
        for group in 0..3i64 {
            let batches: Vec<_> = (0..4).map(|k| batch(group * 100 + k * 10)).collect();
            for (_, predicate, tuple) in batches.iter().flatten() {
                expected.insert(*predicate, tuple).unwrap();
            }
            let results = engine.commit_group(&batches, OnLog::No);
            assert!(
                results.iter().all(Result::is_ok),
                "every batch is acknowledged"
            );
        }
        assert!(
            engine.stats().wal_compactions > 0,
            "the threshold was crossed"
        );
        drop(engine);

        let reopened = Engine::open_durable_with(&dir, options).unwrap();
        let e = Symbol::intern("e");
        assert_eq!(
            reopened.facts().relation(e).unwrap().to_sorted_vec(),
            expected.facts().relation(e).unwrap().to_sorted_vec(),
            "recovered EDB = every acknowledged batch applied"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Regression (failed at the parent, where a single commit returned the
    /// maintenance error before looking at the log): a maintenance failure drops
    /// the model, not the commit — and not the compaction check after it either.
    #[test]
    fn a_failed_maintenance_on_a_single_commit_still_checks_the_threshold() {
        let dir = fresh_dir("maintain_compact");
        let options = DurabilityOptions {
            fsync: false,
            compact_threshold: 512,
        };
        let query = parse_query("t(0, Y)").unwrap();
        let mut engine = Engine::open_durable_with(&dir, options).unwrap();
        engine.load_source(TC).unwrap();
        for i in 0..4 {
            engine.insert("e", &[c(i), c(i + 1)]).unwrap();
        }
        engine.query(&query).unwrap();
        assert_eq!(engine.stats().wal_compactions, 0, "set-up stays under");
        engine.set_fault_injector(Some(FaultInjector::armed(
            FaultSite::DeleteOverdelete,
            FaultAction::Error,
            0,
        )));
        // One batch whose record alone crosses the threshold, and whose
        // retraction makes maintenance run into the armed fault.
        let mut txn = engine.transaction();
        txn.retract("e", &[c(0), c(1)]);
        for i in 10..40 {
            txn.assert("e", &[c(i), c(i + 1)]);
        }
        assert!(matches!(txn.commit(), Err(EngineError::Eval(_))));
        assert!(!engine.is_materialized(), "the model is dropped");
        assert_eq!(engine.facts().count("e"), 4 - 1 + 30, "the commit stands");
        assert_eq!(engine.stats().wal_compactions, 1, "the check still ran");
        drop(engine);
        let reopened = Engine::open_durable_with(&dir, options).unwrap();
        assert_eq!(reopened.facts().count("e"), 33);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The records a leader session logs for a rule load and `n` commits.
    fn leader_records(n: i64) -> Vec<WalRecord> {
        let dir = fresh_dir("leader");
        let mut leader = Engine::open_durable(&dir).unwrap();
        leader.load_source(TC).unwrap();
        for i in 0..n {
            leader.insert("e", &[c(i), c(i + 1)]).unwrap();
        }
        drop(leader);
        let records = wal::read_log(&dir.join(WAL_FILE)).unwrap().records;
        std::fs::remove_dir_all(&dir).ok();
        records
    }

    #[test]
    fn a_shipped_batch_costs_one_append_and_one_fsync() {
        let records = leader_records(5);
        assert_eq!(records.len(), 6);
        let dir = fresh_dir("follower");
        let mut follower = Engine::open_durable(&dir).unwrap();
        follower.set_tracing(true);
        let fsyncs = |engine: &Engine| engine.metrics().unwrap().wal_fsync.count();

        // Records 1..=4 in one batch: four appends, one fsync, one group.
        assert_eq!(follower.apply_replicated(records[..4].to_vec()).unwrap(), 4);
        assert_eq!(follower.stats().wal_appends, 4);
        assert_eq!(follower.stats().wal_replays, 4);
        assert_eq!(fsyncs(&follower), 1);
        assert_eq!(follower.metrics().unwrap().wal_append.count, 1);
        // One source record and three transactions under that fsync.
        assert_eq!(follower.stats().wal_group_commits, 1);
        assert_eq!(follower.stats().wal_group_txns, 3);

        // A redelivered batch appends nothing.
        let len = follower.wal_len().unwrap();
        assert_eq!(follower.apply_replicated(records[..4].to_vec()).unwrap(), 0);
        assert_eq!(follower.wal_len().unwrap(), len);
        assert_eq!((follower.stats().wal_appends, fsyncs(&follower)), (4, 1));

        // A gap mid-batch (record 6 after 5): the contiguous prefix — skipping
        // the redelivered record 4 — is appended and applied, then the error.
        let gapped = vec![records[3].clone(), records[4].clone(), {
            let WalRecord::Txn { ops, .. } = records[5].clone() else {
                panic!("record 6 is a transaction");
            };
            WalRecord::Txn { seq: 7, ops }
        }];
        let err = follower.apply_replicated(gapped).unwrap_err().to_string();
        assert!(
            err.contains("replication gap: expected frame 6, got 7"),
            "{err}"
        );
        assert_eq!(follower.wal_last_seq(), Some(5));
        assert_eq!((follower.stats().wal_appends, fsyncs(&follower)), (5, 2));
        assert_eq!(follower.facts().count("e"), 4);

        // The follower's log is the leader's, record for record.
        follower.apply_replicated(records[5..].to_vec()).unwrap();
        drop(follower);
        assert_eq!(wal::read_log(&dir.join(WAL_FILE)).unwrap().records, records);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_materialized_follower_maintains_once_per_shipped_batch() {
        let records = leader_records(6);
        let dir = fresh_dir("follower_model");
        let mut follower = Engine::open_durable(&dir).unwrap();
        let query = parse_query("t(0, Y)").unwrap();
        follower.apply_replicated(records[..2].to_vec()).unwrap();
        assert_eq!(follower.query(&query).unwrap().len(), 1);
        // Five transactions in one shipped batch: one group, so one maintenance
        // pass, which plans the program once.
        let allocs = follower.stats().scratch_allocs;
        assert_eq!(follower.apply_replicated(records[2..].to_vec()).unwrap(), 5);
        let plan = follower.program().len();
        assert_eq!(follower.stats().scratch_allocs - allocs, plan);
        assert_eq!(follower.query(&query).unwrap().len(), 6);
        drop(follower);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// What a poll ships from the mirror is what is on disk — the image's
    /// payload when the log no longer starts at 1, then every log record —
    /// after every commit, across compactions, after a follower's image
    /// bootstrap and after a reopen.
    #[test]
    fn the_mirror_holds_what_is_on_disk() {
        let on_disk = |engine: &Engine| {
            let dir = engine.data_dir().unwrap();
            let image = wal::read_image(&StdDisk, &dir.join(SNAPSHOT_FILE)).unwrap();
            let mut frames: Vec<Vec<u8>> = image.map(|(_, payload)| payload).into_iter().collect();
            let log = wal::read_log(&dir.join(WAL_FILE)).unwrap().records;
            frames.extend(log.iter().map(WalRecord::encode));
            frames
        };
        let shipped = |engine: &Engine| {
            let mirror = engine.mirror().unwrap();
            let mirror = mirror.lock().unwrap();
            crate::replication::stream_step(&mirror, 1, usize::MAX).frames
        };
        let options = DurabilityOptions {
            fsync: false,
            compact_threshold: 256,
        };
        let dir = fresh_dir("mirror");
        let mut engine = Engine::open_durable_with(&dir, options).unwrap();
        engine.load_source(TC).unwrap();
        for i in 0..20 {
            engine.insert("e", &[c(i), c(i + 1)]).unwrap();
            assert_eq!(shipped(&engine), on_disk(&engine), "after commit {i}");
        }
        assert!(engine.stats().wal_compactions > 1);
        let frames = shipped(&engine);
        drop(engine);
        let engine = Engine::open_durable_with(&dir, options).unwrap();
        assert_eq!(shipped(&engine), frames, "a reopen rebuilds the mirror");

        let follower_dir = fresh_dir("mirror_follower");
        let mut follower = Engine::open_durable_with(&follower_dir, options).unwrap();
        let records = frames.iter().map(|f| WalRecord::decode(f).unwrap());
        follower.apply_replicated(records.collect()).unwrap();
        assert_eq!(
            follower.stats().wal_compactions,
            1,
            "the image is installed"
        );
        assert_eq!(shipped(&follower), on_disk(&follower));
        assert_eq!(
            shipped(&follower),
            frames,
            "a follower ships what it applied"
        );
        drop((engine, follower));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&follower_dir).ok();
    }

    #[test]
    fn automatic_compaction_honors_the_threshold() {
        let dir = fresh_dir("auto");
        let options = DurabilityOptions {
            fsync: false,
            compact_threshold: 64,
        };
        let mut engine = Engine::open_durable_with(&dir, options).unwrap();
        engine.load_source(TC).unwrap();
        for i in 0..12 {
            engine.insert("e", &[c(i), c(i + 1)]).unwrap();
        }
        assert!(
            engine.stats().wal_compactions > 0,
            "64-byte threshold must have compacted"
        );
        assert!(engine.wal_len().unwrap() <= 64 + 8);
        let query = parse_query("t(0, Y)").unwrap();
        assert_eq!(engine.query(&query).unwrap().len(), 12);
        drop(engine);
        let mut reopened = Engine::open_durable(&dir).unwrap();
        assert_eq!(reopened.query(&query).unwrap().len(), 12);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Regression (failed at the parent, whose text image could not spell a
    /// `"`): a symbol the log accepts survives compaction and reopen, and so
    /// does a rule whose constant needs quotes.
    #[test]
    fn a_symbol_with_a_quote_survives_compaction() {
        let dir = fresh_dir("quote");
        let quoted = Const::sym("say \"hi\"");
        let mut engine = Engine::open_durable(&dir).unwrap();
        engine
            .load_source("hello(X) :- e(X, \"Hello world\").")
            .unwrap();
        engine.insert("e", &[c(1), quoted]).unwrap();
        engine
            .insert("e", &[c(2), Const::sym("Hello world")])
            .unwrap();
        drop(engine);
        let mut engine = Engine::open_durable(&dir).unwrap();
        let program = engine.program().clone();
        engine.compact().unwrap();
        drop(engine);
        let mut reopened = Engine::open_durable(&dir).unwrap();
        assert!(reopened.recovery_report().unwrap().snapshot_loaded);
        assert_eq!(reopened.program(), &program);
        assert_eq!(
            reopened
                .facts()
                .relation(Symbol::intern("e"))
                .unwrap()
                .to_sorted_vec(),
            vec![vec![c(1), quoted], vec![c(2), Const::sym("Hello world")]]
        );
        let query = parse_query("hello(X)").unwrap();
        assert_eq!(reopened.query(&query).unwrap(), vec![vec![c(2)]]);
        drop(reopened);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A foreign or damaged image is refused with an error naming it, and the
    /// directory is left byte for byte as it was: never truncated, never
    /// replaced.
    #[test]
    fn a_foreign_or_damaged_image_is_refused_never_truncated() {
        let base = fresh_dir("image_base");
        let mut engine = Engine::open_durable(&base).unwrap();
        engine.load_source(TC).unwrap();
        engine.insert("e", &[c(1), c(2)]).unwrap();
        engine.compact().unwrap();
        engine.insert("e", &[c(2), c(3)]).unwrap();
        let image = std::fs::read(base.join(SNAPSHOT_FILE)).unwrap();
        let txn = WalRecord::Txn {
            seq: 2,
            ops: vec![(WalOp::Assert, Symbol::intern("e"), vec![c(5), c(6)])],
        };
        let framed = |records: &[WalRecord]| {
            let path = base.join("framed");
            let mut writer = WalWriter::create(&path, false).unwrap();
            writer.append_all(records).unwrap();
            drop(writer);
            std::fs::read(&path).unwrap()
        };
        let mut flipped = image.clone();
        *flipped.last_mut().unwrap() ^= 0x40;
        let cases = [
            (
                "a text snapshot, as older builds wrote it",
                engine.snapshot().into_bytes(),
            ),
            ("one flipped byte", flipped),
            ("a truncated file", image[..image.len() - 3].to_vec()),
            (
                "a txn frame instead of an image",
                framed(std::slice::from_ref(&txn)),
            ),
            ("two frames", {
                let WalRecord::Image {
                    rules, relations, ..
                } = engine.image(1)
                else {
                    panic!("an image");
                };
                framed(&[
                    WalRecord::Image {
                        seq: 1,
                        rules,
                        relations,
                    },
                    txn.clone(),
                ])
            }),
        ];
        drop(engine);
        let wal = std::fs::read(base.join(WAL_FILE)).unwrap();
        for (case, bytes) in cases {
            let dir = fresh_dir("image_refused");
            std::fs::create_dir_all(&dir).unwrap();
            std::fs::write(dir.join(SNAPSHOT_FILE), &bytes).unwrap();
            std::fs::write(dir.join(WAL_FILE), &wal).unwrap();
            let Err(err) = Engine::open_durable(&dir) else {
                panic!("{case}: the image must be refused");
            };
            assert!(matches!(err, EngineError::Durability(_)), "{case}: {err}");
            assert!(err.to_string().contains(SNAPSHOT_FILE), "{case}: {err}");
            assert_eq!(
                std::fs::read(dir.join(SNAPSHOT_FILE)).unwrap(),
                bytes,
                "{case}"
            );
            assert_eq!(std::fs::read(dir.join(WAL_FILE)).unwrap(), wal, "{case}");
            std::fs::remove_dir_all(&dir).ok();
        }
        std::fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn duplicate_inserts_do_not_grow_the_log() {
        let dir = fresh_dir("dup");
        let mut engine = Engine::open_durable(&dir).unwrap();
        engine.load_source(TC).unwrap();
        assert!(engine.insert("e", &[c(1), c(2)]).unwrap());
        assert!(engine.insert("t", &[c(9), c(10)]).unwrap()); // asserted IDB fact
        let len = engine.wal_len().unwrap();
        let appends = engine.stats().wal_appends;
        // Idempotent re-inserts (EDB and IDB alike) are no-ops: no record, no fsync.
        assert!(!engine.insert("e", &[c(1), c(2)]).unwrap());
        assert!(!engine.insert("t", &[c(9), c(10)]).unwrap());
        assert_eq!(engine.wal_len().unwrap(), len);
        assert_eq!(engine.stats().wal_appends, appends);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn second_open_of_a_locked_directory_is_refused() {
        let dir = fresh_dir("lock");
        let mut engine = Engine::open_durable(&dir).unwrap();
        engine.insert("e", &[c(1), c(2)]).unwrap();
        assert!(dir.join(LOCK_FILE).exists(), "LOCK is on disk while open");

        // Double-open (same process) is refused with the structured error.
        let Err(err) = Engine::open_durable(&dir) else {
            panic!("double-open must be refused");
        };
        let EngineError::Locked { dir: locked, pid } = err else {
            panic!("expected Locked, got {err}");
        };
        assert_eq!(locked, dir);
        assert_eq!(pid, std::process::id());
        // The refused opener must not have clobbered the holder's lock.
        assert!(dir.join(LOCK_FILE).exists());
        engine.insert("e", &[c(2), c(3)]).unwrap();

        // Dropping the holder releases the lock; the next opener gets in and
        // sees the full history.
        drop(engine);
        assert!(!dir.join(LOCK_FILE).exists(), "drop releases the LOCK");
        let reopened = Engine::open_durable(&dir).unwrap();
        assert_eq!(reopened.facts().count("e"), 2);
        drop(reopened);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stale_lock_from_a_dead_process_is_reclaimed() {
        let dir = fresh_dir("stale_lock");
        std::fs::create_dir_all(&dir).unwrap();
        // No live process has this PID (kernel pid_max caps real PIDs well
        // below u32::MAX), so the lock must be treated as stale.
        std::fs::write(dir.join(LOCK_FILE), format!("{}\n", u32::MAX)).unwrap();
        let engine = Engine::open_durable(&dir).expect("stale lock is reclaimed");
        let text = std::fs::read_to_string(dir.join(LOCK_FILE)).unwrap();
        assert_eq!(text.trim().parse::<u32>().unwrap(), std::process::id());
        drop(engine);

        // Garbage lock contents are also reclaimed, not wedged on.
        std::fs::write(dir.join(LOCK_FILE), "not a pid").unwrap();
        let engine = Engine::open_durable(&dir).expect("garbage lock is reclaimed");
        drop(engine);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn close_durable_releases_the_lock_and_keeps_state() {
        let dir = fresh_dir("close");
        let mut engine = Engine::open_durable(&dir).unwrap();
        engine.load_source(TC).unwrap();
        engine.insert("e", &[c(0), c(1)]).unwrap();
        assert!(engine.close_durable());
        assert!(!engine.is_durable());
        assert!(!engine.close_durable(), "second close is a no-op");
        assert!(!dir.join(LOCK_FILE).exists());
        // In-memory state survives the detach; mutations are no longer logged.
        engine.insert("e", &[c(1), c(2)]).unwrap();
        let query = parse_query("t(0, Y)").unwrap();
        assert_eq!(engine.query(&query).unwrap().len(), 2);
        // The directory is re-openable while the detached session lives, and
        // only holds the logged prefix.
        let mut reopened = Engine::open_durable(&dir).unwrap();
        assert_eq!(reopened.query(&query).unwrap().len(), 1);
        drop(reopened);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compact_requires_a_durable_session() {
        let mut engine = Engine::new();
        assert!(matches!(engine.compact(), Err(EngineError::Durability(_))));
        assert!(engine.wal_len().is_none());
        assert!(engine.recovery_report().is_none());
        assert!(engine.data_dir().is_none());
    }
}
