//! The disk under a durable session. Every file operation of the log and the
//! image (`wal.rs`, `durability.rs`), of `LOCK`, and of replication's `TERM`
//! file goes through a [`Disk`], chosen once when the session
//! is opened ([`Engine::open_durable_on`](crate::Engine::open_durable_on)).
//! [`StdDisk`] — `std::fs` — is the production path and the only
//! implementation here; the crash harnesses substitute a simulated disk that
//! keeps what a crash would keep (the module docs of `durability.rs` state
//! its persistence rules).

use std::fs::{File, OpenOptions};
use std::io::{self, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use crate::engine::EngineError;

/// The file operations a durable session performs.
pub trait Disk: Send + Sync {
    /// The whole content of `path`, or `None` when there is no such file.
    fn read(&self, path: &Path) -> io::Result<Option<Vec<u8>>>;
    /// Create `path` empty (truncating an existing file) and open it for writing.
    fn create(&self, path: &Path) -> io::Result<Box<dyn DiskFile>>;
    /// Open the existing `path` for writing at `len`, cutting off what follows.
    fn open_at(&self, path: &Path, len: u64) -> io::Result<Box<dyn DiskFile>>;
    /// Atomically rename `from` over `to`.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Remove the file `path`.
    fn remove(&self, path: &Path) -> io::Result<()>;
    /// Make the entries of directory `dir` durable: a creation, rename or
    /// removal inside it survives a crash only once this returns.
    fn sync_dir(&self, dir: &Path) -> io::Result<()>;
    /// Create `dir` (and its parents) and return its canonical name, which
    /// identifies the directory among every one open in this process.
    fn create_dir(&self, dir: &Path) -> io::Result<PathBuf>;
}

/// An open file of a [`Disk`], written sequentially.
pub trait DiskFile: Send {
    /// Write all of `bytes` at the current position.
    fn write(&mut self, bytes: &[u8]) -> io::Result<()>;
    /// Make the file's content durable (`fdatasync`).
    fn sync(&mut self) -> io::Result<()>;
    /// Cut (or extend) the file to `len` bytes and continue writing there.
    fn set_len(&mut self, len: u64) -> io::Result<()>;
}

/// The operating system's file system.
#[derive(Clone, Copy, Debug, Default)]
pub struct StdDisk;

impl Disk for StdDisk {
    fn read(&self, path: &Path) -> io::Result<Option<Vec<u8>>> {
        match std::fs::read(path) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }

    fn create(&self, path: &Path) -> io::Result<Box<dyn DiskFile>> {
        Ok(Box::new(File::create(path)?))
    }

    fn open_at(&self, path: &Path, len: u64) -> io::Result<Box<dyn DiskFile>> {
        let mut file: Box<dyn DiskFile> = Box::new(OpenOptions::new().write(true).open(path)?);
        file.set_len(len)?;
        Ok(file)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        File::open(dir)?.sync_all()
    }

    fn create_dir(&self, dir: &Path) -> io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        dir.canonicalize()
    }
}

impl DiskFile for File {
    fn write(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.write_all(bytes)
    }

    fn sync(&mut self) -> io::Result<()> {
        self.sync_data()
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        File::set_len(self, len)?;
        self.seek(SeekFrom::Start(len)).map(|_| ())
    }
}

/// Replace `dir/name` by a file holding `bytes`, atomically and durably: write
/// `dir/name.tmp`, fsync it, rename it over `dir/name`, fsync `dir`. A failed
/// step fails the replacement: the caller must not act as though it happened.
pub(crate) fn replace(disk: &dyn Disk, dir: &Path, name: &str, bytes: &[u8]) -> io::Result<()> {
    let tmp = dir.join(format!("{name}.tmp"));
    let mut file = disk.create(&tmp)?;
    file.write(bytes)?;
    file.sync()?;
    drop(file);
    disk.rename(&tmp, &dir.join(name))?;
    disk.sync_dir(dir)
}

/// An I/O failure to `what` the file or directory `path`.
pub(crate) fn io_error(what: &str, path: &Path, e: io::Error) -> EngineError {
    EngineError::Io(format!("cannot {what} {}: {e}", path.display()))
}
