//! Test support for the crash harnesses: a simulated disk that keeps each
//! file's and each directory's durable state apart from its volatile state,
//! fails or panics at a chosen call, records the thread behind every call,
//! and records its state after every call;
//! and the enumeration of every state a crash can leave on it under the
//! persistence rules stated in the module docs of the engine's `durability.rs`
//! ("Fault model"):
//!
//! * a file keeps its synced content plus a prefix of its later writes and
//!   length changes, in order, the last write cut at any [`SECTOR`]-aligned
//!   file offset;
//! * a directory keeps its synced entries plus a prefix of its later entry
//!   changes, in order (a rename is one change);
//! * a created directory survives.
//!
//! The harness ([`check_crash_states`]) recovers each crash state and accepts
//! exactly the admissible outcomes: one of the states the session passed
//! through between its last acknowledged step and the step in flight.

#![allow(dead_code)]

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use factorlog::engine::disk::{Disk, DiskFile};

/// Granularity at which an unsynced write can be cut by a crash. Devices
/// write 512-byte sectors whole; cutting at every 64 bytes is stricter and
/// still tears the log's records and images in several places.
pub const SECTOR: u64 = 64;

/// What an armed fault does when its call comes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// The call fails with an I/O error and has no effect.
    Error,
    /// The call panics and has no effect.
    Panic,
}

#[derive(Clone, Debug)]
enum FileOp {
    Write { at: u64, bytes: Vec<u8> },
    SetLen(u64),
}

fn apply(content: &mut Vec<u8>, op: &FileOp) {
    match op {
        FileOp::Write { at, bytes } => {
            let end = *at as usize + bytes.len();
            if content.len() < end {
                content.resize(end, 0);
            }
            content[*at as usize..end].copy_from_slice(bytes);
        }
        FileOp::SetLen(len) => content.resize(*len as usize, 0),
    }
}

#[derive(Clone, Debug, Default)]
struct Inode {
    durable: Vec<u8>,
    pending: Vec<FileOp>,
    volatile: Vec<u8>,
}

impl Inode {
    fn push(&mut self, op: FileOp) {
        apply(&mut self.volatile, &op);
        self.pending.push(op);
    }

    /// Every content a crash can leave: the synced content, then each prefix
    /// of the pending operations, the last write cut at sector boundaries.
    fn crash_contents(&self) -> Vec<(Vec<u8>, String)> {
        let mut out = vec![(self.durable.clone(), "synced".to_string())];
        let mut content = self.durable.clone();
        for (i, op) in self.pending.iter().enumerate() {
            if let FileOp::Write { at, bytes } = op {
                let end = at + bytes.len() as u64;
                let mut cut = (at / SECTOR + 1) * SECTOR;
                while cut < end {
                    let mut torn = content.clone();
                    let kept = (cut - at) as usize;
                    apply(
                        &mut torn,
                        &FileOp::Write {
                            at: *at,
                            bytes: bytes[..kept].to_vec(),
                        },
                    );
                    out.push((
                        torn,
                        format!(
                            "{i} of {} pending op(s), then {kept} byte(s) of a {}-byte write",
                            self.pending.len(),
                            bytes.len()
                        ),
                    ));
                    cut += SECTOR;
                }
            }
            apply(&mut content, op);
            out.push((
                content.clone(),
                format!("{} of {} pending op(s)", i + 1, self.pending.len()),
            ));
        }
        out
    }
}

/// One atomic change of a directory's entries (a rename changes two names).
type DirChange = Vec<(String, Option<usize>)>;

#[derive(Clone, Debug, Default)]
struct Dir {
    durable: BTreeMap<String, usize>,
    pending: Vec<DirChange>,
    volatile: BTreeMap<String, usize>,
}

fn apply_change(entries: &mut BTreeMap<String, usize>, change: &DirChange) {
    for (name, inode) in change {
        match inode {
            Some(inode) => entries.insert(name.clone(), *inode),
            None => entries.remove(name),
        };
    }
}

impl Dir {
    fn change(&mut self, change: DirChange) {
        apply_change(&mut self.volatile, &change);
        self.pending.push(change);
    }
}

/// The whole simulated disk at one moment.
#[derive(Clone, Debug, Default)]
pub struct State {
    inodes: Vec<Inode>,
    dirs: BTreeMap<PathBuf, Dir>,
}

/// The files of a crash state: path to content.
pub type Files = BTreeMap<PathBuf, Vec<u8>>;

impl State {
    /// Every state a crash at this moment can leave, as files, each with a
    /// description of what it kept; the fewest kept pending operations first.
    pub fn crash_states(&self) -> Vec<(Files, String)> {
        let mut states = vec![(Files::new(), String::new(), 0usize)];
        for (path, dir) in &self.dirs {
            let mut entries = dir.durable.clone();
            let mut dir_options = vec![(entries.clone(), 0)];
            for (i, change) in dir.pending.iter().enumerate() {
                apply_change(&mut entries, change);
                dir_options.push((entries.clone(), i + 1));
            }
            let mut next = Vec::new();
            for (files, why, weight) in &states {
                for (entries, kept) in &dir_options {
                    let mut why = why.clone();
                    if !dir.pending.is_empty() {
                        let total = dir.pending.len();
                        why.push_str(&format!(
                            "{}: {kept} of {total} entry change(s); ",
                            path.display()
                        ));
                    }
                    let mut partial = vec![(files.clone(), why, weight + kept)];
                    for (name, &inode) in entries {
                        let inode = &self.inodes[inode];
                        let contents = inode.crash_contents();
                        let mut grown = Vec::new();
                        for (files, why, weight) in &partial {
                            for (k, (content, what)) in contents.iter().enumerate() {
                                let mut files = files.clone();
                                files.insert(path.join(name), content.clone());
                                let mut why = why.clone();
                                if !inode.pending.is_empty() {
                                    why.push_str(&format!("{name}: {what}; "));
                                }
                                grown.push((files, why, weight + k));
                            }
                        }
                        partial = grown;
                    }
                    next.extend(partial);
                }
            }
            states = next;
        }
        states.sort_by_key(|(_, _, weight)| *weight);
        states
            .into_iter()
            .map(|(files, why, _)| (files, why))
            .collect()
    }
}

struct Inner {
    id: u64,
    state: State,
    calls: usize,
    faults: Vec<(usize, Fault)>,
    /// The name of the thread behind every call, in call order.
    threads: Vec<String>,
    /// When recording: the label of every call and the state after it.
    history: Option<Vec<(String, State)>>,
}

/// The simulated disk. Clones share it.
#[derive(Clone)]
pub struct SimDisk(Arc<Mutex<Inner>>);

fn split(path: &Path) -> (PathBuf, String) {
    let dir = path
        .parent()
        .expect("a file path has a directory")
        .to_path_buf();
    let name = path
        .file_name()
        .expect("a file name")
        .to_string_lossy()
        .into_owned();
    (dir, name)
}

fn not_found(path: &Path) -> io::Error {
    io::Error::new(
        io::ErrorKind::NotFound,
        format!("{} does not exist", path.display()),
    )
}

impl SimDisk {
    /// An empty disk.
    pub fn new() -> SimDisk {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        SimDisk(Arc::new(Mutex::new(Inner {
            id: NEXT.fetch_add(1, Ordering::Relaxed),
            state: State::default(),
            calls: 0,
            faults: Vec::new(),
            threads: Vec::new(),
            history: None,
        })))
    }

    /// An empty disk that records its state after every call.
    pub fn recording() -> SimDisk {
        let disk = SimDisk::new();
        disk.0.lock().unwrap().history = Some(Vec::new());
        disk
    }

    /// A disk holding `files`, all of them durable (a crash state).
    pub fn with_files(files: &Files) -> SimDisk {
        let disk = SimDisk::new();
        {
            let mut inner = disk.0.lock().unwrap();
            for (path, content) in files {
                let (dir, name) = split(path);
                let inode = inner.state.inodes.len();
                inner.state.inodes.push(Inode {
                    durable: content.clone(),
                    pending: Vec::new(),
                    volatile: content.clone(),
                });
                let dir = inner.state.dirs.entry(dir).or_default();
                dir.durable.insert(name.clone(), inode);
                dir.volatile.insert(name, inode);
            }
        }
        disk
    }

    /// This disk as the engine takes it.
    pub fn arc(&self) -> Arc<dyn Disk> {
        Arc::new(self.clone())
    }

    /// Make call number `call` (counted from 0 over the disk's life) fail or panic.
    pub fn fail_at(&self, call: usize, fault: Fault) {
        self.0.lock().unwrap().faults.push((call, fault));
    }

    /// Forget every armed fault that has not fired.
    pub fn disarm(&self) {
        self.0.lock().unwrap().faults.clear();
    }

    /// Calls made so far.
    pub fn calls(&self) -> usize {
        self.0.lock().unwrap().calls
    }

    /// The name of the thread behind each call so far, in call order
    /// (`<unnamed>` for a thread without one).
    pub fn threads(&self) -> Vec<String> {
        self.0.lock().unwrap().threads.clone()
    }

    /// The recorded history: each call's label and the state after it.
    pub fn history(&self) -> Vec<(String, State)> {
        self.0.lock().unwrap().history.clone().unwrap_or_default()
    }

    /// The files as they are now (`durable` false: what a process that stops
    /// now leaves) or as a crash that keeps only what was synced leaves them.
    fn files(&self, durable: bool) -> Files {
        let inner = self.0.lock().unwrap();
        let mut files = Files::new();
        for (path, dir) in &inner.state.dirs {
            for (name, &inode) in if durable { &dir.durable } else { &dir.volatile } {
                let inode = &inner.state.inodes[inode];
                let content = if durable {
                    &inode.durable
                } else {
                    &inode.volatile
                };
                files.insert(path.join(name), content.clone());
            }
        }
        files
    }

    /// Every file's current content under its current name.
    pub fn volatile_files(&self) -> Files {
        self.files(false)
    }

    /// The files a crash right now leaves when it keeps only what was synced.
    pub fn durable_files(&self) -> Files {
        self.files(true)
    }

    /// Run one call: count it, fire an armed fault, apply `op`, record.
    fn call<T>(
        &self,
        label: impl FnOnce() -> String,
        op: impl FnOnce(&mut State) -> io::Result<T>,
    ) -> io::Result<T> {
        let mut inner = self.0.lock().unwrap();
        let call = inner.calls;
        inner.calls += 1;
        let thread = std::thread::current();
        (inner.threads).push(thread.name().unwrap_or("<unnamed>").to_string());
        let fault = inner
            .faults
            .iter()
            .find(|(at, _)| *at == call)
            .map(|(_, f)| *f);
        let label = label();
        let result = match fault {
            Some(Fault::Panic) => {
                drop(inner);
                panic!("injected disk panic at call {call} ({label})");
            }
            Some(Fault::Error) => Err(io::Error::other(format!(
                "injected disk fault at call {call} ({label})"
            ))),
            None => op(&mut inner.state),
        };
        let state = inner.history.is_some().then(|| inner.state.clone());
        if let (Some(history), Some(state)) = (inner.history.as_mut(), state) {
            let outcome = if result.is_ok() { "" } else { " [failed]" };
            history.push((format!("{label}{outcome}"), state));
        }
        result
    }
}

impl Default for SimDisk {
    fn default() -> Self {
        SimDisk::new()
    }
}

impl State {
    fn lookup(&self, path: &Path) -> Option<usize> {
        let (dir, name) = split(path);
        self.dirs.get(&dir)?.volatile.get(&name).copied()
    }

    fn dir_mut(&mut self, dir: &Path) -> io::Result<&mut Dir> {
        self.dirs.get_mut(dir).ok_or_else(|| not_found(dir))
    }
}

struct SimFile {
    disk: SimDisk,
    inode: usize,
    name: String,
    pos: u64,
}

impl DiskFile for SimFile {
    fn write(&mut self, bytes: &[u8]) -> io::Result<()> {
        let (inode, at) = (self.inode, self.pos);
        let label = || format!("write {} +{} byte(s) at {at}", self.name, bytes.len());
        self.disk.call(label, |state| {
            state.inodes[inode].push(FileOp::Write {
                at,
                bytes: bytes.to_vec(),
            });
            Ok(())
        })?;
        self.pos += bytes.len() as u64;
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        let inode = self.inode;
        self.disk.call(
            || format!("sync {}", self.name),
            |state| {
                let file = &mut state.inodes[inode];
                file.durable = file.volatile.clone();
                file.pending.clear();
                Ok(())
            },
        )
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        let inode = self.inode;
        self.disk.call(
            || format!("set_len {} {len}", self.name),
            |state| {
                state.inodes[inode].push(FileOp::SetLen(len));
                Ok(())
            },
        )?;
        self.pos = len;
        Ok(())
    }
}

impl Disk for SimDisk {
    fn read(&self, path: &Path) -> io::Result<Option<Vec<u8>>> {
        self.call(
            || format!("read {}", path.display()),
            |state| {
                Ok(state
                    .lookup(path)
                    .map(|inode| state.inodes[inode].volatile.clone()))
            },
        )
    }

    fn create(&self, path: &Path) -> io::Result<Box<dyn DiskFile>> {
        let inode = self.call(
            || format!("create {}", path.display()),
            |state| {
                if let Some(inode) = state.lookup(path) {
                    state.inodes[inode].push(FileOp::SetLen(0));
                    return Ok(inode);
                }
                let (dir, name) = split(path);
                let inode = state.inodes.len();
                state.dir_mut(&dir)?.change(vec![(name, Some(inode))]);
                state.inodes.push(Inode::default());
                Ok(inode)
            },
        )?;
        Ok(Box::new(SimFile {
            disk: self.clone(),
            inode,
            name: split(path).1,
            pos: 0,
        }))
    }

    fn open_at(&self, path: &Path, len: u64) -> io::Result<Box<dyn DiskFile>> {
        let inode = self.call(
            || format!("open {} at {len}", path.display()),
            |state| {
                let inode = state.lookup(path).ok_or_else(|| not_found(path))?;
                state.inodes[inode].push(FileOp::SetLen(len));
                Ok(inode)
            },
        )?;
        Ok(Box::new(SimFile {
            disk: self.clone(),
            inode,
            name: split(path).1,
            pos: len,
        }))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.call(
            || format!("rename {} -> {}", from.display(), to.display()),
            |state| {
                let inode = state.lookup(from).ok_or_else(|| not_found(from))?;
                let ((dir, from), (to_dir, to)) = (split(from), split(to));
                assert_eq!(dir, to_dir, "renames stay inside one directory");
                state
                    .dir_mut(&dir)?
                    .change(vec![(to, Some(inode)), (from, None)]);
                Ok(())
            },
        )
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        self.call(
            || format!("remove {}", path.display()),
            |state| {
                state.lookup(path).ok_or_else(|| not_found(path))?;
                let (dir, name) = split(path);
                state.dir_mut(&dir)?.change(vec![(name, None)]);
                Ok(())
            },
        )
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        self.call(
            || format!("sync_dir {}", dir.display()),
            |state| {
                let dir = state.dir_mut(dir)?;
                dir.durable = dir.volatile.clone();
                dir.pending.clear();
                Ok(())
            },
        )
    }

    fn create_dir(&self, dir: &Path) -> io::Result<PathBuf> {
        let id = self.0.lock().unwrap().id;
        self.call(
            || format!("create_dir {}", dir.display()),
            |state| {
                state.dirs.entry(dir.to_path_buf()).or_default();
                Ok(PathBuf::from(format!("sim-disk-{id}:{}", dir.display())))
            },
        )
    }
}

/// From disk call `call` on, a crash must recover one of the outcomes
/// `lo..=hi` (indices into the harness's list of the states the session
/// passed through): `lo` is the last acknowledged one, `hi` the one in flight.
#[derive(Clone, Copy, Debug)]
struct Window {
    call: usize,
    lo: usize,
    hi: usize,
}

/// Admissible-outcome bookkeeping of a scripted session on a recording disk.
#[derive(Clone, Debug, Default)]
pub struct Script {
    windows: Vec<Window>,
    acked: usize,
}

impl Script {
    /// Step `step` (its outcome is index `step`; outcome 0 is the state
    /// before the first step) starts now.
    pub fn start(&mut self, disk: &SimDisk, step: usize) {
        self.windows.push(Window {
            call: disk.calls(),
            lo: self.acked,
            hi: step,
        });
    }

    /// Step `step` was acknowledged: every later crash must keep it.
    pub fn ack(&mut self, disk: &SimDisk, step: usize) {
        self.acked = step;
        self.windows.push(Window {
            call: disk.calls(),
            lo: step,
            hi: step,
        });
    }

    /// The window covering call `call`.
    fn window(&self, call: usize) -> Window {
        *self
            .windows
            .iter()
            .rev()
            .find(|window| window.call <= call)
            .unwrap_or(&Window {
                call: 0,
                lo: 0,
                hi: 0,
            })
    }
}

/// Recovered outcomes of crash states, by content, shared across runs.
#[derive(Default)]
pub struct Memo(HashMap<u64, Result<Vec<usize>, String>>);

/// How many crash states a check recovered, and how many it looked at.
#[derive(Clone, Copy, Debug, Default)]
pub struct Checked {
    /// Distinct crash states recovered (the rest came from the memo).
    pub recovered: usize,
    /// Crash states checked.
    pub states: usize,
}

/// Check every crash state of `disk`'s recorded history after the `calls`:
/// `recover` opens a crash state and returns the outcome indices it matches
/// (empty when it matches none) or an error; the check passes when one of
/// them lies in the window of the crash point. The first failure is reported
/// as a minimal crash trace: the calls up to the crash point (the earliest
/// failing one) and what the crash kept (the least of that point's failing
/// states).
pub fn check_crash_states(
    disk: &SimDisk,
    script: &Script,
    calls: std::ops::Range<usize>,
    memo: &mut Memo,
    checked: &mut Checked,
    mut recover: impl FnMut(&SimDisk) -> Result<Vec<usize>, String>,
) -> Result<(), String> {
    let history = disk.history();
    for (call, (_, state)) in history.iter().enumerate().take(calls.end).skip(calls.start) {
        let window = script.window(call);
        for (files, kept) in state.crash_states() {
            checked.states += 1;
            let mut hasher = DefaultHasher::new();
            files.hash(&mut hasher);
            let outcome = memo.0.entry(hasher.finish()).or_insert_with(|| {
                checked.recovered += 1;
                recover(&SimDisk::with_files(&files))
            });
            let admissible = match outcome {
                Ok(matches) => matches.iter().any(|&k| window.lo <= k && k <= window.hi),
                Err(_) => false,
            };
            if !admissible {
                let mut trace = String::new();
                for (i, (label, _)) in history[..=call].iter().enumerate() {
                    trace.push_str(&format!("  {i:3}: {label}\n"));
                }
                return Err(format!(
                    "a crash after call {call} recovers {outcome:?}, outside the admissible \
                     outcomes {}..={}\n{trace}  crash keeps: {kept}",
                    window.lo, window.hi
                ));
            }
        }
    }
    Ok(())
}
