//! Spans recorded from the benchmark's side of each layer boundary,
//! plus the timing wrappers the traced runs put around the store.
//!
//! A span has a name, start and end (ns since process start), a parent
//! span and a request id. Spans stay in memory while a run measures
//! and are written out once it ends. Recording is off unless a traced
//! phase turns it on; untraced phases pay one relaxed load per call.

use realloc_engine::{Checkpoint, DurabilitySink, EpochRecord, JournalEvent};
use realloc_store::{DurableStore, FsIo, StoreIo};
use std::cell::Cell;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub req: u64,
    pub start: u64,
    pub end: u64,
}

static ON: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    /// Span id the current thread's nested calls hang under.
    static CURRENT: Cell<u64> = const { Cell::new(0) };
}

/// Nanoseconds since the first call in this process.
pub fn now() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

pub fn set_on(on: bool) {
    ON.store(on, Ordering::Relaxed);
}

pub fn on() -> bool {
    ON.load(Ordering::Relaxed)
}

/// Reserves a span id, for spans whose children end before they do.
pub fn next_id() -> u64 {
    NEXT_ID.fetch_add(1, Ordering::Relaxed)
}

/// Records a finished span under a reserved id (no-op while off).
pub fn record_as(id: u64, name: &'static str, parent: u64, req: u64, start: u64, end: u64) {
    if !on() {
        return;
    }
    SPANS.lock().expect("span buffer lock").push(Span {
        id,
        parent,
        name,
        req,
        start,
        end,
    });
}

/// Records a finished span and returns its id (0 while off).
pub fn record(name: &'static str, parent: u64, req: u64, start: u64, end: u64) -> u64 {
    if !on() {
        return 0;
    }
    let id = next_id();
    record_as(id, name, parent, req, start, end);
    id
}

/// Runs `f` as span `id`: nested spans on this thread take it as parent.
pub fn within<T>(id: u64, f: impl FnOnce() -> T) -> T {
    let outer = CURRENT.with(|c| c.replace(id));
    let out = f();
    CURRENT.with(|c| c.set(outer));
    out
}

fn current() -> u64 {
    CURRENT.with(|c| c.get())
}

/// Every span recorded so far, sorted by start time.
pub fn spans() -> Vec<Span> {
    let mut all = SPANS.lock().expect("span buffer lock").clone();
    all.sort_by_key(|s| (s.start, s.id));
    all
}

/// Writes the spans as tab-separated lines.
pub fn write_tsv(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id\tparent\tname\treq\tstart_ns\tend_ns")?;
    for s in spans {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}",
            s.id, s.parent, s.name, s.req, s.start, s.end
        )?;
    }
    out.flush()
}

/// Store-layer samples from the timing wrappers.
#[derive(Debug, Default)]
pub struct StoreStats {
    pub append_ns: Vec<u64>,
    pub sync_ns: Vec<u64>,
    pub fsyncs: u64,
    pub bytes_written: u64,
    pub errors: u64,
}

pub type SharedStoreStats = Arc<Mutex<StoreStats>>;

fn with_stats(stats: &SharedStoreStats, f: impl FnOnce(&mut StoreStats)) {
    f(&mut stats.lock().expect("store stats lock"));
}

/// [`StoreIo`] over [`FsIo`] that counts bytes, fsyncs and errors and
/// records a span per append and fsync.
#[derive(Debug)]
pub struct TimedIo {
    inner: FsIo,
    stats: SharedStoreStats,
}

impl TimedIo {
    pub fn new(stats: SharedStoreStats) -> TimedIo {
        TimedIo {
            inner: FsIo::new(),
            stats,
        }
    }

    fn timed<T>(
        &self,
        name: &'static str,
        f: impl FnOnce() -> std::io::Result<T>,
    ) -> std::io::Result<T> {
        let t0 = now();
        let out = f();
        record(name, current(), 0, t0, now());
        if out.is_err() {
            with_stats(&self.stats, |s| s.errors += 1);
        }
        out
    }
}

impl StoreIo for TimedIo {
    fn create_dir_all(&self, dir: &Path) -> std::io::Result<()> {
        self.inner.create_dir_all(dir)
    }
    fn list_dir(&self, dir: &Path) -> std::io::Result<Vec<String>> {
        self.inner.list_dir(dir)
    }
    fn read_file(&self, path: &Path) -> std::io::Result<Vec<u8>> {
        self.inner.read_file(path)
    }
    fn append(&self, path: &Path, data: &[u8]) -> std::io::Result<()> {
        with_stats(&self.stats, |s| s.bytes_written += data.len() as u64);
        self.timed("io.append", || self.inner.append(path, data))
    }
    fn sync_file(&self, path: &Path) -> std::io::Result<()> {
        with_stats(&self.stats, |s| s.fsyncs += 1);
        self.timed("io.fsync", || self.inner.sync_file(path))
    }
    fn sync_dir(&self, dir: &Path) -> std::io::Result<()> {
        with_stats(&self.stats, |s| s.fsyncs += 1);
        self.timed("io.fsync_dir", || self.inner.sync_dir(dir))
    }
    fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
        self.inner.rename(from, to)
    }
    fn remove_file(&self, path: &Path) -> std::io::Result<()> {
        self.inner.remove_file(path)
    }
    fn truncate(&self, path: &Path, len: u64) -> std::io::Result<()> {
        self.inner.truncate(path, len)
    }
}

/// [`DurabilitySink`] around [`DurableStore`] that times each batch
/// append and group-commit sync.
#[derive(Debug)]
pub struct TimedSink {
    inner: DurableStore,
    stats: SharedStoreStats,
}

impl TimedSink {
    pub fn new(inner: DurableStore, stats: SharedStoreStats) -> TimedSink {
        TimedSink { inner, stats }
    }

    fn timed(
        &mut self,
        name: &'static str,
        req: u64,
        f: impl FnOnce(&mut DurableStore) -> Result<(), String>,
    ) -> Result<(), String> {
        let id = next_id();
        let t0 = now();
        let out = within(id, || f(&mut self.inner));
        let t1 = now();
        record_as(id, name, 0, req, t0, t1);
        with_stats(&self.stats, |s| {
            match name {
                "store.append" => s.append_ns.push(t1 - t0),
                _ => s.sync_ns.push(t1 - t0),
            }
            if out.is_err() {
                s.errors += 1;
            }
        });
        out
    }
}

impl DurabilitySink for TimedSink {
    fn append_batch(&mut self, events: &[JournalEvent]) -> Result<(), String> {
        let batch = events.first().map_or(0, |e| e.batch);
        self.timed("store.append", batch, |s| s.append_batch(events))
    }
    fn append_epoch(&mut self, record: &EpochRecord) -> Result<(), String> {
        self.inner.append_epoch(record)
    }
    fn checkpoint(&mut self, checkpoint: &Checkpoint) -> Result<(), String> {
        self.inner.checkpoint(checkpoint)
    }
    fn sync(&mut self) -> Result<(), String> {
        self.timed("store.sync", 0, |s| s.sync())
    }
}
