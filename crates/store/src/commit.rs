//! The group-commit watermark a [`crate::DurableStore`] shares with
//! waiters that do not hold the engine.
//!
//! The engine thread appends one record per flushed batch (and per epoch
//! change) and bumps the *appended* watermark; a waiter calls
//! [`GroupCommit::commit_through`] for its batch. If an earlier fsync
//! already covered the batch the call returns at once. Otherwise it
//! takes the **sync mutex**, reads the appended watermark, fsyncs the
//! open segment, and advances the *durable* watermark to what it read —
//! so one fsync acknowledges every batch appended before it started,
//! however many waiters queued behind it.
//!
//! Lock order: engine → sync mutex → watermark state. The store's own
//! methods run under the engine lock and take the sync mutex only to
//! seal a segment (checkpoint, [`realloc_engine::DurabilitySink::sync`]);
//! a waiter holds the sync mutex across its fsync but never takes the
//! engine lock, and appends never wait for an fsync.
//!
//! A failed fsync is sticky and never retried: after it, the kernel may
//! have dropped the very dirty pages it reported on, so a second fsync
//! could return `Ok` for bytes that are gone. Every commit it covered,
//! every later commit of an uncovered batch, and every later append gets
//! the error.

use crate::io::StoreIo;
use crate::tele::StoreTele;
use realloc_engine::GroupCommit;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};

/// What has been written and what has been made stable.
#[derive(Debug, Default)]
struct Watermarks {
    /// One past the newest batch appended (`0`: none since open).
    appended: u64,
    /// One past the newest batch an fsync covered.
    durable: u64,
    /// Records (batch or epoch chunks) appended since open.
    records: u64,
    /// Records covered by an fsync.
    synced_records: u64,
    /// The first failed fsync or append; sticky.
    error: Option<String>,
    tele: Option<Arc<StoreTele>>,
}

/// The shared commit state of one store; see the module docs.
#[derive(Debug)]
pub(crate) struct CommitLog {
    io: Arc<dyn StoreIo>,
    /// The sync mutex. Guards the open segment's path: held across
    /// every fsync of it and across a checkpoint's seal and rotation, so
    /// a committer never fsyncs a segment that is no longer open.
    open: Mutex<PathBuf>,
    state: Mutex<Watermarks>,
}

impl CommitLog {
    /// A clean watermark over the open segment at `path` (everything on
    /// disk so far counts as durable).
    pub fn new(io: Arc<dyn StoreIo>, path: PathBuf) -> CommitLog {
        CommitLog {
            io,
            open: Mutex::new(path),
            state: Mutex::new(Watermarks::default()),
        }
    }

    fn state(&self) -> MutexGuard<'_, Watermarks> {
        self.state.lock().expect("commit state poisoned")
    }

    /// Takes the sync mutex (the open segment's path).
    pub fn lock_open(&self) -> MutexGuard<'_, PathBuf> {
        self.open.lock().expect("sync mutex poisoned")
    }

    pub fn set_tele(&self, tele: Option<Arc<StoreTele>>) {
        self.state().tele = tele;
    }

    /// The sticky error, if any: appends refuse to extend a stream
    /// that already has a hole.
    pub fn check(&self) -> Result<(), String> {
        match &self.state().error {
            Some(e) => Err(e.clone()),
            None => Ok(()),
        }
    }

    /// Makes `message` the sticky error (unless one is already set) and
    /// returns the error every caller will see.
    pub fn fail(&self, message: String) -> String {
        self.state().error.get_or_insert(message).clone()
    }

    /// Records one appended chunk; `batch` is its batch number (`None`
    /// for an epoch record). Call only after the bytes were written.
    pub fn appended(&self, batch: Option<u64>) {
        let mut s = self.state();
        s.records += 1;
        if let Some(b) = batch {
            s.appended = s.appended.max(b + 1);
        }
    }

    /// Whether an fsync already covered `batch`; counts the commit as
    /// coalesced when it did.
    fn covered(&self, batch: u64) -> bool {
        let s = self.state();
        let covered = batch < s.durable;
        if let (true, Some(tele)) = (covered, &s.tele) {
            tele.commits_coalesced.inc();
        }
        covered
    }

    /// Fsyncs the open segment at `path` if anything is unsynced and
    /// advances the durable watermark to what was appended before the
    /// fsync started. The caller holds the sync mutex (`path` is its
    /// guard's value). Returns whether an fsync ran.
    pub fn sync_open(&self, path: &Path) -> Result<bool, String> {
        let (appended, records, before, tele) = {
            let s = self.state();
            if let Some(e) = &s.error {
                return Err(e.clone());
            }
            if s.records == s.synced_records {
                return Ok(false);
            }
            (s.appended, s.records, s.synced_records, s.tele.clone())
        };
        let t0 = tele.as_ref().map(|t| t.t.now_nanos());
        let synced = self.io.sync_file(path);
        let mut s = self.state();
        if let Err(e) = synced {
            let message = format!("fsync '{}': {e}", path.display());
            return Err(s.error.get_or_insert(message).clone());
        }
        s.durable = s.durable.max(appended);
        s.synced_records = records;
        if let (Some(tele), Some(t0)) = (&tele, t0) {
            tele.fsync_nanos
                .record(tele.t.now_nanos().saturating_sub(t0));
            tele.batches_per_fsync.record(records - before);
        }
        Ok(true)
    }

    /// Makes everything appended so far durable (the in-lock
    /// [`realloc_engine::DurabilitySink::sync`]).
    pub fn sync_all(&self) -> Result<(), String> {
        let open = self.lock_open();
        self.sync_open(&open).map(drop)
    }
}

impl GroupCommit for CommitLog {
    fn commit_through(&self, batch: u64) -> Result<(), String> {
        // Checked before the sync mutex: a batch an earlier fsync
        // covered never queues behind a running one.
        if self.covered(batch) {
            return Ok(());
        }
        let open = self.lock_open();
        // The fsync we queued behind may have covered us.
        if self.covered(batch) {
            return Ok(());
        }
        if !self.sync_open(&open)? {
            // Nothing unsynced: `batch` appended no record (an empty
            // flush) and everything before it is already stable.
            if let Some(tele) = &self.state().tele {
                tele.commits_coalesced.inc();
            }
        }
        Ok(())
    }
}
