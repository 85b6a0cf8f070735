//! The group-commit watermark under concurrency.
//!
//! Several threads share one engine behind a mutex the way the serving
//! tier does: each submits and flushes under the lock, releases it, and
//! only then waits on `GroupCommit::commit_through` for its batch, while
//! one thread also checkpoints under the lock. Against a `FaultIo`
//! store that crashes at every mutating I/O operation in turn:
//!
//! * every batch whose commit returned `Ok` is in the recovered journal;
//! * the recovered journal is a prefix of the in-memory one, and the
//!   recovered engine's digest equals a from-genesis replay of that
//!   prefix.
//!
//! Plus the watermark's edges, with the interleavings forced: an append
//! that lands while an fsync is in flight waits for the next fsync, and
//! one failed fsync fails every waiter it covered and every later commit
//! and append, and is never retried.

use realloc_core::{JobId, Request, Window};
use realloc_engine::{BackendKind, Engine, EngineConfig, Journal, TenantId};
use realloc_store::{
    recover_journal_text, CrashMode, DurableStore, FaultIo, MemIo, RecoverFromDir, StoreIo,
};
use realloc_telemetry::Telemetry;
use std::io;
use std::path::Path;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Barrier, Mutex};

const THREADS: u16 = 3;
const FLUSHES: u64 = 10;

fn config() -> EngineConfig {
    EngineConfig {
        shards: 2,
        machines_per_shard: 2,
        backend: BackendKind::TheoremOne { gamma: 8 },
        parallel: false,
        journal: true,
        // Large enough that no segment is ever truncated: the live
        // journal's text then extends the recovered one verbatim.
        retained_segments: 64,
    }
}

/// Thread `t`'s `k`-th request: inserts, with every third request
/// deleting the job inserted just before it.
fn request(t: u16, k: u64) -> Request {
    if k % 3 == 2 {
        return Request::Delete { id: JobId(k - 1) };
    }
    let start = (k * 5 + u64::from(t) * 3) % 40;
    Request::Insert {
        id: JobId(k),
        window: Window::new(start, start + 4 + k % 4),
    }
}

fn create(io: &Arc<FaultIo>, dir: &Path) -> Option<Engine> {
    let mut engine = Engine::new(config());
    let journal = engine.journal().expect("journaled").config().clone();
    let store = DurableStore::create(Arc::clone(io) as Arc<dyn StoreIo>, dir, &journal).ok()?;
    engine.attach_durability(Box::new(store)).expect("attach");
    Some(engine)
}

/// One concurrent run; returns the acknowledged batches and the live
/// journal text, or `None` when the crash hit store creation.
fn concurrent_run(io: &Arc<FaultIo>, dir: &Path) -> Option<(Vec<u64>, String)> {
    let engine = Arc::new(Mutex::new(create(io, dir)?));
    let acked = Arc::new(Mutex::new(Vec::new()));
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let engine = Arc::clone(&engine);
            let acked = Arc::clone(&acked);
            std::thread::spawn(move || {
                for k in 0..FLUSHES {
                    let (batch, group) = {
                        let mut e = engine.lock().unwrap();
                        e.submit_for(TenantId(t + 1), request(t, k)).unwrap();
                        let batch = e.flush().batch;
                        if t == 0 && k % 4 == 3 {
                            assert!(e.checkpoint());
                        }
                        match e.group_commit() {
                            Ok(group) => (batch, group.expect("the store has a handle")),
                            Err(_) => return,
                        }
                    };
                    // Outside the engine lock, like the serving tier.
                    match group.commit_through(batch) {
                        Ok(()) => acked.lock().unwrap().push(batch),
                        Err(_) => return,
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("worker panicked");
    }
    let live = engine.lock().unwrap().journal().unwrap().to_text();
    let acked = acked.lock().unwrap().clone();
    Some((acked, live))
}

/// Events of batches `<= through` in journal text.
fn events_through(text: &str, through: u64) -> usize {
    Journal::from_text(text)
        .expect("journal parses")
        .iter_events()
        .filter(|e| e.batch <= through)
        .count()
}

#[test]
fn acked_batches_survive_a_crash_at_every_op_with_concurrent_committers() {
    let dir = Path::new("/store");
    for mode in [CrashMode::SyncedOnly, CrashMode::TornTail] {
        let mut recovered_runs = 0;
        for n in 1.. {
            let io = Arc::new(FaultIo::new());
            io.crash_at(n, mode);
            let run = concurrent_run(&io, dir);
            if !io.crashed() {
                // Past the last mutating op: every point was covered.
                let (acked, _) = run.expect("no crash, so the store was created");
                assert_eq!(acked.len(), usize::from(THREADS) * FLUSHES as usize);
                break;
            }
            io.revive();
            let Some((acked, live)) = run else {
                continue; // died creating the store: nothing was acked
            };
            let recovered = match recover_journal_text(&*io, dir) {
                Ok(text) => text,
                Err(e) => {
                    assert!(acked.is_empty(), "{mode:?} op {n}: {e} after acks");
                    continue;
                }
            };
            assert!(
                live.starts_with(&recovered),
                "{mode:?} op {n}: recovered journal is not a prefix of the live one"
            );
            if let Some(&through) = acked.iter().max() {
                assert_eq!(
                    events_through(&recovered, through),
                    events_through(&live, through),
                    "{mode:?} op {n}: acknowledged batch {through} lost"
                );
            }
            let engine = Engine::recover_from_store(&*io, dir).expect("recovers");
            engine.validate().expect("recovered engine is consistent");
            let replayed = Journal::from_text(&live[..recovered.len()])
                .expect("prefix parses")
                .replay()
                .expect("prefix replays");
            assert_eq!(
                engine.state_digest(),
                replayed.state_digest(),
                "{mode:?} op {n}: recovered state differs from a replay of the prefix"
            );
            recovered_runs += 1;
        }
        assert!(
            recovered_runs > 20,
            "{mode:?}: too few crash points recovered"
        );
    }
}

/// Three flushed, uncommitted batches of a fresh store over `io`.
fn three_pending(io: &Arc<FaultIo>, dir: &Path) -> (Engine, Vec<u64>) {
    let mut engine = create(io, dir).expect("create");
    let batches = (0..3u16)
        .map(|t| {
            engine.submit_for(TenantId(t + 1), request(t, 0)).unwrap();
            engine.flush().batch
        })
        .collect();
    (engine, batches)
}

#[test]
fn a_failed_fsync_fails_every_waiter_and_every_later_commit() {
    let io = Arc::new(FaultIo::new());
    let dir = Path::new("/store");
    let (mut engine, batches) = three_pending(&io, dir);
    let group = engine.group_commit().unwrap().unwrap();
    // Store creation fsynced the segment and the directory; the next
    // fsync is the group commit's.
    io.fail_fsync_at(3);
    let start = Arc::new(Barrier::new(batches.len()));
    let waiters: Vec<_> = batches
        .iter()
        .map(|&b| {
            let (group, start) = (Arc::clone(&group), Arc::clone(&start));
            std::thread::spawn(move || {
                start.wait();
                group.commit_through(b)
            })
        })
        .collect();
    for w in waiters {
        let out = w.join().unwrap();
        assert!(
            out.as_ref()
                .is_err_and(|e| e.contains("injected fsync failure")),
            "a waiter of the failed fsync got {out:?}"
        );
    }
    assert_eq!(io.injected_faults(), 1);
    let ops = io.ops();
    // Sticky: no commit, append or durable flush succeeds again, and
    // the failed fsync is never retried.
    assert!(group.commit_through(batches[0]).is_err());
    engine.submit_for(TenantId(9), request(9, 0)).unwrap();
    let later = engine.flush().batch;
    assert!(
        engine.durability_error().is_some(),
        "the append was refused"
    );
    assert!(group.commit_through(later).is_err());
    engine.submit_for(TenantId(9), request(9, 1)).unwrap();
    assert!(engine.flush_durable().is_err());
    assert!(engine.group_commit().is_err());
    assert_eq!(io.ops(), ops, "no I/O after the failed fsync");
}

#[test]
fn one_fsync_covers_every_batch_appended_before_it() {
    let io = Arc::new(FaultIo::new());
    let dir = Path::new("/store");
    let t = Telemetry::new();
    let mut engine = Engine::new(config());
    let journal = engine.journal().unwrap().config().clone();
    let mut store =
        DurableStore::create(Arc::clone(&io) as Arc<dyn StoreIo>, dir, &journal).expect("create");
    store.attach_telemetry(&t);
    engine.attach_durability(Box::new(store)).unwrap();
    let batches: Vec<u64> = (0..3u16)
        .map(|k| {
            engine
                .submit_for(TenantId(1), request(1, u64::from(k)))
                .unwrap();
            engine.flush().batch
        })
        .collect();
    let group = engine.group_commit().unwrap().unwrap();
    group.commit_through(batches[2]).unwrap();
    group.commit_through(batches[0]).unwrap();
    group.commit_through(batches[1]).unwrap();
    let per_fsync = t.histogram_snapshot("store_batches_per_fsync").unwrap();
    assert_eq!((per_fsync.count(), per_fsync.max()), (1, 3));
    assert_eq!(t.counter_value("store_commits_coalesced_total"), Some(2));
    // An empty flush appends nothing, so its commit needs no fsync.
    let empty = engine.flush().batch;
    group.commit_through(empty).unwrap();
    assert_eq!(
        t.histogram_snapshot("store_fsync_nanos").unwrap().count(),
        1
    );
    assert_eq!(t.counter_value("store_commits_coalesced_total"), Some(3));
}

/// A [`MemIo`] whose armed `sync_file` syncs and then parks until the
/// test releases it: an fsync that has started and not yet returned.
#[derive(Debug, Default)]
struct ParkingIo {
    inner: MemIo,
    park: Mutex<Option<(Sender<()>, Receiver<()>)>>,
}

impl StoreIo for ParkingIo {
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        self.inner.create_dir_all(dir)
    }
    fn list_dir(&self, dir: &Path) -> io::Result<Vec<String>> {
        self.inner.list_dir(dir)
    }
    fn read_file(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.inner.read_file(path)
    }
    fn append(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        self.inner.append(path, data)
    }
    fn sync_file(&self, path: &Path) -> io::Result<()> {
        self.inner.sync_file(path)?;
        if let Some((parked, release)) = self.park.lock().unwrap().take() {
            parked.send(()).unwrap();
            release.recv().unwrap();
        }
        Ok(())
    }
    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        self.inner.sync_dir(dir)
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.inner.rename(from, to)
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.inner.remove_file(path)
    }
    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        self.inner.truncate(path, len)
    }
}

#[test]
fn an_append_during_an_fsync_waits_for_the_next_one() {
    let io = Arc::new(ParkingIo::default());
    let dir = Path::new("/store");
    let mut engine = Engine::new(config());
    let journal = engine.journal().unwrap().config().clone();
    let store =
        DurableStore::create(Arc::clone(&io) as Arc<dyn StoreIo>, dir, &journal).expect("create");
    engine.attach_durability(Box::new(store)).unwrap();
    engine.submit_for(TenantId(1), request(1, 0)).unwrap();
    let first = engine.flush().batch;
    let group = engine.group_commit().unwrap().unwrap();
    let (parked_tx, parked) = channel();
    let (release, release_rx) = channel();
    *io.park.lock().unwrap() = Some((parked_tx, release_rx));
    let committer = {
        let group = Arc::clone(&group);
        std::thread::spawn(move || group.commit_through(first))
    };
    parked.recv().unwrap();
    // Appended after the in-flight fsync synced the file.
    engine.submit_for(TenantId(2), request(2, 0)).unwrap();
    let second = engine.flush().batch;
    release.send(()).unwrap();
    committer.join().unwrap().unwrap();
    group.commit_through(second).unwrap();
    io.inner.crash(CrashMode::SyncedOnly);
    let recovered = recover_journal_text(&io.inner, dir).expect("recovers");
    assert!(
        Journal::from_text(&recovered)
            .unwrap()
            .iter_events()
            .any(|e| e.batch == second),
        "batch {second} was acknowledged by an fsync that started before it"
    );
}
