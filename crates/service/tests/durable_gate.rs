//! The durable reply path commits outside the engine lock.
//!
//! A test sink's group-commit handle blocks every commit on a gate.
//! While one connection waits on it:
//!
//! * another connection's mutation still flushes (the engine lock is
//!   free), and a read of a tenant whose writes are already durable
//!   replies at once;
//! * a `window` read of a job whose insert is not yet durable does not
//!   reply until the gate opens;
//! * no reply is sent before its commit, and the in-lock `sync` is never
//!   used.

use realloc_core::JobId;
use realloc_engine::{
    BackendKind, Checkpoint, DurabilitySink, Engine, EngineConfig, EpochRecord, FlushMode,
    GroupCommit, JournalEvent, TenantId,
};
use realloc_service::{ServiceConfig, ServiceServer};
use realloc_workloads::driver::{QosClient, QosResponse};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

#[derive(Debug, Default)]
struct GateState {
    open: bool,
    /// One past the newest appended / committed batch.
    appended: u64,
    durable: u64,
    /// Commits currently blocked on the closed gate.
    waiting: usize,
    in_lock_syncs: usize,
}

/// A commit watermark whose fsync is a gate the test opens and closes.
#[derive(Debug, Default)]
struct Gate {
    state: Mutex<GateState>,
    opened: Condvar,
}

impl Gate {
    fn set_open(&self, open: bool) {
        self.state.lock().unwrap().open = open;
        self.opened.notify_all();
    }

    fn waiting(&self) -> usize {
        self.state.lock().unwrap().waiting
    }
}

impl GroupCommit for Gate {
    fn commit_through(&self, batch: u64) -> Result<(), String> {
        let mut s = self.state.lock().unwrap();
        while batch >= s.durable && !s.open {
            s.waiting += 1;
            s = self.opened.wait(s).unwrap();
            s.waiting -= 1;
        }
        // Only an open gate "fsyncs"; a covered batch changes nothing.
        if s.open {
            s.durable = s.durable.max(s.appended);
        }
        Ok(())
    }
}

#[derive(Debug)]
struct GatedSink(Arc<Gate>);

impl DurabilitySink for GatedSink {
    fn append_batch(&mut self, events: &[JournalEvent]) -> Result<(), String> {
        let mut s = self.0.state.lock().unwrap();
        s.appended = s.appended.max(events[0].batch + 1);
        Ok(())
    }

    fn append_epoch(&mut self, _record: &EpochRecord) -> Result<(), String> {
        Ok(())
    }

    fn checkpoint(&mut self, _checkpoint: &Checkpoint) -> Result<(), String> {
        Ok(())
    }

    fn sync(&mut self) -> Result<(), String> {
        let mut s = self.0.state.lock().unwrap();
        s.in_lock_syncs += 1;
        s.durable = s.appended;
        Ok(())
    }

    fn group_commit(&self) -> Option<Arc<dyn GroupCommit>> {
        Some(Arc::clone(&self.0) as Arc<dyn GroupCommit>)
    }
}

/// Polls `cond` for up to five seconds.
fn eventually(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn client(server: &ServiceServer) -> QosClient {
    let mut c = QosClient::connect(server.addr()).unwrap();
    c.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    c
}

/// Whether tenant `t`'s job 1 is in the engine — checked with
/// `try_lock`, so a handler holding the lock through its fsync fails
/// the test instead of hanging it.
fn flushed(server: &ServiceServer, t: u16) -> bool {
    let engine = server.engine();
    let Ok(e) = engine.try_lock() else {
        return false;
    };
    e.window_of_for(TenantId(t), JobId(1)).unwrap().is_some()
}

#[test]
fn durable_waits_happen_outside_the_engine_lock_and_reads_gate_per_tenant() {
    let gate = Arc::new(Gate::default());
    let mut engine = Engine::new(EngineConfig {
        shards: 2,
        machines_per_shard: 2,
        backend: BackendKind::TheoremOne { gamma: 8 },
        parallel: false,
        journal: true,
        retained_segments: 2,
    });
    engine
        .attach_durability(Box::new(GatedSink(Arc::clone(&gate))))
        .unwrap();
    let server = ServiceServer::bind(
        "127.0.0.1:0",
        engine,
        ServiceConfig {
            flush: FlushMode::Durable,
            read_timeout: Some(Duration::from_secs(10)),
            ..ServiceConfig::default()
        },
        &realloc_telemetry::disabled(),
    )
    .unwrap();

    // Tenant 1 writes while the gate is open: durable.
    gate.set_open(true);
    let mut a = client(&server);
    assert!(matches!(
        a.place(1, 1, 0, 8).unwrap(),
        QosResponse::Placed(_)
    ));

    // Close the gate; tenant 2's write flushes, then blocks in commit.
    gate.set_open(false);
    let mut b = client(&server);
    b.send_raw("place 2 1 0 8").unwrap();
    eventually("tenant 2's commit to block", || gate.waiting() == 1);
    assert!(
        flushed(&server, 2),
        "the engine lock is held through the commit"
    );

    // Another connection's mutation flushes while the first one waits.
    let mut c = client(&server);
    c.send_raw("place 3 1 8 16").unwrap();
    eventually("tenant 3's flush", || flushed(&server, 3));
    eventually("tenant 3's commit to block", || gate.waiting() == 2);

    // A read of the durable tenant replies at once.
    a.send_raw("window 1 1").unwrap();
    assert_eq!(a.recv().unwrap(), QosResponse::Window(0, 8));

    // A read of tenant 2's not-yet-durable job waits for the gate.
    let mut d = client(&server);
    d.set_read_timeout(Some(Duration::from_millis(200)))
        .unwrap();
    d.send_raw("window 2 1").unwrap();
    let early = d.recv();
    assert!(
        early.is_err(),
        "read replied before its write was durable: {early:?}"
    );
    b.set_read_timeout(Some(Duration::from_millis(50))).unwrap();
    assert!(b.recv().is_err(), "write replied before its commit");

    gate.set_open(true);
    for conn in [&mut b, &mut c, &mut d] {
        conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    }
    assert!(matches!(b.recv().unwrap(), QosResponse::Placed(_)));
    assert!(matches!(c.recv().unwrap(), QosResponse::Placed(_)));
    assert_eq!(d.recv().unwrap(), QosResponse::Window(0, 8));
    assert_eq!(gate.state.lock().unwrap().in_lock_syncs, 0);
}
