//! Laps: one lap sets the serving stack up from scratch, drives the
//! plan's fixed command stream through it, checks the outputs and
//! tears it down. A phase repeats laps until its time is up, so a run's
//! memory does not grow with throughput and set-up is timed many times.

use crate::client::{drive, Conn, Tally};
use crate::trace::{self, SharedStoreStats, TimedIo, TimedSink};
use crate::workload::{engine_config, Kind, Plan};
use realloc_cluster::tcp::{PrimaryLink, ReplicaServer};
use realloc_cluster::transport::FrameSink as _;
use realloc_cluster::{Frame, JournalRelay, Payload, Replica};
use realloc_engine::{Engine, JournalCursor, JournalEvent, JournalRecord, Metrics};
use realloc_service::{ServiceConfig, ServiceServer};
use realloc_store::{DurableStore, FsIo, RecoverFromDir as _, StoreIo};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Where a run keeps its durable directories.
pub struct Dirs {
    pub template: PathBuf,
    pub lap: PathBuf,
}

/// Replication-layer samples (traced phases only).
#[derive(Clone, Debug, Default)]
pub struct ClusterStats {
    pub poll_ns: Vec<u64>,
    pub send_ns: Vec<u64>,
    pub drain_ns: Vec<u64>,
    pub frames: u64,
    pub events: u64,
    pub frame_bytes: u64,
    pub lag: Vec<u64>,
    pub errors: u64,
}

impl ClusterStats {
    fn merge(&mut self, other: ClusterStats) {
        self.poll_ns.extend(other.poll_ns);
        self.send_ns.extend(other.send_ns);
        self.drain_ns.extend(other.drain_ns);
        self.frames += other.frames;
        self.events += other.events;
        self.frame_bytes += other.frame_bytes;
        self.lag.extend(other.lag);
        self.errors += other.errors;
    }
}

/// What the per-layer replays need from one traced lap.
pub struct Capture {
    /// Journal events the lap recorded, in service order.
    pub events: Vec<JournalEvent>,
    /// The served engine at the start of the lap (recovered workloads).
    pub start_snapshot: Option<String>,
    pub boot: Option<Frame>,
    pub frames: Vec<Frame>,
    pub final_digest: u64,
    /// Engine-side counters over the lap: (serviced, reallocations).
    pub served: (u64, u64),
}

/// One lap's user-visible figures: throughput (1/s) and write/read
/// latency p50/p99 (ns).
#[derive(Clone, Copy, Debug, Default)]
pub struct LapFigures {
    pub rate: f64,
    pub write: (f64, f64),
    pub read: (f64, f64),
}

/// Everything a phase measured.
#[derive(Default)]
pub struct Phase {
    /// Per-lap figures. The end-to-end metrics take the decile of laps
    /// least disturbed by other tenants of the machine (see
    /// `main::end_to_end`).
    pub figures: Vec<LapFigures>,
    pub laps: u64,
    pub requests: u64,
    pub measured_ns: u64,
    pub setup_ns: Vec<u64>,
    pub recover_ns: Vec<u64>,
    pub tally: Tally,
    pub checks: Vec<String>,
    /// Requests the laps serviced.
    pub serviced: u64,
    /// `Engine::metrics()` at the end of each lap, summed: requests,
    /// reallocations, migrations. On `durable_mixed` these include the
    /// recovered history, whose many requests keep the per-request
    /// costs from hanging on the few thousand a lap adds.
    pub lifetime: [u64; 3],
    pub realloc_max: u64,
    pub batches: u64,
    pub engine_failed: u64,
    pub cluster: ClusterStats,
    pub capture: Option<Capture>,
    pub peak_rss_kb: u64,
}

impl Phase {
    /// The `q`-quantile over laps of `f` (linear between laps).
    pub fn over_laps(&self, q: f64, f: impl Fn(&LapFigures) -> f64) -> f64 {
        let mut v: Vec<f64> = self.figures.iter().map(f).collect();
        if v.is_empty() {
            return 0.0;
        }
        v.sort_by(f64::total_cmp);
        let at = q * (v.len() - 1) as f64;
        let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
        v[lo] + (v[hi] - v[lo]) * (at - lo as f64)
    }
}

/// Waits until `arc` has no other owner: the server's handler threads
/// have seen their peers hang up and exited.
fn wait_sole_owner<T>(arc: &Arc<T>, what: &str) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs(10);
    while Arc::strong_count(arc) > 1 {
        if Instant::now() > deadline {
            return Err(format!("{what} handler threads did not exit"));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    Ok(())
}

/// Writes the durable workload's history into `dir` through a real
/// store, with a checkpoint every 1024 requests (untimed).
pub fn build_template(plan: &Plan, dir: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(dir);
    let mut engine = Engine::new(engine_config());
    let io: Arc<dyn StoreIo> = Arc::new(FsIo::new());
    let config = engine.journal().expect("journaled").config().clone();
    let store = DurableStore::create(io, dir, &config).map_err(|e| e.to_string())?;
    engine.attach_durability(Box::new(store))?;
    for (i, chunk) in plan.prefix.chunks(64).enumerate() {
        for &(tenant, request) in chunk {
            engine
                .submit_for(tenant, request)
                .map_err(|e| e.to_string())?;
        }
        let report = engine.flush_durable()?;
        if report.failed() > 0 {
            return Err(format!(
                "history batch {i} had {} failures",
                report.failed()
            ));
        }
        if (i + 1) % 16 == 0 {
            engine.checkpoint();
        }
    }
    Ok(())
}

fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to).map_err(|e| e.to_string())?;
    for entry in std::fs::read_dir(from).map_err(|e| e.to_string())? {
        let entry = entry.map_err(|e| e.to_string())?;
        std::fs::copy(entry.path(), to.join(entry.file_name())).map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// The serving stack of one lap.
struct Stack {
    server: ServiceServer,
    engine: Arc<Mutex<Engine>>,
    relay: Option<Relay>,
    conns: Vec<Conn>,
}

struct Relay {
    relay: JournalRelay,
    link: PrimaryLink,
    server: ReplicaServer,
    replica: Arc<Mutex<Replica>>,
    boot: Frame,
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock()
        .expect("no thread panics while holding a benchmark lock")
}

/// Builds or recovers the engine, binds the service and, on
/// `relay_stream`, bootstraps the replica. Returns the stack and the
/// time spent recovering from the store.
fn set_up(
    plan: &Plan,
    dirs: &Dirs,
    store_stats: Option<&SharedStoreStats>,
) -> Result<(Stack, Option<u64>), String> {
    let mut recover_ns = None;
    let engine = match plan.kind {
        Kind::DurableMixed => {
            let t0 = Instant::now();
            let io: Arc<dyn StoreIo> = match store_stats {
                Some(stats) => Arc::new(TimedIo::new(Arc::clone(stats))),
                None => Arc::new(FsIo::new()),
            };
            let mut engine =
                Engine::recover_from_store(&*io, &dirs.lap).map_err(|e| e.to_string())?;
            let (store, _) = DurableStore::open(io, &dirs.lap).map_err(|e| e.to_string())?;
            match store_stats {
                Some(stats) => {
                    engine.attach_durability(Box::new(TimedSink::new(store, Arc::clone(stats))))?
                }
                None => engine.attach_durability(Box::new(store))?,
            }
            recover_ns = Some(t0.elapsed().as_nanos() as u64);
            engine
        }
        _ => Engine::new(engine_config()),
    };
    let server = ServiceServer::bind(
        "127.0.0.1:0",
        engine,
        ServiceConfig {
            flush: plan.kind.flush(),
            ..ServiceConfig::default()
        },
        &realloc_telemetry::disabled(),
    )
    .map_err(|e| format!("bind service: {e}"))?;
    let engine = server.engine();
    let relay = match plan.kind {
        Kind::RelayStream => {
            let server = ReplicaServer::bind("127.0.0.1:0", Replica::new())
                .map_err(|e| format!("bind replica: {e}"))?;
            let replica = server.replica();
            let mut relay = JournalRelay::new(Arc::clone(&engine), 1).map_err(|e| e.to_string())?;
            let mut link =
                PrimaryLink::connect(server.addr()).map_err(|e| format!("dial replica: {e}"))?;
            let (owed, boot) = relay.bootstrap().map_err(|e| e.to_string())?;
            for frame in owed.iter().chain(std::iter::once(&boot)) {
                link.send(frame).map_err(|e| e.to_string())?;
            }
            link.drain().map_err(|e| e.to_string())?;
            Some(Relay {
                relay,
                link,
                server,
                replica,
                boot,
            })
        }
        _ => None,
    };
    let conns = plan
        .callers
        .iter()
        .map(|_| Conn::connect(server.addr()).map_err(|e| format!("connect: {e}")))
        .collect::<Result<Vec<_>, _>>()?;
    Ok((
        Stack {
            server,
            engine,
            relay,
            conns,
        },
        recover_ns,
    ))
}

/// Polls the relay, ships every new frame over the link and waits for
/// the replica to acknowledge them.
fn ship(
    r: &mut Relay,
    stats: &mut ClusterStats,
    keep: Option<&mut Vec<Frame>>,
    traced: bool,
    lap_id: u64,
) -> Result<(), String> {
    let t0 = trace::now();
    let frames = r.relay.poll();
    let t1 = trace::now();
    if traced {
        trace::record("cluster.poll", lap_id, r.relay.next_seq(), t0, t1);
        stats.poll_ns.push(t1 - t0);
        let applied = lock(&r.replica).last_seq();
        stats
            .lag
            .push((r.relay.next_seq() - 1).saturating_sub(applied));
    }
    for frame in &frames {
        let t0 = trace::now();
        let sent = r.link.send(frame);
        let t1 = trace::now();
        if traced {
            trace::record("cluster.send", lap_id, frame.seq, t0, t1);
            stats.send_ns.push(t1 - t0);
            stats.frames += 1;
            stats.frame_bytes += frame.to_text().len() as u64;
            if let Payload::Events(events) = &frame.payload {
                stats.events += events.len() as u64;
            }
        }
        if let Err(e) = sent {
            stats.errors += 1;
            return Err(format!("ship frame {}: {e}", frame.seq));
        }
    }
    if let Some(keep) = keep {
        keep.extend(frames);
    }
    // Wait for the replica's acks before the next reply window, so the
    // replication round trip sits on the client's path and the gap to
    // `churn_mem` is its cost.
    let t0 = trace::now();
    let drained = r.link.drain();
    let t1 = trace::now();
    if traced {
        trace::record("cluster.drain", lap_id, r.relay.next_seq() - 1, t0, t1);
        stats.drain_ns.push(t1 - t0);
    }
    if let Err(e) = drained {
        stats.errors += 1;
        return Err(format!("drain link: {e}"));
    }
    Ok(())
}

/// One lap's results, folded into the phase.
#[derive(Default)]
struct Lap {
    requests: u64,
    measured_ns: u64,
    setup_ns: u64,
    recover_ns: Option<u64>,
    tally: Tally,
    checks: Vec<String>,
    serviced: u64,
    reallocs: u64,
    lifetime: [u64; 3],
    realloc_max: u64,
    batches: u64,
    engine_failed: u64,
    cluster: ClusterStats,
    capture: Option<Capture>,
}

fn lap(
    plan: &Plan,
    dirs: &Dirs,
    traced: bool,
    capture: bool,
    store_stats: Option<&SharedStoreStats>,
) -> Lap {
    let mut out = Lap {
        requests: plan.requests_per_lap() as u64,
        ..Lap::default()
    };
    // A fresh load thread per lap: where the kernel places it (next to
    // the server's handler or apart from it) is decided again each lap
    // instead of once for the whole run.
    let result = std::thread::scope(|s| {
        s.spawn(|| run_lap(plan, dirs, traced, capture, store_stats, &mut out))
            .join()
            .expect("lap thread panicked")
    });
    if let Err(e) = result {
        out.checks.push(e);
    }
    if plan.kind == Kind::DurableMixed {
        let _ = std::fs::remove_dir_all(&dirs.lap);
    }
    out
}

fn run_lap(
    plan: &Plan,
    dirs: &Dirs,
    traced: bool,
    capture: bool,
    store_stats: Option<&SharedStoreStats>,
    out: &mut Lap,
) -> Result<(), String> {
    if plan.kind == Kind::DurableMixed {
        copy_dir(&dirs.template, &dirs.lap)?;
    }
    let lap_id = trace::next_id();
    let lap_t0 = trace::now();

    let setup_t0 = Instant::now();
    let (mut stack, recover_ns) = set_up(plan, dirs, store_stats)?;
    out.setup_ns = setup_t0.elapsed().as_nanos() as u64;
    out.recover_ns = recover_ns;
    trace::record("setup", lap_id, 0, lap_t0, trace::now());

    let (cursor, m0, b0, start_snapshot) = {
        let engine = lock(&stack.engine);
        let journal = engine.journal().expect("journaled");
        let snapshot = (capture && plan.kind == Kind::DurableMixed)
            .then(|| realloc_core::snapshot::Restorable::snapshot_text(&*engine));
        (
            JournalCursor::at_end_of(journal),
            engine.metrics(),
            engine.batches(),
            snapshot,
        )
    };

    let spans = (traced && capture).then_some(lap_id);
    let mut kept = Vec::new();
    let measured_t0 = Instant::now();
    match plan.kind {
        Kind::DurableMixed => {
            let results: Vec<(Tally, Result<(), String>)> = std::thread::scope(|s| {
                let handles: Vec<_> = stack
                    .conns
                    .iter_mut()
                    .zip(&plan.callers)
                    .enumerate()
                    .map(|(i, (conn, caller))| {
                        // Request ids of the second caller start at 2^32.
                        let spans = spans.map(|parent| (parent, (i as u64) << 32));
                        s.spawn(move || {
                            let mut tally = Tally::default();
                            let r = drive(conn, &caller.ops, 1, &mut tally, &mut || Ok(()), spans);
                            (tally, r)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("caller thread panicked"))
                    .collect()
            });
            for (tally, r) in results {
                out.tally.merge(&tally);
                r?;
            }
        }
        Kind::ChurnMem => drive(
            &mut stack.conns[0],
            &plan.callers[0].ops,
            plan.depth,
            &mut out.tally,
            &mut || Ok(()),
            spans.map(|parent| (parent, 0)),
        )?,
        Kind::RelayStream => {
            let relay = stack.relay.as_mut().expect("relay_stream has a relay");
            let cluster = &mut out.cluster;
            let mut keep = capture.then_some(&mut kept);
            drive(
                &mut stack.conns[0],
                &plan.callers[0].ops,
                plan.depth,
                &mut out.tally,
                &mut || ship(relay, cluster, keep.as_deref_mut(), traced, lap_id),
                spans.map(|parent| (parent, 0)),
            )?;
            ship(relay, cluster, keep, traced, lap_id)?;
        }
    }
    out.measured_ns = measured_t0.elapsed().as_nanos() as u64;

    if !plan.probe.is_empty() {
        drive(
            &mut stack.conns[0],
            &plan.probe,
            plan.depth,
            &mut out.tally,
            &mut || Ok(()),
            None,
        )?;
    }

    // Output checks, untimed.
    let digest = {
        let engine = lock(&stack.engine);
        if let Err(e) = engine.validate() {
            out.checks.push(format!("engine invariants: {e}"));
        }
        let m1: Metrics = engine.metrics();
        out.serviced = m1.requests - m0.requests;
        out.reallocs = m1.reallocations - m0.reallocations;
        out.lifetime = [m1.requests, m1.reallocations, m1.migrations];
        out.batches = engine.batches() - b0;
        // The paper's worst single request; on the recovered workload
        // this includes the stored history.
        out.realloc_max = m1.cost.max;
        let journal = engine.journal().expect("journaled");
        let records = journal
            .records_since(cursor)
            .ok_or("the lap's journal records were truncated")?;
        let mut events = Vec::new();
        let (mut ok, mut reallocs) = (0u64, 0u64);
        for record in records {
            if let JournalRecord::Event(e) = record {
                match e.result {
                    Ok(costs) => {
                        ok += 1;
                        reallocs += costs.reallocations;
                    }
                    Err(_) => out.engine_failed += 1,
                }
                if capture {
                    events.push(*e);
                }
            }
        }
        if (ok, reallocs) != (out.serviced, out.reallocs) {
            out.checks.push(format!(
                "journal says {ok} serviced / {reallocs} reallocations, metrics say {} / {}",
                out.serviced, out.reallocs
            ));
        }
        let digest = engine.state_digest();
        if capture {
            out.capture = Some(Capture {
                events,
                start_snapshot,
                boot: stack.relay.as_ref().map(|r| r.boot.clone()),
                frames: std::mem::take(&mut kept),
                final_digest: digest,
                served: (out.serviced, out.reallocs),
            });
        }
        digest
    };
    if let Some(r) = &stack.relay {
        let replica = lock(&r.replica);
        match replica.state_digest() {
            Some(d) if d == digest => {}
            other => out.checks.push(format!(
                "replica digest {other:?} differs from the primary's {digest}"
            )),
        }
        if let Err(e) = replica.validate() {
            out.checks.push(format!("replica invariants: {e}"));
        }
    }

    // Tear down and wait for every handler thread to exit.
    let Stack {
        mut server,
        engine,
        relay,
        conns,
    } = stack;
    drop(conns);
    server.shutdown();
    drop(server);
    if let Some(Relay {
        relay,
        link,
        mut server,
        replica,
        ..
    }) = relay
    {
        drop(relay);
        drop(link);
        server.shutdown();
        drop(server);
        wait_sole_owner(&replica, "replica")?;
    }
    wait_sole_owner(&engine, "service")?;
    drop(engine);

    if plan.kind == Kind::DurableMixed {
        let recovered = Engine::recover_from_dir(&dirs.lap).map_err(|e| e.to_string())?;
        if recovered.state_digest() != digest {
            out.checks
                .push("engine recovered from the store differs from the served one".to_string());
        }
    }
    trace::record_as(lap_id, "lap", 0, 0, lap_t0, trace::now());
    Ok(())
}

/// Hands the allocator's free pages back to the kernel between laps.
/// A serving process keeps one engine for its whole life; without this,
/// pages that one lap's threads freed into their own malloc arenas would
/// still count while the next lap allocates in other arenas, and
/// `peak_rss_mb` would measure arena luck instead of the stack's memory.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn release_free_memory() {
    extern "C" {
        fn malloc_trim(pad: usize) -> std::ffi::c_int;
    }
    // SAFETY: glibc's malloc_trim takes no pointers and only releases
    // free heap memory; it locks each arena itself, so any thread may
    // call it at any time.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn release_free_memory() {}

fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse().ok())
        })
        .unwrap_or(0)
}

/// Runs laps for at least `seconds` (and at least one lap).
pub fn phase(plan: &Plan, dirs: &Dirs, seconds: f64, traced: bool) -> (Phase, SharedStoreStats) {
    trace::set_on(traced);
    let store_stats: SharedStoreStats = Arc::default();
    let stats = traced.then_some(&store_stats);
    let mut p = Phase::default();
    let t0 = Instant::now();
    while p.laps == 0 || t0.elapsed().as_secs_f64() < seconds {
        let lap = lap(plan, dirs, traced, traced && p.laps == 0, stats);
        release_free_memory();
        p.laps += 1;
        let (w, r) = (&lap.tally.write, &lap.tally.read);
        p.figures.push(LapFigures {
            rate: lap.requests as f64 / (lap.measured_ns.max(1) as f64 / 1e9),
            write: (w.quantile(0.50), w.quantile(0.99)),
            read: (r.quantile(0.50), r.quantile(0.99)),
        });
        p.requests += lap.requests;
        p.measured_ns += lap.measured_ns;
        p.setup_ns.push(lap.setup_ns);
        p.recover_ns.extend(lap.recover_ns);
        p.tally.merge(&lap.tally);
        p.checks.extend(lap.checks);
        p.serviced += lap.serviced;
        for (sum, n) in p.lifetime.iter_mut().zip(lap.lifetime) {
            *sum += n;
        }
        p.realloc_max = p.realloc_max.max(lap.realloc_max);
        p.batches += lap.batches;
        p.engine_failed += lap.engine_failed;
        p.cluster.merge(lap.cluster);
        if p.capture.is_none() {
            p.capture = lap.capture;
        }
    }
    trace::set_on(false);
    p.peak_rss_kb = peak_rss_kb();
    (p, store_stats)
}

/// One lap whose numbers are thrown away: lets lazy set-up, page
/// faults and allocator growth happen before anything is timed. Its
/// output checks still count.
pub fn warm_up(plan: &Plan, dirs: &Dirs) -> Vec<String> {
    lap(plan, dirs, false, false, None).checks
}
