//! The serving loop: a threaded accept loop in the `ReplicaServer` /
//! `ObsServer` shape, per-connection pipelined batching, QoS in front
//! of the engine, one reply frame per command in command order.
//!
//! # Threading
//!
//! [`ServiceServer::bind`] spawns one accept-loop thread; each accepted
//! connection gets a detached handler thread with the configured read
//! timeout (a silent client is reaped, never pinned — the ObsServer
//! lesson applied from day one). Handlers share the engine behind one
//! mutex: a batch holds the lock for its submits plus one flush (but
//! not a durable batch's fsync — see *Durable replies*), so
//! client batches interleave with embedder calls (`rebalance`,
//! `resize`, checkpoints) at batch granularity and a rebalance never
//! tears an admitted batch.
//!
//! # Durable replies
//!
//! Under [`FlushMode::Durable`], when the attached sink hands out a
//! group-commit handle ([`Engine::group_commit`]), the lock is **not**
//! held through the fsync: a batch flushes in memory under the lock,
//! records its batch number as each admitting tenant's last write,
//! releases the lock, and waits on
//! [`realloc_engine::GroupCommit::commit_through`] before it writes a
//! single reply. Another connection's flush — and its fsync, which may
//! cover both batches — proceeds meanwhile. Reads are gated the same
//! way, per tenant: a `window` read of tenant `T` waits until `T`'s
//! last-write batch is durable (exact, because job ids are tenant-
//! namespaced and a job's window changes only through its own insert or
//! delete), and `metrics` waits for the newest flushed batch — so no
//! reply ever reports state a crash could take back. A commit error
//! turns every reply that waited on it into `err durability: …`. Sinks
//! without a handle keep the in-lock [`Engine::flush_durable`] path.
//!
//! # Batching
//!
//! A handler blocks for the first command frame, then drains whatever
//! complete frames are already buffered (up to
//! [`ServiceConfig::max_batch`]) into one engine flush — pipelining
//! clients get one lock acquisition and one flush per wire burst, the
//! same shape as the cluster's replication batches.

use crate::proto::{Command, Reply};
use crate::qos::{AdmitGuard, Qos};
use crate::tele::ServiceTele;
use realloc_core::clock::Clock;
use realloc_core::textio::{read_frame, write_frame};
use realloc_core::Request;
use realloc_engine::{Engine, FlushMode, TenantId};
use realloc_telemetry::{Severity, Telemetry, TraceCtx};
use std::collections::HashMap;
use std::io::{BufRead as _, BufReader, BufWriter, ErrorKind, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Cap on one command frame (a short text line).
const MAX_COMMAND_BYTES: u32 = 4096;

/// Service endpoint policy.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Admission policy (rate limits, cap, shed hint).
    pub qos: crate::qos::QosConfig,
    /// Handler read timeout: how long a connection may sit silent
    /// before it is reaped. `None` disables reaping (trusted clients).
    pub read_timeout: Option<Duration>,
    /// Most commands serviced under one engine lock hold (one flush);
    /// frames beyond this form the next batch. Treated as at least 1.
    pub max_batch: usize,
    /// How batches are flushed: [`FlushMode::Immediate`] answers every
    /// mutation with its outcome; [`FlushMode::Coalesced`] may answer
    /// `ok queued …` and service later; [`FlushMode::Durable`] group-
    /// commits to the attached store before answering (outside the
    /// engine lock when the store has a group-commit handle — see the
    /// module docs).
    pub flush: FlushMode,
    /// Causal-trace sampling: every Nth batch that admits a mutation
    /// mints a [`realloc_telemetry::TraceCtx`] at receipt, threads it
    /// through the engine flush (and, when the engine is replicated,
    /// onto the shipped frame as an out-of-band annotation), and
    /// suffixes the admitted replies with ` trace <id>` so the client
    /// can correlate its request with every node's trace ring. `0`
    /// disables tracing (the default); `1` traces every batch. Needs
    /// enabled telemetry to have any effect.
    pub trace_sample_every: u64,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            qos: crate::qos::QosConfig::default(),
            read_timeout: Some(Duration::from_secs(60)),
            max_batch: 128,
            flush: FlushMode::Immediate,
            trace_sample_every: 0,
        }
    }
}

/// What the handler shares across connections.
struct Shared {
    engine: Arc<Mutex<Engine>>,
    qos: Qos,
    tele: Option<Arc<ServiceTele>>,
    clock: Clock,
    config: ServiceConfig,
    /// Monotone batch counter driving trace sampling (and salting the
    /// minted ids, so two batches in the same nanosecond still differ).
    trace_seq: AtomicU64,
    /// Each tenant's newest flushed batch on the out-of-lock durable
    /// path: what a read of that tenant waits for. Written and read
    /// under the engine lock, so a read never sees state newer than the
    /// batch it waits on.
    last_write: Mutex<HashMap<TenantId, u64>>,
}

/// The serving front-end: owns the accept loop and the shared engine.
pub struct ServiceServer {
    engine: Arc<Mutex<Engine>>,
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl ServiceServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"`) and serves `engine` under
    /// `config`. Service instruments register in `telemetry` when it is
    /// enabled (pair with an `ObsServer` on the same registry to scrape
    /// per-tenant latencies during a run).
    pub fn bind(
        addr: impl ToSocketAddrs,
        engine: Engine,
        config: ServiceConfig,
        telemetry: &Telemetry,
    ) -> std::io::Result<ServiceServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let engine = Arc::new(Mutex::new(engine));
        let stop = Arc::new(AtomicBool::new(false));
        let clock = telemetry.clock().unwrap_or_else(Clock::monotonic);
        let shared = Arc::new(Shared {
            engine: Arc::clone(&engine),
            qos: Qos::new(config.qos.clone(), clock.clone()),
            tele: ServiceTele::build(telemetry),
            clock,
            config,
            trace_seq: AtomicU64::new(0),
            last_write: Mutex::new(HashMap::new()),
        });
        let accept_stop = Arc::clone(&stop);
        let accept_thread = std::thread::Builder::new()
            .name(format!("service-accept-{addr}"))
            .spawn(move || {
                for stream in listener.incoming() {
                    if accept_stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    // Replies are small; Nagle + delayed-ACK would add
                    // an RTT timer to every pipelined burst.
                    stream.set_nodelay(true).ok();
                    // Reap silent clients (the ObsServer bug, fixed
                    // here by construction).
                    let _ = stream.set_read_timeout(shared.config.read_timeout);
                    if let Some(tele) = &shared.tele {
                        tele.connections_total.inc();
                    }
                    let conn_shared = Arc::clone(&shared);
                    // Detached: handlers exit on disconnect or timeout.
                    let _ = std::thread::Builder::new()
                        .name("service-conn".to_string())
                        .spawn(move || serve_connection(stream, conn_shared));
                }
            })?;
        Ok(ServiceServer {
            engine,
            addr,
            stop,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared engine — lock it for embedder operations
    /// (`rebalance`, `resize`, `checkpoint`, validation). Handlers hold
    /// the lock per batch, so embedder calls interleave at batch
    /// granularity.
    pub fn engine(&self) -> Arc<Mutex<Engine>> {
        Arc::clone(&self.engine)
    }

    /// Stops the accept loop and joins it. Live connection handlers
    /// finish their current peers' streams and exit on disconnect or
    /// read timeout.
    pub fn shutdown(&mut self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // Poke the blocking accept() so the loop observes the flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ServiceServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for ServiceServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceServer")
            .field("addr", &self.addr)
            .finish_non_exhaustive()
    }
}

/// What the handler found probing for more buffered work.
enum Pending {
    Frame(Vec<u8>),
    NotYet,
    Gone,
}

/// Consumes the next command frame **only if it is already fully
/// buffered** (or lands on a single non-blocking refill); never blocks
/// and never leaves the stream mid-frame (the `ReplicaServer` probe,
/// same invariants).
fn next_pending_frame(reader: &mut BufReader<TcpStream>) -> Pending {
    loop {
        let buf = reader.buffer();
        if buf.len() >= 4 {
            let len = u32::from_be_bytes([buf[0], buf[1], buf[2], buf[3]]);
            if len > MAX_COMMAND_BYTES || (buf.len() - 4) < len as usize {
                return Pending::NotYet;
            }
            return match read_frame(reader, MAX_COMMAND_BYTES) {
                Ok(Some(p)) => Pending::Frame(p),
                Ok(None) | Err(_) => Pending::Gone,
            };
        }
        if !buf.is_empty() {
            return Pending::NotYet; // partial length prefix
        }
        if reader.get_ref().set_nonblocking(true).is_err() {
            return Pending::Gone;
        }
        let refill = reader.fill_buf().map(|b| b.len());
        if reader.get_ref().set_nonblocking(false).is_err() {
            return Pending::Gone;
        }
        match refill {
            Ok(0) => return Pending::Gone,
            Ok(_) => continue,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                return Pending::NotYet
            }
            Err(_) => return Pending::Gone,
        }
    }
}

/// One connection: block for a command (bounded by the read timeout),
/// batch up whatever else is buffered, service the batch under one
/// engine lock hold, reply in command order.
fn serve_connection(stream: TcpStream, shared: Arc<Shared>) {
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(stream);
    let mut writer = BufWriter::new(write_half);
    loop {
        // Block for the first frame of a batch; a timeout here is the
        // reap path for a silent client.
        let first = match read_frame(&mut reader, MAX_COMMAND_BYTES) {
            Ok(Some(p)) => p,
            Ok(None) | Err(_) => return,
        };
        let mut frames = vec![first];
        let mut gone = false;
        while frames.len() < shared.config.max_batch.max(1) {
            match next_pending_frame(&mut reader) {
                Pending::Frame(p) => frames.push(p),
                Pending::NotYet => break,
                Pending::Gone => {
                    gone = true;
                    break;
                }
            }
        }
        // Serve what we have even if the peer is mid-disconnect: the
        // writes below fail harmlessly if it is truly gone.
        if serve_batch(&frames, &mut writer, &shared).is_err() || gone {
            return;
        }
    }
}

/// One admitted mutation awaiting its flush outcome.
struct InFlight {
    /// Index into the batch's reply vector.
    slot: usize,
    tenant: TenantId,
    /// The namespaced request as the engine journals it.
    request: Request,
    _guard: AdmitGuard,
}

/// Services one batch of command frames: QoS, submits + one flush
/// under the engine lock, failure mapping, the durable wait after the
/// lock is released, replies in order.
fn serve_batch(
    frames: &[Vec<u8>],
    writer: &mut BufWriter<TcpStream>,
    shared: &Shared,
) -> std::io::Result<()> {
    let t0 = shared.clock.now_nanos();
    let mut replies: Vec<Option<Reply>> = vec![None; frames.len()];
    let mut commands: Vec<Option<Command>> = Vec::with_capacity(frames.len());
    for (i, payload) in frames.iter().enumerate() {
        match std::str::from_utf8(payload)
            .map_err(|e| format!("command is not UTF-8: {e}"))
            .and_then(Command::parse)
        {
            Ok(c) => commands.push(Some(c)),
            Err(detail) => {
                replies[i] = Some(Reply::Err(detail));
                commands.push(None);
            }
        }
    }

    // QoS in front of the engine: admit or shed every mutation before
    // touching the lock, so a shed burst costs no engine time at all.
    let mut to_submit: Vec<(usize, TenantId, Request, AdmitGuard)> = Vec::new();
    let mut pending_reads: Vec<(usize, Command)> = Vec::new();
    for (i, cmd) in commands.iter().enumerate() {
        let Some(cmd) = cmd else { continue };
        if cmd.is_mutation() {
            let (tenant, request) = cmd.to_request().expect("mutations map to requests");
            match shared.qos.try_admit(tenant.0) {
                Ok(guard) => to_submit.push((i, tenant, request, guard)),
                Err(retry_after) => replies[i] = Some(Reply::Overloaded(retry_after)),
            }
        } else {
            pending_reads.push((i, *cmd));
        }
    }

    // Mint the causal trace at receipt: every Nth batch that admits at
    // least one mutation gets a sampled context, recorded here (receipt
    // and admission outcome) and threaded through the flush as batch
    // metadata — the same id later shows up on the engine's flush/fsync
    // spans, the shipped replication frame, the replicas' apply events,
    // and the client's annotated replies.
    let trace = match &shared.tele {
        Some(tele) if shared.config.trace_sample_every > 0 && !to_submit.is_empty() => {
            let seq = shared.trace_seq.fetch_add(1, Ordering::Relaxed);
            seq.is_multiple_of(shared.config.trace_sample_every)
                .then(|| {
                    let tc = TraceCtx::mint(t0, seq);
                    tele.t
                        .point_in(tc, Severity::Debug, "receipt", frames.len() as u64, t0);
                    let shed = replies
                        .iter()
                        .filter(|r| matches!(r, Some(Reply::Overloaded(_))))
                        .count();
                    tele.t.point_in(
                        tc,
                        Severity::Debug,
                        "admit",
                        to_submit.len() as u64,
                        shed as u64,
                    );
                    tc
                })
        }
        _ => None,
    };

    let mut admitted: Vec<InFlight> = Vec::new();
    // Out-of-lock durable path: the batch to commit and each gated
    // read's `(slot, batch)` to wait for after the lock is released.
    let mut commit_batch: Option<u64> = None;
    let mut read_waits: Vec<(usize, u64)> = Vec::new();
    let group = {
        let mut engine = match shared.engine.lock() {
            Ok(g) => g,
            Err(_) => return Err(std::io::Error::other("engine lock poisoned")),
        };
        // A group-commit handle moves the fsync out of this lock; its
        // absence (or a sticky error, which the in-lock path reports)
        // keeps the whole commit here.
        let group = match shared.config.flush {
            FlushMode::Durable => engine.group_commit().ok().flatten(),
            _ => None,
        };
        for (i, tenant, request, guard) in to_submit {
            match engine.submit_for(tenant, request) {
                Ok(global) => {
                    // Provisional: refined by the flush outcome.
                    replies[i] = Some(match request {
                        Request::Insert { .. } => Reply::Placed(global),
                        Request::Delete { .. } => Reply::Removed(global),
                    });
                    let namespaced = match request {
                        Request::Insert { window, .. } => Request::Insert { id: global, window },
                        Request::Delete { .. } => Request::Delete { id: global },
                    };
                    admitted.push(InFlight {
                        slot: i,
                        tenant,
                        request: namespaced,
                        _guard: guard,
                    });
                }
                Err(e) => replies[i] = Some(Reply::Err(e.to_string())),
            }
        }

        if !admitted.is_empty() {
            let mode = match group {
                Some(_) => FlushMode::Immediate,
                None => shared.config.flush,
            };
            let flushed = engine.flush_batch_traced(mode, trace).and_then(|report| {
                // Surfaces an append failure of this very flush.
                if group.is_some() {
                    engine.group_commit()?;
                }
                Ok(report)
            });
            if group.is_some() {
                // The batch is in memory whatever the outcome, so reads
                // of these tenants wait on it (and fail if it failed).
                let batch = engine.batches() - 1;
                let mut last = shared.last_write.lock().expect("last-write map poisoned");
                for inflight in &admitted {
                    last.insert(inflight.tenant, batch);
                }
                commit_batch = flushed.is_ok().then_some(batch);
            }
            match flushed {
                Ok(Some(report)) => {
                    // Map this batch's failures back onto their
                    // commands: first unconsumed failure matching the
                    // namespaced request, in submission order. Failures
                    // of *earlier* coalesced batches (already answered
                    // `queued`) stay unmatched by construction — their
                    // requests are not in this `admitted` set.
                    let mut consumed = vec![false; report.failures.len()];
                    for inflight in &admitted {
                        let hit = report
                            .failures
                            .iter()
                            .enumerate()
                            .find(|(j, (_, req, _))| !consumed[*j] && *req == inflight.request);
                        if let Some((j, (_, _, code))) = hit {
                            consumed[j] = true;
                            replies[inflight.slot] = Some(Reply::Err(code.as_str().to_string()));
                        }
                    }
                }
                Ok(None) => {
                    // Deferred by coalescing: accepted, serviced later.
                    for inflight in &admitted {
                        if let Some(Reply::Placed(id) | Reply::Removed(id)) = replies[inflight.slot]
                        {
                            replies[inflight.slot] = Some(Reply::Queued(id));
                        }
                    }
                }
                Err(sink_error) => {
                    // A durable flush failed: the in-memory flush still
                    // happened, but durability was promised and not
                    // delivered — every admitted mutation is refused.
                    for inflight in &admitted {
                        replies[inflight.slot] =
                            Some(Reply::Err(format!("durability: {sink_error}")));
                    }
                }
            }
        }

        // Reads under the same lock hold see the batch they rode with.
        let last = group
            .is_some()
            .then(|| shared.last_write.lock().expect("last-write map poisoned"));
        for (i, cmd) in &pending_reads {
            replies[*i] = Some(match cmd {
                Command::Window { tenant, id } => match engine.window_of_for(*tenant, *id) {
                    Ok(Some(w)) => Reply::WindowIs(w),
                    Ok(None) => Reply::WindowNone,
                    Err(e) => Reply::Err(e.to_string()),
                },
                Command::Metrics => Reply::MetricsIs(engine.metrics()),
                _ => Reply::Err("unreachable read".to_string()),
            });
            if let Some(last) = &last {
                let wait = match cmd {
                    Command::Window { tenant, .. } => last.get(tenant).copied(),
                    Command::Metrics => engine.batches().checked_sub(1),
                    _ => None,
                };
                read_waits.extend(wait.map(|b| (*i, b)));
            }
        }
        group
    }; // engine lock released; admission guards still held until replied

    if let Some(group) = &group {
        if let Some(batch) = commit_batch {
            let span = shared.tele.as_ref().map(|tele| match trace {
                Some(tc) => tele.t.span_in(tc, "fsync", batch),
                None => tele.t.span("fsync", batch),
            });
            let committed = group.commit_through(batch);
            drop(span);
            if let Err(e) = committed {
                for inflight in &admitted {
                    replies[inflight.slot] = Some(Reply::Err(format!("durability: {e}")));
                }
            }
        }
        for (i, batch) in read_waits {
            if let Err(e) = group.commit_through(batch) {
                replies[i] = Some(Reply::Err(format!("durability: {e}")));
            }
        }
    }

    // Replies in command order, one writer flush for the whole batch.
    // A traced batch suffixes its admitted mutations' replies with
    // ` trace <id>` — clients correlate, untraced replies are untouched.
    for (i, reply) in replies.iter().enumerate() {
        let Some(reply) = reply else { continue };
        let mut text = reply.to_text();
        if let Some(tc) = trace {
            if matches!(
                reply,
                Reply::Placed(_) | Reply::Removed(_) | Reply::Queued(_)
            ) && admitted.iter().any(|f| f.slot == i)
            {
                use std::fmt::Write as _;
                write!(text, " trace {}", tc.id).expect("string write");
            }
        }
        write_frame(writer, text.as_bytes())?;
    }
    writer.flush()?;

    // Bookkeeping after the bytes are out: service time is
    // receipt-to-response, and guards release only now (the admission
    // cap covers a command until its reply ships).
    if let Some(tele) = &shared.tele {
        let elapsed = shared.clock.now_nanos().saturating_sub(t0);
        tele.requests_total.add(frames.len() as u64);
        for (i, cmd) in commands.iter().enumerate() {
            let Some(cmd) = cmd else {
                tele.refused_total.inc();
                continue;
            };
            let Some(reply) = &replies[i] else { continue };
            if let Some(tenant) = cmd.tenant() {
                let tt = tele.tenant(tenant.0);
                tt.request_nanos.record(elapsed);
                match reply {
                    Reply::Overloaded(_) => {
                        tt.shed_total.inc();
                        tele.shed_total.inc();
                    }
                    Reply::Err(_) => tele.refused_total.inc(),
                    _ => tt.admitted_total.inc(),
                }
            }
        }
    }
    drop(admitted);
    Ok(())
}
