//! # realloc-engine
//!
//! A sharded, batched scheduling *service* over the SPAA'13 reallocation
//! schedulers — the serving layer that turns the algorithm crates into a
//! system:
//!
//! * **Sharding** — requests are routed across `S` independent shards by
//!   a stable hash of the (tenant-resolved) job id ([`Engine::shard_of`]).
//!   Each shard owns one full scheduler ([`backend`]): a machine group
//!   driven through the §3/§5 wrapper, or a natively multi-machine
//!   baseline. Shards share no state, so a flush drains them
//!   concurrently with plain disjoint borrows ([`shard`]).
//! * **Batching** — [`Engine::submit`] only enqueues (per-shard FIFO
//!   queues); [`Engine::flush`] services everything queued and returns a
//!   [`batch::BatchReport`]. Rejected requests are reported, never fatal:
//!   a multi-tenant service keeps serving the rest of the stream.
//! * **Multi-tenancy** — [`Engine::submit_for`] namespaces each tenant's
//!   job ids into disjoint ranges of the global id space, so tenants
//!   cannot collide (or address each other's jobs) as long as untrusted
//!   callers are only ever handed `submit_for`; the raw [`Engine::submit`]
//!   interface spans the whole id space and is for trusted embedders and
//!   journal replay.
//! * **Telemetry** — per-shard [`realloc_core::CostMeter`]s aggregate
//!   into a [`metrics::Metrics`] snapshot: totals, per-request
//!   reallocation-cost p50/p95/p99, and router balance.
//! * **Durability** — an optional segmented journal ([`journal::Journal`])
//!   records every request and its netted outcome; [`Engine::checkpoint`]
//!   snapshots the full engine state (every layer implements
//!   [`realloc_core::Restorable`]) into the journal and truncates sealed
//!   segments beyond [`EngineConfig::retained_segments`], so
//!   [`Engine::recover`] rebuilds the exact pre-crash engine from the
//!   latest checkpoint plus the journal *tail* — O(tail), not
//!   O(history) — while [`journal::Journal::replay`] keeps the full
//!   audit path with divergence detection. Shard/engine migration is
//!   "snapshot, ship, restore" ([`Engine::restore_snapshot`]).
//! * **Elasticity** — a hot engine grows and shrinks **online**:
//!   [`Engine::resize`] snapshot-ships every affected job onto a freshly
//!   routed shard set without dropping queued requests or zeroing
//!   telemetry, and [`Engine::rebalance`] isolates a dominant tenant
//!   onto a dedicated shard. The router is epoch-versioned
//!   ([`realloc_core::router::Router`]); every resize appends an epoch
//!   record to the journal (v3 framing), so replay and recovery
//!   re-apply the same routing changes at the same positions and land
//!   on byte-identical placements.
//!
//! # Quickstart
//!
//! ```
//! use realloc_engine::{BackendKind, Engine, EngineConfig};
//! use realloc_core::{JobId, Request, Window};
//!
//! let mut engine = Engine::new(EngineConfig {
//!     shards: 4,
//!     backend: BackendKind::TheoremOne { gamma: 8 },
//!     ..EngineConfig::default()
//! });
//!
//! for i in 0..64u64 {
//!     engine.submit(Request::Insert {
//!         id: JobId(i),
//!         window: Window::new(0, 1 << 10),
//!     });
//! }
//! let report = engine.flush();
//! assert_eq!(report.processed(), 64);
//! assert_eq!(engine.active_count(), 64);
//!
//! let m = engine.metrics();
//! assert_eq!(m.requests, 64);
//! assert!(m.shards.iter().all(|s| s.active_jobs > 0), "all shards used");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod batch;
pub mod journal;
pub mod metrics;
pub mod pool;
pub mod shard;
mod tele;

pub use backend::{Backend, BackendKind};
pub use batch::BatchReport;
pub use journal::{
    Checkpoint, EpochRecord, Journal, JournalCursor, JournalEvent, JournalRecord, Records,
    ReplayDivergence, ReplayError,
};
pub use metrics::{Carryover, Metrics};
pub use realloc_core::router::Router as EngineRouter;

use crate::journal::Costs;
use crate::pool::WorkerPool;
use crate::shard::{Shard, ShardDrain};
use crate::tele::EngineTele;
use realloc_core::cost::Placement;
use realloc_core::router::{tenant_of, Router, RouterError};
use realloc_core::snapshot::{Fields, Restorable, SnapshotNode, SnapshotWriter};
use realloc_core::textio::ParseError;
use realloc_core::{Error, JobId, Request, RequestSeq, ValidationError, Window};
use realloc_telemetry::{Histogram, Severity, Telemetry, TraceCtx};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};

/// Locks one shard cell (uncontended outside a concurrent flush).
pub(crate) fn lock(shard: &Mutex<Shard>) -> MutexGuard<'_, Shard> {
    shard.lock().expect("shard mutex poisoned")
}

/// A tenant namespace. Each tenant's external job ids live in a disjoint
/// slice of the global [`JobId`] space (see [`Engine::submit_for`]).
///
/// `TenantId(0)` is **reserved**: its slice coincides with the low ids of
/// the direct [`Engine::submit`] space, so handing it to `submit_for`
/// would let a "tenant" address direct submitters' jobs. `submit_for`
/// rejects it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TenantId(pub u16);

/// Bits of the global job-id space reserved for the external id; the
/// tenant id occupies the bits above. (Defined in `realloc_core::router`
/// so routing tables can pin tenants without depending on this crate.)
pub use realloc_core::router::TENANT_SHIFT;

/// A durable tee under the in-memory journal: everything the journal
/// records — batches of events, epoch records, checkpoints — is also
/// handed to the attached sink, and [`Engine::flush_durable`] makes the
/// flushed batch stable before it returns `Ok` — *on stable storage*,
/// not just *in memory*.
///
/// A sink commits in one of two ways:
///
/// * **In-lock** (the default): [`DurabilitySink::sync`] runs on the
///   engine's own `&mut self`, so a front-end sharing the engine behind
///   a mutex holds that mutex across the fsync.
/// * **Group commit**: [`DurabilitySink::group_commit`] hands out a
///   shared [`GroupCommit`] handle whose
///   [`GroupCommit::commit_through`] takes `&self` and needs no engine
///   access. A front-end flushes under its lock, releases it, and waits
///   for its batch outside; concurrent waiters share fsyncs
///   ([`Engine::group_commit`]).
///
/// The on-disk implementation lives in `realloc-store` (this crate
/// cannot depend on it — the store decodes through [`Journal`], so the
/// dependency points the other way). Error strings are sticky at the
/// engine level: after the first sink failure the engine stops teeing
/// and [`Engine::durability_error`] reports the cause, while in-memory
/// serving continues unaffected.
pub trait DurabilitySink: Send + std::fmt::Debug {
    /// Appends one flush's events (all share one batch number). Called
    /// once per non-empty flush; ordering across calls matches the
    /// journal's record order.
    fn append_batch(&mut self, events: &[JournalEvent]) -> Result<(), String>;

    /// Appends an epoch record at its position in the stream.
    fn append_epoch(&mut self, record: &EpochRecord) -> Result<(), String>;

    /// Persists a checkpoint and seals the current on-disk segment. The
    /// implementation must make this atomic and durable on its own
    /// (temp + fsync + rename) — the engine does not follow up with a
    /// [`DurabilitySink::sync`].
    fn checkpoint(&mut self, checkpoint: &Checkpoint) -> Result<(), String>;

    /// Group-commit barrier: everything appended so far must be on
    /// stable storage when this returns `Ok`.
    fn sync(&mut self) -> Result<(), String>;

    /// The sink's shared commit handle, when it can make batches durable
    /// without the engine: `None` (the default) keeps every commit on
    /// the in-lock [`DurabilitySink::sync`] path.
    fn group_commit(&self) -> Option<Arc<dyn GroupCommit>> {
        None
    }
}

/// A durable sink's group-commit watermark, shared with waiters that do
/// not hold the engine ([`DurabilitySink::group_commit`]).
///
/// Implementations must uphold, for every batch number `b` the engine
/// flushed before the call:
///
/// * `Ok` means every record appended at or before batch `b` — epoch
///   records included — is on stable storage;
/// * a failed commit is **sticky**: once the underlying fsync failed,
///   every commit it covered and every later commit of a batch it did
///   not already cover fails too, and the sink refuses further appends
///   (an fsync is never retried — after a failed fsync the kernel may
///   have dropped the dirty pages it reported on).
pub trait GroupCommit: Send + Sync + std::fmt::Debug {
    /// Blocks until batch `batch` (and everything appended before it) is
    /// durable. Returns at once when it already is.
    fn commit_through(&self, batch: u64) -> Result<(), String>;
}

/// Flush-coalescing policy ([`Engine::set_flush_coalescing`]): lets a
/// periodic flusher defer small batches so downstream consumers of the
/// recorded stream — the durable tee, replication frames — see fewer,
/// larger batches. A flush is deferred while fewer than `min_batch`
/// requests are queued **and** fewer than `max_defer` consecutive
/// flushes have already been deferred; the cap bounds added latency, so
/// a trickle of requests still lands within `max_defer + 1` ticks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CoalesceConfig {
    /// Queue depth at which a flush always proceeds.
    pub min_batch: usize,
    /// Consecutive deferrals before a flush proceeds regardless.
    pub max_defer: u32,
}

impl Default for CoalesceConfig {
    fn default() -> Self {
        CoalesceConfig {
            min_batch: 64,
            max_defer: 4,
        }
    }
}

/// How a caller wants its queued requests serviced — the flush
/// scheduling hook used by front-ends ([`Engine::flush_batch`]) so the
/// policy choice lives in configuration rather than in three different
/// call sites.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FlushMode {
    /// [`Engine::flush`]: drain now, report every outcome.
    #[default]
    Immediate,
    /// [`Engine::flush_coalesced`]: may defer under the installed
    /// [`CoalesceConfig`]; `None` means *accepted, not yet serviced*.
    Coalesced,
    /// [`Engine::flush_durable`]: drain now and group-commit to the
    /// attached durable sink before reporting success. A front-end that
    /// shares the engine behind a lock may instead flush under the lock
    /// and wait on [`Engine::group_commit`]'s handle after releasing it;
    /// either way a reply is sent only once an fsync covers its batch.
    Durable,
}

/// Engine configuration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EngineConfig {
    /// Number of independent shards (`>= 1`).
    pub shards: usize,
    /// Machines per shard backend.
    pub machines_per_shard: usize,
    /// Scheduler each shard runs.
    pub backend: BackendKind,
    /// Drain shards on a **persistent worker pool** during
    /// [`Engine::flush`]: `min(shards, available_parallelism)` long-lived
    /// threads spawned at construction, each draining a contiguous chunk
    /// of shards (inline when the host offers no parallelism — enabling
    /// this is never a pessimization). Results are identical either way
    /// (shards are independent and the flush is a full barrier); this
    /// only trades a channel round-trip per flush against parallel drain
    /// time. See `BENCH_engine_ingest.json`.
    pub parallel: bool,
    /// Record every serviced request into an in-memory [`Journal`].
    pub journal: bool,
    /// How many **sealed** journal segments to retain after a
    /// checkpoint (the open tail is always kept). Each
    /// [`Engine::checkpoint`] seals the current segment; once a
    /// checkpoint exists, older segments are redundant for recovery, so
    /// anything beyond this cap is dropped — bounding the journal's
    /// memory instead of growing without bound from genesis. `0` keeps
    /// only the latest checkpoint plus the tail (minimum-footprint
    /// recovery); larger values keep audit/replay depth.
    pub retained_segments: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            shards: 4,
            machines_per_shard: 1,
            backend: BackendKind::TheoremOne { gamma: 8 },
            parallel: false,
            journal: false,
            retained_segments: 4,
        }
    }
}

/// The sharded, batched scheduling service. See the crate docs.
///
/// Shards live behind `Arc<Mutex<_>>` so the persistent worker pool can
/// drain them without `unsafe`; every mutex is uncontended outside a
/// concurrent flush (the engine is the only other lock holder).
pub struct Engine {
    cfg: EngineConfig,
    /// Versioned routing table; `cfg.shards` always equals
    /// `router.shards()` (both track the *current* size after resizes).
    router: Router,
    shards: Vec<Arc<Mutex<Shard>>>,
    /// Telemetry inherited from shards retired by resizes.
    carry: Carryover,
    /// Persistent drain workers, present iff `cfg.parallel` with > 1 shard.
    pool: Option<WorkerPool>,
    /// `force_parallel_pool` was called: reshards rebuild a forced pool
    /// too, so the test hook survives resizes.
    pool_forced: bool,
    journal: Option<Journal>,
    batches: u64,
    /// Optional durable tee under the journal
    /// ([`Engine::attach_durability`]). Runtime-only, like telemetry:
    /// never part of snapshots.
    sink: Option<Box<dyn DurabilitySink>>,
    /// First sink failure, sticky: teeing stops, serving continues, and
    /// [`Engine::flush_durable`] keeps failing until a fresh sink is
    /// attached.
    durability_error: Option<String>,
    /// Resolved observability instruments, present iff
    /// [`Engine::attach_telemetry`] was given an enabled registry.
    /// Runtime-only: excluded from snapshots so replication digests stay
    /// a pure function of the replayed event stream.
    tele: Option<Box<EngineTele>>,
    /// Flush-coalescing policy ([`Engine::set_flush_coalescing`]).
    /// Runtime-only, like the sink and telemetry: never part of
    /// snapshots — the recorded stream stays a pure function of which
    /// flushes actually happened.
    coalesce: Option<CoalesceConfig>,
    /// Consecutive [`Engine::flush_coalesced`] calls deferred so far.
    deferred: u32,
    /// Causal trace context for the *next* serviced flush (set by
    /// [`Engine::flush_batch_traced`]). Runtime metadata only: it tags
    /// trace-ring events and replication-frame annotations, never
    /// journal text or digested state. Survives coalescing deferrals —
    /// a deferred tick leaves it armed for the flush that actually
    /// services the queue.
    pending_trace: Option<TraceCtx>,
    /// Trace contexts of recently serviced batches, by batch number
    /// (bounded to the newest [`FLUSH_TRACE_WINDOW`]): lets replication
    /// stamping and the durable-fsync span look a batch's trace back up
    /// after the flush consumed `pending_trace`.
    flush_traces: BTreeMap<u64, TraceCtx>,
}

/// How many recent batches keep their trace context for lookup by
/// [`Engine::trace_of_batch`].
const FLUSH_TRACE_WINDOW: usize = 16;

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("config", &self.cfg)
            .field("batches", &self.batches)
            .field("queued", &self.queued())
            .field("active", &self.active_count())
            .finish_non_exhaustive()
    }
}

impl Engine {
    /// Builds an engine: `cfg.shards` shards, each running a fresh
    /// `cfg.backend` on `cfg.machines_per_shard` machines.
    pub fn new(cfg: EngineConfig) -> Self {
        assert!(cfg.shards >= 1, "engine needs at least one shard");
        assert!(
            cfg.machines_per_shard >= 1,
            "shards need at least one machine"
        );
        let shards: Vec<Arc<Mutex<Shard>>> = (0..cfg.shards)
            .map(|i| {
                Arc::new(Mutex::new(Shard::new(
                    i,
                    cfg.backend,
                    cfg.machines_per_shard,
                )))
            })
            .collect();
        let pool = Self::build_pool(&cfg, &shards);
        let journal = cfg.journal.then(|| Journal::new(cfg.clone()));
        Engine {
            router: Router::new(cfg.shards),
            cfg,
            shards,
            carry: Carryover::default(),
            pool,
            pool_forced: false,
            journal,
            batches: 0,
            sink: None,
            durability_error: None,
            tele: None,
            coalesce: None,
            deferred: 0,
            pending_trace: None,
            flush_traces: BTreeMap::new(),
        }
    }

    /// Attaches a telemetry registry: resolves every engine instrument
    /// once (hot paths never touch the registry's name map again),
    /// installs drain-path handles on every shard, and publishes the
    /// current gauges. Attaching [`realloc_telemetry::disabled`] (or any
    /// disabled handle) detaches — the engine reverts to zero-overhead
    /// uninstrumented paths.
    ///
    /// Survives resizes: counters/histograms accumulate at the engine
    /// level and fresh shards get handles re-installed, so lifetime
    /// totals keep counting across [`Engine::resize`] exactly like the
    /// exact-metrics [`Carryover`] path. Telemetry state is **not** part
    /// of engine snapshots — restore/recovery paths start uninstrumented
    /// and embedders re-attach (persist the registry itself with
    /// [`realloc_telemetry::Telemetry::snapshot_text`] if continuity
    /// across restarts is wanted).
    pub fn attach_telemetry(&mut self, telemetry: &Telemetry) {
        self.tele = EngineTele::build(telemetry);
        self.apply_shard_tele();
        if let Some(tele) = &self.tele {
            tele.epoch.set(self.router.epoch());
            tele.shards.set(self.router.shards() as u64);
            tele.active_jobs.set(self.active_count() as u64);
        }
    }

    /// Installs the current drain-path instrument bundle on every live
    /// shard (re-run after reshards swap in fresh shards).
    fn apply_shard_tele(&self) {
        let bundle = self.tele.as_ref().map(|t| t.shard_tele());
        for cell in &self.shards {
            lock(cell).set_telemetry(bundle.clone());
        }
    }

    /// A pool with fewer than two hardware threads behind it can only
    /// add context switches — degrade to inline drains so `parallel`
    /// is never a pessimization. (Shared by `new` and snapshot restore.)
    fn build_pool(cfg: &EngineConfig, shards: &[Arc<Mutex<Shard>>]) -> Option<WorkerPool> {
        (cfg.parallel && cfg.shards > 1 && WorkerPool::threads_for(cfg.shards) > 1)
            .then(|| WorkerPool::new(shards))
    }

    /// The forced (test-hook) pool: production sizing floored at two
    /// workers, so cross-worker chunking is exercised even when the
    /// host's parallelism would drain inline. Shared by
    /// [`Engine::force_parallel_pool`] and the reshard rebuild so the
    /// two can never drift apart. `None` with a single shard.
    fn forced_pool(shards: &[Arc<Mutex<Shard>>]) -> Option<WorkerPool> {
        (shards.len() > 1).then(|| {
            let threads = WorkerPool::threads_for(shards.len()).max(2);
            WorkerPool::with_threads(shards, threads)
        })
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// Test hook: build the persistent worker pool — with **multiple
    /// workers** — even when the host's available parallelism would make
    /// the engine drain inline (see [`EngineConfig::parallel`]). Lets
    /// the pool/journal equivalence property tests exercise the real
    /// cross-worker barrier and chunk reassembly on single-core CI
    /// runners. Thread count is derived from [`WorkerPool::threads_for`]
    /// — the production sizing — floored at two workers so the hook
    /// still forces real cross-thread chunking on single-core hosts;
    /// on multi-core hosts it therefore matches what
    /// `EngineConfig::parallel` would build. Sticky: reshards rebuild a
    /// forced pool too. No-op with a single shard.
    #[doc(hidden)]
    pub fn force_parallel_pool(&mut self) {
        self.pool_forced = true;
        if self.pool.is_none() {
            self.pool = Self::forced_pool(&self.shards);
        }
    }

    /// Whether flushes currently drain on the worker pool.
    pub fn uses_pool(&self) -> bool {
        self.pool.is_some()
    }

    /// The shard a job id routes to — a pure function of the id and the
    /// current routing table ([`Router`]: FNV-1a hash over the unpinned
    /// shards, tenant pins honored first), so routing is deterministic,
    /// stable across engine instances at the same epoch, and maps a
    /// job's delete to the shard that serviced its insert. Resizes swap
    /// the table ([`Engine::resize`]) and physically re-home every
    /// affected job, so the invariant holds across epochs too.
    pub fn shard_of(&self, id: JobId) -> usize {
        self.router.route(id)
    }

    /// The current routing table.
    pub fn router(&self) -> &Router {
        &self.router
    }

    /// The current routing epoch (0 until the first resize/rebalance).
    pub fn epoch(&self) -> u64 {
        self.router.epoch()
    }

    /// Enqueues a request for the next flush, addressing the **raw
    /// global id space** — including every tenant's slice.
    ///
    /// This is the privileged interface for trusted callers (embedders
    /// driving a single id space, harnesses, and [`Journal::replay`],
    /// which must restore tenant-namespaced ids verbatim). Code serving
    /// untrusted tenants must go through [`Engine::submit_for`], which
    /// confines each tenant to its own slice; handing tenants `submit`
    /// would let them address each other's jobs.
    pub fn submit(&mut self, request: Request) {
        if let Some(tele) = &mut self.tele {
            // Queue-wait phase start: one clock read per batch (the
            // branch below is the only per-request telemetry cost).
            if tele.first_enqueue_at.is_none() {
                tele.first_enqueue_at = Some(tele.now());
            }
        }
        let shard = self.shard_of(request.job_id());
        lock(&self.shards[shard]).enqueue(request);
    }

    /// Enqueues every request of a sequence (raw id space; see
    /// [`Engine::submit`]).
    pub fn submit_seq(&mut self, seq: &RequestSeq) {
        for &r in seq.requests() {
            self.submit(r);
        }
    }

    /// Translates a tenant's external job id into its slice of the
    /// global id space — the pure half of [`Engine::submit_for`], also
    /// used by read-side entry points ([`Engine::window_of_for`]) and by
    /// serving front-ends that need the global id before deciding
    /// whether to submit at all.
    ///
    /// Fails if `tenant` is the reserved [`TenantId`]`(0)` or the
    /// external id does not fit the per-tenant id space (`2^48` ids per
    /// tenant).
    pub fn global_id_of(tenant: TenantId, external: JobId) -> Result<JobId, Error> {
        if tenant.0 == 0 {
            return Err(Error::UnsupportedJob {
                job: external,
                detail: "TenantId(0) is reserved (it aliases the direct submit() id space)"
                    .to_string(),
            });
        }
        if external.0 >> TENANT_SHIFT != 0 {
            return Err(Error::UnsupportedJob {
                job: external,
                detail: format!(
                    "external id {} exceeds the {}-bit per-tenant id space",
                    external.0, TENANT_SHIFT
                ),
            });
        }
        Ok(JobId(((tenant.0 as u64) << TENANT_SHIFT) | external.0))
    }

    /// Enqueues a request on behalf of `tenant`, translating its external
    /// job id into the tenant's slice of the global id space. Returns the
    /// global id (for correlating journal entries and placements).
    ///
    /// Fails under the [`Engine::global_id_of`] rules: the reserved
    /// [`TenantId`]`(0)`, or an external id outside the per-tenant space.
    pub fn submit_for(&mut self, tenant: TenantId, request: Request) -> Result<JobId, Error> {
        let global = Self::global_id_of(tenant, request.job_id())?;
        let namespaced = match request {
            Request::Insert { window, .. } => Request::Insert { id: global, window },
            Request::Delete { .. } => Request::Delete { id: global },
        };
        self.submit(namespaced);
        Ok(global)
    }

    /// Original window of a tenant's active job, addressed by its
    /// **external** id — the read-side companion of
    /// [`Engine::submit_for`], confined to the tenant's own slice of the
    /// id space exactly like the write path.
    pub fn window_of_for(
        &self,
        tenant: TenantId,
        external: JobId,
    ) -> Result<Option<Window>, Error> {
        let global = Self::global_id_of(tenant, external)?;
        Ok(self.window_of(global))
    }

    /// Jobs currently scheduled for one tenant, across all shards (the
    /// per-tenant slice of [`Engine::active_count`]; used by serving
    /// front-ends to report tenant occupancy).
    pub fn active_count_for(&self, tenant: TenantId) -> usize {
        self.shards
            .iter()
            .map(|s| {
                lock(s)
                    .active_jobs()
                    .iter()
                    .filter(|(id, _)| tenant_of(*id) == tenant.0 as u64)
                    .count()
            })
            .sum()
    }

    /// Requests queued across all shards, waiting for the next flush.
    pub fn queued(&self) -> usize {
        self.shards.iter().map(|s| lock(s).queued()).sum()
    }

    /// Services every queued request. Shards drain concurrently on the
    /// persistent worker pool when the engine is configured `parallel`;
    /// each shard processes its own queue in FIFO order either way, so
    /// results are identical.
    pub fn flush(&mut self) -> BatchReport {
        // Any serviced flush breaks the chain of *consecutive*
        // deferrals the coalescing policy counts: after a barrier
        // (explicit flush, checkpoint, flush_durable) consumed the
        // queue, the deferral budget starts fresh.
        self.deferred = 0;
        let trace = self.pending_trace.take();
        if let Some(tc) = trace {
            self.remember_trace(self.batches, tc);
        }
        if self.tele.is_some() {
            return self.flush_instrumented(trace);
        }
        let mut drains: Vec<ShardDrain> = Vec::with_capacity(self.shards.len());
        match &self.pool {
            Some(pool) => pool.drain_all(&mut drains),
            None => drains.extend(self.shards.iter().map(|s| lock(s).drain())),
        }
        let batch = self.batches;
        self.batches += 1;
        self.append_drains(batch, &drains);
        BatchReport::from_drains(batch, &drains)
    }

    /// Installs (or with `None` removes) the flush-coalescing policy
    /// consulted by [`Engine::flush_coalesced`]. Plain [`Engine::flush`]
    /// is never deferred — explicit flushes, checkpoints, and barriers
    /// always proceed. Runtime-only state: never part of snapshots.
    pub fn set_flush_coalescing(&mut self, cfg: Option<CoalesceConfig>) {
        self.coalesce = cfg;
        self.deferred = 0;
    }

    /// The installed flush-coalescing policy, if any.
    pub fn flush_coalescing(&self) -> Option<CoalesceConfig> {
        self.coalesce
    }

    /// A flush that may *defer*: under the installed [`CoalesceConfig`],
    /// a tick with fewer than `min_batch` requests queued returns `None`
    /// (nothing drained, nothing journaled) until `max_defer`
    /// consecutive deferrals have accumulated — so periodic flushers
    /// produce fewer, larger batches for the journal, the durable tee,
    /// and replication frames. Without a policy this is exactly
    /// [`Engine::flush`]. An empty queue always returns `None` without
    /// consuming a deferral (there is nothing to coalesce — and an
    /// empty flush would still bump the batch counter, which is
    /// digested state).
    pub fn flush_coalesced(&mut self) -> Option<BatchReport> {
        if self.queued() == 0 {
            return None;
        }
        if let Some(cfg) = self.coalesce {
            if self.queued() < cfg.min_batch && self.deferred < cfg.max_defer {
                self.deferred += 1;
                return None;
            }
        }
        self.deferred = 0;
        Some(self.flush())
    }

    /// The journal-append step of a flush (shared by the plain and
    /// instrumented paths so the recorded stream is identical), with the
    /// durable tee: when a sink is attached (and healthy), the same
    /// events are handed to it as one batch.
    fn append_drains(&mut self, batch: u64, drains: &[ShardDrain]) {
        let Some(journal) = &mut self.journal else {
            return;
        };
        let tee = self.sink.is_some() && self.durability_error.is_none();
        let mut teed: Vec<JournalEvent> = Vec::new();
        for (shard, drain) in drains.iter().enumerate() {
            for &(request, result) in &drain.records {
                let event = JournalEvent {
                    batch,
                    shard,
                    request,
                    result,
                };
                journal.append(event);
                if tee {
                    teed.push(event);
                }
            }
        }
        if tee && !teed.is_empty() {
            let result = self
                .sink
                .as_mut()
                .expect("tee checked presence")
                .append_batch(&teed);
            if let Err(e) = result {
                self.durability_fail(e);
            }
        }
    }

    /// Records the first sink failure: teeing stops (the on-disk stream
    /// must not continue past a hole), in-memory serving continues.
    fn durability_fail(&mut self, message: String) {
        if let Some(tele) = &self.tele {
            // An incident, not a plain point: fires the registered
            // flight-recorder hook so the ring around the failure is
            // dumped before it scrolls away.
            tele.t.incident("durability_error", 0, 0);
        }
        if self.durability_error.is_none() {
            self.durability_error = Some(message);
        }
    }

    /// Remembers a serviced batch's trace context for later lookup,
    /// keeping only the newest [`FLUSH_TRACE_WINDOW`] entries.
    fn remember_trace(&mut self, batch: u64, tc: TraceCtx) {
        self.flush_traces.insert(batch, tc);
        while self.flush_traces.len() > FLUSH_TRACE_WINDOW {
            self.flush_traces.pop_first();
        }
    }

    /// The causal trace context recorded for `batch`, when that batch
    /// was traced and recent (the engine keeps the newest
    /// [`FLUSH_TRACE_WINDOW`] entries). Replication stamping uses this
    /// to annotate the frame that ships a traced batch.
    pub fn trace_of_batch(&self, batch: u64) -> Option<TraceCtx> {
        self.flush_traces.get(&batch).copied()
    }

    /// [`Engine::flush`] with the telemetry bracketing: phase timings
    /// (queue wait → barrier → journal → total), a `flush` trace span,
    /// lifetime counters, and the exact-cost adaptation. Identical
    /// scheduling outcomes to the plain path — instrumentation only ever
    /// reads the drains.
    fn flush_instrumented(&mut self, trace: Option<TraceCtx>) -> BatchReport {
        let mut tele = self.tele.take().expect("flush checked tele presence");
        let start = tele.now();
        let span = match trace {
            Some(tc) => tele.t.span_in(tc, "flush", self.batches),
            None => tele.t.span("flush", self.batches),
        };
        if let Some(at) = tele.first_enqueue_at.take() {
            let wait = start.saturating_sub(at);
            tele.queue_wait.record(wait);
            if let Some(tc) = trace {
                tele.t
                    .point_in(tc, Severity::Debug, "queue", self.batches, wait);
            }
        }
        let mut drains: Vec<ShardDrain> = Vec::with_capacity(self.shards.len());
        match &self.pool {
            Some(pool) => pool.drain_all(&mut drains),
            None => drains.extend(self.shards.iter().map(|s| lock(s).drain())),
        }
        let after_drain = tele.now();
        tele.barrier.record(after_drain.saturating_sub(start));
        let batch = self.batches;
        self.batches += 1;
        self.append_drains(batch, &drains);
        if self.journal.is_some() {
            tele.journal_append
                .record(tele.now().saturating_sub(after_drain));
        }
        // Post-pass over the drain records: lifetime counters plus the
        // exact cost histogram adapted into the registry (gauges for the
        // exact percentiles, log buckets for the summary).
        let (mut ok, mut failed) = (0u64, 0u64);
        let (mut reallocations, mut migrations) = (0u64, 0u64);
        let mut costs_local = Histogram::new();
        for drain in &drains {
            for (_, result) in &drain.records {
                match result {
                    Ok(costs) => {
                        ok += 1;
                        reallocations += costs.reallocations;
                        migrations += costs.migrations;
                        tele.cost_exact.record(costs.reallocations);
                        costs_local.record(costs.reallocations);
                    }
                    Err(_) => failed += 1,
                }
            }
        }
        tele.requests_total.add(ok);
        tele.failed_total.add(failed);
        tele.reallocations_total.add(reallocations);
        tele.migrations_total.add(migrations);
        tele.flushes_total.inc();
        tele.flush_events.record(ok + failed);
        if !costs_local.is_empty() {
            tele.realloc_cost.merge(&costs_local);
        }
        tele.publish_cost_gauges();
        tele.active_jobs.set(self.active_count() as u64);
        tele.flush_total.record(tele.now().saturating_sub(start));
        drop(span);
        self.tele = Some(tele);
        BatchReport::from_drains(batch, &drains)
    }

    /// Submits a whole sequence in `batch_size`-request batches, flushing
    /// between batches. Returns `(processed, failed)` totals.
    pub fn ingest(&mut self, seq: &RequestSeq, batch_size: usize) -> (usize, usize) {
        assert!(batch_size >= 1);
        let (mut ok, mut failed) = (0usize, 0usize);
        for chunk in seq.requests().chunks(batch_size) {
            let route_start = self.tele.as_ref().map(|t| t.now());
            for &r in chunk {
                self.submit(r);
            }
            if let Some(t0) = route_start {
                let tele = self.tele.as_mut().expect("stamped above");
                let took = tele.now().saturating_sub(t0);
                tele.route.record(took);
            }
            let report = self.flush();
            ok += report.processed();
            failed += report.failed();
        }
        (ok, failed)
    }

    /// Jobs currently scheduled, across all shards.
    pub fn active_count(&self) -> usize {
        self.shards.iter().map(|s| lock(s).active_count()).sum()
    }

    /// Original window of an active job (on whichever shard holds it).
    pub fn window_of(&self, id: JobId) -> Option<Window> {
        lock(&self.shards[self.router.route(id)]).window_of(id)
    }

    /// Completed flushes.
    pub fn batches(&self) -> u64 {
        self.batches
    }

    /// Point-in-time telemetry snapshot. Lifetime totals include shards
    /// retired by resizes (the carryover); per-shard rows are live
    /// shards only.
    pub fn metrics(&self) -> Metrics {
        Metrics::collect(&self.shards, &self.carry, self.router.epoch())
    }

    /// The journal, when enabled in the config.
    pub fn journal(&self) -> Option<&Journal> {
        self.journal.as_ref()
    }

    // ------------------------------------------------------------------
    // Durable tee (see `DurabilitySink`)
    // ------------------------------------------------------------------

    /// Attaches a durable store under the journal: from now on every
    /// flushed batch, epoch record, and checkpoint is tee'd to `sink`,
    /// and [`Engine::flush_durable`] group-commits. Requires the
    /// in-memory journal ([`EngineConfig::journal`]) — the sink mirrors
    /// its stream. Replaces any previous sink and clears a sticky
    /// durability error.
    pub fn attach_durability(&mut self, sink: Box<dyn DurabilitySink>) -> Result<(), String> {
        if self.journal.is_none() {
            return Err(
                "durable store requires the in-memory journal (EngineConfig::journal)".to_string(),
            );
        }
        self.sink = Some(sink);
        self.durability_error = None;
        Ok(())
    }

    /// Detaches and returns the durable sink (e.g. to inspect or close
    /// it); the engine reverts to in-memory-only journaling.
    pub fn detach_durability(&mut self) -> Option<Box<dyn DurabilitySink>> {
        self.sink.take()
    }

    /// Whether a durable sink is currently attached.
    pub fn has_durability(&self) -> bool {
        self.sink.is_some()
    }

    /// The first durable-sink failure, if any. Sticky: once set, teeing
    /// has stopped and [`Engine::flush_durable`] fails until a fresh
    /// sink is attached. In-memory serving is unaffected.
    pub fn durability_error(&self) -> Option<&str> {
        self.durability_error.as_deref()
    }

    /// The attached sink's group-commit handle, for front-ends that wait
    /// for durability after releasing their engine lock: flush, take the
    /// handle (which also surfaces an append failure of that flush), and
    /// call [`GroupCommit::commit_through`] with the report's batch
    /// number. `Ok(None)` means the sink commits in-lock only (use
    /// [`Engine::flush_durable`]); `Err` means no sink is attached or the
    /// sticky durability error is set.
    pub fn group_commit(&self) -> Result<Option<Arc<dyn GroupCommit>>, String> {
        let Some(sink) = &self.sink else {
            return Err("no durable store attached (Engine::attach_durability)".to_string());
        };
        if let Some(e) = &self.durability_error {
            return Err(e.clone());
        }
        Ok(sink.group_commit())
    }

    /// [`Engine::flush`] with a durability barrier: services everything
    /// queued, tees the batch to the attached sink, and group-commits
    /// (one fsync per flush at most, however many events it carried —
    /// through the sink's [`GroupCommit`] handle when it has one, else
    /// [`DurabilitySink::sync`]). `Ok` therefore means *this batch
    /// survives a crash*. Fails when no sink is attached, when a
    /// previous tee already failed (sticky), or when the commit itself
    /// fails; the in-memory flush still happened in every error case.
    pub fn flush_durable(&mut self) -> Result<BatchReport, String> {
        let report = self.flush();
        let group = self.group_commit()?;
        // The flush consumed `pending_trace`; look the batch's context
        // back up so the group-commit fsync lands in the same trace.
        let trace = self.trace_of_batch(report.batch);
        let span = self.tele.as_ref().map(|tele| match trace {
            Some(tc) => tele.t.span_in(tc, "fsync", report.batch),
            None => tele.t.span("fsync", report.batch),
        });
        let synced = match group {
            Some(group) => group.commit_through(report.batch),
            None => self.sink.as_mut().expect("group_commit checked").sync(),
        };
        drop(span);
        if let Err(e) = synced {
            self.durability_fail(e.clone());
            return Err(e);
        }
        Ok(report)
    }

    /// Dispatches on [`FlushMode`] — one entry point for front-ends
    /// whose flush policy is configuration. `Ok(None)` only occurs in
    /// [`FlushMode::Coalesced`] and means the queued requests were
    /// accepted but deferred to a later flush; `Err` only occurs in
    /// [`FlushMode::Durable`] and carries the sink failure (the
    /// in-memory flush still happened).
    pub fn flush_batch(&mut self, mode: FlushMode) -> Result<Option<BatchReport>, String> {
        match mode {
            FlushMode::Immediate => Ok(Some(self.flush())),
            FlushMode::Coalesced => Ok(self.flush_coalesced()),
            FlushMode::Durable => self.flush_durable().map(Some),
        }
    }

    /// [`Engine::flush_batch`] carrying a sampled request's causal
    /// trace context as batch *metadata*: the flush's trace-ring spans
    /// (`queue`/`flush`/`fsync`) record under the trace id, and
    /// replication stamping annotates the frame that ships the batch.
    /// The context is runtime-only — it never enters journal text,
    /// snapshots, or digested state, so traced and untraced runs are
    /// byte-identical on the replication wire's digested content. A
    /// coalescing deferral keeps the context armed for the flush that
    /// eventually services the queue.
    pub fn flush_batch_traced(
        &mut self,
        mode: FlushMode,
        trace: Option<TraceCtx>,
    ) -> Result<Option<BatchReport>, String> {
        if let Some(tc) = trace {
            self.arm_trace(tc);
        }
        self.flush_batch(mode)
    }

    /// Arms a causal trace context for the next flush without flushing —
    /// for embedders whose flush is driven elsewhere (e.g. a replication
    /// group wrapping this engine). Equivalent to the trace half of
    /// [`Engine::flush_batch_traced`]; a later arm before the flush
    /// happens replaces the earlier context.
    pub fn arm_trace(&mut self, trace: TraceCtx) {
        self.pending_trace = Some(trace);
    }

    /// Every active job's `(shard, machine, slot)` placement, sorted by
    /// job id — the global schedule view used by equivalence tests and
    /// debugging tools.
    pub fn placements(&self) -> Vec<(JobId, usize, Placement)> {
        let mut out: Vec<(JobId, usize, Placement)> = self
            .shards
            .iter()
            .flat_map(|s| {
                let s = lock(s);
                s.snapshot()
                    .iter()
                    .map(|(id, p)| (id, s.id(), p))
                    .collect::<Vec<_>>()
            })
            .collect();
        out.sort_by_key(|&(id, _, _)| id);
        out
    }

    /// Total netted costs serviced across shards (journal-free view of
    /// the headline numbers), resize carryover included.
    pub fn total_costs(&self) -> Costs {
        Costs {
            reallocations: self.carry.reallocations
                + self
                    .shards
                    .iter()
                    .map(|s| lock(s).total_reallocations())
                    .sum::<u64>(),
            migrations: self.carry.migrations
                + self
                    .shards
                    .iter()
                    .map(|s| lock(s).total_migrations())
                    .sum::<u64>(),
        }
    }

    /// Full engine invariant check: every shard's schedule validates
    /// against its active windows (placements in-window, no collisions,
    /// machines in range — [`realloc_core::schedule::validate`]) and
    /// every active job routes to the shard that holds it under the
    /// current table. The post-condition of every flush and every resize.
    pub fn validate(&self) -> Result<(), String> {
        for (i, cell) in self.shards.iter().enumerate() {
            let shard = lock(cell);
            let active: BTreeMap<JobId, Window> = shard.active_jobs().into_iter().collect();
            realloc_core::schedule::validate(
                &shard.snapshot(),
                &active,
                self.cfg.machines_per_shard,
            )
            .map_err(|e: ValidationError| format!("shard {i}: {e}"))?;
            for &id in active.keys() {
                let routed = self.router.route(id);
                if routed != i {
                    return Err(format!(
                        "job {id} lives on shard {i} but routes to {routed} at epoch {}",
                        self.router.epoch()
                    ));
                }
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Elastic resharding
    // ------------------------------------------------------------------

    /// Resizes the engine to `new_shards` shards **online**: every active
    /// job is snapshot-shipped into the shard the new routing table
    /// assigns it, pending (unflushed) queue entries are re-routed
    /// without loss, telemetry totals are carried over, the worker pool
    /// is rebuilt for the new shard count, and — when the journal is
    /// enabled — an epoch record is appended so replay and recovery
    /// re-apply the same resize at the same position.
    ///
    /// Tenant pins that still fit the new shard range are kept; pins to
    /// shards `>= new_shards` are dropped (those tenants fall back to
    /// hash routing).
    ///
    /// The rebuild is **all-or-nothing**: jobs are re-placed into a fresh
    /// shard set in a canonical order (ascending window span, then start,
    /// then id — the order with the strongest acceptance guarantee for
    /// the reservation schedulers), and if any job cannot be placed (a
    /// shrink can concentrate load beyond a shard's capacity) the engine
    /// is left exactly as it was and [`ResizeError::Infeasible`] is
    /// returned.
    pub fn resize(&mut self, new_shards: usize) -> Result<ResizeReport, ResizeError> {
        let table = self.router.retarget(new_shards)?;
        self.reshard(table)
    }

    /// Tenant-aware rebalancing: when one tenant dominates the active set
    /// (≥ [`Engine::REBALANCE_SHARE`] of all active jobs) and is not
    /// already pinned, grows the engine by one shard and pins that
    /// tenant to it. The whale's jobs stop consuming the density budgets
    /// of every hash shard (under hash routing a heavy tenant's jobs
    /// spread everywhere, crowding other tenants toward capacity
    /// rejections), and hash traffic keeps the old shards to itself.
    ///
    /// Returns `Ok(None)` when no tenant qualifies — rebalancing is a
    /// no-op on balanced traffic, so it is safe to call periodically.
    pub fn rebalance(&mut self) -> Result<Option<ResizeReport>, ResizeError> {
        let mut per_tenant: BTreeMap<u64, usize> = BTreeMap::new();
        let mut total = 0usize;
        for cell in &self.shards {
            for (id, _) in lock(cell).active_jobs() {
                *per_tenant.entry(tenant_of(id)).or_insert(0) += 1;
                total += 1;
            }
        }
        // Largest tenant; ties broken toward the smallest id (BTreeMap
        // iteration order + strict `>`), so the choice is deterministic.
        let Some((&whale, &count)) = per_tenant
            .iter()
            .max_by(|a, b| (a.1, std::cmp::Reverse(a.0)).cmp(&(b.1, std::cmp::Reverse(b.0))))
        else {
            return Ok(None);
        };
        if (count as f64) < Self::REBALANCE_SHARE * total as f64 {
            return Ok(None);
        }
        if self.router.pin_of(whale).is_some() {
            return Ok(None); // already isolated
        }
        let dedicated = self.router.shards();
        let table = self
            .router
            .retarget(dedicated + 1)?
            .with_pin(whale, dedicated)?;
        let report = self.reshard(table)?;
        if let Some(tele) = &mut self.tele {
            tele.rebalance_pins_total.inc();
            // A whale pin is worth surfacing: it reshapes routing for
            // everyone else.
            tele.t
                .point(Severity::Warn, "rebalance_pin", whale, dedicated as u64);
        }
        Ok(Some(report))
    }

    /// Active-set share above which [`Engine::rebalance`] isolates a
    /// tenant onto a dedicated shard.
    pub const REBALANCE_SHARE: f64 = 0.5;

    /// Adopts `table` (epoch bumped past the current one) and physically
    /// re-homes all state. See [`Engine::resize`] for the contract; this
    /// is also the replay path for journal epoch records, which is why
    /// everything here must be a pure function of the engine state and
    /// the table.
    fn reshard(&mut self, mut table: Router) -> Result<ResizeReport, ResizeError> {
        table.commit(&self.router);
        self.reshard_at(table)
    }

    /// [`Engine::reshard`] with the epoch taken from `table` verbatim
    /// (journal replay re-applies recorded epochs rather than
    /// recounting).
    fn reshard_at(&mut self, table: Router) -> Result<ResizeReport, ResizeError> {
        // Gather every active job with its current home, then re-place
        // into a fresh shard set in canonical order. The old shards stay
        // untouched until the rebuild fully succeeds.
        let mut jobs: Vec<(JobId, Window, usize)> = Vec::new();
        for (i, cell) in self.shards.iter().enumerate() {
            for (id, w) in lock(cell).active_jobs() {
                jobs.push((id, w, i));
            }
        }
        jobs.sort_by_key(|&(id, w, _)| (w.span(), w.start(), id));
        let mut fresh: Vec<Shard> = (0..table.shards())
            .map(|i| Shard::new(i, self.cfg.backend, self.cfg.machines_per_shard))
            .collect();
        let mut moved = 0usize;
        for &(id, window, old_home) in &jobs {
            let home = table.route(id);
            fresh[home]
                .adopt(id, window)
                .map_err(|source| ResizeError::Infeasible {
                    job: id,
                    shard: home,
                    detail: source.to_string(),
                })?;
            if home != old_home {
                moved += 1;
            }
        }
        // Re-route pending queue entries: old shards in index order, each
        // queue FIFO. Two requests for the same job were queued on the
        // same old shard (routing is per-id), so their relative order —
        // the only order that affects outcomes — survives.
        let mut queued = 0usize;
        for cell in &self.shards {
            for request in lock(cell).take_queue() {
                fresh[table.route(request.job_id())].enqueue(request);
                queued += 1;
            }
        }
        // Point of no return: retire the old shards into the carryover
        // and swap in the new set, table, and pool.
        for cell in &self.shards {
            self.carry.absorb(&lock(cell));
        }
        let report = ResizeReport {
            epoch: table.epoch(),
            from_shards: self.router.shards(),
            to_shards: table.shards(),
            jobs: jobs.len(),
            jobs_moved: moved,
            queued_preserved: queued,
        };
        self.shards = fresh.into_iter().map(|s| Arc::new(Mutex::new(s))).collect();
        self.cfg.shards = table.shards();
        self.router = table;
        self.pool = Self::build_pool(&self.cfg, &self.shards);
        if self.pool.is_none() && self.pool_forced {
            self.pool = Self::forced_pool(&self.shards);
        }
        if let Some(journal) = &mut self.journal {
            journal.append_epoch(EpochRecord::of(&self.router));
            if self.sink.is_some() && self.durability_error.is_none() {
                let record = EpochRecord::of(&self.router);
                let result = self
                    .sink
                    .as_mut()
                    .expect("checked presence")
                    .append_epoch(&record);
                if let Err(e) = result {
                    self.durability_fail(e);
                }
            }
        }
        // Fresh shards start uninstrumented: re-install drain handles
        // and publish the resize before returning.
        self.apply_shard_tele();
        if let Some(tele) = &mut self.tele {
            tele.resizes_total.inc();
            tele.epoch.set(report.epoch);
            tele.shards.set(report.to_shards as u64);
            tele.active_jobs.set(report.jobs as u64);
            tele.t.point(
                Severity::Info,
                "epoch",
                report.epoch,
                report.to_shards as u64,
            );
        }
        Ok(report)
    }

    /// Applies a recorded epoch record: validates that the epoch
    /// advances, rebuilds the routing table, and reshards exactly as the
    /// engine that recorded it did. This is the replication/replay apply
    /// path — journal replay and cluster replicas both re-apply resizes
    /// through it, so a stream that crosses a resize lands on
    /// byte-identical placements.
    pub fn apply_epoch_record(&mut self, record: &EpochRecord) -> Result<(), ReplayError> {
        self.apply_epoch(record)
            .map_err(|message| ReplayError::Corrupt(ParseError { line: 0, message }))
    }

    /// Applies one recorded **batch** of journal events, exactly as a
    /// replica or replay must: every event of one flush, in recorded
    /// order, serviced at the recorded batch number, with each produced
    /// outcome verified against the recording (shard routing, request,
    /// and netted costs — any mismatch is a [`ReplayError::Divergence`],
    /// whose `index` is the offset *within this slice*).
    ///
    /// Preconditions (violations are graceful [`ReplayError::Corrupt`]
    /// errors, never panics — frames arrive over the network):
    /// * the journal is enabled (outcome verification reads it back),
    /// * `recorded` is non-empty and single-batch, at a batch number not
    ///   yet used by this engine (batch numbers only move forward),
    /// * no locally queued requests (they would be swept into the
    ///   recorded batch and corrupt the comparison).
    pub fn apply_recorded_batch(&mut self, recorded: &[JournalEvent]) -> Result<(), ReplayError> {
        let corrupt = |message: String| ReplayError::Corrupt(ParseError { line: 0, message });
        let Some(first) = recorded.first() else {
            return Err(corrupt("recorded batch is empty".to_string()));
        };
        if self.journal.is_none() {
            return Err(corrupt(
                "recorded batches need the journal enabled to verify outcomes".to_string(),
            ));
        }
        let batch = first.batch;
        if recorded.iter().any(|e| e.batch != batch) {
            return Err(corrupt(format!(
                "recorded batch mixes flush numbers (first is {batch})"
            )));
        }
        if batch < self.batches {
            return Err(corrupt(format!(
                "recorded batch {batch} regresses the flush counter {}",
                self.batches
            )));
        }
        if batch == u64::MAX {
            // Servicing at this number would overflow the counter's
            // post-flush increment; no honest recording gets here.
            return Err(corrupt(
                "recorded batch number overflows the flush counter".to_string(),
            ));
        }
        if self.queued() > 0 {
            return Err(corrupt(format!(
                "{} locally queued requests would be swept into recorded batch {batch}",
                self.queued()
            )));
        }
        // Service the batch at the recorded flush number, then verify
        // what the journal appended against the recording.
        self.batches = batch;
        for e in recorded {
            self.submit(e.request);
        }
        self.flush();
        let journal = self.journal.as_ref().expect("checked above");
        let tail = journal.tail_events();
        debug_assert!(
            tail.len() >= recorded.len(),
            "flush appends one event per submit"
        );
        let replayed = &tail[tail.len() - recorded.len()..];
        for (i, (rec, got)) in recorded.iter().zip(replayed).enumerate() {
            if rec != got {
                return Err(ReplayError::Divergence(Box::new(ReplayDivergence {
                    index: i,
                    recorded: *rec,
                    replayed: Some(*got),
                })));
            }
        }
        Ok(())
    }

    /// Cheap, stable 64-bit digest of the full engine state: FNV-1a over
    /// the canonical snapshot text ([`realloc_core::snapshot::digest64`]).
    /// Two engines with byte-identical state have equal digests, so a
    /// replica can verify it has not diverged from its primary by
    /// comparing 8 bytes per checkpoint instead of shipping snapshots.
    /// Detects drift and corruption; not an authenticator.
    pub fn state_digest(&self) -> u64 {
        realloc_core::snapshot::digest64(&self.snapshot_text())
    }

    /// Applies a journal epoch record during replay/recovery: validates
    /// the epoch advances, rebuilds the table, and reshards exactly as
    /// the recorded engine did.
    pub(crate) fn apply_epoch(&mut self, record: &EpochRecord) -> Result<(), String> {
        if record.epoch <= self.router.epoch() {
            return Err(format!(
                "epoch record {} does not advance the current epoch {}",
                record.epoch,
                self.router.epoch()
            ));
        }
        let table = Router::from_parts(record.epoch, record.shards, record.pins.iter().copied())
            .map_err(|e| e.to_string())?;
        self.reshard_at(table).map_err(|e| e.to_string())?;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Checkpointing & recovery
    // ------------------------------------------------------------------

    /// Takes a checkpoint: flushes anything still queued (recorded as an
    /// ordinary batch), snapshots the **full engine state** — every
    /// shard's scheduler, active set, and telemetry — into the journal
    /// as a checkpoint record, and drops sealed journal segments beyond
    /// [`EngineConfig::retained_segments`].
    ///
    /// After a checkpoint, [`Engine::recover`] rebuilds this exact state
    /// from the serialized journal by restoring the snapshot and
    /// replaying only the tail — O(tail) instead of O(history). No-op
    /// when the journal is disabled (there is nowhere to anchor the
    /// checkpoint). Returns whether a checkpoint was recorded.
    pub fn checkpoint(&mut self) -> bool {
        if self.journal.is_none() {
            return false;
        }
        let t0 = self.tele.as_ref().map(|t| t.now());
        if self.queued() > 0 {
            self.flush();
        }
        let snapshot = self.snapshot_text();
        let batches = self.batches;
        self.journal
            .as_mut()
            .expect("checked above")
            .checkpoint(snapshot, batches);
        if self.sink.is_some() && self.durability_error.is_none() {
            // Tee the checkpoint the journal just cut (borrowed, not
            // cloned — snapshots run to megabytes).
            let failed = {
                let journal = self.journal.as_ref().expect("checked above");
                let cp = journal
                    .latest_checkpoint()
                    .expect("checkpoint() just sealed one");
                self.sink
                    .as_mut()
                    .expect("checked presence")
                    .checkpoint(cp)
                    .err()
            };
            if let Some(e) = failed {
                self.durability_fail(e);
            }
        }
        if let Some(tele) = &mut self.tele {
            let took = tele.now().saturating_sub(t0.expect("stamped above"));
            tele.checkpoints_total.inc();
            tele.checkpoint_nanos.record(took);
            tele.t.point(Severity::Info, "checkpoint", batches, took);
        }
        true
    }

    /// Restores an engine from a snapshot document produced by
    /// [`realloc_core::Restorable::snapshot_text`] — the "snapshot,
    /// ship, restore" path for shard/engine migration.
    pub fn restore_snapshot(text: &str) -> Result<Engine, ParseError> {
        <Engine as Restorable>::restore(text)
    }

    /// Recovers an engine from serialized journal text read from
    /// `reader`: parse, restore the latest checkpoint, replay only the
    /// tail with full divergence detection, and resume with the journal
    /// attached (recording continues where the recording left off).
    ///
    /// Equivalent to a full [`Journal::replay`] in outcome — placements,
    /// metrics, and telemetry are byte-identical — but O(tail) in time.
    pub fn recover<R: std::io::Read>(mut reader: R) -> Result<Engine, RecoverError> {
        let mut text = String::new();
        reader.read_to_string(&mut text)?;
        let journal = Journal::from_text(&text)?;
        Ok(journal.recover_engine()?)
    }

    /// Replaces the journal with a fresh, empty one (replay bookkeeping).
    /// An engine already past epoch 0 seeds the new journal with an
    /// epoch record at position zero, so the fresh recording is
    /// self-describing: its replay starts at the journal header's shard
    /// count and immediately applies the live routing table (a no-op
    /// re-home of an empty genesis engine).
    pub(crate) fn reset_journal(&mut self) {
        let mut cfg = self.cfg.clone();
        cfg.journal = true;
        self.cfg.journal = true;
        let mut journal = Journal::new(cfg);
        if !self.router.is_genesis() {
            journal.append_epoch(EpochRecord::of(&self.router));
        }
        self.journal = Some(journal);
    }

    /// Attaches an existing journal (recovery hands the recovered engine
    /// its own history so recording continues seamlessly). Truncation
    /// behavior must follow the restored configuration — the serialized
    /// journal header's retention cap, not the parser's default — so the
    /// cap is re-anchored here; the journal's own config (the *genesis*
    /// shard count, which can differ from the current one after resizes)
    /// is otherwise left alone.
    pub(crate) fn attach_journal(&mut self, mut journal: Journal) {
        self.cfg.journal = true;
        journal.set_retention(self.cfg.retained_segments);
        self.journal = Some(journal);
    }

    /// Ensures the flush counter is strictly past `batch`, so the next
    /// flush never reuses a batch number that already has recorded
    /// events (see `Journal::replay_from`).
    pub(crate) fn bump_batches_past(&mut self, batch: u64) {
        self.batches = self.batches.max(batch.saturating_add(1));
    }
}

/// What one [`Engine::resize`] / [`Engine::rebalance`] did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ResizeReport {
    /// The routing epoch the engine now serves at.
    pub epoch: u64,
    /// Shard count before the resize.
    pub from_shards: usize,
    /// Shard count after.
    pub to_shards: usize,
    /// Active jobs re-placed during the rebuild.
    pub jobs: usize,
    /// Jobs whose home shard actually changed.
    pub jobs_moved: usize,
    /// Pending queue entries carried across (never dropped).
    pub queued_preserved: usize,
}

/// Why a resize was refused. The engine is left exactly as it was.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ResizeError {
    /// The requested routing table was invalid (zero shards, pins out of
    /// range or covering every shard).
    Router(RouterError),
    /// A job could not be re-placed on its new shard (shrinking
    /// concentrated more load than the shard's backend can hold).
    Infeasible {
        /// The job that failed to place.
        job: JobId,
        /// The shard it routed to.
        shard: usize,
        /// The backend's rejection.
        detail: String,
    },
}

impl From<RouterError> for ResizeError {
    fn from(e: RouterError) -> Self {
        ResizeError::Router(e)
    }
}

impl std::fmt::Display for ResizeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResizeError::Router(e) => write!(f, "resize rejected: {e}"),
            ResizeError::Infeasible { job, shard, detail } => write!(
                f,
                "resize infeasible: job {job} does not fit shard {shard} ({detail}); \
                 engine unchanged"
            ),
        }
    }
}

impl std::error::Error for ResizeError {}

/// Why [`Engine::recover`] failed.
#[derive(Debug)]
pub enum RecoverError {
    /// The reader failed.
    Io(std::io::Error),
    /// The journal text failed to parse.
    Journal(ParseError),
    /// The checkpoint was corrupt or the tail replay diverged.
    Replay(ReplayError),
}

impl From<std::io::Error> for RecoverError {
    fn from(e: std::io::Error) -> Self {
        RecoverError::Io(e)
    }
}

impl From<ParseError> for RecoverError {
    fn from(e: ParseError) -> Self {
        RecoverError::Journal(e)
    }
}

impl From<ReplayError> for RecoverError {
    fn from(e: ReplayError) -> Self {
        RecoverError::Replay(e)
    }
}

impl std::fmt::Display for RecoverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoverError::Io(e) => write!(f, "recovery read failed: {e}"),
            RecoverError::Journal(e) => write!(f, "journal parse failed: {e}"),
            RecoverError::Replay(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for RecoverError {}

impl Restorable for Engine {
    const SNAPSHOT_KIND: &'static str = "engine";

    fn write_state(&self, w: &mut SnapshotWriter) {
        w.line(format_args!(
            "c {} {} {} {} {} {} {}",
            self.cfg.shards,
            self.cfg.machines_per_shard,
            self.cfg.backend,
            self.cfg.parallel as u8,
            self.cfg.journal as u8,
            self.cfg.retained_segments,
            self.batches
        ));
        // Resize carryover: totals line + histogram (header + non-empty
        // buckets), mirroring the per-shard telemetry encoding.
        w.line(format_args!(
            "t {} {} {} {}",
            self.carry.requests, self.carry.failed, self.carry.reallocations, self.carry.migrations
        ));
        let (count, sum, max, overflow) = self.carry.hist.parts();
        w.line(format_args!("h {count} {sum} {max} {overflow}"));
        for (cost, n) in self.carry.hist.nonzero_buckets() {
            w.line(format_args!("hb {cost} {n}"));
        }
        w.child(&self.router);
        for shard in &self.shards {
            lock(shard).write_state(w);
        }
    }

    fn read_state(node: &SnapshotNode) -> Result<Self, ParseError> {
        node.expect_kind(Self::SNAPSHOT_KIND)?;
        let mut header: Option<(EngineConfig, u64)> = None;
        // Carryover lines are optional: snapshots recorded before elastic
        // resharding existed have neither, and restore to zero carryover.
        let mut carry_totals: Option<(u64, u64, u64, u64)> = None;
        let mut carry_hist: Option<(u64, u64, u64, u64)> = None;
        let mut carry_buckets: Vec<(usize, u64)> = Vec::new();
        for (line, content) in &node.lines {
            let mut f = Fields::of(*line, content);
            match f.token("op")? {
                "t" => {
                    if carry_totals.is_some() {
                        return Err(f.err("duplicate 't' carryover line"));
                    }
                    let v = (
                        f.u64("carryover requests")?,
                        f.u64("carryover failed")?,
                        f.u64("carryover reallocations")?,
                        f.u64("carryover migrations")?,
                    );
                    f.finish()?;
                    carry_totals = Some(v);
                }
                "h" => {
                    if carry_hist.is_some() {
                        return Err(f.err("duplicate 'h' carryover histogram line"));
                    }
                    let v = (
                        f.u64("count")?,
                        f.u64("sum")?,
                        f.u64("max")?,
                        f.u64("overflow")?,
                    );
                    f.finish()?;
                    carry_hist = Some(v);
                }
                "hb" => {
                    let cost = f.usize("bucket cost")?;
                    let n = f.u64("bucket count")?;
                    f.finish()?;
                    carry_buckets.push((cost, n));
                }
                "c" => {
                    if header.is_some() {
                        return Err(f.err("duplicate 'c' config line"));
                    }
                    let shards = f.usize("shards")?;
                    let machines_per_shard = f.usize("machines per shard")?;
                    let backend_raw = f.token("backend")?;
                    let backend = match BackendKind::parse(backend_raw) {
                        Ok(b) => b,
                        Err(msg) => return Err(f.err(msg)),
                    };
                    let parallel = f.u64("parallel flag")? != 0;
                    let journal = f.u64("journal flag")? != 0;
                    let retained_segments = f.usize("retained segments")?;
                    let batches = f.u64("batches")?;
                    f.finish()?;
                    if shards == 0 {
                        return Err(f.err("engine needs at least one shard"));
                    }
                    if machines_per_shard == 0 {
                        return Err(f.err("shards need at least one machine"));
                    }
                    header = Some((
                        EngineConfig {
                            shards,
                            machines_per_shard,
                            backend,
                            parallel,
                            journal,
                            retained_segments,
                        },
                        batches,
                    ));
                }
                other => {
                    return Err(ParseError {
                        line: *line,
                        message: format!("unknown engine snapshot op '{other}'"),
                    })
                }
            }
        }
        let (cfg, batches) = header.ok_or(ParseError {
            line: 0,
            message: "engine snapshot has no 'c' config line".to_string(),
        })?;
        let carry = match (carry_totals, carry_hist) {
            (None, None) if carry_buckets.is_empty() => Carryover::default(),
            (Some((requests, failed, reallocations, migrations)), Some((cn, cs, cm, co))) => {
                // Untrusted-snapshot arithmetic is checked, not trusted:
                // a forged carryover near u64::MAX would overflow the
                // carry + live-shard sums in `metrics`/`total_costs`.
                // 2^48 is absurd headroom for real lifetimes and leaves
                // 2^16 of summation slack.
                const CARRY_LIMIT: u64 = u64::MAX >> 16;
                for (what, v) in [
                    ("requests", requests),
                    ("failed", failed),
                    ("reallocations", reallocations),
                    ("migrations", migrations),
                    ("histogram count", cn),
                    ("histogram sum", cs),
                ] {
                    if v > CARRY_LIMIT {
                        return Err(ParseError {
                            line: 0,
                            message: format!("carryover {what} {v} exceeds the sanity bound"),
                        });
                    }
                }
                let hist =
                    crate::metrics::CostHistogram::from_parts(cn, cs, cm, co, &carry_buckets)
                        .map_err(|message| ParseError {
                            line: 0,
                            message: format!("carryover histogram: {message}"),
                        })?;
                // Retired shards uphold requests == histogram count, so
                // their union must too.
                if requests != hist.count() {
                    return Err(ParseError {
                        line: 0,
                        message: format!(
                            "carryover records {requests} requests but the histogram holds {}",
                            hist.count()
                        ),
                    });
                }
                Carryover {
                    requests,
                    failed,
                    reallocations,
                    migrations,
                    hist,
                }
            }
            _ => {
                return Err(ParseError {
                    line: 0,
                    message: "carryover 't'/'h' lines must appear together".to_string(),
                })
            }
        };
        // The router section is optional for the same reason: earlier
        // snapshots predate it, and their engines were always at the
        // genesis table for their recorded shard count.
        let router = match node.children_of(Router::SNAPSHOT_KIND).next() {
            Some(rn) => {
                let router = Router::read_state(rn)?;
                if router.shards() != cfg.shards {
                    return Err(ParseError {
                        line: 0,
                        message: format!(
                            "router table covers {} shards but the engine config says {}",
                            router.shards(),
                            cfg.shards
                        ),
                    });
                }
                router
            }
            None => Router::new(cfg.shards),
        };
        let shard_nodes: Vec<&SnapshotNode> = node.children_of("shard").collect();
        if shard_nodes.len() != cfg.shards {
            return Err(ParseError {
                line: 0,
                message: format!(
                    "engine snapshot declares {} shards but embeds {} shard sections",
                    cfg.shards,
                    shard_nodes.len()
                ),
            });
        }
        let mut shards: Vec<Arc<Mutex<Shard>>> = Vec::with_capacity(cfg.shards);
        for (i, sn) in shard_nodes.into_iter().enumerate() {
            let shard = Shard::read_state(cfg.backend, cfg.machines_per_shard, sn)?;
            if shard.id() != i {
                return Err(ParseError {
                    line: 0,
                    message: format!("shard sections out of order: found {} at {i}", shard.id()),
                });
            }
            shards.push(Arc::new(Mutex::new(shard)));
        }
        let pool = Self::build_pool(&cfg, &shards);
        let journal = cfg.journal.then(|| {
            let mut journal = Journal::new(cfg.clone());
            if !router.is_genesis() {
                journal.append_epoch(EpochRecord::of(&router));
            }
            journal
        });
        Ok(Engine {
            cfg,
            router,
            shards,
            carry,
            pool,
            pool_forced: false,
            journal,
            batches,
            sink: None,
            durability_error: None,
            tele: None,
            coalesce: None,
            deferred: 0,
            pending_trace: None,
            flush_traces: BTreeMap::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use realloc_core::Window;

    fn engine(shards: usize, parallel: bool) -> Engine {
        Engine::new(EngineConfig {
            shards,
            parallel,
            journal: true,
            ..EngineConfig::default()
        })
    }

    #[test]
    fn submit_routes_deletes_to_the_inserting_shard() {
        let mut e = engine(8, false);
        for i in 0..200u64 {
            e.submit(Request::Insert {
                id: JobId(i),
                window: Window::new(0, 1 << 12),
            });
        }
        assert_eq!(e.queued(), 200);
        let report = e.flush();
        assert_eq!(report.processed(), 200);
        assert_eq!(report.failed(), 0);
        for i in 0..200u64 {
            e.submit(Request::Delete { id: JobId(i) });
        }
        let report = e.flush();
        assert_eq!(report.processed(), 200, "failures: {:?}", report.failures);
        assert_eq!(e.active_count(), 0);
    }

    #[test]
    fn tenants_are_namespaced() {
        let mut e = engine(4, false);
        let w = Window::new(0, 64);
        let a = e
            .submit_for(
                TenantId(1),
                Request::Insert {
                    id: JobId(7),
                    window: w,
                },
            )
            .unwrap();
        let b = e
            .submit_for(
                TenantId(2),
                Request::Insert {
                    id: JobId(7),
                    window: w,
                },
            )
            .unwrap();
        assert_ne!(a, b, "same external id, different tenants");
        let report = e.flush();
        assert_eq!(report.processed(), 2);
        assert_eq!(e.active_count(), 2);
        // Oversized external ids are rejected up front.
        let big = JobId(1 << TENANT_SHIFT);
        assert!(e
            .submit_for(TenantId(1), Request::Delete { id: big })
            .is_err());
        // The reserved tenant 0 (aliasing the direct submit() space) too.
        assert!(e
            .submit_for(TenantId(0), Request::Delete { id: JobId(7) })
            .is_err());
    }

    #[test]
    fn parallel_flush_matches_sequential() {
        let build = |parallel| {
            let mut e = engine(6, parallel);
            for i in 0..300u64 {
                e.submit(Request::Insert {
                    id: JobId(i),
                    window: Window::new((i % 4) * 256, (i % 4) * 256 + 256),
                });
            }
            e.flush();
            for i in (0..300u64).step_by(3) {
                e.submit(Request::Delete { id: JobId(i) });
            }
            e.flush();
            e
        };
        let seq = build(false);
        let par = build(true);
        assert_eq!(seq.placements(), par.placements());
        assert_eq!(seq.total_costs(), par.total_costs());
        assert!(seq
            .journal()
            .unwrap()
            .iter_events()
            .eq(par.journal().unwrap().iter_events()));
    }

    #[test]
    fn metrics_aggregate_shard_rows() {
        let mut e = engine(4, false);
        for i in 0..128u64 {
            e.submit(Request::Insert {
                id: JobId(i),
                window: Window::new(0, 1 << 10),
            });
        }
        e.flush();
        let m = e.metrics();
        assert_eq!(m.requests, 128);
        assert_eq!(m.active_jobs, 128);
        assert_eq!(m.shards.len(), 4);
        assert_eq!(m.shards.iter().map(|s| s.requests).sum::<u64>(), 128);
        assert!(
            m.imbalance() < 2.0,
            "router is badly skewed: {}",
            m.imbalance()
        );
    }
}
