//! Per-layer timings from replaying one traced lap's exact inputs
//! through each layer's public functions, one span per call.

use crate::run::Capture;
use crate::trace;
use crate::workload::{engine_config, Plan, GAMMA, MACHINES};
use realloc_cluster::Replica;
use realloc_core::clock::Clock;
use realloc_core::{JobId, Reallocator as _, Request, Window};
use realloc_engine::{Engine, FlushMode, TenantId, TENANT_SHIFT};
use realloc_multi::TheoremOneScheduler;
use realloc_service::{Command, Qos, QosConfig, Reply};

/// Samples in ns, one per call.
#[derive(Default)]
pub struct Layers {
    pub parse_ns: Vec<u64>,
    pub reply_ns: Vec<u64>,
    pub admit_ns: Vec<u64>,
    pub submit_ns: Vec<u64>,
    pub flush_ns: Vec<u64>,
    pub insert_ns: Vec<u64>,
    pub delete_ns: Vec<u64>,
    pub apply_ns: Vec<u64>,
    /// Requests the replayed lap carried (the base of per-request means).
    pub requests: u64,
    /// Scheduler replay totals over the lap: (serviced, reallocations).
    pub sched: (u64, u64),
    /// The same over the stored history the lap started from.
    pub sched_history: (u64, u64),
    /// Replay outputs that disagree with what the served stack did.
    pub checks: Vec<String>,
}

fn timed<T>(name: &'static str, req: u64, into: &mut Vec<u64>, f: impl FnOnce() -> T) -> T {
    let t0 = trace::now();
    let out = std::hint::black_box(f());
    let t1 = trace::now();
    trace::record(name, 0, req, t0, t1);
    into.push(t1 - t0);
    out
}

/// The reply a correct server sends to `cmd`, rebuilt from the command.
fn reply_for(cmd: &Command, expect: &str) -> Option<Reply> {
    let global = |tenant: TenantId, id: JobId| Engine::global_id_of(tenant, id).ok();
    Some(match *cmd {
        Command::Place { tenant, id, .. } => Reply::Placed(global(tenant, id)?),
        Command::Remove { tenant, id } => Reply::Removed(global(tenant, id)?),
        Command::Window { .. } => {
            let mut f = expect.strip_prefix("ok window ")?.split(' ');
            let start = f.next()?.parse().ok()?;
            let end = f.next()?.parse().ok()?;
            Reply::WindowIs(Window::new(start, end))
        }
        Command::Metrics => return None,
    })
}

fn split(id: JobId) -> (TenantId, JobId) {
    (
        TenantId((id.0 >> TENANT_SHIFT) as u16),
        JobId(id.0 & ((1u64 << TENANT_SHIFT) - 1)),
    )
}

pub fn replay(plan: &Plan, cap: &Capture, check_replies: bool) -> Layers {
    let mut l = Layers {
        requests: plan.requests_per_lap() as u64,
        ..Layers::default()
    };

    // service: parse every command, format every reply, admit every write.
    let qos = Qos::new(QosConfig::default(), Clock::monotonic());
    for (i, op) in plan.callers.iter().flat_map(|c| &c.ops).enumerate() {
        let i = i as u64;
        let parsed = timed("proto.parse", i, &mut l.parse_ns, || {
            Command::parse(&op.text)
        });
        let Ok(cmd) = parsed else {
            l.checks.push(format!("'{}' does not parse", op.text));
            continue;
        };
        if let Some(reply) = reply_for(&cmd, &op.expect) {
            let text = timed("proto.reply", i, &mut l.reply_ns, || reply.to_text());
            if check_replies && text != op.expect {
                l.checks.push(format!(
                    "reply '{text}' formats differently from '{}'",
                    op.expect
                ));
            }
        }
        if let Some(tenant) = cmd.tenant().filter(|_| cmd.is_mutation()) {
            let admitted = timed("qos.admit", i, &mut l.admit_ns, || qos.try_admit(tenant.0));
            if admitted.is_err() {
                l.checks
                    .push("the run's QoS config sheds a replayed write".to_string());
            }
        }
    }

    // engine: the lap's exact batches through submit_for + flush_batch.
    let mut engine = match &cap.start_snapshot {
        Some(text) => match Engine::restore_snapshot(text) {
            Ok(e) => e,
            Err(e) => {
                l.checks.push(format!("restore lap start: {e}"));
                return l;
            }
        },
        None => Engine::new(engine_config()),
    };
    let mut batch_start = 0;
    while batch_start < cap.events.len() {
        let batch = cap.events[batch_start].batch;
        let end = cap.events[batch_start..]
            .iter()
            .position(|e| e.batch != batch)
            .map_or(cap.events.len(), |n| batch_start + n);
        let recorded_failures = cap.events[batch_start..end]
            .iter()
            .filter(|e| e.result.is_err())
            .count();
        for e in &cap.events[batch_start..end] {
            let (tenant, request) = match e.request {
                Request::Insert { id, window } => {
                    let (t, id) = split(id);
                    (t, Request::Insert { id, window })
                }
                Request::Delete { id } => {
                    let (t, id) = split(id);
                    (t, Request::Delete { id })
                }
            };
            let submitted = timed("engine.submit", batch, &mut l.submit_ns, || {
                engine.submit_for(tenant, request)
            });
            if let Err(e) = submitted {
                l.checks.push(format!("replayed submit refused: {e}"));
            }
        }
        // The store is timed on its own; the engine replay flushes in memory.
        let flushed = timed("engine.flush", batch, &mut l.flush_ns, || {
            engine.flush_batch(FlushMode::Immediate)
        });
        match flushed {
            Ok(Some(report)) if report.failed() == recorded_failures => {}
            other => l.checks.push(format!(
                "replayed batch {batch} flushed as {:?}, recorded {recorded_failures} failures",
                other.map(|r| r.map(|r| r.failed()))
            )),
        }
        batch_start = end;
    }
    if cap.start_snapshot.is_none() && engine.state_digest() != cap.final_digest {
        l.checks
            .push("replayed engine state differs from the served engine".to_string());
    }

    // sched: each shard's substream through the paper's scheduler.
    let router = Engine::new(engine_config());
    let mut shards: Vec<TheoremOneScheduler> = (0..engine_config().shards)
        .map(|_| TheoremOneScheduler::theorem_one(MACHINES, GAMMA))
        .collect();
    let (mut ok, mut reallocs) = (0u64, 0u64);
    for &(tenant, request) in &plan.prefix {
        let id = Engine::global_id_of(tenant, request.job_id()).expect("valid history ids");
        let s = &mut shards[router.shard_of(id)];
        let outcome = match request {
            Request::Insert { window, .. } => s.insert(id, window),
            Request::Delete { .. } => s.delete(id),
        };
        if let Ok(outcome) = outcome {
            ok += 1;
            reallocs += outcome.netted().reallocation_cost();
        }
    }
    l.sched_history = (ok, reallocs);
    let (mut ok, mut reallocs) = (0u64, 0u64);
    for (i, e) in cap.events.iter().enumerate() {
        let shard = router.shard_of(e.request.job_id());
        if shard != e.shard {
            l.checks.push(format!(
                "event {i} was serviced on shard {} but routes to {shard}",
                e.shard
            ));
        }
        let s = &mut shards[shard];
        let outcome = match e.request {
            Request::Insert { id, window } => {
                timed("sched.insert", i as u64, &mut l.insert_ns, || {
                    s.insert(id, window)
                })
            }
            Request::Delete { id } => {
                timed("sched.delete", i as u64, &mut l.delete_ns, || s.delete(id))
            }
        };
        if let Ok(outcome) = outcome {
            ok += 1;
            reallocs += outcome.netted().reallocation_cost();
        }
    }
    l.sched = (ok, reallocs);
    if l.sched != cap.served {
        l.checks.push(format!(
            "scheduler replay gives {ok} serviced / {reallocs} reallocations, the engine \
             served {} / {}",
            cap.served.0, cap.served.1
        ));
    }

    // cluster: the shipped frames through an in-process replica.
    if let Some(boot) = &cap.boot {
        let mut replica = Replica::new();
        if let Err(e) = replica.apply(boot) {
            l.checks.push(format!("in-process replica bootstrap: {e}"));
            return l;
        }
        for f in &cap.frames {
            let applied = timed("cluster.apply", f.seq, &mut l.apply_ns, || replica.apply(f));
            if let Err(e) = applied {
                l.checks
                    .push(format!("in-process apply of frame {}: {e}", f.seq));
                break;
            }
        }
        if replica.state_digest() != Some(cap.final_digest) {
            l.checks
                .push("in-process replica differs from the primary".to_string());
        }
    }
    l
}
