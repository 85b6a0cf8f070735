//! The three workloads, generated from the seed before anything is
//! timed. The program under test only ever sees the command text; each
//! command carries the exact reply a correct server sends back.

use realloc_core::{JobId, Request, Window};
use realloc_engine::{BackendKind, Engine, EngineConfig, FlushMode, TenantId};
use realloc_workloads::{ChurnConfig, ChurnGenerator};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    ChurnMem,
    DurableMixed,
    RelayStream,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::ChurnMem, Kind::DurableMixed, Kind::RelayStream];

    pub fn name(self) -> &'static str {
        match self {
            Kind::ChurnMem => "churn_mem",
            Kind::DurableMixed => "durable_mixed",
            Kind::RelayStream => "relay_stream",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    pub fn flush(self) -> FlushMode {
        match self {
            Kind::DurableMixed => FlushMode::Durable,
            _ => FlushMode::Immediate,
        }
    }
}

/// Shards, machines and backend shared by every workload.
pub const SHARDS: usize = 4;
pub const MACHINES: usize = 4;
pub const GAMMA: u64 = 8;

pub fn engine_config() -> EngineConfig {
    EngineConfig {
        shards: SHARDS,
        machines_per_shard: MACHINES,
        backend: BackendKind::TheoremOne { gamma: GAMMA },
        parallel: false,
        journal: true,
        retained_segments: 4,
    }
}

/// One client command and the reply a correct server gives it.
#[derive(Clone, Debug)]
pub struct Op {
    pub text: String,
    pub expect: String,
    pub write: bool,
}

/// One connection's closed-loop stream.
#[derive(Clone, Debug)]
pub struct Caller {
    pub ops: Vec<Op>,
}

/// Everything one run sends, fixed by the seed.
#[derive(Clone, Debug)]
pub struct Plan {
    pub kind: Kind,
    /// Commands in flight per connection.
    pub depth: usize,
    /// The measured stream, one entry per connection. Every lap replays
    /// it from the same starting state.
    pub callers: Vec<Caller>,
    /// `window` reads sent at the stream's depth after each lap's
    /// measured stream (the workloads whose measured stream has no
    /// reads).
    pub probe: Vec<Op>,
    /// History written to the durable store before the run (untimed),
    /// in the order it was submitted.
    pub prefix: Vec<(TenantId, Request)>,
}

impl Plan {
    pub fn requests_per_lap(&self) -> usize {
        self.callers.iter().map(|c| c.ops.len()).sum()
    }
}

/// Sizes at scale 1.0.
const CHURN_LAP: usize = 30_000;
const PROBE_READS: usize = 512;
const DURABLE_PREFIX: usize = 20_000;
const DURABLE_WRITES: usize = 1_200;

fn scaled(n: usize, scale: f64) -> usize {
    ((n as f64 * scale) as usize).max(16)
}

fn global(tenant: u16, id: JobId) -> u64 {
    Engine::global_id_of(TenantId(tenant), id)
        .expect("generated ids fit the tenant space")
        .0
}

fn write_op(tenant: u16, request: Request) -> Op {
    match request {
        Request::Insert { id, window } => Op {
            text: format!(
                "place {tenant} {} {} {}",
                id.0,
                window.start(),
                window.end()
            ),
            expect: format!("ok placed {}", global(tenant, id)),
            write: true,
        },
        Request::Delete { id } => Op {
            text: format!("remove {tenant} {}", id.0),
            expect: format!("ok removed {}", global(tenant, id)),
            write: true,
        },
    }
}

fn read_op(tenant: u16, id: JobId, window: Window) -> Op {
    Op {
        text: format!("window {tenant} {}", id.0),
        expect: format!("ok window {} {}", window.start(), window.end()),
        write: false,
    }
}

/// Certified-γ churn for the 4×4 engine: ~1k active jobs, spans 1 to
/// 4096, unaligned windows. The density budget is certified for one
/// shard's 4 machines, so hashing jobs over 4 shards never overfills one.
fn churn_generator(seed: u64) -> ChurnGenerator {
    ChurnGenerator::new(
        ChurnConfig {
            machines: MACHINES,
            gamma: GAMMA,
            horizon: 1 << 15,
            spans: vec![1, 4, 16, 64, 256, 1024, 4096],
            target_active: 1024,
            insert_bias: 0.6,
            unaligned: true,
        },
        seed,
    )
}

/// The doctor's office of the paper's introduction (quarter-hour slots,
/// windows of 1 to 16 slots, unaligned, ~20% cancellations) at the
/// density one shard's 4 machines certify, like the churn above.
fn office_generator(seed: u64) -> ChurnGenerator {
    ChurnGenerator::new(
        ChurnConfig {
            machines: MACHINES,
            gamma: GAMMA,
            horizon: 1 << 12,
            spans: vec![1, 2, 4, 8, 16],
            target_active: 1024,
            insert_bias: 0.8,
            unaligned: true,
        },
        seed,
    )
}

/// SplitMix64: the read/write interleaving of `durable_mixed`.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

pub fn plan(kind: Kind, seed: u64, scale: f64) -> Plan {
    match kind {
        Kind::ChurnMem | Kind::RelayStream => {
            let tenant = 1;
            let mut gen = churn_generator(seed);
            let ops: Vec<Op> = gen
                .generate(scaled(CHURN_LAP, scale))
                .requests()
                .iter()
                .map(|&r| write_op(tenant, r))
                .collect();
            let probe = gen
                .active()
                .iter()
                .take(scaled(PROBE_READS, scale))
                .map(|&(id, w)| read_op(tenant, id, w))
                .collect();
            Plan {
                kind,
                depth: 32,
                callers: vec![Caller { ops }],
                probe,
                prefix: Vec::new(),
            }
        }
        Kind::DurableMixed => {
            let mut mix = Mix(seed ^ 0xD0C7);
            let mut callers = Vec::new();
            let mut histories = Vec::new();
            for tenant in [1u16, 2] {
                let mut gen = office_generator(seed.wrapping_mul(31).wrapping_add(tenant as u64));
                let history = gen.generate(scaled(DURABLE_PREFIX, scale));
                histories.push((tenant, history));
                let mut ops = Vec::new();
                for _ in 0..scaled(DURABLE_WRITES, scale) {
                    let Some(r) = gen.next_request() else { break };
                    ops.push(write_op(tenant, r));
                    // About one read of the caller's own active job per
                    // two writes.
                    if mix.next().is_multiple_of(2) && !gen.active().is_empty() {
                        let pick = (mix.next() % gen.active().len() as u64) as usize;
                        let (id, w) = gen.active()[pick];
                        ops.push(read_op(tenant, id, w));
                    }
                }
                callers.push(Caller { ops });
            }
            // The stored history interleaves the two callers.
            let mut prefix = Vec::new();
            let longest = histories.iter().map(|(_, h)| h.len()).max().unwrap_or(0);
            for i in 0..longest {
                for (tenant, h) in &histories {
                    if let Some(&r) = h.requests().get(i) {
                        prefix.push((TenantId(*tenant), r));
                    }
                }
            }
            Plan {
                kind,
                depth: 1,
                callers,
                probe: Vec::new(),
                prefix,
            }
        }
    }
}
