//! Golden-digest pin for the full serving pipeline.
//!
//! Replays a fixed seed of certified-γ churn shaped like the client-path
//! benchmark's `churn_mem` stream (unaligned windows, spans 1–4096, ~1k
//! active jobs) through a 4-shard × 4-machine Theorem-1 (γ = 8) journaled
//! `Engine`, flushing every 32 requests, and asserts the final state
//! digest and the lifetime reallocation and migration totals against
//! constants recorded before the reservation scheduler's single-pass
//! rebalance landed.
//!
//! `tests/seed_equivalence.rs` in `realloc-reservation` pins the bare §4
//! scheduler move for move; this test pins what the engine actually runs
//! on top of it — §5 alignment, `n*` trimming and §3 delegation — so a
//! hot-path change that shifts any placement, journal record or rotation
//! start shows up here as a changed digest.
//!
//! If a change alters scheduling behaviour on purpose, re-record the
//! constants in the same change and say why.

use realloc_core::Request;
use realloc_engine::{BackendKind, Engine, EngineConfig};
use realloc_workloads::{ChurnConfig, ChurnGenerator};

const SEED: u64 = 7_919;
const REQUESTS: usize = 12_000;
const BATCH: usize = 32;

const GOLDEN_DIGEST: u64 = 0x2439_738e_a074_2dbf;
const GOLDEN_REALLOCATIONS: u64 = 1_271;
const GOLDEN_MIGRATIONS: u64 = 818;
const GOLDEN_ACTIVE: usize = 1_022;

fn stream() -> Vec<Request> {
    ChurnGenerator::new(
        ChurnConfig {
            machines: 4,
            gamma: 8,
            horizon: 1 << 15,
            spans: vec![1, 4, 16, 64, 256, 1024, 4096],
            target_active: 1024,
            insert_bias: 0.6,
            unaligned: true,
        },
        SEED,
    )
    .generate(REQUESTS)
    .requests()
    .to_vec()
}

#[test]
fn churn_mem_shaped_stream_matches_golden_digest() {
    let mut engine = Engine::new(EngineConfig {
        shards: 4,
        machines_per_shard: 4,
        backend: BackendKind::TheoremOne { gamma: 8 },
        parallel: false,
        journal: true,
        retained_segments: 4,
    });
    for chunk in stream().chunks(BATCH) {
        for &r in chunk {
            engine.submit(r);
        }
        let report = engine.flush();
        assert!(
            report.failures.is_empty(),
            "certified churn is fully serviceable: {:?}",
            report.failures
        );
    }
    engine.validate().expect("final schedule is valid");
    let costs = engine.total_costs();
    println!(
        "digest {:#018x} reallocations {} migrations {} active {}",
        engine.state_digest(),
        costs.reallocations,
        costs.migrations,
        engine.active_count()
    );
    assert_eq!(engine.state_digest(), GOLDEN_DIGEST, "state digest");
    assert_eq!(costs.reallocations, GOLDEN_REALLOCATIONS, "reallocations");
    assert_eq!(costs.migrations, GOLDEN_MIGRATIONS, "migrations");
    assert_eq!(engine.active_count(), GOLDEN_ACTIVE, "active jobs");
}
