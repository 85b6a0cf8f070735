//! Crash-durable recovery, end to end — through the **on-disk** store:
//!
//! 1. ingest churn into a journaled engine with a [`DurableStore`]
//!    attached: every `flush_durable` group-commits the batch's journal
//!    events to the open segment file and fsyncs before acknowledging;
//!    periodic checkpoints write a snapshot file (temp + fsync + atomic
//!    rename), roll the segment, and unlink segments past the retention
//!    cap;
//! 2. "crash" — the process state is dropped; all that survives is the
//!    store directory;
//! 3. [`Engine::recover_from_dir`] scans the directory, verifies every
//!    record's CRC, truncates any torn tail, restores the latest
//!    checkpoint, and replays only the tail (O(tail), not O(history));
//! 4. the recovered engine's placements, metrics, and flush counter
//!    match the pre-crash engine exactly — and it re-attaches a store
//!    over the same directory and keeps serving durably.
//!
//! ```sh
//! cargo run --release --example crash_recovery
//! ```

use realloc_sched::workloads::{ChurnConfig, ChurnGenerator};
use realloc_sched::{
    BackendKind, DurableStore, Engine, EngineConfig, FsIo, RecoverFromDir, StoreIo,
};
use std::sync::Arc;

fn main() {
    let dir = std::env::temp_dir().join(format!("realloc-crash-recovery-{}", std::process::id()));
    let config = EngineConfig {
        shards: 4,
        machines_per_shard: 1,
        backend: BackendKind::TheoremOne { gamma: 8 },
        parallel: false,
        journal: true,
        retained_segments: 2,
    };

    let mut engine = Engine::new(config);
    let store = DurableStore::create(
        Arc::new(FsIo::new()) as Arc<dyn StoreIo>,
        &dir,
        engine.journal().expect("journal enabled").config(),
    )
    .expect("create store directory");
    engine
        .attach_durability(Box::new(store))
        .expect("attach store");

    let mut gen = ChurnGenerator::new(
        ChurnConfig {
            machines: 4,
            gamma: 8,
            horizon: 1 << 12,
            spans: vec![4, 16, 64, 256],
            target_active: 160,
            insert_bias: 0.6,
            unaligned: false,
        },
        42,
    );
    let seq = gen.generate(6_000);

    // Phase 1: serve traffic durably, checkpoint every 8 batches. Each
    // flush_durable is an acknowledgement: once it returns Ok, the batch
    // survives any crash.
    for (i, chunk) in seq.requests().chunks(64).enumerate() {
        for &r in chunk {
            engine.submit(r);
        }
        let report = engine.flush_durable().expect("group commit");
        assert_eq!(report.failed(), 0, "density-certified stream");
        if i % 8 == 7 {
            engine.checkpoint();
            assert!(engine.durability_error().is_none(), "checkpoint persisted");
        }
    }
    let journal = engine.journal().expect("journal enabled");
    let checkpoint = journal.latest_checkpoint().expect("checkpointed");
    let (check_batches, check_events) = (checkpoint.batches, checkpoint.events_before);
    let tail = journal.tail_events().len() as u64;
    println!(
        "served {} requests in {} durable batches; latest checkpoint at batch \
         {check_batches} ({check_events} events before it, {tail} in the tail)",
        seq.len(),
        engine.batches(),
    );
    let files = FsIo::new().list_dir(&dir).expect("store dir listable");
    let on_disk: u64 = files
        .iter()
        .filter_map(|name| std::fs::metadata(dir.join(name)).ok())
        .map(|m| m.len())
        .sum();
    println!(
        "store directory holds {} bytes across {} files (segments past the \
         retention cap were unlinked at checkpoint time)",
        on_disk,
        files.len()
    );

    // Phase 2: "crash". Drop the engine; the directory is all that
    // survives.
    let placements = engine.placements().clone();
    let metrics = engine.metrics();
    let batches = engine.batches();
    drop(engine);
    println!("crash! surviving store: {}", dir.display());

    // Phase 3: recover = scan + CRC-verify + truncate torn tail +
    // restore latest checkpoint + replay only the tail.
    let mut recovered = Engine::recover_from_dir(&dir).expect("recovery succeeds");

    // Phase 4: verify the recovery is exact.
    assert_eq!(*recovered.placements(), placements);
    assert_eq!(recovered.metrics(), metrics);
    assert_eq!(recovered.batches(), batches);
    recovered
        .validate()
        .expect("recovered schedule is feasible");
    println!(
        "recovered {} active jobs across {} shards by replaying {tail} of {} events — \
         placements, metrics, and batch counter all match",
        recovered.active_count(),
        recovered.config().shards,
        check_events + tail,
    );

    // The recovered engine re-attaches a store over the same directory
    // (repairing any torn tail on open) and keeps serving durably.
    let (store, report) =
        DurableStore::open(Arc::new(FsIo::new()) as Arc<dyn StoreIo>, &dir).expect("reopen store");
    println!(
        "reopened the store at segment {} ({} torn bytes truncated, {} stale files removed)",
        report.segments, report.torn_bytes_truncated, report.files_removed
    );
    recovered
        .attach_durability(Box::new(store))
        .expect("re-attach");
    let more = gen.generate(500);
    for chunk in more.requests().chunks(64) {
        for &r in chunk {
            recovered.submit(r);
        }
        assert_eq!(recovered.flush_durable().expect("group commit").failed(), 0);
    }

    // And the durable history proves it: a second cold recovery lands on
    // the post-restart state exactly.
    let again = Engine::recover_from_dir(&dir).expect("second recovery");
    assert_eq!(again.state_digest(), recovered.state_digest());
    println!(
        "after {} more durable requests a second cold recovery still matches, \
         byte for byte at the journal layer",
        more.len()
    );

    std::fs::remove_dir_all(&dir).expect("cleanup");
}
