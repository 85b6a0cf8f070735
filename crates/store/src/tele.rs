//! Store instrument bundle: resolved-once handles into an attached
//! [`realloc_telemetry::Telemetry`] registry.
//!
//! Naming follows the workspace scheme (`store_*`):
//!
//! * `store_fsync_nanos` — latency histogram of every fsync of the open
//!   segment (group commits and checkpoint seals: the durability tax
//!   acknowledged flushes pay),
//! * `store_batches_per_fsync` — journal records (flushed batches, plus
//!   the rare epoch record) each of those fsyncs covered; above 1 means
//!   concurrent committers shared an fsync,
//! * `store_commits_coalesced_total` — `commit_through` calls (durable
//!   writes and gated reads alike) satisfied without an fsync of their
//!   own: an earlier or concurrent fsync already covered their batch,
//! * `store_bytes_written_total` / `store_records_total` — framed bytes
//!   and records appended (segments and checkpoints together),
//! * `store_checkpoints_total` — checkpoints persisted (temp + fsync +
//!   rename sequences completed),
//! * `store_segments_unlinked_total` — sealed segment files removed by
//!   retention,
//! * `store_torn_tail_truncations_total` — torn tails truncated when a
//!   store was opened over a crashed directory,
//! * `store_injected_faults_total` — counted by [`crate::FaultIo`]
//!   (test/ chaos runs only; absent in production).

use realloc_telemetry::{Counter, Histo, Telemetry};
use std::sync::Arc;

/// Write-path instruments; shared by [`crate::DurableStore`] and its
/// group-commit watermark.
#[derive(Debug)]
pub(crate) struct StoreTele {
    /// The attached registry (clock for fsync timing).
    pub t: Telemetry,
    pub fsync_nanos: Histo,
    pub batches_per_fsync: Histo,
    pub commits_coalesced: Counter,
    pub bytes_written: Counter,
    pub records: Counter,
    pub checkpoints: Counter,
    pub segments_unlinked: Counter,
    pub torn_truncations: Counter,
}

impl StoreTele {
    /// Resolves the store's instruments; `None` for a disabled handle.
    pub fn build(t: &Telemetry) -> Option<Arc<StoreTele>> {
        if !t.is_enabled() {
            return None;
        }
        Some(Arc::new(StoreTele {
            fsync_nanos: t.histogram("store_fsync_nanos"),
            batches_per_fsync: t.histogram("store_batches_per_fsync"),
            commits_coalesced: t.counter("store_commits_coalesced_total"),
            bytes_written: t.counter("store_bytes_written_total"),
            records: t.counter("store_records_total"),
            checkpoints: t.counter("store_checkpoints_total"),
            segments_unlinked: t.counter("store_segments_unlinked_total"),
            torn_truncations: t.counter("store_torn_tail_truncations_total"),
            t: t.clone(),
        }))
    }
}
