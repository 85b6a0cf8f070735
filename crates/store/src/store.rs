//! The durable store: an fsync'd on-disk tee under the engine's
//! in-memory journal, and the directory scan that reconstructs a
//! journal from it after a crash.
//!
//! # Write path
//!
//! [`DurableStore`] implements [`realloc_engine::DurabilitySink`]:
//!
//! * every flushed batch and epoch record becomes one framed record
//!   appended to the open segment file (`seg-NNNNNN.log`); an append
//!   never waits for an fsync,
//! * the **group commit** is a shared watermark
//!   ([`realloc_engine::DurabilitySink::group_commit`]):
//!   `commit_through(batch)` returns at once when an earlier fsync
//!   covered the batch, and otherwise fsyncs the open segment once for
//!   every record appended before the fsync started — so a front-end
//!   that waits for it after releasing the engine lock shares fsyncs
//!   with concurrent waiters instead of queueing each one behind the
//!   lock. `Engine::flush_durable` calls it on its own thread; the
//!   in-lock `sync` goes through the same watermark. A failed fsync is
//!   sticky and never retried: every commit it covered, every later
//!   commit and every later append gets its error,
//! * a checkpoint takes the watermark's sync mutex, seals the segment
//!   (fsyncs any unsynced tail), writes
//!   `ckpt-NNNNNN.ckpt` via temp-file + `fsync` + atomic rename +
//!   directory `fsync`, starts segment `N`, and then unlinks sealed
//!   segments beyond the retention cap — the on-disk analogue of
//!   `EngineConfig::retained_segments`, byte-for-byte aligned with the
//!   in-memory journal's truncation so a recovered journal serializes
//!   identically to the one that crashed.
//!
//! # Recovery
//!
//! [`scan`] reads the directory back into journal v3 text:
//!
//! * `*.tmp` files are ignored (interrupted checkpoint writes — never
//!   acknowledged),
//! * a trailing segment file whose checkpoint never became durable, or
//!   whose header record is torn, is dropped (its creation was not
//!   acknowledged),
//! * a trailing checkpoint whose segment file never appeared is adopted
//!   as an empty segment (the crash hit between rename and segment
//!   creation),
//! * a torn tail in the **last** segment is truncated at the last valid
//!   record — never fatal,
//! * segments below the retention horizon (stale files from an
//!   interrupted unlink pass) are ignored,
//! * everything else — index gaps, corrupt records in sealed segments
//!   or checkpoints, unknown file names, config mismatches — is a
//!   located [`StoreError`], never a panic.
//!
//! The reconstructed text goes through [`Journal::from_text`] and the
//! engine's O(tail) checkpoint+tail recovery, so the on-disk tier
//! reuses the exact grammar, validation, and divergence detection of
//! the in-memory path.

use crate::commit::CommitLog;
use crate::format::{
    append_record, checkpoint_file_name, classify, segment_file_name, FileKind, RecordReader,
};
use crate::io::{FsIo, StoreIo};
use crate::tele::StoreTele;
use realloc_core::textio::ParseError;
use realloc_engine::{
    Checkpoint, DurabilitySink, Engine, EngineConfig, EpochRecord, GroupCommit, Journal,
    JournalEvent, ReplayError,
};
use realloc_telemetry::Telemetry;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Why a store operation or recovery failed. Every variant names the
/// file (and where applicable the byte offset) it tripped over.
#[derive(Debug)]
pub enum StoreError {
    /// An I/O operation failed.
    Io {
        /// File (or directory) the operation targeted.
        file: String,
        /// The underlying error.
        source: std::io::Error,
    },
    /// A file's contents are invalid at a known offset.
    Corrupt {
        /// The offending file name.
        file: String,
        /// Byte offset of the first invalid record.
        offset: usize,
        /// What was wrong.
        message: String,
    },
    /// The directory's file set is unusable (gaps, unknown names,
    /// nothing to recover from).
    Layout(String),
    /// The reconstructed journal text failed to parse.
    Journal(ParseError),
    /// The checkpoint restore or tail replay failed.
    Replay(ReplayError),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io { file, source } => write!(f, "store I/O on '{file}': {source}"),
            StoreError::Corrupt {
                file,
                offset,
                message,
            } => {
                write!(f, "corrupt store file '{file}' at byte {offset}: {message}")
            }
            StoreError::Layout(m) => write!(f, "unusable store directory: {m}"),
            StoreError::Journal(e) => write!(f, "reconstructed journal failed to parse: {e}"),
            StoreError::Replay(e) => write!(f, "recovery replay failed: {e}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<ParseError> for StoreError {
    fn from(e: ParseError) -> Self {
        StoreError::Journal(e)
    }
}

impl From<ReplayError> for StoreError {
    fn from(e: ReplayError) -> Self {
        StoreError::Replay(e)
    }
}

fn io_err(file: impl Into<String>) -> impl FnOnce(std::io::Error) -> StoreError {
    let file = file.into();
    move |source| StoreError::Io { file, source }
}

// ----------------------------------------------------------------------
// Directory scan
// ----------------------------------------------------------------------

/// One parsed checkpoint file.
#[derive(Debug)]
struct CkptData {
    batches: u64,
    events_before: u64,
    config_line: String,
    snapshot: String,
}

/// One parsed segment file.
#[derive(Debug, Default)]
struct SegData {
    config_line: String,
    /// Concatenated chunk payloads (journal grammar lines, verbatim).
    chunks: String,
    /// Total file length that decoded cleanly.
    valid_len: usize,
    /// Bytes past `valid_len` (non-empty only for a torn tail).
    torn_bytes: usize,
}

/// What a [`scan`] found; consumed by recovery and [`DurableStore::open`].
#[derive(Debug)]
pub struct Scan {
    /// Reconstructed journal v3 text (feed to [`Journal::from_text`]).
    pub text: String,
    /// Oldest retained segment index.
    pub lo: u64,
    /// Open (newest) segment index.
    pub hi: u64,
    /// The journal config header line (`c …`) the store was created with.
    pub config_line: String,
    /// Retention cap parsed out of the config line.
    pub retained: usize,
    /// Torn tail in the open segment: `(file name, valid byte length)`.
    pub torn: Option<(String, u64)>,
    /// Files that are not part of the recovered state (stale retention
    /// leftovers, dropped unacknowledged segments, `*.tmp`); `open`
    /// unlinks them.
    pub drop_files: Vec<String>,
    /// Whether the open segment exists only as a checkpoint (the crash
    /// hit between checkpoint rename and segment creation); `open`
    /// materializes the segment file.
    pub synthesized_hi: bool,
}

fn corrupt(file: &str, offset: usize, message: impl Into<String>) -> StoreError {
    StoreError::Corrupt {
        file: file.to_string(),
        offset,
        message: message.into(),
    }
}

/// Parses a segment file. `last` relaxes tail handling: a torn record
/// suffix is truncated instead of fatal. The header record (index and
/// config) is validated against `index`; a torn *header* is reported as
/// `Ok(None)` — the whole file is unusable, which for the last segment
/// means "drop it" rather than "fail".
fn parse_segment(
    name: &str,
    bytes: &[u8],
    index: u64,
    last: bool,
) -> Result<Option<SegData>, StoreError> {
    let mut reader = RecordReader::new(bytes);
    let mut out = SegData::default();
    // Header record.
    match reader.next_record() {
        Ok(Some(payload)) => {
            let text = std::str::from_utf8(payload)
                .map_err(|e| corrupt(name, 0, format!("header is not UTF-8: {e}")))?;
            let mut lines = text.lines();
            let head = lines.next().unwrap_or("");
            let expect = format!("seg {index}");
            if head != expect {
                return Err(corrupt(
                    name,
                    0,
                    format!("header says '{head}', file name says '{expect}'"),
                ));
            }
            let config = lines
                .next()
                .ok_or_else(|| corrupt(name, 0, "header has no config line"))?;
            if !config.starts_with("c ") {
                return Err(corrupt(
                    name,
                    0,
                    format!("bad header config line '{config}'"),
                ));
            }
            if lines.next().is_some() {
                return Err(corrupt(name, 0, "trailing lines in segment header"));
            }
            out.config_line = config.to_string();
        }
        Ok(None) | Err(_) if last => return Ok(None), // torn/empty header: drop
        Ok(None) => return Err(corrupt(name, 0, "segment file is empty")),
        Err(fault) => return Err(corrupt(name, reader.offset(), fault.to_string())),
    }
    out.valid_len = reader.offset();
    // Chunk records.
    loop {
        match reader.next_record() {
            Ok(Some(payload)) => {
                let text = std::str::from_utf8(payload).map_err(|e| {
                    corrupt(name, out.valid_len, format!("chunk is not UTF-8: {e}"))
                })?;
                out.chunks.push_str(text);
                out.valid_len = reader.offset();
            }
            Ok(None) => break,
            Err(fault) => {
                if last {
                    out.torn_bytes = bytes.len() - out.valid_len;
                    break;
                }
                return Err(corrupt(name, reader.offset(), fault.to_string()));
            }
        }
    }
    Ok(Some(out))
}

/// Parses a checkpoint file (exactly one record).
fn parse_checkpoint(name: &str, bytes: &[u8], index: u64) -> Result<CkptData, StoreError> {
    let mut reader = RecordReader::new(bytes);
    let payload = match reader.next_record() {
        Ok(Some(p)) => p,
        Ok(None) => return Err(corrupt(name, 0, "checkpoint file is empty")),
        Err(fault) => return Err(corrupt(name, reader.offset(), fault.to_string())),
    };
    let after = reader.offset();
    match reader.next_record() {
        Ok(None) => {}
        Ok(Some(_)) => return Err(corrupt(name, after, "trailing record in checkpoint file")),
        Err(fault) => return Err(corrupt(name, after, fault.to_string())),
    }
    let text = std::str::from_utf8(payload)
        .map_err(|e| corrupt(name, 0, format!("checkpoint is not UTF-8: {e}")))?;
    let (head, rest) = text
        .split_once('\n')
        .ok_or_else(|| corrupt(name, 0, "checkpoint has no header line"))?;
    let mut parts = head.split_whitespace();
    let tag = parts.next().unwrap_or("");
    let parse_u64 = |tok: Option<&str>, what: &str| -> Result<u64, StoreError> {
        tok.ok_or_else(|| corrupt(name, 0, format!("checkpoint header missing {what}")))?
            .parse::<u64>()
            .map_err(|e| corrupt(name, 0, format!("bad checkpoint {what}: {e}")))
    };
    if tag != "ckpt" {
        return Err(corrupt(
            name,
            0,
            format!("bad checkpoint header tag '{tag}'"),
        ));
    }
    let idx = parse_u64(parts.next(), "index")?;
    if idx != index {
        return Err(corrupt(
            name,
            0,
            format!("header says index {idx}, file name says {index}"),
        ));
    }
    let batches = parse_u64(parts.next(), "batches")?;
    let events_before = parse_u64(parts.next(), "events-before")?;
    if parts.next().is_some() {
        return Err(corrupt(name, 0, "trailing tokens in checkpoint header"));
    }
    let (config_line, snapshot) = rest
        .split_once('\n')
        .ok_or_else(|| corrupt(name, 0, "checkpoint has no config line"))?;
    if !config_line.starts_with("c ") {
        return Err(corrupt(
            name,
            0,
            format!("bad checkpoint config line '{config_line}'"),
        ));
    }
    Ok(CkptData {
        batches,
        events_before,
        config_line: config_line.to_string(),
        snapshot: snapshot.to_string(),
    })
}

/// Retention cap: the 4th field of the journal config line.
fn retained_of(config_line: &str) -> Result<usize, StoreError> {
    config_line
        .split_whitespace()
        .nth(4)
        .and_then(|t| t.parse::<usize>().ok())
        .ok_or_else(|| {
            StoreError::Layout(format!("config line '{config_line}' has no retention cap"))
        })
}

/// Scans a store directory into reconstructed journal text plus the
/// repair/bookkeeping facts `open` needs; see the module docs for the
/// tolerated and rejected shapes.
pub fn scan(io: &dyn StoreIo, dir: &Path) -> Result<Scan, StoreError> {
    let names = io
        .list_dir(dir)
        .map_err(io_err(dir.display().to_string()))?;
    let mut segs: BTreeSet<u64> = BTreeSet::new();
    let mut ckpts: BTreeSet<u64> = BTreeSet::new();
    let mut drop_files: Vec<String> = Vec::new();
    for name in &names {
        match classify(name) {
            FileKind::Segment(i) => {
                segs.insert(i);
            }
            FileKind::Checkpoint(i) => {
                ckpts.insert(i);
            }
            FileKind::Temp => drop_files.push(name.clone()),
            FileKind::Unknown => {
                return Err(StoreError::Layout(format!(
                    "unrecognized file '{name}' in store directory"
                )))
            }
        }
    }
    // Segment numbering must be contiguous: a hole means a whole
    // segment of history vanished, which no crash window produces.
    if let (Some(&first), Some(&last)) = (segs.iter().next(), segs.iter().next_back()) {
        for i in first..=last {
            if !segs.contains(&i) {
                return Err(StoreError::Layout(format!(
                    "gap in segment numbering: '{}' is missing (segments run {} to {})",
                    segment_file_name(i),
                    segment_file_name(first),
                    segment_file_name(last),
                )));
            }
        }
    }
    // Fix the open segment `hi`: drop unacknowledged trailing segment
    // files (no durable checkpoint, or a torn header record), and adopt
    // a trailing orphan checkpoint as an empty synthesized segment.
    let mut seg_data: BTreeMap<u64, SegData> = BTreeMap::new();
    let (hi, synthesized_hi) = loop {
        let smax = segs.iter().next_back().copied();
        let cmax = ckpts.iter().next_back().copied();
        let (hi, synthesized) = match (smax, cmax) {
            (None, None) => {
                return Err(StoreError::Layout(
                    "no segment or checkpoint files to recover from".to_string(),
                ))
            }
            (Some(s), Some(c)) if c == s + 1 => (c, true),
            (Some(s), Some(c)) if c > s + 1 => {
                return Err(StoreError::Layout(format!(
                    "checkpoint '{}' has no matching segment and does not extend '{}'",
                    checkpoint_file_name(c),
                    segment_file_name(s),
                )))
            }
            (Some(s), _) => (s, false),
            (None, Some(c)) => (c, true),
        };
        if !synthesized {
            if hi >= 1 && !ckpts.contains(&hi) {
                // The segment's anchoring checkpoint never became
                // durable: nothing in the file was acknowledged.
                drop_files.push(segment_file_name(hi));
                segs.remove(&hi);
                continue;
            }
            let name = segment_file_name(hi);
            let bytes = io.read_file(&dir.join(&name)).map_err(io_err(&name))?;
            match parse_segment(&name, &bytes, hi, true)? {
                Some(data) => {
                    seg_data.insert(hi, data);
                    break (hi, false);
                }
                None => {
                    // Torn header: the file was being created at the
                    // crash; drop it and re-evaluate (its checkpoint, if
                    // durable, becomes a synthesized segment).
                    drop_files.push(name);
                    segs.remove(&hi);
                    continue;
                }
            }
        }
        break (hi, synthesized);
    };
    // The config line comes from the newest anchor (checkpoint `hi`, or
    // the genesis segment header when no checkpoint exists yet).
    let mut ckpt_data: BTreeMap<u64, CkptData> = BTreeMap::new();
    let config_line = if hi >= 1 {
        let name = checkpoint_file_name(hi);
        let bytes = io.read_file(&dir.join(&name)).map_err(io_err(&name))?;
        let data = parse_checkpoint(&name, &bytes, hi)?;
        let line = data.config_line.clone();
        ckpt_data.insert(hi, data);
        line
    } else {
        seg_data[&hi].config_line.clone()
    };
    let retained = retained_of(&config_line)?;
    // Walk the retained range down from `hi`, then clamp to the
    // retention cap: segments past it are stale leftovers of an
    // interrupted unlink pass (or of a crash before the pass ran) and
    // recovering them would disagree with the in-memory journal's own
    // truncation arithmetic.
    let mut lo = hi;
    while lo >= 1 && segs.contains(&(lo - 1)) && (lo - 1 == 0 || ckpts.contains(&(lo - 1))) {
        lo -= 1;
    }
    lo = lo.max(hi.saturating_sub(retained as u64));
    // Everything below `lo` is dead weight.
    for &i in segs.iter().filter(|&&i| i < lo) {
        drop_files.push(segment_file_name(i));
    }
    for &i in ckpts.iter().filter(|&&i| i < lo) {
        drop_files.push(checkpoint_file_name(i));
    }
    // Read the rest of the retained range.
    for i in lo..hi {
        if let std::collections::btree_map::Entry::Vacant(slot) = seg_data.entry(i) {
            let name = segment_file_name(i);
            let bytes = io.read_file(&dir.join(&name)).map_err(io_err(&name))?;
            let data = parse_segment(&name, &bytes, i, false)?
                .expect("non-last parse never drops the file");
            slot.insert(data);
        }
        if i >= 1 && !ckpt_data.contains_key(&i) {
            let name = checkpoint_file_name(i);
            let bytes = io.read_file(&dir.join(&name)).map_err(io_err(&name))?;
            ckpt_data.insert(i, parse_checkpoint(&name, &bytes, i)?);
        }
    }
    // One store, one config: every header must agree.
    for (i, data) in &seg_data {
        if data.config_line != config_line {
            return Err(corrupt(
                &segment_file_name(*i),
                0,
                format!(
                    "config line '{}' disagrees with the store's '{config_line}'",
                    data.config_line
                ),
            ));
        }
    }
    for (i, data) in &ckpt_data {
        if data.config_line != config_line {
            return Err(corrupt(
                &checkpoint_file_name(*i),
                0,
                format!(
                    "config line '{}' disagrees with the store's '{config_line}'",
                    data.config_line
                ),
            ));
        }
    }
    // Reassemble journal v3 text — the exact shape `Journal::to_text`
    // emits, so a recovered journal serializes byte-identically.
    let mut text = String::new();
    text.push_str("# realloc-engine journal v3\n");
    text.push_str(&config_line);
    text.push('\n');
    if lo >= 1 {
        let events_before = ckpt_data[&lo].events_before;
        writeln!(text, "T {lo} {events_before}").expect("string write");
    }
    for i in lo..=hi {
        if i >= 1 {
            let cp = &ckpt_data[&i];
            let nlines = cp.snapshot.lines().count();
            writeln!(text, "s {} {} {nlines}", cp.batches, cp.events_before).expect("string write");
            for line in cp.snapshot.lines() {
                text.push_str(line);
                text.push('\n');
            }
        }
        if let Some(data) = seg_data.get(&i) {
            text.push_str(&data.chunks);
        }
    }
    let torn = seg_data
        .get(&hi)
        .and_then(|d| (d.torn_bytes > 0).then(|| (segment_file_name(hi), d.valid_len as u64)));
    Ok(Scan {
        text,
        lo,
        hi,
        config_line,
        retained,
        torn,
        drop_files,
        synthesized_hi,
    })
}

/// Reconstructs journal v3 text from a store directory without
/// mutating anything (the read-only half of recovery).
pub fn recover_journal_text(io: &dyn StoreIo, dir: &Path) -> Result<String, StoreError> {
    Ok(scan(io, dir)?.text)
}

/// Crash recovery from an on-disk store: implemented for
/// [`realloc_engine::Engine`]. (An extension trait because the engine
/// crate cannot depend on this one — the store *uses* the journal's
/// grammar and replay machinery.)
pub trait RecoverFromDir: Sized {
    /// Recovers from `dir` through `io` — scan, reconstruct the
    /// journal, restore the latest checkpoint, replay the tail.
    fn recover_from_store(io: &dyn StoreIo, dir: &Path) -> Result<Self, StoreError>;

    /// [`RecoverFromDir::recover_from_store`] over the real file system.
    fn recover_from_dir(dir: &Path) -> Result<Self, StoreError> {
        Self::recover_from_store(&FsIo::new(), dir)
    }
}

impl RecoverFromDir for Engine {
    fn recover_from_store(io: &dyn StoreIo, dir: &Path) -> Result<Engine, StoreError> {
        let text = recover_journal_text(io, dir)?;
        let journal = Journal::from_text(&text)?;
        Ok(journal.recover_engine()?)
    }
}

// ----------------------------------------------------------------------
// The durable store
// ----------------------------------------------------------------------

/// What [`DurableStore::open`] found and repaired.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct OpenReport {
    /// Retained segments (including the open one).
    pub segments: usize,
    /// Bytes cut off the open segment's torn tail (0: clean shutdown).
    pub torn_bytes_truncated: u64,
    /// Stale/unacknowledged/temp files unlinked.
    pub files_removed: usize,
    /// Whether the open segment had to be materialized from an orphan
    /// checkpoint.
    pub segment_materialized: bool,
}

/// The on-disk durability tier; see the module docs. Attach to an
/// engine with [`realloc_engine::Engine::attach_durability`].
#[derive(Debug)]
pub struct DurableStore {
    io: Arc<dyn StoreIo>,
    dir: PathBuf,
    /// Open segment index (appends go to `seg-{seg}.log`).
    seg: u64,
    /// Oldest on-disk segment index.
    lo: u64,
    /// Retention cap (mirrors `EngineConfig::retained_segments`).
    retained: usize,
    /// The journal config header line this store was created under.
    config_line: String,
    /// The group-commit watermark, shared with out-of-lock waiters.
    commit: Arc<CommitLog>,
    tele: Option<Arc<StoreTele>>,
}

impl DurableStore {
    /// Creates a fresh store in `dir` (created if missing, must not
    /// already hold store files) for an engine journaling under
    /// `config`. Pass the config of the engine's *journal*
    /// (`engine.journal().unwrap().config()`), which records the
    /// genesis shard count — after a resize the engine's live config
    /// differs.
    ///
    /// Attaching a store to an engine that already has history requires
    /// an immediate `Engine::checkpoint()` afterwards: the store only
    /// sees records from the attach onward, and the checkpoint anchors
    /// them with full state. A freshly built engine needs no checkpoint
    /// (its genesis segment replays from the config header).
    pub fn create(
        io: Arc<dyn StoreIo>,
        dir: &Path,
        config: &EngineConfig,
    ) -> Result<DurableStore, StoreError> {
        io.create_dir_all(dir)
            .map_err(io_err(dir.display().to_string()))?;
        let names = io
            .list_dir(dir)
            .map_err(io_err(dir.display().to_string()))?;
        for name in &names {
            if !matches!(classify(name), FileKind::Temp) {
                return Err(StoreError::Layout(format!(
                    "directory already holds '{name}' — use DurableStore::open to resume"
                )));
            }
        }
        let config_line = format!(
            "c {} {} {} {}",
            config.shards, config.machines_per_shard, config.backend, config.retained_segments
        );
        let mut store = DurableStore {
            commit: Arc::new(CommitLog::new(
                Arc::clone(&io),
                dir.join(segment_file_name(0)),
            )),
            io,
            dir: dir.to_path_buf(),
            seg: 0,
            lo: 0,
            retained: config.retained_segments,
            config_line,
            tele: None,
        };
        store.write_segment_header(0).map_err(Self::from_io)?;
        Ok(store)
    }

    /// Opens an existing store after a crash or restart: scans, repairs
    /// (truncates the torn tail, unlinks stale and unacknowledged
    /// files, materializes a checkpoint-only open segment), and resumes
    /// appending where the durable state ends. Recover the engine first
    /// ([`RecoverFromDir`]) — it must see the same directory this open
    /// repairs — then attach the opened store to it.
    pub fn open(
        io: Arc<dyn StoreIo>,
        dir: &Path,
    ) -> Result<(DurableStore, OpenReport), StoreError> {
        let scan = scan(&*io, dir)?;
        let mut report = OpenReport {
            segments: (scan.hi - scan.lo + 1) as usize,
            ..OpenReport::default()
        };
        for name in &scan.drop_files {
            io.remove_file(&dir.join(name))
                .map_err(io_err(name.clone()))?;
            report.files_removed += 1;
        }
        if let Some((name, valid_len)) = &scan.torn {
            let path = dir.join(name);
            let total = io.read_file(&path).map_err(io_err(name.clone()))?.len() as u64;
            io.truncate(&path, *valid_len)
                .map_err(io_err(name.clone()))?;
            io.sync_file(&path).map_err(io_err(name.clone()))?;
            report.torn_bytes_truncated = total - valid_len;
        }
        let mut store = DurableStore {
            commit: Arc::new(CommitLog::new(
                Arc::clone(&io),
                dir.join(segment_file_name(scan.hi)),
            )),
            io,
            dir: dir.to_path_buf(),
            seg: scan.hi,
            lo: scan.lo,
            retained: scan.retained,
            config_line: scan.config_line,
            tele: None,
        };
        if scan.synthesized_hi {
            store.write_segment_header(scan.hi).map_err(Self::from_io)?;
            report.segment_materialized = true;
        } else if report.files_removed > 0 || report.torn_bytes_truncated > 0 {
            store
                .io
                .sync_dir(&store.dir)
                .map_err(io_err(dir.display().to_string()))?;
        }
        Ok((store, report))
    }

    /// Attaches a telemetry registry (fsync latency, batches per fsync,
    /// coalesced commits, bytes/records written, checkpoints, retention
    /// unlinks, torn-tail truncations). A disabled handle detaches.
    pub fn attach_telemetry(&mut self, telemetry: &Telemetry) {
        self.tele = StoreTele::build(telemetry);
        self.commit.set_tele(self.tele.clone());
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Index of the open segment.
    pub fn segment_index(&self) -> u64 {
        self.seg
    }

    /// Index of the oldest retained on-disk segment.
    pub fn oldest_index(&self) -> u64 {
        self.lo
    }

    /// Records a torn-tail truncation in the attached registry (called
    /// by recovery harnesses that learn of one via [`OpenReport`]).
    pub fn note_torn_truncation(&self) {
        if let Some(tele) = &self.tele {
            tele.torn_truncations.inc();
        }
    }

    fn seg_path(&self) -> PathBuf {
        self.dir.join(segment_file_name(self.seg))
    }

    fn from_io(e: (String, std::io::Error)) -> StoreError {
        StoreError::Io {
            file: e.0,
            source: e.1,
        }
    }

    /// Creates `seg-{index}.log` with its header record and makes it
    /// durable (file fsync + directory fsync).
    fn write_segment_header(&mut self, index: u64) -> Result<(), (String, std::io::Error)> {
        let name = segment_file_name(index);
        let path = self.dir.join(&name);
        let payload = format!("seg {index}\n{}\n", self.config_line);
        let mut framed = Vec::with_capacity(payload.len() + 8);
        append_record(&mut framed, payload.as_bytes());
        self.io
            .append(&path, &framed)
            .map_err(|e| (name.clone(), e))?;
        self.io.sync_file(&path).map_err(|e| (name.clone(), e))?;
        self.io
            .sync_dir(&self.dir)
            .map_err(|e| (self.dir.display().to_string(), e))?;
        self.count_write(framed.len());
        Ok(())
    }

    /// Appends one framed chunk to the open segment and advances the
    /// appended watermark (`batch`: the chunk's batch number, `None` for
    /// an epoch record). No fsync — that is the group commit's.
    fn append_chunk(&mut self, payload: &str, batch: Option<u64>) -> Result<(), String> {
        self.commit.check()?;
        let mut framed = Vec::with_capacity(payload.len() + 8);
        append_record(&mut framed, payload.as_bytes());
        let path = self.seg_path();
        self.io.append(&path, &framed).map_err(|e| {
            self.commit
                .fail(format!("append to '{}': {e}", path.display()))
        })?;
        self.commit.appended(batch);
        self.count_write(framed.len());
        Ok(())
    }

    fn count_write(&self, bytes: usize) {
        if let Some(tele) = &self.tele {
            tele.bytes_written.add(bytes as u64);
            tele.records.inc();
        }
    }
}

impl DurabilitySink for DurableStore {
    fn append_batch(&mut self, events: &[JournalEvent]) -> Result<(), String> {
        let Some(first) = events.first() else {
            return Ok(());
        };
        let mut payload = String::with_capacity(events.len() * 24 + 16);
        writeln!(payload, "b {}", first.batch).expect("string write");
        for e in events {
            e.write_line(&mut payload);
        }
        self.append_chunk(&payload, Some(first.batch))
    }

    fn append_epoch(&mut self, record: &EpochRecord) -> Result<(), String> {
        let mut payload = String::new();
        record.write_line(&mut payload);
        self.append_chunk(&payload, None)
    }

    fn checkpoint(&mut self, checkpoint: &Checkpoint) -> Result<(), String> {
        // The sync mutex for the whole seal-and-rotate: no committer may
        // fsync the outgoing segment once the next one is open.
        let commit = Arc::clone(&self.commit);
        let mut open = commit.lock_open();
        self.checkpoint_locked(checkpoint, &mut open)
            .map_err(|e| commit.fail(e))
    }

    fn sync(&mut self) -> Result<(), String> {
        self.commit.sync_all()
    }

    fn group_commit(&self) -> Option<Arc<dyn GroupCommit>> {
        Some(Arc::clone(&self.commit) as Arc<dyn GroupCommit>)
    }
}

impl DurableStore {
    /// [`DurabilitySink::checkpoint`] under the sync mutex, whose value
    /// (the open segment's path) `open` is.
    fn checkpoint_locked(
        &mut self,
        checkpoint: &Checkpoint,
        open: &mut PathBuf,
    ) -> Result<(), String> {
        let fail = |file: &str, e: std::io::Error| format!("checkpoint I/O on '{file}': {e}");
        // Seal the open segment: its tail must be durable before the
        // checkpoint that supersedes it, or a recovered journal would
        // hold fewer events than the in-memory one that kept serving.
        self.commit.sync_open(open)?;
        let next = self.seg + 1;
        let name = checkpoint_file_name(next);
        let tmp_name = format!("{name}.tmp");
        let path = self.dir.join(&name);
        let tmp = self.dir.join(&tmp_name);
        let payload = format!(
            "ckpt {next} {} {}\n{}\n{}",
            checkpoint.batches, checkpoint.events_before, self.config_line, checkpoint.snapshot
        );
        let mut framed = Vec::with_capacity(payload.len() + 8);
        append_record(&mut framed, payload.as_bytes());
        // Temp + fsync + rename + dir fsync: the checkpoint appears
        // atomically and durably, or not at all.
        self.io
            .append(&tmp, &framed)
            .map_err(|e| fail(&tmp_name, e))?;
        self.io.sync_file(&tmp).map_err(|e| fail(&tmp_name, e))?;
        self.io.rename(&tmp, &path).map_err(|e| fail(&name, e))?;
        let dir_name = self.dir.display().to_string();
        self.io
            .sync_dir(&self.dir)
            .map_err(|e| fail(&dir_name, e))?;
        self.count_write(framed.len());
        // Start the next segment (durable before anything is appended
        // to it), then unlink sealed segments beyond the cap — the same
        // arithmetic as the in-memory journal's truncation.
        self.write_segment_header(next)
            .map_err(|(f, e)| fail(&f, e))?;
        self.seg = next;
        *open = self.seg_path();
        let mut unlinked = 0u64;
        while (self.seg - self.lo) as usize > self.retained {
            let seg_name = segment_file_name(self.lo);
            self.io
                .remove_file(&self.dir.join(&seg_name))
                .map_err(|e| fail(&seg_name, e))?;
            if self.lo >= 1 {
                let ck_name = checkpoint_file_name(self.lo);
                self.io
                    .remove_file(&self.dir.join(&ck_name))
                    .map_err(|e| fail(&ck_name, e))?;
            }
            self.lo += 1;
            unlinked += 1;
        }
        if unlinked > 0 {
            self.io
                .sync_dir(&self.dir)
                .map_err(|e| fail(&dir_name, e))?;
        }
        if let Some(tele) = &self.tele {
            tele.checkpoints.inc();
            tele.segments_unlinked.add(unlinked);
        }
        Ok(())
    }
}
