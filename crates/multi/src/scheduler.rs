//! The full Theorem-1 pipeline: align → delegate → per-machine backend.

use fxhash::FxHashMap;
use realloc_core::cost::Placement;
use realloc_core::snapshot::{Fields, Restorable, SnapshotNode, SnapshotWriter};
use realloc_core::textio::ParseError;
use realloc_core::{
    Error, JobId, Move, Reallocator, RequestOutcome, ScheduleSnapshot, SingleMachineReallocator,
    Window,
};
use realloc_reservation::TrimmedScheduler;
use std::collections::BTreeSet;

/// Per-effective-window delegation bookkeeping (paper §3).
#[derive(Clone, Debug)]
struct WindowGroup {
    /// Total jobs with this effective window across machines (`n_W`).
    count: u64,
    /// First machine of this window's rotation. The paper starts every
    /// window at machine 0; hashing the start preserves Lemma 3 (each
    /// machine still holds `⌊n_W/m⌋` or `⌈n_W/m⌉` jobs of the window)
    /// while balancing *aggregate* load across windows.
    start: usize,
    /// Which jobs of this window live on each machine. Ordered sets so
    /// the §3 migration-victim choice on delete (the smallest id on the
    /// rotation's tail machine) is a pure function of the *content* —
    /// not of hash-map insertion history. Journal replay, the
    /// parallel-vs-sequential equivalence guarantee, and snapshot/restore
    /// equivalence all depend on that purity.
    per_machine: Vec<BTreeSet<JobId>>,
}

impl WindowGroup {
    fn new(machines: usize, window: Window) -> Self {
        WindowGroup {
            count: 0,
            start: (rotation_hash(window) % machines as u64) as usize,
            per_machine: vec![BTreeSet::new(); machines],
        }
    }

    /// Machine for this window's job number `i` (0-based).
    fn machine_of(&self, i: u64, machines: usize) -> usize {
        ((self.start as u64 + i) % machines as u64) as usize
    }
}

/// The hash behind a window's rotation start: SipHash-1-3 with a zero
/// key over the 16 bytes `start ‖ end` (little-endian `u64`s).
///
/// This is the value `std`'s `DefaultHasher` produced for a `Window` when
/// rotation starts were first journaled, written out here because `std`
/// leaves that hasher's algorithm unspecified across releases. Journals,
/// snapshots and replicas all recompute rotation starts, so the function
/// must never change.
fn rotation_hash(window: Window) -> u64 {
    #[inline]
    fn round(v: &mut [u64; 4]) {
        v[0] = v[0].wrapping_add(v[1]);
        v[1] = v[1].rotate_left(13) ^ v[0];
        v[0] = v[0].rotate_left(32);
        v[2] = v[2].wrapping_add(v[3]);
        v[3] = v[3].rotate_left(16) ^ v[2];
        v[0] = v[0].wrapping_add(v[3]);
        v[3] = v[3].rotate_left(21) ^ v[0];
        v[2] = v[2].wrapping_add(v[1]);
        v[1] = v[1].rotate_left(17) ^ v[2];
        v[2] = v[2].rotate_left(32);
    }
    // Zero key: each state word is its initialisation constant.
    let mut v = [
        0x736f_6d65_7073_6575,
        0x646f_7261_6e64_6f6d,
        0x6c79_6765_6e65_7261,
        0x7465_6462_7974_6573,
    ];
    // Two message blocks, then the length block (16 bytes, no tail); one
    // compression round per block, three finalisation rounds.
    for m in [window.start(), window.end(), 16 << 56] {
        v[3] ^= m;
        round(&mut v);
        v[0] ^= m;
    }
    v[2] ^= 0xff;
    for _ in 0..3 {
        round(&mut v);
    }
    v[0] ^ v[1] ^ v[2] ^ v[3]
}

#[derive(Clone, Copy, Debug)]
struct JobInfo {
    original: Window,
    effective: Window,
    machine: usize,
}

/// An `m`-machine reallocating scheduler for arbitrary windows, generic
/// over the single-machine backend `B` (paper Theorem 1 when `B` is the
/// reservation scheduler; the same wrapper also lifts the Lemma 4 naive
/// baseline to `m` machines for comparisons).
#[derive(Clone, Debug)]
pub struct ReallocatingScheduler<B> {
    machines: Vec<B>,
    windows: FxHashMap<Window, WindowGroup>,
    jobs: FxHashMap<JobId, JobInfo>,
}

/// The paper's headline configuration: reservation scheduler with `n*`
/// trimming on every machine.
pub type TheoremOneScheduler = ReallocatingScheduler<TrimmedScheduler>;

impl TheoremOneScheduler {
    /// Theorem-1 scheduler on `machines` machines with trim factor `gamma`.
    pub fn theorem_one(machines: usize, gamma: u64) -> Self {
        Self::with_backends(
            (0..machines)
                .map(|_| TrimmedScheduler::new(gamma))
                .collect(),
        )
    }
}

impl<B: SingleMachineReallocator> ReallocatingScheduler<B> {
    /// Builds the wrapper from per-machine backends (one per machine).
    pub fn with_backends(machines: Vec<B>) -> Self {
        assert!(!machines.is_empty(), "need at least one machine");
        ReallocatingScheduler {
            machines,
            windows: FxHashMap::default(),
            jobs: FxHashMap::default(),
        }
    }

    /// Builds `m` machines from a backend factory.
    pub fn from_factory(m: usize, factory: impl Fn() -> B) -> Self {
        Self::with_backends((0..m).map(|_| factory()).collect())
    }

    /// The effective (aligned) window a job would be scheduled under.
    pub fn effective_window(window: Window) -> Window {
        window.aligned_subwindow()
    }

    /// Read-only access to a machine's backend (tests, invariant checks).
    pub fn backend(&self, machine: usize) -> &B {
        &self.machines[machine]
    }

    /// The original (pre-alignment) window of an active job.
    pub fn original_window(&self, id: JobId) -> Option<Window> {
        self.jobs.get(&id).map(|i| i.original)
    }
}

impl<B: SingleMachineReallocator> Reallocator for ReallocatingScheduler<B> {
    fn machines(&self) -> usize {
        self.machines.len()
    }

    fn insert(&mut self, id: JobId, window: Window) -> Result<RequestOutcome, Error> {
        if self.jobs.contains_key(&id) {
            return Err(Error::DuplicateJob(id));
        }
        let m = self.machines.len();
        let effective = Self::effective_window(window);
        let group = self
            .windows
            .entry(effective)
            .or_insert_with(|| WindowGroup::new(m, effective));
        // §3: job number n_W goes to machine (start + n_W) mod m.
        let machine = group.machine_of(group.count, m);
        let slot_moves = self.machines[machine].insert(id, effective)?;
        let group = self.windows.get_mut(&effective).expect("just inserted");
        group.count += 1;
        group.per_machine[machine].insert(id);
        self.jobs.insert(
            id,
            JobInfo {
                original: window,
                effective,
                machine,
            },
        );
        Ok(RequestOutcome {
            moves: slot_moves
                .into_iter()
                .map(|sm| sm.on_machine(machine))
                .collect(),
        })
    }

    fn delete(&mut self, id: JobId) -> Result<RequestOutcome, Error> {
        let info = *self.jobs.get(&id).ok_or(Error::UnknownJob(id))?;
        let m = self.machines.len();
        let effective = info.effective;
        let mi = info.machine;

        let mut outcome = RequestOutcome::empty();
        let slot_moves = self.machines[mi].delete(id)?;
        outcome
            .moves
            .extend(slot_moves.into_iter().map(|sm| sm.on_machine(mi)));
        self.jobs.remove(&id);

        let group = self.windows.get_mut(&effective).expect("job had a group");
        group.per_machine[mi].remove(&id);
        group.count -= 1;
        // §3 rebalance: the machine that must shrink is the round-robin
        // tail — position count (0-based) after the decrement.
        let tail = group.machine_of(group.count, m);
        if tail != mi && group.count > 0 {
            debug_assert!(
                !group.per_machine[tail].is_empty(),
                "round-robin invariant: tail machine must hold a job of {effective}"
            );
            // The victim is the smallest id on the tail machine —
            // deterministic from content alone (see `per_machine`).
            if let Some(&mover) = group.per_machine[tail].first() {
                // Migrate `mover` from `tail` to `mi` (≤ 1 migration).
                let del = self.machines[tail].delete(mover)?;
                outcome
                    .moves
                    .extend(del.into_iter().map(|sm| sm.on_machine(tail)));
                match self.machines[mi].insert(mover, effective) {
                    Ok(ins) => {
                        outcome
                            .moves
                            .extend(ins.into_iter().map(|sm| sm.on_machine(mi)));
                        let group = self.windows.get_mut(&effective).unwrap();
                        group.per_machine[tail].remove(&mover);
                        group.per_machine[mi].insert(mover);
                        self.jobs.get_mut(&mover).unwrap().machine = mi;
                    }
                    Err(e) => {
                        // Put the mover back where it was; the delete itself
                        // remains serviced.
                        let back = self.machines[tail].insert(mover, effective)?;
                        outcome
                            .moves
                            .extend(back.into_iter().map(|sm| sm.on_machine(tail)));
                        debug_assert!(false, "migration re-insert failed: {e}");
                    }
                }
            }
        }
        if self.windows[&effective].count == 0 {
            self.windows.remove(&effective);
        }
        Ok(outcome)
    }

    fn snapshot(&self) -> ScheduleSnapshot {
        let mut snap = ScheduleSnapshot::new();
        for (&id, info) in &self.jobs {
            let slot = self.machines[info.machine]
                .slot_of(id)
                .expect("active job must be scheduled on its machine");
            snap.set(
                id,
                Placement {
                    machine: info.machine,
                    slot,
                },
            );
        }
        snap
    }

    fn active_count(&self) -> usize {
        self.jobs.len()
    }

    fn name(&self) -> &'static str {
        "realloc-multi"
    }
}

impl<B: SingleMachineReallocator + Restorable> Restorable for ReallocatingScheduler<B> {
    const SNAPSHOT_KIND: &'static str = "multi";

    fn write_state(&self, w: &mut SnapshotWriter) {
        // Recorded: machine count, every job's (id, original window,
        // machine), and each machine's full backend state as a child
        // section. Re-derived on restore: effective windows (the
        // alignment reduction is deterministic), window groups, rotation
        // starts (a pure hash of the window), and per-machine membership.
        w.line(format_args!("m {}", self.machines.len()));
        let mut jobs: Vec<(JobId, JobInfo)> = self.jobs.iter().map(|(&id, &i)| (id, i)).collect();
        jobs.sort_by_key(|&(id, _)| id);
        for (id, info) in jobs {
            w.line(format_args!(
                "j {} {} {} {}",
                id.0,
                info.original.start(),
                info.original.end(),
                info.machine
            ));
        }
        for b in &self.machines {
            w.child(b);
        }
    }

    fn read_state(node: &SnapshotNode) -> Result<Self, ParseError> {
        node.expect_kind(Self::SNAPSHOT_KIND)?;
        let mut machine_count: Option<usize> = None;
        let mut jobs: Vec<(usize, JobId, Window, usize)> = Vec::new();
        for (line, content) in &node.lines {
            let mut f = Fields::of(*line, content);
            match f.token("op")? {
                "m" => {
                    if machine_count.is_some() {
                        return Err(f.err("duplicate 'm' line"));
                    }
                    let m = f.usize("machine count")?;
                    f.finish()?;
                    if m == 0 {
                        return Err(f.err("machine count must be >= 1"));
                    }
                    machine_count = Some(m);
                }
                "j" => {
                    let id = JobId(f.u64("job id")?);
                    let start = f.u64("window start")?;
                    let end = f.u64("window end")?;
                    let machine = f.usize("machine")?;
                    f.finish()?;
                    if end <= start {
                        return Err(f.err(format!("window end {end} must exceed start {start}")));
                    }
                    jobs.push((*line, id, Window::new(start, end), machine));
                }
                other => {
                    return Err(ParseError {
                        line: *line,
                        message: format!("unknown multi snapshot op '{other}'"),
                    })
                }
            }
        }
        let m = machine_count.ok_or(ParseError {
            line: 0,
            message: "multi snapshot has no 'm' machine-count line".to_string(),
        })?;
        let backends: Vec<B> = node
            .children_of(B::SNAPSHOT_KIND)
            .map(B::read_state)
            .collect::<Result<_, _>>()?;
        if backends.len() != m {
            return Err(ParseError {
                line: 0,
                message: format!(
                    "multi snapshot declares {m} machines but embeds {} '{}' sections",
                    backends.len(),
                    B::SNAPSHOT_KIND
                ),
            });
        }
        let mut s = ReallocatingScheduler::with_backends(backends);
        for &(line, id, original, machine) in &jobs {
            let err = |message: String| ParseError { line, message };
            if machine >= m {
                return Err(err(format!("job {id} on machine {machine} of {m}")));
            }
            let effective = Self::effective_window(original);
            if s.machines[machine].slot_of(id).is_none() {
                return Err(err(format!(
                    "job {id} is recorded on machine {machine} but its backend does not hold it"
                )));
            }
            let group = s
                .windows
                .entry(effective)
                .or_insert_with(|| WindowGroup::new(m, effective));
            group.count += 1;
            if !group.per_machine[machine].insert(id) {
                return Err(err(format!("duplicate job {id}")));
            }
            s.jobs.insert(
                id,
                JobInfo {
                    original,
                    effective,
                    machine,
                },
            );
        }
        // Cross-validate: backends hold exactly the recorded jobs, and
        // every group satisfies the §3 rotation profile (machine i holds
        // precisely the jobs the round-robin from `start` would place
        // there — future delegation and migration depend on it).
        let backend_active: usize = s.machines.iter().map(|b| b.active_count()).sum();
        if backend_active != s.jobs.len() {
            return Err(ParseError {
                line: 0,
                message: format!(
                    "backends hold {backend_active} jobs but {} are recorded",
                    s.jobs.len()
                ),
            });
        }
        for (win, group) in &s.windows {
            let mut expect = vec![0u64; m];
            for i in 0..group.count {
                expect[group.machine_of(i, m)] += 1;
            }
            for (mi, want) in expect.iter().enumerate() {
                let have = group.per_machine[mi].len() as u64;
                if have != *want {
                    return Err(ParseError {
                        line: 0,
                        message: format!(
                            "window {win}: machine {mi} holds {have} jobs, rotation expects {want}"
                        ),
                    });
                }
            }
        }
        Ok(s)
    }
}

/// Lifts one slot-level move to a machine; re-exported for harnesses that
/// track single-machine schedulers directly.
pub fn lift(sm: realloc_core::SlotMove, machine: usize) -> Move {
    sm.on_machine(machine)
}

#[cfg(test)]
mod tests {
    use super::*;
    use realloc_core::schedule::validate;
    use realloc_reservation::ReservationScheduler;
    use std::collections::BTreeMap;

    fn validate_now<B: SingleMachineReallocator>(s: &ReallocatingScheduler<B>) {
        let active: BTreeMap<JobId, Window> = s
            .jobs
            .iter()
            .map(|(&id, info)| (id, info.original))
            .collect();
        validate(&s.snapshot(), &active, s.machines()).expect("feasible vs original windows");
    }

    #[test]
    fn round_robin_delegation() {
        let mut s = ReallocatingScheduler::from_factory(3, ReservationScheduler::new);
        for i in 0..9u64 {
            s.insert(JobId(i), Window::new(0, 64)).unwrap();
        }
        // 9 jobs over 3 machines: 3 each.
        for m in 0..3 {
            assert_eq!(s.backend(m).active_count(), 3, "machine {m}");
        }
        validate_now(&s);
    }

    #[test]
    fn unaligned_windows_are_aligned_first() {
        let mut s = ReallocatingScheduler::from_factory(2, ReservationScheduler::new);
        let w = Window::new(3, 17); // span 14, unaligned
        s.insert(JobId(1), w).unwrap();
        let eff = ReallocatingScheduler::<ReservationScheduler>::effective_window(w);
        assert!(eff.is_aligned());
        assert!(w.contains(&eff));
        assert!(eff.span() * 4 >= w.span());
        // The job is scheduled within the original window.
        validate_now(&s);
    }

    #[test]
    fn delete_migrates_at_most_one_job() {
        let mut s = ReallocatingScheduler::from_factory(4, ReservationScheduler::new);
        for i in 0..16u64 {
            s.insert(JobId(i), Window::new(0, 128)).unwrap();
        }
        for i in 0..16u64 {
            let out = s.delete(JobId(i)).unwrap();
            assert!(
                out.netted().migration_cost() <= 1,
                "delete of j{i} migrated {} jobs",
                out.netted().migration_cost()
            );
            validate_now(&s);
        }
    }

    #[test]
    fn inserts_never_migrate() {
        let mut s = ReallocatingScheduler::from_factory(3, ReservationScheduler::new);
        for i in 0..24u64 {
            let out = s.insert(JobId(i), Window::new(0, 256)).unwrap();
            assert_eq!(out.netted().migration_cost(), 0);
        }
    }

    #[test]
    fn balance_invariant_held_under_churn() {
        let mut s = ReallocatingScheduler::from_factory(3, ReservationScheduler::new);
        let w = Window::new(0, 512);
        for i in 0..12u64 {
            s.insert(JobId(i), w).unwrap();
        }
        s.delete(JobId(0)).unwrap();
        s.delete(JobId(5)).unwrap();
        s.delete(JobId(10)).unwrap();
        // 9 jobs left: 3 per machine (±0 since 9 = 3·3).
        let counts: Vec<usize> = (0..3).map(|m| s.backend(m).active_count()).collect();
        assert_eq!(counts.iter().sum::<usize>(), 9);
        assert!(counts.iter().all(|&c| c == 3), "unbalanced: {counts:?}");
        validate_now(&s);
    }

    #[test]
    fn theorem_one_constructor() {
        let mut s = TheoremOneScheduler::theorem_one(2, 4);
        for i in 0..10u64 {
            s.insert(JobId(i), Window::new(i * 8 + 1, i * 8 + 8))
                .unwrap();
        }
        assert_eq!(s.active_count(), 10);
        validate_now(&s);
    }

    #[test]
    fn mixed_windows_spread_by_group() {
        let mut s = ReallocatingScheduler::from_factory(2, ReservationScheduler::new);
        // Two distinct windows delegate independently.
        for i in 0..4u64 {
            s.insert(JobId(i), Window::new(0, 64)).unwrap();
        }
        for i in 4..8u64 {
            s.insert(JobId(i), Window::new(64, 128)).unwrap();
        }
        for m in 0..2 {
            assert_eq!(s.backend(m).active_count(), 4);
        }
        validate_now(&s);
    }

    #[test]
    fn rotation_hash_is_pinned() {
        // Values std's `DefaultHasher` gave these windows (rustc 1.95);
        // a mismatch would move rotation starts and break journal replay.
        let golden = [
            ((0, 1), 0x7359_aa11_56ce_877a),
            ((0, 64), 0x79ab_9728_8c96_3b64),
            ((64, 128), 0xf46f_9db2_2ef7_b201),
            ((1024, 2048), 0x9d15_e9ba_7f5a_c072),
            ((4096, 8192), 0x8328_88b8_f4b0_2280),
            ((395_040, 395_072), 0x487e_08f7_2aaa_d229),
            ((0, 1 << 62), 0x074d_6ec6_ca50_926d),
            (((1 << 63) - 8, 1 << 63), 0x67f3_7a3c_b4f1_9660),
        ];
        for ((start, end), want) in golden {
            let w = Window::new(start, end);
            assert_eq!(rotation_hash(w), want, "window {w}");
            assert_eq!(
                WindowGroup::new(4, w).start,
                (want % 4) as usize,
                "window {w}"
            );
        }
    }
}
