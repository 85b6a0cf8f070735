//! The reservation-based pecking-order scheduler of paper §4 (Figure 1).
//!
//! # Architecture
//!
//! The paper's Figure 1 describes RESERVE/MOVE/PLACE imperatively. We
//! implement the same algorithm around Observation 7 (fulfillment is
//! history independent):
//!
//! * the *fulfilled quota* of every window in every interval is a pure
//!   function of the per-window job counts and the interval's allowance
//!   ([`crate::quota`]);
//! * the scheduler's mutable state records only which concrete slots back
//!   the fulfilled reservations and where jobs physically sit
//!   ([`crate::state`]);
//! * the running invariant is **never over-assigned**: each window's
//!   assigned slots in an interval never exceed its quota there. Quota
//!   *drops* (a deletion's reservation removal, an allowance shrink) are
//!   rebalanced eagerly at the affected intervals — a drop on a slot that
//!   holds a job triggers the paper's MOVE. Quota *rises* are materialized
//!   lazily: PLACE first tries the already-backed slots, then *hunts*
//!   through the window's intervals in round-robin order, topping each up
//!   to quota until a free fulfilled slot appears (Lemma 8 guarantees one
//!   while the instance is sufficiently underallocated).
//!
//! Standing reservations (one per window per enclosed interval, Figure 1
//! line 1) exist for every window span up to the level's high-water mark —
//! see [`crate::state::Level`] for why this bounding is behaviour-safe.
//!
//! Mutations and their consequences are processed through a FIFO worklist,
//! mirroring Figure 1's order: reservations first, then placement, then
//! higher-level fallout. Displacements strictly increase in level, so the
//! cascade terminates after at most one PLACE per level — the
//! `O(min{log* n, log* Δ})` of Theorem 1.
//!
//! MOVE itself performs the paper's *swap trick* (lines 12–13 of Figure 1):
//! moving a level-ℓ job between two of its window's slots swaps the two
//! slots in every ancestor interval, so ancestor allowance sizes — and
//! therefore all quotas — are unchanged, and no rebalance is needed. At
//! most one higher-level job hops between the swapped slots.
//!
//! Spans `≤ L₁` (level 0) have no reservation machinery; they use the
//! constant-depth pecking-order cascade in [`crate::base`].
//!
//! # Hot-path engineering
//!
//! The steady-state request path performs **no heap allocation** beyond
//! the returned move list: every intermediate buffer a rebalance needs
//! lives in a [`Scratch`] block owned by the scheduler and reused across
//! requests (taken/restored around each rebalance so the rare recursive
//! hunt still works).
//!
//! A rebalance is **one pass over the interval's chain windows**: per
//! window one `windows` lookup and one `assigned_in` range scan, during
//! which the window's fulfilled quota is computed (Observation 7's
//! shortest-first rule is a running prefix, so no separate quota pass is
//! needed), assignments on lower-occupied slots are dropped, and surplus
//! empty assignments are shed. The held counts and surviving slots carry
//! straight into phase 2, which fetches a window's entry only if it gains
//! slots and is skipped outright when no window is under quota. The one
//! exception is the **MOVE fallback**: when shedding empties is not enough
//! and jobs must MOVE off shed slots, the pass pauses for the MOVEs and
//! phase 2 recounts its inputs from the state afterwards, because a MOVE
//! frees a slot here and its capacity hunt can re-enter this interval.
//!
//! Free-slot discovery walks the gaps of the per-interval occupancy index
//! ([`crate::state::IntervalState::phys_occ`]) lazily, only as far as the
//! claimed slots reach, instead of probing all `L_ℓ` slots of an interval
//! against the global slot map; index and allowance upkeep touch one
//! interval record per level; and all point-lookup maps use the
//! deterministic FxHash shim instead of SipHash. None of this changes
//! observable behaviour — the frozen seed copy in
//! `tests/seed_equivalence.rs` and the engine's golden-digest pin
//! (`crates/engine/tests/golden_digest.rs`) hold that down.

use crate::quota::{fulfilled_quotas, positions_gained, positions_lost, reservation_count, Demand};
use crate::state::{JobRec, Level};
use fxhash::FxHashMap;
use realloc_core::{Error, JobId, SingleMachineReallocator, Slot, SlotMove, Tower, Window};
use std::collections::hash_map::Entry;
use std::collections::VecDeque;
use std::ops::Range;

/// Maximum admissible window end: keeping the axis inside `[0, 2^63)`
/// guarantees aligned-parent and interval arithmetic never overflows.
pub const MAX_TIME: u64 = 1 << 63;

/// Deferred consequences of a mutation, processed FIFO.
#[derive(Clone, Debug)]
pub(crate) enum Task {
    /// Re-establish `interval`'s assignments against recomputed quotas.
    Rebalance {
        /// Scheduler level of the interval.
        level: usize,
        /// Interval start slot.
        istart: Slot,
    },
    /// Re-place a displaced job (the paper's cascading `PLACE(h)`).
    Place {
        /// The displaced job.
        job: JobId,
        /// Its window.
        window: Window,
        /// Its level.
        level: usize,
        /// The slot it was displaced from (for move accounting).
        from: Option<Slot>,
    },
}

/// Reusable buffers for the request hot path. Owned by the scheduler and
/// taken/restored around each rebalance, so steady-state inserts and
/// deletes allocate nothing beyond the returned move list.
#[derive(Clone, Debug, Default)]
pub(crate) struct Scratch {
    /// The rebalanced interval's chain windows, shortest span first.
    chain: Vec<ChainWindow>,
    /// One window's assignments in the interval (rebalance phases 0–1).
    cur: Vec<(Slot, Option<JobId>)>,
    /// Slots assigned to any chain window after phase 1 (sorted before
    /// phase 2 reads it).
    taken: Vec<Slot>,
    /// The FIFO worklist, reused across requests.
    work: VecDeque<Task>,
}

/// One chain window of the interval being rebalanced.
#[derive(Clone, Copy, Debug)]
struct ChainWindow {
    window: Window,
    /// Fulfilled quota in the interval (Observation 7).
    quota: u64,
    /// Assignments it holds in the interval.
    held: u64,
}

/// Single-machine reservation scheduler for recursively aligned windows
/// (paper §4). Implements [`SingleMachineReallocator`].
///
/// Windows must be aligned and end before [`MAX_TIME`]; the §5 alignment
/// wrapper (`realloc-multi`) produces such windows from arbitrary ones.
#[derive(Clone, Debug)]
pub struct ReservationScheduler {
    pub(crate) tower: Tower,
    /// Active jobs.
    pub(crate) jobs: FxHashMap<JobId, JobRec>,
    /// Physical occupancy: slot → job.
    pub(crate) slot_jobs: FxHashMap<Slot, JobId>,
    /// Per-level window/interval state; index = level.
    pub(crate) levels: Vec<Level>,
    /// Hot-path buffers (no observable state).
    pub(crate) scratch: Scratch,
}

impl ReservationScheduler {
    /// New scheduler with the paper tower (`L₁ = 32, L₂ = 256`).
    pub fn new() -> Self {
        Self::with_tower(Tower::paper())
    }

    /// New scheduler with a custom level ladder (tests / ablations).
    pub fn with_tower(tower: Tower) -> Self {
        let n = tower.max_levels();
        ReservationScheduler {
            tower,
            jobs: FxHashMap::default(),
            slot_jobs: FxHashMap::default(),
            levels: (0..n).map(|_| Level::default()).collect(),
            scratch: Scratch::default(),
        }
    }

    /// The tower in use.
    pub fn tower(&self) -> &Tower {
        &self.tower
    }

    // ------------------------------------------------------------------
    // Geometry helpers
    // ------------------------------------------------------------------

    /// Interval span `L_ℓ` of `level ≥ 1`.
    pub(crate) fn ispan(&self, level: usize) -> u64 {
        self.tower.interval_span(level)
    }

    /// Start of the level-`level` interval containing `slot`.
    pub(crate) fn interval_of(&self, level: usize, slot: Slot) -> Slot {
        // Interval spans are powers of two (`Tower` checks): mask, don't
        // divide — this runs several times per request.
        slot & !(self.ispan(level) - 1)
    }

    /// Number of level-`level` intervals in window `w` (the paper's `2^k`).
    pub(crate) fn num_intervals(&self, level: usize, w: Window) -> u64 {
        w.span() / self.ispan(level)
    }

    // ------------------------------------------------------------------
    // Quotas
    // ------------------------------------------------------------------

    /// The chain of windows containing the interval at `istart` (all spans
    /// up to the level's high-water mark), sorted by span ascending, with
    /// their fulfilled quotas in this interval. Pure (Observation 7).
    /// Invariant checks and probes use this; the rebalance hot path
    /// computes the same quotas inline, one chain window at a time.
    pub(crate) fn quotas_at(&self, level: usize, istart: Slot) -> Vec<(Window, u64)> {
        let ispan = self.ispan(level);
        let lvl = &self.levels[level];
        let lower = lvl
            .intervals
            .get(&istart)
            .map(|i| i.lower_occ.len() as u64)
            .unwrap_or(0);
        let chain: Vec<Window> = lvl
            .chain_spans(ispan)
            .map(|span| Window::aligned_enclosing(istart, span))
            .collect();
        let demands: Vec<Demand> = chain
            .iter()
            .map(|&w| Demand {
                span: w.span(),
                reservations: reservation_count(
                    lvl.windows.get(&w).map_or(0, |ws| ws.x),
                    w.span() / ispan,
                    (istart - w.start()) / ispan,
                ),
            })
            .collect();
        chain
            .into_iter()
            .zip(fulfilled_quotas(&demands, ispan - lower))
            .collect()
    }

    // ------------------------------------------------------------------
    // Occupancy index maintenance
    // ------------------------------------------------------------------

    /// Records that `slot` became occupied, with one interval-record
    /// lookup per level: it enters the occupancy index of its enclosing
    /// interval at every level (unless `reoccupied` — a displacement keeps
    /// the slot occupied) and the lower-occupancy set at the levels in
    /// `lower`.
    fn note_occupied(&mut self, slot: Slot, reoccupied: bool, lower: Range<usize>) {
        for lvl in 1..self.levels.len() {
            let flip = lower.contains(&lvl);
            if reoccupied && !flip {
                continue;
            }
            let istart = self.interval_of(lvl, slot);
            let rec = self.levels[lvl].intervals.entry(istart).or_default();
            if !reoccupied {
                let inserted = rec.phys_occ.insert(slot);
                debug_assert!(inserted, "slot {slot} double-entered the index at {lvl}");
            }
            if flip {
                rec.lower_occ.insert(slot);
            }
        }
    }

    /// Records that `slot` became physically free, with one interval-record
    /// lookup per level: it leaves every level's occupancy index and the
    /// lower-occupancy set at the levels in `lower`, pruning interval
    /// records that carry nothing else.
    fn note_freed(&mut self, slot: Slot, lower: Range<usize>) {
        for lvl in 1..self.levels.len() {
            let istart = self.interval_of(lvl, slot);
            let Entry::Occupied(mut rec) = self.levels[lvl].intervals.entry(istart) else {
                debug_assert!(false, "interval of an occupied slot must be materialized");
                continue;
            };
            if lower.contains(&lvl) {
                let had = rec.get_mut().lower_occ.remove(&slot);
                debug_assert!(had, "occupied slot unrecorded at ancestor level {lvl}");
            }
            let had = rec.get_mut().phys_occ.remove(&slot);
            debug_assert!(had, "freed slot {slot} missing from the index at {lvl}");
            if rec.get().is_empty() {
                rec.remove();
            }
        }
    }

    // ------------------------------------------------------------------
    // Worklist processing
    // ------------------------------------------------------------------

    fn drain(&mut self, work: &mut VecDeque<Task>, moves: &mut Vec<SlotMove>) -> Result<(), Error> {
        while let Some(task) = work.pop_front() {
            match task {
                Task::Rebalance { level, istart } => {
                    self.rebalance(level, istart, moves)?;
                }
                Task::Place {
                    job,
                    window,
                    level,
                    from,
                } => {
                    self.place(job, window, level, from, moves, work)?;
                }
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Rebalance: re-establish one interval against its quotas
    // ------------------------------------------------------------------

    /// Brings the interval at `istart` back under quota and tops it up:
    ///
    /// 0. drop assignments on slots that fell out of the allowance,
    /// 1. shed over-quota assignments (MOVE jobs off slots being shed),
    /// 2. claim free allowance slots for under-quota windows.
    ///
    /// Step 2 makes the interval *exactly* quota-consistent; intervals that
    /// were never rebalanced simply hold no assignments yet (lazy rises).
    fn rebalance(
        &mut self,
        level: usize,
        istart: Slot,
        moves: &mut Vec<SlotMove>,
    ) -> Result<(), Error> {
        // Take the scratch block so the borrow checker lets the buffers
        // live across `&mut self` calls. A recursive rebalance (MOVE →
        // hunt) sees — and leaves behind — a default block; only the
        // outermost frame keeps the warmed buffers.
        let mut sc = std::mem::take(&mut self.scratch);
        let result = self.rebalance_inner(level, istart, moves, &mut sc);
        self.scratch = sc;
        result
    }

    fn rebalance_inner(
        &mut self,
        level: usize,
        istart: Slot,
        moves: &mut Vec<SlotMove>,
        sc: &mut Scratch,
    ) -> Result<(), Error> {
        let ispan = self.ispan(level);
        let iw = Window::with_span(istart, ispan);
        let high_water = self.levels[level].high_water;
        // The chain: spans `2·ispan, 4·ispan, …` up to the high-water mark
        // (`Level::chain_spans`), walked by hand so the walk can pause for
        // a MOVE and resume.
        let mut span = 2 * ispan;
        // Spans are powers of two: mask and shift, don't divide.
        let shift = ispan.trailing_zeros();
        if span > high_water {
            // No window spans this interval at this level: nothing to do.
            return Ok(());
        }
        sc.chain.clear();
        sc.taken.clear();
        let mut remaining: Option<u64> = None;
        let mut moved = false;

        // Phases 0 + 1 in one pass over the chain, shortest span first:
        // per window one `windows` lookup and one `assigned_in` scan. The
        // fulfilled quota is Observation 7's shortest-first rule applied
        // incrementally (each window takes what the shorter ones left of
        // the allowance), so it needs no separate quota pass. The pass
        // pauses only when a window must MOVE jobs off shed slots.
        loop {
            let pending = {
                let Level {
                    windows, intervals, ..
                } = &mut self.levels[level];
                let lower_occ = intervals.get(&istart).map(|i| &i.lower_occ);
                let remaining = remaining
                    .get_or_insert_with(|| ispan - lower_occ.map_or(0, |l| l.len() as u64));
                let mut pending = None;
                while span <= high_water {
                    let w = Window::with_span(istart & !(span - 1), span);
                    let ws = windows.get_mut(&w);
                    let x = ws.as_ref().map_or(0, |ws| ws.x);
                    let reservations =
                        reservation_count(x, span >> shift, (istart - w.start()) >> shift);
                    let quota = reservations.min(*remaining);
                    *remaining -= quota;
                    span = span.saturating_mul(2);
                    let Some(ws) = ws else {
                        sc.chain.push(ChainWindow {
                            window: w,
                            quota,
                            held: 0,
                        });
                        continue;
                    };
                    sc.cur.clear();
                    sc.cur.extend(ws.assigned_in(iw));
                    // Phase 0: drop assignments on slots that fell out of
                    // the allowance. Only an empty one can: a lower job
                    // taking a slot displaces any level-ℓ job there.
                    if let Some(lower) = lower_occ.filter(|l| !l.is_empty()) {
                        sc.cur.retain(|&(s, j)| {
                            if j.is_some() {
                                debug_assert!(
                                    !lower.contains(&s),
                                    "lower-occupied slot {s} still holds a level-{level} job"
                                );
                                return true;
                            }
                            if !lower.contains(&s) {
                                return true;
                            }
                            ws.remove_assignment(s);
                            false
                        });
                    }
                    // Phase 1: shed over-quota assignments, empty ones
                    // first (left to right).
                    let mut excess = (sc.cur.len() as u64).saturating_sub(quota);
                    if excess > 0 {
                        sc.cur.retain(|&(s, j)| {
                            if excess == 0 || j.is_some() {
                                return true;
                            }
                            ws.remove_assignment(s);
                            excess -= 1;
                            false
                        });
                    }
                    sc.chain.push(ChainWindow {
                        window: w,
                        quota,
                        held: (sc.cur.len() as u64).min(quota),
                    });
                    if excess > 0 {
                        pending = Some((w, excess));
                        break;
                    }
                    sc.taken.extend(sc.cur.iter().map(|&(s, _)| s));
                }
                pending
            };
            let Some((w, excess)) = pending else { break };
            // Every empty assignment is gone and `excess` jobs still sit
            // on over-quota slots: MOVE them off, left to right.
            moved = true;
            for &(s, j) in sc.cur.iter().take(excess as usize) {
                let j = j.expect("empty assignments were shed first");
                self.move_job(level, w, j, moves)?;
                // `move_job` vacated `s`; the assignment is now empty.
                self.levels[level]
                    .windows
                    .get_mut(&w)
                    .unwrap()
                    .remove_assignment(s);
            }
        }

        // A MOVE frees a slot here, and its capacity hunt can rebalance
        // this very interval: recount the phase-2 inputs from the state.
        if moved {
            sc.taken.clear();
            let windows = &self.levels[level].windows;
            for t in sc.chain.iter_mut() {
                t.held = 0;
                if let Some(ws) = windows.get(&t.window) {
                    for (s, _) in ws.assigned_in(iw) {
                        sc.taken.push(s);
                        t.held += 1;
                    }
                }
            }
        }
        if sc.chain.iter().all(|t| t.held >= t.quota) {
            return Ok(());
        }

        // Phase 2a: claim free allowance slots for under-quota windows, in
        // chain order. Free slots are the gaps of `taken` ∪ the occupancy
        // index (`lower_occ ⊆ phys_occ`), walked lazily left to right; the
        // cursor never revisits a slot, which matches the seed's
        // scan-from-the-left with a shared `taken` set.
        sc.taken.sort_unstable();
        let Level {
            windows, intervals, ..
        } = &mut self.levels[level];
        let ist = intervals.get(&istart);
        let mut phys = ist.into_iter().flat_map(|i| i.phys_occ.iter().copied());
        let mut next_phys = phys.next();
        let mut ti = 0usize;
        let iend = istart + ispan;
        let mut cursor = istart;
        for t in sc.chain.iter_mut() {
            let mut ws = None;
            while t.held < t.quota && cursor < iend {
                let slot = cursor;
                cursor += 1;
                let mut blocked = false;
                if sc.taken.get(ti) == Some(&slot) {
                    ti += 1;
                    blocked = true;
                }
                if next_phys == Some(slot) {
                    next_phys = phys.next();
                    blocked = true;
                }
                if !blocked {
                    if ws.is_none() {
                        ws = Some(windows.entry(t.window).or_default());
                    }
                    ws.as_mut().unwrap().add_assignment(slot);
                    t.held += 1;
                }
            }
        }

        // Phase 2b: residual demand falls back to occupied-but-unassigned
        // slots (assignment ≠ occupancy; PLACE displaces on use). This can
        // only happen once every free slot in the interval is spoken for,
        // so the candidates are exactly `phys_occ \ (taken ∪ lower_occ)`,
        // left to right.
        if sc.chain.iter().any(|t| t.held < t.quota) {
            let mut spare = ist
                .into_iter()
                .flat_map(|i| {
                    i.phys_occ
                        .iter()
                        .copied()
                        .filter(|p| !i.lower_occ.contains(p))
                })
                .filter(|p| sc.taken.binary_search(p).is_err());
            for t in sc.chain.iter_mut() {
                let mut ws = None;
                while t.held < t.quota {
                    let Some(p) = spare.next() else { break };
                    if ws.is_none() {
                        ws = Some(windows.entry(t.window).or_default());
                    }
                    ws.as_mut().unwrap().add_assignment(p);
                    t.held += 1;
                }
                debug_assert!(t.held >= t.quota, "quota exceeds free capacity in interval");
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // MOVE (Figure 1, lines 10–14): relocate a job within its window,
    // swapping the two slots in all ancestor intervals.
    // ------------------------------------------------------------------

    fn move_job(
        &mut self,
        level: usize,
        w: Window,
        job: JobId,
        moves: &mut Vec<SlotMove>,
    ) -> Result<(), Error> {
        let s = self.jobs[&job].slot;
        // Target: an empty fulfilled slot of `w` (Lemma 8 guarantees one),
        // preferring a physically free slot over one under a higher job.
        let target = match self.pick_fulfilled_slot(level, w) {
            Some(t) => t,
            None => self.hunt_capacity(job, level, w, moves)?,
        };
        debug_assert_ne!(target, s);
        let hopper = self.slot_jobs.get(&target).copied();

        // Physical swap: job s -> target; hopper (if any) target -> s.
        self.slot_jobs.insert(target, job);
        self.jobs.get_mut(&job).unwrap().slot = target;
        {
            let ws = self.levels[level].windows.get_mut(&w).unwrap();
            ws.vacate(s);
            ws.occupy(target, job);
        }
        moves.push(SlotMove {
            job,
            from: Some(s),
            to: Some(target),
        });

        let htop = match hopper {
            Some(h) => {
                let hrec = self.jobs[&h];
                debug_assert!(
                    hrec.level > level,
                    "occupant of a fulfilled slot must be higher-level"
                );
                // h hops target -> s; its own fulfilled slot re-points.
                // Both slots stay occupied, so the occupancy index is
                // untouched.
                self.slot_jobs.insert(s, h);
                self.jobs.get_mut(&h).unwrap().slot = s;
                let hws = self.levels[hrec.level]
                    .windows
                    .get_mut(&hrec.window)
                    .unwrap();
                hws.vacate(target);
                hws.remove_assignment(target);
                hws.add_assignment(s);
                hws.occupy(s, h);
                moves.push(SlotMove {
                    job: h,
                    from: Some(target),
                    to: Some(s),
                });
                hrec.level
            }
            None => {
                self.slot_jobs.remove(&s);
                self.levels.len() - 1
            }
        };

        // Ancestor swap (Figure 1 lines 12–13): for levels in (level, htop],
        // `s` and `target` trade lower-occupancy and any assignment at
        // `target` re-points to `s`. Allowance sizes — hence quotas — are
        // unchanged, so no rebalance is needed.
        for lvl2 in (level + 1)..=htop {
            let istart = self.interval_of(lvl2, s);
            debug_assert_eq!(
                istart,
                self.interval_of(lvl2, target),
                "swap must stay within one ancestor interval"
            );
            if let Some(rec) = self.levels[lvl2].intervals.get_mut(&istart) {
                let had_s = rec.lower_occ.remove(&s);
                debug_assert!(
                    had_s,
                    "slot {s} was occupied by a lower job but unrecorded at level {lvl2}"
                );
                rec.lower_occ.insert(target);
            } else {
                debug_assert!(
                    false,
                    "ancestor interval of an occupied slot must be materialized"
                );
            }
            // Re-point a level-lvl2 assignment at `target`, if any, to `s`.
            // At the hopper's own level this was done above; here we handle
            // windows other than the hopper's.
            if let Some(w2) = self.assignment_holder(lvl2, target) {
                let ws2 = self.levels[lvl2].windows.get_mut(&w2).unwrap();
                ws2.remove_assignment(target);
                ws2.add_assignment(s);
            }
        }

        // Occupancy index: with a hopper both slots stay occupied; without
        // one the job's move frees `s` and claims `target`.
        if hopper.is_none() {
            self.note_occupied(target, false, 0..0);
            self.note_freed(s, 0..0);
        }
        Ok(())
    }

    /// Which level-`level` window (if any) holds an *empty* fulfilled
    /// reservation at `slot`. Scans the chain of enclosing windows.
    fn assignment_holder(&self, level: usize, slot: Slot) -> Option<Window> {
        let ispan = self.ispan(level);
        let lvl = &self.levels[level];
        for span in lvl.chain_spans(ispan) {
            let w = Window::aligned_enclosing(slot, span);
            if let Some(ws) = lvl.windows.get(&w) {
                if let Some(occ) = ws.assigned.get(&slot) {
                    debug_assert!(occ.is_none(), "re-pointed slot {slot} holds a job");
                    return Some(w);
                }
            }
        }
        None
    }

    // ------------------------------------------------------------------
    // Occupy / vacate: physical placement + displacement + allowance flips
    // ------------------------------------------------------------------

    /// Places `job` (level `level`) physically into `slot`, displacing any
    /// higher-level occupant and updating ancestor allowances. Does *not*
    /// touch `job`'s own window state — the caller does.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn occupy_slot(
        &mut self,
        job: JobId,
        window: Window,
        level: usize,
        slot: Slot,
        from: Option<Slot>,
        moves: &mut Vec<SlotMove>,
        work: &mut VecDeque<Task>,
    ) {
        let displaced = self.slot_jobs.insert(slot, job).map(|h| {
            let hrec = self.jobs[&h];
            debug_assert!(
                hrec.level > level,
                "pecking order: only higher-level jobs are displaced"
            );
            // h loses its slot; its stale (now empty) assignment at `slot`
            // is cleaned by the flip-triggered rebalance below.
            self.levels[hrec.level]
                .windows
                .get_mut(&hrec.window)
                .unwrap()
                .vacate(slot);
            (h, hrec)
        });
        self.jobs.insert(
            job,
            JobRec {
                window,
                level,
                slot,
            },
        );
        moves.push(SlotMove {
            job,
            from,
            to: Some(slot),
        });

        // Allowance flips: `slot` becomes lower-occupied for levels in
        // (level, htop]; above a displaced occupant's level it already was.
        // Each flipped interval is rebalanced.
        let htop = displaced
            .as_ref()
            .map(|(_, hrec)| hrec.level)
            .unwrap_or(self.levels.len() - 1);
        self.note_occupied(slot, displaced.is_some(), (level + 1)..(htop + 1));
        for lvl2 in (level + 1)..=htop {
            work.push_back(Task::Rebalance {
                level: lvl2,
                istart: self.interval_of(lvl2, slot),
            });
        }
        if let Some((h, hrec)) = displaced {
            work.push_back(Task::Place {
                job: h,
                window: hrec.window,
                level: hrec.level,
                from: Some(slot),
            });
        }
    }

    /// Removes `job` from `slot` physically and updates ancestor allowances
    /// (the slot re-enters the allowance of every ancestor interval; quota
    /// rises never move jobs, so no rebalances are queued — the new
    /// capacity is claimed lazily).
    pub(crate) fn vacate_physical(
        &mut self,
        job: JobId,
        level: usize,
        slot: Slot,
        moves: &mut Vec<SlotMove>,
    ) {
        let prev = self.slot_jobs.remove(&slot);
        debug_assert_eq!(prev, Some(job));
        moves.push(SlotMove {
            job,
            from: Some(slot),
            to: None,
        });
        self.note_freed(slot, (level + 1)..self.levels.len());
    }

    // ------------------------------------------------------------------
    // PLACE (Figure 1, lines 15–23)
    // ------------------------------------------------------------------

    fn place(
        &mut self,
        job: JobId,
        window: Window,
        level: usize,
        from: Option<Slot>,
        moves: &mut Vec<SlotMove>,
        work: &mut VecDeque<Task>,
    ) -> Result<(), Error> {
        debug_assert!(level >= 1, "level-0 jobs use the base cascade");
        let slot = match self.pick_fulfilled_slot(level, window) {
            Some(s) => s,
            None => self.hunt_capacity(job, level, window, moves)?,
        };
        self.occupy_slot(job, window, level, slot, from, moves, work);
        self.levels[level]
            .windows
            .get_mut(&window)
            .unwrap()
            .occupy(slot, job);
        Ok(())
    }

    /// An empty fulfilled slot of `window`, preferring physically free ones.
    fn pick_fulfilled_slot(&self, level: usize, window: Window) -> Option<Slot> {
        let ws = self.levels[level].windows.get(&window)?;
        ws.empty_assigned
            .iter()
            .copied()
            .find(|s| !self.slot_jobs.contains_key(s))
            .or_else(|| ws.empty_assigned.iter().copied().next())
    }

    /// Materializes quota rises interval by interval (round-robin order —
    /// leftmost intervals hold the most reservations) until `window` gains
    /// an empty fulfilled slot. Lemma 8 guarantees total quota ≥ x+1, so
    /// the hunt succeeds whenever the instance is sufficiently
    /// underallocated.
    fn hunt_capacity(
        &mut self,
        job: JobId,
        level: usize,
        window: Window,
        moves: &mut Vec<SlotMove>,
    ) -> Result<Slot, Error> {
        let ispan = self.ispan(level);
        let ni = self.num_intervals(level, window);
        for pos in 0..ni {
            let istart = window.start() + pos * ispan;
            self.rebalance(level, istart, moves)?;
            if let Some(s) = self.pick_fulfilled_slot(level, window) {
                return Ok(s);
            }
        }
        Err(Error::CapacityExhausted {
            job,
            detail: format!(
                "PLACE: window {window} at level {level} has no fulfilled empty slot \
                 in any of its {ni} intervals (underallocation precondition violated)"
            ),
        })
    }

    // ------------------------------------------------------------------
    // Insert / delete at levels ≥ 1
    // ------------------------------------------------------------------

    fn insert_leveled(
        &mut self,
        job: JobId,
        window: Window,
        level: usize,
        moves: &mut Vec<SlotMove>,
        work: &mut VecDeque<Task>,
    ) -> Result<(), Error> {
        let ispan = self.ispan(level);
        let ni = self.num_intervals(level, window);
        self.levels[level].high_water = self.levels[level].high_water.max(window.span());
        let x_old = {
            let ws = self.levels[level].windows.entry(window).or_default();
            let x_old = ws.x;
            ws.x += 1;
            x_old
        };

        // The two new reservations (Figure 1 step 1–2): quota rises at the
        // two leftmost lightest intervals; rebalancing them may steal a slot
        // from a longer window (≤ 1 MOVE each).
        for pos in positions_gained(x_old, ni) {
            work.push_back(Task::Rebalance {
                level,
                istart: window.start() + pos * ispan,
            });
        }

        // PLACE the new job (Figure 1 step 3) after the reservations settle.
        let attempt = self
            .drain(work, moves)
            .and_then(|()| self.place(job, window, level, None, moves, work))
            .and_then(|()| self.drain(work, moves));
        match attempt {
            Ok(()) => Ok(()),
            Err(e) => {
                // Roll the reservation bump back so state stays valid. (If
                // the failure happened after the job was physically placed —
                // possible only when underallocation is violated mid-cascade
                // — the job is withdrawn again.)
                work.clear();
                let mut rollback = VecDeque::new();
                if let Some(rec) = self.jobs.get(&job).copied() {
                    self.levels[level]
                        .windows
                        .get_mut(&window)
                        .unwrap()
                        .vacate(rec.slot);
                    self.vacate_physical(job, level, rec.slot, moves);
                    self.jobs.remove(&job);
                }
                self.levels[level].windows.get_mut(&window).unwrap().x -= 1;
                for pos in positions_lost(x_old + 1, ni) {
                    rollback.push_back(Task::Rebalance {
                        level,
                        istart: window.start() + pos * ispan,
                    });
                }
                self.drain(&mut rollback, moves)?;
                Err(e)
            }
        }
    }

    fn delete_leveled(
        &mut self,
        job: JobId,
        rec: JobRec,
        moves: &mut Vec<SlotMove>,
        work: &mut VecDeque<Task>,
    ) -> Result<(), Error> {
        let (window, level, slot) = (rec.window, rec.level, rec.slot);
        let ispan = self.ispan(level);
        let ni = self.num_intervals(level, window);

        // Physically remove the job; its fulfilled slot stays (for now).
        // Drop the two reservations: quota falls at the two rightmost
        // heaviest intervals (may shed fulfilled slots; a shed slot holding
        // a job triggers MOVE). Standing per-interval reservations remain
        // even at x = 0 (Figure 1 line 1).
        let x_old = {
            let ws = self.levels[level].windows.get_mut(&window).unwrap();
            ws.vacate(slot);
            ws.x -= 1;
            ws.x + 1
        };
        self.vacate_physical(job, level, slot, moves);
        self.jobs.remove(&job);
        for pos in positions_lost(x_old, ni) {
            work.push_back(Task::Rebalance {
                level,
                istart: window.start() + pos * ispan,
            });
        }
        self.drain(work, moves)
    }

    // ------------------------------------------------------------------
    // Aborted-cascade recovery
    // ------------------------------------------------------------------

    /// Restores `jobs`/`slot_jobs` consistency after an aborted
    /// displacement cascade.
    ///
    /// A request rejected *mid-cascade* (possible only when the
    /// underallocation precondition is violated) can leave one displaced
    /// job without a slot: its PLACE either failed or was still queued
    /// when the worklist was cleared. At most one PLACE is ever in flight
    /// or pending, so at most one job is orphaned per abort. The orphan
    /// is re-placed through the ordinary PLACE machinery — the withdrawn
    /// request released the capacity it had claimed — and if even that
    /// fails the schedule is rebuilt from scratch. A rejected request
    /// must never corrupt state: the engine keeps serving after
    /// rejections.
    ///
    /// O(1) when nothing is orphaned (one length probe), which is every
    /// path that matters.
    pub(crate) fn recover_orphans(&mut self, moves: &mut Vec<SlotMove>) {
        if self.jobs.len() == self.slot_jobs.len() {
            return;
        }
        let orphans: Vec<(JobId, JobRec)> = self
            .jobs
            .iter()
            .filter(|(id, rec)| self.slot_jobs.get(&rec.slot) != Some(id))
            .map(|(&id, &rec)| (id, rec))
            .collect();
        for (id, rec) in orphans {
            debug_assert!(rec.level >= 1, "base-cascade rollback is exact");
            let mut work = VecDeque::new();
            let replaced = self
                .place(id, rec.window, rec.level, Some(rec.slot), moves, &mut work)
                .and_then(|()| self.drain(&mut work, moves));
            if replaced.is_err() {
                self.rebuild_from_active();
                return;
            }
        }
    }

    /// Last-resort consistency restore: rebuilds the whole schedule from
    /// the active set, span-sorted (shorter windows first never displace
    /// anything). Only reachable when an orphan could not be re-placed —
    /// i.e. under a doubly violated underallocation precondition. Jobs
    /// the rebuild cannot place (the instance is over-packed beyond what
    /// the reservation machinery tolerates) are dropped rather than kept
    /// in an inconsistent schedule.
    fn rebuild_from_active(&mut self) {
        let mut jobs: Vec<(JobId, Window)> = self
            .jobs
            .iter()
            .map(|(&id, rec)| (id, rec.window))
            .collect();
        jobs.sort_by_key(|&(id, w)| (w.span(), w.start(), id));
        let mut fresh = ReservationScheduler::with_tower(self.tower.clone());
        for (level, lvl) in self.levels.iter().enumerate() {
            // Preserve high-water marks: standing-reservation reach only
            // ever grows, and keeping it avoids quota discontinuities.
            fresh.levels[level].high_water = lvl.high_water;
        }
        for &(id, w) in &jobs {
            let _ = fresh.insert(id, w);
        }
        *self = fresh;
    }

    /// Count of physically occupied slots (for tests).
    pub fn occupied_slots(&self) -> usize {
        self.slot_jobs.len()
    }

    /// Number of window states currently held (for memory tests).
    pub fn window_states(&self) -> usize {
        self.levels.iter().map(|l| l.windows.len()).sum()
    }

    /// Reclaims memory: drops the state of every window with no jobs,
    /// releasing its standing-reservation slots.
    ///
    /// Safe because the running invariant only requires assignments to
    /// never *exceed* quotas: un-backing an empty window's standing
    /// reservations is a lazy rise waiting to be re-claimed (by a later
    /// rebalance or hunt), and the freed slots can only help other
    /// windows. Call this at quiet points; cost is `O(state size)`.
    pub fn compact(&mut self) {
        for level in self.levels.iter_mut() {
            level.windows.retain(|_, ws| ws.x > 0);
        }
    }
}

impl Default for ReservationScheduler {
    fn default() -> Self {
        Self::new()
    }
}

impl SingleMachineReallocator for ReservationScheduler {
    fn insert(&mut self, id: JobId, window: Window) -> Result<Vec<SlotMove>, Error> {
        if self.jobs.contains_key(&id) {
            return Err(Error::DuplicateJob(id));
        }
        if !window.is_aligned() {
            return Err(Error::UnalignedWindow(window));
        }
        if window.end() > MAX_TIME {
            return Err(Error::UnsupportedJob {
                job: id,
                detail: format!("window end {} exceeds MAX_TIME 2^63", window.end()),
            });
        }
        let level = self.tower.level_of(window.span());
        let mut moves = Vec::new();
        // Reuse the pooled worklist (failed cascades may leave tasks
        // behind; clear before restoring).
        let mut work = std::mem::take(&mut self.scratch.work);
        debug_assert!(work.is_empty());
        let result = if level == 0 {
            self.insert_base(id, window, &mut moves, &mut work)
                .and_then(|()| self.drain(&mut work, &mut moves))
        } else {
            self.insert_leveled(id, window, level, &mut moves, &mut work)
        };
        work.clear();
        self.scratch.work = work;
        if result.is_err() {
            // A mid-cascade rejection may have orphaned one displaced
            // job; restore consistency before surfacing the error.
            self.recover_orphans(&mut moves);
        }
        result.map(|()| moves)
    }

    fn delete(&mut self, id: JobId) -> Result<Vec<SlotMove>, Error> {
        let rec = *self.jobs.get(&id).ok_or(Error::UnknownJob(id))?;
        let mut moves = Vec::new();
        let mut work = std::mem::take(&mut self.scratch.work);
        debug_assert!(work.is_empty());
        let result = if rec.level == 0 {
            self.delete_base(id, rec, &mut moves);
            self.drain(&mut work, &mut moves)
        } else {
            self.delete_leveled(id, rec, &mut moves, &mut work)
        };
        work.clear();
        self.scratch.work = work;
        if result.is_err() {
            self.recover_orphans(&mut moves);
        }
        result.map(|()| moves)
    }

    fn slot_of(&self, id: JobId) -> Option<Slot> {
        self.jobs.get(&id).map(|r| r.slot)
    }

    fn assignments(&self) -> Vec<(JobId, Slot)> {
        self.jobs.iter().map(|(&id, r)| (id, r.slot)).collect()
    }

    fn active_count(&self) -> usize {
        self.jobs.len()
    }

    fn name(&self) -> &'static str {
        "reservation"
    }
}
