//! E12 — scheduler throughput (per-request latency) across policies,
//! active-set sizes, and machine counts.
//!
//! Regenerates the throughput comparison of EXPERIMENTS.md: the
//! reservation scheduler's per-request work stays flat as `n` grows, the
//! naive baseline is comparable on slack-heavy churn, and EDF re-planning
//! degrades linearly (it recomputes the whole schedule every request).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use realloc_baselines::{EdfRescheduler, NaivePeckingScheduler};
use realloc_core::{Reallocator, Request, RequestSeq, SingleMachineReallocator};
use realloc_multi::{ReallocatingScheduler, TheoremOneScheduler};
use realloc_reservation::ReservationScheduler;
use realloc_sim::harness::churn_seq;
use realloc_workloads::{ChurnConfig, ChurnGenerator};

fn replay<R: Reallocator>(sched: &mut R, seq: &RequestSeq) {
    for &r in seq.requests() {
        sched.request(r).expect("bench stream is serviceable");
    }
}

/// E14 — the **bare** §4 `ReservationScheduler`, no trimming and no
/// machine/alignment wrappers, so `BENCH_reservation_churn.json` tracks
/// the rebalance/PLACE hot path itself (scratch buffers, occupancy
/// index, FxHash maps) without serving-layer overhead diluting it.
fn bench_reservation_churn(c: &mut Criterion) {
    let mut group = c.benchmark_group("reservation_churn");
    // Aligned single-machine churn, accepted verbatim by the bare
    // scheduler. Spans cover levels 0–2 of the paper tower.
    let aligned = |target: usize, len: usize, seed: u64| -> RequestSeq {
        let mut gen = ChurnGenerator::new(
            ChurnConfig {
                machines: 1,
                gamma: 8,
                horizon: 1 << 14,
                spans: vec![1, 4, 16, 64, 256, 1024],
                target_active: target,
                insert_bias: 0.6,
                unaligned: false,
            },
            seed,
        );
        gen.generate(len)
    };
    for &n in &[100usize, 400, 1600] {
        let seq = aligned(n, 6 * n, 17);
        group.throughput(Throughput::Elements(seq.len() as u64));
        group.bench_with_input(
            BenchmarkId::new("insert_delete", n),
            &seq,
            |b, seq: &RequestSeq| {
                b.iter(|| {
                    let mut s = ReservationScheduler::new();
                    for &r in seq.requests() {
                        match r {
                            Request::Insert { id, window } => {
                                s.insert(id, window).expect("aligned γ=8 churn")
                            }
                            Request::Delete { id } => s.delete(id).expect("active job"),
                        };
                    }
                    s.active_count()
                })
            },
        );
    }
    // Delete-heavy phase: deletes trigger the eager rebalance path (quota
    // drops, sheds, MOVEs) that the scratch/occupancy work targets most.
    let build = aligned(800, 2400, 23);
    group.throughput(Throughput::Elements(build.len() as u64));
    group.bench_with_input(
        BenchmarkId::from_parameter("churn_drain"),
        &build,
        |b, seq: &RequestSeq| {
            b.iter(|| {
                let mut s = ReservationScheduler::new();
                let mut live: Vec<realloc_core::JobId> = Vec::new();
                for &r in seq.requests() {
                    match r {
                        Request::Insert { id, window } => {
                            s.insert(id, window).expect("aligned γ=8 churn");
                            live.push(id);
                        }
                        Request::Delete { id } => {
                            s.delete(id).expect("active job");
                            live.retain(|&j| j != id);
                        }
                    }
                }
                for id in live.drain(..) {
                    s.delete(id).expect("active job");
                }
                s.occupied_slots()
            })
        },
    );
    // Worst case for the per-window assignment maps: the Theorem-1
    // pipeline on one machine with every job in a single window of span
    // 16n, so one window holds every fulfilled slot. The scheduler is
    // filled once, untimed; each iteration is one steady-state
    // delete + insert pair (oldest job out, a fresh one in).
    let n = 20_000u64;
    let window = realloc_core::Window::new(0, 16 * n);
    let mut sched = TheoremOneScheduler::theorem_one(1, 8);
    let mut live: std::collections::VecDeque<realloc_core::JobId> = (0..n)
        .map(|i| {
            let id = realloc_core::JobId(i);
            sched.insert(id, window).expect("one γ-slack window");
            id
        })
        .collect();
    let mut next = n;
    group.throughput(Throughput::Elements(2));
    group.bench_function("one_window", |b| {
        b.iter(|| {
            let old = live.pop_front().expect("window is never empty");
            sched.delete(old).expect("active job");
            let id = realloc_core::JobId(next);
            next += 1;
            sched.insert(id, window).expect("one γ-slack window");
            live.push_back(id);
        })
    });
    group.finish();
}

fn bench_vs_n(c: &mut Criterion) {
    let mut group = c.benchmark_group("churn_vs_n");
    for &n in &[100usize, 400, 1600] {
        let seq = churn_seq(1, 8, n, 1 << 12, false, 4 * n, 9);
        group.throughput(Throughput::Elements(seq.len() as u64));
        group.bench_with_input(BenchmarkId::new("reservation", n), &seq, |b, seq| {
            b.iter(|| {
                let mut s = ReallocatingScheduler::from_factory(1, ReservationScheduler::new);
                replay(&mut s, seq);
            })
        });
        group.bench_with_input(BenchmarkId::new("reservation_trim", n), &seq, |b, seq| {
            b.iter(|| {
                let mut s = TheoremOneScheduler::theorem_one(1, 8);
                replay(&mut s, seq);
            })
        });
        group.bench_with_input(BenchmarkId::new("naive", n), &seq, |b, seq| {
            b.iter(|| {
                let mut s = ReallocatingScheduler::from_factory(1, NaivePeckingScheduler::new);
                replay(&mut s, seq);
            })
        });
        // EDF recomputes everything per request: only bench small n.
        if n <= 400 {
            group.bench_with_input(BenchmarkId::new("edf", n), &seq, |b, seq| {
                b.iter(|| {
                    let mut s = EdfRescheduler::new(1);
                    replay(&mut s, seq);
                })
            });
        }
    }
    group.finish();
}

fn bench_vs_machines(c: &mut Criterion) {
    let mut group = c.benchmark_group("churn_vs_machines");
    for &m in &[1usize, 4, 16] {
        let seq = churn_seq(m, 16, 100 * m, 1 << 10, true, 3000, 14);
        group.throughput(Throughput::Elements(seq.len() as u64));
        group.bench_with_input(BenchmarkId::new("theorem_one", m), &seq, |b, seq| {
            b.iter(|| {
                let mut s = TheoremOneScheduler::theorem_one(m, 16);
                replay(&mut s, seq);
            })
        });
    }
    group.finish();
}

fn bench_vs_span(c: &mut Criterion) {
    let mut group = c.benchmark_group("churn_vs_span");
    for &exp in &[8u32, 14, 20] {
        let seq = churn_seq(1, 8, 400, 1 << exp, false, 3000, 27);
        group.throughput(Throughput::Elements(seq.len() as u64));
        group.bench_with_input(
            BenchmarkId::new("reservation", format!("2^{exp}")),
            &seq,
            |b, seq| {
                b.iter(|| {
                    let mut s = ReallocatingScheduler::from_factory(1, ReservationScheduler::new);
                    replay(&mut s, seq);
                })
            },
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_reservation_churn, bench_vs_n, bench_vs_machines, bench_vs_span
}
criterion_main!(benches);
