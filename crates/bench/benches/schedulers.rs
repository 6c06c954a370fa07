//! Micro-benchmark: schedule computation cost vs instance size.
//!
//! The scaling sizes (256–1024 by default) exercise the cross-round
//! `AdmissionProbe` session — the stateless oracle made these sizes
//! intractable (~26 ms at reversal/64 before PR 2), and per-round
//! session re-opens capped the sweep at n = 1024 before PR 3. Set
//! `SCHED_BENCH_MAX_N` to cap (CI smoke uses 256) or raise (2048 and
//! 4096 are registered but opt-in, to keep default runs short) the
//! sizes.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use sdn_types::DetRng;
use update_core::algorithms::{Peacock, SlfGreedy, TwoPhaseCommit, UpdateScheduler, WayUp};
use update_core::model::UpdateInstance;

fn max_n() -> u64 {
    std::env::var("SCHED_BENCH_MAX_N")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1024)
}

fn bench_schedulers(c: &mut Criterion) {
    let cap = max_n();
    let mut group = c.benchmark_group("schedulers");
    for n in [8u64, 32, 64].into_iter().filter(|&n| n <= cap) {
        let rev = sdn_topo::gen::reversal(n);
        let rev_inst = UpdateInstance::new(rev.old, rev.new, None).unwrap();
        group.bench_with_input(
            BenchmarkId::new("peacock_reversal", n),
            &rev_inst,
            |b, i| b.iter(|| Peacock::default().schedule(black_box(i)).unwrap()),
        );
        group.bench_with_input(
            BenchmarkId::new("slf_greedy_reversal", n),
            &rev_inst,
            |b, i| b.iter(|| SlfGreedy.schedule(black_box(i)).unwrap()),
        );
        group.bench_with_input(
            BenchmarkId::new("two_phase_reversal", n),
            &rev_inst,
            |b, i| b.iter(|| TwoPhaseCommit.schedule(black_box(i)).unwrap()),
        );

        let mut rng = DetRng::new(n);
        let wp = sdn_topo::gen::waypointed(n.max(5), false, &mut rng);
        let wp_inst = UpdateInstance::new(wp.old, wp.new, wp.waypoint).unwrap();
        group.bench_with_input(BenchmarkId::new("wayup_waypointed", n), &wp_inst, |b, i| {
            b.iter(|| WayUp::default().schedule(black_box(i)).unwrap())
        });
    }

    // Scaling tier: reversal (the SLF worst case) and random
    // permutations at datacenter-ish path lengths. 2048/4096 run only
    // when SCHED_BENCH_MAX_N raises the cap.
    for n in [256u64, 512, 1024, 2048, 4096]
        .into_iter()
        .filter(|&n| n <= cap)
    {
        let rev = sdn_topo::gen::reversal(n);
        let rev_inst = UpdateInstance::new(rev.old, rev.new, None).unwrap();
        group.bench_with_input(
            BenchmarkId::new("peacock_reversal", n),
            &rev_inst,
            |b, i| b.iter(|| Peacock::default().schedule(black_box(i)).unwrap()),
        );
        group.bench_with_input(
            BenchmarkId::new("slf_greedy_reversal", n),
            &rev_inst,
            |b, i| b.iter(|| SlfGreedy.schedule(black_box(i)).unwrap()),
        );

        let mut rng = DetRng::new(n ^ 0xabcd);
        let perm = sdn_topo::gen::random_permutation(n, &mut rng);
        let perm_inst = UpdateInstance::new(perm.old, perm.new, None).unwrap();
        group.bench_with_input(BenchmarkId::new("peacock_perm", n), &perm_inst, |b, i| {
            b.iter(|| Peacock::default().schedule(black_box(i)).unwrap())
        });
        group.bench_with_input(
            BenchmarkId::new("slf_greedy_perm", n),
            &perm_inst,
            |b, i| b.iter(|| SlfGreedy.schedule(black_box(i)).unwrap()),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_schedulers);
criterion_main!(benches);
