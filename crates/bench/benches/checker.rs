//! Micro-benchmark: transient verification cost of `verify_schedule`
//! on small schedules and on a Θ(n)-round strong-loop-freedom one.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use sdn_topo::builders::figure1;
use update_core::algorithms::{Peacock, SlfGreedy, UpdateScheduler, WayUp};
use update_core::checker::verify_schedule;
use update_core::model::UpdateInstance;
use update_core::properties::PropertySet;

fn bench_checker(c: &mut Criterion) {
    let f = figure1();
    let fig_inst =
        UpdateInstance::new(f.old_route.clone(), f.new_route.clone(), Some(f.waypoint)).unwrap();
    let fig_sched = WayUp::default().schedule(&fig_inst).unwrap();

    c.bench_function("checker/verify_fig1_wayup", |b| {
        b.iter(|| {
            verify_schedule(
                black_box(&fig_inst),
                black_box(&fig_sched),
                PropertySet::transiently_secure(),
            )
        })
    });

    let rev = sdn_topo::gen::reversal(32);
    let rev_inst = UpdateInstance::new(rev.old, rev.new, None).unwrap();
    let rev_sched = Peacock::default().schedule(&rev_inst).unwrap();
    c.bench_function("checker/verify_reversal32_peacock", |b| {
        b.iter(|| {
            verify_schedule(
                black_box(&rev_inst),
                black_box(&rev_sched),
                PropertySet::loop_free_relaxed(),
            )
        })
    });

    c.bench_function("checker/verify_reversal32_slf", |b| {
        b.iter(|| {
            verify_schedule(
                black_box(&rev_inst),
                black_box(&rev_sched),
                PropertySet::loop_free_strong(),
            )
        })
    });

    // Whole-schedule verification at scale: the Θ(n)-round SLF
    // schedule, where the cross-round session saves a choice-graph
    // rebuild per round.
    let big = sdn_topo::gen::reversal(256);
    let big_inst = UpdateInstance::new(big.old, big.new, None).unwrap();
    let big_sched = SlfGreedy.schedule(&big_inst).unwrap();
    c.bench_function("checker/verify_reversal256_slf", |b| {
        b.iter(|| {
            verify_schedule(
                black_box(&big_inst),
                black_box(&big_sched),
                PropertySet::loop_free_strong(),
            )
        })
    });
}

criterion_group!(benches, bench_checker);
criterion_main!(benches);
