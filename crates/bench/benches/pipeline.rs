//! Micro-benchmark: the preparation pipeline one update goes through
//! before anything is sent — `UpdateRequest::parse` → `to_instance` →
//! schedule → `verify_schedule(.., transiently_secure())` →
//! `compile_schedule` — each stage timed on its own, on the two
//! reversal shapes of the wall-clock benchmark (`reversal_wide`: n =
//! 256 under Peacock; `reversal_deep`: n = 128 under SLF-greedy), with
//! the same four-digit dpids and request body.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use sdn_ctrl::compile::{compile_schedule, FlowSpec};
use sdn_ctrl::UpdateRequest;
use sdn_topo::gen;
use update_core::algorithms::{Peacock, SlfGreedy, UpdateScheduler};
use update_core::checker::verify_schedule;
use update_core::properties::PropertySet;

fn bench_pipeline(c: &mut Criterion) {
    let shapes: [(&str, u64, &dyn UpdateScheduler); 2] = [
        ("reversal_wide", 256, &Peacock::default()),
        ("reversal_deep", 128, &SlfGreedy),
    ];
    let mut group = c.benchmark_group("pipeline");
    for (name, n, scheduler) in shapes {
        let pair = gen::shift(&gen::reversal(n), 1000);
        let topo = gen::materialize_batch(std::slice::from_ref(&pair));
        let (src, dst) = gen::batch_hosts(0);
        let hosts = FlowSpec { src, dst };
        let ids = |hops: &[sdn_types::DpId]| {
            let ids: Vec<String> = hops.iter().map(|d| d.0.to_string()).collect();
            ids.join(",")
        };
        let body = format!(
            r#"{{"oldpath":[{}],"newpath":[{}],"interval":100,"algorithm":"{}"}}"#,
            ids(pair.old.hops()),
            ids(pair.new.hops()),
            scheduler.name()
        );

        let req = UpdateRequest::parse(&body).unwrap();
        let inst = req.to_instance().unwrap();
        let schedule = scheduler.schedule(&inst).unwrap();
        let props = PropertySet::transiently_secure();
        assert!(verify_schedule(&inst, &schedule, props).is_ok());

        group.bench_function(format!("{name}/parse"), |b| {
            b.iter(|| UpdateRequest::parse(black_box(&body)).unwrap())
        });
        group.bench_function(format!("{name}/to_instance"), |b| {
            b.iter(|| black_box(&req).to_instance().unwrap())
        });
        group.bench_function(format!("{name}/schedule"), |b| {
            b.iter(|| scheduler.schedule(black_box(&inst)).unwrap())
        });
        group.bench_function(format!("{name}/verify"), |b| {
            b.iter(|| verify_schedule(black_box(&inst), black_box(&schedule), props))
        });
        group.bench_function(format!("{name}/compile"), |b| {
            b.iter(|| compile_schedule(&topo, black_box(&inst), &schedule, &hosts).unwrap())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_pipeline);
criterion_main!(benches);
