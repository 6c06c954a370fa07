//! E11 — live shard rebalancing under load.
//!
//! PR 9's migration protocol claims a switch seat can move between
//! shards while updates execute, at no observable cost to the data
//! plane: work touching the migrating switch parks behind the fence,
//! the seat (resync shadow, RTO entries, touch counters, quarantine,
//! journal baseline) carries over, and parked work releases against
//! the new owner. This experiment prices that claim on the simulated
//! data plane:
//!
//! * **pause** — per-migration time from the operator's request
//!   ([`FaultKind::MigrateSeat`]) to the seat landing on the
//!   destination shard, observed by stepping the world in 50 µs
//!   slices and watching the `migrating` list in the status report
//!   drain (p50/p99 over the batch of moves);
//! * **makespan delta** — workload completion time with the
//!   migrations vs the identical run without them: the end-to-end tax
//!   of rebalancing mid-flight.
//!
//! All timing is virtual (deterministic): the output is gated byte for
//! byte by `ci/exp_digests.sh`. Self-asserts its acceptance bar: every requested
//! migration commits (no aborts), zero transient violations and a
//! rule-for-rule clean audit in both runs, the final `migrating` list
//! is empty, and every pause is bounded by one second of virtual
//! time.
//!
//! Flags: `--tier small` (CI smoke sizes), `--json-out PATH`.

use std::collections::BTreeMap;

use sdn_bench::export::tier_and_json_out;
use sdn_bench::stats::percentile;
use sdn_bench::table::{f2, f3, Table};
use sdn_bench::workload::{
    disjoint_flows, install_and_compile, makespan_ms, patient_runtime, probe_flows, FLOW_LEN,
};
use sdn_bench::{Export, Record};
use sdn_channel::config::ChannelConfig;
use sdn_ctrl::runtime::{FabricConfig, SubmitRequest};
use sdn_sim::chaos::FaultKind;
use sdn_sim::report::SimReport;
use sdn_sim::world::{World, WorldConfig};
use sdn_topo::gen::{self, UpdatePair};
use sdn_types::{DpId, SimDuration, SimTime};

const SLICE_US: u64 = 50;

/// Build the world, submit the whole batch at t=0 and start probes.
fn loaded_world(pairs: &[UpdatePair], shards: u32) -> World {
    let topo = gen::materialize_batch(pairs);
    let cfg = WorldConfig {
        channel: ChannelConfig::lan(),
        seed: 2916,
        ..WorldConfig::default()
    };
    let mut world = World::builder(topo.clone())
        .config(cfg)
        .fabric(FabricConfig {
            shards,
            runtime: patient_runtime(32),
            journal: true,
            ..FabricConfig::default()
        })
        .build();
    for c in install_and_compile(&mut world, &topo, pairs) {
        world
            .submit(SubmitRequest::new(c))
            .expect("fabric admits the batch");
    }
    probe_flows(&mut world, pairs.len(), 100);
    world
}

/// The middle hop of each of the first `k` flows — busy switches, so
/// each migration genuinely contends with in-flight work.
fn migration_targets(pairs: &[UpdatePair], k: usize, shards: u32) -> Vec<(SimTime, DpId, u32)> {
    pairs
        .iter()
        .take(k)
        .enumerate()
        .map(|(i, p)| {
            let hops = p.old.hops();
            let dp = hops[hops.len() / 2];
            let to = (dp.0 as u32 % shards + 1) % shards;
            let at = SimTime::ZERO + SimDuration::from_micros(500 + 400 * i as u64);
            (at, dp, to)
        })
        .collect()
}

struct RebalanceOutcome {
    report: SimReport,
    /// Per-migration request → seat-landed latency, virtual ms, in
    /// request order.
    pauses_ms: Vec<f64>,
    migrations: u64,
    migration_aborts: u64,
    left_migrating: usize,
    audit_clean: bool,
}

/// Run the workload with `migs` scheduled, stepping the world in
/// [`SLICE_US`] slices to observe each seat landing, then draining to
/// quiescence.
fn run_rebalance(
    pairs: &[UpdatePair],
    shards: u32,
    migs: &[(SimTime, DpId, u32)],
) -> RebalanceOutcome {
    let mut world = loaded_world(pairs, shards);
    for &(at, dp, to) in migs {
        world.schedule_fault(at, FaultKind::MigrateSeat { dp, to });
    }
    let slice = SimDuration::from_micros(SLICE_US);
    let guard = SimTime::ZERO + SimDuration::from_secs(10);
    let horizon = SimTime::ZERO + SimDuration::from_secs(3600);
    let mut landed: BTreeMap<DpId, SimTime> = BTreeMap::new();
    let mut t = SimTime::ZERO;
    // step while any migration is requested-but-unobserved as landed
    while landed.len() < migs.len() && t < guard {
        t += slice;
        world.run(t);
        let migrating = world.status().migrating;
        for &(at, dp, _) in migs {
            if t >= at && !migrating.contains(&dp) {
                landed.entry(dp).or_insert(t);
            }
        }
    }
    let report = world.run(horizon);
    let pauses_ms = migs
        .iter()
        .map(|&(at, dp, _)| {
            let end = landed.get(&dp).copied().unwrap_or(guard);
            (end - at).as_millis_f64()
        })
        .collect();
    let stats = world.runtime().stats();
    RebalanceOutcome {
        report,
        pauses_ms,
        migrations: stats.migrations,
        migration_aborts: stats.migration_aborts,
        left_migrating: world.status().migrating.len(),
        audit_clean: world.audit().is_clean(),
    }
}

fn main() {
    let (tier_small, json_path) = tier_and_json_out("exp_live_rebalance").unwrap_or_else(|usage| {
        eprintln!("{usage}");
        std::process::exit(2);
    });

    let (n, k): (usize, usize) = if tier_small { (8, 4) } else { (16, 8) };
    let shards = 4u32;
    let pairs = disjoint_flows(n);
    let migs = migration_targets(&pairs, k, shards);

    println!("E11: live shard rebalancing under load");
    println!(
        "    {n} switch-disjoint {FLOW_LEN}-hop flows over {shards} shards; \
         {k} seat migrations of mid-path switches starting 0.5 ms in; \
         virtual time, {SLICE_US} µs observation slices\n"
    );

    // identical workload, no migrations — the makespan baseline
    let base = run_rebalance(&pairs, shards, &[]);
    let live = run_rebalance(&pairs, shards, &migs);

    for (name, out, expect_migrations) in
        [("baseline", &base, 0u64), ("rebalance", &live, k as u64)]
    {
        let done = out
            .report
            .updates
            .iter()
            .filter(|u| u.completed.is_some())
            .count();
        assert_eq!(done, n, "{name}: every update must commit");
        assert!(
            !out.report.violations.any(),
            "{name}: transient violations: {}",
            out.report.violations
        );
        assert!(out.audit_clean, "{name}: dirty audit");
        assert_eq!(
            out.migrations, expect_migrations,
            "{name}: every requested migration must commit"
        );
        assert_eq!(out.migration_aborts, 0, "{name}: no migration may abort");
        assert_eq!(out.left_migrating, 0, "{name}: no migration may hang");
    }

    let base_ms = makespan_ms(&base.report);
    let live_ms = makespan_ms(&live.report);
    let p50 = percentile(&live.pauses_ms, 50.0);
    let p99 = percentile(&live.pauses_ms, 99.0);
    let worst = live.pauses_ms.iter().copied().fold(0.0, f64::max);
    assert!(
        worst < 1000.0,
        "every pause must be bounded (worst {worst:.2} ms)"
    );

    let mut t = Table::new(
        "seat-migration pause and workload cost",
        &[
            "migrations",
            "pause p50 ms",
            "pause p99 ms",
            "makespan ms",
            "delta ms",
        ],
    );
    t.row(vec![
        format!("{}", live.migrations),
        f3(p50),
        f3(p99),
        f2(live_ms),
        f2(live_ms - base_ms),
    ]);
    println!("{t}");
    println!(
        "acceptance: {k}/{k} migrations committed, 0 aborted, pauses bounded \
         (worst {worst:.2} ms); both runs violation-free with clean audits"
    );

    if let Some(path) = json_path {
        let mut export = Export::new("live_rebalance");
        for (algo, ms) in [
            ("pause_p50", p50),
            ("pause_p99", p99),
            ("makespan_base", base_ms),
            ("makespan_live", live_ms),
        ] {
            export.push(Record::new("live_rebalance", algo, shards as u64, ms));
        }
        println!("{}", export.write(&path));
    }
}
