//! E10 — sharded fabric scaling vs cross-shard coordination cost.
//!
//! The fabric partitions the switch set into shards, each running its
//! own conflict graph, admission queue and RTO table; cross-shard
//! updates pay a two-phase prepare/commit through the coordinator.
//! This experiment quantifies both sides of that bargain on the
//! simulated data plane:
//!
//! * **scaling** — aggregate admitted-update throughput completing `n`
//!   switch-disjoint updates, swept over shard count, with each flow
//!   pinned to one shard via [`ShardAssignment::with_overrides`]: the
//!   per-shard `max_active` bottleneck (4 here) is the resource that
//!   sharding multiplies;
//! * **cross-shard tax** — the same sweep with a fraction of flows
//!   deliberately straddling two shards, so they route through the
//!   coordinator's two-phase path instead of scaling with the shards;
//! * **one runtime** — the same flows on a single [`ConcurrentRuntime`]
//!   with `max_active` = shards × 4, the fabric's total admission
//!   budget: whether the fabric's makespan comes from sharding or from
//!   the budget alone;
//! * **chaos** — a cross-shard workload with the controller crashed
//!   mid-flight: the journalled fabric must recover, finish the work,
//!   and leave a rule-for-rule clean audit with zero transient
//!   violations under live probing.
//!
//! All timing is virtual (deterministic): the output is gated byte
//! for byte by `ci/exp_digests.sh`. Self-asserts its acceptance bar:
//! ≥ 2× aggregate throughput at 4 shards vs 1 shard on the
//! switch-disjoint workload, and the chaos leg converges
//! violation-free with a clean audit.
//!
//! Flags: `--tier small` (CI smoke sizes), `--json-out PATH`.
//!
//! [`ShardAssignment::with_overrides`]: update_core::partition::ShardAssignment::with_overrides

use sdn_bench::export::tier_and_json_out;
use sdn_bench::table::{f2, Table};
use sdn_bench::workload::{
    assignment, disjoint_flows, makespan_ms, patient_runtime, run_fabric, run_world, shard_runtime,
    FLOW_LEN, PER_SHARD_ACTIVE,
};
use sdn_bench::{Export, Record};
use sdn_ctrl::runtime::{ConcurrentRuntime, RuntimeConfig};
use sdn_obs::Obs;
use sdn_types::{SimDuration, SimTime};

fn main() {
    let (tier_small, json_path) = tier_and_json_out("exp_shard_scaling").unwrap_or_else(|usage| {
        eprintln!("{usage}");
        std::process::exit(2);
    });

    let n: usize = if tier_small { 16 } else { 32 };
    let shard_counts: &[u32] = if tier_small {
        &[1, 2, 4]
    } else {
        &[1, 2, 4, 8]
    };
    let cross_fracs: &[f64] = &[0.0, 0.25, 0.5];

    println!("E10: sharded fabric scaling vs cross-shard coordination cost");
    println!(
        "    {n} switch-disjoint {FLOW_LEN}-hop flows pinned per-shard \
         (max_active {PER_SHARD_ACTIVE} each); virtual time\n"
    );

    let mut export = Export::new("shard_scaling");
    let mut t = Table::new(
        "aggregate throughput vs shard count x cross-shard fraction",
        &[
            "shards",
            "xfrac",
            "xshard upd",
            "makespan ms",
            "upd/s",
            "speedup",
        ],
    );
    let mut baseline_ms = 0.0;
    let mut speedup_at_4 = 0.0;
    let mut fabric_ms = Vec::new();
    for &frac in cross_fracs {
        let cross = (frac * n as f64).round() as usize;
        for &shards in shard_counts {
            let pairs = disjoint_flows(n);
            let out = run_fabric(
                &pairs,
                assignment(&pairs, shards, cross),
                shard_runtime(),
                false,
                None,
                Obs::disabled(),
            );
            let done = out
                .report
                .updates
                .iter()
                .filter(|u| u.completed.is_some())
                .count();
            assert_eq!(done, n, "shards={shards} xfrac={frac}: all must complete");
            assert!(
                !out.report.violations.any(),
                "shards={shards} xfrac={frac}: transient violations: {}",
                out.report.violations
            );
            assert!(
                out.world.audit().is_clean(),
                "shards={shards} xfrac={frac}: dirty audit"
            );
            // pinning keeps single-shard flows off the two-phase path
            let expect_cross = if shards > 1 { cross } else { 0 };
            assert_eq!(
                out.cross_shard, expect_cross,
                "shards={shards} xfrac={frac}: cross-shard ticket count"
            );
            let ms = makespan_ms(&out.report);
            fabric_ms.push((frac, shards, ms));
            if shards == 1 && frac == 0.0 {
                baseline_ms = ms;
            }
            let speedup = baseline_ms / ms;
            if shards == 4 && frac == 0.0 {
                speedup_at_4 = speedup;
            }
            t.row(vec![
                shards.to_string(),
                format!("{frac:.2}"),
                out.cross_shard.to_string(),
                f2(ms),
                f2(n as f64 / (ms / 1e3)),
                f2(speedup),
            ]);
            export.push(Record::new(
                "shard_scaling",
                format!("xfrac{:02}", (frac * 100.0) as u32),
                shards as u64,
                ms,
            ));
        }
    }
    println!("{t}");

    // --- one runtime with the fabric's whole admission budget ----------
    // No flow straddles anything on one runtime, so its makespan depends
    // on the budget alone: one run per shard count serves every xfrac.
    let single_ms: Vec<f64> = shard_counts
        .iter()
        .map(|&shards| {
            let pairs = disjoint_flows(n);
            let budget = shards as usize * PER_SHARD_ACTIVE;
            let rt = ConcurrentRuntime::new(RuntimeConfig {
                max_active: budget,
                ..RuntimeConfig::default()
            });
            let out = run_world(&pairs, Box::new(rt), None, Obs::disabled());
            let done = out.report.updates.iter().filter(|u| u.completed.is_some());
            assert_eq!(done.count(), n, "one runtime x{budget}: all must complete");
            assert!(
                !out.report.violations.any(),
                "one runtime x{budget}: transient violations: {}",
                out.report.violations
            );
            assert!(
                out.world.audit().is_clean(),
                "one runtime x{budget}: dirty audit"
            );
            makespan_ms(&out.report)
        })
        .collect();
    let mut t1 = Table::new(
        "the fabric vs one runtime with max_active = shards x 4",
        &[
            "shards",
            "xfrac",
            "max_active",
            "fabric ms",
            "1 runtime ms",
            "fabric/1rt",
        ],
    );
    // the fabric rows run shard-minor, so the per-shard-count column
    // repeats once per xfrac
    for (&(frac, shards, fab), &single) in fabric_ms.iter().zip(single_ms.iter().cycle()) {
        t1.row(vec![
            shards.to_string(),
            format!("{frac:.2}"),
            (shards as usize * PER_SHARD_ACTIVE).to_string(),
            f2(fab),
            f2(single),
            f2(fab / single),
        ]);
        export.push(Record::new(
            "one_runtime",
            format!("xfrac{:02}", (frac * 100.0) as u32),
            shards as u64,
            single,
        ));
    }
    println!("{t1}");

    // --- chaos leg: coordinator crash over cross-shard work ------------
    let chaos_n = 8usize;
    let pairs = disjoint_flows(chaos_n);
    let out = run_fabric(
        &pairs,
        assignment(&pairs, 4, chaos_n / 2),
        patient_runtime(PER_SHARD_ACTIVE),
        true,
        Some(SimTime::ZERO + SimDuration::from_millis(3)),
        Obs::disabled(),
    );
    let crashes = out.world.controller_crashes();
    let recoveries = out.world.runtime().stats().recoveries;
    let audit_clean = out.world.audit().is_clean();
    let done = out
        .report
        .updates
        .iter()
        .filter(|u| u.completed.is_some())
        .count();
    let mut tc = Table::new(
        "chaos: controller crash at 3 ms, 4 shards, half the flows cross-shard",
        &["crashes", "recoveries", "completed", "violations", "audit"],
    );
    tc.row(vec![
        crashes.to_string(),
        recoveries.to_string(),
        format!("{done}/{chaos_n}"),
        out.report.violations.any().to_string(),
        if audit_clean { "clean" } else { "DIRTY" }.to_string(),
    ]);
    println!("{tc}");
    assert_eq!(crashes, 1, "chaos leg must actually crash");
    assert_eq!(recoveries, 1, "journal must rebuild the fabric");
    assert!(
        out.report
            .updates
            .iter()
            .all(|u| u.completed.is_some() || u.failure.is_some()),
        "no update may hang across the crash"
    );
    assert!(
        !out.report.violations.any(),
        "chaos leg violations: {}",
        out.report.violations
    );
    assert!(audit_clean, "chaos leg must end with a clean audit");
    export.push(Record::new(
        "chaos_recoveries",
        "fabric",
        4,
        recoveries as f64,
    ));
    export.push(Record::new("chaos_completed", "fabric", 4, done as f64));

    // --- acceptance bar -------------------------------------------------
    assert!(
        speedup_at_4 >= 2.0,
        "fabric must be >= 2x aggregate throughput at 4 shards vs 1 on the \
         switch-disjoint workload, got {speedup_at_4:.2}x"
    );
    println!(
        "acceptance: {speedup_at_4:.2}x throughput at 4 shards (>= 2x required); \
         chaos leg {done}/{chaos_n} completed, {recoveries} recovery, clean audit"
    );

    if let Some(path) = json_path {
        println!("{}", export.write(&path));
    }
}
