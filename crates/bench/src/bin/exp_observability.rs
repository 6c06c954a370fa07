//! E12 — observability overhead and fidelity.
//!
//! PR 10 threads the `sdn_obs` handle through the fabric, the
//! simulator and the transport. This experiment holds the two promises
//! that instrumentation makes:
//!
//! * **non-perturbation** — the E10 shard-scaling workload runs twice
//!   per shard count, once with observability disabled (the
//!   all-`None` no-op handle) and once recording with a bounded ring.
//!   Virtual-time makespans must agree to the nanosecond — the
//!   instrumentation adds *no* virtual delays — and the acceptance bar
//!   from the issue (obs-on ≤ 1.05× obs-off) is asserted on top.
//!   Wall-clock totals for both legs are reported as document headers
//!   (not gated records: wall time on shared CI runners is noise).
//! * **fidelity** — on the recording legs the registry must agree
//!   with ground truth (submitted = committed = n, a non-empty
//!   submit→commit histogram), the Prometheus page must pass the
//!   strict `sdn_obs::prometheus::validate` checker, and the span
//!   trace for a submitted job must exist.
//!
//! A forced-crash chaos leg then drives the flight recorder: a
//! coordinator crash at 3 ms over cross-shard work must yield at least
//! one `crash_recovery` dump whose JSON parses and carries the
//! documented schema (`reason`/`shard`/`at_ns`/`dropped`/`events`,
//! events non-empty) — and the whole leg, rerun under the same seed,
//! must reproduce the dumps byte for byte.
//!
//! Flags: `--tier small` (CI smoke sizes), `--json-out PATH`.

use std::time::Instant;

use sdn_bench::export::tier_and_json_out;
use sdn_bench::table::{f2, Table};
use sdn_bench::workload::{
    assignment, disjoint_flows, install_and_compile, makespan_ms, patient_runtime, probe_flows,
    shard_runtime, FLOW_LEN, PER_SHARD_ACTIVE,
};
use sdn_bench::{Export, Record};
use sdn_channel::config::ChannelConfig;
use sdn_ctrl::rest::json::{self, Json};
use sdn_ctrl::runtime::{FabricConfig, FabricCoordinator, RuntimeConfig, SubmitRequest};
use sdn_obs::{prometheus, Ctr, DumpReason, HistId, Obs};
use sdn_sim::chaos::FaultKind;
use sdn_sim::report::SimReport;
use sdn_sim::world::{World, WorldConfig};
use sdn_topo::gen::{self, UpdatePair};
use sdn_types::{SimDuration, SimTime};
use update_core::partition::ShardAssignment;

struct RunOutcome {
    report: SimReport,
    obs: Obs,
    first_job: u64,
    wall_ms: f64,
    crashes: u64,
    recoveries: u64,
}

/// Submit `pairs` into a fabric with `obs` attached, probe every flow,
/// run to quiescence.
fn run_load(
    pairs: &[UpdatePair],
    assign: ShardAssignment,
    runtime: RuntimeConfig,
    journal: bool,
    crash_at: Option<SimTime>,
    obs: Obs,
) -> RunOutcome {
    let wall = Instant::now();
    let topo = gen::materialize_batch(pairs);
    let fabric = FabricCoordinator::with_assignment(
        FabricConfig {
            shards: assign.shards(),
            runtime,
            journal,
            ..FabricConfig::default()
        },
        assign,
    );
    let cfg = WorldConfig {
        channel: ChannelConfig::lan(),
        seed: 2816,
        ..WorldConfig::default()
    };
    let mut world = World::builder(topo.clone())
        .config(cfg)
        .runtime_handle(Box::new(fabric))
        .obs(obs.clone())
        .build();
    let compiled = install_and_compile(&mut world, &topo, pairs);
    let mut first_job = 0u64;
    for (i, c) in compiled.into_iter().enumerate() {
        let ticket = world
            .submit(SubmitRequest::new(c))
            .expect("fabric admits the batch");
        if i == 0 {
            first_job = ticket.job.0;
        }
    }
    if let Some(at) = crash_at {
        world.schedule_fault(at, FaultKind::CrashController);
    }
    probe_flows(&mut world, pairs.len(), 100);
    let report = world.run(SimTime::ZERO + SimDuration::from_secs(3600));
    RunOutcome {
        report,
        obs,
        first_job,
        wall_ms: wall.elapsed().as_secs_f64() * 1e3,
        crashes: world.controller_crashes(),
        recoveries: world.runtime().stats().recoveries,
    }
}

/// Parse one dump document and check the documented schema.
fn check_dump_schema(dump: &str) {
    let doc = json::parse(dump).expect("dump must be valid JSON");
    for key in ["reason", "shard", "at_ns", "dropped", "events"] {
        assert!(doc.get(key).is_some(), "dump missing key {key:?}: {dump}");
    }
    match doc.get("events") {
        Some(Json::Arr(events)) => {
            assert!(!events.is_empty(), "dump must carry events");
            for ev in events {
                for key in ["at_ns", "kind"] {
                    assert!(ev.get(key).is_some(), "dump event missing {key:?}");
                }
            }
        }
        other => panic!("dump events must be an array, got {other:?}"),
    }
}

/// Run the forced-crash chaos leg and return its rendered dumps.
fn chaos_dumps(n: usize) -> (RunOutcome, Vec<String>) {
    let pairs = disjoint_flows(n);
    let out = run_load(
        &pairs,
        assignment(&pairs, 4, n / 2),
        patient_runtime(PER_SHARD_ACTIVE),
        true,
        Some(SimTime::ZERO + SimDuration::from_millis(3)),
        Obs::with_ring(256),
    );
    let dumps = out
        .obs
        .dumps()
        .into_iter()
        .map(|d| d.json)
        .collect::<Vec<_>>();
    (out, dumps)
}

fn main() {
    let (tier_small, json_path) = tier_and_json_out("exp_observability").unwrap_or_else(|usage| {
        eprintln!("{usage}");
        std::process::exit(2);
    });

    let n: usize = if tier_small { 16 } else { 32 };
    let shard_counts: &[u32] = if tier_small {
        &[1, 2, 4]
    } else {
        &[1, 2, 4, 8]
    };
    let cross = n / 4;

    println!("E12: observability overhead and fidelity on the E10 workload");
    println!(
        "    {n} switch-disjoint {FLOW_LEN}-hop flows, {cross} cross-shard, \
         obs off vs recording; virtual time\n"
    );

    let mut records: Vec<Record> = Vec::new();
    let mut t = Table::new(
        "virtual makespan, obs off vs on",
        &["shards", "off ms", "on ms", "ratio", "wall off", "wall on"],
    );
    let mut wall_off_total = 0.0;
    let mut wall_on_total = 0.0;
    for &shards in shard_counts {
        let pairs = disjoint_flows(n);
        let off = run_load(
            &pairs,
            assignment(&pairs, shards, cross),
            shard_runtime(),
            false,
            None,
            Obs::disabled(),
        );
        let on = run_load(
            &pairs,
            assignment(&pairs, shards, cross),
            shard_runtime(),
            false,
            None,
            Obs::with_ring(256),
        );
        for (leg, out) in [("off", &off), ("on", &on)] {
            let done = out
                .report
                .updates
                .iter()
                .filter(|u| u.completed.is_some())
                .count();
            assert_eq!(done, n, "obs-{leg} shards={shards}: all must complete");
            assert!(
                !out.report.violations.any(),
                "obs-{leg} shards={shards}: transient violations: {}",
                out.report.violations
            );
        }
        let off_ms = makespan_ms(&off.report);
        let on_ms = makespan_ms(&on.report);
        // The recorder adds no virtual delays, so the deterministic
        // makespans must agree exactly; the issue's 5% bar rides on
        // top as the stated acceptance criterion.
        assert!(
            (on_ms - off_ms).abs() < 1e-9,
            "shards={shards}: obs must not perturb virtual time \
             ({on_ms} vs {off_ms} ms)"
        );
        assert!(
            on_ms <= off_ms * 1.05,
            "shards={shards}: obs-on makespan {on_ms:.3} ms exceeds \
             1.05x obs-off {off_ms:.3} ms"
        );

        // Fidelity of the recording leg against ground truth.
        let reg = on.obs.registry();
        assert_eq!(reg.counter(Ctr::Submitted), n as u64, "submitted counter");
        assert_eq!(reg.counter(Ctr::Commits), n as u64, "commit counter");
        assert_eq!(
            reg.hist(HistId::SubmitToCommitNs).count,
            n as u64,
            "submit-to-commit histogram must see every update"
        );
        let page = on.obs.prometheus();
        prometheus::validate(&page).expect("Prometheus page must validate");
        assert!(
            on.obs.trace_json(on.first_job).is_some(),
            "span trace for the first submitted job must exist"
        );

        wall_off_total += off.wall_ms;
        wall_on_total += on.wall_ms;
        t.row(vec![
            shards.to_string(),
            f2(off_ms),
            f2(on_ms),
            format!("{:.3}", on_ms / off_ms),
            f2(off.wall_ms),
            f2(on.wall_ms),
        ]);
        records.push(Record::new("obs_off", "fabric", shards as u64, off_ms));
        records.push(Record::new("obs_on", "fabric", shards as u64, on_ms));
    }
    println!("{t}");
    println!(
        "wall-clock totals: {:.1} ms off, {:.1} ms on ({:.2}x) — reported, not gated\n",
        wall_off_total,
        wall_on_total,
        wall_on_total / wall_off_total.max(1e-9)
    );

    // --- forced-crash leg: the flight recorder must fire ---------------
    let chaos_n = 8usize;
    let (out, dumps) = chaos_dumps(chaos_n);
    assert_eq!(out.crashes, 1, "chaos leg must actually crash");
    assert_eq!(out.recoveries, 1, "journal must rebuild the fabric");
    assert!(
        !dumps.is_empty(),
        "a forced crash must leave at least one flight-recorder dump"
    );
    let crash_dumps = out
        .obs
        .dumps()
        .iter()
        .filter(|d| d.reason == DumpReason::CrashRecovery)
        .count();
    assert!(crash_dumps >= 1, "at least one dump must be crash_recovery");
    for d in &dumps {
        check_dump_schema(d);
    }
    // Byte-identical replay: same seed, same workload, same dumps.
    let (_, replay) = chaos_dumps(chaos_n);
    assert_eq!(
        dumps, replay,
        "flight-recorder dumps must replay byte-identically under the same seed"
    );
    let mut tc = Table::new(
        "forced crash at 3 ms, 4 shards, half the flows cross-shard",
        &["crashes", "recoveries", "dumps", "crash dumps", "replay"],
    );
    tc.row(vec![
        out.crashes.to_string(),
        out.recoveries.to_string(),
        dumps.len().to_string(),
        crash_dumps.to_string(),
        "byte-identical".to_string(),
    ]);
    println!("{tc}");
    records.push(Record::new("chaos_dumps", "fabric", 4, dumps.len() as f64));

    println!(
        "acceptance: obs-on makespan within 5% of obs-off on every shard count \
         (exactly equal in virtual time); {} schema-valid dump(s), replay byte-identical",
        dumps.len()
    );

    if let Some(path) = json_path {
        let mut export = Export::new("observability")
            .header("wall_off_ms", Json::Num(wall_off_total))
            .header("wall_on_ms", Json::Num(wall_on_total));
        for r in &records {
            export.push(r.clone());
        }
        println!("{}", export.write(&path));
    }
}
