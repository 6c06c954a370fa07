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
//! * **fidelity** — on the recording legs the numbers must agree
//!   with ground truth (the runtime's submitted = completed = n, as
//!   many `commit` events, a submit→commit histogram that saw every
//!   update), the Prometheus page must pass the
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
    assignment, disjoint_flows, makespan_ms, patient_runtime, run_fabric, shard_runtime, FabricRun,
    FLOW_LEN, PER_SHARD_ACTIVE,
};
use sdn_bench::{Export, Record};
use sdn_ctrl::rest::json::{self, Json};
use sdn_obs::{prometheus, DumpReason, EventKind, HistId, Obs};
use sdn_topo::gen::UpdatePair;
use sdn_types::{SimDuration, SimTime};

/// One leg of the off/on sweep — the E10 workload on `shards` shards
/// with `obs` attached — and its wall-clock milliseconds.
fn timed_leg(pairs: &[UpdatePair], shards: u32, cross: usize, obs: Obs) -> (FabricRun, f64) {
    let wall = Instant::now();
    let assign = assignment(pairs, shards, cross);
    let run = run_fabric(pairs, assign, shard_runtime(), false, None, obs);
    (run, wall.elapsed().as_secs_f64() * 1e3)
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
fn chaos_dumps(n: usize) -> (FabricRun, Vec<String>) {
    let pairs = disjoint_flows(n);
    let out = run_fabric(
        &pairs,
        assignment(&pairs, 4, n / 2),
        patient_runtime(PER_SHARD_ACTIVE),
        true,
        Some(SimTime::ZERO + SimDuration::from_millis(3)),
        Obs::with_ring(256),
    );
    let dumps = out
        .world
        .obs()
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
        let (off, wall_off) = timed_leg(&pairs, shards, cross, Obs::disabled());
        let (on, wall_on) = timed_leg(&pairs, shards, cross, Obs::with_ring(256));
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
        let stats = on.world.runtime().stats();
        assert_eq!(stats.submitted, n as u64, "submitted counter");
        assert_eq!(stats.completed, n as u64, "completed counter");
        let obs = on.world.obs();
        let reg = obs.registry();
        assert_eq!(reg.events(EventKind::Commit), n as u64, "commit events");
        assert_eq!(
            reg.hist(HistId::SubmitToCommitNs).count,
            n as u64,
            "submit-to-commit histogram must see every update"
        );
        let page = obs.prometheus();
        prometheus::validate(&page).expect("Prometheus page must validate");
        assert!(
            obs.trace_json(on.first_job).is_some(),
            "span trace for the first submitted job must exist"
        );

        wall_off_total += wall_off;
        wall_on_total += wall_on;
        t.row(vec![
            shards.to_string(),
            f2(off_ms),
            f2(on_ms),
            format!("{:.3}", on_ms / off_ms),
            f2(wall_off),
            f2(wall_on),
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
    let crashes = out.world.controller_crashes();
    let recoveries = out.world.runtime().stats().recoveries;
    assert_eq!(crashes, 1, "chaos leg must actually crash");
    assert_eq!(recoveries, 1, "journal must rebuild the fabric");
    assert!(
        !dumps.is_empty(),
        "a forced crash must leave at least one flight-recorder dump"
    );
    let crash_dumps = out
        .world
        .obs()
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
        crashes.to_string(),
        recoveries.to_string(),
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
