//! E7 — concurrent-update throughput, latency and backpressure.
//!
//! The runtime's serial configuration ([`RuntimeConfig::serial`], the
//! paper's controller) executes one compiled update at a time; its
//! default configuration executes every footprint-disjoint update in
//! flight at once. This experiment quantifies the difference on the
//! simulated data plane:
//!
//! * **throughput** — updates/second (virtual time) completing `n`
//!   switch-disjoint updates submitted simultaneously, serial vs
//!   concurrent;
//! * **latency** — p50/p99 submission→completion time under the same
//!   offered load;
//! * **serialization** — the same sweep on *conflicting* updates
//!   (shared flow), where the conflict graph must forbid overlap and
//!   concurrency can buy nothing;
//! * **backpressure** — rejection rate vs offered load against a
//!   bounded admission queue;
//! * **straggler** — retransmissions to one slow switch, fixed
//!   timeout vs per-switch adaptive RTO.
//!
//! All timing is virtual (deterministic): the output is gated byte
//! for byte by `ci/exp_digests.sh`. Self-asserts its acceptance bar:
//! ≥ 2× aggregate throughput at 8 concurrent disjoint updates, and
//! fewer straggler retransmissions under the adaptive RTO.
//!
//! Flags: `--tier small` (CI smoke sizes), `--json-out PATH`.

use sdn_bench::export::tier_and_json_out;
use sdn_bench::stats::percentile;
use sdn_bench::table::{f2, Table};
use sdn_bench::workload::{disjoint_flows, makespan_ms, FLOW_LEN};
use sdn_bench::{Export, Record};
use sdn_channel::config::ChannelConfig;
use sdn_ctrl::compile::{compile_schedule, initial_flowmods, CompiledUpdate, FlowSpec};
use sdn_ctrl::executor::ExecConfig;
use sdn_ctrl::runtime::{
    ConcurrentRuntime, RetransMode, RuntimeConfig, RuntimeHandle, SubmitRequest,
};
use sdn_sim::report::SimReport;
use sdn_sim::world::{World, WorldConfig};
use sdn_topo::gen::{self, UpdatePair};
use sdn_types::{DpId, SimDuration, SimTime};
use update_core::algorithms::{SlfGreedy, UpdateScheduler};
use update_core::model::UpdateInstance;

/// `n` updates of the *same* flow: forward, back, forward, ... — every
/// pair conflicts, so they must serialize.
fn overlapping_flows(n: usize) -> Vec<UpdatePair> {
    let fwd = gen::reversal(FLOW_LEN);
    let back = UpdatePair {
        old: fwd.new.clone(),
        new: fwd.old.clone(),
        waypoint: None,
    };
    (0..n)
        .map(|i| {
            if i % 2 == 0 {
                fwd.clone()
            } else {
                back.clone()
            }
        })
        .collect()
}

struct RunOutcome {
    report: SimReport,
    stats: sdn_ctrl::runtime::RuntimeStats,
    accepted: usize,
    rejected: usize,
}

/// Submit every compiled update at t=0 and run to quiescence.
fn run_load(
    pairs: &[UpdatePair],
    distinct_hosts: bool,
    runtime: Box<dyn RuntimeHandle>,
) -> RunOutcome {
    let topo = if distinct_hosts {
        gen::materialize_batch(pairs)
    } else {
        gen::materialize_batch(&pairs[..1])
    };
    let cfg = WorldConfig {
        channel: ChannelConfig::lan(),
        seed: 2711,
        ..WorldConfig::default()
    };
    let mut world = World::builder(topo.clone())
        .config(cfg)
        .runtime_handle(runtime)
        .build();
    let mut compiled: Vec<CompiledUpdate> = Vec::new();
    for (i, pair) in pairs.iter().enumerate() {
        let (src, dst) = gen::batch_hosts(if distinct_hosts { i } else { 0 });
        let spec = FlowSpec { src, dst };
        let inst = UpdateInstance::new(pair.old.clone(), pair.new.clone(), pair.waypoint).unwrap();
        let sched = SlfGreedy.schedule(&inst).expect("schedulable");
        if distinct_hosts || i == 0 {
            world.install_initial(&initial_flowmods(&topo, &pair.old, &spec).unwrap());
        }
        compiled.push(compile_schedule(&topo, &inst, &sched, &spec).unwrap());
    }
    let mut accepted = 0;
    let mut rejected = 0;
    for c in compiled {
        if world.submit(SubmitRequest::new(c)).is_ok() {
            accepted += 1;
        } else {
            rejected += 1;
        }
    }
    let report = world.run(SimTime::ZERO + SimDuration::from_secs(3600));
    RunOutcome {
        report,
        stats: world.runtime().stats(),
        accepted,
        rejected,
    }
}

/// Percentile (0..=100) of submission→completion latency in ms.
fn latency_percentile(r: &SimReport, p: f64) -> f64 {
    let lats: Vec<f64> = r
        .updates
        .iter()
        .filter_map(|u| u.latency())
        .map(|d| d.as_millis_f64())
        .collect();
    percentile(&lats, p)
}

fn concurrent_runtime() -> Box<dyn RuntimeHandle> {
    Box::new(ConcurrentRuntime::new(RuntimeConfig {
        queue_capacity: 256,
        max_active: 64,
        ..RuntimeConfig::default()
    }))
}

fn serial_runtime() -> Box<dyn RuntimeHandle> {
    Box::new(ConcurrentRuntime::new(RuntimeConfig::serial(
        ExecConfig::default(),
    )))
}

fn main() {
    let (tier_small, json_path) =
        tier_and_json_out("exp_concurrent_updates").unwrap_or_else(|usage| {
            eprintln!("{usage}");
            std::process::exit(2);
        });

    println!("E7: concurrent-update runtime vs the serial controller");
    println!("    n switch-disjoint 8-hop reversal flows submitted at t=0; virtual time\n");

    let sizes: &[usize] = if tier_small {
        &[2, 4, 8]
    } else {
        &[2, 4, 8, 16, 32]
    };
    let mut export = Export::new("concurrent_updates");

    // --- disjoint load: serial vs concurrent ---------------------------
    let mut t = Table::new(
        "disjoint updates: makespan / throughput / latency",
        &[
            "n",
            "serial ms",
            "conc ms",
            "speedup",
            "conc upd/s",
            "p50 ms",
            "p99 ms",
            "peak act",
        ],
    );
    let mut speedup_at_8 = 0.0;
    for &n in sizes {
        let pairs = disjoint_flows(n);
        let serial = run_load(&pairs, true, serial_runtime());
        let conc = run_load(&pairs, true, concurrent_runtime());
        for (label, out) in [("serial", &serial), ("concurrent", &conc)] {
            assert_eq!(
                out.report
                    .updates
                    .iter()
                    .filter(|u| u.completed.is_some())
                    .count(),
                n,
                "{label} must complete all {n} disjoint updates"
            );
        }
        let s_ms = makespan_ms(&serial.report);
        let c_ms = makespan_ms(&conc.report);
        let speedup = s_ms / c_ms;
        if n == 8 {
            speedup_at_8 = speedup;
        }
        assert_eq!(
            conc.stats.peak_active as usize, n,
            "all {n} disjoint updates must run at once"
        );
        t.row(vec![
            n.to_string(),
            f2(s_ms),
            f2(c_ms),
            f2(speedup),
            f2(n as f64 / (c_ms / 1e3)),
            f2(latency_percentile(&conc.report, 50.0)),
            f2(latency_percentile(&conc.report, 99.0)),
            conc.stats.peak_active.to_string(),
        ]);
        export.push(Record::new("disjoint", "serial", n as u64, s_ms));
        export.push(Record::new("disjoint", "concurrent", n as u64, c_ms));
        export.push(Record::new(
            "disjoint_p99",
            "concurrent",
            n as u64,
            latency_percentile(&conc.report, 99.0),
        ));
    }
    println!("{t}");

    // --- overlapping load: conflicts must serialize --------------------
    let mut to = Table::new(
        "overlapping updates (same flow): concurrency buys nothing",
        &["n", "serial ms", "conc ms", "peak act"],
    );
    for &n in &[2usize, 4] {
        let pairs = overlapping_flows(n);
        let serial = run_load(&pairs, false, serial_runtime());
        let conc = run_load(&pairs, false, concurrent_runtime());
        let s_ms = makespan_ms(&serial.report);
        let c_ms = makespan_ms(&conc.report);
        assert_eq!(
            conc.stats.peak_active, 1,
            "conflicting updates must never overlap"
        );
        // serialized windows: each next start >= previous completion
        let ups = &conc.report.updates;
        for w in ups.windows(2) {
            assert!(
                w[1].started >= w[0].completed.expect("completes"),
                "overlap between serialized updates"
            );
        }
        to.row(vec![
            n.to_string(),
            f2(s_ms),
            f2(c_ms),
            conc.stats.peak_active.to_string(),
        ]);
        export.push(Record::new("overlapping", "concurrent", n as u64, c_ms));
    }
    println!("{to}");

    // --- backpressure: rejection rate vs offered load ------------------
    let capacity = 8usize;
    let mut tb = Table::new(
        "bounded admission (queue capacity 8, reject-new): rejection vs offered load",
        &[
            "offered",
            "accepted",
            "rejected",
            "reject rate",
            "makespan ms",
        ],
    );
    let offered_sizes: &[usize] = if tier_small {
        &[8, 16]
    } else {
        &[8, 16, 32, 64]
    };
    for &n in offered_sizes {
        let pairs = disjoint_flows(n);
        let runtime = Box::new(ConcurrentRuntime::new(RuntimeConfig {
            queue_capacity: capacity,
            max_active: 4,
            ..RuntimeConfig::default()
        }));
        let out = run_load(&pairs, true, runtime);
        assert_eq!(out.accepted, capacity.min(n));
        assert_eq!(out.rejected, n.saturating_sub(capacity));
        let rate = out.stats.rejection_rate();
        tb.row(vec![
            n.to_string(),
            out.accepted.to_string(),
            out.rejected.to_string(),
            f2(rate),
            f2(makespan_ms(&out.report)),
        ]);
        export.push(Record::new(
            "rejection_rate_pct",
            "capacity8",
            n as u64,
            rate * 100.0,
        ));
    }
    println!("{tb}");

    // --- straggler: fixed timeout vs adaptive RTO ----------------------
    let straggler_run = |retrans: RetransMode| {
        let pairs = disjoint_flows(1);
        let topo = gen::materialize_batch(&pairs);
        let (src, dst) = gen::batch_hosts(0);
        let spec = FlowSpec { src, dst };
        let runtime = Box::new(ConcurrentRuntime::new(RuntimeConfig {
            exec: ExecConfig {
                barrier_timeout: SimDuration::from_millis(10),
                max_attempts: 40,
                flowmod_acks: false,
            },
            retrans,
            ..RuntimeConfig::default()
        }));
        let cfg = WorldConfig {
            channel: ChannelConfig::ideal(SimDuration::from_millis(1)),
            seed: 7,
            ..WorldConfig::default()
        };
        let mut world = World::builder(topo.clone())
            .config(cfg)
            .runtime_handle(runtime)
            .build();
        world.set_link_profile(
            DpId(4),
            Some(ChannelConfig::ideal(SimDuration::from_millis(45))),
        );
        world.install_initial(&initial_flowmods(&topo, &pairs[0].old, &spec).unwrap());
        let inst = UpdateInstance::new(pairs[0].old.clone(), pairs[0].new.clone(), None).unwrap();
        let sched = SlfGreedy.schedule(&inst).unwrap();
        world.enqueue_update(compile_schedule(&topo, &inst, &sched, &spec).unwrap());
        let r = world.run(SimTime::ZERO + SimDuration::from_secs(3600));
        assert!(
            r.updates[0].completed.is_some(),
            "straggler run must finish"
        );
        (world.runtime().stats().retransmissions, makespan_ms(&r))
    };
    let (fixed_rtx, fixed_ms) = straggler_run(RetransMode::Fixed);
    let (adaptive_rtx, adaptive_ms) = straggler_run(RetransMode::default());
    let mut ts = Table::new(
        "slow-switch straggler (s4 at 45 ms vs 1 ms peers; 10 ms fixed timeout)",
        &["policy", "retransmissions", "makespan ms"],
    );
    ts.row(vec!["fixed".into(), fixed_rtx.to_string(), f2(fixed_ms)]);
    ts.row(vec![
        "adaptive".into(),
        adaptive_rtx.to_string(),
        f2(adaptive_ms),
    ]);
    println!("{ts}");
    export.push(Record::new(
        "straggler_retransmissions",
        "fixed",
        8,
        fixed_rtx as f64,
    ));
    export.push(Record::new(
        "straggler_retransmissions",
        "adaptive",
        8,
        adaptive_rtx as f64,
    ));

    // --- acceptance bars ------------------------------------------------
    assert!(
        speedup_at_8 >= 2.0,
        "concurrent runtime must be >= 2x serial at 8 disjoint updates, got {speedup_at_8:.2}x"
    );
    assert!(
        adaptive_rtx < fixed_rtx,
        "adaptive RTO must retransmit less than fixed on a straggler \
         ({adaptive_rtx} vs {fixed_rtx})"
    );
    println!(
        "acceptance: {speedup_at_8:.2}x throughput at 8 disjoint updates (>= 2x required); \
         straggler retransmissions {adaptive_rtx} adaptive vs {fixed_rtx} fixed"
    );

    if let Some(path) = json_path {
        println!("{}", export.write(&path));
    }
}
