//! E9 — fault recovery: convergence under control-plane failure.
//!
//! Four chaos scenarios run against
//! the concurrent runtime (adaptive RTO, resync audits, write-ahead
//! journal) in deterministic virtual time:
//!
//! * **blip** — one switch's control connection drops mid-round for a
//!   varying outage; convergence cost vs outage length;
//! * **reboot** — a switch reboots under a barrier (table wiped); the
//!   digest audit replays exactly what was lost;
//! * **crash** — the controller dies mid-flight and rebuilds itself
//!   from the journal, resuming from the last committed round;
//! * **churn** — rolling connection churn across the whole fleet
//!   (208 switches at the full tier) while every flow updates.
//!
//! Every scenario self-asserts the acceptance bar: all updates
//! complete, zero transient violations on the probe trace, zero
//! quarantines, and a rule-for-rule clean [`World::audit`]. All
//! timing is virtual: the output is gated byte for byte by
//! `ci/exp_digests.sh`.
//!
//! Flags: `--tier small` (CI smoke sizes), `--json-out PATH`.

use sdn_bench::export::tier_and_json_out;
use sdn_bench::table::{f2, Table};
use sdn_bench::workload::{
    disjoint_flows, install_and_compile, makespan_ms, patient_runtime, probe_flows, FLOW_LEN,
};
use sdn_bench::{Export, Record};
use sdn_channel::config::ChannelConfig;
use sdn_ctrl::runtime::{ConcurrentRuntime, Journal};
use sdn_sim::chaos::{ChaosPlan, FaultKind};
use sdn_sim::report::SimReport;
use sdn_sim::world::{World, WorldConfig};
use sdn_topo::gen::{self, UpdatePair};
use sdn_types::{DpId, SimDuration, SimTime};

/// World over `pairs` with old routes installed, all updates submitted
/// at t=0, probes planned on every flow.
fn world_for(pairs: &[UpdatePair], seed: u64, journal: Journal, probes: u64) -> World {
    let topo = gen::materialize_batch(pairs);
    let cfg = WorldConfig {
        channel: ChannelConfig::lan(),
        seed,
        ..WorldConfig::default()
    };
    let mut world = World::builder(topo.clone())
        .config(cfg)
        // outage-tolerant: generous attempt budget, quarantine armed
        .runtime_handle(Box::new(ConcurrentRuntime::with_journal(
            patient_runtime(32),
            journal,
        )))
        .build();
    for c in install_and_compile(&mut world, &topo, pairs) {
        world.enqueue_update(c);
    }
    probe_flows(&mut world, pairs.len(), probes);
    world
}

/// The acceptance bar every scenario must clear.
fn accept(label: &str, w: &World, r: &SimReport) {
    assert!(
        r.updates.iter().all(|u| u.completed.is_some()),
        "{label}: every update must complete"
    );
    assert!(!r.violations.any(), "{label}: {}", r.violations);
    assert_eq!(
        r.violations.delivered, r.violations.total,
        "{label}: every probe must be delivered"
    );
    let stats = w.runtime().stats();
    assert_eq!(stats.failed, 0, "{label}: no job may fail");
    assert_eq!(
        stats.quarantined, 0,
        "{label}: no switch may be quarantined"
    );
    let audit = w.audit();
    assert!(audit.is_clean(), "{label}: audit {audit}");
    assert_eq!(audit.untracked, 0, "{label}: shadow must cover the fleet");
}

fn main() {
    let (tier_small, json_path) = tier_and_json_out("exp_fault_recovery").unwrap_or_else(|usage| {
        eprintln!("{usage}");
        std::process::exit(2);
    });

    println!("E9: convergence under control-plane failure (virtual time)");
    println!("    8-hop reversal flows, SLF-greedy schedules, LAN channel\n");

    let mut export = Export::new("fault_recovery");

    // --- blip: one connection drops mid-round, varying outage --------
    let outages_ms: &[u64] = if tier_small {
        &[5, 40]
    } else {
        &[5, 20, 40, 80]
    };
    let mut t = Table::new(
        "mid-round disconnect of s4 at t=2 ms (single flow)",
        &["outage ms", "makespan ms", "retransmissions", "resyncs"],
    );
    for &outage in outages_ms {
        let pairs = disjoint_flows(1);
        let mut w = world_for(&pairs, 21, Journal::Disabled, 200);
        let down = SimTime::ZERO + SimDuration::from_millis(2);
        ChaosPlan::new()
            .with(down, FaultKind::LinkDown(DpId(4)))
            .with(
                down + SimDuration::from_millis(outage),
                FaultKind::LinkUp(DpId(4)),
            )
            .apply(&mut w);
        let r = w.run(SimTime::ZERO + SimDuration::from_secs(3600));
        accept("blip", &w, &r);
        let stats = w.runtime().stats();
        assert!(stats.resyncs >= 1, "reconnect must run an audit");
        let ms = makespan_ms(&r);
        t.row(vec![
            outage.to_string(),
            f2(ms),
            stats.retransmissions.to_string(),
            stats.resyncs.to_string(),
        ]);
        export.push(Record::new("blip", "concurrent", outage, ms));
    }
    println!("{t}");

    // --- reboot under a barrier --------------------------------------
    let mut tr = Table::new(
        "switch reboot at t=3 ms (table wiped; digest audit repairs)",
        &["makespan ms", "resynced rules", "resyncs"],
    );
    {
        let pairs = disjoint_flows(1);
        let mut w = world_for(&pairs, 33, Journal::Disabled, 0);
        w.schedule_fault(
            SimTime::ZERO + SimDuration::from_millis(3),
            FaultKind::Reboot(DpId(4)),
        );
        let r = w.run(SimTime::ZERO + SimDuration::from_secs(3600));
        accept("reboot", &w, &r);
        let stats = w.runtime().stats();
        assert!(
            stats.resynced_rules > 0,
            "a wiped table means replayed rules"
        );
        let ms = makespan_ms(&r);
        tr.row(vec![
            f2(ms),
            stats.resynced_rules.to_string(),
            stats.resyncs.to_string(),
        ]);
        export.push(Record::new("reboot", "concurrent", 1, ms));
    }
    println!("{tr}");

    // --- controller crash + journal recovery -------------------------
    let crash_flows: &[usize] = if tier_small { &[2] } else { &[2, 8] };
    let mut tc = Table::new(
        "controller crash at t=3 ms, rebuilt from the write-ahead journal",
        &["flows", "makespan ms", "recoveries", "retransmissions"],
    );
    for &n in crash_flows {
        let pairs = disjoint_flows(n);
        let mut w = world_for(&pairs, 44, Journal::mem(), 100);
        w.schedule_fault(
            SimTime::ZERO + SimDuration::from_millis(3),
            FaultKind::CrashController,
        );
        let r = w.run(SimTime::ZERO + SimDuration::from_secs(3600));
        accept("crash", &w, &r);
        let stats = w.runtime().stats();
        assert_eq!(stats.recoveries, 1, "journal must rebuild the runtime");
        let ms = makespan_ms(&r);
        tc.row(vec![
            n.to_string(),
            f2(ms),
            stats.recoveries.to_string(),
            stats.retransmissions.to_string(),
        ]);
        export.push(Record::new("crash", "concurrent", n as u64, ms));
    }
    println!("{tc}");

    // --- rolling churn across the fleet ------------------------------
    let churn_flows: &[usize] = if tier_small { &[8] } else { &[8, 26] };
    let mut tf = Table::new(
        "rolling churn: every switch bounces once (2 ms outage) under load",
        &["flows", "switches", "makespan ms", "reconnects", "resyncs"],
    );
    for &n in churn_flows {
        let pairs = disjoint_flows(n);
        let mut w = world_for(&pairs, 77, Journal::Disabled, 40);
        let dps: Vec<DpId> = (0..n as u64)
            .flat_map(|i| (1..=FLOW_LEN).map(move |s| DpId(i * (FLOW_LEN + 2) + s)))
            .collect();
        ChaosPlan::rolling_churn(
            &dps,
            SimTime::ZERO + SimDuration::from_millis(1),
            SimDuration::from_micros(300),
            SimDuration::from_millis(2),
            7,
        )
        .apply(&mut w);
        let r = w.run(SimTime::ZERO + SimDuration::from_secs(3600));
        accept("churn", &w, &r);
        let stats = w.runtime().stats();
        assert!(
            stats.reconnects >= dps.len() as u64,
            "every switch must bounce"
        );
        assert!(
            stats.resyncs >= dps.len() as u64,
            "every reconnect must complete its audit"
        );
        if !tier_small && n == 26 {
            assert!(dps.len() >= 200, "full tier must churn >= 200 switches");
        }
        let ms = makespan_ms(&r);
        tf.row(vec![
            n.to_string(),
            dps.len().to_string(),
            f2(ms),
            stats.reconnects.to_string(),
            stats.resyncs.to_string(),
        ]);
        export.push(Record::new("churn", "concurrent", dps.len() as u64, ms));
    }
    println!("{tf}");

    println!(
        "acceptance: all scenarios converged to 100% intended-rule installation \
         with zero transient violations and zero quarantines"
    );

    if let Some(path) = json_path {
        println!("{}", export.write(&path));
    }
}
