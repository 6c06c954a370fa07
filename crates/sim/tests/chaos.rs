//! Chaos acceptance: the control plane fails — connections drop
//! mid-round, switches reboot under a barrier, the controller crashes,
//! a whole fleet churns — and the system still converges to 100%
//! intended-rule installation ([`World::audit`] clean) with zero
//! transient violations on the probe trace.

use sdn_channel::config::ChannelConfig;
use sdn_ctrl::compile::{compile_schedule, initial_flowmods, CompiledUpdate, FlowSpec};
use sdn_ctrl::executor::ExecConfig;
use sdn_ctrl::runtime::{ConcurrentRuntime, Journal, RuntimeConfig};
use sdn_sim::chaos::{ChaosPlan, FaultKind};
use sdn_sim::world::{World, WorldConfig};
use sdn_topo::gen::{self, UpdatePair};
use sdn_types::{DpId, SimDuration, SimTime};
use update_core::algorithms::{SlfGreedy, UpdateScheduler};
use update_core::model::UpdateInstance;

fn horizon() -> SimTime {
    SimTime::ZERO + SimDuration::from_secs(3600)
}

/// Outage-tolerant runtime config: generous attempt budget so a
/// scripted outage exhausts nothing, quarantine still armed.
fn patient(journal: Journal) -> ConcurrentRuntime {
    ConcurrentRuntime::with_journal(
        RuntimeConfig {
            exec: ExecConfig {
                barrier_timeout: SimDuration::from_millis(20),
                max_attempts: 60,
                flowmod_acks: false,
            },
            max_active: 32,
            ..RuntimeConfig::default()
        },
        journal,
    )
}

/// Build a world over a batch of flows with old routes installed,
/// submit each flow's compiled update at t=0.
fn chaotic_world(pairs: &[UpdatePair], seed: u64, runtime: ConcurrentRuntime) -> World {
    let topo = gen::materialize_batch(pairs);
    let cfg = WorldConfig {
        channel: ChannelConfig::lan(),
        seed,
        ..WorldConfig::default()
    };
    let mut world = World::builder(topo.clone())
        .config(cfg)
        .runtime_handle(Box::new(runtime))
        .build();
    let mut compiled: Vec<CompiledUpdate> = Vec::new();
    for (i, pair) in pairs.iter().enumerate() {
        let (src, dst) = gen::batch_hosts(i);
        let spec = FlowSpec { src, dst };
        let inst = UpdateInstance::new(pair.old.clone(), pair.new.clone(), pair.waypoint).unwrap();
        let sched = SlfGreedy.schedule(&inst).unwrap();
        world.install_initial(&initial_flowmods(&topo, &pair.old, &spec).unwrap());
        compiled.push(compile_schedule(&topo, &inst, &sched, &spec).unwrap());
    }
    for c in compiled {
        world.enqueue_update(c);
    }
    world
}

#[test]
fn mid_round_disconnect_converges_with_zero_violations() {
    // s4 loses its control connection 2 ms into the update (mid-round)
    // and comes back 40 ms later. Rounds only advance on barrier
    // proof, so the stall is safe; retransmission plus the reconnect
    // audit drive the update home.
    let pairs = vec![gen::reversal(8)];
    let mut w = chaotic_world(&pairs, 21, patient(Journal::Disabled));
    ChaosPlan::new()
        .with(
            SimTime::ZERO + SimDuration::from_millis(2),
            FaultKind::LinkDown(DpId(4)),
        )
        .with(
            SimTime::ZERO + SimDuration::from_millis(42),
            FaultKind::LinkUp(DpId(4)),
        )
        .apply(&mut w);
    let (src, dst) = gen::batch_hosts(0);
    w.plan_injection(src, dst, SimDuration::from_micros(500), 300, SimTime::ZERO);
    let r = w.run(horizon());

    assert!(r.updates[0].completed.is_some(), "update must finish");
    assert!(!r.violations.any(), "probe trace: {}", r.violations);
    assert_eq!(r.violations.delivered, r.violations.total);
    assert!(r.channel.disconnects >= 1 && r.channel.reconnects >= 1);
    assert!(
        r.channel.severed > 0,
        "a mid-round teardown must kill in-flight frames"
    );
    let stats = w.runtime().stats();
    assert_eq!(stats.failed, 0);
    assert_eq!(stats.quarantined, 0, "a 40 ms blip must not quarantine");
    assert!(stats.reconnects >= 1);
    assert!(stats.resyncs >= 1, "reconnect must run an audit");
    let audit = w.audit();
    assert!(audit.is_clean(), "{audit}");
    assert_eq!(audit.untracked, 0, "shadow covers every switch");
}

#[test]
fn reboot_under_barrier_is_repaired_by_resync() {
    // s4 reboots 3 ms into the update: flow table wiped, processing
    // queue gone. The digest audit replays everything it lost —
    // baseline included — and the update still completes. Probes after
    // convergence all follow the new route.
    let pairs = vec![gen::reversal(8)];
    let mut w = chaotic_world(&pairs, 33, patient(Journal::Disabled));
    w.schedule_fault(
        SimTime::ZERO + SimDuration::from_millis(3),
        FaultKind::Reboot(DpId(4)),
    );
    let r = w.run(horizon());
    assert!(r.updates[0].completed.is_some(), "update must finish");
    let stats = w.runtime().stats();
    assert!(stats.resyncs >= 1, "reboot must trigger an audit");
    assert!(
        stats.resynced_rules > 0,
        "a wiped table means the audit replays rules"
    );
    let audit = w.audit();
    assert!(audit.is_clean(), "{audit}");

    // converged data plane: every post-recovery probe delivered on the
    // new route
    let (src, dst) = gen::batch_hosts(0);
    w.plan_injection(src, dst, SimDuration::from_millis(1), 50, w.now());
    let r2 = w.run(horizon());
    assert_eq!(r2.violations.total, 50);
    assert_eq!(r2.violations.delivered, 50);
    assert!(!r2.violations.any(), "{}", r2.violations);
    assert_eq!(
        r2.packets.last().unwrap().path,
        pairs[0].new.hops().to_vec(),
        "must follow the new route"
    );
}

#[test]
fn controller_crash_mid_update_recovers_and_completes() {
    // The controller dies 3 ms in — two disjoint updates in flight —
    // and is rebuilt from its write-ahead journal. Every in-flight
    // control frame dies with it; recovery re-queues the unfinished
    // jobs from their last committed round and idempotent re-sends
    // finish them.
    let pairs = vec![gen::reversal(8), gen::shift(&gen::reversal(8), 10)];
    let mut w = chaotic_world(&pairs, 44, patient(Journal::mem()));
    w.schedule_fault(
        SimTime::ZERO + SimDuration::from_millis(3),
        FaultKind::CrashController,
    );
    for (i, _) in pairs.iter().enumerate() {
        let (src, dst) = gen::batch_hosts(i);
        w.plan_injection(src, dst, SimDuration::from_micros(500), 200, SimTime::ZERO);
    }
    let r = w.run(horizon());

    assert_eq!(w.controller_crashes(), 1);
    let stats = w.runtime().stats();
    assert_eq!(stats.recoveries, 1, "journal must rebuild the runtime");
    assert_eq!(r.updates.len(), 2);
    assert!(
        r.updates.iter().all(|u| u.completed.is_some()),
        "both updates must complete across the crash"
    );
    assert!(!r.violations.any(), "probe trace: {}", r.violations);
    assert_eq!(r.violations.delivered, r.violations.total);
    let audit = w.audit();
    assert!(audit.is_clean(), "{audit}");
    assert_eq!(audit.untracked, 0, "recovered shadow covers every switch");
}

#[test]
fn rolling_churn_over_200_switches_converges() {
    // The fleet drill: 26 disjoint 8-switch flows (208 switches), every
    // switch's control connection bounces once in seeded random order
    // while 26 updates run. Everything completes, nothing quarantines,
    // and the final audit is clean rule-for-rule.
    let pairs: Vec<UpdatePair> = (0..26)
        .map(|i| gen::shift(&gen::reversal(8), i * 10))
        .collect();
    let mut w = chaotic_world(&pairs, 77, patient(Journal::Disabled));
    let dps: Vec<DpId> = (0..26)
        .flat_map(|i| (1..=8).map(move |s| DpId(i * 10 + s)))
        .collect();
    assert!(dps.len() >= 200, "fleet must be at least 200 switches");
    let plan = ChaosPlan::rolling_churn(
        &dps,
        SimTime::ZERO + SimDuration::from_millis(1),
        SimDuration::from_micros(300),
        SimDuration::from_millis(2),
        7,
    );
    assert_eq!(plan.len(), dps.len() * 2);
    plan.apply(&mut w);
    for (i, _) in pairs.iter().enumerate() {
        let (src, dst) = gen::batch_hosts(i);
        w.plan_injection(src, dst, SimDuration::from_millis(1), 40, SimTime::ZERO);
    }
    let r = w.run(horizon());

    assert_eq!(r.updates.len(), 26);
    assert!(
        r.updates.iter().all(|u| u.completed.is_some()),
        "every update must survive the churn"
    );
    let stats = w.runtime().stats();
    assert_eq!(stats.failed, 0);
    assert_eq!(stats.quarantined, 0, "2 ms blips must not quarantine");
    assert!(
        stats.reconnects >= 200,
        "every switch must bounce: {} reconnects",
        stats.reconnects
    );
    assert!(
        stats.resyncs >= 200,
        "every reconnect must complete its audit: {}",
        stats.resyncs
    );
    assert!(!r.violations.any(), "merged probe trace: {}", r.violations);
    let audit = w.audit();
    assert!(audit.is_clean(), "{audit}");
    assert_eq!(audit.in_sync, dps.len());
}

#[test]
fn chaotic_run_replays_deterministically() {
    let run_once = || {
        let pairs = vec![gen::reversal(8)];
        let mut w = chaotic_world(&pairs, 55, patient(Journal::mem()));
        let mut plan = ChaosPlan::new();
        plan.outage(
            DpId(3),
            SimTime::ZERO + SimDuration::from_millis(1),
            SimDuration::from_millis(10),
        );
        plan.push(
            SimTime::ZERO + SimDuration::from_millis(4),
            FaultKind::Reboot(DpId(6)),
        );
        plan.push(
            SimTime::ZERO + SimDuration::from_millis(6),
            FaultKind::CrashController,
        );
        plan.apply(&mut w);
        let (src, dst) = gen::batch_hosts(0);
        w.plan_injection(src, dst, SimDuration::from_millis(1), 30, SimTime::ZERO);
        let r = w.run(horizon());
        (
            r.finished_at,
            r.updates[0].completed,
            r.violations,
            r.channel,
            w.runtime().stats(),
            w.audit(),
        )
    };
    let a = run_once();
    assert!(a.1.is_some(), "update completes despite the pile-up");
    assert!(a.5.is_clean(), "{}", a.5);
    assert_eq!(a, run_once(), "chaos must replay bit-identically");
}

#[test]
fn serial_configuration_survives_churn_with_intent_tracked() {
    // The paper's one-at-a-time controller is a configuration of the
    // runtime, so it keeps shadow tables like any other: an outage of
    // the waypoint mid-update is repaired — by the reconnect's resync
    // audit or by plain barrier retransmission, whichever gets there
    // first — and the audit afterwards covers every switch.
    let f = sdn_topo::builders::figure1();
    let inst =
        UpdateInstance::new(f.old_route.clone(), f.new_route.clone(), Some(f.waypoint)).unwrap();
    let spec = FlowSpec {
        src: f.h1,
        dst: f.h2,
    };
    let sched = update_core::algorithms::WayUp::default()
        .schedule(&inst)
        .unwrap();
    let compiled = compile_schedule(&f.topo, &inst, &sched, &spec).unwrap();
    let mut w = World::new(
        f.topo.clone(),
        WorldConfig {
            seed: 13,
            ..WorldConfig::default()
        },
    );
    w.set_waypoint(Some(f.waypoint));
    w.install_initial(&initial_flowmods(&f.topo, &f.old_route, &spec).unwrap());
    w.enqueue_update(compiled);
    let mut plan = ChaosPlan::new();
    plan.outage(
        f.waypoint,
        SimTime::ZERO + SimDuration::from_millis(1),
        SimDuration::from_millis(30),
    );
    plan.apply(&mut w);
    let r = w.run(horizon());
    assert!(r.updates[0].completed.is_some(), "{:?}", r.updates[0]);
    let stats = w.runtime().stats();
    assert_eq!(stats.reconnects, 1);
    assert!(
        stats.resyncs + stats.retransmissions >= 1,
        "something repaired the outage: {stats:?}"
    );
    let audit = w.audit();
    assert!(audit.is_clean(), "{audit}");
    assert_eq!(audit.untracked, 0, "{audit}");
    assert!(audit.in_sync > 0);
}
