//! End-to-end fabric acceptance in the discrete-event world: a
//! sharded [`FabricCoordinator`] drives single- and cross-shard
//! updates over real switches and a faulty channel with zero
//! transient violations and a rule-for-rule clean audit — including
//! across a controller crash with cross-shard work in flight.

use sdn_channel::config::ChannelConfig;
use sdn_ctrl::compile::{compile_schedule, initial_flowmods, CompiledUpdate, FlowSpec};
use sdn_ctrl::executor::ExecConfig;
use sdn_ctrl::runtime::{FabricConfig, RuntimeConfig, SubmitRequest};
use sdn_sim::chaos::FaultKind;
use sdn_sim::world::{World, WorldConfig};
use sdn_topo::gen::{self, UpdatePair};
use sdn_types::{SimDuration, SimTime};
use update_core::algorithms::{SlfGreedy, UpdateScheduler};
use update_core::model::UpdateInstance;

fn horizon() -> SimTime {
    SimTime::ZERO + SimDuration::from_secs(3600)
}

/// Outage-tolerant per-shard runtime tuning (mirrors the chaos tests).
fn patient() -> RuntimeConfig {
    RuntimeConfig {
        exec: ExecConfig {
            barrier_timeout: SimDuration::from_millis(20),
            max_attempts: 60,
            flowmod_acks: false,
        },
        max_active: 32,
        ..RuntimeConfig::default()
    }
}

/// Build a fabric-driven world over a batch of flows with old routes
/// installed; returns the world and the compiled updates (not yet
/// submitted).
fn fabric_world(
    pairs: &[UpdatePair],
    seed: u64,
    config: FabricConfig,
) -> (World, Vec<CompiledUpdate>) {
    let topo = gen::materialize_batch(pairs);
    let cfg = WorldConfig {
        channel: ChannelConfig::lan(),
        seed,
        ..WorldConfig::default()
    };
    let mut world = World::builder(topo.clone())
        .config(cfg)
        .fabric(config)
        .build();
    let mut compiled = Vec::new();
    for (i, pair) in pairs.iter().enumerate() {
        let (src, dst) = gen::batch_hosts(i);
        let spec = FlowSpec { src, dst };
        let inst = UpdateInstance::new(pair.old.clone(), pair.new.clone(), pair.waypoint).unwrap();
        let sched = SlfGreedy.schedule(&inst).unwrap();
        world.install_initial(&initial_flowmods(&topo, &pair.old, &spec).unwrap());
        compiled.push(compile_schedule(&topo, &inst, &sched, &spec).unwrap());
    }
    (world, compiled)
}

#[test]
fn sharded_fabric_converges_with_zero_violations() {
    // Four disjoint 8-switch flows under a 4-shard modulo assignment:
    // each flow's consecutive dpids land in different shards, so every
    // update runs the two-phase protocol. All must complete with a
    // clean probe trace and a rule-for-rule clean audit.
    let pairs: Vec<UpdatePair> = (0..4)
        .map(|i| gen::shift(&gen::reversal(8), i * 10))
        .collect();
    let (mut w, compiled) = fabric_world(
        &pairs,
        19,
        FabricConfig {
            shards: 4,
            runtime: patient(),
            ..FabricConfig::default()
        },
    );
    let mut cross_shard = 0;
    for c in compiled {
        let ticket = w.submit(SubmitRequest::new(c)).expect("fabric admits");
        cross_shard += u32::from(ticket.cross_shard);
    }
    assert!(
        cross_shard > 0,
        "modulo sharding must split an 8-hop flow across shards"
    );
    for (i, _) in pairs.iter().enumerate() {
        let (src, dst) = gen::batch_hosts(i);
        w.plan_injection(src, dst, SimDuration::from_micros(500), 200, SimTime::ZERO);
    }
    let r = w.run(horizon());

    assert_eq!(r.updates.len(), 4);
    assert!(
        r.updates.iter().all(|u| u.completed.is_some()),
        "every update must commit"
    );
    assert!(!r.violations.any(), "probe trace: {}", r.violations);
    assert_eq!(r.violations.delivered, r.violations.total);
    let status = w.status();
    assert_eq!(status.shards.len(), 4, "status must be shard-aware");
    let audit = w.audit();
    assert!(audit.is_clean(), "{audit}");
    assert_eq!(audit.untracked, 0, "shard shadows cover every switch");
}

#[test]
fn coordinator_crash_with_cross_shard_work_recovers_cleanly() {
    // The coordinator dies 3 ms in with cross-shard updates in flight.
    // The journalled fabric rebuilds every shard, re-queues unprepared
    // cross-shard work, re-establishes reservations for committed
    // work, and aborts anything caught between prepare and commit —
    // either way the invariant is: no transient violation, and a clean
    // audit once the dust settles.
    let pairs: Vec<UpdatePair> = (0..3)
        .map(|i| gen::shift(&gen::reversal(8), i * 10))
        .collect();
    let (mut w, compiled) = fabric_world(
        &pairs,
        47,
        FabricConfig {
            shards: 4,
            runtime: patient(),
            journal: true,
            ..FabricConfig::default()
        },
    );
    for c in compiled {
        assert!(w.submit(SubmitRequest::new(c)).is_ok());
    }
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
    assert_eq!(
        stats.recoveries, 1,
        "fabric journal must rebuild the fabric"
    );
    assert_eq!(r.updates.len(), 3);
    // every update either committed, or was aborted by recovery with
    // nothing half-executed; none may hang
    assert!(
        r.updates
            .iter()
            .all(|u| u.completed.is_some() || u.failure.is_some()),
        "no update may be left in limbo"
    );
    assert!(
        r.updates.iter().filter(|u| u.completed.is_some()).count() >= 1,
        "the workload must make progress across the crash"
    );
    assert!(!r.violations.any(), "probe trace: {}", r.violations);
    let audit = w.audit();
    assert!(audit.is_clean(), "{audit}");
    assert_eq!(audit.untracked, 0, "recovered shadows cover every switch");
}

#[test]
fn fabric_replays_deterministically() {
    let run_once = || {
        let pairs: Vec<UpdatePair> = (0..2)
            .map(|i| gen::shift(&gen::reversal(6), i * 8))
            .collect();
        let (mut w, compiled) = fabric_world(
            &pairs,
            61,
            FabricConfig {
                shards: 2,
                runtime: patient(),
                journal: true,
                ..FabricConfig::default()
            },
        );
        for c in compiled {
            assert!(w.submit(SubmitRequest::new(c)).is_ok());
        }
        w.schedule_fault(
            SimTime::ZERO + SimDuration::from_millis(2),
            FaultKind::CrashController,
        );
        let (src, dst) = gen::batch_hosts(0);
        w.plan_injection(src, dst, SimDuration::from_millis(1), 30, SimTime::ZERO);
        let r = w.run(horizon());
        (r.finished_at, r.violations, w.runtime().stats(), w.audit())
    };
    let a = run_once();
    assert!(a.3.is_clean(), "{}", a.3);
    assert_eq!(a, run_once(), "fabric chaos must replay bit-identically");
}
