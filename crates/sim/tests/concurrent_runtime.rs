//! End-to-end tests of the concurrent update runtime inside the
//! discrete-event world: footprint-disjoint updates overlap in sim
//! time with zero transient violations, conflicting updates
//! serialize, bounded admission backpressures, and the adaptive RTO
//! beats the fixed timeout on a slow-switch straggler.

use sdn_channel::config::ChannelConfig;
use sdn_ctrl::compile::{compile_schedule, initial_flowmods, FlowSpec};
use sdn_ctrl::executor::ExecConfig;
use sdn_ctrl::runtime::{ConcurrentRuntime, RetransMode, RtoConfig, RuntimeConfig, SubmitRequest};
use sdn_sim::world::{World, WorldConfig};
use sdn_topo::gen::{self, UpdatePair};
use sdn_types::{DpId, SimDuration, SimTime};
use update_core::algorithms::{SlfGreedy, UpdateScheduler};
use update_core::model::UpdateInstance;

fn horizon() -> SimTime {
    SimTime::ZERO + SimDuration::from_secs(3600)
}

/// Build a world over a batch of flows, install each flow's old-route
/// rules, and return the per-flow compiled updates.
fn batch_world(
    pairs: &[UpdatePair],
    cfg: WorldConfig,
    runtime: Box<dyn sdn_ctrl::runtime::RuntimeHandle>,
) -> (World, Vec<sdn_ctrl::CompiledUpdate>) {
    let topo = gen::materialize_batch(pairs);
    let mut world = World::builder(topo.clone())
        .config(cfg)
        .runtime_handle(runtime)
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
fn disjoint_updates_overlap_in_sim_time_with_zero_violations() {
    let pairs = vec![gen::reversal(6), gen::shift(&gen::reversal(6), 10)];
    let cfg = WorldConfig {
        channel: ChannelConfig::lan(),
        seed: 5,
        ..WorldConfig::default()
    };
    let (mut world, compiled) = batch_world(
        &pairs,
        cfg,
        Box::new(ConcurrentRuntime::new(RuntimeConfig::default())),
    );
    for c in compiled {
        world.enqueue_update(c);
    }
    // probe both flows while the updates run
    for (i, _) in pairs.iter().enumerate() {
        let (src, dst) = gen::batch_hosts(i);
        world.plan_injection(src, dst, SimDuration::from_micros(500), 200, SimTime::ZERO);
    }
    let r = world.run(horizon());
    assert_eq!(r.updates.len(), 2);
    let windows: Vec<(SimTime, SimTime)> = r
        .updates
        .iter()
        .map(|u| (u.started, u.completed.expect("completes")))
        .collect();
    let latest_start = windows.iter().map(|w| w.0).max().unwrap();
    let earliest_end = windows.iter().map(|w| w.1).min().unwrap();
    assert!(
        latest_start < earliest_end,
        "disjoint updates must overlap in sim time: {windows:?}"
    );
    assert_eq!(world.runtime().stats().peak_active, 2);
    assert_eq!(r.violations.total, 400);
    assert!(
        !r.violations.any(),
        "merged trace violations: {}",
        r.violations
    );
}

#[test]
fn conflicting_updates_serialize() {
    // Update B reverses update A on the same switches (same flow): the
    // conflict analyzer must refuse to overlap them.
    let a = gen::reversal(6);
    let b = UpdatePair {
        old: a.new.clone(),
        new: a.old.clone(),
        waypoint: None,
    };
    let topo = gen::materialize_batch(std::slice::from_ref(&a));
    let (src, dst) = gen::batch_hosts(0);
    let spec = FlowSpec { src, dst };
    let cfg = WorldConfig {
        seed: 9,
        ..WorldConfig::default()
    };
    let mut world = World::builder(topo.clone())
        .config(cfg)
        .concurrent(RuntimeConfig::default())
        .build();
    world.install_initial(&initial_flowmods(&topo, &a.old, &spec).unwrap());
    for pair in [&a, &b] {
        let inst = UpdateInstance::new(pair.old.clone(), pair.new.clone(), pair.waypoint).unwrap();
        let sched = SlfGreedy.schedule(&inst).unwrap();
        world.enqueue_update(compile_schedule(&topo, &inst, &sched, &spec).unwrap());
    }
    world.plan_injection(src, dst, SimDuration::from_micros(500), 300, SimTime::ZERO);
    let r = world.run(horizon());
    assert_eq!(r.updates.len(), 2);
    let first_done = r.updates[0].completed.expect("first completes");
    assert!(
        r.updates[1].started >= first_done,
        "conflicting updates must serialize: second started {} before first completed {}",
        r.updates[1].started,
        first_done
    );
    assert_eq!(world.runtime().stats().peak_active, 1);
    assert!(!r.violations.any(), "{}", r.violations);
}

#[test]
fn bounded_queue_backpressures_under_load() {
    let a = gen::reversal(5);
    let topo = gen::materialize_batch(std::slice::from_ref(&a));
    let (src, dst) = gen::batch_hosts(0);
    let spec = FlowSpec { src, dst };
    let runtime = ConcurrentRuntime::new(RuntimeConfig {
        queue_capacity: 2,
        max_active: 1,
        ..RuntimeConfig::default()
    });
    let mut world = World::builder(topo.clone())
        .runtime_handle(Box::new(runtime))
        .build();
    world.install_initial(&initial_flowmods(&topo, &a.old, &spec).unwrap());
    let inst = UpdateInstance::new(a.old.clone(), a.new.clone(), None).unwrap();
    let sched = SlfGreedy.schedule(&inst).unwrap();
    let compiled = compile_schedule(&topo, &inst, &sched, &spec).unwrap();
    let mut accepted = 0;
    let mut rejected = 0;
    for _ in 0..5 {
        if world.submit(SubmitRequest::new(compiled.clone())).is_ok() {
            accepted += 1;
        } else {
            rejected += 1;
        }
    }
    assert_eq!(accepted, 2);
    assert_eq!(rejected, 3);
    let r = world.run(horizon());
    assert_eq!(r.updates.len(), 2, "accepted jobs all complete");
    assert!(r.updates.iter().all(|u| u.completed.is_some()));
    assert_eq!(world.runtime().stats().rejected, 3);
}

/// Run one slow-switch straggler scenario and return (retransmissions,
/// completed).
fn straggler_run(retrans: RetransMode) -> (u64, bool) {
    let pair = gen::reversal(8);
    let topo = gen::materialize_batch(std::slice::from_ref(&pair));
    let (src, dst) = gen::batch_hosts(0);
    let spec = FlowSpec { src, dst };
    let runtime = ConcurrentRuntime::new(RuntimeConfig {
        exec: ExecConfig {
            barrier_timeout: SimDuration::from_millis(10),
            max_attempts: 30,
            flowmod_acks: false,
        },
        retrans,
        ..RuntimeConfig::default()
    });
    let cfg = WorldConfig {
        channel: ChannelConfig::ideal(SimDuration::from_millis(1)),
        seed: 3,
        ..WorldConfig::default()
    };
    let mut world = World::builder(topo.clone())
        .config(cfg)
        .runtime_handle(Box::new(runtime))
        .build();
    // s4 answers ~45x slower than the rest: a straggler, not a corpse.
    world.set_link_profile(
        DpId(4),
        Some(ChannelConfig::ideal(SimDuration::from_millis(45))),
    );
    world.install_initial(&initial_flowmods(&topo, &pair.old, &spec).unwrap());
    let inst = UpdateInstance::new(pair.old.clone(), pair.new.clone(), None).unwrap();
    let sched = SlfGreedy.schedule(&inst).unwrap();
    world.enqueue_update(compile_schedule(&topo, &inst, &sched, &spec).unwrap());
    let r = world.run(horizon());
    (
        world.runtime().stats().retransmissions,
        r.updates[0].completed.is_some(),
    )
}

#[test]
fn adaptive_rto_retransmits_less_than_fixed_on_a_straggler() {
    let (fixed_retrans, fixed_done) = straggler_run(RetransMode::Fixed);
    let (adaptive_retrans, adaptive_done) = straggler_run(RetransMode::Adaptive(RtoConfig {
        initial: SimDuration::from_millis(200),
        min: SimDuration::from_millis(2),
        max: SimDuration::from_secs(5),
        straggler_attempts: 3,
    }));
    assert!(fixed_done && adaptive_done, "both policies must converge");
    assert!(
        fixed_retrans > adaptive_retrans,
        "fixed timeout must spam the straggler more: fixed {fixed_retrans} vs adaptive {adaptive_retrans}"
    );
}
