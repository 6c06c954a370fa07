//! Stress scenarios for the simulated control plane: hundreds of
//! switches, every channel fault enabled at once, retransmission
//! (timeout) storms, and concurrent fan-out under loss — the regimes
//! ROADMAP's "live-channel stress" item calls for, run on the
//! deterministic discrete-event path.

use sdn_channel::config::ChannelConfig;
use sdn_ctrl::compile::{compile_schedule, initial_flowmods, FlowSpec};
use sdn_ctrl::executor::ExecConfig;
use sdn_ctrl::runtime::{ConcurrentRuntime, RuntimeConfig};
use sdn_sim::scenario::{run_scenario, AlgoChoice, Scenario};
use sdn_sim::world::{World, WorldConfig};
use sdn_topo::gen::{self, UpdatePair};
use sdn_types::{SimDuration, SimTime};
use update_core::algorithms::{Peacock, SlfGreedy, UpdateScheduler};
use update_core::model::UpdateInstance;

fn horizon() -> SimTime {
    SimTime::ZERO + SimDuration::from_secs(3600)
}

/// Loss, corruption and duplication all enabled at once.
fn hostile_channel() -> ChannelConfig {
    ChannelConfig::lossy(0.08)
        .with_corruption(0.05)
        .with_duplication(0.15)
}

#[test]
fn hundreds_of_switches_survive_all_faults_simultaneously() {
    // 240 switches, relaxed-loop-freedom schedule (3 wide rounds), a
    // channel that drops, corrupts AND duplicates. The barrier
    // machinery must still converge and the data plane must stay
    // loop- and blackhole-free.
    let pair = gen::reversal(240);
    let mut sc = Scenario::new("stress-240", pair, AlgoChoice::Peacock)
        .with_channel(hostile_channel())
        .with_seed(17);
    sc.inject_interval = SimDuration::from_millis(2);
    sc.inject_count = 300;
    sc.verify = false; // static checks covered elsewhere; this is a channel test
    let out = run_scenario(&sc).expect("scenario runs");
    assert!(
        out.update_time().is_some(),
        "update must converge under loss+corruption+duplication"
    );
    let ch = out.sim.channel;
    assert!(ch.dropped > 0, "losses must actually occur");
    assert!(ch.duplicated > 0, "duplicates must actually occur");
    assert!(ch.corrupted > 0, "corruption must actually occur");
    assert!(
        out.sim.decode_errors > 0,
        "corruption surfaces as decode errors"
    );
    assert_eq!(
        out.sim.violations.loops, 0,
        "peacock forbids transient loops: {}",
        out.sim.violations
    );
    assert_eq!(out.sim.violations.blackholes, 0, "{}", out.sim.violations);
}

#[test]
fn timeout_storm_converges_with_heavy_retransmission() {
    // A barrier timeout far below the channel RTT turns every round
    // into a retransmission storm; the executor must ride it out.
    let pair = gen::reversal(40);
    let topo = gen::materialize_batch(std::slice::from_ref(&pair));
    let (src, dst) = gen::batch_hosts(0);
    let spec = FlowSpec { src, dst };
    let runtime = ConcurrentRuntime::new(RuntimeConfig {
        exec: ExecConfig {
            barrier_timeout: SimDuration::from_millis(1),
            max_attempts: 200,
            flowmod_acks: false,
        },
        retrans: sdn_ctrl::runtime::RetransMode::Fixed,
        ..RuntimeConfig::default()
    });
    let cfg = WorldConfig {
        channel: ChannelConfig::jittery(SimDuration::from_millis(4)),
        poll_interval: SimDuration::from_micros(200),
        seed: 23,
        ..WorldConfig::default()
    };
    let mut world = World::builder(topo.clone())
        .config(cfg)
        .runtime_handle(Box::new(runtime))
        .build();
    world.install_initial(&initial_flowmods(&topo, &pair.old, &spec).unwrap());
    let inst = UpdateInstance::new(pair.old.clone(), pair.new.clone(), None).unwrap();
    let sched = Peacock::default().schedule(&inst).unwrap();
    world.enqueue_update(compile_schedule(&topo, &inst, &sched, &spec).unwrap());
    let r = world.run(horizon());
    assert!(
        r.updates[0].completed.is_some(),
        "storm must still converge"
    );
    let stats = world.runtime().stats();
    assert!(
        stats.retransmissions > 50,
        "sub-RTT timeouts must storm: only {} retransmissions",
        stats.retransmissions
    );
    assert_eq!(stats.failed, 0);
}

#[test]
fn concurrent_fanout_under_duplication_and_jitter() {
    // Eight switch-disjoint flows in flight at once over a channel
    // that duplicates heavily and jitters (cross-connection
    // reordering); every update completes concurrently with zero
    // violations on the merged probe trace. (Loss is deliberately off:
    // a dropped FlowMod whose barrier survives can complete a round
    // unapplied, voiding transient guarantees — the lossy regimes
    // above assert convergence, not violation-freedom.)
    let pairs: Vec<UpdatePair> = (0..8)
        .map(|i| gen::shift(&gen::reversal(8), i * 10))
        .collect();
    let topo = gen::materialize_batch(&pairs);
    let runtime = ConcurrentRuntime::new(RuntimeConfig {
        exec: ExecConfig {
            barrier_timeout: SimDuration::from_millis(5),
            max_attempts: 40,
            flowmod_acks: false,
        },
        ..RuntimeConfig::default()
    });
    let cfg = WorldConfig {
        channel: ChannelConfig::jittery(SimDuration::from_millis(2)).with_duplication(0.3),
        seed: 41,
        ..WorldConfig::default()
    };
    let mut world = World::builder(topo.clone())
        .config(cfg)
        .runtime_handle(Box::new(runtime))
        .build();
    for (i, pair) in pairs.iter().enumerate() {
        let (src, dst) = gen::batch_hosts(i);
        let spec = FlowSpec { src, dst };
        world.install_initial(&initial_flowmods(&topo, &pair.old, &spec).unwrap());
        let inst = UpdateInstance::new(pair.old.clone(), pair.new.clone(), pair.waypoint).unwrap();
        // strong loop freedom: zero transient loops even for packets
        // already in flight, so the merged-trace assertion is exact
        let sched = SlfGreedy.schedule(&inst).unwrap();
        world.enqueue_update(compile_schedule(&topo, &inst, &sched, &spec).unwrap());
        world.plan_injection(src, dst, SimDuration::from_millis(1), 100, SimTime::ZERO);
    }
    let r = world.run(horizon());
    assert_eq!(r.updates.len(), 8);
    assert!(r.updates.iter().all(|u| u.completed.is_some()));
    let stats = world.runtime().stats();
    assert_eq!(stats.peak_active, 8, "all eight must be in flight at once");
    assert!(!r.violations.any(), "merged trace: {}", r.violations);
}
