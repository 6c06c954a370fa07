//! End-to-end integration: scheduler → compiler → controller → channel
//! → switches → packets, across workloads, algorithms and channel
//! behaviours.

use sdn_channel::config::ChannelConfig;
use sdn_sim::scenario::{run_scenario, AlgoChoice, Scenario};
use sdn_topo::gen::{self, UpdatePair};
use sdn_types::{DetRng, SimDuration};

fn fig1_pair() -> UpdatePair {
    let f = sdn_topo::builders::figure1();
    UpdatePair {
        old: f.old_route,
        new: f.new_route,
        waypoint: Some(f.waypoint),
    }
}

#[test]
fn every_scheduled_algorithm_is_clean_on_figure1() {
    for algo in [AlgoChoice::WayUp, AlgoChoice::TwoPhase] {
        for seed in 0..3u64 {
            let mut sc = Scenario::new(format!("{algo}"), fig1_pair(), algo)
                .with_channel(ChannelConfig::jittery(SimDuration::from_millis(8)))
                .with_seed(seed);
            sc.inject_interval = SimDuration::from_micros(200);
            sc.inject_count = 1000;
            let out = run_scenario(&sc).expect("runs");
            assert!(
                out.check.as_ref().unwrap().is_ok(),
                "{algo} static check failed: {}",
                out.check.unwrap()
            );
            assert!(
                !out.sim.violations.any(),
                "{algo} seed {seed}: {}",
                out.sim.violations
            );
            assert!(out.update_time().is_some(), "{algo} seed {seed} incomplete");
        }
    }
}

#[test]
fn peacock_and_slf_clean_on_waypoint_free_workloads() {
    let mut rng = DetRng::new(42);
    for trial in 0..4 {
        let pair = gen::random_permutation(8 + trial, &mut rng);
        for algo in [AlgoChoice::Peacock, AlgoChoice::SlfGreedy] {
            let mut sc = Scenario::new(format!("{algo}-{trial}"), pair.clone(), algo)
                .with_channel(ChannelConfig::jittery(SimDuration::from_millis(5)))
                .with_seed(trial);
            sc.inject_interval = SimDuration::from_micros(500);
            sc.inject_count = 400;
            let out = run_scenario(&sc).expect("runs");
            assert!(out.check.as_ref().unwrap().is_ok(), "{algo} trial {trial}");
            assert_eq!(
                out.sim.violations.loops + out.sim.violations.blackholes,
                0,
                "{algo} trial {trial}: {}",
                out.sim.violations
            );
        }
    }
}

#[test]
fn updates_survive_loss_duplication_and_corruption() {
    let channel = ChannelConfig::lossy(0.15)
        .with_duplication(0.1)
        .with_corruption(0.1);
    let mut sc = Scenario::new("hostile", fig1_pair(), AlgoChoice::WayUp)
        .with_channel(channel)
        .with_seed(5);
    sc.inject_count = 0;
    sc.verify = false;
    let out = run_scenario(&sc).expect("runs");
    assert!(
        out.update_time().is_some(),
        "update must complete under hostile channel"
    );
    assert!(out.sim.channel.dropped > 0, "losses should have occurred");
    assert!(out.sim.decode_errors > 0, "corruption should have occurred");
}

#[test]
fn barrier_rounds_are_strictly_ordered_in_time() {
    let mut sc = Scenario::new("ordering", fig1_pair(), AlgoChoice::WayUp)
        .with_channel(ChannelConfig::jittery(SimDuration::from_millis(10)))
        .with_seed(8);
    sc.inject_count = 0;
    sc.verify = false;
    let out = run_scenario(&sc).expect("runs");
    let rounds = &out.sim.updates[0].rounds;
    for w in rounds.windows(2) {
        let prev_done = w[0].completed.expect("completed");
        assert!(
            w[1].started >= prev_done,
            "round {} started before round {} completed",
            w[1].round + 1,
            w[0].round + 1
        );
    }
}

#[test]
fn identical_seeds_replay_identical_histories() {
    let run = |seed: u64| {
        let mut sc = Scenario::new("det", fig1_pair(), AlgoChoice::WayUp)
            .with_channel(ChannelConfig::jittery(SimDuration::from_millis(7)))
            .with_seed(seed);
        sc.inject_interval = SimDuration::from_micros(300);
        sc.inject_count = 300;
        sc.verify = false;
        let out = run_scenario(&sc).expect("runs");
        (
            out.update_time(),
            out.sim.violations,
            out.sim.packets.len(),
            out.sim.channel.delivered,
        )
    };
    assert_eq!(run(123), run(123));
    assert_ne!(run(123), run(124));
}

/// Runs WayUp on `pair` over a LAN channel with 500 probes and asserts
/// that the schedule verifies and no probe saw a violation; returns
/// whether WayUp fell back to two-phase commit.
fn wayup_runs_clean(pair: UpdatePair, seed: u64) -> bool {
    let mut sc = Scenario::new("crossing", pair, AlgoChoice::WayUp)
        .with_channel(ChannelConfig::lan())
        .with_seed(seed);
    sc.inject_interval = SimDuration::from_micros(200);
    sc.inject_count = 500;
    let out = run_scenario(&sc).expect("runs");
    assert!(out.check.as_ref().unwrap().is_ok());
    assert!(
        !out.sim.violations.any(),
        "seed {seed}: {}",
        out.sim.violations
    );
    out.schedule.fallback
}

#[test]
fn crossing_workloads_complete_by_replacement() {
    let mut rng = DetRng::new(77);
    for trial in 0..3u64 {
        let pair = gen::waypointed(10, true, &mut rng);
        assert!(
            !wayup_runs_clean(pair, trial),
            "trial {trial}: a replacement schedule exists"
        );
    }
}

#[test]
fn hotnets_crossing_instance_completes_via_fallback() {
    // old ⟨1,2,3,4,5⟩, new ⟨1,4,3,2,5⟩, waypoint 3: no replacement
    // order keeps the waypoint enforced (HotNets'14)
    let pair = UpdatePair {
        waypoint: Some(sdn_types::DpId(3)),
        ..gen::reversal(5)
    };
    assert!(wayup_runs_clean(pair, 0), "must fall back to 2PC");
}

#[test]
fn queued_updates_execute_sequentially() {
    use sdn_ctrl::compile::{compile_schedule, initial_flowmods, FlowSpec};
    use sdn_sim::world::{World, WorldConfig};
    use sdn_types::{HostId, SimTime};
    use update_core::algorithms::{TwoPhaseCommit, UpdateScheduler, WayUp};
    use update_core::model::UpdateInstance;

    let f = sdn_topo::builders::figure1();
    let spec = FlowSpec {
        src: f.h1,
        dst: f.h2,
    };
    let forward =
        UpdateInstance::new(f.old_route.clone(), f.new_route.clone(), Some(f.waypoint)).unwrap();
    // queue two jobs: migrate old -> new (WayUp), then new -> old (2PC,
    // since the reverse direction also crosses nothing but exercise the
    // other machinery)
    let backward =
        UpdateInstance::new(f.new_route.clone(), f.old_route.clone(), Some(f.waypoint)).unwrap();

    let mut world = World::new(
        f.topo.clone(),
        WorldConfig {
            channel: ChannelConfig::lan(),
            seed: 3,
            ..WorldConfig::default()
        },
    );
    world.set_waypoint(Some(f.waypoint));
    world.install_initial(&initial_flowmods(&f.topo, &f.old_route, &spec).unwrap());

    let s1 = WayUp::default().schedule(&forward).unwrap();
    world.enqueue_update(compile_schedule(&f.topo, &forward, &s1, &spec).unwrap());
    let s2 = TwoPhaseCommit.schedule(&backward).unwrap();
    world.enqueue_update(compile_schedule(&f.topo, &backward, &s2, &spec).unwrap());

    let report = world.run(SimTime::ZERO + SimDuration::from_secs(3600));
    assert_eq!(report.updates.len(), 2, "both jobs processed");
    assert!(report.updates.iter().all(|u| u.completed.is_some()));
    // jobs must not overlap
    assert!(report.updates[1].started >= report.updates[0].completed.unwrap());

    // after both, the flow is back on the old route
    world.plan_injection(
        HostId(1),
        HostId(2),
        SimDuration::from_millis(1),
        3,
        world.now(),
    );
    let r2 = world.run(SimTime::ZERO + SimDuration::from_secs(7200));
    let last = r2.packets.last().unwrap();
    assert_eq!(last.path, f.old_route.hops().to_vec());
}
