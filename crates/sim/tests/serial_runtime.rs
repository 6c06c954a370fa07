//! The serial configuration — `World::new`, the paper's "message queue
//! … processed one at a time" — where it is *defined* to differ from
//! the stand-alone controller it replaced (the part that must not
//! differ is pinned byte for byte in `serial_golden.rs`): a queued job
//! starts in the very call that retires its predecessor, not at the
//! next poll tick, and lost messages are recovered per switch.

use proptest::prelude::*;

use sdn_channel::config::ChannelConfig;
use sdn_ctrl::compile::{compile_schedule, initial_flowmods, FlowSpec};
use sdn_ctrl::executor::ExecConfig;
use sdn_sim::world::{World, WorldConfig};
use sdn_topo::gen::{self, UpdatePair};
use sdn_types::{SimDuration, SimTime};
use update_core::algorithms::{SlfGreedy, UpdateScheduler};
use update_core::model::UpdateInstance;

const JOBS: usize = 3;

/// Three jobs queued at t = 0: switch-disjoint flows, or one flow
/// flipped forward, back and forward again.
fn queued_world(disjoint: bool, cfg: WorldConfig) -> World {
    let fwd = gen::reversal(8);
    let pairs: Vec<UpdatePair> = (0..JOBS)
        .map(|i| match (disjoint, i % 2) {
            (true, _) => gen::shift(&fwd, i as u64 * 10),
            (false, 0) => fwd.clone(),
            (false, _) => UpdatePair {
                old: fwd.new.clone(),
                new: fwd.old.clone(),
                waypoint: None,
            },
        })
        .collect();
    let flows = if disjoint { JOBS } else { 1 };
    let topo = gen::materialize_batch(&pairs[..flows]);
    let mut world = World::new(topo.clone(), cfg);
    for (i, pair) in pairs.iter().enumerate() {
        let (src, dst) = gen::batch_hosts(if disjoint { i } else { 0 });
        let spec = FlowSpec { src, dst };
        if i < flows {
            world.install_initial(&initial_flowmods(&topo, &pair.old, &spec).unwrap());
        }
        let inst = UpdateInstance::new(pair.old.clone(), pair.new.clone(), None).unwrap();
        let sched = SlfGreedy.schedule(&inst).unwrap();
        let mut update = compile_schedule(&topo, &inst, &sched, &spec).unwrap();
        update.label = format!("job{i}");
        world.enqueue_update(update);
    }
    world
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Strictly one at a time, in submission order, back to back: the
    /// successor's first round is dispatched at the instant of the
    /// predecessor's last barrier reply, whatever the jobs touch.
    #[test]
    fn queued_jobs_run_one_at_a_time_back_to_back(
        seed in any::<u64>(),
        jitter_ms in 0u64..6,
        disjoint in any::<bool>(),
    ) {
        let channel = match jitter_ms {
            0 => ChannelConfig::lan(),
            ms => ChannelConfig::jittery(SimDuration::from_millis(ms)),
        };
        let mut w = queued_world(disjoint, WorldConfig { channel, seed, ..WorldConfig::default() });
        let r = w.run(SimTime::ZERO + SimDuration::from_secs(600));
        prop_assert_eq!(r.updates.len(), JOBS);
        prop_assert_eq!(w.runtime().stats().peak_active, 1);
        prop_assert_eq!(r.updates[0].started, SimTime::ZERO);
        for (i, u) in r.updates.iter().enumerate() {
            prop_assert_eq!(&u.label, &format!("job{i}"));
            prop_assert_eq!(u.submitted, SimTime::ZERO);
            prop_assert!(u.completed.is_some(), "{:?}", u);
        }
        for pair in r.updates.windows(2) {
            prop_assert_eq!(Some(pair[1].started), pair[0].completed, "no poll-tick gap");
        }
    }

    /// 2 % loss in both directions, payload acks on: every job still
    /// converges, the reports' attempt counts and the retransmission
    /// counter agree on whether anything was re-sent, and afterwards
    /// every switch holds exactly the rules the controller intends.
    #[test]
    fn lossy_channel_converges_with_a_clean_audit(seed in any::<u64>(), disjoint in any::<bool>()) {
        let cfg = WorldConfig {
            channel: ChannelConfig::lossy(0.02),
            exec: ExecConfig { flowmod_acks: true, ..ExecConfig::default() },
            seed,
            ..WorldConfig::default()
        };
        let mut w = queued_world(disjoint, cfg);
        let r = w.run(SimTime::ZERO + SimDuration::from_secs(600));
        prop_assert_eq!(r.updates.len(), JOBS);
        for u in &r.updates {
            prop_assert!(u.completed.is_some(), "{:?}", u);
        }
        let stats = w.runtime().stats();
        prop_assert_eq!((stats.completed, stats.failed, stats.quarantined), (JOBS as u64, 0, 0));
        let attempts: u32 = r.updates.iter().flat_map(|u| &u.rounds).map(|t| t.attempts - 1).sum();
        prop_assert_eq!(attempts > 0, stats.retransmissions > 0);
        let audit = w.audit();
        prop_assert!(audit.is_clean(), "{}", audit);
        prop_assert_eq!(audit.untracked, 0);
    }
}
