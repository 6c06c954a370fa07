//! Ack mode on a channel that loses and duplicates 5–25 % of the
//! control messages: three concurrent updates — two SLF-greedy
//! reversals and one WayUp flow through a waypoint — under probe
//! traffic every 200 µs. Whatever the losses, every job completes, no
//! probe sees a transient violation, and afterwards every switch holds
//! exactly the rules the controller intends. A round may only advance
//! past a switch once its FlowMods are proven installed; a controller
//! that let a barrier reply stand in for a lost payload fails here, with
//! looping probes or a divergent switch.

use proptest::prelude::*;

use sdn_channel::config::ChannelConfig;
use sdn_ctrl::compile::{compile_schedule, initial_flowmods, FlowSpec};
use sdn_ctrl::executor::ExecConfig;
use sdn_ctrl::runtime::{ConcurrentRuntime, RuntimeConfig};
use sdn_sim::world::{World, WorldConfig};
use sdn_topo::gen;
use sdn_types::{DetRng, SimDuration, SimTime};
use update_core::algorithms::{SlfGreedy, UpdateScheduler, WayUp};
use update_core::model::UpdateInstance;

/// Probes go out 200 µs apart in batches that double in length (the
/// first covers 50 ms), planned until every update has completed, so
/// they cover each update from start to end.
const PROBE_INTERVAL: SimDuration = SimDuration::from_micros(200);
const FIRST_BATCH: u64 = 250;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn lossy_ack_mode_converges_without_violations(
        seed in any::<u64>(),
        jittery in any::<bool>(),
        drop_prob in 0.05f64..0.25,
        duplicate_prob in 0.05f64..0.25,
    ) {
        let base = if jittery {
            ChannelConfig::jittery(SimDuration::from_millis(2))
        } else {
            ChannelConfig::lan()
        };
        let channel = ChannelConfig { drop_prob, ..base }.with_duplication(duplicate_prob);
        let reversal = gen::reversal(8);
        let waypointed = gen::waypointed(9, false, &mut DetRng::new(seed));
        let pairs = [
            reversal.clone(),
            gen::shift(&reversal, 10),
            gen::shift(&waypointed, 20),
        ];
        let topo = gen::materialize_batch(&pairs);
        let runtime = ConcurrentRuntime::new(RuntimeConfig {
            exec: ExecConfig {
                flowmod_acks: true,
                max_attempts: 60,
                ..ExecConfig::default()
            },
            ..RuntimeConfig::default()
        });
        let mut w = World::builder(topo.clone())
            .config(WorldConfig { channel, seed, ..WorldConfig::default() })
            .runtime_handle(Box::new(runtime))
            .build();
        for (i, pair) in pairs.iter().enumerate() {
            let (src, dst) = gen::batch_hosts(i);
            let spec = FlowSpec { src, dst };
            let inst = UpdateInstance::new(pair.old.clone(), pair.new.clone(), pair.waypoint).unwrap();
            let sched = match pair.waypoint {
                Some(_) => WayUp::default().schedule(&inst),
                None => SlfGreedy.schedule(&inst),
            };
            w.install_initial(&initial_flowmods(&topo, &pair.old, &spec).unwrap());
            w.enqueue_update(compile_schedule(&topo, &inst, &sched.unwrap(), &spec).unwrap());
        }
        let horizon = SimTime::ZERO + SimDuration::from_secs(3600);
        let mut batch = FIRST_BATCH;
        while w.runtime().reports().len() < pairs.len() && w.now() < horizon {
            let start = w.now();
            for (i, pair) in pairs.iter().enumerate() {
                let (src, dst) = gen::batch_hosts(i);
                // each flow's probes are judged against its own waypoint
                w.set_waypoint(pair.waypoint);
                w.plan_injection(src, dst, PROBE_INTERVAL, batch, start);
            }
            w.run(start + PROBE_INTERVAL.saturating_mul(batch));
            batch *= 2;
        }
        let r = w.run(horizon);

        prop_assert_eq!(r.updates.len(), pairs.len());
        for u in &r.updates {
            prop_assert!(u.completed.is_some(), "{:?}", u);
        }
        prop_assert!(!r.violations.any(), "{}", r.violations);
        let stats = w.runtime().stats();
        let resent = r.updates.iter().flat_map(|u| &u.rounds).any(|t| t.attempts > 1);
        prop_assert_eq!(resent, stats.retransmissions > 0, "{:?}", stats);
        let audit = w.audit();
        prop_assert!(audit.is_clean(), "{}", audit);
        prop_assert_eq!(audit.untracked, 0);
    }
}
