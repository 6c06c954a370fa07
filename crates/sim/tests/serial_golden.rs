//! Golden serial path: one job at a time on a loss-free channel.
//!
//! The Figure 1 update under WayUp, Peacock, SLF-greedy and two-phase,
//! run through [`World::new`] — the paper's one-at-a-time controller —
//! on `ChannelConfig::lan()` and under 5 ms exponential jitter. Written
//! against the public API only: the world is stepped in 1 µs windows
//! and every window in which a switch applied a control message folds
//! `(time of the window's last event, switch, FlowMods, barriers,
//! echoes applied)` into an FNV-1a digest, followed by the
//! `UpdateReport`, the channel counters and every final flow table.
//!
//! The expected digests were recorded by running this file at commit
//! `d07a772`, when `World::new` still built the stand-alone serial
//! `Controller`; with nothing lost and one job in the queue the serial
//! configuration of the runtime must make the same sends at the same
//! instants. What that configuration is *defined* to change (no
//! poll-tick gap between queued jobs, per-switch retransmission) is
//! pinned by the property tests in `serial_runtime.rs` instead.
//!
//! The report's `Debug` text carries the compiled update's label, so
//! all eight digests were re-recorded once, when the label shrank from
//! both whole routes to `"{algorithm} ({src} -> {dst}, {n} hops)"`;
//! with the old label restored the `d07a772` digests still match.
//! The two WayUp digests were re-recorded when WayUp became one greedy
//! pass: Figure 1 then activates the waypoint and the source in one
//! round (3 rounds instead of 4); the other six are unchanged.

use sdn_channel::config::ChannelConfig;
use sdn_ctrl::compile::{compile_schedule, initial_flowmods, FlowSpec};
use sdn_sim::scenario::AlgoChoice;
use sdn_sim::world::{World, WorldConfig};
use sdn_switch::SwitchStats;
use sdn_topo::builders::figure1;
use sdn_types::{DpId, SimDuration, SimTime};
use update_core::model::UpdateInstance;

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bs: &[u8]) {
        for &b in bs {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

fn run_fig1(algo: AlgoChoice, channel: ChannelConfig) -> u64 {
    let f = figure1();
    let inst =
        UpdateInstance::new(f.old_route.clone(), f.new_route.clone(), Some(f.waypoint)).unwrap();
    let spec = FlowSpec {
        src: f.h1,
        dst: f.h2,
    };
    let cfg = WorldConfig {
        channel,
        seed: 2016,
        ..WorldConfig::default()
    };
    let mut world = World::new(f.topo.clone(), cfg);
    world.install_initial(&initial_flowmods(&f.topo, &f.old_route, &spec).unwrap());
    let schedule = algo.scheduler().schedule(&inst).expect("schedulable");
    world.enqueue_update(compile_schedule(&f.topo, &inst, &schedule, &spec).unwrap());

    let dps: Vec<DpId> = f.topo.switches().map(|s| s.dpid).collect();
    let stats = |w: &World| -> Vec<SwitchStats> {
        dps.iter()
            .map(|&dp| w.switch(dp).unwrap().stats())
            .collect()
    };
    let mut digest = Fnv::new();
    let mut seen = stats(&world);
    let mut horizon = SimTime::ZERO;
    let report = loop {
        let r = world.run(horizon);
        let now = stats(&world);
        for ((dp, old), new) in dps.iter().zip(&seen).zip(&now) {
            if old != new {
                digest.u64(r.finished_at.0);
                digest.u64(dp.0);
                digest.u64(new.flow_mods - old.flow_mods);
                digest.u64(new.barriers - old.barriers);
                digest.u64(new.echoes - old.echoes);
            }
        }
        seen = now;
        if !r.updates.is_empty() {
            break r;
        }
        horizon += SimDuration::from_micros(1);
        assert!(
            horizon < SimTime::ZERO + SimDuration::from_secs(2),
            "{algo} did not finish"
        );
    };
    assert_eq!(report.updates.len(), 1);
    assert!(report.updates[0].completed.is_some(), "{algo} failed");
    assert!(
        report.updates[0].rounds.iter().all(|t| t.attempts == 1),
        "loss-free and inside the timeout: nothing is re-sent"
    );
    digest.bytes(format!("{:?}", report.updates[0]).as_bytes());
    digest.bytes(format!("{:?}", report.channel).as_bytes());
    for &dp in &dps {
        for h in world.switch(dp).unwrap().table().rule_hashes() {
            digest.u64(h);
        }
    }
    digest.0
}

const ALGOS: [AlgoChoice; 4] = [
    AlgoChoice::WayUp,
    AlgoChoice::Peacock,
    AlgoChoice::SlfGreedy,
    AlgoChoice::TwoPhase,
];

fn check(channel: ChannelConfig, want: [u64; 4]) {
    let got = ALGOS.map(|a| run_fig1(a, channel));
    assert_eq!(got, want, "digests now {got:#018x?}");
}

#[test]
fn golden_serial_path_on_lan() {
    check(
        ChannelConfig::lan(),
        [
            0x690d_f648_21b9_c3af,
            0x2c2b_3da4_3a4b_b6fb,
            0x4f74_9ef8_7077_e56f,
            0x341a_4451_4f89_49b1,
        ],
    );
}

#[test]
fn golden_serial_path_under_5ms_jitter() {
    check(
        ChannelConfig::jittery(SimDuration::from_millis(5)),
        [
            0x5409_7fd1_59cc_7f10,
            0xefe0_521e_83d1_2f0c,
            0xfca9_cb98_2ee5_af40,
            0xbada_593b_08e2_1781,
        ],
    );
}
