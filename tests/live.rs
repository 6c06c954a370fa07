//! The controller core over real switch threads through `live::turn`:
//! genuine races on the reply channel and scaled wall-clock delays;
//! hundreds of switches under loss + corruption + duplication at once,
//! duplicated replies racing reordered ones, sub-RTT timeout storms,
//! and a switch that loses its connection or reboots mid-update.

use std::time::{Duration, Instant};

use sdn_channel::config::ChannelConfig;
use sdn_channel::{EventLoopTransport, LiveTransport, TransportError};
use sdn_ctrl::compile::{compile_schedule, initial_flowmods, CompiledRound, FlowSpec};
use sdn_ctrl::executor::ExecConfig;
use sdn_ctrl::runtime::{ConcurrentRuntime, RuntimeConfig, RuntimeHandle, SubmitRequest};
use sdn_ctrl::{CompiledUpdate, UpdateReport};
use sdn_openflow::flow::FlowMatch;
use sdn_openflow::messages::{Envelope, FlowMod, FlowModCommand, OfMessage};
use sdn_switch::SoftSwitch;
use sdn_topo::builders::figure1;
use sdn_types::{DpId, HostId, SimDuration, SimTime, Xid};
use transient_updates::live;
use update_core::algorithms::{UpdateScheduler, WayUp};
use update_core::model::UpdateInstance;

/// Submit `update` to `rt` and turn the live loop until its report is
/// in, the runtime is idle and it has run at least `resyncs` audits.
fn drive_to_completion(
    transport: &impl LiveTransport,
    rt: &mut ConcurrentRuntime,
    update: CompiledUpdate,
    deadline: Duration,
    resyncs: u64,
) -> UpdateReport {
    let epoch = Instant::now();
    rt.submit_request(SubmitRequest::new(update), SimTime::ZERO)
        .expect("the queue is empty");
    while rt.reports().is_empty() || !rt.is_idle() || rt.stats().resyncs < resyncs {
        assert!(
            epoch.elapsed() < deadline,
            "live execution did not converge within {deadline:?}"
        );
        live::turn(rt, transport, epoch, Duration::from_millis(2)).unwrap();
    }
    rt.reports()[0].clone()
}

fn serial(exec: ExecConfig) -> ConcurrentRuntime {
    ConcurrentRuntime::new(RuntimeConfig::serial(exec))
}

fn flowmod() -> OfMessage {
    OfMessage::FlowMod(FlowMod {
        command: FlowModCommand::Add,
        priority: 100,
        matcher: FlowMatch::dst_host(HostId(2)),
        actions: vec![],
        cookie: 7,
    })
}

/// A compiled update of `rounds` rounds, each touching every switch.
fn wide_update(n: u64, rounds: usize) -> CompiledUpdate {
    CompiledUpdate {
        label: format!("wide-{n}x{rounds}"),
        rounds: (0..rounds)
            .map(|_| CompiledRound {
                msgs: (1..=n).map(|d| (DpId(d), flowmod())).collect(),
                pre_delay: SimDuration::ZERO,
            })
            .collect(),
    }
}

/// Figure 1's switches preloaded with the old route (`rt` is told of
/// each rule) and its WayUp update.
fn boot_figure1(rt: &mut ConcurrentRuntime) -> (Vec<SoftSwitch>, UpdateInstance, CompiledUpdate) {
    let f = figure1();
    let inst =
        UpdateInstance::new(f.old_route.clone(), f.new_route.clone(), Some(f.waypoint)).unwrap();
    let spec = FlowSpec {
        src: f.h1,
        dst: f.h2,
    };
    let mut switches: Vec<SoftSwitch> = f
        .topo
        .switches()
        .map(|s| SoftSwitch::new(s.dpid, 16))
        .collect();
    for (dp, msg) in initial_flowmods(&f.topo, &f.old_route, &spec).unwrap() {
        rt.note_installed(dp, &msg);
        switches
            .iter_mut()
            .find(|s| s.dpid() == dp)
            .unwrap()
            .handle_control(Envelope::new(Xid(0), msg));
    }
    let schedule = WayUp::default().schedule(&inst).unwrap();
    let update = compile_schedule(&f.topo, &inst, &schedule, &spec).unwrap();
    (switches, inst, update)
}

#[test]
fn hundreds_of_switches_converge_under_combined_faults() {
    // 300 switch threads; the channel drops, corrupts AND duplicates
    // at once. One wide round to all 300, then another: the barrier
    // retransmission machinery must still drain both rounds.
    let n = 300u64;
    let switches: Vec<SoftSwitch> = (1..=n).map(|i| SoftSwitch::new(DpId(i), 4)).collect();
    let cfg = ChannelConfig::lossy(0.05)
        .with_corruption(0.05)
        .with_duplication(0.2);
    let transport = EventLoopTransport::spawn(switches, cfg, 2024, 0.001);
    let report = drive_to_completion(
        &transport,
        &mut serial(ExecConfig {
            barrier_timeout: SimDuration::from_millis(60),
            max_attempts: 60,
            flowmod_acks: true,
        }),
        wide_update(n, 2),
        Duration::from_secs(120),
        0,
    );
    assert!(report.completed.is_some(), "{:?}", report.failure);
    let finals = transport.shutdown();
    assert_eq!(finals.len(), n as usize);
    // With payload acks on, EVERY switch ends with the intended rule:
    // a round only completes once each FlowMod's echo ack has
    // round-tripped its exact payload, so a dropped or corrupted
    // FlowMod can no longer hide behind a surviving barrier. (A
    // corrupted frame that still decodes may deposit a *spurious*
    // extra rule — that is a wire-integrity matter, not a delivery
    // one — so the assertion checks presence, not table size.)
    let intended = FlowMatch::dst_host(HostId(2));
    let installed = finals
        .iter()
        .filter(|s| {
            s.table()
                .iter()
                .any(|e| e.matcher == intended && e.priority == 100)
        })
        .count();
    assert!(
        installed == n as usize,
        "only {installed}/{n} switches ended with the rule"
    );
}

#[test]
fn reordering_under_duplication_converges() {
    // 100% duplication with jittery per-message delays: duplicate
    // barrier replies race each other out of order across threads; a
    // multi-round update must still advance exactly once per round.
    let n = 24u64;
    let switches: Vec<SoftSwitch> = (1..=n).map(|i| SoftSwitch::new(DpId(i), 4)).collect();
    let cfg = ChannelConfig::jittery(SimDuration::from_millis(4)).with_duplication(1.0);
    let transport = EventLoopTransport::spawn(switches, cfg, 99, 0.01);
    let report = drive_to_completion(
        &transport,
        &mut serial(ExecConfig::default()),
        wide_update(n, 4),
        Duration::from_secs(60),
        0,
    );
    assert!(report.completed.is_some(), "{:?}", report.failure);
    assert_eq!(
        report.rounds.len(),
        4,
        "each round recorded exactly once despite duplicate replies"
    );
    transport.shutdown();
}

#[test]
fn timeout_storm_over_threads_converges() {
    // Barrier timeout inside the channel's jitter tail: switches
    // routinely get retransmissions, and replies often answer barriers
    // that have already been re-sent. Every outstanding transmission
    // stays valid, so the late replies fence their switches and the
    // update converges through the storm.
    let n = 40u64;
    let switches: Vec<SoftSwitch> = (1..=n).map(|i| SoftSwitch::new(DpId(i), 4)).collect();
    // exp(mean 100 ms) one-way scaled by 0.01 -> ~1 ms wall, long tail
    let cfg = ChannelConfig::jittery(SimDuration::from_millis(100));
    let transport = EventLoopTransport::spawn(switches, cfg, 5, 0.01);
    let report = drive_to_completion(
        &transport,
        &mut serial(ExecConfig {
            barrier_timeout: SimDuration::from_millis(4),
            max_attempts: 200,
            flowmod_acks: true,
        }),
        wide_update(n, 3),
        Duration::from_secs(60),
        0,
    );
    assert!(report.completed.is_some(), "{:?}", report.failure);
    assert!(
        report.rounds.iter().any(|t| t.attempts > 1),
        "sub-RTT timeout must force retransmissions"
    );
    transport.shutdown();
}

#[test]
fn wayup_rounds_complete_over_threads() {
    let mut rt = serial(ExecConfig::default());
    let (switches, inst, update) = boot_figure1(&mut rt);
    let transport = EventLoopTransport::spawn(
        switches,
        ChannelConfig::jittery(SimDuration::from_millis(2)),
        1234,
        0.01,
    );
    let report = drive_to_completion(&transport, &mut rt, update, Duration::from_secs(30), 0);
    assert!(report.completed.is_some(), "{report:?}");

    // Final flow tables: the new-route switches have rules, and they
    // route toward their new next hops.
    let finals = transport.shutdown();
    for dp in inst.new_route().hops() {
        let sw = finals.iter().find(|s| s.dpid() == *dp).unwrap();
        assert!(
            !sw.table().is_empty(),
            "{dp} has an empty table after the update"
        );
    }
}

#[test]
fn lossy_live_channel_retries_until_done() {
    // tight timeout so wall-clock retries kick in quickly
    let mut rt = serial(ExecConfig {
        barrier_timeout: SimDuration::from_millis(40),
        max_attempts: 50,
        flowmod_acks: true,
    });
    let (switches, _, update) = boot_figure1(&mut rt);
    let transport = EventLoopTransport::spawn(switches, ChannelConfig::lossy(0.25), 777, 0.01);
    let report = drive_to_completion(&transport, &mut rt, update, Duration::from_secs(60), 0);
    assert!(report.completed.is_some(), "{report:?}");
    assert!(
        report.rounds.iter().any(|t| t.attempts > 1),
        "25% loss should force at least one retransmission"
    );
    transport.shutdown();
}

/// New-route switch s8 of Figure 1, whose rules the update installs.
const S8: DpId = DpId(8);

/// Run Figure 1's WayUp update over a jittery channel at wall-clock
/// speed, 4 seeds × the serial and default configurations. s8 is
/// disconnected before the first turn if `down_first`, and `churn` is
/// applied to it `at` into the update from a thread of its own. The
/// update must complete, and after one resync or more every switch
/// must hold exactly the rules the runtime intends.
fn churn_converges(
    down_first: bool,
    at: Duration,
    churn: fn(&EventLoopTransport, DpId) -> Result<(), TransportError>,
) {
    for seed in 1..=4 {
        for (name, cfg) in [
            ("serial", RuntimeConfig::serial(ExecConfig::default())),
            ("default", RuntimeConfig::default()),
        ] {
            let mut rt = ConcurrentRuntime::new(cfg);
            let (switches, _, update) = boot_figure1(&mut rt);
            let channel = ChannelConfig::jittery(SimDuration::from_millis(2));
            let transport = EventLoopTransport::spawn(switches, channel, seed, 1.0);
            if down_first {
                transport.disconnect(S8).unwrap();
            }
            let report = std::thread::scope(|s| {
                s.spawn(|| {
                    std::thread::sleep(at);
                    churn(&transport, S8).unwrap();
                });
                drive_to_completion(&transport, &mut rt, update, Duration::from_secs(30), 1)
            });
            assert!(
                report.completed.is_some(),
                "seed {seed}, {name}: {report:?}"
            );
            for sw in transport.shutdown() {
                assert_eq!(
                    sw.table().rule_hashes(),
                    rt.intended_hashes(sw.dpid()).unwrap_or_default(),
                    "seed {seed}, {name}: {} diverged from the runtime's intent",
                    sw.dpid()
                );
            }
        }
    }
}

#[test]
fn reboot_after_round_one_is_resynced() {
    churn_converges(false, Duration::from_millis(10), EventLoopTransport::reboot);
}

#[test]
fn switch_down_from_the_start_is_resynced_on_reconnect() {
    churn_converges(
        true,
        Duration::from_millis(30),
        EventLoopTransport::reconnect,
    );
}
