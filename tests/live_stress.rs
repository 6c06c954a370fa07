//! Stress the threaded live transport: hundreds of real switch
//! threads, loss + corruption + duplication enabled *simultaneously*,
//! duplicated replies racing reordered ones, and sub-RTT timeout
//! storms — the serial controller core must converge through all of it.

use std::time::{Duration, Instant};

use sdn_channel::config::ChannelConfig;
use sdn_channel::{EventLoopTransport, LiveTransport};
use sdn_ctrl::compile::{CompiledRound, CompiledUpdate};
use sdn_ctrl::executor::ExecConfig;
use sdn_ctrl::runtime::{ConcurrentRuntime, RuntimeConfig, RuntimeHandle, SubmitRequest};
use sdn_ctrl::{CtrlOutput, UpdateReport};
use sdn_openflow::flow::FlowMatch;
use sdn_openflow::messages::{FlowMod, FlowModCommand, OfMessage};
use sdn_switch::SoftSwitch;
use sdn_types::{DpId, HostId, SimDuration, SimTime};

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

/// Run one update through the serial configuration of the runtime,
/// wall clock as its time, and hand back its report.
fn drive_to_completion(
    transport: &impl LiveTransport,
    update: CompiledUpdate,
    exec: ExecConfig,
    deadline: Duration,
) -> UpdateReport {
    let start = Instant::now();
    let now = || SimTime(start.elapsed().as_nanos() as u64);
    let send = |outs: Vec<CtrlOutput>| {
        for CtrlOutput::Send(dp, env) in outs {
            transport.send(dp, &env).unwrap();
        }
    };
    let mut rt = ConcurrentRuntime::new(RuntimeConfig::serial(exec));
    rt.submit_request(SubmitRequest::new(update), now())
        .expect("the serial queue never refuses");
    while rt.reports().is_empty() {
        assert!(
            start.elapsed() < deadline,
            "live execution did not converge within {deadline:?}"
        );
        send(rt.poll(now()));
        if let Some(reply) = transport.recv_timeout(Duration::from_millis(2)) {
            send(rt.on_message(now(), reply.dpid, &reply.env));
        }
    }
    rt.reports()[0].clone()
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
        wide_update(n, 2),
        ExecConfig {
            barrier_timeout: SimDuration::from_millis(60),
            max_attempts: 60,
            flowmod_acks: true,
        },
        Duration::from_secs(120),
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
        wide_update(n, 4),
        ExecConfig::default(),
        Duration::from_secs(60),
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
        wide_update(n, 3),
        ExecConfig {
            barrier_timeout: SimDuration::from_millis(4),
            max_attempts: 200,
            flowmod_acks: true,
        },
        Duration::from_secs(60),
    );
    assert!(report.completed.is_some(), "{:?}", report.failure);
    assert!(
        report.rounds.iter().any(|t| t.attempts > 1),
        "sub-RTT timeout must force retransmissions"
    );
    transport.shutdown();
}
