//! The serial controller core over real threads: true concurrency,
//! genuine races on the reply channel, scaled wall-clock delays.

use std::time::{Duration, Instant};

use sdn_channel::config::ChannelConfig;
use sdn_channel::{EventLoopTransport, LiveTransport};
use sdn_ctrl::compile::{compile_schedule, initial_flowmods, FlowSpec};
use sdn_ctrl::executor::ExecConfig;
use sdn_ctrl::runtime::{ConcurrentRuntime, RuntimeConfig, RuntimeHandle, SubmitRequest};
use sdn_ctrl::{CompiledUpdate, CtrlOutput, UpdateReport};
use sdn_openflow::messages::Envelope;
use sdn_switch::SoftSwitch;
use sdn_topo::builders::figure1;
use sdn_types::{SimDuration, SimTime, Xid};
use update_core::algorithms::{UpdateScheduler, WayUp};
use update_core::model::UpdateInstance;

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
        if let Some(reply) = transport.recv_timeout(Duration::from_millis(20)) {
            send(rt.on_message(now(), reply.dpid, &reply.env));
        }
    }
    rt.reports()[0].clone()
}

fn boot_figure1() -> (Vec<SoftSwitch>, UpdateInstance, FlowSpec) {
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
        switches
            .iter_mut()
            .find(|s| s.dpid() == dp)
            .unwrap()
            .handle_control(Envelope::new(Xid(0), msg));
    }
    (switches, inst, spec)
}

#[test]
fn wayup_rounds_complete_over_threads() {
    let (switches, inst, spec) = boot_figure1();
    let f = figure1();
    let transport = EventLoopTransport::spawn(
        switches,
        ChannelConfig::jittery(SimDuration::from_millis(2)),
        1234,
        0.01,
    );
    let schedule = WayUp::default().schedule(&inst).unwrap();
    let compiled = compile_schedule(&f.topo, &inst, &schedule, &spec).unwrap();
    let report = drive_to_completion(
        &transport,
        compiled,
        ExecConfig::default(),
        Duration::from_secs(30),
    );
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
    let (switches, inst, spec) = boot_figure1();
    let f = figure1();
    let transport = EventLoopTransport::spawn(switches, ChannelConfig::lossy(0.25), 777, 0.01);
    let schedule = WayUp::default().schedule(&inst).unwrap();
    let compiled = compile_schedule(&f.topo, &inst, &schedule, &spec).unwrap();
    // tight timeout so wall-clock retries kick in quickly
    let report = drive_to_completion(
        &transport,
        compiled,
        ExecConfig {
            barrier_timeout: SimDuration::from_millis(40),
            max_attempts: 50,
            flowmod_acks: true,
        },
        Duration::from_secs(60),
    );
    assert!(report.completed.is_some(), "{report:?}");
    assert!(
        report.rounds.iter().any(|t| t.attempts > 1),
        "25% loss should force at least one retransmission"
    );
    transport.shutdown();
}
