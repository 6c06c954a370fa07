//! Live mode: the serial controller core driving *real switches* over
//! the readiness-driven event-loop transport, with genuine (scaled)
//! channel delays. Same protocol, wall-clock time instead of simulated
//! time.
//!
//! ```sh
//! cargo run --example live_threads
//! ```

use std::time::{Duration, Instant};

use sdn_channel::config::ChannelConfig;
use sdn_channel::EventLoopTransport;
use sdn_ctrl::compile::{compile_schedule, initial_flowmods, FlowSpec};
use sdn_ctrl::executor::ExecConfig;
use sdn_ctrl::runtime::{ConcurrentRuntime, RuntimeConfig, RuntimeHandle, SubmitRequest};
use sdn_openflow::messages::Envelope;
use sdn_switch::SoftSwitch;
use sdn_topo::builders::figure1;
use sdn_types::{SimDuration, SimTime, Xid};
use transient_updates::{live, prelude::*};

fn main() {
    let f = figure1();
    let inst = UpdateInstance::new(f.old_route.clone(), f.new_route.clone(), Some(f.waypoint))
        .expect("figure 1 instance");
    let spec = FlowSpec {
        src: f.h1,
        dst: f.h2,
    };

    // Boot one thread per switch, preloaded with the old policy.
    let mut switches: Vec<SoftSwitch> = f
        .topo
        .switches()
        .map(|s| SoftSwitch::new(s.dpid, 16))
        .collect();
    for (dp, msg) in initial_flowmods(&f.topo, &f.old_route, &spec).unwrap() {
        let sw = switches.iter_mut().find(|s| s.dpid() == dp);
        sw.expect("switch exists")
            .handle_control(Envelope::new(Xid(0), msg));
    }
    let transport = EventLoopTransport::spawn(
        switches,
        ChannelConfig::jittery(SimDuration::from_millis(3)),
        42,
        0.05, // compress 1 ms of simulated delay into 50 µs of wall time
    );

    // Schedule and execute round by round over the live transport.
    let schedule = WayUp::default().schedule(&inst).expect("schedulable");
    println!("{schedule}");
    let compiled = compile_schedule(&f.topo, &inst, &schedule, &spec).unwrap();
    let mut runtime = ConcurrentRuntime::new(RuntimeConfig::serial(ExecConfig::default()));

    let epoch = Instant::now();
    runtime
        .submit_request(SubmitRequest::new(compiled), SimTime::ZERO)
        .expect("the serial queue never refuses");
    while runtime.reports().is_empty() {
        live::turn(&mut runtime, &transport, epoch, Duration::from_millis(50))
            .expect("the transport is up");
    }
    let report = &runtime.reports()[0];
    for timing in &report.rounds {
        println!("  {timing:?}");
    }
    println!(
        "\nupdate completed: {} after {:?} wall time",
        report.completed.is_some(),
        epoch.elapsed()
    );

    // Shut the threads down and audit the final flow tables.
    let final_switches = transport.shutdown();
    let updated = final_switches
        .iter()
        .filter(|s| s.stats().flow_mods > 0)
        .count();
    println!("switches touched by the update: {updated}");
    assert!(report.completed.is_some(), "{:?}", report.failure);
}
