//! The controller loop over a live transport, one [`turn`] at a time,
//! with wall-clock time since the caller's epoch as the runtime's `now`.
//!
//! ```
//! use std::time::{Duration, Instant};
//! use transient_updates::channel::{config::ChannelConfig, EventLoopTransport};
//! use transient_updates::ctrl::compile::{compile_schedule, FlowSpec};
//! use transient_updates::ctrl::runtime::{ConcurrentRuntime, RuntimeConfig, RuntimeHandle};
//! use transient_updates::ctrl::runtime::SubmitRequest;
//! use transient_updates::{live, prelude::*, switch::SoftSwitch};
//!
//! let f = sdn_topo::builders::figure1();
//! let (old, new) = (f.old_route.clone(), f.new_route.clone());
//! let inst = UpdateInstance::new(old, new, Some(f.waypoint)).unwrap();
//! let schedule = WayUp::default().schedule(&inst).unwrap();
//! let spec = FlowSpec { src: f.h1, dst: f.h2 };
//! let update = compile_schedule(&f.topo, &inst, &schedule, &spec).unwrap();
//! let switches = f.topo.switches().map(|s| SoftSwitch::new(s.dpid, 16)).collect();
//! let transport = EventLoopTransport::spawn(switches, ChannelConfig::default(), 1, 0.01);
//! let mut runtime = ConcurrentRuntime::new(RuntimeConfig::default());
//! let epoch = Instant::now();
//! runtime.submit_request(SubmitRequest::new(update), SimTime::ZERO).unwrap();
//! while runtime.reports().is_empty() {
//!     live::turn(&mut runtime, &transport, epoch, Duration::from_millis(5)).unwrap();
//! }
//! assert!(runtime.reports()[0].completed.is_some());
//! transport.shutdown();
//! ```

use std::time::{Duration, Instant};

use sdn_channel::{LiveTransport, TransportError, TransportEvent};
use sdn_ctrl::runtime::RuntimeHandle;
use sdn_ctrl::CtrlOutput;
use sdn_types::SimTime;

/// One turn of the loop: forward every pending connection event
/// (`Reconnected` starts the runtime's resync), poll, wait up to
/// `max_wait` for a reply, then handle every reply already queued.
/// Polling between queued replies would let a barrier timer fire for
/// a switch whose answer is waiting. A send refused as `Disconnected`
/// is dropped: the slot's timer and the reconnect's resync cover it.
/// Any other transport error is returned.
pub fn turn(
    runtime: &mut impl RuntimeHandle,
    transport: &impl LiveTransport,
    epoch: Instant,
    max_wait: Duration,
) -> Result<(), TransportError> {
    let now = || SimTime(epoch.elapsed().as_nanos() as u64);
    while let Some(event) = transport.try_next_event() {
        match event {
            TransportEvent::Disconnected(dp) => runtime.on_disconnect(dp, now()),
            TransportEvent::Reconnected(dp) => send(transport, runtime.on_reconnect(dp, now()))?,
        }
    }
    send(transport, runtime.poll(now()))?;
    let mut next = transport.recv_timeout(max_wait);
    while let Some(reply) = next {
        send(transport, runtime.on_message(now(), reply.dpid, &reply.env))?;
        next = transport.try_recv();
    }
    Ok(())
}

fn send(transport: &impl LiveTransport, outs: Vec<CtrlOutput>) -> Result<(), TransportError> {
    for CtrlOutput::Send(dp, env) in outs {
        match transport.send(dp, &env) {
            Ok(()) | Err(TransportError::Disconnected(_)) => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}
