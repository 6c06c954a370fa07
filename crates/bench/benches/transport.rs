//! Micro-benchmark: one controller round trip over the live transport.
//!
//! A one-switch [`EventLoopTransport`] on an ideal zero-delay channel,
//! so every delivery is handed over on the calling thread: send a
//! FlowMod, send a barrier, and take the barrier reply with `try_recv`.
//! This is the per-round cost a one-switch round pays on top of the
//! controller's own work (encode, switch apply, reply decode, locks).

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use sdn_channel::{ChannelConfig, EventLoopTransport, LiveTransport};
use sdn_openflow::flow::{Action, FlowMatch};
use sdn_openflow::messages::{Envelope, FlowMod, FlowModCommand, OfMessage};
use sdn_switch::SoftSwitch;
use sdn_types::{DpId, HostId, PortNo, SimDuration, VersionTag, Xid};

fn bench_transport(c: &mut Criterion) {
    let t = EventLoopTransport::spawn(
        vec![SoftSwitch::new(DpId(1), 4)],
        ChannelConfig::ideal(SimDuration::ZERO),
        1,
        1.0,
    );
    let flowmod = Envelope::new(
        Xid(77),
        OfMessage::FlowMod(FlowMod {
            command: FlowModCommand::Add,
            priority: 100,
            matcher: FlowMatch::dst_host_tagged(HostId(2), VersionTag::NEW),
            actions: vec![Action::SetTag(VersionTag::NEW), Action::Output(PortNo(3))],
            cookie: 0xabcd,
        }),
    );
    let barrier = Envelope::new(Xid(78), OfMessage::BarrierRequest);
    c.bench_function("transport/flowmod_barrier_roundtrip", |b| {
        b.iter(|| {
            t.send(DpId(1), black_box(&flowmod)).unwrap();
            t.send(DpId(1), black_box(&barrier)).unwrap();
            t.try_recv().expect("answered inside the barrier's send")
        })
    });
    t.shutdown();
}

criterion_group!(benches, bench_transport);
criterion_main!(benches);
