//! Micro-benchmark: wire codec encode/decode and stream framing.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use sdn_openflow::codec::{decode, encode};
use sdn_openflow::flow::{Action, FlowMatch};
use sdn_openflow::framing::FrameCodec;
use sdn_openflow::messages::{Envelope, FlowMod, FlowModCommand, OfMessage};
use sdn_types::{HostId, PortNo, VersionTag, Xid};

fn sample_flowmod() -> Envelope {
    Envelope::new(
        Xid(77),
        OfMessage::FlowMod(FlowMod {
            command: FlowModCommand::Add,
            priority: 100,
            matcher: FlowMatch::dst_host_tagged(HostId(2), VersionTag::NEW),
            actions: vec![Action::SetTag(VersionTag::NEW), Action::Output(PortNo(3))],
            cookie: 0xabcd,
        }),
    )
}

fn bench_codec(c: &mut Criterion) {
    let env = sample_flowmod();
    let bytes = encode(&env);

    c.bench_function("codec/encode_flowmod", |b| {
        b.iter(|| encode(black_box(&env)))
    });
    c.bench_function("codec/decode_flowmod", |b| {
        b.iter(|| decode(black_box(&bytes)).unwrap())
    });
    c.bench_function("codec/encode_barrier", |b| {
        let barrier = Envelope::new(Xid(1), OfMessage::BarrierRequest);
        b.iter(|| encode(black_box(&barrier)))
    });

    // framing a burst of 64 coalesced messages
    let mut stream = Vec::new();
    for i in 0..64u32 {
        stream.extend_from_slice(&encode(&Envelope::new(Xid(i), OfMessage::BarrierRequest)));
    }
    c.bench_function("codec/frame_64_messages", |b| {
        b.iter(|| {
            let mut fc = FrameCodec::new();
            fc.feed(black_box(&stream));
            std::iter::from_fn(|| fc.next_frame().unwrap()).count()
        })
    });
}

criterion_group!(benches, bench_codec);
criterion_main!(benches);
