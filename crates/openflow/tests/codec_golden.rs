//! Golden codec corpus: the same bytes and the same results.
//!
//! A seeded corpus of 1040 envelopes covers every `OfMessage` variant:
//! FlowMods with 0–8 actions of every `Action` kind under every
//! `FlowMatch` wildcard combination, ports 0, 0xfeff, `CONTROLLER` and
//! `LOCAL` beside random physical ones, payloads of 0–64 bytes and
//! features replies with 0 to 64 ports. Four FNV-1a digests pin the
//! codec's observable behaviour:
//!
//! * (a) the concatenated encoded bytes;
//! * (b) `decode`'s `Result` (its `Debug` text) for every mutant of
//!   every frame: each truncation, each single-byte XOR 0xff and one
//!   appended byte — so which `CodecError` wins on a frame with several
//!   faults, and the `expected`/`got` of every `Truncated`, are pinned;
//! * (c) one `FrameCodec` fed every mutant in seeded chunk sizes: each
//!   `next_frame` result, then `errors()` and `resyncs()`;
//! * (d) `try_encode_into` on values the wire cannot carry, each of
//!   which must leave a sentinel-filled buffer untouched.
//!
//! The digests were recorded by running this file at commit `594e5d4`;
//! a change to the codec that is meant to keep behaviour leaves them
//! alone.

use sdn_openflow::codec::{decode, encode, try_encode_into, BytesMut, MAX_FRAME_LEN};
use sdn_openflow::flow::{Action, FlowMatch};
use sdn_openflow::framing::FrameCodec;
use sdn_openflow::messages::{Envelope, FlowMod, FlowModCommand, OfMessage};
use sdn_types::{DetRng, DpId, HostId, PortNo, VersionTag, Xid};

/// Envelopes in the corpus: 80 of each of the 13 variants.
const CORPUS: u64 = 1040;

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

    fn text(&mut self, s: &str) {
        self.bytes(s.as_bytes());
        self.bytes(b"\n");
    }
}

fn bits(rng: &mut DetRng, n: u32) -> u64 {
    rng.range_u64(0, 1 << n)
}

/// The four edge ports half the time, otherwise any physical port.
fn port(rng: &mut DetRng) -> PortNo {
    const EDGES: [PortNo; 4] = [PortNo(0), PortNo(0xfeff), PortNo::CONTROLLER, PortNo::LOCAL];
    if rng.chance(0.5) {
        EDGES[rng.index(EDGES.len())]
    } else {
        PortNo(bits(rng, 16) as u32 % 0xff00)
    }
}

fn payload(rng: &mut DetRng) -> Vec<u8> {
    let n = rng.index(65);
    (0..n).map(|_| bits(rng, 8) as u8).collect()
}

fn action(rng: &mut DetRng) -> Action {
    match rng.index(5) {
        0 => Action::Output(port(rng)),
        1 => Action::SetTag(VersionTag(bits(rng, 16) as u16)),
        2 => Action::StripTag,
        3 => Action::Drop,
        _ => Action::ToController,
    }
}

/// Wildcard combination `combo` (bit i set = field i concrete).
fn matcher(rng: &mut DetRng, combo: u64) -> FlowMatch {
    FlowMatch {
        in_port: (combo & 1 != 0).then(|| port(rng)),
        src: (combo & 2 != 0).then(|| HostId(bits(rng, 32) as u32)),
        dst: (combo & 4 != 0).then(|| HostId(bits(rng, 32) as u32)),
        tag: (combo & 8 != 0).then(|| VersionTag(bits(rng, 16) as u16)),
    }
}

/// Envelope `i`: variant `i % 13`, and the `k = i / 13`-th of its kind
/// walks the wildcard combinations, action counts and port counts.
fn envelope(rng: &mut DetRng, i: u64) -> Envelope {
    let k = i / 13;
    let msg = match i % 13 {
        0 => OfMessage::Hello,
        1 => OfMessage::EchoRequest(payload(rng)),
        2 => OfMessage::EchoReply(payload(rng)),
        3 => OfMessage::FeaturesRequest,
        4 => OfMessage::FeaturesReply {
            dpid: DpId(rng.range_u64(0, u64::MAX)),
            n_ports: (k % 65) as u32,
        },
        5 => OfMessage::FlowMod(FlowMod {
            command: [
                FlowModCommand::Add,
                FlowModCommand::Modify,
                FlowModCommand::Delete,
            ][rng.index(3)],
            priority: bits(rng, 16) as u16,
            matcher: matcher(rng, k % 16),
            actions: (0..k % 9).map(|_| action(rng)).collect(),
            cookie: rng.range_u64(0, u64::MAX),
        }),
        6 => OfMessage::BarrierRequest,
        7 => OfMessage::BarrierReply,
        8 => OfMessage::PacketIn {
            buffer_id: bits(rng, 32) as u32,
            in_port: port(rng),
            data: payload(rng),
        },
        9 => OfMessage::PacketOut {
            buffer_id: bits(rng, 32) as u32,
            out_port: port(rng),
            data: payload(rng),
        },
        10 => OfMessage::ErrorMsg {
            etype: bits(rng, 16) as u16,
            code: bits(rng, 16) as u16,
            data: payload(rng),
        },
        11 => OfMessage::FlowStatsRequest,
        _ => OfMessage::FlowStatsReply {
            entries: bits(rng, 32) as u32,
            packets: rng.range_u64(0, u64::MAX),
        },
    };
    Envelope::new(Xid(bits(rng, 32) as u32), msg)
}

fn corpus() -> Vec<Envelope> {
    let mut rng = DetRng::new(0x0f10_c0de);
    (0..CORPUS).map(|i| envelope(&mut rng, i)).collect()
}

/// Every mutant of `frame`: each proper prefix, each single-byte XOR
/// 0xff, and the frame with one byte appended.
fn mutants(frame: &[u8]) -> impl Iterator<Item = Vec<u8>> + '_ {
    let cuts = (0..frame.len()).map(|n| frame[..n].to_vec());
    let flips = (0..frame.len()).map(|i| {
        let mut m = frame.to_vec();
        m[i] ^= 0xff;
        m
    });
    let longer = std::iter::once([frame, &[0x5a]].concat());
    cuts.chain(flips).chain(longer)
}

fn frames() -> Vec<Vec<u8>> {
    corpus().iter().map(|e| encode(e).to_vec()).collect()
}

fn check(what: &str, got: u64, want: u64) {
    assert_eq!(
        got, want,
        "{what}: digest {got:#018x}, recorded {want:#018x}"
    );
}

#[test]
fn corpus_covers_every_variant_action_and_port_count() {
    let envs = corpus();
    let mut kinds: Vec<&str> = envs.iter().map(|e| e.msg.kind()).collect();
    kinds.sort_unstable();
    kinds.dedup();
    assert_eq!(kinds.len(), 13);
    let actions: Vec<&Action> = envs
        .iter()
        .filter_map(|e| match &e.msg {
            OfMessage::FlowMod(fm) => Some(&fm.actions),
            _ => None,
        })
        .flatten()
        .collect();
    assert!(actions.iter().any(|a| matches!(a, Action::Output(_))));
    assert!(actions.iter().any(|a| matches!(a, Action::SetTag(_))));
    assert!(actions.contains(&&Action::StripTag));
    assert!(actions.contains(&&Action::Drop));
    assert!(actions.contains(&&Action::ToController));
    for p in [PortNo(0), PortNo(0xfeff), PortNo::CONTROLLER, PortNo::LOCAL] {
        assert!(actions.contains(&&Action::Output(p)), "{p:?}");
    }
    let ports: Vec<u32> = envs
        .iter()
        .filter_map(|e| match e.msg {
            OfMessage::FeaturesReply { n_ports, .. } => Some(n_ports),
            _ => None,
        })
        .collect();
    assert!((0..=64).all(|n| ports.contains(&n)));
}

#[test]
fn encoded_bytes_are_pinned() {
    let mut h = Fnv::new();
    for f in frames() {
        h.bytes(&f);
    }
    check("encoded corpus", h.0, 0x31e1_1ab7_6836_88d9);
}

#[test]
fn decode_of_every_mutant_is_pinned() {
    let mut h = Fnv::new();
    let mut n = 0u64;
    for f in frames() {
        for m in mutants(&f) {
            h.text(&format!("{:?}", decode(&m)));
            n += 1;
        }
    }
    check("decode over mutants", h.0, 0x9e7c_a344_8caa_8ba6);
    assert!(n > 100_000, "{n} mutants");
}

#[test]
fn frame_codec_over_every_mutant_is_pinned() {
    let mut rng = DetRng::new(0xc4a1_a5ed);
    let mut codec = FrameCodec::new();
    let mut h = Fnv::new();
    for f in frames() {
        for m in mutants(&f) {
            let mut rest = &m[..];
            while !rest.is_empty() {
                let step = (1 + rng.index(96)).min(rest.len());
                codec.feed(&rest[..step]);
                rest = &rest[step..];
                loop {
                    let r = codec.next_frame();
                    h.text(&format!("{r:?}"));
                    if matches!(r, Ok(None)) {
                        break;
                    }
                }
            }
        }
    }
    h.text(&format!(
        "errors {} resyncs {}",
        codec.errors(),
        codec.resyncs()
    ));
    check("frame codec over mutants", h.0, 0xa96c_e8c8_7772_2052);
}

#[test]
fn unencodable_values_are_errors_that_append_nothing() {
    let fm = |matcher: FlowMatch, actions: Vec<Action>| {
        OfMessage::FlowMod(FlowMod {
            command: FlowModCommand::Add,
            priority: 1,
            matcher,
            actions,
            cookie: 0,
        })
    };
    let in_port = |p| FlowMatch {
        in_port: Some(PortNo(p)),
        ..FlowMatch::ANY
    };
    let out = |p| Action::Output(PortNo(p));
    // more actions than a frame holds, so length and port faults meet
    let many = MAX_FRAME_LEN / 8;
    let cases = [
        fm(in_port(0xff00), vec![]),
        fm(in_port(0x1_2345), vec![out(0xff00)]),
        fm(FlowMatch::ANY, vec![Action::Drop, out(0x1_0000)]),
        fm(FlowMatch::ANY, vec![out(1); many]),
        fm(
            FlowMatch::ANY,
            [vec![out(1); many], vec![out(u32::MAX)]].concat(),
        ),
        OfMessage::PacketIn {
            buffer_id: 0,
            in_port: PortNo(0xff00),
            data: vec![1],
        },
        OfMessage::PacketOut {
            buffer_id: 0,
            out_port: PortNo(0xffff),
            data: vec![],
        },
        OfMessage::FeaturesReply {
            dpid: DpId(1),
            n_ports: 256,
        },
        OfMessage::FeaturesReply {
            dpid: DpId(1),
            n_ports: u32::MAX,
        },
        OfMessage::EchoRequest(vec![7; MAX_FRAME_LEN - 7]),
        OfMessage::EchoReply(vec![7; 2 * MAX_FRAME_LEN]),
    ];
    let sentinel = [0xee; 37];
    let mut h = Fnv::new();
    for msg in cases {
        let mut buf = BytesMut::new();
        buf.extend_from_slice(&sentinel);
        let r = try_encode_into(&Envelope::new(Xid(9), msg), &mut buf);
        assert!(r.is_err(), "{r:?}");
        assert_eq!(&buf[..], &sentinel[..], "{r:?} appended bytes");
        h.text(&format!("{r:?}"));
    }
    check("unencodable values", h.0, 0x079e_3b15_d806_bfc8);
}
