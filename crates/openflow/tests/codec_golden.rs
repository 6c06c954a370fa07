//! Golden codec corpus: the same bytes and the same results.
//!
//! A seeded corpus of 400 envelopes covers the five `OfMessage`
//! variants: FlowMods with 0–8 actions of every `Action` kind under
//! every `FlowMatch` wildcard combination, ports 0, 0xfeff,
//! `CONTROLLER` and `LOCAL` beside random physical ones, echo payloads
//! of 0–64 bytes, and both barriers. Four FNV-1a digests pin the
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
//! The digests were recorded by running this file at commit `f4ce626`,
//! while the codec still spoke thirteen message types, so (a), (b) and
//! (d) pin that deleting the other eight left the five unchanged. (c)
//! was re-recorded after the deletion: 451 of its 78 573 `next_frame`
//! results moved, each a frame read as one of the deleted types (136
//! `Ok(ErrorMsg)`, 315 `Err(TrailingBytes)`) that is now
//! `Err(UnknownType)`. A change to the codec that is meant to keep
//! behaviour leaves all four alone.

use sdn_openflow::codec::{decode, encode, try_encode_into, BytesMut, MAX_FRAME_LEN};
use sdn_openflow::flow::{Action, FlowMatch};
use sdn_openflow::framing::FrameCodec;
use sdn_openflow::messages::{Envelope, FlowMod, FlowModCommand, OfMessage};
use sdn_types::{DetRng, HostId, PortNo, VersionTag, Xid};

/// Envelopes in the corpus: 80 of each of the 5 variants.
const CORPUS: u64 = 400;

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

/// Envelope `i`: variant `i % 5`, and the `k = i / 5`-th of its kind
/// walks the wildcard combinations and action counts.
fn envelope(rng: &mut DetRng, i: u64) -> Envelope {
    let k = i / 5;
    let msg = match i % 5 {
        0 => OfMessage::EchoRequest(payload(rng)),
        1 => OfMessage::EchoReply(payload(rng)),
        2 => OfMessage::FlowMod(FlowMod {
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
        3 => OfMessage::BarrierRequest,
        _ => OfMessage::BarrierReply,
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
    assert_eq!(kinds.len(), 5);
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
}

#[test]
fn encoded_bytes_are_pinned() {
    let mut h = Fnv::new();
    for f in frames() {
        h.bytes(&f);
    }
    check("encoded corpus", h.0, 0xf099_0ba7_b1b2_624d);
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
    check("decode over mutants", h.0, 0xbe11_8788_7ac1_412d);
    assert!(n > 33_000, "{n} mutants");
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
    check("frame codec over mutants", h.0, 0x6241_f92a_ae03_c9df);
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
    check("unencodable values", h.0, 0xf50f_aefa_7243_38b3);
}
