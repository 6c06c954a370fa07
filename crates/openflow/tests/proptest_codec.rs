//! Property-based tests: the OpenFlow 1.0 wire codec round-trips every
//! representable message (`wire-encode → decode ≡ id` per message
//! type), arbitrary byte soup never panics the decoder, and malformed
//! frames never poison the framer's connection.
//!
//! Strategies generate values from the OpenFlow 1.0 wire domain: ports
//! are 16-bit on the 1.0 wire (`OFPP_MAX` bounds physical ports), and a
//! match's ingress port may be one of the two pseudo-ports.

use proptest::prelude::*;

use sdn_openflow::codec::{decode, encode};
use sdn_openflow::flow::{Action, FlowMatch};
use sdn_openflow::framing::FrameCodec;
use sdn_openflow::messages::{Envelope, FlowMod, FlowModCommand, OfMessage};
use sdn_types::{HostId, PortNo, VersionTag, Xid};

/// Physical ports representable on the 1.0 wire (`< OFPP_MAX`), plus
/// the two pseudo-ports the model names.
fn arb_port() -> impl Strategy<Value = PortNo> {
    prop_oneof![
        (0u32..0xff00).prop_map(PortNo),
        (0u32..0xff00).prop_map(PortNo),
        Just(PortNo::CONTROLLER),
        Just(PortNo::LOCAL),
    ]
}

fn arb_action() -> impl Strategy<Value = Action> {
    // `Output(CONTROLLER)` canonicalizes to `ToController` on decode,
    // so Output sticks to physical ports here.
    prop_oneof![
        (0u32..0xff00).prop_map(|p| Action::Output(PortNo(p))),
        any::<u16>().prop_map(|t| Action::SetTag(VersionTag(t))),
        Just(Action::StripTag),
        Just(Action::Drop),
        Just(Action::ToController),
    ]
}

fn arb_match() -> impl Strategy<Value = FlowMatch> {
    (
        proptest::option::of(arb_port()),
        proptest::option::of(any::<u32>()),
        proptest::option::of(any::<u32>()),
        proptest::option::of(any::<u16>()),
    )
        .prop_map(|(p, s, d, t)| FlowMatch {
            in_port: p,
            src: s.map(HostId),
            dst: d.map(HostId),
            tag: t.map(VersionTag),
        })
}

fn arb_message() -> impl Strategy<Value = OfMessage> {
    prop_oneof![
        Just(OfMessage::BarrierRequest),
        Just(OfMessage::BarrierReply),
        proptest::collection::vec(any::<u8>(), 0..64).prop_map(OfMessage::EchoRequest),
        proptest::collection::vec(any::<u8>(), 0..64).prop_map(OfMessage::EchoReply),
        (
            prop_oneof![
                Just(FlowModCommand::Add),
                Just(FlowModCommand::Modify),
                Just(FlowModCommand::Delete)
            ],
            any::<u16>(),
            arb_match(),
            proptest::collection::vec(arb_action(), 0..8),
            any::<u64>(),
        )
            .prop_map(|(command, priority, matcher, actions, cookie)| {
                OfMessage::FlowMod(FlowMod {
                    command,
                    priority,
                    matcher,
                    actions,
                    cookie,
                })
            }),
    ]
}

proptest! {
    #[test]
    fn codec_roundtrips(xid in any::<u32>(), msg in arb_message()) {
        let env = Envelope::new(Xid(xid), msg);
        let bytes = encode(&env);
        let back = decode(&bytes).expect("well-formed frame decodes");
        prop_assert_eq!(back, env);
    }

    #[test]
    fn frames_carry_big_endian_ofp_headers(xid in any::<u32>(), msg in arb_message()) {
        let env = Envelope::new(Xid(xid), msg);
        let bytes = encode(&env);
        // version / length / xid exactly as ofp_header prescribes
        prop_assert_eq!(bytes[0], 0x01);
        let declared = u16::from_be_bytes([bytes[2], bytes[3]]) as usize;
        prop_assert_eq!(declared, bytes.len());
        let wire_xid = u32::from_be_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]);
        prop_assert_eq!(wire_xid, xid);
    }

    #[test]
    fn decoder_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = decode(&bytes); // must return, never panic
    }

    #[test]
    fn framer_never_panics_on_garbage(chunks in proptest::collection::vec(
        proptest::collection::vec(any::<u8>(), 0..64), 0..8)
    ) {
        let mut c = FrameCodec::new();
        for chunk in &chunks {
            c.feed(chunk);
            // may reject frames but must neither panic nor poison
            let _ = c.next_frame();
        }
    }

    #[test]
    fn framer_handles_arbitrary_chunking(
        msgs in proptest::collection::vec(arb_message(), 1..6),
        cuts in proptest::collection::vec(1usize..32, 0..12),
    ) {
        let envs: Vec<Envelope> = msgs
            .into_iter()
            .enumerate()
            .map(|(i, m)| Envelope::new(Xid(i as u32), m))
            .collect();
        let mut stream = Vec::new();
        for e in &envs {
            stream.extend_from_slice(&encode(e));
        }
        // split at arbitrary boundaries derived from `cuts`
        let mut c = FrameCodec::new();
        let mut got = Vec::new();
        let mut pos = 0usize;
        let mut cut_iter = cuts.into_iter().cycle();
        while pos < stream.len() {
            let step = cut_iter.next().unwrap_or(7).min(stream.len() - pos);
            c.feed(&stream[pos..pos + step]);
            pos += step;
            while let Some(env) = c.next_frame().expect("valid stream") {
                got.push(env);
            }
        }
        prop_assert_eq!(got, envs);
    }

    #[test]
    fn framer_survives_garbage_between_frames(
        msg in arb_message(),
        garbage in proptest::collection::vec(any::<u8>(), 1..32),
    ) {
        // garbage, then a healthy frame: the framer may report errors
        // for the garbage but must still deliver the healthy frame —
        // rejection never poisons the connection.
        let env = Envelope::new(Xid(7), msg);
        let mut c = FrameCodec::new();
        c.feed(&garbage);
        let bytes = encode(&env);
        // A garbage prefix may look like a header declaring up to
        // MAX_FRAME_LEN bytes, which the framer legitimately buffers
        // toward before it can reject and resync — so keep the traffic
        // flowing. On a live connection that is exactly what happens;
        // the guarantee is that the stream *recovers*, never that the
        // first frame after noise survives.
        let mut delivered = false;
        'traffic: for _ in 0..4096 {
            c.feed(&bytes);
            loop {
                match c.next_frame() {
                    Ok(Some(got)) if got == env => {
                        delivered = true;
                        break 'traffic;
                    }
                    Ok(None) => break,
                    Ok(Some(_)) | Err(_) => {}
                }
            }
        }
        prop_assert!(delivered, "stream never recovered after garbage");
    }
}
