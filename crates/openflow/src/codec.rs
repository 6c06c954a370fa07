//! Binary wire codec — real OpenFlow 1.0 framing.
//!
//! Every message is framed with the classic OpenFlow header:
//!
//! ```text
//! +---------+---------+------------------+------------------+
//! | version |  type   |      length      |       xid        |
//! |  u8     |  u8     |  u16 big-endian  |  u32 big-endian  |
//! +---------+---------+------------------+------------------+
//! |                 type-specific body ...                  |
//! ```
//!
//! `length` covers the whole frame including the 8-byte header, and the
//! bodies use the exact OpenFlow 1.0 struct layouts — a 40-byte
//! `ofp_match`, a 72-byte `ofp_flow_mod`, 8-byte-aligned action TLVs.
//! There is one representation, the message model in
//! [`crate::messages`]: encoding writes its fields straight into the
//! caller's buffer and decoding reads a frame straight back into it.
//! The private `wire` module holds the layouts, the model ↔ wire
//! mapping and the order in which errors are reported.
//!
//! The wire speaks five messages: FlowMod, BarrierRequest,
//! BarrierReply, EchoRequest and EchoReply. Decoding is strict: any
//! other type byte, bad versions, truncated bodies and trailing bytes
//! all yield a typed [`CodecError`] — corrupted frames injected by the
//! fault-injecting channel must never panic or be silently misparsed.

use bytes::Bytes;
/// The buffer [`try_encode_into`] appends to.
pub use bytes::BytesMut;
use std::fmt;

use crate::messages::Envelope;
use crate::wire;

/// Protocol version byte (OpenFlow 1.0 uses 0x01).
pub const OFP_VERSION: u8 = wire::OFP_VERSION;

/// Frame header length in bytes.
pub const HEADER_LEN: usize = wire::HEADER_LEN;

/// Upper bound on a frame (guards the framer against corrupted
/// lengths). Deliberately below `u16::MAX` so flipped high bits in the
/// length field are detectable.
pub const MAX_FRAME_LEN: usize = 16 * 1024;

/// Decoding errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Frame shorter than its declared body.
    Truncated {
        /// Bytes expected.
        expected: usize,
        /// Bytes available.
        got: usize,
    },
    /// Unsupported protocol version byte.
    BadVersion(u8),
    /// Unknown message type code.
    UnknownType(u8),
    /// Unknown FlowMod command code.
    UnknownCommand(u16),
    /// Unknown action type code.
    UnknownAction(u16),
    /// Action TLV with an invalid declared length.
    BadActionLength(usize),
    /// Vendor action from a vendor id we do not speak.
    UnknownVendor(u32),
    /// A 32-bit model port that does not fit the 16-bit 1.0 wire.
    PortOutOfRange(u32),
    /// Declared length smaller than the header or larger than
    /// [`MAX_FRAME_LEN`].
    BadLength(usize),
    /// Body bytes left over after parsing.
    TrailingBytes(usize),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated { expected, got } => {
                write!(f, "truncated frame: expected {expected} bytes, got {got}")
            }
            CodecError::BadVersion(v) => write!(f, "unsupported protocol version {v:#x}"),
            CodecError::UnknownType(t) => write!(f, "unknown message type {t}"),
            CodecError::UnknownCommand(c) => write!(f, "unknown flow-mod command {c}"),
            CodecError::UnknownAction(a) => write!(f, "unknown action type {a}"),
            CodecError::BadActionLength(l) => write!(f, "invalid action length {l}"),
            CodecError::UnknownVendor(v) => write!(f, "unknown vendor id {v:#x}"),
            CodecError::PortOutOfRange(p) => {
                write!(f, "port {p} not representable on the 1.0 wire")
            }
            CodecError::BadLength(l) => write!(f, "invalid frame length {l}"),
            CodecError::TrailingBytes(n) => write!(f, "{n} trailing bytes after body"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Encode an envelope into a self-contained OpenFlow 1.0 frame.
///
/// # Panics
///
/// Panics if the model value is not representable on the wire (a port
/// above `OFPP_MAX`, or a frame over [`MAX_FRAME_LEN`]). Every value
/// the stack produces is representable; use
/// [`try_encode_into`] when handling untrusted model values.
pub fn encode(env: &Envelope) -> Bytes {
    let mut buf = BytesMut::new();
    try_encode_into(env, &mut buf).expect("model value not representable in OpenFlow 1.0");
    buf.freeze()
}

/// Append an envelope's frame to `out`, reserving its length once —
/// allocation-free for callers that reuse one buffer across messages.
/// A value the wire cannot carry is reported before a frame over
/// [`MAX_FRAME_LEN`]; on error nothing has been appended.
pub fn try_encode_into(env: &Envelope, out: &mut BytesMut) -> Result<(), CodecError> {
    let start = out.len();
    // on error, keep only what preceded the partial frame
    wire::put_frame(env, out).inspect_err(|_| *out = out.split_to(start))
}

/// Decode one complete frame (header + body, exactly).
pub fn decode(frame: &[u8]) -> Result<Envelope, CodecError> {
    wire::parse_frame(frame)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::{Action, FlowMatch};
    use crate::messages::{FlowMod, FlowModCommand, OfMessage};
    use sdn_types::{HostId, PortNo, VersionTag, Xid};

    fn roundtrip(env: Envelope) {
        let bytes = encode(&env);
        let back = decode(&bytes).expect("decodes");
        assert_eq!(back, env);
    }

    #[test]
    fn roundtrip_simple_messages() {
        for msg in [OfMessage::BarrierRequest, OfMessage::BarrierReply] {
            roundtrip(Envelope::new(Xid(42), msg));
        }
    }

    #[test]
    fn roundtrip_payload_messages() {
        roundtrip(Envelope::new(Xid(1), OfMessage::EchoRequest(vec![1, 2, 3])));
        roundtrip(Envelope::new(Xid(2), OfMessage::EchoReply(vec![])));
    }

    #[test]
    fn roundtrip_flow_mod_full() {
        roundtrip(Envelope::new(
            Xid(9),
            OfMessage::FlowMod(FlowMod {
                command: FlowModCommand::Add,
                priority: 100,
                matcher: FlowMatch {
                    in_port: Some(PortNo(2)),
                    src: Some(HostId(1)),
                    dst: Some(HostId(2)),
                    tag: Some(VersionTag::NEW),
                },
                actions: vec![
                    Action::SetTag(VersionTag::NEW),
                    Action::Output(PortNo(3)),
                    Action::StripTag,
                    Action::Drop,
                    Action::ToController,
                ],
                cookie: 0xdead_beef,
            }),
        ));
    }

    #[test]
    fn roundtrip_flow_mod_wildcards() {
        for command in [
            FlowModCommand::Add,
            FlowModCommand::Modify,
            FlowModCommand::Delete,
        ] {
            roundtrip(Envelope::new(
                Xid(10),
                OfMessage::FlowMod(FlowMod {
                    command,
                    priority: 0,
                    matcher: FlowMatch::ANY,
                    actions: vec![],
                    cookie: 0,
                }),
            ));
        }
    }

    #[test]
    fn rejects_bad_version() {
        let mut bytes = encode(&Envelope::new(Xid(1), OfMessage::BarrierRequest)).to_vec();
        bytes[0] = 0x04;
        assert_eq!(decode(&bytes), Err(CodecError::BadVersion(0x04)));
    }

    #[test]
    fn rejects_unknown_type() {
        let mut bytes = encode(&Envelope::new(Xid(1), OfMessage::BarrierRequest)).to_vec();
        bytes[1] = 250;
        assert_eq!(decode(&bytes), Err(CodecError::UnknownType(250)));
    }

    #[test]
    fn rejects_truncated_body() {
        let bytes = encode(&Envelope::new(
            Xid(1),
            OfMessage::FlowMod(FlowMod {
                command: FlowModCommand::Add,
                priority: 1,
                matcher: FlowMatch::ANY,
                actions: vec![Action::Output(PortNo(2))],
                cookie: 0,
            }),
        ));
        let cut = &bytes[..bytes.len() - 3];
        assert!(matches!(decode(cut), Err(CodecError::Truncated { .. })));
    }

    #[test]
    fn rejects_length_mismatch() {
        let mut bytes = encode(&Envelope::new(Xid(1), OfMessage::BarrierRequest)).to_vec();
        bytes.push(0); // actual frame longer than declared
        assert!(matches!(decode(&bytes), Err(CodecError::Truncated { .. })));
    }

    #[test]
    fn rejects_bad_declared_length() {
        let mut bytes = encode(&Envelope::new(Xid(1), OfMessage::BarrierRequest)).to_vec();
        bytes[2] = 0;
        bytes[3] = 3; // declared length 3 < header
        assert_eq!(decode(&bytes), Err(CodecError::BadLength(3)));
    }

    #[test]
    fn rejects_unknown_action() {
        let env = Envelope::new(
            Xid(2),
            OfMessage::FlowMod(FlowMod {
                command: FlowModCommand::Add,
                priority: 1,
                matcher: FlowMatch::ANY,
                actions: vec![Action::StripTag],
                cookie: 0,
            }),
        );
        let mut bytes = encode(&env).to_vec();
        // the action TLV starts 64 bytes into the flow_mod body; flip
        // its type field (u16 at offset 72) to an unknown code
        bytes[72] = 0x00;
        bytes[73] = 99;
        assert_eq!(decode(&bytes), Err(CodecError::UnknownAction(99)));
    }

    #[test]
    fn rejects_unknown_flowmod_command() {
        let env = Envelope::new(
            Xid(2),
            OfMessage::FlowMod(FlowMod {
                command: FlowModCommand::Add,
                priority: 1,
                matcher: FlowMatch::ANY,
                actions: vec![],
                cookie: 0,
            }),
        );
        let mut bytes = encode(&env).to_vec();
        // command is the u16 right after match(40)+cookie(8):
        // offset 8 + 40 + 8 = 56
        bytes[56] = 0;
        bytes[57] = 77;
        assert_eq!(decode(&bytes), Err(CodecError::UnknownCommand(77)));
    }

    #[test]
    fn try_encode_surfaces_unrepresentable_values() {
        let env = Envelope::new(
            Xid(1),
            OfMessage::FlowMod(FlowMod {
                command: FlowModCommand::Add,
                priority: 1,
                matcher: FlowMatch::ANY,
                actions: vec![Action::Output(PortNo(0x1_0000))],
                cookie: 0,
            }),
        );
        let mut buf = BytesMut::new();
        buf.extend_from_slice(b"kept");
        assert_eq!(
            try_encode_into(&env, &mut buf),
            Err(CodecError::PortOutOfRange(0x10000))
        );
        assert_eq!(&buf[..], b"kept", "a failed encode appends nothing");
    }

    #[test]
    fn pseudo_ports_roundtrip() {
        roundtrip(Envelope::new(
            Xid(4),
            OfMessage::FlowMod(FlowMod {
                command: FlowModCommand::Add,
                priority: 1,
                matcher: FlowMatch {
                    in_port: Some(PortNo::CONTROLLER),
                    ..FlowMatch::ANY
                },
                actions: vec![Action::Output(PortNo::LOCAL)],
                cookie: 0,
            }),
        ));
    }

    #[test]
    fn error_display_strings() {
        assert!(CodecError::BadVersion(4).to_string().contains("0x4"));
        assert!(CodecError::TrailingBytes(3).to_string().contains("3"));
        assert!(CodecError::PortOutOfRange(70000)
            .to_string()
            .contains("70000"));
    }
}
