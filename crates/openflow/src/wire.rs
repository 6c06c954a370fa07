//! Exact OpenFlow 1.0 wire layouts, written from and read into the
//! message model directly.
//!
//! [`put_frame`] appends an [`Envelope`]'s frame to the caller's buffer
//! field by field, the way `rust_ofp`'s `OfpHeader::marshal` writes into
//! the caller's `Vec`; [`parse_frame`] reads one frame back into an
//! [`Envelope`] through the bounds-checked [`Reader`]. The layouts and
//! the mapping below are the whole contract.
//!
//! All integers are big-endian (network order), lengths include the
//! 8-byte header, and the layouts mirror `ofp_header.rs` /
//! `openflow0x01.rs` of the reference Rust implementation:
//!
//! ```text
//! ofp_header (8):    version u8 | type u8 | length u16 | xid u32
//! ofp_match (40):    wildcards u32 | in_port u16 | dl_src [6] |
//!                    dl_dst [6] | dl_vlan u16 | dl_vlan_pcp u8 |
//!                    pad u8 | dl_type u16 | nw_tos u8 | nw_proto u8 |
//!                    pad [2] | nw_src u32 | nw_dst u32 | tp_src u16 |
//!                    tp_dst u16
//! ofp_flow_mod (72): header | match | cookie u64 | command u16 |
//!                    idle_timeout u16 | hard_timeout u16 |
//!                    priority u16 | buffer_id u32 | out_port u16 |
//!                    flags u16 | actions ...
//! ofp_action (8n):   type u16 | len u16 | body (8-byte aligned)
//! ```
//!
//! ## Model ↔ wire mapping
//!
//! The internal model is a semantic subset; the codec pins down how its
//! fields ride on real OpenFlow 1.0:
//!
//! * `FlowMatch.in_port` → `ofp_match.in_port` (wildcard bit
//!   `OFPFW_IN_PORT` when absent);
//! * `FlowMatch.src`/`dst` (host ids) → `nw_src`/`nw_dst` with the
//!   corresponding CIDR wildcard bits;
//! * `FlowMatch.tag` (version tag) → `dl_vlan` with `OFPFW_DL_VLAN`;
//! * `Action::Output(p)` → `OFPAT_OUTPUT{port: p}`;
//!   `Action::ToController` → `OFPAT_OUTPUT{port: OFPP_CONTROLLER}`;
//! * `Action::SetTag` → `OFPAT_SET_VLAN_VID`; `Action::StripTag` →
//!   `OFPAT_STRIP_VLAN`;
//! * `Action::Drop` → a vendor action (`OFPAT_VENDOR`, vendor id
//!   [`VENDOR_ID`], subtype 0). Real OpenFlow 1.0 expresses "drop" as
//!   an empty action list; the explicit marker keeps model round-trips
//!   lossless when `Drop` appears alongside other actions.
//! * `FlowModCommand::{Add, Modify, Delete}` →
//!   `OFPFC_{ADD, MODIFY, DELETE_STRICT}` (the model's delete is
//!   exact-match + priority, i.e. strict);
//! * `BarrierRequest`/`BarrierReply` are header-only frames and
//!   `EchoRequest`/`EchoReply` carry their payload as the body.
//!
//! Those five are the whole wire: a frame of any other `ofp_type`
//! (hello, features, packet-in/out, error, stats, vendor, …) is
//! [`CodecError::UnknownType`].
//!
//! Ports are `u16` on the 1.0 wire while the model uses 32-bit
//! [`PortNo`]; physical ports below [`OFPP_MAX`] pass through, the
//! `CONTROLLER`/`LOCAL` pseudo-ports map onto their 16-bit codes, and
//! anything else is [`CodecError::PortOutOfRange`] (never a panic).
//!
//! ## Which error wins
//!
//! Encoding reports a value the wire cannot carry (`PortOutOfRange`)
//! before a frame over `MAX_FRAME_LEN` (`BadLength`). Decoding reports
//! parse errors first, in byte order; then a FlowMod's
//! `UnknownCommand`, then its first foreign `UnknownVendor`.

use bytes::{BufMut, BytesMut};

use sdn_types::{HostId, PortNo, VersionTag, Xid};

use crate::codec::{CodecError, MAX_FRAME_LEN};
use crate::flow::{Action, FlowMatch};
use crate::messages::{Envelope, FlowMod, FlowModCommand, OfMessage};

/// Protocol version byte of OpenFlow 1.0.
pub const OFP_VERSION: u8 = 0x01;

/// `ofp_header` size in bytes.
pub const HEADER_LEN: usize = 8;

/// `ofp_match` size in bytes.
const MATCH_LEN: usize = 40;

/// Maximum valid physical port number (`OFPP_MAX`).
const OFPP_MAX: u16 = 0xff00;
/// The `OFPP_CONTROLLER` pseudo-port.
const OFPP_CONTROLLER: u16 = 0xfffd;
/// The `OFPP_LOCAL` pseudo-port.
const OFPP_LOCAL: u16 = 0xfffe;
/// The `OFPP_NONE` pseudo-port.
const OFPP_NONE: u16 = 0xffff;

/// Vendor id used for the drop-marker vendor action.
const VENDOR_ID: u32 = 0x5eed_0f10;

/// `ofp_type` codes (OpenFlow 1.0 numbering, `OFPT_*`).
mod type_code {
    pub const ECHO_REQUEST: u8 = 2;
    pub const ECHO_REPLY: u8 = 3;
    pub const FLOW_MOD: u8 = 14;
    pub const BARRIER_REQUEST: u8 = 18;
    pub const BARRIER_REPLY: u8 = 19;
}

/// The `ofp_flow_wildcards` bits the model uses (`OFPFW_*`).
mod wildcards {
    /// Wildcard the ingress port.
    pub const IN_PORT: u32 = 1 << 0;
    /// Wildcard the VLAN id.
    pub const DL_VLAN: u32 = 1 << 1;
    /// Bit offset of the nw_src CIDR wildcard count.
    pub const NW_SRC_SHIFT: u32 = 8;
    /// Mask of the nw_src CIDR field.
    pub const NW_SRC_MASK: u32 = 0x3f << NW_SRC_SHIFT;
    /// Bit offset of the nw_dst CIDR wildcard count.
    pub const NW_DST_SHIFT: u32 = 14;
    /// Mask of the nw_dst CIDR field.
    pub const NW_DST_MASK: u32 = 0x3f << NW_DST_SHIFT;
    /// Everything wildcarded: all 22 bits.
    pub const ALL: u32 = (1 << 22) - 1;
}

/// `ofp_flow_mod_command` codes (`OFPFC_*`).
mod fm_command {
    pub const ADD: u16 = 0;
    pub const MODIFY: u16 = 1;
    pub const MODIFY_STRICT: u16 = 2;
    pub const DELETE: u16 = 3;
    pub const DELETE_STRICT: u16 = 4;
}

/// `ofp_action_type` codes (`OFPAT_*`).
mod action_type {
    pub const OUTPUT: u16 = 0;
    pub const SET_VLAN_VID: u16 = 1;
    pub const STRIP_VLAN: u16 = 3;
    pub const VENDOR: u16 = 0xffff;
}

/// Cursor over a body slice; every read is bounds-checked and yields a
/// typed [`CodecError`] on underflow.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The next `n` bytes; `Truncated` reports this read's end.
    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let end = self.pos + n;
        if end > self.buf.len() {
            return Err(CodecError::Truncated {
                expected: end,
                got: self.buf.len(),
            });
        }
        let bytes = &self.buf[self.pos..end];
        self.pos = end;
        Ok(bytes)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        Ok(self.take(N)?.try_into().expect("take yields N bytes"))
    }

    fn u16(&mut self) -> Result<u16, CodecError> {
        self.array().map(u16::from_be_bytes)
    }

    fn u32(&mut self) -> Result<u32, CodecError> {
        self.array().map(u32::from_be_bytes)
    }

    fn u64(&mut self) -> Result<u64, CodecError> {
        self.array().map(u64::from_be_bytes)
    }

    /// Skip fields of these sizes, one read each, so a truncation is
    /// reported at the field it cuts.
    fn skip(&mut self, fields: &[usize]) -> Result<(), CodecError> {
        fields.iter().try_for_each(|&n| self.take(n).map(drop))
    }

    fn rest(&mut self) -> &'a [u8] {
        let bytes = &self.buf[self.pos..];
        self.pos = self.buf.len();
        bytes
    }

    fn finish(&self) -> Result<(), CodecError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(CodecError::TrailingBytes(n)),
        }
    }
}

fn port_to_wire(p: PortNo) -> Result<u16, CodecError> {
    match p {
        PortNo::CONTROLLER => Ok(OFPP_CONTROLLER),
        PortNo::LOCAL => Ok(OFPP_LOCAL),
        PortNo(n) if n < OFPP_MAX as u32 => Ok(n as u16),
        PortNo(n) => Err(CodecError::PortOutOfRange(n)),
    }
}

fn port_from_wire(p: u16) -> PortNo {
    match p {
        OFPP_CONTROLLER => PortNo::CONTROLLER,
        OFPP_LOCAL => PortNo::LOCAL,
        n => PortNo(n as u32),
    }
}

fn action_len(a: &Action) -> usize {
    match a {
        Action::Drop => 16,
        _ => 8,
    }
}

/// Length of `msg`'s frame, header included, when it is representable.
fn frame_len(msg: &OfMessage) -> usize {
    HEADER_LEN
        + match msg {
            OfMessage::FlowMod(fm) => {
                MATCH_LEN + 24 + fm.actions.iter().map(action_len).sum::<usize>()
            }
            OfMessage::BarrierRequest | OfMessage::BarrierReply => 0,
            OfMessage::EchoRequest(p) | OfMessage::EchoReply(p) => p.len(),
        }
}

fn type_code(msg: &OfMessage) -> u8 {
    match msg {
        OfMessage::FlowMod(_) => type_code::FLOW_MOD,
        OfMessage::BarrierRequest => type_code::BARRIER_REQUEST,
        OfMessage::BarrierReply => type_code::BARRIER_REPLY,
        OfMessage::EchoRequest(_) => type_code::ECHO_REQUEST,
        OfMessage::EchoReply(_) => type_code::ECHO_REPLY,
    }
}

/// Append `env`'s frame to `out`, reserving its length once. On error
/// `out` may end in a partial frame; the caller cuts it off.
pub fn put_frame(env: &Envelope, out: &mut BytesMut) -> Result<(), CodecError> {
    let len = frame_len(&env.msg);
    if len <= MAX_FRAME_LEN {
        out.reserve(len);
    }
    let start = out.len();
    out.put_u8(OFP_VERSION);
    out.put_u8(type_code(&env.msg));
    out.put_u16(len as u16);
    out.put_u32(env.xid.0);
    put_body(&env.msg, out)?;
    debug_assert_eq!(
        out.len() - start,
        len,
        "frame_len must match the bytes written"
    );
    if len > MAX_FRAME_LEN {
        return Err(CodecError::BadLength(len));
    }
    Ok(())
}

fn put_body(msg: &OfMessage, out: &mut BytesMut) -> Result<(), CodecError> {
    match msg {
        OfMessage::FlowMod(fm) => {
            put_match(&fm.matcher, out)?;
            out.put_u64(fm.cookie);
            out.put_u16(match fm.command {
                FlowModCommand::Add => fm_command::ADD,
                FlowModCommand::Modify => fm_command::MODIFY,
                FlowModCommand::Delete => fm_command::DELETE_STRICT,
            });
            out.put_u32(0); // idle_timeout, hard_timeout: permanent
            out.put_u16(fm.priority);
            out.put_u32(u32::MAX); // buffer_id: none
            out.put_u16(OFPP_NONE); // out_port: any
            out.put_u16(0); // flags
            for a in &fm.actions {
                put_action(a, out)?;
            }
        }
        OfMessage::BarrierRequest | OfMessage::BarrierReply => {}
        OfMessage::EchoRequest(p) | OfMessage::EchoReply(p) => out.put_slice(p),
    }
    Ok(())
}

fn put_match(m: &FlowMatch, out: &mut BytesMut) -> Result<(), CodecError> {
    let mut wc = wildcards::ALL;
    for (present, bits) in [
        (m.in_port.is_some(), wildcards::IN_PORT),
        (m.src.is_some(), wildcards::NW_SRC_MASK),
        (m.dst.is_some(), wildcards::NW_DST_MASK),
        (m.tag.is_some(), wildcards::DL_VLAN),
    ] {
        if present {
            wc &= !bits;
        }
    }
    out.put_u32(wc);
    out.put_u16(m.in_port.map_or(Ok(0), port_to_wire)?);
    out.put_slice(&[0; 12]); // dl_src, dl_dst
    out.put_u16(m.tag.map_or(0, |t| t.0)); // dl_vlan
    out.put_slice(&[0; 8]); // dl_vlan_pcp, pad, dl_type, nw_tos, nw_proto, pad
    out.put_u32(m.src.map_or(0, |h| h.0));
    out.put_u32(m.dst.map_or(0, |h| h.0));
    out.put_u32(0); // tp_src, tp_dst
    Ok(())
}

fn put_action(a: &Action, out: &mut BytesMut) -> Result<(), CodecError> {
    out.put_u16(match a {
        Action::Output(_) | Action::ToController => action_type::OUTPUT,
        Action::SetTag(_) => action_type::SET_VLAN_VID,
        Action::StripTag => action_type::STRIP_VLAN,
        Action::Drop => action_type::VENDOR,
    });
    out.put_u16(action_len(a) as u16);
    match *a {
        Action::Output(p) => {
            out.put_u16(port_to_wire(p)?);
            out.put_u16(0); // max_len
        }
        Action::ToController => {
            out.put_u16(OFPP_CONTROLLER);
            out.put_u16(0xffff); // max_len: the whole packet
        }
        Action::SetTag(t) => {
            out.put_u16(t.0);
            out.put_u16(0); // pad
        }
        Action::StripTag => out.put_u32(0), // pad
        Action::Drop => {
            out.put_u32(VENDOR_ID);
            out.put_u32(0); // subtype
            out.put_u32(0); // pad
        }
    }
    Ok(())
}

/// Parse exactly one frame, header and body.
pub fn parse_frame(frame: &[u8]) -> Result<Envelope, CodecError> {
    if frame.len() < HEADER_LEN {
        return Err(CodecError::Truncated {
            expected: HEADER_LEN,
            got: frame.len(),
        });
    }
    if frame[0] != OFP_VERSION {
        return Err(CodecError::BadVersion(frame[0]));
    }
    let declared = u16::from_be_bytes([frame[2], frame[3]]) as usize;
    if !(HEADER_LEN..=MAX_FRAME_LEN).contains(&declared) {
        return Err(CodecError::BadLength(declared));
    }
    if declared != frame.len() {
        return Err(CodecError::Truncated {
            expected: declared,
            got: frame.len(),
        });
    }
    let xid = Xid(u32::from_be_bytes([frame[4], frame[5], frame[6], frame[7]]));
    let mut r = Reader::new(&frame[HEADER_LEN..]);
    let msg = match frame[1] {
        type_code::FLOW_MOD => OfMessage::FlowMod(flow_mod(&mut r)?),
        type_code::BARRIER_REQUEST => OfMessage::BarrierRequest,
        type_code::BARRIER_REPLY => OfMessage::BarrierReply,
        type_code::ECHO_REQUEST => OfMessage::EchoRequest(r.rest().to_vec()),
        type_code::ECHO_REPLY => OfMessage::EchoReply(r.rest().to_vec()),
        t => return Err(CodecError::UnknownType(t)),
    };
    r.finish()?;
    Ok(Envelope::new(xid, msg))
}

fn flow_match(r: &mut Reader<'_>) -> Result<FlowMatch, CodecError> {
    let wc = r.u32()?;
    let in_port = r.u16()?;
    r.skip(&[6, 6])?; // dl_src, dl_dst
    let dl_vlan = r.u16()?;
    // dl_vlan_pcp, pad, dl_type, nw_tos, nw_proto, pad
    r.skip(&[1, 1, 2, 1, 1, 2])?;
    let nw_src = r.u32()?;
    let nw_dst = r.u32()?;
    r.skip(&[2, 2])?; // tp_src, tp_dst
    let cidr = |mask, shift| (wc & mask) >> shift < 32;
    Ok(FlowMatch {
        in_port: (wc & wildcards::IN_PORT == 0).then(|| port_from_wire(in_port)),
        src: cidr(wildcards::NW_SRC_MASK, wildcards::NW_SRC_SHIFT).then_some(HostId(nw_src)),
        dst: cidr(wildcards::NW_DST_MASK, wildcards::NW_DST_SHIFT).then_some(HostId(nw_dst)),
        tag: (wc & wildcards::DL_VLAN == 0).then_some(VersionTag(dl_vlan)),
    })
}

/// A FlowMod body. Every action is parsed before the command code and
/// foreign vendors are judged, so a later parse error wins over both.
fn flow_mod(r: &mut Reader<'_>) -> Result<FlowMod, CodecError> {
    let matcher = flow_match(r)?;
    let cookie = r.u64()?;
    let command = r.u16()?;
    r.skip(&[2, 2])?; // idle_timeout, hard_timeout
    let priority = r.u16()?;
    r.skip(&[4, 2, 2])?; // buffer_id, out_port, flags
                         // every action TLV is at least 8 bytes: one allocation at most
    let mut actions = Vec::with_capacity(r.remaining() / 8);
    let mut foreign = None;
    while r.remaining() > 0 {
        match action(r) {
            Ok(a) => actions.push(a),
            Err(CodecError::UnknownVendor(v)) => {
                foreign.get_or_insert(v);
            }
            Err(e) => return Err(e),
        }
    }
    let command = match command {
        fm_command::ADD => FlowModCommand::Add,
        fm_command::MODIFY | fm_command::MODIFY_STRICT => FlowModCommand::Modify,
        fm_command::DELETE | fm_command::DELETE_STRICT => FlowModCommand::Delete,
        c => return Err(CodecError::UnknownCommand(c)),
    };
    if let Some(v) = foreign {
        return Err(CodecError::UnknownVendor(v));
    }
    Ok(FlowMod {
        command,
        priority,
        matcher,
        actions,
        cookie,
    })
}

/// One action TLV. A vendor action this codec does not speak is
/// consumed whole and reported as `UnknownVendor`, so the caller can
/// read on.
fn action(r: &mut Reader<'_>) -> Result<Action, CodecError> {
    let typ = r.u16()?;
    let len = r.u16()? as usize;
    let exact = |want: usize| match len == want {
        true => Ok(()),
        false => Err(CodecError::BadActionLength(len)),
    };
    if len < 8 || !len.is_multiple_of(8) {
        return Err(CodecError::BadActionLength(len));
    }
    match typ {
        action_type::OUTPUT => {
            exact(8)?;
            let port = r.u16()?;
            r.skip(&[2])?; // max_len
            Ok(match port {
                OFPP_CONTROLLER => Action::ToController,
                p => Action::Output(port_from_wire(p)),
            })
        }
        action_type::SET_VLAN_VID => {
            exact(8)?;
            let vid = r.u16()?;
            r.skip(&[2])?; // pad
            Ok(Action::SetTag(VersionTag(vid)))
        }
        action_type::STRIP_VLAN => {
            exact(8)?;
            r.skip(&[4])?; // pad
            Ok(Action::StripTag)
        }
        action_type::VENDOR => {
            exact(16)?;
            let vendor = r.u32()?;
            let subtype = r.u32()?;
            r.skip(&[4])?; // pad
            match (vendor, subtype) {
                (VENDOR_ID, 0) => Ok(Action::Drop),
                _ => Err(CodecError::UnknownVendor(vendor)),
            }
        }
        t => Err(CodecError::UnknownAction(t)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{decode, encode, try_encode_into};

    /// Offset of the first action TLV in a FlowMod frame.
    const ACTIONS_AT: usize = HEADER_LEN + MATCH_LEN + 24;

    fn flow_mod_env(matcher: FlowMatch, actions: Vec<Action>) -> Envelope {
        Envelope::new(
            Xid(1),
            OfMessage::FlowMod(FlowMod {
                command: FlowModCommand::Add,
                priority: 1,
                matcher,
                actions,
                cookie: 0,
            }),
        )
    }

    fn decoded_flow_mod(bytes: &[u8]) -> FlowMod {
        match decode(bytes).map(|e| e.msg) {
            Ok(OfMessage::FlowMod(fm)) => fm,
            other => panic!("not a FlowMod: {other:?}"),
        }
    }

    /// Fixed vectors mirroring rust_ofp's `ofp_header` marshaling:
    /// version 0x01, type, big-endian length and xid.
    #[test]
    fn header_only_vectors() {
        let cases = [
            (OfMessage::BarrierRequest, 0x12u8),
            (OfMessage::BarrierReply, 0x13),
        ];
        for (msg, code) in cases {
            let bytes = encode(&Envelope::new(Xid(0x0102_0304), msg));
            assert_eq!(
                &bytes[..],
                &[0x01, code, 0x00, 0x08, 0x01, 0x02, 0x03, 0x04],
                "type {code:#x}"
            );
        }
    }

    #[test]
    fn echo_vectors() {
        let bytes = encode(&Envelope::new(
            Xid(7),
            OfMessage::EchoRequest(vec![0xaa, 0xbb]),
        ));
        assert_eq!(
            &bytes[..],
            &[0x01, 0x02, 0x00, 0x0a, 0x00, 0x00, 0x00, 0x07, 0xaa, 0xbb]
        );
        let bytes = encode(&Envelope::new(Xid(7), OfMessage::EchoReply(vec![0xcc])));
        assert_eq!(
            &bytes[..],
            &[0x01, 0x03, 0x00, 0x09, 0x00, 0x00, 0x00, 0x07, 0xcc]
        );
    }

    /// The wire's surface: of the 256 type bytes on a header-only
    /// frame, the two barriers and the two echoes decode, a FlowMod
    /// runs out of body, and every other type is unknown.
    #[test]
    fn only_five_type_bytes_are_spoken() {
        for t in 0..=u8::MAX {
            let frame = [OFP_VERSION, t, 0, 8, 0, 0, 0, 1];
            let got = decode(&frame).map(|e| e.msg);
            match t {
                2 => assert_eq!(got, Ok(OfMessage::EchoRequest(vec![]))),
                3 => assert_eq!(got, Ok(OfMessage::EchoReply(vec![]))),
                18 => assert_eq!(got, Ok(OfMessage::BarrierRequest)),
                19 => assert_eq!(got, Ok(OfMessage::BarrierReply)),
                14 => assert!(matches!(got, Err(CodecError::Truncated { .. })), "{got:?}"),
                _ => assert_eq!(got, Err(CodecError::UnknownType(t))),
            }
        }
    }

    #[test]
    fn flow_mod_vector_is_72_bytes_with_exact_layout() {
        // FlowMod{Add, prio 100, dst=h2 + tag v1, [Output(3)], cookie 7}
        let env = Envelope::new(
            Xid(0x10),
            OfMessage::FlowMod(FlowMod {
                command: FlowModCommand::Add,
                priority: 100,
                matcher: FlowMatch::dst_host_tagged(HostId(2), VersionTag::NEW),
                actions: vec![Action::Output(PortNo(3))],
                cookie: 7,
            }),
        );
        let bytes = encode(&env);
        assert_eq!(bytes.len(), 80, "72-byte flow_mod + one 8-byte action");
        // header
        assert_eq!(&bytes[..8], &[0x01, 0x0e, 0x00, 0x50, 0, 0, 0, 0x10]);
        // wildcards: ALL (0x3fffff) minus DL_VLAN (bit 1) minus the
        // nw_dst CIDR field (bits 14-19) => 0x00303ffd
        assert_eq!(&bytes[8..12], &[0x00, 0x30, 0x3f, 0xfd]);
        // dl_vlan at offset 8 (header) + 4 (wildcards) + 2 (in_port)
        // + 12 (dl_src/dl_dst) = 26
        assert_eq!(&bytes[26..28], &[0x00, 0x01]);
        // nw_dst at 8 + 4+2+12+2+1+1+2+1+1+2+4 = 40
        assert_eq!(&bytes[40..44], &[0x00, 0x00, 0x00, 0x02]);
        // cookie at 48, command at 56, priority at 62
        assert_eq!(&bytes[48..56], &[0, 0, 0, 0, 0, 0, 0, 7]);
        assert_eq!(&bytes[56..58], &[0x00, 0x00]); // OFPFC_ADD
        assert_eq!(&bytes[62..64], &[0x00, 0x64]); // priority 100
        assert_eq!(&bytes[64..68], &[0xff, 0xff, 0xff, 0xff]); // buffer_id
        assert_eq!(&bytes[68..70], &[0xff, 0xff]); // out_port NONE
        assert_eq!(&bytes[70..72], &[0x00, 0x00]); // flags
        assert_eq!(&bytes[72..80], &[0, 0, 0, 8, 0, 3, 0, 0]); // OFPAT_OUTPUT{port 3}
    }

    #[test]
    fn action_tlvs_are_eight_byte_aligned() {
        for a in [
            Action::Output(PortNo(1)),
            Action::SetTag(VersionTag::NEW),
            Action::StripTag,
            Action::Drop,
            Action::ToController,
        ] {
            let bytes = encode(&flow_mod_env(FlowMatch::ANY, vec![a]));
            let tlv = &bytes[ACTIONS_AT..];
            assert_eq!(tlv.len() % 8, 0, "{a:?}");
            let declared = u16::from_be_bytes([tlv[2], tlv[3]]) as usize;
            assert_eq!(declared, tlv.len(), "{a:?}");
        }
    }

    #[test]
    fn to_controller_maps_to_controller_pseudo_port() {
        let bytes = encode(&flow_mod_env(FlowMatch::ANY, vec![Action::ToController]));
        // OFPAT_OUTPUT, len 8, port OFPP_CONTROLLER, max_len 0xffff
        assert_eq!(&bytes[ACTIONS_AT..], &[0, 0, 0, 8, 0xff, 0xfd, 0xff, 0xff]);
        assert_eq!(decoded_flow_mod(&bytes).actions, vec![Action::ToController]);
    }

    #[test]
    fn oversized_ports_are_errors_not_panics() {
        let bad = FlowMatch {
            in_port: Some(PortNo(0x12345)),
            ..FlowMatch::ANY
        };
        let mut buf = BytesMut::new();
        assert_eq!(
            try_encode_into(&flow_mod_env(bad, vec![]), &mut buf),
            Err(CodecError::PortOutOfRange(0x12345))
        );
        assert!(buf.is_empty(), "a failed encode appends nothing");
    }

    #[test]
    fn foreign_vendor_action_is_rejected() {
        let mut bytes = encode(&flow_mod_env(FlowMatch::ANY, vec![Action::Drop])).to_vec();
        // OFPAT_VENDOR, len 16, then the vendor id
        let vendor = ACTIONS_AT + 4;
        assert_eq!(&bytes[ACTIONS_AT..vendor], &[0xff, 0xff, 0x00, 0x10]);
        assert_eq!(&bytes[vendor..vendor + 4], &VENDOR_ID.to_be_bytes());
        bytes[vendor..vendor + 4].copy_from_slice(&0xdead_beef_u32.to_be_bytes());
        assert_eq!(decode(&bytes), Err(CodecError::UnknownVendor(0xdead_beef)));
    }

    #[test]
    fn match_roundtrips_through_wire_layout() {
        let cases = [
            FlowMatch::ANY,
            FlowMatch::dst_host(HostId(9)),
            FlowMatch::dst_host_tagged(HostId(2), VersionTag(0x0fff)),
            FlowMatch {
                in_port: Some(PortNo(48)),
                src: Some(HostId(1)),
                dst: Some(HostId(2)),
                tag: Some(VersionTag::OLD),
            },
        ];
        let be16 = |b: &[u8], at: usize| u16::from_be_bytes([b[at], b[at + 1]]);
        let be32 =
            |b: &[u8], at: usize| u32::from_be_bytes([b[at], b[at + 1], b[at + 2], b[at + 3]]);
        for m in cases {
            let bytes = encode(&flow_mod_env(m, vec![]));
            assert_eq!(bytes.len(), ACTIONS_AT, "a {MATCH_LEN}-byte ofp_match");
            let wc = be32(&bytes, 8);
            assert_eq!(wc & wildcards::IN_PORT == 0, m.in_port.is_some());
            assert_eq!(wc & wildcards::NW_SRC_MASK == 0, m.src.is_some());
            assert_eq!(wc & wildcards::NW_DST_MASK == 0, m.dst.is_some());
            assert_eq!(wc & wildcards::DL_VLAN == 0, m.tag.is_some());
            assert_eq!(be16(&bytes, 12), m.in_port.map_or(0, |p| p.0 as u16));
            assert_eq!(be16(&bytes, 26), m.tag.map_or(0, |t| t.0));
            assert_eq!(be32(&bytes, 36), m.src.map_or(0, |h| h.0));
            assert_eq!(be32(&bytes, 40), m.dst.map_or(0, |h| h.0));
            assert_eq!(decoded_flow_mod(&bytes).matcher, m);
        }
    }
}
