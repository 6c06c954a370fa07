//! Incremental framing over a byte stream.
//!
//! Control connections deliver bytes, not messages. [`FrameCodec`]
//! accumulates incoming bytes and yields complete frames — the pattern
//! the async-networking guides teach for length-delimited protocols —
//! while bounding memory and surfacing corrupted length fields early.
//!
//! Errors are *not* sticky: a malformed frame is rejected and reported,
//! but the connection stays usable.
//!
//! * A frame whose header is valid but whose body fails to decode is
//!   consumed exactly (the declared length is trusted), so the stream
//!   stays in sync and the next frame parses normally.
//! * A garbage header (wrong version byte, absurd length) means the
//!   stream position itself is suspect; the codec *resyncs* by scanning
//!   forward for the next plausible frame start instead of tearing the
//!   connection down. Each such scan is counted in
//!   [`FrameCodec::resyncs`].
//!
//! This keeps one corrupted message — the common case under the
//! fault-injecting channel — from killing a connection that is
//! otherwise carrying thousands of healthy frames.
//!
//! A reader loops on [`FrameCodec::next_frame`] until it returns
//! `Ok(None)`, skipping or counting the `Err`s it wants to. The sending
//! side needs no framer: [`crate::codec::try_encode_into`] appends
//! frames to one outgoing buffer, and they delimit themselves.

use bytes::{Buf, BytesMut};

use crate::codec::{decode, CodecError, HEADER_LEN, MAX_FRAME_LEN, OFP_VERSION};
use crate::messages::Envelope;

/// Incremental decoder for a stream of frames.
#[derive(Debug, Default)]
pub struct FrameCodec {
    buf: BytesMut,
    errors: u64,
    resyncs: u64,
}

impl FrameCodec {
    /// Fresh codec.
    pub fn new() -> Self {
        FrameCodec::default()
    }

    /// Feed received bytes.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes currently buffered.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Malformed frames rejected so far.
    pub fn errors(&self) -> u64 {
        self.errors
    }

    /// Times the codec had to scan for a new frame boundary after a
    /// garbage header.
    pub fn resyncs(&self) -> u64 {
        self.resyncs
    }

    /// Whether the first buffered bytes look like a frame start: right
    /// version byte and, once visible, a sane declared length.
    fn head_is_plausible(buf: &[u8], at: usize) -> bool {
        if buf[at] != OFP_VERSION {
            return false;
        }
        if at + 4 <= buf.len() {
            let declared = u16::from_be_bytes([buf[at + 2], buf[at + 3]]) as usize;
            (HEADER_LEN..=MAX_FRAME_LEN).contains(&declared)
        } else {
            true // length not visible yet; give it the benefit of the doubt
        }
    }

    /// Discard bytes until the next frame start. Prefers an offset
    /// where a complete frame actually decodes (unambiguous); falls
    /// back to the first merely-plausible header, and drops the whole
    /// buffer when nothing looks like a frame at all.
    fn resync(&mut self) {
        self.resyncs += 1;
        let buf = &self.buf;
        let mut fallback = None;
        let mut skip = buf.len();
        for i in 1..buf.len() {
            if !Self::head_is_plausible(buf, i) {
                continue;
            }
            if fallback.is_none() {
                fallback = Some(i);
            }
            if i + 4 <= buf.len() {
                let declared = u16::from_be_bytes([buf[i + 2], buf[i + 3]]) as usize;
                if i + declared <= buf.len() && decode(&buf[i..i + declared]).is_ok() {
                    skip = i; // verified frame boundary
                    break;
                }
            }
        }
        if skip == buf.len() {
            skip = fallback.unwrap_or(buf.len());
        }
        self.buf.advance(skip);
    }

    /// Try to extract the next complete frame.
    ///
    /// Returns `Ok(None)` when more bytes are needed and `Ok(Some(env))`
    /// for each complete frame. `Err` reports one rejected frame; the
    /// codec stays usable and the *next* call resumes at the following
    /// frame boundary (exactly, for a body error under a valid header;
    /// after a resync scan, for a garbage header).
    pub fn next_frame(&mut self) -> Result<Option<Envelope>, CodecError> {
        if self.buf.len() < HEADER_LEN {
            return Ok(None);
        }
        let version = self.buf[0];
        if version != OFP_VERSION {
            self.errors += 1;
            self.resync();
            return Err(CodecError::BadVersion(version));
        }
        let declared = u16::from_be_bytes([self.buf[2], self.buf[3]]) as usize;
        if !(HEADER_LEN..=MAX_FRAME_LEN).contains(&declared) {
            self.errors += 1;
            self.resync();
            return Err(CodecError::BadLength(declared));
        }
        if self.buf.len() < declared {
            return Ok(None);
        }
        let decoded = decode(&self.buf[..declared]);
        // The declared length was valid, so exactly this frame is
        // consumed whether or not it decodes: the stream stays in sync.
        self.buf.advance(declared);
        match decoded {
            Ok(env) => Ok(Some(env)),
            Err(e) => {
                self.errors += 1;
                Err(e)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::try_encode_into;
    use crate::messages::OfMessage;
    use sdn_types::Xid;

    fn env(x: u32, msg: OfMessage) -> Envelope {
        Envelope::new(Xid(x), msg)
    }

    /// Every complete frame buffered, and how many were rejected.
    fn frames(c: &mut FrameCodec) -> (Vec<Envelope>, u64) {
        let (mut good, mut rejected) = (Vec::new(), 0);
        loop {
            match c.next_frame() {
                Ok(Some(env)) => good.push(env),
                Ok(None) => return (good, rejected),
                Err(_) => rejected += 1,
            }
        }
    }

    #[test]
    fn single_frame_roundtrip() {
        let mut c = FrameCodec::new();
        let e = env(1, OfMessage::BarrierRequest);
        c.feed(&crate::codec::encode(&e));
        assert_eq!(c.next_frame().unwrap(), Some(e));
        assert_eq!(c.next_frame().unwrap(), None);
    }

    #[test]
    fn partial_delivery_boundaries() {
        let mut c = FrameCodec::new();
        let e = env(2, OfMessage::EchoRequest(vec![9; 20]));
        let bytes = crate::codec::encode(&e);
        // feed one byte at a time
        for (i, b) in bytes.iter().enumerate() {
            c.feed(&[*b]);
            let got = c.next_frame().unwrap();
            if i + 1 == bytes.len() {
                assert_eq!(got, Some(e.clone()));
            } else {
                assert_eq!(got, None, "premature frame at byte {i}");
            }
        }
    }

    #[test]
    fn coalesced_frames_split_correctly() {
        let mut c = FrameCodec::new();
        let e1 = env(1, OfMessage::BarrierReply);
        let e2 = env(2, OfMessage::BarrierRequest);
        let e3 = env(3, OfMessage::EchoReply(vec![1, 2]));
        let mut all = Vec::new();
        for e in [&e1, &e2, &e3] {
            all.extend_from_slice(&crate::codec::encode(e));
        }
        c.feed(&all);
        assert_eq!(frames(&mut c), (vec![e1, e2, e3], 0));
        assert_eq!(c.buffered(), 0);
    }

    #[test]
    fn corrupted_version_does_not_poison() {
        let mut c = FrameCodec::new();
        let good = env(2, OfMessage::BarrierRequest);
        let mut bytes = crate::codec::encode(&env(1, OfMessage::BarrierRequest)).to_vec();
        bytes[0] = 0xff;
        bytes.extend_from_slice(&crate::codec::encode(&good));
        c.feed(&bytes);
        assert!(matches!(c.next_frame(), Err(CodecError::BadVersion(0xff))));
        // the stream resynced onto the next valid frame
        assert_eq!(c.next_frame().unwrap(), Some(good));
        assert_eq!(c.errors(), 1);
        assert_eq!(c.resyncs(), 1);
    }

    #[test]
    fn corrupted_length_does_not_poison() {
        let mut c = FrameCodec::new();
        let good = env(3, OfMessage::BarrierReply);
        let mut bytes = crate::codec::encode(&env(1, OfMessage::BarrierRequest)).to_vec();
        bytes[2] = 0xff;
        bytes[3] = 0xff; // declared 65535 > MAX_FRAME_LEN
        bytes.extend_from_slice(&crate::codec::encode(&good));
        c.feed(&bytes);
        assert!(matches!(c.next_frame(), Err(CodecError::BadLength(_))));
        assert_eq!(c.next_frame().unwrap(), Some(good));
    }

    #[test]
    fn body_error_consumes_exactly_one_frame() {
        let mut c = FrameCodec::new();
        // valid header, unknown type code: consumed as one frame
        let mut bad = crate::codec::encode(&env(1, OfMessage::BarrierRequest)).to_vec();
        bad[1] = 250;
        let good = env(2, OfMessage::BarrierReply);
        c.feed(&bad);
        c.feed(&crate::codec::encode(&good));
        assert!(matches!(c.next_frame(), Err(CodecError::UnknownType(250))));
        assert_eq!(c.next_frame().unwrap(), Some(good));
        assert_eq!(c.resyncs(), 0, "in-sync rejection needs no resync scan");
    }

    #[test]
    fn garbage_then_truncated_then_good_stream_survives() {
        let mut c = FrameCodec::new();
        let good = env(9, OfMessage::EchoReply(vec![5, 6]));
        c.feed(&[0x47, 0x41, 0x52, 0x42]); // pure garbage
        c.feed(&crate::codec::encode(&good));
        let (good_frames, rejected) = frames(&mut c);
        assert_eq!(good_frames, vec![good]);
        assert!(rejected >= 1);
        assert_eq!(c.buffered(), 0);
    }

    #[test]
    fn encode_to_appends() {
        let (e1, e2) = (
            env(1, OfMessage::BarrierReply),
            env(2, OfMessage::BarrierRequest),
        );
        let mut out = BytesMut::new();
        try_encode_into(&e1, &mut out).unwrap();
        try_encode_into(&e2, &mut out).unwrap();
        let mut c = FrameCodec::new();
        c.feed(&out);
        assert_eq!(frames(&mut c), (vec![e1, e2], 0));
    }
}
