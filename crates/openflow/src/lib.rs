//! # sdn-openflow
//!
//! An OpenFlow-1.0-style control protocol for the transient-updates
//! workspace: typed messages ([`messages`]), a match/action model
//! ([`flow`]), a binary wire codec with the classic
//! version/type/length/xid header ([`codec`]) and incremental framing
//! over byte streams ([`framing`]). The codec writes the message model
//! straight into exact OpenFlow 1.0 byte layouts and reads it straight
//! back.
//!
//! The subset is the five messages controller and switch exchange —
//! FlowMod (add/modify/delete), BarrierRequest/BarrierReply for round
//! synchronization, and EchoRequest/EchoReply, which carry FlowMod
//! acknowledgements and the resync digest probe — while the codec
//! exercises the real failure modes of a control channel: truncated
//! frames, unknown types, corrupted lengths. Fault injection in
//! `sdn-channel` flips bytes on the wire; every such corruption must
//! surface as a typed [`codec::CodecError`], never a panic.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod flow;
pub mod framing;
pub mod messages;
mod wire;

pub use codec::{decode, encode, CodecError, OFP_VERSION};
pub use flow::{Action, FlowMatch, PacketMeta};
pub use framing::FrameCodec;
pub use messages::{Envelope, FlowMod, FlowModCommand, OfMessage};
