//! Control messages.
//!
//! The subset of OpenFlow 1.0 the controller and its switches
//! exchange, as typed Rust values: FlowMods, barriers and echoes. An
//! [`Envelope`] pairs a message with its transaction id
//! ([`sdn_types::Xid`]); barrier replies echo the xid of their request,
//! which is how the round executor attributes acknowledgements.

use sdn_types::Xid;

use crate::flow::{Action, FlowMatch};

/// FlowMod sub-command.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlowModCommand {
    /// Insert a new flow entry (replaces an identical match+priority).
    Add,
    /// Modify the actions of matching entries (falls back to add when
    /// nothing matches, like OVS).
    Modify,
    /// Remove matching entries (exact match + priority).
    Delete,
}

/// A flow table modification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowMod {
    /// What to do.
    pub command: FlowModCommand,
    /// Entry priority (higher wins).
    pub priority: u16,
    /// The match.
    pub matcher: FlowMatch,
    /// Action list (empty = drop).
    pub actions: Vec<Action>,
    /// Opaque controller cookie (used to tag rule generations).
    pub cookie: u64,
}

/// A control message: the five a controller and a switch exchange.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OfMessage {
    /// Flow table modification.
    FlowMod(FlowMod),
    /// Fence: the switch must finish all earlier messages of this
    /// connection before answering.
    BarrierRequest,
    /// Fence acknowledgement (echoes the request xid).
    BarrierReply,
    /// Liveness probe; in ack mode it carries a FlowMod frame, and it
    /// carries the resync digest probe.
    EchoRequest(Vec<u8>),
    /// Liveness response (echoes the request payload).
    EchoReply(Vec<u8>),
}

impl OfMessage {
    /// Short human-readable name (for traces and logs).
    pub fn kind(&self) -> &'static str {
        match self {
            OfMessage::FlowMod(_) => "flow-mod",
            OfMessage::BarrierRequest => "barrier-request",
            OfMessage::BarrierReply => "barrier-reply",
            OfMessage::EchoRequest(_) => "echo-request",
            OfMessage::EchoReply(_) => "echo-reply",
        }
    }
}

/// A message paired with its transaction id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope {
    /// Transaction id; replies echo the request's.
    pub xid: Xid,
    /// The message.
    pub msg: OfMessage,
}

impl Envelope {
    /// Convenience constructor.
    pub fn new(xid: Xid, msg: OfMessage) -> Self {
        Envelope { xid, msg }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_are_distinct_and_stable() {
        let msgs = [
            OfMessage::BarrierRequest,
            OfMessage::BarrierReply,
            OfMessage::EchoRequest(vec![]),
            OfMessage::EchoReply(vec![]),
        ];
        let kinds: Vec<_> = msgs.iter().map(|m| m.kind()).collect();
        assert_eq!(
            kinds,
            vec![
                "barrier-request",
                "barrier-reply",
                "echo-request",
                "echo-reply"
            ]
        );
    }

    #[test]
    fn envelope_carries_xid() {
        let e = Envelope::new(Xid(7), OfMessage::BarrierRequest);
        assert_eq!(e.xid, Xid(7));
        assert_eq!(e.msg.kind(), "barrier-request");
    }
}
