//! The switch engine: control-message handling and the packet
//! pipeline.
//!
//! Control messages arrive in connection order (TCP-like FIFO per
//! switch — the channel layer may *delay* them arbitrarily, which is
//! the asynchrony the paper studies, but never reorders within one
//! connection). The switch processes each message fully before the
//! next, so replying to a [`OfMessage::BarrierRequest`] when it is
//! dequeued gives exactly OpenFlow's barrier guarantee: everything
//! before the barrier has taken effect.

use sdn_openflow::flow::{Action, PacketMeta};
use sdn_openflow::messages::{Envelope, OfMessage};
use sdn_types::{DpId, PortNo};

use crate::flow_table::{FlowTable, TableChange};

/// Counters a switch keeps (the "update time of flow tables"
/// evaluation reads these).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SwitchStats {
    /// FlowMods applied.
    pub flow_mods: u64,
    /// Barriers answered.
    pub barriers: u64,
    /// Echo requests answered.
    pub echoes: u64,
    /// Packets forwarded out a port.
    pub packets_forwarded: u64,
    /// Packets dropped (table miss or Drop action).
    pub packets_dropped: u64,
    /// Packets punted to the controller.
    pub packet_ins: u64,
    /// Controller-bound messages (barrier or echo replies) that
    /// arrived at the switch; each is dropped unanswered.
    pub errors: u64,
}

/// Outcome of running one packet through the pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ForwardResult {
    /// Copies emitted: `(egress port, packet metadata as emitted)`.
    /// Tag-modifying actions apply to subsequent outputs.
    pub emitted: Vec<(PortNo, PacketMeta)>,
    /// Whether the packet was (also) dropped (table miss or explicit
    /// Drop with no prior output).
    pub dropped: bool,
    /// Whether the packet was punted to the controller (counted in
    /// [`SwitchStats::packet_ins`]; no message is sent).
    pub to_controller: bool,
}

/// A software switch.
#[derive(Debug, Clone)]
pub struct SoftSwitch {
    dpid: DpId,
    n_ports: u32,
    table: FlowTable,
    stats: SwitchStats,
}

impl SoftSwitch {
    /// A switch with the given identity and port count.
    pub fn new(dpid: DpId, n_ports: u32) -> Self {
        SoftSwitch {
            dpid,
            n_ports,
            table: FlowTable::new(),
            stats: SwitchStats::default(),
        }
    }

    /// Datapath id.
    pub fn dpid(&self) -> DpId {
        self.dpid
    }

    /// Number of ports (needed to rebuild an identical switch after a
    /// power cycle).
    pub fn n_ports(&self) -> u32 {
        self.n_ports
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> SwitchStats {
        self.stats
    }

    /// Read access to the flow table (diagnostics, tests).
    pub fn table(&self) -> &FlowTable {
        &self.table
    }

    /// Handle one control message, returning the replies to send back
    /// to the controller on the same connection.
    pub fn handle_control(&mut self, env: Envelope) -> Vec<Envelope> {
        self.respond(env).into_iter().collect()
    }

    /// [`SoftSwitch::handle_control`] without the `Vec`: no request
    /// this switch speaks has more than one reply, and the transport's
    /// per-message path should not allocate to say so.
    pub fn respond(&mut self, env: Envelope) -> Option<Envelope> {
        let Envelope { xid, msg } = env;
        match msg {
            OfMessage::EchoRequest(payload) => {
                self.stats.echoes += 1;
                // Digest probe: answer with the ordered rule-hash list
                // of the current table, for the controller's
                // audit-and-repair resync after a reconnect.
                if payload == crate::resync::DIGEST_PROBE {
                    return Some(Envelope::new(
                        xid,
                        OfMessage::EchoReply(crate::resync::encode_digest_report(&self.table)),
                    ));
                }
                // Echo-carried FlowMod acknowledgement: when the
                // payload is itself a well-formed FlowMod frame, apply
                // it before echoing. FlowMods are idempotent
                // (Add-replace / exact Delete), so a duplicate of the
                // plain FlowMod costs nothing, and the echo reply
                // *proves* the rule is installed — the plain FlowMod
                // may have been dropped even though a later barrier
                // survived.
                if let Ok(inner) = sdn_openflow::codec::decode(&payload) {
                    if let OfMessage::FlowMod(fm) = inner.msg {
                        self.stats.flow_mods += 1;
                        let _: TableChange = self.table.apply(&fm);
                    }
                }
                Some(Envelope::new(xid, OfMessage::EchoReply(payload)))
            }
            OfMessage::FlowMod(fm) => {
                self.stats.flow_mods += 1;
                let _: TableChange = self.table.apply(&fm);
                None
            }
            OfMessage::BarrierRequest => {
                // All earlier messages of this connection are already
                // processed (strict FIFO), so the barrier contract
                // holds by construction.
                self.stats.barriers += 1;
                Some(Envelope::new(xid, OfMessage::BarrierReply))
            }
            // A controller-bound message arriving at a switch is a
            // protocol error: counted, not answered.
            OfMessage::BarrierReply | OfMessage::EchoReply(_) => {
                self.stats.errors += 1;
                None
            }
        }
    }

    /// Run a packet through the pipeline.
    pub fn process_packet(&mut self, pkt: PacketMeta) -> ForwardResult {
        let mut result = ForwardResult {
            emitted: Vec::new(),
            dropped: false,
            to_controller: false,
        };
        let Some(actions) = self.table.lookup(&pkt) else {
            self.stats.packets_dropped += 1;
            result.dropped = true;
            return result;
        };
        let mut meta = pkt;
        let mut explicit_drop = false;
        for action in actions {
            match action {
                Action::Output(port) => {
                    result.emitted.push((port, meta));
                }
                Action::SetTag(tag) => meta.tag = Some(tag),
                Action::StripTag => meta.tag = None,
                Action::Drop => explicit_drop = true,
                Action::ToController => result.to_controller = true,
            }
        }
        if result.to_controller {
            self.stats.packet_ins += 1;
        }
        if result.emitted.is_empty() && !result.to_controller {
            self.stats.packets_dropped += 1;
            result.dropped = true;
        } else {
            self.stats.packets_forwarded += result.emitted.len() as u64;
            result.dropped = explicit_drop && result.emitted.is_empty();
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdn_openflow::flow::FlowMatch;
    use sdn_openflow::messages::{FlowMod, FlowModCommand};
    use sdn_types::{HostId, VersionTag, Xid};

    fn sw() -> SoftSwitch {
        SoftSwitch::new(DpId(3), 4)
    }

    fn add_rule(s: &mut SoftSwitch, priority: u16, matcher: FlowMatch, actions: Vec<Action>) {
        let replies = s.handle_control(Envelope::new(
            Xid(1),
            OfMessage::FlowMod(FlowMod {
                command: FlowModCommand::Add,
                priority,
                matcher,
                actions,
                cookie: 0,
            }),
        ));
        assert!(replies.is_empty(), "FlowMod must not be acknowledged");
    }

    fn pkt(dst: u32, tag: Option<VersionTag>) -> PacketMeta {
        PacketMeta {
            in_port: PortNo(1),
            src: HostId(1),
            dst: HostId(dst),
            tag,
        }
    }

    #[test]
    fn hello_echo_features() {
        let mut s = sw();
        assert_eq!(
            s.handle_control(Envelope::new(Xid(6), OfMessage::EchoRequest(vec![1]))),
            vec![Envelope::new(Xid(6), OfMessage::EchoReply(vec![1]))]
        );
        assert_eq!(s.stats().echoes, 1);
    }

    #[test]
    fn barrier_echoes_xid() {
        let mut s = sw();
        let replies = s.handle_control(Envelope::new(Xid(42), OfMessage::BarrierRequest));
        assert_eq!(
            replies,
            vec![Envelope::new(Xid(42), OfMessage::BarrierReply)]
        );
        assert_eq!(s.stats().barriers, 1);
    }

    #[test]
    fn flowmod_then_forward() {
        let mut s = sw();
        add_rule(
            &mut s,
            10,
            FlowMatch::dst_host(HostId(2)),
            vec![Action::Output(PortNo(2))],
        );
        let r = s.process_packet(pkt(2, None));
        assert_eq!(r.emitted, vec![(PortNo(2), pkt(2, None))]);
        assert!(!r.dropped);
        assert_eq!(s.stats().packets_forwarded, 1);
        assert_eq!(s.stats().flow_mods, 1);
    }

    #[test]
    fn table_miss_drops() {
        let mut s = sw();
        let r = s.process_packet(pkt(2, None));
        assert!(r.dropped);
        assert!(r.emitted.is_empty());
        assert_eq!(s.stats().packets_dropped, 1);
    }

    #[test]
    fn set_tag_applies_before_output() {
        // the 2PC ingress rule: stamp NEW then output
        let mut s = sw();
        add_rule(
            &mut s,
            10,
            FlowMatch::dst_host(HostId(2)),
            vec![Action::SetTag(VersionTag::NEW), Action::Output(PortNo(3))],
        );
        let r = s.process_packet(pkt(2, None));
        assert_eq!(r.emitted.len(), 1);
        assert_eq!(r.emitted[0].0, PortNo(3));
        assert_eq!(r.emitted[0].1.tag, Some(VersionTag::NEW));
    }

    #[test]
    fn strip_tag_at_egress() {
        let mut s = sw();
        add_rule(
            &mut s,
            10,
            FlowMatch::dst_host_tagged(HostId(2), VersionTag::NEW),
            vec![Action::StripTag, Action::Output(PortNo(1))],
        );
        let r = s.process_packet(pkt(2, Some(VersionTag::NEW)));
        assert_eq!(r.emitted[0].1.tag, None);
    }

    #[test]
    fn explicit_drop_rule() {
        let mut s = sw();
        add_rule(&mut s, 10, FlowMatch::ANY, vec![Action::Drop]);
        let r = s.process_packet(pkt(2, None));
        assert!(r.dropped);
        assert!(r.emitted.is_empty());
    }

    #[test]
    fn to_controller_counts_packet_in() {
        let mut s = sw();
        add_rule(&mut s, 10, FlowMatch::ANY, vec![Action::ToController]);
        let r = s.process_packet(pkt(2, None));
        assert!(r.to_controller);
        assert!(!r.dropped);
        assert_eq!(s.stats().packet_ins, 1);
    }

    #[test]
    fn unexpected_message_type_errors() {
        let mut s = sw();
        for (n, msg) in [OfMessage::BarrierReply, OfMessage::EchoReply(vec![1])]
            .into_iter()
            .enumerate()
        {
            let replies = s.handle_control(Envelope::new(Xid(1), msg));
            assert!(replies.is_empty(), "{replies:?}");
            assert_eq!(s.stats().errors, n as u64 + 1);
        }
        assert_eq!(s.stats().barriers + s.stats().echoes, 0);
    }

    #[test]
    fn barrier_after_flowmods_sees_all_applied() {
        // FIFO processing: flowmod, flowmod, barrier -> table has both
        // entries when the barrier is answered.
        let mut s = sw();
        add_rule(
            &mut s,
            10,
            FlowMatch::dst_host(HostId(2)),
            vec![Action::Output(PortNo(2))],
        );
        add_rule(
            &mut s,
            11,
            FlowMatch::dst_host(HostId(3)),
            vec![Action::Output(PortNo(3))],
        );
        let replies = s.handle_control(Envelope::new(Xid(5), OfMessage::BarrierRequest));
        assert_eq!(replies[0].msg, OfMessage::BarrierReply);
        assert_eq!(s.table().len(), 2);
    }
}
