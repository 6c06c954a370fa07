//! Flow matching and actions.
//!
//! A [`FlowMatch`] is a conjunction of optional fields (absent =
//! wildcard) over the packet metadata the simulator carries; an
//! [`Action`] list says what a matching switch does. The demo's rules
//! match on destination host (plus a version tag for two-phase-commit
//! rules) and output toward the next hop.

use sdn_types::{HostId, PortNo, VersionTag};

/// Metadata of a packet as seen by a switch pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketMeta {
    /// Ingress port at the current switch.
    pub in_port: PortNo,
    /// Source host.
    pub src: HostId,
    /// Destination host.
    pub dst: HostId,
    /// Version tag carried by the packet, if any.
    pub tag: Option<VersionTag>,
}

/// A match over [`PacketMeta`]; `None` fields are wildcards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct FlowMatch {
    /// Match on ingress port.
    pub in_port: Option<PortNo>,
    /// Match on source host.
    pub src: Option<HostId>,
    /// Match on destination host.
    pub dst: Option<HostId>,
    /// Match on version tag. `Some(tag)` requires the packet to carry
    /// exactly that tag; `None` is a wildcard (matches tagged and
    /// untagged packets alike).
    pub tag: Option<VersionTag>,
}

impl FlowMatch {
    /// Wildcard-everything match.
    pub const ANY: FlowMatch = FlowMatch {
        in_port: None,
        src: None,
        dst: None,
        tag: None,
    };

    /// Match on destination host only (the demo's basic routing rule).
    pub fn dst_host(dst: HostId) -> Self {
        FlowMatch {
            dst: Some(dst),
            ..FlowMatch::ANY
        }
    }

    /// Match on destination host and version tag (two-phase-commit
    /// rule).
    pub fn dst_host_tagged(dst: HostId, tag: VersionTag) -> Self {
        FlowMatch {
            dst: Some(dst),
            tag: Some(tag),
            ..FlowMatch::ANY
        }
    }

    /// Whether the packet satisfies every present field.
    pub fn matches(&self, pkt: &PacketMeta) -> bool {
        self.in_port.is_none_or(|p| p == pkt.in_port)
            && self.src.is_none_or(|s| s == pkt.src)
            && self.dst.is_none_or(|d| d == pkt.dst)
            && self.tag.is_none_or(|t| pkt.tag == Some(t))
    }

    /// Number of concrete (non-wildcard) fields; used as a specificity
    /// tie-breaker among equal priorities.
    pub fn specificity(&self) -> u32 {
        self.in_port.is_some() as u32
            + self.src.is_some() as u32
            + self.dst.is_some() as u32
            + self.tag.is_some() as u32
    }
}

/// A forwarding action.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Action {
    /// Emit on the given port.
    Output(PortNo),
    /// Stamp the packet with a version tag (ingress of two-phase
    /// commit).
    SetTag(VersionTag),
    /// Remove the version tag (egress of two-phase commit).
    StripTag,
    /// Drop the packet.
    Drop,
    /// Punt to the controller (`OFPP_CONTROLLER`); the switch counts
    /// it as a packet-in and sends no message.
    ToController,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt(tag: Option<VersionTag>) -> PacketMeta {
        PacketMeta {
            in_port: PortNo(1),
            src: HostId(1),
            dst: HostId(2),
            tag,
        }
    }

    #[test]
    fn wildcard_matches_everything() {
        assert!(FlowMatch::ANY.matches(&pkt(None)));
        assert!(FlowMatch::ANY.matches(&pkt(Some(VersionTag::NEW))));
        assert_eq!(FlowMatch::ANY.specificity(), 0);
    }

    #[test]
    fn dst_match() {
        let m = FlowMatch::dst_host(HostId(2));
        assert!(m.matches(&pkt(None)));
        let other = PacketMeta {
            dst: HostId(9),
            ..pkt(None)
        };
        assert!(!m.matches(&other));
        assert_eq!(m.specificity(), 1);
    }

    #[test]
    fn tag_match_requires_exact_tag() {
        let m = FlowMatch::dst_host_tagged(HostId(2), VersionTag::NEW);
        assert!(m.matches(&pkt(Some(VersionTag::NEW))));
        assert!(!m.matches(&pkt(None)), "untagged packet must not match");
        assert!(!m.matches(&pkt(Some(VersionTag(7)))));
        assert_eq!(m.specificity(), 2);
    }

    #[test]
    fn untagged_wildcard_matches_tagged_packets() {
        // An untagged (wildcard-tag) rule still matches tagged packets
        // — which is why 2PC tagged rules need higher priority.
        let m = FlowMatch::dst_host(HostId(2));
        assert!(m.matches(&pkt(Some(VersionTag::NEW))));
    }

    #[test]
    fn in_port_and_src_fields() {
        let m = FlowMatch {
            in_port: Some(PortNo(1)),
            src: Some(HostId(1)),
            ..FlowMatch::ANY
        };
        assert!(m.matches(&pkt(None)));
        let wrong_port = PacketMeta {
            in_port: PortNo(2),
            ..pkt(None)
        };
        assert!(!m.matches(&wrong_port));
    }
}
