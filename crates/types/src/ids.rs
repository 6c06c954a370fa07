//! Identifier newtypes.
//!
//! Every entity in the system — switches (datapaths), ports, hosts,
//! links, flows, protocol transactions and rule-version tags — gets its
//! own newtype so the compiler keeps the layers honest. All identifiers
//! are plain integers underneath, matching how Ryu exposes OpenFlow
//! datapaths ("switches ... are identified by integer values called
//! datapaths", §2 of the demo paper).

use std::fmt;

/// Identifier of an OpenFlow datapath (a switch).
///
/// The demo paper's REST format carries routes as lists of datapath
/// numbers (`"oldpath":[<dp-num>,...]`); we mirror that directly.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DpId(pub u64);

impl DpId {
    /// Raw integer value.
    #[inline]
    pub const fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Debug for DpId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

impl fmt::Display for DpId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

impl From<u64> for DpId {
    fn from(v: u64) -> Self {
        DpId(v)
    }
}

/// A switch port number. Port numbering is per-switch, starting at 1
/// (port 0 is reserved, as in OpenFlow where 0 is invalid).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PortNo(pub u32);

impl PortNo {
    /// The OpenFlow `CONTROLLER` pseudo-port.
    pub const CONTROLLER: PortNo = PortNo(0xffff_fffd);
    /// The OpenFlow `LOCAL` pseudo-port.
    pub const LOCAL: PortNo = PortNo(0xffff_fffe);

    /// Raw integer value.
    #[inline]
    pub const fn raw(self) -> u32 {
        self.0
    }
}

impl fmt::Debug for PortNo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            PortNo::CONTROLLER => write!(f, "p[ctrl]"),
            PortNo::LOCAL => write!(f, "p[local]"),
            PortNo(n) => write!(f, "p{n}"),
        }
    }
}

impl fmt::Display for PortNo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// Identifier of an end host attached to the network (e.g. `h1`, `h2`
/// in Figure 1 of the paper).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct HostId(pub u32);

impl fmt::Debug for HostId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "h{}", self.0)
    }
}

impl fmt::Display for HostId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "h{}", self.0)
    }
}

/// Identifier of a (bidirectional) link in the topology.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkId(pub u32);

impl fmt::Debug for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "l{}", self.0)
    }
}

/// Identifier of a flow (a `(src-host, dst-host)` traffic aggregate).
/// The demo updates the single flow h1 → h2; the library supports many.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlowId(pub u32);

impl fmt::Debug for FlowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}", self.0)
    }
}

impl fmt::Display for FlowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// OpenFlow transaction identifier, echoed back in replies. Barrier
/// replies are matched to barrier requests by `Xid`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Xid(pub u32);

impl Xid {
    /// The zero transaction id, used for unsolicited messages.
    pub const ZERO: Xid = Xid(0);

    /// Next transaction id, wrapping (OpenFlow xids wrap in practice).
    #[inline]
    pub fn next(self) -> Xid {
        Xid(self.0.wrapping_add(1))
    }
}

impl fmt::Debug for Xid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "xid:{}", self.0)
    }
}

/// Rule version tag used by the tag-based two-phase-commit fallback
/// (Reitblatt-style per-packet consistency). Tag `0` conventionally
/// means "untagged / old generation".
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VersionTag(pub u16);

impl VersionTag {
    /// The untagged / initial generation.
    pub const OLD: VersionTag = VersionTag(0);
    /// The conventional "new generation" tag used by the two-phase
    /// commit scheduler.
    pub const NEW: VersionTag = VersionTag(1);
}

impl fmt::Debug for VersionTag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl fmt::Display for VersionTag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn dpid_display_matches_paper_notation() {
        assert_eq!(DpId(3).to_string(), "s3");
        assert_eq!(format!("{:?}", DpId(12)), "s12");
    }

    #[test]
    fn dpid_orders_by_raw_value() {
        let mut v = vec![DpId(5), DpId(1), DpId(3)];
        v.sort();
        assert_eq!(v, vec![DpId(1), DpId(3), DpId(5)]);
    }

    #[test]
    fn xid_next_wraps() {
        assert_eq!(Xid(u32::MAX).next(), Xid(0));
        assert_eq!(Xid(7).next(), Xid(8));
    }

    #[test]
    fn version_tags_distinct() {
        assert_ne!(VersionTag::OLD, VersionTag::NEW);
        assert_eq!(VersionTag::OLD.to_string(), "v0");
    }

    #[test]
    fn ids_are_hashable_and_distinct() {
        let set: HashSet<DpId> = (0..100).map(DpId).collect();
        assert_eq!(set.len(), 100);
    }

    #[test]
    fn host_and_flow_display() {
        assert_eq!(HostId(1).to_string(), "h1");
        assert_eq!(FlowId(9).to_string(), "f9");
        assert_eq!(format!("{:?}", LinkId(2)), "l2");
    }
}
