//! The topology graph: switches, links, ports, hosts.
//!
//! Ports are allocated per switch in the order links are attached,
//! starting at 1, exactly like Mininet does when it wires OVS switches.
//! Each (undirected) link knows the port it occupies on both endpoints
//! and its one-way propagation latency, which the data-plane simulator
//! charges per hop.

use std::collections::BTreeMap;
use std::fmt;

use sdn_types::{DpId, HostId, IdMap, LinkId, PortNo, SimDuration};

/// Errors from topology construction and queries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// Switch id already present.
    DuplicateSwitch(DpId),
    /// Host id already present.
    DuplicateHost(HostId),
    /// Referenced switch does not exist.
    UnknownSwitch(DpId),
    /// Referenced host does not exist.
    UnknownHost(HostId),
    /// A link between the two switches already exists.
    DuplicateLink(DpId, DpId),
    /// Self-loops are not allowed.
    SelfLoop(DpId),
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::DuplicateSwitch(dp) => write!(f, "switch {dp} already exists"),
            TopologyError::DuplicateHost(h) => write!(f, "host {h} already exists"),
            TopologyError::UnknownSwitch(dp) => write!(f, "unknown switch {dp}"),
            TopologyError::UnknownHost(h) => write!(f, "unknown host {h}"),
            TopologyError::DuplicateLink(a, b) => write!(f, "link {a} -- {b} already exists"),
            TopologyError::SelfLoop(dp) => write!(f, "self-loop on {dp} not allowed"),
        }
    }
}

impl std::error::Error for TopologyError {}

/// A switch (OpenFlow datapath) in the topology.
#[derive(Debug, Clone)]
pub struct Switch {
    /// Datapath id.
    pub dpid: DpId,
    /// Human-readable name (defaults to `s<dpid>`).
    pub name: String,
    /// Next free port number.
    next_port: u32,
    /// Adjacent switches, in dpid order.
    neighbors: Vec<DpId>,
}

impl Switch {
    fn new(dpid: DpId) -> Self {
        Switch {
            dpid,
            name: format!("{dpid}"),
            next_port: 1,
            neighbors: Vec::new(),
        }
    }

    fn add_neighbor(&mut self, dp: DpId) {
        let at = self.neighbors.partition_point(|&n| n < dp);
        self.neighbors.insert(at, dp);
    }

    fn alloc_port(&mut self) -> PortNo {
        let p = PortNo(self.next_port);
        self.next_port += 1;
        p
    }
}

/// An undirected switch-to-switch link.
#[derive(Debug, Clone)]
pub struct Link {
    /// Link id.
    pub id: LinkId,
    /// First endpoint.
    pub a: DpId,
    /// Port occupied on `a`.
    pub port_a: PortNo,
    /// Second endpoint.
    pub b: DpId,
    /// Port occupied on `b`.
    pub port_b: PortNo,
    /// One-way propagation latency.
    pub latency: SimDuration,
}

impl Link {
    /// The endpoint opposite `from`, if `from` is an endpoint.
    pub fn other(&self, from: DpId) -> Option<DpId> {
        if from == self.a {
            Some(self.b)
        } else if from == self.b {
            Some(self.a)
        } else {
            None
        }
    }

    /// The egress port on `from` toward the other endpoint.
    pub fn egress_port(&self, from: DpId) -> Option<PortNo> {
        if from == self.a {
            Some(self.port_a)
        } else if from == self.b {
            Some(self.port_b)
        } else {
            None
        }
    }
}

/// An end host attached to an edge switch (e.g. `h1` on `s1` in the
/// paper's Figure 1).
#[derive(Debug, Clone)]
pub struct Host {
    /// Host id.
    pub id: HostId,
    /// Switch the host hangs off.
    pub attached_to: DpId,
    /// Switch port facing the host.
    pub port: PortNo,
    /// Host-to-switch latency.
    pub latency: SimDuration,
}

/// The network topology: switches, undirected links, attached hosts.
///
/// Deterministic iteration order (BTreeMap) keeps every downstream
/// artifact — schedules, traces, DOT output — reproducible; link
/// lookups, made once per compiled FlowMod, hash the switch pair.
#[derive(Debug, Clone, Default)]
pub struct Topology {
    switches: BTreeMap<DpId, Switch>,
    links: Vec<Link>,
    hosts: BTreeMap<HostId, Host>,
    /// Link index by (from, to), both directions of every link.
    link_at: IdMap<(DpId, DpId), usize>,
}

impl Topology {
    /// Empty topology.
    pub fn new() -> Self {
        Topology::default()
    }

    /// Add a switch with the given datapath id.
    pub fn add_switch(&mut self, dpid: DpId) -> Result<(), TopologyError> {
        if self.switches.contains_key(&dpid) {
            return Err(TopologyError::DuplicateSwitch(dpid));
        }
        self.switches.insert(dpid, Switch::new(dpid));
        Ok(())
    }

    /// Add switches `1..=n` (convenience for builders).
    pub fn add_switches(&mut self, n: u64) -> Result<(), TopologyError> {
        for i in 1..=n {
            self.add_switch(DpId(i))?;
        }
        Ok(())
    }

    /// Connect two switches with an undirected link of the given
    /// one-way latency. Ports are allocated on both endpoints.
    pub fn add_link(
        &mut self,
        a: DpId,
        b: DpId,
        latency: SimDuration,
    ) -> Result<LinkId, TopologyError> {
        if a == b {
            return Err(TopologyError::SelfLoop(a));
        }
        if !self.switches.contains_key(&a) {
            return Err(TopologyError::UnknownSwitch(a));
        }
        if !self.switches.contains_key(&b) {
            return Err(TopologyError::UnknownSwitch(b));
        }
        if self.adjacent(a, b) {
            return Err(TopologyError::DuplicateLink(a, b));
        }
        let sw_a = self.switches.get_mut(&a).expect("checked");
        sw_a.add_neighbor(b);
        let port_a = sw_a.alloc_port();
        let sw_b = self.switches.get_mut(&b).expect("checked");
        sw_b.add_neighbor(a);
        let port_b = sw_b.alloc_port();
        let id = LinkId(self.links.len() as u32);
        let idx = self.links.len();
        self.links.push(Link {
            id,
            a,
            port_a,
            b,
            port_b,
            latency,
        });
        self.link_at.insert((a, b), idx);
        self.link_at.insert((b, a), idx);
        Ok(id)
    }

    /// Attach a host to a switch, allocating a switch port for it.
    pub fn attach_host(
        &mut self,
        id: HostId,
        to: DpId,
        latency: SimDuration,
    ) -> Result<(), TopologyError> {
        if self.hosts.contains_key(&id) {
            return Err(TopologyError::DuplicateHost(id));
        }
        let sw = self
            .switches
            .get_mut(&to)
            .ok_or(TopologyError::UnknownSwitch(to))?;
        let port = sw.alloc_port();
        self.hosts.insert(
            id,
            Host {
                id,
                attached_to: to,
                port,
                latency,
            },
        );
        Ok(())
    }

    /// Number of switches.
    pub fn switch_count(&self) -> usize {
        self.switches.len()
    }

    /// Number of links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Whether the switch exists.
    pub fn has_switch(&self, dp: DpId) -> bool {
        self.switches.contains_key(&dp)
    }

    /// Iterate over switches in dpid order.
    pub fn switches(&self) -> impl Iterator<Item = &Switch> {
        self.switches.values()
    }

    /// Iterate over switch ids in order.
    pub fn switch_ids(&self) -> impl Iterator<Item = DpId> + '_ {
        self.switches.keys().copied()
    }

    /// Iterate over links.
    pub fn links(&self) -> impl Iterator<Item = &Link> {
        self.links.iter()
    }

    /// Iterate over hosts in id order.
    pub fn hosts(&self) -> impl Iterator<Item = &Host> {
        self.hosts.values()
    }

    /// Look up a host.
    pub fn host(&self, id: HostId) -> Option<&Host> {
        self.hosts.get(&id)
    }

    /// Neighbors of a switch, in dpid order.
    pub fn neighbors(&self, dp: DpId) -> impl Iterator<Item = DpId> + '_ {
        self.switches
            .get(&dp)
            .into_iter()
            .flat_map(|s| s.neighbors.iter().copied())
    }

    /// The link between two switches, if any.
    pub fn link_between(&self, a: DpId, b: DpId) -> Option<&Link> {
        self.link_at.get(&(a, b)).map(|&i| &self.links[i])
    }

    /// The egress port on `from` toward adjacent switch `to`.
    pub fn egress_port(&self, from: DpId, to: DpId) -> Option<PortNo> {
        self.link_between(from, to)
            .and_then(|l| l.egress_port(from))
    }

    /// The switch reached by leaving `from` through `port`, together
    /// with the link latency, or the host on that port.
    pub fn port_peer(&self, from: DpId, port: PortNo) -> Option<PortPeer> {
        for l in &self.links {
            if l.a == from && l.port_a == port {
                return Some(PortPeer::Switch(l.b, l.latency));
            }
            if l.b == from && l.port_b == port {
                return Some(PortPeer::Switch(l.a, l.latency));
            }
        }
        for h in self.hosts.values() {
            if h.attached_to == from && h.port == port {
                return Some(PortPeer::Host(h.id, h.latency));
            }
        }
        None
    }

    /// Whether two switches are adjacent.
    pub fn adjacent(&self, a: DpId, b: DpId) -> bool {
        self.link_at.contains_key(&(a, b))
    }
}

/// What sits on the far side of a switch port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PortPeer {
    /// Another switch, with the link's one-way latency.
    Switch(DpId, SimDuration),
    /// An end host, with the access latency.
    Host(HostId, SimDuration),
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lat(ms: u64) -> SimDuration {
        SimDuration::from_millis(ms)
    }

    fn triangle() -> Topology {
        let mut t = Topology::new();
        t.add_switches(3).unwrap();
        t.add_link(DpId(1), DpId(2), lat(1)).unwrap();
        t.add_link(DpId(2), DpId(3), lat(1)).unwrap();
        t.add_link(DpId(3), DpId(1), lat(2)).unwrap();
        t
    }

    #[test]
    fn build_triangle() {
        let t = triangle();
        assert_eq!(t.switch_count(), 3);
        assert_eq!(t.link_count(), 3);
        assert!(t.adjacent(DpId(1), DpId(2)));
        assert!(t.adjacent(DpId(2), DpId(1)));
        assert!(!t.adjacent(DpId(1), DpId(1)));
    }

    #[test]
    fn ports_allocated_in_order() {
        let t = triangle();
        // s1's first link (to s2) gets port 1, second (to s3) port 2.
        assert_eq!(t.egress_port(DpId(1), DpId(2)), Some(PortNo(1)));
        assert_eq!(t.egress_port(DpId(1), DpId(3)), Some(PortNo(2)));
        assert_eq!(t.egress_port(DpId(2), DpId(1)), Some(PortNo(1)));
    }

    #[test]
    fn duplicate_switch_rejected() {
        let mut t = Topology::new();
        t.add_switch(DpId(1)).unwrap();
        assert_eq!(
            t.add_switch(DpId(1)),
            Err(TopologyError::DuplicateSwitch(DpId(1)))
        );
    }

    #[test]
    fn duplicate_link_rejected_either_direction() {
        let mut t = Topology::new();
        t.add_switches(2).unwrap();
        t.add_link(DpId(1), DpId(2), lat(1)).unwrap();
        assert_eq!(
            t.add_link(DpId(1), DpId(2), lat(1)),
            Err(TopologyError::DuplicateLink(DpId(1), DpId(2)))
        );
        assert_eq!(
            t.add_link(DpId(2), DpId(1), lat(1)),
            Err(TopologyError::DuplicateLink(DpId(2), DpId(1)))
        );
    }

    #[test]
    fn self_loop_rejected() {
        let mut t = Topology::new();
        t.add_switch(DpId(1)).unwrap();
        assert_eq!(
            t.add_link(DpId(1), DpId(1), lat(1)),
            Err(TopologyError::SelfLoop(DpId(1)))
        );
    }

    #[test]
    fn unknown_switch_rejected() {
        let mut t = Topology::new();
        t.add_switch(DpId(1)).unwrap();
        assert_eq!(
            t.add_link(DpId(1), DpId(9), lat(1)),
            Err(TopologyError::UnknownSwitch(DpId(9)))
        );
        assert_eq!(
            t.attach_host(HostId(1), DpId(9), lat(0)),
            Err(TopologyError::UnknownSwitch(DpId(9)))
        );
    }

    #[test]
    fn host_attachment_and_port_peer() {
        let mut t = triangle();
        t.attach_host(HostId(1), DpId(1), lat(0)).unwrap();
        let h = t.host(HostId(1)).unwrap();
        assert_eq!(h.attached_to, DpId(1));
        // s1 already used ports 1,2 for links; host gets port 3.
        assert_eq!(h.port, PortNo(3));
        assert_eq!(
            t.port_peer(DpId(1), PortNo(3)),
            Some(PortPeer::Host(HostId(1), lat(0)))
        );
        assert_eq!(
            t.port_peer(DpId(1), PortNo(1)),
            Some(PortPeer::Switch(DpId(2), lat(1)))
        );
        assert_eq!(t.port_peer(DpId(1), PortNo(9)), None);
    }

    #[test]
    fn duplicate_host_rejected() {
        let mut t = triangle();
        t.attach_host(HostId(1), DpId(1), lat(0)).unwrap();
        assert_eq!(
            t.attach_host(HostId(1), DpId(2), lat(0)),
            Err(TopologyError::DuplicateHost(HostId(1)))
        );
    }

    #[test]
    fn neighbors_sorted() {
        let t = triangle();
        let n: Vec<DpId> = t.neighbors(DpId(1)).collect();
        assert_eq!(n, vec![DpId(2), DpId(3)]);
    }

    #[test]
    fn link_other_and_egress() {
        let t = triangle();
        let l = t.link_between(DpId(1), DpId(2)).unwrap();
        assert_eq!(l.other(DpId(1)), Some(DpId(2)));
        assert_eq!(l.other(DpId(2)), Some(DpId(1)));
        assert_eq!(l.other(DpId(3)), None);
        assert_eq!(l.egress_port(DpId(3)), None);
    }

    #[test]
    fn error_display() {
        let e = TopologyError::DuplicateLink(DpId(1), DpId(2));
        assert!(e.to_string().contains("s1"));
        assert!(e.to_string().contains("s2"));
    }
}
